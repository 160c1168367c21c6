//! Property-based tests for the simulation engine.

use proptest::prelude::*;
use storage_sim::{
    ConstantDevice, Driver, FifoScheduler, IoKind, Request, SimTime, VecWorkload, Welford,
};

proptest! {
    /// Welford matches the naive two-pass computation on arbitrary data.
    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        let scale = mean.abs().max(1.0);
        prop_assert!((w.mean() - mean).abs() / scale < 1e-9);
        prop_assert!((w.population_variance() - var).abs() / var.max(1.0) < 1e-6);
    }

    /// Welford merge equals sequential accumulation for any split point.
    #[test]
    fn welford_merge_is_split_invariant(
        xs in prop::collection::vec(-100.0f64..100.0, 2..200),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((xs.len() as f64) * split_frac) as usize;
        let mut all = Welford::new();
        let mut a = Welford::new();
        let mut b = Welford::new();
        for (i, &x) in xs.iter().enumerate() {
            all.push(x);
            if i < split {
                a.push(x);
            } else {
                b.push(x);
            }
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), all.count());
        prop_assert!((a.mean() - all.mean()).abs() < 1e-9);
        prop_assert!((a.population_variance() - all.population_variance()).abs() < 1e-6);
    }

    /// The driver conserves requests and produces causally consistent
    /// completions for arbitrary arrival patterns.
    #[test]
    fn driver_conserves_requests(
        mut gaps in prop::collection::vec(0u32..5000, 1..150),
        service_us in 100u32..5000,
    ) {
        gaps.sort_unstable();
        let requests: Vec<Request> = gaps
            .iter()
            .scan(0u64, |t, &g| {
                *t += u64::from(g);
                Some(*t)
            })
            .enumerate()
            .map(|(i, at)| {
                Request::new(i as u64, SimTime::from_us(at as f64), i as u64 * 8, 8, IoKind::Read)
            })
            .collect();
        let n = requests.len() as u64;
        let mut driver = Driver::new(
            VecWorkload::new(requests),
            FifoScheduler::new(),
            ConstantDevice::new(10_000_000, f64::from(service_us) * 1e-6),
        )
        .record_completions(true);
        let report = driver.run();
        prop_assert_eq!(report.completed, n);
        let completions = report.completions.as_ref().unwrap();
        let mut last_completion = SimTime::ZERO;
        for c in completions {
            prop_assert!(c.start_service >= c.request.arrival);
            prop_assert!(c.completion >= last_completion, "FIFO completes in order");
            last_completion = c.completion;
        }
        // Busy time is exactly n services.
        prop_assert!((report.busy_secs - n as f64 * f64::from(service_us) * 1e-6).abs() < 1e-9);
    }

    /// Response time equals queue + service for every completion.
    #[test]
    fn response_decomposes(arrivals in prop::collection::vec(0u32..1000, 1..50)) {
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        let requests: Vec<Request> = sorted
            .iter()
            .enumerate()
            .map(|(i, &at)| {
                Request::new(i as u64, SimTime::from_ms(f64::from(at)), 0, 1, IoKind::Read)
            })
            .collect();
        let mut driver = Driver::new(
            VecWorkload::new(requests),
            FifoScheduler::new(),
            ConstantDevice::new(100, 2e-3),
        )
        .record_completions(true);
        let report = driver.run();
        for c in report.completions.as_ref().unwrap() {
            let resp = c.response_time().as_secs();
            let decomposed = c.queue_time().as_secs() + c.service_time().as_secs();
            prop_assert!((resp - decomposed).abs() < 1e-12);
        }
    }
}
