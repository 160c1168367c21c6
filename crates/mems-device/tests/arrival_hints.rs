//! The driver's arrival-stream seek hints on a MEMS device: how far ahead
//! of its X-surface read each seek is hinted.

use std::cell::RefCell;

use mems_device::{MemsDevice, MemsParams};
use storage_sim::{
    rng, Driver, FifoScheduler, IoKind, PositionOracle, Request, ServiceBreakdown, SimTime,
    StorageDevice, VecWorkload,
};

/// One entry of a [`HintLog`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Seen {
    /// A seek hint `(from cylinder, to cylinder)`.
    Hint(u64, u64),
    /// A service, with the X seek it read from the seek surface, if any:
    /// `(from, to)` when the sled left one cylinder's center for another.
    Service(Option<(u64, u64)>),
}

/// A MEMS device that logs its seek hints and services in one sequence.
struct HintLog {
    dev: MemsDevice,
    log: RefCell<Vec<Seen>>,
}

impl PositionOracle for HintLog {
    fn position_time(&self, req: &Request, now: SimTime) -> f64 {
        self.dev.position_time(req, now)
    }

    fn position_bucket(&self, req: &Request) -> u64 {
        self.dev.position_bucket(req)
    }

    fn current_bucket(&self) -> u64 {
        self.dev.current_bucket()
    }

    fn prefetch_seek(&self, from_bucket: u64, to_bucket: u64) {
        self.log
            .borrow_mut()
            .push(Seen::Hint(from_bucket, to_bucket));
        self.dev.prefetch_seek(from_bucket, to_bucket);
    }
}

impl StorageDevice for HintLog {
    fn name(&self) -> &str {
        self.dev.name()
    }

    fn capacity_lbns(&self) -> u64 {
        self.dev.capacity_lbns()
    }

    fn service(&mut self, req: &Request, now: SimTime) -> ServiceBreakdown {
        let from = self.dev.current_cylinder();
        let to = self.dev.cylinder_of_lbn(req.lbn);
        let on_grid = self.dev.state().x == self.dev.mapper().x_of_cylinder(from);
        let seek = (on_grid && from != to).then_some((u64::from(from), u64::from(to)));
        self.log.get_mut().push(Seen::Service(seek));
        self.dev.service(req, now)
    }

    fn reset(&mut self) {
        self.dev.reset();
    }
}

#[test]
fn low_load_fifo_hints_each_x_seek_before_the_request_ahead_is_served() {
    // 4 KB requests 4 ms apart, each within one cylinder, so none queues
    // behind another and each leaves the sled in the cylinder that is its
    // bucket. The first hint, at request 0's arrival, names the seek into
    // request 4; every later seek must be hinted before the request ahead
    // of it is served, a request's handling or more before it is read.
    let dev = MemsDevice::new(MemsParams::default());
    let mut rng = rng::seeded(11);
    let mut reqs = Vec::new();
    while reqs.len() < 400 {
        let lbn = rng::uniform_u64(&mut rng, dev.capacity_lbns() - 8);
        if dev.cylinder_of_lbn(lbn) == dev.cylinder_of_lbn(lbn + 7) {
            let at = SimTime::from_ms(4.0 * reqs.len() as f64);
            reqs.push(Request::new(reqs.len() as u64, at, lbn, 8, IoKind::Read));
        }
    }
    let log = HintLog {
        dev,
        log: RefCell::new(Vec::new()),
    };
    let mut driver = Driver::new(VecWorkload::new(reqs), FifoScheduler::new(), log);
    assert_eq!(driver.run().completed, 400);
    let log = driver.into_observables().1.log.into_inner();

    let services: Vec<usize> = (0..log.len())
        .filter(|&i| matches!(log[i], Seen::Service(_)))
        .collect();
    let mut checked = 0;
    for (k, &at) in services.iter().enumerate().skip(4) {
        if let Seen::Service(Some((from, to))) = log[at] {
            let ahead = services[k - 1];
            assert!(
                log[..ahead].contains(&Seen::Hint(from, to)),
                "request {k}'s seek {from} -> {to} was not hinted before request {} was served",
                k - 1
            );
            checked += 1;
        }
    }
    assert!(checked > 390, "only {checked} on-grid X seeks checked");
}
