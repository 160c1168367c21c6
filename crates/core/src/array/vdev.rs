//! Recursive virtual devices: arbitrary stripe/mirror/parity composition.
//!
//! A `Vdev` is a tree of raw devices under interior [`Layout`] nodes —
//! a stripe of mirrors, a mirror of RAID-Z groups, any nesting — and is
//! itself a [`StorageDevice`], so it composes with every scheduler and
//! wrapper. Each interior node runs its layout's [`Layout::plan`]
//! inline; the fleet's `VolumeSpec` routes the same plan to stations.
//! The layering follows the bfffs vdev/cluster design named in the
//! ROADMAP.

use storage_sim::{
    FaultKind, IoKind, PhaseEnergy, PositionOracle, Request, ServiceBreakdown, SimTime,
    StorageDevice,
};

use super::{coalesce, raidz_locate, Layout};

/// A node in a recursive array composition tree.
///
/// # Examples
///
/// A stripe of mirror pairs (RAID-10) over four MEMS devices:
///
/// ```
/// use mems_device::{MemsDevice, MemsParams};
/// use mems_os::array::Vdev;
/// use storage_sim::StorageDevice;
///
/// let pair = || {
///     Vdev::mirror(
///         (0..2)
///             .map(|_| Vdev::leaf(MemsDevice::new(MemsParams::default())))
///             .collect(),
///     )
/// };
/// let volume = Vdev::stripe(vec![pair(), pair()], 64);
/// assert_eq!(volume.name(), "stripe x2 (mirror x2 (MEMS (1 settle constant)))");
/// // Two mirror pairs: half the raw capacity of four devices, in whole
/// // 64-sector strips.
/// assert_eq!(volume.capacity_lbns(), 2 * (2500 * 5 * 540 / 64 * 64));
/// ```
#[derive(Debug)]
pub enum Vdev<D> {
    /// A raw device at the bottom of the tree.
    Leaf(D),
    /// An interior node applying `layout` to its children.
    Node {
        /// How requests spread over the children.
        layout: Layout,
        /// Child vdevs.
        children: Vec<Vdev<D>>,
        /// Addressable LBNs, per [`Layout::capacity`].
        capacity: u64,
        /// Display name.
        name: String,
    },
}

impl<D: StorageDevice> Vdev<D> {
    /// Wraps a raw device as a leaf node.
    pub fn leaf(device: D) -> Self {
        Vdev::Leaf(device)
    }

    /// The raw device, if this is a leaf.
    fn as_leaf(&self) -> Option<&D> {
        match self {
            Vdev::Leaf(d) => Some(d),
            Vdev::Node { .. } => None,
        }
    }

    /// Creates a striped node with `stripe_unit` sectors per strip.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two children or a zero stripe unit.
    pub fn stripe(children: Vec<Vdev<D>>, stripe_unit: u32) -> Self {
        Self::node(Layout::Stripe { stripe_unit }, children)
    }

    /// Creates a mirrored node; reads go to the replica with the smallest
    /// positioning estimate, writes to every replica.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two children or mismatched capacities.
    pub fn mirror(children: Vec<Vdev<D>>) -> Self {
        assert!(
            children
                .windows(2)
                .all(|w| w[0].capacity_lbns() == w[1].capacity_lbns()),
            "replicas must have equal capacity"
        );
        Self::node(Layout::Mirror, children)
    }

    /// Creates a rotating-parity node with `stripe_unit` sectors per strip.
    ///
    /// # Panics
    ///
    /// Panics with fewer than three children or a zero stripe unit.
    pub fn raidz(children: Vec<Vdev<D>>, stripe_unit: u32) -> Self {
        Self::node(Layout::RaidZ { stripe_unit }, children)
    }

    fn node(layout: Layout, children: Vec<Vdev<D>>) -> Self {
        layout.check(children.len());
        let kind = match layout {
            Layout::Stripe { .. } => "stripe",
            Layout::Mirror => "mirror",
            Layout::RaidZ { .. } => "raidz",
        };
        Vdev::Node {
            name: format!("{kind} x{} ({})", children.len(), children[0].name()),
            capacity: layout.capacity(children.iter().map(StorageDevice::capacity_lbns)),
            layout,
            children,
        }
    }

    /// Number of leaf devices in the whole subtree.
    pub fn leaf_count(&self) -> usize {
        match self {
            Vdev::Leaf(_) => 1,
            Vdev::Node { children, .. } => children.iter().map(Vdev::leaf_count).sum(),
        }
    }
}

/// Index of the child with the smallest positioning estimate for `req`,
/// the first on ties.
fn steer<D: StorageDevice>(children: &[Vdev<D>], req: &Request, now: SimTime) -> usize {
    let mut best = 0usize;
    let mut best_t = f64::INFINITY;
    for (i, c) in children.iter().enumerate() {
        let t = c.position_time(req, now);
        if t < best_t {
            best_t = t;
            best = i;
        }
    }
    best
}

/// Combines the slowest member time with a representative breakdown.
fn combine(total: f64, first: ServiceBreakdown) -> ServiceBreakdown {
    ServiceBreakdown {
        positioning: first.positioning.min(total),
        seek_x: first.seek_x,
        settle: first.settle,
        seek_y: first.seek_y,
        rotation: first.rotation,
        transfer: (total - first.positioning - first.overhead).max(0.0),
        turnaround: first.turnaround,
        turnaround_count: first.turnaround_count,
        overhead: first.overhead,
        fault_recovery: first.fault_recovery,
        // Any member-level background wait is already inside `total`,
        // which this synthesized breakdown's `transfer` absorbs.
        background_wait: 0.0,
    }
}

impl<D: StorageDevice> PositionOracle for Vdev<D> {
    fn position_time(&self, req: &Request, now: SimTime) -> f64 {
        let (layout, children) = match self {
            Vdev::Leaf(d) => return d.position_time(req, now),
            Vdev::Node {
                layout, children, ..
            } => (*layout, children),
        };
        match layout {
            // The first strip's member dominates small requests.
            Layout::Stripe { .. } => {
                let mut lead = None;
                layout.plan(
                    children.len(),
                    req.lbn,
                    req.sectors,
                    req.kind,
                    || 0,
                    |io| {
                        lead.get_or_insert(io);
                    },
                );
                let io = lead.expect("a request touches at least one strip");
                children[io.member].position_time(&io.request(req), now)
            }
            // A read waits for the steered replica, a write for the
            // slowest one.
            Layout::Mirror => {
                let times = children.iter().map(|c| c.position_time(req, now));
                match req.kind {
                    IoKind::Read => times.fold(f64::INFINITY, f64::min),
                    IoKind::Write => times.fold(0.0, f64::max),
                }
            }
            // The first strip's data member, over at most one strip.
            Layout::RaidZ { stripe_unit } => {
                let su = u64::from(stripe_unit);
                let (data, _, base) = raidz_locate(req.lbn / su, children.len(), stripe_unit);
                let sub = Request::new(
                    req.id,
                    req.arrival,
                    base + req.lbn % su,
                    req.sectors.min(stripe_unit),
                    req.kind,
                );
                children[data].position_time(&sub, now)
            }
        }
    }

    // A leaf positions exactly as its device, so it forwards the pruning,
    // caching and prefetch hooks too; an interior node keeps the safe
    // defaults.

    fn position_bucket(&self, req: &Request) -> u64 {
        self.as_leaf().map_or(0, |d| d.position_bucket(req))
    }

    fn current_bucket(&self) -> u64 {
        self.as_leaf().map_or(0, D::current_bucket)
    }

    fn min_position_time_at_bucket_distance(&self, distance: u64) -> f64 {
        self.as_leaf()
            .map_or(0.0, |d| d.min_position_time_at_bucket_distance(distance))
    }

    fn bucket_position_time_floor(&self, bucket: u64) -> f64 {
        self.as_leaf()
            .map_or(0.0, |d| d.bucket_position_time_floor(bucket))
    }

    fn rest_key(&self, now: SimTime) -> Option<[u64; 3]> {
        self.as_leaf().and_then(|d| d.rest_key(now))
    }

    fn prefetch_seek(&self, from_bucket: u64, to_bucket: u64) {
        if let Some(d) = self.as_leaf() {
            d.prefetch_seek(from_bucket, to_bucket);
        }
    }
}

impl<D: StorageDevice> StorageDevice for Vdev<D> {
    fn name(&self) -> &str {
        match self {
            Vdev::Leaf(d) => d.name(),
            Vdev::Node { name, .. } => name,
        }
    }

    fn capacity_lbns(&self) -> u64 {
        match self {
            Vdev::Leaf(d) => d.capacity_lbns(),
            Vdev::Node { capacity, .. } => *capacity,
        }
    }

    fn service(&mut self, req: &Request, now: SimTime) -> ServiceBreakdown {
        let (layout, children) = match self {
            Vdev::Leaf(d) => return d.service(req, now),
            Vdev::Node {
                layout,
                children,
                capacity,
                ..
            } => {
                assert!(req.end_lbn() <= *capacity, "beyond array capacity");
                (*layout, children)
            }
        };
        let mut ios = Vec::new();
        layout.plan(
            children.len(),
            req.lbn,
            req.sectors,
            req.kind,
            || steer(children, req, now),
            |io| ios.push(io),
        );
        if layout == Layout::Mirror {
            // Every planned replica serves the request at `now`; the
            // strictly slowest one's breakdown stands.
            return ios
                .iter()
                .map(|io| children[io.member].service(&io.request(req), now))
                .reduce(|slowest, b| {
                    if b.total() > slowest.total() {
                        b
                    } else {
                        slowest
                    }
                })
                .expect("a mirror plan issues at least one access");
        }
        if let Layout::Stripe { .. } = layout {
            coalesce(&mut ios);
        }
        // Members work in parallel, each serving its accesses back to back.
        let mut busy = vec![0.0f64; children.len()];
        let mut firsts = vec![None; children.len()];
        for io in &ios {
            let at = now + SimTime::from_secs(busy[io.member]);
            let b = children[io.member].service(&io.request(req), at);
            firsts[io.member].get_or_insert(b);
            busy[io.member] += b.total();
        }
        let slowest = busy.iter().copied().fold(0.0, f64::max);
        // A stripe's lowest-indexed slowest member's first access stands
        // for the request; RAID-Z's first access in plan order does.
        let lead = match layout {
            Layout::Stripe { .. } => busy.iter().position(|&t| t == slowest),
            _ => Some(ios[0].member),
        };
        combine(slowest, lead.and_then(|m| firsts[m]).unwrap_or_default())
    }

    fn reset(&mut self) {
        match self {
            Vdev::Leaf(d) => d.reset(),
            Vdev::Node { children, .. } => children.iter_mut().for_each(StorageDevice::reset),
        }
    }

    // A leaf forwards both hooks. An interior node keeps the defaults: an
    // array-level fault names no member to deliver it to, and a combined
    // breakdown mixes members' phases, so it is no one member's to price.

    fn phase_energy(&self, breakdown: &ServiceBreakdown) -> PhaseEnergy {
        self.as_leaf()
            .map_or_else(PhaseEnergy::default, |d| d.phase_energy(breakdown))
    }

    fn on_fault(&mut self, fault: &FaultKind, now: SimTime) {
        if let Vdev::Leaf(d) = self {
            d.on_fault(fault, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::tests::{disk, leaves, mems};
    use crate::sched::SptfScheduler;
    use rand::RngExt;
    use storage_sim::Driver;
    use storage_trace::RandomWorkload;

    fn read(lbn: u64, sectors: u32) -> Request {
        Request::new(0, SimTime::ZERO, lbn, sectors, IoKind::Read)
    }

    fn write(lbn: u64, sectors: u32) -> Request {
        Request::new(0, SimTime::ZERO, lbn, sectors, IoKind::Write)
    }

    /// FNV-1a over 64-bit words.
    struct Fnv(u64);

    impl Fnv {
        fn put(&mut self, v: u64) {
            self.0 = (self.0 ^ v).wrapping_mul(0x100_0000_01b3);
        }

        fn put_breakdown(&mut self, b: &ServiceBreakdown) {
            for v in [
                b.positioning,
                b.seek_x,
                b.settle,
                b.seek_y,
                b.rotation,
                b.transfer,
                b.turnaround,
                b.overhead,
                b.fault_recovery,
                b.background_wait,
            ] {
                self.put(v.to_bits());
            }
            self.put(u64::from(b.turnaround_count));
        }
    }

    /// Hashes 3,000 directed `position_time` + `service` calls (random,
    /// 64-aligned and `stripe`-aligned LBNs, 1 to 2,048 sectors, reads and
    /// writes, `now` advancing) and a 600-request SPTF driver run, all
    /// below `capacity`. `stripe` is the tree's whole-stripe width, so
    /// aligned writes of its multiples take the full-stripe path.
    fn digest<T: StorageDevice>(
        build: impl Fn() -> T,
        capacity: u64,
        stripe: u64,
        rate: f64,
    ) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let mut tree = build();
        let mut rng = storage_sim::rng::seeded(0x5EED);
        let mut now = SimTime::ZERO;
        for id in 0..3000 {
            let kind = if rng.random::<bool>() {
                IoKind::Read
            } else {
                IoKind::Write
            };
            let sectors = match rng.random_range(0..4) {
                0 => 8,
                1 => rng.random_range(1..65),
                2 => rng.random_range(1..2049),
                _ => stripe * rng.random_range(1..2048 / stripe + 1),
            };
            let align = [1, 64, stripe][rng.random_range(0..3) as usize];
            let lbn = rng.random_range(0..(capacity - sectors) / align + 1) * align;
            let req = Request::new(id, now, lbn, sectors as u32, kind);
            h.put(tree.position_time(&req, now).to_bits());
            let b = tree.service(&req, now);
            h.put_breakdown(&b);
            now += SimTime::from_secs(b.total() + rng.random_range(0..1000) as f64 * 1e-6);
        }
        let run = Driver::new(
            RandomWorkload::paper(capacity, rate, 600, 0xF1EE7),
            SptfScheduler::new(),
            build(),
        )
        .record_completions(true)
        .run();
        h.put(run.completed);
        for v in [
            run.makespan.as_secs(),
            run.response.mean(),
            run.service_time.mean(),
            run.busy_secs,
            run.mean_queue_depth,
        ] {
            h.put(v.to_bits());
        }
        for c in run.completions.as_ref().expect("recorded") {
            h.put(c.request.id);
            h.put(c.start_service.as_secs().to_bits());
            h.put(c.completion.as_secs().to_bits());
        }
        h.0
    }

    /// Checks a tree's capacity, and its digest against a recorded one.
    /// Depth-1 digests come from the flat RAID-0/1/5 array devices this
    /// tree replaced, nested ones from the `Vdev` that preceded `Layout`;
    /// the two agreed on every depth-1 tree.
    fn check<T: StorageDevice>(
        build: impl Fn() -> T,
        capacity: u64,
        stripe: u64,
        rate: f64,
        recorded: u64,
    ) {
        let tree = build();
        assert_eq!(tree.capacity_lbns(), capacity, "{}", tree.name());
        assert_eq!(
            digest(build, capacity, stripe, rate),
            recorded,
            "{}",
            tree.name()
        );
    }

    #[test]
    fn depth1_stripe_matches_raid0_exactly() {
        let recorded = 0x2e0a_5ad3_3078_69c6;
        check(
            || Vdev::stripe(leaves(4, mems), 64),
            26_999_808,
            256,
            2000.0,
            recorded,
        );
        let recorded = 0x4e8b_c355_3b21_99a3;
        check(
            || Vdev::stripe(leaves(4, disk), 64),
            67_905_024,
            256,
            600.0,
            recorded,
        );
    }

    #[test]
    fn depth1_mirror_matches_raid1_exactly() {
        let recorded = 0xfd25_6d5a_b20e_bf53;
        check(
            || Vdev::mirror(leaves(2, mems)),
            6_750_000,
            64,
            1200.0,
            recorded,
        );
        let recorded = 0xc3cd_6ef1_75b1_620b;
        check(
            || Vdev::mirror(leaves(2, disk)),
            16_976_256,
            64,
            400.0,
            recorded,
        );
    }

    #[test]
    fn depth1_raidz_matches_raid5_exactly() {
        let recorded = 0x1246_50d0_3757_2a29;
        check(
            || Vdev::raidz(leaves(5, mems), 8),
            27_000_000,
            32,
            1600.0,
            recorded,
        );
        let recorded = 0xbfa9_c9f2_7469_be99;
        check(
            || Vdev::raidz(leaves(5, mems), 64),
            26_999_808,
            256,
            1600.0,
            recorded,
        );
        let recorded = 0xd08f_553b_b862_f88b;
        check(
            || Vdev::raidz(leaves(5, disk), 64),
            67_905_024,
            256,
            500.0,
            recorded,
        );
    }

    #[test]
    fn nested_trees_match_recorded_digests() {
        let pairs = || {
            let pair = || Vdev::mirror(leaves(2, mems));
            Vdev::stripe(vec![pair(), pair()], 64)
        };
        check(pairs, 13_499_904, 128, 1500.0, 0x8434_2cb1_b70d_ea34);
        let pairs = || {
            let pair = || Vdev::mirror(leaves(2, disk));
            Vdev::stripe(vec![pair(), pair()], 64)
        };
        check(pairs, 33_952_512, 128, 500.0, 0xdb2a_7d21_8fb6_5a39);
        let mirrored = || {
            let z3 = || Vdev::raidz(leaves(3, mems), 8);
            Vdev::mirror(vec![z3(), z3()])
        };
        check(mirrored, 13_500_000, 16, 1200.0, 0x211d_1dc7_b9ab_0015);
        let parity = || {
            let s2 = || Vdev::stripe(leaves(2, mems), 16);
            Vdev::raidz(vec![s2(), s2(), s2()], 32)
        };
        check(parity, 27_000_000, 64, 1500.0, 0x25b2_c534_1aa7_6d65);
    }

    #[test]
    fn last_sectors_are_served_at_64_sector_strips() {
        // 6,750,000 LBNs per MEMS device is not a multiple of 64: each
        // tree addresses only whole strips, so its last 8 sectors map
        // inside every member.
        let pair = || Vdev::mirror(leaves(2, mems));
        let trees = [
            (Vdev::stripe(leaves(4, mems), 64), 4 * 6_749_952),
            (Vdev::raidz(leaves(5, mems), 64), 4 * 6_749_952),
            (Vdev::stripe(vec![pair(), pair()], 64), 2 * 6_749_952),
        ];
        for (mut tree, capacity) in trees {
            assert_eq!(tree.capacity_lbns(), capacity, "{}", tree.name());
            for req in [read(capacity - 8, 8), write(capacity - 8, 8)] {
                assert!(tree.service(&req, SimTime::ZERO).total() > 0.0);
            }
        }
    }

    #[test]
    fn nested_stripe_of_mirrors_has_mirror_capacity() {
        let pair = || Vdev::mirror(leaves(2, mems));
        let v = Vdev::stripe(vec![pair(), pair()], 64);
        assert_eq!(v.capacity_lbns(), 2 * 6_749_952);
        assert_eq!(v.leaf_count(), 4);
        let Vdev::Node { children, .. } = &v else {
            panic!("a stripe is a node")
        };
        assert_eq!(children.len(), 2);
    }

    #[test]
    fn nested_mirror_write_lands_on_every_leaf() {
        // A stripe-of-mirrors write to one strip must busy both replicas
        // of that mirror; reading it back right after is positioning-free
        // on the steered replica.
        let pair = || Vdev::mirror(leaves(2, mems));
        let mut v = Vdev::stripe(vec![pair(), pair()], 64);
        let w = v.service(&write(0, 8), SimTime::ZERO);
        let r = v.service(&read(0, 8), SimTime::ZERO);
        assert!(r.positioning <= w.positioning + 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least three")]
    fn raidz_needs_three() {
        let _ = Vdev::raidz(leaves(2, mems), 8);
    }
}
