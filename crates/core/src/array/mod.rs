//! Device arrays: striping, mirroring, and rotating parity (§6.2).
//!
//! The paper packages several MEMS sleds into a disk form factor (§2.1)
//! and leans on inter-device redundancy for whole-device failures
//! (§6.2). Every array here is a tree whose interior nodes each apply
//! one [`Layout`]:
//!
//! * [`Layout::Stripe`] — block-interleaved striping for bandwidth;
//! * [`Layout::Mirror`] — replication, where a read goes to one replica
//!   and a write to all of them;
//! * [`Layout::RaidZ`] — left-symmetric rotating parity, where
//!   partial-strip writes pay the read-modify-write cycle that Table 2
//!   shows is ~19× cheaper on MEMS than on disks.
//!
//! A `Layout` alone decides how many children a node needs, how many
//! LBNs it can address, and which member accesses a request becomes
//! ([`Layout::plan`]). Two executors run that plan. [`Vdev`] services
//! it inline as a composable [`storage_sim::StorageDevice`], so every
//! scheduler, workload, and power wrapper runs unchanged against an
//! array: members work in parallel, a request completes when its slowest
//! member finishes, and mirror reads go to the mechanically closest
//! replica (cheap on MEMS because positioning estimates are exact). The
//! fleet's `VolumeSpec` queues the same plan as per-station sub-I/Os.

mod vdev;

pub use vdev::Vdev;

use storage_sim::{IoKind, Request};

/// How an interior array node spreads a request over its children.
///
/// # Examples
///
/// ```
/// use mems_os::array::Layout;
/// use storage_sim::IoKind;
///
/// // Striped and parity nodes round each child down to whole strips:
/// // a 6,750,000-LBN MEMS device holds 6,749,952 LBNs of 64-sector strips.
/// assert_eq!(Layout::Stripe { stripe_unit: 64 }.capacity([6_750_000; 4]), 4 * 6_749_952);
/// // RAID-Z spends one child's worth on parity; a mirror offers one child.
/// assert_eq!(Layout::RaidZ { stripe_unit: 8 }.capacity([6_750_000; 5]), 4 * 6_750_000);
/// assert_eq!(Layout::Mirror.capacity([6_750_000; 2]), 6_750_000);
///
/// // A 4 KB RAID-Z write reads and rewrites its data and parity members.
/// let mut kinds = Vec::new();
/// Layout::RaidZ { stripe_unit: 8 }.plan(5, 0, 8, IoKind::Write, || 0, |io| kinds.push(io.kind));
/// assert_eq!(kinds, [IoKind::Read, IoKind::Write, IoKind::Read, IoKind::Write]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Block-interleaved striping (RAID-0).
    Stripe {
        /// Sectors per strip.
        stripe_unit: u32,
    },
    /// Replication (RAID-1).
    Mirror,
    /// Left-symmetric rotating parity (RAID-5 / RAID-Z).
    RaidZ {
        /// Sectors per strip.
        stripe_unit: u32,
    },
}

/// One member access of a planned request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberIo {
    /// Child index within the node.
    pub member: usize,
    /// Member-local LBN.
    pub lbn: u64,
    /// Sectors to transfer.
    pub sectors: u32,
    /// Read or write.
    pub kind: IoKind,
}

impl MemberIo {
    /// The access as a request carrying `base`'s id and arrival time.
    pub(crate) fn request(&self, base: &Request) -> Request {
        Request::new(base.id, base.arrival, self.lbn, self.sectors, self.kind)
    }
}

impl Layout {
    /// Checks that a node of this layout over `members` children is
    /// well formed.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two children for a stripe or a mirror,
    /// fewer than three for RAID-Z, or a zero stripe unit.
    pub fn check(self, members: usize) {
        let (least, what) = match self {
            Layout::Stripe { .. } => (2, "striping needs at least two members"),
            Layout::Mirror => (2, "mirroring needs at least two replicas"),
            Layout::RaidZ { .. } => (3, "RAID-Z needs at least three members"),
        };
        assert!(members >= least, "{what}");
        if let Layout::Stripe { stripe_unit } | Layout::RaidZ { stripe_unit } = self {
            assert!(stripe_unit > 0, "stripe unit must be positive");
        }
    }

    /// Addressable LBNs of a node over children of `capacities` LBNs.
    ///
    /// Striped and parity nodes round each child down to whole strips:
    /// strips go round-robin, so a partial trailing strip on one child
    /// would route past another child's end. Every LBN below the result
    /// plans to in-bounds member accesses. A mirror offers its smallest
    /// child.
    pub fn capacity(self, capacities: impl IntoIterator<Item = u64>) -> u64 {
        let (members, smallest) = capacities
            .into_iter()
            .fold((0, u64::MAX), |(n, least), c| (n + 1, least.min(c)));
        match self {
            Layout::Mirror => smallest,
            Layout::Stripe { stripe_unit } => members * whole_strips(smallest, stripe_unit),
            Layout::RaidZ { stripe_unit } => (members - 1) * whole_strips(smallest, stripe_unit),
        }
    }

    /// Plans `sectors` sectors at `lbn` on a node of `members` children,
    /// passing each member access to `issue` in order:
    ///
    /// * stripe — one access per strip touched, in LBN order;
    /// * mirror — a read goes to the child `read_from` names, a write to
    ///   every child in order;
    /// * RAID-Z — a read reads the data member of each strip touched. A
    ///   write covering whole stripes writes each data strip, and after a
    ///   stripe's first data strip its parity strip. Any other write pays
    ///   read-modify-write per strip: read then write the data member,
    ///   then the parity member.
    pub fn plan(
        self,
        members: usize,
        lbn: u64,
        sectors: u32,
        kind: IoKind,
        read_from: impl FnOnce() -> usize,
        mut issue: impl FnMut(MemberIo),
    ) {
        let n = members as u64;
        let io = |member, lbn, sectors, kind| MemberIo {
            member,
            lbn,
            sectors,
            kind,
        };
        match self {
            Layout::Mirror => match kind {
                IoKind::Read => issue(io(read_from(), lbn, sectors, kind)),
                IoKind::Write => (0..members).for_each(|m| issue(io(m, lbn, sectors, kind))),
            },
            Layout::Stripe { stripe_unit } => {
                for (strip, offset, chunk) in strips(lbn, sectors, stripe_unit) {
                    let at = strip / n * u64::from(stripe_unit) + offset;
                    issue(io((strip % n) as usize, at, chunk, kind));
                }
            }
            Layout::RaidZ { stripe_unit } => {
                let data_width = (n - 1) * u64::from(stripe_unit);
                let whole_stripes = kind == IoKind::Write
                    && lbn.is_multiple_of(data_width)
                    && u64::from(sectors).is_multiple_of(data_width);
                for (strip, offset, chunk) in strips(lbn, sectors, stripe_unit) {
                    let (data, parity, base) = raidz_locate(strip, members, stripe_unit);
                    let at = base + offset;
                    match kind {
                        IoKind::Read => issue(io(data, at, chunk, kind)),
                        IoKind::Write if whole_stripes => {
                            issue(io(data, at, chunk, kind));
                            if strip.is_multiple_of(n - 1) {
                                issue(io(parity, base, stripe_unit, kind));
                            }
                        }
                        IoKind::Write => {
                            for member in [data, parity] {
                                issue(io(member, at, chunk, IoKind::Read));
                                issue(io(member, at, chunk, IoKind::Write));
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `capacity` rounded down to whole `stripe_unit`-sector strips.
fn whole_strips(capacity: u64, stripe_unit: u32) -> u64 {
    let su = u64::from(stripe_unit);
    capacity / su * su
}

/// The strips `[lbn, lbn + sectors)` touches, as
/// `(strip, offset in strip, sectors)`.
fn strips(lbn: u64, sectors: u32, stripe_unit: u32) -> impl Iterator<Item = (u64, u64, u32)> {
    let su = u64::from(stripe_unit);
    let end = lbn + u64::from(sectors);
    let mut at = lbn;
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let (strip, offset) = (at / su, at % su);
            let chunk = (su - offset).min(end - at);
            at += chunk;
            (strip, offset, chunk as u32)
        })
    })
}

/// Maps an array-logical strip to (data member, parity member,
/// member-local base LBN) under the left-symmetric rotating-parity
/// layout.
pub(crate) fn raidz_locate(strip: u64, members: usize, stripe_unit: u32) -> (usize, usize, u64) {
    let n = members as u64;
    let stripe = strip / (n - 1);
    let within = strip % (n - 1);
    let parity = (n - 1 - (stripe % n)) as usize;
    let mut data = within as usize;
    if data >= parity {
        data += 1;
    }
    (data, parity, stripe * u64::from(stripe_unit))
}

/// Groups accesses by member in LBN order and merges adjacent ones of the
/// same kind, so a striped transfer reads each tip-sector row once.
fn coalesce(ios: &mut Vec<MemberIo>) {
    ios.sort_by_key(|io| (io.member, io.lbn));
    ios.dedup_by(|next, last| {
        let adjacent = last.member == next.member
            && last.lbn + u64::from(last.sectors) == next.lbn
            && last.kind == next.kind;
        if adjacent {
            last.sectors += next.sectors;
        }
        adjacent
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_disk::{DiskDevice, DiskParams};
    use mems_device::{MemsDevice, MemsParams};
    use storage_sim::StorageDevice;

    pub(super) fn mems() -> MemsDevice {
        MemsDevice::new(MemsParams::default())
    }

    pub(super) fn disk() -> DiskDevice {
        DiskDevice::new(DiskParams::quantum_atlas_10k())
    }

    /// `n` fresh devices as array leaves.
    pub(super) fn leaves<D: StorageDevice>(n: usize, device: fn() -> D) -> Vec<Vdev<D>> {
        (0..n).map(|_| Vdev::leaf(device())).collect()
    }

    /// The stripe plan of a read, collected.
    fn stripe_plan(lbn: u64, sectors: u32, stripe_unit: u32, members: usize) -> Vec<MemberIo> {
        let mut ios = Vec::new();
        Layout::Stripe { stripe_unit }.plan(
            members,
            lbn,
            sectors,
            IoKind::Read,
            || 0,
            |io| ios.push(io),
        );
        ios
    }

    fn read(member: usize, lbn: u64, sectors: u32) -> MemberIo {
        MemberIo {
            member,
            lbn,
            sectors,
            kind: IoKind::Read,
        }
    }

    #[test]
    fn spans_cover_the_request_exactly() {
        let ios = stripe_plan(0, 64, 8, 4);
        let total: u32 = ios.iter().map(|s| s.sectors).sum();
        assert_eq!(total, 64);
        // 64 sectors over 4 members at 8-sector strips: 16 per member.
        for m in 0..4 {
            let per: u32 = ios
                .iter()
                .filter(|s| s.member == m)
                .map(|s| s.sectors)
                .sum();
            assert_eq!(per, 16, "member {m}");
        }
    }

    #[test]
    fn unaligned_request_splits_at_strip_boundaries() {
        // Sectors 5..15: strip 0 (member 0, lbn 5..8), strip 1 (member 1,
        // lbn 0..7).
        assert_eq!(stripe_plan(5, 10, 8, 2), [read(0, 5, 3), read(1, 0, 7)]);
    }

    #[test]
    fn wrapping_strips_merge_on_the_same_member() {
        // 2 members: strips 0 and 2 both live on member 0 at lbns 0..8
        // and 8..16. The plan keeps them apart in LBN order; coalescing
        // merges them per member.
        let ios = stripe_plan(0, 32, 8, 2);
        assert_eq!(
            ios,
            [read(0, 0, 8), read(1, 0, 8), read(0, 8, 8), read(1, 8, 8)],
            "alternating strips stay separate accesses"
        );
        let mut merged = ios;
        coalesce(&mut merged);
        assert_eq!(merged, [read(0, 0, 16), read(1, 0, 16)]);
    }

    #[test]
    fn single_sector_request_is_one_span() {
        let ios = stripe_plan(17, 1, 8, 5);
        assert_eq!(ios.len(), 1);
        assert_eq!(ios[0].member, (17 / 8));
    }
}

/// RAID-0 behaviour of a stripe over raw devices.
#[cfg(test)]
mod raid0 {
    mod tests {
        use crate::array::tests::{leaves, mems};
        use crate::array::Vdev;
        use mems_device::{MemsDevice, SledState};
        use storage_sim::{IoKind, Request, SimTime, StorageDevice};

        fn array(n: usize, stripe_unit: u32) -> Vdev<MemsDevice> {
            Vdev::stripe(leaves(n, mems), stripe_unit)
        }

        fn read(lbn: u64, sectors: u32) -> Request {
            Request::new(0, SimTime::ZERO, lbn, sectors, IoKind::Read)
        }

        #[test]
        fn capacity_sums_members() {
            // 8-sector strips divide a member exactly; 64-sector strips
            // leave 48 LBNs of each member unaddressed.
            assert_eq!(array(4, 8).capacity_lbns(), 4 * 6_750_000);
            assert_eq!(array(4, 64).capacity_lbns(), 4 * 6_749_952);
        }

        #[test]
        fn small_requests_touch_one_member() {
            let mut a = array(4, 64);
            let single = mems().service_from(SledState::CENTERED, &read(0, 8)).0;
            let b = a.service(&read(0, 8), SimTime::ZERO);
            assert!((b.total() - single.total()).abs() < 1e-12);
        }

        #[test]
        fn large_reads_scale_with_width() {
            // A 1 MB read splits into 512 sectors per member of a 4-wide
            // array and finishes with the slowest member; a single device
            // would stream 4x as many rows (~13 ms).
            let big = read(0, 2048);
            let t2 = array(2, 64).service(&big, SimTime::ZERO).total();
            let t4 = array(4, 64).service(&big, SimTime::ZERO).total();
            assert!(t4 < 5.0e-3, "4-wide 1 MB read {t4}");
            assert!(
                t4 < 0.7 * t2,
                "4-wide {t4} should be well under 2-wide {t2}"
            );
        }

        #[test]
        fn member_states_persist_across_requests() {
            let mut a = array(2, 64);
            let b1 = a.service(&read(0, 128), SimTime::ZERO);
            // Sequential continuation should be cheaper than a cold start.
            let b2 = a.service(&read(128, 128), SimTime::ZERO);
            assert!(b2.total() <= b1.total() + 1e-12);
        }

        #[test]
        #[should_panic(expected = "beyond array capacity")]
        fn overflow_rejected() {
            let mut a = array(2, 64);
            let cap = a.capacity_lbns();
            let _ = a.service(&read(cap - 4, 8), SimTime::ZERO);
        }

        #[test]
        #[should_panic(expected = "two members")]
        fn single_member_rejected() {
            let _ = array(1, 64);
        }
    }
}

/// RAID-1 behaviour of a mirror over raw devices.
#[cfg(test)]
mod raid1 {
    mod tests {
        use crate::array::tests::mems;
        use crate::array::Vdev;
        use mems_device::{MemsDevice, MemsParams, SledState};
        use storage_sim::{IoKind, Request, SimTime, StorageDevice};

        fn mirror(replicas: Vec<MemsDevice>) -> Vdev<MemsDevice> {
            Vdev::mirror(replicas.into_iter().map(Vdev::leaf).collect())
        }

        fn req(lbn: u64, kind: IoKind) -> Request {
            Request::new(0, SimTime::ZERO, lbn, 8, kind)
        }

        #[test]
        fn reads_are_steered_to_the_closer_replica() {
            // Replica 0 parks at the left edge, replica 1 at the center.
            let mut left = mems();
            let x = left.mapper().x_of_cylinder(0);
            left.set_state(SledState { x, y: 0.0, vy: 0.0 });
            let center = mems();
            // Each read costs exactly what the closer replica alone
            // charges for it.
            for (lbn, closer, farther) in [(0, &left, &center), (1250 * 2700, &center, &left)] {
                let r = req(lbn, IoKind::Read);
                let got = mirror(vec![left.clone(), center.clone()])
                    .service(&r, SimTime::ZERO)
                    .total();
                let near = closer.clone().service(&r, SimTime::ZERO).total();
                let far = farther.clone().service(&r, SimTime::ZERO).total();
                assert_eq!(got.to_bits(), near.to_bits(), "read at {lbn}");
                assert!(near < far, "read at {lbn}: {near} vs {far}");
            }
        }

        #[test]
        fn steering_beats_a_single_device_on_mixed_reads() {
            // Alternate far-apart reads: a mirror can keep one head left
            // and one right; a single device must shuttle.
            let mut single = mems();
            let mut array = mirror(vec![mems(), mems()]);
            let mut t_single = 0.0;
            let mut t_array = 0.0;
            for i in 0..40u64 {
                let lbn = if i % 2 == 0 { 100 * 2700 } else { 2400 * 2700 };
                let r = Request::new(i, SimTime::ZERO, lbn, 8, IoKind::Read);
                t_single += single.service(&r, SimTime::ZERO).total();
                t_array += array.service(&r, SimTime::ZERO).total();
            }
            assert!(
                t_array < 0.8 * t_single,
                "steered mirror {t_array} vs single {t_single}"
            );
        }

        #[test]
        fn writes_hit_every_replica_and_take_the_max() {
            let mut array = mirror(vec![mems(), mems()]);
            assert_eq!(array.capacity_lbns(), 2500 * 5 * 540); // one member's worth
            let w = array.service(&req(1_000_000, IoKind::Write), SimTime::ZERO);
            // Both replicas moved: identical state, so both produce the
            // same time — and a subsequent read of the same sector is
            // fast on either replica.
            let r = array.service(&req(1_000_000, IoKind::Read), SimTime::ZERO);
            assert!(r.positioning < w.positioning + 1e-12);
        }

        #[test]
        #[should_panic(expected = "equal capacity")]
        fn mismatched_replicas_rejected() {
            let b = MemsDevice::new(MemsParams {
                tips: 3200,
                active_tips: 640,
                ..MemsParams::default()
            });
            let _ = mirror(vec![mems(), b]);
        }
    }
}

/// RAID-5 behaviour of a RAID-Z node over raw devices.
#[cfg(test)]
mod raid5 {
    mod tests {
        use crate::array::tests::{disk, leaves, mems};
        use crate::array::{raidz_locate, Vdev};
        use storage_sim::{IoKind, Request, SimTime, StorageDevice};

        fn raidz<D: StorageDevice>(n: usize, device: fn() -> D) -> Vdev<D> {
            Vdev::raidz(leaves(n, device), 8)
        }

        #[test]
        fn capacity_reserves_one_member_for_parity() {
            assert_eq!(raidz(5, mems).capacity_lbns(), 4 * 6_750_000);
        }

        #[test]
        fn parity_rotates_across_members() {
            let mut seen = std::collections::HashSet::new();
            for strip in 0..40 {
                let (data, parity, _) = raidz_locate(strip, 5, 8);
                assert_ne!(data, parity);
                seen.insert(parity);
            }
            assert_eq!(seen.len(), 5);
        }

        #[test]
        fn reads_cost_the_same_as_raw_device_reads() {
            let mut a = raidz(4, mems);
            let mut raw = mems();
            let r = Request::new(0, SimTime::ZERO, 16, 8, IoKind::Read);
            // The array maps lbn 16 to some member-local lbn; timing is a
            // single-member single-row access either way.
            let ba = a.service(&r, SimTime::ZERO);
            let braw = raw.service(&r, SimTime::ZERO);
            assert!((ba.total() - braw.total()).abs() < 0.3e-3);
        }

        #[test]
        fn small_write_penalty_is_modest_on_mems_and_severe_on_disk() {
            // §6.2's point: the RAID-5 small-write cycle barely hurts a
            // MEMS array (a turnaround and a rewrite on top of the read)
            // but costs a disk array most of a revolution per member.
            fn ratio<D: StorageDevice>(device: fn() -> D) -> f64 {
                let r = Request::new(0, SimTime::ZERO, 800, 8, IoKind::Read);
                let w = Request::new(0, SimTime::ZERO, 800, 8, IoKind::Write);
                let tr = raidz(4, device).service(&r, SimTime::ZERO).total();
                let tw = raidz(4, device).service(&w, SimTime::ZERO).total();
                tw / tr
            }
            let mems_ratio = ratio(mems);
            assert!(
                mems_ratio > 1.0 && mems_ratio < 1.8,
                "MEMS small-write/read ratio {mems_ratio} should be modest"
            );
            let disk_ratio = ratio(disk);
            assert!(
                disk_ratio > 1.5,
                "disk small-write/read ratio {disk_ratio} should be severe"
            );
            assert!(disk_ratio > mems_ratio);
        }

        #[test]
        fn full_stripe_writes_avoid_the_rmw() {
            // 3 data members × 8-sector strips = 24-sector stripes.
            let write =
                |i: u64, sectors| Request::new(i, SimTime::ZERO, i * 8, sectors, IoKind::Write);
            let full = raidz(4, mems).service(&write(0, 24), SimTime::ZERO).total();
            let mut a = raidz(4, mems);
            let partial_total: f64 = (0..3)
                .map(|i| a.service(&write(i, 8), SimTime::ZERO).total())
                .sum();
            assert!(
                full < partial_total * 0.7,
                "full-stripe write {full} must beat three small writes {partial_total}"
            );
        }

        #[test]
        fn mems_raid5_small_writes_crush_disk_raid5() {
            let w = Request::new(0, SimTime::ZERO, 10_000, 8, IoKind::Write);
            let m = raidz(5, mems).service(&w, SimTime::ZERO).total();
            let d = raidz(5, disk).service(&w, SimTime::ZERO).total();
            // Two parallel read-modify-writes keep a 4 KB MEMS write
            // under 2 ms.
            assert!(m < 2e-3, "MEMS small write {m}");
            assert!(d / m > 5.0, "disk {d} vs mems {m}");
        }
    }
}
