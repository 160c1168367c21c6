//! Volume composition and request routing for fleet mode.
//!
//! In *array mode* a [`mems_os::array::Vdev`] services sub-requests
//! inline inside one event loop. In *fleet mode* each leaf device is a
//! **station** with its own queue, scheduler, and event loop; the volume
//! layer splits every fleet-level request into per-station sub-I/Os at
//! arrival time. Both run the same per-node plan,
//! [`mems_os::array::Layout::plan`].
//!
//! Routing happens before simulation starts, so it can only consult
//! statically known facts (LBNs, ids), never mechanical state. Two
//! consequences, both deliberate and documented:
//!
//! * mirror reads steer by `request.id % replicas` instead of by
//!   positioning estimate (the replica's state at service time is not
//!   knowable at routing time);
//! * RAID-Z read-modify-write cycles issue their read and write
//!   sub-I/Os as independently queued requests on the member stations
//!   rather than as a strictly ordered read-then-write pair — the member
//!   pays both accesses, but its scheduler may interleave other work.

use storage_sim::{IoKind, Request};

use mems_os::array::Layout;

/// One routed sub-I/O: a station index plus the member-local access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubIo {
    /// Target station (leaf device) index.
    pub station: usize,
    /// Member-local LBN.
    pub lbn: u64,
    /// Sectors to transfer.
    pub sectors: u32,
    /// Read or write.
    pub kind: IoKind,
}

/// A volume composition tree over fleet stations.
///
/// Leaves name station indices; interior nodes apply their [`Layout`] at
/// routing time. The tree nests arbitrarily (a stripe of mirrors is the
/// classic RAID-10 fleet).
#[derive(Debug, Clone)]
pub enum VolumeSpec {
    /// A single station.
    Leaf(usize),
    /// An interior node applying `layout` to its children; mirror reads
    /// steer by `id % n`.
    Node {
        /// How requests spread over the children.
        layout: Layout,
        /// Child volumes.
        children: Vec<VolumeSpec>,
    },
}

impl VolumeSpec {
    /// A leaf over station `station`.
    pub fn leaf(station: usize) -> Self {
        VolumeSpec::Leaf(station)
    }

    /// A striped volume.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two children or a zero stripe unit.
    pub fn stripe(children: Vec<VolumeSpec>, stripe_unit: u32) -> Self {
        Self::node(Layout::Stripe { stripe_unit }, children)
    }

    /// A mirrored volume.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two children.
    pub fn mirror(children: Vec<VolumeSpec>) -> Self {
        Self::node(Layout::Mirror, children)
    }

    /// A rotating-parity volume.
    ///
    /// # Panics
    ///
    /// Panics with fewer than three children or a zero stripe unit.
    pub fn raidz(children: Vec<VolumeSpec>, stripe_unit: u32) -> Self {
        Self::node(Layout::RaidZ { stripe_unit }, children)
    }

    fn node(layout: Layout, children: Vec<VolumeSpec>) -> Self {
        layout.check(children.len());
        VolumeSpec::Node { layout, children }
    }

    /// A stripe directly over `n` leaf stations `0..n` (the plain
    /// "just a bunch of stations" fleet; `n == 1` degenerates to a leaf).
    pub fn flat(n: usize, stripe_unit: u32) -> Self {
        assert!(n >= 1);
        if n == 1 {
            VolumeSpec::leaf(0)
        } else {
            VolumeSpec::stripe((0..n).map(VolumeSpec::leaf).collect(), stripe_unit)
        }
    }

    /// Addressable volume capacity in LBNs, assuming every leaf has
    /// `leaf_cap` LBNs, per [`Layout::capacity`]: every LBN below it
    /// routes to in-bounds leaf accesses.
    pub fn capacity(&self, leaf_cap: u64) -> u64 {
        match self {
            VolumeSpec::Leaf(_) => leaf_cap,
            VolumeSpec::Node { layout, children } => {
                layout.capacity(children.iter().map(|c| c.capacity(leaf_cap)))
            }
        }
    }

    /// Largest station index referenced by the tree.
    pub fn max_station(&self) -> usize {
        match self {
            VolumeSpec::Leaf(i) => *i,
            VolumeSpec::Node { children, .. } => children
                .iter()
                .map(VolumeSpec::max_station)
                .max()
                .expect("non-empty children"),
        }
    }

    /// Routes a fleet-level request into per-station sub-I/Os, appended
    /// to `out` in deterministic order (each node's plan order).
    pub fn route(&self, req: &Request, out: &mut Vec<SubIo>) {
        self.route_inner(req.id, req.lbn, req.sectors, req.kind, out);
    }

    fn route_inner(&self, id: u64, lbn: u64, sectors: u32, kind: IoKind, out: &mut Vec<SubIo>) {
        match self {
            VolumeSpec::Leaf(station) => out.push(SubIo {
                station: *station,
                lbn,
                sectors,
                kind,
            }),
            // Mirror reads steer by id, not position: routing precedes
            // simulation, so mechanical state is unknowable here.
            VolumeSpec::Node { layout, children } => layout.plan(
                children.len(),
                lbn,
                sectors,
                kind,
                || (id % children.len() as u64) as usize,
                |io| children[io.member].route_inner(id, io.lbn, io.sectors, io.kind, out),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage_sim::SimTime;

    fn read(id: u64, lbn: u64, sectors: u32) -> Request {
        Request::new(id, SimTime::ZERO, lbn, sectors, IoKind::Read)
    }

    fn write(id: u64, lbn: u64, sectors: u32) -> Request {
        Request::new(id, SimTime::ZERO, lbn, sectors, IoKind::Write)
    }

    #[test]
    fn flat_stripe_spreads_a_large_read() {
        let v = VolumeSpec::flat(4, 8);
        let mut out = Vec::new();
        v.route(&read(0, 0, 64), &mut out);
        let total: u32 = out.iter().map(|s| s.sectors).sum();
        assert_eq!(total, 64);
        for m in 0..4 {
            assert!(out.iter().any(|s| s.station == m), "station {m} untouched");
        }
    }

    #[test]
    fn mirror_reads_alternate_and_writes_replicate() {
        let v = VolumeSpec::mirror(vec![VolumeSpec::leaf(0), VolumeSpec::leaf(1)]);
        let mut out = Vec::new();
        v.route(&read(0, 100, 8), &mut out);
        v.route(&read(1, 100, 8), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].station, 0);
        assert_eq!(out[1].station, 1);
        out.clear();
        v.route(&write(2, 100, 8), &mut out);
        assert_eq!(out.len(), 2, "writes hit every replica");
    }

    #[test]
    fn raidz_small_write_pays_four_subs() {
        let v = VolumeSpec::raidz((0..4).map(VolumeSpec::leaf).collect(), 8);
        let mut out = Vec::new();
        v.route(&write(0, 800, 8), &mut out);
        // RMW: read+write on data, read+write on parity.
        assert_eq!(out.len(), 4);
        let reads = out.iter().filter(|s| s.kind == IoKind::Read).count();
        assert_eq!(reads, 2);
    }

    #[test]
    fn raidz_full_stripe_write_skips_the_rmw() {
        // 3 data members x 8-sector strips = 24-sector stripes.
        let v = VolumeSpec::raidz((0..4).map(VolumeSpec::leaf).collect(), 8);
        let mut out = Vec::new();
        v.route(&write(0, 0, 24), &mut out);
        // Three data writes plus one parity write, no reads.
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|s| s.kind == IoKind::Write));
    }

    #[test]
    fn stripe_of_mirrors_routes_writes_to_both_replicas() {
        let pair =
            |a: usize, b: usize| VolumeSpec::mirror(vec![VolumeSpec::leaf(a), VolumeSpec::leaf(b)]);
        let v = VolumeSpec::stripe(vec![pair(0, 1), pair(2, 3)], 8);
        assert_eq!(v.max_station(), 3);
        // 100 LBNs = 12 whole 8-sector strips per pair: 2 x 96.
        assert_eq!(v.capacity(100), 192);
        let mut out = Vec::new();
        v.route(&write(0, 0, 16), &mut out);
        // Two strips, each mirrored: four sub-writes.
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn capacity_rounds_to_whole_strips_and_routing_stays_in_bounds() {
        // A leaf capacity that is NOT a strip multiple (the MEMS device's
        // 6_750_000 with 64-sector strips): the volume must round down so
        // the top of the address space still routes inside every leaf.
        let leaf_cap = 6_750_000u64;
        let v = VolumeSpec::flat(4, 64);
        let cap = v.capacity(leaf_cap);
        assert_eq!(cap, 4 * (leaf_cap / 64) * 64);
        assert!(cap < 4 * leaf_cap);
        let mut out = Vec::new();
        v.route(&read(0, cap - 8, 8), &mut out);
        for sub in &out {
            assert!(
                sub.lbn + u64::from(sub.sectors) <= leaf_cap,
                "sub at {} + {} exceeds the leaf",
                sub.lbn,
                sub.sectors
            );
        }
        // Same property on RAID-Z.
        let z = VolumeSpec::raidz((0..4).map(VolumeSpec::leaf).collect(), 64);
        let zcap = z.capacity(leaf_cap);
        assert_eq!(zcap, 3 * (leaf_cap / 64) * 64);
        out.clear();
        z.route(&write(0, zcap - 8, 8), &mut out);
        for sub in &out {
            assert!(sub.lbn + u64::from(sub.sectors) <= leaf_cap);
        }
    }

    #[test]
    fn routed_lbns_match_array_span_math() {
        // Sectors 5..15 at 8-sector strips: strip 0 (station 0, lbn
        // 5..8), strip 1 (station 1, lbn 0..7).
        let v = VolumeSpec::flat(4, 8);
        let mut out = Vec::new();
        v.route(&read(0, 5, 10), &mut out);
        let sub = |station, lbn, sectors| SubIo {
            station,
            lbn,
            sectors,
            kind: IoKind::Read,
        };
        assert_eq!(out, [sub(0, 5, 3), sub(1, 0, 7)]);
    }
}
