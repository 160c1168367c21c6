//! An end-to-end reliable sector store: real bytes through the real ECC.
//!
//! The rest of the fault module reasons about *timing* and *erasure
//! counts*; this is the data path itself. [`ReliableStore`] stores each
//! logical sector as its 72 encoded tip sectors (64 data + 8 ECC by
//! default), keyed by the physical (tip, cylinder, row) locations the
//! device geometry assigns. Reads consult the injected [`FaultState`]:
//! tip sectors on broken tips or grown defects come back unreadable, and
//! the vertical/horizontal codes repair what the parity budget covers —
//! so "data written before the tips broke is still there afterward" is a
//! property you can test with actual bytes, not an argument.

use std::collections::HashMap;

use mems_device::{Mapper, MemsParams, PhysAddr};

use super::inject::FaultState;
use super::stripe::StripeCodec;
use super::vertical::TipSector;

/// A byte-accurate striped sector store with fault injection.
///
/// # Examples
///
/// ```
/// use mems_device::MemsParams;
/// use mems_os::fault::{FaultState, ReliableStore};
///
/// let params = MemsParams::default();
/// let mut store = ReliableStore::new(&params, 8);
/// let data = [7u8; 512];
/// store.write_sector(12345, &data);
/// // Break a handful of tips after the write...
/// let mut faults = FaultState::new(&params);
/// for t in 0..5 { faults.fail_tip(t * 64); }
/// store.set_faults(faults);
/// // ...and the data is still exactly recoverable.
/// assert_eq!(store.read_sector(12345), Some(data));
/// ```
#[derive(Debug)]
pub struct ReliableStore {
    codec: StripeCodec,
    mapper: Mapper,
    faults: FaultState,
    tips: u32,
    active_per_track: u32,
    /// (first_tip_of_stripe, cylinder, row) → encoded stripe.
    media: HashMap<(u32, u32, u32), Vec<TipSector>>,
}

impl ReliableStore {
    /// Creates an empty store for a device with `parity_tips` horizontal
    /// ECC tips per logical sector.
    pub fn new(params: &MemsParams, parity_tips: usize) -> Self {
        ReliableStore {
            codec: StripeCodec::new(parity_tips),
            mapper: Mapper::new(params),
            faults: FaultState::new(params),
            tips: params.tips,
            active_per_track: params.active_tips,
            media: HashMap::new(),
        }
    }

    /// Installs (replaces) the fault state applied to subsequent reads.
    pub fn set_faults(&mut self, faults: FaultState) {
        self.faults = faults;
    }

    /// First tip of the stripe serving a physical address: track `t`
    /// owns tips `t·active .. (t+1)·active`, and slot `s` the 64-tip
    /// group at `s·64` within them. Parity tips follow conceptually as
    /// extra ECC tips switched on for the access (§6.1.2).
    fn stripe_tip(&self, addr: PhysAddr) -> u32 {
        addr.track * self.active_per_track + addr.slot * 64
    }

    /// Writes a 512-byte sector.
    ///
    /// # Panics
    ///
    /// Panics if `lbn` is out of range.
    pub fn write_sector(&mut self, lbn: u64, data: &[u8; 512]) {
        let addr = self.mapper.decompose(lbn);
        let stripe = self.codec.encode(data);
        self.media
            .insert((self.stripe_tip(addr), addr.cylinder, addr.row), stripe);
    }

    /// Reads a sector back, applying injected faults; `None` if the
    /// sector was never written or has more erasures than the parity
    /// covers.
    ///
    /// # Panics
    ///
    /// Panics if `lbn` is out of range.
    pub fn read_sector(&self, lbn: u64) -> Option<[u8; 512]> {
        let addr = self.mapper.decompose(lbn);
        let first_tip = self.stripe_tip(addr);
        let stripe = self.media.get(&(first_tip, addr.cylinder, addr.row))?;
        // Apply faults: a lost tip sector reads back as garbage, which
        // the vertical check converts to an erasure. Parity tips are
        // modeled as the tips directly after the 64 data tips (wrapping
        // within the device).
        let damaged: Vec<TipSector> = stripe
            .iter()
            .enumerate()
            .map(|(i, ts)| {
                let tip = (first_tip + i as u32) % self.tips;
                if self.faults.tip_sector_lost(tip, addr.row) {
                    TipSector {
                        data: [0x00; 8],
                        check: !ts.check, // guaranteed-failing vertical check
                    }
                } else {
                    *ts
                }
            })
            .collect();
        self.codec.decode(&damaged)
    }

    /// Number of sectors currently stored.
    pub fn stored_sectors(&self) -> usize {
        self.media.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage_sim::rng;

    fn params() -> MemsParams {
        MemsParams::default()
    }

    fn pattern(seed: u8) -> [u8; 512] {
        let mut d = [0u8; 512];
        for (i, b) in d.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(13).wrapping_add(seed);
        }
        d
    }

    #[test]
    fn clean_write_read_round_trip() {
        let mut store = ReliableStore::new(&params(), 8);
        for lbn in [0u64, 19, 20, 539, 540, 1_000_000, 6_749_999] {
            store.write_sector(lbn, &pattern(lbn as u8));
        }
        for lbn in [0u64, 19, 20, 539, 540, 1_000_000, 6_749_999] {
            assert_eq!(
                store.read_sector(lbn),
                Some(pattern(lbn as u8)),
                "lbn {lbn}"
            );
        }
        assert_eq!(store.stored_sectors(), 7);
    }

    #[test]
    fn unwritten_sectors_read_none() {
        let store = ReliableStore::new(&params(), 8);
        assert_eq!(store.read_sector(42), None);
    }

    #[test]
    fn data_survives_tip_failures_up_to_parity() {
        let p = params();
        let mut store = ReliableStore::new(&p, 8);
        let data = pattern(9);
        store.write_sector(0, &data);
        // Break 8 of the sector's own 64 data tips.
        let mut faults = FaultState::new(&p);
        for t in 0..8 {
            faults.fail_tip(t * 7); // tips 0,7,...,49 all serve slot 0
        }
        store.set_faults(faults);
        assert_eq!(store.read_sector(0), Some(data));
    }

    #[test]
    fn too_many_failures_lose_data_cleanly() {
        let p = params();
        let mut store = ReliableStore::new(&p, 4);
        store.write_sector(0, &pattern(1));
        let mut faults = FaultState::new(&p);
        for t in 0..5 {
            faults.fail_tip(t);
        }
        store.set_faults(faults);
        assert_eq!(store.read_sector(0), None, "5 losses exceed 4 parity tips");
    }

    #[test]
    fn media_defects_only_affect_their_rows() {
        let p = params();
        let mut store = ReliableStore::new(&p, 2);
        // Two sectors on the same tips, different rows.
        let a = pattern(3);
        let b = pattern(4);
        store.write_sector(0, &a); // row 0
        store.write_sector(20, &b); // row 1
        let mut faults = FaultState::new(&p);
        // Wipe rows 0..1 of five of the stripe's tips: three more than
        // the 2-tip parity can absorb in row 0.
        for t in 0..5 {
            faults.add_defect(super::super::inject::MediaDefect {
                tip: t,
                row_start: 0,
                row_end: 0,
            });
        }
        store.set_faults(faults);
        assert_eq!(store.read_sector(0), None, "row 0 exceeded parity");
        assert_eq!(store.read_sector(20), Some(b), "row 1 untouched");
    }

    #[test]
    fn overwrite_replaces_contents() {
        let mut store = ReliableStore::new(&params(), 8);
        store.write_sector(777, &pattern(1));
        store.write_sector(777, &pattern(2));
        assert_eq!(store.read_sector(777), Some(pattern(2)));
        assert_eq!(store.stored_sectors(), 1);
    }

    #[test]
    fn random_fault_campaign_never_returns_wrong_data() {
        // The crucial integrity property: reads either return exactly
        // what was written or fail — never silently corrupt data.
        let p = params();
        let mut store = ReliableStore::new(&p, 4);
        let lbns: Vec<u64> = (0..50).map(|i| i * 131_071 % 6_750_000).collect();
        for &lbn in &lbns {
            store.write_sector(lbn, &pattern(lbn as u8));
        }
        let mut r = rng::seeded(0xDA7A);
        let mut faults = FaultState::new(&p);
        faults.inject_random_tip_failures(120, &mut r);
        faults.inject_random_defects(60, &mut r);
        store.set_faults(faults);
        let mut lost = 0;
        for &lbn in &lbns {
            match store.read_sector(lbn) {
                Some(data) => assert_eq!(data, pattern(lbn as u8), "silent corruption at {lbn}"),
                None => lost += 1,
            }
        }
        // With only 4 parity tips and 120 broken tips some loss is
        // expected — but it must be *detected* loss.
        assert!(lost < lbns.len(), "not everything should be lost");
    }
}
