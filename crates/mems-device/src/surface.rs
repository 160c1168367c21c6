//! The shared seek surface: every on-grid seek solve for one parameter
//! set, filled on first use and shared by every device with those
//! parameters.
//!
//! After every request the sled rests exactly on a cylinder center, with
//! its Y coordinate on a tip-sector-row boundary and its Y velocity at
//! ±the access velocity. The positioning questions a simulation asks
//! therefore come from a small discrete grid: the dense
//! `cylinders × cylinders` rest-to-rest X matrix and the row-boundary ×
//! direction Y table (~4.7k entries). A [`SeekSurface`] holds one cell per
//! grid question, answered by the solver core behind
//! [`SpringSled::seek_time`] over endpoint terms computed once per
//! cylinder (and per Y boundary and direction); see the `kinematics`
//! module docs. Off-grid states (the centered initial state, or states
//! set through `MemsDevice::set_state`) never reach the surface; the
//! device solves them directly.
//!
//! Filling is lazy: a cell is solved on first use. The tables are one
//! zeroed allocation each, and zero marks a cell unsolved, so the OS
//! commits a page of the X matrix only when a query first touches it, and
//! returns the whole matrix when the surface is freed. Every whole 2 MiB
//! extent of a table is advised for transparent huge pages before any
//! cell is touched, so inside that range the commit unit is 2 MiB, not
//! 4 KB, and a random cell read walks one page-table level less; the
//! paper matrix holds 22 or 23 such extents, by where it lands. Where THP
//! is off, or off Linux x86_64/aarch64, the advice does nothing.
//!
//! Cells are atomics, and two threads racing to fill one cell both store
//! the same bits, so every fill order, serial or concurrent, yields the
//! same surface. A cell publishes no data but its own value, so relaxed
//! ordering suffices.
//! [`SeekSurface::build`] and [`SeekSurface::fill`] solve every cell up
//! front into the same storage. One worker per core takes the next
//! unsolved X row from a shared atomic counter, so no worker idles while
//! rows remain, and stores the row's cells straight from the solver's row
//! solve, which computes the row start's terms once and takes the goals
//! in lanes (see the `kinematics` module docs). The workers allocate
//! nothing. The Y table, ~4.7k cells, is then solved cell by cell.
//!
//! [`SeekSurface::shared`] is the process-wide registry: one surface per
//! set of the parameters a seek solve reads, which are all but the settle
//! and overhead terms (`resonant_freq`, `settle_constants`, `overhead`)
//! only the device charges. It holds surfaces weakly, except that it keeps
//! the one it handed out last alive. A sweep whose cells each build and
//! drop a device therefore fills one surface instead of one per cell, a
//! sweep over settle times shares one surface, and a sweep over many seek
//! parameter sets keeps one surface resident at a time.
//!
//! Every cell is solved: the physics is symmetric under swapping or
//! mirroring the endpoints, but the floating-point solves are not. On the
//! paper surface 4,617,768 of the 6,250,000 X cells differ in bits from
//! their transpose and 5,052,468 from their mirror (by at most ~3·10⁻¹²
//! relative), so a symmetric fill would not be bit-identical to the
//! direct solver.
//!
//! The X matrix is `cylinders² × 8` bytes, ≈50 MB for the paper's
//! 2500-cylinder device. Geometries whose matrix would exceed
//! [`SeekSurface::MAX_X_MATRIX_BYTES`] get no surface, and their devices
//! solve every seek directly.

use std::fmt;
use std::mem::MaybeUninit;
use std::panic;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::thread;

use crate::geometry::Mapper;
use crate::kinematics::{Endpoint, SpringSled};
use crate::params::MemsParams;

/// Bits of a cell not yet solved: zero, so a zeroed allocation is an
/// unfilled surface. A zero-length seek solves to these bits too; its cell
/// is solved again on every query, by the solver's early exit.
const UNSOLVED: u64 = 0;

/// The process-wide surfaces, see [`SeekSurface::shared`].
static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    live: Vec::new(),
    latest: None,
});

/// Live surfaces by the parameter set each was first built for, held
/// weakly, and the surface handed out last, held strongly. A lookup matches
/// any set with the same seek solves ([`same_seeks`]); `MemsParams` holds
/// floats and is not hashable, so it is a linear scan over a handful of
/// entries.
struct Registry {
    live: Vec<(MemsParams, Weak<SeekSurface>)>,
    latest: Option<Arc<SeekSurface>>,
}

/// Quantized Y seek endpoints: row-boundary indices (`0..=rows_per_track`)
/// plus velocity direction (−1, 0, +1 in units of the access velocity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct YKey {
    /// Boundary index the sled starts from.
    pub(crate) from_boundary: u16,
    /// Sign of the starting Y velocity (0 = at rest).
    pub(crate) from_dir: i8,
    /// Boundary index the seek targets.
    pub(crate) to_boundary: u16,
    /// Sign of the target Y velocity (±1).
    pub(crate) to_dir: i8,
}

/// Every on-grid seek solve for one [`MemsParams`], filled on first use.
///
/// Lookups take `&self` and the surface is `Sync`, so one `Arc` serves
/// every device and worker thread with these parameters: through the
/// registry ([`SeekSurface::shared`]), or attached explicitly with
/// `MemsDevice::with_seek_surface`.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
///
/// use mems_device::{MemsDevice, MemsParams, SeekSurface};
/// use storage_sim::{IoKind, Request, SimTime, StorageDevice};
///
/// let params = MemsParams::default();
/// let surface = SeekSurface::build(&params).expect("paper device fits the guard");
/// let mut dev = MemsDevice::new(params).with_seek_surface(Arc::new(surface));
/// // 2,700 sectors per cylinder; a served request leaves the sled on the grid.
/// let read = |cyl: u64| Request::new(0, SimTime::ZERO, cyl * 2700, 8, IoKind::Read);
/// dev.service(&read(7), SimTime::ZERO);
/// // Seeking from a cylinder to itself is instantaneous...
/// assert_eq!(dev.service(&read(7), SimTime::ZERO).seek_x, 0.0);
/// // ...and a full-stroke seek takes about half a millisecond.
/// dev.service(&read(0), SimTime::ZERO);
/// assert!(dev.service(&read(2499), SimTime::ZERO).seek_x > 0.4e-3);
/// ```
pub struct SeekSurface {
    params: MemsParams,
    sled: SpringSled,
    /// Endpoint terms of each cylinder center at rest: every on-grid X
    /// start and goal.
    x_ends: Box<[Endpoint]>,
    /// Endpoint terms of each row boundary at −v, rest and +v.
    y_ends: Box<[[Endpoint; 3]]>,
    /// Rest-to-rest X seek times, row-major `[from · cylinders + to]`.
    x: Box<[AtomicU64]>,
    /// Y boundary-to-boundary seek times, see [`SeekSurface::y_at`].
    y: Box<[AtomicU64]>,
    /// Set once [`SeekSurface::fill`] has solved every cell. It only skips
    /// work: a thread that sees it set but a cell still unsolved solves
    /// that cell itself, so relaxed ordering suffices.
    filled: AtomicBool,
}

impl SeekSurface {
    /// Hard cap on the dense X matrix size (256 MB ≈ 5800 cylinders).
    /// Larger geometries get no surface: [`SeekSurface::build`] and
    /// [`SeekSurface::shared`] return `None`, so a misconfigured parameter
    /// sweep degrades to the direct solver instead of growing an
    /// oversized matrix.
    pub const MAX_X_MATRIX_BYTES: u64 = 256 << 20;

    /// Size in bytes of the dense X matrix `params` would require.
    pub fn x_matrix_bytes(params: &MemsParams) -> u64 {
        let n = u64::from(params.geometry().cylinders);
        n * n * std::mem::size_of::<f64>() as u64
    }

    /// An unfilled surface for `params`: endpoint terms computed, every
    /// cell unsolved.
    fn empty(params: &MemsParams) -> Self {
        let geom = params.geometry();
        let mapper = Mapper::new(params);
        let sled = SpringSled::from_spring_factor(
            params.accel,
            params.spring_factor,
            params.half_mobility(),
        );
        let x_ends: Box<[Endpoint]> = (0..geom.cylinders)
            .map(|cyl| sled.endpoint(mapper.x_of_cylinder(cyl), 0.0))
            .collect();
        // Directions: -v, rest, +v for the start; the target is always
        // approached at ±the access velocity.
        let v = params.access_velocity();
        let y_ends: Box<[[Endpoint; 3]]> = (0..=geom.rows_per_track)
            .map(|bound| {
                let y = mapper.y_of_row_start(bound);
                [-v, 0.0, v].map(|vy| sled.endpoint(y, vy))
            })
            .collect();
        let (n, b) = (x_ends.len(), y_ends.len());
        SeekSurface {
            params: params.clone(),
            sled,
            x_ends,
            y_ends,
            x: unsolved_cells(n * n),
            y: unsolved_cells(b * 3 * b * 2),
            filled: AtomicBool::new(false),
        }
    }

    /// Builds the complete surface for `params`, solving X rows in
    /// parallel across the available cores. Returns `None` when the X
    /// matrix would exceed [`SeekSurface::MAX_X_MATRIX_BYTES`].
    pub fn build(params: &MemsParams) -> Option<Self> {
        if Self::x_matrix_bytes(params) > Self::MAX_X_MATRIX_BYTES {
            return None;
        }
        let surface = Self::empty(params);
        surface.fill();
        Some(surface)
    }

    /// The process-wide surface for `params`: the live one for any set with
    /// the same seek solves when a holder keeps it, else a new, unfilled
    /// one. Returns `None` when the X matrix would exceed
    /// [`SeekSurface::MAX_X_MATRIX_BYTES`].
    ///
    /// The registry holds surfaces weakly, except the one this call
    /// returns, which it keeps alive until a call returns another. A
    /// surface is therefore freed once its last holder drops and the
    /// registry has handed out a surface for other parameters.
    pub fn shared(params: &MemsParams) -> Option<Arc<Self>> {
        if Self::x_matrix_bytes(params) > Self::MAX_X_MATRIX_BYTES {
            return None;
        }
        // Each update below leaves the registry valid, so a lock poisoned
        // by a panicking holder is safe to keep using.
        let mut registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
        let Registry { live, latest } = &mut *registry;
        live.retain(|(_, surface)| surface.strong_count() > 0);
        let surface = live
            .iter()
            .find_map(|(p, surface)| same_seeks(p, params).then(|| surface.upgrade()).flatten())
            .unwrap_or_else(|| {
                let surface = Arc::new(Self::empty(params));
                live.push((params.clone(), Arc::downgrade(&surface)));
                surface
            });
        *latest = Some(Arc::clone(&surface));
        Some(surface)
    }

    /// Solves every cell: X rows in parallel across the available cores,
    /// then the Y table. Each worker takes the next unsolved row from a
    /// shared counter and stores its cells straight from the solver's row
    /// solve, without checking whether they were already filled, which
    /// keeps the eager fill as cheap as a plain write of every cell; a
    /// filled cell gets the same bits again, so concurrent lookups and
    /// fills stay sound. Once a fill has finished, later ones return at
    /// once.
    pub fn fill(&self) {
        self.fill_counting_fallbacks();
    }

    /// [`SeekSurface::fill`], returning how many X cells its row solves
    /// sent to the scalar core: 0 once a fill has finished.
    fn fill_counting_fallbacks(&self) -> usize {
        if self.filled.load(Relaxed) {
            return 0;
        }
        let n = self.x_ends.len();
        let workers = thread::available_parallelism()
            .map_or(1, |w| w.get())
            .clamp(1, n);
        let next_row = AtomicUsize::new(0);
        let fallbacks = thread::scope(|scope| {
            let worker = || {
                let mut fallbacks = 0;
                loop {
                    let row = next_row.fetch_add(1, Relaxed);
                    let Some(from) = self.x_ends.get(row) else {
                        return fallbacks;
                    };
                    let cells = &self.x[row * n..][..n];
                    fallbacks += self.sled.solve_row(from, &self.x_ends, |to, t| {
                        cells[to].store(t.to_bits(), Relaxed);
                    });
                }
            };
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|panic| panic::resume_unwind(panic)))
                .sum()
        });
        for i in 0..self.y.len() {
            self.y_cell(i);
        }
        self.filled.store(true, Relaxed);
        fallbacks
    }

    /// The parameter set this surface was first built for. It serves every
    /// set that differs from it only in the settle and overhead terms
    /// (`resonant_freq`, `settle_constants`, `overhead`), which no seek
    /// solve reads, so those three fields may not be the ones a device on
    /// it charges.
    pub fn params(&self) -> &MemsParams {
        &self.params
    }

    /// Number of cylinders (side length of the X matrix).
    pub fn cylinders(&self) -> u32 {
        self.x_ends.len() as u32
    }

    /// Size of both tables in bytes; a lazily filled surface keeps the
    /// pages no query has touched out of the resident set. Inside the
    /// huge-page-advised range of a table a page is 2 MiB where THP is on,
    /// so one touched cell commits its whole 2 MiB extent.
    pub fn bytes(&self) -> u64 {
        ((self.x.len() + self.y.len()) * std::mem::size_of::<f64>()) as u64
    }

    /// X rest-seek time from cylinder `from` to cylinder `to`, for the
    /// device, whose quantized cylinders are in range by construction. The
    /// range check is a debug assertion: in release it would cost ~7% of
    /// an SPTF-bound run, and an out-of-range `to` reads a neighbouring
    /// row's cell.
    #[inline]
    pub(crate) fn x_at(&self, from: usize, to: usize) -> f64 {
        let n = self.x_ends.len();
        debug_assert!(
            from < n && to < n,
            "X seek from cylinder {from} to {to} is off the grid"
        );
        solved(&self.x[from * n + to], || {
            self.sled
                .transfer_time(&self.x_ends[from], &self.x_ends[to])
        })
    }

    /// Starts bringing X cell `(from, to)` into the cache without reading,
    /// solving or storing it; a cell off the grid is ignored. A prefetch
    /// lets the miss overlap the work before the cell's read, where a
    /// load would stall on it at once.
    #[inline]
    pub(crate) fn prefetch_x(&self, from: u64, to: u64) {
        let n = self.x_ends.len() as u64;
        if from < n && to < n {
            prefetch(&self.x[(from * n + to) as usize]);
        }
    }

    /// Y seek time for the quantized endpoints `key`, for the device,
    /// whose quantized keys are on the grid by construction. The grid
    /// check (boundaries in range, `from_dir` −1, 0 or 1, `to_dir` ±1) is
    /// a debug assertion, as in [`SeekSurface::x_at`].
    #[inline]
    pub(crate) fn y_at(&self, key: YKey) -> f64 {
        let b = self.y_ends.len();
        let (from, to) = (usize::from(key.from_boundary), usize::from(key.to_boundary));
        debug_assert!(
            from < b && to < b && matches!(key.from_dir, -1..=1) && matches!(key.to_dir, -1 | 1),
            "Y seek key {key:?} is off the grid"
        );
        let from_dir = (key.from_dir + 1) as usize;
        self.y_cell(((from * 3 + from_dir) * b + to) * 2 + usize::from(key.to_dir > 0))
    }

    /// Y cell `i`, solved on first use. Cells are laid out as
    /// `((from · 3 + from_dir + 1) · boundaries + to) · 2 + (to_dir > 0)`.
    #[inline]
    fn y_cell(&self, i: usize) -> f64 {
        solved(&self.y[i], || {
            let b = self.y_ends.len();
            let (from, from_dir, to, to_up) = (i / (6 * b), i / (2 * b) % 3, i / 2 % b, i % 2);
            self.sled
                .transfer_time(&self.y_ends[from][from_dir], &self.y_ends[to][2 * to_up])
        })
    }
}

/// Whether `a` and `b` pose the same seek solves: they may differ only in
/// the settle and overhead terms (`resonant_freq`, `settle_constants`,
/// `overhead`), which only the device reads.
pub(crate) fn same_seeks(a: &MemsParams, b: &MemsParams) -> bool {
    let seek_terms = |p: &MemsParams| MemsParams {
        resonant_freq: 0.0,
        settle_constants: 0.0,
        overhead: 0.0,
        ..p.clone()
    };
    seek_terms(a) == seek_terms(b)
}

/// `n` unsolved cells. The allocation is zeroed rather than written, so a
/// large one stays out of the resident set until its pages are touched.
/// Its whole 2 MiB extents are advised for huge pages before any cell is
/// touched, so there a first touch commits 2 MiB; where THP is off the
/// advice does nothing and a touch commits 4 KB.
fn unsolved_cells(n: usize) -> Box<[AtomicU64]> {
    let mut cells = Box::new_zeroed_slice(n);
    advise_huge_pages(&mut cells);
    // SAFETY: `AtomicU64` has the same in-memory representation as `u64`,
    // so all-zero bytes are a valid `AtomicU64` holding `UNSOLVED`.
    unsafe { cells.assume_init() }
}

/// Asks the kernel to back every whole 2 MiB extent of `cells` with
/// transparent huge pages. A zeroed slice this large is a fresh mapping
/// the allocator never wrote, so no page of it is committed yet and each
/// advised extent faults in as one huge page. The result is ignored: the
/// call is only advice.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn advise_huge_pages(cells: &mut [MaybeUninit<AtomicU64>]) {
    use std::ffi::{c_int, c_void};
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    const MADV_HUGEPAGE: c_int = 14;
    const EXTENT: usize = 2 << 20;
    let start = cells.as_ptr().addr();
    let first = start.next_multiple_of(EXTENT);
    let end = (start + size_of_val(cells)) / EXTENT * EXTENT;
    if first < end {
        // SAFETY: `[first, end)` lies inside `cells`, which this function
        // borrows exclusively. `MADV_HUGEPAGE` changes only how the kernel
        // backs those pages: it neither reads, writes nor unmaps them, and a
        // huge page faults in zeroed, so every cell still reads zero.
        unsafe {
            madvise(
                cells.as_mut_ptr().byte_add(first - start).cast(),
                end - first,
                MADV_HUGEPAGE,
            );
        }
    }
}

/// No huge-page advice off Linux x86_64 and aarch64.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn advise_huge_pages(_cells: &mut [MaybeUninit<AtomicU64>]) {}

/// Asks the CPU to bring `cell`'s cache line into every cache level.
#[cfg(target_arch = "x86_64")]
#[inline]
fn prefetch(cell: &AtomicU64) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    // SAFETY: `_mm_prefetch` only hints the cache: it never faults, not even
    // on an unmapped page, and changes no memory the program can observe.
    // The SSE it needs is part of the x86_64 baseline.
    unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(cell).cast()) }
}

/// Nothing to prefetch with off x86_64.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn prefetch(_cell: &AtomicU64) {}

/// The time in `cell`, solving and storing it on first use. Racing
/// solvers store the same bits.
#[inline]
fn solved(cell: &AtomicU64, solve: impl FnOnce() -> f64) -> f64 {
    match cell.load(Relaxed) {
        UNSOLVED => {
            let t = solve();
            cell.store(t.to_bits(), Relaxed);
            t
        }
        bits => f64::from_bits(bits),
    }
}

impl fmt::Debug for SeekSurface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SeekSurface")
            .field("cylinders", &self.cylinders())
            .field("boundaries", &self.y_ends.len())
            .field("bytes", &self.bytes())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kinematics::reference::ReferenceSled;
    use std::sync::{Barrier, OnceLock};

    /// A geometrically valid but small device (200 cylinders, 2 rows per
    /// track) so exhaustive checks stay fast.
    fn small_params() -> MemsParams {
        MemsParams {
            bit_width: 500e-9,
            per_tip_rate: 56e3, // keep the access velocity at 28 mm/s
            ..MemsParams::default()
        }
    }

    #[test]
    fn small_geometry_sanity() {
        let g = small_params().geometry();
        assert_eq!(g.cylinders, 200);
        assert_eq!(g.rows_per_track, 2);
    }

    /// A solver's `seek_time(p0, v0, p1, v1)`.
    type Solve<'a> = &'a (dyn Fn(f64, f64, f64, f64) -> f64 + Sync);

    fn sled_for(params: &MemsParams) -> SpringSled {
        SpringSled::from_spring_factor(params.accel, params.spring_factor, params.half_mobility())
    }

    /// Asserts that X rows `rows` of `s` (every column) equal `solve` bit
    /// for bit. Rows are checked in parallel, one block per core.
    fn assert_x_rows_match(s: &SeekSurface, rows: &[u32], solve: Solve) {
        let mapper = Mapper::new(s.params());
        let workers = thread::available_parallelism().map_or(1, |w| w.get());
        thread::scope(|scope| {
            for block in rows.chunks(rows.len().div_ceil(workers).max(1)) {
                let mapper = &mapper;
                scope.spawn(move || {
                    for &from in block {
                        let from_x = mapper.x_of_cylinder(from);
                        for to in 0..s.cylinders() {
                            let want = solve(from_x, 0.0, mapper.x_of_cylinder(to), 0.0);
                            assert_eq!(
                                s.x_at(from as usize, to as usize).to_bits(),
                                want.to_bits(),
                                "x_at({from}, {to}) differs from the solver \
                                 (spring factor {})",
                                s.params().spring_factor
                            );
                        }
                    }
                });
            }
        });
    }

    /// Every on-grid Y key of `s`.
    fn y_keys(s: &SeekSurface) -> Vec<YKey> {
        let b = s.y_ends.len() as u16;
        let mut keys = Vec::new();
        for from_boundary in 0..b {
            for from_dir in [-1i8, 0, 1] {
                for to_boundary in 0..b {
                    for to_dir in [-1i8, 1] {
                        keys.push(YKey {
                            from_boundary,
                            from_dir,
                            to_boundary,
                            to_dir,
                        });
                    }
                }
            }
        }
        keys
    }

    /// Asserts that the whole Y table of `s` equals `solve` bit for bit.
    fn assert_y_table_matches(s: &SeekSurface, solve: Solve) {
        let mapper = Mapper::new(s.params());
        let v = s.params().access_velocity();
        for key in y_keys(s) {
            let want = solve(
                mapper.y_of_row_start(u32::from(key.from_boundary)),
                f64::from(key.from_dir) * v,
                mapper.y_of_row_start(u32::from(key.to_boundary)),
                f64::from(key.to_dir) * v,
            );
            assert_eq!(
                s.y_at(key).to_bits(),
                want.to_bits(),
                "y_at({key:?}) differs from the solver (spring factor {})",
                s.params().spring_factor
            );
        }
    }

    /// Asserts that X rows `rows` and the whole Y table of `s` equal the
    /// frozen reference solver. It catches a solver change that moves the
    /// surface and the direct solve alike, which the direct-solver checks
    /// cannot.
    fn assert_matches_reference(s: &SeekSurface, rows: &[u32]) {
        let sled = ReferenceSled(sled_for(s.params()));
        let solve = |p0, v0, p1, v1| sled.seek_time(p0, v0, p1, v1);
        assert_x_rows_match(s, rows, &solve);
        assert_y_table_matches(s, &solve);
    }

    /// Asserts that X rows `rows` and the whole Y table of `a` and `b`
    /// hold the same bits.
    fn assert_surfaces_equal(a: &SeekSurface, b: &SeekSurface, rows: &[u32]) {
        for &from in rows {
            for to in 0..a.cylinders() {
                assert_eq!(
                    a.x_at(from as usize, to as usize).to_bits(),
                    b.x_at(from as usize, to as usize).to_bits(),
                    "x_at({from}, {to})"
                );
            }
        }
        for key in y_keys(a) {
            assert_eq!(a.y_at(key).to_bits(), b.y_at(key).to_bits(), "{key:?}");
        }
    }

    /// `items` in a deterministic pseudo-random order (Fisher–Yates over
    /// an LCG seeded by `seed`).
    fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
        let mut state = seed;
        for i in (1..items.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            items.swap(i, (state >> 33) as usize % (i + 1));
        }
        items
    }

    /// Queries X rows `rows` (every column) and the whole Y table of `s`
    /// in an order shuffled by `seed`, filling a lazy surface as it goes.
    fn touch_shuffled(s: &SeekSurface, rows: &[u32], seed: u64) {
        let cells = rows
            .iter()
            .flat_map(|&from| (0..s.cylinders()).map(move |to| (from, to)))
            .collect();
        for (from, to) in shuffled(cells, seed) {
            s.x_at(from as usize, to as usize);
        }
        for key in shuffled(y_keys(s), seed) {
            s.y_at(key);
        }
    }

    #[test]
    fn x_matrix_matches_direct_solver_bitwise() {
        let s = SeekSurface::build(&small_params()).expect("small device fits");
        let sled = sled_for(s.params());
        let rows: Vec<u32> = (0..200).step_by(7).collect();
        assert_x_rows_match(&s, &rows, &|p0, _, p1, _| sled.rest_seek_time(p0, p1));
        assert_eq!(s.x_at(42, 42), 0.0);
    }

    #[test]
    fn y_table_matches_direct_solver_bitwise() {
        let s = SeekSurface::build(&small_params()).expect("small device fits");
        let sled = sled_for(s.params());
        assert_y_table_matches(&s, &|p0, v0, p1, v1| sled.seek_time(p0, v0, p1, v1));
    }

    /// The paper-device surface, built eagerly once per test process and
    /// shared by every test that needs it.
    pub(crate) fn paper_surface() -> Arc<SeekSurface> {
        static SURFACE: OnceLock<Arc<SeekSurface>> = OnceLock::new();
        Arc::clone(SURFACE.get_or_init(|| {
            Arc::new(SeekSurface::build(&MemsParams::default()).expect("paper device fits"))
        }))
    }

    /// The sampled paper rows: both edges, both sides of the center, and
    /// every 97th.
    fn paper_rows() -> Vec<u32> {
        let n = MemsParams::default().geometry().cylinders;
        let mut rows = vec![0, 1, n / 2 - 1, n / 2, n - 2, n - 1];
        rows.extend((0..n).step_by(97));
        rows
    }

    /// An eagerly filled surface for `params`, asserting that its row
    /// solves sent to the scalar core only the diagonal, whose endpoints
    /// are equal: every other X cell of a rest-to-rest matrix is plain.
    fn filled_with_diagonal_fallbacks(params: &MemsParams) -> SeekSurface {
        let s = SeekSurface::empty(params);
        assert_eq!(
            s.fill_counting_fallbacks(),
            s.x_ends.len(),
            "X cells that left the row solve's lanes (spring factor {})",
            params.spring_factor
        );
        s
    }

    #[test]
    fn small_surface_matches_frozen_reference_everywhere() {
        let s = filled_with_diagonal_fallbacks(&small_params());
        assert_eq!(s.cylinders(), 200);
        assert_matches_reference(&s, &(0..s.cylinders()).collect::<Vec<_>>());
    }

    #[test]
    fn paper_surface_sampled_rows_match_frozen_reference() {
        assert_matches_reference(&paper_surface(), &paper_rows());
    }

    /// Every one of the paper surface's 6.25 M X cells, eagerly filled,
    /// at the paper's spring factor and at each other one the spring
    /// ablation builds devices with (`ablation_spring`: 0.05, 0.25, 0.5,
    /// 0.9), each fill sending only its 2,500 diagonal cells to the scalar
    /// core; then every cell of a paper surface the check itself fills
    /// lazily. Among the parameter sets the repository builds, only the
    /// spring factor and the geometry change the X matrix, and the small
    /// geometry is checked everywhere in the tier-1 suite. Seconds in
    /// release, far longer in debug, so it runs only when asked for
    /// (`-- --ignored`).
    #[test]
    #[ignore = "exhaustive; run in release with --ignored"]
    fn paper_surface_matches_frozen_reference_everywhere() {
        let rows: Vec<u32> = (0..paper_surface().cylinders()).collect();
        for spring_factor in [0.75, 0.05, 0.25, 0.5, 0.9] {
            let params = MemsParams::default().with_spring_factor(spring_factor);
            assert_matches_reference(&filled_with_diagonal_fallbacks(&params), &rows);
        }
        assert_matches_reference(&SeekSurface::empty(&MemsParams::default()), &rows);
    }

    #[test]
    fn lazy_fill_in_shuffled_order_matches_eager_build() {
        let params = small_params();
        let lazy = SeekSurface::empty(&params);
        let all: Vec<u32> = (0..lazy.cylinders()).collect();
        touch_shuffled(&lazy, &all, 0x5EED);
        let eager = SeekSurface::build(&params).expect("small device fits");
        assert_eq!(lazy.bytes(), eager.bytes());
        assert_surfaces_equal(&lazy, &eager, &all);

        let lazy = SeekSurface::empty(&MemsParams::default());
        touch_shuffled(&lazy, &paper_rows(), 0xFACE);
        assert_surfaces_equal(&lazy, &paper_surface(), &paper_rows());
    }

    #[test]
    fn concurrent_fills_of_one_surface_match_eager_build() {
        // Four threads query every cell in their own shuffled orders while
        // two more fill the whole surface, each through its own row
        // counter, all released at once; every cell is raced for.
        let params = small_params();
        let lazy = SeekSurface::empty(&params);
        let all: Vec<u32> = (0..lazy.cylinders()).collect();
        let start = Barrier::new(6);
        thread::scope(|scope| {
            for seed in 1..=4 {
                let (lazy, all, start) = (&lazy, &all, &start);
                scope.spawn(move || {
                    start.wait();
                    touch_shuffled(lazy, all, seed);
                });
            }
            for _ in 0..2 {
                scope.spawn(|| {
                    start.wait();
                    lazy.fill();
                });
            }
        });
        assert_surfaces_equal(&lazy, &SeekSurface::build(&params).unwrap(), &all);
    }

    // The grid checks are debug assertions, so these run in debug builds.

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "off the grid")]
    fn x_seek_past_the_last_cylinder_panics() {
        let s = SeekSurface::empty(&small_params());
        s.x_at(0, s.cylinders() as usize);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "off the grid")]
    fn y_seek_past_the_last_boundary_panics() {
        let s = SeekSurface::empty(&small_params());
        s.y_at(YKey {
            from_boundary: 0,
            from_dir: 0,
            to_boundary: s.y_ends.len() as u16,
            to_dir: 1,
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "off the grid")]
    fn y_seek_to_a_resting_target_panics() {
        SeekSurface::empty(&small_params()).y_at(YKey {
            from_boundary: 0,
            from_dir: 0,
            to_boundary: 1,
            to_dir: 0,
        });
    }

    #[test]
    fn registry_shares_live_surfaces_and_frees_dropped_ones() {
        // Parameter sets no other test uses, so no other holder can keep
        // their surfaces alive.
        let params = MemsParams {
            spring_factor: 0.5,
            ..small_params()
        };
        let other = MemsParams {
            spring_factor: 0.25,
            ..small_params()
        };
        let a = SeekSurface::shared(&params).expect("small device fits");
        let b = SeekSurface::shared(&params).expect("small device fits");
        assert!(Arc::ptr_eq(&a, &b), "live surfaces are shared");
        a.x_at(3, 4);
        let weak = Arc::downgrade(&a);
        drop((a, b));
        // Whatever other tests resolved since, the call below hands out
        // another surface, so nothing keeps this one alive any more.
        SeekSurface::shared(&other).expect("small device fits");
        assert!(
            weak.upgrade().is_none(),
            "the registry holds all but its latest surface weakly"
        );
        let fresh = SeekSurface::shared(&params).expect("small device fits");
        let n = fresh.x_ends.len();
        assert_eq!(
            fresh.x[3 * n + 4].load(Relaxed),
            UNSOLVED,
            "a fresh surface is unfilled"
        );
    }

    #[test]
    fn registry_shares_surfaces_across_settle_and_overhead_terms() {
        // A parameter set no other test uses, so its surface is this test's.
        let params = MemsParams {
            spring_factor: 0.4,
            ..small_params()
        };
        let surface = SeekSurface::shared(&params).expect("small device fits");
        for variant in [
            params.clone().with_settle_constants(2.0),
            MemsParams {
                resonant_freq: 500.0,
                ..params.clone()
            },
            MemsParams {
                overhead: 1e-4,
                ..params.clone()
            },
        ] {
            let shared = SeekSurface::shared(&variant).expect("small device fits");
            assert!(
                Arc::ptr_eq(&shared, &surface),
                "{variant:?} solves the same seeks"
            );
            assert_eq!(shared.params(), &params, "the set it was first built for");
        }
        let stiffer = SeekSurface::shared(&params.clone().with_spring_factor(0.45))
            .expect("small device fits");
        assert!(
            !Arc::ptr_eq(&stiffer, &surface),
            "the spring factor moves the seeks"
        );
    }

    #[test]
    fn seek_hints_resolve_fill_and_range_check_nothing() {
        use crate::device::MemsDevice;
        use storage_sim::PositionOracle;
        // A hint resolves no registry surface...
        let fresh = MemsDevice::new(small_params());
        fresh.prefetch_seek(3, 4);
        assert!(fresh.seek_surface().is_none(), "a hint resolved a surface");
        // ...fills no cell of a lazy one...
        let lazy = Arc::new(SeekSurface::empty(&small_params()));
        let dev = MemsDevice::new(small_params()).with_seek_surface(Arc::clone(&lazy));
        dev.prefetch_seek(3, 4);
        let n = lazy.x_ends.len();
        assert_eq!(lazy.x[3 * n + 4].load(Relaxed), UNSOLVED);
        // ...and ignores cells off the grid instead of panicking.
        for (from, to) in [(200, 0), (0, 200), (199, u64::MAX), (u64::MAX, u64::MAX)] {
            dev.prefetch_seek(from, to);
        }
        assert!(lazy.x.iter().all(|cell| cell.load(Relaxed) == UNSOLVED));
    }

    #[test]
    fn size_guard_refuses_oversized_matrices() {
        // 1 nm bit cells give 100_000 cylinders — an 80 GB X matrix.
        let huge = MemsParams {
            bit_width: 1e-9,
            ..MemsParams::default()
        };
        assert!(SeekSurface::x_matrix_bytes(&huge) > SeekSurface::MAX_X_MATRIX_BYTES);
        assert!(SeekSurface::build(&huge).is_none());
        assert!(SeekSurface::shared(&huge).is_none());
        assert!(SeekSurface::build(&small_params()).is_some());
    }

    #[test]
    fn reports_its_own_footprint() {
        // 200² X entries + (2+1)·3·(2+1)·2 Y entries, 8 bytes each.
        let s = SeekSurface::build(&small_params()).expect("small device fits");
        assert_eq!(s.bytes(), (200 * 200 + 3 * 3 * 6) * 8);
        assert_eq!(s.cylinders(), 200);
        let dbg = format!("{s:?}");
        assert!(dbg.contains("cylinders: 200"), "{dbg}");
        assert_eq!(SeekSurface::empty(&small_params()).bytes(), s.bytes());
    }

    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    #[test]
    fn x_matrix_extents_are_advised_for_huge_pages() {
        // The kernel flags an advised mapping `hg` in every THP mode; only a
        // kernel built without THP has neither the flag nor this directory.
        if !std::path::Path::new("/sys/kernel/mm/transparent_hugepage").exists() {
            eprintln!("skipped: this kernel has no transparent huge pages");
            return;
        }
        const EXTENT: usize = 2 << 20;
        let s = SeekSurface::empty(&MemsParams::default());
        let start = s.x.as_ptr().addr();
        let end = start + size_of_val(&*s.x);
        // The address ranges of the mappings flagged `hg`.
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("smaps is readable");
        let mut advised = Vec::new();
        let mut range = None;
        for line in smaps.lines() {
            if let Some(flags) = line.strip_prefix("VmFlags:") {
                if flags.split_whitespace().any(|flag| flag == "hg") {
                    advised.extend(range);
                }
            } else if let Some((lo, hi)) = line
                .split_whitespace()
                .next()
                .and_then(|span| span.split_once('-'))
            {
                if let (Ok(lo), Ok(hi)) =
                    (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
                {
                    range = Some((lo, hi));
                }
            }
        }
        let extents: Vec<usize> = (start.next_multiple_of(EXTENT)..)
            .step_by(EXTENT)
            .take_while(|extent| extent + EXTENT <= end)
            .collect();
        assert!(
            extents.len() >= 22,
            "a 50 MB matrix holds 22 or 23 whole extents"
        );
        for extent in extents {
            assert!(
                advised
                    .iter()
                    .any(|&(lo, hi)| lo <= extent && extent + EXTENT <= hi),
                "extent at {extent:#x} of the X matrix is not advised for huge pages"
            );
        }
    }
}
