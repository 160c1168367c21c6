//! Spring-sled kinematics: closed-form time-optimal seeks.
//!
//! The media sled is a spring-mass system driven by electrostatic comb
//! actuators (§2.1). Along each axis the equation of motion during a seek
//! is
//!
//! ```text
//! p̈ = u − ω²·p ,   u ∈ {+a, −a}
//! ```
//!
//! where `a` is the actuator acceleration and `ω` the spring angular
//! frequency (the restoring force `F = k·Δx` of the footnote in §2.3).
//! Under constant `u` the motion is harmonic around the shifted equilibrium
//! `c = u/ω²`, so phase-plane trajectories in `(p, v/ω)` coordinates are
//! circles centered at `(c, 0)` traversed clockwise at constant angular
//! rate ω. A time-optimal two-phase (bang-bang) seek is therefore: follow
//! the circle of one control to its intersection with the circle of the
//! opposite control through the goal state. Both the switch point and the
//! phase durations have closed forms — no numerical integration — which
//! keeps SPTF's per-decision positioning-time queries cheap.
//!
//! This model directly produces the paper's headline behaviours:
//!
//! * seeks near the sled edges take longer than at the center (§2.4.4,
//!   Fig. 9) because the spring fights the actuator on one side;
//! * turnaround time depends on position *and* direction of motion
//!   (§2.3, Table 2: ≈0.07 ms at center, less when the spring assists);
//! * X-seek settle is a separate additive constant (§2.4.2).
//!
//! # One solver core over endpoint terms
//!
//! Every seek runs through one core, `SpringSled::transfer_time`, which
//! takes each endpoint as precomputed *endpoint terms*: for a state
//! `(p, v)` and both circle centers `c = ±a/ω²`, the squared radius
//! `(p − c)² + w²` and the phase angle `atan2(−w, p − c)`, with `w = v/ω`.
//! Those terms depend on one endpoint only. [`SpringSled::seek_time`]
//! computes them for its two states; the seek surface computes them once
//! per cylinder (and per Y boundary and direction) and reuses them across
//! a whole matrix row or column.
//!
//! The core runs three stages per control ordering, each one function:
//!
//! 1. the single-phase test (the goal already lies on circle 1) and the
//!    switch point `(px, h)` where the two circles meet, if they do;
//! 2. the two `atan2` calls, the switch point's angle on each circle for
//!    the branch `wx = h`; the branch `wx = −h` reuses their negations;
//! 3. the two candidates through `(px, ±h)`, each with its over-travel
//!    check, which runs only for a candidate whose time could lower the
//!    best so far.
//!
//! Each arc's swept angle serves both its time and its over-travel check.
//! The check's terms for the arc that leaves the start on circle 1 (its
//! radius, its start angle reduced into `[0, 2π)`, and its offsets to the
//! circle's two extremes of `p`) depend only on the start and the
//! ordering, so the core computes them once per seek, as the ordering's
//! *start terms*, and every candidate of that ordering reads them.
//!
//! A surface row, one start against every goal, goes through the row
//! solve, `SpringSled::solve_row`, built from the same three stages. It
//! computes the start terms once for the row, then takes the goals in
//! lanes of four: stage 1 for each cell of the lane, then the lane's
//! `atan2` calls together, which the CPU overlaps, then stage 3 for each
//! cell. A lane handles only the *plain* cell: its endpoints differ,
//! exactly one ordering's circles meet, and neither ordering passes the
//! single-phase test. Any other cell goes to `transfer_time`, and the row
//! solve counts it; on a rest-to-rest X row that is only the diagonal.
//! The plain case is exact: an ordering whose circles do not meet and
//! that has no single-phase candidate offers no candidate at all, so in
//! `transfer_time` the running best enters the other ordering at +∞, as
//! it does in the lane, and both then run the same stage 3 on the same
//! operands.
//!
//! The core is bit-identical to the earlier solver that evaluated every
//! candidate from scratch; that solver is kept verbatim under `cfg(test)`
//! (`kinematics::reference`) as a frozen reference for the tests.
//! Hoisting moves only pure subexpressions: each endpoint or start term is
//! the same floating-point expression on the same operands wherever it is
//! used, and every candidate keeps its expression tree — operand order,
//! `powi(2)`, the reduction into `[0, 2π)`, the `ANGLE_EPS` clamp, `min`.
//! A candidate whose time is above the running best leaves `best.min(t)`
//! unchanged, so skipping its over-travel check is exact too. Two more
//! shortcuts are exact by properties of the floating-point operations
//! themselves, each guarded by a test:
//!
//! * **Negated switch angles.** `atan2` is odd in `y`: glibc's computes on
//!   `|y|` and copies `y`'s sign to the result, and any correctly rounded
//!   `atan2` is odd too, since rounding to nearest commutes with negation.
//!   So `atan2(h, x)` has the bits of `−atan2(−h, x)`, and at `h = 0` the
//!   negation yields the ±0 or ±π a second call would return. The tests
//!   `atan2_is_odd_in_y` and `atan2_is_odd_in_y_at_the_edges` fail in
//!   milliseconds, naming the assumption, on a platform whose libm breaks
//!   it.
//! * **Angle reduction without `fmod`.** `x.rem_euclid(2π)` is
//!   `fmod(x, 2π)`, plus 2π when that is negative, and `fmod` returns `x`
//!   itself when |x| < 2π. Every angle the solver reduces lies within
//!   [−2π, 2π], so `wrap_angle` returns `x`, or `x + 2π` when `x < 0`, by
//!   a branch, and leaves only |x| ≥ 2π, infinities and NaN to
//!   `rem_euclid`. The tests `wrap_angle_matches_rem_euclid` (arbitrary bit
//!   patterns) and `wrap_angle_matches_rem_euclid_at_the_edges` check it
//!   bit for bit.

/// Tolerance for treating two phase-plane states as identical, in meters.
const POS_EPS: f64 = 1e-12;

/// Angular tolerance below which an arc is treated as empty rather than a
/// full revolution.
const ANGLE_EPS: f64 = 1e-9;

/// Slack beyond the nominal mobility limit allowed during seeks, as a
/// fraction of the half-mobility. The spring suspension tolerates a slight
/// over-travel during edge turnarounds (the paper's minimum turnaround of
/// 0.036 ms requires it); candidate trajectories that swing far outside
/// the device are rejected.
const OVERTRAVEL_SLACK: f64 = 0.05;

/// One full revolution, the period every phase angle is reduced by.
const TWO_PI: f64 = 2.0 * std::f64::consts::PI;

/// Cells [`SpringSled::solve_row`] takes through each stage together.
const LANE: usize = 4;

/// The terms of one seek endpoint `(p, v)` that do not depend on the other
/// endpoint. With `w = v/ω`, for each circle center `c` of
/// `SpringSled::centers`, they are the squared radius `(p − c)² + w²` and
/// the phase angle `atan2(−w, p − c)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Endpoint {
    p: f64,
    v: f64,
    r_sq: [f64; 2],
    theta: [f64; 2],
}

/// `x.rem_euclid(TWO_PI)`, bit for bit. For |x| < 2π, `fmod(x, 2π)` is
/// `x` itself, so the branch returns what `rem_euclid` would without
/// calling `fmod`; only |x| ≥ 2π, infinities and NaN take `rem_euclid`.
#[inline]
fn wrap_angle(x: f64) -> f64 {
    if x.abs() < TWO_PI {
        if x < 0.0 {
            x + TWO_PI
        } else {
            x
        }
    } else {
        x.rem_euclid(TWO_PI)
    }
}

/// Clockwise sweep from phase angle `th0` to `th1`, normalized into
/// `[0, 2π)`; a sweep within `ANGLE_EPS` of a full revolution is empty.
fn sweep(th0: f64, th1: f64) -> f64 {
    // Clockwise in (p-c, w) space is increasing θ under this sign
    // convention.
    let mut dth = th1 - th0;
    dth = wrap_angle(dth);
    if dth > TWO_PI - ANGLE_EPS {
        dth = 0.0;
    }
    dth
}

/// The terms of a clockwise arc that depend only on where it starts: on
/// the circle around `c` with squared radius `r_sq`, at phase angle `th0`
/// and position `p0`.
#[derive(Debug, Clone, Copy)]
struct ArcStart {
    /// The start's phase angle, unreduced, as sweeps are measured from it.
    th0: f64,
    p0_abs: f64,
    /// For each extreme of p on the circle, θ = 0 (p = c + r) and θ = π
    /// (p = c − r): the clockwise offset from the start to it, and |p|
    /// there.
    extremes: [(f64, f64); 2],
}

impl ArcStart {
    fn new(c: f64, r_sq: f64, th0: f64, p0: f64) -> Self {
        let r = r_sq.sqrt();
        let th0_reduced = wrap_angle(th0);
        ArcStart {
            th0,
            p0_abs: p0.abs(),
            extremes: [(0.0, c + r), (std::f64::consts::PI, c - r)]
                .map(|(theta_ext, p_ext)| (wrap_angle(theta_ext - th0_reduced), p_ext.abs())),
        }
    }

    /// Maximum |p| reached on the arc that sweeps `dth` from the start and
    /// ends at `p1`; used to reject trajectories that fly far outside the
    /// device.
    #[inline]
    fn reach(&self, dth: f64, p1: f64) -> f64 {
        let mut max_abs = self.p0_abs.max(p1.abs());
        for (offset, p_ext_abs) in self.extremes {
            if offset <= dth {
                max_abs = max_abs.max(p_ext_abs);
            }
        }
        max_abs
    }
}

/// One control ordering's start terms (see the module docs): circle 1,
/// around `c1` through the start, is followed first, then circle 2, around
/// `c2`. `i1` and `i2` index the two centers' terms in an [`Endpoint`].
#[derive(Debug, Clone, Copy)]
struct Departure {
    i1: usize,
    i2: usize,
    c1: f64,
    c2: f64,
    r1_sq: f64,
    /// The arc that leaves the start on circle 1.
    arc: ArcStart,
}

impl Departure {
    /// Stage 1 toward `to`: whether `to` already lies on circle 1, which
    /// makes a single-phase candidate, and the switch point `(px, h)` where
    /// circle 1 meets circle 2 through `to`, or `None` if they do not meet.
    #[inline]
    fn switch_point(&self, to: &Endpoint) -> (bool, Option<(f64, f64)>) {
        let (c1, c2, r1_sq) = (self.c1, self.c2, self.r1_sq);
        let single_phase = (to.r_sq[self.i1] - r1_sq).abs() <= 1e-9 * (r1_sq + POS_EPS);
        let denom = 2.0 * (c2 - c1);
        debug_assert!(denom.abs() > 0.0);
        let px = (r1_sq - to.r_sq[self.i2] + c2 * c2 - c1 * c1) / denom;
        let h_sq = r1_sq - (px - c1).powi(2);
        let switch = if h_sq < -1e-18 {
            None
        } else {
            Some((px, h_sq.max(0.0).sqrt()))
        };
        (single_phase, switch)
    }

    /// Stage 2: the switch point's angle on each circle, `atan2(−wx,
    /// px − c)`, for the branch `wx = h`. The branch `wx = −h` has the
    /// negated angles: `atan2` is odd in `y` (see the module docs), so the
    /// negation holds the bits a second call would return, ±0 and ±π at
    /// `h = 0` included.
    #[inline]
    fn switch_angles(&self, (px, h): (f64, f64)) -> (f64, f64) {
        (f64::atan2(-h, px - self.c1), f64::atan2(-h, px - self.c2))
    }
}

/// The fastest candidate offered to a seek so far, among those that stay
/// within the over-travel limit and among all.
#[derive(Debug, Clone, Copy)]
struct Best {
    within: f64,
    any: f64,
}

impl Best {
    const NONE: Best = Best {
        within: f64::INFINITY,
        any: f64::INFINITY,
    };

    /// Offers candidate time `t`. Only a candidate with `t <= within` gets
    /// its over-travel check, `fits`: a slower one cannot change
    /// `within.min(t)`.
    #[inline]
    fn offer(&mut self, t: f64, fits: impl FnOnce() -> bool) {
        if t <= self.within && fits() {
            self.within = self.within.min(t);
        }
        self.any = self.any.min(t);
    }

    /// The seek's time: the fastest candidate within the limit or, when
    /// all over-travelled (possible only for contrived states), the
    /// fastest unchecked one.
    #[inline]
    fn time(self) -> f64 {
        if self.within.is_finite() {
            self.within
        } else {
            debug_assert!(self.any.is_finite(), "no bang-bang solution found");
            self.any
        }
    }
}

/// One axis of the sled: actuator strength, spring stiffness, travel limit.
///
/// # Examples
///
/// ```
/// use mems_device::kinematics::SpringSled;
///
/// // The paper's default axis: a = 803.6 m/s², spring factor 75% over ±50 µm.
/// let sled = SpringSled::from_spring_factor(803.6, 0.75, 50e-6);
/// // A full-stroke rest-to-rest seek takes about half a millisecond...
/// let t = sled.seek_time(-50e-6, 0.0, 50e-6, 0.0);
/// assert!(t > 0.4e-3 && t < 0.65e-3);
/// // ...and a turnaround at the center at access velocity ~0.07 ms (Table 2).
/// let ta = sled.turnaround_time(0.0, 0.028);
/// assert!((ta - 69e-6).abs() < 5e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpringSled {
    /// Actuator acceleration magnitude, m/s².
    accel: f64,
    /// Spring angular frequency ω, rad/s.
    omega: f64,
    /// Nominal travel limit from center, m.
    p_max: f64,
}

impl SpringSled {
    /// Creates an axis with an explicit spring angular frequency.
    ///
    /// # Panics
    ///
    /// Panics unless `accel`, `omega`, and `p_max` are positive and the
    /// actuator can overcome the spring everywhere in the travel range
    /// (`omega² · p_max < accel`).
    pub fn new(accel: f64, omega: f64, p_max: f64) -> Self {
        assert!(accel > 0.0 && omega > 0.0 && p_max > 0.0);
        assert!(
            omega * omega * p_max < accel,
            "spring must not overpower the actuator within the travel range"
        );
        SpringSled {
            accel,
            omega,
            p_max,
        }
    }

    /// Creates an axis from the paper's parameterization: the spring force
    /// reaches `spring_factor × actuator force` at full displacement.
    pub fn from_spring_factor(accel: f64, spring_factor: f64, p_max: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&spring_factor),
            "spring factor must be in [0,1)"
        );
        let omega = (spring_factor * accel / p_max).sqrt();
        Self::new(accel, omega, p_max)
    }

    /// Actuator acceleration magnitude, m/s².
    pub fn accel(&self) -> f64 {
        self.accel
    }

    /// Spring angular frequency, rad/s.
    pub fn omega(&self) -> f64 {
        self.omega
    }

    /// Nominal travel limit from center, m.
    pub fn p_max(&self) -> f64 {
        self.p_max
    }

    /// Instantaneous acceleration under control `u` at position `p`.
    pub fn acceleration(&self, u: f64, p: f64) -> f64 {
        u - self.omega * self.omega * p
    }

    /// Circle centers `u/ω²` of the two controls `u = +a` and `u = −a`,
    /// indexed like [`Endpoint`]'s per-center terms.
    fn centers(&self) -> [f64; 2] {
        [1.0f64, -1.0].map(|u_sign| u_sign * self.accel / (self.omega * self.omega))
    }

    /// Endpoint terms of the state `(p, v)`, ready for
    /// [`SpringSled::transfer_time`].
    ///
    /// # Panics
    ///
    /// Panics if `p` lies outside the travel range.
    pub(crate) fn endpoint(&self, p: f64, v: f64) -> Endpoint {
        let lim = self.slack_lim() + POS_EPS;
        assert!(
            p.abs() <= lim,
            "seek endpoints must lie within the sled travel range"
        );
        let w = v / self.omega;
        let centers = self.centers();
        Endpoint {
            p,
            v,
            r_sq: centers.map(|c| (p - c).powi(2) + w * w),
            theta: centers.map(|c| f64::atan2(-w, p - c)),
        }
    }

    /// How far |p| may reach during a seek.
    fn slack_lim(&self) -> f64 {
        self.p_max * (1.0 + OVERTRAVEL_SLACK)
    }

    /// Whether `from` and `to` are one state, which takes no time to reach.
    fn same_state(&self, from: &Endpoint, to: &Endpoint) -> bool {
        (from.p - to.p).abs() < POS_EPS && (from.v - to.v).abs() < self.omega * POS_EPS
    }

    /// Both control orderings' terms for seeks that start at `from`: +a
    /// first, then −a first.
    fn departures(&self, from: &Endpoint) -> [Departure; 2] {
        let centers = self.centers();
        [(0, 1), (1, 0)].map(|(i1, i2)| Departure {
            i1,
            i2,
            c1: centers[i1],
            c2: centers[i2],
            r1_sq: from.r_sq[i1],
            arc: ArcStart::new(centers[i1], from.r_sq[i1], from.theta[i1], from.p),
        })
    }

    /// Stage 3: offers `best` the two two-phase candidates of ordering
    /// `dep` toward `to`, through the switch point `(px, ±h)` whose angles
    /// for `+h` are `(a1, a2)`.
    #[inline]
    fn offer_switches(
        &self,
        best: &mut Best,
        dep: &Departure,
        to: &Endpoint,
        (px, h): (f64, f64),
        (a1, a2): (f64, f64),
    ) {
        for (wx, sw1, sw2) in [(h, a1, a2), (-h, -a1, -a2)] {
            let dth1 = sweep(dep.arc.th0, sw1);
            let dth2 = sweep(sw2, to.theta[dep.i2]);
            let t = dth1 / self.omega + dth2 / self.omega;
            best.offer(t, || {
                let arrival = ArcStart::new(dep.c2, (px - dep.c2).powi(2) + wx * wx, sw2, px);
                dep.arc.reach(dth1, px).max(arrival.reach(dth2, to.p)) <= self.slack_lim()
            });
        }
    }

    /// [`SpringSled::seek_time`] between two endpoints' precomputed terms:
    /// the one solver core behind every seek and the seek surface.
    pub(crate) fn transfer_time(&self, from: &Endpoint, to: &Endpoint) -> f64 {
        if self.same_state(from, to) {
            return 0.0;
        }
        let mut best = Best::NONE;
        for dep in &self.departures(from) {
            let (single_phase, switch) = dep.switch_point(to);
            if single_phase {
                let dth = sweep(dep.arc.th0, to.theta[dep.i1]);
                best.offer(dth / self.omega, || {
                    dep.arc.reach(dth, to.p) <= self.slack_lim()
                });
            }
            if let Some(switch) = switch {
                self.offer_switches(&mut best, dep, to, switch, dep.switch_angles(switch));
            }
        }
        best.time()
    }

    /// Stage 1 of both orderings of the seek from `from` to `to`, whose
    /// start's terms are `deps`: the ordering and switch point of a plain
    /// seek (see the module docs), `None` for any other.
    #[inline]
    fn plain_switch<'a>(
        &self,
        deps: &'a [Departure; 2],
        from: &Endpoint,
        to: &Endpoint,
    ) -> Option<(&'a Departure, (f64, f64))> {
        if self.same_state(from, to) {
            return None;
        }
        match deps.map(|dep| dep.switch_point(to)) {
            [(false, Some(switch)), (false, None)] => Some((&deps[0], switch)),
            [(false, None), (false, Some(switch))] => Some((&deps[1], switch)),
            _ => None,
        }
    }

    /// [`SpringSled::transfer_time`] from `from` to each of `goals`, in
    /// lanes of cells that take each stage together; passes each time to
    /// `store` with its goal's index. Returns how many cells were not
    /// plain and went to `transfer_time` itself.
    pub(crate) fn solve_row(
        &self,
        from: &Endpoint,
        goals: &[Endpoint],
        mut store: impl FnMut(usize, f64),
    ) -> usize {
        let deps = self.departures(from);
        let mut fallbacks = 0;
        for (first, lane) in (0..).step_by(LANE).zip(goals.chunks(LANE)) {
            let mut plain = [None; LANE];
            for (cell, to) in plain.iter_mut().zip(lane) {
                *cell = self.plain_switch(&deps, from, to);
            }
            let plain = plain
                .map(|cell| cell.map(|(dep, switch)| (dep, switch, dep.switch_angles(switch))));
            for (k, (to, cell)) in lane.iter().zip(plain).enumerate() {
                let t = match cell {
                    Some((dep, switch, angles)) => {
                        let mut best = Best::NONE;
                        self.offer_switches(&mut best, dep, to, switch, angles);
                        best.time()
                    }
                    None => {
                        fallbacks += 1;
                        self.transfer_time(from, to)
                    }
                };
                store(first + k, t);
            }
        }
        fallbacks
    }

    /// Time-optimal bang-bang transfer time from `(p0, v0)` to `(p1, v1)`,
    /// in seconds.
    ///
    /// Evaluates both control orderings (+a then −a, and −a then +a) and
    /// both phase-plane intersection branches, rejecting trajectories that
    /// leave the travel range by more than a small slack, and returns the
    /// fastest feasible transfer.
    ///
    /// # Panics
    ///
    /// Panics if start or goal position lies outside the travel range.
    pub fn seek_time(&self, p0: f64, v0: f64, p1: f64, v1: f64) -> f64 {
        self.transfer_time(&self.endpoint(p0, v0), &self.endpoint(p1, v1))
    }

    /// Rest-to-rest seek time between positions, the X-dimension case.
    pub fn rest_seek_time(&self, p0: f64, p1: f64) -> f64 {
        self.seek_time(p0, 0.0, p1, 0.0)
    }

    /// Largest acceleration magnitude any trajectory can experience:
    /// actuator force plus the spring pushing from the overtravel limit,
    /// `a + ω²·p_max·(1 + slack)`.
    pub fn max_acceleration(&self) -> f64 {
        self.accel + self.omega * self.omega * self.p_max * (1.0 + OVERTRAVEL_SLACK)
    }

    /// Lower bound on the time of **any** rest-to-rest seek covering at
    /// least `distance` meters.
    ///
    /// With `|p̈| ≤ a_max` (see [`SpringSled::max_acceleration`]), the
    /// spring-free double-integrator optimum `2·√(d/a_max)` bounds every
    /// feasible trajectory from below, and the bound is nondecreasing in
    /// `distance` — the invariant the pruned SPTF scan relies on.
    pub fn min_rest_seek_time(&self, distance: f64) -> f64 {
        if distance <= 0.0 {
            return 0.0;
        }
        2.0 * (distance / self.max_acceleration()).sqrt()
    }

    /// Rest-to-rest seek time by direct numerical integration, the
    /// independent reference the closed forms are validated against
    /// (see the `validate_kinematics` harness in `mems-bench`).
    ///
    /// Simulates bang-bang motion at step `dt` seconds, bisecting on the
    /// switch position until the deceleration phase ends exactly on the
    /// target. Orders of magnitude slower than [`SpringSled::seek_time`];
    /// use only for validation.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive or the endpoints coincide.
    pub fn rest_seek_time_numeric(&self, p0: f64, p1: f64, dt: f64) -> f64 {
        assert!(dt > 0.0, "step must be positive");
        assert!(
            (p0 - p1).abs() > POS_EPS,
            "numeric seek needs a nonzero stroke"
        );
        let dir = (p1 - p0).signum();
        let simulate = |switch: f64| -> (f64, f64) {
            let (mut p, mut v, mut t) = (p0, 0.0, 0.0);
            while dir * (p - switch) < 0.0 {
                v += self.acceleration(dir * self.accel, p) * dt;
                p += v * dt;
                t += dt;
            }
            while dir * v > 0.0 {
                v += self.acceleration(-dir * self.accel, p) * dt;
                p += v * dt;
                t += dt;
            }
            (p, t)
        };
        let (mut lo, mut hi) = if dir > 0.0 { (p0, p1) } else { (p1, p0) };
        let mut best_t = 0.0;
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            let (p_end, t) = simulate(mid);
            best_t = t;
            if dir * (p_end - p1) > 0.0 {
                if dir > 0.0 {
                    hi = mid;
                } else {
                    lo = mid;
                }
            } else if dir > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        best_t
    }

    /// Turnaround time: reverse velocity `v → −v` at position `p`
    /// (returning to the same position), the Y-dimension track-switch case
    /// of §2.3.
    pub fn turnaround_time(&self, p: f64, v: f64) -> f64 {
        self.seek_time(p, v, p, -v)
    }
}

/// The closed-form solver exactly as it stood before the endpoint-term core,
/// frozen as the oracle that [`SpringSled::transfer_time`] and the seek
/// surface must match bit for bit. Do not edit it: its bits are the
/// specification.
#[cfg(test)]
pub(crate) mod reference {
    use super::{SpringSled, ANGLE_EPS, OVERTRAVEL_SLACK, POS_EPS};

    /// A [`SpringSled`] answered by the frozen reference solver.
    pub(crate) struct ReferenceSled(pub(crate) SpringSled);

    // Lets the frozen bodies read the sled's fields as `self.omega` etc.,
    // unchanged.
    impl std::ops::Deref for ReferenceSled {
        type Target = SpringSled;

        fn deref(&self) -> &SpringSled {
            &self.0
        }
    }

    impl ReferenceSled {
        /// Time of the clockwise arc on the circle centered at `c` from state
        /// `(p0, w0)` to `(p1, w1)`, where `w = v/ω`. Both states must lie on
        /// the circle. A zero-length arc returns 0.
        fn arc_time(&self, c: f64, p0: f64, w0: f64, p1: f64, w1: f64) -> f64 {
            let th0 = f64::atan2(-w0, p0 - c);
            let th1 = f64::atan2(-w1, p1 - c);
            // Clockwise in (p-c, w) space is increasing θ under this sign
            // convention; normalize the sweep into [0, 2π).
            let mut dth = th1 - th0;
            dth = dth.rem_euclid(2.0 * std::f64::consts::PI);
            if dth > 2.0 * std::f64::consts::PI - ANGLE_EPS {
                dth = 0.0;
            }
            dth / self.omega
        }

        /// Maximum |p| reached on the clockwise arc described above, used to
        /// reject trajectories that fly far outside the device.
        fn arc_max_abs_pos(&self, c: f64, p0: f64, w0: f64, p1: f64, w1: f64) -> f64 {
            let r = ((p0 - c).powi(2) + w0 * w0).sqrt();
            let th0 = f64::atan2(-w0, p0 - c).rem_euclid(2.0 * std::f64::consts::PI);
            let mut dth = (f64::atan2(-w1, p1 - c) - f64::atan2(-w0, p0 - c))
                .rem_euclid(2.0 * std::f64::consts::PI);
            if dth > 2.0 * std::f64::consts::PI - ANGLE_EPS {
                dth = 0.0;
            }
            let mut max_abs = p0.abs().max(p1.abs());
            // Extremes of p on the circle occur at θ = 0 (p = c + r) and θ = π
            // (p = c − r); check whether the swept arc crosses them.
            for (theta_ext, p_ext) in [(0.0, c + r), (std::f64::consts::PI, c - r)] {
                let offset = (theta_ext - th0).rem_euclid(2.0 * std::f64::consts::PI);
                if offset <= dth {
                    max_abs = max_abs.max(p_ext.abs());
                }
            }
            max_abs
        }

        /// Time-optimal bang-bang transfer time from `(p0, v0)` to `(p1, v1)`,
        /// in seconds.
        ///
        /// Evaluates both control orderings (+a then −a, and −a then +a) and
        /// both phase-plane intersection branches, rejecting trajectories that
        /// leave the travel range by more than a small slack, and returns the
        /// fastest feasible transfer.
        ///
        /// # Panics
        ///
        /// Panics if start or goal position lies outside the travel range.
        pub(crate) fn seek_time(&self, p0: f64, v0: f64, p1: f64, v1: f64) -> f64 {
            let lim = self.p_max * (1.0 + OVERTRAVEL_SLACK) + POS_EPS;
            assert!(
                p0.abs() <= lim && p1.abs() <= lim,
                "seek endpoints must lie within the sled travel range"
            );
            if (p0 - p1).abs() < POS_EPS && (v0 - v1).abs() < self.omega * POS_EPS {
                return 0.0;
            }

            let w0 = v0 / self.omega;
            let w1 = v1 / self.omega;
            let slack_lim = self.p_max * (1.0 + OVERTRAVEL_SLACK);

            let mut best = f64::INFINITY;
            let mut best_unchecked = f64::INFINITY;
            for u1_sign in [1.0f64, -1.0] {
                let c1 = u1_sign * self.accel / (self.omega * self.omega);
                let c2 = -c1;
                let r1_sq = (p0 - c1).powi(2) + w0 * w0;
                let r2_sq = (p1 - c2).powi(2) + w1 * w1;

                // Single-phase candidate: the goal already lies on circle 1.
                let goal_on_c1 = (p1 - c1).powi(2) + w1 * w1;
                if (goal_on_c1 - r1_sq).abs() <= 1e-9 * (r1_sq + POS_EPS) {
                    let t = self.arc_time(c1, p0, w0, p1, w1);
                    let reach = self.arc_max_abs_pos(c1, p0, w0, p1, w1);
                    if reach <= slack_lim {
                        best = best.min(t);
                    }
                    best_unchecked = best_unchecked.min(t);
                }

                // Two-phase candidates: circle-1/circle-2 intersections.
                let denom = 2.0 * (c2 - c1);
                debug_assert!(denom.abs() > 0.0);
                let px = (r1_sq - r2_sq + c2 * c2 - c1 * c1) / denom;
                let h_sq = r1_sq - (px - c1).powi(2);
                if h_sq < -1e-18 {
                    continue; // circles do not intersect under this ordering
                }
                let h = h_sq.max(0.0).sqrt();
                for wx in [h, -h] {
                    let t = self.arc_time(c1, p0, w0, px, wx) + self.arc_time(c2, px, wx, p1, w1);
                    let reach = self
                        .arc_max_abs_pos(c1, p0, w0, px, wx)
                        .max(self.arc_max_abs_pos(c2, px, wx, p1, w1));
                    if reach <= slack_lim {
                        best = best.min(t);
                    }
                    best_unchecked = best_unchecked.min(t);
                }
            }
            if best.is_finite() {
                best
            } else {
                // All candidates over-travelled (possible only for contrived
                // states); fall back to the fastest unchecked trajectory.
                debug_assert!(best_unchecked.is_finite(), "no bang-bang solution found");
                best_unchecked
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceSled;
    use super::*;
    use proptest::prelude::*;

    fn paper_sled() -> SpringSled {
        SpringSled::from_spring_factor(803.6, 0.75, 50e-6)
    }

    const V_ACCESS: f64 = 0.028;

    /// Cross-validation reference: the public numeric integrator.
    fn numeric_rest_seek(sled: &SpringSled, p0: f64, p1: f64) -> f64 {
        sled.rest_seek_time_numeric(p0, p1, 1e-8)
    }

    #[test]
    fn zero_seek_takes_zero_time() {
        let sled = paper_sled();
        assert_eq!(sled.rest_seek_time(10e-6, 10e-6), 0.0);
        assert_eq!(sled.seek_time(0.0, V_ACCESS, 0.0, V_ACCESS), 0.0);
    }

    #[test]
    fn closed_form_matches_rk4_center_seek() {
        let sled = paper_sled();
        for (p0, p1) in [
            (0.0, 10e-6),
            (0.0, 49e-6),
            (-25e-6, 25e-6),
            (-49e-6, 49e-6),
            (40e-6, 45e-6),
            (45e-6, -20e-6),
        ] {
            let exact = sled.rest_seek_time(p0, p1);
            let numeric = numeric_rest_seek(&sled, p0, p1);
            assert!(
                (exact - numeric).abs() < 0.02 * numeric + 2e-7,
                "seek {p0}->{p1}: exact {exact} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn rest_seek_is_symmetric() {
        let sled = paper_sled();
        for (p0, p1) in [(0.0, 30e-6), (-40e-6, 10e-6), (-49e-6, 49e-6)] {
            let fwd = sled.rest_seek_time(p0, p1);
            let rev = sled.rest_seek_time(p1, p0);
            assert!((fwd - rev).abs() < 1e-12, "asymmetric: {fwd} vs {rev}");
            // Mirror symmetry about the center as well.
            let mir = sled.rest_seek_time(-p0, -p1);
            assert!((fwd - mir).abs() < 1e-12);
        }
    }

    #[test]
    fn longer_seeks_take_longer_from_center() {
        let sled = paper_sled();
        let mut last = 0.0;
        for d in 1..=49 {
            let t = sled.rest_seek_time(0.0, d as f64 * 1e-6);
            assert!(t > last, "seek time must grow with distance");
            last = t;
        }
    }

    #[test]
    fn edge_seeks_are_slower_than_center_seeks() {
        // §2.4.4 / Fig. 9: short seeks near the edge take longer because
        // the spring fights the actuator on the outbound stroke.
        let sled = paper_sled();
        let d = 5e-6;
        let center = sled.rest_seek_time(0.0, d);
        let edge = sled.rest_seek_time(44e-6, 44e-6 + d);
        assert!(
            edge > center * 1.05,
            "edge seek {edge} not slower than center {center}"
        );
    }

    #[test]
    fn turnaround_at_center_matches_table_2() {
        // Table 2 reposition = 0.07 ms; caption: average 0.063 ms.
        let sled = paper_sled();
        let t = sled.turnaround_time(0.0, V_ACCESS);
        assert!(
            (t - 69.3e-6).abs() < 2e-6,
            "center turnaround {t} should be ≈69 µs"
        );
    }

    #[test]
    fn turnaround_minimum_is_at_outward_edge() {
        // The paper's 0.036 ms minimum: the spring assists reversal when
        // the sled moves outward at the edge.
        let sled = paper_sled();
        let t = sled.turnaround_time(49e-6, V_ACCESS);
        assert!(t < 45e-6, "spring-assisted turnaround {t} should be <45 µs");
        // Turning around at the edge moving inward is the slow direction.
        let t_slow = sled.turnaround_time(-49e-6, V_ACCESS);
        assert!(
            t_slow > 2.0 * t,
            "spring-opposed turnaround {t_slow} vs assisted {t}"
        );
    }

    #[test]
    fn turnaround_depends_on_direction_of_motion() {
        // §2.4.4: "turnarounds near the edges take either less time or
        // more, depending on the direction of sled motion."
        let sled = paper_sled();
        let outward = sled.turnaround_time(45e-6, V_ACCESS);
        let inward = sled.turnaround_time(45e-6, -V_ACCESS);
        assert!(outward < inward);
        // And by mirror symmetry the signs flip at the other edge.
        let outward_neg = sled.turnaround_time(-45e-6, -V_ACCESS);
        assert!((outward - outward_neg).abs() < 1e-12);
    }

    #[test]
    fn moving_start_seek_beats_or_matches_rest_plus_turnaround() {
        // Seeking from a moving state directly must never be slower than
        // an artificial stop-then-go decomposition.
        let sled = paper_sled();
        let direct = sled.seek_time(-20e-6, V_ACCESS, 30e-6, V_ACCESS);
        let stop_go = sled.seek_time(-20e-6, V_ACCESS, -20e-6, 0.0)
            + sled.seek_time(-20e-6, 0.0, 30e-6, 0.0)
            + sled.seek_time(30e-6, 0.0, 30e-6, V_ACCESS);
        assert!(direct <= stop_go + 1e-12);
    }

    #[test]
    fn full_stroke_seek_is_about_half_a_millisecond() {
        // ≈ 2·sqrt(L/2 / a) ≈ 0.5 ms for the default actuator; with the
        // paper's one settling constant added this is the "0.7 ms" top of
        // the paper's quoted 0.2–0.7 ms seek range (§2.4.2).
        let sled = paper_sled();
        let t = sled.rest_seek_time(-50e-6, 50e-6);
        assert!(t > 0.4e-3 && t < 0.65e-3, "full stroke {t}");
    }

    #[test]
    fn acceleration_includes_spring_term() {
        let sled = paper_sled();
        let a_center = sled.acceleration(sled.accel(), 0.0);
        let a_edge = sled.acceleration(sled.accel(), 50e-6);
        assert_eq!(a_center, 803.6);
        assert!((a_edge - 803.6 * 0.25).abs() < 1e-9);
    }

    /// Spring factors spanning weak to strong springs, the paper's 0.75
    /// first.
    const SPRING_FACTORS: [f64; 4] = [0.75, 0.1, 0.5, 0.95];

    /// Asserts that every seek shape from `(p0, v0)` toward `(p1, v1)` — the
    /// general transfer, rest-to-rest, the turnaround `(p0, v0) → (p0, −v0)`
    /// and the equal-endpoint seek — matches the frozen reference bit for
    /// bit.
    fn assert_matches_reference(sled: SpringSled, p0: f64, v0: f64, p1: f64, v1: f64) {
        let reference = ReferenceSled(sled);
        for (got, want, shape) in [
            (
                sled.seek_time(p0, v0, p1, v1),
                reference.seek_time(p0, v0, p1, v1),
                "general",
            ),
            (
                sled.rest_seek_time(p0, p1),
                reference.seek_time(p0, 0.0, p1, 0.0),
                "rest",
            ),
            (
                sled.turnaround_time(p0, v0),
                reference.seek_time(p0, v0, p0, -v0),
                "turnaround",
            ),
            (
                sled.seek_time(p0, v0, p0, v0),
                reference.seek_time(p0, v0, p0, v0),
                "equal endpoints",
            ),
        ] {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{shape} seek ({p0}, {v0}) -> ({p1}, {v1}): core {got} vs reference {want}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The solver core reproduces the frozen reference bit for bit over
        /// positions up to the over-travel limit and velocities at rest, at
        /// ±the access velocity, and arbitrary up to twice it.
        #[test]
        fn seek_time_matches_frozen_reference(
            spring in 0usize..SPRING_FACTORS.len(),
            (a, b) in (-1.05f64..1.05, -1.05f64..1.05),
            (sel0, sel1) in (0u8..4, 0u8..4),
            (f0, f1) in (-2.0f64..2.0, -2.0f64..2.0),
        ) {
            let sled = SpringSled::from_spring_factor(803.6, SPRING_FACTORS[spring], 50e-6);
            let velocity = |sel: u8, f: f64| match sel {
                0 => 0.0,
                1 => V_ACCESS,
                2 => -V_ACCESS,
                _ => f * V_ACCESS,
            };
            let p_max = sled.p_max();
            assert_matches_reference(
                sled,
                a * p_max,
                velocity(sel0, f0),
                b * p_max,
                velocity(sel1, f1),
            );
        }
    }

    /// States at the over-travel and travel limits and around the center,
    /// at rest (either zero), at ±the access velocity and at twice it.
    fn edge_states(sled: &SpringSled) -> Vec<(f64, f64)> {
        let lim = sled.slack_lim();
        let positions = [-lim, -sled.p_max(), -1e-12, 0.0, 1e-12, sled.p_max(), lim];
        let velocities = [0.0, -0.0, V_ACCESS, -V_ACCESS, 2.0 * V_ACCESS];
        positions
            .into_iter()
            .flat_map(|p| velocities.map(|v| (p, v)))
            .collect()
    }

    #[test]
    fn edge_states_match_frozen_reference() {
        for factor in SPRING_FACTORS {
            let sled = SpringSled::from_spring_factor(803.6, factor, 50e-6);
            let states = edge_states(&sled);
            for &(p0, v0) in &states {
                for &(p1, v1) in &states {
                    assert_matches_reference(sled, p0, v0, p1, v1);
                }
            }
        }
    }

    /// Goals a relative 8·10⁻¹⁰ inside each circle through `(p0, 0)`,
    /// moving either way at each edge-state position inside it. Each
    /// passes the single-phase test, whose tolerance is 10⁻⁹. The other
    /// ordering's circles touch at `(p0, 0)` and, nudged apart, may miss.
    fn nudged_goals(sled: &SpringSled, p0: f64) -> Vec<(f64, f64)> {
        let mut goals = Vec::new();
        for c in sled.centers() {
            let r_sq = (p0 - c).powi(2) * (1.0 - 8e-10);
            for (p1, _) in edge_states(sled) {
                let w_sq = r_sq - (p1 - c).powi(2);
                if w_sq > 0.0 && !goals.iter().any(|&(p, _)| p == p1) {
                    let v = w_sq.sqrt() * sled.omega();
                    goals.extend([(p1, v), (p1, -v)]);
                }
            }
        }
        goals
    }

    /// The row solve equals the scalar core bit for bit from every edge
    /// state, over every slice of up to 9 goals, so each lane's leftover
    /// cells are covered. The goals are the edge states, holding the start
    /// itself (equal endpoints), its turnaround `(p, v) → (p, −v)`, which
    /// passes the single-phase test, and moving states where both
    /// orderings intersect; from a start at rest, the nudged goals follow.
    /// Some nudged goals pass the single-phase test while only one
    /// ordering intersects, so a lane that skipped the test would get
    /// them wrong.
    #[test]
    fn row_solve_matches_scalar_core() {
        for factor in SPRING_FACTORS {
            let sled = SpringSled::from_spring_factor(803.6, factor, 50e-6);
            let mut one_sided_single_phase = 0;
            for (p0, v0) in edge_states(&sled) {
                let from = &sled.endpoint(p0, v0);
                let mut states = edge_states(&sled);
                if v0 == 0.0 {
                    states.extend(nudged_goals(&sled, p0));
                }
                let states: Vec<Endpoint> = states
                    .into_iter()
                    .map(|(p, v)| sled.endpoint(p, v))
                    .collect();
                let deps = sled.departures(from);
                one_sided_single_phase += states
                    .iter()
                    .filter(|to| {
                        let [a, b] = deps.map(|dep| dep.switch_point(to));
                        (a.0 || b.0) && a.1.is_some() != b.1.is_some()
                    })
                    .count();
                for len in 0..=9 {
                    for first in 0..=states.len() - len {
                        let goals = &states[first..first + len];
                        let mut times = Vec::new();
                        let fallbacks = sled.solve_row(from, goals, |to, t| times.push((to, t)));
                        assert!(fallbacks <= len);
                        assert_eq!(times.len(), len);
                        for (k, ((to, t), goal)) in times.into_iter().zip(goals).enumerate() {
                            let want = sled.transfer_time(from, goal);
                            assert_eq!(to, k, "cells are stored in order");
                            assert_eq!(
                                t.to_bits(),
                                want.to_bits(),
                                "({}, {}) -> ({}, {}) at spring factor {factor}: \
                                 row solve {t} vs scalar core {want}",
                                from.p,
                                from.v,
                                goal.p,
                                goal.v
                            );
                        }
                    }
                }
            }
            assert!(
                one_sided_single_phase > 0,
                "no goal at spring factor {factor} passes the single-phase test \
                 while only one ordering intersects"
            );
        }
    }

    /// Signed zeros, subnormals, the multiples of π the solver's angles
    /// reach and their neighbours, the extremes, both infinities and NaN.
    fn edge_values() -> Vec<f64> {
        let pi = std::f64::consts::PI;
        let mut values = vec![
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE.next_down(),
            f64::MIN_POSITIVE,
            f64::EPSILON,
            ANGLE_EPS,
            1.0,
            pi.next_down(),
            pi,
            pi.next_up(),
            TWO_PI - ANGLE_EPS,
            TWO_PI.next_down(),
            TWO_PI,
            TWO_PI.next_up(),
            3.0 * pi,
            2.0 * TWO_PI,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ];
        values.extend(values.clone().into_iter().map(|x| -x));
        values.push(f64::NAN);
        values
    }

    /// Asserts that `wrap_angle(x)` has the bits of `x.rem_euclid(TWO_PI)`.
    fn assert_wraps_like_rem_euclid(x: f64) {
        assert_eq!(
            wrap_angle(x).to_bits(),
            x.rem_euclid(TWO_PI).to_bits(),
            "wrap_angle({x:e}) = {:e}, rem_euclid gives {:e}",
            wrap_angle(x),
            x.rem_euclid(TWO_PI)
        );
    }

    /// Asserts `atan2(−y, x) == −atan2(y, x)` bit for bit: the property
    /// `transfer_time` relies on when it negates one branch's switch-point
    /// angles instead of calling `atan2` again.
    fn assert_atan2_odd(y: f64, x: f64) {
        let (of_neg, of_pos) = (f64::atan2(-y, x), f64::atan2(y, x));
        assert_eq!(
            of_neg.to_bits(),
            (-of_pos).to_bits(),
            "libm assumption broken: atan2 must be odd in y (compute on |y|, copy \
             y's sign), or the seek solver's negated switch-point angles differ \
             from direct calls; atan2({:e}, {x:e}) = {of_neg:e} but \
             -atan2({y:e}, {x:e}) = {:e}",
            -y,
            -of_pos
        );
    }

    /// The subnormal (or signed zero) with the sign and mantissa of `bits`.
    fn subnormal(bits: u64) -> f64 {
        const SIGN: u64 = 1 << 63;
        const MANTISSA: u64 = (1 << 52) - 1;
        f64::from_bits(bits & (SIGN | MANTISSA))
    }

    #[test]
    fn wrap_angle_matches_rem_euclid_at_the_edges() {
        for x in edge_values() {
            assert_wraps_like_rem_euclid(x);
        }
    }

    #[test]
    fn atan2_is_odd_in_y_at_the_edges() {
        let finite: Vec<f64> = edge_values()
            .into_iter()
            .filter(|v| v.is_finite())
            .collect();
        for &y in &finite {
            for &x in &finite {
                assert_atan2_odd(y, x);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The branch reduction equals `rem_euclid` on arbitrary bit
        /// patterns (mostly far outside ±2π, with infinities and NaNs),
        /// on angles across the solver's range ±2π and past it, and on
        /// subnormals of either sign.
        #[test]
        fn wrap_angle_matches_rem_euclid(
            bits in any::<u64>(),
            angle in -4.0 * TWO_PI..4.0 * TWO_PI,
            sub in any::<u64>(),
        ) {
            for x in [f64::from_bits(bits), angle, angle / 4.0, subnormal(sub)] {
                assert_wraps_like_rem_euclid(x);
            }
        }

        /// `atan2` is odd in `y` over random finite pairs: arbitrary bit
        /// patterns, values of wide dynamic range like the solver's
        /// `(−h, px − c)`, and subnormals and signed zeros of either sign.
        #[test]
        fn atan2_is_odd_in_y(
            (y_bits, x_bits) in (any::<u64>(), any::<u64>()),
            (y, x) in (any::<f64>(), any::<f64>()),
            (y_sub, x_sub) in (any::<u64>(), any::<u64>()),
        ) {
            let zero = |b: u64| if b & 1 == 0 { 0.0 } else { -0.0 };
            for (y, x) in [
                (f64::from_bits(y_bits), f64::from_bits(x_bits)),
                (y, x),
                (subnormal(y_sub), subnormal(x_sub)),
                (subnormal(y_sub), x),
                (y, subnormal(x_sub)),
                (zero(y_sub), x),
                (zero(y_sub), zero(x_sub)),
                (y, zero(x_sub)),
            ] {
                if y.is_finite() && x.is_finite() {
                    assert_atan2_odd(y, x);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "travel range")]
    fn seek_outside_travel_range_panics() {
        let sled = paper_sled();
        let _ = sled.rest_seek_time(0.0, 80e-6);
    }

    #[test]
    #[should_panic(expected = "overpower")]
    fn overpowering_spring_rejected() {
        let _ = SpringSled::new(100.0, 5000.0, 50e-6);
    }
}
