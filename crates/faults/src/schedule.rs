//! The fault schedule: a seeded, virtual-time-indexed set of fault events.

/// Virtual time in integer nanoseconds (mirrors `fmoe_memsim::Nanos`).
pub type Nanos = u64;

/// One bandwidth-degradation (or stall) window on a link.
#[derive(Debug, Clone, PartialEq)]
struct LinkWindow {
    /// Affected GPU index, or `None` for every GPU.
    gpu: Option<u32>,
    /// Window start (inclusive), virtual ns.
    start: Nanos,
    /// Window end (exclusive), virtual ns.
    end: Nanos,
    /// Multiplier on nominal link bandwidth in `[0, 1]`; `0.0` is a stall.
    factor: f64,
}

/// One memory-pressure window shrinking the effective cache budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PressureWindow {
    /// Window start (inclusive), virtual ns.
    pub start: Nanos,
    /// Window end (exclusive), virtual ns.
    pub end: Nanos,
    /// Multiplier on the configured cache budget in `(0, 1]`.
    pub budget_factor: f64,
}

/// The link condition at a queried instant, plus how long it holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSegment {
    /// Effective bandwidth multiplier in `[0, 1]` (`0.0` = stalled).
    pub factor: f64,
    /// First instant after the query at which the factor may change;
    /// `u64::MAX` when no further windows affect this link.
    pub until: Nanos,
}

impl LinkSegment {
    /// The fault-free segment: full bandwidth forever.
    pub const NOMINAL: LinkSegment = LinkSegment {
        factor: 1.0,
        until: Nanos::MAX,
    };
}

/// A deterministic, seeded schedule of fault events.
///
/// Construct with [`FaultSchedule::none`] (identity), the
/// [`FaultSchedule::builder`] for explicit windows, or
/// [`FaultSchedule::synthetic`] for a randomized schedule parameterized
/// by an intensity knob (used by the chaos benchmarks).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    seed: u64,
    link_windows: Vec<LinkWindow>,
    pressure_windows: Vec<PressureWindow>,
    failure_rate: f64,
}

impl Default for FaultSchedule {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultSchedule {
    /// The identity schedule: no faults, ever. It is the consumers'
    /// default, so a fault-free run is a run under this schedule,
    /// through the same code path as any faulty one.
    #[must_use]
    pub fn none() -> Self {
        Self {
            seed: 0,
            link_windows: Vec::new(),
            pressure_windows: Vec::new(),
            failure_rate: 0.0,
        }
    }

    /// Starts building an explicit schedule.
    #[must_use]
    pub fn builder(seed: u64) -> FaultScheduleBuilder {
        FaultScheduleBuilder {
            schedule: FaultSchedule {
                seed,
                ..Self::none()
            },
        }
    }

    /// A randomized schedule over `[0, horizon)` whose severity scales
    /// with `intensity` in `[0, 1]`. Zero intensity yields the identity
    /// schedule; `1.0` yields heavy degradation, frequent transient
    /// failures, short full stalls, and deep memory-pressure spikes.
    #[must_use]
    pub fn synthetic(seed: u64, intensity: f64, horizon: Nanos, num_gpus: u32) -> Self {
        let intensity = intensity.clamp(0.0, 1.0);
        if intensity == 0.0 || horizon == 0 || num_gpus == 0 {
            return Self::none();
        }
        let mut rng = SplitMix64::new(seed ^ 0x5EED_FA17);
        let mut builder = Self::builder(seed);

        // Degradation windows: up to 3 per GPU, each covering a few
        // percent of the horizon, deeper at higher intensity.
        for gpu in 0..num_gpus {
            let windows = 1 + (rng.next_below(3) as f64 * intensity) as u64;
            for _ in 0..windows {
                let len = (horizon / 20).max(1) + rng.next_below((horizon / 10).max(1));
                let start = rng.next_below(horizon);
                let factor = 1.0 - intensity * (0.4 + 0.5 * rng.unit_f64());
                builder = builder.degrade_link(Some(gpu), start, start.saturating_add(len), factor);
            }
        }

        // Stalls: rarer, short, only at meaningful intensity.
        if intensity > 0.3 {
            let stalls = 1 + rng.next_below(num_gpus as u64);
            for _ in 0..stalls {
                let gpu = rng.next_below(num_gpus as u64) as u32;
                let len = (horizon / 200).max(1) + rng.next_below((horizon / 100).max(1));
                let start = rng.next_below(horizon);
                builder = builder.stall_link(Some(gpu), start, start.saturating_add(len));
            }
        }

        // Memory pressure: one or two spikes shrinking the budget.
        let spikes = 1 + rng.next_below(2);
        for _ in 0..spikes {
            let len = (horizon / 8).max(1) + rng.next_below((horizon / 8).max(1));
            let start = rng.next_below(horizon);
            let budget_factor = 1.0 - intensity * (0.2 + 0.3 * rng.unit_f64());
            builder = builder.memory_pressure(start, start.saturating_add(len), budget_factor);
        }

        builder.transient_failure_rate(0.15 * intensity).build()
    }

    /// `true` when this schedule can never inject a fault.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.link_windows.is_empty() && self.pressure_windows.is_empty() && self.failure_rate == 0.0
    }

    /// The link condition for `gpu` at instant `at`: the product of all
    /// active windows' factors, and the next instant the answer changes.
    #[must_use]
    pub fn link_segment(&self, gpu: u32, at: Nanos) -> LinkSegment {
        let mut factor = 1.0;
        let mut until = Nanos::MAX;
        for w in &self.link_windows {
            if w.gpu.is_some() && w.gpu != Some(gpu) {
                continue;
            }
            if w.start <= at && at < w.end {
                factor *= w.factor;
                until = until.min(w.end);
            } else if w.start > at {
                until = until.min(w.start);
            }
        }
        LinkSegment { factor, until }
    }

    /// Whether attempt number `attempt` of the transfer identified by
    /// `(gpu, tag)` suffers a transient failure. Pure function of the
    /// schedule seed, so replays agree.
    #[must_use]
    pub fn fails_transfer(&self, gpu: u32, tag: u64, attempt: u32) -> bool {
        if self.failure_rate <= 0.0 {
            return false;
        }
        let mut h = SplitMix64::new(
            self.seed
                ^ 0xFA11_u64.rotate_left(32)
                ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (u64::from(gpu) << 48)
                ^ u64::from(attempt),
        );
        h.unit_f64() < self.failure_rate
    }

    /// The configured per-attempt transient failure probability.
    #[must_use]
    pub fn failure_rate(&self) -> f64 {
        self.failure_rate
    }

    /// The effective cache-budget multiplier at `at`: the most severe
    /// (smallest) factor among active pressure windows, `1.0` otherwise.
    #[must_use]
    pub fn budget_factor(&self, at: Nanos) -> f64 {
        self.pressure_windows
            .iter()
            .filter(|w| w.start <= at && at < w.end)
            .map(|w| w.budget_factor)
            .fold(1.0, f64::min)
    }

    /// All memory-pressure windows, for reporting.
    #[must_use]
    pub fn pressure_windows(&self) -> &[PressureWindow] {
        &self.pressure_windows
    }
}

/// Builder for explicit [`FaultSchedule`]s.
#[derive(Debug, Clone)]
pub struct FaultScheduleBuilder {
    schedule: FaultSchedule,
}

impl FaultScheduleBuilder {
    /// Adds a bandwidth-degradation window: during `[start, end)` the
    /// link of `gpu` (all GPUs when `None`) runs at `factor` × nominal
    /// bandwidth. `factor` is clamped to `[0, 1]`. A zero-length window
    /// (`start >= end`) covers no instant and is dropped as a no-op.
    #[must_use]
    pub fn degrade_link(mut self, gpu: Option<u32>, start: Nanos, end: Nanos, factor: f64) -> Self {
        if start >= end {
            return self;
        }
        self.schedule.link_windows.push(LinkWindow {
            gpu,
            start,
            end,
            factor: factor.clamp(0.0, 1.0),
        });
        self
    }

    /// Adds a full link stall (degradation with factor `0.0`).
    #[must_use]
    pub fn stall_link(self, gpu: Option<u32>, start: Nanos, end: Nanos) -> Self {
        self.degrade_link(gpu, start, end, 0.0)
    }

    /// Adds a memory-pressure window shrinking the effective cache
    /// budget to `budget_factor` × configured. The factor is clamped to
    /// `(0, 1]` — a zero budget would wedge the serving engine. A
    /// zero-length window (`start >= end`) covers no instant and is
    /// dropped as a no-op.
    #[must_use]
    pub fn memory_pressure(mut self, start: Nanos, end: Nanos, budget_factor: f64) -> Self {
        if start >= end {
            return self;
        }
        self.schedule.pressure_windows.push(PressureWindow {
            start,
            end,
            budget_factor: budget_factor.clamp(0.05, 1.0),
        });
        self
    }

    /// Sets the per-attempt transient transfer failure probability.
    #[must_use]
    pub fn transient_failure_rate(mut self, rate: f64) -> Self {
        self.schedule.failure_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Finalizes the schedule.
    #[must_use]
    pub fn build(self) -> FaultSchedule {
        self.schedule
    }
}

/// SplitMix64: tiny deterministic generator for schedule synthesis and
/// failure decisions. Shared with the replica-scope schedule so both
/// synthesize from the same primitive.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }

    pub(crate) fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert_identity() {
        let s = FaultSchedule::none();
        assert!(s.is_inert());
        assert_eq!(s.link_segment(3, 12345), LinkSegment::NOMINAL);
        assert!(!s.fails_transfer(0, 42, 0));
        assert_eq!(s.budget_factor(999), 1.0);
    }

    #[test]
    fn degradation_window_bounds_are_half_open() {
        let s = FaultSchedule::builder(1)
            .degrade_link(Some(0), 100, 200, 0.5)
            .build();
        assert_eq!(s.link_segment(0, 99).factor, 1.0);
        assert_eq!(s.link_segment(0, 99).until, 100);
        assert_eq!(s.link_segment(0, 100).factor, 0.5);
        assert_eq!(s.link_segment(0, 199).until, 200);
        assert_eq!(s.link_segment(0, 200).factor, 1.0);
        // Other GPUs are untouched.
        assert_eq!(s.link_segment(1, 150), LinkSegment::NOMINAL);
    }

    #[test]
    fn overlapping_windows_compound() {
        let s = FaultSchedule::builder(1)
            .degrade_link(None, 0, 100, 0.5)
            .degrade_link(Some(2), 50, 80, 0.5)
            .build();
        assert_eq!(s.link_segment(2, 60).factor, 0.25);
        assert_eq!(s.link_segment(2, 60).until, 80);
        assert_eq!(s.link_segment(1, 60).factor, 0.5);
    }

    #[test]
    fn stall_is_zero_factor() {
        let s = FaultSchedule::builder(1)
            .stall_link(Some(0), 10, 20)
            .build();
        assert_eq!(s.link_segment(0, 15).factor, 0.0);
        assert_eq!(s.link_segment(0, 15).until, 20);
    }

    #[test]
    fn transient_failures_are_deterministic_and_rate_bounded() {
        let s = FaultSchedule::builder(7)
            .transient_failure_rate(0.3)
            .build();
        let t = FaultSchedule::builder(7)
            .transient_failure_rate(0.3)
            .build();
        let mut failures = 0u32;
        for tag in 0..2000u64 {
            let a = s.fails_transfer(1, tag, 0);
            assert_eq!(a, t.fails_transfer(1, tag, 0));
            failures += u32::from(a);
        }
        let rate = f64::from(failures) / 2000.0;
        assert!((0.2..0.4).contains(&rate), "empirical rate {rate}");
        // Different attempts of the same job get fresh coin flips.
        assert!((0..100).any(|att| !s.fails_transfer(1, 0, att)));
    }

    #[test]
    fn pressure_takes_most_severe_active_window() {
        let s = FaultSchedule::builder(1)
            .memory_pressure(0, 100, 0.8)
            .memory_pressure(50, 60, 0.5)
            .build();
        assert_eq!(s.budget_factor(10), 0.8);
        assert_eq!(s.budget_factor(55), 0.5);
        assert_eq!(s.budget_factor(100), 1.0);
        assert_eq!(s.pressure_windows().len(), 2);
    }

    #[test]
    fn zero_length_windows_are_dropped_as_no_ops() {
        // [t, t) covers no instant under half-open semantics, so the
        // builder drops such windows instead of panicking; a schedule
        // built only from them is the inert identity.
        let s = FaultSchedule::builder(1)
            .degrade_link(Some(0), 500, 500, 0.25)
            .stall_link(None, 70, 70)
            .memory_pressure(900, 900, 0.5)
            .build();
        assert!(s.is_inert());
        assert_eq!(s.link_segment(0, 500), LinkSegment::NOMINAL);
        assert_eq!(s.budget_factor(900), 1.0);
        assert!(s.pressure_windows().is_empty());
        // Inverted bounds behave the same as empty ones.
        let inverted = FaultSchedule::builder(1)
            .degrade_link(Some(0), 200, 100, 0.25)
            .build();
        assert!(inverted.is_inert());
    }

    #[test]
    fn zero_length_window_mixed_with_real_ones_leaves_them_intact() {
        let s = FaultSchedule::builder(1)
            .degrade_link(Some(0), 300, 300, 0.5)
            .degrade_link(Some(0), 100, 200, 0.5)
            .build();
        assert!(!s.is_inert());
        assert_eq!(s.link_segment(0, 150).factor, 0.5);
        assert_eq!(s.link_segment(0, 300), LinkSegment::NOMINAL);
    }

    #[test]
    fn synthetic_zero_intensity_is_identity() {
        assert!(FaultSchedule::synthetic(9, 0.0, 1_000_000, 6).is_inert());
    }

    #[test]
    fn synthetic_is_reproducible_and_scales() {
        let a = FaultSchedule::synthetic(9, 0.7, 1_000_000_000, 4);
        let b = FaultSchedule::synthetic(9, 0.7, 1_000_000_000, 4);
        assert_eq!(a, b);
        assert!(!a.is_inert());
        assert!(a.failure_rate() > 0.0);
        let mild = FaultSchedule::synthetic(9, 0.1, 1_000_000_000, 4);
        assert!(mild.failure_rate() < a.failure_rate());
    }
}
