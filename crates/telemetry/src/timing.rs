//! Monotonic-clock phase timers for the synthesis inner loop, and the
//! collapsed-stack paths their trace spans are recorded at.

use std::cell::Cell;
use std::time::Instant;

/// Collapsed-stack path of a run's root span, which covers the run's
/// whole wall time. Every [`Phase::path`] nests under it.
pub const RUN_PATH: &str = "run";

/// An instrumented phase of the synthesis loop. `FitnessEval` is the
/// outer span covering one full candidate evaluation; the remaining
/// phases are its nested components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// One full candidate evaluation (allocation through pricing).
    FitnessEval,
    /// Hardware core allocation derivation.
    CoreAllocation,
    /// List scheduling + communication mapping of all modes.
    ListScheduling,
    /// PV-DVS voltage scaling of all modes.
    VoltageScaling,
    /// Power reporting and penalty pricing.
    PowerPricing,
}

impl Phase {
    /// All phases, in [`Phase::index`] order.
    pub const ALL: [Self; 5] = [
        Self::FitnessEval,
        Self::CoreAllocation,
        Self::ListScheduling,
        Self::VoltageScaling,
        Self::PowerPricing,
    ];

    /// Number of phases.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index into accumulator arrays.
    pub fn index(self) -> usize {
        match self {
            Self::FitnessEval => 0,
            Self::CoreAllocation => 1,
            Self::ListScheduling => 2,
            Self::VoltageScaling => 3,
            Self::PowerPricing => 4,
        }
    }

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Self::FitnessEval => "fitness_eval",
            Self::CoreAllocation => "core_allocation",
            Self::ListScheduling => "list_scheduling",
            Self::VoltageScaling => "voltage_scaling",
            Self::PowerPricing => "power_pricing",
        }
    }

    /// Collapsed-stack path of this phase's trace span: the whole
    /// evaluation nests under [`RUN_PATH`], its parts under the
    /// evaluation. The one definition of the nesting: the synthesizer
    /// records spans at these paths and their consumers read them back.
    pub fn path(self) -> &'static str {
        match self {
            Self::FitnessEval => "run;fitness_eval",
            Self::CoreAllocation => "run;fitness_eval;core_allocation",
            Self::ListScheduling => "run;fitness_eval;list_scheduling",
            Self::VoltageScaling => "run;fitness_eval;voltage_scaling",
            Self::PowerPricing => "run;fitness_eval;power_pricing",
        }
    }

    /// The phase whose span is recorded at `path`, if any.
    pub fn at_path(path: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|phase| phase.path() == path)
    }
}

/// Accumulated monotonic-clock spans of one phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Which phase.
    pub phase: Phase,
    /// Total nanoseconds spent in this phase.
    pub nanos: u64,
    /// Number of spans measured.
    pub spans: u64,
}

/// Accumulates per-phase wall time with interior mutability, so shared
/// references (e.g. from a cost function taking `&self`) can measure.
///
/// When constructed disabled, [`PhaseAccumulator::measure`] runs the
/// closure without touching the clock — a single branch of overhead.
#[derive(Debug)]
pub struct PhaseAccumulator {
    enabled: bool,
    nanos: [Cell<u64>; Phase::COUNT],
    spans: [Cell<u64>; Phase::COUNT],
}

impl PhaseAccumulator {
    /// Creates an accumulator; `enabled` decides whether spans are timed.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            nanos: std::array::from_fn(|_| Cell::new(0)),
            spans: std::array::from_fn(|_| Cell::new(0)),
        }
    }

    /// An accumulator that measures nothing.
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// Whether spans are being timed.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns measurement on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Runs `f`, charging its wall time to `phase` when enabled.
    #[inline]
    pub fn measure<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let i = phase.index();
        self.nanos[i].set(self.nanos[i].get() + start.elapsed().as_nanos() as u64);
        self.spans[i].set(self.spans[i].get() + 1);
        out
    }

    /// Adds another accumulator's spans onto this one, e.g. folding a
    /// parallel worker's timings back into the run-wide accumulator
    /// after a batch. No-op when this accumulator is disabled.
    pub fn absorb(&self, other: &Self) {
        if !self.enabled {
            return;
        }
        for i in 0..Phase::COUNT {
            self.nanos[i].set(self.nanos[i].get() + other.nanos[i].get());
            self.spans[i].set(self.spans[i].get() + other.spans[i].get());
        }
    }

    /// Accumulated timings of every phase that measured at least one span.
    pub fn timings(&self) -> Vec<PhaseTiming> {
        Phase::ALL
            .iter()
            .filter(|p| self.spans[p.index()].get() > 0)
            .map(|&phase| PhaseTiming {
                phase,
                nanos: self.nanos[phase.index()].get(),
                spans: self.spans[phase.index()].get(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_are_dense_and_consistent() {
        for (i, phase) in Phase::ALL.iter().enumerate() {
            assert_eq!(phase.index(), i);
        }
    }

    #[test]
    fn phase_paths_nest_the_parts_under_the_evaluation() {
        let eval = Phase::FitnessEval.path();
        assert_eq!(eval, format!("{RUN_PATH};{}", Phase::FitnessEval.name()));
        for phase in &Phase::ALL[1..] {
            assert_eq!(phase.path(), format!("{eval};{}", phase.name()));
        }
        for phase in Phase::ALL {
            assert_eq!(Phase::at_path(phase.path()), Some(phase));
        }
        assert_eq!(Phase::at_path(RUN_PATH), None);
        assert_eq!(Phase::at_path("fitness_eval"), None);
    }

    #[test]
    fn disabled_accumulator_measures_nothing() {
        let acc = PhaseAccumulator::disabled();
        let v = acc.measure(Phase::ListScheduling, || 41 + 1);
        assert_eq!(v, 42);
        assert!(acc.timings().is_empty());
    }

    #[test]
    fn enabled_accumulator_counts_spans_and_time() {
        let acc = PhaseAccumulator::new(true);
        for _ in 0..3 {
            acc.measure(Phase::VoltageScaling, || std::hint::black_box(0u64));
        }
        acc.measure(Phase::FitnessEval, || ());
        let timings = acc.timings();
        assert_eq!(timings.len(), 2);
        let vs = timings.iter().find(|t| t.phase == Phase::VoltageScaling).unwrap();
        assert_eq!(vs.spans, 3);
        let fe = timings.iter().find(|t| t.phase == Phase::FitnessEval).unwrap();
        assert_eq!(fe.spans, 1);
    }

    #[test]
    fn absorb_folds_worker_timings_in() {
        let worker = PhaseAccumulator::new(true);
        worker.measure(Phase::ListScheduling, || std::hint::black_box(0u64));
        worker.measure(Phase::ListScheduling, || std::hint::black_box(0u64));

        let main = PhaseAccumulator::new(true);
        main.measure(Phase::ListScheduling, || std::hint::black_box(0u64));
        main.absorb(&worker);
        let ls = main.timings().into_iter().find(|t| t.phase == Phase::ListScheduling).unwrap();
        assert_eq!(ls.spans, 3);

        let off = PhaseAccumulator::disabled();
        off.absorb(&worker);
        assert!(off.timings().is_empty());
    }
}
