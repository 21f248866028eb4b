//! Per-task voltage schedules over discrete supply levels.
//!
//! A DVS-enabled PE offers a finite set of supply voltages. An ideal
//! (continuous) voltage meeting an extended execution time usually falls
//! between two levels; the classic result is that splitting the task's
//! cycles between the two *adjacent* levels bracketing the continuous
//! voltage meets the time target exactly with the least discrete-level
//! energy. [`VoltageSchedule::fit`] performs that split.

use serde::{Deserialize, Serialize};

use momsynth_model::arch::DvsCapability;
use momsynth_model::units::{Seconds, Volts};

use crate::voltage::VoltageModel;

/// One segment of a voltage schedule: a fraction of the task's cycles
/// executed at a fixed discrete level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VoltageSegment {
    /// The supply level of this segment.
    pub voltage: Volts,
    /// The fraction of the task's cycles run at this level, in `(0, 1]`.
    pub cycle_fraction: f64,
    /// Wall-clock duration of this segment.
    pub duration: Seconds,
}

/// A task's voltage schedule (`Vτ` of the paper): an ordered list of
/// discrete-level segments covering all of the task's cycles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VoltageSchedule {
    segments: Vec<VoltageSegment>,
}

impl VoltageSchedule {
    /// A schedule that runs everything at the nominal voltage.
    pub fn nominal(v_max: Volts, exec_time: Seconds) -> Self {
        Self {
            segments: vec![VoltageSegment {
                voltage: v_max,
                cycle_fraction: 1.0,
                duration: exec_time,
            }],
        }
    }

    /// Fits a discrete-level schedule for a task with nominal execution
    /// time `t_min` so that the total duration equals `target` as closely
    /// as the levels allow:
    ///
    /// * `target ≤ t_min` → everything at the highest level;
    /// * `target ≥ t(v_min)` → everything at the lowest level (the
    ///   remaining slack stays idle);
    /// * otherwise → a two-level split between the adjacent levels
    ///   bracketing the continuous voltage, meeting `target` exactly.
    ///
    /// # Panics
    ///
    /// Panics if the capability has no levels (rejected by the
    /// architecture builder) or if `t_min` is non-positive.
    pub fn fit(cap: &DvsCapability, model: &VoltageModel, t_min: Seconds, target: Seconds) -> Self {
        Fit::new(cap, model, t_min, target).schedule()
    }

    /// Returns the ordered segments.
    pub fn segments(&self) -> &[VoltageSegment] {
        &self.segments
    }

    /// Total wall-clock duration of the schedule.
    pub fn total_time(&self) -> Seconds {
        total_time(&self.segments)
    }

    /// Energy factor relative to nominal execution:
    /// `Σ cycle_fraction · (V / V_max)²`.
    pub fn energy_factor(&self, model: &VoltageModel) -> f64 {
        energy_factor(&self.segments, model)
    }

    /// The lowest voltage used by any segment.
    ///
    /// # Panics
    ///
    /// Panics if the schedule has no segments (cannot be constructed
    /// through the public API).
    pub fn min_voltage(&self) -> Volts {
        self.segments
            .iter()
            .map(|s| s.voltage)
            .min_by(|a, b| a.value().total_cmp(&b.value()))
            .expect("voltage schedule has at least one segment")
    }
}

/// The sum of the segments' durations, in order.
fn total_time<'s>(segments: impl IntoIterator<Item = &'s VoltageSegment>) -> Seconds {
    segments.into_iter().map(|s| s.duration).sum()
}

/// `Σ cycle_fraction · (V / V_max)²` over the segments, in order.
fn energy_factor<'s>(
    segments: impl IntoIterator<Item = &'s VoltageSegment>,
    model: &VoltageModel,
) -> f64 {
    segments.into_iter().map(|s| s.cycle_fraction * model.energy_factor(s.voltage)).sum()
}

/// A fit's segments, at most two, held without allocating: PV-DVS reads
/// a fit's time and energy factor here and builds the
/// [`VoltageSchedule`] only when asked for it. Both are summed over the
/// same segments in the same order as the schedule's, so they agree
/// with [`VoltageSchedule::total_time`] and
/// [`VoltageSchedule::energy_factor`] bit for bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fit([Option<VoltageSegment>; 2]);

impl Fit {
    /// The one fitting rule, described at [`VoltageSchedule::fit`].
    pub(crate) fn new(
        cap: &DvsCapability,
        model: &VoltageModel,
        t_min: Seconds,
        target: Seconds,
    ) -> Self {
        Self(fit_segments(cap, model, t_min, target))
    }

    pub(crate) fn total_time(&self) -> Seconds {
        total_time(self.0.iter().flatten())
    }

    pub(crate) fn energy_factor(&self, model: &VoltageModel) -> f64 {
        energy_factor(self.0.iter().flatten(), model)
    }

    pub(crate) fn schedule(&self) -> VoltageSchedule {
        VoltageSchedule { segments: self.0.iter().flatten().copied().collect() }
    }
}

/// [`Fit::new`]'s segments in order.
fn fit_segments(
    cap: &DvsCapability,
    model: &VoltageModel,
    t_min: Seconds,
    target: Seconds,
) -> [Option<VoltageSegment>; 2] {
    assert!(t_min.value() > 0.0, "nominal execution time must be positive");
    let levels = cap.levels();
    // Execution time at level `i`, computed where it is needed.
    let time = |i: usize| t_min * model.stretch(levels[i]);
    let whole =
        |i: usize, duration| VoltageSegment { voltage: levels[i], cycle_fraction: 1.0, duration };
    let highest = levels.len() - 1;

    let t_highest = time(highest);
    if target.value() <= t_highest.value() + 1e-15 {
        return [Some(whole(highest, t_highest)), None];
    }
    let t_lowest = time(0);
    if target.value() >= t_lowest.value() - 1e-15 {
        return [Some(whole(0, t_lowest)), None];
    }
    // Find the adjacent level pair (lo, hi = lo + 1) bracketing the
    // target: levels ascend in voltage so times descend; walk down
    // until time(lo - 1) >= target > time(lo), then the pair is
    // (lo - 1, lo). The early returns above guarantee lo never hits 0.
    let mut lo = highest;
    while lo > 0 && time(lo - 1).value() < target.value() {
        lo -= 1;
    }
    let lo = lo - 1; // index of the lower level of the pair
    let hi = lo + 1;
    let (t_lo, t_hi) = (time(lo), time(hi));
    debug_assert!(t_hi.value() <= target.value() + 1e-12);
    debug_assert!(t_lo.value() >= target.value() - 1e-12);
    // x = fraction of cycles at the higher voltage.
    let x = ((t_lo - target) / (t_lo - t_hi)).clamp(0.0, 1.0);
    [
        (x > 1e-12).then(|| VoltageSegment {
            voltage: levels[hi],
            cycle_fraction: x,
            duration: t_hi * x,
        }),
        (1.0 - x > 1e-12).then(|| VoltageSegment {
            voltage: levels[lo],
            cycle_fraction: 1.0 - x,
            duration: t_lo * (1.0 - x),
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap() -> DvsCapability {
        DvsCapability::new(
            Volts::new(3.3),
            Volts::new(0.8),
            vec![Volts::new(1.2), Volts::new(2.1), Volts::new(3.3)],
        )
    }

    fn model() -> VoltageModel {
        VoltageModel::from_capability(&cap())
    }

    #[test]
    fn nominal_schedule_is_single_full_segment() {
        let s = VoltageSchedule::nominal(Volts::new(3.3), Seconds::from_millis(10.0));
        assert_eq!(s.segments().len(), 1);
        assert!((s.energy_factor(&model()) - 1.0).abs() < 1e-12);
        assert_eq!(s.total_time(), Seconds::from_millis(10.0));
        assert_eq!(s.min_voltage(), Volts::new(3.3));
    }

    #[test]
    fn no_slack_stays_at_nominal() {
        let t_min = Seconds::from_millis(10.0);
        let s = VoltageSchedule::fit(&cap(), &model(), t_min, t_min);
        assert_eq!(s.segments().len(), 1);
        assert_eq!(s.segments()[0].voltage, Volts::new(3.3));
        assert!((s.total_time() / t_min - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_level_split_meets_target_exactly() {
        let c = cap();
        let m = model();
        let t_min = Seconds::from_millis(10.0);
        // Target between t(3.3V)=10ms and t(2.1V).
        let t_21 = t_min * m.stretch(Volts::new(2.1));
        let target = (t_min + t_21) / 2.0;
        let s = VoltageSchedule::fit(&c, &m, t_min, target);
        assert_eq!(s.segments().len(), 2);
        assert!((s.total_time() / target - 1.0).abs() < 1e-9);
        // Fractions cover all cycles.
        let frac: f64 = s.segments().iter().map(|x| x.cycle_fraction).sum();
        assert!((frac - 1.0).abs() < 1e-9);
        // Energy strictly below nominal, above the all-2.1V floor for this pair.
        let e = s.energy_factor(&m);
        assert!(e < 1.0);
        assert!(e > m.energy_factor(Volts::new(2.1)));
        // Voltages used are exactly the bracketing pair.
        let vs: Vec<f64> = s.segments().iter().map(|x| x.voltage.value()).collect();
        assert!(vs.contains(&3.3) && vs.contains(&2.1));
    }

    #[test]
    fn beyond_lowest_level_saturates() {
        let c = cap();
        let m = model();
        let t_min = Seconds::from_millis(10.0);
        let huge = Seconds::new(10.0);
        let s = VoltageSchedule::fit(&c, &m, t_min, huge);
        assert_eq!(s.segments().len(), 1);
        assert_eq!(s.segments()[0].voltage, Volts::new(1.2));
        // Duration is t(v_min), not the unreachable target.
        assert!((s.total_time() / (t_min * m.stretch(Volts::new(1.2))) - 1.0).abs() < 1e-9);
        assert!((s.energy_factor(&m) - m.energy_factor(Volts::new(1.2))).abs() < 1e-12);
    }

    #[test]
    fn split_lands_in_correct_bracket_for_low_targets() {
        let c = cap();
        let m = model();
        let t_min = Seconds::from_millis(10.0);
        let t_21 = t_min * m.stretch(Volts::new(2.1));
        let t_12 = t_min * m.stretch(Volts::new(1.2));
        let target = (t_21 + t_12) / 2.0;
        let s = VoltageSchedule::fit(&c, &m, t_min, target);
        assert!((s.total_time() / target - 1.0).abs() < 1e-9);
        let vs: Vec<f64> = s.segments().iter().map(|x| x.voltage.value()).collect();
        assert!(vs.contains(&2.1) && vs.contains(&1.2));
        assert_eq!(s.min_voltage(), Volts::new(1.2));
    }

    #[test]
    fn discrete_energy_dominates_continuous() {
        // The two-level split can never beat the continuous voltage.
        let c = cap();
        let m = model();
        let t_min = Seconds::from_millis(10.0);
        for k in [1.1, 1.3, 1.7, 2.0, 2.5] {
            let target = t_min * k;
            let s = VoltageSchedule::fit(&c, &m, t_min, target);
            let achieved_k = s.total_time() / t_min;
            let continuous = m.energy_factor_for_stretch(achieved_k);
            assert!(
                s.energy_factor(&m) >= continuous - 1e-9,
                "k={k}: discrete {} < continuous {continuous}",
                s.energy_factor(&m)
            );
        }
    }

    #[test]
    fn exact_level_target_uses_single_level() {
        let c = cap();
        let m = model();
        let t_min = Seconds::from_millis(10.0);
        let t_21 = t_min * m.stretch(Volts::new(2.1));
        let s = VoltageSchedule::fit(&c, &m, t_min, t_21);
        assert!((s.total_time() / t_21 - 1.0).abs() < 1e-9);
        // Either a single 2.1V segment or a degenerate split; energy must
        // equal the 2.1V factor.
        assert!((s.energy_factor(&m) - m.energy_factor(Volts::new(2.1))).abs() < 1e-9);
    }

    #[test]
    fn serde_round_trip() {
        let s = VoltageSchedule::fit(
            &cap(),
            &model(),
            Seconds::from_millis(10.0),
            Seconds::from_millis(14.0),
        );
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(serde_json::from_str::<VoltageSchedule>(&json).unwrap(), s);
    }
}
