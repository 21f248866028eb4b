//! The voltage/delay/energy model used for dynamic voltage scaling.
//!
//! Execution characteristics in the technology library are given at the
//! nominal supply voltage `V_max`. Scaling the supply to `V` changes
//!
//! * circuit speed per the alpha-power delay model with `α = 2`:
//!   `f(V) ∝ (V − V_t)² / V`, so execution time stretches by
//!   [`VoltageModel::stretch`];
//! * energy per cycle quadratically: `E(V) = E_nom · (V / V_max)²` — the
//!   paper's dynamic-energy formula for `ε ∈ T_DVS`.
//!
//! # Examples
//!
//! ```
//! use momsynth_dvs::VoltageModel;
//! use momsynth_model::units::Volts;
//!
//! let model = VoltageModel::new(Volts::new(3.3), Volts::new(0.8));
//! // Full voltage: no stretch, full energy.
//! assert!((model.stretch(Volts::new(3.3)) - 1.0).abs() < 1e-12);
//! assert!((model.energy_factor(Volts::new(3.3)) - 1.0).abs() < 1e-12);
//! // Half voltage costs time but saves energy quadratically.
//! assert!(model.stretch(Volts::new(1.65)) > 1.0);
//! assert!((model.energy_factor(Volts::new(1.65)) - 0.25).abs() < 1e-12);
//! ```

use momsynth_model::arch::DvsCapability;
use momsynth_model::units::{Seconds, Volts};

/// The alpha-power (α = 2) delay and quadratic energy model of a DVS rail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageModel {
    v_max: Volts,
    v_t: Volts,
}

impl VoltageModel {
    /// Creates a model with nominal voltage `v_max` and threshold `v_t`.
    ///
    /// # Panics
    ///
    /// Panics if `v_max ≤ v_t` or either value is non-finite.
    pub fn new(v_max: Volts, v_t: Volts) -> Self {
        assert!(
            v_max.is_finite() && v_t.is_finite() && v_max.value() > v_t.value(),
            "voltage model requires finite v_max > v_t"
        );
        Self { v_max, v_t }
    }

    /// Builds the model from a PE's [`DvsCapability`].
    pub fn from_capability(cap: &DvsCapability) -> Self {
        Self::new(cap.v_max(), cap.v_threshold())
    }

    /// Returns the nominal voltage.
    pub fn v_max(&self) -> Volts {
        self.v_max
    }

    /// Returns the threshold voltage.
    pub fn v_threshold(&self) -> Volts {
        self.v_t
    }

    /// Normalised speed `f(V)/f(V_max)` in `(0, 1]` for `V ∈ (V_t, V_max]`.
    ///
    /// # Panics
    ///
    /// Panics if `v ≤ V_t`.
    pub fn speed_factor(&self, v: Volts) -> f64 {
        assert!(v.value() > self.v_t.value(), "supply voltage must exceed the threshold");
        let g = |x: Volts| {
            let d = x.value() - self.v_t.value();
            d * d / x.value()
        };
        g(v) / g(self.v_max)
    }

    /// Execution-time stretch factor `t(V)/t(V_max) = 1 / speed_factor`.
    ///
    /// # Panics
    ///
    /// Panics if `v ≤ V_t`.
    pub fn stretch(&self, v: Volts) -> f64 {
        1.0 / self.speed_factor(v)
    }

    /// Execution time of a task with nominal time `t_min` at voltage `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v ≤ V_t`.
    pub fn exec_time(&self, t_min: Seconds, v: Volts) -> Seconds {
        t_min * self.stretch(v)
    }

    /// Per-cycle energy factor `(V / V_max)²` in `(0, 1]`.
    pub fn energy_factor(&self, v: Volts) -> f64 {
        let r = v.value() / self.v_max.value();
        r * r
    }

    /// The continuous supply voltage whose stretch factor equals `k ≥ 1`.
    ///
    /// Inverts the delay model: solves `(V − V_t)²/V = C/k` with
    /// `C = (V_max − V_t)²/V_max`, taking the physical root above `V_t`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 1` (voltage above nominal would be needed).
    pub fn voltage_for_stretch(&self, k: f64) -> Volts {
        assert!(k >= 1.0 - 1e-12, "stretch factor must be at least 1");
        let k = k.max(1.0);
        let c = {
            let d = self.v_max.value() - self.v_t.value();
            d * d / self.v_max.value()
        };
        let a = c / k;
        let vt = self.v_t.value();
        let b = 2.0 * vt + a;
        let v = (b + (b * b - 4.0 * vt * vt).sqrt()) / 2.0;
        Volts::new(v.min(self.v_max.value()))
    }

    /// Energy factor of running an entire task stretched by `k ≥ 1` at the
    /// corresponding continuous voltage.
    ///
    /// # Panics
    ///
    /// Panics if `k < 1`.
    pub fn energy_factor_for_stretch(&self, k: f64) -> f64 {
        self.energy_factor(self.voltage_for_stretch(k))
    }

    /// The maximal useful stretch factor when the rail cannot go below
    /// `v_min` (the lowest discrete level).
    ///
    /// # Panics
    ///
    /// Panics if `v_min ≤ V_t`.
    pub fn max_stretch(&self, v_min: Volts) -> f64 {
        self.stretch(v_min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> VoltageModel {
        VoltageModel::new(Volts::new(3.3), Volts::new(0.8))
    }

    #[test]
    fn nominal_voltage_is_identity() {
        let m = model();
        assert!((m.speed_factor(Volts::new(3.3)) - 1.0).abs() < 1e-12);
        assert!((m.stretch(Volts::new(3.3)) - 1.0).abs() < 1e-12);
        assert!((m.energy_factor(Volts::new(3.3)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lower_voltage_is_slower_and_cheaper() {
        let m = model();
        let lo = Volts::new(1.5);
        assert!(m.stretch(lo) > 1.0);
        assert!(m.energy_factor(lo) < 1.0);
        // Monotonicity across a sweep.
        let mut last_stretch = 1.0;
        let mut last_energy = 1.0;
        for step in 0..20 {
            let v = Volts::new(3.3 - step as f64 * 0.1);
            let s = m.stretch(v);
            let e = m.energy_factor(v);
            assert!(s >= last_stretch - 1e-12);
            assert!(e <= last_energy + 1e-12);
            last_stretch = s;
            last_energy = e;
        }
    }

    #[test]
    fn voltage_for_stretch_inverts_stretch() {
        let m = model();
        for &k in &[1.0, 1.1, 1.5, 2.0, 4.0, 10.0] {
            let v = m.voltage_for_stretch(k);
            assert!(v.value() > m.v_threshold().value());
            assert!(v.value() <= m.v_max().value() + 1e-12);
            let k_back = m.stretch(v);
            assert!((k_back - k).abs() < 1e-9, "stretch {k} -> {v} -> {k_back}");
        }
    }

    #[test]
    fn exec_time_scales_with_stretch() {
        let m = model();
        let v = m.voltage_for_stretch(2.0);
        let t = m.exec_time(Seconds::from_millis(10.0), v);
        assert!((t.as_millis() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn energy_factor_for_stretch_is_decreasing_and_convex_shaped() {
        let m = model();
        let e1 = m.energy_factor_for_stretch(1.0);
        let e2 = m.energy_factor_for_stretch(1.5);
        let e3 = m.energy_factor_for_stretch(2.0);
        assert!((e1 - 1.0).abs() < 1e-12);
        assert!(e2 > e3);
        // Diminishing returns: the first 0.5 of stretch saves more than the
        // second.
        assert!((e1 - e2) > (e2 - e3));
    }

    #[test]
    fn max_stretch_matches_lowest_level() {
        let m = model();
        let k = m.max_stretch(Volts::new(1.2));
        assert!((m.stretch(Volts::new(1.2)) - k).abs() < 1e-12);
        assert!(k > 1.0);
    }

    #[test]
    fn from_capability_uses_cap_parameters() {
        let cap = DvsCapability::new(
            Volts::new(2.5),
            Volts::new(0.5),
            vec![Volts::new(1.0), Volts::new(2.5)],
        );
        let m = VoltageModel::from_capability(&cap);
        assert_eq!(m.v_max(), Volts::new(2.5));
        assert_eq!(m.v_threshold(), Volts::new(0.5));
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn speed_factor_rejects_subthreshold_voltage() {
        let _ = model().speed_factor(Volts::new(0.5));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn voltage_for_stretch_rejects_compression() {
        let _ = model().voltage_for_stretch(0.5);
    }

    #[test]
    #[should_panic(expected = "v_max > v_t")]
    fn constructor_rejects_inverted_voltages() {
        let _ = VoltageModel::new(Volts::new(0.5), Volts::new(0.8));
    }
}
