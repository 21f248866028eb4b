//! Deriving mode execution probabilities from usage statistics.
//!
//! The paper assumes the execution probabilities `Ψ_O` are *given*,
//! obtained from "statistical information collected from several different
//! users". This module implements that derivation: a [`UsageModel`] is a
//! semi-Markov usage profile — for every mode a mean sojourn time and for
//! every transition a relative firing weight — from which
//! [`UsageModel::mode_probabilities`] computes the long-run fraction of
//! time spent in each mode (the stationary distribution of the embedded
//! Markov chain, weighted by sojourn times).
//!
//! Combined with [`Omsm::with_probabilities`](crate::Omsm::with_probabilities)
//! this supports per-user-profile sensitivity studies: synthesise the same
//! system for a "talker", a "music lover" and a "photographer" and compare
//! the resulting implementations.
//!
//! # Examples
//!
//! ```
//! use momsynth_model::usage::UsageModel;
//! use momsynth_model::units::Seconds;
//!
//! // Two modes: long sojourns in mode 0, brief visits to mode 1.
//! let mut usage = UsageModel::new(2);
//! usage.set_sojourn(0, Seconds::new(90.0));
//! usage.set_sojourn(1, Seconds::new(10.0));
//! usage.set_transition_weight(0, 1, 1.0);
//! usage.set_transition_weight(1, 0, 1.0);
//! let psi = usage.mode_probabilities().unwrap();
//! assert!((psi[0] - 0.9).abs() < 1e-9);
//! assert!((psi[1] - 0.1).abs() < 1e-9);
//! ```

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::units::Seconds;

/// Error produced when a usage model cannot yield a probability vector.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum UsageError {
    /// A mode has no outgoing transition weight, so the chain is absorbing.
    NoExit {
        /// Index of the absorbing mode.
        mode: usize,
    },
    /// The power iteration did not converge (reducible or periodic chain).
    NotErgodic,
    /// A sojourn time or weight is invalid (non-finite or negative).
    InvalidParameter {
        /// Human-readable description of the defect.
        detail: String,
    },
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoExit { mode } => write!(f, "mode {mode} has no outgoing transitions"),
            Self::NotErgodic => write!(f, "usage chain is not ergodic"),
            Self::InvalidParameter { detail } => write!(f, "invalid usage parameter: {detail}"),
        }
    }
}

impl std::error::Error for UsageError {}

/// A semi-Markov usage profile over the modes of an OMSM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UsageModel {
    sojourn: Vec<Seconds>,
    /// `weights[from][to]`: relative frequency of taking that transition
    /// when leaving `from`; rows are normalised internally.
    weights: Vec<Vec<f64>>,
}

impl UsageModel {
    /// Creates a profile for `mode_count` modes with unit sojourn times
    /// and no transitions.
    pub fn new(mode_count: usize) -> Self {
        Self {
            sojourn: vec![Seconds::new(1.0); mode_count],
            weights: vec![vec![0.0; mode_count]; mode_count],
        }
    }

    /// Number of modes covered.
    pub fn mode_count(&self) -> usize {
        self.sojourn.len()
    }

    /// Sets the mean time spent in `mode` per visit.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is out of range.
    pub fn set_sojourn(&mut self, mode: usize, time: Seconds) {
        self.sojourn[mode] = time;
    }

    /// Sets the relative weight of the transition `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn set_transition_weight(&mut self, from: usize, to: usize, weight: f64) {
        self.weights[from][to] = weight;
    }

    /// Computes the long-run fraction of operational time per mode.
    ///
    /// The stationary distribution `π` of the embedded jump chain is found
    /// by power iteration; the time fractions are
    /// `Ψ_i = π_i · s_i / Σ_j π_j · s_j` with `s` the sojourn times.
    ///
    /// # Errors
    ///
    /// Returns [`UsageError::NoExit`] for absorbing modes,
    /// [`UsageError::InvalidParameter`] for negative or non-finite inputs
    /// and [`UsageError::NotErgodic`] when the iteration fails to
    /// converge.
    pub fn mode_probabilities(&self) -> Result<Vec<f64>, UsageError> {
        let n = self.mode_count();
        if n == 0 {
            return Err(UsageError::InvalidParameter { detail: "no modes".into() });
        }
        if n == 1 {
            return Ok(vec![1.0]);
        }
        for (i, &s) in self.sojourn.iter().enumerate() {
            if !(s.value() > 0.0 && s.is_finite()) {
                return Err(UsageError::InvalidParameter {
                    detail: format!("sojourn time of mode {i} must be positive"),
                });
            }
        }
        // Row-normalised transition matrix of the embedded chain.
        let mut p = vec![vec![0.0; n]; n];
        for (i, row) in self.weights.iter().enumerate() {
            let mut total = 0.0;
            for (j, &w) in row.iter().enumerate() {
                if !(w >= 0.0 && w.is_finite()) {
                    return Err(UsageError::InvalidParameter {
                        detail: format!("weight {i}->{j} must be non-negative"),
                    });
                }
                if i != j {
                    total += w;
                }
            }
            if total <= 0.0 {
                return Err(UsageError::NoExit { mode: i });
            }
            for j in 0..n {
                if i != j {
                    p[i][j] = row[j] / total;
                }
            }
        }
        // Damped power iteration (the damping removes periodicity).
        let damping = 0.5;
        let mut pi = vec![1.0 / n as f64; n];
        for _ in 0..10_000 {
            let mut next = vec![0.0; n];
            for i in 0..n {
                for j in 0..n {
                    next[j] += pi[i] * p[i][j];
                }
            }
            let mut delta = 0.0;
            for j in 0..n {
                next[j] = damping * next[j] + (1.0 - damping) * pi[j];
                delta += (next[j] - pi[j]).abs();
            }
            pi = next;
            if delta < 1e-14 {
                let total_time: f64 =
                    pi.iter().zip(&self.sojourn).map(|(&w, &s)| w * s.value()).sum();
                return Ok(pi
                    .iter()
                    .zip(&self.sojourn)
                    .map(|(&w, &s)| w * s.value() / total_time)
                    .collect());
            }
        }
        Err(UsageError::NotErgodic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_mode_cycle_weights_by_sojourn() {
        let mut u = UsageModel::new(2);
        u.set_sojourn(0, Seconds::new(74.0));
        u.set_sojourn(1, Seconds::new(26.0));
        u.set_transition_weight(0, 1, 3.0);
        u.set_transition_weight(1, 0, 5.0); // normalised away: single exits
        let psi = u.mode_probabilities().unwrap();
        assert!((psi[0] - 0.74).abs() < 1e-9);
        assert!((psi[1] - 0.26).abs() < 1e-9);
    }

    #[test]
    fn branching_chain_matches_analytic_solution() {
        // 0 -> 1 (2/3), 0 -> 2 (1/3); 1 -> 0; 2 -> 0. Equal sojourns.
        // Embedded chain stationary: pi0 = 1/2, pi1 = 1/3, pi2 = 1/6.
        let mut u = UsageModel::new(3);
        u.set_transition_weight(0, 1, 2.0);
        u.set_transition_weight(0, 2, 1.0);
        u.set_transition_weight(1, 0, 1.0);
        u.set_transition_weight(2, 0, 1.0);
        let psi = u.mode_probabilities().unwrap();
        assert!((psi[0] - 0.5).abs() < 1e-9, "{psi:?}");
        assert!((psi[1] - 1.0 / 3.0).abs() < 1e-9);
        assert!((psi[2] - 1.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn probabilities_sum_to_one_and_are_non_negative() {
        let mut u = UsageModel::new(4);
        for i in 0..4 {
            u.set_sojourn(i, Seconds::new(1.0 + i as f64));
            for j in 0..4 {
                if i != j {
                    u.set_transition_weight(i, j, ((i * 7 + j * 3) % 5 + 1) as f64);
                }
            }
        }
        let psi = u.mode_probabilities().unwrap();
        assert!((psi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(psi.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn absorbing_mode_is_rejected() {
        let mut u = UsageModel::new(2);
        u.set_transition_weight(0, 1, 1.0);
        assert_eq!(u.mode_probabilities().unwrap_err(), UsageError::NoExit { mode: 1 });
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let mut u = UsageModel::new(2);
        u.set_transition_weight(0, 1, 1.0);
        u.set_transition_weight(1, 0, 1.0);
        u.set_sojourn(0, Seconds::ZERO);
        assert!(matches!(u.mode_probabilities(), Err(UsageError::InvalidParameter { .. })));
        let mut u = UsageModel::new(2);
        u.set_transition_weight(0, 1, -1.0);
        u.set_transition_weight(1, 0, 1.0);
        assert!(matches!(u.mode_probabilities(), Err(UsageError::InvalidParameter { .. })));
    }

    #[test]
    fn single_mode_is_certain() {
        let u = UsageModel::new(1);
        assert_eq!(u.mode_probabilities().unwrap(), vec![1.0]);
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut u = UsageModel::new(2);
        u.set_transition_weight(0, 0, 100.0);
        u.set_transition_weight(0, 1, 1.0);
        u.set_transition_weight(1, 0, 1.0);
        let psi = u.mode_probabilities().unwrap();
        assert!((psi[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn serde_round_trip() {
        let mut u = UsageModel::new(2);
        u.set_sojourn(0, Seconds::new(2.0));
        u.set_transition_weight(0, 1, 1.0);
        u.set_transition_weight(1, 0, 1.0);
        let json = serde_json::to_string(&u).unwrap();
        assert_eq!(serde_json::from_str::<UsageModel>(&json).unwrap(), u);
    }
}
