//! Host speed, from a fixed CPU kernel timed between units of work.
//!
//! The benchmark is meant to run on small shared virtual machines whose
//! speed drifts with their neighbours' load. On the 2-vCPU machine of
//! `baseline.json`, with nothing else running in it, the same
//! 15-generation smartphone synth took 0.50 s in one minute and 0.72 s in
//! the next, and a fixed CPU kernel slowed by the same factor at the same
//! moments. The untraced pass therefore times this kernel, the probe,
//! before the first unit of work and after every unit, and scales the
//! times measured between two probes by the reference probe time over the
//! mean of the two. Scaled times read as if measured on the reference
//! machine at its typical speed, and a slow spell of the host largely
//! cancels out instead of moving a run's medians. Over ten runs of each
//! workload on that machine, at a time when its speed varied by up to
//! 1.6×, scaling cut the spread of the median request time from 41% to
//! 4.1% (`phone-dvs`), 16% to 3.2% (`suite-fixed`), 13% to 8.7%
//! (`many-modes`, whose 2 s units the probes follow less closely) and 9.8%
//! to 3.4% (`serve-small`).
//!
//! The probe is the benchmark's own code, so a change to the program
//! cannot move it. It runs with no unit of work in flight.

use std::hint::black_box;
use std::time::Instant;

/// Rounds of the probe kernel.
const PROBE_ROUNDS: usize = 100;

/// Elements the probe kernel fills and sorts each round.
const PROBE_LEN: usize = 4096;

/// The probe's median time over the runs of `baseline.json`, on the
/// reference machine (a 2-vCPU 2.0 GHz x86-64 virtual machine).
pub const REFERENCE_PROBE_S: f64 = 0.0086;

/// Times one run of the probe kernel: a xorshift fill, an unstable sort
/// and a floating-point reduction over a few pages of memory, the mix of
/// integer, branch and float work the synthesis loop does.
pub fn probe_s() -> f64 {
    let started = Instant::now();
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut data = vec![0u64; PROBE_LEN];
    let mut sum = 0.0f64;
    for _ in 0..PROBE_ROUNDS {
        for x in &mut data {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *x = state;
        }
        black_box(&mut data).sort_unstable();
        for (i, x) in data.iter().enumerate() {
            sum += ((x >> 11) as f64).sqrt() * ((i + 1) as f64).ln();
        }
    }
    black_box(sum);
    started.elapsed().as_secs_f64()
}

/// Probes the host between units of work.
#[derive(Debug)]
pub struct HostSpeed {
    /// Every probe time, in order.
    probes_s: Vec<f64>,
}

impl HostSpeed {
    /// Takes the first probe.
    pub fn new() -> Self {
        Self {
            probes_s: vec![probe_s()],
        }
    }

    /// Probes again and returns the factor that scales a time measured
    /// since the previous probe to the reference machine.
    pub fn factor(&mut self) -> f64 {
        let previous = *self.probes_s.last().expect("the first probe ran");
        let now = probe_s();
        self.probes_s.push(now);
        REFERENCE_PROBE_S * 2.0 / (previous + now)
    }

    /// Every probe time, in order.
    pub fn probes_s(&self) -> &[f64] {
        &self.probes_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_scale_by_the_probes_around_the_work() {
        let mut host = HostSpeed::new();
        let factor = host.factor();
        let [before, after] = host.probes_s() else {
            panic!("two probes");
        };
        assert!(factor.is_finite() && factor > 0.0);
        assert!((factor * (before + after) / 2.0 - REFERENCE_PROBE_S).abs() < 1e-12);
    }
}
