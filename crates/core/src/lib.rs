//! Energy-efficient co-synthesis for multi-mode embedded systems.
//!
//! This crate implements the primary contribution of the DATE 2003 paper
//! *“A Co-Design Methodology for Energy-Efficient Multi-Mode Embedded
//! Systems with Consideration of Mode Execution Probabilities”*: a
//! GA-based task-mapping and core-allocation loop whose fitness is the
//! probability-weighted average power of the candidate implementation,
//! multiplied by timing, area and mode-transition penalty factors, and
//! steered by four domain-specific improvement operators.
//!
//! The flow (paper Fig. 4):
//!
//! 1. encode every task of every mode as a locus over its candidate PEs
//!    ([`GenomeLayout`]);
//! 2. for each individual: derive the hardware core allocation with
//!    mobility-driven replication ([`derive_allocation`]), schedule each
//!    mode (inner loop, `momsynth-sched`), optionally voltage-scale
//!    (`momsynth-dvs`), and price the result ([`Evaluator`]);
//! 3. evolve with tournament selection, two-point crossover and the four
//!    improvement mutations ([`improve`]);
//! 4. refine the winner with fine-grained DVS ([`Synthesizer::run`]).
//!
//! # Examples
//!
//! ```no_run
//! use momsynth_core::{SynthesisConfig, Synthesizer};
//! # fn get_system() -> momsynth_model::System { unimplemented!() }
//!
//! let system = get_system();
//! let config = SynthesisConfig::new(42).with_dvs();
//! let result = Synthesizer::new(&system, config).run().expect("schedulable system");
//! println!(
//!     "best: {:.4} mW ({} generations, feasible: {}, stopped: {})",
//!     result.best.power.average.as_milli(),
//!     result.generations,
//!     result.best.is_feasible(),
//!     result.stop_reason,
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod checkpoint;
pub mod config;
pub mod durable;
pub mod fitness;
pub mod genome;
pub mod improve;
pub mod local_search;
pub mod parents;
pub mod prove;
pub mod synthesis;
pub mod transition;
pub mod verify;

pub use alloc::{derive_allocation, AllocOptions};
pub use checkpoint::{Checkpoint, CheckpointError, CHECKPOINT_VERSION};
pub use config::{
    DvsSynthesisOptions, FaultInjection, InjectedFault, PenaltyWeights, SynthesisConfig,
};
pub use fitness::{AreaOverrun, Cost, EvalFailure, Evaluator, ModeCost, Solution, Violations};
pub use genome::{Gene, GenomeLayout};
pub use improve::{improve_random, ImprovementOp};
pub use local_search::{polish, LocalSearchOptions, LocalSearchStats};
pub use momsynth_ga::StopReason;
pub use momsynth_telemetry as telemetry;
pub use parents::{ParentRecord, ParentTable};
pub use prove::{prove, Certificate, CertificateStatus, ProveOptions};
pub use synthesis::{CheckpointSpec, SynthControl, SynthesisError, SynthesisResult, Synthesizer};
pub use transition::{transition_timings, TransitionTiming};
pub use verify::{invariant_breach, verify_solution};
