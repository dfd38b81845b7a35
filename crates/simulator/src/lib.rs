//! Monte-Carlo simulation of no-communication distributed
//! decision-making.
//!
//! The paper's agents are mathematical objects; this crate runs them
//! as code, for two purposes:
//!
//! 1. **Validation** — every closed-form winning probability in the
//!    `decision` crate is cross-checked against frequency estimates
//!    from millions of simulated rounds ([`Simulation`]), batched
//!    across a persistent pool of worker threads with deterministic
//!    per-batch seeding (same seed ⇒ same estimate, regardless of
//!    thread count, scheduling, or pool reuse). The hot loop is
//!    monomorphized per rule family and fed by counter-addressed
//!    Threefry draws; see the [`engine`](Simulation) docs for the
//!    dispatch layers and the RNG stream-version history.
//! 2. **Structural fidelity** — [`DistributedSimulation`] runs each
//!    player as its own thread that receives *only its own input* over
//!    a channel and replies with a bin choice, so the
//!    no-communication constraint is enforced by the architecture,
//!    not just by convention.
//! 3. **Fault tolerance** — a deterministic chaos layer ([`ChaosPlan`])
//!    injects worker panics, stragglers, poisoned batch draws, and
//!    worker-thread deaths into the engine's own machinery. Because a
//!    batch's RNG stream is a pure function of `(seed, batch)`, lost
//!    work is re-executed bit-identically: reports under faults are
//!    byte-equal to fault-free runs. Long sweeps persist
//!    `sweep-checkpoint/v1` state after every grid point
//!    ([`sweep_threshold_checkpointed`]) and restart where they left
//!    off ([`resume_sweep`]).
//!
//! # Examples
//!
//! ```
//! use decision::{ObliviousAlgorithm, LocalRule};
//! use simulator::Simulation;
//!
//! let rule = ObliviousAlgorithm::fair(3);
//! let report = Simulation::new(200_000, 42).run(&rule, 1.0);
//! // Exact value is 5/12 ≈ 0.4167.
//! assert!((report.estimate - 5.0 / 12.0).abs() < 4.0 * report.std_error);
//! ```

#![forbid(unsafe_code)]

mod antithetic;
mod chaos;
mod checkpoint;
mod distributed;
mod engine;
mod error;
mod kernel;
mod metrics;
mod omniscient;
mod pool;
mod report;
mod stats;
mod sweep;

pub use antithetic::{run_antithetic, AntitheticReport};
pub use chaos::{ChaosPlan, FaultKind};
pub use checkpoint::{SweepCheckpoint, SWEEP_CHECKPOINT_SCHEMA};
pub use distributed::DistributedSimulation;
pub use engine::{Simulation, RNG_STREAM_VERSION};
pub use error::{SimulationError, SweepError};
pub use metrics::{keys, EngineMetrics, MetricsSnapshot};
pub use omniscient::full_information_win_rate;
pub use report::SimulationReport;
pub use stats::{load_stats, LoadStats};
pub use sweep::{
    resume_sweep, sweep_threshold, sweep_threshold_analytic, sweep_threshold_checkpointed,
    sweep_threshold_shard, sweep_threshold_with_engine, AnalyticSweepPoint, ShardSweep, SweepPoint,
};
