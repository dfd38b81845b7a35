//! Sharded sweep orchestration: many worker *processes*, one
//! bit-identical curve.
//!
//! The paper's sweeps are embarrassingly parallel across grid points,
//! and the engine's per-point seeding makes the parallelism free of
//! coordination: grid point `k`'s RNG stream is a pure function of
//! `(seed, k)`, so any process can compute any point with zero shared
//! state — the engine-level analogue of the paper's no-communication
//! optimum. This crate exploits that to lift the single-process
//! checkpoint machinery (`sweep-checkpoint/v1`) to a fleet:
//!
//! 1. [`split_grid`] cuts the `grid + 1` points into contiguous
//!    [`ShardSpec`] slices.
//! 2. [`run_sweep_with_metrics`] spawns one worker process per shard
//!    (any binary honoring the `nocomm-shard run` CLI, normally
//!    `nocomm-shard` itself) and supervises them: per-shard deadlines, stall
//!    detection, `SIGKILL` for hung workers, and re-issue with a
//!    capped exponential backoff under a respawn budget when a worker
//!    dies, stalls, or hands back a corrupt file. Supervision is
//!    event-driven, not polled: a worker prints one line to its
//!    stdout per persisted point, a reader thread per worker turns
//!    each line into a progress event and EOF into an exit event, and
//!    the coordinator sleeps until the next event or the nearest
//!    timer (backoff, stall timeout, deadline). A worker that prints
//!    nothing for the stall timeout is hung. So a fault-free sweep
//!    costs the spawns plus the slowest shard, with no poll quantum.
//! 3. The completed shard checkpoints are merged
//!    ([`simulator::SweepCheckpoint::merge_shards`]) into a document
//!    *byte-identical* to what one uninterrupted process would have
//!    written — the same bit-identity discipline the thread-level
//!    chaos layer enforces, lifted to process crashes. Workers may be
//!    `kill -9`ed at any instant: the atomic write-rename after every
//!    point guarantees whatever survives is a well-formed prefix the
//!    replacement worker resumes.
//!
//! Fault injection for tests and CI is deterministic and replayable:
//! a [`ProcChaosPlan`] maps `(shard, attempt)` to the [`ProcFault`]
//! that attempt's worker must inject into itself (abort mid-shard,
//! stall forever, or corrupt its output), so every chaotic run can be
//! reproduced from its seed.
//!
//! The supervision ledger flows into the [`obs::MetricsSink`] passed to
//! [`run_sweep_with_metrics`] under the `shard.*` keys
//! (`issued`/`completed`/`reissued`/`killed`/`corrupt` counters and a
//! `span_ns` histogram; see [`simulator::keys`]).

#![forbid(unsafe_code)]

mod chaos;
mod coordinator;
mod error;
mod plan;

pub use chaos::{ProcChaosPlan, ProcFault};
pub use coordinator::{run_sweep_with_metrics, OrchestratorConfig, WorkerSpec};
pub use error::OrchestratorError;
pub use plan::{split_grid, ShardSpec};
