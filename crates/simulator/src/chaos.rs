//! Deterministic fault injection for the engine's own machinery.
//!
//! The paper models *player* crash faults ([`run_with_crashes`]
//! estimates under them); this module injects faults into the
//! **engine** that runs those estimates — worker panics, slow jobs,
//! poisoned batch draws, and worker-thread deaths — so the recovery
//! layer can be exercised deterministically.
//!
//! A [`ChaosPlan`] is reproducible from plain numbers: either build it
//! explicitly with [`ChaosPlan::inject`], or derive a mixed plan from
//! a single `u64` via [`ChaosPlan::from_seed`]. Each planned fault
//! *arms* at most once (the first execution attempt of its batch trips
//! it; retries and re-executions run clean), which is exactly the shape
//! the recovery proof needs: a batch's RNG stream is a pure function of
//! `(seed, batch)`, so the recovered run is bit-identical to a run that
//! never faulted.
//!
//! [`run_with_crashes`]: crate::Simulation::run_with_crashes

use crate::engine::splitmix;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// One injected engine fault, attached to a batch index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// The executing thread unwinds as if the batch computation
    /// panicked. On a pool worker the panic kills the drain job (the
    /// coordinator reclaims the lost batch); on the coordinator itself
    /// it is absorbed by a bounded in-place retry.
    WorkerPanic,
    /// The batch stalls for `millis` before computing, modelling a
    /// straggler. If the stall outlives the run deadline the
    /// coordinator re-executes the batch and the late duplicate is
    /// discarded.
    SlowJob {
        /// Stall length in milliseconds.
        millis: u64,
    },
    /// The batch's random draws are detected as corrupt before any
    /// trial consumes them; the attempt aborts and is retried in place
    /// with clean draws.
    PoisonedRefill,
}

/// Typed panic payload for injected unwinds, so the recovery layer can
/// tell a planned fault from a genuine bug.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ChaosUnwind {
    /// An injected [`FaultKind::WorkerPanic`].
    WorkerPanic,
    /// An injected [`FaultKind::PoisonedRefill`]: the batch's draws
    /// are rejected before any trial consumes them.
    PoisonedRefill,
}

/// Unwinds with a typed chaos payload.
pub(crate) fn unwind(kind: ChaosUnwind) -> ! {
    std::panic::panic_any(kind)
}

/// Whether a caught panic payload is an injected worker panic (which
/// must kill a pool worker's drain job rather than be retried in
/// place).
pub(crate) fn is_worker_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.downcast_ref::<ChaosUnwind>() == Some(&ChaosUnwind::WorkerPanic)
}

/// A seeded, reproducible schedule of engine faults.
///
/// Attach one to an engine with
/// [`Simulation::with_chaos`](crate::Simulation::with_chaos). The
/// engine guarantees that any run under a `ChaosPlan` produces a
/// [`SimulationReport`](crate::SimulationReport) byte-equal to the
/// fault-free run with the same parameters.
///
/// # Examples
///
/// ```
/// use simulator::{ChaosPlan, FaultKind};
///
/// // Explicit: panic on batch 0, stall batch 2, poison batch 3.
/// let plan = ChaosPlan::new(7)
///     .inject(0, FaultKind::WorkerPanic)
///     .inject(2, FaultKind::SlowJob { millis: 5 })
///     .inject(3, FaultKind::PoisonedRefill)
///     .with_worker_exits(1);
/// assert_eq!(plan.fault_count(), 3);
///
/// // Derived: the same seed always yields the same schedule.
/// let a = ChaosPlan::from_seed(42, 30, 6);
/// let b = ChaosPlan::from_seed(42, 30, 6);
/// assert_eq!(a.faults(), b.faults());
/// ```
#[derive(Debug)]
pub struct ChaosPlan {
    seed: u64,
    faults: BTreeMap<u64, FaultKind>,
    worker_exits: u32,
    /// Worker-exit injections not yet delivered to a pool.
    exits_pending: AtomicU32,
    /// Batch indices whose fault has already armed; each fault fires
    /// on the first execution attempt only.
    fired: Mutex<BTreeSet<u64>>,
}

impl ChaosPlan {
    /// An empty plan carrying only a seed; add faults with
    /// [`ChaosPlan::inject`] and [`ChaosPlan::with_worker_exits`].
    #[must_use]
    pub fn new(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            faults: BTreeMap::new(),
            worker_exits: 0,
            exits_pending: AtomicU32::new(0),
            fired: Mutex::new(BTreeSet::new()),
        }
    }

    /// Derives a mixed plan from the seed alone: `faults` fault sites
    /// spread over `batches` batch indices, cycling through all three
    /// [`FaultKind`]s. At most one fault lands per batch, so the plan
    /// holds `min(faults, batches)` entries.
    #[must_use]
    pub fn from_seed(seed: u64, batches: u64, faults: usize) -> ChaosPlan {
        let mut plan = ChaosPlan::new(seed);
        if batches == 0 {
            return plan;
        }
        let target = faults.min(usize::try_from(batches).unwrap_or(usize::MAX));
        let mut draw = 0u64;
        while plan.faults.len() < target {
            let batch = splitmix(seed ^ draw.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % batches;
            draw += 1;
            if plan.faults.contains_key(&batch) {
                continue;
            }
            let kind = match plan.faults.len() % 3 {
                0 => FaultKind::WorkerPanic,
                1 => FaultKind::PoisonedRefill,
                _ => FaultKind::SlowJob {
                    millis: 1 + splitmix(seed ^ batch) % 5,
                },
            };
            plan.faults.insert(batch, kind);
        }
        plan
    }

    /// Adds (or replaces) a fault at `batch`.
    #[must_use]
    pub fn inject(mut self, batch: u64, kind: FaultKind) -> ChaosPlan {
        self.faults.insert(batch, kind);
        self
    }

    /// Also kill `n` pool worker threads at the start of the next
    /// pooled run, exercising the supervisor's respawn path. Ignored
    /// by sequential runs, which have no pool.
    #[must_use]
    pub fn with_worker_exits(mut self, n: u32) -> ChaosPlan {
        self.worker_exits = n;
        self.exits_pending = AtomicU32::new(n);
        self
    }

    /// The seed the plan was built with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The planned fault sites, in batch order.
    #[must_use]
    pub fn faults(&self) -> Vec<(u64, FaultKind)> {
        self.faults.iter().map(|(&b, &k)| (b, k)).collect()
    }

    /// Number of planned batch faults.
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// Number of planned worker-thread deaths.
    #[must_use]
    pub fn worker_exits(&self) -> u32 {
        self.worker_exits
    }

    /// Arms the fault planned for `batch`, if any and not yet fired.
    /// Subsequent calls for the same batch return `None`, so retries
    /// and recovery re-executions run clean.
    pub(crate) fn arm(&self, batch: u64) -> Option<FaultKind> {
        let kind = *self.faults.get(&batch)?;
        let mut fired = self
            .fired
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if fired.insert(batch) {
            Some(kind)
        } else {
            None
        }
    }

    /// Takes the pending worker-exit injections (at most once).
    pub(crate) fn take_worker_exits(&self) -> u32 {
        self.exits_pending.swap(0, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_reproducible_and_bounded() {
        let a = ChaosPlan::from_seed(9, 20, 7);
        let b = ChaosPlan::from_seed(9, 20, 7);
        assert_eq!(a.faults(), b.faults());
        assert_eq!(a.fault_count(), 7);
        assert!(a.faults().iter().all(|&(batch, _)| batch < 20));
        // More faults than batches: one per batch at most.
        let c = ChaosPlan::from_seed(9, 3, 10);
        assert_eq!(c.fault_count(), 3);
        // A different seed yields a different schedule.
        let d = ChaosPlan::from_seed(10, 20, 7);
        assert_ne!(a.faults(), d.faults());
    }

    #[test]
    fn from_seed_mixes_fault_kinds() {
        let plan = ChaosPlan::from_seed(4, 100, 9);
        let kinds = plan.faults();
        let panics = kinds
            .iter()
            .filter(|(_, k)| *k == FaultKind::WorkerPanic)
            .count();
        let poisons = kinds
            .iter()
            .filter(|(_, k)| *k == FaultKind::PoisonedRefill)
            .count();
        let slows = kinds.len() - panics - poisons;
        assert_eq!(panics, 3);
        assert_eq!(poisons, 3);
        assert_eq!(slows, 3);
    }

    #[test]
    fn faults_arm_exactly_once() {
        let plan = ChaosPlan::new(1).inject(5, FaultKind::PoisonedRefill);
        assert_eq!(plan.arm(5), Some(FaultKind::PoisonedRefill));
        assert_eq!(plan.arm(5), None, "a fault fires on the first attempt only");
        assert_eq!(plan.arm(6), None, "unplanned batches never fault");
    }

    #[test]
    fn worker_exits_are_taken_once() {
        let plan = ChaosPlan::new(1).with_worker_exits(2);
        assert_eq!(plan.worker_exits(), 2);
        assert_eq!(plan.take_worker_exits(), 2);
        assert_eq!(plan.take_worker_exits(), 0);
    }

    #[test]
    fn typed_payload_distinguishes_worker_panics() {
        let caught =
            std::panic::catch_unwind(|| unwind(ChaosUnwind::WorkerPanic)).expect_err("must unwind");
        assert!(is_worker_panic(&*caught));
        let caught = std::panic::catch_unwind(|| unwind(ChaosUnwind::PoisonedRefill))
            .expect_err("must unwind");
        assert!(!is_worker_panic(&*caught));
        let caught = std::panic::catch_unwind(|| panic!("ordinary bug")).expect_err("must unwind");
        assert!(!is_worker_panic(&*caught));
    }
}
