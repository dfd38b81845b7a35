//! The batched, multi-threaded Monte-Carlo engine.
//!
//! # Dispatch layers
//!
//! The hot loop is monomorphized: [`Simulation::run`] asks the rule
//! for a [`KernelHint`] once per run and selects a compiled kernel —
//! a threshold compare for [`decision::SingleThresholdAlgorithm`], a
//! coin-flip compare for [`decision::ObliviousAlgorithm`] — so the
//! per-player decision is inlined with no virtual call and no
//! `Rational → f64` conversion inside the loop. Rules reporting
//! [`KernelHint::Opaque`] fall back to calling
//! [`LocalRule::decide`] per decision. Every kernel runs on the same
//! lane loop and the same counter-addressed draws, so a rule hidden
//! behind an opaque wrapper reports exactly what its hinted form
//! does. The entry points are generic over `R: LocalRule + ?Sized`,
//! so `&dyn LocalRule` callers keep working unchanged (one virtual
//! `kernel_hint` call still routes them onto the fast path).
//!
//! # RNG stream versioning
//!
//! Every draw of a run is a pure function of `(seed, batch, trial,
//! kind, player)`. How draws are generated and laid out is versioned
//! by [`RNG_STREAM_VERSION`]:
//!
//! * **v1**: one sequential generator per batch, seeded from
//!   `(seed, batch)`; every player drew three uniforms per trial —
//!   input, coin, and a fault coin even when `p_crash = 0`.
//! * **v2**: the same sequential generator, but the fault coin was
//!   drawn only when `p_crash > 0` unless a common-random-numbers
//!   mode asked for the v1 shape.
//! * **v3**: hinted rules moved to the **lane kernel** on a
//!   counter-based Threefry generator. Uniform
//!   `(kind, p)` of trial `t` in batch `i` is a word of the block at
//!   counter `[i, t, kind << 32 | p / 4, domain]` — addressed, not
//!   streamed — so lane width, thread count, batch schedule, chaos
//!   replay and checkpoint resume are invariant by construction, and
//!   each kind's plane is generated only when it is read. Opaque
//!   rules stayed on the v2 sequential stream.
//! * **v4**: draws exactly v3's; the lane loop consumes each
//!   Threefry block in registers instead of filling a per-batch row
//!   buffer.
//! * **v5**: every rule runs on the lane kernel and there is no
//!   sequential stream. Hinted draws were exactly v4's; opaque rules
//!   moved from the v2 stream to the counter draws.
//! * **v6**: every 64-bit Threefry word carries two
//!   uniforms, its high and its low 32-bit half, each mapped to the
//!   midpoint lattice `u = (h + ½)·2⁻³²`
//!   ([`rand::counter::half_to_unit`]). Uniform `(kind, p)` of trial
//!   `t` in batch `i` is half `p mod 2` (`0` = high) of word
//!   `(p mod 8) / 2` of the block at counter
//!   `[i, t, kind << 32 | p / 8, domain]`, so a plane costs `⌈n / 8⌉`
//!   blocks per trial instead of `⌈n / 4⌉`. The planes are unchanged,
//!   so common random numbers across rules and fault rates hold as
//!   before. Every draw moved, so every estimate for a given seed
//!   changed.
//! * **v7** (current): draws exactly v6's; the lane loop decides and
//!   sums on each draw's lattice integer `v = 2h + 1` (the draw is
//!   `v·2⁻³³`, [`rand::counter::half_to_lattice`]) instead of on its
//!   `f64`. Thresholds, coin probabilities, the crash rate and `δ`
//!   become integer bounds once per run, bin sums are `u64`, and
//!   every comparison keeps its strictness, so every decision and
//!   every win equals v6's (see `run_lane_batch`). Opaque rules still
//!   see the same `f64` draws.
//!
//! Consequently, same-version estimates are bit-for-bit reproducible
//! across thread counts, batch schedules, pool reuse, lane widths and
//! hinted vs opaque dispatch. The expectation tests below are
//! statistical and hold at every version; the stream goldens in
//! `tests/stream_v3.rs` are re-pinned at each version that moves a
//! draw.
//!
//! # Lattice bias (v6 and later)
//!
//! A v6 draw lies strictly inside `(0, 1)`, the lattice has mean
//! exactly `½` and is symmetric under `u ↦ 1 − u`, and no draw can tie
//! a dyadic threshold such as `½` or `¾`. Coupling each draw with the
//! continuous uniform it rounds (they differ by at most `2⁻³³`), a
//! trial's outcome can differ only when a draw lies within `2⁻³³` of a
//! decision or crash boundary, or a bin sum lies within `n·2⁻³³` of
//! `δ`. Each of those events has probability at most `2⁻³²` per draw
//! and `n·2⁻³²` per bin sum (an input's density is at most 1, and so
//! is that of any sum containing one). For threshold and oblivious rules that bounds the
//! systematic error by `|P_v6 − P| ≤ 3n·2⁻³²` in a crash-free run
//! (one boundary per player, two bin sums) and by `4n·2⁻³²` with
//! crashes: about `9e-8` and `1.2e-7` at `n = 128`. An opaque rule
//! adds `2⁻³²` per player for every further boundary its decision
//! sets have. The smallest Monte-Carlo standard error the daemon can
//! produce (`max_trials` = 5e7, `P` near ½) is about `7e-5`, so the
//! bias sits three orders of magnitude below the noise.

use crate::chaos::{self, ChaosPlan, ChaosUnwind, FaultKind};
use crate::kernel::{
    lattice_ceil, lattice_floor, DrawKind, GenericKernel, Kernel, ObliviousKernel, ThresholdKernel,
    DRAWS_PER_BLOCK, KIND_SHIFT, LANE_STREAM_DOMAIN,
};
use crate::metrics::keys;
use crate::pool::{Admission, ComputeBudget, Job, PoolConfig, WorkerPool};
use crate::{SimulationError, SimulationReport};
use decision::{KernelHint, LocalRule};
use obs::{Deadline, MetricsSink, NoopSink};
use rand::counter::{half_to_lattice, threefry4x64_lanes, CounterKey};
use std::hint::select_unpredictable;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Duration;

/// Version of the per-batch RNG stream shape. Bumped whenever a
/// stream-critical function changes, even when no draw moves; the
/// engine module's source docs keep the history (v7: v6's draws,
/// decided and summed on their lattice integers).
pub const RNG_STREAM_VERSION: u32 = 7;

/// Default trials per batch; shared with the instrumented
/// [`load_stats`](crate::load_stats) loop so its stream stays
/// bit-identical to the engine's.
pub(crate) const DEFAULT_BATCH_SIZE: u64 = 16_384;

/// Default bound on how long a pooled run waits for worker results
/// before reclaiming the missing batches itself; override with
/// [`Simulation::with_batch_deadline`]. Generous on purpose: healthy
/// runs finish far inside it, and hitting it only costs duplicated
/// work, never a wrong answer.
pub(crate) const DEFAULT_BATCH_DEADLINE: Duration = Duration::from_secs(30);

/// In-place retries allowed per batch before a panic is treated as a
/// genuine bug and propagated.
const MAX_BATCH_ATTEMPTS: u32 = 3;

/// Trials the lane kernel advances per inner-loop step. Every width
/// produces bit-identical estimates (trial outcomes are pure
/// functions of their own counters), so this is pure compute shape:
/// two vector registers of lanes per Threefry word give the round
/// ladder's serial add–rotate–xor chains a second independent
/// instruction stream to overlap, while the block being consumed
/// still fits in the vector register file.
const LANES: usize = 16;

/// A deterministic, thread-parallel Monte-Carlo estimator of the
/// winning probability `P_A(δ)` of any [`LocalRule`].
///
/// Trials are split into fixed batches; batch `i` always runs with the
/// RNG stream derived from `(seed, i)`, so the estimate is bit-for-bit
/// reproducible regardless of the number of worker threads or their
/// scheduling. Parallel runs execute on a persistent worker pool that
/// is spawned lazily on the first run and reused by every later run
/// of this engine (and of [`Simulation::reseeded`] copies — a sweep
/// pays thread start-up once, not once per grid point).
///
/// The engine and every clone sharing its pool share one compute
/// budget of `threads` batch-executing threads. A run's calling
/// thread always executes batches; the run adds pool helpers only
/// for budget idle when it starts, so concurrent runs (a server's
/// requests) share the cores instead of oversubscribing them, and a
/// run that starts while the budget is busy executes inline.
///
/// # Examples
///
/// ```
/// use decision::SingleThresholdAlgorithm;
/// use rational::Rational;
/// use simulator::Simulation;
///
/// let rule = SingleThresholdAlgorithm::symmetric(3, Rational::ratio(622, 1000)).unwrap();
/// let report = Simulation::new(100_000, 7).run(&rule, 1.0);
/// assert!(report.agrees_with(0.5446, 4.0));
/// ```
#[derive(Clone)]
pub struct Simulation {
    trials: u64,
    seed: u64,
    threads: usize,
    batch_size: u64,
    /// Lazily-spawned persistent workers, shared by clones (so
    /// [`Simulation::reseeded`] engines reuse the same threads).
    pool: Arc<OnceLock<WorkerPool>>,
    /// The batch-executing threads of every run sharing `pool`,
    /// against `threads`; reset together with `pool`.
    budget: Arc<ComputeBudget>,
    /// Where run/pool/RNG counters are flushed (per batch of work,
    /// never per trial); a no-op by default.
    sink: Arc<dyn MetricsSink>,
    /// Injected engine faults (shared by [`Simulation::reseeded`]
    /// clones); `None` for a fault-free engine.
    chaos: Option<Arc<ChaosPlan>>,
    /// Bound on how long a pooled run waits for worker results before
    /// reclaiming missing batches itself.
    batch_deadline: Duration,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("trials", &self.trials)
            .field("seed", &self.seed)
            .field("threads", &self.threads)
            .field("batch_size", &self.batch_size)
            .field("pool", &self.pool)
            .field("chaos", &self.chaos)
            .field("batch_deadline", &self.batch_deadline)
            .finish_non_exhaustive()
    }
}

/// Per-run totals accumulated across batches: the win count plus the
/// RNG-consumption audit trail, merged commutatively so thread
/// scheduling cannot change them.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BatchTotals {
    /// Winning trials.
    pub(crate) wins: u64,
    /// Uniform samples handed to the trial loop (logical draws:
    /// `trials × players × per-player`).
    pub(crate) draws: u64,
    /// `L`-wide lane blocks computed, each `L` scalar Threefry blocks
    /// (see [`keys::RNG_LANE_BLOCKS`]).
    pub(crate) lane_blocks: u64,
    /// Batches executed.
    pub(crate) batches: u64,
}

impl BatchTotals {
    /// Adds another accumulator's counts into this one.
    pub(crate) fn merge(&mut self, other: BatchTotals) {
        self.wins += other.wins;
        self.draws += other.draws;
        self.lane_blocks += other.lane_blocks;
        self.batches += other.batches;
    }
}

/// Everything a batch needs besides the kernel, copied once per run.
#[derive(Clone, Copy)]
struct TrialParams {
    seed: u64,
    trials: u64,
    batch_size: u64,
    /// The capacity `δ` itself, read only by the tests' `f64` replay;
    /// the lane loop reads `capacity`.
    #[cfg(test)]
    delta: f64,
    p_crash: f64,
    /// `⌊δ·2³³⌋`, the largest winning bin sum of lattice integers;
    /// `None` when `δ` is negative (or NaN) and no bin, not even an
    /// empty one, fits.
    capacity: Option<u64>,
    /// `⌈p_crash·2³³⌉`: a player is live iff its fault draw's lattice
    /// integer is at least this.
    live_from: u64,
}

impl TrialParams {
    fn new(seed: u64, trials: u64, batch_size: u64, delta: f64, p_crash: f64) -> TrialParams {
        TrialParams {
            seed,
            trials,
            batch_size,
            #[cfg(test)]
            delta,
            p_crash,
            capacity: (delta >= 0.0).then(|| lattice_floor(delta)),
            live_from: lattice_ceil(p_crash),
        }
    }
}

/// Shared state of one pooled run: workers and the submitting thread
/// all drain batches from `next` and report per-batch totals to the
/// coordinator.
struct PooledRun<K> {
    kernel: K,
    params: TrialParams,
    batches: u64,
    next: AtomicU64,
    /// Injected faults, if any; shared with the coordinator.
    chaos: Option<Arc<ChaosPlan>>,
    /// Receives chaos/recovery counters from executing batches.
    sink: Arc<dyn MetricsSink>,
}

impl<K: Kernel> PooledRun<K> {
    /// Claims and runs batches until the counter is exhausted,
    /// reporting each completed batch to the coordinator. An injected
    /// worker panic unwinds out of this loop (killing the drain job);
    /// the batches it claimed but never reported are reclaimed by the
    /// coordinator.
    fn drain_worker(&self, done: &mpsc::Sender<(u64, BatchTotals)>) {
        loop {
            let batch = self.next.fetch_add(1, Ordering::Relaxed);
            if batch >= self.batches {
                return;
            }
            let totals = execute_batch(
                &self.kernel,
                self.params,
                batch,
                self.chaos.as_deref(),
                &*self.sink,
                Attempt::PoolWorker,
            );
            if done.send((batch, totals)).is_err() {
                // The coordinator stopped listening (run deadline
                // passed; it is reclaiming batches itself). Further
                // claims would be unreportable duplicates.
                return;
            }
        }
    }
}

/// The coordinator's per-batch completion ledger: every batch merges
/// exactly once, however many times slow or recovered duplicates
/// report it.
struct Completion {
    done: Vec<bool>,
    completed: u64,
    totals: BatchTotals,
}

impl Completion {
    fn new(batches: u64) -> Completion {
        let len = usize::try_from(batches).unwrap_or(usize::MAX);
        contracts::invariant!(len as u64 == batches, "batch count fits a usize");
        Completion {
            done: vec![false; len],
            completed: 0,
            totals: BatchTotals::default(),
        }
    }

    /// Merges a batch's totals unless that batch already completed.
    fn complete(&mut self, batch: u64, totals: BatchTotals) {
        let index = usize::try_from(batch).unwrap_or(usize::MAX);
        if self.done[index] {
            return; // a late duplicate of an already-recovered batch
        }
        self.done[index] = true;
        self.completed += 1;
        self.totals.merge(totals);
    }

    fn is_done(&self, batch: u64) -> bool {
        self.done[usize::try_from(batch).unwrap_or(usize::MAX)]
    }
}

/// Who is executing a batch attempt, which decides how an injected
/// panic is handled.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Attempt {
    /// The thread that owns the run: every fault is absorbed by a
    /// bounded in-place retry (there is nobody else to recover it).
    Coordinator,
    /// A pool worker: an injected worker panic must actually unwind —
    /// killing the drain job so the coordinator's reclaim path is
    /// exercised — while other faults retry in place.
    PoolWorker,
}

/// Runs one batch with bounded fault recovery. A clean engine compiles
/// down to a single `run_lane_batch` call behind an untaken branch; under a
/// [`ChaosPlan`] a panicking attempt is retried in place (counted as a
/// recovered batch) up to [`MAX_BATCH_ATTEMPTS`], except that a pool
/// worker lets an injected worker panic through so the coordinator's
/// bounded-wait reclaim handles it.
///
/// Re-execution is bit-identical by construction: the batch's draws
/// are a pure function of `(seed, batch)` and a fault arms strictly before
/// any trial runs, so no partial state survives an unwind.
fn execute_batch<K: Kernel>(
    kernel: &K,
    params: TrialParams,
    batch: u64,
    chaos: Option<&ChaosPlan>,
    sink: &dyn MetricsSink,
    attempt: Attempt,
) -> BatchTotals {
    if chaos.is_none() {
        return run_lane_batch::<K, LANES>(kernel, params, batch);
    }
    let mut tries = 0u32;
    loop {
        tries += 1;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            attempt_batch(kernel, params, batch, chaos, sink)
        }));
        match outcome {
            Ok(totals) => return totals,
            Err(payload) => {
                let lethal =
                    attempt == Attempt::PoolWorker && chaos::is_worker_panic(payload.as_ref());
                if lethal || tries >= MAX_BATCH_ATTEMPTS {
                    std::panic::resume_unwind(payload);
                }
                sink.add(keys::RECOVERED_BATCHES, 1);
            }
        }
    }
}

/// One execution attempt: arm the batch's planned fault (first attempt
/// only), then run the pure batch.
fn attempt_batch<K: Kernel>(
    kernel: &K,
    params: TrialParams,
    batch: u64,
    chaos: Option<&ChaosPlan>,
    sink: &dyn MetricsSink,
) -> BatchTotals {
    if let Some(plan) = chaos {
        if let Some(kind) = plan.arm(batch) {
            sink.add(keys::CHAOS_FAULTS, 1);
            match kind {
                FaultKind::SlowJob { millis } => {
                    std::thread::sleep(Duration::from_millis(millis));
                }
                FaultKind::WorkerPanic => chaos::unwind(ChaosUnwind::WorkerPanic),
                FaultKind::PoisonedRefill => chaos::unwind(ChaosUnwind::PoisonedRefill),
            }
        }
    }
    run_lane_batch::<K, LANES>(kernel, params, batch)
}

impl Simulation {
    /// Creates an engine running `trials` rounds with the given seed,
    /// using all available parallelism.
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero; [`Simulation::try_new`] is the
    /// non-panicking equivalent.
    #[must_use]
    pub fn new(trials: u64, seed: u64) -> Simulation {
        match Simulation::try_new(trials, seed) {
            Ok(simulation) => simulation,
            Err(error) => panic!("{error}"), // xtask:allow(no-panic): documented constructor contract
        }
    }

    /// Creates an engine running `trials` rounds with the given seed,
    /// using all available parallelism.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::ZeroTrials`] if `trials` is zero.
    pub fn try_new(trials: u64, seed: u64) -> Result<Simulation, SimulationError> {
        if trials == 0 {
            return Err(SimulationError::ZeroTrials);
        }
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        Ok(Simulation {
            trials,
            seed,
            threads,
            batch_size: DEFAULT_BATCH_SIZE,
            pool: Arc::new(OnceLock::new()),
            budget: Arc::new(ComputeBudget::default()),
            sink: Arc::new(NoopSink),
            chaos: None,
            batch_deadline: DEFAULT_BATCH_DEADLINE,
        })
    }

    /// Overrides the number of worker threads (1 = sequential).
    ///
    /// Any already-spawned worker pool is released: the pool's size is
    /// tied to the thread count, so the next parallel run spawns a
    /// fresh pool of the new size, under a fresh compute budget.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Simulation {
        self.threads = threads.max(1);
        self.release_pool();
        self
    }

    /// Overrides the batch size (smaller batches = finer work
    /// stealing, more RNG setup overhead).
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero;
    /// [`Simulation::try_with_batch_size`] is the non-panicking
    /// equivalent.
    #[must_use]
    pub fn with_batch_size(self, batch_size: u64) -> Simulation {
        match self.try_with_batch_size(batch_size) {
            Ok(simulation) => simulation,
            Err(error) => panic!("{error}"), // xtask:allow(no-panic): documented builder contract
        }
    }

    /// Overrides the batch size (smaller batches = finer work
    /// stealing, more RNG setup overhead).
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::ZeroBatchSize`] if `batch_size` is
    /// zero.
    pub fn try_with_batch_size(mut self, batch_size: u64) -> Result<Simulation, SimulationError> {
        if batch_size == 0 {
            return Err(SimulationError::ZeroBatchSize);
        }
        self.batch_size = batch_size;
        Ok(self)
    }

    /// Attaches a metrics sink — typically an
    /// `Arc<`[`EngineMetrics`](crate::EngineMetrics)`>` — that
    /// receives run, RNG, and pool counters (see
    /// [`keys`](crate::keys)).
    ///
    /// Metrics observe the computation without touching it: the RNG
    /// stream, and therefore every estimate, is bit-identical
    /// whatever sink is attached, and flushes happen per batch of
    /// work, never per trial. Any already-spawned worker pool is
    /// released (with its compute budget) so the next parallel run
    /// spawns workers wired to the new sink.
    #[must_use]
    pub fn with_metrics(mut self, sink: Arc<dyn MetricsSink>) -> Simulation {
        self.sink = sink;
        self.release_pool();
        self
    }

    /// Detaches this engine from its pool and compute budget; the next
    /// parallel run spawns a fresh pool.
    fn release_pool(&mut self) {
        self.pool = Arc::new(OnceLock::new());
        self.budget = Arc::new(ComputeBudget::default());
    }

    /// Attaches a deterministic fault-injection plan (see
    /// [`ChaosPlan`]): worker panics, slow jobs, poisoned draws, and
    /// worker-thread deaths at the planned batch indices.
    ///
    /// Chaos never changes an estimate. Each batch's RNG stream is a
    /// pure function of `(seed, batch)` and faults arm strictly before
    /// any trial runs, so every lost or poisoned batch is re-executed
    /// bit-identically and the resulting
    /// [`SimulationReport`] is byte-equal to the fault-free run's.
    /// Recoveries are counted through the attached metrics sink (see
    /// [`keys`](crate::keys)).
    #[must_use]
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Simulation {
        self.chaos = Some(Arc::new(plan));
        self
    }

    /// Bounds how long a parallel run waits for pooled worker results
    /// before reclaiming the missing batches on the calling thread.
    ///
    /// The default (30 s) is generous: healthy runs finish far
    /// inside it. An expired deadline costs
    /// duplicated work only — reclaimed batches are re-executed
    /// bit-identically and late duplicates are discarded — so even
    /// `Duration::ZERO` (everything reclaimed immediately) yields the
    /// correct report.
    #[must_use]
    pub fn with_batch_deadline(mut self, deadline: Duration) -> Simulation {
        self.batch_deadline = deadline;
        self
    }

    /// A copy of this engine with a different seed, **sharing the
    /// worker pool** and its compute budget — sweeps reuse one set of
    /// threads across grid points while keeping per-point streams
    /// independent.
    #[must_use]
    pub fn reseeded(&self, seed: u64) -> Simulation {
        let mut copy = self.clone();
        copy.seed = seed;
        copy
    }

    /// A copy of this engine with a different trial budget *and* seed,
    /// still **sharing the worker pool** and its compute budget — a
    /// server answering per-request Monte-Carlo queries batches every
    /// request's jobs onto one persistent set of worker threads, and
    /// concurrent requests split the engine's `threads` between them.
    ///
    /// Like [`Simulation::reseeded`], retargeting never changes an
    /// estimate: batch `i`'s RNG stream is a pure function of
    /// `(seed, i)`, so a retargeted run is bit-identical to a fresh
    /// `Simulation::new(trials, seed)` run with the same batch size.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::ZeroTrials`] if `trials` is zero.
    pub fn retargeted(&self, trials: u64, seed: u64) -> Result<Simulation, SimulationError> {
        if trials == 0 {
            return Err(SimulationError::ZeroTrials);
        }
        let mut copy = self.clone();
        copy.trials = trials;
        copy.seed = seed;
        Ok(copy)
    }

    /// Estimates `P_A(δ)` for the rule.
    #[must_use]
    pub fn run<R: LocalRule + ?Sized>(&self, rule: &R, delta: f64) -> SimulationReport {
        self.run_with_crashes(rule, delta, 0.0)
    }

    /// Estimates `P_A(δ)` when each player independently crashes (and
    /// drops its input) with probability `p_crash` per round.
    ///
    /// Crash coins live in their own counter plane, generated only
    /// when `p_crash > 0`, so runs at different fault rates with one
    /// seed share every input and coin draw (common random numbers).
    ///
    /// # Panics
    ///
    /// Panics if `p_crash` is not in `[0, 1]`, or if a batch keeps
    /// panicking after the bounded retry budget (a genuine bug in the
    /// rule, not an injected fault — those are always recovered).
    #[must_use]
    pub fn run_with_crashes<R: LocalRule + ?Sized>(
        &self,
        rule: &R,
        delta: f64,
        p_crash: f64,
    ) -> SimulationReport {
        assert!((0.0..=1.0).contains(&p_crash), "crash probability range"); // xtask:allow(no-panic): documented precondition
        let params = self.trial_params(delta, p_crash);
        let (totals, dispatch) = match rule.kernel_hint() {
            KernelHint::Threshold(thresholds) => {
                // The hint is the rule's contract with the kernel: it
                // must describe exactly the rule's players.
                contracts::invariant!(thresholds.len() == rule.n(), "kernel hint arity");
                (
                    self.run_owned(ThresholdKernel::new(thresholds), params),
                    keys::DISPATCH_THRESHOLD,
                )
            }
            KernelHint::Oblivious(alpha) => {
                contracts::invariant!(alpha.len() == rule.n(), "kernel hint arity");
                (
                    self.run_owned(ObliviousKernel::new(alpha), params),
                    keys::DISPATCH_OBLIVIOUS,
                )
            }
            _ => (
                self.run_borrowed(&GenericKernel(rule), params),
                keys::DISPATCH_OPAQUE,
            ),
        };
        self.flush_run(totals, dispatch);
        // Postcondition: the counter is a frequency over exactly the
        // requested trials, whatever the thread interleaving was.
        contracts::invariant!(
            totals.wins <= self.trials,
            "wins {} > trials {}",
            totals.wins,
            self.trials
        );
        SimulationReport::from_counts(totals.wins, self.trials)
    }

    /// The most threads a run will use (including the calling
    /// thread): it uses at most this many, and fewer when other runs
    /// sharing the engine's compute budget are executing when it
    /// starts.
    ///
    /// The configured thread count is clamped to the number of
    /// batches: a worker beyond the `batches`-th would find the queue
    /// already drained and exit immediately, so asking for more
    /// threads than batches must not occupy idle workers. A single
    /// batch (or a single configured thread) runs on the caller's
    /// thread alone. Neither the clamp nor the budget changes the
    /// estimate — batch `i`'s RNG stream depends only on `(seed, i)`.
    #[must_use]
    pub fn planned_workers(&self) -> usize {
        let batches = self.trials.div_ceil(self.batch_size);
        if self.threads == 1 || batches == 1 {
            1
        } else {
            self.threads
                .min(usize::try_from(batches).unwrap_or(usize::MAX))
        }
    }

    /// The base seed runs derive their batch streams from.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The attached metrics sink (shared with sweeps driven by this
    /// engine).
    pub(crate) fn metrics_sink(&self) -> Arc<dyn MetricsSink> {
        Arc::clone(&self.sink)
    }

    /// Flushes one completed run's counters to the sink (a handful of
    /// virtual calls per run — nothing per trial).
    fn flush_run(&self, totals: BatchTotals, dispatch: &'static str) {
        let sink = &*self.sink;
        sink.add(keys::RUNS, 1);
        sink.add(dispatch, 1);
        sink.add(keys::TRIALS, self.trials);
        sink.add(keys::WINS, totals.wins);
        sink.add(keys::BATCHES, totals.batches);
        sink.add(keys::RNG_DRAWS, totals.draws);
        sink.add(keys::RNG_LANE_BLOCKS, totals.lane_blocks);
    }

    /// Bundles the per-run constants handed to every batch.
    fn trial_params(&self, delta: f64, p_crash: f64) -> TrialParams {
        TrialParams::new(self.seed, self.trials, self.batch_size, delta, p_crash)
    }

    /// Admits a run to the compute budget: the calling thread, plus
    /// the helpers it may add. The one place that decides how many
    /// threads a run gets, for the pooled and the scoped path alike.
    fn admit(&self) -> Admission<'_> {
        self.budget.admit(self.threads, self.planned_workers())
    }

    /// Runs every batch on the calling thread.
    fn run_inline<K: Kernel>(&self, kernel: &K, params: TrialParams, batches: u64) -> BatchTotals {
        let mut totals = BatchTotals::default();
        for batch in 0..batches {
            totals.merge(execute_batch(
                kernel,
                params,
                batch,
                self.chaos.as_deref(),
                &*self.sink,
                Attempt::Coordinator,
            ));
        }
        totals
    }

    /// Runs an owned (`'static`) kernel — inline, or on the persistent
    /// pool when the budget grants helpers.
    fn run_owned<K: Kernel + Send + 'static>(&self, kernel: K, params: TrialParams) -> BatchTotals {
        let batches = params.trials.div_ceil(params.batch_size);
        let admission = self.admit();
        match admission.helpers() {
            0 => self.run_inline(&kernel, params, batches),
            helpers => self.run_pooled(kernel, params, batches, helpers),
        }
    }

    /// Ships an owned kernel to the persistent pool: one pool job per
    /// budgeted helper plus the calling thread drain a shared batch
    /// counter, each completed batch reporting `(index, totals)` back
    /// to this coordinating thread. `helpers` is what the compute
    /// budget granted, at most `planned_workers − 1`; the calling
    /// thread is never one of them.
    ///
    /// The coordinator is the fault boundary. It waits for worker
    /// results under the run deadline only (never unboundedly), keeps
    /// a per-batch completion ledger so duplicates merge exactly once,
    /// and re-executes any batch that never reported — a panicked
    /// drain job, an expired straggler, or work a closed pool refused.
    /// Determinism does not depend on any of this: batch `i`'s RNG
    /// stream is a pure function of `(seed, i)` and the totals are
    /// summed commutatively over exactly one completion per batch.
    fn run_pooled<K: Kernel + Send + 'static>(
        &self,
        kernel: K,
        params: TrialParams,
        batches: u64,
        helpers: usize,
    ) -> BatchTotals {
        contracts::invariant!(
            helpers >= 1 && (helpers as u64) < batches,
            "helper count must be clamped to the batch count"
        );
        let pool = self.pool.get_or_init(|| {
            WorkerPool::spawn(
                PoolConfig::new(self.threads.saturating_sub(1)),
                Arc::clone(&self.sink),
            )
        });
        self.inject_worker_exits(pool);
        let deadline = Deadline::after(self.batch_deadline);
        let run = Arc::new(PooledRun {
            kernel,
            params,
            batches,
            next: AtomicU64::new(0),
            chaos: self.chaos.clone(),
            sink: Arc::clone(&self.sink),
        });
        let (done_out, done_in) = mpsc::channel::<(u64, BatchTotals)>();
        for job_id in 0..helpers as u64 {
            let run = Arc::clone(&run);
            let done_out = done_out.clone();
            let job = Job::new(
                job_id,
                deadline,
                Box::new(move || run.drain_worker(&done_out)),
            );
            if pool.submit(job).is_err() {
                // A closed pool degrades to fewer (or zero) helpers:
                // the shared claim counter below still covers every
                // batch, on the calling thread if need be.
                break;
            }
        }
        drop(done_out);
        // The calling thread pulls its weight instead of blocking.
        let mut ledger = Completion::new(batches);
        loop {
            let batch = run.next.fetch_add(1, Ordering::Relaxed);
            if batch >= batches {
                break;
            }
            let totals = execute_batch(
                &run.kernel,
                params,
                batch,
                self.chaos.as_deref(),
                &*self.sink,
                Attempt::Coordinator,
            );
            ledger.complete(batch, totals);
        }
        // Bounded collection: worker results are taken until all
        // batches completed, every sender hung up (some drain possibly
        // killed by an injected panic), or the run deadline expired.
        while ledger.completed < batches {
            match done_in.recv_timeout(deadline.remaining()) {
                Ok((batch, totals)) => ledger.complete(batch, totals),
                Err(_) => break,
            }
        }
        // Recovery: re-execute every batch that never reported. The
        // batch stream is a pure function of `(seed, batch)`, so the
        // re-run is bit-identical to what the lost worker would have
        // produced; a straggler completing late is discarded by the
        // ledger.
        for batch in 0..batches {
            if !ledger.is_done(batch) {
                self.sink.add(keys::RECOVERED_BATCHES, 1);
                let totals = execute_batch(
                    &run.kernel,
                    params,
                    batch,
                    self.chaos.as_deref(),
                    &*self.sink,
                    Attempt::Coordinator,
                );
                ledger.complete(batch, totals);
            }
        }
        contracts::invariant!(
            ledger.completed == batches,
            "every batch must complete exactly once"
        );
        self.sink.add(keys::POOL_BATCHES, ledger.completed);
        ledger.totals
    }

    /// Delivers the chaos plan's pending worker-exit injections to the
    /// pool, then gives the supervisor a short bounded window to
    /// observe the deaths and respawn replacements. Correctness does
    /// not depend on the window: batches a dead worker never drains
    /// are reclaimed by the coordinator either way.
    fn inject_worker_exits(&self, pool: &WorkerPool) {
        let Some(plan) = &self.chaos else { return };
        let exits = plan.take_worker_exits();
        if exits == 0 {
            return;
        }
        let target = pool.respawn_count().saturating_add(exits);
        for _ in 0..exits {
            if pool.inject_worker_exit().is_err() {
                return;
            }
        }
        // The exit messages kill workers only once dequeued, so poll
        // until the supervisor has respawned one replacement per exit
        // (or the bounded grace window closes, e.g. on an exhausted
        // respawn budget).
        let grace = Deadline::after(Duration::from_millis(500));
        while pool.respawn_count() < target && !grace.expired() {
            std::thread::sleep(Duration::from_millis(1));
            if pool.supervise().is_err() {
                return;
            }
        }
    }

    /// Runs a borrowed kernel — inline, or with per-run scoped helper
    /// threads when the budget grants them. Borrowed kernels (the
    /// [`GenericKernel`] fallback, which holds the caller's rule)
    /// cannot ride the persistent pool, whose jobs must be `'static`.
    ///
    /// Scoped helpers recover injected faults in place (the
    /// [`Attempt::Coordinator`] policy): scope joins are reliable and
    /// stalls are finite, so there is no lost-batch reclaim to
    /// exercise here and every wait stays bounded.
    fn run_borrowed<K: Kernel>(&self, kernel: &K, params: TrialParams) -> BatchTotals {
        let batches = params.trials.div_ceil(params.batch_size);
        let admission = self.admit();
        let helpers = admission.helpers();
        if helpers == 0 {
            return self.run_inline(kernel, params, batches);
        }
        contracts::invariant!(
            (helpers as u64) < batches,
            "helper count must be clamped to the batch count"
        );
        let next_batch = AtomicU64::new(0);
        let drain = || {
            let mut local = BatchTotals::default();
            loop {
                let batch = next_batch.fetch_add(1, Ordering::Relaxed);
                if batch >= batches {
                    return local;
                }
                local.merge(execute_batch(
                    kernel,
                    params,
                    batch,
                    self.chaos.as_deref(),
                    &*self.sink,
                    Attempt::Coordinator,
                ));
            }
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(drain)).collect();
            // The calling thread pulls its weight, then joins; a
            // helper's panic propagates to this thread.
            let mut totals = drain();
            for handle in handles {
                match handle.join() {
                    Ok(local) => totals.merge(local),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            totals
        })
    }
}

/// The Threefry key for a run seeded with `seed`, shared with the
/// instrumented [`load_stats`](crate::load_stats) replay so its draws
/// are bit-identical to the engine's. Batch and trial live in the
/// counter, not the key, so one key covers the whole run.
pub(crate) fn lane_key(seed: u64) -> CounterKey {
    CounterKey::from_seed(seed)
}

/// Runs one batch on the counter-addressed draws, `L` trials (lanes)
/// per inner step. Monomorphized over the kernel and the lane
/// width. Must stay pure per batch — a function of its arguments
/// only — which is what makes chaos re-execution and coordinator
/// reclaim bit-identical.
///
/// Trial `t`'s uniform `(kind, p)` is half `p mod 2` (`0` = high 32
/// bits) of word `(p mod 8) / 2` of the Threefry block at counter
/// `[batch, t, kind · 2³² + p / 8, LANE_STREAM_DOMAIN]` ([`lane_draw`]
/// replays one). For each lane group and each player block `k`, the
/// loop computes the input block for all `L` trials at once, plus the
/// coin block only when the kernel reads coins
/// ([`Kernel::USES_COINS`]) and the fault block only when
/// `p_crash > 0` — so e.g. a threshold rule's crash-free run evaluates
/// one block per eight players. Each word's two halves are converted
/// to their lattice integers `v = 2h + 1` ([`half_to_lattice`]; the
/// draw is `v·2⁻³³`) and folded into the bin sums of their players
/// right away, high half first: no uniform is stored, no row is
/// copied, and the batch allocates nothing. The half index is a
/// constant of the unrolled inner loop, so each conversion is a fixed
/// shift and an OR.
///
/// The whole decision runs on these integers. The kernel compares
/// `v` with its per-player bounds, a player is live iff its fault
/// integer is at least `⌈p_crash·2³³⌉`, and a trial wins iff both bin
/// sums are at most `⌊δ·2³³⌋` (no trial wins when `δ < 0`). The fold
/// is branch-free per player: the crash outcome selects the player's
/// load (`v` or `0`), the decision selects that load or `0` into bin
/// 0, and bin 1 gets the rest, all in `u64` lanes. The selects are
/// [`select_unpredictable`]: a `0`/`!0` mask AND is the same
/// arithmetic, but the compiler folds it back into a plain select
/// and, on the opaque path where the decision comes out of a call,
/// into a branch that mispredicts on every other player. Every step
/// equals the float computation it replaces:
/// each bound is the exact floor or ceiling of a value scaled by a
/// power of two, and the float bin sums were themselves exact: a sum
/// of `n` draws, each below `2³³` units of `2⁻³³`, is a multiple of
/// `2⁻³³` below `n`, which needs at most 40 significant bits at the
/// daemon's limit of 128 players and fits the 53 of an `f64` for any
/// `n < 2²⁰`. The lane tests
/// pin the integer fold against a scalar replay that decides and
/// sums in `f64`, with every bound placed on a lattice point and on
/// either side of it. Players are folded in ascending order, as the
/// replay does. Tail lanes past the batch's trial count are computed
/// and discarded — counter addressing makes the waste harmless and
/// the loop shape uniform.
///
/// [`lane_draw`]: crate::kernel::lane_draw
fn run_lane_batch<K: Kernel, const L: usize>(
    kernel: &K,
    params: TrialParams,
    batch: u64,
) -> BatchTotals {
    contracts::invariant!(
        batch * params.batch_size < params.trials,
        "batch out of range"
    );
    let start = batch * params.batch_size;
    let count = params.batch_size.min(params.trials - start);
    let n = kernel.players();
    let key = lane_key(params.seed);
    let draw_fault = params.p_crash > 0.0;
    let per_player = if draw_fault { 3 } else { 2 };
    let planes = 1 + u64::from(K::USES_COINS) + u64::from(draw_fault);
    let blocks = n.div_ceil(DRAWS_PER_BLOCK);
    let mut wins = 0u64;
    let mut trial0 = 0u64;
    while trial0 < count {
        let mut ctr = [[batch; L], [0; L], [0; L], [LANE_STREAM_DOMAIN; L]];
        for (j, trial) in ctr[1].iter_mut().enumerate() {
            *trial = trial0 + j as u64;
        }
        let mut sum0 = [0u64; L];
        let mut sum1 = [0u64; L];
        for k in 0..blocks {
            let plane = |kind: DrawKind| [((kind as u64) << KIND_SHIFT) | k as u64; L];
            ctr[2] = plane(DrawKind::Input);
            let inputs = threefry4x64_lanes::<L>(&key, &ctr);
            // Coin-blind kernels get a constant placeholder their
            // `sends_to_zero` never reads (USES_COINS contract).
            let coins = if K::USES_COINS {
                ctr[2] = plane(DrawKind::Coin);
                threefry4x64_lanes::<L>(&key, &ctr)
            } else {
                [[0; L]; 4]
            };
            let first = DRAWS_PER_BLOCK * k;
            let players = (n - first).min(DRAWS_PER_BLOCK);
            if draw_fault {
                ctr[2] = plane(DrawKind::Fault);
                let faults = threefry4x64_lanes::<L>(&key, &ctr);
                for w in 0..players.div_ceil(2) {
                    for half in 0..2 {
                        let q = 2 * w + half;
                        if q == players {
                            break;
                        }
                        for j in 0..L {
                            let input = half_to_lattice(inputs[w][j], half);
                            let coin = half_to_lattice(coins[w][j], half);
                            let fault = half_to_lattice(faults[w][j], half);
                            let load = select_unpredictable(fault >= params.live_from, input, 0);
                            let zero = select_unpredictable(
                                kernel.sends_to_zero(first + q, input, coin),
                                load,
                                0,
                            );
                            sum0[j] += zero;
                            sum1[j] += load - zero;
                        }
                    }
                }
            } else {
                for w in 0..players.div_ceil(2) {
                    for half in 0..2 {
                        let q = 2 * w + half;
                        if q == players {
                            break;
                        }
                        for j in 0..L {
                            let input = half_to_lattice(inputs[w][j], half);
                            let coin = half_to_lattice(coins[w][j], half);
                            let zero = select_unpredictable(
                                kernel.sends_to_zero(first + q, input, coin),
                                input,
                                0,
                            );
                            sum0[j] += zero;
                            sum1[j] += input - zero;
                        }
                    }
                }
            }
        }
        if let Some(capacity) = params.capacity {
            let live_lanes = usize::try_from(count - trial0).unwrap_or(L).min(L);
            for j in 0..live_lanes {
                wins += u64::from(sum0[j] <= capacity && sum1[j] <= capacity);
            }
        }
        trial0 += L as u64;
    }
    contracts::invariant!(wins <= count, "batch wins exceed batch size");
    BatchTotals {
        wins,
        // Logical draws (tail-lane waste is compute, not stream
        // consumption — nothing downstream ever sees it).
        draws: count * (n as u64) * per_player as u64,
        lane_blocks: count.div_ceil(L as u64) * blocks as u64 * planes,
        batches: 1,
    }
}

/// SplitMix64 finalizer, decorrelating derived seeds (per grid point
/// in [`crate::sweep_threshold`], per planned fault in the chaos
/// layer).
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::lane_draw;
    use decision::rules::{BinZeroSet, GeneralRule};
    use decision::{ObliviousAlgorithm, SingleThresholdAlgorithm};
    use rational::Rational;

    #[test]
    fn stream_version_is_pinned() {
        // Bump deliberately (with the module-docs history updated)
        // whenever a stream-critical fn changes (v7: v6's draws,
        // decided and summed on their lattice integers).
        assert_eq!(RNG_STREAM_VERSION, 7);
    }

    #[test]
    fn try_new_rejects_zero_trials() {
        assert!(matches!(
            Simulation::try_new(0, 1),
            Err(crate::SimulationError::ZeroTrials)
        ));
        assert!(Simulation::try_new(1, 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn new_panics_on_zero_trials() {
        let _ = Simulation::new(0, 1);
    }

    #[test]
    fn try_with_batch_size_rejects_zero() {
        assert!(matches!(
            Simulation::new(10, 1).try_with_batch_size(0),
            Err(crate::SimulationError::ZeroBatchSize)
        ));
        assert!(Simulation::new(10, 1).try_with_batch_size(1).is_ok());
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn with_batch_size_panics_on_zero() {
        let _ = Simulation::new(10, 1).with_batch_size(0);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let rule = ObliviousAlgorithm::fair(4);
        let base = Simulation::new(100_000, 99).with_threads(1).run(&rule, 1.0);
        for threads in [2usize, 4, 8] {
            let r = Simulation::new(100_000, 99)
                .with_threads(threads)
                .run(&rule, 1.0);
            assert_eq!(r, base, "threads = {threads}");
        }
    }

    #[test]
    fn pool_reuse_keeps_determinism() {
        // One engine, many runs: the pool is spawned once and every
        // later run reuses it without changing any estimate.
        let rule = ObliviousAlgorithm::fair(4);
        let sim = Simulation::new(60_000, 99)
            .with_threads(4)
            .with_batch_size(4_000);
        assert!(sim.pool.get().is_none(), "pool must be lazy");
        let first = sim.run(&rule, 1.0);
        assert!(sim.pool.get().is_some(), "parallel run must spawn the pool");
        for _ in 0..3 {
            assert_eq!(sim.run(&rule, 1.0), first);
        }
        let fresh = Simulation::new(60_000, 99)
            .with_threads(4)
            .with_batch_size(4_000)
            .run(&rule, 1.0);
        assert_eq!(first, fresh);
    }

    #[test]
    fn reseeded_shares_the_pool_and_with_threads_resets_it() {
        let rule = ObliviousAlgorithm::fair(3);
        let sim = Simulation::new(40_000, 5)
            .with_threads(4)
            .with_batch_size(2_000);
        let _ = sim.run(&rule, 1.0);
        let reseeded = sim.reseeded(6);
        assert!(Arc::ptr_eq(&sim.pool, &reseeded.pool));
        assert!(Arc::ptr_eq(&sim.budget, &reseeded.budget));
        assert_eq!(reseeded.run(&rule, 1.0), {
            let fresh = Simulation::new(40_000, 6)
                .with_threads(4)
                .with_batch_size(2_000);
            fresh.run(&rule, 1.0)
        });
        let rethreaded = sim.clone().with_threads(2);
        assert!(!Arc::ptr_eq(&sim.pool, &rethreaded.pool));
        assert!(!Arc::ptr_eq(&sim.budget, &rethreaded.budget));
        let remetered = sim.clone().with_metrics(Arc::new(NoopSink));
        assert!(!Arc::ptr_eq(&sim.budget, &remetered.budget));
        assert!(rethreaded.pool.get().is_none());
    }

    #[test]
    fn worker_count_is_clamped_to_batches() {
        // 3 batches of work: asking for 64 threads plans only 3 workers.
        let sim = Simulation::new(3_000, 7)
            .with_batch_size(1_000)
            .with_threads(64);
        assert_eq!(sim.planned_workers(), 3);
        // A single batch runs sequentially, whatever was requested.
        let sim = Simulation::new(500, 7)
            .with_batch_size(1_000)
            .with_threads(64);
        assert_eq!(sim.planned_workers(), 1);
        // Sequential mode is honoured even with many batches.
        let sim = Simulation::new(3_000, 7)
            .with_batch_size(100)
            .with_threads(1);
        assert_eq!(sim.planned_workers(), 1);
        // With plenty of batches the configured count survives.
        let sim = Simulation::new(100_000, 7)
            .with_batch_size(100)
            .with_threads(8);
        assert_eq!(sim.planned_workers(), 8);
    }

    #[test]
    fn oversubscribed_threads_keep_determinism() {
        // More threads than batches: the clamp must not change the
        // estimate relative to a sequential run.
        let rule = ObliviousAlgorithm::fair(3);
        let base = Simulation::new(30_000, 17)
            .with_batch_size(10_000)
            .with_threads(1)
            .run(&rule, 1.0);
        let clamped = Simulation::new(30_000, 17)
            .with_batch_size(10_000)
            .with_threads(64)
            .run(&rule, 1.0);
        assert_eq!(clamped, base);
    }

    #[test]
    fn different_seeds_differ() {
        let rule = ObliviousAlgorithm::fair(3);
        let a = Simulation::new(50_000, 1).run(&rule, 1.0);
        let b = Simulation::new(50_000, 2).run(&rule, 1.0);
        assert_ne!(a.wins, b.wins);
    }

    /// Hides a rule's structure so the engine takes the
    /// [`KernelHint::Opaque`] fallback path.
    struct Opaque<'a>(&'a dyn decision::LocalRule);

    impl decision::LocalRule for Opaque<'_> {
        fn n(&self) -> usize {
            self.0.n()
        }
        fn decide(&self, player: usize, input: f64, coin: f64) -> decision::Bin {
            self.0.decide(player, input, coin)
        }
    }

    #[test]
    fn opaque_and_hinted_dispatch_are_bit_identical() {
        // Every kernel runs on the same lane loop and the same
        // counter draws, so hiding a rule's structure changes the
        // dispatch but not one bit of the report.
        let threshold = SingleThresholdAlgorithm::symmetric(4, Rational::ratio(5, 8)).unwrap();
        let oblivious = ObliviousAlgorithm::fair(4);
        let rules: [&dyn decision::LocalRule; 2] = [&threshold, &oblivious];
        for rule in rules {
            for p_crash in [0.0, 0.3] {
                let sim = Simulation::new(40_000, 31).with_batch_size(3_000);
                assert_eq!(
                    sim.run_with_crashes(&Opaque(rule), 1.0, p_crash),
                    sim.run_with_crashes(rule, 1.0, p_crash),
                    "p_crash {p_crash}"
                );
            }
        }
    }

    /// An `f64` decision oracle for the replay: `true` = bin 0.
    type Decide<'a> = &'a dyn Fn(usize, f64, f64) -> bool;

    /// The branchy scalar reference for one lane batch, in `f64`
    /// throughout: every draw replayed one block at a time through
    /// `lane_draw`, crashed players skipped with `continue`, each
    /// surviving input added to the bin `decide` names, and the float
    /// bin sums compared with `δ`.
    fn replay_lane_batch(n: usize, decide: Decide<'_>, params: TrialParams, batch: u64) -> u64 {
        let key = lane_key(params.seed);
        let count = params
            .batch_size
            .min(params.trials - batch * params.batch_size);
        let mut wins = 0;
        for trial in 0..count {
            let mut sums = [0.0f64; 2];
            for player in 0..n {
                let draw = |kind| lane_draw(&key, batch, trial, kind, player);
                if params.p_crash > 0.0 && draw(DrawKind::Fault) < params.p_crash {
                    continue;
                }
                let input = draw(DrawKind::Input);
                if decide(player, input, draw(DrawKind::Coin)) {
                    sums[0] += input;
                } else {
                    sums[1] += input;
                }
            }
            wins += u64::from(sums[0] <= params.delta && sums[1] <= params.delta);
        }
        wins
    }

    /// Runs every batch of `params` on the lane loop at width `L`,
    /// asserting each batch's wins equal the `f64` replay's.
    fn check<K: Kernel, const L: usize>(
        kernel: &K,
        decide: Decide<'_>,
        params: TrialParams,
    ) -> u64 {
        let mut wins = 0;
        for batch in 0..params.trials.div_ceil(params.batch_size) {
            let lane = run_lane_batch::<K, L>(kernel, params, batch).wins;
            let replay = replay_lane_batch(kernel.players(), decide, params, batch);
            assert_eq!(
                lane,
                replay,
                "L={L} n={} batch {batch} p_crash {} delta {}",
                kernel.players(),
                params.p_crash,
                params.delta
            );
            wins += lane;
        }
        wins
    }

    /// The lane wins of `params` at widths 1, 8 and `LANES` (the
    /// engine's), each checked batch by batch against the replay.
    fn lane_wins<K: Kernel>(kernel: &K, decide: Decide<'_>, params: TrialParams) -> u64 {
        let wins = check::<K, LANES>(kernel, decide, params);
        assert_eq!(check::<K, 1>(kernel, decide, params), wins);
        assert_eq!(check::<K, 8>(kernel, decide, params), wins);
        wins
    }

    #[test]
    fn lane_batches_match_a_branchy_scalar_replay() {
        // The fused lane loop — blocks consumed in registers, integer
        // selects instead of branches, two draws per word — must count
        // exactly the wins of the f64 scalar replay at every width
        // (W1 and W8 against the engine's W16), for both hinted
        // kernels and the opaque fallback, with and without crashes.
        // The player counts cover an unused low half (5, 7, 9, 17), a
        // full block (8, 16) and the first players of a second or
        // third block (9, 17); 237 trials in batches of 160 leave a
        // 77-trial tail batch, a multiple of neither 8 nor 16.
        fn all_widths<K: Kernel>(kernel: &K, decide: Decide<'_>, params: TrialParams) {
            let wins = lane_wins(kernel, decide, params);
            // Neither all nor nothing: the comparison has teeth.
            assert!(0 < wins && wins < params.trials, "wins {wins}");
        }
        // Bin 0 on [0, 1/4] ∪ [3/4, 1]: no threshold or coin shape.
        let middle_out = BinZeroSet::new(vec![
            (Rational::zero(), Rational::ratio(1, 4)),
            (Rational::ratio(3, 4), Rational::one()),
        ])
        .unwrap();
        for n in [5usize, 7, 8, 9, 16, 17] {
            // Per-player parameters that differ, so a player read
            // from the wrong slot changes decisions.
            let spread = |lo: f64, step: f64| -> Vec<f64> {
                (0..n).map(|p| lo + step * ((p * 7) % 11) as f64).collect()
            };
            let (thresholds, alpha) = (spread(0.35, 0.05), spread(0.25, 0.05));
            let threshold = ThresholdKernel::new(thresholds.clone());
            let oblivious = ObliviousKernel::new(alpha.clone());
            let general = GeneralRule::new(vec![middle_out.clone(); n]).unwrap();
            for p_crash in [0.0, 0.3] {
                // About a third of the players fit each bin.
                let params = TrialParams::new(17, 237, 160, n as f64 / 3.0, p_crash);
                all_widths(&threshold, &|p, x, _| x <= thresholds[p], params);
                all_widths(&oblivious, &|p, _, c| c < alpha[p], params);
                all_widths(
                    &GenericKernel(&general),
                    &|p, x, c| general.decide(p, x, c) == decision::Bin::Zero,
                    params,
                );
            }
        }
    }

    #[test]
    fn lane_batches_match_the_replay_on_lattice_edges() {
        // Each bound — a threshold, a coin probability, the crash
        // rate, δ — sits on a draw (or a bin sum) of one pivot trial,
        // one lattice step 2⁻³³ either side of it, and half a step
        // either side, where ⌊·⌋ and ⌈·⌉ differ. Every other
        // parameter is set so that the pivot trial wins exactly when
        // that one comparison goes its way: an off-by-one bound or a
        // flipped strictness changes the pivot trial's outcome, which
        // the f64 replay then catches.
        const STEP: f64 = 1.0 / 8_589_934_592.0;
        const OFFSETS: [f64; 5] = [-STEP, -STEP / 2.0, 0.0, STEP / 2.0, STEP];
        /// Asserts that, across `OFFSETS`, the wins move exactly as
        /// the pivot trial's outcome `pivot_wins` does.
        fn assert_pivot_flips(wins: [u64; 5], pivot_wins: [bool; 5], what: &str) {
            let rest: Vec<u64> = wins
                .iter()
                .zip(pivot_wins)
                .map(|(&w, pivot)| w.wrapping_sub(u64::from(pivot)))
                .collect();
            assert!(
                rest.windows(2).all(|w| w[0] == w[1]),
                "{what}: wins {wins:?}, pivot trial should win {pivot_wins:?}"
            );
        }
        let (seed, pivot_batch, pivot_trial, n) = (17, 1, 5, 9);
        let key = lane_key(seed);
        let pivot = |kind, player| lane_draw(&key, pivot_batch, pivot_trial, kind, player);
        let params = |delta, p_crash| TrialParams::new(seed, 237, 160, delta, p_crash);
        let inputs: Vec<f64> = (0..n).map(|p| pivot(DrawKind::Input, p)).collect();
        let total: f64 = inputs.iter().sum();
        let others = total - inputs[0];
        let all_zero = ThresholdKernel::new(vec![1.0; n]);
        let to_zero = |_: usize, _: f64, _: f64| true;
        let with_first = |first: f64| -> Vec<f64> {
            let mut values = vec![1.0; n];
            values[0] = first;
            values
        };

        // Player 0's threshold on its pivot input, everyone else in
        // bin 0 and δ the others' sum: the pivot trial wins iff player
        // 0 goes to bin 1, i.e. iff its input exceeds the threshold.
        let wins = OFFSETS.map(|offset| {
            let thresholds = with_first(inputs[0] + offset);
            let decide = |p: usize, x: f64, _: f64| x <= thresholds[p];
            let wins = lane_wins(
                &ThresholdKernel::new(thresholds.clone()),
                &decide,
                params(others, 0.0),
            );
            let exact: Vec<Rational> = thresholds
                .iter()
                .map(|&t| Rational::from_f64_exact(t).unwrap())
                .collect();
            let rule = SingleThresholdAlgorithm::new(exact).unwrap();
            assert_eq!(
                lane_wins(&GenericKernel(&rule), &decide, params(others, 0.0)),
                wins
            );
            wins
        });
        assert_pivot_flips(wins, [true, true, false, false, false], "threshold");

        // Player 0's coin probability on its pivot coin: bin 0 iff
        // the coin is strictly below it.
        let coin = pivot(DrawKind::Coin, 0);
        let wins = OFFSETS.map(|offset| {
            let alpha = with_first(coin + offset);
            let decide = |p: usize, _: f64, c: f64| c < alpha[p];
            let wins = lane_wins(
                &ObliviousKernel::new(alpha.clone()),
                &decide,
                params(others, 0.0),
            );
            let exact: Vec<Rational> = alpha
                .iter()
                .map(|&a| Rational::from_f64_exact(a).unwrap())
                .collect();
            let rule = ObliviousAlgorithm::new(exact).unwrap();
            assert_eq!(
                lane_wins(&GenericKernel(&rule), &decide, params(others, 0.0)),
                wins
            );
            wins
        });
        assert_pivot_flips(wins, [true, true, true, false, false], "coin probability");

        // δ on the pivot trial's whole load, everyone in bin 0.
        let wins =
            OFFSETS.map(|offset| lane_wins(&all_zero, &to_zero, params(total + offset, 0.0)));
        assert_pivot_flips(wins, [false, false, true, true, true], "delta");

        // The crash rate on player 0's pivot fault coin, everyone in
        // bin 0 and δ the load of the other live players: the pivot
        // trial wins iff player 0 crashes, i.e. iff its fault coin is
        // strictly below the rate. Distinct draws lie at least two
        // steps apart, so no other player's fate moves.
        let fault = pivot(DrawKind::Fault, 0);
        let live_others: f64 = (1..n)
            .filter(|&p| pivot(DrawKind::Fault, p) >= fault)
            .map(|p| inputs[p])
            .sum();
        let wins = OFFSETS
            .map(|offset| lane_wins(&all_zero, &to_zero, params(live_others, fault + offset)));
        assert_pivot_flips(wins, [false, false, false, true, true], "crash rate");

        // δ ≤ 0: only a trial whose players all crashed can win, and
        // only when δ is not negative. A bound saturated to 0 would
        // let an empty trial win at a negative δ.
        for delta in [0.0, -0.0, -STEP / 2.0, -STEP, -1.0, f64::NAN] {
            for p_crash in [0.0, 1.0] {
                let wins = lane_wins(&all_zero, &to_zero, params(delta, p_crash));
                let expected = if delta >= 0.0 && p_crash == 1.0 {
                    237
                } else {
                    0
                };
                assert_eq!(wins, expected, "delta {delta}, p_crash {p_crash}");
            }
        }
    }

    #[test]
    fn estimates_known_oblivious_value() {
        // n = 2, δ = 1, fair coins: exact 3/4.
        let rule = ObliviousAlgorithm::fair(2);
        let r = Simulation::new(400_000, 5).run(&rule, 1.0);
        assert!(r.agrees_with(0.75, 4.0), "{r}");
    }

    #[test]
    fn estimates_known_threshold_value() {
        // n = 3, β = 1/2, δ = 1: exact 23/48.
        let rule = SingleThresholdAlgorithm::symmetric(3, Rational::ratio(1, 2)).unwrap();
        let r = Simulation::new(400_000, 11).run(&rule, 1.0);
        assert!(r.agrees_with(23.0 / 48.0, 4.0), "{r}");
    }

    #[test]
    fn crash_estimates_match_exact_mixture() {
        // Exact mixture value from decision::faults, n = 3, β = 5/8,
        // δ = 1, crash probability 1/4.
        let rule = SingleThresholdAlgorithm::symmetric(3, Rational::ratio(5, 8)).unwrap();
        let exact = decision::faults::threshold_with_crashes(
            &rule,
            &decision::Capacity::unit(),
            &Rational::ratio(1, 4),
        )
        .unwrap()
        .to_f64();
        let r = Simulation::new(400_000, 23).run_with_crashes(&rule, 1.0, 0.25);
        assert!(r.agrees_with(exact, 4.5), "exact {exact}, {r}");
    }

    #[test]
    fn more_crashes_help_with_tight_capacity() {
        let rule = ObliviousAlgorithm::fair(5);
        // Crash coins have their own counter plane, so both fault
        // rates see the same inputs and coins (common random
        // numbers), isolating the effect of the crashes themselves.
        let sim = Simulation::new(150_000, 4);
        let reliable = sim.run_with_crashes(&rule, 1.0, 0.0);
        let flaky = sim.run_with_crashes(&rule, 1.0, 0.5);
        assert!(flaky.estimate > reliable.estimate);
    }

    #[test]
    #[should_panic(expected = "crash probability range")]
    fn crash_probability_validated() {
        let rule = ObliviousAlgorithm::fair(2);
        let _ = Simulation::new(10, 1).run_with_crashes(&rule, 1.0, 1.5);
    }

    #[test]
    fn certain_win_when_capacity_huge() {
        let rule = ObliviousAlgorithm::fair(4);
        let r = Simulation::new(10_000, 3).run(&rule, 4.0);
        assert_eq!(r.wins, r.trials);
    }

    #[test]
    fn batch_size_does_not_change_trial_count() {
        let rule = ObliviousAlgorithm::fair(2);
        for batch in [1_000u64, 7_777, 1 << 20] {
            let r = Simulation::new(12_345, 8)
                .with_batch_size(batch)
                .run(&rule, 1.0);
            assert_eq!(r.trials, 12_345);
        }
    }
}
