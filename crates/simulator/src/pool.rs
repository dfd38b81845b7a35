//! A supervised, persistent worker pool owned by
//! [`Simulation`](crate::Simulation).
//!
//! The v1 engine spawned fresh scoped threads for every `run` call,
//! so a threshold sweep paid thread start-up once per grid point. The
//! pool amortizes that cost: workers are spawned once (lazily, on the
//! first parallel run) and reused for every subsequent run of the
//! same engine — including all grid points of a sweep.
//!
//! # Supervision
//!
//! v2 makes the pool survive its own workers. Every [`submit`] first
//! runs the supervisor: finished (dead) worker threads are detected
//! via [`JoinHandle::is_finished`] and replaced, with capped
//! exponential backoff between respawns and a hard respawn budget.
//! Only when *no* live worker remains and the budget is exhausted does
//! `submit` fail — with [`SimulationError::PoolClosed`], never
//! silently — so callers fail fast instead of hanging on their own
//! completion channels.
//!
//! Every [`Job`] carries an id and a [`Deadline`]; a worker discards
//! jobs whose deadline already passed (the submitting run has given up
//! and reclaimed the work), so a backed-up queue cannot waste time on
//! results nobody is waiting for.
//!
//! # Compute budget
//!
//! Clones of one engine share the pool, and a server runs many of
//! them at once, so "every run recruits `threads − 1` helpers" would
//! put `runs × threads` threads on `threads` cores. Every engine
//! therefore owns one [`ComputeBudget`] of `threads` batch-executing
//! threads, shared by every clone that shares the pool. A run's
//! calling thread always executes batches (so no run ever waits for
//! budget) and counts against it; the run then adds pool helpers only
//! for budget that is idle when it starts ([`helpers_for`]), and
//! returns caller and helpers to the budget when it completes.
//!
//! Determinism is unaffected by pooling, budgeting, supervision, or
//! respawns. Each batch's RNG stream is a pure function of
//! `(seed, batch)` and win counts are summed commutatively, so
//! *which* thread executes a batch — the caller, a helper, or a
//! replacement worker — cannot change the report.
//!
//! # Observability
//!
//! Workers account for themselves into the engine's
//! [`MetricsSink`]: jobs executed, panics recovered, respawns,
//! expired jobs, wall-clock busy and idle time (see
//! [`keys`](crate::keys)). The accounting is per *job* — two
//! `Instant` reads and a handful of counter adds around each closure,
//! nothing inside the Monte-Carlo loop — so the hot path is
//! unchanged.
//!
//! [`submit`]: WorkerPool::submit
//! [`SimulationError::PoolClosed`]: crate::SimulationError::PoolClosed

use crate::metrics::keys;
use crate::SimulationError;
use obs::{Deadline, MetricsSink, SpanTimer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How many helpers a run may add beside its calling thread: its
/// planned parallelism minus the caller, capped by the budget left
/// idle once the caller itself is counted in `executing`.
fn helpers_for(planned_workers: usize, threads: usize, executing: usize) -> usize {
    planned_workers
        .saturating_sub(1)
        .min(threads.saturating_sub(executing))
}

/// An engine's compute budget: how many threads are executing its
/// batches right now — callers, pool helpers and scoped helpers
/// alike — measured against the engine's `threads`.
#[derive(Debug, Default)]
pub(crate) struct ComputeBudget {
    executing: AtomicUsize,
}

/// The threads one run may use: its calling thread, always, and the
/// helpers the budget had idle when the run started. All of them
/// count as executing until the admission drops at the end of the run.
#[derive(Debug)]
pub(crate) struct Admission<'a> {
    budget: &'a ComputeBudget,
    helpers: usize,
}

impl Admission<'_> {
    /// Helper threads granted beside the calling thread.
    pub(crate) fn helpers(&self) -> usize {
        self.helpers
    }
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        self.budget
            .executing
            .fetch_sub(1 + self.helpers, Ordering::AcqRel);
    }
}

impl ComputeBudget {
    /// Admits a run planned for `planned_workers` threads on an engine
    /// of `threads`: counts the calling thread, then reserves
    /// [`helpers_for`] helpers in one atomic step, so concurrent
    /// admissions never hand out the same idle thread twice.
    pub(crate) fn admit(&self, threads: usize, planned_workers: usize) -> Admission<'_> {
        let mut executing = self.executing.fetch_add(1, Ordering::AcqRel) + 1;
        let helpers = loop {
            let helpers = helpers_for(planned_workers, threads, executing);
            if helpers == 0 {
                break 0;
            }
            match self.executing.compare_exchange_weak(
                executing,
                executing + helpers,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break helpers,
                Err(now) => executing = now,
            }
        };
        Admission {
            budget: self,
            helpers,
        }
    }

    /// Threads currently counted as executing batches.
    #[cfg(test)]
    pub(crate) fn executing(&self) -> usize {
        self.executing.load(Ordering::Acquire)
    }
}

/// The closure a job runs.
type Work = Box<dyn FnOnce() + Send + 'static>;

/// A unit of work shipped to a pool worker, tagged with an id and the
/// submitting run's deadline.
pub(crate) struct Job {
    id: u64,
    deadline: Deadline,
    work: Work,
}

impl Job {
    /// Wraps a closure with its id and deadline.
    pub(crate) fn new(id: u64, deadline: Deadline, work: Work) -> Job {
        Job { id, deadline, work }
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.id)
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

/// What travels on the queue: work, or an injected worker death (used
/// by the chaos layer to exercise the supervisor).
enum Message {
    Job(Job),
    Exit,
}

/// Supervision policy: pool size, respawn budget, and backoff shape.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PoolConfig {
    /// Worker threads the pool maintains.
    pub(crate) workers: usize,
    /// Total respawns allowed over the pool's lifetime; when spent,
    /// dead workers stay dead and an empty pool reports
    /// [`SimulationError::PoolClosed`].
    pub(crate) max_respawns: u32,
    /// Backoff before the `k`-th respawn is `base * 2^k`, capped.
    pub(crate) backoff_base: Duration,
    /// Upper bound on any single backoff sleep.
    pub(crate) backoff_cap: Duration,
}

impl PoolConfig {
    /// The default policy for an engine pool of `workers` threads: a
    /// generous respawn budget with millisecond-scale backoff.
    pub(crate) fn new(workers: usize) -> PoolConfig {
        PoolConfig {
            workers,
            max_respawns: 64,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(250),
        }
    }

    /// The capped exponential backoff before respawn number `respawn`.
    fn backoff(&self, respawn: u32) -> Duration {
        let factor = 2u32.saturating_pow(respawn.min(16));
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
    }
}

/// Mutable supervision state, behind one mutex.
struct Supervisor {
    handles: Vec<JoinHandle<()>>,
    respawns: u32,
    next_worker: usize,
}

/// A supervised set of long-lived worker threads consuming jobs from
/// a shared queue.
pub(crate) struct WorkerPool {
    /// Wrapped in `Option` so `Drop` can close the channel (by
    /// dropping the sender) before joining the workers.
    sender: Option<Sender<Message>>,
    /// Shared with every worker — and kept here so respawned workers
    /// can be wired to the same queue.
    receiver: Arc<Mutex<Receiver<Message>>>,
    config: PoolConfig,
    supervisor: Mutex<Supervisor>,
    sink: Arc<dyn MetricsSink>,
}

impl WorkerPool {
    /// Spawns the initial workers, each parked on the shared job queue
    /// and reporting into `sink`.
    pub(crate) fn spawn(config: PoolConfig, sink: Arc<dyn MetricsSink>) -> WorkerPool {
        let (sender, receiver) = mpsc::channel::<Message>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..config.workers)
            .map(|i| spawn_worker(Arc::clone(&receiver), Arc::clone(&sink), i))
            .collect();
        WorkerPool {
            sender: Some(sender),
            receiver,
            config,
            supervisor: Mutex::new(Supervisor {
                handles,
                respawns: 0,
                next_worker: config.workers,
            }),
            sink,
        }
    }

    /// Number of worker threads the pool is configured to maintain.
    pub(crate) fn size(&self) -> usize {
        self.config.workers
    }

    /// Total respawns the supervisor has performed so far.
    pub(crate) fn respawn_count(&self) -> u32 {
        self.lock_supervisor().respawns
    }

    /// Number of workers currently alive (not yet observed dead).
    #[cfg(test)]
    pub(crate) fn live_workers(&self) -> usize {
        let mut sup = self.lock_supervisor();
        sup.handles.retain(|h| !h.is_finished());
        sup.handles.len()
    }

    /// Enqueues a job, respawning dead workers first.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::PoolClosed`] when no live worker
    /// remains and the respawn budget is exhausted — the job would sit
    /// on the queue forever, so the caller must fail fast (or absorb
    /// the work itself) instead of waiting on a completion channel
    /// that will never fire.
    pub(crate) fn submit(&self, job: Job) -> Result<(), SimulationError> {
        self.supervise()?;
        let Some(sender) = &self.sender else {
            return Err(SimulationError::PoolClosed);
        };
        sender
            .send(Message::Job(job))
            .map_err(|_| SimulationError::PoolClosed)
    }

    /// Runs one supervision pass: reap finished workers and respawn
    /// replacements under the backoff policy.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::PoolClosed`] when the pool has no
    /// live workers and no respawn budget left.
    pub(crate) fn supervise(&self) -> Result<(), SimulationError> {
        let mut sup = self.lock_supervisor();
        sup.handles.retain(|h| !h.is_finished());
        while sup.handles.len() < self.config.workers {
            if sup.respawns >= self.config.max_respawns {
                if sup.handles.is_empty() {
                    return Err(SimulationError::PoolClosed);
                }
                // Degraded but live: fewer workers, same semantics.
                break;
            }
            let delay = self.config.backoff(sup.respawns);
            sup.respawns += 1;
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            let worker = sup.next_worker;
            sup.next_worker += 1;
            sup.handles.push(spawn_worker(
                Arc::clone(&self.receiver),
                Arc::clone(&self.sink),
                worker,
            ));
            self.sink.add(keys::POOL_RESPAWNS, 1);
        }
        Ok(())
    }

    /// Asks one worker to exit (chaos injection): the next worker to
    /// dequeue the message dies, leaving the supervisor to notice and
    /// respawn it.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::PoolClosed`] if the queue is closed.
    pub(crate) fn inject_worker_exit(&self) -> Result<(), SimulationError> {
        let Some(sender) = &self.sender else {
            return Err(SimulationError::PoolClosed);
        };
        sender
            .send(Message::Exit)
            .map_err(|_| SimulationError::PoolClosed)
    }

    /// The supervisor lock, recovered from poisoning: the state it
    /// guards (join handles and counters) stays consistent even if a
    /// holder panicked between updates.
    fn lock_supervisor(&self) -> std::sync::MutexGuard<'_, Supervisor> {
        self.supervisor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel makes every worker's `recv` fail, which
        // ends its loop.
        drop(self.sender.take());
        // Take the handles out under the lock but join with it
        // released: anything still holding a `&WorkerPool` (a
        // concurrent `respawn_count` probe, a metrics reader) must not
        // be blocked behind the shutdown joins.
        let handles: Vec<JoinHandle<()>> = self.lock_supervisor().handles.drain(..).collect();
        for handle in handles {
            // A worker that panicked in a job already surfaced the
            // failure to the submitting run; nothing more to do here.
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.size())
            .finish()
    }
}

/// Starts one worker thread on the shared queue.
fn spawn_worker(
    receiver: Arc<Mutex<Receiver<Message>>>,
    sink: Arc<dyn MetricsSink>,
    index: usize,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("sim-worker-{index}"))
        .spawn(move || worker_loop(&receiver, &*sink))
        // xtask:allow(no-panic): thread spawn failure is unrecoverable resource exhaustion
        .expect("failed to spawn simulator worker thread")
}

/// Worker body: pull messages until the channel closes or an exit is
/// injected, accounting for busy/idle time and recovered panics as it
/// goes.
fn worker_loop(receiver: &Arc<Mutex<Receiver<Message>>>, sink: &dyn MetricsSink) {
    loop {
        // Idle span: waiting on the queue (including lock contention).
        let idle = SpanTimer::start(&obs::NoopSink, keys::POOL_IDLE_NS);
        // The lock guard is dropped before the job runs, so a panic
        // inside a job can never poison the queue for other workers.
        let message = {
            let Ok(guard) = receiver.lock() else { return };
            // xtask:allow(lock-discipline): shared-Receiver handoff — exactly one worker may sit in recv, and the queue lock is what elects it
            guard.recv()
        };
        sink.add(keys::POOL_IDLE_NS, idle.elapsed_ns());
        match message {
            Ok(Message::Job(job)) => {
                if job.deadline.expired() {
                    // The submitting run has already given up on this
                    // job and reclaimed its batches; running it now
                    // would produce results nobody collects.
                    sink.add(keys::POOL_EXPIRED_JOBS, 1);
                    continue;
                }
                // The worker outlives a panicking job: the job's own
                // completion channel (dropped during unwind) reports
                // the failure to the run that submitted it, and the
                // pool stays usable for later runs. Jobs only own
                // their kernel, batch counter, and a sender, so
                // crossing the unwind boundary cannot expose broken
                // state.
                let span = SpanTimer::start(sink, keys::POOL_JOB_SPAN_NS);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job.work));
                sink.add(keys::POOL_BUSY_NS, span.elapsed_ns());
                sink.add(keys::POOL_JOBS, 1);
                if outcome.is_err() {
                    sink.add(keys::POOL_PANICS, 1);
                }
            }
            // An injected worker death (exactly like a crashed thread:
            // leave without draining further messages) — or the pool
            // closing the queue.
            Ok(Message::Exit) | Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::NoopSink;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    fn noop() -> Arc<dyn MetricsSink> {
        Arc::new(NoopSink)
    }

    /// A job with a generous deadline, for tests that exercise the
    /// queue rather than expiry.
    fn job(work: impl FnOnce() + Send + 'static) -> Job {
        Job::new(0, Deadline::after(Duration::from_mins(1)), Box::new(work))
    }

    /// Polls until `pool` observes `live` live workers (bounded).
    fn wait_for_live(pool: &WorkerPool, live: usize) {
        let deadline = Deadline::after(Duration::from_secs(10));
        while pool.live_workers() != live {
            assert!(!deadline.expired(), "worker liveness never settled");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn the_budget_adds_helpers_only_onto_idle_threads() {
        // Two cores: a lone run gets its helper, a run that starts
        // while it executes runs on its caller alone.
        let budget = ComputeBudget::default();
        let first = budget.admit(2, 2);
        assert_eq!(first.helpers(), 1);
        let second = budget.admit(2, 2);
        assert_eq!(second.helpers(), 0);
        assert_eq!(budget.executing(), 3, "callers always count");
        drop((first, second));
        assert_eq!(budget.executing(), 0);

        // Eight cores: 7 helpers alone; a second run gets none while
        // they are busy, and a third gets 6 once they are free (the
        // second run's caller still executes).
        let first = budget.admit(8, 8);
        assert_eq!(first.helpers(), 7);
        let second = budget.admit(8, 8);
        assert_eq!(second.helpers(), 0);
        drop(first);
        let third = budget.admit(8, 8);
        assert_eq!(third.helpers(), 6);
        drop((second, third));
        assert_eq!(budget.executing(), 0);

        // The planned-workers clamp still bounds the helpers.
        assert_eq!(budget.admit(8, 3).helpers(), 2);
        assert_eq!(budget.admit(8, 1).helpers(), 0);
        assert_eq!(budget.admit(1, 1).helpers(), 0);
        assert_eq!(budget.executing(), 0);
    }

    #[test]
    fn concurrent_admissions_never_overcommit_helpers() {
        // A helper is granted only from idle budget, and every caller
        // counts, so however admissions interleave the helpers out at
        // once never exceed `threads − 1`.
        let threads = 3;
        let budget = ComputeBudget::default();
        let helpers_out = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..2_000 {
                        let admission = budget.admit(threads, threads);
                        let granted = admission.helpers();
                        let out = helpers_out.fetch_add(granted, Ordering::AcqRel) + granted;
                        assert!(out < threads, "{out} helpers out of {threads} threads");
                        // Hold the grant across a reschedule so the
                        // callers' runs overlap.
                        std::thread::yield_now();
                        helpers_out.fetch_sub(granted, Ordering::AcqRel);
                        drop(admission);
                    }
                });
            }
        });
        assert_eq!(budget.executing(), 0);
    }

    #[test]
    fn pool_runs_all_submitted_jobs() {
        let pool = WorkerPool::spawn(PoolConfig::new(3), noop());
        assert_eq!(pool.size(), 3);
        let counter = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = mpsc::channel();
        for _ in 0..50 {
            let counter = Arc::clone(&counter);
            let done_tx = done_tx.clone();
            pool.submit(job(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                let _ = done_tx.send(());
            }))
            .unwrap();
        }
        drop(done_tx);
        for _ in 0..50 {
            done_rx.recv().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn pool_is_reusable_across_submission_rounds() {
        let pool = WorkerPool::spawn(PoolConfig::new(2), noop());
        for round in 0..4 {
            let (done_tx, done_rx) = mpsc::channel();
            for j in 0..8 {
                let done_tx = done_tx.clone();
                pool.submit(job(move || {
                    let _ = done_tx.send(round * 8 + j);
                }))
                .unwrap();
            }
            drop(done_tx);
            let mut got: Vec<usize> = done_rx.iter().collect();
            got.sort_unstable();
            let want: Vec<usize> = (round * 8..round * 8 + 8).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn dropping_the_pool_joins_workers_cleanly() {
        let pool = WorkerPool::spawn(PoolConfig::new(2), noop());
        let (done_tx, done_rx) = mpsc::channel();
        pool.submit(job(move || {
            let _ = done_tx.send(());
        }))
        .unwrap();
        done_rx.recv().unwrap();
        drop(pool);
    }

    #[test]
    fn job_panic_does_not_wedge_the_queue() {
        let pool = WorkerPool::spawn(PoolConfig::new(1), noop());
        pool.submit(job(|| panic!("job failure"))).unwrap();
        // The single worker must survive (the queue lock is released
        // before the job body runs) and process the follow-up job.
        let (done_tx, done_rx) = mpsc::channel();
        pool.submit(job(move || {
            let _ = done_tx.send(());
        }))
        .unwrap();
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("worker should survive a panicking job");
    }

    #[test]
    fn workers_account_jobs_and_panics_into_the_sink() {
        let metrics = Arc::new(crate::EngineMetrics::new());
        let pool = WorkerPool::spawn(PoolConfig::new(1), metrics.clone());
        pool.submit(job(|| panic!("job failure"))).unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        pool.submit(job(move || {
            let _ = done_tx.send(());
        }))
        .unwrap();
        done_rx.recv().unwrap();
        drop(pool); // joins the worker, so the counts below are final
        let snap = metrics.snapshot();
        assert_eq!(snap.pool_jobs, 2);
        assert_eq!(snap.pool_panics, 1);
        assert_eq!(snap.pool_job_ns.count, 2);
        assert!(snap.pool_busy_ns > 0);
    }

    #[test]
    fn expired_jobs_are_discarded_not_run() {
        let metrics = Arc::new(crate::EngineMetrics::new());
        let pool = WorkerPool::spawn(PoolConfig::new(1), metrics.clone());
        // Already expired on arrival: the worker must drop it.
        pool.submit(Job::new(
            0,
            Deadline::after(Duration::ZERO),
            Box::new(|| panic!("an expired job must never run")),
        ))
        .unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        pool.submit(job(move || {
            let _ = done_tx.send(());
        }))
        .unwrap();
        done_rx.recv().unwrap();
        drop(pool);
        let snap = metrics.snapshot();
        assert_eq!(snap.pool_expired_jobs, 1);
        assert_eq!(snap.pool_jobs, 1, "only the live job executed");
        assert_eq!(snap.pool_panics, 0);
    }

    #[test]
    fn killed_workers_are_respawned_with_backoff() {
        let metrics = Arc::new(crate::EngineMetrics::new());
        let pool = WorkerPool::spawn(PoolConfig::new(2), metrics.clone());
        pool.inject_worker_exit().unwrap();
        wait_for_live(&pool, 1);
        // The next submit supervises first: the dead worker is
        // replaced and the job still runs.
        let (done_tx, done_rx) = mpsc::channel();
        pool.submit(job(move || {
            let _ = done_tx.send(());
        }))
        .unwrap();
        done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        wait_for_live(&pool, 2);
        drop(pool);
        assert!(metrics.snapshot().pool_respawns >= 1);
    }

    #[test]
    fn respawn_budget_is_capped() {
        let config = PoolConfig {
            workers: 1,
            max_respawns: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
        };
        let pool = WorkerPool::spawn(config, noop());
        for expected_live in [1usize, 1] {
            pool.inject_worker_exit().unwrap();
            wait_for_live(&pool, 0);
            pool.supervise().unwrap();
            wait_for_live(&pool, expected_live);
        }
        // Budget spent: the third death is final.
        pool.inject_worker_exit().unwrap();
        wait_for_live(&pool, 0);
        assert!(matches!(pool.supervise(), Err(SimulationError::PoolClosed)));
    }

    #[test]
    fn dead_pool_errors_instead_of_deadlocking() {
        // Regression guard for the silent-drop submit: a pool whose
        // workers have all died (and cannot respawn) must report
        // PoolClosed instead of queueing the job forever. The whole
        // check runs under its own watchdog so a regression fails the
        // test rather than hanging the suite.
        let config = PoolConfig {
            workers: 1,
            max_respawns: 0,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
        };
        let pool = WorkerPool::spawn(config, noop());
        pool.inject_worker_exit().unwrap();
        wait_for_live(&pool, 0);
        let (verdict_tx, verdict_rx) = mpsc::channel();
        let guarded = std::thread::spawn(move || {
            let outcome = pool.submit(job(|| unreachable!("no worker may run this")));
            let _ = verdict_tx.send(outcome);
        });
        let outcome = verdict_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("submit must return, not deadlock");
        assert!(matches!(outcome, Err(SimulationError::PoolClosed)));
        guarded.join().unwrap();
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let config = PoolConfig {
            workers: 1,
            max_respawns: 100,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(8),
        };
        assert_eq!(config.backoff(0), Duration::from_millis(1));
        assert_eq!(config.backoff(1), Duration::from_millis(2));
        assert_eq!(config.backoff(2), Duration::from_millis(4));
        assert_eq!(config.backoff(3), Duration::from_millis(8));
        assert_eq!(config.backoff(10), Duration::from_millis(8), "capped");
        assert_eq!(config.backoff(u32::MAX), Duration::from_millis(8));
    }

    #[test]
    fn respawned_worker_drains_a_backlog() {
        // Jobs queued while the sole worker is dead must still run
        // once the supervisor replaces it.
        let pool = WorkerPool::spawn(PoolConfig::new(1), noop());
        pool.inject_worker_exit().unwrap();
        wait_for_live(&pool, 0);
        let start = Instant::now();
        let (done_tx, done_rx) = mpsc::channel();
        for i in 0..4 {
            let done_tx = done_tx.clone();
            pool.submit(job(move || {
                let _ = done_tx.send(i);
            }))
            .unwrap();
        }
        drop(done_tx);
        let mut got: Vec<i32> = done_rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert!(start.elapsed() < Duration::from_secs(10));
    }
}
