//! The supervision loop: spawn, watch, kill, re-issue, merge.
//!
//! The loop is event-driven. Each worker's stdout is a pipe drained by
//! a small reader thread, which forwards one progress event per line
//! (a worker prints one per persisted point) and an exit event at EOF
//! into one channel. The supervisor blocks on that channel until the
//! next event or the nearest timer: a pending shard's backoff, or a
//! running worker's stall timeout or deadline.

use crate::chaos::ProcChaosPlan;
use crate::error::OrchestratorError;
use crate::plan::{split_grid, ShardSpec};
use obs::MetricsSink;
use simulator::{keys, SweepCheckpoint};
use std::io::Read;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How to launch one worker process.
///
/// The program must honor the `nocomm-shard run` command line (the
/// `nocomm-shard` binary itself is the normal choice), including its
/// stdout contract: one line per persisted point, which is how the
/// coordinator tells a working worker from a hung one. `args` are
/// prepended before `run`, so a wrapper script or `cargo run --bin
/// nocomm-shard --` both work.
#[derive(Clone, Debug)]
pub struct WorkerSpec {
    /// Path to the worker executable.
    pub program: PathBuf,
    /// Arguments inserted before the `run` subcommand.
    pub args: Vec<String>,
}

impl WorkerSpec {
    /// A worker launched as `program run ...` with no extra arguments.
    pub fn new(program: impl Into<PathBuf>) -> WorkerSpec {
        WorkerSpec {
            program: program.into(),
            args: Vec::new(),
        }
    }

    /// Uses the currently running executable as the worker — the
    /// right choice when the coordinator *is* `nocomm-shard`.
    ///
    /// # Errors
    ///
    /// Returns [`OrchestratorError::Io`] when the OS cannot report
    /// the current executable's path.
    pub fn current_exe() -> Result<WorkerSpec, OrchestratorError> {
        Ok(WorkerSpec::new(std::env::current_exe()?))
    }
}

/// Tuning for [`run_sweep_with_metrics`]: shard count, scratch
/// directory, worker launch spec, and the supervision knobs (deadline,
/// stall detection, respawn budget, backoff).
///
/// Supervision is event-driven, so there is no polling interval: the
/// coordinator wakes when a worker prints a progress line or exits,
/// and otherwise only when a backoff, stall timeout or deadline
/// expires.
#[derive(Clone, Debug)]
pub struct OrchestratorConfig {
    /// Number of shards to split the grid into (`1..=grid + 1`).
    pub shards: usize,
    /// Directory holding the per-shard checkpoint files
    /// (`shard-<index>.json`). Created if absent; stale files from a
    /// crashed coordinator are adopted when valid and scrubbed when
    /// not, so a restarted coordinator resumes instead of redoing.
    pub dir: PathBuf,
    /// How to launch worker processes.
    pub worker: WorkerSpec,
    /// Wall-clock budget for one worker attempt; overrunning workers
    /// are killed and their shard re-issued.
    pub shard_deadline: Duration,
    /// A worker that prints no progress line for this long (workers
    /// print one per persisted point) is considered hung, killed, and
    /// its shard re-issued.
    pub stall_timeout: Duration,
    /// How many times a shard may be *re*-issued after its first
    /// attempt before the sweep gives up with
    /// [`OrchestratorError::ShardExhausted`].
    pub respawn_budget: u32,
    /// First re-issue delay; doubles per subsequent attempt.
    pub backoff_base: Duration,
    /// Upper bound on the exponential backoff.
    pub backoff_cap: Duration,
    /// Deterministic fault schedule forwarded to workers via
    /// `--fault`; `None` (the default) runs everything fault-free.
    pub chaos: Option<ProcChaosPlan>,
}

impl OrchestratorConfig {
    /// A config with conservative defaults: 30s shard deadline, 2s
    /// stall timeout, 4 respawns, 50ms..1s backoff.
    pub fn new(shards: usize, dir: impl Into<PathBuf>, worker: WorkerSpec) -> OrchestratorConfig {
        OrchestratorConfig {
            shards,
            dir: dir.into(),
            worker,
            shard_deadline: Duration::from_secs(30),
            stall_timeout: Duration::from_secs(2),
            respawn_budget: 4,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(1),
            chaos: None,
        }
    }

    fn shard_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("shard-{index}.json"))
    }
}

/// What a worker's reader thread saw on the worker's stdout.
#[derive(Clone, Copy, Debug)]
enum Signal {
    /// One line: the worker persisted a point.
    Progress,
    /// End of file: the worker closed its stdout, normally by exiting.
    Exited,
}

/// One report from a reader thread. The attempt tag lets the
/// supervisor ignore the late events of a worker it already killed.
#[derive(Clone, Copy, Debug)]
struct Event {
    shard: usize,
    attempt: u32,
    signal: Signal,
}

/// Capacity of a sweep's event channel. Its buffer is allocated once
/// per sweep, never per event; a full channel only makes readers wait.
const EVENT_QUEUE: usize = 64;

/// Stack of a reader thread, which only copies pipe bytes into a
/// small buffer on its stack.
const READER_STACK: usize = 64 * 1024;

/// First re-check of a worker whose stdout closed before its exit
/// status was ready; each further re-check waits twice as long.
const REAP_FIRST: Duration = Duration::from_micros(100);

/// Once the re-check delay would pass this, a worker that closed its
/// stdout but keeps running is left to the stall timer and deadline.
const REAP_LAST: Duration = Duration::from_millis(64);

/// One live worker process and the progress we last saw from it.
struct Running {
    child: Child,
    attempt: u32,
    spawned_at: Instant,
    last_progress: Instant,
    /// After stdout closed on a worker that was not yet reapable: when
    /// to look for its exit status again, and the delay used.
    recheck: Option<(Instant, Duration)>,
}

impl Running {
    /// The nearest instant at which this worker needs attention even
    /// if it reports nothing; `None` when no timer can fire.
    fn wake_at(&self, config: &OrchestratorConfig) -> Option<Instant> {
        let stall = self.last_progress.checked_add(config.stall_timeout);
        let deadline = self.spawned_at.checked_add(config.shard_deadline);
        let recheck = self.recheck.map(|(at, _)| at);
        [stall, deadline, recheck].into_iter().flatten().min()
    }
}

enum Slot {
    Pending { eligible_at: Instant },
    Running(Running),
    Done,
}

/// Everything the supervisor tracks about one shard.
struct ShardTask {
    spec: ShardSpec,
    expected: SweepCheckpoint,
    path: PathBuf,
    slot: Slot,
    attempts: u32,
    first_issued: Option<Instant>,
}

/// Runs `request` — a whole-grid sweep description with no results
/// yet — as `config.shards` worker processes and merges their shard
/// checkpoints into the byte-identical whole-grid checkpoint a single
/// uninterrupted process would have written. The supervision ledger
/// (`shard.*` counters and the `shard.span_ns` histogram) flows into
/// `sink`; pass an [`obs::NoopSink`] to discard it. See the crate docs
/// for the supervision contract.
///
/// # Errors
///
/// [`OrchestratorError::InvalidConfig`] for unrunnable requests,
/// [`OrchestratorError::Spawn`] when a worker cannot be launched at
/// all, [`OrchestratorError::ShardExhausted`] when a shard burns its
/// respawn budget, and [`OrchestratorError::Sweep`]/[`Io`] for
/// checkpoint and filesystem failures.
///
/// [`Io`]: OrchestratorError::Io
pub fn run_sweep_with_metrics(
    request: &SweepCheckpoint,
    config: &OrchestratorConfig,
    sink: Arc<dyn MetricsSink>,
) -> Result<SweepCheckpoint, OrchestratorError> {
    validate(request, config)?;
    std::fs::create_dir_all(&config.dir)?;
    let mut tasks: Vec<ShardTask> = split_grid(request.grid, config.shards)
        .into_iter()
        .map(|spec| ShardTask {
            expected: SweepCheckpoint::shard(
                request.n,
                request.delta,
                request.grid,
                request.trials,
                request.seed,
                spec.start,
                spec.points,
            ),
            path: config.shard_path(spec.index),
            slot: Slot::Pending {
                eligible_at: Instant::now(),
            },
            attempts: 0,
            first_issued: None,
            spec,
        })
        .collect();
    for task in &mut tasks {
        adopt_existing(task, sink.as_ref());
    }
    if let Err(err) = supervise(&mut tasks, config, sink.as_ref()) {
        kill_all(&mut tasks, sink.as_ref());
        return Err(err);
    }
    let mut docs = Vec::with_capacity(tasks.len());
    for task in &tasks {
        docs.push(SweepCheckpoint::load(&task.path)?);
    }
    Ok(SweepCheckpoint::merge_shards(request, &docs)?)
}

fn invalid(message: impl Into<String>) -> OrchestratorError {
    OrchestratorError::InvalidConfig {
        message: message.into(),
    }
}

fn validate(
    request: &SweepCheckpoint,
    config: &OrchestratorConfig,
) -> Result<(), OrchestratorError> {
    let grid_points = request.grid.checked_add(1);
    if request.n < 2
        || request.grid < 2
        || grid_points.is_none()
        || request.trials == 0
        || !(request.delta.is_finite() && request.delta > 0.0)
    {
        return Err(invalid("request parameters are out of range"));
    }
    if request.rng_stream_version != simulator::RNG_STREAM_VERSION {
        return Err(invalid(format!(
            "request is for rng stream v{}, this build produces v{}",
            request.rng_stream_version,
            simulator::RNG_STREAM_VERSION
        )));
    }
    if !request.covers_whole_grid() {
        return Err(invalid("the request must cover the whole grid"));
    }
    if !request.wins.is_empty() {
        return Err(invalid("the request must not already carry results"));
    }
    if config.shards == 0 {
        return Err(invalid("at least one shard is required"));
    }
    if let Some(points) = grid_points.filter(|&points| config.shards > points) {
        return Err(invalid(format!(
            "{} shards cannot each cover a point of a {points}-point grid",
            config.shards
        )));
    }
    if config.worker.program.as_os_str().is_empty() {
        return Err(invalid("the worker program must be set"));
    }
    Ok(())
}

/// Adopts a pre-existing shard file left by an earlier (possibly
/// crashed) coordinator: a complete valid file is accepted outright, a
/// valid prefix is left for the worker to resume, anything else is
/// scrubbed so the replacement worker starts clean.
fn adopt_existing(task: &mut ShardTask, sink: &dyn MetricsSink) {
    match SweepCheckpoint::load(&task.path) {
        Ok(found) if found.validate_matches(&task.expected).is_ok() => {
            if found.is_complete() {
                task.slot = Slot::Done;
                sink.add(keys::SHARD_COMPLETED, 1);
            }
        }
        Err(simulator::SweepError::Io(err)) if err.kind() == std::io::ErrorKind::NotFound => {}
        _ => {
            sink.add(keys::SHARD_CORRUPT, 1);
            let _removed = std::fs::remove_file(&task.path);
        }
    }
}

/// The event loop: act on every due timer, then block until the next
/// worker event or the nearest timer, whichever comes first.
fn supervise(
    tasks: &mut [ShardTask],
    config: &OrchestratorConfig,
    sink: &dyn MetricsSink,
) -> Result<(), OrchestratorError> {
    let (events, inbox) = mpsc::sync_channel(EVENT_QUEUE);
    loop {
        let now = Instant::now();
        for task in tasks.iter_mut() {
            tend(task, now, &events, config, sink)?;
        }
        let mut live = false;
        let mut wake: Option<Instant> = None;
        for task in tasks.iter() {
            let at = match &task.slot {
                Slot::Done => continue,
                Slot::Pending { eligible_at } => Some(*eligible_at),
                Slot::Running(run) => run.wake_at(config),
            };
            live = true;
            wake = wake.into_iter().chain(at).min();
        }
        if !live {
            return Ok(());
        }
        // With no timer at all, `Duration::MAX` waits for an event
        // alone. The loop holds a sender, so the channel never
        // disconnects; a timeout falls through to the timer pass.
        let wait = wake.map_or(Duration::MAX, |at| at.saturating_duration_since(now));
        if let Ok(event) = inbox.recv_timeout(wait) {
            if let Some(task) = tasks.get_mut(event.shard) {
                on_event(task, event, config, sink)?;
            }
        }
    }
}

/// Acts on whatever is due for `task` at `now`: spawns a pending shard
/// whose backoff has passed, re-checks a worker whose stdout closed,
/// and kills a worker past its stall timeout or deadline.
fn tend(
    task: &mut ShardTask,
    now: Instant,
    events: &SyncSender<Event>,
    config: &OrchestratorConfig,
    sink: &dyn MetricsSink,
) -> Result<(), OrchestratorError> {
    match &mut task.slot {
        Slot::Pending { eligible_at } if now >= *eligible_at => {
            spawn_worker(task, events, config, sink)
        }
        Slot::Done | Slot::Pending { .. } => Ok(()),
        Slot::Running(run) => {
            if run.recheck.is_some_and(|(at, _)| now >= at) {
                return reap(task, config, sink);
            }
            let stalled = now.duration_since(run.last_progress) >= config.stall_timeout;
            let overdue = now.duration_since(run.spawned_at) >= config.shard_deadline;
            if !(stalled || overdue) {
                return Ok(());
            }
            // A worker that exited without its EOF reaching us yet is
            // judged by its exit status, not shot.
            if let Ok(Some(status)) = run.child.try_wait() {
                finish(task, status, config, sink)
            } else {
                kill(run, sink);
                requeue(task, config, sink)
            }
        }
    }
}

/// Applies one reader-thread event to its shard, unless it belongs to
/// an attempt that is no longer running.
fn on_event(
    task: &mut ShardTask,
    event: Event,
    config: &OrchestratorConfig,
    sink: &dyn MetricsSink,
) -> Result<(), OrchestratorError> {
    let Slot::Running(run) = &mut task.slot else {
        return Ok(());
    };
    if run.attempt != event.attempt {
        return Ok(());
    }
    match event.signal {
        Signal::Progress => {
            run.last_progress = Instant::now();
            Ok(())
        }
        Signal::Exited => reap(task, config, sink),
    }
}

/// Looks for the exit status of a worker whose stdout has closed. A
/// process closes its pipes a moment before it becomes reapable, so a
/// miss is re-checked after doubling delays; past [`REAP_LAST`] the
/// worker is left to its timers. Never blocks in `wait`.
fn reap(
    task: &mut ShardTask,
    config: &OrchestratorConfig,
    sink: &dyn MetricsSink,
) -> Result<(), OrchestratorError> {
    let Slot::Running(run) = &mut task.slot else {
        return Ok(());
    };
    match run.child.try_wait() {
        Ok(Some(status)) => finish(task, status, config, sink),
        Ok(None) => {
            let delay = run.recheck.map_or(REAP_FIRST, |(_, last)| last * 2);
            run.recheck = (delay <= REAP_LAST).then(|| (Instant::now() + delay, delay));
            Ok(())
        }
        Err(_) => {
            kill(run, sink);
            requeue(task, config, sink)
        }
    }
}

fn spawn_worker(
    task: &mut ShardTask,
    events: &SyncSender<Event>,
    config: &OrchestratorConfig,
    sink: &dyn MetricsSink,
) -> Result<(), OrchestratorError> {
    let attempt = task.attempts;
    let mut cmd = Command::new(&config.worker.program);
    cmd.args(&config.worker.args)
        .arg("run")
        .arg("--n")
        .arg(task.expected.n.to_string())
        .arg("--delta")
        .arg(format!("{:?}", task.expected.delta))
        .arg("--grid")
        .arg(task.expected.grid.to_string())
        .arg("--trials")
        .arg(task.expected.trials.to_string())
        .arg("--seed")
        .arg(task.expected.seed.to_string())
        .arg("--start")
        .arg(task.spec.start.to_string())
        .arg("--points")
        .arg(task.spec.points.to_string())
        .arg("--out")
        .arg(&task.path)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(plan) = &config.chaos {
        if let Some(fault) = plan.fault_for(task.spec.index, attempt) {
            cmd.arg("--fault").arg(fault.to_arg());
        }
    }
    let shard = task.spec.index;
    let mut child = cmd
        .spawn()
        .map_err(|source| OrchestratorError::Spawn { shard, source })?;
    if let Err(source) = watch(&mut child, shard, attempt, events) {
        let _killed = child.kill();
        let _reaped = child.wait();
        return Err(OrchestratorError::Spawn { shard, source });
    }
    task.attempts += 1;
    let now = Instant::now();
    if task.first_issued.is_none() {
        task.first_issued = Some(now);
    }
    sink.add(keys::SHARD_ISSUED, 1);
    task.slot = Slot::Running(Running {
        child,
        attempt,
        spawned_at: now,
        last_progress: now,
        recheck: None,
    });
    Ok(())
}

/// Starts the reader thread that turns the worker's stdout into
/// events. The thread is detached on purpose: it ends at EOF, which
/// killing the worker also brings, while a join could block for as
/// long as a child of the worker keeps the pipe open. A reader that
/// died early leaves its worker to the stall timer.
fn watch(
    child: &mut Child,
    shard: usize,
    attempt: u32,
    events: &SyncSender<Event>,
) -> std::io::Result<()> {
    let mut stdout = child
        .stdout
        .take()
        .ok_or_else(|| std::io::Error::other("the worker's stdout is not piped"))?;
    let events = events.clone();
    std::thread::Builder::new()
        .stack_size(READER_STACK)
        .spawn(move || forward(&mut stdout, shard, attempt, &events))?;
    Ok(())
}

/// Sends one [`Signal::Progress`] per line read from `stdout`, then
/// [`Signal::Exited`] at EOF; a read error ends the stream the same
/// way. Stops early once the supervisor has hung up.
fn forward(stdout: &mut impl Read, shard: usize, attempt: u32, events: &SyncSender<Event>) {
    let event = |signal| Event {
        shard,
        attempt,
        signal,
    };
    let mut buf = [0_u8; 256];
    loop {
        let read = match stdout.read(&mut buf) {
            Ok(0) => break,
            Ok(read) => read,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        for _line in buf[..read].iter().filter(|&&byte| byte == b'\n') {
            if events.send(event(Signal::Progress)).is_err() {
                return;
            }
        }
    }
    // A supervisor that has already returned needs no exit event.
    let _unheard = events.send(event(Signal::Exited));
}

/// Judges a worker by its exit status.
fn finish(
    task: &mut ShardTask,
    status: ExitStatus,
    config: &OrchestratorConfig,
    sink: &dyn MetricsSink,
) -> Result<(), OrchestratorError> {
    if status.success() {
        accept_or_requeue(task, config, sink)
    } else {
        // Dirty exit: whatever the atomic write-rename left behind is
        // a valid prefix the next attempt resumes (requeue scrubs it
        // if it is not).
        requeue(task, config, sink)
    }
}

/// A worker exited cleanly: its file must now be the complete,
/// parameter-exact shard checkpoint. Anything else counts as corrupt
/// output — scrub and re-issue under the budget.
fn accept_or_requeue(
    task: &mut ShardTask,
    config: &OrchestratorConfig,
    sink: &dyn MetricsSink,
) -> Result<(), OrchestratorError> {
    let accepted = SweepCheckpoint::load(&task.path)
        .is_ok_and(|found| found.validate_matches(&task.expected).is_ok() && found.is_complete());
    if accepted {
        task.slot = Slot::Done;
        sink.add(keys::SHARD_COMPLETED, 1);
        if let Some(first) = task.first_issued {
            let span = u64::try_from(first.elapsed().as_nanos()).unwrap_or(u64::MAX);
            sink.record(keys::SHARD_SPAN_NS, span);
        }
        Ok(())
    } else {
        sink.add(keys::SHARD_CORRUPT, 1);
        let _removed = std::fs::remove_file(&task.path);
        requeue(task, config, sink)
    }
}

/// The delay before re-issuing a shard that has had `attempts`
/// workers: `backoff_base`, doubled for every attempt after the
/// first, and never more than `backoff_cap`.
fn backoff(config: &OrchestratorConfig, attempts: u32) -> Duration {
    let shift = attempts.saturating_sub(1).min(16);
    config
        .backoff_base
        .saturating_mul(1_u32 << shift)
        .min(config.backoff_cap)
}

fn requeue(
    task: &mut ShardTask,
    config: &OrchestratorConfig,
    sink: &dyn MetricsSink,
) -> Result<(), OrchestratorError> {
    scrub_invalid(task, sink);
    if task.attempts > config.respawn_budget {
        return Err(OrchestratorError::ShardExhausted {
            shard: task.spec.index,
            attempts: task.attempts,
        });
    }
    sink.add(keys::SHARD_REISSUED, 1);
    task.slot = Slot::Pending {
        eligible_at: Instant::now() + backoff(config, task.attempts),
    };
    Ok(())
}

/// Removes a shard file that no replacement worker could resume
/// (unparseable, or for different sweep parameters); a valid prefix
/// is kept so the next attempt picks up where the victim died.
fn scrub_invalid(task: &ShardTask, sink: &dyn MetricsSink) {
    if !task.path.exists() {
        return;
    }
    let resumable = SweepCheckpoint::load(&task.path)
        .is_ok_and(|found| found.validate_matches(&task.expected).is_ok());
    if !resumable {
        sink.add(keys::SHARD_CORRUPT, 1);
        let _removed = std::fs::remove_file(&task.path);
    }
}

/// Shoots a worker and reaps it; `SIGKILL` cannot be ignored, so the
/// wait is short. A worker already reaped (a shard that exhausted its
/// budget keeps its last, killed worker) is left alone: `Child::kill`
/// reports success on it too, which would count a second kill.
fn kill(run: &mut Running, sink: &dyn MetricsSink) {
    if let Ok(Some(_)) = run.child.try_wait() {
        return;
    }
    if run.child.kill().is_ok() {
        sink.add(keys::SHARD_KILLED, 1);
    }
    let _reaped = run.child.wait();
}

/// Tears down every still-running worker after a fatal error so the
/// coordinator never leaks processes.
fn kill_all(tasks: &mut [ShardTask], sink: &dyn MetricsSink) {
    for task in tasks.iter_mut() {
        if let Slot::Running(run) = &mut task.slot {
            kill(run, sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::NoopSink;

    fn request() -> SweepCheckpoint {
        SweepCheckpoint::new(2, 1.0, 4, 1_000, 7)
    }

    fn config(shards: usize) -> OrchestratorConfig {
        OrchestratorConfig::new(
            shards,
            std::env::temp_dir().join("nocomm-orch-validate"),
            WorkerSpec::new("/nonexistent/worker"),
        )
    }

    #[test]
    fn unrunnable_configs_are_rejected_before_any_spawn() {
        let cases: Vec<(SweepCheckpoint, OrchestratorConfig, &str)> = vec![
            (request(), config(0), "at least one shard"),
            (request(), config(6), "cannot each cover"),
            (
                SweepCheckpoint::shard(2, 1.0, 4, 1_000, 7, 1, 2),
                config(2),
                "whole grid",
            ),
            (
                SweepCheckpoint::new(2, 1.0, 1, 1_000, 7),
                config(1),
                "out of range",
            ),
            (
                SweepCheckpoint::new(2, f64::NAN, 4, 1_000, 7),
                config(1),
                "out of range",
            ),
            (
                SweepCheckpoint::new(2, 0.0, 4, 1_000, 7),
                config(1),
                "out of range",
            ),
            (
                SweepCheckpoint::new(2, 1.0, usize::MAX, 1_000, 7),
                config(2),
                "out of range",
            ),
        ];
        for (req, cfg, needle) in cases {
            let err = run_sweep_with_metrics(&req, &cfg, Arc::new(NoopSink)).unwrap_err();
            let OrchestratorError::InvalidConfig { message } = err else {
                panic!("expected InvalidConfig, got {err}");
            };
            assert!(message.contains(needle), "{message:?} missing {needle:?}");
        }
    }

    #[test]
    fn foreign_stream_versions_never_reach_a_worker() {
        let mut req = request();
        req.rng_stream_version += 1;
        let err = run_sweep_with_metrics(&req, &config(1), Arc::new(NoopSink)).unwrap_err();
        assert!(
            matches!(err, OrchestratorError::InvalidConfig { .. }),
            "{err}"
        );
    }

    #[test]
    fn requests_carrying_results_are_rejected() {
        let mut req = request();
        req.wins.push(3);
        let err = run_sweep_with_metrics(&req, &config(1), Arc::new(NoopSink)).unwrap_err();
        assert!(
            matches!(err, OrchestratorError::InvalidConfig { .. }),
            "{err}"
        );
    }

    #[test]
    fn missing_worker_binaries_surface_as_spawn_errors() {
        let dir = std::env::temp_dir().join("nocomm-orch-spawnfail");
        std::fs::remove_dir_all(&dir).ok();
        let cfg = OrchestratorConfig::new(2, &dir, WorkerSpec::new("/nonexistent/worker"));
        let err = run_sweep_with_metrics(&request(), &cfg, Arc::new(NoopSink)).unwrap_err();
        assert!(
            matches!(err, OrchestratorError::Spawn { shard: 0, .. }),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let mut cfg = config(1);
        cfg.backoff_base = Duration::from_millis(50);
        cfg.backoff_cap = Duration::from_secs(1);
        for (attempts, millis) in [
            (0_u32, 50),
            (1, 50),
            (2, 100),
            (3, 200),
            (5, 800),
            (6, 1_000),
            (40, 1_000),
            (u32::MAX, 1_000),
        ] {
            assert_eq!(
                backoff(&cfg, attempts),
                Duration::from_millis(millis),
                "attempts {attempts}"
            );
        }
        cfg.backoff_base = Duration::MAX;
        cfg.backoff_cap = Duration::MAX;
        assert_eq!(backoff(&cfg, 9), Duration::MAX, "the doubling saturates");
    }
}
