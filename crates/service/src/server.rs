//! The TCP daemon: newline-delimited JSON queries over long-lived
//! connections.
//!
//! One acceptor thread plus one thread per connection, at most
//! [`MAX_CONNECTIONS`] at once. Analytic
//! queries are answered through the shared [`AnalyticCache`];
//! Monte-Carlo queries are retargeted onto **one** persistent worker
//! pool (`Simulation::retargeted` shares the pool across every
//! request), so concurrent simulation requests batch onto the same
//! workers instead of spawning per-request thread sets. Every pooled
//! batch carries the engine's default job deadline, so a stuck batch
//! expires instead of wedging the daemon.
//!
//! Shutdown is graceful and can be triggered remotely (a `shutdown`
//! request) or locally ([`Service::shutdown`]): the accept loop stops
//! (subsequent connects are refused at the OS level once the listener
//! drops), connection threads finish the request they are serving,
//! notice the flag at the next poll tick, and drain; dropping the
//! engine last closes the worker pool — late submissions would get
//! [`SimulationError::PoolClosed`](simulator::SimulationError), never
//! a hang.

use crate::cache::AnalyticCache;
use crate::metrics::ServiceMetrics;
use crate::query::{CacheStatus, Envelope, MetricsFrame, Outcome, Request, Response};
use decision::certified::ThresholdTable;
use decision::LocalRule;
use orchestrator::{run_sweep_with_metrics, OrchestratorConfig, WorkerSpec};
use simulator::{Simulation, SweepCheckpoint};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Process fan-out settings for served `sweep_mc` queries: where the
/// worker binary lives and where shard checkpoints go.
#[derive(Clone, Debug)]
pub struct ShardedSweepConfig {
    /// The worker binary honoring the `nocomm-shard run` CLI.
    pub worker: PathBuf,
    /// Scratch directory for per-sweep shard checkpoints.
    pub dir: PathBuf,
    /// Worker processes per sweep (clamped to the grid size).
    pub shards: usize,
}

/// Tuning for a daemon instance.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bind address; use port 0 to let the OS pick.
    pub addr: String,
    /// Engine worker threads for pooled Monte-Carlo runs.
    pub engine_threads: usize,
    /// Trials per engine batch — the request-batching granularity.
    pub batch_size: u64,
    /// Largest accepted `trials` per simulate request; bigger asks
    /// are query errors, keeping one client from wedging the pool.
    pub max_trials: u64,
    /// Largest accepted sweep `grid`.
    pub max_grid: usize,
    /// How often a blocked connection read wakes up to check the
    /// shutdown flag (the drain latency bound for idle connections).
    pub poll_interval: Duration,
    /// The certified optimal-threshold table served by `threshold`
    /// queries (see [`crate::cache::load_threshold_table`]); `None`
    /// makes `threshold` queries a query error.
    pub table: Option<Arc<ThresholdTable>>,
    /// Sharded Monte-Carlo sweeps (`sweep_mc` queries): `None` (the
    /// default) makes them a query error, keeping daemons that have
    /// no worker binary from ever spawning processes.
    pub sweeps: Option<ShardedSweepConfig>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            engine_threads: 2,
            batch_size: 16_384,
            max_trials: 50_000_000,
            max_grid: 65_536,
            poll_interval: Duration::from_millis(50),
            table: None,
            sweeps: None,
        }
    }
}

/// Everything connection threads share.
struct Shared {
    cache: AnalyticCache,
    metrics: ServiceMetrics,
    engine: Simulation,
    shutdown: AtomicBool,
    addr: SocketAddr,
    config: ServiceConfig,
    /// Serializes orchestrated sweeps: one coordinator at a time, so
    /// two identical `sweep_mc` requests resume each other's shard
    /// files instead of racing over them. Worker *processes* provide
    /// the parallelism within the one running sweep.
    sweep_gate: Mutex<()>,
}

impl Shared {
    /// Flips the shutdown flag and wakes the acceptor with a
    /// throwaway connection so it can notice without a poll loop.
    fn trigger_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            drop(TcpStream::connect(self.addr));
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// An `ok: false` response to a request that could not be read
    /// or parsed, so it has no correlation id.
    fn error_response(&self, message: String) -> Response {
        Response {
            id: 0,
            outcome: Err(message),
            metrics: self.metrics.frame(),
        }
    }

    /// Answers one parsed request. Query-level failures (bad
    /// parameters, unsupported sizes) become `ok: false` responses;
    /// only transport failures tear the connection down.
    fn answer(&self, envelope: &Envelope) -> Response {
        let guard = self.metrics.begin_request();
        let started = Instant::now();
        let outcome = self.outcome(&envelope.request).and_then(|outcome| {
            if outcome.is_finite() {
                Ok(outcome)
            } else {
                Err(format!(
                    "the {} answer is not a finite number",
                    envelope.request.kind()
                ))
            }
        });
        let response = Response {
            id: envelope.id,
            outcome,
            metrics: self.metrics.frame(),
        };
        self.metrics
            .record_request_ns(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        drop(guard);
        response
    }

    /// Rejects a sweep `grid` below 2 or above this daemon's limit.
    fn check_grid(&self, grid: usize) -> Result<(), String> {
        if grid < 2 {
            return Err(format!("grid must be at least 2, found {grid}"));
        }
        if grid > self.config.max_grid {
            return Err(format!(
                "grid {grid} exceeds this daemon's limit of {}",
                self.config.max_grid
            ));
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)] // one block per request kind; the flow reads top to bottom
    fn outcome(&self, request: &Request) -> Result<Outcome, String> {
        match request {
            Request::PWin { delta, rule } => {
                let (value, cache) = self.cache.pwin(rule, *delta).map_err(|e| e.to_string())?;
                self.metrics.record_cache(cache == CacheStatus::Hit);
                Ok(Outcome::PWin { value, cache })
            }
            Request::Optimal { family, n, delta } => {
                let (opt, cache) = self
                    .cache
                    .optimal(*family, *n, *delta)
                    .map_err(|e| e.to_string())?;
                self.metrics.record_cache(cache == CacheStatus::Hit);
                Ok(Outcome::Optimal {
                    params: opt.params,
                    value: opt.value,
                    evaluations: opt.evaluations,
                    cache,
                })
            }
            Request::Sweep { n, delta, grid } => {
                self.check_grid(*grid)?;
                let cost = (*grid as u128 + 1) * (*n as u128).pow(3);
                let budget = (self.config.max_grid as u128 + 1) * SWEEP_BUDGET_PLAYERS.pow(3);
                if cost > budget {
                    return Err(format!(
                        "a sweep of {n} players over grid {grid} exceeds this daemon's analytic budget: (grid + 1) x n^3 must stay within {budget}"
                    ));
                }
                let (points, cache) = self
                    .cache
                    .sweep(*n, *delta, *grid)
                    .map_err(|e| e.to_string())?;
                self.metrics.record_cache(cache == CacheStatus::Hit);
                Ok(Outcome::Sweep {
                    points: points.iter().map(|p| (p.x, p.probability)).collect(),
                    cache,
                })
            }
            Request::SweepMc {
                n,
                delta,
                grid,
                trials,
                seed,
            } => {
                let Some(sweeps) = &self.config.sweeps else {
                    return Err(
                        "this daemon runs no sharded sweeps (no worker binary configured)"
                            .to_owned(),
                    );
                };
                self.check_grid(*grid)?;
                let total = trials.checked_mul(*grid as u64 + 1).unwrap_or(u64::MAX);
                if *trials == 0 || total > self.config.max_trials {
                    return Err(format!(
                        "trials x points must be in 1..={}, found {trials} x {}",
                        self.config.max_trials,
                        grid + 1
                    ));
                }
                let request = SweepCheckpoint::new(*n, *delta, *grid, *trials, *seed);
                // One scratch directory per parameter tuple: a repeat
                // of the same sweep resumes surviving shard files.
                let scratch = sweeps.dir.join(format!(
                    "mc-{n}-{grid}-{trials}-{seed}-{:016x}",
                    delta.to_bits()
                ));
                let config = OrchestratorConfig::new(
                    sweeps.shards.clamp(1, grid + 1),
                    &scratch,
                    WorkerSpec::new(&sweeps.worker),
                );
                let gate = self
                    .sweep_gate
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let merged = run_sweep_with_metrics(&request, &config, self.metrics.engine())
                    .map_err(|e| e.to_string())?;
                drop(gate);
                let _cleanup = std::fs::remove_dir_all(&scratch);
                Ok(Outcome::SweepMc {
                    trials: *trials,
                    points: merged
                        .points()
                        .iter()
                        .map(|p| (p.x, p.report.wins))
                        .collect(),
                })
            }
            Request::Shards => {
                let snap = self.metrics.engine_snapshot();
                Ok(Outcome::Shards {
                    issued: snap.shard_issued,
                    completed: snap.shard_completed,
                    reissued: snap.shard_reissued,
                    killed: snap.shard_killed,
                    corrupt: snap.shard_corrupt,
                })
            }
            Request::Threshold { n } => {
                let Some(table) = self.config.table.as_deref() else {
                    return Err("this daemon serves no certified threshold table".to_owned());
                };
                let last = table.rows().last().map_or(0, |row| row.n);
                let Some((row, cache)) = self.cache.threshold(*n, table) else {
                    return Err(format!(
                        "n = {n} is outside the served table (certified rows cover n = 2..={last})"
                    ));
                };
                self.metrics.record_cache(cache == CacheStatus::Hit);
                Ok(Outcome::Threshold {
                    beta_lo: row.beta_lo,
                    beta_hi: row.beta_hi,
                    p_lo: row.p_lo,
                    p_hi: row.p_hi,
                    method: row.method.to_owned(),
                    cache,
                })
            }
            Request::Simulate {
                delta,
                trials,
                seed,
                rule,
            } => {
                if *trials == 0 || *trials > self.config.max_trials {
                    return Err(format!(
                        "trials must be in 1..={}, found {trials}",
                        self.config.max_trials
                    ));
                }
                let rule: Box<dyn LocalRule + Send + Sync> =
                    rule.build().map_err(|e| e.to_string())?;
                let run = self
                    .engine
                    .retargeted(*trials, *seed)
                    .map_err(|e| e.to_string())?;
                let report = run.run(&*rule, *delta);
                Ok(Outcome::Simulate {
                    wins: report.wins,
                    trials: report.trials,
                })
            }
            Request::Shutdown => {
                self.trigger_shutdown();
                Ok(Outcome::ShuttingDown)
            }
        }
    }
}

/// A running daemon: the handle owns the acceptor and every
/// connection thread.
pub struct Service {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("addr", &self.shared.addr)
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Binds and starts serving in background threads; returns as
    /// soon as the listener is live.
    ///
    /// # Errors
    ///
    /// Returns the bind error, or an invalid-config error for a zero
    /// batch size.
    pub fn start(config: ServiceConfig) -> io::Result<Service> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let metrics = ServiceMetrics::new(config.batch_size);
        let engine = Simulation::try_new(config.batch_size.max(1), 0)
            .and_then(|sim| sim.try_with_batch_size(config.batch_size))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?
            .with_threads(config.engine_threads)
            .with_metrics(metrics.engine());
        let shared = Arc::new(Shared {
            cache: AnalyticCache::new(),
            metrics,
            engine,
            shutdown: AtomicBool::new(false),
            addr,
            config,
            sweep_gate: Mutex::new(()),
        });
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = shared.clone();
            let connections = connections.clone();
            thread::Builder::new()
                .name("nocomm-acceptor".to_owned())
                .spawn(move || accept_loop(&listener, &shared, &connections))?
        };
        Ok(Service {
            shared,
            acceptor: Some(acceptor),
            connections,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The live service counters (the same registry responses frame).
    #[must_use]
    pub fn metrics_frame(&self) -> MetricsFrame {
        self.shared.metrics.frame()
    }

    /// The shared service registry, for benchmark documents.
    #[must_use]
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.shared.metrics
    }

    /// Whether a shutdown (local or remote) has been triggered.
    #[must_use]
    pub fn shutting_down(&self) -> bool {
        self.shared.shutting_down()
    }

    /// Triggers a graceful shutdown and waits for every thread to
    /// drain: in-flight requests finish, new connections are refused,
    /// and the worker pool closes when the engine drops with the last
    /// handle.
    pub fn shutdown(mut self) {
        self.shared.trigger_shutdown();
        self.join_threads();
    }

    /// Waits until the daemon shuts down (e.g. by a remote `shutdown`
    /// request), then drains every thread.
    pub fn wait(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            drop(acceptor.join());
        }
        // Take the handles out under the lock, join outside it: a
        // draining connection thread must never contend with a held
        // guard.
        let handles = std::mem::take(
            &mut *self
                .connections
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for handle in handles {
            drop(handle.join());
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shared.trigger_shutdown();
        self.join_threads();
    }
}

/// Accepts until shutdown. Connections arriving in the shutdown
/// window are dropped unanswered; once the loop returns and the
/// listener drops, connects are refused by the OS.
///
/// Each accept first reaps the handles of connection threads that
/// have exited, so the handle list tracks live connections rather
/// than every connection ever accepted. A connection beyond
/// [`MAX_CONNECTIONS`] live ones gets one error line and a hang-up.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let accepted = listener.accept();
        if shared.shutting_down() {
            return;
        }
        let Ok((mut stream, _peer)) = accepted else {
            continue;
        };
        let (live, exited) = {
            let mut handles = connections.lock().unwrap_or_else(PoisonError::into_inner);
            let exited: Vec<JoinHandle<()>> = handles
                .extract_if(.., |handle| handle.is_finished())
                .collect();
            (handles.len(), exited)
        };
        for handle in exited {
            drop(handle.join()); // already exited: returns at once
        }
        if live >= MAX_CONNECTIONS {
            let error = format!("connection limit of {MAX_CONNECTIONS} reached");
            send(&mut stream, &shared.error_response(error));
            continue; // dropping the stream hangs up
        }
        let worker = {
            let shared = shared.clone();
            thread::Builder::new()
                .name("nocomm-conn".to_owned())
                .spawn(move || serve_connection(stream, &shared))
        };
        let Ok(handle) = worker else {
            continue; // spawn failure: the dropped stream closes the connection
        };
        connections
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(handle);
    }
}

/// The most connections the daemon serves at once. Each one costs a
/// thread, so the cap bounds the daemon's threads and sockets the way
/// [`MAX_REQUEST_BYTES`] bounds a connection's buffer; a connection
/// beyond it is answered with an error and disconnected.
pub const MAX_CONNECTIONS: usize = 256;

/// The longest request line a connection may send, newline included.
/// The bytes a connection has buffered toward its current line count
/// against this across poll ticks, so a peer that never sends a
/// newline cannot grow the daemon's memory without bound: it gets an
/// error response and is disconnected.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// The most players a `pwin`, `sweep`, `simulate` rule or `sweep_mc`
/// system may have: the largest row of the certified threshold table.
/// Engine time grows with `trials × players` and `max_trials` bounds
/// the other factor, so a request line at [`MAX_REQUEST_BYTES`] (room
/// for ~250k parameters) cannot buy hours of Monte-Carlo; a symmetric
/// closed form costs `O(n³)`. Requests over it fail to parse.
pub const MAX_PLAYERS: usize = 128;

/// A symmetric analytic sweep costs `O((grid + 1) · n³)`; it may cost
/// at most `(max_grid + 1) · 39³`, the largest sweep served when the
/// closed forms stopped at 39 players (~0.3 s at the default grid).
const SWEEP_BUDGET_PLAYERS: u128 = 39;

/// Serves one connection: one JSON request per line, one JSON
/// response per line, until EOF, a transport error, an oversized
/// request, or shutdown.
fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    // Each response goes out as soon as it is written. With Nagle's
    // algorithm on, the second of two pipelined responses would wait
    // for the client to acknowledge the first, and a client delays
    // that acknowledgement by up to ~40 ms.
    // The poll timeout bounds how long an *idle* connection can delay
    // a drain; a request already being served always completes.
    if stream.set_nodelay(true).is_err()
        || stream
            .set_read_timeout(Some(shared.config.poll_interval))
            .is_err()
    {
        return;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    // Raw bytes, decoded once the line is complete: a poll tick or the
    // size cap can fall inside a multi-byte character.
    let mut line = Vec::new();
    loop {
        let room = MAX_REQUEST_BYTES.saturating_sub(line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(_) if line.len() >= MAX_REQUEST_BYTES && line.last() != Some(&b'\n') => {
                let error = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
                send(&mut writer, &shared.error_response(error));
                return; // the rest of the line is never read
            }
            Ok(0) => return, // EOF
            Ok(_) => {
                let response = match std::str::from_utf8(&line) {
                    Ok(text) if text.trim().is_empty() => {
                        line.clear();
                        continue;
                    }
                    Ok(text) => match Envelope::parse(text) {
                        Ok(envelope) => shared.answer(&envelope),
                        Err(message) => shared.error_response(message),
                    },
                    Err(e) => shared.error_response(format!("request line is not UTF-8: {e}")),
                };
                line.clear();
                if !send(&mut writer, &response) {
                    return; // client went away mid-response
                }
                if matches!(response.outcome, Ok(Outcome::ShuttingDown)) {
                    return;
                }
            }
            // Poll tick: partial bytes (if any) stay accumulated in
            // `line`; re-enter the read unless we are draining.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutting_down() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Writes one response line; `false` when the client has gone away.
fn send(writer: &mut TcpStream, response: &Response) -> bool {
    let mut payload = response.to_json();
    payload.push('\n');
    writer.write_all(payload.as_bytes()).is_ok() && writer.flush().is_ok()
}
