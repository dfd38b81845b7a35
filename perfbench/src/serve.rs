//! The served workloads: an in-process daemon, a closed loop of
//! blocking clients, and the correctness pass that replays every
//! answer against a direct library evaluation.

use crate::stats::{capacity_mb, elapsed_ns, median, peak_rss_mb, touched};
use crate::workload::{self, Stream, Workload, BATCH_SIZE, ENGINE_THREADS};
use decision::certified::ThresholdTable;
use decision::numeric::{self, NumericOptimum, SearchOptions};
use decision::{winning_probability_oblivious_in, winning_probability_threshold_in};
use service::{
    load_threshold_table, CacheStatus, Client, Envelope, Outcome, Request, Response, RuleFamily,
    RuleSpec, Service, ServiceConfig,
};
use simulator::Simulation;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use uniform_sums::EvalContext;

/// The certified table the daemon serves, relative to the repository
/// root the benchmark runs from.
pub const TABLE_PATH: &str = "results/threshold_table.json";
/// How often one run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;
/// Digest recorded for a request that got no answer (or an error).
const NO_ANSWER: u32 = 0;

/// Reads and parses the certified threshold table.
///
/// # Errors
///
/// Returns a message when the file is missing or malformed.
pub fn load_table() -> Result<ThresholdTable, String> {
    let text = std::fs::read_to_string(TABLE_PATH)
        .map_err(|e| format!("cannot read {TABLE_PATH}: {e}"))?;
    load_threshold_table(&text).map_err(|e| format!("{TABLE_PATH}: {e}"))
}

/// One answered request as its client saw it, in 12 bytes.
#[derive(Clone, Copy, Debug)]
pub struct Answer {
    /// Client-observed round trip in nanoseconds (saturating at ~4.3 s).
    pub ns: u32,
    /// [`digest`] of the answer, [`NO_ANSWER`] on a transport error.
    pub digest: u32,
    /// The answer's cache disposition, if it carries one.
    pub cache: Option<CacheStatus>,
}

/// Answer slots each client writes once before the timed phase (24
/// MiB), so the log adds nothing to the peak RSS as it fills and the
/// run can subtract it exactly. A `serve_hot` client gives about 0.6M
/// answers in 25 s on a two-core VM; one that outgrows the log doubles
/// it, and that copy shows in the peak.
const ANSWERS_RESERVED: usize = 1 << 21;

/// Everything one client recorded.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Every request's answer, in stream order.
    pub answers: Vec<Answer>,
    /// Full responses of the traced phase: `(index into answers, response)`.
    pub traced: Vec<(usize, Response)>,
    /// Requests lost to transport errors.
    pub transport_errors: u64,
    /// Phases in which the client could not connect and sent nothing.
    pub connect_failures: u64,
}

impl ClientLog {
    /// An empty log whose whole capacity is already resident.
    pub fn new() -> ClientLog {
        let fill = Answer {
            ns: u32::MAX,
            digest: u32::MAX,
            cache: None,
        };
        ClientLog {
            answers: touched(ANSWERS_RESERVED, fill),
            ..ClientLog::default()
        }
    }

    /// MiB the answer log's allocation holds.
    pub fn reserved_mb(&self) -> f64 {
        capacity_mb::<Answer>(self.answers.capacity())
    }
}

/// FNV-1a over a sequence of 64-bit words, folded to 32 bits.
fn fnv(words: impl IntoIterator<Item = u64>) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    ((h ^ (h >> 32)) as u32) | 1 // never NO_ANSWER
}

/// A bit-exact fingerprint of an answer's payload (floats by bit
/// pattern; the cache disposition and metrics frame excluded).
pub fn digest(outcome: &Outcome) -> u32 {
    match outcome {
        Outcome::PWin { value, .. } => fnv([1, value.to_bits()]),
        Outcome::Optimal {
            params,
            value,
            evaluations,
            ..
        } => fnv([2, value.to_bits(), *evaluations]
            .into_iter()
            .chain(params.iter().map(|p| p.to_bits()))),
        Outcome::Sweep { points, .. } => {
            fnv(std::iter::once(3)
                .chain(points.iter().flat_map(|(x, p)| [x.to_bits(), p.to_bits()])))
        }
        Outcome::Threshold {
            beta_lo,
            beta_hi,
            p_lo,
            p_hi,
            method,
            ..
        } => fnv([
            4,
            beta_lo.to_bits(),
            beta_hi.to_bits(),
            p_lo.to_bits(),
            p_hi.to_bits(),
            method.len() as u64,
        ]),
        Outcome::Simulate { wins, trials } => fnv([5, *wins, *trials]),
        _ => fnv([6]),
    }
}

fn cache_of(outcome: &Outcome) -> Option<CacheStatus> {
    match outcome {
        Outcome::PWin { cache, .. }
        | Outcome::Optimal { cache, .. }
        | Outcome::Sweep { cache, .. }
        | Outcome::Threshold { cache, .. } => Some(*cache),
        _ => None,
    }
}

/// `P_A(δ)` of a described rule by the closed form, in `ctx`.
///
/// # Errors
///
/// Returns the library's message for an invalid rule.
pub fn pwin_in(ctx: &mut EvalContext<f64>, rule: &RuleSpec, delta: f64) -> Result<f64, String> {
    match rule.family {
        RuleFamily::Threshold => winning_probability_threshold_in(ctx, &rule.params, &delta),
        RuleFamily::Oblivious => winning_probability_oblivious_in(ctx, &rule.params, &delta),
        other => return Err(format!("no closed form for {}", other.as_str())),
    }
    .map_err(|e| e.to_string())
}

/// The family optimum by the derivative-free search the daemon uses.
///
/// # Errors
///
/// Returns the library's message for an unsearchable `n`.
pub fn optimum(family: RuleFamily, n: usize, delta: f64) -> Result<NumericOptimum, String> {
    let options = SearchOptions::default();
    match family {
        RuleFamily::Threshold => numeric::maximize_threshold(n, delta, &options),
        RuleFamily::Oblivious => numeric::maximize_oblivious(n, delta, &options),
        other => return Err(format!("no optimizer for {}", other.as_str())),
    }
    .map_err(|e| e.to_string())
}

/// The answer a cold, direct library evaluation gives for `request`:
/// a fresh [`EvalContext`] for analytic values, the loaded table for
/// `threshold`, and a fresh [`Simulation`] with the daemon's batch
/// size for `simulate`.
///
/// # Errors
///
/// Returns the library's message for an invalid request.
pub fn expected(request: &Request, table: &ThresholdTable) -> Result<Outcome, String> {
    let err = |e: decision::ModelError| e.to_string();
    Ok(match request {
        Request::PWin { delta, rule } => Outcome::PWin {
            value: pwin_in(&mut EvalContext::new(), rule, *delta)?,
            cache: CacheStatus::Miss,
        },
        Request::Optimal { family, n, delta } => {
            let opt = optimum(*family, *n, *delta)?;
            Outcome::Optimal {
                params: opt.params,
                value: opt.value,
                evaluations: opt.evaluations,
                cache: CacheStatus::Miss,
            }
        }
        Request::Sweep { n, delta, grid } => {
            let mut ctx = EvalContext::new();
            let mut points = Vec::with_capacity(grid + 1);
            for k in 0..=*grid {
                let beta = k as f64 / *grid as f64;
                let p = winning_probability_threshold_in(&mut ctx, &vec![beta; *n], delta)
                    .map_err(err)?;
                points.push((beta, p));
            }
            Outcome::Sweep {
                points,
                cache: CacheStatus::Miss,
            }
        }
        Request::Threshold { n } => {
            let row = table
                .rows()
                .iter()
                .find(|row| row.n == *n)
                .ok_or_else(|| format!("no table row for n = {n}"))?;
            Outcome::Threshold {
                beta_lo: row.beta_lo,
                beta_hi: row.beta_hi,
                p_lo: row.p_lo,
                p_hi: row.p_hi,
                method: row.method.to_owned(),
                cache: CacheStatus::Miss,
            }
        }
        Request::Simulate {
            delta,
            trials,
            seed,
            rule,
        } => {
            let built = rule.build().map_err(err)?;
            let report = Simulation::new(*trials, *seed)
                .with_batch_size(BATCH_SIZE)
                .with_threads(1)
                .run(&*built, *delta);
            Outcome::Simulate {
                wins: report.wins,
                trials: report.trials,
            }
        }
        other => return Err(format!("the benchmark sends no {} requests", other.kind())),
    })
}

/// Starts a daemon configured as every served workload runs it.
///
/// # Errors
///
/// Returns the bind error.
pub fn start_daemon(table: Arc<ThresholdTable>) -> std::io::Result<Service> {
    Service::start(ServiceConfig {
        engine_threads: ENGINE_THREADS,
        batch_size: BATCH_SIZE,
        table: Some(table),
        ..ServiceConfig::default()
    })
}

/// A daemon after set-up, with what set-up cost.
pub struct Ready {
    /// The running daemon the timed phase drives.
    pub service: Service,
    /// The table it serves, as the benchmark loaded it.
    pub table: Arc<ThresholdTable>,
    /// Median set-up time over [`SETUP_REPS`] repetitions, seconds.
    pub setup_s: f64,
    /// Monte-Carlo trials the warm-up asked the kept daemon for.
    pub warm_trials: u64,
}

/// Set-up, timed: load the table, start a daemon, send the warm-up
/// pass. Repeated [`SETUP_REPS`] times; the last daemon is kept.
///
/// # Errors
///
/// Returns a message when the table, the daemon or a warm-up answer
/// fails.
pub fn setup(workload: Workload, seed: u64) -> Result<Ready, String> {
    let warm = workload::warmup(workload, seed);
    let warm_trials = warm
        .iter()
        .map(|r| match r {
            Request::Simulate { trials, .. } => *trials,
            _ => 0,
        })
        .sum();
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some((old, _)) = kept.take() {
            Service::shutdown(old);
        }
        let start = Instant::now();
        let table = Arc::new(load_table()?);
        let service = start_daemon(table.clone()).map_err(|e| format!("daemon: {e}"))?;
        let mut client =
            Client::connect(service.local_addr()).map_err(|e| format!("connect: {e}"))?;
        for request in &warm {
            let response = client
                .roundtrip(request.clone())
                .map_err(|e| format!("warm-up: {e}"))?;
            if let Err(message) = response.outcome {
                return Err(format!("warm-up {} failed: {message}", request.kind()));
            }
        }
        times.push(start.elapsed().as_secs_f64());
        kept = Some((service, table));
    }
    let (service, table) = kept.ok_or("no set-up ran")?;
    Ok(Ready {
        service,
        table,
        setup_s: median(&times).ok_or("no set-up ran")?,
        warm_trials,
    })
}

/// One timed phase of the closed loop.
pub struct Phase {
    /// Requests answered (or lost) in the phase.
    pub requests: usize,
    /// Wall time from the common start to the last client's stop.
    pub elapsed_s: f64,
    /// Client-observed latencies of the phase, microseconds.
    pub latency_us: Vec<f64>,
    /// Completions per second in each one-second window of the phase.
    pub window_qps: Vec<f64>,
    /// `VmHWM` in MiB when the clients stopped, before the phase's
    /// samples were gathered.
    pub vm_hwm_mb: f64,
}

impl Phase {
    /// Throughput: the median over the phase's one-second windows, so
    /// a burst of outside load in one window does not move it.
    pub fn qps(&self) -> f64 {
        median(&self.window_qps).unwrap_or(0.0)
    }
}

/// One-second windows in a phase of `duration` (at least one).
fn windows_in(duration: Duration) -> usize {
    duration.as_secs().max(1) as usize
}

/// The window an answer arriving `at` after the phase started counts
/// in; answers arriving after the deadline count in the last.
fn window_of(at: Duration, duration: Duration) -> usize {
    let windows = windows_in(duration) as u128;
    let width = duration.as_nanos() / windows;
    (at.as_nanos() / width).min(windows - 1) as usize
}

/// Completions per second in each window, from per-window counts.
fn window_qps(counts: &[u64], duration: Duration) -> Vec<f64> {
    let width_s = duration.as_secs_f64() / counts.len() as f64;
    counts.iter().map(|&c| c as f64 / width_s).collect()
}

/// Drives one closed-loop phase: each client sends its next request
/// only after the previous answer arrived, until `duration` is up.
/// `traced` additionally keeps every full response for the replay.
///
/// # Errors
///
/// Returns a message when the peak RSS cannot be read.
pub fn drive(
    addr: SocketAddr,
    streams: &mut [Stream],
    logs: &mut [ClientLog],
    duration: Duration,
    traced: bool,
) -> Result<Phase, String> {
    let starts: Vec<usize> = logs.iter().map(|l| l.answers.len()).collect();
    let mut counts = vec![vec![0u64; windows_in(duration)]; streams.len()];
    let barrier = Barrier::new(streams.len() + 1);
    let elapsed = std::thread::scope(|scope| {
        let barrier = &barrier;
        for ((stream, log), counts) in streams.iter_mut().zip(logs.iter_mut()).zip(&mut counts) {
            scope.spawn(move || client_loop(addr, stream, log, counts, barrier, duration, traced));
        }
        barrier.wait();
        let start = Instant::now();
        barrier.wait(); // every client stopped
        start.elapsed().as_secs_f64()
    });
    let vm_hwm_mb = peak_rss_mb()?;
    let latency_us: Vec<f64> = logs
        .iter()
        .zip(&starts)
        .flat_map(|(log, start)| &log.answers[*start..])
        .map(|a| f64::from(a.ns) / 1e3)
        .collect();
    let total: Vec<u64> = (0..windows_in(duration))
        .map(|i| counts.iter().map(|c| c[i]).sum())
        .collect();
    Ok(Phase {
        requests: latency_us.len(),
        elapsed_s: elapsed,
        latency_us,
        window_qps: window_qps(&total, duration),
        vm_hwm_mb,
    })
}

fn client_loop(
    addr: SocketAddr,
    stream: &mut Stream,
    log: &mut ClientLog,
    window_counts: &mut [u64],
    barrier: &Barrier,
    duration: Duration,
    traced: bool,
) {
    let mut client = Client::connect(addr).ok();
    if client.is_none() {
        log.connect_failures += 1;
    }
    barrier.wait();
    let begin = Instant::now();
    let mut now = Duration::ZERO;
    while let Some(c) = client.as_mut() {
        if now >= duration {
            break;
        }
        let request = stream.next_request();
        let start = Instant::now();
        let result = c.roundtrip(request);
        let ns = u32::try_from(elapsed_ns(start)).unwrap_or(u32::MAX);
        now = begin.elapsed();
        window_counts[window_of(now, duration)] += 1;
        match result {
            Ok(response) => {
                let (digest, cache) = match &response.outcome {
                    Ok(outcome) => (digest(outcome), cache_of(outcome)),
                    Err(_) => (NO_ANSWER, None),
                };
                log.answers.push(Answer { ns, digest, cache });
                if traced {
                    log.traced.push((log.answers.len() - 1, response));
                }
            }
            Err(_) => {
                log.answers.push(Answer {
                    ns,
                    digest: NO_ANSWER,
                    cache: None,
                });
                log.transport_errors += 1;
                client = None;
            }
        }
    }
    barrier.wait();
}

/// The outcome of the correctness pass.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Answers compared against a direct evaluation.
    pub verified: u64,
    /// Answers whose payload differed (or that never arrived).
    pub wrong: u64,
    /// Answers with the wrong cache disposition for the workload.
    pub wrong_cache: u64,
    /// Client phases that never connected, so sent nothing.
    pub connect_failures: u64,
}

impl Verdict {
    /// Answers (and unconnected client phases) that count as failed.
    pub fn failed(&self) -> u64 {
        self.wrong + self.wrong_cache + self.connect_failures
    }

    /// Operations attempted: every answer, plus each client phase that
    /// could not connect.
    pub fn attempted(&self) -> u64 {
        self.verified + self.connect_failures
    }
}

/// The cache disposition a workload guarantees, if any: `serve_hot`
/// answers only from the memo after its warm-up; every `serve_cold`
/// query is new, so every analytic answer is computed.
pub fn required_cache(workload: Workload) -> Option<CacheStatus> {
    match workload {
        Workload::ServeHot => Some(CacheStatus::Hit),
        Workload::ServeCold => Some(CacheStatus::Miss),
        Workload::Simulate | Workload::SweepSharded => None,
    }
}

/// Replays every client's stream from the seed and compares each
/// recorded answer with [`expected`], bit for bit. Runs one thread
/// per client, after the timed phases.
pub fn verify(
    workload: Workload,
    seed: u64,
    logs: &[ClientLog],
    table: &ThresholdTable,
) -> Verdict {
    let required = required_cache(workload);
    let per_client: Vec<Verdict> = std::thread::scope(|scope| {
        let handles: Vec<_> = logs
            .iter()
            .enumerate()
            .map(|(client, log)| {
                scope.spawn(move || {
                    let mut verdict = Verdict {
                        connect_failures: log.connect_failures,
                        ..Verdict::default()
                    };
                    let Some(mut stream) = Stream::new(workload, seed, client) else {
                        return verdict;
                    };
                    // Hot and simulate traffic repeats requests: evaluate
                    // each distinct one once. Cold traffic never repeats.
                    let mut memo: HashMap<String, u32> = HashMap::new();
                    for answer in &log.answers {
                        let request = stream.next_request();
                        let want =
                            |r: &Request| expected(r, table).map_or(NO_ANSWER, |o| digest(&o));
                        let want = if workload == Workload::ServeCold {
                            want(&request)
                        } else {
                            let key = Envelope {
                                id: 0,
                                request: request.clone(),
                            }
                            .to_json();
                            *memo.entry(key).or_insert_with(|| want(&request))
                        };
                        verdict.verified += 1;
                        if answer.digest == NO_ANSWER || answer.digest != want {
                            verdict.wrong += 1;
                        } else if let (Some(need), Some(got)) = (required, answer.cache) {
                            verdict.wrong_cache += u64::from(need != got);
                        }
                    }
                    verdict
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier thread panicked"))
            .collect()
    });
    per_client
        .into_iter()
        .fold(Verdict::default(), |a, b| Verdict {
            verified: a.verified + b.verified,
            wrong: a.wrong + b.wrong,
            wrong_cache: a.wrong_cache + b.wrong_cache,
            connect_failures: a.connect_failures + b.connect_failures,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() {
        // The benchmark runs from the repository root; tests start in
        // the package directory. Idempotent, so parallel tests agree.
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
            .expect("repository root");
    }

    fn short_run(workload: Workload) -> (Vec<ClientLog>, Verdict) {
        repo_root();
        let ready = setup(workload, 11).unwrap();
        let mut streams: Vec<Stream> = (0..2)
            .map(|c| Stream::new(workload, 11, c).unwrap())
            .collect();
        let mut logs: Vec<ClientLog> = (0..2).map(|_| ClientLog::default()).collect();
        let phase = drive(
            ready.service.local_addr(),
            &mut streams,
            &mut logs,
            Duration::from_millis(300),
            true,
        )
        .unwrap();
        assert!(phase.requests > 10, "{} requests", phase.requests);
        let verdict = verify(workload, 11, &logs, &ready.table);
        ready.service.shutdown();
        (logs, verdict)
    }

    #[test]
    fn serve_hot_is_all_hits_after_warm_up() {
        let (logs, verdict) = short_run(Workload::ServeHot);
        assert_eq!((verdict.wrong, verdict.wrong_cache), (0, 0));
        let answers: Vec<&Answer> = logs.iter().flat_map(|l| &l.answers).collect();
        assert!(answers.iter().all(|a| a.cache == Some(CacheStatus::Hit)));
        // The traced phase kept full responses in stream order.
        assert_eq!(logs[0].traced.len(), logs[0].answers.len());
    }

    #[test]
    fn serve_cold_misses_on_every_pwin() {
        let (logs, verdict) = short_run(Workload::ServeCold);
        assert_eq!((verdict.wrong, verdict.wrong_cache), (0, 0));
        for log in &logs {
            for (_, response) in &log.traced {
                if let Ok(Outcome::PWin { cache, .. }) = &response.outcome {
                    assert_eq!(*cache, CacheStatus::Miss);
                }
            }
        }
    }

    #[test]
    fn throughput_windows_split_the_phase_by_completion_time() {
        let done = [
            0,
            10,
            999_999_999,
            1_000_000_000,
            2_500_000_000,
            9_000_000_000,
        ];
        let duration = Duration::from_secs(3);
        let mut counts = vec![0; windows_in(duration)];
        for at in done {
            counts[window_of(Duration::from_nanos(at), duration)] += 1;
        }
        let w = window_qps(&counts, duration);
        assert_eq!(w, vec![3.0, 1.0, 2.0]);
        assert_eq!(median(&w), Some(2.0));
    }

    #[test]
    fn a_client_that_cannot_connect_fails_the_run() {
        repo_root();
        let table = load_table().unwrap();
        // A port that was just bound and released: nothing listens.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let mut streams: Vec<Stream> = (0..2)
            .map(|c| Stream::new(Workload::ServeHot, 5, c).unwrap())
            .collect();
        let mut logs: Vec<ClientLog> = (0..2).map(|_| ClientLog::default()).collect();
        for traced in [false, true] {
            let phase = drive(
                addr,
                &mut streams,
                &mut logs,
                Duration::from_millis(50),
                traced,
            )
            .unwrap();
            assert_eq!(phase.requests, 0);
        }
        let verdict = verify(Workload::ServeHot, 5, &logs, &table);
        // Both clients, in both phases: nothing silently skipped.
        assert_eq!(verdict.connect_failures, 4);
        assert_eq!((verdict.attempted(), verdict.failed()), (4, 4));
    }

    #[test]
    fn a_wrong_answer_is_caught() {
        repo_root();
        let table = load_table().unwrap();
        let mut stream = Stream::new(Workload::ServeHot, 3, 0).unwrap();
        let request = stream.next_request();
        let right = digest(&expected(&request, &table).unwrap());
        let log = |d| ClientLog {
            answers: vec![Answer {
                ns: 1,
                digest: d,
                cache: Some(CacheStatus::Hit),
            }],
            ..ClientLog::default()
        };
        let ok = verify(Workload::ServeHot, 3, &[log(right)], &table);
        assert_eq!((ok.verified, ok.failed()), (1, 0));
        let bad = verify(Workload::ServeHot, 3, &[log(right ^ 2)], &table);
        assert_eq!(bad.failed(), 1);
        let lost = verify(Workload::ServeHot, 3, &[log(NO_ANSWER)], &table);
        assert_eq!(lost.failed(), 1);
    }
}
