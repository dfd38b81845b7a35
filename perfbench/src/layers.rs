//! Per-layer attribution, measured from outside the program.
//!
//! Each layer is timed by calling its public functions on the inputs
//! the workload produced: the exact request and response lines of the
//! traced phase, the analytic queries, the simulated rules, the sweep
//! parameters. Where a workload never reaches a layer, the layer is
//! measured on fixed probe inputs derived from the same seed, so every
//! traced run reports every layer; the printed `inputs` column says
//! which. Timings are medians over many calls, or minimums over a few
//! repeats where one call is the unit.

use crate::serve::{optimum, pwin_in, ClientLog};
use crate::stats::{elapsed_ns, median, Sorted};
use crate::sweep::{self, Swept};
use crate::workload::{
    self, simulate_pool, HotShapes, Workload, BATCH_SIZE, ENGINE_THREADS, SHARDS, SWEEP_DELTA,
    SWEEP_GRID, SWEEP_N, SWEEP_TRIALS,
};
use decision::certified::ThresholdTable;
use orchestrator::split_grid;
use rand::counter::{threefry4x64_lanes, CounterKey};
use service::{
    AnalyticCache, CacheStatus, Envelope, MetricsFrame, Outcome, Request, Response, RuleFamily,
    RuleSpec,
};
use simulator::{
    sweep_threshold, sweep_threshold_shard, EngineMetrics, MetricsSnapshot, ShardSweep, Simulation,
    SweepCheckpoint,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use uniform_sums::EvalContext;

/// Exchanges replayed through the wire layer at most (evenly spaced).
const WIRE_SAMPLE: usize = 4_000;
/// Analytic queries replayed at most.
const ANALYTIC_SAMPLE: usize = 200;
/// Probe sweeps orchestrated when the workload ran none.
const PROBE_SWEEPS: u64 = 3;

/// One per-layer figure and the end-to-end metric it should move.
#[derive(Clone, Debug)]
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// `end-to-end metric(s) on workload(s)` this layer feeds.
    pub moves: &'static str,
    /// `workload` when measured on the run's own traffic, else `probe`.
    pub inputs: &'static str,
}

/// A conservation law checked on the traced run.
#[derive(Clone, Debug)]
pub struct Law {
    /// What was checked, with the figures.
    pub what: String,
    /// Whether it held.
    pub holds: bool,
}

/// One request/response pair as it crossed the wire.
#[derive(Clone, Debug)]
pub struct Exchange {
    /// The request as sent (with its correlation id).
    pub envelope: Envelope,
    /// The response as received.
    pub response: Response,
    /// Client-observed round trip, nanoseconds.
    pub roundtrip_ns: u64,
}

/// Collects the traced phase's exchanges, regenerating each request
/// from the seed; the response echoes the id the request carried.
pub fn exchanges(workload: Workload, seed: u64, logs: &[ClientLog]) -> Vec<Exchange> {
    let mut out = Vec::new();
    for (client, log) in logs.iter().enumerate() {
        let Some(mut stream) = workload::Stream::new(workload, seed, client) else {
            continue;
        };
        let mut traced = log.traced.iter().peekable();
        for (i, answer) in log.answers.iter().enumerate() {
            let request = stream.next_request();
            if let Some((_, response)) = traced.next_if(|(at, _)| *at == i) {
                out.push(Exchange {
                    envelope: Envelope {
                        id: response.id,
                        request,
                    },
                    response: response.clone(),
                    roundtrip_ns: u64::from(answer.ns),
                });
            }
        }
    }
    out
}

/// What the traced run hands to the layer probes.
pub struct Inputs<'a> {
    /// The workload traced.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// The certified table the daemon served.
    pub table: &'a ThresholdTable,
    /// Served exchanges of the traced phase (empty for sweeps).
    pub exchanges: Vec<Exchange>,
    /// Daemon counter frames at the start and end of the traced phase.
    pub frames: Option<(MetricsFrame, MetricsFrame)>,
    /// The daemon's engine snapshot after the run.
    pub daemon_engine: Option<MetricsSnapshot>,
    /// Trials the daemon was asked for over its lifetime.
    pub requested_trials: u64,
    /// Orchestrated sweeps of the traced phase (sweep workload only).
    pub swept: &'a [Swept],
    /// The `shard.*` ledger over every orchestrated sweep of the run.
    pub ledger: Option<MetricsSnapshot>,
    /// Orchestrated sweeps the ledger covers.
    pub ledger_sweeps: u64,
    /// The worker binary.
    pub worker: PathBuf,
    /// Scratch directory for checkpoint files.
    pub scratch: PathBuf,
    /// Traced over untraced throughput of this run.
    pub trace_ratio: f64,
}

/// Minimum of `reps` timings of `f`, nanoseconds.
fn min_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> u64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            elapsed_ns(t)
        })
        .min()
        .unwrap_or(0)
}

fn med(samples: Vec<f64>) -> f64 {
    Sorted::new(samples).median().unwrap_or(0.0)
}

/// Evenly spaced sample of at most `k` items.
fn spaced<T: Clone>(items: &[T], k: usize) -> Vec<T> {
    let step = items.len().div_ceil(k.max(1)).max(1);
    items.iter().step_by(step).cloned().collect()
}

/// Measures every layer. Returns the figures and the conservation laws.
pub fn measure(inputs: &Inputs<'_>) -> Result<(Vec<Layer>, Vec<Law>), String> {
    let mut layers = Vec::new();
    let mut laws = Vec::new();
    let served = !inputs.exchanges.is_empty();
    let from = |own: bool| if own { "workload" } else { "probe" };

    // Wire and query codec, on the exact lines (sweeps: the `sweep_mc`
    // query that would carry the same result).
    let lines = if served {
        spaced(&inputs.exchanges, WIRE_SAMPLE)
    } else {
        sweep_exchanges(inputs)
    };
    let wire = wire_stages(&lines, &mut laws);
    let stage_ns: Vec<[u64; 4]> = wire.iter().map(|w| w.ns).collect();
    let pick = |i: usize| med(stage_ns.iter().map(|s| s[i] as f64).collect());
    let hot = "latency_p50_us, qps on serve_hot";
    layers.push(layer(
        "query.request_encode_ns",
        pick(0),
        "ns",
        hot,
        "workload",
    ));
    layers.push(layer(
        "query.request_decode_ns",
        pick(1),
        "ns",
        hot,
        "workload",
    ));
    layers.push(layer(
        "query.response_encode_ns",
        pick(2),
        "ns",
        hot,
        "workload",
    ));
    layers.push(layer(
        "query.response_decode_ns",
        pick(3),
        "ns",
        hot,
        "workload",
    ));
    let bytes =
        wire.iter().map(|w| w.response_bytes as f64).sum::<f64>() / wire.len().max(1) as f64;
    layers.push(layer(
        "wire.response_bytes",
        bytes,
        "bytes",
        hot,
        "workload",
    ));

    // Cache and analytic core.
    let analytic: Vec<Request> = if served {
        inputs
            .exchanges
            .iter()
            .map(|x| x.envelope.request.clone())
            .filter(|r| !matches!(r, Request::Simulate { .. }))
            .collect()
    } else {
        Vec::new()
    };
    let own_analytic = !analytic.is_empty();
    let analytic = if own_analytic {
        analytic
    } else {
        HotShapes::new(inputs.seed).all()
    };
    let cache = cache_probe(inputs.table, &analytic)?;
    let miss_moves = "latency_p90_us on serve_cold";
    layers.push(layer(
        "cache.hit_ns",
        cache.hit_ns,
        "ns",
        "qps on serve_hot",
        from(own_analytic),
    ));
    layers.push(layer(
        "cache.miss_us",
        cache.miss_us,
        "us",
        miss_moves,
        from(own_analytic),
    ));
    let ratio = inputs.frames.map_or(0.0, |(a, b)| {
        let hits = b.cache_hits - a.cache_hits;
        let total = hits + b.cache_misses - a.cache_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    });
    layers.push(layer(
        "cache.hit_ratio",
        ratio,
        "ratio",
        "qps on serve_hot",
        "workload",
    ));
    layers.push(layer(
        "cache.contexts",
        cache.contexts as f64,
        "count",
        "peak_rss_mb on serve_cold",
        from(own_analytic),
    ));
    let (cold_us, shared_us, optimal_ms) = analytic_probe(&analytic)?;
    let core = "latency_p50_us, latency_p90_us, qps on serve_cold";
    layers.push(layer(
        "analytic.pwin_cold_us",
        cold_us,
        "us",
        core,
        from(own_analytic),
    ));
    layers.push(layer(
        "analytic.pwin_shared_ctx_us",
        shared_us,
        "us",
        core,
        from(own_analytic),
    ));
    layers.push(layer(
        "numeric.optimal_ms",
        optimal_ms,
        "ms",
        core,
        from(own_analytic),
    ));

    // The sweep the sweep-layer probes replay in-process: the traced
    // sweeps' own parameters, else a seeded probe sweep.
    let own_sweeps = inputs.workload == Workload::SweepSharded && !inputs.swept.is_empty();
    let sweep_seed = if own_sweeps {
        inputs.swept[0].seed
    } else {
        workload::sweep_seed(inputs.seed, 1 << 20)
    };
    std::fs::create_dir_all(&inputs.scratch).map_err(|e| e.to_string())?;
    let inproc = inproc_shards(inputs, sweep_seed)?;

    // Transport residual: round trip minus the replayed stages.
    residual(inputs, &wire, &inproc, &mut layers, &mut laws)?;

    // Engine, kernel and pool.
    let sims: Vec<Request> = distinct_simulations(&inputs.exchanges);
    let own_sims = !sims.is_empty();
    let sims = if own_sims {
        sims
    } else {
        simulate_pool(inputs.seed).into_iter().step_by(8).collect()
    };
    let engine = engine_probe(&sims, &inputs.exchanges, &mut laws)?;
    let tps = "qps (trials_per_s) on simulate";
    layers.push(layer(
        "engine.ns_per_trial",
        engine.ns_per_trial,
        "ns",
        tps,
        from(own_sims),
    ));
    layers.push(layer(
        "engine.ns_per_trial_1thread",
        engine.ns_1thread,
        "ns",
        tps,
        from(own_sims),
    ));
    layers.push(layer(
        "engine.batches",
        engine.batches as f64,
        "count",
        tps,
        from(own_sims),
    ));
    let kernel = "qps (trials_per_s) on simulate; latency_p50_us (sweep_wall_s) on sweep_sharded";
    layers.push(layer(
        "rng.lane_blocks_per_trial",
        engine.blocks_per_trial,
        "blocks",
        kernel,
        from(own_sims),
    ));
    layers.push(layer(
        "kernel.threefry_ns_per_trial",
        engine.threefry_ns,
        "ns",
        kernel,
        from(own_sims),
    ));
    layers.push(layer(
        "kernel.decide_ns_per_trial",
        engine.ns_1thread - engine.threefry_ns,
        "ns",
        kernel,
        from(own_sims),
    ));
    let daemon_pool = inputs.daemon_engine.as_ref().filter(|s| s.pool_jobs > 0);
    let pool = daemon_pool.unwrap_or(&engine.pool);
    let pool_from = from(daemon_pool.is_some());
    let pm = "latency_p90_us, qps (trials_per_s) on simulate";
    layers.push(layer(
        "pool.utilization",
        pool.pool_utilization(),
        "ratio",
        pm,
        pool_from,
    ));
    layers.push(layer(
        "pool.jobs",
        pool.pool_jobs as f64,
        "count",
        pm,
        pool_from,
    ));
    let job_mean_us = pool.pool_job_ns.sum as f64 / pool.pool_job_ns.count.max(1) as f64 / 1e3;
    layers.push(layer("pool.job_mean_us", job_mean_us, "us", pm, pool_from));
    layers.push(layer(
        "pool.expired_jobs",
        pool.pool_expired_jobs as f64,
        "count",
        pm,
        pool_from,
    ));
    layers.push(layer(
        "pool.panics",
        pool.pool_panics as f64,
        "count",
        pm,
        pool_from,
    ));
    if let Some(snap) = &inputs.daemon_engine {
        laws.push(Law {
            what: format!(
                "engine.trials {} = requested trials {}",
                snap.trials, inputs.requested_trials
            ),
            holds: snap.trials == inputs.requested_trials,
        });
    }

    // Sweep, checkpoint and orchestrator.
    sweep_layers(
        inputs,
        own_sweeps,
        sweep_seed,
        &inproc,
        &mut layers,
        &mut laws,
    )?;

    layers.push(layer(
        "trace.qps_ratio",
        inputs.trace_ratio,
        "ratio",
        "tracing overhead (traced / untraced qps)",
        "workload",
    ));
    Ok((layers, laws))
}

fn layer(
    name: &'static str,
    value: f64,
    unit: &'static str,
    moves: &'static str,
    inputs: &'static str,
) -> Layer {
    Layer {
        name,
        value,
        unit,
        moves,
        inputs,
    }
}

/// Stage costs of one exchange: request encode/decode, response
/// encode/decode, each the minimum over [`REPLAY_PASSES`] separated
/// passes of three back-to-back replays.
struct WireStages {
    ns: [u64; 4],
    response_bytes: usize,
    roundtrip_ns: u64,
    request: Request,
}

/// Replays run in this many passes over the whole sample, so one
/// stall on the machine cannot inflate a request's stage cost.
const REPLAY_PASSES: usize = 2;

/// How much slower than the served call a replay may read before the
/// residual law fails. A replay runs seconds after its request, and a
/// shared machine's speed drifts by up to a third between such
/// moments (seen as run-to-run throughput swings), so a request whose
/// stages fill its round trip can show a small negative residual.
const REPLAY_DRIFT: f64 = 0.5;

fn wire_stages(lines: &[Exchange], laws: &mut Vec<Law>) -> Vec<WireStages> {
    let encoded: Vec<(String, String)> = lines
        .iter()
        .map(|x| (x.envelope.to_json(), x.response.to_json()))
        .collect();
    let broken = lines
        .iter()
        .zip(&encoded)
        .filter(|(x, (req, resp))| {
            Envelope::parse(req).as_ref() != Ok(&x.envelope)
                || Response::parse(resp).as_ref() != Ok(&x.response)
        })
        .count();
    laws.push(Law {
        what: format!(
            "{} replayed lines re-encode to the exchanged values ({broken} differ)",
            lines.len()
        ),
        holds: broken == 0,
    });
    let mut ns = vec![[u64::MAX; 4]; lines.len()];
    for _ in 0..REPLAY_PASSES {
        for ((x, (req, resp)), best) in lines.iter().zip(&encoded).zip(&mut ns) {
            let pass = [
                min_ns(3, || x.envelope.to_json()),
                min_ns(3, || Envelope::parse(req)),
                min_ns(3, || x.response.to_json()),
                min_ns(3, || Response::parse(resp)),
            ];
            for (b, p) in best.iter_mut().zip(pass) {
                *b = (*b).min(p);
            }
        }
    }
    lines
        .iter()
        .zip(&encoded)
        .zip(ns)
        .map(|((x, (_, resp)), ns)| WireStages {
            ns,
            response_bytes: resp.len() + 1,
            roundtrip_ns: x.roundtrip_ns,
            request: x.envelope.request.clone(),
        })
        .collect()
}

/// The `sweep_mc` exchange that would carry each orchestrated sweep.
fn sweep_exchanges(inputs: &Inputs<'_>) -> Vec<Exchange> {
    inputs
        .swept
        .iter()
        .filter_map(|s| {
            let merged = s.doc.as_deref()?;
            Some(Exchange {
                envelope: Envelope {
                    id: 1,
                    request: Request::SweepMc {
                        n: merged.n,
                        delta: merged.delta,
                        grid: merged.grid,
                        trials: merged.trials,
                        seed: merged.seed,
                    },
                },
                response: Response {
                    id: 1,
                    outcome: Ok(Outcome::SweepMc {
                        trials: merged.trials,
                        points: merged
                            .points()
                            .iter()
                            .map(|p| (p.x, p.report.wins))
                            .collect(),
                    }),
                    metrics: MetricsFrame::default(),
                },
                roundtrip_ns: (s.wall_s * 1e9) as u64,
            })
        })
        .collect()
}

struct CacheFigures {
    hit_ns: f64,
    miss_us: f64,
    contexts: usize,
}

/// One call of the analytic cache; returns the disposition.
fn cache_call(
    cache: &AnalyticCache,
    request: &Request,
    table: &ThresholdTable,
) -> Result<Option<CacheStatus>, String> {
    let err = |e: decision::ModelError| e.to_string();
    Ok(match request {
        Request::PWin { delta, rule } => Some(cache.pwin(rule, *delta).map_err(err)?.1),
        Request::Optimal { family, n, delta } => {
            Some(cache.optimal(*family, *n, *delta).map_err(err)?.1)
        }
        Request::Sweep { n, delta, grid } => Some(cache.sweep(*n, *delta, *grid).map_err(err)?.1),
        Request::Threshold { n } => cache.threshold(*n, table).map(|(_, status)| status),
        _ => None,
    })
}

/// A bench-owned cache fed the queries twice: first calls that miss
/// time the miss path, the second pass times hits.
fn cache_probe(table: &ThresholdTable, queries: &[Request]) -> Result<CacheFigures, String> {
    let cache = AnalyticCache::new();
    let queries = spaced(queries, 5 * ANALYTIC_SAMPLE);
    let mut misses = Vec::new();
    for request in &queries {
        let t = Instant::now();
        let status = cache_call(&cache, request, table)?;
        let ns = elapsed_ns(t) as f64;
        if status == Some(CacheStatus::Miss) {
            misses.push(ns / 1e3);
        }
    }
    let mut hits = Vec::new();
    for request in &queries {
        let t = Instant::now();
        let status = cache_call(&cache, request, table)?;
        let ns = elapsed_ns(t) as f64;
        if status == Some(CacheStatus::Hit) {
            hits.push(ns);
        }
    }
    Ok(CacheFigures {
        hit_ns: med(hits),
        miss_us: med(misses),
        contexts: cache.contexts(),
    })
}

/// `pwin` with a fresh vs. a warmed context (median µs), and the
/// numeric optimizer (median ms).
fn analytic_probe(queries: &[Request]) -> Result<(f64, f64, f64), String> {
    let pwins: Vec<(RuleSpec, f64)> = queries
        .iter()
        .filter_map(|r| match r {
            Request::PWin { delta, rule } => Some((rule.clone(), *delta)),
            _ => None,
        })
        .collect();
    let pwins = spaced(&pwins, ANALYTIC_SAMPLE);
    let mut cold = Vec::new();
    let mut shared = Vec::new();
    let mut contexts: HashMap<(usize, u64), EvalContext<f64>> = HashMap::new();
    for (rule, delta) in &pwins {
        let t = Instant::now();
        black_box(pwin_in(&mut EvalContext::new(), rule, *delta)?);
        cold.push(elapsed_ns(t) as f64 / 1e3);
        let ctx = contexts.entry((rule.n(), delta.to_bits())).or_default();
        pwin_in(ctx, rule, *delta)?; // warm
        let t = Instant::now();
        black_box(pwin_in(ctx, rule, *delta)?);
        shared.push(elapsed_ns(t) as f64 / 1e3);
    }
    let mut optimal: Vec<(RuleFamily, usize, f64)> = queries
        .iter()
        .filter_map(|r| match r {
            Request::Optimal { family, n, delta } => Some((*family, *n, *delta)),
            _ => None,
        })
        .take(3)
        .collect();
    if optimal.is_empty() {
        optimal = vec![
            (RuleFamily::Threshold, 3, 1.0),
            (RuleFamily::Oblivious, 3, 1.0),
        ];
    }
    let mut optimal_ms = Vec::new();
    for (family, n, delta) in optimal {
        let t = Instant::now();
        black_box(optimum(family, n, delta)?);
        optimal_ms.push(elapsed_ns(t) as f64 / 1e6);
    }
    Ok((med(cold), med(shared), med(optimal_ms)))
}

/// The analytic stage of one served request, replayed on its own
/// (minimum of a few repeats): a warm-cache hit for workloads that
/// hit, the closed form on a warm context for `pwin` misses. Engine
/// runs and numeric searches stay in the residual: they take
/// milliseconds, and the machine's speed drifts between the served
/// call and its replay by more than the transport share (they are
/// timed on their own as `engine.*` and `numeric.optimal_ms`).
fn stage_ns(
    inputs: &Inputs<'_>,
    cache: &AnalyticCache,
    contexts: &mut HashMap<(usize, u64), EvalContext<f64>>,
    request: &Request,
) -> Result<u64, String> {
    if inputs.workload == Workload::ServeHot {
        let mut failed = None;
        let ns = min_ns(3, || {
            if let Err(e) = cache_call(cache, request, inputs.table) {
                failed = Some(e);
            }
        });
        return failed.map_or(Ok(ns), Err);
    }
    match request {
        Request::PWin { delta, rule } => {
            let ctx = contexts.entry((rule.n(), delta.to_bits())).or_default();
            pwin_in(ctx, rule, *delta)?; // warm, as the daemon's context is
            let mut failed = None;
            let ns = min_ns(3, || {
                if let Err(e) = pwin_in(ctx, rule, *delta) {
                    failed = Some(e);
                }
            });
            failed.map_or(Ok(ns), Err)
        }
        _ => Ok(0),
    }
}

/// `server.transport_residual_*`: per request, the round trip minus
/// the replayed query-codec and analytic stages; per sweep, the wall
/// minus the in-process shard and merge time. Each must be ≥ 0.
fn residual(
    inputs: &Inputs<'_>,
    wire: &[WireStages],
    inproc: &InProc,
    layers: &mut Vec<Layer>,
    laws: &mut Vec<Law>,
) -> Result<(), String> {
    // (round trip minus replayed stages, replayed stages), both µs.
    let mut split: Vec<(f64, f64)> = Vec::new();
    if inputs.workload == Workload::SweepSharded {
        let replayed = (inproc.max_ns + inproc.merge_ns) as f64 / 1e3;
        for s in inputs.swept {
            split.push((s.wall_s * 1e6 - replayed, replayed));
        }
    } else {
        let cache = AnalyticCache::new();
        for request in workload::warmup(inputs.workload, inputs.seed) {
            cache_call(&cache, &request, inputs.table)?;
        }
        if inputs.workload == Workload::ServeHot {
            for request in HotShapes::new(inputs.seed).all() {
                cache_call(&cache, &request, inputs.table)?;
            }
        }
        let mut contexts = HashMap::new();
        let mut stages = vec![u64::MAX; wire.len()];
        for _ in 0..REPLAY_PASSES {
            for (w, best) in wire.iter().zip(&mut stages) {
                *best = (*best).min(stage_ns(inputs, &cache, &mut contexts, &w.request)?);
            }
        }
        for (w, stage) in wire.iter().zip(stages) {
            let replayed = (w.ns.iter().sum::<u64>() + stage) as f64 / 1e3;
            split.push((w.roundtrip_ns as f64 / 1e3 - replayed, replayed));
        }
    }
    let negative = split.iter().filter(|(r, _)| *r < 0.0).count();
    let beyond_drift = split
        .iter()
        .filter(|(r, replayed)| *r < -REPLAY_DRIFT * replayed)
        .count();
    let worst = split.iter().map(|(r, _)| *r).fold(f64::INFINITY, f64::min);
    laws.push(Law {
        what: format!(
            "transport residual >= 0 on all {} replayed requests, up to the replay's timing drift \
             ({negative} negative, smallest {worst:.3} us; {beyond_drift} beyond {REPLAY_DRIFT} x the replayed stages)",
            split.len()
        ),
        holds: beyond_drift == 0 && !split.is_empty(),
    });
    let sorted = Sorted::new(split.into_iter().map(|(r, _)| r).collect());
    let p50 = sorted.median().unwrap_or(0.0);
    let tail = sorted
        .highest_supported(&[0.99, 0.9, 0.5])
        .map_or(p50, |q| q.value);
    let moves = "latency_p50_us on serve_hot";
    layers.push(layer(
        "server.transport_residual_p50_us",
        p50,
        "us",
        moves,
        "workload",
    ));
    layers.push(layer(
        "server.transport_residual_tail_us",
        tail,
        "us",
        moves,
        "workload",
    ));
    Ok(())
}

fn distinct_simulations(exchanges: &[Exchange]) -> Vec<Request> {
    let mut out: Vec<Request> = Vec::new();
    for x in exchanges {
        let r = &x.envelope.request;
        if matches!(r, Request::Simulate { .. }) && !out.contains(r) && out.len() < 6 {
            out.push(r.clone());
        }
    }
    out
}

struct EngineFigures {
    ns_per_trial: f64,
    ns_1thread: f64,
    batches: u64,
    blocks_per_trial: f64,
    threefry_ns: f64,
    pool: MetricsSnapshot,
}

/// Direct `Simulation::run` on the served rules: the daemon's thread
/// count and batch size, then one thread; the Threefry ceiling over
/// the same number of lane blocks.
fn engine_probe(
    sims: &[Request],
    exchanges: &[Exchange],
    laws: &mut Vec<Law>,
) -> Result<EngineFigures, String> {
    const REPS: usize = 3;
    let pooled_metrics = Arc::new(EngineMetrics::new());
    let single_metrics = Arc::new(EngineMetrics::new());
    let pooled = Simulation::new(BATCH_SIZE, 0)
        .with_batch_size(BATCH_SIZE)
        .with_threads(ENGINE_THREADS)
        .with_metrics(pooled_metrics.clone());
    let single = Simulation::new(BATCH_SIZE, 0)
        .with_batch_size(BATCH_SIZE)
        .with_threads(1)
        .with_metrics(single_metrics.clone());
    let (mut pooled_ns, mut single_ns, mut trials) = (0u64, 0u64, 0u64);
    let mut disagree = 0;
    for request in sims {
        let Request::Simulate {
            delta,
            trials: t,
            seed,
            rule,
        } = request
        else {
            continue;
        };
        let built = rule.build().map_err(|e| e.to_string())?;
        let run2 = pooled.retargeted(*t, *seed).map_err(|e| e.to_string())?;
        let run1 = single.retargeted(*t, *seed).map_err(|e| e.to_string())?;
        let mut wins = None;
        pooled_ns += min_ns(REPS, || wins = Some(run2.run(&*built, *delta).wins));
        single_ns += min_ns(REPS, || run1.run(&*built, *delta));
        trials += t;
        let served = exchanges.iter().find_map(|x| match &x.response.outcome {
            Ok(Outcome::Simulate { wins, .. }) if &x.envelope.request == request => Some(*wins),
            _ => None,
        });
        disagree += u64::from(served.is_some() && served != wins);
    }
    laws.push(Law {
        what: format!("direct engine runs reproduce the served wins ({disagree} differ)"),
        holds: disagree == 0,
    });
    let one = single_metrics.snapshot();
    // Blocks per trial from the single-thread runs (REPS runs each).
    let blocks_per_trial = one.rng_lane_blocks as f64 / one.trials.max(1) as f64;
    let blocks = one.rng_lane_blocks / REPS as u64;
    let key = CounterKey::from_seed(7);
    let threefry = min_ns(REPS, || {
        let mut acc = 0u64;
        let mut ctr = [[0u64; 16]; 4];
        for call in 0..blocks.div_ceil(16) {
            for (j, c) in ctr[0].iter_mut().enumerate() {
                *c = call * 16 + j as u64;
            }
            let out = threefry4x64_lanes::<16>(&key, black_box(&ctr));
            acc ^= out[0][0] ^ out[3][15];
        }
        acc
    });
    let per = |ns: u64| ns as f64 / trials.max(1) as f64;
    Ok(EngineFigures {
        ns_per_trial: per(pooled_ns),
        ns_1thread: per(single_ns),
        batches: pooled_metrics.snapshot().batches,
        blocks_per_trial,
        threefry_ns: per(threefry),
        pool: pooled_metrics.snapshot(),
    })
}

struct InProc {
    max_ns: u64,
    merge_ns: u64,
    shards: Vec<SweepCheckpoint>,
}

/// Each `split_grid` shard run in-process (minimum of three), and the
/// merge of their documents.
fn inproc_shards(inputs: &Inputs<'_>, seed: u64) -> Result<InProc, String> {
    let mut max_ns = u64::MAX;
    let mut shards = Vec::new();
    for _ in 0..3 {
        shards.clear();
        let mut slowest = 0;
        for spec in split_grid(SWEEP_GRID, SHARDS) {
            let path = inputs.scratch.join(format!("inproc-{}.json", spec.index));
            let _stale = std::fs::remove_file(&path);
            let req = SweepCheckpoint::shard(
                SWEEP_N,
                SWEEP_DELTA,
                SWEEP_GRID,
                SWEEP_TRIALS,
                seed,
                spec.start,
                spec.points,
            );
            let t = Instant::now();
            sweep_threshold_shard(req, &path).map_err(|e| e.to_string())?;
            slowest = slowest.max(elapsed_ns(t));
            shards.push(SweepCheckpoint::load(&path).map_err(|e| e.to_string())?);
            let _cleanup = std::fs::remove_file(&path);
        }
        max_ns = max_ns.min(slowest);
    }
    let whole = sweep::request(seed);
    let mut merged = Err(String::new());
    let merge_ns = min_ns(5, || {
        merged = SweepCheckpoint::merge_shards(&whole, &shards).map_err(|e| e.to_string());
    });
    merged?;
    Ok(InProc {
        max_ns,
        merge_ns,
        shards,
    })
}

fn sweep_layers(
    inputs: &Inputs<'_>,
    own: bool,
    seed: u64,
    inproc: &InProc,
    layers: &mut Vec<Layer>,
    laws: &mut Vec<Law>,
) -> Result<(), String> {
    let src = if own { "workload" } else { "probe" };
    let wall = "latency_p50_us (sweep_wall_s), qps on sweep_sharded";

    // Per-point step (engine + checkpoint write) of a whole-grid sweep.
    let path = inputs.scratch.join("steps.json");
    let _stale = std::fs::remove_file(&path);
    let mut steps = Vec::new();
    let mut shard = ShardSweep::open(sweep::request(seed), &path).map_err(|e| e.to_string())?;
    loop {
        let t = Instant::now();
        if !shard.step().map_err(|e| e.to_string())? {
            break;
        }
        steps.push(elapsed_ns(t) as f64 / 1e3);
    }
    let done = shard.checkpoint().clone();
    let writes: Vec<f64> = (0..20)
        .map(|_| {
            let t = Instant::now();
            done.write_atomic(&path)
                .map(|()| elapsed_ns(t) as f64 / 1e3)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let _cleanup = std::fs::remove_file(&path);
    layers.push(layer("sweep.point_us", med(steps), "us", wall, src));
    layers.push(layer("checkpoint.write_us", med(writes), "us", wall, src));
    layers.push(layer(
        "checkpoint.bytes",
        done.to_json().len() as f64,
        "bytes",
        wall,
        src,
    ));

    let merged = SweepCheckpoint::merge_shards(&sweep::request(seed), &inproc.shards)
        .map_err(|e| e.to_string())?;
    laws.push(Law {
        what: "in-process shards merge to the whole-grid step sweep".to_owned(),
        holds: merged == done,
    });
    layers.push(layer(
        "checkpoint.merge_ms",
        inproc.merge_ns as f64 / 1e6,
        "ms",
        wall,
        src,
    ));
    let single_ns = min_ns(2, || {
        sweep_threshold(SWEEP_N, SWEEP_DELTA, SWEEP_GRID, SWEEP_TRIALS, seed)
    });
    let single_s = single_ns as f64 / 1e9;
    layers.push(layer("sweep.single_process_s", single_s, "s", wall, src));

    // Orchestrator: spawn cost (spawn-and-wait of the worker's start
    // check), ledger, overhead against in-process.
    let spawns: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            sweep::worker_path().map(|_| elapsed_ns(t) as f64 / 1e6)
        })
        .collect::<Result<_, _>>()?;
    layers.push(layer(
        "orchestrator.spawn_ms",
        med(spawns),
        "ms",
        wall,
        "probe",
    ));
    let (ledger, sweeps, walls) = if own {
        let walls: Vec<f64> = inputs.swept.iter().map(|s| s.wall_s).collect();
        (
            inputs.ledger.clone().unwrap_or_default(),
            inputs.ledger_sweeps,
            walls,
        )
    } else {
        probe_sweeps(inputs)?
    };
    let expected_issued = sweeps * SHARDS as u64 + ledger.shard_reissued;
    laws.push(Law {
        what: format!(
            "shard.issued {} = shards x sweeps {} + reissued {} (reissued must be 0)",
            ledger.shard_issued,
            sweeps * SHARDS as u64,
            ledger.shard_reissued
        ),
        holds: ledger.shard_issued == expected_issued && ledger.shard_reissued == 0,
    });
    layers.push(layer(
        "shard.issued",
        ledger.shard_issued as f64,
        "count",
        wall,
        src,
    ));
    layers.push(layer(
        "shard.reissued",
        ledger.shard_reissued as f64,
        "count",
        wall,
        src,
    ));
    let inproc_ms = inproc.max_ns as f64 / 1e6;
    layers.push(layer("shard.inproc_max_ms", inproc_ms, "ms", wall, src));
    let median_wall = median(&walls).unwrap_or(f64::NAN);
    layers.push(layer(
        "orchestrator.overhead_frac",
        1.0 - inproc_ms / 1e3 / median_wall,
        "ratio",
        wall,
        src,
    ));
    layers.push(layer(
        "orchestrator.speedup_vs_single",
        single_s / median_wall,
        "ratio",
        wall,
        src,
    ));
    Ok(())
}

/// A few orchestrated sweeps for workloads that ran none.
fn probe_sweeps(inputs: &Inputs<'_>) -> Result<(MetricsSnapshot, u64, Vec<f64>), String> {
    let sink = Arc::new(EngineMetrics::new());
    let mut walls = Vec::new();
    for j in 0..PROBE_SWEEPS {
        let req = sweep::request(workload::sweep_seed(inputs.seed, (1 << 20) + j));
        let t = Instant::now();
        sweep::orchestrate(
            &req,
            &inputs.scratch.join(format!("probe-{j}")),
            &inputs.worker,
            sink.clone(),
        )?;
        walls.push(t.elapsed().as_secs_f64());
    }
    Ok((sink.snapshot(), PROBE_SWEEPS, walls))
}
