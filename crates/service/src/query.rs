//! Typed queries and answers, with their wire encoding.
//!
//! One request (and one response) is one JSON object on one line.
//! Every request carries a client-chosen `id` that the response
//! echoes, so a client may pipeline many requests over one
//! connection. Floats travel as shortest round-trip number tokens
//! ([`wire::write_number`]), so `δ` and rule parameters arrive at the
//! daemon **bit-identical** to the client's values — the foundation
//! of the served-vs-direct identity tests.
//!
//! The rule grammar is deliberately wider than what the daemon can
//! evaluate today: a rule is a `{"family": …, "params": […]}` object,
//! and unknown families (shared-randomness mixtures, leader-election
//! baselines from the protocol-continuum roadmap) parse up to a
//! well-formed error instead of a protocol failure, so future
//! families extend the schema without breaking deployed clients.

use crate::server::MAX_PLAYERS;
use crate::wire::{self, Json};
use decision::{LocalRule, ModelError, ObliviousAlgorithm, SingleThresholdAlgorithm};
use simulator::SimulationReport;
use std::fmt::Write as _;

/// The protocol tag every request and response carries.
pub const PROTOCOL_VERSION: &str = "nocomm-service/v1";

/// A local-rule family the protocol can name.
///
/// `#[non_exhaustive]`: the protocol-continuum roadmap adds families
/// (shared-randomness rules, leader-election baselines) without a
/// breaking change.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum RuleFamily {
    /// Single-threshold rules: player `i` picks bin 0 iff `x_i ≤ a_i`.
    Threshold,
    /// Oblivious rules: player `i` picks bin 0 with probability `α_i`,
    /// ignoring its input.
    Oblivious,
}

impl RuleFamily {
    /// The wire name of the family.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RuleFamily::Threshold => "threshold",
            RuleFamily::Oblivious => "oblivious",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Returns a message naming the supported families — unknown
    /// names are a *query* error, not a protocol error, so future
    /// families degrade gracefully on old daemons.
    pub fn parse(name: &str) -> Result<RuleFamily, String> {
        match name {
            "threshold" => Ok(RuleFamily::Threshold),
            "oblivious" => Ok(RuleFamily::Oblivious),
            other => Err(format!(
                "unsupported rule family {other:?} (this daemon serves: threshold, oblivious)"
            )),
        }
    }
}

/// A serializable rule description: a family plus its parameter
/// vector.
#[derive(Clone, Debug, PartialEq)]
pub struct RuleSpec {
    /// The rule family.
    pub family: RuleFamily,
    /// Per-player parameters (thresholds `a_i` or probabilities `α_i`).
    pub params: Vec<f64>,
}

impl RuleSpec {
    /// A symmetric single-threshold rule description.
    #[must_use]
    pub fn threshold(params: Vec<f64>) -> RuleSpec {
        RuleSpec {
            family: RuleFamily::Threshold,
            params,
        }
    }

    /// An oblivious rule description.
    #[must_use]
    pub fn oblivious(params: Vec<f64>) -> RuleSpec {
        RuleSpec {
            family: RuleFamily::Oblivious,
            params,
        }
    }

    /// Number of players the description covers.
    #[must_use]
    pub fn n(&self) -> usize {
        self.params.len()
    }

    /// Materializes the described rule for the simulation engine.
    /// Parameters convert exactly (dyadic rationals), so the engine
    /// sees bit-identical `f64` values through the kernel hint.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] for out-of-range or non-finite
    /// parameters or fewer than two players.
    pub fn build(&self) -> Result<Box<dyn LocalRule + Send + Sync>, ModelError> {
        match self.family {
            RuleFamily::Threshold => {
                Ok(Box::new(SingleThresholdAlgorithm::from_f64(&self.params)?))
            }
            RuleFamily::Oblivious => Ok(Box::new(ObliviousAlgorithm::from_f64(&self.params)?)),
        }
    }

    fn from_json(value: &Json<'_>) -> Result<RuleSpec, String> {
        let fields = value.fields("rule")?;
        let family = RuleFamily::parse(wire::field(fields, "family", "rule")?.str("rule.family")?)?;
        let mut params = Vec::new();
        for (i, item) in wire::field(fields, "params", "rule")?
            .items("rule.params")?
            .iter()
            .enumerate()
        {
            params.push(item.f64(&format!("rule.params[{i}]"))?);
        }
        Ok(RuleSpec { family, params })
    }

    fn write(&self, out: &mut String) {
        out.push_str("{\"family\": ");
        wire::write_str(out, self.family.as_str());
        out.push_str(", \"params\": [");
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            wire::write_number(out, *p);
        }
        out.push_str("]}");
    }
}

/// One query the daemon can answer.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Request {
    /// `P_A(δ)` of a described rule, by the paper's closed forms
    /// (Theorem 4.1 for oblivious, Theorem 5.1 for thresholds),
    /// served through the analytic cache.
    PWin {
        /// Bin capacity δ.
        delta: f64,
        /// The rule under evaluation.
        rule: RuleSpec,
    },
    /// The optimal parameter vector of a family at `(n, δ)`
    /// (derivative-free maximization over `[0,1]^n`).
    Optimal {
        /// The family to optimize over.
        family: RuleFamily,
        /// Number of players.
        n: usize,
        /// Bin capacity δ.
        delta: f64,
    },
    /// The closed-form curve `P(β, δ)` of the symmetric threshold
    /// family over a uniform β grid.
    Sweep {
        /// Number of players.
        n: usize,
        /// Bin capacity δ.
        delta: f64,
        /// Grid divisions (the sweep has `grid + 1` points).
        grid: usize,
    },
    /// The certified optimal-threshold enclosure `β*_n` (and `P*_n`)
    /// at the paper's capacity rule `δ = n/3`, served from the
    /// precomputed `threshold-table/v1` table held in memory.
    Threshold {
        /// Number of players.
        n: u32,
    },
    /// A Monte-Carlo sweep of the symmetric threshold family, fanned
    /// out over worker *processes* by the orchestrator and merged
    /// bit-identically to a single uninterrupted sweep. A query error
    /// on daemons configured without a worker binary.
    SweepMc {
        /// Number of players.
        n: usize,
        /// Bin capacity δ.
        delta: f64,
        /// Grid divisions (the sweep has `grid + 1` points).
        grid: usize,
        /// Monte-Carlo trials per grid point.
        trials: u64,
        /// Sweep seed — point `k` runs on a stream derived from
        /// `(seed, k)`, so sharding cannot change the answer.
        seed: u64,
    },
    /// The orchestrator's shard supervision ledger (issued, completed,
    /// re-issued, killed, corrupt), for watching fan-out health.
    Shards,
    /// A Monte-Carlo confidence run of a described rule, batched onto
    /// the daemon's shared worker pool.
    Simulate {
        /// Bin capacity δ.
        delta: f64,
        /// Trials to run.
        trials: u64,
        /// Engine seed — same seed, same report, bit for bit.
        seed: u64,
        /// The rule under simulation.
        rule: RuleSpec,
    },
    /// Begin a graceful shutdown: in-flight requests drain, new
    /// connections are refused, the worker pool closes.
    Shutdown,
}

impl Request {
    /// The request's wire kind.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Request::PWin { .. } => "pwin",
            Request::Optimal { .. } => "optimal",
            Request::Sweep { .. } => "sweep",
            Request::SweepMc { .. } => "sweep_mc",
            Request::Shards => "shards",
            Request::Threshold { .. } => "threshold",
            Request::Simulate { .. } => "simulate",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A request plus its client-chosen correlation id.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Echoed verbatim in the response.
    pub id: u64,
    /// The query itself.
    pub request: Request,
}

impl Envelope {
    /// Serializes the request as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"v\": ");
        wire::write_str(&mut out, PROTOCOL_VERSION);
        let _ = write!(out, ", \"id\": {}, \"kind\": ", self.id);
        wire::write_str(&mut out, self.request.kind());
        match &self.request {
            Request::PWin { delta, rule } => {
                out.push_str(", \"delta\": ");
                wire::write_number(&mut out, *delta);
                out.push_str(", \"rule\": ");
                rule.write(&mut out);
            }
            Request::Optimal { family, n, delta } => {
                out.push_str(", \"family\": ");
                wire::write_str(&mut out, family.as_str());
                let _ = write!(out, ", \"n\": {n}, \"delta\": ");
                wire::write_number(&mut out, *delta);
            }
            Request::Sweep { n, delta, grid } => {
                let _ = write!(out, ", \"n\": {n}, \"delta\": ");
                wire::write_number(&mut out, *delta);
                let _ = write!(out, ", \"grid\": {grid}");
            }
            Request::SweepMc {
                n,
                delta,
                grid,
                trials,
                seed,
            } => {
                let _ = write!(out, ", \"n\": {n}, \"delta\": ");
                wire::write_number(&mut out, *delta);
                let _ = write!(
                    out,
                    ", \"grid\": {grid}, \"trials\": {trials}, \"seed\": {seed}"
                );
            }
            Request::Shards | Request::Shutdown => {}
            Request::Threshold { n } => {
                let _ = write!(out, ", \"n\": {n}");
            }
            Request::Simulate {
                delta,
                trials,
                seed,
                rule,
            } => {
                out.push_str(", \"delta\": ");
                wire::write_number(&mut out, *delta);
                let _ = write!(out, ", \"trials\": {trials}, \"seed\": {seed}, \"rule\": ");
                rule.write(&mut out);
            }
        }
        out.push('}');
        out
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a wrong protocol tag, a
    /// missing/ill-typed field, or an unknown kind or rule family.
    pub fn parse(line: &str) -> Result<Envelope, String> {
        let value = wire::parse(line)?;
        let fields = value.fields("request")?;
        if let Some(v) = wire::field_opt(fields, "v") {
            let tag = v.str("v")?;
            if tag != PROTOCOL_VERSION {
                return Err(format!(
                    "protocol {tag:?} is not supported (this daemon speaks {PROTOCOL_VERSION:?})"
                ));
            }
        }
        let id = wire::field(fields, "id", "request")?.u64("id")?;
        let kind = wire::field(fields, "kind", "request")?.str("kind")?;
        let delta = |what: &str| -> Result<f64, String> {
            let d = wire::field(fields, "delta", what)?.f64("delta")?;
            if d > 0.0 {
                Ok(d)
            } else {
                Err(format!("delta must be positive, found {d:?}"))
            }
        };
        let rule = |what: &str| RuleSpec::from_json(wire::field(fields, "rule", what)?);
        // Analytic and Monte-Carlo work both grow with the player
        // count: refuse oversized systems before any compute.
        let bounded = |n: usize, what: &str| -> Result<usize, String> {
            if n > MAX_PLAYERS {
                Err(format!(
                    "{what} has {n} players; this daemon takes at most {MAX_PLAYERS}"
                ))
            } else {
                Ok(n)
            }
        };
        let request = match kind {
            "pwin" => {
                let delta = delta("pwin request")?;
                let rule = rule("pwin request")?;
                bounded(rule.n(), "pwin rule")?;
                Request::PWin { delta, rule }
            }
            "optimal" => Request::Optimal {
                family: RuleFamily::parse(
                    wire::field(fields, "family", "optimal request")?.str("family")?,
                )?,
                n: usize::try_from(wire::field(fields, "n", "optimal request")?.u64("n")?)
                    .map_err(|_| "n out of range".to_owned())?,
                delta: delta("optimal request")?,
            },
            "sweep" => Request::Sweep {
                n: bounded(
                    usize::try_from(wire::field(fields, "n", "sweep request")?.u64("n")?)
                        .map_err(|_| "n out of range".to_owned())?,
                    "sweep request",
                )?,
                delta: delta("sweep request")?,
                grid: usize::try_from(wire::field(fields, "grid", "sweep request")?.u64("grid")?)
                    .map_err(|_| "grid out of range".to_owned())?,
            },
            "sweep_mc" => Request::SweepMc {
                n: bounded(
                    usize::try_from(wire::field(fields, "n", "sweep_mc request")?.u64("n")?)
                        .map_err(|_| "n out of range".to_owned())?,
                    "sweep_mc request",
                )?,
                delta: delta("sweep_mc request")?,
                grid: usize::try_from(
                    wire::field(fields, "grid", "sweep_mc request")?.u64("grid")?,
                )
                .map_err(|_| "grid out of range".to_owned())?,
                trials: wire::field(fields, "trials", "sweep_mc request")?.u64("trials")?,
                seed: wire::field(fields, "seed", "sweep_mc request")?.u64("seed")?,
            },
            "shards" => Request::Shards,
            "threshold" => Request::Threshold {
                n: u32::try_from(wire::field(fields, "n", "threshold request")?.u64("n")?)
                    .map_err(|_| "n out of range".to_owned())?,
            },
            "simulate" => {
                let delta = delta("simulate request")?;
                let trials = wire::field(fields, "trials", "simulate request")?.u64("trials")?;
                let seed = wire::field(fields, "seed", "simulate request")?.u64("seed")?;
                let rule = rule("simulate request")?;
                bounded(rule.n(), "simulate rule")?;
                Request::Simulate {
                    delta,
                    trials,
                    seed,
                    rule,
                }
            }
            "shutdown" => Request::Shutdown,
            other => {
                return Err(format!(
                    "unknown request kind {other:?} (pwin, optimal, sweep, sweep_mc, shards, threshold, simulate, shutdown)"
                ))
            }
        };
        Ok(Envelope { id, request })
    }
}

/// Whether an analytic answer came from the concurrent cache or was
/// computed on this request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served in O(1) from the read-through cache.
    Hit,
    /// Computed (and cached) on this request.
    Miss,
}

impl CacheStatus {
    /// The wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
        }
    }

    fn parse(name: &str) -> Result<CacheStatus, String> {
        match name {
            "hit" => Ok(CacheStatus::Hit),
            "miss" => Ok(CacheStatus::Miss),
            other => Err(format!("unknown cache status {other:?}")),
        }
    }
}

/// The service-level counters every response carries, in the flat
/// `engine-metrics/v1` counter style: observability is part of the
/// protocol, not an add-on endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsFrame {
    /// Requests accepted over the daemon's lifetime.
    pub requests: u64,
    /// Requests in flight right now (the queue depth, this one
    /// included).
    pub inflight: u64,
    /// Analytic queries served from the cache.
    pub cache_hits: u64,
    /// Analytic queries computed on miss.
    pub cache_misses: u64,
    /// Monte-Carlo runs executed on the shared engine.
    pub sim_runs: u64,
    /// Engine batches executed across all Monte-Carlo runs.
    pub sim_batches: u64,
    /// Trials per engine batch (the request-batching granularity).
    pub batch_size: u64,
}

impl MetricsFrame {
    /// The frame as ordered `(key, value)` counter rows.
    #[must_use]
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("requests.total", self.requests),
            ("requests.inflight", self.inflight),
            ("cache.hits", self.cache_hits),
            ("cache.misses", self.cache_misses),
            ("sim.runs", self.sim_runs),
            ("sim.batches", self.sim_batches),
            ("sim.batch_size", self.batch_size),
        ]
    }

    fn write(&self, out: &mut String) {
        out.push('{');
        for (i, (key, value)) in self.counters().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            wire::write_str(out, key);
            let _ = write!(out, ": {value}");
        }
        out.push('}');
    }

    fn from_json(value: &Json<'_>) -> Result<MetricsFrame, String> {
        let fields = value.fields("metrics")?;
        let get =
            |key: &str| -> Result<u64, String> { wire::field(fields, key, "metrics")?.u64(key) };
        Ok(MetricsFrame {
            requests: get("requests.total")?,
            inflight: get("requests.inflight")?,
            cache_hits: get("cache.hits")?,
            cache_misses: get("cache.misses")?,
            sim_runs: get("sim.runs")?,
            sim_batches: get("sim.batches")?,
            batch_size: get("sim.batch_size")?,
        })
    }
}

/// A successful answer.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Outcome {
    /// The closed-form winning probability.
    PWin {
        /// `P_A(δ)`.
        value: f64,
        /// Cache disposition of the answer.
        cache: CacheStatus,
    },
    /// The family optimum at `(n, δ)`.
    Optimal {
        /// The maximizing parameter vector.
        params: Vec<f64>,
        /// The achieved winning probability.
        value: f64,
        /// Objective evaluations the (possibly cached) search spent.
        evaluations: u64,
        /// Cache disposition of the answer.
        cache: CacheStatus,
    },
    /// The analytic curve as `(β, P(β, δ))` pairs.
    Sweep {
        /// Grid points in ascending β order.
        points: Vec<(f64, f64)>,
        /// Cache disposition of the answer.
        cache: CacheStatus,
    },
    /// A certified optimal-threshold row at `δ = n/3`: rigorous
    /// enclosures of `β*_n` and `P*_n` whose endpoints travel
    /// bit-exactly, so repeat queries (cache hits) are bit-identical.
    Threshold {
        /// Lower bound of the certified `β*_n` enclosure.
        beta_lo: f64,
        /// Upper bound of the certified `β*_n` enclosure.
        beta_hi: f64,
        /// Lower bound of the certified `P*_n` enclosure.
        p_lo: f64,
        /// Upper bound of the certified `P*_n` enclosure.
        p_hi: f64,
        /// Certifying pipeline (`"exact"` or `"ball"`).
        method: String,
        /// Cache disposition of the answer.
        cache: CacheStatus,
    },
    /// A sharded Monte-Carlo sweep: per-point win counts merged from
    /// worker-process shard checkpoints, byte-identical to a single
    /// uninterrupted sweep. Only counts travel — estimates rebuild
    /// through [`SimulationReport::from_counts`].
    SweepMc {
        /// Trials per grid point.
        trials: u64,
        /// `(β, wins)` per grid point in ascending β order.
        points: Vec<(f64, u64)>,
    },
    /// The shard supervision ledger at answer time.
    Shards {
        /// Worker processes issued (spawned) in total.
        issued: u64,
        /// Shards completed by workers and accepted.
        completed: u64,
        /// Shards re-issued after a worker death, stall, or corrupt
        /// hand-back.
        reissued: u64,
        /// Workers killed by the supervisor (stall or deadline).
        killed: u64,
        /// Corrupt shard checkpoints detected and scrubbed.
        corrupt: u64,
    },
    /// The Monte-Carlo estimate. Only the counts travel: estimate and
    /// standard error are rebuilt through
    /// [`SimulationReport::from_counts`], the same code path a direct
    /// run uses, so round-tripping cannot drift.
    Simulate {
        /// Winning trials.
        wins: u64,
        /// Total trials.
        trials: u64,
    },
    /// The daemon acknowledged a shutdown request and is draining.
    ShuttingDown,
}

impl Outcome {
    /// Rebuilds the full report of a [`Outcome::Simulate`] answer.
    /// Returns `None` for other outcome kinds.
    #[must_use]
    pub fn report(&self) -> Option<SimulationReport> {
        match self {
            Outcome::Simulate { wins, trials } => {
                Some(SimulationReport::from_counts(*wins, *trials))
            }
            _ => None,
        }
    }

    /// Whether every number the outcome carries is finite — the wire
    /// format (JSON) has no spelling for an infinity or NaN.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        match self {
            Outcome::PWin { value, .. } => value.is_finite(),
            Outcome::Optimal { params, value, .. } => {
                value.is_finite() && params.iter().all(|p| p.is_finite())
            }
            Outcome::Sweep { points, .. } => {
                points.iter().all(|(x, p)| x.is_finite() && p.is_finite())
            }
            Outcome::Threshold {
                beta_lo,
                beta_hi,
                p_lo,
                p_hi,
                ..
            } => [beta_lo, beta_hi, p_lo, p_hi].iter().all(|v| v.is_finite()),
            Outcome::SweepMc { points, .. } => points.iter().all(|(x, _)| x.is_finite()),
            Outcome::Shards { .. } | Outcome::Simulate { .. } | Outcome::ShuttingDown => true,
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Outcome::PWin { .. } => "pwin",
            Outcome::Optimal { .. } => "optimal",
            Outcome::Sweep { .. } => "sweep",
            Outcome::SweepMc { .. } => "sweep_mc",
            Outcome::Shards { .. } => "shards",
            Outcome::Threshold { .. } => "threshold",
            Outcome::Simulate { .. } => "simulate",
            Outcome::ShuttingDown => "shutdown",
        }
    }
}

/// One answer line: the echoed id, the outcome (or a query error),
/// and the service metrics frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The request's correlation id, echoed.
    pub id: u64,
    /// The answer, or a human-readable query error.
    pub outcome: Result<Outcome, String>,
    /// Service counters at answer time.
    pub metrics: MetricsFrame,
}

impl Response {
    /// Serializes the response as one JSON line (no trailing
    /// newline).
    #[must_use]
    #[allow(clippy::too_many_lines)] // one block per outcome variant; the flow reads top to bottom
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"v\": ");
        wire::write_str(&mut out, PROTOCOL_VERSION);
        let _ = write!(out, ", \"id\": {}, \"ok\": ", self.id);
        match &self.outcome {
            Ok(outcome) => {
                out.push_str("true, \"kind\": ");
                wire::write_str(&mut out, outcome.kind());
                match outcome {
                    Outcome::PWin { value, cache } => {
                        out.push_str(", \"value\": ");
                        wire::write_number(&mut out, *value);
                        out.push_str(", \"cache\": ");
                        wire::write_str(&mut out, cache.as_str());
                    }
                    Outcome::Optimal {
                        params,
                        value,
                        evaluations,
                        cache,
                    } => {
                        out.push_str(", \"params\": [");
                        for (i, p) in params.iter().enumerate() {
                            if i > 0 {
                                out.push_str(", ");
                            }
                            wire::write_number(&mut out, *p);
                        }
                        out.push_str("], \"value\": ");
                        wire::write_number(&mut out, *value);
                        let _ = write!(out, ", \"evaluations\": {evaluations}, \"cache\": ");
                        wire::write_str(&mut out, cache.as_str());
                    }
                    Outcome::Sweep { points, cache } => {
                        out.push_str(", \"points\": [");
                        for (i, (x, p)) in points.iter().enumerate() {
                            if i > 0 {
                                out.push_str(", ");
                            }
                            out.push('[');
                            wire::write_number(&mut out, *x);
                            out.push_str(", ");
                            wire::write_number(&mut out, *p);
                            out.push(']');
                        }
                        out.push_str("], \"cache\": ");
                        wire::write_str(&mut out, cache.as_str());
                    }
                    Outcome::Threshold {
                        beta_lo,
                        beta_hi,
                        p_lo,
                        p_hi,
                        method,
                        cache,
                    } => {
                        out.push_str(", \"beta_lo\": ");
                        wire::write_number(&mut out, *beta_lo);
                        out.push_str(", \"beta_hi\": ");
                        wire::write_number(&mut out, *beta_hi);
                        out.push_str(", \"p_lo\": ");
                        wire::write_number(&mut out, *p_lo);
                        out.push_str(", \"p_hi\": ");
                        wire::write_number(&mut out, *p_hi);
                        out.push_str(", \"method\": ");
                        wire::write_str(&mut out, method);
                        out.push_str(", \"cache\": ");
                        wire::write_str(&mut out, cache.as_str());
                    }
                    Outcome::SweepMc { trials, points } => {
                        let _ = write!(out, ", \"trials\": {trials}, \"points\": [");
                        for (i, (x, wins)) in points.iter().enumerate() {
                            if i > 0 {
                                out.push_str(", ");
                            }
                            out.push('[');
                            wire::write_number(&mut out, *x);
                            let _ = write!(out, ", {wins}]");
                        }
                        out.push(']');
                    }
                    Outcome::Shards {
                        issued,
                        completed,
                        reissued,
                        killed,
                        corrupt,
                    } => {
                        let _ = write!(
                            out,
                            ", \"issued\": {issued}, \"completed\": {completed}, \"reissued\": {reissued}, \"killed\": {killed}, \"corrupt\": {corrupt}"
                        );
                    }
                    Outcome::Simulate { wins, trials } => {
                        let _ = write!(out, ", \"wins\": {wins}, \"trials\": {trials}");
                    }
                    Outcome::ShuttingDown => {}
                }
            }
            Err(message) => {
                out.push_str("false, \"error\": ");
                wire::write_str(&mut out, message);
            }
        }
        out.push_str(", \"metrics\": ");
        self.metrics.write(&mut out);
        out.push('}');
        out
    }

    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON or a structurally invalid
    /// response.
    #[allow(clippy::too_many_lines)] // one block per outcome variant; the flow reads top to bottom
    pub fn parse(line: &str) -> Result<Response, String> {
        let value = wire::parse(line)?;
        let fields = value.fields("response")?;
        let id = wire::field(fields, "id", "response")?.u64("id")?;
        let metrics = MetricsFrame::from_json(wire::field(fields, "metrics", "response")?)?;
        let ok = wire::field(fields, "ok", "response")?.bool("ok")?;
        if !ok {
            let message = wire::field(fields, "error", "response")?
                .str("error")?
                .to_owned();
            return Ok(Response {
                id,
                outcome: Err(message),
                metrics,
            });
        }
        let kind = wire::field(fields, "kind", "response")?.str("kind")?;
        let cache = || -> Result<CacheStatus, String> {
            CacheStatus::parse(wire::field(fields, "cache", "response")?.str("cache")?)
        };
        let outcome = match kind {
            "pwin" => Outcome::PWin {
                value: wire::field(fields, "value", "pwin response")?.f64("value")?,
                cache: cache()?,
            },
            "optimal" => {
                let mut params = Vec::new();
                for (i, item) in wire::field(fields, "params", "optimal response")?
                    .items("params")?
                    .iter()
                    .enumerate()
                {
                    params.push(item.f64(&format!("params[{i}]"))?);
                }
                Outcome::Optimal {
                    params,
                    value: wire::field(fields, "value", "optimal response")?.f64("value")?,
                    evaluations: wire::field(fields, "evaluations", "optimal response")?
                        .u64("evaluations")?,
                    cache: cache()?,
                }
            }
            "sweep" => {
                let mut points = Vec::new();
                for (i, item) in wire::field(fields, "points", "sweep response")?
                    .items("points")?
                    .iter()
                    .enumerate()
                {
                    let pair = item.items(&format!("points[{i}]"))?;
                    if pair.len() != 2 {
                        return Err(format!("points[{i}] must be an [x, p] pair"));
                    }
                    points.push((pair[0].f64("x")?, pair[1].f64("p")?));
                }
                Outcome::Sweep {
                    points,
                    cache: cache()?,
                }
            }
            "threshold" => {
                let num = |key: &str| -> Result<f64, String> {
                    wire::field(fields, key, "threshold response")?.f64(key)
                };
                Outcome::Threshold {
                    beta_lo: num("beta_lo")?,
                    beta_hi: num("beta_hi")?,
                    p_lo: num("p_lo")?,
                    p_hi: num("p_hi")?,
                    method: wire::field(fields, "method", "threshold response")?
                        .str("method")?
                        .to_owned(),
                    cache: cache()?,
                }
            }
            "sweep_mc" => {
                let trials = wire::field(fields, "trials", "sweep_mc response")?.u64("trials")?;
                let mut points = Vec::new();
                for (i, item) in wire::field(fields, "points", "sweep_mc response")?
                    .items("points")?
                    .iter()
                    .enumerate()
                {
                    let pair = item.items(&format!("points[{i}]"))?;
                    if pair.len() != 2 {
                        return Err(format!("points[{i}] must be a [beta, wins] pair"));
                    }
                    let wins = pair[1].u64("wins")?;
                    if wins > trials {
                        return Err(format!("{wins} wins out of {trials} trials is impossible"));
                    }
                    points.push((pair[0].f64("beta")?, wins));
                }
                Outcome::SweepMc { trials, points }
            }
            "shards" => {
                let get = |key: &str| -> Result<u64, String> {
                    wire::field(fields, key, "shards response")?.u64(key)
                };
                Outcome::Shards {
                    issued: get("issued")?,
                    completed: get("completed")?,
                    reissued: get("reissued")?,
                    killed: get("killed")?,
                    corrupt: get("corrupt")?,
                }
            }
            "simulate" => {
                let wins = wire::field(fields, "wins", "simulate response")?.u64("wins")?;
                let trials = wire::field(fields, "trials", "simulate response")?.u64("trials")?;
                if wins > trials {
                    return Err(format!("{wins} wins out of {trials} trials is impossible"));
                }
                Outcome::Simulate { wins, trials }
            }
            "shutdown" => Outcome::ShuttingDown,
            other => return Err(format!("unknown response kind {other:?}")),
        };
        Ok(Response {
            id,
            outcome: Ok(outcome),
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> MetricsFrame {
        MetricsFrame {
            requests: 10,
            inflight: 2,
            cache_hits: 5,
            cache_misses: 3,
            sim_runs: 1,
            sim_batches: 7,
            batch_size: 16_384,
        }
    }

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Envelope {
                id: 1,
                request: Request::PWin {
                    delta: 1.0,
                    rule: RuleSpec::threshold(vec![0.622, 0.622, 0.622]),
                },
            },
            Envelope {
                id: 2,
                request: Request::Optimal {
                    family: RuleFamily::Oblivious,
                    n: 4,
                    delta: 4.0 / 3.0,
                },
            },
            Envelope {
                id: 3,
                request: Request::Sweep {
                    n: 3,
                    delta: 0.1,
                    grid: 32,
                },
            },
            Envelope {
                id: 4,
                request: Request::Threshold { n: 96 },
            },
            Envelope {
                id: u64::MAX,
                request: Request::Simulate {
                    delta: 1.0,
                    trials: 100_000,
                    seed: 42,
                    rule: RuleSpec::oblivious(vec![0.5, 0.5]),
                },
            },
            Envelope {
                id: 6,
                request: Request::SweepMc {
                    n: 3,
                    delta: 1.0,
                    grid: 8,
                    trials: 10_000,
                    seed: 17,
                },
            },
            Envelope {
                id: 7,
                request: Request::Shards,
            },
            Envelope {
                id: 5,
                request: Request::Shutdown,
            },
        ];
        for envelope in cases {
            let line = envelope.to_json();
            assert!(!line.contains('\n'), "one line: {line}");
            let back = Envelope::parse(&line).unwrap();
            assert_eq!(back, envelope, "{line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response {
                id: 1,
                outcome: Ok(Outcome::PWin {
                    value: 0.544_727,
                    cache: CacheStatus::Hit,
                }),
                metrics: frame(),
            },
            Response {
                id: 2,
                outcome: Ok(Outcome::Optimal {
                    params: vec![0.622, 0.622],
                    value: 0.5,
                    evaluations: 1234,
                    cache: CacheStatus::Miss,
                }),
                metrics: frame(),
            },
            Response {
                id: 3,
                outcome: Ok(Outcome::Sweep {
                    points: vec![(0.0, 1.0 / 6.0), (0.5, 23.0 / 48.0)],
                    cache: CacheStatus::Miss,
                }),
                metrics: frame(),
            },
            Response {
                id: 4,
                outcome: Ok(Outcome::Simulate {
                    wins: 54_470,
                    trials: 100_000,
                }),
                metrics: frame(),
            },
            Response {
                id: 7,
                outcome: Ok(Outcome::Threshold {
                    beta_lo: 0.622_035_526_990_772_7,
                    beta_hi: 0.622_035_526_990_772_8,
                    p_lo: 0.544_631_139_559_79,
                    p_hi: 0.544_631_139_559_80,
                    method: "ball".to_owned(),
                    cache: CacheStatus::Hit,
                }),
                metrics: frame(),
            },
            Response {
                id: 8,
                outcome: Ok(Outcome::SweepMc {
                    trials: 2_000,
                    points: vec![(0.0, 333), (0.5, 958), (1.0, 289)],
                }),
                metrics: frame(),
            },
            Response {
                id: 9,
                outcome: Ok(Outcome::Shards {
                    issued: 6,
                    completed: 3,
                    reissued: 3,
                    killed: 1,
                    corrupt: 1,
                }),
                metrics: frame(),
            },
            Response {
                id: 5,
                outcome: Ok(Outcome::ShuttingDown),
                metrics: frame(),
            },
            Response {
                id: 6,
                outcome: Err("unsupported rule family \"dicey\"".to_owned()),
                metrics: frame(),
            },
        ];
        for response in cases {
            let line = response.to_json();
            assert!(!line.contains('\n'), "one line: {line}");
            let back = Response::parse(&line).unwrap();
            assert_eq!(back, response, "{line}");
        }
    }

    #[test]
    fn delta_and_params_travel_bit_exactly() {
        for delta in [0.1, 1.0 / 3.0, 2.5e-7, 4.0] {
            let envelope = Envelope {
                id: 9,
                request: Request::PWin {
                    delta,
                    rule: RuleSpec::threshold(vec![1.0 / 7.0, 0.3]),
                },
            };
            let Request::PWin { delta: back, rule } =
                Envelope::parse(&envelope.to_json()).unwrap().request
            else {
                panic!("kind preserved");
            };
            assert_eq!(back.to_bits(), delta.to_bits());
            assert_eq!(rule.params[0].to_bits(), (1.0f64 / 7.0).to_bits());
        }
    }

    #[test]
    fn unknown_family_and_kind_are_query_errors() {
        let line = r#"{"v": "nocomm-service/v1", "id": 1, "kind": "pwin", "delta": 1.0, "rule": {"family": "dicey-shared-randomness", "params": [0.5, 0.5]}}"#;
        let err = Envelope::parse(line).unwrap_err();
        assert!(err.contains("unsupported rule family"), "{err}");
        let line = r#"{"id": 1, "kind": "elect-leader"}"#;
        let err = Envelope::parse(line).unwrap_err();
        assert!(err.contains("unknown request kind"), "{err}");
    }

    #[test]
    fn bad_protocol_and_bad_delta_are_rejected() {
        let line = r#"{"v": "nocomm-service/v9", "id": 1, "kind": "shutdown"}"#;
        assert!(Envelope::parse(line).unwrap_err().contains("protocol"));
        let line = r#"{"id": 1, "kind": "sweep", "n": 3, "delta": -1.0, "grid": 8}"#;
        assert!(Envelope::parse(line).unwrap_err().contains("positive"));
        let line = r#"{"id": 1, "kind": "sweep", "n": 3, "delta": 1e999, "grid": 8}"#;
        assert!(Envelope::parse(line).unwrap_err().contains("finite"));
    }

    #[test]
    fn non_finite_numbers_anywhere_in_an_outcome_are_caught() {
        let cache = CacheStatus::Miss;
        assert!(Outcome::PWin { value: 0.5, cache }.is_finite());
        assert!(!Outcome::PWin {
            value: f64::NAN,
            cache
        }
        .is_finite());
        assert!(!Outcome::Sweep {
            points: vec![(0.0, 0.25), (1.0, f64::INFINITY)],
            cache
        }
        .is_finite());
        assert!(!Outcome::Optimal {
            params: vec![0.5, f64::NAN],
            value: 0.5,
            evaluations: 1,
            cache
        }
        .is_finite());
        assert!(Outcome::Simulate { wins: 1, trials: 2 }.is_finite());
    }

    #[test]
    fn simulate_report_rebuilds_from_counts() {
        let outcome = Outcome::Simulate { wins: 3, trials: 4 };
        let report = outcome.report().unwrap();
        assert_eq!(report, SimulationReport::from_counts(3, 4));
        assert!(Outcome::ShuttingDown.report().is_none());
    }
}
