//! The four workloads and their seeded request streams.
//!
//! Every stream is a pure function of `(seed, workload, client)`: the
//! timed loop consumes a stream as fast as the daemon answers, and the
//! correctness pass afterwards regenerates the identical requests from
//! the seed instead of keeping them in memory during the run.

use service::{Request, RuleFamily, RuleSpec};

/// Client connections (and threads) one benchmark process drives.
pub const CLIENTS: usize = 2;
/// Worker threads of the daemon's shared Monte-Carlo pool.
pub const ENGINE_THREADS: usize = 2;
/// Worker processes per orchestrated sweep.
pub const SHARDS: usize = 2;
/// Trials per engine batch, the daemon's default granularity.
pub const BATCH_SIZE: u64 = 16_384;
/// Trials per served `simulate` request: four full engine batches.
pub const SIM_TRIALS: u64 = 4 * BATCH_SIZE;
/// Players in the orchestrated sweep.
pub const SWEEP_N: usize = 5;
/// Bin capacity of the orchestrated sweep (the paper's `δ = n/3`).
pub const SWEEP_DELTA: f64 = 5.0 / 3.0;
/// Grid divisions of the orchestrated sweep (`grid + 1` points). The
/// coordinator polls every 20 ms (its default) and returns on the poll
/// after the one that sees its workers exit: a sweep whose workers
/// finish inside one poll interval takes ~40 ms, one whose workers need
/// longer jumps to ~60 ms. The sweep is sized so a worker (about 3 ms:
/// spawn, nine points, nine checkpoint writes) stays inside the first
/// interval even when the machine runs several times slower.
///
/// So the gated sweep figures measure the supervisor's poll quantum:
/// spawn, checkpoint writes and merge move them only by pushing a
/// worker past one interval, and show in the traced run's per-layer
/// figures instead. With a 1 ms poll the wall is that work, but its
/// per-point checkpoint writes reach the disk, and on a shared two-core
/// VM the wall moved 14-20% between runs at this size (and 36-75% at
/// grid 64), more than the benchmark's bounds allow.
pub const SWEEP_GRID: usize = 16;
/// Monte-Carlo trials per sweep grid point.
pub const SWEEP_TRIALS: u64 = 2_048;
/// Grid divisions of the served analytic `sweep` queries.
pub const ANALYTIC_GRID: usize = 64;
/// Capacities the `serve_cold` analytic traffic draws from, so the
/// `(n, δ)` evaluation contexts are shared while results miss.
pub const COLD_DELTAS: [f64; 3] = [1.0, 1.5, 2.0];
/// One `serve_cold` request in this many is an `optimal` query.
pub const COLD_OPTIMAL_EVERY: u64 = 256;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cache hits only: protocol, transport and the cache read path.
    ServeHot,
    /// Fresh analytic queries: the closed-form core and cache writes.
    /// Runnable by hand but not in `BENCHMARK.json`: every answer
    /// grows the unbounded cache, and on a shared two-core VM its
    /// throughput and memory moved by 26-28% (quartile spread over
    /// five to ten seeds) between runs, more than any allowed bound.
    ServeCold,
    /// Served Monte-Carlo runs: engine, worker pool and lane kernel.
    Simulate,
    /// Orchestrated sweeps over worker processes.
    SweepSharded,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeHot,
        Workload::ServeCold,
        Workload::Simulate,
        Workload::SweepSharded,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::ServeCold => "serve_cold",
            Workload::Simulate => "simulate",
            Workload::SweepSharded => "sweep_sharded",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinguishes the streams of different workloads under one seed.
    fn tag(self) -> u64 {
        match self {
            Workload::ServeHot => 1,
            Workload::ServeCold => 2,
            Workload::Simulate => 3,
            Workload::SweepSharded => 4,
        }
    }
}

/// SplitMix64: a tiny, seedable, well-mixed generator for inputs.
#[derive(Clone, Debug)]
pub struct Gen(u64);

impl Gen {
    /// A generator for `(seed, workload, stream)`.
    pub fn new(seed: u64, workload: Workload, stream: u64) -> Gen {
        let mut g = Gen(seed ^ workload.tag().wrapping_mul(0xa076_1d64_78bd_642f));
        let salt = g.next_u64() ^ stream.wrapping_mul(0xe703_7ed1_a0b4_28db);
        Gen(salt)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform float in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// A uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn family(&mut self) -> RuleFamily {
        if self.next_u64() & 1 == 0 {
            RuleFamily::Threshold
        } else {
            RuleFamily::Oblivious
        }
    }
}

fn rule(family: RuleFamily, params: Vec<f64>) -> RuleSpec {
    RuleSpec { family, params }
}

/// The fixed query shapes of `serve_hot`, grouped by kind.
#[derive(Clone, Debug)]
pub struct HotShapes {
    /// 96 `pwin` shapes: both families, n = 3..=8, eight each.
    pub pwin: Vec<Request>,
    /// `threshold` for every row of the certified table, n = 2..=128.
    pub threshold: Vec<Request>,
    /// Analytic `sweep` curves at grid 64 (large responses).
    pub sweep: Vec<Request>,
}

impl HotShapes {
    /// The shapes for `seed`.
    pub fn new(seed: u64) -> HotShapes {
        let mut g = Gen::new(seed, Workload::ServeHot, u64::MAX);
        let mut pwin = Vec::new();
        for n in 3..=8usize {
            for family in [RuleFamily::Threshold, RuleFamily::Oblivious] {
                for shape in 0..8 {
                    let params = if shape % 2 == 0 {
                        vec![g.range(0.3, 0.8); n]
                    } else {
                        (0..n).map(|_| g.range(0.2, 0.9)).collect()
                    };
                    let delta = if shape < 4 { 1.0 } else { n as f64 / 3.0 };
                    pwin.push(Request::PWin {
                        delta,
                        rule: rule(family, params),
                    });
                }
            }
        }
        let threshold = (2..=128).map(|n| Request::Threshold { n }).collect();
        let sweep = [3usize, 5, 8]
            .into_iter()
            .map(|n| Request::Sweep {
                n,
                delta: n as f64 / 3.0,
                grid: ANALYTIC_GRID,
            })
            .collect();
        HotShapes {
            pwin,
            threshold,
            sweep,
        }
    }

    /// Every shape once: the warm-up pass.
    pub fn all(&self) -> Vec<Request> {
        self.pwin
            .iter()
            .chain(&self.threshold)
            .chain(&self.sweep)
            .cloned()
            .collect()
    }

    /// 60% `pwin`, 20% `threshold`, 20% `sweep`. The large `sweep`
    /// answers are a fifth of the traffic so that p90 falls inside
    /// their latency band rather than on its edge, where it would jump.
    fn pick(&self, g: &mut Gen) -> Request {
        let roll = g.below(10);
        let group = match roll {
            0..=5 => &self.pwin,
            6 | 7 => &self.threshold,
            _ => &self.sweep,
        };
        group[g.below(group.len())].clone()
    }
}

/// The pool `simulate` traffic draws from: both families at
/// n ∈ {3, 5, 8}, eight rule/seed variants each, four batches per
/// request. Requests repeat (the daemon does not cache Monte-Carlo
/// answers, so every request runs the engine).
pub fn simulate_pool(seed: u64) -> Vec<Request> {
    let mut g = Gen::new(seed, Workload::Simulate, u64::MAX);
    let mut pool = Vec::new();
    for n in [3usize, 5, 8] {
        for family in [RuleFamily::Threshold, RuleFamily::Oblivious] {
            for variant in 0..8 {
                let params = if variant % 2 == 0 {
                    vec![g.range(0.4, 0.8); n]
                } else {
                    (0..n).map(|_| g.range(0.3, 0.9)).collect()
                };
                pool.push(Request::Simulate {
                    delta: n as f64 / 3.0,
                    trials: SIM_TRIALS,
                    seed: g.next_u64(),
                    rule: rule(family, params),
                });
            }
        }
    }
    pool
}

/// A fresh asymmetric `pwin` (n = 4..=8, δ from [`COLD_DELTAS`]).
fn cold_pwin(g: &mut Gen) -> Request {
    let n = 4 + g.below(5);
    let family = g.family();
    let params = (0..n).map(|_| g.range(0.05, 0.95)).collect();
    Request::PWin {
        delta: COLD_DELTAS[g.below(COLD_DELTAS.len())],
        rule: rule(family, params),
    }
}

/// One client's request stream.
#[derive(Clone, Debug)]
pub struct Stream {
    kind: StreamKind,
    gen: Gen,
    issued: u64,
}

#[derive(Clone, Debug)]
enum StreamKind {
    Hot(HotShapes),
    Cold,
    Simulate(Vec<Request>),
}

impl Stream {
    /// Client `client`'s stream of a served workload; `None` for the
    /// sweep workload, which sends no queries.
    pub fn new(workload: Workload, seed: u64, client: usize) -> Option<Stream> {
        let kind = match workload {
            Workload::ServeHot => StreamKind::Hot(HotShapes::new(seed)),
            Workload::ServeCold => StreamKind::Cold,
            Workload::Simulate => StreamKind::Simulate(simulate_pool(seed)),
            Workload::SweepSharded => return None,
        };
        Some(Stream {
            kind,
            gen: Gen::new(seed, workload, client as u64),
            issued: 0,
        })
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        self.issued += 1;
        match &self.kind {
            StreamKind::Hot(shapes) => shapes.pick(&mut self.gen),
            StreamKind::Cold => {
                if self.issued.is_multiple_of(COLD_OPTIMAL_EVERY) {
                    Request::Optimal {
                        family: self.gen.family(),
                        n: 3,
                        delta: self.gen.range(0.5, 2.0),
                    }
                } else {
                    cold_pwin(&mut self.gen)
                }
            }
            StreamKind::Simulate(pool) => pool[self.gen.below(pool.len())].clone(),
        }
    }
}

/// The warm-up requests a served workload's set-up sends: every hot
/// shape once; one query per cold `(n, δ)` context; one run per
/// simulated rule family and size (which also spawns the pool).
pub fn warmup(workload: Workload, seed: u64) -> Vec<Request> {
    match workload {
        Workload::ServeHot => HotShapes::new(seed).all(),
        Workload::ServeCold => {
            let mut g = Gen::new(seed, workload, u64::MAX - 1);
            let mut out = Vec::new();
            for n in 4..=8usize {
                for delta in COLD_DELTAS {
                    out.push(Request::PWin {
                        delta,
                        rule: RuleSpec::threshold((0..n).map(|_| g.range(0.05, 0.95)).collect()),
                    });
                }
            }
            out
        }
        Workload::Simulate => simulate_pool(seed)
            .into_iter()
            .step_by(8)
            .map(|request| match request {
                Request::Simulate {
                    delta, seed, rule, ..
                } => Request::Simulate {
                    delta,
                    trials: BATCH_SIZE,
                    seed,
                    rule,
                },
                other => other,
            })
            .collect(),
        Workload::SweepSharded => Vec::new(),
    }
}

/// Seed of the `i`-th orchestrated sweep.
pub fn sweep_seed(seed: u64, i: u64) -> u64 {
    Gen::new(seed, Workload::SweepSharded, i).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(workload: Workload, seed: u64, client: usize, n: usize) -> Vec<Request> {
        let mut s = Stream::new(workload, seed, client).unwrap();
        (0..n).map(|_| s.next_request()).collect()
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for w in [Workload::ServeHot, Workload::ServeCold, Workload::Simulate] {
            assert_eq!(take(w, 7, 0, 600), take(w, 7, 0, 600), "{}", w.name());
            assert_ne!(take(w, 7, 0, 600), take(w, 8, 0, 600), "{}", w.name());
            assert_ne!(take(w, 7, 0, 600), take(w, 7, 1, 600), "{}", w.name());
            assert_eq!(warmup(w, 7), warmup(w, 7));
        }
        assert_ne!(
            warmup(Workload::ServeCold, 7),
            warmup(Workload::ServeCold, 8)
        );
        assert_eq!(sweep_seed(7, 3), sweep_seed(7, 3));
        assert_ne!(sweep_seed(7, 3), sweep_seed(8, 3));
        assert_ne!(sweep_seed(7, 3), sweep_seed(7, 4));
    }

    #[test]
    fn stream_shapes_match_the_workload_definitions() {
        let shapes = HotShapes::new(1);
        assert_eq!(shapes.pwin.len(), 96);
        assert_eq!(shapes.threshold.len(), 127);
        let hot = take(Workload::ServeHot, 1, 0, 2000);
        let all = shapes.all();
        assert!(
            hot.iter().all(|r| all.contains(r)),
            "hot traffic stays on its shapes"
        );
        for kind in ["pwin", "threshold", "sweep"] {
            assert!(hot.iter().any(|r| r.kind() == kind), "{kind} missing");
        }

        let cold = take(Workload::ServeCold, 1, 0, 2 * COLD_OPTIMAL_EVERY as usize);
        let optimal = cold.iter().filter(|r| r.kind() == "optimal").count();
        assert_eq!(optimal, 2);
        for (i, a) in cold.iter().enumerate() {
            assert!(!cold[..i].contains(a), "cold request {i} repeats");
            if let Request::PWin { delta, rule } = a {
                assert!((4..=8).contains(&rule.n()));
                assert!(COLD_DELTAS.contains(delta));
            }
        }

        let sim = take(Workload::Simulate, 1, 0, 100);
        let pool = simulate_pool(1);
        assert_eq!(pool.len(), 48);
        assert!(sim.iter().all(|r| pool.contains(r)));
        assert!(Stream::new(Workload::SweepSharded, 1, 0).is_none());
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
