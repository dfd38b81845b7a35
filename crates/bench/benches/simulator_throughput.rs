//! Dispatch-layer payoff of the Monte-Carlo engine: the same
//! estimation workload through the v1 engine loop (a private
//! [`run_dyn`] baseline below: one virtual call per decision, one
//! scalar RNG call per uniform, a sequential generator per batch),
//! through the opaque per-decision fallback on the lane kernel
//! (virtual decisions, counter-addressed draws), and through the
//! monomorphized lane kernel ([`Simulation::run`] on a hinted rule:
//! branch-free `[f64; LANES]` trial groups on the counter-addressed
//! Threefry stream).
//!
//! The opaque and hinted lane paths are bit-identical by construction
//! — asserted here before any timing — so their ratio is pure
//! dispatch overhead. The baseline draws from a different generator
//! with the same estimator: its stream is pinned to a golden win
//! count, and the lane estimate is asserted statistically consistent
//! with it.
//!
//! Every row is measured **paired**: baseline and optimized run
//! back-to-back with alternating order inside each sample, and the
//! recorded `cold_ns`/`memoized_ns` are the per-side minima, so
//! `speedup` is the paired min-time ratio (the least-noise estimate
//! for CPU-bound work; medians drift too much on shared hardware).
//!
//! Modes: `--smoke` (single short iteration, scratch output path;
//! CI's bench-smoke step), `--quick` (short paired measurement to a
//! scratch path for `cargo xtask bench-check`; CI's bench-check
//! step). The full run rewrites
//! `results/BENCH_simulator_throughput.json` and asserts the floors
//! it records: lane ≥ 4x the baseline at n = 8, and metrics within
//! 2% of the uninstrumented lane path.
//!
//! Every mode also prints each `lane` row's ungated **Threefry
//! share**: the time of the row's Threefry work alone over the time of
//! the row. The Threefry side (the *ceiling*) makes as many
//! `threefry4x64_lanes::<16>` calls as the row's run does, with all 64
//! output words of each call folded into the result (so no unused lane
//! can be optimized away), and is timed paired with the row, in
//! alternating order within each sample like every other pair: a
//! ceiling measured once per run drifts with the machine's load and
//! can read more than 100% of a row measured at another moment. It
//! adds no JSON row, so `bench-check` is unaffected.

use bench::{write_bench_json, PairedTiming};
use criterion::black_box;
use decision::{Bin, LocalRule, ObliviousAlgorithm, SingleThresholdAlgorithm};
use rand::counter::{threefry4x64_lanes, CounterKey};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rational::Rational;
use simulator::{EngineMetrics, Simulation, SimulationReport};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const DELTA: f64 = 1.0;
const SIZES: [usize; 3] = [3, 5, 8];

/// Trials per batch of the baseline, equal to the engine's default.
const BATCH_SIZE: u64 = 16_384;

/// Trials the engine's lane kernel advances per Threefry call.
const LANES: usize = 16;

/// Hides a rule's kernel hint, forcing the engine onto the generic
/// per-decision path.
struct Opaque<'a>(&'a dyn LocalRule);

impl LocalRule for Opaque<'_> {
    fn n(&self) -> usize {
        self.0.n()
    }
    fn decide(&self, player: usize, input: f64, coin: f64) -> Bin {
        self.0.decide(player, input, coin)
    }
}

/// SplitMix64 finalizer, decorrelating the baseline's per-batch seeds.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The v1 engine loop, the denominator of every speedup below: batch
/// `i` draws from a `StdRng` seeded from `(seed, i)`, one
/// `gen_range` call per uniform (input, then coin, then the fault
/// draw when crashes are possible, per player), and every decision
/// is a virtual [`LocalRule::decide`] call. Single-threaded and
/// crash-free.
///
/// The loop keeps the engine's shape as it stood before stream v5 —
/// a per-batch function over run-time parameters that counts its
/// draws — and hides the rule behind [`black_box`], so the compiler
/// can neither devirtualize `decide` nor fold the fault switch. A
/// private copy without those would time a different loop and move
/// every speedup's denominator.
fn run_dyn(rule: &dyn LocalRule, trials: u64, seed: u64) -> SimulationReport {
    let rule: &dyn LocalRule = black_box(rule);
    let p_crash: f64 = black_box(0.0);
    let params = BaselineParams {
        seed,
        trials,
        p_crash,
        draw_fault: p_crash > 0.0,
    };
    let (mut wins, mut draws) = (0u64, 0u64);
    for batch in 0..trials.div_ceil(BATCH_SIZE) {
        let (batch_wins, batch_draws) = run_dyn_batch(rule, params, batch);
        wins += batch_wins;
        draws += batch_draws;
    }
    let per_player = if params.draw_fault { 3 } else { 2 };
    assert_eq!(draws, trials * rule.n() as u64 * per_player);
    SimulationReport::from_counts(wins, trials)
}

/// The baseline's per-run constants.
#[derive(Clone, Copy)]
struct BaselineParams {
    seed: u64,
    trials: u64,
    p_crash: f64,
    draw_fault: bool,
}

/// One batch of [`run_dyn`]: returns its wins and uniforms drawn.
fn run_dyn_batch(rule: &dyn LocalRule, params: BaselineParams, batch: u64) -> (u64, u64) {
    let count = BATCH_SIZE.min(params.trials - batch * BATCH_SIZE);
    let mut rng = StdRng::seed_from_u64(splitmix(
        params.seed ^ batch.wrapping_mul(0x9e37_79b9_7f4a_7c15),
    ));
    let mut draws = 0u64;
    let mut next_unit = || {
        draws += 1;
        rng.gen_range(0.0..1.0)
    };
    let n = rule.n();
    let mut wins = 0u64;
    for _ in 0..count {
        let mut sums = [0.0f64; 2];
        for player in 0..n {
            let input: f64 = next_unit();
            let coin: f64 = next_unit();
            if params.draw_fault && next_unit() < params.p_crash {
                continue; // crashed: the input reaches neither bin
            }
            match rule.decide(player, input, coin) {
                Bin::Zero => sums[0] += input,
                Bin::One => sums[1] += input,
            }
        }
        if sums[0] <= DELTA && sums[1] <= DELTA {
            wins += 1;
        }
    }
    (wins, draws)
}

/// One timed invocation.
fn time_once<T>(routine: &mut impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    black_box(routine());
    start.elapsed().as_nanos() as f64
}

/// Paired measurement: times `base` and `opt` back-to-back within
/// each sample (order alternating), so slow clock drift and frequency
/// scaling hit both sides equally instead of masquerading as speedup.
/// Returns the per-side **minimum** times; their ratio is the paired
/// min-time speedup, the least-noise estimate for CPU-bound work
/// since each side's fastest sample is the one least disturbed by
/// scheduling and cache interference.
fn paired_min_ns<A, B>(
    samples: usize,
    mut base: impl FnMut() -> A,
    mut opt: impl FnMut() -> B,
) -> (f64, f64) {
    let mut base_min = f64::INFINITY;
    let mut opt_min = f64::INFINITY;
    for i in 0..samples {
        let (tb, to) = if i % 2 == 0 {
            let tb = time_once(&mut base);
            let to = time_once(&mut opt);
            (tb, to)
        } else {
            let to = time_once(&mut opt);
            let tb = time_once(&mut base);
            (tb, to)
        };
        base_min = base_min.min(tb);
        opt_min = opt_min.min(to);
    }
    (base_min, opt_min)
}

/// The Threefry-only ceiling: `calls` `threefry4x64_lanes::<16>`
/// calls on advancing counters, every output word folded into the
/// returned lanes.
fn threefry_ceiling(key: &CounterKey, calls: u64) -> [u64; LANES] {
    // Lanewise folds, as the kernel consumes words: a single serial
    // xor chain would add 64 dependent steps per call.
    let mut fold = [0u64; LANES];
    let mut ctr = [[0u64; LANES]; 4];
    for call in 0..calls {
        for (j, trial) in ctr[1].iter_mut().enumerate() {
            *trial = call * LANES as u64 + j as u64;
        }
        let out = threefry4x64_lanes::<LANES>(key, black_box(&ctr));
        for words in &out {
            for (acc, word) in fold.iter_mut().zip(words) {
                *acc ^= word;
            }
        }
    }
    fold
}

/// A lane row's Threefry share: the ceiling over the row's own number
/// of Threefry calls (`calls_per_trial` × `trials`), timed paired with
/// the row's run. Returns `(ceiling ns, lane ns)`, each the minimum
/// over `samples`.
fn threefry_share(
    samples: usize,
    trials: u64,
    calls_per_trial: f64,
    lane: impl FnMut() -> SimulationReport,
) -> (f64, f64) {
    let key = CounterKey::from_seed(42);
    let calls = (calls_per_trial * trials as f64).round() as u64;
    paired_min_ns(samples, || threefry_ceiling(&key, calls), lane)
}

fn trials_per_sec(trials: u64, ns: f64) -> f64 {
    trials as f64 / ns * 1e9
}

/// The committed measurement lives next to the workspace results; the
/// smoke/quick modes write to scratch paths so they never clobber it.
fn output_path(smoke: bool, quick: bool) -> PathBuf {
    if smoke {
        std::env::temp_dir().join("BENCH_simulator_throughput.smoke.json")
    } else if quick {
        std::env::temp_dir().join("BENCH_simulator_throughput.quick.json")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_simulator_throughput.json")
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let quick = !smoke && std::env::args().any(|a| a == "--quick");
    let (trials, samples) = if smoke {
        (20_000, 1)
    } else if quick {
        (60_000, 7)
    } else {
        (400_000, 15)
    };
    // Single-threaded engine: the comparison isolates dispatch and
    // sampling cost per core, independent of pool scheduling.
    let seed = 42;
    let sim = Simulation::new(trials, seed).with_threads(1);

    // The baseline is the v1/v2 sequential stream: fair coins, n = 3,
    // 4,096 trials, seed 7 win exactly 1,759 times on it.
    assert_eq!(run_dyn(&ObliviousAlgorithm::fair(3), 4_096, 7).wins, 1_759);

    println!(
        "simulator_throughput: {trials} trials/run, δ = {DELTA}, single-threaded{}",
        if smoke {
            " (smoke)"
        } else if quick {
            " (quick)"
        } else {
            ""
        }
    );

    let mut timings = Vec::new();
    let mut metrics_ratios: Vec<(usize, f64)> = Vec::new();
    // `(label, Threefry calls per trial, ceiling ns, lane ns)` per
    // lane row: one call per eight players (two draws per word) per
    // plane per 16 trials; thresholds read the input plane only,
    // oblivious rules the coin plane as well.
    let mut lane_rows: Vec<(String, f64, f64, f64)> = Vec::new();
    for n in SIZES {
        let threshold = SingleThresholdAlgorithm::symmetric(n, Rational::ratio(622, 1000))
            .expect("valid symmetric thresholds");
        let oblivious = ObliviousAlgorithm::fair(n);

        // Transparency first. Hiding a rule's hint changes the
        // dispatch, not the report...
        let lane_ref = sim.run(&threshold, DELTA);
        assert_eq!(sim.run(&Opaque(&threshold), DELTA), lane_ref);
        assert_eq!(
            sim.run(&Opaque(&oblivious), DELTA),
            sim.run(&oblivious, DELTA)
        );
        // ...and the lane estimate is statistically consistent with
        // the baseline's, drawn from an independent generator.
        let baseline = run_dyn(&threshold, trials, seed);
        assert!(
            lane_ref.agrees_with(baseline.estimate, 5.0),
            "lane vs baseline estimate at n = {n}: {lane_ref} vs {baseline}"
        );

        let (dyn_ns, opaque_ns) = paired_min_ns(
            samples,
            || run_dyn(&threshold, trials, seed),
            || sim.run(&Opaque(&threshold), DELTA),
        );
        timings.push(PairedTiming {
            label: format!("threshold n = {n} · opaque"),
            cold_ns: dyn_ns,
            memoized_ns: opaque_ns,
        });
        let (dyn_ns, lane_ns) = paired_min_ns(
            samples,
            || run_dyn(&threshold, trials, seed),
            || sim.run(&threshold, DELTA),
        );
        timings.push(PairedTiming {
            label: format!("threshold n = {n} · lane"),
            cold_ns: dyn_ns,
            memoized_ns: lane_ns,
        });
        let calls_per_trial = n.div_ceil(8) as f64 / LANES as f64;
        let (ceiling_ns, share_lane_ns) = threefry_share(samples, trials, calls_per_trial, || {
            sim.run(&threshold, DELTA)
        });
        lane_rows.push((
            format!("threshold n = {n} · lane"),
            calls_per_trial,
            ceiling_ns,
            share_lane_ns,
        ));
        // The instrumented lane path: same engine, a live
        // EngineMetrics sink attached. Flushes are per batch, so this
        // must stay within noise of the uninstrumented path.
        let metered_sim = sim.clone().with_metrics(Arc::new(EngineMetrics::new()));
        assert_eq!(metered_sim.run(&threshold, DELTA), lane_ref);
        let (plain_ns, metered_ns) = paired_min_ns(
            samples,
            || sim.run(&threshold, DELTA),
            || metered_sim.run(&threshold, DELTA),
        );
        metrics_ratios.push((n, metered_ns / plain_ns));
        timings.push(PairedTiming {
            label: format!("threshold n = {n} · kernel+metrics"),
            cold_ns: plain_ns,
            memoized_ns: metered_ns,
        });
        println!(
            "threshold n = {n}: dyn {:>12.0}/s   opaque {:>12.0}/s ({:.2}x)   lane {:>12.0}/s ({:.2}x)   metered ({:.3}x of lane)",
            trials_per_sec(trials, dyn_ns),
            trials_per_sec(trials, opaque_ns),
            dyn_ns / opaque_ns,
            trials_per_sec(trials, lane_ns),
            dyn_ns / lane_ns,
            metered_ns / plain_ns,
        );

        let (dyn_ns, lane_ns) = paired_min_ns(
            samples,
            || run_dyn(&oblivious, trials, seed),
            || sim.run(&oblivious, DELTA),
        );
        timings.push(PairedTiming {
            label: format!("oblivious n = {n} · lane"),
            cold_ns: dyn_ns,
            memoized_ns: lane_ns,
        });
        let calls_per_trial = 2.0 * n.div_ceil(8) as f64 / LANES as f64;
        let (ceiling_ns, share_lane_ns) = threefry_share(samples, trials, calls_per_trial, || {
            sim.run(&oblivious, DELTA)
        });
        lane_rows.push((
            format!("oblivious n = {n} · lane"),
            calls_per_trial,
            ceiling_ns,
            share_lane_ns,
        ));
        println!(
            "oblivious n = {n}: dyn {:>12.0}/s   lane {:>12.0}/s ({:.2}x)",
            trials_per_sec(trials, dyn_ns),
            trials_per_sec(trials, lane_ns),
            dyn_ns / lane_ns,
        );
    }

    // Each row's ceiling is timed with that row; the headline is the
    // fastest per-call figure among them.
    let per_call =
        |calls_per_trial: f64, ceiling_ns: f64| ceiling_ns / (calls_per_trial * trials as f64);
    let ceiling = lane_rows
        .iter()
        .map(|(_, calls_per_trial, ceiling_ns, _)| per_call(*calls_per_trial, *ceiling_ns))
        .fold(f64::INFINITY, f64::min);
    println!(
        "threefry ceiling: {ceiling:.1} ns per {LANES}-lane call, all 64 words folded, timed paired with each lane row"
    );
    for (label, calls_per_trial, ceiling_ns, lane_ns) in &lane_rows {
        let per_trial = lane_ns / trials as f64;
        let threefry = ceiling_ns / trials as f64;
        println!(
            "  {label}: threefry {threefry:.2} of {per_trial:.2} ns/trial ({:.0}%), ceiling {:.1} ns per call",
            100.0 * threefry / per_trial,
            per_call(*calls_per_trial, *ceiling_ns),
        );
    }

    let path = output_path(smoke, quick);
    write_bench_json(&path, "simulator_throughput", &timings).expect("write bench JSON");
    println!("written: {}", path.display());

    if !smoke && !quick {
        let speedup_of = |label: &str| {
            timings
                .iter()
                .find(|t| t.label == label)
                .unwrap_or_else(|| panic!("row {label} measured"))
                .speedup()
        };
        let lane_n8 = speedup_of("threshold n = 8 · lane");
        assert!(
            lane_n8 >= 4.0,
            "lane kernel must be at least 4x over the v1 dyn baseline at n = 8, got {lane_n8:.2}x"
        );
        // Observability must be free: the metrics-enabled lane path
        // stays within 2% of the uninstrumented one at every size,
        // judged on the drift-free paired min-time ratio.
        for (n, ratio) in &metrics_ratios {
            assert!(
                *ratio <= 1.02,
                "threshold n = {n}: metrics overhead {:.1}% exceeds the 2% budget",
                (ratio - 1.0) * 100.0
            );
        }
    }
}
