//! Process-level chaos: worker processes are SIGKILLed mid-shard,
//! stalled until the supervisor shoots them, and made to hand back
//! corrupt output — and the merged sweep must still be *byte*-identical
//! to what a single uninterrupted process produces.

use obs::NoopSink;
use orchestrator::{
    run_sweep_with_metrics, OrchestratorConfig, OrchestratorError, ProcChaosPlan, ProcFault,
    WorkerSpec,
};
use simulator::{sweep_threshold_checkpointed, EngineMetrics, SweepCheckpoint};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A scratch directory that cleans up after itself.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir()
            .join("nocomm-process-chaos")
            .join(format!("{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

const N: usize = 2;
const DELTA: f64 = 1.0;
const GRID: usize = 5;
const TRIALS: u64 = 1_000;
const SEED: u64 = 23;

fn request() -> SweepCheckpoint {
    SweepCheckpoint::new(N, DELTA, GRID, TRIALS, SEED)
}

/// The checkpoint document a single fault-free process writes.
fn single_process_document(scratch: &Scratch) -> String {
    let path = scratch.0.join("single.json");
    sweep_threshold_checkpointed(N, DELTA, GRID, TRIALS, SEED, &path).unwrap();
    std::fs::read_to_string(&path).unwrap()
}

fn config(scratch: &Scratch, shards: usize) -> OrchestratorConfig {
    let worker = WorkerSpec::new(env!("CARGO_BIN_EXE_nocomm-shard"));
    let mut cfg = OrchestratorConfig::new(shards, scratch.0.join("shards"), worker);
    // Workers finish these tiny shards in tens of milliseconds, so the
    // stall detector can be aggressive without false positives.
    cfg.stall_timeout = Duration::from_millis(800);
    cfg.shard_deadline = Duration::from_secs(20);
    cfg.backoff_base = Duration::from_millis(10);
    cfg
}

#[test]
fn fault_free_orchestration_is_bit_identical_to_one_process() {
    let scratch = Scratch::new("fault-free");
    let baseline = single_process_document(&scratch);
    for shards in [1, 2, 3, 6] {
        let merged =
            run_sweep_with_metrics(&request(), &config(&scratch, shards), Arc::new(NoopSink))
                .unwrap();
        assert_eq!(
            merged.to_json(),
            baseline,
            "{shards} shards diverged from the single-process sweep"
        );
        std::fs::remove_dir_all(scratch.0.join("shards")).ok();
    }
}

#[test]
fn killed_stalled_and_corrupt_workers_still_merge_bit_identically() {
    let scratch = Scratch::new("explicit-chaos");
    let baseline = single_process_document(&scratch);
    let mut cfg = config(&scratch, 3);
    cfg.chaos = Some(
        ProcChaosPlan::new()
            .inject(0, 0, ProcFault::Kill { after: 1 })
            .inject(1, 0, ProcFault::Stall { after: 1 })
            .inject(2, 0, ProcFault::Corrupt),
    );
    let metrics = Arc::new(EngineMetrics::new());
    let merged = run_sweep_with_metrics(&request(), &cfg, metrics.clone()).unwrap();
    assert_eq!(merged.to_json(), baseline);
    let snap = metrics.snapshot();
    assert_eq!(snap.shard_completed, 3);
    assert_eq!(
        snap.shard_reissued, 3,
        "each faulty first attempt re-issued once"
    );
    assert_eq!(snap.shard_issued, 6);
    assert!(snap.shard_killed >= 1, "the stalled worker must be shot");
    assert!(
        snap.shard_corrupt >= 1,
        "the corrupt hand-back must be flagged"
    );
}

#[test]
fn seeded_chaos_plans_replay_and_always_merge_bit_identically() {
    let scratch = Scratch::new("seeded-chaos");
    let baseline = single_process_document(&scratch);
    for chaos_seed in [1_u64, 2, 3] {
        let plan = ProcChaosPlan::seeded(chaos_seed, 3, 1);
        assert_eq!(plan, ProcChaosPlan::seeded(chaos_seed, 3, 1));
        let mut cfg = config(&scratch, 3);
        cfg.respawn_budget = 3;
        cfg.chaos = Some(plan);
        let merged = run_sweep_with_metrics(&request(), &cfg, Arc::new(NoopSink)).unwrap();
        assert_eq!(
            merged.to_json(),
            baseline,
            "chaos seed {chaos_seed} diverged"
        );
        std::fs::remove_dir_all(scratch.0.join("shards")).ok();
    }
}

#[test]
fn a_restarted_coordinator_adopts_surviving_shard_files() {
    let scratch = Scratch::new("restart");
    let baseline = single_process_document(&scratch);
    // First coordinator: all three shards crash *after* finishing one
    // point each, then their replacements finish the job...
    let mut cfg = config(&scratch, 3);
    cfg.chaos = Some(
        ProcChaosPlan::new()
            .inject(0, 0, ProcFault::Kill { after: 1 })
            .inject(1, 0, ProcFault::Kill { after: 1 })
            .inject(2, 0, ProcFault::Kill { after: 1 }),
    );
    let merged = run_sweep_with_metrics(&request(), &cfg, Arc::new(NoopSink)).unwrap();
    assert_eq!(merged.to_json(), baseline);
    // ...and a second coordinator over the same directory finds the
    // complete shard files and merges without spawning anything: a
    // worker path that cannot execute proves no process was needed.
    let mut second = config(&scratch, 3);
    second.worker = WorkerSpec::new("/nonexistent/worker");
    let merged = run_sweep_with_metrics(&request(), &second, Arc::new(NoopSink)).unwrap();
    assert_eq!(merged.to_json(), baseline);
}

#[test]
fn a_shard_that_always_crashes_exhausts_its_budget() {
    let scratch = Scratch::new("exhausted");
    let mut cfg = config(&scratch, 2);
    cfg.respawn_budget = 1;
    // Shard 1 dies instantly on both attempts it is allowed.
    cfg.chaos = Some(
        ProcChaosPlan::new()
            .inject(1, 0, ProcFault::Kill { after: 0 })
            .inject(1, 1, ProcFault::Kill { after: 0 }),
    );
    let err = run_sweep_with_metrics(&request(), &cfg, Arc::new(NoopSink)).unwrap_err();
    let OrchestratorError::ShardExhausted { shard, attempts } = err else {
        panic!("expected ShardExhausted, got {err}");
    };
    assert_eq!(shard, 1);
    assert_eq!(attempts, 2);
}

#[test]
fn the_supervision_ledger_balances_for_clean_runs() {
    let scratch = Scratch::new("ledger");
    let metrics = Arc::new(EngineMetrics::new());
    run_sweep_with_metrics(&request(), &config(&scratch, 3), metrics.clone()).unwrap();
    let snap = metrics.snapshot();
    assert_eq!(snap.shard_issued, 3);
    assert_eq!(snap.shard_completed, 3);
    assert_eq!(snap.shard_reissued, 0);
    assert_eq!(snap.shard_killed, 0);
    assert_eq!(snap.shard_corrupt, 0);
}

#[cfg(unix)]
#[test]
fn progress_lines_keep_a_slow_worker_alive_past_the_stall_timeout() {
    let scratch = Scratch::new("slow-progress");
    let baseline = single_process_document(&scratch);
    // Each worker prints a line every 100 ms for 0.8 s before running
    // the real shard: twice the stall timeout, but never silent for it.
    let mut cfg = config(&scratch, 2);
    cfg.worker = WorkerSpec {
        program: PathBuf::from("/bin/sh"),
        args: vec![
            "-c".to_owned(),
            "for i in 1 2 3 4 5 6 7 8; do echo .; sleep 0.1; done; exec \"$0\" \"$@\"".to_owned(),
            env!("CARGO_BIN_EXE_nocomm-shard").to_owned(),
        ],
    };
    cfg.stall_timeout = Duration::from_millis(400);
    cfg.respawn_budget = 0;
    let metrics = Arc::new(EngineMetrics::new());
    let merged = run_sweep_with_metrics(&request(), &cfg, metrics.clone()).unwrap();
    assert_eq!(merged.to_json(), baseline);
    let snap = metrics.snapshot();
    assert_eq!(snap.shard_killed, 0);
    assert_eq!(snap.shard_reissued, 0);
}

#[test]
fn worker_exits_wake_the_supervisor_before_any_timer() {
    let scratch = Scratch::new("exit-wakes");
    let baseline = single_process_document(&scratch);
    // With every timer a minute away, only the workers' exits can end
    // this sweep in time.
    let mut cfg = config(&scratch, 3);
    cfg.stall_timeout = Duration::from_mins(1);
    cfg.shard_deadline = Duration::from_mins(2);
    let start = std::time::Instant::now();
    let merged = run_sweep_with_metrics(&request(), &cfg, Arc::new(NoopSink)).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(merged.to_json(), baseline);
    assert!(elapsed < Duration::from_secs(20), "took {elapsed:?}");
}
