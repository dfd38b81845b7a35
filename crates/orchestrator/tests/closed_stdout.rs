//! End of file on a worker's stdout is not an exit. A worker that
//! closes its stdout but keeps running must not hang the supervisor
//! in `wait`: its stall timer shoots it, the shard burns its respawn
//! budget, and no worker process is left behind.
//!
//! This file holds one test on purpose: it checks that the test
//! process has no child processes left, which other tests running in
//! the same process would disturb.

#![cfg(unix)]

use orchestrator::{run_sweep_with_metrics, OrchestratorConfig, OrchestratorError, WorkerSpec};
use simulator::{EngineMetrics, SweepCheckpoint};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pids of this process's children, zombies included, read from
/// `/proc`; `None` where there is no `/proc` to read.
fn children() -> Option<Vec<u32>> {
    let me = std::process::id();
    let entries = std::fs::read_dir("/proc").ok()?;
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        // `pid (comm) state ppid ...`; comm may hold spaces.
        let ppid = stat
            .rsplit_once(')')
            .and_then(|(_, rest)| rest.split_whitespace().nth(1))
            .and_then(|ppid| ppid.parse::<u32>().ok());
        if ppid == Some(me) {
            out.push(pid);
        }
    }
    Some(out)
}

#[test]
fn a_worker_that_closes_stdout_but_keeps_running_is_shot_not_awaited() {
    let dir: PathBuf = std::env::temp_dir()
        .join("nocomm-closed-stdout")
        .join(std::process::id().to_string());
    std::fs::remove_dir_all(&dir).ok();
    let worker = WorkerSpec {
        program: PathBuf::from("/bin/sh"),
        args: vec![
            "-c".to_owned(),
            "exec >&-; exec sleep 30".to_owned(),
            "sh".to_owned(),
        ],
    };
    let stall = Duration::from_millis(300);
    let mut cfg = OrchestratorConfig::new(2, &dir, worker);
    cfg.stall_timeout = stall;
    cfg.respawn_budget = 1;
    let metrics = Arc::new(EngineMetrics::new());
    let request = SweepCheckpoint::new(2, 1.0, 4, 100, 1);

    let start = Instant::now();
    let err = run_sweep_with_metrics(&request, &cfg, metrics.clone()).unwrap_err();
    let elapsed = start.elapsed();
    std::fs::remove_dir_all(&dir).ok();

    assert!(
        matches!(
            err,
            OrchestratorError::ShardExhausted {
                shard: 0,
                attempts: 2
            }
        ),
        "{err}"
    );
    // Each of shard 0's two attempts lived a full stall timeout; the
    // EOF that came at once neither ended an attempt nor hung one.
    assert!(elapsed >= stall * 2, "finished after {elapsed:?}");
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
    let snap = metrics.snapshot();
    assert_eq!(snap.shard_issued, 4, "two attempts per shard");
    assert_eq!(snap.shard_killed, 4, "every worker was shot");
    assert_eq!(snap.shard_reissued, 2);
    assert_eq!(snap.shard_completed, 0);
    if let Some(left) = children() {
        assert!(left.is_empty(), "worker processes left behind: {left:?}");
    }
}
