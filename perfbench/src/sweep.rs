//! The `sweep_sharded` workload: back-to-back orchestrated sweeps over
//! `nocomm-shard` worker processes, each checked afterwards against a
//! single-process checkpointed sweep, byte for byte.

use crate::serve::SETUP_REPS;
use crate::stats::{median, peak_rss_mb};
use crate::workload::{sweep_seed, SHARDS, SWEEP_DELTA, SWEEP_GRID, SWEEP_N, SWEEP_TRIALS};
use orchestrator::{run_sweep_with_metrics, OrchestratorConfig, WorkerSpec};
use simulator::{sweep_threshold_checkpointed, EngineMetrics, SweepCheckpoint};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The worker binary's file name; it is built next to the benchmark.
pub const WORKER_NAME: &str = "nocomm-shard";

/// Locates the worker binary beside the running benchmark executable.
///
/// # Errors
///
/// Returns a message when it is missing or does not run.
pub fn worker_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let worker = exe.with_file_name(WORKER_NAME);
    let status = Command::new(&worker)
        .arg("--help")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("worker binary {} does not run: {e}", worker.display()))?;
    if !status.success() {
        return Err(format!(
            "worker binary {} failed: {status}",
            worker.display()
        ));
    }
    Ok(worker)
}

/// The whole-grid request of sweep `seed`.
pub fn request(seed: u64) -> SweepCheckpoint {
    SweepCheckpoint::new(SWEEP_N, SWEEP_DELTA, SWEEP_GRID, SWEEP_TRIALS, seed)
}

/// Runs one orchestrated sweep in `dir` (removed afterwards).
///
/// # Errors
///
/// Returns the orchestrator's message.
pub fn orchestrate(
    req: &SweepCheckpoint,
    dir: &Path,
    worker: &Path,
    sink: Arc<EngineMetrics>,
) -> Result<SweepCheckpoint, String> {
    let config = OrchestratorConfig::new(SHARDS, dir, WorkerSpec::new(worker));
    let merged = run_sweep_with_metrics(req, &config, sink).map_err(|e| e.to_string());
    let _cleanup = std::fs::remove_dir_all(dir);
    merged
}

/// The coordinator after set-up.
pub struct Ready {
    /// The worker binary.
    pub worker: PathBuf,
    /// Median set-up time over [`SETUP_REPS`] repetitions, seconds.
    pub setup_s: f64,
}

/// Set-up, timed: locate and start-check the worker, then one warm-up
/// orchestrated sweep. Repeated [`SETUP_REPS`] times.
///
/// # Errors
///
/// Returns a message when the worker is missing or the warm-up fails.
pub fn setup(seed: u64, scratch: &Path) -> Result<Ready, String> {
    let mut times = Vec::new();
    let mut worker = PathBuf::new();
    for rep in 0..SETUP_REPS as u64 {
        let start = Instant::now();
        worker = worker_path()?;
        let req = request(sweep_seed(seed, u64::MAX - rep));
        orchestrate(
            &req,
            &scratch.join(format!("warm-{rep}")),
            &worker,
            Arc::new(EngineMetrics::new()),
        )?;
        times.push(start.elapsed().as_secs_f64());
    }
    Ok(Ready {
        worker,
        setup_s: median(&times).ok_or("no set-up ran")?,
    })
}

/// Sweep records a run writes once before the timed phase (48 bytes
/// each), so the list adds nothing to the peak RSS as it fills: room
/// for a sweep every 1.5 ms over 25 s, against ~43 ms per sweep
/// at this size.
pub const SWEPT_RESERVED: usize = 1 << 14;

/// One sweep as the caller saw it.
#[derive(Clone, Debug)]
pub struct Swept {
    /// The sweep's seed.
    pub seed: u64,
    /// Wall time of the orchestrated call, seconds.
    pub wall_s: f64,
    /// [`text_hash`] of the merged document's bytes, or the
    /// orchestrator's error.
    pub merged: Result<u64, String>,
    /// The merged document itself, kept in the traced phase only.
    pub doc: Option<Box<SweepCheckpoint>>,
}

impl Swept {
    /// The value the pre-touched list is filled with.
    pub const FILL: Swept = Swept {
        seed: 0,
        wall_s: 0.0,
        merged: Ok(0),
        doc: None,
    };
}

/// A 64-bit hash of a document's bytes.
pub fn text_hash(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// One timed phase of back-to-back sweeps.
pub struct Phase {
    /// Wall time of the phase, seconds.
    pub elapsed_s: f64,
    /// Index of the phase's first sweep in the run's list.
    pub first: usize,
    /// `VmHWM` in MiB when the phase ended.
    pub vm_hwm_mb: f64,
}

/// Runs sweeps until `duration` is up, appending to `swept`. The
/// `shard.*` ledger accumulates in `sink`; `traced` keeps each merged
/// document for the replay.
///
/// # Errors
///
/// Returns a message when the peak RSS cannot be read.
pub fn drive(
    seed: u64,
    ready: &Ready,
    scratch: &Path,
    duration: Duration,
    sink: &Arc<EngineMetrics>,
    swept: &mut Vec<Swept>,
    traced: bool,
) -> Result<Phase, String> {
    let first = swept.len();
    let start = Instant::now();
    while start.elapsed() < duration {
        let i = swept.len() as u64;
        let seed = sweep_seed(seed, i);
        let t = Instant::now();
        let merged = orchestrate(
            &request(seed),
            &scratch.join(format!("sweep-{i}")),
            &ready.worker,
            sink.clone(),
        );
        let wall_s = t.elapsed().as_secs_f64();
        swept.push(Swept {
            seed,
            wall_s,
            merged: merged
                .as_ref()
                .map(|m| text_hash(&m.to_json()))
                .map_err(Clone::clone),
            doc: merged.ok().filter(|_| traced).map(Box::new),
        });
    }
    Ok(Phase {
        elapsed_s: start.elapsed().as_secs_f64(),
        first,
        vm_hwm_mb: peak_rss_mb()?,
    })
}

/// Re-runs every sweep as one uninterrupted checkpointed process and
/// counts merged documents whose bytes differ from it.
pub fn verify(swept: &[Swept], scratch: &Path) -> u64 {
    let mut wrong = 0;
    for (i, sweep) in swept.iter().enumerate() {
        let path = scratch.join(format!("check-{i}.json"));
        let _stale = std::fs::remove_file(&path);
        let same = match (&sweep.merged, reference(sweep.seed, &path)) {
            (Ok(merged), Ok(bytes)) => *merged == text_hash(&bytes),
            _ => false,
        };
        let _cleanup = std::fs::remove_file(&path);
        wrong += u64::from(!same);
    }
    wrong
}

/// The checkpoint file a single-process sweep of `seed` writes.
fn reference(seed: u64, path: &Path) -> Result<String, String> {
    sweep_threshold_checkpointed(SWEEP_N, SWEEP_DELTA, SWEEP_GRID, SWEEP_TRIALS, seed, path)
        .map_err(|e| e.to_string())?;
    std::fs::read_to_string(path).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_merge_is_caught() {
        let scratch = std::env::temp_dir().join(format!("perfbench-sweep-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let seed = 5;
        let path = scratch.join("ref.json");
        let bytes = reference(seed, &path).unwrap();
        let merged = SweepCheckpoint::parse(&bytes).unwrap();
        assert_eq!(merged.to_json(), bytes);
        let mut bad = merged.clone();
        bad.wins[3] ^= 1;
        let swept = |merged| Swept {
            seed,
            wall_s: 0.1,
            merged,
            doc: None,
        };
        let swept = vec![
            swept(Ok(text_hash(&merged.to_json()))),
            swept(Ok(text_hash(&bad.to_json()))),
            swept(Err("worker died".to_owned())),
        ];
        assert_eq!(verify(&swept, &scratch), 2);
        assert_eq!(verify(&swept[..1], &scratch), 0);
        std::fs::remove_dir_all(&scratch).unwrap();
    }
}
