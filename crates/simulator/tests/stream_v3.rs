//! Versioned stream fixtures and replay identities for RNG stream v3
//! (the counter-addressed lane stream). Stream v4 draws exactly what
//! v3 draws — only the lane loop's shape changed — so the v3 goldens
//! are also the v4 goldens.
//!
//! The golden values below are **self-pinned fixtures**: they were
//! produced by this implementation and exist to detect silent stream
//! drift, not to claim byte-compatibility with any external Threefry
//! implementation (none is vendored to compare against). If
//! `RNG_STREAM_VERSION` is deliberately bumped, regenerate them
//! alongside the fingerprint re-attestation
//! (`cargo xtask analyze --update-fingerprint`).

use decision::ObliviousAlgorithm;
use rand::counter::{threefry4x64, word_to_unit, CounterKey};
use simulator::{
    resume_sweep, sweep_threshold, sweep_threshold_checkpointed, ChaosPlan, FaultKind,
    KernelStream, Simulation, RNG_STREAM_VERSION,
};

fn rule() -> ObliviousAlgorithm {
    ObliviousAlgorithm::fair(3)
}

#[test]
fn stream_version_is_four() {
    // v4 rewrote the lane loop without moving a draw: every v3
    // fixture below holds unchanged at v4.
    assert_eq!(RNG_STREAM_VERSION, 4);
}

#[test]
fn v3_golden_counter_block_is_pinned() {
    // One Threefry-4×64-12 block, key from seed 42, counter
    // [1, 2, 3, 4] — the raw bijection under everything stream v3
    // draws. Fixture version: stream v3.
    let key = CounterKey::from_seed(42);
    let block = threefry4x64(&key, [1, 2, 3, 4]);
    assert_eq!(
        block,
        [
            0x1f01_5ed2_e897_deaf,
            0x58d9_78f3_2c5c_06c0,
            0x987d_f244_41c7_f143,
            0xff73_f0b6_c32e_07bd,
        ]
    );
    // And the unit-interval mapping of its first word (53-bit
    // mantissa convention, shared with the sequential stream).
    assert!((word_to_unit(block[0]) - 0.121_114_660_731_648_78).abs() < 1e-18);
}

#[test]
fn v3_engine_reports_are_pinned() {
    // End-to-end fixtures through the default lane path: any change
    // to counter addressing, draw layout, or the lane kernel's
    // accumulation moves these counts. Fixture version: stream v3.
    let crash_free = Simulation::new(4_096, 7).run(&rule(), 1.0);
    assert_eq!(crash_free.wins, 1_724);
    let crashing = Simulation::new(4_096, 7).run_with_crashes(&rule(), 1.0, 0.25);
    assert_eq!(crashing.wins, 2_677);
}

#[test]
fn v2_sequential_reports_stay_pinned() {
    // The sequential opt-out still carries the exact v2 stream the
    // PR 3 engine shipped. Fixture version: stream v2.
    let sequential = Simulation::new(4_096, 7)
        .with_kernel_stream(KernelStream::Sequential)
        .run(&rule(), 1.0);
    assert_eq!(sequential.wins, 1_759);
}

#[test]
fn v2_and_v3_streams_are_independent() {
    // Documented non-identity: the two stream versions are different
    // generators estimating the same quantity, so their win counts
    // differ while their estimates agree statistically.
    let lane = Simulation::new(200_000, 11).run(&rule(), 1.0);
    let sequential = Simulation::new(200_000, 11)
        .with_kernel_stream(KernelStream::Sequential)
        .run(&rule(), 1.0);
    assert_ne!(lane.wins, sequential.wins);
    assert!(lane.agrees_with(sequential.estimate, 4.0), "{lane}");
}

#[test]
fn chaos_replay_is_bit_identical_on_the_lane_stream() {
    // Stream v3 makes every batch's draws a pure function of
    // (seed, batch), so re-executed work after injected faults cannot
    // drift — including on the lane path, whose counters never
    // serialize.
    let fault_free = Simulation::new(30_000, 5)
        .with_threads(3)
        .with_batch_size(2_000)
        .run_with_crashes(&rule(), 1.0, 0.25);
    let plan = ChaosPlan::new(77)
        .inject(1, FaultKind::WorkerPanic)
        .inject(4, FaultKind::PoisonedRefill)
        .with_worker_exits(1);
    let chaotic = Simulation::new(30_000, 5)
        .with_threads(3)
        .with_batch_size(2_000)
        .with_chaos(plan)
        .run_with_crashes(&rule(), 1.0, 0.25);
    assert_eq!(chaotic, fault_free);
}

#[test]
fn resume_sweep_replays_stream_v3_bit_identically() {
    // The checkpoint records RNG_STREAM_VERSION; resuming it
    // replays the same counter-addressed draws and reproduces the
    // uninterrupted sweep exactly.
    let dir = std::env::temp_dir().join("nocomm-stream-v3-resume-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ckpt.json");
    std::fs::remove_file(&path).ok();
    let swept = sweep_threshold_checkpointed(3, 1.0, 5, 8_000, 13, &path).unwrap();
    assert_eq!(resume_sweep(&path).unwrap(), swept);
    assert_eq!(sweep_threshold(3, 1.0, 5, 8_000, 13).unwrap(), swept);
    std::fs::remove_dir_all(&dir).ok();
}
