//! Versioned stream fixtures and replay identities for the
//! counter-addressed lane stream, introduced as RNG stream v3. Streams
//! v4 and v5 drew exactly what v3 drew for hinted rules (v4 changed
//! only the lane loop's shape, v5 moved opaque rules onto the same
//! draws and added an opaque golden). Stream v6 reads two 32-bit
//! uniforms from every Threefry word, which moves every draw, so the
//! engine goldens below were re-pinned at v6; the raw Threefry block
//! golden is unchanged. Stream v7 draws exactly v6's and decides on
//! their lattice integers, so every v6 golden holds unchanged at v7.
//! Stream v8 only reshapes the ladder and the fold for wide vector
//! registers, so every golden holds unchanged at v8 too.
//!
//! The golden values below are **self-pinned fixtures**: they were
//! produced by this implementation and exist to detect silent stream
//! drift, not to claim byte-compatibility with any external Threefry
//! implementation (none is vendored to compare against). If
//! `RNG_STREAM_VERSION` is deliberately bumped, regenerate them
//! alongside the fingerprint re-attestation
//! (`cargo xtask analyze --update-fingerprint`).

use decision::rules::{BinZeroSet, GeneralRule};
use decision::ObliviousAlgorithm;
use rand::counter::{half_to_unit, threefry4x64, CounterKey};
use rational::Rational;
use simulator::{
    resume_sweep, sweep_threshold, sweep_threshold_checkpointed, ChaosPlan, FaultKind, Simulation,
    RNG_STREAM_VERSION,
};

fn rule() -> ObliviousAlgorithm {
    ObliviousAlgorithm::fair(3)
}

#[test]
fn stream_version_is_eight() {
    // v6 maps each Threefry word to two uniforms; v7 decides on them
    // as integers and v8 reshapes the ladder and the fold, neither
    // moving a draw: the engine fixtures below are v6 fixtures that
    // hold at v8, while the raw block golden is the v3 one.
    assert_eq!(RNG_STREAM_VERSION, 8);
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
    // And the two uniforms of its first word, high half then low
    // half, on the midpoint lattice (h + 1/2)·2⁻³². Fixture version:
    // stream v6.
    assert_eq!(half_to_unit(block[0], 0), 0.121_114_660_636_521_88);
    assert_eq!(half_to_unit(block[0], 1), 0.908_567_350_241_355_6);
}

#[test]
fn v3_engine_reports_are_pinned() {
    // End-to-end fixtures through the default lane path: any change
    // to counter addressing, draw layout, or the lane kernel's
    // accumulation moves these counts. Fixture version: stream v6.
    let crash_free = Simulation::new(4_096, 7).run(&rule(), 1.0);
    assert_eq!(crash_free.wins, 1_680);
    let crashing = Simulation::new(4_096, 7).run_with_crashes(&rule(), 1.0, 0.25);
    assert_eq!(crashing.wins, 2_630);
}

#[test]
fn v5_opaque_rule_report_is_pinned() {
    // An opaque rule (no kernel hint) on the lane loop: bin 0 on
    // [0, 1/4] ∪ [3/4, 1] for each of three players. Any change to
    // the generic kernel's draws or accumulation moves this count.
    // Fixture version: stream v6.
    let middle_out = BinZeroSet::new(vec![
        (Rational::zero(), Rational::ratio(1, 4)),
        (Rational::ratio(3, 4), Rational::one()),
    ])
    .unwrap();
    let rule = GeneralRule::new(vec![middle_out; 3]).unwrap();
    let report = Simulation::new(4_096, 7).run(&rule, 1.0);
    assert_eq!(report.wins, 1_642);
    // And the pinned count is a sound estimate of the exact 77/192.
    let exact = rule
        .winning_probability(&decision::Capacity::unit())
        .unwrap();
    assert_eq!(exact, Rational::ratio(77, 192));
    assert!(report.agrees_with(exact.to_f64(), 4.0), "{report}");
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
