//! Golden tests for the committed certified threshold table
//! (`results/threshold_table.json`): the artifact must parse through
//! the daemon's loader, satisfy the published width contract, and —
//! at small `n`, where the exact rational pipeline is independent
//! ground truth — enclose the exactly-certified `β*_n` and `P*_n`.
//! At every `n`, a Monte-Carlo run at the certified `β*_n` must land
//! on the certified `P*_n`.

use nocomm::decision::certified::{self, ThresholdTable, WIDTH_TARGET};
use nocomm::decision::SingleThresholdAlgorithm;
use nocomm::rational::Rational;
use nocomm::service::load_threshold_table;
use nocomm::simulator::Simulation;

fn committed_table() -> ThresholdTable {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/threshold_table.json");
    let text = std::fs::read_to_string(path).expect("committed results/threshold_table.json");
    load_threshold_table(&text).expect("table parses through the service loader")
}

#[test]
fn committed_rows_are_contiguous_tight_and_cover_128_players() {
    let table = committed_table();
    let rows = table.rows();
    assert!(
        rows.last().map_or(0, |r| r.n) >= 128,
        "table reaches n = 128"
    );
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.n as usize, i + 2, "contiguous n from 2");
        assert!(
            row.beta_hi - row.beta_lo <= WIDTH_TARGET,
            "β width at n = {}",
            row.n
        );
        assert!(
            row.p_hi - row.p_lo <= WIDTH_TARGET,
            "P width at n = {}",
            row.n
        );
        assert!(row.beta_lo > 0.0 && row.beta_hi < 1.0);
        assert!(row.p_lo > 0.0 && row.p_hi <= 1.0);
    }
}

#[test]
fn committed_rows_enclose_the_exact_rational_optimum_at_small_n() {
    let table = committed_table();
    for row in table.rows().iter().filter(|r| r.n <= 8) {
        let exact = certified::certify(row.n, None).expect("exact certification");
        // Both intervals enclose the true β*_n, the committed row at
        // least as loosely as a freshly-run exact certification.
        assert!(
            row.beta_lo <= exact.beta.hi && exact.beta.lo <= row.beta_hi,
            "committed β row for n = {} misses the exact enclosure",
            row.n
        );
        assert!(
            row.p_lo <= exact.p.hi && exact.p.lo <= row.p_hi,
            "committed P row for n = {} misses the exact enclosure",
            row.n
        );
    }
}

#[test]
fn committed_n3_row_matches_the_papadimitriou_yannakakis_value() {
    let table = committed_table();
    let row = &table.rows()[1];
    assert_eq!(row.n, 3);
    // β* = 1 − √(1/7) and P* = (20 + 8√7)/49 · (1/√7 adjusted) — use
    // the float forms: the certified enclosure must contain them.
    let beta_star = 1.0 - (1.0f64 / 7.0).sqrt();
    assert!(row.beta_lo <= beta_star && beta_star <= row.beta_hi);
    assert!(row.p_lo > 0.544 && row.p_hi < 0.546);
}

#[test]
fn monte_carlo_at_every_certified_optimum_lands_in_its_enclosure() {
    // Closed loop over three independent numeric paths: the exact
    // rational and `Ball` certification that produced each row, and
    // the Monte-Carlo lane kernel. A symmetric threshold rule at the
    // row's β* midpoint, simulated at δ = n/3, must estimate P*_n
    // within 5σ plus the row's own half-width of `[p_lo, p_hi]`. The
    // midpoint is within 5e-10 of β*_n, where P' = 0, so the rule's
    // true winning probability is P*_n to far below σ. The trial
    // count keeps the 127 runs to a few seconds in a debug build;
    // four batches per run let them use two threads.
    const TRIALS: u64 = 6_000;
    let table = committed_table();
    for row in table.rows() {
        let n = row.n as usize;
        let beta =
            Rational::from_f64_exact(0.5 * (row.beta_lo + row.beta_hi)).expect("finite midpoint");
        let rule = SingleThresholdAlgorithm::symmetric(n, beta).expect("β* in (0, 1)");
        let report = Simulation::new(TRIALS, 0x5eed + u64::from(row.n))
            .with_batch_size(TRIALS / 4)
            .run(&rule, n as f64 / 3.0);
        let center = 0.5 * (row.p_lo + row.p_hi);
        let half_width = 0.5 * (row.p_hi - row.p_lo);
        let sigma = (center * (1.0 - center) / TRIALS as f64).sqrt();
        assert!(
            (report.estimate - center).abs() <= 5.0 * sigma + half_width,
            "n = {}: estimate {} vs certified P* in [{}, {}] (σ = {sigma:.2e})",
            row.n,
            report.estimate,
            row.p_lo,
            row.p_hi
        );
    }
}
