//! `cargo xtask shard-check <path>` — validator for the
//! `shard-smoke/v1` JSON documents written by `nocomm-shard --smoke`.
//!
//! The artifact is the committed proof that multi-process sweep
//! orchestration survives real process faults: the fault-free leg
//! must merge **byte-identically** to the single-process baseline
//! without a single re-issue, and the chaotic leg (one killed worker,
//! one stalled worker, one corrupt-output worker) must show every
//! fault fired — a kill observed, a corrupt checkpoint scrubbed, all
//! three shards re-issued — and *still* merge byte-identically. CI
//! regenerates the artifact and runs this check, so a regression in
//! the supervision layer, or a smoke config that stops injecting
//! faults, fails the pipeline instead of rotting in `results/`.

use json::{field, Json};

/// What a valid `shard-smoke/v1` document proved, for the success
/// report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSummary {
    /// Value of the `rng_stream_version` field.
    pub rng_stream_version: u64,
    /// Worker processes the grid was split across.
    pub shards: u64,
    /// Grid resolution of the orchestrated sweep.
    pub grid: u64,
    /// Monte-Carlo trials per grid point.
    pub trials: u64,
    /// Shards re-issued after a fault (`chaotic.reissued`).
    pub reissued: u64,
    /// Workers killed by the supervisor (`chaotic.killed`).
    pub killed: u64,
    /// Corrupt shard checkpoints scrubbed (`chaotic.corrupt`).
    pub corrupt: u64,
}

impl std::fmt::Display for ShardSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard-smoke/v1 (rng stream v{}): {} shards over grid {} x {} trials merged \
             byte-identically under faults; {} re-issued, {} killed, {} corrupt scrubbed",
            self.rng_stream_version,
            self.shards,
            self.grid,
            self.trials,
            self.reissued,
            self.killed,
            self.corrupt
        )
    }
}

/// One leg's supervision ledger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Leg {
    bit_identical: bool,
    issued: u64,
    completed: u64,
    reissued: u64,
    killed: u64,
    corrupt: u64,
}

/// Validates the text of a `shard-smoke/v1` document.
///
/// # Errors
///
/// Returns a description of the first problem: malformed JSON, wrong
/// schema tag, a missing field, a leg that did not merge
/// byte-identically to the single-process baseline, a fault-free leg
/// whose ledger shows supervision interference (re-issues, kills, or
/// scrubs with no faults injected), a chaotic leg whose ledger shows
/// the plan never engaged, or a ledger that does not balance
/// (`issued != completed` on a converged run, or
/// `issued != shards + reissued`).
pub fn validate_shard_document(text: &str) -> Result<ShardSummary, String> {
    let root = json::parse(text)?;
    let doc = root.fields("document root")?;

    let schema = field(doc, "schema", "document root")?.str("schema")?;
    if schema != "shard-smoke/v1" {
        return Err(format!("schema is {schema:?}, expected \"shard-smoke/v1\""));
    }
    let rng_stream_version =
        field(doc, "rng_stream_version", "document root")?.u64("rng_stream_version")?;
    if rng_stream_version == 0 {
        return Err("rng_stream_version must be at least 1".to_owned());
    }
    let shards = field(doc, "shards", "document root")?.u64("shards")?;
    let grid = field(doc, "grid", "document root")?.u64("grid")?;
    let trials = field(doc, "trials", "document root")?.u64("trials")?;
    if shards < 2 {
        return Err(format!(
            "shards is {shards} — a smoke with fewer than 2 shards proves nothing about \
             orchestration"
        ));
    }
    if shards > grid + 1 {
        return Err(format!(
            "shards {shards} exceed the {} grid points",
            grid + 1
        ));
    }
    if trials == 0 {
        return Err("trials must be positive".to_owned());
    }

    let fault_free = leg(field(doc, "fault_free", "document root")?, "fault_free")?;
    let chaotic = leg(field(doc, "chaotic", "document root")?, "chaotic")?;
    for (name, l) in [("fault_free", fault_free), ("chaotic", chaotic)] {
        if !l.bit_identical {
            return Err(format!(
                "{name}: merged checkpoint is not byte-identical to the single-process \
                 baseline — the orchestrator broke determinism"
            ));
        }
        if l.completed != shards {
            return Err(format!(
                "{name}: {} shards completed, expected all {shards}",
                l.completed
            ));
        }
        if l.issued != shards + l.reissued {
            return Err(format!(
                "{name}: ledger does not balance — {} issued != {shards} shards + {} re-issued",
                l.issued, l.reissued
            ));
        }
    }
    if fault_free.reissued != 0 || fault_free.killed != 0 || fault_free.corrupt != 0 {
        return Err(format!(
            "fault_free: supervision interfered with a healthy run ({} re-issued, {} killed, \
             {} corrupt)",
            fault_free.reissued, fault_free.killed, fault_free.corrupt
        ));
    }
    if chaotic.killed == 0 {
        return Err(
            "chaotic: killed is 0 — no worker was ever killed, the kill/stall faults \
             never engaged"
                .to_owned(),
        );
    }
    if chaotic.corrupt == 0 {
        return Err("chaotic: corrupt is 0 — no corrupt checkpoint was ever scrubbed".to_owned());
    }
    if chaotic.reissued < shards {
        return Err(format!(
            "chaotic: only {} shards re-issued — the plan must fault every one of the \
             {shards} shards once",
            chaotic.reissued
        ));
    }

    Ok(ShardSummary {
        rng_stream_version,
        shards,
        grid,
        trials,
        reissued: chaotic.reissued,
        killed: chaotic.killed,
        corrupt: chaotic.corrupt,
    })
}

/// Reads one leg's ledger object.
fn leg(value: &Json<'_>, what: &str) -> Result<Leg, String> {
    let fields = value.fields(what)?;
    let bit_identical = match field(fields, "bit_identical", what)? {
        Json::Bool(b) => *b,
        other => {
            return Err(format!(
                "{what}.bit_identical must be a bool, found {}",
                other.type_name()
            ))
        }
    };
    Ok(Leg {
        bit_identical,
        issued: field(fields, "issued", what)?.u64("issued")?,
        completed: field(fields, "completed", what)?.u64("completed")?,
        reissued: field(fields, "reissued", what)?.u64("reissued")?,
        killed: field(fields, "killed", what)?.u64("killed")?,
        corrupt: field(fields, "corrupt", what)?.u64("corrupt")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_document() -> String {
        "{\"schema\": \"shard-smoke/v1\", \"rng_stream_version\": 3, \
         \"n\": 3, \"grid\": 5, \"shards\": 3, \"trials\": 2000, \
         \"fault_free\": {\"bit_identical\": true, \"issued\": 3, \"completed\": 3, \
         \"reissued\": 0, \"killed\": 0, \"corrupt\": 0}, \
         \"chaotic\": {\"bit_identical\": true, \"issued\": 6, \"completed\": 3, \
         \"reissued\": 3, \"killed\": 1, \"corrupt\": 1}}\n"
            .to_owned()
    }

    #[test]
    fn valid_document_passes_and_summarizes() {
        let summary = validate_shard_document(&valid_document()).expect("valid");
        assert_eq!(
            summary,
            ShardSummary {
                rng_stream_version: 3,
                shards: 3,
                grid: 5,
                trials: 2_000,
                reissued: 3,
                killed: 1,
                corrupt: 1,
            }
        );
        let line = summary.to_string();
        assert!(line.contains("byte-identically"), "{line}");
        assert!(line.contains("3 re-issued"), "{line}");
    }

    #[test]
    fn wrong_schema_tag_is_rejected() {
        let doc = valid_document().replace("shard-smoke/v1", "shard-smoke/v0");
        let err = validate_shard_document(&doc).expect_err("schema mismatch");
        assert!(err.contains("shard-smoke/v1"), "{err}");
    }

    #[test]
    fn divergent_merges_are_rejected_per_leg() {
        let free = valid_document().replace(
            "\"fault_free\": {\"bit_identical\": true",
            "\"fault_free\": {\"bit_identical\": false",
        );
        let err = validate_shard_document(&free).expect_err("fault-free divergence");
        assert!(
            err.contains("fault_free") && err.contains("byte-identical"),
            "{err}"
        );
        let chaos = valid_document().replace(
            "\"chaotic\": {\"bit_identical\": true",
            "\"chaotic\": {\"bit_identical\": false",
        );
        let err = validate_shard_document(&chaos).expect_err("chaotic divergence");
        assert!(
            err.contains("chaotic") && err.contains("byte-identical"),
            "{err}"
        );
    }

    #[test]
    fn interference_with_a_healthy_run_is_rejected() {
        let doc = valid_document().replace(
            "\"issued\": 3, \"completed\": 3, \"reissued\": 0",
            "\"issued\": 4, \"completed\": 3, \"reissued\": 1",
        );
        let err = validate_shard_document(&doc).expect_err("spurious re-issue");
        assert!(err.contains("interfered"), "{err}");
    }

    #[test]
    fn unengaged_chaos_is_rejected() {
        let no_kills = valid_document().replace(
            "\"killed\": 1, \"corrupt\": 1",
            "\"killed\": 0, \"corrupt\": 1",
        );
        assert!(validate_shard_document(&no_kills)
            .expect_err("no kills")
            .contains("never engaged"));
        let no_scrubs = valid_document().replace(
            "\"killed\": 1, \"corrupt\": 1",
            "\"killed\": 1, \"corrupt\": 0",
        );
        assert!(validate_shard_document(&no_scrubs)
            .expect_err("no scrubs")
            .contains("scrubbed"));
        let few_reissues = valid_document().replace(
            "\"issued\": 6, \"completed\": 3, \"reissued\": 3",
            "\"issued\": 5, \"completed\": 3, \"reissued\": 2",
        );
        assert!(validate_shard_document(&few_reissues)
            .expect_err("too few re-issues")
            .contains("re-issued"));
    }

    #[test]
    fn unbalanced_ledgers_are_rejected() {
        let doc = valid_document().replace(
            "\"issued\": 6, \"completed\": 3, \"reissued\": 3",
            "\"issued\": 7, \"completed\": 3, \"reissued\": 3",
        );
        let err = validate_shard_document(&doc).expect_err("imbalance");
        assert!(err.contains("does not balance"), "{err}");
        let short = valid_document().replace(
            "\"issued\": 6, \"completed\": 3",
            "\"issued\": 6, \"completed\": 2",
        );
        let err = validate_shard_document(&short).expect_err("incomplete");
        assert!(err.contains("expected all 3"), "{err}");
    }

    #[test]
    fn degenerate_smoke_configs_are_rejected() {
        let one_shard = valid_document().replace("\"shards\": 3", "\"shards\": 1");
        assert!(validate_shard_document(&one_shard)
            .expect_err("one shard")
            .contains("proves nothing"));
        let missing = valid_document().replace(
            "\"killed\": 1, \"corrupt\": 1",
            "\"killed\": 1, \"other\": 1",
        );
        assert!(validate_shard_document(&missing)
            .expect_err("missing field")
            .contains("corrupt"));
    }

    #[test]
    fn committed_artifact_validates() {
        // The committed smoke artifact, when present, must satisfy the
        // checker — this pins the smoke writer and checker together.
        let path = crate::repo_root().join("results/shard_smoke.json");
        if let Ok(text) = std::fs::read_to_string(path) {
            let summary = validate_shard_document(&text).expect("committed artifact");
            assert_eq!(summary.rng_stream_version, 8);
            assert!(summary.reissued >= summary.shards);
        }
    }
}
