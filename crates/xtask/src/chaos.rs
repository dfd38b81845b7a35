//! `cargo xtask chaos-check <path>` — validator for the
//! `chaos-smoke/v1` JSON documents written by the `chaos_smoke`
//! example.
//!
//! The artifact is the committed proof that the engine's fault
//! tolerance actually engaged and actually recovered: a run under a
//! seeded `ChaosPlan` (worker panics, stragglers, poisoned batch
//! draws, worker-thread deaths) must report **bit-equal** totals to
//! the fault-free run at the same parameters, and the recovery
//! counters must show the faults fired rather than the plan being a
//! no-op. CI regenerates the artifact and runs this check, so a
//! regression in the recovery layer — or a smoke config that stops
//! injecting anything — fails the pipeline instead of rotting in
//! `results/`.

use json::{field, Json};

/// What a valid `chaos-smoke/v1` document proved, for the success
/// report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosSummary {
    /// Value of the `rng_stream_version` field.
    pub rng_stream_version: u64,
    /// Shared win count of the chaotic and fault-free runs.
    pub wins: u64,
    /// Shared trial count of the chaotic and fault-free runs.
    pub trials: u64,
    /// Faults the plan injected (`chaos.faults`).
    pub faults: u64,
    /// Batches re-executed after a fault (`engine.recovered_batches`).
    pub recovered_batches: u64,
    /// Workers respawned by the supervisor (`pool.respawns`).
    pub pool_respawns: u64,
}

impl std::fmt::Display for ChaosSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chaos-smoke/v1 (rng stream v{}): {}/{} wins bit-equal under faults; \
             {} faults injected, {} batches recovered, {} workers respawned",
            self.rng_stream_version,
            self.wins,
            self.trials,
            self.faults,
            self.recovered_batches,
            self.pool_respawns
        )
    }
}

/// Validates the text of a `chaos-smoke/v1` document.
///
/// # Errors
///
/// Returns a description of the first problem: malformed JSON, wrong
/// schema tag, a missing field, a chaotic report that is not bit-equal
/// to the fault-free report, or recovery counters showing the plan
/// never engaged (zero faults or zero recovered batches).
pub fn validate_chaos_document(text: &str) -> Result<ChaosSummary, String> {
    let root = json::parse(text)?;
    let doc = root.fields("document root")?;

    let schema = field(doc, "schema", "document root")?.str("schema")?;
    if schema != "chaos-smoke/v1" {
        return Err(format!("schema is {schema:?}, expected \"chaos-smoke/v1\""));
    }
    let rng_stream_version =
        field(doc, "rng_stream_version", "document root")?.u64("rng_stream_version")?;
    if rng_stream_version == 0 {
        return Err("rng_stream_version must be at least 1".to_owned());
    }

    let fault_free = report(field(doc, "fault_free", "document root")?, "fault_free")?;
    let chaotic = report(field(doc, "chaotic", "document root")?, "chaotic")?;
    if chaotic != fault_free {
        return Err(format!(
            "chaotic report {{wins: {}, trials: {}}} is not bit-equal to fault-free \
             {{wins: {}, trials: {}}} — recovery broke determinism",
            chaotic.0, chaotic.1, fault_free.0, fault_free.1
        ));
    }

    let recoveries = field(doc, "recoveries", "document root")?.fields("recoveries")?;
    let faults = field(recoveries, "chaos_faults", "recoveries")?.u64("chaos_faults")?;
    let recovered =
        field(recoveries, "recovered_batches", "recoveries")?.u64("recovered_batches")?;
    let respawns = field(recoveries, "pool_respawns", "recoveries")?.u64("pool_respawns")?;
    if faults == 0 {
        return Err("chaos_faults is 0 — the smoke run injected nothing".to_owned());
    }
    if recovered == 0 {
        return Err("recovered_batches is 0 — no recovery path was exercised".to_owned());
    }

    Ok(ChaosSummary {
        rng_stream_version,
        wins: fault_free.0,
        trials: fault_free.1,
        faults,
        recovered_batches: recovered,
        pool_respawns: respawns,
    })
}

/// Reads one `{"wins": …, "trials": …}` report object.
fn report(value: &Json<'_>, what: &str) -> Result<(u64, u64), String> {
    let fields = value.fields(what)?;
    let wins = field(fields, "wins", what)?.u64("wins")?;
    let trials = field(fields, "trials", what)?.u64("trials")?;
    if wins > trials {
        return Err(format!("{what}: wins {wins} exceed trials {trials}"));
    }
    if trials == 0 {
        return Err(format!("{what}: trials must be positive"));
    }
    Ok((wins, trials))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_document() -> String {
        "{\n  \"schema\": \"chaos-smoke/v1\",\n  \"rng_stream_version\": 2,\n  \
         \"seed\": 7,\n  \
         \"fault_free\": {\"wins\": 25000, \"trials\": 60000},\n  \
         \"chaotic\": {\"wins\": 25000, \"trials\": 60000},\n  \
         \"recoveries\": {\"chaos_faults\": 6, \"recovered_batches\": 5, \
         \"pool_respawns\": 1}\n}\n"
            .to_owned()
    }

    #[test]
    fn valid_document_passes_and_summarizes() {
        let summary = validate_chaos_document(&valid_document()).expect("valid");
        assert_eq!(
            summary,
            ChaosSummary {
                rng_stream_version: 2,
                wins: 25_000,
                trials: 60_000,
                faults: 6,
                recovered_batches: 5,
                pool_respawns: 1,
            }
        );
        let line = summary.to_string();
        assert!(line.contains("bit-equal"), "{line}");
        assert!(line.contains("6 faults"), "{line}");
    }

    #[test]
    fn wrong_schema_tag_is_rejected() {
        let doc = valid_document().replace("chaos-smoke/v1", "chaos-smoke/v0");
        let err = validate_chaos_document(&doc).expect_err("schema mismatch");
        assert!(err.contains("chaos-smoke/v1"), "{err}");
    }

    #[test]
    fn divergent_reports_are_rejected() {
        let doc = valid_document().replace(
            "\"chaotic\": {\"wins\": 25000",
            "\"chaotic\": {\"wins\": 25001",
        );
        let err = validate_chaos_document(&doc).expect_err("divergence");
        assert!(err.contains("not bit-equal"), "{err}");
    }

    #[test]
    fn unengaged_chaos_is_rejected() {
        let no_faults = valid_document().replace("\"chaos_faults\": 6", "\"chaos_faults\": 0");
        assert!(validate_chaos_document(&no_faults)
            .expect_err("no faults")
            .contains("injected nothing"));
        let no_recovery =
            valid_document().replace("\"recovered_batches\": 5", "\"recovered_batches\": 0");
        assert!(validate_chaos_document(&no_recovery)
            .expect_err("no recovery")
            .contains("no recovery path"));
    }

    #[test]
    fn malformed_reports_are_rejected() {
        let over = valid_document().replace(
            "\"fault_free\": {\"wins\": 25000, \"trials\": 60000}",
            "\"fault_free\": {\"wins\": 70000, \"trials\": 60000}",
        );
        assert!(validate_chaos_document(&over)
            .expect_err("wins > trials")
            .contains("exceed"));
        let missing = valid_document().replace("\"pool_respawns\": 1", "\"other\": 1");
        assert!(validate_chaos_document(&missing)
            .expect_err("missing field")
            .contains("pool_respawns"));
    }

    #[test]
    fn committed_artifact_validates() {
        // The committed smoke artifact, when present, must satisfy the
        // checker — this pins the example writer and checker together.
        let path = crate::repo_root().join("results/chaos_smoke.json");
        if let Ok(text) = std::fs::read_to_string(path) {
            let summary = validate_chaos_document(&text).expect("committed artifact");
            assert_eq!(summary.rng_stream_version, 7);
            assert!(summary.recovered_batches > 0);
        }
    }
}
