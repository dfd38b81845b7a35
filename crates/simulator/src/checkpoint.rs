//! `sweep-checkpoint/v1`: durable, resumable sweep state.
//!
//! A checkpointed sweep (see
//! [`sweep_threshold_checkpointed`](crate::sweep_threshold_checkpointed))
//! persists a [`SweepCheckpoint`] after **every** completed grid point
//! with an atomic write-rename, so a killed process always leaves a
//! well-formed file holding an exact prefix of the sweep — never a
//! torn write. [`resume_sweep`](crate::resume_sweep) reloads the file,
//! skips the completed prefix, and finishes the rest; because grid
//! point `k`'s engine stream is a pure function of `(seed, k)`, the
//! resumed vector is identical to an uninterrupted run.
//!
//! The document stores only what cannot be recomputed: the sweep
//! parameters and the raw win count per completed point. Estimates and
//! standard errors are rebuilt from counts, and the grid position `x`
//! from `k/grid`, through the same code paths a live sweep uses, so
//! round-tripping cannot drift. `delta` is serialized as its shortest
//! `f64` debug representation (a JSON string), which round-trips
//! bit-exactly.
//!
//! A document may cover only a *shard* of the grid — a contiguous run
//! of `shard_points` points starting at `shard_start` — so a fleet of
//! worker processes can each checkpoint their own slice and a
//! coordinator can merge the slices back into the whole-grid vector
//! (see `orchestrator`). Whole-grid documents omit the `shard` field
//! and stay byte-compatible with pre-shard writers. Every document
//! also carries a `crc` field: an FNV-1a 64 digest over the stored
//! fields that the parser re-verifies, so a flipped bit that still
//! reads as a valid digit (invisible to the structural checks) is
//! still caught.
//!
//! Documents are read with the workspace's one JSON parser
//! ([`json::parse`]) and then walked field by field: unknown or
//! duplicate fields, a wrong schema tag, out-of-range integers, a
//! non-contiguous run of point indices and a `crc` mismatch are each
//! a [`SweepError::Corrupt`]. Documents from writers that predate the
//! `crc` field are still accepted.

use crate::{SimulationReport, SweepError, SweepPoint};
use json::{Field, Json};
use rational::Rational;
use std::path::{Path, PathBuf};

/// The schema tag every checkpoint document carries.
pub const SWEEP_CHECKPOINT_SCHEMA: &str = "sweep-checkpoint/v1";

/// The fields a checkpoint document may carry (`shard` and `crc` are
/// optional).
const DOCUMENT_FIELDS: &[&str] = &[
    "schema",
    "rng_stream_version",
    "n",
    "delta",
    "grid",
    "trials",
    "seed",
    "shard",
    "crc",
    "points",
];

/// The persistent state of a (possibly incomplete) threshold sweep:
/// its full parameter set plus the win counts of the completed prefix
/// of grid points.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCheckpoint {
    /// RNG stream-shape version the counts were produced under.
    pub rng_stream_version: u32,
    /// Number of players.
    pub n: usize,
    /// Capacity δ.
    pub delta: f64,
    /// Grid divisions (the sweep has `grid + 1` points).
    pub grid: usize,
    /// Trials per grid point.
    pub trials: u64,
    /// Sweep seed (point `k` derives its engine seed from this).
    pub seed: u64,
    /// First grid point this document covers (0 for a whole sweep).
    pub shard_start: usize,
    /// Grid points this document covers (`grid + 1` for a whole
    /// sweep).
    pub shard_points: usize,
    /// Win counts of completed points, covering grid points
    /// `shard_start .. shard_start + wins.len()` in order.
    pub wins: Vec<u64>,
}

impl SweepCheckpoint {
    /// A fresh (no points completed) checkpoint for the given sweep,
    /// stamped with the current
    /// [`RNG_STREAM_VERSION`](crate::RNG_STREAM_VERSION). A `grid` of
    /// `usize::MAX` has no point count; the checkpoint is built anyway
    /// and rejected as out of range by every consumer.
    #[must_use]
    pub fn new(n: usize, delta: f64, grid: usize, trials: u64, seed: u64) -> SweepCheckpoint {
        SweepCheckpoint {
            rng_stream_version: crate::RNG_STREAM_VERSION,
            n,
            delta,
            grid,
            trials,
            seed,
            shard_start: 0,
            shard_points: grid.saturating_add(1),
            wins: Vec::new(),
        }
    }

    /// A fresh checkpoint covering only the `points` grid points
    /// starting at `start` — one worker's slice of a sharded sweep.
    /// The parameter set and per-point seeding are identical to
    /// [`SweepCheckpoint::new`], so a shard's point `k` reproduces
    /// the whole sweep's point `k` bit for bit.
    #[must_use]
    pub fn shard(
        n: usize,
        delta: f64,
        grid: usize,
        trials: u64,
        seed: u64,
        start: usize,
        points: usize,
    ) -> SweepCheckpoint {
        SweepCheckpoint {
            shard_start: start,
            shard_points: points,
            ..SweepCheckpoint::new(n, delta, grid, trials, seed)
        }
    }

    /// Whether this document covers the full grid rather than a
    /// proper shard of it.
    #[must_use]
    pub fn covers_whole_grid(&self) -> bool {
        self.shard_start == 0 && self.grid.checked_add(1) == Some(self.shard_points)
    }

    /// Whether every covered grid point has completed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.wins.len() == self.shard_points
    }

    /// Materializes the completed prefix as [`SweepPoint`]s — the
    /// same `x` and report a live sweep would have produced for these
    /// grid points.
    #[must_use]
    pub fn points(&self) -> Vec<SweepPoint> {
        self.wins
            .iter()
            .enumerate()
            .map(|(i, &wins)| SweepPoint {
                x: Rational::ratio((self.shard_start + i) as i64, self.grid as i64).to_f64(),
                report: SimulationReport::from_counts(wins, self.trials),
            })
            .collect()
    }

    /// FNV-1a 64 digest over every stored field in a fixed canonical
    /// order. Serialized as the `crc` field and re-verified on parse.
    #[must_use]
    pub fn checksum(&self) -> u64 {
        use std::fmt::Write as _;
        let mut canon = format!(
            "{}|{}|{:?}|{}|{}|{}|{}|{}",
            self.rng_stream_version,
            self.n,
            self.delta,
            self.grid,
            self.trials,
            self.seed,
            self.shard_start,
            self.shard_points
        );
        for wins in &self.wins {
            let _ = write!(canon, "|{wins}");
        }
        fnv1a(canon.as_bytes())
    }

    /// Serializes the checkpoint as a `sweep-checkpoint/v1` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"{SWEEP_CHECKPOINT_SCHEMA}\",");
        let _ = writeln!(
            out,
            "  \"rng_stream_version\": {},",
            self.rng_stream_version
        );
        let _ = writeln!(out, "  \"n\": {},", self.n);
        let _ = writeln!(out, "  \"delta\": \"{:?}\",", self.delta);
        let _ = writeln!(out, "  \"grid\": {},", self.grid);
        let _ = writeln!(out, "  \"trials\": {},", self.trials);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        if !self.covers_whole_grid() {
            let _ = writeln!(
                out,
                "  \"shard\": {{\"start\": {}, \"points\": {}}},",
                self.shard_start, self.shard_points
            );
        }
        let _ = writeln!(out, "  \"crc\": {},", self.checksum());
        out.push_str("  \"points\": [\n");
        for (i, wins) in self.wins.iter().enumerate() {
            let comma = if i + 1 < self.wins.len() { "," } else { "" };
            let k = self.shard_start + i;
            let _ = writeln!(out, "    {{\"k\": {k}, \"wins\": {wins}}}{comma}");
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses and structurally validates a checkpoint document.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Corrupt`] for malformed JSON, a wrong
    /// schema tag, missing, unknown or duplicated fields, out-of-range
    /// values (`wins` above `trials`, more points than the grid holds,
    /// integers outside their field's type), point indices that are
    /// not a contiguous run from the shard start, or a `crc` the
    /// contents do not hash to.
    pub fn parse(text: &str) -> Result<SweepCheckpoint, SweepError> {
        let root = json::parse(text).map_err(corrupt)?;
        let doc = object(&root, "checkpoint", DOCUMENT_FIELDS)?;
        let schema = need(doc, "schema", "checkpoint")?
            .str("schema")
            .map_err(corrupt)?;
        if schema != SWEEP_CHECKPOINT_SCHEMA {
            return Err(corrupt(format!("unsupported schema \"{schema}\"")));
        }
        let delta = need(doc, "delta", "checkpoint")?
            .str("delta")
            .map_err(corrupt)?
            .parse::<f64>()
            .map_err(|_| corrupt("unparsable \"delta\""))?;
        let grid: usize = int(doc, "grid", "checkpoint")?;
        let grid_points = grid
            .checked_add(1)
            .ok_or_else(|| corrupt("grid out of range"))?;
        let (shard_start, shard_points): (usize, usize) = match json::field_opt(doc, "shard") {
            Some(shard) => {
                let shard = object(shard, "shard", &["start", "points"])?;
                (
                    int(shard, "start", "shard")?,
                    int(shard, "points", "shard")?,
                )
            }
            None => (0, grid_points),
        };
        let points = need(doc, "points", "checkpoint")?
            .items("points")
            .map_err(corrupt)?;
        let mut wins = Vec::with_capacity(points.len());
        for (i, point) in points.iter().enumerate() {
            let point = object(point, "point", &["k", "wins"])?;
            let k: usize = int(point, "k", "point")?;
            let expected = shard_start
                .checked_add(i)
                .ok_or_else(|| corrupt("point index out of range"))?;
            if k != expected {
                return Err(corrupt(if i == 0 {
                    format!("points must start at the shard start {shard_start}, found k = {k}")
                } else {
                    format!("points must be a contiguous run: expected k = {expected}, found {k}")
                }));
            }
            wins.push(int(point, "wins", "point")?);
        }
        let doc_crc = json::field_opt(doc, "crc")
            .map(|crc| crc.u64("crc"))
            .transpose()
            .map_err(corrupt)?;
        let parsed = SweepCheckpoint {
            rng_stream_version: int(doc, "rng_stream_version", "checkpoint")?,
            n: int(doc, "n", "checkpoint")?,
            delta,
            grid,
            trials: int(doc, "trials", "checkpoint")?,
            seed: int(doc, "seed", "checkpoint")?,
            shard_start,
            shard_points,
            wins,
        };
        if let Some(expected) = doc_crc {
            let found = parsed.checksum();
            if found != expected {
                return Err(corrupt(format!(
                    "checksum mismatch: document says {expected}, contents hash to {found}"
                )));
            }
        }
        parsed.validate_structure()?;
        Ok(parsed)
    }

    /// Reads and parses the checkpoint at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Io`] on read failure and
    /// [`SweepError::Corrupt`] as for [`SweepCheckpoint::parse`].
    pub fn load(path: &Path) -> Result<SweepCheckpoint, SweepError> {
        let text = std::fs::read_to_string(path)?;
        SweepCheckpoint::parse(&text)
    }

    /// Atomically persists the checkpoint: the document is written to
    /// a sibling temporary file and renamed over `path`, so a crash at
    /// any moment leaves either the previous checkpoint or this one —
    /// never a torn file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures as [`SweepError::Io`].
    pub fn write_atomic(&self, path: &Path) -> Result<(), SweepError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
        tmp_name.push(".tmp");
        let tmp: PathBuf = path.with_file_name(tmp_name);
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Checks that this (loaded) checkpoint describes the same sweep
    /// a caller requested.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Mismatch`] naming the first disagreeing
    /// field. `delta` is compared bit-exactly.
    pub fn validate_matches(&self, requested: &SweepCheckpoint) -> Result<(), SweepError> {
        let fields: [(&'static str, u64, u64); 8] = [
            (
                "rng_stream_version",
                u64::from(self.rng_stream_version),
                u64::from(requested.rng_stream_version),
            ),
            ("n", self.n as u64, requested.n as u64),
            ("delta", self.delta.to_bits(), requested.delta.to_bits()),
            ("grid", self.grid as u64, requested.grid as u64),
            ("trials", self.trials, requested.trials),
            ("seed", self.seed, requested.seed),
            (
                "shard_start",
                self.shard_start as u64,
                requested.shard_start as u64,
            ),
            (
                "shard_points",
                self.shard_points as u64,
                requested.shard_points as u64,
            ),
        ];
        for (field, found, expected) in fields {
            if found != expected {
                let (found, expected) = if field == "delta" {
                    (
                        format!("{:?}", self.delta),
                        format!("{:?}", requested.delta),
                    )
                } else {
                    (found.to_string(), expected.to_string())
                };
                return Err(SweepError::Mismatch {
                    field,
                    expected,
                    found,
                });
            }
        }
        Ok(())
    }

    /// Merges complete shard documents into the whole-grid checkpoint
    /// `requested` describes. The shards may arrive in any order but
    /// must tile the grid exactly — contiguous, non-overlapping, and
    /// jointly covering every point — and each must agree with
    /// `requested` on every sweep parameter. Because each shard's
    /// point `k` ran on the stream derived from `(seed, k)`, the
    /// merged document is byte-identical to the checkpoint a single
    /// uninterrupted process would have written.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Mismatch`] if a shard disagrees with
    /// `requested` on a sweep parameter, and [`SweepError::Corrupt`]
    /// if `requested` is not whole-grid, a shard is incomplete, or
    /// the shards overlap or leave a gap.
    pub fn merge_shards(
        requested: &SweepCheckpoint,
        shards: &[SweepCheckpoint],
    ) -> Result<SweepCheckpoint, SweepError> {
        if !requested.covers_whole_grid() {
            return Err(corrupt("merge target must cover the whole grid"));
        }
        let mut merged = requested.clone();
        merged.wins.clear();
        let mut sorted: Vec<&SweepCheckpoint> = shards.iter().collect();
        sorted.sort_by_key(|s| s.shard_start);
        for shard in sorted {
            let mut expect = merged.clone();
            expect.shard_start = shard.shard_start;
            expect.shard_points = shard.shard_points;
            shard.validate_matches(&expect)?;
            if !shard.is_complete() {
                return Err(corrupt(format!(
                    "shard at {} is incomplete: {} of {} points",
                    shard.shard_start,
                    shard.wins.len(),
                    shard.shard_points
                )));
            }
            if shard.shard_start != merged.wins.len() {
                return Err(corrupt(format!(
                    "shards do not tile the grid: expected a shard starting at {}, found {}",
                    merged.wins.len(),
                    shard.shard_start
                )));
            }
            merged.wins.extend_from_slice(&shard.wins);
        }
        if !merged.is_complete() {
            return Err(corrupt(format!(
                "shards cover only {} of {} grid points",
                merged.wins.len(),
                merged.shard_points
            )));
        }
        Ok(merged)
    }

    /// Range/consistency checks shared by [`SweepCheckpoint::parse`]
    /// and [`ShardSweep::open`](crate::ShardSweep::open).
    pub(crate) fn validate_structure(&self) -> Result<(), SweepError> {
        if self.n < 2 {
            return Err(corrupt("n must be at least 2"));
        }
        if self.grid < 2 {
            return Err(corrupt("grid must be at least 2"));
        }
        let Some(grid_points) = self.grid.checked_add(1) else {
            return Err(corrupt("grid out of range"));
        };
        if self.trials == 0 {
            return Err(corrupt("trials must be positive"));
        }
        if !self.delta.is_finite() {
            return Err(corrupt("delta must be finite"));
        }
        if self.shard_points == 0 {
            return Err(corrupt("a shard must cover at least one point"));
        }
        if self
            .shard_start
            .checked_add(self.shard_points)
            .is_none_or(|end| end > grid_points)
        {
            return Err(corrupt("shard extends past the end of the grid"));
        }
        if self.wins.len() > self.shard_points {
            return Err(corrupt("more points than the shard holds"));
        }
        if self.wins.iter().any(|&w| w > self.trials) {
            return Err(corrupt("a point has more wins than trials"));
        }
        Ok(())
    }
}

/// Shorthand for a [`SweepError::Corrupt`].
fn corrupt(message: impl Into<String>) -> SweepError {
    SweepError::Corrupt {
        message: message.into(),
    }
}

/// FNV-1a 64-bit over `bytes` — the checkpoint checksum primitive.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The fields of the object `value`, rejecting any key outside
/// `allowed`; `what` names the object in errors.
fn object<'f, 'a>(
    value: &'f Json<'a>,
    what: &str,
    allowed: &[&str],
) -> Result<&'f [Field<'a>], SweepError> {
    let fields = value.fields(what).map_err(corrupt)?;
    match fields
        .iter()
        .find(|(key, _)| !allowed.contains(&key.as_ref()))
    {
        Some((key, _)) => Err(corrupt(format!("unknown {what} field \"{key}\""))),
        None => Ok(fields),
    }
}

/// The required field `key` of the object `within`.
fn need<'f, 'a>(
    fields: &'f [Field<'a>],
    key: &str,
    within: &str,
) -> Result<&'f Json<'a>, SweepError> {
    json::field(fields, key, within).map_err(corrupt)
}

/// The required non-negative integer field `key`, in `T`'s range.
fn int<T: TryFrom<u64>>(fields: &[Field<'_>], key: &str, within: &str) -> Result<T, SweepError> {
    let value = need(fields, key, within)?.u64(key).map_err(corrupt)?;
    T::try_from(value).map_err(|_| corrupt(format!("{key} out of range")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepCheckpoint {
        let mut ckpt = SweepCheckpoint::new(3, 1.0, 8, 60_000, 11);
        ckpt.wins = vec![31_578, 32_001, 29_970];
        ckpt
    }

    #[test]
    fn json_round_trips_bit_exactly() {
        let ckpt = sample();
        let parsed = SweepCheckpoint::parse(&ckpt.to_json()).unwrap();
        assert_eq!(parsed, ckpt);
    }

    #[test]
    fn awkward_deltas_round_trip() {
        for delta in [0.1, 1.0 / 3.0, 2.5e-7, 4.0, f64::MIN_POSITIVE] {
            let ckpt = SweepCheckpoint::new(2, delta, 4, 100, 0);
            let parsed = SweepCheckpoint::parse(&ckpt.to_json()).unwrap();
            assert_eq!(parsed.delta.to_bits(), delta.to_bits(), "delta {delta:?}");
        }
    }

    #[test]
    fn empty_points_round_trip() {
        let ckpt = SweepCheckpoint::new(2, 1.0, 4, 100, 0);
        let parsed = SweepCheckpoint::parse(&ckpt.to_json()).unwrap();
        assert_eq!(parsed, ckpt);
        assert!(!parsed.is_complete());
    }

    #[test]
    fn points_rebuild_reports_from_counts() {
        let ckpt = sample();
        let points = ckpt.points();
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].x, 0.0);
        assert_eq!(points[1].report.wins, 32_001);
        assert_eq!(points[1].report.trials, 60_000);
        assert_eq!(
            points[2].report,
            SimulationReport::from_counts(29_970, 60_000)
        );
    }

    #[test]
    fn corrupt_documents_are_rejected() {
        let cases: &[(&str, &str)] = &[
            ("", "empty"),
            ("{}", "missing fields"),
            ("not json", "not JSON"),
            ("{\"schema\": \"other/v9\"}", "wrong schema"),
        ];
        for (text, label) in cases {
            assert!(
                matches!(
                    SweepCheckpoint::parse(text),
                    Err(SweepError::Corrupt { .. })
                ),
                "{label} must be rejected"
            );
        }
        // Torn-prefix shapes a non-atomic writer could have produced.
        let full = sample().to_json();
        for cut in [full.len() / 4, full.len() / 2, full.len() - 2] {
            assert!(
                SweepCheckpoint::parse(&full[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn out_of_range_values_are_rejected() {
        let mut over = sample();
        over.wins[1] = over.trials + 1;
        assert!(SweepCheckpoint::parse(&over.to_json()).is_err());

        let mut too_many = sample();
        too_many.wins = vec![0; too_many.grid + 2];
        assert!(SweepCheckpoint::parse(&too_many.to_json()).is_err());

        let gap = sample().to_json().replace("{\"k\": 1,", "{\"k\": 5,");
        assert!(SweepCheckpoint::parse(&gap).is_err(), "gapped k rejected");
    }

    #[test]
    fn mismatches_name_the_field() {
        let stored = sample();
        let mut requested = SweepCheckpoint::new(3, 1.0, 8, 60_000, 11);
        assert!(stored.validate_matches(&requested).is_ok());
        requested.seed = 12;
        let err = stored.validate_matches(&requested).unwrap_err();
        assert!(matches!(err, SweepError::Mismatch { field: "seed", .. }));
        let mut requested = SweepCheckpoint::new(3, 0.5, 8, 60_000, 11);
        requested.wins.clear();
        let err = stored.validate_matches(&requested).unwrap_err();
        assert!(matches!(err, SweepError::Mismatch { field: "delta", .. }));
    }

    #[test]
    fn shard_documents_round_trip_and_cover_their_slice() {
        let mut ckpt = SweepCheckpoint::shard(3, 1.0, 8, 60_000, 11, 3, 4);
        assert!(!ckpt.covers_whole_grid());
        ckpt.wins = vec![100, 200];
        let json = ckpt.to_json();
        assert!(json.contains("\"shard\": {\"start\": 3, \"points\": 4}"));
        assert!(json.contains("{\"k\": 3,"), "points carry global indices");
        let parsed = SweepCheckpoint::parse(&json).unwrap();
        assert_eq!(parsed, ckpt);
        assert!(!parsed.is_complete());
        // Shard points sit at the same grid positions the whole sweep
        // would have put them.
        let points = parsed.points();
        assert_eq!(points[0].x, 3.0 / 8.0);
        assert_eq!(points[1].x, 0.5);
        ckpt.wins.extend([300, 400]);
        let full = SweepCheckpoint::parse(&ckpt.to_json()).unwrap();
        assert!(full.is_complete());
    }

    #[test]
    fn whole_grid_documents_omit_the_shard_field() {
        let json = sample().to_json();
        assert!(!json.contains("\"shard\""));
        let parsed = SweepCheckpoint::parse(&json).unwrap();
        assert!(parsed.covers_whole_grid());
        assert_eq!(parsed.shard_start, 0);
        assert_eq!(parsed.shard_points, 9);
    }

    #[test]
    fn shard_bounds_are_validated() {
        // A shard running past the grid end.
        let over = SweepCheckpoint::shard(3, 1.0, 8, 60_000, 11, 6, 4);
        let err = SweepCheckpoint::parse(&over.to_json()).unwrap_err();
        assert!(err.to_string().contains("past the end"), "{err}");
        // An empty shard.
        let empty = SweepCheckpoint::shard(3, 1.0, 8, 60_000, 11, 2, 0);
        assert!(SweepCheckpoint::parse(&empty.to_json()).is_err());
        // Points not anchored at the shard start.
        let mut off = SweepCheckpoint::shard(3, 1.0, 8, 60_000, 11, 3, 4);
        off.wins = vec![5];
        let moved = off.to_json().replace("{\"k\": 3,", "{\"k\": 4,");
        let err = SweepCheckpoint::parse(&moved).unwrap_err();
        assert!(err.to_string().contains("shard start"), "{err}");
        // A grid with no representable point count.
        let huge = SweepCheckpoint::new(3, 1.0, usize::MAX, 60_000, 11);
        assert!(!huge.covers_whole_grid());
        let err = huge.validate_structure().unwrap_err();
        assert!(err.to_string().contains("grid out of range"), "{err}");
        let err = SweepCheckpoint::shard(3, 1.0, usize::MAX, 60_000, 11, 0, 1)
            .validate_structure()
            .unwrap_err();
        assert!(err.to_string().contains("grid out of range"), "{err}");
    }

    #[test]
    fn bit_flips_in_valid_digits_are_caught_by_the_checksum() {
        let json = sample().to_json();
        // Each mangled twin still parses structurally — only the crc
        // re-verification can tell it from the original.
        for (from, to) in [
            ("\"wins\": 31578", "\"wins\": 31570"),
            ("\"seed\": 11", "\"seed\": 10"),
            ("\"trials\": 60000", "\"trials\": 60001"),
        ] {
            let mangled = json.replace(from, to);
            assert_ne!(mangled, json, "{from} must appear in the document");
            let err = SweepCheckpoint::parse(&mangled).unwrap_err();
            assert!(
                err.to_string().contains("checksum mismatch"),
                "{from}: {err}"
            );
        }
    }

    #[test]
    fn crc_less_legacy_documents_still_parse() {
        let ckpt = sample();
        let json = ckpt.to_json();
        let crc_line = json
            .lines()
            .find(|l| l.contains("\"crc\""))
            .expect("crc line");
        let legacy = json.replace(&format!("{crc_line}\n"), "");
        assert!(!legacy.contains("\"crc\""));
        assert_eq!(SweepCheckpoint::parse(&legacy).unwrap(), ckpt);
    }

    /// Cuts `whole` into complete shard documents at the given point
    /// counts.
    fn cut(whole: &SweepCheckpoint, sizes: &[usize]) -> Vec<SweepCheckpoint> {
        let mut start = 0;
        sizes
            .iter()
            .map(|&size| {
                let mut shard = SweepCheckpoint::shard(
                    whole.n,
                    whole.delta,
                    whole.grid,
                    whole.trials,
                    whole.seed,
                    start,
                    size,
                );
                shard.wins = whole.wins[start..start + size].to_vec();
                start += size;
                shard
            })
            .collect()
    }

    #[test]
    fn merged_shards_rebuild_the_whole_document_byte_for_byte() {
        let mut whole = SweepCheckpoint::new(3, 1.0, 8, 60_000, 11);
        whole.wins = (0..9).map(|i| 30_000 + i).collect();
        for sizes in [vec![9], vec![4, 5], vec![3, 3, 3], vec![1; 9]] {
            let mut shards = cut(&whole, &sizes);
            shards.reverse(); // order must not matter
            let requested = SweepCheckpoint::new(3, 1.0, 8, 60_000, 11);
            let merged = SweepCheckpoint::merge_shards(&requested, &shards).unwrap();
            assert_eq!(merged, whole, "sizes {sizes:?}");
            assert_eq!(merged.to_json(), whole.to_json(), "sizes {sizes:?}");
        }
    }

    #[test]
    fn merge_rejects_gaps_overlaps_and_incomplete_shards() {
        let mut whole = SweepCheckpoint::new(3, 1.0, 8, 60_000, 11);
        whole.wins = (0..9).map(|i| 30_000 + i).collect();
        let requested = SweepCheckpoint::new(3, 1.0, 8, 60_000, 11);

        let mut gap = cut(&whole, &[4, 5]);
        gap.remove(1);
        let err = SweepCheckpoint::merge_shards(&requested, &gap).unwrap_err();
        assert!(err.to_string().contains("cover only"), "{err}");

        let full = cut(&whole, &[9]);
        let mut overlap = cut(&whole, &[4, 5]);
        overlap.push(full[0].clone());
        assert!(SweepCheckpoint::merge_shards(&requested, &overlap).is_err());

        let mut incomplete = cut(&whole, &[4, 5]);
        incomplete[1].wins.pop();
        let err = SweepCheckpoint::merge_shards(&requested, &incomplete).unwrap_err();
        assert!(err.to_string().contains("incomplete"), "{err}");

        // A shard from a different sweep names the disagreeing field.
        let mut foreign = cut(&whole, &[4, 5]);
        foreign[0].seed = 12;
        let err = SweepCheckpoint::merge_shards(&requested, &foreign).unwrap_err();
        assert!(matches!(err, SweepError::Mismatch { field: "seed", .. }));
    }

    #[test]
    fn shard_mismatches_name_the_field() {
        let stored = SweepCheckpoint::shard(3, 1.0, 8, 60_000, 11, 3, 4);
        let mut requested = SweepCheckpoint::shard(3, 1.0, 8, 60_000, 11, 0, 4);
        let err = stored.validate_matches(&requested).unwrap_err();
        assert!(matches!(
            err,
            SweepError::Mismatch {
                field: "shard_start",
                ..
            }
        ));
        requested.shard_start = 3;
        requested.shard_points = 5;
        let err = stored.validate_matches(&requested).unwrap_err();
        assert!(matches!(
            err,
            SweepError::Mismatch {
                field: "shard_points",
                ..
            }
        ));
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("nocomm-sweep-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let mut ckpt = sample();
        ckpt.write_atomic(&path).unwrap();
        assert_eq!(SweepCheckpoint::load(&path).unwrap(), ckpt);
        ckpt.wins.push(30_000);
        ckpt.write_atomic(&path).unwrap();
        assert_eq!(SweepCheckpoint::load(&path).unwrap(), ckpt);
        assert!(
            !dir.join("ckpt.json.tmp").exists(),
            "temporary file must be renamed away"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
