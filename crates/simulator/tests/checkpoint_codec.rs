//! `sweep-checkpoint/v1` through the shared JSON parser: generated
//! checkpoints round-trip exactly, and every single-byte edit of a
//! valid document — replacement, deletion, insertion — either reads
//! back as the same checkpoint or is a typed `SweepError::Corrupt`.
//! The `crc` field is what turns a still-well-formed edit of a digit
//! into a rejection, so no edit can yield a *different* checkpoint.

use proptest::collection;
use proptest::prelude::*;
use proptest::TestCaseError;
use simulator::{SweepCheckpoint, SweepError};

/// Sweep parameters `(n, delta, grid, trials, seed)`.
type Params = (usize, f64, usize, u64, u64);

fn params() -> impl Strategy<Value = Params> {
    (
        (2usize..9, 0.05..4.0f64),
        (2usize..40, 1u64..1_000_000, any::<u64>()),
    )
        .prop_map(|((n, delta), (grid, trials, seed))| (n, delta, grid, trials, seed))
}

/// A checkpoint over `grid + 1` points, optionally cut to the shard
/// `[start, start + points)`, with `done` of its points completed.
fn checkpoint(
    (n, delta, grid, trials, seed): Params,
    shard: Option<(usize, usize)>,
    done: usize,
    wins: &[u64],
) -> SweepCheckpoint {
    let mut ckpt = match shard {
        Some((start, points)) => {
            let start = start % (grid + 1);
            let points = 1 + points % (grid + 1 - start);
            SweepCheckpoint::shard(n, delta, grid, trials, seed, start, points)
        }
        None => SweepCheckpoint::new(n, delta, grid, trials, seed),
    };
    let done = done % (ckpt.shard_points + 1);
    ckpt.wins = wins.iter().take(done).map(|w| w % (trials + 1)).collect();
    ckpt.wins.resize(done, trials);
    ckpt
}

/// What one edited document may read back as.
fn assert_equal_or_corrupt(edited: &[u8], original: &SweepCheckpoint) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(edited);
    match SweepCheckpoint::parse(&text) {
        Ok(parsed) => prop_assert_eq!(&parsed, original, "edited document: {}", text),
        Err(SweepError::Corrupt { .. }) => {}
        Err(other) => prop_assert!(false, "expected Corrupt, got {other}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn edited_checkpoints_read_back_equal_or_corrupt(
        params in params(),
        shard in (any::<bool>(), 0usize..64, 0usize..64),
        progress in (0usize..64, collection::vec(any::<u64>(), 0..41)),
        edit in (0u32..3, 0.0..1.0f64, any::<u8>()),
    ) {
        let shard = shard.0.then_some((shard.1, shard.2));
        let original = checkpoint(params, shard, progress.0, &progress.1);
        let text = original.to_json();
        prop_assert_eq!(&SweepCheckpoint::parse(&text).expect("writer output parses"), &original);

        let (kind, at, byte) = edit;
        let mut bytes = text.into_bytes();
        let i = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
        match kind {
            0 => bytes[i] = byte,
            1 => {
                bytes.remove(i);
            }
            _ => bytes.insert(i, byte),
        }
        assert_equal_or_corrupt(&bytes, &original)?;
    }

    #[test]
    fn truncated_checkpoints_are_corrupt(
        params in params(),
        done in 0usize..64,
        wins in collection::vec(any::<u64>(), 0..41),
        cut in 0.0..1.0f64,
    ) {
        let original = checkpoint(params, None, done, &wins);
        let text = original.to_json();
        let at = (cut * text.trim_end().len() as f64) as usize;
        prop_assert!(
            matches!(SweepCheckpoint::parse(&text[..at]), Err(SweepError::Corrupt { .. })),
            "cut at {} of {}",
            at,
            text.len()
        );
    }
}

#[test]
fn duplicated_keys_are_rejected() {
    let mut ckpt = SweepCheckpoint::shard(3, 1.0, 8, 60_000, 11, 2, 4);
    ckpt.wins = vec![31_578, 32_001];
    let text = ckpt.to_json();
    for (line, twice) in [
        ("\"seed\": 11,", "\"seed\": 11, \"seed\": 11,"),
        (
            "\"schema\": ",
            "\"schema\": \"sweep-checkpoint/v1\", \"schema\": ",
        ),
        ("{\"start\": 2,", "{\"start\": 2, \"start\": 2,"),
        ("{\"k\": 2,", "{\"k\": 2, \"k\": 2,"),
        ("\"wins\": 31578}", "\"wins\": 31578, \"wins\": 31578}"),
    ] {
        let doubled = text.replacen(line, twice, 1);
        assert_ne!(doubled, text, "{line} must appear in the document");
        let err = SweepCheckpoint::parse(&doubled).unwrap_err();
        let SweepError::Corrupt { message } = err else {
            panic!("{line}: expected Corrupt, got {err}");
        };
        assert!(message.contains("duplicate key"), "{line}: {message}");
    }
}

#[test]
fn unknown_fields_are_rejected_at_every_level() {
    let mut ckpt = SweepCheckpoint::shard(3, 1.0, 8, 60_000, 11, 2, 4);
    ckpt.wins = vec![31_578];
    let text = ckpt.to_json();
    for (from, to, named) in [
        (
            "\"seed\": 11,",
            "\"seed\": 11, \"extra\": 0,",
            "unknown checkpoint field",
        ),
        (
            "{\"start\": 2,",
            "{\"start\": 2, \"end\": 6,",
            "unknown shard field",
        ),
        (
            "{\"k\": 2,",
            "{\"k\": 2, \"x\": 0.5,",
            "unknown point field",
        ),
    ] {
        let err = SweepCheckpoint::parse(&text.replacen(from, to, 1)).unwrap_err();
        assert!(err.to_string().contains(named), "{from}: {err}");
    }
}

#[test]
fn integers_outside_their_field_range_are_rejected() {
    let text = SweepCheckpoint::new(3, 1.0, 8, 60_000, 11).to_json();
    let version = format!("\"rng_stream_version\": {},", simulator::RNG_STREAM_VERSION);
    for (from, to) in [
        (version.as_str(), "\"rng_stream_version\": 4294967296,"),
        ("\"grid\": 8,", "\"grid\": 18446744073709551615,"),
        ("\"trials\": 60000,", "\"trials\": 18446744073709551616,"),
        ("\"n\": 3,", "\"n\": -3,"),
        ("\"n\": 3,", "\"n\": 3.0,"),
    ] {
        let err = SweepCheckpoint::parse(&text.replacen(from, to, 1)).unwrap_err();
        assert!(matches!(err, SweepError::Corrupt { .. }), "{to}: {err}");
    }
    // A shard document does not need `grid + 1` to place its points,
    // but the grid still has to have that many.
    let shard = SweepCheckpoint::shard(3, 1.0, 8, 60_000, 11, 2, 4).to_json();
    let huge = shard.replacen("\"grid\": 8,", "\"grid\": 18446744073709551615,", 1);
    let err = SweepCheckpoint::parse(&huge).unwrap_err();
    assert!(err.to_string().contains("grid out of range"), "{err}");
}
