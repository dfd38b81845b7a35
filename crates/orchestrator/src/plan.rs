//! Shard planning: cutting a sweep grid into contiguous slices.

/// One contiguous slice of a sweep grid, assigned to one worker
/// process at a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Shard index, `0..shards`.
    pub index: usize,
    /// First grid point the shard covers.
    pub start: usize,
    /// Number of grid points the shard covers (at least one).
    pub points: usize,
}

/// Splits the `grid + 1` points of a sweep into `shards` contiguous
/// slices whose sizes differ by at most one (the earlier shards take
/// the remainder). The slices tile the grid exactly: starts are
/// increasing, adjacent, and jointly cover `0..=grid`.
///
/// # Panics
///
/// Panics if `shards` is zero or exceeds `grid + 1` (every shard must
/// cover at least one point);
/// [`run_sweep_with_metrics`](crate::run_sweep_with_metrics) rejects
/// such configurations with a typed error before planning.
#[must_use]
pub fn split_grid(grid: usize, shards: usize) -> Vec<ShardSpec> {
    let total = grid + 1;
    assert!(
        shards >= 1 && shards <= total,
        "shards must be in 1..={total}"
    ); // xtask:allow(no-panic): documented precondition
    let base = total / shards;
    let extra = total % shards;
    let mut start = 0;
    (0..shards)
        .map(|index| {
            let points = base + usize::from(index < extra);
            let spec = ShardSpec {
                index,
                start,
                points,
            };
            start += points;
            spec
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_tile_the_grid_exactly() {
        for grid in [2usize, 5, 16, 63, 100] {
            for shards in 1..=(grid + 1).min(9) {
                let plan = split_grid(grid, shards);
                assert_eq!(plan.len(), shards);
                let mut next = 0;
                for (i, spec) in plan.iter().enumerate() {
                    assert_eq!(spec.index, i);
                    assert_eq!(spec.start, next, "grid {grid} shards {shards}");
                    assert!(spec.points >= 1);
                    next += spec.points;
                }
                assert_eq!(next, grid + 1, "grid {grid} shards {shards}");
            }
        }
    }

    #[test]
    fn sizes_differ_by_at_most_one() {
        for (grid, shards) in [(16usize, 3usize), (10, 4), (100, 7)] {
            let plan = split_grid(grid, shards);
            let min = plan.iter().map(|s| s.points).min().unwrap();
            let max = plan.iter().map(|s| s.points).max().unwrap();
            assert!(max - min <= 1, "grid {grid} shards {shards}");
        }
    }

    #[test]
    fn one_shard_takes_everything() {
        let plan = split_grid(8, 1);
        assert_eq!(
            plan,
            vec![ShardSpec {
                index: 0,
                start: 0,
                points: 9
            }]
        );
    }

    #[test]
    #[should_panic(expected = "shards must be in")]
    fn zero_shards_panic() {
        let _ = split_grid(4, 0);
    }
}
