#!/usr/bin/env sh
# The full local gate: the steps of .github/workflows/ci.yml, in its
# order:
#   fmt -> static analyzer -> clippy -> rustdoc -> examples build -> tests
#   -> doc-tests -> tests with hard invariants -> benchmark-harness tests
#   -> bench smoke -> bench check
#   -> metrics smoke -> chaos smoke -> shard smoke -> service smoke
#   -> figures pin -> table check -> analyze smoke (runtime budget).
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo xtask analyze"
cargo run --package xtask --quiet -- analyze

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (rustdoc warnings are errors)"
# Broken or private intra-doc links fail here rather than rendering
# as dead text.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build (examples)"
cargo build --workspace --examples

echo "==> cargo test (workspace)"
cargo test --quiet --workspace

echo "==> cargo test (doc-tests)"
cargo test --quiet --workspace --doc

echo "==> cargo test (checked invariants)"
cargo test --quiet --workspace --features checked-invariants

echo "==> cargo test (benchmark harness)"
# perfbench/ is a workspace of its own, so the workspace run above
# does not build it. Its tests are the only check that the benchmark
# still compiles against the library APIs it imports.
cargo test --manifest-path perfbench/Cargo.toml

echo "==> bench smoke (simulator_throughput)"
# One short iteration: keeps the bench code and its JSON emission
# compiling and running without paying for a full measurement.
cargo bench --package bench --bench simulator_throughput -- --smoke

echo "==> bench check (speedup regression gate)"
# A short paired measurement to a scratch path, gated against the
# committed reference: every committed row must be present and within
# the tolerance band (fresh >= committed - max(0.25 x committed, 0.15)).
cargo bench --package bench --bench simulator_throughput -- --quick
cargo run --package xtask --quiet -- bench-check \
    "${TMPDIR:-/tmp}/BENCH_simulator_throughput.quick.json" \
    results/BENCH_simulator_throughput.json

echo "==> metrics smoke (engine_metrics + metrics-check)"
# Exercises the observability path end to end: the example runs a
# metered workload (its internal draw-conservation assert must hold),
# then the exported JSON must satisfy the engine-metrics/v1 checker.
metrics_out="${TMPDIR:-/tmp}/engine_metrics.ci.json"
cargo run --release --quiet --example engine_metrics -- --out "$metrics_out"
cargo run --package xtask --quiet -- metrics-check "$metrics_out"
rm -f "$metrics_out"

echo "==> chaos smoke (chaos_smoke + chaos-check)"
# Thread-level fault tolerance end to end: a seeded fault schedule
# (worker deaths, failed batches) must leave the results bit-identical
# and the recovery ledger nonzero. The fresh report and the committed
# artifact must both satisfy the chaos-smoke checker.
chaos_out="${TMPDIR:-/tmp}/chaos_smoke.ci.json"
cargo run --release --quiet --example chaos_smoke -- --out "$chaos_out"
cargo run --package xtask --quiet -- chaos-check "$chaos_out"
cargo run --package xtask --quiet -- chaos-check results/chaos_smoke.json
rm -f "$chaos_out"

echo "==> shard smoke (nocomm-shard + shard-check)"
# Proves crash-surviving orchestration end to end: a fault-free and a
# chaos-injected (kill + stall + corrupt) multi-process sweep must
# both merge byte-identically to the single-process baseline, and the
# shard-smoke/v1 report must satisfy the checker — as must the
# committed artifact. The build is paid untimed; the smoke itself
# must finish within 10s.
cargo build --release --quiet --package orchestrator --bin nocomm-shard
shard_out="${TMPDIR:-/tmp}/shard_smoke.ci.json"
start=$(date +%s)
cargo run --release --quiet --package orchestrator --bin nocomm-shard -- --smoke --out "$shard_out"
elapsed=$(( $(date +%s) - start ))
echo "shard smoke: ${elapsed}s"
if [ "$elapsed" -ge 10 ]; then
    echo "shard smoke: exceeded the 10s runtime budget" >&2
    exit 1
fi
cargo run --package xtask --quiet -- shard-check "$shard_out"
cargo run --package xtask --quiet -- shard-check results/shard_smoke.json
rm -f "$shard_out"

echo "==> service smoke (daemon round trip)"
# Starts the query daemon on an ephemeral port and round-trips one
# query of each kind (pwin, optimal, sweep, threshold, simulate,
# shutdown), checking answers against direct library calls. The build
# is paid untimed; the smoke itself must finish within 5s.
cargo build --release --quiet --bin nocomm-service
start=$(date +%s)
cargo run --release --quiet --bin nocomm-service -- --smoke
elapsed=$(( $(date +%s) - start ))
echo "service smoke: ${elapsed}s"
if [ "$elapsed" -ge 5 ]; then
    echo "service smoke: exceeded the 5s runtime budget" >&2
    exit 1
fi

echo "==> figures pin (committed figure CSVs)"
# Figures 1 and 2 are sampled from the exact piecewise polynomials,
# so regenerating them must reproduce the committed CSVs byte for
# byte; any drift fails here.
cargo run --release --quiet --package bench --bin figures -- fig1
cargo run --release --quiet --package bench --bin figures -- fig2
git diff --exit-code -- results/figure1.csv results/figure2.csv

echo "==> table check (certified threshold table)"
# Validates the committed certified-threshold artifact — schema,
# contiguity, enclosure widths — and spot-checks rows against a fresh
# derivative sign test. The build is paid untimed; the check itself
# must finish within 5s.
cargo build --release --quiet --package xtask
start=$(date +%s)
cargo run --release --quiet --package xtask -- table-check
elapsed=$(( $(date +%s) - start ))
echo "table check: ${elapsed}s"
if [ "$elapsed" -ge 5 ]; then
    echo "table check: exceeded the 5s runtime budget" >&2
    exit 1
fi

echo "==> analyze smoke (runtime budget)"
# The analyzer must stay cheap enough to run on every push: a second
# invocation (binary already built above) has to finish within 5s.
start=$(date +%s)
cargo run --package xtask --quiet -- analyze
elapsed=$(( $(date +%s) - start ))
echo "analyze smoke: ${elapsed}s"
if [ "$elapsed" -ge 5 ]; then
    echo "analyze smoke: exceeded the 5s runtime budget" >&2
    exit 1
fi

echo "ci: all gates passed"
