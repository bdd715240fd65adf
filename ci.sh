#!/usr/bin/env bash
# The full CI gate. Run locally before sending a change.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo xtask lint"
cargo xtask lint

echo "==> cargo xtask locklint"
cargo xtask locklint

echo "==> cargo xtask hotlint"
cargo xtask hotlint
cargo xtask hotlint --json > target/hotlint-trend.json
echo "    trend record: target/hotlint-trend.json"

echo "==> cargo xtask durlint"
cargo xtask durlint
cargo xtask durlint --json > target/durlint-trend.json
echo "    trend record: target/durlint-trend.json"

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> witness-enabled concurrency/persistence tests (release)"
cargo test -q --release -p ssj-serve --features lock-witness
cargo test -q --release -p ssj-store --features lock-witness

echo "==> fs-order witness persistence tests (release)"
cargo test -q --release -p ssj-store --features fs-witness
cargo test -q --release -p ssj-extern --features fs-witness
cargo test -q --release -p ssj-cluster --features fs-witness

echo "==> allocation witnesses (release: strict zero-alloc assertions)"
cargo test -q --release -p ssj-core --test alloc_witness
cargo test -q --release -p ssj-serve --test alloc_witness
cargo test -q --release -p ssj-extern --test alloc_witness
cargo test -q --release -p ssj-cluster --test alloc_witness

echo "==> perf baselines (quick benches + benchdiff)"
cargo build --release -q -p ssj-bench --bin join_bench --bin serve_bench
rm -f target/bench-current-join.json target/bench-current-serve.json
./target/release/join_bench --quick --bench-out target/bench-current-join.json
./target/release/serve_bench --quick --bench-out target/bench-current-serve.json
./target/release/serve_bench --quick --cluster 3 --bench-out target/bench-current-serve.json
cargo xtask benchdiff --join target/bench-current-join.json --serve target/bench-current-serve.json

echo "==> cargo xtask difftest --seeds 25"
cargo xtask difftest --seeds 25

echo "==> cargo xtask crashtest --seeds 10"
cargo xtask crashtest --seeds 10

echo "==> server smoke test"
scripts/serve_smoke.sh

echo "==> cluster smoke test (2-node scatter-gather router)"
scripts/cluster_smoke.sh

echo "==> out-of-core spill smoke test"
scripts/spill_smoke.sh

echo "==> benchmark self-test (every workload's oracle at tiny sizes, traced and untraced)"
python3 perfbench/run.py --self-test

echo "CI green."
