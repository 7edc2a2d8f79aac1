#!/usr/bin/env bash
# Build the benchmark and the `pagerankvm` daemon from this checkout,
# then run one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Cargo writes to $CARGO_TARGET_DIR
# (default .bench_build); runtime files go to .bench_work. The last line
# of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates" ] || [ ! -f "$root/perfbench/Cargo.toml" ]; then
    echo "perfbench: run from the root of a PageRankVM checkout" >&2
    exit 2
fi
target=${CARGO_TARGET_DIR:-.bench_build}
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p prvm-cli --bin pagerankvm >&2

exec "$target/release/prvm-perfbench" \
    --daemon "$target/release/pagerankvm" \
    --work "$root/.bench_work" \
    "$@"
