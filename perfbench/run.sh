#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload <closed-wide|open-deep|service> \
#       --seed N --seconds S --trace <0|1>
#
# Run from the repository root. The build goes to $CARGO_TARGET_DIR
# (default .bench_build); WAL segments and checkpoints go to
# .bench_scratch/ and are removed when the run ends. The last line of
# standard output is the JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2

bin=perfbench
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin=perfbench-traced
    fi
    prev="$arg"
done
exec "$CARGO_TARGET_DIR/release/$bin" "$@"
