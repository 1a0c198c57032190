#!/usr/bin/env bash
# The repo benchmark. Builds trial-serve and the harness, then:
#
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result JSON
#       (--trace 0: end-to-end metrics, --trace 1: per-layer metrics)
#   bench/run.sh [--seed N] [--seconds S] [--smoke]
#       every workload both ways, printed, and bench/out/results.json
#   bench/run.sh --selfcheck [--runs N] [--workload W] [--seconds S]
#       two sets of N runs on the same build; non-zero exit if a gated
#       metric's spread or shift exceeds its bound
#
# Run it from the repository root. See bench/README.md.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates/trial-server ]]; then
    echo "bench/run.sh: no repository beside bench/ to build trial-serve from" >&2
    exit 2
fi

# One target directory for both builds when the caller names one (a relative
# one is resolved against the root, wherever the script was called from);
# otherwise each workspace keeps its own default.
if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
    [[ "$CARGO_TARGET_DIR" = /* ]] || CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR"
    export CARGO_TARGET_DIR
    server_dir=$CARGO_TARGET_DIR
    harness_dir=$CARGO_TARGET_DIR
else
    server_dir=$root/target
    harness_dir=$root/bench/target
fi

cargo build --release --offline --quiet -p trial-server --bin trial-serve >&2
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml >&2

# The full suite and the self-check first prove the checker can fail.
case " $* " in
*" --workload "*) ;;
*) cargo test --release --offline --quiet --manifest-path bench/Cargo.toml >&2 ;;
esac

exec "$harness_dir/release/e2e" --server-bin "$server_dir/release/trial-serve" "$@"
