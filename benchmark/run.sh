#!/usr/bin/env bash
# The repo benchmark's one command. Builds the benchmark crate (release,
# offline, nothing fetched) and runs it from the repo root.
#
#   benchmark/run.sh [--seed N] [--seconds S]   every workload, both passes
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                               one workload, one pass (the
#                                               benchmark driver's interface)
#   benchmark/run.sh --repeat-check [--seed N]  whole set twice, compared
#   benchmark/run.sh --print-contract           BENCHMARK.json, from spec.rs
#   benchmark/run.sh --self-test                the crate's unit tests
#
# Artefacts go to $CARGO_TARGET_DIR when set, else to the root workspace's
# own target/ so the dependency builds are shared with it.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

if [ "${1:-}" = "--self-test" ]; then
    exec cargo test --release --offline --manifest-path benchmark/Cargo.toml
fi

# Keep freed memory in the process instead of handing it back to the
# kernel between repetitions: a monitor that runs for days reuses its
# heap, and on this VM re-faulting ~100 MB per repetition was both the
# largest and the noisiest part of the scan workload's time (sys time
# 1.2 s -> 0.4 s per run; see README, noise floor).
export MALLOC_MMAP_MAX_=0 MALLOC_TRIM_THRESHOLD_=17179869184 MALLOC_TOP_PAD_=67108864

# cargo reports on stderr; stdout stays the benchmark's alone.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/retina-benchmark" "$@"
