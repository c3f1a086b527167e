#!/usr/bin/env bash
# Tier-1 verification: the whole workspace must build and test fully
# offline — no registry packages, no network. `--offline` makes cargo
# fail loudly if anything tries to leave the tree (every dependency is
# an in-tree path dep on a workspace crate; see crates/support and
# tests/tests/hermetic.rs).
#
#   scripts/verify.sh          # full: release build + bins, tests, smoke
#   scripts/verify.sh --fast   # debug build + tests + filter lint only
#                              # (skips the release binaries and smoke
#                              # runs; used by the quick CI job)
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
    case "$arg" in
    --fast) FAST=1 ;;
    *)
        echo "usage: scripts/verify.sh [--fast]" >&2
        exit 2
        ;;
    esac
done

if [ "$FAST" = 1 ]; then
    cargo build --offline
    cargo test -q --offline
    # Filter-corpus lint stays in the fast path: a filter that stops
    # compiling (or turns unsatisfiable) should fail the quick job too.
    cargo run --offline -q -p retina-filter --bin retina-flint -- \
        --json scripts/filters.flt
    exit 0
fi

# One per-packet loop, one delivery fabric: the packet filter and the
# conn tracker are called from crates/core/src/pipeline.rs only, dispatch
# accounting lives in executor.rs only, the fabric is staged at one site
# (a source scan; see the script).
scripts/check_one_loop.sh

cargo build --release --offline
# All bench/figure binaries must keep building, not just the libraries.
cargo build --release --offline --bins
cargo test -q --offline

# Governor storm: injects a worker-core slowdown (retina-chaos) and
# asserts the closed-loop overload governor sheds (sink fraction rises,
# loss stays below the ungoverned baseline) and restores full fidelity
# within a bounded number of monitor intervals. Exits non-zero on
# violation.
cargo run --release --offline -q -p retina-bench --bin governor_storm -- --quick

# Filter-corpus lint: the semantic analyzer must find no E-code
# diagnostics in any filter the benches and examples rely on.
cargo run --release --offline -q -p retina-filter --bin retina-flint -- \
    --json scripts/filters.flt

# Churn storm, full size: the indexed / arena-backed conn table must
# sustain >= 1M concurrent flows under the scan-heavy mix with exact
# accounting (created == discarded + terminated + expired + drained), a
# schedule-independent stepped digest, and an arena that reuses freed
# slots (at most 2 x peak x (slot + index entry) bytes). Exits non-zero
# on any violation. (~20 s: generates and replays two waves of ~2M
# packets; the quick variant runs in the CI `smoke` stage.)
cargo run --release --offline -q -p retina-bench --bin churn_storm

# Repo benchmark self-test: benchmark/ is a package outside the
# workspace, so nothing above builds it. Its unit tests run every
# workload at reduced traffic, check that each contract metric is
# emitted exactly once, and hold BENCHMARK.json equal to spec.rs.
# (~1 s after the build; it times nothing.)
bash benchmark/run.sh --self-test
