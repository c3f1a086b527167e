#!/usr/bin/env bash
# CI pipeline, split into named stages so a failure is attributable at
# a glance. Runs every requested stage even after one fails, then
# summarizes. Everything is offline — no network, no registry.
#
#   scripts/ci.sh                 # all stages, in order
#   scripts/ci.sh fmt clippy      # just these stages
#
# Stages:
#   fmt           cargo fmt --check (no diffs tolerated)
#   clippy        cargo clippy --offline --all-targets -- -D warnings
#   pedantic      curated clippy::pedantic subset, denied (see below)
#   safety        every unsafe site carries a // SAFETY: comment
#   one-loop      the packet filter and the conn tracker are called once
#                 each, from crates/core/src/pipeline.rs only (no second
#                 copy of the per-packet loop in core or in a figure
#                 binary, and no `on_packet(` / `ingest_frame(` beside the
#                 burst verb), and the delivery fabric behind it stays
#                 one: dispatch accounting in executor.rs only, one
#                 channel_dispatcher call site, one downcast (erased.rs's
#                 take_output, where every sink reads its subscription's
#                 output lane); and the RX core allocates only what it
#                 hands over: no boxed output (ErasedOutput, Box<dyn Any>)
#                 anywhere in core, no box in erased.rs's emitter, no
#                 boxed probe state in the tracker — each allocated once
#                 per datum or connection; and stream order stays the
#                 reassembler's and payload stays in its frame: no
#                 tracked type in subscribables.rs re-parses, re-sorts
#                 or copies what on_stream hands it, and the tracker
#                 copies payload at one site, the probe spill; and the
#                 Figure-4 machine stays one (its copies in a swap, at
#                 connection birth and at early removal each diverged
#                 into a bug): phases move in tracker/phase.rs only, a
#                 subscription's discard and a connection's discard are
#                 each charged at one site, and one exit function emits
#                 every connection's end tracepoint; and filters run on
#                 one engine: one non-test FilterFns impl (CompiledFilter)
#                 in crates/ and examples/, and no code generator
#                 (`mod codegen`, `codegen::`) in crates/filter or
#                 crates/filtergen; and parsers read in place: no
#                 `.to_vec()`, `drain(…).collect()` or
#                 `handshake.clone()` in non-test crates/protocols/src/
#                 {tls/mod.rs,http.rs,ssh.rs,dns.rs} — a record, head or
#                 line is read where it lies, only what a segment cuts is
#                 carried, and a finished handshake moves into its session;
#                 and a session-filter `~` runs as an automaton: no
#                 `Vec<char>`, `.chars().collect` or `dyn FnMut(usize)` in
#                 non-test crates/support/src/rematch.rs — a copy of the
#                 field per evaluation and the backtracker's continuations
#                 are the test oracle's only; and benchmark/ is the one
#                 source of performance numbers: no second harness's
#                 results flag, section merger, gate-key printer or BENCH
#                 results file under crates/, scripts/ or .github/; and
#                 the dispatch ring is written once: no `VirtualRing`,
#                 `RingTx`, `RingRx` or `StepQueue` in non-test
#                 crates/core/src, and one `spsc::ring` call site there;
#                 and the swap protocol and the RX core are written once:
#                 no `StepSwap`, one `.adopt(` and one `rows.install(`
#                 call site in non-test crates/core/src
#   lint-filters  retina-flint --json over scripts/filters.flt (the
#                 filters used by benches/examples); fails on E-codes
#   build         release build of every lib and binary
#   doc           cargo doc --offline --no-deps with warnings denied
#   test          cargo test -q --offline (whole workspace; includes
#                 tests/tests/alloc_per_conn.rs, which counts heap
#                 allocations per single-SYN connection, per probed and
#                 per delivered TLS handshake, per DNS probe and per
#                 session-filter regex evaluation, and
#                 bytes per ConnBytes segment, under its own per-thread
#                 counting global allocator — an allocation regression,
#                 or a payload copy, fails here — and
#                 crates/core/tests/burst_invariance.rs, which holds every
#                 digest, delivery and span tree identical across burst
#                 sizes 1..=32)
#   smoke         governor_storm + fig_multi + fig9 + churn_storm
#                 (--quick): the checks only a release-mode run can make
#                 (a threaded overload storm, a scan-churn table at
#                 scale), each an exit code; they print no gated number
#   benchmark     benchmark/run.sh --self-test: the repo benchmark's own
#                 unit tests (every contract metric emitted once per
#                 workload at reduced traffic, BENCHMARK.json == spec.rs)
set -uo pipefail
cd "$(dirname "$0")/.."

ALL_STAGES=(fmt clippy pedantic safety one-loop lint-filters build doc test smoke benchmark)
if [ "$#" -gt 0 ]; then STAGES=("$@"); else STAGES=("${ALL_STAGES[@]}"); fi

FAILED=()

run_stage() {
    local name="$1"
    shift
    echo
    echo "==> CI stage: ${name}"
    if "$@"; then
        echo "==> CI stage ${name}: OK"
    else
        echo "==> CI stage ${name}: FAILED"
        FAILED+=("$name")
    fi
}

stage_fmt() { cargo fmt --check; }

stage_clippy() { cargo clippy --offline --all-targets -- -D warnings; }

# Curated subset of clippy::pedantic, denied. Deliberately curated, not
# the whole group: documentation-volume lints (missing_panics_doc,
# missing_errors_doc) and pure-style churn (module_name_repetitions,
# uninlined_format_args) are excluded; correctness-adjacent and
# API-shape lints are enforced. cast_sign_loss and unused_self were
# evaluated and left out: both fire only on intentional patterns here
# (f64 statistics rounding; &self kept for API symmetry).
stage_pedantic() {
    cargo clippy --offline --workspace --all-targets -- \
        -D clippy::cast_possible_truncation \
        -D clippy::needless_pass_by_value \
        -D clippy::semicolon_if_nothing_returned \
        -D clippy::redundant_closure_for_method_calls \
        -D clippy::inefficient_to_string \
        -D clippy::map_unwrap_or \
        -D clippy::unnecessary_wraps \
        -D clippy::manual_let_else \
        -D clippy::explicit_iter_loop \
        -D clippy::cloned_instead_of_copied
}

stage_safety() { scripts/check_safety_comments.sh; }

stage_one_loop() { scripts/check_one_loop.sh; }

# Lint the filter corpus (every filter the benches, figure binaries and
# examples use) with the semantic analyzer. retina-flint exits non-zero
# on any E-code; warnings are printed but tolerated. --json so a CI
# consumer can archive the findings.
stage_lint_filters() {
    cargo run --release --offline -q -p retina-filter --bin retina-flint -- \
        --json scripts/filters.flt
}

stage_build() {
    cargo build --release --offline &&
        cargo build --release --offline --bins
}

stage_doc() { RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps; }

stage_test() { cargo test -q --offline; }

stage_smoke() {
    local bin
    for bin in governor_storm fig_multi fig9 churn_storm; do
        cargo run --release --offline -q -p retina-bench --bin "$bin" -- --quick || return 1
    done
}

# The repo benchmark (BENCHMARK.json, benchmark/) is a package of its
# own outside the workspace, so `cargo test` above never builds it: this
# stage keeps it compiling against the crates and its contract checks
# green. It measures nothing — timing runs stay a deliberate act.
stage_benchmark() { bash benchmark/run.sh --self-test; }

for stage in "${STAGES[@]}"; do
    case "$stage" in
    fmt) run_stage fmt stage_fmt ;;
    clippy) run_stage clippy stage_clippy ;;
    pedantic) run_stage pedantic stage_pedantic ;;
    safety) run_stage safety stage_safety ;;
    one-loop) run_stage one-loop stage_one_loop ;;
    lint-filters) run_stage lint-filters stage_lint_filters ;;
    build) run_stage build stage_build ;;
    doc) run_stage doc stage_doc ;;
    test) run_stage test stage_test ;;
    smoke) run_stage smoke stage_smoke ;;
    benchmark) run_stage benchmark stage_benchmark ;;
    *)
        echo "unknown CI stage: ${stage} (known: ${ALL_STAGES[*]})" >&2
        FAILED+=("$stage")
        ;;
    esac
done

echo
if [ "${#FAILED[@]}" -gt 0 ]; then
    echo "CI FAILED — stage(s): ${FAILED[*]}"
    exit 1
fi
echo "CI OK — stage(s): ${STAGES[*]}"
