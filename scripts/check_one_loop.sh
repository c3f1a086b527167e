#!/usr/bin/env bash
# The per-packet loop lives in one place: crates/core/src/pipeline.rs
# (`CorePipeline`). This guard fails if the two calls that make up the
# loop's spine — the software packet filter (`.packet_filter_set(`) and
# the connection tracker (`tracker.process(` / `.process(&mbuf`) — show
# up in non-test code of any other file under crates/core/src, or in
# any figure/bench binary under crates/bench/src/bin, so a second copy
# of the loop cannot grow back unnoticed.
#
# One call is allowed by name: `ConnTracker::rebind` in tracker.rs
# replays a synthetic first packet through the new filter once per live
# connection per swap — not a per-packet path.
#
# A textual audit: "non-test" is everything above a file's first
# `#[cfg(test)]` line; comment lines are ignored. Run as the `one-loop`
# stage of scripts/ci.sh.
set -euo pipefail

cd "$(dirname "$0")/.."

# Prints `file:line:text` for every non-test, non-comment line of $1.
code_lines() {
    awk '/^#\[cfg\(test\)\]/ { exit }
         $0 !~ /^[[:space:]]*\/\// { printf "%s:%d:%s\n", FILENAME, FNR, $0 }' "$1"
}

fail=0
for file in $(find crates/core/src crates/bench/src/bin -name '*.rs' | sort); do
    [ "$file" = crates/core/src/pipeline.rs ] && continue
    hits=$(code_lines "$file" |
        grep -E '\.packet_filter_set\(|tracker\.process\(|\.process\(&mbuf' || true)
    if [ "$file" = crates/core/src/tracker.rs ]; then
        replay=$(printf '%s\n' "$hits" | grep -c '\.packet_filter_set(' || true)
        if [ "$replay" -le 1 ]; then
            hits=$(printf '%s\n' "$hits" | grep -v '\.packet_filter_set(' || true)
        fi
    fi
    if [ -n "$hits" ]; then
        echo "per-packet loop outside crates/core/src/pipeline.rs:" >&2
        printf '%s\n' "$hits" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "one-loop guard FAILED: drive CorePipeline instead of re-writing its loop" >&2
    exit 1
fi
echo "one-loop guard OK: packet filter and tracker are called from pipeline.rs only"
