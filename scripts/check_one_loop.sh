#!/usr/bin/env bash
# The per-packet loop lives in one place: crates/core/src/pipeline.rs
# (`CorePipeline::on_burst`). This guard fails if the two calls that make
# up the loop's spine — the software packet filter
# (`.packet_filter_set(`) and the connection tracker (`tracker.process(`
# / `.process(&mbuf`) — show up in non-test code of any other file under
# crates/core/src, or in any figure/bench binary under
# crates/bench/src/bin, so a second copy of the loop cannot grow back
# unnoticed; if pipeline.rs itself calls either more than once (one
# stage-major loop, not two); or if anything outside pipeline.rs defines
# or calls the per-packet verbs the burst verb replaced (`on_packet(`,
# `ingest_frame(`), so a per-packet driver loop cannot grow back beside
# `on_burst`.
#
# One call is allowed by name: `first_verdict` in tracker/mod.rs puts a
# connection's first packet — rebuilt from its tuple and the facts it
# kept at insert — to the packet filter. Its three callers are not
# per-packet paths: a live swap's `replay` (once per undecided survivor
# per swap), the connection filter (once per identified connection) and
# the session filter (once per batch of sessions), which resume at that
# verdict's frontiers.
#
# The delivery fabric behind the pipeline's `Transport` lives in one
# place too, and the same scan guards it:
#
#   * the lane protocol's accounting — every `DispatchStats::note_*`
#     call — is in crates/core/src/executor.rs only (the stepped
#     harness calls executor's code, it does not re-type it);
#   * a threaded epoch's fabric is staged by one function:
#     `channel_dispatcher(` has exactly one non-test call site (it and
#     the stepped harness both build their sinks with `build_sinks`);
#   * a datum meets its type again at one site: every sink of every
#     driver takes it from its subscription's output lane through
#     erased.rs's `take_output`, the one non-test `.downcast::<` /
#     `.downcast_mut::<` in crates/core/src.
#
# The RX core allocates only what it hands over. A datum travels unboxed
# — in its subscription's output lane, then inline to the callback or
# through a ring made once for its type — and a connection's probe state
# and parser come from per-core pools. Each box this replaced allocated
# once per datum or per connection (on the scan workload, 524 of 528
# allocations per thousand packets), so none may come back:
#
#   * no `ErasedOutput` and no `Box<dyn Any` in non-test crates/core/src:
#     there is no boxed fallback for any driver or dispatch mode;
#   * no `Box::new(` in erased.rs's emitter (from `pub struct Emitter`
#     to `pub trait TrackedSlab`): `push` writes into the lane;
#   * no `Box<Probe` / `Box::new(Probe` under tracker/: probe state is
#     held in the phase, its prefix buffers in the core's slab;
#   * no `Vec<Session>` field in non-test crates/protocols/src, but the
#     buffer of a `StandaloneParser` (a parser driven outside a
#     pipeline): a parser appends what it completes to its caller's
#     buffer, one per core. A `Vec` drained per completed parse cost
#     every delivered session an allocation, and one kept per parser
#     added 44 % to the union workload's heap;
#   * no `.clone()` inside a `FromSession` impl in subscribables.rs: a
#     datum takes its session through `MatchedSession::into_owned`,
#     which moves it for the last subscriber and clones it only for an
#     earlier one.
#
# Stream order has one owner as well — the connection's
# `StreamReassembler` — and the tracked types take it as delivered
# (`Tracked::on_stream(dir, &Mbuf, range)`): non-test
# crates/core/src/subscribables.rs contains no `ParsedPacket::parse(`,
# no `tcp_seq(`, no `.to_vec()` and no `extend_from_slice(`. A tracked
# type that re-parses held frames and sorts them by sequence number is a
# second reassembler, and the last one lost data the canonical one keeps
# (raw-u32 ordering across a sequence wrap); a tracked type that appends
# payload to a buffer of its own is the receive buffer §5.2 removed — a
# stream is held as views into its frames (`StreamBytes`), and the flat
# copy is the subscriber's to make. For the same reason non-test
# crates/core/src/tracker/ has exactly one `extend_from_slice(`: the
# probe spill in phase.rs, which copies a prefix only when a record
# straddles segments (a first segment is probed where it lies in its
# frame).
#
# The Figure-4 machine is written once, too: crates/core/src/tracker/
# phase.rs's transition function decides every move, and its two
# executors are the only code that changes a connection's phase or
# charges its outcome. Each copy of that logic that grew elsewhere
# (a swap, connection birth, early removal) diverged from the original
# and had to be found by a bug. So:
#
#   * `set_phase(`, a `.phase =` assignment and a `&mut ….phase` borrow
#     appear in non-test tracker/phase.rs only: no second place moves a
#     connection between phases;
#   * `.discarded += ` (a subscription's discard) and `conns_discarded +=`
#     each appear at exactly one non-test site under tracker/: one
#     reason a discard is charged, never two sites to keep in step;
#   * `TraceKind::ConnExpire` is emitted at exactly one site there: the
#     one exit function, so all five ways out of the table (terminated,
#     expired, drained, completed early, swapped) leave an end
#     tracepoint.
#
# Filters are evaluated by one engine, too. `CompiledFilter` (the flat
# op program) is the only filter `crates/core` runs; a static code
# generator beside it ran nowhere on the measured path, and each second
# `FilterFns` implementation needed its own copy of every layer's
# semantics. So:
#
#   * non-test code under crates/ and examples/ has exactly one
#     `impl FilterFns for` (or `impl retina_filter::FilterFns for`);
#   * no `mod codegen` and no `codegen::` path anywhere in crates/filter
#     or crates/filtergen: the macros check filter text and build a
#     `CompiledFilter`, they do not generate code.
#
# Parsers read in place, one layer up from the probe. The TLS, HTTP, SSH,
# DNS and QUIC parsers (crates/protocols/src/{tls/mod.rs,http.rs,ssh.rs,
# dns.rs,quic.rs}) read records, heads, banner lines, names and long
# headers where they lie in the slice they are handed and carry only what
# a segment boundary cuts; a copy per record or per head was what the
# parser layer cost before (on the four-protocol campus workload, 69 of
# 192 allocations per thousand packets). So their non-test code has no
# `.to_vec()`, no `drain(…).collect()` (a head or line copied out of a
# buffer) and no `handshake.clone()` (a finished handshake moves into its
# session). Non-test quic.rs has no `format!(` either: its probe, run on
# every datagram of a connection a session-level subscription keeps
# undecided, once hex-encoded both connection IDs a `format!` per byte —
# 42 % of the allocations of the four-protocol campus workload.
#
# Monitoring is one feedback loop, and a run's records are the values
# their producers return. `Sampler::tick` in crates/core/src/monitor.rs
# is the one place that reads NIC and gauge state for a sample, and a
# threaded run calls it on its own thread (`observe`: each sampler when
# it is due, once more after the cores exit); the overload governor is a
# stage of that tick (its decision stream is the brain's own Vec, moved
# into `GovernorReport`), and a live swap's record is built once by
# `SwapController::swap` from the workers' pickup stamps. The governor
# once ran a second thread repeating the monitor's sleep-and-sample; the
# monitor then ran a thread of its own beside `run()`, and found the
# run's tracer through a lock-guarded slot (`TraceHandle`) that `run()`
# filled and cleared; the shared ledgers beside them had no reader.
# Now the run hands each sampler and each epoch its tracer. So:
#
#   * non-test crates/core/src/governor.rs has no `thread::spawn` and
#     no `thread::sleep`, and non-test crates/core/src/monitor.rs no
#     `thread::spawn`;
#   * non-test crates/core/src names no `TraceHandle` (as a whole word)
#     and keeps no `RwLock` holding an optional tracer;
#   * there is no crates/telemetry/src/events.rs and no `EventLog`
#     anywhere under crates/;
#   * non-test crates/core/src has no `Mutex<Vec<SwapEvent>>`.
#
# A subscription's counts live in one row for the whole run. A run keeps
# one row per subscription name it installed; every core tallies
# `delivered` and `discarded` by row, and both drivers count dispatch
# into the row's `DispatchStats`, so a swap only re-points slots at rows
# and cores merge by index addition. The counts once lived in three
# places — per-core `(name, tally)` pairs, per-epoch dispatch counters,
# and two retired ledgers a swap banked removed rows into — and the
# report merged them back by name with a sort, a dedup and a binary
# search; the lane protocol was generic over whether its counters were
# shared, owned or borrowed. So, in non-test crates/core/src:
#
#   * no `Vec<(String, SubTally)>` anywhere, and no `retired` ledger in
#     reconfig.rs or step.rs;
#   * no `dedup` in report.rs: rows are read off the table, not merged;
#   * no type parameter on executor.rs's `Lane`.
#
# A session filter's `~` runs as an automaton. `rematch::Regex` compiles
# each pattern once into a Glushkov automaton run over a bit vector of
# live positions, and a match reads the field once, where it lies. The backtracker it replaced copied the field into a
# `Vec<char>` on every evaluation (one RX-core allocation each) and
# recursed through `dyn FnMut(usize)` continuations, quadratic in a
# 64 KiB SNI and deep enough to overflow an RX thread's stack; it is the
# test oracle now. So non-test crates/support/src/rematch.rs has no
# `Vec<char>`, no `.chars().collect` and no `dyn FnMut(usize)`.
#
# Performance numbers have one source: benchmark/ (CPU clock, per
# layer, against BENCHMARK.json). A second harness once wrote its own
# results file from the figure and storm binaries and banded it against
# a committed baseline; every key it gated was a constant pass flag, a
# deterministic count or wall-clock noise. So nothing under crates/,
# .github/ or scripts/ names its pieces again: the JSON results flag,
# the section merger, the gate-key printer or a BENCH results file (the
# patterns below are spelled with brackets so this script does not
# match itself).
#
# Each monitoring fact has one shape. A run's live gauges are one fixed
# block of atomics per core in `RuntimeGauges` (crates/core/src/
# runtime.rs), a monitor sample is `retina_telemetry::Sample`, and a
# pipeline stage's counters are `retina_telemetry::StageSummary` from
# the core's tally to the exporters. Each once had a second shape that
# was copied into it field by field: a named-metric registry with one
# user and seven fixed metrics, a core-side sample type converted into
# the exporters' one, and a core-side stage type converted into the
# report's. So non-test code under crates/ names no `Registry`,
# `GaugeMerge`, `MonitorSample` or `StageStats` (as whole words, so the
# filter and parser registries pass) and calls no `to_sample(`.
#
# The dispatch ring is written once. Both drivers run their sinks over
# the `spsc` ring: executor.rs's `build_sinks` makes one core's sinks
# and rings for a threaded epoch and for the stepped harness alike, and
# the harness drains the rings itself, on its one thread. The harness
# once kept a ring of its own — a `VecDeque` plus its parked sends —
# with two ring traits, a third trait for the harness and two type
# aliases to join the two. So non-test crates/core/src names no
# `VirtualRing`, `RingTx`, `RingRx` or `StepQueue` (as whole words) and
# makes rings at exactly one `spsc::ring` call site (`Deliver::ring`).
#
# The swap protocol is written once, and so is the RX core. A swap is
# `EpochState`'s publish, grace predicate and retire (crates/core/src/
# reconfig.rs), and one turn of an RX core — epoch pickup, adoption,
# claim and acknowledgment, one burst, the timeout sweep, the final
# drain and exit — is `RxCore::turn` (runtime.rs), which the threaded
# core and the stepped harness both run. The harness once kept a copy of
# its own: a `StepSwap` adopted at a packet index by quiescing the
# harness's fabric and re-installing the row table, which never ran the
# publish, the ack slots, the grace period or the retire a threaded swap
# depends on. So non-test crates/core/src names no `StepSwap` (as a
# whole word), and has exactly one `.adopt(` call site and one
# `rows.install(` call site (the one in `stage_epoch`).
#
# Connection state costs what its live connections use, and one slab
# keeps all of it: crates/support/src/slab.rs, fixed chunks that never
# move, with its free list in the vacant entries. The connection arena,
# the flow store, the tracked-state slabs and the probe-prefix slab are
# each a `Slab`. The arena once kept one `Vec` of slots, doubled past
# the peak (a quarter of scan's 131 072 slots held nothing, and the
# doubling copied 29 MB mid-run), beside a `Vec<u32>` free list of its
# own; the tracked-state and prefix slabs kept that shape after the
# arena lost it (3.67 MB of scan's 28 MB heap peak in the `ConnRecord`
# slab alone), and the flow store kept a second hand-written in-slot
# list. So non-test crates/core/src and crates/conntrack/src have no
# `free: Vec<u32>` side list, no hand-written in-slot free list (a
# `Vacant(` entry or a `NIL` end mark) and no single relocating
# `slots: Vec<Slot<` store.
#
# Expiry has one rule. `CorePipeline::on_burst` sweeps idle connections
# right after every `SWEEP_EVERY`th frame it receives, parsed or not, and
# no driver decides when. The drivers once each kept a cadence of their
# own — the RX core every 64 bursts (`ADVANCE_EVERY_BURSTS`, counted in
# `since_advance`), offline every 1 024 parsed packets (`ADVANCE_EVERY`),
# fig8 every 10 simulated seconds — so which connections expired
# depended on the driver, on `rx_batch` and on how frames were cut into
# bursts. So non-test code under crates/*/src names no `ADVANCE_EVERY`
# and no `since_advance`, and crates/core/src/pipeline.rs has no public
# `fn advance` for a driver to call.
#
# Faults and monitoring speak one language in both drivers. A stepped
# run reads the timing faults of the fault hooks installed on its
# runtime's NIC (a `retina-chaos` `FaultPlan`) and holds the faulted
# actor for as many virtual steps as a threaded run sleeps, and it ticks
# the monitor and governor set for it on its virtual clock. The stepped
# harness once had a fault vocabulary of its own (`WorkerStall` windows
# of step numbers, set through `StepConfig::with_stall`, with a
# `chaos_fired` flag of its own for the flight recorder) and ignored the
# monitor, whose sampler read the wall clock itself. So non-test code
# under crates/*/src names no `WorkerStall`, `with_stall` or
# `chaos_fired`, and non-test crates/core/src/monitor.rs no `Instant`:
# a driver supplies the sampler's clock.
#
# Core parses each frame once and builds none. S1 of `on_burst` parses
# a frame and stamps its payload range on the `Mbuf`; every later packet
# fact comes from that parse. The tracker once parsed every frame the
# reassembler flushed again, to find its payload, and a swap built a
# synthetic SYN or datagram (TTL 64, window 65 535) to parse and filter,
# which gave survivors a verdict on a packet they never sent and dropped
# every survivor that was neither TCP nor UDP. So non-test
# crates/core/src calls `ParsedPacket::parse(` at exactly two sites:
# `on_burst` in pipeline.rs, and `rss_queues` in step.rs, named here as
# the exception until the stepped run gets an ingest actor in front of
# the NIC (ROADMAP item 14(a)); and it names no `retina_wire::build` and
# no `synth_first_packet`.
#
# A bare SYN builds no flow: a connection's flow is an eight-byte
# embryo until its second packet promotes it into the core's flow store
# (crates/core/src/tracker/flows.rs). Non-test crates/core/src builds a
# `TcpFlow` only there — each `TcpFlow::new(` or `.hatch(` site, as
# `file:function`, must be flows.rs's `promote` (the store's promotion)
# or `view` (the scratch flow an embryo's hook reads) — so no path can
# hand a bare SYN a flow back by accident.
#
# A connection keeps no frontiers. The connection and session filters
# read them off the packet filter's verdict on the connection's rebuilt
# first packet (`first_verdict`), as a swap does; a stored copy cost
# every connection 64 bytes, 38 % of its state. So non-test
# `struct Conn` in crates/core/src/tracker/mod.rs has no `Frontiers`
# field.
#
# Timers live in the slots they time. The wheel (crates/conntrack/src/
# timerwheel.rs) is one level of 256 buckets, each a circular list
# linked through two words in the timed connections' arena slots, with
# one sentinel pair per bucket; freeing a slot unlinks it, so no
# reference outlives its connection. It once kept four levels of
# `Vec<(token, deadline)>` buckets beside the arena — grown by doubling,
# never shrunk, not counted in the arena bytes — whose tokens outlived
# their connections, so every slot carried a generation to tell a stale
# token from its slot's next occupant. So non-test crates/conntrack/src
# has no `Vec` in timerwheel.rs, no `to_token` or `from_token`, and no
# generation field in arena.rs's `struct Slot`.
#
# The connection index is one open-addressed table of 8-byte words
# (crates/conntrack/src/table.rs): probed linearly, at most half full,
# emptied by backward shift, its bytes counted exactly. It was once 16
# `HashMap` shards, a side map (`collided`) of connections whose 64-bit
# index keys were forged twins, and each shard's peak capacity kept
# beside it (`shard_capacity`), because a hash map's live capacity drops
# as removals leave tombstones and the index's bytes could only be
# estimated. A twin is a probe neighbour now. So non-test
# crates/conntrack/src uses no `HashMap` and names no `collided`,
# `shard_capacity` or `SHARDS` (as whole words).
#
# A textual audit: "non-test" is everything above a file's first
# `#[cfg(test)]` line, and nothing under a tests/ directory; comment
# lines are ignored. Run as the `one-loop`
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
    if [ "$file" = crates/core/src/tracker/mod.rs ]; then
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
    hits=$(code_lines "$file" | grep -E '(^|[^[:alnum:]_])(on_packet|ingest_frame)\(' || true)
    if [ -n "$hits" ]; then
        echo "per-packet pipeline verb outside crates/core/src/pipeline.rs (drive on_burst):" >&2
        printf '%s\n' "$hits" >&2
        fail=1
    fi
done
for call in '\.packet_filter_set\(' 'tracker\.process\('; do
    n=$(code_lines crates/core/src/pipeline.rs | grep -cE "$call" || true)
    if [ "$n" -ne 1 ]; then
        echo "crates/core/src/pipeline.rs calls $call $n times (want 1: inside on_burst)" >&2
        fail=1
    fi
done

note_calls='note_(enqueued|executed|inline|blocked|dropped_full|dropped_disconnected)\('
dispatcher_calls=0
downcasts=0
for file in $(find crates/core/src -name '*.rs' | sort); do
    lines=$(code_lines "$file")
    if [ "$file" != crates/core/src/executor.rs ]; then
        hits=$(printf '%s\n' "$lines" | grep -E "$note_calls" || true)
        if [ -n "$hits" ]; then
            echo "dispatch accounting outside crates/core/src/executor.rs:" >&2
            printf '%s\n' "$hits" >&2
            fail=1
        fi
    fi
    hits=$(printf '%s\n' "$lines" | grep -E '\.downcast(_mut)?::<' || true)
    if [ -n "$hits" ]; then
        downcasts=$((downcasts + $(printf '%s\n' "$hits" | wc -l)))
        if [ "$file" != crates/core/src/erased.rs ]; then
            echo "output downcast outside erased.rs (take an output through take_output):" >&2
            printf '%s\n' "$hits" >&2
            fail=1
        fi
    fi
    hits=$(printf '%s\n' "$lines" | grep -E 'ErasedOutput|Box<dyn ([[:alnum:]_]+::)*Any\b' || true)
    if [ -n "$hits" ]; then
        echo "a boxed output (a datum travels in its lane and its typed ring, unboxed):" >&2
        printf '%s\n' "$hits" >&2
        fail=1
    fi
    n=$(printf '%s\n' "$lines" | grep -v 'fn channel_dispatcher(' |
        grep -c 'channel_dispatcher(' || true)
    dispatcher_calls=$((dispatcher_calls + n))
done
if [ "$dispatcher_calls" -ne 1 ]; then
    echo "channel_dispatcher( has $dispatcher_calls non-test call sites (want 1: the staging function)" >&2
    fail=1
fi
if [ "$downcasts" -ne 1 ]; then
    echo "crates/core/src has $downcasts non-test output downcasts (want 1: take_output in erased.rs)" >&2
    fail=1
fi
hits=$(code_lines crates/core/src/erased.rs |
    awk -F: '/pub struct Emitter/ { on = 1 } /pub trait TrackedSlab/ { on = 0 } on' |
    grep -F 'Box::new(' || true)
if [ -n "$hits" ]; then
    echo "the emitter boxes a datum (push writes into the output lane):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

hits=$(code_lines crates/core/src/subscribables.rs |
    grep -E 'ParsedPacket::parse\(|tcp_seq\(|\.to_vec\(\)|extend_from_slice\(' || true)
if [ -n "$hits" ]; then
    echo "a tracked type re-derives stream order or copies payload (take on_stream as delivered, hold views):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi
tracker_code() {
    for f in crates/core/src/tracker/*.rs; do code_lines "$f"; done
}
hits=$(tracker_code | grep -E 'Box<Probe|Box::new\(Probe' || true)
if [ -n "$hits" ]; then
    echo "probe state boxed per connection (it lives in the phase, its prefixes in the core's slab):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi
hits=$(for file in $(find crates/protocols/src -name '*.rs' | sort); do
    code_lines "$file"
done | awk '{ text = $0; sub(/^[^:]*:[^:]*:/, "", text) }
    match(text, /struct [[:alnum:]_]+/) { name = substr(text, RSTART + 7, RLENGTH - 7) }
    text ~ /^[[:space:]]*(pub[^[:space:]]*[[:space:]]+)?[[:alnum:]_]+:[^(&]*Vec<Session>/ &&
        name != "StandaloneParser"' || true)
if [ -n "$hits" ]; then
    echo "session storage in a parser (append to the caller's buffer, one per core):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi
hits=$(code_lines crates/core/src/subscribables.rs |
    awk '{ text = $0; sub(/^[^:]*:[^:]*:/, "", text) }
        text ~ /^impl[[:space:]]+FromSession[[:space:]]+for/ { on = 1 }
        on && text ~ /\.clone\(\)/
        on && text ~ /^}/ { on = 0 }' || true)
if [ -n "$hits" ]; then
    echo "a FromSession impl clones its session (take it by value: MatchedSession::into_owned):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi
for rule in 'extend_from_slice\(|1 payload copy (the probe spill)' \
    '\.discarded \+= |1 subscription discard charge' \
    'conns_discarded \+=|1 connection discard charge' \
    'TraceKind::ConnExpire|1 end tracepoint (the exit function)'; do
    pattern=${rule%%|*}
    n=$(tracker_code | grep -cE "$pattern" || true)
    if [ "$n" -ne 1 ]; then
        echo "crates/core/src/tracker/ has $n sites matching '$pattern' (want ${rule#*|}):" >&2
        tracker_code | grep -E "$pattern" >&2 || true
        fail=1
    fi
done
for file in $(find crates/core/src -name '*.rs' | sort); do
    [ "$file" = crates/core/src/tracker/phase.rs ] && continue
    hits=$(code_lines "$file" |
        grep -E 'set_phase\(|\.phase[[:space:]]*=[^=]|&mut [[:alnum:]_.]*\.phase\b' || true)
    if [ -n "$hits" ]; then
        echo "a connection's phase moved outside crates/core/src/tracker/phase.rs:" >&2
        printf '%s\n' "$hits" >&2
        fail=1
    fi
done

hits=$(for file in $(find crates examples -name '*.rs' -not -path '*/tests/*' | sort); do
    code_lines "$file"
done | grep -E 'impl(<[^>]*>)?[[:space:]]+(retina_filter::)?FilterFns[[:space:]]+for[[:space:]]' || true)
n=$(printf '%s' "$hits" | grep -c . || true)
if [ "$n" -ne 1 ]; then
    echo "crates/ and examples/ have $n non-test FilterFns impls (want 1: CompiledFilter):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi
hits=$(grep -rnE --include='*.rs' '(^|[^[:alnum:]_])(mod[[:space:]]+codegen\b|codegen::)' \
    crates/filter crates/filtergen | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$hits" ]; then
    echo "a filter code generator in crates/filter or crates/filtergen (the macros build a CompiledFilter):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

for file in crates/protocols/src/tls/mod.rs crates/protocols/src/http.rs \
    crates/protocols/src/ssh.rs crates/protocols/src/dns.rs crates/protocols/src/quic.rs; do
    hits=$(code_lines "$file" |
        grep -E '\.to_vec\(\)|drain\(.*\)[[:space:]]*\.collect\b|handshake\.clone\(\)' || true)
    if [ -n "$hits" ]; then
        echo "a parser copies what it could read in place (carry only what a segment cuts; move the handshake):" >&2
        printf '%s\n' "$hits" >&2
        fail=1
    fi
done
hits=$(code_lines crates/protocols/src/quic.rs | grep -E '(^|[^[:alnum:]_])format!\(' || true)
if [ -n "$hits" ]; then
    echo "quic.rs formats a string (the probe validates in place; hex writes one pre-sized String):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

hits=$(code_lines crates/core/src/governor.rs | grep -E 'thread::(spawn|sleep)\b' || true)
if [ -n "$hits" ]; then
    echo "the governor samples on its own (it is a stage of the monitor tick):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi
hits=$(code_lines crates/core/src/monitor.rs | grep -E 'thread::spawn\b' || true)
if [ -n "$hits" ]; then
    echo "the monitor samples on a thread of its own (a run ticks it on the run's thread):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi
hits=$(for file in $(find crates/core/src -name '*.rs' | sort); do
    code_lines "$file"
done | grep -E '(^|[^[:alnum:]_])TraceHandle([^[:alnum:]_]|$)|RwLock<[[:space:]]*Option<[[:space:]]*([[:alnum:]_]+::)*Arc<[[:space:]]*([[:alnum:]_]+::)*Tracer[[:space:]]*>' || true)
if [ -n "$hits" ]; then
    echo "a lock-guarded tracer slot (a run hands its tracer to its samplers and epochs):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi
if [ -e crates/telemetry/src/events.rs ]; then
    echo "crates/telemetry/src/events.rs is back (the decision stream is the governor brain's own)" >&2
    fail=1
fi
hits=$(grep -rnw --include='*.rs' 'EventLog' crates || true)
if [ -n "$hits" ]; then
    echo "an EventLog under crates/ (the governor's events move into its report):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi
hits=$(for file in $(find crates/core/src -name '*.rs' | sort); do
    code_lines "$file"
done | grep -E 'Mutex<Vec<([[:alnum:]_]+::)*SwapEvent>>' || true)
if [ -n "$hits" ]; then
    echo "a swap ledger in crates/core/src (swap() returns the one SwapEvent it builds):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

for file in $(find crates/core/src -name '*.rs' | sort); do
    hits=$(code_lines "$file" | grep -E 'Vec<\(String, *([[:alnum:]_]+::)*SubTally\)>' || true)
    if [ -n "$hits" ]; then
        echo "a (name, tally) ledger (tally by row of the run's table):" >&2
        printf '%s\n' "$hits" >&2
        fail=1
    fi
done
hits=$(for file in crates/core/src/reconfig.rs crates/core/src/step.rs; do
    code_lines "$file"
done | grep -E '(^|[^[:alnum:]_])retired([^[:alnum:]_]|$)' || true)
if [ -n "$hits" ]; then
    echo "a retired ledger (a swap re-points slots at rows, it banks nothing):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi
hits=$(code_lines crates/core/src/report.rs | grep -E 'dedup' || true)
if [ -n "$hits" ]; then
    echo "report assembly merges rows by name (read them off the row table):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi
hits=$(code_lines crates/core/src/executor.rs | grep -E '(^|[^[:alnum:]_])Lane<' || true)
if [ -n "$hits" ]; then
    echo "a type parameter on Lane (its counters are its row's DispatchRow):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

hits=$(code_lines crates/support/src/rematch.rs |
    grep -E 'Vec<char>|\.chars\(\)[[:space:]]*\.collect|dyn FnMut\(usize\)' || true)
if [ -n "$hits" ]; then
    echo "a regex match copies its text or backtracks (run the automaton; the backtracker is the test oracle):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

hits=$(grep -rnE 'json[-]out|merge[_]section|print[_]gate[_]keys|BENCH[_]' \
    crates scripts .github || true)
if [ -n "$hits" ]; then
    echo "a second bench harness (performance numbers come from benchmark/):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

hits=$(for file in $(find crates -name '*.rs' -not -path '*/tests/*' | sort); do
    code_lines "$file"
done | grep -E '(^|[^[:alnum:]_])(Registry|GaugeMerge|MonitorSample|StageStats)([^[:alnum:]_]|$)|to_sample\(' || true)
if [ -n "$hits" ]; then
    echo "a second shape of a monitoring fact (gauges are RuntimeGauges' blocks, samples are Sample, stages are StageSummary):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

core_code() {
    for f in $(find crates/core/src -name '*.rs' | sort); do code_lines "$f"; done
}
hits=$(core_code | grep -E '(^|[^[:alnum:]_])(VirtualRing|RingTx|RingRx|StepQueue)([^[:alnum:]_]|$)' || true)
if [ -n "$hits" ]; then
    echo "a second dispatch ring (both drivers run executor.rs's spsc rings):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi
n=$(core_code | grep -cE 'spsc::ring([^[:alnum:]_]|$)' || true)
if [ "$n" -ne 1 ]; then
    echo "crates/core/src calls spsc::ring at $n non-test sites (want 1: Deliver::ring):" >&2
    core_code | grep -E 'spsc::ring([^[:alnum:]_]|$)' >&2 || true
    fail=1
fi

hits=$(core_code | grep -E '(^|[^[:alnum:]_])StepSwap([^[:alnum:]_]|$)' || true)
if [ -n "$hits" ]; then
    echo "a second swap protocol (a stepped swap runs EpochState's publish, grace and retire):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi
for rule in '\.adopt\(|1 adoption (RxCore::turn)' \
    'rows\.install\(|1 table install (stage_epoch)'; do
    pattern=${rule%%|*}
    n=$(core_code | grep -cE "$pattern" || true)
    if [ "$n" -ne 1 ]; then
        echo "crates/core/src has $n non-test sites matching '$pattern' (want ${rule#*|}):" >&2
        core_code | grep -E "$pattern" >&2 || true
        fail=1
    fi
done

hits=$(for file in $(find crates/core/src crates/conntrack/src -name '*.rs' | sort); do
        code_lines "$file"
    done | grep -E 'free:[[:space:]]*Vec<u32>|slots:[[:space:]]*Vec<Slot<|Vacant\(|(^|[^[:alnum:]_])NIL([^[:alnum:]_]|$)' || true)
if [ -n "$hits" ]; then
    echo "a slab of its own beside retina_support::slab (a side free list, an in-slot free list or a relocating slot Vec):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

hits=$(for file in $(find crates/*/src -name '*.rs' | sort); do
    code_lines "$file"
done | grep -E 'ADVANCE_EVERY|since_advance' || true)
if [ -n "$hits" ]; then
    echo "a driver's sweep cadence (the pipeline sweeps after every SWEEP_EVERYth frame):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi
hits=$(code_lines crates/core/src/pipeline.rs |
    grep -E '(^|[^[:alnum:]_])pub(\([^)]*\))?[[:space:]]+fn[[:space:]]+advance\b' || true)
if [ -n "$hits" ]; then
    echo "a public sweep verb on CorePipeline (on_burst sweeps on its own frame count):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

hits=$(for file in $(find crates/*/src -name '*.rs' | sort); do
    code_lines "$file"
done | grep -E '(^|[^[:alnum:]_])(WorkerStall|with_stall|chaos_fired)([^[:alnum:]_]|$)' || true)
if [ -n "$hits" ]; then
    echo "a stepped fault vocabulary of its own (a stepped run reads the NIC's FaultHooks in virtual time):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi
hits=$(code_lines crates/core/src/monitor.rs | grep -E '(^|[^[:alnum:]_])Instant([^[:alnum:]_]|$)' || true)
if [ -n "$hits" ]; then
    echo "the sampler reads the wall clock itself (each driver supplies its clock):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

# Each non-test `ParsedPacket::parse(` in crates/core/src as
# `file:function`, the function being the last `fn` declared above it.
sites=$(core_code | awk '{
        text = $0
        sub(/^[^:]*:[0-9]*:/, "", text)
        if (match(text, /(^|[^[:alnum:]_])fn [[:alnum:]_]+/)) {
            name = substr(text, RSTART, RLENGTH)
            sub(/.*fn /, "", name)
        }
        if (text ~ /ParsedPacket::parse\(/) {
            file = $0
            sub(/:.*/, "", file)
            print file ":" name
        }
    }')
want='crates/core/src/pipeline.rs:on_burst
crates/core/src/step.rs:rss_queues'
if [ "$sites" != "$want" ]; then
    echo "crates/core/src parses frames outside S1 (want one ParsedPacket::parse( in pipeline.rs's on_burst, and step.rs's rss_queues until item 14(a)); found:" >&2
    printf '%s\n' "$sites" >&2
    fail=1
fi
hits=$(core_code | grep -E 'retina_wire::build|synth_first_packet' || true)
if [ -n "$hits" ]; then
    echo "core builds a frame (a swap re-verdicts a survivor on its first packet's kept facts):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

# Each non-test `TcpFlow::new(` / `.hatch(` in crates/core/src as
# `file:function`, the function being the last `fn` declared above it.
sites=$(core_code | awk '{
        text = $0
        sub(/^[^:]*:[0-9]*:/, "", text)
        if (match(text, /(^|[^[:alnum:]_])fn [[:alnum:]_]+/)) {
            name = substr(text, RSTART, RLENGTH)
            sub(/.*fn /, "", name)
        }
        if (text ~ /TcpFlow::new\(|\.hatch\(/) {
            file = $0
            sub(/:.*/, "", file)
            print file ":" name
        }
    }')
want='crates/core/src/tracker/flows.rs:promote
crates/core/src/tracker/flows.rs:view'
if [ "$sites" != "$want" ]; then
    echo "crates/core/src builds a TcpFlow outside the flow store (want one TcpFlow::new( / .hatch( in flows.rs's promote and one in its view); found:" >&2
    printf '%s\n' "$sites" >&2
    fail=1
fi

hits=$(code_lines crates/core/src/tracker/mod.rs |
    awk '{ text = $0; sub(/^[^:]*:[^:]*:/, "", text) }
        text ~ /^(pub[^[:space:]]*[[:space:]]+)?struct Conn[[:space:]]*\{/ { on = 1; next }
        on && text ~ /^}/ { on = 0 }
        on && text ~ /Frontiers/' || true)
if [ -n "$hits" ]; then
    echo "a connection stores its frontiers (read them off its first_verdict):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

hits=$( (code_lines crates/conntrack/src/timerwheel.rs | grep -E '(^|[^[:alnum:]_])Vec\b'
    for file in $(find crates/conntrack/src -name '*.rs' | sort); do
        code_lines "$file" | grep -E 'to_token|from_token'
    done
    code_lines crates/conntrack/src/arena.rs |
        awk '{ text = $0; sub(/^[^:]*:[^:]*:/, "", text) }
            text ~ /^(pub[^[:space:]]*[[:space:]]+)?struct Slot[[:space:]<]/ { on = 1; next }
            on && text ~ /^}/ { on = 0 }
            on && text ~ /(^|[^[:alnum:]_])gen(eration)?[[:space:]]*:/') || true)
if [ -n "$hits" ]; then
    echo "timer state outside the slots it times (no Vec in the wheel, no wheel tokens, no slot generation):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

hits=$(for file in $(find crates/conntrack/src -name '*.rs' | sort); do
        code_lines "$file" | grep -E '(^|[^[:alnum:]_])(HashMap|collided|shard_capacity|SHARDS)([^[:alnum:]_]|$)'
    done || true)
if [ -n "$hits" ]; then
    echo "a second connection index beside the open-addressed table (no HashMap, collided, shard_capacity or SHARDS):" >&2
    printf '%s\n' "$hits" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "one-loop guard FAILED: drive CorePipeline, executor's lane protocol and CompiledFilter instead of re-writing them" >&2
    exit 1
fi
echo "one-loop guard OK: packet filter and tracker are called once each, from pipeline.rs (on_burst);"
echo "  dispatch accounting is in executor.rs only, the fabric has one staging site, one downcast site (take_output);"
echo "  no boxed output anywhere in core, no box in the emitter, no boxed probe state in the tracker;"
echo "  no parser holds session storage, and no FromSession impl clones its session;"
echo "  no tracked type in subscribables.rs re-parses, re-sorts or copies the stream; the tracker copies at the probe spill only;"
echo "  phases move in tracker/phase.rs only, and each discard charge and the end tracepoint have one site;"
echo "  one FilterFns impl (CompiledFilter) and no filter code generator;"
echo "  the TLS, HTTP, SSH, DNS and QUIC parsers copy no record, head or line and clone no handshake; quic.rs formats nothing;"
echo "  the governor is a stage of the monitor tick, which the run ticks on its own thread; no tracer slot, EventLog or swap ledger exists;"
echo "  subscription counts live in one row per name: no (name, tally) ledger, no retired ledger, no dedup, no Lane<D>;"
echo "  a session-filter regex runs as an automaton: rematch.rs copies no text into a Vec<char> and backtracks only in tests;"
echo "  benchmark/ is the one source of performance numbers: no second results flag, merger, key printer or BENCH file;"
echo "  each monitoring fact has one shape: no metric Registry, GaugeMerge, MonitorSample, StageStats or to_sample(;"
echo "  the dispatch ring is written once: no VirtualRing, RingTx, RingRx or StepQueue, one spsc::ring call site;"
echo "  one swap protocol and one RX core: no StepSwap, one .adopt( and one rows.install( call site;"
echo "  one slab (support/src/slab.rs): no side free list, in-slot free list or slot Vec in core or conntrack;"
echo "  one sweep rule: no driver cadence (ADVANCE_EVERY, since_advance) and no public CorePipeline::advance;"
echo "  one fault plan and one monitor clock: no WorkerStall, with_stall or chaos_fired, and no Instant in monitor.rs;"
echo "  core parses each frame once and builds none: ParsedPacket::parse( in on_burst (and rss_queues), no wire builder;"
echo "  a bare SYN builds no flow: a TcpFlow is built in flows.rs's promote and view only;"
echo "  a connection keeps no frontiers: struct Conn has no Frontiers field, the filters read its first_verdict;"
echo "  timers live in the slots they time: no Vec in the wheel, no wheel tokens, no generation in an arena slot;"
echo "  one conn index: no HashMap, collided, shard_capacity or SHARDS in crates/conntrack/src"
