//! Deterministic dispatch test harness: a virtual-time step executor.
//!
//! [`MultiRuntime::run`] proves nothing about dispatch correctness by
//! itself — thread scheduling hides interleavings, and a test that
//! passes under one kernel scheduler may never exercise the full-ring
//! or worker-starved paths at all. [`MultiRuntime::run_stepped`] removes
//! the scheduler from the picture: it executes the *same* pipeline
//! logic (same packet filter, same tracker, same per-subscription
//! dispatch modes and queue policies) on one thread, interleaving an RX
//! actor and one virtual worker per dispatched subscription under a
//! seeded schedule. Every interleaving is a pure function of
//! [`StepConfig::seed`], so a failing schedule replays bit for bit.
//!
//! What the harness lets tests prove (and the e2e suite does prove):
//!
//! * **Equivalence** — for any seed, a dispatched run's
//!   [`crate::RunReport::deterministic_digest`] is byte-identical to
//!   the inline run over the same frames: dispatch moves *where*
//!   callbacks run, never *what* is delivered.
//! * **Exact accounting under backpressure** — with a full queue and
//!   [`crate::QueuePolicy::Block`], parked results are delivered late
//!   but never lost; with [`crate::QueuePolicy::Shed`] every drop is
//!   counted, and [`crate::RunReport::check_accounting`] still balances.
//! * **Isolation** — a [`WorkerStall`] freezing one subscription's
//!   worker for a step window must not stall its siblings (their
//!   queues keep draining while the stalled queue backs up).
//!
//! Virtual time means real time never appears: a "stall" is a window of
//! step numbers, queues are plain bounded buffers, and a blocked RX
//! core is modeled by a holding buffer that must flush (in FIFO order,
//! exactly like a blocked SPSC `send`) before the next frame is read.
//! The live [`crate::telemetry::DispatchHub`] is not touched; the run
//! keeps its own stats so stepped tests never race a governor.

// Narrowing casts in this file are intentional: packet counts and
// subscription indices narrow to compact counter fields by design.
#![allow(clippy::cast_possible_truncation)]

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use retina_filter::{CompiledFilter, FilterFns, PacketVerdict, SubscriptionSet};
use retina_nic::{Mbuf, PortStatsSnapshot, RssHasher};
use retina_support::bytes::Bytes;
use retina_support::rand::{RngExt, SeedableRng, SmallRng};
use retina_telemetry::trace::{TraceDropCode, TraceHwAction};
use retina_telemetry::{DispatchSnapshot, DispatchStats, TraceKind, Tracer, TriggerReason};
use retina_wire::ParsedPacket;

use crate::erased::{ErasedOutput, ErasedSink};
use crate::executor::QueuePolicy;
use crate::reconfig::{StepSwap, SwapError, SwapSpec};
use crate::runtime::{MultiRuntime, RunReport, SubReport};
use crate::subscription::Level;
use crate::tracker::{ConnTracker, SubTally};
use crate::util::rdtsc;

/// Freezes one subscription's virtual worker for a window of steps:
/// while `step ∈ [from_step, from_step + steps)` the worker pops
/// nothing, its queue backs up, and (under [`QueuePolicy::Block`]) the
/// RX actor parks results destined for it. The global step counter
/// advances every iteration — including iterations where *nothing*
/// could run — so every stall window expires deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStall {
    /// Index of the stalled subscription (registration order). A stall
    /// on an inline subscription has no effect (there is no worker).
    pub sub: usize,
    /// First step of the stall window (the step counter starts at 1).
    pub from_step: u64,
    /// Window length in steps.
    pub steps: u64,
}

impl WorkerStall {
    fn blocks(&self, sub: usize, step: u64) -> bool {
        self.sub == sub
            && step >= self.from_step
            && step < self.from_step.saturating_add(self.steps)
    }
}

/// Parameters of one stepped run. Everything that could perturb the
/// interleaving is explicit here, so `(frames, config)` fully
/// determines the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepConfig {
    /// Seed of the actor schedule (which actor — RX or a worker — runs
    /// each step).
    pub seed: u64,
    /// Frames the RX actor processes per step it is scheduled.
    pub rx_batch: usize,
    /// Items a virtual worker pops per step it is scheduled.
    pub worker_batch: usize,
    /// RX steps between connection-timeout sweeps
    /// ([`ConnTracker::advance`] cadence, mirroring the threaded
    /// worker's every-64-bursts maintenance block).
    pub advance_every: usize,
    /// Optional worker freeze for isolation/backpressure tests.
    pub stall: Option<WorkerStall>,
}

impl Default for StepConfig {
    fn default() -> Self {
        StepConfig {
            seed: 0,
            rx_batch: 4,
            worker_batch: 4,
            advance_every: 64,
            stall: None,
        }
    }
}

impl StepConfig {
    /// The default schedule shape under `seed`.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        StepConfig {
            seed,
            ..StepConfig::default()
        }
    }

    /// Adds a worker-freeze window to this schedule.
    #[must_use]
    pub fn with_stall(mut self, stall: WorkerStall) -> Self {
        self.stall = Some(stall);
        self
    }
}

fn stall_blocks(stall: Option<&WorkerStall>, sub: usize, step: u64) -> bool {
    stall.is_some_and(|s| s.blocks(sub, step))
}

impl<F: FilterFns + 'static> MultiRuntime<F> {
    /// Runs the pipeline over `packets` on the current thread under a
    /// seeded virtual-time schedule (see the module docs). Frames are
    /// `(bytes, timestamp-ns)` pairs, exactly what a
    /// [`crate::TrafficSource`] batch yields.
    ///
    /// The run honours each subscription's [`crate::DispatchMode`] and
    /// [`QueuePolicy`] semantically — bounded queues, parked sends,
    /// counted sheds — without spawning a single thread, and fabricates
    /// a loss-free NIC snapshot (no device sits in front of a stepped
    /// run), so [`RunReport::check_accounting`] applies unchanged.
    ///
    /// # Panics
    /// Panics if the schedule deadlocks, which is impossible unless the
    /// dispatch invariants are broken (that is the point of the assert).
    pub fn run_stepped(&self, packets: &[(Bytes, u64)], cfg: &StepConfig) -> RunReport {
        self.run_stepped_inner(packets, cfg, None)
    }

    #[allow(clippy::too_many_lines)]
    pub(crate) fn run_stepped_inner(
        &self,
        packets: &[(Bytes, u64)],
        cfg: &StepConfig,
        mut swap: Option<StepSwap<F>>,
    ) -> RunReport {
        let mut subs: Vec<_> = self.subs.clone();
        let mut modes = self.modes.clone();
        let mut filter = Arc::clone(&self.filter);
        let mut n = subs.len();
        let mut tracker: ConnTracker<F> = ConnTracker::with_registry(
            Arc::clone(&filter),
            &subs,
            self.config.timeouts,
            self.config.ooo_capacity,
            self.config.profile_stages,
            self.config.parsers.clone(),
        );
        let shed = self.shed_state();
        let profile = self.config.profile_stages;
        // Same fixed symmetric key the virtual NIC installs: stepped
        // mbufs carry the hash a threaded ingest would have stamped.
        let hasher = RssHasher::symmetric();

        let mut packet_mask = SubscriptionSet::empty();
        for (i, sub) in subs.iter().enumerate() {
            if sub.level() == Level::Packet {
                packet_mask.insert(i);
            }
        }

        // Spec-only subscriptions stay inline in every mode (exactly as
        // channel_dispatcher forces them), so stepped accounting matches
        // the threaded runtime's.
        let mut dispatched: Vec<bool> = (0..n)
            .map(|i| modes[i].is_dispatched() && subs[i].has_callback())
            .collect();
        let mut caps: Vec<usize> = (0..n)
            .map(|i| if dispatched[i] { modes[i].depth() } else { 0 })
            .collect();
        let mut stats: Vec<DispatchStats> = caps
            .iter()
            .map(|&c| DispatchStats::with_capacity(c as u64))
            .collect();
        let mut sinks: Vec<Box<dyn ErasedSink>> = subs.iter().map(|s| s.inline_sink()).collect();
        let mut queues: Vec<VecDeque<(u64, ErasedOutput)>> =
            caps.iter().map(|&c| VecDeque::with_capacity(c)).collect();
        // The blocked-RX holding buffer: results a real RX core would be
        // spinning on in a blocking SPSC send. FIFO flush order is the
        // blocked-send order; while non-empty the RX actor reads nothing.
        let mut pending: VecDeque<(usize, u64, ErasedOutput)> = VecDeque::new();

        let mut worker_subs: Vec<usize> = (0..n).filter(|&i| dispatched[i]).collect();
        let mut n_actors = 1 + worker_subs.len();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);

        // Tallies and dispatch counters of subscriptions removed by a
        // mid-run swap, banked at the swap point and folded back into
        // the final report by name (same assembly as the threaded run).
        let mut banked: Vec<(String, SubTally)> = Vec::new();
        let mut retired: Vec<(String, DispatchSnapshot)> = Vec::new();

        // Virtual-clock tracer: lane layout mirrors the threaded run
        // (ingest, one RX core, one lane per virtual worker), timestamps
        // are the step counter, so a (frames, config) pair fully
        // determines every recorded event. Lane count covers the larger
        // of the pre- and post-swap worker sets so a swap that adds
        // dispatched subscriptions never runs out of lanes.
        let max_workers = {
            let post = swap.as_ref().map_or(0, |sw| {
                (0..sw.subs.len())
                    .filter(|&j| sw.modes[j].is_dispatched() && sw.subs[j].has_callback())
                    .count()
            });
            worker_subs.len().max(post).max(1)
        };
        let tracer = self
            .trace_config
            .clone()
            .map(|tc| Arc::new(Tracer::new_virtual(tc, 1, max_workers)));
        if let Some(t) = &tracer {
            tracker.set_tracer(Arc::clone(t), t.rx_lane(0));
        }
        let mut chaos_fired = false;

        let mut next_pkt = 0usize;
        let mut drained = false;
        let mut step = 0u64;
        let mut since_advance = 0usize;
        let mut max_ts = 0u64;

        macro_rules! flush_pending {
            () => {{
                let mut moved = false;
                while let Some(&(i, _, _)) = pending.front() {
                    if queues[i].len() >= caps[i] {
                        break;
                    }
                    let (_, tid, out) = pending.pop_front().expect("front checked above");
                    queues[i].push_back((tid, out));
                    stats[i].note_enqueued();
                    // No tracepoint here: the enqueue was already
                    // recorded when the send parked (see `route!`), in
                    // the same order a blocking threaded send commits.
                    let _ = tid;
                    moved = true;
                }
                moved
            }};
        }

        // One handoff to the delivery layer: count the callback stage,
        // then run inline / enqueue / park / shed per the sub's mode —
        // the single-threaded mirror of InlineSink/QueuedSink (tracepoint
        // order included).
        macro_rules! route {
            ($idx:expr, $tid:expr, $out:expr) => {{
                let i: usize = $idx;
                let tid: u64 = $tid;
                let out: ErasedOutput = $out;
                let tc = profile.then(rdtsc);
                tracker.stats.callbacks.runs += 1;
                if dispatched[i] {
                    if queues[i].len() < caps[i] {
                        queues[i].push_back((tid, out));
                        stats[i].note_enqueued();
                        if tid != 0 {
                            if let Some(t) = &tracer {
                                t.emit(
                                    t.rx_lane(0),
                                    tid,
                                    TraceKind::DispatchEnqueue,
                                    i as u16,
                                    0,
                                    stats[i].depth(),
                                );
                            }
                        }
                    } else {
                        match modes[i].policy() {
                            QueuePolicy::Shed => {
                                stats[i].note_dropped_full();
                                if let Some(t) = &tracer {
                                    t.emit(
                                        t.rx_lane(0),
                                        tid,
                                        TraceKind::Drop,
                                        i as u16,
                                        TraceDropCode::DispatchShed as u64,
                                        0,
                                    );
                                    t.trigger(TriggerReason::DispatchShed, i as u64);
                                }
                            }
                            QueuePolicy::Block => {
                                stats[i].note_blocked();
                                // Emit the enqueue tracepoint now, not
                                // at flush: a threaded RX core blocks
                                // inside the send, so its enqueue
                                // events land in route order — the
                                // parked send's order — never in
                                // flush order.
                                if tid != 0 {
                                    if let Some(t) = &tracer {
                                        t.emit(
                                            t.rx_lane(0),
                                            tid,
                                            TraceKind::DispatchEnqueue,
                                            i as u16,
                                            0,
                                            stats[i].depth(),
                                        );
                                    }
                                }
                                pending.push_back((i, tid, out));
                            }
                        }
                    }
                } else {
                    if tid != 0 {
                        if let Some(t) = &tracer {
                            t.emit(t.rx_lane(0), tid, TraceKind::CallbackStart, i as u16, 0, 0);
                        }
                    }
                    sinks[i].deliver(out, tid);
                    stats[i].note_inline();
                    if tid != 0 {
                        if let Some(t) = &tracer {
                            t.emit(t.rx_lane(0), tid, TraceKind::CallbackEnd, i as u16, 0, 0);
                        }
                    }
                }
                if let Some(t) = tc {
                    tracker
                        .stats
                        .callbacks
                        .record_cycles(rdtsc().wrapping_sub(t));
                }
            }};
        }

        // Swap-time quiescence: run every virtual worker to empty and
        // flush every parked send before the configuration changes —
        // the single-threaded mirror of the threaded runtime's grace
        // period (every core acknowledges the new generation before the
        // old epoch retires). Terminates because each pass first frees
        // queue slots, which lets flush_pending! move parked sends.
        macro_rules! drain_all {
            () => {{
                loop {
                    flush_pending!();
                    for i in 0..n {
                        while let Some((_tid, out)) = queues[i].pop_front() {
                            subs[i].invoke(out);
                            stats[i].note_executed();
                        }
                    }
                    if pending.is_empty() && queues.iter().all(VecDeque::is_empty) {
                        break;
                    }
                }
            }};
        }

        loop {
            if next_pkt >= packets.len()
                && drained
                && pending.is_empty()
                && queues.iter().all(VecDeque::is_empty)
            {
                break;
            }
            step += 1;
            if let Some(t) = &tracer {
                t.set_virtual_time(step);
            }
            // Snapshot the actor count: a swap inside the RX actor may
            // rebuild the worker set (and `n_actors`), but it always
            // reports progress, breaking this sweep before the stale
            // bound could be used.
            let actors = n_actors;
            let choice = rng.random_range(0..actors);
            let mut progressed = false;
            // Try the scheduled actor first; fall back through the rest
            // so a blocked actor never masks available progress (the
            // schedule stays a pure function of the seed either way).
            for k in 0..actors {
                let actor = (choice + k) % actors;
                let p = if actor == 0 {
                    // RX actor: flush parked sends, then read frames only
                    // if nothing is parked (a blocked send stalls the
                    // whole RX core, exactly like the threaded runtime).
                    let mut p = flush_pending!();
                    // A scheduled swap fires once the RX cursor reaches
                    // its packet index (clamped so a swap "after the
                    // last packet" still lands before the final drain),
                    // but never while a parked send is outstanding: a
                    // blocked RX core cannot pick up a new epoch
                    // mid-send in the threaded runtime either.
                    if pending.is_empty()
                        && swap.as_ref().is_some_and(|sw| {
                            next_pkt as u64 >= sw.at_packet.min(packets.len() as u64)
                        })
                    {
                        let StepSwap {
                            at_packet: _,
                            filter: new_filter,
                            subs: new_subs,
                            modes: new_modes,
                            remap,
                        } = swap.take().expect("checked above");
                        // Quiesce the old configuration: every queued
                        // result executes under the epoch that produced
                        // it before the table changes.
                        drain_all!();
                        // Rebind live connection state under the new
                        // trie. Drains of removed subscriptions route
                        // through the OLD arrays — their sinks, their
                        // queues, their counters — then quiesce again.
                        let banked_now = tracker.rebind(Arc::clone(&new_filter), &new_subs, &remap);
                        for (idx, tid, out) in tracker.take_outputs() {
                            route!(idx as usize, tid, out);
                        }
                        drain_all!();
                        // Bank removed subscriptions' counters by name.
                        for (i, m) in remap.iter().enumerate() {
                            if m.is_none() {
                                retired.push((subs[i].name().to_string(), stats[i].snapshot()));
                            }
                        }
                        banked.extend(banked_now);
                        // Rebuild the per-subscription arrays under the
                        // new table. Survivors carry their DispatchStats
                        // across the swap (exactly as the threaded hub
                        // shares them), so per-name counters span the
                        // whole run.
                        let mut carried: Vec<Option<DispatchStats>> =
                            std::mem::take(&mut stats).into_iter().map(Some).collect();
                        subs = new_subs;
                        modes = new_modes;
                        filter = new_filter;
                        n = subs.len();
                        packet_mask = SubscriptionSet::empty();
                        for (j, sub) in subs.iter().enumerate() {
                            if sub.level() == Level::Packet {
                                packet_mask.insert(j);
                            }
                        }
                        dispatched = (0..n)
                            .map(|j| modes[j].is_dispatched() && subs[j].has_callback())
                            .collect();
                        caps = (0..n)
                            .map(|j| if dispatched[j] { modes[j].depth() } else { 0 })
                            .collect();
                        stats = (0..n)
                            .map(|j| {
                                remap
                                    .iter()
                                    .position(|m| *m == Some(j))
                                    .and_then(|i| carried[i].take())
                                    .unwrap_or_else(|| DispatchStats::with_capacity(caps[j] as u64))
                            })
                            .collect();
                        sinks = subs.iter().map(|s| s.inline_sink()).collect();
                        queues = caps.iter().map(|&c| VecDeque::with_capacity(c)).collect();
                        worker_subs = (0..n).filter(|&i| dispatched[i]).collect();
                        n_actors = 1 + worker_subs.len();
                        p = true;
                    }
                    if pending.is_empty() {
                        if next_pkt < packets.len() {
                            tracker.set_shed_parsing(shed.parsing_shed());
                            let end = (next_pkt + cfg.rx_batch.max(1)).min(packets.len());
                            for (off, (frame, ts)) in packets[next_pkt..end].iter().enumerate() {
                                let seq = (next_pkt + off) as u64;
                                let mut mbuf = Mbuf::from_bytes(frame.clone());
                                mbuf.timestamp_ns = *ts;
                                tracker.stats.rx_packets += 1;
                                tracker.stats.rx_bytes += mbuf.len() as u64;
                                max_ts = max_ts.max(mbuf.timestamp_ns);
                                let Ok(pkt) = ParsedPacket::parse(mbuf.data()) else {
                                    tracker.stats.parse_failures += 1;
                                    continue;
                                };
                                // Stamp the same symmetric RSS hash the
                                // virtual NIC would have: flow sampling
                                // derives trace ids from it, so stepped
                                // runs must sample the exact flows a
                                // threaded run samples.
                                mbuf.rss_hash = hasher.hash_packet(&pkt);
                                // Ingest-lane mirror of the virtual NIC:
                                // one Rx and one HwVerdict (RSS, queue 0
                                // — a stepped run has a single RX core
                                // and no hardware rules in front of it).
                                let tid = match &tracer {
                                    Some(t) => {
                                        let tid = t.sample_flow(mbuf.rss_hash);
                                        if tid != 0 {
                                            t.emit(
                                                t.ingest_lane(),
                                                tid,
                                                TraceKind::Rx,
                                                0,
                                                mbuf.len() as u64,
                                                seq,
                                            );
                                            t.emit(
                                                t.ingest_lane(),
                                                tid,
                                                TraceKind::HwVerdict,
                                                0,
                                                TraceHwAction::Rss as u64,
                                                0,
                                            );
                                        }
                                        tid
                                    }
                                    None => 0,
                                };
                                let tf = profile.then(rdtsc);
                                let verdict = filter.packet_filter_set(&pkt);
                                tracker.stats.packet_filter.runs += 1;
                                if let Some(t) = tf {
                                    tracker
                                        .stats
                                        .packet_filter
                                        .record_cycles(rdtsc().wrapping_sub(t));
                                }
                                if tid != 0 {
                                    if let Some(t) = &tracer {
                                        t.emit(
                                            t.rx_lane(0),
                                            tid,
                                            TraceKind::PacketVerdict,
                                            0,
                                            verdict.matched.bits(),
                                            verdict.live.bits(),
                                        );
                                        for f in verdict.frontiers.iter() {
                                            t.emit(
                                                t.rx_lane(0),
                                                tid,
                                                TraceKind::FilterNode,
                                                0,
                                                u64::from(f),
                                                0,
                                            );
                                        }
                                    }
                                }
                                if verdict.is_no_match() {
                                    continue;
                                }
                                let bypass = verdict.matched & packet_mask;
                                for i in bypass.iter() {
                                    if dispatched[i] {
                                        // Crosses to a worker: the datum
                                        // must be boxed for the queue.
                                        if let Some(out) = subs[i].output_from_mbuf(&mbuf) {
                                            tracker.sub_tallies[i].delivered += 1;
                                            route!(i, tid, out);
                                        }
                                        continue;
                                    }
                                    // Inline: built and delivered on the
                                    // spot, exactly as the threaded
                                    // worker does — no box, no downcast.
                                    // (A spec-only sink delivers, and
                                    // counts, nothing.)
                                    let tc = profile.then(rdtsc);
                                    if sinks[i].deliver_from_mbuf(&mbuf, tid) {
                                        tracker.stats.callbacks.runs += 1;
                                        tracker.sub_tallies[i].delivered += 1;
                                        stats[i].note_inline();
                                        // Start/end together, after the
                                        // fact: whether the frame yields
                                        // a datum is only known once the
                                        // fast path ran (InlineSink's
                                        // order).
                                        if tid != 0 {
                                            if let Some(t) = &tracer {
                                                for kind in [
                                                    TraceKind::CallbackStart,
                                                    TraceKind::CallbackEnd,
                                                ] {
                                                    t.emit(t.rx_lane(0), tid, kind, i as u16, 0, 0);
                                                }
                                            }
                                        }
                                        if let Some(t) = tc {
                                            tracker
                                                .stats
                                                .callbacks
                                                .record_cycles(rdtsc().wrapping_sub(t));
                                        }
                                    }
                                }
                                let verdict = PacketVerdict {
                                    matched: verdict.matched - packet_mask,
                                    live: verdict.live,
                                    frontiers: verdict.frontiers,
                                };
                                if verdict.is_no_match() {
                                    continue;
                                }
                                tracker.process(&mbuf, &pkt, verdict);
                                for (idx, tid, out) in tracker.take_outputs() {
                                    route!(idx as usize, tid, out);
                                }
                            }
                            next_pkt = end;
                            since_advance += 1;
                            if since_advance >= cfg.advance_every.max(1) {
                                since_advance = 0;
                                tracker.advance(max_ts);
                                for (idx, tid, out) in tracker.take_outputs() {
                                    route!(idx as usize, tid, out);
                                }
                            }
                            p = true;
                        } else if !drained {
                            tracker.drain();
                            for (idx, tid, out) in tracker.take_outputs() {
                                route!(idx as usize, tid, out);
                            }
                            drained = true;
                            p = true;
                        }
                    }
                    p
                } else {
                    // Virtual worker for one dispatched subscription.
                    let i = worker_subs[actor - 1];
                    if stall_blocks(cfg.stall.as_ref(), i, step) {
                        // First activation of the fault window freezes
                        // the flight recorder, exactly as the chaos
                        // layer's fault hook does in a threaded run.
                        if !chaos_fired {
                            chaos_fired = true;
                            if let Some(t) = &tracer {
                                t.trigger(TriggerReason::ChaosFault, i as u64);
                            }
                        }
                        false
                    } else {
                        let lane = tracer.as_ref().map(|t| t.worker_lane(actor - 1));
                        let mut popped = false;
                        for _ in 0..cfg.worker_batch.max(1) {
                            match queues[i].pop_front() {
                                Some((tid, out)) => {
                                    if tid != 0 {
                                        if let (Some(t), Some(lane)) = (&tracer, lane) {
                                            t.emit(
                                                lane,
                                                tid,
                                                TraceKind::DispatchDequeue,
                                                i as u16,
                                                0,
                                                stats[i].depth(),
                                            );
                                            t.emit(
                                                lane,
                                                tid,
                                                TraceKind::CallbackStart,
                                                i as u16,
                                                0,
                                                0,
                                            );
                                        }
                                    }
                                    subs[i].invoke(out);
                                    if tid != 0 {
                                        if let (Some(t), Some(lane)) = (&tracer, lane) {
                                            t.emit(
                                                lane,
                                                tid,
                                                TraceKind::CallbackEnd,
                                                i as u16,
                                                0,
                                                0,
                                            );
                                        }
                                    }
                                    stats[i].note_executed();
                                    popped = true;
                                }
                                None => break,
                            }
                        }
                        let flushed = popped && flush_pending!();
                        popped || flushed
                    }
                };
                if p {
                    progressed = true;
                    break;
                }
            }
            if !progressed {
                // Only an active stall window may block every actor at
                // once; the window is measured in steps and the counter
                // just advanced, so it expires without progress.
                assert!(
                    cfg.stall.as_ref().is_some_and(
                        |s| step >= s.from_step && step < s.from_step.saturating_add(s.steps)
                    ),
                    "stepped dispatch deadlocked at step {step}: no actor can run \
                     and no stall window is active"
                );
            }
        }

        let arena_bytes = tracker.arena_bytes();
        self.gauges()
            .worker_update(0, &tracker.stats, 0, 0, arena_bytes, max_ts);
        let total_bytes: u64 = packets.iter().map(|(f, _)| f.len() as u64).sum();
        let nic = PortStatsSnapshot {
            rx_offered: packets.len() as u64,
            rx_delivered: packets.len() as u64,
            rx_bytes: total_bytes,
            ..PortStatsSnapshot::default()
        };
        let dispatch: Vec<DispatchSnapshot> = stats.iter().map(DispatchStats::snapshot).collect();
        // Same assembly as the threaded run: final-configuration rows in
        // registration order (folding in same-name counters banked at
        // the swap point), then never-re-added removed names sorted.
        let mut tally_map: BTreeMap<String, SubTally> = BTreeMap::new();
        for (name, t) in banked {
            tally_map.entry(name).or_default().merge(&t);
        }
        let mut sub_reports: Vec<SubReport> = Vec::with_capacity(n);
        for ((sub, t), d) in subs.iter().zip(&tracker.sub_tallies).zip(&dispatch) {
            let mut report = SubReport {
                name: sub.name().to_string(),
                delivered: t.delivered,
                discarded: t.discarded,
                cb_executed: d.executed,
                cb_dropped_full: d.dropped_full,
                cb_dropped_disconnected: d.dropped_disconnected,
                queue_depth_peak: d.depth_peak,
                queue_capacity: d.capacity,
            };
            if let Some(bt) = tally_map.remove(&report.name) {
                report.delivered += bt.delivered;
                report.discarded += bt.discarded;
            }
            for (rname, rs) in &retired {
                if *rname == report.name {
                    report.cb_executed += rs.executed;
                    report.cb_dropped_full += rs.dropped_full;
                    report.cb_dropped_disconnected += rs.dropped_disconnected;
                    report.queue_depth_peak = report.queue_depth_peak.max(rs.depth_peak);
                }
            }
            sub_reports.push(report);
        }
        for (name, t) in tally_map {
            let mut report = SubReport {
                name,
                delivered: t.delivered,
                discarded: t.discarded,
                cb_executed: 0,
                cb_dropped_full: 0,
                cb_dropped_disconnected: 0,
                queue_depth_peak: 0,
                queue_capacity: 0,
            };
            for (rname, rs) in &retired {
                if *rname == report.name {
                    report.cb_executed += rs.executed;
                    report.cb_dropped_full += rs.dropped_full;
                    report.cb_dropped_disconnected += rs.dropped_disconnected;
                    report.queue_depth_peak = report.queue_depth_peak.max(rs.depth_peak);
                    report.queue_capacity = report.queue_capacity.max(rs.capacity);
                }
            }
            sub_reports.push(report);
        }
        let mut report = RunReport {
            // Virtual time: wall-clock metrics are meaningless here.
            elapsed: Duration::ZERO,
            nic,
            cores: tracker.stats,
            subs: sub_reports,
            sim_duration_ns: max_ts,
            mbuf_high_water: 0,
            conn_arena_bytes: arena_bytes,
            filter_warnings: self.filter_warnings().to_vec(),
            trace: None,
        };
        if let Some(t) = &tracer {
            if report.check_accounting().is_err() {
                t.trigger(TriggerReason::AccountingFailure, 0);
            }
            report.trace = Some(t.report());
        }
        report
    }
}

impl MultiRuntime<CompiledFilter> {
    /// Runs a stepped schedule with one live reconfiguration applied
    /// mid-run: when the RX cursor reaches `at_packet` (clamped to the
    /// frame count, so a large index swaps just before the final
    /// drain), the old configuration is quiesced, connection state is
    /// rebound under `spec`'s freshly compiled filter, and the run
    /// continues under the new subscription table — the deterministic
    /// mirror of [`crate::SwapController::swap`] on a threaded run.
    ///
    /// Validation is identical to the threaded path: `spec` compiles
    /// through the filter analyzer (E-codes reject the swap before
    /// anything changes; W-codes surface in the report's
    /// [`RunReport::filter_warnings`]), and survivors are matched to the
    /// running table by name.
    ///
    /// # Errors
    /// Returns the same [`SwapError`]s as [`crate::SwapController::swap`]:
    /// rejected filter sources, spec violations (empty table, duplicate
    /// names). `NotRunning` and `HwFilter` cannot occur (a stepped run
    /// has no epoch machinery and no device in front of it).
    ///
    /// # Panics
    /// Panics if the schedule deadlocks, exactly as
    /// [`MultiRuntime::run_stepped`] does.
    pub fn run_stepped_with_swap(
        &self,
        packets: &[(Bytes, u64)],
        cfg: &StepConfig,
        at_packet: u64,
        spec: &SwapSpec,
    ) -> Result<RunReport, SwapError> {
        let prepared = crate::reconfig::prepare(spec, &self.subs, &self.config)?;
        let warnings = prepared.warnings;
        let sw = StepSwap {
            at_packet,
            filter: prepared.filter,
            subs: prepared.subs,
            modes: prepared.modes,
            remap: prepared.remap,
        };
        let mut report = self.run_stepped_inner(packets, cfg, Some(sw));
        report.filter_warnings.extend(warnings);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::executor::DispatchMode;
    use crate::runtime::RuntimeBuilder;
    use crate::subscribables::ConnRecord;
    use retina_wire::build::{build_tcp, TcpSpec};
    use retina_wire::TcpFlags;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// `conns` hand-built TCP conversations (handshake, one payload
    /// each way, FIN teardown) interleaved on the wire — enough churn
    /// to exercise queues without any RNG.
    fn frames(conns: usize) -> Vec<(Bytes, u64)> {
        let mut out = Vec::new();
        let mut ts = 0u64;
        for c in 0..conns {
            let client: std::net::SocketAddr =
                format!("10.0.{}.{}:{}", c / 250, (c % 250) + 1, 10_000 + c)
                    .parse()
                    .unwrap();
            let server: std::net::SocketAddr = "192.168.1.1:443".parse().unwrap();
            let mut push = |src, dst, seq, ack, flags, payload: &[u8]| {
                ts += 50_000;
                let frame = build_tcp(&TcpSpec {
                    src,
                    dst,
                    seq,
                    ack,
                    flags,
                    window: 65535,
                    ttl: 64,
                    payload,
                });
                out.push((Bytes::from(frame), ts));
            };
            push(client, server, 100, 0, TcpFlags::SYN, &[]);
            push(server, client, 500, 101, TcpFlags::SYN | TcpFlags::ACK, &[]);
            push(client, server, 101, 501, TcpFlags::ACK, &[]);
            push(
                client,
                server,
                101,
                501,
                TcpFlags::ACK | TcpFlags::PSH,
                b"ping",
            );
            push(
                server,
                client,
                501,
                105,
                TcpFlags::ACK | TcpFlags::PSH,
                b"pong",
            );
            push(client, server, 105, 505, TcpFlags::FIN | TcpFlags::ACK, &[]);
            push(server, client, 505, 106, TcpFlags::FIN | TcpFlags::ACK, &[]);
            push(client, server, 106, 506, TcpFlags::ACK, &[]);
        }
        out
    }

    fn build(
        mode: DispatchMode,
        hits: &Arc<AtomicU64>,
    ) -> MultiRuntime<retina_filter::CompiledFilter> {
        let h = Arc::clone(hits);
        RuntimeBuilder::new(RuntimeConfig::default())
            .subscribe_dispatched("conns", "ipv4 and tcp", mode, move |_: ConnRecord| {
                h.fetch_add(1, Ordering::Relaxed);
            })
            .build()
            .unwrap()
    }

    #[test]
    fn stepped_dispatch_matches_inline_digest() {
        let pkts = frames(200);
        let inline_hits = Arc::new(AtomicU64::new(0));
        let inline =
            build(DispatchMode::Inline, &inline_hits).run_stepped(&pkts, &StepConfig::seeded(7));
        inline.check_accounting().unwrap();
        for seed in [1u64, 2, 3] {
            let hits = Arc::new(AtomicU64::new(0));
            let rt = build(DispatchMode::dedicated(4), &hits);
            let report = rt.run_stepped(&pkts, &StepConfig::seeded(seed));
            report.check_accounting().unwrap();
            assert_eq!(
                report.deterministic_digest(),
                inline.deterministic_digest(),
                "seed {seed}"
            );
            assert_eq!(
                hits.load(Ordering::Relaxed),
                inline_hits.load(Ordering::Relaxed)
            );
        }
    }

    #[test]
    fn block_policy_parks_but_never_loses_under_stall() {
        let pkts = frames(150);
        let hits = Arc::new(AtomicU64::new(0));
        let rt = build(DispatchMode::dedicated(2), &hits);
        let cfg = StepConfig::seeded(11).with_stall(WorkerStall {
            sub: 0,
            from_step: 5,
            steps: 400,
        });
        let report = rt.run_stepped(&pkts, &cfg);
        report.check_accounting().unwrap();
        assert_eq!(report.subs[0].cb_dropped_full, 0, "Block never sheds");
        assert_eq!(report.subs[0].cb_executed, report.subs[0].delivered);
        assert_eq!(hits.load(Ordering::Relaxed), report.subs[0].cb_executed);
    }

    #[test]
    fn shed_policy_counts_drops_under_stall() {
        let pkts = frames(150);
        let hits = Arc::new(AtomicU64::new(0));
        let rt = build(DispatchMode::dedicated(2).shedding(), &hits);
        let cfg = StepConfig::seeded(11).with_stall(WorkerStall {
            sub: 0,
            from_step: 1,
            steps: 100_000,
        });
        let report = rt.run_stepped(&pkts, &cfg);
        report.check_accounting().unwrap();
        assert!(
            report.subs[0].cb_dropped_full > 0,
            "2-deep queue under a long stall must shed"
        );
        assert_eq!(
            report.subs[0].delivered,
            report.subs[0].cb_executed + report.subs[0].cb_dropped_full
        );
    }

    #[test]
    fn schedules_are_replayable() {
        let pkts = frames(100);
        let a = build(DispatchMode::shared(4), &Arc::new(AtomicU64::new(0)))
            .run_stepped(&pkts, &StepConfig::seeded(42));
        let b = build(DispatchMode::shared(4), &Arc::new(AtomicU64::new(0)))
            .run_stepped(&pkts, &StepConfig::seeded(42));
        assert_eq!(a.deterministic_digest(), b.deterministic_digest());
        assert_eq!(a.subs[0].cb_executed, b.subs[0].cb_executed);
    }
}
