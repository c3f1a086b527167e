//! Deterministic dispatch test harness: a virtual-time step executor.
//!
//! [`MultiRuntime::run`] proves nothing about dispatch correctness by
//! itself — thread scheduling hides interleavings, and a test that
//! passes under one kernel scheduler may never exercise the full-ring
//! or worker-starved paths at all. [`MultiRuntime::run_stepped`] removes
//! the scheduler from the picture: it drives the *same*
//! [`CorePipeline`] a threaded RX core runs (and, for inline
//! subscriptions, the same counting sink) on one thread, interleaving
//! an RX actor and one virtual worker per dispatched subscription under
//! a seeded schedule. The one thing it models rather than runs is the
//! dispatch rings: bounded queues and parked sends in virtual time.
//! Every interleaving is a pure function of [`StepConfig::seed`], so a
//! failing schedule replays bit for bit.
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

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use retina_filter::{CompiledFilter, FilterFns};
use retina_nic::{Mbuf, PortStatsSnapshot};
use retina_support::bytes::Bytes;
use retina_support::rand::{RngExt, SeedableRng, SmallRng};
use retina_telemetry::trace::{TraceDropCode, TraceHwAction};
use retina_telemetry::{DispatchSnapshot, DispatchStats, TraceKind, Tracer, TriggerReason};

use crate::erased::{ErasedOutput, ErasedSink, ErasedSubscription};
use crate::executor::{ring_capacity, DispatchMode, InlineSink, QueuePolicy};
use crate::pipeline::{CorePipeline, Transport};
use crate::reconfig::{PreparedSwap, StepSwap, SwapError, SwapSpec};
use crate::runtime::{sub_reports, MultiRuntime, RunReport};

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
    /// RX steps between connection-timeout sweeps (the
    /// [`CorePipeline::advance`] cadence; the threaded worker sweeps
    /// every 64 bursts).
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

/// One subscription's lane through the virtual dispatch fabric.
enum Lane {
    /// Runs on the RX actor, through the threaded fabric's own
    /// [`InlineSink`]: same accounting, same tracepoint order. Spec-only
    /// subscriptions stay here in every mode (exactly as
    /// `channel_dispatcher` forces them).
    Inline(InlineSink<DispatchStats>),
    /// Crosses a bounded queue to the subscription's virtual worker.
    Queued {
        queue: VecDeque<(u64, ErasedOutput)>,
        cap: usize,
        policy: QueuePolicy,
        stats: DispatchStats,
    },
}

impl Lane {
    fn stats(&self) -> &DispatchStats {
        match self {
            Lane::Inline(sink) => &sink.stats,
            Lane::Queued { stats, .. } => stats,
        }
    }

    fn into_stats(self) -> DispatchStats {
        match self {
            Lane::Inline(sink) => sink.stats,
            Lane::Queued { stats, .. } => stats,
        }
    }
}

/// The stepped [`Transport`]: the dispatch fabric in virtual time.
/// Rings are plain bounded queues, and a blocked SPSC `send` is a
/// holding buffer the RX actor must flush — in FIFO order — before it
/// reads the next frame.
struct StepFabric {
    subs: Vec<Arc<dyn ErasedSubscription>>,
    lanes: Vec<Lane>,
    /// The blocked-RX holding buffer: results a real RX core would be
    /// spinning on in a blocking SPSC send.
    pending: VecDeque<(usize, u64, ErasedOutput)>,
    /// Queued subscriptions, one virtual worker each (actor `k + 1`
    /// runs `workers[k]`, on worker lane `k`).
    workers: Vec<usize>,
    tracer: Option<Arc<Tracer>>,
}

/// An RX-lane tracepoint of the virtual fabric (sampled flows only).
fn emit_rx(tracer: Option<&Arc<Tracer>>, tid: u64, kind: TraceKind, sub: usize, b: u64) {
    if tid != 0 {
        if let Some(t) = tracer {
            t.emit(t.rx_lane(0), tid, kind, sub as u16, 0, b);
        }
    }
}

impl StepFabric {
    /// Builds the fabric for one subscription table. `stats_for(j, cap)`
    /// supplies subscription `j`'s dispatch counters (fresh ones, or a
    /// swap survivor's).
    fn new(
        subs: &[Arc<dyn ErasedSubscription>],
        modes: &[DispatchMode],
        tracer: Option<&Arc<Tracer>>,
        mut stats_for: impl FnMut(usize, u64) -> DispatchStats,
    ) -> Self {
        let lanes: Vec<Lane> = subs
            .iter()
            .zip(modes)
            .enumerate()
            .map(|(j, (sub, mode))| {
                let cap = ring_capacity(&**sub, *mode, 1);
                let stats = stats_for(j, cap);
                if cap == 0 {
                    Lane::Inline(InlineSink {
                        inner: sub.inline_sink(),
                        stats,
                        tracer: tracer.cloned(),
                        lane: tracer.map_or(0, |t| t.rx_lane(0)),
                        sub_idx: j as u16,
                    })
                } else {
                    Lane::Queued {
                        queue: VecDeque::with_capacity(cap as usize),
                        cap: cap as usize,
                        policy: mode.policy(),
                        stats,
                    }
                }
            })
            .collect();
        let workers = (0..lanes.len())
            .filter(|&j| matches!(lanes[j], Lane::Queued { .. }))
            .collect();
        StepFabric {
            subs: subs.to_vec(),
            lanes,
            pending: VecDeque::new(),
            workers,
            tracer: tracer.cloned(),
        }
    }

    /// Nothing parked and nothing queued.
    fn idle(&self) -> bool {
        self.pending.is_empty()
            && self.lanes.iter().all(|l| match l {
                Lane::Inline(_) => true,
                Lane::Queued { queue, .. } => queue.is_empty(),
            })
    }

    /// Moves parked sends into their queues, in park order, until the
    /// head's queue is full. Returns whether anything moved.
    fn flush_pending(&mut self) -> bool {
        let mut moved = false;
        while let Some(&(i, _, _)) = self.pending.front() {
            let Lane::Queued {
                queue, cap, stats, ..
            } = &mut self.lanes[i]
            else {
                unreachable!("only queued lanes park sends");
            };
            if queue.len() >= *cap {
                break;
            }
            let (_, tid, out) = self.pending.pop_front().expect("front checked above");
            queue.push_back((tid, out));
            // No tracepoint here: the enqueue was already recorded when
            // the send parked (see `enqueue`), in the same order a
            // blocking threaded send commits.
            stats.note_enqueued();
            moved = true;
        }
        moved
    }

    /// One send on queued lane `i`: enqueue, or — on a full queue —
    /// shed with accounting or park, per the lane's policy (`QueuedSink`
    /// in virtual time, tracepoint order included).
    fn enqueue(&mut self, i: usize, tid: u64, out: ErasedOutput) {
        let tracer = self.tracer.as_ref();
        let Lane::Queued {
            queue,
            cap,
            policy,
            stats,
        } = &mut self.lanes[i]
        else {
            unreachable!("inline lanes deliver on the spot");
        };
        if queue.len() < *cap {
            queue.push_back((tid, out));
            stats.note_enqueued();
            emit_rx(tracer, tid, TraceKind::DispatchEnqueue, i, stats.depth());
            return;
        }
        match policy {
            QueuePolicy::Shed => {
                stats.note_dropped_full();
                if let Some(t) = tracer {
                    let code = TraceDropCode::DispatchShed as u64;
                    t.emit(t.rx_lane(0), tid, TraceKind::Drop, i as u16, code, 0);
                    t.trigger(TriggerReason::DispatchShed, i as u64);
                }
            }
            QueuePolicy::Block => {
                stats.note_blocked();
                // Emit the enqueue tracepoint now, not at flush: a
                // threaded RX core blocks inside the send, so its
                // enqueue events land in send order — the parked send's
                // order — never in flush order.
                emit_rx(tracer, tid, TraceKind::DispatchEnqueue, i, stats.depth());
                self.pending.push_back((i, tid, out));
            }
        }
    }

    /// Swap-time quiescence: runs every virtual worker to empty and
    /// flushes every parked send — the virtual-time form of the threaded
    /// grace period (every core acknowledges the new generation before
    /// the old epoch retires). Terminates because each pass first frees
    /// queue slots, which lets `flush_pending` move parked sends.
    fn quiesce(&mut self) {
        loop {
            self.flush_pending();
            for (lane, sub) in self.lanes.iter_mut().zip(&self.subs) {
                if let Lane::Queued { queue, stats, .. } = lane {
                    while let Some((_tid, out)) = queue.pop_front() {
                        sub.invoke(out);
                        stats.note_executed();
                    }
                }
            }
            if self.idle() {
                break;
            }
        }
    }

    /// One scheduling of virtual worker `w`: pops up to `batch` items,
    /// then lets parked sends take the freed slots. Returns whether it
    /// made progress.
    fn run_worker(&mut self, w: usize, batch: usize) -> bool {
        let i = self.workers[w];
        let Lane::Queued { queue, stats, .. } = &mut self.lanes[i] else {
            unreachable!("workers are queued lanes");
        };
        let emit = |tid: u64, kind: TraceKind, b: u64| {
            if tid != 0 {
                if let Some(t) = &self.tracer {
                    t.emit(t.worker_lane(w), tid, kind, i as u16, 0, b);
                }
            }
        };
        let mut popped = false;
        for _ in 0..batch {
            let Some((tid, out)) = queue.pop_front() else {
                break;
            };
            emit(tid, TraceKind::DispatchDequeue, stats.depth());
            emit(tid, TraceKind::CallbackStart, 0);
            self.subs[i].invoke(out);
            emit(tid, TraceKind::CallbackEnd, 0);
            stats.note_executed();
            popped = true;
        }
        popped && {
            self.flush_pending();
            true
        }
    }

    /// The fabric for the table a swap installs, built once the old one
    /// is quiesced. Removed subscriptions' counters are banked in
    /// `retired` by name; survivors carry theirs across (exactly as the
    /// threaded hub shares them), so per-name counters span the run.
    fn rebuilt<F>(
        self,
        prepared: &PreparedSwap<F>,
        retired: &mut Vec<(String, DispatchSnapshot)>,
    ) -> Self {
        for (i, m) in prepared.remap.iter().enumerate() {
            if m.is_none() {
                let snapshot = self.lanes[i].stats().snapshot();
                retired.push((self.subs[i].name().to_string(), snapshot));
            }
        }
        let mut carried: Vec<Option<DispatchStats>> = self
            .lanes
            .into_iter()
            .map(|l| Some(l.into_stats()))
            .collect();
        StepFabric::new(
            &prepared.subs,
            &prepared.modes,
            self.tracer.as_ref(),
            |j, cap| {
                let survivor = prepared.survivor(j).and_then(|i| carried[i].take());
                survivor.unwrap_or_else(|| DispatchStats::with_capacity(cap))
            },
        )
    }
}

impl Transport for StepFabric {
    #[inline]
    fn deliver(&mut self, sub: usize, trace_id: u64, out: ErasedOutput) {
        match &self.lanes[sub] {
            Lane::Inline(sink) => sink.deliver(out, trace_id),
            Lane::Queued { .. } => self.enqueue(sub, trace_id, out),
        }
    }

    #[inline]
    fn deliver_from_mbuf(&mut self, sub: usize, mbuf: &Mbuf, trace_id: u64) -> bool {
        match &self.lanes[sub] {
            Lane::Inline(sink) => sink.deliver_from_mbuf(mbuf, trace_id),
            // Crosses to a worker: the datum must be boxed for the queue.
            Lane::Queued { .. } => match self.subs[sub].output_from_mbuf(mbuf) {
                Some(out) => {
                    self.enqueue(sub, trace_id, out);
                    true
                }
                None => false,
            },
        }
    }
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

    pub(crate) fn run_stepped_inner(
        &self,
        packets: &[(Bytes, u64)],
        cfg: &StepConfig,
        mut swap: Option<StepSwap<F>>,
    ) -> RunReport {
        // Virtual-clock tracer: lane layout as in the threaded run
        // (ingest, one RX core, one lane per virtual worker), timestamps
        // are the step counter, so a (frames, config) pair fully
        // determines every recorded event. Lane count covers the larger
        // of the pre- and post-swap worker sets so a swap that adds
        // dispatched subscriptions never runs out of lanes.
        let queued = |subs: &[Arc<dyn ErasedSubscription>], modes: &[DispatchMode]| {
            let caps = subs
                .iter()
                .zip(modes)
                .map(|(s, m)| ring_capacity(&**s, *m, 1));
            caps.filter(|&cap| cap > 0).count()
        };
        let max_workers = queued(&self.subs, &self.modes)
            .max(
                swap.as_ref()
                    .map_or(0, |sw| queued(&sw.prepared.subs, &sw.prepared.modes)),
            )
            .max(1);
        let tracer = self
            .trace_config
            .clone()
            .map(|tc| Arc::new(Tracer::new_virtual(tc, 1, max_workers)));

        let mut fabric = StepFabric::new(&self.subs, &self.modes, tracer.as_ref(), |_, cap| {
            DispatchStats::with_capacity(cap)
        });
        let mut pipeline = CorePipeline::new(
            Arc::clone(&self.filter),
            &self.subs,
            &self.config,
            tracer.as_ref().map(|t| (Arc::clone(t), t.rx_lane(0))),
        );
        let shed = self.shed_state();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        // Dispatch counters of subscriptions removed by a mid-run swap,
        // banked at the swap point and folded back into the final
        // report by name.
        let mut retired: Vec<(String, DispatchSnapshot)> = Vec::new();
        let mut chaos_fired = false;

        let mut next_pkt = 0usize;
        let mut drained = false;
        let mut step = 0u64;
        let mut since_advance = 0usize;

        while !(next_pkt >= packets.len() && drained && fabric.idle()) {
            step += 1;
            if let Some(t) = &tracer {
                t.set_virtual_time(step);
            }
            // Snapshot the actor count: a swap inside the RX actor may
            // rebuild the worker set, but it always reports progress,
            // breaking this sweep before the stale bound could be used.
            let actors = 1 + fabric.workers.len();
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
                    let mut p = fabric.flush_pending();
                    // A scheduled swap fires once the RX cursor reaches
                    // its packet index (clamped so a swap "after the
                    // last packet" still lands before the final drain),
                    // but never while a parked send is outstanding: a
                    // blocked RX core cannot pick up a new epoch
                    // mid-send in the threaded runtime either.
                    if fabric.pending.is_empty()
                        && swap.as_ref().is_some_and(|sw| {
                            next_pkt as u64 >= sw.at_packet.min(packets.len() as u64)
                        })
                    {
                        let prepared = swap.take().expect("checked above").prepared;
                        // Quiesce the old configuration: every queued
                        // result executes under the epoch that produced
                        // it before the table changes. Drains of removed
                        // subscriptions then route through the OLD
                        // fabric — their sinks, their queues, their
                        // counters — and quiesce again.
                        fabric.quiesce();
                        pipeline.adopt(
                            Arc::clone(&prepared.filter),
                            &prepared.subs,
                            &prepared.remap,
                            &mut fabric,
                        );
                        fabric.quiesce();
                        fabric = fabric.rebuilt(&prepared, &mut retired);
                        p = true;
                    }
                    if !fabric.pending.is_empty() {
                        // Blocked in a send: reads nothing.
                    } else if next_pkt < packets.len() {
                        pipeline.set_shed_parsing(shed.parsing_shed());
                        let end = (next_pkt + cfg.rx_batch.max(1)).min(packets.len());
                        for (seq, (frame, ts)) in (next_pkt..end).zip(&packets[next_pkt..end]) {
                            let Some((mbuf, pkt)) = pipeline.ingest_frame(frame.clone(), *ts)
                            else {
                                continue;
                            };
                            if let Some(t) = &tracer {
                                // Ingest lane, as the virtual NIC
                                // records it: one Rx and one HwVerdict
                                // (RSS, queue 0 — a stepped run has a
                                // single RX core and no hardware rules
                                // in front of it).
                                let tid = t.sample_flow(mbuf.rss_hash);
                                if tid != 0 {
                                    let lane = t.ingest_lane();
                                    let len = mbuf.len() as u64;
                                    t.emit(lane, tid, TraceKind::Rx, 0, len, seq as u64);
                                    let rss = TraceHwAction::Rss as u64;
                                    t.emit(lane, tid, TraceKind::HwVerdict, 0, rss, 0);
                                }
                            }
                            pipeline.on_packet(&mbuf, &pkt, &mut fabric);
                        }
                        next_pkt = end;
                        since_advance += 1;
                        if since_advance >= cfg.advance_every.max(1) {
                            since_advance = 0;
                            pipeline.advance(&mut fabric);
                        }
                        p = true;
                    } else if !drained {
                        pipeline.drain(&mut fabric);
                        drained = true;
                        p = true;
                    }
                    p
                } else if stall_blocks(cfg.stall.as_ref(), fabric.workers[actor - 1], step) {
                    // First activation of the fault window freezes the
                    // flight recorder, exactly as the chaos layer's
                    // fault hook does in a threaded run.
                    if !chaos_fired {
                        chaos_fired = true;
                        if let Some(t) = &tracer {
                            t.trigger(TriggerReason::ChaosFault, fabric.workers[actor - 1] as u64);
                        }
                    }
                    false
                } else {
                    fabric.run_worker(actor - 1, cfg.worker_batch.max(1))
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

        let arena_bytes = pipeline.tracker().arena_bytes();
        let max_ts = pipeline.max_ts();
        let (cores, tallies) = pipeline.finish();
        self.gauges()
            .worker_update(0, &cores, 0, 0, arena_bytes, max_ts);
        let total_bytes: u64 = packets.iter().map(|(f, _)| f.len() as u64).sum();
        let nic = PortStatsSnapshot {
            rx_offered: packets.len() as u64,
            rx_delivered: packets.len() as u64,
            rx_bytes: total_bytes,
            ..PortStatsSnapshot::default()
        };
        let dispatch: Vec<DispatchSnapshot> =
            fabric.lanes.iter().map(|l| l.stats().snapshot()).collect();
        let mut report = RunReport {
            // Virtual time: wall-clock metrics are meaningless here.
            elapsed: Duration::ZERO,
            nic,
            cores,
            subs: sub_reports(&fabric.subs, &dispatch, tallies, &retired),
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
    /// form of [`crate::SwapController::swap`] on a threaded run.
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
        let mut prepared = crate::reconfig::prepare(spec, &self.subs, &self.config)?;
        let warnings = std::mem::take(&mut prepared.warnings);
        let sw = StepSwap {
            at_packet,
            prepared,
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
