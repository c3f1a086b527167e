//! Deterministic dispatch test harness: a virtual-time step executor.
//!
//! [`MultiRuntime::run`] proves nothing about dispatch correctness by
//! itself — thread scheduling hides interleavings, and a test that
//! passes under one kernel scheduler may never exercise the full-ring
//! or worker-starved paths at all. [`MultiRuntime::run_stepped`] removes
//! the scheduler from the picture: it drives the *same*
//! [`CorePipeline`] a threaded RX core runs, over the *same* delivery
//! fabric — [`crate::executor`]'s sinks and SPSC rings, built by the
//! builder a threaded epoch uses, for one core — on one thread,
//! interleaving an RX actor and one virtual worker per dispatched
//! subscription under a seeded schedule. A virtual worker is the
//! harness running that subscription's ring drain itself. What it
//! models rather than runs is only what a kernel scheduler would
//! decide: with both ends of every ring on one thread, a send the full
//! ring blocks parks instead of spinning, and who runs next is drawn
//! from [`StepConfig::seed`] — so every interleaving is a pure function
//! of the seed and a failing schedule replays bit for bit.
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
//! step numbers, and a blocked RX core is modeled by its parked sends,
//! which must move into their rings (in park order, as a threaded RX
//! core's one blocked send would) before the next frame is read.
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
use retina_telemetry::{Tracer, TriggerReason};

use crate::erased::{ErasedSubscription, TrackedSlab};
use crate::executor::{build_sinks, ring_capacity, CoreSinks, DispatchMode, WorkerRing};
use crate::pipeline::{CorePipeline, Transport};
use crate::reconfig::{StepSwap, SwapError, SwapSpec};
use crate::report::{Rows, RunReport};
use crate::runtime::{MultiRuntime, ADVANCE_EVERY_BURSTS};

/// Freezes one subscription's virtual worker for a window of steps:
/// while `step ∈ [from_step, from_step + steps)` the worker pops
/// nothing, its queue backs up, and (under [`crate::QueuePolicy::Block`]) the
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
    /// Whether `step` falls inside the stall window.
    fn active(&self, step: u64) -> bool {
        step >= self.from_step && step < self.from_step.saturating_add(self.steps)
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
    /// Optional worker freeze for isolation/backpressure tests.
    pub stall: Option<WorkerStall>,
}

impl Default for StepConfig {
    fn default() -> Self {
        StepConfig {
            seed: 0,
            rx_batch: 4,
            worker_batch: 4,
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

/// The stepped [`Transport`]: the threaded fabric's own sinks and SPSC
/// rings for one RX core, with both ends of every ring on the stepping
/// thread. A send a full ring blocks parks in its queue, and the RX
/// actor must move the parked sends into their rings — in park order,
/// across subscriptions — before it reads the next frame.
struct StepFabric {
    sinks: CoreSinks,
    /// The blocked-RX holding order: which subscription's queue holds
    /// each parked send, in park order (the sends themselves wait in
    /// their queues, typed).
    pending: VecDeque<usize>,
    /// The rings of queued subscriptions, one virtual worker each (actor
    /// `k + 1` drains `workers[k]`, on worker lane `k`).
    workers: Vec<Box<dyn WorkerRing>>,
    tracer: Option<Arc<Tracer>>,
}

impl StepFabric {
    /// Builds the fabric for the subscription table installed last in
    /// `rows`, counting into its rows.
    fn new(
        subs: &[Arc<dyn ErasedSubscription>],
        modes: &[DispatchMode],
        rows: &Rows,
        tracer: Option<&Arc<Tracer>>,
    ) -> Self {
        let mut sinks = CoreSinks::new(subs.len(), 0, tracer);
        let stats = rows.live().map(|row| rows.dispatch(row));
        let queued = build_sinks(subs, modes, stats, std::slice::from_mut(&mut sinks));
        StepFabric {
            sinks,
            pending: VecDeque::new(),
            workers: queued.into_iter().flat_map(|(_, rings)| rings).collect(),
            tracer: tracer.cloned(),
        }
    }

    /// Nothing parked and nothing queued.
    fn idle(&self) -> bool {
        self.pending.is_empty() && self.workers.iter().all(|w| w.is_empty())
    }

    /// Records a send subscription `sub`'s queue parked (ring full under
    /// `Block`).
    fn park(&mut self, sub: usize, parked: bool) {
        if parked {
            self.pending.push_back(sub);
        }
    }

    /// Moves parked sends into their rings, in park order, until the
    /// head's ring is full. Returns whether anything moved.
    fn flush_pending(&mut self) -> bool {
        let mut moved = false;
        while let Some(&sub) = self.pending.front() {
            if !self.sinks.unpark(sub) {
                break;
            }
            self.pending.pop_front();
            moved = true;
        }
        moved
    }

    /// Swap-time quiescence: runs every virtual worker to empty and
    /// flushes every parked send — the virtual-time form of the threaded
    /// grace period (every core acknowledges the new generation before
    /// the old epoch retires). Terminates because each pass first frees
    /// ring slots, which lets `flush_pending` move parked sends.
    fn quiesce(&mut self) {
        while !self.idle() {
            self.flush_pending();
            for w in 0..self.workers.len() {
                self.run_worker(w, usize::MAX);
            }
        }
    }

    /// One scheduling of virtual worker `w`: drains up to `batch` items,
    /// then lets parked sends take the freed slots. Returns whether it
    /// made progress.
    fn run_worker(&mut self, w: usize, batch: usize) -> bool {
        let trace = self.tracer.as_deref().map(|t| (t, t.worker_lane(w)));
        let (ran, _) = self.workers[w].drain(trace, batch, &mut || {});
        ran > 0 && {
            self.flush_pending();
            true
        }
    }
}

impl Transport for StepFabric {
    #[inline]
    fn deliver(&mut self, sub: usize, slab: &mut dyn TrackedSlab) {
        let parked = self.sinks.offer(sub, slab);
        self.park(sub, parked);
    }

    #[inline]
    fn deliver_from_mbuf(&mut self, sub: usize, mbuf: &Mbuf, trace_id: u64) -> bool {
        let (produced, parked) = self.sinks.offer_from_mbuf(sub, mbuf, trace_id);
        self.park(sub, parked);
        produced
    }
}

impl<F: FilterFns + 'static> MultiRuntime<F> {
    /// Runs the pipeline over `packets` on the current thread under a
    /// seeded virtual-time schedule (see the module docs). Frames are
    /// `(bytes, timestamp-ns)` pairs, exactly what a
    /// [`crate::TrafficSource`] batch yields.
    ///
    /// The run honours each subscription's [`crate::DispatchMode`] and
    /// [`crate::QueuePolicy`] over the threaded run's own bounded rings —
    /// parked sends, counted sheds — without spawning a single thread,
    /// and fabricates a loss-free NIC snapshot (no device sits in front
    /// of a stepped run), so [`RunReport::check_accounting`] applies
    /// unchanged.
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

        let mut rows = Rows::default();
        rows.install(&self.subs, &self.modes, 1);
        let mut fabric = StepFabric::new(&self.subs, &self.modes, &rows, tracer.as_ref());
        let mut pipeline = CorePipeline::new(
            Arc::clone(&self.filter),
            &self.subs,
            &self.config,
            tracer.as_ref().map(|t| (Arc::clone(t), t.rx_lane(0))),
        );
        let shed = self.shed_state();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
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
                        // rows — and quiesce again; the new fabric
                        // counts into the new table's rows.
                        fabric.quiesce();
                        rows.install(&prepared.subs, &prepared.modes, 1);
                        let map: Vec<usize> = rows.live().collect();
                        pipeline.adopt(
                            Arc::clone(&prepared.filter),
                            &prepared.subs,
                            &prepared.remap,
                            &map,
                            &mut fabric,
                        );
                        fabric.quiesce();
                        fabric = StepFabric::new(
                            &prepared.subs,
                            &prepared.modes,
                            &rows,
                            tracer.as_ref(),
                        );
                        p = true;
                    }
                    if !fabric.pending.is_empty() {
                        // Blocked in a send: reads nothing.
                    } else if next_pkt < packets.len() {
                        pipeline.set_shed_parsing(shed.parsing_shed());
                        // One RX step is one burst; the step after it
                        // is the look-ahead. (No NIC in front: the
                        // pipeline records the ingest lane's Rx and
                        // HwVerdict itself, labelled by arrival index.)
                        let batch = cfg.rx_batch.max(1);
                        let end = (next_pkt + batch).min(packets.len());
                        let ahead = &packets[end..(end + batch).min(packets.len())];
                        pipeline.on_burst(
                            &packets[next_pkt..end],
                            ahead.iter().map(|(frame, _)| frame),
                            &mut fabric,
                        );
                        next_pkt = end;
                        since_advance += 1;
                        if since_advance >= ADVANCE_EVERY_BURSTS {
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
                } else if let Some(stall) = cfg.stall.filter(|s| {
                    s.sub == usize::from(fabric.workers[actor - 1].sub_idx()) && s.active(step)
                }) {
                    // First activation of the fault window freezes the
                    // flight recorder, exactly as the chaos layer's
                    // fault hook does in a threaded run.
                    if !chaos_fired {
                        chaos_fired = true;
                        if let Some(t) = &tracer {
                            t.trigger(TriggerReason::ChaosFault, stall.sub as u64);
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
                    cfg.stall.is_some_and(|s| s.active(step)),
                    "stepped dispatch deadlocked at step {step}: no actor can run \
                     and no stall window is active"
                );
            }
        }

        let arena_bytes = pipeline.tracker().arena_bytes();
        let max_ts = pipeline.max_ts();
        let (cores, counts) = pipeline.finish();
        let total_bytes: u64 = packets.iter().map(|(f, _)| f.len() as u64).sum();
        let nic = PortStatsSnapshot {
            rx_offered: packets.len() as u64,
            rx_delivered: packets.len() as u64,
            rx_bytes: total_bytes,
            ..PortStatsSnapshot::default()
        };
        let mut report = RunReport {
            // Virtual time: wall-clock metrics are meaningless here.
            elapsed: Duration::ZERO,
            nic,
            cores,
            subs: rows.reports(&counts),
            sim_duration_ns: max_ts,
            mbuf_high_water: 0,
            conn_arena_bytes: arena_bytes,
            filter_warnings: self.filter_warnings().to_vec(),
            trace: None,
        };
        report.attach_trace(tracer.as_deref());
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

    /// Two `Block` dedicated subscriptions on 1-deep rings, one worker
    /// stalled: sends to both park behind the stalled one and leave the
    /// park in the order they were made. Each subscription's callbacks
    /// still run in emission order, the RX lane records every enqueue in
    /// send order, and the digest is the inline run's.
    #[test]
    fn parked_sends_keep_order_across_subscriptions() {
        let pkts = frames(120);
        let run = |mode: DispatchMode, cfg: &StepConfig| {
            let seen: [Arc<std::sync::Mutex<Vec<u16>>>; 2] = Default::default();
            let mut builder = RuntimeBuilder::new(RuntimeConfig::default());
            for (name, seen) in ["a", "b"].into_iter().zip(&seen) {
                let seen = Arc::clone(seen);
                builder = builder.subscribe_dispatched(name, "tcp", mode, move |r: ConnRecord| {
                    seen.lock().unwrap().push(r.tuple.orig.port());
                });
            }
            let mut rt = builder.build().unwrap();
            rt.set_trace_config(retina_telemetry::TraceConfig {
                sample_one_in: 1,
                ..retina_telemetry::TraceConfig::default()
            });
            let report = rt.run_stepped(&pkts, cfg);
            report.check_accounting().unwrap();
            let seen = seen.map(|s| std::mem::take(&mut *s.lock().unwrap()));
            (report, seen)
        };
        // The RX lane's events of `kind`, in record order.
        let rx_lane = |report: &RunReport, kind| -> Vec<retina_telemetry::TraceEvent> {
            let session = &report.trace.as_ref().expect("traced").session;
            assert_eq!(session.dropped_events, 0);
            let (_, events) = session
                .lanes
                .iter()
                .find(|(lane, _)| *lane == retina_telemetry::LaneKind::Rx(0))
                .expect("one RX lane");
            events.iter().filter(|e| e.kind == kind).copied().collect()
        };
        let flow_sub = |events: &[retina_telemetry::TraceEvent]| -> Vec<(u64, u16)> {
            events.iter().map(|e| (e.trace_id, e.sub)).collect()
        };

        let cfg = StepConfig {
            seed: 5,
            rx_batch: 16,
            worker_batch: 1,
            stall: Some(WorkerStall {
                sub: 0,
                from_step: 3,
                steps: 300,
            }),
        };
        let (inline, inline_seen) = run(DispatchMode::Inline, &cfg);
        let (queued, queued_seen) = run(DispatchMode::dedicated(1), &cfg);
        let enqueues = rx_lane(&queued, retina_telemetry::TraceKind::DispatchEnqueue);
        for sub in 0..2 {
            // Two sends to one 1-deep ring in one RX step: the second
            // parked (no worker runs inside an RX step).
            let steps: Vec<u64> = enqueues
                .iter()
                .filter(|e| e.sub == sub)
                .map(|e| e.tsc)
                .collect();
            assert!(
                steps.windows(2).any(|w| w[0] == w[1]),
                "subscription {sub} never parked a send"
            );
        }
        assert_eq!(queued_seen, inline_seen, "callbacks out of emission order");
        let sends = flow_sub(&rx_lane(
            &inline,
            retina_telemetry::TraceKind::CallbackStart,
        ));
        assert_eq!(sends.len(), 2 * 120);
        assert_eq!(flow_sub(&enqueues), sends, "enqueues out of send order");
        assert_eq!(queued.deterministic_digest(), inline.deterministic_digest());
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
