//! Deterministic test harness: a virtual-time step executor.
//!
//! [`MultiRuntime::run`] proves nothing about dispatch or swap
//! correctness by itself — thread scheduling hides interleavings, and a
//! test that passes under one kernel scheduler may never exercise the
//! full-ring or worker-starved paths at all. [`MultiRuntime::run_stepped`]
//! removes the scheduler from the picture: on one thread, it drives
//! `config.cores` RX cores, each reading its own RSS queue of the frames,
//! through the *same* per-burst body a threaded core runs (`RxCore::turn`)
//! over the *same* delivery fabric ([`crate::executor`]'s sinks and SPSC
//! rings) and epoch protocol (`EpochState`: open, publish, the grace
//! predicate, retire). A virtual worker is the harness running one (core,
//! subscription) ring's drain itself; an old epoch's workers stay actors
//! until it retires, as its threads would until joined. What the harness
//! models rather than runs is only what a kernel scheduler would decide:
//! a send a full ring blocks parks instead of spinning, and who runs next
//! is drawn from [`StepConfig::seed`] — so every interleaving is a pure
//! function of the seed and a failing schedule replays bit for bit.
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
//! * **Isolation** — a callback stall holding one subscription's
//!   workers must not stall its siblings (their queues keep draining
//!   while the stalled queue backs up).
//! * **Cut invariance** — [`StepConfig::rx_batch`] changes neither
//!   what is delivered nor which connections expire: the pipeline
//!   sweeps right after every [`crate::SWEEP_EVERY`]th frame a core
//!   receives, as under every other driver.
//!
//! Virtual time means real time never appears: step `n` is `n ×`
//! [`STEP_NS`] ns into the run, a delay `d` the runtime NIC's fault hooks
//! inject (a `FaultPlan`, read as a threaded run reads it) is ⌈d /
//! `STEP_NS`⌉ steps its actor cannot be scheduled, and a blocked RX core
//! is modeled by its parked sends, which must move into their rings (in
//! park order, as a threaded RX core's one blocked send would) before the
//! core reads, adopts or exits. No [`crate::SwapController`] reaches the
//! run's own epoch state; its monitor and governor tick between steps.

// Narrowing casts in this file are intentional: packet counts and
// subscription indices narrow to compact counter fields by design.
#![allow(clippy::cast_possible_truncation)]

use std::sync::Arc;
use std::time::Duration;

use retina_filter::{CompiledFilter, FilterFns};
use retina_nic::{PortStatsSnapshot, RedirectionTable, RssHasher};
use retina_support::bytes::Bytes;
use retina_support::rand::{RngExt, SeedableRng, SmallRng};
use retina_telemetry::Tracer;
use retina_wire::ParsedPacket;

use crate::config::RuntimeConfig;
use crate::executor::{ring_capacity, WorkerRing};
use crate::monitor::closing_ticks;
use crate::reconfig::{prepare, EpochState, Grace, PreparedSwap, SwapError, SwapSpec};
use crate::report::RunReport;
use crate::runtime::{CoreTotals, MultiRuntime, Read, RxCore, Turn};

/// Virtual nanoseconds per step, for a stepped run's clock, delays and monitor.
pub const STEP_NS: u64 = 1_000;

/// Parameters of one stepped run. Everything that could perturb the
/// interleaving is explicit here or in the fault hooks installed on
/// the runtime's NIC, so frames, config and the installed plan fully
/// determine the run. None of it changes what a core delivers or which
/// connections expire: each core's pipeline sweeps on its own frame
/// count, however many frames a step hands it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepConfig {
    /// Seed of the actor schedule (which actor — RX or a worker — runs
    /// each step).
    pub seed: u64,
    /// Frames the RX actor processes per step it is scheduled.
    pub rx_batch: usize,
    /// Items a virtual worker pops per step it is scheduled.
    pub worker_batch: usize,
}

impl Default for StepConfig {
    fn default() -> Self {
        StepConfig {
            seed: 0,
            rx_batch: 4,
            worker_batch: 4,
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
}

/// An actor's injected delay: no turn before step `until`. `held` is
/// the item it was held before (0 for an RX core's epoch pickup), which
/// then runs without asking the fault hook again.
#[derive(Clone, Copy, Default)]
pub(crate) struct Hold {
    until: u64,
    held: Option<u64>,
}

impl Hold {
    /// A hold from `step` for ⌈d / [`STEP_NS`]⌉ steps of the delay `d`
    /// the fault layer injects, if any.
    fn after(step: u64, delay: Option<Duration>) -> Self {
        let steps = delay.map_or(0, |d| d.as_nanos().div_ceil(u128::from(STEP_NS)));
        let until = step.saturating_add(u64::try_from(steps).unwrap_or(u64::MAX));
        Hold { until, held: None }
    }

    /// Whether `item` may run at `step`: its delay is served, or `delay`
    /// (the fault hook's answer) injects none; else the actor holds.
    fn pass(&mut self, item: u64, step: u64, delay: impl FnOnce() -> Option<Duration>) -> bool {
        if self.held.take_if(|held| *held == item).is_some() {
            return true;
        }
        *self = Hold::after(step, delay());
        self.held = (self.until > step).then_some(item);
        self.held.is_none()
    }
}

/// One RX actor: an RX core, its RSS queue as indices of the frames
/// (`None`: all of them, one core's), how many it has read, its hold.
struct RxActor<'a, F: FilterFns + 'static> {
    rx: RxCore<'a, F>,
    queue: Option<Vec<usize>>,
    next: usize,
    hold: Hold,
}

/// RX actor `core`: core 0 lives in the harness's stack frame (as a
/// threaded core's pipeline on its thread's stack, its burst scratch is
/// never on the heap), its siblings in a vector.
fn pick<'b, T>(first: &'b mut T, rest: &'b mut [T], core: usize) -> &'b mut T {
    match core.checked_sub(1) {
        None => first,
        Some(i) => &mut rest[i],
    }
}

/// One virtual worker: the consumer end of one ring of epoch `generation`
/// that no thread drains, which RX core `core` produces into. `lane` is
/// its index among its epoch's rings: its worker lane, wrapped. It has
/// run `ran` of its subscription's items, and holds with its siblings.
pub(crate) struct VirtualWorker {
    pub(crate) generation: u64,
    pub(crate) core: usize,
    pub(crate) lane: usize,
    pub(crate) ring: Box<dyn WorkerRing>,
    pub(crate) ran: u64,
    pub(crate) hold: Hold,
}

/// Each RX core's queue of `packets`, as frame indices: the virtual NIC's
/// symmetric RSS hash and redirection table, with no hardware rule and no
/// sink in front (an unparsed frame hashes to 0, as on the NIC). Empty at
/// one core, whose queue is the whole slice, unhashed.
fn rss_queues(packets: &[(Bytes, u64)], config: &RuntimeConfig) -> Vec<Vec<usize>> {
    let cores = config.cores;
    if cores == 1 {
        return Vec::new();
    }
    let rss = RssHasher::symmetric();
    let reta = RedirectionTable::new(config.device.reta_size, cores);
    let mut queues = vec![Vec::new(); usize::from(cores)];
    for (i, (frame, _)) in packets.iter().enumerate() {
        let hash = ParsedPacket::parse(frame).map_or(0, |pkt| rss.hash_packet(&pkt));
        queues[usize::from(reta.lookup(hash))].push(i);
    }
    queues
}

impl<F: FilterFns + 'static> MultiRuntime<F> {
    /// Runs the pipeline over `packets` on the current thread under a
    /// seeded virtual-time schedule (see the module docs), on
    /// `config.cores` RX cores. Frames are `(bytes, timestamp-ns)` pairs,
    /// exactly what a [`crate::TrafficSource`] batch yields.
    ///
    /// The run honours each subscription's [`crate::DispatchMode`] and
    /// [`crate::QueuePolicy`] over the threaded run's own bounded rings —
    /// parked sends, counted sheds — without spawning a single thread,
    /// and fabricates a loss-free NIC snapshot (no device sits in front
    /// of a stepped run), so [`RunReport::check_accounting`] applies
    /// unchanged. Like [`MultiRuntime::run`], it takes the monitor and
    /// governor set for it (their samples read the NIC's counters as 0).
    ///
    /// # Panics
    /// Panics if the schedule deadlocks, which is impossible unless the
    /// dispatch invariants are broken (that is the point of the assert).
    pub fn run_stepped(&mut self, packets: &[(Bytes, u64)], cfg: &StepConfig) -> RunReport {
        self.run_stepped_inner(packets, cfg, None)
    }

    /// The harness, publishing `swap`'s table once the RX cursor (frames
    /// read across cores) reaches its packet index.
    fn run_stepped_inner(
        &mut self,
        packets: &[(Bytes, u64)],
        cfg: &StepConfig,
        mut swap: Option<(u64, PreparedSwap<F>)>,
    ) -> RunReport {
        // Virtual-clock tracer: lane layout as in the threaded run
        // (ingest, one lane per RX core, one per ring of the first epoch,
        // onto which a swap's rings wrap as a threaded swap's workers do);
        // timestamps are the step counter, so frames, config and fault
        // plan fully determine every recorded event.
        let cores = self.config.cores;
        let tracer = self.trace_config.clone().map(|tc| {
            let subs = self.subs.iter().zip(self.modes.iter());
            let queued = subs
                .filter(|(s, m)| ring_capacity(&***s, **m, 1) > 0)
                .count();
            let rings = (queued * usize::from(cores)).max(1);
            Arc::new(Tracer::new_virtual(tc, usize::from(cores), rings))
        });
        let mut samplers = self.samplers(tracer.as_ref());
        let (config, nic, trace) = (&self.config, self.nic(), tracer.as_deref());
        let epochs = EpochState::new(usize::from(cores), None, self.gauges());
        let mut workers = epochs.open(self, tracer.as_ref());
        let mut queues = rss_queues(packets, config).into_iter();
        let lanes = trace.map_or(1, |t| t.lane_count() - t.worker_lane(0));
        // An injected slowdown holds a core before each poll, its first too.
        let slowdown = |core| nic.fault_worker_delay(core);
        let actor = |core, queue| RxActor {
            rx: RxCore::new(core, &epochs, config, tracer.as_ref()),
            queue,
            next: 0,
            hold: Hold::after(0, slowdown(core)),
        };
        let mut first = actor(0, queues.next());
        let mut rest: Vec<_> = (1..cores).map(|core| actor(core, queues.next())).collect();

        let shed = self.shed_state();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let (mut step, mut cursor) = (0u64, 0u64);
        let mut grace: Option<Grace<F>> = None;
        let mut warnings = self.filter_warnings().to_vec();
        let done = |first: &RxActor<'_, F>, rest: &[RxActor<'_, F>], workers: &[VirtualWorker]| {
            let mut rx = std::iter::once(first).chain(rest);
            rx.all(|a| a.rx.finished()) && workers.iter().all(|w| w.ring.is_empty())
        };
        while !done(&first, &rest, &workers) {
            step += 1;
            if let Some(t) = &tracer {
                t.set_virtual_time(step);
            }
            // Samplers tick at their due times, drawing nothing from the schedule.
            for sampler in &mut samplers {
                while sampler.due() <= step * STEP_NS {
                    sampler.tick(sampler.due());
                }
            }
            // The swap's publisher: it publishes once the cursor reaches
            // the swap's index (clamped, so a swap "after the last packet"
            // lands before the last core's final drain), then polls the
            // grace predicate; the retire also waits for the old epoch's
            // rings to run dry, as a threaded retire joins its workers.
            let len = packets.len() as u64;
            if let Some((_, table)) = swap.take_if(|(at, _)| cursor >= (*at).min(len)) {
                let mut rows = epochs.rows.lock().unwrap();
                let requested_at = epochs.base.elapsed();
                let (published, rings) = epochs
                    .publish_swap(&mut rows, table, requested_at, config)
                    .expect("a stepped run is open and stages no hardware rules");
                workers.extend(rings);
                grace = Some(published);
            }
            if let Some(g) = grace.take_if(|g| {
                let dry =
                    |w: &VirtualWorker| w.generation >= g.event.generation || w.ring.is_empty();
                epochs.grace_over(g) && workers.iter().all(dry)
            }) {
                workers.retain(|w| w.generation >= g.event.generation);
                warnings.extend(epochs.retire(g).warnings);
            }

            let actors = usize::from(cores) + workers.len();
            let choice = rng.random_range(0..actors);
            // Try the scheduled actor first; fall back through the rest
            // so a blocked or held actor never masks available progress
            // (the schedule stays a pure function of the seed either way).
            let progressed = (0..actors).any(|k| {
                let actor = (choice + k) % actors;
                if let Some(i) = actor.checked_sub(usize::from(cores)) {
                    // One thread runs an epoch's items of a subscription: their
                    // sequence spans its workers, and a delay holds them all.
                    let key = |w: &VirtualWorker| (w.generation, w.ring.sub_idx());
                    let (group, sub) = (key(&workers[i]), workers[i].ring.sub_idx());
                    let mine = |w: &&VirtualWorker| key(w) == group;
                    let seq: u64 = workers.iter().filter(mine).map(|w| w.ran).sum();
                    let w = &mut workers[i];
                    let lane = trace.map(|t| (t, t.worker_lane(w.lane % lanes)));
                    let (batch, mut ran) = (cfg.worker_batch.max(1) as u64, 0);
                    while w.hold.until <= step && ran < batch && !w.ring.is_empty() {
                        let n = seq + ran;
                        if w.hold.pass(n, step, || nic.fault_callback_delay(sub, n)) {
                            ran += w.ring.drain(lane, 1, &mut || {}).0 as u64;
                        }
                    }
                    let (core, hold) = (w.core, w.hold);
                    w.ran += ran;
                    for w in workers.iter_mut().filter(|w| key(w) == group) {
                        w.hold = hold;
                    }
                    if ran > 0 {
                        // The freed slots let the core's parked sends move.
                        pick(&mut first, &mut rest, core).rx.sinks.flush_parked();
                    }
                    return ran > 0;
                }
                let (a, core) = (pick(&mut first, &mut rest, actor), actor as u16);
                // Parked sends move first: a blocked send stalls the
                // whole RX core, exactly like the threaded runtime.
                let moved = a.hold.until <= step && a.rx.sinks.flush_parked();
                // An injected pickup stall holds the core at its safe point.
                let pickup = !a.rx.sinks.is_parked() && a.rx.pickup_due();
                let delay = || nic.fault_swap_pickup_delay(core);
                if a.hold.until > step || pickup && !a.hold.pass(0, step, delay) {
                    return moved;
                }
                let queue = a.queue.as_deref();
                let len = queue.map_or(packets.len(), <[usize]>::len);
                let frame = move |k: usize| queue.map_or(&packets[k], |q| &packets[q[k]]);
                let (next, cursor, hold) = (&mut a.next, &mut cursor, &mut a.hold);
                // One RX turn is one burst; the burst after it is the
                // look-ahead. (No NIC in front: the pipeline records
                // the ingest lane's Rx and HwVerdict itself, labelled
                // by arrival index.)
                let read = move || {
                    if *next >= len {
                        return Read::End;
                    }
                    let (start, batch) = (*next, cfg.rx_batch.max(1));
                    let end = (start + batch).min(len);
                    (*next, *cursor) = (end, *cursor + (end - start) as u64);
                    let ahead = (end..(end + batch).min(len)).map(move |k| &frame(k).0);
                    *hold = Hold::after(step, slowdown(core));
                    Read::Burst(((start..end).map(frame), ahead))
                };
                match a.rx.turn(&shed, read) {
                    Turn::Ran => true,
                    Turn::Wait | Turn::Exited => moved,
                }
            });
            if !progressed {
                // Only injected delays hold every actor at once: the clock
                // jumps to the first release, so a long one costs no step.
                let rx = std::iter::once(&first).chain(&rest).map(|a| a.hold.until);
                let holds = rx.chain(workers.iter().map(|w| w.hold.until));
                let release = holds.filter(|&until| until > step).min();
                step = release.expect("stepped dispatch deadlocked: no actor runs or is held") - 1;
            }
        }
        for a in std::iter::once(&mut first).chain(&mut rest) {
            a.rx.exit();
        }
        warnings.extend(grace.map(|g| epochs.retire(g).warnings).unwrap_or_default());
        let rows = epochs.close(nic);
        let mut totals = CoreTotals::default();
        for a in std::iter::once(first).chain(rest) {
            totals.merge(a.rx.finish());
        }
        let (rx_bytes, max_ts) =
            (packets.iter()).fold((0, 0), |(b, m), (f, ts)| (b + f.len() as u64, m.max(*ts)));
        let nic = PortStatsSnapshot {
            rx_offered: packets.len() as u64,
            rx_delivered: packets.len() as u64,
            rx_bytes,
            ..PortStatsSnapshot::default()
        };
        // The closing ticks come due on the virtual clock without a wait.
        closing_ticks(&mut samplers, |due| due.max(step * STEP_NS));
        // Virtual time: wall-clock metrics are meaningless here.
        let mut report = totals.report(&rows, nic, Duration::ZERO, max_ts, warnings, trace);
        for sampler in samplers {
            sampler.close(&mut report);
        }
        report
    }
}

impl MultiRuntime<CompiledFilter> {
    /// Runs a stepped schedule with one live reconfiguration, through the
    /// protocol [`crate::SwapController::swap`] runs on a threaded run:
    /// once the RX cursor (frames read across cores) reaches `at_packet`
    /// — clamped to the frame count, so a large index swaps before the
    /// last core's final drain — `spec`'s table is staged and published,
    /// each core adopts it at its next burst boundary, and the old epoch
    /// retires once every core has acknowledged and its rings are dry.
    ///
    /// Validation is identical to the threaded path and happens before
    /// any packet runs: `spec` compiles through the filter analyzer
    /// (E-codes reject the swap; W-codes surface in the report's
    /// [`RunReport::filter_warnings`]), and survivors are matched to the
    /// running table by name.
    ///
    /// # Errors
    /// Returns the same [`SwapError`]s as [`crate::SwapController::swap`]:
    /// rejected filter sources, spec violations (empty table, duplicate
    /// names). `NotRunning` and `HwFilter` cannot occur (the run is open
    /// until every core has exited, and no device sits in front of it).
    ///
    /// # Panics
    /// Panics if the schedule deadlocks, exactly as
    /// [`MultiRuntime::run_stepped`] does.
    pub fn run_stepped_with_swap(
        &mut self,
        packets: &[(Bytes, u64)],
        cfg: &StepConfig,
        at_packet: u64,
        spec: &SwapSpec,
    ) -> Result<RunReport, SwapError> {
        let table = prepare(spec, &self.subs, &self.config)?;
        Ok(self.run_stepped_inner(packets, cfg, Some((at_packet, table))))
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

    /// Holds subscription `sub`'s workers for `steps` steps before its
    /// first item: this crate's tests' own `FaultHooks`, the
    /// `Fault::CallbackStall { sub, start_item: 0, items: 1, .. }` of
    /// `retina-chaos` (which depends on this crate).
    struct FirstItemStall {
        sub: u16,
        steps: u64,
    }

    impl retina_nic::FaultHooks for FirstItemStall {
        fn callback_delay(&self, sub: u16, seq: u64) -> Option<Duration> {
            let delay = Duration::from_nanos(self.steps * STEP_NS);
            (sub == self.sub && seq == 0).then_some(delay)
        }
    }

    /// Installs a [`FirstItemStall`] on `rt`'s NIC.
    fn stall<F: FilterFns>(rt: &MultiRuntime<F>, sub: u16, steps: u64) {
        rt.nic()
            .set_fault_hooks(Arc::new(FirstItemStall { sub, steps }));
    }

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
            let mut rt = build(DispatchMode::dedicated(4), &hits);
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
        let mut rt = build(DispatchMode::dedicated(2), &hits);
        stall(&rt, 0, 400);
        let report = rt.run_stepped(&pkts, &StepConfig::seeded(11));
        report.check_accounting().unwrap();
        assert_eq!(report.subs[0].cb_dropped_full, 0, "Block never sheds");
        assert_eq!(report.subs[0].cb_executed, report.subs[0].delivered);
        assert_eq!(hits.load(Ordering::Relaxed), report.subs[0].cb_executed);
    }

    #[test]
    fn shed_policy_counts_drops_under_stall() {
        let pkts = frames(150);
        let hits = Arc::new(AtomicU64::new(0));
        let mut rt = build(DispatchMode::dedicated(2).shedding(), &hits);
        stall(&rt, 0, 100_000);
        let report = rt.run_stepped(&pkts, &StepConfig::seeded(11));
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
            stall(&rt, 0, 300);
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
