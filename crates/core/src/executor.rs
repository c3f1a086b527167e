//! Callback execution models: the multicore dispatch layer.
//!
//! §5.3 runs callbacks *inline* on the processing core ("implemented
//! inline rather than in a separate thread, which enables efficient
//! execution without cross-core communication") and leaves "support for
//! alternative callback execution models to future work". This module
//! implements that future work: per-subscription dispatch over bounded
//! SPSC rings (one ring per (RX core, subscription) pair, so no ring
//! ever has two producers) to either a **dedicated** worker — one
//! thread owning one expensive subscription — or a **shared** worker
//! pool draining every shared subscription's rings round-robin.
//!
//! The trade-off of leaving the RX core is made explicit per
//! subscription by a [`QueuePolicy`]:
//!
//! * [`QueuePolicy::Block`] — lossless. A full ring blocks the RX core;
//!   the backpressure surfaces in the RX rings (and, unpaced, as
//!   measurable loss upstream) rather than as silently missing results.
//! * [`QueuePolicy::Shed`] — isolating. A full ring drops the result
//!   *with accounting* (`dropped_full` in the per-subscription
//!   [`DispatchStats`]), so one saturated subscription can never stall
//!   the RX pipeline or its sibling subscriptions.
//!
//! Every handoff outcome is counted in [`retina_telemetry::dispatch`];
//! the worst ring occupancy feeds the overload governor as its
//! queue-pressure shed input.
//!
//! Ordering: within one (core, subscription) pair delivery is FIFO —
//! exactly the order inline execution would have used. Across cores no
//! order is promised, same as inline (workers race on shared state
//! either way).

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use retina_nic::Mbuf;
use retina_support::sync::spsc::{self, TryRecvError, TrySendError};
use retina_telemetry::{trace::TraceDropCode, DispatchStats, TraceKind, Tracer, TriggerReason};

use crate::erased::{ErasedOutput, ErasedSubscription};
use crate::pipeline::Transport;

/// What happens when a subscription's dispatch ring is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// Block the sending RX core until the worker catches up: lossless,
    /// at the price of propagating the stall upstream.
    #[default]
    Block,
    /// Drop the result and count it (`dropped_full`): the RX core and
    /// every other subscription keep running at full speed.
    Shed,
}

/// Per-subscription callback execution model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Invoke on the RX core, inline with packet processing (the
    /// paper's model; the default).
    #[default]
    Inline,
    /// Enqueue to the shared worker pool (cheap callbacks that should
    /// still leave the RX core).
    Shared {
        /// Per-(core, subscription) ring capacity.
        depth: usize,
        /// Full-ring behavior.
        policy: QueuePolicy,
    },
    /// Enqueue to a worker thread owned by this subscription alone
    /// (expensive callbacks that must not starve their siblings).
    Dedicated {
        /// Per-(core, subscription) ring capacity.
        depth: usize,
        /// Full-ring behavior.
        policy: QueuePolicy,
    },
}

impl DispatchMode {
    /// Shared-pool dispatch with the default (lossless) policy.
    #[must_use]
    pub fn shared(depth: usize) -> Self {
        DispatchMode::Shared {
            depth,
            policy: QueuePolicy::Block,
        }
    }

    /// Dedicated-worker dispatch with the default (lossless) policy.
    #[must_use]
    pub fn dedicated(depth: usize) -> Self {
        DispatchMode::Dedicated {
            depth,
            policy: QueuePolicy::Block,
        }
    }

    /// Switches this mode's full-ring behavior to [`QueuePolicy::Shed`]
    /// (no-op for inline).
    #[must_use]
    pub fn shedding(self) -> Self {
        match self {
            DispatchMode::Inline => DispatchMode::Inline,
            DispatchMode::Shared { depth, .. } => DispatchMode::Shared {
                depth,
                policy: QueuePolicy::Shed,
            },
            DispatchMode::Dedicated { depth, .. } => DispatchMode::Dedicated {
                depth,
                policy: QueuePolicy::Shed,
            },
        }
    }

    /// Per-(core, subscription) ring depth (0 for inline).
    #[must_use]
    pub fn depth(&self) -> usize {
        match self {
            DispatchMode::Inline => 0,
            DispatchMode::Shared { depth, .. } | DispatchMode::Dedicated { depth, .. } => {
                (*depth).max(1)
            }
        }
    }

    /// Full-ring policy (Block for inline, where the question never
    /// arises).
    #[must_use]
    pub fn policy(&self) -> QueuePolicy {
        match self {
            DispatchMode::Inline => QueuePolicy::Block,
            DispatchMode::Shared { policy, .. } | DispatchMode::Dedicated { policy, .. } => *policy,
        }
    }

    /// True when results cross a ring to a worker thread.
    #[must_use]
    pub fn is_dispatched(&self) -> bool {
        !matches!(self, DispatchMode::Inline)
    }
}

/// Total dispatch-ring capacity of one subscription over `cores` RX
/// cores (0 = runs inline: an inline mode, or a spec-only subscription
/// with nothing to run on a worker).
pub(crate) fn ring_capacity(sub: &dyn ErasedSubscription, mode: DispatchMode, cores: usize) -> u64 {
    if sub.has_callback() {
        (mode.depth() * cores) as u64
    } else {
        0
    }
}

/// Per-item callback delay injector `(subscription, item seq) ->
/// optional sleep`, the chaos hook for stalling one worker mid-run.
pub(crate) type CallbackDelayFn = Arc<dyn Fn(u16, u64) -> Option<Duration> + Send + Sync>;

/// Items a worker pops from one ring before moving to the next, so a
/// deep backlog on one ring cannot monopolize a shared worker.
const WORKER_BURST: usize = 256;

/// One datum crossing a dispatch ring, tagged with its flow trace id so
/// worker-side tracepoints reconstruct the cross-thread causal chain.
pub(crate) type Item = (u64, ErasedOutput);

/// The run's tracer and the lane the calling thread writes on (`None` =
/// tracing off): the writer's, so every protocol step takes it as an
/// argument.
pub(crate) type TraceLane<'a> = Option<(&'a Tracer, usize)>;

/// Borrows an owned `(tracer, lane)` pair as a [`TraceLane`].
pub(crate) fn trace_lane(owned: &Option<(Arc<Tracer>, usize)>) -> TraceLane<'_> {
    owned.as_ref().map(|(t, lane)| (&**t, *lane))
}

/// The producer end of a dispatch ring, as the lane protocol sees it:
/// the real SPSC producer of a threaded run, or the stepped harness's
/// bounded queue in virtual time.
pub(crate) trait RingTx {
    /// Enqueues without blocking; failure hands the item back.
    fn try_push(&mut self, item: Item) -> Result<(), TrySendError<Item>>;
}

/// The consumer end of a dispatch ring.
pub(crate) trait RingRx {
    /// Dequeues without blocking; `Disconnected` only once the producer
    /// is gone *and* the ring is drained.
    fn try_pop(&mut self) -> Result<Item, TryRecvError>;
}

impl RingTx for spsc::Producer<Item> {
    fn try_push(&mut self, item: Item) -> Result<(), TrySendError<Item>> {
        self.try_send(item)
    }
}

impl RingRx for spsc::Consumer<Item> {
    fn try_pop(&mut self) -> Result<Item, TryRecvError> {
        self.try_recv()
    }
}

/// One subscription's lane through a dispatch fabric: whose callback
/// runs and where every hand-off is counted. Its methods are the *lane
/// protocol* — accounting, drop codes, shed trigger and tracepoint order
/// of inline execution, a producer's send and a worker's drain — written
/// here and nowhere else, so the threaded runtime and the stepped
/// harness execute the same one. Generic over how the counters are
/// held: shared with the runtime's hub (`Arc<DispatchStats>`, threaded)
/// or owned in place (stepped).
pub(crate) struct Lane<D> {
    pub(crate) sub: Arc<dyn ErasedSubscription>,
    pub(crate) stats: D,
    pub(crate) sub_idx: u16,
}

impl<D: Borrow<DispatchStats>> Lane<D> {
    /// A tracepoint of a sampled flow on the caller's lane.
    fn emit(&self, trace: TraceLane<'_>, trace_id: u64, kind: TraceKind, b: u64) {
        if trace_id != 0 {
            if let Some((t, lane)) = trace {
                t.emit(lane, trace_id, kind, self.sub_idx, 0, b);
            }
        }
    }

    /// A result that will never run: counted by reason, recorded for
    /// every flow (the flight recorder wants drops of unsampled flows
    /// too), and a shed fires the anomaly trigger.
    fn drop_result(&self, trace: TraceLane<'_>, trace_id: u64, code: TraceDropCode) {
        let stats = self.stats.borrow();
        if code == TraceDropCode::DispatchShed {
            stats.note_dropped_full();
        } else {
            stats.note_dropped_disconnected();
        }
        if let Some((t, lane)) = trace {
            t.emit(
                lane,
                trace_id,
                TraceKind::Drop,
                self.sub_idx,
                code as u64,
                0,
            );
            if code == TraceDropCode::DispatchShed {
                t.trigger(TriggerReason::DispatchShed, u64::from(self.sub_idx));
            }
        }
    }

    /// Inline execution: the callback runs on the delivering core, and
    /// the hand-off is counted so `delivered == executed + dropped`
    /// holds uniformly across execution models.
    pub(crate) fn run_inline(&self, trace: TraceLane<'_>, trace_id: u64, out: ErasedOutput) {
        self.emit(trace, trace_id, TraceKind::CallbackStart, 0);
        self.sub.invoke(out);
        self.stats.borrow().note_inline();
        self.emit(trace, trace_id, TraceKind::CallbackEnd, 0);
    }

    /// Inline execution of the packet-level fast path: the datum is
    /// built from the frame and run unboxed. Returns whether the frame
    /// yielded one.
    pub(crate) fn run_inline_from_mbuf(
        &self,
        trace: TraceLane<'_>,
        mbuf: &Mbuf,
        trace_id: u64,
    ) -> bool {
        let produced = self.sub.invoke_from_mbuf(mbuf);
        if produced {
            self.stats.borrow().note_inline();
            // Start/end are emitted together after the fact: whether the
            // frame yields a datum is only known once the fast path ran.
            self.emit(trace, trace_id, TraceKind::CallbackStart, 0);
            self.emit(trace, trace_id, TraceKind::CallbackEnd, 0);
        }
        produced
    }

    /// The producer side of one send: try-push, then enqueued, dropped
    /// with accounting (worker gone, or ring full under `Shed`), or —
    /// ring full under `Block` — blocked, which hands the item back: the
    /// caller waits the way its ring allows (a real ring spins, a
    /// virtual one parks the send) and settles with [`Lane::unblocked`].
    /// A blocked send's enqueue tracepoint is recorded here, when it
    /// blocks, so enqueue events land in send order however it waits.
    pub(crate) fn offer<R: RingTx>(
        &self,
        trace: TraceLane<'_>,
        ring: &mut R,
        policy: QueuePolicy,
        trace_id: u64,
        out: ErasedOutput,
    ) -> Option<Item> {
        let stats = self.stats.borrow();
        match ring.try_push((trace_id, out)) {
            Ok(()) => {
                stats.note_enqueued();
                self.emit(trace, trace_id, TraceKind::DispatchEnqueue, stats.depth());
                None
            }
            Err(TrySendError::Disconnected(_)) => {
                self.drop_result(trace, trace_id, TraceDropCode::WorkerDisconnected);
                None
            }
            Err(TrySendError::Full(item)) => match policy {
                QueuePolicy::Shed => {
                    self.drop_result(trace, trace_id, TraceDropCode::DispatchShed);
                    None
                }
                QueuePolicy::Block => {
                    stats.note_blocked();
                    self.emit(trace, trace_id, TraceKind::DispatchEnqueue, stats.depth());
                    Some(item)
                }
            },
        }
    }

    /// Settles a send [`Lane::offer`] handed back: the ring took it
    /// (`pushed`), or its worker is gone and the result is lost.
    pub(crate) fn unblocked(&self, trace: TraceLane<'_>, trace_id: u64, pushed: bool) {
        if pushed {
            self.stats.borrow().note_enqueued();
        } else {
            self.drop_result(trace, trace_id, TraceDropCode::WorkerDisconnected);
        }
    }

    /// The worker side: pops up to `budget` items off `ring` and runs
    /// each (`before_callback` is where the chaos layer stalls a
    /// worker). Returns how many ran and whether the ring is
    /// disconnected (producer gone, ring drained).
    pub(crate) fn drain<R: RingRx>(
        &self,
        trace: TraceLane<'_>,
        ring: &mut R,
        budget: usize,
        mut before_callback: impl FnMut(),
    ) -> (usize, bool) {
        let stats = self.stats.borrow();
        for ran in 0..budget {
            match ring.try_pop() {
                Ok((trace_id, out)) => {
                    self.emit(trace, trace_id, TraceKind::DispatchDequeue, stats.depth());
                    before_callback();
                    self.emit(trace, trace_id, TraceKind::CallbackStart, 0);
                    self.sub.invoke(out);
                    self.emit(trace, trace_id, TraceKind::CallbackEnd, 0);
                    stats.note_executed();
                }
                Err(TryRecvError::Empty) => return (ran, false),
                Err(TryRecvError::Disconnected) => return (ran, true),
            }
        }
        (budget, false)
    }
}

/// One subscription's delivery sink on one RX core, over either ring.
pub(crate) enum Sink<R, D> {
    /// Runs the callback on the delivering core. Spec-only
    /// subscriptions stay here in every mode: they have nothing to run
    /// on a worker.
    Inline(Lane<D>),
    /// Crosses a ring to a worker. Boxed: most of a table is inline
    /// lanes, which should not each carry a ring's worth of space.
    Queued(Box<QueuedLane<R, D>>),
}

/// A lane whose results cross `ring` to a worker.
pub(crate) struct QueuedLane<R, D> {
    pub(crate) lane: Lane<D>,
    pub(crate) ring: R,
    pub(crate) policy: QueuePolicy,
}

impl<R: RingTx, D: Borrow<DispatchStats>> Sink<R, D> {
    /// A sink for `lane` under `mode`: queued over `ring(depth)` when
    /// the subscription has ring capacity (see [`ring_capacity`]),
    /// inline otherwise.
    pub(crate) fn new(lane: Lane<D>, mode: DispatchMode, ring: impl FnOnce(usize) -> R) -> Self {
        if ring_capacity(&*lane.sub, mode, 1) > 0 {
            Sink::Queued(Box::new(QueuedLane {
                ring: ring(mode.depth()),
                policy: mode.policy(),
                lane,
            }))
        } else {
            Sink::Inline(lane)
        }
    }

    /// The sink's lane (subscription, counters).
    pub(crate) fn lane(&self) -> &Lane<D> {
        match self {
            Sink::Inline(lane) => lane,
            Sink::Queued(q) => &q.lane,
        }
    }

    /// Hands one boxed datum to the lane. Returns it when the send
    /// blocked (see [`Lane::offer`]).
    #[inline]
    pub(crate) fn deliver(
        &mut self,
        trace: TraceLane<'_>,
        trace_id: u64,
        out: ErasedOutput,
    ) -> Option<Item> {
        match self {
            Sink::Inline(lane) => {
                lane.run_inline(trace, trace_id, out);
                None
            }
            Sink::Queued(q) => q.lane.offer(trace, &mut q.ring, q.policy, trace_id, out),
        }
    }

    /// Packet-level fast path: whether the frame yielded a datum, and
    /// the datum back if its send blocked. Only a queued lane boxes.
    #[inline]
    pub(crate) fn deliver_from_mbuf(
        &mut self,
        trace: TraceLane<'_>,
        mbuf: &Mbuf,
        trace_id: u64,
    ) -> (bool, Option<Item>) {
        match self {
            Sink::Inline(lane) => (lane.run_inline_from_mbuf(trace, mbuf, trace_id), None),
            Sink::Queued(q) => match q.lane.sub.output_from_mbuf(mbuf) {
                Some(out) => (true, self.deliver(trace, trace_id, out)),
                None => (false, None),
            },
        }
    }
}

/// The threaded [`Transport`]: one RX core's sinks, indexed by
/// subscription, over real SPSC rings.
pub(crate) struct CoreSinks {
    sinks: Vec<Sink<spsc::Producer<Item>, Arc<DispatchStats>>>,
    /// The run's tracer and this core's RX lane.
    trace: Option<(Arc<Tracer>, usize)>,
}

impl CoreSinks {
    /// A blocked send on a real ring: spins until the worker frees a
    /// slot (or is gone), as [`QueuePolicy::Block`] promises.
    fn wait(&self, sub: usize, blocked: Option<Item>) {
        let Some(item) = blocked else { return };
        let Sink::Queued(q) = &self.sinks[sub] else {
            unreachable!("only queued lanes hand a send back");
        };
        let trace_id = item.0;
        let pushed = q.ring.send(item).is_ok();
        q.lane.unblocked(trace_lane(&self.trace), trace_id, pushed);
    }
}

impl Transport for CoreSinks {
    #[inline]
    fn deliver(&mut self, sub: usize, trace_id: u64, out: ErasedOutput) {
        let blocked = self.sinks[sub].deliver(trace_lane(&self.trace), trace_id, out);
        self.wait(sub, blocked);
    }

    #[inline]
    fn deliver_from_mbuf(&mut self, sub: usize, mbuf: &Mbuf, trace_id: u64) -> bool {
        let (produced, blocked) =
            self.sinks[sub].deliver_from_mbuf(trace_lane(&self.trace), mbuf, trace_id);
        self.wait(sub, blocked);
        produced
    }
}

/// The consumer half of one (core, subscription) ring.
struct WorkerRing {
    lane: Lane<Arc<DispatchStats>>,
    rx: spsc::Consumer<Item>,
}

/// Handle over the dispatch worker threads; joins once every producer
/// sink has been dropped and every ring drained.
pub(crate) struct Dispatcher {
    handles: Vec<std::thread::JoinHandle<u64>>,
}

impl Dispatcher {
    /// Waits for every worker to drain its rings and exit; returns the
    /// total number of callbacks executed on workers.
    pub(crate) fn join(self) -> u64 {
        self.handles
            .into_iter()
            .map(|h| h.join().expect("dispatch worker panicked"))
            .sum()
    }
}

/// Builds the full dispatch fabric for one configuration epoch: one
/// [`CoreSinks`] per RX core plus the [`Dispatcher`] owning the worker
/// threads. `stats[i]` are subscription `i`'s counters.
///
/// Inline subscriptions run on the RX core; dispatched subscriptions
/// get one SPSC ring per RX core, with dedicated subscriptions draining
/// on their own thread and shared subscriptions' rings spread
/// round-robin over `shared_workers` threads. Dropping the returned
/// sinks disconnects the rings, which is how workers learn the epoch is
/// over.
///
/// # Panics
/// Panics if `modes` or `stats` do not line up with `subs`, or a worker
/// thread cannot be spawned.
pub(crate) fn channel_dispatcher(
    subs: &[Arc<dyn ErasedSubscription>],
    modes: &[DispatchMode],
    stats: &[Arc<DispatchStats>],
    cores: usize,
    shared_workers: usize,
    delay: &CallbackDelayFn,
    tracer: Option<&Arc<Tracer>>,
) -> (Vec<CoreSinks>, Dispatcher) {
    assert_eq!(
        subs.len(),
        modes.len(),
        "one dispatch mode per subscription"
    );
    assert_eq!(subs.len(), stats.len(), "one stats block per subscription");
    let mut per_core: Vec<CoreSinks> = (0..cores.max(1))
        .map(|core| CoreSinks {
            sinks: Vec::with_capacity(subs.len()),
            trace: tracer.map(|t| (Arc::clone(t), t.rx_lane(core))),
        })
        .collect();
    let mut dedicated: Vec<(usize, Vec<WorkerRing>)> = Vec::new();
    let mut shared: Vec<WorkerRing> = Vec::new();

    for (i, sub) in subs.iter().enumerate() {
        let lane = || Lane {
            sub: Arc::clone(sub),
            stats: Arc::clone(&stats[i]),
            sub_idx: u16::try_from(i).unwrap_or(u16::MAX),
        };
        let mut rings = Vec::new();
        for core in &mut per_core {
            core.sinks.push(Sink::new(lane(), modes[i], |depth| {
                let (tx, rx) = spsc::ring::<Item>(depth);
                rings.push(WorkerRing { lane: lane(), rx });
                tx
            }));
        }
        match modes[i] {
            DispatchMode::Dedicated { .. } if !rings.is_empty() => dedicated.push((i, rings)),
            _ => shared.extend(rings),
        }
    }

    // Worker lanes are assigned in spawn order: dedicated workers in
    // subscription order, then the shared pool. A fabric staged by a
    // mid-run swap may need more workers than the run's tracer was
    // sized for; its extra workers wrap onto the existing worker lanes
    // (events stay attributed by trace id and subscription).
    let worker_trace = |worker_idx: usize| {
        tracer.map(|t| {
            let lanes = (t.lane_count() - t.worker_lane(0)).max(1);
            (Arc::clone(t), t.worker_lane(worker_idx % lanes))
        })
    };
    let mut handles = Vec::new();
    for (i, rings) in dedicated {
        let name = format!("retina-cb-{}", subs[i].name());
        handles.push(spawn_worker(
            name,
            rings,
            delay,
            worker_trace(handles.len()),
        ));
    }
    if !shared.is_empty() {
        let workers = shared_workers.max(1).min(shared.len());
        let mut assignments: Vec<Vec<WorkerRing>> = (0..workers).map(|_| Vec::new()).collect();
        for (n, ring) in shared.into_iter().enumerate() {
            assignments[n % workers].push(ring);
        }
        for (w, rings) in assignments.into_iter().enumerate() {
            let name = format!("retina-cb-pool-{w}");
            handles.push(spawn_worker(
                name,
                rings,
                delay,
                worker_trace(handles.len()),
            ));
        }
    }
    (per_core, Dispatcher { handles })
}

/// Spawns one worker thread draining `rings` until every producer is
/// gone and every ring empty. Returns the executed-callback count.
fn spawn_worker(
    name: String,
    mut rings: Vec<WorkerRing>,
    delay: &CallbackDelayFn,
    trace: Option<(Arc<Tracer>, usize)>,
) -> std::thread::JoinHandle<u64> {
    let delay = Arc::clone(delay);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let mut executed = 0u64;
            // Per-subscription item sequence, fed to the delay hook. A
            // dedicated subscription's items all pass through this one
            // thread, so its sequence is the subscription-global order.
            let mut seqs: HashMap<u16, u64> = HashMap::new();
            while !rings.is_empty() {
                let mut progress = false;
                rings.retain_mut(|ring| {
                    let sub = ring.lane.sub_idx;
                    let (ran, disconnected) =
                        ring.lane
                            .drain(trace_lane(&trace), &mut ring.rx, WORKER_BURST, || {
                                let seq = seqs.entry(sub).or_insert(0);
                                if let Some(d) = delay(sub, *seq) {
                                    std::thread::sleep(d);
                                }
                                *seq += 1;
                            });
                    executed += ran as u64;
                    progress |= ran > 0;
                    !disconnected
                });
                if !progress {
                    std::thread::yield_now();
                }
            }
            executed
        })
        .expect("spawn dispatch worker")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erased::{Emitter, TypedSubscription};
    use crate::step::VirtualRing;
    use crate::subscribables::ConnRecord;
    use crate::subscription::ConnView;
    use retina_conntrack::{FiveTuple, TcpFlow};
    use retina_telemetry::{DispatchSnapshot, TraceConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn no_delay() -> CallbackDelayFn {
        Arc::new(|_, _| None)
    }

    fn counted_sub(count: &Arc<AtomicU64>) -> Arc<dyn ErasedSubscription> {
        let c = Arc::clone(count);
        Arc::new(TypedSubscription::<ConnRecord>::new("conns", move |_| {
            c.fetch_add(1, Ordering::Relaxed);
        }))
    }

    fn one_output(sub: &Arc<dyn ErasedSubscription>) -> ErasedOutput {
        let tuple = FiveTuple {
            orig: "1.2.3.4:1000".parse().unwrap(),
            resp: "5.6.7.8:443".parse().unwrap(),
            proto: 6,
        };
        let mut slab = sub.new_slab();
        let slot = slab.insert(&tuple, 0);
        let conn = ConnView {
            tuple: &tuple,
            first_seen_ns: 0,
            last_seen_ns: 0,
            established: false,
            flow: &TcpFlow::new(16),
        };
        let (mut outputs, mut delivered) = (Vec::new(), 0);
        let mut out = Emitter::new(&mut outputs, &mut delivered, 0, 0);
        slab.on_terminate(slot, &conn, &mut out);
        outputs.pop().expect("ConnRecord emits on terminate").2
    }

    /// A fabric over `subs`, with fresh counters sized to the rings.
    fn fabric(
        subs: &[Arc<dyn ErasedSubscription>],
        modes: &[DispatchMode],
        cores: usize,
        shared_workers: usize,
        delay: &CallbackDelayFn,
    ) -> (Vec<CoreSinks>, Dispatcher, Vec<Arc<DispatchStats>>) {
        let stats: Vec<Arc<DispatchStats>> = subs
            .iter()
            .zip(modes)
            .map(|(s, m)| Arc::new(DispatchStats::with_capacity(ring_capacity(&**s, *m, cores))))
            .collect();
        let (sinks, dispatcher) =
            channel_dispatcher(subs, modes, &stats, cores, shared_workers, delay, None);
        (sinks, dispatcher, stats)
    }

    #[test]
    fn mode_accessors() {
        let m = DispatchMode::shared(4).shedding();
        assert_eq!(m.depth(), 4);
        assert_eq!(m.policy(), QueuePolicy::Shed);
        assert!(m.is_dispatched());
        assert_eq!(DispatchMode::Inline.depth(), 0);
        assert!(!DispatchMode::Inline.is_dispatched());
    }

    #[test]
    fn dedicated_worker_executes_everything() {
        let count = Arc::new(AtomicU64::new(0));
        let sub = counted_sub(&count);
        let subs = vec![Arc::clone(&sub)];
        let (mut sinks, dispatcher, stats) =
            fabric(&subs, &[DispatchMode::dedicated(4)], 2, 1, &no_delay());
        assert_eq!(dispatcher.handles.len(), 1);
        for core_sinks in &mut sinks {
            for _ in 0..50 {
                core_sinks.deliver(0, 0, one_output(&sub));
            }
        }
        sinks.clear(); // disconnect the rings
        assert_eq!(dispatcher.join(), 100);
        assert_eq!(count.load(Ordering::Relaxed), 100);
        stats[0].snapshot().check(100).unwrap();
    }

    #[test]
    fn shared_pool_drains_multiple_subscriptions() {
        let count = Arc::new(AtomicU64::new(0));
        let a = counted_sub(&count);
        let b = counted_sub(&count);
        let subs = vec![Arc::clone(&a), Arc::clone(&b)];
        let modes = [DispatchMode::shared(4), DispatchMode::shared(4)];
        let (mut sinks, dispatcher, stats) = fabric(&subs, &modes, 1, 2, &no_delay());
        assert_eq!(dispatcher.handles.len(), 2);
        for _ in 0..30 {
            sinks[0].deliver(0, 0, one_output(&a));
            sinks[0].deliver(1, 0, one_output(&b));
        }
        sinks.clear();
        assert_eq!(dispatcher.join(), 60);
        assert_eq!(count.load(Ordering::Relaxed), 60);
        for s in &stats {
            s.snapshot().check(30).unwrap();
        }
    }

    #[test]
    fn shed_policy_drops_with_accounting_when_worker_stalls() {
        let count = Arc::new(AtomicU64::new(0));
        let sub = counted_sub(&count);
        let subs = vec![Arc::clone(&sub)];
        // Stall the worker long enough for the 2-deep ring to fill.
        let delay: CallbackDelayFn =
            Arc::new(|_, seq| (seq == 0).then(|| Duration::from_millis(50)));
        let modes = [DispatchMode::dedicated(2).shedding()];
        let (mut sinks, dispatcher, stats) = fabric(&subs, &modes, 1, 1, &delay);
        for _ in 0..40 {
            sinks[0].deliver(0, 0, one_output(&sub));
        }
        sinks.clear();
        let executed = dispatcher.join();
        let snap = stats[0].snapshot();
        assert_eq!(snap.executed, executed);
        assert!(snap.dropped_full > 0, "2-deep ring under stall must shed");
        snap.check(40).unwrap();
    }

    #[test]
    fn inline_sinks_count_without_threads() {
        let count = Arc::new(AtomicU64::new(0));
        let sub = counted_sub(&count);
        let subs = vec![Arc::clone(&sub)];
        let (mut sinks, dispatcher, stats) =
            fabric(&subs, &[DispatchMode::Inline], 1, 1, &no_delay());
        assert_eq!(dispatcher.handles.len(), 0);
        sinks[0].deliver(0, 0, one_output(&sub));
        assert_eq!(count.load(Ordering::Relaxed), 1);
        assert_eq!(dispatcher.join(), 0);
        stats[0].snapshot().check(1).unwrap();
    }

    /// Both ends of one ring in one place, so a script can play
    /// producer and worker in turn; `sever` makes the next send find the
    /// worker gone.
    trait TestRing: RingTx + RingRx {
        fn sever(&mut self);
    }

    /// A real SPSC ring; severing drops its consumer.
    struct RealRing(spsc::Producer<Item>, Option<spsc::Consumer<Item>>);

    impl RingTx for RealRing {
        fn try_push(&mut self, item: Item) -> Result<(), TrySendError<Item>> {
            self.0.try_push(item)
        }
    }

    impl RingRx for RealRing {
        fn try_pop(&mut self) -> Result<Item, TryRecvError> {
            self.1.as_mut().expect("consumer alive").try_pop()
        }
    }

    impl TestRing for RealRing {
        fn sever(&mut self) {
            self.1 = None;
        }
    }

    /// The stepped ring, which no stepped run ever disconnects; the
    /// flag stands in for a dead worker so the script can reach the
    /// protocol's disconnect branch over it too.
    struct SeverableVirtual(VirtualRing, bool);

    impl RingTx for SeverableVirtual {
        fn try_push(&mut self, item: Item) -> Result<(), TrySendError<Item>> {
            if self.1 {
                return Err(TrySendError::Disconnected(item));
            }
            self.0.try_push(item)
        }
    }

    impl RingRx for SeverableVirtual {
        fn try_pop(&mut self) -> Result<Item, TryRecvError> {
            self.0.try_pop()
        }
    }

    impl TestRing for SeverableVirtual {
        fn sever(&mut self) {
            self.1 = true;
        }
    }

    /// Drives the lane protocol through one scripted life of a 2-deep
    /// ring — fill, overflow under `Shed`, overflow under `Block` then
    /// drain, disconnect — and returns what it counted and traced.
    fn lane_script(mut ring: impl TestRing) -> (DispatchSnapshot, Vec<(TraceKind, u16, u64)>, u64) {
        const TID: u64 = 7;
        const RX: usize = 1;
        const WORKER: usize = 2;
        let count = Arc::new(AtomicU64::new(0));
        let sub = counted_sub(&count);
        let lane = Lane {
            sub: Arc::clone(&sub),
            stats: DispatchStats::with_capacity(2),
            sub_idx: 5,
        };
        let tracer = Tracer::new_virtual(TraceConfig::default(), 1, 1);
        let rx: TraceLane<'_> = Some((&tracer, RX));
        let worker: TraceLane<'_> = Some((&tracer, WORKER));
        let offer = |ring: &mut _, policy| lane.offer(rx, ring, policy, TID, one_output(&sub));

        // Fill.
        assert!(offer(&mut ring, QueuePolicy::Shed).is_none());
        assert!(offer(&mut ring, QueuePolicy::Shed).is_none());
        // Overflow under Shed: dropped with accounting, nothing handed back.
        assert!(offer(&mut ring, QueuePolicy::Shed).is_none());
        // Overflow under Block: handed back; the worker frees a slot,
        // the send goes through and is settled.
        let blocked = offer(&mut ring, QueuePolicy::Block).expect("full ring blocks the send");
        assert_eq!(lane.drain(worker, &mut ring, 1, || {}), (1, false));
        ring.try_push(blocked).expect("a slot was freed");
        lane.unblocked(rx, TID, true);
        // Drain everything.
        assert_eq!(lane.drain(worker, &mut ring, usize::MAX, || {}), (2, false));
        // Disconnect: the next send finds its worker gone.
        ring.sever();
        assert!(offer(&mut ring, QueuePolicy::Block).is_none());

        let events = tracer
            .session()
            .lanes
            .into_iter()
            .flat_map(|(_, events)| events)
            .map(|e| (e.kind, e.sub, e.a))
            .collect();
        (lane.stats.snapshot(), events, count.load(Ordering::Relaxed))
    }

    #[test]
    fn lane_protocol_is_one_over_both_rings() {
        let (tx, rx) = spsc::ring::<Item>(2);
        let real = lane_script(RealRing(tx, Some(rx)));
        let stepped = lane_script(SeverableVirtual(VirtualRing::new(2), false));
        assert_eq!(real, stepped);

        let (snap, events, executed) = real;
        assert_eq!((snap.executed, executed), (3, 3));
        assert_eq!((snap.dropped_full, snap.dropped_disconnected), (1, 1));
        assert_eq!((snap.blocked_sends, snap.depth_peak), (1, 2));
        snap.check(5).unwrap();
        let shed = TraceDropCode::DispatchShed as u64;
        let gone = TraceDropCode::WorkerDisconnected as u64;
        use TraceKind::{CallbackEnd, CallbackStart, DispatchDequeue, DispatchEnqueue, Drop};
        let rx_lane = [
            (DispatchEnqueue, 0),
            (DispatchEnqueue, 0),
            (Drop, shed),
            (DispatchEnqueue, 0),
            (Drop, gone),
        ];
        let item = [(DispatchDequeue, 0), (CallbackStart, 0), (CallbackEnd, 0)];
        let expected: Vec<(TraceKind, u16, u64)> = rx_lane
            .iter()
            .chain(item.iter().cycle().take(9))
            .map(|&(kind, a)| (kind, 5, a))
            .collect();
        assert_eq!(events, expected);
    }
}
