//! Callback execution models: the multicore dispatch layer.
//!
//! §5.3 runs callbacks *inline* on the processing core ("implemented
//! inline rather than in a separate thread, which enables efficient
//! execution without cross-core communication") and leaves "support for
//! alternative callback execution models to future work". This module
//! implements that future work: per-subscription dispatch over bounded
//! SPSC rings (one ring per (RX core, subscription) pair, so no ring
//! ever has two producers) to either a **dedicated** worker — one
//! thread owning one expensive subscription — or the **shared** worker,
//! one pool thread draining every shared subscription's rings
//! round-robin.
//!
//! Nothing crosses the fabric boxed. A datum waits in its subscription's
//! output lane ([`crate::erased::TrackedSlab`]) until the pipeline's
//! flush hands it to the subscription's sink, which runs the callback on
//! it inline or sends it through a ring made, once per configuration
//! epoch, for its type; the subscription ([`TypedSubscription`]), the
//! one place that knows the type, provides both.
//!
//! The fabric is one for both drivers: `build_sinks` makes an epoch's
//! sinks and rings, whose consumer ends the threaded runtime hands to
//! worker threads (`channel_dispatcher`) and the stepped harness
//! ([`crate::step`]) drains itself. A send that a full ring blocks parks
//! in its `Queue`; a threaded RX core spins until it unparks, the stepped
//! harness's sink set records the park order and moves on.
//!
//! The trade-off of leaving the RX core is made explicit per
//! subscription by a [`QueuePolicy`]:
//!
//! * [`QueuePolicy::Block`] — lossless. A full ring blocks the RX core;
//!   the backpressure surfaces in the RX rings (and, unpaced, as
//!   measurable loss upstream) rather than as silently missing results.
//! * [`QueuePolicy::Shed`] — isolating. A full ring drops the result
//!   *with accounting* (`dropped_full` in the per-subscription
//!   [`retina_telemetry::DispatchStats`]), so one saturated subscription
//!   can never stall the RX pipeline or its sibling subscriptions.
//!
//! Every handoff outcome is counted in [`retina_telemetry::dispatch`];
//! the worst ring occupancy feeds the overload governor as its
//! queue-pressure shed input.
//!
//! Ordering: within one (core, subscription) pair delivery is FIFO —
//! exactly the order inline execution would have used. Across cores no
//! order is promised, same as inline (workers race on shared state
//! either way).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use retina_nic::{Mbuf, VirtualNic};
use retina_support::sync::spsc::{self, TryRecvError, TrySendError};
use retina_telemetry::{trace::TraceDropCode, DispatchRow, TraceKind, Tracer, TriggerReason};

use crate::erased::{take_output, Callback, ErasedSubscription, TrackedSlab, TypedSubscription};
use crate::pipeline::Transport;
use crate::subscription::Subscribable;

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

/// Items a worker pops from one ring before moving to the next, so a
/// deep backlog on one ring cannot monopolize a shared worker.
const WORKER_BURST: usize = 256;

/// One datum crossing a dispatch ring, as itself, tagged with its flow
/// trace id so worker-side tracepoints reconstruct the cross-thread
/// causal chain.
type Item<S> = (u64, S);

/// The run's tracer and the lane the calling thread writes on (`None` =
/// tracing off): the writer's, so every protocol step takes it as an
/// argument.
pub(crate) type TraceLane<'a> = Option<(&'a Tracer, usize)>;

/// Borrows an owned `(tracer, lane)` pair as a [`TraceLane`].
fn trace_lane(owned: &Option<(Arc<Tracer>, usize)>) -> TraceLane<'_> {
    owned.as_ref().map(|(t, lane)| (&**t, *lane))
}

/// One subscription's lane through a dispatch fabric: where every
/// hand-off is counted, under which index it is traced. Its methods are
/// the *lane protocol* — accounting, drop codes, shed trigger and
/// tracepoint order of inline execution, a producer's send and a
/// worker's drain — written here and nowhere else, so the threaded
/// runtime and the stepped harness execute the same one, whatever the
/// datum's type. The counters are the subscription's row of the run's
/// table, which both drivers share with whoever reads them.
#[derive(Clone)]
pub(crate) struct Lane {
    stats: DispatchRow,
    sub_idx: u16,
}

impl Lane {
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
        if code == TraceDropCode::DispatchShed {
            self.stats.note_dropped_full();
        } else {
            self.stats.note_dropped_disconnected();
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

    /// Inline execution: `callback` runs on the delivering core, and the
    /// hand-off is counted so `delivered == executed + dropped` holds
    /// uniformly across execution models.
    fn run_inline(&self, trace: TraceLane<'_>, trace_id: u64, callback: impl FnOnce()) {
        self.emit(trace, trace_id, TraceKind::CallbackStart, 0);
        callback();
        self.stats.note_inline();
        self.emit(trace, trace_id, TraceKind::CallbackEnd, 0);
    }

    /// Inline execution of the packet-level fast path, counted after the
    /// fact: start/end are emitted together once the callback has run,
    /// because whether the frame yields a datum is only known then.
    fn ran_inline(&self, trace: TraceLane<'_>, trace_id: u64) {
        self.stats.note_inline();
        self.emit(trace, trace_id, TraceKind::CallbackStart, 0);
        self.emit(trace, trace_id, TraceKind::CallbackEnd, 0);
    }

    /// The producer side of one send: try-push, then enqueued, dropped
    /// with accounting (worker gone, or ring full under `Shed`), or —
    /// ring full under `Block` — blocked, which hands the item back: the
    /// caller parks it ([`Queue`]) until the ring takes it, and settles
    /// with [`Lane::unblocked`]. A blocked send's enqueue tracepoint is
    /// recorded here, when it blocks, so enqueue events land in send
    /// order however its transport waits.
    fn offer<T: Send>(
        &self,
        trace: TraceLane<'_>,
        ring: &spsc::Producer<Item<T>>,
        policy: QueuePolicy,
        trace_id: u64,
        datum: T,
    ) -> Option<Item<T>> {
        let stats = &self.stats;
        match ring.try_send((trace_id, datum)) {
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
    fn unblocked(&self, trace: TraceLane<'_>, trace_id: u64, pushed: bool) {
        if pushed {
            self.stats.note_enqueued();
        } else {
            self.drop_result(trace, trace_id, TraceDropCode::WorkerDisconnected);
        }
    }

    /// The worker side: pops up to `budget` items off `ring` and runs
    /// `callback` on each (`before_callback` is where the chaos layer
    /// stalls a worker). Returns how many ran and whether the ring is
    /// disconnected (producer gone, ring drained).
    fn drain<T: Send>(
        &self,
        trace: TraceLane<'_>,
        ring: &spsc::Consumer<Item<T>>,
        budget: usize,
        mut before_callback: impl FnMut(),
        mut callback: impl FnMut(T),
    ) -> (usize, bool) {
        let stats = &self.stats;
        for ran in 0..budget {
            match ring.try_recv() {
                Ok((trace_id, datum)) => {
                    self.emit(trace, trace_id, TraceKind::DispatchDequeue, stats.depth());
                    before_callback();
                    self.emit(trace, trace_id, TraceKind::CallbackStart, 0);
                    callback(datum);
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

/// One subscription's delivery sink on one RX core.
enum Sink {
    /// Runs the callback on the delivering core, through the subscription
    /// itself (see [`Deliver`]): nothing is allocated for it. Spec-only
    /// subscriptions stay here in every mode: they have nothing to run on
    /// a worker.
    Inline(Arc<dyn ErasedSubscription>, Lane),
    /// Crosses a ring made for the datum's type to a worker. Boxed: most
    /// of a table is inline lanes, which should not each carry a ring's
    /// worth of space.
    Queued(Box<dyn Enqueue>),
}

/// The producer end of one subscription's ring, with its datum's type
/// erased: what a queued [`Sink`] holds.
pub(crate) trait Enqueue: Send {
    /// Sends the subscription's next datum — the head of its output lane
    /// in `slab` — through the ring. Returns whether the send parked.
    fn enqueue(&mut self, trace: TraceLane<'_>, slab: &mut dyn TrackedSlab) -> bool;

    /// Packet-level fast path: builds the datum straight from the frame
    /// and sends it. Returns whether the frame yielded one and whether
    /// its send parked.
    fn enqueue_from_mbuf(
        &mut self,
        trace: TraceLane<'_>,
        mbuf: &Mbuf,
        trace_id: u64,
    ) -> (bool, bool);

    /// Moves the oldest parked send into the ring if it has room, or
    /// drops it with accounting if the worker is gone. Returns whether it
    /// left the park.
    fn unpark(&mut self, trace: TraceLane<'_>) -> bool;
}

/// The producer end of a ring made for `S`s, what to do when it is full,
/// and the sends parked on it.
struct Queue<S> {
    lane: Lane,
    ring: spsc::Producer<Item<S>>,
    policy: QueuePolicy,
    /// Sends the full ring blocked under `Block`, oldest first. How the
    /// sender waits for them to unpark is its sink set's choice: a
    /// threaded RX core spins, the stepped harness moves on.
    parked: VecDeque<Item<S>>,
}

impl<S: Send> Queue<S> {
    /// Offers one datum to the ring; a blocked send parks. Returns
    /// whether it parked.
    fn send(&mut self, trace: TraceLane<'_>, trace_id: u64, datum: S) -> bool {
        let Some(item) = self
            .lane
            .offer(trace, &self.ring, self.policy, trace_id, datum)
        else {
            return false;
        };
        self.parked.push_back(item);
        true
    }
}

impl<S: Subscribable> Enqueue for Queue<S> {
    #[inline]
    fn enqueue(&mut self, trace: TraceLane<'_>, slab: &mut dyn TrackedSlab) -> bool {
        let (trace_id, datum) = take_output::<S>(slab);
        self.send(trace, trace_id, datum)
    }

    #[inline]
    fn enqueue_from_mbuf(
        &mut self,
        trace: TraceLane<'_>,
        mbuf: &Mbuf,
        trace_id: u64,
    ) -> (bool, bool) {
        match S::from_mbuf(mbuf) {
            Some(datum) => (true, self.send(trace, trace_id, datum)),
            None => (false, false),
        }
    }

    fn unpark(&mut self, trace: TraceLane<'_>) -> bool {
        let Some(item) = self.parked.pop_front() else {
            return false;
        };
        let trace_id = item.0;
        let pushed = match self.ring.try_send(item) {
            Err(TrySendError::Full(item)) => {
                self.parked.push_front(item);
                return false;
            }
            sent => sent.is_ok(),
        };
        // The enqueue tracepoint was recorded when the send parked.
        self.lane.unblocked(trace, trace_id, pushed);
        true
    }
}

/// The consumer half of one (core, subscription) ring, typed, as a
/// worker drains it.
pub(crate) trait WorkerRing: Send {
    /// The subscription's index (for the fault layer's delay hook, which
    /// both drivers consult per item).
    fn sub_idx(&self) -> u16;

    /// Nothing queued right now.
    fn is_empty(&self) -> bool;

    /// Runs up to `budget` queued results; see [`Lane::drain`].
    fn drain(
        &mut self,
        trace: TraceLane<'_>,
        budget: usize,
        before_callback: &mut dyn FnMut(),
    ) -> (usize, bool);
}

/// The [`WorkerRing`] of a ring made for `S`s.
struct Worker<S> {
    lane: Lane,
    callback: Callback<S>,
    rx: spsc::Consumer<Item<S>>,
}

impl<S: Send + 'static> WorkerRing for Worker<S> {
    fn sub_idx(&self) -> u16 {
        self.lane.sub_idx
    }

    fn is_empty(&self) -> bool {
        self.rx.is_empty()
    }

    fn drain(
        &mut self,
        trace: TraceLane<'_>,
        budget: usize,
        before_callback: &mut dyn FnMut(),
    ) -> (usize, bool) {
        let callback = &*self.callback;
        self.lane
            .drain(trace, &self.rx, budget, before_callback, callback)
    }
}

/// The typed half of one subscription's delivery: implemented by
/// [`TypedSubscription`], the one place that knows the datum's type, and
/// reached through [`crate::erased::Delivery`]. It runs inline lanes and
/// makes the rings of queued ones, once per configuration epoch.
pub(crate) trait Deliver: Send + Sync {
    /// Inline execution of the subscription's next datum, the head of its
    /// output lane in `slab`.
    fn run_inline(&self, lane: &Lane, trace: TraceLane<'_>, slab: &mut dyn TrackedSlab);

    /// Inline packet-level fast path: builds the datum from the frame and
    /// runs the callback on it. Returns whether the frame yielded one
    /// (never, for a spec-only subscription: it builds none).
    fn run_inline_from_mbuf(
        &self,
        lane: &Lane,
        trace: TraceLane<'_>,
        mbuf: &Mbuf,
        trace_id: u64,
    ) -> bool;

    /// An SPSC ring made for the datum's type on `lane` under `mode`: its
    /// producer end, as a queued sink holds it, and its consumer end, as
    /// a worker drains it.
    fn ring(&self, lane: Lane, mode: DispatchMode) -> (Box<dyn Enqueue>, Box<dyn WorkerRing>);
}

impl<S: Subscribable> Deliver for TypedSubscription<S> {
    #[inline]
    fn run_inline(&self, lane: &Lane, trace: TraceLane<'_>, slab: &mut dyn TrackedSlab) {
        let (trace_id, datum) = take_output::<S>(slab);
        lane.run_inline(trace, trace_id, || {
            if let Some(callback) = self.callback() {
                callback(datum);
            }
        });
    }

    #[inline]
    fn run_inline_from_mbuf(
        &self,
        lane: &Lane,
        trace: TraceLane<'_>,
        mbuf: &Mbuf,
        trace_id: u64,
    ) -> bool {
        let Some(callback) = self.callback() else {
            return false;
        };
        let Some(datum) = S::from_mbuf(mbuf) else {
            return false;
        };
        callback(datum);
        lane.ran_inline(trace, trace_id);
        true
    }

    fn ring(&self, lane: Lane, mode: DispatchMode) -> (Box<dyn Enqueue>, Box<dyn WorkerRing>) {
        // A subscription whose results cross a ring has a callback, or it
        // would have no ring capacity (see [`ring_capacity`]).
        let callback = self
            .callback()
            .expect("a queued subscription has a callback");
        let (tx, rx) = spsc::ring::<Item<S>>(mode.depth());
        let worker = Worker {
            lane: lane.clone(),
            callback: Arc::clone(callback),
            rx,
        };
        let queue = Queue {
            lane,
            ring: tx,
            policy: mode.policy(),
            parked: VecDeque::new(),
        };
        (Box::new(queue), Box::new(worker))
    }
}

/// One RX core's sinks, indexed by subscription: the [`Transport`] of
/// both drivers.
pub(crate) struct CoreSinks {
    sinks: Vec<Sink>,
    /// The run's tracer and this core's RX lane.
    trace: Option<(Arc<Tracer>, usize)>,
    /// Whether a blocked send stays parked for the driver to move on (the
    /// stepped harness) rather than being waited out (a threaded core);
    /// `parked` lists the subscriptions holding parked sends, in order.
    parks: bool,
    parked: VecDeque<usize>,
}

impl CoreSinks {
    /// RX core `core`'s sink set, empty, with room for `subs` sinks.
    pub(crate) fn new(subs: usize, core: usize, tracer: Option<&Arc<Tracer>>, parks: bool) -> Self {
        CoreSinks {
            sinks: Vec::with_capacity(subs),
            trace: tracer.map(|t| (Arc::clone(t), t.rx_lane(core))),
            parks,
            parked: VecDeque::new(),
        }
    }

    /// Moves subscription `sub`'s oldest parked send out of the park; see
    /// [`Enqueue::unpark`].
    fn unpark(&mut self, sub: usize) -> bool {
        let trace = trace_lane(&self.trace);
        match &mut self.sinks[sub] {
            Sink::Queued(q) => q.unpark(trace),
            Sink::Inline(..) => false,
        }
    }

    /// A send to `sub` parked: a parking sink set records it; otherwise
    /// the RX core spins, then yields, until the worker frees a slot or
    /// is gone.
    #[cold]
    fn blocked(&mut self, sub: usize) {
        if self.parks {
            self.parked.push_back(sub);
            return;
        }
        let mut spins = 0u32;
        while !self.unpark(sub) {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Whether a send is still parked.
    pub(crate) fn is_parked(&self) -> bool {
        !self.parked.is_empty()
    }

    /// Moves parked sends into their rings, in park order, until the
    /// head's ring is full. Returns whether anything moved.
    pub(crate) fn flush_parked(&mut self) -> bool {
        let mut moved = false;
        while let Some(&sub) = self.parked.front() {
            if !self.unpark(sub) {
                break;
            }
            self.parked.pop_front();
            moved = true;
        }
        moved
    }
}

/// A datum runs inline, or is sent through its subscription's ring; a
/// send the full ring blocks is [`CoreSinks::blocked`].
impl Transport for CoreSinks {
    #[inline]
    fn deliver(&mut self, sub: usize, slab: &mut dyn TrackedSlab) {
        let trace = trace_lane(&self.trace);
        let parked = match &mut self.sinks[sub] {
            Sink::Inline(s, lane) => {
                s.delivery().0.run_inline(lane, trace, slab);
                false
            }
            Sink::Queued(q) => q.enqueue(trace, slab),
        };
        if parked {
            self.blocked(sub);
        }
    }

    #[inline]
    fn deliver_from_mbuf(&mut self, sub: usize, mbuf: &Mbuf, trace_id: u64) -> bool {
        let trace = trace_lane(&self.trace);
        let (produced, parked) = match &mut self.sinks[sub] {
            Sink::Inline(s, lane) => {
                let inline = s.delivery().0;
                let produced = inline.run_inline_from_mbuf(lane, trace, mbuf, trace_id);
                (produced, false)
            }
            Sink::Queued(q) => q.enqueue_from_mbuf(trace, mbuf, trace_id),
        };
        if parked {
            self.blocked(sub);
        }
        produced
    }
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

/// Builds one configuration epoch's sinks into `cores`, one empty
/// [`CoreSinks`] per RX core — the fabric both drivers run. `stats`
/// yields subscription `i`'s counters, its row's, in order.
///
/// Inline subscriptions run on the RX core; every dispatched one gets one
/// SPSC ring per RX core. Returns each dispatched subscription's index
/// and the consumer ends of its rings, one per core, in subscription
/// order: the threaded driver hands them to worker threads, the stepped
/// harness drains them itself.
///
/// # Panics
/// Panics if `modes` does not line up with `subs`.
pub(crate) fn build_sinks<'a>(
    subs: &[Arc<dyn ErasedSubscription>],
    modes: &[DispatchMode],
    stats: impl IntoIterator<Item = &'a DispatchRow>,
    cores: &mut [CoreSinks],
) -> Vec<(usize, Vec<Box<dyn WorkerRing>>)> {
    assert_eq!(
        subs.len(),
        modes.len(),
        "one dispatch mode per subscription"
    );
    let mut queued = Vec::new();
    for (i, (sub, row)) in subs.iter().zip(stats).enumerate() {
        let ringed = ring_capacity(&**sub, modes[i], 1) > 0;
        let mut rings = Vec::new();
        for core in cores.iter_mut() {
            let lane = Lane {
                stats: row.clone(),
                sub_idx: u16::try_from(i).unwrap_or(u16::MAX),
            };
            core.sinks.push(if ringed {
                let (queue, ring) = sub.delivery().0.ring(lane, modes[i]);
                rings.push(ring);
                Sink::Queued(queue)
            } else {
                Sink::Inline(Arc::clone(sub), lane)
            });
        }
        if ringed {
            queued.push((i, rings));
        }
    }
    queued
}

/// Spawns the dispatch worker threads of one configuration epoch of a
/// threaded run over `queued`, the rings [`build_sinks`] made, and
/// returns the [`Dispatcher`] owning them. A worker sleeps before each
/// callback `nic`'s fault layer delays.
///
/// Dedicated subscriptions drain on their own thread; shared
/// subscriptions' rings all drain on one pool thread. Dropping the
/// epoch's sinks disconnects the rings, which is how workers learn the
/// epoch is over.
///
/// # Panics
/// Panics if `modes` does not line up with `subs`, or a worker thread
/// cannot be spawned.
pub(crate) fn channel_dispatcher(
    subs: &[Arc<dyn ErasedSubscription>],
    modes: &[DispatchMode],
    queued: Vec<(usize, Vec<Box<dyn WorkerRing>>)>,
    nic: &Arc<VirtualNic>,
    tracer: Option<&Arc<Tracer>>,
) -> Dispatcher {
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
    let mut shared: Vec<Box<dyn WorkerRing>> = Vec::new();
    for (i, rings) in queued {
        if let DispatchMode::Dedicated { .. } = modes[i] {
            let name = format!("retina-cb-{}", subs[i].name());
            handles.push(spawn_worker(name, rings, nic, worker_trace(handles.len())));
        } else {
            shared.extend(rings);
        }
    }
    if !shared.is_empty() {
        let (name, trace) = ("retina-cb-pool".to_string(), worker_trace(handles.len()));
        handles.push(spawn_worker(name, shared, nic, trace));
    }
    Dispatcher { handles }
}

/// Spawns one worker thread draining `rings` until every producer is
/// gone and every ring empty. Returns the executed-callback count.
fn spawn_worker(
    name: String,
    mut rings: Vec<Box<dyn WorkerRing>>,
    nic: &Arc<VirtualNic>,
    trace: Option<(Arc<Tracer>, usize)>,
) -> std::thread::JoinHandle<u64> {
    let nic = Arc::clone(nic);
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
                    let sub = ring.sub_idx();
                    let (ran, disconnected) =
                        ring.drain(trace_lane(&trace), WORKER_BURST, &mut || {
                            let seq = seqs.entry(sub).or_insert(0);
                            if let Some(d) = nic.fault_callback_delay(sub, *seq) {
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
    use crate::subscribables::ConnRecord;
    use crate::subscription::ConnView;
    use retina_conntrack::{FiveTuple, TcpFlow};
    use retina_telemetry::TraceConfig;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// A NIC with no fault layer: no callback is delayed.
    fn no_delay() -> Arc<VirtualNic> {
        Arc::new(VirtualNic::new(&retina_nic::DeviceConfig::default()))
    }

    fn counted_sub(count: &Arc<AtomicU64>) -> Arc<dyn ErasedSubscription> {
        let c = Arc::clone(count);
        Arc::new(TypedSubscription::<ConnRecord>::new("conns", move |_| {
            c.fetch_add(1, Ordering::Relaxed);
        }))
    }

    /// `sub`'s slab with `n` records waiting in its output lane.
    fn outputs(sub: &Arc<dyn ErasedSubscription>, n: usize) -> Box<dyn TrackedSlab> {
        let tuple = FiveTuple {
            orig: "1.2.3.4:1000".parse().unwrap(),
            resp: "5.6.7.8:443".parse().unwrap(),
            proto: 6,
        };
        let flow = TcpFlow::new(16);
        let conn = ConnView {
            tuple: &tuple,
            first_seen_ns: 0,
            last_seen_ns: 0,
            established: false,
            flow: &flow,
        };
        let (mut order, mut delivered) = (Vec::new(), 0);
        let mut slab = sub.new_slab();
        for _ in 0..n {
            let slot = slab.insert(&tuple, 0);
            let mut out = Emitter::new(&mut order, &mut delivered, 0, 0);
            slab.on_terminate(slot, &conn, &mut out);
            slab.release(slot);
        }
        assert_eq!(delivered, n as u64, "ConnRecord emits on terminate");
        slab
    }

    /// One record, as it comes out of an output lane.
    fn record() -> ConnRecord {
        let sub: Arc<dyn ErasedSubscription> =
            Arc::new(TypedSubscription::<ConnRecord>::spec_only("conns"));
        take_output::<ConnRecord>(&mut *outputs(&sub, 1)).1
    }

    /// A fabric over `subs`, with fresh counters sized to the rings.
    fn fabric(
        subs: &[Arc<dyn ErasedSubscription>],
        modes: &[DispatchMode],
        cores: usize,
        nic: &Arc<VirtualNic>,
    ) -> (Vec<CoreSinks>, Dispatcher, Vec<DispatchRow>) {
        let stats: Vec<DispatchRow> = DispatchRow::block(subs.len()).collect();
        for ((row, sub), mode) in stats.iter().zip(subs).zip(modes) {
            row.set_capacity(ring_capacity(&**sub, *mode, cores));
        }
        let mut sinks: Vec<CoreSinks> = (0..cores)
            .map(|core| CoreSinks::new(subs.len(), core, None, false))
            .collect();
        let queued = build_sinks(subs, modes, &stats, &mut sinks);
        let dispatcher = channel_dispatcher(subs, modes, queued, nic, None);
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
            fabric(&subs, &[DispatchMode::dedicated(4)], 2, &no_delay());
        assert_eq!(dispatcher.handles.len(), 1);
        for core_sinks in &mut sinks {
            let mut slab = outputs(&sub, 50);
            for _ in 0..50 {
                core_sinks.deliver(0, &mut *slab);
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
        let (mut sinks, dispatcher, stats) = fabric(&subs, &modes, 1, &no_delay());
        assert_eq!(dispatcher.handles.len(), 1);
        let (mut slab_a, mut slab_b) = (outputs(&a, 30), outputs(&b, 30));
        for _ in 0..30 {
            sinks[0].deliver(0, &mut *slab_a);
            sinks[0].deliver(1, &mut *slab_b);
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
        struct FirstItemStall;
        impl retina_nic::FaultHooks for FirstItemStall {
            fn callback_delay(&self, _: u16, seq: u64) -> Option<Duration> {
                (seq == 0).then(|| Duration::from_millis(50))
            }
        }
        let nic = no_delay();
        nic.set_fault_hooks(Arc::new(FirstItemStall));
        let modes = [DispatchMode::dedicated(2).shedding()];
        let (mut sinks, dispatcher, stats) = fabric(&subs, &modes, 1, &nic);
        let mut slab = outputs(&sub, 40);
        for _ in 0..40 {
            sinks[0].deliver(0, &mut *slab);
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
        let (mut sinks, dispatcher, stats) = fabric(&subs, &[DispatchMode::Inline], 1, &no_delay());
        assert_eq!(dispatcher.handles.len(), 0);
        sinks[0].deliver(0, &mut *outputs(&sub, 1));
        assert_eq!(count.load(Ordering::Relaxed), 1);
        assert_eq!(dispatcher.join(), 0);
        stats[0].snapshot().check(1).unwrap();
    }

    /// The lane protocol through one scripted life of a 2-deep ring —
    /// fill, overflow under `Shed`, overflow under `Block` then drain,
    /// disconnect — playing producer and worker in turn: what it counts
    /// and traces.
    #[test]
    fn lane_protocol_is_one_over_both_rings() {
        const TID: u64 = 7;
        const RX: usize = 1;
        const WORKER: usize = 2;
        let count = AtomicU64::new(0);
        let callback = |_: ConnRecord| {
            count.fetch_add(1, Ordering::Relaxed);
        };
        let lane = Lane {
            stats: DispatchRow::block(1).next().unwrap(),
            sub_idx: 5,
        };
        lane.stats.set_capacity(2);
        let tracer = Tracer::new_virtual(TraceConfig::default(), 1, 1);
        let rx: TraceLane<'_> = Some((&tracer, RX));
        let worker: TraceLane<'_> = Some((&tracer, WORKER));
        let (tx, ring) = spsc::ring::<Item<ConnRecord>>(2);
        let offer = |policy| lane.offer(rx, &tx, policy, TID, record());

        // Fill.
        assert!(offer(QueuePolicy::Shed).is_none());
        assert!(offer(QueuePolicy::Shed).is_none());
        // Overflow under Shed: dropped with accounting, nothing handed back.
        assert!(offer(QueuePolicy::Shed).is_none());
        // Overflow under Block: handed back; the worker frees a slot,
        // the send goes through and is settled.
        let blocked = offer(QueuePolicy::Block).expect("full ring blocks the send");
        assert_eq!(lane.drain(worker, &ring, 1, || {}, callback), (1, false));
        tx.try_send(blocked).expect("a slot was freed");
        lane.unblocked(rx, TID, true);
        // Drain everything.
        assert_eq!(
            lane.drain(worker, &ring, usize::MAX, || {}, callback),
            (2, false)
        );
        // Disconnect: the next send finds its worker gone.
        drop(ring);
        assert!(offer(QueuePolicy::Block).is_none());

        let snap = lane.stats.snapshot();
        assert_eq!((snap.executed, count.load(Ordering::Relaxed)), (3, 3));
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
        let events: Vec<(TraceKind, u16, u64)> = tracer
            .session()
            .lanes
            .into_iter()
            .flat_map(|(_, events)| events)
            .map(|e| (e.kind, e.sub, e.a))
            .collect();
        assert_eq!(events, expected);
    }
}
