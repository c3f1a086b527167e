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
//! Nothing crosses the fabric boxed. A datum waits in its subscription's
//! output lane ([`crate::erased::TrackedSlab`]) until the pipeline's
//! flush hands it to the subscription's sink, which runs the callback on
//! it inline or sends it through a ring made, once per configuration
//! epoch, for its type; the subscription ([`TypedSubscription`]), the
//! one place that knows the type, provides both.
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

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use retina_nic::Mbuf;
use retina_support::sync::spsc::{self, TryRecvError, TrySendError};
use retina_telemetry::{trace::TraceDropCode, DispatchRow, TraceKind, Tracer, TriggerReason};

use crate::erased::{take_output, Callback, ErasedSubscription, TrackedSlab, TypedSubscription};
use crate::pipeline::Transport;
use crate::step::{StepQueue, VirtualRing};
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

/// Per-item callback delay injector `(subscription, item seq) ->
/// optional sleep`, the chaos hook for stalling one worker mid-run.
pub(crate) type CallbackDelayFn = Arc<dyn Fn(u16, u64) -> Option<Duration> + Send + Sync>;

/// Items a worker pops from one ring before moving to the next, so a
/// deep backlog on one ring cannot monopolize a shared worker.
const WORKER_BURST: usize = 256;

/// One datum crossing a dispatch ring, as itself, tagged with its flow
/// trace id so worker-side tracepoints reconstruct the cross-thread
/// causal chain.
pub(crate) type Item<S> = (u64, S);

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
pub(crate) trait RingTx<T> {
    /// Enqueues without blocking; failure hands the item back.
    fn try_push(&mut self, item: T) -> Result<(), TrySendError<T>>;

    /// Waits out a send [`Lane::offer`] handed back (ring full under
    /// `Block`) the way the ring allows: a real ring spins until the
    /// worker frees a slot and returns whether it took the item (`false`:
    /// the worker is gone); a virtual one parks the send and returns
    /// `None`, leaving it to the stepped harness to move on.
    fn wait(&mut self, item: T) -> Option<bool>;
}

/// The consumer end of a dispatch ring.
pub(crate) trait RingRx<T> {
    /// Dequeues without blocking; `Disconnected` only once the producer
    /// is gone *and* the ring is drained.
    fn try_pop(&mut self) -> Result<T, TryRecvError>;
}

impl<T: Send> RingTx<T> for spsc::Producer<T> {
    fn try_push(&mut self, item: T) -> Result<(), TrySendError<T>> {
        self.try_send(item)
    }

    fn wait(&mut self, item: T) -> Option<bool> {
        Some(self.send(item).is_ok())
    }
}

impl<T: Send> RingRx<T> for spsc::Consumer<T> {
    fn try_pop(&mut self) -> Result<T, TryRecvError> {
        self.try_recv()
    }
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
    pub(crate) stats: DispatchRow,
    pub(crate) sub_idx: u16,
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
    pub(crate) fn run_inline(&self, trace: TraceLane<'_>, trace_id: u64, callback: impl FnOnce()) {
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
    /// caller waits the way its ring allows ([`RingTx::wait`]) and
    /// settles with [`Lane::unblocked`]. A blocked send's enqueue
    /// tracepoint is recorded here, when it blocks, so enqueue events
    /// land in send order however it waits.
    pub(crate) fn offer<T, R: RingTx<Item<T>>>(
        &self,
        trace: TraceLane<'_>,
        ring: &mut R,
        policy: QueuePolicy,
        trace_id: u64,
        datum: T,
    ) -> Option<Item<T>> {
        let stats = &self.stats;
        match ring.try_push((trace_id, datum)) {
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
            self.stats.note_enqueued();
        } else {
            self.drop_result(trace, trace_id, TraceDropCode::WorkerDisconnected);
        }
    }

    /// The worker side: pops up to `budget` items off `ring` and runs
    /// `callback` on each (`before_callback` is where the chaos layer
    /// stalls a worker). Returns how many ran and whether the ring is
    /// disconnected (producer gone, ring drained).
    pub(crate) fn drain<T, R: RingRx<Item<T>>>(
        &self,
        trace: TraceLane<'_>,
        ring: &mut R,
        budget: usize,
        mut before_callback: impl FnMut(),
        mut callback: impl FnMut(T),
    ) -> (usize, bool) {
        let stats = &self.stats;
        for ran in 0..budget {
            match ring.try_pop() {
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

/// One subscription's delivery sink on one RX core, over either kind of
/// ring.
pub(crate) enum Sink<Q: ?Sized> {
    /// Runs the callback on the delivering core, through the subscription
    /// itself (see [`Deliver`]): nothing is allocated for it. Spec-only
    /// subscriptions stay here in every mode: they have nothing to run on
    /// a worker.
    Inline(Arc<dyn ErasedSubscription>, Lane),
    /// Crosses a ring made for the datum's type to a worker. Boxed: most
    /// of a table is inline lanes, which should not each carry a ring's
    /// worth of space.
    Queued(Box<Queued<Q>>),
}

/// A sink whose results cross a ring: its lane, and the producer end of
/// its ring (`Q`: a [`Queue`] with its datum's type erased).
pub(crate) struct Queued<Q: ?Sized> {
    pub(crate) lane: Lane,
    pub(crate) queue: Q,
}

impl<Q: ?Sized + Enqueue> Sink<Q> {
    /// A sink for `sub` on `lane` under `mode`: queued as `queued(lane)`
    /// builds it when the subscription has ring capacity (see
    /// [`ring_capacity`]), inline otherwise.
    pub(crate) fn new(
        sub: &Arc<dyn ErasedSubscription>,
        lane: Lane,
        mode: DispatchMode,
        queued: impl FnOnce(Lane) -> Box<Queued<Q>>,
    ) -> Self {
        if ring_capacity(&**sub, mode, 1) == 0 {
            Sink::Inline(Arc::clone(sub), lane)
        } else {
            Sink::Queued(queued(lane))
        }
    }

    /// Hands the subscription's next datum — the head of its output lane
    /// in `slab` — to the lane: run inline, or sent through the ring.
    /// Returns whether the send parked (a virtual ring's wait).
    #[inline]
    pub(crate) fn deliver(&mut self, trace: TraceLane<'_>, slab: &mut dyn TrackedSlab) -> bool {
        match self {
            Sink::Inline(sub, lane) => {
                sub.delivery().0.run_inline(lane, trace, slab);
                false
            }
            Sink::Queued(q) => q.queue.enqueue(&q.lane, trace, slab),
        }
    }

    /// Packet-level fast path: builds the datum straight from the frame
    /// and hands it on. Returns whether the frame yielded one (always
    /// `false` for a spec-only subscription, which builds none) and
    /// whether its send parked.
    #[inline]
    pub(crate) fn deliver_from_mbuf(
        &mut self,
        trace: TraceLane<'_>,
        mbuf: &Mbuf,
        trace_id: u64,
    ) -> (bool, bool) {
        match self {
            Sink::Inline(sub, lane) => {
                let delivery = sub.delivery();
                let produced = delivery.0.run_inline_from_mbuf(lane, trace, mbuf, trace_id);
                (produced, false)
            }
            Sink::Queued(q) => q.queue.enqueue_from_mbuf(&q.lane, trace, mbuf, trace_id),
        }
    }
}

/// The producer end of one subscription's ring, with its datum's type
/// erased: what a queued [`Sink`] holds.
pub(crate) trait Enqueue: Send {
    /// [`Sink::deliver`] for a queued sink.
    fn enqueue(&mut self, lane: &Lane, trace: TraceLane<'_>, slab: &mut dyn TrackedSlab) -> bool;

    /// [`Sink::deliver_from_mbuf`] for a queued sink.
    fn enqueue_from_mbuf(
        &mut self,
        lane: &Lane,
        trace: TraceLane<'_>,
        mbuf: &Mbuf,
        trace_id: u64,
    ) -> (bool, bool);
}

/// A ring made for `S`s — its producer end, and what to do when it is
/// full — and the callback a worker runs on what it carries.
pub(crate) struct Queue<S, R> {
    pub(crate) ring: R,
    pub(crate) policy: QueuePolicy,
    pub(crate) callback: Callback<S>,
}

impl<S, R: RingTx<Item<S>>> Queue<S, R> {
    /// Offers one datum to the ring, waiting out a blocked send the way
    /// the ring allows. Returns whether the send parked.
    fn send(&mut self, lane: &Lane, trace: TraceLane<'_>, trace_id: u64, datum: S) -> bool {
        let Some(item) = lane.offer(trace, &mut self.ring, self.policy, trace_id, datum) else {
            return false;
        };
        match self.ring.wait(item) {
            Some(pushed) => {
                lane.unblocked(trace, trace_id, pushed);
                false
            }
            None => true,
        }
    }
}

impl<S: Subscribable, R: RingTx<Item<S>> + Send> Enqueue for Queue<S, R> {
    #[inline]
    fn enqueue(&mut self, lane: &Lane, trace: TraceLane<'_>, slab: &mut dyn TrackedSlab) -> bool {
        let (trace_id, datum) = take_output::<S>(slab);
        self.send(lane, trace, trace_id, datum)
    }

    #[inline]
    fn enqueue_from_mbuf(
        &mut self,
        lane: &Lane,
        trace: TraceLane<'_>,
        mbuf: &Mbuf,
        trace_id: u64,
    ) -> (bool, bool) {
        match S::from_mbuf(mbuf) {
            Some(datum) => (true, self.send(lane, trace, trace_id, datum)),
            None => (false, false),
        }
    }
}

/// The consumer half of one (core, subscription) ring, typed, as a
/// worker thread drains it.
pub(crate) trait WorkerRing: Send {
    /// The subscription's index (for the chaos layer's delay hook).
    fn sub_idx(&self) -> u16;

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

    fn drain(
        &mut self,
        trace: TraceLane<'_>,
        budget: usize,
        before_callback: &mut dyn FnMut(),
    ) -> (usize, bool) {
        let callback = &*self.callback;
        self.lane
            .drain(trace, &mut self.rx, budget, before_callback, callback)
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

    /// The queued sink on `lane` under `mode`, over a real SPSC ring made
    /// for the datum's type, and the ring's consumer end for a worker.
    fn threaded_ring(
        &self,
        lane: Lane,
        mode: DispatchMode,
    ) -> (Box<ThreadedQueued>, Box<dyn WorkerRing>);

    /// The queued sink on `lane` under `mode` in the stepped harness,
    /// over a ring in virtual time.
    fn stepped_ring(&self, lane: Lane, mode: DispatchMode) -> Box<StepQueued>;
}

/// A threaded queued sink.
pub(crate) type ThreadedQueued = Queued<dyn Enqueue>;

/// A stepped queued sink.
pub(crate) type StepQueued = Queued<dyn StepQueue>;

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

    fn threaded_ring(
        &self,
        lane: Lane,
        mode: DispatchMode,
    ) -> (Box<ThreadedQueued>, Box<dyn WorkerRing>) {
        let (ring, rx) = spsc::ring::<Item<S>>(mode.depth());
        let queue = self.queue(ring, mode);
        let worker = Worker {
            lane: lane.clone(),
            callback: Arc::clone(&queue.callback),
            rx,
        };
        (Box::new(Queued { lane, queue }), Box::new(worker))
    }

    fn stepped_ring(&self, lane: Lane, mode: DispatchMode) -> Box<StepQueued> {
        let queue = self.queue(VirtualRing::<Item<S>>::new(mode.depth()), mode);
        Box::new(Queued { lane, queue })
    }
}

impl<S: Subscribable> TypedSubscription<S> {
    /// The queued half of a lane under `mode`, over `ring`. A
    /// subscription whose results cross a ring has a callback, or it would
    /// have no ring capacity (see [`ring_capacity`]).
    fn queue<R>(&self, ring: R, mode: DispatchMode) -> Queue<S, R> {
        let callback = self
            .callback()
            .expect("a queued subscription has a callback");
        Queue {
            ring,
            policy: mode.policy(),
            callback: Arc::clone(callback),
        }
    }
}

/// The threaded [`Transport`]: one RX core's sinks, indexed by
/// subscription, over real SPSC rings.
pub(crate) struct CoreSinks {
    sinks: Vec<Sink<dyn Enqueue>>,
    /// The run's tracer and this core's RX lane.
    trace: Option<(Arc<Tracer>, usize)>,
}

impl Transport for CoreSinks {
    #[inline]
    fn deliver(&mut self, sub: usize, slab: &mut dyn TrackedSlab) {
        // A real ring waits out a blocked send itself: nothing parks.
        self.sinks[sub].deliver(trace_lane(&self.trace), slab);
    }

    #[inline]
    fn deliver_from_mbuf(&mut self, sub: usize, mbuf: &Mbuf, trace_id: u64) -> bool {
        let trace = trace_lane(&self.trace);
        self.sinks[sub].deliver_from_mbuf(trace, mbuf, trace_id).0
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

/// Builds the full dispatch fabric for one configuration epoch: one
/// [`CoreSinks`] per RX core plus the [`Dispatcher`] owning the worker
/// threads. `stats[i]` are subscription `i`'s counters, its row's.
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
    stats: &[DispatchRow],
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
    let mut dedicated: Vec<(usize, Vec<Box<dyn WorkerRing>>)> = Vec::new();
    let mut shared: Vec<Box<dyn WorkerRing>> = Vec::new();

    for (i, sub) in subs.iter().enumerate() {
        let mut rings = Vec::new();
        for core in &mut per_core {
            let lane = Lane {
                stats: stats[i].clone(),
                sub_idx: u16::try_from(i).unwrap_or(u16::MAX),
            };
            let sink = Sink::new(sub, lane, modes[i], |lane| {
                let (queued, ring) = sub.delivery().0.threaded_ring(lane, modes[i]);
                rings.push(ring);
                queued
            });
            core.sinks.push(sink);
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
        let mut assignments: Vec<Vec<Box<dyn WorkerRing>>> =
            (0..workers).map(|_| Vec::new()).collect();
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
    mut rings: Vec<Box<dyn WorkerRing>>,
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
                    let sub = ring.sub_idx();
                    let (ran, disconnected) =
                        ring.drain(trace_lane(&trace), WORKER_BURST, &mut || {
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
        shared_workers: usize,
        delay: &CallbackDelayFn,
    ) -> (Vec<CoreSinks>, Dispatcher, Vec<DispatchRow>) {
        let stats: Vec<DispatchRow> = DispatchRow::block(subs.len()).collect();
        for ((row, sub), mode) in stats.iter().zip(subs).zip(modes) {
            row.set_capacity(ring_capacity(&**sub, *mode, cores));
        }
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
        let (mut sinks, dispatcher, stats) = fabric(&subs, &modes, 1, 2, &no_delay());
        assert_eq!(dispatcher.handles.len(), 2);
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
        let delay: CallbackDelayFn =
            Arc::new(|_, seq| (seq == 0).then(|| Duration::from_millis(50)));
        let modes = [DispatchMode::dedicated(2).shedding()];
        let (mut sinks, dispatcher, stats) = fabric(&subs, &modes, 1, 1, &delay);
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
        let (mut sinks, dispatcher, stats) =
            fabric(&subs, &[DispatchMode::Inline], 1, 1, &no_delay());
        assert_eq!(dispatcher.handles.len(), 0);
        sinks[0].deliver(0, &mut *outputs(&sub, 1));
        assert_eq!(count.load(Ordering::Relaxed), 1);
        assert_eq!(dispatcher.join(), 0);
        stats[0].snapshot().check(1).unwrap();
    }

    /// Both ends of one ring in one place, so a script can play
    /// producer and worker in turn; `sever` makes the next send find the
    /// worker gone.
    trait TestRing: RingTx<Item<ConnRecord>> + RingRx<Item<ConnRecord>> {
        fn sever(&mut self);
    }

    /// A real SPSC ring; severing drops its consumer.
    struct RealRing(
        spsc::Producer<Item<ConnRecord>>,
        Option<spsc::Consumer<Item<ConnRecord>>>,
    );

    impl RingTx<Item<ConnRecord>> for RealRing {
        fn try_push(
            &mut self,
            item: Item<ConnRecord>,
        ) -> Result<(), TrySendError<Item<ConnRecord>>> {
            self.0.try_push(item)
        }

        fn wait(&mut self, item: Item<ConnRecord>) -> Option<bool> {
            self.0.wait(item)
        }
    }

    impl RingRx<Item<ConnRecord>> for RealRing {
        fn try_pop(&mut self) -> Result<Item<ConnRecord>, TryRecvError> {
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
    struct SeverableVirtual(VirtualRing<Item<ConnRecord>>, bool);

    impl RingTx<Item<ConnRecord>> for SeverableVirtual {
        fn try_push(
            &mut self,
            item: Item<ConnRecord>,
        ) -> Result<(), TrySendError<Item<ConnRecord>>> {
            if self.1 {
                return Err(TrySendError::Disconnected(item));
            }
            self.0.try_push(item)
        }

        fn wait(&mut self, item: Item<ConnRecord>) -> Option<bool> {
            self.0.wait(item)
        }
    }

    impl RingRx<Item<ConnRecord>> for SeverableVirtual {
        fn try_pop(&mut self) -> Result<Item<ConnRecord>, TryRecvError> {
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
        let offer = |ring: &mut _, policy| lane.offer(rx, ring, policy, TID, record());

        // Fill.
        assert!(offer(&mut ring, QueuePolicy::Shed).is_none());
        assert!(offer(&mut ring, QueuePolicy::Shed).is_none());
        // Overflow under Shed: dropped with accounting, nothing handed back.
        assert!(offer(&mut ring, QueuePolicy::Shed).is_none());
        // Overflow under Block: handed back; the worker frees a slot,
        // the send goes through and is settled.
        let blocked = offer(&mut ring, QueuePolicy::Block).expect("full ring blocks the send");
        assert_eq!(
            lane.drain(worker, &mut ring, 1, || {}, callback),
            (1, false)
        );
        ring.try_push(blocked).expect("a slot was freed");
        lane.unblocked(rx, TID, true);
        // Drain everything.
        assert_eq!(
            lane.drain(worker, &mut ring, usize::MAX, || {}, callback),
            (2, false)
        );
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
        let (tx, rx) = spsc::ring::<Item<ConnRecord>>(2);
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
