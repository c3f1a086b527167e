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
use std::sync::Arc;
use std::time::Duration;

use retina_support::sync::spsc;
use retina_telemetry::{
    trace::TraceDropCode, DispatchHub, DispatchStats, TraceKind, Tracer, TriggerReason,
};

use crate::erased::{ErasedOutput, ErasedSink, ErasedSubscription};

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
pub type CallbackDelayFn = Arc<dyn Fn(u16, u64) -> Option<Duration> + Send + Sync>;

/// A delay function that never delays (the non-chaos default).
#[must_use]
pub fn no_delay() -> CallbackDelayFn {
    Arc::new(|_, _| None)
}

/// Items a worker pops from one ring before moving to the next, so a
/// deep backlog on one ring cannot monopolize a shared worker.
const WORKER_BURST: usize = 256;

/// An inline delivery sink that also keeps the dispatch accounting: the
/// wrapped sink is the typed user callback (or the null sink for
/// spec-only subscriptions), and every handoff is counted so the
/// `delivered == executed + dropped` identity holds uniformly across
/// execution models.
///
/// Generic over how the counters are held: the threaded fabric shares
/// them with the run's [`DispatchHub`] (`Arc<DispatchStats>`), the
/// stepped harness owns them in place.
pub(crate) struct InlineSink<D> {
    pub(crate) inner: Box<dyn ErasedSink>,
    pub(crate) stats: D,
    pub(crate) tracer: Option<Arc<Tracer>>,
    pub(crate) lane: usize,
    pub(crate) sub_idx: u16,
}

impl<D> InlineSink<D> {
    fn emit(&self, trace_id: u64, kind: TraceKind) {
        if trace_id != 0 {
            if let Some(t) = &self.tracer {
                t.emit(self.lane, trace_id, kind, self.sub_idx, 0, 0);
            }
        }
    }
}

impl<D: Borrow<DispatchStats> + Send> ErasedSink for InlineSink<D> {
    fn deliver(&self, out: ErasedOutput, trace_id: u64) {
        self.emit(trace_id, TraceKind::CallbackStart);
        self.inner.deliver(out, trace_id);
        self.stats.borrow().note_inline();
        self.emit(trace_id, TraceKind::CallbackEnd);
    }

    fn deliver_from_mbuf(&self, mbuf: &retina_nic::Mbuf, trace_id: u64) -> bool {
        let produced = self.inner.deliver_from_mbuf(mbuf, trace_id);
        if produced {
            self.stats.borrow().note_inline();
            // Start/end are emitted together after the fact: whether the
            // frame yields a datum is only known once the fast path ran.
            self.emit(trace_id, TraceKind::CallbackStart);
            self.emit(trace_id, TraceKind::CallbackEnd);
        }
        produced
    }
}

/// The producer half of one (core, subscription) ring. Every item
/// crosses the ring tagged with its flow trace id, so worker-side
/// tracepoints reconstruct the cross-thread causal chain.
struct QueuedSink {
    tx: spsc::Producer<(u64, ErasedOutput)>,
    stats: Arc<DispatchStats>,
    policy: QueuePolicy,
    sub: Arc<dyn ErasedSubscription>,
    tracer: Option<Arc<Tracer>>,
    lane: usize,
    sub_idx: u16,
}

impl QueuedSink {
    fn note_enqueued(&self, trace_id: u64) {
        self.stats.note_enqueued();
        if trace_id != 0 {
            if let Some(t) = &self.tracer {
                t.emit(
                    self.lane,
                    trace_id,
                    TraceKind::DispatchEnqueue,
                    self.sub_idx,
                    0,
                    self.stats.depth(),
                );
            }
        }
    }

    fn note_drop(&self, trace_id: u64, code: TraceDropCode) {
        if let Some(t) = &self.tracer {
            t.emit(
                self.lane,
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

    fn push(&self, out: ErasedOutput, trace_id: u64) {
        match self.policy {
            QueuePolicy::Block => match self.tx.try_send((trace_id, out)) {
                Ok(()) => self.note_enqueued(trace_id),
                Err(spsc::TrySendError::Disconnected(_)) => {
                    self.stats.note_dropped_disconnected();
                    self.note_drop(trace_id, TraceDropCode::WorkerDisconnected);
                }
                Err(spsc::TrySendError::Full(out)) => {
                    self.stats.note_blocked();
                    match self.tx.send(out) {
                        Ok(()) => self.note_enqueued(trace_id),
                        Err(spsc::SendError(_)) => {
                            self.stats.note_dropped_disconnected();
                            self.note_drop(trace_id, TraceDropCode::WorkerDisconnected);
                        }
                    }
                }
            },
            QueuePolicy::Shed => match self.tx.try_send((trace_id, out)) {
                Ok(()) => self.note_enqueued(trace_id),
                Err(spsc::TrySendError::Full(_)) => {
                    self.stats.note_dropped_full();
                    self.note_drop(trace_id, TraceDropCode::DispatchShed);
                }
                Err(spsc::TrySendError::Disconnected(_)) => {
                    self.stats.note_dropped_disconnected();
                    self.note_drop(trace_id, TraceDropCode::WorkerDisconnected);
                }
            },
        }
    }
}

impl ErasedSink for QueuedSink {
    fn deliver(&self, out: ErasedOutput, trace_id: u64) {
        self.push(out, trace_id);
    }

    fn deliver_from_mbuf(&self, mbuf: &retina_nic::Mbuf, trace_id: u64) -> bool {
        match self.sub.output_from_mbuf(mbuf) {
            Some(out) => {
                self.push(out, trace_id);
                true
            }
            None => false,
        }
    }
}

/// The consumer half of one (core, subscription) ring, tagged with the
/// subscription it belongs to.
struct WorkerRing {
    sub: usize,
    rx: spsc::Consumer<(u64, ErasedOutput)>,
}

/// Handle over the dispatch worker threads; joins once every producer
/// sink has been dropped and every ring drained.
pub struct Dispatcher {
    handles: Vec<std::thread::JoinHandle<u64>>,
}

impl Dispatcher {
    /// Number of worker threads (0 when every subscription is inline).
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.handles.len()
    }

    /// Waits for every worker to drain its rings and exit; returns the
    /// total number of callbacks executed on workers.
    #[must_use]
    pub fn join(self) -> u64 {
        self.handles
            .into_iter()
            .map(|h| h.join().expect("dispatch worker panicked"))
            .sum()
    }
}

/// Builds the full dispatch fabric for one run: per-core sink vectors
/// (outer index = RX core, inner index = subscription) plus the
/// [`Dispatcher`] owning the worker threads.
///
/// Inline subscriptions get a counting wrapper around their typed sink;
/// dispatched subscriptions get one SPSC ring per RX core, with
/// dedicated subscriptions draining on their own thread and shared
/// subscriptions' rings spread round-robin over `shared_workers`
/// threads. Dropping the returned sinks disconnects the rings, which is
/// how workers learn the run is over.
///
/// # Panics
/// Panics if `modes.len() != subs.len()` or a worker thread cannot be
/// spawned.
#[must_use]
pub fn channel_dispatcher(
    subs: &[Arc<dyn ErasedSubscription>],
    modes: &[DispatchMode],
    cores: usize,
    shared_workers: usize,
    hub: &DispatchHub,
    delay: &CallbackDelayFn,
    tracer: Option<&Arc<Tracer>>,
) -> (Vec<Vec<Box<dyn ErasedSink>>>, Dispatcher) {
    assert_eq!(
        subs.len(),
        modes.len(),
        "one dispatch mode per subscription"
    );
    let mut per_core: Vec<Vec<Box<dyn ErasedSink>>> = (0..cores.max(1))
        .map(|_| Vec::with_capacity(subs.len()))
        .collect();
    let mut dedicated: Vec<(usize, Vec<WorkerRing>)> = Vec::new();
    let mut shared: Vec<WorkerRing> = Vec::new();

    for (i, sub) in subs.iter().enumerate() {
        let stats = hub.get(i);
        let mode = modes[i];
        let sub_idx = u16::try_from(i).unwrap_or(u16::MAX);
        // Spec-only subscriptions have nothing to run on a worker;
        // keep them inline so delivery accounting is identical across
        // modes (their packet fast path must stay a no-op).
        if !mode.is_dispatched() || !sub.has_callback() {
            for (core, sinks) in per_core.iter_mut().enumerate() {
                sinks.push(Box::new(InlineSink {
                    inner: sub.inline_sink(),
                    stats: Arc::clone(&stats),
                    tracer: tracer.map(Arc::clone),
                    lane: tracer.map_or(0, |t| t.rx_lane(core)),
                    sub_idx,
                }));
            }
            continue;
        }
        let mut rings = Vec::with_capacity(per_core.len());
        for (core, sinks) in per_core.iter_mut().enumerate() {
            let (tx, rx) = spsc::ring::<(u64, ErasedOutput)>(mode.depth());
            sinks.push(Box::new(QueuedSink {
                tx,
                stats: Arc::clone(&stats),
                policy: mode.policy(),
                sub: Arc::clone(sub),
                tracer: tracer.map(Arc::clone),
                lane: tracer.map_or(0, |t| t.rx_lane(core)),
                sub_idx,
            }));
            rings.push(WorkerRing { sub: i, rx });
        }
        match mode {
            DispatchMode::Dedicated { .. } => dedicated.push((i, rings)),
            _ => shared.extend(rings),
        }
    }

    // Worker lanes are assigned in spawn order: dedicated workers in
    // subscription order, then the shared pool.
    let mut worker_idx = 0usize;
    let mut handles = Vec::new();
    for (i, rings) in dedicated {
        handles.push(spawn_worker(
            format!("retina-cb-{}", subs[i].name()),
            rings,
            subs,
            hub,
            delay,
            tracer.map(|t| (Arc::clone(t), t.worker_lane(worker_idx))),
        ));
        worker_idx += 1;
    }
    if !shared.is_empty() {
        let workers = shared_workers.max(1).min(shared.len());
        let mut assignments: Vec<Vec<WorkerRing>> = (0..workers).map(|_| Vec::new()).collect();
        for (n, ring) in shared.into_iter().enumerate() {
            assignments[n % workers].push(ring);
        }
        for (w, rings) in assignments.into_iter().enumerate() {
            handles.push(spawn_worker(
                format!("retina-cb-pool-{w}"),
                rings,
                subs,
                hub,
                delay,
                tracer.map(|t| (Arc::clone(t), t.worker_lane(worker_idx))),
            ));
            worker_idx += 1;
        }
    }
    (per_core, Dispatcher { handles })
}

/// Spawns one worker thread draining `rings` until every producer is
/// gone and every ring empty. Returns the executed-callback count.
fn spawn_worker(
    name: String,
    rings: Vec<WorkerRing>,
    subs: &[Arc<dyn ErasedSubscription>],
    hub: &DispatchHub,
    delay: &CallbackDelayFn,
    tracer: Option<(Arc<Tracer>, usize)>,
) -> std::thread::JoinHandle<u64> {
    let subs: Vec<Arc<dyn ErasedSubscription>> =
        rings.iter().map(|r| Arc::clone(&subs[r.sub])).collect();
    let stats: Vec<Arc<DispatchStats>> = rings.iter().map(|r| hub.get(r.sub)).collect();
    let delay = Arc::clone(delay);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let mut executed = 0u64;
            // Per-subscription item sequence, fed to the delay hook. A
            // dedicated subscription's items all pass through this one
            // thread, so its sequence is the subscription-global order.
            let mut seqs: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
            let mut done = vec![false; rings.len()];
            let emit = |trace_id: u64, kind: TraceKind, sub: u16, b: u64| {
                if trace_id != 0 {
                    if let Some((t, lane)) = &tracer {
                        t.emit(*lane, trace_id, kind, sub, 0, b);
                    }
                }
            };
            loop {
                let mut progress = false;
                for (ri, ring) in rings.iter().enumerate() {
                    if done[ri] {
                        continue;
                    }
                    for _ in 0..WORKER_BURST {
                        match ring.rx.try_recv() {
                            Ok((trace_id, out)) => {
                                let seq = seqs.entry(ring.sub).or_insert(0);
                                let sub16 = u16::try_from(ring.sub).unwrap_or(u16::MAX);
                                emit(
                                    trace_id,
                                    TraceKind::DispatchDequeue,
                                    sub16,
                                    stats[ri].depth(),
                                );
                                if let Some(d) = delay(sub16, *seq) {
                                    std::thread::sleep(d);
                                }
                                *seq += 1;
                                emit(trace_id, TraceKind::CallbackStart, sub16, 0);
                                subs[ri].invoke(out);
                                emit(trace_id, TraceKind::CallbackEnd, sub16, 0);
                                stats[ri].note_executed();
                                executed += 1;
                                progress = true;
                            }
                            Err(spsc::TryRecvError::Empty) => break,
                            Err(spsc::TryRecvError::Disconnected) => {
                                done[ri] = true;
                                break;
                            }
                        }
                    }
                }
                if done.iter().all(|&d| d) {
                    break;
                }
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
    use crate::erased::TypedSubscription;
    use crate::subscribables::ConnRecord;
    use retina_conntrack::{FiveTuple, TcpFlow};
    use std::sync::atomic::{AtomicU64, Ordering};

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
        let mut tracked = sub.new_tracked(&tuple, 0);
        let flow = TcpFlow::new(0, 16);
        let mut out = Vec::new();
        tracked.on_terminate(&flow, &mut out);
        out.pop().expect("ConnRecord emits on terminate")
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
        let hub = DispatchHub::new(&[8]);
        let (mut sinks, dispatcher) = channel_dispatcher(
            &subs,
            &[DispatchMode::dedicated(4)],
            2,
            1,
            &hub,
            &no_delay(),
            None,
        );
        assert_eq!(dispatcher.worker_count(), 1);
        for core_sinks in &sinks {
            for _ in 0..50 {
                core_sinks[0].deliver(one_output(&sub), 0);
            }
        }
        sinks.clear(); // disconnect the rings
        assert_eq!(dispatcher.join(), 100);
        assert_eq!(count.load(Ordering::Relaxed), 100);
        hub.snapshots()[0].check(100).unwrap();
    }

    #[test]
    fn shared_pool_drains_multiple_subscriptions() {
        let count = Arc::new(AtomicU64::new(0));
        let a = counted_sub(&count);
        let b = counted_sub(&count);
        let subs = vec![Arc::clone(&a), Arc::clone(&b)];
        let hub = DispatchHub::new(&[4, 4]);
        let (mut sinks, dispatcher) = channel_dispatcher(
            &subs,
            &[DispatchMode::shared(4), DispatchMode::shared(4)],
            1,
            2,
            &hub,
            &no_delay(),
            None,
        );
        assert_eq!(dispatcher.worker_count(), 2);
        for _ in 0..30 {
            sinks[0][0].deliver(one_output(&a), 0);
            sinks[0][1].deliver(one_output(&b), 0);
        }
        sinks.clear();
        assert_eq!(dispatcher.join(), 60);
        assert_eq!(count.load(Ordering::Relaxed), 60);
        for snap in hub.snapshots() {
            snap.check(30).unwrap();
        }
    }

    #[test]
    fn shed_policy_drops_with_accounting_when_worker_stalls() {
        let count = Arc::new(AtomicU64::new(0));
        let sub = counted_sub(&count);
        let subs = vec![Arc::clone(&sub)];
        let hub = DispatchHub::new(&[2]);
        // Stall the worker long enough for the 2-deep ring to fill.
        let delay: CallbackDelayFn =
            Arc::new(|_, seq| (seq == 0).then(|| Duration::from_millis(50)));
        let (mut sinks, dispatcher) = channel_dispatcher(
            &subs,
            &[DispatchMode::dedicated(2).shedding()],
            1,
            1,
            &hub,
            &delay,
            None,
        );
        for _ in 0..40 {
            sinks[0][0].deliver(one_output(&sub), 0);
        }
        sinks.clear();
        let executed = dispatcher.join();
        let snap = hub.snapshots()[0];
        assert_eq!(snap.executed, executed);
        assert!(snap.dropped_full > 0, "2-deep ring under stall must shed");
        snap.check(40).unwrap();
    }

    #[test]
    fn inline_sinks_count_without_threads() {
        let count = Arc::new(AtomicU64::new(0));
        let sub = counted_sub(&count);
        let subs = vec![Arc::clone(&sub)];
        let hub = DispatchHub::new(&[0]);
        let (sinks, dispatcher) = channel_dispatcher(
            &subs,
            &[DispatchMode::Inline],
            1,
            1,
            &hub,
            &no_delay(),
            None,
        );
        assert_eq!(dispatcher.worker_count(), 0);
        sinks[0][0].deliver(one_output(&sub), 0);
        assert_eq!(count.load(Ordering::Relaxed), 1);
        assert_eq!(dispatcher.join(), 0);
        hub.snapshots()[0].check(1).unwrap();
    }
}
