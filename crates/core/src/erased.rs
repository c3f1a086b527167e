//! Type-erased subscriptions: the glue that lets one pipeline serve N
//! differently-typed subscriptions.
//!
//! A [`crate::Subscribable`] is monomorphic — its tracked state and its
//! callback both know the concrete output type. To run many of them in a
//! single pass (one packet filter walk, one connection table, one
//! reassembler per connection), the runtime stores each subscription
//! behind object-safe traits:
//!
//! * [`ErasedSubscription`] — the subscription *spec*: level, parsers,
//!   lazy-reconstruction needs, a factory for a core's store of
//!   per-connection state, and the way back to the typed user callback
//!   ([`ErasedSubscription::invoke`] downcasts a boxed output; the
//!   delivery fabric in [`crate::executor`] calls it inline or on a
//!   dispatch worker).
//! * [`TrackedSlab`] — one core's per-connection state for one
//!   subscription: a typed slab (`Vec<Option<T>>` + free list, the
//!   `ConnArena` pattern) the tracker addresses by slot id. A new
//!   connection takes a slot; nothing is boxed per connection. Outputs
//!   are boxed as [`ErasedOutput`] — the one allocation type erasure
//!   needs — straight into the tracker's buffer through an [`Emitter`],
//!   whose typed front ([`TypedEmitter`]) is what `Tracked` hooks see.
//!
//! The connection tracker tags every output with its subscription index,
//! so data always reaches the subscription that knows its type; the
//! downcast is an internal invariant, not a user-visible fallibility.

use std::any::Any;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

use retina_conntrack::{Dir, FiveTuple};
use retina_nic::Mbuf;
use retina_protocols::Session;
use retina_wire::ParsedPacket;

use crate::subscription::{ConnView, Level, Subscribable, Tracked};

/// A boxed subscription datum in flight between tracker and callback.
pub type ErasedOutput = Box<dyn Any + Send>;

/// Object-safe view of a subscription: everything the shared pipeline
/// needs to know, without the concrete `Subscribable` type.
pub trait ErasedSubscription: Send + Sync {
    /// Human-readable name (used in per-subscription telemetry).
    fn name(&self) -> &str;
    /// The subscription's abstraction level.
    fn level(&self) -> Level;
    /// Application-layer parsers the subscribable type needs.
    fn parsers(&self) -> Vec<&'static str>;
    /// Whether the tracked state wants in-order payload bytes.
    fn needs_stream(&self) -> bool;
    /// Whether the tracked state wants per-packet delivery after a match.
    fn needs_packets_post_match(&self) -> bool;
    /// Creates one core's (empty) store of per-connection tracked state.
    fn new_slab(&self) -> Box<dyn TrackedSlab>;
    /// Whether a user callback is attached (false = spec-only).
    fn has_callback(&self) -> bool;
    /// Downcasts one boxed output and invokes the user callback on it
    /// (a no-op for spec-only subscriptions): the one way from the
    /// delivery fabric back to the typed callback, on whichever thread
    /// the subscription's dispatch mode puts it.
    fn invoke(&self, out: ErasedOutput);
    /// Packet-level fast path, inline: builds the datum straight from
    /// the frame and invokes the user callback on it, boxing nothing.
    /// Returns whether a datum was produced — always `false` for a
    /// spec-only subscription, which builds none.
    fn invoke_from_mbuf(&self, mbuf: &Mbuf) -> bool;
    /// Packet-level fast path, dispatched: the same datum boxed, so it
    /// can cross a ring to a worker (`None` when the frame does not
    /// yield one).
    fn output_from_mbuf(&self, mbuf: &Mbuf) -> Option<ErasedOutput>;
}

/// Where [`TrackedSlab`] hooks put the data they produce: the tracker's
/// reused output buffer. Every datum is tagged with its subscription
/// index and the connection's flow trace id, and counted as delivered,
/// in this one place.
pub struct Emitter<'a> {
    outputs: &'a mut Vec<(u32, u64, ErasedOutput)>,
    delivered: &'a mut u64,
    sub: u32,
    trace_id: u64,
}

impl<'a> Emitter<'a> {
    /// An emitter for subscription `sub` on the connection whose flow
    /// trace id is `trace_id` (0 = unsampled), counting into `delivered`.
    pub(crate) fn new(
        outputs: &'a mut Vec<(u32, u64, ErasedOutput)>,
        delivered: &'a mut u64,
        sub: u32,
        trace_id: u64,
    ) -> Self {
        Emitter {
            outputs,
            delivered,
            sub,
            trace_id,
        }
    }

    /// Queues one datum for delivery.
    pub fn emit(&mut self, out: ErasedOutput) {
        self.outputs.push((self.sub, self.trace_id, out));
        *self.delivered += 1;
    }

    /// The typed front a `Tracked` hook producing `O`s writes to.
    pub fn typed<O: Send + 'static>(&mut self) -> TypedEmitter<'_, O> {
        let inner = Emitter::new(self.outputs, self.delivered, self.sub, self.trace_id);
        TypedEmitter(inner, PhantomData)
    }
}

/// The typed front of an [`Emitter`], handed to
/// [`Tracked::on_match`], [`Tracked::post_match`] and
/// [`Tracked::on_terminate`]: `out.push(datum)` boxes the datum straight
/// into the tracker's output buffer — no intermediate vector.
pub struct TypedEmitter<'a, O>(Emitter<'a>, PhantomData<fn(O)>);

impl<O: Send + 'static> TypedEmitter<'_, O> {
    /// Queues one datum for delivery.
    pub fn push(&mut self, datum: O) {
        self.0.emit(Box::new(datum));
    }
}

/// One core's per-connection tracked state for one subscription, behind
/// an object-safe face: the tracker keeps a slot id per engaged
/// connection and drives the `Tracked` lifecycle through it.
pub trait TrackedSlab: Send {
    /// Creates state for a new connection; returns its slot id.
    fn insert(&mut self, tuple: &FiveTuple, first_ts_ns: u64) -> u32;
    /// Drops the state in `slot` and recycles the slot.
    fn release(&mut self, slot: u32);
    /// Number of occupied slots.
    fn live(&self) -> usize;
    /// Packet seen before the subscription's filter fully matched.
    fn pre_match(&mut self, slot: u32, mbuf: &Mbuf, pkt: &ParsedPacket);
    /// The next in-order payload segment, `mbuf.data()[payload]` (only
    /// for engaged, stream-needing subs).
    fn on_stream(&mut self, slot: u32, dir: Dir, mbuf: &Mbuf, payload: Range<usize>);
    /// The subscription's filter fully matched.
    fn on_match(
        &mut self,
        slot: u32,
        conn: &ConnView<'_>,
        service: Option<&'static str>,
        session: Option<&Session>,
        out: &mut Emitter<'_>,
    );
    /// Packet seen after a full match.
    fn post_match(&mut self, slot: u32, mbuf: &Mbuf, pkt: &ParsedPacket, out: &mut Emitter<'_>);
    /// The connection ended after a full match.
    fn on_terminate(&mut self, slot: u32, conn: &ConnView<'_>, out: &mut Emitter<'_>);
}

/// The slab of a concrete `Tracked` type: dense slots, recycled through
/// a free list, so steady-state connection churn allocates nothing here.
struct TypedSlab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> TypedSlab<T> {
    fn state(&mut self, slot: u32) -> &mut T {
        self.slots[slot as usize]
            .as_mut()
            .expect("slot id of a released tracked state")
    }
}

impl<T> TrackedSlab for TypedSlab<T>
where
    T: Tracked,
    T::Out: Send + 'static,
{
    fn insert(&mut self, tuple: &FiveTuple, first_ts_ns: u64) -> u32 {
        let state = Some(T::new(tuple, first_ts_ns));
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = state;
            slot
        } else {
            self.slots.push(state);
            u32::try_from(self.slots.len() - 1).expect("slab exceeds u32 slots")
        }
    }

    fn release(&mut self, slot: u32) {
        let state = self.slots[slot as usize].take();
        debug_assert!(state.is_some(), "double release of slot {slot}");
        self.free.push(slot);
    }

    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn pre_match(&mut self, slot: u32, mbuf: &Mbuf, pkt: &ParsedPacket) {
        self.state(slot).pre_match(mbuf, pkt);
    }

    fn on_stream(&mut self, slot: u32, dir: Dir, mbuf: &Mbuf, payload: Range<usize>) {
        self.state(slot).on_stream(dir, mbuf, payload);
    }

    fn on_match(
        &mut self,
        slot: u32,
        conn: &ConnView<'_>,
        service: Option<&'static str>,
        session: Option<&Session>,
        out: &mut Emitter<'_>,
    ) {
        self.state(slot)
            .on_match(conn, service, session, &mut out.typed());
    }

    fn post_match(&mut self, slot: u32, mbuf: &Mbuf, pkt: &ParsedPacket, out: &mut Emitter<'_>) {
        self.state(slot).post_match(mbuf, pkt, &mut out.typed());
    }

    fn on_terminate(&mut self, slot: u32, conn: &ConnView<'_>, out: &mut Emitter<'_>) {
        self.state(slot).on_terminate(conn, &mut out.typed());
    }
}

/// A subscription spec binding a subscribable type to a (possibly
/// absent) user callback.
///
/// With a callback this is a full runtime subscription; without one it
/// is *spec-only* — the tracker still reconstructs and tags outputs, and
/// the caller drains them itself (the offline mode does this).
pub struct TypedSubscription<S: Subscribable> {
    name: String,
    callback: Option<Arc<dyn Fn(S) + Send + Sync>>,
    _marker: PhantomData<fn(S)>,
}

impl<S: Subscribable> TypedSubscription<S> {
    /// A subscription delivering to `callback`.
    pub fn new(name: impl Into<String>, callback: impl Fn(S) + Send + Sync + 'static) -> Self {
        TypedSubscription {
            name: name.into(),
            callback: Some(Arc::new(callback)),
            _marker: PhantomData,
        }
    }

    /// A spec-only subscription: tracked state and outputs, no callback.
    pub fn spec_only(name: impl Into<String>) -> Self {
        TypedSubscription {
            name: name.into(),
            callback: None,
            _marker: PhantomData,
        }
    }
}

impl<S: Subscribable> ErasedSubscription for TypedSubscription<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn level(&self) -> Level {
        S::level()
    }

    fn parsers(&self) -> Vec<&'static str> {
        S::parsers()
    }

    fn needs_stream(&self) -> bool {
        S::Tracked::needs_stream()
    }

    fn needs_packets_post_match(&self) -> bool {
        S::Tracked::needs_packets_post_match()
    }

    fn new_slab(&self) -> Box<dyn TrackedSlab> {
        Box::new(TypedSlab::<S::Tracked> {
            slots: Vec::new(),
            free: Vec::new(),
        })
    }

    fn has_callback(&self) -> bool {
        self.callback.is_some()
    }

    fn invoke(&self, out: ErasedOutput) {
        let data = out
            .downcast::<S>()
            .expect("subscription output routed to a subscription of another type");
        if let Some(callback) = &self.callback {
            callback(*data);
        }
    }

    fn invoke_from_mbuf(&self, mbuf: &Mbuf) -> bool {
        let Some(callback) = &self.callback else {
            return false;
        };
        match S::from_mbuf(mbuf) {
            Some(data) => {
                callback(data);
                true
            }
            None => false,
        }
    }

    fn output_from_mbuf(&self, mbuf: &Mbuf) -> Option<ErasedOutput> {
        S::from_mbuf(mbuf).map(|data| Box::new(data) as ErasedOutput)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscribables::ConnRecord;
    use retina_conntrack::TcpFlow;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tuple() -> FiveTuple {
        FiveTuple {
            orig: "1.2.3.4:1000".parse().unwrap(),
            resp: "5.6.7.8:443".parse().unwrap(),
            proto: 6,
        }
    }

    /// A view of a connection that has seen nothing yet.
    fn view<'a>(tuple: &'a FiveTuple, flow: &'a TcpFlow) -> ConnView<'a> {
        ConnView {
            tuple,
            first_seen_ns: 0,
            last_seen_ns: 0,
            established: false,
            flow,
        }
    }

    #[test]
    fn typed_subscription_reports_spec() {
        let sub = TypedSubscription::<ConnRecord>::spec_only("conns");
        assert_eq!(sub.name(), "conns");
        assert_eq!(sub.level(), Level::Connection);
        assert!(!sub.needs_stream());
        assert!(!sub.has_callback());
        let mut slab = sub.new_slab();
        let slot = slab.insert(&tuple(), 0);
        let (tuple, flow) = (tuple(), TcpFlow::new(16));
        let conn = view(&tuple, &flow);
        let (mut outputs, mut delivered) = (Vec::new(), 0);
        let mut out = Emitter::new(&mut outputs, &mut delivered, 3, 9);
        slab.on_match(slot, &conn, None, None, &mut out);
        slab.on_terminate(slot, &conn, &mut out);
        // Tagged and counted by the emitter.
        assert_eq!(delivered, outputs.len() as u64);
        assert!(outputs.iter().all(|(sub, tid, _)| (*sub, *tid) == (3, 9)));
        // A spec-only `invoke` swallows outputs without panicking.
        for (_, _, o) in outputs {
            sub.invoke(o);
        }
    }

    #[test]
    fn invoke_downcasts_and_delivers() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        let sub = TypedSubscription::<ConnRecord>::new("conns", move |_r: ConnRecord| {
            h.fetch_add(1, Ordering::Relaxed);
        });
        assert!(sub.has_callback());
        let (tuple, flow) = (tuple(), TcpFlow::new(16));
        let (mut outputs, mut delivered) = (Vec::new(), 0);
        let mut out = Emitter::new(&mut outputs, &mut delivered, 0, 0);
        let mut slab = sub.new_slab();
        let slot = slab.insert(&tuple, 0);
        slab.on_terminate(slot, &view(&tuple, &flow), &mut out);
        assert_eq!(outputs.len(), 1);
        sub.invoke(outputs.pop().unwrap().2);
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn slab_recycles_released_slots() {
        let mut slab = TypedSubscription::<ConnRecord>::spec_only("conns").new_slab();
        let (a, b, c) = (
            slab.insert(&tuple(), 0),
            slab.insert(&tuple(), 1),
            slab.insert(&tuple(), 2),
        );
        assert_eq!((a, b, c, slab.live()), (0, 1, 2, 3));
        slab.release(b);
        assert_eq!(slab.live(), 2);
        assert_eq!(slab.insert(&tuple(), 3), b, "freed slot reused first");
        assert_eq!(slab.insert(&tuple(), 4), 3, "then the slab grows");
        assert_eq!(slab.live(), 4);
    }
}
