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
//!   per-connection state, and its [`Delivery`]: the typed sinks and
//!   rings the delivery fabric in [`crate::executor`] is built from, which
//!   carry the datum to the user callback — inline or on a dispatch
//!   worker — as itself, never boxed.
//! * [`TrackedSlab`] — one core's per-connection state for one
//!   subscription: a [`Slab`] of its `Tracked` type (the connection
//!   arena's storage) the tracker addresses by slot id, plus the
//!   subscription's **output lane**, a `VecDeque<(u64, O)>` of what its
//!   hooks emitted, kept (capacity and all) across flushes. A new
//!   connection takes a slot, an output takes a place in the lane:
//!   nothing is boxed per connection or per datum. The hooks write
//!   through an [`Emitter`], whose typed front ([`TypedEmitter`]) is what
//!   `Tracked` hooks see; the tracker keeps only the emission order, one
//!   subscription index per datum.
//!
//! The connection tracker tags every output with its subscription index,
//! so a lane is always read by the subscription that knows its type: the
//! one type check, where a sink takes a datum out of its lane, is an
//! internal invariant, not a user-visible fallibility.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

use retina_conntrack::{Dir, FiveTuple};
use retina_nic::Mbuf;
use retina_support::slab::Slab;
use retina_wire::ParsedPacket;

use crate::executor::Deliver;
use crate::subscription::{ConnView, Level, MatchedSession, Subscribable, Tracked};

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
    /// The typed half of the subscription's delivery, which the
    /// runtime's dispatch fabrics build their sinks and rings from.
    fn delivery(&self) -> Delivery<'_>;
}

/// The typed half of a subscription's delivery — what carries its datum
/// from its output lane to its callback, inline or through rings made
/// for the datum's type — which only the subscription can provide: it
/// alone knows the type. Opaque outside the runtime.
pub struct Delivery<'a>(pub(crate) &'a dyn Deliver);

/// Takes the head of the output lane in `slab`, which holds `S`s: the one
/// place a datum meets its type again. Every sink of every driver reads
/// its subscription's lane through here.
///
/// # Panics
/// Panics if `slab` is another subscription's (an index mix-up in the
/// caller) or its lane is empty (a flush walking past what was emitted).
pub(crate) fn take_output<S: 'static>(slab: &mut dyn TrackedSlab) -> (u64, S) {
    slab.lane()
        .downcast_mut::<VecDeque<(u64, S)>>()
        .expect("an output lane read as another subscription's type")
        .pop_front()
        .expect("one datum in the lane per emission")
}

/// Where [`TrackedSlab`] hooks put the data they produce: each datum into
/// its subscription's lane, the subscription's index into the tracker's
/// emission order, tagged with the connection's flow trace id and
/// counted as delivered — in this one place.
pub struct Emitter<'a> {
    order: &'a mut Vec<u32>,
    delivered: &'a mut u64,
    sub: u32,
    trace_id: u64,
}

impl<'a> Emitter<'a> {
    /// An emitter for subscription `sub` on the connection whose flow
    /// trace id is `trace_id` (0 = unsampled), recording emission order
    /// in `order` and counting into `delivered`.
    pub(crate) fn new(
        order: &'a mut Vec<u32>,
        delivered: &'a mut u64,
        sub: u32,
        trace_id: u64,
    ) -> Self {
        Emitter {
            order,
            delivered,
            sub,
            trace_id,
        }
    }

    /// The typed front writing into `lane`, the subscription's lane.
    fn typed<'b, O>(&'b mut self, lane: &'b mut VecDeque<(u64, O)>) -> TypedEmitter<'b, O> {
        TypedEmitter {
            lane,
            order: &mut *self.order,
            delivered: &mut *self.delivered,
            sub: self.sub,
            trace_id: self.trace_id,
        }
    }
}

/// The typed front of an [`Emitter`], handed to
/// [`Tracked::on_match`], [`Tracked::post_match`] and
/// [`Tracked::on_terminate`]: `out.push(datum)` moves the datum into the
/// subscription's output lane as itself — no box, no intermediate vector.
pub struct TypedEmitter<'a, O> {
    lane: &'a mut VecDeque<(u64, O)>,
    order: &'a mut Vec<u32>,
    delivered: &'a mut u64,
    sub: u32,
    trace_id: u64,
}

impl<O> TypedEmitter<'_, O> {
    /// Queues one datum for delivery.
    pub fn push(&mut self, datum: O) {
        self.lane.push_back((self.trace_id, datum));
        self.order.push(self.sub);
        *self.delivered += 1;
    }
}

/// One core's per-connection tracked state for one subscription, behind
/// an object-safe face: the tracker keeps a slot id per engaged
/// connection and drives the `Tracked` lifecycle through it. The slab
/// also holds the subscription's output lane.
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
        session: Option<MatchedSession<'_>>,
        out: &mut Emitter<'_>,
    );
    /// Packet seen after a full match.
    fn post_match(&mut self, slot: u32, mbuf: &Mbuf, pkt: &ParsedPacket, out: &mut Emitter<'_>);
    /// The connection ended after a full match.
    fn on_terminate(&mut self, slot: u32, conn: &ConnView<'_>, out: &mut Emitter<'_>);
    /// The output lane — a `VecDeque<(u64, O)>` of `(flow trace id,
    /// datum)`, oldest first — with its type erased, for a sink to take
    /// the head of (see [`Delivery`]).
    fn lane(&mut self) -> &mut dyn Any;
    /// Drops whatever the lane still holds and, when it has room for more
    /// than `keep` data, its allocation: after a flush the lane is empty,
    /// and this bounds what it goes on holding.
    fn clear_lane(&mut self, keep: usize);
}

/// The states of a concrete `Tracked` type, in a [`Slab`] (so
/// steady-state connection churn allocates nothing here), and the lane
/// its outputs wait in.
struct TypedSlab<T: Tracked> {
    states: Slab<T>,
    lane: VecDeque<(u64, T::Out)>,
}

impl<T> TrackedSlab for TypedSlab<T>
where
    T: Tracked,
    T::Out: Send + 'static,
{
    fn insert(&mut self, tuple: &FiveTuple, first_ts_ns: u64) -> u32 {
        self.states.insert(T::new(tuple, first_ts_ns))
    }

    fn release(&mut self, slot: u32) {
        let state = self.states.remove(slot);
        debug_assert!(state.is_some(), "double release of slot {slot}");
    }

    fn live(&self) -> usize {
        self.states.len()
    }

    fn pre_match(&mut self, slot: u32, mbuf: &Mbuf, pkt: &ParsedPacket) {
        self.states[slot].pre_match(mbuf, pkt);
    }

    fn on_stream(&mut self, slot: u32, dir: Dir, mbuf: &Mbuf, payload: Range<usize>) {
        self.states[slot].on_stream(dir, mbuf, payload);
    }

    fn on_match(
        &mut self,
        slot: u32,
        conn: &ConnView<'_>,
        service: Option<&'static str>,
        session: Option<MatchedSession<'_>>,
        out: &mut Emitter<'_>,
    ) {
        let out = &mut out.typed(&mut self.lane);
        self.states[slot].on_match(conn, service, session, out);
    }

    fn post_match(&mut self, slot: u32, mbuf: &Mbuf, pkt: &ParsedPacket, out: &mut Emitter<'_>) {
        let out = &mut out.typed(&mut self.lane);
        self.states[slot].post_match(mbuf, pkt, out);
    }

    fn on_terminate(&mut self, slot: u32, conn: &ConnView<'_>, out: &mut Emitter<'_>) {
        let out = &mut out.typed(&mut self.lane);
        self.states[slot].on_terminate(conn, out);
    }

    fn lane(&mut self) -> &mut dyn Any {
        &mut self.lane
    }

    fn clear_lane(&mut self, keep: usize) {
        if self.lane.capacity() > keep {
            self.lane = VecDeque::new();
        } else {
            self.lane.clear();
        }
    }
}

/// A user callback, shared by every core's sink and every worker.
pub(crate) type Callback<S> = Arc<dyn Fn(S) + Send + Sync>;

/// A subscription spec binding a subscribable type to a (possibly
/// absent) user callback.
///
/// With a callback this is a full runtime subscription; without one it
/// is *spec-only* — the tracker still reconstructs and tags outputs, and
/// the caller drains them itself (the offline mode does this).
pub struct TypedSubscription<S: Subscribable> {
    name: String,
    callback: Option<Callback<S>>,
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

    /// The user callback (`None` for a spec-only subscription).
    pub(crate) fn callback(&self) -> Option<&Callback<S>> {
        self.callback.as_ref()
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
            states: Slab::new(),
            lane: VecDeque::new(),
        })
    }

    fn has_callback(&self) -> bool {
        self.callback.is_some()
    }

    fn delivery(&self) -> Delivery<'_> {
        Delivery(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscribables::ConnRecord;
    use retina_conntrack::TcpFlow;

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
        let (mut order, mut delivered) = (Vec::new(), 0);
        let mut out = Emitter::new(&mut order, &mut delivered, 3, 9);
        slab.on_match(slot, &conn, None, None, &mut out);
        slab.on_terminate(slot, &conn, &mut out);
        // Ordered and counted by the emitter; tagged with the trace id in
        // the subscription's own lane.
        assert_eq!(delivered, order.len() as u64);
        assert!(order.iter().all(|&sub| sub == 3));
        for _ in &order {
            let (tid, record) = take_output::<ConnRecord>(&mut *slab);
            assert_eq!((tid, record.tuple), (9, tuple));
        }
        // Drained: a cleared lane keeps at most what it was told to.
        slab.clear_lane(0);
        let lane = slab.lane().downcast_mut::<VecDeque<(u64, ConnRecord)>>();
        assert_eq!(lane.map(|l| l.capacity()), Some(0));
    }

    #[test]
    fn lane_holds_outputs_unboxed_in_emission_order() {
        let sub = TypedSubscription::<ConnRecord>::spec_only("conns");
        let mut slab = sub.new_slab();
        let (mut order, mut delivered) = (Vec::new(), 0);
        let flow = TcpFlow::new(16);
        let tuples: Vec<FiveTuple> = (0..3u16)
            .map(|i| FiveTuple {
                orig: format!("1.2.3.4:{}", 1000 + i).parse().unwrap(),
                ..tuple()
            })
            .collect();
        for (i, t) in tuples.iter().enumerate() {
            let slot = slab.insert(t, 0);
            let mut out = Emitter::new(&mut order, &mut delivered, 0, i as u64);
            slab.on_terminate(slot, &view(t, &flow), &mut out);
        }
        assert_eq!((order, delivered), (vec![0, 0, 0], 3));
        for (i, t) in tuples.iter().enumerate() {
            let (tid, record) = take_output::<ConnRecord>(&mut *slab);
            assert_eq!((tid, record.tuple), (i as u64, *t));
        }
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
