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
//!   lazy-reconstruction needs, a factory for per-connection state, and
//!   the way back to the typed user callback ([`ErasedSubscription::invoke`]
//!   downcasts a boxed output; the delivery fabric in [`crate::executor`]
//!   calls it inline or on a dispatch worker).
//! * [`ErasedTracked`] — per-connection state, with outputs boxed as
//!   [`ErasedOutput`] and handed to the tracker through an [`Emitter`].
//!
//! The connection tracker tags every output with its subscription index,
//! so data always reaches the subscription that knows its type; the
//! downcast is an internal invariant, not a user-visible fallibility.

use std::any::Any;
use std::marker::PhantomData;
use std::sync::Arc;

use retina_conntrack::{Dir, FiveTuple, TcpFlow};
use retina_nic::Mbuf;
use retina_protocols::Session;
use retina_wire::ParsedPacket;

use crate::subscription::{Level, Subscribable, Tracked};

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
    /// Creates per-connection tracked state.
    fn new_tracked(&self, tuple: &FiveTuple, first_ts_ns: u64) -> Box<dyn ErasedTracked>;
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

/// Where [`ErasedTracked`] methods put the data they produce: the
/// tracker's reused output buffer. Every datum is tagged with its
/// subscription index and the connection's flow trace id, and counted
/// as delivered, in this one place.
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
}

/// Object-safe per-connection tracked state (`Tracked` with outputs
/// boxed).
pub trait ErasedTracked: Send {
    /// Packet seen before the subscription's filter fully matched.
    fn pre_match(&mut self, mbuf: &Mbuf, pkt: &ParsedPacket);
    /// In-order payload bytes (only for matched, stream-needing subs).
    fn on_stream(&mut self, dir: Dir, data: &[u8]);
    /// The subscription's filter fully matched.
    fn on_match(
        &mut self,
        service: Option<&str>,
        session: Option<&Session>,
        flow: &TcpFlow,
        out: &mut Emitter<'_>,
    );
    /// Packet seen after a full match.
    fn post_match(&mut self, mbuf: &Mbuf, pkt: &ParsedPacket, out: &mut Emitter<'_>);
    /// The connection ended after a full match.
    fn on_terminate(&mut self, flow: &TcpFlow, out: &mut Emitter<'_>);
}

/// Wraps a concrete `Tracked` implementation behind [`ErasedTracked`],
/// boxing outputs as they are produced.
struct TypedTracked<T: Tracked>(T);

/// Runs one `Tracked` hook against a call-local typed vector (the public
/// `Tracked::on_*` signatures take one) and boxes what it produced into
/// the tracker's buffer. The vector allocates only if the hook emits.
fn emit_typed<O: Send + 'static>(out: &mut Emitter<'_>, hook: impl FnOnce(&mut Vec<O>)) {
    let mut items = Vec::new();
    hook(&mut items);
    for item in items {
        out.emit(Box::new(item));
    }
}

impl<T> ErasedTracked for TypedTracked<T>
where
    T: Tracked,
    T::Out: Send + 'static,
{
    fn pre_match(&mut self, mbuf: &Mbuf, pkt: &ParsedPacket) {
        self.0.pre_match(mbuf, pkt);
    }

    fn on_stream(&mut self, dir: Dir, data: &[u8]) {
        self.0.on_stream(dir, data);
    }

    fn on_match(
        &mut self,
        service: Option<&str>,
        session: Option<&Session>,
        flow: &TcpFlow,
        out: &mut Emitter<'_>,
    ) {
        emit_typed(out, |items| self.0.on_match(service, session, flow, items));
    }

    fn post_match(&mut self, mbuf: &Mbuf, pkt: &ParsedPacket, out: &mut Emitter<'_>) {
        emit_typed(out, |items| self.0.post_match(mbuf, pkt, items));
    }

    fn on_terminate(&mut self, flow: &TcpFlow, out: &mut Emitter<'_>) {
        emit_typed(out, |items| self.0.on_terminate(flow, items));
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

    fn new_tracked(&self, tuple: &FiveTuple, first_ts_ns: u64) -> Box<dyn ErasedTracked> {
        Box::new(TypedTracked(S::Tracked::new(tuple, first_ts_ns)))
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tuple() -> FiveTuple {
        FiveTuple {
            orig: "1.2.3.4:1000".parse().unwrap(),
            resp: "5.6.7.8:443".parse().unwrap(),
            proto: 6,
        }
    }

    #[test]
    fn typed_subscription_reports_spec() {
        let sub = TypedSubscription::<ConnRecord>::spec_only("conns");
        assert_eq!(sub.name(), "conns");
        assert_eq!(sub.level(), Level::Connection);
        assert!(!sub.needs_stream());
        assert!(!sub.has_callback());
        let t = tuple();
        let mut tracked = sub.new_tracked(&t, 0);
        let flow = TcpFlow::new(0, 16);
        let (mut outputs, mut delivered) = (Vec::new(), 0);
        let mut out = Emitter::new(&mut outputs, &mut delivered, 3, 9);
        tracked.on_match(None, None, &flow, &mut out);
        tracked.on_terminate(&flow, &mut out);
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
        let t = tuple();
        let flow = TcpFlow::new(0, 16);
        let (mut outputs, mut delivered) = (Vec::new(), 0);
        let mut out = Emitter::new(&mut outputs, &mut delivered, 0, 0);
        sub.new_tracked(&t, 0).on_terminate(&flow, &mut out);
        assert_eq!(outputs.len(), 1);
        sub.invoke(outputs.pop().unwrap().2);
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }
}
