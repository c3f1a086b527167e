//! Delivery: where a connection's per-subscription state lives (one
//! typed slab per subscription, addressed by slot id), the one emit path
//! into the subscriptions' output lanes, the emission order the pipeline
//! flushes them in, and the tallies it keeps by row. The machine (`phase.rs`)
//! decides who gets `on_match` / `on_terminate` and who is dropped or
//! served; this file is how.

use std::sync::Arc;

use retina_conntrack::{ConnEntry, FiveTuple};
use retina_filter::{FilterFns, SubscriptionSet};

use super::{Conn, Machine};
use crate::erased::{Emitter, ErasedSubscription, TrackedSlab};
use crate::pipeline::BURST_MAX;
use crate::stats::CoreStats;
use crate::subscription::ConnView;

/// What the tracker has produced and not yet handed over: the
/// subscription of each datum, in emission order, and the slabs whose
/// output lanes hold the data themselves. The pipeline's flush drains it.
pub(crate) struct Outbox<'a> {
    order: &'a mut Vec<u32>,
    slabs: &'a mut [Box<dyn TrackedSlab>],
    stats: &'a mut CoreStats,
}

impl Outbox<'_> {
    /// Hands every pending datum, in emission order, to `deliver` —
    /// which takes it out of `slab`, its subscription's — with the core's
    /// statistics. A flush of more than [`BURST_MAX`] data leaves no lane
    /// with room for more: what a lane retains stays bounded whatever a
    /// single connection or expiry released.
    pub(crate) fn drain(
        self,
        mut deliver: impl FnMut(usize, &mut dyn TrackedSlab, &mut CoreStats),
    ) {
        for &sub in self.order.iter() {
            deliver(sub as usize, &mut *self.slabs[sub as usize], self.stats);
        }
        if self.order.len() > BURST_MAX {
            for slab in self.slabs.iter_mut() {
                slab.clear_lane(BURST_MAX);
            }
        }
        self.order.clear();
    }
}

/// Slot ids a connection keeps inline before spilling to the heap.
const INLINE_REFS: usize = 4;

/// The slot ids of [`TrackedRefs`], in ascending subscription order.
pub(super) enum SlotIds {
    Inline([u32; INLINE_REFS]),
    Spilled(Vec<u32>),
}

/// Where a connection's per-subscription reconstruction state lives:
/// for every subscription still holding state on the connection, its
/// slot id in that subscription's [`TrackedSlab`]. A fixed inline
/// record — a new connection allocates nothing for it unless more than
/// [`INLINE_REFS`] subscriptions engage at once.
pub(super) struct TrackedRefs {
    /// Subscriptions holding a slot (released eagerly when they fall
    /// off the connection).
    pub(super) held: SubscriptionSet,
    /// One id per member of `held`, at the member's rank in the set.
    pub(super) slots: SlotIds,
}

impl TrackedRefs {
    pub(super) fn none() -> Self {
        TrackedRefs {
            held: SubscriptionSet::empty(),
            slots: SlotIds::Inline([0; INLINE_REFS]),
        }
    }

    /// Position of subscription `i`'s id among the held ones.
    fn rank(&self, i: usize) -> usize {
        (self.held & SubscriptionSet::first_n(i)).len()
    }

    /// Subscription `i`'s slot id, if it holds state here.
    pub(super) fn slot(&self, i: usize) -> Option<u32> {
        let ids: &[u32] = match &self.slots {
            SlotIds::Inline(ids) => ids,
            SlotIds::Spilled(ids) => ids,
        };
        self.held.contains(i).then(|| ids[self.rank(i)])
    }

    /// Records `slot` for subscription `i`, which must be above every
    /// subscription already held (engagement runs in ascending order).
    pub(super) fn push(&mut self, i: usize, slot: u32) {
        debug_assert_eq!(self.rank(i), self.held.len(), "push out of order");
        let n = self.held.len();
        self.held.insert(i);
        match &mut self.slots {
            SlotIds::Inline(ids) if n < INLINE_REFS => ids[n] = slot,
            SlotIds::Inline(ids) => {
                let mut spilled = ids.to_vec();
                spilled.push(slot);
                self.slots = SlotIds::Spilled(spilled);
            }
            SlotIds::Spilled(ids) => ids.push(slot),
        }
    }

    /// Forgets subscription `i`'s slot id and returns it for release.
    pub(super) fn take(&mut self, i: usize) -> Option<u32> {
        let slot = self.slot(i)?;
        let (r, n) = (self.rank(i), self.held.len());
        match &mut self.slots {
            SlotIds::Inline(ids) => ids.copy_within(r + 1..n.min(INLINE_REFS), r),
            SlotIds::Spilled(ids) => {
                ids.remove(r);
            }
        }
        self.held.remove(i);
        Some(slot)
    }

    /// The same slots under a swap's new indices (`old_of[j]`: new
    /// subscription `j`'s old index); a survivor's slab moves with it.
    pub(super) fn reindexed(&self, old_of: &[Option<usize>]) -> TrackedRefs {
        let mut refs = TrackedRefs::none();
        for (j, i) in old_of.iter().enumerate() {
            if let Some(slot) = i.and_then(|i| self.slot(i)) {
                refs.push(j, slot);
            }
        }
        refs
    }
}

/// One subscription row's delivery/discard tallies on one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubTally {
    /// Subscription data items delivered.
    pub delivered: u64,
    /// Connections on which the subscription was engaged (matched or
    /// live) and then rejected by a later filter layer.
    pub discarded: u64,
}

impl SubTally {
    /// Merges another core's tally into this one.
    pub fn merge(&mut self, other: &SubTally) {
        *self = SubTally {
            delivered: self.delivered + other.delivered,
            discarded: self.discarded + other.discarded,
        };
    }
}

impl<F: FilterFns> Machine<F> {
    /// What delivery produced since the last flush.
    pub(super) fn outbox(&mut self) -> Outbox<'_> {
        Outbox {
            order: &mut self.order,
            slabs: &mut self.slabs,
            stats: &mut self.stats,
        }
    }

    /// The one emit path: runs `hook` on subscription `i`'s tracked state
    /// (if the connection holds any), lending it the connection's view and
    /// an emitter that queues what it produces in `i`'s output lane,
    /// tagged with the trace id, records `i` in the emission order and
    /// counts it in `i`'s row's tally.
    pub(super) fn emit(
        &mut self,
        entry: &ConnEntry<Conn>,
        i: usize,
        hook: impl FnOnce(&mut dyn TrackedSlab, u32, &ConnView<'_>, &mut Emitter<'_>),
    ) {
        let conn = &entry.value;
        if let Some(slot) = conn.tracked.slot(i) {
            let view = ConnView {
                tuple: &entry.tuple,
                first_seen_ns: entry.created_ns,
                last_seen_ns: entry.last_seen_ns,
                established: entry.established,
                flow: self.flows.view(conn.flow),
            };
            let delivered = &mut self.tallies[self.subs[i].row].delivered;
            let mut out = Emitter::new(&mut self.order, delivered, i as u32, conn.trace_id);
            hook(&mut *self.slabs[i], slot, &view, &mut out);
        }
    }

    /// `on_terminate` for subscription `i`, then its state goes back.
    pub(super) fn terminate(&mut self, entry: &mut ConnEntry<Conn>, i: usize) {
        self.emit(entry, i, |t, slot, c, out| t.on_terminate(slot, c, out));
        self.release(&mut entry.value, i);
    }

    /// Releases subscription `i`'s tracked state, if the connection holds
    /// any; returns whether it did.
    pub(super) fn release(&mut self, conn: &mut Conn, i: usize) -> bool {
        let slot = conn.tracked.take(i);
        slot.map(|slot| self.slabs[i].release(slot)).is_some()
    }

    /// A slab slot for each of `on` on a new connection. The slabs are
    /// built with the first tracked connection: a pipeline whose packets
    /// never reach the tracker (packet-level subscriptions) builds none.
    pub(super) fn engage(&mut self, on: SubscriptionSet, t: &FiveTuple, ts: u64) -> TrackedRefs {
        if self.slabs.is_empty() {
            self.slabs = self.subs.iter().map(|s| s.erased.new_slab()).collect();
        }
        let mut tracked = TrackedRefs::none();
        for i in on.iter() {
            tracked.push(i, self.slabs[i].insert(t, ts));
        }
        tracked
    }

    /// A swap's delivery side, after the table pass: survivors' slabs
    /// move to their new index (`old_of`: `remap` inverted), and added
    /// ones start empty.
    pub(super) fn reorder(
        &mut self,
        old_of: &[Option<usize>],
        subs: &[Arc<dyn ErasedSubscription>],
    ) {
        // No slabs yet: nothing was ever tracked, nothing to move.
        if !self.slabs.is_empty() {
            let mut old: Vec<_> = self.slabs.drain(..).map(Some).collect();
            let moved = old_of.iter().zip(subs).map(|(i, sub)| match i {
                Some(i) => old[*i].take().expect("remap is injective"),
                None => sub.new_slab(),
            });
            self.slabs = moved.collect();
        }
    }
}
