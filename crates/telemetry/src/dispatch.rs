//! Per-subscription callback-dispatch statistics.
//!
//! The multicore dispatcher hands each matched result from the RX core
//! to a worker over a bounded SPSC ring. Everything that crosses (or
//! fails to cross) that hop is counted here, per subscription, with the
//! same exactness discipline as the drop taxonomy: after a run drains,
//! `enqueued == executed + dropped_full + dropped_disconnected`, and
//! the runtime's `check_accounting` ties `delivered` (sink handoffs) to
//! the same sum. The instantaneous queue occupancy doubles as the
//! governor's queue-pressure shed input.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};

/// Live dispatch counters for one subscription (shared between its
/// producer sinks, its worker, and the monitor tick the governor runs
/// in).
#[derive(Debug, Default)]
pub struct DispatchStats {
    /// Total ring capacity across all per-core rings (0 = inline, no
    /// queue — occupancy reads as 0).
    capacity: AtomicU64,
    /// Results handed to the dispatch layer (inline invocations count
    /// here too, so the accounting identity is uniform across modes).
    enqueued: AtomicU64,
    /// Results whose callback actually ran.
    executed: AtomicU64,
    /// Results dropped because the ring was full (Shed policy).
    dropped_full: AtomicU64,
    /// Results dropped because the worker was gone.
    dropped_disconnected: AtomicU64,
    /// Results currently in flight in the rings.
    depth: AtomicU64,
    /// High-water mark of `depth`.
    depth_peak: AtomicU64,
    /// Sends that found the ring full and blocked (Block policy) —
    /// RX-core stall events, the precursor signal to shedding.
    blocked_sends: AtomicU64,
}

impl DispatchStats {
    /// Sets the total ring capacity: the subscription's rings were
    /// (re)built.
    pub fn set_capacity(&self, capacity: u64) {
        self.capacity.store(capacity, Ordering::Relaxed);
    }

    /// Records a successful enqueue onto a ring.
    pub fn note_enqueued(&self) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        // Wrapping: after a blocked send the worker can dequeue and
        // `note_executed` before the producer gets here, so the previous
        // depth is momentarily "-1" (the counter itself wraps back).
        let depth = self.depth.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        self.depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Records a dequeue + callback execution by a worker.
    pub fn note_executed(&self) {
        self.executed.fetch_add(1, Ordering::Relaxed);
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records an inline invocation (no queue hop: enqueued and
    /// executed in one step, depth untouched).
    pub fn note_inline(&self) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        self.executed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a result shed because the ring was full.
    pub fn note_dropped_full(&self) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        self.dropped_full.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a result lost because the worker disconnected.
    pub fn note_dropped_disconnected(&self) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        self.dropped_disconnected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a send that found the ring full and had to block.
    pub fn note_blocked(&self) {
        self.blocked_sends.fetch_add(1, Ordering::Relaxed);
    }

    /// Instantaneous queue depth in results (0 for inline subs) — the
    /// raw count behind [`DispatchStats::occupancy`], exposed so
    /// tracepoints and the periodic monitor can record absolute
    /// occupancy without knowing the capacity.
    #[must_use]
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Instantaneous queue occupancy in `[0, 1]` (0 for inline subs).
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        let capacity = self.capacity.load(Ordering::Relaxed);
        if capacity == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let occ = self.depth.load(Ordering::Relaxed) as f64 / capacity as f64;
        occ.min(1.0)
    }

    /// Point-in-time copy of every counter.
    #[must_use]
    pub fn snapshot(&self) -> DispatchSnapshot {
        DispatchSnapshot {
            capacity: self.capacity.load(Ordering::Relaxed),
            enqueued: self.enqueued.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            dropped_full: self.dropped_full.load(Ordering::Relaxed),
            dropped_disconnected: self.dropped_disconnected.load(Ordering::Relaxed),
            depth: self.depth.load(Ordering::Relaxed),
            depth_peak: self.depth_peak.load(Ordering::Relaxed),
            blocked_sends: self.blocked_sends.load(Ordering::Relaxed),
        }
    }
}

/// Frozen copy of one subscription's [`DispatchStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchSnapshot {
    /// Total ring capacity (0 = inline).
    pub capacity: u64,
    /// Results handed to the dispatch layer.
    pub enqueued: u64,
    /// Results whose callback ran.
    pub executed: u64,
    /// Results shed on a full ring.
    pub dropped_full: u64,
    /// Results lost to a disconnected worker.
    pub dropped_disconnected: u64,
    /// Results in flight at snapshot time.
    pub depth: u64,
    /// Queue-depth high-water mark.
    pub depth_peak: u64,
    /// Blocking sends (Block policy full-ring stalls).
    pub blocked_sends: u64,
}

impl DispatchSnapshot {
    /// Verifies the dispatch accounting identity after a drained run:
    /// every handoff (`delivered`, counted by the tracker at the sink
    /// boundary) is attributed to exactly one outcome — executed, shed
    /// on a full ring, or lost to a dead worker — and nothing remains
    /// in flight.
    ///
    /// # Errors
    /// Returns a description of the first violated identity.
    pub fn check(&self, delivered: u64) -> Result<(), String> {
        if self.depth != 0 {
            return Err(format!(
                "{} results still in flight after drain",
                self.depth
            ));
        }
        let attributed = self.executed + self.dropped_full + self.dropped_disconnected;
        if self.enqueued != attributed {
            return Err(format!(
                "enqueued {} != executed {} + dropped_full {} + dropped_disconnected {}",
                self.enqueued, self.executed, self.dropped_full, self.dropped_disconnected
            ));
        }
        if delivered != self.enqueued {
            return Err(format!(
                "delivered {delivered} != dispatch handoffs {}",
                self.enqueued
            ));
        }
        Ok(())
    }
}

/// One subscription's [`DispatchStats`], held in a block shared with the
/// other subscriptions installed at the same time: a whole table of
/// counters is one allocation, and a handle is a reference-count bump.
#[derive(Debug, Clone)]
pub struct DispatchRow {
    block: Arc<[DispatchStats]>,
    at: usize,
}

impl DispatchRow {
    /// `n` fresh counters (capacity 0) in one block, a handle to each.
    pub fn block(n: usize) -> impl Iterator<Item = DispatchRow> {
        let block: Arc<[DispatchStats]> = (0..n).map(|_| DispatchStats::default()).collect();
        (0..n).map(move |at| DispatchRow {
            block: Arc::clone(&block),
            at,
        })
    }
}

impl Deref for DispatchRow {
    type Target = DispatchStats;

    fn deref(&self) -> &DispatchStats {
        &self.block[self.at]
    }
}

/// The live subscription table's dispatch stats, indexed by
/// subscription order — the runtime owns one for its whole life and
/// shares it with the governor and the monitor.
///
/// Membership follows the configuration: every published epoch (a run's
/// first, and each live swap's) [`DispatchHub::replace`]s it, so a
/// long-lived observer always samples the table that is running. A
/// subscription's counters are its row of the run's table, one per name
/// for the whole run (so `delivered == executed + dropped` stays a single
/// whole-run identity per subscription name, across swaps).
#[derive(Debug, Default)]
pub struct DispatchHub {
    subs: RwLock<Vec<DispatchRow>>,
}

impl DispatchHub {
    /// A hub with one stats block per subscription; `capacities[i]` is
    /// subscription i's total ring capacity (0 = inline).
    #[must_use]
    pub fn new(capacities: &[u64]) -> Self {
        let subs = DispatchRow::block(capacities.len())
            .zip(capacities)
            .map(|(row, &c)| {
                row.set_capacity(c);
                row
            })
            .collect();
        Self {
            subs: RwLock::new(subs),
        }
    }

    fn subs(&self) -> RwLockReadGuard<'_, Vec<DispatchRow>> {
        // A poisoned lock still guards a valid table: `replace` only
        // clears the vector and refills it.
        self.subs
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Replaces the membership with a newly published configuration's
    /// stats blocks, in its subscription order. The table is refilled in
    /// place: publishing as many subscriptions as it held allocates
    /// nothing.
    pub fn replace(&self, subs: impl IntoIterator<Item = DispatchRow>) {
        let mut table = self
            .subs
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        table.clear();
        table.extend(subs);
    }

    /// Number of subscriptions tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.subs().len()
    }

    /// True when no subscriptions are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.subs().is_empty()
    }

    /// Shared handle to subscription `i`'s stats.
    #[must_use]
    pub fn get(&self, i: usize) -> DispatchRow {
        self.subs()[i].clone()
    }

    /// The worst queue occupancy across all subscriptions — the
    /// governor's queue-pressure signal.
    #[must_use]
    pub fn max_occupancy(&self) -> f64 {
        self.subs()
            .iter()
            .map(|s| s.occupancy())
            .fold(0.0, f64::max)
    }

    /// Total items currently queued across every subscription's rings —
    /// the monitor's periodic queue-depth sample.
    #[must_use]
    pub fn total_depth(&self) -> u64 {
        self.subs().iter().map(|s| s.depth()).sum()
    }

    /// Per-subscription snapshots, in subscription order.
    #[must_use]
    pub fn snapshots(&self) -> Vec<DispatchSnapshot> {
        self.subs().iter().map(|s| s.snapshot()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_identity_holds() {
        let stats = DispatchStats::default();
        stats.set_capacity(8);
        for _ in 0..5 {
            stats.note_enqueued();
        }
        assert!(stats.occupancy() > 0.5);
        for _ in 0..5 {
            stats.note_executed();
        }
        stats.note_dropped_full();
        stats.note_dropped_disconnected();
        stats.note_inline();
        let snap = stats.snapshot();
        assert_eq!(snap.enqueued, 8);
        assert_eq!(snap.depth, 0);
        assert_eq!(snap.depth_peak, 5);
        snap.check(8).unwrap();
        assert!(snap.check(7).is_err(), "delivered mismatch must fail");
    }

    #[test]
    fn inline_sub_reads_zero_occupancy() {
        let stats = DispatchStats::default();
        stats.note_inline();
        assert_eq!(stats.occupancy(), 0.0);
        stats.snapshot().check(1).unwrap();
    }

    #[test]
    fn hub_reports_worst_occupancy() {
        let hub = DispatchHub::new(&[0, 4, 8]);
        assert_eq!(hub.len(), 3);
        hub.get(1).note_enqueued();
        hub.get(2).note_enqueued();
        assert!((hub.max_occupancy() - 0.25).abs() < 1e-9);
        let snaps = hub.snapshots();
        assert_eq!(snaps[0].enqueued, 0);
        assert_eq!(snaps[1].depth, 1);
        assert!(snaps[2].check(1).is_err(), "in-flight result must fail");
    }

    #[test]
    fn hub_membership_follows_replace() {
        let hub = DispatchHub::new(&[0, 4]);
        let survivor = hub.get(1);
        survivor.note_enqueued();
        let mut added = DispatchRow::block(2);
        let (a, b) = (added.next().unwrap(), added.next().unwrap());
        a.set_capacity(8);
        b.set_capacity(2);
        hub.replace(vec![a, survivor, b]);
        assert_eq!(hub.len(), 3);
        assert_eq!(hub.total_depth(), 1, "the survivor kept its counters");
        assert_eq!(hub.snapshots()[0].capacity, 8);
    }
}
