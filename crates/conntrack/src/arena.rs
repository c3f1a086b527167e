//! Arena of connection entries: a [`Slab`] of slots (see
//! [`retina_support::slab`]) whose `u32` indices are the handles, and the
//! timer wheel linked through them.
//!
//! An occupied slot's two link words place it in a bucket of the arena's
//! [`TimerWheel`] (`schedule`, `pop_due`; see [`crate::timerwheel`]).
//! Freeing a slot unlinks it, so no timer outlives its connection, and
//! nothing holds a handle across a free but a caller's hint, which is
//! checked against the full key of whatever the slot holds now. Slot
//! indices stay below the wheel's sentinels.
//!
//! A slot holds the connection's identity **once**: the oriented
//! [`FiveTuple`] in the entry (the canonical [`crate::ConnKey`] is derived
//! from it, and a hit verified with [`crate::ConnKey::is_key_of`]). Beside
//! it is what expiry needs to unlink it without re-deriving anything: the
//! owner's 64-bit index key and the two link words. Every 8 bytes here
//! are 0.85 MB at scan's 106,496-slot arena: [`ConnArena::SLOT_OVERHEAD`]
//! is asserted in the tests.

use retina_support::slab::Slab;

use crate::timerwheel::{Link, TimerWheel, SENTINEL};
use crate::tuple::FiveTuple;

/// Compact reference to an arena slot: its index. It names whatever the
/// slot holds, so a caller that keeps one across packets (a hint) checks
/// the occupant's key before trusting it.
///
/// The `u32` index bounds one arena at ~4 billion live connections, far
/// above the per-core target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnHandle(pub(crate) u32);

impl ConnHandle {
    /// The slot index (dense, reusable).
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }
}

/// A tracked connection: identity, liveness stamps, and caller state.
#[derive(Debug)]
pub struct ConnEntry<V> {
    /// Oriented five-tuple (originator = first packet seen).
    pub tuple: FiveTuple,
    /// First-packet timestamp.
    pub created_ns: u64,
    /// Most recent packet timestamp. The table updates this on
    /// packet processing; the wheel is *not* touched per packet.
    pub last_seen_ns: u64,
    /// Whether the connection is established (drives which timeout
    /// applies).
    pub established: bool,
    /// Caller-owned per-connection state.
    pub value: V,
}

/// What an occupied arena slot holds: its link words, the occupant's
/// index key (opaque here: whatever the owner looks the entry up by), and
/// the occupant. The slab's vacancy tag lives in the entry's `bool`.
#[derive(Debug)]
pub(crate) struct Slot<V> {
    link: Link,
    index_key: u64,
    entry: ConnEntry<V>,
}

/// Slab of connection entries, with the timer wheel whose buckets are
/// linked through its slots.
#[derive(Debug)]
pub struct ConnArena<V> {
    /// The slots: their count is the live high water, their bytes
    /// ([`Slab::allocated_bytes`]) all the arena allocates — the wheel's
    /// sentinels are held inline ([`TimerWheel::BYTES`]).
    pub(crate) slab: Slab<Slot<V>>,
    wheel: TimerWheel,
}

impl<V> Default for ConnArena<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> ConnArena<V> {
    /// Bytes one slot occupies.
    pub const SLOT_BYTES: usize = Slab::<Slot<V>>::ENTRY_BYTES;

    /// Bytes a slot spends on everything but the caller's `V`: identity,
    /// stamps, link words, index key.
    pub const SLOT_OVERHEAD: usize = Self::SLOT_BYTES - std::mem::size_of::<V>();

    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        ConnArena {
            slab: Slab::new(),
            wheel: TimerWheel::new(),
        }
    }

    /// Inserts an entry, unscheduled, reusing the most recently freed
    /// slot when one exists.
    pub fn insert(&mut self, index_key: u64, entry: ConnEntry<V>) -> ConnHandle {
        let index = self.slab.next_index();
        assert!(index < SENTINEL, "arena exceeds u32 slots");
        self.slab.insert(Slot {
            link: Link::lone(index),
            index_key,
            entry,
        });
        ConnHandle(index)
    }

    /// The entry at `handle`, if its slot is occupied.
    #[must_use]
    pub fn get(&self, handle: ConnHandle) -> Option<&ConnEntry<V>> {
        self.slab.get(handle.0).map(|slot| &slot.entry)
    }

    /// Mutable access to the entry at `handle`, if its slot is occupied.
    pub fn get_mut(&mut self, handle: ConnHandle) -> Option<&mut ConnEntry<V>> {
        self.slab.get_mut(handle.0).map(|slot| &mut slot.entry)
    }

    /// Removes the entry at `handle`, unlinking it from its wheel bucket
    /// and freeing the slot. Returns `(index_key, entry)`.
    pub fn remove(&mut self, handle: ConnHandle) -> Option<(u64, ConnEntry<V>)> {
        self.get(handle)?;
        self.unlink(handle.0);
        Some(self.vacate(handle.0))
    }

    /// Frees the occupied slot at `index`, out of any bucket, and hands
    /// back what it held.
    pub(crate) fn vacate(&mut self, index: u32) -> (u64, ConnEntry<V>) {
        let slot = self.slab.remove(index).expect("vacating an occupied slot");
        (slot.index_key, slot.entry)
    }

    /// Iterates live entries in slot order — deterministic, unlike a
    /// randomly-seeded hash map.
    pub fn iter(&self) -> impl Iterator<Item = &ConnEntry<V>> {
        self.slab.iter().map(|(_, slot)| &slot.entry)
    }

    /// The index keys of the live entries, in slot order.
    pub(crate) fn index_keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.slab.iter().map(|(_, slot)| slot.index_key)
    }

    /// The slot indices issued so far: every live slot's is among them.
    fn indices(&self) -> std::ops::Range<u32> {
        0..u32::try_from(self.slab.slots()).expect("slot indices are u32")
    }

    /// Mutably visits every live entry in slot order; entries for which
    /// `f` returns `false` are removed (unlinked, slot freed) and handed
    /// to `on_remove` with their handle and index key. Used by the
    /// live-reconfiguration rebind, which must rewrite or evict every
    /// tracked connection in one deterministic pass, and — with an `f`
    /// that keeps nothing — to drain the arena in place.
    pub fn retain_mut(
        &mut self,
        mut f: impl FnMut(&mut ConnEntry<V>) -> bool,
        mut on_remove: impl FnMut(ConnHandle, u64, ConnEntry<V>),
    ) {
        for index in self.indices() {
            let keep = match self.slab.get_mut(index) {
                Some(slot) => f(&mut slot.entry),
                None => continue,
            };
            if !keep {
                self.unlink(index);
                let (index_key, entry) = self.vacate(index);
                on_remove(ConnHandle(index), index_key, entry);
            }
        }
    }

    /// Frees every slot, handing each entry to `on_drain` in slot order,
    /// and empties the wheel's buckets at once: no slot is unlinked from
    /// its neighbours one by one.
    pub fn drain(&mut self, mut on_drain: impl FnMut(ConnEntry<V>)) {
        for index in self.indices() {
            if let Some(slot) = self.slab.remove(index) {
                on_drain(slot.entry);
            }
        }
        self.wheel.clear();
    }

    /// The link words at `at`: a bucket's sentinel, or a timed slot's.
    fn link(&mut self, at: u32) -> &mut Link {
        if at >= SENTINEL {
            self.wheel.sentinel(at)
        } else {
            &mut self.slab[at].link
        }
    }

    /// Takes the slot at `index` out of its bucket, if it is in one.
    fn unlink(&mut self, index: u32) {
        let Link { prev, next } = *self.link(index);
        if prev == index {
            return; // in no bucket
        }
        debug_assert!(
            self.link(prev).next == index && self.link(next).prev == index,
            "slot {index}'s neighbours do not link back to it"
        );
        self.link(prev).next = next;
        self.link(next).prev = prev;
        *self.link(index) = Link::lone(index);
    }

    /// Times the entry at `handle` for `deadline_ns`: moves it to the
    /// tail of that deadline's bucket, or of the rotation's last one for
    /// a deadline past it (see [`crate::timerwheel`]).
    pub(crate) fn schedule(&mut self, handle: ConnHandle, deadline_ns: u64) {
        let index = handle.0;
        self.unlink(index);
        let bucket = self.wheel.bucket_of(deadline_ns);
        let last = self.link(bucket).prev;
        *self.link(index) = Link {
            prev: last,
            next: bucket,
        };
        self.link(last).next = index;
        self.link(bucket).prev = index;
    }

    /// The next timed entry whose bucket the wheel's clock passes on its
    /// way to `now_ns`, unlinked (unscheduled) but still in its slot, or
    /// `None` once the clock is at `now_ns`'s tick. Buckets drain in tick
    /// order, each from its head; the owner decides, from the entry's
    /// stamps, whether it expires or is scheduled again.
    pub(crate) fn pop_due(&mut self, now_ns: u64) -> Option<ConnHandle> {
        loop {
            let bucket = self.wheel.current();
            let first = self.link(bucket).next;
            if first != bucket {
                debug_assert_eq!(self.link(first).prev, bucket, "a bucket's head links back");
                self.unlink(first);
                return Some(ConnHandle(first));
            }
            if !self.wheel.step(now_ns) {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::SocketAddr;

    fn entry(n: u16) -> ConnEntry<u32> {
        let orig: SocketAddr = format!("10.0.0.1:{n}").parse().unwrap();
        let resp: SocketAddr = "1.1.1.1:443".parse().unwrap();
        ConnEntry {
            tuple: FiveTuple {
                orig,
                resp,
                proto: 6,
            },
            created_ns: 0,
            last_seen_ns: 0,
            established: false,
            value: u32::from(n),
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut arena = ConnArena::new();
        let h = arena.insert(77, entry(1));
        assert_eq!(arena.slab.len(), 1);
        assert_eq!(arena.get(h).unwrap().value, 1);
        assert_eq!(arena.get(h).unwrap().tuple, entry(1).tuple);
        let (index_key, e2) = arena.remove(h).unwrap();
        assert_eq!(index_key, 77);
        assert_eq!(e2.value, 1);
        assert!(arena.slab.is_empty());
    }

    #[test]
    fn a_freed_slot_is_vacant_until_it_is_reused() {
        let mut arena = ConnArena::new();
        let h1 = arena.insert(10, entry(1));
        arena.remove(h1).unwrap();
        assert!(arena.get(h1).is_none());
        assert!(arena.remove(h1).is_none(), "a vacant slot frees nothing");
        // The handle is the slot: after reuse it names the new occupant,
        // which is why a kept handle is checked against the full key.
        let h2 = arena.insert(20, entry(2));
        assert_eq!(h1, h2);
        assert_eq!(arena.get(h1).unwrap().value, 2);
        // The reused slot reports its new occupant's index key.
        let (index_key, _) = arena.remove(h2).unwrap();
        assert_eq!(index_key, 20);
    }

    #[test]
    fn churn_reuses_capacity() {
        let mut arena = ConnArena::new();
        let mut handles = Vec::new();
        for round in 0..10 {
            for n in 0..1000u16 {
                handles.push(arena.insert(u64::from(n), entry(n)));
            }
            assert_eq!(arena.slab.len(), 1000);
            let bytes = arena.slab.allocated_bytes();
            for h in handles.drain(..) {
                arena.remove(h).unwrap();
            }
            if round > 0 {
                assert_eq!(
                    arena.slab.allocated_bytes(),
                    bytes,
                    "steady-state churn must not grow the arena"
                );
            }
        }
        assert_eq!(arena.slab.slots(), 1000);
        assert!(arena.slab.is_empty());
    }

    #[test]
    fn drain_all_in_slot_order() {
        let mut arena = ConnArena::new();
        for n in 0..5u16 {
            arena.insert(u64::from(n), entry(n));
        }
        let mut values = Vec::new();
        arena.retain_mut(
            |_| false,
            |h, ikey, e| values.push((h.index(), ikey, e.value)),
        );
        assert_eq!(
            values,
            vec![(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4)],
            "slot order is deterministic"
        );
        assert!(arena.slab.is_empty());
        // Post-drain slots are all vacant.
        assert!(arena.get(ConnHandle(0)).is_none());
    }

    #[test]
    fn high_water_is_monotonic() {
        let mut arena = ConnArena::new();
        let h = arena.insert(10, entry(1));
        let h2 = arena.insert(20, entry(2));
        assert_eq!(arena.slab.slots(), 2);
        arena.remove(h).unwrap();
        arena.remove(h2).unwrap();
        assert_eq!(arena.slab.slots(), 2, "high water never drops");
    }

    #[test]
    fn an_arena_that_never_inserts_allocates_nothing() {
        let arena: ConnArena<u32> = ConnArena::new();
        assert_eq!(arena.slab.allocated_bytes(), 0);
    }

    retina_support::proptest! {
        #![proptest_config(retina_support::proptest::ProptestConfig::with_cases(24))]

        /// Random bursts of inserts, removals (of handles whose slot may
        /// be vacant or reused since) and `retain_mut` passes over up to
        /// ~5 chunks of slots (the storage itself is `Slab`'s, checked
        /// against a model in `retina_support::slab`). Every entry is
        /// timed when it goes in, so the removals unlink slots from every
        /// place in a bucket; a removed entry brings back the index key it
        /// went in with, and at the end each live entry, and nothing else,
        /// pops off the wheel once.
        #[test]
        fn every_live_entry_pops_off_the_wheel_once(
            ops in retina_support::proptest::collection::vec(
                (0u8..3, 0..2u32 << 13, 1u32..64),
                1..24,
            )
        ) {
            let mut arena = ConnArena::new();
            let mut handles: Vec<ConnHandle> = Vec::new();
            let mut next_value = 0u32;
            for (op, count, step) in ops {
                match op {
                    0 => {
                        for _ in 0..count {
                            let e = ConnEntry { value: next_value, ..entry(0) };
                            let h = arena.insert(u64::from(next_value), e);
                            let deadline = u64::from(next_value % 300) * crate::timerwheel::TICK_NS;
                            arena.schedule(h, deadline);
                            handles.push(h);
                            next_value += 1;
                        }
                    }
                    1 => {
                        // Removes every `step`-th handle issued, whatever
                        // its slot holds now.
                        let skip = (count % step) as usize;
                        for h in handles.iter().skip(skip).step_by(step as usize) {
                            if let Some((ikey, e)) = arena.remove(*h) {
                                retina_support::prop_assert_eq!(ikey, u64::from(e.value));
                            }
                        }
                    }
                    _ => {
                        let keep = |v: u32| v % step != count % step;
                        arena.retain_mut(
                            |e| keep(e.value),
                            |_, ikey, e| {
                                assert!(!keep(e.value));
                                assert_eq!(ikey, u64::from(e.value));
                            },
                        );
                        retina_support::prop_assert!(arena.iter().all(|e| keep(e.value)));
                    }
                }
            }
            let mut timed = Vec::new();
            while let Some(h) = arena.pop_due(u64::MAX) {
                timed.push(arena.get(h).unwrap().value);
            }
            let mut live: Vec<u32> = arena.iter().map(|e| e.value).collect();
            timed.sort_unstable();
            live.sort_unstable();
            retina_support::prop_assert_eq!(timed, live);
        }
    }

    // Identity (68 B tuple), two stamps, the established flag, the two
    // link words and the index key: 101 B of content. Growth here is
    // 0.85 MB per 8 bytes at scan's 106,496-slot arena.
    const _: () = assert!(ConnArena::<[u64; 50]>::SLOT_OVERHEAD <= 104);
}
