//! Slab arena for connection entries, and the links of the timer wheel.
//!
//! Under the campus mix's scan load, ~65% of connections are a single
//! unanswered SYN that lives for exactly the 5 s establish timeout: the
//! table churns through millions of short-lived entries. Boxing each
//! `ConnEntry` individually would fragment the heap and pay an
//! allocator round-trip per scan probe. The arena instead stores
//! entries in slots, hands out compact `u32` handles, and recycles freed
//! slots through a free list — after the first storm peak, steady-state
//! churn allocates nothing.
//!
//! Slots live in chunks of [`CHUNK`] (8,192): a handle's index is its
//! chunk (`index >> 13`) and its place in the chunk (`index & 8191`).
//! Chunk 0 grows by doubling like a `Vec`, so a table that never holds
//! 8,192 connections costs what a `Vec` would; every later chunk is
//! allocated once, at full size, and never moves. Past the first chunk
//! the slot storage is therefore at most one chunk more than the peak
//! needs — not up to twice the peak — and a growing table never copies
//! the slots it already holds.
//!
//! The free list costs nothing beside the slots: a vacant slot's `next`
//! link word holds the index of the next vacant one, and the arena keeps
//! only the head. It is a stack (last freed, first reused), so which
//! handle an insert gets is a pure function of the insert/remove
//! sequence. A slot is created only when none is vacant, so the slot
//! count *is* the live high-water mark.
//!
//! An occupied slot's two link words place it in a bucket of the
//! arena's [`TimerWheel`] (`schedule`, `pop_due`; see
//! [`crate::timerwheel`]). Freeing a slot unlinks it, so no timer
//! outlives its connection, and a handle is the bare slot index: nothing
//! can hold a handle across a free but a caller's hint, which is checked
//! against the full key of whatever the slot holds now.
//!
//! A slot holds the connection's identity **once**: the oriented
//! [`FiveTuple`] in the entry. The canonical [`crate::ConnKey`] is not
//! stored beside it — the index verifies a hit with
//! [`crate::ConnKey::is_key_of`] against the tuple, and whoever needs the
//! key of a removed entry derives it (`entry.tuple.key()`). What *is*
//! stored beside the entry is what expiry needs to unlink it from the
//! index without re-deriving anything from the tuple: the owner's 64-bit
//! index key, and the two link words.
//! Every 8 bytes here are 0.85 MB at scan's 106,496-slot arena:
//! [`ConnArena::SLOT_OVERHEAD`] is asserted in the tests.
//!
//! Capacity only grows, so `allocated_bytes()` is simultaneously the
//! current footprint and the high-water mark — the quantity the
//! arena-bytes gauge (and the churn bench's memory gate) reports.
//!
//! [`ConnArena::prefetch`] is the hint verb: it asks the CPU to start
//! fetching the slot a handle *points at*, so a burst's slot misses
//! overlap. Its contract is **no slot dereference** — the address is
//! computed from the handle's index and its chunk's base (read from the
//! chunk table, which is not a slot), and nothing behind it is read. A
//! handle whose connection has left therefore warms a slot someone else
//! may own now, an out-of-range one warms nothing, and neither can be
//! told apart from a useful hint by anything but time.

use retina_support::prefetch::{prefetch_lines, LINE};

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

/// Slots per chunk of arena storage (see the module docs).
pub const CHUNK: usize = 1 << CHUNK_BITS;
const CHUNK_BITS: u32 = 13;

/// The end of the in-slot free list.
const NIL: u32 = u32::MAX;

/// A slot index's chunk and its place in that chunk.
#[inline]
fn locate(index: u32) -> (usize, usize) {
    ((index >> CHUNK_BITS) as usize, index as usize & (CHUNK - 1))
}

/// One arena slot: its link words, the occupant's index key (opaque
/// here: whatever the owner looks the entry up by), and the occupant
/// (vacancy costs no extra byte: it lives in the entry's `bool`). A
/// vacant slot's `link.next` is the next vacant slot's index, or `NIL`.
#[derive(Debug)]
struct Slot<V> {
    link: Link,
    index_key: u64,
    entry: Option<ConnEntry<V>>,
}

/// Chunked slab of connection entries, with the timer wheel whose
/// buckets are linked through its slots.
#[derive(Debug)]
pub struct ConnArena<V> {
    /// Slot storage: `chunks[c]` holds the slots `c * CHUNK ..`. Only the
    /// last chunk is ever short of `CHUNK` slots.
    chunks: Vec<Vec<Slot<V>>>,
    /// The most recently freed slot, or `NIL`.
    free_head: u32,
    live: usize,
    live_high_water: usize,
    wheel: TimerWheel,
}

impl<V> Default for ConnArena<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> ConnArena<V> {
    /// Bytes one slot occupies.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Slot<V>>();

    /// Bytes a slot spends on everything but the caller's `V`: identity,
    /// stamps, link words, index key.
    pub const SLOT_OVERHEAD: usize = Self::SLOT_BYTES - std::mem::size_of::<V>();

    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        ConnArena {
            chunks: Vec::new(),
            free_head: NIL,
            live: 0,
            live_high_water: 0,
            wheel: TimerWheel::new(),
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no entries are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Peak number of simultaneously-live entries over the arena's
    /// lifetime — also the number of slots, since a slot is only made
    /// when none is vacant.
    #[must_use]
    pub fn live_high_water(&self) -> usize {
        self.live_high_water
    }

    /// Bytes held by slot storage and the chunk table. Capacity never
    /// shrinks, so this is also the memory high-water mark. The wheel's
    /// sentinels are held inline, not allocated: [`TimerWheel::BYTES`].
    #[must_use]
    pub fn allocated_bytes(&self) -> usize {
        let slots: usize = self.chunks.iter().map(Vec::capacity).sum();
        slots * Self::SLOT_BYTES + self.chunks.capacity() * std::mem::size_of::<Vec<Slot<V>>>()
    }

    /// Inserts an entry, unscheduled, reusing the most recently freed
    /// slot when one exists.
    pub fn insert(&mut self, index_key: u64, entry: ConnEntry<V>) -> ConnHandle {
        let index = if self.free_head == NIL {
            let index = u32::try_from(self.live_high_water)
                .ok()
                .filter(|&index| index < SENTINEL)
                .expect("arena exceeds u32 slots");
            let (chunk, _) = locate(index);
            if chunk == self.chunks.len() {
                // Chunk 0 grows by doubling; a later one is made whole.
                let capacity = if chunk == 0 { 0 } else { CHUNK };
                self.chunks.push(Vec::with_capacity(capacity));
            }
            self.chunks[chunk].push(Slot {
                link: Link::lone(index),
                index_key,
                entry: Some(entry),
            });
            index
        } else {
            let index = self.free_head;
            let slot = self.slot_mut(index);
            debug_assert!(slot.entry.is_none(), "free-listed slot occupied");
            let next_free = slot.link.next;
            *slot = Slot {
                link: Link::lone(index),
                index_key,
                entry: Some(entry),
            };
            self.free_head = next_free;
            index
        };
        self.live += 1;
        self.live_high_water = self.live_high_water.max(self.live);
        ConnHandle(index)
    }

    /// The slot at an index below the slot count.
    fn slot_mut(&mut self, index: u32) -> &mut Slot<V> {
        let (chunk, offset) = locate(index);
        &mut self.chunks[chunk][offset]
    }

    /// The entry at `handle`, if its slot is occupied.
    #[must_use]
    pub fn get(&self, handle: ConnHandle) -> Option<&ConnEntry<V>> {
        let (chunk, offset) = locate(handle.0);
        self.chunks.get(chunk)?.get(offset)?.entry.as_ref()
    }

    /// Cache lines of a slot [`ConnArena::prefetch`] asks for: the whole
    /// slot, up to half a kilobyte.
    const PREFETCH_LINES: usize = {
        let lines = Self::SLOT_BYTES.div_ceil(LINE);
        if lines < 8 {
            lines
        } else {
            8
        }
    };

    /// Hints the CPU to fetch the slot `handle` points at (see the
    /// module docs): no slot dereference. A handle whose index is past
    /// the slot storage is ignored.
    #[inline]
    pub fn prefetch(&self, handle: ConnHandle) {
        let (chunk, offset) = locate(handle.0);
        if let Some(chunk) = self.chunks.get(chunk) {
            if offset < chunk.len() {
                let slot = chunk.as_ptr().wrapping_add(offset);
                prefetch_lines(slot.cast::<u8>(), Self::PREFETCH_LINES);
            }
        }
    }

    /// Mutable access to the entry at `handle`, if its slot is occupied.
    pub fn get_mut(&mut self, handle: ConnHandle) -> Option<&mut ConnEntry<V>> {
        let (chunk, offset) = locate(handle.0);
        self.chunks.get_mut(chunk)?.get_mut(offset)?.entry.as_mut()
    }

    /// Removes the entry at `handle`, unlinking it from its wheel bucket
    /// and freeing the slot. Returns `(index_key, entry)`.
    pub fn remove(&mut self, handle: ConnHandle) -> Option<(u64, ConnEntry<V>)> {
        self.get(handle)?;
        self.unlink(handle.0);
        Some(self.vacate(handle.0))
    }

    /// Frees the occupied slot at `index`, out of any bucket: pushes it on
    /// the free list and hands back what it held.
    pub(crate) fn vacate(&mut self, index: u32) -> (u64, ConnEntry<V>) {
        let free_head = std::mem::replace(&mut self.free_head, index);
        self.live -= 1;
        let slot = self.slot_mut(index);
        slot.link.next = free_head;
        let entry = slot.entry.take().expect("vacating an occupied slot");
        (slot.index_key, entry)
    }

    /// Iterates live entries in slot order — deterministic, unlike a
    /// randomly-seeded hash map.
    pub fn iter(&self) -> impl Iterator<Item = &ConnEntry<V>> {
        self.chunks
            .iter()
            .flatten()
            .filter_map(|slot| slot.entry.as_ref())
    }

    /// The index keys of the live entries, in slot order.
    pub(crate) fn index_keys(&self) -> impl Iterator<Item = u64> + '_ {
        let live = self.chunks.iter().flatten().filter(|s| s.entry.is_some());
        live.map(|slot| slot.index_key)
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
        let slots = u32::try_from(self.live_high_water).expect("slot indices are u32");
        for index in 0..slots {
            let keep = match self.slot_mut(index).entry.as_mut() {
                Some(entry) => f(entry),
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
        let slots = u32::try_from(self.live_high_water).expect("slot indices are u32");
        for index in 0..slots {
            if self.slot_mut(index).entry.is_some() {
                on_drain(self.vacate(index).1);
            }
        }
        self.wheel.clear();
    }

    /// The link words at `at`: a bucket's sentinel, or a slot's.
    fn link(&mut self, at: u32) -> &mut Link {
        if at >= SENTINEL {
            self.wheel.sentinel(at)
        } else {
            &mut self.slot_mut(at).link
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
        debug_assert!(self.get(handle).is_some(), "scheduling a vacant slot");
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
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.get(h).unwrap().value, 1);
        assert_eq!(arena.get(h).unwrap().tuple, entry(1).tuple);
        let (index_key, e2) = arena.remove(h).unwrap();
        assert_eq!(index_key, 77);
        assert_eq!(e2.value, 1);
        assert!(arena.is_empty());
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
            assert_eq!(arena.len(), 1000);
            let bytes = arena.allocated_bytes();
            for h in handles.drain(..) {
                arena.remove(h).unwrap();
            }
            if round > 0 {
                assert_eq!(
                    arena.allocated_bytes(),
                    bytes,
                    "steady-state churn must not grow the arena"
                );
            }
        }
        assert_eq!(arena.live_high_water(), 1000);
        assert!(arena.is_empty());
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
        assert!(arena.is_empty());
        // Post-drain slots are all vacant.
        assert!(arena.get(ConnHandle(0)).is_none());
    }

    #[test]
    fn high_water_is_monotonic() {
        let mut arena = ConnArena::new();
        let h = arena.insert(10, entry(1));
        let h2 = arena.insert(20, entry(2));
        assert_eq!(arena.live_high_water(), 2);
        arena.remove(h).unwrap();
        arena.remove(h2).unwrap();
        assert_eq!(arena.live_high_water(), 2, "high water never drops");
    }

    #[test]
    fn prefetch_is_a_hint_not_an_access() {
        // Empty arena, out-of-range index, vacant slot: every one is a
        // no-op that changes and reads nothing.
        let mut arena: ConnArena<u32> = ConnArena::new();
        arena.prefetch(ConnHandle(0));
        arena.prefetch(ConnHandle(u32::MAX));
        let h = arena.insert(10, entry(1));
        arena.prefetch(h);
        arena.remove(h).unwrap();
        arena.prefetch(h); // vacant slot
        assert!(arena.get(h).is_none(), "a hint revives nothing");
        let h2 = arena.insert(20, entry(2));
        arena.prefetch(ConnHandle(1)); // one past the last slot
        assert_eq!(arena.get(h2).unwrap().value, 2);
        assert_eq!((arena.len(), arena.live_high_water()), (1, 1));
    }

    #[test]
    fn later_chunks_never_move_and_bound_the_footprint() {
        let mut arena = ConnArena::new();
        let mut handles = Vec::new();
        for _ in 0..CHUNK + 10 {
            handles.push(arena.insert(0, entry(0)));
        }
        // The first entry of chunk 1, and its address.
        let h = handles[CHUNK];
        assert_eq!(h.index() as usize, CHUNK);
        let before: *const ConnEntry<u32> = arena.get(h).unwrap();
        for _ in 0..3 * CHUNK {
            handles.push(arena.insert(0, entry(0)));
        }
        let after: *const ConnEntry<u32> = arena.get(h).unwrap();
        assert_eq!(before, after, "a chunk-1 entry moved as the arena grew");
        let hw = arena.live_high_water();
        assert_eq!(hw, 4 * CHUNK + 10);
        let chunk_table = arena.chunks.capacity() * std::mem::size_of::<Vec<Slot<u32>>>();
        assert!(
            arena.allocated_bytes() <= (hw + CHUNK) * ConnArena::<u32>::SLOT_BYTES + chunk_table,
            "{} B for a high water of {hw}",
            arena.allocated_bytes()
        );
        // Freeing and refilling allocates nothing.
        let bytes = arena.allocated_bytes();
        for h in handles.drain(..) {
            arena.remove(h).unwrap();
        }
        for _ in 0..hw {
            arena.insert(0, entry(0));
        }
        assert_eq!(arena.allocated_bytes(), bytes);
        assert_eq!(arena.live_high_water(), hw);
    }

    #[test]
    fn an_arena_that_never_inserts_allocates_nothing() {
        let arena: ConnArena<u32> = ConnArena::new();
        assert_eq!(arena.allocated_bytes(), 0);
    }

    /// The arena as a single relocating `Vec` of slots with a side free
    /// list: the handles, slot order and high water the chunked arena
    /// must reproduce.
    #[derive(Default)]
    struct Model {
        slots: Vec<Option<u32>>,
        free: Vec<u32>,
        live: usize,
        live_high_water: usize,
    }

    impl Model {
        fn insert(&mut self, value: u32) -> ConnHandle {
            self.live += 1;
            self.live_high_water = self.live_high_water.max(self.live);
            if let Some(index) = self.free.pop() {
                self.slots[index as usize] = Some(value);
                ConnHandle(index)
            } else {
                self.slots.push(Some(value));
                ConnHandle(u32::try_from(self.slots.len() - 1).unwrap())
            }
        }

        fn remove(&mut self, h: ConnHandle) -> Option<u32> {
            let value = self.slots.get_mut(h.0 as usize)?.take()?;
            self.free.push(h.0);
            self.live -= 1;
            Some(value)
        }

        fn retain(&mut self, keep: impl Fn(u32) -> bool) -> Vec<u32> {
            let mut removed = Vec::new();
            for (index, slot) in self.slots.iter_mut().enumerate() {
                if slot.is_some_and(|v| !keep(v)) {
                    removed.push(slot.take().unwrap());
                    self.free.push(u32::try_from(index).unwrap());
                    self.live -= 1;
                }
            }
            removed
        }

        fn values(&self) -> Vec<u32> {
            self.slots.iter().filter_map(|slot| *slot).collect()
        }
    }

    retina_support::proptest! {
        #![proptest_config(retina_support::proptest::ProptestConfig::with_cases(24))]

        /// Random bursts of inserts, removals (of handles whose slot may
        /// be vacant or reused since) and `retain_mut` passes over up to
        /// ~5 chunks: the chunked arena issues the model's handles, visits
        /// the model's entries in the model's order and reaches the
        /// model's high water. Every entry is timed when it goes in, so
        /// the removals unlink slots from every place in a bucket; at the
        /// end each live entry, and nothing else, pops off the wheel once.
        #[test]
        fn chunked_arena_matches_the_single_vec_model(
            ops in retina_support::proptest::collection::vec(
                (0u8..3, 0..2u32 << CHUNK_BITS, 1u32..64),
                1..24,
            )
        ) {
            let mut arena = ConnArena::new();
            let mut model = Model::default();
            let mut handles: Vec<ConnHandle> = Vec::new();
            let mut next_value = 0u32;
            for (op, count, step) in ops {
                match op {
                    0 => {
                        for _ in 0..count {
                            let e = ConnEntry { value: next_value, ..entry(0) };
                            let h = arena.insert(u64::from(next_value), e);
                            retina_support::prop_assert_eq!(h, model.insert(next_value));
                            let deadline = u64::from(next_value % 300) * crate::timerwheel::TICK_NS;
                            arena.schedule(h, deadline);
                            handles.push(h);
                            next_value += 1;
                        }
                    }
                    1 => {
                        // Removes every `step`-th handle issued: on both
                        // sides, whatever its slot holds now. A removed entry
                        // brings back the index key it went in with.
                        let skip = (count % step) as usize;
                        for h in handles.iter().skip(skip).step_by(step as usize) {
                            let got = arena.remove(*h).map(|(ikey, e)| {
                                retina_support::prop_assert_eq!(ikey, u64::from(e.value));
                                e.value
                            });
                            retina_support::prop_assert_eq!(got, model.remove(*h));
                        }
                    }
                    _ => {
                        let keep = |v: u32| v % step != count % step;
                        let mut removed = Vec::new();
                        arena.retain_mut(|e| keep(e.value), |_, _, e| removed.push(e.value));
                        retina_support::prop_assert_eq!(removed, model.retain(keep));
                    }
                }
                retina_support::prop_assert_eq!(arena.len(), model.live);
                retina_support::prop_assert_eq!(arena.live_high_water(), model.live_high_water);
                let values: Vec<u32> = arena.iter().map(|e| e.value).collect();
                retina_support::prop_assert_eq!(values, model.values());
            }
            let mut timed = Vec::new();
            while let Some(h) = arena.pop_due(u64::MAX) {
                timed.push(arena.get(h).unwrap().value);
            }
            let mut live = model.values();
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
