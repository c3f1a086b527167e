//! Slab: values addressed by dense `u32` indices, their freed slots
//! reused — the storage of every per-core store of per-connection state
//! (the connection arena, the flow store, the tracked-state and
//! probe-prefix slabs). Once a store has grown to its peak, connection
//! churn allocates nothing.
//!
//! Slots live in chunks of [`CHUNK`]: index `i` is slot `i & 8191` of
//! chunk `i >> 13`. Chunk 0 grows by doubling like a `Vec`, so a slab that
//! never holds 8,192 values costs what a `Vec` would; every later chunk is
//! allocated once, whole, and never moves. Past the first chunk a slab
//! holds at most one chunk more than its peak, and it never copies a value.
//!
//! The free list lives in the vacant entries, each holding the next vacant
//! index, and is a stack (last freed, first reused), so which index an
//! insert gets is a pure function of the insert/remove sequence. A slot is
//! made only when none is vacant, so the slot count is the live high-water
//! mark. An entry's tag sits in a niche of the value where it has one (a
//! `bool`, an enum), so an entry is exactly an `Option<T>`. Capacity never
//! shrinks, so the exact [`Slab::allocated_bytes`] is also the high-water
//! mark. [`Slab::prefetch`] computes an entry's address from the chunk
//! table and reads nothing behind it: an index whose value has left, or
//! one out of range, is a harmless hint.

use std::ops::{Index, IndexMut};

use crate::prefetch::{prefetch_lines, LINE};

/// Slots per chunk (see the module docs).
pub const CHUNK: usize = 1 << CHUNK_BITS;
const CHUNK_BITS: u32 = 13;

/// The end of the in-slot free list; never a slot index.
const NIL: u32 = u32::MAX;

/// An index's chunk and its place in that chunk.
#[inline]
fn locate(index: u32) -> (usize, usize) {
    ((index >> CHUNK_BITS) as usize, index as usize & (CHUNK - 1))
}

/// One slot: a value, or the next vacant slot's index (`NIL`: none).
#[derive(Debug)]
enum Entry<T> {
    Live(T),
    Vacant(u32),
}

/// Chunked storage of `T`s addressed by `u32` indices (see the module
/// docs).
#[derive(Debug)]
pub struct Slab<T> {
    /// `chunks[c]` holds the slots `c * CHUNK ..`. Only the last chunk is
    /// ever short of `CHUNK` slots.
    chunks: Vec<Vec<Entry<T>>>,
    /// The most recently freed slot, or `NIL`.
    free: u32,
    len: usize,
    slots: u32,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Bytes one slot occupies, vacant or live: `size_of::<Option<T>>()`
    /// for every `T` with a niche.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Entry<T>>();

    /// An empty slab; allocates nothing.
    pub const fn new() -> Self {
        Slab {
            chunks: Vec::new(),
            free: NIL,
            len: 0,
            slots: 0,
        }
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no value is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots, vacant ones included: the peak number of
    /// simultaneously live values, since a slot is made only when none
    /// is vacant. Every index the slab has issued is below it.
    pub fn slots(&self) -> usize {
        self.slots as usize
    }

    /// Bytes held by the chunks and the chunk table. Capacity never
    /// shrinks, so this is also the memory high-water mark.
    pub fn allocated_bytes(&self) -> usize {
        let entries: usize = self.chunks.iter().map(Vec::capacity).sum();
        entries * Self::ENTRY_BYTES + self.chunks.capacity() * std::mem::size_of::<Vec<Entry<T>>>()
    }

    /// The index the next [`Slab::insert`] returns: the most recently
    /// freed slot, else a new one.
    pub fn next_index(&self) -> u32 {
        if self.free == NIL {
            assert!(self.slots != NIL, "slab exceeds u32 slots");
            self.slots
        } else {
            self.free
        }
    }

    /// Stores `value` in the most recently freed slot, else in a new one,
    /// and returns its index.
    pub fn insert(&mut self, value: T) -> u32 {
        let index = self.next_index();
        let (chunk, offset) = locate(index);
        if self.free == NIL {
            if chunk == self.chunks.len() {
                // Chunk 0 grows by doubling; a later one is made whole.
                let capacity = if chunk == 0 { 0 } else { CHUNK };
                self.chunks.push(Vec::with_capacity(capacity));
            }
            self.chunks[chunk].push(Entry::Live(value));
            self.slots += 1;
        } else {
            let entry = &mut self.chunks[chunk][offset];
            let Entry::Vacant(next) = std::mem::replace(entry, Entry::Live(value)) else {
                unreachable!("the free list links vacant slots")
            };
            self.free = next;
        }
        self.len += 1;
        index
    }

    /// The value at `index`, if its slot is live.
    pub fn get(&self, index: u32) -> Option<&T> {
        let (chunk, offset) = locate(index);
        match self.chunks.get(chunk)?.get(offset)? {
            Entry::Live(value) => Some(value),
            Entry::Vacant(_) => None,
        }
    }

    /// Mutable access to the value at `index`, if its slot is live.
    pub fn get_mut(&mut self, index: u32) -> Option<&mut T> {
        let (chunk, offset) = locate(index);
        match self.chunks.get_mut(chunk)?.get_mut(offset)? {
            Entry::Live(value) => Some(value),
            Entry::Vacant(_) => None,
        }
    }

    /// Takes the value at `index` out and frees its slot, the next one an
    /// insert reuses; `None` (and no change) if the slot is not live.
    pub fn remove(&mut self, index: u32) -> Option<T> {
        let (chunk, offset) = locate(index);
        let entry = self.chunks.get_mut(chunk)?.get_mut(offset)?;
        match std::mem::replace(entry, Entry::Vacant(self.free)) {
            Entry::Live(value) => {
                self.free = index;
                self.len -= 1;
                Some(value)
            }
            vacant => {
                *entry = vacant;
                None
            }
        }
    }

    /// The live values with their indices, in slot order — deterministic,
    /// unlike a randomly seeded hash map.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        (0u32..)
            .zip(self.chunks.iter().flatten())
            .filter_map(|(index, entry)| match entry {
                Entry::Live(value) => Some((index, value)),
                Entry::Vacant(_) => None,
            })
    }

    /// Hints the CPU to fetch the entry `index` points at, up to half a
    /// kilobyte of it (see the module docs): no entry dereference. An index
    /// past the slots is ignored.
    pub fn prefetch(&self, index: u32) {
        let (chunk, offset) = locate(index);
        if let Some(chunk) = self.chunks.get(chunk).filter(|chunk| offset < chunk.len()) {
            let entry = chunk.as_ptr().wrapping_add(offset).cast::<u8>();
            prefetch_lines(entry, Self::ENTRY_BYTES.div_ceil(LINE).min(8));
        }
    }
}

/// The live value at an index, like [`Slab::get`]; panics if the slot is
/// vacant or past the slots: for an index its holder knows is live.
impl<T> Index<u32> for Slab<T> {
    type Output = T;

    fn index(&self, index: u32) -> &T {
        self.get(index)
            .unwrap_or_else(|| panic!("slab slot {index} is not live"))
    }
}

impl<T> IndexMut<u32> for Slab<T> {
    fn index_mut(&mut self, index: u32) -> &mut T {
        self.get_mut(index)
            .unwrap_or_else(|| panic!("slab slot {index} is not live"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = Slab::new();
        let i = slab.insert(7u32);
        assert_eq!((slab.len(), slab.get(i)), (1, Some(&7)));
        slab[i] += 1;
        assert_eq!(slab.remove(i), Some(8));
        assert!(slab.is_empty());
        assert_eq!(slab.get(i), None);
        assert_eq!(slab.remove(i), None, "a vacant slot frees nothing");
        assert_eq!(slab.remove(99), None, "nor does one past the slots");
        // The index is the slot: after reuse it names the new value.
        assert_eq!(slab.next_index(), i);
        assert_eq!(slab.insert(9), i);
        assert_eq!(slab.get(i), Some(&9));
    }

    #[test]
    fn prefetch_is_a_hint_not_an_access() {
        // Empty slab, out-of-range index, vacant slot: every one is a
        // no-op that changes and reads nothing.
        let mut slab: Slab<u32> = Slab::new();
        slab.prefetch(0);
        slab.prefetch(u32::MAX);
        let i = slab.insert(1);
        slab.prefetch(i);
        slab.remove(i).unwrap();
        slab.prefetch(i); // vacant slot
        assert!(slab.get(i).is_none(), "a hint revives nothing");
        let j = slab.insert(2);
        slab.prefetch(1); // one past the last slot
        assert_eq!(slab.get(j), Some(&2));
        assert_eq!((slab.len(), slab.slots()), (1, 1));
    }

    /// Bytes of the chunk table of `slab`.
    fn chunk_table<T>(slab: &Slab<T>) -> usize {
        slab.chunks.capacity() * std::mem::size_of::<Vec<Entry<T>>>()
    }

    #[test]
    fn later_chunks_never_move_and_bound_the_footprint() {
        let mut slab = Slab::new();
        let mut indices: Vec<u32> = (0..CHUNK + 10).map(|n| slab.insert(n)).collect();
        // The first value of chunk 1, and its address.
        let i = indices[CHUNK];
        assert_eq!(i as usize, CHUNK);
        let before: *const usize = slab.get(i).unwrap();
        indices.extend((0..3 * CHUNK).map(|n| slab.insert(n)));
        let after: *const usize = slab.get(i).unwrap();
        assert_eq!(before, after, "a chunk-1 value moved as the slab grew");
        let hw = slab.slots();
        assert_eq!(hw, 4 * CHUNK + 10);
        assert!(
            slab.allocated_bytes()
                <= (hw + CHUNK) * Slab::<usize>::ENTRY_BYTES + chunk_table(&slab),
            "{} B for a high water of {hw}",
            slab.allocated_bytes()
        );
        // Freeing and refilling allocates nothing.
        let bytes = slab.allocated_bytes();
        for i in indices.drain(..) {
            slab.remove(i).unwrap();
        }
        for n in 0..hw {
            slab.insert(n);
        }
        assert_eq!((slab.allocated_bytes(), slab.slots()), (bytes, hw));
    }

    /// The slab as a single relocating `Vec` of slots with a side free
    /// list: the indices, slot order and high water the chunked slab
    /// must reproduce.
    #[derive(Default)]
    struct Model {
        slots: Vec<Option<u32>>,
        free: Vec<u32>,
    }

    impl Model {
        fn insert(&mut self, value: u32) -> u32 {
            if let Some(index) = self.free.pop() {
                self.slots[index as usize] = Some(value);
                index
            } else {
                self.slots.push(Some(value));
                u32::try_from(self.slots.len() - 1).unwrap()
            }
        }

        fn remove(&mut self, index: u32) -> Option<u32> {
            let value = self.slots.get_mut(index as usize)?.take()?;
            self.free.push(index);
            Some(value)
        }

        fn live(&self) -> Vec<(u32, u32)> {
            (0u32..)
                .zip(&self.slots)
                .filter_map(|(index, slot)| slot.map(|value| (index, value)))
                .collect()
        }
    }

    crate::proptest! {
        #![proptest_config(crate::proptest::ProptestConfig::with_cases(24))]

        /// Random bursts of inserts and of removals (of indices whose
        /// slot may be vacant or reused since) over up to ~5 chunks: the
        /// chunked slab issues the model's indices, holds the model's
        /// values in the model's slot order, reaches the model's high
        /// water, and holds at most one chunk of slots past it.
        #[test]
        fn chunked_slab_matches_the_single_vec_model(
            ops in crate::proptest::collection::vec(
                (0u8..2, 0..2u32 << CHUNK_BITS, 1u32..64),
                1..24,
            )
        ) {
            let mut slab = Slab::new();
            let mut model = Model::default();
            let mut indices: Vec<u32> = Vec::new();
            let mut next_value = 0u32;
            for (op, count, step) in ops {
                if op == 0 {
                    for _ in 0..count {
                        let index = slab.insert(next_value);
                        crate::prop_assert_eq!(index, model.insert(next_value));
                        indices.push(index);
                        next_value += 1;
                    }
                } else {
                    // Removes every `step`-th index issued, on both sides,
                    // whatever its slot holds now.
                    let skip = (count % step) as usize;
                    for &index in indices.iter().skip(skip).step_by(step as usize) {
                        crate::prop_assert_eq!(slab.remove(index), model.remove(index));
                    }
                }
                let live = model.live();
                crate::prop_assert_eq!(slab.len(), live.len());
                crate::prop_assert_eq!(slab.slots(), model.slots.len());
                let held: Vec<(u32, u32)> = slab.iter().map(|(i, v)| (i, *v)).collect();
                crate::prop_assert_eq!(held, live);
                let bound = (slab.slots() + CHUNK) * Slab::<u32>::ENTRY_BYTES + chunk_table(&slab);
                crate::prop_assert!(slab.allocated_bytes() <= bound);
            }
        }
    }
}
