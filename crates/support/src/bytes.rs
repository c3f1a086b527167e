//! Cheaply-cloneable immutable byte buffers.
//!
//! [`Bytes`] is an `Arc<[u8]>`-backed view with an offset window: cloning
//! is a refcount bump, and [`Bytes::slice`]/[`Bytes::split_to`] produce
//! new views over the *same* allocation. This is the subset of the
//! `bytes` crate the workspace actually uses (see DESIGN.md's
//! substitution table): packet frames flow through the NIC, connection
//! tracker, and pcap reader by reference, never by copy.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

use crate::prefetch::{prefetch, prefetch_lines};

/// Storage behind a [`Bytes`] view. Static data is referenced directly
/// (no allocation, no refcount traffic); everything else is shared via
/// `Arc<[u8]>`.
#[derive(Clone)]
enum Storage {
    Static(&'static [u8]),
    Shared(Arc<[u8]>),
}

impl Storage {
    #[inline]
    fn as_slice(&self) -> &[u8] {
        match self {
            Storage::Static(s) => s,
            Storage::Shared(a) => a,
        }
    }
}

/// A cheaply-cloneable contiguous slice of memory.
///
/// All clones and sub-slices share one backing allocation; the last view
/// dropped frees it.
#[derive(Clone)]
pub struct Bytes {
    storage: Storage,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty `Bytes` (no allocation).
    pub const fn new() -> Self {
        Bytes {
            storage: Storage::Static(&[]),
            start: 0,
            end: 0,
        }
    }

    /// Wraps a static slice without copying or allocating.
    pub const fn from_static(data: &'static [u8]) -> Self {
        Bytes {
            storage: Storage::Static(data),
            start: 0,
            end: data.len(),
        }
    }

    /// Copies `data` into a new shared allocation.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            storage: Storage::Shared(Arc::from(data)),
            start: 0,
            end: data.len(),
        }
    }

    /// Builds `len` bytes in their final allocation: one zeroed shared
    /// buffer, handed to `fill` before anyone else can see it. A frame
    /// built this way is allocated once and copied never —
    /// `Bytes::from(Vec<u8>)` is a second allocation and a second copy.
    pub fn build(len: usize, fill: impl FnOnce(&mut [u8])) -> Self {
        let mut data: Arc<[u8]> = std::iter::repeat_n(0u8, len).collect();
        fill(Arc::get_mut(&mut data).expect("a fresh Arc has one owner"));
        Bytes {
            storage: Storage::Shared(data),
            start: 0,
            end: len,
        }
    }

    /// Length of this view in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The viewed bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.storage.as_slice()[self.start..self.end]
    }

    /// Returns a new view of `range` within this one, sharing storage.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.checked_add(1).expect("slice start overflow"),
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n.checked_add(1).expect("slice end overflow"),
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(lo <= hi, "slice start {lo} > end {hi}");
        assert!(hi <= len, "slice end {hi} out of bounds of {len}");
        Bytes {
            storage: self.storage.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Splits the view at `at`: returns `self[..at]` and leaves
    /// `self[at..]` in place. Both views share the original storage.
    ///
    /// # Panics
    /// Panics if `at > self.len()`.
    pub fn split_to(&mut self, at: usize) -> Self {
        assert!(at <= self.len(), "split_to at {at} out of bounds");
        let front = Bytes {
            storage: self.storage.clone(),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        front
    }

    /// Splits the view at `at`: returns `self[at..]` and leaves
    /// `self[..at]` in place.
    ///
    /// # Panics
    /// Panics if `at > self.len()`.
    pub fn split_off(&mut self, at: usize) -> Self {
        assert!(at <= self.len(), "split_off at {at} out of bounds");
        let back = Bytes {
            storage: self.storage.clone(),
            start: self.start + at,
            end: self.end,
        };
        self.end = self.start + at;
        back
    }

    /// Copies this view into an owned `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Hints the CPU to fetch what the first touch of this buffer reads:
    /// the shared allocation's reference counts — a clone's locked
    /// read-modify-write lands there, two words in front of the data —
    /// and the first `lines` cache lines of the view. Computes addresses
    /// from the handle alone; nothing behind them is dereferenced.
    #[inline]
    pub fn prefetch(&self, lines: usize) {
        let base = self.storage.as_slice().as_ptr();
        if matches!(self.storage, Storage::Shared(_)) {
            prefetch(base.wrapping_sub(2 * std::mem::size_of::<usize>()));
        }
        prefetch_lines(base.wrapping_add(self.start), lines);
    }
}

// A stream segment is an mbuf and a range, and an mbuf is mostly its
// `Bytes`: a word added here is a word per held frame.
const _: () = assert!(std::mem::size_of::<Bytes>() == 40);

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            storage: Storage::Shared(Arc::from(v)),
            start: 0,
            end: len,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl<const N: usize> From<&'static [u8; N]> for Bytes {
    fn from(s: &'static [u8; N]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Self {
        Bytes::from_static(s.as_bytes())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage() {
        let a = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let b = a.clone();
        // Same backing allocation: the data pointers coincide.
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
        assert_eq!(a, b);
    }

    #[test]
    fn slice_shares_storage_and_windows() {
        let a = Bytes::from(vec![0u8, 1, 2, 3, 4, 5, 6, 7]);
        let s = a.slice(2..6);
        assert_eq!(s.as_slice(), &[2, 3, 4, 5]);
        // SAFETY: `a` is 8 bytes long, so offset 2 is in bounds of the
        // same allocation.
        assert_eq!(s.as_slice().as_ptr(), unsafe {
            a.as_slice().as_ptr().add(2)
        });
        // Slicing a slice composes offsets.
        let ss = s.slice(1..=2);
        assert_eq!(ss.as_slice(), &[3, 4]);
        // Unbounded forms.
        assert_eq!(a.slice(..).len(), 8);
        assert_eq!(a.slice(6..).as_slice(), &[6, 7]);
        assert_eq!(a.slice(..2).as_slice(), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_end_out_of_bounds_panics() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let _ = a.slice(0..4);
    }

    #[test]
    #[should_panic(expected = "start 3 > end 1")]
    #[allow(clippy::reversed_empty_ranges)] // the inverted range is the point
    fn slice_inverted_panics() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let _ = a.slice(3..1);
    }

    #[test]
    fn split_to_semantics() {
        let mut a = Bytes::from(vec![10u8, 11, 12, 13, 14]);
        let head = a.split_to(2);
        assert_eq!(head.as_slice(), &[10, 11]);
        assert_eq!(a.as_slice(), &[12, 13, 14]);
        // Both halves still share the original storage.
        assert_eq!(
            // SAFETY: `head` views the first 2 bytes of the shared 5-byte
            // allocation; offset 2 stays one-past-the-end at most.
            unsafe { head.as_slice().as_ptr().add(2) },
            a.as_slice().as_ptr()
        );
        // Degenerate splits.
        let empty = a.split_to(0);
        assert!(empty.is_empty());
        let rest = a.split_to(3);
        assert_eq!(rest.as_slice(), &[12, 13, 14]);
        assert!(a.is_empty());
    }

    #[test]
    #[should_panic(expected = "split_to at 4 out of bounds")]
    fn split_to_out_of_bounds_panics() {
        let mut a = Bytes::from(vec![1u8, 2, 3]);
        let _ = a.split_to(4);
    }

    #[test]
    fn split_off_semantics() {
        let mut a = Bytes::from(vec![1u8, 2, 3, 4]);
        let tail = a.split_off(1);
        assert_eq!(a.as_slice(), &[1]);
        assert_eq!(tail.as_slice(), &[2, 3, 4]);
    }

    #[test]
    fn from_static_no_copy() {
        static DATA: &[u8] = b"hello";
        let a = Bytes::from_static(DATA);
        assert_eq!(a.as_slice().as_ptr(), DATA.as_ptr());
        let b = a.clone();
        assert_eq!(b.as_slice().as_ptr(), DATA.as_ptr());
    }

    #[test]
    fn equality_and_hash_by_content() {
        use std::collections::HashSet;
        let a = Bytes::from(vec![9u8, 9]);
        let b = Bytes::from_static(&[9, 9]);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn copy_from_slice_owns() {
        let v = vec![1u8, 2, 3];
        let b = Bytes::copy_from_slice(&v);
        drop(v);
        assert_eq!(b, &[1u8, 2, 3][..]);
    }

    #[test]
    fn build_fills_the_final_allocation() {
        let b = Bytes::build(5, |buf| {
            assert_eq!(buf, [0; 5], "handed over zeroed");
            buf[1..4].copy_from_slice(b"abc");
        });
        assert_eq!(b, &[0, b'a', b'b', b'c', 0][..]);
        assert_eq!(b, Bytes::from(b.to_vec()));
        // Views share the built allocation like any other.
        assert_eq!(b.slice(1..4).as_slice().as_ptr(), b[1..].as_ptr());
        assert!(Bytes::build(0, |buf| assert!(buf.is_empty())).is_empty());
    }

    #[test]
    fn deref_and_iter() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.iter().sum::<u8>(), 6);
        assert_eq!(b[1], 2);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
    }
}
