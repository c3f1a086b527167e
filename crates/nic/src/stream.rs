//! An ordered byte stream held as views into the frames that carried it.
//!
//! §5.2 reorders instead of copying; [`StreamBytes`] is what that leaves a
//! byte-stream subscription holding: for every in-order segment, a view
//! of the payload where it lies in its frame (a refcount bump) and the
//! frame's pool charge — a bare `Bytes` slice would let a frame a stream
//! still reads look free to [`crate::Mempool::in_use`]. No payload byte
//! is touched until the subscriber reads one.

use std::fmt;
use std::io;
use std::ops::Range;

use crate::mbuf::{FrameView, Mbuf};

/// An ordered byte stream as a chain of frame views: the payload bytes
/// of one direction of a connection, in sequence order, without having
/// been copied out of the frames they arrived in.
///
/// It is not contiguous, so it does not deref to `[u8]`: read it a chunk
/// at a time ([`StreamBytes::chunks`]), through [`io::Read`]
/// ([`StreamBytes::reader`]), or ask for the flat copy
/// ([`StreamBytes::to_vec`]) — which is then the subscriber's copy, made
/// where the callback runs. Equality and `Debug` are by content: where
/// one segment ends and the next begins is invisible, so two captures of
/// the same bytes compare equal however TCP cut them up.
///
/// # What it pins
///
/// Every segment keeps its frame alive and **charged to the frame's
/// [`crate::Mempool`]** until the `StreamBytes` drops, on whichever
/// thread that happens. A stream capped at `cap` payload bytes therefore
/// pins `cap ÷ (payload bytes per frame)` frames: about `cap ÷ MSS`
/// (≈ 719 frames per MiB at 1460-byte segments) for a bulk transfer, and
/// without limit as the sender's segments shrink — so whoever builds a
/// stream must also cap [`StreamBytes::segments`], the frames it can pin
/// whatever their size. Size the pool for that many frames per live
/// byte-stream connection and direction on top of what the rings hold.
#[derive(Clone, Default)]
pub struct StreamBytes {
    segments: Vec<FrameView>,
    len: usize,
}

impl StreamBytes {
    /// An empty stream (no allocation).
    pub const fn new() -> Self {
        StreamBytes {
            segments: Vec::new(),
            len: 0,
        }
    }

    /// Appends `mbuf.data()[range]` by reference. An empty range appends
    /// nothing (and pins nothing).
    ///
    /// # Panics
    /// Panics if `range` is inverted or reaches past the frame.
    pub fn push(&mut self, mbuf: &Mbuf, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        self.len += range.len();
        self.segments.push(mbuf.view(range));
    }

    /// Stream length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the stream holds no byte.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many views the chain holds — at most that many frames pinned.
    #[inline]
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// The stream as its contiguous pieces, in order; none is empty.
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        self.segments.iter().map(FrameView::bytes)
    }

    /// The flat copy, for a subscriber that wants one.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut flat = Vec::with_capacity(self.len);
        for chunk in self.chunks() {
            flat.extend_from_slice(chunk);
        }
        flat
    }

    /// The stream behind [`io::Read`], from its first byte.
    pub fn reader(&self) -> impl io::Read + '_ {
        Reader {
            rest: self.segments.iter(),
            chunk: &[],
        }
    }

    /// Whether the stream's content is exactly `flat`.
    fn eq_flat(&self, mut flat: &[u8]) -> bool {
        self.len == flat.len()
            && self.chunks().all(|chunk| {
                let (head, tail) = flat.split_at(chunk.len());
                flat = tail;
                head == chunk
            })
    }
}

struct Reader<'a> {
    rest: std::slice::Iter<'a, FrameView>,
    chunk: &'a [u8],
}

impl io::Read for Reader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.chunk.is_empty() {
            self.chunk = self.rest.next().map_or(&[][..], FrameView::bytes);
        }
        let n = self.chunk.len().min(buf.len());
        let (head, tail) = self.chunk.split_at(n);
        buf[..n].copy_from_slice(head);
        self.chunk = tail;
        Ok(n)
    }
}

impl PartialEq for StreamBytes {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        // Walk both chains a common run at a time.
        let (mut ours, mut theirs) = (self.chunks(), other.chunks());
        let (mut a, mut b): (&[u8], &[u8]) = (&[], &[]);
        loop {
            if a.is_empty() {
                a = ours.next().unwrap_or_default();
            }
            if b.is_empty() {
                b = theirs.next().unwrap_or_default();
            }
            let n = a.len().min(b.len());
            if n == 0 {
                // Equal lengths: both chains ran out together.
                return true;
            }
            if a[..n] != b[..n] {
                return false;
            }
            (a, b) = (&a[n..], &b[n..]);
        }
    }
}

impl Eq for StreamBytes {}

impl PartialEq<[u8]> for StreamBytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.eq_flat(other)
    }
}

impl PartialEq<Vec<u8>> for StreamBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.eq_flat(other)
    }
}

impl fmt::Debug for StreamBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.chunks().flatten()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mbuf::Mempool;
    use retina_support::bytes::Bytes;
    use std::io::Read;

    /// `text` cut into a stream at `cuts`, each piece in a frame of its
    /// own behind a 3-byte header.
    fn stream(text: &[u8], cuts: &[usize]) -> StreamBytes {
        let mut s = StreamBytes::new();
        let mut from = 0;
        for &to in cuts.iter().chain([&text.len()]) {
            let mut frame = b"hdr".to_vec();
            frame.extend_from_slice(&text[from..to]);
            let mbuf = Mbuf::from_bytes(Bytes::from(frame));
            s.push(&mbuf, 3..mbuf.len());
            from = to;
        }
        s
    }

    #[test]
    fn content_is_independent_of_chunking() {
        let text = b"the quick brown fox jumps over the lazy dog";
        let whole = stream(text, &[]);
        let cut = stream(text, &[1, 2, 10, 10, 40]);
        assert_eq!(whole.chunks().count(), 1);
        assert_eq!(cut.chunks().count(), 5, "the empty piece left no chunk");
        assert_eq!((whole.segments(), cut.segments()), (1, 5));
        assert_eq!(cut.len(), text.len());
        assert_eq!(cut.len(), cut.chunks().map(<[u8]>::len).sum::<usize>());
        assert_eq!(cut.to_vec(), text);
        assert_eq!(cut.chunks().collect::<Vec<_>>().concat(), text);
        assert_eq!(whole, cut);
        assert_eq!(cut, stream(text, &[7, 8, 9, 33]));
        assert_eq!(cut, text[..]);
        assert_eq!(cut, text.to_vec());
        assert_eq!(format!("{cut:?}"), format!("{:?}", &text[..]));

        // Same length, one byte apart — in the last chunk and the first.
        let mut other = text.to_vec();
        *other.last_mut().unwrap() ^= 1;
        assert_ne!(cut, stream(&other, &[5]));
        assert_ne!(cut, other);
        other = text.to_vec();
        other[0] ^= 1;
        assert_ne!(cut, stream(&other, &[20, 30]));
        // A prefix is not the stream.
        assert_ne!(cut, stream(&text[..40], &[1]));
        assert_ne!(cut, text[..40]);

        let empty = StreamBytes::new();
        assert!(empty.is_empty() && empty.chunks().next().is_none());
        assert_eq!(empty, StreamBytes::default());
        assert_eq!(empty, Vec::new());
    }

    #[test]
    fn reader_crosses_chunk_boundaries() {
        let text: Vec<u8> = (0..=255u8).cycle().take(3000).collect();
        let s = stream(&text, &[1, 700, 701, 2999]);
        let mut flat = Vec::new();
        s.reader().read_to_end(&mut flat).unwrap();
        assert_eq!(flat, text);
        // Short reads stop at chunk ends and resume in the next.
        let mut r = s.reader();
        let mut buf = [0u8; 512];
        assert_eq!(r.read(&mut buf).unwrap(), 1);
        assert_eq!(r.read(&mut buf).unwrap(), 512);
        assert_eq!(buf[..], text[1..513]);
        assert_eq!(StreamBytes::new().reader().read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn a_segment_keeps_its_frame_charged() {
        let pool = Mempool::new(8);
        let mut s = StreamBytes::new();
        for tag in 0..3u8 {
            let mbuf = Mbuf::from_bytes_in(Bytes::from(vec![tag; 10]), &pool);
            s.push(&mbuf, 4..10);
            s.push(&mbuf, 0..0);
        }
        // The mbufs themselves are gone; the stream's views hold the charge.
        assert_eq!(pool.in_use(), 3);
        let copy = s.clone();
        assert_eq!(pool.in_use(), 3, "a clone shares the charges");
        drop(s);
        assert_eq!(pool.in_use(), 3);
        assert_eq!(copy.to_vec(), [[0u8; 6], [1; 6], [2; 6]].concat());
        // Dropping on another thread releases it all the same.
        std::thread::spawn(move || drop(copy)).join().unwrap();
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds of 4")]
    fn a_range_past_the_frame_panics() {
        let mbuf = Mbuf::from_bytes(Bytes::from_static(b"abcd"));
        StreamBytes::new().push(&mbuf, 2..5);
    }
}
