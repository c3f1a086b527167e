//! Packet buffers and pools.
//!
//! [`Mbuf`] is the unit of packet data flowing through the framework, the
//! analogue of a DPDK `rte_mbuf`. It wraps a cheaply-cloneable [`Bytes`]
//! buffer plus receive metadata (timestamp, RSS hash) and the payload
//! range the pipeline's one parse found (its stamp). Cloning an
//! `Mbuf` is a refcount bump, which is how the connection tracker holds
//! out-of-order packets "by reference" (§5.2) without copying payloads.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use retina_support::bytes::Bytes;

/// A received packet buffer with metadata.
///
/// The buffer holds a complete Ethernet frame. The [`crate::VirtualNic`]
/// fills in the receive metadata on ingest; the parse that reads the
/// frame (the pipeline's S1) stamps where its L4 payload lies, so code
/// that holds the frame later (the reassembler's out-of-order buffer)
/// reads the payload without parsing the frame again.
///
/// Cloning an `Mbuf` is a refcount bump: all clones share one pool charge
/// (like DPDK's `rte_mbuf_refcnt_update`), released when the last clone
/// drops.
#[derive(Debug, Clone)]
pub struct Mbuf {
    data: Bytes,
    /// Receive timestamp in nanoseconds of simulation time.
    pub timestamp_ns: u64,
    /// RSS hash computed by the NIC.
    pub rss_hash: u32,
    // The L4 payload's offset into the frame and its length, as stamped
    // by [`Mbuf::stamp_payload`]; both zero until then.
    payload_offset: u16,
    payload_len: u16,
    // Pool accounting guard: released (with the charge) when the last
    // clone drops. See [`Mbuf::pooled`].
    charge: Option<Arc<PoolCharge>>,
}

// A frame held out of order, or before a filter resolves, is one of
// these per frame: a cache line.
const _: () = assert!(std::mem::size_of::<Mbuf>() == 64);

/// A view of part of a frame that keeps the whole frame charged to its
/// pool: what a [`crate::StreamBytes`] holds per segment. The bytes and
/// the charge of an [`Mbuf`] without its receive metadata.
#[derive(Clone)]
pub(crate) struct FrameView {
    data: Bytes,
    _charge: Option<Arc<PoolCharge>>,
}

// What a held stream segment costs beside the frame it pins.
const _: () = assert!(std::mem::size_of::<FrameView>() == 48);

impl FrameView {
    #[inline]
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.data
    }
}

/// Shared accounting guard: decrements pool occupancy when the last
/// [`Mbuf`] clone drops.
#[derive(Debug)]
struct PoolCharge {
    pool: Arc<PoolInner>,
    bytes: usize,
}

impl Drop for PoolCharge {
    fn drop(&mut self) {
        self.pool.in_use.fetch_sub(1, Ordering::Relaxed);
        self.pool
            .bytes_in_use
            .fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

impl Mbuf {
    /// Wraps a raw frame with zeroed metadata (no pool accounting).
    pub fn from_bytes(data: Bytes) -> Self {
        Mbuf {
            data,
            timestamp_ns: 0,
            rss_hash: 0,
            payload_offset: 0,
            payload_len: 0,
            charge: None,
        }
    }

    /// Wraps a raw frame, charging it to `pool` until the last clone drops.
    pub fn from_bytes_in(data: Bytes, pool: &Mempool) -> Self {
        // fetch_add returns the pre-increment occupancy; raising the
        // high-water mark here (rather than sampling in_use from the
        // monitor) captures peaks shorter than a monitoring interval.
        let occupied = pool.inner.in_use.fetch_add(1, Ordering::Relaxed) + 1;
        pool.inner.high_water.fetch_max(occupied, Ordering::Relaxed);
        pool.inner
            .bytes_in_use
            .fetch_add(data.len(), Ordering::Relaxed);
        let charge = PoolCharge {
            pool: pool.inner.clone(),
            bytes: data.len(),
        };
        Mbuf {
            data,
            timestamp_ns: 0,
            rss_hash: 0,
            payload_offset: 0,
            payload_len: 0,
            charge: Some(Arc::new(charge)),
        }
    }

    /// The raw frame bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Frame length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns true if the frame is empty (never the case for real traffic).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Stamps where the frame's L4 payload lies, as the parse that read
    /// the frame found it. A payload a `u16` cannot place is stamped
    /// empty; a frame `ParsedPacket` accepts has none (its payload is
    /// bounded by the IP length field, its offset by the header chain).
    pub fn stamp_payload(&mut self, payload: Range<usize>) {
        let (offset, len) = (u16::try_from(payload.start), u16::try_from(payload.len()));
        (self.payload_offset, self.payload_len) = offset.ok().zip(len.ok()).unwrap_or((0, 0));
    }

    /// Where the frame's L4 payload lies, as [`Mbuf::stamp_payload`]
    /// recorded it (empty before any stamp).
    pub fn payload(&self) -> Range<usize> {
        let start = usize::from(self.payload_offset);
        start..start + usize::from(self.payload_len)
    }

    /// A cheap owned handle to the underlying bytes.
    pub fn bytes(&self) -> Bytes {
        self.data.clone()
    }

    /// A view of `self.data()[range]` sharing this mbuf's pool charge.
    ///
    /// # Panics
    /// Panics if `range` is inverted or reaches past the frame.
    pub(crate) fn view(&self, range: Range<usize>) -> FrameView {
        FrameView {
            data: self.data.slice(range),
            _charge: self.charge.clone(),
        }
    }

    /// Hints the CPU to fetch the frame's first `lines` cache lines (see
    /// [`Bytes::prefetch`]); nothing is dereferenced.
    #[inline]
    pub fn prefetch(&self, lines: usize) {
        self.data.prefetch(lines);
    }

    /// Whether this buffer is charged to a [`Mempool`] (true for frames
    /// delivered by the NIC, false for [`Mbuf::from_bytes`] wrappers).
    pub fn pooled(&self) -> bool {
        self.charge.is_some()
    }

    /// Handles (this mbuf plus clones) sharing the pool charge, or 0 for
    /// an unpooled buffer. Diagnostic mirror of DPDK's `rte_mbuf_refcnt`.
    pub fn refcnt(&self) -> usize {
        self.charge.as_ref().map_or(0, Arc::strong_count)
    }
}

#[derive(Debug, Default)]
struct PoolInner {
    in_use: AtomicUsize,
    bytes_in_use: AtomicUsize,
    high_water: AtomicUsize,
    capacity: usize,
}

/// A packet-buffer pool with occupancy accounting.
///
/// The virtual NIC charges every delivered [`Mbuf`] to a pool; the runtime's
/// memory monitor reads pool occupancy to produce the memory-usage series of
/// Figure 8.
#[derive(Debug, Clone)]
pub struct Mempool {
    inner: Arc<PoolInner>,
}

impl Mempool {
    /// Creates a pool that can account up to `capacity` buffers.
    pub fn new(capacity: usize) -> Self {
        Mempool {
            inner: Arc::new(PoolInner {
                capacity,
                ..Default::default()
            }),
        }
    }

    /// Buffers currently charged to the pool.
    pub fn in_use(&self) -> usize {
        self.inner.in_use.load(Ordering::Relaxed)
    }

    /// Bytes currently charged to the pool.
    pub fn bytes_in_use(&self) -> usize {
        self.inner.bytes_in_use.load(Ordering::Relaxed)
    }

    /// Pool capacity in buffers.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Peak buffer occupancy over the pool's lifetime.
    ///
    /// Unlike [`Mempool::in_use`], this never decreases: it records the
    /// worst pressure the pool has seen, even for spikes shorter than a
    /// monitoring interval.
    pub fn high_water(&self) -> usize {
        self.inner.high_water.load(Ordering::Relaxed)
    }

    /// Returns true when occupancy has reached capacity; the device drops
    /// ingress packets (`rx_nombuf`) in that state, as DPDK does.
    pub fn exhausted(&self) -> bool {
        self.in_use() >= self.inner.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_accounting() {
        let pool = Mempool::new(4);
        assert_eq!(pool.in_use(), 0);
        let m1 = Mbuf::from_bytes_in(Bytes::from_static(b"abcd"), &pool);
        let m2 = Mbuf::from_bytes_in(Bytes::from_static(b"efgh12"), &pool);
        assert!(m1.pooled());
        assert_eq!(m1.refcnt(), 1);
        assert_eq!(pool.in_use(), 2);
        assert_eq!(pool.bytes_in_use(), 10);
        drop(m1);
        assert_eq!(pool.in_use(), 1);
        assert_eq!(pool.bytes_in_use(), 6);
        drop(m2);
        assert_eq!(pool.in_use(), 0);
        assert_eq!(pool.bytes_in_use(), 0);
    }

    #[test]
    fn clones_do_not_double_charge() {
        let pool = Mempool::new(4);
        let m1 = Mbuf::from_bytes_in(Bytes::from_static(b"abcd"), &pool);
        let m2 = m1.clone();
        // A clone shares the charge: cloning is the "hold by reference"
        // mechanism, and the pool tracks delivered buffers, not handles.
        assert_eq!(pool.in_use(), 1);
        assert_eq!(m1.refcnt(), 2);
        drop(m1);
        // The clone still holds the charge.
        assert_eq!(pool.in_use(), 1);
        drop(m2);
        // Last clone dropped: the charge is released exactly once.
        assert_eq!(pool.in_use(), 0);
        assert_eq!(pool.bytes_in_use(), 0);
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        let pool = Mempool::new(8);
        assert_eq!(pool.high_water(), 0);
        let a = Mbuf::from_bytes_in(Bytes::from_static(b"a"), &pool);
        let b = Mbuf::from_bytes_in(Bytes::from_static(b"b"), &pool);
        let c = Mbuf::from_bytes_in(Bytes::from_static(b"c"), &pool);
        assert_eq!(pool.high_water(), 3);
        drop(a);
        drop(b);
        // Occupancy fell but the peak stays.
        assert_eq!(pool.in_use(), 1);
        assert_eq!(pool.high_water(), 3);
        // A new charge below the old peak does not move it.
        let d = Mbuf::from_bytes_in(Bytes::from_static(b"d"), &pool);
        assert_eq!(pool.high_water(), 3);
        drop(c);
        drop(d);
        assert_eq!(pool.high_water(), 3);
    }

    #[test]
    fn exhaustion() {
        let pool = Mempool::new(2);
        let _a = Mbuf::from_bytes_in(Bytes::from_static(b"a"), &pool);
        assert!(!pool.exhausted());
        let _b = Mbuf::from_bytes_in(Bytes::from_static(b"b"), &pool);
        assert!(pool.exhausted());
    }

    #[test]
    fn unpooled_mbuf() {
        let m = Mbuf::from_bytes(Bytes::from_static(b"frame"));
        assert_eq!(m.len(), 5);
        assert_eq!(m.data(), b"frame");
        assert!(!m.is_empty());
        assert!(!m.pooled());
        assert_eq!(m.refcnt(), 0);
    }
}
