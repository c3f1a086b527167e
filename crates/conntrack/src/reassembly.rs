//! Light-weight stream reassembly (§5.2).
//!
//! Traditional reassemblers copy every payload into a per-connection
//! receive buffer. Retina observes that 94% of flows arrive fully in
//! order and the median hole is filled by the very next packet, so it
//! *reorders* instead of *copying*: the reassembler tracks the next
//! expected sequence number and lets in-order packets pass straight
//! through; out-of-order packets are held by reference ([`Mbuf`] clones)
//! in a bounded buffer and flushed the moment the hole fills.
//!
//! Every flow holds two of these, one per direction, built when a
//! connection's second packet promotes the eight-byte embryo of its first
//! into a flow. A reassembler is 40 bytes (asserted at build time): the
//! expected sequence, the buffer, a `u32` capacity and a saturating `u32`
//! drop count. It keeps no count of out-of-order arrivals of its own — each
//! one is a [`Reassembled::Buffered`] result, which the flow counts.

// Narrowing casts in this file are intentional: tick, index, and counter arithmetic narrows to compact fields by design.
#![allow(clippy::cast_possible_truncation)]

use retina_nic::Mbuf;

/// Default maximum out-of-order packets held per direction (paper §5.2).
pub const DEFAULT_OOO_CAPACITY: usize = 500;

/// Outcome of offering a segment to the reassembler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reassembled {
    /// The segment is the next expected: process it now, then call
    /// [`StreamReassembler::flush`] for any buffered successors.
    InOrder,
    /// The segment arrived early and was buffered by reference.
    Buffered,
    /// The segment is a duplicate / already-covered retransmission.
    Duplicate,
    /// The out-of-order buffer is full; the segment was dropped.
    OverCapacity,
}

/// Sequence comparison with wrap-around (RFC 793 style).
#[inline]
fn seq_lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// One direction's reassembler.
#[derive(Debug)]
pub struct StreamReassembler {
    next_seq: Option<u32>,
    /// Buffered out-of-order segments: (seq, payload length, mbuf),
    /// sorted by seq.
    ooo: Vec<(u32, u32, Mbuf)>,
    capacity: u32,
    /// Total segments dropped at capacity (saturating).
    pub dropped: u32,
}

// Two per flow, built when a connection's second packet promotes it: every
// 8 bytes here are 16 bytes per promoted connection.
const _: () = assert!(std::mem::size_of::<StreamReassembler>() <= 40);

impl Default for StreamReassembler {
    fn default() -> Self {
        Self::new(DEFAULT_OOO_CAPACITY)
    }
}

impl StreamReassembler {
    /// Creates a reassembler holding at most `capacity` out-of-order
    /// segments (`u32::MAX` for any larger `capacity`).
    pub fn new(capacity: usize) -> Self {
        StreamReassembler {
            next_seq: None,
            ooo: Vec::new(),
            capacity: u32::try_from(capacity).unwrap_or(u32::MAX),
            dropped: 0,
        }
    }

    /// The next expected sequence number, once initialized.
    pub fn next_seq(&self) -> Option<u32> {
        self.next_seq
    }

    /// Initializes the expected sequence number (from a SYN or the first
    /// observed segment).
    pub fn init_seq(&mut self, seq: u32) {
        self.next_seq = Some(seq);
    }

    /// Number of segments currently buffered out of order.
    pub fn buffered(&self) -> usize {
        self.ooo.len()
    }

    /// Offers a segment. `consumed` is the sequence space it occupies
    /// (payload length, +1 for SYN/FIN which the caller accounts).
    pub fn offer(&mut self, seq: u32, consumed: u32, mbuf: &Mbuf) -> Reassembled {
        let Some(next) = self.next_seq else {
            // Mid-stream pickup: adopt this segment's seq.
            self.next_seq = Some(seq.wrapping_add(consumed));
            return Reassembled::InOrder;
        };
        if seq == next {
            self.next_seq = Some(next.wrapping_add(consumed));
            return Reassembled::InOrder;
        }
        if seq_lt(seq, next) {
            return Reassembled::Duplicate;
        }
        // Early segment: hold by reference.
        if self.ooo.len() >= self.capacity as usize {
            self.dropped = self.dropped.saturating_add(1);
            return Reassembled::OverCapacity;
        }
        match self.ooo.binary_search_by(|(s, _, _)| {
            if *s == seq {
                std::cmp::Ordering::Equal
            } else if seq_lt(*s, seq) {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            }
        }) {
            Ok(_) => Reassembled::Duplicate,
            Err(pos) => {
                self.ooo.insert(pos, (seq, consumed, mbuf.clone()));
                Reassembled::Buffered
            }
        }
    }

    /// Sequence tracking *without* buffering: classifies the segment and
    /// advances the expected sequence, holding nothing. Used once the
    /// subscription no longer needs reconstructed bytes ("stop reordering
    /// flows after identifying the protocol", §5.2) while keeping the
    /// out-of-order statistics flowing.
    pub fn track_only(&mut self, seq: u32, consumed: u32) -> Reassembled {
        let Some(next) = self.next_seq else {
            self.next_seq = Some(seq.wrapping_add(consumed));
            return Reassembled::InOrder;
        };
        if seq == next {
            self.next_seq = Some(next.wrapping_add(consumed));
            return Reassembled::InOrder;
        }
        if seq_lt(seq, next) {
            return Reassembled::Duplicate;
        }
        // Ahead of the stream: count it and skip the hole — nothing will
        // be reconstructed, so there is no reason to wait for the filler.
        self.next_seq = Some(seq.wrapping_add(consumed));
        Reassembled::Buffered
    }

    /// Releases every buffered segment that is now in order. Call after
    /// an [`Reassembled::InOrder`] result.
    pub fn flush(&mut self) -> Vec<Mbuf> {
        let Some(mut next) = self.next_seq else {
            return Vec::new();
        };
        // The prefix of the buffer the stream has reached: segments now
        // in order, and ones a retransmission already covered. Measured
        // first and drained once — popping the front one segment at a
        // time is quadratic in a buffer of up to `capacity` segments.
        let mut reach = next;
        let reached = self
            .ooo
            .iter()
            .take_while(|&&(seq, consumed, _)| {
                if seq == reach {
                    reach = reach.wrapping_add(consumed);
                }
                !seq_lt(reach, seq)
            })
            .count();
        let out = self
            .ooo
            .drain(..reached)
            .filter_map(|(seq, consumed, mbuf)| {
                // Covered segments (seq behind the stream) are discarded.
                (seq == next).then(|| {
                    next = next.wrapping_add(consumed);
                    mbuf
                })
            })
            .collect();
        self.next_seq = Some(next);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retina_support::bytes::Bytes;

    fn mbuf(tag: u8) -> Mbuf {
        Mbuf::from_bytes(Bytes::from(vec![tag; 4]))
    }

    #[test]
    fn in_order_passthrough() {
        let mut r = StreamReassembler::default();
        r.init_seq(1000);
        assert_eq!(r.offer(1000, 100, &mbuf(1)), Reassembled::InOrder);
        assert_eq!(r.offer(1100, 50, &mbuf(2)), Reassembled::InOrder);
        assert_eq!(r.next_seq(), Some(1150));
        assert!(r.flush().is_empty());
        // No early arrival: both offers were `InOrder`, nothing dropped.
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn single_hole_filled() {
        let mut r = StreamReassembler::default();
        r.init_seq(0);
        assert_eq!(r.offer(100, 100, &mbuf(2)), Reassembled::Buffered);
        assert_eq!(r.offer(200, 100, &mbuf(3)), Reassembled::Buffered);
        assert_eq!(r.buffered(), 2);
        assert_eq!(r.offer(0, 100, &mbuf(1)), Reassembled::InOrder);
        let flushed = r.flush();
        assert_eq!(flushed.len(), 2);
        assert_eq!(flushed[0].data()[0], 2);
        assert_eq!(flushed[1].data()[0], 3);
        assert_eq!(r.next_seq(), Some(300));
        // Two early arrivals, both held (the two `Buffered`), none dropped.
        assert_eq!(r.dropped, 0);
    }

    #[test]
    fn duplicate_detection() {
        let mut r = StreamReassembler::default();
        r.init_seq(0);
        r.offer(0, 100, &mbuf(1));
        assert_eq!(r.offer(0, 100, &mbuf(1)), Reassembled::Duplicate);
        assert_eq!(r.offer(50, 10, &mbuf(1)), Reassembled::Duplicate);
        // Duplicate of a buffered OOO segment.
        r.offer(500, 10, &mbuf(2));
        assert_eq!(r.offer(500, 10, &mbuf(2)), Reassembled::Duplicate);
    }

    #[test]
    fn capacity_bound() {
        let mut r = StreamReassembler::new(3);
        r.init_seq(0);
        assert_eq!(r.offer(100, 10, &mbuf(1)), Reassembled::Buffered);
        assert_eq!(r.offer(200, 10, &mbuf(2)), Reassembled::Buffered);
        assert_eq!(r.offer(300, 10, &mbuf(3)), Reassembled::Buffered);
        assert_eq!(r.offer(400, 10, &mbuf(4)), Reassembled::OverCapacity);
        assert_eq!(r.dropped, 1);
        assert_eq!(r.buffered(), 3);
        // The drop count saturates rather than wrapping.
        r.dropped = u32::MAX;
        assert_eq!(r.offer(500, 10, &mbuf(5)), Reassembled::OverCapacity);
        assert_eq!(r.dropped, u32::MAX);
    }

    #[test]
    fn track_only_counts_without_storing() {
        let mut r = StreamReassembler::default();
        r.init_seq(0);
        assert_eq!(r.track_only(100, 100,), Reassembled::Buffered);
        assert_eq!(r.buffered(), 0, "counting mode stores nothing");
        // One early arrival (the `Buffered`), none dropped.
        assert_eq!(r.dropped, 0);
        // The hole was skipped: the stream position is past it.
        assert_eq!(r.next_seq(), Some(200));
        // Late filler for the skipped hole counts as duplicate.
        assert_eq!(r.track_only(0, 100), Reassembled::Duplicate);
        assert_eq!(r.track_only(200, 50), Reassembled::InOrder);
    }

    #[test]
    fn mid_stream_pickup() {
        let mut r = StreamReassembler::default();
        // No init: first segment adopted as the stream position.
        assert_eq!(r.offer(555_000, 100, &mbuf(1)), Reassembled::InOrder);
        assert_eq!(r.next_seq(), Some(555_100));
    }

    #[test]
    fn seq_wraparound() {
        let mut r = StreamReassembler::default();
        r.init_seq(u32::MAX - 50);
        assert_eq!(r.offer(u32::MAX - 50, 100, &mbuf(1)), Reassembled::InOrder);
        // next_seq wrapped.
        assert_eq!(r.next_seq(), Some(49));
        assert_eq!(r.offer(49, 10, &mbuf(2)), Reassembled::InOrder);
        // A pre-wrap sequence is recognized as duplicate.
        assert_eq!(r.offer(u32::MAX - 10, 5, &mbuf(3)), Reassembled::Duplicate);
    }

    #[test]
    fn out_of_order_across_wrap() {
        let mut r = StreamReassembler::default();
        r.init_seq(u32::MAX - 10);
        assert_eq!(r.offer(20, 10, &mbuf(2)), Reassembled::Buffered);
        assert_eq!(r.offer(u32::MAX - 10, 30, &mbuf(1)), Reassembled::InOrder);
        // next = MAX-10+30 wraps to 19... offset check: (MAX-10)+30 = 19 (mod 2^32).
        assert_eq!(r.next_seq(), Some(19));
        // Hole of 1 byte at seq 19; fill it.
        assert_eq!(r.offer(19, 1, &mbuf(3)), Reassembled::InOrder);
        let flushed = r.flush();
        assert_eq!(flushed.len(), 1);
        assert_eq!(r.next_seq(), Some(30));
    }

    #[test]
    fn stale_buffered_segment_discarded_by_flush() {
        let mut r = StreamReassembler::default();
        r.init_seq(0);
        r.offer(100, 10, &mbuf(1)); // buffered
                                    // A retransmission covers 0..200 in one segment.
        assert_eq!(r.offer(0, 200, &mbuf(2)), Reassembled::InOrder);
        let flushed = r.flush();
        assert!(flushed.is_empty());
        assert_eq!(r.buffered(), 0, "covered segment discarded");
        assert_eq!(r.next_seq(), Some(200));
    }

    #[test]
    fn median_hole_fill_of_one_packet() {
        // The paper's P50: one packet fills the hole.
        let mut r = StreamReassembler::default();
        r.init_seq(0);
        assert_eq!(r.offer(1460, 1460, &mbuf(2)), Reassembled::Buffered);
        assert_eq!(r.offer(0, 1460, &mbuf(1)), Reassembled::InOrder);
        assert_eq!(r.flush().len(), 1);
        assert_eq!(r.next_seq(), Some(2920));
    }

    retina_support::proptest! {
        /// Feeding any permutation of a contiguous segment sequence must
        /// deliver every segment exactly once, in order.
        #[test]
        fn permutation_invariant(perm in retina_support::proptest::sample::subsequence((0..12u32).collect::<Vec<_>>(), 12)) {
            // subsequence of full length = permutation source; shuffle by
            // reversing halves deterministically.
            let mut order = perm.clone();
            order.reverse();
            let mut r = StreamReassembler::default();
            r.init_seq(0);
            let mut delivered: Vec<u32> = Vec::new();
            for &i in &order {
                let seq = i * 100;
                match r.offer(seq, 100, &mbuf(i as u8)) {
                    Reassembled::InOrder => {
                        delivered.push(seq);
                        for m in r.flush() {
                            delivered.push(u32::from(m.data()[0]) * 100);
                        }
                    }
                    Reassembled::Buffered => {}
                    other => retina_support::prop_assert!(false, "unexpected {other:?}"),
                }
            }
            let expect: Vec<u32> = (0..order.len() as u32).map(|i| i * 100).collect();
            retina_support::prop_assert_eq!(delivered, expect);
        }
    }
}
