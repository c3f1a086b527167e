//! # retina-conntrack
//!
//! Stateful connection processing for Retina (§5.2 of the paper):
//!
//! - [`FiveTuple`] / [`ConnKey`] — direction-aware connection identity
//!   with a canonical (direction-independent) table key.
//! - [`ConnTable`] — a per-core connection table built for million-flow
//!   scan churn: one open-addressed index keyed by the connection's fingerprint
//!   and the NIC's symmetric RSS hash, over a slot-reusing [`ConnArena`] of
//!   entries addressed by compact slot-index [`ConnHandle`]s.
//!   Each core owns one table and tracks only the connections symmetric
//!   RSS delivers to it, so there is no cross-core synchronization.
//! - [`TimerWheel`] — one level of 256 buckets of 100 ms, linked through
//!   two words in each timed slot: expiration without per-packet timer
//!   updates and without storage of its own beyond 2 KB of sentinels.
//!   Retina's defaults (5 s establishment timeout, 5 min inactivity
//!   timeout) reflect the observation that ~65% of connections on a real
//!   network are a single unanswered SYN; mass scan expiry drains whole
//!   wheel buckets. Figure 8 shows the memory effect of these choices.
//! - [`StreamReassembler`] — the lightweight "pass-through" reassembly of
//!   §5.2: in-sequence packets (94% of flows) flow straight through,
//!   while out-of-order packets are held *by reference* in a bounded ring
//!   (500 packets by default) and flushed when the hole fills.
//! - [`TcpFlow`] — per-direction TCP bookkeeping (handshake state,
//!   byte/packet/out-of-order counters, FIN/RST teardown detection), and
//!   the eight-byte [`Embryo`] a connection's first packet is recorded in
//!   until a second packet hatches its flow.

#![warn(missing_docs)]

pub mod arena;
pub mod conn;
pub mod reassembly;
pub mod table;
pub mod timerwheel;
pub mod tuple;

pub use arena::{ConnArena, ConnEntry, ConnHandle};
pub use conn::{Embryo, FlowUpdate, TcpFlow};
pub use reassembly::{Reassembled, StreamReassembler};
pub use table::{index_key, ConnTable, TimeoutConfig, INDEX_WORD_BYTES};
pub use timerwheel::TimerWheel;
pub use tuple::{ConnKey, Dir, FirstPacket, FiveTuple};
