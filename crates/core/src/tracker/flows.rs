//! The per-core flow store: where a connection's [`TcpFlow`] lives once
//! it has one.
//!
//! A connection's flow is an eight-byte [`FlowWord`] in its `Conn`: an
//! [`Embryo`] of its first packet until a second packet arrives, then the
//! index of a flow in this store. Most connections never send a second
//! packet (Appendix C), so most never draw a slot: a bare SYN costs its
//! arena slot eight bytes of flow, not a flow with two reassemblers.
//!
//! The store is a dense `Vec` of slots with its free list in the vacant
//! slots, as the connection arena keeps its own: no side list, nothing
//! allocated per connection, and nothing at all until the first
//! promotion. A connection hands its slot back at its exit.
//!
//! A hook that reads an embryo's flow (`on_match` at a connection's open,
//! `on_terminate` at a bare SYN's expiry) reads the store's scratch flow,
//! hatched from the embryo for the call: a view never promotes.

// Narrowing casts in this file are intentional: a slot index is a `u32`.
#![allow(clippy::cast_possible_truncation)]

use retina_conntrack::{Dir, Embryo, FlowUpdate, TcpFlow};
use retina_nic::Mbuf;
use retina_wire::ParsedPacket;

/// A connection's flow: an embryo, or the store slot of its flow.
#[derive(Debug, Clone, Copy)]
pub(super) enum FlowWord {
    Embryo(Embryo),
    Stored(u32),
}

// Eight bytes in every arena slot: the word's tag lives in the niche of
// the embryo's `seen` flag.
const _: () = assert!(std::mem::size_of::<FlowWord>() == 8);

impl Default for FlowWord {
    fn default() -> Self {
        FlowWord::Embryo(Embryo::default())
    }
}

/// One store slot: a flow, or the next vacant slot's index (`NIL`: none).
enum Slot {
    Live(TcpFlow),
    Vacant(u32),
}

// Vacancy costs no byte: the slot's tag lives in the niche of a flow flag,
// the free-list link in the vacant flow's bytes.
const _: () = assert!(std::mem::size_of::<Slot>() == std::mem::size_of::<TcpFlow>());

/// The end of the in-slot free list.
const NIL: u32 = u32::MAX;

/// This core's promoted flows.
pub(super) struct FlowStore {
    slots: Vec<Slot>,
    /// The most recently vacated slot, or `NIL`.
    free: u32,
    live: usize,
    ooo_capacity: usize,
    /// The flow an embryo's view reads, hatched for the call.
    scratch: Option<TcpFlow>,
}

impl FlowStore {
    pub(super) fn new(ooo_capacity: usize) -> Self {
        FlowStore {
            slots: Vec::new(),
            free: NIL,
            live: 0,
            ooo_capacity,
            scratch: None,
        }
    }

    /// Flows in the store.
    pub(super) fn live(&self) -> usize {
        self.live
    }

    /// Bytes the store's slots occupy, vacant ones included.
    pub(super) fn allocated_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }

    fn flow(&self, i: u32) -> &TcpFlow {
        match &self.slots[i as usize] {
            Slot::Live(flow) => flow,
            Slot::Vacant(_) => unreachable!("a stored flow word names a live slot"),
        }
    }

    fn flow_mut(&mut self, i: u32) -> &mut TcpFlow {
        match &mut self.slots[i as usize] {
            Slot::Live(flow) => flow,
            Slot::Vacant(_) => unreachable!("a stored flow word names a live slot"),
        }
    }

    /// Accounts `pkt` into `word`'s flow ([`TcpFlow::update`]): an embryo
    /// records its first packet, and a packet it cannot hold promotes it —
    /// a slot drawn and filled from the embryo, then updated.
    pub(super) fn update(
        &mut self,
        word: &mut FlowWord,
        pkt: &ParsedPacket,
        mbuf: &Mbuf,
        dir: Dir,
        stream_active: bool,
    ) -> FlowUpdate {
        let i = match word {
            FlowWord::Stored(i) => *i,
            FlowWord::Embryo(embryo) => {
                if let Some(update) = embryo.record(pkt, dir) {
                    return update;
                }
                let i = self.promote(*embryo);
                *word = FlowWord::Stored(i);
                i
            }
        };
        self.flow_mut(i).update(pkt, mbuf, dir, stream_active)
    }

    /// A slot holding `embryo`'s flow: the last vacated one, else a new one.
    fn promote(&mut self, embryo: Embryo) -> u32 {
        let flow = Slot::Live(embryo.hatch(self.ooo_capacity));
        self.live += 1;
        if self.free == NIL {
            self.slots.push(flow);
            return (self.slots.len() - 1) as u32;
        }
        let i = self.free;
        match std::mem::replace(&mut self.slots[i as usize], flow) {
            Slot::Vacant(next) => self.free = next,
            Slot::Live(_) => unreachable!("the free list links vacant slots"),
        }
        i
    }

    /// The segments a filled hole released in direction `dir`
    /// ([`retina_conntrack::StreamReassembler::flush`]); an embryo has
    /// buffered nothing.
    pub(super) fn flush(&mut self, word: FlowWord, dir: Dir) -> Vec<Mbuf> {
        match word {
            FlowWord::Embryo(_) => Vec::new(),
            FlowWord::Stored(i) => self.flow_mut(i).reassembler(dir).flush(),
        }
    }

    /// `word`'s flow, for a hook to read: its stored flow, or the scratch
    /// flow, hatched from the embryo.
    pub(super) fn view(&mut self, word: FlowWord) -> &TcpFlow {
        match word {
            FlowWord::Stored(i) => self.flow(i),
            FlowWord::Embryo(embryo) => self.scratch.insert(embryo.hatch(self.ooo_capacity)),
        }
    }

    /// Hands `word`'s slot back, if it holds one; the word is an empty
    /// embryo after.
    pub(super) fn release(&mut self, word: &mut FlowWord) {
        if let FlowWord::Stored(i) = std::mem::take(word) {
            self.slots[i as usize] = Slot::Vacant(self.free);
            self.free = i;
            self.live -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retina_support::bytes::Bytes;
    use retina_wire::build::{build_tcp, TcpSpec};
    use retina_wire::TcpFlags;

    fn segment(from_client: bool, flags: u8) -> (ParsedPacket, Mbuf) {
        let (client, server) = ("10.0.0.1:5000", "1.1.1.1:443");
        let (src, dst) = if from_client {
            (client, server)
        } else {
            (server, client)
        };
        let frame = build_tcp(&TcpSpec {
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            seq: 100,
            ack: 0,
            flags,
            window: 64,
            ttl: 64,
            payload: b"",
        });
        let pkt = ParsedPacket::parse(&frame).unwrap();
        (pkt, Mbuf::from_bytes(Bytes::from(frame)))
    }

    #[test]
    fn a_released_slot_is_the_next_one_drawn() {
        let mut store = FlowStore::new(500);
        let (syn, m) = segment(true, TcpFlags::SYN);
        let (synack, m2) = segment(false, TcpFlags::SYN | TcpFlags::ACK);
        let mut words = [FlowWord::default(); 3];
        for word in &mut words {
            store.update(word, &syn, &m, Dir::OrigToResp, true);
            assert!(store.view(*word).is_single_syn());
        }
        assert_eq!((store.live(), store.allocated_bytes()), (0, 0));

        // Two are answered and promoted; the first of them exits, and the
        // third's promotion takes its slot: nothing grows.
        for word in &mut words[..2] {
            store.update(word, &synack, &m2, Dir::RespToOrig, true);
        }
        assert!(matches!(
            words,
            [
                FlowWord::Stored(0),
                FlowWord::Stored(1),
                FlowWord::Embryo(_)
            ]
        ));
        let flow = store.view(words[1]);
        assert!(flow.syn_seen && flow.synack_seen && flow.total_packets() == 2);
        let bytes = store.allocated_bytes();
        store.release(&mut words[0]);
        assert!(matches!(words[0], FlowWord::Embryo(_)));
        assert_eq!(store.live(), 1);
        store.update(&mut words[2], &synack, &m2, Dir::RespToOrig, true);
        assert!(
            matches!(words[2], FlowWord::Stored(0)),
            "the vacated slot is reused"
        );
        assert_eq!((store.live(), store.allocated_bytes()), (2, bytes));
    }
}
