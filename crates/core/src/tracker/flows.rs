//! The per-core flow store: where a connection's [`TcpFlow`] lives once
//! it has one.
//!
//! A connection's flow is an eight-byte [`FlowWord`] in its `Conn`: an
//! [`Embryo`] of its first packet until a second packet arrives, then the
//! index of a flow in this store. Most connections never send a second
//! packet (Appendix C), so most never draw a slot: a bare SYN costs its
//! arena slot eight bytes of flow, not a flow with two reassemblers.
//!
//! The store is a [`Slab`] of flows, as the connection arena is a slab of
//! entries: nothing allocated per connection, and nothing at all until
//! the first promotion. A connection hands its slot back at its exit.
//!
//! A hook that reads an embryo's flow (`on_match` at a connection's open,
//! `on_terminate` at a bare SYN's expiry) reads the store's scratch flow,
//! hatched from the embryo for the call: a view never promotes.

use retina_conntrack::{Dir, Embryo, FlowUpdate, TcpFlow};
use retina_nic::Mbuf;
use retina_support::slab::Slab;
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

// Vacancy costs no byte: the slab entry's tag lives in the niche of a
// flow flag.
const _: () = assert!(Slab::<TcpFlow>::ENTRY_BYTES == std::mem::size_of::<Option<TcpFlow>>());

/// This core's promoted flows.
pub(super) struct FlowStore {
    /// The flows, by the index a stored flow word holds.
    pub(super) slab: Slab<TcpFlow>,
    ooo_capacity: usize,
    /// The flow an embryo's view reads, hatched for the call.
    scratch: Option<TcpFlow>,
}

impl FlowStore {
    pub(super) fn new(ooo_capacity: usize) -> Self {
        FlowStore {
            slab: Slab::new(),
            ooo_capacity,
            scratch: None,
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
        self.slab[i].update(pkt, mbuf, dir, stream_active)
    }

    /// A slot holding `embryo`'s flow: the last vacated one, else a new one.
    fn promote(&mut self, embryo: Embryo) -> u32 {
        self.slab.insert(embryo.hatch(self.ooo_capacity))
    }

    /// The segments a filled hole released in direction `dir`
    /// ([`retina_conntrack::StreamReassembler::flush`]); an embryo has
    /// buffered nothing.
    pub(super) fn flush(&mut self, word: FlowWord, dir: Dir) -> Vec<Mbuf> {
        match word {
            FlowWord::Embryo(_) => Vec::new(),
            FlowWord::Stored(i) => self.slab[i].reassembler(dir).flush(),
        }
    }

    /// `word`'s flow, for a hook to read: its stored flow, or the scratch
    /// flow, hatched from the embryo.
    pub(super) fn view(&mut self, word: FlowWord) -> &TcpFlow {
        match word {
            FlowWord::Stored(i) => &self.slab[i],
            FlowWord::Embryo(embryo) => self.scratch.insert(embryo.hatch(self.ooo_capacity)),
        }
    }

    /// Hands `word`'s slot back, if it holds one; the word is an empty
    /// embryo after.
    pub(super) fn release(&mut self, word: &mut FlowWord) {
        if let FlowWord::Stored(i) = std::mem::take(word) {
            self.slab.remove(i);
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
        assert_eq!((store.slab.len(), store.slab.allocated_bytes()), (0, 0));

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
        let bytes = store.slab.allocated_bytes();
        store.release(&mut words[0]);
        assert!(matches!(words[0], FlowWord::Embryo(_)));
        assert_eq!(store.slab.len(), 1);
        store.update(&mut words[2], &synack, &m2, Dir::RespToOrig, true);
        assert!(
            matches!(words[2], FlowWord::Stored(0)),
            "the vacated slot is reused"
        );
        assert_eq!((store.slab.len(), store.slab.allocated_bytes()), (2, bytes));
    }
}
