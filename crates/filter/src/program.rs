//! The flat filter program [`crate::CompiledFilter`] executes.
//!
//! Lowering turns the merged [`PredicateTrie`] into three
//! contiguous arrays of fixed-size ops, once, at filter build:
//!
//! - **packet ops** — the packet-layer part of the trie in pre-order. Each
//!   op holds a pre-resolved typed test, the trie node id, the `subs` /
//!   frontier-`live` bitmaps, and `skip`: the index one past its subtree,
//!   i.e. of its next sibling. Evaluation is one forward loop — test
//!   passes → OR the bitmaps in and fall through to the first child at
//!   `i + 1`; fails → jump to `skip`. Because an op is only ever reached
//!   by falling through its parent or by a sibling's `skip`, reaching an
//!   op means every ancestor passed: the loop visits exactly the nodes the
//!   recursive trie walk visited, in the same (DFS) order.
//! - **conn ops** — per packet frontier, the slice of connection-layer
//!   candidates along the root-to-frontier path, with the service name
//!   interned to a small id.
//! - **session ops** — per connection node, its session-layer subtree in
//!   the same pre-order/`skip` form; field names, string constants and
//!   regexes are interned and addressed by index.
//!
//! No op holds a `String` or a `Vec`, and nothing is looked up by name
//! per packet. Frontier values handed to the runtime stay trie node ids.

// Narrowing casts in this file are intentional: op and table indices
// narrow to the compact fields of fixed-size ops by design.
#![allow(clippy::cast_possible_truncation)]

use std::collections::HashMap;
use std::net::IpAddr;

use retina_support::rematch::Regex;
use retina_wire::{IpProtocol, L4Header, ParsedPacket};

use crate::ast::{Op, Predicate, Value};
use crate::datatypes::{
    ConnVerdict, FieldValue, FilterError, Frontiers, PacketVerdict, SessionData, SubscriptionSet,
};
use crate::registry::FilterLayer;
use crate::trie::PredicateTrie;

// Header bits of a parsed packet; an op's `need` is the subset that must
// be set for its field to apply at all.
const V4: u8 = 1;
const V6: u8 = 1 << 1;
const TCP: u8 = 1 << 2;
const UDP: u8 = 1 << 3;
const ICMP: u8 = 1 << 4;

#[inline]
fn header_bits(pkt: &ParsedPacket) -> u8 {
    let l3 = if pkt.is_ipv4() {
        V4
    } else if pkt.is_ipv6() {
        V6
    } else {
        0
    };
    let l4 = match pkt.protocol {
        IpProtocol::Tcp => TCP,
        IpProtocol::Udp => UDP,
        IpProtocol::Icmp | IpProtocol::Icmpv6 => ICMP,
        _ => 0,
    };
    l3 | l4
}

/// A comparison against a constant, resolved from `(Op, Value)` at build.
/// Applied to a value of another type (an integer range to an address, a
/// regex to an integer, …) it answers `false`, as does [`Test::Never`] —
/// the lowering of every operator/operand pairing with no meaning.
#[derive(Debug, Clone, Copy)]
enum Test {
    /// No comparison: the op's header bits alone decide (unary protocol
    /// predicates, and the root's implicit `eth`).
    Always,
    Never,
    /// `lo <= v <= lo + span`, inverted when `negate`.
    Int {
        lo: u64,
        span: u64,
        negate: bool,
    },
    /// `addr & mask == net` for an IPv4 `addr`, inverted when `negate`
    /// (an IPv6 address is outside every v4 net, so it yields `negate`).
    V4 {
        net: u32,
        mask: u32,
        negate: bool,
    },
    V6 {
        net: u128,
        mask: u128,
        negate: bool,
    },
    /// Equality with `Program::strings[idx]` (session layer only).
    Str {
        idx: u32,
        negate: bool,
    },
    /// Match against `Program::regexes[idx]` (session layer only).
    Regex {
        idx: u32,
    },
    /// Session-layer unary predicate: the session is of the protocol
    /// whose interned id sits in the op's `field` slot.
    Service,
}

impl Test {
    /// Lowers a numeric or address comparison. String operands (and every
    /// ill-typed pairing) lower to [`Test::Never`]; the session lowering
    /// handles the string forms before falling back to this.
    fn lower(op: Op, value: &Value) -> Test {
        let range = |lo: u64, hi: u64, negate: bool| Test::Int {
            lo,
            span: hi - lo,
            negate,
        };
        match (op, value) {
            (Op::Eq, Value::Int(v)) => range(*v, *v, false),
            (Op::Ne, Value::Int(v)) => range(*v, *v, true),
            (Op::Lt, Value::Int(v)) if *v > 0 => range(0, v - 1, false),
            (Op::Le, Value::Int(v)) => range(0, *v, false),
            (Op::Gt, Value::Int(v)) if *v < u64::MAX => range(v + 1, u64::MAX, false),
            (Op::Ge, Value::Int(v)) => range(*v, u64::MAX, false),
            (Op::In, Value::IntRange(lo, hi)) if lo <= hi => range(*lo, *hi, false),
            (Op::Eq | Op::In | Op::Ne, Value::Ipv4Net(net, prefix)) => {
                let mask = match *prefix {
                    0 => 0,
                    p if p >= 32 => u32::MAX,
                    p => !(u32::MAX >> p),
                };
                Test::V4 {
                    net: u32::from(*net) & mask,
                    mask,
                    negate: op == Op::Ne,
                }
            }
            (Op::Eq | Op::In | Op::Ne, Value::Ipv6Net(net, prefix)) => {
                let mask = match *prefix {
                    0 => 0,
                    p if p >= 128 => u128::MAX,
                    p => !(u128::MAX >> p),
                };
                Test::V6 {
                    net: u128::from(*net) & mask,
                    mask,
                    negate: op == Op::Ne,
                }
            }
            _ => Test::Never,
        }
    }

    #[inline]
    fn int(self, v: u64) -> bool {
        match self {
            Test::Int { lo, span, negate } => (v.wrapping_sub(lo) <= span) != negate,
            _ => false,
        }
    }

    #[inline]
    fn ip(self, addr: IpAddr) -> bool {
        match (self, addr) {
            (Test::V4 { net, mask, negate }, IpAddr::V4(a)) => {
                ((u32::from(a) & mask) == net) != negate
            }
            (Test::V6 { net, mask, negate }, IpAddr::V6(a)) => {
                ((u128::from(a) & mask) == net) != negate
            }
            (Test::V4 { negate, .. }, IpAddr::V6(_)) | (Test::V6 { negate, .. }, IpAddr::V4(_)) => {
                negate
            }
            _ => false,
        }
    }
}

/// Which packet field a packet op reads. `Port` and `Addr` are the
/// either-endpoint fields: the test holds if either side satisfies it.
#[derive(Debug, Clone, Copy)]
enum Field {
    None,
    Ttl,
    TotalLen,
    SrcPort,
    DstPort,
    Port,
    Window,
    IcmpType,
    IcmpCode,
    SrcAddr,
    DstAddr,
    Addr,
}

#[derive(Debug, Clone, Copy)]
struct PacketOp {
    test: Test,
    /// Subscriptions whose pattern ends at this node.
    subs: SubscriptionSet,
    /// For a frontier: subscriptions still live through it.
    live: SubscriptionSet,
    /// Trie node id (the frontier value handed to the runtime).
    node: u32,
    /// Index one past this op's subtree.
    skip: u32,
    need: u8,
    field: Field,
    /// True when the node hands off to the connection filter.
    frontier: bool,
}

impl PacketOp {
    #[inline]
    fn eval(&self, pkt: &ParsedPacket, bits: u8) -> bool {
        if bits & self.need != self.need {
            return false;
        }
        let t = self.test;
        match self.field {
            Field::None => matches!(t, Test::Always),
            Field::Ttl => t.int(u64::from(pkt.ttl)),
            Field::TotalLen => t.int((pkt.payload_end - pkt.l3_offset) as u64),
            Field::SrcPort => t.int(u64::from(pkt.src_port)),
            Field::DstPort => t.int(u64::from(pkt.dst_port)),
            Field::Port => t.int(u64::from(pkt.src_port)) | t.int(u64::from(pkt.dst_port)),
            Field::Window => {
                matches!(pkt.l4, L4Header::Tcp { window, .. } if t.int(u64::from(window)))
            }
            Field::IcmpType => {
                matches!(pkt.l4, L4Header::Icmp { msg_type, .. } if t.int(u64::from(msg_type)))
            }
            Field::IcmpCode => {
                matches!(pkt.l4, L4Header::Icmp { code, .. } if t.int(u64::from(code)))
            }
            Field::SrcAddr => t.ip(pkt.src_ip),
            Field::DstAddr => t.ip(pkt.dst_ip),
            Field::Addr => t.ip(pkt.src_ip) | t.ip(pkt.dst_ip),
        }
    }

    /// Resolves a packet-layer predicate to `(need, field, test)`;
    /// unknown protocols and fields never match.
    fn lower(pred: &Predicate) -> (u8, Field, Test) {
        const NEVER: (u8, Field, Test) = (0, Field::None, Test::Never);
        match pred {
            Predicate::Unary { protocol } => {
                let need = match protocol.as_str() {
                    "eth" => 0,
                    "ipv4" => V4,
                    "ipv6" => V6,
                    "tcp" => TCP,
                    "udp" => UDP,
                    "icmp" => ICMP,
                    _ => return NEVER,
                };
                (need, Field::None, Test::Always)
            }
            Predicate::Binary {
                protocol,
                field,
                op,
                value,
            } => {
                let (need, field) = match (protocol.as_str(), field.as_str()) {
                    ("ipv4", "ttl") => (V4, Field::Ttl),
                    ("ipv6", "hop_limit") => (V6, Field::Ttl),
                    ("ipv4", "total_len") => (V4, Field::TotalLen),
                    ("ipv4" | "ipv6", f @ ("addr" | "src_addr" | "dst_addr")) => (
                        if protocol == "ipv4" { V4 } else { V6 },
                        match f {
                            "addr" => Field::Addr,
                            "src_addr" => Field::SrcAddr,
                            _ => Field::DstAddr,
                        },
                    ),
                    ("tcp" | "udp", f @ ("port" | "src_port" | "dst_port")) => (
                        if protocol == "tcp" { TCP } else { UDP },
                        match f {
                            "port" => Field::Port,
                            "src_port" => Field::SrcPort,
                            _ => Field::DstPort,
                        },
                    ),
                    // These read the parsed L4 summary, which is only of
                    // the right kind for the right protocol.
                    ("tcp", "window") => (0, Field::Window),
                    ("icmp", "type") => (0, Field::IcmpType),
                    ("icmp", "code") => (0, Field::IcmpCode),
                    _ => return NEVER,
                };
                (need, field, Test::lower(*op, value))
            }
        }
    }
}

/// One connection-layer candidate of a packet frontier.
#[derive(Debug, Clone, Copy)]
struct ConnOp {
    /// Subscriptions whose pattern ends at this node.
    subs: SubscriptionSet,
    /// Subscriptions with a pattern ending strictly below it.
    below: SubscriptionSet,
    /// This node's session subtree: a range of `Program::session`.
    session: (u32, u32),
    /// Interned id of the protocol this node tests for.
    service: u16,
}

#[derive(Debug, Clone, Copy)]
struct SessionOp {
    test: Test,
    subs: SubscriptionSet,
    /// Index one past this op's subtree.
    skip: u32,
    /// Index into `Program::fields` (`Program::services` for
    /// [`Test::Service`]).
    field: u16,
}

/// See the module docs.
#[derive(Debug, Default)]
pub(crate) struct Program {
    packet: Vec<PacketOp>,
    conn: Vec<ConnOp>,
    session: Vec<SessionOp>,
    /// Trie node id → that frontier's candidates, a range of `conn`
    /// (empty for every node that is not a packet frontier).
    slices: Vec<(u32, u32)>,
    services: Vec<Box<str>>,
    fields: Vec<Box<str>>,
    strings: Vec<Box<str>>,
    regexes: Vec<Regex>,
}

fn intern(table: &mut Vec<Box<str>>, s: &str) -> usize {
    table.iter().position(|t| **t == *s).unwrap_or_else(|| {
        table.push(s.into());
        table.len() - 1
    })
}

/// Build-time state of [`Program::lower`].
struct Lowering<'a> {
    trie: &'a PredicateTrie,
    prog: Program,
    /// Pattern text → index into `prog.regexes`.
    regex_ids: HashMap<&'a str, u32>,
    /// Connection node id → its already-emitted session range.
    session_ranges: HashMap<usize, (u32, u32)>,
}

impl<'a> Lowering<'a> {
    fn packet(&mut self, id: usize) {
        let trie = self.trie;
        let node = trie.node(id);
        let (need, field, test) = node
            .pred
            .as_ref()
            .map_or((0, Field::None, Test::Always), PacketOp::lower);
        let frontier = node
            .children
            .iter()
            .any(|&c| trie.node(c).layer != FilterLayer::Packet);
        let mut live = SubscriptionSet::empty();
        if frontier {
            let start = self.prog.conn.len() as u32;
            for c in trie.conn_candidates(id) {
                let cand = trie.node(c);
                live |= cand.subtree_subs;
                let proto = cand.pred.as_ref().expect("conn node has pred").protocol();
                let op = ConnOp {
                    subs: cand.subs,
                    below: cand.subtree_subs - cand.subs,
                    session: self.session_range(c),
                    service: intern(&mut self.prog.services, proto) as u16,
                };
                self.prog.conn.push(op);
            }
            self.prog.slices[id] = (start, self.prog.conn.len() as u32);
        }
        let at = self.prog.packet.len();
        self.prog.packet.push(PacketOp {
            test,
            subs: node.subs,
            live,
            node: id as u32,
            skip: 0,
            need,
            field,
            frontier,
        });
        for &c in &node.children {
            if trie.node(c).layer == FilterLayer::Packet {
                self.packet(c);
            }
        }
        self.prog.packet[at].skip = self.prog.packet.len() as u32;
    }

    /// The session program of connection node `conn` (emitted on first
    /// use: a node is a candidate of every frontier below its parent).
    fn session_range(&mut self, conn: usize) -> (u32, u32) {
        if let Some(&range) = self.session_ranges.get(&conn) {
            return range;
        }
        let start = self.prog.session.len() as u32;
        self.session(conn);
        let range = (start, self.prog.session.len() as u32);
        self.session_ranges.insert(conn, range);
        range
    }

    /// Emits the session-layer children of `id`, each followed by its
    /// own subtree.
    fn session(&mut self, id: usize) {
        let trie = self.trie;
        for &c in &trie.node(id).children {
            let child = trie.node(c);
            if child.layer != FilterLayer::Session {
                continue;
            }
            let (field, test) = match child.pred.as_ref().expect("session node has pred") {
                Predicate::Unary { protocol } => {
                    (intern(&mut self.prog.services, protocol), Test::Service)
                }
                Predicate::Binary {
                    field, op, value, ..
                } => {
                    let test = match (op, value) {
                        (Op::Matches, Value::Str(pattern)) => Test::Regex {
                            idx: self.regex_ids[pattern.as_str()],
                        },
                        (Op::Eq | Op::Ne, Value::Str(s)) => Test::Str {
                            idx: intern(&mut self.prog.strings, s) as u32,
                            negate: *op == Op::Ne,
                        },
                        _ => Test::lower(*op, value),
                    };
                    (intern(&mut self.prog.fields, field), test)
                }
            };
            let at = self.prog.session.len();
            self.prog.session.push(SessionOp {
                test,
                subs: child.subs,
                skip: 0,
                field: field as u16,
            });
            self.session(c);
            self.prog.session[at].skip = self.prog.session.len() as u32;
        }
    }
}

impl Program {
    /// Lowers `trie`; fails only on a regex that does not compile.
    pub(crate) fn lower(trie: &PredicateTrie) -> Result<Self, FilterError> {
        let mut lowering = Lowering {
            trie,
            prog: Program {
                slices: vec![(0, 0); trie.len()],
                ..Program::default()
            },
            regex_ids: HashMap::new(),
            session_ranges: HashMap::new(),
        };
        // Every regex in the filter is compiled exactly once (§4.1),
        // however many nodes and subscriptions share its pattern.
        for id in trie.reachable() {
            if let Some(Predicate::Binary {
                op: Op::Matches,
                value: Value::Str(pattern),
                ..
            }) = &trie.node(id).pred
            {
                if !lowering.regex_ids.contains_key(pattern.as_str()) {
                    let re =
                        Regex::new(pattern).map_err(|e| FilterError::BadRegex(e.to_string()))?;
                    let idx = lowering.prog.regexes.len() as u32;
                    lowering.prog.regexes.push(re);
                    lowering.regex_ids.insert(pattern, idx);
                }
            }
        }
        lowering.packet(0);
        Ok(lowering.prog)
    }

    /// Every satisfied packet-layer branch: terminal subscription sets and
    /// frontier handoffs, frontiers in DFS order.
    #[inline]
    pub(crate) fn packet_filter_set(&self, pkt: &ParsedPacket) -> PacketVerdict {
        let mut v = PacketVerdict::default();
        let bits = header_bits(pkt);
        let mut i = 0;
        while let Some(op) = self.packet.get(i) {
            if op.eval(pkt, bits) {
                v.matched |= op.subs;
                if op.frontier {
                    v.frontiers.push_distinct(op.node);
                    v.live |= op.live;
                }
                i += 1;
            } else {
                i = op.skip as usize;
            }
        }
        // A terminal disjunct subsumes the same subscription's deeper
        // branches: matched wins over live.
        v.live -= v.matched;
        v
    }

    fn service_id(&self, name: &str) -> Option<u16> {
        self.services
            .iter()
            .position(|s| **s == *name)
            .map(|i| i as u16)
    }

    /// The candidates of `frontier` that test for service `sid`.
    fn candidates(&self, frontier: usize, sid: u16) -> impl Iterator<Item = &ConnOp> {
        let (start, end) = self.slices.get(frontier).copied().unwrap_or((0, 0));
        self.conn[start as usize..end as usize]
            .iter()
            .filter(move |op| op.service == sid)
    }

    pub(crate) fn conn_filter_set(
        &self,
        service: Option<&str>,
        frontiers: &Frontiers,
        live: SubscriptionSet,
    ) -> ConnVerdict {
        let mut v = ConnVerdict::default();
        // No protocol identified, or one no predicate names: no
        // conn-layer predicate can pass.
        let Some(sid) = service.and_then(|s| self.service_id(s)) else {
            return v;
        };
        for f in frontiers.iter() {
            for op in self.candidates(f as usize, sid) {
                v.matched |= op.subs & live;
                v.live |= op.below & live;
            }
        }
        v.live -= v.matched;
        v
    }

    fn session_test(&self, op: &SessionOp, session: &dyn SessionData, sid: u16) -> bool {
        if matches!(op.test, Test::Service) {
            return op.field == sid;
        }
        let Some(value) = session.field(&self.fields[op.field as usize]) else {
            return false;
        };
        match (value, op.test) {
            (FieldValue::Int(i), t) => t.int(i),
            (FieldValue::Ip(a), t) => t.ip(a),
            (FieldValue::Str(s), Test::Regex { idx }) => self.regexes[idx as usize].is_match(s),
            (FieldValue::Str(s), Test::Str { idx, negate }) => {
                (*self.strings[idx as usize] == *s) != negate
            }
            (FieldValue::Str(_), _) => false,
        }
    }

    pub(crate) fn session_filter_set(
        &self,
        session: &dyn SessionData,
        frontiers: &Frontiers,
        live: SubscriptionSet,
    ) -> SubscriptionSet {
        let mut pass = SubscriptionSet::empty();
        let Some(sid) = self.service_id(session.protocol()) else {
            return pass;
        };
        for f in frontiers.iter() {
            for cand in self.candidates(f as usize, sid) {
                // Conn-terminal patterns default-pass (Figure 4a).
                pass |= cand.subs;
                // The candidate's session program, in DFS order.
                let (mut i, end) = (cand.session.0 as usize, cand.session.1 as usize);
                while i < end {
                    let op = &self.session[i];
                    if self.session_test(op, session, sid) {
                        pass |= op.subs;
                        i += 1;
                    } else {
                        i = op.skip as usize;
                    }
                }
            }
        }
        pass & live
    }
}
