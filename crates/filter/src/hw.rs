//! Hardware flow-rule synthesis (§4.1, "Hardware Packet Filter").
//!
//! For every packet-layer path of the predicate trie that either completes
//! a pattern or hands off to the connection filter, we build candidate NIC
//! flow rules. Each predicate is validated against the device's
//! capability profile *individually*: predicates the NIC cannot express
//! are simply omitted, widening the rule — the software packet filter
//! implements the remaining logic, so the installed rule set is always at
//! least as broad as the subscription filter.
//!
//! "Either-endpoint" predicates (`ipv4.addr`, `tcp.port`) expand into two
//! rules (source-side and destination-side), since NIC patterns constrain
//! one direction at a time.

// Narrowing casts in this file are intentional: tick, index, and counter arithmetic narrows to compact fields by design.
#![allow(clippy::cast_possible_truncation)]

use retina_nic::flow::{DeviceCaps, FlowRule, FlowRuleEngine, PortMatch, RuleItem};
use retina_wire::EtherType;

use crate::ast::{Op, Predicate, Value};
use crate::registry::FilterLayer;
use crate::trie::PredicateTrie;

/// Synthesizes the hardware rule set for `trie` on a device with `caps`.
///
/// Returns an empty vector when the filter matches everything at the root
/// (installing no rules leaves the NIC delivering all traffic, which is
/// exactly the broadest rule set).
pub fn synthesize(trie: &PredicateTrie, caps: DeviceCaps) -> Vec<FlowRule> {
    if trie.matches_everything() {
        return Vec::new();
    }
    let engine = FlowRuleEngine::new(caps);
    let mut rules: Vec<FlowRule> = Vec::new();

    // Anchor nodes: packet-layer pattern ends, plus frontiers that hand
    // off to the connection filter.
    let mut anchors: Vec<usize> = trie
        .reachable()
        .into_iter()
        .filter(|&id| {
            let n = trie.node(id);
            n.layer == FilterLayer::Packet
                && (n.pattern_end
                    || n.children
                        .iter()
                        .any(|&c| trie.node(c).layer != FilterLayer::Packet))
        })
        .collect();
    anchors.sort_unstable();
    anchors.dedup();

    for anchor in anchors {
        for rule in rules_for_path(trie, anchor, &engine) {
            if !rules.contains(&rule) {
                rules.push(rule);
            }
        }
    }
    rules
}

/// A rule under construction.
#[derive(Debug, Clone, Default)]
struct Draft {
    ethertype: Option<EtherType>,
    v4_src: Option<(std::net::Ipv4Addr, u8)>,
    v4_dst: Option<(std::net::Ipv4Addr, u8)>,
    v6_src: Option<(std::net::Ipv6Addr, u8)>,
    v6_dst: Option<(std::net::Ipv6Addr, u8)>,
    l4: Option<&'static str>, // "tcp" | "udp"
    src_port: Option<PortMatch>,
    dst_port: Option<PortMatch>,
}

impl Draft {
    fn to_rule(&self) -> FlowRule {
        let mut pattern = vec![RuleItem::Eth {
            ethertype: self.ethertype,
        }];
        match self.ethertype {
            Some(EtherType::Ipv4) => pattern.push(RuleItem::Ipv4 {
                src: self.v4_src,
                dst: self.v4_dst,
            }),
            Some(EtherType::Ipv6) => pattern.push(RuleItem::Ipv6 {
                src: self.v6_src,
                dst: self.v6_dst,
            }),
            _ => {}
        }
        match self.l4 {
            Some("tcp") => pattern.push(RuleItem::Tcp {
                src_port: self.src_port,
                dst_port: self.dst_port,
            }),
            Some("udp") => pattern.push(RuleItem::Udp {
                src_port: self.src_port,
                dst_port: self.dst_port,
            }),
            _ => {}
        }
        FlowRule::rss(pattern)
    }
}

fn rules_for_path(trie: &PredicateTrie, anchor: usize, engine: &FlowRuleEngine) -> Vec<FlowRule> {
    let mut drafts = vec![Draft::default()];
    for id in trie.path_to(anchor) {
        let Some(pred) = &trie.node(id).pred else {
            continue; // root
        };
        apply_pred(pred, &mut drafts, engine);
    }
    drafts.into_iter().map(|d| d.to_rule()).collect()
}

/// Applies one predicate to all drafts, widening (skipping) it when the
/// device cannot express it.
fn apply_pred(pred: &Predicate, drafts: &mut Vec<Draft>, engine: &FlowRuleEngine) {
    match pred {
        Predicate::Unary { protocol } => {
            for d in drafts.iter_mut() {
                match protocol.as_str() {
                    "ipv4" => d.ethertype = Some(EtherType::Ipv4),
                    "ipv6" => d.ethertype = Some(EtherType::Ipv6),
                    "tcp" => d.l4 = Some("tcp"),
                    "udp" => d.l4 = Some("udp"),
                    // icmp and unknown protocols: not expressible as a
                    // pattern item here; rule stays broader.
                    _ => {}
                }
            }
        }
        Predicate::Binary {
            protocol,
            field,
            op,
            value,
        } => {
            let port = port_match(*op, value);
            match (protocol.as_str(), field.as_str()) {
                ("ipv4", "src_addr") | ("ipv6", "src_addr") if is_eq_in(*op) => {
                    for d in drafts.iter_mut() {
                        set_ip(d, value, true);
                    }
                }
                ("ipv4", "dst_addr") | ("ipv6", "dst_addr") if is_eq_in(*op) => {
                    for d in drafts.iter_mut() {
                        set_ip(d, value, false);
                    }
                }
                ("ipv4", "addr") | ("ipv6", "addr") if is_eq_in(*op) => {
                    // Either-endpoint: duplicate drafts.
                    let mut expanded = Vec::with_capacity(drafts.len() * 2);
                    for d in drafts.iter() {
                        let mut src = d.clone();
                        set_ip(&mut src, value, true);
                        let mut dst = d.clone();
                        set_ip(&mut dst, value, false);
                        expanded.push(src);
                        expanded.push(dst);
                    }
                    *drafts = expanded;
                }
                ("tcp", "src_port") | ("udp", "src_port") => {
                    if let Some(pm) = port {
                        for d in drafts.iter_mut() {
                            d.src_port = Some(pm);
                        }
                    }
                }
                ("tcp", "dst_port") | ("udp", "dst_port") => {
                    if let Some(pm) = port {
                        for d in drafts.iter_mut() {
                            d.dst_port = Some(pm);
                        }
                    }
                }
                ("tcp", "port") | ("udp", "port") => {
                    if let Some(pm) = port {
                        let mut expanded = Vec::with_capacity(drafts.len() * 2);
                        for d in drafts.iter() {
                            let mut src = d.clone();
                            src.src_port = Some(pm);
                            let mut dst = d.clone();
                            dst.dst_port = Some(pm);
                            expanded.push(src);
                            expanded.push(dst);
                        }
                        *drafts = expanded;
                    }
                }
                // ttl, window, total_len, … are not offloadable: widen.
                _ => {}
            }
            // Drop constraints the device rejects, predicate by predicate.
            for d in drafts.iter_mut() {
                widen_until_valid(d, engine);
            }
        }
    }
}

fn is_eq_in(op: Op) -> bool {
    matches!(op, Op::Eq | Op::In)
}

fn set_ip(d: &mut Draft, value: &Value, src_side: bool) {
    match value {
        Value::Ipv4Net(a, p) => {
            d.ethertype = Some(EtherType::Ipv4);
            if src_side {
                d.v4_src = Some((*a, *p));
            } else {
                d.v4_dst = Some((*a, *p));
            }
        }
        Value::Ipv6Net(a, p) => {
            d.ethertype = Some(EtherType::Ipv6);
            if src_side {
                d.v6_src = Some((*a, *p));
            } else {
                d.v6_dst = Some((*a, *p));
            }
        }
        _ => {}
    }
}

fn port_match(op: Op, value: &Value) -> Option<PortMatch> {
    match (op, value) {
        (Op::Eq, Value::Int(p)) => Some(PortMatch::Exact(*p as u16)),
        (Op::Ge, Value::Int(p)) => Some(PortMatch::Range(*p as u16, u16::MAX)),
        (Op::Gt, Value::Int(p)) => Some(PortMatch::Range((*p as u16).saturating_add(1), u16::MAX)),
        (Op::Le, Value::Int(p)) => Some(PortMatch::Range(0, *p as u16)),
        (Op::Lt, Value::Int(p)) => Some(PortMatch::Range(0, (*p as u16).saturating_sub(1))),
        (Op::In, Value::IntRange(lo, hi)) => Some(PortMatch::Range(*lo as u16, *hi as u16)),
        // != cannot be expressed as a single NIC match: widen.
        _ => None,
    }
}

/// Strips unsupported constraints until the device accepts the rule.
fn widen_until_valid(d: &mut Draft, engine: &FlowRuleEngine) {
    for _ in 0..4 {
        match engine.validate(&d.to_rule()) {
            Ok(()) => return,
            Err(retina_nic::flow::FlowError::Unsupported(what)) => match what {
                "l4 port range" => {
                    if matches!(d.src_port, Some(PortMatch::Range(..))) {
                        d.src_port = None;
                    }
                    if matches!(d.dst_port, Some(PortMatch::Range(..))) {
                        d.dst_port = None;
                    }
                }
                "l4 port match" => {
                    d.src_port = None;
                    d.dst_port = None;
                }
                "ipv4 prefix match" | "ipv6 prefix match" => {
                    d.v4_src = None;
                    d.v4_dst = None;
                    d.v6_src = None;
                    d.v6_dst = None;
                }
                _ => return,
            },
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ProtocolRegistry;
    use retina_nic::flow::FlowAction;
    use retina_wire::build::{build_tcp, build_udp, TcpSpec, UdpSpec};
    use retina_wire::{ParsedPacket, TcpFlags};

    fn rules(src: &str, caps: DeviceCaps) -> Vec<FlowRule> {
        let trie = PredicateTrie::from_source(src, &ProtocolRegistry::default()).unwrap();
        synthesize(&trie, caps)
    }

    fn engine_with(rules: Vec<FlowRule>, caps: DeviceCaps) -> FlowRuleEngine {
        let mut e = FlowRuleEngine::new(caps);
        for r in rules {
            e.install(r).unwrap();
        }
        e
    }

    fn tcp_pkt(src: &str, dst: &str) -> ParsedPacket {
        let frame = build_tcp(&TcpSpec {
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            seq: 1,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 64,
            ttl: 64,
            payload: b"",
        });
        ParsedPacket::parse(&frame).unwrap()
    }

    fn udp_pkt(src: &str, dst: &str) -> ParsedPacket {
        let frame = build_udp(&UdpSpec {
            src: src.parse().unwrap(),
            dst: dst.parse().unwrap(),
            ttl: 64,
            payload: b"x",
        });
        ParsedPacket::parse(&frame).unwrap()
    }

    #[test]
    fn figure3_on_connectx5_widens_port_range() {
        // ConnectX-5 profile cannot express `tcp.port >= 100`, so the
        // hardware filter permits all TCP (both IP versions) — exactly the
        // Figure 3 outcome.
        let caps = DeviceCaps::connectx5();
        let rs = rules(
            "(ipv4 and tcp.port >= 100 and tls.sni ~ 'netflix') or http",
            caps,
        );
        let engine = engine_with(rs, caps);
        // TCP with low ports still passes the hardware filter (software
        // will refine).
        assert_eq!(
            engine.apply(&tcp_pkt("1.1.1.1:5", "2.2.2.2:7")),
            FlowAction::Rss
        );
        assert_eq!(
            engine.apply(&tcp_pkt("[2001:db8::1]:5", "[2001:db8::2]:7")),
            FlowAction::Rss
        );
        // UDP is dropped in hardware.
        assert_eq!(
            engine.apply(&udp_pkt("1.1.1.1:53", "2.2.2.2:53")),
            FlowAction::Drop
        );
    }

    #[test]
    fn port_range_offloaded_on_full_device() {
        let caps = DeviceCaps::full();
        let rs = rules("ipv4 and tcp.port >= 100 and tls.sni ~ 'netflix'", caps);
        let engine = engine_with(rs, caps);
        assert_eq!(
            engine.apply(&tcp_pkt("1.1.1.1:5000", "2.2.2.2:443")),
            FlowAction::Rss
        );
        // Both ports below 100: dropped in hardware on this device.
        assert_eq!(
            engine.apply(&tcp_pkt("1.1.1.1:5", "2.2.2.2:7")),
            FlowAction::Drop
        );
    }

    #[test]
    fn exact_port_offloaded_on_connectx5() {
        let caps = DeviceCaps::connectx5();
        let rs = rules("tcp.port = 443 and tls", caps);
        let engine = engine_with(rs, caps);
        assert_eq!(
            engine.apply(&tcp_pkt("1.1.1.1:50000", "2.2.2.2:443")),
            FlowAction::Rss
        );
        assert_eq!(
            engine.apply(&tcp_pkt("1.1.1.1:443", "2.2.2.2:50000")),
            FlowAction::Rss
        );
        assert_eq!(
            engine.apply(&tcp_pkt("1.1.1.1:50000", "2.2.2.2:80")),
            FlowAction::Drop
        );
    }

    #[test]
    fn match_all_installs_no_rules() {
        assert!(rules("", DeviceCaps::connectx5()).is_empty());
        assert!(rules("eth", DeviceCaps::connectx5()).is_empty());
    }

    #[test]
    fn prefix_rules() {
        let caps = DeviceCaps::connectx5();
        let rs = rules("ipv4.addr in 23.246.0.0/18 and tcp", caps);
        let engine = engine_with(rs, caps);
        assert_eq!(
            engine.apply(&tcp_pkt("23.246.1.1:9", "8.8.8.8:443")),
            FlowAction::Rss
        );
        assert_eq!(
            engine.apply(&tcp_pkt("8.8.8.8:9", "23.246.1.1:443")),
            FlowAction::Rss
        );
        assert_eq!(
            engine.apply(&tcp_pkt("8.8.8.8:9", "9.9.9.9:443")),
            FlowAction::Drop
        );
    }

    #[test]
    fn basic_nic_keeps_protocol_stack_only() {
        // A "dumb" NIC without port matching still installs protocol-level
        // rules: TLS filter → all TCP delivered, everything else dropped.
        let caps = DeviceCaps::basic();
        let rs = rules("tls.sni ~ 'x' and tcp.port = 443", caps);
        let engine = engine_with(rs, caps);
        assert_eq!(
            engine.apply(&tcp_pkt("1.1.1.1:1", "2.2.2.2:2")),
            FlowAction::Rss
        );
        assert_eq!(
            engine.apply(&udp_pkt("1.1.1.1:1", "2.2.2.2:2")),
            FlowAction::Drop
        );
    }

    #[test]
    fn rules_always_at_least_as_broad_as_filter() {
        // Property: any packet the software packet filter matches must
        // pass the synthesized hardware rules.
        use crate::interp::{CompiledFilter, FilterFns};
        let registry = ProtocolRegistry::default();
        for caps in [
            DeviceCaps::basic(),
            DeviceCaps::connectx5(),
            DeviceCaps::full(),
        ] {
            for src in [
                "tcp.port = 443",
                "tcp.port >= 1000",
                "udp.src_port in 50..100",
                "ipv4.addr in 10.0.0.0/8 and tcp",
                "tls.sni ~ 'netflix' or http",
                "ipv4.ttl > 64",
                "dns",
            ] {
                let filter = CompiledFilter::build(src, &registry).unwrap();
                let engine = engine_with(filter.hw_rules(caps, &registry).unwrap(), caps);
                let pkts = [
                    tcp_pkt("10.1.2.3:50000", "93.184.216.34:443"),
                    tcp_pkt("10.1.2.3:80", "10.9.9.9:90"),
                    tcp_pkt("172.16.0.1:1000", "172.16.0.2:2000"),
                    udp_pkt("10.0.0.1:53", "8.8.8.8:53"),
                    udp_pkt("1.1.1.1:70", "2.2.2.2:99"),
                    tcp_pkt("[2001:db8::1]:5000", "[2607:f8b0::2]:443"),
                ];
                for pkt in &pkts {
                    if !filter.packet_filter_set(pkt).is_no_match() {
                        assert_eq!(
                            engine.apply(pkt),
                            FlowAction::Rss,
                            "filter '{src}' caps {caps:?}: hw dropped a sw-matched packet"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rule_count_reasonable_for_either_endpoint() {
        // `tcp.port = 443` → src and dst variants, for v4 and v6 = 4 rules.
        let rs = rules("tcp.port = 443", DeviceCaps::connectx5());
        assert_eq!(rs.len(), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::registry::ProtocolRegistry;
    use retina_nic::flow::FlowAction;
    use retina_support::proptest::prelude::*;
    use retina_wire::build::{build_tcp, build_udp, TcpSpec, UdpSpec};
    use retina_wire::{ParsedPacket, TcpFlags};

    /// Subscription filter pool: a spread of packet-only, connection-,
    /// and session-layer filters, plus a match-everything entry (the
    /// empty source) to exercise the no-rules broadest case.
    const SOURCES: &[&str] = &[
        "",
        "tls",
        "http",
        "dns",
        "ipv4 and tcp",
        "udp",
        "tcp.port = 443",
        "tcp.port >= 1024",
        "ipv4.src_addr = 10.0.0.0/8 and tcp",
        "tls.sni ~ 'netflix'",
        "ipv6 and tcp.dst_port = 80",
    ];

    fn caps_for(sel: u8) -> DeviceCaps {
        match sel % 3 {
            0 => DeviceCaps::full(),
            1 => DeviceCaps::connectx5(),
            _ => DeviceCaps::basic(),
        }
    }

    fn merged_rules(srcs: &[&str], caps: DeviceCaps) -> Vec<FlowRule> {
        let trie = PredicateTrie::from_sources(srcs, &ProtocolRegistry::default()).unwrap();
        synthesize(&trie, caps)
    }

    fn single_rules(src: &str, caps: DeviceCaps) -> Vec<FlowRule> {
        let trie = PredicateTrie::from_source(src, &ProtocolRegistry::default()).unwrap();
        synthesize(&trie, caps)
    }

    fn engine_with(rules: &[FlowRule], caps: DeviceCaps) -> FlowRuleEngine {
        let mut e = FlowRuleEngine::new(caps);
        for r in rules {
            e.install(r.clone()).expect("synthesized rule must install");
        }
        e
    }

    fn packet(is_udp: bool, v6: bool, sport: u16, dport: u16) -> ParsedPacket {
        let (src, dst) = if v6 {
            (
                format!("[2001:db8::1]:{sport}"),
                format!("[2001:db8::2]:{dport}"),
            )
        } else {
            (
                format!("10.1.2.3:{sport}"),
                format!("93.184.216.34:{dport}"),
            )
        };
        let frame = if is_udp {
            build_udp(&UdpSpec {
                src: src.parse().unwrap(),
                dst: dst.parse().unwrap(),
                ttl: 64,
                payload: b"x",
            })
        } else {
            build_tcp(&TcpSpec {
                src: src.parse().unwrap(),
                dst: dst.parse().unwrap(),
                seq: 1,
                ack: 0,
                flags: TcpFlags::SYN,
                window: 64,
                ttl: 64,
                payload: b"",
            })
        };
        ParsedPacket::parse(&frame).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The merged trie's hardware rules are the deduplicated union of
        /// the individual subscriptions' rules: every rule a subscription
        /// would install on its own is present (unless the merged set is
        /// the broadest possible — empty, delivering everything), no rule
        /// appears twice, and every rule passes device validation (caps
        /// fallback widened it rather than producing a rejected rule).
        #[test]
        fn union_superset_dedup_and_caps_fallback(
            srcs in sample::subsequence(SOURCES.to_vec(), 1..=6),
            capsel in 0u8..3,
        ) {
            let caps = caps_for(capsel);
            let merged = merged_rules(&srcs, caps);
            for (i, r) in merged.iter().enumerate() {
                prop_assert!(!merged[i + 1..].contains(r), "duplicate rule {r:?}");
            }
            // Installs cleanly within caps (validates every rule).
            let _ = engine_with(&merged, caps);
            // An empty merged set is the broadest possible (deliver
            // everything); otherwise it must contain every rule each
            // subscription would install on its own.
            if !merged.is_empty() {
                for src in &srcs {
                    for r in single_rules(src, caps) {
                        prop_assert!(
                            merged.contains(&r),
                            "rule {r:?} from {src:?} missing from the merged set",
                        );
                    }
                }
            }
        }

        /// Per-packet broadness: any packet an individual subscription's
        /// hardware filter would deliver, the merged filter also delivers
        /// (the union never narrows any subscription, on any device).
        #[test]
        fn union_never_narrows_a_subscription(
            srcs in sample::subsequence(SOURCES.to_vec(), 1..=6),
            capsel in 0u8..3,
            sport in 1u16..u16::MAX,
            dport in 1u16..u16::MAX,
            shape in 0u8..4,
        ) {
            let caps = caps_for(capsel);
            let merged = engine_with(&merged_rules(&srcs, caps), caps);
            let pkt = packet(shape & 1 == 1, shape & 2 == 2, sport, dport);
            for src in &srcs {
                let single = engine_with(&single_rules(src, caps), caps);
                if single.apply(&pkt) == FlowAction::Rss {
                    prop_assert!(
                        merged.apply(&pkt) == FlowAction::Rss,
                        "packet delivered by {src:?} alone but dropped by the union",
                    );
                }
            }
        }
    }
}
