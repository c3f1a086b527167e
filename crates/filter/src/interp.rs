//! Runtime (interpreted) filter execution.
//!
//! [`CompiledFilter`] is the product of filter compilation: the predicate
//! trie plus the flat op program lowered from it ([`crate::program`]).
//! Its three engines — [`PacketFilter`], [`ConnFilter`],
//! [`SessionFilter`] — run that program. This is the strategy Appendix B
//! calls "interpreted": the filter is data decided at run time, which is
//! what lets `RuntimeBuilder` and every hot swap accept filter text. The
//! `retina-filtergen` proc-macro generates equivalent static code (the
//! paper's default), and Figure 12's bench compares the two.

// Narrowing casts in this file are intentional: trie node ids narrow to the compact u32 frontier values by design.
#![allow(clippy::cast_possible_truncation)]

use std::sync::Arc;

use retina_nic::DeviceCaps;
use retina_nic::FlowRule;
use retina_wire::ParsedPacket;

use crate::datatypes::{
    ConnVerdict, FilterError, FilterResult, Frontiers, PacketVerdict, SessionData, SubscriptionSet,
};
use crate::program::Program;
use crate::registry::ProtocolRegistry;
use crate::trie::PredicateTrie;

/// The filter functions every execution strategy provides.
///
/// Implemented by [`CompiledFilter`] (interpreted) and by the structs the
/// `retina-filtergen` proc-macro generates (static code). The runtime is
/// generic over this trait, so switching strategies is a type parameter,
/// not a code change.
///
/// The trait has two views of the same filter:
///
/// - the **single-subscription** methods ([`FilterFns::packet_filter`],
///   [`FilterFns::conn_filter`], [`FilterFns::session_filter`]) return
///   match/no-match plus one resume node, as in Figure 3;
/// - the **multi-subscription** methods (`*_set`) return
///   [`SubscriptionSet`]s saying *which* of the N subscriptions sharing
///   the filter matched or remain live, plus the [`Frontiers`] at which
///   later layers resume. The runtime drives these, so one filter pass
///   serves every subscription.
///
/// Single-subscription implementations get the `*_set` methods for free:
/// the provided defaults adapt the single-subscription results to
/// one-element sets, so existing generated filters work unmodified in
/// the multi-subscription engine.
pub trait FilterFns: Send + Sync {
    /// Applies the software packet filter to a parsed packet.
    fn packet_filter(&self, pkt: &ParsedPacket) -> FilterResult;

    /// Applies the connection filter once the L7 protocol is known.
    /// `service` is the probed protocol name; `pkt_term_node` is the node
    /// the packet filter tagged the connection with.
    fn conn_filter(&self, service: Option<&str>, pkt_term_node: usize) -> FilterResult;

    /// Applies the session filter to a fully parsed session.
    /// `pkt_term_node` selects the branch set, as in Figure 3.
    fn session_filter(&self, session: &dyn SessionData, pkt_term_node: usize) -> bool;

    /// Connection-layer protocols this filter needs probed.
    fn conn_protocols(&self) -> Vec<String>;

    /// The original filter source text (used for diagnostics and, by the
    /// default [`FilterFns::hw_rules`], to synthesize hardware rules).
    fn source(&self) -> &str;

    /// True when the filter has connection- or session-layer predicates.
    fn needs_conn_layer(&self) -> bool;

    /// True when the filter has session-layer predicates.
    fn needs_session_layer(&self) -> bool;

    // --- multi-subscription view -------------------------------------

    /// Number of subscriptions this filter decides (1 unless the filter
    /// was built as a union of per-subscription filters).
    fn num_subscriptions(&self) -> usize {
        1
    }

    /// Applies the software packet filter for every subscription at
    /// once, returning which subscriptions matched terminally, which
    /// remain live for deeper layers, and the frontier nodes at which
    /// those layers resume.
    fn packet_filter_set(&self, pkt: &ParsedPacket) -> PacketVerdict {
        let mut v = PacketVerdict::default();
        match self.packet_filter(pkt) {
            FilterResult::NoMatch => {}
            FilterResult::MatchTerminal(_) => {
                v.matched = SubscriptionSet::single(0);
            }
            FilterResult::MatchNonTerminal(n) => {
                v.live = SubscriptionSet::single(0);
                v.frontiers.push(n as u32);
            }
        }
        v
    }

    /// Applies the connection filter for the still-`live` subscriptions
    /// of a connection tagged with `frontiers`. Subscriptions absent
    /// from both returned sets have failed and can drop their state.
    fn conn_filter_set(
        &self,
        service: Option<&str>,
        frontiers: &Frontiers,
        live: SubscriptionSet,
    ) -> ConnVerdict {
        let mut v = ConnVerdict::default();
        if !live.contains(0) {
            return v;
        }
        let node = frontiers.first().unwrap_or(0) as usize;
        match self.conn_filter(service, node) {
            FilterResult::NoMatch => {}
            FilterResult::MatchTerminal(_) => v.matched = SubscriptionSet::single(0),
            FilterResult::MatchNonTerminal(_) => v.live = SubscriptionSet::single(0),
        }
        v
    }

    /// Applies the session filter for the still-`live` subscriptions,
    /// returning the set whose filter the session satisfies.
    fn session_filter_set(
        &self,
        session: &dyn SessionData,
        frontiers: &Frontiers,
        live: SubscriptionSet,
    ) -> SubscriptionSet {
        if !live.contains(0) {
            return SubscriptionSet::empty();
        }
        let node = frontiers.first().unwrap_or(0) as usize;
        if self.session_filter(session, node) {
            SubscriptionSet::single(0)
        } else {
            SubscriptionSet::empty()
        }
    }

    /// Connection-layer protocols subscription `sub` needs probed.
    fn conn_protocols_for(&self, sub: usize) -> Vec<String> {
        let _ = sub;
        self.conn_protocols()
    }

    /// True when subscription `sub`'s filter has connection- or
    /// session-layer predicates.
    fn needs_conn_layer_for(&self, sub: usize) -> bool {
        let _ = sub;
        self.needs_conn_layer()
    }

    /// True when subscription `sub`'s filter has session-layer predicates.
    fn needs_session_layer_for(&self, sub: usize) -> bool {
        let _ = sub;
        self.needs_session_layer()
    }

    /// Synthesizes the hardware flow rules for a device with `caps`
    /// (§4.1: at least as broad as the filter, widened where the NIC
    /// cannot express a predicate). For a merged filter this is the
    /// union of every subscription's rules, deduplicated.
    ///
    /// The default re-derives the trie from [`FilterFns::source`];
    /// implementations that already hold a trie (like
    /// [`CompiledFilter`]) override this so the filter is compiled
    /// exactly once.
    fn hw_rules(
        &self,
        caps: DeviceCaps,
        registry: &ProtocolRegistry,
    ) -> Result<Vec<FlowRule>, FilterError> {
        let trie = PredicateTrie::from_source(self.source(), registry)?;
        Ok(crate::hw::synthesize(&trie, caps))
    }
}

/// A fully compiled filter: the predicate trie (the IR hardware-rule
/// synthesis, analysis and code generation work from) plus the flat
/// [`crate::program`] lowered from it, which is what executes.
///
/// Compiles one source ([`CompiledFilter::build`]) or the merged trie of
/// N subscription sources ([`CompiledFilter::build_union`]); in the
/// latter case the `*_set` methods natively evaluate every subscription
/// in one pass over the program.
#[derive(Debug, Clone)]
pub struct CompiledFilter {
    trie: Arc<PredicateTrie>,
    program: Arc<Program>,
}

impl CompiledFilter {
    /// Parses, expands, and compiles `src` against `registry`.
    pub fn build(src: &str, registry: &ProtocolRegistry) -> Result<Self, FilterError> {
        let trie = PredicateTrie::from_source(src, registry)?;
        Self::from_trie(trie)
    }

    /// Compiles N per-subscription sources into one merged filter whose
    /// `*_set` methods decide all of them in a single pass.
    pub fn build_union(srcs: &[&str], registry: &ProtocolRegistry) -> Result<Self, FilterError> {
        let trie = PredicateTrie::from_sources(srcs, registry)?;
        Self::from_trie(trie)
    }

    /// Lowers an existing trie to its program.
    pub fn from_trie(trie: PredicateTrie) -> Result<Self, FilterError> {
        let program = Program::lower(&trie)?;
        Ok(CompiledFilter {
            trie: Arc::new(trie),
            program: Arc::new(program),
        })
    }

    /// The underlying predicate trie.
    pub fn trie(&self) -> &PredicateTrie {
        &self.trie
    }
}

impl FilterFns for CompiledFilter {
    fn packet_filter(&self, pkt: &ParsedPacket) -> FilterResult {
        self.program.packet_filter(pkt)
    }

    fn conn_filter(&self, service: Option<&str>, pkt_term_node: usize) -> FilterResult {
        if self.trie.node(pkt_term_node).pattern_end {
            // The filter was already fully satisfied at the packet layer.
            return FilterResult::MatchTerminal(pkt_term_node);
        }
        self.program.conn_filter(service, pkt_term_node)
    }

    fn session_filter(&self, session: &dyn SessionData, pkt_term_node: usize) -> bool {
        self.trie.node(pkt_term_node).pattern_end
            || self.program.session_filter(session, pkt_term_node)
    }

    fn conn_protocols(&self) -> Vec<String> {
        self.trie.conn_protocols()
    }

    fn source(&self) -> &str {
        self.trie.source()
    }

    fn needs_conn_layer(&self) -> bool {
        self.trie.needs_conn_layer()
    }

    fn needs_session_layer(&self) -> bool {
        self.trie.needs_session_layer()
    }

    fn num_subscriptions(&self) -> usize {
        self.trie.num_subscriptions()
    }

    #[inline]
    fn packet_filter_set(&self, pkt: &ParsedPacket) -> PacketVerdict {
        self.program.packet_filter_set(pkt)
    }

    fn conn_filter_set(
        &self,
        service: Option<&str>,
        frontiers: &Frontiers,
        live: SubscriptionSet,
    ) -> ConnVerdict {
        self.program.conn_filter_set(service, frontiers, live)
    }

    fn session_filter_set(
        &self,
        session: &dyn SessionData,
        frontiers: &Frontiers,
        live: SubscriptionSet,
    ) -> SubscriptionSet {
        self.program.session_filter_set(session, frontiers, live)
    }

    fn conn_protocols_for(&self, sub: usize) -> Vec<String> {
        self.trie.conn_protocols_for(sub)
    }

    fn needs_conn_layer_for(&self, sub: usize) -> bool {
        self.trie.needs_conn_layer_for(sub)
    }

    fn needs_session_layer_for(&self, sub: usize) -> bool {
        self.trie.needs_session_layer_for(sub)
    }

    fn hw_rules(
        &self,
        caps: DeviceCaps,
        _registry: &ProtocolRegistry,
    ) -> Result<Vec<FlowRule>, FilterError> {
        // The trie is already built: no re-compilation.
        Ok(crate::hw::synthesize(&self.trie, caps))
    }
}

/// Standalone packet filter handle (borrowing a [`CompiledFilter`]); a
/// convenience for code that only needs one stage.
pub type PacketFilter = CompiledFilter;
/// Standalone connection filter handle.
pub type ConnFilter = CompiledFilter;
/// Standalone session filter handle.
pub type SessionFilter = CompiledFilter;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatypes::FieldValue;
    use retina_wire::build::{build_tcp, build_udp, TcpSpec, UdpSpec};
    use retina_wire::TcpFlags;

    fn compile(src: &str) -> CompiledFilter {
        CompiledFilter::build(src, &ProtocolRegistry::default()).unwrap()
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

    struct Tls(&'static str);
    impl SessionData for Tls {
        fn protocol(&self) -> &str {
            "tls"
        }
        fn field(&self, name: &str) -> Option<FieldValue<'_>> {
            (name == "sni").then_some(FieldValue::Str(self.0))
        }
    }

    struct Http;
    impl SessionData for Http {
        fn protocol(&self) -> &str {
            "http"
        }
        fn field(&self, _: &str) -> Option<FieldValue<'_>> {
            None
        }
    }

    #[test]
    fn packet_terminal_match() {
        let f = compile("tcp.port = 443");
        assert!(f
            .packet_filter(&tcp_pkt("10.0.0.1:50000", "1.1.1.1:443"))
            .is_terminal());
        assert_eq!(
            f.packet_filter(&tcp_pkt("10.0.0.1:50000", "1.1.1.1:80")),
            FilterResult::NoMatch
        );
        assert_eq!(
            f.packet_filter(&udp_pkt("10.0.0.1:443", "1.1.1.1:443")),
            FilterResult::NoMatch
        );
    }

    #[test]
    fn figure3_end_to_end() {
        let f = compile("(ipv4 and tcp.port >= 100 and tls.sni ~ 'netflix') or http");

        // TCP packet, port >= 100: non-terminal; both TLS and HTTP viable.
        let pkt = tcp_pkt("10.0.0.1:50000", "1.1.1.1:443");
        let r = f.packet_filter(&pkt);
        let FilterResult::MatchNonTerminal(node) = r else {
            panic!("expected non-terminal, got {r:?}");
        };

        // TLS connection on that node: non-terminal (session pred pending).
        let cr = f.conn_filter(Some("tls"), node);
        assert!(matches!(cr, FilterResult::MatchNonTerminal(_)), "{cr:?}");
        // HTTP connection: terminal (the `http` disjunct).
        assert!(f.conn_filter(Some("http"), node).is_terminal());
        // SSH connection: no match.
        assert_eq!(f.conn_filter(Some("ssh"), node), FilterResult::NoMatch);

        // Session filter: netflix SNI matches, other SNI does not.
        assert!(f.session_filter(&Tls("video.netflix.com"), node));
        assert!(!f.session_filter(&Tls("example.com"), node));
        // HTTP session defaults to match (conn-terminal pattern).
        assert!(f.session_filter(&Http, node));

        // TCP packet with both ports < 100 (e.g. 80 -> 90): the tls
        // pattern is out, but http is still viable through the tcp node.
        let pkt_low = tcp_pkt("10.0.0.1:80", "1.1.1.1:90");
        let r = f.packet_filter(&pkt_low);
        let FilterResult::MatchNonTerminal(node_low) = r else {
            panic!("expected non-terminal, got {r:?}");
        };
        assert_ne!(node, node_low);
        assert!(f.conn_filter(Some("http"), node_low).is_terminal());
        assert_eq!(f.conn_filter(Some("tls"), node_low), FilterResult::NoMatch);
        assert!(!f.session_filter(&Tls("video.netflix.com"), node_low));

        // IPv6 TCP: only the http disjunct applies.
        let pkt6 = tcp_pkt("[2001:db8::1]:50000", "[2001:db8::2]:443");
        let r6 = f.packet_filter(&pkt6);
        assert!(matches!(r6, FilterResult::MatchNonTerminal(_)));
        assert!(f
            .conn_filter(Some("http"), r6.node().unwrap())
            .is_terminal());
        assert_eq!(
            f.conn_filter(Some("tls"), r6.node().unwrap()),
            FilterResult::NoMatch
        );

        // UDP: nothing.
        assert_eq!(
            f.packet_filter(&udp_pkt("1.1.1.1:1", "2.2.2.2:2")),
            FilterResult::NoMatch
        );
    }

    #[test]
    fn match_all_filter() {
        let f = compile("");
        assert_eq!(
            f.packet_filter(&tcp_pkt("1.1.1.1:1", "2.2.2.2:2")),
            FilterResult::MatchTerminal(0)
        );
        assert!(f.conn_filter(Some("tls"), 0).is_terminal());
        assert!(f.conn_filter(None, 0).is_terminal());
        assert!(f.session_filter(&Http, 0));
        assert!(!f.needs_conn_layer());
    }

    #[test]
    fn conn_only_filter() {
        let f = compile("tls");
        let pkt = tcp_pkt("10.0.0.1:50000", "1.1.1.1:443");
        let r = f.packet_filter(&pkt);
        let FilterResult::MatchNonTerminal(node) = r else {
            panic!("{r:?}")
        };
        assert!(f.conn_filter(Some("tls"), node).is_terminal());
        assert_eq!(f.conn_filter(Some("http"), node), FilterResult::NoMatch);
        assert_eq!(f.conn_filter(None, node), FilterResult::NoMatch);
        assert!(f.needs_conn_layer());
        assert!(!f.needs_session_layer());
        assert_eq!(f.conn_protocols(), vec!["tls".to_string()]);
    }

    #[test]
    fn session_chain_requires_all_predicates() {
        struct Session {
            sni: &'static str,
            version: u64,
        }
        impl SessionData for Session {
            fn protocol(&self) -> &str {
                "tls"
            }
            fn field(&self, name: &str) -> Option<FieldValue<'_>> {
                match name {
                    "sni" => Some(FieldValue::Str(self.sni)),
                    "version" => Some(FieldValue::Int(self.version)),
                    _ => None,
                }
            }
        }
        let f = compile("tls.sni ~ 'netflix' and tls.version = 771");
        let pkt = tcp_pkt("10.0.0.1:50000", "1.1.1.1:443");
        let node = f.packet_filter(&pkt).node().unwrap();
        assert!(f.session_filter(
            &Session {
                sni: "a.netflix.com",
                version: 771
            },
            node
        ));
        assert!(!f.session_filter(
            &Session {
                sni: "a.netflix.com",
                version: 770
            },
            node
        ));
        assert!(!f.session_filter(
            &Session {
                sni: "example.com",
                version: 771
            },
            node
        ));
    }

    #[test]
    fn disjoint_session_patterns() {
        let f = compile("tls.sni ~ 'netflix' or tls.sni ~ 'googlevideo'");
        let pkt = tcp_pkt("10.0.0.1:50000", "1.1.1.1:443");
        let node = f.packet_filter(&pkt).node().unwrap();
        assert!(f.session_filter(&Tls("x.netflix.com"), node));
        assert!(f.session_filter(&Tls("r1.googlevideo.com"), node));
        assert!(!f.session_filter(&Tls("example.org"), node));
    }

    #[test]
    fn ip_version_restriction() {
        let f = compile("ipv4 and tls");
        let pkt4 = tcp_pkt("10.0.0.1:5000", "1.1.1.1:443");
        let pkt6 = tcp_pkt("[2001:db8::1]:5000", "[2001:db8::2]:443");
        assert!(f.packet_filter(&pkt4).is_match());
        assert_eq!(f.packet_filter(&pkt6), FilterResult::NoMatch);
    }

    #[test]
    fn terminal_preferred_over_frontier() {
        // Port 80 satisfies the terminal disjunct even though the tls
        // pattern also partially matches.
        let f = compile("tcp.port = 80 or tls.sni ~ 'x'");
        let pkt = tcp_pkt("10.0.0.1:50000", "1.1.1.1:80");
        assert!(f.packet_filter(&pkt).is_terminal());
        // Port 443 leaves only the tls pattern.
        let pkt = tcp_pkt("10.0.0.1:50000", "1.1.1.1:443");
        assert!(matches!(
            f.packet_filter(&pkt),
            FilterResult::MatchNonTerminal(_)
        ));
    }

    #[test]
    fn bad_regex_rejected_at_build() {
        assert!(matches!(
            CompiledFilter::build("tls.sni ~ '[bad'", &ProtocolRegistry::default()),
            Err(FilterError::BadRegex(_))
        ));
    }

    fn compile_union(srcs: &[&str]) -> CompiledFilter {
        CompiledFilter::build_union(srcs, &ProtocolRegistry::default()).unwrap()
    }

    #[test]
    fn single_sub_set_methods_match_scalar_methods() {
        // The set view of a single-subscription filter must agree with
        // the scalar view on every packet and layer.
        for src in [
            "tcp.port = 443",
            "(ipv4 and tcp.port >= 100 and tls.sni ~ 'netflix') or http",
            "tls",
            "",
            "tcp.port = 80 or tls.sni ~ 'x'",
        ] {
            let f = compile(src);
            for pkt in [
                tcp_pkt("10.0.0.1:50000", "1.1.1.1:443"),
                tcp_pkt("10.0.0.1:80", "1.1.1.1:90"),
                udp_pkt("10.0.0.1:5353", "8.8.8.8:53"),
                tcp_pkt("[2001:db8::1]:50000", "[2001:db8::2]:443"),
            ] {
                let scalar = f.packet_filter(&pkt);
                let set = f.packet_filter_set(&pkt);
                assert_eq!(set.matched.contains(0), scalar.is_terminal(), "{src}");
                assert_eq!(
                    set.matched.contains(0) || set.live.contains(0),
                    scalar.is_match(),
                    "{src}"
                );
                if let FilterResult::MatchNonTerminal(node) = scalar {
                    // Conn layer agreement on every service.
                    for service in [Some("tls"), Some("http"), Some("dns"), None] {
                        let sr = f.conn_filter(service, node);
                        let sv = f.conn_filter_set(service, &set.frontiers, set.live);
                        assert_eq!(
                            sv.matched.contains(0),
                            sr.is_terminal(),
                            "{src} {service:?}"
                        );
                        assert_eq!(
                            sv.matched.contains(0) || sv.live.contains(0),
                            sr.is_match(),
                            "{src} {service:?}"
                        );
                    }
                    // Session layer agreement.
                    for session in [
                        &Tls("video.netflix.com") as &dyn SessionData,
                        &Tls("example.com"),
                    ] {
                        assert_eq!(
                            f.session_filter_set(session, &set.frontiers, set.live)
                                .contains(0),
                            f.session_filter(session, node),
                            "{src}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn union_packet_filter_decides_each_subscription() {
        // Sub 0: terminal on port 443. Sub 1: conn-layer tls. Sub 2: http.
        let f = compile_union(&["tcp.port = 443", "tls", "http"]);
        assert_eq!(f.num_subscriptions(), 3);
        let v = f.packet_filter_set(&tcp_pkt("10.0.0.1:50000", "1.1.1.1:443"));
        assert!(v.matched.contains(0));
        assert!(v.live.contains(1) && v.live.contains(2));
        // Non-443 TCP: sub 0 out, 1 and 2 live.
        let v = f.packet_filter_set(&tcp_pkt("10.0.0.1:50000", "1.1.1.1:80"));
        assert!(!v.matched.contains(0) && !v.live.contains(0));
        assert!(v.live.contains(1) && v.live.contains(2));
        // UDP: nothing survives (tls/http are tcp-only, port is tcp.port).
        let v = f.packet_filter_set(&udp_pkt("1.1.1.1:1", "2.2.2.2:2"));
        assert!(v.is_no_match());
    }

    #[test]
    fn union_conn_filter_routes_by_service() {
        let f = compile_union(&["tls", "http", "tls.sni ~ 'netflix'"]);
        let v = f.packet_filter_set(&tcp_pkt("10.0.0.1:50000", "1.1.1.1:443"));
        assert_eq!(v.live.len(), 3);
        let cv = f.conn_filter_set(Some("tls"), &v.frontiers, v.live);
        // Sub 0 conn-terminal; sub 2 stays live for the session filter;
        // sub 1 (http) fails.
        assert!(cv.matched.contains(0));
        assert!(cv.live.contains(2));
        assert!(!cv.matched.contains(1) && !cv.live.contains(1));
        let cv = f.conn_filter_set(Some("http"), &v.frontiers, v.live);
        assert!(cv.matched.contains(1) && cv.matched.len() == 1);
        assert!(cv.live.is_empty());
        // Unknown service: everything falls off.
        let cv = f.conn_filter_set(Some("ssh"), &v.frontiers, v.live);
        assert!(cv.matched.is_empty() && cv.live.is_empty());
        // No service identified: same.
        let cv = f.conn_filter_set(None, &v.frontiers, v.live);
        assert!(cv.matched.is_empty() && cv.live.is_empty());
    }

    #[test]
    fn union_session_filter_per_subscription() {
        let f = compile_union(&["tls.sni ~ 'netflix'", "tls.sni ~ 'googlevideo'", "http"]);
        let v = f.packet_filter_set(&tcp_pkt("10.0.0.1:50000", "1.1.1.1:443"));
        let cv = f.conn_filter_set(Some("tls"), &v.frontiers, v.live);
        assert!(cv.live.contains(0) && cv.live.contains(1) && !cv.live.contains(2));
        let pass = f.session_filter_set(&Tls("a.netflix.com"), &v.frontiers, cv.live);
        assert!(pass.contains(0) && !pass.contains(1));
        let pass = f.session_filter_set(&Tls("r1.googlevideo.com"), &v.frontiers, cv.live);
        assert!(!pass.contains(0) && pass.contains(1));
        let pass = f.session_filter_set(&Tls("example.org"), &v.frontiers, cv.live);
        assert!(pass.is_empty());
    }

    #[test]
    fn union_divergent_packet_branches_stay_live() {
        // Sub 0 needs port >= 100 before tls; sub 1 matches http on any
        // tcp. A packet satisfying both tags BOTH frontiers — the
        // one-frontier single-subscription walk could only keep the
        // deepest.
        let f = compile_union(&["ipv4 and tcp.port >= 100 and tls.sni ~ 'n'", "http"]);
        let v = f.packet_filter_set(&tcp_pkt("10.0.0.1:50000", "1.1.1.1:443"));
        assert!(v.live.contains(0) && v.live.contains(1));
        assert!(v.frontiers.len() >= 2, "{:?}", v.frontiers);
        // Low ports: only http remains live.
        let v = f.packet_filter_set(&tcp_pkt("10.0.0.1:80", "1.1.1.1:90"));
        assert!(!v.live.contains(0) && v.live.contains(1));
    }

    #[test]
    fn union_with_match_all_subscription() {
        let f = compile_union(&["", "tls"]);
        let v = f.packet_filter_set(&udp_pkt("1.1.1.1:1", "2.2.2.2:2"));
        assert!(v.matched.contains(0));
        assert!(!v.live.contains(1)); // tls needs tcp
        let v = f.packet_filter_set(&tcp_pkt("1.1.1.1:1", "2.2.2.2:2"));
        assert!(v.matched.contains(0) && v.live.contains(1));
        let cv = f.conn_filter_set(Some("tls"), &v.frontiers, v.live);
        assert!(cv.matched.contains(1));
    }

    #[test]
    fn union_per_sub_metadata() {
        let f = compile_union(&["tls", "tcp.port = 80", "dns or http"]);
        assert_eq!(f.conn_protocols_for(0), vec!["tls".to_string()]);
        assert!(f.conn_protocols_for(1).is_empty());
        assert_eq!(f.conn_protocols_for(2).len(), 2);
        assert!(f.needs_conn_layer_for(0));
        assert!(!f.needs_conn_layer_for(1));
        assert!(!f.needs_session_layer_for(0));
        let protos = f.conn_protocols();
        assert_eq!(protos.len(), 3);
    }

    #[test]
    fn union_matches_independent_filters_on_packets() {
        // Semantic equivalence: for every packet, each subscription's
        // verdict in the union equals its verdict standalone.
        let srcs = ["tcp.port = 443", "tls", "http", "udp"];
        let union = compile_union(&srcs);
        let singles: Vec<_> = srcs.iter().map(|s| compile(s)).collect();
        for pkt in [
            tcp_pkt("10.0.0.1:50000", "1.1.1.1:443"),
            tcp_pkt("10.0.0.1:80", "1.1.1.1:90"),
            udp_pkt("10.0.0.1:53", "8.8.8.8:53"),
            tcp_pkt("[2001:db8::1]:50000", "[2001:db8::2]:443"),
        ] {
            let v = union.packet_filter_set(&pkt);
            for (i, single) in singles.iter().enumerate() {
                let r = single.packet_filter(&pkt);
                assert_eq!(v.matched.contains(i), r.is_terminal(), "sub {i}");
                assert_eq!(
                    v.matched.contains(i) || v.live.contains(i),
                    r.is_match(),
                    "sub {i}"
                );
            }
        }
    }

    #[test]
    fn dns_over_udp_and_tcp() {
        let f = compile("dns");
        for pkt in [
            udp_pkt("10.0.0.1:5353", "8.8.8.8:53"),
            tcp_pkt("10.0.0.1:5353", "8.8.8.8:53"),
        ] {
            let r = f.packet_filter(&pkt);
            let node = r.node().expect("should match");
            assert!(f.conn_filter(Some("dns"), node).is_terminal());
        }
    }
}
