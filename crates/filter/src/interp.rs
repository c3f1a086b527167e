//! Filter execution.
//!
//! [`CompiledFilter`] is the product of filter compilation: the predicate
//! trie plus the flat op program lowered from it ([`crate::program`]).
//! The packet, connection and session layers all run that program. This
//! is the strategy Appendix B calls "interpreted": the filter is data
//! decided at run time, which is what lets `RuntimeBuilder` and every hot
//! swap accept filter text. The `retina-filtergen` macros check filter
//! text at compile time and build this same value.

use std::sync::Arc;

use retina_nic::DeviceCaps;
use retina_nic::FlowRule;
use retina_wire::ParsedPacket;

use crate::datatypes::{
    ConnVerdict, FilterError, Frontiers, PacketVerdict, SessionData, SubscriptionSet,
};
use crate::program::Program;
use crate::registry::ProtocolRegistry;
use crate::trie::PredicateTrie;

/// The filter interface the runtime drives.
///
/// One call per layer decides every subscription sharing the filter: the
/// `*_set` methods return [`SubscriptionSet`]s saying *which* of the N
/// subscriptions matched or remain live, plus the [`Frontiers`] at which
/// later layers resume. [`CompiledFilter`] is the implementation.
pub trait FilterFns: Send + Sync {
    /// Number of subscriptions this filter decides (1 unless the filter
    /// was built as a union of per-subscription filters).
    fn num_subscriptions(&self) -> usize;

    /// Applies the software packet filter for every subscription at
    /// once, returning which subscriptions matched terminally, which
    /// remain live for deeper layers, and the frontier nodes at which
    /// those layers resume.
    fn packet_filter_set(&self, pkt: &ParsedPacket) -> PacketVerdict;

    /// Applies the connection filter for the still-`live` subscriptions
    /// of a connection tagged with `frontiers`, once its L7 protocol
    /// (`service`) is known. Subscriptions absent from both returned sets
    /// have failed and can drop their state.
    fn conn_filter_set(
        &self,
        service: Option<&str>,
        frontiers: &Frontiers,
        live: SubscriptionSet,
    ) -> ConnVerdict;

    /// Applies the session filter for the still-`live` subscriptions,
    /// returning the set whose filter the session satisfies.
    fn session_filter_set(
        &self,
        session: &dyn SessionData,
        frontiers: &Frontiers,
        live: SubscriptionSet,
    ) -> SubscriptionSet;

    /// Connection-layer protocols any subscription needs probed.
    fn conn_protocols(&self) -> Vec<String>;

    /// Connection-layer protocols subscription `sub` needs probed.
    fn conn_protocols_for(&self, sub: usize) -> Vec<String>;

    /// True when any subscription's filter has connection- or
    /// session-layer predicates.
    fn needs_conn_layer(&self) -> bool;

    /// True when subscription `sub`'s filter has connection- or
    /// session-layer predicates.
    fn needs_conn_layer_for(&self, sub: usize) -> bool;

    /// True when any subscription's filter has session-layer predicates.
    fn needs_session_layer(&self) -> bool;

    /// True when subscription `sub`'s filter has session-layer predicates.
    fn needs_session_layer_for(&self, sub: usize) -> bool;

    /// The original filter source text (for diagnostics).
    fn source(&self) -> &str;

    /// Synthesizes the hardware flow rules for a device with `caps`
    /// (§4.1: at least as broad as the filter, widened where the NIC
    /// cannot express a predicate). For a merged filter this is the
    /// union of every subscription's rules, deduplicated.
    fn hw_rules(
        &self,
        caps: DeviceCaps,
        registry: &ProtocolRegistry,
    ) -> Result<Vec<FlowRule>, FilterError>;
}

/// A fully compiled filter: the predicate trie (the IR hardware-rule
/// synthesis and analysis work from) plus the flat [`crate::program`]
/// lowered from it, which is what executes.
///
/// Compiles one source ([`CompiledFilter::build`]) or the merged trie of
/// N subscription sources ([`CompiledFilter::build_union`]); in the
/// latter case the `*_set` methods evaluate every subscription in one
/// pass over the program.
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

    fn conn_protocols(&self) -> Vec<String> {
        self.trie.conn_protocols()
    }

    fn conn_protocols_for(&self, sub: usize) -> Vec<String> {
        self.trie.conn_protocols_for(sub)
    }

    fn needs_conn_layer(&self) -> bool {
        self.trie.needs_conn_layer()
    }

    fn needs_conn_layer_for(&self, sub: usize) -> bool {
        self.trie.needs_conn_layer_for(sub)
    }

    fn needs_session_layer(&self) -> bool {
        self.trie.needs_session_layer()
    }

    fn needs_session_layer_for(&self, sub: usize) -> bool {
        self.trie.needs_session_layer_for(sub)
    }

    fn source(&self) -> &str {
        self.trie.source()
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

    /// The connection layer for the subscriptions `v` left live.
    fn conn(f: &CompiledFilter, v: &PacketVerdict, service: Option<&str>) -> ConnVerdict {
        f.conn_filter_set(service, &v.frontiers, v.live)
    }

    /// Whether `session` passes subscription 0's session filter after `v`.
    fn session(f: &CompiledFilter, v: &PacketVerdict, session: &dyn SessionData) -> bool {
        f.session_filter_set(session, &v.frontiers, v.live)
            .contains(0)
    }

    #[test]
    fn packet_terminal_match() {
        let f = compile("tcp.port = 443");
        assert!(f
            .packet_filter_set(&tcp_pkt("10.0.0.1:50000", "1.1.1.1:443"))
            .matched
            .contains(0));
        assert!(f
            .packet_filter_set(&tcp_pkt("10.0.0.1:50000", "1.1.1.1:80"))
            .is_no_match());
        assert!(f
            .packet_filter_set(&udp_pkt("10.0.0.1:443", "1.1.1.1:443"))
            .is_no_match());
    }

    #[test]
    fn figure3_end_to_end() {
        let f = compile("(ipv4 and tcp.port >= 100 and tls.sni ~ 'netflix') or http");

        // TCP packet, port >= 100: live; both TLS and HTTP viable.
        let v = f.packet_filter_set(&tcp_pkt("10.0.0.1:50000", "1.1.1.1:443"));
        assert!(v.matched.is_empty() && v.live.contains(0), "{v:?}");

        // TLS connection: still live (session predicate pending).
        let cv = conn(&f, &v, Some("tls"));
        assert!(cv.matched.is_empty() && cv.live.contains(0), "{cv:?}");
        // HTTP connection: terminal (the `http` disjunct).
        assert!(conn(&f, &v, Some("http")).matched.contains(0));
        // SSH connection: no match.
        assert_eq!(conn(&f, &v, Some("ssh")), ConnVerdict::default());

        // Session filter: netflix SNI matches, other SNI does not.
        assert!(session(&f, &v, &Tls("video.netflix.com")));
        assert!(!session(&f, &v, &Tls("example.com")));
        // HTTP session defaults to match (conn-terminal pattern).
        assert!(session(&f, &v, &Http));

        // TCP packet with both ports < 100 (e.g. 80 -> 90): the tls
        // pattern is out, but http is still viable through the tcp node.
        let low = f.packet_filter_set(&tcp_pkt("10.0.0.1:80", "1.1.1.1:90"));
        assert!(low.live.contains(0), "{low:?}");
        assert_ne!(v.frontiers, low.frontiers);
        assert!(conn(&f, &low, Some("http")).matched.contains(0));
        assert_eq!(conn(&f, &low, Some("tls")), ConnVerdict::default());
        assert!(!session(&f, &low, &Tls("video.netflix.com")));

        // IPv6 TCP: only the http disjunct applies.
        let v6 = f.packet_filter_set(&tcp_pkt("[2001:db8::1]:50000", "[2001:db8::2]:443"));
        assert!(v6.live.contains(0), "{v6:?}");
        assert!(conn(&f, &v6, Some("http")).matched.contains(0));
        assert_eq!(conn(&f, &v6, Some("tls")), ConnVerdict::default());

        // UDP: nothing.
        assert!(f
            .packet_filter_set(&udp_pkt("1.1.1.1:1", "2.2.2.2:2"))
            .is_no_match());
    }

    #[test]
    fn match_all_filter() {
        let f = compile("");
        let v = f.packet_filter_set(&tcp_pkt("1.1.1.1:1", "2.2.2.2:2"));
        assert!(v.matched.contains(0) && v.live.is_empty(), "{v:?}");
        assert!(!f.needs_conn_layer());
    }

    #[test]
    fn conn_only_filter() {
        let f = compile("tls");
        let v = f.packet_filter_set(&tcp_pkt("10.0.0.1:50000", "1.1.1.1:443"));
        assert!(v.live.contains(0), "{v:?}");
        assert!(conn(&f, &v, Some("tls")).matched.contains(0));
        assert_eq!(conn(&f, &v, Some("http")), ConnVerdict::default());
        assert_eq!(conn(&f, &v, None), ConnVerdict::default());
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
        let v = f.packet_filter_set(&tcp_pkt("10.0.0.1:50000", "1.1.1.1:443"));
        assert!(session(
            &f,
            &v,
            &Session {
                sni: "a.netflix.com",
                version: 771
            }
        ));
        assert!(!session(
            &f,
            &v,
            &Session {
                sni: "a.netflix.com",
                version: 770
            }
        ));
        assert!(!session(
            &f,
            &v,
            &Session {
                sni: "example.com",
                version: 771
            }
        ));
    }

    #[test]
    fn disjoint_session_patterns() {
        let f = compile("tls.sni ~ 'netflix' or tls.sni ~ 'googlevideo'");
        let v = f.packet_filter_set(&tcp_pkt("10.0.0.1:50000", "1.1.1.1:443"));
        assert!(session(&f, &v, &Tls("x.netflix.com")));
        assert!(session(&f, &v, &Tls("r1.googlevideo.com")));
        assert!(!session(&f, &v, &Tls("example.org")));
    }

    #[test]
    fn ip_version_restriction() {
        let f = compile("ipv4 and tls");
        let pkt4 = tcp_pkt("10.0.0.1:5000", "1.1.1.1:443");
        let pkt6 = tcp_pkt("[2001:db8::1]:5000", "[2001:db8::2]:443");
        assert!(!f.packet_filter_set(&pkt4).is_no_match());
        assert!(f.packet_filter_set(&pkt6).is_no_match());
    }

    #[test]
    fn terminal_preferred_over_frontier() {
        // Port 80 satisfies the terminal disjunct even though the tls
        // pattern also partially matches.
        let f = compile("tcp.port = 80 or tls.sni ~ 'x'");
        let v = f.packet_filter_set(&tcp_pkt("10.0.0.1:50000", "1.1.1.1:80"));
        assert!(v.matched.contains(0) && v.live.is_empty(), "{v:?}");
        // Port 443 leaves only the tls pattern.
        let v = f.packet_filter_set(&tcp_pkt("10.0.0.1:50000", "1.1.1.1:443"));
        assert!(v.matched.is_empty() && v.live.contains(0), "{v:?}");
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
                let r = single.packet_filter_set(&pkt);
                assert_eq!(v.matched.contains(i), r.matched.contains(0), "sub {i}");
                assert_eq!(v.live.contains(i), r.live.contains(0), "sub {i}");
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
            let v = f.packet_filter_set(&pkt);
            assert!(v.live.contains(0), "{v:?}");
            assert!(conn(&f, &v, Some("dns")).matched.contains(0));
        }
    }
}
