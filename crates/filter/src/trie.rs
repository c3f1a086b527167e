//! The predicate trie: Retina's intermediate representation for filters.
//!
//! Flat patterns are merged into a trie in which every node is one atomic
//! predicate and input must match at least one root-to-leaf path to
//! satisfy the filter (§4.1, Figure 3). Nodes are restricted to a single
//! parent, which removes ambiguity when the trie is later split into
//! per-layer sub-filters and lowered to the op program. The root represents the
//! implicit `eth` predicate, which every frame satisfies.
//!
//! After construction an optimization pass removes redundant branches:
//! the subtree below a node where some pattern *ends* is unreachable work
//! (the filter is a disjunction, so a completed pattern subsumes every
//! longer pattern through the same node).

pub use crate::registry::FilterLayer;

use crate::ast::Predicate;
use crate::datatypes::{FilterError, SubscriptionSet};
use crate::dnf::{self, FlatPattern};
use crate::registry::ProtocolRegistry;

/// One node of the predicate trie.
#[derive(Debug, Clone)]
pub struct TrieNode {
    /// Node ID (index into the trie's arena; stable across optimization).
    pub id: usize,
    /// The predicate; `None` only for the root (`eth`).
    pub pred: Option<Predicate>,
    /// Processing layer at which this predicate is decided.
    pub layer: FilterLayer,
    /// Parent node (`None` for the root).
    pub parent: Option<usize>,
    /// Child node IDs in insertion order.
    pub children: Vec<usize>,
    /// True when a complete filter pattern ends at this node (for any
    /// subscription; equivalent to `!subs.is_empty()`).
    pub pattern_end: bool,
    /// Subscriptions whose pattern ends at this node (the per-node action
    /// bitset of the merged trie). For a single-subscription trie this is
    /// `{0}` wherever `pattern_end` is true.
    pub subs: SubscriptionSet,
    /// Subscriptions with a pattern ending at or below this node — the
    /// set that is still *live* when evaluation reaches this node.
    pub subtree_subs: SubscriptionSet,
}

/// The predicate trie for one compiled filter, shared by one or more
/// subscriptions.
///
/// When built with [`PredicateTrie::from_sources`], the patterns of all N
/// subscription filters are merged into one trie; terminal nodes carry a
/// [`SubscriptionSet`] recording which subscriptions' pattern ends there,
/// so one walk decides every subscription at once (the shared-computation
/// design of the multi-subscription runtime).
#[derive(Debug, Clone)]
pub struct PredicateTrie {
    nodes: Vec<TrieNode>,
    source: String,
    sources: Vec<String>,
}

impl PredicateTrie {
    /// Parses, expands, and builds the trie for `src` (one subscription).
    pub fn from_source(src: &str, registry: &ProtocolRegistry) -> Result<Self, FilterError> {
        Self::from_sources(&[src], registry)
    }

    /// Parses N filter sources and merges them into one trie, tagging
    /// each source's pattern ends with its subscription index.
    ///
    /// Per subscription, patterns proven dead by the semantic analyzer
    /// (subsumed by a broader pattern of the *same* subscription, see
    /// [`crate::analysis::dead_pattern_indices`]) are dropped before
    /// insertion — this is strictly more general than the prefix-based
    /// `shadow_clear` pass, which still runs to catch cross-insertion
    /// shadowing. The `tests/tests/analysis.rs` differential proptest
    /// checks the pruned trie against [`Self::from_sources_naive`].
    pub fn from_sources(srcs: &[&str], registry: &ProtocolRegistry) -> Result<Self, FilterError> {
        Self::from_sources_inner(srcs, registry, true)
    }

    /// Builds the same merged trie as [`Self::from_sources`] but with every
    /// optimization disabled: no analyzer-driven dead-pattern elimination,
    /// no `shadow_clear`, no branch pruning. Exists as the reference
    /// implementation for differential testing of the optimizing build;
    /// not intended for production use.
    pub fn from_sources_naive(
        srcs: &[&str],
        registry: &ProtocolRegistry,
    ) -> Result<Self, FilterError> {
        Self::from_sources_inner(srcs, registry, false)
    }

    /// Single-subscription variant of [`Self::from_sources_naive`].
    pub fn from_source_naive(src: &str, registry: &ProtocolRegistry) -> Result<Self, FilterError> {
        Self::from_sources_naive(&[src], registry)
    }

    fn from_sources_inner(
        srcs: &[&str],
        registry: &ProtocolRegistry,
        optimize: bool,
    ) -> Result<Self, FilterError> {
        if srcs.is_empty() || srcs.len() > SubscriptionSet::MAX {
            return Err(FilterError::parse(
                0,
                format!(
                    "a merged trie serves between 1 and {} subscriptions, got {}",
                    SubscriptionSet::MAX,
                    srcs.len()
                ),
            ));
        }
        let mut trie = Self::empty_trie(&Self::combined_source(srcs), srcs);
        for (sub, src) in srcs.iter().enumerate() {
            let patterns = Self::expand(src, registry)?;
            let keep = if optimize {
                crate::analysis::live_pattern_mask(&patterns)
            } else {
                vec![true; patterns.len()]
            };
            for (pattern, keep) in patterns.iter().zip(keep) {
                if keep {
                    trie.insert(pattern, registry, sub);
                }
            }
        }
        if optimize {
            trie.finalize();
        } else {
            trie.finalize_naive();
        }
        Ok(trie)
    }

    fn expand(src: &str, registry: &ProtocolRegistry) -> Result<Vec<FlatPattern>, FilterError> {
        if src.trim().is_empty() {
            // The empty filter subscribes to everything.
            Ok(vec![FlatPattern { predicates: vec![] }])
        } else {
            let expr = crate::parser::parse(src)?;
            let conjunctions = dnf::to_dnf(&expr);
            dnf::expand_patterns(&conjunctions, registry)
        }
    }

    /// The disjunction of N sources as a single parseable source string
    /// (used for diagnostics and default hardware-rule synthesis). A
    /// single source is kept verbatim; if any source matches everything,
    /// so does the union.
    fn combined_source(srcs: &[&str]) -> String {
        if srcs.len() == 1 {
            return srcs[0].to_string();
        }
        if srcs.iter().any(|s| s.trim().is_empty()) {
            return String::new();
        }
        srcs.iter()
            .map(|s| format!("({s})"))
            .collect::<Vec<_>>()
            .join(" or ")
    }

    fn empty_trie(src: &str, srcs: &[&str]) -> Self {
        PredicateTrie {
            nodes: vec![TrieNode {
                id: 0,
                pred: None,
                layer: FilterLayer::Packet,
                parent: None,
                children: Vec::new(),
                pattern_end: false,
                subs: SubscriptionSet::empty(),
                subtree_subs: SubscriptionSet::empty(),
            }],
            source: src.to_string(),
            sources: srcs.iter().map(std::string::ToString::to_string).collect(),
        }
    }

    /// Builds a single-subscription trie from already-expanded patterns.
    pub fn build(patterns: &[FlatPattern], registry: &ProtocolRegistry, src: &str) -> Self {
        let mut trie = Self::empty_trie(src, &[src]);
        for pattern in patterns {
            trie.insert(pattern, registry, 0);
        }
        trie.finalize();
        trie
    }

    fn insert(&mut self, pattern: &FlatPattern, registry: &ProtocolRegistry, sub: usize) {
        let mut cur = 0usize;
        for pred in &pattern.predicates {
            let existing = self.nodes[cur]
                .children
                .iter()
                .copied()
                .find(|&c| self.nodes[c].pred.as_ref() == Some(pred));
            cur = match existing {
                Some(c) => c,
                None => {
                    let id = self.nodes.len();
                    let layer = dnf::predicate_layer(pred, registry);
                    self.nodes.push(TrieNode {
                        id,
                        pred: Some(pred.clone()),
                        layer,
                        parent: Some(cur),
                        children: Vec::new(),
                        pattern_end: false,
                        subs: SubscriptionSet::empty(),
                        subtree_subs: SubscriptionSet::empty(),
                    });
                    self.nodes[cur].children.push(id);
                    id
                }
            };
        }
        self.nodes[cur].subs.insert(sub);
    }

    /// Post-construction pass: per-subscription subsumption clearing,
    /// subtree live-set computation, pruning, and `pattern_end` sync.
    fn finalize(&mut self) {
        self.shadow_clear(0, SubscriptionSet::empty());
        self.compute_subtrees(0);
        self.prune(0);
        for node in &mut self.nodes {
            node.pattern_end = !node.subs.is_empty();
        }
    }

    /// Finalization without the optimization passes: only the bookkeeping
    /// (`subtree_subs`, `pattern_end`) needed for a walkable trie. Used by
    /// [`Self::from_sources_naive`] so differential tests can compare the
    /// optimized trie against an unoptimized reference.
    fn finalize_naive(&mut self) {
        self.compute_subtrees(0);
        for node in &mut self.nodes {
            node.pattern_end = !node.subs.is_empty();
        }
    }

    /// Per-subscription subsumption: once a subscription's pattern ends
    /// at a node, any longer pattern of the *same* subscription through
    /// that node is redundant (the filter is a disjunction), so the
    /// subscription is cleared from every descendant. Other
    /// subscriptions' deeper patterns are untouched.
    fn shadow_clear(&mut self, id: usize, ended: SubscriptionSet) {
        self.nodes[id].subs -= ended;
        let ended = ended | self.nodes[id].subs;
        let children = self.nodes[id].children.clone();
        for c in children {
            self.shadow_clear(c, ended);
        }
    }

    fn compute_subtrees(&mut self, id: usize) -> SubscriptionSet {
        let mut acc = self.nodes[id].subs;
        let children = self.nodes[id].children.clone();
        for c in children {
            acc |= self.compute_subtrees(c);
        }
        self.nodes[id].subtree_subs = acc;
        acc
    }

    /// Removes branches no subscription can complete through (all their
    /// pattern ends were shadow-cleared). Nodes stay in the arena so IDs
    /// remain stable; they just become unreachable.
    fn prune(&mut self, id: usize) {
        let kept: Vec<usize> = self.nodes[id]
            .children
            .iter()
            .copied()
            .filter(|&c| !self.nodes[c].subtree_subs.is_empty())
            .collect();
        self.nodes[id].children = kept.clone();
        for c in kept {
            self.prune(c);
        }
    }

    /// The filter source text: the original source for a
    /// single-subscription trie, or the disjunction of all sources for a
    /// merged trie (empty if the union matches everything).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The per-subscription source texts, indexed by subscription.
    pub fn sources(&self) -> &[String] {
        &self.sources
    }

    /// Number of subscriptions merged into this trie.
    pub fn num_subscriptions(&self) -> usize {
        self.sources.len()
    }

    /// Node by ID.
    pub fn node(&self, id: usize) -> &TrieNode {
        &self.nodes[id]
    }

    /// The root node (implicit `eth`).
    pub fn root(&self) -> &TrieNode {
        &self.nodes[0]
    }

    /// Total nodes in the arena (including any pruned-unreachable ones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns true if the trie is trivially empty (never: there is always
    /// a root).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// IDs on the path from the root to `id`, inclusive.
    pub fn path_to(&self, id: usize) -> Vec<usize> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = self.nodes[cur].parent {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Reachable node IDs in depth-first order.
    pub fn reachable(&self) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![0usize];
        while let Some(id) = stack.pop() {
            out.push(id);
            for &c in self.nodes[id].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Whether the filter matches all traffic (a pattern ends at the root).
    pub fn matches_everything(&self) -> bool {
        self.nodes[0].pattern_end
    }

    /// Connection-layer protocols referenced by the filter, in first-seen
    /// order — the set the framework must be able to probe for.
    pub fn conn_protocols(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for id in self.reachable() {
            let node = &self.nodes[id];
            if node.layer == FilterLayer::Connection {
                if let Some(pred) = &node.pred {
                    let p = pred.protocol().to_string();
                    if !out.contains(&p) {
                        out.push(p);
                    }
                }
            }
        }
        out
    }

    /// Packet-layer nodes that the packet filter can return as a
    /// non-terminal match: nodes with at least one connection-layer child.
    /// (The root qualifies when the filter has conn-layer predicates
    /// directly below it — impossible in practice since conn protocols
    /// always sit under L3/L4, but handled uniformly.)
    pub fn packet_frontiers(&self) -> Vec<usize> {
        self.reachable()
            .into_iter()
            .filter(|&id| {
                let node = &self.nodes[id];
                node.layer == FilterLayer::Packet
                    && node
                        .children
                        .iter()
                        .any(|&c| self.nodes[c].layer != FilterLayer::Packet)
            })
            .collect()
    }

    /// Connection-layer candidate nodes for a packet-filter result: the
    /// connection-layer children of every node on the path to
    /// `pkt_term_node`. Evaluating candidates from the whole path (not
    /// just the deepest node) keeps sibling patterns that share a packet
    /// prefix alive — e.g. in Figure 3 a TCP packet with port ≥ 100 is
    /// tagged with node 4, but the `http` pattern through node 2 must
    /// still be considered.
    pub fn conn_candidates(&self, pkt_term_node: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for id in self.path_to(pkt_term_node) {
            for &c in &self.nodes[id].children {
                if self.nodes[c].layer == FilterLayer::Connection {
                    out.push(c);
                }
            }
        }
        out
    }

    /// Session-layer children of a connection node.
    pub fn session_candidates(&self, conn_node: usize) -> Vec<usize> {
        self.nodes[conn_node]
            .children
            .iter()
            .copied()
            .filter(|&c| self.nodes[c].layer == FilterLayer::Session)
            .collect()
    }

    /// True when any reachable node is connection- or session-layer (i.e.
    /// the filter requires stateful processing to decide).
    pub fn needs_conn_layer(&self) -> bool {
        self.reachable()
            .into_iter()
            .any(|id| self.nodes[id].layer != FilterLayer::Packet)
    }

    /// True when any reachable node is session-layer.
    pub fn needs_session_layer(&self) -> bool {
        self.reachable()
            .into_iter()
            .any(|id| self.nodes[id].layer == FilterLayer::Session)
    }

    /// Connection-layer protocols subscription `sub` needs probed: the
    /// protocols of conn-layer nodes its patterns run through.
    pub fn conn_protocols_for(&self, sub: usize) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for id in self.reachable() {
            let node = &self.nodes[id];
            if node.layer == FilterLayer::Connection && node.subtree_subs.contains(sub) {
                if let Some(pred) = &node.pred {
                    let p = pred.protocol().to_string();
                    if !out.contains(&p) {
                        out.push(p);
                    }
                }
            }
        }
        out
    }

    /// True when subscription `sub`'s filter has connection- or
    /// session-layer predicates.
    pub fn needs_conn_layer_for(&self, sub: usize) -> bool {
        self.reachable().into_iter().any(|id| {
            let node = &self.nodes[id];
            node.layer != FilterLayer::Packet && node.subtree_subs.contains(sub)
        })
    }

    /// True when subscription `sub`'s filter has session-layer predicates.
    pub fn needs_session_layer_for(&self, sub: usize) -> bool {
        self.reachable().into_iter().any(|id| {
            let node = &self.nodes[id];
            node.layer == FilterLayer::Session && node.subtree_subs.contains(sub)
        })
    }

    /// Renders the trie as an indented outline (for debugging and docs).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.dump_node(0, 0, &mut out);
        out
    }

    fn dump_node(&self, id: usize, depth: usize, out: &mut String) {
        let node = &self.nodes[id];
        let label = node
            .pred
            .as_ref()
            .map_or_else(|| "eth".to_string(), std::string::ToString::to_string);
        out.push_str(&"  ".repeat(depth));
        let end = if !node.pattern_end {
            String::new()
        } else if self.num_subscriptions() > 1 {
            format!(" *{}", node.subs)
        } else {
            " *".to_string()
        };
        out.push_str(&format!("[{}] {} ({:?}){}\n", id, label, node.layer, end));
        for &c in &node.children {
            self.dump_node(c, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(src: &str) -> PredicateTrie {
        PredicateTrie::from_source(src, &ProtocolRegistry::default()).unwrap()
    }

    #[test]
    fn figure3_trie_shape() {
        let trie = build("(ipv4 and tcp.port >= 100 and tls.sni ~ 'netflix') or http");
        // Root (eth) with ipv4 and ipv6 children.
        let root = trie.root();
        assert!(!root.pattern_end);
        assert_eq!(root.children.len(), 2);
        // The dump should contain every predicate from Figure 3.
        let dump = trie.dump();
        for needle in [
            "ipv4",
            "ipv6",
            "tcp",
            "tcp.port >= 100",
            "tls",
            "tls.sni",
            "http",
        ] {
            assert!(dump.contains(needle), "missing {needle} in:\n{dump}");
        }
        // Exactly two pattern-ends at conn layer (http v4/v6) and one at
        // session layer (tls.sni).
        let ends: Vec<_> = trie
            .reachable()
            .into_iter()
            .filter(|&id| trie.node(id).pattern_end)
            .collect();
        assert_eq!(ends.len(), 3, "{dump}");
    }

    #[test]
    fn shared_prefixes_are_merged() {
        let trie = build("tcp.port = 80 or tcp.port = 443");
        // eth -> {ipv4, ipv6} -> tcp -> {port=80, port=443}: one tcp node
        // per IP version, not per disjunct.
        let tcp_nodes: Vec<_> = trie
            .reachable()
            .into_iter()
            .filter(|&id| {
                trie.node(id)
                    .pred
                    .as_ref()
                    .is_some_and(|p| p.is_unary() && p.protocol() == "tcp")
            })
            .collect();
        assert_eq!(tcp_nodes.len(), 2);
        for id in tcp_nodes {
            assert_eq!(trie.node(id).children.len(), 2);
        }
    }

    #[test]
    fn subsumption_pruning() {
        // `ipv4 or (ipv4 and tcp)` ≡ `ipv4`: the tcp branch is pruned.
        let trie = build("ipv4 or (ipv4 and tcp)");
        let ipv4 = trie.root().children[0];
        assert!(trie.node(ipv4).pattern_end);
        assert!(trie.node(ipv4).children.is_empty());
    }

    #[test]
    fn empty_filter_matches_everything() {
        let trie = build("");
        assert!(trie.matches_everything());
        assert!(!trie.needs_conn_layer());
        let trie = build("eth");
        assert!(trie.matches_everything());
    }

    #[test]
    fn conn_protocols_collected() {
        let trie = build("tls or (http and ipv4) or dns");
        let protos = trie.conn_protocols();
        assert!(protos.contains(&"tls".to_string()));
        assert!(protos.contains(&"http".to_string()));
        assert!(protos.contains(&"dns".to_string()));
        assert_eq!(protos.len(), 3);
    }

    #[test]
    fn frontier_and_candidates_figure3() {
        let trie = build("(ipv4 and tcp.port >= 100 and tls.sni ~ 'netflix') or http");
        let frontiers = trie.packet_frontiers();
        // Frontiers: ipv4/tcp (http child), ipv4/tcp/port (tls child),
        // ipv6/tcp (http child).
        assert_eq!(frontiers.len(), 3, "{}", trie.dump());
        // Find the port node: its conn candidates must include BOTH tls
        // (its own child) and http (sibling branch through the shared tcp
        // node) — the Figure 3 path-walk property.
        let port_node = trie
            .reachable()
            .into_iter()
            .find(|&id| {
                trie.node(id)
                    .pred
                    .as_ref()
                    .is_some_and(|p| p.to_string() == "tcp.port >= 100")
            })
            .unwrap();
        let cands = trie.conn_candidates(port_node);
        let protos: Vec<_> = cands
            .iter()
            .map(|&c| trie.node(c).pred.as_ref().unwrap().protocol().to_string())
            .collect();
        assert!(protos.contains(&"tls".to_string()));
        assert!(protos.contains(&"http".to_string()));
    }

    #[test]
    fn needs_layers() {
        assert!(!build("tcp.port = 80").needs_conn_layer());
        assert!(build("http").needs_conn_layer());
        assert!(!build("http").needs_session_layer());
        assert!(build("tls.sni ~ 'x'").needs_session_layer());
    }

    #[test]
    fn path_to_root() {
        let trie = build("tls");
        let deep = trie
            .reachable()
            .into_iter()
            .find(|&id| trie.node(id).layer == FilterLayer::Connection)
            .unwrap();
        let path = trie.path_to(deep);
        assert_eq!(path[0], 0);
        assert_eq!(*path.last().unwrap(), deep);
        assert!(path.len() >= 3); // eth -> ip -> tcp -> tls
    }

    #[test]
    fn session_chain_nodes() {
        let trie = build("tls.sni ~ 'a' and tls.version = 771");
        // Session predicates chain: tls -> sni -> version.
        let conn = trie
            .reachable()
            .into_iter()
            .find(|&id| trie.node(id).layer == FilterLayer::Connection)
            .unwrap();
        let sess = trie.session_candidates(conn);
        assert_eq!(sess.len(), 1);
        let sni = sess[0];
        assert_eq!(trie.node(sni).children.len(), 1);
        let version = trie.node(sni).children[0];
        assert!(trie.node(version).pattern_end);
    }

    #[test]
    fn duplicate_patterns_dedupe() {
        let a = build("tcp or tcp");
        let b = build("tcp");
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn reachable_excludes_pruned() {
        // The analyzer drops the dead `ipv4 and tcp` pattern before
        // insertion, so the optimized arena never grows the tcp node at
        // all; the naive build keeps it and marks it reachable.
        let trie = build("ipv4 or (ipv4 and tcp)");
        assert_eq!(trie.reachable().len(), trie.len());
        let naive = PredicateTrie::from_source_naive(
            "ipv4 or (ipv4 and tcp)",
            &ProtocolRegistry::default(),
        )
        .unwrap();
        assert!(trie.len() < naive.len());
        assert_eq!(naive.reachable().len(), naive.len());
    }

    #[test]
    fn analyzer_prunes_subset_not_just_prefix() {
        // [ipv4] subsumes [ipv4, ipv4.ttl > 64, tcp] although their trie
        // paths diverge after the ipv4 node — prefix-based shadow_clear
        // alone cannot catch this.
        let pruned = build("ipv4 or (ipv4.ttl > 64 and tcp)");
        let solo = build("ipv4");
        assert_eq!(pruned.len(), solo.len());
        assert!(pruned.root().children.len() == 1);
    }

    fn build_multi(srcs: &[&str]) -> PredicateTrie {
        PredicateTrie::from_sources(srcs, &ProtocolRegistry::default()).unwrap()
    }

    #[test]
    fn merged_trie_tags_pattern_ends_per_subscription() {
        let trie = build_multi(&["tls", "http", "tls or dns"]);
        assert_eq!(trie.num_subscriptions(), 3);
        // The tls conn nodes (v4 + v6) end patterns for subs 0 and 2.
        let tls_ends: Vec<_> = trie
            .reachable()
            .into_iter()
            .filter(|&id| {
                let n = trie.node(id);
                n.pattern_end && n.pred.as_ref().is_some_and(|p| p.protocol() == "tls")
            })
            .collect();
        assert!(!tls_ends.is_empty());
        for id in tls_ends {
            let subs = trie.node(id).subs;
            assert!(subs.contains(0) && subs.contains(2) && !subs.contains(1));
        }
        // Union of protocols across subscriptions.
        let protos = trie.conn_protocols();
        assert_eq!(protos.len(), 3);
        // Per-subscription protocol needs.
        assert_eq!(trie.conn_protocols_for(0), vec!["tls".to_string()]);
        assert_eq!(trie.conn_protocols_for(1), vec!["http".to_string()]);
        let p2 = trie.conn_protocols_for(2);
        assert!(p2.contains(&"tls".to_string()) && p2.contains(&"dns".to_string()));
    }

    #[test]
    fn merged_trie_shares_prefixes_across_subscriptions() {
        let merged = build_multi(&["tls", "http"]);
        let single = build("tls or http");
        // Same node count: tcp/ip prefixes are shared across subs just as
        // they are across disjuncts of one filter.
        assert_eq!(merged.len(), single.len());
    }

    #[test]
    fn shadow_clear_is_per_subscription() {
        // Sub 0 ends at ipv4; sub 1 continues through ipv4 to tls. The
        // tls branch must survive for sub 1 even though sub 0's pattern
        // ends at its ancestor.
        let trie = build_multi(&["ipv4", "ipv4 and tls"]);
        let ipv4 = trie.root().children[0];
        assert!(trie.node(ipv4).subs.contains(0));
        assert!(!trie.node(ipv4).children.is_empty());
        assert!(trie.needs_conn_layer_for(1));
        assert!(!trie.needs_conn_layer_for(0));
        // Within one subscription, subsumption still prunes.
        let single = build_multi(&["ipv4 or (ipv4 and tls)", "dns"]);
        let ipv4 = single.root().children[0];
        // ipv4's children may include udp/tcp for dns (sub 1) but no tls
        // branch for sub 0.
        for &c in &single.node(ipv4).children {
            assert!(!single.node(c).subtree_subs.contains(0));
        }
    }

    #[test]
    fn merged_trie_per_sub_layer_needs() {
        let trie = build_multi(&["tcp.port = 80", "tls.sni ~ 'x'"]);
        assert!(!trie.needs_conn_layer_for(0));
        assert!(!trie.needs_session_layer_for(0));
        assert!(trie.needs_conn_layer_for(1));
        assert!(trie.needs_session_layer_for(1));
        assert!(trie.needs_conn_layer());
        assert!(trie.needs_session_layer());
    }

    #[test]
    fn merged_trie_match_everything_sub() {
        let trie = build_multi(&["", "tls"]);
        assert!(trie.matches_everything());
        assert!(trie.root().subs.contains(0));
        // Sub 1's tls branch survives under the match-all root.
        assert!(trie.needs_conn_layer_for(1));
        assert_eq!(trie.source(), "");
        let named = build_multi(&["tls", "http"]);
        assert_eq!(named.source(), "(tls) or (http)");
    }

    #[test]
    fn subtree_subs_reflect_live_sets() {
        let trie = build_multi(&["tls.sni ~ 'a'", "http"]);
        // Every reachable node's subtree set is the union of its
        // children's plus its own ends.
        for id in trie.reachable() {
            let node = trie.node(id);
            let mut acc = node.subs;
            for &c in &node.children {
                acc |= trie.node(c).subtree_subs;
            }
            assert_eq!(acc, node.subtree_subs, "node {id}");
        }
        assert_eq!(trie.root().subtree_subs, SubscriptionSet::first_n(2));
    }

    #[test]
    fn too_many_subscriptions_rejected() {
        let srcs: Vec<&str> = (0..65).map(|_| "tcp").collect();
        assert!(PredicateTrie::from_sources(&srcs, &ProtocolRegistry::default()).is_err());
        assert!(PredicateTrie::from_sources(&[], &ProtocolRegistry::default()).is_err());
    }
}
