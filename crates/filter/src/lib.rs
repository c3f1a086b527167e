//! # retina-filter
//!
//! The Retina filter language and its multi-layer decomposition (§4 of the
//! paper).
//!
//! A filter is a boolean expression over protocol predicates, e.g.
//!
//! ```text
//! (ipv4 and tcp.port >= 100 and tls.sni ~ 'netflix') or http
//! ```
//!
//! Filters are not a convenience — they are the performance mechanism: the
//! expression is decomposed into four hierarchical sub-filters, each of
//! which discards out-of-scope traffic before the next (more expensive)
//! processing stage runs:
//!
//! 1. a **hardware packet filter** — NIC flow rules, at zero CPU cost
//!    ([`hw`]);
//! 2. a **software packet filter** — per-packet header predicates
//!    ([`FilterFns::packet_filter_set`]);
//! 3. a **connection filter** — L7 protocol identity, applied as soon as
//!    the protocol is probed ([`FilterFns::conn_filter_set`]);
//! 4. an **application-layer session filter** — predicates on parsed
//!    session fields ([`FilterFns::session_filter_set`]).
//!
//! The pipeline is:
//!
//! ```text
//! source text --parse--> Expr --dnf--> patterns --expand--> PredicateTrie
//!     --split--> {hw rules, packet filter, conn filter, session filter}
//! ```
//!
//! Each stage lives in its own module: [`ast`], [`lexer`], [`parser`],
//! [`dnf`], [`trie`], [`subfilters`], [`hw`]. Execution is provided one
//! way: [`interp`] lowers the trie once to a flat op [`program`] and
//! evaluates it in a single forward loop per layer. `RuntimeBuilder`, hot
//! swaps and the `retina-filtergen` macros all build that same
//! [`CompiledFilter`]; the macros only add a compile-time check of the
//! filter text.
//!
//! Protocol and field identifiers are *not* hard-coded: they are resolved
//! against an extensible [`registry::ProtocolRegistry`] (§3.3).

#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod datatypes;
pub mod diag;
pub mod dnf;
pub mod hw;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod program;
pub mod registry;
pub mod subfilters;
pub mod trie;

pub use analysis::{analyze, analyze_union, Analysis};
pub use ast::{Expr, Op, Predicate, Span, Value};
pub use datatypes::{
    ConnData, ConnVerdict, FieldValue, FilterError, Frontiers, PacketVerdict, SessionData,
    SubscriptionSet,
};
pub use diag::{Diagnostic, Severity};
pub use interp::{CompiledFilter, FilterFns};
pub use parser::parse;
pub use registry::ProtocolRegistry;
pub use trie::{FilterLayer, PredicateTrie};

/// What `filter_union!` constructors return: the same [`CompiledFilter`]
/// `CompiledFilter::build_union` builds at run time.
pub type FilterUnion = CompiledFilter;

/// The regex engine session-layer `~` predicates compile with.
pub use retina_support::rematch as regex;

/// Parses and fully decomposes a filter with the default protocol registry.
///
/// This is the one-call entry point used by the runtime: it returns the
/// executable program plus the predicate trie (from which hardware rules
/// are derived).
pub fn compile(src: &str) -> Result<CompiledFilter, FilterError> {
    let registry = ProtocolRegistry::default();
    CompiledFilter::build(src, &registry)
}
