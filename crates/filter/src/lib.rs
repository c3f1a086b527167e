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
//!    ([`PacketFilter`]);
//! 3. a **connection filter** — L7 protocol identity, applied as soon as
//!    the protocol is probed ([`ConnFilter`]);
//! 4. an **application-layer session filter** — predicates on parsed
//!    session fields ([`SessionFilter`]).
//!
//! The pipeline is:
//!
//! ```text
//! source text --parse--> Expr --dnf--> patterns --expand--> PredicateTrie
//!     --split--> {hw rules, packet filter, conn filter, session filter}
//! ```
//!
//! Each stage lives in its own module: [`ast`], [`lexer`], [`parser`],
//! [`dnf`], [`trie`], [`subfilters`], [`hw`]. Execution is provided two
//! ways, matching Appendix B's ablation:
//!
//! - [`interp`] — the runtime engine: the trie lowered once to a flat op
//!   [`program`] and evaluated in a single forward loop (the "interpreted"
//!   strategy; what `RuntimeBuilder` and hot swaps run);
//! - [`codegen`] — a Rust source generator used by the `retina-filtergen`
//!   proc-macro to bake the filter into the binary as a static sequence of
//!   conditionals (the paper's approach, Figure 3).
//!
//! Protocol and field identifiers are *not* hard-coded: they are resolved
//! against an extensible [`registry::ProtocolRegistry`] (§3.3).

#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod codegen;
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
pub mod union;

pub use analysis::{analyze, analyze_union, Analysis};
pub use ast::{Expr, Op, Predicate, Span, Value};
pub use datatypes::{
    ConnData, ConnVerdict, FieldValue, FilterError, FilterResult, Frontiers, PacketVerdict,
    SessionData, SubscriptionSet,
};
pub use diag::{Diagnostic, Severity};
pub use interp::{CompiledFilter, ConnFilter, FilterFns, PacketFilter, SessionFilter};
pub use parser::parse;
pub use registry::ProtocolRegistry;
pub use trie::{FilterLayer, PredicateTrie};
pub use union::FilterUnion;

// Re-exported so macro-generated code can reference these crates through
// `retina_filter::` without the user adding direct dependencies.
pub use retina_support::rematch as regex;
pub use retina_wire as wire;

/// Parses and fully decomposes a filter with the default protocol registry.
///
/// This is the one-call entry point used by the runtime: it returns the
/// interpreted engines plus the predicate trie (from which hardware rules
/// and generated code can both be derived).
pub fn compile(src: &str) -> Result<CompiledFilter, FilterError> {
    let registry = ProtocolRegistry::default();
    CompiledFilter::build(src, &registry)
}
