//! # retina-core
//!
//! The Retina analysis framework: subscribe to filtered, reassembled, and
//! parsed network traffic with a filter and a Rust callback (Figure 1 of
//! the paper):
//!
//! ```no_run
//! use retina_core::{Runtime, RuntimeConfig};
//! use retina_core::subscribables::TlsHandshakeData;
//!
//! let cfg = RuntimeConfig::default();
//! let filter = retina_filter::compile(r"tls.sni matches '\.com$'").unwrap();
//! let callback = |hs: TlsHandshakeData| {
//!     println!("TLS handshake with {} using {}", hs.tls.sni(), hs.tls.cipher());
//! };
//! let mut runtime = Runtime::new(cfg, filter, callback).unwrap();
//! // runtime.run(source) — see retina-trafficgen for traffic sources.
//! # let _ = &mut runtime;
//! ```
//!
//! ## Architecture (Figure 2)
//!
//! The runtime owns a virtual 100GbE NIC (`retina-nic`). At startup it
//! decomposes the subscription filter (via `retina-filter`) and installs
//! the hardware sub-filter as NIC flow rules. Each worker core then runs
//! an independent pipeline over its RSS queue:
//!
//! ```text
//! rx_burst → parse → software packet filter → connection tracker
//!     → stream reassembly → protocol probe → connection filter
//!     → app-layer parsing → session filter → callback
//! ```
//!
//! Every stage discards out-of-scope traffic before the next, more
//! expensive stage runs, and data reconstruction is *lazy*: packets are
//! only buffered, reordered, or parsed when the subscription still might
//! need them (§5). Connection state transitions through the
//! Probe/Parse/Track/Delete states of Figure 4, derived automatically
//! from the subscription level and the filter.
//!
//! ## Subscriptions
//!
//! Built-in subscribable types (all in [`subscribables`]):
//!
//! | Type | Level | Paper abstraction |
//! |---|---|---|
//! | [`subscribables::ZcFrame`] | L2–3 | raw packets |
//! | [`subscribables::ConnRecord`] | L4 | reassembled connection records |
//! | [`subscribables::ConnBytes`] | L4 | reconstructed byte-streams |
//! | [`subscribables::TlsHandshakeData`] | L5–7 | parsed TLS handshakes |
//! | [`subscribables::HttpTransactionData`] | L5–7 | parsed HTTP transactions |
//! | [`subscribables::SessionRecord`] | L5–7 | any parsed session |
//!
//! New types implement [`Subscribable`]/[`Tracked`] (Appendix A's
//! `Subscribable`/`Trackable`).

#![warn(missing_docs)]

pub mod config;
pub mod erased;
pub mod executor;
pub mod governor;
pub mod monitor;
pub mod offline;
pub mod pipeline;
pub mod reconfig;
pub mod report;
pub mod runtime;
pub mod stats;
pub mod step;
pub mod subscribables;
pub mod subscription;
pub mod tracker;
pub mod util;

pub use config::RuntimeConfig;
pub use erased::{
    Delivery, Emitter, ErasedSubscription, TrackedSlab, TypedEmitter, TypedSubscription,
};
pub use executor::{DispatchMode, QueuePolicy};
pub use governor::{
    check_governor_accounting, GovernorAction, GovernorBrain, GovernorConfig, GovernorEvent,
    GovernorReport, PressureSignals, ShedState,
};
pub use offline::run_offline;
pub use pipeline::{CorePipeline, Ingress, Transport, BURST_MAX, SWEEP_EVERY};
pub use reconfig::{SwapController, SwapError, SwapEvent, SwapSpec};
pub use report::{RunReport, SubReport};
pub use runtime::{
    MultiRuntime, Runtime, RuntimeBuilder, RuntimeError, RuntimeGauges, TrafficSource,
};
pub use stats::CoreStats;
pub use step::{StepConfig, STEP_NS};
pub use subscription::{ConnView, Level, MatchedSession, Subscribable, Tracked};

// Re-exports so applications need only depend on retina-core.
pub use retina_conntrack::FiveTuple;
pub use retina_filter::{compile, CompiledFilter, FilterFns};
pub use retina_nic::{Mbuf, StreamBytes};
pub use retina_protocols::Session;
pub use retina_telemetry as telemetry;
pub use retina_telemetry::{
    CsvSink, DispatchHub, DispatchSnapshot, DispatchStats, DropBreakdown, DropReason, JsonSink,
    LogHistogram, LogSink, MetricSink, PrometheusSink, Sample, SharedBuf, StageSummary,
    TelemetrySnapshot, TraceConfig, TraceReport, Tracer, TriggerReason,
};
pub use retina_wire::ParsedPacket;
