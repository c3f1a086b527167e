//! retina-telemetry: observability primitives for the Retina pipeline.
//!
//! The paper's §5.3 argues that a 100GbE system is only trustworthy if
//! it continuously reports its own loss, throughput, and memory
//! pressure. This crate is that reporting substrate, kept dependency-
//! free so every other crate can use it:
//!
//! * [`Registry`] — a lock-free per-core metric registry. Counters and
//!   gauges are registered up front and updated through per-core
//!   [`Shard`] views (one cache-line-padded atomic per core per metric);
//!   readers merge shards on demand.
//! * [`LogHistogram`] — log2-bucketed cycle histograms with cheap
//!   p50/p95/p99 extraction, replacing sum-only stage statistics when
//!   profiling is on.
//! * [`DropReason`] / [`DropBreakdown`] — the structured drop taxonomy:
//!   every way a packet or connection leaves the pipeline, attributed
//!   exclusively so breakdowns sum back to totals.
//! * [`MetricSink`] and the built-in [`LogSink`], [`CsvSink`],
//!   [`JsonSink`], and [`PrometheusSink`] exporters, driven by the
//!   runtime monitor with periodic [`Sample`]s and a final
//!   [`TelemetrySnapshot`].
//! * [`DispatchStats`] / [`DispatchRow`] / [`DispatchHub`] — per-subscription callback
//!   dispatch counters (queue depth, drops by reason, blocked sends)
//!   whose worst-case occupancy feeds the governor as the
//!   queue-pressure shed input.
//! * [`Tracer`] and its [`TraceEvent`] lanes — per-flow causal tracing
//!   and the anomaly flight recorder ([`TriggerReason`] freezes it).
//!
//! The overload governor's decision stream and the live-swap record are
//! not here: each is the value its producer returns
//! (`retina_core::GovernorReport`, `retina_core::SwapEvent`).

#![warn(missing_docs)]

pub mod dispatch;
pub mod drops;
pub mod export;
pub mod histogram;
pub mod json;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use dispatch::{DispatchHub, DispatchRow, DispatchSnapshot, DispatchStats};
pub use drops::{DropBreakdown, DropReason, DropSubject};
pub use export::{CsvSink, JsonSink, LogSink, MetricSink, PrometheusSink, Sample, SharedBuf};
pub use histogram::{LogHistogram, NUM_BUCKETS};
pub use registry::{CounterId, GaugeId, GaugeMerge, MetricsSnapshot, Registry, Shard};
pub use snapshot::{StageSummary, TelemetrySnapshot};
pub use trace::{
    FlightDump, FlowTrace, LaneKind, TraceConfig, TraceEvent, TraceKind, TraceReport, TraceSession,
    Tracer, TriggerReason, TriggerRecord,
};
