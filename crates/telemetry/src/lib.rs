//! retina-telemetry: observability primitives for the Retina pipeline.
//!
//! The paper's §5.3 argues that a 100GbE system is only trustworthy if
//! it continuously reports its own loss, throughput, and memory
//! pressure. This crate is that reporting substrate, kept dependency-
//! free so every other crate can use it:
//!
//! * [`StageSummary`] — one pipeline stage's runs, cycles and
//!   [`LogHistogram`] (log2 buckets, cheap p50/p95/p99): the counter a
//!   core records into, merged across cores by addition, and the shape
//!   a report and every exporter read.
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
//! The live gauges a monitor samples are not here either:
//! `retina_core::RuntimeGauges` holds them as one fixed block of atomics
//! per core. The overload governor's decision stream and the live-swap
//! record are each the value its producer returns
//! (`retina_core::GovernorReport`, `retina_core::SwapEvent`).

#![warn(missing_docs)]

pub mod dispatch;
pub mod drops;
pub mod export;
pub mod histogram;
pub mod json;
pub mod snapshot;
pub mod trace;

pub use dispatch::{DispatchHub, DispatchRow, DispatchSnapshot, DispatchStats};
pub use drops::{DropBreakdown, DropReason, DropSubject};
pub use export::{CsvSink, JsonSink, LogSink, MetricSink, PrometheusSink, Sample, SharedBuf};
pub use histogram::{LogHistogram, NUM_BUCKETS};
pub use snapshot::{StageSummary, TelemetrySnapshot};
pub use trace::{
    FlightDump, FlowTrace, LaneKind, TraceConfig, TraceEvent, TraceKind, TraceReport, TraceSession,
    Tracer, TriggerReason, TriggerRecord,
};
