//! What a run reports: [`RunReport`], its per-subscription
//! [`SubReport`] rows, and the run's row table they are read from.
//!
//! A run keeps one row per subscription name installed during it. Epoch
//! 0's rows are created in registration order; a live swap appends rows
//! only for names new to the run, and a name removed and later re-added
//! keeps its row. A row knows its slot in the running table, and each
//! configuration epoch carries that slot → row map for its cores to
//! adopt. Every core counts `delivered` and `discarded` into a plain
//! vector indexed by row, and both drivers take each row's dispatch
//! counters from the table: a swap changes only the slot → row map,
//! nothing moves and nothing is banked, and cores merge by index
//! addition. The report is then the rows themselves — the final table's
//! first, in slot order, then the ones a swap retired, by name.

use std::sync::Arc;
use std::time::Duration;

use retina_nic::PortStatsSnapshot;
use retina_telemetry::{
    DispatchRow, DropBreakdown, DropReason, StageSummary, TelemetrySnapshot, TraceReport, Tracer,
    TriggerReason,
};

use crate::erased::ErasedSubscription;
use crate::executor::{ring_capacity, DispatchMode};
use crate::stats::CoreStats;
use crate::tracker::SubTally;

/// Per-subscription outcome of a completed run.
#[derive(Debug, Clone)]
pub struct SubReport {
    /// Subscription name (as registered with the builder).
    pub name: String,
    /// Data items handed to the subscription's delivery layer (inline
    /// invocation or dispatch-ring enqueue).
    pub delivered: u64,
    /// Connections on which the subscription was engaged and then
    /// rejected by a later filter layer.
    pub discarded: u64,
    /// Callbacks that actually ran (inline or on a dispatch worker).
    pub cb_executed: u64,
    /// Results shed on a full dispatch ring ([`crate::QueuePolicy::Shed`]).
    pub cb_dropped_full: u64,
    /// Results lost to a disconnected dispatch worker.
    pub cb_dropped_disconnected: u64,
    /// Dispatch-ring depth high-water mark over the run.
    pub queue_depth_peak: u64,
    /// Total dispatch-ring capacity (0 = inline execution).
    pub queue_capacity: u64,
}

/// One row of a run's table: a subscription name (read off the
/// subscription that first installed it), its dispatch counters for the
/// whole run, and the slot it holds in the running table.
struct Row {
    sub: Arc<dyn ErasedSubscription>,
    dispatch: DispatchRow,
    /// `None`: a swap retired the row (it may re-enter later).
    slot: Option<usize>,
}

/// A run's row table: one row per subscription name installed during the
/// run (see the module docs).
#[derive(Default)]
pub(crate) struct Rows(Vec<Row>);

impl Rows {
    /// Installs a table, matched by name: a name already in the run keeps
    /// its row, a new one gets a row appended, with the counters of all
    /// rows it adds in one fresh block. A row entering the table — new,
    /// or re-added after a swap retired it — takes its rings' capacity; a
    /// survivor's counters stay as they are; rows the table lacks retire.
    pub(crate) fn install(
        &mut self,
        subs: &[Arc<dyn ErasedSubscription>],
        modes: &[DispatchMode],
        cores: usize,
    ) {
        for row in &mut self.0 {
            if !subs.iter().any(|s| s.name() == row.sub.name()) {
                row.slot = None;
            }
        }
        let added = subs
            .iter()
            .filter(|s| self.find(s.name()).is_none())
            .count();
        let mut fresh = DispatchRow::block(added);
        self.0.reserve_exact(added);
        for (j, (sub, &mode)) in subs.iter().zip(modes).enumerate() {
            let r = match self.find(sub.name()) {
                Some(r) => r,
                None => {
                    self.0.push(Row {
                        sub: Arc::clone(sub),
                        dispatch: fresh.next().expect("one block entry per new name"),
                        slot: None,
                    });
                    self.0.len() - 1
                }
            };
            let row = &mut self.0[r];
            if row.slot.is_none() {
                row.dispatch
                    .set_capacity(ring_capacity(&**sub, mode, cores));
            }
            row.slot = Some(j);
        }
    }

    /// The row named `name`.
    fn find(&self, name: &str) -> Option<usize> {
        self.0.iter().position(|r| r.sub.name() == name)
    }

    /// The running table's rows, in slot order: its slot → row map.
    pub(crate) fn live(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        let slots = self.0.iter().filter(|r| r.slot.is_some()).count();
        let row = move |j| self.0.iter().position(|r| r.slot == Some(j));
        (0..slots).map(move |j| row(j).expect("a table's slots are 0..len"))
    }

    /// Row `row`'s dispatch counters.
    pub(crate) fn dispatch(&self, row: usize) -> &DispatchRow {
        &self.0[row].dispatch
    }

    /// The run's per-subscription outcomes, read straight off the rows:
    /// the running table's, in slot order, then the rows a swap retired,
    /// sorted by name. `counts` are every core's tallies summed by row.
    pub(crate) fn reports(&self, counts: &[SubTally]) -> Vec<SubReport> {
        let report = |r: usize| {
            let (row, t) = (&self.0[r], counts.get(r).copied().unwrap_or_default());
            let d = row.dispatch.snapshot();
            SubReport {
                name: row.sub.name().to_string(),
                delivered: t.delivered,
                discarded: t.discarded,
                cb_executed: d.executed,
                cb_dropped_full: d.dropped_full,
                cb_dropped_disconnected: d.dropped_disconnected,
                queue_depth_peak: d.depth_peak,
                queue_capacity: d.capacity,
            }
        };
        let mut subs = Vec::with_capacity(self.0.len());
        subs.extend(self.live().map(report));
        let live = subs.len();
        let retired = (0..self.0.len()).filter(|&r| self.0[r].slot.is_none());
        subs.extend(retired.map(report));
        subs[live..].sort_unstable_by(|a, b| a.name.cmp(&b.name));
        subs
    }
}

/// Result of a completed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Wall-clock processing time.
    pub elapsed: Duration,
    /// NIC counters (offered/delivered/dropped/lost).
    pub nic: PortStatsSnapshot,
    /// Merged per-core pipeline statistics.
    pub cores: CoreStats,
    /// Per-subscription delivery/discard outcomes, one per name the run
    /// installed: the final table in registration order, then the names a
    /// swap removed, sorted.
    pub subs: Vec<SubReport>,
    /// Simulated time span covered by the traffic (ns).
    pub sim_duration_ns: u64,
    /// Peak mempool occupancy over the run (buffers).
    pub mbuf_high_water: usize,
    /// Connection-arena bytes summed across this run's cores: the peak
    /// backing-store footprint of the per-core connection tables (arena
    /// slots plus shard index; capacity only grows, so the end of the
    /// run is its peak). Excluded from
    /// [`RunReport::deterministic_digest`] — allocation capacity depends
    /// on growth timing, not on what was delivered.
    pub conn_arena_bytes: usize,
    /// Filter-analyzer warnings recorded at build time (W-code summaries
    /// from [`retina_filter::analyze_union`]): dead disjuncts, lost
    /// hardware offload, redundant predicates. Empty when the filters are
    /// clean or the runtime was built without [`crate::RuntimeBuilder`].
    pub filter_warnings: Vec<String>,
    /// Per-flow trace artifact: the sampled span-tree session plus any
    /// frozen flight-recorder dump. `None` unless tracing was enabled
    /// via [`crate::RuntimeBuilder::trace`] /
    /// [`crate::MultiRuntime::set_trace_config`]. Excluded from
    /// [`RunReport::deterministic_digest`] (it has its own
    /// mode-independent form,
    /// [`retina_telemetry::FlowTrace::canonical_bytes`]).
    pub trace: Option<TraceReport>,
}

impl RunReport {
    /// Delivered throughput in Gbps over wall-clock time.
    pub fn gbps(&self) -> f64 {
        (self.nic.rx_bytes as f64 * 8.0) / self.elapsed.as_secs_f64() / 1e9
    }

    /// Offered load in Gbps over wall-clock time (counting hardware drops
    /// and sink-sampled traffic as offered).
    pub fn offered_gbps(&self) -> f64 {
        // Approximate offered bytes by scaling delivered bytes by the
        // offered/delivered packet ratio.
        if self.nic.rx_delivered == 0 {
            return 0.0;
        }
        let scale = self.nic.rx_offered as f64 / self.nic.rx_delivered as f64;
        self.gbps() * scale
    }

    /// True when no packets were lost to ring overflow or mempool
    /// exhaustion — the paper's zero-loss criterion.
    pub fn zero_loss(&self) -> bool {
        self.nic.lost() == 0
    }

    /// Total data items delivered across all subscriptions.
    pub fn delivered(&self) -> u64 {
        self.subs.iter().map(|s| s.delivered).sum()
    }

    /// The run's complete drop taxonomy: the NIC's packet-subject
    /// reasons plus the pipeline's parse failures and connection-subject
    /// reasons, each attributed exactly once.
    pub fn drop_breakdown(&self) -> DropBreakdown {
        let mut drops = self.nic.drop_breakdown();
        drops.add(DropReason::ParseFailure, self.cores.parse_failures);
        drops.add(
            DropReason::ConnFilterDiscard,
            self.cores.discard_conn_filter,
        );
        drops.add(
            DropReason::SessionFilterDiscard,
            self.cores.discard_session_filter,
        );
        drops.add(DropReason::TimeoutExpiry, self.cores.conns_expired);
        drops
    }

    /// Pipeline stages in processing order, as `(name, summary)` pairs.
    pub fn stages(&self) -> Vec<(String, StageSummary)> {
        let c = &self.cores;
        [
            ("packet_filter", c.packet_filter),
            ("conn_tracking", c.conn_tracking),
            ("reassembly", c.reassembly),
            ("app_parsing", c.app_parsing),
            ("session_filter", c.session_filter),
            ("callbacks", c.callbacks),
        ]
        .into_iter()
        .map(|(name, stage)| (name.to_string(), stage))
        .collect()
    }

    /// The full telemetry view of the run: named counters, gauges,
    /// per-stage cycle distributions, and the drop-reason breakdown —
    /// ready for any [`retina_telemetry::MetricSink`] exporter.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut counters = vec![
            (
                "core.conns_completed_early".to_string(),
                self.cores.conns_completed_early,
            ),
            ("core.conns_created".to_string(), self.cores.conns_created),
            (
                "core.conns_discarded".to_string(),
                self.cores.conns_discarded,
            ),
            ("core.conns_drained".to_string(), self.cores.conns_drained),
            ("core.conns_expired".to_string(), self.cores.conns_expired),
            ("core.conns_swapped".to_string(), self.cores.conns_swapped),
            (
                "core.conns_terminated".to_string(),
                self.cores.conns_terminated,
            ),
            (
                "core.discard_conn_filter".to_string(),
                self.cores.discard_conn_filter,
            ),
            (
                "core.discard_session_filter".to_string(),
                self.cores.discard_session_filter,
            ),
            ("core.ooo_buffered".to_string(), self.cores.ooo_buffered),
            ("core.parse_failures".to_string(), self.cores.parse_failures),
            ("core.parser_panics".to_string(), self.cores.parser_panics),
            ("core.rx_bytes".to_string(), self.cores.rx_bytes),
            ("core.rx_packets".to_string(), self.cores.rx_packets),
            ("nic.hw_dropped".to_string(), self.nic.hw_dropped),
            ("nic.rx_bytes".to_string(), self.nic.rx_bytes),
            ("nic.rx_delivered".to_string(), self.nic.rx_delivered),
            ("nic.rx_missed".to_string(), self.nic.rx_missed),
            ("nic.rx_nombuf".to_string(), self.nic.rx_nombuf),
            ("nic.rx_offered".to_string(), self.nic.rx_offered),
            ("nic.sunk".to_string(), self.nic.sunk),
        ];
        for sub in &self.subs {
            counters.push((format!("sub.{}.delivered", sub.name), sub.delivered));
            counters.push((format!("sub.{}.discarded", sub.name), sub.discarded));
            counters.push((format!("sub.{}.cb_executed", sub.name), sub.cb_executed));
            counters.push((
                format!("sub.{}.cb_dropped_full", sub.name),
                sub.cb_dropped_full,
            ));
            counters.push((
                format!("sub.{}.cb_dropped_disconnected", sub.name),
                sub.cb_dropped_disconnected,
            ));
            counters.push((
                format!("sub.{}.queue_depth_peak", sub.name),
                sub.queue_depth_peak,
            ));
        }
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let gauges = vec![
            ("conn_arena_bytes".to_string(), self.conn_arena_bytes as u64),
            ("conns_peak".to_string(), self.cores.conns_peak),
            ("mbuf_high_water".to_string(), self.mbuf_high_water as u64),
            ("sim_duration_ns".to_string(), self.sim_duration_ns),
        ];
        TelemetrySnapshot {
            counters,
            gauges,
            stages: self.stages(),
            drops: self.drop_breakdown(),
        }
    }

    /// A schedule-independent fingerprint of the run, for replay tests:
    /// two runs of the same seeded workload (paced ingest, static sink
    /// fraction) must produce identical digests bit for bit.
    ///
    /// Includes every NIC counter, every deterministic core counter, and
    /// every per-subscription tally. Excludes wall-clock time and cycle
    /// measurements (machine- and schedule-dependent), and merges
    /// `conns_expired + conns_drained` into one `conns_retired` line —
    /// whether an idle connection is expired by the last maintenance
    /// tick or drained at shutdown depends on poll scheduling, but their
    /// sum does not.
    pub fn deterministic_digest(&self) -> String {
        let lines = [
            ("nic.rx_offered", self.nic.rx_offered),
            ("nic.rx_delivered", self.nic.rx_delivered),
            ("nic.rx_bytes", self.nic.rx_bytes),
            ("nic.hw_dropped", self.nic.hw_dropped),
            ("nic.sunk", self.nic.sunk),
            ("nic.rx_missed", self.nic.rx_missed),
            ("nic.rx_nombuf", self.nic.rx_nombuf),
            ("core.rx_packets", self.cores.rx_packets),
            ("core.rx_bytes", self.cores.rx_bytes),
            ("core.parse_failures", self.cores.parse_failures),
            ("core.parser_panics", self.cores.parser_panics),
            ("core.packet_filter.runs", self.cores.packet_filter.runs),
            ("core.conn_tracking.runs", self.cores.conn_tracking.runs),
            ("core.reassembly.runs", self.cores.reassembly.runs),
            ("core.app_parsing.runs", self.cores.app_parsing.runs),
            ("core.session_filter.runs", self.cores.session_filter.runs),
            ("core.callbacks.runs", self.cores.callbacks.runs),
            ("core.conns_created", self.cores.conns_created),
            ("core.conns_discarded", self.cores.conns_discarded),
            ("core.discard_conn_filter", self.cores.discard_conn_filter),
            (
                "core.discard_session_filter",
                self.cores.discard_session_filter,
            ),
            (
                "core.conns_completed_early",
                self.cores.conns_completed_early,
            ),
            ("core.conns_terminated", self.cores.conns_terminated),
            (
                "core.conns_retired",
                self.cores.conns_expired + self.cores.conns_drained,
            ),
            ("core.conns_swapped", self.cores.conns_swapped),
            ("core.ooo_buffered", self.cores.ooo_buffered),
        ];
        let mut out = String::new();
        for (name, value) in lines {
            out.push_str(name);
            out.push('=');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        for (i, sub) in self.subs.iter().enumerate() {
            out.push_str(&format!(
                "sub.{i}.delivered={}\nsub.{i}.discarded={}\n",
                sub.delivered, sub.discarded
            ));
        }
        out
    }

    /// Per-subscription digest, keyed by name instead of index: the
    /// delivery counts for subscription `name`, or `None` if the run
    /// had no such subscription. Runs with different subscription
    /// orders (e.g. a swap run vs. a no-swap control) compare
    /// untouched subscriptions with this.
    pub fn sub_digest(&self, name: &str) -> Option<String> {
        let sub = self.subs.iter().find(|s| s.name == name)?;
        Some(format!(
            "delivered={}\ndiscarded={}\n",
            sub.delivered, sub.discarded
        ))
    }

    /// Verifies the run's accounting invariants: every ingress frame and
    /// every created connection is attributed to exactly one outcome.
    /// Returns the first violated invariant on failure.
    pub fn check_accounting(&self) -> Result<(), String> {
        if !self.nic.fully_attributed() {
            return Err(format!(
                "nic: rx_offered ({}) != delivered ({}) + sunk ({}) + hw_dropped ({}) + \
                 missed ({}) + nombuf ({})",
                self.nic.rx_offered,
                self.nic.rx_delivered,
                self.nic.sunk,
                self.nic.hw_dropped,
                self.nic.rx_missed,
                self.nic.rx_nombuf,
            ));
        }
        if self.cores.rx_packets != self.nic.rx_delivered {
            return Err(format!(
                "cores.rx_packets ({}) != nic.rx_delivered ({})",
                self.cores.rx_packets, self.nic.rx_delivered,
            ));
        }
        if self.cores.rx_packets != self.cores.parse_failures + self.cores.packet_filter.runs {
            return Err(format!(
                "cores.rx_packets ({}) != parse_failures ({}) + packet_filter.runs ({})",
                self.cores.rx_packets, self.cores.parse_failures, self.cores.packet_filter.runs,
            ));
        }
        // Dispatch accounting: every handoff to the delivery layer is
        // attributed to exactly one outcome — executed, shed on a full
        // ring, or lost to a dead worker. Holds for inline subs too
        // (delivered == executed, drops zero).
        for sub in &self.subs {
            let attributed = sub.cb_executed + sub.cb_dropped_full + sub.cb_dropped_disconnected;
            if sub.delivered != attributed {
                return Err(format!(
                    "sub {}: delivered ({}) != cb_executed ({}) + cb_dropped_full ({}) + \
                     cb_dropped_disconnected ({})",
                    sub.name,
                    sub.delivered,
                    sub.cb_executed,
                    sub.cb_dropped_full,
                    sub.cb_dropped_disconnected,
                ));
            }
        }
        self.cores.check_conn_accounting()
    }

    /// Attaches the trace artifact of a traced run, after a failed
    /// accounting check has fired its flight-recorder trigger.
    pub(crate) fn attach_trace(&mut self, tracer: Option<&Tracer>) {
        if let Some(t) = tracer {
            if self.check_accounting().is_err() {
                t.trigger(TriggerReason::AccountingFailure, 0);
            }
            self.trace = Some(t.report());
        }
    }
}
