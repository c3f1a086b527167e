//! Pluggable exporters: monitoring samples and final snapshots rendered
//! as human log lines, CSV time series, JSON, or Prometheus text.
//!
//! A [`MetricSink`] receives each periodic [`Sample`] from the monitor
//! and, at run end, the final [`TelemetrySnapshot`]. The trait is
//! object-safe so a monitor can drive a heterogeneous `Vec<Box<dyn
//! MetricSink>>` — a log line for the operator, a CSV for the results/
//! scripts, and a JSON snapshot for machines, all from one sampling
//! loop.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use crate::snapshot::TelemetrySnapshot;

/// One periodic monitoring sample (§5.3's feedback loop), flattened to
/// exporter-friendly scalar fields.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sample {
    /// Wall-clock seconds since monitoring started.
    pub elapsed_secs: f64,
    /// Seconds since the previous sample (for rate normalization).
    pub interval_secs: f64,
    /// Delivered throughput since the previous sample (Gbps).
    pub gbps: f64,
    /// Packets lost (ring overflow + mempool exhaustion) since the
    /// previous sample.
    pub lost: u64,
    /// Packets dropped by hardware rules since the previous sample.
    pub hw_dropped: u64,
    /// Cumulative L2–L4 parse failures across all cores.
    pub parse_failures: u64,
    /// Connections currently tracked across all cores.
    pub connections: u64,
    /// Estimated connection-state bytes across all cores.
    pub state_bytes: u64,
    /// Packet buffers currently held in the mempool.
    pub mbufs_in_use: u64,
    /// Peak mempool occupancy observed so far.
    pub mbuf_high_water: u64,
    /// Simulation clock high-water mark (ns).
    pub sim_clock_ns: u64,
    /// Items currently queued across every callback-dispatch ring
    /// (0 when every subscription runs inline).
    pub dispatch_depth: u64,
    /// Connection-arena high-water bytes summed across cores (peak
    /// backing-store footprint of the connection tables; monotonic over
    /// a run).
    pub conn_arena_bytes: u64,
    /// Generation of the configuration epoch the runtime is executing
    /// (0 for the boot configuration; bumped by every live swap).
    pub config_epoch: u64,
    /// Worst per-core pickup lag of the most recent live swap
    /// (microseconds between epoch publication and the last core's
    /// acknowledgement; 0 when no swap has happened).
    pub swap_pickup_lag_us: u64,
}

impl Sample {
    /// CSV header, in [`Sample::to_csv_row`] column order.
    ///
    /// The column order is a de-facto API for downstream scripts —
    /// append new columns at the end, never reorder.
    pub const CSV_HEADER: &'static str = "elapsed_secs,gbps,lost,lost_per_sec,hw_dropped,\
hw_dropped_per_sec,parse_failures,connections,state_bytes,mbufs_in_use,mbuf_high_water,\
sim_clock_ns,dispatch_depth,conn_arena_bytes,config_epoch,swap_pickup_lag_us";

    /// Loss rate over the sample interval (packets/second).
    pub fn lost_per_sec(&self) -> f64 {
        self.lost as f64 / self.interval_secs.max(1e-9)
    }

    /// Hardware-drop rate over the sample interval (packets/second).
    pub fn hw_dropped_per_sec(&self) -> f64 {
        self.hw_dropped as f64 / self.interval_secs.max(1e-9)
    }

    /// One CSV row matching [`Sample::CSV_HEADER`].
    pub fn to_csv_row(&self) -> String {
        format!(
            "{:.3},{:.4},{},{:.2},{},{:.2},{},{},{},{},{},{},{},{},{},{}",
            self.elapsed_secs,
            self.gbps,
            self.lost,
            self.lost_per_sec(),
            self.hw_dropped,
            self.hw_dropped_per_sec(),
            self.parse_failures,
            self.connections,
            self.state_bytes,
            self.mbufs_in_use,
            self.mbuf_high_water,
            self.sim_clock_ns,
            self.dispatch_depth,
            self.conn_arena_bytes,
            self.config_epoch,
            self.swap_pickup_lag_us,
        )
    }

    /// One human-readable log line with interval-normalized drop rates.
    pub fn to_log_line(&self) -> String {
        format!(
            "[{:>8.1}s] {:>7.2} Gbps | lost {:>6} ({:.1}/s) | hw-drop {:>8} ({:.1}/s) | \
             parse-fail {:>6} | conns {:>8} ({} KB) | mbufs {:>7} (peak {})",
            self.elapsed_secs,
            self.gbps,
            self.lost,
            self.lost_per_sec(),
            self.hw_dropped,
            self.hw_dropped_per_sec(),
            self.parse_failures,
            self.connections,
            self.state_bytes / 1024,
            self.mbufs_in_use,
            self.mbuf_high_water,
        )
    }

    /// One JSON object (used by the JSON exporter's samples array).
    pub fn to_json_object(&self) -> String {
        format!(
            "{{\"elapsed_secs\": {:.3}, \"gbps\": {:.4}, \"lost\": {}, \"hw_dropped\": {}, \
             \"parse_failures\": {}, \"connections\": {}, \"state_bytes\": {}, \
             \"mbufs_in_use\": {}, \"mbuf_high_water\": {}, \"sim_clock_ns\": {}, \
             \"dispatch_depth\": {}, \"conn_arena_bytes\": {}, \"config_epoch\": {}, \
             \"swap_pickup_lag_us\": {}}}",
            self.elapsed_secs,
            self.gbps,
            self.lost,
            self.hw_dropped,
            self.parse_failures,
            self.connections,
            self.state_bytes,
            self.mbufs_in_use,
            self.mbuf_high_water,
            self.sim_clock_ns,
            self.dispatch_depth,
            self.conn_arena_bytes,
            self.config_epoch,
            self.swap_pickup_lag_us,
        )
    }
}

/// An object-safe consumer of monitoring samples and final snapshots.
pub trait MetricSink: Send {
    /// Called on every periodic sample.
    fn on_sample(&mut self, sample: &Sample);

    /// Called once with the final merged snapshot of the run (if the
    /// driver has one).
    fn on_snapshot(&mut self, snapshot: &TelemetrySnapshot) {
        let _ = snapshot;
    }

    /// Called when the driver shuts down; flush buffered output here.
    fn close(&mut self) {}
}

// The trait must stay object-safe: a run's monitor drives Vec<Box<dyn MetricSink>>.
const _: fn(&dyn MetricSink) = |_| {};

/// A cloneable in-memory writer for capturing sink output (tests, or
/// collecting an export without touching the filesystem).
#[derive(Debug, Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        SharedBuf::default()
    }

    /// Everything written so far, as UTF-8.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Human log lines, as a sink.
pub struct LogSink {
    out: Box<dyn Write + Send>,
}

impl LogSink {
    /// Logs to an arbitrary writer.
    pub fn new(out: impl Write + Send + 'static) -> Self {
        LogSink { out: Box::new(out) }
    }

    /// Logs to standard error.
    pub fn stderr() -> Self {
        LogSink::new(io::stderr())
    }
}

impl MetricSink for LogSink {
    fn on_sample(&mut self, sample: &Sample) {
        let _ = writeln!(self.out, "{}", sample.to_log_line());
    }

    fn on_snapshot(&mut self, snapshot: &TelemetrySnapshot) {
        let _ = writeln!(self.out, "final drop breakdown:");
        for (reason, n) in snapshot.drops.iter() {
            let _ = writeln!(self.out, "  {:<24} {n}", reason.label());
        }
        for (name, summary) in &snapshot.stages {
            let _ = writeln!(
                self.out,
                "  stage {:<18} runs {:>10}  avg {:>10.1}  p50 {:>8}  p95 {:>8}  p99 {:>8}",
                name,
                summary.runs,
                summary.avg_cycles(),
                summary.p50(),
                summary.p95(),
                summary.p99(),
            );
        }
    }

    fn close(&mut self) {
        let _ = self.out.flush();
    }
}

/// CSV time series of samples, one row per sample.
pub struct CsvSink {
    out: Box<dyn Write + Send>,
    header_written: bool,
}

impl CsvSink {
    /// Writes CSV to the given writer; the header goes out with the
    /// first sample.
    pub fn new(out: impl Write + Send + 'static) -> Self {
        CsvSink {
            out: Box::new(out),
            header_written: false,
        }
    }
}

impl MetricSink for CsvSink {
    fn on_sample(&mut self, sample: &Sample) {
        if !self.header_written {
            self.header_written = true;
            let _ = writeln!(self.out, "{}", Sample::CSV_HEADER);
        }
        let _ = writeln!(self.out, "{}", sample.to_csv_row());
    }

    fn close(&mut self) {
        let _ = self.out.flush();
    }
}

/// JSON exporter: buffers samples and writes one document at close —
/// `{"samples": [...], "final": {...}}`.
pub struct JsonSink {
    out: Box<dyn Write + Send>,
    samples: Vec<Sample>,
    final_snapshot: Option<String>,
    written: bool,
}

impl JsonSink {
    /// Buffers into the given writer.
    pub fn new(out: impl Write + Send + 'static) -> Self {
        JsonSink {
            out: Box::new(out),
            samples: Vec::new(),
            final_snapshot: None,
            written: false,
        }
    }
}

impl MetricSink for JsonSink {
    fn on_sample(&mut self, sample: &Sample) {
        self.samples.push(*sample);
    }

    fn on_snapshot(&mut self, snapshot: &TelemetrySnapshot) {
        self.final_snapshot = Some(snapshot.to_json());
    }

    fn close(&mut self) {
        if self.written {
            return;
        }
        self.written = true;
        let _ = write!(self.out, "{{\"samples\": [");
        for (i, s) in self.samples.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(self.out, "{sep}{}", s.to_json_object());
        }
        let _ = write!(self.out, "], \"final\": ");
        match &self.final_snapshot {
            Some(doc) => {
                let _ = write!(self.out, "{doc}");
            }
            None => {
                let _ = write!(self.out, "null");
            }
        }
        let _ = writeln!(self.out, "}}");
        let _ = self.out.flush();
    }
}

impl Drop for JsonSink {
    fn drop(&mut self) {
        self.close();
    }
}

/// Prometheus text exposition of the final snapshot (samples are
/// ignored: Prometheus scrapes state, it does not ingest series).
pub struct PrometheusSink {
    out: Box<dyn Write + Send>,
}

impl PrometheusSink {
    /// Writes the exposition to the given writer at snapshot time.
    pub fn new(out: impl Write + Send + 'static) -> Self {
        PrometheusSink { out: Box::new(out) }
    }
}

impl MetricSink for PrometheusSink {
    fn on_sample(&mut self, _sample: &Sample) {}

    fn on_snapshot(&mut self, snapshot: &TelemetrySnapshot) {
        let _ = write!(self.out, "{}", snapshot.to_prometheus());
    }

    fn close(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drops::{DropBreakdown, DropReason};

    fn sample(elapsed: f64) -> Sample {
        Sample {
            elapsed_secs: elapsed,
            interval_secs: 0.5,
            gbps: 42.5,
            lost: 6,
            hw_dropped: 100,
            parse_failures: 3,
            connections: 1234,
            state_bytes: 64 * 1024,
            mbufs_in_use: 77,
            mbuf_high_water: 123,
            sim_clock_ns: 1,
            dispatch_depth: 9,
            conn_arena_bytes: 4096,
            config_epoch: 2,
            swap_pickup_lag_us: 350,
        }
    }

    fn snapshot() -> TelemetrySnapshot {
        let mut drops = DropBreakdown::new();
        drops.add(DropReason::HwRule, 100);
        TelemetrySnapshot {
            counters: vec![("core.rx_packets".into(), 7)],
            gauges: vec![],
            stages: vec![],
            drops,
        }
    }

    #[test]
    fn csv_header_is_stable() {
        // Column order is a de-facto API for the results/ scripts: this
        // exact string is the regression surface. Append, never reorder.
        assert_eq!(
            Sample::CSV_HEADER,
            "elapsed_secs,gbps,lost,lost_per_sec,hw_dropped,hw_dropped_per_sec,\
             parse_failures,connections,state_bytes,mbufs_in_use,mbuf_high_water,sim_clock_ns,\
             dispatch_depth,conn_arena_bytes,config_epoch,swap_pickup_lag_us"
                .replace(" ", "")
        );
        // Append-only audit: every pre-reconfiguration column keeps its
        // position; the epoch columns only ever extend the row.
        let cols: Vec<&str> = Sample::CSV_HEADER.split(',').collect();
        assert_eq!(cols[13], "conn_arena_bytes");
        assert_eq!(cols[14], "config_epoch");
        assert_eq!(cols[15], "swap_pickup_lag_us");
    }

    #[test]
    fn csv_sink_writes_header_once_and_matching_rows() {
        let buf = SharedBuf::new();
        let mut sink = CsvSink::new(buf.clone());
        sink.on_sample(&sample(0.5));
        sink.on_sample(&sample(1.0));
        sink.close();
        let out = buf.contents();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], Sample::CSV_HEADER);
        let n_cols = Sample::CSV_HEADER.split(',').count();
        for row in &lines[1..] {
            let cols: Vec<&str> = row.split(',').collect();
            assert_eq!(cols.len(), n_cols, "{row}");
            for c in cols {
                assert!(c.parse::<f64>().is_ok(), "non-numeric cell {c}");
            }
        }
        // lost_per_sec = 6 / 0.5.
        assert!(lines[1].contains(",12.00,"), "{}", lines[1]);
    }

    #[test]
    fn log_sink_lines_and_rates() {
        let buf = SharedBuf::new();
        let mut sink = LogSink::new(buf.clone());
        sink.on_sample(&sample(5.0));
        sink.on_snapshot(&snapshot());
        sink.close();
        let out = buf.contents();
        assert!(out.contains("42.50 Gbps"), "{out}");
        assert!(out.contains("(12.0/s)"), "{out}"); // 6 lost / 0.5 s
        assert!(out.contains("(200.0/s)"), "{out}"); // 100 hw / 0.5 s
        assert!(out.contains("parse-fail"), "{out}");
        assert!(out.contains("peak 123"), "{out}");
        assert!(out.contains("hw_rule"), "{out}");
    }

    #[test]
    fn json_sink_round_trips() {
        let buf = SharedBuf::new();
        let mut sink = JsonSink::new(buf.clone());
        sink.on_sample(&sample(0.5));
        sink.on_snapshot(&snapshot());
        sink.close();
        let doc = crate::json::parse(&buf.contents()).expect("valid JSON");
        let samples = doc.get("samples").unwrap().as_arr().unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].get("lost").unwrap().as_u64(), Some(6));
        assert_eq!(samples[0].get("dispatch_depth").unwrap().as_u64(), Some(9));
        assert_eq!(
            samples[0].get("conn_arena_bytes").unwrap().as_u64(),
            Some(4096)
        );
        assert_eq!(samples[0].get("config_epoch").unwrap().as_u64(), Some(2));
        assert_eq!(
            samples[0].get("swap_pickup_lag_us").unwrap().as_u64(),
            Some(350)
        );
        let final_ = doc.get("final").unwrap();
        assert_eq!(
            final_
                .get("counters")
                .unwrap()
                .get("core.rx_packets")
                .unwrap()
                .as_u64(),
            Some(7)
        );
        assert_eq!(
            final_
                .get("drops")
                .unwrap()
                .get("hw_rule")
                .unwrap()
                .as_u64(),
            Some(100)
        );
    }

    #[test]
    fn json_sink_without_snapshot_is_still_valid() {
        let buf = SharedBuf::new();
        let mut sink = JsonSink::new(buf.clone());
        sink.on_sample(&sample(0.5));
        sink.close();
        let doc = crate::json::parse(&buf.contents()).expect("valid JSON");
        assert_eq!(doc.get("final"), Some(&crate::json::Json::Null));
    }

    #[test]
    fn prometheus_sink_renders_snapshot() {
        let buf = SharedBuf::new();
        let mut sink = PrometheusSink::new(buf.clone());
        sink.on_sample(&sample(0.5)); // ignored
        sink.on_snapshot(&snapshot());
        sink.close();
        let out = buf.contents();
        assert!(out.contains("retina_core_rx_packets 7"));
        assert!(out.contains("retina_drop_total{reason=\"hw_rule\"} 100"));
    }

    #[test]
    fn sinks_are_object_safe_and_drivable_together() {
        let log = SharedBuf::new();
        let csv = SharedBuf::new();
        let mut sinks: Vec<Box<dyn MetricSink>> = vec![
            Box::new(LogSink::new(log.clone())),
            Box::new(CsvSink::new(csv.clone())),
        ];
        for s in &mut sinks {
            s.on_sample(&sample(1.0));
            s.close();
        }
        assert!(log.contents().contains("Gbps"));
        assert!(csv.contents().starts_with(Sample::CSV_HEADER));
    }
}
