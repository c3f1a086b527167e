//! The final merged telemetry view of a run.

use crate::drops::DropBreakdown;
use crate::histogram::LogHistogram;
use crate::json;

/// Counters for one pipeline stage: what a core records into while it
/// runs, and, merged across cores, what a report summarizes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSummary {
    /// Times the stage ran.
    pub runs: u64,
    /// Total cycles spent (when profiling was on).
    pub cycles: u64,
    /// Cycle distribution (when profiling was on).
    pub hist: LogHistogram,
}

impl StageSummary {
    /// Records one profiled run of `cycles` cycles: bumps the total and
    /// the distribution together. (`runs` is counted separately because
    /// stages run even when profiling is off.)
    #[inline]
    pub fn record_cycles(&mut self, cycles: u64) {
        self.cycles += cycles;
        self.hist.record(cycles);
    }

    /// Merges another core's counters for the same stage into this one.
    pub fn merge(&mut self, other: &StageSummary) {
        self.runs += other.runs;
        self.cycles += other.cycles;
        self.hist.merge(&other.hist);
    }

    /// Mean cycles per run.
    pub fn avg_cycles(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.cycles as f64 / self.runs as f64
        }
    }

    /// Median cycles (histogram upper bound).
    pub fn p50(&self) -> u64 {
        self.hist.p50()
    }

    /// 95th percentile cycles.
    pub fn p95(&self) -> u64 {
        self.hist.p95()
    }

    /// 99th percentile cycles.
    pub fn p99(&self) -> u64 {
        self.hist.p99()
    }
}

/// A merged, point-in-time view of every telemetry source: named
/// counters and gauges, per-stage cycle distributions, and the
/// drop-reason breakdown. This is what the exporters render and what
/// `RunReport::telemetry()` returns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Pipeline stages in pipeline order.
    pub stages: Vec<(String, StageSummary)>,
    /// Why packets and connections left the pipeline.
    pub drops: DropBreakdown,
}

impl TelemetrySnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a stage by name.
    pub fn stage(&self, name: &str) -> Option<&StageSummary> {
        self.stages.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Renders the snapshot as one JSON document:
    ///
    /// ```json
    /// {
    ///   "counters": {"name": 1, ...},
    ///   "gauges": {"name": 2, ...},
    ///   "stages": {"name": {"runs":1,"cycles":9,"avg":9.0,
    ///                        "p50":15,"p95":15,"p99":15}, ...},
    ///   "drops": {"hw_rule": 0, ...}
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}: {v}", json::escape(name));
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}: {v}", json::escape(name));
        }
        out.push_str("},\n  \"stages\": {");
        for (i, (name, s)) in self.stages.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"runs\": {}, \"cycles\": {}, \"avg\": {:.1}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                json::escape(name),
                s.runs,
                s.cycles,
                s.avg_cycles(),
                s.p50(),
                s.p95(),
                s.p99(),
            );
        }
        out.push_str("},\n  \"drops\": {");
        for (i, (reason, n)) in self.drops.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}: {n}", json::escape(reason.label()));
        }
        out.push_str("}\n}");
        out
    }

    /// Renders the snapshot as Prometheus text exposition.
    ///
    /// Metric names sanitize `.` to `_` and carry a `retina_` prefix;
    /// stage distributions become summary-style quantile series.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        fn sanitize(name: &str) -> String {
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE retina_{n} counter");
            let _ = writeln!(out, "retina_{n} {v}");
        }
        for (name, v) in &self.gauges {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE retina_{n} gauge");
            let _ = writeln!(out, "retina_{n} {v}");
        }
        if !self.stages.is_empty() {
            let _ = writeln!(out, "# TYPE retina_stage_runs_total counter");
            for (name, s) in &self.stages {
                let _ = writeln!(
                    out,
                    "retina_stage_runs_total{{stage=\"{}\"}} {}",
                    sanitize(name),
                    s.runs
                );
            }
            let _ = writeln!(out, "# TYPE retina_stage_cycles summary");
            for (name, s) in &self.stages {
                let stage = sanitize(name);
                for (q, v) in [(0.5, s.p50()), (0.95, s.p95()), (0.99, s.p99())] {
                    let _ = writeln!(
                        out,
                        "retina_stage_cycles{{stage=\"{stage}\",quantile=\"{q}\"}} {v}"
                    );
                }
                let _ = writeln!(
                    out,
                    "retina_stage_cycles_sum{{stage=\"{stage}\"}} {}",
                    s.cycles
                );
                let _ = writeln!(
                    out,
                    "retina_stage_cycles_count{{stage=\"{stage}\"}} {}",
                    s.runs
                );
            }
        }
        let _ = writeln!(out, "# TYPE retina_drop_total counter");
        for (reason, n) in self.drops.iter() {
            let _ = writeln!(
                out,
                "retina_drop_total{{reason=\"{}\"}} {n}",
                reason.label()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drops::DropReason;
    use crate::json;

    fn sample_snapshot() -> TelemetrySnapshot {
        let mut hist = LogHistogram::new();
        hist.record_n(10, 9);
        hist.record(1000);
        let mut drops = DropBreakdown::new();
        drops.add(DropReason::HwRule, 3);
        drops.add(DropReason::ConnFilterDiscard, 2);
        TelemetrySnapshot {
            counters: vec![("core.rx_packets".into(), 100)],
            gauges: vec![("mbuf_high_water".into(), 8)],
            stages: vec![(
                "packet_filter".into(),
                StageSummary {
                    runs: 10,
                    cycles: 1090,
                    hist,
                },
            )],
            drops,
        }
    }

    #[test]
    fn json_parses_and_preserves_values() {
        let snap = sample_snapshot();
        let doc = snap.to_json();
        let v = json::parse(&doc).expect("snapshot JSON must parse");
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("core.rx_packets")
                .unwrap()
                .as_u64(),
            Some(100)
        );
        assert_eq!(
            v.get("gauges")
                .unwrap()
                .get("mbuf_high_water")
                .unwrap()
                .as_u64(),
            Some(8)
        );
        let stage = v.get("stages").unwrap().get("packet_filter").unwrap();
        assert_eq!(stage.get("runs").unwrap().as_u64(), Some(10));
        assert_eq!(
            stage.get("p50").unwrap().as_u64(),
            Some(snap.stages[0].1.p50())
        );
        assert_eq!(
            v.get("drops").unwrap().get("hw_rule").unwrap().as_u64(),
            Some(3)
        );
        // Every reason appears, including zeros.
        for reason in DropReason::ALL {
            assert!(v.get("drops").unwrap().get(reason.label()).is_some());
        }
    }

    #[test]
    fn prometheus_exposition_shape() {
        let snap = sample_snapshot();
        let text = snap.to_prometheus();
        assert!(text.contains("retina_core_rx_packets 100"));
        assert!(text.contains("retina_mbuf_high_water 8"));
        assert!(text.contains("retina_stage_cycles{stage=\"packet_filter\",quantile=\"0.5\"}"));
        assert!(text.contains("retina_drop_total{reason=\"hw_rule\"} 3"));
        assert!(text.contains("retina_drop_total{reason=\"timeout_expiry\"} 0"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "{line}");
        }
    }

    #[test]
    fn lookups() {
        let snap = sample_snapshot();
        assert_eq!(snap.counter("core.rx_packets"), Some(100));
        assert_eq!(snap.gauge("mbuf_high_water"), Some(8));
        assert_eq!(snap.stage("packet_filter").unwrap().runs, 10);
        assert!(snap.stage("nope").is_none());
    }
}
