//! End-to-end observability tests: a profiled campus-mix run must
//! produce exact outcome accounting (every packet and connection
//! attributed to exactly one drop reason or successful delivery),
//! coherent stage-latency percentiles, and identical state through all
//! four exporters.

use std::sync::Arc;
use std::time::Duration;

use retina_core::subscribables::ConnRecord;
use retina_core::telemetry::json;
use retina_core::{
    compile, CsvSink, DropReason, JsonSink, LogSink, Monitor, PrometheusSink, RunReport, Runtime,
    RuntimeConfig, SharedBuf,
};
use retina_telemetry::Sample;
use retina_trafficgen::campus::{generate, CampusConfig};
use retina_trafficgen::PreloadedSource;

/// One profiled campus-mix run with a session-level filter, so every
/// pipeline stage executes and both filter tiers discard connections.
fn profiled_run(seed: u64) -> RunReport {
    let packets = generate(&CampusConfig::small(seed));
    let mut config = RuntimeConfig::with_cores(2);
    config.profile_stages = true;
    let filter = compile("tls").unwrap();
    let mut rt = Runtime::<ConnRecord, _>::new(config, filter, |_| {}).unwrap();
    rt.run(PreloadedSource::new(packets))
}

#[test]
fn accounting_invariant_holds_end_to_end() {
    let report = profiled_run(0xE2E);
    report
        .check_accounting()
        .expect("every packet and connection attributed");

    // The connection ledger balances exactly: created = discarded +
    // terminated + expired + drained (the issue's headline invariant).
    let c = &report.cores;
    assert_eq!(
        c.conns_created,
        c.conns_discarded + c.conns_terminated + c.conns_expired + c.conns_drained,
    );
    assert_eq!(
        c.conns_discarded,
        c.discard_conn_filter + c.discard_session_filter + c.conns_completed_early,
    );

    // The drop breakdown is complete: its connection side re-derives
    // from the same ledger, and the packet side matches the NIC.
    let drops = report.drop_breakdown();
    assert_eq!(
        drops.get(DropReason::ConnFilterDiscard) + drops.get(DropReason::SessionFilterDiscard),
        c.discard_conn_filter + c.discard_session_filter,
    );
    assert_eq!(drops.get(DropReason::TimeoutExpiry), c.conns_expired);
    assert_eq!(drops.get(DropReason::HwRule), report.nic.hw_dropped);
    assert_eq!(drops.get(DropReason::ParseFailure), c.parse_failures);
    // Its connection total is exactly the ledger's connection drops.
    assert_eq!(
        drops.conn_total(),
        c.discard_conn_filter + c.discard_session_filter + c.conns_expired
    );
    // A `tls` filter over the campus mix must actually exercise the
    // taxonomy, not just leave zeros everywhere.
    assert!(drops.get(DropReason::HwRule) > 0, "{drops:?}");
    assert!(drops.get(DropReason::ConnFilterDiscard) > 0, "{drops:?}");
}

#[test]
fn stage_histograms_expose_ordered_percentiles() {
    let report = profiled_run(0x0B5);
    let snap = report.telemetry();

    // All six stages appear, in pipeline order.
    let names: Vec<&str> = snap.stages.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "packet_filter",
            "conn_tracking",
            "reassembly",
            "app_parsing",
            "session_filter",
            "callbacks"
        ]
    );
    for (name, stage) in &snap.stages {
        assert!(stage.p50() <= stage.p95(), "{name}");
        assert!(stage.p95() <= stage.p99(), "{name}");
        if stage.runs > 0 {
            // Profiling was on, so runs imply recorded samples. The
            // histogram sums exactly what the flat counter accumulated;
            // its count can trail runs (reassembly counts per segment
            // but times per in-order batch).
            assert!(stage.hist.count() > 0, "{name}");
            assert!(stage.hist.count() <= stage.runs, "{name}");
            assert_eq!(stage.hist.sum(), stage.cycles, "{name}");
            assert!(stage.p99() > 0, "{name}");
            assert!(stage.avg_cycles() > 0.0, "{name}");
        }
    }
    assert_eq!(
        snap.stage("packet_filter").unwrap().runs,
        report.cores.packet_filter.runs
    );
    // The cascade shrinks from the per-packet stages toward the
    // callback (Figure 7's reproduced property): every callback firing
    // was gated behind at least one tracked packet of its connection.
    assert!(snap.stage("packet_filter").unwrap().runs >= snap.stage("reassembly").unwrap().runs);
    assert!(snap.stage("conn_tracking").unwrap().runs >= snap.stage("callbacks").unwrap().runs);
}

#[test]
fn all_four_exporters_round_trip_final_snapshot() {
    let packets = generate(&CampusConfig::small(0x51CC));
    let mut config = RuntimeConfig::with_cores(2);
    config.profile_stages = true;
    let filter = compile("tls").unwrap();
    let mut rt = Runtime::<ConnRecord, _>::new(config, filter, |_| {}).unwrap();

    let log_buf = SharedBuf::new();
    let csv_buf = SharedBuf::new();
    let json_buf = SharedBuf::new();
    let prom_buf = SharedBuf::new();
    let monitor = Monitor::start_with_sinks(
        Arc::clone(rt.nic()),
        rt.gauges(),
        Duration::from_millis(2),
        vec![
            Box::new(LogSink::new(log_buf.clone())),
            Box::new(CsvSink::new(csv_buf.clone())),
            Box::new(JsonSink::new(json_buf.clone())),
            Box::new(PrometheusSink::new(prom_buf.clone())),
        ],
    );
    let report = rt.run(PreloadedSource::new(packets));
    // Force one synchronous sample after the run: the assertions below
    // are then guaranteed at least one row per exporter without any
    // dependence on wall-clock interval timing.
    let final_sample = monitor.sample_now();
    assert_eq!(final_sample.parse_failures, report.cores.parse_failures);
    // Workers clock only the frames they saw; the last frame may have
    // been hw-dropped, so the gauge can trail the ingest clock.
    assert!(final_sample.sim_clock_ns <= report.sim_duration_ns);
    assert!(final_sample.sim_clock_ns > 0);
    let samples = monitor.stop_with_snapshot(report.telemetry());
    assert!(!samples.is_empty(), "sample_now must be collected");
    let snap = report.telemetry();

    // JSON: parses with the in-tree parser and round-trips counters,
    // drops, and stage quantiles numerically.
    let doc = json::parse(&json_buf.contents()).expect("JSON exporter output parses");
    assert_eq!(
        doc.get("samples").unwrap().as_arr().unwrap().len(),
        samples.len()
    );
    let final_ = doc.get("final").expect("final snapshot present");
    let counters = final_.get("counters").unwrap();
    for (name, value) in &snap.counters {
        assert_eq!(
            counters
                .get(name)
                .and_then(retina_telemetry::json::Json::as_u64),
            Some(*value),
            "counter {name}"
        );
    }
    let jdrops = final_.get("drops").unwrap();
    for (reason, n) in snap.drops.iter() {
        assert_eq!(
            jdrops
                .get(reason.label())
                .and_then(retina_telemetry::json::Json::as_u64),
            Some(n),
            "drop {reason}"
        );
    }
    for (name, stage) in &snap.stages {
        let jstage = final_.get("stages").unwrap().get(name).unwrap();
        assert_eq!(
            jstage
                .get("runs")
                .and_then(retina_telemetry::json::Json::as_u64),
            Some(stage.runs)
        );
        assert_eq!(
            jstage
                .get("p99")
                .and_then(retina_telemetry::json::Json::as_u64),
            Some(stage.p99())
        );
    }

    // CSV: stable header, rows of matching arity. At least one sample
    // is guaranteed by the forced `sample_now` above.
    let csv = csv_buf.contents();
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some(Sample::CSV_HEADER));
    let n_cols = Sample::CSV_HEADER.split(',').count();
    let mut rows = 0;
    for row in lines {
        assert_eq!(row.split(',').count(), n_cols, "{row}");
        rows += 1;
    }
    assert_eq!(rows, samples.len());

    // Prometheus: every drop reason appears with its exact count, and
    // every stage with its run count and its p99 cycle quantile.
    let prom = prom_buf.contents();
    for (reason, n) in snap.drops.iter() {
        let line = format!("retina_drop_total{{reason=\"{}\"}} {n}", reason.label());
        assert!(prom.contains(&line), "missing {line:?} in:\n{prom}");
    }
    for (name, stage) in &snap.stages {
        let line = format!("retina_stage_runs_total{{stage=\"{name}\"}} {}", stage.runs);
        assert!(prom.contains(&line), "missing {line:?}");
        let line = format!(
            "retina_stage_cycles{{stage=\"{name}\",quantile=\"0.99\"}} {}",
            stage.p99()
        );
        assert!(prom.contains(&line), "missing {line:?}");
    }
    assert!(snap.stage("packet_filter").unwrap().p99() > 0);

    // Log sink: final summary table with the drop taxonomy.
    let log = log_buf.contents();
    assert!(log.contains("final drop breakdown:"), "{log}");
    for reason in DropReason::ALL {
        assert!(log.contains(reason.label()), "missing {reason} in log");
    }
}

#[test]
fn mbuf_high_water_is_surfaced_and_sane() {
    let report = profiled_run(0x3B5F);
    // The pool drained at run end, but the peak survives in the report.
    assert!(report.mbuf_high_water > 0);
    let snap = report.telemetry();
    assert_eq!(
        snap.gauge("mbuf_high_water"),
        Some(report.mbuf_high_water as u64)
    );
}
