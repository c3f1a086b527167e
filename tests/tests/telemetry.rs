//! End-to-end observability tests: a profiled campus-mix run must
//! produce exact outcome accounting (every packet and connection
//! attributed to exactly one drop reason or successful delivery),
//! coherent stage-latency percentiles, and identical state through all
//! four exporters.

use std::time::Duration;

use retina_core::subscribables::ConnRecord;
use retina_core::telemetry::json;
use retina_core::{
    compile, CsvSink, DropReason, JsonSink, LogSink, PrometheusSink, RunReport, Runtime,
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
    // An interval that outlasts the run: the one sample is the closing
    // tick, taken after every core has exited, so the assertions below
    // have exactly one row per exporter with no dependence on wall-clock
    // interval timing.
    rt.set_monitor(
        Duration::from_secs(3600),
        vec![
            Box::new(LogSink::new(log_buf.clone())),
            Box::new(CsvSink::new(csv_buf.clone())),
            Box::new(JsonSink::new(json_buf.clone())),
            Box::new(PrometheusSink::new(prom_buf.clone())),
        ],
    );
    let report = rt.run(PreloadedSource::new(packets));
    let samples = &report.samples;
    assert_eq!(samples.len(), 1, "one closing sample");
    let final_sample = samples[0];
    assert_eq!(final_sample.parse_failures, report.cores.parse_failures);
    // Workers clock only the frames they saw; the last frame may have
    // been hw-dropped, so the gauge can trail the ingest clock.
    assert!(final_sample.sim_clock_ns <= report.sim_duration_ns);
    assert!(final_sample.sim_clock_ns > 0);
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

    // CSV: stable header, rows of matching arity: the one closing
    // sample.
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
fn each_run_reports_its_own_conn_arena() {
    // The live gauges start from zero at every run: a small run after a
    // large one on the same runtime reports its own arena, and the gauge
    // a monitor reads agrees with each report.
    let filter = compile("tcp or udp").unwrap();
    let mut rt =
        Runtime::<ConnRecord, _>::new(RuntimeConfig::with_cores(1), filter, |_| {}).unwrap();
    let large = rt.run(PreloadedSource::new(generate(&CampusConfig {
        seed: 7,
        ..CampusConfig::default()
    })));
    assert_eq!(rt.gauges().conn_arena_bytes(), large.conn_arena_bytes);
    let small = rt.run(PreloadedSource::new(generate(&CampusConfig::small(7))));
    assert_eq!(rt.gauges().conn_arena_bytes(), small.conn_arena_bytes);
    assert!(
        small.conn_arena_bytes * 4 < large.conn_arena_bytes,
        "small run {} B against large run {} B",
        small.conn_arena_bytes,
        large.conn_arena_bytes
    );
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

/// A monitor set before a stepped run is that run's: it ticks every
/// interval of virtual time, each sample reads the runtime's gauges as
/// the stepped cores flush them (and the NIC's counters, which no
/// stepped frame passes, as 0), the samples replay from the schedule
/// seed, the monitor draws nothing from the schedule (every traced event
/// lands where it does in an unmonitored run), and it does not carry
/// over to the next threaded run.
#[test]
fn a_stepped_run_takes_the_monitor_set_for_it() {
    use retina_core::{DispatchMode, RuntimeBuilder, StepConfig, TraceConfig, STEP_NS};

    let packets = generate(&CampusConfig::small(0x57E9));
    let mut rt = RuntimeBuilder::new(RuntimeConfig::with_cores(2))
        .subscribe("tcp or udp", |_: ConnRecord| {})
        .dispatch(DispatchMode::dedicated(2))
        .trace(TraceConfig {
            sample_one_in: 1,
            ..TraceConfig::default()
        })
        .build()
        .unwrap();
    let interval = Duration::from_nanos(500 * STEP_NS);
    let mut stepped = |monitored: bool| {
        if monitored {
            rt.set_monitor(interval, Vec::new());
        }
        rt.run_stepped(&packets, &StepConfig::seeded(3))
    };
    let (a, b, unmonitored) = (stepped(true), stepped(true), stepped(false));
    assert!(a.samples.len() > 2, "{} samples", a.samples.len());
    assert_eq!(a.samples, b.samples, "samples replay from the seed");
    assert!(unmonitored.samples.is_empty());
    assert_eq!(a.trace, unmonitored.trace, "the monitor moved the schedule");
    // Every tick but the closing one is due on the interval grid.
    let (closing, ticks) = a.samples.split_last().unwrap();
    for (i, s) in (1u64..).zip(ticks) {
        let due_ns = i * 500 * STEP_NS;
        assert_eq!(s.elapsed_secs, due_ns as f64 / 1e9);
    }
    assert!(closing.elapsed_secs >= ticks.last().unwrap().elapsed_secs);
    assert!(ticks
        .iter()
        .any(|s| s.connections > 0 && s.sim_clock_ns > 0));
    assert!(ticks.iter().any(|s| s.dispatch_depth > 0));
    assert!(a.samples.iter().all(|s| s.gbps == 0.0 && s.lost == 0));
    assert_eq!(closing.connections, 0, "every core has exited");

    let threaded = rt.run(PreloadedSource::new(packets.clone()));
    assert!(
        threaded.samples.is_empty(),
        "the monitor was the stepped run's"
    );
}
