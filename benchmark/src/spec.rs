//! The benchmark's contract: every metric it emits, with unit,
//! direction, bound, owning layer and the end-to-end metric it should
//! move. `../BENCHMARK.json` is this table rendered as JSON
//! (`--print-contract`); a unit test holds the two equal.

use std::fmt::Write as _;

use retina_telemetry::json::escape;

use crate::workloads::WORKLOADS;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The contract's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name: `[A-Za-z0-9_.-]+`, starting with a letter or digit.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before it is a regression.
    pub bound: Option<f64>,
    /// Owning layer (crate), or `end_to_end`.
    pub layer: &'static str,
    /// What it is, and — for a layer metric — which end-to-end metric it
    /// should move on which workload ("-" = predicted no change).
    pub note: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, note: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        layer: "end_to_end",
        note,
    }
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        layer,
        note,
    }
}

/// What a user of the system sees. `failed_share` is reported by every
/// run as `failed`/`attempted` (and printed), but is not listed here:
/// its healthy value is 0 and the contract admits no metric that is.
#[rustfmt::skip]
pub const END_TO_END: &[MetricDef] = &[
    e2e("ns_per_pkt", "ns", 0.25,
        "first-quartile on-CPU time of the measuring thread for one repetition / packets offered: the per-core cost the paper's Gbps/core is made of; the bound is the widest allowed because this host's speed drifts by more than 10 % over minutes"),
    e2e("allocs_per_kpkt", "count", 0.02,
        "heap allocations (alloc + realloc) per 1000 packets in a repetition; exact for a given seed, within 0.2 % across seeds"),
    e2e("alloc_bytes_per_pkt", "bytes", 0.06,
        "bytes requested from the allocator per packet; exact for a given seed, within 2 % across seeds (table growth steps)"),
    e2e("heap_peak_mb", "MB", 0.25,
        "peak live heap above the pre-run level: conn state + buffered mbufs + outputs; follows peak concurrency, which the seed moves by up to 7 %"),
    e2e("setup_s", "s", 0.25,
        "median on-CPU time of 5 passes of traffic generation (canonical trace + re-timing) + filter compile + RuntimeBuilder::build + hw-rule install (cargo build excluded)"),
];

use Better::{Higher, Lower};

/// Single layers, taken in the traced pass. No bounds.
#[rustfmt::skip]
pub const PER_LAYER: &[MetricDef] = &[
    layer("wire", "wire.parse_ns_per_pkt", "ns", Lower,
        "ParsedPacket::parse over every frame -> ns_per_pkt on all five, largest share on campus_filter32"),
    layer("wire", "wire.parse_fail_share", "ratio", Lower,
        "frames the wire parser rejects -> - (context)"),
    layer("nic", "nic.rss_ns_per_pkt", "ns", Lower,
        "RssHasher::hash_packet -> ns_per_pkt everywhere (it is inside the stepped loop)"),
    layer("nic", "nic.ingest_rx_ns_per_pkt", "ns", Lower,
        "VirtualNic::ingest in ring-sized chunks then rx_burst, hw rules installed, one thread -> core.threaded_ns_per_pkt; - on stepped ns_per_pkt"),
    layer("nic", "nic.hw_rules", "count", Higher,
        "flow rules the workload's filter installs -> - (context for hw_drop_share)"),
    layer("nic", "nic.hw_drop_share", "ratio", Higher,
        "share of frames the hw rules drop before software -> - here (stepped runs have no NIC); the discount to apply when reading Gbps claims"),
    layer("nic", "nic.mbuf_high_water", "count", Lower,
        "peak mempool occupancy in the threaded validation run -> - (queue depth context)"),
    layer("filter", "filter.compile_us", "us", Lower,
        "CompiledFilter::build_union of the workload's sources -> setup_s"),
    layer("filter", "filter.packet_ns_per_pkt", "ns", Lower,
        "interpreted packet_filter_set over parsed packets -> ns_per_pkt on campus_filter32; small elsewhere"),
    layer("filter", "filter.packet_match_share", "ratio", Lower,
        "packets the packet filter does not reject -> reach of every later stage"),
    layer("filter", "filter.packet_codegen_ns_per_pkt", "ns", Lower,
        "the same union through filter_union! static code -> - (the target for the interpreted engine)"),
    layer("filter", "filter.interp_over_codegen", "ratio", Lower,
        "filter.packet_ns_per_pkt / filter.packet_codegen_ns_per_pkt -> ns_per_pkt on campus_filter32 as it falls"),
    layer("conntrack", "conntrack.touch_ns_per_pkt", "ns", Lower,
        "replay of the workload's (rss_hash, ConnKey, ts) sequence into ConnTable::get_or_insert_with -> ns_per_pkt on scan_churn_conn (inserts) and https_bulk_bytes (hits); - on campus_filter32"),
    layer("conntrack", "conntrack.insert_share", "ratio", Lower,
        "share of touches that insert -> - (tells insert-bound from hit-bound)"),
    layer("conntrack", "conntrack.advance_ns_per_expiry", "ns", Lower,
        "ConnTable::advance time per expired connection in the replay -> ns_per_pkt on scan_churn_conn"),
    layer("conntrack", "conntrack.lookup_p50_cycles", "cycles", Lower,
        "strided get_mut hits at the workload's peak table size, median -> ns_per_pkt on scan_churn_conn"),
    layer("conntrack", "conntrack.lookup_p99_cycles", "cycles", Lower,
        "same, 99th percentile (n = 100000): the cache-miss tail -> ns_per_pkt on scan_churn_conn"),
    layer("conntrack", "conntrack.bytes_per_conn", "bytes", Lower,
        "connection-arena high-water / peak connections of the stepped run -> heap_peak_mb on scan_churn_conn"),
    layer("conntrack", "conntrack.reasm_ns_per_seg", "ns", Lower,
        "StreamReassembler::offer (+flush when in order) per payload segment per direction -> ns_per_pkt on https_bulk_bytes"),
    layer("conntrack", "conntrack.reasm_ooo_share", "ratio", Lower,
        "segments that arrive ahead of a hole -> - (context)"),
    layer("protocols", "protocols.probe_ns_per_call", "ns", Lower,
        "ConnParser::probe of each candidate parser over each connection's first payload segments -> ns_per_pkt on campus_union4, campus_tls_offline; - elsewhere"),
    layer("protocols", "protocols.parse_ns_per_call", "ns", Lower,
        "ConnParser::parse of the identified protocol over the same segments -> ns_per_pkt on campus_union4, campus_tls_offline; - elsewhere"),
    layer("protocols", "protocols.session_share", "ratio", Higher,
        "probed connections that yield a parsed session -> - (context)"),
    layer("core", "core.packet_filter.reach", "ratio", Lower, "share of packets reaching the stage (Fig. 7)"),
    layer("core", "core.packet_filter.self_cycles_per_pkt", "cycles", Lower,
        "stage self cycles / packets offered, profile_stages run -> ns_per_pkt on campus_filter32 (0 today: run_stepped does not time this stage)"),
    layer("core", "core.packet_filter.p99_cycles", "cycles", Lower, "stage histogram p99"),
    layer("core", "core.conn_tracking.reach", "ratio", Lower, "share of packets reaching the stage (Fig. 7)"),
    layer("core", "core.conn_tracking.self_cycles_per_pkt", "cycles", Lower,
        "span minus the reassembly span nested in it -> ns_per_pkt on scan_churn_conn"),
    layer("core", "core.conn_tracking.p99_cycles", "cycles", Lower, "stage histogram p99"),
    layer("core", "core.reassembly.reach", "ratio", Lower, "share of packets reaching the stage (Fig. 7)"),
    layer("core", "core.reassembly.self_cycles_per_pkt", "cycles", Lower,
        "span minus app_parsing and session_filter nested in it -> ns_per_pkt on https_bulk_bytes"),
    layer("core", "core.reassembly.p99_cycles", "cycles", Lower, "stage histogram p99"),
    layer("core", "core.app_parsing.reach", "ratio", Lower, "parser calls / packets offered (Fig. 7)"),
    layer("core", "core.app_parsing.self_cycles_per_pkt", "cycles", Lower,
        "-> ns_per_pkt on campus_union4, campus_tls_offline"),
    layer("core", "core.app_parsing.p99_cycles", "cycles", Lower, "stage histogram p99"),
    layer("core", "core.session_filter.reach", "ratio", Lower, "session-filter runs / packets offered (Fig. 7)"),
    layer("core", "core.session_filter.self_cycles_per_pkt", "cycles", Lower, "-> ns_per_pkt on campus_union4"),
    layer("core", "core.session_filter.p99_cycles", "cycles", Lower, "stage histogram p99"),
    layer("core", "core.callbacks.reach", "ratio", Lower, "deliveries / packets offered (Fig. 7)"),
    layer("core", "core.callbacks.self_cycles_per_pkt", "cycles", Lower,
        "-> ns_per_pkt on campus_filter32 (0 today: run_stepped does not time this stage)"),
    layer("core", "core.callbacks.p99_cycles", "cycles", Lower, "stage histogram p99"),
    layer("core", "core.unattributed_share", "ratio", Lower,
        "1 - sum of top-level stage cycles / cycles of the profiled run: what the in-program ledger cannot explain"),
    layer("core", "core.profile_overhead", "ratio", Lower,
        "profile_stages run / untraced run, medians of alternating repetitions: the tracing overhead"),
    layer("core", "core.deliveries_per_kpkt", "count", Lower, "callback deliveries per 1000 packets -> allocs_per_kpkt"),
    layer("core", "core.conns_per_kpkt", "count", Lower, "connections created per 1000 packets -> allocs_per_kpkt, heap_peak_mb"),
    layer("core", "core.conns_peak", "count", Lower, "peak concurrent connections -> heap_peak_mb"),
    layer("core", "core.threaded_ns_per_pkt", "ns", Lower,
        "one MultiRuntime::run, 1 worker core + ingest thread, paced ingest: recorded, never gated (noisy on a shared host)"),
    layer("core", "core.threaded_lost_share", "ratio", Lower, "NIC-lost / offered in that run; must be 0 for the run to count as correct"),
    layer("core", "core.offline_over_stepped", "ratio", Lower,
        "run_offline / run_stepped, both tls->TlsHandshakeData over this workload's first packets -> ns_per_pkt on campus_tls_offline only"),
    layer("telemetry", "telemetry.trace_sampled_overhead", "ratio", Lower,
        "stepped run with 1-in-1024 flow tracing / untraced -> ns_per_pkt only if tracing is left on"),
    layer("trafficgen", "trafficgen.gen_ns_per_pkt", "ns", Lower, "traffic generation per packet -> setup_s"),
    layer("pcap", "pcap.read_ns_per_pkt", "ns", Lower,
        "PcapReader::read_all over the in-memory capture -> setup_s on campus_tls_offline"),
];

/// The six pipeline stages of `RunReport::stages()`, in order.
pub const STAGES: [&str; 6] = [
    "packet_filter",
    "conn_tracking",
    "reassembly",
    "app_parsing",
    "session_filter",
    "callbacks",
];

/// Looks a metric up by name in both tables.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Renders the contract as `BENCHMARK.json`.
pub fn contract_json() -> String {
    let mut out = String::new();
    out.push_str("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": {}, \"why\": {}}}",
            escape(w.name),
            escape(w.why)
        );
        out.push_str(if i + 1 < WORKLOADS.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound"),
        );
        out.push_str(if i + 1 < END_TO_END.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            m.better.as_str(),
        );
        out.push_str(if i + 1 < PER_LAYER.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The workload and metric tables as markdown (what `README.md` shows).
pub fn describe_markdown() -> String {
    let mut out = String::from("| workload | why |\n|---|---|\n");
    for w in &WORKLOADS {
        let _ = writeln!(out, "| `{}` | {} |", w.name, w.why);
    }
    out.push_str(
        "\n| end-to-end metric | unit | better | bound | what it is |\n|---|---|---|---|---|\n",
    );
    for m in END_TO_END {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {:.0} % | {} |",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound") * 100.0,
            m.note
        );
    }
    out.push_str("\n| layer | per-layer metric | unit | better | what it is -> the end-to-end metric it should move |\n|---|---|---|---|---|\n");
    for m in PER_LAYER {
        let _ = writeln!(
            out,
            "| {} | `{}` | {} | {} | {} |",
            m.layer,
            m.name,
            m.unit,
            m.better.as_str(),
            m.note
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use retina_telemetry::json::{parse, Json};

    fn valid_name(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_charset_and_are_unique() {
        assert!(valid_name("core.app_parsing.p99_cycles"));
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name("a/b") && !valid_name(""));
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name));
            assert!(seen.insert(w.name), "name {} used twice", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is one line of at most 200 chars",
                w.name
            );
        }
    }

    #[test]
    fn contract_limits_hold() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for m in END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .map(|m| m.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
        for stage in STAGES {
            for suffix in ["reach", "self_cycles_per_pkt", "p99_cycles"] {
                assert!(find(&format!("core.{stage}.{suffix}")).is_some());
            }
        }
    }

    #[test]
    fn benchmark_json_on_disk_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(on_disk.len() <= 64 * 1024);
        assert_eq!(
            on_disk,
            contract_json(),
            "BENCHMARK.json is stale: regenerate it with `benchmark/run.sh --print-contract`"
        );
        // And it is the JSON shape the contract asks for.
        let json = parse(&on_disk).expect("BENCHMARK.json parses");
        let Json::Obj(members) = &json else {
            panic!("top level must be an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads").len(), 5);
        assert_eq!(names("end_to_end").len(), END_TO_END.len());
        assert_eq!(names("per_layer").len(), PER_LAYER.len());
    }
}
