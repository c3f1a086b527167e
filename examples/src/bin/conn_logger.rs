//! The §6.1 connection-record workload: subscribe to all TCP connection
//! records and log them (the callback the paper measures at ~12K cycles
//! when writing to a shared file).
//!
//! Writes JSON-lines records to `/tmp/retina_conns.jsonl` via a buffered
//! writer — the mitigation §5.3 suggests for expensive callbacks.

// Narrowing casts in this file are intentional: synthetic traffic narrows seeded PRNG draws into ports, lengths, and header bytes.
#![allow(clippy::cast_possible_truncation)]

use std::io::Write;
use std::sync::{Arc, Mutex};

use retina_core::subscribables::ConnRecord;
use retina_core::{Runtime, RuntimeConfig};
use retina_examples::cli_args;
use retina_filtergen::filter;
use retina_trafficgen::campus::{campus_source, CampusConfig};

filter!(all_tcp, "tcp");

fn main() {
    let args = cli_args();
    let path = "/tmp/retina_conns.jsonl";
    let file = std::fs::File::create(path).expect("create log file");
    let writer = Arc::new(Mutex::new(std::io::BufWriter::new(file)));
    let sink = Arc::clone(&writer);

    let callback = move |rec: ConnRecord| {
        // Hand-rolled JSON keeps the dependency budget; records are flat.
        let line = format!(
            "{{\"orig\":\"{}\",\"resp\":\"{}\",\"duration_ms\":{},\"pkts_up\":{},\"pkts_down\":{},\"bytes_up\":{},\"bytes_down\":{},\"established\":{},\"terminated\":{},\"single_syn\":{},\"service\":{}}}\n",
            rec.tuple.orig,
            rec.tuple.resp,
            rec.duration_ns() / 1_000_000,
            rec.pkts_up,
            rec.pkts_down,
            rec.bytes_up,
            rec.bytes_down,
            rec.established,
            rec.terminated,
            rec.single_syn,
            rec.service.map_or("null".into(), |s| format!("\"{s}\"")),
        );
        let _ = sink.lock().unwrap().write_all(line.as_bytes());
    };

    let mut runtime = Runtime::new(
        RuntimeConfig::with_cores(args.cores as u16),
        all_tcp(),
        callback,
    )
    .expect("runtime");
    let source = campus_source(&CampusConfig {
        seed: args.seed,
        target_packets: args.packets as usize,
        ..CampusConfig::default()
    });
    let report = runtime.run(source);
    writer.lock().unwrap().flush().expect("flush");

    println!(
        "logged {} connection records to {} ({:.2} Gbps, zero loss: {})",
        report.cores.callbacks.runs,
        path,
        report.gbps(),
        report.zero_loss()
    );
    println!(
        "connections: {} created, {} terminated, {} expired, {} still open at end",
        report.cores.conns_created,
        report.cores.conns_terminated,
        report.cores.conns_expired,
        report.cores.conns_drained
    );
}
