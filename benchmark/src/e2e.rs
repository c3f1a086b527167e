//! The end-to-end pass: set-up, timed repetitions through the public
//! one-thread drivers with all tracing off, and the output checks that
//! gate the run.
//!
//! Closed loop, one process, one measuring thread. Packets are
//! pre-materialised before timing; each repetition runs on a fresh
//! runtime with its own schedule seed (the schedule varies, the traffic
//! does not). The threaded validation runs add the ingest thread.

use std::sync::Arc;
use std::time::Instant;

use retina_core::subscribables::TlsHandshakeData;
use retina_core::{run_offline, CompiledFilter, RunReport, RuntimeConfig, StepConfig};
use retina_pcap::{PcapReader, PcapWriter};
use retina_trafficgen::PreloadedSource;

use crate::alloc::{self, AllocDelta};
use crate::clock::Stopwatch;
use crate::spans::{Recorder, SpanId};
use crate::stats::{median, summarize, Summary};
use crate::workloads::{tls_offline_callback, Driver, Packets, Sink, Workload};

/// Set-up passes per run; `setup_s` is their median.
const SETUP_PASSES: usize = 5;

/// How a pass is sized.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Traffic seed.
    pub seed: u64,
    /// Seconds of timed repetitions.
    pub seconds: f64,
    /// Packet-count divisor (1 except in the self-test).
    pub shrink: usize,
    /// Timed repetitions to take even if `seconds` is already over.
    pub min_reps: usize,
}

/// One workload's traffic, generated and set up.
pub struct Prepared {
    /// The packets the program under test receives.
    pub packets: Packets,
    /// On-CPU time of each set-up pass, seconds.
    pub setup_s: Vec<f64>,
}

/// Writes `packets` to an in-memory pcap: the capture the pcap-mode
/// workload reads its traffic from.
pub fn pcap_write(packets: &Packets) -> Vec<u8> {
    let mut capture = Vec::new();
    let mut writer = PcapWriter::new(&mut capture).expect("writing to memory");
    for (frame, ts) in packets {
        writer
            .write_packet(frame.as_slice(), *ts)
            .expect("writing to memory");
    }
    writer.flush().expect("writing to memory");
    capture
}

/// Reads a capture written by [`pcap_write`] back into packets.
pub fn pcap_read(capture: &[u8]) -> Packets {
    PcapReader::new(capture)
        .and_then(|mut r| r.read_all())
        .expect("reading back what was just written")
}

/// Everything a user pays before the first packet: traffic generation,
/// filter compilation, `RuntimeBuilder::build` and hw-rule install (or,
/// for the pcap-mode workload, the capture round trip and the filter).
/// Run [`SETUP_PASSES`] times; the last pass's packets are kept.
pub fn prepare(w: &Workload, opts: &Options) -> Prepared {
    let mut setup_s = Vec::with_capacity(SETUP_PASSES);
    let mut kept = None;
    for _ in 0..SETUP_PASSES {
        drop(kept.take());
        let watch = Stopwatch::start();
        let mut packets = w.traffic(opts.seed, opts.shrink);
        match w.driver {
            Driver::Stepped => {
                drop(w.build_runtime(RuntimeConfig::default(), &Arc::default()));
            }
            Driver::Offline => {
                packets = pcap_read(&pcap_write(&packets));
                drop(offline_filter(w));
            }
        }
        setup_s.push(watch.stop().cpu_s);
        kept = Some(packets);
    }
    Prepared {
        packets: kept.expect("at least one set-up pass"),
        setup_s,
    }
}

fn offline_filter(w: &Workload) -> Arc<CompiledFilter> {
    let config = RuntimeConfig::default();
    Arc::new(
        CompiledFilter::build(w.subs[0].filter, &config.filter_registry)
            .expect("workload filter compiles"),
    )
}

/// What one run of a driver produced, reduced to what must repeat.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Schedule-independent counters of the run.
    pub digest: String,
    /// `(deliveries, content checksum)` seen by the callbacks.
    pub delivered: (u64, u64),
}

/// One timed repetition.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// On-CPU time of the driver call, seconds (see `clock.rs`).
    pub secs: f64,
    /// Wall time of the driver call, seconds.
    pub wall_secs: f64,
    /// What the driver call asked of the allocator.
    pub alloc: AllocDelta,
}

/// A stepped run with everything it reports.
pub struct SteppedRun {
    /// Timing and allocation of the `run_stepped` call.
    pub rep: Rep,
    /// The run's report.
    pub report: RunReport,
    /// What was delivered.
    pub outcome: Outcome,
    /// The span around the `run_stepped` call, when one was asked for.
    pub span: Option<SpanId>,
}

/// One `run_stepped` over `packets` on a fresh runtime built from
/// `config`, schedule seed `rep`. Accounting is checked. `span` records
/// the driver call — and only it — under the given name.
pub fn stepped_run(
    w: &Workload,
    config: RuntimeConfig,
    trace: Option<retina_core::TraceConfig>,
    packets: &Packets,
    rep: u64,
    span: Option<(&mut Recorder, &str)>,
) -> Result<SteppedRun, String> {
    let sink = Arc::new(Sink::default());
    let mut rt = w.build_runtime(config, &sink);
    if let Some(tc) = trace {
        rt.set_trace_config(tc);
    }
    let step = StepConfig::seeded(rep);
    let mut span = span.map(|(rec, name)| {
        let id = rec.enter(name);
        (rec, id)
    });
    let watch = Stopwatch::start();
    let (report, delta) = alloc::measure(|| rt.run_stepped(packets, &step));
    let elapsed = watch.stop();
    let span = span.take().map(|(rec, id)| {
        rec.exit(id, packets.len() as u64);
        id
    });
    report.check_accounting()?;
    let outcome = Outcome {
        digest: report.deterministic_digest(),
        delivered: sink.take(),
    };
    if outcome.delivered.0 != report.delivered() {
        return Err(format!(
            "callbacks saw {} deliveries, the report counts {}",
            outcome.delivered.0,
            report.delivered()
        ));
    }
    Ok(SteppedRun {
        rep: Rep {
            secs: elapsed.cpu_s,
            wall_secs: elapsed.wall_s,
            alloc: delta,
        },
        report,
        outcome,
        span,
    })
}

/// One `run_offline` of the workload's single `tls` subscription.
pub fn offline_run(w: &Workload, packets: &Packets) -> Result<(Rep, Outcome), String> {
    let sink = Sink::default();
    let filter = offline_filter(w);
    let config = RuntimeConfig::default();
    let watch = Stopwatch::start();
    let (stats, delta) = alloc::measure(|| {
        run_offline::<TlsHandshakeData, _>(
            &filter,
            &config,
            packets.iter().cloned(),
            tls_offline_callback(&sink),
        )
    });
    let elapsed = watch.stop();
    stats.check_conn_accounting()?;
    if stats.rx_packets != packets.len() as u64
        || stats.rx_packets != stats.parse_failures + stats.packet_filter.runs
    {
        return Err(format!(
            "offline packet accounting: offered {}, rx {}, parse failures {}, filtered {}",
            packets.len(),
            stats.rx_packets,
            stats.parse_failures,
            stats.packet_filter.runs
        ));
    }
    let digest = format!(
        "rx={} bytes={} created={} discarded={} terminated={} retired={} callbacks={}\n",
        stats.rx_packets,
        stats.rx_bytes,
        stats.conns_created,
        stats.conns_discarded,
        stats.conns_terminated,
        stats.conns_expired + stats.conns_drained,
        stats.callbacks.runs,
    );
    let outcome = Outcome {
        digest,
        delivered: sink.take(),
    };
    let rep = Rep {
        secs: elapsed.cpu_s,
        wall_secs: elapsed.wall_s,
        alloc: delta,
    };
    Ok((rep, outcome))
}

/// Result of checking a driver's output against the other drivers.
#[derive(Debug, Default)]
pub struct Validation {
    /// Wall ns per packet of the hw-off threaded run (record only).
    pub threaded_ns_per_pkt: f64,
    /// Frames offered to the NIC across the threaded runs.
    pub offered: u64,
    /// Frames the NIC lost in the threaded runs.
    pub lost: u64,
    /// `lost`, plus the packets of the timed driver if its output differs
    /// from the reference.
    pub failed: u64,
    /// Peak mempool occupancy of the hw-off run.
    pub mbuf_high_water: usize,
    /// Violated checks.
    pub problems: Vec<String>,
}

/// Checks what `w`'s timed driver produced (`driver_outcome`) against
/// the other drivers over the same packets.
///
/// First a stepped reference run: the timed repetitions must equal it
/// (for the pcap-mode workload: `run_offline` must have delivered exactly
/// what it delivers). Then two threaded 1-core runs (worker + ingest
/// thread, paced ingest): with `hw_filtering` off the whole digest and
/// the delivered content must equal the reference and the NIC must lose
/// nothing; with it on, hardware drops change the NIC counters but every
/// subscription must still be delivered exactly the same.
pub fn validate(w: &Workload, packets: &Packets, driver_outcome: &Outcome) -> Validation {
    let mut v = Validation::default();
    let reference = match stepped_run(w, RuntimeConfig::default(), None, packets, 0, None) {
        Ok(run) => run,
        Err(e) => {
            v.failed += packets.len() as u64;
            v.problems.push(format!("reference stepped run: {e}"));
            return v;
        }
    };
    let same = match w.driver {
        Driver::Stepped => reference.outcome == *driver_outcome,
        Driver::Offline => reference.outcome.delivered == driver_outcome.delivered,
    };
    if !same {
        v.failed += packets.len() as u64;
        v.problems.push(format!(
            "the timed driver delivered (count, checksum) {:?}, a stepped run delivers {:?}",
            driver_outcome.delivered, reference.outcome.delivered
        ));
    }
    for hw in [false, true] {
        let config = RuntimeConfig {
            hw_filtering: hw,
            ..RuntimeConfig::default()
        };
        let sink = Arc::new(Sink::default());
        let mut rt = w.build_runtime(config, &sink);
        let report = rt.run(PreloadedSource::new(packets.clone()));
        let label = if hw {
            "threaded hw-on"
        } else {
            "threaded hw-off"
        };
        v.offered += report.nic.rx_offered;
        v.lost += report.nic.lost();
        v.failed += report.nic.lost();
        if let Err(e) = report.check_accounting() {
            v.problems.push(format!("{label}: accounting: {e}"));
        }
        if report.nic.lost() != 0 {
            v.problems
                .push(format!("{label}: NIC lost {} frames", report.nic.lost()));
        }
        let delivered = sink.take();
        if delivered != reference.outcome.delivered {
            v.problems.push(format!(
                "{label}: delivered (count, checksum) {delivered:?} != stepped {:?}",
                reference.outcome.delivered
            ));
        }
        if hw {
            for sub in w.subs {
                if report.sub_digest(sub.name) != reference.report.sub_digest(sub.name) {
                    v.problems.push(format!(
                        "{label}: sub_digest({}) differs from stepped",
                        sub.name
                    ));
                }
            }
        } else {
            if report.deterministic_digest() != reference.outcome.digest {
                v.problems.push(format!(
                    "{label}: deterministic_digest differs from stepped"
                ));
            }
            v.threaded_ns_per_pkt = report.elapsed.as_secs_f64() * 1e9 / packets.len() as f64;
            v.mbuf_high_water = report.mbuf_high_water;
        }
    }
    v
}

/// Everything the end-to-end pass measured.
pub struct E2e {
    /// Packets offered per repetition.
    pub packets: u64,
    /// The timed repetitions (warm-up excluded).
    pub reps: Vec<Rep>,
    /// Set-up pass times (on-CPU), seconds.
    pub setup_s: Vec<f64>,
    /// Packets pushed through a checked run.
    pub attempted: u64,
    /// Packets of repetitions that failed a check, plus NIC-lost frames.
    pub failed: u64,
    /// Violated checks; empty means correct.
    pub problems: Vec<String>,
}

impl E2e {
    /// Median, quartiles and n of the repetition times, as ns per packet.
    pub fn ns_per_pkt(&self) -> Summary {
        let v: Vec<f64> = self
            .reps
            .iter()
            .map(|r| r.secs * 1e9 / self.packets as f64)
            .collect();
        summarize(&v)
    }

    /// The end-to-end metrics, in `spec::END_TO_END` order.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        // Identical across repetitions (checked), so the first speaks
        // for all.
        let a = self.reps[0].alloc;
        let pkts = self.packets as f64;
        vec![
            // The first quartile, not the median: on this shared host
            // contention only ever adds time, in bursts that can cover
            // half a run, and the lower quartile of the repetitions moved
            // a third as much between identical runs (README, noise floor).
            ("ns_per_pkt", self.ns_per_pkt().q1),
            ("allocs_per_kpkt", a.allocs as f64 * 1000.0 / pkts),
            ("alloc_bytes_per_pkt", a.bytes as f64 / pkts),
            ("heap_peak_mb", a.peak_above_start as f64 / 1e6),
            ("setup_s", median(&self.setup_s)),
        ]
    }

    /// Median over the repetitions of wall time ÷ on-CPU time: how much
    /// of the run the measuring thread spent off the CPU (stolen or
    /// preempted). 1.00 on an undisturbed host.
    pub fn wall_over_cpu(&self) -> f64 {
        let v: Vec<f64> = self.reps.iter().map(|r| r.wall_secs / r.secs).collect();
        median(&v)
    }

    /// Failed ÷ attempted packets.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }
}

/// One repetition through the workload's driver.
fn driver_rep(w: &Workload, packets: &Packets, rep: u64) -> Result<(Rep, Outcome), String> {
    match w.driver {
        Driver::Stepped => stepped_run(w, RuntimeConfig::default(), None, packets, rep, None)
            .map(|r| (r.rep, r.outcome)),
        Driver::Offline => offline_run(w, packets),
    }
}

/// Runs the end-to-end pass of `w` on already prepared traffic.
pub fn run(w: &Workload, prepared: &Prepared, opts: &Options) -> E2e {
    let packets = &prepared.packets;
    let n = packets.len() as u64;
    let mut out = E2e {
        packets: n,
        reps: Vec::new(),
        setup_s: prepared.setup_s.clone(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };

    // Warm-up: caches fill and lazy set-up finishes. Checked, not timed.
    out.attempted += n;
    if let Err(e) = driver_rep(w, packets, 0) {
        out.failed += n;
        out.problems.push(format!("warm-up: {e}"));
    }

    let mut first: Option<(Outcome, AllocDelta)> = None;
    let started = Instant::now();
    let mut rep = 1u64;
    // A broken pipeline fails every repetition: stop after three
    // rather than burn the budget.
    while out.problems.len() < 3
        && (out.reps.len() < opts.min_reps || started.elapsed().as_secs_f64() < opts.seconds)
    {
        out.attempted += n;
        match driver_rep(w, packets, rep) {
            Err(e) => {
                out.failed += n;
                out.problems.push(format!("repetition {rep}: {e}"));
            }
            Ok((r, outcome)) => {
                match &first {
                    None => first = Some((outcome, r.alloc)),
                    Some((want, want_alloc)) => {
                        if outcome != *want {
                            out.failed += n;
                            out.problems.push(format!(
                                "repetition {rep}: digest or deliveries differ from repetition 1"
                            ));
                        }
                        // The three count metrics must be exact, or
                        // they are not counts.
                        let (a, b) = (r.alloc, *want_alloc);
                        if (a.allocs, a.bytes, a.peak_above_start)
                            != (b.allocs, b.bytes, b.peak_above_start)
                        {
                            out.problems.push(format!(
                                "repetition {rep}: allocation counts {a:?} differ from {b:?}"
                            ));
                        }
                    }
                }
                out.reps.push(r);
            }
        }
        rep += 1;
    }

    // Output checks against the other drivers.
    if let Some((outcome, _)) = &first {
        let v = validate(w, packets, outcome);
        out.attempted += v.offered;
        out.failed += v.failed;
        out.problems.extend(v.problems);
    }
    out
}
