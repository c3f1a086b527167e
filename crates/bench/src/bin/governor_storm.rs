//! Governor storm test: drives the closed-loop overload governor
//! through a full shed/restore cycle and gates its behavior.
//!
//! An injected worker-core slowdown (retina-chaos) makes both workers
//! too slow for the offered load for the first stretch of the run — a
//! several-fold overload against the slowed drain rate. The test runs
//! the storm twice over the identical workload and fault plan:
//!
//! 1. **ungoverned** — static sink fraction 0; the overload lands as
//!    ring-overflow packet loss;
//! 2. **governed** — the [`retina_core::Governor`] watches ring
//!    occupancy and loss, sheds session parsing, then raises the RETA
//!    sink fraction stepwise; when the storm passes it restores full
//!    fidelity in reverse order.
//!
//! Gated assertions (exit non-zero on violation):
//! * the storm really overloads: the ungoverned run loses packets;
//! * under the governor the sink fraction rises above the floor;
//! * governed loss is strictly below the ungoverned baseline;
//! * full fidelity is restored (sink back at floor, parsing resumed)
//!   within a bounded number of monitor intervals after the last shed;
//! * the decision stream passes `GovernorReport::check_accounting`
//!   and the run passes `RunReport::check_accounting`.

// Narrowing casts in this file are intentional: test and bench harnesses narrow seeded draws and counter math to compact fields.
#![allow(clippy::cast_possible_truncation)]

use std::process::exit;
use std::time::{Duration, Instant};

use retina_bench::bench_args;
use retina_chaos::{Fault, FaultPlan};
use retina_core::subscribables::ConnRecord;
use retina_core::{compile, GovernorConfig, Runtime, RuntimeConfig, TrafficSource};
use retina_support::bytes::Bytes;
use retina_trafficgen::campus::{generate, CampusConfig};

/// Frames released per ~1ms tick — fast enough to overwhelm a slowed
/// worker, trivial for a healthy one.
const FRAMES_PER_TICK: usize = 512;

/// Injected latency per stormed poll.
const STORM_DELAY: Duration = Duration::from_millis(1);

/// Stormed polls per core: together with [`STORM_DELAY`] this sets the
/// storm's wall-clock length (~100ms) independent of traffic volume.
const STORM_POLLS: u64 = 100;

struct DribbleSource(Vec<(Bytes, u64)>);

impl TrafficSource for DribbleSource {
    fn next_batch(&mut self, out: &mut Vec<(Bytes, u64)>) -> bool {
        if self.0.is_empty() {
            return false;
        }
        let n = self.0.len().min(FRAMES_PER_TICK);
        out.extend(self.0.drain(..n));
        std::thread::sleep(Duration::from_millis(1));
        true
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("governor storm FAILED: {msg}");
    exit(1);
}

fn storm_plan(cores: u16) -> FaultPlan {
    let mut plan = FaultPlan::new(0x5707_2233);
    for core in 0..cores {
        plan = plan.with(Fault::WorkerSlowdown {
            core,
            start_poll: 0,
            polls: STORM_POLLS,
            delay: STORM_DELAY,
        });
    }
    plan
}

fn config(cores: u16) -> RuntimeConfig {
    let mut config = RuntimeConfig::with_cores(cores);
    config.paced_ingest = false; // losses must be observable
    config.device.ring_capacity = 512; // small rings: pressure is visible fast
    config
}

fn main() {
    let args = bench_args();
    let cores = 2u16;
    let packets = generate(&CampusConfig {
        target_packets: args.packets.min(120_000),
        duration_secs: 30.0,
        ..CampusConfig::default()
    });
    let offered = packets.len();
    println!(
        "governor storm: {offered} packets, {cores} cores, {STORM_POLLS} stormed polls x \
         {STORM_DELAY:?}/poll"
    );

    // Pass 1: ungoverned baseline — the storm lands as packet loss.
    let plan = storm_plan(cores);
    let mut runtime = Runtime::<ConnRecord, _>::new(config(cores), compile("tls").unwrap(), |_| {})
        .expect("runtime");
    retina_chaos::install(runtime.nic(), &plan);
    let ungoverned = runtime.run(DribbleSource(packets.clone()));
    runtime.nic().clear_fault_hooks();
    if let Err(msg) = ungoverned.check_accounting() {
        fail(&format!("ungoverned accounting: {msg}"));
    }
    let ungoverned_lost = ungoverned.nic.lost();
    println!(
        "  ungoverned: {} delivered, {} lost ({:.2}% drop rate)",
        ungoverned.nic.rx_delivered,
        ungoverned_lost,
        100.0 * ungoverned_lost as f64 / ungoverned.nic.rx_offered.max(1) as f64,
    );
    if ungoverned_lost == 0 {
        fail("storm did not overload the ungoverned run — no loss to govern away");
    }

    // Pass 2: same storm, governed.
    let gov_cfg = GovernorConfig {
        interval: Duration::from_millis(5),
        floor: 0.0,
        ceiling: 0.9,
        step: 0.2,
        mempool_high: 0.8,
        ring_high: 0.3,
        // This storm is about ring pressure; the dispatch-occupancy
        // input has its own test (chaos.rs).
        dispatch_high: 2.0,
        loss_tolerance: 0,
        hysteresis: 0.5,
        cooldown: 2,
    };
    let bound_intervals =
        ((gov_cfg.ceiling / gov_cfg.step).ceil() as u64 + 1) * (gov_cfg.cooldown as u64 + 1) + 8;
    let mut runtime = Runtime::<ConnRecord, _>::new(config(cores), compile("tls").unwrap(), |_| {})
        .expect("runtime");
    retina_chaos::install(runtime.nic(), &plan);
    let governor = runtime.start_governor(gov_cfg.clone());
    let governed = runtime.run(DribbleSource(packets));
    // The run is over (rings empty): give the governor time to walk
    // back to full fidelity, then collect its report.
    let shed = runtime.shed_state();
    let deadline = Instant::now() + Duration::from_secs(5);
    while (runtime.nic().sink_fraction() > gov_cfg.floor + 1e-9 || shed.parsing_shed())
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    let report = governor.stop();
    runtime.nic().clear_fault_hooks();

    let governed_lost = governed.nic.lost();
    println!(
        "  governed:   {} delivered, {} sunk, {} lost ({:.2}% drop rate), max sink {:.2}",
        governed.nic.rx_delivered,
        governed.nic.sunk,
        governed_lost,
        100.0 * governed_lost as f64 / governed.nic.rx_offered.max(1) as f64,
        report.max_sink_fraction,
    );
    for event in &report.events {
        if !matches!(event.action, retina_core::GovernorAction::Hold) {
            println!("    {}", event.to_log_line());
        }
    }

    // Gates.
    if let Err(msg) = governed.check_accounting() {
        fail(&format!("governed accounting: {msg}"));
    }
    if let Err(msg) = report.check_accounting() {
        fail(&format!("governor event accounting: {msg}"));
    }
    if report.max_sink_fraction <= gov_cfg.floor {
        fail("sink fraction never rose under overload");
    }
    if report.max_sink_fraction > gov_cfg.ceiling + 1e-9 {
        fail("sink fraction exceeded the ceiling");
    }
    if governed_lost >= ungoverned_lost {
        fail(&format!(
            "governed loss ({governed_lost}) not below ungoverned baseline ({ungoverned_lost})"
        ));
    }
    if !report.recovered() {
        fail("full fidelity was not restored after the storm");
    }
    // Recovery time is measured from the last interval that still
    // showed pressure (re-classified from the recorded signals) to the
    // interval full fidelity returned.
    let last_pressure = report
        .events
        .iter()
        .filter(|e| {
            e.signals.mempool_occupancy >= gov_cfg.mempool_high
                || e.signals.ring_occupancy >= gov_cfg.ring_high
                || e.signals.lost_delta > gov_cfg.loss_tolerance
        })
        .map(|e| e.interval)
        .max()
        .unwrap_or(0);
    let recovered_at = report.recovered_at_interval.unwrap_or(u64::MAX);
    let recovery_intervals = recovered_at.saturating_sub(last_pressure);
    if recovery_intervals > bound_intervals {
        fail(&format!(
            "recovery took {recovery_intervals} intervals (bound {bound_intervals})"
        ));
    }
    println!(
        "governor storm OK: shed {} steps, restored {} steps, recovered {} intervals after \
         pressure cleared (bound {})",
        report.shed_steps(),
        report.restore_steps(),
        recovery_intervals,
        bound_intervals
    );
}
