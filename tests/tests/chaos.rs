//! Chaos tests: the pipeline's accounting and determinism guarantees
//! must survive injected faults.
//!
//! * For **any** seeded [`FaultPlan`] — mempool squeezes, ring stalls,
//!   worker slowdowns, truncated/corrupted/duplicated/reordered
//!   frames, panicking parsers — every ingress frame and every created
//!   connection is still attributed to exactly one outcome
//!   (`RunReport::check_accounting`).
//! * The overload governor never oscillates: under arbitrary pressure
//!   signals its sink-fraction trace is continuous, every change is
//!   bounded by one step per interval, and shed/restore strictly
//!   alternate (`check_governor_accounting`).
//! * Chaos runs replay: the same seed produces a bit-for-bit identical
//!   `RunReport::deterministic_digest`.
//! * Regression: an RX-ring stall active when ingest finishes must not
//!   strand frames in the ring (the final-drain fix in the worker
//!   loop).
//! * The same plan drives both drivers: a stepped run reads the timing
//!   faults off the runtime's NIC in virtual time, so a governed
//!   callback stall replays bit for bit from its seed, and either
//!   driver records every injected delay as a `chaos-fault` trigger.

use std::sync::{Mutex, OnceLock};

use retina_chaos::{
    arm_parser_panics, chaos_parser_factory, disarm_parser_panics, ChaosSource, Fault, FaultPlan,
};
use retina_core::subscribables::ConnRecord;
use retina_core::{
    check_governor_accounting, compile, GovernorBrain, GovernorConfig, PressureSignals, RunReport,
    Runtime, RuntimeConfig,
};
use retina_protocols::ParserRegistry;
use retina_support::bytes::Bytes;
use retina_support::proptest::prelude::*;
use retina_trafficgen::campus::{generate, CampusConfig};
use retina_trafficgen::PreloadedSource;

/// Serializes tests that touch the process-global parser-panic switch.
static ARM_LOCK: Mutex<()> = Mutex::new(());

/// Silences the default panic printer while injected parser panics fly
/// (they are caught and counted; the spew would drown real failures).
fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// One shared small campus workload (generation is the slow part).
fn workload() -> &'static [(Bytes, u64)] {
    static WORKLOAD: OnceLock<Vec<(Bytes, u64)>> = OnceLock::new();
    WORKLOAD.get_or_init(|| {
        generate(&CampusConfig {
            target_packets: 4_000,
            duration_secs: 5.0,
            ..CampusConfig::default()
        })
    })
}

fn chaos_run(plan: &FaultPlan, registry: Option<ParserRegistry>) -> RunReport {
    let mut config = RuntimeConfig::with_cores(2);
    config.paced_ingest = true;
    if let Some(registry) = registry {
        config.parsers = registry;
    }
    let mut runtime =
        Runtime::<ConnRecord, _>::new(config, compile("tls").unwrap(), |_| {}).expect("runtime");
    retina_chaos::install(runtime.nic(), plan);
    let source = ChaosSource::new(PreloadedSource::new(workload().to_vec()), plan);
    let report = runtime.run(source);
    runtime.nic().clear_fault_hooks();
    disarm_parser_panics();
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Accounting balances under any seeded fault plan: frames and
    /// connections each attributed to exactly one outcome, no matter
    /// what the plan throws at the pipeline.
    #[test]
    fn accounting_balances_under_any_fault_plan(seed in any::<u64>()) {
        let _guard = ARM_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        with_quiet_panics(|| {
            let plan = FaultPlan::from_seed(seed, workload().len() as u64, 2);
            // Register the chaos parser so ParserPanic faults actually
            // reach the parse path (it stands in for the TLS parser).
            let registry = if plan.parser_panic_modulus().is_some() {
                let mut r = ParserRegistry::empty();
                r.register("tls", chaos_parser_factory);
                Some(r)
            } else {
                None
            };
            let report = chaos_run(&plan, registry);
            if let Err(msg) = report.check_accounting() {
                panic!("accounting violated under plan:\n{}\n{msg}", plan.describe());
            }
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The governor never oscillates: for arbitrary signal sequences
    /// and tunings, the decision stream passes its accounting check —
    /// continuous sink trace, per-interval change bounded by one step,
    /// strict shed/restore alternation — and the sink fraction stays
    /// inside [floor, ceiling].
    #[test]
    fn governor_bounded_under_arbitrary_signals(
        words in collection::vec(any::<u64>(), 1..120),
        step_pct in 5u32..40,
        cooldown in 1u32..4,
    ) {
        let cfg = GovernorConfig {
            step: step_pct as f64 / 100.0,
            cooldown,
            ..GovernorConfig::default()
        };
        let mut brain = GovernorBrain::new(cfg.clone());
        for w in words {
            brain.decide(PressureSignals {
                mempool_occupancy: (w & 0xFF) as f64 / 255.0,
                ring_occupancy: ((w >> 8) & 0xFF) as f64 / 255.0,
                lost_delta: (w >> 16) & 0x3,
                dispatch_occupancy: ((w >> 18) & 0xFF) as f64 / 255.0,
            });
        }
        let report = brain.into_report();
        check_governor_accounting(&report.events, cfg.step).unwrap();
        report.check_accounting().unwrap();
        assert!(report.max_sink_fraction <= cfg.ceiling + 1e-9);
        assert!(report.final_sink_fraction >= cfg.floor - 1e-9);
    }
}

/// Same seed, same run: two executions of an identical fault plan over
/// the identical workload produce bit-for-bit identical digests.
#[test]
fn chaos_runs_replay_bit_for_bit() {
    let _guard = ARM_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    with_quiet_panics(|| {
        let plan = FaultPlan::new(0xDEAD_BEEF)
            .with(Fault::MempoolSqueeze {
                start_seq: 500,
                frames: 200,
            })
            .with(Fault::TruncateFrames { ppm: 20_000 })
            .with(Fault::CorruptFrames { ppm: 20_000 })
            .with(Fault::DuplicateFrames { ppm: 30_000 })
            .with(Fault::ReorderFrames { ppm: 30_000 })
            .with(Fault::RingStall {
                queue: 0,
                start_poll: 10,
                polls: 50,
            })
            .with(Fault::ParserPanic { modulus: 8 });
        let registry = || {
            let mut r = ParserRegistry::empty();
            r.register("tls", chaos_parser_factory);
            r
        };
        let a = chaos_run(&plan, Some(registry()));
        let b = chaos_run(&plan, Some(registry()));
        a.check_accounting().unwrap();
        b.check_accounting().unwrap();
        assert!(
            a.cores.parser_panics > 0,
            "plan should have injected parser panics"
        );
        assert_eq!(
            a.deterministic_digest(),
            b.deterministic_digest(),
            "replay of the same seeded plan diverged"
        );
        assert!(a.nic.rx_nombuf >= 200, "squeeze window must have fired");
    });
}

/// Different seeds perturb different frames (the digest is actually
/// sensitive to the plan, not constant).
#[test]
fn different_seeds_diverge() {
    let _guard = ARM_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mk = |seed| {
        FaultPlan::new(seed)
            .with(Fault::TruncateFrames { ppm: 100_000 })
            .with(Fault::CorruptFrames { ppm: 100_000 })
    };
    let a = chaos_run(&mk(1), None);
    let b = chaos_run(&mk(2), None);
    a.check_accounting().unwrap();
    b.check_accounting().unwrap();
    assert_ne!(
        a.deterministic_digest(),
        b.deterministic_digest(),
        "independent seeds produced identical digests — faults not applied?"
    );
}

/// Regression for the final-drain race: a ring stall still active when
/// ingest finishes must not strand frames. The worker may only exit
/// once its ring is empty and no fault holds frames in flight.
#[test]
fn ring_stall_at_shutdown_strands_nothing() {
    // `chaos_run` ends by disarming the process-wide parser-panic switch:
    // it must not overlap a test that armed it.
    let _guard = ARM_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Stall queue 0 for far more polls than ingest needs to complete,
    // so the stall is guaranteed active when `ingest_done` flips. The
    // drain loop then has to wait the window out and empty the ring.
    let plan = FaultPlan::new(7).with(Fault::RingStall {
        queue: 0,
        start_poll: 0,
        polls: 2_000_000,
    });
    let report = chaos_run(&plan, None);
    report.check_accounting().unwrap();
    assert_eq!(
        report.cores.rx_packets, report.nic.rx_delivered,
        "frames stranded in a stalled ring at shutdown"
    );
    assert!(report.nic.rx_delivered > 0);
}

/// Wire-level duplication and reordering must not fool the connection
/// tracker: accounting stays exact and duplicated segments do not
/// spawn phantom connections.
#[test]
fn conntrack_survives_duplication_and_reordering() {
    // As above: `chaos_run` touches the process-wide arm switch.
    let _guard = ARM_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let clean = chaos_run(&FaultPlan::new(11), None);
    clean.check_accounting().unwrap();

    let noisy_plan = FaultPlan::new(11)
        .with(Fault::DuplicateFrames { ppm: 150_000 })
        .with(Fault::ReorderFrames { ppm: 150_000 });
    let noisy = chaos_run(&noisy_plan, None);
    noisy.check_accounting().unwrap();

    assert!(
        noisy.nic.rx_offered > clean.nic.rx_offered,
        "duplication should add frames"
    );
    assert_eq!(
        noisy.cores.conns_created, clean.cores.conns_created,
        "duplicated/reordered segments created phantom connections"
    );
}

/// A `CallbackStall` freezing one dedicated dispatch worker mid-run:
/// the governor must observe the queue pressure and shed, the sibling
/// subscription must keep delivering as if nothing happened, every
/// dropped result must be counted, and the governor's decision ledger
/// must stay bounded (strict shed/restore alternation).
#[test]
fn callback_stall_sheds_without_collateral_damage() {
    use retina_core::{DispatchMode, GovernorConfig, RuntimeBuilder};
    use std::time::Duration;

    let build = || {
        let mut config = RuntimeConfig::with_cores(2);
        config.paced_ingest = true;
        RuntimeBuilder::new(config)
            .subscribe_dispatched(
                "heavy",
                "ipv4 and tcp",
                DispatchMode::dedicated(4).shedding(),
                |_: ConnRecord| {},
            )
            .subscribe_named("light", "ipv4 and tcp", |_: ConnRecord| {})
            .build()
            .expect("runtime")
    };
    // Baseline: same traffic, no fault, for the sibling-isolation check.
    let mut clean_rt = build();
    let clean = clean_rt.run(ChaosSource::new(
        PreloadedSource::new(workload().to_vec()),
        &FaultPlan::new(21),
    ));
    clean.check_accounting().unwrap();

    // Stall the heavy subscription's worker 5 ms per item for its first
    // 150 items: its 4-deep-per-core rings fill almost immediately and
    // stay full for hundreds of wall-clock milliseconds.
    let plan = FaultPlan::new(21).with(Fault::CallbackStall {
        sub: 0,
        start_item: 0,
        items: 150,
        delay: Duration::from_millis(5),
    });

    // Phase 1 — no governor: with `Shed` policy the stall must be fully
    // contained. The RX path and the inline sibling see the identical
    // run; only the stalled sub's own drop counters move.
    let mut stalled_rt = build();
    retina_chaos::install(stalled_rt.nic(), &plan);
    let stalled = stalled_rt.run(ChaosSource::new(
        PreloadedSource::new(workload().to_vec()),
        &plan,
    ));
    stalled_rt.nic().clear_fault_hooks();
    stalled.check_accounting().unwrap();
    let heavy = &stalled.subs[0];
    assert!(
        heavy.cb_dropped_full > 0,
        "a 5 ms/item stall against 4-deep shedding rings must drop"
    );
    assert_eq!(
        heavy.delivered,
        heavy.cb_executed + heavy.cb_dropped_full + heavy.cb_dropped_disconnected,
        "every heavy handoff attributed exactly once"
    );
    let light = &stalled.subs[1];
    assert_eq!(
        light.delivered, clean.subs[1].delivered,
        "an inline sibling must be untouched by another sub's stall"
    );
    assert_eq!(light.cb_dropped_full, 0);
    assert_eq!(light.delivered, light.cb_executed);

    // Phase 2 — with a governor watching the dispatch hub: the queue
    // pressure must reach it as the fourth shed input and its decision
    // ledger must stay bounded (strict shed/restore alternation).
    let mut governed_rt = build();
    retina_chaos::install(governed_rt.nic(), &plan);
    governed_rt.set_governor(GovernorConfig {
        interval: Duration::from_millis(2),
        // Only the dispatch-occupancy input may trigger: park the other
        // thresholds out of reach.
        mempool_high: 2.0,
        ring_high: 2.0,
        loss_tolerance: u64::MAX,
        dispatch_high: 0.5,
        ..GovernorConfig::default()
    });
    let governed = governed_rt.run(ChaosSource::new(
        PreloadedSource::new(workload().to_vec()),
        &plan,
    ));
    governed_rt.nic().clear_fault_hooks();
    let gov = governed.governor.as_ref().expect("a governed run");
    governed.check_accounting().unwrap();
    gov.check_accounting().unwrap();
    assert!(
        gov.shed_steps() > 0,
        "queue pressure from the stalled worker must reach the governor"
    );
}

/// The stepped twin of [`callback_stall_sheds_without_collateral_damage`]:
/// the same plan, read off the runtime's NIC in virtual time (each 5 ms
/// item delay holds the heavy subscription's workers for 5 000 steps),
/// and a governor and monitor ticking on the virtual clock. Shedding is
/// contained, the governor sheds on dispatch occupancy alone, and the
/// governed run replays bit for bit from its seed: samples, governor
/// events, flight dump and digests.
#[test]
fn stepped_callback_stall_sheds_without_collateral_damage() {
    use retina_core::{
        DispatchMode, GovernorAction, GovernorConfig, MultiRuntime, RuntimeBuilder, StepConfig,
        TraceConfig, TriggerReason,
    };
    use std::time::Duration;

    let build = |plan: &FaultPlan| -> MultiRuntime<retina_core::CompiledFilter> {
        let rt = RuntimeBuilder::new(RuntimeConfig::with_cores(2))
            .subscribe_dispatched(
                "heavy",
                "ipv4 and tcp",
                DispatchMode::dedicated(4).shedding(),
                |_: ConnRecord| {},
            )
            .subscribe_named("light", "ipv4 and tcp", |_: ConnRecord| {})
            .trace(TraceConfig::default())
            .build()
            .expect("runtime");
        retina_chaos::install(rt.nic(), plan);
        rt
    };
    let cfg = StepConfig::seeded(21);
    let clean = build(&FaultPlan::new(21)).run_stepped(workload(), &cfg);
    clean.check_accounting().unwrap();
    let plan = FaultPlan::new(21).with(Fault::CallbackStall {
        sub: 0,
        start_item: 0,
        items: 150,
        delay: Duration::from_millis(5),
    });

    // Phase 1 — no governor: the stall is contained to the stalled
    // subscription's own drop counters.
    let stalled = build(&plan).run_stepped(workload(), &cfg);
    stalled.check_accounting().unwrap();
    let heavy = &stalled.subs[0];
    assert!(
        heavy.cb_dropped_full > 0,
        "a 5 ms/item stall against 4-deep shedding rings must drop"
    );
    assert_eq!(
        heavy.delivered,
        heavy.cb_executed + heavy.cb_dropped_full + heavy.cb_dropped_disconnected,
        "every heavy handoff attributed exactly once"
    );
    let light = &stalled.subs[1];
    assert_eq!(
        light.delivered, clean.subs[1].delivered,
        "an inline sibling must be untouched by another sub's stall"
    );
    assert_eq!(light.cb_dropped_full, 0);
    assert_eq!(light.delivered, light.cb_executed);
    let chaos = stalled.trace.as_ref().and_then(|t| t.flight.as_ref());
    let chaos = chaos.expect("the first injected delay froze the flight recorder");
    assert!(chaos
        .triggers
        .iter()
        .any(|t| t.reason == TriggerReason::ChaosFault && t.detail == 0));

    // Phase 2 — governed and monitored on the virtual clock.
    let governed = || {
        let mut rt = build(&plan);
        rt.set_monitor(Duration::from_millis(2), Vec::new());
        rt.set_governor(GovernorConfig {
            interval: Duration::from_millis(2),
            // Only the dispatch-occupancy input may trigger: park the other
            // thresholds out of reach.
            mempool_high: 2.0,
            ring_high: 2.0,
            loss_tolerance: u64::MAX,
            dispatch_high: 0.5,
            ..GovernorConfig::default()
        });
        rt.run_stepped(workload(), &cfg)
    };
    let (a, b) = (governed(), governed());
    let gov = a.governor.as_ref().expect("a governed run");
    a.check_accounting().unwrap();
    gov.check_accounting().unwrap();
    assert!(
        gov.shed_steps() > 0,
        "queue pressure from the stalled worker must reach the governor"
    );
    for e in (gov.events.iter()).filter(|e| e.action == GovernorAction::ShedParsing) {
        let s = e.signals;
        assert_eq!(
            (s.mempool_occupancy, s.ring_occupancy, s.lost_delta),
            (0.0, 0.0, 0)
        );
        assert!(s.dispatch_occupancy >= 0.5, "{s:?}");
    }
    assert!(!a.samples.is_empty(), "the monitor ticked in virtual time");
    assert_eq!(a.samples, b.samples);
    assert_eq!(gov.events, b.governor.as_ref().unwrap().events);
    assert_eq!(a.deterministic_digest(), b.deterministic_digest());
    let flight = |r: &RunReport| {
        r.trace
            .as_ref()
            .unwrap()
            .flight
            .as_ref()
            .unwrap()
            .to_bytes()
    };
    assert_eq!(flight(&a), flight(&b));
}

/// A threaded run fires the flight recorder's `chaos-fault` trigger on
/// every delay its fault layer injects: here before each of a dedicated
/// worker's first three callbacks, each naming the subscription.
#[test]
fn threaded_callback_stall_fires_a_chaos_fault_trigger() {
    use retina_core::{DispatchMode, RuntimeBuilder, TraceConfig, TriggerReason};
    use std::time::Duration;

    let mut runtime = RuntimeBuilder::new(RuntimeConfig::with_cores(1))
        .subscribe_dispatched(
            "stalled",
            "ipv4 and tcp",
            DispatchMode::dedicated(4),
            |_: ConnRecord| {},
        )
        .trace(TraceConfig::default())
        .build()
        .expect("runtime");
    let plan = FaultPlan::new(41).with(Fault::CallbackStall {
        sub: 0,
        start_item: 0,
        items: 3,
        delay: Duration::from_millis(1),
    });
    retina_chaos::install(runtime.nic(), &plan);
    let report = runtime.run(PreloadedSource::new(workload().to_vec()));
    runtime.nic().clear_fault_hooks();
    report.check_accounting().unwrap();
    let flight = report.trace.expect("traced run").flight;
    let flight = flight.expect("an injected delay froze the flight recorder");
    let chaos: Vec<_> = (flight.triggers.iter())
        .filter(|t| t.reason == TriggerReason::ChaosFault)
        .map(|t| t.detail)
        .collect();
    assert_eq!(chaos, [0, 0, 0], "triggers: {:?}", flight.triggers);
}

/// A governed run watches its own loss: the governor's monitor tick
/// fires the flight recorder's `drop-burst` trigger when one interval
/// loses more frames than the tracer's `drop_burst_threshold`. Here a
/// slowed worker behind a 128-slot ring and an unpaced wire loses
/// frames for hundreds of 1 ms intervals, against a threshold of 0.
#[test]
fn governed_run_that_loses_frames_fires_a_drop_burst() {
    use retina_core::{RuntimeBuilder, TraceConfig, TriggerReason};
    use std::time::Duration;

    let mut config = RuntimeConfig::with_cores(1);
    config.paced_ingest = false;
    config.device.ring_capacity = 128;
    let mut runtime = RuntimeBuilder::new(config)
        .subscribe("ipv4 and tcp", |_: ConnRecord| {})
        .trace(TraceConfig {
            drop_burst_threshold: 0,
            ..TraceConfig::default()
        })
        .build()
        .expect("runtime");
    let plan = FaultPlan::new(31).with(Fault::WorkerSlowdown {
        core: 0,
        start_poll: 0,
        polls: 200,
        delay: Duration::from_millis(1),
    });
    retina_chaos::install(runtime.nic(), &plan);
    // Only the drop-burst trigger may fire: every shed input is parked
    // out of reach.
    runtime.set_governor(GovernorConfig {
        interval: Duration::from_millis(1),
        mempool_high: 2.0,
        ring_high: 2.0,
        dispatch_high: 2.0,
        loss_tolerance: u64::MAX,
        ..GovernorConfig::default()
    });
    let report = runtime.run(PreloadedSource::new(workload().to_vec()));
    runtime.nic().clear_fault_hooks();
    assert_eq!(report.governor.as_ref().unwrap().shed_steps(), 0);
    report.check_accounting().unwrap();
    assert!(
        report.nic.lost() > 0,
        "the slowed worker's ring never overflowed"
    );
    let flight = report
        .trace
        .expect("traced run")
        .flight
        .expect("a trigger froze the flight recorder");
    assert!(
        flight
            .triggers
            .iter()
            .any(|t| t.reason == TriggerReason::DropBurst && t.detail > 0),
        "no drop-burst trigger: {:?}",
        flight.triggers
    );
}

/// Injected parser panics are contained: the worker survives, panics
/// are counted, and accounting still balances.
#[test]
fn parser_panics_are_recoverable() {
    let _guard = ARM_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    with_quiet_panics(|| {
        // `install` arms the switch from the plan; arming up front too
        // exercises the idempotent path.
        arm_parser_panics(3);
        let plan = FaultPlan::new(13).with(Fault::ParserPanic { modulus: 3 });
        let mut registry = ParserRegistry::empty();
        registry.register("tls", chaos_parser_factory);
        let report = chaos_run(&plan, Some(registry));
        assert!(
            report.cores.parser_panics > 0,
            "modulus 3 over thousands of segments must panic somewhere"
        );
        report.check_accounting().unwrap();
    });
}
