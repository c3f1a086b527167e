//! The closed-loop overload governor.
//!
//! The paper's §6.1 rate control — remapping RETA buckets to a sink
//! core — is chosen *offline* by the zero-loss search in the bench
//! harness. This module closes the loop at run time: the governor that
//! [`crate::MultiRuntime::set_governor`] configures is a stage of a
//! monitor tick on the run's own thread. Each interval the tick builds
//! [`PressureSignals`] from the readings it already takes (mempool
//! occupancy, per-queue ring depth, drop deltas, dispatch queue
//! occupancy) and the governor reacts:
//!
//! ```text
//!            pressure                    pressure
//!   FULL ───────────────▶ DEGRADED ───────────────▶ SHEDDING
//!  (sink=floor,           (parsing shed,            (sink raised one
//!   parsing on)            sink=floor)               step per interval,
//!     ▲                       ▲                      up to ceiling)
//!     │   calm ≥ cooldown     │   calm ≥ cooldown,      │
//!     └───────────────────────┴── sink back at floor ◀──┘
//! ```
//!
//! Two rules keep it stable: **hysteresis** (pressure enters above the
//! high watermarks but clears only below the low watermarks, so the
//! governor never chatters around a single threshold) and **cooldown**
//! (restores need `cooldown` consecutive calm intervals, and every
//! sink change is bounded by one `step` per interval, so the sink
//! fraction cannot oscillate). Session-parsing work is shed before any
//! packet-delivery work, and full fidelity is restored in the reverse
//! order once pressure clears. Every decision is a [`GovernorEvent`] in
//! the brain's decision stream, and [`GovernorReport::check_accounting`]
//! replays the stream to prove the shed/restore ledger balances exactly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use retina_nic::VirtualNic;
use retina_telemetry::{Tracer, TriggerReason};

use crate::runtime::fire_trigger;

/// One governor decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GovernorAction {
    /// Stopped feeding application-layer parsers (first shedding tier:
    /// session parsing is sacrificed before packet delivery).
    ShedParsing,
    /// Resumed application-layer parsing (last restore tier).
    RestoreParsing,
    /// Raised the RETA sink fraction by one step (second shedding
    /// tier: divert whole flows before losing packets uncontrolled).
    SinkRaise,
    /// Lowered the RETA sink fraction by one step toward the floor.
    SinkLower,
    /// Observed pressure (or calm) but made no change this interval
    /// (already at a bound, or waiting out the cooldown).
    Hold,
}

impl GovernorAction {
    /// Stable label for exporters.
    pub fn label(&self) -> &'static str {
        match self {
            GovernorAction::ShedParsing => "shed_parsing",
            GovernorAction::RestoreParsing => "restore_parsing",
            GovernorAction::SinkRaise => "sink_raise",
            GovernorAction::SinkLower => "sink_lower",
            GovernorAction::Hold => "hold",
        }
    }
}

/// The pressure signals a decision was based on, captured at decision
/// time so the event stream is self-contained.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PressureSignals {
    /// Mempool occupancy as a fraction of capacity.
    pub mempool_occupancy: f64,
    /// Deepest RX ring's occupancy as a fraction of its capacity.
    pub ring_occupancy: f64,
    /// Frames lost (ring overflow + mempool exhaustion) since the
    /// previous interval.
    pub lost_delta: u64,
    /// Worst callback-dispatch queue occupancy across subscriptions as
    /// a fraction of ring capacity (0 when every subscription is
    /// inline).
    pub dispatch_occupancy: f64,
}

/// One entry in the governor's decision stream.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorEvent {
    /// 0-based sampling interval the decision was made in.
    pub interval: u64,
    /// What the governor did.
    pub action: GovernorAction,
    /// Sink fraction before the decision.
    pub sink_before: f64,
    /// Sink fraction after the decision.
    pub sink_after: f64,
    /// Whether parsing is shed after the decision.
    pub parsing_shed: bool,
    /// The signals the decision keyed off.
    pub signals: PressureSignals,
}

impl GovernorEvent {
    /// Renders the event as a single log line.
    pub fn to_log_line(&self) -> String {
        format!(
            "governor[{:>4}] {:<15} sink {:.3} -> {:.3}  parsing_shed={}  \
             (mempool {:.0}%, ring {:.0}%, dispatch {:.0}%, lost {})",
            self.interval,
            self.action.label(),
            self.sink_before,
            self.sink_after,
            self.parsing_shed,
            self.signals.mempool_occupancy * 100.0,
            self.signals.ring_occupancy * 100.0,
            self.signals.dispatch_occupancy * 100.0,
            self.signals.lost_delta,
        )
    }
}

/// Verifies the internal consistency of a governor decision stream:
///
/// 1. the sink-fraction trace is continuous (each event's `sink_before`
///    equals the previous event's `sink_after`),
/// 2. every per-interval change is bounded by `max_step` (the
///    no-oscillation guarantee),
/// 3. parsing shed/restore events strictly alternate, starting with a
///    shed,
/// 4. the final sink fraction equals
///    `start + (raises - lowers) * observed steps` — i.e. shed and
///    restore work is accounted exactly, nothing drifts.
///
/// Returns the first violated invariant on failure.
pub fn check_governor_accounting(events: &[GovernorEvent], max_step: f64) -> Result<(), String> {
    let mut prev_after: Option<f64> = None;
    let mut parsing_shed = false;
    for (i, e) in events.iter().enumerate() {
        if let Some(prev) = prev_after {
            if (e.sink_before - prev).abs() > 1e-9 {
                return Err(format!(
                    "event {i}: sink_before {} != previous sink_after {prev}",
                    e.sink_before
                ));
            }
        }
        let delta = (e.sink_after - e.sink_before).abs();
        if delta > max_step + 1e-9 {
            return Err(format!(
                "event {i}: sink change {delta:.4} exceeds max step {max_step:.4}"
            ));
        }
        match e.action {
            GovernorAction::SinkRaise => {
                if e.sink_after < e.sink_before - 1e-9 {
                    return Err(format!("event {i}: raise lowered the sink fraction"));
                }
            }
            GovernorAction::SinkLower => {
                if e.sink_after > e.sink_before + 1e-9 {
                    return Err(format!("event {i}: lower raised the sink fraction"));
                }
            }
            GovernorAction::ShedParsing => {
                if parsing_shed {
                    return Err(format!("event {i}: shed while already shed"));
                }
                parsing_shed = true;
            }
            GovernorAction::RestoreParsing => {
                if !parsing_shed {
                    return Err(format!("event {i}: restore without a prior shed"));
                }
                parsing_shed = false;
            }
            GovernorAction::Hold => {
                if delta > 1e-9 {
                    return Err(format!("event {i}: hold changed the sink fraction"));
                }
            }
        }
        if e.parsing_shed != parsing_shed {
            return Err(format!(
                "event {i}: parsing_shed flag {} disagrees with replayed state {}",
                e.parsing_shed, parsing_shed
            ));
        }
        prev_after = Some(e.sink_after);
    }
    Ok(())
}

/// Shared shedding flags: written by the governor, read by the worker
/// cores each burst. Lives outside the governor so a runtime can be
/// constructed (and workers started) before any governor exists.
#[derive(Debug, Default)]
pub struct ShedState {
    parsing_shed: AtomicBool,
}

impl ShedState {
    /// Creates the full-fidelity state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether session-parsing work is currently shed.
    pub fn parsing_shed(&self) -> bool {
        self.parsing_shed.load(Ordering::Relaxed)
    }

    /// Sets the parsing-shed flag (governor use).
    pub fn set_parsing_shed(&self, shed: bool) {
        self.parsing_shed.store(shed, Ordering::Relaxed);
    }
}

/// Governor tuning.
#[derive(Debug, Clone)]
pub struct GovernorConfig {
    /// Sampling cadence (the monitor interval).
    pub interval: Duration,
    /// Sink fraction the governor never goes below (full fidelity).
    pub floor: f64,
    /// Sink fraction the governor never exceeds (even under sustained
    /// overload some traffic keeps flowing).
    pub ceiling: f64,
    /// Maximum sink-fraction change per interval (bounds oscillation).
    pub step: f64,
    /// Mempool occupancy fraction above which pressure is declared.
    pub mempool_high: f64,
    /// Deepest-ring occupancy fraction above which pressure is declared.
    pub ring_high: f64,
    /// Worst callback-dispatch queue occupancy above which pressure is
    /// declared (a saturated dispatch worker backs its rings up long
    /// before frames are lost).
    pub dispatch_high: f64,
    /// Frames lost per interval above which pressure is declared.
    pub loss_tolerance: u64,
    /// Hysteresis: pressure clears only below `high * hysteresis`
    /// (must be in `(0, 1]`; lower = wider deadband).
    pub hysteresis: f64,
    /// Consecutive calm intervals required before each restore step.
    pub cooldown: u32,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            interval: Duration::from_millis(5),
            floor: 0.0,
            ceiling: 0.95,
            step: 0.15,
            mempool_high: 0.75,
            ring_high: 0.5,
            dispatch_high: 0.75,
            loss_tolerance: 0,
            hysteresis: 0.6,
            cooldown: 2,
        }
    }
}

/// Result of a finished governor session: a governed run's
/// [`crate::RunReport::governor`].
#[derive(Debug, Clone)]
pub struct GovernorReport {
    /// The full decision stream, in order.
    pub events: Vec<GovernorEvent>,
    /// Sampling intervals observed.
    pub intervals: u64,
    /// Highest sink fraction reached.
    pub max_sink_fraction: f64,
    /// Sink fraction when the governor stopped.
    pub final_sink_fraction: f64,
    /// Whether parsing was still shed when the governor stopped.
    pub final_parsing_shed: bool,
    /// Intervals in which pressure was observed.
    pub pressure_intervals: u64,
    /// Interval index at which full fidelity was last restored (sink
    /// back at the floor, parsing resumed), if the run ended restored
    /// after having shed anything.
    pub recovered_at_interval: Option<u64>,
    /// The configured per-interval step bound (for accounting checks).
    pub step: f64,
    /// The configured floor.
    pub floor: f64,
}

impl GovernorReport {
    /// True when the run ended at full fidelity (sink at the floor,
    /// parsing restored).
    pub fn recovered(&self) -> bool {
        !self.final_parsing_shed && (self.final_sink_fraction - self.floor).abs() < 1e-9
    }

    /// Total shed decisions (parsing sheds + sink raises).
    pub fn shed_steps(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e.action,
                    GovernorAction::ShedParsing | GovernorAction::SinkRaise
                )
            })
            .count() as u64
    }

    /// Total restore decisions (sink lowers + parsing restores).
    pub fn restore_steps(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e.action,
                    GovernorAction::RestoreParsing | GovernorAction::SinkLower
                )
            })
            .count() as u64
    }

    /// Replays the decision stream and verifies the shed/restore
    /// ledger: the trace is continuous, every change is bounded by the
    /// configured step, shed/restore alternate correctly, and — when
    /// the run ended recovered — shed steps equal restore steps
    /// exactly. Returns the first violated invariant.
    pub fn check_accounting(&self) -> Result<(), String> {
        check_governor_accounting(&self.events, self.step)?;
        if self.recovered() && self.shed_steps() != self.restore_steps() {
            return Err(format!(
                "recovered run has unbalanced ledger: {} shed steps vs {} restore steps",
                self.shed_steps(),
                self.restore_steps()
            ));
        }
        if self.final_sink_fraction < self.floor - 1e-9 {
            return Err(format!(
                "final sink fraction {} fell below the floor {}",
                self.final_sink_fraction, self.floor
            ));
        }
        Ok(())
    }
}

/// The governor's decision core, separated from the monitor tick so it
/// can be driven synchronously (deterministic tests) or on a live
/// cadence. One call = one interval.
#[derive(Debug)]
pub struct GovernorBrain {
    config: GovernorConfig,
    sink: f64,
    parsing_shed: bool,
    calm_intervals: u32,
    interval: u64,
    max_sink: f64,
    pressure_intervals: u64,
    recovered_at: Option<u64>,
    ever_shed: bool,
    events: Vec<GovernorEvent>,
}

impl GovernorBrain {
    /// Creates a brain starting at full fidelity (sink at the floor).
    pub fn new(config: GovernorConfig) -> Self {
        let sink = config.floor;
        GovernorBrain {
            config,
            sink,
            parsing_shed: false,
            calm_intervals: 0,
            interval: 0,
            max_sink: sink,
            pressure_intervals: 0,
            recovered_at: None,
            ever_shed: false,
            events: Vec::new(),
        }
    }

    /// Current sink fraction.
    pub fn sink_fraction(&self) -> f64 {
        self.sink
    }

    /// Whether parsing is currently shed.
    pub fn parsing_shed(&self) -> bool {
        self.parsing_shed
    }

    /// Classifies the signals: `Some(true)` = pressure (above the high
    /// watermarks), `Some(false)` = calm (below the low watermarks),
    /// `None` = inside the hysteresis deadband.
    fn classify(&self, s: &PressureSignals) -> Option<bool> {
        let c = &self.config;
        if s.mempool_occupancy >= c.mempool_high
            || s.ring_occupancy >= c.ring_high
            || s.dispatch_occupancy >= c.dispatch_high
            || s.lost_delta > c.loss_tolerance
        {
            return Some(true);
        }
        if s.mempool_occupancy < c.mempool_high * c.hysteresis
            && s.ring_occupancy < c.ring_high * c.hysteresis
            && s.dispatch_occupancy < c.dispatch_high * c.hysteresis
            && s.lost_delta == 0
        {
            return Some(false);
        }
        None
    }

    /// Consumes one interval's signals and returns the decision. At
    /// most one action per interval, so sink-fraction movement is
    /// bounded by `step` per interval by construction.
    pub fn decide(&mut self, signals: PressureSignals) -> GovernorEvent {
        let c = self.config.clone();
        let before = self.sink;
        let action = match self.classify(&signals) {
            Some(true) => {
                self.pressure_intervals += 1;
                self.calm_intervals = 0;
                if !self.parsing_shed {
                    // Tier 1: sacrifice session parsing first.
                    self.parsing_shed = true;
                    self.ever_shed = true;
                    GovernorAction::ShedParsing
                } else if self.sink < c.ceiling - 1e-9 {
                    // Tier 2: divert whole flows at the NIC.
                    self.sink = (self.sink + c.step).min(c.ceiling);
                    self.ever_shed = true;
                    GovernorAction::SinkRaise
                } else {
                    GovernorAction::Hold
                }
            }
            Some(false) => {
                self.calm_intervals += 1;
                if self.calm_intervals >= c.cooldown {
                    if self.sink > c.floor + 1e-9 {
                        // Restore packet delivery first...
                        self.calm_intervals = 0;
                        self.sink = (self.sink - c.step).max(c.floor);
                        GovernorAction::SinkLower
                    } else if self.parsing_shed {
                        // ...then resume parsing (reverse shed order).
                        self.calm_intervals = 0;
                        self.parsing_shed = false;
                        GovernorAction::RestoreParsing
                    } else {
                        GovernorAction::Hold
                    }
                } else {
                    GovernorAction::Hold
                }
            }
            None => {
                // Deadband: hold position, don't accumulate calm.
                self.calm_intervals = 0;
                GovernorAction::Hold
            }
        };
        self.max_sink = self.max_sink.max(self.sink);
        if self.ever_shed
            && !self.parsing_shed
            && (self.sink - c.floor).abs() < 1e-9
            && matches!(
                action,
                GovernorAction::RestoreParsing | GovernorAction::SinkLower
            )
        {
            self.recovered_at = Some(self.interval);
        }
        let event = GovernorEvent {
            interval: self.interval,
            action,
            sink_before: before,
            sink_after: self.sink,
            parsing_shed: self.parsing_shed,
            signals,
        };
        self.interval += 1;
        self.events.push(event.clone());
        event
    }

    /// Finishes the session, producing the report.
    pub fn into_report(self) -> GovernorReport {
        GovernorReport {
            events: self.events,
            intervals: self.interval,
            max_sink_fraction: self.max_sink,
            final_sink_fraction: self.sink,
            final_parsing_shed: self.parsing_shed,
            pressure_intervals: self.pressure_intervals,
            recovered_at_interval: self.recovered_at,
            step: self.config.step,
            floor: self.config.floor,
        }
    }
}

/// The governor as a stage of the monitor tick: the decision core plus
/// the runtime state its decisions act on.
pub(crate) struct GovernorStage {
    pub(crate) brain: GovernorBrain,
    shed: Arc<ShedState>,
}

impl GovernorStage {
    /// Takes over `nic`'s RETA and `shed` at full fidelity: the sink
    /// fraction is reset to the configured floor and parsing resumes.
    pub(crate) fn new(config: GovernorConfig, nic: &VirtualNic, shed: Arc<ShedState>) -> Self {
        nic.set_sink_fraction(config.floor);
        shed.set_parsing_shed(false);
        GovernorStage {
            brain: GovernorBrain::new(config),
            shed,
        }
    }

    /// Intervals a calm walk back to full fidelity takes from here at
    /// most: `cooldown` calm intervals before each sink lower and before
    /// the parsing restore.
    pub(crate) fn walk_back(&self) -> u32 {
        let (b, c) = (&self.brain, &self.brain.config);
        let (mut sink, mut steps) = (b.sink, u32::from(b.parsing_shed));
        while sink > c.floor + 1e-9 {
            sink = (sink - c.step).max(c.floor);
            steps += 1;
        }
        steps * c.cooldown.max(1)
    }

    /// Decides on one interval's signals and applies the decision to
    /// `nic`'s RETA and the runtime's [`ShedState`]. A parsing shed
    /// freezes `tracer`'s flight recorder with a
    /// [`TriggerReason::GovernorShed`] trigger, so the events leading up
    /// to the overload survive into the run's [`crate::RunReport`].
    pub(crate) fn step(
        &mut self,
        signals: PressureSignals,
        nic: &VirtualNic,
        tracer: Option<&Tracer>,
    ) {
        let event = self.brain.decide(signals);
        match event.action {
            GovernorAction::ShedParsing | GovernorAction::RestoreParsing => {
                self.shed.set_parsing_shed(event.parsing_shed);
                if event.action == GovernorAction::ShedParsing {
                    fire_trigger(tracer, TriggerReason::GovernorShed, event.interval);
                }
            }
            GovernorAction::SinkRaise | GovernorAction::SinkLower => {
                nic.set_sink_fraction(event.sink_after);
            }
            GovernorAction::Hold => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pressure() -> PressureSignals {
        PressureSignals {
            mempool_occupancy: 0.9,
            ring_occupancy: 0.8,
            lost_delta: 10,
            dispatch_occupancy: 0.0,
        }
    }

    fn calm() -> PressureSignals {
        PressureSignals::default()
    }

    fn deadband() -> PressureSignals {
        PressureSignals {
            mempool_occupancy: 0.6, // between 0.75*0.6=0.45 and 0.75
            ring_occupancy: 0.0,
            lost_delta: 0,
            dispatch_occupancy: 0.0,
        }
    }

    #[test]
    fn sheds_parsing_before_packets() {
        let mut brain = GovernorBrain::new(GovernorConfig::default());
        assert_eq!(brain.decide(pressure()).action, GovernorAction::ShedParsing);
        assert_eq!(brain.decide(pressure()).action, GovernorAction::SinkRaise);
        assert!(brain.parsing_shed());
        assert!(brain.sink_fraction() > 0.0);
    }

    #[test]
    fn restores_in_reverse_order_after_cooldown() {
        let cfg = GovernorConfig {
            cooldown: 2,
            step: 0.5,
            ceiling: 0.5,
            ..Default::default()
        };
        let mut brain = GovernorBrain::new(cfg);
        brain.decide(pressure()); // shed parsing
        brain.decide(pressure()); // sink 0.0 -> 0.5
        assert_eq!(brain.decide(calm()).action, GovernorAction::Hold); // calm 1
        assert_eq!(brain.decide(calm()).action, GovernorAction::SinkLower); // calm 2
        assert_eq!(brain.sink_fraction(), 0.0);
        assert!(brain.parsing_shed(), "parsing restored last");
        brain.decide(calm());
        assert_eq!(brain.decide(calm()).action, GovernorAction::RestoreParsing);
        assert!(!brain.parsing_shed());
        let report = brain.into_report();
        assert!(report.recovered());
        assert_eq!(report.shed_steps(), report.restore_steps());
        report.check_accounting().unwrap();
    }

    #[test]
    fn bounded_change_per_interval() {
        let cfg = GovernorConfig {
            step: 0.1,
            ceiling: 1.0,
            ..Default::default()
        };
        let mut brain = GovernorBrain::new(cfg);
        for _ in 0..50 {
            brain.decide(pressure());
        }
        let report = brain.into_report();
        report.check_accounting().unwrap();
        for w in report.events.windows(2) {
            assert!((w[1].sink_after - w[0].sink_after).abs() <= 0.1 + 1e-9);
        }
        assert!(report.max_sink_fraction <= 1.0);
    }

    #[test]
    fn ceiling_and_floor_respected() {
        let cfg = GovernorConfig {
            floor: 0.1,
            ceiling: 0.4,
            step: 0.2,
            cooldown: 1,
            ..Default::default()
        };
        let mut brain = GovernorBrain::new(cfg);
        assert_eq!(brain.sink_fraction(), 0.1);
        for _ in 0..10 {
            brain.decide(pressure());
        }
        assert!(brain.sink_fraction() <= 0.4 + 1e-9);
        for _ in 0..20 {
            brain.decide(calm());
        }
        assert!(
            (brain.sink_fraction() - 0.1).abs() < 1e-9,
            "never below floor"
        );
        assert!(!brain.parsing_shed());
    }

    #[test]
    fn deadband_holds_without_restoring() {
        let cfg = GovernorConfig {
            cooldown: 1,
            ..Default::default()
        };
        let mut brain = GovernorBrain::new(cfg);
        brain.decide(pressure());
        brain.decide(pressure());
        let sink = brain.sink_fraction();
        for _ in 0..5 {
            assert_eq!(brain.decide(deadband()).action, GovernorAction::Hold);
        }
        assert_eq!(
            brain.sink_fraction(),
            sink,
            "deadband neither sheds nor restores"
        );
        assert!(brain.parsing_shed());
    }

    #[test]
    fn never_oscillates_on_alternating_signals() {
        // Worst case: pressure and calm strictly alternating. With
        // cooldown >= 2 the governor must never lower (calm streaks are
        // broken), so the sink ratchets monotonically to the ceiling.
        let cfg = GovernorConfig {
            cooldown: 2,
            step: 0.1,
            ..Default::default()
        };
        let mut brain = GovernorBrain::new(cfg);
        for i in 0..40 {
            let s = if i % 2 == 0 { pressure() } else { calm() };
            brain.decide(s);
        }
        let report = brain.into_report();
        report.check_accounting().unwrap();
        assert_eq!(
            report
                .events
                .iter()
                .filter(|e| e.action == GovernorAction::SinkLower)
                .count(),
            0,
            "cooldown prevents chatter"
        );
    }

    #[test]
    fn dispatch_pressure_alone_triggers_shedding() {
        // A backed-up callback queue is a pressure source in its own
        // right: no mempool, ring, or loss signal needed.
        let mut brain = GovernorBrain::new(GovernorConfig::default());
        let queue_pressure = PressureSignals {
            dispatch_occupancy: 0.8, // >= dispatch_high (0.75)
            ..PressureSignals::default()
        };
        assert_eq!(
            brain.decide(queue_pressure).action,
            GovernorAction::ShedParsing
        );
        // Inside the deadband (0.75*0.6=0.45 .. 0.75): hold, no restore.
        let queue_deadband = PressureSignals {
            dispatch_occupancy: 0.6,
            ..PressureSignals::default()
        };
        for _ in 0..4 {
            assert_eq!(brain.decide(queue_deadband).action, GovernorAction::Hold);
        }
        assert!(brain.parsing_shed());
        // Fully drained queue: calm accumulates and parsing restores.
        brain.decide(calm());
        assert_eq!(brain.decide(calm()).action, GovernorAction::RestoreParsing);
    }

    fn ev(
        interval: u64,
        action: GovernorAction,
        before: f64,
        after: f64,
        shed: bool,
    ) -> GovernorEvent {
        GovernorEvent {
            interval,
            action,
            sink_before: before,
            sink_after: after,
            parsing_shed: shed,
            signals: PressureSignals::default(),
        }
    }

    #[test]
    fn balanced_stream_passes() {
        let events = vec![
            ev(0, GovernorAction::ShedParsing, 0.1, 0.1, true),
            ev(1, GovernorAction::SinkRaise, 0.1, 0.3, true),
            ev(2, GovernorAction::Hold, 0.3, 0.3, true),
            ev(3, GovernorAction::SinkLower, 0.3, 0.1, true),
            ev(4, GovernorAction::RestoreParsing, 0.1, 0.1, false),
        ];
        check_governor_accounting(&events, 0.2).unwrap();
    }

    #[test]
    fn discontinuous_trace_fails() {
        let events = vec![
            ev(0, GovernorAction::SinkRaise, 0.1, 0.3, false),
            ev(1, GovernorAction::SinkRaise, 0.5, 0.7, false),
        ];
        assert!(check_governor_accounting(&events, 0.2).is_err());
    }

    #[test]
    fn oversized_step_fails() {
        let events = vec![ev(0, GovernorAction::SinkRaise, 0.0, 0.9, false)];
        assert!(check_governor_accounting(&events, 0.2).is_err());
    }

    #[test]
    fn double_shed_fails() {
        let events = vec![
            ev(0, GovernorAction::ShedParsing, 0.1, 0.1, true),
            ev(1, GovernorAction::ShedParsing, 0.1, 0.1, true),
        ];
        assert!(check_governor_accounting(&events, 0.2).is_err());
    }

    #[test]
    fn event_log_line() {
        let line = ev(7, GovernorAction::SinkRaise, 0.1, 0.35, true).to_log_line();
        assert!(line.contains("sink_raise"), "{line}");
        assert!(line.contains("0.100 -> 0.350"), "{line}");
    }

    #[test]
    fn shed_state_flags() {
        let s = ShedState::new();
        assert!(!s.parsing_shed());
        s.set_parsing_shed(true);
        assert!(s.parsing_shed());
    }
}
