//! Real-time run monitoring (§5.3).
//!
//! "Retina does provide logs and real-time monitoring of packet loss,
//! throughput, and memory usage that can be used as feedback to adjust
//! the filter or improve callback efficiency." This module implements
//! that feedback loop as part of a run. A sampler reads the NIC counters
//! and runtime gauges and hands each [`Sample`] to any set of
//! [`MetricSink`] exporters (log lines, CSV, JSON, Prometheus text).
//! The same tick acts on the readings: with a governor attached it turns
//! them into [`PressureSignals`] and applies the governor's decision.
//! Both drivers build the samplers [`crate::MultiRuntime::set_monitor`] and
//! [`crate::MultiRuntime::set_governor`] configure and tick them on a clock
//! they supply (ns since the run began: a threaded run's wall clock, on its
//! own thread, or a stepped run's virtual one); the run's [`RunReport`]
//! carries what they recorded.

use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use retina_nic::{PortStatsSnapshot, VirtualNic};
use retina_telemetry::{MetricSink, Sample, Tracer, TriggerReason};

use crate::governor::{GovernorStage, PressureSignals};
use crate::report::RunReport;
use crate::runtime::{fire_trigger, RuntimeGauges};

/// One observer of a run, on its driver's clock: counters-to-deltas
/// bookkeeping, the governor stage, and the fan-out to the exporters.
pub(crate) struct Sampler {
    nic: Arc<VirtualNic>,
    gauges: Arc<RuntimeGauges>,
    interval: u64,
    prev: PortStatsSnapshot,
    prev_t: u64,
    sinks: Vec<Box<dyn MetricSink>>,
    samples: Vec<Sample>,
    tracer: Option<Arc<Tracer>>,
    governor: Option<GovernorStage>,
}

impl Sampler {
    /// A sampler ticking every `interval` (at least 1 ns), first due one
    /// interval after the run began. An interval losing more frames than
    /// `tracer`'s `drop_burst_threshold` freezes its flight recorder.
    pub(crate) fn new(
        nic: Arc<VirtualNic>,
        gauges: Arc<RuntimeGauges>,
        interval: Duration,
        sinks: Vec<Box<dyn MetricSink>>,
        governor: Option<GovernorStage>,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        Sampler {
            prev: nic.stats(),
            nic,
            gauges,
            interval: u64::try_from(interval.as_nanos()).map_or(u64::MAX, |ns| ns.max(1)),
            prev_t: 0,
            sinks,
            samples: Vec::new(),
            tracer,
            governor,
        }
    }

    /// When the next tick is due.
    pub(crate) fn due(&self) -> u64 {
        self.prev_t.saturating_add(self.interval)
    }

    /// Takes one sample at `now`, acts on it and hands it to every sink.
    pub(crate) fn tick(&mut self, now: u64) -> Sample {
        let stats = self.nic.stats();
        let dt = now.saturating_sub(self.prev_t) as f64 / 1e9;
        let sample = Sample {
            elapsed_secs: now as f64 / 1e9,
            interval_secs: dt,
            gbps: ((stats.rx_bytes - self.prev.rx_bytes) as f64 * 8.0) / dt.max(1e-9) / 1e9,
            lost: stats.lost() - self.prev.lost(),
            hw_dropped: stats.hw_dropped - self.prev.hw_dropped,
            parse_failures: self.gauges.parse_failures(),
            connections: self.gauges.connections() as u64,
            state_bytes: self.gauges.state_bytes() as u64,
            mbufs_in_use: self.nic.mempool().in_use() as u64,
            mbuf_high_water: self.nic.mempool().high_water() as u64,
            sim_clock_ns: self.gauges.sim_clock_ns(),
            dispatch_depth: self.gauges.dispatch_depth(),
            conn_arena_bytes: self.gauges.conn_arena_bytes() as u64,
            config_epoch: self.gauges.config_epoch(),
            swap_pickup_lag_us: self.gauges.swap_pickup_lag_us(),
        };
        // Drop-rate burst trigger: a single interval losing more frames
        // than the tracer's threshold freezes the flight recorder.
        let tracer = self.tracer.as_deref();
        fire_trigger(tracer, TriggerReason::DropBurst, sample.lost);
        if let Some(governor) = self.governor.as_mut() {
            let capacity = self.nic.mempool().capacity();
            let signals = PressureSignals {
                mempool_occupancy: if capacity == 0 {
                    0.0
                } else {
                    sample.mbufs_in_use as f64 / capacity as f64
                },
                ring_occupancy: self.nic.max_ring_occupancy(),
                lost_delta: sample.lost,
                dispatch_occupancy: self.gauges.hub.max_occupancy(),
            };
            governor.step(signals, &self.nic, tracer);
        }
        for sink in &mut self.sinks {
            sink.on_sample(&sample);
        }
        // A governor's sampler keeps no samples: its record is the
        // decision stream, which carries each interval's signals.
        if self.governor.is_none() {
            self.samples.push(sample);
        }
        self.prev = stats;
        self.prev_t = now;
        sample
    }

    /// Hands the finished run's snapshot to every sink and closes them,
    /// then files what the sampler recorded in `report`.
    pub(crate) fn close(mut self, report: &mut RunReport) {
        if !self.sinks.is_empty() {
            let snapshot = report.telemetry();
            for sink in &mut self.sinks {
                sink.on_snapshot(&snapshot);
                sink.close();
            }
        }
        match self.governor {
            Some(stage) => report.governor = Some(stage.brain.into_report()),
            None => report.samples = self.samples,
        }
    }
}

/// The observer loop of a threaded run, on its own thread, with `clock`
/// the ns since the run began: each sampler ticks when it is due until
/// `alive` disconnects (every ingest and core thread has dropped its
/// sender on exit); then come the [`closing_ticks`], slept for.
pub(crate) fn observe(samplers: &mut [Sampler], alive: &Receiver<()>, clock: impl Fn() -> u64) {
    let until = |due: u64| Duration::from_nanos(due.saturating_sub(clock()));
    let wait = |s: &[Sampler]| until(s.iter().map(Sampler::due).min().unwrap_or(u64::MAX));
    while alive.recv_timeout(wait(samplers)) == Err(RecvTimeoutError::Timeout) {
        let now = clock();
        for sampler in samplers.iter_mut().filter(|s| s.due() <= now) {
            sampler.tick(now);
        }
    }
    closing_ticks(samplers, |due| {
        std::thread::sleep(until(due));
        clock()
    });
}

/// A run's closing ticks, once its cores have exited: every sampler takes
/// one, and a governor that still stands shed keeps ticking, for at most
/// as many intervals as a calm walk back takes, so no governor leaves the
/// NIC's RETA or the shed flag degraded. `clock(due)` is the time once
/// `due` has come (a threaded run sleeps until then).
pub(crate) fn closing_ticks(samplers: &mut [Sampler], mut clock: impl FnMut(u64) -> u64) {
    for sampler in samplers {
        sampler.tick(clock(0));
        let walk_back = |s: &Sampler| s.governor.as_ref().map_or(0, GovernorStage::walk_back);
        for _ in 0..walk_back(sampler) {
            if walk_back(sampler) == 0 {
                break;
            }
            sampler.tick(clock(sampler.due()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retina_telemetry::DispatchHub;

    #[test]
    fn sample_log_line_formats() {
        let sample = Sample {
            elapsed_secs: 5.0,
            interval_secs: 0.5,
            gbps: 42.5,
            lost: 6,
            hw_dropped: 100,
            parse_failures: 3,
            connections: 1234,
            state_bytes: 64 * 1024,
            mbufs_in_use: 77,
            mbuf_high_water: 123,
            ..Sample::default()
        };
        let line = sample.to_log_line();
        assert!(line.contains("42.50 Gbps"), "{line}");
        assert!(line.contains("conns     1234 (64 KB)"), "{line}");
        // Parse failures and interval-normalized drop rates are
        // included: 6 lost / 0.5 s and 100 hw-drops / 0.5 s.
        assert!(line.contains("parse-fail      3"), "{line}");
        assert!(line.contains("lost      6 (12.0/s)"), "{line}");
        assert!(line.contains("(200.0/s)"), "{line}");
        assert!(line.contains("peak 123"), "{line}");
    }

    fn idle_nic() -> Arc<VirtualNic> {
        Arc::new(VirtualNic::new(&retina_nic::DeviceConfig::default()))
    }

    /// The test samplers' interval: their times are supplied, never slept for.
    const INTERVAL_NS: u64 = 5_000_000;

    /// A sink-less, untraced sampler over `nic` and `gauges`.
    fn sampler(
        nic: Arc<VirtualNic>,
        gauges: Arc<RuntimeGauges>,
        governor: Option<GovernorStage>,
    ) -> Sampler {
        let interval = Duration::from_nanos(INTERVAL_NS);
        Sampler::new(nic, gauges, interval, Vec::new(), governor, None)
    }

    #[test]
    fn sample_conversion_preserves_fields() {
        // A tick copies every gauge into its sample, field for field.
        let gauges = Arc::new(RuntimeGauges::new(1, Arc::new(DispatchHub::default())));
        let stats = crate::CoreStats {
            parse_failures: 3,
            ..crate::CoreStats::default()
        };
        gauges.worker_update(0, &stats, 1234, 64 * 1024, 8192, 17);
        gauges.note_config_epoch(3);
        gauges.note_swap_pickup_lag(42);
        let s = sampler(idle_nic(), gauges, None).tick(INTERVAL_NS);
        assert_eq!(s.parse_failures, 3);
        assert_eq!(s.connections, 1234);
        assert_eq!(s.state_bytes, 64 * 1024);
        assert_eq!(s.conn_arena_bytes, 8192);
        assert_eq!(s.sim_clock_ns, 17);
        assert_eq!(s.config_epoch, 3);
        assert_eq!(s.swap_pickup_lag_us, 42);
        assert_eq!((s.lost, s.hw_dropped, s.dispatch_depth), (0, 0, 0));
    }

    #[test]
    fn every_monitor_reads_dispatch_depth() {
        // A plain sink monitor, with no governor: the depth comes from
        // the runtime's hub that its gauges hold.
        let hub = Arc::new(DispatchHub::new(&[64]));
        let gauges = Arc::new(RuntimeGauges::new(1, Arc::clone(&hub)));
        let row = hub.get(0);
        for _ in 0..3 {
            row.note_enqueued();
        }
        let s = sampler(idle_nic(), gauges, None).tick(INTERVAL_NS);
        assert_eq!(s.dispatch_depth, 3);
    }

    #[test]
    fn governed_tick_reads_pressure_and_applies_decisions() {
        use crate::governor::{GovernorAction, GovernorConfig, ShedState};
        use retina_nic::DeviceConfig;
        use retina_support::bytes::Bytes;
        use retina_wire::build::{build_tcp, TcpSpec};
        use retina_wire::TcpFlags;

        let nic = Arc::new(VirtualNic::new(&DeviceConfig {
            mempool_capacity: 8,
            ring_capacity: 64,
            ..DeviceConfig::default()
        }));
        let shed = Arc::new(ShedState::new());
        let config = GovernorConfig {
            cooldown: 2,
            ..GovernorConfig::default()
        };
        let stage = GovernorStage::new(config, &nic, Arc::clone(&shed));
        let gauges = RuntimeGauges::new(1, Arc::new(DispatchHub::default()));
        let mut sampler = sampler(Arc::clone(&nic), Arc::new(gauges), Some(stage));

        // Ten frames into an eight-buffer pool: the ring holds eight
        // (occupancy 1.0 >= mempool_high) and two are lost.
        for port in 0..10u16 {
            let frame = build_tcp(&TcpSpec {
                src: std::net::SocketAddr::from(([10, 0, 0, 1], 1000 + port)),
                dst: "10.0.0.2:443".parse().unwrap(),
                seq: 1,
                ack: 0,
                flags: TcpFlags::SYN,
                window: 64,
                ttl: 64,
                payload: b"",
            });
            nic.ingest(Bytes::from(frame), u64::from(port));
        }
        let pressured = PressureSignals {
            mempool_occupancy: nic.mempool().in_use() as f64 / nic.mempool().capacity() as f64,
            ring_occupancy: nic.max_ring_occupancy(),
            lost_delta: nic.stats().lost(),
            dispatch_occupancy: 0.0,
        };
        assert_eq!(pressured.mempool_occupancy, 1.0);
        assert_eq!(pressured.lost_delta, 2);
        sampler.tick(INTERVAL_NS);
        assert!(shed.parsing_shed(), "pressure sheds parsing");

        // Drain the ring: the pool empties and the next ticks are calm.
        let mut drained = Vec::new();
        nic.rx_burst(0, &mut drained, 64);
        drop(drained);
        sampler.tick(2 * INTERVAL_NS);
        assert!(shed.parsing_shed(), "one calm tick is inside the cooldown");
        sampler.tick(3 * INTERVAL_NS);
        assert!(
            !shed.parsing_shed(),
            "calm for the cooldown restores parsing"
        );

        let report = sampler.governor.take().unwrap().brain.into_report();
        let actions: Vec<_> = report.events.iter().map(|e| e.action).collect();
        assert_eq!(
            actions,
            [
                GovernorAction::ShedParsing,
                GovernorAction::Hold,
                GovernorAction::RestoreParsing
            ]
        );
        assert_eq!(report.events[0].signals, pressured);
        assert_eq!(report.events[1].signals, PressureSignals::default());
        report.check_accounting().unwrap();
    }

    #[test]
    fn closing_ticks_walk_a_shed_governor_back() {
        use crate::governor::{GovernorAction, GovernorConfig, ShedState};

        let nic = idle_nic();
        let shed = Arc::new(ShedState::new());
        let config = GovernorConfig {
            interval: Duration::from_millis(1),
            step: 0.5,
            cooldown: 2,
            ..GovernorConfig::default()
        };
        let mut stage = GovernorStage::new(config, &nic, Arc::clone(&shed));
        let pressure = PressureSignals {
            lost_delta: 1,
            ..PressureSignals::default()
        };
        stage.step(pressure, &nic, None);
        stage.step(pressure, &nic, None);
        assert!(shed.parsing_shed());
        assert_eq!(nic.sink_fraction(), 0.5);
        // One sink lower and the parsing restore, two calm intervals each.
        assert_eq!(stage.walk_back(), 4);
        let gauges = Arc::new(RuntimeGauges::new(1, Arc::new(DispatchHub::default())));
        let mut samplers = [sampler(Arc::clone(&nic), gauges, Some(stage))];
        // The run's cores have exited. The supplied clock reaches each
        // walk-back tick's due time without a wait.
        closing_ticks(&mut samplers, |due| due);
        assert!(!shed.parsing_shed());
        assert_eq!(nic.sink_fraction(), 0.0);
        let [sampler] = samplers;
        let report = sampler.governor.unwrap().brain.into_report();
        let actions: Vec<_> = report.events.iter().map(|e| e.action).collect();
        let walk = [GovernorAction::Hold, GovernorAction::SinkLower];
        let restore = [GovernorAction::Hold, GovernorAction::RestoreParsing];
        assert_eq!(actions[2..], [walk, restore].concat());
        assert!(report.recovered());
    }
}
