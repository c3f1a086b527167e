//! Real-time run monitoring (§5.3).
//!
//! "Retina does provide logs and real-time monitoring of packet loss,
//! throughput, and memory usage that can be used as feedback to adjust
//! the filter or improve callback efficiency." This module implements
//! that feedback loop: [`Monitor`] samples the NIC counters and runtime
//! gauges on an interval and hands each [`Sample`] to any set of
//! [`MetricSink`] exporters (log lines, CSV, JSON, Prometheus text). The
//! same tick acts on the readings: with a governor attached it turns
//! them into [`PressureSignals`] and applies the governor's decision (a
//! [`crate::Governor`] is a sink-less monitor carrying one).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use retina_nic::{PortStatsSnapshot, VirtualNic};
use retina_telemetry::{MetricSink, Sample, TelemetrySnapshot, TriggerReason};

use crate::governor::{GovernorReport, GovernorStage, PressureSignals};
use crate::runtime::{fire_trigger, RuntimeGauges, TraceHandle};

/// The sampling state proper: counters-to-deltas bookkeeping, the
/// governor stage, and the per-sample fan-out to the exporter sinks.
/// Shared (behind a mutex) between the interval thread and
/// [`Monitor::sample_now`], so tests can force a sample synchronously
/// instead of racing a wall-clock interval.
struct Sampler {
    nic: Arc<VirtualNic>,
    gauges: Arc<RuntimeGauges>,
    start: Instant,
    prev: PortStatsSnapshot,
    prev_t: Instant,
    sinks: Vec<Box<dyn MetricSink>>,
    samples: Vec<Sample>,
    trace: Option<TraceHandle>,
    governor: Option<GovernorStage>,
}

impl Sampler {
    fn new(
        nic: Arc<VirtualNic>,
        gauges: Arc<RuntimeGauges>,
        sinks: Vec<Box<dyn MetricSink>>,
    ) -> Self {
        let start = Instant::now();
        Sampler {
            prev: nic.stats(),
            nic,
            gauges,
            start,
            prev_t: start,
            sinks,
            samples: Vec::new(),
            trace: None,
            governor: None,
        }
    }

    fn tick(&mut self) -> Sample {
        let now = Instant::now();
        let stats = self.nic.stats();
        let dt = now.duration_since(self.prev_t);
        let sample = Sample {
            elapsed_secs: now.duration_since(self.start).as_secs_f64(),
            interval_secs: dt.as_secs_f64(),
            gbps: ((stats.rx_bytes - self.prev.rx_bytes) as f64 * 8.0)
                / dt.as_secs_f64().max(1e-9)
                / 1e9,
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
        if let Some(handle) = &self.trace {
            fire_trigger(handle, TriggerReason::DropBurst, sample.lost);
        }
        if let Some(governor) = self.governor.as_mut() {
            let capacity = self.nic.mempool().capacity();
            governor.step(
                PressureSignals {
                    mempool_occupancy: if capacity == 0 {
                        0.0
                    } else {
                        sample.mbufs_in_use as f64 / capacity as f64
                    },
                    ring_occupancy: self.nic.max_ring_occupancy(),
                    lost_delta: sample.lost,
                    dispatch_occupancy: self.gauges.hub.max_occupancy(),
                },
                &self.nic,
            );
        }
        for sink in &mut self.sinks {
            sink.on_sample(&sample);
        }
        // A governor's monitor keeps no samples: its record is the
        // decision stream, which carries each interval's signals.
        if self.governor.is_none() {
            self.samples.push(sample);
        }
        self.prev = stats;
        self.prev_t = now;
        sample
    }

    fn finish(&mut self, snapshot: Option<&TelemetrySnapshot>) {
        if let Some(snapshot) = snapshot {
            for sink in &mut self.sinks {
                sink.on_snapshot(snapshot);
            }
        }
        for sink in &mut self.sinks {
            sink.close();
        }
    }
}

/// A periodic sampler over a running [`crate::Runtime`]'s NIC and gauges.
pub struct Monitor {
    stop: Arc<AtomicBool>,
    final_snapshot: Arc<Mutex<Option<TelemetrySnapshot>>>,
    sampler: Arc<Mutex<Sampler>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Monitor {
    /// Starts sampling every `interval`, driving a set of exporters:
    /// each sample goes to every sink's `on_sample`; at stop time the
    /// final snapshot (if provided via [`Monitor::stop_with_snapshot`])
    /// goes to `on_snapshot`, and every sink is closed.
    pub fn start_with_sinks(
        nic: Arc<VirtualNic>,
        gauges: Arc<RuntimeGauges>,
        interval: Duration,
        sinks: Vec<Box<dyn MetricSink>>,
    ) -> Self {
        Self::spawn(Sampler::new(nic, gauges, sinks), interval)
    }

    /// A sink-less monitor whose tick drives `governor`.
    pub(crate) fn governed(
        nic: Arc<VirtualNic>,
        gauges: Arc<RuntimeGauges>,
        governor: GovernorStage,
        interval: Duration,
    ) -> Self {
        let mut sampler = Sampler::new(nic, gauges, Vec::new());
        sampler.governor = Some(governor);
        Self::spawn(sampler, interval)
    }

    /// The interval loop: sleep, then tick, until stopped; then hand the
    /// final snapshot (if any) to the sinks and close them.
    fn spawn(sampler: Sampler, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let final_snapshot: Arc<Mutex<Option<TelemetrySnapshot>>> = Arc::new(Mutex::new(None));
        let final2 = Arc::clone(&final_snapshot);
        let sampler = Arc::new(Mutex::new(sampler));
        let sampler2 = Arc::clone(&sampler);
        let handle = std::thread::spawn(move || {
            while !stop2.load(Ordering::Acquire) {
                std::thread::sleep(interval);
                sampler2.lock().unwrap().tick();
            }
            let snapshot = final2.lock().unwrap().take();
            sampler2.lock().unwrap().finish(snapshot.as_ref());
        });
        Monitor {
            stop,
            final_snapshot,
            sampler,
            handle: Some(handle),
        }
    }

    /// Adds a runtime's trace handle as an anomaly source: whenever an
    /// interval loses more frames than the installed tracer's
    /// `drop_burst_threshold`, the monitor freezes the flight recorder
    /// with a [`TriggerReason::DropBurst`] trigger.
    pub fn watch_trace(&self, handle: TraceHandle) {
        self.sampler.lock().unwrap().trace = Some(handle);
    }

    /// Takes one sample immediately on the calling thread, feeding every
    /// sink exactly as an interval tick would. This
    /// is the deterministic alternative to waiting out a wall-clock
    /// interval: a test runs the workload, calls `sample_now`, and
    /// asserts on the returned sample without any timing dependence.
    pub fn sample_now(&self) -> Sample {
        self.sampler.lock().unwrap().tick()
    }

    /// Stops the sampling thread (after its current tick, if any).
    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    /// Stops the monitor and returns every collected sample.
    pub fn stop(mut self) -> Vec<Sample> {
        self.halt();
        std::mem::take(&mut self.sampler.lock().unwrap().samples)
    }

    /// Stops a [`Monitor::governed`] monitor and returns its governor's
    /// report.
    pub(crate) fn stop_governor(mut self) -> GovernorReport {
        self.halt();
        let governor = self
            .sampler
            .lock()
            .expect("a monitor tick panicked")
            .governor
            .take();
        governor
            .expect("a governed monitor carries its governor")
            .brain
            .into_report()
    }

    /// Stops the monitor, delivering `snapshot` to every sink's
    /// `on_snapshot` before they are closed. Returns the collected
    /// samples. (Use with [`Monitor::start_with_sinks`], passing
    /// `report.telemetry()` from the finished run.)
    pub fn stop_with_snapshot(self, snapshot: TelemetrySnapshot) -> Vec<Sample> {
        *self.final_snapshot.lock().unwrap() = Some(snapshot);
        self.stop()
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.halt();
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
        let s = Sampler::new(idle_nic(), gauges, Vec::new()).tick();
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
        let monitor =
            Monitor::start_with_sinks(idle_nic(), gauges, Duration::from_millis(5), Vec::new());
        assert_eq!(monitor.sample_now().dispatch_depth, 3);
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
        let stage = GovernorStage::new(
            config,
            &nic,
            Arc::clone(&shed),
            Arc::new(std::sync::RwLock::new(None)),
        );
        let gauges = RuntimeGauges::new(1, Arc::new(DispatchHub::default()));
        let mut sampler = Sampler::new(Arc::clone(&nic), Arc::new(gauges), Vec::new());
        sampler.governor = Some(stage);

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
        sampler.tick();
        assert!(shed.parsing_shed(), "pressure sheds parsing");

        // Drain the ring: the pool empties and the next ticks are calm.
        let mut drained = Vec::new();
        nic.rx_burst(0, &mut drained, 64);
        drop(drained);
        sampler.tick();
        assert!(shed.parsing_shed(), "one calm tick is inside the cooldown");
        sampler.tick();
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
}
