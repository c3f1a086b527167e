//! The multi-core runtime (Figure 2's run-time half).
//!
//! [`MultiRuntime::run`] spawns one ingest thread (the "wire") and one
//! worker thread per configured core. The ingest thread pushes frames
//! from a [`TrafficSource`] into the virtual NIC, which applies hardware
//! flow rules and symmetric RSS; each worker polls its own RX queue and
//! runs the per-core pipeline — packet filter, connection tracker,
//! callbacks — with no cross-core communication (§5.1).
//!
//! ## One pipeline, N subscriptions
//!
//! A [`MultiRuntime`] serves any number of subscriptions in a single
//! pass: their filters are merged into one predicate trie (see
//! `retina_filter::PredicateTrie::from_sources`), so each packet is
//! filtered **once** no matter how many subscriptions are registered,
//! and each connection is tracked, reassembled, and parsed **once**,
//! with per-subscription actions decided by `SubscriptionSet` bitmaps
//! at every layer. Build one with [`RuntimeBuilder`]:
//!
//! ```no_run
//! use retina_core::{RuntimeBuilder, RuntimeConfig};
//! use retina_core::subscribables::{ConnRecord, TlsHandshakeData};
//!
//! let mut runtime = RuntimeBuilder::new(RuntimeConfig::default())
//!     .subscribe("tls", |hs: TlsHandshakeData| println!("{}", hs.tls.sni()))
//!     .subscribe("ipv4 and tcp", |c: ConnRecord| println!("{}", c.tuple))
//!     .build()
//!     .unwrap();
//! // runtime.run(source) — see retina-trafficgen for traffic sources.
//! # let _ = &mut runtime;
//! ```
//!
//! [`Runtime`] remains the single-subscription view from Figure 1; it is
//! a thin wrapper over a one-entry [`MultiRuntime`].

// Narrowing casts in this file are intentional: tick, index, and counter arithmetic narrows to compact fields by design.
#![allow(clippy::cast_possible_truncation)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use retina_filter::{CompiledFilter, FilterFns};
use retina_nic::{PortStatsSnapshot, VirtualNic};
use retina_support::bytes::Bytes;
use retina_telemetry::{DispatchHub, MetricSink, TraceConfig, Tracer, TriggerReason};

use crate::config::RuntimeConfig;
use crate::erased::{ErasedSubscription, TypedSubscription};
use crate::executor::{CoreSinks, DispatchMode};
use crate::governor::{GovernorConfig, GovernorStage, ShedState};
use crate::monitor::{observe, Sampler};
use crate::pipeline::{CorePipeline, Ingress};
use crate::reconfig::{check_table, stage_rules, ConfigEpoch, EpochState, SwapController, EXITED};
use crate::report::{Rows, RunReport};
use crate::stats::CoreStats;
use crate::subscription::Subscribable;
use crate::tracker::SubTally;

/// Fires a flight-recorder trigger into a run's tracer — a no-op when
/// tracing is off. A [`TriggerReason::DropBurst`] fires only when its
/// detail (frames lost in one interval) exceeds the tracer's
/// `drop_burst_threshold`.
pub(crate) fn fire_trigger(tracer: Option<&Tracer>, reason: TriggerReason, detail: u64) {
    if let Some(t) = tracer {
        if reason != TriggerReason::DropBurst || detail > t.config().drop_burst_threshold {
            t.trigger(reason, detail);
        }
    }
}

/// A source of timestamped frames for the virtual NIC (the "wire").
///
/// Implemented by the synthetic traffic generators in `retina-trafficgen`
/// and by pcap readers.
pub trait TrafficSource: Send {
    /// Fills `out` with the next batch of (frame, timestamp-ns) pairs.
    /// Returns `false` when the source is exhausted.
    fn next_batch(&mut self, out: &mut Vec<(Bytes, u64)>) -> bool;
}

/// One core's live gauges, on a cache line of its own so that cores
/// flushing side by side never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct CoreGauges {
    connections: AtomicU64,
    state_bytes: AtomicU64,
    conn_arena_bytes: AtomicU64,
    sim_clock_ns: AtomicU64,
    parse_failures: AtomicU64,
}

/// Live gauges the runtime updates while running (a run's monitor reads
/// them, e.g. for the Figure 8 memory series).
///
/// Each worker flushes into its own cache-line block with relaxed
/// stores, so monitoring adds no cross-core contention; readers merge
/// the blocks on demand. Every run zeroes the blocks when it starts, so
/// they describe the run in flight (or the last one). Each publish sets
/// the configuration epoch, a threaded swap its pickup lag, and the
/// dispatch depth is read live from the runtime's [`DispatchHub`].
#[derive(Debug)]
pub struct RuntimeGauges {
    cores: Box<[CoreGauges]>,
    config_epoch: AtomicU64,
    swap_pickup_lag_us: AtomicU64,
    pub(crate) hub: Arc<DispatchHub>,
}

impl RuntimeGauges {
    /// Creates gauges for `cores` workers over the runtime's dispatch hub.
    pub(crate) fn new(cores: usize, hub: Arc<DispatchHub>) -> Self {
        RuntimeGauges {
            cores: (0..cores).map(|_| CoreGauges::default()).collect(),
            config_epoch: AtomicU64::new(0),
            swap_pickup_lag_us: AtomicU64::new(0),
            hub,
        }
    }

    /// One gauge's value on every core.
    fn per_core(&self, cell: fn(&CoreGauges) -> &AtomicU64) -> impl Iterator<Item = u64> + '_ {
        self.cores
            .iter()
            .map(move |c| cell(c).load(Ordering::Relaxed))
    }

    /// Connections currently tracked across all cores.
    pub fn connections(&self) -> usize {
        self.per_core(|c| &c.connections).sum::<u64>() as usize
    }

    /// Estimated connection-state bytes across all cores.
    pub fn state_bytes(&self) -> usize {
        self.per_core(|c| &c.state_bytes).sum::<u64>() as usize
    }

    /// Connection-arena high-water bytes summed across all cores: the
    /// peak backing-store footprint of the conn tables (arena slots plus
    /// index). Unlike [`RuntimeGauges::state_bytes`] this is a
    /// high-water mark, not a live value — arena capacity is monotonic,
    /// so it never decreases over a run.
    pub fn conn_arena_bytes(&self) -> usize {
        self.per_core(|c| &c.conn_arena_bytes).sum::<u64>() as usize
    }

    /// Maximum packet timestamp processed so far (simulation clock, ns).
    pub fn sim_clock_ns(&self) -> u64 {
        self.per_core(|c| &c.sim_clock_ns).max().unwrap_or(0)
    }

    /// L2–L4 parse failures flushed by the workers so far.
    pub fn parse_failures(&self) -> u64 {
        self.per_core(|c| &c.parse_failures).sum()
    }

    /// The configuration generation currently published to the workers
    /// (0 before the first run; bumped by each live swap).
    pub fn config_epoch(&self) -> u64 {
        self.config_epoch.load(Ordering::Relaxed)
    }

    /// Worst per-core epoch-pickup lag of the most recent live swap, in
    /// microseconds: the time from its publish to the slowest core's
    /// acknowledgment at its between-bursts safe point (0 before any).
    pub fn swap_pickup_lag_us(&self) -> u64 {
        self.swap_pickup_lag_us.load(Ordering::Relaxed)
    }

    /// Items currently queued across every callback-dispatch ring of
    /// the running table.
    pub fn dispatch_depth(&self) -> u64 {
        self.hub.total_depth()
    }

    /// Records a newly published configuration generation.
    pub(crate) fn note_config_epoch(&self, generation: u64) {
        self.config_epoch.store(generation, Ordering::Relaxed);
    }

    /// Records the worst per-core pickup lag of the swap just completed.
    pub(crate) fn note_swap_pickup_lag(&self, lag_us: u64) {
        self.swap_pickup_lag_us.store(lag_us, Ordering::Relaxed);
    }

    /// Zeroes every core's block: a run starts from nothing.
    pub(crate) fn reset_cores(&self) {
        for c in &*self.cores {
            for cell in [
                &c.connections,
                &c.state_bytes,
                &c.conn_arena_bytes,
                &c.sim_clock_ns,
                &c.parse_failures,
            ] {
                cell.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Flushes one worker's live state into its block. Called from the
    /// worker's periodic maintenance block, so per-packet paths stay
    /// atomics-free.
    pub(crate) fn worker_update(
        &self,
        core: usize,
        stats: &CoreStats,
        connections: usize,
        state_bytes: usize,
        arena_bytes: usize,
        sim_clock_ns: u64,
    ) {
        let c = &self.cores[core];
        c.connections.store(connections as u64, Ordering::Relaxed);
        c.state_bytes.store(state_bytes as u64, Ordering::Relaxed);
        c.conn_arena_bytes
            .fetch_max(arena_bytes as u64, Ordering::Relaxed);
        c.sim_clock_ns.fetch_max(sim_clock_ns, Ordering::Relaxed);
        c.parse_failures
            .store(stats.parse_failures, Ordering::Relaxed);
    }
}

/// Errors from runtime construction.
#[derive(Debug)]
pub enum RuntimeError {
    /// The filter's hardware rules were rejected by the device.
    HwFilter(String),
    /// A subscription filter failed to parse or compile.
    Filter(String),
    /// The subscription table does not line up with the merged filter.
    Subscriptions(String),
    /// The configuration asks for no RX core.
    NoCores,
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::HwFilter(msg) => write!(f, "hardware filter installation: {msg}"),
            RuntimeError::Filter(msg) => write!(f, "filter compilation: {msg}"),
            RuntimeError::Subscriptions(msg) => write!(f, "subscription table: {msg}"),
            RuntimeError::NoCores => write!(f, "a runtime needs at least one RX core (cores = 0)"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Compiles a subscription table's filter sources into one union
/// filter, analyzer first: any E-code diagnostic rejects the table with
/// the message `retina-flint` and the `filter!` macro report; W-code
/// summaries are returned alongside the compiled filter.
pub(crate) fn compile_union(
    srcs: &[&str],
    config: &RuntimeConfig,
) -> Result<(CompiledFilter, Vec<String>), String> {
    let mut warnings = Vec::new();
    // Lex/parse errors fall through to build_union below, which reports
    // them with the subscription's source text.
    if let Ok(analysis) =
        retina_filter::analyze_union(srcs, &config.filter_registry, Some(&config.device.caps))
    {
        if analysis.has_errors() {
            return Err(analysis
                .errors()
                .map(retina_filter::Diagnostic::summary)
                .collect::<Vec<_>>()
                .join("; "));
        }
        warnings = analysis
            .warnings()
            .map(retina_filter::Diagnostic::summary)
            .collect();
    }
    let filter =
        CompiledFilter::build_union(srcs, &config.filter_registry).map_err(|e| e.to_string())?;
    Ok((filter, warnings))
}

/// Builds a [`MultiRuntime`]: register any number of typed subscriptions,
/// each with its own filter and callback, then [`RuntimeBuilder::build`]
/// merges the filters into a single [`CompiledFilter`] trie so the whole
/// set is decided in one pass per packet.
pub struct RuntimeBuilder {
    config: RuntimeConfig,
    sources: Vec<String>,
    subs: Vec<Arc<dyn ErasedSubscription>>,
    modes: Vec<Option<DispatchMode>>,
    trace: Option<TraceConfig>,
}

impl RuntimeBuilder {
    /// Starts a builder over `config`.
    pub fn new(config: RuntimeConfig) -> Self {
        RuntimeBuilder {
            config,
            sources: Vec::new(),
            subs: Vec::new(),
            modes: Vec::new(),
            trace: None,
        }
    }

    /// Enables sampled per-flow causal tracing and the always-on
    /// anomaly flight recorder for every run of the built runtime (see
    /// [`retina_telemetry::trace`]).
    #[must_use]
    pub fn trace(mut self, config: TraceConfig) -> Self {
        self.trace = Some(config);
        self
    }

    /// Registers a subscription: deliver traffic matching `filter` as
    /// values of type `S` to `callback`. Named `sub<N>` in telemetry;
    /// use [`RuntimeBuilder::subscribe_named`] to pick the name.
    pub fn subscribe<S: Subscribable>(
        self,
        filter: &str,
        callback: impl Fn(S) + Send + Sync + 'static,
    ) -> Self {
        let name = format!("sub{}", self.subs.len());
        self.subscribe_named(name, filter, callback)
    }

    /// [`RuntimeBuilder::subscribe`] with an explicit telemetry name.
    pub fn subscribe_named<S: Subscribable>(
        mut self,
        name: impl Into<String>,
        filter: &str,
        callback: impl Fn(S) + Send + Sync + 'static,
    ) -> Self {
        self.sources.push(filter.to_string());
        self.subs
            .push(Arc::new(TypedSubscription::<S>::new(name, callback)));
        self.modes.push(None);
        self
    }

    /// Sets the callback execution model of the most recently registered
    /// subscription (§5.3 execution models: [`DispatchMode::Inline`],
    /// a [`DispatchMode::Shared`] pool, or a [`DispatchMode::Dedicated`]
    /// worker).
    ///
    /// # Panics
    /// Panics if no subscription has been registered yet.
    #[must_use]
    pub fn dispatch(mut self, mode: DispatchMode) -> Self {
        *self
            .modes
            .last_mut()
            .expect("dispatch() must follow a subscribe call") = Some(mode);
        self
    }

    /// Registers a subscription with an explicit dispatch mode in one
    /// call (`subscribe_named` + [`RuntimeBuilder::dispatch`]).
    pub fn subscribe_dispatched<S: Subscribable>(
        self,
        name: impl Into<String>,
        filter: &str,
        mode: DispatchMode,
        callback: impl Fn(S) + Send + Sync + 'static,
    ) -> Self {
        self.subscribe_named(name, filter, callback).dispatch(mode)
    }

    /// Merges the registered filters and builds the runtime. The merged
    /// trie is compiled exactly once; hardware rules are synthesized from
    /// it (the union of every subscription's rules, deduplicated).
    ///
    /// The semantic analyzer runs first, against the configured registry
    /// and the device's capabilities: any E-code diagnostic (unsatisfiable
    /// conjunction, contradictory constraints, a filter with no satisfiable
    /// disjunct, …) rejects the build with [`RuntimeError::Filter`] carrying
    /// the same code and message `retina-flint` and the `filter!` macro
    /// report. W-code warnings are recorded on the runtime and surfaced in
    /// every [`RunReport::filter_warnings`].
    pub fn build(self) -> Result<MultiRuntime<CompiledFilter>, RuntimeError> {
        check_table(&self.subs, None).map_err(RuntimeError::Subscriptions)?;
        let srcs: Vec<&str> = self.sources.iter().map(String::as_str).collect();
        let (filter, warnings) =
            compile_union(&srcs, &self.config).map_err(RuntimeError::Filter)?;
        let mut rt = MultiRuntime::new(self.config, filter, self.subs)?;
        rt.filter_warnings = warnings;
        for (i, mode) in self.modes.into_iter().enumerate() {
            if let Some(mode) = mode {
                rt.set_dispatch_mode(i, mode);
            }
        }
        if let Some(tc) = self.trace {
            rt.set_trace_config(tc);
        }
        Ok(rt)
    }
}

/// The Retina runtime: N subscriptions bound to a virtual NIC and worker
/// cores, served by one shared pipeline.
pub struct MultiRuntime<F: FilterFns + 'static> {
    pub(crate) config: RuntimeConfig,
    pub(crate) filter: Arc<F>,
    pub(crate) subs: Arc<[Arc<dyn ErasedSubscription>]>,
    pub(crate) modes: Arc<[DispatchMode]>,
    nic: Arc<VirtualNic>,
    shed: Arc<ShedState>,
    epochs: Arc<EpochState<F>>,
    filter_warnings: Vec<String>,
    pub(crate) trace_config: Option<TraceConfig>,
    /// The next threaded run's monitor: its interval and exporters.
    monitor: Option<(Duration, Vec<Box<dyn MetricSink>>)>,
    /// The next threaded run's governor.
    governor: Option<GovernorConfig>,
}

impl<F: FilterFns + 'static> MultiRuntime<F> {
    /// Creates a runtime from a configuration, a (possibly merged)
    /// filter, and the subscription table the filter was built for.
    ///
    /// The filter is used as-is: hardware rules come from
    /// [`FilterFns::hw_rules`], so the filter is compiled exactly once
    /// (interpreted filters hold their trie; macro-generated filters
    /// re-derive it here, once, instead of per-call).
    pub fn new(
        config: RuntimeConfig,
        filter: F,
        subs: Vec<Arc<dyn ErasedSubscription>>,
    ) -> Result<Self, RuntimeError> {
        check_table(&subs, Some(filter.num_subscriptions()))
            .map_err(RuntimeError::Subscriptions)?;
        if config.cores == 0 {
            return Err(RuntimeError::NoCores);
        }
        let mut device = config.device.clone();
        device.num_queues = config.cores;
        let nic = Arc::new(VirtualNic::new(&device));
        // Synthesize device-compatible rules (§4.1) straight from the
        // filter — for a merged filter, the deduplicated union of every
        // subscription's rules.
        stage_rules(&nic, &filter, &config).map_err(RuntimeError::HwFilter)?;
        let modes = vec![DispatchMode::Inline; subs.len()].into();
        let hub = Arc::new(DispatchHub::new(&vec![0u64; subs.len()]));
        let cores = usize::from(config.cores);
        let gauges = Arc::new(RuntimeGauges::new(cores, hub));
        let epochs = Arc::new(EpochState::new(cores, Some(Arc::clone(&nic)), gauges));
        Ok(MultiRuntime {
            config,
            filter: Arc::new(filter),
            subs: subs.into(),
            modes,
            nic,
            shed: Arc::new(ShedState::new()),
            epochs,
            filter_warnings: Vec::new(),
            trace_config: None,
            monitor: None,
            governor: None,
        })
    }

    /// Enables (or reconfigures) per-flow tracing for subsequent runs.
    /// Every [`MultiRuntime::run`] / [`MultiRuntime::run_stepped`] then
    /// builds a fresh [`Tracer`] and attaches its
    /// [`TraceReport`](retina_telemetry::TraceReport) to the returned
    /// [`RunReport`].
    pub fn set_trace_config(&mut self, config: TraceConfig) {
        self.trace_config = Some(config);
    }

    /// Monitors the next run, threaded or stepped: every `interval` while
    /// it is in flight, and once more after its cores have exited, a
    /// [`Sample`](retina_telemetry::Sample) goes to every sink's
    /// `on_sample`; then the run's final snapshot
    /// ([`RunReport::telemetry`]) goes to `on_snapshot`, every sink is
    /// closed, and the samples land in [`RunReport::samples`]. A run
    /// that loses more frames in one interval than its tracer's
    /// `drop_burst_threshold` fires [`TriggerReason::DropBurst`].
    pub fn set_monitor(&mut self, interval: Duration, sinks: Vec<Box<dyn MetricSink>>) {
        self.monitor = Some((interval, sinks));
    }

    /// Sets subscription `i`'s callback execution model (effective at
    /// the next [`MultiRuntime::run`]).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn set_dispatch_mode(&mut self, i: usize, mode: DispatchMode) {
        Arc::make_mut(&mut self.modes)[i] = mode;
    }

    /// Live per-subscription dispatch stats (queue depth, drops) of the
    /// table that is running — membership follows every live swap; the
    /// governor samples this as its queue-pressure input.
    pub fn dispatch_hub(&self) -> Arc<DispatchHub> {
        Arc::clone(&self.epochs.gauges.hub)
    }

    /// Filter-analyzer warnings recorded at build time (also copied into
    /// every [`RunReport`] this runtime produces).
    pub fn filter_warnings(&self) -> &[String] {
        &self.filter_warnings
    }

    /// The virtual NIC (for sink-fraction control and port stats).
    pub fn nic(&self) -> &Arc<VirtualNic> {
        &self.nic
    }

    /// Live gauges for external monitoring.
    pub fn gauges(&self) -> Arc<RuntimeGauges> {
        Arc::clone(&self.epochs.gauges)
    }

    /// The runtime's shedding flags (shared with workers; a governor —
    /// or a test — flips them and workers pick the change up on their
    /// next burst).
    pub fn shed_state(&self) -> Arc<ShedState> {
        Arc::clone(&self.shed)
    }

    /// Governs the next run, threaded or stepped, against overload; its
    /// decision stream lands in [`RunReport::governor`].
    ///
    /// The governor owns the RETA from the run's start: the NIC's sink
    /// fraction is reset to the configured floor. It is a stage of a
    /// sink-less monitor tick every `config.interval`, with the dispatch
    /// hub's occupancy as a pressure input. Shed decisions fire
    /// [`TriggerReason::GovernorShed`], and an interval losing more
    /// frames than the tracer's `drop_burst_threshold` fires
    /// [`TriggerReason::DropBurst`], into the run's tracer.
    pub fn set_governor(&mut self, config: GovernorConfig) {
        self.governor = Some(config);
    }

    /// The next run's samplers, threaded or stepped, as configured by
    /// [`MultiRuntime::set_monitor`] and [`MultiRuntime::set_governor`].
    pub(crate) fn samplers(&mut self, tracer: Option<&Arc<Tracer>>) -> Vec<Sampler> {
        let (monitor, governor) = (self.monitor.take(), self.governor.take());
        let sampler = |interval, sinks, stage| {
            let (nic, gauges) = (Arc::clone(&self.nic), self.gauges());
            Sampler::new(nic, gauges, interval, sinks, stage, tracer.cloned())
        };
        let governor = governor.map(|config| {
            let interval = config.interval;
            let stage = GovernorStage::new(config, &self.nic, Arc::clone(&self.shed));
            sampler(interval, Vec::new(), Some(stage))
        });
        let monitor = monitor.map(|(interval, sinks)| sampler(interval, sinks, None));
        monitor.into_iter().chain(governor).collect()
    }

    /// Runs the pipeline over a traffic source to completion, returning
    /// aggregate statistics. The run's own thread observes it meanwhile:
    /// it ticks the monitor and the governor, if set, when each is due.
    pub fn run(&mut self, source: impl TrafficSource + 'static) -> RunReport {
        let ingest_done = Arc::new(AtomicBool::new(false));
        let start = Instant::now();
        let clock = move || start.elapsed().as_nanos() as u64;

        // Fresh tracer per run (lanes are sized for this run's core and
        // worker counts: one per dedicated worker, one for the pool).
        let tracer = self.trace_config.clone().map(|tc| {
            let cores = usize::from(self.config.cores);
            Arc::new(Tracer::new(tc, cores, self.subs.len() + 1, Arc::new(clock)))
        });
        let mut samplers = self.samplers(tracer.as_ref());
        // Every ingest and core thread holds a sender until it exits.
        let (alive, all_exited) = std::sync::mpsc::channel::<()>();

        // Epoch 0: stage this run's initial configuration — its hardware
        // rules, and its callback execution model (§5.3): per-subscription
        // dispatch inline on the RX core, to a shared worker pool, or to a
        // dedicated worker, each fed over per-(core, subscription) SPSC
        // rings — and publish it, so cores and any SwapController share
        // one view. Its subscriptions open the run's row table. Staged
        // before the first frame is ingested: the NIC may still hold an
        // earlier run's rules (a swap's), which must drop nothing of this
        // run.
        self.epochs.open(self, tracer.as_ref());

        // Ingest thread: the wire feeding the NIC.
        let ingest = {
            let nic = Arc::clone(&self.nic);
            let done = Arc::clone(&ingest_done);
            let paced = self.config.paced_ingest;
            let mut source = source;
            let alive = alive.clone();
            std::thread::spawn(move || {
                let _alive = alive;
                let mut batch: Vec<(Bytes, u64)> = Vec::with_capacity(512);
                let mut max_ts = 0u64;
                loop {
                    batch.clear();
                    if !source.next_batch(&mut batch) {
                        break;
                    }
                    for (frame, ts) in batch.drain(..) {
                        max_ts = max_ts.max(ts);
                        if paced {
                            nic.ingest_paced(frame, ts);
                        } else {
                            nic.ingest(frame, ts);
                        }
                    }
                }
                done.store(true, Ordering::Release);
                max_ts
            })
        };

        // RX cores: one thread each, each claiming its own sink set from
        // the epoch (SPSC producers must never be shared between cores).
        let workers: Vec<_> = (0..self.config.cores)
            .map(|core| {
                let (nic, epochs) = (Arc::clone(&self.nic), Arc::clone(&self.epochs));
                let shed = Arc::clone(&self.shed);
                let (done, config) = (Arc::clone(&ingest_done), self.config.clone());
                let (tracer, alive) = (tracer.clone(), alive.clone());
                std::thread::spawn(move || {
                    let _alive = alive;
                    let rx = RxCore::new(core, &epochs, &config, tracer.as_ref());
                    rx.run_threaded(&nic, &done, &shed, config.burst)
                })
            })
            .collect();
        drop(alive);
        observe(&mut samplers, &all_exited, clock);

        let sim_duration_ns = ingest.join().expect("ingest thread panicked");
        let mut totals = CoreTotals::default();
        for w in workers {
            totals.merge(w.join().expect("worker thread panicked"));
        }
        // Cores dropped their claimed sinks on exit, disconnecting those
        // rings; closing the run retires the final epoch, which drops the
        // rest and joins its workers.
        let rows = self.epochs.close(&self.nic);
        let (elapsed, nic) = (start.elapsed(), self.nic.stats());
        let (warnings, tracer) = (self.filter_warnings.clone(), tracer.as_deref());
        let mut report = totals.report(&rows, nic, elapsed, sim_duration_ns, warnings, tracer);
        report.mbuf_high_water = self.nic.mempool().high_water();
        for sampler in samplers {
            sampler.close(&mut report);
        }
        report
    }
}

impl MultiRuntime<CompiledFilter> {
    /// A handle for live-swapping subscriptions while
    /// [`MultiRuntime::run`] is in flight (see [`crate::reconfig`]).
    ///
    /// Obtain it *before* calling `run()` — the controller holds only
    /// shared state, so it works from any thread while `run()` borrows
    /// the runtime. Swapping requires the compiled (interpreted)
    /// filter because the new subscription set's sources are compiled
    /// at swap time.
    pub fn swap_controller(&self) -> SwapController {
        SwapController {
            epochs: Arc::clone(&self.epochs),
            config: self.config.clone(),
        }
    }
}

/// The single-subscription runtime from Figure 1: one filter, one
/// callback. A thin wrapper over a one-entry [`MultiRuntime`].
pub struct Runtime<S: Subscribable, F: FilterFns + 'static> {
    inner: MultiRuntime<F>,
    _marker: std::marker::PhantomData<fn(S)>,
}

impl<S: Subscribable, F: FilterFns + 'static> Runtime<S, F> {
    /// Creates a runtime from a configuration, filter, and callback
    /// (Figure 1's `Runtime::new(cfg, filter, callback)`).
    pub fn new(
        config: RuntimeConfig,
        filter: F,
        callback: impl Fn(S) + Send + Sync + 'static,
    ) -> Result<Self, RuntimeError> {
        let sub: Arc<dyn ErasedSubscription> =
            Arc::new(TypedSubscription::<S>::new("sub0", callback));
        Ok(Runtime {
            inner: MultiRuntime::new(config, filter, vec![sub])?,
            _marker: std::marker::PhantomData,
        })
    }

    /// The virtual NIC (for sink-fraction control and port stats).
    pub fn nic(&self) -> &Arc<VirtualNic> {
        self.inner.nic()
    }

    /// Live gauges for external monitoring.
    pub fn gauges(&self) -> Arc<RuntimeGauges> {
        self.inner.gauges()
    }

    /// The runtime's shedding flags (shared with workers).
    pub fn shed_state(&self) -> Arc<ShedState> {
        self.inner.shed_state()
    }

    /// Monitors the next run (see [`MultiRuntime::set_monitor`]).
    pub fn set_monitor(&mut self, interval: Duration, sinks: Vec<Box<dyn MetricSink>>) {
        self.inner.set_monitor(interval, sinks);
    }

    /// Governs the next run (see [`MultiRuntime::set_governor`]).
    pub fn set_governor(&mut self, config: GovernorConfig) {
        self.inner.set_governor(config);
    }

    /// Sets the subscription's callback execution model (effective at
    /// the next [`Runtime::run`]).
    pub fn set_dispatch_mode(&mut self, mode: DispatchMode) {
        self.inner.set_dispatch_mode(0, mode);
    }

    /// Live dispatch stats (queue depth, drops by reason).
    pub fn dispatch_hub(&self) -> Arc<DispatchHub> {
        self.inner.dispatch_hub()
    }

    /// Runs the pipeline over a traffic source to completion, returning
    /// aggregate statistics.
    pub fn run(&mut self, source: impl TrafficSource + 'static) -> RunReport {
        self.inner.run(source)
    }
}

/// What an RX core's read found: a burst and its look-ahead (the frames
/// handed over next), nothing yet, or the end of the core's input.
pub(crate) enum Read<B> {
    Burst(B),
    Empty,
    End,
}

/// What one [`RxCore::turn`] did: ran a burst, an adoption or the final
/// drain; waited (read nothing, or a parked send holds the core); or
/// found the core exited, acknowledging [`EXITED`] the first time.
pub(crate) enum Turn {
    Ran,
    Wait,
    Exited,
}

/// What a run's RX cores add up to.
#[derive(Default)]
pub(crate) struct CoreTotals {
    pub(crate) stats: CoreStats,
    /// Tallies by row of the run's table.
    pub(crate) counts: Vec<SubTally>,
    pub(crate) arena_bytes: usize,
}

impl CoreTotals {
    /// Adds one core's results, tallies by index into the longer vector.
    pub(crate) fn merge(&mut self, core: CoreTotals) {
        self.stats.merge(&core.stats);
        self.arena_bytes += core.arena_bytes;
        let (mut long, mut short) = (std::mem::take(&mut self.counts), core.counts);
        if long.len() < short.len() {
            std::mem::swap(&mut long, &mut short);
        }
        for (sum, t) in long.iter_mut().zip(&short) {
            sum.merge(t);
        }
        self.counts = long;
    }

    /// The run's report: these totals, the run's closed row table, its
    /// NIC counters, wall-clock and simulated spans and filter warnings,
    /// with the tracer's report attached. The run's samplers add their
    /// samples or governor; only a threaded run has a mempool to add.
    pub(crate) fn report(
        self,
        rows: &Rows,
        nic: PortStatsSnapshot,
        elapsed: Duration,
        sim_duration_ns: u64,
        filter_warnings: Vec<String>,
        tracer: Option<&Tracer>,
    ) -> RunReport {
        let mut report = RunReport {
            elapsed,
            nic,
            cores: self.stats,
            subs: rows.reports(&self.counts),
            sim_duration_ns,
            mbuf_high_water: 0,
            conn_arena_bytes: self.arena_bytes,
            filter_warnings,
            trace: None,
            samples: Vec::new(),
            governor: None,
        };
        report.attach_trace(tracer);
        report
    }
}

/// One RX core: a [`CorePipeline`], its sink set and its side of the
/// epoch protocol. [`RxCore::turn`] is the per-burst body of both drivers
/// (a threaded core's thread, the stepped harness's RX actor).
pub(crate) struct RxCore<'a, F: FilterFns + 'static> {
    core: u16,
    epochs: &'a EpochState<F>,
    pipeline: CorePipeline<F>,
    pub(crate) sinks: CoreSinks,
    /// The generation the core has acknowledged.
    generation: u64,
    /// An epoch whose sink set the core has yet to claim: after an
    /// adoption, until the sends it made have left the old one.
    unclaimed: Option<Arc<ConfigEpoch<F>>>,
    drained: bool,
}

impl<'a, F: FilterFns + 'static> RxCore<'a, F> {
    /// RX core `core` of the run `epochs` holds open, on whatever epoch
    /// is current (a swap may already have passed the run's first).
    pub(crate) fn new(
        core: u16,
        epochs: &'a EpochState<F>,
        config: &RuntimeConfig,
        tracer: Option<&Arc<Tracer>>,
    ) -> Self {
        let epoch = epochs.current.read().unwrap().clone();
        let epoch = epoch.expect("a run publishes its first epoch before its cores start");
        let trace = tracer.map(|t| (Arc::clone(t), t.rx_lane(usize::from(core))));
        let mut pipeline = CorePipeline::new(Arc::clone(&epoch.filter), &epoch.subs, config, trace);
        pipeline.set_rows(&epoch.rows);
        let mut rx = RxCore {
            core,
            epochs,
            pipeline,
            sinks: CoreSinks::new(0, 0, None, false),
            generation: epoch.generation,
            unclaimed: Some(epoch),
            drained: false,
        };
        rx.claim();
        rx
    }

    /// Claims this core's sink set of the unclaimed epoch and acks its
    /// generation, stamped first (the ack's Release store publishes the
    /// stamp). The epoch is dropped first, so a retirer holds the last
    /// reference to an old one.
    fn claim(&mut self) {
        let Some(epoch) = self.unclaimed.take() else {
            return;
        };
        let core = usize::from(self.core);
        let sinks = epoch.sinks.lock().unwrap()[core].take();
        self.sinks = sinks.expect("each core claims its sink set exactly once");
        self.generation = epoch.generation;
        drop(epoch);
        let ack = &self.epochs.acks[core];
        let now_ns = u64::try_from(self.epochs.base.elapsed().as_nanos()).unwrap_or(u64::MAX);
        ack.picked_up_ns.store(now_ns, Ordering::Relaxed);
        ack.generation.store(self.generation, Ordering::Release);
    }

    /// Whether a new generation awaits this (undrained) core's next turn.
    pub(crate) fn pickup_due(&self) -> bool {
        let published = self.epochs.generation.load(Ordering::Acquire);
        !self.drained && self.unclaimed.is_none() && published != self.generation
    }

    /// Drained, with nothing parked: all that is left is to exit.
    pub(crate) fn finished(&self) -> bool {
        self.drained && !self.sinks.is_parked()
    }

    /// One turn at a burst boundary, none while a send is parked. A new
    /// generation is adopted at this safe point (removed subscriptions
    /// drain through the OLD sinks), and once adoption's sends are
    /// through, its sink set is claimed and acked. Then `read`'s burst,
    /// with the shed flag picked up first and the gauges flushed after it
    /// (the pipeline sweeps on its own frame count), or at the end of
    /// input the final drain; the exit comes at the next turn with
    /// nothing parked.
    pub(crate) fn turn<'f, B, A, I>(
        &mut self,
        shed: &ShedState,
        read: impl FnOnce() -> Read<(B, A)>,
    ) -> Turn
    where
        B: IntoIterator<Item = I>,
        A: IntoIterator<Item = &'f Bytes>,
        I: Ingress,
    {
        if self.sinks.is_parked() {
            return Turn::Wait;
        }
        if self.drained {
            self.exit();
            return Turn::Exited;
        }
        if self.pickup_due() {
            let epoch = self.epochs.current.read().unwrap().clone();
            let epoch = epoch.expect("a published generation has an epoch");
            let (filter, subs) = (Arc::clone(&epoch.filter), &epoch.subs);
            let (remap, rows) = (&epoch.remap, &epoch.rows);
            self.pipeline
                .adopt(filter, subs, remap, rows, &mut self.sinks);
            self.unclaimed = Some(epoch);
            if self.sinks.is_parked() {
                return Turn::Ran;
            }
        }
        self.claim();
        match read() {
            Read::Burst((burst, ahead)) => {
                self.pipeline.set_shed_parsing(shed.parsing_shed());
                self.pipeline.on_burst(burst, ahead, &mut self.sinks);
                self.update_gauges(true);
                Turn::Ran
            }
            Read::Empty => Turn::Wait,
            Read::End => {
                self.pipeline.drain(&mut self.sinks);
                self.drained = true;
                Turn::Ran
            }
        }
    }

    /// Exits a [`RxCore::finished`] core, once: its ack and generation
    /// turn [`EXITED`], which every grace period counts as adopted.
    pub(crate) fn exit(&mut self) {
        if self.generation != EXITED {
            self.generation = EXITED;
            self.update_gauges(false);
            let ack = &self.epochs.acks[usize::from(self.core)];
            ack.generation.store(EXITED, Ordering::Release);
        }
    }

    /// Flushes the core's state into its gauges; an exited core's holds
    /// no live connection.
    fn update_gauges(&self, live: bool) {
        let t = self.pipeline.tracker();
        let conns = if live { t.connections() } else { 0 };
        let bytes = if live { t.state_bytes() } else { 0 };
        let (c, clock) = (usize::from(self.core), self.pipeline.max_ts());
        (self.epochs.gauges).worker_update(c, t.stats(), conns, bytes, t.arena_bytes(), clock);
    }

    /// The exited core's results.
    pub(crate) fn finish(self) -> CoreTotals {
        let arena_bytes = self.pipeline.tracker().arena_bytes();
        let (stats, counts) = self.pipeline.finish();
        CoreTotals {
            stats,
            counts,
            arena_bytes,
        }
    }

    /// The threaded driver: this core on its own thread. It adds only
    /// waiting — the fault layer's injected stalls, polling the NIC, and
    /// yielding while the ring is empty (a send a full ring blocks is
    /// waited out inside [`CoreSinks`]).
    fn run_threaded(
        mut self,
        nic: &VirtualNic,
        ingest_done: &AtomicBool,
        shed: &ShedState,
        burst_size: usize,
    ) -> CoreTotals {
        let core = self.core;
        let mut burst = Vec::with_capacity(burst_size);
        loop {
            // Injected epoch-pickup stall: the core is slow to its safe point.
            if self.pickup_due() {
                if let Some(delay) = nic.fault_swap_pickup_delay(core) {
                    std::thread::sleep(delay);
                }
            }
            let burst = &mut burst;
            let turn = self.turn(shed, move || {
                // Injected worker-core slowdown: a stall before polling,
                // as a scheduling hiccup would.
                if let Some(delay) = nic.fault_worker_delay(core) {
                    std::thread::sleep(delay);
                }
                burst.clear();
                if nic.rx_burst(core, burst, burst_size) > 0 {
                    // The whole RX burst: nothing beyond it can be named
                    // as look-ahead.
                    return Read::Burst((burst.drain(..), []));
                }
                // The end only once ingest is done, the ring is truly
                // empty and no injected fault holds frames: an injected
                // RX-ring stall makes rx_burst return 0 with descriptors
                // still in the ring, and a fault layer may hold frames
                // for redelivery.
                let done = ingest_done.load(Ordering::Acquire);
                if done && nic.ring_depth(core) == 0 && nic.faults_in_flight() == 0 {
                    Read::End
                } else {
                    Read::Empty
                }
            });
            match turn {
                Turn::Exited => return self.finish(),
                // Yield, so that on busy (or single-CPU) hosts the ingest
                // thread and sibling cores make progress.
                Turn::Wait => std::thread::yield_now(),
                Turn::Ran => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_updates_merge_across_cores() {
        let gauges = RuntimeGauges::new(2, Arc::new(DispatchHub::default()));
        let stats = |parse_failures| CoreStats {
            parse_failures,
            ..CoreStats::default()
        };
        gauges.worker_update(0, &stats(3), 10, 1000, 4096, 700);
        gauges.worker_update(1, &stats(4), 5, 500, 2048, 900);
        // Connections, state bytes, arena bytes and parse failures sum
        // across cores; the clock is the latest either core has seen.
        assert_eq!(gauges.connections(), 15);
        assert_eq!(gauges.state_bytes(), 1500);
        assert_eq!(gauges.conn_arena_bytes(), 6144);
        assert_eq!(gauges.parse_failures(), 7);
        assert_eq!(gauges.sim_clock_ns(), 900);
        // A later flush overwrites the live values, never the high-water
        // marks.
        gauges.worker_update(1, &stats(6), 0, 0, 1024, 800);
        assert_eq!(gauges.connections(), 10);
        assert_eq!(gauges.conn_arena_bytes(), 6144);
        assert_eq!(gauges.parse_failures(), 9);
        assert_eq!(gauges.sim_clock_ns(), 900);
        gauges.reset_cores();
        assert_eq!(gauges.conn_arena_bytes(), 0);
        assert_eq!(gauges.sim_clock_ns(), 0);
    }
}
