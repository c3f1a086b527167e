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
use std::time::Instant;

use retina_filter::{CompiledFilter, FilterFns, SubscriptionSet};
use retina_nic::VirtualNic;
use retina_support::bytes::Bytes;
use retina_telemetry::{DispatchHub, TraceConfig, Tracer, TriggerReason};

use crate::config::RuntimeConfig;
use crate::erased::{ErasedSubscription, TypedSubscription};
use crate::executor::DispatchMode;
use crate::governor::{Governor, GovernorConfig, GovernorStage, ShedState};
use crate::monitor::Monitor;
use crate::pipeline::CorePipeline;
use crate::reconfig::{
    duplicate_name, stage_epoch, ConfigEpoch, EpochState, PreparedSwap, SwapController, EXITED,
};
use crate::report::{Rows, RunReport};
use crate::stats::CoreStats;
use crate::subscription::Subscribable;
use crate::tracker::SubTally;

/// Shared slot holding the in-flight run's tracer.
///
/// Empty between runs; [`MultiRuntime::run`] installs a fresh
/// per-run [`Tracer`] at start and clears it at the end, so long-lived
/// observers started before the run (a [`Governor`], a
/// [`crate::Monitor`], a fault layer) can fire anomaly triggers against
/// whichever run is currently in flight without holding a stale tracer.
pub type TraceHandle = Arc<std::sync::RwLock<Option<Arc<Tracer>>>>;

/// Fires a flight-recorder trigger into the tracer `handle` holds — a
/// no-op between runs and when tracing is off. A
/// [`TriggerReason::DropBurst`] fires only when its detail (frames lost
/// in one interval) exceeds the tracer's `drop_burst_threshold`.
pub(crate) fn fire_trigger(handle: &TraceHandle, reason: TriggerReason, detail: u64) {
    let Ok(guard) = handle.read() else { return };
    if let Some(t) = guard.as_ref() {
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

/// Live gauges the runtime updates while running (read them from a
/// monitoring thread, e.g. for the Figure 8 memory series).
///
/// Each worker flushes into its own cache-line block with relaxed
/// stores, so monitoring adds no cross-core contention; readers merge
/// the blocks on demand. [`MultiRuntime::run`] zeroes the blocks when it
/// starts, so they describe the run in flight (or the last one). The
/// swap controller writes the two run-level cells, and the dispatch
/// depth is read live from the runtime's [`DispatchHub`].
#[derive(Debug)]
pub struct RuntimeGauges {
    cores: Box<[CoreGauges]>,
    config_epoch: AtomicU64,
    swap_pickup_lag_us: AtomicU64,
    pub(crate) hub: Arc<DispatchHub>,
}

impl RuntimeGauges {
    /// Creates gauges for `cores` workers (at least 1) over the runtime's
    /// dispatch hub.
    pub(crate) fn new(cores: usize, hub: Arc<DispatchHub>) -> Self {
        RuntimeGauges {
            cores: (0..cores.max(1)).map(|_| CoreGauges::default()).collect(),
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
    /// shard index). Unlike [`RuntimeGauges::state_bytes`] this is a
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
    fn reset_cores(&self) {
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
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::HwFilter(msg) => write!(f, "hardware filter installation: {msg}"),
            RuntimeError::Filter(msg) => write!(f, "filter compilation: {msg}"),
            RuntimeError::Subscriptions(msg) => write!(f, "subscription table: {msg}"),
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
        if self.subs.is_empty() {
            return Err(RuntimeError::Subscriptions(
                "no subscriptions registered".to_string(),
            ));
        }
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
    pub(crate) subs: Vec<Arc<dyn ErasedSubscription>>,
    pub(crate) modes: Vec<DispatchMode>,
    nic: Arc<VirtualNic>,
    gauges: Arc<RuntimeGauges>,
    shed: Arc<ShedState>,
    epochs: Arc<EpochState<F>>,
    filter_warnings: Vec<String>,
    pub(crate) trace_config: Option<TraceConfig>,
    trace_handle: TraceHandle,
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
        if subs.len() != filter.num_subscriptions() {
            return Err(RuntimeError::Subscriptions(format!(
                "{} subscriptions registered but the filter decides {}",
                subs.len(),
                filter.num_subscriptions(),
            )));
        }
        if subs.len() > SubscriptionSet::MAX {
            return Err(RuntimeError::Subscriptions(format!(
                "at most {} subscriptions per runtime (got {})",
                SubscriptionSet::MAX,
                subs.len(),
            )));
        }
        if let Some(name) = duplicate_name(&subs) {
            return Err(RuntimeError::Subscriptions(format!(
                "duplicate subscription name {name:?} (a name is its counters' row)"
            )));
        }
        let mut device = config.device.clone();
        device.num_queues = config.cores;
        let nic = Arc::new(VirtualNic::new(&device));
        if config.hw_filtering {
            // Synthesize device-compatible rules (§4.1) straight from the
            // filter — for a merged filter, the deduplicated union of
            // every subscription's rules.
            let rules = filter
                .hw_rules(device.caps, &config.filter_registry)
                .map_err(|e| RuntimeError::HwFilter(e.to_string()))?;
            for rule in rules {
                nic.install_rule(rule)
                    .map_err(|e| RuntimeError::HwFilter(e.to_string()))?;
            }
        }
        let modes = vec![DispatchMode::Inline; subs.len()];
        let hub = Arc::new(DispatchHub::new(&vec![0u64; subs.len()]));
        let gauges = Arc::new(RuntimeGauges::new(config.cores as usize, Arc::clone(&hub)));
        let epochs = Arc::new(EpochState::new(config.cores.max(1) as usize, hub));
        Ok(MultiRuntime {
            config,
            filter: Arc::new(filter),
            subs,
            modes,
            nic,
            gauges,
            shed: Arc::new(ShedState::new()),
            epochs,
            filter_warnings: Vec::new(),
            trace_config: None,
            trace_handle: Arc::new(std::sync::RwLock::new(None)),
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

    /// Shared slot holding the live run's tracer (empty between runs).
    /// Long-lived observers — the governor, the monitor — keep this
    /// handle and fire flight-recorder triggers through whichever tracer
    /// is installed when an anomaly hits.
    pub fn trace_handle(&self) -> TraceHandle {
        Arc::clone(&self.trace_handle)
    }

    /// Sets subscription `i`'s callback execution model (effective at
    /// the next [`MultiRuntime::run`]).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn set_dispatch_mode(&mut self, i: usize, mode: DispatchMode) {
        self.modes[i] = mode;
    }

    /// Live per-subscription dispatch stats (queue depth, drops) of the
    /// table that is running — membership follows every live swap; the
    /// governor samples this as its queue-pressure input.
    pub fn dispatch_hub(&self) -> Arc<DispatchHub> {
        Arc::clone(&self.epochs.hub)
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
        Arc::clone(&self.gauges)
    }

    /// The runtime's shedding flags (shared with workers; a governor —
    /// or a test — flips them and workers pick the change up on their
    /// next burst).
    pub fn shed_state(&self) -> Arc<ShedState> {
        Arc::clone(&self.shed)
    }

    /// Starts an overload governor against this runtime. Call before
    /// (or during) [`MultiRuntime::run`]; stop it after the run to
    /// collect the decision stream.
    ///
    /// The governor owns the RETA from here on: the NIC's sink fraction
    /// is reset to the configured floor. It is a stage of a sink-less
    /// [`Monitor`] sampling every `config.interval`, with the dispatch
    /// hub's occupancy as a pressure input. Shed decisions fire
    /// [`TriggerReason::GovernorShed`], and an interval losing more
    /// frames than the tracer's `drop_burst_threshold` fires
    /// [`TriggerReason::DropBurst`], into the live run's tracer.
    pub fn start_governor(&self, config: GovernorConfig) -> Governor {
        let interval = config.interval;
        let stage = GovernorStage::new(
            config,
            &self.nic,
            Arc::clone(&self.shed),
            Arc::clone(&self.trace_handle),
        );
        let monitor = Monitor::governed(
            Arc::clone(&self.nic),
            Arc::clone(&self.gauges),
            stage,
            interval,
        );
        monitor.watch_trace(self.trace_handle());
        Governor { monitor }
    }

    /// Runs the pipeline over a traffic source to completion, returning
    /// aggregate statistics.
    pub fn run(&mut self, source: impl TrafficSource + 'static) -> RunReport {
        let ingest_done = Arc::new(AtomicBool::new(false));
        let start = Instant::now();
        self.gauges.reset_cores();

        // Fresh tracer per run (lanes are sized for this run's core and
        // worker counts). Installed in the shared handle so long-lived
        // observers (governor, monitor) can fire triggers into it.
        let tracer = self.trace_config.clone().map(|tc| {
            let clock: Arc<dyn Fn() -> u64 + Send + Sync> =
                Arc::new(move || start.elapsed().as_nanos() as u64);
            Arc::new(Tracer::new(
                tc,
                self.config.cores.max(1) as usize,
                self.subs.len() + self.config.shared_workers.max(1),
                clock,
            ))
        });
        if let Some(t) = &tracer {
            *self.trace_handle.write().unwrap() = Some(Arc::clone(t));
            self.nic.set_tracer(Arc::clone(t));
        }

        // Ingest thread: the wire feeding the NIC.
        let ingest = {
            let nic = Arc::clone(&self.nic);
            let done = Arc::clone(&ingest_done);
            let paced = self.config.paced_ingest;
            let mut source = source;
            std::thread::spawn(move || {
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

        // Epoch 0: stage this run's initial configuration — callback
        // execution model (§5.3) included: per-subscription dispatch
        // inline on the RX core, to a shared worker pool, or to a
        // dedicated worker, each fed over per-(core, subscription) SPSC
        // rings — and publish it, so workers and any SwapController
        // share one view. Its subscriptions open the run's row table.
        // The generation counter persists across runs (and swaps), so a
        // second run continues where the last one left off.
        let cores = self.config.cores.max(1) as usize;
        let gen0 = self.epochs.generation.load(Ordering::Acquire);
        let table = PreparedSwap {
            filter: Arc::clone(&self.filter),
            subs: self.subs.clone(),
            modes: self.modes.clone(),
            remap: Vec::new(),
            warnings: Vec::new(),
        };
        {
            let mut rows = self.epochs.rows.lock().unwrap();
            *rows = Rows::default();
            let epoch0: Arc<ConfigEpoch<F>> = stage_epoch(
                gen0,
                table,
                &mut rows,
                &self.nic,
                &self.config,
                tracer.as_ref(),
            );
            self.epochs.publish(epoch0);
            // Ack slots start at gen0 (not EXITED) so a swap issued
            // before a worker's first poll still waits for it.
            for ack in &self.epochs.acks {
                ack.generation.store(gen0, Ordering::Release);
            }
        }
        self.gauges.note_config_epoch(gen0);

        // Worker threads: one per core, each claiming its own sink set
        // from the epoch (SPSC producers must never be shared between
        // cores).
        let mut workers = Vec::new();
        for core in 0..cores {
            let core_trace = tracer.as_ref().map(|t| (Arc::clone(t), t.rx_lane(core)));
            let core = core as u16;
            let nic = Arc::clone(&self.nic);
            let epochs = Arc::clone(&self.epochs);
            let done = Arc::clone(&ingest_done);
            let gauges = Arc::clone(&self.gauges);
            let shed = Arc::clone(&self.shed);
            let config = self.config.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop::<F>(
                    core,
                    &nic,
                    &epochs,
                    &done,
                    &gauges,
                    &shed,
                    &config,
                    core_trace.as_ref(),
                )
            }));
        }

        let sim_duration_ns = ingest.join().expect("ingest thread panicked");
        // Cores merge their row counts by index addition.
        let mut cores = CoreStats::default();
        let mut counts: Vec<SubTally> = Vec::new();
        let mut conn_arena_bytes = 0;
        for w in workers {
            let (stats, core_counts, arena_bytes) = w.join().expect("worker thread panicked");
            cores.merge(&stats);
            conn_arena_bytes += arena_bytes;
            if counts.len() < core_counts.len() {
                counts.resize(core_counts.len(), SubTally::default());
            }
            for (sum, t) in counts.iter_mut().zip(&core_counts) {
                sum.merge(t);
            }
        }
        // Take the final epoch (whatever generation was current when
        // the run drained) and the row table under the swap lock, so a
        // racing swap either completed before shutdown or sees
        // NotRunning.
        let (final_epoch, rows) = {
            let mut rows = self.epochs.rows.lock().unwrap();
            let epoch = self.epochs.current.write().unwrap().take();
            (epoch, std::mem::take(&mut *rows))
        };
        let final_epoch = final_epoch.expect("epoch 0 was published at run start");
        // Workers dropped their claimed sinks on exit, disconnecting
        // those rings; retiring the epoch drops the rest and joins.
        final_epoch.retire_fabric();
        let mut report = RunReport {
            elapsed: start.elapsed(),
            nic: self.nic.stats(),
            cores,
            subs: rows.reports(&counts),
            sim_duration_ns,
            mbuf_high_water: self.nic.mempool().high_water(),
            conn_arena_bytes,
            filter_warnings: self.filter_warnings.clone(),
            trace: None,
        };
        report.attach_trace(tracer.as_deref());
        if tracer.is_some() {
            self.nic.clear_tracer();
            *self.trace_handle.write().unwrap() = None;
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
            nic: Arc::clone(&self.nic),
            gauges: Arc::clone(&self.gauges),
            config: self.config.clone(),
            trace: Arc::clone(&self.trace_handle),
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

    /// Starts an overload governor against this runtime.
    pub fn start_governor(&self, config: GovernorConfig) -> Governor {
        self.inner.start_governor(config)
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

/// RX bursts between connection-timeout sweeps (and gauge flushes): the
/// one sweep cadence, for the threaded worker's bursts and the stepped
/// RX actor's steps alike.
pub(crate) const ADVANCE_EVERY_BURSTS: usize = 64;

/// One RX core: the threaded driver of [`CorePipeline`]. Mbufs come
/// from NIC bursts, data leaves through the core's sink set, and the
/// configuration epoch is picked up between bursts.
#[allow(clippy::too_many_arguments)]
fn worker_loop<F: FilterFns>(
    core: u16,
    nic: &VirtualNic,
    epochs: &EpochState<F>,
    ingest_done: &AtomicBool,
    gauges: &RuntimeGauges,
    shed: &ShedState,
    config: &RuntimeConfig,
    trace: Option<&(Arc<Tracer>, usize)>,
) -> (CoreStats, Vec<SubTally>, usize) {
    // Claim the current epoch and this core's sink set. run() publishes
    // epoch 0 before spawning workers, but a swap may already have
    // advanced the generation — claiming whatever is current (and
    // acking it) keeps the grace-period protocol consistent either way.
    let mut epoch = epochs
        .current
        .read()
        .unwrap()
        .clone()
        .expect("run() publishes epoch 0 before spawning workers");
    let claim_sinks = |epoch: &ConfigEpoch<F>| {
        epoch.sinks.lock().unwrap()[core as usize]
            .take()
            .expect("each worker claims its sink set exactly once")
    };
    let mut sinks = claim_sinks(&epoch);
    let mut pipeline = CorePipeline::new(
        Arc::clone(&epoch.filter),
        &epoch.subs,
        config,
        trace.cloned(),
    );
    pipeline.set_rows(&epoch.rows);
    let ack = &epochs.acks[core as usize];
    ack.generation.store(epoch.generation, Ordering::Release);
    let mut burst = Vec::with_capacity(config.burst);
    let mut since_advance = 0usize;
    let update_gauges = |pipeline: &CorePipeline<F>, connections, state_bytes| {
        let tracker = pipeline.tracker();
        gauges.worker_update(
            core as usize,
            tracker.stats(),
            connections,
            state_bytes,
            tracker.arena_bytes(),
            pipeline.max_ts(),
        );
    };

    loop {
        // Epoch pickup: one Acquire load per burst. On a generation
        // change, adopt the new configuration at this safe point —
        // removed subscriptions drain through the OLD sinks, surviving
        // per-connection state is rebound, the new sink set is claimed,
        // then the acknowledgment lets the publisher's grace period
        // end. Swaps are serialized and each waits out its grace
        // period, so the generation is never more than one ahead.
        if epochs.generation.load(Ordering::Acquire) != epoch.generation {
            if let Some(delay) = nic.fault_swap_pickup_delay(core) {
                std::thread::sleep(delay);
            }
            epoch = epochs
                .current
                .read()
                .unwrap()
                .clone()
                .expect("a published generation always has an epoch");
            pipeline.adopt(
                Arc::clone(&epoch.filter),
                &epoch.subs,
                &epoch.remap,
                &epoch.rows,
                &mut sinks,
            );
            sinks = claim_sinks(&epoch);
            // The pickup stamp is published by the ack's Release store
            // (paired with the grace loop's Acquire load in
            // `SwapController::swap`, which then reads the stamp).
            let now_ns = u64::try_from(epochs.base.elapsed().as_nanos()).unwrap_or(u64::MAX);
            ack.picked_up_ns.store(now_ns, Ordering::Relaxed);
            ack.generation.store(epoch.generation, Ordering::Release);
        }
        // Injected worker-core slowdown (fault layer): stall before
        // polling, as a scheduling hiccup would.
        if let Some(delay) = nic.fault_worker_delay(core) {
            std::thread::sleep(delay);
        }
        burst.clear();
        if nic.rx_burst(core, &mut burst, config.burst) == 0 {
            // Final drain. A single extra poll is not enough: an
            // injected RX-ring stall makes rx_burst return 0 while
            // descriptors still sit in the ring, and a fault layer may
            // hold frames in flight for later redelivery. Exit only
            // once ingest is done, the ring is truly empty and no
            // injected fault still holds frames; until then keep
            // polling, yielding so that on busy (or single-CPU) hosts
            // the ingest thread and sibling workers make progress.
            if ingest_done.load(Ordering::Acquire)
                && nic.ring_depth(core) == 0
                && nic.faults_in_flight() == 0
            {
                break;
            }
            std::thread::yield_now();
            continue;
        }
        // Pick up governor decisions once per burst: a relaxed load,
        // so shedding costs nothing on the per-packet path.
        pipeline.set_shed_parsing(shed.parsing_shed());
        // The whole RX burst: nothing beyond it can be named as
        // look-ahead, and the burst is staged (and prefetched) at once.
        pipeline.on_burst(burst.drain(..), [], &mut sinks);
        since_advance += 1;
        if since_advance >= ADVANCE_EVERY_BURSTS {
            since_advance = 0;
            pipeline.advance(&mut sinks);
            let tracker = pipeline.tracker();
            update_gauges(&pipeline, tracker.connections(), tracker.state_bytes());
        }
    }

    // Drain still-open connections at end of input.
    pipeline.drain(&mut sinks);
    update_gauges(&pipeline, 0, 0);
    // Exited: any in-flight (or future) grace period treats this core
    // as having acknowledged every generation.
    ack.generation.store(EXITED, Ordering::Release);
    let arena_bytes = pipeline.tracker().arena_bytes();
    let (stats, counts) = pipeline.finish();
    (stats, counts, arena_bytes)
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
