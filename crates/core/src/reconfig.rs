//! Live reconfiguration: epoch-based RCU hot-swap of subscriptions on a
//! running [`MultiRuntime`](crate::MultiRuntime).
//!
//! A running pipeline's configuration — the merged filter trie, the
//! subscription table, the per-core sink sets, the dispatch fabric, the
//! NIC rule union — is bundled into one immutable `ConfigEpoch` and
//! published through a generation counter. RX workers check the counter
//! once per burst (a single `Acquire` load; the hot path takes no lock)
//! and adopt the new epoch at their between-bursts safe point. The
//! publisher waits for every worker to acknowledge the new generation
//! (the RCU grace period) before retiring the old epoch, so no frame is
//! ever seen by a half-updated configuration and no packet is lost to a
//! swap.
//!
//! ## Epoch lifecycle
//!
//! 1. **Prepare** — the new subscription set's filter sources are run
//!    through the semantic analyzer (E-codes reject the swap before
//!    anything is staged; W-codes ride along in the [`SwapEvent`]) and
//!    compiled into a fresh union trie.
//! 2. **Stage** — the hardware rule union is recomputed and *diffed*
//!    against the installed set; only the adds and removes are applied,
//!    atomically, so the NIC table never transiently narrows (an empty
//!    table means "deliver everything via RSS").
//! 3. **Publish** — the epoch (filter, subscriptions, their rows of the
//!    run's table, fresh sink sets, a new dispatch fabric counting into
//!    those rows), staged by the same `stage_epoch` that builds a run's
//!    first epoch, is installed, the runtime's one
//!    [`DispatchHub`] takes the new
//!    table's membership, and the generation counter is bumped.
//! 4. **Grace** — the publisher spins until every worker has stored the
//!    new generation into its ack slot (or exited). Because the swap
//!    lock serializes publishes *and* each publish waits out its grace
//!    period, a worker can never skip a generation — the single-step
//!    `remap` is always valid. Each worker stamps its pickup time into
//!    the slot just before acking; the publisher turns the stamps into
//!    the swap's per-core pickup lag.
//! 5. **Retire** — the old dispatch fabric is drained and joined, and the
//!    old epoch is dropped; a `Weak` upgrade failure proves it is gone.
//!    A removed subscription's row stays in the run's table, where its
//!    counts already are: the final report lists it after the live
//!    table, and a later swap that re-adds the name counts on into it.
//!
//! ## Swap-time accounting
//!
//! Removed subscriptions' per-connection state is drained — matched
//! connections get their `on_terminate` data delivered through the old
//! sinks, undecided ones are charged a discard — and connections left
//! with no surviving subscription are counted `conns_swapped`, a fifth
//! outcome in the connection identity (`created == discarded +
//! terminated + expired + drained + swapped`). Surviving subscriptions
//! keep their per-connection state, so mid-connection matches are never
//! lost across a swap.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use retina_filter::{CompiledFilter, FilterFns, SubscriptionSet};
use retina_nic::VirtualNic;
use retina_telemetry::{DispatchHub, DispatchRow, Tracer, TriggerReason};

use crate::config::RuntimeConfig;
use crate::erased::{ErasedSubscription, TypedSubscription};
use crate::executor::{channel_dispatcher, CallbackDelayFn, CoreSinks, DispatchMode, Dispatcher};
use crate::report::Rows;
use crate::runtime::{compile_union, fire_trigger, RuntimeGauges, TraceHandle};
use crate::subscription::Subscribable;

/// Ack-slot sentinel: the worker has exited (end of run). A grace
/// period treats an exited worker as having acknowledged every
/// generation.
pub(crate) const EXITED: u64 = u64::MAX;

/// The new subscription set for a live swap: filters, callbacks, and
/// dispatch modes, registered exactly like on a
/// [`RuntimeBuilder`](crate::RuntimeBuilder).
///
/// Subscriptions sharing a name with one in the running configuration
/// *survive* the swap (their per-connection state and counters stay
/// theirs); names only in the old set are removed and drained; names
/// only in the new set are added.
#[derive(Default)]
pub struct SwapSpec {
    pub(crate) sources: Vec<String>,
    pub(crate) subs: Vec<Arc<dyn ErasedSubscription>>,
    pub(crate) modes: Vec<Option<DispatchMode>>,
}

impl SwapSpec {
    /// Starts an empty spec.
    #[must_use]
    pub fn new() -> Self {
        SwapSpec::default()
    }

    /// Registers a subscription under an explicit telemetry name (the
    /// identity survivor matching runs on).
    #[must_use]
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

    /// Registers a subscription with an explicit dispatch mode.
    #[must_use]
    pub fn subscribe_dispatched<S: Subscribable>(
        self,
        name: impl Into<String>,
        filter: &str,
        mode: DispatchMode,
        callback: impl Fn(S) + Send + Sync + 'static,
    ) -> Self {
        let mut spec = self.subscribe_named(name, filter, callback);
        *spec.modes.last_mut().expect("just pushed") = Some(mode);
        spec
    }

    /// Registered subscription names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.subs.iter().map(|s| s.name()).collect()
    }
}

/// Why a swap was rejected. No failed swap changes the running
/// configuration: rejection happens before staging (or, for hardware
/// rules, before publishing), and the old epoch keeps serving.
#[derive(Debug)]
pub enum SwapError {
    /// The new filter set failed semantic analysis or compilation
    /// (carries the analyzer's E-codes, same as `retina-flint`).
    Filter(String),
    /// The spec itself is malformed (empty, too many subscriptions,
    /// duplicate names).
    Spec(String),
    /// The new hardware rule union was rejected by the device.
    HwFilter(String),
    /// No run is in flight (swaps reconfigure a *running* pipeline).
    NotRunning,
}

impl fmt::Display for SwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapError::Filter(m) => write!(f, "swap rejected by filter analysis: {m}"),
            SwapError::Spec(m) => write!(f, "swap spec invalid: {m}"),
            SwapError::HwFilter(m) => write!(f, "swap hardware rules rejected: {m}"),
            SwapError::NotRunning => write!(f, "no run in flight to reconfigure"),
        }
    }
}

impl std::error::Error for SwapError {}

/// The record of one completed swap: what changed, when each
/// lifecycle step happened (durations since the runtime's epoch-state
/// creation), and how long each core took to adopt the new generation.
#[derive(Debug, Clone)]
pub struct SwapEvent {
    /// The generation this swap published.
    pub generation: u64,
    /// When the swap was requested.
    pub requested_at: Duration,
    /// When preparation finished and the NIC diff was applied.
    pub staged_at: Duration,
    /// When the new epoch became visible to workers.
    pub published_at: Duration,
    /// When the grace period ended and the old epoch was retired.
    pub retired_at: Duration,
    /// Per-core pickup lag in microseconds: publish-to-acknowledgment
    /// for each RX core (0 for cores that had already exited).
    pub pickup_lag_us: Vec<u64>,
    /// Subscription names added by this swap.
    pub added: Vec<String>,
    /// Subscription names removed (and drained) by this swap.
    pub removed: Vec<String>,
    /// Hardware rules installed by the diff.
    pub rules_added: usize,
    /// Hardware rules removed by the diff.
    pub rules_removed: usize,
    /// Analyzer W-code warnings for the new filter set.
    pub warnings: Vec<String>,
}

/// A validated, compiled swap ready to publish.
pub(crate) struct PreparedSwap<F> {
    pub(crate) filter: Arc<F>,
    pub(crate) subs: Vec<Arc<dyn ErasedSubscription>>,
    pub(crate) modes: Vec<DispatchMode>,
    /// Old subscription index -> new index, matched by name (`None` =
    /// removed).
    pub(crate) remap: Vec<Option<usize>>,
    pub(crate) warnings: Vec<String>,
}

impl<F> PreparedSwap<F> {
    /// The old index new subscription `j` survives from (`None` =
    /// added by this swap).
    pub(crate) fn survivor(&self, j: usize) -> Option<usize> {
        self.remap.iter().position(|m| *m == Some(j))
    }
}

/// The first name `subs` registers twice. Names are identities — a
/// swap's survivors and a run's counter rows are matched by name — so a
/// table with a duplicate is rejected.
pub(crate) fn duplicate_name(subs: &[Arc<dyn ErasedSubscription>]) -> Option<&str> {
    let mut seen = std::collections::BTreeSet::new();
    subs.iter()
        .map(|s| s.name())
        .find(|&name| !seen.insert(name))
}

/// Validates and compiles a [`SwapSpec`] against the running
/// configuration: analyzer first (E-codes reject, W-codes surface),
/// then the union trie, then the name-based survivor remap.
pub(crate) fn prepare(
    spec: &SwapSpec,
    old_subs: &[Arc<dyn ErasedSubscription>],
    config: &RuntimeConfig,
) -> Result<PreparedSwap<CompiledFilter>, SwapError> {
    if spec.subs.is_empty() {
        return Err(SwapError::Spec(
            "swap must register at least one subscription".to_string(),
        ));
    }
    if spec.subs.len() > SubscriptionSet::MAX {
        return Err(SwapError::Spec(format!(
            "at most {} subscriptions per runtime (got {})",
            SubscriptionSet::MAX,
            spec.subs.len(),
        )));
    }
    if let Some(name) = duplicate_name(&spec.subs) {
        return Err(SwapError::Spec(format!(
            "duplicate subscription name {name:?} (names are the swap's survivor identity)",
        )));
    }
    let srcs: Vec<&str> = spec.sources.iter().map(String::as_str).collect();
    let (filter, warnings) = compile_union(&srcs, config).map_err(SwapError::Filter)?;
    if filter.num_subscriptions() != spec.subs.len() {
        return Err(SwapError::Spec(format!(
            "{} subscriptions registered but the filter decides {}",
            spec.subs.len(),
            filter.num_subscriptions(),
        )));
    }
    let remap = old_subs
        .iter()
        .map(|old| spec.subs.iter().position(|new| new.name() == old.name()))
        .collect();
    let modes = spec.modes.iter().map(|m| m.unwrap_or_default()).collect();
    Ok(PreparedSwap {
        filter: Arc::new(filter),
        subs: spec.subs.clone(),
        modes,
        remap,
        warnings,
    })
}

/// One immutable configuration generation: everything a worker needs to
/// process a burst, bundled so adoption is a single `Arc` swap.
pub(crate) struct ConfigEpoch<F: FilterFns + 'static> {
    pub(crate) generation: u64,
    pub(crate) filter: Arc<F>,
    pub(crate) subs: Vec<Arc<dyn ErasedSubscription>>,
    /// Previous epoch's subscription index -> this epoch's (empty for
    /// a run's first epoch). Valid because grace-period serialization
    /// guarantees no worker ever skips a generation.
    pub(crate) remap: Vec<Option<usize>>,
    /// Subscription index -> row of the run's table.
    pub(crate) rows: Vec<usize>,
    /// Per-core sink sets: slot `core` holds `Some` until that worker
    /// claims (takes) it, exactly once. Sets left unclaimed when the
    /// epoch retires are dropped by the retirer so the dispatch rings
    /// disconnect.
    pub(crate) sinks: Mutex<Vec<Option<CoreSinks>>>,
    /// Dispatch counters, one per subscription: its row's.
    pub(crate) stats: Vec<DispatchRow>,
    /// The epoch's dispatch worker threads, joined at retirement.
    pub(crate) dispatcher: Mutex<Option<Dispatcher>>,
}

impl<F: FilterFns + 'static> ConfigEpoch<F> {
    /// Shuts the epoch's dispatch fabric down once no worker will claim
    /// from it any more: drops the unclaimed sink sets (they keep SPSC
    /// producers alive), then joins the worker threads, which exit when
    /// their rings disconnect and drain.
    pub(crate) fn retire_fabric(&self) {
        for sinks in self.sinks.lock().unwrap().iter_mut() {
            sinks.take();
        }
        if let Some(d) = self.dispatcher.lock().unwrap().take() {
            let _ = d.join();
        }
    }
}

/// Stages one configuration generation — the one place an epoch's
/// delivery fabric is built, for a run's first epoch and for every live
/// swap alike. The table is installed in the run's row table, and the
/// fabric counts into its rows. Its workers stall where the NIC's fault
/// layer says so and trace into `tracer`, the run's own.
pub(crate) fn stage_epoch<F: FilterFns + 'static>(
    generation: u64,
    table: PreparedSwap<F>,
    rows: &mut Rows,
    nic: &Arc<VirtualNic>,
    config: &RuntimeConfig,
    tracer: Option<&Arc<Tracer>>,
) -> Arc<ConfigEpoch<F>> {
    let cores = config.cores.max(1) as usize;
    rows.install(&table.subs, &table.modes, cores);
    let map: Vec<usize> = rows.live().collect();
    let stats: Vec<DispatchRow> = map.iter().map(|&r| rows.dispatch(r).clone()).collect();
    let delay: CallbackDelayFn = {
        let nic = Arc::clone(nic);
        Arc::new(move |sub, seq| nic.fault_callback_delay(sub, seq))
    };
    let (per_core_sinks, dispatcher) = channel_dispatcher(
        &table.subs,
        &table.modes,
        &stats,
        cores,
        config.shared_workers,
        &delay,
        tracer,
    );
    Arc::new(ConfigEpoch {
        generation,
        filter: table.filter,
        subs: table.subs,
        remap: table.remap,
        rows: map,
        sinks: Mutex::new(per_core_sinks.into_iter().map(Some).collect()),
        stats,
        dispatcher: Mutex::new(Some(dispatcher)),
    })
}

/// One RX core's grace-period slot.
pub(crate) struct Ack {
    /// The highest generation the worker has adopted, or [`EXITED`].
    pub(crate) generation: AtomicU64,
    /// When the worker last picked up a swapped-in epoch (nanoseconds
    /// since [`EpochState::base`]; written just before `generation`).
    pub(crate) picked_up_ns: AtomicU64,
}

/// Shared swap state between a [`MultiRuntime`](crate::MultiRuntime),
/// its workers, and any [`SwapController`].
pub(crate) struct EpochState<F: FilterFns + 'static> {
    /// The published generation. Workers poll this once per burst.
    pub(crate) generation: AtomicU64,
    /// The current epoch (`None` between runs).
    pub(crate) current: RwLock<Option<Arc<ConfigEpoch<F>>>>,
    /// The runtime's one dispatch hub: its membership is the current
    /// epoch's stats, replaced at every publish.
    pub(crate) hub: Arc<DispatchHub>,
    /// Per-core acknowledgment slots.
    pub(crate) acks: Vec<Ack>,
    /// Time base for all `SwapEvent` timestamps.
    pub(crate) base: Instant,
    /// The in-flight run's row table. Its lock serializes swaps (and
    /// run start/end epoch installation).
    pub(crate) rows: Mutex<Rows>,
}

impl<F: FilterFns + 'static> EpochState<F> {
    pub(crate) fn new(cores: usize, hub: Arc<DispatchHub>) -> Self {
        EpochState {
            generation: AtomicU64::new(0),
            current: RwLock::new(None),
            hub,
            acks: (0..cores.max(1))
                .map(|_| Ack {
                    generation: AtomicU64::new(EXITED),
                    picked_up_ns: AtomicU64::new(0),
                })
                .collect(),
            base: Instant::now(),
            rows: Mutex::new(Rows::default()),
        }
    }

    /// Makes `epoch` the current configuration: workers see it at their
    /// next generation check, and the hub's membership follows the new
    /// table. (Bumping the generation counter is the caller's: a run's
    /// first epoch keeps the counter, a swap advances it.)
    pub(crate) fn publish(&self, epoch: Arc<ConfigEpoch<F>>) {
        self.hub.replace(epoch.stats.clone());
        *self.current.write().unwrap() = Some(epoch);
    }
}

/// A handle for swapping subscriptions on a live run. Obtained from
/// [`MultiRuntime::swap_controller`](crate::MultiRuntime::swap_controller)
/// before the run starts; it holds only shared state, so it works from
/// any thread while `run()` owns the runtime.
pub struct SwapController {
    pub(crate) epochs: Arc<EpochState<CompiledFilter>>,
    pub(crate) nic: Arc<VirtualNic>,
    pub(crate) gauges: Arc<RuntimeGauges>,
    pub(crate) config: RuntimeConfig,
    pub(crate) trace: TraceHandle,
}

impl SwapController {
    /// The currently published configuration generation.
    pub fn generation(&self) -> u64 {
        self.epochs.generation.load(Ordering::Acquire)
    }

    /// Fires the flight recorder on a rejected swap, so the moments
    /// around the failure are preserved for diagnosis.
    fn fire_failed(&self, detail: u64) {
        fire_trigger(&self.trace, TriggerReason::SwapFailed, detail);
    }

    /// Swaps the running configuration for `spec`: prepare, stage the
    /// NIC rule diff, publish the new epoch, wait out the grace period,
    /// retire the old epoch. Returns the completed [`SwapEvent`].
    ///
    /// Blocks until every RX core has adopted the new generation; on
    /// any error the running configuration is unchanged (the NIC diff
    /// is applied only after every software-side check has passed, and
    /// is itself transactional).
    ///
    /// # Panics
    /// Panics if the epoch state's internal locks are poisoned (a
    /// worker panicked mid-swap).
    pub fn swap(&self, spec: &SwapSpec) -> Result<SwapEvent, SwapError> {
        let mut rows = self.epochs.rows.lock().unwrap();
        let requested_at = self.epochs.base.elapsed();
        let Some(old) = self.epochs.current.read().unwrap().clone() else {
            return Err(SwapError::NotRunning);
        };
        if self
            .epochs
            .acks
            .iter()
            .all(|a| a.generation.load(Ordering::Acquire) == EXITED)
        {
            // Every worker already exited: the run is shutting down.
            return Err(SwapError::NotRunning);
        }

        let mut prepared = match prepare(spec, &old.subs, &self.config) {
            Ok(p) => p,
            Err(e) => {
                self.fire_failed(old.generation);
                return Err(e);
            }
        };

        // Stage: recompute the hardware rule union and apply the diff.
        let mut rules_added = 0;
        let mut rules_removed = 0;
        if self.config.hw_filtering {
            let new_rules = prepared
                .filter
                .hw_rules(self.config.device.caps, &self.config.filter_registry)
                .map_err(|e| {
                    self.fire_failed(old.generation);
                    SwapError::HwFilter(e.to_string())
                })?;
            let old_rules = self.nic.rules_snapshot();
            let adds: Vec<_> = new_rules
                .iter()
                .filter(|r| !old_rules.contains(r))
                .cloned()
                .collect();
            let removes: Vec<_> = old_rules
                .iter()
                .filter(|r| !new_rules.contains(r))
                .cloned()
                .collect();
            rules_added = adds.len();
            rules_removed = removes.len();
            self.nic.apply_rule_diff(adds, &removes).map_err(|e| {
                self.fire_failed(old.generation);
                SwapError::HwFilter(e.to_string())
            })?;
        }
        let staged_at = self.epochs.base.elapsed();

        let generation = old.generation + 1;
        let added = (0..prepared.subs.len())
            .filter(|&j| prepared.survivor(j).is_none())
            .map(|j| prepared.subs[j].name().to_string())
            .collect();
        let removed: Vec<String> = prepared
            .remap
            .iter()
            .enumerate()
            .filter(|(_, m)| m.is_none())
            .map(|(i, _)| old.subs[i].name().to_string())
            .collect();
        let warnings = std::mem::take(&mut prepared.warnings);
        // The new fabric traces into the run's own tracer, like epoch 0.
        let tracer = self.trace.read().ok().and_then(|guard| guard.clone());
        let epoch = stage_epoch(
            generation,
            prepared,
            &mut rows,
            &self.nic,
            &self.config,
            tracer.as_ref(),
        );
        // Publish.
        let weak_old = Arc::downgrade(&old);
        self.epochs.publish(epoch);
        let published_at = self.epochs.base.elapsed();
        self.epochs.generation.store(generation, Ordering::Release);
        self.gauges.note_config_epoch(generation);

        // Grace period: every worker adopts the new generation (or
        // exits) before the old epoch can be retired.
        for ack in &self.epochs.acks {
            loop {
                let v = ack.generation.load(Ordering::Acquire);
                if v == EXITED || v >= generation {
                    break;
                }
                std::thread::yield_now();
            }
        }

        // Retire: shut the old dispatch fabric down.
        old.retire_fabric();
        drop(old);
        // Every strong reference is accounted for (workers swapped
        // theirs during grace); upgrade failure proves retirement.
        while weak_old.upgrade().is_some() {
            std::thread::yield_now();
        }
        let retired_at = self.epochs.base.elapsed();

        // Per-core pickup lag from the stamps: each was stored before
        // the ack (or exit) the grace loop acquired above. A core that
        // exited without adopting this generation last stamped before
        // the publish, so it reads 0.
        let pickup_lag_us: Vec<u64> = self
            .epochs
            .acks
            .iter()
            .map(|ack| {
                let picked_up = Duration::from_nanos(ack.picked_up_ns.load(Ordering::Relaxed));
                let lag = picked_up.saturating_sub(published_at);
                u64::try_from(lag.as_micros()).unwrap_or(u64::MAX)
            })
            .collect();
        self.gauges
            .note_swap_pickup_lag(pickup_lag_us.iter().copied().max().unwrap_or(0));
        Ok(SwapEvent {
            generation,
            requested_at,
            staged_at,
            published_at,
            retired_at,
            pickup_lag_us,
            added,
            removed,
            rules_added,
            rules_removed,
            warnings,
        })
    }
}

/// A swap scheduled inside a deterministic stepped run (see
/// [`MultiRuntime::run_stepped_with_swap`](crate::MultiRuntime::run_stepped_with_swap)):
/// the prepared configuration plus the packet index to apply it at.
pub(crate) struct StepSwap<F> {
    pub(crate) at_packet: u64,
    pub(crate) prepared: PreparedSwap<F>,
}
