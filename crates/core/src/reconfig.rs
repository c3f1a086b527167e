//! Live reconfiguration: epoch-based RCU hot-swap of subscriptions on a
//! running [`MultiRuntime`].
//!
//! A running pipeline's configuration — the merged filter trie, the
//! subscription table, the per-core sink sets, the dispatch fabric, the
//! NIC rule union — is bundled into one immutable `ConfigEpoch` and
//! published through a generation counter. RX cores check the counter
//! once per burst (a single `Acquire` load; the hot path takes no lock)
//! and adopt the new epoch at their between-bursts safe point. The
//! publisher waits for every core to acknowledge the new generation
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
//!    table means "deliver everything via RSS"). Then the epoch (filter,
//!    subscriptions, their rows of the run's table, fresh sink sets, a
//!    new dispatch fabric counting into those rows) is built — by the
//!    same `EpochState::stage` that stages a run's first epoch.
//! 3. **Publish** — the epoch is installed, the runtime's one
//!    [`retina_telemetry::DispatchHub`] takes the new table's membership, and the
//!    generation counter is bumped.
//! 4. **Grace** — over once every core has stored the new generation
//!    into its ack slot (or exited): a predicate the threaded publisher
//!    spins on and the stepped harness polls each step. Because the swap
//!    lock serializes publishes *and* each publish waits out its grace
//!    period, a core can never skip a generation — the single-step
//!    `remap` is always valid. Each core stamps its pickup time into
//!    the slot just before acking; the stamps become the swap's per-core
//!    pickup lag.
//! 5. **Retire** — the old dispatch fabric is drained and joined, and the
//!    old epoch is dropped: no core holds it any more.
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
use retina_nic::{FlowRule, VirtualNic};
use retina_telemetry::{Tracer, TriggerReason};

use crate::config::RuntimeConfig;
use crate::erased::{ErasedSubscription, TypedSubscription};
use crate::executor::{build_sinks, channel_dispatcher, CoreSinks, DispatchMode, Dispatcher};
use crate::report::Rows;
use crate::runtime::{compile_union, fire_trigger, MultiRuntime, RuntimeGauges};
use crate::step::{Hold, VirtualWorker};
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

/// A validated, compiled swap ready to publish (or a run's first table).
pub(crate) struct PreparedSwap<F> {
    pub(crate) filter: Arc<F>,
    pub(crate) subs: Arc<[Arc<dyn ErasedSubscription>]>,
    pub(crate) modes: Arc<[DispatchMode]>,
    /// Old subscription index -> new index, matched by name (`None` =
    /// removed).
    pub(crate) remap: Vec<Option<usize>>,
    pub(crate) warnings: Vec<String>,
}

/// Checks a subscription table (and, given how many its filter decides,
/// against the filter): one to [`SubscriptionSet::MAX`] subscriptions,
/// each name once — a swap's survivors and a run's rows match by name.
pub(crate) fn check_table(
    subs: &[Arc<dyn ErasedSubscription>],
    decided: Option<usize>,
) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let (n, max) = (subs.len(), SubscriptionSet::MAX);
    let duplicate = subs.iter().map(|s| s.name()).find(|&s| !seen.insert(s));
    match (duplicate, decided.filter(|&d| d != n)) {
        _ if n == 0 => Err("no subscriptions registered".to_string()),
        _ if n > max => Err(format!("at most {max} subscriptions per runtime (got {n})")),
        (Some(name), _) => Err(format!("duplicate subscription name {name:?}")),
        (_, Some(d)) => Err(format!("{n} subscriptions, but the filter decides {d}")),
        (None, None) => Ok(()),
    }
}

/// Validates and compiles a [`SwapSpec`] against the running
/// configuration: analyzer first (E-codes reject, W-codes surface),
/// then the union trie, then the name-based survivor remap.
pub(crate) fn prepare(
    spec: &SwapSpec,
    old_subs: &[Arc<dyn ErasedSubscription>],
    config: &RuntimeConfig,
) -> Result<PreparedSwap<CompiledFilter>, SwapError> {
    check_table(&spec.subs, None).map_err(SwapError::Spec)?;
    let srcs: Vec<&str> = spec.sources.iter().map(String::as_str).collect();
    let (filter, warnings) = compile_union(&srcs, config).map_err(SwapError::Filter)?;
    check_table(&spec.subs, Some(filter.num_subscriptions())).map_err(SwapError::Spec)?;
    let remap = old_subs
        .iter()
        .map(|old| spec.subs.iter().position(|new| new.name() == old.name()))
        .collect();
    let modes = spec.modes.iter().map(|m| m.unwrap_or_default()).collect();
    Ok(PreparedSwap {
        filter: Arc::new(filter),
        subs: spec.subs.as_slice().into(),
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
    pub(crate) subs: Arc<[Arc<dyn ErasedSubscription>]>,
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
    /// The epoch's dispatch worker threads, joined at retirement (none
    /// in a stepped run, which drains the rings itself).
    pub(crate) dispatcher: Mutex<Option<Dispatcher>>,
    /// The run's tracer, which every epoch of the run traces into.
    pub(crate) tracer: Option<Arc<Tracer>>,
}

impl<F: FilterFns + 'static> ConfigEpoch<F> {
    /// Shuts the epoch's dispatch fabric down once no worker will claim
    /// from it any more: drops the unclaimed sink sets (they keep SPSC
    /// producers alive), then joins the worker threads, which exit when
    /// their rings disconnect and drain.
    fn retire_fabric(&self) {
        for sinks in self.sinks.lock().unwrap().iter_mut() {
            sinks.take();
        }
        if let Some(d) = self.dispatcher.lock().unwrap().take() {
            let _ = d.join();
        }
    }
}

/// Installs `filter`'s hardware rule union on `nic` as one transactional
/// diff against the installed rules, so the table never transiently
/// narrows. Returns the rules added and removed.
pub(crate) fn stage_rules<F: FilterFns>(
    nic: &VirtualNic,
    filter: &F,
    config: &RuntimeConfig,
) -> Result<(usize, usize), String> {
    if !config.hw_filtering {
        return Ok((0, 0));
    }
    let new_rules = filter
        .hw_rules(config.device.caps, &config.filter_registry)
        .map_err(|e| e.to_string())?;
    let old_rules = nic.rules_snapshot();
    let minus = |a: &[FlowRule], b: &[FlowRule]| -> Vec<FlowRule> {
        a.iter().filter(|r| !b.contains(r)).cloned().collect()
    };
    let (adds, removes) = (minus(&new_rules, &old_rules), minus(&old_rules, &new_rules));
    let counts = (adds.len(), removes.len());
    nic.apply_rule_diff(adds, &removes)
        .map_err(|e| e.to_string())?;
    Ok(counts)
}

/// One RX core's grace-period slot.
pub(crate) struct Ack {
    /// The highest generation the core has adopted, or [`EXITED`].
    pub(crate) generation: AtomicU64,
    /// When the core last claimed an epoch's sink set (nanoseconds since
    /// [`EpochState::base`]; written just before `generation`).
    pub(crate) picked_up_ns: AtomicU64,
}

/// A staged epoch, its rule diff (added, removed) and its unspawned rings.
type Staged<F> = (Arc<ConfigEpoch<F>>, (usize, usize), Vec<VirtualWorker>);

/// A published swap waiting out its grace period: the epoch it retires
/// and its record so far.
pub(crate) struct Grace<F: FilterFns + 'static> {
    old: Arc<ConfigEpoch<F>>,
    pub(crate) event: SwapEvent,
}

/// Shared swap state between a run, its RX cores and any
/// [`SwapController`]. A threaded run uses its runtime's; a stepped run
/// keeps one of its own, which no controller reaches.
pub(crate) struct EpochState<F: FilterFns + 'static> {
    /// The published generation. Cores poll this once per burst.
    pub(crate) generation: AtomicU64,
    /// The current epoch (`None` between runs).
    pub(crate) current: RwLock<Option<Arc<ConfigEpoch<F>>>>,
    /// A threaded run's device (rules, worker threads that sleep its fault
    /// layer's delays); a stepped run drains its epochs' rings itself.
    nic: Option<Arc<VirtualNic>>,
    /// The runtime's gauges: a run opened here zeroes them and its cores
    /// flush into them, and every published table joins their hub.
    pub(crate) gauges: Arc<RuntimeGauges>,
    /// Per-core acknowledgment slots.
    pub(crate) acks: Vec<Ack>,
    /// Time base for all `SwapEvent` timestamps.
    pub(crate) base: Instant,
    /// The in-flight run's row table. Its lock serializes swaps (and
    /// run start/end epoch installation).
    pub(crate) rows: Mutex<Rows>,
}

impl<F: FilterFns + 'static> EpochState<F> {
    pub(crate) fn new(
        cores: usize,
        nic: Option<Arc<VirtualNic>>,
        gauges: Arc<RuntimeGauges>,
    ) -> Self {
        EpochState {
            generation: AtomicU64::new(0),
            current: RwLock::new(None),
            nic,
            gauges,
            acks: (0..cores)
                .map(|_| Ack {
                    generation: AtomicU64::new(EXITED),
                    picked_up_ns: AtomicU64::new(0),
                })
                .collect(),
            base: Instant::now(),
            rows: Mutex::new(Rows::default()),
        }
    }

    /// Stages `table` as generation `generation`: the one place an epoch is
    /// built, for a run's first and every swap's. The rule diff comes
    /// first, so a rejected rule set changes nothing. Returns the epoch,
    /// the rule diff and the unspawned rings.
    fn stage(
        &self,
        generation: u64,
        table: PreparedSwap<F>,
        rows: &mut Rows,
        config: &RuntimeConfig,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<Staged<F>, String> {
        let rules = match &self.nic {
            Some(nic) => stage_rules(nic, &*table.filter, config)?,
            None => (0, 0),
        };
        let cores = usize::from(config.cores);
        rows.install(&table.subs, &table.modes, cores);
        let map: Vec<usize> = rows.live().collect();
        let parks = self.nic.is_none();
        let mut sinks: Vec<CoreSinks> = (0..cores)
            .map(|core| CoreSinks::new(table.subs.len(), core, tracer, parks))
            .collect();
        let stats = map.iter().map(|&r| rows.dispatch(r));
        let queued = build_sinks(&table.subs, &table.modes, stats, &mut sinks);
        let (dispatcher, rings) = if let Some(nic) = &self.nic {
            let d = channel_dispatcher(&table.subs, &table.modes, queued, nic, tracer);
            (Some(d), Vec::new())
        } else {
            let rings = queued.into_iter().flat_map(|q| q.1.into_iter().enumerate());
            let rings = rings.enumerate().map(|(lane, (core, ring))| VirtualWorker {
                generation,
                core,
                lane,
                ring,
                ran: 0,
                hold: Hold::default(),
            });
            (None, rings.collect())
        };
        let epoch = Arc::new(ConfigEpoch {
            generation,
            filter: table.filter,
            subs: table.subs,
            remap: table.remap,
            rows: map,
            sinks: Mutex::new(sinks.into_iter().map(Some).collect()),
            dispatcher: Mutex::new(dispatcher),
            tracer: tracer.cloned(),
        });
        Ok((epoch, rules, rings))
    }

    /// Makes `epoch` current (and the hub's membership its table's). The
    /// generation counter is the caller's: a run's first epoch keeps it.
    fn publish(&self, epoch: Arc<ConfigEpoch<F>>, rows: &Rows) {
        (self.gauges.hub).replace(epoch.rows.iter().map(|&r| rows.dispatch(r).clone()));
        *self.current.write().unwrap() = Some(epoch);
    }

    /// Opens a run of `rt`: zeroed gauges, `tracer` on its NIC, a fresh row
    /// table, and its own table staged and published at the generation the
    /// counter holds, every ack slot at it (not [`EXITED`]: a swap before a
    /// core's first pickup waits for it).
    pub(crate) fn open(
        &self,
        rt: &MultiRuntime<F>,
        tracer: Option<&Arc<Tracer>>,
    ) -> Vec<VirtualWorker> {
        let table = PreparedSwap {
            filter: Arc::clone(&rt.filter),
            subs: Arc::clone(&rt.subs),
            modes: Arc::clone(&rt.modes),
            remap: Vec::new(),
            warnings: Vec::new(),
        };
        let mut rows = self.rows.lock().unwrap();
        *rows = Rows::default();
        let generation = self.generation.load(Ordering::Acquire);
        self.gauges.reset_cores();
        self.gauges.note_config_epoch(generation);
        if let Some(t) = tracer {
            rt.nic().set_tracer(Arc::clone(t));
        }
        let (epoch, _, rings) = self
            .stage(generation, table, &mut rows, &rt.config, tracer)
            .expect("the device accepted the runtime's own rules when it was built");
        self.publish(epoch, &rows);
        for ack in &self.acks {
            ack.generation.store(generation, Ordering::Release);
        }
        rings
    }

    /// Closes a run once its cores have exited: takes the final epoch and
    /// the rows under the swap lock (a racing swap completed, or sees
    /// `NotRunning`), then retires the epoch's fabric and clears `nic`'s tracer.
    pub(crate) fn close(&self, nic: &VirtualNic) -> Rows {
        let (epoch, rows) = {
            let mut rows = self.rows.lock().unwrap();
            let epoch = self.current.write().unwrap().take();
            (epoch, std::mem::take(&mut *rows))
        };
        epoch.expect("an open run has an epoch").retire_fabric();
        nic.clear_tracer();
        rows
    }

    /// Steps 2–3 of a swap, under the swap lock (`rows`): stages `table`
    /// as the generation after the current one, tracing into the run's
    /// tracer, and publishes it. Nothing changes on an error.
    pub(crate) fn publish_swap(
        &self,
        rows: &mut Rows,
        mut table: PreparedSwap<F>,
        requested_at: Duration,
        config: &RuntimeConfig,
    ) -> Result<(Grace<F>, Vec<VirtualWorker>), SwapError> {
        let old = self.current.read().unwrap().clone();
        let old = old.ok_or(SwapError::NotRunning)?;
        let generation = old.generation + 1;
        let added = (0..table.subs.len()).filter(|j| !table.remap.contains(&Some(*j)));
        let added = added.map(|j| table.subs[j].name().to_string()).collect();
        let removed = (table.remap.iter().zip(old.subs.iter())).filter(|(m, _)| m.is_none());
        let removed = removed.map(|(_, s)| s.name().to_string()).collect();
        let warnings = std::mem::take(&mut table.warnings);
        let (epoch, rules, rings) = self
            .stage(generation, table, rows, config, old.tracer.as_ref())
            .map_err(SwapError::HwFilter)?;
        let staged_at = self.base.elapsed();
        self.publish(epoch, rows);
        let published_at = self.base.elapsed();
        self.generation.store(generation, Ordering::Release);
        self.gauges.note_config_epoch(generation);
        let event = SwapEvent {
            generation,
            requested_at,
            staged_at,
            published_at,
            retired_at: published_at,
            pickup_lag_us: Vec::new(),
            added,
            removed,
            rules_added: rules.0,
            rules_removed: rules.1,
            warnings,
        };
        Ok((Grace { old, event }, rings))
    }

    /// Step 4's predicate: every core has adopted the swap's generation
    /// (or exited).
    pub(crate) fn grace_over(&self, grace: &Grace<F>) -> bool {
        self.acks.iter().all(|ack| {
            let v = ack.generation.load(Ordering::Acquire);
            v == EXITED || v >= grace.event.generation
        })
    }

    /// Step 5, after the grace period: retires the old epoch (no core
    /// holds it) and completes the record with each core's pickup lag.
    pub(crate) fn retire(&self, grace: Grace<F>) -> SwapEvent {
        let Grace { old, mut event } = grace;
        let old = Arc::into_inner(old).expect("no core holds an epoch past its grace period");
        old.retire_fabric();
        event.retired_at = self.base.elapsed();
        // The stamps were stored before the acks the grace predicate
        // acquired. A core that exited without adopting this generation
        // last stamped before the publish, so it reads 0.
        event.pickup_lag_us = (self.acks.iter())
            .map(|ack| {
                let picked_up = Duration::from_nanos(ack.picked_up_ns.load(Ordering::Relaxed));
                let lag = picked_up.saturating_sub(event.published_at);
                u64::try_from(lag.as_micros()).unwrap_or(u64::MAX)
            })
            .collect();
        event
    }
}

/// A handle for swapping subscriptions on a live run. Obtained from
/// [`MultiRuntime::swap_controller`](crate::MultiRuntime::swap_controller)
/// before the run starts; it holds only shared state, so it works from
/// any thread while `run()` owns the runtime.
pub struct SwapController {
    pub(crate) epochs: Arc<EpochState<CompiledFilter>>,
    pub(crate) config: RuntimeConfig,
}

impl SwapController {
    /// The currently published configuration generation.
    pub fn generation(&self) -> u64 {
        self.epochs.generation.load(Ordering::Acquire)
    }

    /// Swaps the running configuration for `spec`: prepare, stage the
    /// NIC rule diff and the new epoch, publish it, wait out the grace
    /// period, retire the old epoch. Returns the completed
    /// [`SwapEvent`].
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
        let exited = |a: &Ack| a.generation.load(Ordering::Acquire) == EXITED;
        if self.epochs.acks.iter().all(exited) {
            // Every core already exited: the run is shutting down.
            return Err(SwapError::NotRunning);
        }
        let published = prepare(spec, &old.subs, &self.config).and_then(|table| {
            (self.epochs).publish_swap(&mut rows, table, requested_at, &self.config)
        });
        let (grace, _) = published.inspect_err(|_| {
            // The flight recorder keeps the moments around a rejection.
            let tracer = old.tracer.as_deref();
            fire_trigger(tracer, TriggerReason::SwapFailed, old.generation);
        })?;
        drop(old);
        while !self.epochs.grace_over(&grace) {
            std::thread::yield_now();
        }
        let event = self.epochs.retire(grace);
        let lag = event.pickup_lag_us.iter().copied().max().unwrap_or(0);
        self.epochs.gauges.note_swap_pickup_lag(lag);
        Ok(event)
    }
}
