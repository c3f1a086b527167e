//! The per-core connection table with timer-wheel expiration.
//!
//! Each worker core owns one `ConnTable`; symmetric RSS guarantees it
//! only ever sees its own connections, so no synchronization is needed.
//! Within a core the table is built for million-flow scan churn:
//!
//! - **Sharded index keyed on 64 bits of `(rss_hash, fingerprint)`.**
//!   The index is split into [`SHARDS`] sub-maps, bounding the size of
//!   any single rehash pause as the table grows to millions of entries.
//!   The NIC's symmetric Toeplitz hash (`mbuf.rss_hash`) cannot be the
//!   map key: the symmetric key is `0x6d5a` repeated, so an input bit's
//!   contribution depends only on its position mod 16 and the "32-bit"
//!   hash takes at most 65,536 values on any traffic (pinned by a test in
//!   `retina_nic::rss`). Keyed on it alone, 100,000 live scan connections
//!   sat in 51,154 buckets with chains up to 9 long, 78 % of them in a
//!   chain, and the mean chain grew linearly with the table. The map key
//!   is therefore [`ConnKey::fingerprint`] — two multiplies over the
//!   canonical endpoints — with the RSS hash folded into its high half,
//!   and the same 64-bit [`index_key`] picks the shard, so an entry's
//!   shard is found again from the index key its slot keeps. Map hashing
//!   uses the seeded in-tree [`retina_support::hash::FlowHasher`]:
//!   deterministic layout, one multiply-mix per probe.
//! - **Full-key verification, chains as the fallback.** An index entry
//!   is one arena handle (16 bytes with its key); every hit is verified
//!   against the identity in the arena slot, so two connections whose
//!   64-bit index keys collide (forgeable, since nothing here is secret;
//!   otherwise ~never) degrade to a short scan of a side chain, never to
//!   misattribution. At 100,000 live scan connections under the real
//!   hash no chain is longer than 2 ([`ConnTable::longest_chain`], gated
//!   by `churn_storm`).
//! - **One probe per packet, one fingerprint per packet.**
//!   [`ConnTable::lookup`] resolves a [`ConnHandle`] once;
//!   [`ConnTable::entry_mut`] and [`ConnTable::remove_handle`] then
//!   address the entry without touching the index again. The handle
//!   verbs (`prefetch`, `lookup`, `insert`) take the 64-bit index key
//!   the caller computed — once — with [`index_key`]; the key-based
//!   verbs (`get_mut`, `get_or_insert_with`, `remove`) compute it and
//!   are those steps in one call.
//! - **A hint verb for bursts.** [`ConnTable::prefetch`] probes the
//!   shard index *unverified* and asks the CPU to fetch the arena slot
//!   behind whatever it finds ([`ConnArena::prefetch`]), so the slot
//!   misses of a burst of packets overlap instead of queueing. Its
//!   contract is **no dereference of a slot**: the slot behind the handle
//!   it returns may be vacant or hold another connection by the time it
//!   is used, or belong to a connection whose index key merely collides —
//!   which is why [`ConnTable::lookup`] verifies a hinted handle against
//!   the full key of the slot's occupant before trusting it, and probes
//!   the index itself when the hint fails.
//! - **Arena entry storage.** Entries live in a slot-reusing
//!   [`ConnArena`] addressed by `u32` slot indices: fixed chunks of slots
//!   that never move, with the free list threaded through the vacant
//!   slots. Steady-state churn allocates nothing, past its first chunk
//!   the arena holds at most one chunk more than its peak, and the
//!   footprint is the memory high-water mark the telemetry gauge reports.
//! - **A timer wheel linked through the slots.** Expiration follows
//!   §5.2's two timeouts: a short *establishment* timeout expires
//!   unanswered SYNs quickly (65% of connections!), and a longer
//!   *inactivity* timeout reclaims established-but-idle connections. The
//!   wheel ([`crate::timerwheel`]) is 256 buckets of 100 ms whose lists
//!   run through two link words in each slot; a removal unlinks the slot,
//!   and an expiry pass recomputes each due connection's deadline from
//!   its stamps, so the wheel holds no deadline and no reference that
//!   outlives its connection. Mass scan expiry drains whole buckets;
//!   per-packet work is one `last_seen` stamp. Figure 8 reproduces the
//!   memory effect of these choices.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use retina_support::hash::{splitmix64, FlowHashState};

use crate::arena::{ConnArena, ConnHandle};
use crate::timerwheel::TimerWheel;
use crate::tuple::{ConnKey, FiveTuple};

pub use crate::arena::ConnEntry;

/// Number of index shards per table (power of two).
pub const SHARDS: usize = 16;

/// Timeout configuration (nanoseconds). `None` disables a timeout — the
/// configurations compared in Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeoutConfig {
    /// Time allowed from first packet to establishment (default 5 s).
    pub establish_ns: Option<u64>,
    /// Maximum idle time for established connections (default 5 min).
    pub inactivity_ns: Option<u64>,
}

impl Default for TimeoutConfig {
    fn default() -> Self {
        TimeoutConfig {
            establish_ns: Some(5_000_000_000),
            inactivity_ns: Some(300_000_000_000),
        }
    }
}

impl TimeoutConfig {
    /// The paper's default: 5 s establish + 5 min inactivity.
    pub fn retina_default() -> Self {
        Self::default()
    }

    /// Single 5-minute inactivity timeout (Figure 8's middle line).
    pub fn inactivity_only() -> Self {
        TimeoutConfig {
            establish_ns: None,
            inactivity_ns: Some(300_000_000_000),
        }
    }

    /// No timeouts at all (Figure 8's out-of-memory line).
    pub fn none() -> Self {
        TimeoutConfig {
            establish_ns: None,
            inactivity_ns: None,
        }
    }
}

/// Per-core connection table: sharded index over an entry arena, with
/// timer-wheel expiration.
#[derive(Debug)]
pub struct ConnTable<V> {
    /// `shards[i]` maps index key → the connection that holds it, for
    /// index keys mixing to `i`.
    shards: Vec<HashMap<u64, ConnHandle, FlowHashState>>,
    /// Each shard's peak `capacity()`: what its allocation holds. The
    /// live `capacity()` is not — it drops as removals leave tombstones.
    shard_capacity: [usize; SHARDS],
    /// The correctness fallback for a full 64-bit collision: index key →
    /// the connections that found it already held by another one. Empty
    /// unless someone forges keys; every path checks that first.
    collided: HashMap<u64, Vec<ConnHandle>, FlowHashState>,
    arena: ConnArena<V>,
    config: TimeoutConfig,
}

/// The shard an index key lives in. Mixed through splitmix64 first: the
/// fingerprint and the symmetric Toeplitz output are structured, so raw
/// high or low bits would skew the shards.
#[inline]
#[allow(clippy::cast_possible_truncation)] // only the low log2(SHARDS) bits survive the mask
fn shard_of(ikey: u64) -> usize {
    (splitmix64(ikey) as usize) & (SHARDS - 1)
}

/// The shard-map key of a connection: its fingerprint, with the RSS
/// hash folded into the high half. The one place a packet's
/// [`ConnKey::fingerprint`] is computed: the handle verbs of
/// [`ConnTable`] take the result.
#[inline]
#[must_use]
pub fn index_key(hash: u32, key: &ConnKey) -> u64 {
    key.fingerprint() ^ (u64::from(hash) << 32)
}

impl<V> ConnTable<V> {
    /// Creates a table with the given timeout configuration.
    ///
    /// The wheel's 256 buckets of 100 ms span 25.6 s, so the default 5 s
    /// establish timeout (the scan-churn fast path) is placed and fires
    /// at its own tick; a connection idle towards the 5-minute
    /// inactivity timeout stops once a rotation on the way.
    pub fn new(config: TimeoutConfig) -> Self {
        ConnTable {
            shards: (0..SHARDS)
                .map(|i| HashMap::with_hasher(FlowHashState::with_seed(splitmix64(i as u64))))
                .collect(),
            shard_capacity: [0; SHARDS],
            collided: HashMap::default(),
            arena: ConnArena::new(),
            config,
        }
    }

    /// Number of tracked connections.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Returns true when no connections are tracked.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// The active timeout configuration.
    pub fn config(&self) -> TimeoutConfig {
        self.config
    }

    /// Peak number of simultaneously-tracked connections.
    pub fn live_high_water(&self) -> usize {
        self.arena.live_high_water()
    }

    /// Bytes held by the arena, the shard indexes (approximate for the
    /// hash maps: each shard's peak capacity × entry footprint) and the
    /// wheel's sentinels — all of the timer state but the link words in
    /// the slots. Capacity never shrinks — removal and
    /// [`ConnTable::drain_all`] keep it — so this is also the memory
    /// high-water mark.
    pub fn allocated_bytes(&self) -> usize {
        let entry_footprint = std::mem::size_of::<(u64, ConnHandle)>() + 1;
        let index: usize = self.shard_capacity.iter().sum::<usize>() * entry_footprint;
        self.arena.allocated_bytes() + index + TimerWheel::BYTES
    }

    /// The most connections sharing one index key: they are told apart
    /// by a linear scan, so this is the table's worst-case probe length.
    /// It is 1 or, rarely, 2 at any size when callers pass the NIC's
    /// hash and real keys.
    pub fn longest_chain(&self) -> usize {
        let collided = self.collided.values().map(Vec::len).max().unwrap_or(0);
        usize::from(!self.is_empty()) + collided
    }

    /// Number of distinct index keys in use (== [`ConnTable::len`] when
    /// no two connections share one).
    #[cfg(test)]
    fn bucket_count(&self) -> usize {
        self.shards.iter().map(HashMap::len).sum()
    }

    /// Whether `handle`'s slot holds the connection `key` names.
    #[inline]
    fn holds(&self, handle: ConnHandle, key: &ConnKey) -> bool {
        self.arena
            .get(handle)
            .is_some_and(|entry| key.is_key_of(&entry.tuple))
    }

    /// The hint verb (see the module docs): probes the index for `ikey`
    /// without verifying what it finds, asks the CPU to fetch the slot
    /// behind it, and returns the handle for [`ConnTable::lookup`] to
    /// verify later. Dereferences no slot.
    #[inline]
    pub fn prefetch(&self, ikey: u64) -> Option<ConnHandle> {
        let first = *self.shards[shard_of(ikey)].get(&ikey)?;
        self.arena.prefetch(first);
        Some(first)
    }

    /// Resolves `key` — with its [`index_key`] — to the handle of its
    /// entry. A `hint` from [`ConnTable::prefetch`] that still verifies
    /// (this key's identity in the slot) is the answer without an index
    /// probe; otherwise this is the one keyed probe a packet needs.
    /// Every hit is verified against the identity in the arena slot.
    #[inline]
    pub fn lookup(&self, ikey: u64, key: &ConnKey, hint: Option<ConnHandle>) -> Option<ConnHandle> {
        if let Some(hinted) = hint.filter(|h| self.holds(*h, key)) {
            return Some(hinted);
        }
        let first = *self.shards[shard_of(ikey)].get(&ikey)?;
        if self.holds(first, key) {
            return Some(first);
        }
        let later = self.collided.get(&ikey)?;
        later.iter().copied().find(|h| self.holds(*h, key))
    }

    /// The entry behind a handle [`ConnTable::lookup`] or
    /// [`ConnTable::insert`] returned (`None` once it was removed).
    #[inline]
    pub fn entry_mut(&mut self, handle: ConnHandle) -> Option<&mut ConnEntry<V>> {
        self.arena.get_mut(handle)
    }

    /// Inserts a connection [`ConnTable::lookup`] just missed and
    /// schedules it on the wheel. `key` must be `tuple`'s key, `ikey`
    /// its [`index_key`], and the key must not be in the table.
    pub fn insert(
        &mut self,
        ikey: u64,
        key: &ConnKey,
        now_ns: u64,
        tuple: FiveTuple,
        value: V,
    ) -> ConnHandle {
        debug_assert!(key.is_key_of(&tuple), "key of another tuple");
        debug_assert!(
            self.lookup(ikey, key, None).is_none(),
            "key already tracked"
        );
        let entry = ConnEntry {
            tuple,
            created_ns: now_ns,
            last_seen_ns: now_ns,
            established: false,
            value,
        };
        let deadline = actual_deadline(&self.config, &entry);
        let handle = self.arena.insert(ikey, entry);
        let shard = shard_of(ikey);
        match self.shards[shard].entry(ikey) {
            Entry::Vacant(v) => {
                v.insert(handle);
            }
            Entry::Occupied(_) => self.collided.entry(ikey).or_default().push(handle),
        }
        let capacity = &mut self.shard_capacity[shard];
        *capacity = (*capacity).max(self.shards[shard].capacity());
        if let Some(deadline) = deadline {
            self.arena.schedule(handle, deadline);
        }
        handle
    }

    /// Removes the entry behind `handle` (e.g. on natural termination or
    /// an early filter discard), unlinking it from the index and from its
    /// wheel bucket.
    pub fn remove_handle(&mut self, handle: ConnHandle) -> Option<ConnEntry<V>> {
        let (ikey, entry) = self.arena.remove(handle)?;
        unindex(&mut self.shards, &mut self.collided, ikey, handle);
        Some(entry)
    }

    /// Looks up a connection by RSS hash + canonical key.
    pub fn get_mut(&mut self, hash: u32, key: &ConnKey) -> Option<&mut ConnEntry<V>> {
        let handle = self.lookup(index_key(hash, key), key, None)?;
        self.arena.get_mut(handle)
    }

    /// Returns the entry for `key`, inserting a new one (built by
    /// `init`) on first sight. New connections are scheduled on the
    /// wheel.
    pub fn get_or_insert_with(
        &mut self,
        hash: u32,
        key: ConnKey,
        now_ns: u64,
        init: impl FnOnce() -> (FiveTuple, V),
    ) -> &mut ConnEntry<V> {
        let ikey = index_key(hash, &key);
        let handle = self.lookup(ikey, &key, None).unwrap_or_else(|| {
            let (tuple, value) = init();
            self.insert(ikey, &key, now_ns, tuple, value)
        });
        self.arena.get_mut(handle).expect("indexed handle is live")
    }

    /// Removes a connection by RSS hash + canonical key.
    pub fn remove(&mut self, hash: u32, key: &ConnKey) -> Option<ConnEntry<V>> {
        let handle = self.lookup(index_key(hash, key), key, None)?;
        self.remove_handle(handle)
    }

    /// Advances time, expiring connections whose applicable timeout has
    /// elapsed. `on_expire` receives each expired entry.
    ///
    /// The connections in the wheel buckets the clock passes are
    /// *candidates*: each one's deadline is recomputed from its stamps,
    /// and one whose deadline moved later — activity re-arms by stamping
    /// `last_seen`, never by touching the wheel — or lies past the
    /// wheel's rotation is scheduled again.
    pub fn advance(&mut self, now_ns: u64, mut on_expire: impl FnMut(ConnKey, ConnEntry<V>)) {
        while let Some(handle) = self.arena.pop_due(now_ns) {
            let entry = self.arena.get(handle).expect("a timed slot is occupied");
            match actual_deadline(&self.config, entry) {
                Some(deadline) if deadline <= now_ns => {
                    let entry = self.remove_handle(handle).expect("checked above");
                    on_expire(entry.tuple.key(), entry);
                }
                Some(deadline) => self.arena.schedule(handle, deadline),
                None => {
                    // No applicable timeout (config disables it): do not
                    // reschedule; the connection lives until termination.
                }
            }
        }
    }

    /// Iterates over all tracked entries (diagnostics) in deterministic
    /// arena-slot order.
    pub fn iter(&self) -> impl Iterator<Item = &ConnEntry<V>> {
        self.arena.iter()
    }

    /// Mutably visits every tracked connection in deterministic
    /// arena-slot order; entries for which `f` returns `false` are
    /// removed from the table (unlinked from the index and the wheel)
    /// and handed to `on_remove` with their index key. This is the
    /// swap-time rebind primitive: one pass rewrites surviving
    /// connections in place and evicts the ones the new configuration no
    /// longer watches.
    pub fn retain_mut(
        &mut self,
        f: impl FnMut(&mut ConnEntry<V>) -> bool,
        mut on_remove: impl FnMut(u64, ConnEntry<V>),
    ) {
        let (shards, collided) = (&mut self.shards, &mut self.collided);
        self.arena.retain_mut(f, |handle, ikey, entry| {
            unindex(shards, collided, ikey, handle);
            on_remove(ikey, entry);
        });
    }

    /// Drains every tracked connection (used at shutdown to flush
    /// partial sessions) into `on_drain`, in deterministic arena-slot
    /// order and in place: nothing is copied out first.
    pub fn drain_all(&mut self, on_drain: impl FnMut(ConnEntry<V>)) {
        for shard in &mut self.shards {
            shard.clear();
        }
        self.collided.clear();
        self.arena.drain(on_drain);
    }
}

/// Drops the index entry of the removed connection `handle` held under
/// `ikey`: a collided connection, if any, takes its place.
fn unindex(
    shards: &mut [HashMap<u64, ConnHandle, FlowHashState>],
    collided: &mut HashMap<u64, Vec<ConnHandle>, FlowHashState>,
    ikey: u64,
    handle: ConnHandle,
) {
    let shard = &mut shards[shard_of(ikey)];
    let later = if collided.is_empty() {
        None
    } else {
        collided.get_mut(&ikey)
    };
    let Some(later) = later else {
        // No other connection shares the key: this one was its holder.
        shard.remove(&ikey);
        return;
    };
    let first = shard.get_mut(&ikey).expect("a shared key has a holder");
    if *first == handle {
        *first = later.remove(0);
    } else {
        later.retain(|h| *h != handle);
    }
    if later.is_empty() {
        collided.remove(&ikey);
    }
}

fn actual_deadline<V>(config: &TimeoutConfig, entry: &ConnEntry<V>) -> Option<u64> {
    if entry.established {
        config.inactivity_ns.map(|i| entry.last_seen_ns + i)
    } else {
        match (config.establish_ns, config.inactivity_ns) {
            (Some(e), _) => Some(entry.created_ns + e),
            (None, Some(i)) => Some(entry.last_seen_ns + i),
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::SocketAddr;

    const SEC: u64 = 1_000_000_000;

    fn key_tuple(n: u16) -> (ConnKey, FiveTuple) {
        let orig: SocketAddr = format!("10.0.0.1:{n}").parse().unwrap();
        let resp: SocketAddr = "1.1.1.1:443".parse().unwrap();
        let tuple = FiveTuple {
            orig,
            resp,
            proto: 6,
        };
        (tuple.key(), tuple)
    }

    /// Stand-in for the NIC's symmetric RSS hash in the timeout tests:
    /// any deterministic function of the connection works there. The
    /// index-shape tests below use the real `RssHasher::symmetric()`.
    #[allow(clippy::cast_possible_truncation)] // keeping the low 32 of a mixed 64-bit draw
    fn rss(n: u16) -> u32 {
        splitmix64(u64::from(n)) as u32
    }

    fn insert(table: &mut ConnTable<u32>, n: u16, now: u64) -> ConnKey {
        let (key, tuple) = key_tuple(n);
        table.get_or_insert_with(rss(n), key, now, || (tuple, 0));
        key
    }

    #[test]
    fn unanswered_syn_expires_at_establish_timeout() {
        let mut table = ConnTable::new(TimeoutConfig::retina_default());
        let key = insert(&mut table, 1, 0);
        let mut expired = Vec::new();
        table.advance(4 * SEC, |k, _| expired.push(k));
        assert!(expired.is_empty());
        table.advance(6 * SEC, |k, _| expired.push(k));
        assert_eq!(expired, vec![key]);
        assert!(table.is_empty());
    }

    #[test]
    fn established_connection_uses_inactivity_timeout() {
        let mut table = ConnTable::new(TimeoutConfig::retina_default());
        let key = insert(&mut table, 1, 0);
        {
            let entry = table.get_mut(rss(1), &key).unwrap();
            entry.established = true;
            entry.last_seen_ns = SEC;
        }
        let mut expired = Vec::new();
        // Survives the establish horizon.
        table.advance(10 * SEC, |k, _| expired.push(k));
        assert!(
            expired.is_empty(),
            "established conn must not expire at 10s"
        );
        assert_eq!(table.len(), 1);
        // Expires after 5 minutes of inactivity.
        table.advance(302 * SEC, |k, _| expired.push(k));
        assert_eq!(expired, vec![key]);
    }

    #[test]
    fn activity_defers_expiration() {
        let mut table = ConnTable::new(TimeoutConfig::retina_default());
        let key = insert(&mut table, 1, 0);
        {
            let e = table.get_mut(rss(1), &key).unwrap();
            e.established = true;
        }
        let mut expired = Vec::new();
        // Touch the connection every 100 s; it must survive well past the
        // 300 s inactivity timeout measured from creation.
        for t in 1..8u64 {
            table.advance(t * 100 * SEC, |k, _| expired.push(k));
            if let Some(e) = table.get_mut(rss(1), &key) {
                e.last_seen_ns = t * 100 * SEC;
            }
        }
        assert!(expired.is_empty(), "active conn expired: {expired:?}");
        // Now go idle.
        table.advance(1200 * SEC, |k, _| expired.push(k));
        assert_eq!(expired, vec![key]);
    }

    #[test]
    fn touch_rearms_entry_scheduled_for_expiry() {
        // Re-arm at the eleventh hour: the wheel candidate fires, but
        // revalidation sees the moved deadline and reschedules instead
        // of expiring.
        let mut table = ConnTable::new(TimeoutConfig::retina_default());
        let key = insert(&mut table, 1, 0);
        {
            let e = table.get_mut(rss(1), &key).unwrap();
            e.established = true;
        }
        let mut expired = Vec::new();
        // Touch just before the 300 s deadline would fire.
        table.advance(299 * SEC, |k, _| expired.push(k));
        table.get_mut(rss(1), &key).unwrap().last_seen_ns = 299 * SEC;
        table.advance(301 * SEC, |k, _| expired.push(k));
        assert!(expired.is_empty(), "re-armed conn expired: {expired:?}");
        // The re-armed deadline is honored.
        table.advance(600 * SEC, |k, _| expired.push(k));
        assert_eq!(expired, vec![key]);
    }

    #[test]
    fn removed_connection_is_tombstone() {
        let mut table = ConnTable::new(TimeoutConfig::retina_default());
        let key = insert(&mut table, 1, 0);
        table.remove(rss(1), &key).unwrap();
        let mut expired = Vec::new();
        table.advance(10 * SEC, |k, _| expired.push(k));
        assert!(expired.is_empty());
    }

    #[test]
    fn slot_reuse_does_not_resurrect_wheel_token() {
        // Remove a conn, then insert a different one that reuses its
        // arena slot. The removal unlinked the slot from its bucket: no
        // timer of the first connection can expire the new occupant
        // early.
        let mut table = ConnTable::new(TimeoutConfig::retina_default());
        let key1 = insert(&mut table, 1, 0);
        table.remove(rss(1), &key1).unwrap();
        // Reuses slot 0; establish deadline 4s+5s=9s.
        let key2 = {
            let (key, tuple) = key_tuple(2);
            table.get_or_insert_with(rss(2), key, 4 * SEC, || (tuple, 0));
            key
        };
        let mut expired = Vec::new();
        // key1 would have expired at 5s.
        table.advance(6 * SEC, |k, _| expired.push(k));
        assert!(expired.is_empty(), "the old timer expired the new conn");
        assert_eq!(table.len(), 1);
        table.advance(10 * SEC, |k, _| expired.push(k));
        assert_eq!(expired, vec![key2]);
    }

    #[test]
    fn no_timeouts_never_expires() {
        let mut table = ConnTable::new(TimeoutConfig::none());
        insert(&mut table, 1, 0);
        let mut expired = Vec::new();
        table.advance(10_000 * SEC, |k, _| expired.push(k));
        assert!(expired.is_empty());
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn inactivity_only_keeps_syns_longer() {
        // The Figure 8 comparison: without the establish timeout, a
        // single-SYN connection lives the full 5 minutes.
        let mut default_table = ConnTable::new(TimeoutConfig::retina_default());
        let mut inact_table = ConnTable::new(TimeoutConfig::inactivity_only());
        insert(&mut default_table, 1, 0);
        insert(&mut inact_table, 1, 0);
        let mut d_expired = 0;
        let mut i_expired = 0;
        default_table.advance(60 * SEC, |_, _| d_expired += 1);
        inact_table.advance(60 * SEC, |_, _| i_expired += 1);
        assert_eq!(d_expired, 1, "default expires the SYN at 5s");
        assert_eq!(i_expired, 0, "inactivity-only keeps it");
        inact_table.advance(301 * SEC, |_, _| i_expired += 1);
        assert_eq!(i_expired, 1);
    }

    #[test]
    fn many_connections_scale() {
        let mut table = ConnTable::new(TimeoutConfig::retina_default());
        for n in 0..10_000u16 {
            insert(&mut table, n, u64::from(n) * 1_000); // staggered µs
        }
        assert_eq!(table.len(), 10_000);
        assert_eq!(table.live_high_water(), 10_000);
        let mut expired = 0;
        table.advance(6 * SEC, |_, _| expired += 1);
        assert_eq!(expired, 10_000);
        assert!(table.is_empty());
        assert_eq!(table.live_high_water(), 10_000, "high water survives drain");
    }

    #[test]
    fn get_or_insert_is_idempotent() {
        let mut table = ConnTable::new(TimeoutConfig::retina_default());
        let (key, tuple) = key_tuple(1);
        table.get_or_insert_with(rss(1), key, 0, || (tuple, 41));
        let e = table.get_or_insert_with(rss(1), key, 99, || (tuple, 42));
        assert_eq!(e.value, 41, "existing entry preserved");
        assert_eq!(e.created_ns, 0);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn colliding_rss_hashes_stay_distinct() {
        // The symmetric Toeplitz key has 16 bits of entropy: distinct
        // connections sharing a 32-bit hash are the norm past 65,536
        // flows. The fingerprint half of the index key separates them;
        // they resolve by full key and remove independently.
        let mut table = ConnTable::new(TimeoutConfig::retina_default());
        const HASH: u32 = 0xdead_beef; // same hash for all three
        let mut keys = Vec::new();
        for n in 1..=3u16 {
            let (key, tuple) = key_tuple(n);
            table.get_or_insert_with(HASH, key, 0, || (tuple, u32::from(n)));
            keys.push(key);
        }
        assert_eq!(table.len(), 3);
        for (i, key) in keys.iter().enumerate() {
            let value = u32::try_from(i).unwrap() + 1;
            assert_eq!(table.get_mut(HASH, key).unwrap().value, value);
        }
        assert_eq!(
            table.longest_chain(),
            1,
            "a shared RSS hash alone chains nothing"
        );
        // A fourth key under the same hash misses (verified, not aliased).
        let (other, _) = key_tuple(99);
        assert!(table.get_mut(HASH, &other).is_none());
        // Remove the middle one; the rest stay reachable.
        let removed = table.remove(HASH, &keys[1]).unwrap();
        assert_eq!(removed.value, 2);
        assert_eq!(table.len(), 2);
        assert_eq!(table.get_mut(HASH, &keys[0]).unwrap().value, 1);
        assert_eq!(table.get_mut(HASH, &keys[2]).unwrap().value, 3);
        // And they still expire independently.
        let mut expired = Vec::new();
        table.advance(6 * SEC, |k, _| expired.push(k));
        assert_eq!(expired.len(), 2);
    }

    #[test]
    fn zero_hash_degrades_gracefully() {
        // Unstamped mbufs leave rss_hash == 0: everything lands in one
        // shard, still one bucket per connection.
        let mut table = ConnTable::new(TimeoutConfig::retina_default());
        let mut keys = Vec::new();
        for n in 1..=50u16 {
            let (key, tuple) = key_tuple(n);
            table.get_or_insert_with(0, key, 0, || (tuple, u32::from(n)));
            keys.push(key);
        }
        assert_eq!(table.len(), 50);
        for (i, key) in keys.iter().enumerate() {
            let value = u32::try_from(i).unwrap() + 1;
            assert_eq!(table.get_mut(0, key).unwrap().value, value);
        }
    }

    #[test]
    fn drain_all() {
        let mut table = ConnTable::new(TimeoutConfig::retina_default());
        insert(&mut table, 1, 0);
        insert(&mut table, 2, 0);
        let mut drained = Vec::new();
        table.drain_all(|e| drained.push(e.tuple.orig.port()));
        assert_eq!(drained, vec![1, 2], "arena-slot order");
        assert!(table.is_empty());
        // Index is cleared too: re-inserting works and old keys miss.
        let (key, _) = key_tuple(1);
        assert!(table.get_mut(rss(1), &key).is_none());
        insert(&mut table, 1, 0);
        assert_eq!(table.len(), 1);
        // So is the wheel: the drained connections' timers are gone, and
        // the one in a reused slot fires once, at its own deadline.
        let mut expired = Vec::new();
        table.advance(10 * SEC, |k, _| expired.push(k));
        assert_eq!(expired, vec![key]);
    }

    #[test]
    fn memory_accounting_grows_and_high_waters() {
        let mut table: ConnTable<u32> = ConnTable::new(TimeoutConfig::retina_default());
        let empty = table.allocated_bytes();
        for n in 0..1000u16 {
            insert(&mut table, n, 0);
        }
        let full = table.allocated_bytes();
        assert!(full > empty, "1000 conns must show up in the footprint");
        let mut expired = 0;
        table.advance(10 * SEC, |_, _| expired += 1);
        assert_eq!(expired, 1000);
        assert!(
            table.allocated_bytes() >= full,
            "capacity (the high-water mark) survives mass expiry"
        );
    }

    #[test]
    fn timer_state_is_the_sentinels_and_the_slots_link_words() {
        // Every byte the table holds is the arena's, the index's or one of
        // the wheel's sentinels: scheduling a connection costs no byte
        // beside its slot, so a table whose connections are all timed
        // holds exactly what one whose connections are never timed does.
        let mut timed: ConnTable<u32> = ConnTable::new(TimeoutConfig::retina_default());
        let mut untimed: ConnTable<u32> = ConnTable::new(TimeoutConfig::none());
        assert_eq!(timed.allocated_bytes(), TimerWheel::BYTES);
        for n in 0..3000u16 {
            insert(&mut timed, n, u64::from(n) * 10_000_000);
            insert(&mut untimed, n, u64::from(n) * 10_000_000);
        }
        let index = timed.shard_capacity.iter().sum::<usize>()
            * (std::mem::size_of::<(u64, ConnHandle)>() + 1);
        assert_eq!(
            timed.allocated_bytes(),
            timed.arena.allocated_bytes() + index + TimerWheel::BYTES
        );
        assert_eq!(timed.allocated_bytes(), untimed.allocated_bytes());
        assert_eq!(TimerWheel::BYTES, 2048);
    }

    /// `n` scan-shaped connections — one source, sequential destinations
    /// and ports — keyed with the hash the NIC model stamps.
    fn scan(n: u32) -> impl Iterator<Item = (u32, ConnKey, FiveTuple)> {
        let rss = retina_nic::rss::RssHasher::symmetric();
        let orig: SocketAddr = "203.0.113.7:54321".parse().unwrap();
        (0..n).map(move |i| {
            #[allow(clippy::cast_possible_truncation)] // ports cycle
            let port = 1 + (i % 60_000) as u16;
            let resp = SocketAddr::new(std::net::Ipv4Addr::from(0x0a00_0000 + i).into(), port);
            let tuple = FiveTuple {
                orig,
                resp,
                proto: 6,
            };
            let hash = rss.hash_tuple(&orig.ip(), &resp.ip(), orig.port(), resp.port());
            (hash, tuple.key(), tuple)
        })
    }

    #[test]
    fn scan_under_the_real_rss_hash_does_not_chain() {
        // Keyed on the RSS hash alone this table had ~51 k buckets and
        // chains up to 9 long: the symmetric key yields 16 bits.
        let mut table: ConnTable<u32> = ConnTable::new(TimeoutConfig::none());
        let mut hashes = std::collections::HashSet::new();
        for (hash, key, tuple) in scan(100_000) {
            hashes.insert(hash);
            table.get_or_insert_with(hash, key, 0, || (tuple, 0));
        }
        assert_eq!(table.len(), 100_000);
        assert!(hashes.len() <= 65_536, "{} RSS hashes", hashes.len());
        assert!(
            table.longest_chain() <= 2,
            "chain {}",
            table.longest_chain()
        );
        assert!(
            table.bucket_count() >= 99_900,
            "{} buckets",
            table.bucket_count()
        );
        for (hash, key, _) in scan(100_000).step_by(997) {
            assert!(table.get_mut(hash, &key).is_some());
        }
    }

    #[test]
    fn hints_are_verified_and_never_trusted() {
        let mut table: ConnTable<u32> = ConnTable::new(TimeoutConfig::retina_default());
        let (key, tuple) = key_tuple(1);
        let ikey = index_key(rss(1), &key);
        // Empty table: nothing to hint at.
        assert_eq!(table.prefetch(ikey), None);
        assert_eq!(table.lookup(ikey, &key, None), None);

        let a = table.insert(ikey, &key, 0, tuple, 1);
        assert_eq!(table.prefetch(ikey), Some(a));
        assert_eq!(table.lookup(ikey, &key, Some(a)), Some(a));

        // The connection closes and another one reuses its slot before
        // the hint is spent: the vacant slot fails verification, and so
        // does the reused slot for a key that never owned it.
        table.remove_handle(a).unwrap();
        assert_eq!(table.prefetch(ikey), None, "unlinked");
        assert_eq!(table.lookup(ikey, &key, Some(a)), None);
        let (key2, tuple2) = key_tuple(2);
        let ikey2 = index_key(rss(2), &key2);
        let b = table.insert(ikey2, &key2, 0, tuple2, 2);
        assert_eq!(b.index(), a.index(), "slot reused");
        assert_eq!(table.lookup(ikey, &key, Some(a)), None);
        assert_eq!(table.lookup(ikey, &key, Some(b)), None);
        assert_eq!(table.lookup(ikey2, &key2, Some(a)), Some(b));
        // A handle pointing nowhere is ignored, not followed.
        let nowhere = ConnHandle(u32::MAX);
        assert_eq!(table.lookup(ikey2, &key2, Some(nowhere)), Some(b));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn forged_index_collision_falls_back_to_the_chain() {
        // Two different keys with the same fingerprint, offered under the
        // same RSS hash: equal index keys. Lookup, insert, remove and
        // expiry must each find the right one by its full key.
        const HASH: u32 = 0x6d5a_6d5a;
        let (key, tuple) = key_tuple(1);
        let twin = key.forged_twin();
        assert_eq!(index_key(HASH, &key), index_key(HASH, &twin));
        let (orig, resp) = twin.endpoints();
        let twin_tuple = FiveTuple {
            orig,
            resp,
            proto: twin.proto(),
        };
        assert_eq!(twin_tuple.key(), twin);

        let mut table: ConnTable<u32> = ConnTable::new(TimeoutConfig::retina_default());
        let ikey = index_key(HASH, &key);
        let lookup = |table: &ConnTable<u32>, key: &ConnKey| table.lookup(ikey, key, None);
        let a = table.insert(ikey, &key, 0, tuple, 1);
        assert!(lookup(&table, &twin).is_none(), "verified, not aliased");
        let b = table.insert(ikey, &twin, 0, twin_tuple, 2);
        assert_eq!(
            (table.len(), table.bucket_count(), table.longest_chain()),
            (2, 1, 2)
        );
        assert_eq!(lookup(&table, &key), Some(a));
        assert_eq!(lookup(&table, &twin), Some(b));
        // The hint is the key's holder — right for one twin, a verified
        // miss (then the chain) for the other.
        assert_eq!(table.prefetch(ikey), Some(a));
        assert_eq!(table.lookup(ikey, &key, Some(a)), Some(a));
        assert_eq!(table.lookup(ikey, &twin, Some(a)), Some(b));
        assert_eq!(table.get_mut(HASH, &twin).unwrap().value, 2);
        assert_eq!(
            table
                .get_or_insert_with(HASH, key, 9, || unreachable!())
                .value,
            1
        );

        // Remove the first; the twin stays reachable and is alone again.
        assert_eq!(table.remove(HASH, &key).unwrap().value, 1);
        assert!(lookup(&table, &key).is_none());
        assert_eq!(lookup(&table, &twin), Some(b));
        assert_eq!(table.longest_chain(), 1);

        // Re-insert, keep the twin alive, and let only the first expire.
        let a = table.insert(ikey, &key, SEC, tuple, 3);
        table.entry_mut(b).unwrap().established = true;
        table.entry_mut(b).unwrap().last_seen_ns = 6 * SEC;
        let mut expired = Vec::new();
        table.advance(7 * SEC, |k, e| expired.push((k, e.value)));
        assert_eq!(expired, vec![(key, 3)]);
        assert!(table.entry_mut(a).is_none());
        assert_eq!(lookup(&table, &twin), Some(b));

        // A rebind-style pass that evicts one chain member keeps the other.
        table.insert(ikey, &key, 8 * SEC, tuple, 4);
        let mut evicted = Vec::new();
        table.retain_mut(|e| e.value != 2, |k, e| evicted.push((k, e.value)));
        assert_eq!(evicted, vec![(ikey, 2)]);
        assert!(lookup(&table, &twin).is_none());
        assert_eq!(table.get_mut(HASH, &key).unwrap().value, 4);
        assert_eq!((table.len(), table.bucket_count()), (1, 1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use retina_support::proptest::prelude::*;
    use std::net::SocketAddr;

    /// The three timeout schemes of Figure 8.
    fn config() -> impl Strategy<Value = TimeoutConfig> {
        prop_oneof![
            Just(TimeoutConfig::retina_default()),
            Just(TimeoutConfig::inactivity_only()),
            Just(TimeoutConfig::none()),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of inserts, touches, removals, time
        /// advances and long jumps, under each timeout scheme, never lose a
        /// connection (expired + resident always equals inserted) and
        /// expire each one neither early nor late: every connection
        /// `advance(now)` hands over has an actual deadline at or before
        /// `now`, and none it leaves behind does. Time moves in whole
        /// 100 ms ticks, the wheel's resolution, and some advances go to
        /// exactly the earliest resident deadline. Jumps of up to 200 s
        /// span several rotations of the wheel; a removal followed by an
        /// insert of another connection reuses the freed slot, whose old
        /// timer must not fire for its new occupant. Hashes are squeezed into 4
        /// bits: constant RSS collisions across the 64 possible conns,
        /// which the fingerprint half of the index key must keep apart.
        #[test]
        fn conservation_and_no_premature_expiry(
            config in config(),
            ops in collection::vec((0u8..7, 0u16..64, 0u64..200), 1..400)
        ) {
            const SEC: u64 = 1_000_000_000;
            let mut table: ConnTable<u8> = ConnTable::new(config);
            let mut now = 0u64;
            let mut inserted = std::collections::HashSet::new();
            let conn = |n: u16| {
                let orig: SocketAddr = format!("10.0.0.1:{}", 1000 + n).parse().unwrap();
                let resp: SocketAddr = "1.1.1.1:443".parse().unwrap();
                let tuple = FiveTuple { orig, resp, proto: 6 };
                (u32::from(n % 16), tuple.key(), tuple) // deliberate collisions
            };
            for (op, n, dt) in ops {
                now += dt * SEC / 10; // advance up to 20s per step
                let (hash, key, tuple) = conn(n);
                match op {
                    0 => {
                        // Insert (or refresh existing).
                        table.get_or_insert_with(hash, key, now, || (tuple, 0));
                        inserted.insert(key);
                    }
                    1 => {
                        // Activity on an established connection.
                        if let Some(e) = table.get_mut(hash, &key) {
                            e.established = true;
                            e.last_seen_ns = now;
                        }
                    }
                    2 | 3 => {
                        if table.remove(hash, &key).is_some() {
                            inserted.remove(&key);
                            if op == 3 {
                                // Another connection takes the freed slot.
                                let (hash, key, tuple) = conn((n + 1) % 64);
                                table.get_or_insert_with(hash, key, now, || (tuple, 0));
                                inserted.insert(key);
                            }
                        }
                    }
                    _ => {
                        if op == 5 {
                            now += dt * SEC; // a jump of up to 200 s
                        } else if op == 6 {
                            // To the next deadline, exactly.
                            let next = table.iter().filter_map(|e| actual_deadline(&config, e)).min();
                            now = now.max(next.unwrap_or(now));
                        }
                        let mut this_round = Vec::new();
                        table.advance(now, |k, e| this_round.push((k, e)));
                        for (k, e) in this_round {
                            prop_assert!(inserted.remove(&k), "expired twice or never inserted");
                            let deadline = actual_deadline(&config, &e);
                            prop_assert!(
                                deadline.is_some_and(|d| d <= now),
                                "premature expiry at {now}: deadline {deadline:?}"
                            );
                        }
                        for e in table.iter() {
                            let deadline = actual_deadline(&config, e);
                            prop_assert!(
                                deadline.is_none_or(|d| d > now),
                                "late expiry at {now}: deadline {deadline:?} still resident"
                            );
                        }
                    }
                }
                prop_assert_eq!(table.len(), inserted.len());
            }
        }
    }
}
