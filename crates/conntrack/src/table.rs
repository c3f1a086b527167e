//! The per-core connection table with timer-wheel expiration.
//!
//! Each worker core owns one `ConnTable`; symmetric RSS guarantees it
//! only ever sees its own connections, so no synchronization is needed.
//! Within a core the table is built for million-flow scan churn:
//!
//! - **RSS-hash keyed, sharded index.** Lookups key on the 32-bit
//!   symmetric Toeplitz hash the NIC already computed (`mbuf.rss_hash`)
//!   instead of re-hashing the 5-tuple with SipHash. The index is split
//!   into [`SHARDS`] sub-maps selected by a mix of the hash, bounding
//!   the size of any single rehash pause as the table grows to millions
//!   of entries. Map hashing uses the seeded in-tree
//!   [`retina_support::hash::FlowHasher`] — deterministic layout,
//!   one multiply-mix per probe.
//! - **Collision chains with full-key verification.** The symmetric RSS
//!   key trades entropy for symmetry, so distinct connections sharing a
//!   32-bit hash are expected at scale. A bucket is one arena handle or
//!   a small chain of them; every hit verifies the full [`ConnKey`]
//!   against the arena slot, so collisions (including `rss_hash == 0`
//!   from unstamped mbufs) degrade to a short scan, never to
//!   misattribution.
//! - **Arena entry storage.** Entries live in a dense, slot-reusing
//!   [`ConnArena`] addressed by compact generation-checked `u32`
//!   handles; steady-state churn allocates nothing and the arena
//!   footprint is the memory high-water mark the telemetry gauge
//!   reports.
//! - **Hierarchical timer wheel.** Expiration follows §5.2's two-level
//!   scheme: a short *establishment* timeout expires unanswered SYNs
//!   quickly (65% of connections!), and a longer *inactivity* timeout
//!   reclaims established-but-idle connections. Mass scan expiry drains
//!   whole wheel buckets; per-packet work is one `last_seen` stamp.
//!   Figure 8 reproduces the memory effect of these choices.

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

/// One index bucket: connections sharing a 32-bit RSS hash. The
/// overwhelmingly common case is a single handle; chains stay inline
/// until a collision actually occurs.
#[derive(Debug)]
enum Bucket {
    One(ConnHandle),
    Many(Vec<ConnHandle>),
}

/// Per-core connection table: sharded RSS-hash index over an entry
/// arena, with lazy hierarchical-timer-wheel expiration.
#[derive(Debug)]
pub struct ConnTable<V> {
    /// `shards[i]` maps rss_hash → bucket for hashes mixing to `i`.
    shards: Vec<HashMap<u32, Bucket, FlowHashState>>,
    arena: ConnArena<V>,
    wheel: TimerWheel,
    config: TimeoutConfig,
    scratch: Vec<(u64, u64)>,
    bytes_high_water: usize,
}

/// The shard an RSS hash lives in. Mixed through splitmix64 first: the
/// symmetric Toeplitz output is structured, so raw high or low bits
/// would skew the shards.
#[inline]
#[allow(clippy::cast_possible_truncation)] // only the low log2(SHARDS) bits survive the mask
fn shard_of(hash: u32) -> usize {
    (splitmix64(u64::from(hash)) as usize) & (SHARDS - 1)
}

impl<V> ConnTable<V> {
    /// Creates a table with the given timeout configuration.
    ///
    /// The wheel tick is 100 ms with 256 slots per level — the base
    /// level alone spans 25.6 s, so the default 5 s establish timeout
    /// (the scan-churn fast path) schedules and fires without ever
    /// cascading; the 5-minute inactivity timeout parks one level up.
    pub fn new(config: TimeoutConfig) -> Self {
        ConnTable {
            shards: (0..SHARDS)
                .map(|i| HashMap::with_hasher(FlowHashState::with_seed(splitmix64(i as u64))))
                .collect(),
            arena: ConnArena::new(),
            wheel: TimerWheel::new(100_000_000, 256),
            config,
            scratch: Vec::new(),
            bytes_high_water: 0,
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

    /// Bytes held by the arena and the shard indexes (approximate for
    /// the hash maps: capacity × entry footprint). Capacity never
    /// shrinks, so this tracks the memory high-water mark.
    pub fn allocated_bytes(&self) -> usize {
        let bucket_footprint = std::mem::size_of::<(u32, Bucket)>() + 1;
        let index: usize = self
            .shards
            .iter()
            .map(|s| s.capacity() * bucket_footprint)
            .sum();
        self.arena.allocated_bytes() + index
    }

    /// High-water mark of [`ConnTable::allocated_bytes`], sampled on
    /// insertion (the only operation that grows storage).
    pub fn bytes_high_water(&self) -> usize {
        self.bytes_high_water
    }

    /// Length of the longest index bucket: connections sharing one RSS
    /// hash are found by a linear scan, so this is the table's worst-case
    /// probe length. It stays in single digits when callers pass the
    /// NIC's hash; one long chain means they pass a constant.
    pub fn longest_chain(&self) -> usize {
        self.shards
            .iter()
            .flat_map(HashMap::values)
            .map(|bucket| match bucket {
                Bucket::One(_) => 1,
                Bucket::Many(chain) => chain.len(),
            })
            .max()
            .unwrap_or(0)
    }

    /// Finds the handle for `key` under `hash`, verifying the full key
    /// against the arena (RSS collisions are expected; see module docs).
    fn find(&self, hash: u32, key: &ConnKey) -> Option<ConnHandle> {
        match self.shards[shard_of(hash)].get(&hash)? {
            Bucket::One(h) => (self.arena.key(*h) == Some(key)).then_some(*h),
            Bucket::Many(chain) => chain
                .iter()
                .copied()
                .find(|h| self.arena.key(*h) == Some(key)),
        }
    }

    /// Links `handle` into the index under `hash`.
    fn link(&mut self, hash: u32, handle: ConnHandle) {
        match self.shards[shard_of(hash)].entry(hash) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Bucket::One(handle));
            }
            std::collections::hash_map::Entry::Occupied(mut o) => match o.get_mut() {
                Bucket::One(first) => {
                    let chain = vec![*first, handle];
                    *o.get_mut() = Bucket::Many(chain);
                }
                Bucket::Many(chain) => chain.push(handle),
            },
        }
    }

    /// Unlinks `handle` from the index under `hash`.
    fn unlink(&mut self, hash: u32, handle: ConnHandle) {
        let shard = &mut self.shards[shard_of(hash)];
        let std::collections::hash_map::Entry::Occupied(mut o) = shard.entry(hash) else {
            debug_assert!(false, "unlink of unindexed hash");
            return;
        };
        match o.get_mut() {
            Bucket::One(h) => {
                debug_assert_eq!(*h, handle, "unlink of foreign handle");
                o.remove();
            }
            Bucket::Many(chain) => {
                chain.retain(|h| *h != handle);
                if let [only] = chain.as_slice() {
                    *o.get_mut() = Bucket::One(*only);
                }
            }
        }
    }

    /// Looks up a connection by RSS hash + canonical key.
    pub fn get_mut(&mut self, hash: u32, key: &ConnKey) -> Option<&mut ConnEntry<V>> {
        let handle = self.find(hash, key)?;
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
        if let Some(handle) = self.find(hash, &key) {
            return self.arena.get_mut(handle).expect("indexed handle is live");
        }
        let (tuple, value) = init();
        let handle = self.arena.insert(
            key,
            hash,
            ConnEntry {
                tuple,
                created_ns: now_ns,
                last_seen_ns: now_ns,
                established: false,
                value,
            },
        );
        self.link(hash, handle);
        if let Some(deadline) = initial_deadline(&self.config, now_ns) {
            self.wheel.schedule(handle.to_token(), deadline);
        }
        self.bytes_high_water = self.bytes_high_water.max(self.allocated_bytes());
        self.arena.get_mut(handle).expect("just inserted")
    }

    /// Removes a connection (e.g. on natural termination or an early
    /// filter discard). Any wheel entry becomes a harmless tombstone:
    /// the arena generation bump makes the token stale.
    pub fn remove(&mut self, hash: u32, key: &ConnKey) -> Option<ConnEntry<V>> {
        let handle = self.find(hash, key)?;
        let (_, stored_hash, entry) = self.arena.remove(handle).expect("indexed handle is live");
        debug_assert_eq!(stored_hash, hash, "index/arena hash mismatch");
        self.unlink(hash, handle);
        Some(entry)
    }

    /// Advances time, expiring connections whose applicable timeout has
    /// elapsed. `on_expire` receives each expired entry.
    ///
    /// Fired wheel tokens are *candidates*: stale generations (removed
    /// connections) are skipped, and entries whose actual deadline
    /// moved later — activity re-arms by stamping `last_seen`, never by
    /// touching the wheel — are rescheduled.
    pub fn advance(&mut self, now_ns: u64, mut on_expire: impl FnMut(ConnKey, ConnEntry<V>)) {
        let mut candidates = std::mem::take(&mut self.scratch);
        candidates.clear();
        self.wheel.advance(now_ns, &mut candidates);
        for (token, _) in candidates.drain(..) {
            let handle = ConnHandle::from_token(token);
            let Some(entry) = self.arena.get(handle) else {
                continue; // generation mismatch: tombstone
            };
            match actual_deadline(&self.config, entry, now_ns) {
                Some(deadline) if deadline <= now_ns => {
                    let (key, hash, entry) = self.arena.remove(handle).expect("checked above");
                    self.unlink(hash, handle);
                    on_expire(key, entry);
                }
                Some(deadline) => self.wheel.schedule(token, deadline),
                None => {
                    // No applicable timeout (config disables it): do not
                    // reschedule; the connection lives until termination.
                }
            }
        }
        self.scratch = candidates;
    }

    /// Iterates over all tracked entries (diagnostics / drain at exit)
    /// in deterministic arena-slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&ConnKey, &ConnEntry<V>)> {
        self.arena.iter()
    }

    /// Mutably visits every tracked connection in deterministic
    /// arena-slot order; entries for which `f` returns `false` are
    /// removed from the table (index unlinked, wheel token tombstoned
    /// via the generation bump) and handed to `on_remove`. This is the
    /// swap-time rebind primitive: one pass rewrites surviving
    /// connections in place and evicts the ones the new configuration
    /// no longer watches.
    pub fn retain_mut(
        &mut self,
        f: impl FnMut(&ConnKey, &mut ConnEntry<V>) -> bool,
        mut on_remove: impl FnMut(ConnKey, ConnEntry<V>),
    ) {
        let mut unlinks: Vec<u32> = Vec::new();
        self.arena.retain_mut(f, |key, hash, entry| {
            unlinks.push(hash);
            on_remove(key, entry);
        });
        // Unlink after the arena pass: the shard maps need `&mut self`
        // while the arena borrow is held above. Liveness (not handle
        // identity) decides what stays, so only the hash is needed.
        for hash in unlinks {
            let shard = &mut self.shards[shard_of(hash)];
            if let std::collections::hash_map::Entry::Occupied(mut o) = shard.entry(hash) {
                // The removed handles' generations are gone; drop every
                // bucket member whose arena slot no longer resolves to a
                // live key. (Checking liveness — rather than removing
                // blindly — keeps colliding same-hash survivors linked.)
                match o.get_mut() {
                    Bucket::One(h) => {
                        if self.arena.key(*h).is_none() {
                            o.remove();
                        }
                    }
                    Bucket::Many(chain) => {
                        chain.retain(|h| self.arena.key(*h).is_some());
                        if let [only] = chain.as_slice() {
                            *o.get_mut() = Bucket::One(*only);
                        } else if chain.is_empty() {
                            o.remove();
                        }
                    }
                }
            }
        }
    }

    /// Drains every tracked connection (used at shutdown to flush
    /// partial sessions) in deterministic arena-slot order.
    pub fn drain_all(&mut self) -> Vec<(ConnKey, ConnEntry<V>)> {
        for shard in &mut self.shards {
            shard.clear();
        }
        // Wheel tokens all go stale via the arena generation bump; they
        // drain as tombstones on later advances.
        self.arena.drain_all()
    }
}

fn initial_deadline(config: &TimeoutConfig, now_ns: u64) -> Option<u64> {
    match (config.establish_ns, config.inactivity_ns) {
        (Some(e), _) => Some(now_ns + e),
        (None, Some(i)) => Some(now_ns + i),
        (None, None) => None,
    }
}

fn actual_deadline<V>(config: &TimeoutConfig, entry: &ConnEntry<V>, _now: u64) -> Option<u64> {
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

    /// Stand-in for the NIC's symmetric RSS hash in tests: any
    /// deterministic function of the connection works.
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
        // arena slot. The stale wheel token must not expire the new
        // occupant early (generation check).
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
        // The stale token for key1 fires around 5s and must be skipped.
        table.advance(6 * SEC, |k, _| expired.push(k));
        assert!(expired.is_empty(), "stale token expired new conn");
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
        // The symmetric Toeplitz key has limited entropy: distinct
        // connections sharing a 32-bit hash are a fact of life at
        // million-flow scale. They must chain, resolve by full key, and
        // remove independently.
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
        // Unstamped mbufs leave rss_hash == 0: everything chains into
        // one bucket but stays correct.
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
        let drained = table.drain_all();
        assert_eq!(drained.len(), 2);
        assert!(table.is_empty());
        // Index is cleared too: re-inserting works and old keys miss.
        let (key, _) = key_tuple(1);
        assert!(table.get_mut(rss(1), &key).is_none());
        insert(&mut table, 1, 0);
        assert_eq!(table.len(), 1);
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
        assert_eq!(table.bytes_high_water(), full);
        let mut expired = 0;
        table.advance(10 * SEC, |_, _| expired += 1);
        assert_eq!(expired, 1000);
        assert_eq!(
            table.bytes_high_water(),
            full,
            "high water survives mass expiry"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use retina_support::proptest::prelude::*;
    use std::net::SocketAddr;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random interleavings of inserts, touches, removals, and time
        /// advances never lose a connection (expired + removed + resident
        /// always equals inserted) and never expire a recently-active
        /// established connection. Hashes are squeezed into 4 bits to
        /// force constant RSS collisions across the 64 possible conns.
        #[test]
        fn conservation_and_no_premature_expiry(
            ops in collection::vec((0u8..4, 0u16..64, 0u64..200), 1..400)
        ) {
            const SEC: u64 = 1_000_000_000;
            let mut table: ConnTable<u8> = ConnTable::new(TimeoutConfig::retina_default());
            let mut now = 0u64;
            let mut inserted = std::collections::HashSet::new();
            let mut removed = 0usize;
            let mut expired = 0usize;
            for (op, conn, dt) in ops {
                now += dt * SEC / 10; // advance up to 20s per step
                let orig: SocketAddr = format!("10.0.0.1:{}", 1000 + conn).parse().unwrap();
                let resp: SocketAddr = "1.1.1.1:443".parse().unwrap();
                let tuple = FiveTuple { orig, resp, proto: 6 };
                let key = tuple.key();
                let hash = u32::from(conn % 16); // deliberate collisions
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
                    2 => {
                        if table.remove(hash, &key).is_some() {
                            removed += 1;
                            inserted.remove(&key);
                        }
                    }
                    _ => {
                        let mut this_round = Vec::new();
                        table.advance(now, |k, e| this_round.push((k, e)));
                        for (k, e) in this_round {
                            expired += 1;
                            inserted.remove(&k);
                            // No premature expiry: established conns must
                            // have been idle past the inactivity timeout.
                            if e.established {
                                prop_assert!(
                                    now >= e.last_seen_ns + 300 * SEC,
                                    "premature expiry at {now}: last_seen {}",
                                    e.last_seen_ns
                                );
                            } else {
                                prop_assert!(now >= e.created_ns + 5 * SEC);
                            }
                        }
                    }
                }
            }
            prop_assert_eq!(table.len(), inserted.len());
            let _ = (removed, expired);
        }
    }
}
