//! The per-core connection table with timer-wheel expiration.
//!
//! Each worker core owns one `ConnTable`; symmetric RSS guarantees it
//! only ever sees its own connections, so no synchronization is needed.
//! Within a core the table is built for million-flow scan churn:
//!
//! - **One index keyed on 64 bits of `(rss_hash, fingerprint)`.** The
//!   NIC's symmetric Toeplitz hash (`mbuf.rss_hash`) cannot be the key:
//!   the symmetric key is `0x6d5a` repeated, so the "32-bit" hash takes
//!   at most 65,536 values on any traffic (pinned by a test in
//!   `retina_nic::rss`); keyed on it alone, 100,000 live scan connections
//!   sat in 51,154 buckets with chains up to 9 long. The key is
//!   [`ConnKey::fingerprint`] — two multiplies over the canonical
//!   endpoints — with the RSS hash folded into its high half
//!   ([`index_key`]). The index is one power-of-two array of 8-byte
//!   words ([`INDEX_WORD_BYTES`]): `h`, the low half of the key's
//!   splitmix64 mix, and a slot handle. It is probed linearly from
//!   `h & mask`, kept at most half full by doubling, rehashed from the
//!   words alone, and emptied by backward shift, so it has no tombstones.
//! - **Full-key verification.** A word whose `h` matches is verified
//!   against the identity in its arena slot, so connections whose index
//!   keys collide (forgeable, since nothing here is secret; otherwise
//!   ~never) are probe neighbours, never misattributed. At 100,000 live
//!   scan connections under the real hash no index key is held by more
//!   than 2 ([`ConnTable::longest_chain`], gated by `churn_storm`).
//! - **One probe per packet, one fingerprint per packet.**
//!   [`ConnTable::lookup`] resolves a [`ConnHandle`] once; `entry_mut`
//!   and `remove_handle` then address the entry without the index. The
//!   handle verbs (`prefetch`, `lookup`, `insert`) take the [`index_key`]
//!   the caller computed once; the key-based verbs (`get_mut`,
//!   `get_or_insert_with`, `remove`) compute it: those steps in one call.
//! - **A hint verb for bursts.** [`ConnTable::prefetch`] asks the CPU to
//!   fetch the arena slot behind the first word whose `h` matches
//!   ([`retina_support::slab::Slab::prefetch`]), so a burst's slot misses
//!   overlap. It dereferences no slot: by the time the hint is used its
//!   slot may be vacant, reused, or a key twin's, so [`ConnTable::lookup`]
//!   verifies it against the full key of the slot's occupant and probes
//!   the index itself when it fails.
//! - **Arena entry storage.** Entries live in a [`ConnArena`], a slab of
//!   slots addressed by `u32` indices ([`retina_support::slab`]): churn
//!   allocates nothing once it has grown, and its footprint is the memory
//!   high-water mark the telemetry gauge reports.
//! - **A timer wheel linked through the slots.** Expiration follows
//!   §5.2's two timeouts: a short *establishment* timeout expires
//!   unanswered SYNs quickly (65% of connections!), and a longer
//!   *inactivity* timeout reclaims established-but-idle connections
//!   ([`crate::timerwheel`]: 256 buckets of 100 ms linked through two
//!   words in each slot). Per-packet work is one `last_seen` stamp, and
//!   mass scan expiry drains whole buckets; Figure 8 reproduces the
//!   memory effect of these choices.

use retina_support::hash::splitmix64;

use crate::arena::{ConnArena, ConnHandle};
use crate::timerwheel::TimerWheel;
use crate::tuple::{ConnKey, FiveTuple};

pub use crate::arena::ConnEntry;

/// Bytes one index word costs: its `h` and its slot handle.
pub const INDEX_WORD_BYTES: usize = std::mem::size_of::<Word>();

/// An index word: `h` of the index key the connection holds, and its
/// slot. An empty word's slot is `EMPTY`, which no slot index reaches.
#[derive(Debug, Clone, Copy)]
struct Word {
    h: u32,
    slot: u32,
}

const EMPTY: u32 = u32::MAX;
const VACANT: Word = Word { h: 0, slot: EMPTY };

/// The open-addressed index (see the module docs).
#[derive(Debug, Default)]
struct Index {
    /// A power of two of words, at most half of them occupied, or none.
    words: Vec<Word>,
}

/// The `h` an index key's word carries: the low half of its mix.
#[allow(clippy::cast_possible_truncation)]
fn h_of(ikey: u64) -> u32 {
    splitmix64(ikey) as u32
}

impl Index {
    /// The first handle, probing from `ikey`'s home, whose word's `h`
    /// matches and which `accept` takes.
    #[inline]
    fn find(&self, ikey: u64, mut accept: impl FnMut(ConnHandle) -> bool) -> Option<ConnHandle> {
        let mask = self.words.len().checked_sub(1)?;
        let h = h_of(ikey);
        let mut at = h as usize & mask;
        while self.words[at].slot != EMPTY {
            let word = self.words[at];
            if word.h == h && accept(ConnHandle(word.slot)) {
                return Some(ConnHandle(word.slot));
            }
            at = (at + 1) & mask;
        }
        None
    }

    /// Indexes `handle` under `ikey`, doubling first if it would make
    /// more than half of the words occupied (`live` with it).
    fn insert(&mut self, ikey: u64, handle: ConnHandle, live: usize) {
        if 2 * live > self.words.len() {
            let capacity = (2 * self.words.len()).max(16);
            let old = std::mem::replace(&mut self.words, vec![VACANT; capacity]);
            for word in old.into_iter().filter(|w| w.slot != EMPTY) {
                self.place(word.h, word.slot);
            }
        }
        self.place(h_of(ikey), handle.0);
    }

    /// Puts `(h, slot)` in the first empty word from `h`'s home.
    fn place(&mut self, h: u32, slot: u32) {
        let mask = self.words.len() - 1;
        let mut at = h as usize & mask;
        while self.words[at].slot != EMPTY {
            at = (at + 1) & mask;
        }
        self.words[at] = Word { h, slot };
    }

    /// Empties the word `handle` holds under `ikey`, shifting back each
    /// later word of its cluster that may sit nearer its home.
    fn remove(&mut self, ikey: u64, handle: ConnHandle) {
        let mask = self.words.len() - 1;
        let mut hole = h_of(ikey) as usize & mask;
        while self.words[hole].slot != handle.0 {
            hole = (hole + 1) & mask;
        }
        let mut at = (hole + 1) & mask;
        while self.words[at].slot != EMPTY {
            // Its home is at or before the hole when it probed at least
            // as far as the hole lies behind it.
            let word = self.words[at];
            if at.wrapping_sub(word.h as usize) & mask >= at.wrapping_sub(hole) & mask {
                self.words[hole] = word;
                hole = at;
            }
            at = (at + 1) & mask;
        }
        self.words[hole].slot = EMPTY;
    }
}

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

/// Per-core connection table: one open-addressed index over an entry
/// arena, with timer-wheel expiration.
#[derive(Debug)]
pub struct ConnTable<V> {
    index: Index,
    arena: ConnArena<V>,
    config: TimeoutConfig,
}

/// The index key of a connection: its fingerprint, with the RSS
/// hash folded into the high half. The one place a packet's
/// [`ConnKey::fingerprint`] is computed: the handle verbs of
/// [`ConnTable`] take the result.
#[inline]
#[must_use]
pub fn index_key(hash: u32, key: &ConnKey) -> u64 {
    key.fingerprint() ^ (u64::from(hash) << 32)
}

impl<V> ConnTable<V> {
    /// Creates a table with the given timeout configuration. It
    /// allocates nothing until its first insert.
    pub fn new(config: TimeoutConfig) -> Self {
        ConnTable {
            index: Index::default(),
            arena: ConnArena::new(),
            config,
        }
    }

    /// Number of tracked connections.
    pub fn len(&self) -> usize {
        self.arena.slab.len()
    }

    /// Returns true when no connections are tracked.
    pub fn is_empty(&self) -> bool {
        self.arena.slab.is_empty()
    }

    /// The active timeout configuration.
    pub fn config(&self) -> TimeoutConfig {
        self.config
    }

    /// Peak number of simultaneously-tracked connections.
    pub fn live_high_water(&self) -> usize {
        self.arena.slab.slots()
    }

    /// Bytes held by the arena, the index's words and the wheel's
    /// sentinels — all of the timer state but the link words in the
    /// slots. Capacity never shrinks — removal and
    /// [`ConnTable::drain_all`] keep it — so this is also the memory
    /// high-water mark.
    pub fn allocated_bytes(&self) -> usize {
        let index = self.index.words.capacity() * INDEX_WORD_BYTES;
        self.arena.slab.allocated_bytes() + index + TimerWheel::BYTES
    }

    /// The most connections sharing one index key: each verifies a full
    /// key on the way to the others. It is 1 or, rarely, 2 at any size
    /// when callers pass the NIC's hash and real keys. Off the hot path:
    /// read from the index keys the slots keep.
    pub fn longest_chain(&self) -> usize {
        let mut keys: Vec<u64> = self.arena.index_keys().collect();
        keys.sort_unstable();
        keys.chunk_by(u64::eq).map(<[u64]>::len).max().unwrap_or(0)
    }

    /// Whether `handle`'s slot holds the connection `key` names.
    #[inline]
    fn holds(&self, handle: ConnHandle, key: &ConnKey) -> bool {
        self.arena
            .get(handle)
            .is_some_and(|entry| key.is_key_of(&entry.tuple))
    }

    /// The hint verb (see the module docs): asks the CPU to fetch the slot
    /// behind the first word whose `h` matches `ikey`'s, unverified, and
    /// returns its handle for [`ConnTable::lookup`] to verify later.
    /// Dereferences no slot.
    #[inline]
    pub fn prefetch(&self, ikey: u64) -> Option<ConnHandle> {
        let first = self.index.find(ikey, |_| true)?;
        self.arena.slab.prefetch(first.0);
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
        self.index.find(ikey, |h| self.holds(h, key))
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
        self.index.insert(ikey, handle, self.arena.slab.len());
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
        self.index.remove(ikey, handle);
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
                    // `pop_due` took it out of its bucket: free it at once.
                    let (ikey, entry) = self.arena.vacate(handle.0);
                    self.index.remove(ikey, handle);
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
        let index = &mut self.index;
        self.arena.retain_mut(f, |handle, ikey, entry| {
            index.remove(ikey, handle);
            on_remove(ikey, entry);
        });
    }

    /// Drains every tracked connection (used at shutdown to flush
    /// partial sessions) into `on_drain`, in deterministic arena-slot
    /// order and in place: nothing is copied out first.
    pub fn drain_all(&mut self, on_drain: impl FnMut(ConnEntry<V>)) {
        self.index.words.fill(VACANT);
        self.arena.drain(on_drain);
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

    impl<V> ConnTable<V> {
        /// Number of distinct index keys in use (== [`ConnTable::len`]
        /// when no two connections share one).
        fn bucket_count(&self) -> usize {
            let mut keys: Vec<u64> = self.arena.index_keys().collect();
            keys.sort_unstable();
            keys.dedup();
            keys.len()
        }
    }

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
        // Unstamped mbufs leave rss_hash == 0: the fingerprint alone
        // keys the index, still one key per connection.
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
        let index = timed.index.words.capacity() * INDEX_WORD_BYTES;
        assert_eq!(
            timed.allocated_bytes(),
            timed.arena.slab.allocated_bytes() + index + TimerWheel::BYTES
        );
        assert_eq!(timed.allocated_bytes(), untimed.allocated_bytes());
        assert_eq!(TimerWheel::BYTES, 2048);
        assert_eq!(INDEX_WORD_BYTES, 8);
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
        // same RSS hash: equal index keys, so one chain of two probe
        // neighbours. Lookup, insert, remove and expiry must each find the
        // right one by its full key.
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
        // The hint is the first word of the key — right for one twin, a
        // verified miss (then the rest of the chain) for the other.
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

        // Remove the first; the twin shifts back, stays reachable and is
        // alone again.
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

    /// Connections the property draws from: 64 of one source, each
    /// followed by its forged twin (an equal index key under the same RSS
    /// hash).
    const CONNS: u16 = 128;

    /// The [`CONNS`] connections with their RSS hashes. Plain, the hashes
    /// are squeezed into 4 bits: constant RSS collisions, which the
    /// fingerprint half of the index key must keep apart. `squeezed`, each
    /// hash is the first whose index key's `h` has bits 2–7 set, so in a
    /// table of up to 256 words every home is one of the last four words
    /// and every probe cluster wraps past the end.
    fn conns(squeezed: bool) -> Vec<(u32, ConnKey, FiveTuple)> {
        let resp: SocketAddr = "1.1.1.1:443".parse().unwrap();
        (0..CONNS / 2)
            .flat_map(|n| {
                let orig: SocketAddr = format!("10.0.0.1:{}", 1000 + n).parse().unwrap();
                let tuple = FiveTuple {
                    orig,
                    resp,
                    proto: 6,
                };
                let key = tuple.key();
                let twin = key.forged_twin();
                let (orig, resp) = twin.endpoints();
                let twin_tuple = FiveTuple {
                    orig,
                    resp,
                    proto: twin.proto(),
                };
                let hash = if squeezed {
                    (0..)
                        .find(|&hash| h_of(index_key(hash, &key)) & 0xfc == 0xfc)
                        .unwrap()
                } else {
                    u32::from(n % 16) // deliberate collisions
                };
                [(hash, key, tuple), (hash, twin, twin_tuple)]
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of inserts, bursts of inserts, touches,
        /// removals, time advances and long jumps, under each timeout
        /// scheme, never lose a connection (expired + resident always
        /// equals inserted) and expire each one neither early nor late:
        /// every connection `advance(now)` hands over has an actual
        /// deadline at or before `now`, and none it leaves behind does.
        /// Time moves in whole 100 ms ticks, the wheel's resolution, and
        /// some advances go to exactly the earliest resident deadline.
        /// Jumps of up to 200 s span several rotations of the wheel; a
        /// removal followed by an insert of another connection reuses the
        /// freed slot, whose old timer must not fire for its new occupant.
        ///
        /// The index is held to the same model: after every operation each
        /// live connection — forged twins included — resolves to the
        /// handle it was inserted under, and every other one misses. The
        /// bursts take the index through several doublings (16 → 256
        /// words), and in `squeezed` mode every probe cluster wraps past the
        /// end of the words ([`conns`]).
        #[test]
        fn conservation_and_no_premature_expiry(
            config in config(),
            squeezed in any::<bool>(),
            ops in collection::vec((0u8..8, 0..CONNS, 0u64..200), 1..400)
        ) {
            const SEC: u64 = 1_000_000_000;
            let conns = conns(squeezed);
            let mut table: ConnTable<u8> = ConnTable::new(config);
            let mut now = 0u64;
            let mut live = std::collections::HashMap::new();
            let insert = |table: &mut ConnTable<u8>, n: u16, now: u64| {
                let (hash, key, tuple) = conns[usize::from(n % CONNS)];
                table.get_or_insert_with(hash, key, now, || (tuple, 0));
                let handle = table.lookup(index_key(hash, &key), &key, None);
                (key, handle.expect("inserted"))
            };
            for (op, n, dt) in ops {
                now += dt * SEC / 10; // advance up to 20s per step
                let (hash, key, _) = conns[usize::from(n)];
                match op {
                    0 | 7 => {
                        // Insert (or refresh existing); 7 inserts a burst.
                        let burst = if op == 7 { 32 } else { 1 };
                        for m in n..n + burst {
                            let (key, handle) = insert(&mut table, m, now);
                            prop_assert_eq!(*live.entry(key).or_insert(handle), handle);
                        }
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
                            live.remove(&key);
                            if op == 3 {
                                // Another connection takes the freed slot.
                                let (key, handle) = insert(&mut table, n + 1, now);
                                prop_assert_eq!(*live.entry(key).or_insert(handle), handle);
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
                            prop_assert!(live.remove(&k).is_some(), "expired twice or never inserted");
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
                prop_assert_eq!(table.len(), live.len());
                for (hash, key, _) in &conns {
                    let found = table.lookup(index_key(*hash, key), key, None);
                    prop_assert_eq!(found, live.get(key).copied(), "{:?}", key);
                }
            }
        }
    }
}
