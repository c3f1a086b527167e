//! The RSS redirection table (RETA).
//!
//! The NIC maps `hash % table_size` to an RX queue via this table. Retina
//! uses the table for two things: spreading flows across cores, and the
//! §6.1 ingress-rate control trick — remapping a random subset of entries
//! to a *sink* queue whose packets are dropped. Because the mapping is
//! per-hash-bucket, sampling preserves flow consistency: every packet of a
//! given connection is either fully delivered or fully sunk.

// Narrowing casts in this file are intentional: tick, index, and counter arithmetic narrows to compact fields by design.
#![allow(clippy::cast_possible_truncation)]

/// Queue index reserved for "sink" entries.
///
/// The device treats packets mapped here as intentionally dropped; they are
/// counted separately from loss so zero-loss measurements remain meaningful.
pub const SINK_QUEUE: u16 = u16::MAX;

/// An RSS redirection table.
#[derive(Debug, Clone)]
pub struct RedirectionTable {
    entries: Vec<u16>,
    num_queues: u16,
}

impl RedirectionTable {
    /// Standard RETA size on ConnectX-5-class devices.
    pub const DEFAULT_SIZE: usize = 512;

    /// Builds a table of `size` entries spreading round-robin over
    /// `num_queues` queues.
    ///
    /// # Panics
    /// Panics if `num_queues` is zero or `size` is zero (device
    /// misconfiguration, not a data-dependent condition).
    pub fn new(size: usize, num_queues: u16) -> Self {
        assert!(size > 0 && num_queues > 0, "invalid RETA configuration");
        let entries = (0..size)
            .map(|i| (i % num_queues as usize) as u16)
            .collect();
        RedirectionTable {
            entries,
            num_queues,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if the table has no entries (never after construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of real (non-sink) queues the table spreads over.
    pub fn num_queues(&self) -> u16 {
        self.num_queues
    }

    /// Looks up the queue for an RSS hash.
    pub fn lookup(&self, hash: u32) -> u16 {
        self.entries[hash as usize % self.entries.len()]
    }

    /// Remaps approximately `fraction` of the entries to the sink queue,
    /// choosing entries deterministically by spacing so the sampled set is
    /// stable across calls. `fraction` is clamped to `[0, 1]`.
    ///
    /// This reproduces the paper's method of adjusting the rate of traffic
    /// reaching the processing cores "by modifying the NIC's RSS
    /// redirection table to direct random four-tuples to a separate sink
    /// core" (§6.1).
    pub fn set_sink_fraction(&mut self, fraction: f64) {
        let fraction = fraction.clamp(0.0, 1.0);
        let n = self.entries.len();
        let sink_count = (fraction * n as f64).round() as usize;
        // Reset all entries to the round-robin layout first.
        for (i, e) in self.entries.iter_mut().enumerate() {
            *e = (i % self.num_queues as usize) as u16;
        }
        if sink_count == 0 {
            return;
        }
        // Evenly space sink entries through the table.
        let stride = n as f64 / sink_count as f64;
        for k in 0..sink_count {
            let idx = (k as f64 * stride) as usize % n;
            self.entries[idx] = SINK_QUEUE;
        }
    }

    /// Fraction of entries currently mapped to the sink queue.
    pub fn sink_fraction(&self) -> f64 {
        let sunk = self.entries.iter().filter(|&&q| q == SINK_QUEUE).count();
        sunk as f64 / self.entries.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_spread() {
        let reta = RedirectionTable::new(512, 4);
        let mut counts = [0usize; 4];
        for hash in 0..512u32 {
            counts[reta.lookup(hash) as usize] += 1;
        }
        assert_eq!(counts, [128; 4]);
    }

    #[test]
    fn lookup_wraps_hash() {
        let reta = RedirectionTable::new(8, 2);
        assert_eq!(reta.lookup(0), reta.lookup(8));
        assert_eq!(reta.lookup(3), reta.lookup(11));
    }

    #[test]
    fn sink_fraction_applied() {
        let mut reta = RedirectionTable::new(512, 8);
        reta.set_sink_fraction(0.25);
        let f = reta.sink_fraction();
        assert!((f - 0.25).abs() < 0.01, "got {f}");
    }

    #[test]
    fn sink_fraction_zero_and_one() {
        let mut reta = RedirectionTable::new(128, 2);
        reta.set_sink_fraction(0.0);
        assert_eq!(reta.sink_fraction(), 0.0);
        reta.set_sink_fraction(1.0);
        assert_eq!(reta.sink_fraction(), 1.0);
    }

    #[test]
    fn sink_fraction_resets_previous_layout() {
        let mut reta = RedirectionTable::new(128, 2);
        reta.set_sink_fraction(0.9);
        reta.set_sink_fraction(0.1);
        assert!((reta.sink_fraction() - 0.1).abs() < 0.02);
    }

    #[test]
    fn same_hash_same_queue_consistency() {
        // Flow consistency: the queue for a hash depends only on the table,
        // so every packet of a flow goes to the same place.
        let mut reta = RedirectionTable::new(512, 16);
        reta.set_sink_fraction(0.5);
        let q1 = reta.lookup(0xdeadbeef);
        let q2 = reta.lookup(0xdeadbeef);
        assert_eq!(q1, q2);
    }

    #[test]
    #[should_panic(expected = "invalid RETA")]
    fn zero_queues_panics() {
        let _ = RedirectionTable::new(512, 0);
    }
}
