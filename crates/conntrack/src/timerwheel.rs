//! Hierarchical timer wheel for connection expiration (Varghese &
//! Lauck scheme 6, §5.2).
//!
//! Design goals, following the paper and Girondi et al.: per-packet
//! work stays O(1) — activity updates only touch the connection's
//! `last_seen` stamp, never the wheel — and mass expiry is amortized
//! bucket drains. The scan-heavy campus mix makes the second property
//! load-bearing: millions of unanswered SYNs share the 5 s establish
//! timeout, so they cluster into a handful of adjacent level-0 slots
//! and drain as whole-bucket appends, never per-entry walks.
//!
//! The wheel has [`LEVELS`] levels of `slots_per_level` slots each;
//! level *k* slots span `slots_per_level^k` base ticks. Far deadlines
//! park in coarse upper levels and *cascade* down as their window
//! approaches — the cascade for level *k* runs only once every
//! `slots_per_level^k` ticks, so total re-placement work per entry is
//! bounded by the number of levels, not by time span. Deadlines beyond
//! even the top level's horizon are clamped to the furthest slot and
//! re-placed on cascade, giving unbounded range.
//!
//! Entries are opaque `u64` tokens — the conn table packs
//! generation-checked arena handles
//! ([`crate::arena::ConnHandle::to_token`]) so a fired token for a
//! removed connection is detected as stale instead of aliasing the
//! slot's next occupant. The wheel itself never dedups or cancels:
//! removal is the owner's tombstone check, and re-arming is the
//! owner's revalidate-and-reschedule on fire (lazy revalidation).
//!
//! Firing is *exact*: `advance` only yields entries whose scheduled
//! deadline tick has been reached, never early — a drained entry whose
//! deadline is still in the future is re-placed instead of fired. The
//! owner may still see entries whose *actual* deadline moved later
//! (activity re-arms by stamping `last_seen`, not by touching the
//! wheel); those it reschedules.

// Narrowing casts in this file are intentional: tick, index, and counter arithmetic narrows to compact fields by design.
#![allow(clippy::cast_possible_truncation)]

/// Number of wheel levels. Four levels of 256 slots at a 100 ms base
/// tick give an exact horizon of 25.6 s, 1.8 h, 19 d, 13 y per level.
pub const LEVELS: usize = 4;

/// A hierarchical timer wheel keyed by opaque `u64` tokens.
#[derive(Debug)]
pub struct TimerWheel {
    tick_ns: u64,
    /// Slots per level; a power of two so slot math is mask/shift.
    slots_per_level: u64,
    /// `log2(slots_per_level)`.
    shift: u32,
    /// `levels[k][slot]` holds `(token, deadline_ns)` pairs.
    levels: Vec<Vec<Vec<(u64, u64)>>>,
    /// The tick index up to which the wheel has been advanced.
    current_tick: u64,
    len: usize,
    /// The slot being drained by [`TimerWheel::advance`]; kept between
    /// calls so advancing allocates nothing.
    scratch: Vec<(u64, u64)>,
}

impl TimerWheel {
    /// Creates a wheel of [`LEVELS`] levels with `slots_per_level`
    /// slots of `tick_ns` nanoseconds at the base level.
    ///
    /// # Panics
    /// Panics on a zero tick, a slot count that is not a power of two
    /// greater than 1, or a geometry whose total tick span overflows
    /// `u64` (configuration error).
    pub fn new(tick_ns: u64, slots_per_level: usize) -> Self {
        assert!(
            tick_ns > 0 && slots_per_level > 1 && slots_per_level.is_power_of_two(),
            "invalid timer wheel config"
        );
        let shift = slots_per_level.trailing_zeros();
        assert!(
            shift as usize * LEVELS < 64,
            "invalid timer wheel config: span overflows"
        );
        TimerWheel {
            tick_ns,
            slots_per_level: slots_per_level as u64,
            shift,
            levels: (0..LEVELS)
                .map(|_| (0..slots_per_level).map(|_| Vec::new()).collect())
                .collect(),
            current_tick: 0,
            len: 0,
            scratch: Vec::new(),
        }
    }

    /// Number of scheduled (possibly stale) entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true when no entries are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ticks covered by levels `0..level`.
    fn span_ticks(&self, level: usize) -> u64 {
        1 << (self.shift as usize * level)
    }

    /// Schedules `token` to fire at `deadline_ns`. Deadlines in the
    /// past fire on the next [`TimerWheel::advance`].
    pub fn schedule(&mut self, token: u64, deadline_ns: u64) {
        // Never place into the current tick's level-0 slot from outside
        // `advance`: it has already been drained, so the entry would
        // only fire after a full level-0 rotation.
        self.place(token, deadline_ns, self.current_tick + 1);
        self.len += 1;
    }

    /// Places `token` so it fires at `deadline_ns`, clamping the target
    /// tick to at least `floor_tick` and at most the wheel horizon.
    /// Does not touch `len` (cascade re-places without re-counting).
    fn place(&mut self, token: u64, deadline_ns: u64, floor_tick: u64) {
        let mask = self.slots_per_level - 1;
        let tick = (deadline_ns / self.tick_ns)
            .max(floor_tick)
            .min(self.current_tick + self.span_ticks(LEVELS) - 1);
        let delta = tick - self.current_tick;
        let mut level = 0;
        while level + 1 < LEVELS && delta >= self.span_ticks(level + 1) {
            level += 1;
        }
        let slot = ((tick >> (self.shift as usize * level)) & mask) as usize;
        self.levels[level][slot].push((token, deadline_ns));
    }

    /// Advances the wheel to `now_ns`, collecting every entry whose
    /// deadline tick has been reached into `expired` as
    /// `(token, deadline_ns)`. Entries never fire early; they are
    /// candidates the owner must revalidate against the connection's
    /// *actual* deadline (which activity may have moved later).
    pub fn advance(&mut self, now_ns: u64, expired: &mut Vec<(u64, u64)>) {
        let target_tick = now_ns / self.tick_ns;
        let mask = self.slots_per_level - 1;
        let mut scratch = std::mem::take(&mut self.scratch);
        while self.current_tick < target_tick {
            if self.len == 0 {
                // Nothing scheduled anywhere: fast-forward. Bounds the
                // walk over giant idle jumps in virtual time.
                self.current_tick = target_tick;
                break;
            }
            self.current_tick += 1;
            // When level k-1 wraps, cascade the level-k slot whose
            // window just opened down into finer levels.
            for level in 1..LEVELS {
                let span = self.span_ticks(level);
                if !self.current_tick.is_multiple_of(span) {
                    break;
                }
                let slot = ((self.current_tick >> (self.shift as usize * level)) & mask) as usize;
                scratch.append(&mut self.levels[level][slot]);
                for (token, deadline_ns) in scratch.drain(..) {
                    self.place(token, deadline_ns, self.current_tick);
                }
            }
            // Drain the base-level slot for this tick. Entries are due
            // when their deadline tick has been reached; anything
            // placed here early (a clamped far deadline after repeated
            // cascades cannot be, but guard exactly) is re-placed.
            scratch.append(&mut self.levels[0][(self.current_tick & mask) as usize]);
            for (token, deadline_ns) in scratch.drain(..) {
                if deadline_ns / self.tick_ns <= self.current_tick {
                    self.len -= 1;
                    expired.push((token, deadline_ns));
                } else {
                    self.place(token, deadline_ns, self.current_tick + 1);
                }
            }
        }
        self.scratch = scratch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_at_deadline() {
        let mut wheel = TimerWheel::new(1_000, 64); // 1µs ticks
        wheel.schedule(1, 5_000);
        let mut out = Vec::new();
        wheel.advance(4_000, &mut out);
        assert!(out.is_empty());
        wheel.advance(6_000, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], (1, 5_000));
        assert!(wheel.is_empty());
    }

    #[test]
    fn multiple_tokens_same_slot() {
        let mut wheel = TimerWheel::new(1_000, 8);
        wheel.schedule(1, 3_000);
        wheel.schedule(2, 3_500);
        assert_eq!(wheel.len(), 2);
        let mut out = Vec::new();
        wheel.advance(4_000, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn upper_level_entry_fires_exactly_not_early() {
        // 1µs ticks, 8 slots/level: level 0 spans 8µs. A 100µs deadline
        // parks at level 1 and must NOT fire when the base level wraps.
        let mut wheel = TimerWheel::new(1_000, 8);
        wheel.schedule(7, 100_000);
        let mut out = Vec::new();
        wheel.advance(99_000, &mut out);
        assert!(out.is_empty(), "fired {out:?} before the 100µs deadline");
        wheel.advance(100_000, &mut out);
        assert_eq!(out, vec![(7, 100_000)]);
    }

    #[test]
    fn beyond_horizon_clamped_not_lost() {
        // 8 slots/level, 4 levels: horizon 4095µs. Schedule far beyond
        // it; the entry must survive repeated clamping cascades and
        // still fire exactly at its deadline.
        let mut wheel = TimerWheel::new(1_000, 8);
        wheel.schedule(1, 50_000_000); // 50ms, ~12x the horizon
        let mut out = Vec::new();
        wheel.advance(49_999_000, &mut out);
        assert!(out.is_empty(), "clamped entry fired early: {out:?}");
        wheel.advance(50_000_000, &mut out);
        assert_eq!(out, vec![(1, 50_000_000)], "original deadline preserved");
    }

    #[test]
    fn past_deadline_fires_next_advance() {
        let mut wheel = TimerWheel::new(1_000, 8);
        let mut out = Vec::new();
        wheel.advance(10_000, &mut out);
        wheel.schedule(1, 1_000); // already past
        wheel.advance(12_000, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn large_time_jump_with_empty_wheel_is_cheap() {
        let mut wheel = TimerWheel::new(1_000, 8);
        wheel.schedule(1, 2_000);
        let mut out = Vec::new();
        wheel.advance(2_000, &mut out);
        assert_eq!(out.len(), 1);
        // Empty wheel: a jump of a billion ticks must fast-forward, not
        // walk (this would time out otherwise).
        wheel.advance(1_000_000_000_000, &mut out);
        wheel.schedule(2, 1_000_000_002_000);
        wheel.advance(1_000_000_003_000, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn interleaved_schedule_and_advance() {
        let mut wheel = TimerWheel::new(1_000, 16);
        let mut fired = Vec::new();
        for i in 0..100u64 {
            wheel.schedule(i, (i + 2) * 1_000);
            let mut out = Vec::new();
            wheel.advance(i * 1_000, &mut out);
            fired.extend(out);
        }
        let mut out = Vec::new();
        wheel.advance(200_000, &mut out);
        fired.extend(out);
        assert_eq!(fired.len(), 100);
    }

    #[test]
    fn mass_expiry_drains_in_deadline_order() {
        // The scan-storm shape: thousands of tokens sharing a handful
        // of deadlines. One big advance must yield them grouped in
        // non-decreasing deadline order (whole-bucket drains).
        let mut wheel = TimerWheel::new(1_000, 16);
        for i in 0..3000u64 {
            wheel.schedule(i, (1 + i % 3) * 100_000);
        }
        let mut out = Vec::new();
        wheel.advance(1_000_000, &mut out);
        assert_eq!(out.len(), 3000);
        let deadlines: Vec<u64> = out.iter().map(|&(_, d)| d).collect();
        let mut sorted = deadlines.clone();
        sorted.sort_unstable();
        assert_eq!(deadlines, sorted, "mass expiry must drain in tick order");
    }

    #[test]
    fn rearmed_token_fires_once_per_schedule() {
        // The wheel does not dedup: re-arming the same token leaves the
        // old entry as a candidate. The owner's revalidation (deadline
        // comparison / tombstone check) is what makes this safe.
        let mut wheel = TimerWheel::new(1_000, 8);
        wheel.schedule(1, 3_000);
        wheel.schedule(1, 6_000);
        assert_eq!(wheel.len(), 2);
        let mut out = Vec::new();
        wheel.advance(4_000, &mut out);
        assert_eq!(out, vec![(1, 3_000)]);
        wheel.advance(7_000, &mut out);
        assert_eq!(out, vec![(1, 3_000), (1, 6_000)]);
        assert!(wheel.is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid timer wheel")]
    fn zero_tick_panics() {
        let _ = TimerWheel::new(0, 8);
    }

    #[test]
    #[should_panic(expected = "invalid timer wheel")]
    fn non_power_of_two_slots_panic() {
        let _ = TimerWheel::new(1_000, 12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use retina_support::proptest::prelude::*;

    /// Naive oracle: a flat list scanned per advance.
    #[derive(Default)]
    struct Oracle {
        entries: Vec<(u64, u64)>,
    }

    impl Oracle {
        fn schedule(&mut self, token: u64, deadline_ns: u64) {
            self.entries.push((token, deadline_ns));
        }

        /// Entries due by `now_ns` at `tick_ns` granularity (an entry
        /// fires when its deadline tick has been reached).
        fn advance(&mut self, now_ns: u64, tick_ns: u64) -> Vec<(u64, u64)> {
            let target_tick = now_ns / tick_ns;
            let mut fired = Vec::new();
            self.entries.retain(|&(token, deadline)| {
                if deadline / tick_ns <= target_tick {
                    fired.push((token, deadline));
                    false
                } else {
                    true
                }
            });
            fired
        }
    }

    fn sorted(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        v.sort_unstable();
        v
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Mass expiry matches the naive oracle at every advance: the
        /// exact set of due entries fires — nothing early, nothing
        /// lost, nothing twice. Deltas up to 5000 ticks against 4
        /// slots/level (horizon 255 ticks) force level-0 wraparound,
        /// multi-level cascades, AND beyond-horizon clamping.
        #[test]
        fn mass_expiry_matches_naive_oracle(
            ops in collection::vec((0u8..2, 1u64..5000, 0u64..400), 1..250)
        ) {
            const TICK: u64 = 1_000;
            let mut wheel = TimerWheel::new(TICK, 4);
            let mut oracle = Oracle::default();
            let mut now = 0u64;
            let mut token = 0u64;
            for (op, delta_ticks, dt_ticks) in ops {
                if op == 0 {
                    let deadline = now + delta_ticks * TICK;
                    wheel.schedule(token, deadline);
                    oracle.schedule(token, deadline);
                    token += 1;
                } else {
                    now += dt_ticks * TICK;
                    let mut fired = Vec::new();
                    wheel.advance(now, &mut fired);
                    let expect = oracle.advance(now, TICK);
                    prop_assert_eq!(sorted(fired), sorted(expect), "divergence at now={}", now);
                    prop_assert_eq!(wheel.len(), oracle.entries.len());
                }
            }
            // Flush: everything outstanding fires exactly once.
            now += 6000 * TICK;
            let mut fired = Vec::new();
            wheel.advance(now, &mut fired);
            let expect = oracle.advance(now, TICK);
            prop_assert_eq!(sorted(fired), sorted(expect));
            prop_assert!(wheel.is_empty());
        }

        /// Wheel-period wraparound: deadlines placed several full wheel
        /// periods out (forcing the same physical slots to be reused
        /// across rotations) fire exactly at their deadline tick.
        #[test]
        fn wraparound_across_periods_is_exact(
            rotations in 1u64..6,
            offset_ticks in 0u64..64,
            start_ticks in 0u64..64,
        ) {
            const TICK: u64 = 1_000;
            const SLOTS: u64 = 8; // level-0 period = 8 ticks
            let mut wheel = TimerWheel::new(TICK, SLOTS as usize);
            let mut out = Vec::new();
            wheel.advance(start_ticks * TICK, &mut out);
            prop_assert!(out.is_empty());
            // Same slot modulo the level-0 period, `rotations` periods out.
            let deadline = (start_ticks + rotations * SLOTS + offset_ticks) * TICK;
            wheel.schedule(42, deadline);
            // One tick before the deadline tick: silent.
            if deadline / TICK > start_ticks + 1 {
                wheel.advance(deadline - TICK, &mut out);
                prop_assert!(out.is_empty(), "fired early at {}: {:?}", deadline - TICK, out);
            }
            wheel.advance(deadline, &mut out);
            prop_assert_eq!(out, vec![(42, deadline)]);
        }

        /// Re-arm (touch): a token rescheduled to a later deadline
        /// yields the stale candidate at the old deadline and the live
        /// one at the new — never a lost or early new deadline. This is
        /// the wheel half of lazy revalidation; the table half
        /// (deadline comparison) is tested in `table::proptests`.
        #[test]
        fn rearm_preserves_new_deadline(
            first_ticks in 1u64..300,
            extra_ticks in 1u64..300,
        ) {
            const TICK: u64 = 1_000;
            let mut wheel = TimerWheel::new(TICK, 8);
            let first = first_ticks * TICK;
            let second = first + extra_ticks * TICK;
            wheel.schedule(9, first);
            wheel.schedule(9, second); // re-arm before the first fires
            let mut out = Vec::new();
            wheel.advance(first, &mut out);
            prop_assert_eq!(out.clone(), vec![(9, first)], "old candidate fires at old deadline");
            out.clear();
            wheel.advance(second - TICK, &mut out);
            // Only the (already fired) old deadline could be due here.
            prop_assert!(out.is_empty(), "re-armed entry fired early: {:?}", out);
            wheel.advance(second, &mut out);
            prop_assert_eq!(out, vec![(9, second)]);
            prop_assert!(wheel.is_empty());
        }
    }
}
