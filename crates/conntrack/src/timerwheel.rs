//! Timer wheel for connection expiration (Varghese & Lauck scheme 6,
//! §5.2), linked through the slots it times.
//!
//! Design goals, following the paper and Girondi et al.: per-packet
//! work stays O(1) — activity updates only touch the connection's
//! `last_seen` stamp, never the wheel — and mass expiry is amortized
//! bucket drains. The scan-heavy campus mix makes the second property
//! load-bearing: millions of unanswered SYNs share the 5 s establish
//! timeout, so they cluster into a handful of adjacent buckets and drain
//! in order, each one unlinked off its bucket's head.
//!
//! The wheel is one level of [`BUCKETS`] buckets of [`TICK_NS`]: a
//! rotation spans 25.6 s. Each bucket is a circular doubly linked list
//! whose links are two `u32` words in each timed connection's arena slot
//! (`ConnArena::schedule`); the wheel itself holds one sentinel
//! pair of words per bucket — [`TimerWheel::BYTES`] in all, whatever the
//! number of connections — and its clock. A link word names a slot by its
//! index or a bucket by its sentinel's, numbered above every slot index,
//! so unlinking a connection never needs to know its bucket, and freeing
//! a slot unlinks it: nothing that outlives a connection refers to it.
//!
//! The wheel stores no deadline. A connection is placed in the bucket of
//! its deadline's tick, at least the next tick and at most the last one
//! of the rotation ahead; `ConnArena::pop_due` unlinks the
//! connections of every bucket the clock passes, and the owner
//! recomputes each one's deadline from its stamps: it expires the ones
//! whose deadline has passed and places the others again. A deadline past
//! the rotation (the 5-minute inactivity timeout) therefore makes a stop
//! at each rotation's end, and activity re-arms a connection without
//! touching the wheel — its next stop finds the later deadline. A clock
//! that moves more than a rotation at once passes every bucket once, in
//! bucket order from the one after the target tick's, instead of walking
//! every tick in between.

// Narrowing casts in this file are intentional: a tick's bucket is its low eight bits.
#![allow(clippy::cast_possible_truncation)]

/// Buckets in the wheel: one per tick of a rotation.
pub const BUCKETS: usize = 256;

/// The wheel's resolution: 100 ms, so a rotation spans 25.6 s and the
/// default 5 s establish timeout is placed on its own tick.
pub const TICK_NS: u64 = 100_000_000;

/// The link word naming bucket 0's sentinel; bucket `b`'s is
/// `SENTINEL + b`. Slot indices stay below it.
pub(crate) const SENTINEL: u32 = u32::MAX - BUCKETS as u32;

/// Two link words: a timed slot's neighbours in its bucket, or a
/// sentinel's last and first entry. An entry in no bucket links to
/// itself both ways, so unlinking it changes nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Link {
    pub(crate) prev: u32,
    pub(crate) next: u32,
}

impl Link {
    /// The links of the lone entry at `at`.
    pub(crate) fn lone(at: u32) -> Self {
        Link { prev: at, next: at }
    }
}

/// The wheel's own state: one sentinel per bucket and the clock.
#[derive(Debug)]
pub struct TimerWheel {
    buckets: [Link; BUCKETS],
    /// The tick up to which the wheel has been advanced: its bucket is
    /// empty, and every timed slot is placed in one of the next
    /// `BUCKETS - 1` ticks.
    tick: u64,
}

impl TimerWheel {
    /// Bytes of timer state beside the slots' link words: the sentinels.
    pub const BYTES: usize = std::mem::size_of::<[Link; BUCKETS]>();

    /// An empty wheel at tick 0.
    pub(crate) fn new() -> Self {
        TimerWheel {
            buckets: std::array::from_fn(|b| Link::lone(SENTINEL + b as u32)),
            tick: 0,
        }
    }

    /// Empties every bucket and keeps the clock, for an owner that has
    /// freed every timed slot.
    pub(crate) fn clear(&mut self) {
        self.buckets = Self::new().buckets;
    }

    /// The sentinel whose link word is `at`.
    pub(crate) fn sentinel(&mut self, at: u32) -> &mut Link {
        &mut self.buckets[(at - SENTINEL) as usize]
    }

    /// The sentinel of the bucket a deadline is placed in: its tick's,
    /// clamped to the rotation ahead of the clock.
    pub(crate) fn bucket_of(&self, deadline_ns: u64) -> u32 {
        let tick = (deadline_ns / TICK_NS).clamp(self.tick + 1, self.tick + BUCKETS as u64 - 1);
        SENTINEL + (tick % BUCKETS as u64) as u32
    }

    /// The sentinel of the clock's bucket.
    pub(crate) fn current(&self) -> u32 {
        SENTINEL + (self.tick % BUCKETS as u64) as u32
    }

    /// Moves the clock one tick towards `now_ns`'s — from more than a
    /// rotation behind, to the first tick of the last rotation before it,
    /// whose buckets hold every timed slot. False once it is there.
    pub(crate) fn step(&mut self, now_ns: u64) -> bool {
        let target = now_ns / TICK_NS;
        if self.tick >= target {
            return false;
        }
        self.tick = (self.tick + 1).max(target.saturating_sub(BUCKETS as u64 - 1));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::{ConnArena, ConnEntry, ConnHandle};
    use crate::tuple::FiveTuple;

    /// One connection timed at `deadline` (its value) in `arena`.
    pub(super) fn timed(arena: &mut ConnArena<u64>, deadline: u64) -> ConnHandle {
        let tuple = FiveTuple {
            orig: "10.0.0.1:1".parse().unwrap(),
            resp: "1.1.1.1:443".parse().unwrap(),
            proto: 6,
        };
        let entry = ConnEntry {
            tuple,
            created_ns: 0,
            last_seen_ns: 0,
            established: false,
            value: deadline,
        };
        let handle = arena.insert(0, entry);
        arena.schedule(handle, deadline);
        handle
    }

    /// Plays the owner's part in an advance to `now`: frees and returns
    /// (in pop order) the deadlines of the slots due by then, and places
    /// every slot that pops early again at its deadline.
    pub(super) fn advance(arena: &mut ConnArena<u64>, now: u64) -> Vec<u64> {
        let mut fired = Vec::new();
        while let Some(handle) = arena.pop_due(now) {
            let deadline = arena.get(handle).unwrap().value;
            if deadline <= now {
                fired.push(arena.remove(handle).unwrap().1.value);
            } else {
                arena.schedule(handle, deadline);
            }
        }
        fired
    }

    const T: u64 = TICK_NS;

    #[test]
    fn fires_at_deadline() {
        let mut arena = ConnArena::new();
        timed(&mut arena, 5 * T);
        assert!(advance(&mut arena, 4 * T).is_empty());
        assert_eq!(advance(&mut arena, 6 * T), vec![5 * T]);
        assert!(arena.slab.is_empty());
    }

    #[test]
    fn multiple_tokens_same_slot() {
        // Two connections in one tick's bucket both fire.
        let mut arena = ConnArena::new();
        timed(&mut arena, 3 * T);
        timed(&mut arena, 3 * T + T / 2);
        assert_eq!(advance(&mut arena, 4 * T), vec![3 * T, 3 * T + T / 2]);
    }

    #[test]
    fn beyond_horizon_clamped_not_lost() {
        // 50 s is past the 25.6 s rotation: the slot stops at the
        // rotation's end, is placed again, and fires exactly at its
        // deadline.
        let mut arena = ConnArena::new();
        timed(&mut arena, 500 * T);
        for now in [254 * T, 255 * T, 256 * T, 499 * T] {
            assert!(advance(&mut arena, now).is_empty(), "fired early at {now}");
        }
        assert_eq!(advance(&mut arena, 500 * T), vec![500 * T]);
    }

    #[test]
    fn past_deadline_fires_next_advance() {
        let mut arena = ConnArena::new();
        assert!(advance(&mut arena, 10 * T).is_empty());
        timed(&mut arena, T); // already past
        assert_eq!(advance(&mut arena, 11 * T), vec![T]);
    }

    #[test]
    fn large_time_jump_with_empty_wheel_is_cheap() {
        // A jump of ten billion ticks passes each bucket once, not each
        // tick (this would time out otherwise), empty wheel or not.
        let mut arena = ConnArena::new();
        timed(&mut arena, 2 * T);
        assert_eq!(advance(&mut arena, 2 * T), vec![2 * T]);
        advance(&mut arena, 1_000_000_000 * T);
        let far = 1_000_000_002 * T;
        timed(&mut arena, far);
        timed(&mut arena, 2 * far);
        assert_eq!(advance(&mut arena, far + T), vec![far]);
        assert_eq!(advance(&mut arena, 3 * far), vec![2 * far]);
    }

    #[test]
    fn interleaved_schedule_and_advance() {
        let mut arena = ConnArena::new();
        let mut fired = Vec::new();
        for i in 0..100u64 {
            timed(&mut arena, (i + 2) * T);
            fired.extend(advance(&mut arena, i * T));
        }
        fired.extend(advance(&mut arena, 200 * T));
        assert_eq!(fired, (2..102).map(|i| i * T).collect::<Vec<_>>());
    }

    #[test]
    fn mass_expiry_drains_in_deadline_order() {
        // The scan-storm shape: thousands of connections sharing a
        // handful of deadlines. An advance within one rotation yields
        // them grouped in non-decreasing deadline order, each bucket in
        // the order it was filled.
        let mut arena = ConnArena::new();
        for i in 0..3000u64 {
            timed(&mut arena, (1 + i % 3) * 50 * T);
        }
        let fired = advance(&mut arena, 255 * T);
        assert_eq!(fired.len(), 3000);
        assert!(fired.is_sorted(), "mass expiry must drain in tick order");
    }

    #[test]
    fn a_rescheduled_slot_moves_and_fires_once() {
        // Scheduling a timed slot again moves it: the wheel holds no
        // second timer for it, and the slot fires at its new deadline.
        let mut arena = ConnArena::new();
        let handle = timed(&mut arena, 3 * T);
        arena.get_mut(handle).unwrap().value = 6 * T;
        arena.schedule(handle, 6 * T);
        assert!(advance(&mut arena, 5 * T).is_empty());
        assert_eq!(advance(&mut arena, 7 * T), vec![6 * T]);
        assert_eq!(arena.pop_due(1_000 * T), None);
    }

    #[test]
    fn a_freed_slot_leaves_its_bucket_and_its_neighbours() {
        // Removing the middle one of three slots in a bucket unlinks it;
        // its neighbours still fire, and the slot's next occupant fires
        // at its own deadline only.
        let mut arena = ConnArena::new();
        let handles: Vec<_> = (0..3).map(|i| timed(&mut arena, 4 * T + i)).collect();
        arena.remove(handles[1]).unwrap();
        let reused = timed(&mut arena, 9 * T);
        assert_eq!(reused, handles[1], "the freed slot is reused");
        assert_eq!(advance(&mut arena, 5 * T), vec![4 * T, 4 * T + 2]);
        assert_eq!(advance(&mut arena, 10 * T), vec![9 * T]);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{advance, timed};
    use super::*;
    use crate::arena::ConnArena;
    use retina_support::proptest::prelude::*;

    const T: u64 = TICK_NS;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Mass expiry matches a naive oracle (a flat list scanned per
        /// advance) at every advance: the exact set of due connections
        /// fires — nothing early, nothing lost, nothing twice. Deadlines
        /// up to 5000 ticks out and advances of up to 400 ticks force
        /// bucket reuse across rotations, stops at a rotation's end, and
        /// jumps past whole rotations.
        #[test]
        fn mass_expiry_matches_naive_oracle(
            ops in collection::vec((0u8..2, 1u64..5000, 0u64..400), 1..250)
        ) {
            let mut arena = ConnArena::new();
            let mut oracle: Vec<u64> = Vec::new();
            let mut now = 0u64;
            let due = |oracle: &mut Vec<u64>, now: u64| {
                let mut fired: Vec<u64> = oracle.iter().copied().filter(|&d| d <= now).collect();
                oracle.retain(|&d| d > now);
                fired.sort_unstable();
                fired
            };
            for (op, delta_ticks, dt_ticks) in ops {
                if op == 0 {
                    timed(&mut arena, now + delta_ticks * T);
                    oracle.push(now + delta_ticks * T);
                } else {
                    now += dt_ticks * T;
                    let mut fired = advance(&mut arena, now);
                    fired.sort_unstable();
                    prop_assert_eq!(fired, due(&mut oracle, now), "divergence at now={}", now);
                    prop_assert_eq!(arena.slab.len(), oracle.len());
                }
            }
            // Flush: everything outstanding fires exactly once.
            now += 6000 * T;
            let mut fired = advance(&mut arena, now);
            fired.sort_unstable();
            prop_assert_eq!(fired, due(&mut oracle, now));
            prop_assert!(arena.slab.is_empty());
        }

        /// Wraparound: a deadline several whole rotations out lands in a
        /// bucket the clock passes many times first; it fires exactly at
        /// its tick, never a rotation early.
        #[test]
        fn wraparound_across_periods_is_exact(
            rotations in 1u64..6,
            offset_ticks in 0u64..256,
            start_ticks in 0u64..256,
        ) {
            let mut arena = ConnArena::new();
            prop_assert!(advance(&mut arena, start_ticks * T).is_empty());
            let deadline = (start_ticks + rotations * BUCKETS as u64 + offset_ticks) * T;
            timed(&mut arena, deadline);
            // One tick before the deadline tick: silent.
            prop_assert!(advance(&mut arena, deadline - T).is_empty(), "fired early");
            prop_assert_eq!(advance(&mut arena, deadline), vec![deadline]);
        }

        /// Re-arm: a connection scheduled again, to a later deadline,
        /// before its first one passes fires once, at the new deadline —
        /// never at the old one, never lost, never early.
        #[test]
        fn rearm_preserves_new_deadline(
            first_ticks in 1u64..600,
            extra_ticks in 1u64..600,
        ) {
            let mut arena = ConnArena::new();
            let first = first_ticks * T;
            let second = first + extra_ticks * T;
            let handle = timed(&mut arena, first);
            arena.get_mut(handle).unwrap().value = second;
            arena.schedule(handle, second);
            prop_assert!(advance(&mut arena, second - T).is_empty(), "fired before the new deadline");
            prop_assert_eq!(advance(&mut arena, second), vec![second]);
            prop_assert!(arena.slab.is_empty());
        }
    }
}
