//! Device-level fault hooks.
//!
//! [`ChaosHooks`] implements [`retina_nic::FaultHooks`] from a
//! [`FaultPlan`]: mempool squeezes keyed on ingress sequence numbers,
//! ring stalls keyed on per-queue poll counts, worker slowdowns keyed
//! on per-core poll counts. All keys are event counters the workload
//! itself drives, never the wall clock, so the same plan perturbs the
//! same events on every run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use retina_nic::FaultHooks;

use crate::plan::{Fault, FaultPlan};

/// A seeded fault layer ready to install on a `VirtualNic` via
/// [`retina_nic::VirtualNic::set_fault_hooks`].
#[derive(Debug)]
pub struct ChaosHooks {
    plan: FaultPlan,
    /// Per-queue `rx_burst` counters (stall windows are poll-indexed).
    queue_polls: Vec<AtomicU64>,
    /// Per-core worker-loop counters (slowdown windows are poll-indexed).
    core_polls: Vec<AtomicU64>,
    /// Per-core epoch-pickup counters (swap stalls are pickup-indexed).
    core_pickups: Vec<AtomicU64>,
}

impl ChaosHooks {
    /// Builds hooks for a device with `num_queues` RX queues (also the
    /// worker-core count — the runtime runs one worker per queue).
    pub fn new(plan: FaultPlan, num_queues: u16) -> Self {
        let n = num_queues.max(1) as usize;
        ChaosHooks {
            plan,
            queue_polls: (0..n).map(|_| AtomicU64::new(0)).collect(),
            core_polls: (0..n).map(|_| AtomicU64::new(0)).collect(),
            core_pickups: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The plan the hooks were built from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// How many `rx_burst` polls queue `queue` has seen.
    pub fn polls_seen(&self, queue: u16) -> u64 {
        self.queue_polls
            .get(queue as usize)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

impl FaultHooks for ChaosHooks {
    fn mempool_squeezed(&self, seq: u64) -> bool {
        self.plan.faults.iter().any(|f| match f {
            Fault::MempoolSqueeze { start_seq, frames } => {
                seq >= *start_seq && seq - *start_seq < *frames
            }
            _ => false,
        })
    }

    fn ring_stalled(&self, queue: u16) -> bool {
        let Some(counter) = self.queue_polls.get(queue as usize) else {
            return false;
        };
        let poll = counter.fetch_add(1, Ordering::Relaxed);
        self.plan.faults.iter().any(|f| match f {
            Fault::RingStall {
                queue: q,
                start_poll,
                polls,
            } => *q == queue && poll >= *start_poll && poll - *start_poll < *polls,
            _ => false,
        })
    }

    fn worker_delay(&self, core: u16) -> Option<Duration> {
        let counter = self.core_polls.get(core as usize)?;
        let poll = counter.fetch_add(1, Ordering::Relaxed);
        self.plan.faults.iter().find_map(|f| match f {
            Fault::WorkerSlowdown {
                core: c,
                start_poll,
                polls,
                delay,
            } if *c == core && poll >= *start_poll && poll - *start_poll < *polls => Some(*delay),
            _ => None,
        })
    }

    fn swap_pickup_delay(&self, core: u16) -> Option<Duration> {
        let counter = self.core_pickups.get(core as usize)?;
        let pickup = counter.fetch_add(1, Ordering::Relaxed);
        self.plan.faults.iter().find_map(|f| match f {
            Fault::SwapStall {
                core: c,
                pickups,
                delay,
            } if *c == core && pickup < *pickups => Some(*delay),
            _ => None,
        })
    }

    fn callback_delay(&self, sub: u16, seq: u64) -> Option<Duration> {
        // Stateless: the dispatch worker supplies the per-subscription
        // item sequence, so the window check needs no counter here and
        // the decision is replayable from the plan alone.
        self.plan.faults.iter().find_map(|f| match f {
            Fault::CallbackStall {
                sub: s,
                start_item,
                items,
                delay,
            } if *s == sub && seq >= *start_item && seq - *start_item < *items => Some(*delay),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squeeze_windows_hit_exact_sequences() {
        let plan = FaultPlan::new(0).with(Fault::MempoolSqueeze {
            start_seq: 10,
            frames: 3,
        });
        let hooks = ChaosHooks::new(plan, 1);
        assert!(!hooks.mempool_squeezed(9));
        assert!(hooks.mempool_squeezed(10));
        assert!(hooks.mempool_squeezed(12));
        assert!(!hooks.mempool_squeezed(13));
    }

    #[test]
    fn ring_stall_counts_polls_per_queue() {
        let plan = FaultPlan::new(0).with(Fault::RingStall {
            queue: 1,
            start_poll: 2,
            polls: 2,
        });
        let hooks = ChaosHooks::new(plan, 2);
        // Queue 0 never stalls.
        assert!(!hooks.ring_stalled(0));
        // Queue 1: polls 0,1 clean; 2,3 stalled; 4 clean.
        assert!(!hooks.ring_stalled(1));
        assert!(!hooks.ring_stalled(1));
        assert!(hooks.ring_stalled(1));
        assert!(hooks.ring_stalled(1));
        assert!(!hooks.ring_stalled(1));
        assert_eq!(hooks.polls_seen(1), 5);
    }

    #[test]
    fn worker_delay_windows() {
        let plan = FaultPlan::new(0).with(Fault::WorkerSlowdown {
            core: 0,
            start_poll: 1,
            polls: 1,
            delay: Duration::from_millis(7),
        });
        let hooks = ChaosHooks::new(plan, 1);
        assert_eq!(hooks.worker_delay(0), None);
        assert_eq!(hooks.worker_delay(0), Some(Duration::from_millis(7)));
        assert_eq!(hooks.worker_delay(0), None);
        assert_eq!(hooks.worker_delay(5), None, "unknown core is unfaulted");
    }

    #[test]
    fn callback_stall_windows_are_stateless() {
        let plan = FaultPlan::new(0).with(Fault::CallbackStall {
            sub: 1,
            start_item: 2,
            items: 2,
            delay: Duration::from_millis(3),
        });
        let hooks = ChaosHooks::new(plan, 1);
        assert_eq!(hooks.callback_delay(0, 2), None, "other sub unfaulted");
        assert_eq!(hooks.callback_delay(1, 1), None);
        assert_eq!(hooks.callback_delay(1, 2), Some(Duration::from_millis(3)));
        assert_eq!(hooks.callback_delay(1, 3), Some(Duration::from_millis(3)));
        assert_eq!(hooks.callback_delay(1, 4), None);
        // Stateless: re-asking for the same item gives the same answer.
        assert_eq!(hooks.callback_delay(1, 2), Some(Duration::from_millis(3)));
    }

    #[test]
    fn swap_stall_delays_only_the_configured_cores_first_pickups() {
        let plan = FaultPlan::new(0).with(Fault::SwapStall {
            core: 1,
            pickups: 2,
            delay: Duration::from_millis(4),
        });
        let hooks = ChaosHooks::new(plan, 2);
        assert_eq!(hooks.swap_pickup_delay(0), None, "other core unfaulted");
        assert_eq!(hooks.swap_pickup_delay(1), Some(Duration::from_millis(4)));
        assert_eq!(hooks.swap_pickup_delay(1), Some(Duration::from_millis(4)));
        assert_eq!(hooks.swap_pickup_delay(1), None, "window exhausted");
    }

    #[test]
    fn no_faults_in_flight_by_default() {
        let hooks = ChaosHooks::new(FaultPlan::new(0), 1);
        assert_eq!(hooks.in_flight(), 0);
    }
}
