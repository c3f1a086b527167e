//! Fault-injection hooks for the virtual device.
//!
//! Production 100GbE pipelines fail in ways a clean simulation never
//! exercises: mempools run dry under microbursts, RX rings stall while
//! an interrupt storm pins a core, and worker cores lose cycles to
//! noisy neighbors. [`FaultHooks`] is the seam where a chaos layer
//! (see `retina-chaos`) injects those failures *deterministically*:
//! the device consults the installed hooks at each decision point and
//! otherwise behaves identically, so every fault scenario is
//! reproducible from a seed and the port statistics still attribute
//! every frame to exactly one outcome.

use std::time::Duration;

/// Injection points the [`crate::VirtualNic`] consults when a fault
/// layer is installed. Every method has a no-fault default, so
/// implementations override only the failures they model.
///
/// Determinism contract: decisions must be pure functions of the
/// injector's seed and the arguments (frame sequence number, queue,
/// poll count) — never of wall-clock time — so a run is replayable.
/// Both drivers read the same hooks. A threaded run sleeps a timing
/// fault's delay; the deterministic stepped run
/// (`retina_core::MultiRuntime::run_stepped`) holds the faulted actor
/// for ⌈delay / `STEP_NS`⌉ virtual steps instead, so no wall-clock time
/// enters a replay at all. Every delay the device hands out through its
/// `fault_*_delay` accessors fires its tracer's `chaos-fault` trigger.
pub trait FaultHooks: Send + Sync {
    /// Consulted once per offered frame with its 0-based ingress
    /// sequence number. Returning `true` simulates mempool exhaustion:
    /// the frame is dropped and counted as `rx_nombuf`, even under
    /// paced ingest (a squeeze window must not deadlock a pacing
    /// source that would otherwise spin forever).
    fn mempool_squeezed(&self, seq: u64) -> bool {
        let _ = seq;
        false
    }

    /// Consulted on every `rx_burst`. Returning `true` stalls the
    /// queue: the poll delivers nothing even if descriptors are
    /// waiting. Frames stay in the ring (a stall delays, never drops),
    /// which is why the runtime's final drain must check actual ring
    /// depth rather than trusting an empty poll.
    fn ring_stalled(&self, queue: u16) -> bool {
        let _ = queue;
        false
    }

    /// Extra latency to inject into a worker core's poll loop
    /// (modeling a slowed core: thermal throttling, a noisy neighbor,
    /// an interrupt storm). Returning `Some(d)` makes the worker wait
    /// `d` before its next poll.
    fn worker_delay(&self, core: u16) -> Option<Duration> {
        let _ = core;
        None
    }

    /// Extra latency to inject before a callback-dispatch worker runs
    /// subscription `sub`'s `seq`-th callback (modeling an expensive
    /// analysis callback stalling its worker). Keyed purely on the
    /// arguments so the decision stays replayable.
    fn callback_delay(&self, sub: u16, seq: u64) -> Option<Duration> {
        let _ = (sub, seq);
        None
    }

    /// Extra latency to inject before worker core `core` picks up a
    /// newly published configuration epoch (modeling a core that is
    /// slow to reach its between-bursts safe point during a live
    /// reconfiguration). The swap's grace period must tolerate the
    /// laggard: the old epoch stays referenced — and therefore alive —
    /// until every core has acknowledged the new generation.
    fn swap_pickup_delay(&self, core: u16) -> Option<Duration> {
        let _ = core;
        None
    }

    /// Frames the injector is currently holding outside the device
    /// (e.g. a delay line). Non-zero keeps the runtime's final drain
    /// alive: workers must not exit while injected frames are still
    /// in flight.
    fn in_flight(&self) -> usize {
        0
    }
}

/// The no-fault implementation (every hook at its default).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFaults;

impl FaultHooks for NoFaults {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_fault_free() {
        let h = NoFaults;
        assert!(!h.mempool_squeezed(0));
        assert!(!h.ring_stalled(3));
        assert_eq!(h.worker_delay(1), None);
        assert_eq!(h.callback_delay(0, 7), None);
        assert_eq!(h.swap_pickup_delay(2), None);
        assert_eq!(h.in_flight(), 0);
    }
}
