//! # retina-chaos
//!
//! Deterministic, seeded fault injection for the Retina pipeline.
//!
//! Everything a 100GbE deployment fears — mempool exhaustion, RX-ring
//! stalls, truncated and corrupted frames, duplicated and reordered
//! TCP segments, panicking protocol parsers, worker cores losing the
//! CPU — expressed as a declarative [`FaultPlan`] and injected at
//! three levels:
//!
//! * **wire**: [`ChaosSource`] wraps any
//!   [`TrafficSource`](retina_core::runtime::TrafficSource) and
//!   mangles frames (truncate / corrupt / duplicate / reorder);
//! * **device**: [`ChaosHooks`] implements
//!   [`retina_nic::FaultHooks`] (mempool squeezes, ring stalls, worker
//!   slowdowns) and installs onto a `VirtualNic` via [`install`];
//! * **parser**: [`ChaosParser`] panics on chosen payloads, proving
//!   the runtime's panic containment.
//!
//! The determinism contract: every injection decision is a pure
//! function of the plan seed and an event the workload itself drives
//! (ingress sequence number, per-queue poll count, frame index,
//! payload content). No wall-clock, no global RNG. Two runs of the
//! same plan over the same workload perturb exactly the same events,
//! which is what lets chaos tests assert accounting invariants and
//! replay failures bit for bit.
//!
//! ```
//! use std::sync::Arc;
//! use retina_chaos::{install, ChaosSource, FaultPlan};
//! use retina_nic::{DeviceConfig, VirtualNic};
//! use retina_trafficgen::campus::{generate, CampusConfig};
//! use retina_trafficgen::PreloadedSource;
//!
//! let nic = Arc::new(VirtualNic::new(&DeviceConfig {
//!     num_queues: 2,
//!     ..Default::default()
//! }));
//! let source = PreloadedSource::new(generate(&CampusConfig::small(0xC0FFEE)));
//! let plan = FaultPlan::from_seed(0xC0FFEE, source.len() as u64, nic.num_queues());
//! println!("{}", plan.describe());
//! let hooks = install(&nic, &plan); // device-level faults
//! let source = ChaosSource::new(source, &plan); // wire-level faults
//! // runtime.run(source) would now see both fault levels; afterwards:
//! nic.clear_fault_hooks();
//! retina_chaos::disarm_parser_panics();
//! # let _ = (hooks, source);
//! ```

#![warn(missing_docs)]

pub mod hooks;
pub mod parser;
pub mod plan;
pub mod source;

use std::sync::Arc;

use retina_nic::VirtualNic;

pub use hooks::ChaosHooks;
pub use parser::{
    arm_parser_panics, armed_modulus, chaos_parser_factory, content_hash, disarm_parser_panics,
    ChaosParser,
};
pub use plan::{Fault, FaultPlan};
pub use source::ChaosSource;

/// Builds [`ChaosHooks`] for `plan` and installs them on the device.
/// Returns the hooks so callers can inspect poll counters. If the plan
/// arms parser panics, the process-global panic condition is armed
/// too; remember to [`disarm_parser_panics`] (and
/// [`VirtualNic::clear_fault_hooks`]) when the experiment ends.
pub fn install(nic: &Arc<VirtualNic>, plan: &FaultPlan) -> Arc<ChaosHooks> {
    let hooks = Arc::new(ChaosHooks::new(plan.clone(), nic.num_queues()));
    nic.set_fault_hooks(Arc::<ChaosHooks>::clone(&hooks));
    if let Some(modulus) = plan.parser_panic_modulus() {
        arm_parser_panics(modulus);
    }
    hooks
}

#[cfg(test)]
mod tests {
    use super::*;
    use retina_nic::DeviceConfig;

    #[test]
    fn install_wires_hooks_and_arms_parsers() {
        let _switch = parser::lock_arm_switch_for_test();
        let nic = Arc::new(VirtualNic::new(&DeviceConfig {
            num_queues: 2,
            ..Default::default()
        }));
        let plan = FaultPlan::new(5)
            .with(Fault::RingStall {
                queue: 0,
                start_poll: 0,
                polls: 4,
            })
            .with(Fault::ParserPanic { modulus: 16 });
        let hooks = install(&nic, &plan);
        assert_eq!(armed_modulus(), Some(16));
        // The stall window is live: the first polls on queue 0 deliver
        // nothing even though nothing was ingested (and count as polls).
        let mut out = Vec::new();
        assert_eq!(nic.rx_burst(0, &mut out, 32), 0);
        assert_eq!(hooks.polls_seen(0), 1);
        nic.clear_fault_hooks();
        disarm_parser_panics();
        assert_eq!(armed_modulus(), None);
        assert_eq!(nic.faults_in_flight(), 0);
    }
}
