//! # retina-nic
//!
//! A virtual 100GbE NIC: the hardware substrate Retina runs on, simulated
//! in software.
//!
//! The paper deploys Retina on a Mellanox ConnectX-5 behind DPDK. This crate
//! reproduces the primitives that deployment provides, so the framework's
//! hardware-facing code paths (flow-rule synthesis and validation, RSS-based
//! load balancing, per-queue polling, loss accounting) are exercised
//! faithfully without physical hardware:
//!
//! - [`Mbuf`] / [`Mempool`] — reference-counted packet buffers with
//!   pool-level accounting, mirroring DPDK mbufs and mempools.
//! - [`StreamBytes`] — an ordered byte stream held as views into the
//!   frames that carried it (§5.2: reorder, do not copy), each view
//!   keeping its frame's pool charge.
//! - [`rss`] — symmetric Toeplitz receive-side scaling, so both directions
//!   of a connection hash to the same core (§5.1).
//! - [`reta`] — the RSS redirection table, including the §6.1 trick of
//!   remapping a fraction of entries to a "sink" queue to control the
//!   effective ingress rate with per-flow consistency.
//! - [`flow`] — the hardware flow-rule engine with a per-device capability
//!   model: rules a given NIC cannot express are rejected at validation
//!   time, forcing the framework to fall back to broader rules plus software
//!   filtering, exactly as §4.1 describes for `tcp.port >= 100`.
//! - [`device`] — a multi-queue port tying the above together, with bounded
//!   descriptor rings and `rx_missed` loss accounting.
//! - [`faults`] — deterministic fault-injection hooks (mempool squeeze
//!   windows, RX-ring stalls, worker slowdowns) consulted by the device,
//!   so a chaos layer can reproduce production failure modes from a seed.

#![warn(missing_docs)]

pub mod device;
pub mod faults;
pub mod flow;
pub mod mbuf;
pub mod reta;
pub mod rss;
pub mod stream;

pub use device::{DeviceConfig, IngestOutcome, PortStats, PortStatsSnapshot, VirtualNic};
pub use faults::{FaultHooks, NoFaults};
pub use flow::{DeviceCaps, FlowAction, FlowRule, RuleItem};
pub use mbuf::{Mbuf, Mempool};
pub use reta::RedirectionTable;
pub use rss::RssHasher;
pub use stream::StreamBytes;
