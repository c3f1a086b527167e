//! Runtime configuration.

use retina_conntrack::TimeoutConfig;
use retina_nic::DeviceConfig;
use retina_protocols::ParserRegistry;

/// Configuration for a [`crate::Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of RX cores (RX queues); symmetric RSS distributes
    /// connections among them. A threaded run spawns one thread per
    /// core, a stepped run schedules one RX actor per core.
    pub cores: u16,
    /// Virtual NIC configuration.
    pub device: DeviceConfig,
    /// Connection timeout scheme (default: 5 s establish + 5 min
    /// inactivity, §5.2).
    pub timeouts: TimeoutConfig,
    /// Maximum out-of-order packets buffered per flow direction
    /// (default 500, §5.2).
    pub ooo_capacity: usize,
    /// RX burst size per poll.
    pub burst: usize,
    /// Install the filter's hardware component as NIC flow rules.
    pub hw_filtering: bool,
    /// Pace the ingest thread: when a descriptor ring is full, wait for
    /// the workers instead of dropping (models a source the pipeline
    /// keeps up with). Benches measuring loss must disable this.
    pub paced_ingest: bool,
    /// Collect per-stage cycle accounting (Figure 7). Adds a few rdtsc
    /// reads per packet, so it is off by default.
    pub profile_stages: bool,
    /// Worker threads in the shared callback pool (subscriptions with
    /// [`crate::DispatchMode::Shared`]; default 1).
    pub shared_workers: usize,
    /// Application-layer parser modules available to the probe stage
    /// (§3.3 extensibility: register custom protocols here).
    pub parsers: ParserRegistry,
    /// Protocol metadata for filter compilation and hardware-rule
    /// synthesis (§3.3: register custom protocols' filterable fields
    /// here).
    pub filter_registry: retina_filter::ProtocolRegistry,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            cores: 1,
            device: DeviceConfig {
                num_queues: 1,
                ..DeviceConfig::default()
            },
            timeouts: TimeoutConfig::default(),
            ooo_capacity: 500,
            burst: 32,
            hw_filtering: true,
            paced_ingest: true,
            profile_stages: false,
            shared_workers: 1,
            parsers: ParserRegistry::default(),
            filter_registry: retina_filter::ProtocolRegistry::default(),
        }
    }
}

impl RuntimeConfig {
    /// Convenience constructor for an `n`-core runtime.
    pub fn with_cores(n: u16) -> Self {
        let mut cfg = RuntimeConfig {
            cores: n,
            ..RuntimeConfig::default()
        };
        cfg.device.num_queues = n;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let cfg = RuntimeConfig::default();
        assert_eq!(cfg.cores, 1);
        assert_eq!(cfg.ooo_capacity, 500);
        assert!(cfg.hw_filtering);
        assert_eq!(cfg.timeouts.establish_ns, Some(5_000_000_000));
    }

    #[test]
    fn with_cores_syncs_queues() {
        let cfg = RuntimeConfig::with_cores(8);
        assert_eq!(cfg.cores, 8);
        assert_eq!(cfg.device.num_queues, 8);
    }
}
