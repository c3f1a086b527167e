//! Per-core and per-stage statistics.
//!
//! The stage counters directly feed Figure 7 (the fraction of ingress
//! packets that trigger each processing stage, and average cycles per
//! stage), and the runtime's real-time monitoring of throughput, drops,
//! and memory (§5.3). When stage profiling is on, each stage also
//! carries a log2 cycle histogram so reports can expose tail latency
//! (p50/p95/p99), not just the mean.

use retina_telemetry::StageSummary;

/// Statistics for one worker core (or the aggregate across cores).
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreStats {
    /// Packets received from the RX queue.
    pub rx_packets: u64,
    /// Bytes received from the RX queue.
    pub rx_bytes: u64,
    /// Packets that failed L2–L4 parsing (delivered to raw-packet
    /// subscriptions only).
    pub parse_failures: u64,
    /// Application-layer parser panics caught and converted to
    /// recoverable parse errors (the worker survives; the connection
    /// falls back to the filter's no-session path).
    pub parser_panics: u64,
    /// Software packet filter executions.
    pub packet_filter: StageSummary,
    /// Packets handed to the connection tracker (lookup or insert).
    pub conn_tracking: StageSummary,
    /// Packets that went through stream reassembly (payload-carrying
    /// packets of connections still being probed/parsed).
    pub reassembly: StageSummary,
    /// Segments fed to application-layer parsers.
    pub app_parsing: StageSummary,
    /// Session filter executions.
    pub session_filter: StageSummary,
    /// User callback executions.
    pub callbacks: StageSummary,
    /// Connections created.
    pub conns_created: u64,
    /// Connections dropped early by the connection/session filters
    /// (before natural termination — the lazy-discard win). Always
    /// equals `discard_conn_filter + discard_session_filter +
    /// conns_completed_early`.
    pub conns_discarded: u64,
    /// Discards attributed to the connection filter (probe failure or
    /// an explicit non-match on the connection stage).
    pub discard_conn_filter: u64,
    /// Discards attributed to the session filter (session parsed but
    /// rejected).
    pub discard_session_filter: u64,
    /// Connections removed early because every subscription was already
    /// satisfied (e.g. TLS handshake delivered mid-stream) — counted
    /// within `conns_discarded` but not a filter rejection.
    pub conns_completed_early: u64,
    /// Connections expired by timeouts.
    pub conns_expired: u64,
    /// Connections still open when the run ended (drained at shutdown).
    pub conns_drained: u64,
    /// Connections that terminated naturally (FIN/RST).
    pub conns_terminated: u64,
    /// Connections terminated at a live-reconfiguration swap because no
    /// subscription in the new epoch watches them (their removed
    /// subscriptions' state was drained and delivered first). A fifth
    /// outcome in the conn identity, so swap-time evictions are exactly
    /// attributed rather than folded into discards.
    pub conns_swapped: u64,
    /// Peak number of simultaneously-tracked connections on this core
    /// (sampled at insert). Merging across cores sums the per-core
    /// peaks: an upper bound on the true global peak (per-core peaks
    /// need not be simultaneous), exact for single-core and stepped
    /// runs.
    pub conns_peak: u64,
    /// Out-of-order segments buffered.
    pub ooo_buffered: u64,
}

impl CoreStats {
    /// Merges another core's counters into this one.
    pub fn merge(&mut self, other: &CoreStats) {
        self.rx_packets += other.rx_packets;
        self.rx_bytes += other.rx_bytes;
        self.parse_failures += other.parse_failures;
        self.parser_panics += other.parser_panics;
        self.packet_filter.merge(&other.packet_filter);
        self.conn_tracking.merge(&other.conn_tracking);
        self.reassembly.merge(&other.reassembly);
        self.app_parsing.merge(&other.app_parsing);
        self.session_filter.merge(&other.session_filter);
        self.callbacks.merge(&other.callbacks);
        self.conns_created += other.conns_created;
        self.conns_discarded += other.conns_discarded;
        self.discard_conn_filter += other.discard_conn_filter;
        self.discard_session_filter += other.discard_session_filter;
        self.conns_completed_early += other.conns_completed_early;
        self.conns_expired += other.conns_expired;
        self.conns_drained += other.conns_drained;
        self.conns_terminated += other.conns_terminated;
        self.conns_swapped += other.conns_swapped;
        self.conns_peak += other.conns_peak;
        self.ooo_buffered += other.ooo_buffered;
    }

    /// Checks that every created connection is attributed to exactly one
    /// outcome, and every discard to exactly one cause. Returns the
    /// violated invariant on failure.
    pub fn check_conn_accounting(&self) -> Result<(), String> {
        let outcomes = self.conns_discarded
            + self.conns_terminated
            + self.conns_expired
            + self.conns_drained
            + self.conns_swapped;
        if self.conns_created != outcomes {
            return Err(format!(
                "conns_created ({}) != discarded ({}) + terminated ({}) + expired ({}) + \
                 drained ({}) + swapped ({})",
                self.conns_created,
                self.conns_discarded,
                self.conns_terminated,
                self.conns_expired,
                self.conns_drained,
                self.conns_swapped,
            ));
        }
        let causes =
            self.discard_conn_filter + self.discard_session_filter + self.conns_completed_early;
        if self.conns_discarded != causes {
            return Err(format!(
                "conns_discarded ({}) != conn_filter ({}) + session_filter ({}) + \
                 completed_early ({})",
                self.conns_discarded,
                self.discard_conn_filter,
                self.discard_session_filter,
                self.conns_completed_early,
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_cycles() {
        let s = StageSummary {
            runs: 4,
            cycles: 100,
            ..StageSummary::default()
        };
        assert_eq!(s.avg_cycles(), 25.0);
        assert_eq!(StageSummary::default().avg_cycles(), 0.0);
    }

    #[test]
    fn record_cycles_feeds_total_and_histogram() {
        let mut s = StageSummary::default();
        for c in [100u64, 100, 100, 5000] {
            s.runs += 1;
            s.record_cycles(c);
        }
        assert_eq!(s.runs, 4);
        assert_eq!(s.cycles, 5300);
        assert_eq!(s.hist.count(), 4);
        // 100 lands in [64,127]; 5000 in [4096,8191].
        assert_eq!(s.p50(), 127);
        assert_eq!(s.p99(), 8191);
        assert!(s.p50() <= s.p95() && s.p95() <= s.p99());
    }

    #[test]
    fn merge() {
        let mut a = CoreStats {
            rx_packets: 10,
            ..CoreStats::default()
        };
        a.packet_filter.runs = 10;
        a.packet_filter.record_cycles(50);
        let mut b = CoreStats {
            rx_packets: 5,
            ..CoreStats::default()
        };
        b.packet_filter.runs = 5;
        b.packet_filter.record_cycles(25);
        a.merge(&b);
        assert_eq!(a.rx_packets, 15);
        assert_eq!(a.packet_filter.runs, 15);
        assert_eq!(a.packet_filter.cycles, 75);
        assert_eq!(a.packet_filter.hist.count(), 2);
    }

    #[test]
    fn conn_accounting_checks() {
        let mut s = CoreStats {
            conns_created: 10,
            conns_discarded: 4,
            discard_conn_filter: 2,
            discard_session_filter: 1,
            conns_completed_early: 1,
            conns_terminated: 3,
            conns_expired: 2,
            conns_drained: 1,
            ..CoreStats::default()
        };
        assert_eq!(s.check_conn_accounting(), Ok(()));

        s.conns_created = 11; // one connection unaccounted for
        assert!(s.check_conn_accounting().is_err());
        s.conns_created = 10;
        s.discard_conn_filter = 3; // causes exceed discards
        assert!(s.check_conn_accounting().is_err());
        s.discard_conn_filter = 2;
        // A swap-time eviction joins the outcome identity.
        s.conns_created = 11;
        s.conns_swapped = 1;
        assert_eq!(s.check_conn_accounting(), Ok(()));
    }
}
