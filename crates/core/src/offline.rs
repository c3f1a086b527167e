//! Offline (single-core, pull-based) processing mode.
//!
//! Appendix B evaluates filter compilation "in offline mode, which
//! ingests a pcap instead of packets from the network interface". This
//! module is that mode: the same pipeline as a worker core, driven
//! synchronously from an in-memory packet iterator, with no NIC, RSS, or
//! threads. It is also the easiest way to unit-test end-to-end behavior.

use std::sync::Arc;

use retina_filter::FilterFns;
use retina_nic::{Mbuf, RssHasher};
use retina_support::bytes::Bytes;
use retina_wire::ParsedPacket;

use crate::config::RuntimeConfig;
use crate::stats::CoreStats;
use crate::subscription::{Level, Subscribable};
use crate::tracker::ConnTracker;

/// Processes timestamped frames through the full pipeline on the calling
/// thread. Returns the pipeline statistics.
pub fn run_offline<S, F>(
    filter: &Arc<F>,
    config: &RuntimeConfig,
    packets: impl IntoIterator<Item = (Bytes, u64)>,
    mut callback: impl FnMut(S),
) -> CoreStats
where
    S: Subscribable,
    F: FilterFns + 'static,
{
    let mut tracker = ingest(filter, config, packets, &mut callback);
    tracker.drain();
    deliver::<S, F>(&mut tracker, &mut callback);
    tracker.stats
}

/// Everything [`run_offline`] does short of the final drain: the tracker
/// it returns still holds the connections open at end of input.
fn ingest<S, F>(
    filter: &Arc<F>,
    config: &RuntimeConfig,
    packets: impl IntoIterator<Item = (Bytes, u64)>,
    callback: &mut impl FnMut(S),
) -> ConnTracker<F>
where
    S: Subscribable,
    F: FilterFns + 'static,
{
    let mut tracker: ConnTracker<F> = ConnTracker::single_with_registry::<S>(
        Arc::clone(filter),
        config.timeouts,
        config.ooo_capacity,
        config.profile_stages,
        config.parsers.clone(),
    );
    // No NIC sits in front of an offline run, so stamp the symmetric RSS
    // hash it would have: the connection table shards and buckets by it.
    let hasher = RssHasher::symmetric();
    let mut max_ts = 0u64;
    let mut count = 0usize;
    for (frame, ts) in packets {
        let mut mbuf = Mbuf::from_bytes(frame);
        mbuf.timestamp_ns = ts;
        max_ts = max_ts.max(ts);
        tracker.stats.rx_packets += 1;
        tracker.stats.rx_bytes += mbuf.len() as u64;
        let Ok(pkt) = ParsedPacket::parse(mbuf.data()) else {
            tracker.stats.parse_failures += 1;
            continue;
        };
        mbuf.rss_hash = hasher.hash_packet(&pkt);
        tracker.stats.packet_filter.runs += 1;
        let verdict = filter.packet_filter_set(&pkt);
        if verdict.is_no_match() {
            // Rejected at the packet layer: no further work.
        } else if verdict.matched.contains(0) && S::level() == Level::Packet {
            // Bypass: callback straight off the packet filter.
            if let Some(data) = S::from_mbuf(&mbuf) {
                tracker.stats.callbacks.runs += 1;
                tracker.sub_tallies[0].delivered += 1;
                callback(data);
            }
        } else {
            tracker.process(&mbuf, &pkt, verdict);
            deliver::<S, F>(&mut tracker, callback);
        }
        count += 1;
        if count.is_multiple_of(1024) {
            tracker.advance(max_ts);
            deliver::<S, F>(&mut tracker, callback);
        }
    }
    tracker
}

/// Drains tagged tracker outputs back to the concrete callback type.
fn deliver<S: Subscribable, F: FilterFns>(
    tracker: &mut ConnTracker<F>,
    callback: &mut impl FnMut(S),
) {
    for (_idx, _trace_id, out) in tracker.take_outputs() {
        tracker.stats.callbacks.runs += 1;
        let data = out
            .downcast::<S>()
            .expect("single-subscription tracker produced a foreign output type");
        callback(*data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscribables::ConnRecord;
    use retina_filter::CompiledFilter;
    use retina_wire::build::{build_tcp, TcpSpec};
    use retina_wire::TcpFlags;

    /// Offline connections must spread over the table's buckets as they
    /// do behind a NIC. With the RSS hash left unstamped every
    /// connection shares hash 0 — one bucket, scanned linearly on every
    /// packet — and the run goes quadratic in the number of open flows.
    #[test]
    fn offline_connections_do_not_share_one_bucket() {
        const FLOWS: usize = 4000;
        let syns = (0..FLOWS).map(|i| {
            let frame = build_tcp(&TcpSpec {
                src: format!("10.{}.{}.7:{}", i / 250, i % 250, 20_000 + i)
                    .parse()
                    .unwrap(),
                dst: "192.168.1.1:443".parse().unwrap(),
                seq: 1,
                ack: 0,
                flags: TcpFlags::SYN,
                window: 65535,
                ttl: 64,
                payload: b"",
            });
            (Bytes::from(frame), i as u64 * 1_000)
        });
        let filter = Arc::new(CompiledFilter::build("tcp", &Default::default()).unwrap());
        let tracker = ingest(
            &filter,
            &RuntimeConfig::default(),
            syns,
            &mut |_: ConnRecord| {},
        );
        assert_eq!(tracker.connections(), FLOWS);
        // The symmetric key folds a tuple to 16 bits of hash entropy, so
        // a few of 4000 flows do collide; thousands must not.
        let longest = tracker.longest_chain();
        assert!(longest <= 8, "longest bucket chain is {longest}");
    }
}
