//! Offline (single-core, pull-based) processing mode.
//!
//! Appendix B evaluates filter compilation "in offline mode, which
//! ingests a pcap instead of packets from the network interface". This
//! module is that mode: a driver of [`CorePipeline`] — the pipeline a
//! worker core runs — fed synchronously from an in-memory packet
//! iterator, with no NIC, RSS queues, or threads. The whole iterator is
//! one [`CorePipeline::on_burst`], which stages it and sweeps idle
//! connections on the same frame count as every other driver. It is
//! also the easiest way to unit-test end-to-end behavior.

use std::marker::PhantomData;
use std::sync::Arc;

use retina_filter::FilterFns;
use retina_nic::Mbuf;
use retina_support::bytes::Bytes;

use crate::config::RuntimeConfig;
use crate::erased::{take_output, ErasedSubscription, TrackedSlab, TypedSubscription};
use crate::pipeline::{CorePipeline, Transport};
use crate::stats::CoreStats;
use crate::subscription::Subscribable;

/// The offline transport: subscription data goes straight to one typed
/// closure on the calling thread.
pub struct Direct<S, C> {
    callback: C,
    _marker: PhantomData<fn(S)>,
}

impl<S: Subscribable, C: FnMut(S)> Direct<S, C> {
    /// Delivers everything to `callback`.
    pub fn new(callback: C) -> Self {
        Direct {
            callback,
            _marker: PhantomData,
        }
    }
}

impl<S: Subscribable, C: FnMut(S)> Transport for Direct<S, C> {
    fn deliver(&mut self, _sub: usize, slab: &mut dyn TrackedSlab) {
        (self.callback)(take_output::<S>(slab).1);
    }

    fn deliver_from_mbuf(&mut self, _sub: usize, mbuf: &Mbuf, _trace_id: u64) -> bool {
        match S::from_mbuf(mbuf) {
            Some(data) => {
                (self.callback)(data);
                true
            }
            None => false,
        }
    }
}

/// Processes timestamped frames through the full pipeline on the calling
/// thread. Returns the pipeline statistics.
pub fn run_offline<S, F>(
    filter: &Arc<F>,
    config: &RuntimeConfig,
    packets: impl IntoIterator<Item = (Bytes, u64)>,
    callback: impl FnMut(S),
) -> CoreStats
where
    S: Subscribable,
    F: FilterFns + 'static,
{
    let sub: Arc<dyn ErasedSubscription> = Arc::new(TypedSubscription::<S>::spec_only("sub0"));
    let mut pipeline = CorePipeline::new(Arc::clone(filter), &[sub], config, None);
    let mut transport = Direct::new(callback);
    pipeline.on_burst(packets, [], &mut transport);
    pipeline.drain(&mut transport);
    pipeline.finish().0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscribables::ConnRecord;
    use retina_conntrack::TimeoutConfig;
    use retina_filter::CompiledFilter;
    use retina_wire::build::{build_tcp, TcpSpec};
    use retina_wire::TcpFlags;

    /// Connections ingested without a NIC must spread over the table's
    /// buckets as they do behind one. With the RSS hash left unstamped
    /// every connection shares hash 0 — one bucket, scanned linearly on
    /// every packet — and the run goes quadratic in the number of open
    /// flows. Checked for the offline shape and for `fig8`'s (empty
    /// filter, each of its three timeout schemes).
    #[test]
    fn offline_connections_do_not_share_one_bucket() {
        const FLOWS: usize = 4000;
        let syns = || {
            (0..FLOWS).map(|i| {
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
            })
        };
        for (src, timeouts) in [
            ("tcp", TimeoutConfig::default()),
            ("", TimeoutConfig::retina_default()),
            ("", TimeoutConfig::inactivity_only()),
            ("", TimeoutConfig::none()),
        ] {
            let filter = Arc::new(CompiledFilter::build(src, &Default::default()).unwrap());
            let config = RuntimeConfig {
                timeouts,
                ..RuntimeConfig::default()
            };
            let sub: Arc<dyn ErasedSubscription> =
                Arc::new(TypedSubscription::<ConnRecord>::spec_only("sub0"));
            let mut pipeline = CorePipeline::new(filter, &[sub], &config, None);
            pipeline.on_burst(syns(), [], &mut Direct::new(|_: ConnRecord| {}));
            assert_eq!(pipeline.tracker().connections(), FLOWS);
            // The symmetric key folds a tuple to 16 bits of hash entropy,
            // so a few of 4000 flows do collide; thousands must not.
            let longest = pipeline.tracker().longest_chain();
            assert!(longest <= 8, "{src:?}: longest bucket chain is {longest}");
        }
    }
}
