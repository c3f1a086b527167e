//! Property tests for the multicore dispatch layer, run entirely under
//! the virtual-time stepped executor so every case is schedule-exact
//! and replayable from its seeds.
//!
//! Two properties from the dispatch tentpole:
//!
//! 1. **Equivalence** — for random subscription mixes (filters ×
//!    inline/shared/dedicated modes × boundary-biased ring depths) over
//!    boundary-biased traffic, every lossless dispatched run delivers
//!    byte-identical per-subscription results to the all-inline run,
//!    under arbitrary seeded RX/worker interleavings.
//! 2. **Accounting** — under full-queue backpressure (a stalled worker
//!    over depth-1..4 rings, blocking or shedding), the per-sub ledger
//!    `delivered = executed + dropped_full + dropped_disconnected`
//!    stays exact, the digest (which excludes schedule-dependent drops)
//!    matches inline, and the lossless sibling is untouched.
//! 3. **Timing faults move when, never what** — any plan of callback
//!    stalls, worker slowdowns and swap stalls, read off the runtime's
//!    NIC as a threaded run reads it, delivers exactly the fault-free
//!    run's results when every queue blocks.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use retina_chaos::{Fault, FaultPlan};
use retina_core::subscribables::ConnRecord;
use retina_core::{DispatchMode, RunReport, RuntimeBuilder, RuntimeConfig, StepConfig, STEP_NS};
use retina_support::bytes::Bytes;
use retina_support::proptest::prelude::*;
use retina_trafficgen::flows::{tls_flow, TlsFlowSpec};
use retina_trafficgen::rng::Sampler;

/// Filters used by the random mixes. The workload is all TLS-over-443,
/// so the first three all match it at different tiers and `udp`
/// matches nothing (exercising the empty-delivery path in a union).
const FILTERS: [&str; 4] = ["tls", "ipv4 and tcp", "tcp.port = 443", "udp"];

/// A boundary-biased workload: `conns` TLS conversations whose payload
/// sizes sit on segment boundaries (0, 1, MSS-1, MSS, MSS+1 bytes),
/// with out-of-order and abandoned flows mixed in. Connection counts
/// are chosen by the strategies to straddle ring-depth boundaries.
fn workload(seed: u64, conns: usize) -> Vec<(Bytes, u64)> {
    let mut sampler = Sampler::new(seed);
    let server: SocketAddr = "192.168.7.1:443".parse().unwrap();
    let mut all = Vec::new();
    for c in 0..conns {
        let client: SocketAddr = format!("10.1.{}.{}:{}", c / 250, (c % 250) + 1, 10_000 + c)
            .parse()
            .unwrap();
        let spec = TlsFlowSpec {
            client,
            server,
            sni: format!("host{c}.example.com"),
            start_ts: c as u64 * 1_000_000,
            bytes_up: [0, 1, 1459, 1461][c % 4],
            bytes_down: [0, 1, 1460, 4096][c % 4],
            client_random: [u8::try_from(c % 256).unwrap(); 32],
            cipher: 0x1301,
            ooo: c % 3 == 0,
            graceful: c % 5 != 0,
        };
        all.extend(tls_flow(&spec, &mut sampler));
    }
    all.sort_by_key(|&(_, ts)| ts);
    all
}

/// Runs a subscription mix under the stepped executor and returns the
/// per-subscription sorted record multisets plus the finished report.
fn run_mix(
    packets: &[(Bytes, u64)],
    mix: &[(usize, DispatchMode)],
    cfg: &StepConfig,
) -> (Vec<Vec<String>>, RunReport) {
    run_planned(packets, mix, cfg, &FaultPlan::new(0))
}

/// [`run_mix`] with `plan`'s faults installed on the runtime's NIC.
fn run_planned(
    packets: &[(Bytes, u64)],
    mix: &[(usize, DispatchMode)],
    cfg: &StepConfig,
    plan: &FaultPlan,
) -> (Vec<Vec<String>>, RunReport) {
    let outs: Vec<Arc<Mutex<Vec<String>>>> = mix.iter().map(|_| Arc::default()).collect();
    let mut b = RuntimeBuilder::new(RuntimeConfig::default());
    for (i, (filter, mode)) in mix.iter().enumerate() {
        let o = Arc::clone(&outs[i]);
        b = b.subscribe_dispatched::<ConnRecord>(
            format!("s{i}"),
            FILTERS[*filter],
            *mode,
            move |c| {
                o.lock().unwrap().push(format!("{c:?}"));
            },
        );
    }
    let mut rt = b.build().expect("mix builds");
    retina_chaos::install(rt.nic(), plan);
    let report = rt.run_stepped(packets, cfg);
    report.check_accounting().expect("accounting exact");
    let sets = outs
        .iter()
        .map(|o| {
            let mut v = o.lock().unwrap().clone();
            v.sort();
            v
        })
        .collect();
    (sets, report)
}

/// Boundary-biased ring depths: the degenerate single-slot ring, the
/// smallest ring that can hold a burst, and a comfortable one.
fn depths() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2), Just(3), Just(8)]
}

/// Connection counts straddling the ring-depth boundaries above.
fn conn_counts() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(2),
        Just(3),
        Just(7),
        Just(8),
        Just(9),
        4usize..16,
    ]
}

/// One timing fault: a callback stall on one of the mix's first four
/// subscriptions, a slowdown of the one RX core, or a stall of its
/// epoch pickup (which a run with no swap never reaches), each of up to
/// 5 000 steps.
fn timing_fault() -> impl Strategy<Value = Fault> {
    (0u8..3, 0u16..4, 0u64..32, 1u64..8, 1u64..5_000).prop_map(|(kind, sub, start, n, steps)| {
        let delay = Duration::from_nanos(steps * STEP_NS);
        match kind {
            0 => Fault::CallbackStall {
                sub,
                start_item: start,
                items: n,
                delay,
            },
            1 => Fault::WorkerSlowdown {
                core: 0,
                start_poll: start,
                polls: n,
                delay,
            },
            _ => Fault::SwapStall {
                core: 0,
                pickups: n,
                delay,
            },
        }
    })
}

fn mode_from(kind: u8, depth: usize) -> DispatchMode {
    match kind % 3 {
        0 => DispatchMode::Inline,
        1 => DispatchMode::shared(depth),
        _ => DispatchMode::dedicated(depth),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Lossless dispatch is invisible to results: any mix of inline /
    /// shared / dedicated (blocking) subscriptions over boundary-biased
    /// traffic delivers exactly what the all-inline run delivers, per
    /// subscription, for any seeded schedule.
    #[test]
    fn random_mixes_match_inline(
        wl_seed in any::<u64>(),
        sched_seed in any::<u64>(),
        conns in conn_counts(),
        mix in collection::vec((0usize..4, 0u8..3, depths()), 1..5),
    ) {
        let packets = workload(wl_seed, conns);
        let inline_mix: Vec<_> = mix.iter().map(|&(f, ..)| (f, DispatchMode::Inline)).collect();
        let disp_mix: Vec<_> = mix
            .iter()
            .map(|&(f, kind, depth)| (f, mode_from(kind, depth)))
            .collect();
        let (base_sets, base_report) = run_mix(&packets, &inline_mix, &StepConfig::seeded(0));
        let (sets, report) = run_mix(&packets, &disp_mix, &StepConfig::seeded(sched_seed));
        prop_assert_eq!(
            report.deterministic_digest(),
            base_report.deterministic_digest()
        );
        for (i, (set, base)) in sets.iter().zip(&base_sets).enumerate() {
            prop_assert_eq!(set, base, "sub {} diverged under {:?}", i, disp_mix[i].1);
        }
        // Lossless modes must never shed.
        for sub in &report.subs {
            prop_assert_eq!(sub.cb_dropped_full, 0, "{}", sub.name);
            prop_assert_eq!(sub.cb_executed, sub.delivered, "{}", sub.name);
        }
    }

    /// Backpressure keeps the ledger exact: a worker stalled over a
    /// tiny ring either parks the RX step (blocking: nothing lost) or
    /// sheds with every drop counted, while the lossless sibling
    /// subscription is byte-identical to its inline run either way.
    #[test]
    fn accounting_exact_under_backpressure(
        wl_seed in any::<u64>(),
        sched_seed in any::<u64>(),
        conns in conn_counts(),
        depth in 1usize..4,
        shed in any::<bool>(),
        from_item in 0u64..64,
        stall_steps in 1u64..2_000,
    ) {
        let packets = workload(wl_seed, conns);
        let heavy = if shed {
            DispatchMode::dedicated(depth).shedding()
        } else {
            DispatchMode::dedicated(depth)
        };
        let mix = [(1usize, heavy), (0usize, DispatchMode::shared(8))];
        let inline_mix = [(1usize, DispatchMode::Inline), (0usize, DispatchMode::Inline)];
        let (base_sets, base_report) = run_mix(&packets, &inline_mix, &StepConfig::seeded(0));
        let plan = FaultPlan::new(sched_seed).with(Fault::CallbackStall {
            sub: 0,
            start_item: from_item,
            items: 1,
            delay: Duration::from_nanos(stall_steps * STEP_NS),
        });
        let cfg = StepConfig::seeded(sched_seed);
        let (sets, report) = run_planned(&packets, &mix, &cfg, &plan);

        // The digest counts delivery outcomes, not schedule-dependent
        // drops, so it matches inline even when the ring sheds.
        prop_assert_eq!(
            report.deterministic_digest(),
            base_report.deterministic_digest()
        );
        let heavy_rep = &report.subs[0];
        prop_assert_eq!(
            heavy_rep.delivered,
            heavy_rep.cb_executed + heavy_rep.cb_dropped_full + heavy_rep.cb_dropped_disconnected,
        );
        if !shed {
            // Blocking policy: the stall parks RX, it never loses.
            prop_assert_eq!(heavy_rep.cb_dropped_full, 0);
            prop_assert_eq!(&sets[0], &base_sets[0], "blocking run lost records");
        }
        // The lossless sibling is untouched by its neighbor's stall.
        let light = &report.subs[1];
        prop_assert_eq!(light.cb_dropped_full, 0);
        prop_assert_eq!(light.cb_executed, light.delivered);
        prop_assert_eq!(&sets[1], &base_sets[1], "sibling records diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Timing faults move *when* a result is delivered, never *what*:
    /// under `QueuePolicy::Block`, any plan of callback stalls, worker
    /// slowdowns and swap stalls, with any schedule seed, gives the
    /// fault-free run's digest and per-subscription delivery sets.
    #[test]
    fn timing_faults_move_when_never_what(
        wl_seed in any::<u64>(),
        sched_seed in any::<u64>(),
        conns in conn_counts(),
        mix in collection::vec((0usize..4, 0u8..3, depths()), 1..5),
        faults in collection::vec(timing_fault(), 1..4),
    ) {
        let packets = workload(wl_seed, conns);
        let mix: Vec<_> = mix
            .iter()
            .map(|&(f, kind, depth)| (f, mode_from(kind, depth)))
            .collect();
        let cfg = StepConfig::seeded(sched_seed);
        let (base_sets, base) = run_mix(&packets, &mix, &cfg);
        let plan = FaultPlan { seed: sched_seed, faults };
        let (sets, report) = run_planned(&packets, &mix, &cfg, &plan);
        prop_assert_eq!(report.deterministic_digest(), base.deterministic_digest());
        prop_assert_eq!(&sets, &base_sets, "a timing fault changed what was delivered");
        for sub in &report.subs {
            prop_assert_eq!(sub.cb_executed, sub.delivered, "{}", sub.name);
        }
    }
}

/// Same seeds, same run: the stepped executor's schedule is a pure
/// function of its configuration, so a failing property case above
/// replays bit-for-bit from the seeds proptest prints.
#[test]
fn stepped_runs_replay_from_seeds() {
    let packets = workload(7, 9);
    let mix = [
        (0usize, DispatchMode::dedicated(2)),
        (1usize, DispatchMode::shared(1)),
    ];
    let cfg = StepConfig::seeded(0xD15B);
    let (a_sets, a) = run_mix(&packets, &mix, &cfg);
    let (b_sets, b) = run_mix(&packets, &mix, &cfg);
    assert!(
        a_sets.iter().all(|s| !s.is_empty()),
        "both subscriptions must deliver"
    );
    assert_eq!(a.deterministic_digest(), b.deterministic_digest());
    assert_eq!(a_sets, b_sets);
}
