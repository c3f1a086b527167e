//! One heap allocation per single-SYN connection, held by `cargo test`.
//!
//! Appendix C's dominant connection — a bare SYN that is never answered
//! — costs the tracker an arena slot, a slab slot, an index entry and a
//! wheel token, all of which live in storage that is reused once it has
//! grown; the only thing allocated *for it* is the boxed `ConnRecord` on
//! its way to the callback. This test pins that: a binary of its own
//! with a counting `#[global_allocator]`, one `run_stepped` over a
//! warm-up half (which grows every store to its steady-state size) and a
//! measured half of the same shape. An extra allocation per connection
//! anywhere on the path roughly doubles the figure and fails here, not
//! in review.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use retina_core::subscribables::ConnRecord;
use retina_core::{RuntimeBuilder, RuntimeConfig, StepConfig};
use retina_support::bytes::Bytes;
use retina_wire::build::{build_tcp, TcpSpec};
use retina_wire::TcpFlags;

/// The system allocator, counting `alloc` and `realloc` calls.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// atomic that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout` and that `new_size` is valid for its alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Connections per half.
const N: u32 = 20_000;
const SEC: u64 = 1_000_000_000;

/// `N` bare SYNs from distinct sources, spread over one second from
/// `start_ns`.
fn syns(first_source: u32, start_ns: u64) -> impl Iterator<Item = (Bytes, u64)> {
    (0..N).map(move |i| {
        let frame = build_tcp(&TcpSpec {
            src: std::net::SocketAddr::new(
                std::net::Ipv4Addr::from(0x0a00_0000 + first_source + i).into(),
                40_000,
            ),
            dst: "198.51.100.1:443".parse().unwrap(),
            seq: 1,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65535,
            ttl: 64,
            payload: &[],
        });
        (
            Bytes::from(frame),
            start_ns + u64::from(i) * (SEC / u64::from(N)),
        )
    })
}

#[test]
fn a_bare_syn_allocates_only_its_output_datum() {
    // Warm-up connections arrive in second 0 and expire (5 s establish
    // timeout) when the measured half's first packets, at 10 s, move
    // the clock; the measured ones are flushed by the end-of-run drain.
    let packets: Vec<_> = syns(0, 0).chain(syns(N, 10 * SEC)).collect();

    // The record of the last warm-up connection marks the start of the
    // measured half: by then the arena, the slab, the index, the wheel
    // and the output buffer have all held N connections.
    static DELIVERED: AtomicU64 = AtomicU64::new(0);
    static ALLOCS_AT_MARK: AtomicU64 = AtomicU64::new(0);
    let runtime = RuntimeBuilder::new(RuntimeConfig::with_cores(1))
        .subscribe_named("conns", "tcp", |record: ConnRecord| {
            assert!(record.single_syn);
            if DELIVERED.fetch_add(1, Ordering::Relaxed) + 1 == u64::from(N) {
                ALLOCS_AT_MARK.store(ALLOCS.load(Ordering::Relaxed), Ordering::Relaxed);
            }
        })
        .build()
        .expect("runtime builds");
    let report = runtime.run_stepped(&packets, &StepConfig::seeded(7));
    let measured = ALLOCS.load(Ordering::Relaxed) - ALLOCS_AT_MARK.load(Ordering::Relaxed);

    report.check_accounting().unwrap();
    assert_eq!(report.cores.conns_created, u64::from(2 * N));
    assert_eq!(DELIVERED.load(Ordering::Relaxed), u64::from(2 * N));
    assert!(
        report.cores.conns_peak < u64::from(N) + u64::from(N) / 4,
        "the halves must not overlap much: peak {}",
        report.cores.conns_peak
    );
    // One boxed record each; the slack covers the timer-wheel slots the
    // measured half is the first to fill and the end-of-run report.
    #[allow(clippy::cast_precision_loss)] // counts far below 2^52
    let per_conn = measured as f64 / f64::from(N);
    assert!(
        per_conn <= 1.05,
        "{measured} allocations for {N} single-SYN connections: {per_conn:.3} each"
    );
    assert!(per_conn >= 1.0, "each record is boxed once: {per_conn:.3}");
}
