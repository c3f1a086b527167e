//! Counting global allocator: the source of the three exact end-to-end
//! memory metrics (`allocs_per_kpkt`, `alloc_bytes_per_pkt`,
//! `heap_peak_mb`).
//!
//! Only the thread inside [`measure`] is counted, and only while it is
//! there, so the counts are exact whatever other threads do — which is
//! all that is needed: every timed repetition runs the program under
//! test on the calling thread (`run_stepped` / `run_offline` spawn none).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator with per-thread counters in front of it.
pub struct CountingAlloc;

struct Counters {
    /// Whether this thread is inside [`measure`].
    on: Cell<bool>,
    allocs: Cell<u64>,
    reallocs: Cell<u64>,
    deallocs: Cell<u64>,
    bytes: Cell<u64>,
    /// Bytes live relative to the start of the region; memory from before
    /// the region may be freed inside it, so this can go negative.
    live: Cell<i64>,
    peak: Cell<i64>,
}

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator neither allocates nor runs lazy initialisation.
    static COUNTERS: Counters = const {
        Counters {
            on: Cell::new(false),
            allocs: Cell::new(0),
            reallocs: Cell::new(0),
            deallocs: Cell::new(0),
            bytes: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
        }
    };
}

/// Runs `f` on this thread's counters if the thread is being measured.
/// (`try_with`: a thread that is being torn down is not.)
fn counted(f: impl FnOnce(&Counters)) {
    let _ = COUNTERS.try_with(|c| {
        if c.on.get() {
            f(c);
        }
    });
}

fn grow(c: &Counters, bytes: usize) {
    c.bytes.set(c.bytes.get() + bytes as u64);
    let live = c.live.get() + bytes as i64;
    c.live.set(live);
    c.peak.set(c.peak.get().max(live));
}

fn shrink(c: &Counters, bytes: usize) {
    c.live.set(c.live.get() - bytes as i64);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// thread-local cells that touch no allocator state and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size, which
        // is all `System.alloc` requires.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            counted(|c| {
                c.allocs.set(c.allocs.get() + 1);
                grow(c, layout.size());
            });
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            counted(|c| {
                c.allocs.set(c.allocs.get() + 1);
                grow(c, layout.size());
            });
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        counted(|c| {
            c.deallocs.set(c.deallocs.get() + 1);
            shrink(c, layout.size());
        });
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and that `new_size` is non-zero and does not overflow
        // when rounded up to `layout.align()`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            counted(|c| {
                c.reallocs.set(c.reallocs.get() + 1);
                // Only the growth is new memory asked of the allocator.
                if new_size >= layout.size() {
                    grow(c, new_size - layout.size());
                } else {
                    shrink(c, layout.size() - new_size);
                }
            });
        }
        p
    }
}

/// What one region of code asked of the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocDelta {
    /// Heap allocations: `alloc` + `realloc` calls.
    pub allocs: u64,
    /// Frees.
    pub deallocs: u64,
    /// Bytes requested (allocations plus realloc growth).
    pub bytes: u64,
    /// Bytes still live at the end, relative to the start.
    pub live_at_end: i64,
    /// Peak live heap above the level at the start of the region.
    pub peak_above_start: u64,
}

/// Runs `f` and reports what it asked of the allocator on this thread.
/// Regions do not nest.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocDelta) {
    COUNTERS.with(|c| {
        assert!(!c.on.get(), "alloc::measure regions do not nest");
        for cell in [&c.allocs, &c.reallocs, &c.deallocs, &c.bytes] {
            cell.set(0);
        }
        c.live.set(0);
        c.peak.set(0);
        c.on.set(true);
    });
    let out = f();
    let delta = COUNTERS.with(|c| {
        c.on.set(false);
        AllocDelta {
            allocs: c.allocs.get() + c.reallocs.get(),
            deallocs: c.deallocs.get(),
            bytes: c.bytes.get(),
            live_at_end: c.live.get(),
            peak_above_start: c.peak.get().max(0) as u64,
        }
    });
    (out, delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_thread_exactly_and_no_other() {
        let noisy = std::thread::spawn(|| {
            for _ in 0..2000 {
                std::hint::black_box(vec![0u8; 4096]);
            }
        });
        let (v, d) = measure(|| {
            let mut v: Vec<u8> = Vec::with_capacity(1 << 20);
            v.push(1);
            v.reserve_exact(3 << 20);
            drop(std::hint::black_box(vec![0u8; 512]));
            v
        });
        noisy.join().unwrap();
        let cap = v.capacity() as u64;
        assert_eq!(d.allocs, 3, "two allocs and one realloc: {d:?}");
        assert_eq!(d.deallocs, 1);
        assert_eq!(d.bytes, cap + 512);
        assert_eq!(d.live_at_end, cap as i64);
        assert_eq!(d.peak_above_start, cap + 512);

        // Freeing memory from before the region: live goes negative, the
        // peak stays at the region's own high point.
        let (_, d2) = measure(|| drop(v));
        assert_eq!((d2.allocs, d2.deallocs, d2.bytes), (0, 1, 0));
        assert_eq!(d2.live_at_end, -(cap as i64));
        assert_eq!(d2.peak_above_start, 0);
    }
}
