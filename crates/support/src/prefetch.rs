//! Software prefetch: the one cache hint the burst pipeline issues.
//!
//! A run-to-completion core that touches one packet at a time pays every
//! cache miss — frame bytes, index bucket, connection slot — alone. The
//! burst pipeline names the lines it is about to read a stage (or a
//! burst) ahead and lets the misses overlap. A prefetch is a *hint*: it
//! changes no architectural state and never faults, so it is safe on any
//! address, mapped or not — which is what lets the callers hint at slots
//! they have not verified.

/// Bytes per cache line the hints are spaced by.
pub const LINE: usize = 64;

/// Asks the CPU to pull the cache line holding `p` towards L1. Never
/// dereferences `p`; a no-op on targets without a prefetch instruction
/// wired up here.
#[inline(always)]
pub fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is a hint — it performs no architecturally
    // visible access and never faults, whatever the address — and SSE is
    // part of the x86_64 baseline, so the intrinsic is always available.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Prefetches `lines` consecutive cache lines, the first being the one
/// that holds `p`.
#[inline(always)]
pub fn prefetch_lines(p: *const u8, lines: usize) {
    for i in 0..lines {
        prefetch(p.wrapping_add(i * LINE));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_hint_on_any_address_is_harmless() {
        let v = [1u8; 256];
        prefetch_lines(v.as_ptr(), 4);
        prefetch(std::ptr::null::<u64>());
        prefetch(usize::MAX as *const u8);
        prefetch_lines(v.as_ptr().wrapping_add(1 << 40), 2);
        assert_eq!(v.iter().map(|b| u32::from(*b)).sum::<u32>(), 256);
    }
}
