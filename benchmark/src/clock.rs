//! The clock the timed repetitions are read on: time the measuring
//! thread spent *on a CPU*, not wall time.
//!
//! This host is a guest on a shared machine, and the hypervisor takes the
//! vCPU away for whole episodes (`steal` in `/proc/stat`: 134 s of it in
//! one 40-minute stretch while this was written, during which wall-clock
//! ns per packet read 60 % high for minutes). The guest kernel subtracts
//! stolen time from a thread's run time (`CONFIG_PARAVIRT_TIME_ACCOUNTING`),
//! so on-CPU time does not see it. The one-thread drivers never block, so
//! on an undisturbed host the two clocks agree to within half a percent
//! (both are printed).

use std::time::Instant;

/// Seconds the calling thread has spent on a CPU
/// (`CLOCK_THREAD_CPUTIME_ID`). `None` where that clock is not
/// available. (`/proc/thread-self/schedstat` carries the same counter
/// without a foreign call, but only as of the last scheduler tick, which
/// is coarser than a short repetition.)
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_secs() -> Option<f64> {
    /// `struct timespec` of the 64-bit Linux ABIs.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's (std links it); `ts` is a
    // live, writable `timespec` with the layout the 64-bit Linux ABI gives
    // it, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_secs() -> Option<f64> {
    None
}

/// Times a region on both clocks.
pub struct Stopwatch {
    wall: Instant,
    cpu: Option<f64>,
}

/// What a [`Stopwatch`] read.
#[derive(Debug, Clone, Copy)]
pub struct Elapsed {
    /// On-CPU seconds of the calling thread (wall seconds where there is
    /// no thread CPU clock).
    pub cpu_s: f64,
    /// Wall seconds.
    pub wall_s: f64,
}

impl Stopwatch {
    /// Starts timing on the calling thread.
    pub fn start() -> Self {
        let cpu = thread_cpu_secs();
        Stopwatch {
            wall: Instant::now(),
            cpu,
        }
    }

    /// Reads both clocks; must be called on the thread that started it.
    pub fn stop(&self) -> Elapsed {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_s = match (self.cpu, thread_cpu_secs()) {
            (Some(t0), Some(t1)) => t1 - t0,
            _ => wall_s,
        };
        Elapsed { cpu_s, wall_s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleeping_costs_wall_time_but_no_cpu_time() {
        let watch = Stopwatch::start();
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        let busy = watch.stop();
        assert!(
            busy.cpu_s > 0.0 && busy.cpu_s <= busy.wall_s * 1.05,
            "{busy:?}"
        );

        if thread_cpu_secs().is_some() {
            let watch = Stopwatch::start();
            std::thread::sleep(std::time::Duration::from_millis(50));
            let idle = watch.stop();
            assert!(idle.wall_s >= 0.05);
            assert!(
                idle.cpu_s < 0.02,
                "a sleeping thread is not on a CPU: {idle:?}"
            );
        }
    }
}
