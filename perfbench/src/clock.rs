//! Host clocks and memory readings.
//!
//! Host time is the measuring thread's on-CPU time: the scheduler's
//! `sum_exec_runtime`, the first field of `/proc/thread-self/schedstat`.
//! Reading that file for a thread that is running only shows the value
//! as of the last scheduler tick (it advances in ~4 ms steps at
//! `HZ=250`), which is coarser than a 1 ms set-up. `clock_gettime` with
//! `CLOCK_THREAD_CPUTIME_ID` returns the same counter with the current
//! slice folded in, so the harness reads it that way; the
//! `schedstat_agrees_with_thread_clock` test pins the equivalence.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Nanoseconds the calling thread has spent on a CPU.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_THREAD_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A reading of both clocks at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    cpu: u64,
    wall: Instant,
}

impl Stamp {
    /// Reads both clocks now.
    pub fn now() -> Stamp {
        Stamp {
            cpu: cpu_ns(),
            wall: Instant::now(),
        }
    }

    /// On-CPU nanoseconds since this stamp.
    pub fn cpu_elapsed(&self) -> u64 {
        cpu_ns() - self.cpu
    }

    /// Wall-clock nanoseconds since this stamp.
    pub fn wall_elapsed(&self) -> u64 {
        self.wall.elapsed().as_nanos() as u64
    }
}

/// The calling thread's `sum_exec_runtime` as `/proc/thread-self/schedstat`
/// reports it.
#[cfg(test)]
fn schedstat_ns() -> Option<u64> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_MMAP_THRESHOLD`.
const M_MMAP_THRESHOLD: i32 = -3;

/// Serves every allocation of 1 MiB or more, such as a kernel's 8 MiB data
/// image, from fresh zero pages that go back to the system when freed.
///
/// By default glibc raises its mmap threshold once such a block is freed
/// and serves the next one from the heap, zeroing it with `memset` or not
/// depending on the heap's history: identical runs then peaked at 11 or
/// 19 MB resident, and `memset` was most of a lock-server set-up. Pinning
/// the threshold, like pinning `RAS_THREADS`, keeps that heuristic out of
/// the measurement. The simulator's own binaries keep glibc's default, so
/// set-up and peak memory are measured under this setting, without the
/// reused-heap `memset` those binaries may pay. Call before the first
/// large allocation.
pub fn pin_mmap_threshold() {
    // SAFETY: `mallopt` only sets an allocator parameter; it is called
    // while the process has a single thread and no allocation in flight.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 1 << 20) };
    assert_eq!(ok, 1, "glibc accepts a 1 MiB mmap threshold");
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_agrees_with_thread_clock() {
        let (Some(s0), c0) = (schedstat_ns(), cpu_ns()) else {
            return; // schedstat disabled on this kernel
        };
        let mut x = 0u64;
        while cpu_ns() - c0 < 60_000_000 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let (s1, c1) = (schedstat_ns().expect("readable once"), cpu_ns());
        // schedstat lags by at most one scheduler tick at each end.
        let (ds, dc) = ((s1 - s0) as i64, (c1 - c0) as i64);
        assert!(
            (ds - dc).abs() < 25_000_000,
            "schedstat {ds} ns vs clock {dc} ns"
        );
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().expect("VmHWM present") > 0.0);
    }
}
