//! Order statistics and the process gauges the end-to-end metrics read
//! (`/proc/self/*`; the benchmark is Linux-only, like the TCP leak it
//! guards against).

use std::time::Duration;

/// The `q`-quantile of an ascending-sorted sample by the nearest-rank
/// rule: the smallest element with at least `q·n` elements at or below
/// it. `q = 0.95` over 1 480 samples is element 1 405 (0-based), which
/// leaves 74 samples beyond it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted float sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Sorts a latency sample in place and returns it, for chained
/// percentile reads.
pub fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

// `process_cpu` declares `clock_gettime` by hand (no `libc` crate
// offline); its `timespec` is two 64-bit fields only on 64-bit Linux.
const _: () = assert!(
    cfg!(all(target_os = "linux", target_pointer_width = "64")),
    "the benchmark reads /proc and calls clock_gettime: 64-bit Linux only"
);

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` in `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of the whole process (all threads, including
/// ones that have exited) so far, at the kernel's nanosecond
/// resolution. `/proc/self/stat` has the same figure in 10 ms ticks,
/// which is a per cent of a batch.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the
    // assertion above pins down, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Resident memory of the process, in kB as `/proc/self/status` has it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Memory {
    /// `VmRSS`: resident now.
    pub rss_kb: u64,
    /// `VmHWM`: the most that was ever resident.
    pub hwm_kb: u64,
}

/// Reads `VmRSS` and `VmHWM`.
pub fn memory() -> Memory {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or(0)
    };
    Memory {
        rss_kb: field("VmRSS:"),
        hwm_kb: field("VmHWM:"),
    }
}

/// Number of memory mappings of the process — the gauge for the
/// `TcpShardServer` connection-handle leak (one thread stack plus guard
/// pages per retained `JoinHandle`).
pub fn mappings() -> u64 {
    std::fs::read_to_string("/proc/self/maps").map_or(0, |m| m.lines().count() as u64)
}

/// `vm.max_map_count`, or the kernel default when unreadable.
pub fn max_map_count() -> u64 {
    std::fs::read_to_string("/proc/sys/vm/max_map_count")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(65_530)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_selects_nearest_rank_at_n_1480() {
        let sample: Vec<u64> = (1..=1480).collect();
        assert_eq!(percentile(&sample, 0.50), 740);
        assert_eq!(percentile(&sample, 0.95), 1406);
        assert_eq!(sample.len() as u64 - percentile(&sample, 0.95), 74);
        assert_eq!(percentile(&sample, 0.99), 1466);
        assert_eq!(percentile(&sample, 1.0), 1480);
        assert_eq!(percentile(&sample, 0.0), 1);
        assert_eq!(percentile(&[7], 0.95), 7);
    }

    #[test]
    fn median_handles_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn process_gauges_read_something() {
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu() > Duration::ZERO);
        let mem = memory();
        assert!(mem.rss_kb > 0 && mem.hwm_kb >= mem.rss_kb);
        assert!(mappings() > 0);
        assert!(max_map_count() > 0);
    }
}
