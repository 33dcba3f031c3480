//! Host-side measurement helpers: process CPU time and peak memory from
//! `/proc`, the host stamp, order statistics and the output digest.

use std::fmt::Debug;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    // From the C library `std` already links; the package has no `libc`
    // crate to name it through.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU seconds this process (all threads, dead ones
/// included) has consumed so far, at the scheduler's nanosecond
/// resolution: `/proc/self/stat` counts in 10 ms ticks, a tenth of a
/// service tick.
pub fn process_cpu_s() -> f64 {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable `timespec`; the call writes
    // nothing else.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "CLOCK_PROCESS_CPUTIME_ID is unavailable");
    now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` without spawning a process;
/// `"unknown"` outside a git checkout (the driver's checkouts are not
/// repositories) or when the ref is packed.
pub fn git_commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let head = std::fs::read_to_string(format!("{git}/HEAD")).unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!("{git}/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit
    }
}

/// The compiler that built this binary (stamped by `build.rs`).
pub fn rustc_version() -> &'static str {
    env!("BENCH_RUSTC_VERSION")
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `samples` (0 for an
/// empty slice).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// FNV-1a over the `Debug` rendering of a simulated result: two commits
/// (or two worker counts) produced the same simulated output exactly when
/// their digests match.
pub fn sim_digest(value: &impl Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&values), 2.5);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.0);
        let before = process_cpu_s();
        std::hint::black_box((0..2_000_000u64).fold(0, |acc: u64, i| acc.wrapping_mul(31) ^ i));
        assert!(process_cpu_s() > before, "the CPU clock did not advance");
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
