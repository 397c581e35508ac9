//! Machine context recorded with every run, so figures can be
//! normalized across machines: available host threads, the compiler
//! version, and the time of `bench_smoke`'s fixed calibration loop.
//! Also the process's peak resident set size.

use std::time::{Duration, Instant};

/// Fixed CPU-bound calibration workload: a splitmix64 mixing loop that
/// exercises no simulator code, so its runtime tracks the machine, not
/// the repository. Must stay byte-for-byte stable across PRs or
/// recorded calibration baselines lose meaning.
fn calibration_workload() -> u64 {
    let mut z: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc: u64 = 0;
    for _ in 0..2_000_000u32 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc ^= x ^ (x >> 31);
    }
    acc
}

/// Times `f` as `bench_smoke` does: a 50 ms warm-up sizes a 400 ms
/// window, and the mean over that window is returned.
fn measure_ns_per_iter(mut f: impl FnMut()) -> f64 {
    let warmup = Duration::from_millis(50);
    let start = Instant::now();
    let mut warm_iters: u64 = 0;
    while start.elapsed() < warmup {
        f();
        warm_iters += 1;
    }
    let per_iter = start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;

    let target = Duration::from_millis(400);
    let iters = ((target.as_secs_f64() / per_iter.max(1e-9)) as u64).clamp(10, 1_000_000);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// One `machine: {...}` line: `nproc`, the compiler version, and the
/// calibration loop's time in ns per iteration (comparable with
/// `bench_smoke/calibration` in the BENCH_*.json files).
pub fn context_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let calibration_ns = measure_ns_per_iter(|| {
        std::hint::black_box(calibration_workload());
    });
    format!(
        "machine: {{\"nproc\": {nproc}, \"rustc\": \"{}\", \"calibration_ns_per_iter\": {calibration_ns:.1}}}",
        env!("PERFBENCH_RUSTC_VERSION")
    )
}

/// Layout of `struct rusage` on 64-bit Linux: two `timeval`s, then
/// fourteen `long`s, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a writable value with the layout getrusage(2)
    // fills on 64-bit Linux, and it outlives the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    usage.maxrss_kib as f64 / 1024.0
}
