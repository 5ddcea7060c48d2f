//! The host-speed reference: a fixed kernel timed between measurement
//! windows, used to state time metrics at one reference host speed.
//!
//! On a shared 2-vCPU Xeon VM (no PMU, THP on madvise only) the memory
//! system's contention state changes every few seconds: the daemon's CPU
//! per event swings between about 0.95 and 1.65 µs on identical input
//! within minutes, and a pure-ALU loop does not see it, but a hash-map
//! kernel does (its time moves between ~5.5 and ~11 ms in step with the
//! daemon). Timing that kernel right after each window and scaling the
//! window's times by `NOMINAL_MS / kernel time` cut the spread of the
//! daemon's per-instance CPU cost from ~33% to ~7%. The kernel is part
//! of the benchmark, never of the program, so no change to the program
//! can move it.

use std::collections::HashMap;
use std::time::Instant;

/// The kernel's time on an uncontended vCPU of that 2-vCPU Xeon VM;
/// scaled times read as if every window ran at this speed.
pub const NOMINAL_MS: f64 = 6.0;

/// Times the reference kernel once: 200k read-modify-writes into a fresh
/// `std` hash map of 64k keys (SipHash, growth included), in ms.
#[must_use]
pub fn kernel_ms() -> f64 {
    let t = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(1 << 15);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..200_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x & 0xffff).or_insert(0) += i;
    }
    std::hint::black_box(&map);
    t.elapsed().as_secs_f64() * 1e3
}

/// The factor that restates a time measured just before this call at the
/// nominal host speed (`< 1` while the host runs slow).
#[must_use]
pub fn scale() -> f64 {
    NOMINAL_MS / kernel_ms()
}
