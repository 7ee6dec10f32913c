//! Taking the host's changing core clock out of the timings.
//!
//! The sandbox's cores run at one of two speeds, about 25 % apart, and switch
//! every 10–30 s with what the host's other tenants do (a chain of dependent
//! ALU operations, which touches no memory, shows it exactly).  Back-to-back
//! runs of one commit therefore read up to 20 % apart on wall-clock time
//! alone, which no regression bound survives.
//!
//! So each timed window of a workload that never waits is followed by a short
//! probe of the clock, and the window's time is divided by how much slower
//! than the reference clock the probe ran.  The closed loops in memory and over
//! loopback (`mem_uniform`, `mem_scan`, `tcp_serial`, `omap_ycsb_a`) are
//! CPU-bound from end to end and follow the clock; `file_wal` (disk) and
//! `tcp_open` (timers, idle gaps) mostly wait, do not follow it, and are left
//! as the wall clock had them — rescaling them was tried and tripled their
//! spread.  On a host whose clock holds still the factor is constant and
//! nothing changes but the scale.

use std::hint::black_box;
use std::time::Instant;

/// Steps of the probe: about 1.5 ms, long against the timer's resolution and
/// short against a window.
const PROBE_STEPS: u64 = 1_000_000;

/// The probe's time per step with the sandbox's core at its fast clock.  A
/// constant, so that the same run reads the same whichever clock it met; on
/// other hardware it only scales every timing by one factor.
const REFERENCE_NS_PER_STEP: f64 = 1.46;

/// How much slower than the reference clock the core runs right now.
pub fn clock_factor() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut sum = 0u64;
    // Each step depends on the one before: its time is a fixed number of
    // core cycles, whatever the memory system is doing.
    for _ in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum = sum.wrapping_add(x);
    }
    black_box(sum);
    start.elapsed().as_nanos() as f64 / PROBE_STEPS as f64 / REFERENCE_NS_PER_STEP
}

/// What a wall-clock time just measured is multiplied by to read at the
/// reference clock: probes the clock if the work followed it, else 1.
pub fn reference_scale(follows_clock: bool) -> f64 {
    if follows_clock {
        1.0 / clock_factor()
    } else {
        1.0
    }
}

/// Seconds since `start`, read at the reference clock.
pub fn seconds_at_reference(start: Instant, follows_clock: bool) -> f64 {
    let wall = start.elapsed().as_secs_f64();
    wall * reference_scale(follows_clock)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_reads_a_plausible_clock() {
        let factor = clock_factor();
        assert!(factor > 0.2 && factor < 20.0, "{factor}");
    }

    #[test]
    fn only_work_that_follows_the_clock_is_rescaled() {
        assert_eq!(reference_scale(false), 1.0);
        let scale = reference_scale(true);
        assert!(scale > 0.05 && scale < 5.0, "{scale}");
        let start = Instant::now() - std::time::Duration::from_millis(50);
        assert!(seconds_at_reference(start, false) >= 0.05);
        assert!(seconds_at_reference(start, true) > 0.0);
    }
}
