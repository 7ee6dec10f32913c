//! Order statistics, the windowed rate, and the process's peak memory.

use std::time::Instant;

use crate::clock::reference_scale;

/// A rate is the median over this many equal-count windows: enough of them
/// that a stall of a few hundred milliseconds (the sandbox has them) spoils
/// a minority, which the median ignores.
pub const WINDOWS: usize = 20;

/// The `q`-quantile (nearest rank) of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<u64>() as f64 / values.len() as f64
}

/// Latencies and the windowed rate of one timed phase.
pub struct Phase {
    /// Per-operation latency at the reference clock, ns, in issue order.
    pub lat_ns: Vec<u64>,
    /// Operations in each window, in order; they partition `lat_ns`.
    window_ops: Vec<usize>,
    /// Median over the windows of operations per second at the reference
    /// clock (see [`crate::clock`]).
    pub rate: f64,
    /// The same as the wall clock had it, for the budget of a traced run
    /// (spans are wall-clock) and for the reader.
    pub wall_rate: f64,
    pub started: Instant,
}

impl Phase {
    /// From what each window measured: its operations' latencies, its wall
    /// time, and what to multiply both by to read them at the reference clock.
    pub fn from_windows(started: Instant, windows: Vec<(Vec<u64>, f64, f64)>) -> Phase {
        let mut lat_ns = Vec::with_capacity(windows.iter().map(|w| w.0.len()).sum());
        let mut rates = Vec::with_capacity(windows.len());
        let mut wall_rates = Vec::with_capacity(windows.len());
        let mut window_ops = Vec::with_capacity(windows.len());
        for (window_lat, wall_s, scale) in windows {
            window_ops.push(window_lat.len());
            wall_rates.push(window_lat.len() as f64 / wall_s);
            rates.push(window_lat.len() as f64 / (wall_s * scale));
            lat_ns.extend(window_lat.iter().map(|&ns| (ns as f64 * scale) as u64));
        }
        Phase {
            lat_ns,
            window_ops,
            rate: median(&rates),
            wall_rate: median(&wall_rates),
            started,
        }
    }

    /// The `q`-quantile of latency, ns: the median over the windows of each
    /// window's own quantile.  A stall of a few hundred milliseconds lands
    /// whole in the top few percent of the pooled latencies and moves their
    /// upper quantiles; it moves one or two windows' quantiles just as much,
    /// and the median over windows ignores those.
    pub fn lat_quantile_ns(&self, q: f64) -> f64 {
        let mut rest = self.lat_ns.as_slice();
        let per_window: Vec<f64> = self
            .window_ops
            .iter()
            .map(|&ops| {
                let (window, tail) = rest.split_at(ops);
                rest = tail;
                let mut sorted = window.to_vec();
                sorted.sort_unstable();
                percentile(&sorted, q)
            })
            .collect();
        median(&per_window)
    }

    /// Every latency of the phase, ascending.
    pub fn sorted_lat(&self) -> Vec<u64> {
        let mut sorted = self.lat_ns.clone();
        sorted.sort_unstable();
        sorted
    }

    /// Wall time per operation at the windowed wall-clock rate, ns.
    pub fn wall_ns_per_op(&self) -> f64 {
        1e9 / self.wall_rate
    }
}

/// Runs operations `first..first + count` one after another (a closed loop),
/// in [`WINDOWS`] equal windows.  `op(i)` performs and checks operation `i`
/// and returns the latency it measured around the call into the system.
/// With `follows_clock`, each window is read at the reference clock.
pub fn closed_loop(
    first: u64,
    count: u64,
    follows_clock: bool,
    mut op: impl FnMut(u64) -> u64,
) -> Phase {
    let per_window = (count / WINDOWS as u64).max(1);
    let mut windows = Vec::with_capacity(WINDOWS);
    let started = Instant::now();
    let mut i = first;
    while i < first + count {
        let window_ops = per_window.min(first + count - i);
        let mut lat_ns = Vec::with_capacity(window_ops as usize);
        let window_start = Instant::now();
        for _ in 0..window_ops {
            lat_ns.push(op(i));
            i += 1;
        }
        let wall_s = window_start.elapsed().as_secs_f64();
        windows.push((lat_ns, wall_s, reference_scale(follows_clock)));
    }
    Phase::from_windows(started, windows)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn closed_loop_runs_every_index_once_in_equal_windows() {
        let mut seen = Vec::new();
        let phase = closed_loop(10, 45, true, |i| {
            seen.push(i);
            i
        });
        assert_eq!(seen, (10..55).collect::<Vec<_>>());
        assert_eq!(phase.lat_ns.len(), 45);
        assert!(phase.rate > 0.0 && phase.wall_rate > 0.0);
    }

    #[test]
    fn windows_are_rescaled_each_by_its_own_scale() {
        // The second window met a clock 1.25 times slower.
        let windows = vec![
            (vec![1_000; 10], 1.0, 1.0),
            (vec![1_250; 10], 1.25, 0.8),
            (vec![1_000; 10], 1.0, 1.0),
        ];
        let phase = Phase::from_windows(Instant::now(), windows);
        assert!(phase.lat_ns.iter().all(|&ns| ns == 1_000));
        assert!((phase.rate - 10.0).abs() < 1e-9);
        assert!((phase.wall_rate - 10.0).abs() < 1e-9);
        assert!((phase.wall_ns_per_op() - 1e8).abs() < 1e-3);
    }

    #[test]
    fn a_quantile_is_the_median_of_the_windows_own_and_shrugs_off_one_bad_window() {
        let steady: Vec<u64> = (1..=100).collect();
        let stalled: Vec<u64> = (1..=100).map(|ns| ns * 50).collect();
        let windows = vec![
            (steady.clone(), 1.0, 1.0),
            (stalled, 1.0, 1.0),
            (steady.clone(), 1.0, 1.0),
        ];
        let phase = Phase::from_windows(Instant::now(), windows);
        assert_eq!(phase.lat_quantile_ns(0.95), 95.0);
        assert_eq!(phase.lat_quantile_ns(0.50), 50.0);
        // Pooled, the stalled window owns the tail.
        assert!(percentile(&phase.sorted_lat(), 0.95) > 2_000.0);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mib() > 0.0);
    }
}
