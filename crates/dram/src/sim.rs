//! The cycle-level DRAM model and a closed-form bandwidth model.

use crate::address::AddressMapping;
use crate::bank::BankState;
use crate::config::DramConfig;
use crate::stats::DramStats;

/// Cycle-level multi-channel DRAM model.
///
/// Each request is broken into 64-byte bursts.  Bursts are routed to their
/// (channel, bank) by the [`AddressMapping`]; each bank tracks its open row
/// and each channel its data-bus occupancy.  The completion time of a request
/// is when its last burst finishes on the bus.
///
/// The model is intentionally simpler than DRAMSim2 (no refresh, no
/// write-to-read turnaround, FR-FCFS approximated by in-order issue per
/// request) but reproduces the first-order behaviour the paper depends on:
/// streaming path reads run near peak bandwidth thanks to the subtree layout,
/// and latency scales sub-linearly with channel count due to bank/row
/// conflicts (Table 2).
#[derive(Debug, Clone)]
pub struct DramSim {
    cfg: DramConfig,
    mapping: AddressMapping,
    banks: Vec<BankState>,
    /// Next free DRAM cycle of each channel's data bus.
    channel_free: Vec<u64>,
    stats: DramStats,
}

impl DramSim {
    /// Creates a simulator for the given configuration.
    pub fn new(cfg: DramConfig) -> Self {
        let mapping = AddressMapping::new(&cfg);
        let banks = vec![BankState::default(); cfg.total_banks()];
        let channel_free = vec![0u64; cfg.channels];
        Self {
            cfg,
            mapping,
            banks,
            channel_free,
            stats: DramStats::default(),
        }
    }

    /// The configuration this simulator was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Resets statistics (bank/bus state is retained).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// Issues a request for `bytes` bytes starting at physical address `addr`
    /// at DRAM cycle `now`, returning the DRAM cycle at which the last burst
    /// completes.
    ///
    /// `is_write` only affects statistics; timing is symmetric in this model.
    pub fn access(&mut self, addr: u64, bytes: usize, is_write: bool, now: u64) -> u64 {
        if bytes == 0 {
            return now;
        }
        let burst = self.cfg.burst_bytes() as u64;
        let first = addr / burst * burst;
        let last = (addr + bytes as u64 - 1) / burst * burst;
        let mut completion = now;
        let issue = now + self.cfg.controller_latency;
        let mut cursor = first;
        while cursor <= last {
            let loc = self.mapping.decompose(cursor);
            let bank_idx = self.mapping.flat_bank_index(&loc);
            let access = self.banks[bank_idx].access(loc.row, issue, &self.cfg);
            if access.row_hit {
                self.stats.row_hits += 1;
            } else {
                self.stats.row_misses += 1;
            }
            // The burst must wait for both the bank (CAS done) and the
            // channel data bus.
            let bus_start = access.data_start.max(self.channel_free[loc.channel]);
            let bus_end = bus_start + self.cfg.burst_cycles();
            self.channel_free[loc.channel] = bus_end;
            completion = completion.max(bus_end);
            cursor += burst;
        }
        if is_write {
            self.stats.write_requests += 1;
            self.stats.bytes_written += bytes as u64;
        } else {
            self.stats.read_requests += 1;
            self.stats.bytes_read += bytes as u64;
        }
        completion
    }
}

/// A closed-form latency model: `latency = fixed + bytes / effective_bandwidth`.
///
/// Used for very large parameter sweeps (e.g. Figure 7's 64 GB ORAM) where
/// cycle-level simulation of every burst is unnecessary.  The effective
/// bandwidth is the configured peak de-rated by a row-buffer efficiency
/// factor, which the cycle-level model can be used to calibrate.
#[derive(Debug, Clone)]
pub struct BandwidthModel {
    cfg: DramConfig,
    /// Fraction of peak bandwidth achieved for streaming ORAM paths.
    pub efficiency: f64,
    /// Fixed per-request latency in processor cycles (command/queueing).
    pub fixed_cpu_cycles: u64,
}

impl BandwidthModel {
    /// Creates the model.  `efficiency` in (0, 1]; the paper's subtree layout
    /// achieves "nearly peak" bandwidth, empirically ~0.75–0.9 for the default
    /// geometry.
    pub fn new(cfg: DramConfig, efficiency: f64, fixed_cpu_cycles: u64) -> Self {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0,1]"
        );
        Self {
            cfg,
            efficiency,
            fixed_cpu_cycles,
        }
    }

    /// Latency in processor cycles to transfer `bytes` bytes.
    pub fn latency_cpu_cycles(&self, bytes: u64) -> u64 {
        let seconds = bytes as f64 / (self.cfg.peak_bandwidth_bytes_per_sec() * self.efficiency);
        let cycles = seconds * self.cfg.cpu_clock_mhz * 1e6;
        self.fixed_cpu_cycles + cycles.ceil() as u64
    }

    /// The underlying DRAM configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_byte_access_is_free() {
        let mut dram = DramSim::new(DramConfig::default());
        assert_eq!(dram.access(0, 0, false, 17), 17);
    }

    #[test]
    fn sequential_stream_achieves_high_row_hit_rate() {
        let mut dram = DramSim::new(DramConfig::default());
        let mut now = 0;
        for i in 0..256u64 {
            now = dram.access(i * 64, 64, false, now);
        }
        let hit_rate = dram.stats().row_hit_rate().unwrap();
        assert!(hit_rate > 0.9, "hit rate {hit_rate}");
    }

    #[test]
    fn random_accesses_mostly_miss_rows() {
        let mut dram = DramSim::new(DramConfig::default());
        let mut now = 0;
        let mut addr = 1u64;
        for _ in 0..256 {
            // Jump by a large odd stride to touch many rows.
            addr = addr.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = addr % (1 << 30);
            now = dram.access(a, 64, false, now);
        }
        let hit_rate = dram.stats().row_hit_rate().unwrap();
        assert!(hit_rate < 0.3, "hit rate {hit_rate}");
    }

    #[test]
    fn large_transfer_latency_close_to_peak_bandwidth() {
        // Reading 16 KB over 2 channels at ~21.3 GB/s should take ~750 ns plus
        // fixed overheads; allow generous slack but require the right order of
        // magnitude.
        let cfg = DramConfig::default();
        let mut dram = DramSim::new(cfg.clone());
        let done = dram.access(0, 16_000, false, 0);
        let ns = cfg.dram_cycles_to_ns(done);
        assert!(ns > 600.0 && ns < 1600.0, "16KB transfer took {ns} ns");
    }

    #[test]
    fn more_channels_reduce_latency_sublinearly() {
        let mut latencies = Vec::new();
        for channels in [1usize, 2, 4, 8] {
            let cfg = DramConfig {
                channels,
                ..DramConfig::default()
            };
            let mut dram = DramSim::new(cfg);
            let done = dram.access(0, 16_000, false, 0);
            latencies.push(done);
        }
        // Monotonically decreasing...
        assert!(latencies.windows(2).all(|w| w[1] < w[0]), "{latencies:?}");
        // ...but 8 channels is less than 8x faster than 1 (sub-linear), as in
        // Table 2.
        assert!(latencies[0] < 8 * latencies[3], "{latencies:?}");
    }

    #[test]
    fn writes_update_write_stats() {
        let mut dram = DramSim::new(DramConfig::default());
        dram.access(0, 128, true, 0);
        assert_eq!(dram.stats().write_requests, 1);
        assert_eq!(dram.stats().bytes_written, 128);
        assert_eq!(dram.stats().bytes_read, 0);
    }

    #[test]
    fn bandwidth_model_latency_scales_linearly_in_bytes() {
        let model = BandwidthModel::new(DramConfig::default(), 0.8, 20);
        let l1 = model.latency_cpu_cycles(16_000);
        let l2 = model.latency_cpu_cycles(32_000);
        assert!(l2 > l1);
        let marginal = (l2 - l1) as f64;
        let expected = 16_000.0 / (model.config().peak_bandwidth_bytes_per_sec() * 0.8)
            * model.config().cpu_clock_mhz
            * 1e6;
        assert!((marginal - expected).abs() / expected < 0.01);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn bandwidth_model_rejects_bad_efficiency() {
        let _ = BandwidthModel::new(DramConfig::default(), 0.0, 0);
    }
}
