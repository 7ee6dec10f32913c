//! DRAM geometry and timing configuration.

/// Geometry and timing parameters of the simulated DDR3 memory system.
///
/// Defaults follow the paper's DRAMSim2 configuration (§7.1.1): per channel
/// 8 banks, 16384 rows, 1024 columns/row, 64-bit bus at 667 MHz DDR
/// (≈10.67 GB/s peak), and DDR3-1333-like CL/tRCD/tRP of 10 DRAM cycles.
///
/// # Examples
///
/// ```
/// use dram_sim::DramConfig;
///
/// let cfg = DramConfig { channels: 2, ..DramConfig::default() };
/// assert!((cfg.peak_bandwidth_bytes_per_sec() / 1e9 - 21.3).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of independent DRAM channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks_per_channel: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Rows per bank.
    pub rows_per_bank: usize,
    /// Columns per row; each column holds one bus-width word (8 bytes).
    pub columns_per_row: usize,
    /// Data bus width in bytes (64-bit bus = 8 bytes).
    pub bus_bytes: usize,
    /// DRAM command clock in MHz (data is transferred at double rate).
    pub dram_clock_mhz: f64,
    /// Processor clock in MHz, used to convert DRAM cycles to CPU cycles.
    pub cpu_clock_mhz: f64,
    /// CAS latency (column access) in DRAM cycles.
    pub t_cas: u64,
    /// RAS-to-CAS delay (activate) in DRAM cycles.
    pub t_rcd: u64,
    /// Row precharge time in DRAM cycles.
    pub t_rp: u64,
    /// Minimum row-active time in DRAM cycles.
    pub t_ras: u64,
    /// Burst length in bus transfers (BL8 = 8 transfers = 64 bytes on a
    /// 64-bit bus); the burst occupies `burst_length / 2` DRAM command cycles.
    pub burst_length: u64,
    /// Extra controller/queuing latency applied once per request, in DRAM
    /// cycles.  Models the memory-controller pipeline that DRAMSim2 charges.
    pub controller_latency: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            channels: 2,
            ranks_per_channel: 1,
            banks_per_rank: 8,
            rows_per_bank: 16384,
            columns_per_row: 1024,
            bus_bytes: 8,
            dram_clock_mhz: 667.0,
            cpu_clock_mhz: 1300.0,
            t_cas: 10,
            t_rcd: 10,
            t_rp: 10,
            t_ras: 24,
            burst_length: 8,
            controller_latency: 8,
        }
    }
}

impl DramConfig {
    /// Bytes held in one DRAM row of one bank.
    pub fn row_bytes(&self) -> usize {
        self.columns_per_row * self.bus_bytes
    }

    /// Bytes transferred by one burst (64 bytes for BL8 on a 64-bit bus).
    pub fn burst_bytes(&self) -> usize {
        self.bus_bytes * self.burst_length as usize
    }

    /// DRAM command cycles occupied on the data bus by one burst.
    pub fn burst_cycles(&self) -> u64 {
        // Double data rate: two transfers per command cycle.
        self.burst_length / 2
    }

    /// Total capacity of the configured memory system in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        (self.channels * self.ranks_per_channel * self.banks_per_rank) as u64
            * self.rows_per_bank as u64
            * self.row_bytes() as u64
    }

    /// Peak data bandwidth of the whole memory system in bytes per second.
    pub fn peak_bandwidth_bytes_per_sec(&self) -> f64 {
        self.channels as f64 * self.dram_clock_mhz * 1e6 * 2.0 * self.bus_bytes as f64
    }

    /// Converts a count of DRAM command cycles to processor cycles.
    pub fn dram_to_cpu_cycles(&self, dram_cycles: u64) -> u64 {
        ((dram_cycles as f64) * self.cpu_clock_mhz / self.dram_clock_mhz).ceil() as u64
    }

    /// Converts DRAM cycles to nanoseconds.
    pub fn dram_cycles_to_ns(&self, dram_cycles: u64) -> f64 {
        dram_cycles as f64 * 1000.0 / self.dram_clock_mhz
    }

    /// Number of banks across the whole system.
    pub fn total_banks(&self) -> usize {
        self.channels * self.ranks_per_channel * self.banks_per_rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let cfg = DramConfig::default();
        assert_eq!(cfg.banks_per_rank, 8);
        assert_eq!(cfg.rows_per_bank, 16384);
        assert_eq!(cfg.columns_per_row, 1024);
        // ~10.67 GB/s per channel.
        let per_channel = cfg.peak_bandwidth_bytes_per_sec() / cfg.channels as f64 / 1e9;
        assert!((per_channel - 10.672).abs() < 0.05, "got {per_channel}");
    }

    #[test]
    fn row_and_burst_geometry() {
        let cfg = DramConfig::default();
        assert_eq!(cfg.row_bytes(), 8192);
        assert_eq!(cfg.burst_bytes(), 64);
        assert_eq!(cfg.burst_cycles(), 4);
    }

    #[test]
    fn capacity_scales_with_channels() {
        let one = DramConfig {
            channels: 1,
            ..DramConfig::default()
        };
        let four = DramConfig {
            channels: 4,
            ..DramConfig::default()
        };
        assert_eq!(four.capacity_bytes(), 4 * one.capacity_bytes());
        // One channel of the default geometry is 1 GiB.
        assert_eq!(one.capacity_bytes(), 1 << 30);
    }

    #[test]
    fn cycle_conversion_uses_clock_ratio() {
        let cfg = DramConfig::default();
        // 667 DRAM cycles is 1 us, i.e. 1300 CPU cycles at 1.3 GHz.
        assert_eq!(cfg.dram_to_cpu_cycles(667), 1300);
        assert!((cfg.dram_cycles_to_ns(667) - 1000.0).abs() < 1.0);
    }
}
