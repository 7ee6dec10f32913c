//! Physical address to (channel, rank, bank, row, column) mapping.
//!
//! The mapping determines how much channel/bank parallelism a streaming ORAM
//! path read can exploit.  The default interleaves channels at burst (64 B)
//! granularity and banks at row granularity, which matches how DRAMSim2's
//! default address mapping behaves for long sequential streams: consecutive
//! bursts alternate across channels, and consecutive rows move to a different
//! bank so activates overlap with transfers.

use crate::config::DramConfig;

/// A decomposed DRAM location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramLocation {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Row index within the bank.
    pub row: usize,
    /// Column (bus-word) index within the row.
    pub column: usize,
}

/// Maps physical byte addresses to DRAM locations.
#[derive(Debug, Clone)]
pub struct AddressMapping {
    channels: usize,
    ranks: usize,
    banks: usize,
    rows: usize,
    columns: usize,
    bus_bytes: usize,
    burst_bytes: usize,
}

impl AddressMapping {
    /// Builds the mapping for a DRAM configuration.
    pub fn new(cfg: &DramConfig) -> Self {
        Self {
            channels: cfg.channels,
            ranks: cfg.ranks_per_channel,
            banks: cfg.banks_per_rank,
            rows: cfg.rows_per_bank,
            columns: cfg.columns_per_row,
            bus_bytes: cfg.bus_bytes,
            burst_bytes: cfg.burst_bytes(),
        }
    }

    /// Decomposes a physical byte address.
    ///
    /// Bit layout (from least significant): byte-in-burst, channel,
    /// column-high (bursts within a row), bank, rank, row.  Addresses beyond
    /// the configured capacity wrap around (the ORAM layouts in this
    /// repository always stay within capacity; wrapping keeps the model total).
    pub fn decompose(&self, addr: u64) -> DramLocation {
        let bursts_per_row = (self.columns * self.bus_bytes / self.burst_bytes).max(1);
        let mut a = addr / self.burst_bytes as u64;
        let channel = (a % self.channels as u64) as usize;
        a /= self.channels as u64;
        let burst_in_row = (a % bursts_per_row as u64) as usize;
        a /= bursts_per_row as u64;
        let bank = (a % self.banks as u64) as usize;
        a /= self.banks as u64;
        let rank = (a % self.ranks as u64) as usize;
        a /= self.ranks as u64;
        let row = (a % self.rows as u64) as usize;
        let offset_in_burst = usize::try_from(addr % self.burst_bytes as u64)
            .expect("burst offset bounded by burst_bytes fits usize");
        let column =
            burst_in_row * (self.burst_bytes / self.bus_bytes) + offset_in_burst / self.bus_bytes;
        DramLocation {
            channel,
            rank,
            bank,
            row,
            column,
        }
    }

    /// Flat bank identifier (across channels and ranks) for indexing bank
    /// state arrays.
    pub fn flat_bank_index(&self, loc: &DramLocation) -> usize {
        (loc.channel * self.ranks + loc.rank) * self.banks + loc.bank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_bursts_alternate_channels() {
        let cfg = DramConfig::default();
        let map = AddressMapping::new(&cfg);
        let a = map.decompose(0);
        let b = map.decompose(64);
        let c = map.decompose(128);
        assert_eq!(a.channel, 0);
        assert_eq!(b.channel, 1);
        assert_eq!(c.channel, 0);
        // Within the same row while the stream is short.
        assert_eq!(a.row, c.row);
        assert_eq!(a.bank, c.bank);
    }

    #[test]
    fn sequential_stream_stays_in_row_until_row_bytes_consumed() {
        let cfg = DramConfig::default();
        let map = AddressMapping::new(&cfg);
        // With 2 channels and 8 KiB rows, the stream covers 16 KiB before the
        // per-channel row changes.
        let row_span = cfg.row_bytes() as u64 * cfg.channels as u64;
        let first = map.decompose(0);
        let last_in_row = map.decompose(row_span - 64);
        let next_row = map.decompose(row_span);
        assert_eq!(first.row, last_in_row.row);
        assert_eq!(first.bank, last_in_row.bank);
        assert!(next_row.bank != first.bank || next_row.row != first.row);
    }

    #[test]
    fn flat_bank_index_is_unique_per_bank() {
        let cfg = DramConfig {
            channels: 2,
            ranks_per_channel: 2,
            banks_per_rank: 4,
            ..DramConfig::default()
        };
        let map = AddressMapping::new(&cfg);
        let mut seen = std::collections::HashSet::new();
        for ch in 0..2 {
            for rk in 0..2 {
                for bk in 0..4 {
                    let loc = DramLocation {
                        channel: ch,
                        rank: rk,
                        bank: bk,
                        row: 0,
                        column: 0,
                    };
                    assert!(seen.insert(map.flat_bank_index(&loc)));
                }
            }
        }
        assert_eq!(seen.len(), cfg.total_banks());
    }

    #[test]
    fn decompose_is_within_bounds() {
        let cfg = DramConfig::default();
        let map = AddressMapping::new(&cfg);
        for addr in (0..(1u64 << 34)).step_by(123_456_789) {
            let loc = map.decompose(addr);
            assert!(loc.channel < cfg.channels);
            assert!(loc.rank < cfg.ranks_per_channel);
            assert!(loc.bank < cfg.banks_per_rank);
            assert!(loc.row < cfg.rows_per_bank);
            assert!(loc.column < cfg.columns_per_row);
        }
    }
}
