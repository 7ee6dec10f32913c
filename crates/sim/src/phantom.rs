//! A timing model of the Phantom \[21\] design point used in Figure 9: a
//! non-recursive Path ORAM with 4 KB blocks, the whole PosMap on chip, and a
//! small on-chip *block buffer* that caches recently fetched 4 KB ORAM blocks
//! (Section 5.7 of the Phantom paper; 32 KB with CLOCK eviction).

use crate::latency::OramLatencyModel;
use cache_sim::MainMemory;
use dram_sim::DramConfig;
use path_oram::OramParams;

/// Configuration of the Phantom comparison point (§7.1.6).
#[derive(Debug, Clone, PartialEq)]
pub struct PhantomConfig {
    /// ORAM block size in bytes (4 KB in the paper's comparison).
    pub block_bytes: usize,
    /// Number of blocks (2^20 for the 4 GB ORAM).
    pub num_blocks: u64,
    /// Tree leaf level (19 in the comparison).
    pub leaf_level: u32,
    /// Slots per bucket.
    pub z: usize,
    /// Block-buffer capacity in bytes (32 KB).
    pub block_buffer_bytes: usize,
    /// DRAM configuration.
    pub dram: DramConfig,
    /// Latency calibration samples.
    pub latency_samples: usize,
}

impl Default for PhantomConfig {
    fn default() -> Self {
        Self {
            block_bytes: 4096,
            num_blocks: 1 << 20,
            leaf_level: 19,
            z: 4,
            block_buffer_bytes: 32 << 10,
            dram: DramConfig::default(),
            latency_samples: 20,
        }
    }
}

/// Statistics of a Phantom timing run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhantomStats {
    /// LLC-side requests served.
    pub requests: u64,
    /// Requests satisfied by the block buffer.
    pub buffer_hits: u64,
    /// Full ORAM tree accesses performed.
    pub oram_accesses: u64,
    /// Bytes moved to/from DRAM.
    pub bytes_moved: u64,
    /// Cycles spent in the ORAM.
    pub cycles: u64,
}

/// The Phantom timing model: every block-buffer miss costs one 4 KB-block
/// path access.
#[derive(Debug)]
pub struct PhantomOram {
    config: PhantomConfig,
    latency: OramLatencyModel,
    /// Block addresses resident in the block buffer, in CLOCK/FIFO order
    /// (CLOCK over a handful of entries behaves like FIFO-with-second-chance;
    /// FIFO is a faithful simplification at 8 entries).
    buffer: Vec<u64>,
    buffer_entries: usize,
    stats: PhantomStats,
}

impl PhantomOram {
    /// Builds the model, calibrating the 4 KB-block path latency.
    pub fn new(config: PhantomConfig) -> Self {
        let params = OramParams::new(config.num_blocks, config.block_bytes, config.z)
            .with_leaf_level(config.leaf_level);
        let latency = OramLatencyModel::new(params, config.dram.clone(), config.latency_samples);
        let buffer_entries = (config.block_buffer_bytes / config.block_bytes).max(1);
        Self {
            config,
            latency,
            buffer: Vec::new(),
            buffer_entries,
            stats: PhantomStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PhantomConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &PhantomStats {
        &self.stats
    }

    /// Resets statistics (block-buffer contents are retained).
    pub fn reset_stats(&mut self) {
        self.stats = PhantomStats::default();
    }

    /// Average latency of one 4 KB-block ORAM access in CPU cycles.
    pub fn access_latency_cycles(&self) -> u64 {
        self.latency.backend_access_cycles(false)
    }

    /// Serves a request for the ORAM block containing `block_addr`.
    pub fn access(&mut self, block_addr: u64) -> u64 {
        let block_addr = block_addr % self.config.num_blocks;
        self.stats.requests += 1;
        if let Some(pos) = self.buffer.iter().position(|&b| b == block_addr) {
            // CLOCK second chance approximated by moving the hit to the back.
            let b = self.buffer.remove(pos);
            self.buffer.push(b);
            self.stats.buffer_hits += 1;
            return 0;
        }
        if self.buffer.len() == self.buffer_entries {
            self.buffer.remove(0);
        }
        self.buffer.push(block_addr);
        self.stats.oram_accesses += 1;
        self.stats.bytes_moved += self.latency.params().access_bytes();
        let cycles = self.access_latency_cycles();
        self.stats.cycles += cycles;
        cycles
    }
}

/// Adapter exposing [`PhantomOram`] as the processor's main memory.
#[derive(Debug)]
pub struct PhantomMemory {
    oram: PhantomOram,
    block_bytes: u64,
}

impl PhantomMemory {
    /// Wraps a Phantom model.
    pub fn new(oram: PhantomOram) -> Self {
        let block_bytes = oram.config().block_bytes as u64;
        Self { oram, block_bytes }
    }

    /// The wrapped model.
    pub fn oram(&self) -> &PhantomOram {
        &self.oram
    }

    /// Resets the wrapped model's statistics.
    pub fn reset_stats(&mut self) {
        self.oram.reset_stats();
    }
}

impl MainMemory for PhantomMemory {
    fn access(&mut self, line_addr: u64, _is_write: bool) -> u64 {
        self.oram.access(line_addr / self.block_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> PhantomConfig {
        PhantomConfig {
            latency_samples: 3,
            ..PhantomConfig::default()
        }
    }

    #[test]
    fn access_latency_reflects_4kb_blocks() {
        let oram = PhantomOram::new(quick());
        // 20 levels of ~16.5 KB buckets read+written: hundreds of KB per
        // access, i.e. tens of thousands of CPU cycles at ~21 GB/s.
        let cycles = oram.access_latency_cycles();
        assert!(cycles > 20_000, "Phantom access only took {cycles} cycles");
    }

    #[test]
    fn block_buffer_captures_spatial_locality() {
        let mut oram = PhantomOram::new(quick());
        // 64 consecutive 64-byte lines live in one 4 KB ORAM block.
        for line in 0..256u64 {
            let block = line * 64 / 4096;
            oram.access(block);
        }
        let stats = oram.stats();
        assert_eq!(stats.requests, 256);
        assert!(stats.buffer_hits > 200, "hits {}", stats.buffer_hits);
        assert!(stats.oram_accesses <= 8);
    }

    #[test]
    fn buffer_is_bounded() {
        let mut oram = PhantomOram::new(quick());
        for block in 0..100u64 {
            oram.access(block * 7919);
        }
        assert!(oram.buffer.len() <= oram.buffer_entries);
        assert_eq!(oram.stats().oram_accesses, 100);
    }

    #[test]
    fn memory_adapter_translates_addresses() {
        let mut mem = PhantomMemory::new(PhantomOram::new(quick()));
        cache_sim::MainMemory::access(&mut mem, 0, false);
        cache_sim::MainMemory::access(&mut mem, 64, false);
        // Same 4 KB block: the second access hits the block buffer.
        assert_eq!(mem.oram().stats().oram_accesses, 1);
        assert_eq!(mem.oram().stats().buffer_hits, 1);
    }
}
