//! The two-level cache hierarchy of Table 1: a 32 KB 4-way L1 data cache and
//! a 1 MB 16-way unified L2 (the LLC), both with 64-byte lines.

use crate::cache::{CacheConfig, SetAssocCache};

/// Where a memory access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Hit in the L1 data cache.
    L1,
    /// Hit in the L2 (last-level) cache.
    L2,
    /// Missed the LLC; main memory (ORAM or DRAM) must be accessed.
    Memory,
}

/// Outcome of sending one load/store through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyOutcome {
    /// Where the access hit.
    pub level: HitLevel,
    /// Line-aligned address of a dirty LLC line that must be written back to
    /// main memory, if the fill displaced one.
    pub llc_writeback: Option<u64>,
}

/// Configuration of the hierarchy (latencies in CPU cycles, per Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 geometry.
    pub l1: CacheConfig,
    /// L2 (LLC) geometry.
    pub l2: CacheConfig,
    /// L1 hit latency (data + tag), cycles.
    pub l1_latency: u64,
    /// L2 hit latency (data + tag), cycles.
    pub l2_latency: u64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self {
            l1: CacheConfig {
                capacity_bytes: 32 << 10,
                associativity: 4,
                line_bytes: 64,
            },
            l2: CacheConfig {
                capacity_bytes: 1 << 20,
                associativity: 16,
                line_bytes: 64,
            },
            l1_latency: 2,
            l2_latency: 11,
        }
    }
}

/// The L1 + L2 hierarchy.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    config: HierarchyConfig,
    l1: SetAssocCache,
    l2: SetAssocCache,
}

impl CacheHierarchy {
    /// Creates an empty hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            l1: SetAssocCache::new(config.l1),
            l2: SetAssocCache::new(config.l2),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// LLC line size in bytes (the ORAM block size of the evaluation).
    pub fn line_bytes(&self) -> usize {
        self.config.l2.line_bytes
    }

    /// L1/L2 hit and miss counters: `(l1_hits, l1_misses, l2_hits, l2_misses)`.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.l1.hits(),
            self.l1.misses(),
            self.l2.hits(),
            self.l2.misses(),
        )
    }

    /// Sends a load/store through the hierarchy, allocating lines on misses.
    pub fn access(&mut self, addr: u64, is_write: bool) -> HierarchyOutcome {
        let l1_out = self.l1.access(addr, is_write);
        if l1_out.hit {
            return HierarchyOutcome {
                level: HitLevel::L1,
                llc_writeback: None,
            };
        }
        // An L1 victim is absorbed by the (inclusive) L2.
        let mut llc_writeback = None;
        if let Some(victim) = l1_out.writeback {
            llc_writeback = self.l2.fill(victim, true);
        }
        let l2_out = self.l2.access(addr, false);
        if let Some(victim) = l2_out.writeback {
            debug_assert!(llc_writeback.is_none());
            llc_writeback = Some(victim);
        }
        HierarchyOutcome {
            level: if l2_out.hit {
                HitLevel::L2
            } else {
                HitLevel::Memory
            },
            llc_writeback,
        }
    }

    /// Hit latency of a given level in CPU cycles (memory latency is supplied
    /// by the main-memory model, not the hierarchy).
    pub fn hit_latency(&self, level: HitLevel) -> u64 {
        match level {
            HitLevel::L1 => self.config.l1_latency,
            HitLevel::L2 => self.config.l1_latency + self.config.l2_latency,
            HitLevel::Memory => self.config.l1_latency + self.config.l2_latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_to_memory_then_hits_l1() {
        let mut h = CacheHierarchy::new(HierarchyConfig::default());
        assert_eq!(h.access(0x4000, false).level, HitLevel::Memory);
        assert_eq!(h.access(0x4000, false).level, HitLevel::L1);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut h = CacheHierarchy::new(HierarchyConfig::default());
        // Fill one L1 set (4 ways) with conflicting lines: the L1 has 128
        // sets, so addresses 64*128 apart conflict.
        let stride = 64 * 128;
        for i in 0..5u64 {
            h.access(i * stride, false);
        }
        // The first line fell out of L1 but is still in the much larger L2.
        assert_eq!(h.access(0, false).level, HitLevel::L2);
    }

    #[test]
    fn dirty_llc_eviction_is_reported_for_writeback() {
        let small = HierarchyConfig {
            l2: CacheConfig {
                capacity_bytes: 4 << 10,
                associativity: 1,
                line_bytes: 64,
            },
            l1: CacheConfig {
                capacity_bytes: 256,
                associativity: 1,
                line_bytes: 64,
            },
            ..HierarchyConfig::default()
        };
        let mut h = CacheHierarchy::new(small);
        // Dirty a line, then push it out of both levels with conflicting
        // addresses.
        h.access(0, true);
        let l1_conflict_stride = 64 * 4; // 4 sets in the tiny L1
        let l2_conflict_stride = 64 * 64; // 64 sets in the tiny L2
        let mut saw_writeback = false;
        for i in 1..10u64 {
            let out = h.access(i * l1_conflict_stride.max(l2_conflict_stride), false);
            if out.llc_writeback == Some(0) {
                saw_writeback = true;
            }
        }
        assert!(
            saw_writeback,
            "dirty line 0 must eventually be written back"
        );
    }

    #[test]
    fn latencies_follow_table_1() {
        let h = CacheHierarchy::new(HierarchyConfig::default());
        assert_eq!(h.hit_latency(HitLevel::L1), 2);
        assert_eq!(h.hit_latency(HitLevel::L2), 13);
        assert_eq!(h.line_bytes(), 64);
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let mut h = CacheHierarchy::new(HierarchyConfig::default());
        h.access(0, false);
        h.access(0, false);
        h.access(64, false);
        let (l1h, l1m, _l2h, l2m) = h.counters();
        assert_eq!(l1h, 1);
        assert_eq!(l1m, 2);
        assert_eq!(l2m, 2);
    }
}
