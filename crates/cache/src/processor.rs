//! The in-order core timing model (Table 1) driving the cache hierarchy and a
//! pluggable main memory.

use crate::hierarchy::{CacheHierarchy, HierarchyConfig, HitLevel};

/// The main-memory interface the LLC misses into: a flat-latency DRAM (the
/// insecure baseline), an ORAM behind [`crate::FunctionalOramMemory`], or
/// `oram-sim`'s Phantom model.
pub trait MainMemory {
    /// Performs one line-sized access and returns its latency in CPU cycles.
    fn access(&mut self, line_addr: u64, is_write: bool) -> u64;
}

/// A flat-latency main memory: the insecure baseline of the evaluation
/// (58 CPU cycles per DRAM access on average, §7.1.2).
#[derive(Debug, Clone, Copy)]
pub struct FlatLatencyMemory {
    /// Latency of every access in CPU cycles.
    pub latency: u64,
}

impl Default for FlatLatencyMemory {
    fn default() -> Self {
        Self { latency: 58 }
    }
}

impl MainMemory for FlatLatencyMemory {
    fn access(&mut self, _line_addr: u64, _is_write: bool) -> u64 {
        self.latency
    }
}

/// Core and hierarchy configuration (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessorConfig {
    /// Cache hierarchy geometry and latencies.
    pub hierarchy: HierarchyConfig,
    /// Cycles per non-memory instruction (in-order single issue: 1).
    pub cycles_per_instruction: u64,
}

impl Default for ProcessorConfig {
    fn default() -> Self {
        Self {
            hierarchy: HierarchyConfig::default(),
            cycles_per_instruction: 1,
        }
    }
}

/// Aggregate results of a trace run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunResult {
    /// Total simulated cycles.
    pub total_cycles: u64,
    /// Instructions executed (memory + non-memory).
    pub instructions: u64,
    /// Loads/stores issued.
    pub memory_accesses: u64,
    /// LLC misses (demand fetches from main memory).
    pub llc_misses: u64,
    /// Dirty LLC lines written back to main memory.
    pub llc_writebacks: u64,
    /// Cycles spent waiting on main memory.
    pub memory_cycles: u64,
}

impl RunResult {
    /// Misses per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.llc_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.total_cycles as f64
        }
    }
}

/// An in-order, single-issue core with the Table 1 cache hierarchy, connected
/// to a [`MainMemory`].
#[derive(Debug)]
pub struct SecureProcessor<M> {
    config: ProcessorConfig,
    hierarchy: CacheHierarchy,
    memory: M,
    result: RunResult,
}

impl<M: MainMemory> SecureProcessor<M> {
    /// Creates a processor bound to a main-memory model.
    pub fn new(config: ProcessorConfig, memory: M) -> Self {
        Self {
            hierarchy: CacheHierarchy::new(config.hierarchy),
            config,
            memory,
            result: RunResult::default(),
        }
    }

    /// Results accumulated so far.
    pub fn result(&self) -> RunResult {
        self.result
    }

    /// Clears the accumulated results while keeping all cache state warm.
    /// Used to exclude warm-up from measured runs.
    pub fn reset_result(&mut self) {
        self.result = RunResult::default();
    }

    /// The main-memory model (e.g. to read ORAM statistics afterwards).
    pub fn memory(&self) -> &M {
        &self.memory
    }

    /// Mutable access to the main-memory model.
    pub fn memory_mut(&mut self) -> &mut M {
        &mut self.memory
    }

    /// The cache hierarchy (for hit/miss counters).
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.hierarchy
    }

    /// Executes `gap` non-memory instructions followed by one load/store to
    /// byte address `addr`.
    pub fn step(&mut self, gap: u64, addr: u64, is_write: bool) {
        self.result.instructions += gap + 1;
        self.result.total_cycles += gap * self.config.cycles_per_instruction;
        self.result.memory_accesses += 1;

        let outcome = self.hierarchy.access(addr, is_write);
        let mut latency = self.hierarchy.hit_latency(outcome.level);
        if outcome.level == HitLevel::Memory {
            self.result.llc_misses += 1;
            let line =
                addr / self.hierarchy.line_bytes() as u64 * self.hierarchy.line_bytes() as u64;
            let mem_latency = self.memory.access(line, false);
            latency += mem_latency;
            self.result.memory_cycles += mem_latency;
        }
        if let Some(victim) = outcome.llc_writeback {
            // An LLC eviction turns into a main-memory write (an ORAM access
            // of its own in the secure configuration).  It does not stall the
            // core in a real system with a write buffer, but it does occupy
            // the (single) ORAM controller; we charge it to memory time.
            self.result.llc_writebacks += 1;
            let mem_latency = self.memory.access(victim, true);
            self.result.total_cycles += mem_latency;
            self.result.memory_cycles += mem_latency;
        }
        self.result.total_cycles += latency;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_memory_baseline_latency() {
        let mut cpu =
            SecureProcessor::new(ProcessorConfig::default(), FlatLatencyMemory::default());
        cpu.step(0, 0, false);
        // Miss: L1+L2 lookup latency (13) + 58 memory cycles.
        assert_eq!(cpu.result().total_cycles, 13 + 58);
        assert_eq!(cpu.result().llc_misses, 1);
        cpu.step(0, 0, false);
        // Second access hits L1 (2 cycles).
        assert_eq!(cpu.result().total_cycles, 13 + 58 + 2);
    }

    #[test]
    fn gap_instructions_cost_one_cycle_each() {
        let mut cpu =
            SecureProcessor::new(ProcessorConfig::default(), FlatLatencyMemory::default());
        cpu.step(100, 0, false);
        assert_eq!(cpu.result().instructions, 101);
        assert_eq!(cpu.result().total_cycles, 100 + 13 + 58);
    }

    #[test]
    fn slower_memory_increases_total_cycles_proportionally_to_misses() {
        struct SlowMemory;
        impl MainMemory for SlowMemory {
            fn access(&mut self, _a: u64, _w: bool) -> u64 {
                1208 // the 2-channel ORAM tree latency of Table 2
            }
        }
        let run = |mem_fast: bool| -> u64 {
            let cfg = ProcessorConfig::default();
            // Random-ish strided pattern covering more than the LLC.
            if mem_fast {
                let mut cpu = SecureProcessor::new(cfg, FlatLatencyMemory::default());
                for i in 0..20_000u64 {
                    cpu.step(5, (i * 4099 * 64) % (64 << 20), false);
                }
                cpu.result().total_cycles
            } else {
                let mut cpu = SecureProcessor::new(cfg, SlowMemory);
                for i in 0..20_000u64 {
                    cpu.step(5, (i * 4099 * 64) % (64 << 20), false);
                }
                cpu.result().total_cycles
            }
        };
        let fast = run(true);
        let slow = run(false);
        let slowdown = slow as f64 / fast as f64;
        // With a miss-heavy pattern the slowdown approaches the latency ratio.
        assert!(slowdown > 5.0, "slowdown {slowdown}");
    }

    #[test]
    fn mpki_and_ipc_are_consistent() {
        let mut cpu =
            SecureProcessor::new(ProcessorConfig::default(), FlatLatencyMemory::default());
        for i in 0..1000u64 {
            cpu.step(9, i * 64, false);
        }
        let r = cpu.result();
        assert_eq!(r.instructions, 10_000);
        assert!(r.mpki() > 0.0);
        assert!(r.ipc() > 0.0 && r.ipc() <= 1.0);
    }

    #[test]
    fn writebacks_are_counted_and_charged() {
        struct CountingMemory {
            writes: u64,
        }
        impl MainMemory for CountingMemory {
            fn access(&mut self, _a: u64, w: bool) -> u64 {
                if w {
                    self.writes += 1;
                }
                100
            }
        }
        let cfg = ProcessorConfig::default();
        let mut cpu = SecureProcessor::new(cfg, CountingMemory { writes: 0 });
        // Write to far more lines than the LLC holds so dirty evictions occur.
        let llc_lines = (1u64 << 20) / 64;
        for i in 0..(llc_lines * 2) {
            cpu.step(0, i * 64, true);
        }
        assert!(cpu.result().llc_writebacks > 0);
        assert_eq!(cpu.result().llc_writebacks, cpu.memory().writes);
    }
}
