//! Drives synthetic SPEC traces through the secure-processor model under a
//! chosen ORAM design point and reports slowdowns and traffic.

use crate::latency::OramLatencyModel;
use crate::phantom::{PhantomConfig, PhantomMemory, PhantomOram};
use cache_sim::{
    CacheConfig, FlatLatencyMemory, FunctionalOramMemory, HierarchyConfig, ProcessorConfig,
    RunResult, SecureProcessor,
};
use dram_sim::DramConfig;
use freecursive::{
    FreecursiveConfig, FreecursiveError, FreecursiveOram, FrontendStats, InsecureBackend, Oram,
    OramBackend, OramBuilder, SchemePoint,
};
use path_oram::{Durability, StorageKind};
use trace_gen::{SpecBenchmark, TraceGenerator};

/// Everything needed to reproduce one run: processor, ORAM and trace scale.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationConfig {
    /// Logical ORAM capacity in bytes.
    pub data_capacity_bytes: u64,
    /// ORAM block size = LLC line size in bytes.
    pub block_bytes: usize,
    /// Slots per bucket (Z).
    pub z: usize,
    /// PLB capacity in bytes, for the presets that have a PLB.  0 drops it:
    /// one tree per recursion level, all walked on every request, as
    /// [`FreecursiveConfig::plb_capacity_bytes`] = 0 does.
    pub plb_capacity_bytes: usize,
    /// PLB associativity.
    pub plb_associativity: usize,
    /// On-chip PosMap bytes.
    pub onchip_posmap_bytes: usize,
    /// DRAM channel count.
    pub dram_channels: usize,
    /// Processor clock in MHz (1300 in Table 1, 2600 in the Figure 8
    /// configuration of \[26\]).
    pub cpu_clock_mhz: f64,
    /// Average insecure DRAM access latency in CPU cycles (58 at 1.3 GHz).
    pub insecure_latency: u64,
    /// Memory references used to warm the caches and the PLB before
    /// measurement begins (the paper warms over 1 B instructions).
    pub warmup_accesses: u64,
    /// Number of memory references to replay per measured run.
    pub memory_accesses: u64,
    /// Random-path samples for DRAM latency calibration.
    pub latency_samples: usize,
    /// Trace seed.
    pub trace_seed: u64,
}

impl SimulationConfig {
    /// The paper's Table 1 configuration: 4 GB ORAM, 64 B blocks, Z = 4,
    /// 64 KB PLB, 8 KB on-chip PosMap, 2 DRAM channels, 1.3 GHz core.
    pub fn paper_default() -> Self {
        Self {
            data_capacity_bytes: 4 << 30,
            block_bytes: 64,
            z: 4,
            plb_capacity_bytes: 64 << 10,
            plb_associativity: 1,
            onchip_posmap_bytes: 8 << 10,
            dram_channels: 2,
            cpu_clock_mhz: 1300.0,
            insecure_latency: 58,
            warmup_accesses: 150_000,
            memory_accesses: 300_000,
            latency_samples: 40,
            trace_seed: 2015,
        }
    }

    /// The configuration of Ren et al. \[26\] used for Figure 8: 4 DRAM
    /// channels, a 2.6 GHz core, 128-byte cache lines / ORAM blocks, Z = 3.
    pub fn isca13_params() -> Self {
        Self {
            block_bytes: 128,
            z: 3,
            dram_channels: 4,
            cpu_clock_mhz: 2600.0,
            insecure_latency: 116,
            ..Self::paper_default()
        }
    }

    /// A scaled-down configuration for unit tests.
    pub fn quick_test() -> Self {
        Self {
            data_capacity_bytes: 256 << 20,
            warmup_accesses: 40_000,
            memory_accesses: 20_000,
            latency_samples: 4,
            ..Self::paper_default()
        }
    }

    /// The DRAM configuration implied by this simulation configuration.
    pub fn dram(&self) -> DramConfig {
        DramConfig {
            channels: self.dram_channels,
            cpu_clock_mhz: self.cpu_clock_mhz,
            ..DramConfig::default()
        }
    }

    /// `scheme`'s configuration (the builder's preset) at this simulation's
    /// capacity, block size, Z and PLB; a preset without a PLB keeps none.
    /// On-chip PosMap entries are 8-byte counters under PMMAC, 4-byte
    /// leaves for a preset with a PLB, and bit-packed ~2-byte leaves for
    /// one without, where the `R_X8` baseline also gets at least 256 KB,
    /// exactly as the paper's evaluation does (§7.1.4: "giving it a 272 KB
    /// on-chip PosMap"; Figure 7: "up to a 256 KB on-chip PosMap").
    /// Phantom is [`crate::phantom`].  Storage is pinned to `Mem` / `None`:
    /// the simulator never touches a tree store or the environment.
    ///
    /// # Errors
    ///
    /// As for [`OramBuilder::freecursive_config`] (`insecure` has no trees).
    pub fn oram_config(&self, scheme: SchemePoint) -> Result<FreecursiveConfig, FreecursiveError> {
        let mut config = OramBuilder::for_scheme(scheme)
            .num_blocks(self.data_capacity_bytes / self.block_bytes as u64)
            .block_bytes(self.block_bytes)
            .z(self.z)
            .plb_associativity(self.plb_associativity)
            .storage(StorageKind::Mem)
            .durability(Durability::None)
            .freecursive_config()?;
        let preset_has_plb = config.plb_capacity_bytes > 0;
        if preset_has_plb {
            config.plb_capacity_bytes = self.plb_capacity_bytes;
        }
        let (entry_bytes, onchip_bytes) = if config.pmmac {
            (8, self.onchip_posmap_bytes)
        } else if preset_has_plb {
            (4, self.onchip_posmap_bytes)
        } else {
            (2, self.onchip_posmap_bytes.max(256 << 10))
        };
        config.onchip_entries = (onchip_bytes as u64 / entry_bytes).max(1);
        config.validate()?;
        Ok(config)
    }

    /// The processor configuration (cache line size follows the ORAM block).
    pub fn processor(&self) -> ProcessorConfig {
        ProcessorConfig {
            hierarchy: HierarchyConfig {
                l1: CacheConfig {
                    capacity_bytes: 32 << 10,
                    associativity: 4,
                    line_bytes: self.block_bytes,
                },
                l2: CacheConfig {
                    capacity_bytes: 1 << 20,
                    associativity: 16,
                    line_bytes: self.block_bytes,
                },
                ..HierarchyConfig::default()
            },
            cycles_per_instruction: 1,
        }
    }
}

/// The outcome of one (benchmark, scheme) run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkRun {
    /// The benchmark.
    pub benchmark: SpecBenchmark,
    /// The design point.
    pub scheme: SchemePoint,
    /// Processor-side results under the scheme.
    pub result: RunResult,
    /// Processor-side results of the insecure baseline on the same trace.
    pub insecure: RunResult,
    /// Slowdown relative to the insecure baseline (the y-axis of Figures 6
    /// and 8).
    pub slowdown: f64,
    /// ORAM traffic of the measured phase: the simulated frontend's own
    /// statistics (zeroed for the insecure run; requests and data accesses
    /// only for Phantom).
    pub traffic: FrontendStats,
}

impl BenchmarkRun {
    /// Average bytes moved per ORAM request, split `(posmap, data)` — the
    /// quantity plotted in Figures 7 and 8 (right).
    pub fn bytes_per_access(&self) -> (f64, f64) {
        let requests = self.traffic.frontend_requests.max(1) as f64;
        (
            self.traffic.posmap_bytes_moved as f64 / requests,
            self.traffic.data_bytes_moved as f64 / requests,
        )
    }
}

/// The simulated ORAM: the functional frontend over the sparse insecure
/// backend, so a paper-scale tree costs memory only for the blocks a trace
/// touches while PRF leaves, PMMAC and group remaps all run as deployed.
pub type SimOram = FreecursiveOram<InsecureBackend>;

/// `config`'s frontend behind the processor adapter, charging each path
/// access the calibrated latency of its tree (over `cfg`'s DRAM) and, with a
/// PLB, each PosMap block fetch the frontend's refill latency.
///
/// # Errors
///
/// As for [`FreecursiveOram::new`].
pub fn oram_memory(
    config: FreecursiveConfig,
    cfg: &SimulationConfig,
) -> Result<FunctionalOramMemory<SimOram, impl Fn(&SimOram) -> u64>, FreecursiveError> {
    let oram = SimOram::new(config)?;
    let models: Vec<_> = oram
        .trees()
        .iter()
        .map(|tree| OramLatencyModel::new(*tree.params(), cfg.dram(), cfg.latency_samples))
        .collect();
    let per_access: Vec<u64> = models
        .iter()
        .map(|model| model.backend_access_cycles(oram.config().pmmac))
        .collect();
    let refill = match oram.config().plb_capacity_bytes {
        0 => 0,
        _ => models[0].pipeline.frontend,
    };
    let cycles = move |oram: &SimOram| {
        let paths: u64 = (oram.trees().iter().zip(&per_access))
            .map(|(tree, cost)| tree.stats().path_accesses * cost)
            .sum();
        paths + refill * oram.stats().posmap_backend_accesses
    };
    Ok(FunctionalOramMemory::new(oram, cycles))
}

/// Drives a processor with the benchmark's trace: a warm-up phase (caches and
/// PLB fill up, statistics discarded) followed by the measured phase.
fn drive<M: cache_sim::MainMemory>(
    cpu: &mut SecureProcessor<M>,
    benchmark: SpecBenchmark,
    cfg: &SimulationConfig,
    reset_memory: impl FnOnce(&mut M),
) {
    let mut gen = TraceGenerator::new(benchmark.profile(), cfg.trace_seed);
    for access in gen.by_ref().take(cfg.warmup_accesses as usize) {
        cpu.step(access.gap, access.addr, access.is_write);
    }
    cpu.reset_result();
    reset_memory(cpu.memory_mut());
    for access in gen.take(cfg.memory_accesses as usize) {
        cpu.step(access.gap, access.addr, access.is_write);
    }
}

/// Runs the insecure (flat DRAM) baseline for a benchmark.
pub fn run_insecure(benchmark: SpecBenchmark, cfg: &SimulationConfig) -> RunResult {
    let mut cpu = SecureProcessor::new(
        cfg.processor(),
        FlatLatencyMemory {
            latency: cfg.insecure_latency,
        },
    );
    drive(&mut cpu, benchmark, cfg, |_| {});
    cpu.result()
}

/// Runs one benchmark under one ORAM design point (or the insecure baseline)
/// and returns the paired results.
pub fn run_benchmark(
    benchmark: SpecBenchmark,
    scheme: SchemePoint,
    cfg: &SimulationConfig,
) -> BenchmarkRun {
    let insecure = run_insecure(benchmark, cfg);
    match scheme {
        SchemePoint::Insecure => BenchmarkRun {
            benchmark,
            scheme,
            result: insecure,
            insecure,
            slowdown: 1.0,
            traffic: FrontendStats::default(),
        },
        SchemePoint::Phantom4K => {
            let oram = PhantomOram::new(PhantomConfig {
                dram: cfg.dram(),
                latency_samples: cfg.latency_samples,
                ..PhantomConfig::default()
            });
            let mut cpu = SecureProcessor::new(cfg.processor(), PhantomMemory::new(oram));
            drive(&mut cpu, benchmark, cfg, |m| m.reset_stats());
            let result = cpu.result();
            let phantom = cpu.memory().oram().stats();
            let traffic = FrontendStats {
                frontend_requests: phantom.requests,
                data_backend_accesses: phantom.oram_accesses,
                data_bytes_moved: phantom.bytes_moved,
                ..FrontendStats::default()
            };
            BenchmarkRun {
                benchmark,
                scheme,
                result,
                insecure,
                slowdown: result.total_cycles as f64 / insecure.total_cycles as f64,
                traffic,
            }
        }
        _ => {
            let config = cfg
                .oram_config(scheme)
                .unwrap_or_else(|e| panic!("{}: {e}", scheme.label()));
            let memory =
                oram_memory(config, cfg).unwrap_or_else(|e| panic!("{}: {e}", scheme.label()));
            let mut cpu = SecureProcessor::new(cfg.processor(), memory);
            drive(&mut cpu, benchmark, cfg, |m| m.reset_stats());
            let result = cpu.result();
            let traffic = cpu.memory().oram().stats().clone();
            BenchmarkRun {
                benchmark,
                scheme,
                result,
                insecure,
                slowdown: result.total_cycles as f64 / insecure.total_cycles as f64,
                traffic,
            }
        }
    }
}

/// Geometric mean of a slice of positive numbers (the paper reports geomean
/// speedups).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::MainMemory;
    use freecursive::PosMapFormat;

    fn small_sim() -> SimulationConfig {
        SimulationConfig {
            data_capacity_bytes: 64 << 20,
            latency_samples: 5,
            ..SimulationConfig::paper_default()
        }
    }

    /// `scheme` at 64 MiB behind the simulator's adapter.
    fn small(scheme: SchemePoint) -> FunctionalOramMemory<SimOram, impl Fn(&SimOram) -> u64> {
        let sim = small_sim();
        oram_memory(sim.oram_config(scheme).unwrap(), &sim).unwrap()
    }

    /// Serves a read of data block `addr` and returns its charged cycles.
    fn read_block(mem: &mut impl MainMemory, addr: u64) -> u64 {
        mem.access(addr * 64, false)
    }

    #[test]
    fn baseline_walks_every_level_every_time() {
        // R_X8's own 8 KB on-chip PosMap (the simulation gives it 256 KB,
        // which leaves fewer than three levels at 64 MiB).
        let config = OramBuilder::for_scheme(SchemePoint::RX8)
            .num_blocks((64 << 20) / 64)
            .freecursive_config()
            .unwrap();
        let mut mem = oram_memory(config, &small_sim()).unwrap();
        let h = u64::from(mem.oram().num_levels());
        assert!(h >= 3);
        for addr in 0..100u64 {
            read_block(&mut mem, addr);
        }
        // No request can fetch more than the H - 1 PosMap blocks above its
        // data block, so the totals pin every single request.
        let stats = mem.oram().stats();
        assert_eq!(stats.posmap_backend_accesses, 100 * (h - 1));
        assert_eq!(stats.data_backend_accesses, 100);
    }

    #[test]
    fn plb_design_skips_posmap_accesses_on_locality() {
        let mut mem = small(SchemePoint::PcX32);
        // Sequential block addresses share PosMap blocks.
        for addr in 0..1000u64 {
            read_block(&mut mem, addr);
        }
        let per_request = mem.oram().stats().posmap_backend_accesses as f64 / 1000.0;
        assert!(
            per_request < 0.5,
            "posmap accesses per request {per_request}"
        );
    }

    #[test]
    fn plb_design_costs_less_than_baseline_on_sequential_traffic() {
        let mut baseline = small(SchemePoint::RX8);
        let mut plb = small(SchemePoint::PcX32);
        let mut base_cycles = 0;
        let mut plb_cycles = 0;
        for addr in 0..500u64 {
            base_cycles += read_block(&mut baseline, addr);
            plb_cycles += read_block(&mut plb, addr);
        }
        assert!(
            plb_cycles < base_cycles,
            "PLB {plb_cycles} should beat baseline {base_cycles}"
        );
    }

    #[test]
    fn pmmac_increases_per_access_bytes_via_mac_field() {
        let mut pc = small(SchemePoint::PcX32);
        let mut pic = small(SchemePoint::PicX32);
        read_block(&mut pc, 0);
        read_block(&mut pic, 0);
        let data_bytes =
            |mem: &FunctionalOramMemory<SimOram, _>| mem.oram().stats().data_bytes_moved;
        assert!(data_bytes(&pic) >= data_bytes(&pc));
        assert!(data_bytes(&pc) > 0);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        // Two identical adapters serve the same requests; one resets in
        // between.  The charge re-bases on the reset, so the next request
        // costs exactly what it costs the twin that never reset.
        let mut kept = small(SchemePoint::PcX32);
        let mut reset = small(SchemePoint::PcX32);
        let mut cycles = 0;
        for addr in 0..50u64 {
            cycles += read_block(&mut kept, addr * 1000);
            read_block(&mut reset, addr * 1000);
        }
        assert_eq!(reset.oram().stats().frontend_requests, 50);
        assert!(cycles > 0);
        reset.reset_stats();
        assert_eq!(reset.oram().stats().frontend_requests, 0);
        let next = read_block(&mut reset, 7);
        assert_eq!(next, read_block(&mut kept, 7));
        assert!(next > 0 && next < cycles);
    }

    #[test]
    fn oram_memory_translates_byte_addresses() {
        let mut mem = small(SchemePoint::PcX32);
        let lat = mem.access(0x1000, false);
        assert!(
            lat > 100,
            "an ORAM access takes hundreds of cycles, got {lat}"
        );
        assert_eq!(mem.oram().stats().frontend_requests, 1);
        assert_eq!(mem.oram().stats().data_backend_accesses, 1);
    }

    #[test]
    fn group_remaps_are_walked_and_charged_at_their_trees_cost() {
        // Tiny individual counters overflow every 2^3 accesses of one block;
        // each overflow remaps the block's X - 1 siblings (§5.2.2) through
        // the same tree, and each of those path accesses is charged.
        let sim = small_sim();
        let config = OramBuilder::for_scheme(SchemePoint::PicX32)
            .num_blocks(1 << 10)
            .posmap_format(PosMapFormat::Compressed { alpha: 32, beta: 3 })
            .onchip_entries(32)
            .freecursive_config()
            .unwrap();
        let mut mem = oram_memory(config, &sim).unwrap();
        let mut cycles = 0;
        for _ in 0..40 {
            cycles += read_block(&mut mem, 5);
        }
        let stats = mem.oram().stats();
        assert!(stats.group_remap_accesses > 0);
        let tree = OramLatencyModel::new(
            *mem.oram().trees()[0].params(),
            sim.dram(),
            sim.latency_samples,
        );
        let paths = stats.total_backend_accesses();
        let expected = paths * tree.backend_access_cycles(true)
            + stats.posmap_backend_accesses * tree.pipeline.frontend;
        assert_eq!(cycles, expected);
    }

    #[test]
    fn insecure_run_has_slowdown_one() {
        let cfg = SimulationConfig::quick_test();
        let run = run_benchmark(SpecBenchmark::Sjeng, SchemePoint::Insecure, &cfg);
        assert_eq!(run.slowdown, 1.0);
    }

    #[test]
    fn oram_slowdowns_are_ordered_sensibly() {
        // Memory-bound libquantum must suffer far more than compute-bound
        // sjeng, and the PLB design must beat the recursive baseline —
        // the qualitative content of Figure 6.
        let cfg = SimulationConfig::quick_test();
        let libq_base = run_benchmark(SpecBenchmark::Libquantum, SchemePoint::RX8, &cfg);
        let libq_pc = run_benchmark(SpecBenchmark::Libquantum, SchemePoint::PcX32, &cfg);
        let sjeng_base = run_benchmark(SpecBenchmark::Sjeng, SchemePoint::RX8, &cfg);
        assert!(libq_base.slowdown > 2.0 * sjeng_base.slowdown);
        assert!(libq_pc.slowdown < libq_base.slowdown);
        assert!(sjeng_base.slowdown > 1.0);
    }

    #[test]
    fn pc_reduces_posmap_traffic_versus_baseline() {
        let cfg = SimulationConfig::quick_test();
        // libquantum's streaming miss pattern is the PLB's best case: nearly
        // every PosMap lookup hits.  (Benchmarks whose misses are dominated by
        // pointer chasing over many megabytes see smaller reductions; Figure
        // 7's driver reports the average across benchmarks.)
        let base = run_benchmark(SpecBenchmark::Libquantum, SchemePoint::RX8, &cfg);
        let pc = run_benchmark(SpecBenchmark::Libquantum, SchemePoint::PcX32, &cfg);
        let (base_pm, _) = base.bytes_per_access();
        let (pc_pm, _) = pc.bytes_per_access();
        assert!(
            pc_pm < base_pm * 0.5,
            "PLB+compression should cut PosMap traffic: {pc_pm} vs {base_pm}"
        );
    }

    #[test]
    fn oram_config_ignores_the_storage_environment_and_sizes_by_preset() {
        // Under ORAM_STORAGE / ORAM_DURABILITY (the CI storage legs) the
        // simulator still resolves the in-memory, unlogged configuration.
        let mut cfg = SimulationConfig::quick_test();
        let config = cfg.oram_config(SchemePoint::PcX32).unwrap();
        assert_eq!(config.storage, StorageKind::Mem);
        assert_eq!(config.durability, Durability::None);
        let baseline = cfg.oram_config(SchemePoint::RX8).unwrap();
        assert_eq!(baseline.onchip_entries, (256 << 10) / 2);
        // Dropping PC_X32's PLB keeps its 4-byte on-chip entries; only the
        // baseline gets 2-byte entries and the 256 KB floor.
        cfg.plb_capacity_bytes = 0;
        let config = cfg.oram_config(SchemePoint::PcX32).unwrap();
        assert_eq!(config.plb_capacity_bytes, 0);
        assert_eq!(config.onchip_entries, (cfg.onchip_posmap_bytes / 4) as u64);
    }

    #[test]
    fn geomean_of_identical_values_is_that_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
