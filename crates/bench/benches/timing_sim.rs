//! Criterion benchmarks of the scalable timing simulator: DRAM path latency
//! calibration, frontend accesses through the simulator's processor
//! adapter, and a full (small) benchmark run.

use cache_sim::MainMemory;
use criterion::{criterion_group, criterion_main, Criterion};
use dram_sim::{DramConfig, DramSim};
use oram_sim::runner::{oram_memory, run_benchmark, SimulationConfig};
use oram_sim::SchemePoint;
use trace_gen::SpecBenchmark;

fn bench_dram_path(c: &mut Criterion) {
    let cfg = DramConfig::default();
    c.bench_function("sim/dram_16kb_path", |b| {
        b.iter(|| {
            let mut dram = DramSim::new(cfg.clone());
            dram.access(0, 16_000, false, 0)
        });
    });
}

fn bench_timing_frontend(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/timing_frontend");
    let sim = SimulationConfig {
        data_capacity_bytes: 1 << 30,
        latency_samples: 4,
        ..SimulationConfig::paper_default()
    };
    for scheme in [SchemePoint::RX8, SchemePoint::PcX32, SchemePoint::PicX32] {
        let config = sim.oram_config(scheme).expect("a tree-backed design point");
        let mut memory = oram_memory(config, &sim).expect("a buildable design point");
        let mut addr = 0u64;
        group.bench_function(scheme.label(), |b| {
            b.iter(|| {
                addr = addr.wrapping_add(0x9e3779b9) % (1 << 24);
                memory.access(addr * sim.block_bytes as u64, false)
            });
        });
    }
    group.finish();
}

fn bench_full_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/full_benchmark_run");
    group.sample_size(10);
    let cfg = SimulationConfig {
        memory_accesses: 10_000,
        latency_samples: 4,
        ..SimulationConfig::quick_test()
    };
    group.bench_function("sjeng_pc_x32_10k_accesses", |b| {
        b.iter(|| run_benchmark(SpecBenchmark::Sjeng, SchemePoint::PcX32, &cfg));
    });
    group.finish();
}

fn quick_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_dram_path, bench_timing_frontend, bench_full_run
}
criterion_main!(benches);
