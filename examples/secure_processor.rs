//! Secure-processor simulation: replay a synthetic SPEC-like workload through
//! the Table 1 processor model with ORAM main memory, and reproduce the kind
//! of slowdown comparison shown in Figure 6 — for a handful of benchmarks and
//! design points.
//!
//! Run with:
//! ```text
//! cargo run --release -p bench --example secure_processor
//! ```

use oram_sim::runner::{run_benchmark, SimulationConfig};
use oram_sim::SchemePoint;
use trace_gen::SpecBenchmark;

fn main() {
    let cfg = SimulationConfig {
        memory_accesses: 100_000,
        latency_samples: 20,
        ..SimulationConfig::paper_default()
    };

    let benchmarks = [
        SpecBenchmark::Libquantum,
        SpecBenchmark::Mcf,
        SpecBenchmark::Bzip2,
        SpecBenchmark::Sjeng,
    ];
    let schemes = [SchemePoint::RX8, SchemePoint::PcX32, SchemePoint::PicX32];

    println!("== Secure processor with Freecursive ORAM main memory ==");
    println!(
        "4 GB ORAM, 64 B blocks, Z=4, 2 DRAM channels, 64 KB PLB, {} memory accesses per run\n",
        cfg.memory_accesses
    );
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>14}",
        "benchmark", "R_X8", "PC_X32", "PIC_X32", "MPKI (insecure)"
    );
    for benchmark in benchmarks {
        let mut slowdowns = Vec::new();
        let mut mpki = 0.0;
        for scheme in schemes {
            let run = run_benchmark(benchmark, scheme, &cfg);
            mpki = run.insecure.mpki();
            slowdowns.push(run.slowdown);
        }
        println!(
            "{:<12} {:>9.2}x {:>9.2}x {:>9.2}x {:>14.1}",
            benchmark.label(),
            slowdowns[0],
            slowdowns[1],
            slowdowns[2],
            mpki
        );
    }
    println!(
        "\nThe PLB + compressed PosMap (PC_X32) removes most of the Recursive ORAM \
         overhead;\nadding PMMAC integrity (PIC_X32) costs only a few percent more."
    );
}
