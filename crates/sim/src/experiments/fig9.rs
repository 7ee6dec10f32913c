//! Figure 9: speedup of PC_X32 over a Phantom-style \[21\] configuration that
//! avoids recursion by using 4 KB ORAM blocks and an entirely on-chip PosMap.
//!
//! The paper reports a ~10× average speedup: a 64-byte-block recursive design
//! moves ~2 % of the bytes Phantom moves per access, which outweighs the
//! extra PosMap-block accesses.

use crate::experiments::ExperimentScale;
use crate::report::{f2, format_table};
use crate::runner::{geomean, run_benchmark, SimulationConfig};
use freecursive::SchemePoint;
use trace_gen::SpecBenchmark;

/// One benchmark's comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig9Row {
    /// The benchmark.
    pub benchmark: SpecBenchmark,
    /// Slowdown of the Phantom-style configuration vs insecure.
    pub phantom_slowdown: f64,
    /// Slowdown of PC_X32 vs insecure.
    pub pc_x32_slowdown: f64,
    /// Speedup of PC_X32 over Phantom (the y-axis of the figure, log scale).
    pub speedup: f64,
}

/// The full figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Result {
    /// One row per benchmark.
    pub rows: Vec<Fig9Row>,
    /// Geometric-mean speedup (paper: ~10×).
    pub geomean_speedup: f64,
}

/// Regenerates Figure 9.
pub fn run(scale: ExperimentScale) -> Fig9Result {
    // Phantom is modelled with its own 128-byte processor cache lines
    // (§7.1.6); PC_X32 uses the Table 1 configuration.
    let phantom_cfg = SimulationConfig {
        block_bytes: 128,
        memory_accesses: scale.memory_accesses(),
        warmup_accesses: scale.warmup_accesses(),
        latency_samples: scale.latency_samples(),
        ..SimulationConfig::paper_default()
    };
    let pc_cfg = SimulationConfig {
        memory_accesses: scale.memory_accesses(),
        warmup_accesses: scale.warmup_accesses(),
        latency_samples: scale.latency_samples(),
        ..SimulationConfig::paper_default()
    };
    let mut rows = Vec::new();
    for benchmark in scale.benchmarks() {
        let phantom = run_benchmark(benchmark, SchemePoint::Phantom4K, &phantom_cfg);
        let pc = run_benchmark(benchmark, SchemePoint::PcX32, &pc_cfg);
        rows.push(Fig9Row {
            benchmark,
            phantom_slowdown: phantom.slowdown,
            pc_x32_slowdown: pc.slowdown,
            speedup: phantom.slowdown / pc.slowdown,
        });
    }
    let geomean_speedup = geomean(&rows.iter().map(|r| r.speedup).collect::<Vec<_>>());
    Fig9Result {
        rows,
        geomean_speedup,
    }
}

impl Fig9Result {
    /// Renders the figure as a table.
    pub fn render(&self) -> String {
        let headers = [
            "bench",
            "Phantom-4KB slowdown",
            "PC_X32 slowdown",
            "speedup",
        ];
        let mut rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.benchmark.label().to_string(),
                    f2(r.phantom_slowdown),
                    f2(r.pc_x32_slowdown),
                    f2(r.speedup),
                ]
            })
            .collect();
        rows.push(vec![
            "GeoMean".into(),
            String::new(),
            String::new(),
            f2(self.geomean_speedup),
        ]);
        format!(
            "Figure 9: PC_X32 speedup over a Phantom-style 4 KB-block ORAM (paper: ~10x geomean)\n{}",
            format_table(&headers, &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_x32_is_much_faster_than_phantom_with_4kb_blocks() {
        let result = run(ExperimentScale::Quick);
        assert!(
            result.geomean_speedup > 2.0,
            "geomean speedup {} should be large (paper: ~10x)",
            result.geomean_speedup
        );
        // Most benchmarks must favour PC_X32 by a wide margin.  A purely
        // streaming benchmark (libquantum) can amortise Phantom's 4 KB blocks
        // across consecutive misses and come out near break-even, so we do
        // not require every single row to exceed 1.
        let winners = result.rows.iter().filter(|r| r.speedup > 1.5).count();
        assert!(
            winners * 3 >= result.rows.len() * 2,
            "at least two thirds of benchmarks should strongly favour PC_X32: {:?}",
            result.rows
        );
    }
}
