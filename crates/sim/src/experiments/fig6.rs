//! Figure 6: slowdown relative to an insecure system for the baseline
//! Recursive ORAM (`R_X8`) and the paper's design points (`PC_X32`,
//! `PIC_X32`), per SPEC benchmark.
//!
//! The headline results: PC_X32 achieves a 1.43× speedup over R_X8 despite a
//! smaller on-chip PosMap, and adding integrity (PIC_X32) costs only ~7 %.

use crate::experiments::ExperimentScale;
use crate::report::{f2, format_table};
use crate::runner::{geomean, run_benchmark, BenchmarkRun, SimulationConfig};
use freecursive::SchemePoint;
use trace_gen::SpecBenchmark;

/// The schemes compared in the figure.
pub const SCHEMES: [SchemePoint; 3] = [SchemePoint::RX8, SchemePoint::PcX32, SchemePoint::PicX32];

/// One benchmark's slowdowns.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// The benchmark.
    pub benchmark: SpecBenchmark,
    /// `(scheme, slowdown)` pairs.
    pub slowdowns: Vec<(SchemePoint, f64)>,
}

/// The full figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Result {
    /// One row per benchmark.
    pub rows: Vec<Fig6Row>,
    /// Geometric-mean slowdown per scheme.
    pub geomeans: Vec<(SchemePoint, f64)>,
}

/// Regenerates Figure 6.
pub fn run(scale: ExperimentScale) -> Fig6Result {
    let cfg = SimulationConfig {
        memory_accesses: scale.memory_accesses(),
        warmup_accesses: scale.warmup_accesses(),
        latency_samples: scale.latency_samples(),
        ..SimulationConfig::paper_default()
    };
    let mut rows = Vec::new();
    for benchmark in scale.benchmarks() {
        let slowdowns: Vec<(SchemePoint, f64)> = SCHEMES
            .iter()
            .map(|&scheme| {
                let run: BenchmarkRun = run_benchmark(benchmark, scheme, &cfg);
                (scheme, run.slowdown)
            })
            .collect();
        rows.push(Fig6Row {
            benchmark,
            slowdowns,
        });
    }
    let geomeans = SCHEMES
        .iter()
        .map(|&scheme| {
            let values: Vec<f64> = rows
                .iter()
                .map(|r| r.slowdowns.iter().find(|(s, _)| *s == scheme).unwrap().1)
                .collect();
            (scheme, geomean(&values))
        })
        .collect();
    Fig6Result { rows, geomeans }
}

impl Fig6Result {
    /// Speedup of PC_X32 over the R_X8 baseline (geomean); the paper reports
    /// 1.43×.
    pub fn pc_speedup_over_baseline(&self) -> f64 {
        let get = |s: SchemePoint| self.geomeans.iter().find(|(x, _)| *x == s).unwrap().1;
        get(SchemePoint::RX8) / get(SchemePoint::PcX32)
    }

    /// Overhead of adding PMMAC integrity on top of PC_X32 (geomean); the
    /// paper reports ~7 %.
    pub fn integrity_overhead(&self) -> f64 {
        let get = |s: SchemePoint| self.geomeans.iter().find(|(x, _)| *x == s).unwrap().1;
        get(SchemePoint::PicX32) / get(SchemePoint::PcX32) - 1.0
    }

    /// Renders the figure as a table.
    pub fn render(&self) -> String {
        let headers = ["bench", "R_X8", "PC_X32", "PIC_X32"];
        let mut rows = Vec::new();
        for row in &self.rows {
            let mut cells = vec![row.benchmark.label().to_string()];
            for (_, v) in &row.slowdowns {
                cells.push(f2(*v));
            }
            rows.push(cells);
        }
        let mut avg = vec!["GeoMean".to_string()];
        for (_, v) in &self.geomeans {
            avg.push(f2(*v));
        }
        rows.push(avg);
        format!(
            "Figure 6: slowdown vs insecure DRAM (4 GB ORAM, 64 B blocks, 2 channels)\n{}\n\
             PC_X32 speedup over R_X8 (geomean): {:.2}x  (paper: 1.43x)\n\
             PIC_X32 overhead over PC_X32:        {:.1}%   (paper: 7%)\n",
            format_table(&headers, &rows),
            self.pc_speedup_over_baseline(),
            self.integrity_overhead() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plb_design_beats_baseline_and_integrity_is_cheap() {
        let result = run(ExperimentScale::Quick);
        let speedup = result.pc_speedup_over_baseline();
        assert!(
            speedup > 1.05,
            "PC_X32 should beat the recursive baseline, got {speedup}"
        );
        let overhead = result.integrity_overhead();
        assert!(
            (0.0..0.35).contains(&overhead),
            "integrity overhead {overhead} should be small"
        );
    }

    #[test]
    fn all_slowdowns_exceed_one() {
        let result = run(ExperimentScale::Quick);
        for row in &result.rows {
            for (scheme, slowdown) in &row.slowdowns {
                assert!(
                    *slowdown > 1.0,
                    "{:?}/{scheme:?} slowdown {slowdown}",
                    row.benchmark
                );
            }
        }
    }

    #[test]
    fn memory_bound_benchmarks_suffer_more() {
        let result = run(ExperimentScale::Quick);
        let slowdown_of = |b: SpecBenchmark| {
            result
                .rows
                .iter()
                .find(|r| r.benchmark == b)
                .map(|r| r.slowdowns[0].1)
                .unwrap()
        };
        assert!(slowdown_of(SpecBenchmark::Libquantum) > slowdown_of(SpecBenchmark::Sjeng));
    }
}
