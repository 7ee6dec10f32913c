//! Figure 5: the PLB design space — runtime for 8/32/64/128 KB direct-mapped
//! PLBs, normalised to the 8 KB point, per SPEC benchmark.
//!
//! The paper finds that most benchmarks gain ≤10 % from a larger PLB, while
//! `bzip2` and `mcf` (whose pointer-heavy working sets cover more PosMap
//! blocks than an 8 KB PLB can hold) gain 67 % and 49 % respectively, and
//! settles on a 64 KB direct-mapped PLB.

use crate::experiments::ExperimentScale;
use crate::report::{f2, format_table};
use crate::runner::{run_benchmark, SimulationConfig};
use freecursive::SchemePoint;
use trace_gen::SpecBenchmark;

/// The PLB capacities swept in the figure.
pub const PLB_CAPACITIES: [usize; 4] = [8 << 10, 32 << 10, 64 << 10, 128 << 10];

/// One benchmark's sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// The benchmark.
    pub benchmark: SpecBenchmark,
    /// `(plb_bytes, runtime_normalised_to_8kb)` pairs.
    pub normalised_runtime: Vec<(usize, f64)>,
}

/// The full figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Result {
    /// One row per benchmark plus the average.
    pub rows: Vec<Fig5Row>,
}

/// Regenerates Figure 5.
pub fn run(scale: ExperimentScale) -> Fig5Result {
    let mut rows = Vec::new();
    let mut sums = vec![0.0f64; PLB_CAPACITIES.len()];
    let benchmarks = scale.benchmarks();
    for &benchmark in &benchmarks {
        let mut cycles = Vec::new();
        for &plb in PLB_CAPACITIES.iter() {
            let cfg = SimulationConfig {
                plb_capacity_bytes: plb,
                memory_accesses: scale.memory_accesses(),
                warmup_accesses: scale.warmup_accesses(),
                latency_samples: scale.latency_samples(),
                ..SimulationConfig::paper_default()
            };
            let run = run_benchmark(benchmark, SchemePoint::PcX32, &cfg);
            cycles.push(run.result.total_cycles as f64);
        }
        let base = cycles[0];
        let normalised: Vec<(usize, f64)> = PLB_CAPACITIES
            .iter()
            .zip(cycles.iter())
            .map(|(&plb, &c)| (plb, c / base))
            .collect();
        for (i, (_, v)) in normalised.iter().enumerate() {
            sums[i] += v;
        }
        rows.push(Fig5Row {
            benchmark,
            normalised_runtime: normalised,
        });
    }
    Fig5Result { rows }
}

impl Fig5Result {
    /// Renders the figure as a table (benchmarks × PLB sizes).
    pub fn render(&self) -> String {
        let headers = ["bench", "8KB", "32KB", "64KB", "128KB"];
        let mut rows = Vec::new();
        let mut sums = vec![0.0f64; PLB_CAPACITIES.len()];
        for row in &self.rows {
            let mut cells = vec![row.benchmark.label().to_string()];
            for (i, (_, v)) in row.normalised_runtime.iter().enumerate() {
                sums[i] += v;
                cells.push(f2(*v));
            }
            rows.push(cells);
        }
        let n = self.rows.len() as f64;
        let mut avg = vec!["Avg".to_string()];
        for s in &sums {
            avg.push(f2(s / n));
        }
        rows.push(avg);
        format!(
            "Figure 5: runtime vs PLB capacity, normalised to the 8 KB PLB (PC_X32)\n{}",
            format_table(&headers, &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_plbs_never_hurt_much_and_help_plb_sensitive_benchmarks() {
        let result = run(ExperimentScale::Quick);
        for row in &result.rows {
            let base = row.normalised_runtime[0].1;
            assert!((base - 1.0).abs() < 1e-9);
            for (_, v) in &row.normalised_runtime {
                assert!(*v <= 1.05, "{:?}: {v}", row.benchmark);
            }
        }
        // bzip2 is the PLB-capacity-sensitive benchmark in the quick set: its
        // 128 KB point must improve on 8 KB more than sjeng's does.
        let gain = |b: SpecBenchmark| {
            result
                .rows
                .iter()
                .find(|r| r.benchmark == b)
                .map(|r| 1.0 - r.normalised_runtime.last().unwrap().1)
                .unwrap()
        };
        assert!(
            gain(SpecBenchmark::Bzip2) >= gain(SpecBenchmark::Sjeng),
            "bzip2 {} vs sjeng {}",
            gain(SpecBenchmark::Bzip2),
            gain(SpecBenchmark::Sjeng)
        );
    }

    #[test]
    fn render_lists_all_capacities() {
        let text = run(ExperimentScale::Quick).render();
        for cap in ["8KB", "32KB", "64KB", "128KB", "Avg"] {
            assert!(text.contains(cap));
        }
    }
}
