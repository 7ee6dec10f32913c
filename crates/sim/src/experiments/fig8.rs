//! Figure 8: the comparison against the prior-art Recursive ORAM of Ren et
//! al. \[26\], under that paper's own parameters (4 DRAM channels, 2.6 GHz
//! core, 128-byte cache lines and ORAM blocks, Z = 3).
//!
//! Three design points are compared: the `R_X8` baseline, `PC_X64` (PLB +
//! compression at 128-byte blocks) and `PC_X32` (64-byte blocks).  The paper
//! reports both achieve ≈1.27× speedup over the baseline, with PC_X64
//! reducing PosMap traffic by 95 % and overall traffic by 37 %.

use crate::experiments::ExperimentScale;
use crate::report::{f2, format_table, kb};
use crate::runner::{geomean, run_benchmark, SimulationConfig};
use freecursive::SchemePoint;
use trace_gen::SpecBenchmark;

/// One benchmark's results.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Row {
    /// The benchmark.
    pub benchmark: SpecBenchmark,
    /// `(scheme, slowdown, posmap KB/access, data KB/access)` per scheme.
    pub entries: Vec<(SchemePoint, f64, f64, f64)>,
}

/// The full figure (slowdowns on the left, data movement on the right).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Result {
    /// One row per benchmark.
    pub rows: Vec<Fig8Row>,
    /// Geomean slowdown per scheme.
    pub geomeans: Vec<(SchemePoint, f64)>,
}

/// The schemes compared.
pub const SCHEMES: [SchemePoint; 3] = [SchemePoint::RX8, SchemePoint::PcX64, SchemePoint::PcX32];

fn config_for(scheme: SchemePoint, scale: ExperimentScale) -> SimulationConfig {
    let mut cfg = SimulationConfig {
        memory_accesses: scale.memory_accesses(),
        warmup_accesses: scale.warmup_accesses(),
        latency_samples: scale.latency_samples(),
        ..SimulationConfig::isca13_params()
    };
    // PC_X32 keeps 64-byte cache lines / ORAM blocks (§7.1.5).
    if scheme == SchemePoint::PcX32 {
        cfg.block_bytes = 64;
        cfg.z = 4;
    }
    cfg
}

/// Regenerates Figure 8.
pub fn run(scale: ExperimentScale) -> Fig8Result {
    let mut rows = Vec::new();
    for benchmark in scale.benchmarks() {
        let mut entries = Vec::new();
        for &scheme in SCHEMES.iter() {
            let cfg = config_for(scheme, scale);
            let run = run_benchmark(benchmark, scheme, &cfg);
            let (p, d) = run.bytes_per_access();
            entries.push((scheme, run.slowdown, p / 1024.0, d / 1024.0));
        }
        rows.push(Fig8Row { benchmark, entries });
    }
    let geomeans = SCHEMES
        .iter()
        .map(|&scheme| {
            let values: Vec<f64> = rows
                .iter()
                .map(|r| r.entries.iter().find(|(s, ..)| *s == scheme).unwrap().1)
                .collect();
            (scheme, geomean(&values))
        })
        .collect();
    Fig8Result { rows, geomeans }
}

impl Fig8Result {
    /// Geomean speedup of a PLB design point over the R_X8 baseline
    /// (paper: ≈1.27× for both PC_X64 and PC_X32).
    pub fn speedup_over_baseline(&self, scheme: SchemePoint) -> f64 {
        let get = |s: SchemePoint| self.geomeans.iter().find(|(x, _)| *x == s).unwrap().1;
        get(SchemePoint::RX8) / get(scheme)
    }

    /// Average PosMap-traffic reduction of PC_X64 over the baseline
    /// (paper: 95 %).
    pub fn posmap_reduction_pc_x64(&self) -> f64 {
        let avg = |scheme: SchemePoint| {
            let v: Vec<f64> = self
                .rows
                .iter()
                .map(|r| r.entries.iter().find(|(s, ..)| *s == scheme).unwrap().2)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        1.0 - avg(SchemePoint::PcX64) / avg(SchemePoint::RX8)
    }

    /// Renders the figure as a table.
    pub fn render(&self) -> String {
        let headers = [
            "bench",
            "R_X8",
            "PC_X64",
            "PC_X32",
            "R_X8 pm/dat KB",
            "PC_X64 pm/dat KB",
        ];
        let mut rows = Vec::new();
        for row in &self.rows {
            let get = |s: SchemePoint| row.entries.iter().find(|(x, ..)| *x == s).unwrap();
            let base = get(SchemePoint::RX8);
            let pc64 = get(SchemePoint::PcX64);
            let pc32 = get(SchemePoint::PcX32);
            rows.push(vec![
                row.benchmark.label().to_string(),
                f2(base.1),
                f2(pc64.1),
                f2(pc32.1),
                format!("{}/{}", kb(base.2 * 1024.0), kb(base.3 * 1024.0)),
                format!("{}/{}", kb(pc64.2 * 1024.0), kb(pc64.3 * 1024.0)),
            ]);
        }
        format!(
            "Figure 8: slowdowns and data movement under the parameters of [26]\n{}\n\
             PC_X64 speedup over R_X8 (geomean): {:.2}x (paper ~1.27x)\n\
             PC_X32 speedup over R_X8 (geomean): {:.2}x (paper ~1.27x)\n\
             PC_X64 PosMap-traffic reduction:    {:.0}%  (paper 95%)\n",
            format_table(&headers, &rows),
            self.speedup_over_baseline(SchemePoint::PcX64),
            self.speedup_over_baseline(SchemePoint::PcX32),
            self.posmap_reduction_pc_x64() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plb_designs_beat_the_baseline_under_isca13_parameters() {
        let result = run(ExperimentScale::Quick);
        assert!(result.speedup_over_baseline(SchemePoint::PcX64) > 1.02);
        assert!(result.speedup_over_baseline(SchemePoint::PcX32) > 1.02);
    }

    #[test]
    fn posmap_traffic_reduction_is_large() {
        let result = run(ExperimentScale::Quick);
        let reduction = result.posmap_reduction_pc_x64();
        assert!(
            reduction > 0.6,
            "PC_X64 should remove most PosMap traffic, got {reduction}"
        );
    }
}
