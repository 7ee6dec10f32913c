//! Ablation studies for the design choices the paper calls out in prose:
//!
//! * **PLB associativity** (§7.1.3): the paper reports that, at fixed
//!   capacity, a fully associative PLB improves performance by ≤10 % over
//!   direct-mapped, which is why the prototype is direct-mapped.
//! * **Subtree layout** (§7.1.1, from \[26\]): packing k-level subtrees
//!   contiguously is what lets a path read run near peak DRAM bandwidth; a
//!   naive level-order layout pays a row miss per bucket.
//! * **Unified tree + PLB vs. separate trees** (§4.1.3): the bandwidth view of
//!   the design decision, complementing the security argument.

use crate::experiments::ExperimentScale;
use crate::latency::OramLatencyModel;
use crate::report::{f2, format_table};
use crate::runner::{geomean, run_benchmark, SimulationConfig};
use dram_sim::{DramConfig, DramSim, SubtreeLayout};
use freecursive::SchemePoint;
use path_oram::OramParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// PLB associativity
// ---------------------------------------------------------------------------

/// Result of the PLB-associativity ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct PlbAssociativityResult {
    /// `(associativity, geomean slowdown)` pairs at fixed 64 KB capacity.
    pub points: Vec<(usize, f64)>,
}

/// Sweeps PLB associativity at fixed capacity (64 KB) for the PC_X32 design.
pub fn plb_associativity(scale: ExperimentScale) -> PlbAssociativityResult {
    let mut points = Vec::new();
    for assoc in [1usize, 2, 4, 16] {
        let mut slowdowns = Vec::new();
        for benchmark in scale.benchmarks() {
            let cfg = SimulationConfig {
                plb_associativity: assoc,
                memory_accesses: scale.memory_accesses(),
                warmup_accesses: scale.warmup_accesses(),
                latency_samples: scale.latency_samples(),
                ..SimulationConfig::paper_default()
            };
            slowdowns.push(run_benchmark(benchmark, SchemePoint::PcX32, &cfg).slowdown);
        }
        points.push((assoc, geomean(&slowdowns)));
    }
    PlbAssociativityResult { points }
}

impl PlbAssociativityResult {
    /// Improvement of the most associative point over direct-mapped.
    pub fn max_improvement(&self) -> f64 {
        let dm = self.points.first().map(|(_, s)| *s).unwrap_or(1.0);
        let best = self
            .points
            .iter()
            .map(|(_, s)| *s)
            .fold(f64::INFINITY, f64::min);
        1.0 - best / dm
    }

    /// Renders the ablation table.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|(a, s)| vec![a.to_string(), f2(*s)])
            .collect();
        format!(
            "Ablation: PLB associativity at 64 KB capacity (PC_X32)\n{}\n\
             best improvement over direct-mapped: {:.1}% (paper: <=10%)\n",
            format_table(&["associativity", "geomean slowdown"], &rows),
            self.max_improvement() * 100.0
        )
    }
}

// ---------------------------------------------------------------------------
// Subtree layout vs naive level-order layout
// ---------------------------------------------------------------------------

/// Result of the DRAM-layout ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayoutAblationResult {
    /// Average path read+write latency with the subtree layout (CPU cycles).
    pub subtree_cycles: u64,
    /// Average latency with a naive level-order layout (CPU cycles).
    pub naive_cycles: u64,
    /// DRAM row-buffer hit rate under the subtree layout.
    pub subtree_row_hit_rate: f64,
    /// DRAM row-buffer hit rate under the naive layout.
    pub naive_row_hit_rate: f64,
}

/// Measures the latency of a full path access under both layouts.
pub fn layout_ablation(samples: usize) -> LayoutAblationResult {
    let params = OramParams::new(1 << 26, 64, 4);
    let dram_cfg = DramConfig::default();
    // Subtree layout: measured by the calibrated latency model.
    let model = OramLatencyModel::new(params, dram_cfg.clone(), samples);
    let subtree_cycles = model.tree_latency_cycles();

    // Naive layout: replay paths bucket-by-bucket at level-order addresses.
    let layout = SubtreeLayout::new(params.levels(), params.bucket_bytes() as u64, 4, 0);
    let mut rng = StdRng::seed_from_u64(0xAB1A7E);
    let mut total = 0u64;
    let mut naive_hits = 0.0;
    let mut subtree_hits = 0.0;
    for _ in 0..samples.max(1) {
        let leaf = rng.gen_range(0..params.num_leaves());

        let mut dram = DramSim::new(dram_cfg.clone());
        let mut done = 0u64;
        let mut now = 0u64;
        for pass in 0..2 {
            for level in 0..params.levels() {
                let index = leaf >> (params.leaf_level() - level);
                let addr = layout.naive_bucket_address(level, index);
                done = done.max(dram.access(addr, params.bucket_bytes(), pass == 1, now));
            }
            now = done;
        }
        total += dram_cfg.dram_to_cpu_cycles(done);
        naive_hits += dram.stats().row_hit_rate().unwrap_or(0.0);

        let mut dram = DramSim::new(dram_cfg.clone());
        let mut done = 0u64;
        let mut now = 0u64;
        for pass in 0..2 {
            for addr in layout.path_addresses(leaf) {
                done = done.max(dram.access(addr, params.bucket_bytes(), pass == 1, now));
            }
            now = done;
        }
        subtree_hits += dram.stats().row_hit_rate().unwrap_or(0.0);
    }
    LayoutAblationResult {
        subtree_cycles,
        naive_cycles: total / samples.max(1) as u64,
        subtree_row_hit_rate: subtree_hits / samples.max(1) as f64,
        naive_row_hit_rate: naive_hits / samples.max(1) as f64,
    }
}

impl LayoutAblationResult {
    /// Latency penalty of the naive layout.
    pub fn naive_penalty(&self) -> f64 {
        self.naive_cycles as f64 / self.subtree_cycles as f64
    }

    /// Renders the ablation.
    pub fn render(&self) -> String {
        format!(
            "Ablation: ORAM tree layout in DRAM (4 GB ORAM, 2 channels)\n\
             subtree layout : {} cycles/access, row-hit rate {:.2}\n\
             naive layout   : {} cycles/access, row-hit rate {:.2}\n\
             naive / subtree: {:.2}x\n",
            self.subtree_cycles,
            self.subtree_row_hit_rate,
            self.naive_cycles,
            self.naive_row_hit_rate,
            self.naive_penalty()
        )
    }
}

// ---------------------------------------------------------------------------
// Unified tree + PLB vs separate trees (bandwidth view)
// ---------------------------------------------------------------------------

/// Result of the unified-vs-separate ablation: PosMap bytes per access.
#[derive(Debug, Clone, PartialEq)]
pub struct UnifiedTreeAblationResult {
    /// `(scheme label, posmap KB per access, total KB per access)` rows.
    pub rows: Vec<(String, f64, f64)>,
}

/// Compares the separate-tree baseline against PLB designs with increasing X.
pub fn unified_tree_ablation(scale: ExperimentScale) -> UnifiedTreeAblationResult {
    let schemes = [SchemePoint::RX8, SchemePoint::PX16, SchemePoint::PcX32];
    let mut rows = Vec::new();
    for scheme in schemes {
        let mut posmap = 0.0;
        let mut total = 0.0;
        let benchmarks = scale.benchmarks();
        for &benchmark in &benchmarks {
            let cfg = SimulationConfig {
                memory_accesses: scale.memory_accesses(),
                warmup_accesses: scale.warmup_accesses(),
                latency_samples: scale.latency_samples(),
                ..SimulationConfig::paper_default()
            };
            let run = run_benchmark(benchmark, scheme, &cfg);
            let (p, d) = run.bytes_per_access();
            posmap += p / 1024.0;
            total += (p + d) / 1024.0;
        }
        let n = benchmarks.len() as f64;
        rows.push((scheme.label().to_string(), posmap / n, total / n));
    }
    UnifiedTreeAblationResult { rows }
}

impl UnifiedTreeAblationResult {
    /// Renders the ablation.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(l, p, t)| vec![l.clone(), f2(*p), f2(*t)])
            .collect();
        format!(
            "Ablation: separate PosMap ORAM trees (R_X8) vs unified tree + PLB\n{}",
            format_table(&["scheme", "posmap KB/access", "total KB/access"], &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn associativity_helps_only_modestly() {
        let result = plb_associativity(ExperimentScale::Quick);
        assert_eq!(result.points.len(), 4);
        let improvement = result.max_improvement();
        assert!(
            (-0.02..0.15).contains(&improvement),
            "associativity improvement {improvement} should be modest (paper: <=10%)"
        );
    }

    #[test]
    fn subtree_layout_beats_naive_layout() {
        let result = layout_ablation(10);
        assert!(
            result.naive_cycles > result.subtree_cycles,
            "naive {} vs subtree {}",
            result.naive_cycles,
            result.subtree_cycles
        );
        assert!(result.subtree_row_hit_rate > result.naive_row_hit_rate);
    }

    #[test]
    fn unified_tree_reduces_posmap_traffic_monotonically_in_x() {
        let result = unified_tree_ablation(ExperimentScale::Quick);
        assert_eq!(result.rows.len(), 3);
        // R_X8 > P_X16 > PC_X32 in PosMap traffic.
        assert!(result.rows[0].1 > result.rows[1].1);
        assert!(result.rows[1].1 > result.rows[2].1);
    }
}
