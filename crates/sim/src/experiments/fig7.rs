//! Figure 7: average data movement per ORAM access (split into PosMap and
//! Data portions) for five design points at 4, 16 and 64 GB capacities.
//!
//! Shows the scalability argument: the baseline's PosMap traffic grows
//! quickly with capacity, PLB designs stay nearly flat, and the
//! flat-counter PMMAC variant (PI_X8) wastes almost half its bandwidth on
//! PosMap blocks until compression (PIC_X32) fixes it.

use crate::experiments::ExperimentScale;
use crate::report::{format_table, kb};
use crate::runner::{run_benchmark, SimulationConfig};
use freecursive::SchemePoint;

/// The design points compared in the figure.
pub const SCHEMES: [SchemePoint; 5] = [
    SchemePoint::RX8,
    SchemePoint::PX16,
    SchemePoint::PcX32,
    SchemePoint::PiX8,
    SchemePoint::PicX32,
];

/// The capacities swept, in bytes.
pub const CAPACITIES: [u64; 3] = [4 << 30, 16 << 30, 64 << 30];

/// One (scheme, capacity) bar of the figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Bar {
    /// The design point.
    pub scheme: SchemePoint,
    /// ORAM capacity in bytes.
    pub capacity_bytes: u64,
    /// Average PosMap bytes moved per ORAM access (averaged over benchmarks).
    pub posmap_bytes_per_access: f64,
    /// Average data bytes moved per ORAM access.
    pub data_bytes_per_access: f64,
}

impl Fig7Bar {
    /// Total bytes moved per access.
    pub fn total(&self) -> f64 {
        self.posmap_bytes_per_access + self.data_bytes_per_access
    }
}

/// The full figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Result {
    /// All bars.
    pub bars: Vec<Fig7Bar>,
}

/// Regenerates Figure 7.
pub fn run(scale: ExperimentScale) -> Fig7Result {
    let mut bars = Vec::new();
    for &capacity in CAPACITIES.iter() {
        for &scheme in SCHEMES.iter() {
            let mut posmap_sum = 0.0;
            let mut data_sum = 0.0;
            let benchmarks = scale.benchmarks();
            for &benchmark in &benchmarks {
                let cfg = SimulationConfig {
                    data_capacity_bytes: capacity,
                    memory_accesses: scale.memory_accesses(),
                    warmup_accesses: scale.warmup_accesses(),
                    latency_samples: scale.latency_samples(),
                    ..SimulationConfig::paper_default()
                };
                let run = run_benchmark(benchmark, scheme, &cfg);
                let (p, d) = run.bytes_per_access();
                posmap_sum += p;
                data_sum += d;
            }
            let n = benchmarks.len() as f64;
            bars.push(Fig7Bar {
                scheme,
                capacity_bytes: capacity,
                posmap_bytes_per_access: posmap_sum / n,
                data_bytes_per_access: data_sum / n,
            });
        }
    }
    Fig7Result { bars }
}

impl Fig7Result {
    /// The bar for a given scheme and capacity.
    pub fn bar(&self, scheme: SchemePoint, capacity_bytes: u64) -> Option<&Fig7Bar> {
        self.bars
            .iter()
            .find(|b| b.scheme == scheme && b.capacity_bytes == capacity_bytes)
    }

    /// PosMap-bandwidth reduction of PC_X32 versus R_X8 at a capacity
    /// (paper: 82 % at 4 GB, 90 % at 64 GB).
    pub fn posmap_reduction(&self, capacity_bytes: u64) -> Option<f64> {
        let base = self.bar(SchemePoint::RX8, capacity_bytes)?;
        let pc = self.bar(SchemePoint::PcX32, capacity_bytes)?;
        Some(1.0 - pc.posmap_bytes_per_access / base.posmap_bytes_per_access)
    }

    /// Overall-bandwidth reduction of PC_X32 versus R_X8 at a capacity
    /// (paper: 38 % at 4 GB, 57 % at 64 GB).
    pub fn overall_reduction(&self, capacity_bytes: u64) -> Option<f64> {
        let base = self.bar(SchemePoint::RX8, capacity_bytes)?;
        let pc = self.bar(SchemePoint::PcX32, capacity_bytes)?;
        Some(1.0 - pc.total() / base.total())
    }

    /// Renders the figure as a table.
    pub fn render(&self) -> String {
        let headers = ["scheme", "capacity", "posmap KB", "data KB", "total KB"];
        let rows: Vec<Vec<String>> = self
            .bars
            .iter()
            .map(|b| {
                vec![
                    b.scheme.label().to_string(),
                    format!("{}GB", b.capacity_bytes >> 30),
                    kb(b.posmap_bytes_per_access),
                    kb(b.data_bytes_per_access),
                    kb(b.total()),
                ]
            })
            .collect();
        let mut out = format!(
            "Figure 7: data moved per ORAM access, averaged over benchmarks\n{}",
            format_table(&headers, &rows)
        );
        if let (Some(p4), Some(o4)) = (
            self.posmap_reduction(4 << 30),
            self.overall_reduction(4 << 30),
        ) {
            out.push_str(&format!(
                "PC_X32 vs R_X8 at 4GB: posmap traffic -{:.0}% (paper 82%), overall -{:.0}% (paper 38%)\n",
                p4 * 100.0,
                o4 * 100.0
            ));
        }
        if let (Some(p64), Some(o64)) = (
            self.posmap_reduction(64 << 30),
            self.overall_reduction(64 << 30),
        ) {
            out.push_str(&format!(
                "PC_X32 vs R_X8 at 64GB: posmap traffic -{:.0}% (paper 90%), overall -{:.0}% (paper 57%)\n",
                p64 * 100.0,
                o64 * 100.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Fig7Result {
        // Only the 4 GB capacity at quick scale to keep the test fast.
        let mut bars = Vec::new();
        for &scheme in SCHEMES.iter() {
            let cfg = SimulationConfig {
                memory_accesses: 15_000,
                latency_samples: 3,
                ..SimulationConfig::paper_default()
            };
            let run = run_benchmark(trace_gen::SpecBenchmark::Bzip2, scheme, &cfg);
            let (p, d) = run.bytes_per_access();
            bars.push(Fig7Bar {
                scheme,
                capacity_bytes: 4 << 30,
                posmap_bytes_per_access: p,
                data_bytes_per_access: d,
            });
        }
        Fig7Result { bars }
    }

    #[test]
    fn plb_designs_move_fewer_posmap_bytes_than_baseline() {
        // gcc's LLC-miss stream is dominated by its random/pointer-chasing
        // components, so its PLB hit rate (and hence the reduction) is on the
        // low side of the per-benchmark range; the averaged full-scale figure
        // (paper: 82 % at 4 GB) is what the `fig7_scalability` binary renders.
        let fig = quick();
        let reduction = fig.posmap_reduction(4 << 30).unwrap();
        assert!(
            reduction > 0.3,
            "PC_X32 should cut posmap traffic substantially, got {reduction}"
        );
        let overall = fig.overall_reduction(4 << 30).unwrap();
        assert!(overall > 0.08, "overall reduction {overall}");
    }

    #[test]
    fn flat_counter_pmmac_wastes_bandwidth_on_posmap_blocks() {
        // PI_X8's small X means more recursion levels and more PosMap
        // traffic than PIC_X32 (the motivation for combining compression
        // with PMMAC, §7.1.4).
        let fig = quick();
        let pi = fig.bar(SchemePoint::PiX8, 4 << 30).unwrap();
        let pic = fig.bar(SchemePoint::PicX32, 4 << 30).unwrap();
        assert!(
            pi.posmap_bytes_per_access > pic.posmap_bytes_per_access,
            "PI_X8 {} vs PIC_X32 {}",
            pi.posmap_bytes_per_access,
            pic.posmap_bytes_per_access
        );
    }

    #[test]
    fn data_portion_matches_tree_path_size() {
        // At 4 GB / 64 B / Z=4 a path read+write moves ~16 KB (25 levels of
        // 320-byte buckets, §3.2.1 / Figure 7).
        let fig = quick();
        let pc = fig.bar(SchemePoint::PcX32, 4 << 30).unwrap();
        assert!(
            pc.data_bytes_per_access > 10_000.0 && pc.data_bytes_per_access < 25_000.0,
            "data bytes per access {}",
            pc.data_bytes_per_access
        );
    }
}
