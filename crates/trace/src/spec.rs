//! Per-benchmark workload profiles standing in for the SPEC CPU2006-int
//! subset used in Figures 5, 6 and 8.
//!
//! Each profile is a mixture of a cache-resident "hot" component (registers
//! spilled to stack, top-of-heap structures) and one or more miss-producing
//! components whose size and shape control two things:
//!
//! * the **LLC miss rate**, which sets the ORAM-induced slowdown (memory-bound
//!   benchmarks like `libquantum` and `mcf` suffer 10–17×, compute-bound ones
//!   like `sjeng` and `perlbench` ~2×), and
//! * the **spatial locality of the misses**, which sets how effective the PLB
//!   is (streaming benchmarks need almost no PosMap accesses; pointer-chasing
//!   ones with multi-megabyte working sets are the ones that benefit from
//!   growing the PLB from 8 KB to 128 KB, as `bzip2` and `mcf` do in
//!   Figure 5).
//!
//! The numbers are calibrated to land in the ranges the paper reports, not to
//! reproduce SPEC microarchitecture-accurately: SPEC traces are not
//! redistributable, so the crate substitutes synthetic ones (see the crate
//! docs) whose miss rate and locality keep the paper's comparisons intact.

use crate::pattern::AccessPattern;
use crate::profile::WorkloadProfile;

/// The SPEC06-int benchmarks that appear in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum SpecBenchmark {
    Astar,
    Bzip2,
    Gcc,
    Gobmk,
    H264ref,
    Hmmer,
    Libquantum,
    Mcf,
    Omnetpp,
    Perlbench,
    Sjeng,
}

impl SpecBenchmark {
    /// All benchmarks, in the order the paper's figures list them.
    pub fn all() -> [SpecBenchmark; 11] {
        [
            SpecBenchmark::Astar,
            SpecBenchmark::Bzip2,
            SpecBenchmark::Gcc,
            SpecBenchmark::Gobmk,
            SpecBenchmark::H264ref,
            SpecBenchmark::Hmmer,
            SpecBenchmark::Libquantum,
            SpecBenchmark::Mcf,
            SpecBenchmark::Omnetpp,
            SpecBenchmark::Perlbench,
            SpecBenchmark::Sjeng,
        ]
    }

    /// The short label used in the figures.
    pub fn label(&self) -> &'static str {
        match self {
            SpecBenchmark::Astar => "astar",
            SpecBenchmark::Bzip2 => "bzip2",
            SpecBenchmark::Gcc => "gcc",
            SpecBenchmark::Gobmk => "gob",
            SpecBenchmark::H264ref => "h264",
            SpecBenchmark::Hmmer => "hmmer",
            SpecBenchmark::Libquantum => "libq",
            SpecBenchmark::Mcf => "mcf",
            SpecBenchmark::Omnetpp => "omnet",
            SpecBenchmark::Perlbench => "perl",
            SpecBenchmark::Sjeng => "sjeng",
        }
    }

    /// Builds the benchmark's workload profile.
    pub fn profile(&self) -> WorkloadProfile {
        let builder = ProfileBuilder::new(self.label());
        match self {
            // Path-finding over a large grid: mostly cache-resident state,
            // some pointer chasing through the open list, light streaming.
            SpecBenchmark::Astar => builder
                .hot(0.955, 256 << 10)
                .chase(0.030, 16 << 20, 64)
                .seq(0.015, 32 << 20, 8),
            // Burrows-Wheeler compression: multi-megabyte working set with
            // heavy reuse — the PLB-capacity-sensitive benchmark of Figure 5.
            SpecBenchmark::Bzip2 => {
                builder
                    .hot(0.960, 320 << 10)
                    .random(0.030, 3 << 20)
                    .seq(0.010, 64 << 20, 8)
            }
            // Compiler: moderately memory-bound, mixed locality.
            SpecBenchmark::Gcc => builder
                .hot(0.965, 512 << 10)
                .random(0.015, 8 << 20)
                .seq(0.015, 16 << 20, 8)
                .chase(0.005, 32 << 20, 64),
            // Go engine: almost entirely cache resident.
            SpecBenchmark::Gobmk => {
                builder
                    .hot(0.990, 448 << 10)
                    .random(0.007, 4 << 20)
                    .seq(0.003, 8 << 20, 8)
            }
            // Video encoder: streaming reference frames with good locality.
            SpecBenchmark::H264ref => builder
                .hot(0.980, 384 << 10)
                .seq(0.010, 8 << 20, 16)
                .random(0.010, 2 << 20),
            // Profile HMM search: small tables plus streaming scores; likes
            // large ORAM blocks (Figure 8).
            SpecBenchmark::Hmmer => builder.hot(0.970, 256 << 10).seq(0.030, 4 << 20, 8),
            // Quantum simulation: a pure stream over a large amplitude vector;
            // the most memory-bound benchmark (≈17× slowdown under ORAM).
            SpecBenchmark::Libquantum => builder.hot(0.550, 64 << 10).seq(0.450, 32 << 20, 16),
            // Network-flow solver: pointer chasing over multi-megabyte arcs;
            // high miss rate and strong PLB-capacity sensitivity.
            SpecBenchmark::Mcf => builder
                .hot(0.930, 320 << 10)
                .chase(0.040, 6 << 20, 64)
                .random(0.010, 64 << 20)
                .chase(0.020, 96 << 20, 64),
            // Discrete-event simulator: scattered heap objects.
            SpecBenchmark::Omnetpp => builder
                .hot(0.960, 448 << 10)
                .chase(0.025, 32 << 20, 64)
                .random(0.015, 8 << 20),
            // Perl interpreter: mostly resident, occasional hash-table walks.
            SpecBenchmark::Perlbench => builder
                .hot(0.990, 384 << 10)
                .chase(0.006, 16 << 20, 64)
                .seq(0.004, 8 << 20, 8),
            // Chess engine: tiny working set, compute bound.
            SpecBenchmark::Sjeng => {
                builder
                    .hot(0.996, 320 << 10)
                    .random(0.002, 4 << 20)
                    .chase(0.002, 8 << 20, 64)
            }
        }
        .build()
    }
}

/// Incremental profile builder laying components out in disjoint regions.
struct ProfileBuilder {
    name: String,
    next_base: u64,
    components: Vec<(f64, AccessPattern)>,
}

impl ProfileBuilder {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            next_base: 0,
            components: Vec::new(),
        }
    }

    fn region(&mut self, bytes: u64) -> u64 {
        let base = self.next_base;
        // Keep regions aligned to 1 MB so components never interleave.
        self.next_base += bytes.div_ceil(1 << 20) * (1 << 20);
        base
    }

    fn hot(mut self, weight: f64, bytes: u64) -> Self {
        let base = self.region(bytes);
        self.components
            .push((weight, AccessPattern::RandomUniform { base, bytes }));
        self
    }

    fn random(mut self, weight: f64, bytes: u64) -> Self {
        let base = self.region(bytes);
        self.components
            .push((weight, AccessPattern::RandomUniform { base, bytes }));
        self
    }

    fn seq(mut self, weight: f64, bytes: u64, stride: u64) -> Self {
        let base = self.region(bytes);
        self.components.push((
            weight,
            AccessPattern::Sequential {
                base,
                bytes,
                stride,
            },
        ));
        self
    }

    fn chase(mut self, weight: f64, bytes: u64, object_bytes: u64) -> Self {
        let base = self.region(bytes);
        self.components.push((
            weight,
            AccessPattern::PointerChase {
                base,
                bytes,
                object_bytes,
            },
        ));
        self
    }

    fn build(self) -> WorkloadProfile {
        let profile = WorkloadProfile {
            name: self.name,
            memory_fraction: 0.30,
            write_fraction: 0.30,
            components: self.components,
        };
        profile.assert_valid();
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_has_a_valid_profile() {
        for bench in SpecBenchmark::all() {
            let p = bench.profile();
            p.assert_valid();
            assert_eq!(p.name, bench.label());
            assert!(p.footprint_bytes() > 1 << 20);
        }
    }

    #[test]
    fn component_regions_do_not_overlap() {
        for bench in SpecBenchmark::all() {
            let p = bench.profile();
            let mut regions: Vec<(u64, u64)> = p
                .components
                .iter()
                .map(|(_, pat)| match *pat {
                    AccessPattern::Sequential { base, bytes, .. }
                    | AccessPattern::Strided { base, bytes, .. }
                    | AccessPattern::RandomUniform { base, bytes }
                    | AccessPattern::HotSet { base, bytes, .. }
                    | AccessPattern::PointerChase { base, bytes, .. } => (base, base + bytes),
                })
                .collect();
            regions.sort_unstable();
            for w in regions.windows(2) {
                assert!(w[0].1 <= w[1].0, "{bench:?}: overlapping regions {w:?}");
            }
        }
    }

    #[test]
    fn memory_bound_benchmarks_have_heavier_miss_components() {
        // The weight not spent on the (cache-resident) hot component is a
        // proxy for memory-boundedness; libquantum and mcf must exceed sjeng
        // and perlbench by a wide margin.
        let cold_weight = |b: SpecBenchmark| {
            let p = b.profile();
            let total: f64 = p.components.iter().map(|(w, _)| w).sum();
            let hot = p.components[0].0;
            (total - hot) / total
        };
        assert!(cold_weight(SpecBenchmark::Libquantum) > 10.0 * cold_weight(SpecBenchmark::Sjeng));
        assert!(cold_weight(SpecBenchmark::Mcf) > 5.0 * cold_weight(SpecBenchmark::Perlbench));
        assert!(cold_weight(SpecBenchmark::Libquantum) > cold_weight(SpecBenchmark::Gobmk));
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            SpecBenchmark::all().iter().map(|b| b.label()).collect();
        assert_eq!(labels.len(), 11);
    }
}
