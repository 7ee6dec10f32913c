//! One driver per table/figure of the paper's evaluation (§7).
//!
//! Every driver returns a structured result with a `render()` method that
//! prints the same rows/series the paper reports; the `bench` crate exposes
//! one binary per driver, and `all_experiments` runs them all (README
//! § Quickstart).  Where a driver compares against a number the paper
//! states, its `render()` prints the two side by side.

pub mod ablations;
pub mod fig3;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod hash_bandwidth;
pub mod table2;
pub mod table3;

use trace_gen::SpecBenchmark;

/// How much work an experiment driver should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// A few benchmarks, short traces — used by unit tests and smoke runs.
    Quick,
    /// All benchmarks, full trace lengths — used by the `bench` binaries.
    Paper,
}

impl ExperimentScale {
    /// The benchmarks to evaluate at this scale.
    pub fn benchmarks(&self) -> Vec<SpecBenchmark> {
        match self {
            ExperimentScale::Quick => vec![
                SpecBenchmark::Bzip2,
                SpecBenchmark::Libquantum,
                SpecBenchmark::Sjeng,
            ],
            ExperimentScale::Paper => SpecBenchmark::all().to_vec(),
        }
    }

    /// Memory references per run at this scale.
    pub fn memory_accesses(&self) -> u64 {
        match self {
            ExperimentScale::Quick => 20_000,
            ExperimentScale::Paper => 300_000,
        }
    }

    /// Warm-up memory references before measurement starts.
    pub fn warmup_accesses(&self) -> u64 {
        match self {
            ExperimentScale::Quick => 60_000,
            ExperimentScale::Paper => 150_000,
        }
    }

    /// DRAM-latency calibration samples at this scale.
    pub fn latency_samples(&self) -> usize {
        match self {
            ExperimentScale::Quick => 4,
            ExperimentScale::Paper => 40,
        }
    }
}
