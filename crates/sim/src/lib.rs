//! Trace-driven timing simulation of the Freecursive ORAM secure processor,
//! scalable to the paper's 4–64 GB ORAM capacities.
//!
//! The paper's performance figures never depend on block contents — only
//! on *which* backend accesses happen (PLB behaviour, recursion depth, group
//! remaps) and *how long* each one takes (path length, bucket size, DRAM
//! timing).  So the simulator runs the functional frontend itself over the
//! insecure backend, a sparse hash map: a 64 GB tree costs memory only for
//! the blocks a trace touches, and a calibrated latency model prices each
//! path access.  `docs/ARCHITECTURE.md` at the workspace root maps this
//! stack onto the functional crates.
//!
//! * [`latency::OramLatencyModel`] — average latency of one backend access,
//!   obtained by replaying subtree-layout path reads/writes through the
//!   cycle-level `dram-sim` model (reproduces Table 2).
//! * [`SchemePoint`] (re-exported from `freecursive`) — the named design
//!   points of the evaluation (`R_X8`, `P_X16`, `PC_X32`, `PC_X64`, `PI_X8`,
//!   `PIC_X32`, Phantom-4KB).  What each one *is* comes from the same
//!   [`freecursive::FreecursiveConfig`] the functional frontend is built
//!   from ([`runner::SimulationConfig::oram_config`]).
//! * [`runner`] — drives synthetic SPEC traces through the `cache-sim`
//!   processor model with either a flat DRAM (insecure baseline) or the
//!   design point's functional frontend ([`runner::oram_memory`]: the same
//!   `FreecursiveOram` that serves requests, over the sparse insecure
//!   backend, behind `cache_sim::FunctionalOramMemory`), producing slowdowns.
//!   There is one access walker: PLB hits, PosMap fetches, group remaps and
//!   byte counts are the frontend's own.
//! * [`experiments`] — one driver per table/figure of the paper; the `bench`
//!   crate's binaries print their results.
//!
//! # Examples
//!
//! ```
//! use oram_sim::{runner, runner::SimulationConfig, SchemePoint};
//! use trace_gen::SpecBenchmark;
//!
//! let cfg = SimulationConfig::quick_test();
//! let run = runner::run_benchmark(SpecBenchmark::Sjeng, SchemePoint::PcX32, &cfg);
//! assert!(run.slowdown >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod latency;
pub mod phantom;
pub mod report;
pub mod runner;

pub use freecursive::SchemePoint;
pub use latency::OramLatencyModel;
pub use runner::{BenchmarkRun, SimulationConfig};
