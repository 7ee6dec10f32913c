//! Trace-driven timing simulation of the Freecursive ORAM secure processor,
//! scalable to the paper's 4–64 GB ORAM capacities.
//!
//! The functional controller in the `freecursive` crate stores real block
//! contents and therefore cannot be instantiated at 2^26+ blocks on a laptop.
//! The paper's performance figures, however, never depend on block contents —
//! only on *which* backend accesses happen (PLB behaviour, recursion depth)
//! and *how long* each one takes (path length, bucket size, DRAM timing).
//! `docs/ARCHITECTURE.md` at the workspace root maps this timing stack
//! onto the functional crates it mirrors.
//! This crate models exactly that:
//!
//! * [`latency::OramLatencyModel`] — average latency of one backend access,
//!   obtained by replaying subtree-layout path reads/writes through the
//!   cycle-level `dram-sim` model (reproduces Table 2).
//! * [`SchemePoint`] (re-exported from `freecursive`) — the named design
//!   points of the evaluation (`R_X8`, `P_X16`, `PC_X32`, `PC_X64`, `PI_X8`,
//!   `PIC_X32`, Phantom-4KB).  What each one *is* comes from the same
//!   [`freecursive::FreecursiveConfig`] the functional frontend is built
//!   from ([`runner::SimulationConfig::oram_config`]).
//! * [`timing::TimingOram`] — an address-only model of the frontend that
//!   walks that configuration's trees: PLB contents, recursion walks and
//!   byte counts, but no data.
//! * [`runner`] — drives synthetic SPEC traces through the `cache-sim`
//!   processor model with either a flat DRAM (insecure baseline) or a
//!   [`timing::OramMemory`], producing slowdowns.
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
pub mod timing;

pub use freecursive::SchemePoint;
pub use latency::OramLatencyModel;
pub use runner::{BenchmarkRun, SimulationConfig};
pub use timing::{OramMemory, TimingOram};
