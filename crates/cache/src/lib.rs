//! Processor-side timing model: a two-level set-associative cache hierarchy
//! in front of an in-order core, as configured in Table 1 of the paper.
//!
//! The evaluation's performance numbers are "slowdown relative to an insecure
//! system without ORAM": the same core and caches are simulated twice, once
//! with a flat-latency DRAM main memory and once with the ORAM, and the cycle
//! counts compared.  This crate provides the shared core/cache machinery and
//! the one processor→ORAM adapter ([`FunctionalOramMemory`]); the latency
//! models that price its accesses live in `oram-sim`, and
//! `docs/ARCHITECTURE.md` at the workspace root maps the evaluation stack
//! onto the functional crates.
//!
//! # Examples
//!
//! ```
//! use cache_sim::{ProcessorConfig, SecureProcessor, MainMemory};
//!
//! /// An insecure DRAM: 58 processor cycles per access (§7.1.2).
//! struct FlatDram;
//! impl MainMemory for FlatDram {
//!     fn access(&mut self, _line_addr: u64, _is_write: bool) -> u64 { 58 }
//! }
//!
//! let mut cpu = SecureProcessor::new(ProcessorConfig::default(), FlatDram);
//! cpu.step(10, 0x1000, false); // 10 non-memory instructions, then a load
//! assert!(cpu.result().total_cycles > 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod hierarchy;
pub mod oram_memory;
pub mod processor;

pub use cache::{CacheConfig, SetAssocCache};
pub use hierarchy::{CacheHierarchy, HierarchyConfig, HitLevel};
pub use oram_memory::FunctionalOramMemory;
pub use processor::{FlatLatencyMemory, MainMemory, ProcessorConfig, RunResult, SecureProcessor};
