//! Cross-crate integration tests: the functional Freecursive controller
//! against its no-PLB Recursive ORAM configuration, the cache hierarchy, and synthetic
//! traces — exercising the whole stack the way the evaluation does.

use cache_sim::{FunctionalOramMemory, MainMemory, ProcessorConfig, SecureProcessor};
use freecursive::{Oram, OramBuilder, SchemePoint};
use freecursive_repro::Op::{Read, Write};
use freecursive_repro::{agree, flat, schedule};
use trace_gen::{SpecBenchmark, TraceGenerator};

const N: u64 = 1 << 12;
const BLOCK: usize = 64;

/// The frontend with a PLB (`PIC_X32`) and without one (`R_X8`, one tree per
/// level) implement the same `Oram` contract; drive them with the same
/// request sequence and check each answers as the flat oracle does.
#[test]
fn freecursive_and_recursive_agree_on_contents() {
    let mut reference = OramBuilder::for_scheme(SchemePoint::RX8)
        .num_blocks(N)
        .block_bytes(BLOCK)
        .onchip_entries(64)
        .build_freecursive()
        .unwrap();
    let mut freecursive = OramBuilder::for_scheme(SchemePoint::PicX32)
        .num_blocks(N)
        .block_bytes(BLOCK)
        .onchip_entries(64)
        .build_freecursive()
        .unwrap();

    // 40 % writes.
    let requests = schedule(99, 1200, 0..N, BLOCK, &[Write, Read, Write, Read, Read]);
    agree(&mut reference, &mut flat(N, BLOCK), &requests, "R_X8");
    agree(&mut freecursive, &mut flat(N, BLOCK), &requests, "PIC_X32");
    // The PLB design used strictly fewer backend accesses for the PosMap.
    let h = u64::from(freecursive.num_levels());
    assert!(h >= 2);
    assert!(
        freecursive.stats().posmap_backend_accesses < reference.stats().posmap_backend_accesses,
        "freecursive {} vs recursive {}",
        freecursive.stats().posmap_backend_accesses,
        reference.stats().posmap_backend_accesses
    );
}

/// A functional ORAM plugged in as the main memory of the cache-simulator
/// processor: the full secure-processor stack at small scale, through the
/// `cache_sim::FunctionalOramMemory` adapter.
#[test]
fn functional_oram_behind_the_cache_hierarchy() {
    let oram = OramBuilder::for_scheme(SchemePoint::PcX32)
        .num_blocks(N)
        .block_bytes(BLOCK)
        .onchip_entries(64)
        .build_freecursive()
        .unwrap();
    let mut cpu = SecureProcessor::new(
        ProcessorConfig::default(),
        FunctionalOramMemory::new(oram, |o| 1200 * o.stats().frontend_requests),
    );
    let trace = TraceGenerator::new(SpecBenchmark::Gcc.profile(), 5);
    for access in trace.take(4000) {
        // Map the synthetic footprint onto the small ORAM.
        cpu.step(
            access.gap,
            access.addr % (N * BLOCK as u64),
            access.is_write,
        );
    }
    let result = cpu.result();
    assert!(result.llc_misses > 0, "the workload must miss the LLC");
    assert_eq!(
        cpu.memory().oram().stats().frontend_requests,
        result.llc_misses + result.llc_writebacks,
        "every LLC miss and writeback becomes exactly one ORAM request"
    );
}

/// Write-heavy workloads exercise dirty evictions end to end.
#[test]
fn dirty_eviction_path_reaches_the_oram() {
    struct CountingMemory {
        reads: u64,
        writes: u64,
    }
    impl MainMemory for CountingMemory {
        fn access(&mut self, _line: u64, is_write: bool) -> u64 {
            if is_write {
                self.writes += 1;
            } else {
                self.reads += 1;
            }
            100
        }
    }
    let mut cpu = SecureProcessor::new(
        ProcessorConfig::default(),
        CountingMemory {
            reads: 0,
            writes: 0,
        },
    );
    // Store to far more lines than the LLC holds.
    let llc_lines = (1u64 << 20) / 64;
    for i in 0..(llc_lines * 3) {
        cpu.step(0, i * 64, true);
    }
    assert!(
        cpu.memory().writes > 0,
        "dirty LLC lines must be written back"
    );
    assert_eq!(cpu.result().llc_writebacks, cpu.memory().writes);
    assert_eq!(cpu.result().llc_misses, cpu.memory().reads);
}

/// The statistics the figures are computed from stay internally consistent
/// across a mixed workload on the full design.
#[test]
fn frontend_statistics_are_internally_consistent() {
    let mut oram = OramBuilder::for_scheme(SchemePoint::PicX32)
        .num_blocks(N)
        .block_bytes(BLOCK)
        .onchip_entries(64)
        .build_freecursive()
        .unwrap();
    for request in schedule(3, 800, 0..N, BLOCK, &[Write, Read]) {
        oram.access(request).unwrap();
    }
    let s = oram.stats();
    assert_eq!(s.frontend_requests, 800);
    assert_eq!(s.data_backend_accesses, 800);
    // Every backend access moved one full path in each direction.
    use path_oram::OramBackend as _;
    let per_access = oram.backend().params().access_bytes();
    assert_eq!(
        s.total_bytes_moved(),
        s.total_backend_accesses() * per_access
    );
    // PMMAC verified and recomputed a MAC for every block of interest.
    assert!(s.macs_verified >= s.total_backend_accesses());
    assert!(s.macs_computed >= s.appends);
    assert_eq!(s.integrity_violations, 0);
}
