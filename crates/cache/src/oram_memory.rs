//! Main-memory adapter that drives a functional [`Oram`] implementation —
//! the full secure-processor stack (core → caches → ORAM controller) with
//! real block movement — and the one processor→ORAM adapter: the trace-driven
//! simulator in `oram-sim` runs every tree-backed design point through it.
//!
//! Any [`Oram`] fits behind the adapter: a `FreecursiveOram` over the Path
//! ORAM backend for end-to-end functional runs, one over the insecure
//! backend for the simulator and fast tests, or a `Box<dyn Oram>` straight
//! from `OramBuilder::build`.

use crate::processor::MainMemory;
use freecursive::Oram;

/// Connects the LLC miss/writeback stream to a functional ORAM.
///
/// Every LLC miss becomes an ORAM read of the covering block and every dirty
/// writeback an ORAM write; line addresses are folded onto the ORAM's
/// address space modulo its capacity.  The latency reported to the core is
/// what `cycles` — the wrapped ORAM's cumulative cost in processor cycles —
/// grew by across the access: `oram-sim` prices each tree's path accesses
/// with its calibrated latency model, a test can charge a fixed latency per
/// request.
#[derive(Debug)]
pub struct FunctionalOramMemory<O: Oram, C: Fn(&O) -> u64> {
    oram: O,
    cycles: C,
    /// `cycles` as of the last access (or reset).
    charged: u64,
    /// The image of every writeback (the processor model carries no line
    /// contents), kept so a writeback does not allocate.
    zero_block: Vec<u8>,
    /// Destination of every fetch, reused across misses.
    read_buf: Vec<u8>,
}

impl<O: Oram, C: Fn(&O) -> u64> FunctionalOramMemory<O, C> {
    /// Wraps an ORAM whose cumulative cost in cycles is `cycles(&oram)`.
    pub fn new(oram: O, cycles: C) -> Self {
        Self {
            charged: cycles(&oram),
            zero_block: vec![0u8; oram.block_bytes()],
            read_buf: Vec::with_capacity(oram.block_bytes()),
            oram,
            cycles,
        }
    }

    /// The wrapped ORAM (e.g. to read its statistics).
    pub fn oram(&self) -> &O {
        &self.oram
    }

    /// Mutable access to the wrapped ORAM.  Reset its statistics through
    /// [`FunctionalOramMemory::reset_stats`], which re-bases the charge.
    pub fn oram_mut(&mut self) -> &mut O {
        &mut self.oram
    }

    /// Resets the wrapped ORAM's statistics (its contents and PLB stay, as
    /// in a long-running system) and re-bases the charge on them.
    pub fn reset_stats(&mut self) {
        self.oram.reset_stats();
        self.charged = (self.cycles)(&self.oram);
    }

    fn block_of(&self, line_addr: u64) -> u64 {
        (line_addr / self.oram.block_bytes() as u64) % self.oram.num_blocks()
    }
}

impl<O: Oram, C: Fn(&O) -> u64> MainMemory for FunctionalOramMemory<O, C> {
    /// # Panics
    ///
    /// Panics if the ORAM reports an error — in the secure-processor model an
    /// integrity violation or stash overflow halts the machine, and a
    /// functional simulation has nothing sensible to continue with.
    fn access(&mut self, line_addr: u64, is_write: bool) -> u64 {
        let block = self.block_of(line_addr);
        if is_write {
            self.oram
                .write(block, &self.zero_block)
                .expect("ORAM writeback failed: the secure processor would halt");
        } else {
            self.oram
                .read_into(block, &mut self.read_buf)
                .expect("ORAM fetch failed: the secure processor would halt");
        }
        let total = (self.cycles)(&self.oram);
        let latency = total - self.charged;
        self.charged = total;
        latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::{ProcessorConfig, SecureProcessor};
    use freecursive::{OramBuilder, SchemePoint};

    #[test]
    fn llc_misses_become_oram_requests() {
        let oram = OramBuilder::for_scheme(SchemePoint::PicX32)
            .num_blocks(1 << 10)
            .block_bytes(64)
            .onchip_entries(64)
            .build_freecursive()
            .unwrap();
        let mut cpu = SecureProcessor::new(
            ProcessorConfig::default(),
            FunctionalOramMemory::new(oram, |o| 1200 * o.stats().frontend_requests),
        );
        for i in 0..3000u64 {
            cpu.step(3, (i * 4099 * 64) % (1 << 16), i % 5 == 0);
        }
        let result = cpu.result();
        assert!(result.llc_misses > 0);
        assert_eq!(
            cpu.memory().oram().stats().frontend_requests,
            result.llc_misses + result.llc_writebacks,
            "every LLC miss and writeback becomes exactly one ORAM request"
        );
    }

    #[test]
    fn a_sharded_service_client_works_behind_the_adapter() {
        // `OramClient` implements `Oram`, so the full secure-processor
        // stack can run over a sharded, worker-thread-backed deployment
        // with no adapter changes.
        let service = OramBuilder::for_scheme(SchemePoint::Insecure)
            .num_blocks(1 << 10)
            .block_bytes(64)
            .shards(4)
            .build_service()
            .unwrap();
        let mut cpu = SecureProcessor::new(
            ProcessorConfig::default(),
            // Cycles are not under test: the client's stats are a fetched
            // snapshot, so a stats-based charge would read stale counts.
            FunctionalOramMemory::new(service.client(), |_| 0),
        );
        for i in 0..3000u64 {
            cpu.step(3, (i * 4099 * 64) % (1 << 16), i % 5 == 0);
        }
        let result = cpu.result();
        assert!(result.llc_misses > 0);
        // The client's `stats()` is a fetched snapshot: refresh it, then
        // the usual bookkeeping identity holds across all shards.
        let stats = cpu.memory_mut().oram_mut().fetch_stats().unwrap();
        assert_eq!(
            stats.frontend_requests,
            result.llc_misses + result.llc_writebacks,
            "every LLC miss and writeback becomes exactly one ORAM request"
        );
    }

    #[test]
    fn trait_objects_work_behind_the_adapter() {
        let oram = OramBuilder::for_scheme(SchemePoint::Insecure)
            .num_blocks(1 << 10)
            .block_bytes(64)
            .build()
            .unwrap();
        let mut memory = FunctionalOramMemory::new(oram, |o| 58 * o.stats().frontend_requests);
        assert_eq!(memory.access(0, false), 58);
        assert_eq!(memory.access(64, true), 58);
        assert_eq!(memory.oram().stats().frontend_requests, 2);
    }
}
