//! Building the one design point, plain or traced, and driving block
//! requests through any cut of it with every reply checked.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use freecursive::{
    Durability, EncryptionMode, Oram, OramBuilder, Request, SchemePoint, StorageKind,
};

use crate::trace::{TimedBackend, TimedOram};
use crate::workload::{
    block_addr, block_payload, is_write, AddrPattern, BlockOracle, BLOCK_BYTES, BUILDER_SEED,
    NUM_BLOCKS, Z,
};

/// A directory for tree files, logs and floor probes, beside the benchmark's
/// executable (so inside the checkout's build directory) and removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new() -> Result<Scratch, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
        let dir = exe
            .parent()
            .unwrap_or(Path::new("."))
            .join("perf_stack_scratch")
            .join(format!(
                "{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    pub fn subdir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// PIC_X32 at Z=4 under AES global-seed encryption with PMMAC on; storage and
/// durability are explicit so the environment cannot change the design point.
pub fn builder(num_blocks: u64, block_bytes: usize) -> OramBuilder {
    OramBuilder::for_scheme(SchemePoint::PicX32)
        .num_blocks(num_blocks)
        .block_bytes(block_bytes)
        .z(Z)
        .encryption(EncryptionMode::GlobalSeed)
        .seed(BUILDER_SEED)
        .storage(StorageKind::Mem)
        .durability(Durability::None)
}

pub fn block_builder() -> OramBuilder {
    builder(NUM_BLOCKS, BLOCK_BYTES)
}

pub fn build_plain(builder: &OramBuilder) -> Result<Box<dyn Oram>, String> {
    builder
        .build()
        .map_err(|e| format!("building the stack: {e}"))
}

pub fn build_traced(builder: &OramBuilder) -> Result<TimedOram, String> {
    builder
        .build_freecursive_on::<TimedBackend>()
        .map(TimedOram)
        .map_err(|e| format!("building the traced stack: {e}"))
}

/// Operations attempted and failed (errors, refusals, oracle mismatches).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn fail(&mut self, what: &str) {
        // The first few say what went wrong; a broken stack would print millions.
        if self.failed < 5 {
            eprintln!("perf_stack: operation failed: {what}");
        }
        self.failed += 1;
    }
}

/// Block request `i` of a trace: a pure function, so the open-loop sender
/// and the receiver that checks the replies need not share a driver.
pub fn block_request(pattern: AddrPattern, seed: u64, i: u64) -> Request {
    let addr = block_addr(pattern, seed, i, NUM_BLOCKS);
    if is_write(i) {
        let mut data = vec![0; BLOCK_BYTES];
        block_payload(seed, i, &mut data);
        Request::Write { addr, data }
    } else {
        Request::Read { addr }
    }
}

/// Generates block request `i`, times the call that serves it, and checks
/// the reply against the model.
pub struct BlockDriver {
    pattern: AddrPattern,
    seed: u64,
    oracle: BlockOracle,
    pub tally: Tally,
}

impl BlockDriver {
    pub fn new(pattern: AddrPattern, seed: u64) -> Self {
        BlockDriver {
            pattern,
            seed,
            oracle: BlockOracle::new(seed, NUM_BLOCKS, BLOCK_BYTES),
            tally: Tally::default(),
        }
    }

    /// Folds the reply to request `i` into the model and the tally.
    pub fn check(&mut self, i: u64, reply: Result<Option<Vec<u8>>, String>) {
        let addr = block_addr(self.pattern, self.seed, i, NUM_BLOCKS);
        self.tally.attempted += 1;
        match reply {
            Err(e) => self.tally.fail(&e),
            Ok(_) if is_write(i) => self.oracle.note_write(addr, i),
            Ok(Some(data)) if self.oracle.read_matches(addr, &data) => {}
            Ok(_) => self
                .tally
                .fail(&format!("read {i} of block {addr} differs from the model")),
        }
    }

    /// One closed-loop step; returns the latency of `call`, ns.
    pub fn step(
        &mut self,
        i: u64,
        call: &mut impl FnMut(Request) -> Result<Option<Vec<u8>>, String>,
    ) -> u64 {
        let request = block_request(self.pattern, self.seed, i);
        let start = Instant::now();
        let reply = call(request);
        let ns = start.elapsed().as_nanos() as u64;
        self.check(i, reply);
        ns
    }
}

/// Serves a request from an in-process `Oram`.
pub fn call_oram(oram: &mut impl Oram, request: Request) -> Result<Option<Vec<u8>>, String> {
    oram.access(request)
        .map(|response| response.data)
        .map_err(|e| e.to_string())
}
