//! Allocator-level proof that `PathOramBackend::access_into` is
//! allocation-free in steady state, over all three storage kinds.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! that touches every block (so the residency set, stash slab, classifier
//! lists and scratch buffers have all reached their working capacities),
//! two thousand further accesses must perform **zero** heap allocations:
//!
//! * `Mem` — the arena is the whole tree and the backend works on it in
//!   place;
//! * `TempFile` — no treetop: positional I/O goes straight between the
//!   kernel and the backend's reusable scratch buffers (`path_buf` in,
//!   `write_buf` out), so the file tier cannot silently reintroduce
//!   per-access allocation;
//! * `TempTiered` — treetop buckets are memcpy'd from the arena and deeper
//!   buckets go through the file tier, on the same zero budget.
//!
//! The `#[global_allocator]` is process-wide and the test harness runs the
//! three cases on concurrent threads, so allocations are counted per thread:
//! a backend does all its work, I/O included, on the calling thread.

use path_oram::{AccessOp, EncryptionMode, OramBackend, OramParams, PathOramBackend, StorageKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates and it stays readable during thread teardown.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const N: u64 = 1 << 10;
const BLOCK: usize = 64;

/// The pinned allocation budget for the measured steady-state accesses.  It
/// is zero for every store today; if a legitimate change ever needs to
/// allocate on this path, raise the pin consciously in review rather than
/// letting it drift.
const STEADY_STATE_ALLOCATION_BUDGET: u64 = 0;

fn params() -> OramParams {
    OramParams::new(N, BLOCK, 4)
}

/// One backend plus the caller-side state an access needs: the position
/// map, the seeded stream, and the reusable in/out buffers.
struct Driver {
    backend: PathOramBackend,
    rng: StdRng,
    posmap: Vec<u64>,
    out: Vec<u8>,
    write_data: Vec<u8>,
}

impl Driver {
    /// GlobalSeed: the proof covers the *encrypted* hot path, not just the
    /// plaintext fast path.  The storage kind is pinned explicitly (not left
    /// to `ORAM_STORAGE` resolution): each case is one store's guarantee.
    fn new(kind: &StorageKind, seed: u64) -> Self {
        let params = params();
        let backend = PathOramBackend::new_backend_with(
            params,
            EncryptionMode::GlobalSeed,
            [3u8; 16],
            0,
            kind,
            path_oram::Durability::None,
            0,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let posmap = (0..N)
            .map(|_| rng.gen_range(0..params.num_leaves()))
            .collect();
        Self {
            backend,
            rng,
            posmap,
            out: Vec::with_capacity(BLOCK),
            write_data: vec![0u8; BLOCK],
        }
    }

    fn access(&mut self, op: AccessOp, addr: u64) {
        let leaves = self.backend.params().num_leaves();
        let new_leaf = self.rng.gen_range(0..leaves);
        let old_leaf = std::mem::replace(&mut self.posmap[addr as usize], new_leaf);
        let data = (op == AccessOp::Write).then_some(&self.write_data[..]);
        self.backend
            .access_into(op, addr, old_leaf, new_leaf, data, &mut self.out)
            .unwrap();
    }

    /// The `i`-th access of the mixed workload: a random block, read on even
    /// `i`, written on odd.
    fn mixed(&mut self, i: u64) {
        let addr = self.rng.gen_range(0..N);
        if i.is_multiple_of(2) {
            self.access(AccessOp::Read, addr);
        } else {
            self.write_data[0] = i as u8;
            self.access(AccessOp::Write, addr);
        }
    }

    fn sequential(&mut self, count: u64) {
        for i in 0..count {
            self.mixed(i);
        }
    }

    /// Warms up, then asserts the pinned budget over 2008 accesses.
    fn assert_steady_state_is_allocation_free(&mut self, store: &str) {
        // Warm-up: write every block once (populating the residency set to
        // its final size), then run the mixed workload long enough for
        // every scratch buffer and map to reach steady capacity.
        for addr in 0..N {
            self.access(AccessOp::Write, addr);
        }
        self.sequential(4000);

        let slab_before = self.backend.stash_slot_capacity();
        let before = ALLOCATIONS.get();
        self.sequential(2008);
        let allocation_delta = ALLOCATIONS.get() - before;

        assert_eq!(
            allocation_delta, STEADY_STATE_ALLOCATION_BUDGET,
            "{store}-store steady state must stay at its pinned allocation count"
        );
        assert_eq!(
            self.backend.stash_slot_capacity(),
            slab_before,
            "stash slab capacity is stable"
        );
        assert!(
            self.backend.stats().max_stash_occupancy <= params().stash_capacity,
            "stash stayed within capacity"
        );
    }
}

#[test]
fn steady_state_access_performs_zero_heap_allocations() {
    let mut driver = Driver::new(&StorageKind::Mem, 0x2E20_A110C);
    assert!(
        !driver.backend.storage().is_file_backed(),
        "this test pins the arena-only store"
    );
    driver.assert_steady_state_is_allocation_free("mem");
}

#[test]
fn file_store_steady_state_allocation_count_is_pinned() {
    let mut driver = Driver::new(&StorageKind::TempFile, 0xF11E_A110C);
    assert!(
        driver.backend.storage().is_file_backed(),
        "this test pins the file store"
    );
    driver.assert_steady_state_is_allocation_free("file");
}

#[test]
fn tiered_store_steady_state_allocation_count_is_pinned() {
    // A budget that splits the tree mid-way: big enough for a non-trivial
    // treetop, small enough that the lower levels spill to the file tier.
    let kind = StorageKind::TempTiered {
        memory_budget: 16 << 10,
    };
    let mut driver = Driver::new(&kind, 0x71E2_A110C);
    let split = driver.backend.storage().treetop_levels();
    assert!(
        split > 0 && split < params().levels(),
        "budget must give a genuine mid-tree split, got K={split} of {} levels",
        params().levels()
    );
    driver.assert_steady_state_is_allocation_free("tiered");
}
