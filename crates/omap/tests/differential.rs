//! Differential suite: `ObliviousMap` against a `HashMap` oracle.
//!
//! One seeded mixed workload (inserts with variable-length keys and
//! values — including chain-spanning ones — gets, removes, contains
//! probes) drives the oblivious map and a plain `HashMap<Vec<u8>,
//! Vec<u8>>` side by side, comparing every operation's result and then
//! sweeping the whole key universe.  The same workload runs over the
//! memory, file, and tiered stores and over a 4-shard `OramService`,
//! plus a leg that persists mid-run and resumes into a fresh process
//! image (only the snapshot directory crosses the gap).
//!
//! The access-count half pins the security contract down: every
//! operation — hit or miss, short or chained value, overwrite, failed
//! insert — costs exactly `layout.accesses_per_op()` backing-ORAM
//! requests, and input-validation failures cost exactly zero.

use std::collections::HashMap;
use std::path::Path;

use freecursive::{
    ConfigError, FreecursiveError, FrontendStats, MapError, Oram, OramBuilder, Request, Response,
    SchemePoint, StorageKind,
};
use freecursive_repro::ScratchDir;
use omap::{BuildMap, MapConfig, ObliviousMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KEY_MAX: usize = 24;
const VAL_MAX: usize = 200;
const CAPACITY: u64 = 128;
const BLOCK: usize = 128;
const KEY_UNIVERSE: u64 = 48;
const OPS: u64 = 600;

fn builder(storage: StorageKind) -> OramBuilder {
    OramBuilder::for_scheme(SchemePoint::PcX32)
        .block_bytes(BLOCK)
        .onchip_entries(32)
        .seed(11)
        .storage(storage)
}

fn config() -> MapConfig {
    MapConfig::new(KEY_MAX, VAL_MAX, CAPACITY)
}

/// Key `id` of the universe, with id-dependent length (1..=KEY_MAX) and
/// contents — so the workload exercises short, long, and equal-prefix keys.
fn key_for(id: u64) -> Vec<u8> {
    let len = 1 + (id as usize * 7) % KEY_MAX;
    (0..len)
        .map(|i| (id as u8).wrapping_mul(31).wrapping_add(i as u8))
        .collect()
}

/// One differential step; returns the key so callers can track coverage.
fn step<O: Oram>(
    map: &mut ObliviousMap<O>,
    oracle: &mut HashMap<Vec<u8>, Vec<u8>>,
    rng: &mut StdRng,
) {
    let key = key_for(rng.gen_range(0..KEY_UNIVERSE));
    match rng.gen_range(0..10u32) {
        // Inserts dominate so the table fills enough to exercise
        // collisions and chain reuse.
        0..=3 => {
            let len = rng.gen_range(0..VAL_MAX + 1);
            let mut value = vec![0u8; len];
            rng.fill(&mut value[..]);
            match map.insert(&key, &value) {
                Ok(previous) => {
                    let expected = oracle.insert(key, value).map(|old| old.len() as u64);
                    assert_eq!(previous, expected, "insert previous-length mismatch");
                }
                Err(FreecursiveError::Map(MapError::CapacityExhausted { .. })) => {
                    // The oracle has no capacity limit; a (rare) rejected
                    // insert must simply leave the map unchanged, which
                    // the final sweep verifies.
                }
                Err(e) => panic!("insert failed: {e}"),
            }
        }
        4..=6 => {
            let got = map.get(&key).expect("get");
            assert_eq!(got.as_deref(), oracle.get(&key).map(Vec::as_slice));
        }
        7..=8 => {
            let got = map.remove(&key).expect("remove");
            assert_eq!(got, oracle.remove(&key));
        }
        _ => {
            let got = map.contains(&key).expect("contains");
            assert_eq!(got, oracle.contains_key(&key));
        }
    }
}

/// Full-universe sweep plus length check.
fn sweep<O: Oram>(map: &mut ObliviousMap<O>, oracle: &HashMap<Vec<u8>, Vec<u8>>) {
    for id in 0..KEY_UNIVERSE {
        let key = key_for(id);
        let got = map.get(&key).expect("sweep get");
        assert_eq!(
            got.as_deref(),
            oracle.get(&key).map(Vec::as_slice),
            "key id {id}"
        );
    }
    assert_eq!(map.len(), oracle.len() as u64);
}

fn run_differential<O: Oram>(mut map: ObliviousMap<O>, seed: u64) -> ObliviousMap<O> {
    let mut oracle = HashMap::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..OPS {
        step(&mut map, &mut oracle, &mut rng);
    }
    sweep(&mut map, &oracle);
    map
}

#[test]
fn differential_against_hashmap_memory_store() {
    let map = builder(StorageKind::Mem).build_map(&config()).unwrap();
    run_differential(map, 0xA11CE);
}

#[test]
fn differential_against_hashmap_file_store() {
    let map = builder(StorageKind::TempFile).build_map(&config()).unwrap();
    run_differential(map, 0xB0B);
}

#[test]
fn differential_against_hashmap_tiered_store() {
    // A deliberately tiny budget keeps most of the tree on the cold tier.
    let map = builder(StorageKind::TempTiered {
        memory_budget: 16 * 1024,
    })
    .build_map(&config())
    .unwrap();
    run_differential(map, 0xCAFE);
}

#[test]
fn differential_against_hashmap_sharded_service() {
    let (service, map) = builder(StorageKind::Mem)
        .shards(4)
        .build_map_service(&config())
        .unwrap();
    let map = run_differential(map, 0xD00D);
    drop(map);
    service.shutdown().unwrap();
}

#[test]
fn persist_midway_and_resume_continues_the_differential_run() {
    let dir = ScratchDir::new("omap-resume");
    let mut oracle = HashMap::new();
    let mut rng = StdRng::seed_from_u64(0x5EED);

    let mut map = builder(StorageKind::TempFile).build_map(&config()).unwrap();
    for _ in 0..OPS / 2 {
        step(&mut map, &mut oracle, &mut rng);
    }
    map.persist(&dir).unwrap();
    let stats_at_barrier = *map.stats();
    let len_at_barrier = map.len();
    drop(map);

    // Only the snapshot directory survives the "restart".
    let mut resumed = ObliviousMap::resume(&dir).unwrap();
    assert_eq!(*resumed.stats(), stats_at_barrier);
    assert_eq!(resumed.len(), len_at_barrier);
    for _ in 0..OPS / 2 {
        step(&mut resumed, &mut oracle, &mut rng);
    }
    sweep(&mut resumed, &oracle);
}

#[test]
fn resume_rejects_wrong_layout() {
    let dir = ScratchDir::new("omap-tamper");
    let map = builder(StorageKind::TempFile).build_map(&config()).unwrap();
    map.persist(&dir).unwrap();
    drop(map);

    // Truncating the map state must fail cleanly, not panic.
    let state = dir.join("omap.state");
    let bytes = std::fs::read(&state).unwrap();
    std::fs::write(&state, &bytes[..bytes.len() / 2]).unwrap();
    assert!(ObliviousMap::resume(&dir).is_err());
}

// ---------------------------------------------------------------------------
// Access-count invariance
// ---------------------------------------------------------------------------

/// Transparent [`Oram`] wrapper that counts requests.
struct CountingOram {
    inner: Box<dyn Oram>,
    requests: u64,
}

impl Oram for CountingOram {
    fn block_bytes(&self) -> usize {
        self.inner.block_bytes()
    }
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }
    fn access(&mut self, request: Request) -> Result<Response, FreecursiveError> {
        self.requests += 1;
        self.inner.access(request)
    }
    fn access_batch(&mut self, requests: &[Request]) -> Result<Vec<Response>, FreecursiveError> {
        self.requests += requests.len() as u64;
        self.inner.access_batch(requests)
    }
    fn access_batch_owned(
        &mut self,
        requests: Vec<Request>,
    ) -> Result<Vec<Response>, FreecursiveError> {
        self.requests += requests.len() as u64;
        self.inner.access_batch_owned(requests)
    }
    fn stats(&self) -> &FrontendStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }
    fn persist(&self, dir: &Path) -> Result<(), FreecursiveError> {
        self.inner.persist(dir)
    }
}

fn counting_map(config: &MapConfig) -> ObliviousMap<CountingOram> {
    let layout = config.layout_for(BLOCK).unwrap();
    let oram = builder(StorageKind::Mem)
        .num_blocks(layout.total_blocks())
        .build()
        .unwrap();
    let counting = CountingOram {
        inner: oram,
        requests: 0,
    };
    ObliviousMap::over(counting, layout, [7u8; 16]).unwrap()
}

/// Asserts `op` costs exactly `expected` backing-ORAM requests.
fn assert_costs<R>(
    map: &mut ObliviousMap<CountingOram>,
    expected: u64,
    op: impl FnOnce(&mut ObliviousMap<CountingOram>) -> R,
) -> R {
    let before = map.oram().requests;
    let result = op(map);
    let after = map.oram().requests;
    assert_eq!(after - before, expected, "operation cost mismatch");
    result
}

#[test]
fn every_operation_costs_exactly_the_padded_schedule() {
    let mut map = counting_map(&config());
    let per_op = map.layout().accesses_per_op();
    assert!(map.layout().chain_blocks > 0, "test wants chained values");

    let short = vec![1u8; 3];
    let long = vec![2u8; VAL_MAX];

    // Fresh inserts, short (inline-only) and long (full chain).
    assert_costs(&mut map, per_op, |m| m.insert(b"alpha", &short).unwrap());
    assert_costs(&mut map, per_op, |m| m.insert(b"beta", &long).unwrap());
    // Overwrites across size classes (chain grow and shrink).
    assert_costs(&mut map, per_op, |m| m.insert(b"alpha", &long).unwrap());
    assert_costs(&mut map, per_op, |m| m.insert(b"beta", &short).unwrap());
    // Lookups: hit with chain, hit inline, miss.
    assert_costs(&mut map, per_op, |m| {
        assert_eq!(m.get(b"alpha").unwrap().as_deref(), Some(&long[..]));
    });
    assert_costs(&mut map, per_op, |m| {
        assert_eq!(m.get(b"beta").unwrap().as_deref(), Some(&short[..]));
    });
    assert_costs(&mut map, per_op, |m| {
        assert_eq!(m.get(b"missing").unwrap(), None);
    });
    // Contains, both outcomes.
    assert_costs(&mut map, per_op, |m| assert!(m.contains(b"alpha").unwrap()));
    assert_costs(&mut map, per_op, |m| assert!(!m.contains(b"nope").unwrap()));
    // Removes: chained hit, miss.
    assert_costs(&mut map, per_op, |m| {
        assert_eq!(m.remove(b"alpha").unwrap().as_deref(), Some(&long[..]));
    });
    assert_costs(&mut map, per_op, |m| {
        assert_eq!(m.remove(b"alpha").unwrap(), None);
    });

    // The map's own counter agrees with the wrapper's ground truth.
    assert_eq!(map.stats().oram_requests, map.oram().requests);
    assert_eq!(map.stats().oram_requests, map.stats().ops * per_op);
}

#[test]
fn failed_inserts_still_pay_the_full_schedule() {
    // A minimum-size overflow pool: the first chained insert drains it.
    let layout_probe = config().layout_for(BLOCK).unwrap();
    let tight = config().overflow_blocks(layout_probe.chain_blocks as u64);
    let mut map = counting_map(&tight);
    let per_op = map.layout().accesses_per_op();

    let long = vec![9u8; VAL_MAX];
    assert_costs(&mut map, per_op, |m| m.insert(b"first", &long).unwrap());
    let err = assert_costs(&mut map, per_op, |m| m.insert(b"second", &long));
    assert!(matches!(
        err,
        Err(FreecursiveError::Map(MapError::CapacityExhausted { .. }))
    ));
    assert_eq!(map.stats().capacity_failures, 1);
    // The failed insert changed nothing.
    assert_eq!(map.len(), 1);
    assert_eq!(map.get(b"second").unwrap(), None);
    assert_eq!(map.get(b"first").unwrap().as_deref(), Some(&long[..]));
}

#[test]
fn input_validation_failures_cost_zero_accesses() {
    let mut map = counting_map(&config());
    let oversized_key = vec![0u8; KEY_MAX + 1];
    let oversized_value = vec![0u8; VAL_MAX + 1];

    assert_costs(&mut map, 0, |m| {
        assert!(matches!(
            m.get(&oversized_key),
            Err(FreecursiveError::Map(MapError::KeyTooLarge { .. }))
        ));
        assert!(matches!(
            m.insert(&oversized_key, b"v"),
            Err(FreecursiveError::Map(MapError::KeyTooLarge { .. }))
        ));
        assert!(matches!(
            m.insert(b"k", &oversized_value),
            Err(FreecursiveError::Map(MapError::ValueTooLarge { .. }))
        ));
        assert!(matches!(
            m.remove(&oversized_key),
            Err(FreecursiveError::Map(MapError::KeyTooLarge { .. }))
        ));
        assert!(matches!(
            m.contains(&oversized_key),
            Err(FreecursiveError::Map(MapError::KeyTooLarge { .. }))
        ));
    });
    assert_eq!(map.stats().ops, 0);
}

// ---------------------------------------------------------------------------
// Up-front build validation
// ---------------------------------------------------------------------------

#[test]
fn build_map_rejects_bad_configurations_before_any_work() {
    let b = builder(StorageKind::Mem);
    assert!(matches!(
        b.build_map(&MapConfig::new(0, 8, 16)),
        Err(FreecursiveError::Config(ConfigError::Degenerate))
    ));
    assert!(matches!(
        b.build_map(&MapConfig::new(8, 8, 0)),
        Err(FreecursiveError::Config(ConfigError::Degenerate))
    ));
    assert!(matches!(
        b.build_map(&MapConfig::new(BLOCK, 8, 16)),
        Err(FreecursiveError::Map(MapError::KeyTooLarge { .. }))
    ));
    assert!(matches!(
        b.build_map(&MapConfig::new(BLOCK - 16, 1 << 20, 16)),
        Err(FreecursiveError::Map(MapError::ValueTooLarge { .. }))
    ));
    assert!(matches!(
        b.build_map(&MapConfig::new(KEY_MAX, VAL_MAX, CAPACITY).overflow_blocks(1)),
        Err(FreecursiveError::Config(ConfigError::MapGeometry { .. }))
    ));
}

#[test]
fn over_rejects_a_mismatched_backing_oram() {
    let layout = config().layout_for(BLOCK).unwrap();
    // Wrong block size.
    let wrong_block = builder(StorageKind::Mem)
        .block_bytes(64)
        .num_blocks(layout.total_blocks())
        .build()
        .unwrap();
    assert!(matches!(
        ObliviousMap::over(wrong_block, layout.clone(), [0u8; 16]),
        Err(FreecursiveError::Config(ConfigError::MapGeometry { .. }))
    ));
    // Too few blocks.
    let too_small = builder(StorageKind::Mem)
        .num_blocks(layout.total_blocks() - 1)
        .build()
        .unwrap();
    assert!(matches!(
        ObliviousMap::over(too_small, layout, [0u8; 16]),
        Err(FreecursiveError::Config(ConfigError::MapGeometry { .. }))
    ));
}
