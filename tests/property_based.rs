//! Randomised property tests over the core data structures and the
//! functional ORAM: serialisation roundtrips, counter monotonicity, tree
//! index arithmetic, and linearisability of the ORAM against the flat
//! oracle under arbitrary request sequences.
//!
//! The environment has no crates.io access, so instead of proptest these
//! properties are driven by a seeded RNG over many randomly drawn cases —
//! deterministic across runs, with the failing case identified by its index.

use freecursive::{OramBuilder, SchemePoint};
use freecursive_repro::Op::{Read, Write};
use freecursive_repro::{agree, flat, schedule};
use oram_crypto::mac::MacKey;
use oram_crypto::prf::AesPrf;
use path_oram::tree;
use path_oram::OramParams;
use posmap::addressing::{tag_address, untag_address, RecursionAddressing};
use posmap::CompressedPosMapBlock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Compressed PosMap blocks survive a serialise/parse roundtrip for any
/// counter state reachable by increments.
#[test]
fn compressed_posmap_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_0001);
    for case in 0..64 {
        let mut block = CompressedPosMapBlock::with_defaults(32);
        let increments = rng.gen_range(0usize..200);
        for _ in 0..increments {
            block.increment(rng.gen_range(0usize..32));
        }
        let bytes = block.to_bytes(64);
        assert_eq!(
            CompressedPosMapBlock::from_bytes(&bytes, 32, 64, 14),
            block,
            "case {case}"
        );
    }
}

/// The scalar counter GC‖IC of any entry never decreases, whatever the
/// interleaving of increments across entries.
#[test]
fn compressed_counters_are_monotonic() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_0002);
    for case in 0..64 {
        let mut block = CompressedPosMapBlock::new(8, 32, 4);
        let mut last: Vec<u64> = (0..8).map(|j| block.counter_of(j)).collect();
        let increments = rng.gen_range(1usize..300);
        for _ in 0..increments {
            block.increment(rng.gen_range(0usize..8));
            for (k, l) in last.iter_mut().enumerate() {
                let now = block.counter_of(k);
                assert!(
                    now >= *l,
                    "case {case}: entry {k} went backwards: {l} -> {now}"
                );
                *l = now;
            }
        }
    }
}

/// Tree index arithmetic: every bucket on a path is an ancestor of the leaf
/// bucket, and the block-residency predicate agrees with the
/// deepest-common-level computation.
#[test]
fn path_indices_are_consistent() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_0003);
    for case in 0..64 {
        let leaf_level = rng.gen_range(1u32..20);
        let leaf = rng.gen::<u64>() & ((1u64 << leaf_level) - 1);
        let path = tree::path_linear_indices(leaf, leaf_level);
        assert_eq!(path.len() as u32, leaf_level + 1, "case {case}");
        for (level, linear) in path.iter().enumerate() {
            let (lvl, idx) = tree::bucket_coordinates(*linear);
            assert_eq!(lvl, level as u32, "case {case}");
            assert_eq!(idx, leaf >> (leaf_level - level as u32), "case {case}");
        }
        let other = (leaf ^ 1) & ((1u64 << leaf_level) - 1);
        let deepest = tree::deepest_common_level(leaf, other, leaf_level);
        assert!(
            tree::block_can_reside(leaf, other, deepest, leaf_level),
            "case {case}"
        );
    }
}

/// Unified address tagging is injective and reversible.
#[test]
fn unified_address_tagging_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_0004);
    for _ in 0..256 {
        let level = rng.gen_range(0u32..8);
        let index = rng.gen_range(0u64..(1u64 << 40));
        assert_eq!(untag_address(tag_address(level, index)), (level, index));
    }
}

/// Recursion addressing: the covering PosMap block at each level really
/// covers the data block (the entry index is within X), and the deepest level
/// fits the on-chip PosMap.
#[test]
fn recursion_addressing_covers_every_block() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_0005);
    for case in 0..64 {
        let n = 1u64 << rng.gen_range(8u32..22);
        let x = 1u64 << rng.gen_range(1u32..6);
        let rec = RecursionAddressing::new(n, x, 64);
        let a0 = rng.gen::<u64>() % n;
        for level in 1..rec.num_levels() {
            let parent = rec.posmap_block_addr(level, a0);
            let child = rec.posmap_block_addr(level - 1, a0);
            assert_eq!(parent, child / x, "case {case}");
            assert!(rec.entry_index(level, a0) < x as usize, "case {case}");
        }
        assert!(rec.required_onchip_entries() <= 64.max(n), "case {case}");
    }
}

/// OramParams always provides at least 2N slots and bucket sizes padded to
/// the configured alignment.
#[test]
fn oram_params_capacity_invariant() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_0006);
    for case in 0..128 {
        let n = rng.gen_range(1u64..(1 << 24));
        let block = rng.gen_range(16usize..256);
        let z = rng.gen_range(2usize..8);
        let p = OramParams::new(n, block, z);
        let slots = p.z as u64 * (p.num_buckets() + 1);
        assert!(slots >= 2 * n, "case {case}: n={n} block={block} z={z}");
        assert_eq!(p.bucket_bytes() % p.bucket_align, 0, "case {case}");
        assert!(p.path_bytes() >= p.bucket_bytes() as u64, "case {case}");
    }
}

/// PRF leaves always fall inside the tree.
#[test]
fn prf_leaves_are_in_range() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_0007);
    let prf = AesPrf::new([3u8; 16]);
    for _ in 0..256 {
        let addr = rng.gen::<u64>();
        let counter = rng.gen::<u64>();
        let levels = rng.gen_range(0u32..40);
        let leaf = prf.leaf_for(addr, counter, levels);
        assert!(levels == 0 || leaf < (1u64 << levels));
    }
}

/// MAC verification accepts exactly the tuple that was MACed.
#[test]
fn mac_detects_any_single_field_change() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_0008);
    let key = MacKey::new([1u8; 16]);
    for case in 0..64 {
        let counter = rng.gen::<u64>();
        let addr = rng.gen::<u64>();
        let mut data = vec![0u8; rng.gen_range(1usize..64)];
        rng.fill(&mut data[..]);
        let mac = key.compute(counter, addr, &data);
        assert!(key.verify(counter, addr, &data, &mac), "case {case}");
        assert!(
            !key.verify(counter.wrapping_add(1), addr, &data, &mac),
            "case {case}"
        );
        assert!(!key.verify(counter, addr ^ 1, &data, &mac), "case {case}");
        let mut tampered = data.clone();
        tampered[0] ^= 0x80;
        assert!(!key.verify(counter, addr, &tampered, &mac), "case {case}");
    }
}

/// The Freecursive ORAM behaves exactly like a flat array of blocks under
/// arbitrary (bounded) request sequences, for both the compressed and
/// flat-counter designs.
#[test]
fn oram_is_linearisable_against_reference_memory() {
    let mut rng = StdRng::seed_from_u64(0xC0DE_0009);
    let n: u64 = 256;
    let block = 32usize;
    for case in 0..6 {
        let scheme = if case % 2 == 0 {
            SchemePoint::PicX32
        } else {
            SchemePoint::PiX8
        };
        let mut oram = OramBuilder::for_scheme(scheme)
            .num_blocks(n)
            .block_bytes(block)
            .onchip_entries(32)
            .build_freecursive()
            .unwrap();
        let ops = rng.gen_range(1usize..120);
        let requests = schedule(rng.gen(), ops, 0..n, block, &[Write, Read]);
        agree(
            &mut oram,
            &mut flat(n, block),
            &requests,
            format!("case {case}"),
        );
    }
}
