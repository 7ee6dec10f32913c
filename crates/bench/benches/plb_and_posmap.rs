//! Criterion benchmarks of the PosMap data structures: PLB lookups,
//! compressed PosMap block operations, and recursion addressing.

use criterion::{criterion_group, criterion_main, Criterion};
use oram_crypto::prf::AesPrf;
use posmap::addressing::RecursionAddressing;
use posmap::{CompressedPosMapBlock, Plb, PlbEntry, UncompressedPosMapBlock};

fn bench_plb(c: &mut Criterion) {
    let mut group = c.benchmark_group("posmap/plb");
    // A 64 KB direct-mapped PLB of 64-byte blocks (the paper's default).
    let mut plb: Plb<[u8; 64]> = Plb::new(1024, 1);
    for i in 0..1024u64 {
        plb.insert(PlbEntry {
            unified_addr: i,
            leaf: i,
            payload: [0u8; 64],
        });
    }
    let mut i = 0u64;
    group.bench_function("lookup_hit", |b| {
        b.iter(|| {
            i = (i + 1) % 1024;
            plb.lookup(i).is_some()
        });
    });
    group.bench_function("lookup_miss_and_refill", |b| {
        b.iter(|| {
            i += 1;
            let addr = 10_000 + i;
            if plb.lookup(addr).is_none() {
                plb.insert(PlbEntry {
                    unified_addr: addr,
                    leaf: addr,
                    payload: [0u8; 64],
                });
            }
        });
    });
    group.finish();
}

fn bench_posmap_blocks(c: &mut Criterion) {
    let mut group = c.benchmark_group("posmap/blocks");
    let prf = AesPrf::new([2u8; 16]);

    let mut compressed = CompressedPosMapBlock::with_defaults(32);
    let mut j = 0usize;
    group.bench_function("compressed_increment_and_leaf", |b| {
        b.iter(|| {
            j = (j + 1) % 32;
            compressed.increment(j);
            prf.leaf_for(1000 + j as u64, compressed.counter_of(j), 25)
        });
    });

    group.bench_function("compressed_serialise_64B", |b| {
        b.iter(|| compressed.to_bytes(64));
    });

    let mut uncompressed = UncompressedPosMapBlock::new(16);
    group.bench_function("uncompressed_update_and_serialise", |b| {
        let mut leaf = 0u64;
        b.iter(|| {
            leaf += 1;
            uncompressed.set_leaf((leaf % 16) as usize, leaf % (1 << 25));
            uncompressed.to_bytes(64)
        });
    });
    group.finish();
}

fn bench_addressing(c: &mut Criterion) {
    let rec = RecursionAddressing::new(1 << 26, 32, 1 << 10);
    let mut a = 0u64;
    c.bench_function("posmap/recursion_walk_addresses", |b| {
        b.iter(|| {
            a = (a + 12345) % (1 << 26);
            let mut acc = 0u64;
            for level in 0..rec.num_levels() {
                acc ^= rec.unified_addr(level, a);
            }
            acc
        });
    });
}

fn quick_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = quick_config();
    targets = bench_plb, bench_posmap_blocks, bench_addressing
}
criterion_main!(benches);
