//! Criterion micro-benchmarks of the cryptographic primitives the ORAM
//! controller is built on (AES-128 for the PRF and bucket encryption,
//! SHA3-224 for PMMAC).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use freecursive::FreecursiveConfig;
use oram_crypto::ctr::{CtrKeystream, KeystreamSpan};
use oram_crypto::keccak;
use oram_crypto::mac::MacKey;
use oram_crypto::prf::AesPrf;
use oram_crypto::sha3::Sha3_224;
use oram_crypto::{Aes128, PARALLEL_BLOCKS};
use path_oram::OramParams;

fn bench_aes_block(c: &mut Criterion) {
    let aes = Aes128::new([7u8; 16]);
    let engine = aes.engine().label();
    let mut group = c.benchmark_group(format!("crypto/aes128[{engine}]"));
    group.throughput(Throughput::Bytes(16));
    group.bench_function("encrypt_block", |b| {
        let mut block = [0u8; 16];
        b.iter(|| {
            block = aes.encrypt_block(block);
            block
        });
    });
    // One full engine batch: 8 blocks per call.
    group.throughput(Throughput::Bytes((PARALLEL_BLOCKS * 16) as u64));
    group.bench_function("encrypt_blocks_x8", |b| {
        let mut blocks = [0u8; PARALLEL_BLOCKS * 16];
        b.iter(|| {
            aes.encrypt_blocks(&mut blocks);
            blocks[0]
        });
    });
    group.finish();
}

fn bench_ctr_bucket(c: &mut Criterion) {
    // The hot shape of the 1M-block / 64-byte PIC_X32 design point, derived
    // from its one unified tree: 20 levels of 384-byte bucket images, each
    // an 8-byte plaintext header and 376 sealed bytes (PMMAC makes the tree
    // block 78 bytes).  The group name carries the engine label, so a run
    // records which kernel it measured.
    let config = FreecursiveConfig::pic_x32(1 << 20, 64);
    let (blocks, payload_bytes) = config.trees()[0];
    let params = OramParams::new(blocks, payload_bytes, config.z);
    let levels = params.levels() as usize;
    let stride = params.bucket_bytes();
    let sealed = params.bucket_sealed_bytes();

    let ks = CtrKeystream::new([3u8; 16]);
    let engine = ks.engine().label();
    let mut group = c.benchmark_group(format!("crypto/ctr[{engine}]"));
    group.throughput(Throughput::Bytes(sealed as u64));
    group.bench_function(format!("seal_bucket_{sealed}B"), |b| {
        b.iter_batched(
            || vec![0xA5u8; sealed],
            |mut bucket| {
                ks.apply(42, &mut bucket);
                bucket
            },
            BatchSize::SmallInput,
        );
    });
    // A whole path sealed in one batched pass.
    let spans: Vec<KeystreamSpan> = (0..levels)
        .map(|i| KeystreamSpan {
            seed: 1000 + i as u128,
            start: i * stride + (stride - sealed),
            len: sealed,
        })
        .collect();
    group.throughput(Throughput::Bytes((levels * sealed) as u64));
    group.bench_function(format!("seal_path_{levels}x{sealed}B_batched"), |b| {
        b.iter_batched(
            || vec![0xA5u8; levels * stride],
            |mut path| {
                ks.apply_batch(&spans, &mut path);
                path
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_prf_leaf(c: &mut Criterion) {
    let prf = AesPrf::new([1u8; 16]);
    c.bench_function("crypto/prf_leaf_for", |b| {
        let mut counter = 0u64;
        b.iter(|| {
            counter += 1;
            prf.leaf_for(12345, counter, 25)
        });
    });
}

fn bench_sha3_and_mac(c: &mut Criterion) {
    // The group name carries the Keccak kernel label, as the ctr group
    // carries the AES engine's.
    let kernel = keccak::kernel_label();
    let mut group = c.benchmark_group(format!("crypto/sha3[{kernel}]"));
    group.throughput(Throughput::Bytes(64));
    group.bench_function("sha3_224_64B", |b| {
        let data = [0x5Au8; 64];
        b.iter(|| Sha3_224::digest(&data));
    });
    let key = MacKey::new([9u8; 16]);
    group.bench_function("pmmac_mac_64B_block", |b| {
        let data = [0x5Au8; 64];
        let mut counter = 0u64;
        b.iter(|| {
            counter += 1;
            key.compute(counter, 77, &data)
        });
    });
    // One path access's two MACs in one call: the check of the fetched
    // block and the MAC of the block written back, for the 64-byte data
    // block and the map's 128-byte block.
    for bytes in [64usize, 128] {
        let fetched = vec![0x5Au8; bytes];
        let written = vec![0xA5u8; bytes];
        let tag = key.compute(1, 77, &fetched);
        group.throughput(Throughput::Bytes(2 * bytes as u64));
        group.bench_function(format!("pmmac_verify_and_compute_{bytes}B"), |b| {
            let mut counter = 1u64;
            b.iter(|| {
                counter += 1;
                key.verify_and_compute((1, 77, &fetched), &tag, (counter, 77, &written))
            });
        });
    }
    group.finish();
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
    targets = bench_aes_block, bench_ctr_bucket, bench_prf_leaf, bench_sha3_and_mac
}
criterion_main!(benches);
