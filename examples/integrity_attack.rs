//! Active-adversary demonstration: PMMAC detecting tampering and replay, and
//! the §6.4 one-time-pad weakness of per-bucket-seed encryption that the
//! paper's global-seed scheme fixes.
//!
//! Run with:
//! ```text
//! cargo run --release -p bench --example integrity_attack
//! ```

use freecursive::{FreecursiveError, Oram, OramBuilder, SchemePoint};
use freecursive_repro::Adversary;
use path_oram::encryption::{BucketCipher, EncryptionMode};
use path_oram::OramParams;

fn pic_oram() -> Result<freecursive::FreecursiveOram, FreecursiveError> {
    OramBuilder::for_scheme(SchemePoint::PicX32)
        .num_blocks(1 << 12)
        .onchip_entries(64)
        .build_freecursive()
}

fn pmmac_detects_corruption() -> Result<(), FreecursiveError> {
    println!("== 1. PMMAC detects data corruption ==");
    let mut oram = pic_oram()?;
    let mut adversary = Adversary::new(7);

    for addr in 0..64u64 {
        oram.write(addr, &[addr as u8; 64])?;
    }
    let corrupted = adversary.corrupt_all_buckets(&mut oram, 120);
    println!("   adversary flipped one byte in {corrupted} ORAM tree buckets");

    let mut detected = false;
    for addr in 0..64u64 {
        match oram.read(addr) {
            Ok(data) => assert_eq!(data, vec![addr as u8; 64], "silently wrong data!"),
            Err(e) => {
                println!("   read of block {addr} raised: {e}");
                detected = true;
                break;
            }
        }
    }
    assert!(detected, "tampering must be detected");
    println!("   => tampering detected, processor would raise an exception\n");
    Ok(())
}

fn pmmac_detects_replay() -> Result<(), FreecursiveError> {
    println!("== 2. PMMAC detects replay of stale memory ==");
    let mut oram = pic_oram()?;
    let adversary = Adversary::new(8);

    oram.write(5, &[0x01; 64])?;
    // Push the block out to the tree by touching other addresses.
    for addr in 100..400u64 {
        oram.read(addr)?;
    }
    let snapshot = adversary.snapshot(&oram);
    println!("   adversary snapshotted {} buckets", snapshot.len());

    for _ in 0..4 {
        oram.write(5, &[0x02; 64])?;
    }
    for addr in 400..700u64 {
        oram.read(addr)?;
    }
    adversary.replay(&mut oram, &snapshot);
    println!("   adversary rolled DRAM back to the snapshot");
    match oram.read(5) {
        Ok(data) => {
            assert_eq!(data, vec![0x02; 64], "stale data accepted!");
            println!("   block never left trusted storage; fresh value still returned");
        }
        Err(e) => println!("   read of block 5 raised: {e}"),
    }
    println!("   => the stale snapshot is never silently accepted\n");
    Ok(())
}

fn one_time_pad_replay() {
    println!("== 3. The 6.4 pad-replay weakness of per-bucket seeds ==");
    let params = OramParams::new(1 << 10, 64, 4);

    // Vulnerable discipline ([26]): the seed lives in the bucket header and
    // the adversary can roll it back, forcing pad reuse.
    let mut vulnerable = BucketCipher::new(EncryptionMode::PerBucketSeed, [1u8; 16]);
    let secret_a = {
        let mut img = vec![0u8; params.bucket_bytes()];
        img[64] = 0x41;
        img
    };
    let secret_b = {
        let mut img = vec![0u8; params.bucket_bytes()];
        img[64] = 0x7A;
        img
    };
    let mut ct_a = secret_a.clone();
    vulnerable.seal(9, &mut ct_a);
    let mut ct_b = secret_b.clone();
    ct_b[..8].copy_from_slice(&0u64.to_le_bytes()); // adversary rolled the seed back
    vulnerable.seal(9, &mut ct_b);
    let leaked = ct_a[64] ^ ct_b[64];
    println!(
        "   per-bucket seeds: XOR of ciphertext bytes = {:#04x}, XOR of plaintexts = {:#04x} (leaked!)",
        leaked,
        secret_a[64] ^ secret_b[64]
    );
    assert_eq!(leaked, secret_a[64] ^ secret_b[64]);

    // The paper's fix: a controller-internal global seed the adversary cannot
    // influence.
    let mut fixed = BucketCipher::new(EncryptionMode::GlobalSeed, [1u8; 16]);
    let mut ct_a = secret_a.clone();
    fixed.seal(9, &mut ct_a);
    let mut ct_b = secret_b.clone();
    ct_b[..8].copy_from_slice(&0u64.to_le_bytes());
    fixed.seal(9, &mut ct_b);
    println!(
        "   global seed:      XOR of ciphertext bytes = {:#04x} (independent of the plaintexts)",
        ct_a[64] ^ ct_b[64]
    );
    println!("   => the global-seed scheme never reuses a pad\n");
}

fn main() -> Result<(), FreecursiveError> {
    pmmac_detects_corruption()?;
    pmmac_detects_replay()?;
    one_time_pad_replay();
    println!("All three adversarial scenarios behaved as the paper requires.");
    Ok(())
}
