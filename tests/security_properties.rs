//! Security-property integration tests: the obliviousness of the backend
//! request trace, the indistinguishability argument for the PLB + unified
//! tree (§4.3), and PMMAC's integrity guarantees under an active adversary
//! (§6.5).

use freecursive::{FreecursiveError, Oram, OramBuilder, OramError, SchemePoint};
use freecursive_repro::{Adversary, LeafRecorder};
use path_oram::{AccessOp, EncryptionMode, OramBackend, OramParams, PathOramBackend};

/// Statistical obliviousness of the backend trace: every leaf the frontend
/// asks the backend for is a fresh uniform value, so the visited paths are
/// distributed the same whatever the program.  R_X8 draws its leaves from
/// the PRF in counter mode; PIC_X32 derives them from per-block counters.
#[test]
fn backend_path_distribution_is_independent_of_the_program() {
    const N: u64 = 1 << 12;
    const REQUESTS: u64 = 4096;
    const BIN_BITS: u32 = 6;
    // χ² with 63 degrees of freedom exceeds 130 with probability ~1e-6.
    const CHI2_BOUND: f64 = 130.0;
    let scan: Vec<u64> = (0..REQUESTS).map(|i| i % N).collect();
    let one_hot = vec![7u64; REQUESTS as usize];
    for scheme in [SchemePoint::RX8, SchemePoint::PicX32] {
        let mut bytes_per_access = Vec::new();
        for (program, addrs) in [("scan", &scan), ("one-hot", &one_hot)] {
            let label = format!("{} {program}", scheme.label());
            let mut oram = OramBuilder::for_scheme(scheme)
                .num_blocks(N)
                .block_bytes(64)
                .onchip_entries(64)
                .build_freecursive_on::<LeafRecorder>()
                .unwrap();
            for &a in addrs {
                oram.read(a).unwrap();
            }
            // Bin each path by the top bits of its leaf, pooling every
            // tree with at least one leaf per bin.
            let mut bins = [0u64; 1 << BIN_BITS];
            for tree in oram.trees() {
                let level = tree.params().leaf_level();
                if level >= BIN_BITS {
                    for &leaf in tree.leaves() {
                        bins[(leaf >> (level - BIN_BITS)) as usize] += 1;
                    }
                }
            }
            let total: u64 = bins.iter().sum();
            assert!(total >= REQUESTS, "{label}: {total} leaves recorded");
            let expected = total as f64 / bins.len() as f64;
            let chi2: f64 = bins
                .iter()
                .map(|&count| (count as f64 - expected).powi(2) / expected)
                .sum();
            assert!(
                chi2 < CHI2_BOUND,
                "{label}: χ² = {chi2:.1} over {total} leaves"
            );
            let stats = oram.backend().stats();
            bytes_per_access.push(stats.bytes_written / stats.path_accesses);
        }
        // Every access writes the same number of bytes to untrusted memory,
        // whatever the program.
        assert_eq!(
            bytes_per_access[0],
            bytes_per_access[1],
            "{}",
            scheme.label()
        );
    }
}

/// The §4.1.2 counterexample, resolved: with the unified tree, program A
/// (unit stride) and program B (stride X) are distinguishable only by their
/// total number of backend accesses — not by *which* structure is accessed.
#[test]
fn unified_tree_hides_which_posmap_level_is_needed() {
    let builder = || {
        OramBuilder::for_scheme(SchemePoint::PcX32)
            .num_blocks(1 << 14)
            .block_bytes(64)
            .onchip_entries(64)
    };
    let run = |stride: u64| -> (u64, u64) {
        let mut oram = builder().build_freecursive().unwrap();
        for i in 0..2000u64 {
            oram.read((i * stride) % (1 << 14)).unwrap();
        }
        let s = oram.stats();
        (s.total_backend_accesses(), s.data_backend_accesses)
    };
    let x = builder().freecursive_config().unwrap().x();
    let (a_total, a_data) = run(1);
    let (b_total, b_data) = run(x);
    // Program B needs more total accesses (PLB misses)…
    assert!(b_total > a_total);
    // …but both programs' accesses all target the single unified tree: the
    // per-access observable is identical, and the data-block accesses are
    // exactly one per request for both.
    assert_eq!(a_data, 2000);
    assert_eq!(b_data, 2000);
}

/// Every bucket written to untrusted memory under the global-seed scheme uses
/// a fresh pad: ciphertexts of consecutive writes of the same bucket differ
/// even when the plaintext is unchanged (probabilistic encryption, §3.1).
#[test]
fn bucket_rewrites_are_probabilistic() {
    let params = OramParams::new(256, 32, 4);
    let mut backend =
        PathOramBackend::new(params, EncryptionMode::GlobalSeed, [5u8; 16], 0).unwrap();
    // Two accesses to the same path with no data change.
    backend
        .access(AccessOp::Write, 1, 0, 0, Some(&[9u8; 32]))
        .unwrap();
    let root_before = backend.storage().snapshot_bucket(0);
    backend.access(AccessOp::Read, 1, 0, 0, None).unwrap();
    let root_after = backend.storage().snapshot_bucket(0);
    assert_ne!(
        root_before, root_after,
        "re-encrypting the root bucket must produce a fresh ciphertext"
    );
}

/// Integrity: random bit flips anywhere on the target block's path are either
/// detected or harmless (never silently wrong data), across many trials.
#[test]
fn random_tampering_never_yields_silently_wrong_data() {
    let mut detected = 0;
    let trials = 12;
    for trial in 0..trials {
        let mut oram = OramBuilder::for_scheme(SchemePoint::PicX32)
            .num_blocks(1 << 10)
            .block_bytes(64)
            .onchip_entries(32)
            .seed(trial)
            .build_freecursive()
            .unwrap();
        let mut adversary = Adversary::new(trial * 7 + 1);
        for addr in 0..32u64 {
            oram.write(addr, &[(addr as u8) ^ 0x5A; 64]).unwrap();
        }
        // Flip a few random bytes.
        for _ in 0..8 {
            adversary.corrupt_random_bucket(&mut oram);
        }
        for addr in 0..32u64 {
            match oram.read(addr) {
                Ok(data) => assert_eq!(
                    data,
                    vec![(addr as u8) ^ 0x5A; 64],
                    "trial {trial}: silently wrong data for block {addr}"
                ),
                Err(
                    FreecursiveError::Integrity { .. }
                    | FreecursiveError::Backend(
                        OramError::MalformedBucket { .. } | OramError::BlockNotFound { .. },
                    ),
                ) => {
                    detected += 1;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
    }
    assert!(
        detected > 0,
        "at least some of the {trials} tampering trials must be detected"
    );
}

/// Replay of a whole-memory snapshot is detected once the target block
/// actually lives in untrusted memory.
#[test]
fn whole_memory_rollback_is_not_silently_accepted() {
    let mut oram = OramBuilder::for_scheme(SchemePoint::PicX32)
        .num_blocks(1 << 10)
        .block_bytes(64)
        .onchip_entries(32)
        .build_freecursive()
        .unwrap();
    let adversary = Adversary::new(123);
    oram.write(3, &[1u8; 64]).unwrap();
    for a in 100..500u64 {
        oram.read(a).unwrap();
    }
    let snapshot = adversary.snapshot(&oram);
    for _ in 0..3 {
        oram.write(3, &[2u8; 64]).unwrap();
    }
    for a in 500..900u64 {
        oram.read(a).unwrap();
    }
    adversary.replay(&mut oram, &snapshot);
    match oram.read(3) {
        Ok(data) => assert_eq!(data, vec![2u8; 64], "stale value accepted"),
        Err(
            FreecursiveError::Integrity { .. }
            | FreecursiveError::Backend(
                OramError::BlockNotFound { .. } | OramError::MalformedBucket { .. },
            ),
        ) => {}
        Err(e) => panic!("unexpected error {e}"),
    }
}

/// The PMMAC counters embedded in the on-chip PosMap make MAC forgeries with
/// stale counters useless even when the adversary can see old MACs.
#[test]
fn stale_mac_cannot_authenticate_new_counter() {
    use oram_crypto::mac::MacKey;
    let key = MacKey::new([7u8; 16]);
    let data = vec![0xAB; 64];
    let old = key.compute(5, 1000, &data);
    // The frontend's counter has moved to 6; the old tuple no longer passes.
    assert!(!key.verify(6, 1000, &data, &old));
    assert!(key.verify(5, 1000, &data, &old));
}
