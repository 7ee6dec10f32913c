//! The active adversary of the threat model (§2): a malicious data centre
//! that observes and tampers with untrusted DRAM.
//!
//! These helpers operate on a [`FreecursiveOram`]'s backend storage and are
//! used by the integrity tests and the `integrity_attack` example.  They
//! demonstrate:
//!
//! * arbitrary bit flips in ORAM tree buckets (detected by PMMAC when the
//!   block of interest is affected, §6.2.1),
//! * replay of stale bucket ciphertexts (defeated by the counters embedded in
//!   PMMAC MACs, §6.1),
//! * rollback of the plaintext bucket seed — the one-time-pad replay attack
//!   against the per-bucket-seed encryption of \[26\] that motivates the
//!   global-seed fix (§6.4).

use freecursive::FreecursiveOram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An active adversary bound to one ORAM instance's untrusted memory.
#[derive(Debug)]
pub struct Adversary {
    rng: StdRng,
}

impl Default for Adversary {
    fn default() -> Self {
        Self::new(0xBAD)
    }
}

impl Adversary {
    /// Creates an adversary with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Flips one byte in every currently initialised bucket of the ORAM
    /// tree.  Returns how many buckets were corrupted.
    pub fn corrupt_all_buckets(&mut self, oram: &mut FreecursiveOram, offset: usize) -> usize {
        let num = oram.backend().storage().num_buckets() as u64;
        let mut corrupted = 0;
        for idx in 0..num {
            if oram.backend().storage().is_initialized(idx)
                && oram
                    .backend_mut()
                    .storage_mut()
                    .tamper_xor(idx, offset, 0xFF)
            {
                corrupted += 1;
            }
        }
        corrupted
    }

    /// Flips one random byte in one random initialised bucket.  Returns the
    /// bucket index, or `None` if the tree is still empty.
    pub fn corrupt_random_bucket(&mut self, oram: &mut FreecursiveOram) -> Option<u64> {
        let storage = oram.backend().storage();
        let initialized: Vec<u64> = (0..storage.num_buckets() as u64)
            .filter(|&i| storage.is_initialized(i))
            .collect();
        if initialized.is_empty() {
            return None;
        }
        let idx = initialized[self.rng.gen_range(0..initialized.len())];
        let offset = self
            .rng
            .gen_range(0..oram.backend().storage().bucket_bytes());
        oram.backend_mut()
            .storage_mut()
            .tamper_xor(idx, offset, 0x01);
        Some(idx)
    }

    /// Takes a snapshot of every initialised bucket (for a later replay).
    pub fn snapshot(&self, oram: &FreecursiveOram) -> Vec<(u64, Vec<u8>)> {
        let storage = oram.backend().storage();
        (0..storage.num_buckets() as u64)
            .filter(|&i| storage.is_initialized(i))
            .map(|i| (i, storage.snapshot_bucket(i)))
            .collect()
    }

    /// Replays a previously captured snapshot into untrusted memory,
    /// rolling the ORAM tree back to an earlier state.
    pub fn replay(&self, oram: &mut FreecursiveOram, snapshot: &[(u64, Vec<u8>)]) {
        for (idx, image) in snapshot {
            oram.backend_mut().storage_mut().replay_bucket(*idx, image);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freecursive::{FreecursiveError, Oram, OramBuilder, OramError, SchemePoint};

    fn pmmac_oram() -> FreecursiveOram {
        OramBuilder::for_scheme(SchemePoint::PicX32)
            .num_blocks(1 << 10)
            .block_bytes(64)
            .onchip_entries(32)
            .build_freecursive()
            .unwrap()
    }

    #[test]
    fn corruption_of_blocks_of_interest_is_detected() {
        let mut oram = pmmac_oram();
        let mut adv = Adversary::new(1);
        for addr in 0..32u64 {
            oram.write(addr, &[addr as u8; 64]).unwrap();
        }
        // Corrupt a data byte deep inside every bucket payload.
        let corrupted = adv.corrupt_all_buckets(&mut oram, 100);
        assert!(corrupted > 0);
        // Reading back must either detect the violation or (if a particular
        // block's path happened to be untouched) return correct data — it
        // must never silently return wrong data.
        let mut violations = 0;
        for addr in 0..32u64 {
            match oram.read(addr) {
                Err(
                    FreecursiveError::Integrity { .. }
                    | FreecursiveError::Backend(
                        OramError::MalformedBucket { .. } | OramError::BlockNotFound { .. },
                    ),
                ) => {
                    violations += 1;
                    break; // the controller would halt here
                }
                Ok(data) => assert_eq!(data, vec![addr as u8; 64]),
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(violations > 0, "tampering went completely unnoticed");
    }

    #[test]
    fn replay_attack_is_detected_by_pmmac() {
        let mut oram = pmmac_oram();
        let adv = Adversary::new(2);
        let target = 7u64;
        let target_unified = oram.addressing().unified_addr(0, target);
        // Flush the target out of the on-chip stash so the snapshot actually
        // captures it in untrusted memory.
        let flush = |oram: &mut FreecursiveOram| {
            let mut other = 100u64;
            while oram.backend().stash_contains(target_unified) && other < 600 {
                oram.read(other).unwrap();
                other += 1;
            }
        };
        oram.write(target, &[1u8; 64]).unwrap();
        flush(&mut oram);
        // Capture the state, advance it, then roll memory back.
        let snapshot = adv.snapshot(&oram);
        for _ in 0..5 {
            oram.write(target, &[2u8; 64]).unwrap();
        }
        flush(&mut oram);
        adv.replay(&mut oram, &snapshot);
        match oram.read(target) {
            // Detected: the stale MAC does not verify under the current
            // counter, or the block is not where the fresh PosMap says.
            Err(
                FreecursiveError::Integrity { .. }
                | FreecursiveError::Backend(
                    OramError::BlockNotFound { .. } | OramError::MalformedBucket { .. },
                ),
            ) => {}
            // Not silently fooled: the read still returned the *fresh* value
            // because the block never left trusted storage.
            Ok(data) => assert_eq!(
                data,
                vec![2u8; 64],
                "replayed stale data was accepted as fresh"
            ),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn snapshot_covers_only_initialized_buckets() {
        let mut oram = pmmac_oram();
        let adv = Adversary::new(3);
        assert!(adv.snapshot(&oram).is_empty());
        oram.write(0, &[0u8; 64]).unwrap();
        assert!(!adv.snapshot(&oram).is_empty());
    }

    #[test]
    fn random_bucket_corruption_reports_target() {
        let mut oram = pmmac_oram();
        let mut adv = Adversary::new(4);
        assert!(adv.corrupt_random_bucket(&mut oram).is_none());
        oram.write(0, &[0u8; 64]).unwrap();
        assert!(adv.corrupt_random_bucket(&mut oram).is_some());
    }
}
