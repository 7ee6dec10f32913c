//! The pseudorandom function behind every leaf the frontend picks.
//!
//! §5.2.1: the current leaf of block `a + j` is
//! `PRF_K(a + j || GC || IC_j) mod 2^L`; §6.2.1 uses the same construction
//! with the per-block access count `c` as the counter.  The paper implements
//! `PRF_K()` with AES-128 (§5.1); [`AesPrf`] mirrors that choice.

use crate::aes::Aes128;

/// AES-128 based PRF producing 64-bit outputs, matching the paper's
/// instantiation (§5.1).
///
/// # Examples
///
/// ```
/// use oram_crypto::prf::AesPrf;
///
/// let prf = AesPrf::new([0u8; 16]);
/// assert_eq!(prf.eval(1), prf.eval(1));
/// assert_ne!(prf.eval(1), prf.eval(2));
/// ```
#[derive(Debug)]
pub struct AesPrf {
    cipher: Aes128,
}

impl AesPrf {
    /// Creates a PRF from a 128-bit key.
    pub fn new(key: [u8; 16]) -> Self {
        Self {
            cipher: Aes128::new(key),
        }
    }

    /// Evaluates the PRF on a 128-bit input and returns 64 pseudorandom bits.
    pub fn eval(&self, input: u128) -> u64 {
        let ct = self.cipher.encrypt_block(input.to_be_bytes());
        let mut out = [0u8; 8];
        out.copy_from_slice(&ct[..8]);
        u64::from_be_bytes(out)
    }

    /// Evaluates the PRF on every input, up to
    /// [`crate::aes::PARALLEL_BLOCKS`] evaluations per AES engine call.
    /// Semantically identical to calling [`AesPrf::eval`] per element.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and `out` differ in length.
    pub fn eval_many(&self, inputs: &[u128], out: &mut [u64]) {
        assert_eq!(inputs.len(), out.len(), "eval_many length mismatch");
        let mut buf = [0u8; crate::aes::PARALLEL_BLOCKS * 16];
        for (input_group, out_group) in inputs
            .chunks(crate::aes::PARALLEL_BLOCKS)
            .zip(out.chunks_mut(crate::aes::PARALLEL_BLOCKS))
        {
            let bytes = &mut buf[..16 * input_group.len()];
            for (slot, input) in bytes.chunks_exact_mut(16).zip(input_group) {
                slot.copy_from_slice(&input.to_be_bytes());
            }
            self.cipher.encrypt_blocks(bytes);
            for (slot, ct) in out_group.iter_mut().zip(bytes.chunks_exact(16)) {
                *slot = u64::from_be_bytes(ct[..8].try_into().expect("8-byte prefix"));
            }
        }
    }

    /// Leaves for the same block under two counters in one batched PRF call
    /// — the frontends' common pattern (current leaf from the old counter,
    /// next leaf from the new one, §5.2.1).
    pub fn leaf_pair_for(
        &self,
        addr: u64,
        counter_a: u64,
        counter_b: u64,
        levels: u32,
    ) -> (u64, u64) {
        debug_assert!(levels <= 63, "leaf space must fit in u64");
        if levels == 0 {
            return (0, 0);
        }
        let base = u128::from(addr) << 64;
        let inputs = [base | u128::from(counter_a), base | u128::from(counter_b)];
        let mut out = [0u64; 2];
        self.eval_many(&inputs, &mut out);
        let mask = (1u64 << levels) - 1;
        (out[0] & mask, out[1] & mask)
    }

    /// The leaf for block `addr` with access counter `counter` in a tree
    /// with `2^levels` leaves, i.e. `PRF_K(addr || counter) mod 2^L`.
    pub fn leaf_for(&self, addr: u64, counter: u64, levels: u32) -> u64 {
        debug_assert!(levels <= 63, "leaf space must fit in u64");
        let input = (u128::from(addr) << 64) | u128::from(counter);
        if levels == 0 {
            0
        } else {
            self.eval(input) & ((1u64 << levels) - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_is_bounded_by_level_count() {
        let prf = AesPrf::new([5u8; 16]);
        for levels in [1u32, 4, 16, 25, 32] {
            for addr in 0..64u64 {
                let leaf = prf.leaf_for(addr, addr * 3, levels);
                assert!(leaf < (1u64 << levels));
            }
        }
    }

    #[test]
    fn zero_levels_always_maps_to_leaf_zero() {
        let prf = AesPrf::new([5u8; 16]);
        assert_eq!(prf.leaf_for(123, 456, 0), 0);
    }

    #[test]
    fn counter_changes_leaf_with_high_probability() {
        let prf = AesPrf::new([5u8; 16]);
        let mut changed = 0;
        let trials = 200;
        for c in 0..trials {
            if prf.leaf_for(7, c, 20) != prf.leaf_for(7, c + 1, 20) {
                changed += 1;
            }
        }
        assert!(changed > trials - 5, "leaves should almost always change");
    }

    #[test]
    fn eval_many_matches_scalar_eval() {
        let prf = AesPrf::new([8u8; 16]);
        // 19 inputs: two full engine batches plus a tail.
        let inputs: Vec<u128> = (0..19u128).map(|i| i * 0x1234_5678_9ABC + 7).collect();
        let mut batched = vec![0u64; inputs.len()];
        prf.eval_many(&inputs, &mut batched);
        for (input, &got) in inputs.iter().zip(batched.iter()) {
            assert_eq!(got, prf.eval(*input));
        }
    }

    #[test]
    fn leaf_pair_matches_individual_leaves() {
        let prf = AesPrf::new([6u8; 16]);
        for levels in [0u32, 1, 12, 25] {
            let (a, b) = prf.leaf_pair_for(42, 5, 6, levels);
            assert_eq!(a, prf.leaf_for(42, 5, levels));
            assert_eq!(b, prf.leaf_for(42, 6, levels));
        }
    }
}
