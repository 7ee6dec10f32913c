//! The replay-resistant MAC of PMMAC (§6.1–§6.2).
//!
//! PMMAC stores, alongside each data block, `h = MAC_K(c || a || d)` where `c`
//! is the per-block access counter, `a` the block address, and `d` the block
//! data.  Because the counters are sourced from tamper-proof on-chip state
//! (directly or transitively through verified PosMap blocks), replaying an old
//! `(h, d)` pair fails the check.
//!
//! We realise `MAC_K` as SHA3-224 over `key || c || a || d` truncated to
//! [`MAC_BYTES`] bytes, matching the paper's SHA3-224 unit and its 80–128 bit
//! MAC field (§6.3); the prefix-key construction is safe for sponge hashes
//! (no length-extension property).

use crate::sha3::Sha3_224;

/// Width of a stored MAC in bytes (112 bits, within the paper's 80–128 bit
/// range).
pub const MAC_BYTES: usize = 14;

/// A message authentication code attached to an ORAM block.
///
/// `Mac` has no `==`: a derived comparison is an early-exit `memcmp` whose
/// timing tells how long a prefix of a forged MAC was right.  Check a MAC
/// with [`MacKey::verify`], which compares in constant time.
///
/// ```compile_fail,E0369
/// use oram_crypto::mac::MacKey;
///
/// let key = MacKey::new([1u8; 16]);
/// let (a, b) = (key.compute(5, 42, b"x"), key.compute(5, 42, b"x"));
/// let _ = a == b;
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Mac(pub [u8; MAC_BYTES]);

impl Mac {
    /// Returns the MAC bytes.
    pub fn as_bytes(&self) -> &[u8; MAC_BYTES] {
        &self.0
    }
}

impl AsRef<[u8]> for Mac {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// A keyed MAC generator/verifier.
///
/// # Examples
///
/// ```
/// use oram_crypto::mac::MacKey;
///
/// let key = MacKey::new([1u8; 16]);
/// let mac = key.compute(5, 42, b"block data");
/// assert!(key.verify(5, 42, b"block data", &mac));
/// assert!(!key.verify(6, 42, b"block data", &mac)); // stale counter = replay
/// ```
#[derive(Clone)]
pub struct MacKey {
    key: [u8; 16],
}

impl std::fmt::Debug for MacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MacKey").finish_non_exhaustive()
    }
}

impl Drop for MacKey {
    fn drop(&mut self) {
        // Like the AES key schedules, the MAC key is scrubbed on drop so it
        // does not linger in freed memory.
        crate::zeroize::zeroize_bytes(&mut self.key);
    }
}

impl MacKey {
    /// Creates a MAC key.
    pub fn new(key: [u8; 16]) -> Self {
        Self { key }
    }

    /// Computes `MAC_K(counter || addr || data)`.
    pub fn compute(&self, counter: u64, addr: u64, data: &[u8]) -> Mac {
        let mut h = Sha3_224::new();
        h.update(&self.key);
        h.update(&counter.to_le_bytes());
        h.update(&addr.to_le_bytes());
        h.update(data);
        let digest = h.finalize();
        let mut mac = [0u8; MAC_BYTES];
        mac.copy_from_slice(&digest[..MAC_BYTES]);
        Mac(mac)
    }

    /// Verifies a MAC; returns `true` iff it matches.
    ///
    /// The comparison folds the XOR of all [`MAC_BYTES`] bytes and tests the
    /// result once, so its timing does not tell how long a prefix of a forged
    /// MAC was right (a derived `==` is an early-exit `memcmp`).
    // lint: ct-scope, no-alloc
    pub fn verify(&self, counter: u64, addr: u64, data: &[u8], mac: &Mac) -> bool {
        let expected = self.compute(counter, addr, data);
        let mut diff = 0u8;
        for (e, m) in expected.0.iter().zip(mac.0.iter()) {
            diff |= e ^ m;
        }
        diff == 0
    }
    // lint: end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_genuine_rejects_tampered_data() {
        let key = MacKey::new([3u8; 16]);
        let mac = key.compute(1, 100, b"hello");
        assert!(key.verify(1, 100, b"hello", &mac));
        assert!(!key.verify(1, 100, b"hellO", &mac));
        assert!(!key.verify(1, 101, b"hello", &mac));
        assert!(!key.verify(2, 100, b"hello", &mac));
        // Every single-bit forgery fails, wherever in the MAC it sits.
        for byte in 0..MAC_BYTES {
            for bit in 0..8 {
                let mut forged = mac;
                forged.0[byte] ^= 1 << bit;
                assert!(
                    !key.verify(1, 100, b"hello", &forged),
                    "byte {byte} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn different_keys_disagree() {
        let k1 = MacKey::new([1u8; 16]);
        let k2 = MacKey::new([2u8; 16]);
        let mac = k1.compute(0, 0, b"x");
        assert!(!k2.verify(0, 0, b"x", &mac));
    }

    #[test]
    fn replay_of_old_counter_fails() {
        // The counter embedded in the MAC is what makes PMMAC replay-resistant
        // (§6.1): an old (mac, data) pair cannot satisfy the check once the
        // frontend has moved to a newer counter.
        let key = MacKey::new([9u8; 16]);
        let old = key.compute(7, 55, b"old contents");
        assert!(!key.verify(8, 55, b"old contents", &old));
    }

    #[test]
    fn debug_hides_key() {
        let key = MacKey::new([0xAB; 16]);
        assert!(!format!("{key:?}").contains("171"));
    }

    #[test]
    fn mac_is_14_bytes() {
        let key = MacKey::new([0u8; 16]);
        assert_eq!(key.compute(0, 0, b"").as_bytes().len(), MAC_BYTES);
    }
}
