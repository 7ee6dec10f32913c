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
//!
//! [`MacKey::verify_and_compute`] checks one MAC and computes another in a
//! single pass of the two-state Keccak kernel: a path access verifies the
//! block it fetched and MACs the block it writes back, two independent
//! hashes.

use crate::keccak::{self, Kernel};
use crate::sha3::{digest_pair, Sha3_224, DIGEST_BYTES, HEAD_BYTES};

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
        h.update(&self.header(counter, addr));
        h.update(data);
        truncate(&h.finalize())
    }

    /// Verifies a MAC; returns `true` iff it matches.
    ///
    /// The comparison folds the XOR of all [`MAC_BYTES`] bytes and tests the
    /// result once, so its timing does not tell how long a prefix of a forged
    /// MAC was right (a derived `==` is an early-exit `memcmp`).
    // lint: ct-scope, no-alloc
    pub fn verify(&self, counter: u64, addr: u64, data: &[u8], mac: &Mac) -> bool {
        tags_equal(&self.compute(counter, addr, data), mac)
    }
    // lint: end

    /// Verifies `tag` over `verify = (counter, addr, data)` and computes the
    /// MAC of `fresh = (counter, addr, data)`, hashing both messages side
    /// by side so each pair of their Keccak permutations runs as one pass.
    ///
    /// Returns what [`Self::verify`] and [`Self::compute`] would, in one
    /// call: the check, compared in constant time, and the fresh MAC, which
    /// is computed whether or not the check passes.
    ///
    /// ```
    /// use oram_crypto::mac::MacKey;
    ///
    /// let key = MacKey::new([1u8; 16]);
    /// let tag = key.compute(5, 42, b"fetched");
    /// let (ok, fresh) = key.verify_and_compute((5, 42, b"fetched"), &tag, (6, 42, b"written"));
    /// assert!(ok);
    /// assert!(key.verify(6, 42, b"written", &fresh));
    /// ```
    // lint: ct-scope, no-alloc
    pub fn verify_and_compute(
        &self,
        verify: (u64, u64, &[u8]),
        tag: &Mac,
        fresh: (u64, u64, &[u8]),
    ) -> (bool, Mac) {
        self.verify_and_compute_on(keccak::selected(), verify, tag, fresh)
    }
    // lint: end

    /// [`Self::verify_and_compute`] on a given Keccak kernel.
    // lint: ct-scope, no-alloc
    fn verify_and_compute_on(
        &self,
        kernel: Kernel,
        (verify_counter, verify_addr, verify_data): (u64, u64, &[u8]),
        tag: &Mac,
        (fresh_counter, fresh_addr, fresh_data): (u64, u64, &[u8]),
    ) -> (bool, Mac) {
        let verify_head = self.header(verify_counter, verify_addr);
        let fresh_head = self.header(fresh_counter, fresh_addr);
        let [expected, fresh] = digest_pair(
            kernel,
            (&verify_head, verify_data),
            (&fresh_head, fresh_data),
        );
        (tags_equal(&truncate(&expected), tag), truncate(&fresh))
    }
    // lint: end

    /// The message prefix `key || counter || addr`.
    fn header(&self, counter: u64, addr: u64) -> [u8; HEAD_BYTES] {
        let mut head = [0u8; HEAD_BYTES];
        head[..16].copy_from_slice(&self.key);
        head[16..24].copy_from_slice(&counter.to_le_bytes());
        head[24..].copy_from_slice(&addr.to_le_bytes());
        head
    }
}

/// A digest truncated to the stored MAC width.
fn truncate(digest: &[u8; DIGEST_BYTES]) -> Mac {
    let mut mac = [0u8; MAC_BYTES];
    mac.copy_from_slice(&digest[..MAC_BYTES]);
    Mac(mac)
}

/// Compares two MACs in constant time: the XOR of every byte pair is
/// folded and tested once.
// lint: ct-scope, no-alloc
fn tags_equal(a: &Mac, b: &Mac) -> bool {
    let mut diff = 0u8;
    for (x, y) in a.0.iter().zip(b.0.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}
// lint: end

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

    /// The paired call equals `verify` + `compute` for data lengths that
    /// fit one rate block, fill it exactly (112 data bytes after the
    /// 32-byte prefix), spill one byte over, and span many blocks; for
    /// every pairing of those lengths, under every kernel this host runs.
    #[test]
    fn verify_and_compute_matches_verify_plus_compute() {
        let key = MacKey::new([0x5A; 16]);
        let lengths = [0usize, 1, 64, 111, 112, 113, 128, 255, 256, 257, 4096];
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
        for kernel in crate::keccak::host_kernels() {
            for &lv in &lengths {
                for &lf in &lengths {
                    let (vd, fd) = (&data[..lv], &data[data.len() - lf..]);
                    let tag = key.compute(9, 77, vd);
                    let (ok, fresh) =
                        key.verify_and_compute_on(kernel, (9, 77, vd), &tag, (10, 78, fd));
                    let what = format!("{} verify {lv} B, fresh {lf} B", kernel.label());
                    assert!(ok, "{what}");
                    assert_eq!(fresh.0, key.compute(10, 78, fd).0, "{what}");
                    let stale = key.compute(8, 77, vd);
                    let (ok, again) =
                        key.verify_and_compute_on(kernel, (9, 77, vd), &stale, (10, 78, fd));
                    assert!(!ok, "{what}: a stale tag must fail");
                    assert_eq!(again.0, fresh.0, "{what}");
                }
            }
        }
    }

    /// A single-bit flip anywhere in the verified tag fails the check, and
    /// the fresh MAC comes out unchanged.
    #[test]
    fn verify_and_compute_rejects_every_single_bit_forgery() {
        let key = MacKey::new([0xC3; 16]);
        let fetched = [0x11u8; 64];
        let written = [0x22u8; 64];
        let tag = key.compute(3, 1000, &fetched);
        let expected = key.compute(4, 1000, &written);
        for kernel in crate::keccak::host_kernels() {
            for byte in 0..MAC_BYTES {
                for bit in 0..8 {
                    let mut forged = tag;
                    forged.0[byte] ^= 1 << bit;
                    let (ok, fresh) = key.verify_and_compute_on(
                        kernel,
                        (3, 1000, &fetched),
                        &forged,
                        (4, 1000, &written),
                    );
                    assert!(!ok, "{} byte {byte} bit {bit}", kernel.label());
                    assert_eq!(
                        fresh.0,
                        expected.0,
                        "{} byte {byte} bit {bit}",
                        kernel.label()
                    );
                }
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
