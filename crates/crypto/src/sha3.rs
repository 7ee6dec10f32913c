//! SHA3-224 (FIPS-202) built on the Keccak-f\[1600\] sponge.
//!
//! PMMAC (§6.1) uses SHA3-224 as `MAC_K()`; the 28-byte digest is truncated to
//! the MAC width chosen by the design (80–128 bits, §6.3).

use crate::keccak::{keccak_f1600, STATE_LANES};

/// Digest length of SHA3-224 in bytes.
pub const DIGEST_BYTES: usize = 28;
/// Sponge rate of SHA3-224 in bytes (1152 bits).
pub const RATE_BYTES: usize = 144;

/// Incremental SHA3-224 hasher.
///
/// # Examples
///
/// ```
/// use oram_crypto::sha3::Sha3_224;
///
/// let mut h = Sha3_224::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// let d1 = h.finalize();
/// let d2 = Sha3_224::digest(b"hello world");
/// assert_eq!(d1, d2);
/// ```
#[derive(Debug, Clone)]
pub struct Sha3_224 {
    state: [u64; STATE_LANES],
    /// Bytes absorbed into the current (incomplete) rate block.
    buffer: [u8; RATE_BYTES],
    buffer_len: usize,
}

impl Default for Sha3_224 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha3_224 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: [0u64; STATE_LANES],
            buffer: [0u8; RATE_BYTES],
            buffer_len: 0,
        }
    }

    /// Absorbs `data` into the sponge.
    pub fn update(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            let take = data.len().min(RATE_BYTES - self.buffer_len);
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == RATE_BYTES {
                self.absorb_block();
            }
        }
    }

    fn absorb_block(&mut self) {
        for (lane_idx, chunk) in self.buffer.chunks(8).enumerate() {
            let mut lane = [0u8; 8];
            lane.copy_from_slice(chunk);
            self.state[lane_idx] ^= u64::from_le_bytes(lane);
        }
        keccak_f1600(&mut self.state);
        self.buffer = [0u8; RATE_BYTES];
        self.buffer_len = 0;
    }

    /// Finalizes the hash and returns the 28-byte digest, consuming the
    /// hasher.
    pub fn finalize(mut self) -> [u8; DIGEST_BYTES] {
        // SHA-3 domain separation suffix 0b01 followed by pad10*1.
        self.buffer[self.buffer_len] ^= 0x06;
        self.buffer[RATE_BYTES - 1] ^= 0x80;
        // Absorb the final (padded) block.
        for (lane_idx, chunk) in self.buffer.chunks(8).enumerate() {
            let mut lane = [0u8; 8];
            lane.copy_from_slice(chunk);
            self.state[lane_idx] ^= u64::from_le_bytes(lane);
        }
        keccak_f1600(&mut self.state);

        let mut digest = [0u8; DIGEST_BYTES];
        for (i, chunk) in digest.chunks_mut(8).enumerate() {
            let lane = self.state[i].to_le_bytes();
            chunk.copy_from_slice(&lane[..chunk.len()]);
        }
        digest
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_BYTES] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// FIPS-202 / NIST known answer: SHA3-224 of the empty message.
    #[test]
    fn empty_message() {
        assert_eq!(
            hex(&Sha3_224::digest(b"")),
            "6b4e03423667dbb73b6e15454f0eb1abd4597f9a1b078e3f5b5a6bc7"
        );
    }

    /// NIST known answer: SHA3-224("abc").
    #[test]
    fn abc() {
        assert_eq!(
            hex(&Sha3_224::digest(b"abc")),
            "e642824c3f8cf24ad09234ee7d3c766fc9a3a5168d0c94ad73b46fdf"
        );
    }

    /// NIST known answer for a message longer than one rate block
    /// (448 bits * 2 = two-block message "abcdbcde...nopq" repeated form).
    #[test]
    fn long_message() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hex(&Sha3_224::digest(msg)),
            "543e6868e1666c1a643630df77367ae5a62a85070a51c14cbf665cbc"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 143, 144, 145, 500, 999, 1000] {
            let mut h = Sha3_224::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha3_224::digest(&data), "split at {split}");
        }
    }

    /// Seeded property loop: however a message is cut across `update` calls
    /// — empty pieces, single bytes, pieces ending on, just before and just
    /// after the 144-byte rate boundary, pieces longer than a rate block —
    /// the digest equals the one-shot `digest()`.
    #[test]
    fn any_split_across_updates_matches_oneshot() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..200 {
            let len = (rng() % 700) as usize;
            let data: Vec<u8> = (0..len).map(|_| rng() as u8).collect();
            let mut h = Sha3_224::new();
            let mut cuts = Vec::new();
            let mut at = 0usize;
            while at < len {
                let piece = match rng() % 6 {
                    0 => 0,
                    1 => 1,
                    // Land exactly on, one short of, or one past the next
                    // rate boundary.
                    2 => RATE_BYTES - at % RATE_BYTES,
                    3 => RATE_BYTES - at % RATE_BYTES - 1,
                    4 => RATE_BYTES - at % RATE_BYTES + 1,
                    _ => (rng() % 400) as usize,
                }
                .min(len - at);
                h.update(&data[at..at + piece]);
                cuts.push(piece);
                at += piece;
            }
            assert_eq!(
                h.finalize(),
                Sha3_224::digest(&data),
                "round {round}: {len} bytes cut as {cuts:?}"
            );
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha3_224::digest(b"a"), Sha3_224::digest(b"b"));
        assert_ne!(Sha3_224::digest(b""), Sha3_224::digest(b"\0"));
    }
}
