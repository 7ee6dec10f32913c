//! SHA3-224 (FIPS-202) built on the Keccak-f\[1600\] sponge.
//!
//! PMMAC (§6.1) uses SHA3-224 as `MAC_K()`; the 28-byte digest is truncated to
//! the MAC width chosen by the design (80–128 bits, §6.3).
//!
//! Besides the incremental [`Sha3_224`], the crate-internal `digest_pair`
//! hashes two messages side by side, so each pair of their permutations
//! runs as one pass of the two-state Keccak kernel: the PMMAC verify of a
//! fetched block and the MAC of the block written back in its place.

use crate::keccak::{keccak_f1600, Kernel, STATE_LANES};

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
        xor_block(&mut self.state, &self.buffer);
        keccak_f1600(&mut self.state);
        self.buffer = [0u8; RATE_BYTES];
        self.buffer_len = 0;
    }

    /// Finalizes the hash and returns the 28-byte digest, consuming the
    /// hasher.
    pub fn finalize(mut self) -> [u8; DIGEST_BYTES] {
        pad(&mut self.buffer, self.buffer_len);
        // Absorb the final (padded) block.
        xor_block(&mut self.state, &self.buffer);
        keccak_f1600(&mut self.state);
        squeeze(&self.state)
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: &[u8]) -> [u8; DIGEST_BYTES] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }
}

/// Appends SHA-3's domain separation suffix `0b01` and pad10*1 to a final
/// block holding `len < RATE_BYTES` message bytes.
fn pad(block: &mut [u8; RATE_BYTES], len: usize) {
    block[len] ^= 0x06;
    block[RATE_BYTES - 1] ^= 0x80;
}

/// XORs one rate block into the state, lane by little-endian lane.
fn xor_block(state: &mut [u64; STATE_LANES], block: &[u8; RATE_BYTES]) {
    let (lanes, _) = block.as_chunks::<8>();
    for (s, lane) in state.iter_mut().zip(lanes) {
        *s ^= u64::from_le_bytes(*lane);
    }
}

/// The digest: the first [`DIGEST_BYTES`] of the state, little-endian.
fn squeeze(state: &[u64; STATE_LANES]) -> [u8; DIGEST_BYTES] {
    let mut digest = [0u8; DIGEST_BYTES];
    for (chunk, lane) in digest.chunks_mut(8).zip(state) {
        chunk.copy_from_slice(&lane.to_le_bytes()[..chunk.len()]);
    }
    digest
}

/// Bytes of the fixed head every [`digest_pair`] message starts with.
pub(crate) const HEAD_BYTES: usize = 32;

/// One message of [`digest_pair`], `head || data`, and the sponge
/// absorbing it.
struct Sponge<'a> {
    head: &'a [u8; HEAD_BYTES],
    data: &'a [u8],
    state: [u64; STATE_LANES],
}

impl<'a> Sponge<'a> {
    fn new((head, data): (&'a [u8; HEAD_BYTES], &'a [u8])) -> Self {
        Self {
            head,
            data,
            state: [0u64; STATE_LANES],
        }
    }

    /// Rate blocks the message pads to, the last holding the padding.
    fn blocks(&self) -> usize {
        (HEAD_BYTES + self.data.len()) / RATE_BYTES + 1
    }

    /// XORs rate block `k` of the padded message into the state.  The
    /// head fits in block 0, so every block's data bytes are one slice.
    fn absorb(&mut self, k: usize) {
        let mut block = [0u8; RATE_BYTES];
        let start = k * RATE_BYTES;
        let end = (start + RATE_BYTES).min(HEAD_BYTES + self.data.len());
        let from = start.max(HEAD_BYTES);
        if k == 0 {
            block[..HEAD_BYTES].copy_from_slice(self.head);
        }
        block[from - start..end - start]
            .copy_from_slice(&self.data[from - HEAD_BYTES..end - HEAD_BYTES]);
        if k + 1 == self.blocks() {
            pad(&mut block, end - start);
        }
        xor_block(&mut self.state, &block);
    }
}

/// SHA3-224 of two messages, each `head || data`, on the Keccak `kernel`:
/// while both messages have a block left, one two-state pass permutes both
/// sponges; the longer message finishes alone.  Equal to two
/// [`Sha3_224::digest`] calls, byte for byte.
pub(crate) fn digest_pair(
    kernel: Kernel,
    a: (&[u8; HEAD_BYTES], &[u8]),
    b: (&[u8; HEAD_BYTES], &[u8]),
) -> [[u8; DIGEST_BYTES]; 2] {
    let (mut a, mut b) = (Sponge::new(a), Sponge::new(b));
    let (na, nb) = (a.blocks(), b.blocks());
    for k in 0..na.max(nb) {
        match (k < na, k < nb) {
            (true, true) => {
                a.absorb(k);
                b.absorb(k);
                kernel.permute_x2(&mut a.state, &mut b.state);
            }
            (true, false) => {
                a.absorb(k);
                kernel.permute(&mut a.state);
            }
            _ => {
                b.absorb(k);
                kernel.permute(&mut b.state);
            }
        }
    }
    [squeeze(&a.state), squeeze(&b.state)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keccak::host_kernels;

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

    /// Messages on each side of the rate boundaries, and the two-block
    /// NIST vector above, through the paired sponge under every kernel
    /// this host runs, each paired with a message of another length: each
    /// digest equals the one-shot `digest()` of `head || data`, whichever
    /// side it rode on.
    #[test]
    fn digest_pair_matches_two_digests() {
        let bytes: Vec<u8> = (0..700u32).map(|i| (i * 7 % 253) as u8).collect();
        let head: &[u8; HEAD_BYTES] = bytes[..HEAD_BYTES].try_into().unwrap();
        let body = &bytes[HEAD_BYTES..];
        // Whole messages of 32, 33, 143, 144, 145, 160, 287, 288, 289 and
        // 700 bytes: one, two, three and five rate blocks.
        let mut messages: Vec<&[u8]> = vec![];
        for len in [0, 1, 111, 112, 113, 128, 255, 256, 257, body.len()] {
            messages.push(&body[..len]);
        }
        for kernel in host_kernels() {
            for (i, &x) in messages.iter().enumerate() {
                let y = messages[(i * 3 + 1) % messages.len()];
                let [dx, dy] = digest_pair(kernel, (head, x), (head, y));
                let (len_x, len_y) = (HEAD_BYTES + x.len(), HEAD_BYTES + y.len());
                assert_eq!(
                    dx,
                    Sha3_224::digest(&bytes[..len_x]),
                    "{} {len_x} bytes",
                    kernel.label()
                );
                assert_eq!(
                    dy,
                    Sha3_224::digest(&bytes[..len_y]),
                    "{} {len_y} bytes",
                    kernel.label()
                );
                let [dy2, dx2] = digest_pair(kernel, (head, y), (head, x));
                assert_eq!((dx2, dy2), (dx, dy), "{} swapped", kernel.label());
            }
            let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
            let (nist_head, nist_data) = msg.split_first_chunk::<HEAD_BYTES>().unwrap();
            let [d1, d2] = digest_pair(kernel, (nist_head, nist_data), (head, b""));
            assert_eq!(
                hex(&d1),
                "543e6868e1666c1a643630df77367ae5a62a85070a51c14cbf665cbc"
            );
            assert_eq!(d2, Sha3_224::digest(head));
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha3_224::digest(b"a"), Sha3_224::digest(b"b"));
        assert_ne!(Sha3_224::digest(b""), Sha3_224::digest(b"\0"));
    }
}
