//! AES counter-mode keystream generation for probabilistic bucket encryption.
//!
//! The ORAM tree stores every bucket encrypted under AES counter mode (§3.1).
//! The paper discusses two seeding disciplines (§6.4):
//!
//! * **Per-bucket seeds** (the scheme of Ren et al. \[26\]): the pad for chunk
//!   `i` of a bucket is `AES_K(BucketID || BucketSeed || i)`.  This is
//!   vulnerable to a one-time-pad replay under an active adversary.
//! * **Global seed** (the fix): the pad is `AES_K(GlobalSeed || i)` where
//!   `GlobalSeed` is a monotonically increasing counter inside the ORAM
//!   controller, so no pad ever repeats.
//!
//! This module only produces keystreams; the seed discipline lives in
//! `path-oram::encryption`, which chooses what goes into the counter block.
//!
//! # Batched API contract
//!
//! The hot path is [`CtrKeystream::apply_batch`]: the caller describes any
//! number of [`KeystreamSpan`]s — disjoint or not — over one buffer, and one
//! call XORs the keystream of **all** of them in place.  Sealing or unsealing
//! an entire ORAM path (~20 buckets) is one such call per direction.  What
//! happens underneath depends on the engine ([`CtrKeystream::engine`]):
//!
//! * **VAES: the 512-bit fused kernel.**  Each span goes through
//!   [`Aes128::ctr_xor`]: the seed and the round keys are broadcast to every
//!   128-bit lane, the byte-swapped chunk index is inserted per lane, six
//!   zmm `AESENC` chains (24 blocks) run interleaved, and the result is
//!   XORed 64 bytes at a time straight into the buffer.  A 376-byte sealed
//!   bucket of the 64-byte PMMAC design point is one group.  A span's last,
//!   part-filled group runs only the registers it has bytes for and ends in
//!   one masked load/store, so no counter block or pad is ever written to
//!   memory.
//! * **AES-NI: the 128-bit fused kernel.**  The same shape on xmm
//!   registers: eight `AESENC` chains per group, XORed 16 bytes at a time.
//!   The only pad written to memory is that of a span's trailing partial
//!   block.  A span's last, part-filled group still runs all eight lanes and
//!   drops the pads it has no bytes for.
//! * **Bitsliced: cross-span lane packing.**  One bitsliced call costs the
//!   same whether one lane or all eight are occupied, so here counter blocks
//!   from *different* spans share an engine call and a path costs
//!   ⌈total blocks / 8⌉ calls instead of one part-filled call per bucket.
//!   This is the only engine off x86_64 and on the forced-soft CI leg, which
//!   is why the packing code stays.
//!
//! Guarantees, identical for all three:
//!
//! * Byte-for-byte equivalence with the scalar construction: chunk `i` of a
//!   span is XORed with `AES_K((seed << 32) | i)` exactly as
//!   [`CtrKeystream::pad`] produces it, for any span length (a trailing
//!   partial chunk uses the pad's prefix) and any starting offset.  Bytes
//!   outside every span are not touched.
//! * XOR is an involution, so the same call encrypts and decrypts.
//! * No heap allocation: all working state lives in registers or on the
//!   stack.

use crate::aes::{counter_block, Aes128, EngineKind, BLOCK_BYTES, PARALLEL_BLOCKS};

/// One keystream application: XOR `data[start..start + len]` with the
/// keystream for `seed`, chunk counter starting at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeystreamSpan {
    /// Pad seed; occupies the high 96 bits of each counter block.
    pub seed: u128,
    /// Byte offset of the span within the buffer passed to
    /// [`CtrKeystream::apply_batch`].
    pub start: usize,
    /// Span length in bytes (need not be a multiple of 16).
    pub len: usize,
}

/// A counter-mode keystream generator over AES-128.
///
/// # Examples
///
/// ```
/// use oram_crypto::ctr::{CtrKeystream, KeystreamSpan, xor_in_place};
///
/// let ks = CtrKeystream::new([3u8; 16]);
/// let mut data = b"secret bucket bytes".to_vec();
/// let pad_seed = 77u128;
/// ks.apply(pad_seed, &mut data);          // encrypt
/// assert_ne!(&data, b"secret bucket bytes");
/// ks.apply(pad_seed, &mut data);          // decrypt (XOR is an involution)
/// assert_eq!(&data, b"secret bucket bytes");
///
/// // Batched: many spans, one call.
/// let mut buf = vec![0u8; 64];
/// let spans = [
///     KeystreamSpan { seed: 1, start: 0, len: 32 },
///     KeystreamSpan { seed: 2, start: 32, len: 32 },
/// ];
/// ks.apply_batch(&spans, &mut buf);
/// ks.apply_batch(&spans, &mut buf);
/// assert_eq!(buf, vec![0u8; 64]);
/// # let _ = xor_in_place;
/// ```
#[derive(Debug, Clone)]
pub struct CtrKeystream {
    cipher: Aes128,
}

impl CtrKeystream {
    /// Creates a keystream generator from a session key.
    pub fn new(key: [u8; 16]) -> Self {
        Self {
            cipher: Aes128::new(key),
        }
    }

    /// The AES engine this keystream dispatches to.
    pub fn engine(&self) -> EngineKind {
        self.cipher.engine()
    }

    /// Produces the `chunk`-th 16-byte pad for the given 128-bit seed.
    ///
    /// The seed occupies the high 96 bits of the counter block and the chunk
    /// index the low 32 bits, so a single seed can cover buckets of up to
    /// 64 GiB without pad reuse.
    pub fn pad(&self, seed: u128, chunk: u32) -> [u8; BLOCK_BYTES] {
        self.cipher.encrypt_block(counter_block(seed, chunk))
    }

    /// Fills `out` with the keystream for `seed` starting at chunk index
    /// `first_chunk` (chunk indices increment per 16 bytes; a trailing
    /// partial chunk receives the pad's prefix): [`Aes128::ctr_xor`] over
    /// zeros.
    // lint: ct-scope, no-alloc
    pub fn pad_blocks(&self, seed: u128, first_chunk: u32, out: &mut [u8]) {
        out.fill(0);
        self.cipher.ctr_xor(seed, first_chunk, out);
    }

    /// XORs the keystream for `seed` into `data` in place (encrypts or
    /// decrypts, since XOR is an involution).
    pub fn apply(&self, seed: u128, data: &mut [u8]) {
        self.cipher.ctr_xor(seed, 0, data);
    }

    /// XORs every span's keystream into `data` in place: span by span
    /// through the fused kernel under VAES and AES-NI, with counter blocks of
    /// all spans packed into shared engine calls under the bitsliced engine
    /// (see the module docs for the full contract).
    ///
    /// # Panics
    ///
    /// Panics if any span reaches past the end of `data`.
    pub fn apply_batch(&self, spans: &[KeystreamSpan], data: &mut [u8]) {
        for span in spans {
            assert!(
                span.start + span.len <= data.len(),
                "span {span:?} exceeds buffer of {} bytes",
                data.len()
            );
        }
        match self.cipher.engine() {
            EngineKind::Vaes | EngineKind::AesNi => {
                for span in spans {
                    self.cipher
                        .ctr_xor(span.seed, 0, &mut data[span.start..span.start + span.len]);
                }
            }
            EngineKind::Bitsliced => self.apply_batch_packed(spans, data),
        }
    }

    /// The bitsliced engine's `apply_batch`: a bitsliced call costs the same
    /// for one block as for eight, so counter blocks accumulate across spans
    /// and go through the engine only when all lanes are full.
    fn apply_batch_packed(&self, spans: &[KeystreamSpan], data: &mut [u8]) {
        // `dst` remembers where each lane's pad lands.  Everything lives on
        // the stack — the access hot path above this call is allocation-free.
        let mut pads = [0u8; PARALLEL_BLOCKS * BLOCK_BYTES];
        let mut dst = [(0usize, 0usize); PARALLEL_BLOCKS];
        let mut lanes = 0usize;

        let flush = |pads: &mut [u8; PARALLEL_BLOCKS * BLOCK_BYTES],
                     dst: &[(usize, usize); PARALLEL_BLOCKS],
                     lanes: usize,
                     data: &mut [u8]| {
            self.cipher.encrypt_blocks(&mut pads[..lanes * BLOCK_BYTES]);
            for (lane, &(offset, len)) in dst.iter().enumerate().take(lanes) {
                let pad = &pads[lane * BLOCK_BYTES..lane * BLOCK_BYTES + len];
                for (b, p) in data[offset..offset + len].iter_mut().zip(pad) {
                    *b ^= *p;
                }
            }
        };

        for span in spans {
            let mut remaining = span.len;
            let mut chunk = 0u32;
            while remaining > 0 {
                let len = remaining.min(BLOCK_BYTES);
                pads[lanes * BLOCK_BYTES..(lanes + 1) * BLOCK_BYTES]
                    .copy_from_slice(&counter_block(span.seed, chunk));
                dst[lanes] = (span.start + span.len - remaining, len);
                lanes += 1;
                if lanes == PARALLEL_BLOCKS {
                    flush(&mut pads, &dst, lanes, data);
                    lanes = 0;
                }
                chunk = chunk.wrapping_add(1);
                remaining -= len;
            }
        }
        if lanes > 0 {
            flush(&mut pads, &dst, lanes, data);
        }
    }
}

/// XORs `src` into `dst` element-wise.
///
/// # Panics
///
/// Panics if the two slices have different lengths.
pub fn xor_in_place(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor_in_place length mismatch");
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d ^= *s;
    }
}
// lint: end

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference (the test-only table cipher, no engine involved).
    /// Every keystream path must match this byte for byte.
    fn apply_reference(ks: &CtrKeystream, seed: u128, data: &mut [u8]) {
        crate::aes::ctr_xor_scalar(&ks.cipher, seed, 0, data);
    }

    #[test]
    fn roundtrip_various_lengths() {
        let ks = CtrKeystream::new([9u8; 16]);
        for len in [0usize, 1, 15, 16, 17, 64, 320, 1000] {
            let original: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let mut data = original.clone();
            ks.apply(12345, &mut data);
            if len > 0 {
                assert_ne!(data, original, "len {len} should change under encryption");
            }
            ks.apply(12345, &mut data);
            assert_eq!(data, original);
        }
    }

    #[test]
    fn apply_matches_scalar_reference() {
        let ks = CtrKeystream::new([4u8; 16]);
        for len in [1usize, 8, 15, 16, 17, 312, 320, 1000] {
            let mut batched: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
            let mut scalar = batched.clone();
            ks.apply(777, &mut batched);
            apply_reference(&ks, 777, &mut scalar);
            assert_eq!(batched, scalar, "len {len}");
        }
    }

    /// NIST SP 800-38A F.5.1 (CTR-AES128.Encrypt) through
    /// [`Aes128::ctr_xor`]: `pad_blocks` generates the keystream for the
    /// standard's counter sequence, which must turn the standard's plaintexts
    /// into its ciphertexts.  Under the forced-soft CI leg this exercises the
    /// bitsliced engine; by default the fused AES-NI kernel.
    #[test]
    fn nist_sp800_38a_ctr_vectors() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        // Initial counter block f0f1...feff = (seed << 32) | first_chunk.
        let seed: u128 = 0xf0f1_f2f3_f4f5_f6f7_f8f9_fafb;
        let first_chunk: u32 = 0xfcfd_feff;
        let plaintext: [u8; 64] = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac,
            0x45, 0xaf, 0x8e, 0x51, 0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb,
            0xc1, 0x19, 0x1a, 0x0a, 0x52, 0xef, 0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b, 0x17,
            0xad, 0x2b, 0x41, 0x7b, 0xe6, 0x6c, 0x37, 0x10,
        ];
        let expected: [u8; 64] = [
            0x87, 0x4d, 0x61, 0x91, 0xb6, 0x20, 0xe3, 0x26, 0x1b, 0xef, 0x68, 0x64, 0x99, 0x0d,
            0xb6, 0xce, 0x98, 0x06, 0xf6, 0x6b, 0x79, 0x70, 0xfd, 0xff, 0x86, 0x17, 0x18, 0x7b,
            0xb9, 0xff, 0xfd, 0xff, 0x5a, 0xe4, 0xdf, 0x3e, 0xdb, 0xd5, 0xd3, 0x5e, 0x5b, 0x4f,
            0x09, 0x02, 0x0d, 0xb0, 0x3e, 0xab, 0x1e, 0x03, 0x1d, 0xda, 0x2f, 0xbe, 0x03, 0xd1,
            0x79, 0x21, 0x70, 0xa0, 0xf3, 0x00, 0x9c, 0xee,
        ];
        let ks = CtrKeystream::new(key);
        let mut data = plaintext;
        let mut pads = [0u8; 64];
        ks.pad_blocks(seed, first_chunk, &mut pads);
        xor_in_place(&mut data, &pads);
        assert_eq!(data, expected);
        // The per-chunk pads agree with the single-block path.
        for i in 0..4u32 {
            assert_eq!(
                &pads[16 * i as usize..16 * (i as usize + 1)],
                &ks.pad(seed, first_chunk + i)
            );
        }
    }

    /// Seeded property loop: batch-vs-scalar keystream equivalence on odd
    /// lengths, unaligned offsets, multiple spans per buffer, high-bit
    /// seeds, and chunk counters crossing byte-carry boundaries.
    #[test]
    fn batch_equals_scalar_on_awkward_spans() {
        let ks = CtrKeystream::new([0xC3u8; 16]);
        // Tiny xorshift so the loop is seeded and self-contained.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..50 {
            let buf_len = 1 + (rng() % 5000) as usize;
            let mut expected: Vec<u8> = (0..buf_len).map(|_| rng() as u8).collect();
            let mut actual = expected.clone();
            let mut spans = Vec::new();
            let mut cursor = 0usize;
            while cursor < buf_len {
                let start = cursor + (rng() % 40) as usize; // unaligned gaps
                if start >= buf_len {
                    break;
                }
                let len = 1 + (rng() % 700) as usize;
                let len = len.min(buf_len - start);
                // High-bit seeds exercise the full 96-bit seed field.
                let seed = (u128::from(rng()) << 64) | u128::from(rng());
                spans.push(KeystreamSpan { seed, start, len });
                cursor = start + len;
            }
            for span in &spans {
                apply_reference(
                    &ks,
                    span.seed,
                    &mut expected[span.start..span.start + span.len],
                );
            }
            ks.apply_batch(&spans, &mut actual);
            assert_eq!(actual, expected, "round {round}, spans {spans:?}");
        }
    }

    /// The backend's shapes: a path of bucket images, each an 8-byte
    /// plaintext header followed by its sealed bytes — 20 × 384-byte images
    /// (376 sealed: 23 whole chunks and half of a 24th, the 64-byte PMMAC
    /// design point) and 16 × 640-byte ones (632 sealed, an oblivious-map
    /// bucket).  Every engine this host runs must give the scalar
    /// reference's bytes, and the headers between spans must come through
    /// untouched.
    #[test]
    fn path_shaped_batch_leaves_headers_untouched() {
        const HEADER: usize = 8;
        for (buckets, stride) in [(20usize, 384usize), (16, 640)] {
            let original: Vec<u8> = (0..buckets * stride)
                .map(|i| (i * 29 % 253) as u8)
                .collect();
            let spans: Vec<KeystreamSpan> = (0..buckets)
                .map(|k| KeystreamSpan {
                    seed: (0xFEDC_BA98u128 << 64) | (k as u128 + 1),
                    start: k * stride + HEADER,
                    len: stride - HEADER,
                })
                .collect();
            let mut expected = original.clone();
            let reference = CtrKeystream::new([0x6Du8; 16]);
            for span in &spans {
                apply_reference(
                    &reference,
                    span.seed,
                    &mut expected[span.start..span.start + span.len],
                );
            }
            for cipher in crate::aes::host_ciphers([0x6Du8; 16]) {
                let engine = cipher.engine().label();
                let ks = CtrKeystream { cipher };
                let mut actual = original.clone();
                ks.apply_batch(&spans, &mut actual);
                assert_eq!(actual, expected, "{engine}, {buckets} x {stride} B");
                for k in 0..buckets {
                    let header = k * stride..k * stride + HEADER;
                    assert_eq!(actual[header.clone()], original[header], "header {k}");
                }
            }
        }
    }

    /// Chunk counters are 32-bit and the pad construction must agree between
    /// the batched and single-block paths across carry/wrap boundaries.
    #[test]
    fn pad_blocks_crosses_counter_boundaries() {
        let ks = CtrKeystream::new([0x11u8; 16]);
        for first_chunk in [0u32, 0xFE, 0xFFFE, 0x00FF_FFFE, u32::MAX - 1] {
            let mut out = [0u8; 4 * BLOCK_BYTES + 5]; // partial tail too
            ks.pad_blocks(7, first_chunk, &mut out);
            for i in 0..4u32 {
                assert_eq!(
                    &out[16 * i as usize..16 * (i as usize + 1)],
                    &ks.pad(7, first_chunk.wrapping_add(i)),
                    "first_chunk {first_chunk:#x} + {i}"
                );
            }
            let tail_pad = ks.pad(7, first_chunk.wrapping_add(4));
            assert_eq!(&out[64..], &tail_pad[..5]);
        }
    }

    #[test]
    fn different_seeds_give_different_pads() {
        let ks = CtrKeystream::new([9u8; 16]);
        assert_ne!(ks.pad(1, 0), ks.pad(2, 0));
        assert_ne!(ks.pad(1, 0), ks.pad(1, 1));
    }

    #[test]
    fn pad_reuse_leaks_xor_of_plaintexts() {
        // This is exactly the attack of §6.4: if the same (seed, chunk) pad is
        // used for two plaintexts, their XOR is revealed.
        let ks = CtrKeystream::new([1u8; 16]);
        let d1 = [0x11u8; 16];
        let d2 = [0x2eu8; 16];
        let mut c1 = d1;
        let mut c2 = d2;
        ks.apply(99, &mut c1);
        ks.apply(99, &mut c2);
        let mut xor = [0u8; 16];
        for i in 0..16 {
            xor[i] = c1[i] ^ c2[i];
        }
        let mut expected = [0u8; 16];
        for i in 0..16 {
            expected[i] = d1[i] ^ d2[i];
        }
        assert_eq!(xor, expected);
    }

    #[test]
    #[should_panic(expected = "exceeds buffer")]
    fn apply_batch_rejects_out_of_range_span() {
        let ks = CtrKeystream::new([1u8; 16]);
        let mut data = [0u8; 16];
        ks.apply_batch(
            &[KeystreamSpan {
                seed: 0,
                start: 8,
                len: 16,
            }],
            &mut data,
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_in_place_rejects_length_mismatch() {
        let mut a = [0u8; 4];
        xor_in_place(&mut a, &[0u8; 5]);
    }
}
