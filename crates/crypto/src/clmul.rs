//! The carry-less-multiply CRC-64/XZ folding kernel: PCLMULQDQ via
//! `core::arch::x86_64`.
//!
//! Compiled only on x86_64; selected once per process by [`crate::crc64`]
//! when the CPU reports PCLMULQDQ and the soft path has not been forced
//! (`ORAM_CRYPTO_FORCE_SOFT`).  The table CRC stays the fallback and the
//! reference the kernel is tested against.
//!
//! The kernel folds the input as a polynomial over GF(2) in the bit-reflected
//! domain of the CRC.  Four 128-bit lanes each hold one 16-byte chunk of
//! every 64-byte block; a lane moves forward 512 bits by multiplying its low
//! and high halves by `x^575 mod P` and `x^511 mod P` and XORing the
//! products into the chunk 64 bytes on.  At the end the lanes fold into one
//! with the 128-bit-distance constants, the remaining whole chunks fold in
//! the same way, and the 128-bit remainder goes back to the caller, which
//! finishes it (and any trailing partial chunk) with the table.  Each
//! constant is `x^n mod P` bit-reflected, with `n` one less than the fold
//! distance plus the half's offset: a reflected carry-less product comes out
//! shifted one bit, which the exponent absorbs.
//!
//! This island holds the intrinsics and the `#[target_feature]` call, both
//! guarded by the runtime CPUID check at the dispatch site.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_clmulepi64_si128, _mm_loadu_si128, _mm_set_epi64x, _mm_storeu_si128, _mm_xor_si128,
};

/// Bytes per chunk (one 128-bit lane).
pub(crate) const CHUNK_BYTES: usize = 16;

/// Lanes folded in parallel.
pub(crate) const LANES: usize = 4;

/// `x^127 mod P`, bit-reflected: folds a high half 128 bits forward.
const K_127: u64 = 0xdabe_95af_c787_5f40;
/// `x^191 mod P`, bit-reflected: folds a low half 128 bits forward.
const K_191: u64 = 0xe05d_d497_ca39_3ae4;
/// `x^511 mod P`, bit-reflected: folds a high half 512 bits forward.
const K_511: u64 = 0x081f_6054_a784_2df4;
/// `x^575 mod P`, bit-reflected: folds a low half 512 bits forward.
const K_575: u64 = 0x6ae3_efbb_9dd4_41f3;

/// Whether the CPU supports PCLMULQDQ (plus SSE2, which every x86_64 CPU
/// has but we check for completeness).
pub(crate) fn detected() -> bool {
    std::arch::is_x86_feature_detected!("pclmulqdq") && std::arch::is_x86_feature_detected!("sse2")
}

/// Folds `chunks` (at least [`LANES`] of them) into a 128-bit remainder,
/// starting from the CRC register `state`.  The remainder's 16 bytes, run
/// through the table CRC from a zero register, give the register after
/// `chunks`.
///
/// # Safety preconditions (checked by the caller)
///
/// Must only be called after [`detected`] returned `true`.
// lint: ct-scope, no-alloc
pub(crate) fn fold(state: u64, chunks: &[[u8; CHUNK_BYTES]]) -> [u8; CHUNK_BYTES] {
    assert!(chunks.len() >= LANES, "the kernel needs one full block");
    // SAFETY: the dispatch site verified PCLMULQDQ support via `detected()`.
    unsafe { fold_impl(state, chunks) }
}

// SAFETY: caller must ensure the CPU supports PCLMULQDQ and SSE2 (the public
// wrapper's dispatch site checks `detected()`).  Memory is only touched
// through `load` and the one store below, each of which covers exactly the
// 16-byte array it is handed.
#[target_feature(enable = "pclmulqdq,sse2")]
unsafe fn fold_impl(state: u64, chunks: &[[u8; CHUNK_BYTES]]) -> [u8; CHUNK_BYTES] {
    let (first, rest) = chunks.split_at(LANES);
    let mut lanes = [
        load(&first[0]),
        load(&first[1]),
        load(&first[2]),
        load(&first[3]),
    ];
    // The register enters as the first eight message bytes XORed with it.
    lanes[0] = _mm_xor_si128(lanes[0], _mm_set_epi64x(0, state as i64));

    let by_512 = _mm_set_epi64x(K_511 as i64, K_575 as i64);
    let (blocks, tail) = rest.as_chunks::<LANES>();
    for block in blocks {
        for (lane, chunk) in lanes.iter_mut().zip(block) {
            *lane = _mm_xor_si128(fold_by(*lane, by_512), load(chunk));
        }
    }

    let by_128 = _mm_set_epi64x(K_127 as i64, K_191 as i64);
    let mut acc = lanes[0];
    for lane in &lanes[1..] {
        acc = _mm_xor_si128(fold_by(acc, by_128), *lane);
    }
    for chunk in tail {
        acc = _mm_xor_si128(fold_by(acc, by_128), load(chunk));
    }
    let mut out = [0u8; CHUNK_BYTES];
    _mm_storeu_si128(out.as_mut_ptr().cast(), acc);
    out
}

/// `lane` moved forward by the distance `k` encodes: low half times
/// `k`'s low constant XOR high half times its high constant.
// SAFETY: caller must ensure PCLMULQDQ and SSE2 are available; the function
// works on registers only.
#[inline]
#[target_feature(enable = "pclmulqdq,sse2")]
unsafe fn fold_by(lane: __m128i, k: __m128i) -> __m128i {
    _mm_xor_si128(
        _mm_clmulepi64_si128(lane, k, 0x00),
        _mm_clmulepi64_si128(lane, k, 0x11),
    )
}

// SAFETY: caller must ensure SSE2 is available (implied by the detection at
// the dispatch site); the unaligned load reads exactly the 16-byte array
// `chunk` refers to.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn load(chunk: &[u8; CHUNK_BYTES]) -> __m128i {
    _mm_loadu_si128(chunk.as_ptr().cast())
}
// lint: end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc64::{crc64_table, finish_fold};

    fn skip_without_clmul() -> bool {
        if detected() {
            false
        } else {
            eprintln!("PCLMULQDQ not available; skipping kernel test");
            true
        }
    }

    /// The kernel plus its table finish, called directly so the forced-soft
    /// leg (where dispatch never reaches it) still checks it.
    fn crc64_clmul(bytes: &[u8]) -> u64 {
        let (chunks, tail) = bytes.as_chunks::<CHUNK_BYTES>();
        if chunks.len() < LANES {
            return crc64_table(bytes);
        }
        !finish_fold(fold(!0, chunks), tail)
    }

    #[test]
    fn kernel_matches_the_table_at_every_length_and_unaligned_start() {
        if skip_without_clmul() {
            return;
        }
        let data: Vec<u8> = (0..4096 + 8)
            .map(|i: usize| (i.wrapping_mul(167) ^ (i >> 5)) as u8)
            .collect();
        for start in [0usize, 1, 7] {
            for len in 0..=4096 {
                let bytes = &data[start..start + len];
                assert_eq!(
                    crc64_clmul(bytes),
                    crc64_table(bytes),
                    "length {len} at offset {start}"
                );
            }
        }
    }
}
