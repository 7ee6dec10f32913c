//! The hardware AES engines: AES-NI and VAES via `core::arch::x86_64`.
//!
//! Compiled only on x86_64; selected at runtime by
//! [`crate::aes::Aes128`] when CPUID reports support and the soft engine has
//! not been forced (see [`crate::aes::EngineKind`]).  Batches of blocks are
//! encrypted with the rounds interleaved across blocks so the `AESENC`
//! latency is hidden behind the other lanes — the software analogue of the
//! paper's pipelined AES unit (§7.2.1).
//!
//! Three entry points share that pipeline.  [`encrypt_blocks`] encrypts
//! blocks the caller laid out in memory (the PRF's path), eight xmm lanes at
//! a time.  [`ctr_xor`] and [`ctr_xor_vaes`] are the fused counter-mode
//! kernels behind every bucket seal and unseal: each builds its counter
//! blocks in registers, never in memory, and XORs the keystream straight
//! into the caller's data.
//!
//! * [`ctr_xor`] runs eight 128-bit `AESENC` chains per group and XORs
//!   16 bytes per store.
//! * [`ctr_xor_vaes`] (VAES + AVX-512F/BW) runs six 512-bit chains, four
//!   blocks each: a 24-block (384-byte) group, exactly one sealed bucket of
//!   the 64-byte PMMAC design point (376 bytes).  It XORs 64 bytes per store
//!   and finishes a span with one masked load/store, so no pad ever touches
//!   memory.
//!
//! One of the crate's audited unsafe islands: the intrinsics themselves plus
//! the `#[target_feature]` calls, both guarded by the runtime CPUID check at
//! the dispatch site.

#![allow(unsafe_code)]

use crate::aes::{BLOCK_BYTES, ROUNDS};
use core::arch::x86_64::{
    __m128i, __m512i, _mm512_add_epi32, _mm512_aesenc_epi128, _mm512_aesenclast_epi128,
    _mm512_broadcast_i32x4, _mm512_loadu_si512, _mm512_mask_storeu_epi8, _mm512_maskz_loadu_epi8,
    _mm512_maskz_set1_epi32, _mm512_shuffle_epi8, _mm512_storeu_si512, _mm512_xor_si512,
    _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi8,
    _mm_setzero_si128, _mm_storeu_si128, _mm_xor_si128,
};

/// Blocks whose rounds are interleaved in one pass of the xmm kernels.
const LANES: usize = 8;

/// Bytes in one zmm register: four AES blocks.
const ZMM_BYTES: usize = 4 * BLOCK_BYTES;
/// zmm chains interleaved in one full VAES group.
const VAES_REGS: usize = 6;
/// Bytes one full VAES group covers: 24 blocks.
const VAES_GROUP_BYTES: usize = VAES_REGS * ZMM_BYTES;
/// The 32-bit elements holding the chunk index, one per 128-bit lane
/// (bytes 12..16 of each counter block).
const CHUNK_ELEMENTS: u16 = 0x8888;
/// Each 128-bit lane's chunk offset within a zmm register, in those elements.
const LANE_CHUNKS: [u32; 16] = [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3];

/// Whether the CPU supports the AES-NI instructions (plus SSE2, which every
/// x86_64 CPU has but we check for completeness).
pub(crate) fn detected() -> bool {
    std::arch::is_x86_feature_detected!("aes") && std::arch::is_x86_feature_detected!("sse2")
}

/// Whether the CPU also runs [`ctr_xor_vaes`]: VAES on 512-bit registers,
/// AVX-512F for the broadcasts and lane arithmetic, AVX-512BW for the byte
/// shuffle and the byte-masked tail.
pub(crate) fn vaes_detected() -> bool {
    detected()
        && std::arch::is_x86_feature_detected!("vaes")
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512bw")
}

/// Encrypts `data` (a multiple of 16 bytes) in place.
///
/// # Safety preconditions (checked by the caller)
///
/// Must only be called after [`detected`] returned `true`.
// lint: ct-scope, no-alloc
pub(crate) fn encrypt_blocks(round_keys: &[[u8; 16]; ROUNDS + 1], data: &mut [u8]) {
    debug_assert!(data.len().is_multiple_of(BLOCK_BYTES));
    // SAFETY: the dispatch site verified AES-NI support via `detected()`.
    unsafe { encrypt_blocks_impl(round_keys, data) }
}

// SAFETY: caller must ensure the CPU supports AES-NI and SSE2 (the public
// wrapper checks `detected()`); all pointer arithmetic stays inside `data`'s
// whole-block chunks via the safe `chunks_exact_mut` iterators below.
#[target_feature(enable = "aes,sse2")]
unsafe fn encrypt_blocks_impl(round_keys: &[[u8; 16]; ROUNDS + 1], data: &mut [u8]) {
    let keys = load_keys(round_keys);

    // Eight blocks at a time, rounds interleaved for instruction-level
    // parallelism.
    let mut chunks = data.chunks_exact_mut(8 * BLOCK_BYTES);
    for chunk in &mut chunks {
        let mut s = [_mm_setzero_si128(); 8];
        for (i, lane) in s.iter_mut().enumerate() {
            *lane = _mm_loadu_si128(chunk.as_ptr().add(i * BLOCK_BYTES).cast());
            *lane = _mm_xor_si128(*lane, keys[0]);
        }
        for key in keys.iter().take(ROUNDS).skip(1) {
            for lane in s.iter_mut() {
                *lane = _mm_aesenc_si128(*lane, *key);
            }
        }
        for (i, lane) in s.iter_mut().enumerate() {
            *lane = _mm_aesenclast_si128(*lane, keys[ROUNDS]);
            _mm_storeu_si128(chunk.as_mut_ptr().add(i * BLOCK_BYTES).cast(), *lane);
        }
    }
    for block in chunks.into_remainder().chunks_exact_mut(BLOCK_BYTES) {
        let mut s = _mm_loadu_si128(block.as_ptr().cast());
        s = _mm_xor_si128(s, keys[0]);
        for key in keys.iter().take(ROUNDS).skip(1) {
            s = _mm_aesenc_si128(s, *key);
        }
        s = _mm_aesenclast_si128(s, keys[ROUNDS]);
        _mm_storeu_si128(block.as_mut_ptr().cast(), s);
    }
}

/// XORs the counter-mode keystream `AES_K((seed << 32) | chunk)`, chunk
/// counting up (and wrapping) from `first_chunk` per 16 bytes, into `data` in
/// place.  `data` may have any length; a trailing partial block takes the
/// prefix of its pad.
///
/// # Safety preconditions (checked by the caller)
///
/// Must only be called after [`detected`] returned `true`.
pub(crate) fn ctr_xor(
    round_keys: &[[u8; 16]; ROUNDS + 1],
    seed: u128,
    first_chunk: u32,
    data: &mut [u8],
) {
    // SAFETY: the dispatch site verified AES-NI support via `detected()`.
    unsafe { ctr_xor_impl(round_keys, seed, first_chunk, data) }
}

// SAFETY: caller must ensure the CPU supports AES-NI and SSE2 (the public
// wrapper's dispatch site checks `detected()`).  All memory access is through
// safe slices and `[u8; BLOCK_BYTES]` references; `xor_block` and the one
// store below write exactly the 16-byte array they are handed.
#[target_feature(enable = "aes,sse2")]
unsafe fn ctr_xor_impl(
    round_keys: &[[u8; 16]; ROUNDS + 1],
    seed: u128,
    first_chunk: u32,
    data: &mut [u8],
) {
    let keys = load_keys(round_keys);
    // The counter block for chunk 0 with round key 0 already folded in: the
    // seed's low 96 bits big-endian in bytes 0..12, zeros in bytes 12..16.
    let seed_bytes = (seed << 32).to_be_bytes();
    let base = _mm_xor_si128(_mm_loadu_si128(seed_bytes.as_ptr().cast()), keys[0]);
    let mut chunk = first_chunk;

    let (groups, rest) = data.as_chunks_mut::<{ LANES * BLOCK_BYTES }>();
    for group in groups {
        let pads = keystream_lanes(&keys, base, chunk);
        chunk = chunk.wrapping_add(LANES as u32);
        let (blocks, _) = group.as_chunks_mut::<BLOCK_BYTES>();
        for (block, pad) in blocks.iter_mut().zip(pads) {
            xor_block(block, pad);
        }
    }

    // What is left is under one group.  It still runs all eight lanes: a
    // runtime lane count spills the chains to the stack (a path of 312-byte
    // spans measured ~30 % slower that way), and the spare lanes ride in
    // issue slots the `AESENC` latency leaves idle anyway.  Whole blocks are
    // XORed in place like the ones above; only a trailing partial block goes
    // through a stack pad.
    if rest.is_empty() {
        return;
    }
    let pads = keystream_lanes(&keys, base, chunk);
    let (blocks, tail) = rest.as_chunks_mut::<BLOCK_BYTES>();
    for (block, pad) in blocks.iter_mut().zip(pads) {
        xor_block(block, pad);
    }
    if !tail.is_empty() {
        let mut pad = [0u8; BLOCK_BYTES];
        _mm_storeu_si128(pad.as_mut_ptr().cast(), pads[blocks.len()]);
        for (b, p) in tail.iter_mut().zip(pad) {
            *b ^= p;
        }
    }
}

// SAFETY: caller must ensure AES-NI and SSE2 are available; the function
// works on registers only.
#[inline]
#[target_feature(enable = "aes,sse2")]
unsafe fn keystream_lanes(
    keys: &[__m128i; ROUNDS + 1],
    base: __m128i,
    first_chunk: u32,
) -> [__m128i; LANES] {
    let mut s = [base; LANES];
    for (i, lane) in s.iter_mut().enumerate() {
        // Bytes 12..16 of the counter block hold the chunk index big-endian:
        // byte-swapped, it is the register's top 32-bit element.
        let chunk = first_chunk.wrapping_add(i as u32).swap_bytes();
        *lane = _mm_xor_si128(*lane, _mm_set_epi32(chunk as i32, 0, 0, 0));
    }
    for key in &keys[1..ROUNDS] {
        for lane in &mut s {
            *lane = _mm_aesenc_si128(*lane, *key);
        }
    }
    for lane in &mut s {
        *lane = _mm_aesenclast_si128(*lane, keys[ROUNDS]);
    }
    s
}

// SAFETY: caller must ensure SSE2 is available; the unaligned load and
// store cover exactly the 16-byte array `block` refers to.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn xor_block(block: &mut [u8; BLOCK_BYTES], pad: __m128i) {
    let p = block.as_mut_ptr().cast::<__m128i>();
    _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), pad));
}

// SAFETY: caller must ensure SSE2 is available (implied by the AES-NI
// detection at the dispatch site); the loads read exactly 16 bytes from each
// 16-byte round-key array via unaligned-tolerant `_mm_loadu_si128`.
#[target_feature(enable = "sse2")]
unsafe fn load_keys(round_keys: &[[u8; 16]; ROUNDS + 1]) -> [__m128i; ROUNDS + 1] {
    let mut keys = [_mm_setzero_si128(); ROUNDS + 1];
    for (k, rk) in keys.iter_mut().zip(round_keys.iter()) {
        *k = _mm_loadu_si128(rk.as_ptr().cast());
    }
    keys
}

/// [`ctr_xor`] on 512-bit registers: the same keystream, byte for byte, 24
/// blocks per group.
///
/// # Safety preconditions (checked by the caller)
///
/// Must only be called after [`vaes_detected`] returned `true`.
pub(crate) fn ctr_xor_vaes(
    round_keys: &[[u8; 16]; ROUNDS + 1],
    seed: u128,
    first_chunk: u32,
    data: &mut [u8],
) {
    // SAFETY: the dispatch site verified VAES, AVX-512F and AVX-512BW
    // support via `vaes_detected()`.
    unsafe { ctr_xor_vaes_impl(round_keys, seed, first_chunk, data) }
}

// SAFETY: caller must ensure VAES, AVX-512F and AVX-512BW (the dispatch
// site checks `vaes_detected()`).  Loads read the 64-byte `LANE_CHUNKS`, the
// 16-byte seed and whole `[u8; VAES_GROUP_BYTES]` groups; `xor_tail` stays
// inside the slice it is handed.
#[target_feature(enable = "vaes,avx512f,avx512bw")]
unsafe fn ctr_xor_vaes_impl(
    round_keys: &[[u8; 16]; ROUNDS + 1],
    seed: u128,
    first_chunk: u32,
    data: &mut [u8],
) {
    let keys = broadcast_keys(round_keys);
    // Every lane's counter block for chunk 0, round key 0 folded in (as in
    // `ctr_xor_impl`).
    let seed_bytes = (seed << 32).to_be_bytes();
    let base = _mm512_xor_si512(
        _mm512_broadcast_i32x4(_mm_loadu_si128(seed_bytes.as_ptr().cast())),
        keys[0],
    );
    // Lane k of the group's first register holds chunk `first_chunk + k` in
    // native order in its top element; `keystream_zmm` adds the register's
    // offset and byte-swaps, so the 32-bit add wraps like the xmm kernel.
    let mut counters = _mm512_add_epi32(
        _mm512_loadu_si512(LANE_CHUNKS.as_ptr().cast()),
        _mm512_maskz_set1_epi32(CHUNK_ELEMENTS, first_chunk as i32),
    );
    let step = _mm512_maskz_set1_epi32(CHUNK_ELEMENTS, (VAES_GROUP_BYTES / BLOCK_BYTES) as i32);

    let (groups, rest) = data.as_chunks_mut::<VAES_GROUP_BYTES>();
    for group in groups {
        let pads = keystream_zmm::<VAES_REGS>(&keys, base, counters);
        counters = _mm512_add_epi32(counters, step);
        for (i, pad) in pads.into_iter().enumerate() {
            let p = group.as_mut_ptr().add(i * ZMM_BYTES);
            _mm512_storeu_si512(
                p.cast(),
                _mm512_xor_si512(_mm512_loadu_si512(p.cast()), pad),
            );
        }
    }

    // The last, part-filled group runs only the registers it has bytes for.
    // The count is a compile-time constant per arm: a runtime lane count
    // spills the chains (see `ctr_xor_impl`).  Which arm runs depends only on
    // the public span length.
    match rest.len().div_ceil(ZMM_BYTES) {
        0 => {}
        1 => xor_tail::<1>(&keys, base, counters, rest),
        2 => xor_tail::<2>(&keys, base, counters, rest),
        3 => xor_tail::<3>(&keys, base, counters, rest),
        4 => xor_tail::<4>(&keys, base, counters, rest),
        5 => xor_tail::<5>(&keys, base, counters, rest),
        _ => xor_tail::<VAES_REGS>(&keys, base, counters, rest),
    }
}

/// XORs `REGS` registers of keystream into `data`, which is longer than
/// `REGS - 1` registers and at most `REGS`: whole registers by plain 64-byte
/// stores, the last through a byte mask covering what is left of `data`.
/// The plain loads and stores cover the first `REGS - 1` registers of
/// `data`; the masked ones touch only its last `data.len() - (REGS - 1) * 64`
/// bytes, and AVX-512 suppresses faults on the masked-off bytes.
// SAFETY: caller must ensure VAES, AVX-512F and AVX-512BW are available;
// the assert below keeps every load and store inside `data` (the match in
// `ctr_xor_vaes_impl` picks `REGS` from the length so that it holds).
#[inline]
#[target_feature(enable = "vaes,avx512f,avx512bw")]
unsafe fn xor_tail<const REGS: usize>(
    keys: &[__m512i; ROUNDS + 1],
    base: __m512i,
    counters: __m512i,
    data: &mut [u8],
) {
    assert!(data.len() > (REGS - 1) * ZMM_BYTES && data.len() <= REGS * ZMM_BYTES);
    let pads = keystream_zmm::<REGS>(keys, base, counters);
    let p = data.as_mut_ptr();
    for (i, pad) in pads.iter().take(REGS - 1).enumerate() {
        let q = p.add(i * ZMM_BYTES);
        _mm512_storeu_si512(
            q.cast(),
            _mm512_xor_si512(_mm512_loadu_si512(q.cast()), *pad),
        );
    }
    let q = p.add((REGS - 1) * ZMM_BYTES);
    let mask = u64::MAX >> (REGS * ZMM_BYTES - data.len());
    let bytes = _mm512_maskz_loadu_epi8(mask, q.cast());
    _mm512_mask_storeu_epi8(q.cast(), mask, _mm512_xor_si512(bytes, pads[REGS - 1]));
}

/// `REGS` registers of keystream: register `r`, lane `k` is the pad of
/// chunk `counters[k] + 4r`.
// SAFETY: caller must ensure VAES, AVX-512F and AVX-512BW are available;
// the function works on registers only.
#[inline]
#[target_feature(enable = "vaes,avx512f,avx512bw")]
unsafe fn keystream_zmm<const REGS: usize>(
    keys: &[__m512i; ROUNDS + 1],
    base: __m512i,
    counters: __m512i,
) -> [__m512i; REGS] {
    // Per 128-bit lane: bytes 12..16 take the native chunk index's bytes
    // 15..12 (big-endian), every other byte is zeroed.
    let swap = _mm512_broadcast_i32x4(_mm_set_epi8(
        12, 13, 14, 15, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    ));
    let mut s = [base; REGS];
    for (r, lane) in s.iter_mut().enumerate() {
        let offset = _mm512_maskz_set1_epi32(CHUNK_ELEMENTS, 4 * r as i32);
        let chunks = _mm512_shuffle_epi8(_mm512_add_epi32(counters, offset), swap);
        *lane = _mm512_xor_si512(base, chunks);
    }
    for key in &keys[1..ROUNDS] {
        for lane in &mut s {
            *lane = _mm512_aesenc_epi128(*lane, *key);
        }
    }
    for lane in &mut s {
        *lane = _mm512_aesenclast_epi128(*lane, keys[ROUNDS]);
    }
    s
}

// SAFETY: caller must ensure AVX-512F is available (implied by the VAES
// detection at the dispatch site); the loads read exactly 16 bytes from each
// 16-byte round-key array via unaligned-tolerant `_mm_loadu_si128`.
#[target_feature(enable = "avx512f")]
unsafe fn broadcast_keys(round_keys: &[[u8; 16]; ROUNDS + 1]) -> [__m512i; ROUNDS + 1] {
    let mut keys = [_mm512_broadcast_i32x4(_mm_setzero_si128()); ROUNDS + 1];
    for (k, rk) in keys.iter_mut().zip(round_keys.iter()) {
        *k = _mm512_broadcast_i32x4(_mm_loadu_si128(rk.as_ptr().cast()));
    }
    keys
}
// lint: end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes128;

    fn skip_without_aesni() -> bool {
        if detected() {
            false
        } else {
            eprintln!("AES-NI not available; skipping hardware-engine test");
            true
        }
    }

    #[test]
    fn fips197_appendix_c1_through_aesni() {
        if skip_without_aesni() {
            return;
        }
        let aes = Aes128::new([
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ]);
        let mut data = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        encrypt_blocks(aes.round_keys(), &mut data);
        assert_eq!(
            data,
            [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                0xc5, 0x5a,
            ]
        );
    }

    /// The xmm kernel itself, called directly: also on a VAES host and on
    /// the forced-soft leg, where dispatch never reaches it.
    #[test]
    fn ctr_xor_matches_scalar_reference() {
        if skip_without_aesni() {
            return;
        }
        let aes = Aes128::new([0x3Cu8; 16]);
        crate::aes::check_ctr_xor(&aes, |seed, first_chunk, data| {
            ctr_xor(aes.round_keys(), seed, first_chunk, data)
        });
    }

    /// The VAES kernel itself, called directly: also on the forced-soft
    /// leg, where dispatch never reaches it.
    #[test]
    fn ctr_xor_vaes_matches_scalar_reference() {
        if !vaes_detected() {
            eprintln!("VAES with AVX-512F/BW not available; skipping the VAES kernel test");
            return;
        }
        let aes = Aes128::new([0x3Cu8; 16]);
        crate::aes::check_ctr_xor(&aes, |seed, first_chunk, data| {
            ctr_xor_vaes(aes.round_keys(), seed, first_chunk, data)
        });
    }

    #[test]
    fn batched_lanes_agree_with_scalar_cipher() {
        if skip_without_aesni() {
            return;
        }
        let aes = Aes128::new([0x77u8; 16]);
        // 21 blocks: two full 8-lane groups plus a 5-block tail.
        let mut data: Vec<u8> = (0..21 * 16).map(|i| (i % 251) as u8).collect();
        let expected: Vec<u8> = data
            .chunks_exact(16)
            .flat_map(|b| aes.encrypt_block_scalar(b.try_into().unwrap()))
            .collect();
        encrypt_blocks(aes.round_keys(), &mut data);
        assert_eq!(data, expected);
    }
}
