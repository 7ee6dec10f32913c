//! Bitsliced AES-128: the table-free, constant-time software engine.
//!
//! Processes [`PARALLEL_BLOCKS`] = 8 blocks per call.  The 8 × 16 input bytes
//! are transposed into eight 128-bit *bit planes* — plane `i`, bit `8·p + b`
//! holds bit `i` of byte `p` of block `b` — after which every round operates
//! on whole planes:
//!
//! * `SubBytes` is the Boyar–Peralta 113-gate boolean circuit (the circuit
//!   popularised by Käsper–Schwabe bitsliced AES), evaluated once across all
//!   128 byte lanes simultaneously; no S-box table, no secret-dependent loads
//!   or branches.
//! * `ShiftRows` and `MixColumns` are fixed mask/shift permutations of the
//!   plane bits (byte positions sit at 8-bit stride, so the masks are
//!   byte-granular constants).
//! * `AddRoundKey` XORs pre-broadcast round-key planes.
//!
//! The plane transpose (`ortho`) is the classic three-layer delta-swap
//! network and is an involution, so packing and unpacking share one routine.
//!
//! This engine is the portable fallback behind the AES-NI path and the only
//! engine when `ORAM_CRYPTO_FORCE_SOFT` is in effect; see
//! [`crate::aes::Aes128`] for the dispatch rules.

use crate::aes::{BLOCK_BYTES, ROUNDS};

/// Blocks processed per engine call.
pub const PARALLEL_BLOCKS: usize = 8;

/// Bytes consumed by one batched call (8 blocks).
pub const BATCH_BYTES: usize = PARALLEL_BLOCKS * BLOCK_BYTES;

/// Round keys pre-broadcast into bit-plane form: `rk[r][i]` is plane `i` of
/// round key `r`, replicated across all eight block lanes.
#[derive(Clone)]
pub(crate) struct FixslicedKeys {
    rk: [[u128; 8]; ROUNDS + 1],
}

impl std::fmt::Debug for FixslicedKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Key material is never printed.
        f.debug_struct("FixslicedKeys").finish_non_exhaustive()
    }
}

impl Drop for FixslicedKeys {
    fn drop(&mut self) {
        crate::zeroize::zeroize_u128(self.rk.as_flattened_mut());
    }
}

impl FixslicedKeys {
    /// Broadcasts each expanded round key into plane form: bit `i` of key
    /// byte `p` becomes `0xFF` (all eight block lanes) at byte position `p`
    /// of plane `i`.
    pub(crate) fn new(round_keys: &[[u8; 16]; ROUNDS + 1]) -> Self {
        let mut rk = [[0u128; 8]; ROUNDS + 1];
        for (r, key) in round_keys.iter().enumerate() {
            for (p, &byte) in key.iter().enumerate() {
                for (i, plane) in rk[r].iter_mut().enumerate() {
                    if (byte >> i) & 1 == 1 {
                        *plane |= 0xFFu128 << (8 * p);
                    }
                }
            }
        }
        Self { rk }
    }

    /// Encrypts eight 16-byte blocks in place.
    // lint: ct-scope, no-alloc, no-panic
    pub(crate) fn encrypt8(&self, blocks: &mut [u8; BATCH_BYTES]) {
        let mut q = pack(blocks);
        add_round_key(&mut q, &self.rk[0]);
        for round in 1..ROUNDS {
            sub_bytes(&mut q);
            shift_rows(&mut q);
            mix_columns(&mut q);
            // lint: allow(no-panic, round is bounded by ROUNDS over a ROUNDS+1 array; the bound is compile-time)
            add_round_key(&mut q, &self.rk[round]);
        }
        sub_bytes(&mut q);
        shift_rows(&mut q);
        // lint: allow(no-panic, ROUNDS indexes the last slot of a ROUNDS+1 array; the bound is compile-time)
        add_round_key(&mut q, &self.rk[ROUNDS]);
        unpack(&q, blocks);
    }
}

// ---------------------------------------------------------------------------
// Plane transpose
// ---------------------------------------------------------------------------

/// One delta-swap layer of the transpose network.
macro_rules! swap {
    ($q:ident, $i:expr, $j:expr, $cl:expr, $ch:expr, $s:expr) => {{
        let a = $q[$i];
        let b = $q[$j];
        $q[$i] = (a & $cl) | ((b & $cl) << $s);
        $q[$j] = ((a & $ch) >> $s) | (b & $ch);
    }};
}

const CL1: u128 = 0x5555_5555_5555_5555_5555_5555_5555_5555;
const CH1: u128 = !CL1;
const CL2: u128 = 0x3333_3333_3333_3333_3333_3333_3333_3333;
const CH2: u128 = !CL2;
const CL4: u128 = 0x0F0F_0F0F_0F0F_0F0F_0F0F_0F0F_0F0F_0F0F;
const CH4: u128 = !CL4;

/// The 8×8 bit transpose applied across all sixteen byte positions at once.
/// Exchanging word index and bit-within-byte index is an involution, so the
/// same routine packs blocks into planes and planes back into blocks.
fn ortho(q: &mut [u128; 8]) {
    swap!(q, 0, 1, CL1, CH1, 1);
    swap!(q, 2, 3, CL1, CH1, 1);
    swap!(q, 4, 5, CL1, CH1, 1);
    swap!(q, 6, 7, CL1, CH1, 1);
    swap!(q, 0, 2, CL2, CH2, 2);
    swap!(q, 1, 3, CL2, CH2, 2);
    swap!(q, 4, 6, CL2, CH2, 2);
    swap!(q, 5, 7, CL2, CH2, 2);
    swap!(q, 0, 4, CL4, CH4, 4);
    swap!(q, 1, 5, CL4, CH4, 4);
    swap!(q, 2, 6, CL4, CH4, 4);
    swap!(q, 3, 7, CL4, CH4, 4);
}

/// Loads eight blocks into bit planes: plane `i`, bit `8·p + b` = bit `i` of
/// byte `p` of block `b`.
fn pack(blocks: &[u8; BATCH_BYTES]) -> [u128; 8] {
    let mut q = [0u128; 8];
    for (b, chunk) in blocks.chunks_exact(BLOCK_BYTES).enumerate() {
        // lint: allow(no-panic, lane index and chunk width are fixed by chunks_exact over an 8-block batch)
        q[b] = u128::from_le_bytes(chunk.try_into().expect("16-byte block"));
    }
    ortho(&mut q);
    q
}

/// Inverse of [`pack`].
fn unpack(q: &[u128; 8], blocks: &mut [u8; BATCH_BYTES]) {
    let mut q = *q;
    ortho(&mut q);
    for (b, chunk) in blocks.chunks_exact_mut(BLOCK_BYTES).enumerate() {
        // lint: allow(no-panic, lane index is fixed by chunks_exact_mut over an 8-block batch)
        chunk.copy_from_slice(&q[b].to_le_bytes());
    }
}

// ---------------------------------------------------------------------------
// Round functions
// ---------------------------------------------------------------------------

fn add_round_key(q: &mut [u128; 8], rk: &[u128; 8]) {
    for (plane, key) in q.iter_mut().zip(rk.iter()) {
        *plane ^= *key;
    }
}

// Byte position `p` of the AES state occupies plane bits `[8p, 8p + 8)`;
// positions are column-major (`p = 4c + r`), so each aligned 32-bit group of
// a plane is one column and byte `r` of that group is row `r`.

/// Destination-byte masks for `ShiftRows`: row `r` of column `c` pulls from
/// column `(c + r) mod 4`, i.e. a shift by `32·r` bits with wrap-around
/// handled by a second masked shift.
const SR_ROW0: u128 = 0x0000_00FF_0000_00FF_0000_00FF_0000_00FF;
const SR_ROW1_A: u128 = 0x0000_0000_0000_FF00_0000_FF00_0000_FF00;
const SR_ROW1_B: u128 = 0x0000_FF00_0000_0000_0000_0000_0000_0000;
const SR_ROW2_A: u128 = 0x0000_0000_0000_0000_00FF_0000_00FF_0000;
const SR_ROW2_B: u128 = 0x00FF_0000_00FF_0000_0000_0000_0000_0000;
const SR_ROW3_A: u128 = 0x0000_0000_0000_0000_0000_0000_FF00_0000;
const SR_ROW3_B: u128 = 0xFF00_0000_FF00_0000_FF00_0000_0000_0000;

fn shift_rows(q: &mut [u128; 8]) {
    for plane in q.iter_mut() {
        let w = *plane;
        *plane = (w & SR_ROW0)
            | ((w >> 32) & SR_ROW1_A)
            | ((w << 96) & SR_ROW1_B)
            | ((w >> 64) & SR_ROW2_A)
            | ((w << 64) & SR_ROW2_B)
            | ((w >> 96) & SR_ROW3_A)
            | ((w << 32) & SR_ROW3_B);
    }
}

/// Rotates every column one row up (byte at row `r` takes the value from row
/// `(r + 1) mod 4` of the same column): the `a_{r+1}` term of `MixColumns`.
const RC_LOW: u128 = 0x00FF_FFFF_00FF_FFFF_00FF_FFFF_00FF_FFFF;
const RC_HIGH: u128 = !RC_LOW;

#[inline(always)]
fn rotate_rows_1(w: u128) -> u128 {
    ((w >> 8) & RC_LOW) | ((w << 24) & RC_HIGH)
}

/// `MixColumns` over planes: with `t = a ⊕ rot1(a)`, the output byte is
/// `xtime(t) ⊕ rot1(a) ⊕ rot2(a) ⊕ rot3(a)`; `xtime` is the plane-index
/// shuffle with the reduction polynomial's carries folded in from plane 7.
fn mix_columns(q: &mut [u128; 8]) {
    let mut r1 = [0u128; 8];
    let mut t = [0u128; 8];
    for i in 0..8 {
        // lint: allow(no-panic, i ranges over 0..8 into [u128; 8] arrays; the bound is compile-time)
        r1[i] = rotate_rows_1(q[i]);
        // lint: allow(no-panic, i ranges over 0..8 into [u128; 8] arrays; the bound is compile-time)
        t[i] = q[i] ^ r1[i];
    }
    // acc = rot1 ^ rot2 ^ rot3; rot2(a) ^ rot3(a) = rot2(a ^ rot1(a)) = rot2(t).
    let mut acc = [0u128; 8];
    for i in 0..8 {
        // lint: allow(no-panic, i ranges over 0..8 into [u128; 8] arrays; the bound is compile-time)
        acc[i] = r1[i] ^ rotate_rows_1(rotate_rows_1(t[i]));
    }
    let c = t[7]; // carries out of the top bit
    q[0] = c ^ acc[0];
    q[1] = t[0] ^ c ^ acc[1];
    q[2] = t[1] ^ acc[2];
    q[3] = t[2] ^ c ^ acc[3];
    q[4] = t[3] ^ c ^ acc[4];
    q[5] = t[4] ^ acc[5];
    q[6] = t[5] ^ acc[6];
    q[7] = t[6] ^ acc[7];
}

/// The AES S-box as a 113-gate boolean circuit (Boyar–Peralta), applied to
/// all 128 byte lanes at once.  Input/output convention: `x0`/`s0` are the
/// **most significant** bits, so plane 7 feeds `x0` and `s0` lands in
/// plane 7.
#[allow(clippy::similar_names)]
fn sub_bytes(q: &mut [u128; 8]) {
    let x0 = q[7];
    let x1 = q[6];
    let x2 = q[5];
    let x3 = q[4];
    let x4 = q[3];
    let x5 = q[2];
    let x6 = q[1];
    let x7 = q[0];

    // Top linear transform.
    let y14 = x3 ^ x5;
    let y13 = x0 ^ x6;
    let y9 = x0 ^ x3;
    let y8 = x0 ^ x5;
    let t0 = x1 ^ x2;
    let y1 = t0 ^ x7;
    let y4 = y1 ^ x3;
    let y12 = y13 ^ y14;
    let y2 = y1 ^ x0;
    let y5 = y1 ^ x6;
    let y3 = y5 ^ y8;
    let t1 = x4 ^ y12;
    let y15 = t1 ^ x5;
    let y20 = t1 ^ x1;
    let y6 = y15 ^ x7;
    let y10 = y15 ^ t0;
    let y11 = y20 ^ y9;
    let y7 = x7 ^ y11;
    let y17 = y10 ^ y11;
    let y19 = y10 ^ y8;
    let y16 = t0 ^ y11;
    let y21 = y13 ^ y16;
    let y18 = x0 ^ y16;

    // Shared non-linear middle section (GF(2^4) inversion tower).
    let t2 = y12 & y15;
    let t3 = y3 & y6;
    let t4 = t3 ^ t2;
    let t5 = y4 & x7;
    let t6 = t5 ^ t2;
    let t7 = y13 & y16;
    let t8 = y5 & y1;
    let t9 = t8 ^ t7;
    let t10 = y2 & y7;
    let t11 = t10 ^ t7;
    let t12 = y9 & y11;
    let t13 = y14 & y17;
    let t14 = t13 ^ t12;
    let t15 = y8 & y10;
    let t16 = t15 ^ t12;
    let t17 = t4 ^ t14;
    let t18 = t6 ^ t16;
    let t19 = t9 ^ t14;
    let t20 = t11 ^ t16;
    let t21 = t17 ^ y20;
    let t22 = t18 ^ y19;
    let t23 = t19 ^ y21;
    let t24 = t20 ^ y18;
    let t25 = t21 ^ t22;
    let t26 = t21 & t23;
    let t27 = t24 ^ t26;
    let t28 = t25 & t27;
    let t29 = t28 ^ t22;
    let t30 = t23 ^ t24;
    let t31 = t22 ^ t26;
    let t32 = t31 & t30;
    let t33 = t32 ^ t24;
    let t34 = t23 ^ t33;
    let t35 = t27 ^ t33;
    let t36 = t24 & t35;
    let t37 = t36 ^ t34;
    let t38 = t27 ^ t36;
    let t39 = t29 & t38;
    let t40 = t25 ^ t39;
    let t41 = t40 ^ t37;
    let t42 = t29 ^ t33;
    let t43 = t29 ^ t40;
    let t44 = t33 ^ t37;
    let t45 = t42 ^ t41;
    let z0 = t44 & y15;
    let z1 = t37 & y6;
    let z2 = t33 & x7;
    let z3 = t43 & y16;
    let z4 = t40 & y1;
    let z5 = t29 & y7;
    let z6 = t42 & y11;
    let z7 = t45 & y17;
    let z8 = t41 & y10;
    let z9 = t44 & y12;
    let z10 = t37 & y3;
    let z11 = t33 & y4;
    let z12 = t43 & y13;
    let z13 = t40 & y5;
    let z14 = t29 & y2;
    let z15 = t42 & y9;
    let z16 = t45 & y14;
    let z17 = t41 & y8;

    // Bottom linear transform (includes the affine constant 0x63 as the
    // complemented outputs s0–s2, s6, s7).
    let t46 = z15 ^ z16;
    let t47 = z10 ^ z11;
    let t48 = z5 ^ z13;
    let t49 = z9 ^ z10;
    let t50 = z2 ^ z12;
    let t51 = z2 ^ z5;
    let t52 = z7 ^ z8;
    let t53 = z0 ^ z3;
    let t54 = z6 ^ z7;
    let t55 = z16 ^ z17;
    let t56 = z12 ^ t48;
    let t57 = t50 ^ t53;
    let t58 = z4 ^ t46;
    let t59 = z3 ^ t54;
    let t60 = t46 ^ t57;
    let t61 = z14 ^ t57;
    let t62 = t52 ^ t58;
    let t63 = t49 ^ t58;
    let t64 = z4 ^ t59;
    let t65 = t61 ^ t62;
    let t66 = z1 ^ t63;
    let s0 = t59 ^ t63;
    let s6 = t56 ^ !t62;
    let s7 = t48 ^ !t60;
    let t67 = t64 ^ t65;
    let s3 = t53 ^ t66;
    let s4 = t51 ^ t66;
    let s5 = t47 ^ t65;
    let s1 = t64 ^ !s3;
    let s2 = t55 ^ !t67;

    q[7] = s0;
    q[6] = s1;
    q[5] = s2;
    q[4] = s3;
    q[3] = s4;
    q[2] = s5;
    q[1] = s6;
    q[0] = s7;
}
// lint: end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes128;

    /// Naive bit-by-bit reference for the plane layout contract.
    fn pack_reference(blocks: &[u8; BATCH_BYTES]) -> [u128; 8] {
        let mut q = [0u128; 8];
        for b in 0..PARALLEL_BLOCKS {
            for p in 0..BLOCK_BYTES {
                let byte = blocks[b * BLOCK_BYTES + p];
                for (i, plane) in q.iter_mut().enumerate() {
                    if (byte >> i) & 1 == 1 {
                        *plane |= 1u128 << (8 * p + b);
                    }
                }
            }
        }
        q
    }

    fn test_blocks() -> [u8; BATCH_BYTES] {
        let mut blocks = [0u8; BATCH_BYTES];
        for (i, byte) in blocks.iter_mut().enumerate() {
            *byte = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        blocks
    }

    #[test]
    fn pack_matches_naive_reference_and_roundtrips() {
        let blocks = test_blocks();
        assert_eq!(pack(&blocks), pack_reference(&blocks));
        let mut back = [0u8; BATCH_BYTES];
        unpack(&pack(&blocks), &mut back);
        assert_eq!(back, blocks);
    }

    #[test]
    fn sub_bytes_matches_sbox_table_exhaustively() {
        // Every lane gets a different input byte; two passes cover all 256.
        for base in [0u8, 128] {
            let mut blocks = [0u8; BATCH_BYTES];
            for (i, byte) in blocks.iter_mut().enumerate() {
                *byte = base + i as u8;
            }
            let mut q = pack(&blocks);
            sub_bytes(&mut q);
            let mut out = [0u8; BATCH_BYTES];
            unpack(&q, &mut out);
            for (i, &byte) in out.iter().enumerate() {
                assert_eq!(
                    byte,
                    crate::aes::sbox(base + i as u8),
                    "S-box mismatch at input {}",
                    base + i as u8
                );
            }
        }
    }

    #[test]
    fn shift_rows_and_mix_columns_match_scalar_reference() {
        // One round of ShiftRows ∘ MixColumns against the scalar code, with
        // eight distinct blocks in flight.
        let blocks = test_blocks();
        let mut q = pack(&blocks);
        shift_rows(&mut q);
        mix_columns(&mut q);
        let mut batched = [0u8; BATCH_BYTES];
        unpack(&q, &mut batched);

        for b in 0..PARALLEL_BLOCKS {
            let mut state: [u8; 16] = blocks[b * 16..(b + 1) * 16].try_into().unwrap();
            crate::aes::shift_rows_scalar(&mut state);
            crate::aes::mix_columns_scalar(&mut state);
            assert_eq!(&batched[b * 16..(b + 1) * 16], &state, "block {b}");
        }
    }

    #[test]
    fn encrypt8_matches_scalar_cipher() {
        let aes = Aes128::new([0x3Cu8; 16]);
        let keys = FixslicedKeys::new(aes.round_keys());
        let mut blocks = test_blocks();
        let expected: Vec<u8> = blocks
            .chunks_exact(16)
            .flat_map(|b| aes.encrypt_block_scalar(b.try_into().unwrap()))
            .collect();
        keys.encrypt8(&mut blocks);
        assert_eq!(&blocks[..], &expected[..]);
    }

    #[test]
    fn fips197_appendix_b_through_the_bitsliced_engine() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let aes = Aes128::new(key);
        let keys = FixslicedKeys::new(aes.round_keys());
        // All eight lanes carry the same block; all must produce the vector.
        let mut blocks = [0u8; BATCH_BYTES];
        for chunk in blocks.chunks_exact_mut(16) {
            chunk.copy_from_slice(&pt);
        }
        keys.encrypt8(&mut blocks);
        for chunk in blocks.chunks_exact(16) {
            assert_eq!(chunk, &expected);
        }
    }

    #[test]
    fn debug_does_not_leak_key_planes() {
        let aes = Aes128::new([0x42u8; 16]);
        let keys = FixslicedKeys::new(aes.round_keys());
        let s = format!("{keys:?}");
        assert!(!s.contains("42"), "leaked key material: {s}");
    }
}
