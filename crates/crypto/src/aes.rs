//! AES-128 block cipher (encryption direction), per FIPS-197.
//!
//! The hardware prototype in the paper uses two OpenCores AES-128 units: a
//! pipelined core for path decryption/re-encryption and a smaller core for the
//! PRF (§7.2.1).  This module mirrors that with **three software engines
//! behind one type**:
//!
//! * **VAES** (the private `aesni` module, x86_64 with VAES, AVX-512F and
//!   AVX-512BW) — counter mode on 512-bit registers, 24 blocks interleaved
//!   per group: one sealed bucket of the 64-byte design point per pass.
//!   Single blocks and caller-built batches run the AES-NI kernel.
//! * **AES-NI** (same module, x86_64 only) — the hardware instructions, with
//!   eight blocks interleaved per call so the `AESENC` latency pipelines like
//!   the paper's dedicated unit.
//! * **Bitsliced** ([`crate::fixslice`]) — a table-free, constant-time
//!   software implementation processing eight blocks per call; the portable
//!   fallback.
//!
//! [`Aes128`] picks the engine once at construction: VAES when the CPU
//! reports it, else AES-NI when the CPU reports that, unless the soft path
//! is forced by setting `ORAM_CRYPTO_FORCE_SOFT` to anything but `0`/empty
//! in the environment (checked once per process).  [`Aes128::engine`]
//! reports the decision.
//!
//! The historical scalar implementation (S-box table + per-column GF(2^8)
//! arithmetic) is retained test-only as `encrypt_block_scalar`, the
//! reference the engines are validated against.  It is not constant-time and
//! is never dispatched to at runtime: soft-mode single blocks run through
//! the bitsliced engine with one occupied lane, so every non-AES-NI
//! encryption is table-free.
//!
//! Expanded round keys (both byte and plane form) are scrubbed with volatile
//! writes when the cipher is dropped, so key schedules do not linger in freed
//! memory.

use crate::fixslice::FixslicedKeys;
pub use crate::fixslice::PARALLEL_BLOCKS;

/// Number of bytes in an AES block.
pub const BLOCK_BYTES: usize = 16;
/// Number of bytes in an AES-128 key.
pub const KEY_BYTES: usize = 16;
/// Number of rounds for AES-128.
pub(crate) const ROUNDS: usize = 10;

/// The AES S-box, defined as the affine transform of the multiplicative
/// inverse in GF(2^8).  Stored as a constant table (FIPS-197 Figure 7).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for the key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// S-box lookup (test helper for the bitsliced circuit).
#[cfg(test)]
pub(crate) fn sbox(x: u8) -> u8 {
    SBOX[x as usize]
}

/// Multiply two elements of GF(2^8) with the AES reduction polynomial
/// x^8 + x^4 + x^3 + x + 1 (test-only: the scalar reference cipher).
#[cfg(test)]
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// The counter-mode input block for `(seed, chunk)`: the seed's low 96 bits
/// in bytes 0..12, the chunk index big-endian in bytes 12..16.
#[inline]
pub(crate) fn counter_block(seed: u128, chunk: u32) -> [u8; BLOCK_BYTES] {
    ((seed << 32) | u128::from(chunk)).to_be_bytes()
}

/// Which implementation an [`Aes128`] instance dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Counter mode on 512-bit VAES registers, 24 blocks per group (x86_64
    /// with VAES, AVX-512F and AVX-512BW); single blocks and caller-built
    /// batches run the [`EngineKind::AesNi`] kernel.
    Vaes,
    /// Hardware AES instructions (`AESENC`/`AESENCLAST`) on 128-bit
    /// registers, 8 blocks per call, x86_64 only.
    AesNi,
    /// Table-free bitsliced software engine (8 blocks per call).
    Bitsliced,
}

impl EngineKind {
    /// Human-readable engine name (for logs and benchmark labels).
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Vaes => "vaes-avx512",
            EngineKind::AesNi => "aes-ni",
            EngineKind::Bitsliced => "soft-bitsliced",
        }
    }
}

/// Whether the soft engine is forced by the `ORAM_CRYPTO_FORCE_SOFT`
/// environment variable (any value other than empty or `0`).  The
/// environment is consulted once per process.  The CRC-64 dispatch reads it
/// too.
pub(crate) fn force_soft() -> bool {
    static FORCED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("ORAM_CRYPTO_FORCE_SOFT").is_ok_and(|v| !v.is_empty() && v != "0")
    })
}

/// Picks the engine for new cipher instances.
fn select_engine() -> EngineKind {
    #[cfg(target_arch = "x86_64")]
    {
        if !force_soft() {
            if crate::aesni::vaes_detected() {
                return EngineKind::Vaes;
            }
            if crate::aesni::detected() {
                return EngineKind::AesNi;
            }
        }
    }
    let _ = force_soft(); // non-x86_64: the override exists but changes nothing
    EngineKind::Bitsliced
}

/// AES-128 cipher with a pre-expanded key schedule and batched encryption.
///
/// # Examples
///
/// ```
/// use oram_crypto::aes::Aes128;
///
/// let aes = Aes128::new([0u8; 16]);
/// let ct = aes.encrypt_block([0u8; 16]);
/// assert_ne!(ct, [0u8; 16]);
///
/// // Batched: encrypt many blocks in place with one engine call per eight.
/// let mut blocks = [0u8; 64];
/// aes.encrypt_blocks(&mut blocks);
/// assert_eq!(&blocks[..16], &ct);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    /// 11 round keys of 16 bytes each.
    round_keys: [[u8; 16]; ROUNDS + 1],
    /// Engine-specific state: only the selected engine's schedule is built
    /// (the bitsliced plane broadcast is skipped entirely under the
    /// hardware engines).
    state: EngineState,
}

/// Which engine an instance dispatches to, with that engine's extra state.
#[derive(Clone)]
enum EngineState {
    /// VAES needs nothing beyond the byte-form round keys, which its kernel
    /// broadcasts to every 128-bit lane per call.
    #[cfg(target_arch = "x86_64")]
    Vaes,
    /// AES-NI needs nothing beyond the byte-form round keys.
    #[cfg(target_arch = "x86_64")]
    AesNi,
    /// The bitsliced engine's pre-broadcast plane schedule (boxed: ~1.4 KB,
    /// only materialised when the soft engine is actually selected).
    Soft(Box<FixslicedKeys>),
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128")
            .field("rounds", &ROUNDS)
            .field("engine", &self.engine())
            .finish()
    }
}

impl Drop for Aes128 {
    fn drop(&mut self) {
        crate::zeroize::zeroize_bytes(self.round_keys.as_flattened_mut());
    }
}

impl Aes128 {
    /// Creates a cipher instance by expanding `key` into the round-key
    /// schedule (byte form for the scalar and hardware paths, plane form for
    /// the bitsliced engine).
    pub fn new(key: [u8; KEY_BYTES]) -> Self {
        Self::on_engine(key, select_engine())
    }

    /// [`Aes128::new`] on a given engine, which the caller has checked this
    /// host runs.
    fn on_engine(key: [u8; KEY_BYTES], engine: EngineKind) -> Self {
        let mut words = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for (i, w) in words.iter_mut().take(4).enumerate() {
            w.copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        for i in 4..4 * (ROUNDS + 1) {
            let mut temp = words[i - 1];
            if i % 4 == 0 {
                // RotWord
                temp.rotate_left(1);
                // SubWord
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                words[i][j] = words[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; ROUNDS + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&words[4 * r + c]);
            }
        }
        let state = match engine {
            #[cfg(target_arch = "x86_64")]
            EngineKind::Vaes => EngineState::Vaes,
            #[cfg(target_arch = "x86_64")]
            EngineKind::AesNi => EngineState::AesNi,
            #[cfg(not(target_arch = "x86_64"))]
            EngineKind::Vaes | EngineKind::AesNi => {
                unreachable!("hardware engines are never selected off x86_64")
            }
            EngineKind::Bitsliced => EngineState::Soft(Box::new(FixslicedKeys::new(&round_keys))),
        };
        Self { round_keys, state }
    }

    /// The engine this instance dispatches to.
    pub fn engine(&self) -> EngineKind {
        match self.state {
            #[cfg(target_arch = "x86_64")]
            EngineState::Vaes => EngineKind::Vaes,
            #[cfg(target_arch = "x86_64")]
            EngineState::AesNi => EngineKind::AesNi,
            EngineState::Soft(_) => EngineKind::Bitsliced,
        }
    }

    /// A cipher on `engine`, or `None` when this host does not run it (for
    /// the tests that compare engines directly).
    #[cfg(test)]
    pub(crate) fn with_engine(key: [u8; KEY_BYTES], engine: EngineKind) -> Option<Self> {
        let available = match engine {
            #[cfg(target_arch = "x86_64")]
            EngineKind::Vaes => crate::aesni::vaes_detected(),
            #[cfg(target_arch = "x86_64")]
            EngineKind::AesNi => crate::aesni::detected(),
            #[cfg(not(target_arch = "x86_64"))]
            EngineKind::Vaes | EngineKind::AesNi => false,
            EngineKind::Bitsliced => true,
        };
        available.then(|| Self::on_engine(key, engine))
    }

    /// The expanded round keys (for the engine tests).
    #[cfg(test)]
    pub(crate) fn round_keys(&self) -> &[[u8; 16]; ROUNDS + 1] {
        &self.round_keys
    }

    /// Encrypts a single 16-byte block and returns the ciphertext.
    ///
    /// Both hardware engines run the AES-NI kernel here.  Soft-mode single
    /// blocks still run through the bitsliced engine (one occupied lane) so
    /// the constant-time property holds for *every* software encryption, at
    /// the cost of a full batch per lone block — hot paths batch via
    /// [`Aes128::encrypt_blocks`] instead.
    // lint: ct-scope, no-alloc
    pub fn encrypt_block(&self, block: [u8; BLOCK_BYTES]) -> [u8; BLOCK_BYTES] {
        match &self.state {
            #[cfg(target_arch = "x86_64")]
            EngineState::Vaes | EngineState::AesNi => {
                let mut out = block;
                crate::aesni::encrypt_blocks(&self.round_keys, &mut out);
                out
            }
            EngineState::Soft(keys) => {
                let mut batch = [0u8; crate::fixslice::BATCH_BYTES];
                batch[..BLOCK_BYTES].copy_from_slice(&block);
                keys.encrypt8(&mut batch);
                batch[..BLOCK_BYTES].try_into().expect("one block")
            }
        }
    }

    /// Encrypts `data` — any whole number of 16-byte blocks, laid out
    /// back-to-back — in place, eight blocks per engine call (the AES-NI
    /// kernel under both hardware engines).
    ///
    /// This is the batched hot path used by [`crate::ctr::CtrKeystream`]:
    /// callers fill `data` with counter blocks and receive the keystream in
    /// place.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of [`BLOCK_BYTES`].
    pub fn encrypt_blocks(&self, data: &mut [u8]) {
        assert!(
            data.len().is_multiple_of(BLOCK_BYTES),
            "batched encryption needs whole blocks, got {} bytes",
            data.len()
        );
        match &self.state {
            #[cfg(target_arch = "x86_64")]
            EngineState::Vaes | EngineState::AesNi => {
                crate::aesni::encrypt_blocks(&self.round_keys, data);
            }
            EngineState::Soft(keys) => {
                let mut chunks = data.chunks_exact_mut(crate::fixslice::BATCH_BYTES);
                for chunk in &mut chunks {
                    let batch: &mut [u8; crate::fixslice::BATCH_BYTES] =
                        chunk.try_into().expect("exact batch");
                    keys.encrypt8(batch);
                }
                let tail = chunks.into_remainder();
                if !tail.is_empty() {
                    // A short tail still runs one full-width bitsliced call
                    // (same cost as eight blocks, constant regardless of the
                    // tail length).
                    let mut batch = [0u8; crate::fixslice::BATCH_BYTES];
                    batch[..tail.len()].copy_from_slice(tail);
                    keys.encrypt8(&mut batch);
                    tail.copy_from_slice(&batch[..tail.len()]);
                }
            }
        }
    }

    /// XORs the counter-mode keystream for `seed` into `data` in place:
    /// 16-byte chunk `i` of `data` is XORed with
    /// `AES_K((seed << 32) | (first_chunk + i))`, the index wrapping at 32
    /// bits, and a trailing partial chunk with its pad's prefix.
    ///
    /// Under the hardware engines this is a fused kernel: counter blocks
    /// exist only in registers and the keystream is XORed straight into
    /// `data`, 512 bits per store in 24-block groups under VAES, 128 bits per
    /// store in 8-block groups under AES-NI.  The bitsliced engine fills its
    /// eight lanes with counter blocks, encrypts them, and XORs the batch.
    pub fn ctr_xor(&self, seed: u128, first_chunk: u32, data: &mut [u8]) {
        match &self.state {
            #[cfg(target_arch = "x86_64")]
            EngineState::Vaes => {
                crate::aesni::ctr_xor_vaes(&self.round_keys, seed, first_chunk, data);
            }
            #[cfg(target_arch = "x86_64")]
            EngineState::AesNi => {
                crate::aesni::ctr_xor(&self.round_keys, seed, first_chunk, data);
            }
            EngineState::Soft(keys) => {
                let mut chunk = first_chunk;
                for group in data.chunks_mut(crate::fixslice::BATCH_BYTES) {
                    let mut batch = [0u8; crate::fixslice::BATCH_BYTES];
                    let lanes = group.len().div_ceil(BLOCK_BYTES);
                    for block in batch.chunks_exact_mut(BLOCK_BYTES).take(lanes) {
                        block.copy_from_slice(&counter_block(seed, chunk));
                        chunk = chunk.wrapping_add(1);
                    }
                    keys.encrypt8(&mut batch);
                    for (b, p) in group.iter_mut().zip(batch) {
                        *b ^= p;
                    }
                }
            }
        }
    }
    // lint: end

    /// The historical scalar implementation: S-box table plus explicit
    /// GF(2^8) `MixColumns` arithmetic.  Test-only reference the engines are
    /// validated against; not constant-time, never dispatched to at runtime.
    #[cfg(test)]
    pub(crate) fn encrypt_block_scalar(&self, block: [u8; BLOCK_BYTES]) -> [u8; BLOCK_BYTES] {
        let mut state = block;
        add_round_key(&mut state, &self.round_keys[0]);
        for round in 1..ROUNDS {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            add_round_key(&mut state, &self.round_keys[round]);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        add_round_key(&mut state, &self.round_keys[ROUNDS]);
        state
    }
}

#[cfg(test)]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= *k;
    }
}

#[cfg(test)]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

/// The state is stored column-major: byte `state[4*c + r]` is row `r`,
/// column `c` (matching the FIPS-197 input ordering).
#[cfg(test)]
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = s[4 * ((c + r) % 4) + r];
        }
    }
}

#[cfg(test)]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
        state[4 * c + 3] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
    }
}

/// Scalar `ShiftRows` (test helper for the bitsliced permutation).
#[cfg(test)]
pub(crate) fn shift_rows_scalar(state: &mut [u8; 16]) {
    shift_rows(state);
}

/// Scalar `MixColumns` (test helper for the bitsliced permutation).
#[cfg(test)]
pub(crate) fn mix_columns_scalar(state: &mut [u8; 16]) {
    mix_columns(state);
}

/// Counter mode one block at a time through the scalar reference cipher, no
/// engine involved: what every `ctr_xor` path must match byte for byte.
#[cfg(test)]
pub(crate) fn ctr_xor_scalar(aes: &Aes128, seed: u128, first_chunk: u32, data: &mut [u8]) {
    for (i, chunk) in data.chunks_mut(BLOCK_BYTES).enumerate() {
        let index = first_chunk.wrapping_add(i as u32);
        let pad = aes.encrypt_block_scalar(counter_block(seed, index));
        for (b, p) in chunk.iter_mut().zip(pad) {
            *b ^= p;
        }
    }
}

/// Every engine this host runs, keyed with `key`.  Each engine it does not
/// run is named on stderr with the reason it is skipped.
#[cfg(test)]
pub(crate) fn host_ciphers(key: [u8; KEY_BYTES]) -> Vec<Aes128> {
    [EngineKind::Vaes, EngineKind::AesNi, EngineKind::Bitsliced]
        .into_iter()
        .filter_map(|engine| {
            let cipher = Aes128::with_engine(key, engine);
            if cipher.is_none() {
                eprintln!(
                    "skipping the {} engine: this CPU does not support it",
                    engine.label()
                );
            }
            cipher
        })
        .collect()
}

/// Drives a `ctr_xor` implementation (`f(seed, first_chunk, data)`, keyed
/// like `aes`) over the shapes the fused kernels have to get right, comparing
/// every byte with [`ctr_xor_scalar`]: each length from nothing to two full
/// xmm groups plus a partial block, lengths around one, two and three
/// 24-block VAES groups (a sealed 376-byte bucket, a 632-byte one, ~1 KiB),
/// all at unaligned starts inside a larger buffer (whose other bytes must not
/// change), chunk indices carrying across byte boundaries, across a group
/// boundary and wrapping at `u32::MAX`, and seeds with the high bits of the
/// 96-bit field set.
#[cfg(test)]
pub(crate) fn check_ctr_xor(aes: &Aes128, f: impl Fn(u128, u32, &mut [u8])) {
    let seeds = [
        0u128,
        0x0123_4567_89ab_cdef,
        0x8000_0000_0000_0000_0000_0001,
        0xffff_ffff_ffff_ffff_ffff_ffff,
    ];
    let lengths = (0..=273usize)
        .chain(374..=378)
        .chain(630..=634)
        .chain(1150..=1160);
    for len in lengths {
        let start = 1 + len % 7;
        let seed = seeds[len % seeds.len()];
        let mut expected: Vec<u8> = (0..start + len + 5).map(|i| (i * 37 % 251) as u8).collect();
        let mut actual = expected.clone();
        ctr_xor_scalar(aes, seed, 0, &mut expected[start..start + len]);
        f(seed, 0, &mut actual[start..start + len]);
        assert_eq!(actual, expected, "len {len} at start {start}");
    }
    // 11 chunks and a partial one put the carry inside the first group and
    // again in the short last group; 50 and a partial one span two full
    // VAES groups and a short third.  `0xFFE8` carries exactly at the second
    // VAES group, `u32::MAX - 30` wraps inside it.
    let carries = [
        0xFAu32,
        0xFFFA,
        0x00FF_FFFA,
        u32::MAX - 5,
        0xFFE8,
        u32::MAX - 30,
    ];
    for first_chunk in carries {
        for seed in seeds {
            for blocks in [11, 50] {
                let mut expected = vec![0x5Au8; blocks * BLOCK_BYTES + 3];
                let mut actual = expected.clone();
                ctr_xor_scalar(aes, seed, first_chunk, &mut expected);
                f(seed, first_chunk, &mut actual);
                assert_eq!(
                    actual, expected,
                    "first_chunk {first_chunk:#x}, seed {seed:#x}, {blocks} blocks"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every engine this host runs, through the dispatching
    /// [`Aes128::ctr_xor`], against the scalar reference: the bitsliced
    /// engine on every host, the hardware kernels where the CPU has them.
    #[test]
    fn ctr_xor_matches_scalar_reference() {
        for aes in host_ciphers([0x3Cu8; 16]) {
            check_ctr_xor(&aes, |seed, first_chunk, data| {
                aes.ctr_xor(seed, first_chunk, data)
            });
        }
    }

    /// FIPS-197 Appendix B example vector.
    #[test]
    fn fips197_appendix_b() {
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
        assert_eq!(aes.encrypt_block(pt), expected);
        assert_eq!(aes.encrypt_block_scalar(pt), expected);
    }

    /// FIPS-197 Appendix C.1 (AES-128) known-answer test.
    #[test]
    fn fips197_appendix_c1() {
        let key = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let pt = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes128::new(key);
        assert_eq!(aes.encrypt_block(pt), expected);
        assert_eq!(aes.encrypt_block_scalar(pt), expected);
    }

    #[test]
    fn deterministic_and_key_dependent() {
        let a = Aes128::new([1u8; 16]);
        let b = Aes128::new([2u8; 16]);
        let block = [0xabu8; 16];
        assert_eq!(a.encrypt_block(block), a.encrypt_block(block));
        assert_ne!(a.encrypt_block(block), b.encrypt_block(block));
    }

    #[test]
    fn gf_mul_matches_known_products() {
        // 0x57 * 0x83 = 0xc1 (FIPS-197 §4.2 example).
        assert_eq!(gf_mul(0x57, 0x83), 0xc1);
        // Multiplying by 1 is the identity.
        for x in 0..=255u8 {
            assert_eq!(gf_mul(x, 1), x);
        }
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes128::new([0x42u8; 16]);
        let s = format!("{aes:?}");
        assert!(!s.contains("42"));
        assert!(s.contains("Aes128"));
    }

    #[test]
    fn batched_matches_single_block_on_every_length() {
        // 0 through 20 blocks: covers the empty case, partial bitsliced
        // batches, one exact batch, and batch-plus-tail.
        let aes = Aes128::new([0x5Au8; 16]);
        for blocks in 0..=20usize {
            let mut data: Vec<u8> = (0..blocks * 16).map(|i| (i * 13 % 251) as u8).collect();
            let expected: Vec<u8> = data
                .chunks_exact(16)
                .flat_map(|b| aes.encrypt_block(b.try_into().unwrap()))
                .collect();
            aes.encrypt_blocks(&mut data);
            assert_eq!(data, expected, "{blocks} blocks");
        }
    }

    #[test]
    #[should_panic(expected = "whole blocks")]
    fn batched_rejects_partial_blocks() {
        let aes = Aes128::new([0u8; 16]);
        aes.encrypt_blocks(&mut [0u8; 17]);
    }

    #[test]
    fn engine_selection_is_reported() {
        let aes = Aes128::new([0u8; 16]);
        let kind = aes.engine();
        assert!(matches!(
            kind,
            EngineKind::Vaes | EngineKind::AesNi | EngineKind::Bitsliced
        ));
        assert!(!kind.label().is_empty());
        // Whatever was selected, a clone dispatches identically.
        assert_eq!(aes.clone().engine(), kind);
    }
}
