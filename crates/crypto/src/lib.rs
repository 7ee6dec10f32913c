//! Cryptographic primitives for the Freecursive ORAM reproduction.
//!
//! The paper (Fletcher et al., ASPLOS 2015) instantiates its primitives with
//! AES-128 (for the PRF used by the compressed PosMap, §5.1, and for the
//! counter-mode bucket encryption, §6.4) and SHA3-224 (for the PMMAC message
//! authentication codes, §6.1).  This crate provides from-scratch, dependency
//! free software implementations of those primitives together with the small
//! wrappers the ORAM controller needs (`docs/ARCHITECTURE.md` at the
//! workspace root shows where each sits on the access path):
//!
//! * [`aes::Aes128`] — the block cipher (FIPS-197), encryption direction
//!   only, with three engines behind one type: VAES on 512-bit registers
//!   (x86_64 with AVX-512, runtime detected; counter mode in 24-block
//!   groups), AES-NI (x86_64, runtime detected; 8 blocks per call) and a
//!   table-free bitsliced software fallback ([`fixslice`], 8 blocks per
//!   call).
//! * [`ctr::CtrKeystream`] / [`ctr::xor_in_place`] — AES counter-mode pads
//!   for probabilistic bucket encryption, XORed in place by the fused
//!   VAES or AES-NI kernel.
//! * [`sha3::Sha3_224`] — the Keccak-based hash used for MACs, over a
//!   Keccak-f\[1600\] permutation with two kernels ([`keccak`]): a
//!   two-state AVX-512VL kernel (x86_64, runtime detected) and the scalar
//!   loop as fallback and reference.
//! * [`prf::AesPrf`] — the pseudorandom function `PRF_K(x) mod 2^L` that
//!   maps (address, counter) pairs to leaves.
//! * [`mac::MacKey`] — the keyed MAC `MAC_K(c || a || d)` of §6.2.1;
//!   [`mac::MacKey::verify_and_compute`] checks one MAC and computes
//!   another in a single two-state Keccak pass.
//! * [`crc64::crc64`] — the CRC-64/XZ torn-write detector of the tree
//!   store's write-ahead log: a PCLMULQDQ folding kernel (x86_64, runtime
//!   detected) with the slicing-by-8 table as fallback and reference.
//!
//! # The batched API contract
//!
//! Every primitive that evaluates AES more than once per logical operation
//! exposes an entry point that keeps the engine's lanes busy, with identical
//! output to the scalar path:
//!
//! * [`aes::Aes128::ctr_xor`] — counter mode over one run of bytes.  Under
//!   the hardware engines this is a **fused kernel**: the 96-bit seed stays
//!   in a register, each 128-bit lane gets its byte-swapped chunk index
//!   inserted, the `AESENC` chains run interleaved, and the keystream is
//!   XORed straight into the caller's buffer.  VAES runs six 512-bit chains,
//!   a 24-block group (one 376-byte sealed bucket of the 64-byte PMMAC
//!   design point), XORs 64 bytes per store and ends a run with one masked
//!   load/store, so no counter block or pad is written to memory.  AES-NI
//!   runs eight 128-bit chains and XORs 16 bytes per store; only a trailing
//!   partial block's pad goes through memory.  The bitsliced engine fills
//!   an eight-block batch with counter blocks instead.
//! * [`ctr::CtrKeystream::apply_batch`] (and the single-run
//!   [`ctr::CtrKeystream::apply`] / [`ctr::CtrKeystream::pad_blocks`]) —
//!   keystream over arbitrary [`ctr::KeystreamSpan`]s of one buffer, which
//!   is how an ORAM path's ~20 buckets seal in one call per direction.
//!   VAES and AES-NI run their fused kernel once per span.  The bitsliced engine keeps
//!   the older cross-span lane packing, counter blocks from *different*
//!   spans sharing an engine call: a bitsliced call costs the same for one
//!   block as for eight, so part-filled calls are what it must avoid, and it
//!   is the only engine off x86_64 and on the forced-soft CI leg.
//! * [`aes::Aes128::encrypt_blocks`] — any whole number of caller-built
//!   blocks in place (the PRF's input).
//! * [`prf::AesPrf::eval_many`] / [`prf::AesPrf::leaf_pair_for`] — batched
//!   leaf derivation.
//!
//! None of these allocate; callers may rely on that on hot paths.
//!
//! # Engine selection
//!
//! The engine is chosen per cipher instance at construction: VAES when the
//! CPU reports `vaes`, `avx512f` and `avx512bw`, else AES-NI when it reports
//! `aes`, unless `ORAM_CRYPTO_FORCE_SOFT` is set to a non-empty value other
//! than `0` in the environment (read once per process), which selects the
//! bitsliced engine.  [`aes::Aes128::encrypt_block`],
//! [`aes::Aes128::encrypt_blocks`] and the PRF run the AES-NI kernel under
//! both hardware engines.
//! [`aes::Aes128::engine`] reports the decision.  The same override sends
//! [`crc64::crc64`] to its table path and Keccak to its scalar loop; without
//! it Keccak runs the AVX-512VL kernel when the CPU reports `avx512f` and
//! `avx512vl` ([`keccak::kernel_label`] reports the decision).  Key material (expanded AES
//! schedules, MAC keys) is scrubbed with volatile writes on drop.
//!
//! # Examples
//!
//! ```
//! use oram_crypto::prf::AesPrf;
//!
//! let prf = AesPrf::new([7u8; 16]);
//! // Leaf for block address 42 with access count 3 in a tree with 2^20 leaves.
//! let leaf = prf.leaf_for(42, 3, 20);
//! assert!(leaf < (1 << 20));
//! ```

// Unsafe code is denied everywhere except the four audited islands that opt
// back in: the AES-NI and VAES intrinsics (`aesni`), the PCLMULQDQ CRC
// kernel (`clmul`), the AVX-512VL Keccak kernel (`keccak_avx512`) and the
// volatile key scrubbing (`zeroize`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
#[cfg(target_arch = "x86_64")]
pub(crate) mod aesni;
#[cfg(target_arch = "x86_64")]
pub(crate) mod clmul;
pub mod crc64;
pub mod ctr;
pub mod fixslice;
pub mod keccak;
#[cfg(target_arch = "x86_64")]
pub(crate) mod keccak_avx512;
pub mod mac;
pub mod prf;
pub mod sha3;
pub(crate) mod zeroize;

pub use aes::{Aes128, EngineKind, PARALLEL_BLOCKS};
pub use ctr::CtrKeystream;
pub use mac::{Mac, MacKey};
pub use prf::AesPrf;
pub use sha3::Sha3_224;
