//! Probabilistic bucket encryption.
//!
//! Every bucket in the ORAM tree is encrypted so that real and dummy blocks
//! are indistinguishable and rewritten buckets look fresh (§3.1).  The paper
//! discusses two seeding disciplines (§6.4):
//!
//! * [`EncryptionMode::PerBucketSeed`] — the scheme of Ren et al. \[26\]: each
//!   bucket stores a plaintext seed and is padded with
//!   `AES_K(BucketID || seed+1 || chunk)` when rewritten.  Under a *passive*
//!   adversary this is fine, but an *active* adversary can roll the plaintext
//!   seed back and force a one-time pad to be reused, leaking the XOR of two
//!   plaintexts.  Kept here to reproduce that attack.
//! * [`EncryptionMode::GlobalSeed`] — the paper's fix: a single monotonically
//!   increasing counter in the ORAM controller seeds every pad, so pads never
//!   repeat regardless of what the adversary does to memory.
//! * [`EncryptionMode::None`] — plaintext buckets, used only for large
//!   timing-oriented simulations where crypto adds nothing.

use crate::params::{OramParams, BUCKET_HEADER_BYTES};
use oram_crypto::ctr::{CtrKeystream, KeystreamSpan};
use oram_crypto::EngineKind;

/// Which bucket-encryption discipline the backend uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncryptionMode {
    /// No encryption (timing studies only).
    None,
    /// Per-bucket seeds stored in the clear (\[26\]); vulnerable to pad replay
    /// under an active adversary (§6.4).
    PerBucketSeed,
    /// A single in-controller global seed; every rewrite uses a fresh pad.
    #[default]
    GlobalSeed,
}

/// Encrypts and decrypts serialised buckets according to an
/// [`EncryptionMode`].
///
/// The 8-byte seed field at the start of each bucket image is always stored
/// in the clear (it is the counter-mode nonce); the remainder of the image is
/// XORed with the keystream.
#[derive(Debug, Clone)]
pub struct BucketCipher {
    mode: EncryptionMode,
    keystream: CtrKeystream,
    /// Monotonic controller-side counter used in [`EncryptionMode::GlobalSeed`].
    global_seed: u64,
}

impl BucketCipher {
    /// Creates a cipher with the given mode and AES session key.
    pub fn new(mode: EncryptionMode, key: [u8; 16]) -> Self {
        Self {
            mode,
            keystream: CtrKeystream::new(key),
            global_seed: 1,
        }
    }

    /// The encryption mode in use.
    pub fn mode(&self) -> EncryptionMode {
        self.mode
    }

    /// Current value of the controller's global seed counter.
    pub fn global_seed(&self) -> u64 {
        self.global_seed
    }

    /// Restores the controller's global seed counter from a snapshot.  The
    /// counter must never move backwards across a persist/resume cycle —
    /// pad freshness under [`EncryptionMode::GlobalSeed`] depends on it —
    /// so the only legitimate caller is the backend's resume path feeding
    /// back a value previously read from [`BucketCipher::global_seed`].
    pub fn set_global_seed(&mut self, seed: u64) {
        self.global_seed = seed;
    }

    /// The AES engine the keystream dispatches to (diagnostics/benchmarks).
    pub fn engine(&self) -> EngineKind {
        self.keystream.engine()
    }

    /// The seed a write-back must stamp into a bucket whose previous header
    /// held `old_seed` (0 for a never-written bucket): increments the
    /// per-bucket seed, draws and advances the global counter, or keeps the
    /// old value in plaintext mode.  This is the discipline half of
    /// [`BucketCipher::seal`]; the batched write-back path calls it per
    /// bucket and pads all buckets afterwards in one engine pass.
    pub fn writeback_seed(&mut self, old_seed: u64) -> u64 {
        match self.mode {
            EncryptionMode::None => old_seed,
            EncryptionMode::PerBucketSeed => old_seed.wrapping_add(1),
            EncryptionMode::GlobalSeed => {
                let seed = self.global_seed;
                self.global_seed = self.global_seed.wrapping_add(1);
                seed
            }
        }
    }

    /// Queues the keystream span for one bucket image that starts at byte
    /// `offset` of a larger buffer, with `seed` already stamped in (or read
    /// from) its header.  The 8-byte header itself is stored in the clear
    /// and excluded from the span.  No-op in plaintext mode.
    ///
    /// Spans queued for several buckets are paid off by a single
    /// [`BucketCipher::apply_spans`] call — the batched engine pass that
    /// seals or unseals a whole ORAM path per direction.
    pub fn push_span(
        &self,
        spans: &mut Vec<KeystreamSpan>,
        bucket_index: u64,
        seed: u64,
        offset: usize,
        params: &OramParams,
    ) {
        let Some(pad_seed) = self.pad_seed_for(bucket_index, seed) else {
            return;
        };
        spans.push(KeystreamSpan {
            seed: pad_seed,
            start: offset + BUCKET_HEADER_BYTES,
            len: params.bucket_sealed_bytes(),
        });
    }

    /// Pad seed for a bucket under the current discipline, or `None` in
    /// plaintext mode.  The single source of truth shared by the scalar
    /// ([`BucketCipher::seal`]/[`BucketCipher::open`]) and batched
    /// ([`BucketCipher::push_span`]) paths.
    fn pad_seed_for(&self, bucket_index: u64, seed: u64) -> Option<u128> {
        match self.mode {
            EncryptionMode::None => None,
            EncryptionMode::PerBucketSeed => Some(pad_seed_per_bucket(bucket_index, seed)),
            EncryptionMode::GlobalSeed => Some(pad_seed_global(seed)),
        }
    }

    /// XORs the pads for every queued span into `data` in one batched engine
    /// pass.  XOR is an involution, so the same call seals plaintext images
    /// and opens ciphertext images; which one it is depends only on what the
    /// caller queued.
    pub fn apply_spans(&self, spans: &[KeystreamSpan], data: &mut [u8]) {
        self.keystream.apply_batch(spans, data);
    }

    /// Encrypts a plaintext bucket image in place for writing to untrusted
    /// memory.  `bucket_index` is the bucket's linear index (the `BucketID`
    /// of §6.4); the plaintext image's first 8 bytes are overwritten with the
    /// seed chosen by the discipline.
    pub fn seal(&mut self, bucket_index: u64, image: &mut [u8]) {
        if self.mode == EncryptionMode::None {
            return;
        }
        let old_seed = u64::from_le_bytes(image[..8].try_into().expect("seed header"));
        let seed = self.writeback_seed(old_seed);
        image[..8].copy_from_slice(&seed.to_le_bytes());
        let pad_seed = self
            .pad_seed_for(bucket_index, seed)
            .expect("encrypted mode");
        self.keystream.apply(pad_seed, &mut image[8..]);
    }

    /// Decrypts an encrypted bucket image read from untrusted memory in
    /// place.
    pub fn open(&self, bucket_index: u64, image: &mut [u8]) {
        if image.len() < 8 {
            return;
        }
        let seed = u64::from_le_bytes(image[..8].try_into().expect("seed header"));
        if let Some(pad_seed) = self.pad_seed_for(bucket_index, seed) {
            self.keystream.apply(pad_seed, &mut image[8..]);
        }
    }
}

/// Pad seed for the per-bucket-seed discipline: `BucketID || BucketSeed`.
fn pad_seed_per_bucket(bucket_index: u64, bucket_seed: u64) -> u128 {
    (u128::from(bucket_index) << 64) | u128::from(bucket_seed)
}

/// Pad seed for the global-seed discipline: just the global counter (the
/// bucket identity is irrelevant because the counter never repeats).
fn pad_seed_global(global_seed: u64) -> u128 {
    u128::from(global_seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> OramParams {
        OramParams::new(256, 32, 4)
    }

    #[test]
    fn seal_open_roundtrip_all_modes() {
        let p = params();
        for mode in [
            EncryptionMode::None,
            EncryptionMode::PerBucketSeed,
            EncryptionMode::GlobalSeed,
        ] {
            let mut cipher = BucketCipher::new(mode, [1u8; 16]);
            let mut image = vec![0u8; p.bucket_bytes()];
            image[100] = 0x5A;
            let original_payload = image[8..].to_vec();
            cipher.seal(7, &mut image);
            let mut opened = image.clone();
            cipher.open(7, &mut opened);
            assert_eq!(&opened[8..], &original_payload[..], "mode {mode:?}");
        }
    }

    #[test]
    fn encrypted_modes_actually_hide_payload() {
        let p = params();
        for mode in [EncryptionMode::PerBucketSeed, EncryptionMode::GlobalSeed] {
            let mut cipher = BucketCipher::new(mode, [1u8; 16]);
            let mut image = vec![0u8; p.bucket_bytes()];
            cipher.seal(0, &mut image);
            assert!(
                image[8..].iter().any(|&b| b != 0),
                "ciphertext should not be all zero for {mode:?}"
            );
        }
    }

    #[test]
    fn batched_spans_match_per_bucket_seal_and_open() {
        // A synthetic 5-bucket "path" in one buffer: sealing via
        // writeback_seed + push_span + one apply_spans pass must produce the
        // same ciphertext as per-bucket seal(); opening via spans must
        // restore the plaintext.
        let p = params();
        let bucket_bytes = p.bucket_bytes();
        for mode in [EncryptionMode::PerBucketSeed, EncryptionMode::GlobalSeed] {
            let mut scalar_cipher = BucketCipher::new(mode, [1u8; 16]);
            let mut batch_cipher = BucketCipher::new(mode, [1u8; 16]);
            let plain: Vec<u8> = (0..5 * bucket_bytes).map(|i| (i % 251) as u8).collect();

            // Scalar: seal each bucket individually.
            let mut scalar = plain.clone();
            for b in 0..5u64 {
                let image = &mut scalar[b as usize * bucket_bytes..(b as usize + 1) * bucket_bytes];
                image[..8].copy_from_slice(&(10 * b).to_le_bytes());
                scalar_cipher.seal(b, image);
            }

            // Batched: stamp headers, queue spans, one engine pass.
            let mut batched = plain.clone();
            let mut spans = Vec::new();
            for b in 0..5u64 {
                let offset = b as usize * bucket_bytes;
                let seed = batch_cipher.writeback_seed(10 * b);
                batched[offset..offset + 8].copy_from_slice(&seed.to_le_bytes());
                batch_cipher.push_span(&mut spans, b, seed, offset, &p);
            }
            batch_cipher.apply_spans(&spans, &mut batched);
            assert_eq!(batched, scalar, "mode {mode:?}");

            // Open batched: read seeds back out of the headers.
            let mut spans = Vec::new();
            for b in 0..5u64 {
                let offset = b as usize * bucket_bytes;
                let seed = u64::from_le_bytes(batched[offset..offset + 8].try_into().unwrap());
                batch_cipher.push_span(&mut spans, b, seed, offset, &p);
            }
            batch_cipher.apply_spans(&spans, &mut batched);
            // Payloads restored; headers hold the stamped seeds.
            for b in 0..5usize {
                assert_eq!(
                    &batched[b * bucket_bytes + 8..(b + 1) * bucket_bytes],
                    &plain[b * bucket_bytes + 8..(b + 1) * bucket_bytes],
                    "mode {mode:?}, bucket {b}"
                );
            }
        }
    }

    #[test]
    fn push_span_is_noop_in_plaintext_mode() {
        let cipher = BucketCipher::new(EncryptionMode::None, [1u8; 16]);
        let mut spans = Vec::new();
        cipher.push_span(&mut spans, 0, 0, 0, &params());
        assert!(spans.is_empty());
        let mut data = vec![7u8; 320];
        cipher.apply_spans(&spans, &mut data);
        assert!(data.iter().all(|&b| b == 7));
    }

    #[test]
    fn writeback_seed_follows_the_discipline() {
        let mut global = BucketCipher::new(EncryptionMode::GlobalSeed, [1u8; 16]);
        let first = global.global_seed();
        assert_eq!(global.writeback_seed(999), first);
        assert_eq!(global.writeback_seed(999), first + 1);

        let mut per_bucket = BucketCipher::new(EncryptionMode::PerBucketSeed, [1u8; 16]);
        assert_eq!(per_bucket.writeback_seed(41), 42);

        let mut plaintext = BucketCipher::new(EncryptionMode::None, [1u8; 16]);
        assert_eq!(plaintext.writeback_seed(41), 41);
    }

    #[test]
    fn global_seed_increments_on_every_seal() {
        let p = params();
        let mut cipher = BucketCipher::new(EncryptionMode::GlobalSeed, [1u8; 16]);
        let s0 = cipher.global_seed();
        let mut a = vec![0u8; p.bucket_bytes()];
        let mut b = vec![0u8; p.bucket_bytes()];
        cipher.seal(0, &mut a);
        cipher.seal(0, &mut b);
        assert_eq!(cipher.global_seed(), s0 + 2);
        // The two ciphertexts of identical plaintext differ (probabilistic
        // encryption).
        assert_ne!(a, b);
    }

    #[test]
    fn per_bucket_seed_reuses_pad_if_seed_rolled_back() {
        // Reproduces the §6.4 vulnerability precondition: with the seed field
        // rolled back, sealing twice produces the same pad.
        let p = params();
        let mut cipher = BucketCipher::new(EncryptionMode::PerBucketSeed, [1u8; 16]);
        let plaintext_a = {
            let mut v = vec![0u8; p.bucket_bytes()];
            v[50] = 0x11;
            v
        };
        let plaintext_b = {
            let mut v = vec![0u8; p.bucket_bytes()];
            v[50] = 0x2E;
            v
        };
        // Seal A with seed rolled to the same value twice.
        let mut ct_a = plaintext_a.clone();
        cipher.seal(3, &mut ct_a); // seed becomes 1
        let mut ct_b = plaintext_b.clone();
        // Adversary rolled the seed back to 0, so sealing uses seed 1 again.
        ct_b[..8].copy_from_slice(&0u64.to_le_bytes());
        cipher.seal(3, &mut ct_b);
        // Same pad: XOR of ciphertexts equals XOR of plaintexts.
        assert_eq!(ct_a[50] ^ ct_b[50], plaintext_a[50] ^ plaintext_b[50]);
    }

    #[test]
    fn global_seed_mode_immune_to_seed_rollback() {
        let p = params();
        let mut cipher = BucketCipher::new(EncryptionMode::GlobalSeed, [1u8; 16]);
        let mut ct_a = vec![0u8; p.bucket_bytes()];
        ct_a[50] = 0x11;
        cipher.seal(3, &mut ct_a);
        let mut ct_b = vec![0u8; p.bucket_bytes()];
        ct_b[50] = 0x2E;
        // Adversary cannot influence the controller-internal counter, so the
        // pad is fresh no matter what the header said before sealing.
        ct_b[..8].copy_from_slice(&0u64.to_le_bytes());
        cipher.seal(3, &mut ct_b);
        assert_ne!(ct_a[50] ^ ct_b[50], 0x11 ^ 0x2E);
    }
}
