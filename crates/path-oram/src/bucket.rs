//! Buckets: fixed-size containers of Z block slots plus an encryption seed.
//!
//! Any slot may be empty at any time; empty slots are filled with dummy
//! blocks so that, after encryption, real and dummy blocks are
//! indistinguishable (§3.1).
//!
//! The codec is zero-copy: [`BucketView`] parses a plaintext image into
//! borrowed slot views and [`BucketWriter`] serialises straight into a
//! caller-provided image (an arena slot of [`crate::TreeStorage`], or the
//! eviction staging buffer for file-backed stores).
//!
//! The codec produces and consumes **plaintext** images; encryption is a
//! separate, batchable XOR pass.  On the hot path the backend runs the codec
//! over every bucket of a path first — [`BucketWriter::begin`] stamps the
//! write-back seed chosen by
//! [`crate::encryption::BucketCipher::writeback_seed`], pushes the evicted
//! blocks, and [`BucketWriter::finish`] zeroes the dummy slots — and only
//! then seals *all* the finished images in a single batched keystream pass
//! ([`crate::encryption::BucketCipher::apply_spans`]); unsealing runs the
//! same pass before [`BucketView::parse`] sees any byte.  One engine call
//! per direction, instead of one cipher invocation per bucket.
//!
//! Layout: `[seed: 8B][slot 0 meta]…[slot Z-1 meta][slot 0 data]…[padding]`
//! where each slot meta is `[valid: 1B][addr: 8B][leaf: 4B]`.  The address
//! field is a full `u64` because unified `i‖a_i` addresses carry the
//! recursion-level tag in their high bits (bit 56 upward); an earlier 4-byte
//! encoding silently truncated those tags and corrupted the identity of any
//! PosMap block evicted into the tree.  Leaves are stored in 4 bytes, which
//! [`OramParams`] guarantees is wide enough (leaf level ≤ 32).

use crate::error::OramError;
use crate::params::{OramParams, BUCKET_HEADER_BYTES, SLOT_META_BYTES};
use crate::types::{BlockId, Leaf};

/// One occupied slot parsed out of a bucket image, borrowing its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotView<'a> {
    /// Slot index within the bucket (`0..Z`).
    pub slot: usize,
    /// Block address.
    pub addr: BlockId,
    /// Leaf the block is currently mapped to.
    pub leaf: Leaf,
    /// Block payload (exactly `block_bytes` long).
    pub data: &'a [u8],
}

/// A borrowed, validated view of a plaintext bucket image: the zero-copy
/// read codec.
#[derive(Debug, Clone, Copy)]
pub struct BucketView<'a> {
    bytes: &'a [u8],
    z: usize,
    block_bytes: usize,
}

// lint: ct-scope, no-alloc
impl<'a> BucketView<'a> {
    /// Validates and wraps a plaintext bucket image produced by
    /// [`BucketWriter`].
    ///
    /// # Errors
    ///
    /// Returns [`OramError::MalformedBucket`] if the image has the wrong
    /// length, any slot's valid byte is neither 0 nor 1, or an occupied
    /// slot's leaf is outside `[0, 2^L)` — any of which can only happen if
    /// untrusted memory was tampered with and decryption produced garbage.
    /// The leaf check keeps downstream path arithmetic
    /// ([`crate::tree::deepest_common_level`] and friends) panic-free under
    /// an active adversary.
    pub fn parse(
        bytes: &'a [u8],
        params: &OramParams,
        bucket_index: u64,
    ) -> Result<Self, OramError> {
        if bytes.len() != params.bucket_bytes() {
            return Err(OramError::MalformedBucket {
                bucket: bucket_index,
            });
        }
        let num_leaves = params.num_leaves();
        for slot in 0..params.z {
            let m = BUCKET_HEADER_BYTES + slot * SLOT_META_BYTES;
            match bytes[m] {
                0 => {}
                1 => {
                    let leaf = u32::from_le_bytes(bytes[m + 9..m + 13].try_into().unwrap());
                    // lint: allow(secret-branch, tamper detection on an untrusted field; a forged bucket aborts the access visibly)
                    if u64::from(leaf) >= num_leaves {
                        return Err(OramError::MalformedBucket {
                            bucket: bucket_index,
                        });
                    }
                }
                _ => {
                    return Err(OramError::MalformedBucket {
                        bucket: bucket_index,
                    });
                }
            }
        }
        Ok(Self {
            bytes,
            z: params.z,
            block_bytes: params.block_bytes,
        })
    }

    /// The bucket's plaintext seed header.
    pub fn seed(&self) -> u64 {
        u64::from_le_bytes(self.bytes[..8].try_into().expect("8-byte header"))
    }

    /// Iterates over the occupied slots as borrowed [`SlotView`]s.
    pub fn occupied(&self) -> impl Iterator<Item = SlotView<'a>> + '_ {
        let data_base = BUCKET_HEADER_BYTES + self.z * SLOT_META_BYTES;
        (0..self.z).filter_map(move |slot| {
            let m = BUCKET_HEADER_BYTES + slot * SLOT_META_BYTES;
            if self.bytes[m] == 0 {
                return None;
            }
            let addr = u64::from_le_bytes(self.bytes[m + 1..m + 9].try_into().unwrap());
            let leaf = u32::from_le_bytes(self.bytes[m + 9..m + 13].try_into().unwrap());
            let d = data_base + slot * self.block_bytes;
            Some(SlotView {
                slot,
                addr,
                leaf: Leaf::from(leaf),
                data: &self.bytes[d..d + self.block_bytes],
            })
        })
    }
}

/// Serialises blocks straight into a caller-provided plaintext image: the
/// zero-copy write codec.  The image is fully rewritten — empty slots carry
/// zero metadata and zero data, indistinguishable from real blocks after
/// encryption.
#[derive(Debug)]
pub struct BucketWriter<'a> {
    bytes: &'a mut [u8],
    z: usize,
    block_bytes: usize,
    next_slot: usize,
}

impl<'a> BucketWriter<'a> {
    /// Starts writing a bucket into `bytes`, zeroing the metadata region and
    /// padding and stamping the seed header.  Slot *data* regions are left
    /// untouched until [`BucketWriter::finish`] — pushed slots overwrite
    /// theirs in full, and `finish` zeroes the rest — so no byte of the
    /// image is written twice.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not exactly [`OramParams::bucket_bytes`] long.
    pub fn begin(bytes: &'a mut [u8], params: &OramParams, seed: u64) -> Self {
        assert_eq!(
            bytes.len(),
            params.bucket_bytes(),
            "bucket image must be exactly bucket_bytes long"
        );
        let data_end = BUCKET_HEADER_BYTES + params.z * (SLOT_META_BYTES + params.block_bytes);
        bytes[8..BUCKET_HEADER_BYTES + params.z * SLOT_META_BYTES].fill(0);
        bytes[data_end..].fill(0);
        bytes[..8].copy_from_slice(&seed.to_le_bytes());
        Self {
            bytes,
            z: params.z,
            block_bytes: params.block_bytes,
            next_slot: 0,
        }
    }

    /// Number of free slots remaining.
    pub fn free_slots(&self) -> usize {
        self.z - self.next_slot
    }

    /// Writes one block into the next free slot.
    ///
    /// # Panics
    ///
    /// Panics if the bucket is already full, the data length is wrong, or
    /// the leaf exceeds the 4-byte on-disk field (structurally impossible
    /// for leaves produced under [`OramParams`], which caps the leaf level
    /// at 32).
    pub fn push(&mut self, addr: BlockId, leaf: Leaf, data: &[u8]) {
        assert!(self.free_slots() > 0, "bucket overflow");
        assert_eq!(data.len(), self.block_bytes, "block size mismatch");
        let leaf = u32::try_from(leaf).expect("leaf exceeds the 4-byte slot field");
        let slot = self.next_slot;
        self.next_slot += 1;
        let m = BUCKET_HEADER_BYTES + slot * SLOT_META_BYTES;
        self.bytes[m] = 1;
        self.bytes[m + 1..m + 9].copy_from_slice(&addr.to_le_bytes());
        self.bytes[m + 9..m + 13].copy_from_slice(&leaf.to_le_bytes());
        let data_base = BUCKET_HEADER_BYTES + self.z * SLOT_META_BYTES;
        let d = data_base + slot * self.block_bytes;
        self.bytes[d..d + self.block_bytes].copy_from_slice(data);
    }

    /// Completes the image: zeroes the data regions of every slot that was
    /// not pushed, so dummy slots carry zero payload whatever the image
    /// held before.  Must be called before the image is sealed or stored.
    pub fn finish(self) {
        let data_base = BUCKET_HEADER_BYTES + self.z * SLOT_META_BYTES;
        self.bytes
            [data_base + self.next_slot * self.block_bytes..data_base + self.z * self.block_bytes]
            .fill(0);
    }
}
// lint: end

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> OramParams {
        OramParams::new(1 << 10, 64, 4)
    }

    /// `(addr, leaf, fill byte)` of one 64-byte block.
    type Block = (u64, u64, u8);

    /// Writes `blocks` into a fresh, zeroed image.
    fn image(p: &OramParams, seed: u64, blocks: &[Block]) -> Vec<u8> {
        let mut out = vec![0u8; p.bucket_bytes()];
        let mut writer = BucketWriter::begin(&mut out, p, seed);
        for &(addr, leaf, fill) in blocks {
            writer.push(addr, leaf, &[fill; 64]);
        }
        writer.finish();
        out
    }

    /// Parses an image back into `(seed, blocks)`, checking every payload
    /// byte of each slot carries that slot's fill.
    fn parsed(bytes: &[u8], p: &OramParams) -> (u64, Vec<Block>) {
        let view = BucketView::parse(bytes, p, 0).unwrap();
        let blocks = view
            .occupied()
            .map(|slot| {
                assert!(slot.data.iter().all(|&b| b == slot.data[0]));
                (slot.addr, slot.leaf, slot.data[0])
            })
            .collect();
        (view.seed(), blocks)
    }

    #[test]
    fn roundtrip_empty_and_partial_and_full() {
        let p = params();
        for count in 0..=4usize {
            let blocks: Vec<Block> = (0..count)
                .map(|i| (i as u64 + 10, i as u64, i as u8))
                .collect();
            let bytes = image(&p, 0xDEADBEEF, &blocks);
            assert_eq!(bytes.len(), p.bucket_bytes());
            assert_eq!(parsed(&bytes, &p), (0xDEADBEEF, blocks));
        }
    }

    #[test]
    fn level_tagged_addresses_survive_serialisation() {
        // Regression test for the u32 truncation bug: unified addresses tag
        // the recursion level into bit 56 upward, so the on-disk address
        // field must be a full u64.
        let p = params();
        let tagged = (3u64 << 56) | 12345;
        let bytes = image(&p, 0, &[(tagged, 7, 0x5A), (u64::MAX, 3, 0xA5)]);
        let (_, blocks) = parsed(&bytes, &p);
        assert_eq!(blocks[0].0, tagged);
        assert_eq!(blocks[1].0, u64::MAX);
    }

    #[test]
    fn view_borrows_slot_payloads_without_copying() {
        let p = params();
        let bytes = image(&p, 42, &[(9, 5, 0xEE)]);
        let view = BucketView::parse(&bytes, &p, 0).unwrap();
        assert_eq!(view.seed(), 42);
        let slots: Vec<_> = view.occupied().collect();
        assert_eq!(slots.len(), 1);
        assert_eq!(slots[0].addr, 9);
        assert_eq!(slots[0].leaf, 5);
        // The payload is a view into the serialised image itself.
        let offset = slots[0].data.as_ptr() as usize - bytes.as_ptr() as usize;
        assert_eq!(offset, BUCKET_HEADER_BYTES + p.z * SLOT_META_BYTES);
        assert!(slots[0].data.iter().all(|&b| b == 0xEE));
    }

    #[test]
    fn writer_overwrites_stale_image_contents() {
        let p = params();
        let mut stale = vec![0xFF; p.bucket_bytes()];
        let mut writer = BucketWriter::begin(&mut stale, &p, 1);
        writer.push(4, 2, &[0x11; 64]);
        writer.finish();
        assert_eq!(parsed(&stale, &p), (1, vec![(4, 2, 0x11)]));
        // Begin + finish together zeroed every stale byte outside the pushed
        // slot: the result is bit-identical to writing into a zeroed image.
        assert_eq!(stale, image(&p, 1, &[(4, 2, 0x11)]));
    }

    #[test]
    fn free_slots_counts_down() {
        let p = params();
        let mut bytes = vec![0u8; p.bucket_bytes()];
        let mut writer = BucketWriter::begin(&mut bytes, &p, 0);
        assert_eq!(writer.free_slots(), 4);
        writer.push(1, 1, &[1; 64]);
        assert_eq!(writer.free_slots(), 3);
    }

    #[test]
    #[should_panic(expected = "bucket overflow")]
    fn push_beyond_z_panics() {
        let p = params();
        image(
            &p,
            0,
            &[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 0)],
        );
    }

    #[test]
    fn deserialize_rejects_wrong_length() {
        let p = params();
        assert_eq!(
            BucketView::parse(&[0u8; 10], &p, 7).err(),
            Some(OramError::MalformedBucket { bucket: 7 })
        );
    }

    #[test]
    fn parse_rejects_out_of_range_leaf() {
        let p = params();
        let mut bytes = image(&p, 0, &[(1, 0, 0)]);
        // Overwrite slot 0's leaf field with a value ≥ num_leaves.
        let m = BUCKET_HEADER_BYTES;
        bytes[m + 9..m + 13].copy_from_slice(&(p.num_leaves() as u32).to_le_bytes());
        assert_eq!(
            BucketView::parse(&bytes, &p, 5).err(),
            Some(OramError::MalformedBucket { bucket: 5 })
        );
    }

    #[test]
    fn deserialize_rejects_garbage_valid_byte() {
        let p = params();
        let mut bytes = image(&p, 0, &[]);
        bytes[BUCKET_HEADER_BYTES] = 0x7F;
        assert_eq!(
            BucketView::parse(&bytes, &p, 3).err(),
            Some(OramError::MalformedBucket { bucket: 3 })
        );
    }
}
