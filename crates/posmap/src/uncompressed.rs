//! The baseline (uncompressed) PosMap block format: `X` raw leaf labels.
//!
//! This is the format used by Recursive ORAM before the paper's compression
//! technique (§3.2): a PosMap block for addresses `{a, …, a+X-1}` simply
//! stores their current leaves.  Leaves are serialised as 32-bit words, which
//! comfortably holds the ≤ 32 tree levels of every configuration in the
//! paper.

/// Bytes used to serialise one leaf entry.
pub const LEAF_ENTRY_BYTES: usize = 4;

/// A PosMap block holding `X` uncompressed leaf labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UncompressedPosMapBlock {
    leaves: Vec<u64>,
}

impl UncompressedPosMapBlock {
    /// Creates a block of `x` entries, all initialised to leaf 0.
    pub fn new(x: usize) -> Self {
        Self { leaves: vec![0; x] }
    }

    /// Number of entries (X).
    pub fn x(&self) -> usize {
        self.leaves.len()
    }

    /// Maximum X representable in a block of `block_bytes` bytes.
    pub fn max_x_for_block(block_bytes: usize) -> usize {
        block_bytes / LEAF_ENTRY_BYTES
    }

    /// Returns the leaf stored for entry `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= x`.
    pub fn leaf(&self, index: usize) -> u64 {
        self.leaves[index]
    }

    /// Sets the leaf for entry `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= x`.
    pub fn set_leaf(&mut self, index: usize, leaf: u64) {
        self.leaves[index] = leaf;
    }

    /// Serialises the block into exactly `block_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the entries do not fit in `block_bytes`.
    pub fn to_bytes(&self, block_bytes: usize) -> Vec<u8> {
        let mut out = Vec::new();
        self.to_bytes_into(block_bytes, &mut out);
        out
    }

    /// [`Self::to_bytes`] into `out` (replacing its contents), reusing its
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if the entries do not fit in `block_bytes`.
    pub fn to_bytes_into(&self, block_bytes: usize, out: &mut Vec<u8>) {
        assert!(
            self.leaves.len() * LEAF_ENTRY_BYTES <= block_bytes,
            "X = {} entries do not fit in a {}-byte block",
            self.leaves.len(),
            block_bytes
        );
        out.clear();
        out.resize(block_bytes, 0);
        for (i, leaf) in self.leaves.iter().enumerate() {
            let leaf = u32::try_from(*leaf).expect("leaf exceeds the 4-byte PosMap entry");
            out[i * LEAF_ENTRY_BYTES..(i + 1) * LEAF_ENTRY_BYTES]
                .copy_from_slice(&leaf.to_le_bytes());
        }
    }

    /// Parses a block serialised by [`Self::to_bytes`] with `x` entries.
    ///
    /// # Panics
    ///
    /// Panics if the byte slice is too short for `x` entries.
    pub fn from_bytes(bytes: &[u8], x: usize) -> Self {
        assert!(bytes.len() >= x * LEAF_ENTRY_BYTES, "block too short");
        let leaves = (0..x)
            .map(|i| {
                u64::from(u32::from_le_bytes(
                    bytes[i * LEAF_ENTRY_BYTES..(i + 1) * LEAF_ENTRY_BYTES]
                        .try_into()
                        .expect("4-byte entry"),
                ))
            })
            .collect();
        Self { leaves }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_bytes() {
        let mut block = UncompressedPosMapBlock::new(8);
        for i in 0..8 {
            block.set_leaf(i, (i as u64) * 1000 + 7);
        }
        let bytes = block.to_bytes(64);
        assert_eq!(bytes.len(), 64);
        let parsed = UncompressedPosMapBlock::from_bytes(&bytes, 8);
        assert_eq!(parsed, block);
    }

    #[test]
    fn paper_x_for_64_byte_blocks() {
        // §5.3: the original representation achieves X = 16 for 64-byte
        // (512-bit) blocks with leaves of 17-32 bits.
        assert_eq!(UncompressedPosMapBlock::max_x_for_block(64), 16);
        assert_eq!(UncompressedPosMapBlock::max_x_for_block(128), 32);
        // The 32-byte PosMap blocks of [26] hold X = 8 leaves.
        assert_eq!(UncompressedPosMapBlock::max_x_for_block(32), 8);
    }

    #[test]
    fn new_block_maps_everything_to_leaf_zero() {
        let block = UncompressedPosMapBlock::new(4);
        assert!((0..4).all(|i| block.leaf(i) == 0));
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn to_bytes_rejects_undersized_block() {
        let block = UncompressedPosMapBlock::new(32);
        let _ = block.to_bytes(64);
    }
}
