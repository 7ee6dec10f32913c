//! ORAM tree geometry and bucket layout parameters.

/// Default stash capacity in blocks, following the paper (§3.1, "we assume
/// 200 following \[26\]").  The capacity excludes the path being processed.
pub const DEFAULT_STASH_CAPACITY: usize = 200;

/// Per-slot metadata bytes in a serialised bucket: 1 valid byte + 8 address
/// bytes + 4 leaf bytes.  The address field is a full `u64` because unified
/// `i‖a_i` addresses carry the recursion-level tag in bits 56+ and must
/// round-trip through the tree unchanged; the leaf field is 4 bytes, which
/// the [`OramParams::MAX_LEAF_LEVEL`] bound makes sufficient.  Real hardware
/// packs ~51 bits; with bucket padding this encoding still lands on the
/// paper's 320-byte bucket for Z = 4, 64-byte blocks.
pub const SLOT_META_BYTES: usize = 13;

/// Per-bucket header bytes: the 8-byte encryption seed stored in the clear.
pub const BUCKET_HEADER_BYTES: usize = 8;

/// Geometry of one Path ORAM tree.
///
/// # Examples
///
/// ```
/// use path_oram::OramParams;
///
/// // 4 GB of 64-byte blocks: N = 2^26, Z = 4.
/// let p = OramParams::new(1 << 26, 64, 4);
/// assert_eq!(p.leaf_level(), 24);
/// assert_eq!(p.bucket_bytes(), 320);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OramParams {
    /// Maximum number of real data blocks (N).
    pub num_blocks: u64,
    /// Payload bytes per block (B), including any MAC appended by the
    /// frontend.
    pub block_bytes: usize,
    /// Block slots per bucket (Z).
    pub z: usize,
    /// Leaf level L; the tree has `L + 1` levels and `2^L` leaves.
    pub leaf_level: u32,
    /// Stash capacity in blocks (excluding the in-flight path).
    pub stash_capacity: usize,
    /// Granularity to which serialised buckets are padded (512 bits = 64
    /// bytes by default, matching the paper's DDR3 estimate in Figure 3).
    pub bucket_align: usize,
}

impl OramParams {
    /// Largest supported leaf level.  Leaf labels are stored in a 4-byte
    /// field of the serialised slot metadata (see [`SLOT_META_BYTES`]), so
    /// `L ≤ 32` guarantees every leaf in `[0, 2^L)` fits the on-disk
    /// encoding.  L = 32 with 64-byte blocks is a 1 TB ORAM, the largest
    /// capacity the evaluation sweeps (Figure 3's 2^40-byte point).
    pub const MAX_LEAF_LEVEL: u32 = 32;

    /// Creates parameters for `num_blocks` blocks of `block_bytes` bytes with
    /// `z` slots per bucket.
    ///
    /// The number of levels is chosen so that the tree provides at least
    /// `2 × num_blocks` slots (≈50% utilisation, §7.1.1): the smallest `L`
    /// with `Z · 2^(L+1) ≥ 2N`.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero, or if the resulting leaf level would
    /// exceed [`OramParams::MAX_LEAF_LEVEL`] (check with
    /// [`OramParams::leaf_level_for`] first to reject such a size instead).
    pub fn new(num_blocks: u64, block_bytes: usize, z: usize) -> Self {
        assert!(num_blocks > 0, "ORAM must hold at least one block");
        assert!(block_bytes > 0, "blocks must be non-empty");
        assert!(z > 0, "buckets must have at least one slot");
        let leaf_level = Self::leaf_level_for(num_blocks, z).unwrap_or_else(|| {
            panic!(
                "{num_blocks} blocks need a leaf level above the supported maximum {}",
                Self::MAX_LEAF_LEVEL
            )
        });
        Self {
            num_blocks,
            block_bytes,
            z,
            leaf_level,
            stash_capacity: DEFAULT_STASH_CAPACITY,
            bucket_align: 64,
        }
    }

    /// The leaf level [`OramParams::new`] picks for `num_blocks` blocks in
    /// buckets of `z` slots — the smallest `L` with `Z · 2^(L+1) ≥ 2N` — or
    /// `None` when no `L ≤ MAX_LEAF_LEVEL` suffices.  The arithmetic is
    /// widened, so every `u64` block count gets an answer.
    pub fn leaf_level_for(num_blocks: u64, z: usize) -> Option<u32> {
        let needed_slots = 2 * u128::from(num_blocks);
        (0..=Self::MAX_LEAF_LEVEL).find(|&level| (z as u128) << (level + 1) >= needed_slots)
    }

    /// Overrides the leaf level (for experiments that fix L explicitly, e.g.
    /// the Phantom comparison with L = 19).
    ///
    /// # Panics
    ///
    /// Panics if `leaf_level` exceeds [`OramParams::MAX_LEAF_LEVEL`].
    pub fn with_leaf_level(mut self, leaf_level: u32) -> Self {
        assert!(
            leaf_level <= Self::MAX_LEAF_LEVEL,
            "leaf level {leaf_level} exceeds the supported maximum {}",
            Self::MAX_LEAF_LEVEL
        );
        self.leaf_level = leaf_level;
        self
    }

    /// Overrides the stash capacity.
    pub fn with_stash_capacity(mut self, capacity: usize) -> Self {
        self.stash_capacity = capacity;
        self
    }

    /// Overrides the bucket padding granularity.
    pub fn with_bucket_align(mut self, align: usize) -> Self {
        assert!(align > 0);
        self.bucket_align = align;
        self
    }

    /// Leaf level L.
    pub fn leaf_level(&self) -> u32 {
        self.leaf_level
    }

    /// Total number of tree levels (`L + 1`).
    pub fn levels(&self) -> u32 {
        self.leaf_level + 1
    }

    /// Number of leaves (`2^L`).
    pub fn num_leaves(&self) -> u64 {
        1u64 << self.leaf_level
    }

    /// Number of buckets in the tree (`2^(L+1) - 1`).
    pub fn num_buckets(&self) -> u64 {
        (1u64 << (self.leaf_level + 1)) - 1
    }

    /// Serialised bucket size in bytes, padded to [`Self::bucket_align`].
    pub fn bucket_bytes(&self) -> usize {
        let raw = BUCKET_HEADER_BYTES + self.z * (SLOT_META_BYTES + self.block_bytes);
        raw.div_ceil(self.bucket_align) * self.bucket_align
    }

    /// Bytes of a serialised bucket image covered by the keystream: all of
    /// it except the plaintext 8-byte seed header.  One path direction
    /// therefore moves `levels() * bucket_sealed_bytes()` bytes through the
    /// AES engine in one batched cipher pass.  Per bucket that is
    /// ⌈`bucket_sealed_bytes()` / 384⌉ 24-block groups under VAES, or
    /// ⌈`bucket_sealed_bytes()` / 128⌉ 8-block groups under AES-NI.
    pub fn bucket_sealed_bytes(&self) -> usize {
        self.bucket_bytes() - BUCKET_HEADER_BYTES
    }

    /// Byte offset of the slot-data region within a serialised bucket image
    /// (header plus all slot metadata); slot `s`'s payload starts at
    /// `bucket_data_base() + s * block_bytes`.  The single source of truth
    /// for the layout arithmetic shared by the bucket codec and the
    /// backend's path scratch.
    pub fn bucket_data_base(&self) -> usize {
        BUCKET_HEADER_BYTES + self.z * SLOT_META_BYTES
    }

    /// Bytes read (or written) for one path access: `(L+1)` buckets.
    pub fn path_bytes(&self) -> u64 {
        u64::from(self.levels()) * self.bucket_bytes() as u64
    }

    /// Bytes moved by one full ORAM access (path read + path write).
    pub fn access_bytes(&self) -> u64 {
        2 * self.path_bytes()
    }

    /// Total untrusted-memory footprint of the tree in bytes.
    pub fn tree_bytes(&self) -> u64 {
        self.num_buckets() * self.bucket_bytes() as u64
    }

    /// Logical data capacity (`N × B`) in bytes.
    pub fn data_capacity_bytes(&self) -> u64 {
        self.num_blocks * self.block_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_gig_oram_matches_paper_geometry() {
        // 4 GB of 64 B blocks (Table 1): N = 2^26, Z = 4.
        let p = OramParams::new(1 << 26, 64, 4);
        assert_eq!(p.leaf_level(), 24);
        assert_eq!(p.levels(), 25);
        assert_eq!(p.bucket_bytes(), 320);
        // Path read ≈ 8 KB, full access ≈ 16 KB (Figure 7's data portion).
        assert_eq!(p.path_bytes(), 25 * 320);
        assert_eq!(p.access_bytes(), 2 * 25 * 320);
        // 50% utilisation: the tree occupies ~2x the data capacity.
        let util = p.data_capacity_bytes() as f64 / p.tree_bytes() as f64;
        assert!(util > 0.3 && util < 0.75, "utilisation {util}");
    }

    #[test]
    fn slot_capacity_is_at_least_twice_block_count() {
        for n in [1u64, 2, 100, 1 << 10, 1 << 20, (1 << 20) + 1] {
            let p = OramParams::new(n, 64, 4);
            let slots = p.z as u64 * (p.num_buckets() + 1);
            assert!(slots >= 2 * n, "N={n}: slots={slots}");
        }
    }

    #[test]
    fn bucket_bytes_respects_alignment() {
        let p = OramParams::new(1024, 64, 4);
        assert_eq!(p.bucket_bytes() % 64, 0);
        let tight = p.with_bucket_align(16);
        assert_eq!(tight.bucket_bytes() % 16, 0);
        assert!(tight.bucket_bytes() <= p.bucket_bytes());
    }

    #[test]
    fn phantom_parameterisation() {
        // Figure 9: 4 GB ORAM of 4 KB blocks, N = 2^20, L = 19, Z = 4.
        let p = OramParams::new(1 << 20, 4096, 4).with_leaf_level(19);
        assert_eq!(p.leaf_level(), 19);
        assert_eq!(p.levels(), 20);
        // Bucket ≈ 4 blocks of 4 KB.
        assert!(p.bucket_bytes() >= 4 * 4096);
        // Full access moves roughly (20 * 16.4 KB) * 2 ≈ 656 KB, i.e. ~40x the
        // 64 B design — the source of Figure 9's ~10x slowdown.
        assert!(p.access_bytes() > 600_000);
    }

    #[test]
    fn larger_capacity_adds_levels() {
        let a = OramParams::new(1 << 20, 64, 4);
        let b = OramParams::new(1 << 26, 64, 4);
        let c = OramParams::new(1 << 30, 64, 4);
        assert!(a.leaf_level() < b.leaf_level());
        assert!(b.leaf_level() < c.leaf_level());
        assert_eq!(c.leaf_level() - b.leaf_level(), 4);
    }

    #[test]
    fn leaf_level_for_bounds_the_tree_without_overflowing() {
        assert_eq!(OramParams::leaf_level_for(1 << 26, 4), Some(24));
        // The largest tree: 2^34 blocks of Z = 4 reach L = 32 exactly.
        assert_eq!(OramParams::leaf_level_for(1 << 34, 4), Some(32));
        assert_eq!(OramParams::leaf_level_for((1 << 34) + 1, 4), None);
        // 2N overflows u64 here; the answer is still a clean `None`.
        assert_eq!(OramParams::leaf_level_for((1 << 63) - 1, 1), None);
        assert_eq!(OramParams::leaf_level_for(u64::MAX, 4), None);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn rejects_zero_blocks() {
        let _ = OramParams::new(0, 64, 4);
    }
}
