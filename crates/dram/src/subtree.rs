//! The subtree ORAM-tree layout of Ren et al. \[26\].
//!
//! A naive level-order layout of the ORAM tree scatters the buckets of a path
//! across DRAM rows, so every bucket read is a row miss.  The subtree layout
//! groups each `k`-level subtree contiguously: a path of `L+1` buckets then
//! touches only `⌈(L+1)/k⌉` distinct regions, and the buckets inside each
//! region stream at row-buffer-hit bandwidth.  The paper relies on this layout
//! to reach "nearly peak DRAM bandwidth" (§7.1.1).

/// Maps ORAM tree buckets `(level, index)` to physical byte addresses.
///
/// # Examples
///
/// ```
/// use dram_sim::SubtreeLayout;
///
/// // A 21-level tree (L = 20) of 320-byte buckets, grouped 4 levels/subtree.
/// let layout = SubtreeLayout::new(21, 320, 4, 0);
/// let a = layout.bucket_address(0, 0);
/// let b = layout.bucket_address(1, 1);
/// assert_ne!(a, b);
/// assert!(layout.total_bytes() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SubtreeLayout {
    /// Total number of tree levels (`L + 1`).
    levels: u32,
    /// Size of one bucket in bytes (already padded to the DRAM burst multiple).
    bucket_bytes: u64,
    /// Levels per subtree (`k`).
    subtree_levels: u32,
    /// Base physical address of the ORAM region.
    base: u64,
    /// Per level-group: (first level, levels in group, buckets per subtree,
    /// number of subtrees, starting bucket offset of the group).
    groups: Vec<GroupLayout>,
}

#[derive(Debug, Clone)]
struct GroupLayout {
    first_level: u32,
    /// Levels in this group; kept for layout debugging even though address
    /// arithmetic only needs `first_level` and the counts below.
    #[allow(dead_code)]
    levels: u32,
    buckets_per_subtree: u64,
    subtree_count: u64,
    bucket_offset: u64,
}

impl SubtreeLayout {
    /// Builds a layout for a tree with `levels` levels of `bucket_bytes`-byte
    /// buckets, grouping `subtree_levels` levels per subtree, placed at
    /// physical address `base`.
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0`, `subtree_levels == 0`, or `bucket_bytes == 0`.
    pub fn new(levels: u32, bucket_bytes: u64, subtree_levels: u32, base: u64) -> Self {
        assert!(levels > 0, "tree must have at least one level");
        assert!(subtree_levels > 0, "subtrees must have at least one level");
        assert!(bucket_bytes > 0, "buckets must be non-empty");
        let mut groups = Vec::new();
        let mut first_level = 0u32;
        let mut bucket_offset = 0u64;
        while first_level < levels {
            let group_levels = subtree_levels.min(levels - first_level);
            let buckets_per_subtree = (1u64 << group_levels) - 1;
            let subtree_count = 1u64 << first_level;
            groups.push(GroupLayout {
                first_level,
                levels: group_levels,
                buckets_per_subtree,
                subtree_count,
                bucket_offset,
            });
            bucket_offset += buckets_per_subtree * subtree_count;
            first_level += group_levels;
        }
        Self {
            levels,
            bucket_bytes,
            subtree_levels,
            base,
            groups,
        }
    }

    /// Total number of tree levels.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Levels per subtree.
    pub fn subtree_levels(&self) -> u32 {
        self.subtree_levels
    }

    /// Total bytes occupied by the tree under this layout.
    pub fn total_bytes(&self) -> u64 {
        let last = self.groups.last().expect("at least one group");
        (last.bucket_offset + last.buckets_per_subtree * last.subtree_count) * self.bucket_bytes
    }

    /// Physical byte address of the bucket at `(level, index_in_level)`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= levels` or `index_in_level >= 2^level`.
    pub fn bucket_address(&self, level: u32, index_in_level: u64) -> u64 {
        assert!(level < self.levels, "level {level} out of range");
        assert!(
            index_in_level < (1u64 << level),
            "bucket index {index_in_level} out of range for level {level}"
        );
        let group = self
            .groups
            .iter()
            .rev()
            .find(|g| g.first_level <= level)
            .expect("level is covered by some group");
        let local_level = level - group.first_level;
        // Ancestor of this bucket at the group's first level identifies which
        // subtree it belongs to.
        let subtree_index = index_in_level >> local_level;
        let local_index = index_in_level & ((1u64 << local_level) - 1);
        let offset_in_subtree = ((1u64 << local_level) - 1) + local_index;
        let bucket_linear =
            group.bucket_offset + subtree_index * group.buckets_per_subtree + offset_in_subtree;
        self.base + bucket_linear * self.bucket_bytes
    }

    /// The physical addresses of every bucket on the path to `leaf`, root
    /// first.  `leaf` must be in `[0, 2^(levels-1))`.
    pub fn path_addresses(&self, leaf: u64) -> Vec<u64> {
        (0..self.levels)
            .map(|level| {
                let index = leaf >> (self.levels - 1 - level);
                self.bucket_address(level, index)
            })
            .collect()
    }

    /// Physical byte address of the bucket with linear heap-order index
    /// `linear` (root is 0, the bucket at `(level, i)` is `2^level - 1 + i`)
    /// — the indexing convention of the Path ORAM backend, whose file-backed
    /// tree store lays buckets out with this layout.
    ///
    /// # Panics
    ///
    /// Panics if `linear` is outside the tree.
    pub fn linear_bucket_address(&self, linear: u64) -> u64 {
        let level = 63 - (linear + 1).leading_zeros();
        let index_in_level = linear + 1 - (1u64 << level);
        self.bucket_address(level, index_in_level)
    }

    /// A naive level-order layout of the same tree, for ablation comparisons:
    /// bucket `(level, index)` is simply placed at `base + (2^level - 1 +
    /// index) * bucket_bytes`.
    pub fn naive_bucket_address(&self, level: u32, index_in_level: u64) -> u64 {
        assert!(level < self.levels);
        self.base + (((1u64 << level) - 1) + index_in_level) * self.bucket_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_bucket_addresses_are_distinct_and_aligned() {
        let layout = SubtreeLayout::new(10, 320, 4, 0);
        let mut seen = HashSet::new();
        for level in 0..10u32 {
            for idx in 0..(1u64 << level) {
                let addr = layout.bucket_address(level, idx);
                assert_eq!(addr % 320, 0);
                assert!(seen.insert(addr), "duplicate address {addr}");
                assert!(addr < layout.total_bytes());
            }
        }
        assert_eq!(seen.len(), (1 << 10) - 1);
    }

    #[test]
    fn total_bytes_equals_bucket_count_times_size() {
        for levels in [1u32, 3, 7, 13] {
            let layout = SubtreeLayout::new(levels, 64, 4, 0);
            assert_eq!(layout.total_bytes(), ((1u64 << levels) - 1) * 64);
        }
    }

    #[test]
    fn path_has_one_bucket_per_level_and_is_ancestor_consistent() {
        let layout = SubtreeLayout::new(12, 320, 4, 0);
        let path = layout.path_addresses(1234 & ((1 << 11) - 1));
        assert_eq!(path.len(), 12);
        // Root is always bucket (0,0).
        assert_eq!(path[0], layout.bucket_address(0, 0));
    }

    #[test]
    fn subtree_layout_is_contiguous_within_a_subtree() {
        // With k = 4 the top 4 levels (15 buckets) must occupy one contiguous
        // region starting at base.
        let layout = SubtreeLayout::new(12, 100, 4, 0);
        let mut addrs = Vec::new();
        for level in 0..4u32 {
            for idx in 0..(1u64 << level) {
                addrs.push(layout.bucket_address(level, idx));
            }
        }
        addrs.sort_unstable();
        for (i, a) in addrs.iter().enumerate() {
            assert_eq!(*a, i as u64 * 100);
        }
    }

    #[test]
    fn path_touches_few_regions_under_subtree_layout() {
        // Count how many distinct 8 KiB rows a path touches under the subtree
        // layout vs the naive layout; the subtree layout must touch no more.
        let levels = 21u32;
        let bucket = 320u64;
        let layout = SubtreeLayout::new(levels, bucket, 5, 0);
        let row = 8192u64;
        let leaf = 0b1010_1010_1010_1010_1010u64 & ((1 << (levels - 1)) - 1);
        let subtree_rows: HashSet<u64> = layout
            .path_addresses(leaf)
            .iter()
            .map(|a| a / row)
            .collect();
        let naive_rows: HashSet<u64> = (0..levels)
            .map(|level| {
                let idx = leaf >> (levels - 1 - level);
                layout.naive_bucket_address(level, idx) / row
            })
            .collect();
        assert!(subtree_rows.len() <= naive_rows.len());
        // Each of the ceil(levels/k) subtrees on the path spans at most
        // ceil(subtree_bytes/row)+1 rows.
        let subtree_bytes = ((1u64 << 5) - 1) * bucket;
        let rows_per_subtree = subtree_bytes.div_ceil(row) + 1;
        assert!(subtree_rows.len() as u64 <= u64::from(levels.div_ceil(5)) * rows_per_subtree);
    }

    #[test]
    fn base_offset_shifts_all_addresses() {
        let a = SubtreeLayout::new(8, 64, 3, 0);
        let b = SubtreeLayout::new(8, 64, 3, 1 << 20);
        assert_eq!(b.bucket_address(3, 5) - a.bucket_address(3, 5), 1 << 20);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_bucket_index() {
        let layout = SubtreeLayout::new(4, 64, 2, 0);
        let _ = layout.bucket_address(2, 4);
    }

    // ------------------------------------------------------------------
    // Property tests: the invariants the file-backed ORAM tree store now
    // depends on.  Seeded loops over many geometries, no external crates.
    // ------------------------------------------------------------------

    /// Seeded xorshift so the geometry sweep is deterministic.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    #[test]
    fn property_bucket_to_offset_is_a_bijection_within_bounds() {
        // For every (levels, k, bucket_bytes) sampled, the linear-index
        // mapping must hit each multiple of bucket_bytes in
        // [0, total_bytes) exactly once: no collisions, no holes, in bounds.
        let mut seed = 0x5EED_1A70_A11C_E001u64;
        for _ in 0..40 {
            let levels = 1 + (xorshift(&mut seed) % 14) as u32;
            let k = 1 + (xorshift(&mut seed) % 6) as u32;
            let bucket = 16 * (1 + xorshift(&mut seed) % 40);
            let layout = SubtreeLayout::new(levels, bucket, k, 0);
            let num_buckets = (1u64 << levels) - 1;
            assert_eq!(layout.total_bytes(), num_buckets * bucket);
            let mut seen = HashSet::new();
            for linear in 0..num_buckets {
                let addr = layout.linear_bucket_address(linear);
                assert!(
                    addr < layout.total_bytes(),
                    "L={levels} k={k} b={bucket}: address {addr} out of bounds"
                );
                assert_eq!(addr % bucket, 0, "address must be bucket-aligned");
                assert!(
                    seen.insert(addr),
                    "L={levels} k={k} b={bucket}: duplicate address {addr}"
                );
            }
            // num_buckets distinct aligned in-bounds addresses over a space
            // of exactly num_buckets slots: the mapping is onto as well.
            assert_eq!(seen.len() as u64, num_buckets);
        }
    }

    #[test]
    fn property_linear_address_agrees_with_coordinate_address() {
        let layout = SubtreeLayout::new(11, 96, 3, 1 << 16);
        for level in 0..11u32 {
            for idx in 0..(1u64 << level) {
                let linear = ((1u64 << level) - 1) + idx;
                assert_eq!(
                    layout.linear_bucket_address(linear),
                    layout.bucket_address(level, idx)
                );
            }
        }
    }

    #[test]
    fn property_path_touches_at_most_ceil_levels_over_k_contiguous_extents() {
        // Sort a path's bucket addresses and count maximal runs separated by
        // more than one subtree span: each k-level subtree on the path is one
        // contiguous region of at most (2^k - 1) buckets, so a root-to-leaf
        // path must fall into at most ceil(levels / k) such extents.
        let mut seed = 0xD15C_0F5E_7B1A_0001u64;
        for _ in 0..30 {
            let levels = 2 + (xorshift(&mut seed) % 16) as u32;
            let k = 1 + (xorshift(&mut seed) % 6) as u32;
            let bucket = 64u64;
            let layout = SubtreeLayout::new(levels, bucket, k, 0);
            let subtree_span = ((1u64 << k.min(levels)) - 1) * bucket;
            for _ in 0..50 {
                let leaf = xorshift(&mut seed) & ((1u64 << (levels - 1)) - 1);
                let mut addrs = layout.path_addresses(leaf);
                addrs.sort_unstable();
                let mut extents = 1u64;
                for pair in addrs.windows(2) {
                    if pair[1] - pair[0] > subtree_span {
                        extents += 1;
                    }
                }
                let bound = u64::from(levels.div_ceil(k));
                assert!(
                    extents <= bound,
                    "L={levels} k={k} leaf={leaf}: {extents} extents exceeds ceil(levels/k)={bound}"
                );
            }
        }
    }
}
