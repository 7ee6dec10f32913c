//! Core value types shared across the ORAM backend and frontends.

/// A program-visible block address (the unit requested by the LLC, e.g. a
/// cache line address).  PosMap blocks live in the same address space with a
/// level tag folded into the high bits (see `posmap::addressing`).
pub type BlockId = u64;

/// A leaf label in `[0, 2^L)` identifying a root-to-leaf path of the ORAM
/// tree.
pub type Leaf = u64;

/// The payload of one ORAM block (fixed length, set by
/// [`crate::OramParams::block_bytes`]).
pub type BlockData = Vec<u8>;

/// The operations the Backend supports (§3.1 and §4.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOp {
    /// Read the block and leave it in the stash/tree, remapped to a new leaf.
    Read,
    /// Overwrite the block's contents and remap it to a new leaf.
    Write,
    /// Read the block and *remove* it from the ORAM (used for PLB refills,
    /// §4.2.2).  The caller becomes responsible for appending it back later.
    ReadRmv,
    /// Insert a block into the stash without any tree access (used for PLB
    /// evictions, §4.2.2).  The block must not currently exist in the ORAM.
    Append,
}

impl AccessOp {
    /// Whether this operation reads and rewrites a tree path.
    pub fn touches_path(self) -> bool {
        !matches!(self, AccessOp::Append)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_append_skips_the_path() {
        assert!(AccessOp::Read.touches_path());
        assert!(AccessOp::Write.touches_path());
        assert!(AccessOp::ReadRmv.touches_path());
        assert!(!AccessOp::Append.touches_path());
    }
}
