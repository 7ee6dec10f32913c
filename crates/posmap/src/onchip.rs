//! The on-chip PosMap: the root of the recursion, held in trusted SRAM.
//!
//! In the baseline design each entry is a leaf label for one block of the
//! deepest PosMap ORAM (akin to the root page table, §3.2).  Under PMMAC each
//! entry is instead a 64-bit access counter from which the leaf is derived
//! through the PRF (§6.2.1); the counters form the root of trust.

/// What the on-chip PosMap entries hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnChipEntryKind {
    /// Uncompressed leaf labels (baseline and PLB-only designs).
    Leaf,
    /// Monotonic access counters (PMMAC designs, §6.2.1).
    Counter,
}

/// The trusted on-chip PosMap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnChipPosMap {
    entries: Vec<u64>,
    kind: OnChipEntryKind,
}

impl OnChipPosMap {
    /// Creates an on-chip PosMap of `entries` zero-initialised entries.
    pub fn new(entries: u64, kind: OnChipEntryKind) -> Self {
        Self {
            entries: vec![0u64; entries as usize],
            kind,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the PosMap has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// What the entries represent.
    pub fn kind(&self) -> OnChipEntryKind {
        self.kind
    }

    /// Returns entry `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    // lint: ct-scope, no-alloc
    pub fn get(&self, index: u64) -> u64 {
        self.entries[index as usize]
    }

    /// Sets entry `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set(&mut self, index: u64, value: u64) {
        self.entries[index as usize] = value;
    }

    /// Increments entry `index` (counter mode) and returns the *new* value.
    ///
    /// # Panics
    ///
    /// Panics if the entry kind is not [`OnChipEntryKind::Counter`] or the
    /// counter would overflow 64 bits (§6.2.1 sizes counters to never
    /// overflow).
    pub fn increment(&mut self, index: u64) -> u64 {
        assert_eq!(
            self.kind,
            OnChipEntryKind::Counter,
            "increment is only meaningful for counter entries"
        );
        let e = &mut self.entries[index as usize];
        *e = e.checked_add(1).expect("64-bit counter overflow");
        *e
    }
    // lint: end

    /// On-chip storage footprint in bytes, assuming `bits_per_entry` bits per
    /// entry (leaves need L bits; counters 64).  Used by the area model.
    pub fn storage_bytes(&self, bits_per_entry: u32) -> u64 {
        (self.entries.len() as u64 * u64::from(bits_per_entry)).div_ceil(8)
    }

    /// All entries in index order (the snapshot machinery persists the
    /// on-chip PosMap through this view).
    pub fn entries(&self) -> &[u64] {
        &self.entries
    }

    /// Replaces every entry from a snapshot; `entries` must have exactly
    /// the current length.  Returns `false` (changing nothing) on a length
    /// mismatch.
    #[must_use]
    pub fn load_entries(&mut self, entries: &[u64]) -> bool {
        if entries.len() != self.entries.len() {
            return false;
        }
        self.entries.copy_from_slice(entries);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip() {
        let mut pm = OnChipPosMap::new(16, OnChipEntryKind::Leaf);
        assert_eq!(pm.len(), 16);
        assert_eq!(pm.get(3), 0);
        pm.set(3, 42);
        assert_eq!(pm.get(3), 42);
    }

    #[test]
    fn increment_returns_new_value() {
        let mut pm = OnChipPosMap::new(4, OnChipEntryKind::Counter);
        assert_eq!(pm.increment(0), 1);
        assert_eq!(pm.increment(0), 2);
        assert_eq!(pm.get(0), 2);
    }

    #[test]
    #[should_panic(expected = "counter entries")]
    fn increment_rejected_for_leaf_entries() {
        let mut pm = OnChipPosMap::new(4, OnChipEntryKind::Leaf);
        pm.increment(0);
    }

    #[test]
    fn storage_footprint() {
        // 2048 entries of 25-bit leaves = 6.25 KB; of 64-bit counters = 16 KB.
        let pm = OnChipPosMap::new(2048, OnChipEntryKind::Leaf);
        assert_eq!(pm.storage_bytes(25), 6400);
        assert_eq!(pm.storage_bytes(64), 16384);
    }
}
