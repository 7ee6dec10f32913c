//! The on-chip stash: a small trusted buffer of blocks awaiting eviction.
//!
//! The stash is a fixed-capacity **slab**: one contiguous allocation of
//! block-sized payload slots plus a parallel metadata array and an
//! addr → slot index.  Inserting a block copies its payload into a free
//! slot; removing one just returns the slot to the free list.  After the
//! slab is built, steady-state operation performs no heap allocation —
//! the property the backend's zero-allocation hot path rests on.

use crate::error::OramError;
use crate::types::{BlockId, Leaf};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative (Fibonacci) hasher for `u64` block addresses.
///
/// The stash index and the backend's residency set are keyed by block
/// address and hit several times per bucket on the hot path; SipHash's
/// flood-resistance buys nothing there (a mis-hashing *program* can only
/// slow itself down, never break obliviousness — the memory trace stays one
/// path read and one path write per access) and costs tens of nanoseconds
/// per operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockIdHasher(u64);

/// `BuildHasher` for [`BlockIdHasher`]-keyed maps.
pub type BlockIdBuildHasher = BuildHasherDefault<BlockIdHasher>;

impl Hasher for BlockIdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (FNV-1a); the key types used here go through
        // `write_u64`.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let mut h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        self.0 = h;
    }
}

/// Metadata of one slab slot.
#[derive(Debug, Clone, Copy)]
struct SlotMeta {
    addr: BlockId,
    leaf: Leaf,
    occupied: bool,
}

const EMPTY_SLOT: SlotMeta = SlotMeta {
    addr: 0,
    leaf: 0,
    occupied: false,
};

/// The Path ORAM stash.
///
/// Holds blocks that could not be evicted back to the tree, plus — while an
/// access is in flight — the blocks of the path currently being processed.
/// The paper assumes a 200-block capacity (§3.1); exceeding it *after*
/// eviction is a fatal [`OramError::StashOverflow`].  The slab is sized
/// `capacity + transient_slots` so the in-flight path never forces a
/// reallocation.
#[derive(Debug, Clone)]
pub struct Stash {
    /// Contiguous payload slots, `block_bytes` apart.
    slab: Vec<u8>,
    meta: Vec<SlotMeta>,
    free: Vec<u32>,
    index: HashMap<BlockId, u32, BlockIdBuildHasher>,
    capacity: usize,
    block_bytes: usize,
    max_occupancy: usize,
}

impl Stash {
    /// Creates a stash with the given steady-state `capacity` (in blocks)
    /// for `block_bytes`-byte payloads, with `transient_slots` extra slots
    /// of headroom for the path being processed (typically `(L + 1) · Z + 1`).
    pub fn new(capacity: usize, block_bytes: usize, transient_slots: usize) -> Self {
        let slots = capacity + transient_slots;
        Self {
            slab: vec![0u8; slots * block_bytes],
            meta: vec![EMPTY_SLOT; slots],
            // Hand out low slot indices first (pop from the back).
            free: (0..slots as u32).rev().collect(),
            index: HashMap::with_capacity_and_hasher(slots, BlockIdBuildHasher::default()),
            capacity,
            block_bytes,
            max_occupancy: 0,
        }
    }

    /// Number of blocks currently held.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the stash is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// High-water mark of occupancy observed so far.
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// Configured steady-state capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total slots in the slab (capacity plus transient headroom);
    /// diagnostics for the capacity-stability tests.
    pub fn slot_capacity(&self) -> usize {
        self.meta.len()
    }

    /// Payload bytes per slot.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    // lint: ct-scope, no-alloc
    #[inline]
    fn payload(&self, slot: u32) -> &[u8] {
        let start = slot as usize * self.block_bytes;
        &self.slab[start..start + self.block_bytes]
    }

    #[inline]
    fn payload_mut(&mut self, slot: u32) -> &mut [u8] {
        let start = slot as usize * self.block_bytes;
        &mut self.slab[start..start + self.block_bytes]
    }

    /// Claims a slot for `addr`/`leaf`, reusing the existing slot when the
    /// address is already present (replace semantics).  Growing only happens
    /// if the transient headroom was undersized — never in steady state.
    fn claim_slot(&mut self, addr: BlockId, leaf: Leaf) -> u32 {
        // lint: allow(secret-branch, CAM-style index probe performed on every insert; the probe is on-chip and the external trace is unchanged)
        if let Some(&slot) = self.index.get(&addr) {
            self.meta[slot as usize].leaf = leaf;
            return slot;
        }
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = self.meta.len() as u32;
            // lint: allow(no-alloc, cold fallback only when the transient headroom was undersized; pinned by the slab-capacity test)
            self.meta.push(EMPTY_SLOT);
            // lint: allow(no-alloc, cold fallback only when the transient headroom was undersized; pinned by the slab-capacity test)
            self.slab.resize(self.slab.len() + self.block_bytes, 0);
            slot
        });
        self.meta[slot as usize] = SlotMeta {
            addr,
            leaf,
            occupied: true,
        };
        // lint: allow(no-alloc, index pre-sized to the full slot count at construction)
        self.index.insert(addr, slot);
        self.max_occupancy = self.max_occupancy.max(self.index.len());
        slot
    }

    /// Inserts or replaces a block, copying `data` into the slab.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly `block_bytes` long.
    pub fn insert_from_parts(&mut self, addr: BlockId, leaf: Leaf, data: &[u8]) {
        assert_eq!(data.len(), self.block_bytes, "block size mismatch");
        let slot = self.claim_slot(addr, leaf);
        self.payload_mut(slot).copy_from_slice(data);
    }

    /// Inserts or replaces a block with an all-zero payload (the implicit
    /// zero-initialisation of never-written blocks).
    pub fn insert_zeroed(&mut self, addr: BlockId, leaf: Leaf) {
        let slot = self.claim_slot(addr, leaf);
        self.payload_mut(slot).fill(0);
    }

    /// Whether the stash currently holds `addr`.
    pub fn contains(&self, addr: BlockId) -> bool {
        self.index.contains_key(&addr)
    }

    /// Borrowed view of the block's payload, if present.
    pub fn data_of(&self, addr: BlockId) -> Option<&[u8]> {
        self.index.get(&addr).map(|&slot| self.payload(slot))
    }

    /// Returns the leaf the block is currently mapped to, if present.
    pub fn leaf_of(&self, addr: BlockId) -> Option<Leaf> {
        self.index
            .get(&addr)
            .map(|&slot| self.meta[slot as usize].leaf)
    }

    /// Updates the leaf of a resident block; returns `false` if absent.
    pub fn remap(&mut self, addr: BlockId, new_leaf: Leaf) -> bool {
        // lint: allow(secret-branch, CAM-style index probe; hit or miss is reported to the caller and never externalised)
        if let Some(&slot) = self.index.get(&addr) {
            self.meta[slot as usize].leaf = new_leaf;
            true
        } else {
            false
        }
    }

    /// Replaces the data of a resident block; returns `false` if absent.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly `block_bytes` long.
    pub fn update_data(&mut self, addr: BlockId, data: &[u8]) -> bool {
        assert_eq!(data.len(), self.block_bytes, "block size mismatch");
        // lint: allow(secret-branch, CAM-style index probe; hit or miss is reported to the caller and never externalised)
        if let Some(&slot) = self.index.get(&addr) {
            self.payload_mut(slot).copy_from_slice(data);
            true
        } else {
            false
        }
    }

    /// Removes a block, copying its payload into `out` (cleared first).
    /// Returns the leaf it was mapped to, or `None` if absent.  This is the
    /// allocation-free removal path: `out`'s capacity is reused across calls.
    pub fn remove_into(&mut self, addr: BlockId, out: &mut Vec<u8>) -> Option<Leaf> {
        let slot = self.index.remove(&addr)?;
        out.clear();
        // lint: allow(no-alloc, grows the caller's buffer to block_bytes once; steady state reuses its capacity)
        out.extend_from_slice(self.payload(slot));
        let leaf = self.meta[slot as usize].leaf;
        self.meta[slot as usize] = EMPTY_SLOT;
        // lint: allow(no-alloc, free list pre-sized to the full slot count; a push always follows a pop)
        self.free.push(slot);
        Some(leaf)
    }

    // ------------------------------------------------------------------
    // Slot-level access for the eviction classifier.
    // ------------------------------------------------------------------

    /// Iterates over the occupied slots as `(slot, addr, leaf)`, in slab
    /// order (deterministic for a deterministic operation history, unlike a
    /// hash-map walk).
    pub fn occupied_slots(&self) -> impl Iterator<Item = (u32, BlockId, Leaf)> + '_ {
        self.meta
            .iter()
            .enumerate()
            .filter_map(|(slot, meta)| meta.occupied.then_some((slot as u32, meta.addr, meta.leaf)))
    }

    /// The payload of an occupied slot (eviction serialises from here).
    ///
    /// # Panics
    ///
    /// Panics if the slot is not occupied.
    pub fn slot_payload(&self, slot: u32) -> (BlockId, Leaf, &[u8]) {
        let meta = self.meta[slot as usize];
        assert!(meta.occupied, "slot {slot} is vacant");
        (meta.addr, meta.leaf, self.payload(slot))
    }

    /// Releases an occupied slot after its block was evicted into the tree.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not occupied.
    pub fn release_slot(&mut self, slot: u32) {
        let meta = self.meta[slot as usize];
        assert!(meta.occupied, "slot {slot} is vacant");
        self.index.remove(&meta.addr);
        self.meta[slot as usize] = EMPTY_SLOT;
        // lint: allow(no-alloc, free list pre-sized to the full slot count; a push always follows a pop)
        self.free.push(slot);
    }

    /// Checks the occupancy against the capacity, returning an error if it is
    /// exceeded.  Called by the backend after each eviction pass.
    pub fn check_overflow(&self) -> Result<(), OramError> {
        if self.index.len() > self.capacity {
            Err(OramError::StashOverflow {
                occupancy: self.index.len(),
                capacity: self.capacity,
            })
        } else {
            Ok(())
        }
    }
    // lint: end

    // ------------------------------------------------------------------
    // Snapshot persistence.
    // ------------------------------------------------------------------

    /// Serialises the stash — including the exact slot assignment and the
    /// free-list order — into `out`.  Restoring this (rather than just the
    /// resident blocks) makes a resumed backend's eviction order, and hence
    /// its tree contents, byte-identical to an uninterrupted run:
    /// [`Stash::occupied_slots`] walks in slab order and free slots are
    /// handed out in free-list order, so both must round-trip.
    pub fn save(&self, out: &mut Vec<u8>) {
        use crate::snapshot::{put_u32, put_u64};
        put_u64(out, self.capacity as u64);
        put_u64(out, self.block_bytes as u64);
        put_u64(out, self.meta.len() as u64);
        put_u64(out, self.max_occupancy as u64);
        put_u64(out, self.free.len() as u64);
        for &slot in &self.free {
            put_u32(out, slot);
        }
        put_u64(out, self.index.len() as u64);
        for (slot, meta) in self.meta.iter().enumerate() {
            if !meta.occupied {
                continue;
            }
            put_u32(out, slot as u32);
            put_u64(out, meta.addr);
            put_u64(out, meta.leaf);
            out.extend_from_slice(self.payload(slot as u32));
        }
    }

    /// Restores the stash from bytes written by [`Stash::save`], replacing
    /// all current contents.  The stash must have been constructed with the
    /// same capacity, block size and slot count (all derived from the same
    /// `OramParams` on both sides).
    ///
    /// # Errors
    ///
    /// [`OramError::Snapshot`] on truncation or a geometry mismatch.
    pub fn load(&mut self, r: &mut crate::snapshot::SnapReader<'_>) -> Result<(), OramError> {
        let mismatch = |what: &str, got: u64, want: u64| OramError::Snapshot {
            detail: format!("stash {what} mismatch: snapshot has {got}, instance has {want}"),
        };
        let capacity = r.u64()?;
        if capacity != self.capacity as u64 {
            return Err(mismatch("capacity", capacity, self.capacity as u64));
        }
        let block_bytes = r.u64()?;
        if block_bytes != self.block_bytes as u64 {
            return Err(mismatch("block size", block_bytes, self.block_bytes as u64));
        }
        let slots = r.u64()?;
        if slots != self.meta.len() as u64 {
            return Err(mismatch("slot count", slots, self.meta.len() as u64));
        }
        self.max_occupancy = r.u64()? as usize;
        let free_len = r.len(self.meta.len())?;
        self.free.clear();
        for _ in 0..free_len {
            let slot = r.u32()?;
            if slot as usize >= self.meta.len() {
                return Err(OramError::Snapshot {
                    detail: format!("free-list slot {slot} out of range"),
                });
            }
            self.free.push(slot);
        }
        self.index.clear();
        self.meta.fill(EMPTY_SLOT);
        self.slab.fill(0);
        let occupied = r.len(self.meta.len())?;
        if occupied + free_len != self.meta.len() {
            return Err(OramError::Snapshot {
                detail: format!(
                    "stash slot accounting mismatch: {occupied} occupied + {free_len} free != {}",
                    self.meta.len()
                ),
            });
        }
        for _ in 0..occupied {
            let slot = r.u32()?;
            if slot as usize >= self.meta.len() || self.meta[slot as usize].occupied {
                return Err(OramError::Snapshot {
                    detail: format!("invalid or duplicate stash slot {slot}"),
                });
            }
            let addr = r.u64()?;
            let leaf = r.u64()?;
            let payload = r.take(self.block_bytes)?;
            self.meta[slot as usize] = SlotMeta {
                addr,
                leaf,
                occupied: true,
            };
            self.payload_mut(slot).copy_from_slice(payload);
            if self.index.insert(addr, slot).is_some() {
                return Err(OramError::Snapshot {
                    detail: format!("duplicate stash address {addr}"),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stash(capacity: usize) -> Stash {
        Stash::new(capacity, 4, 8)
    }

    /// Inserts `addr` mapped to `leaf`, its payload filled with `addr as u8`.
    fn put(stash: &mut Stash, addr: u64, leaf: u64) {
        stash.insert_from_parts(addr, leaf, &[addr as u8; 4]);
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut stash = stash(10);
        put(&mut stash, 5, 3);
        assert!(stash.contains(5));
        assert_eq!(stash.leaf_of(5), Some(3));
        assert_eq!(stash.data_of(5), Some(&[5u8; 4][..]));
        let mut removed = Vec::new();
        assert_eq!(stash.remove_into(5, &mut removed), Some(3));
        assert_eq!(removed, [5u8; 4]);
        assert!(!stash.contains(5));
        assert!(stash.is_empty());
    }

    #[test]
    fn remap_and_update_data() {
        let mut stash = stash(10);
        put(&mut stash, 1, 0);
        assert!(stash.remap(1, 9));
        assert_eq!(stash.leaf_of(1), Some(9));
        assert!(stash.update_data(1, &[7, 7, 7, 7]));
        assert_eq!(stash.data_of(1), Some(&[7u8, 7, 7, 7][..]));
        assert!(!stash.remap(2, 0));
        assert!(!stash.update_data(2, &[0u8; 4]));
    }

    #[test]
    fn remove_into_reuses_the_output_buffer() {
        let mut stash = stash(10);
        put(&mut stash, 3, 2);
        let mut out = Vec::new();
        assert_eq!(stash.remove_into(3, &mut out), Some(2));
        assert_eq!(out, vec![3u8; 4]);
        let cap = out.capacity();
        put(&mut stash, 4, 1);
        assert_eq!(stash.remove_into(4, &mut out), Some(1));
        assert_eq!(out, vec![4u8; 4]);
        assert_eq!(out.capacity(), cap, "no reallocation on reuse");
        assert_eq!(stash.remove_into(99, &mut out), None);
    }

    #[test]
    fn slab_capacity_is_stable_within_headroom() {
        let mut stash = stash(4);
        let slots = stash.slot_capacity();
        let mut out = Vec::new();
        for round in 0..50u64 {
            for i in 0..8 {
                put(&mut stash, round * 8 + i, i);
            }
            for i in 0..8 {
                stash.remove_into(round * 8 + i, &mut out).unwrap();
            }
        }
        assert_eq!(stash.slot_capacity(), slots, "slab never grew");
    }

    #[test]
    fn occupied_slots_walks_in_slab_order() {
        let mut stash = stash(10);
        for addr in [9u64, 1, 5] {
            put(&mut stash, addr, addr);
        }
        // Slots are handed out low-first, so slab order is insertion order.
        let addrs: Vec<u64> = stash.occupied_slots().map(|(_, a, _)| a).collect();
        assert_eq!(addrs, vec![9, 1, 5]);
        let (addr, leaf, data) = stash.slot_payload(0);
        assert_eq!((addr, leaf), (9, 9));
        assert_eq!(data, &[9u8; 4]);
    }

    #[test]
    fn release_slot_frees_the_address() {
        let mut stash = stash(10);
        put(&mut stash, 7, 1);
        let slot = stash.occupied_slots().next().unwrap().0;
        stash.release_slot(slot);
        assert!(!stash.contains(7));
        assert!(stash.is_empty());
    }

    #[test]
    fn overflow_detection_and_high_water_mark() {
        let mut stash = stash(2);
        put(&mut stash, 1, 0);
        put(&mut stash, 2, 0);
        assert!(stash.check_overflow().is_ok());
        put(&mut stash, 3, 0);
        assert_eq!(
            stash.check_overflow(),
            Err(OramError::StashOverflow {
                occupancy: 3,
                capacity: 2
            })
        );
        assert_eq!(stash.max_occupancy(), 3);
    }

    #[test]
    fn reinserting_same_address_replaces_not_duplicates() {
        let mut stash = stash(10);
        put(&mut stash, 1, 0);
        put(&mut stash, 1, 5);
        assert_eq!(stash.len(), 1);
        assert_eq!(stash.leaf_of(1), Some(5));
    }
}
