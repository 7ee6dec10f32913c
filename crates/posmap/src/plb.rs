//! The PosMap Lookaside Buffer (PLB, §4): a set-associative cache of PosMap
//! blocks inside the ORAM frontend.
//!
//! The PLB caches *whole PosMap blocks* (akin to caching page tables, §4.1.4),
//! tagged by their unified address `i‖a_i` so blocks from different recursion
//! levels never alias (§4.1.1).  Each cached block is stored together with its
//! current leaf, because PLB-resident blocks have been read-removed from the
//! ORAM tree and must be appended back (with that leaf) when evicted
//! (§4.2.3).
//!
//! The paper evaluates direct-mapped PLBs of 8–128 KB and finds ≤10% benefit
//! from full associativity (§7.1.3), so direct-mapped is the default here.

/// Hit/miss statistics for a PLB instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlbStats {
    /// Lookups that found the requested block.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Insertions that displaced a resident block.
    pub evictions: u64,
}

impl PlbStats {
    /// Hit rate over all lookups, or `None` if no lookups occurred.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        if total == 0 {
            None
        } else {
            Some(self.hits as f64 / total as f64)
        }
    }

    /// Adds another PLB's counters into this one (for merged views over
    /// several frontends, e.g. a sharded deployment's per-shard PLBs).
    pub fn accumulate(&mut self, other: &PlbStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

/// One PLB-resident PosMap block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlbEntry<V> {
    /// Unified address (`i‖a_i`) of the cached PosMap block.
    pub unified_addr: u64,
    /// The leaf under which the block must be appended back to the ORAM when
    /// evicted from the PLB.
    pub leaf: u64,
    /// The block payload (serialised or typed PosMap block).
    pub payload: V,
}

/// A set-associative PLB holding PosMap blocks of type `V`.
///
/// `V` is typically a typed PosMap block (the frontend's), or a unit type
/// `()` where only residency matters.
///
/// # Examples
///
/// ```
/// use posmap::plb::{Plb, PlbEntry};
///
/// // An 8 KB direct-mapped PLB of 64-byte PosMap blocks: 128 entries.
/// let mut plb: Plb<Vec<u8>> = Plb::new(128, 1);
/// assert!(plb.lookup(42).is_none());
/// plb.insert(PlbEntry { unified_addr: 42, leaf: 7, payload: vec![0u8; 64] });
/// assert!(plb.lookup(42).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct Plb<V> {
    sets: Vec<Vec<PlbEntry<V>>>,
    associativity: usize,
    stats: PlbStats,
}

impl<V> Plb<V> {
    /// Creates a PLB with `capacity_blocks` total entries organised into sets
    /// of `associativity` ways.  An associativity of 1 is direct-mapped; an
    /// associativity equal to the capacity is fully associative.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero, the associativity is zero, or the
    /// capacity is not a multiple of the associativity.
    pub fn new(capacity_blocks: usize, associativity: usize) -> Self {
        assert!(capacity_blocks > 0, "PLB must have at least one entry");
        assert!(associativity > 0, "associativity must be at least 1");
        assert!(
            capacity_blocks.is_multiple_of(associativity),
            "capacity must be a multiple of associativity"
        );
        let num_sets = capacity_blocks / associativity;
        Self {
            sets: (0..num_sets).map(|_| Vec::new()).collect(),
            associativity,
            stats: PlbStats::default(),
        }
    }

    /// Builds a PLB sized in bytes, as the paper specifies capacities
    /// (e.g. "64 KB direct-mapped PLB"), given the PosMap block size: as
    /// many whole blocks as fit, rounded down to whole sets, but never
    /// fewer than four blocks per way.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` or `associativity` is zero.
    pub fn with_capacity_bytes(
        capacity_bytes: usize,
        block_bytes: usize,
        associativity: usize,
    ) -> Self {
        let blocks = (capacity_bytes / block_bytes).max(associativity * 4);
        Self::new(blocks - blocks % associativity, associativity)
    }

    /// Total number of entries.
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.associativity
    }

    /// Number of entries currently resident.
    pub fn len(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// Whether the PLB holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Associativity (ways per set).
    pub fn associativity(&self) -> usize {
        self.associativity
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PlbStats {
        self.stats
    }

    /// Resets statistics.
    pub fn reset_stats(&mut self) {
        self.stats = PlbStats::default();
    }

    // lint: ct-scope, no-alloc
    fn set_index(&self, unified_addr: u64) -> usize {
        // Mix the level tag into the index so PosMap levels do not all map to
        // the same few sets.
        let h = unified_addr ^ (unified_addr >> 56).wrapping_mul(0x9e37_79b9);
        (h % self.sets.len() as u64) as usize
    }

    /// Looks up a PosMap block by unified address, returning a mutable
    /// reference on a hit (the frontend updates counters/leaves in place).
    /// Updates hit/miss statistics and LRU order.
    pub fn lookup(&mut self, unified_addr: u64) -> Option<&mut PlbEntry<V>> {
        let set_idx = self.set_index(unified_addr);
        let set = &mut self.sets[set_idx];
        // lint: allow(secret-branch, PLB hit or miss and the hit depth are revealed by design per section 4.1.2)
        if let Some(pos) = set.iter().position(|e| e.unified_addr == unified_addr) {
            self.stats.hits += 1;
            // Move to the back = most recently used.
            let entry = set.remove(pos);
            // lint: allow(no-alloc, push follows a remove in the same way list so capacity is retained)
            set.push(entry);
            set.last_mut()
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Returns a mutable reference to a resident block without updating
    /// statistics or LRU state.  Used by the frontend when it re-touches a
    /// block it already accounted for during the lookup loop (§4.2.4 step 1).
    pub fn peek_mut(&mut self, unified_addr: u64) -> Option<&mut PlbEntry<V>> {
        let set_idx = self.set_index(unified_addr);
        self.sets[set_idx]
            .iter_mut()
            .find(|e| e.unified_addr == unified_addr)
    }

    /// Checks residency without touching statistics or LRU state.
    pub fn contains(&self, unified_addr: u64) -> bool {
        let set_idx = self.set_index(unified_addr);
        self.sets[set_idx]
            .iter()
            .any(|e| e.unified_addr == unified_addr)
    }

    /// The entry that inserting `unified_addr` would displace: the least
    /// recently used way of its set, when the set is full and does not
    /// hold `unified_addr`.  Touches neither statistics nor LRU state, so
    /// the frontend can seal the victim before it decides to insert.
    pub fn victim_for(&self, unified_addr: u64) -> Option<&PlbEntry<V>> {
        let set = &self.sets[self.set_index(unified_addr)];
        // lint: allow(secret-branch, replace-versus-fill is a cache-internal decision; the external refill traffic is fixed by the miss path per section 4.1.2)
        if set.len() < self.associativity || set.iter().any(|e| e.unified_addr == unified_addr) {
            return None;
        }
        set.first()
    }

    /// Inserts a block, returning the entry it displaced (which the frontend
    /// must append back to the ORAM, §4.2.4 step 2), if any.
    ///
    /// Inserting a block that is already resident replaces it without an
    /// eviction.
    pub fn insert(&mut self, entry: PlbEntry<V>) -> Option<PlbEntry<V>> {
        let set_idx = self.set_index(entry.unified_addr);
        let assoc = self.associativity;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set
            .iter()
            // lint: allow(secret-branch, replace-versus-fill is a cache-internal decision; the external refill traffic is fixed by the miss path per section 4.1.2)
            .position(|e| e.unified_addr == entry.unified_addr)
        {
            set.remove(pos);
            // lint: allow(no-alloc, push follows a remove in the same way list so capacity is retained)
            set.push(entry);
            return None;
        }
        let victim = if set.len() == assoc {
            self.stats.evictions += 1;
            Some(set.remove(0))
        } else {
            None
        };
        // lint: allow(no-alloc, way list grows to at most the associativity then reuses its capacity)
        set.push(entry);
        victim
    }

    /// Removes a specific block (used when the frontend must flush a block,
    /// e.g. during a group remap).
    pub fn remove(&mut self, unified_addr: u64) -> Option<PlbEntry<V>> {
        let set_idx = self.set_index(unified_addr);
        let set = &mut self.sets[set_idx];
        set.iter()
            .position(|e| e.unified_addr == unified_addr)
            .map(|pos| set.remove(pos))
    }
    // lint: end

    /// Drains every resident entry (used when flushing the PLB).
    pub fn drain(&mut self) -> Vec<PlbEntry<V>> {
        let mut out = Vec::new();
        for set in &mut self.sets {
            out.append(set);
        }
        out
    }

    /// Iterates over the sets in index order, each as its entries in LRU
    /// order (least recently used first).  The snapshot machinery persists
    /// the PLB through this view; re-inserting the entries set by set in
    /// the same order restores both residency and LRU state exactly,
    /// because [`Plb::insert`] routes by the same index function and
    /// appends at the most-recently-used end.
    pub fn iter_sets(&self) -> impl Iterator<Item = &[PlbEntry<V>]> {
        self.sets.iter().map(Vec::as_slice)
    }

    /// Restores the statistics counters from a snapshot (resuming an
    /// instance continues its hit/miss history rather than resetting it).
    pub fn set_stats(&mut self, stats: PlbStats) {
        self.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(addr: u64) -> PlbEntry<u64> {
        PlbEntry {
            unified_addr: addr,
            leaf: addr * 10,
            payload: addr,
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut plb: Plb<u64> = Plb::new(8, 1);
        assert!(plb.lookup(5).is_none());
        plb.insert(entry(5));
        assert_eq!(plb.lookup(5).unwrap().leaf, 50);
        assert_eq!(plb.stats().hits, 1);
        assert_eq!(plb.stats().misses, 1);
    }

    #[test]
    fn direct_mapped_conflict_evicts_previous_occupant() {
        let mut plb: Plb<u64> = Plb::new(4, 1);
        // Two addresses that collide in a 4-set direct-mapped PLB.
        let a = 3u64;
        let b = a + 4;
        plb.insert(entry(a));
        let evicted = plb.insert(entry(b));
        assert_eq!(evicted.unwrap().unified_addr, a);
        assert!(plb.lookup(a).is_none());
        assert!(plb.lookup(b).is_some());
        assert_eq!(plb.stats().evictions, 1);
    }

    #[test]
    fn higher_associativity_avoids_the_conflict() {
        let mut plb: Plb<u64> = Plb::new(4, 4);
        let a = 3u64;
        let b = a + 4;
        plb.insert(entry(a));
        assert!(plb.insert(entry(b)).is_none());
        assert!(plb.lookup(a).is_some());
        assert!(plb.lookup(b).is_some());
    }

    #[test]
    fn lru_evicts_least_recently_used_way() {
        let mut plb: Plb<u64> = Plb::new(2, 2);
        plb.insert(entry(0));
        plb.insert(entry(1));
        // Touch 0 so 1 becomes LRU.
        assert!(plb.lookup(0).is_some());
        let evicted = plb.insert(entry(2)).unwrap();
        assert_eq!(evicted.unified_addr, 1);
    }

    #[test]
    fn reinsert_replaces_without_eviction() {
        let mut plb: Plb<u64> = Plb::new(4, 2);
        plb.insert(entry(9));
        let mut updated = entry(9);
        updated.leaf = 123;
        assert!(plb.insert(updated).is_none());
        assert_eq!(plb.lookup(9).unwrap().leaf, 123);
        assert_eq!(plb.len(), 1);
    }

    /// Seeded mix of lookups and inserts over several geometries:
    /// `victim_for` always names exactly the entry the next `insert`
    /// displaces, and changes no statistics.
    #[test]
    fn victim_for_names_what_insert_displaces() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (capacity, assoc) in [(4, 1), (8, 2), (8, 8), (12, 3)] {
            let mut plb: Plb<u64> = Plb::new(capacity, assoc);
            for _ in 0..2000 {
                let addr = rng() % 40;
                if rng() % 3 == 0 {
                    plb.lookup(addr);
                    continue;
                }
                let stats = plb.stats();
                let named = plb.victim_for(addr).map(|e| e.unified_addr);
                assert_eq!(plb.stats(), stats);
                let displaced = plb.insert(entry(addr)).map(|e| e.unified_addr);
                assert_eq!(named, displaced, "{capacity}x{assoc} inserting {addr}");
            }
        }
    }

    #[test]
    fn capacity_bytes_constructor_matches_paper_sizes() {
        // 8 KB PLB of 64-byte blocks = 128 entries; 64 KB = 1024 entries.
        let plb8: Plb<()> = Plb::with_capacity_bytes(8 << 10, 64, 1);
        let plb64: Plb<()> = Plb::with_capacity_bytes(64 << 10, 64, 1);
        assert_eq!(plb8.capacity(), 128);
        assert_eq!(plb64.capacity(), 1024);
        // Tiny capacities are clamped to four blocks per way, and a
        // capacity that is not whole sets rounds down to them.
        let tiny: Plb<()> = Plb::with_capacity_bytes(64, 64, 2);
        assert_eq!(tiny.capacity(), 8);
        let ragged: Plb<()> = Plb::with_capacity_bytes(11 * 64, 64, 2);
        assert_eq!(ragged.capacity(), 10);
    }

    #[test]
    fn drain_returns_everything_and_empties() {
        let mut plb: Plb<u64> = Plb::new(8, 2);
        for i in 0..5 {
            plb.insert(entry(i));
        }
        let drained = plb.drain();
        assert_eq!(drained.len(), 5);
        assert!(plb.is_empty());
    }

    #[test]
    fn remove_specific_entry() {
        let mut plb: Plb<u64> = Plb::new(8, 2);
        plb.insert(entry(1));
        plb.insert(entry(2));
        assert_eq!(plb.remove(1).unwrap().unified_addr, 1);
        assert!(plb.remove(1).is_none());
        assert_eq!(plb.len(), 1);
    }

    #[test]
    fn hit_rate_reflects_locality() {
        let mut plb: Plb<u64> = Plb::new(64, 1);
        // Sequential re-use: after the first pass everything hits.
        for _ in 0..4 {
            for addr in 0..32u64 {
                if plb.lookup(addr).is_none() {
                    plb.insert(entry(addr));
                }
            }
        }
        assert!(plb.stats().hit_rate().unwrap() > 0.7);
    }

    #[test]
    #[should_panic(expected = "multiple of associativity")]
    fn rejects_mismatched_capacity_and_associativity() {
        let _: Plb<()> = Plb::new(6, 4);
    }
}
