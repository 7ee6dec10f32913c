//! A generic set-associative write-back cache with LRU replacement.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Ways per set.
    pub associativity: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.capacity_bytes / (self.associativity * self.line_bytes)
    }

    /// Number of lines.
    pub fn num_lines(&self) -> usize {
        self.capacity_bytes / self.line_bytes
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Line-aligned address of a dirty line evicted to make room, if any.
    pub writeback: Option<u64>,
}

/// A set-associative write-back, write-allocate cache with true-LRU
/// replacement.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// `sets[i]` is ordered least- to most-recently used.
    sets: Vec<Vec<Line>>,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, capacity not a
    /// multiple of `associativity * line_bytes`).
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.line_bytes > 0 && config.associativity > 0);
        assert!(
            config
                .capacity_bytes
                .is_multiple_of(config.associativity * config.line_bytes)
                && config.num_sets() > 0,
            "capacity must be a whole number of sets"
        );
        Self {
            sets: vec![Vec::new(); config.num_sets()],
            config,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn split(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.config.line_bytes as u64;
        let set = (line % self.config.num_sets() as u64) as usize;
        let tag = line / self.config.num_sets() as u64;
        (set, tag)
    }

    fn line_addr(&self, set: usize, tag: u64) -> u64 {
        (tag * self.config.num_sets() as u64 + set as u64) * self.config.line_bytes as u64
    }

    /// Accesses the byte address `addr`.  On a miss the line is allocated; a
    /// dirty victim's address is returned for write-back.
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheOutcome {
        let (set_idx, tag) = self.split(addr);
        let assoc = self.config.associativity;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|l| l.tag == tag) {
            let mut line = set.remove(pos);
            line.dirty |= is_write;
            set.push(line);
            self.hits += 1;
            return CacheOutcome {
                hit: true,
                writeback: None,
            };
        }
        self.misses += 1;
        let writeback = if set.len() == assoc {
            let victim = set.remove(0);
            victim.dirty.then(|| self.line_addr(set_idx, victim.tag))
        } else {
            None
        };
        self.sets[set_idx].push(Line {
            tag,
            dirty: is_write,
        });
        CacheOutcome {
            hit: false,
            writeback,
        }
    }

    /// Inserts a line without classifying it as a demand access (used when a
    /// lower level fills an upper one).  Returns a dirty victim, if any.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<u64> {
        let (set_idx, tag) = self.split(addr);
        let assoc = self.config.associativity;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|l| l.tag == tag) {
            let mut line = set.remove(pos);
            line.dirty |= dirty;
            set.push(line);
            return None;
        }
        let writeback = if set.len() == assoc {
            let victim = set.remove(0);
            victim.dirty.then(|| self.line_addr(set_idx, victim.tag))
        } else {
            None
        };
        self.sets[set_idx].push(Line { tag, dirty });
        writeback
    }

    /// Whether the line containing `addr` is resident.
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.split(addr);
        self.sets[set_idx].iter().any(|l| l.tag == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        SetAssocCache::new(CacheConfig {
            capacity_bytes: 512,
            associativity: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn geometry_is_derived_correctly() {
        let c = tiny();
        assert_eq!(c.config().num_sets(), 4);
        assert_eq!(c.config().num_lines(), 8);
    }

    #[test]
    fn miss_then_hit_same_line() {
        let mut c = tiny();
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x13F, false).hit, "same 64-byte line");
        assert!(!c.access(0x140, false).hit, "next line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn dirty_eviction_produces_writeback_of_correct_address() {
        let mut c = tiny();
        // Set 0 holds lines whose (line index % 4) == 0: addresses 0, 256, 512…
        c.access(0, true);
        c.access(256, false);
        let out = c.access(512, false);
        assert!(!out.hit);
        assert_eq!(out.writeback, Some(0), "dirty line 0 evicted");
        // The clean line at 256 is still resident; 0 is gone.
        assert!(c.contains(256));
        assert!(!c.contains(0));
    }

    #[test]
    fn clean_eviction_produces_no_writeback() {
        let mut c = tiny();
        c.access(0, false);
        c.access(256, false);
        let out = c.access(512, false);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn lru_keeps_recently_used_line() {
        let mut c = tiny();
        c.access(0, false);
        c.access(256, false);
        // Touch 0 again so 256 is the LRU victim.
        c.access(0, false);
        c.access(512, false);
        assert!(c.contains(0));
        assert!(!c.contains(256));
    }

    #[test]
    fn fill_does_not_count_as_demand_access() {
        let mut c = tiny();
        c.fill(0, false);
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(c.contains(0));
    }

    #[test]
    fn working_set_within_capacity_eventually_all_hits() {
        let mut c = SetAssocCache::new(CacheConfig {
            capacity_bytes: 32 << 10,
            associativity: 4,
            line_bytes: 64,
        });
        let lines = 256u64; // 16 KB working set in a 32 KB cache
        for _ in 0..3 {
            for i in 0..lines {
                c.access(i * 64, false);
            }
        }
        // After warm-up, the last two passes hit every time.
        assert!(c.hits() >= 2 * lines);
        assert_eq!(c.misses(), lines);
    }
}
