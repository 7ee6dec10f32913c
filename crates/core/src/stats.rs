//! Frontend statistics: the quantities the paper's figures are built from.

use path_oram::BackendStats;
use posmap::PlbStats;

/// Counters accumulated by a Freecursive frontend (with or without a PLB).
///
/// The evaluation figures are all derived from these: Figure 6/8 from the
/// backend-access counts (latency), Figure 7 from the byte counters, §6.3
/// from the hash counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrontendStats {
    /// Requests received from the LLC (each is one `read` or `write`).
    pub frontend_requests: u64,
    /// Backend path accesses made for the data block itself (level 0).
    pub data_backend_accesses: u64,
    /// Backend path accesses made for PosMap blocks (levels ≥ 1), including
    /// the baseline design's PosMap-ORAM accesses.
    pub posmap_backend_accesses: u64,
    /// Backend path accesses made to remap sibling blocks after a group
    /// counter overflow (§5.2.2).
    pub group_remap_accesses: u64,
    /// Number of group-counter overflow events.
    pub group_remaps: u64,
    /// Appends issued (PLB evictions and block-of-interest write-backs).
    pub appends: u64,
    /// Bytes moved to/from untrusted memory for data-block path accesses.
    pub data_bytes_moved: u64,
    /// Bytes moved for PosMap-related path accesses (PosMap blocks and group
    /// remaps).  The white regions of Figures 7 and 8.
    pub posmap_bytes_moved: u64,
    /// MAC verifications performed (PMMAC).
    pub macs_verified: u64,
    /// MAC computations performed for write-back (PMMAC).
    pub macs_computed: u64,
    /// Hashes a Merkle-tree scheme (\[25\]) would have needed over the same
    /// trace: one per bucket on every path touched.  Basis of the ≥68×
    /// hash-bandwidth claim (§6.3).
    pub merkle_equivalent_hashes: u64,
    /// Integrity violations detected.
    pub integrity_violations: u64,
    /// PLB statistics (zero for the baseline design).
    pub plb: PlbStats,
    /// Backend counters mirrored after every request, so callers holding an
    /// `Oram` trait object can see the tree machinery's work — including the
    /// `buckets_decrypted`/`buckets_encrypted` crypto counters — without
    /// reaching through to a concrete backend.  Without a PLB the frontend
    /// owns one tree per recursion level, and this is the sum over all of
    /// them (maxima such as `max_stash_occupancy` take the largest).
    pub backend: BackendStats,
}

impl FrontendStats {
    /// Adds another frontend's counters into this one.  Count fields sum;
    /// the backend's `max_stash_occupancy` merges as a maximum (the worst
    /// stash seen across the merged instances).
    pub fn merge_from(&mut self, other: &FrontendStats) {
        self.frontend_requests += other.frontend_requests;
        self.data_backend_accesses += other.data_backend_accesses;
        self.posmap_backend_accesses += other.posmap_backend_accesses;
        self.group_remap_accesses += other.group_remap_accesses;
        self.group_remaps += other.group_remaps;
        self.appends += other.appends;
        self.data_bytes_moved += other.data_bytes_moved;
        self.posmap_bytes_moved += other.posmap_bytes_moved;
        self.macs_verified += other.macs_verified;
        self.macs_computed += other.macs_computed;
        self.merkle_equivalent_hashes += other.merkle_equivalent_hashes;
        self.integrity_violations += other.integrity_violations;
        self.plb.accumulate(&other.plb);
        self.backend.accumulate(&other.backend);
    }

    /// Merges any number of per-instance stats into one aggregate view —
    /// what [`crate::ShardedOram`]'s `stats()` and the service's merged
    /// stats report.  All derived metrics (`bytes_per_request`, hit rates, …)
    /// remain meaningful on the merged struct because they are ratios of
    /// summed counters.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a FrontendStats>) -> FrontendStats {
        let mut total = FrontendStats::default();
        for part in parts {
            total.merge_from(part);
        }
        total
    }

    /// Folds the change between two snapshots of **one** instance's stats
    /// into this merged view: count fields add the `after - before`
    /// difference, the backend's `max_stash_occupancy` folds the new
    /// maximum.  This keeps a merged view current in `O(1)` (instead of a
    /// full re-merge over every instance) on single-access paths.
    ///
    /// `before` and `after` must be snapshots of the *same* instance with
    /// no stats reset in between — between resets every counter is
    /// monotone, which is what makes the subtraction and the max-fold
    /// sound.
    pub fn apply_delta(&mut self, before: &FrontendStats, after: &FrontendStats) {
        // Build the `after - before` diff and feed it through `merge_from`,
        // so all summing (and the max-fold for `max_stash_occupancy`) lives
        // in exactly one place.  The struct literals are deliberately
        // exhaustive — no `..Default::default()` — so adding a counter to
        // any stats struct fails to compile here until the subtraction is
        // written, keeping this in lockstep with `merge_from`.
        let diff = FrontendStats {
            frontend_requests: after.frontend_requests - before.frontend_requests,
            data_backend_accesses: after.data_backend_accesses - before.data_backend_accesses,
            posmap_backend_accesses: after.posmap_backend_accesses - before.posmap_backend_accesses,
            group_remap_accesses: after.group_remap_accesses - before.group_remap_accesses,
            group_remaps: after.group_remaps - before.group_remaps,
            appends: after.appends - before.appends,
            data_bytes_moved: after.data_bytes_moved - before.data_bytes_moved,
            posmap_bytes_moved: after.posmap_bytes_moved - before.posmap_bytes_moved,
            macs_verified: after.macs_verified - before.macs_verified,
            macs_computed: after.macs_computed - before.macs_computed,
            merkle_equivalent_hashes: after.merkle_equivalent_hashes
                - before.merkle_equivalent_hashes,
            integrity_violations: after.integrity_violations - before.integrity_violations,
            plb: PlbStats {
                hits: after.plb.hits - before.plb.hits,
                misses: after.plb.misses - before.plb.misses,
                evictions: after.plb.evictions - before.plb.evictions,
            },
            backend: path_oram::BackendStats {
                path_accesses: after.backend.path_accesses - before.backend.path_accesses,
                appends: after.backend.appends - before.backend.appends,
                bytes_read: after.backend.bytes_read - before.backend.bytes_read,
                bytes_written: after.backend.bytes_written - before.backend.bytes_written,
                real_blocks_fetched: after.backend.real_blocks_fetched
                    - before.backend.real_blocks_fetched,
                buckets_decrypted: after.backend.buckets_decrypted
                    - before.backend.buckets_decrypted,
                buckets_encrypted: after.backend.buckets_encrypted
                    - before.backend.buckets_encrypted,
                blocks_evicted: after.backend.blocks_evicted - before.backend.blocks_evicted,
                dummies_written: after.backend.dummies_written - before.backend.dummies_written,
                // Not a difference: `merge_from` folds maxima, so handing
                // it the new high-water mark is exactly right.
                max_stash_occupancy: after.backend.max_stash_occupancy,
            },
        };
        self.merge_from(&diff);
    }

    /// Total backend path accesses of any kind.
    pub fn total_backend_accesses(&self) -> u64 {
        self.data_backend_accesses + self.posmap_backend_accesses + self.group_remap_accesses
    }

    /// Total bytes moved to/from untrusted memory.
    pub fn total_bytes_moved(&self) -> u64 {
        self.data_bytes_moved + self.posmap_bytes_moved
    }

    /// Fraction of moved bytes attributable to PosMap management (the metric
    /// of Figure 3 and the white regions of Figure 7).
    pub fn posmap_bandwidth_fraction(&self) -> Option<f64> {
        let total = self.total_bytes_moved();
        if total == 0 {
            None
        } else {
            Some(self.posmap_bytes_moved as f64 / total as f64)
        }
    }

    /// Average bytes moved per frontend request (the y-axis of Figure 7).
    pub fn bytes_per_request(&self) -> Option<f64> {
        if self.frontend_requests == 0 {
            None
        } else {
            Some(self.total_bytes_moved() as f64 / self.frontend_requests as f64)
        }
    }

    /// Average backend accesses per frontend request (1.0 means recursion is
    /// free; the baseline design sits at H).
    pub fn backend_accesses_per_request(&self) -> Option<f64> {
        if self.frontend_requests == 0 {
            None
        } else {
            Some(self.total_backend_accesses() as f64 / self.frontend_requests as f64)
        }
    }

    /// Ratio of Merkle-equivalent hashes to PMMAC hashes over the same trace
    /// (the §6.3 hash-bandwidth reduction), or `None` if PMMAC was off.
    pub fn hash_reduction_factor(&self) -> Option<f64> {
        let pmmac = self.macs_verified + self.macs_computed;
        if pmmac == 0 {
            None
        } else {
            Some(self.merkle_equivalent_hashes as f64 / pmmac as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics_handle_empty_stats() {
        let s = FrontendStats::default();
        assert_eq!(s.posmap_bandwidth_fraction(), None);
        assert_eq!(s.bytes_per_request(), None);
        assert_eq!(s.backend_accesses_per_request(), None);
        assert_eq!(s.hash_reduction_factor(), None);
    }

    #[test]
    fn merged_stats_sum_counts_and_max_stash() {
        let a = FrontendStats {
            frontend_requests: 10,
            data_bytes_moved: 100,
            backend: path_oram::BackendStats {
                path_accesses: 5,
                max_stash_occupancy: 7,
                ..Default::default()
            },
            plb: PlbStats {
                hits: 3,
                misses: 1,
                evictions: 0,
            },
            ..FrontendStats::default()
        };
        let b = FrontendStats {
            frontend_requests: 4,
            data_bytes_moved: 60,
            backend: path_oram::BackendStats {
                path_accesses: 2,
                max_stash_occupancy: 11,
                ..Default::default()
            },
            plb: PlbStats {
                hits: 1,
                misses: 2,
                evictions: 1,
            },
            ..FrontendStats::default()
        };
        let merged = FrontendStats::merged([&a, &b]);
        assert_eq!(merged.frontend_requests, 14);
        assert_eq!(merged.data_bytes_moved, 160);
        assert_eq!(merged.backend.path_accesses, 7);
        assert_eq!(merged.backend.max_stash_occupancy, 11);
        assert_eq!(merged.plb.hits, 4);
        assert_eq!(merged.plb.misses, 3);
        assert_eq!(merged.plb.evictions, 1);
        // Merging nothing is the identity.
        assert_eq!(FrontendStats::merged([]), FrontendStats::default());
    }

    #[test]
    fn derived_metrics_compute_expected_ratios() {
        let s = FrontendStats {
            frontend_requests: 10,
            data_backend_accesses: 10,
            posmap_backend_accesses: 30,
            data_bytes_moved: 1000,
            posmap_bytes_moved: 3000,
            macs_verified: 20,
            macs_computed: 20,
            merkle_equivalent_hashes: 4000,
            ..FrontendStats::default()
        };
        assert_eq!(s.total_backend_accesses(), 40);
        assert_eq!(s.posmap_bandwidth_fraction(), Some(0.75));
        assert_eq!(s.bytes_per_request(), Some(400.0));
        assert_eq!(s.backend_accesses_per_request(), Some(4.0));
        assert_eq!(s.hash_reduction_factor(), Some(100.0));
    }
}
