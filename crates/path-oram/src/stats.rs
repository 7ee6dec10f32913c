//! Backend activity statistics.

/// Counters accumulated by [`crate::PathOramBackend`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Path accesses performed (read, write or readrmv).
    pub path_accesses: u64,
    /// Append operations (no tree access).
    pub appends: u64,
    /// Bytes read from untrusted memory.
    pub bytes_read: u64,
    /// Bytes written to untrusted memory.
    pub bytes_written: u64,
    /// Real blocks encountered while reading paths.
    pub real_blocks_fetched: u64,
    /// Buckets run through the cipher when reading paths (zero when the
    /// encryption mode is `None`).  Together with `buckets_encrypted` this
    /// makes the crypto work per access visible in benches and figures.
    pub buckets_decrypted: u64,
    /// Buckets run through the cipher when writing paths back (zero when
    /// the encryption mode is `None`).
    pub buckets_encrypted: u64,
    /// Real blocks evicted back into the tree.
    pub blocks_evicted: u64,
    /// Dummy blocks written during evictions.
    pub dummies_written: u64,
    /// Maximum stash occupancy observed (after eviction).
    pub max_stash_occupancy: usize,
}

impl BackendStats {
    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Average bytes moved per path access, or `None` if no accesses
    /// occurred.
    pub fn bytes_per_access(&self) -> Option<f64> {
        if self.path_accesses == 0 {
            None
        } else {
            Some(self.total_bytes() as f64 / self.path_accesses as f64)
        }
    }

    /// Serialises the counters into a snapshot sink (field order fixed by
    /// [`BackendStats::load`]; both sides use exhaustive field lists so a
    /// new counter fails to compile here until it is persisted too).
    pub fn save(&self, out: &mut Vec<u8>) {
        use crate::snapshot::put_u64;
        let BackendStats {
            path_accesses,
            appends,
            bytes_read,
            bytes_written,
            real_blocks_fetched,
            buckets_decrypted,
            buckets_encrypted,
            blocks_evicted,
            dummies_written,
            max_stash_occupancy,
        } = self;
        put_u64(out, *path_accesses);
        put_u64(out, *appends);
        put_u64(out, *bytes_read);
        put_u64(out, *bytes_written);
        put_u64(out, *real_blocks_fetched);
        put_u64(out, *buckets_decrypted);
        put_u64(out, *buckets_encrypted);
        put_u64(out, *blocks_evicted);
        put_u64(out, *dummies_written);
        put_u64(out, *max_stash_occupancy as u64);
    }

    /// Deserialises counters written by [`BackendStats::save`].
    ///
    /// # Errors
    ///
    /// [`crate::OramError::Snapshot`] on truncation.
    pub fn load(r: &mut crate::snapshot::SnapReader<'_>) -> Result<Self, crate::OramError> {
        Ok(BackendStats {
            path_accesses: r.u64()?,
            appends: r.u64()?,
            bytes_read: r.u64()?,
            bytes_written: r.u64()?,
            real_blocks_fetched: r.u64()?,
            buckets_decrypted: r.u64()?,
            buckets_encrypted: r.u64()?,
            blocks_evicted: r.u64()?,
            dummies_written: r.u64()?,
            max_stash_occupancy: r.u64()? as usize,
        })
    }

    /// Accumulates another backend's counters into this one (used by
    /// frontends that own several backends, e.g. a frontend without a
    /// PLB, which keeps one tree per recursion level).
    pub fn accumulate(&mut self, other: &BackendStats) {
        self.path_accesses += other.path_accesses;
        self.appends += other.appends;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.real_blocks_fetched += other.real_blocks_fetched;
        self.buckets_decrypted += other.buckets_decrypted;
        self.buckets_encrypted += other.buckets_encrypted;
        self.blocks_evicted += other.blocks_evicted;
        self.dummies_written += other.dummies_written;
        self.max_stash_occupancy = self.max_stash_occupancy.max(other.max_stash_occupancy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_per_access_handles_zero() {
        let mut s = BackendStats::default();
        assert_eq!(s.bytes_per_access(), None);
        s.path_accesses = 2;
        s.bytes_read = 100;
        s.bytes_written = 100;
        assert_eq!(s.bytes_per_access(), Some(100.0));
    }
}
