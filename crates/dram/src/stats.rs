//! DRAM activity statistics.

/// Counters accumulated by [`crate::DramSim`] over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Number of read requests (of any size).
    pub read_requests: u64,
    /// Number of write requests (of any size).
    pub write_requests: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Bursts that hit an open row buffer.
    pub row_hits: u64,
    /// Bursts that required precharge/activate.
    pub row_misses: u64,
}

impl DramStats {
    /// Total bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Row-buffer hit rate over all bursts, or `None` if no bursts were
    /// issued.
    pub fn row_hit_rate(&self) -> Option<f64> {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            None
        } else {
            Some(self.row_hits as f64 / total as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_empty_and_nonempty() {
        let mut s = DramStats::default();
        assert_eq!(s.row_hit_rate(), None);
        s.row_hits = 3;
        s.row_misses = 1;
        assert_eq!(s.row_hit_rate(), Some(0.75));
    }

    #[test]
    fn total_bytes_sums_both_directions() {
        let s = DramStats {
            bytes_read: 10,
            bytes_written: 5,
            ..DramStats::default()
        };
        assert_eq!(s.total_bytes(), 15);
    }
}
