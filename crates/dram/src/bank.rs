//! Per-bank row-buffer state machine.

use crate::config::DramConfig;

/// The state of a single DRAM bank: which row (if any) is open in its row
/// buffer and when the bank next becomes available for a new command.
#[derive(Debug, Clone, Default)]
pub struct BankState {
    /// Currently open row, if any.
    open_row: Option<usize>,
    /// DRAM cycle at which the bank can accept the next column command.
    ready_cycle: u64,
    /// Cycle at which the currently open row was activated (for tRAS).
    activate_cycle: u64,
}

/// Outcome of issuing a column access to a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankAccess {
    /// Cycle at which data begins transferring on the bus.
    pub data_start: u64,
    /// Whether the access hit the open row buffer.
    pub row_hit: bool,
}

impl BankState {
    /// Issues a column access to `row` at time `now` (DRAM cycles), returning
    /// when the data transfer may begin and whether it was a row-buffer hit.
    ///
    /// The model serialises commands within a bank (tRCD/tRP/tRAS honoured)
    /// but lets different banks proceed independently; the caller arbitrates
    /// the shared data bus.
    pub fn access(&mut self, row: usize, now: u64, cfg: &DramConfig) -> BankAccess {
        let start = now.max(self.ready_cycle);
        match self.open_row {
            Some(open) if open == row => {
                let data_start = start + cfg.t_cas;
                self.ready_cycle = start + cfg.burst_cycles();
                BankAccess {
                    data_start,
                    row_hit: true,
                }
            }
            Some(_) => {
                // Precharge (respecting tRAS), activate, then CAS.
                let precharge_start = start.max(self.activate_cycle + cfg.t_ras);
                let activate = precharge_start + cfg.t_rp;
                let data_start = activate + cfg.t_rcd + cfg.t_cas;
                self.open_row = Some(row);
                self.activate_cycle = activate;
                self.ready_cycle = activate + cfg.t_rcd + cfg.burst_cycles();
                BankAccess {
                    data_start,
                    row_hit: false,
                }
            }
            None => {
                let activate = start;
                let data_start = activate + cfg.t_rcd + cfg.t_cas;
                self.open_row = Some(row);
                self.activate_cycle = activate;
                self.ready_cycle = activate + cfg.t_rcd + cfg.burst_cycles();
                BankAccess {
                    data_start,
                    row_hit: false,
                }
            }
        }
    }

    /// Returns the currently open row, if any.
    pub fn open_row(&self) -> Option<usize> {
        self.open_row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_is_a_row_miss_with_activate_latency() {
        let cfg = DramConfig::default();
        let mut bank = BankState::default();
        let acc = bank.access(5, 0, &cfg);
        assert!(!acc.row_hit);
        assert_eq!(acc.data_start, cfg.t_rcd + cfg.t_cas);
        assert_eq!(bank.open_row(), Some(5));
    }

    #[test]
    fn second_access_to_same_row_is_a_hit() {
        let cfg = DramConfig::default();
        let mut bank = BankState::default();
        let first = bank.access(5, 0, &cfg);
        let second = bank.access(5, first.data_start, &cfg);
        assert!(second.row_hit);
        assert!(second.data_start > first.data_start);
    }

    #[test]
    fn row_conflict_pays_precharge_and_activate() {
        let cfg = DramConfig::default();
        let mut bank = BankState::default();
        let first = bank.access(5, 0, &cfg);
        let conflict = bank.access(6, first.data_start, &cfg);
        assert!(!conflict.row_hit);
        // Must include at least tRP + tRCD + tCAS beyond the issue time.
        assert!(conflict.data_start >= first.data_start + cfg.t_rp + cfg.t_rcd + cfg.t_cas);
        assert_eq!(bank.open_row(), Some(6));
    }

    #[test]
    fn hits_pipeline_at_burst_rate() {
        let cfg = DramConfig::default();
        let mut bank = BankState::default();
        bank.access(1, 0, &cfg);
        let a = bank.access(1, 1000, &cfg);
        let b = bank.access(1, 1000, &cfg);
        // Back-to-back hits issued at the same time are separated by the
        // burst occupancy, not the full CAS latency.
        assert_eq!(b.data_start - a.data_start, cfg.burst_cycles());
    }
}
