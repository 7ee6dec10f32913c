//! Table 2: ORAM tree access latency (in processor cycles) as a function of
//! DRAM channel count, for the 4 GB / 64-byte-block / Z = 4 configuration.

use crate::latency::OramLatencyModel;
use crate::report::format_table;
use dram_sim::DramConfig;
use path_oram::OramParams;

/// One row of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Table2Row {
    /// DRAM channel count.
    pub channels: usize,
    /// Average ORAM tree latency in processor cycles.
    pub tree_latency_cycles: u64,
}

/// The full table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Result {
    /// One row per channel count (1, 2, 4, 8).
    pub rows: Vec<Table2Row>,
}

/// Regenerates Table 2 with `samples` random paths per channel count.
pub fn run(samples: usize) -> Table2Result {
    let rows = [1usize, 2, 4, 8]
        .into_iter()
        .map(|channels| {
            let dram = DramConfig {
                channels,
                ..DramConfig::default()
            };
            let params = OramParams::new(1 << 26, 64, 4);
            let model = OramLatencyModel::new(params, dram, samples);
            Table2Row {
                channels,
                tree_latency_cycles: model.tree_latency_cycles(),
            }
        })
        .collect();
    Table2Result { rows }
}

impl Table2Result {
    /// Renders the table; the paper's values are 2147 / 1208 / 697 / 463.
    pub fn render(&self) -> String {
        let paper = [2147u64, 1208, 697, 463];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .zip(paper.iter())
            .map(|(r, p)| {
                vec![
                    r.channels.to_string(),
                    r.tree_latency_cycles.to_string(),
                    p.to_string(),
                ]
            })
            .collect();
        format!(
            "Table 2: ORAM access latency by DRAM channel count (4 GB ORAM, 64 B blocks, Z=4)\n{}",
            format_table(&["channels", "measured (cycles)", "paper (cycles)"], &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_monotonically_decreasing_in_channels() {
        let t = run(20);
        assert_eq!(t.rows.len(), 4);
        assert!(t
            .rows
            .windows(2)
            .all(|w| w[1].tree_latency_cycles < w[0].tree_latency_cycles));
    }

    #[test]
    fn two_channel_row_is_near_the_paper_value() {
        let t = run(30);
        let two = t.rows.iter().find(|r| r.channels == 2).unwrap();
        // Paper: 1208 cycles.  Accept a generous band for the simplified DRAM
        // model; the point of the table is the scaling trend.
        assert!(
            (700..2200).contains(&two.tree_latency_cycles),
            "2-channel latency {}",
            two.tree_latency_cycles
        );
    }

    #[test]
    fn render_mentions_every_channel_count() {
        let text = run(5).render();
        for c in ["1", "2", "4", "8"] {
            assert!(text.contains(c));
        }
    }
}
