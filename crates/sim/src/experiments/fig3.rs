//! Figure 3: the percentage of bytes read from PosMap ORAMs in a full
//! Recursive ORAM access, as a function of Data ORAM capacity.
//!
//! This is the motivating figure of the paper: with small (64–128 byte)
//! blocks, 39–56 % of the bytes moved by a baseline Recursive ORAM belong to
//! PosMap ORAM lookups, and the fraction grows with capacity.  The figure is
//! purely analytic — it depends only on the tree geometries of the recursion,
//! which are `R_X8`'s trees as the builder resolves them (X = 8, 32-byte
//! PosMap blocks, Z = 4, buckets padded to 512 bits, following \[26\]).

use crate::report::{f2, format_table};
use freecursive::{OramBuilder, SchemePoint};
use path_oram::{Durability, OramParams, StorageKind};

/// One curve of Figure 3 (a block-size / on-chip-PosMap combination).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fig3Series {
    /// Data ORAM block size in bytes (64 or 128).
    pub block_bytes: usize,
    /// On-chip PosMap budget in bytes (8 KB or 256 KB).
    pub onchip_posmap_bytes: usize,
}

impl Fig3Series {
    /// The series label used in the figure (e.g. `b64_pm8`).
    pub fn label(&self) -> String {
        format!(
            "b{}_pm{}",
            self.block_bytes,
            self.onchip_posmap_bytes / 1024
        )
    }
}

/// One point of one curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Point {
    /// log2 of the Data ORAM capacity in bytes (the x-axis, 30–40).
    pub log2_capacity: u32,
    /// Number of ORAMs in the recursion (H).
    pub num_levels: u32,
    /// Percentage of bytes moved that belong to PosMap ORAMs (the y-axis).
    pub posmap_percent: f64,
}

/// The full figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Result {
    /// `(series, points)` pairs.
    pub series: Vec<(Fig3Series, Vec<Fig3Point>)>,
}

/// Computes the percentage of bytes from PosMap ORAMs for one configuration
/// of `R_X8`, returning it with the number of ORAMs in the recursion.
pub fn posmap_byte_percent(
    capacity_bytes: u64,
    block_bytes: usize,
    onchip_posmap_bytes: usize,
    z: usize,
) -> (u32, f64) {
    // On-chip PosMap entries are (uncompressed) leaves of ~4 bytes.  Storage
    // is pinned: the figure is analytic and never reads the environment.
    let config = OramBuilder::for_scheme(SchemePoint::RX8)
        .num_blocks(capacity_bytes / block_bytes as u64)
        .block_bytes(block_bytes)
        .z(z)
        .onchip_entries((onchip_posmap_bytes / 4) as u64)
        .storage(StorageKind::Mem)
        .durability(Durability::None)
        .freecursive_config()
        .expect("every Figure 3 point is a valid R_X8 configuration");
    // One tree per level: the Data ORAM first, then the PosMap ORAMs.
    let access_bytes: Vec<u64> = config
        .trees()
        .into_iter()
        .map(|(blocks, payload_bytes)| OramParams::new(blocks, payload_bytes, z).access_bytes())
        .collect();
    let posmap_bytes: u64 = access_bytes[1..].iter().sum();
    let total_bytes: u64 = access_bytes.iter().sum();
    let percent = 100.0 * posmap_bytes as f64 / total_bytes as f64;
    (access_bytes.len() as u32, percent)
}

/// Regenerates Figure 3.
pub fn run() -> Fig3Result {
    let series_defs = [
        Fig3Series {
            block_bytes: 64,
            onchip_posmap_bytes: 8 << 10,
        },
        Fig3Series {
            block_bytes: 128,
            onchip_posmap_bytes: 8 << 10,
        },
        Fig3Series {
            block_bytes: 64,
            onchip_posmap_bytes: 256 << 10,
        },
        Fig3Series {
            block_bytes: 128,
            onchip_posmap_bytes: 256 << 10,
        },
    ];
    let mut series = Vec::new();
    for def in series_defs {
        let mut points = Vec::new();
        for log2_capacity in 30..=40u32 {
            let (num_levels, posmap_percent) = posmap_byte_percent(
                1u64 << log2_capacity,
                def.block_bytes,
                def.onchip_posmap_bytes,
                4,
            );
            points.push(Fig3Point {
                log2_capacity,
                num_levels,
                posmap_percent,
            });
        }
        series.push((def, points));
    }
    Fig3Result { series }
}

impl Fig3Result {
    /// Renders the figure as a table (capacity rows × series columns).
    pub fn render(&self) -> String {
        let mut headers = vec!["log2(capacity)"];
        let labels: Vec<String> = self.series.iter().map(|(s, _)| s.label()).collect();
        for l in &labels {
            headers.push(l.as_str());
        }
        let mut rows = Vec::new();
        for (i, point) in self.series[0].1.iter().enumerate() {
            let mut row = vec![point.log2_capacity.to_string()];
            for (_, points) in &self.series {
                row.push(f2(points[i].posmap_percent));
            }
            rows.push(row);
        }
        format!(
            "Figure 3: % of bytes from PosMap ORAMs per Recursive ORAM access (X=8, Z=4)\n{}",
            format_table(&headers, &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_gig_64_byte_point_is_in_the_paper_range() {
        // Paper: at 4 GB, 39–56% of bandwidth is PosMap lookups depending on
        // block size.
        let (_, b64) = posmap_byte_percent(4 << 30, 64, 8 << 10, 4);
        let (_, b128) = posmap_byte_percent(4 << 30, 128, 8 << 10, 4);
        assert!(b64 > 40.0 && b64 < 70.0, "b64_pm8 at 4GB: {b64}");
        assert!(b128 > 30.0 && b128 < 60.0, "b128_pm8 at 4GB: {b128}");
        assert!(b64 > b128, "smaller blocks spend relatively more on PosMap");
    }

    #[test]
    fn percentage_grows_with_capacity() {
        let result = run();
        for (series, points) in &result.series {
            let first = points.first().unwrap().posmap_percent;
            let last = points.last().unwrap().posmap_percent;
            assert!(
                last > first,
                "{}: PosMap share must grow with capacity ({first} -> {last})",
                series.label()
            );
        }
    }

    #[test]
    fn bigger_onchip_posmap_only_slightly_dampens_the_effect() {
        let (_, pm8) = posmap_byte_percent(4 << 30, 64, 8 << 10, 4);
        let (_, pm256) = posmap_byte_percent(4 << 30, 64, 256 << 10, 4);
        assert!(pm256 < pm8);
        assert!(
            pm8 - pm256 < 20.0,
            "the dampening is modest: {pm8} vs {pm256}"
        );
    }

    #[test]
    fn kinks_appear_when_recursion_depth_increases() {
        let result = run();
        let (_, points) = &result.series[0];
        let depths: Vec<u32> = points.iter().map(|p| p.num_levels).collect();
        assert!(depths.windows(2).all(|w| w[1] >= w[0]));
        assert!(depths.last().unwrap() > depths.first().unwrap());
    }

    #[test]
    fn render_contains_all_series_labels() {
        let text = run().render();
        for label in ["b64_pm8", "b128_pm8", "b64_pm256", "b128_pm256"] {
            assert!(text.contains(label), "missing {label}");
        }
    }
}
