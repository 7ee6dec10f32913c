//! An analytical area model for the Freecursive ORAM controller in a 32 nm
//! process, reproducing the structure of the paper's post-synthesis results
//! (Table 3, §7.2) and the alternative-design estimates of §7.2.3.
//! (`docs/ARCHITECTURE.md` at the workspace root places the area model in
//! the evaluation stack.)
//!
//! The original numbers come from Synopsys Design Compiler on the authors'
//! Verilog; synthesising real RTL is outside the scope of this algorithmic
//! reproduction, so this crate models each block from first principles —
//! SRAM macros as `fixed + per-KB` area, the AES datapath as one pipelined
//! core per 128 bits/cycle of DRAM bandwidth, the SHA3 unit and control logic
//! as constants — with the per-block coefficients calibrated against Table 3.
//! The *structure* the paper emphasises is preserved:
//!
//! * the Frontend (PosMap + PLB + PMMAC) is DRAM-bandwidth independent, so its
//!   share of total area shrinks as channel count grows;
//! * PMMAC costs ≈12–13 % of the design and the PLB ≈10 %;
//! * dropping recursion (a flat on-chip PosMap) costs >10× the area;
//! * growing the PLB to 64 KB adds ≈29 % area to the 1-channel design.
//!
//! # Examples
//!
//! ```
//! use area_model::AreaModel;
//!
//! let model = AreaModel::default();
//! let b = model.breakdown(2);
//! assert!(b.frontend_fraction() > 0.2 && b.frontend_fraction() < 0.4);
//! assert!(b.total_mm2 > 0.2 && b.total_mm2 < 0.6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Area of an SRAM macro: a fixed periphery cost plus a per-KB cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramMacro {
    /// Fixed periphery/decoder area in mm².
    pub fixed_mm2: f64,
    /// Incremental area per KB of capacity in mm².
    pub per_kb_mm2: f64,
}

impl SramMacro {
    /// Area of a macro holding `bytes` bytes.
    pub fn area(&self, bytes: u64) -> f64 {
        self.fixed_mm2 + self.per_kb_mm2 * (bytes as f64 / 1024.0)
    }
}

/// Physical design parameters of the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaParams {
    /// On-chip PosMap capacity in bytes (8 KB in the prototype).
    pub onchip_posmap_bytes: u64,
    /// PLB capacity in bytes (8 KB in the prototype, 64 KB in §7.2.3).
    pub plb_bytes: u64,
    /// Whether PMMAC (the SHA3 unit and its datapath) is instantiated.
    pub pmmac: bool,
    /// Stash capacity in blocks.
    pub stash_blocks: u64,
    /// ORAM block size in bytes.
    pub block_bytes: u64,
    /// PosMap SRAM macro coefficients.
    pub posmap_sram: SramMacro,
    /// PLB SRAM macro coefficients (data + tag arrays + comparators).
    pub plb_sram: SramMacro,
    /// Stash SRAM macro coefficients.
    pub stash_sram: SramMacro,
    /// Area of one pipelined AES-128 core plus its share of the read/write
    /// path, in mm².
    pub aes_core_mm2: f64,
    /// Fixed AES-path control area in mm².
    pub aes_fixed_mm2: f64,
    /// Area of the SHA3-224 core and PMMAC control in mm².
    pub pmmac_mm2: f64,
    /// Frontend miscellaneous control logic in mm².
    pub misc_mm2: f64,
    /// Stash datapath growth per doubling of channel count (fraction).
    pub stash_width_scaling: f64,
}

impl Default for AreaParams {
    fn default() -> Self {
        // Coefficients calibrated so that the 1/2/4-channel breakdowns land
        // on Table 3 (±10%).
        Self {
            onchip_posmap_bytes: 8 << 10,
            plb_bytes: 8 << 10,
            pmmac: true,
            stash_blocks: 200,
            block_bytes: 64,
            posmap_sram: SramMacro {
                fixed_mm2: 0.013,
                per_kb_mm2: 0.00127,
            },
            plb_sram: SramMacro {
                fixed_mm2: 0.0216,
                per_kb_mm2: 0.00132,
            },
            stash_sram: SramMacro {
                fixed_mm2: 0.075,
                per_kb_mm2: 0.00115,
            },
            aes_core_mm2: 0.110,
            aes_fixed_mm2: 0.020,
            pmmac_mm2: 0.0390,
            misc_mm2: 0.0045,
            stash_width_scaling: 0.05,
        }
    }
}

/// The per-component area breakdown for one channel count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaBreakdown {
    /// DRAM channel count the breakdown is for.
    pub channels: usize,
    /// On-chip PosMap area (mm²).
    pub posmap_mm2: f64,
    /// PLB area (mm²).
    pub plb_mm2: f64,
    /// PMMAC area (mm²).
    pub pmmac_mm2: f64,
    /// Frontend miscellaneous area (mm²).
    pub misc_mm2: f64,
    /// Stash area (mm²).
    pub stash_mm2: f64,
    /// AES read/write path area (mm²).
    pub aes_mm2: f64,
    /// Total cell area (mm²).
    pub total_mm2: f64,
}

impl AreaBreakdown {
    /// Frontend area (PosMap + PLB + PMMAC + misc) in mm².
    pub fn frontend_mm2(&self) -> f64 {
        self.posmap_mm2 + self.plb_mm2 + self.pmmac_mm2 + self.misc_mm2
    }

    /// Backend area (stash + AES) in mm².
    pub fn backend_mm2(&self) -> f64 {
        self.stash_mm2 + self.aes_mm2
    }

    /// Frontend share of total area.
    pub fn frontend_fraction(&self) -> f64 {
        self.frontend_mm2() / self.total_mm2
    }

    /// PMMAC share of total area.
    pub fn pmmac_fraction(&self) -> f64 {
        self.pmmac_mm2 / self.total_mm2
    }

    /// PLB share of total area.
    pub fn plb_fraction(&self) -> f64 {
        self.plb_mm2 / self.total_mm2
    }
}

/// The analytical area model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaModel {
    /// Physical parameters.
    pub params: AreaParams,
}

impl AreaModel {
    /// Creates a model with explicit parameters.
    pub fn new(params: AreaParams) -> Self {
        Self { params }
    }

    /// Number of pipelined AES cores needed to rate-match `channels` DRAM
    /// channels (one 128-bit core covers two 64-bit channels — the design
    /// artifact noted in the paper's footnote 5).
    pub fn aes_cores(&self, channels: usize) -> usize {
        channels.div_ceil(2).max(1)
    }

    /// Computes the area breakdown for a given DRAM channel count.
    pub fn breakdown(&self, channels: usize) -> AreaBreakdown {
        let p = &self.params;
        let posmap_mm2 = p.posmap_sram.area(p.onchip_posmap_bytes);
        let plb_mm2 = p.plb_sram.area(p.plb_bytes);
        let pmmac_mm2 = if p.pmmac { p.pmmac_mm2 } else { 0.0 };
        let misc_mm2 = p.misc_mm2;
        // The stash data array is sized by capacity; its datapath widens with
        // the DRAM bus.
        let width_factor = 1.0 + p.stash_width_scaling * (channels as f64).log2();
        let stash_mm2 = p.stash_sram.area(p.stash_blocks * p.block_bytes) * width_factor;
        let aes_mm2 = p.aes_fixed_mm2 + p.aes_core_mm2 * self.aes_cores(channels) as f64;
        let total_mm2 = posmap_mm2 + plb_mm2 + pmmac_mm2 + misc_mm2 + stash_mm2 + aes_mm2;
        AreaBreakdown {
            channels,
            posmap_mm2,
            plb_mm2,
            pmmac_mm2,
            misc_mm2,
            stash_mm2,
            aes_mm2,
            total_mm2,
        }
    }

    /// §7.2.3 alternative: the area of a design that stores the whole PosMap
    /// on chip (no recursion), for an ORAM of `num_blocks` blocks and a tree
    /// with `leaf_bits`-bit leaf labels.
    pub fn flat_posmap_total(&self, channels: usize, num_blocks: u64, leaf_bits: u32) -> f64 {
        let flat_bytes = num_blocks * u64::from(leaf_bits) / 8;
        let base = self.breakdown(channels);
        base.total_mm2 - base.posmap_mm2 + self.params.posmap_sram.area(flat_bytes)
    }

    /// §7.2.3 alternative: total area with a different PLB capacity.
    pub fn with_plb_bytes(&self, plb_bytes: u64) -> Self {
        Self {
            params: AreaParams {
                plb_bytes,
                ..self.params
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 3 totals: .316, .326, .438 mm² for 1, 2, 4 channels.
    #[test]
    fn totals_track_table_3() {
        let model = AreaModel::default();
        let expected = [(1usize, 0.316), (2, 0.326), (4, 0.438)];
        for (channels, paper) in expected {
            let got = model.breakdown(channels).total_mm2;
            let err = (got - paper).abs() / paper;
            assert!(
                err < 0.10,
                "{channels} channels: got {got:.3}, paper {paper}"
            );
        }
    }

    #[test]
    fn frontend_fraction_shrinks_with_channel_count() {
        let model = AreaModel::default();
        let f1 = model.breakdown(1).frontend_fraction();
        let f2 = model.breakdown(2).frontend_fraction();
        let f4 = model.breakdown(4).frontend_fraction();
        assert!(f1 >= f2 && f2 >= f4, "{f1} {f2} {f4}");
        // Paper: 31.2%, 30.0%, 22.5%.
        assert!((f1 - 0.312).abs() < 0.06);
        assert!((f4 - 0.225).abs() < 0.06);
    }

    #[test]
    fn pmmac_and_plb_shares_match_paper_claims() {
        let model = AreaModel::default();
        for channels in [1usize, 2, 4] {
            let b = model.breakdown(channels);
            assert!(b.pmmac_fraction() <= 0.135, "PMMAC ≤ 13% of area");
            assert!(b.plb_fraction() <= 0.115, "PLB ≤ ~10% of area");
        }
    }

    #[test]
    fn aes_core_count_follows_bandwidth() {
        let model = AreaModel::default();
        assert_eq!(model.aes_cores(1), 1);
        assert_eq!(model.aes_cores(2), 1);
        assert_eq!(model.aes_cores(4), 2);
        assert_eq!(model.aes_cores(8), 4);
        // The 1→2 channel area step is therefore small (footnote 5).
        let a1 = model.breakdown(1).aes_mm2;
        let a2 = model.breakdown(2).aes_mm2;
        let a4 = model.breakdown(4).aes_mm2;
        assert_eq!(a1, a2);
        assert!(a4 > a2);
    }

    #[test]
    fn dropping_recursion_costs_more_than_10x() {
        // §7.2.3: a 2^20-entry on-chip PosMap (4 KB blocks, 20-bit leaves)
        // pushes the 2-channel design to ~5 mm², >10× the recursive design.
        let model = AreaModel::default();
        let recursive = model.breakdown(2).total_mm2;
        let flat = model.flat_posmap_total(2, 1 << 20, 20);
        assert!(
            flat / recursive > 10.0,
            "flat {flat:.2} vs recursive {recursive:.3}"
        );
        // And doubling the capacity roughly doubles the flat cost.
        let flat2 = model.flat_posmap_total(2, 1 << 21, 21);
        assert!(flat2 > 1.8 * flat - recursive);
    }

    #[test]
    fn a_64kb_plb_adds_roughly_29_percent_to_one_channel_design() {
        let model = AreaModel::default();
        let base = model.breakdown(1).total_mm2;
        let big = model.with_plb_bytes(64 << 10).breakdown(1);
        let increase = big.total_mm2 / base - 1.0;
        assert!(
            (increase - 0.29).abs() < 0.08,
            "area increase {increase:.2} (paper: 29%)"
        );
        // And the big PLB is ~26% of the enlarged design.
        assert!((big.plb_fraction() - 0.26).abs() < 0.06);
    }

    #[test]
    fn disabling_pmmac_removes_its_area() {
        let params = AreaParams {
            pmmac: false,
            ..AreaParams::default()
        };
        let without = AreaModel::new(params).breakdown(2);
        let with = AreaModel::default().breakdown(2);
        assert!(without.total_mm2 < with.total_mm2);
        assert_eq!(without.pmmac_mm2, 0.0);
    }

    #[test]
    fn sram_macro_area_is_affine_in_capacity() {
        let m = SramMacro {
            fixed_mm2: 0.01,
            per_kb_mm2: 0.001,
        };
        assert!((m.area(8 << 10) - 0.018).abs() < 1e-12);
        assert!((m.area(64 << 10) - 0.074).abs() < 1e-12);
    }
}
