//! Table 3: post-synthesis area breakdown of the ORAM controller for 1, 2 and
//! 4 DRAM channels, plus the §7.2.3 alternative-design estimates.

use crate::report::{f2, format_table};
use area_model::{AreaBreakdown, AreaModel};

/// The full table plus the alternatives.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Result {
    /// Breakdown for 1, 2 and 4 channels.
    pub breakdowns: Vec<AreaBreakdown>,
    /// Total area of the no-recursion (flat on-chip PosMap) alternative for
    /// 2 channels, in mm² (§7.2.3: ~5 mm²).
    pub flat_posmap_mm2: f64,
    /// Total area with a 64 KB PLB for 1 channel, in mm².
    pub plb64_total_mm2: f64,
    /// Relative area increase of the 64 KB PLB design (§7.2.3: 29 %).
    pub plb64_increase: f64,
}

/// Regenerates Table 3 from the analytical area model.
pub fn run() -> Table3Result {
    let model = AreaModel::default();
    let breakdowns = vec![model.breakdown(1), model.breakdown(2), model.breakdown(4)];
    let flat_posmap_mm2 = model.flat_posmap_total(2, 1 << 20, 20);
    let plb64 = model.with_plb_bytes(64 << 10).breakdown(1);
    let plb64_increase = plb64.total_mm2 / breakdowns[0].total_mm2 - 1.0;
    Table3Result {
        breakdowns,
        flat_posmap_mm2,
        plb64_total_mm2: plb64.total_mm2,
        plb64_increase,
    }
}

impl Table3Result {
    /// Renders the table in the same layout as the paper (percent of total
    /// area per component, total in mm²).
    pub fn render(&self) -> String {
        let headers = ["component", "1 channel", "2 channels", "4 channels"];
        let pct = |part: f64, b: &AreaBreakdown| f2(100.0 * part / b.total_mm2);
        let row = |name: &str, f: &dyn Fn(&AreaBreakdown) -> f64| -> Vec<String> {
            let mut cells = vec![name.to_string()];
            for b in &self.breakdowns {
                cells.push(pct(f(b), b));
            }
            cells
        };
        let mut rows = vec![
            row("Frontend %", &|b| b.frontend_mm2()),
            row("  PosMap %", &|b| b.posmap_mm2),
            row("  PLB %", &|b| b.plb_mm2),
            row("  PMMAC %", &|b| b.pmmac_mm2),
            row("  Misc %", &|b| b.misc_mm2),
            row("Backend %", &|b| b.backend_mm2()),
            row("  Stash %", &|b| b.stash_mm2),
            row("  AES %", &|b| b.aes_mm2),
        ];
        let mut total = vec!["Total cell area (mm2)".to_string()];
        for b in &self.breakdowns {
            total.push(format!("{:.3}", b.total_mm2));
        }
        rows.push(total);
        format!(
            "Table 3: ORAM controller area breakdown (32 nm, analytical model calibrated to the paper)\n{}\n\
             Alternatives (7.2.3):\n\
             - no recursion, flat on-chip PosMap (2 ch):  {:.2} mm2 (paper: ~5 mm2, >10x)\n\
             - 64 KB PLB (1 ch): {:.3} mm2, +{:.0}% (paper: +29%)\n",
            format_table(&headers, &rows),
            self.flat_posmap_mm2,
            self.plb64_total_mm2,
            self.plb64_increase * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_alternatives_are_reported() {
        let t = run();
        assert_eq!(t.breakdowns.len(), 3);
        assert!(t.flat_posmap_mm2 > 10.0 * t.breakdowns[1].total_mm2);
        assert!(t.plb64_increase > 0.2 && t.plb64_increase < 0.4);
        let text = t.render();
        assert!(text.contains("PMMAC"));
        assert!(text.contains("Total cell area"));
    }
}
