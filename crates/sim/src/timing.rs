//! Address-only (timing) model of the ORAM frontend, scalable to the
//! paper's 4–64 GB capacities.
//!
//! The model takes the same [`FreecursiveConfig`] the functional frontend
//! is built from and walks the same trees ([`FreecursiveConfig::trees`]):
//! the unified tree with a PLB, one tree per recursion level without one.
//! It tracks exactly the state that determines cost — the PLB contents and
//! the recursion addressing — and charges each backend access the average
//! latency of its tree, calibrated by [`crate::latency::OramLatencyModel`].
//! Group-remap overhead (§5.2.2) is at most X/2^β = 0.2% of accesses for the
//! compressed format and is ignored here (the functional frontend models it
//! exactly).

use crate::latency::OramLatencyModel;
use cache_sim::MainMemory;
use dram_sim::DramConfig;
use freecursive::FreecursiveConfig;
use path_oram::OramParams;
use posmap::addressing::RecursionAddressing;
use posmap::{Plb, PlbEntry};
use serde::{Deserialize, Serialize};

/// Cost of one frontend request, in whatever the caller accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessCost {
    /// Total latency in processor cycles.
    pub cycles: u64,
    /// Backend accesses made for PosMap blocks.
    pub posmap_accesses: u64,
    /// Backend accesses made for the data block.
    pub data_accesses: u64,
    /// Bytes moved for PosMap accesses.
    pub posmap_bytes: u64,
    /// Bytes moved for the data access.
    pub data_bytes: u64,
}

/// Aggregate traffic statistics of a timing run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficStats {
    /// Frontend requests served (LLC misses + evictions).
    pub requests: u64,
    /// Total PosMap backend accesses.
    pub posmap_accesses: u64,
    /// Total data backend accesses.
    pub data_accesses: u64,
    /// Total PosMap bytes moved.
    pub posmap_bytes: u64,
    /// Total data bytes moved.
    pub data_bytes: u64,
    /// Total cycles spent in the ORAM.
    pub cycles: u64,
}

impl TrafficStats {
    /// Average bytes moved per request (the y-axis of Figure 7), split as
    /// `(posmap, data)`.
    pub fn bytes_per_request(&self) -> (f64, f64) {
        if self.requests == 0 {
            (0.0, 0.0)
        } else {
            (
                self.posmap_bytes as f64 / self.requests as f64,
                self.data_bytes as f64 / self.requests as f64,
            )
        }
    }
}

/// The timing model of one ORAM design point.
#[derive(Debug)]
pub struct TimingOram {
    config: FreecursiveConfig,
    rec: RecursionAddressing,
    /// Latency/byte model of each of the configuration's trees (index =
    /// recursion level without a PLB; the unified tree alone with one).
    trees: Vec<OramLatencyModel>,
    /// PLB of address-only entries (`None` when the capacity is 0).
    plb: Option<Plb<()>>,
    stats: TrafficStats,
}

impl TimingOram {
    /// Builds the timing model of `config`, calibrating the DRAM latency of
    /// every tree over `latency_samples` random paths.
    pub fn new(config: FreecursiveConfig, dram: &DramConfig, latency_samples: usize) -> Self {
        let trees = config
            .trees()
            .into_iter()
            .map(|(blocks, payload_bytes)| {
                let params = OramParams::new(blocks, payload_bytes, config.z);
                OramLatencyModel::new(params, dram.clone(), latency_samples)
            })
            .collect();
        Self {
            rec: config.addressing(),
            plb: config.plb(),
            config,
            trees,
            stats: TrafficStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &FreecursiveConfig {
        &self.config
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Resets statistics (PLB contents are retained, as in a long-running
    /// system).
    pub fn reset_stats(&mut self) {
        self.stats = TrafficStats::default();
    }

    /// Serves one frontend request for data block `block_addr`: the
    /// functional frontend's walk (§4.2.4), minus the data.
    pub fn access(&mut self, block_addr: u64) -> AccessCost {
        let block_addr = block_addr % self.config.num_blocks.max(1);
        let h = self.rec.num_levels();
        let mut cost = AccessCost::default();

        // Step 1: start below the lowest level whose parent PosMap block is
        // in the PLB; without a PLB, at the top.
        let rec = &self.rec;
        let start_level = self.plb.as_mut().map_or(h - 1, |plb| {
            (0..h - 1)
                .find(|&i| plb.lookup(rec.unified_addr(i + 1, block_addr)).is_some())
                .unwrap_or(h - 1)
        });
        // Steps 2 and 3: fetch the missing PosMap blocks, then the data.
        for level in (0..=start_level).rev() {
            let tree = &self.trees[self.config.tree_of(level)];
            let bytes = tree.params().access_bytes();
            cost.cycles += tree.backend_access_cycles(self.config.pmmac);
            if level == 0 {
                cost.data_accesses = 1;
                cost.data_bytes = bytes;
            } else {
                cost.posmap_accesses += 1;
                cost.posmap_bytes += bytes;
                // Only a PLB refill costs frontend cycles.
                if let Some(plb) = &mut self.plb {
                    plb.insert(PlbEntry {
                        unified_addr: self.rec.unified_addr(level, block_addr),
                        leaf: 0,
                        payload: (),
                    });
                    cost.cycles += tree.pipeline.frontend;
                }
            }
        }

        self.stats.requests += 1;
        self.stats.posmap_accesses += cost.posmap_accesses;
        self.stats.data_accesses += cost.data_accesses;
        self.stats.posmap_bytes += cost.posmap_bytes;
        self.stats.data_bytes += cost.data_bytes;
        self.stats.cycles += cost.cycles;
        cost
    }
}

/// Adapter exposing a [`TimingOram`] as the processor's main memory.
#[derive(Debug)]
pub struct OramMemory {
    oram: TimingOram,
    block_bytes: u64,
}

impl OramMemory {
    /// Wraps a timing ORAM; `block_bytes` is the ORAM block size used to
    /// translate byte addresses into block addresses.
    pub fn new(oram: TimingOram) -> Self {
        let block_bytes = oram.config().block_bytes as u64;
        Self { oram, block_bytes }
    }

    /// The wrapped ORAM (for statistics).
    pub fn oram(&self) -> &TimingOram {
        &self.oram
    }

    /// Resets the wrapped ORAM's traffic statistics (PLB state is retained).
    pub fn reset_stats(&mut self) {
        self.oram.reset_stats();
    }
}

impl MainMemory for OramMemory {
    fn access(&mut self, line_addr: u64, _is_write: bool) -> u64 {
        self.oram.access(line_addr / self.block_bytes).cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::SimulationConfig;
    use freecursive::{FreecursiveOram, InsecureBackend, Oram, OramBuilder, SchemePoint};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small(scheme: SchemePoint) -> TimingOram {
        let sim = SimulationConfig {
            data_capacity_bytes: 64 << 20,
            latency_samples: 5,
            ..SimulationConfig::paper_default()
        };
        TimingOram::new(sim.oram_config(scheme).unwrap(), &sim.dram(), 5)
    }

    #[test]
    fn baseline_walks_every_level_every_time() {
        // R_X8's own 8 KB on-chip PosMap (the simulation gives it 256 KB,
        // which leaves fewer than three levels at 64 MiB).
        let config = OramBuilder::for_scheme(SchemePoint::RX8)
            .num_blocks((64 << 20) / 64)
            .freecursive_config()
            .unwrap();
        let mut oram = TimingOram::new(config, &DramConfig::default(), 5);
        let h = oram.config().addressing().num_levels() as u64;
        assert!(h >= 3);
        for addr in 0..100u64 {
            let cost = oram.access(addr);
            assert_eq!(cost.posmap_accesses, h - 1);
            assert_eq!(cost.data_accesses, 1);
        }
    }

    #[test]
    fn plb_design_skips_posmap_accesses_on_locality() {
        let mut oram = small(SchemePoint::PcX32);
        // Sequential block addresses share PosMap blocks.
        let mut total_posmap = 0;
        for addr in 0..1000u64 {
            total_posmap += oram.access(addr).posmap_accesses;
        }
        let per_request = total_posmap as f64 / 1000.0;
        assert!(
            per_request < 0.5,
            "posmap accesses per request {per_request}"
        );
    }

    #[test]
    fn plb_design_costs_less_than_baseline_on_sequential_traffic() {
        let mut baseline = small(SchemePoint::RX8);
        let mut plb = small(SchemePoint::PcX32);
        let mut base_cycles = 0;
        let mut plb_cycles = 0;
        for addr in 0..500u64 {
            base_cycles += baseline.access(addr).cycles;
            plb_cycles += plb.access(addr).cycles;
        }
        assert!(
            plb_cycles < base_cycles,
            "PLB {plb_cycles} should beat baseline {base_cycles}"
        );
    }

    #[test]
    fn pmmac_increases_per_access_bytes_via_mac_field() {
        let pc = small(SchemePoint::PcX32);
        let pic = small(SchemePoint::PicX32);
        assert!(pic.trees[0].params().access_bytes() >= pc.trees[0].params().access_bytes());
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut oram = small(SchemePoint::PcX32);
        for addr in 0..50u64 {
            oram.access(addr * 1000);
        }
        assert_eq!(oram.stats().requests, 50);
        assert!(oram.stats().cycles > 0);
        oram.reset_stats();
        assert_eq!(oram.stats().requests, 0);
    }

    #[test]
    fn oram_memory_translates_byte_addresses() {
        let mut mem = OramMemory::new(small(SchemePoint::PcX32));
        let lat = cache_sim::MainMemory::access(&mut mem, 0x1000, false);
        assert!(
            lat > 100,
            "an ORAM access takes hundreds of cycles, got {lat}"
        );
        assert_eq!(mem.oram().stats().requests, 1);
    }

    #[test]
    fn timing_model_moves_what_the_functional_frontend_moves() {
        // One configuration, two frontends: the address-only walk must make
        // the same backend accesses and move the same bytes as the real one.
        for scheme in SchemePoint::freecursive_points() {
            let plb_bytes = if scheme == SchemePoint::RX8 { 0 } else { 2048 };
            let config = OramBuilder::for_scheme(scheme)
                .num_blocks(1 << 12)
                .onchip_entries(16)
                .plb_capacity_bytes(plb_bytes)
                .freecursive_config()
                .unwrap();
            let mut timing = TimingOram::new(config.clone(), &DramConfig::default(), 1);
            let mut functional = FreecursiveOram::<InsecureBackend>::new(config).unwrap();
            let mut rng = StdRng::seed_from_u64(0x7E57);
            for _ in 0..3000 {
                let addr = rng.gen_range(0..1u64 << 12);
                timing.access(addr);
                functional.read(addr).unwrap();
            }
            let (t, f) = (timing.stats(), functional.stats());
            let accesses = (f.posmap_backend_accesses, f.data_backend_accesses);
            let bytes = (f.posmap_bytes_moved, f.data_bytes_moved);
            let label = scheme.label();
            assert_eq!((t.posmap_accesses, t.data_accesses), accesses, "{label}");
            assert_eq!((t.posmap_bytes, t.data_bytes), bytes, "{label}");
            assert!(t.posmap_accesses > 0, "{label}");
        }
    }
}
