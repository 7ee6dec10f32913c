//! Tests of the `R_X8` baseline: Recursive ORAM (Shi et al. \[30\], as
//! optimised by Ren et al. \[26\], §3.2), which is [`crate::FreecursiveOram`]
//! with no PLB and therefore one tree per recursion level.  A data access
//! walks the on-chip PosMap, then every PosMap tree from the smallest down
//! to tree 1, and finally the data tree — `H` full path accesses in total,
//! independent of program locality.  This is the overhead the PLB is
//! designed to remove.

#[cfg(test)]
mod tests {
    use crate::builder::OramBuilder;
    use crate::error::FreecursiveError;
    use crate::frontend::FreecursiveOram;
    use crate::scheme::SchemePoint;
    use crate::traits::Oram;
    use path_oram::OramError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_oram() -> FreecursiveOram {
        // Small on-chip PosMap to force several levels of recursion.
        OramBuilder::for_scheme(SchemePoint::RX8)
            .num_blocks(1 << 12)
            .block_bytes(64)
            .onchip_entries(16)
            .build_freecursive()
            .unwrap()
    }

    #[test]
    fn recursion_depth_matches_formula() {
        let oram = small_oram();
        // N = 2^12, X = 8, p = 16: H = ceil(log(2^12/16)/log 8) + 1 = 3 + 1.
        assert_eq!(oram.num_levels(), 4);
    }

    #[test]
    fn write_read_roundtrip_across_many_blocks() {
        let mut oram = small_oram();
        for addr in (0..64u64).step_by(7) {
            let data = vec![addr as u8; 64];
            oram.write(addr, &data).unwrap();
        }
        for addr in (0..64u64).step_by(7) {
            assert_eq!(oram.read(addr).unwrap(), vec![addr as u8; 64]);
        }
    }

    #[test]
    fn every_request_walks_all_levels() {
        let mut oram = small_oram();
        let h = u64::from(oram.num_levels());
        for addr in 0..20u64 {
            oram.read(addr).unwrap();
        }
        assert_eq!(oram.stats().frontend_requests, 20);
        assert_eq!(oram.stats().data_backend_accesses, 20);
        assert_eq!(oram.stats().posmap_backend_accesses, 20 * (h - 1));
        assert_eq!(oram.stats().backend_accesses_per_request(), Some(h as f64));
        // No PLB: nothing was probed, so nothing hit or missed.
        assert_eq!(oram.stats().plb.hit_rate(), None);
    }

    #[test]
    fn posmap_bandwidth_fraction_is_substantial() {
        // The motivation for the whole paper (Figure 3): with small blocks a
        // large fraction of bytes moved belongs to PosMap ORAMs.
        let mut oram = small_oram();
        for addr in 0..50u64 {
            oram.read(addr % 100).unwrap();
        }
        let frac = oram.stats().posmap_bandwidth_fraction().unwrap();
        assert!(frac > 0.2, "posmap fraction {frac}");
    }

    #[test]
    fn random_workload_is_consistent_with_reference_model() {
        let mut oram = small_oram();
        let n = 256u64;
        let mut reference: Vec<Option<Vec<u8>>> = vec![None; n as usize];
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..1500u32 {
            let addr = rng.gen_range(0..n);
            if rng.gen_bool(0.5) {
                let mut data = vec![0u8; 64];
                rng.fill(&mut data[..]);
                data[0] = i as u8;
                oram.write(addr, &data).unwrap();
                reference[addr as usize] = Some(data);
            } else {
                let got = oram.read(addr).unwrap();
                match &reference[addr as usize] {
                    Some(expected) => assert_eq!(&got, expected),
                    None => assert_eq!(got, vec![0u8; 64]),
                }
            }
        }
    }

    #[test]
    fn out_of_range_address_is_rejected() {
        let mut oram = small_oram();
        assert!(matches!(
            oram.read(1 << 12),
            Err(FreecursiveError::Backend(
                OramError::AddressOutOfRange { .. }
            ))
        ));
    }

    #[test]
    fn read_remove_returns_old_contents_and_zeroes_the_block() {
        let mut oram = small_oram();
        oram.write(11, &[0xCD; 64]).unwrap();
        assert_eq!(oram.read_remove(11).unwrap(), vec![0xCD; 64]);
        assert_eq!(oram.read(11).unwrap(), vec![0u8; 64]);
    }

    /// The traffic of R_X8 is a function of its geometry alone: per request
    /// one path access to each of the four trees, the data tree's 320-byte
    /// buckets at L = 10, and PosMap trees of 32-byte blocks (192-byte
    /// buckets) at L = 7, 4 and 1.  The literals were recorded from the
    /// separate-tree Recursive ORAM frontend this configuration replaced.
    #[test]
    fn traffic_counters_match_the_separate_tree_baseline() {
        let mut oram = OramBuilder::for_scheme(SchemePoint::RX8)
            .num_blocks(1 << 12)
            .onchip_entries(16)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for i in 0..2000u32 {
            let addr = rng.gen_range(0..1u64 << 12);
            if i % 2 == 0 {
                oram.read(addr).unwrap();
            } else {
                oram.write(addr, &[i as u8; 64]).unwrap();
            }
        }
        let s = oram.stats();
        assert_eq!(
            (
                s.frontend_requests,
                s.data_backend_accesses,
                s.posmap_backend_accesses,
                s.data_bytes_moved,
                s.posmap_bytes_moved,
            ),
            (2000, 2000, 6000, 14_080_000, 11_520_000)
        );
    }
}
