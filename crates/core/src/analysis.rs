//! Asymptotic bandwidth analysis (§3.2.1 and §5.4).
//!
//! The paper accompanies its empirical results with two closed-form
//! bandwidth-overhead expressions, reproduced here so the asymptotic claims
//! can be checked numerically:
//!
//! * Baseline Recursive Path ORAM (§3.2.1):
//!   `O(log N + log³N / B)` bits moved per bit of data, obtained with a
//!   constant X and `B_p = Θ(log N)`-bit PosMap blocks.
//! * Compressed PosMap + unified tree (§5.4): with `β = log log N` and
//!   `X′ = log N / log log N`, the overhead becomes
//!   `O(log N + log³N / (B log log N))`, which asymptotically beats the
//!   baseline whenever `B = o(log²N)` and beats Kushilevitz et al. \[18\] when
//!   `B = ω(log N)` — making it the best known construction for every block
//!   size in between.
//!
//! These are *models* (they ignore constants the simulators capture); the
//! tests verify the qualitative relationships the paper states.

/// Parameters of the asymptotic model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsymptoticParams {
    /// Number of data blocks (N).
    pub num_blocks: f64,
    /// Data block size in bits (B).
    pub block_bits: f64,
}

impl AsymptoticParams {
    /// Creates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if either argument is not at least 2.
    pub fn new(num_blocks: f64, block_bits: f64) -> Self {
        assert!(
            num_blocks >= 2.0 && block_bits >= 2.0,
            "degenerate parameters"
        );
        Self {
            num_blocks,
            block_bits,
        }
    }

    fn log_n(&self) -> f64 {
        self.num_blocks.log2()
    }

    /// Bandwidth overhead (bits moved per data bit) of a single,
    /// non-recursive Path ORAM: `Θ(log N)`.
    pub fn non_recursive_overhead(&self) -> f64 {
        self.log_n()
    }

    /// Bandwidth overhead of baseline Recursive Path ORAM (§3.2.1):
    /// `log N + log³N / B`.
    pub fn recursive_overhead(&self) -> f64 {
        let l = self.log_n();
        l + l.powi(3) / self.block_bits
    }

    /// Bandwidth overhead of the compressed-PosMap unified-tree construction
    /// (§5.4): `log N + log³N / (B log log N)`.
    pub fn compressed_overhead(&self) -> f64 {
        let l = self.log_n();
        l + l.powi(3) / (self.block_bits * l.log2().max(1.0))
    }

    /// Bandwidth overhead of Kushilevitz et al. \[18\],
    /// `Θ(log²N / log log N)` — the best prior construction for small blocks
    /// and small client storage.
    pub fn kushilevitz_overhead(&self) -> f64 {
        let l = self.log_n();
        l.powi(2) / l.log2().max(1.0)
    }

    /// The share of a full Recursive ORAM access spent on PosMap ORAMs under
    /// the baseline model: `(log³N / B) / (log N + log³N / B)` — the
    /// asymptotic form of Figure 3.
    pub fn recursive_posmap_fraction(&self) -> f64 {
        let l = self.log_n();
        let posmap = l.powi(3) / self.block_bits;
        posmap / (l + posmap)
    }

    /// PosMap fan-out X′ used by the §5.4 analysis: `log N / log log N`.
    pub fn theoretical_x(&self) -> f64 {
        let l = self.log_n();
        l / l.log2().max(1.0)
    }

    /// Worst-case group-remap overhead `X′ / 2^β` with `β = log log N`
    /// (§5.4: `o(1)`).
    pub fn group_remap_overhead(&self) -> f64 {
        let l = self.log_n();
        self.theoretical_x() / 2f64.powf(l.log2().max(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(log_n: u32, block_bits: f64) -> AsymptoticParams {
        AsymptoticParams::new(2f64.powi(log_n as i32), block_bits)
    }

    #[test]
    fn posmap_accounts_for_roughly_half_the_overhead_at_realistic_sizes() {
        // §3.2.1: "In realistic processor settings, log N ≈ 25 and B ≈ log²N
        // (512 or 1024 bits).  Thus it is natural that PosMap ORAMs account
        // for roughly half of the bandwidth overhead."
        for block_bits in [512.0, 1024.0] {
            let frac = params(25, block_bits).recursive_posmap_fraction();
            assert!(
                (0.3..0.8).contains(&frac),
                "B={block_bits}: posmap fraction {frac}"
            );
        }
    }

    #[test]
    fn compression_always_helps_and_helps_more_for_small_blocks() {
        for log_n in [20u32, 26, 32] {
            for block_bits in [128.0, 512.0, 4096.0] {
                let p = params(log_n, block_bits);
                assert!(p.compressed_overhead() < p.recursive_overhead());
            }
            let small = params(log_n, 128.0);
            let large = params(log_n, 4096.0);
            let small_gain = small.recursive_overhead() / small.compressed_overhead();
            let large_gain = large.recursive_overhead() / large.compressed_overhead();
            assert!(small_gain > large_gain);
        }
    }

    #[test]
    fn compressed_scheme_beats_recursive_for_small_blocks() {
        // §5.4: asymptotically better whenever B = o(log²N).  At B ≈ log N
        // bits the gap is pronounced.
        let p = params(26, 26.0);
        assert!(p.compressed_overhead() < 0.75 * p.recursive_overhead());
    }

    #[test]
    fn compressed_scheme_beats_kushilevitz_for_moderate_blocks() {
        // §5.4: beats [18] when B = ω(log N); at B = log²N the advantage is
        // clear and grows with N.
        for log_n in [24u32, 32, 40] {
            let block_bits = (log_n * log_n) as f64;
            let p = params(log_n, block_bits);
            assert!(
                p.compressed_overhead() < p.kushilevitz_overhead(),
                "log N = {log_n}: {} vs {}",
                p.compressed_overhead(),
                p.kushilevitz_overhead()
            );
        }
    }

    #[test]
    fn group_remap_overhead_vanishes_asymptotically() {
        let small = params(16, 512.0).group_remap_overhead();
        let large = params(40, 512.0).group_remap_overhead();
        assert!(large < small);
        assert!(large < 0.5, "o(1) overhead, got {large}");
    }

    #[test]
    fn overheads_grow_with_capacity() {
        let a = params(20, 512.0);
        let b = params(30, 512.0);
        assert!(b.recursive_overhead() > a.recursive_overhead());
        assert!(b.compressed_overhead() > a.compressed_overhead());
        assert!(b.non_recursive_overhead() > a.non_recursive_overhead());
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn rejects_degenerate_parameters() {
        let _ = AsymptoticParams::new(1.0, 512.0);
    }
}
