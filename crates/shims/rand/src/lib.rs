//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no crates.io access, so this crate implements
//! the subset of the rand 0.8 API the workspace uses — `SeedableRng`,
//! `Rng::{gen, gen_range, gen_bool, fill}` and `rngs::StdRng` — over a
//! xoshiro256++ generator seeded through SplitMix64, and nothing outside
//! that subset.  Nothing here is cryptographic, and nothing here needs to
//! be: it drives only the simulators, the workload generators and the
//! tests.  No product crate depends on it; every leaf the ORAM picks comes
//! from the AES-based PRF in `oram-crypto`.  Every caller names only
//! `rngs::StdRng`, `Rng` and `SeedableRng` and calls only the methods
//! above, all of which rand 0.8 has.  That was checked by reading the
//! callers, not by building against the real crate, which needs network
//! access.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::ops::Range;

/// A source of random `u64`s (minimal analogue of `rand::RngCore`).
pub trait RngCore {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Types that can be drawn uniformly from the generator's raw output
/// (minimal analogue of the `Standard` distribution).
pub trait Standard: Sized {
    /// Draws one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u8 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types `Rng::gen_range` can sample uniformly from a half-open interval
/// (minimal analogue of `SampleUniform`).
pub trait SampleUniform: Sized {
    /// Draws uniformly from `[start, end)`.
    fn sample_range<R: RngCore + ?Sized>(start: Self, end: Self, rng: &mut R) -> Self;
}

macro_rules! uniform_unsigned {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(start: $t, end: $t, rng: &mut R) -> $t {
                assert!(start < end, "gen_range called with empty range");
                let span = (end - start) as u64;
                // Rejection sampling to avoid modulo bias.
                let zone = u64::MAX - (u64::MAX - span + 1) % span;
                loop {
                    let v = rng.next_u64();
                    if v <= zone {
                        return start + (v % span) as $t;
                    }
                }
            }
        }
    )*};
}

uniform_unsigned!(u8, u16, u32, u64, usize);

macro_rules! uniform_signed {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(start: $t, end: $t, rng: &mut R) -> $t {
                assert!(start < end, "gen_range called with empty range");
                let span = (end as i64).wrapping_sub(start as i64) as u64;
                let zone = u64::MAX - (u64::MAX - span + 1) % span;
                loop {
                    let v = rng.next_u64();
                    if v <= zone {
                        return (start as i64).wrapping_add((v % span) as i64) as $t;
                    }
                }
            }
        }
    )*};
}

uniform_signed!(i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(start: f64, end: f64, rng: &mut R) -> f64 {
        assert!(start < end, "gen_range called with empty range");
        start + f64::draw(rng) * (end - start)
    }
}

/// Ranges that `Rng::gen_range` accepts (minimal analogue of
/// `SampleRange`).  The element type is an independent parameter so the
/// caller's expected output type drives integer-literal inference, exactly
/// as in rand 0.8.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(self.start, self.end, rng)
    }
}

/// Slice types `Rng::fill` can fill (minimal analogue of `Fill`).
pub trait Fill {
    /// Fills `self` with uniformly random content.
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R);
}

impl Fill for [u8] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        let mut chunks = self.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = rng.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

/// User-facing convenience methods (minimal analogue of `rand::Rng`).
pub trait Rng: RngCore {
    /// Draws a value of an inferable type.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Draws uniformly from a half-open range.
    fn gen_range<T: SampleUniform, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range"
        );
        f64::draw(self) < p
    }

    /// Fills a buffer with random bytes.
    fn fill<T: Fill + ?Sized>(&mut self, dest: &mut T) {
        dest.fill_from(self);
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Generators constructible from a seed (minimal analogue of
/// `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut x = seed;
            let mut next = || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // xoshiro256++ (Blackman & Vigna).
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn gen_range_stays_in_bounds_and_covers() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(0u64..10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
        for _ in 0..1000 {
            let f = rng.gen_range(2.0f64..3.0);
            assert!((2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "{hits}");
    }

    #[test]
    fn fill_randomises_every_chunk_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        for len in [1usize, 7, 8, 9, 64, 65] {
            let mut buf = vec![0u8; len];
            rng.fill(&mut buf[..]);
            if len >= 8 {
                assert!(buf.iter().any(|&b| b != 0), "len {len}");
            }
        }
    }
}
