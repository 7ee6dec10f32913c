//! Primitive address-stream generators.

use rand::rngs::StdRng;
use rand::Rng;

/// A primitive access pattern confined to a region of the address space.
///
/// Regions are expressed as `(base, bytes)`; generated addresses fall in
/// `[base, base + bytes)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// A forward streaming scan that wraps at the end of the region
    /// (libquantum-style).
    Sequential {
        /// Region base address.
        base: u64,
        /// Region size in bytes.
        bytes: u64,
        /// Bytes advanced per access.
        stride: u64,
    },
    /// A strided scan (column walks, structure-of-array traversals).
    Strided {
        /// Region base address.
        base: u64,
        /// Region size in bytes.
        bytes: u64,
        /// Stride between consecutive accesses in bytes.
        stride: u64,
    },
    /// Uniformly random addresses within the region (hash tables, mcf-style
    /// pointer soup once the working set exceeds the LLC).
    RandomUniform {
        /// Region base address.
        base: u64,
        /// Region size in bytes.
        bytes: u64,
    },
    /// A random walk over a small hot set with occasional excursions into the
    /// full region; models temporal reuse.
    HotSet {
        /// Region base address.
        base: u64,
        /// Full region size in bytes.
        bytes: u64,
        /// Hot subset size in bytes.
        hot_bytes: u64,
        /// Probability an access stays in the hot subset.
        hot_probability: f64,
    },
    /// A pseudo pointer chase: the next address is a deterministic
    /// pseudo-random function of the current one (defeats spatial locality
    /// entirely, like linked-list traversal in mcf/omnetpp).
    PointerChase {
        /// Region base address.
        base: u64,
        /// Region size in bytes.
        bytes: u64,
        /// Size of the objects being chased (addresses are object-aligned).
        object_bytes: u64,
    },
}

impl AccessPattern {
    /// The exclusive upper bound of addresses this pattern can generate.
    pub fn end(&self) -> u64 {
        match *self {
            AccessPattern::Sequential { base, bytes, .. }
            | AccessPattern::Strided { base, bytes, .. }
            | AccessPattern::RandomUniform { base, bytes }
            | AccessPattern::HotSet { base, bytes, .. }
            | AccessPattern::PointerChase { base, bytes, .. } => base + bytes,
        }
    }
}

/// Mutable per-pattern cursor state.
#[derive(Debug, Clone, Default)]
pub struct PatternState {
    cursor: u64,
}

impl PatternState {
    /// Initialises the state (random starting point for chase/stride
    /// patterns so different seeds explore different phases).
    pub fn new(pattern: &AccessPattern, rng: &mut StdRng) -> Self {
        let cursor = match *pattern {
            AccessPattern::Sequential { bytes, .. } | AccessPattern::Strided { bytes, .. } => {
                rng.gen_range(0..bytes.max(1))
            }
            AccessPattern::PointerChase { bytes, .. } => rng.gen_range(0..bytes.max(1)),
            _ => 0,
        };
        Self { cursor }
    }

    /// Produces the next address of the stream.
    pub fn next_addr(&mut self, pattern: &AccessPattern, rng: &mut StdRng) -> u64 {
        match *pattern {
            AccessPattern::Sequential {
                base,
                bytes,
                stride,
            }
            | AccessPattern::Strided {
                base,
                bytes,
                stride,
            } => {
                let addr = base + self.cursor;
                self.cursor = (self.cursor + stride) % bytes.max(1);
                addr
            }
            AccessPattern::RandomUniform { base, bytes } => base + rng.gen_range(0..bytes.max(1)),
            AccessPattern::HotSet {
                base,
                bytes,
                hot_bytes,
                hot_probability,
            } => {
                if rng.gen_bool(hot_probability) {
                    base + rng.gen_range(0..hot_bytes.max(1))
                } else {
                    base + rng.gen_range(0..bytes.max(1))
                }
            }
            AccessPattern::PointerChase {
                base,
                bytes,
                object_bytes,
            } => {
                let objects = (bytes / object_bytes.max(1)).max(1);
                // A fixed large, odd index increment gives a full-period cycle
                // through every object with no spatial locality between
                // consecutive accesses — the memory behaviour of a linked
                // list laid out by a long-running allocator.
                let idx = self.cursor / object_bytes.max(1);
                let hop = (0x9e37_79b9_7f4a_7c15u64 % objects) | 1;
                let next_idx = (idx + hop) % objects;
                self.cursor = next_idx * object_bytes;
                base + self.cursor
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn sequential_advances_by_stride_and_wraps() {
        let p = AccessPattern::Sequential {
            base: 1000,
            bytes: 64,
            stride: 16,
        };
        let mut r = rng();
        let mut s = PatternState { cursor: 0 };
        let addrs: Vec<u64> = (0..6).map(|_| s.next_addr(&p, &mut r)).collect();
        assert_eq!(addrs, vec![1000, 1016, 1032, 1048, 1000, 1016]);
    }

    #[test]
    fn random_uniform_stays_in_region() {
        let p = AccessPattern::RandomUniform {
            base: 4096,
            bytes: 1024,
        };
        let mut r = rng();
        let mut s = PatternState::default();
        for _ in 0..1000 {
            let a = s.next_addr(&p, &mut r);
            assert!((4096..5120).contains(&a));
        }
    }

    #[test]
    fn hot_set_concentrates_accesses() {
        let p = AccessPattern::HotSet {
            base: 0,
            bytes: 1 << 20,
            hot_bytes: 4096,
            hot_probability: 0.9,
        };
        let mut r = rng();
        let mut s = PatternState::default();
        let hot_hits = (0..10_000)
            .filter(|_| s.next_addr(&p, &mut r) < 4096)
            .count();
        assert!(hot_hits > 8500, "hot hits {hot_hits}");
    }

    #[test]
    fn pointer_chase_is_deterministic_and_object_aligned() {
        let p = AccessPattern::PointerChase {
            base: 0,
            bytes: 1 << 16,
            object_bytes: 64,
        };
        let mut r1 = rng();
        let mut r2 = rng();
        let mut s1 = PatternState::new(&p, &mut r1);
        let mut s2 = PatternState::new(&p, &mut r2);
        for _ in 0..100 {
            let a = s1.next_addr(&p, &mut r1);
            let b = s2.next_addr(&p, &mut r2);
            assert_eq!(a, b);
            assert_eq!(a % 64, 0);
        }
    }

    #[test]
    fn pointer_chase_has_poor_spatial_locality() {
        let p = AccessPattern::PointerChase {
            base: 0,
            bytes: 1 << 22,
            object_bytes: 64,
        };
        let mut r = rng();
        let mut s = PatternState::new(&p, &mut r);
        let mut near = 0;
        let mut prev = s.next_addr(&p, &mut r);
        for _ in 0..2000 {
            let a = s.next_addr(&p, &mut r);
            if a.abs_diff(prev) < 4096 {
                near += 1;
            }
            prev = a;
        }
        assert!(near < 100, "chase should rarely stay within a page: {near}");
    }
}
