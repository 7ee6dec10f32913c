//! Workload profiles: weighted mixtures of access patterns plus instruction
//! mix parameters.

use crate::pattern::AccessPattern;

/// A complete workload description.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Human-readable name (benchmark name in the figures).
    pub name: String,
    /// Fraction of instructions that are loads/stores (typ. 0.25–0.4).
    pub memory_fraction: f64,
    /// Fraction of memory references that are stores.
    pub write_fraction: f64,
    /// Weighted mixture of address-stream components.
    pub components: Vec<(f64, AccessPattern)>,
}

impl WorkloadProfile {
    /// Mean number of non-memory instructions between memory references,
    /// implied by [`Self::memory_fraction`].
    pub fn mean_gap(&self) -> f64 {
        if self.memory_fraction <= 0.0 {
            0.0
        } else {
            (1.0 - self.memory_fraction) / self.memory_fraction
        }
    }

    /// The exclusive upper bound of addresses this profile can generate.
    pub fn footprint_bytes(&self) -> u64 {
        self.components
            .iter()
            .map(|(_, p)| p.end())
            .max()
            .unwrap_or(0)
    }

    /// Validates that the profile is well-formed.
    ///
    /// # Panics
    ///
    /// Panics if there are no components, a weight is non-positive, or a
    /// fraction is outside `[0, 1]`.
    pub fn assert_valid(&self) {
        assert!(!self.components.is_empty(), "profile needs components");
        assert!(
            self.components.iter().all(|(w, _)| *w > 0.0),
            "weights must be positive"
        );
        assert!((0.0..=1.0).contains(&self.memory_fraction));
        assert!((0.0..=1.0).contains(&self.write_fraction));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> WorkloadProfile {
        WorkloadProfile {
            name: "test".into(),
            memory_fraction: 0.25,
            write_fraction: 0.3,
            components: vec![
                (
                    1.0,
                    AccessPattern::Sequential {
                        base: 0,
                        bytes: 1 << 20,
                        stride: 8,
                    },
                ),
                (
                    2.0,
                    AccessPattern::RandomUniform {
                        base: 1 << 20,
                        bytes: 1 << 22,
                    },
                ),
            ],
        }
    }

    #[test]
    fn mean_gap_matches_memory_fraction() {
        let p = profile();
        assert!((p.mean_gap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn footprint_is_the_union_of_components() {
        let p = profile();
        assert_eq!(p.footprint_bytes(), (1 << 20) + (1 << 22));
    }

    #[test]
    fn validation_passes_for_well_formed_profiles() {
        profile().assert_valid();
    }

    #[test]
    #[should_panic(expected = "components")]
    fn validation_rejects_empty_profiles() {
        let p = WorkloadProfile {
            name: "empty".into(),
            memory_fraction: 0.1,
            write_fraction: 0.1,
            components: vec![],
        };
        p.assert_valid();
    }
}
