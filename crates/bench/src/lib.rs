//! Shared helpers for the benchmark/experiment binaries.
//!
//! The real content of this crate lives in:
//!
//! * `src/bin/*` — one binary per table/figure of the paper, each printing
//!   the same rows/series the paper reports; the two gated throughput bins
//!   the whole-stack benchmark (`../../perf_stack`) does not cover,
//!   `shard_scaling` and `storage_tiers`, both built on [`harness`]; and the
//!   `oram_server` / `loadgen` pair for driving the TCP service by hand;
//! * `benches/*` — Criterion micro-benchmarks of the simulator itself;
//! * `../../examples/*` — runnable examples using the public API;
//! * `../../docs/ARCHITECTURE.md` — the workspace-wide map every benchmark
//!   binary measures a slice of;
//! * `../../tests/*` — cross-crate integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

use harness::Flags;
use oram_sim::experiments::ExperimentScale;

fn scale_of(flags: &Flags) -> ExperimentScale {
    if flags.has("--quick") {
        ExperimentScale::Quick
    } else {
        ExperimentScale::Paper
    }
}

/// Parses the common `--quick` flag used by every experiment binary: by
/// default the binaries run at paper scale (all benchmarks, long traces);
/// with `--quick` they run the reduced configuration used in CI.  Any other
/// argument is rejected (usage on stderr, exit code 2).
pub fn scale_from_args() -> ExperimentScale {
    scale_of(&Flags::from_env(&[("--quick", None)]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale(args: &[&str]) -> Result<ExperimentScale, String> {
        let args = args.iter().map(|a| a.to_string());
        Flags::parse("fig", &[("--quick", None)], args).map(|flags| scale_of(&flags))
    }

    #[test]
    fn default_scale_is_paper() {
        assert_eq!(scale(&[]), Ok(ExperimentScale::Paper));
        assert_eq!(scale(&["--quick"]), Ok(ExperimentScale::Quick));
        assert!(scale(&["--quik"]).is_err());
    }
}
