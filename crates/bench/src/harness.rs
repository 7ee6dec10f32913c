//! The one harness under the gated throughput bins (`shard_scaling`,
//! `storage_tiers`) and the one flag parser under every binary of this
//! crate.
//!
//! A bin built on it is a workload definition: it says how to run `n`
//! accesses and how to read its counters, and this module owns the rest —
//! strict flag parsing, the warm-up / best-of-windows loop, the
//! [`Measurement`] → JSON row, and the `--gate` comparison ([`gate`])
//! against a checked-in baseline.
//!
//! Two contracts live here so that no bin can get them wrong on its own:
//!
//! * an unknown flag, or a flag missing its value, prints a usage line and
//!   exits with code 2 — a typo can never silently turn a CI gate off;
//! * a baseline that lacks the gated row *fails* the gate, naming the row.

use std::fmt::Write as _;
use std::str::FromStr;
use std::time::Instant;

/// One accepted flag: its name and, when it takes a value, the placeholder
/// shown for that value in the usage line.
pub type FlagSpec = (&'static str, Option<&'static str>);

/// The flags a command line set, checked against a [`FlagSpec`] list.
#[derive(Debug)]
pub struct Flags {
    usage: String,
    set: Vec<(&'static str, Option<String>)>,
}

impl Flags {
    /// Parses `args` (without the program name) against `spec`.
    ///
    /// # Errors
    ///
    /// A message naming the offending argument when it is not in `spec`, or
    /// when a value-taking flag is last or followed by another `--flag`.
    pub fn parse(
        bin: &str,
        spec: &[FlagSpec],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let mut usage = format!("usage: {bin}");
        for (name, value) in spec {
            let _ = match value {
                Some(placeholder) => write!(usage, " [{name} {placeholder}]"),
                None => write!(usage, " [{name}]"),
            };
        }
        let mut set = Vec::new();
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            let Some(&(name, value)) = spec.iter().find(|(name, _)| *name == arg) else {
                return Err(format!("unknown argument {arg:?}\n{usage}"));
            };
            let value = match value {
                None => None,
                Some(_) => match args.next_if(|next| !next.starts_with("--")) {
                    Some(v) => Some(v),
                    None => return Err(format!("{name} needs a value\n{usage}")),
                },
            };
            set.push((name, value));
        }
        Ok(Self { usage, set })
    }

    /// [`Flags::parse`] over the process's own arguments; a rejected command
    /// line prints the message and usage on stderr and exits with code 2.
    pub fn from_env(spec: &[FlagSpec]) -> Self {
        let mut args = std::env::args();
        let bin = args.next().unwrap_or_default();
        Self::parse(&bin, spec, args).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2)
        })
    }

    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.set.iter().any(|(n, _)| *n == name)
    }

    /// The value given for `name`, if it was given.
    pub fn value(&self, name: &str) -> Option<&str> {
        let (_, value) = self.set.iter().find(|(n, _)| *n == name)?;
        value.as_deref()
    }

    /// The value given for `name` parsed as `T`, or `None` when the flag is
    /// absent; a value that does not parse rejects the command line.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Option<T> {
        let v = self.value(name)?;
        let malformed = |_| self.reject(&format!("{name}: cannot parse {v:?}"));
        Some(v.parse().unwrap_or_else(malformed))
    }

    /// Rejects the command line for a reason the spec cannot express (a
    /// required flag, a malformed value): message on stderr, exit code 2.
    pub fn reject(&self, message: &str) -> ! {
        eprintln!("{message}\n{}", self.usage);
        std::process::exit(2)
    }
}

/// The command line the two gated bins share: `--quick`, `--smoke`,
/// `--gate <baseline.json>`, `--out <path>`.
#[derive(Debug)]
pub struct BenchCli {
    /// Small geometry, short windows (local iteration).
    pub quick: bool,
    /// The CI profile: full geometry, short windows.
    pub smoke: bool,
    /// Baseline to gate the fresh numbers against.
    pub gate: Option<String>,
    /// Where the fresh JSON goes.
    pub out: String,
}

impl BenchCli {
    const SPEC: [FlagSpec; 4] = [
        ("--quick", None),
        ("--smoke", None),
        ("--gate", Some("<baseline.json>")),
        ("--out", Some("<path>")),
    ];

    fn from_flags(flags: &Flags, default_out: &str) -> Self {
        Self {
            quick: flags.has("--quick"),
            smoke: flags.has("--smoke"),
            gate: flags.value("--gate").map(str::to_string),
            out: flags.value("--out").unwrap_or(default_out).to_string(),
        }
    }

    /// Parses the process's arguments; exits with code 2 on a bad one.
    pub fn from_env(default_out: &str) -> Self {
        Self::from_flags(&Flags::from_env(&Self::SPEC), default_out)
    }

    /// Picks the value for the selected profile (`--smoke` wins over
    /// `--quick`, as the profile name does).
    pub fn select<T>(&self, full: T, smoke: T, quick: T) -> T {
        if self.smoke {
            smoke
        } else if self.quick {
            quick
        } else {
            full
        }
    }

    /// The `"profile"` value written to the JSON.
    pub fn profile_name(&self) -> &'static str {
        self.select("full", "smoke", "quick")
    }

    /// Writes the fresh JSON to `--out`.
    pub fn write_json(&self, json: &str) {
        std::fs::write(&self.out, json).unwrap_or_else(|e| panic!("write {}: {e}", self.out));
        eprintln!("wrote {}", self.out);
    }
}

/// How long one measurement runs: `warmup` unmeasured accesses, then
/// `windows` windows that each end at `max_accesses`, or once both
/// `min_accesses` and `min_secs` are reached.
#[derive(Debug, Clone, Copy)]
pub struct Windows {
    /// Accesses run, and discarded, before the counters are reset.
    pub warmup: u64,
    /// Per-window floor on accesses.
    pub min_accesses: u64,
    /// Per-window floor on seconds.
    pub min_secs: f64,
    /// Per-window ceiling on accesses.
    pub max_accesses: u64,
    /// Windows measured; the reported rate is the best one.
    pub windows: u32,
}

impl Windows {
    /// `warmup`, `min_accesses`, `min_secs`, `max_accesses`, `windows`: one
    /// line per profile at the call site, so the profiles read as a table.
    pub const fn new(
        warmup: u64,
        min_accesses: u64,
        min_secs: f64,
        max_accesses: u64,
        windows: u32,
    ) -> Self {
        Self {
            warmup,
            min_accesses,
            min_secs,
            max_accesses,
            windows,
        }
    }
}

/// Drives `workload` through the warm-up and the windows of `w`.
/// `run(workload, n)` performs at least `n` accesses and returns how many it
/// performed; `reset` clears the workload's counters after the warm-up.
/// Returns `(accesses measured over all windows, best window's rate)`.
pub fn best_of_windows<W>(
    workload: &mut W,
    w: &Windows,
    chunk: u64,
    mut run: impl FnMut(&mut W, u64) -> u64,
    reset: impl FnOnce(&mut W),
) -> (u64, f64) {
    run(workload, w.warmup);
    reset(workload);
    let mut total = 0u64;
    let mut best_rate = 0f64;
    for _ in 0..w.windows {
        let start = Instant::now();
        let mut done = 0u64;
        loop {
            done += run(workload, chunk);
            let secs = start.elapsed().as_secs_f64();
            if done >= w.max_accesses || (done >= w.min_accesses && secs >= w.min_secs) {
                break;
            }
        }
        best_rate = best_rate.max(done as f64 / start.elapsed().as_secs_f64());
        total += done;
    }
    (total, best_rate)
}

/// One measured row: the best window's rate, and counters normalised over
/// the whole measured run.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Accesses over all windows.
    pub accesses: u64,
    /// Best window's rate.
    pub accesses_per_sec: f64,
    /// Tree bytes read plus written, per access.
    pub bytes_per_access: f64,
    /// Buckets sealed per access, where the workload's stats report it.
    pub buckets_encrypted_per_access: Option<f64>,
    /// Stash high-water mark.
    pub max_stash_occupancy: usize,
}

impl Measurement {
    /// The row as a JSON object whose closing brace sits at `indent`.
    pub fn json(&self, indent: &str) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n{indent}  \"accesses\": {},\n{indent}  \"accesses_per_sec\": {:.1},\n\
             {indent}  \"ns_per_access\": {:.1},\n{indent}  \"bytes_moved_per_access\": {:.1},\n",
            self.accesses,
            self.accesses_per_sec,
            1e9 / self.accesses_per_sec,
            self.bytes_per_access,
        );
        if let Some(buckets) = self.buckets_encrypted_per_access {
            let _ = writeln!(
                s,
                "{indent}  \"buckets_encrypted_per_access\": {buckets:.2},"
            );
        }
        let _ = write!(
            s,
            "{indent}  \"max_stash_occupancy\": {}\n{indent}}}",
            self.max_stash_occupancy
        );
        s
    }
}

/// Extracts the first `"accesses_per_sec"` after `row` (for example
/// `"shards": 4` or `"store": "file"`) from a JSON this harness wrote: the
/// rate of that row, not of a later one.
pub fn baseline_rate(json: &str, row: &str) -> Option<f64> {
    let entry = json.find(row)?;
    let key = "\"accesses_per_sec\": ";
    let rate = entry + json[entry..].find(key)? + key.len();
    let end = json[rate..].find([',', '\n', '}'])?;
    json[rate..rate + end].trim().parse().ok()
}

/// One gate check's verdict: the line to print, `Err` when the check failed.
/// Gates fire on the low side only — a faster runner is not a failure.
pub type Verdict = Result<String, String>;

fn verdict(line: String, fresh: f64, reference: f64, tolerance: f64) -> Verdict {
    if fresh >= reference * (1.0 - tolerance) {
        Ok(line)
    } else {
        Err(line)
    }
}

/// Gates `fresh` against the `row` rate of `baseline`: it fails when `fresh`
/// is more than `tolerance` (a fraction) below that rate, or when the row is
/// missing or unparsable in the baseline.
pub fn check_row(baseline: &str, row: &str, fresh: f64, tolerance: f64) -> Verdict {
    let Some(rate) = baseline_rate(baseline, row) else {
        return Err(format!("baseline has no readable {row} row"));
    };
    let floor = rate * (1.0 - tolerance);
    let line = format!("{row}: {fresh:.0} acc/s vs baseline {rate:.0} acc/s (floor {floor:.0})");
    verdict(line, fresh, rate, tolerance)
}

/// Gates a machine-portable figure measured within one run (a ratio of two
/// fresh rates) against a fixed `target`, with the same kind of tolerance.
pub fn check_ratio(what: &str, fresh: f64, target: f64, tolerance: f64) -> Verdict {
    let floor = target * (1.0 - tolerance);
    let line = format!("{what} {fresh:.2}x (target {target:.1}x, floor {floor:.2}x)");
    verdict(line, fresh, target, tolerance)
}

/// A `--gate` run: reads the baseline at `path`, prints every verdict
/// `checks` returns for it, and exits with code 1 if any failed.  An
/// unreadable baseline is a failed gate, not a skipped one.
pub fn gate(path: &str, checks: impl FnOnce(&str) -> Vec<Verdict>) {
    let baseline = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perf gate FAILED: baseline {path}: {e}");
        std::process::exit(1)
    });
    let verdicts = checks(&baseline);
    for verdict in &verdicts {
        match verdict {
            Ok(line) => eprintln!("perf gate: {line}"),
            Err(line) => eprintln!("perf gate FAILED: {line}"),
        }
    }
    if verdicts.iter().any(Result::is_err) {
        std::process::exit(1);
    }
    eprintln!("perf gate passed");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(spec: &[FlagSpec], args: &[&str]) -> Result<Flags, String> {
        Flags::parse("bin", spec, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn accepts_known_flags_and_reads_their_values() {
        let flags = parse(
            &BenchCli::SPEC,
            &["--smoke", "--gate", "base.json", "--out", "fresh.json"],
        )
        .unwrap();
        let cli = BenchCli::from_flags(&flags, "default.json");
        assert!(cli.smoke && !cli.quick);
        assert_eq!(cli.gate.as_deref(), Some("base.json"));
        assert_eq!(cli.out, "fresh.json");
        assert_eq!(cli.profile_name(), "smoke");

        let cli = BenchCli::from_flags(&parse(&BenchCli::SPEC, &[]).unwrap(), "default.json");
        assert_eq!(
            (cli.gate.as_deref(), cli.out.as_str()),
            (None, "default.json")
        );
        assert_eq!(cli.profile_name(), "full");
    }

    #[test]
    fn rejects_a_misspelled_flag_with_the_usage_line() {
        let err = parse(&BenchCli::SPEC, &["--gat", "BENCH_shards.json"]).unwrap_err();
        assert!(err.contains("unknown argument \"--gat\""), "{err}");
        assert!(
            err.contains("usage: bin [--quick] [--smoke] [--gate <baseline.json>] [--out <path>]"),
            "{err}"
        );
        // A stray positional is a typo too.
        assert!(parse(&BenchCli::SPEC, &["BENCH_shards.json"]).is_err());
    }

    #[test]
    fn rejects_a_flag_missing_its_value() {
        let err = parse(&BenchCli::SPEC, &["--smoke", "--gate"]).unwrap_err();
        assert!(err.contains("--gate needs a value"), "{err}");
        // The next flag is not a value.
        let err = parse(&BenchCli::SPEC, &["--gate", "--out", "x.json"]).unwrap_err();
        assert!(err.contains("--gate needs a value"), "{err}");
    }

    #[test]
    fn parsed_reads_typed_values() {
        let flags = parse(&[("--shards", Some("<n>"))], &["--shards", "4"]).unwrap();
        assert_eq!(flags.parsed::<u64>("--shards"), Some(4));
        assert_eq!(flags.parsed::<u64>("--blocks"), None);
    }

    #[test]
    fn extracts_the_gated_rate_from_both_checked_in_shapes() {
        let shards = include_str!("../../../BENCH_shards.json");
        let four = baseline_rate(shards, "\"shards\": 4").expect("4-shard row");
        let one = baseline_rate(shards, "\"shards\": 1").expect("1-shard row");
        assert!(four > 0.0 && one > 0.0 && four != one);
        assert_eq!(baseline_rate(shards, "\"shards\": 16"), None);

        let storage = include_str!("../../../BENCH_storage.json");
        for tier in ["mem", "file", "tiered"] {
            let row = format!("\"store\": \"{tier}\"");
            assert!(baseline_rate(storage, &row).expect("tier row") > 0.0);
        }
        // The rate read is the named row's, not the next row's.
        let tiers = "\"store\": \"mem\", \"result\": { \"accesses_per_sec\": 123.4 }, \
                     \"store\": \"file\", \"result\": { \"accesses_per_sec\": 999.9 }";
        assert_eq!(baseline_rate(tiers, "\"store\": \"mem\""), Some(123.4));
        assert_eq!(baseline_rate(tiers, "\"store\": \"file\""), Some(999.9));
    }

    #[test]
    fn measurement_row_keeps_its_keys_and_order() {
        let mut m = Measurement {
            accesses: 2048,
            accesses_per_sec: 1000.0,
            bytes_per_access: 12160.0,
            buckets_encrypted_per_access: Some(37.756),
            max_stash_occupancy: 11,
        };
        assert_eq!(
            m.json("  "),
            "{\n    \"accesses\": 2048,\n    \"accesses_per_sec\": 1000.0,\n    \
             \"ns_per_access\": 1000000.0,\n    \"bytes_moved_per_access\": 12160.0,\n    \
             \"buckets_encrypted_per_access\": 37.76,\n    \"max_stash_occupancy\": 11\n  }"
        );
        m.buckets_encrypted_per_access = None;
        assert!(!m.json("").contains("buckets_encrypted"));
    }

    #[test]
    fn tolerance_edge_passes_and_just_below_fails() {
        let baseline = "{ \"shards\": 4, \"accesses_per_sec\": 1000.0 }";
        let row = "\"shards\": 4";
        assert!(check_row(baseline, row, 800.0, 0.20).is_ok());
        assert!(check_row(baseline, row, 5000.0, 0.20).is_ok());
        assert!(check_row(baseline, row, 799.9, 0.20).is_err());
        let err = check_row(baseline, row, 790.0, 0.20).unwrap_err();
        assert!(
            err.contains("790 acc/s") && err.contains("floor 800"),
            "{err}"
        );
        assert!(check_ratio("tiered/file speedup", 1.6, 2.0, 0.20).is_ok());
        assert!(check_ratio("tiered/file speedup", 1.59, 2.0, 0.20).is_err());
    }

    #[test]
    fn a_baseline_without_the_gated_row_fails_the_gate() {
        let baseline = "{ \"shards\": 1, \"accesses_per_sec\": 1000.0 }";
        let err = check_row(baseline, "\"shards\": 4", 1e9, 0.20).unwrap_err();
        assert!(err.contains("no readable \"shards\": 4 row"), "{err}");
        // Present but unparsable is the same failure.
        let garbled = "{ \"shards\": 4, \"accesses_per_sec\": fast }";
        assert!(check_row(garbled, "\"shards\": 4", 1e9, 0.20).is_err());
    }

    #[test]
    fn best_of_windows_warms_up_resets_then_reports_the_measured_total() {
        let w = Windows {
            warmup: 7,
            min_accesses: 20,
            min_secs: 0.0,
            max_accesses: 1_000,
            windows: 3,
        };
        // (accesses since reset, accesses ever)
        let mut counters = (0u64, 0u64);
        let (total, rate) = best_of_windows(
            &mut counters,
            &w,
            8,
            |c, n| {
                c.0 += n;
                c.1 += n;
                n
            },
            |c| c.0 = 0,
        );
        // Each window runs 8-access chunks to the 20-access floor: 24.
        assert_eq!(total, 72);
        assert_eq!(counters, (72, 79));
        assert!(rate > 0.0);
    }
}
