//! `perf_stack`: the benchmark of the whole stack that `BENCHMARK.json` (at
//! the repository root) describes.  See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! perf_stack --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
//! perf_stack --all [--seed N] [--seconds S] [--repeat K] [--out FILE]
//! perf_stack --compare A.json B.json
//! ```

mod clock;
mod inproc;
mod json;
mod layers;
mod omap;
mod replay;
mod report;
mod stack;
mod stats;
mod tcp;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use layers::Metrics;
use stack::Tally;
use stats::{median, Phase};
use workload::{warmup_ops, Workload};

/// Fresh stacks built (and warmed up) per untraced run; `setup_s` is the
/// median of their set-up times, and the last one is measured.
pub const SETUP_REPEATS: usize = 3;

/// A traced run spends this share of the timed count on the untraced
/// reference phase and the same again on the traced phase.
pub const TRACED_SHARE: f64 = 0.4;

/// Set in the child that runs pinned, to the CPU it was confined to.
const PINNED_ENV: &str = "PERF_STACK_PINNED_CPU";

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where a traced run writes its spans, one CSV row each.
    pub spans_out: Option<PathBuf>,
}

impl RunConfig {
    pub fn untraced(&self) -> RunConfig {
        RunConfig {
            trace: false,
            spans_out: None,
            ..self.clone()
        }
    }
}

pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
}

/// The end-to-end metrics every workload reports.
pub fn put_end_to_end(m: &mut Metrics, setups_s: &[f64], phase: &Phase, bytes_per_req: f64) {
    // For the reader: what the wall clock alone would have said, and the
    // tail, which this sandbox cannot hold still enough to gate.
    eprintln!(
        "perf_stack: {:.1} ops/s by the wall clock, {:.1} at the reference clock; lat_p95 {:.1} us",
        phase.wall_rate,
        phase.rate,
        phase.lat_quantile_ns(0.95) / 1e3
    );
    m.put("setup_s", median(setups_s));
    m.put("ops_per_s", phase.rate);
    m.put("lat_p50_us", phase.lat_quantile_ns(0.50) / 1e3);
    m.put("bytes_per_req", bytes_per_req);
    m.put("peak_rss_mib", stats::peak_rss_mib());
}

pub fn run_workload(config: &RunConfig) -> Result<Outcome, String> {
    match config.workload {
        Workload::MemUniform | Workload::MemScan | Workload::FileWal => inproc::run(config),
        Workload::TcpSerial | Workload::TcpOpen => tcp::run(config),
        Workload::OmapYcsbA => omap::run(config),
    }
}

enum Mode {
    One(RunConfig),
    All {
        seed: u64,
        seconds: f64,
        repeat: u64,
        out: Option<PathBuf>,
    },
    Compare(PathBuf, PathBuf),
}

const USAGE: &str = "usage:
  perf_stack --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
  perf_stack --all [--seed N] [--seconds S] [--repeat K] [--out FILE]
  perf_stack --compare A.json B.json
workloads: mem_uniform mem_scan file_wal tcp_serial tcp_open omap_ycsb_a";

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = report::Spec::embedded().run_seconds;
    let mut trace = false;
    let mut spans_out = None;
    let mut all = false;
    let mut repeat = 1u64;
    let mut out = None;
    let mut compare = None;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: `{text}` is not a number"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))?,
                );
            }
            "--seed" => seed = number(flag, value()?)?,
            "--seconds" => seconds = number(flag, value()?)?,
            "--trace" => trace = number::<u8>(flag, value()?)? != 0,
            "--spans" => spans_out = Some(PathBuf::from(value()?)),
            "--all" => all = true,
            "--repeat" => repeat = number(flag, value()?)?,
            "--out" => out = Some(PathBuf::from(value()?)),
            "--compare" => compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be within (0, 600], not {seconds}"));
    }
    match (compare, all, workload) {
        (Some((a, b)), false, None) => Ok(Mode::Compare(a, b)),
        (None, true, None) => Ok(Mode::All {
            seed,
            seconds,
            repeat: repeat.max(1),
            out,
        }),
        (None, false, Some(workload)) => Ok(Mode::One(RunConfig {
            workload,
            seed,
            seconds,
            trace,
            spans_out,
        })),
        _ => Err(format!(
            "give exactly one of --workload, --all and --compare\n{USAGE}"
        )),
    }
}

/// The first CPU this process may run on.
fn first_allowed_cpu() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let first = list.trim().split([',', '-']).next()?;
    first.parse::<u32>().ok().map(|cpu| cpu.to_string())
}

/// Runs this same command line again under `taskset -c <cpu>` and returns
/// its exit code, or `None` when it cannot be confined.
///
/// Every thread of a run (driver, sender, connection handler, shard worker)
/// shares one CPU: on the 2-vCPU sandbox a wake-up that crosses vCPUs costs
/// more than the request it carries, and which thread lands where changes
/// from run to run.
fn run_pinned(args: &[String]) -> Option<ExitCode> {
    let cpu = first_allowed_cpu()?;
    let exe = std::env::current_exe().ok()?;
    let status = Command::new("taskset")
        .args(["-c", &cpu])
        .arg(exe)
        .args(args)
        .env(PINNED_ENV, &cpu)
        .status()
        .ok()?;
    Some(match status.code() {
        Some(0) => ExitCode::SUCCESS,
        Some(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
        None => ExitCode::FAILURE,
    })
}

fn run_one(config: &RunConfig) -> ExitCode {
    let spec = report::Spec::embedded();
    let pinned_cpu = std::env::var(PINNED_ENV).ok();
    if pinned_cpu.is_none() {
        eprintln!("perf_stack: warning: `taskset` is not available, this run is NOT pinned");
    }
    let outcome = match run_workload(config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perf_stack: {}: {e}", config.workload.name());
            return ExitCode::FAILURE;
        }
    };

    let w = config.workload;
    let timed = w.timed_ops(config.seconds);
    println!("env.pinned = {}", u8::from(pinned_cpu.is_some()));
    println!("env.cpu = {}", pinned_cpu.as_deref().unwrap_or("any"));
    println!(
        "env.nproc = {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let aes_engine = oram_crypto::CtrKeystream::new([0; 16]).engine();
    println!("env.aes_engine = {}", aes_engine.label());
    println!("env.workload = {}", w.name());
    println!("env.seed = {}", config.seed);
    println!("env.trace = {}", u8::from(config.trace));
    println!("env.timed_ops = {timed}");
    println!("env.warmup_ops = {}", warmup_ops(timed));
    println!("env.flush_policy = {}", workload::FLUSH_POLICY);
    let listed = if config.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for metric in listed {
        if let Some(value) = outcome.metrics.get(&metric.name) {
            println!("{}.{} = {value} {}", w.name(), metric.name, metric.unit);
        }
    }
    println!("{}", report::result_line(listed, &outcome));
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("perf_stack: {e}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::One(config) => {
            if std::env::var_os(PINNED_ENV).is_none() {
                if let Some(code) = run_pinned(&args) {
                    return code;
                }
            }
            run_one(&config)
        }
        Mode::All {
            seed,
            seconds,
            repeat,
            out,
        } => report::run_all(seed, seconds, repeat, out.as_deref()),
        Mode::Compare(a, b) => report::compare(&a, &b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_lines_parse_into_one_mode_each() {
        let args = |line: &str| -> Vec<String> { line.split(' ').map(String::from).collect() };
        match parse_args(&args(
            "--workload tcp_open --seed 9 --seconds 2.5 --trace 1",
        ))
        .unwrap()
        {
            Mode::One(c) => {
                assert_eq!(c.workload, Workload::TcpOpen);
                assert_eq!((c.seed, c.seconds, c.trace), (9, 2.5, true));
            }
            _ => panic!("not a single run"),
        }
        assert!(matches!(
            parse_args(&args("--all --repeat 3 --out x.json")).unwrap(),
            Mode::All { repeat: 3, .. }
        ));
        assert!(matches!(
            parse_args(&args("--compare a.json b.json")).unwrap(),
            Mode::Compare(..)
        ));
        for bad in [
            "--workload nope",
            "--all --workload mem_scan",
            "--seconds 0 --all",
            "--seed x --all",
            "--compare a.json",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "`{bad}` parsed");
        }
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn the_first_allowed_cpu_is_a_number() {
        let cpu = first_allowed_cpu().expect("linux reports the allowed CPUs");
        assert!(cpu.parse::<u32>().is_ok());
    }

    /// Every workload, untraced and traced, at a five-hundredth of a second's
    /// worth of operations: no operation fails, every end-to-end metric is
    /// there and above zero, and every name either mode emits is one that
    /// `BENCHMARK.json` lists.
    #[test]
    fn smoke_of_all_six_workloads_traced_and_untraced() {
        let spec = report::Spec::embedded();
        for workload in Workload::ALL {
            for trace in [false, true] {
                let config = RunConfig {
                    workload,
                    seed: 3,
                    seconds: 0.02,
                    trace,
                    spans_out: None,
                };
                let label = format!("{} trace={trace}", workload.name());
                let outcome = run_workload(&config).unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(outcome.tally.failed, 0, "{label}");
                assert!(outcome.tally.attempted > 0, "{label}");
                let listed = if trace {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                for (name, value) in &outcome.metrics.0 {
                    assert!(value.is_finite(), "{label}: {name} = {value}");
                    assert!(
                        name.chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                        "{label}: `{name}` is not a metric name"
                    );
                    assert!(
                        listed.iter().any(|m| &m.name == name),
                        "{label}: `{name}` is not in BENCHMARK.json"
                    );
                }
                if !trace {
                    for metric in &spec.end_to_end {
                        let value = outcome.metrics.get(&metric.name);
                        assert!(
                            value.is_some_and(|v| v > 0.0),
                            "{label}: {} = {value:?}",
                            metric.name
                        );
                    }
                }
                let line = report::result_line(listed, &outcome);
                let parsed = json::Json::parse(&line).unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(parsed.get("correct"), Some(&json::Json::Bool(true)));
                assert_eq!(parsed.get("metrics").unwrap().fields().len(), listed.len());
            }
        }
    }
}
