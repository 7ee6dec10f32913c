//! What is printed and compared: the metric lists of `BENCHMARK.json`, the
//! result line of one run, the report of `--all`, and `--compare`.

use std::path::Path;
use std::process::{Command, ExitCode};

use crate::json::{quote, Json};
use crate::workload::Workload;
use crate::Outcome;

/// One metric as `BENCHMARK.json` lists it.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the base by which an end-to-end metric may worsen.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the program needs.  The file is compiled
/// in, so the names, units and bounds printed and compared are by
/// construction the ones the contract lists.
pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// Count metrics that repeat exactly for a seed; `--compare` insists.
const EXACT: [&str; 4] = [
    "bytes_per_req",
    "frontend.path_accesses_per_req",
    "posmap.plb_hit_rate",
    "omap.oram_requests_per_op",
];

impl Spec {
    pub fn embedded() -> Spec {
        let root = Json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is valid JSON");
        let metrics = |key: &str| {
            root.get(key)
                .expect("BENCHMARK.json lists its metrics")
                .as_arr()
                .iter()
                .map(|m| {
                    let text = |field: &str| {
                        m.get(field)
                            .and_then(Json::as_str)
                            .expect("a metric has a name, a unit and a direction")
                            .to_string()
                    };
                    MetricSpec {
                        name: text("name"),
                        unit: text("unit"),
                        lower_is_better: text("better") == "lower",
                        bound: m.get("bound").and_then(Json::as_f64),
                    }
                })
                .collect()
        };
        Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json gives run_seconds"),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }
}

/// The last line of a run: every listed metric, measured or (for a layer
/// that does not run on this workload) zero.
pub fn result_line(listed: &[MetricSpec], outcome: &Outcome) -> String {
    let metrics: Vec<String> = listed
        .iter()
        .map(|m| {
            let value = outcome.metrics.get(&m.name).filter(|v| v.is_finite());
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                value.unwrap_or(0.0),
                quote(&m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        metrics.join(", ")
    )
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs every workload untraced and traced, `repeat` times on seeds `seed`,
/// `seed + 1`, …, each run a child process of its own, and writes the report
/// `--compare` reads.
pub fn run_all(seed: u64, seconds: f64, repeat: u64, out: Option<&Path>) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perf_stack: locating the executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut runs = Vec::new();
    let mut failed = false;
    for round in 0..repeat {
        for workload in Workload::ALL {
            for trace in [0u8, 1] {
                let run_seed = seed + round;
                let output = Command::new(&exe)
                    .args(["--workload", workload.name()])
                    .args(["--seed", &run_seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", &trace.to_string()])
                    .stderr(std::process::Stdio::inherit())
                    .output();
                let stdout = match &output {
                    Ok(o) => String::from_utf8_lossy(&o.stdout).into_owned(),
                    Err(e) => {
                        eprintln!("perf_stack: running {}: {e}", workload.name());
                        String::new()
                    }
                };
                print!("{stdout}");
                let result = stdout.lines().last().filter(|l| Json::parse(l).is_ok());
                failed |= !output.is_ok_and(|o| o.status.success()) || result.is_none();
                if let Some(result) = result {
                    runs.push(format!(
                        "    {{\"workload\": {}, \"seed\": {run_seed}, \"trace\": {trace}, \"result\": {result}}}",
                        quote(workload.name())
                    ));
                }
            }
        }
    }
    let report = format!(
        "{{\n  \"env\": {{\"rustc\": {}, \"git_commit\": {}, \"nproc\": {}, \"seed\": {seed}, \
         \"seconds\": {seconds}, \"repeat\": {repeat}, \"flush_policy\": {}}},\n  \"runs\": [\n{}\n  ]\n}}\n",
        quote(&command_line("rustc", &["-V"])),
        quote(&command_line("git", &["rev-parse", "HEAD"])),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        quote(crate::workload::FLUSH_POLICY),
        runs.join(",\n")
    );
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("perf_stack: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("perf_stack: wrote {}", path.display());
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The three quartiles, as Python's `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let position = (i + 1) * (n + 1);
        let j = (position / 4).clamp(1, n - 1);
        let delta = position as f64 - (j * 4) as f64;
        *q = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Every value of `metric` on `workload` in a report, in run order.
fn values(report: &Json, workload: &str, trace: u8, metric: &str) -> Vec<(u64, f64)> {
    report
        .get("runs")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter(|run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace").and_then(Json::as_f64) == Some(f64::from(trace))
        })
        .filter_map(|run| {
            let seed = run.get("seed")?.as_f64()? as u64;
            let value = run
                .get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?;
            Some((seed, value.as_f64()?))
        })
        .collect()
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Worse,
    /// One side's own runs spread wider than the bound: the difference, if
    /// any, cannot be told from noise.
    Unresolved,
}

/// Judges `b` against base `a` under `bound` (a share of `a`'s median).
fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (base, new) = (crate::stats::median(a), crate::stats::median(b));
    let worsening = if lower_is_better {
        (new - base) / base
    } else {
        (base - new) / base
    };
    let spread = |v: &[f64]| quartiles(v).map_or(0.0, |[q1, q2, q3]| (q3 - q1) / q2);
    let every_b_better = a.iter().all(|&x| {
        b.iter()
            .all(|&y| if lower_is_better { y < x } else { y > x })
    });
    if (spread(a) > bound || spread(b) > bound) && !every_b_better {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Prints, per workload and end-to-end metric, both medians, the ratio with
/// its base, the bound and the verdict; checks that the exact counts agree
/// on equal seeds.  Fails on `worse` or on a count that differs.
pub fn compare(a_path: &Path, b_path: &Path) -> ExitCode {
    let load = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf_stack: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::embedded();
    let mut worse = 0;
    println!("base A = {}, B = {}", a_path.display(), b_path.display());
    for workload in Workload::ALL {
        for metric in &spec.end_to_end {
            let only = |side: &Json| -> Vec<f64> {
                values(side, workload.name(), 0, &metric.name)
                    .into_iter()
                    .map(|(_, v)| v)
                    .collect()
            };
            let (va, vb) = (only(&a), only(&b));
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{:<12} {:<14} missing on one side",
                    workload.name(),
                    metric.name
                );
                worse += 1;
                continue;
            }
            let bound = metric.bound.unwrap_or(0.0);
            let verdict = judge(&va, &vb, metric.lower_is_better, bound);
            let (ma, mb) = (crate::stats::median(&va), crate::stats::median(&vb));
            println!(
                "{:<12} {:<14} A {:>14.4} B {:>14.4} {:<6} B/A {:.4} ({} is better, bound {:.0}%, n {}/{}) {}",
                workload.name(),
                metric.name,
                ma,
                mb,
                metric.unit,
                mb / ma,
                if metric.lower_is_better { "lower" } else { "higher" },
                bound * 100.0,
                va.len(),
                vb.len(),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
            worse += u32::from(verdict == Verdict::Worse);
        }
        for name in EXACT {
            let trace = u8::from(name.contains('.'));
            let theirs = values(&b, workload.name(), trace, name);
            for (seed, va) in values(&a, workload.name(), trace, name) {
                if let Some((_, vb)) = theirs.iter().find(|(s, _)| *s == seed) {
                    if va != *vb {
                        println!(
                            "{:<12} {name} differs on seed {seed}: A {va} B {vb} COUNT MISMATCH",
                            workload.name()
                        );
                        worse += 1;
                    }
                }
            }
        }
    }
    if worse == 0 {
        println!("no end-to-end metric is worse than its bound; exact counts agree");
        ExitCode::SUCCESS
    } else {
        println!("{worse} finding(s)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4)
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn a_change_is_worse_only_beyond_the_bound_and_above_the_noise() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(judge(&steady, &[95.0; 5], false, 0.1), Verdict::Ok);
        assert_eq!(judge(&steady, &[85.0; 5], false, 0.1), Verdict::Worse);
        assert_eq!(judge(&steady, &[115.0; 5], true, 0.1), Verdict::Worse);
        assert_eq!(judge(&steady, &[115.0; 5], false, 0.1), Verdict::Ok);
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        assert_eq!(judge(&steady, &noisy, false, 0.1), Verdict::Unresolved);
        // Noisy, but every run of B beats every run of A.
        let faster = [150.0, 200.0, 300.0, 180.0, 260.0];
        assert_eq!(judge(&steady, &faster, false, 0.1), Verdict::Ok);
        // One run a side: no spread to speak of, the medians decide.
        assert_eq!(judge(&[100.0], &[80.0], false, 0.1), Verdict::Worse);
    }

    #[test]
    fn benchmark_json_lists_named_metrics_with_units_and_bounds() {
        let spec = Spec::embedded();
        assert!(spec.run_seconds >= 1.0);
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(setup.lower_is_better && setup.unit == "s");
        for m in &spec.end_to_end {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(!m.unit.is_empty() && m.name.len() <= 64, "{}", m.name);
        }
        for name in EXACT {
            assert!(
                spec.end_to_end
                    .iter()
                    .chain(&spec.per_layer)
                    .any(|m| m.name == name),
                "{name}"
            );
        }
    }

    #[test]
    fn the_result_line_lists_every_metric_and_zero_for_the_unmeasured() {
        let spec = Spec::embedded();
        let mut outcome = Outcome {
            tally: crate::stack::Tally {
                attempted: 12,
                failed: 1,
            },
            metrics: crate::layers::Metrics::default(),
        };
        outcome.metrics.put("ops_per_s", 1234.5);
        let line = Json::parse(&result_line(&spec.end_to_end, &outcome)).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("attempted").unwrap().as_f64(), Some(12.0));
        assert_eq!(line.get("failed").unwrap().as_f64(), Some(1.0));
        let metrics = line.get("metrics").unwrap();
        assert_eq!(metrics.fields().len(), spec.end_to_end.len());
        let ops = metrics.get("ops_per_s").unwrap();
        assert_eq!(ops.get("value").unwrap().as_f64(), Some(1234.5));
        assert_eq!(ops.get("unit").unwrap().as_str(), Some("1/s"));
        assert_eq!(
            metrics
                .get("setup_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
