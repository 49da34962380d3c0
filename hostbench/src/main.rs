//! The `hostbench` command.
//!
//! ```text
//! hostbench run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
//!               [--quick] [--out DIR]
//! hostbench compare A... -- B...
//! hostbench schema
//! ```
//!
//! `run` with `--workload` measures one workload in this process; without
//! it, each workload runs in a fresh child process, one after another.
//! Human-readable lines come first; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}` holding
//! the `BENCHMARK.json` end-to-end metrics, or with `--trace 1` the
//! per-layer ones. Every run also writes a result file (all metrics) and,
//! when traced, its spans under `--out` (default `target/hostbench`).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use hostbench::bench::{Outcome, RunConfig};
use hostbench::report::{self, Metric, END_TO_END};
use hostbench::{compare, json, quick_ops, run_workload, stats, WORKLOADS};

const USAGE: &str = "usage:
  hostbench run [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--out DIR]
  hostbench compare A... -- B...    (files or directories of result files)
  hostbench schema                  (prints BENCHMARK.json)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("schema") => {
            print!("{}", report::benchmark_json(&WORKLOADS));
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_owned()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("hostbench: {e}");
        ExitCode::from(2)
    })
}

struct RunArgs {
    workload: Option<String>,
    cfg: RunConfig,
    out: PathBuf,
    /// The arguments to forward to per-workload child processes.
    forward: Vec<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        cfg: RunConfig::timed(1, 10.0),
        out: PathBuf::from("target/hostbench"),
        forward: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = || {
            args.get(i + 1)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = || {
            value()?
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number"))
        };
        // Arguments consumed: the flag, plus its value if it takes one.
        let used = match flag {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|(n, _)| n == w) {
                    return Err(format!("unknown workload {w}"));
                }
                r.workload = Some(w.clone());
                2
            }
            "--seed" => {
                r.cfg.seed = number()?;
                2
            }
            "--seconds" => {
                r.cfg.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("{flag}: not a positive number"))?;
                2
            }
            "--out" => {
                r.out = PathBuf::from(value()?);
                2
            }
            "--quick" => {
                r.cfg.quick = true;
                1
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => 2,
                Some("1") => {
                    r.cfg.trace = true;
                    2
                }
                _ => {
                    r.cfg.trace = true;
                    1
                }
            },
            other => return Err(format!("unknown option {other}\n{USAGE}")),
        };
        if flag != "--workload" {
            r.forward.extend_from_slice(&args[i..i + used]);
        }
        i += used;
    }
    Ok(r)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let r = parse_run(args)?;
    match &r.workload {
        Some(w) => {
            run_one(w, &r.cfg, &r.out)?;
            Ok(ExitCode::SUCCESS)
        }
        None => run_all(&r),
    }
}

/// Runs every workload in its own child process and prints an aggregate
/// result line keyed `<workload>.<metric>`.
fn run_all(r: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for (name, _) in WORKLOADS {
        let out = Command::new(&exe)
            .args(["run", "--workload", name])
            .args(&r.forward)
            .output()
            .map_err(|e| format!("spawning {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let v = json::parse(last)
            .map_err(|e| format!("{name} printed no result ({e}); exit {}", out.status))?;
        correct &= v.get("correct") == Some(&json::Value::Bool(true));
        attempted += v
            .get("attempted")
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0) as u64;
        failed += v.get("failed").and_then(json::Value::as_f64).unwrap_or(0.0) as u64;
        if let Some(json::Value::Obj(ms)) = v.get("metrics") {
            for (k, m) in ms {
                let value = m.get("value").and_then(json::Value::as_f64).unwrap_or(0.0);
                let unit = report::unit_of(k);
                metrics.push(Metric {
                    name: format!("{name}.{k}"),
                    value,
                    unit,
                });
            }
        }
    }
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_one(workload: &str, cfg: &RunConfig, out_dir: &Path) -> Result<(), String> {
    let cfg = &if cfg.quick {
        RunConfig {
            trace: cfg.trace,
            ..RunConfig::quick(cfg.seed, quick_ops(workload))
        }
    } else {
        cfg.clone()
    };
    let outcome =
        run_workload(workload, cfg).ok_or_else(|| format!("unknown workload {workload}"))?;
    let e2e = report::end_to_end(&outcome, report::peak_rss_mb());
    let mode = match cfg.ops {
        Some(n) => format!("{n} ops"),
        None => format!("{} s", cfg.seconds),
    };
    println!(
        "hostbench {workload}  seed {}  {mode}{}",
        cfg.seed,
        if cfg.quick { "  quick" } else { "" }
    );
    print_metrics(&e2e);
    print_batches(&outcome);
    for (name, value) in &outcome.untraced.counts {
        println!("  count {name:<32} {value}");
    }

    let mut layers = Vec::new();
    if let Some((phase, tr)) = &outcome.traced {
        layers = report::per_layer(phase, tr, &outcome.untraced, outcome.tail_percentile);
        println!(
            "per-layer (traced phase, {} ops):",
            phase.durations_ns.len()
        );
        print_metrics(layers.iter().filter(|m| m.value != 0.0));
        std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        let path = out_dir.join(format!("{workload}-s{}.trace.json", cfg.seed));
        std::fs::write(&path, tr.to_json(workload, cfg.seed))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  spans written to {}", path.display());
    }
    let tallies = std::iter::once(&outcome.untraced.tally)
        .chain(outcome.traced.as_ref().map(|(p, _)| &p.tally));
    let (attempted, failed) = tallies
        .clone()
        .fold((0, 0), |(a, f), t| (a + t.attempted, f + t.failed));
    for f in tallies.flat_map(|t| &t.failures) {
        eprintln!("hostbench {workload}: FAILED {f}");
    }
    let correct = outcome.correct();
    let path = write_result(workload, cfg, out_dir, &outcome, &e2e, &layers, correct)?;
    println!("  result written to {}", path.display());

    let shown: Vec<Metric> = if cfg.trace {
        layers
    } else {
        END_TO_END
            .iter()
            .filter_map(|d| e2e.iter().find(|m| m.name == d.name).cloned())
            .collect()
    };
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &shown)
    );
    Ok(())
}

fn print_metrics<'a>(metrics: impl IntoIterator<Item = &'a Metric>) {
    for m in metrics {
        println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn print_batches(o: &Outcome) {
    let rates = o.untraced.batch_rates();
    if rates.is_empty() {
        return;
    }
    let lo = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = rates.iter().copied().fold(0.0, f64::max);
    println!(
        "  batches: {} of ~{} ops, work/s min {lo:.3} median {:.3} max {hi:.3}",
        rates.len(),
        o.untraced.durations_ns.len().div_ceil(10),
        stats::median(&rates)
    );
}

fn write_result(
    workload: &str,
    cfg: &RunConfig,
    out_dir: &Path,
    o: &Outcome,
    e2e: &[Metric],
    layers: &[Metric],
    correct: bool,
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let kind = if cfg.trace { "trace" } else { "e2e" };
    let path = (0..)
        .map(|k| out_dir.join(format!("{workload}-s{}-{kind}-{k}.json", cfg.seed)))
        .find(|p| !p.exists())
        .expect("a free file name");
    let fresh = |m: &&Metric| !e2e.iter().any(|e| e.name == m.name);
    let all: Vec<Metric> = e2e
        .iter()
        .chain(layers.iter().filter(fresh))
        .cloned()
        .collect();
    let counts: Vec<Metric> = o
        .untraced
        .counts
        .iter()
        .map(|(n, v)| Metric {
            name: (*n).to_owned(),
            value: *v,
            unit: "count",
        })
        .collect();
    let batches: Vec<String> = o
        .untraced
        .batch_rates()
        .iter()
        .map(|r| format!("{r}"))
        .collect();
    let body = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"trace\": {}, \"quick\": {}, \"ops\": {}, \
         \"correct\": {correct}, \"attempted\": {}, \"failed\": {},\n\"metrics\": {},\n\"counts\": {},\n\
         \"batch_work_per_s\": [{}]}}\n",
        cfg.seed,
        cfg.trace,
        cfg.quick,
        o.untraced.durations_ns.len(),
        o.untraced.tally.attempted,
        o.untraced.tally.failed,
        report::metrics_json(&all),
        report::metrics_json(&counts),
        batches.join(", "),
    );
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let (a, b) = match args.iter().position(|a| a == "--") {
        Some(i) => (&args[..i], &args[i + 1..]),
        None if args.len() == 2 => (&args[..1], &args[1..]),
        None => return Err(format!("compare needs A... -- B...\n{USAGE}")),
    };
    let (a, b) = (compare::load(a)?, compare::load(b)?);
    if a.is_empty() || b.is_empty() {
        return Err("no result files on one side".into());
    }
    let rows = compare::compare(&a, &b);
    print!("{}", compare::render(&rows));
    let bad = rows.iter().any(|r| {
        matches!(
            r.verdict,
            compare::Verdict::Worse | compare::Verdict::Differs
        )
    });
    Ok(if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
