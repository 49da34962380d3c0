//! `hostbench compare`: two sets of result files, one verdict per
//! workload × metric.
//!
//! For each metric both sides' medians and quartiles are shown with the
//! change of B against A. A metric with a bound reads
//!
//! - `worse` when B's median is worse than A's by more than the bound,
//! - `better` when B's median is better by more than the bound, or every
//!   B run beats every A run by more than A's own quartile spread,
//! - `unresolved` when either side's inter-quartile spread exceeds the
//!   bound (unless every B run beats every A run),
//! - `within` otherwise.
//!
//! Exact metrics read `same` only when every value on both sides is
//! bit-identical, `differs` otherwise. Per-layer metrics have no bound and
//! read `-`.

use std::fmt;
use std::path::Path;

use crate::json::{self, Value};
use crate::report::{metric_def, Better};
use crate::stats::{median, quartiles};

/// One result file's identity and metrics.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Workload name.
    pub workload: String,
    /// Whether the file came from a traced run.
    pub traced: bool,
    /// `(name, value)` pairs.
    pub metrics: Vec<(String, f64)>,
}

/// Parses one result file's contents.
pub fn parse_sample(text: &str) -> Result<Sample, String> {
    let v = json::parse(text)?;
    let workload = v
        .get("workload")
        .and_then(Value::as_str)
        .ok_or("no workload")?
        .to_owned();
    let traced = v.get("trace") == Some(&Value::Bool(true));
    let Some(Value::Obj(members)) = v.get("metrics") else {
        return Err("no metrics".into());
    };
    let metrics = members
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(Sample {
        workload,
        traced,
        metrics,
    })
}

/// Loads result files; a directory contributes every `*.json` in it
/// except span dumps (`*.trace.json`).
pub fn load(paths: &[String]) -> Result<Vec<Sample>, String> {
    let mut files = Vec::new();
    for p in paths {
        let path = Path::new(p);
        if path.is_dir() {
            let mut entries: Vec<_> = std::fs::read_dir(path)
                .map_err(|e| format!("{p}: {e}"))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|f| {
                    let name = f.to_string_lossy();
                    name.ends_with(".json") && !name.ends_with(".trace.json")
                })
                .collect();
            entries.sort();
            files.extend(entries);
        } else {
            files.push(path.to_path_buf());
        }
    }
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            parse_sample(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

/// A verdict for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved beyond noise.
    Better,
    /// Within the bound.
    Within,
    /// Worse than the bound allows.
    Worse,
    /// Too noisy to call.
    Unresolved,
    /// Exact metric, bit-identical.
    Same,
    /// Exact metric, not bit-identical.
    Differs,
    /// No bound: shown for information.
    Info,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Differs => "differs",
            Verdict::Info => "-",
        })
    }
}

/// One side's order statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let (q1, q3) = quartiles(values);
        Side {
            median: median(values),
            q1,
            q3,
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name, with ` (trace)` for traced runs.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Side A.
    pub a: Side,
    /// Side B.
    pub b: Side,
    /// B's median change against A's, as a share of A's (signed).
    pub change: f64,
    /// The metric's bound, if it has one.
    pub bound: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// The verdict rule of the module docs, for one metric's runs.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (sa, sb) = (Side::of(a), Side::of(b));
    let change = (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE);
    let gain = match better {
        Better::Higher => change,
        Better::Lower => -change,
    };
    let fold = |init: f64, f: fn(f64, f64) -> f64, xs: &[f64]| xs.iter().copied().fold(init, f);
    let b_beats_all = match better {
        Better::Higher => fold(f64::INFINITY, f64::min, b) > fold(f64::NEG_INFINITY, f64::max, a),
        Better::Lower => fold(f64::NEG_INFINITY, f64::max, b) < fold(f64::INFINITY, f64::min, a),
    };
    if b_beats_all && gain > sa.spread() {
        Verdict::Better
    } else if sa.spread() > bound || sb.spread() > bound {
        Verdict::Unresolved
    } else if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// Compares side A against side B, workload by workload.
pub fn compare(a: &[Sample], b: &[Sample]) -> Vec<Row> {
    let mut keys: Vec<(String, bool)> = a.iter().map(|s| (s.workload.clone(), s.traced)).collect();
    keys.sort();
    keys.dedup();
    let mut rows = Vec::new();
    for (workload, traced) in keys {
        let pick = |side: &[Sample]| -> Vec<Sample> {
            side.iter()
                .filter(|s| s.workload == workload && s.traced == traced)
                .cloned()
                .collect()
        };
        let (sa, sb) = (pick(a), pick(b));
        if sb.is_empty() {
            continue;
        }
        for (metric, _) in &sa[0].metrics {
            let values = |side: &[Sample]| -> Vec<f64> {
                side.iter()
                    .filter_map(|s| s.metrics.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
                    .collect()
            };
            let (va, vb) = (values(&sa), values(&sb));
            if vb.is_empty() {
                continue;
            }
            let def = metric_def(metric).filter(|_| !traced);
            let verdict = match def {
                Some(d) if d.exact => {
                    let first = va[0].to_bits();
                    if va.iter().chain(&vb).all(|v| v.to_bits() == first) {
                        Verdict::Same
                    } else {
                        Verdict::Differs
                    }
                }
                Some(d) => verdict(&va, &vb, d.better, d.bound),
                None => Verdict::Info,
            };
            let (side_a, side_b) = (Side::of(&va), Side::of(&vb));
            rows.push(Row {
                workload: if traced {
                    format!("{workload} (trace)")
                } else {
                    workload.clone()
                },
                metric: metric.clone(),
                change: (side_b.median - side_a.median)
                    / side_a.median.abs().max(f64::MIN_POSITIVE),
                a: side_a,
                b: side_b,
                bound: def.filter(|d| !d.exact).map(|d| d.bound),
                verdict,
            });
        }
    }
    rows
}

/// Renders the rows as a fixed-width table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<22} {:<44} {:>30} {:>30} {:>9} {:>6}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    for r in rows {
        let side = |s: &Side| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
        let bound = r
            .bound
            .map_or_else(|| "-".to_owned(), |b| format!("{:.0}%", b * 100.0));
        out.push_str(&format!(
            "{:<22} {:<44} {:>30} {:>30} {:>+8.2}% {:>6}  {}\n",
            r.workload,
            r.metric,
            side(&r.a),
            side(&r.b),
            r.change * 100.0,
            bound,
            r.verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_rule() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Throughput down 20% against a 10% bound: worse.
        assert_eq!(
            verdict(&a, &[80.0, 81.0, 79.0, 80.5, 79.5], Better::Higher, 0.10),
            Verdict::Worse
        );
        // Up 3%: every B beats every A, by more than A's spread.
        assert_eq!(
            verdict(
                &a,
                &[103.0, 104.0, 102.0, 103.5, 102.5],
                Better::Higher,
                0.10
            ),
            Verdict::Better
        );
        // Same runs: within.
        assert_eq!(verdict(&a, &a, Better::Higher, 0.10), Verdict::Within);
        // A noisy side cannot be called.
        assert_eq!(
            verdict(&a, &[50.0, 150.0, 100.0, 60.0, 140.0], Better::Higher, 0.10),
            Verdict::Unresolved
        );
        // Latency (lower is better) up 20%: worse.
        assert_eq!(
            verdict(
                &a,
                &[120.0, 121.0, 119.0, 120.5, 119.5],
                Better::Lower,
                0.10
            ),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_metrics_must_match_bit_for_bit() {
        let sample = |v: f64| Sample {
            workload: "corpus_exec".into(),
            traced: false,
            metrics: vec![("code_kb".into(), v), ("ops_per_s".into(), 10.0)],
        };
        let rows = compare(&[sample(1.5)], &[sample(1.5)]);
        assert_eq!(rows[0].verdict, Verdict::Same);
        let rows = compare(&[sample(1.5)], &[sample(1.5 + 1e-12)]);
        assert_eq!(rows[0].verdict, Verdict::Differs);
        assert_eq!(rows[1].verdict, Verdict::Within);
    }
}
