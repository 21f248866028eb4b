//! `benchmark compare DIR_A DIR_B`: the end-to-end metrics of two sets of
//! untraced runs, judged against the bounds in `BENCHMARK.json`.
//!
//! Each directory is searched recursively for `<workload>.json` files, one
//! per run. Per workload and metric, both sets' medians and quartiles are
//! printed with the change from A to B. A metric whose spread in set A
//! exceeds its bound is `unresolved` unless every run of B reads better
//! than every run of A; otherwise it is `worse` when B's median is worse
//! than A's by more than the bound. The exit code is 1 when any metric is
//! `worse`, a workload or metric of A is missing from B, or the share of
//! failed operations rose; 2 on a usage error.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::Value;

use crate::stats::{median, quartiles, relative_spread};
use crate::workload::Workload;

/// One end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
struct Bound {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

/// All runs of one workload found in one directory.
#[derive(Debug, Default)]
struct Runs {
    metrics: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
}

/// How one metric moved from set A to set B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
    /// B has no value of a metric A has.
    Missing,
}

pub fn main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        return usage("compare takes exactly two directories");
    };
    let bounds = match crate::read_spec().and_then(|spec| parse_bounds(&spec)) {
        Ok(bounds) => bounds,
        Err(e) => return usage(&e),
    };
    let (set_a, set_b) = match (load(Path::new(a)), load(Path::new(b))) {
        (Ok(set_a), Ok(set_b)) => (set_a, set_b),
        (Err(e), _) | (_, Err(e)) => return usage(&e),
    };
    let (lines, regressed) = compare(&bounds, &set_a, &set_b);
    for line in lines {
        println!("{line}");
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// One line per workload and metric, and whether B regressed from A.
fn compare(
    bounds: &[Bound],
    set_a: &BTreeMap<String, Runs>,
    set_b: &BTreeMap<String, Runs>,
) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut regressed = false;
    for workload in Workload::ALL.map(Workload::name) {
        let (Some(runs_a), Some(runs_b)) = (set_a.get(workload), set_b.get(workload)) else {
            if set_a.contains_key(workload) {
                lines.push(format!("{workload}: runs missing in B"));
                regressed = true;
            } else {
                lines.push(format!("{workload}: runs missing in A"));
            }
            continue;
        };
        for bound in bounds {
            let empty = Vec::new();
            let values_a = runs_a.metrics.get(&bound.name).unwrap_or(&empty);
            let values_b = runs_b.metrics.get(&bound.name).unwrap_or(&empty);
            let (verdict, change) = judge(bound, values_a, values_b);
            regressed |= matches!(verdict, Verdict::Worse | Verdict::Missing);
            lines.push(format!(
                "{workload} {} [{}] A {} B {} change {} bound {:.1}% {verdict:?}",
                bound.name,
                bound.unit,
                summary(values_a),
                summary(values_b),
                change.map_or("-".to_owned(), |c| format!("{:+.2}%", c * 100.0)),
                bound.bound * 100.0,
            ));
        }
        let ratio = |runs: &Runs| runs.failed as f64 / runs.attempted.max(1) as f64;
        let (fail_a, fail_b) = (ratio(runs_a), ratio(runs_b));
        lines.push(format!("{workload} fail_ratio A {fail_a} B {fail_b}"));
        if fail_b > fail_a {
            lines.push(format!("{workload}: the share of failed operations rose"));
            regressed = true;
        }
    }
    (lines, regressed)
}

fn usage(message: &str) -> ExitCode {
    eprintln!("error: {message}\n{}", crate::USAGE);
    ExitCode::from(2)
}

fn parse_bounds(spec: &Value) -> Result<Vec<Bound>, String> {
    let list = spec["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |key: &str| {
                m[key]
                    .as_str()
                    .map(str::to_owned)
                    .ok_or(format!("end_to_end entry without `{key}`"))
            };
            Ok(Bound {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m["bound"]
                    .as_f64()
                    .ok_or("end_to_end entry without `bound`")?,
            })
        })
        .collect()
}

/// Judges B against A, returning the verdict and B's median change
/// relative to A's (positive = larger). A metric new in B is unresolved.
fn judge(bound: &Bound, a: &[f64], b: &[f64]) -> (Verdict, Option<f64>) {
    let Some(mid_b) = median(b) else {
        return (Verdict::Missing, None);
    };
    let Some(mid_a) = median(a) else {
        return (Verdict::Unresolved, None);
    };
    let change = if mid_a == 0.0 {
        0.0
    } else {
        (mid_b - mid_a) / mid_a.abs()
    };
    let worsening = if bound.higher_is_better {
        -change
    } else {
        change
    };
    let better = |x: f64, y: f64| if bound.higher_is_better { x > y } else { x < y };
    let b_always_better = b.iter().all(|&vb| a.iter().all(|&va| better(vb, va)));
    let resolved = relative_spread(a).is_some_and(|spread| spread <= bound.bound);
    let verdict = if !resolved && !b_always_better {
        Verdict::Unresolved
    } else if worsening > bound.bound {
        Verdict::Worse
    } else if worsening < -bound.bound || (!resolved && b_always_better) {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (verdict, Some(change))
}

fn summary(values: &[f64]) -> String {
    match (median(values), quartiles(values)) {
        (Some(mid), Some((q1, q3))) => format!("{mid:.6} [{q1:.6}, {q3:.6}] n={}", values.len()),
        (Some(mid), None) => format!("{mid:.6} n={}", values.len()),
        _ => "- n=0".to_owned(),
    }
}

/// Every untraced run under `dir`, grouped by workload.
fn load(dir: &Path) -> Result<BTreeMap<String, Runs>, String> {
    let mut files = Vec::new();
    collect(dir, &mut files).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut runs: BTreeMap<String, Runs> = BTreeMap::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let record: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = record["workload"]
            .as_str()
            .ok_or(format!("{}: no workload", path.display()))?;
        let entry = runs.entry(workload.to_owned()).or_default();
        entry.attempted += record["attempted"].as_u64().unwrap_or(0);
        entry.failed += record["failed"].as_u64().unwrap_or(0);
        for (name, metric) in record["metrics"].as_object().into_iter().flatten() {
            if let Some(value) = metric["value"].as_f64() {
                entry.metrics.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(runs)
}

/// Paths of all `<workload>.json` files under `dir`, sorted.
fn collect(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect(&path, files)?;
        } else if path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_suffix(".json"))
            .is_some_and(|stem| Workload::parse(stem).is_some())
        {
            files.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher_is_better: bool) -> Bound {
        Bound {
            name: "m".into(),
            unit: "s".into(),
            higher_is_better,
            bound: 0.05,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 9.9, 10.05, 9.95];
        let slower = [11.0, 11.1, 10.9, 11.05, 10.95];
        let same = [10.2, 10.0, 9.9, 10.1, 10.0];
        assert_eq!(judge(&bound(false), &a, &slower).0, Verdict::Worse);
        assert_eq!(judge(&bound(true), &a, &slower).0, Verdict::Better);
        assert_eq!(judge(&bound(false), &a, &same).0, Verdict::Same);
        // A spread wider than the bound leaves the metric unresolved…
        let noisy = [8.0, 12.0, 10.0, 9.0, 11.0];
        assert_eq!(judge(&bound(false), &noisy, &slower).0, Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        let fast = [5.0, 5.1, 4.9];
        assert_eq!(judge(&bound(false), &noisy, &fast).0, Verdict::Better);
        assert_eq!(judge(&bound(false), &a, &[]).0, Verdict::Missing);
        assert_eq!(judge(&bound(false), &[], &a).0, Verdict::Unresolved);
    }

    #[test]
    fn a_workload_or_metric_missing_in_b_is_a_regression() {
        let runs = |metric: &str| {
            let mut runs = Runs {
                attempted: 5,
                ..Runs::default()
            };
            runs.metrics.insert(metric.into(), vec![10.0, 10.1, 9.9]);
            (Workload::PhoneDvs.name().to_owned(), runs)
        };
        let bounds = [bound(false)];
        let full = BTreeMap::from([runs("m")]);
        assert!(!compare(&bounds, &full, &BTreeMap::from([runs("m")])).1);
        assert!(compare(&bounds, &full, &BTreeMap::new()).1);
        assert!(compare(&bounds, &full, &BTreeMap::from([runs("other")])).1);
        // A workload new in B is reported but is no regression.
        assert!(!compare(&bounds, &BTreeMap::new(), &full).1);
    }
}
