//! `compare`: judges sets of runs against the bounds in `BENCHMARK.json`.
//!
//! Each set is a file of result lines (as `--out` appends them), all of
//! one workload. The first set is the baseline; every later set is
//! compared to it, metric by metric, on the median. A metric whose
//! spread (interquartile distance over median) within either set exceeds
//! its bound is reported "unresolved" unless every candidate run beats
//! every baseline run.

use std::process::ExitCode;

use crate::json::{self, Value};
use crate::stats::{median, quartiles, spread};

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

struct Set {
    path: String,
    runs: Vec<Value>,
}

impl Set {
    fn load(path: &str) -> Result<Set, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let runs = text
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with('{'))
            .map(|l| json::parse(l).map_err(|e| format!("{path}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        if runs.is_empty() {
            return Err(format!("{path}: no result lines"));
        }
        Ok(Set {
            path: path.to_string(),
            runs,
        })
    }

    fn values(&self, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    }

    fn incorrect(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.get("correct") != Some(&Value::Bool(true)))
            .count()
    }
}

fn load_bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no end_to_end list"))?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{path}: malformed end_to_end entry"))
}

/// One metric's verdict.
fn verdict(b: &Bound, base: &[f64], cand: &[f64]) -> &'static str {
    if base.is_empty() || cand.is_empty() {
        return "MISSING";
    }
    let (ma, mb) = (median(base), median(cand));
    let worse = if b.lower_is_better { mb - ma } else { ma - mb } / ma.abs();
    let wide = [base, cand]
        .iter()
        .any(|s| spread(s).is_none_or(|x| x > b.bound));
    let beats = |x: f64, y: f64| if b.lower_is_better { x < y } else { x > y };
    let all_better = cand.iter().all(|&c| base.iter().all(|&a| beats(c, a)));
    match () {
        _ if wide && all_better => "better",
        _ if wide => "unresolved",
        _ if worse > b.bound => "REGRESSED",
        _ if worse < -b.bound => "better",
        _ => "ok",
    }
}

fn describe(xs: &[f64]) -> String {
    match quartiles(xs) {
        Some((q1, q3)) => format!("{:.6} [{:.6}, {:.6}]", median(xs), q1, q3),
        None => format!("{:.6}", median(xs)),
    }
}

/// Runs the `compare` subcommand; exits non-zero on a regression, a
/// missing metric or an incorrect run.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut bench = "BENCHMARK.json".to_string();
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench = it.next().ok_or("--bench needs a path")?.clone();
        } else {
            files.push(a.clone());
        }
    }
    if files.len() < 2 {
        return Err("compare needs a baseline set and at least one candidate set".into());
    }
    let bounds = load_bounds(&bench)?;
    let sets = files
        .iter()
        .map(|f| Set::load(f))
        .collect::<Result<Vec<_>, _>>()?;
    let base = &sets[0];
    let mut failed = false;
    for cand in &sets[1..] {
        println!(
            "{} ({} runs) -> {} ({} runs)",
            base.path,
            base.runs.len(),
            cand.path,
            cand.runs.len()
        );
        println!(
            "{:<24} {:>40} {:>40} {:>9} {:>6}  verdict",
            "metric", "base median [q1, q3]", "candidate median [q1, q3]", "change", "bound"
        );
        for b in &bounds {
            let (x, y) = (base.values(&b.name), cand.values(&b.name));
            let v = verdict(b, &x, &y);
            failed |= v == "REGRESSED" || v == "MISSING";
            let change = (median(&y) / median(&x) - 1.0) * 100.0;
            println!(
                "{:<24} {:>40} {:>40} {:>8.2}% {:>5.0}%  {v}",
                b.name,
                describe(&x),
                describe(&y),
                change,
                b.bound * 100.0
            );
        }
        for s in [base, cand] {
            if s.incorrect() > 0 {
                println!("{}: {} run(s) not correct", s.path, s.incorrect());
                failed = true;
            }
        }
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "x".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict(&lower(0.1), &base, &base), "ok");
        assert_eq!(
            verdict(&lower(0.1), &base, &[12.0, 12.1, 11.9, 12.0]),
            "REGRESSED"
        );
        assert_eq!(verdict(&lower(0.1), &base, &[8.0, 8.1, 7.9, 8.0]), "better");
        let noisy = [5.0, 15.0, 10.0, 20.0];
        assert_eq!(verdict(&lower(0.1), &base, &noisy), "unresolved");
        assert_eq!(verdict(&lower(0.1), &base, &[]), "MISSING");
    }
}
