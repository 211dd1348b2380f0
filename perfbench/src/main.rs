//! `vapres-benchmark`: the repository benchmark of the VAPRES simulator.
//!
//! ```text
//! vapres-benchmark --workload <e3_stream|swap_storm|sweep|fleet> [--seed N]
//!                  [--seconds S] [--trace 0|1] [--out FILE] [--chrome-trace FILE]
//! vapres-benchmark compare [--bench BENCHMARK.json] <base.jsonl> <cand.jsonl>...
//! ```
//!
//! A run prints one `name value unit` line per metric — the end-to-end
//! metrics, or with `--trace 1` the per-layer metrics of a profiled run —
//! and, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. It exits non-zero when any output check
//! failed. See README.md next to this crate.

mod compare;
mod json;
mod layers;
mod stats;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use std::io::Write;
use std::process::ExitCode;

use workloads::{Metric, RunCfg, Size};

/// The seed whose observables `expected.json` pins.
const DEFAULT_SEED: u64 = 1;

const EXPECTED: &str = include_str!("../expected.json");

const USAGE: &str = "usage: vapres-benchmark --workload <e3_stream|swap_storm|sweep|fleet> \
[--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--chrome-trace FILE]\n       \
vapres-benchmark compare [--bench BENCHMARK.json] <base.jsonl> <candidate.jsonl>...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        _ => run_cli(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
    chrome_trace: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        traced: false,
        out: None,
        chrome_trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => a.workload = value.to_string(),
            "--seed" => a.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?;
            }
            "--trace" => {
                a.traced = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--out" => a.out = Some(value.to_string()),
            "--chrome-trace" => a.chrome_trace = Some(value.to_string()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// The pinned digest of `workload` at [`DEFAULT_SEED`], if any.
fn expected_digest(workload: &str) -> Result<Option<u64>, String> {
    let doc = json::parse(EXPECTED)?;
    let Some(hex) = doc.get("digests").and_then(|d| d.get(workload)) else {
        return Ok(None);
    };
    hex.as_str()
        .and_then(|h| u64::from_str_radix(h.trim_start_matches("0x"), 16).ok())
        .map(Some)
        .ok_or_else(|| format!("expected.json: bad digest for {workload}"))
}

/// The result object printed as the last line of output.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // Names and units are fixed identifiers: nothing to escape.
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run_cli(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_args(args)?;
    let expected = if a.seed == DEFAULT_SEED {
        expected_digest(&a.workload)?
    } else {
        None
    };
    let jobs_n = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4);
    let cfg = RunCfg {
        seed: a.seed,
        seconds: a.seconds,
        traced: a.traced,
        jobs_n,
        size: Size::FULL,
        expected,
    };
    let r = workloads::run(&a.workload, &cfg)?;
    let mut checks = r.checks;
    for m in &r.metrics {
        // A metric that is not a finite number is a broken measurement.
        checks.check(m.value.is_finite());
    }
    let metrics: Vec<Metric> = r
        .metrics
        .iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m.clone()
        })
        .collect();
    println!(
        "workload {} seed {} jobs_n {jobs_n} reps {}",
        a.workload, a.seed, r.reps
    );
    println!(
        "digest 0x{:016x} ({})",
        r.digest,
        match expected {
            Some(e) if e == r.digest => "matches expected.json",
            Some(_) => "DIFFERS from expected.json",
            None => "not pinned for this seed",
        }
    );
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "op_ms_p99 {} ms over {} operations (not gated, see README)",
        r.op_ms_p99, r.ops
    );
    println!(
        "failed_ops_ratio {} ({} of {} checks failed)",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    let correct = checks.failed == 0;
    let line = result_json(correct, checks.attempted, checks.failed, &metrics);
    if let Some(path) = &a.out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {path}: {e}"))?;
        writeln!(f, "{line}").map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = &a.chrome_trace {
        let f = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        let mut w = std::io::BufWriter::new(f);
        r.tracer
            .write_chrome(&mut w)
            .and_then(|()| w.flush())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
