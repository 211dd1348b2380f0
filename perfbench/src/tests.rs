//! Workload tests at reduced sizes (each run takes well under 2 s in an
//! optimized build), plus the pinned fleet revisit bug.

use vapres_kpn::{run_fleet, FleetSpec};

use crate::json;
use crate::layers::PER_LAYER;
use crate::workloads::{self, fleet_row_ok, Metric, RunCfg, Size, END_TO_END, WORKLOADS};

fn tiny() -> Size {
    Size {
        e3_samples: 4_000,
        storm_swaps: 6,
        sweep_samples: 200,
        fleet_rsbs: 3,
        fleet_samples: 200,
    }
}

fn cfg(traced: bool, expected: Option<u64>) -> RunCfg {
    RunCfg {
        seed: 7,
        seconds: 0.0,
        traced,
        jobs_n: 2,
        size: tiny(),
        expected,
    }
}

fn benchmark_json() -> json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(json::Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(json::Value::as_str)
                    .expect("field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_code_emits() {
    assert_eq!(declared("end_to_end"), owned(&END_TO_END));
    assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(json::Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(json::Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(names, WORKLOADS);
}

/// Runs a workload untraced, traced, and against a wrong digest.
fn check_workload(workload: &str) {
    let plain = workloads::run(workload, &cfg(false, None)).expect("untraced run");
    assert_eq!(plain.checks.failed, 0, "{workload}: {:?}", plain.checks);
    assert!(plain.checks.attempted > 0);
    assert_eq!(
        emitted(&plain.metrics),
        declared("end_to_end"),
        "{workload}"
    );
    assert!(
        plain
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0),
        "{workload}: {:?}",
        plain.metrics
    );

    let traced = workloads::run(workload, &cfg(true, None)).expect("traced run");
    assert_eq!(traced.checks.failed, 0, "{workload}: {:?}", traced.checks);
    assert_eq!(
        emitted(&traced.metrics),
        declared("per_layer"),
        "{workload}"
    );
    assert!(
        traced.metrics.iter().all(|m| m.value.is_finite()),
        "{workload}: {:?}",
        traced.metrics
    );
    assert_eq!(
        plain.digest, traced.digest,
        "{workload}: the digest repeats across calls, traced or not"
    );

    let flipped = workloads::run(workload, &cfg(false, Some(plain.digest ^ 1))).expect("run");
    assert!(
        flipped.checks.failed > 0,
        "{workload}: a wrong expected digest must count as a failure"
    );
}

#[test]
fn e3_stream_workload() {
    check_workload("e3_stream");
}

#[test]
fn swap_storm_workload() {
    check_workload("swap_storm");
}

#[test]
fn sweep_workload() {
    check_workload("sweep");
}

#[test]
fn fleet_workload() {
    check_workload("fleet");
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(workloads::run("nope", &cfg(false, None)).is_err());
}

/// Known bug, pinned rather than fixed: the fleet runner keeps the
/// channel ids of an RSB's first deployment, but a seamless swap
/// releases those channels and establishes new ones, so every revisit
/// fails with "unknown channel" — while the row still reads healthy.
/// The benchmark must count exactly the rows whose outcome is not
/// `ok`/`none`, whatever the health flag says.
#[test]
fn fleet_revisit_failures_count_despite_health() {
    let spec = FleetSpec {
        rsbs: 2,
        samples: 200,
        interval: 50,
        swaps: 4,
        seed: 0xF1EE7,
        sample_every: None,
    };
    let r = run_fleet(&spec, 1, None).expect("fleet runs");
    let outcomes: Vec<&str> = r.rows.iter().map(|row| row.outcome.as_str()).collect();
    let bad = r
        .rows
        .iter()
        .filter(|row| row.outcome != "ok" && row.outcome != "none")
        .count() as u64;
    assert_eq!(bad, 2, "both RSBs are revisited: {outcomes:?}");
    assert!(outcomes[0].starts_with("swap 2: ") && outcomes[0].contains("unknown channel"));
    assert!(r.rows.iter().all(|row| row.healthy), "health reads ok");
    let counted = r.rows.iter().filter(|row| !fleet_row_ok(row)).count() as u64;
    assert_eq!(counted, bad, "the benchmark counts exactly the failed rows");
}
