//! `vapres diff` — run-to-run regression gating over committed
//! observability artifacts.
//!
//! Each file is read once through [`vapres_sim::json`], the one strict
//! JSON reader, and its kind comes from what it holds: telemetry JSONL
//! records carry `"type"`, trajectories carry `"bench": "sweep"` or
//! `"fleet"`, and cost models a `"cost_model"` stamp. A per-kind table
//! flattens the file into `(row, field) -> value` entries, each with a
//! policy: **exact** (any change is a regression), **toleranced** (a
//! relative drift past `--tolerance`, default 0.05, is one) or
//! **skipped** (never compared).
//!
//! | kind | rows keyed by | exact | toleranced | skipped |
//! |---|---|---|---|---|
//! | telemetry JSONL (`sim --metrics`, `sweep --jsonl`) | `name{labels}` | | counters, gauges, histogram p50/p95/p99 | spans |
//! | sweep trajectory (`sweep --bench`) | `scenarios` by `label` | strings | numbers | `index` |
//! | fleet trajectory (`fleet --bench`) | `rsbs` by `index` (`rsb{i}`), `work` by `component` | strings, booleans, `FLEET_EXACT_FIELDS`, `work_units` | other numbers | |
//! | cost model (`sim --profile yes --cost-model`, `sweep --cost-model`) | `components` by `component` | `work_units` | `ns_per_unit` | `host_ns` |
//!
//! Top-level members other than the row arrays (`host`, `seed`,
//! `rsb_count`, and the `partition*` members of older fleet trajectories)
//! are skipped, so an artifact recorded on any machine gates any other.
//!
//! One compare loop reports a changed row count, a row or field missing
//! from the candidate, a row absent from the baseline, an exact mismatch
//! and a drift past tolerance. A `null` on one side only counts as a
//! missing field; a field the baseline does not have at all is not
//! compared, so a new trajectory field does not trip an older golden. Any
//! regression makes the command exit non-zero naming every offender,
//! which is what lets `scripts/verify.sh` keep a committed golden
//! baseline. Corrupt input (bad JSON, a non-finite number, a non-integer
//! in an exact numeric field, a repeated row or a field repeated within a
//! row) is an error naming the file and the field, never a pass.

use crate::args::Args;
use crate::commands::CmdError;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::Write;
use vapres_sim::json::{self, Json};
use vapres_sim::stats::Histogram;
use vapres_sim::telemetry::{parse_jsonl, Record};

/// Default relative tolerance for numeric comparisons.
const DEFAULT_TOLERANCE: f64 = 0.05;

/// `vapres diff <baseline> <candidate> [--tolerance 0.05]` — compare
/// two telemetry JSONL dumps, sweep or fleet trajectories, or cost
/// models; exit non-zero listing every regressed metric.
pub fn cmd_diff(args: &Args, out: &mut dyn Write) -> Result<(), CmdError> {
    let pos = args.positionals();
    let [baseline_path, candidate_path] = pos else {
        return Err(CmdError(
            "usage: vapres diff <baseline> <candidate> [--tolerance 0.05]".into(),
        ));
    };
    let tolerance: f64 = args.get_num("tolerance", DEFAULT_TOLERANCE)?;
    if !tolerance.is_finite() || tolerance < 0.0 {
        return Err(CmdError("--tolerance must be a finite number >= 0".into()));
    }

    let load = |path: &String| {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CmdError(format!("cannot read {path}: {e}")))?;
        flatten(&text).map_err(|e| CmdError(format!("{path}: {e}")))
    };
    let (kind, baseline) = load(baseline_path)?;
    let (cand_kind, candidate) = load(candidate_path)?;
    if kind != cand_kind {
        return Err(CmdError(format!(
            "cannot compare a {} against a {} ({baseline_path} vs {candidate_path})",
            kind.name(),
            cand_kind.name()
        )));
    }
    let regressions = compare(&baseline, &candidate, tolerance);
    let kind = kind.name();
    writeln!(
        out,
        "diff: {baseline_path} ({kind}) vs {candidate_path} (tolerance {tolerance})"
    )?;
    if regressions.is_empty() {
        writeln!(out, "no regressions")?;
        Ok(())
    } else {
        for r in &regressions {
            writeln!(out, "  REGRESSED {r}")?;
        }
        Err(CmdError(format!(
            "{} regression(s) past tolerance {tolerance}",
            regressions.len()
        )))
    }
}

/// The artifact kinds `vapres diff` understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Telemetry,
    Sweep,
    Fleet,
    CostModel,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Telemetry => "telemetry JSONL",
            Kind::Sweep => "sweep trajectory",
            Kind::Fleet => "fleet trajectory",
            Kind::CostModel => "cost model",
        }
    }
}

/// How one field is compared.
#[derive(Debug, Clone, Copy)]
enum Policy {
    /// Any change is a regression.
    Exact,
    /// A relative drift past the tolerance is a regression.
    Toleranced,
    /// Never compared.
    Skipped,
}

/// One array of rows in a document kind.
struct Rows {
    /// The top-level member holding the rows.
    member: &'static str,
    /// The row member whose value names the row.
    key: &'static str,
    /// Prefix of the row name.
    prefix: &'static str,
    /// Label of the row-count line, for the kind's primary rows.
    count: Option<&'static str>,
    /// The policy of a field, by name and value.
    policy: fn(&str, &Json) -> Policy,
}

/// Fields of a fleet RSB row that are deterministic simulation state:
/// compared exactly, no tolerance. (`p99_e2e_ps` stays on the tolerance
/// plane like the sweep trajectory's latency fields.)
const FLEET_EXACT_FIELDS: &[&str] = &[
    "samples_in",
    "interval",
    "swaps",
    "samples_out",
    "missed_slots",
    "sim_time_ps",
    "work_units",
    "est_cost",
];

const SWEEP: &[Rows] = &[Rows {
    member: "scenarios",
    key: "label",
    prefix: "",
    count: Some("scenario count"),
    // `index` is positional bookkeeping, not a measurement.
    policy: |field, value| match (field, value) {
        ("index", _) => Policy::Skipped,
        (_, Json::Num(_)) => Policy::Toleranced,
        _ => Policy::Exact,
    },
}];

const FLEET: &[Rows] = &[
    Rows {
        member: "rsbs",
        key: "index",
        prefix: "rsb",
        count: Some("RSB count"),
        policy: |field, value| match value {
            Json::Num(_) if !FLEET_EXACT_FIELDS.contains(&field) => Policy::Toleranced,
            _ => Policy::Exact,
        },
    },
    Rows {
        member: "work",
        key: "component",
        prefix: "work ",
        count: None,
        policy: |field, _| match field {
            "work_units" => Policy::Exact,
            _ => Policy::Skipped,
        },
    },
];

const COST_MODEL: &[Rows] = &[Rows {
    member: "components",
    key: "component",
    prefix: "",
    count: None,
    // `host_ns` is raw wall time of whatever machine ran the profile.
    policy: |field, _| match field {
        "work_units" => Policy::Exact,
        "ns_per_unit" => Policy::Toleranced,
        _ => Policy::Skipped,
    },
}];

/// A compared value. `Text` and `Int` are exact, `Real` is toleranced.
#[derive(Debug, PartialEq)]
enum Value {
    Null,
    Text(String),
    Int(u64),
    Real(f64),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Text(s) => f.write_str(s),
            Value::Int(n) => write!(f, "{n}"),
            Value::Real(x) => write!(f, "{x}"),
        }
    }
}

/// One artifact, flattened.
#[derive(Default)]
struct Flat {
    /// The row-count line's label and count, if the kind reports one.
    count: Option<(&'static str, usize)>,
    rows: BTreeSet<String>,
    /// Every compared field by (row, field label).
    fields: BTreeMap<(String, String), Value>,
}

impl Flat {
    /// Adds a row, rejecting a row key seen before.
    fn add_row(&mut self, row: &str) -> Result<(), String> {
        if self.rows.insert(row.to_string()) {
            Ok(())
        } else {
            Err(format!("repeated row {row}"))
        }
    }
}

/// Parses one artifact, tells its kind and flattens it.
fn flatten(text: &str) -> Result<(Kind, Flat), String> {
    // A telemetry dump is JSONL: its first line alone is a record.
    let first = text.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
    if json::parse(first).is_ok_and(|r| r.get("type").is_some()) {
        return Ok((Kind::Telemetry, flatten_telemetry(text)?));
    }
    let doc = json::parse(text)?;
    let (kind, table) = match doc.get("bench") {
        Some(Json::Str(b)) if b == "sweep" => (Kind::Sweep, SWEEP),
        Some(Json::Str(b)) if b == "fleet" => (Kind::Fleet, FLEET),
        _ if doc.get("cost_model").is_some() => (Kind::CostModel, COST_MODEL),
        _ => return Err("not telemetry JSONL, a sweep/fleet trajectory, or a cost model".into()),
    };
    let mut flat = Flat::default();
    for rows in table {
        let mut arrays = doc.members()?.iter().filter(|(k, _)| k == rows.member);
        let (Some((_, array)), None) = (arrays.next(), arrays.next()) else {
            return Err(format!("needs exactly one {:?} array", rows.member));
        };
        let items = array.items().map_err(|e| format!("{}: {e}", rows.member))?;
        if let Some(label) = rows.count {
            flat.count = Some((label, items.len()));
        }
        for item in items {
            let members = item.members()?;
            json::unique(members)?;
            let key = match item.get(rows.key) {
                Some(Json::Str(s)) => s.clone(),
                Some(k) => k
                    .as_u64()
                    .map_err(|e| format!("{}: {e}", rows.key))?
                    .to_string(),
                None => return Err(format!("{} row without {:?}", rows.member, rows.key)),
            };
            let row = format!("{}{key}", rows.prefix);
            flat.add_row(&row)?;
            for (field, value) in members.iter().filter(|(f, _)| f != rows.key) {
                let value = match ((rows.policy)(field, value), value) {
                    (Policy::Skipped, _) => continue,
                    (_, Json::Null) => Ok(Value::Null),
                    (Policy::Toleranced, v) => v.as_f64().map(Value::Real),
                    (Policy::Exact, Json::Str(s)) => Ok(Value::Text(s.clone())),
                    (Policy::Exact, Json::Bool(b)) => Ok(Value::Text(b.to_string())),
                    (Policy::Exact, v) => v.as_u64().map(Value::Int),
                }
                .map_err(|e| format!("row {row}: field {field}: {e}"))?;
                flat.fields.insert((row.clone(), field.clone()), value);
            }
        }
    }
    Ok((kind, flat))
}

/// Flattens a telemetry dump: counters and gauges by metric key,
/// histograms by their p50/p95/p99 (reconstructed through
/// [`Histogram::try_from_parts`], the path `vapres report --metrics`
/// trusts). Spans are a trace, not a point metric, and are skipped.
fn flatten_telemetry(text: &str) -> Result<Flat, String> {
    let mut flat = Flat::default();
    for rec in parse_jsonl(text).map_err(|e| e.to_string())? {
        let row = metric_key(rec.name(), rec.labels());
        let values = match rec {
            Record::Counter { value, .. } => vec![("", value as f64)],
            Record::Gauge { value, .. } => vec![("", value)],
            Record::Histogram {
                bucket_width,
                counts,
                ..
            } => {
                // Telemetry JSONL carries no min/max; the bucket-bound
                // percentiles are exactly what the exporter printed.
                let h = Histogram::try_from_parts(bucket_width, counts, None, None)
                    .map_err(|e| format!("{row}: {e}"))?;
                let p = |q| h.percentile(q).unwrap_or(0) as f64;
                vec![("p50", p(0.50)), ("p95", p(0.95)), ("p99", p(0.99))]
            }
            Record::Span { .. } => continue,
        };
        flat.add_row(&row)?;
        for (field, v) in values {
            flat.fields
                .insert((row.clone(), field.into()), Value::Real(v));
        }
    }
    Ok(flat)
}

/// One metric key: name plus rendered label set, e.g.
/// `iom_words_total{iom=0}`.
fn metric_key(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let labels: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", labels.join(","))
}

/// Compares two flattened artifacts of one kind; returns regression
/// descriptions.
fn compare(b: &Flat, c: &Flat, tol: f64) -> Vec<String> {
    let mut out = Vec::new();
    if let (Some((label, bn)), Some((_, cn))) = (b.count, c.count) {
        if bn != cn {
            out.push(format!("{label}: {bn} -> {cn}"));
        }
    }
    for row in b.rows.difference(&c.rows) {
        out.push(format!("{row}: missing from candidate"));
    }
    for ((row, field), bv) in &b.fields {
        if !c.rows.contains(row) {
            continue;
        }
        let name = if field.is_empty() {
            row.clone()
        } else {
            format!("{row} {field}")
        };
        let key = (row.clone(), field.clone());
        match (bv, c.fields.get(&key).unwrap_or(&Value::Null)) {
            (Value::Null, Value::Null) => {}
            (_, Value::Null) => out.push(format!("{name}: missing from candidate")),
            (Value::Null, _) => out.push(format!("{name}: absent from baseline")),
            // Relative deviation, with a unit floor on the denominator so
            // near-zero baselines don't turn noise into infinity.
            (Value::Real(b), Value::Real(c)) => {
                let dev = (c - b) / b.abs().max(1.0);
                if dev.abs() > tol {
                    out.push(format!("{name}: {b} -> {c} ({:+.1}%)", dev * 100.0));
                }
            }
            (b, c) if b != c => out.push(format!("{name}: {b} -> {c} (must match exactly)")),
            _ => {}
        }
    }
    for row in c.rows.difference(&b.rows) {
        out.push(format!("{row}: absent from baseline"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TELEMETRY: &str = "\
{\"type\":\"counter\",\"name\":\"icap_words_total\",\"labels\":{},\"value\":100}\n\
{\"type\":\"gauge\",\"name\":\"channel_stall_ratio\",\"labels\":{\"channel\":\"0\"},\"value\":0.02}\n\
{\"type\":\"histogram\",\"name\":\"word_e2e_latency_ps\",\"labels\":{},\"bucket_width\":250000,\"counts\":[0,5,10,5]}\n";

    fn run_diff(baseline: &str, candidate: &str, extra: &[&str]) -> (Result<(), CmdError>, String) {
        let dir = std::env::temp_dir().join(format!(
            "vapres_diff_test_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let b = dir.join("baseline");
        let c = dir.join("candidate");
        std::fs::write(&b, baseline).unwrap();
        std::fs::write(&c, candidate).unwrap();
        let mut tokens = vec![
            b.to_str().unwrap().to_string(),
            c.to_str().unwrap().to_string(),
        ];
        tokens.extend(extra.iter().map(|s| s.to_string()));
        let args = Args::parse(tokens).unwrap();
        let mut out = Vec::new();
        let result = cmd_diff(&args, &mut out);
        let _ = std::fs::remove_dir_all(&dir);
        (result, String::from_utf8(out).unwrap())
    }

    #[test]
    fn identical_telemetry_passes() {
        let (result, out) = run_diff(TELEMETRY, TELEMETRY, &[]);
        assert!(result.is_ok(), "self-diff must pass: {result:?}");
        assert!(out.contains("no regressions"));
    }

    #[test]
    fn counter_drift_past_tolerance_fails() {
        let candidate = TELEMETRY.replace(":100}", ":120}");
        let (result, out) = run_diff(TELEMETRY, &candidate, &[]);
        let err = result.expect_err("20% counter drift must fail").0;
        assert!(out.contains("REGRESSED icap_words_total"), "got {out}");
        assert!(err.contains("1 regression"));
    }

    #[test]
    fn drift_within_tolerance_passes() {
        let candidate = TELEMETRY.replace(":100}", ":104}");
        let (result, _) = run_diff(TELEMETRY, &candidate, &[]);
        assert!(result.is_ok(), "4% < 5% default tolerance: {result:?}");
        let (result, out) = run_diff(TELEMETRY, &candidate, &["--tolerance", "0.01"]);
        assert!(result.is_err(), "4% > 1% tightened tolerance");
        assert!(out.contains("icap_words_total"));
    }

    #[test]
    fn histogram_percentile_shift_fails() {
        // Doubling the bucket width doubles every percentile bound — a
        // 100% p99 regression on word latency.
        let candidate = TELEMETRY.replace("\"bucket_width\":250000", "\"bucket_width\":500000");
        let (result, out) = run_diff(TELEMETRY, &candidate, &[]);
        assert!(result.is_err(), "p99 doubled");
        assert!(out.contains("word_e2e_latency_ps p99"), "got {out}");
    }

    #[test]
    fn missing_and_extra_metrics_are_structural_failures() {
        let shorter: String = TELEMETRY
            .lines()
            .take(2)
            .map(|l| format!("{l}\n"))
            .collect();
        let (result, out) = run_diff(TELEMETRY, &shorter, &[]);
        assert!(result.is_err());
        assert!(out.contains("missing from candidate"));
        let (result, out) = run_diff(&shorter, TELEMETRY, &[]);
        assert!(result.is_err());
        assert!(out.contains("absent from baseline"));
    }

    const TRAJECTORY: &str = "{\n  \"bench\": \"sweep\",\n  \"seed\": 7,\n  \
\"host\": {\"cpus\": 8, \"jobs\": 2, \"mode\": \"warm\", \"wall_ms\": 123},\n  \"scenarios\": [\n    \
{\"index\":0,\"label\":\"kr2kl2_f512_c100_none_fr0.00_n300\",\"outcome\":\"not_requested\",\"swap_total_ps\":0,\"p50_e2e_ps\":500000,\"p95_e2e_ps\":750000,\"p99_e2e_ps\":1000000,\"missed_slots\":0,\"excess_gap_ps\":0,\"max_stall_ratio\":0.010000,\"samples_out\":300,\"sim_time_ps\":2000000,\"cache_hits\":2,\"cache_bytes_saved\":72600,\"repeat_swap_cold_ps\":1043000000000,\"repeat_swap_warm_ps\":49000000000}\n  ]\n}\n";

    #[test]
    fn identical_trajectories_pass_even_with_different_hosts() {
        let other_host = TRAJECTORY.replace("\"wall_ms\": 123", "\"wall_ms\": 999");
        let (result, out) = run_diff(TRAJECTORY, &other_host, &[]);
        assert!(result.is_ok(), "host line must be skipped: {result:?}");
        assert!(out.contains("no regressions"));
    }

    #[test]
    fn trajectory_p99_regression_fails() {
        let candidate = TRAJECTORY.replace("\"p99_e2e_ps\":1000000", "\"p99_e2e_ps\":1200000");
        let (result, out) = run_diff(TRAJECTORY, &candidate, &[]);
        assert!(result.is_err(), "20% p99 regression");
        assert!(out.contains("p99_e2e_ps"), "got {out}");
    }

    #[test]
    fn trajectory_repeat_swap_fields_are_gated() {
        // A slower cached replay is a regression like any other numeric
        // field: the staged cache's win must not quietly erode.
        let candidate = TRAJECTORY.replace(
            "\"repeat_swap_warm_ps\":49000000000",
            "\"repeat_swap_warm_ps\":90000000000",
        );
        let (result, out) = run_diff(TRAJECTORY, &candidate, &[]);
        assert!(result.is_err(), "repeat-swap slowdown must fail");
        assert!(out.contains("repeat_swap_warm_ps"), "got {out}");
        // Losing the probe entirely (field nulled out) is structural.
        let candidate = TRAJECTORY.replace(
            "\"repeat_swap_warm_ps\":49000000000",
            "\"repeat_swap_warm_ps\":null",
        );
        let (result, out) = run_diff(TRAJECTORY, &candidate, &[]);
        assert!(result.is_err(), "nulled probe must fail");
        assert!(
            out.contains("repeat_swap_warm_ps: missing from candidate"),
            "got {out}"
        );
        // Cache counters drift past tolerance: gated too.
        let candidate = TRAJECTORY.replace("\"cache_hits\":2", "\"cache_hits\":0");
        let (result, out) = run_diff(TRAJECTORY, &candidate, &[]);
        assert!(result.is_err(), "lost cache hits must fail");
        assert!(out.contains("cache_hits"), "got {out}");
    }

    #[test]
    fn trajectory_non_finite_field_is_rejected_by_name() {
        for bad in ["NaN", "inf", "-inf"] {
            let candidate =
                TRAJECTORY.replace("\"p99_e2e_ps\":1000000", &format!("\"p99_e2e_ps\":{bad}"));
            let (result, out) = run_diff(TRAJECTORY, &candidate, &[]);
            let err = result.expect_err("non-finite field must fail").0;
            assert!(err.contains("field p99_e2e_ps: non-finite"), "{bad}: {err}");
            assert!(!out.contains("no regressions"), "{bad}: {out}");
        }
    }

    #[test]
    fn trajectory_outcome_flip_fails() {
        let candidate =
            TRAJECTORY.replace("\"outcome\":\"not_requested\"", "\"outcome\":\"failed\"");
        let (result, out) = run_diff(TRAJECTORY, &candidate, &[]);
        assert!(result.is_err());
        assert!(
            out.contains("outcome: not_requested -> failed"),
            "got {out}"
        );
    }

    #[test]
    fn mixed_kinds_are_rejected() {
        let (result, _) = run_diff(TELEMETRY, TRAJECTORY, &[]);
        let err = result.expect_err("kinds differ").0;
        assert!(err.contains("cannot compare"), "got {err}");
        let (result, _) = run_diff(COST_MODEL, TRAJECTORY, &[]);
        let err = result.expect_err("kinds differ").0;
        assert!(err.contains("cannot compare"), "got {err}");
    }

    const FLEET: &str = "{\n  \"bench\": \"fleet\",\n  \"seed\": 227, \"rsb_count\": 2, \"swap_count\": 2,\n  \
\"host\": {\"cpus\": 8, \"jobs\": 4, \"wall_ms\": 321},\n  \
\"partition\": {\"mode\": \"round-robin\", \"shards\": 4},\n  \
\"partition_shard\": {\"shard\": 0, \"rsbs\": [0], \"est_cost\": 11000, \"work_units\": 11500},\n  \
\"partition_shard\": {\"shard\": 1, \"rsbs\": [1], \"est_cost\": 9000, \"work_units\": 9500},\n  \"rsbs\": [\n    \
{\"index\":0,\"samples_in\":220,\"interval\":100,\"swaps\":1,\"outcome\":\"ok\",\"drained\":true,\"samples_out\":220,\"missed_slots\":0,\"p99_e2e_ps\":1000000,\"sim_time_ps\":3000000000,\"work_units\":11500,\"est_cost\":11000,\"healthy\":true},\n    \
{\"index\":1,\"samples_in\":180,\"interval\":150,\"swaps\":1,\"outcome\":\"ok\",\"drained\":true,\"samples_out\":180,\"missed_slots\":0,\"p99_e2e_ps\":1250000,\"sim_time_ps\":3000000000,\"work_units\":9500,\"est_cost\":9000,\"healthy\":true}\n  ],\n  \"work\": [\n    \
{\"component\":\"exec/fabric\",\"work_units\":17000},\n    \
{\"component\":\"icap/words\",\"work_units\":4000}\n  ]\n}\n";

    #[test]
    fn identical_fleets_pass_across_hosts_and_partition_lines() {
        // Same deterministic planes, a different machine, and none of the
        // partition lines an older trajectory carries: the current
        // format against the old one. Host and partition lines are
        // context, not measurements.
        let other = FLEET
            .replace(
                "\"host\": {\"cpus\": 8, \"jobs\": 4, \"wall_ms\": 321}",
                "\"host\": {\"cpus\": 2, \"wall_ms\": 7}",
            )
            .lines()
            .filter(|l| !l.contains("\"partition"))
            .collect::<Vec<_>>()
            .join("\n");
        let (result, out) = run_diff(FLEET, &other, &[]);
        assert!(
            result.is_ok(),
            "host/partition must be skipped: {result:?}\n{out}"
        );
        assert!(out.contains("no regressions"));
        assert!(
            out.contains("fleet trajectory"),
            "kind named in header: {out}"
        );
    }

    #[test]
    fn fleet_work_unit_drift_fails_regardless_of_tolerance() {
        // One stray work unit in an RSB row: deterministic plane, exact
        // or bust — no tolerance excuses it.
        let candidate = FLEET.replace("\"work_units\":9500", "\"work_units\":9501");
        let (result, out) = run_diff(FLEET, &candidate, &["--tolerance", "0.5"]);
        assert!(result.is_err(), "RSB work-unit drift must fail");
        assert!(out.contains("rsb1 work_units: 9500 -> 9501"), "got {out}");
        // Same for the merged work plane.
        let candidate = FLEET.replace(
            "{\"component\":\"icap/words\",\"work_units\":4000}",
            "{\"component\":\"icap/words\",\"work_units\":4002}",
        );
        let (result, out) = run_diff(FLEET, &candidate, &["--tolerance", "0.5"]);
        assert!(result.is_err(), "merged work drift must fail");
        assert!(
            out.contains("work icap/words work_units: 4000 -> 4002"),
            "got {out}"
        );
    }

    #[test]
    fn fleet_outcome_and_verdict_flips_fail() {
        let candidate = FLEET.replace(
            "\"index\":1,\"samples_in\":180,\"interval\":150,\"swaps\":1,\"outcome\":\"ok\"",
            "\"index\":1,\"samples_in\":180,\"interval\":150,\"swaps\":1,\"outcome\":\"swap 1: timeout\"",
        );
        let (result, out) = run_diff(FLEET, &candidate, &[]);
        assert!(result.is_err());
        assert!(
            out.contains("rsb1 outcome: ok -> swap 1: timeout"),
            "got {out}"
        );
        let candidate = FLEET.replace(
            "\"est_cost\":9000,\"healthy\":true",
            "\"est_cost\":9000,\"healthy\":false",
        );
        let (result, out) = run_diff(FLEET, &candidate, &[]);
        assert!(result.is_err());
        assert!(out.contains("rsb1 healthy: true -> false"), "got {out}");
    }

    #[test]
    fn fleet_latency_fields_respect_tolerance() {
        let candidate = FLEET.replace("\"p99_e2e_ps\":1250000", "\"p99_e2e_ps\":1280000");
        let (result, _) = run_diff(FLEET, &candidate, &[]);
        assert!(result.is_ok(), "2.4% < 5% default tolerance: {result:?}");
        let candidate = FLEET.replace("\"p99_e2e_ps\":1250000", "\"p99_e2e_ps\":1600000");
        let (result, out) = run_diff(FLEET, &candidate, &[]);
        assert!(result.is_err(), "28% p99 regression");
        assert!(out.contains("rsb1 p99_e2e_ps"), "got {out}");
    }

    #[test]
    fn fleet_non_finite_field_is_rejected_by_name() {
        let candidate = FLEET.replace("\"p99_e2e_ps\":1250000", "\"p99_e2e_ps\":NaN");
        let (result, _) = run_diff(FLEET, &candidate, &[]);
        let err = result.expect_err("NaN field must fail").0;
        assert!(err.contains("field p99_e2e_ps: non-finite"), "{err}");
    }

    #[test]
    fn fleet_missing_rsb_is_structural() {
        let shorter = FLEET.replace(
            ",\n    {\"index\":1,\"samples_in\":180,\"interval\":150,\"swaps\":1,\"outcome\":\"ok\",\"drained\":true,\"samples_out\":180,\"missed_slots\":0,\"p99_e2e_ps\":1250000,\"sim_time_ps\":3000000000,\"work_units\":9500,\"est_cost\":9000,\"healthy\":true}",
            "",
        );
        let (result, out) = run_diff(FLEET, &shorter, &[]);
        assert!(result.is_err());
        assert!(out.contains("rsb1: missing from candidate"), "got {out}");
        assert!(out.contains("RSB count: 2 -> 1"), "got {out}");
    }

    const COST_MODEL: &str = "{\n  \"cost_model\": 1,\n  \"components\": [\n    \
{\"component\":\"exec/fabric\",\"work_units\":1000,\"host_ns\":50000,\"ns_per_unit\":50.000000},\n    \
{\"component\":\"icap/words\",\"work_units\":352,\"host_ns\":7040,\"ns_per_unit\":20.000000}\n  ]\n}\n";

    #[test]
    fn identical_cost_models_pass_even_with_different_host_time() {
        // Same work plane, wildly different wall time but identical
        // ratios would come from a uniformly faster machine — still a
        // different host_ns, which must be skipped.
        let other_host = COST_MODEL
            .replace("\"host_ns\":50000", "\"host_ns\":99999")
            .replace("\"host_ns\":7040", "\"host_ns\":11111");
        let (result, out) = run_diff(COST_MODEL, &other_host, &[]);
        assert!(result.is_ok(), "host_ns must be skipped: {result:?}");
        assert!(out.contains("no regressions"));
        assert!(out.contains("cost model"), "kind named in header: {out}");
    }

    #[test]
    fn cost_model_work_unit_drift_fails_regardless_of_tolerance() {
        // One extra ICAP word: far below any relative tolerance, but the
        // work plane is deterministic simulation state — exact or bust.
        let candidate = COST_MODEL.replace("\"work_units\":352", "\"work_units\":353");
        let (result, out) = run_diff(COST_MODEL, &candidate, &["--tolerance", "0.5"]);
        assert!(result.is_err(), "work-unit drift must fail");
        assert!(
            out.contains("icap/words work_units: 352 -> 353"),
            "got {out}"
        );
    }

    #[test]
    fn cost_model_ns_per_unit_respects_tolerance() {
        let candidate =
            COST_MODEL.replace("\"ns_per_unit\":50.000000", "\"ns_per_unit\":51.000000");
        let (result, _) = run_diff(COST_MODEL, &candidate, &[]);
        assert!(result.is_ok(), "2% < 5% default tolerance: {result:?}");
        let candidate =
            COST_MODEL.replace("\"ns_per_unit\":50.000000", "\"ns_per_unit\":80.000000");
        let (result, out) = run_diff(COST_MODEL, &candidate, &[]);
        assert!(result.is_err(), "60% calibration drift");
        assert!(out.contains("exec/fabric ns_per_unit"), "got {out}");
    }

    #[test]
    fn cost_model_non_finite_field_is_rejected_by_name() {
        let candidate = COST_MODEL.replace("\"ns_per_unit\":50.000000", "\"ns_per_unit\":inf");
        let (result, _) = run_diff(COST_MODEL, &candidate, &[]);
        let err = result.expect_err("infinite field must fail").0;
        assert!(err.contains("field ns_per_unit: non-finite"), "{err}");
    }

    #[test]
    fn cost_model_missing_component_is_structural() {
        let shorter = COST_MODEL.replace(
            ",\n    {\"component\":\"icap/words\",\"work_units\":352,\"host_ns\":7040,\"ns_per_unit\":20.000000}",
            "",
        );
        let (result, out) = run_diff(COST_MODEL, &shorter, &[]);
        assert!(result.is_err());
        assert!(
            out.contains("icap/words: missing from candidate"),
            "got {out}"
        );
        let (result, out) = run_diff(&shorter, COST_MODEL, &[]);
        assert!(result.is_err());
        assert!(
            out.contains("icap/words: absent from baseline"),
            "got {out}"
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = format!(
            "{{\"type\":\"counter\",\"name\":\"x\",\"labels\":{}\n",
            "[".repeat(200_000)
        );
        for (b, c) in [(TELEMETRY, deep.as_str()), (deep.as_str(), TELEMETRY)] {
            let (result, out) = run_diff(b, c, &[]);
            let err = result.expect_err("deep nesting must fail").0;
            assert!(err.contains("nesting deeper"), "{err}");
            assert!(!out.contains("no regressions"), "{out}");
        }
    }

    #[test]
    fn non_finite_and_inexact_numbers_are_rejected() {
        let gauge = |v: &str| format!("{{\"type\":\"gauge\",\"name\":\"g\",\"value\":{v}}}\n");
        let (result, _) = run_diff(&gauge("1e999"), &gauge("-1e999"), &[]);
        let err = result.expect_err("infinite gauges must not pass").0;
        assert!(err.contains("non-finite"), "{err}");
        // A counter is an integer: 7.9 is not read as 7, 1e300 not as u64::MAX.
        for bad in ["7.9", "1e300"] {
            let candidate = TELEMETRY.replace(":100}", &format!(":{bad}}}"));
            let (result, _) = run_diff(TELEMETRY, &candidate, &[]);
            let err = result.expect_err("inexact counter must fail").0;
            assert!(err.contains("unsigned integer"), "{bad}: {err}");
        }
        // A trailing fragment after a record is corrupt input, on the
        // first line or any other.
        for value in [":100}", ":0.02}"] {
            let candidate = TELEMETRY.replacen(value, &format!("{value}{{\"junk"), 1);
            let (result, _) = run_diff(TELEMETRY, &candidate, &[]);
            let err = result.expect_err("trailing bytes must fail").0;
            assert!(err.contains("trailing bytes"), "{err}");
        }
    }

    #[test]
    fn fleet_exact_fields_compare_as_integers() {
        // 2^53 and 2^53 + 1 are one f64: only an integer read sees the drift.
        let fleet =
            |v: &str| FLEET.replacen("\"missed_slots\":0", &format!("\"missed_slots\":{v}"), 1);
        let (result, out) = run_diff(&fleet("9007199254740992"), &fleet("9007199254740993"), &[]);
        assert!(result.is_err(), "one-count drift must fail: {out}");
        assert!(
            out.contains("rsb0 missed_slots: 9007199254740992 -> 9007199254740993"),
            "got {out}"
        );
        let (result, _) = run_diff(FLEET, &fleet("1.5"), &[]);
        let err = result.expect_err("a fractional count is corrupt").0;
        assert!(
            err.contains("field missed_slots: expected an unsigned integer"),
            "{err}"
        );
    }

    #[test]
    fn repeated_rows_and_fields_are_errors_naming_them() {
        let one = "{\n  \"cost_model\": 1,\n  \"components\": [\n    \
{\"component\":\"exec/fabric\",\"work_units\":7,\"host_ns\":70,\"ns_per_unit\":10.000000}\n  ]\n}\n";
        let two = one.replace(
            "    {\"component\"",
            "    {\"component\":\"exec/fabric\",\"work_units\":1000,\"host_ns\":70,\"ns_per_unit\":0.070000},\n    {\"component\"",
        );
        let (result, _) = run_diff(&two, one, &[]);
        let err = result
            .expect_err("a repeated component must not collapse")
            .0;
        assert!(err.contains("repeated row exec/fabric"), "{err}");
        let row = TRAJECTORY
            .lines()
            .find(|l| l.contains("\"index\":0"))
            .unwrap();
        let sweep = TRAJECTORY.replace(row, &format!("{row},\n{row}"));
        let (result, _) = run_diff(TRAJECTORY, &sweep, &[]);
        let err = result.expect_err("a repeated label must not collapse").0;
        assert!(
            err.contains("repeated row kr2kl2_f512_c100_none_fr0.00_n300"),
            "{err}"
        );
        let fleet = FLEET.replace("{\"index\":1,", "{\"index\":0,");
        let (result, _) = run_diff(FLEET, &fleet, &[]);
        let err = result.expect_err("a repeated index must not collapse").0;
        assert!(err.contains("repeated row rsb0"), "{err}");
        let twice = COST_MODEL.replace(
            "\"work_units\":352,",
            "\"work_units\":352,\"work_units\":353,",
        );
        let (result, _) = run_diff(COST_MODEL, &twice, &[]);
        let err = result.expect_err("a repeated field must not collapse").0;
        assert!(err.contains("repeated field \"work_units\""), "{err}");
    }

    #[test]
    fn nulls_are_checked_in_both_directions() {
        let nulled = TRAJECTORY.replace("\"p99_e2e_ps\":1000000", "\"p99_e2e_ps\":null");
        let (result, out) = run_diff(TRAJECTORY, &nulled, &[]);
        assert!(result.is_err());
        assert!(
            out.contains("p99_e2e_ps: missing from candidate"),
            "got {out}"
        );
        let (result, out) = run_diff(&nulled, TRAJECTORY, &[]);
        assert!(
            result.is_err(),
            "a value where the baseline had null must fail"
        );
        assert!(
            out.contains("p99_e2e_ps: absent from baseline"),
            "got {out}"
        );
    }

    /// Seeded mutation harness over the golden sweep trajectory and the
    /// fleet, cost-model and telemetry fixtures: bit flips, truncations,
    /// inserted runs of `[`/`{` and splices of two artifacts. No mutant may
    /// panic; each is either a typed error or self-diffs clean.
    #[test]
    fn seeded_mutants_fail_typed_or_self_diff_clean() {
        use vapres_sim::SplitMix64;
        const GOLDEN: &str = include_str!("../../../scripts/golden/BENCH_sweep.json");
        let inputs = [GOLDEN, FLEET, COST_MODEL, TELEMETRY];
        let mut rng = SplitMix64::new(0xD1FF);
        let (mut parsed, mut rejected) = (0, 0);
        for round in 0..4_000 {
            let mut m = inputs[rng.gen_usize(0..inputs.len())].as_bytes().to_vec();
            match rng.gen_range(0..4) {
                0 => {
                    for _ in 0..rng.gen_range(1..4) {
                        let i = rng.gen_usize(0..m.len());
                        m[i] ^= 1 << rng.gen_range(0..8);
                    }
                }
                1 => m.truncate(rng.gen_usize(0..m.len())),
                2 => {
                    let i = rng.gen_usize(0..m.len() + 1);
                    let open = if rng.gen_bool(0.5) { b'[' } else { b'{' };
                    let run = vec![open; rng.gen_usize(1..200)];
                    m.splice(i..i, run);
                }
                _ => {
                    let other = inputs[rng.gen_usize(0..inputs.len())].as_bytes();
                    m.truncate(rng.gen_usize(0..m.len()));
                    m.extend_from_slice(&other[rng.gen_usize(0..other.len())..]);
                }
            }
            // Not UTF-8: `read_to_string` rejects it before any parse.
            let Ok(text) = String::from_utf8(m) else {
                rejected += 1;
                continue;
            };
            match std::panic::catch_unwind(|| flatten(&text)) {
                Err(_) => panic!("mutant {round} panicked: {text:?}"),
                Ok(Err(_)) => rejected += 1,
                Ok(Ok((_, flat))) => {
                    let regressions = compare(&flat, &flat, 0.0);
                    assert!(regressions.is_empty(), "mutant {round}: {regressions:?}");
                    parsed += 1;
                }
            }
        }
        assert!(
            parsed > 100 && rejected > 100,
            "{parsed} parsed, {rejected} rejected"
        );
    }
}
