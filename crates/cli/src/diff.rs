//! `vapres diff` — run-to-run regression gating over committed
//! observability artifacts.
//!
//! The subcommand structurally compares two files of the same kind:
//!
//! * **telemetry JSONL** (`vapres sim --metrics` / `vapres sweep
//!   --jsonl` dumps) — counters and gauges value-by-value, histograms by
//!   their p50/p95/p99 (reconstructed through
//!   [`Histogram::try_from_parts`], the same path `vapres report
//!   --metrics` trusts);
//! * **sweep trajectories** (`vapres sweep --bench` artifacts) —
//!   per-scenario rows matched by label, outcomes exactly, numeric
//!   fields within tolerance. The one machine-dependent `"host"` line is
//!   skipped, so a trajectory recorded on any machine gates any other;
//! * **fleet trajectories** (`vapres fleet --bench` artifacts) — per-RSB
//!   rows matched by index: outcomes and health verdicts exactly, the
//!   deterministic plane (sample counts, work units, estimated costs,
//!   sim time) exactly, latency fields within tolerance. The `"host"`
//!   line is context, not a measurement, and is skipped, and so are the
//!   `"partition"` lines that trajectories from the removed `--jobs`
//!   engine carry — so those older trajectories still gate new ones;
//! * **cost models** (`vapres sim --profile yes --cost-model` /
//!   `vapres sweep --cost-model` exports) — rows matched
//!   by component. The deterministic work-unit plane is compared
//!   **exactly** (any drift is a regression regardless of tolerance);
//!   the calibration ratio `ns_per_unit` within `--tolerance`; the raw
//!   `host_ns` wall-time field is machine noise and skipped entirely.
//!
//! A metric present in only one file is a structural regression; a
//! value drifting past the per-metric relative tolerance
//! (`--tolerance`, default 0.05) is a numeric one. Any regression makes
//! the command exit non-zero naming every offender — which is what lets
//! `scripts/verify.sh` keep a committed golden baseline and fail the
//! build when a change moves the measured system. A `NaN` or infinity in
//! a trajectory or cost-model row is corrupt input, rejected naming the
//! field.

use crate::args::Args;
use crate::commands::CmdError;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write;
use vapres_sim::stats::Histogram;
use vapres_sim::telemetry::{parse_jsonl, Record};

/// Default relative tolerance for numeric comparisons.
const DEFAULT_TOLERANCE: f64 = 0.05;

/// `vapres diff <baseline> <candidate> [--tolerance 0.05]` — compare
/// two telemetry JSONL dumps, sweep trajectories, or cost models; exit
/// non-zero listing every regressed metric.
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

    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| CmdError(format!("cannot read {baseline_path}: {e}")))?;
    let candidate = std::fs::read_to_string(candidate_path)
        .map_err(|e| CmdError(format!("cannot read {candidate_path}: {e}")))?;

    let base_kind = detect_kind(&baseline).ok_or_else(|| {
        CmdError(format!(
            "{baseline_path}: not telemetry JSONL, a sweep/fleet trajectory, or a cost model"
        ))
    })?;
    let cand_kind = detect_kind(&candidate).ok_or_else(|| {
        CmdError(format!(
            "{candidate_path}: not telemetry JSONL, a sweep/fleet trajectory, or a cost model"
        ))
    })?;
    if base_kind != cand_kind {
        return Err(CmdError(format!(
            "cannot compare a {} against a {} ({baseline_path} vs {candidate_path})",
            base_kind.name(),
            cand_kind.name()
        )));
    }

    let regressions = match base_kind {
        FileKind::Telemetry => diff_telemetry(&baseline, &candidate, tolerance)
            .map_err(|e| CmdError(format!("{baseline_path} / {candidate_path}: {e}")))?,
        FileKind::Trajectory => diff_trajectory(&baseline, &candidate, tolerance)
            .map_err(|e| CmdError(format!("{baseline_path} / {candidate_path}: {e}")))?,
        FileKind::Fleet => diff_fleet(&baseline, &candidate, tolerance)
            .map_err(|e| CmdError(format!("{baseline_path} / {candidate_path}: {e}")))?,
        FileKind::CostModel => diff_cost_model(&baseline, &candidate, tolerance)
            .map_err(|e| CmdError(format!("{baseline_path} / {candidate_path}: {e}")))?,
    };

    writeln!(
        out,
        "diff: {} ({}) vs {} (tolerance {tolerance})",
        baseline_path,
        base_kind.name(),
        candidate_path
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
enum FileKind {
    Telemetry,
    Trajectory,
    Fleet,
    CostModel,
}

impl FileKind {
    fn name(self) -> &'static str {
        match self {
            FileKind::Telemetry => "telemetry JSONL",
            FileKind::Trajectory => "sweep trajectory",
            FileKind::Fleet => "fleet trajectory",
            FileKind::CostModel => "cost model",
        }
    }
}

/// Sniffs the artifact kind: trajectories carry the `"bench": "sweep"`
/// stamp, fleet trajectories `"bench": "fleet"`, cost models the
/// `"cost_model"` version stamp, telemetry dumps open every line with a
/// `"type"` tag.
fn detect_kind(text: &str) -> Option<FileKind> {
    if text.contains("\"bench\": \"sweep\"") {
        return Some(FileKind::Trajectory);
    }
    if text.contains("\"bench\": \"fleet\"") {
        return Some(FileKind::Fleet);
    }
    if text.contains("\"cost_model\"") {
        return Some(FileKind::CostModel);
    }
    let first = text.lines().find(|l| !l.trim().is_empty())?;
    first
        .trim_start()
        .starts_with("{\"type\":")
        .then_some(FileKind::Telemetry)
}

/// One metric key: name plus rendered label set, e.g.
/// `iom_words_total{iom=0}`.
fn metric_key(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut key = String::from(name);
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{k}={v}");
    }
    key.push('}');
    key
}

/// The comparable values of one telemetry dump.
#[derive(Default)]
struct TelemetryValues {
    /// Counter/gauge scalars by metric key.
    scalars: BTreeMap<String, f64>,
    /// Histogram (p50, p95, p99) by metric key.
    percentiles: BTreeMap<String, (u64, u64, u64)>,
}

/// Parses one telemetry dump into its comparable values. Spans are
/// skipped: they are a trace, not a point metric.
fn telemetry_values(text: &str) -> Result<TelemetryValues, String> {
    let mut v = TelemetryValues::default();
    for rec in parse_jsonl(text).map_err(|e| e.to_string())? {
        match rec {
            Record::Counter {
                name,
                labels,
                value,
            } => {
                v.scalars.insert(metric_key(&name, &labels), value as f64);
            }
            Record::Gauge {
                name,
                labels,
                value,
            } => {
                v.scalars.insert(metric_key(&name, &labels), value);
            }
            Record::Histogram {
                name,
                labels,
                bucket_width,
                counts,
            } => {
                let key = metric_key(&name, &labels);
                // Telemetry JSONL carries no min/max; the bucket-bound
                // percentiles are exactly what the exporter printed.
                let h = Histogram::try_from_parts(bucket_width, counts, None, None)
                    .map_err(|e| format!("{key}: {e}"))?;
                let p = |q| h.percentile(q).unwrap_or(0);
                v.percentiles.insert(key, (p(0.50), p(0.95), p(0.99)));
            }
            _ => {}
        }
    }
    Ok(v)
}

/// Relative deviation of `c` from `b`, with a unit floor on the
/// denominator so near-zero baselines don't turn noise into infinity.
fn rel_dev(b: f64, c: f64) -> f64 {
    (c - b).abs() / b.abs().max(1.0)
}

/// Pushes a regression line when `c` deviates from `b` past `tol`.
fn check_value(regressions: &mut Vec<String>, key: &str, b: f64, c: f64, tol: f64) {
    let dev = rel_dev(b, c);
    if dev > tol {
        regressions.push(format!(
            "{key}: {b} -> {c} ({:+.1}%)",
            (c - b) / b.abs().max(1.0) * 100.0
        ));
    }
}

/// Compares two telemetry dumps; returns regression descriptions.
fn diff_telemetry(baseline: &str, candidate: &str, tol: f64) -> Result<Vec<String>, String> {
    let b = telemetry_values(baseline)?;
    let c = telemetry_values(candidate)?;
    let mut regressions = Vec::new();

    for (key, bv) in &b.scalars {
        match c.scalars.get(key) {
            None => regressions.push(format!("{key}: missing from candidate")),
            Some(cv) => check_value(&mut regressions, key, *bv, *cv, tol),
        }
    }
    for key in c.scalars.keys() {
        if !b.scalars.contains_key(key) {
            regressions.push(format!("{key}: absent from baseline"));
        }
    }
    for (key, (b50, b95, b99)) in &b.percentiles {
        match c.percentiles.get(key) {
            None => regressions.push(format!("{key}: missing from candidate")),
            Some((c50, c95, c99)) => {
                for (q, bv, cv) in [("p50", b50, c50), ("p95", b95, c95), ("p99", b99, c99)] {
                    check_value(
                        &mut regressions,
                        &format!("{key} {q}"),
                        *bv as f64,
                        *cv as f64,
                        tol,
                    );
                }
            }
        }
    }
    for key in c.percentiles.keys() {
        if !b.percentiles.contains_key(key) {
            regressions.push(format!("{key}: absent from baseline"));
        }
    }
    Ok(regressions)
}

/// One parsed trajectory scenario row: the label, the outcome, and
/// every numeric field (nulls skipped).
#[derive(Debug)]
struct TrajectoryRow {
    label: String,
    outcome: String,
    numbers: BTreeMap<String, f64>,
}

/// Parses the flat one-line JSON objects a sweep trajectory holds in
/// its `"scenarios"` array. The rows are machine-written (no nesting,
/// no escapes in labels), so a field-splitting scan is exact.
fn parse_trajectory(text: &str) -> Result<Vec<TrajectoryRow>, String> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let t = line.trim().trim_end_matches(',');
        if !t.starts_with("{\"index\":") {
            continue;
        }
        let body = t
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| format!("malformed scenario row: {t}"))?;
        let mut label = None;
        let mut outcome = None;
        let mut numbers = BTreeMap::new();
        for field in split_top_level_fields(body) {
            let (key, value) = field
                .split_once(':')
                .ok_or_else(|| format!("malformed field {field:?}"))?;
            let key = key.trim().trim_matches('"').to_string();
            let value = value.trim();
            if let Some(s) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
                match key.as_str() {
                    "label" => label = Some(s.to_string()),
                    "outcome" => outcome = Some(s.to_string()),
                    _ => {}
                }
            } else if value != "null" {
                numbers.insert(key.clone(), parse_finite(&key, value)?);
            }
        }
        rows.push(TrajectoryRow {
            label: label.ok_or("scenario row without a label")?,
            outcome: outcome.ok_or("scenario row without an outcome")?,
            numbers,
        });
    }
    if rows.is_empty() {
        return Err("trajectory holds no scenario rows".into());
    }
    Ok(rows)
}

/// Parses one numeric row field. `NaN` and infinities are rejected by
/// name: the writers never emit them, and a NaN would compare false
/// against every tolerance and pass as "no regressions".
fn parse_finite(key: &str, value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(n),
        Ok(_) => Err(format!("field {key}: non-finite value {value:?}")),
        Err(_) => Err(format!("field {key}: cannot parse {value:?}")),
    }
}

/// Splits `a:1,b:"x,y",c:2` on the commas outside string quotes.
fn split_top_level_fields(body: &str) -> Vec<&str> {
    let mut fields = Vec::new();
    let (mut start, mut in_str) = (0usize, false);
    for (i, ch) in body.char_indices() {
        match ch {
            '"' => in_str = !in_str,
            ',' if !in_str => {
                fields.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    fields.push(&body[start..]);
    fields
}

/// Compares two sweep trajectories; returns regression descriptions.
fn diff_trajectory(baseline: &str, candidate: &str, tol: f64) -> Result<Vec<String>, String> {
    let b_rows = parse_trajectory(baseline)?;
    let c_rows = parse_trajectory(candidate)?;
    let mut regressions = Vec::new();
    if b_rows.len() != c_rows.len() {
        regressions.push(format!(
            "scenario count: {} -> {}",
            b_rows.len(),
            c_rows.len()
        ));
    }
    let by_label: BTreeMap<&str, &TrajectoryRow> =
        c_rows.iter().map(|r| (r.label.as_str(), r)).collect();
    for b in &b_rows {
        let Some(c) = by_label.get(b.label.as_str()) else {
            regressions.push(format!("{}: missing from candidate", b.label));
            continue;
        };
        if b.outcome != c.outcome {
            regressions.push(format!(
                "{} outcome: {} -> {}",
                b.label, b.outcome, c.outcome
            ));
        }
        for (key, bv) in &b.numbers {
            // `index` is positional bookkeeping, not a measurement.
            if key == "index" {
                continue;
            }
            match c.numbers.get(key) {
                None => regressions.push(format!("{} {key}: missing from candidate", b.label)),
                Some(cv) => check_value(
                    &mut regressions,
                    &format!("{} {key}", b.label),
                    *bv,
                    *cv,
                    tol,
                ),
            }
        }
    }
    let b_labels: BTreeMap<&str, ()> = b_rows.iter().map(|r| (r.label.as_str(), ())).collect();
    for c in &c_rows {
        if !b_labels.contains_key(c.label.as_str()) {
            regressions.push(format!("{}: absent from baseline", c.label));
        }
    }
    Ok(regressions)
}

/// One parsed fleet-trajectory RSB row: the outcome plus every field,
/// split into the exact plane (deterministic simulation state) and the
/// tolerance plane (latency measures).
#[derive(Debug)]
struct FleetRow {
    index: u64,
    strings: BTreeMap<String, String>,
    numbers: BTreeMap<String, f64>,
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

/// Parses a fleet trajectory: the `"rsbs"` rows keyed by index and the
/// merged `"work"` rows keyed by component. The `"host"` line, and the
/// `"partition"`/`"partition_shard"` lines of older trajectories, are
/// context and are never parsed.
fn parse_fleet(text: &str) -> Result<(Vec<FleetRow>, BTreeMap<String, u64>), String> {
    let mut rows = Vec::new();
    let mut work = BTreeMap::new();
    for line in text.lines() {
        let t = line.trim().trim_end_matches(',');
        if t.starts_with("{\"component\":") {
            let body = t
                .strip_prefix('{')
                .and_then(|s| s.strip_suffix('}'))
                .ok_or_else(|| format!("malformed work row: {t}"))?;
            let mut component = None;
            let mut units = None;
            for field in split_top_level_fields(body) {
                let (key, value) = field
                    .split_once(':')
                    .ok_or_else(|| format!("malformed field {field:?}"))?;
                match key.trim().trim_matches('"') {
                    "component" => {
                        component = value
                            .trim()
                            .strip_prefix('"')
                            .and_then(|v| v.strip_suffix('"'))
                            .map(str::to_string);
                    }
                    "work_units" => {
                        units = Some(
                            value
                                .trim()
                                .parse::<u64>()
                                .map_err(|_| format!("work_units: cannot parse {value:?}"))?,
                        );
                    }
                    _ => {}
                }
            }
            let component = component.ok_or("work row without a component")?;
            let units = units.ok_or_else(|| format!("{component}: work row without units"))?;
            work.insert(component, units);
            continue;
        }
        if !t.starts_with("{\"index\":") {
            continue;
        }
        let body = t
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| format!("malformed RSB row: {t}"))?;
        let mut index = None;
        let mut strings = BTreeMap::new();
        let mut numbers = BTreeMap::new();
        for field in split_top_level_fields(body) {
            let (key, value) = field
                .split_once(':')
                .ok_or_else(|| format!("malformed field {field:?}"))?;
            let key = key.trim().trim_matches('"').to_string();
            let value = value.trim();
            if let Some(s) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
                strings.insert(key, s.to_string());
            } else if value == "true" || value == "false" {
                // Booleans (drained, healthy) are verdicts, not
                // measurements: exact like strings.
                strings.insert(key, value.to_string());
            } else if key == "index" {
                index = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("index: cannot parse {value:?}"))?,
                );
            } else if value != "null" {
                numbers.insert(key.clone(), parse_finite(&key, value)?);
            }
        }
        rows.push(FleetRow {
            index: index.ok_or("RSB row without an index")?,
            strings,
            numbers,
        });
    }
    if rows.is_empty() {
        return Err("fleet trajectory holds no RSB rows".into());
    }
    Ok((rows, work))
}

/// Compares two fleet trajectories: RSB rows matched by index —
/// outcomes/verdicts exactly, the deterministic plane
/// ([`FLEET_EXACT_FIELDS`], plus the merged work rows) exactly, latency
/// fields within tolerance. The `"host"` and partition lines are
/// skipped entirely, so artifacts recorded on different machines, or
/// before and after the partition lines went, gate each other.
fn diff_fleet(baseline: &str, candidate: &str, tol: f64) -> Result<Vec<String>, String> {
    let (b_rows, b_work) = parse_fleet(baseline)?;
    let (c_rows, c_work) = parse_fleet(candidate)?;
    let mut regressions = Vec::new();
    if b_rows.len() != c_rows.len() {
        regressions.push(format!("RSB count: {} -> {}", b_rows.len(), c_rows.len()));
    }
    let by_index: BTreeMap<u64, &FleetRow> = c_rows.iter().map(|r| (r.index, r)).collect();
    for b in &b_rows {
        let name = format!("rsb{}", b.index);
        let Some(c) = by_index.get(&b.index) else {
            regressions.push(format!("{name}: missing from candidate"));
            continue;
        };
        for (key, bv) in &b.strings {
            match c.strings.get(key) {
                None => regressions.push(format!("{name} {key}: missing from candidate")),
                Some(cv) if bv != cv => {
                    regressions.push(format!("{name} {key}: {bv} -> {cv}"));
                }
                Some(_) => {}
            }
        }
        for (key, bv) in &b.numbers {
            match c.numbers.get(key) {
                None => regressions.push(format!("{name} {key}: missing from candidate")),
                Some(cv) if FLEET_EXACT_FIELDS.contains(&key.as_str()) => {
                    #[allow(clippy::float_cmp)] // integer-valued, parsed losslessly
                    if bv != cv {
                        regressions.push(format!(
                            "{name} {key}: {bv} -> {cv} (deterministic plane must match exactly)"
                        ));
                    }
                }
                Some(cv) => {
                    check_value(&mut regressions, &format!("{name} {key}"), *bv, *cv, tol);
                }
            }
        }
    }
    for (component, bu) in &b_work {
        match c_work.get(component) {
            None => regressions.push(format!("work {component}: missing from candidate")),
            Some(cu) if bu != cu => regressions.push(format!(
                "work {component}: {bu} -> {cu} (work plane must match exactly)"
            )),
            Some(_) => {}
        }
    }
    for component in c_work.keys() {
        if !b_work.contains_key(component) {
            regressions.push(format!("work {component}: absent from baseline"));
        }
    }
    Ok(regressions)
}

/// One parsed cost-model row: the deterministic work units and the
/// host-calibrated unit cost.
#[derive(Debug)]
struct CostRow {
    work_units: u64,
    ns_per_unit: f64,
}

/// Parses the flat one-line component rows of a cost-model export,
/// keyed by component name. The writer emits them machine-formatted
/// (no nesting, no escapes in component names), so the same
/// field-splitting scan the trajectory parser uses is exact.
fn parse_cost_model(text: &str) -> Result<BTreeMap<String, CostRow>, String> {
    let mut rows = BTreeMap::new();
    for line in text.lines() {
        let t = line.trim().trim_end_matches(',');
        if !t.starts_with("{\"component\":") {
            continue;
        }
        let body = t
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| format!("malformed component row: {t}"))?;
        let mut component = None;
        let mut work_units = None;
        let mut ns_per_unit = None;
        for field in split_top_level_fields(body) {
            let (key, value) = field
                .split_once(':')
                .ok_or_else(|| format!("malformed field {field:?}"))?;
            let key = key.trim().trim_matches('"');
            let value = value.trim();
            match key {
                "component" => {
                    component = value
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .map(str::to_string);
                }
                "work_units" => {
                    work_units = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("work_units: cannot parse {value:?}"))?,
                    );
                }
                "ns_per_unit" => ns_per_unit = Some(parse_finite(key, value)?),
                // `host_ns` is raw wall time of whatever machine ran the
                // profile — never comparable, deliberately ignored.
                _ => {}
            }
        }
        let component = component.ok_or("component row without a name")?;
        rows.insert(
            component.clone(),
            CostRow {
                work_units: work_units
                    .ok_or_else(|| format!("{component}: row without work_units"))?,
                ns_per_unit: ns_per_unit
                    .ok_or_else(|| format!("{component}: row without ns_per_unit"))?,
            },
        );
    }
    if rows.is_empty() {
        return Err("cost model holds no component rows".into());
    }
    Ok(rows)
}

/// Compares two cost models: work units exactly (the deterministic
/// plane must not drift at all), `ns_per_unit` within tolerance,
/// `host_ns` skipped.
fn diff_cost_model(baseline: &str, candidate: &str, tol: f64) -> Result<Vec<String>, String> {
    let b = parse_cost_model(baseline)?;
    let c = parse_cost_model(candidate)?;
    let mut regressions = Vec::new();
    for (component, bv) in &b {
        let Some(cv) = c.get(component) else {
            regressions.push(format!("{component}: missing from candidate"));
            continue;
        };
        if bv.work_units != cv.work_units {
            // Work units are simulation state: exact, tolerance-free.
            regressions.push(format!(
                "{component} work_units: {} -> {} (work plane must match exactly)",
                bv.work_units, cv.work_units
            ));
        }
        check_value(
            &mut regressions,
            &format!("{component} ns_per_unit"),
            bv.ns_per_unit,
            cv.ns_per_unit,
            tol,
        );
    }
    for component in c.keys() {
        if !b.contains_key(component) {
            regressions.push(format!("{component}: absent from baseline"));
        }
    }
    Ok(regressions)
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
{\"component\": \"exec/fabric\", \"work_units\": 17000},\n    \
{\"component\": \"icap/words\", \"work_units\": 4000}\n  ]\n}\n";

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
            "{\"component\": \"icap/words\", \"work_units\": 4000}",
            "{\"component\": \"icap/words\", \"work_units\": 4002}",
        );
        let (result, out) = run_diff(FLEET, &candidate, &["--tolerance", "0.5"]);
        assert!(result.is_err(), "merged work drift must fail");
        assert!(out.contains("work icap/words: 4000 -> 4002"), "got {out}");
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
}
