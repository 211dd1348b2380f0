//! Unified telemetry: a zero-dependency metrics registry with exporters.
//!
//! Observability substrate for the whole reproduction. The registry holds
//! four record kinds:
//!
//! * **counters** — monotone `u64` totals (DCR writes, ICAP words, fabric
//!   stall cycles);
//! * **gauges** — instantaneous `f64` readings (FIFO high-water marks,
//!   executor tick-reduction factor);
//! * **histograms** — cycle-bucketed distributions over `u64` samples
//!   (reusing [`crate::stats::Histogram`]);
//! * **spans** — named intervals of *simulated* time with explicit
//!   [`Ps`] start/end stamps (the nine switching-methodology steps, ICAP
//!   transfers). Simulation spans never touch the wall clock, so every
//!   exported trace is bit-for-bit reproducible.
//!
//! Every metric is keyed by a `&'static str` name plus a small ordered
//! label set. Registration (`counter`/`gauge`/`histogram`) is
//! get-or-register and may scan; it returns a dense id whose update path
//! (`inc`/`set_gauge`/`observe`) is a bounds-checked array index — no
//! hashing, no allocation. Hosts keep the whole registry behind an
//! `Option` so the disabled path costs one branch (the
//! `metrics_overhead` micro-benchmark in `crates/bench` proves it).
//!
//! Two exporters, both hand-rolled (no serde):
//!
//! * [`Telemetry::write_jsonl`] — one self-describing JSON object per
//!   line; parse it back with [`parse_jsonl`];
//! * [`Telemetry::write_prometheus`] — Prometheus text exposition
//!   (`vapres_`-prefixed, `# TYPE` comments, cumulative histogram
//!   buckets).
//!
//! The spans also land on the run's one chrome://tracing timeline
//! ([`crate::timeline`]), one track per span family.
//!
//! # Examples
//!
//! ```
//! use vapres_sim::telemetry::Telemetry;
//! use vapres_sim::time::Ps;
//!
//! let mut t = Telemetry::new();
//! let c = t.counter("dcr_write_total", &[("node", "1".into())]);
//! t.inc(c, 3);
//! t.record_span("swap_step", "2_reconfigure_spare", Ps::ZERO, Ps::from_us(72));
//!
//! let mut out = Vec::new();
//! t.write_jsonl(&mut out)?;
//! let records = vapres_sim::telemetry::parse_jsonl(std::str::from_utf8(&out)?)?;
//! assert_eq!(records.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::json::{self, Json};
use crate::persist::{intern_static, Persist, PersistError, Reader, Writer};
use crate::stats::Histogram;
use crate::time::Ps;
use std::fmt;
use std::io::{self, Write};

/// One metric label: static key, owned value.
pub type Label = (&'static str, String);

/// Dense handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CounterId(usize);

/// Dense handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GaugeId(usize);

/// Dense handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistogramId(usize);

#[derive(Debug, Clone)]
struct Counter {
    name: &'static str,
    labels: Vec<Label>,
    value: u64,
}

#[derive(Debug, Clone)]
struct Gauge {
    name: &'static str,
    labels: Vec<Label>,
    value: f64,
}

#[derive(Debug, Clone)]
struct Hist {
    name: &'static str,
    labels: Vec<Label>,
    hist: Histogram,
}

/// A named interval of simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span family (e.g. `swap_step`).
    pub name: &'static str,
    /// Instance label (e.g. `2_reconfigure_spare`).
    pub label: String,
    /// Simulated start time.
    pub start: Ps,
    /// Simulated end time (`>= start`).
    pub end: Ps,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Ps {
        self.end - self.start
    }
}

/// The metrics registry.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    counters: Vec<Counter>,
    gauges: Vec<Gauge>,
    histograms: Vec<Hist>,
    spans: Vec<Span>,
}

impl Telemetry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or registers the counter keyed by `name` + `labels`.
    pub fn counter(&mut self, name: &'static str, labels: &[Label]) -> CounterId {
        if let Some(i) = self
            .counters
            .iter()
            .position(|c| c.name == name && c.labels == labels)
        {
            return CounterId(i);
        }
        self.counters.push(Counter {
            name,
            labels: labels.to_vec(),
            value: 0,
        });
        CounterId(self.counters.len() - 1)
    }

    /// Gets or registers the gauge keyed by `name` + `labels`.
    pub fn gauge(&mut self, name: &'static str, labels: &[Label]) -> GaugeId {
        if let Some(i) = self
            .gauges
            .iter()
            .position(|g| g.name == name && g.labels == labels)
        {
            return GaugeId(i);
        }
        self.gauges.push(Gauge {
            name,
            labels: labels.to_vec(),
            value: 0.0,
        });
        GaugeId(self.gauges.len() - 1)
    }

    /// Gets or registers the histogram keyed by `name` + `labels`, with
    /// `buckets` buckets of `bucket_width` each (see
    /// [`Histogram::new`] for the panics).
    pub fn histogram(
        &mut self,
        name: &'static str,
        labels: &[Label],
        bucket_width: u64,
        buckets: usize,
    ) -> HistogramId {
        if let Some(i) = self
            .histograms
            .iter()
            .position(|h| h.name == name && h.labels == labels)
        {
            return HistogramId(i);
        }
        self.histograms.push(Hist {
            name,
            labels: labels.to_vec(),
            hist: Histogram::new(bucket_width, buckets),
        });
        HistogramId(self.histograms.len() - 1)
    }

    /// Adds `by` to a counter. The hot path: one indexed add.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].value += by;
    }

    /// Sets a gauge.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn set_gauge(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].value = value;
    }

    /// Raises a gauge to `value` if larger (high-water tracking).
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn set_gauge_max(&mut self, id: GaugeId, value: f64) {
        let g = &mut self.gauges[id.0];
        if value > g.value {
            g.value = value;
        }
    }

    /// Adds one sample to a histogram.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn observe(&mut self, id: HistogramId, value: u64) {
        self.histograms[id.0].hist.add(value);
    }

    /// Records a completed span of simulated time.
    ///
    /// # Panics
    ///
    /// Panics if `end` precedes `start` — spans are causal.
    pub fn record_span(
        &mut self,
        name: &'static str,
        label: impl Into<String>,
        start: Ps,
        end: Ps,
    ) {
        assert!(end >= start, "span must end at or after its start");
        self.spans.push(Span {
            name,
            label: label.into(),
            start,
            end,
        });
    }

    /// A counter's current value.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].value
    }

    /// A gauge's current value.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0].value
    }

    /// All recorded spans, in record order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans of one family, in record order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total registered metrics (counters + gauges + histograms).
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Whether nothing has been registered or recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0 && self.spans.is_empty()
    }

    /// All counters as `(name, labels, value)`, in registration order.
    pub fn counters_iter(&self) -> impl Iterator<Item = (&'static str, &[Label], u64)> + '_ {
        self.counters
            .iter()
            .map(|c| (c.name, c.labels.as_slice(), c.value))
    }

    /// All gauges as `(name, labels, value)`, in registration order.
    pub fn gauges_iter(&self) -> impl Iterator<Item = (&'static str, &[Label], f64)> + '_ {
        self.gauges
            .iter()
            .map(|g| (g.name, g.labels.as_slice(), g.value))
    }

    /// All histograms as `(name, labels, histogram)`, in registration
    /// order.
    pub fn histograms_iter(
        &self,
    ) -> impl Iterator<Item = (&'static str, &[Label], &Histogram)> + '_ {
        self.histograms
            .iter()
            .map(|h| (h.name, h.labels.as_slice(), &h.hist))
    }

    /// A registered histogram by exact `name` + `labels` key, without
    /// registering one on a miss.
    pub fn histogram_named(&self, name: &str, labels: &[Label]) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|h| h.name == name && h.labels == labels)
            .map(|h| &h.hist)
    }

    /// Folds `other` into `self`, keyed by metric name + label set:
    ///
    /// * counters add (both are monotone totals);
    /// * gauges keep the maximum — every gauge in this codebase is a
    ///   high-water mark or worst-case ratio, so "max" is the merge that
    ///   preserves its meaning across runs;
    /// * histograms merge bucket-wise (see [`Histogram::merge`], which
    ///   panics on a shape mismatch);
    /// * spans append in `other`'s record order.
    ///
    /// Metrics new to `self` register in `other`'s registration order, so
    /// folding a sequence of registries in a fixed order always yields the
    /// same registry — the sweep engine's determinism guarantee.
    pub fn merge(&mut self, other: &Telemetry) {
        for c in &other.counters {
            let id = self.counter(c.name, &c.labels);
            self.inc(id, c.value);
        }
        for g in &other.gauges {
            if let Some(i) = self
                .gauges
                .iter()
                .position(|m| m.name == g.name && m.labels == g.labels)
            {
                // Direct max, not set_gauge_max over a fresh 0.0 default:
                // a negative reading must survive the merge unclamped.
                if g.value > self.gauges[i].value {
                    self.gauges[i].value = g.value;
                }
            } else {
                self.gauges.push(g.clone());
            }
        }
        for h in &other.histograms {
            if let Some(i) = self
                .histograms
                .iter()
                .position(|m| m.name == h.name && m.labels == h.labels)
            {
                self.histograms[i].hist.merge(&h.hist);
            } else {
                self.histograms.push(h.clone());
            }
        }
        self.spans.extend(other.spans.iter().cloned());
    }

    // ------------------------------------------------------------------
    // Exporters.
    // ------------------------------------------------------------------

    /// Writes the JSON-lines snapshot: one object per metric and span.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        let mut line = String::new();
        for c in &self.counters {
            line.clear();
            line.push_str("{\"type\":\"counter\",\"name\":");
            json_string(&mut line, c.name);
            line.push_str(",\"labels\":");
            json_labels(&mut line, &c.labels);
            line.push_str(&format!(",\"value\":{}}}", c.value));
            writeln!(w, "{line}")?;
        }
        for g in &self.gauges {
            line.clear();
            line.push_str("{\"type\":\"gauge\",\"name\":");
            json_string(&mut line, g.name);
            line.push_str(",\"labels\":");
            json_labels(&mut line, &g.labels);
            line.push_str(&format!(",\"value\":{}}}", json_f64(g.value)));
            writeln!(w, "{line}")?;
        }
        for h in &self.histograms {
            line.clear();
            line.push_str("{\"type\":\"histogram\",\"name\":");
            json_string(&mut line, h.name);
            line.push_str(",\"labels\":");
            json_labels(&mut line, &h.labels);
            line.push_str(&format!(
                ",\"bucket_width\":{},\"counts\":[",
                h.hist.bucket_width()
            ));
            for (i, c) in h.hist.counts().iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(&c.to_string());
            }
            line.push_str("]}");
            writeln!(w, "{line}")?;
        }
        for s in &self.spans {
            line.clear();
            line.push_str("{\"type\":\"span\",\"name\":");
            json_string(&mut line, s.name);
            line.push_str(",\"label\":");
            json_string(&mut line, &s.label);
            line.push_str(&format!(
                ",\"start_ps\":{},\"end_ps\":{}}}",
                s.start.as_ps(),
                s.end.as_ps()
            ));
            writeln!(w, "{line}")?;
        }
        Ok(())
    }

    /// Writes the Prometheus text exposition format. Metric names get a
    /// `vapres_` prefix; histograms emit cumulative `_bucket{le=..}`
    /// series plus `_count`; spans emit a `vapres_span_duration_ps`
    /// series labelled by family and instance.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_prometheus<W: Write>(&self, mut w: W) -> io::Result<()> {
        let mut last: Option<&str> = None;
        for c in &self.counters {
            if last != Some(c.name) {
                writeln!(w, "# TYPE vapres_{} counter", c.name)?;
                last = Some(c.name);
            }
            writeln!(w, "vapres_{}{} {}", c.name, prom_labels(&c.labels), c.value)?;
        }
        last = None;
        for g in &self.gauges {
            if last != Some(g.name) {
                writeln!(w, "# TYPE vapres_{} gauge", g.name)?;
                last = Some(g.name);
            }
            writeln!(
                w,
                "vapres_{}{} {}",
                g.name,
                prom_labels(&g.labels),
                json_f64(g.value)
            )?;
        }
        last = None;
        for h in &self.histograms {
            if last != Some(h.name) {
                writeln!(w, "# TYPE vapres_{} histogram", h.name)?;
                last = Some(h.name);
            }
            let mut cum = 0u64;
            for (i, c) in h.hist.counts().iter().enumerate() {
                cum += c;
                let le = if i + 1 == h.hist.counts().len() {
                    "+Inf".to_string()
                } else {
                    ((i as u64 + 1) * h.hist.bucket_width()).to_string()
                };
                let mut labels = h.labels.clone();
                labels.push(("le", le));
                writeln!(
                    w,
                    "vapres_{}_bucket{} {}",
                    h.name,
                    prom_labels(&labels),
                    cum
                )?;
            }
            writeln!(
                w,
                "vapres_{}_count{} {}",
                h.name,
                prom_labels(&h.labels),
                cum
            )?;
        }
        if !self.spans.is_empty() {
            writeln!(w, "# TYPE vapres_span_duration_ps gauge")?;
            for s in &self.spans {
                let labels: Vec<Label> = vec![("name", s.name.into()), ("step", s.label.clone())];
                writeln!(
                    w,
                    "vapres_span_duration_ps{} {}",
                    prom_labels(&labels),
                    s.duration().as_ps()
                )?;
            }
        }
        Ok(())
    }
}

fn persist_labels(labels: &[Label], w: &mut Writer) {
    w.put_usize(labels.len());
    for (k, v) in labels {
        w.put_str(k);
        w.put_str(v);
    }
}

fn restore_labels(r: &mut Reader<'_>) -> Result<Vec<Label>, PersistError> {
    let n = r.take_usize()?;
    if n > r.remaining() {
        return Err(PersistError::UnexpectedEof);
    }
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let k = intern_static(&r.take_string()?);
        let v = r.take_string()?;
        labels.push((k, v));
    }
    Ok(labels)
}

impl Persist for Telemetry {
    fn persist(&self, w: &mut Writer) {
        // Registration order is the canonical order — ids are dense
        // indices, so hosts that persisted a CounterId must find the same
        // metric at the same slot after restore.
        w.put_usize(self.counters.len());
        for c in &self.counters {
            w.put_str(c.name);
            persist_labels(&c.labels, w);
            w.put_u64(c.value);
        }
        w.put_usize(self.gauges.len());
        for g in &self.gauges {
            w.put_str(g.name);
            persist_labels(&g.labels, w);
            w.put_f64(g.value);
        }
        w.put_usize(self.histograms.len());
        for h in &self.histograms {
            w.put_str(h.name);
            persist_labels(&h.labels, w);
            h.hist.persist(w);
        }
        w.put_usize(self.spans.len());
        for s in &self.spans {
            w.put_str(s.name);
            w.put_str(&s.label);
            s.start.persist(w);
            s.end.persist(w);
        }
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let mut t = Telemetry::new();
        let n = r.take_usize()?;
        if n > r.remaining() {
            return Err(PersistError::UnexpectedEof);
        }
        for _ in 0..n {
            let name = intern_static(&r.take_string()?);
            let labels = restore_labels(r)?;
            let value = r.take_u64()?;
            t.counters.push(Counter {
                name,
                labels,
                value,
            });
        }
        let n = r.take_usize()?;
        if n > r.remaining() {
            return Err(PersistError::UnexpectedEof);
        }
        for _ in 0..n {
            let name = intern_static(&r.take_string()?);
            let labels = restore_labels(r)?;
            let value = r.take_f64()?;
            t.gauges.push(Gauge {
                name,
                labels,
                value,
            });
        }
        let n = r.take_usize()?;
        if n > r.remaining() {
            return Err(PersistError::UnexpectedEof);
        }
        for _ in 0..n {
            let name = intern_static(&r.take_string()?);
            let labels = restore_labels(r)?;
            let hist = Histogram::restore(r)?;
            t.histograms.push(Hist { name, labels, hist });
        }
        let n = r.take_usize()?;
        if n > r.remaining() {
            return Err(PersistError::UnexpectedEof);
        }
        for _ in 0..n {
            let name = intern_static(&r.take_string()?);
            let label = r.take_string()?;
            let start = Ps::restore(r)?;
            let end = Ps::restore(r)?;
            if end < start {
                return Err(PersistError::Corrupt(format!(
                    "span {name} ends before it starts"
                )));
            }
            t.spans.push(Span {
                name,
                label,
                start,
                end,
            });
        }
        Ok(t)
    }
}

/// Formats an `f64` the way JSON expects (no `NaN`/`inf`; integral values
/// keep a trailing `.0`-free form via `{}`).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Appends a JSON string literal (quoted, escaped) to `out`.
pub(crate) fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a JSON object of labels to `out`.
pub(crate) fn json_labels(out: &mut String, labels: &[Label]) {
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(out, k);
        out.push(':');
        json_string(out, v);
    }
    out.push('}');
}

/// Formats a Prometheus label set (`{k="v",..}`, empty string when none).
fn prom_labels(labels: &[Label]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for ch in v.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

// ----------------------------------------------------------------------
// Snapshot parsing (the consumer side of the JSONL exporter).
// ----------------------------------------------------------------------

/// A record parsed back from a JSON-lines snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A counter sample.
    Counter {
        /// Metric name.
        name: String,
        /// Label set.
        labels: Vec<(String, String)>,
        /// Counter value.
        value: u64,
    },
    /// A gauge sample.
    Gauge {
        /// Metric name.
        name: String,
        /// Label set.
        labels: Vec<(String, String)>,
        /// Gauge value.
        value: f64,
    },
    /// A histogram snapshot.
    Histogram {
        /// Metric name.
        name: String,
        /// Label set.
        labels: Vec<(String, String)>,
        /// Bucket width.
        bucket_width: u64,
        /// Per-bucket counts.
        counts: Vec<u64>,
    },
    /// A completed span.
    Span {
        /// Span family.
        name: String,
        /// Instance label.
        label: String,
        /// Start, picoseconds.
        start_ps: u64,
        /// End, picoseconds.
        end_ps: u64,
    },
}

impl Record {
    /// The record's metric/span name.
    pub fn name(&self) -> &str {
        match self {
            Record::Counter { name, .. }
            | Record::Gauge { name, .. }
            | Record::Histogram { name, .. }
            | Record::Span { name, .. } => name,
        }
    }

    /// The record's label set (empty for a span).
    pub fn labels(&self) -> &[(String, String)] {
        match self {
            Record::Counter { labels, .. }
            | Record::Gauge { labels, .. }
            | Record::Histogram { labels, .. } => labels,
            Record::Span { .. } => &[],
        }
    }
}

/// A snapshot-parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SnapshotError {}

/// Parses a JSON-lines snapshot back into records. Blank lines are
/// skipped; any malformed line is an error.
///
/// # Errors
///
/// [`SnapshotError`] naming the offending line.
pub fn parse_jsonl(text: &str) -> Result<Vec<Record>, SnapshotError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        out.push(parse_record(line).map_err(|message| SnapshotError {
            line: i + 1,
            message,
        })?);
    }
    Ok(out)
}

/// Reads one JSONL record; a field named twice is an error.
fn parse_record(line: &str) -> Result<Record, String> {
    let obj = json::parse(line)?;
    json::unique(obj.members()?)?;
    let field = |key: &str| obj.get(key).ok_or_else(|| format!("missing field {key:?}"));
    let text = |key| field(key)?.as_str().map(str::to_string);
    let int = |key| field(key)?.as_u64().map_err(|e| format!("{key}: {e}"));
    let labels = || match obj.get("labels") {
        None => Ok(Vec::new()),
        Some(labels) => {
            let members = labels.members()?;
            json::unique(members)?;
            members
                .iter()
                .map(|(k, v)| Ok((k.clone(), v.as_str()?.to_string())))
                .collect::<Result<Vec<_>, String>>()
        }
    };
    Ok(match text("type")?.as_str() {
        "counter" => Record::Counter {
            name: text("name")?,
            labels: labels()?,
            value: int("value")?,
        },
        "gauge" => Record::Gauge {
            name: text("name")?,
            labels: labels()?,
            value: field("value")?
                .as_f64()
                .map_err(|e| format!("value: {e}"))?,
        },
        "histogram" => Record::Histogram {
            name: text("name")?,
            labels: labels()?,
            bucket_width: int("bucket_width")?,
            counts: field("counts")?
                .items()?
                .iter()
                .map(Json::as_u64)
                .collect::<Result<_, _>>()?,
        },
        "span" => Record::Span {
            name: text("name")?,
            label: text("label")?,
            start_ps: int("start_ps")?,
            end_ps: int("end_ps")?,
        },
        other => return Err(format!("unknown record type {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jsonl(t: &Telemetry) -> String {
        let mut out = Vec::new();
        t.write_jsonl(&mut out).expect("vec write");
        String::from_utf8(out).expect("utf8")
    }

    #[test]
    fn counter_get_or_register_is_stable() {
        let mut t = Telemetry::new();
        let a = t.counter("x_total", &[("node", "0".into())]);
        let b = t.counter("x_total", &[("node", "1".into())]);
        let a2 = t.counter("x_total", &[("node", "0".into())]);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        t.inc(a, 2);
        t.inc(b, 5);
        t.inc(a2, 1);
        assert_eq!(t.counter_value(a), 3);
        assert_eq!(t.counter_value(b), 5);
    }

    #[test]
    fn gauge_max_tracks_high_water() {
        let mut t = Telemetry::new();
        let g = t.gauge("hw", &[]);
        t.set_gauge_max(g, 3.0);
        t.set_gauge_max(g, 1.0);
        assert_eq!(t.gauge_value(g), 3.0);
        t.set_gauge(g, 0.5);
        assert_eq!(t.gauge_value(g), 0.5);
    }

    #[test]
    fn merge_disjoint_label_sets_concatenates() {
        let mut a = Telemetry::new();
        let ca = a.counter("stall_total", &[("ch", "0".into())]);
        a.inc(ca, 7);
        let ga = a.gauge("fifo_high_water", &[("ch", "0".into())]);
        a.set_gauge(ga, 12.0);

        let mut b = Telemetry::new();
        let cb = b.counter("stall_total", &[("ch", "1".into())]);
        b.inc(cb, 5);
        let gb = b.gauge("fifo_high_water", &[("ch", "1".into())]);
        b.set_gauge(gb, 3.0);
        let hb = b.histogram("lat", &[], 10, 4);
        b.observe(hb, 25);

        a.merge(&b);
        let counters: Vec<_> = a.counters_iter().collect();
        assert_eq!(counters.len(), 2, "disjoint keys stay separate");
        assert_eq!(counters[0].2, 7);
        assert_eq!(counters[1].2, 5);
        let gauges: Vec<_> = a.gauges_iter().collect();
        assert_eq!(gauges.len(), 2);
        assert_eq!(a.histogram_named("lat", &[]).unwrap().total(), 1);
    }

    #[test]
    fn merge_overlapping_keys_add_max_and_bucketwise() {
        let mk = |stalls: u64, hw: f64, sample: u64| {
            let mut t = Telemetry::new();
            let c = t.counter("stall_total", &[("ch", "0".into())]);
            t.inc(c, stalls);
            let g = t.gauge("fifo_high_water", &[("ch", "0".into())]);
            t.set_gauge(g, hw);
            let h = t.histogram("lat", &[("stage", "hop".into())], 10, 4);
            t.observe(h, sample);
            t.record_span("step", "s", Ps::new(0), Ps::new(5));
            t
        };
        let mut a = mk(7, 12.0, 5);
        let b = mk(5, 3.0, 35);
        a.merge(&b);

        let counters: Vec<_> = a.counters_iter().collect();
        assert_eq!(counters.len(), 1, "same key folds into one counter");
        assert_eq!(counters[0].2, 12, "counters add");
        let gauges: Vec<_> = a.gauges_iter().collect();
        assert_eq!(gauges.len(), 1);
        assert_eq!(gauges[0].2, 12.0, "gauges keep the max");
        let h = a
            .histogram_named("lat", &[("stage", "hop".into())])
            .unwrap();
        assert_eq!(h.counts(), &[1, 0, 0, 1], "histograms merge bucket-wise");
        assert_eq!(a.spans().len(), 2, "spans append");
    }

    #[test]
    fn merge_is_deterministic_and_identity_on_empty() {
        let mk = |v: u64| {
            let mut t = Telemetry::new();
            let c = t.counter("c_total", &[("i", v.to_string())]);
            t.inc(c, v);
            t
        };
        // Folding [t1, t2, t3] in index order into an empty registry is
        // byte-for-byte reproducible.
        let fold = || {
            let mut acc = Telemetry::new();
            for v in [1u64, 2, 3] {
                acc.merge(&mk(v));
            }
            jsonl(&acc)
        };
        assert_eq!(fold(), fold());

        // Merging an empty registry changes nothing.
        let mut t = mk(9);
        let before = jsonl(&t);
        t.merge(&Telemetry::new());
        assert_eq!(jsonl(&t), before);
    }

    #[test]
    fn merge_negative_gauge_survives_unclamped() {
        let mut a = Telemetry::new();
        let mut b = Telemetry::new();
        let g = b.gauge("drift", &[]);
        b.set_gauge(g, -4.5);
        a.merge(&b);
        let gauges: Vec<_> = a.gauges_iter().collect();
        assert_eq!(gauges[0].2, -4.5);
    }

    #[test]
    fn span_duration_and_family_filter() {
        let mut t = Telemetry::new();
        t.record_span("swap_step", "1_a", Ps::new(0), Ps::new(10));
        t.record_span("other", "x", Ps::new(0), Ps::new(1));
        t.record_span("swap_step", "2_b", Ps::new(10), Ps::new(25));
        let steps: Vec<&Span> = t.spans_named("swap_step").collect();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].duration(), Ps::new(10));
        assert_eq!(steps[1].duration(), Ps::new(15));
    }

    #[test]
    #[should_panic(expected = "span must end")]
    fn backwards_span_panics() {
        let mut t = Telemetry::new();
        t.record_span("s", "l", Ps::new(5), Ps::new(1));
    }

    #[test]
    fn jsonl_roundtrip_preserves_everything() {
        let mut t = Telemetry::new();
        let c = t.counter("dcr_write_total", &[("node", "1".into())]);
        t.inc(c, 42);
        let g = t.gauge("redux", &[]);
        t.set_gauge(g, 2.5);
        let h = t.histogram("gap_ps", &[("iom", "0".into())], 1_000, 4);
        t.observe(h, 500);
        t.observe(h, 99_999);
        t.record_span(
            "swap_step",
            "2_reconfigure \"spare\"",
            Ps::new(7),
            Ps::new(19),
        );

        let records = parse_jsonl(&jsonl(&t)).expect("parses");
        assert_eq!(records.len(), 4);
        assert_eq!(
            records[0],
            Record::Counter {
                name: "dcr_write_total".into(),
                labels: vec![("node".into(), "1".into())],
                value: 42,
            }
        );
        assert_eq!(
            records[1],
            Record::Gauge {
                name: "redux".into(),
                labels: vec![],
                value: 2.5,
            }
        );
        assert_eq!(
            records[2],
            Record::Histogram {
                name: "gap_ps".into(),
                labels: vec![("iom".into(), "0".into())],
                bucket_width: 1_000,
                counts: vec![1, 0, 0, 1],
            }
        );
        assert_eq!(
            records[3],
            Record::Span {
                name: "swap_step".into(),
                label: "2_reconfigure \"spare\"".into(),
                start_ps: 7,
                end_ps: 19,
            }
        );
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        let err = parse_jsonl("{\"type\":\"counter\",\"name\":\"a\",\"value\":1}\nnot json\n")
            .unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse_jsonl("{\"type\":\"alien\"}").unwrap_err();
        assert!(err.message.contains("alien"));
    }

    #[test]
    fn parse_rejects_deep_nesting_naming_the_line() {
        let deep = format!(
            "{{\"type\":\"counter\",\"name\":\"a\",\"value\":1}}\n\
             {{\"type\":\"counter\",\"name\":\"x\",\"labels\":{}\n",
            "[".repeat(200_000)
        );
        let err = parse_jsonl(&deep).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn parse_reads_values_exactly_or_not_at_all() {
        let counter = |v: &str| format!("{{\"type\":\"counter\",\"name\":\"c\",\"value\":{v}}}");
        for bad in ["7.9", "1e300", "-1"] {
            let err = parse_jsonl(&counter(bad)).unwrap_err();
            assert!(err.message.contains("unsigned integer"), "{bad}: {err}");
        }
        for bad in ["1e999", "-1e999"] {
            let line = format!("{{\"type\":\"gauge\",\"name\":\"g\",\"value\":{bad}}}");
            let err = parse_jsonl(&line).unwrap_err();
            assert!(err.message.contains("non-finite"), "{bad}: {err}");
        }
        // Trailing bytes after the record, and a field named twice.
        let err = parse_jsonl(&format!("{}{{\"junk", counter("1"))).unwrap_err();
        assert!(err.message.contains("trailing bytes"), "{err}");
        let twice = "{\"type\":\"counter\",\"name\":\"c\",\"value\":1,\"value\":2}";
        let err = parse_jsonl(twice).unwrap_err();
        assert!(err.message.contains("repeated field \"value\""), "{err}");
    }

    #[test]
    fn counters_past_two_to_the_53_round_trip_exactly() {
        let mut t = Telemetry::new();
        let c = t.counter("big_total", &[]);
        t.inc(c, (1 << 53) + 1);
        let records = parse_jsonl(&jsonl(&t)).expect("parses");
        assert_eq!(
            records,
            vec![Record::Counter {
                name: "big_total".into(),
                labels: vec![],
                value: (1 << 53) + 1,
            }]
        );
    }

    #[test]
    fn prometheus_format_is_wellformed() {
        let mut t = Telemetry::new();
        let c = t.counter("icap_words_total", &[]);
        t.inc(c, 9_075);
        let h = t.histogram("lat", &[], 10, 2);
        t.observe(h, 5);
        t.observe(h, 500);
        t.record_span("swap_step", "8_await_eos", Ps::new(0), Ps::new(100));
        let mut out = Vec::new();
        t.write_prometheus(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("# TYPE vapres_icap_words_total counter"));
        assert!(text.contains("vapres_icap_words_total 9075"));
        assert!(text.contains("vapres_lat_bucket{le=\"10\"} 1"));
        assert!(text.contains("vapres_lat_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("vapres_lat_count 2"));
        assert!(
            text.contains("vapres_span_duration_ps{name=\"swap_step\",step=\"8_await_eos\"} 100")
        );
    }

    #[test]
    fn prometheus_escapes_hostile_label_values() {
        // The exposition format requires `\`, `"`, and newline escaped in
        // label values; anything else would corrupt the scrape stream
        // (a raw newline splits the sample, a raw quote ends the value).
        let mut t = Telemetry::new();
        let c = t.counter(
            "hostile_total",
            &[("path", "a\"b\\c\nd".into()), ("ok", "plain".into())],
        );
        t.inc(c, 1);
        t.record_span(
            "swap_step",
            "quote\"back\\slash\nline",
            Ps::new(0),
            Ps::new(1),
        );
        let mut out = Vec::new();
        t.write_prometheus(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains(r#"vapres_hostile_total{path="a\"b\\c\nd",ok="plain"} 1"#),
            "{text}"
        );
        assert!(
            text.contains(r#"step="quote\"back\\slash\nline""#),
            "{text}"
        );
        // No sample line was broken by a raw newline: every non-comment
        // line still ends in a numeric value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().unwrap();
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "malformed sample line {line:?}"
            );
        }
    }

    #[test]
    fn empty_registry_reports_empty() {
        let t = Telemetry::new();
        assert!(t.is_empty());
        assert_eq!(jsonl(&t), "");
    }
}
