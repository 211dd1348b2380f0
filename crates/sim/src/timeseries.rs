//! Time-series sampling of the telemetry registry.
//!
//! The registry (§[`crate::telemetry`]) is a *snapshot*: one set of
//! values at harvest time. This module turns it into a *trajectory*: a
//! [`TimeSeries`] sampler captures the registry into delta-encoded
//! [`Frame`]s at fixed simulated-time boundaries, so a swap can be
//! watched unfolding instead of autopsied.
//!
//! # Determinism
//!
//! Sampling is driven entirely by simulated time — the host bounds its
//! run loop at `next_sample_at()` and calls [`TimeSeries::capture`]
//! exactly there — so the frame sequence is a pure function of the run:
//! byte-identical across `--jobs` counts and across warm/cold starts
//! (the sampler implements [`Persist`] and rides the checkpoint image).
//!
//! # Encoding
//!
//! Memory is ring-bounded: at most `capacity` frames are retained.
//! Each frame stores only what changed since the previous sample:
//!
//! * counters → the delta (omitted when zero);
//! * gauges → the new absolute value (omitted when unchanged);
//! * histograms → the sample-count delta plus the current p50/p95/p99
//!   bucket bounds (omitted when no samples landed).
//!
//! When a frame falls off the ring its deltas fold into each column's
//! `base`, so absolute values reconstruct exactly for the retained
//! window. Exporters: self-describing JSONL ([`write_jsonl`]
//! (TimeSeries::write_jsonl)) and per-metric CSV
//! ([`write_csv`](TimeSeries::write_csv)); the run's timeline
//! ([`crate::timeline`]) draws the same
//! [`absolute_rows`](TimeSeries::absolute_rows) as counter tracks.

use std::collections::VecDeque;
use std::io::{self, Write};

use crate::persist::{intern_static, Persist, PersistError, Reader, Writer};
use crate::telemetry::{json_f64, json_labels, json_string, Label, Telemetry};
use crate::time::Ps;

/// Default ring capacity (retained frames) when the host does not choose.
pub const DEFAULT_CAPACITY: usize = 4096;

/// What kind of registry metric a column tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColumnKind {
    Counter,
    Gauge,
    Histogram,
}

impl ColumnKind {
    fn as_str(self) -> &'static str {
        match self {
            ColumnKind::Counter => "counter",
            ColumnKind::Gauge => "gauge",
            ColumnKind::Histogram => "histogram",
        }
    }
}

/// One tracked metric: identity plus the accumulators that keep absolute
/// values reconstructible after ring eviction.
#[derive(Debug, Clone)]
struct Column {
    kind: ColumnKind,
    name: &'static str,
    labels: Vec<Label>,
    /// Counter / histogram-count value at the eviction horizon (the sum
    /// of every delta that fell off the ring).
    base_count: u64,
    /// Gauge value at the eviction horizon.
    base_value: f64,
    /// Last sampled counter / histogram-count value (delta reference).
    last_count: u64,
    /// Last sampled gauge value (changed-only reference).
    last_value: f64,
}

/// One changed metric inside a frame.
#[derive(Debug, Clone, PartialEq)]
enum Point {
    /// Counter increment since the previous frame.
    Counter { col: u32, delta: u64 },
    /// New absolute gauge value.
    Gauge { col: u32, value: f64 },
    /// Histogram sample-count delta plus current percentile bounds.
    Hist {
        col: u32,
        delta: u64,
        p50: u64,
        p95: u64,
        p99: u64,
    },
}

impl Point {
    fn col(&self) -> u32 {
        match self {
            Point::Counter { col, .. } | Point::Gauge { col, .. } | Point::Hist { col, .. } => *col,
        }
    }
}

/// One sample: everything that changed at a single boundary.
#[derive(Debug, Clone, PartialEq)]
struct Frame {
    at: Ps,
    seq: u64,
    points: Vec<Point>,
}

/// The sampler: a ring of delta-encoded frames over the registry.
///
/// Drive it by bounding the simulation loop at
/// [`next_sample_at`](Self::next_sample_at) and calling
/// [`capture`](Self::capture) there; `VapresSystem::enable_timeseries`
/// does exactly that.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    interval: Ps,
    next_at: Ps,
    capacity: usize,
    columns: Vec<Column>,
    /// Registry counter slot → column index (registration order is dense
    /// and append-only, so positions are stable).
    counter_cols: Vec<u32>,
    /// Registry gauge slot → column index.
    gauge_cols: Vec<u32>,
    /// Registry histogram slot → column index.
    hist_cols: Vec<u32>,
    frames: VecDeque<Frame>,
    /// Frames captured over the sampler's lifetime (not just retained).
    captured: u64,
}

impl TimeSeries {
    /// [`DEFAULT_CAPACITY`], reachable through type re-exports.
    pub const DEFAULT_CAPACITY: usize = DEFAULT_CAPACITY;

    /// Creates a sampler firing every `interval` of simulated time,
    /// retaining at most `capacity` frames; the first boundary is
    /// `now + interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `capacity` is zero.
    pub fn new(interval: Ps, capacity: usize, now: Ps) -> Self {
        assert!(interval > Ps::ZERO, "sample interval must be non-zero");
        assert!(capacity > 0, "frame ring capacity must be non-zero");
        TimeSeries {
            interval,
            next_at: now + interval,
            capacity,
            columns: Vec::new(),
            counter_cols: Vec::new(),
            gauge_cols: Vec::new(),
            hist_cols: Vec::new(),
            frames: VecDeque::new(),
            captured: 0,
        }
    }

    /// The sampling interval.
    pub fn interval(&self) -> Ps {
        self.interval
    }

    /// The simulated time of the next sample boundary.
    pub fn next_sample_at(&self) -> Ps {
        self.next_at
    }

    /// Frames captured over the sampler's lifetime.
    pub fn frames_captured(&self) -> u64 {
        self.captured
    }

    /// Frames currently retained in the ring.
    pub fn frames_retained(&self) -> usize {
        self.frames.len()
    }

    /// Metrics tracked so far.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    fn add_column(&mut self, kind: ColumnKind, name: &'static str, labels: &[Label]) -> u32 {
        let id = u32::try_from(self.columns.len()).expect("fewer than 2^32 metrics");
        self.columns.push(Column {
            kind,
            name,
            labels: labels.to_vec(),
            base_count: 0,
            base_value: 0.0,
            last_count: 0,
            last_value: 0.0,
        });
        id
    }

    /// Samples the registry at boundary `at`: appends one frame holding
    /// every changed metric and advances the next boundary by one
    /// interval. Metrics that registered since the previous capture get
    /// columns on first sight (their first point carries the full value).
    pub fn capture(&mut self, at: Ps, t: &Telemetry) {
        let mut points = Vec::new();
        for (i, (name, labels, value)) in t.counters_iter().enumerate() {
            let col = match self.counter_cols.get(i) {
                Some(&c) => c,
                None => {
                    let c = self.add_column(ColumnKind::Counter, name, labels);
                    self.counter_cols.push(c);
                    c
                }
            };
            let column = &mut self.columns[col as usize];
            if value != column.last_count {
                points.push(Point::Counter {
                    col,
                    delta: value.saturating_sub(column.last_count),
                });
                column.last_count = value;
            }
        }
        for (i, (name, labels, value)) in t.gauges_iter().enumerate() {
            let col = match self.gauge_cols.get(i) {
                Some(&c) => c,
                None => {
                    let c = self.add_column(ColumnKind::Gauge, name, labels);
                    self.gauge_cols.push(c);
                    c
                }
            };
            let column = &mut self.columns[col as usize];
            if value.to_bits() != column.last_value.to_bits() {
                points.push(Point::Gauge { col, value });
                column.last_value = value;
            }
        }
        for (i, (name, labels, hist)) in t.histograms_iter().enumerate() {
            let col = match self.hist_cols.get(i) {
                Some(&c) => c,
                None => {
                    let c = self.add_column(ColumnKind::Histogram, name, labels);
                    self.hist_cols.push(c);
                    c
                }
            };
            let column = &mut self.columns[col as usize];
            let total = hist.total();
            if total != column.last_count {
                points.push(Point::Hist {
                    col,
                    delta: total.saturating_sub(column.last_count),
                    p50: hist.percentile(0.50).unwrap_or(0),
                    p95: hist.percentile(0.95).unwrap_or(0),
                    p99: hist.percentile(0.99).unwrap_or(0),
                });
                column.last_count = total;
            }
        }
        let seq = self.captured;
        self.captured += 1;
        self.frames.push_back(Frame { at, seq, points });
        while self.frames.len() > self.capacity {
            let evicted = self.frames.pop_front().expect("ring is non-empty");
            for p in &evicted.points {
                let column = &mut self.columns[p.col() as usize];
                match p {
                    Point::Counter { delta, .. } | Point::Hist { delta, .. } => {
                        column.base_count += delta;
                    }
                    Point::Gauge { value, .. } => column.base_value = *value,
                }
            }
        }
        self.next_at = at.saturating_add(self.interval);
    }

    // ------------------------------------------------------------------
    // Exporters.
    // ------------------------------------------------------------------

    /// Writes the self-describing JSONL trajectory: one `series` line per
    /// column (identity + eviction-horizon base), then one `frame` line
    /// per retained sample. Counter points are `[col, delta]`, gauge
    /// points `[col, value]`, histogram points
    /// `[col, delta, p50, p95, p99]`. Byte-stable for identical runs.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl<W: Write>(&self, w: W) -> io::Result<()> {
        self.write_jsonl_tagged(w, None)
    }

    /// [`write_jsonl`](Self::write_jsonl) with an optional `"scenario"`
    /// field on every line — how sweep trajectories keep per-scenario
    /// series separable in one concatenated file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl_tagged<W: Write>(&self, mut w: W, scenario: Option<&str>) -> io::Result<()> {
        let mut tag = String::new();
        if let Some(s) = scenario {
            tag.push_str(",\"scenario\":");
            json_string(&mut tag, s);
        }
        let mut line = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            line.clear();
            line.push_str(&format!(
                "{{\"type\":\"series\",\"col\":{i},\"kind\":\"{}\",\"name\":",
                c.kind.as_str()
            ));
            json_string(&mut line, c.name);
            line.push_str(",\"labels\":");
            json_labels(&mut line, &c.labels);
            match c.kind {
                ColumnKind::Gauge => {
                    line.push_str(&format!(",\"base\":{}", json_f64(c.base_value)));
                }
                _ => line.push_str(&format!(",\"base\":{}", c.base_count)),
            }
            line.push_str(&tag);
            line.push('}');
            writeln!(w, "{line}")?;
        }
        for f in &self.frames {
            line.clear();
            line.push_str(&format!(
                "{{\"type\":\"frame\",\"seq\":{},\"at_ps\":{},\"points\":[",
                f.seq,
                f.at.as_ps()
            ));
            for (i, p) in f.points.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                match p {
                    Point::Counter { col, delta } => {
                        line.push_str(&format!("[{col},{delta}]"));
                    }
                    Point::Gauge { col, value } => {
                        line.push_str(&format!("[{col},{}]", json_f64(*value)));
                    }
                    Point::Hist {
                        col,
                        delta,
                        p50,
                        p95,
                        p99,
                    } => {
                        line.push_str(&format!("[{col},{delta},{p50},{p95},{p99}]"));
                    }
                }
            }
            line.push(']');
            line.push_str(&tag);
            line.push('}');
            writeln!(w, "{line}")?;
        }
        Ok(())
    }

    /// Reconstructed absolute value of every changed metric per frame,
    /// frame-major, as `(name, labels, at, value)` — the shared backbone
    /// of the CSV export and the timeline's counter tracks.
    pub fn absolute_rows(&self) -> Vec<(&'static str, &[Label], Ps, f64)> {
        let mut cur: Vec<f64> = self
            .columns
            .iter()
            .map(|c| match c.kind {
                ColumnKind::Gauge => c.base_value,
                _ => c.base_count as f64,
            })
            .collect();
        let mut rows = Vec::new();
        for f in &self.frames {
            for p in &f.points {
                let col = p.col() as usize;
                match p {
                    Point::Counter { delta, .. } | Point::Hist { delta, .. } => {
                        cur[col] += *delta as f64;
                    }
                    Point::Gauge { value, .. } => cur[col] = *value,
                }
                let c = &self.columns[col];
                rows.push((c.name, &c.labels[..], f.at, cur[col]));
            }
        }
        rows
    }

    /// Writes the per-metric CSV: header `metric,labels,at_ps,value`,
    /// then one row per changed metric per frame (absolute values,
    /// frame-major order).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "metric,labels,at_ps,value")?;
        for (name, labels, at, value) in self.absolute_rows() {
            let labels: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            writeln!(
                w,
                "{},{},{},{}",
                csv_field(name),
                csv_field(&labels.join(";")),
                at.as_ps(),
                json_f64(value)
            )?;
        }
        Ok(())
    }
}

/// Quotes a CSV field when it holds a delimiter or quote.
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

impl Persist for TimeSeries {
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.interval.as_ps());
        w.put_u64(self.next_at.as_ps());
        w.put_usize(self.capacity);
        w.put_u64(self.captured);
        w.put_usize(self.columns.len());
        for c in &self.columns {
            w.put_u8(match c.kind {
                ColumnKind::Counter => 0,
                ColumnKind::Gauge => 1,
                ColumnKind::Histogram => 2,
            });
            w.put_str(c.name);
            w.put_usize(c.labels.len());
            for (k, v) in &c.labels {
                w.put_str(k);
                w.put_str(v);
            }
            w.put_u64(c.base_count);
            w.put_f64(c.base_value);
            w.put_u64(c.last_count);
            w.put_f64(c.last_value);
        }
        self.counter_cols.persist(w);
        self.gauge_cols.persist(w);
        self.hist_cols.persist(w);
        w.put_usize(self.frames.len());
        for f in &self.frames {
            w.put_u64(f.at.as_ps());
            w.put_u64(f.seq);
            w.put_usize(f.points.len());
            for p in &f.points {
                match p {
                    Point::Counter { col, delta } => {
                        w.put_u8(0);
                        w.put_u32(*col);
                        w.put_u64(*delta);
                    }
                    Point::Gauge { col, value } => {
                        w.put_u8(1);
                        w.put_u32(*col);
                        w.put_f64(*value);
                    }
                    Point::Hist {
                        col,
                        delta,
                        p50,
                        p95,
                        p99,
                    } => {
                        w.put_u8(2);
                        w.put_u32(*col);
                        w.put_u64(*delta);
                        w.put_u64(*p50);
                        w.put_u64(*p95);
                        w.put_u64(*p99);
                    }
                }
            }
        }
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let interval = Ps::new(r.take_u64()?);
        if interval == Ps::ZERO {
            return Err(PersistError::Corrupt(
                "time series has a zero sample interval".into(),
            ));
        }
        let next_at = Ps::new(r.take_u64()?);
        let capacity = r.take_usize()?;
        if capacity == 0 {
            return Err(PersistError::Corrupt(
                "time series has a zero frame capacity".into(),
            ));
        }
        let captured = r.take_u64()?;
        let n = r.take_usize()?;
        if n > r.remaining() {
            return Err(PersistError::UnexpectedEof);
        }
        let mut columns = Vec::with_capacity(n);
        for _ in 0..n {
            let kind = match r.take_u8()? {
                0 => ColumnKind::Counter,
                1 => ColumnKind::Gauge,
                2 => ColumnKind::Histogram,
                other => {
                    return Err(PersistError::Corrupt(format!(
                        "unknown time-series column kind {other}"
                    )))
                }
            };
            let name = intern_static(&r.take_string()?);
            let nl = r.take_usize()?;
            if nl > r.remaining() {
                return Err(PersistError::UnexpectedEof);
            }
            let mut labels = Vec::with_capacity(nl);
            for _ in 0..nl {
                let k = intern_static(&r.take_string()?);
                let v = r.take_string()?;
                labels.push((k, v));
            }
            columns.push(Column {
                kind,
                name,
                labels,
                base_count: r.take_u64()?,
                base_value: r.take_f64()?,
                last_count: r.take_u64()?,
                last_value: r.take_f64()?,
            });
        }
        let check_map = |cols: &[u32], kind: ColumnKind| -> Result<(), PersistError> {
            for &c in cols {
                match columns.get(c as usize) {
                    Some(col) if col.kind == kind => {}
                    _ => {
                        return Err(PersistError::Corrupt(format!(
                            "time-series slot map points at a bad {} column {c}",
                            kind.as_str()
                        )))
                    }
                }
            }
            Ok(())
        };
        let counter_cols = Vec::<u32>::restore(r)?;
        let gauge_cols = Vec::<u32>::restore(r)?;
        let hist_cols = Vec::<u32>::restore(r)?;
        check_map(&counter_cols, ColumnKind::Counter)?;
        check_map(&gauge_cols, ColumnKind::Gauge)?;
        check_map(&hist_cols, ColumnKind::Histogram)?;
        let n = r.take_usize()?;
        if n > r.remaining() || n > capacity {
            return Err(PersistError::Corrupt(
                "time series holds more frames than its capacity".into(),
            ));
        }
        let mut frames = VecDeque::with_capacity(n);
        for _ in 0..n {
            let at = Ps::new(r.take_u64()?);
            let seq = r.take_u64()?;
            let np = r.take_usize()?;
            if np > r.remaining() {
                return Err(PersistError::UnexpectedEof);
            }
            let mut points = Vec::with_capacity(np);
            for _ in 0..np {
                let tag = r.take_u8()?;
                let col = r.take_u32()?;
                if columns.get(col as usize).is_none() {
                    return Err(PersistError::Corrupt(format!(
                        "time-series point references unknown column {col}"
                    )));
                }
                points.push(match tag {
                    0 => Point::Counter {
                        col,
                        delta: r.take_u64()?,
                    },
                    1 => Point::Gauge {
                        col,
                        value: r.take_f64()?,
                    },
                    2 => Point::Hist {
                        col,
                        delta: r.take_u64()?,
                        p50: r.take_u64()?,
                        p95: r.take_u64()?,
                        p99: r.take_u64()?,
                    },
                    other => {
                        return Err(PersistError::Corrupt(format!(
                            "unknown time-series point kind {other}"
                        )))
                    }
                });
            }
            frames.push_back(Frame { at, seq, points });
        }
        Ok(TimeSeries {
            interval,
            next_at,
            capacity,
            columns,
            counter_cols,
            gauge_cols,
            hist_cols,
            frames,
            captured,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> (
        Telemetry,
        crate::telemetry::CounterId,
        crate::telemetry::GaugeId,
    ) {
        let mut t = Telemetry::new();
        let c = t.counter("words_total", &[("iom", "0".to_string())]);
        let g = t.gauge("fifo_high_water", &[]);
        (t, c, g)
    }

    fn jsonl(ts: &TimeSeries) -> String {
        let mut out = Vec::new();
        ts.write_jsonl(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn captures_deltas_and_skips_unchanged() {
        let (mut t, c, g) = registry();
        let mut ts = TimeSeries::new(Ps::from_us(10), 16, Ps::ZERO);
        assert_eq!(ts.next_sample_at(), Ps::from_us(10));

        t.inc(c, 5);
        t.set_gauge_max(g, 3.0);
        ts.capture(Ps::from_us(10), &t);
        assert_eq!(ts.next_sample_at(), Ps::from_us(20));

        // Nothing changed: the second frame is empty.
        ts.capture(Ps::from_us(20), &t);
        t.inc(c, 2);
        ts.capture(Ps::from_us(30), &t);

        let text = jsonl(&ts);
        assert!(text.contains("\"type\":\"series\""), "{text}");
        assert!(text.contains("\"name\":\"words_total\""), "{text}");
        assert!(
            text.contains("\"seq\":0,\"at_ps\":10000000,\"points\":[[0,5],[1,3]]"),
            "{text}"
        );
        assert!(
            text.contains("\"seq\":1,\"at_ps\":20000000,\"points\":[]"),
            "{text}"
        );
        assert!(
            text.contains("\"seq\":2,\"at_ps\":30000000,\"points\":[[0,2]]"),
            "{text}"
        );
    }

    #[test]
    fn histogram_points_carry_percentiles() {
        let mut t = Telemetry::new();
        let h = t.histogram("lat_ps", &[], 100, 8);
        let mut ts = TimeSeries::new(Ps::from_us(1), 16, Ps::ZERO);
        for v in [50, 150, 250, 750] {
            t.observe(h, v);
        }
        ts.capture(Ps::from_us(1), &t);
        let text = jsonl(&ts);
        // 4 samples; p50 bucket upper bound 200, p99 800.
        assert!(text.contains("[0,4,200,800,800]"), "{text}");
    }

    #[test]
    fn ring_eviction_folds_into_base() {
        let (mut t, c, _) = registry();
        let mut ts = TimeSeries::new(Ps::from_us(1), 2, Ps::ZERO);
        for i in 1..=4u64 {
            t.inc(c, i);
            ts.capture(Ps::from_us(i), &t);
        }
        assert_eq!(ts.frames_retained(), 2);
        assert_eq!(ts.frames_captured(), 4);
        // Deltas 1 and 2 were evicted: base carries them.
        let text = jsonl(&ts);
        assert!(text.contains("\"base\":3"), "{text}");
        // The absolute reconstruction ends at 1+2+3+4 = 10.
        let mut csv = Vec::new();
        ts.write_csv(&mut csv).unwrap();
        let csv = String::from_utf8(csv).unwrap();
        assert!(csv.lines().last().unwrap().ends_with(",10"), "{csv}");
    }

    #[test]
    fn csv_and_chrome_trace_reconstruct_absolutes() {
        let (mut t, c, g) = registry();
        let mut ts = TimeSeries::new(Ps::from_us(5), 8, Ps::ZERO);
        t.inc(c, 7);
        t.set_gauge_max(g, 1.5);
        ts.capture(Ps::from_us(5), &t);
        t.inc(c, 3);
        ts.capture(Ps::from_us(10), &t);

        let mut csv = Vec::new();
        ts.write_csv(&mut csv).unwrap();
        let csv = String::from_utf8(csv).unwrap();
        assert!(csv.starts_with("metric,labels,at_ps,value\n"), "{csv}");
        assert!(csv.contains("words_total,iom=0,5000000,7"), "{csv}");
        assert!(csv.contains("words_total,iom=0,10000000,10"), "{csv}");
        assert!(csv.contains("fifo_high_water,,5000000,1.5"), "{csv}");

        // The timeline draws the same rows as counter tracks.
        let mut tr = Vec::new();
        crate::timeline::Timeline {
            series: Some(&ts),
            ..Default::default()
        }
        .write(&mut tr)
        .unwrap();
        let tr = String::from_utf8(tr).unwrap();
        assert!(
            tr.contains("{\"name\":\"words_total{iom=0}\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":10,\"args\":{\"value\":10}}"),
            "{tr}"
        );
    }

    #[test]
    fn scenario_tag_lands_on_every_line() {
        let (mut t, c, _) = registry();
        let mut ts = TimeSeries::new(Ps::from_us(1), 4, Ps::ZERO);
        t.inc(c, 1);
        ts.capture(Ps::from_us(1), &t);
        let mut out = Vec::new();
        ts.write_jsonl_tagged(&mut out, Some("kr2kl2")).unwrap();
        let text = String::from_utf8(out).unwrap();
        for line in text.lines() {
            assert!(line.contains("\"scenario\":\"kr2kl2\""), "{line}");
        }
    }

    #[test]
    fn persist_round_trip_is_identity() {
        let (mut t, c, g) = registry();
        let h = t.histogram("lat_ps", &[("stage", "hop".to_string())], 10, 4);
        let mut ts = TimeSeries::new(Ps::from_us(2), 3, Ps::ZERO);
        for i in 1..=5u64 {
            t.inc(c, i);
            t.set_gauge_max(g, i as f64 / 2.0);
            t.observe(h, i * 7);
            ts.capture(Ps::from_us(2 * i), &t);
        }
        let mut w = Writer::new();
        ts.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = TimeSeries::restore(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.next_sample_at(), ts.next_sample_at());
        assert_eq!(back.frames_captured(), ts.frames_captured());
        assert_eq!(jsonl(&back), jsonl(&ts), "round trip changed the export");
        // And the restored sampler keeps capturing identically.
        let mut a = ts.clone();
        let mut b = back;
        t.inc(c, 9);
        a.capture(Ps::from_us(12), &t);
        b.capture(Ps::from_us(12), &t);
        assert_eq!(jsonl(&a), jsonl(&b));
    }

    #[test]
    fn restore_rejects_corrupt_images() {
        let mut w = Writer::new();
        TimeSeries::new(Ps::from_us(1), 2, Ps::ZERO).persist(&mut w);
        let good = w.into_bytes();
        // Zero interval.
        let mut bad = good.clone();
        bad[0..8].fill(0);
        assert!(TimeSeries::restore(&mut Reader::new(&bad)).is_err());
        // Truncation.
        assert!(TimeSeries::restore(&mut Reader::new(&good[..4])).is_err());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_interval_panics() {
        let _ = TimeSeries::new(Ps::ZERO, 4, Ps::ZERO);
    }
}
