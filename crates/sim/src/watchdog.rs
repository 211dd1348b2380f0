//! Declarative watchdog monitors and structured health reports.
//!
//! A [`Monitor`] is a named limit on one observable quantity — a
//! swap-step deadline budget, a FIFO high-water threshold, a missed-slot
//! SLO. Feeding it an observation yields a [`Verdict`]; a
//! [`HealthReport`] collects the verdicts of a whole monitor set and
//! answers the only question an operator asks: is the system healthy,
//! and if not, which limit broke and by how much.
//!
//! The monitors are deliberately dumb — pure comparisons over numbers
//! the simulator already measures. What to monitor and with which
//! budgets is policy, owned by the layer that knows the system (see
//! `vapres_core::health`).
//!
//! # Examples
//!
//! ```
//! use vapres_sim::watchdog::{HealthReport, Monitor};
//!
//! let mut report = HealthReport::new();
//! report.observe(Monitor::at_most("iom0_missed_slots", 0.0, "slots"), 0.0);
//! report.observe(Monitor::at_most("fifo_high_water", 511.0, "words"), 600.0);
//! assert!(!report.healthy());
//! assert_eq!(report.breaches().count(), 1);
//! ```

use std::fmt;
use std::io::{self, Write};

/// Which side of the limit is healthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    /// Healthy while `observed <= limit`.
    AtMost,
    /// Healthy while `observed >= limit`.
    AtLeast,
}

impl Comparison {
    /// The operator as rendered in reports.
    pub fn symbol(&self) -> &'static str {
        match self {
            Comparison::AtMost => "<=",
            Comparison::AtLeast => ">=",
        }
    }
}

/// One named limit on one observable quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct Monitor {
    /// Monitor name (stable, machine-matchable).
    pub name: String,
    /// The healthy-side bound.
    pub limit: f64,
    /// Which side of the bound is healthy.
    pub comparison: Comparison,
    /// Unit label for rendering (`"ps"`, `"words"`, `"slots"`, ...).
    pub unit: &'static str,
}

impl Monitor {
    /// A monitor that is healthy while the observation stays at or
    /// below `limit`.
    pub fn at_most(name: impl Into<String>, limit: f64, unit: &'static str) -> Self {
        Monitor {
            name: name.into(),
            limit,
            comparison: Comparison::AtMost,
            unit,
        }
    }

    /// A monitor that is healthy while the observation stays at or
    /// above `limit`.
    pub fn at_least(name: impl Into<String>, limit: f64, unit: &'static str) -> Self {
        Monitor {
            name: name.into(),
            limit,
            comparison: Comparison::AtLeast,
            unit,
        }
    }

    /// Judges one observation against this monitor's limit.
    pub fn evaluate(self, observed: f64) -> Verdict {
        Verdict {
            monitor: self,
            observed,
        }
    }
}

/// A monitor plus the value it observed.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The monitor that produced this verdict.
    pub monitor: Monitor,
    /// The observed value.
    pub observed: f64,
}

impl Verdict {
    /// True when the observation is on the healthy side of the limit.
    /// Non-finite observations always fail (a NaN metric is a defect,
    /// not good health).
    pub fn pass(&self) -> bool {
        if !self.observed.is_finite() {
            return false;
        }
        match self.monitor.comparison {
            Comparison::AtMost => self.observed <= self.monitor.limit,
            Comparison::AtLeast => self.observed >= self.monitor.limit,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {} {} {} {}",
            if self.pass() { "PASS" } else { "FAIL" },
            self.monitor.name,
            fmt_value(self.observed),
            self.monitor.comparison.symbol(),
            fmt_value(self.monitor.limit),
            self.monitor.unit,
        )
    }
}

/// Renders whole numbers without a fractional tail, everything else
/// with three decimals — report output, not science.
fn fmt_value(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// The verdicts of one evaluation pass over a monitor set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthReport {
    verdicts: Vec<Verdict>,
}

impl HealthReport {
    /// An empty (vacuously healthy) report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluates `monitor` against `observed`, records the verdict, and
    /// returns whether it passed.
    pub fn observe(&mut self, monitor: Monitor, observed: f64) -> bool {
        let verdict = monitor.evaluate(observed);
        let pass = verdict.pass();
        self.verdicts.push(verdict);
        pass
    }

    /// All verdicts, in evaluation order.
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }

    /// The failing verdicts.
    pub fn breaches(&self) -> impl Iterator<Item = &Verdict> {
        self.verdicts.iter().filter(|v| !v.pass())
    }

    /// True when every monitor passed.
    pub fn healthy(&self) -> bool {
        self.verdicts.iter().all(Verdict::pass)
    }

    /// Renders one line per verdict plus an overall summary line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_text<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        for v in &self.verdicts {
            writeln!(w, "  {v}")?;
        }
        let breaches = self.breaches().count();
        if breaches == 0 {
            writeln!(w, "overall: HEALTHY ({} monitors)", self.verdicts.len())
        } else {
            writeln!(
                w,
                "overall: UNHEALTHY ({breaches} of {} monitors breached)",
                self.verdicts.len()
            )
        }
    }

    /// Renders the machine-readable JSONL form: one `verdict` line per
    /// monitor, then one `health` summary line. The `vapres sim --health
    /// jsonl` output and the live `/health` endpoint both emit exactly
    /// this serialization.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl<W: Write + ?Sized>(&self, w: &mut W) -> io::Result<()> {
        use crate::telemetry::{json_f64, json_string};
        let mut line = String::new();
        for v in &self.verdicts {
            line.clear();
            line.push_str("{\"type\":\"verdict\",\"monitor\":");
            json_string(&mut line, &v.monitor.name);
            line.push_str(&format!(
                ",\"pass\":{},\"observed\":{},\"comparison\":\"{}\",\"limit\":{},\"unit\":",
                v.pass(),
                json_f64(v.observed),
                v.monitor.comparison.symbol(),
                json_f64(v.monitor.limit),
            ));
            json_string(&mut line, v.monitor.unit);
            line.push('}');
            writeln!(w, "{line}")?;
        }
        writeln!(
            w,
            "{{\"type\":\"health\",\"healthy\":{},\"breached\":{},\"monitors\":{}}}",
            self.healthy(),
            self.breaches().count(),
            self.verdicts.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_most_and_at_least_judge_both_sides() {
        assert!(Monitor::at_most("m", 10.0, "u").evaluate(10.0).pass());
        assert!(!Monitor::at_most("m", 10.0, "u").evaluate(10.1).pass());
        assert!(Monitor::at_least("m", 2.0, "u").evaluate(2.0).pass());
        assert!(!Monitor::at_least("m", 2.0, "u").evaluate(1.9).pass());
    }

    #[test]
    fn non_finite_observations_always_fail() {
        assert!(!Monitor::at_most("m", 10.0, "u").evaluate(f64::NAN).pass());
        assert!(!Monitor::at_least("m", 0.0, "u")
            .evaluate(f64::INFINITY)
            .pass());
    }

    #[test]
    fn report_aggregates_and_renders() {
        let mut r = HealthReport::new();
        assert!(r.healthy(), "empty report is vacuously healthy");
        assert!(r.observe(Monitor::at_most("ok", 5.0, "words"), 3.0));
        assert!(!r.observe(Monitor::at_most("bad", 5.0, "words"), 7.5));
        assert!(!r.healthy());
        assert_eq!(r.verdicts().len(), 2);

        let mut buf = Vec::new();
        r.write_text(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("[PASS] ok: 3 <= 5 words"));
        assert!(text.contains("[FAIL] bad: 7.500 <= 5 words"));
        assert!(text.contains("overall: UNHEALTHY (1 of 2 monitors breached)"));
    }

    #[test]
    fn jsonl_renders_verdicts_and_summary() {
        let mut r = HealthReport::new();
        r.observe(Monitor::at_most("ok", 5.0, "words"), 3.0);
        r.observe(Monitor::at_least("bad", 2.5, "slots"), 1.0);
        let mut buf = Vec::new();
        r.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"type\":\"verdict\",\"monitor\":\"ok\",\"pass\":true,\"observed\":3,\
             \"comparison\":\"<=\",\"limit\":5,\"unit\":\"words\"}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"verdict\",\"monitor\":\"bad\",\"pass\":false,\"observed\":1,\
             \"comparison\":\">=\",\"limit\":2.5,\"unit\":\"slots\"}"
        );
        assert_eq!(
            lines[2],
            "{\"type\":\"health\",\"healthy\":false,\"breached\":1,\"monitors\":2}"
        );
    }

    #[test]
    fn healthy_report_renders_summary() {
        let mut r = HealthReport::new();
        r.observe(Monitor::at_most("a", 1.0, "u"), 0.0);
        let mut buf = Vec::new();
        r.write_text(&mut buf).unwrap();
        assert!(String::from_utf8(buf)
            .unwrap()
            .contains("overall: HEALTHY (1 monitors)"));
    }
}
