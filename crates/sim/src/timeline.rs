//! The one chrome://tracing / Perfetto writer. A run's timeline is one
//! `traceEvents` document with two processes, each named by a
//! `process_name` event and each track by `thread_name`, so the two
//! clocks never share an axis:
//!
//! * pid 1, `simulated time`: telemetry spans (`"X"`, one track per
//!   family), time-series counters (`"C"`, absolute values) and flight
//!   instants (`"i"`, on a `flight` track), in µs of simulated time
//!   written exactly from integer picoseconds (71,907,208,202 ps is
//!   `71907.208202`) — a pure function of the run;
//! * pid 2, `host time`: the profiler ring's scopes (`"X"`, on a
//!   `scopes` track), in µs since the profiler was armed — outside every
//!   determinism contract.
//!
//! Each source hands over its events through its own accessors; only
//! this module knows the trace-event format.

use crate::flight::{write_event_fields, FlightRecorder};
use crate::profile::Profiler;
use crate::telemetry::{json_f64, json_string, Span};
use crate::time::Ps;
use crate::timeseries::TimeSeries;
use std::io::{self, Write};

/// The process holding everything stamped in simulated time.
const SIM_PID: u32 = 1;
/// The process holding the profiler's host-clock scopes.
const HOST_PID: u32 = 2;

/// What one run armed, borrowed for one write; an unarmed source is
/// empty or `None` and adds no events.
#[derive(Debug, Default)]
pub struct Timeline<'a> {
    /// Telemetry spans (simulated time).
    pub spans: &'a [Span],
    /// The time-series sampler (simulated time).
    pub series: Option<&'a TimeSeries>,
    /// The flight ring (simulated time).
    pub flight: Option<&'a FlightRecorder>,
    /// The self-profiler (host time).
    pub host: Option<&'a Profiler>,
}

impl Timeline<'_> {
    /// Writes the document, one event per line: the metadata, then
    /// spans, counters, flight instants and host scopes, each in its
    /// source's order.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write<W: Write>(&self, mut w: W) -> io::Result<()> {
        // Span families take tids 1.. in order of first appearance and
        // the flight track the next; counters are process-wide (tid 0).
        let mut families: Vec<&str> = Vec::new();
        for s in self.spans {
            if !families.contains(&s.name) {
                families.push(s.name);
            }
        }
        let flight_tid = families.len() + 1;
        let mut tracks = vec![
            ("process_name", SIM_PID, 0, "simulated time"),
            ("process_name", HOST_PID, 0, "host time"),
        ];
        let family_tracks = families.iter().zip(1..);
        tracks.extend(family_tracks.map(|(f, tid)| ("thread_name", SIM_PID, tid, *f)));
        if self.flight.is_some() {
            tracks.push(("thread_name", SIM_PID, flight_tid, "flight"));
        }
        if self.host.is_some() {
            tracks.push(("thread_name", HOST_PID, 1, "scopes"));
        }
        writeln!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        let mut sep = "";
        let mut emit = |event: String| {
            let line = write!(w, "{sep}{event}");
            sep = ",\n";
            line
        };
        for (kind, pid, tid, name) in tracks {
            let args = format!(",\"args\":{{\"name\":{}}}", quoted(name));
            emit(event(kind, "M", pid, tid, &args))?;
        }
        let sim = |t: Ps| us(t.as_ps(), 6);
        for s in self.spans {
            let tid = families.iter().position(|f| *f == s.name).unwrap_or(0) + 1;
            let (cat, ts, dur) = (quoted(s.name), sim(s.start), sim(s.duration()));
            let rest = format!(",\"cat\":{cat},\"ts\":{ts},\"dur\":{dur}");
            emit(event(&s.label, "X", SIM_PID, tid, &rest))?;
        }
        for (name, labels, at, value) in self.series.map_or(vec![], TimeSeries::absolute_rows) {
            // `name{k=v,..}`: one counter track per metric.
            let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let name = if pairs.is_empty() {
                name.to_string()
            } else {
                format!("{name}{{{}}}", pairs.join(","))
            };
            let (ts, value) = (sim(at), json_f64(value));
            let rest = format!(",\"ts\":{ts},\"args\":{{\"value\":{value}}}");
            emit(event(&name, "C", SIM_PID, 0, &rest))?;
        }
        for e in self.flight.into_iter().flat_map(FlightRecorder::events) {
            let mut fields = Vec::new();
            write_event_fields(&mut fields, &e.event)?;
            let fields = String::from_utf8_lossy(&fields);
            let (ts, seq) = (sim(e.at), e.seq);
            let rest = format!(
                ",\"cat\":\"flight\",\"s\":\"t\",\"ts\":{ts},\"args\":{{\"seq\":{seq}{fields}}}"
            );
            emit(event(e.event.kind(), "i", SIM_PID, flight_tid, &rest))?;
        }
        for e in self.host.into_iter().flat_map(Profiler::ring_events) {
            let (ts, dur, depth) = (us(e.start_ns, 3), us(e.dur_ns, 3), e.depth);
            let rest = format!(
                ",\"cat\":\"host\",\"ts\":{ts},\"dur\":{dur},\"args\":{{\"depth\":{depth}}}"
            );
            emit(event(e.name, "X", HOST_PID, 1, &rest))?;
        }
        writeln!(w, "\n]}}")
    }
}

/// One event: its escaped `name`, phase, process and track, then
/// `rest`, the `,"key":value` members of its kind.
fn event(name: &str, ph: &str, pid: u32, tid: usize, rest: &str) -> String {
    let name = quoted(name);
    format!("{{\"name\":{name},\"ph\":\"{ph}\",\"pid\":{pid},\"tid\":{tid}{rest}}}")
}

/// `s` as a quoted, escaped JSON string.
fn quoted(s: &str) -> String {
    let mut out = String::new();
    json_string(&mut out, s);
    out
}

/// `v` counts 10^-`digits` µs (ps: 6, ns: 3); written as the exact
/// decimal µs count, trailing zeros dropped: `us(1_000, 6)` is `0.001`.
fn us(v: u64, digits: usize) -> String {
    let unit = 10u64.pow(digits as u32);
    let frac = format!("{:0digits$}", v % unit);
    match frac.trim_end_matches('0') {
        "" => (v / unit).to_string(),
        frac => format!("{}.{frac}", v / unit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::FlightEvent;
    use crate::json::{self, Json};
    use crate::telemetry::Telemetry;

    /// One armed run's worth of sources: a span family, a sampled
    /// counter, a flight ring and a profiler with two scopes.
    fn sources() -> (Telemetry, TimeSeries, FlightRecorder, Profiler) {
        let mut t = Telemetry::new();
        let c = t.counter("words_total", &[("iom", "0".into())]);
        t.record_span(
            "swap_step",
            "2_reconfigure_spare",
            Ps::from_ns(1),
            Ps::from_ns(2),
        );
        let mut ts = TimeSeries::new(Ps::from_us(5), 8, Ps::ZERO);
        t.inc(c, 7);
        ts.capture(Ps::from_us(5), &t);
        let mut fr = FlightRecorder::new(4);
        fr.record(Ps::from_us(3), FlightEvent::IcapWrite { words: 42 });
        let mut p = Profiler::new(8);
        p.begin("run");
        p.begin("sample");
        p.end();
        p.end();
        (t, ts, fr, p)
    }

    fn write(tl: Timeline<'_>) -> String {
        let mut out = Vec::new();
        tl.write(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn events(text: &str) -> Vec<Json> {
        let doc = json::parse(text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
        doc.get("traceEvents").unwrap().items().unwrap().to_vec()
    }

    fn field<'a>(e: &'a Json, key: &str) -> &'a str {
        e.get(key).unwrap().as_str().unwrap()
    }

    #[test]
    fn all_four_sources_parse_with_every_event_on_a_named_process() {
        let (t, ts, fr, p) = sources();
        let text = write(Timeline {
            spans: t.spans(),
            series: Some(&ts),
            flight: Some(&fr),
            host: Some(&p),
        });
        let events = events(&text);
        for e in &events {
            let pid = e.get("pid").unwrap().as_u64().unwrap();
            assert!(pid == 1 || pid == 2, "{text}");
        }
        let named: Vec<(u64, &str)> = events
            .iter()
            .filter(|e| field(e, "name") == "process_name")
            .map(|e| {
                let args = e.get("args").unwrap();
                (e.get("pid").unwrap().as_u64().unwrap(), field(args, "name"))
            })
            .collect();
        assert_eq!(named, [(1, "simulated time"), (2, "host time")]);
        for ph in ["X", "C", "i"] {
            assert!(
                events.iter().any(|e| field(e, "ph") == ph),
                "no {ph}: {text}"
            );
        }
        assert!(text.contains("\"name\":\"words_total{iom=0}\""), "{text}");
        assert!(text.contains("\"args\":{\"seq\":0,\"words\":42}"), "{text}");
    }

    #[test]
    fn a_one_nanosecond_span_reads_one_thousandth_of_a_microsecond() {
        let mut t = Telemetry::new();
        t.record_span("icap", "write", Ps::from_ns(1), Ps::from_ns(2));
        t.record_span(
            "swap_step",
            "2_reconfigure_spare",
            Ps::ZERO,
            Ps::new(71_907_208_202),
        );
        let text = write(Timeline {
            spans: t.spans(),
            ..Timeline::default()
        });
        assert!(text.contains("\"ts\":0.001,\"dur\":0.001}"), "{text}");
        assert!(text.contains("\"ts\":0,\"dur\":71907.208202}"), "{text}");
        assert_eq!(us(1_500_000, 6), "1.5");
        assert_eq!(us(1_234, 3), "1.234");
        assert_eq!(us(u64::MAX, 6), "18446744073709.551615");
    }

    #[test]
    fn hostile_span_labels_are_escaped() {
        let mut t = Telemetry::new();
        let hostile = "a\"b\\c\nd\u{1}},{\"ph\":\"X";
        t.record_span("swap_step", hostile, Ps::ZERO, Ps::from_ns(1));
        let text = write(Timeline {
            spans: t.spans(),
            ..Timeline::default()
        });
        let events = events(&text);
        let span = events.iter().find(|e| field(e, "ph") == "X").unwrap();
        assert_eq!(field(span, "name"), hostile);
        assert_eq!(events.iter().filter(|e| field(e, "ph") == "X").count(), 1);
    }

    #[test]
    fn host_scopes_never_land_on_the_sim_process() {
        let (t, ts, fr, p) = sources();
        let text = write(Timeline {
            spans: t.spans(),
            series: Some(&ts),
            flight: Some(&fr),
            host: Some(&p),
        });
        let events = events(&text);
        let host: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("cat").is_some_and(|c| c.as_str() == Ok("host")))
            .collect();
        assert_eq!(host.len(), 2, "{text}");
        for e in &events {
            let on_host = e.get("pid").unwrap().as_u64() == Ok(u64::from(HOST_PID));
            if host.iter().any(|h| std::ptr::eq(*h, e)) {
                assert!(on_host, "{text}");
            } else if on_host {
                // Only the host process's own metadata shares its pid.
                assert_eq!(field(e, "ph"), "M", "{text}");
            }
        }
        // Without a profiler the host process is named but empty.
        let text = write(Timeline {
            spans: t.spans(),
            ..Timeline::default()
        });
        assert!(!text.contains("\"cat\":\"host\""), "{text}");
    }
}
