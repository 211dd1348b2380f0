//! Host-time spans the benchmark records around its calls into the
//! simulator's public API. Spans stay in memory and are written once, as
//! a chrome://tracing file, when the run ends.

use std::io::{self, Write};
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Records nested spans while `on`; every call is a no-op otherwise, so
/// the untraced run pays one branch per boundary.
#[derive(Debug)]
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. `op` identifies the
    /// operation (swap, scenario, slice) the span belongs to.
    pub fn begin(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let i = self.open.pop().expect("span end without a matching begin");
        self.spans[i].end_ns = now;
    }

    /// Records an already-finished interval (e.g. one a worker thread
    /// timed) under the innermost open span.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
            op,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, op);
        let r = f();
        self.end();
        r
    }

    /// Writes every span as a chrome-trace complete (`"X"`) event; the
    /// parent span index and op id ride in `args`.
    pub fn write_chrome<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":0,\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.op,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(w, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_off_records_nothing() {
        let events = |t: &Tracer| {
            let mut buf = Vec::new();
            t.write_chrome(&mut buf).unwrap();
            let doc = crate::json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
            doc.get("traceEvents").unwrap().as_array().unwrap().to_vec()
        };
        let mut t = Tracer::new(true);
        t.begin("outer", 0);
        t.span("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        let ev = events(&t);
        assert_eq!(ev.len(), 2);
        let args = ev[1].get("args").unwrap();
        assert_eq!(args.get("parent"), Some(&crate::json::Value::Num(0.0)));
        assert_eq!(args.get("op"), Some(&crate::json::Value::Num(7.0)));
        let dur = |e: &crate::json::Value| e.get("dur").unwrap().as_f64().unwrap();
        assert!(dur(&ev[1]) >= 2_000.0 && dur(&ev[0]) >= dur(&ev[1]));

        let mut off = Tracer::new(false);
        off.span("x", 0, || ());
        assert!(events(&off).is_empty());
    }
}
