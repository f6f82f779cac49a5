//! Spans recorded by the benchmark around its own calls into the program.
//!
//! A span has a name, a start and end on the host clock, the span that was
//! open when it started (its parent), and the id of the query it serves.
//! Spans are kept in memory and written out when the run ends, as Chrome
//! trace-event JSON that Perfetto opens. Recording is switched on per
//! round, so the same run can compare traced and untraced rounds.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span wraps, e.g. `serve.run_batch`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Id of the (first) query the call answers.
    pub query: Option<u64>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Token returned by [`Tracer::enter`]; `None` while recording is off.
pub type Token = Option<usize>;

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only while switched on.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches recording on or off. Call only with no span open.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled with an open span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, query: Option<u64>) -> Token {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            query,
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Closes the span `token` opened.
    pub fn exit(&mut self, token: Token) {
        if let Some(idx) = token {
            self.spans[idx].end_ns = self.now_ns();
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
        }
    }

    /// Closes the span and renames it, for calls whose kind is known only
    /// from their answer (incremental vs full recompute).
    pub fn exit_as(&mut self, token: Token, name: &'static str) {
        if let Some(idx) = token {
            self.spans[idx].name = name;
        }
        self.exit(token);
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, query: Option<u64>, f: impl FnOnce() -> R) -> R {
        let token = self.enter(name, query);
        let out = f();
        self.exit(token);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per-name totals: `(count, total ms, self ms)`, where self time is a
    /// span's duration minus the time its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ms = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut table: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let row = table.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.ms();
            row.2 += s.ms() - child_ms[i];
        }
        table
    }

    /// The per-layer self-time table, one line per span name.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<28} {:>7} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (count, total, own)) in self.self_times() {
            let _ = writeln!(out, "{name:<28} {count:>7} {total:>12.3} {own:>12.3}");
        }
        out
    }

    /// Chrome trace-event JSON ("X" complete events, microseconds).
    pub fn chrome_json(&self, meta: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(q) = s.query {
                let _ = write!(out, ",\"query\":{q}");
            }
            out.push_str("}}");
        }
        let _ = write!(out, "],\"displayTimeUnit\":\"ms\",\"otherData\":{meta}}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", None);
        let inner = t.enter("inner", Some(7));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        let table = t.self_times();
        let (_, total, own) = table["outer"];
        assert!(own < total && own >= 0.0);
        assert!(t.chrome_json("{}").contains("\"query\":7"));

        t.set_on(false);
        let none = t.enter("ignored", None);
        t.exit(none);
        assert_eq!(t.spans().len(), 2);
    }
}
