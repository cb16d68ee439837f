//! Benchmark-side tracing: spans around each call into a terra layer's
//! public function, kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The op this span belongs to (spans of one op share it).
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. When off, `span` only runs the closure.
pub struct Tracer {
    pub on: bool,
    op: u64,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            op: 0,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op: self.op,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Starts op `op`: later spans belong to it, and an open span left by
    /// a failed op cannot become their parent.
    pub fn begin_op(&mut self, op: u64, on: bool) {
        self.op = op;
        self.on = on;
        self.stack.clear();
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// For each op in `ops`, the summed self time of its spans named in
    /// `names`, in ms (0 for an op without such a span).
    pub fn per_op_ms(&self, names: &[&str], ops: &[u64]) -> Vec<f64> {
        self.per_op(names, ops, self.self_ns())
    }

    /// Like [`Tracer::per_op_ms`], but whole durations, children included.
    pub fn per_op_total_ms(&self, names: &[&str], ops: &[u64]) -> Vec<f64> {
        self.per_op(names, ops, self.spans.iter().map(Span::dur_ns).collect())
    }

    fn per_op(&self, names: &[&str], ops: &[u64], own: Vec<u64>) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, u64> = ops.iter().map(|&op| (op, 0)).collect();
        for (s, ns) in self.spans.iter().zip(own) {
            if names.contains(&s.name) {
                if let Some(sum) = by_op.get_mut(&s.op) {
                    *sum += ns;
                }
            }
        }
        ops.iter().map(|op| by_op[op] as f64 / 1e6).collect()
    }

    /// The spans as JSON lines: name, op, start, end and parent index.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let own = t.self_ns();
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(own[0] + own[1], s[0].dur_ns());
        assert!(own[1] >= 2_000_000);
        let ms = t.per_op_ms(&["outer", "inner"], &[0, 9]);
        assert!((ms[0] - s[0].dur_ns() as f64 / 1e6).abs() < 1e-9);
        assert_eq!(ms[1], 0.0, "an op without spans sums to zero");
        let total = t.per_op_total_ms(&["outer"], &[0]);
        assert!((total[0] - s[0].dur_ns() as f64 / 1e6).abs() < 1e-9);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
