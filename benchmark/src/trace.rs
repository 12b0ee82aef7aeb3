//! The benchmark's own span recorder. Spans are taken around the calls into
//! each layer, from this package's files only; they stay in memory and are
//! written as JSON lines when the run ends.

use std::io::{self, Write};
use std::time::Instant;

/// Index of a span inside its [`Trace`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Identifier shared by all spans of one op (0 for layer probes).
    pub op: u64,
    pub parent: Option<SpanId>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Microseconds since the trace began.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    pub fn push(
        &mut self,
        name: &str,
        op: u64,
        parent: Option<SpanId>,
        start_us: f64,
        end_us: f64,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_owned(),
            op,
            parent,
            start_us,
            end_us,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a parentless probe span and returns its result with the
    /// elapsed seconds.
    pub fn probe<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.push(name, 0, None, self.at(t0), self.at(t1));
        (out, (t1 - t0).as_secs_f64())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    /// Self times (µs) of every span called `name`: its duration minus the
    /// part of that interval its child spans cover. Children of one span
    /// never overlap here, so the cover is the clipped sum.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_us.max(parent.start_us);
                let hi = s.end_us.min(parent.end_us);
                covered[p] += (hi - lo).max(0.0);
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.duration_us() - c)
            .collect()
    }

    pub fn write_jsonl(&self, mut w: impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                sjoind::json::escape(&s.name),
                s.op,
                s.start_us,
                s.end_us
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_clipped_children() {
        let mut t = Trace::new();
        let root = t.push("op.pbsm", 1, None, 100.0, 200.0);
        t.push("pbsm.partition", 1, Some(root), 100.0, 130.0);
        t.push("pbsm.join", 1, Some(root), 130.0, 190.0);
        // A child reaching past its parent only counts for the part inside.
        let root2 = t.push("op.pbsm", 2, None, 300.0, 350.0);
        t.push("pbsm.join", 2, Some(root2), 340.0, 400.0);
        assert_eq!(t.self_times_us("op.pbsm"), vec![10.0, 40.0]);
        assert_eq!(t.durations_us("pbsm.join"), vec![60.0, 60.0]);
    }

    #[test]
    fn span_file_lines_parse() {
        let mut t = Trace::new();
        let root = t.push("op.\"x\"", 3, None, 1.5, 9.25);
        t.push("child", 3, Some(root), 2.0, 3.0);
        let mut bytes = Vec::new();
        t.write_jsonl(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = sjoind::Json::parse(lines[0]).unwrap();
        assert_eq!(
            first.get("name").and_then(sjoind::Json::as_str),
            Some("op.\"x\"")
        );
        assert_eq!(first.get("parent"), Some(&sjoind::Json::Null));
        let second = sjoind::Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("parent").and_then(sjoind::Json::as_u64), Some(0));
        assert_eq!(
            second.get("end_us").and_then(sjoind::Json::as_f64),
            Some(3.0)
        );
    }
}
