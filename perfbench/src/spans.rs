//! The traced run's span recorder. Spans live in memory (name, start,
//! end, parent, one trace id per workload) and are written out once,
//! when the run ends. The benchmark opens them around its own calls
//! into each layer's public functions; the program itself is untouched.

use std::time::Instant;

/// One closed (or still open) span. Times are nanoseconds since the
/// recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Spans of one trace.
#[derive(Debug)]
pub struct Recorder {
    trace_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(trace_id: impl Into<String>) -> Recorder {
        Recorder {
            trace_id: trace_id.into(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of its interval that its
    /// children cover (overlapping children count once).
    pub fn self_time_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut cursor = span.start_ns;
        for (a, b) in children {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        (span.end_ns - span.start_ns) - covered
    }

    /// Durations (ns) of every span with this name.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"trace_id\":{:?},\"spans\":[", self.trace_id);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":{:?},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_time_ns(i)
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: &[(&str, u64, u64, Option<usize>)]) -> Recorder {
        let mut r = Recorder::new("t");
        for &(name, start_ns, end_ns, parent) in spans {
            r.spans.push(Span {
                name: name.into(),
                start_ns,
                end_ns,
                parent,
            });
        }
        r
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [30,60)
        // (overlaps a) and c [90,120) (sticks out past root's end).
        let r = fixed(&[
            ("root", 0, 100, None),
            ("a", 10, 40, Some(0)),
            ("a1", 15, 25, Some(1)),
            ("b", 30, 60, Some(0)),
            ("c", 90, 120, Some(0)),
        ]);
        // Children cover [10,60) and [90,100): 60 of root's 100.
        assert_eq!(r.self_time_ns(0), 40);
        assert_eq!(r.self_time_ns(1), 20);
        assert_eq!(r.self_time_ns(2), 10);
        assert_eq!(r.self_time_ns(3), 30);
    }

    #[test]
    fn nested_spans_record_parents() {
        let mut r = Recorder::new("w");
        r.span("outer", |r| {
            r.span("inner", |_| std::hint::black_box(1));
            r.span("inner", |_| std::hint::black_box(2));
        });
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert_eq!(r.durations_ns("inner").len(), 2);
        let child_sum: u64 = s[1..].iter().map(|c| c.end_ns - c.start_ns).sum();
        assert_eq!(r.self_time_ns(0), (s[0].end_ns - s[0].start_ns) - child_sum);
        assert!(r.to_json().starts_with("{\"trace_id\":\"w\""));
    }
}
