//! Spans recorded by the benchmark around its calls into each layer (the
//! outside-in half of ROADMAP open item 1; spans inside the program are a
//! later change). Kept in memory, written to `out/trace-<workload>.json` when
//! the traced run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `proto.decode_request`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<u32>,
    /// Script index of the request; spans of one request share it.
    pub request: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span buffer with one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span and returns its index with the closure's result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u32,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (u32, R) {
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        let result = f(self);
        self.spans[index as usize].end_ns = self.now_ns();
        (index, result)
    }

    /// Adds a span measured elsewhere (a client thread's own clock readings).
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Self time of span `index`: its duration minus the part of its interval
    /// that its direct children cover (children are clipped to the parent and
    /// overlapping children are not counted twice).
    pub fn self_time_ns(&self, index: u32) -> u64 {
        let parent = self.spans[index as usize];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(start, end)| end > start)
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = parent.start_ns;
        for (start, end) in children {
            let start = start.max(cursor);
            if end > start {
                covered += end - start;
                cursor = end;
            }
        }
        parent.duration_ns() - covered
    }

    /// Self times of every span called `name`.
    pub fn self_times_ns(&self, name: &str) -> Vec<u64> {
        (0..self.spans.len() as u32)
            .filter(|&i| self.spans[i as usize].name == name)
            .map(|i| self.self_time_ns(i))
            .collect()
    }

    /// The buffer as a JSON array of `{name, start_ns, end_ns, parent, request}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push_str("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, u64, u64, Option<u32>)]) -> Tracer {
        let mut tracer = Tracer::new();
        for &(name, start_ns, end_ns, parent) in spans {
            tracer.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                request: 0,
            });
        }
        tracer
    }

    #[test]
    fn self_time_subtracts_what_child_spans_cover() {
        let tracer = tracer_with(&[
            ("server.handle", 100, 200, None),
            ("proto.decode_request", 105, 115, Some(0)),
            ("server.execute", 120, 180, Some(0)),
            ("proto.encode_response", 182, 190, Some(0)),
            ("core.shard.locate", 125, 175, Some(2)), // grandchild: not subtracted from 0
        ]);
        assert_eq!(tracer.self_time_ns(0), 100 - 10 - 60 - 8);
        assert_eq!(tracer.self_time_ns(2), 60 - 50);
        assert_eq!(tracer.self_time_ns(4), 50);
        assert_eq!(tracer.self_times_ns("server.execute"), vec![10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_counted_twice() {
        let tracer = tracer_with(&[
            ("parent", 100, 200, None),
            ("a", 90, 150, Some(0)), // starts before the parent: clipped to 100..150
            ("b", 140, 160, Some(0)), // overlaps a: adds only 150..160
            ("c", 190, 250, Some(0)), // ends after the parent: clipped to 190..200
            ("d", 300, 400, Some(0)), // outside the parent: ignored
        ]);
        assert_eq!(tracer.self_time_ns(0), 100 - 50 - 10 - 10);
    }

    #[test]
    fn span_records_nesting_and_serializes() {
        let mut tracer = Tracer::new();
        let (outer, inner) =
            tracer.span("outer", None, 7, |t| t.span("inner", Some(0), 7, |_| 41).0);
        assert_eq!((outer, inner), (0, 1));
        let spans = tracer.spans();
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(tracer.durations_ns("inner").len(), 1);
        let json = tracer.to_json();
        assert!(json.starts_with("[\n{\"name\":\"outer\""));
        assert!(json.contains("\"parent\":0,\"request\":7}"));
        assert!(json.ends_with(']'));
    }
}
