//! In-memory spans around the calls into each layer, written out as JSON
//! when the benchmark ends. Recorded from the benchmark's own files — the
//! server is not instrumented by this.

use std::time::Instant;

/// One timed call. Spans of one request share `request`; `parent` indexes
/// the span that caused this one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Collects spans against one clock.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }
}

impl Tracer {
    /// Nanoseconds on this tracer's clock.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records an already-timed span as a child of whichever span is open:
    /// for two layers that one call runs back to back, split at a boundary
    /// measured separately.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let parent = self.open.last().copied();
        self.spans.push(Span {
            request: self.request,
            name,
            start_ns,
            end_ns,
            parent,
        });
    }

    /// Starts the next request; spans opened from here on carry its id.
    pub fn next_request(&mut self) -> u32 {
        self.request += 1;
        self.request
    }

    /// Runs `work` inside a span named `name`, child of whichever span is
    /// open, and returns its result with the span's index.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        work: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, usize) {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request: self.request,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(index);
        let result = work(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        (result, index)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of it its child spans cover.
    pub fn self_ns(&self, index: usize) -> u64 {
        let span = &self.spans[index];
        let children = self.spans.iter().filter(|s| s.parent == Some(index));
        let covered: u64 = children.map(|c| c.end_ns - c.start_ns).sum();
        (span.end_ns - span.start_ns).saturating_sub(covered)
    }

    /// The spans as a JSON array of `{request, name, start_ns, end_ns,
    /// parent}` objects (`parent` is an index into the array, or null).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.request, s.name, s.start_ns, s.end_ns
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn self_time_excludes_children_and_json_parses() {
        let mut tracer = Tracer::default();
        tracer.next_request();
        let (_, root) = tracer.span("request", |t| {
            t.span("parser.parse", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("eval.run", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[1].parent, spans[2].parent, spans[0].parent),
            (Some(root), Some(root), None)
        );
        let total = spans[root].end_ns - spans[root].start_ns;
        let parts = tracer.self_ns(1) + tracer.self_ns(2);
        assert!(parts >= 4_000_000 && tracer.self_ns(root) == total - parts);
        let text = tracer.to_json();
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.as_arr().unwrap().len(), 3);
        assert_eq!(
            doc.as_arr().unwrap()[1].get("parent").unwrap().as_u64(),
            Some(0)
        );
    }
}
