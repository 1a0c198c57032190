//! Request tracing: per-request IDs, phase-timed spans and the slow-query
//! flight recorder behind `GET /debug/slow`.
//!
//! Every request gets an ID — the client's `X-Request-Id` header when it
//! sent a well-formed one, a generated `r<millis>-<seq>` otherwise — echoed
//! back as a response header on both buffered and chunked responses, so one
//! string correlates client logs, server traces and `/debug/slow` entries.
//!
//! A [`Trace`] rides along the request and stamps phase boundaries
//! (`parse → plan → admission → eval → serialize`); at the end it freezes
//! into a [`Span`] carrying the phase durations, the query text, the chosen
//! physical plan and (when per-operator profiling is on) the per-node
//! timings. The [`FlightRecorder`] keeps the N slowest successful spans
//! plus a bounded ring of **every** errored or shed request — a saturated
//! or misbehaving client is always inspectable after the fact, no matter
//! how fast its failures were.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use trial_eval::{NodeProfile, QueryProfile};

/// Longest query text a span stores; longer bodies are truncated (the
/// recorder is a diagnostic ring, not an archive).
const MAX_SPAN_QUERY_BYTES: usize = 512;

static REQUEST_SEQ: AtomicU64 = AtomicU64::new(0);

/// Generates a process-unique request ID (`r<unix-millis-hex>-<seq-hex>`)
/// for requests that did not present an `X-Request-Id` of their own.
pub fn next_request_id() -> String {
    let millis = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let seq = REQUEST_SEQ.fetch_add(1, Ordering::Relaxed);
    format!("r{millis:x}-{seq:x}")
}

/// A finished, immutable request record — what the flight recorder stores
/// and `/debug/slow` renders.
#[derive(Debug, Clone)]
pub struct Span {
    /// The request's correlation ID (client-supplied or generated).
    pub request_id: String,
    /// HTTP method.
    pub method: String,
    /// Request path (no query string).
    pub path: String,
    /// Target store, once resolved.
    pub store: Option<String>,
    /// The query text (truncated to a diagnostic-sized prefix).
    pub query: Option<String>,
    /// Final HTTP status.
    pub status: u16,
    /// Structured error kind for non-2xx outcomes (`saturated`,
    /// `bad_cursor`, `stale_cursor`, `parse`, …).
    pub error_kind: Option<String>,
    /// `true` when the response was served from a cache.
    pub cached: bool,
    /// `true` for chunked streaming responses.
    pub streamed: bool,
    /// End-to-end wall time in microseconds.
    pub total_us: u64,
    /// `(phase, microseconds)` in the order the phases completed.
    pub phases: Vec<(&'static str, u64)>,
    /// The physical plan (`explain()` rendering) of a fresh evaluation.
    pub plan: Option<String>,
    /// Per-operator timings in plan preorder, when profiling was on.
    pub nodes: Vec<NodeProfile>,
    /// The sampling stride the node timings were measured under (1 = exact,
    /// 0 = profiling was off).
    pub profile_stride: u32,
}

/// The live, mutable trace a request carries through its handler.
#[derive(Debug)]
pub struct Trace {
    start: Instant,
    request_id: String,
    method: String,
    path: String,
    store: Option<String>,
    query: Option<String>,
    cached: bool,
    streamed: bool,
    phases: Vec<(&'static str, u64)>,
    plan: Option<String>,
    /// Snapshotted at [`Trace::finish`] — cursor wrappers flush their local
    /// measurements when they exhaust or drop, so the snapshot must happen
    /// after the stream is done, which finish-time is by construction.
    profile: Option<QueryProfile>,
    /// Per-node timings recorded directly (the analyze path, which has a
    /// finished snapshot in hand).
    nodes: Vec<NodeProfile>,
    profile_stride: u32,
}

impl Trace {
    /// Starts a trace.
    pub(crate) fn begin(request_id: String, method: &str, path: &str) -> Trace {
        Trace {
            start: Instant::now(),
            request_id,
            method: method.to_owned(),
            path: path.to_owned(),
            store: None,
            query: None,
            cached: false,
            streamed: false,
            phases: Vec::new(),
            plan: None,
            profile: None,
            nodes: Vec::new(),
            profile_stride: 0,
        }
    }

    /// The request's correlation ID, echoed on every response.
    pub(crate) fn request_id(&self) -> &str {
        &self.request_id
    }

    /// Records a phase that started at `since`.
    pub(crate) fn phase(&mut self, name: &'static str, since: Instant) {
        self.phases.push((name, since.elapsed().as_micros() as u64));
    }

    pub(crate) fn set_store(&mut self, store: &str) {
        self.store = Some(store.to_owned());
    }

    pub(crate) fn set_query(&mut self, text: &str) {
        let mut end = text.len().min(MAX_SPAN_QUERY_BYTES);
        while !text.is_char_boundary(end) {
            end -= 1;
        }
        self.query = Some(text[..end].to_owned());
    }

    pub(crate) fn set_cached(&mut self) {
        self.cached = true;
    }

    pub(crate) fn set_streamed(&mut self) {
        self.streamed = true;
    }

    /// Records the chosen physical plan.
    pub(crate) fn set_plan(&mut self, render: impl FnOnce() -> String) {
        self.plan = Some(render());
    }

    /// Attaches a streaming query's profile handle; node timings are
    /// snapshotted at [`Trace::finish`], after the stream has flushed.
    pub(crate) fn set_profile(&mut self, profile: Option<QueryProfile>) {
        self.profile = profile;
    }

    /// Records already-snapshotted node timings (the `?analyze=1` path).
    pub(crate) fn set_nodes(&mut self, nodes: Vec<NodeProfile>, stride: u32) {
        self.nodes = nodes;
        self.profile_stride = stride;
    }

    /// Freezes the trace into a [`Span`].
    pub(crate) fn finish(mut self, status: u16, error_kind: Option<String>) -> Span {
        if let Some(profile) = self.profile.take() {
            self.nodes = profile.snapshot();
            self.profile_stride = profile.stride();
        }
        Span {
            request_id: self.request_id,
            method: self.method,
            path: self.path,
            store: self.store,
            query: self.query,
            status,
            error_kind,
            cached: self.cached,
            streamed: self.streamed,
            total_us: self.start.elapsed().as_micros() as u64,
            phases: self.phases,
            plan: self.plan,
            nodes: self.nodes,
            profile_stride: self.profile_stride,
        }
    }
}

/// Bounded post-hoc diagnostics: the N slowest successful requests (evicting
/// the fastest) plus a ring of the last N errored or shed requests. Errors
/// are kept unconditionally — a `429` or `410 stale_cursor` is typically
/// *fast*, and a slowest-only recorder would never retain one.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: usize,
    /// Successful spans, kept sorted by `total_us` descending.
    slow: Mutex<Vec<Arc<Span>>>,
    /// Most recent errored/shed spans, oldest first.
    errors: Mutex<VecDeque<Arc<Span>>>,
}

impl FlightRecorder {
    /// A recorder keeping up to `slots` slow spans and `slots` error spans.
    /// `slots = 0` disables recording.
    pub(crate) fn new(slots: usize) -> FlightRecorder {
        FlightRecorder {
            slots,
            slow: Mutex::new(Vec::new()),
            errors: Mutex::new(VecDeque::new()),
        }
    }

    /// Files a finished span.
    pub(crate) fn record(&self, span: Span) {
        if self.slots == 0 {
            return;
        }
        let span = Arc::new(span);
        if span.status >= 400 {
            let mut errors = self
                .errors
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if errors.len() == self.slots {
                errors.pop_front();
            }
            errors.push_back(span);
        } else {
            let mut slow = self
                .slow
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if slow.len() == self.slots && slow.last().is_some_and(|s| s.total_us >= span.total_us)
            {
                return; // faster than everything retained
            }
            let at = slow.partition_point(|s| s.total_us >= span.total_us);
            slow.insert(at, span);
            slow.truncate(self.slots);
        }
    }

    /// The retained successful spans, slowest first.
    pub(crate) fn slow(&self) -> Vec<Arc<Span>> {
        self.slow
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// The retained errored/shed spans, most recent first.
    pub(crate) fn errors(&self) -> Vec<Arc<Span>> {
        self.errors
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .rev()
            .cloned()
            .collect()
    }

    /// Flushes the recorder: takes every retained span (slowest successes
    /// first, then errors most recent first) and leaves it empty. A draining
    /// server flushes so the final diagnostics survive the process —
    /// `trial-serve` prints them on SIGTERM before exiting.
    pub fn flush(&self) -> Vec<Arc<Span>> {
        let mut out: Vec<Arc<Span>> = std::mem::take(
            &mut *self
                .slow
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        let errors = std::mem::take(
            &mut *self
                .errors
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        out.extend(errors.into_iter().rev());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(status: u16, total_us: u64) -> Span {
        let mut span = Trace::begin(next_request_id(), "POST", "/query").finish(status, None);
        span.total_us = total_us;
        span
    }

    #[test]
    fn request_ids_are_unique() {
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, b);
    }

    #[test]
    fn recorder_keeps_slowest_and_all_errors() {
        let rec = FlightRecorder::new(2);
        rec.record(span(200, 10));
        rec.record(span(200, 30));
        rec.record(span(200, 20));
        rec.record(span(200, 5)); // fastest: dropped
        let slow: Vec<u64> = rec.slow().iter().map(|s| s.total_us).collect();
        assert_eq!(slow, vec![30, 20]);

        rec.record(span(429, 1));
        rec.record(span(400, 2));
        rec.record(span(410, 3));
        let errors: Vec<u16> = rec.errors().iter().map(|s| s.status).collect();
        assert_eq!(errors, vec![410, 400], "ring keeps the most recent");
    }

    #[test]
    fn zero_slots_disables_recording() {
        let rec = FlightRecorder::new(0);
        rec.record(span(200, 10));
        rec.record(span(500, 10));
        assert!(rec.slow().is_empty());
        assert!(rec.errors().is_empty());
    }
}
