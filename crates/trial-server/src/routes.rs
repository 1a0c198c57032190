//! Request routing and the endpoint handlers.
//!
//! | Endpoint        | Method | Body        | Purpose                                  |
//! |-----------------|--------|-------------|------------------------------------------|
//! | `/query`        | POST   | TriAL text  | evaluate a query, JSON triples + stats   |
//! | `/path`         | POST   | path expr   | evaluate a regular path query            |
//! | `/explain`      | POST   | TriAL text  | render the physical plan, don't execute  |
//! | `/load`         | POST   | N-Triples   | (re)build a named store copy-on-write    |
//! | `/stores`       | GET    | —           | per-store name/epoch/size statistics     |
//! | `/healthz`      | GET    | —           | liveness + service & cache counters      |
//! | `/metrics`      | GET    | —           | Prometheus text exposition of all metrics|
//! | `/debug/slow`   | GET    | —           | slow-query flight recorder (span trees)  |
//!
//! Request options ride in the query string (`?store=`, `?relation=`,
//! `?limit=`, `?threads=`, `?analyze=`, `?order=`, `?topk=`); bodies are
//! plain text. Responses are always JSON; errors are structured as
//! `{"error":{"kind":...,"message":...,"offset":...}}` with the byte offset
//! present for parse errors.
//!
//! **Parallelism**: `?threads=` overrides the server's configured
//! evaluation degree (`trial-serve --eval-threads`) per request, clamped to
//! `[1, MAX_EVAL_THREADS]`; the effective degree is reported as `threads`
//! on `/explain` and (as the configured default) on `/healthz`, whose
//! `eval` section also counts how many fresh `/query` evaluations actually
//! executed parallel morsels vs. stayed sequential. `/explain?analyze=1`
//! additionally **runs** the (bounded) query and reports each plan node's
//! actual output rows next to the planner's `est` in the structured `tree`,
//! which exposes estimates bad enough to mislead morsel sizing. An analyze
//! run always executes: it neither reads nor fills the result cache.
//!
//! `/query` executes through the **streaming cursor pipeline**: `?limit=` is
//! compiled into the physical plan as a `Limit` node, so bounded queries
//! terminate the moment the limit is satisfied instead of truncating a fully
//! evaluated result, and rows are rendered into the JSON body as they are
//! pulled — the full result set is never buffered. Consequently `count` is
//! the number of rows **in the response**; `truncated: true` signals that
//! the limit stopped evaluation early (more rows exist). The count-only path
//! (`?limit=0`) drains a counting cursor — no rendered rows; order-preserving
//! plans count allocation-free, unordered plans (joins) track seen triples
//! (12 bytes each, never name strings or JSON) — and reports
//! the exact cardinality. `/explain` accepts the same `?limit=` and returns
//! both the rendered plan and a structured `tree` with per-node estimated
//! cardinality and `pipelined` flags, making pushdown decisions observable.
//!
//! **Ordered responses**: `?order=spo|pos|osp` streams the rows in that
//! permutation's key order — served from the matching index permutation
//! (and merge unions of such) whenever the plan can deliver it, an explicit
//! `[sort]` breaker otherwise — so the response row sequence is
//! deterministic. `?topk=k` returns the `k` smallest distinct triples under
//! the order (default `spo`) through a bounded heap that never buffers more
//! than `k` rows; over an already-ordered plan it collapses to a plain
//! early-terminating limit. Both knobs apply to `/explain` too (the plan
//! shows the chosen scan permutations and `[merge]`/`[sort]`/`[topk]`
//! tags), are echoed in the result, and are part of the cache key; epoch
//! bumps invalidate ordered entries like any other.
//!
//! **Caching**: a buffered answer is a deterministic row sequence cut at
//! `?limit=`, so one cached entry of `k` rendered rows answers every
//! `?limit=L` with `L ≤ k` by slicing. Fresh and cached answers render
//! through one function; a hit differs only in `cached`, `elapsed_us` and
//! the stats of the evaluation that filled the entry.
//!
//! **Path queries**: `POST /path` takes a regular path expression (atoms,
//! `/` concatenation, `|` alternation, `*`, `+`, `?`) over one relation
//! (`?relation=`, default `E`) and returns the reachable pairs encoded as
//! `(x, x, y)` triples. Every path runs as an automaton product walk
//! (`?max_hops=` bounds its length in edges), and `/explain?path=1` renders
//! its `PathNfa` plan. Every `/query` knob (limit, threads, order, topk,
//! streaming, cursors, timeouts, caching) applies unchanged. The TriAL
//! lowering of a path (`trial_eval::rpq::lower`) is an ordinary
//! expression: POST its text to `/query` to run it.

use crate::admission::AdmissionPermit;
use crate::cache::{CacheKey, Entry, QueryKind};
use crate::chaos::Chaos;
use crate::http::{self, ChunkedWriter, Request, Response};
use crate::json::{self, JsonObject};
use crate::registry::StoreSnapshot;
use crate::server::ServerState;
use crate::token::CursorToken;
use crate::trace::{self, Span, Trace};
use std::io::{self, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trial_core::{
    Error, Expr, ObjectId, Permutation, Triple, Triplestore, TriplestoreBuilder, Value,
};
use trial_eval::{CancelToken, EvalStats, NodeProfile, QueryStream, SmartEngine};
use trial_parser::PathExpr;
use trial_rdf::{parse_ntriples_iter, Term};

/// Default cap on the number of triples included in a `/query` response
/// body; override per request with `?limit=`. The limit is pushed into the
/// physical plan, so evaluation itself stops once the cap is reached
/// (`truncated: true` marks a response whose evaluation was cut short; use
/// `?limit=0` for an exact count).
pub const DEFAULT_RESULT_LIMIT: usize = 10_000;

/// Hard ceiling on `?limit=`: the limit bounds how many rows one response
/// renders, evaluates and buffers, so an unbounded client-chosen limit
/// would let one well-formed request pin unbounded memory. (It is not part
/// of the cache key: one entry serves every limit up to its depth.)
/// Requests above the ceiling are clamped (observable via `truncated`).
pub const MAX_RESULT_LIMIT: usize = 100_000;

/// Answers whose rendered body is larger than this are served but not
/// cached — the LRU counts entries, not bytes, so giant renderings must
/// not occupy slots.
const MAX_CACHED_FRAGMENT_BYTES: usize = 1 << 20;

/// Hard ceiling on the per-request `?threads=` knob (and on `--eval-threads`
/// via clamping in the binary): every evaluation thread is a real OS thread
/// on a worker already owned by the connection, so an unbounded
/// client-chosen degree would let one request fork the box. With the cap,
/// transient evaluation threads are bounded by `workers × MAX_EVAL_THREADS`
/// (morsel workers are scoped per operator and joined before the response
/// renders). Requests above the ceiling are clamped, observable via the
/// `threads` field of `/explain` and `/healthz`; degrees above the host's
/// core count oversubscribe without changing results.
pub const MAX_EVAL_THREADS: usize = 16;

/// Per-lane depth (in [`trial_eval::Exchange`] batches) of the streaming
/// exchange: enough buffering to overlap evaluation with socket writes,
/// small enough that a slow client backpressures producers instead of
/// accumulating the result in channel memory.
const EXCHANGE_DEPTH_BATCHES: usize = 4;

/// How a request is answered. Almost everything is a fully-buffered
/// [`Response`] written with `Content-Length`; `/query?stream=1` (or
/// `?cursor=`) validates everything it can up front and returns a
/// [`StreamingQuery`] job that the connection worker then drives against
/// the socket with chunked transfer encoding.
#[allow(clippy::large_enum_variant)] // Response dominates; Stream is boxed
pub(crate) enum Routed {
    /// A buffered response.
    Buffered(Response),
    /// A validated streaming query, ready to run against the socket.
    Stream(Box<StreamingQuery>),
}

/// Dispatches a request to its handler.
///
/// Every request gets a trace here: its ID (client-supplied `X-Request-Id`
/// or generated) is echoed on the response, and the finished span feeds the
/// per-endpoint metrics and the flight recorder. Buffered responses
/// finalize before returning; streaming jobs carry their trace and
/// finalize when the chunked response completes.
pub(crate) fn route(state: &ServerState, req: &Request) -> Routed {
    let request_id = req
        .request_id
        .clone()
        .unwrap_or_else(trace::next_request_id);
    let mut trace = Trace::begin(request_id, &req.method, &req.path);
    // Fault-injection checkpoint: a `route=panic` chaos rule unwinds here,
    // inside the connection worker's catch_unwind, exercising the 500 path.
    state.chaos.trigger("route");
    // A draining server refuses new work with a complete structured 503
    // (observability endpoints keep answering — useful while watching a
    // drain); requests already past this gate run to completion or get
    // cancelled with reason `shutdown` when the grace window expires.
    if state.draining.load(Ordering::SeqCst)
        && matches!(req.path.as_str(), "/query" | "/path" | "/explain" | "/load")
    {
        let response = error_response(
            503,
            "shutdown",
            "server is draining; no new work is accepted",
            None,
        );
        let endpoint = endpoint_label(&req.path);
        return Routed::Buffered(finalize(state, trace, response, endpoint));
    }
    if req.method == "POST" && matches!(req.path.as_str(), "/query" | "/path") && wants_stream(req)
    {
        let kind = if req.path == "/path" {
            QueryKind::Path
        } else {
            QueryKind::Query
        };
        let endpoint = endpoint_label(&req.path);
        trace.set_streamed();
        return match streaming_query(state, req, kind, &mut trace) {
            Ok(mut job) => {
                job.trace = Some(trace);
                Routed::Stream(Box::new(job))
            }
            Err(response) => Routed::Buffered(finalize(state, trace, *response, endpoint)),
        };
    }
    let endpoint = endpoint_label(&req.path);
    let response = route_buffered(state, req, &mut trace);
    Routed::Buffered(finalize(state, trace, response, endpoint))
}

/// The bounded `endpoint` label value for a request path.
fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/query" => "query",
        "/path" => "path",
        "/explain" => "explain",
        "/load" => "load",
        "/stores" => "stores",
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        "/debug/slow" => "debug_slow",
        _ => "other",
    }
}

/// Extracts the structured error kind from an [`error_body`] rendering.
/// The kind is always the first field, so a prefix match suffices (kinds
/// are a fixed vocabulary without escapes).
fn error_kind_of(body: &str) -> Option<String> {
    let rest = body.strip_prefix("{\"error\":{\"kind\":\"")?;
    Some(rest[..rest.find('"')?].to_owned())
}

/// Completes a buffered request: echoes the request ID, counts sheds and
/// structured errors, records the per-endpoint latency sample and files the
/// span with the flight recorder (every errored/shed request is retained;
/// successes compete for the slowest slots).
fn finalize(
    state: &ServerState,
    trace: Trace,
    mut response: Response,
    endpoint: &'static str,
) -> Response {
    if response.status == 429 {
        state.metrics.queries_shed.inc();
    }
    let kind = (response.status >= 400)
        .then(|| error_kind_of(&response.body))
        .flatten();
    if let Some(kind) = &kind {
        state.metrics.observe_error(kind);
    }
    response.request_id = Some(trace.request_id().to_owned());
    let span = trace.finish(response.status, kind);
    state
        .metrics
        .observe_request(endpoint, span.status, span.total_us);
    for (phase, us) in &span.phases {
        state.metrics.observe_phase(phase, *us);
    }
    state.recorder.record(span);
    response
}

/// `?stream=1` opts into chunked streaming; presenting a pagination cursor
/// implies it (resumed pages are always streamed).
fn wants_stream(req: &Request) -> bool {
    matches!(req.param("stream"), Some("1" | "true" | "yes")) || req.param("cursor").is_some()
}

/// Dispatches a request to its buffered handler.
fn route_buffered(state: &ServerState, req: &Request, trace: &mut Trace) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/stores") => stores(state),
        ("GET", "/metrics") => metrics_text(state),
        ("GET", "/debug/slow") => debug_slow(state),
        ("POST", "/query") => query(state, req, QueryKind::Query, trace),
        ("POST", "/path") => query(state, req, QueryKind::Path, trace),
        // `?path=1` switches /explain to the path-expression grammar — the
        // plan rendered is exactly what the equivalent POST /path would run.
        ("POST", "/explain") => {
            let kind = if matches!(req.param("path"), Some("1" | "true" | "yes")) {
                QueryKind::PathExplain
            } else {
                QueryKind::Explain
            };
            query(state, req, kind, trace)
        }
        ("POST", "/load") => load(state, req),
        (
            _,
            "/healthz" | "/stores" | "/metrics" | "/debug/slow" | "/query" | "/path" | "/explain"
            | "/load",
        ) => error_response(
            405,
            "method_not_allowed",
            &format!("`{}` does not accept {}", req.path, req.method),
            None,
        ),
        _ => error_response(
            404,
            "not_found",
            &format!(
                "no route for `{}`; endpoints: /query /path /explain /load /stores /healthz /metrics /debug/slow",
                req.path
            ),
            None,
        ),
    }
}

/// Renders the structured JSON error body shared by all failure paths.
pub(crate) fn error_body(kind: &str, message: &str, offset: Option<usize>) -> String {
    let mut err = JsonObject::new().str("kind", kind).str("message", message);
    if let Some(offset) = offset {
        err = err.num("offset", offset as u64);
    }
    JsonObject::new().raw("error", &err.finish()).finish()
}

fn error_response(status: u16, kind: &str, message: &str, offset: Option<usize>) -> Response {
    Response::new(status, error_body(kind, message, offset))
}

/// Maps evaluation-time [`Error`]s onto HTTP statuses and error kinds.
///
/// Cancellation carries its reason slug as the kind: a query that hit its
/// deadline is a `408 deadline_exceeded`; one cancelled by a draining
/// server (or a vanished client) is a `503`. Cancelled evaluations also
/// count on the `trial_queries_{timeout,cancelled}_total` metrics here —
/// this is the one funnel every cancelled buffered evaluation exits
/// through, and refusals that never ran anything (the draining 503) don't
/// pass this way, so the counters measure cancelled *work*, not shed load.
fn eval_error_response(state: &ServerState, error: &Error) -> Response {
    let (status, kind) = match error {
        Error::Parse { .. } => (400, "parse"),
        Error::UnknownRelation(_) => (400, "unknown_relation"),
        Error::UnknownObject(_) => (400, "unknown_object"),
        Error::LimitExceeded(_) => (422, "limit_exceeded"),
        Error::Unsupported(_) => (422, "unsupported"),
        Error::InvalidExpression(_) | Error::SelectionUsesRightPosition { .. } => {
            (400, "invalid_expression")
        }
        Error::Cancelled(reason) => {
            state.metrics.observe_cancel(reason);
            let status = if reason == "deadline_exceeded" {
                408
            } else {
                503
            };
            (status, reason.as_str())
        }
    };
    error_response(status, kind, &error.to_string(), error.parse_offset())
}

/// `/healthz` reads every counter from the same sources `/metrics` renders
/// — the service counters are the registry's own [`trial_obs::Counter`]s
/// and the cache/admission numbers are the structs the registry's
/// fn-backed series read at scrape time — so the two surfaces cannot
/// disagree about any shared value.
fn healthz(state: &ServerState) -> Response {
    let cache = JsonObject::new()
        .num("hits", state.cache.hits())
        .num("misses", state.cache.misses())
        .num("entries", state.cache.len() as u64)
        .num("capacity", state.cache.capacity() as u64)
        .finish();
    // Admission control: per-store evaluation permits, live occupancy and
    // the shed counter — the observable face of saturation behaviour.
    let (in_flight, waiting) = state.admission.live();
    let admission = JsonObject::new()
        .num("permits", state.admission.permits() as u64)
        .num("max_waiters", state.admission.max_waiters() as u64)
        .num("in_flight", in_flight)
        .num("waiting", waiting)
        .num("admitted", state.admission.admitted())
        .num("rejected", state.admission.rejected())
        .finish();
    // Evaluation-thread configuration plus per-query execution-shape
    // counters: a fresh /query evaluation counts as `queries_parallel` when
    // its execution actually ran parallel morsels, `queries_sequential`
    // otherwise (cache hits run nothing and count as neither).
    let eval = JsonObject::new()
        .num(
            "threads",
            state.eval.threads.clamp(1, MAX_EVAL_THREADS) as u64,
        )
        .num("max_threads", MAX_EVAL_THREADS as u64)
        .num("queries_parallel", state.metrics.queries_parallel.get())
        .num("queries_sequential", state.metrics.queries_sequential.get())
        .num("queries_streamed", state.metrics.queries_streamed.get())
        .finish();
    let body = JsonObject::new()
        .str("status", "ok")
        .num("uptime_ms", state.started.elapsed().as_millis() as u64)
        .num("stores", state.registry.len() as u64)
        .num("queries_served", state.metrics.queries_served.get())
        .num("loads_completed", state.metrics.loads_completed.get())
        .raw("eval", &eval)
        .raw("cache", &cache)
        .raw("admission", &admission)
        .finish();
    Response::ok(body)
}

/// `GET /metrics`: the whole registry in Prometheus text exposition format.
fn metrics_text(state: &ServerState) -> Response {
    Response::with_content_type(state.metrics.render(), "text/plain; version=0.0.4")
}

/// `GET /debug/slow`: the flight recorder's retained spans — the N slowest
/// successful requests plus every recent errored/shed request — each with
/// its phase breakdown, plan and (when profiling sampled it) per-operator
/// timings.
fn debug_slow(state: &ServerState) -> Response {
    let slow: Vec<String> = state.recorder.slow().iter().map(|s| span_json(s)).collect();
    let errors: Vec<String> = state
        .recorder
        .errors()
        .iter()
        .map(|s| span_json(s))
        .collect();
    Response::ok(
        JsonObject::new()
            .num("profile_sample", state.eval.profile_sample as u64)
            .raw("slow", &json::array(slow))
            .raw("errors", &json::array(errors))
            .finish(),
    )
}

/// Renders one recorded request span for `/debug/slow`.
fn span_json(span: &Span) -> String {
    let mut phases = JsonObject::new();
    for (name, us) in &span.phases {
        phases = phases.num(&format!("{name}_us"), *us);
    }
    let mut obj = JsonObject::new()
        .str("request_id", &span.request_id)
        .str("method", &span.method)
        .str("path", &span.path)
        .num("status", span.status as u64)
        .num("total_us", span.total_us)
        .boolean("cached", span.cached)
        .boolean("streamed", span.streamed);
    obj = match &span.store {
        Some(store) => obj.str("store", store),
        None => obj.raw("store", "null"),
    };
    obj = match &span.query {
        Some(query) => obj.str("query", query),
        None => obj.raw("query", "null"),
    };
    obj = match &span.error_kind {
        Some(kind) => obj.str("error", kind),
        None => obj.raw("error", "null"),
    };
    obj = obj.raw("phases", &phases.finish());
    obj = match &span.plan {
        Some(plan) => obj.str("plan", plan),
        None => obj.raw("plan", "null"),
    };
    if span.profile_stride > 0 {
        let nodes: Vec<String> = span.nodes.iter().map(node_profile_json).collect();
        obj = obj
            .num("profile_stride", span.profile_stride as u64)
            .raw("nodes", &json::array(nodes));
    }
    obj.finish()
}

/// Renders one per-operator profile (preorder-indexed like the `/explain`
/// tree).
fn node_profile_json(profile: &NodeProfile) -> String {
    let mut obj = JsonObject::new().num("elapsed_us", profile.elapsed_us);
    obj = match profile.rows {
        Some(rows) => obj.num("rows", rows),
        None => obj.raw("rows", "null"),
    };
    if let Some(build_us) = profile.build_us {
        obj = obj.num("build_us", build_us);
    }
    obj.finish()
}

fn stores(state: &ServerState) -> Response {
    let entries: Vec<String> = state
        .registry
        .list()
        .iter()
        .map(|snapshot| {
            let store = snapshot.store();
            let relations: Vec<String> = store
                .relations()
                .map(|r| {
                    JsonObject::new()
                        .str("name", r.name())
                        .num("triples", r.len() as u64)
                        .finish()
                })
                .collect();
            JsonObject::new()
                .str("name", snapshot.name())
                .num("epoch", snapshot.epoch())
                .num("triples", store.triple_count() as u64)
                .num("objects", store.object_count() as u64)
                .raw("relations", &json::array(relations))
                .finish()
        })
        .collect();
    Response::ok(
        JsonObject::new()
            .raw("stores", &json::array(entries))
            .finish(),
    )
}

/// Resolves the target store: `?store=` if given, otherwise the single
/// registered store, otherwise a structured error.
fn resolve_store(state: &ServerState, req: &Request) -> Result<Arc<StoreSnapshot>, Box<Response>> {
    match req.param("store") {
        Some(name) => state.registry.snapshot(name).ok_or_else(|| {
            Box::new(error_response(
                404,
                "unknown_store",
                &format!("no store named `{name}` is loaded"),
                None,
            ))
        }),
        None => state.registry.single().ok_or_else(|| {
            let message = if state.registry.is_empty() {
                "no stores are loaded; POST an N-Triples document to /load?store=<name> first"
                    .to_owned()
            } else {
                let names: Vec<String> = state
                    .registry
                    .list()
                    .iter()
                    .map(|s| s.name().to_owned())
                    .collect();
                format!(
                    "multiple stores are loaded ({}); pick one with ?store=",
                    names.join(", ")
                )
            };
            Box::new(error_response(400, "no_store_selected", &message, None))
        }),
    }
}

/// The parsed request knobs shared by the buffered and streaming `/query`
/// paths (and `/explain`).
struct QueryParams {
    /// The explicit `?limit=` (clamped), if any.
    requested_limit: Option<usize>,
    /// The effective response cap (`DEFAULT_RESULT_LIMIT` when unset).
    limit: usize,
    /// The effective evaluation parallelism.
    threads: usize,
    /// `true` for `/explain?analyze=1`.
    analyze: bool,
    /// The `?order=` permutation, if any.
    order: Option<Permutation>,
    /// The `?topk=` bound, if any.
    topk: Option<usize>,
    /// The effective evaluation deadline: a positive `?timeout_ms=`, else
    /// the server default; `?timeout_ms=0` is the explicit opt-out.
    timeout: Option<Duration>,
}

/// Parses and validates the query-string knobs shared by every query path.
fn parse_query_params(
    state: &ServerState,
    req: &Request,
    kind: QueryKind,
) -> Result<QueryParams, Box<Response>> {
    let bad = |message: String| Box::new(error_response(400, "bad_request", &message, None));
    let requested_limit = match req.param("limit") {
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => Some(n.min(MAX_RESULT_LIMIT)),
            Err(_) => return Err(bad(format!("unparsable ?limit= value `{raw}`"))),
        },
        None => None,
    };
    // Per-request parallelism override: `?threads=` is clamped to
    // [1, MAX_EVAL_THREADS]; without it the server's configured degree
    // (`--eval-threads`) applies.
    let threads = match req.param("threads") {
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n.clamp(1, MAX_EVAL_THREADS),
            Err(_) => return Err(bad(format!("unparsable ?threads= value `{raw}`"))),
        },
        None => state.eval.threads.clamp(1, MAX_EVAL_THREADS),
    };
    // `/explain?analyze=1` executes the (bounded) query and reports actual
    // per-node row counts next to the estimates.
    let analyze = matches!(kind, QueryKind::Explain | QueryKind::PathExplain)
        && matches!(req.param("analyze"), Some("1" | "true" | "yes"));
    // `?order=spo|pos|osp` asks for rows in that permutation's key order
    // (delivered from the matching index permutation when possible, an
    // explicit sort breaker otherwise); `?topk=k` asks for the k smallest
    // distinct triples under that order (default spo) via a bounded heap —
    // or a plain early-terminating limit when the plan already streams
    // ordered. Both are part of the cache key.
    let order = match req.param("order") {
        Some(raw) => match Permutation::parse(raw) {
            Some(p) => Some(p),
            None => {
                // The 400 body enumerates the accepted values machine-readably
                // (kind stays the first field — error_kind_of prefix-matches).
                let err = JsonObject::new()
                    .str("kind", "bad_request")
                    .str(
                        "message",
                        &format!("unparsable ?order= value `{raw}` (expected spo, pos or osp)"),
                    )
                    .raw("accepted", &json::string_array(["spo", "pos", "osp"]));
                return Err(Box::new(Response::new(
                    400,
                    JsonObject::new().raw("error", &err.finish()).finish(),
                )));
            }
        },
        None => None,
    };
    let topk = match req.param("topk") {
        Some(raw) => match raw.parse::<usize>() {
            Ok(k) => Some(k.min(MAX_RESULT_LIMIT)),
            Err(_) => return Err(bad(format!("unparsable ?topk= value `{raw}`"))),
        },
        None => None,
    };
    // `?timeout_ms=` arms a per-request evaluation deadline (admission wait
    // counts against it); without it the server default applies, and an
    // explicit `0` opts this request out of any deadline.
    let timeout = match req.param("timeout_ms") {
        Some(raw) => match raw.parse::<u64>() {
            Ok(0) => None,
            Ok(ms) => Some(Duration::from_millis(ms)),
            Err(_) => return Err(bad(format!("unparsable ?timeout_ms= value `{raw}`"))),
        },
        None => state.default_timeout,
    };
    Ok(QueryParams {
        requested_limit,
        limit: requested_limit.unwrap_or(DEFAULT_RESULT_LIMIT),
        threads,
        analyze,
        order,
        topk,
        timeout,
    })
}

/// The trimmed plain-text query body, or a structured 400.
fn query_text(req: &Request) -> Result<&str, Box<Response>> {
    let Some(text) = req.body_utf8() else {
        return Err(Box::new(error_response(
            400,
            "bad_request",
            "query body is not valid UTF-8",
            None,
        )));
    };
    let text = text.trim();
    if text.is_empty() {
        return Err(Box::new(error_response(
            400,
            "bad_request",
            "empty query body; POST the TriAL expression as plain text",
            None,
        )));
    }
    Ok(text)
}

/// The path-specific request knobs: `?relation=` names the edge relation
/// the expression walks (default `E`) and `?max_hops=` bounds the walk
/// length in graph edges.
struct PathParams {
    relation: String,
    max_hops: Option<usize>,
}

/// Parses and validates the `/path`-only query-string knobs.
fn parse_path_params(req: &Request) -> Result<PathParams, Box<Response>> {
    let bad = |message: String| Box::new(error_response(400, "bad_request", &message, None));
    let relation = req.param("relation").unwrap_or("E").to_owned();
    let max_hops = match req.param("max_hops") {
        Some(raw) => match raw.parse::<usize>() {
            Ok(h) => Some(h),
            Err(_) => return Err(bad(format!("unparsable ?max_hops= value `{raw}`"))),
        },
        None => None,
    };
    Ok(PathParams { relation, max_hops })
}

/// The cache-key text of a request. The kinds already separate the
/// grammar namespaces; within them, the knobs that change the answer but
/// have no [`CacheKey`] field ride in front of the query text: an explain's
/// plan limit (its plan shows the pushed `Limit`) and the path knobs (the
/// JSON-quoted relation cannot collide with the space-delimited fields
/// after it).
fn key_text(kind: QueryKind, pp: Option<&PathParams>, limit: Option<usize>, text: &str) -> String {
    let opt = |n: Option<usize>| n.map_or_else(|| "-".to_owned(), |n| n.to_string());
    let mut key = match kind {
        QueryKind::Explain | QueryKind::PathExplain => format!("{} ", opt(limit)),
        QueryKind::Query | QueryKind::Path => String::new(),
    };
    if let Some(pp) = pp {
        key += &format!("{} {} ", json::string(&pp.relation), opt(pp.max_hops));
    }
    key + text
}

/// A compiled request body, ready to plan: ordinary TriAL algebra, or a
/// path expression kept whole for the automaton product walk.
enum Compiled {
    Trial(Expr),
    Path {
        path: PathExpr,
        relation: String,
        max_hops: Option<usize>,
    },
}

impl Compiled {
    /// Canonical rendering for the explain `query` field.
    fn display(&self) -> String {
        match self {
            Compiled::Trial(expr) => expr.to_string(),
            Compiled::Path { path, .. } => path.to_string(),
        }
    }

    fn plan(
        &self,
        engine: &SmartEngine,
        store: &Triplestore,
        limit: Option<usize>,
        order: Option<Permutation>,
        topk: Option<usize>,
    ) -> trial_core::Result<trial_eval::Plan> {
        match self {
            Compiled::Trial(expr) => engine.plan_query(expr, store, limit, order, topk),
            Compiled::Path {
                path,
                relation,
                max_hops,
            } => engine.plan_path_query(path, relation, store, *max_hops, limit, order, topk),
        }
    }

    /// Plans the request and opens its cursor tree — from the first row, or
    /// strictly after `resume`'s key in its order — recording the plan
    /// phase, the chosen plan and the profiler handle on `trace`.
    #[allow(clippy::too_many_arguments)] // the planning knobs of every delivery shape
    fn open<'s>(
        &self,
        engine: &SmartEngine,
        store: &'s Triplestore,
        limit: Option<usize>,
        order: Option<Permutation>,
        topk: Option<usize>,
        resume: Option<(Permutation, [ObjectId; 3])>,
        trace: &mut Trace,
    ) -> trial_core::Result<QueryStream<'s>> {
        let plan_started = Instant::now();
        let plan = self.plan(engine, store, limit, order, topk)?;
        let stream = match resume {
            Some((order, after)) => engine.stream_after(plan, store, order, after)?,
            None => engine.stream(plan, store)?,
        };
        trace.phase("plan", plan_started);
        trace.set_plan(|| stream.plan().explain().trim_end().to_owned());
        trace.set_profile(stream.profile());
        Ok(stream)
    }
}

/// Parses the request body under the endpoint's grammar: a path for
/// `/path` requests, TriAL otherwise.
fn compile_body(text: &str, path_params: Option<&PathParams>) -> trial_core::Result<Compiled> {
    Ok(match path_params {
        Some(pp) => Compiled::Path {
            path: trial_parser::parse_path(text)?,
            relation: pp.relation.clone(),
            max_hops: pp.max_hops,
        },
        None => Compiled::Trial(trial_parser::parse(text)?),
    })
}

/// The shared head of an explain fragment: the canonical query text plus,
/// for path explains, the path knobs.
fn explain_head(compiled: &Compiled) -> JsonObject {
    let mut obj = JsonObject::new().str("query", &compiled.display());
    if let Compiled::Path {
        relation, max_hops, ..
    } = compiled
    {
        obj = obj.str("relation", relation);
        if let Some(h) = max_hops {
            obj = obj.num("max_hops", *h as u64);
        }
    }
    obj
}

/// The structured `429 Too Many Requests` an admission rejection turns
/// into: a complete, parseable body plus a `Retry-After` hint — saturated
/// stores shed load visibly instead of hanging sockets.
fn rejected_response(store: &str, retry_after: u64) -> Response {
    let mut response = error_response(
        429,
        "saturated",
        &format!(
            "store `{store}` is at its concurrent-evaluation limit; retry after {retry_after}s"
        ),
        None,
    );
    response.retry_after = Some(retry_after);
    response
}

/// `/query`, `/path` and `/explain`: one lookup in the result cache; on a
/// miss, parse, admit and evaluate (or plan), and offer the answer back.
fn query(state: &ServerState, req: &Request, kind: QueryKind, trace: &mut Trace) -> Response {
    let start = Instant::now();
    let text = match query_text(req) {
        Ok(text) => text,
        Err(response) => return *response,
    };
    trace.set_query(text);
    let params = match parse_query_params(state, req, kind) {
        Ok(p) => p,
        Err(response) => return *response,
    };
    let QueryParams {
        requested_limit,
        limit,
        threads,
        analyze,
        order,
        topk,
        timeout,
    } = params;
    let is_explain = matches!(kind, QueryKind::Explain | QueryKind::PathExplain);
    let path_params = if matches!(kind, QueryKind::Path | QueryKind::PathExplain) {
        match parse_path_params(req) {
            Ok(pp) => Some(pp),
            Err(response) => return *response,
        }
    } else {
        None
    };
    // An explicit positive ?limit= shows the limit-pushed plan the
    // equivalent /query would run; ?order=/?topk= likewise show the ordered
    // plan (scan permutations, sort breakers, top-k heaps).
    let plan_limit = requested_limit.filter(|&k| k > 0);

    let snapshot = match resolve_store(state, req) {
        Ok(s) => s,
        Err(response) => return *response,
    };
    trace.set_store(snapshot.name());

    let key = CacheKey {
        store: snapshot.name().to_owned(),
        epoch: snapshot.epoch(),
        kind,
        text: key_text(kind, path_params.as_ref(), plan_limit, text),
        threads: threads as u64,
        order: order.map(Permutation::name),
        topk: topk.map(|k| k as u64),
    };
    // `/explain?analyze=1` reports what one execution did, and a count-only
    // `?limit=0` has no rows to slice: both bypass the cache both ways.
    // Every other answer is prefix-closed, so an entry holding at least
    // `limit` rows (or all of them) answers by slicing — no parse, no plan,
    // no evaluation, no admission.
    let cacheable = !analyze && (is_explain || limit > 0);
    if let Some(entry) = cacheable
        .then(|| state.cache.get_covering(&key, limit))
        .flatten()
    {
        state.metrics.queries_served.inc();
        trace.set_cached();
        let answer = if is_explain {
            Answer::Plan(&entry.body)
        } else {
            let count = entry.len().min(limit);
            Answer::Rows {
                rows: entry.rows(count),
                count: count as u64,
                truncated: count < entry.len() || !entry.complete,
                stats: &entry.stats,
            }
        };
        return Response::ok(render(&snapshot, true, start, order, topk, answer));
    }

    let parse_started = Instant::now();
    let compiled = match compile_body(text, path_params.as_ref()) {
        Ok(compiled) => compiled,
        Err(e) => return eval_error_response(state, &e),
    };
    trace.phase("parse", parse_started);

    // Every fresh evaluation runs under an armed cancel token — the request
    // deadline when one applies, a manual token otherwise — registered with
    // the in-flight set so a draining server can cancel it. Created before
    // admission: the wait for a permit counts against the deadline.
    let token = match timeout {
        Some(t) => CancelToken::with_timeout(t),
        None => CancelToken::manual(),
    };
    state.inflight.register(&token);

    // Admission: every fresh evaluation (cache hits never get here) takes a
    // per-store permit; saturated stores shed load with a structured 429.
    // The traced phase is the wait for a permit (zero when uncontended).
    let admission_started = Instant::now();
    let _permit = match state.admission.acquire(snapshot.name()) {
        Ok(permit) => permit,
        Err(retry_after) => return rejected_response(snapshot.name(), retry_after),
    };
    trace.phase("admission", admission_started);

    // Fault-injection checkpoint: an `eval=panic` rule unwinds here, after
    // the permit is held — the chaos suite's probe that unwinding releases
    // admission slots and poisons no locks.
    state.chaos.trigger("eval");

    let options = trial_eval::EvalOptions {
        threads,
        cancel: token.clone(),
        ..state.eval.clone()
    };
    let engine = SmartEngine::with_options(options);
    let store = snapshot.store();
    let (entry, drained) = match kind {
        QueryKind::Query | QueryKind::Path => {
            match evaluate(
                state, &engine, &compiled, store, limit, order, topk, &token, trace,
            ) {
                Ok(evaluated) => evaluated,
                Err(e) => return eval_error_response(state, &e),
            }
        }
        QueryKind::Explain | QueryKind::PathExplain => {
            let plan = if analyze {
                let eval_started = Instant::now();
                let analyzed = compiled
                    .plan(&engine, store, plan_limit, order, topk)
                    .and_then(|plan| engine.analyze(plan, store));
                match analyzed {
                    Ok(analyzed) => {
                        // Analyze runs plan + evaluation in one call; the
                        // combined wall time lands in the `eval` phase.
                        trace.phase("eval", eval_started);
                        trace.set_plan(|| analyzed.plan.explain().trim_end().to_owned());
                        trace.set_nodes(analyzed.profiles.clone(), 1);
                        observe_fresh_eval(state, &analyzed.evaluation.stats);
                        state.metrics.observe_est_errors(&analyzed);
                        let mut index = 0;
                        let tree = plan_tree_json(
                            &analyzed.plan.root,
                            threads,
                            Some(&analyzed.actuals),
                            Some(&analyzed.profiles),
                            &mut index,
                        );
                        explain_head(&compiled)
                            .num("threads", threads as u64)
                            .str("plan", analyzed.plan.explain().trim_end())
                            .num("rows", analyzed.evaluation.result.len() as u64)
                            .raw("tree", &tree)
                            .raw("stats", &stats_json(&analyzed.evaluation.stats))
                            .finish()
                    }
                    Err(e) => return eval_error_response(state, &e),
                }
            } else {
                let plan_started = Instant::now();
                let plan = match compiled.plan(&engine, store, plan_limit, order, topk) {
                    Ok(p) => p,
                    Err(e) => return eval_error_response(state, &e),
                };
                trace.phase("plan", plan_started);
                trace.set_plan(|| plan.explain().trim_end().to_owned());
                let mut index = 0;
                let tree = plan_tree_json(&plan.root, threads, None, None, &mut index);
                explain_head(&compiled)
                    .num("threads", threads as u64)
                    .str("plan", plan.explain().trim_end())
                    .raw("tree", &tree)
                    .finish()
            };
            (Entry::whole(plan, String::new()), Drained::default())
        }
    };

    let serialize_started = Instant::now();
    let answer = if is_explain {
        Answer::Plan(&entry.body)
    } else {
        Answer::Rows {
            rows: &entry.body,
            count: drained.count,
            truncated: drained.truncated,
            stats: &entry.stats,
        }
    };
    let body = render(&snapshot, false, start, order, topk, answer);
    if cacheable && entry.body.len() <= MAX_CACHED_FRAGMENT_BYTES {
        state.cache.offer(key, Arc::new(entry));
    }
    state.metrics.queries_served.inc();
    trace.phase("serialize", serialize_started);
    Response::ok(body)
}

/// Counts one fresh evaluation's execution shape (parallel vs. sequential)
/// and folds its work counters into the metric surface.
fn observe_fresh_eval(state: &ServerState, stats: &EvalStats) {
    if stats.parallel_morsels > 0 {
        state.metrics.queries_parallel.inc();
    } else {
        state.metrics.queries_sequential.inc();
    }
    state.metrics.observe_eval(stats);
}

/// What a buffered response carries as its `result`.
enum Answer<'a> {
    /// An explain's rendered plan fragment.
    Plan(&'a str),
    /// The first `count` rows of a `/query` or `/path` result, rendered and
    /// comma-separated; `truncated` when more rows exist.
    Rows {
        rows: &'a str,
        count: u64,
        truncated: bool,
        stats: &'a str,
    },
}

/// Renders a buffered `/query`, `/path` or `/explain` response in one
/// buffer sized for it. Fresh evaluations and cache hits both come through
/// here, so a hit matches a fresh response by construction. `elapsed_us` is
/// measured per request, so cache hits visibly undercut misses. With
/// `?order=` or `?topk=` a row result echoes the effective knobs, so
/// responses are self-describing.
fn render(
    snapshot: &StoreSnapshot,
    cached: bool,
    start: Instant,
    order: Option<Permutation>,
    topk: Option<usize>,
    answer: Answer,
) -> String {
    let size = match answer {
        Answer::Plan(plan) => plan.len(),
        Answer::Rows { rows, stats, .. } => rows.len() + stats.len() + 96,
    };
    let envelope = JsonObject::with_capacity(size + snapshot.name().len() + 96)
        .str("store", snapshot.name())
        .num("epoch", snapshot.epoch())
        .boolean("cached", cached)
        .num("elapsed_us", start.elapsed().as_micros() as u64);
    match answer {
        Answer::Plan(plan) => envelope.raw("result", plan),
        Answer::Rows {
            rows,
            count,
            truncated,
            stats,
        } => envelope.object("result", |mut result| {
            result = result.num("count", count).boolean("truncated", truncated);
            if let Some(p) = order.or_else(|| topk.map(|_| Permutation::Spo)) {
                result = result.str("order", p.name());
            }
            if let Some(k) = topk {
                result = result.num("topk", k as u64);
            }
            result.raw_array("triples", rows).raw("stats", stats)
        }),
    }
    .finish()
}

/// Evaluates a buffered `/query` or `/path` and counts it on the metrics.
/// Rows are written into the entry's body **as they are pulled**, and a
/// satisfied limit stops evaluation itself.
///
/// `?limit=0` is the count-only path: a counting drain of the stream that
/// renders no rows and reports the exact cardinality (allocation-free for
/// order-preserving plans; unordered plans track seen triples).
#[allow(clippy::too_many_arguments)] // the buffered /query knobs, one call site
fn evaluate(
    state: &ServerState,
    engine: &SmartEngine,
    compiled: &Compiled,
    store: &Triplestore,
    limit: usize,
    order: Option<Permutation>,
    topk: Option<usize>,
    cancel: &CancelToken,
    trace: &mut Trace,
) -> trial_core::Result<(Entry, Drained)> {
    if limit == 0 {
        // Count-only: the cardinality is order-independent, so don't pay
        // for a sort breaker the drain would never observe (a top-k bound
        // still changes the count and keeps its order).
        let plan_order = if topk.is_some() { order } else { None };
        let stream = compiled.open(engine, store, None, plan_order, topk, None, trace)?;
        let eval_started = Instant::now();
        let (count, stats) = stream.count();
        trace.phase("eval", eval_started);
        // A cancelled counting drain stops early with a meaningless partial
        // count; surface the cancellation instead of a wrong answer.
        cancel.check()?;
        observe_fresh_eval(state, &stats);
        state.metrics.observe_rows(0);
        let entry = Entry::whole(String::new(), stats_json(&stats));
        let drained = Drained {
            count,
            truncated: count > 0,
            last: None,
        };
        return Ok((entry, drained));
    }
    // Ask for one distinct triple beyond the response cap: pulling it proves
    // the limit cut evaluation short without rendering it. Under ?order= the
    // rows arrive in that permutation's key order (the plan root either
    // delivers it from an index permutation or sits above an explicit
    // sort/top-k), so the response sequence is deterministic.
    let probe = Some(limit.saturating_add(1));
    let mut stream = compiled.open(engine, store, probe, order, topk, None, trace)?;
    let eval_started = Instant::now();
    let mut rows = BufferedRows::default();
    let drained = drain(
        std::iter::from_fn(|| stream.next_triple()),
        store,
        limit,
        cancel,
        &mut rows,
    )
    .expect("a buffered drain writes to memory and cannot fail");
    trace.phase("eval", eval_started);
    // Cancelled cursors stop yielding rather than erroring (the drain cannot
    // tell "done" from "deadline"); this check converts a cancelled partial
    // result into the structured error before anything is cached.
    cancel.check()?;
    let stats = *stream.stats();
    observe_fresh_eval(state, &stats);
    state.metrics.observe_rows(drained.count);
    let entry = Entry {
        body: rows.body,
        ends: rows.ends,
        complete: !drained.truncated,
        stats: stats_json(&stats),
    };
    Ok((entry, drained))
}

/// What one [`drain`] delivered.
#[derive(Default)]
struct Drained {
    /// Rows written.
    count: u64,
    /// `true` when a row past the limit showed that more rows exist.
    truncated: bool,
    /// The last row written: where a resumed stream picks up.
    last: Option<Triple>,
}

/// Where [`drain`] writes rows: the body of a buffered response or the
/// chunk buffer of a streamed one.
trait RowSink {
    /// Appends one row: `write` gets the buffer and appends the row's text.
    fn row(&mut self, write: impl FnOnce(&mut String)) -> io::Result<()>;
}

/// A buffered response's rows, comma-separated, plus the end offset of
/// each row in `body` while the body is small enough to be cached.
#[derive(Default)]
struct BufferedRows {
    body: String,
    ends: Vec<u32>,
}

impl RowSink for BufferedRows {
    fn row(&mut self, write: impl FnOnce(&mut String)) -> io::Result<()> {
        write(&mut self.body);
        // Bodies past MAX_CACHED_FRAGMENT_BYTES are never cached, so their
        // offsets would never be read.
        if self.body.len() <= MAX_CACHED_FRAGMENT_BYTES {
            self.ends.push(self.body.len() as u32);
        }
        Ok(())
    }
}

/// A streamed response's chunk buffer. Each row first passes the two
/// per-row fault-injection sites, `stream.chunk` and `stream.slow`.
struct StreamedRows<'c, 'w, W: Write> {
    chunked: &'c mut ChunkedWriter<'w, W>,
    chaos: &'c Chaos,
}

impl<W: Write> RowSink for StreamedRows<'_, '_, W> {
    fn row(&mut self, write: impl FnOnce(&mut String)) -> io::Result<()> {
        self.chaos.io("stream.chunk")?;
        self.chaos.trigger("stream.slow");
        self.chunked.write_with(write)
    }
}

/// The one row drain behind every `/query` and `/path` response, buffered
/// or streamed: pulls rows until `limit` are written, writing each as
/// `["s","p","o"]` into `sink`, comma-separated, with nothing allocated per
/// row. The row after the limit is pulled but not written: it proves the
/// limit cut the result short. A cancelled token stops the drain too.
fn drain(
    rows: impl Iterator<Item = Triple>,
    store: &Triplestore,
    limit: usize,
    cancel: &CancelToken,
    sink: &mut impl RowSink,
) -> io::Result<Drained> {
    let mut drained = Drained {
        count: 0,
        truncated: false,
        last: None,
    };
    for t in rows {
        if drained.count as usize == limit {
            drained.truncated = true;
            break;
        }
        // Streamed producers check the token between batches, but batches
        // already queued in the exchange would still drain to the socket;
        // checking per row keeps a slow client from stretching a dead
        // deadline. Breaking drops the rows source, which terminates the
        // producers exactly like the row cap.
        if cancel.is_cancelled() {
            break;
        }
        let first = drained.count == 0;
        sink.row(|out| {
            if !first {
                out.push(',');
            }
            json::write_row(out, store, &t);
        })?;
        drained.count += 1;
        drained.last = Some(t);
    }
    Ok(drained)
}

/// A fully validated `/query?stream=1` job.
///
/// Everything that can fail with a clean buffered error — parameter
/// parsing, store resolution, cursor-token validation, admission — happened
/// in [`route`] before this exists. What remains (planning and evaluation)
/// runs against the live socket: plan-time errors still produce a buffered
/// error response (nothing has been sent), but once the chunked head is on
/// the wire the only failure signal left is closing the connection early,
/// which the client detects as a chunk stream without a terminal chunk.
pub(crate) struct StreamingQuery {
    snapshot: Arc<StoreSnapshot>,
    compiled: Compiled,
    /// `"query"` or `"path"` — the metrics label.
    endpoint: &'static str,
    threads: usize,
    limit: usize,
    order: Option<Permutation>,
    topk: Option<usize>,
    /// `Some((order, key))` when resuming from a cursor token: the stream
    /// is seeked strictly past `key` in `order` instead of replaying from
    /// row 0.
    resume: Option<(Permutation, [ObjectId; 3])>,
    close: bool,
    /// The armed cancel token this stream evaluates under (request deadline
    /// or manual); registered with the server's in-flight set so drain can
    /// fire it mid-stream.
    cancel: CancelToken,
    /// Held for the whole response; dropping it (with the job) releases the
    /// store's admission slot.
    _permit: Option<AdmissionPermit>,
    /// Attached by [`route`] after validation (the `Option` only exists to
    /// let the two construction steps stay separate); [`StreamingQuery::run`]
    /// finalizes it when the chunked response completes.
    trace: Option<Trace>,
}

/// Validates a streaming `/query` request up front. Errors come back as
/// complete buffered responses (the stream never starts): malformed or
/// cross-store cursors are `400 bad_cursor`, cursors minted against a
/// reloaded store are `410 stale_cursor`, saturation is `429`.
fn streaming_query(
    state: &ServerState,
    req: &Request,
    kind: QueryKind,
    trace: &mut Trace,
) -> Result<StreamingQuery, Box<Response>> {
    let text = query_text(req)?;
    trace.set_query(text);
    let params = parse_query_params(state, req, kind)?;
    let path_params = if kind == QueryKind::Path {
        Some(parse_path_params(req)?)
    } else {
        None
    };
    if params.limit == 0 {
        return Err(Box::new(error_response(
            400,
            "bad_request",
            "?limit=0 (count-only) has no streaming form; drop ?stream=1",
            None,
        )));
    }
    let snapshot = resolve_store(state, req)?;
    trace.set_store(snapshot.name());
    let mut order = params.order;
    let mut resume = None;
    if let Some(raw) = req.param("cursor") {
        let bad_cursor = |message: &str| Box::new(error_response(400, "bad_cursor", message, None));
        let Ok(token) = CursorToken::decode(raw) else {
            return Err(bad_cursor(
                "malformed ?cursor= token; pass the X-Trial-Cursor trailer value verbatim",
            ));
        };
        if params.topk.is_some() {
            return Err(bad_cursor(
                "top-k responses are complete sets, not stream positions; they cannot resume",
            ));
        }
        if token.store != snapshot.name() {
            return Err(bad_cursor(&format!(
                "cursor was issued for store `{}`, not `{}`",
                token.store,
                snapshot.name()
            )));
        }
        if token.epoch != snapshot.epoch() {
            // The store was reloaded: row keys from the old snapshot are
            // meaningless in the new one. 410 tells clients to restart
            // pagination rather than retry.
            return Err(Box::new(error_response(
                410,
                "stale_cursor",
                &format!(
                    "cursor was issued against epoch {} of store `{}`, which is now at epoch {}; restart pagination",
                    token.epoch,
                    snapshot.name(),
                    snapshot.epoch()
                ),
                None,
            )));
        }
        if let Some(requested) = order {
            if requested != token.order {
                return Err(bad_cursor(&format!(
                    "cursor resumes a ?order={} stream but the request asks for ?order={}",
                    token.order.name(),
                    requested.name()
                )));
            }
        }
        order = Some(token.order);
        resume = Some((token.order, token.last));
    }
    let parse_started = Instant::now();
    let compiled = match compile_body(text, path_params.as_ref()) {
        Ok(compiled) => compiled,
        Err(e) => return Err(Box::new(eval_error_response(state, &e))),
    };
    trace.phase("parse", parse_started);
    // Same token discipline as the buffered path: armed before admission so
    // the permit wait counts against the deadline, registered so drain can
    // cancel the stream mid-flight.
    let cancel = match params.timeout {
        Some(t) => CancelToken::with_timeout(t),
        None => CancelToken::manual(),
    };
    state.inflight.register(&cancel);
    let admission_started = Instant::now();
    let permit = match state.admission.acquire(snapshot.name()) {
        Ok(permit) => Some(permit),
        Err(retry_after) => return Err(Box::new(rejected_response(snapshot.name(), retry_after))),
    };
    trace.phase("admission", admission_started);
    state.chaos.trigger("eval");
    Ok(StreamingQuery {
        snapshot,
        compiled,
        endpoint: if kind == QueryKind::Path {
            "path"
        } else {
            "query"
        },
        threads: params.threads,
        limit: params.limit,
        order,
        topk: params.topk,
        resume,
        close: req.close,
        cancel,
        _permit: permit,
        trace: None,
    })
}

impl StreamingQuery {
    /// Runs the job against the socket: plans, evaluates through the
    /// exchange-fed [`trial_eval::QueryStream::channel`] (producer threads
    /// overlap evaluation with these writes), and emits the body as chunked
    /// transfer encoding with `X-Trial-Count` / `X-Trial-Truncated` /
    /// `X-Trial-Elapsed-Us` (and, for truncated ordered streams,
    /// `X-Trial-Cursor`) trailers.
    ///
    /// Returns whether the connection should be kept alive; any `Err` means
    /// the chunk stream is unfinishable and the caller must close.
    pub(crate) fn run<W: Write>(mut self, state: &ServerState, writer: &mut W) -> io::Result<bool> {
        let start = Instant::now();
        let mut trace = self.trace.take().expect("route attaches the trace");
        let options = trial_eval::EvalOptions {
            threads: self.threads,
            cancel: self.cancel.clone(),
            ..state.eval.clone()
        };
        let engine = SmartEngine::with_options(options);
        let store = self.snapshot.store();
        let probe = Some(self.limit.saturating_add(1));
        let (order, topk, resume) = (self.order, self.topk, self.resume);
        let opened = self
            .compiled
            .open(&engine, store, probe, order, topk, resume, &mut trace);
        let stream = match opened {
            Ok(stream) => stream,
            Err(e) => {
                // Nothing is on the wire yet: plan-time failures still get
                // an ordinary buffered error and keep-alive survives. The
                // permit is released before the response bytes so a client
                // that can read the error never observes it still held.
                let response =
                    finalize(state, trace, eval_error_response(state, &e), self.endpoint);
                drop(self._permit.take());
                http::write_response(writer, &response, self.close)?;
                return Ok(!self.close);
            }
        };

        // Head first, flushed immediately: time-to-first-byte is planning
        // time, not evaluation time. The `serialize` phase of a streamed
        // span covers only the head — row rendering happens inside the
        // `eval` pump, where serialization overlaps evaluation.
        let serialize_started = Instant::now();
        let mut chunked = ChunkedWriter::begin(
            writer,
            200,
            self.close,
            &[
                "X-Trial-Count",
                "X-Trial-Truncated",
                "X-Trial-Elapsed-Us",
                "X-Trial-Cursor",
                "X-Trial-Error",
            ],
            Some(trace.request_id()),
        )?;
        let mut head = String::from("{\"store\":");
        json::push_string(&mut head, self.snapshot.name());
        head.push_str(&format!(
            ",\"epoch\":{},\"cached\":false,\"stream\":true",
            self.snapshot.epoch()
        ));
        if let Some(p) = self.order.or_else(|| self.topk.map(|_| Permutation::Spo)) {
            head.push_str(&format!(",\"order\":\"{}\"", p.name()));
        }
        if let Some(k) = self.topk {
            head.push_str(&format!(",\"topk\":{k}"));
        }
        if self.resume.is_some() {
            head.push_str(",\"resumed\":true");
        }
        head.push_str(",\"triples\":");
        chunked.write_text(&head)?;
        trace.phase("serialize", serialize_started);

        let eval_started = Instant::now();
        // The pump runs under its own catch_unwind: once the 200 head is on
        // the wire the status can't change, so a worker panic (fault
        // injection or a real bug) must still reach `finish` below — the
        // terminal chunk plus an `X-Trial-Error` trailer naming the reason
        // is the only abort signal a chunked response has left.
        let pumped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || -> io::Result<(Drained, EvalStats)> {
                let (drained, stats) =
                    stream.channel(EXCHANGE_DEPTH_BATCHES, |rows| -> io::Result<Drained> {
                        state.chaos.trigger("stream.pump");
                        chunked.write_text("[")?;
                        let mut sink = StreamedRows {
                            chunked: &mut chunked,
                            chaos: &state.chaos,
                        };
                        let drained = drain(rows, store, self.limit, &self.cancel, &mut sink)?;
                        chunked.write_text("]")?;
                        Ok(drained)
                    });
                let drained = drained?;
                chunked.write_text("}")?;
                Ok((drained, stats))
            },
        ));
        trace.phase("eval", eval_started);

        let elapsed_us = (start.elapsed().as_micros() as u64).to_string();
        let (mut drained, stats) = match pumped {
            Ok(Ok(pumped)) => pumped,
            Ok(Err(e)) => {
                // Socket-level death (including an injected `stream.chunk`
                // error): nothing more can be written, so there is no
                // trailer to emit — propagate and let the connection drop.
                // The missing terminal chunk is the client's signal.
                state.metrics.observe_error("stream_io");
                state
                    .recorder
                    .record(trace.finish(200, Some("stream_io".to_owned())));
                drop(self._permit.take());
                return Err(e);
            }
            Err(_) => {
                // A panic mid-stream: the body is unfinishable (possibly
                // truncated mid-row), but the chunk framing is still intact
                // at `write_text` boundaries. Terminate the stream properly
                // and name the failure, then close the connection — the
                // body JSON cannot be trusted for reuse.
                state.metrics.observe_error("internal");
                let trailers: Vec<(&str, String)> = vec![
                    ("X-Trial-Error", "internal".to_owned()),
                    ("X-Trial-Elapsed-Us", elapsed_us),
                ];
                drop(self._permit.take());
                chunked.finish(&trailers)?;
                state
                    .recorder
                    .record(trace.finish(200, Some("internal".to_owned())));
                return Ok(false);
            }
        };

        // Cancellation mid-stream: cursors stopped yielding, so the body is
        // well-formed but incomplete. Name the reason in the error trailer,
        // count it, and never mint a resume cursor from a cancelled position.
        let cancel_kind = self.cancel.reason().map(|r| r.as_str());
        if let Some(kind) = cancel_kind {
            drained.truncated = true;
            state.metrics.observe_cancel(kind);
            state.metrics.observe_error(kind);
        }

        state.metrics.queries_served.inc();
        state.metrics.queries_streamed.inc();
        observe_fresh_eval(state, &stats);
        state.metrics.observe_rows(drained.count);

        let mut trailers: Vec<(&str, String)> = vec![
            ("X-Trial-Count", drained.count.to_string()),
            ("X-Trial-Truncated", drained.truncated.to_string()),
            ("X-Trial-Elapsed-Us", elapsed_us),
        ];
        // A truncated *ordered* stream is resumable: the next page picks up
        // strictly after the last row we delivered. Top-k results are
        // complete sets, unordered streams have no stable position, and a
        // cancelled stream's last row is not a trustworthy position —
        // none of those get a cursor.
        if drained.truncated && self.topk.is_none() && cancel_kind.is_none() {
            if let (Some(order), Some(t)) = (self.order, drained.last) {
                let token = CursorToken {
                    store: self.snapshot.name().to_owned(),
                    epoch: self.snapshot.epoch(),
                    order,
                    last: order.key(&t),
                };
                trailers.push(("X-Trial-Cursor", token.encode()));
            }
        }
        if let Some(kind) = cancel_kind {
            trailers.push(("X-Trial-Error", kind.to_owned()));
        }

        // Record the span and its metrics BEFORE the terminal chunk goes on
        // the wire: a client that has read the trailers must find this
        // request already counted on /metrics (the cursors were flushed when
        // `channel` returned, so the profile snapshot is already complete).
        let span = trace.finish(200, cancel_kind.map(str::to_owned));
        state
            .metrics
            .observe_request(self.endpoint, span.status, span.total_us);
        for (phase, us) in &span.phases {
            state.metrics.observe_phase(phase, *us);
        }
        state.recorder.record(span);
        // Like the metrics above, the permit goes BEFORE the terminal
        // chunk: "the client has the trailers" must imply "the worker and
        // its admission slot are already free".
        drop(self._permit.take());
        chunked.finish(&trailers)?;
        Ok(!self.close)
    }
}

/// Renders the work counters of an evaluation.
fn stats_json(stats: &EvalStats) -> String {
    JsonObject::new()
        .num("pairs_considered", stats.pairs_considered)
        .num("triples_emitted", stats.triples_emitted)
        .num("triples_scanned", stats.triples_scanned)
        .num("fixpoint_rounds", stats.fixpoint_rounds)
        .num("joins_executed", stats.joins_executed)
        .num("reach_edges_traversed", stats.reach_edges_traversed)
        .num("memo_hits", stats.memo_hits)
        .num("parallel_morsels", stats.parallel_morsels)
        .num("hash_tables_built", stats.hash_tables_built)
        .num("topk_buffered_peak", stats.topk_buffered_peak)
        .finish()
}

/// Renders a physical plan tree as structured JSON: one object per operator
/// with its label, estimated cardinality, pipeline and parallelism metadata
/// — the machine-readable face of `explain()` served on `/explain`.
///
/// `index` tracks the node's preorder position, which is how `actuals` (from
/// an `?analyze=1` run, indexed per [`trial_eval::PlanNode::preorder`]) line
/// up with the tree: when present, each node carries an `"actual"` row count
/// next to its `"est"` (JSON `null` for nodes that streamed through a limit
/// boundary without being individually materialised). `profiles` (also
/// preorder-indexed, from the same analyze run) adds wall-clock
/// `"elapsed_us"` — inclusive of children — and, for pipeline breakers,
/// `"build_us"` next to the cardinalities.
fn plan_tree_json(
    node: &trial_eval::PlanNode,
    threads: usize,
    actuals: Option<&[Option<u64>]>,
    profiles: Option<&[NodeProfile]>,
    index: &mut usize,
) -> String {
    let position = *index;
    *index += 1;
    let children: Vec<String> = node
        .children()
        .into_iter()
        .map(|child| plan_tree_json(child, threads, actuals, profiles, index))
        .collect();
    let mut object = JsonObject::new()
        .str("op", &node.label_with_threads(threads))
        .num("est", node.est() as u64);
    if let Some(actuals) = actuals {
        match actuals.get(position).copied().flatten() {
            Some(actual) => object = object.num("actual", actual),
            None => object = object.raw("actual", "null"),
        }
    }
    if let Some(profiles) = profiles {
        if let Some(profile) = profiles.get(position) {
            object = object.num("elapsed_us", profile.elapsed_us);
            if let Some(build_us) = profile.build_us {
                object = object.num("build_us", build_us);
            }
        }
    }
    // "ordering" is the permutation the node's stream follows (null when
    // unordered); it subsumes the old `ordered` boolean (== "spo").
    if let Some(perm) = node.ordering() {
        object = object.str("ordering", perm.name());
    } else {
        object = object.raw("ordering", "null");
    }
    object
        .boolean("pipelined", node.pipelined())
        .boolean("parallel", threads > 1 && node.parallelizable())
        .raw("children", &json::array(children))
        .finish()
}

/// `/load`: stream-parse the N-Triples body into a **new** store built off
/// to the side, then atomically swap it in with a bumped epoch. In-flight
/// queries keep their snapshot; a parse error leaves the store untouched.
///
/// The new store is an append to the current snapshot: it shares the
/// snapshot's dictionary, interns only unseen names, and merges the sorted
/// batch into the runs (and indexes) the snapshot already has, so a load
/// costs the batch plus one merge pass rather than a rebuild.
fn load(state: &ServerState, req: &Request) -> Response {
    let Some(store_name) = req.param("store") else {
        return error_response(
            400,
            "bad_request",
            "missing ?store= parameter naming the store to (re)load",
            None,
        );
    };
    let relation = req.param("relation").unwrap_or("E");
    let Some(body) = req.body_utf8() else {
        return error_response(
            400,
            "bad_request",
            "N-Triples body is not valid UTF-8",
            None,
        );
    };

    // Stores have no expiry or delete endpoint, so cap how much resident
    // memory well-formed clients can pin: a bounded number of stores, each
    // of bounded size. This pre-check runs *before* touching the gate map
    // so refused names don't leak gate entries; the `try_set` at the end
    // re-checks under the registry write lock, which is what actually
    // prevents concurrent first-loads from overshooting the cap.
    let store_cap_error = || {
        error_response(
            422,
            "limit_exceeded",
            &format!(
                "store limit reached ({} stores); reload an existing store instead",
                state.max_stores
            ),
            None,
        )
    };
    if state.registry.snapshot(store_name).is_none() && state.registry.len() >= state.max_stores {
        return store_cap_error();
    }

    // Serialise writers to *this* store; loads to other stores proceed in
    // parallel and readers are unaffected (they only clone Arcs).
    let gate = state.registry.write_gate(store_name);
    let _gate = gate
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let base = state.registry.snapshot(store_name);
    let base_triples = base.as_ref().map(|s| s.store().triple_count()).unwrap_or(0);

    let mut builder = match &base {
        Some(snapshot) => TriplestoreBuilder::append_to(Arc::clone(snapshot.store())),
        None => TriplestoreBuilder::new(),
    };
    builder.relation(relation);

    // Streaming ingestion: one triple in flight at a time — objects are
    // named by the term's full lexical form (IRI text / literal text), and
    // literals additionally carry their lexical form as the data value ρ(o).
    let mut added: u64 = 0;
    for item in parse_ntriples_iter(body) {
        if base_triples + added as usize >= state.max_store_triples {
            return error_response(
                422,
                "limit_exceeded",
                &format!(
                    "store `{store_name}` would exceed {} triples; the store is unchanged",
                    state.max_store_triples
                ),
                None,
            );
        }
        let triple = match item {
            Ok(t) => t,
            Err(e) => return eval_error_response(state, &e),
        };
        for term in triple.terms() {
            if let Term::Literal(lexical) = term {
                builder.object_with_value(lexical, Value::str(lexical.clone()));
            }
        }
        builder.add_triple(
            relation,
            triple.subject.lexical(),
            triple.predicate.lexical(),
            triple.object.lexical(),
        );
        added += 1;
    }

    let store = builder.finish();
    let triples_total = store.triple_count() as u64;
    let relation_total = store
        .relation(relation)
        .map(|r| r.len() as u64)
        .unwrap_or(0);
    let Some(epoch) = state.registry.try_set(store_name, store, state.max_stores) else {
        return store_cap_error();
    };
    state.metrics.loads_completed.inc();

    Response::ok(
        JsonObject::new()
            .str("store", store_name)
            .str("relation", relation)
            .num("epoch", epoch)
            .num("triples_added", added)
            .num("relation_triples", relation_total)
            .num("triples_total", triples_total)
            .finish(),
    )
}
