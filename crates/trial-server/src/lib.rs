//! # trial-server
//!
//! A concurrent HTTP/1.1 query service for TriAL over triplestores — the
//! serving layer that turns the PODS'13 reproduction into something you can
//! `curl`. Std-only: the listener is `std::net::TcpListener`, the HTTP and
//! JSON layers are hand-rolled ([`http`], [`json`]), and concurrency is a
//! fixed worker thread pool.
//!
//! ## Serving TriAL over HTTP
//!
//! Start a server with a preset workload:
//!
//! ```bash
//! trial-serve --preload transport --port 7878
//! ```
//!
//! then drive it with curl (bodies are plain text — a TriAL expression for
//! `/query`/`/explain`, an N-Triples document for `/load`; options ride in
//! the query string; responses are JSON):
//!
//! ```bash
//! # Example 2 of the paper: cities connected by a service, with the company.
//! curl -s localhost:7878/query -d "(E JOIN[1,3',3 | 2=1'] E)"
//!
//! # The physical plan the cost-based planner picked, without running it.
//! curl -s localhost:7878/explain -d "STAR(E JOIN[1,2,3' | 3=1'])"
//!
//! # Load an N-Triples document into relation E of store `mydata`
//! # (copy-on-write: in-flight queries keep their snapshot; a load into an
//! # existing store appends, costing the batch plus one merge pass).
//! curl -s "localhost:7878/load?store=mydata&relation=E" --data-binary @data.nt
//!
//! # Cap the result: the limit is pushed into the physical plan, so
//! # evaluation stops after 100 distinct triples instead of truncating a
//! # fully evaluated result. ?limit=0 is the exact-count path.
//! curl -s "localhost:7878/query?store=mydata&limit=100" -d "E"
//! curl -s "localhost:7878/query?store=mydata&limit=0" -d "E"
//!
//! # The plan a bounded query runs, with per-node cardinality estimates and
//! # pipelined/breaker flags in the structured `tree` field.
//! curl -s "localhost:7878/explain?store=mydata&limit=100" -d "E"
//!
//! # Store inventory and service/cache counters.
//! curl -s localhost:7878/stores
//! curl -s localhost:7878/healthz
//! ```
//!
//! ## Ordered responses and top-k
//!
//! `?order=spo|pos|osp` streams the result rows in that permutation's key
//! order — served straight from the matching index permutation whenever the
//! plan can deliver it (bare scans, filters, merge unions), an explicit
//! sort breaker otherwise — making the response row sequence deterministic.
//! `?topk=k` returns the `k` smallest distinct triples under the order
//! (default `spo`) via a bounded heap that never buffers more than `k`
//! rows; over an already-ordered plan it collapses to a plain limit and
//! terminates early. Both are cache-keyed and work on `/explain` too:
//!
//! ```bash
//! # Rows in predicate-object-subject order, deterministic across runs.
//! curl -s "localhost:7878/query?order=pos" -d "E"
//!
//! # The 5 canonically smallest connections Example 2 derives.
//! curl -s "localhost:7878/query?topk=5" -d "(E JOIN[1,3',3 | 2=1'] E)"
//!
//! # Top-k under a non-canonical order: bounded heap, ≤ k rows buffered
//! # (watch stats.topk_buffered_peak and stats.hash_tables_built).
//! curl -s "localhost:7878/query?order=osp&topk=10" -d "(E JOIN[1,3',3 | 2=1'] E)"
//!
//! # The ordered plan: scan permutations, [merge pos⋈spo] joins and
//! # [sort]/[topk] tags, plus per-node "ordering" in the structured tree.
//! curl -s "localhost:7878/explain?order=pos&topk=3" -d "E"
//! ```
//!
//! ## Path queries
//!
//! `POST /path` evaluates a **regular path query** — label atoms, `/`
//! concatenation, `|` alternation, `*`/`+`/`?` closures — over one edge
//! relation (`?relation=`, default `E`) and returns the reachable pairs
//! `(x, y)` encoded as triples `(x, x, y)`. Every expression runs as a
//! product walk over its position automaton that streams root by root
//! (`?max_hops=` bounds it to walks of at most that many edges), and every
//! `/query` delivery knob — `?limit=`, `?order=`, `?topk=`, `?stream=1`,
//! cursors, caching, `?timeout_ms=` — works identically. The TriAL\* lowering of a path
//! (`trial_eval::rpq::lower`, Theorem 7) is an ordinary expression: POST
//! its text to `/query` to run it as a join plan.
//!
//! ```bash
//! # Two-step connections.
//! curl -s localhost:7878/path -d "a/b"
//!
//! # Reachability over either label, bounded to walks of at most 4 edges.
//! curl -s "localhost:7878/path?max_hops=4" -d "(a|b)+"
//!
//! # The walk's plan: a PathNfa leaf under the delivery operators.
//! curl -s "localhost:7878/explain?path=1" -d "(a/b)*"
//!
//! # Ordered, paginated path results — same cursor protocol as /query.
//! curl -sN --raw "localhost:7878/path?order=spo&limit=1000&stream=1" -d "next+"
//! ```
//!
//! ## Streaming and pagination
//!
//! `?stream=1` switches `/query` from a buffered `Content-Length` body to
//! **chunked transfer encoding** fed by a parallel exchange operator:
//! producer threads evaluate morsels and pump row batches through bounded
//! channels while the connection worker renders them straight onto the
//! socket. The head is flushed before evaluation starts, so time-to-first-
//! byte is planning time, not evaluation time, and the server never buffers
//! more than one 8 KiB chunk plus the bounded exchange lanes regardless of
//! result size. `count`/`truncated` can't be known up front, so they arrive
//! as HTTP **trailers** (`X-Trial-Count`, `X-Trial-Truncated`,
//! `X-Trial-Elapsed-Us`) after the terminal chunk — and a missing terminal
//! chunk is the unambiguous truncation signal if a stream dies mid-flight:
//!
//! ```bash
//! # Rows on the wire as they are produced; trailers close the stream.
//! curl -sN --raw "localhost:7878/query?stream=1&order=spo&limit=1000" -d "E"
//! ```
//!
//! A truncated **ordered** stream is resumable: its `X-Trial-Cursor`
//! trailer is an opaque token `(store, epoch, order, last row key)` that the
//! next request presents to continue the row sequence exactly where the
//! page stopped — the engine seeks the index past the last delivered key
//! instead of replaying and discarding:
//!
//! ```bash
//! curl -s "localhost:7878/query?cursor=$TOKEN&limit=1000" -d "E"  # next page
//! ```
//!
//! Cursor failure modes are structured and happen before any bytes stream:
//! a malformed or cross-store token is `400 bad_cursor`, a token minted
//! against a reloaded store is `410 stale_cursor` (restart pagination —
//! row keys from the old epoch are meaningless), and top-k responses never
//! mint cursors (they are complete sets, not stream positions).
//!
//! Two more pieces round out the serving path. A **prefix-closed result
//! cache**: a response is a deterministic row sequence cut at `?limit=`,
//! so under a fixed `(store, epoch, kind, query, threads, order, topk)` one
//! deep evaluation serves every smaller `?limit=` by slicing — unordered,
//! ordered, top-k and `/path` results alike (hits show up as `hits` on
//! `/healthz`). And **admission control**: each store has
//! a bounded pool of concurrent-evaluation permits plus a bounded wait
//! queue; beyond both, requests are shed immediately with a complete
//! `429 {"error":{"kind":"saturated",...}}` and a `Retry-After` hint rather
//! than queueing without bound (cache hits bypass admission entirely).
//! `/healthz` exposes the live picture: `in_flight`, `waiting`, `admitted`,
//! `rejected`.
//!
//! ## The row path
//!
//! The engine hands back ids; names appear only at the output edge. One
//! drain serves every delivery shape: it pulls rows from the cursor tree
//! (buffered responses) or from the exchange (streamed ones) and writes
//! each as `["s","p","o"]` straight into the response buffer — the body,
//! which is also the cache entry, or the 8 KiB chunk buffer — with nothing
//! allocated per row. [`json::push_string`] copies a name in one
//! `push_str` when no byte of it can need escaping and falls back to the
//! per-char rules otherwise, so output bytes do not depend on the path
//! taken. A cache entry is one body plus the end offset of each row, and
//! a smaller limit is served as a slice of it; fresh and cached answers
//! render through one function. Every response leaves in
//! as few writes as its shape allows: a buffered one in one write (a
//! vectored one when the body is larger than a chunk, so it is never
//! copied), a streamed one as its head, one write per chunk and one for the
//! terminal chunk with all trailers.
//!
//! ## Parallel evaluation
//!
//! `trial-serve --eval-threads N` turns on morsel-driven intra-query
//! parallelism (see the *Parallel execution* section of the `trial-eval`
//! docs) for every query; `--eval-threads 0` auto-detects the core count.
//! Individual requests override the degree with `?threads=`, clamped to
//! [`routes::MAX_EVAL_THREADS`]:
//!
//! ```bash
//! trial-serve --preload transport --eval-threads 4
//!
//! # Evaluate this query on 8 worker threads (same result, same counters —
//! # only wall-clock changes); plans show which operators ran [parallel×8].
//! curl -s "localhost:7878/query?threads=8" -d "(SELECT[1!=3](E) JOIN[1,2,3' | 3=1'] SELECT[1!=3](E))"
//! curl -s "localhost:7878/explain?threads=8" -d "(SELECT[1!=3](E) JOIN[1,2,3' | 3=1'] SELECT[1!=3](E))"
//!
//! # EXPLAIN ANALYZE: run the (bounded) query and report actual per-node
//! # rows next to the planner's estimates in the structured tree.
//! curl -s "localhost:7878/explain?analyze=1" -d "(E JOIN[1,3',3 | 2=1'] E)"
//!
//! # /healthz reports the configured degree and how many fresh queries
//! # actually executed parallel morsels vs. stayed sequential.
//! curl -s localhost:7878/healthz
//! ```
//!
//! ## Observability
//!
//! The server is instrumented end to end with the std-only `trial-obs`
//! registry — atomic counters, gauges and fixed-bucket histograms, rendered
//! in Prometheus text exposition format:
//!
//! ```bash
//! # Every server metric, scrape-ready (text/plain; version=0.0.4).
//! curl -s localhost:7878/metrics
//!
//! # The slow-query flight recorder: phase-timed span records (with plan
//! # and per-operator timings) for the N slowest requests plus every
//! # errored or shed one.
//! curl -s localhost:7878/debug/slow
//! ```
//!
//! **Naming conventions.** Metrics are prefixed `trial_`; counters end in
//! `_total`, durations are histograms in microseconds ending in `_us`
//! (log-scaled buckets 50µs–10s), row-count histograms use power-of-ten
//! buckets. Cardinality rides in labels: `trial_requests_total{endpoint,
//! status}` (status is the class, `2xx`/`4xx`/`5xx`),
//! `trial_request_duration_us{endpoint}`, `trial_phase_duration_us{phase}`
//! for the five request phases (`parse`, `plan`, `admission`, `eval`,
//! `serialize`), `trial_errors_total{kind}` for structured error kinds.
//! Engine work counters surface as `trial_eval_hash_tables_built_total`,
//! `trial_eval_parallel_morsels_total` and the
//! `trial_eval_topk_buffered_peak` high-water gauge. `/healthz` and
//! `/metrics` read the *same* registry-owned counters and the same
//! cache/admission structs, so the two surfaces cannot disagree.
//!
//! **Request IDs.** Every response carries an `X-Request-Id` header — the
//! client's own (when it sent a well-formed one, ≤ 64 chars of
//! `[A-Za-z0-9._-]`) or a generated one — on buffered and chunked responses
//! alike, and the same ID keys the span in `/debug/slow`:
//!
//! ```bash
//! curl -s -H "X-Request-Id: deploy-42" localhost:7878/query -d "E" -i
//! ```
//!
//! **Per-operator timing.** `/explain?analyze=1` reports `elapsed_us` (and
//! `build_us` for breakers) on every node of the structured `tree`, next to
//! the estimated and actual rows. Outside analyze, per-node timing is off
//! unless sampled: `trial-serve --profile-sample N` (or the
//! `TRIAL_PROFILE_SAMPLE` env var) times every N-th cursor pull and spans
//! in `/debug/slow` then carry node timings too.
//!
//! ## Robustness
//!
//! Every fresh evaluation runs under a **cancel token** — a deadline plus
//! an explicit-cancel flag checked cooperatively at every cursor pull,
//! morsel loop, fixpoint round and blocking build (see the *Cancellation*
//! section of the `trial-eval` docs). `?timeout_ms=` arms a per-request
//! deadline; `trial-serve --default-timeout-ms` (or
//! `TRIAL_DEFAULT_TIMEOUT_MS`) sets a server-wide default that individual
//! requests override, with `?timeout_ms=0` as the explicit opt-out:
//!
//! ```bash
//! # Give this query 250 ms; past that the evaluation stops where it is
//! # and the response is a structured 408.
//! curl -s "localhost:7878/query?timeout_ms=250" -d "STAR(E JOIN[1,2,3' | 3=1'])"
//! # → 408 {"error":{"kind":"deadline_exceeded",...}}
//!
//! # Every request gets 2 s unless it says otherwise.
//! trial-serve --preload transport --default-timeout-ms 2000
//! ```
//!
//! Cancellation semantics: a cancelled query releases its admission permit
//! and worker threads promptly (the in-tree harness asserts within 50 ms of
//! the deadline), never seeds the result cache, and shows up in
//! `trial_queries_timeout_total` / `trial_queries_cancelled_total` on
//! `/metrics`. A **buffered** response that hits its deadline is a complete
//! `408`; a **chunked** response that has already streamed its head cannot
//! change status, so it ends early and names the reason in an
//! `X-Trial-Error` trailer instead (`deadline_exceeded`, `shutdown`, or
//! `internal` after a mid-stream fault) — a stream that aborts mid-flight
//! always tells you why before the connection closes.
//!
//! Which of the two a deadline meets depends on where the query's work
//! happens. A breaker's blocking input (a hash join's build side, a generic
//! semi-naive fixpoint such as a left star) is computed when the stream is
//! opened, in the `plan` phase, so a deadline there still gets a buffered
//! `408`. The Proposition 5 closures — reach-shaped right stars and the
//! `/path` NFA walk — stream source by source in SPO order instead: their
//! work shows under `eval`, their first rows are on the wire after the
//! first source, and a deadline mid-closure ends the chunked response with
//! the trailer.
//!
//! **Graceful shutdown.** [`Server::drain`] (and SIGTERM in `trial-serve`)
//! stops accepting new work (late requests get a complete
//! `503 {"error":{"kind":"shutdown",...}}`), lets in-flight requests finish
//! within a grace window (`--drain-grace-ms`), cancels stragglers with
//! reason `shutdown`, then joins the workers and flushes the slow-query
//! flight recorder so the final spans are not lost with the process.
//!
//! **Fault injection.** `trial-serve --chaos "<spec>"` (or `TRIAL_CHAOS`)
//! arms the [`chaos`] layer: deterministic injected panics, socket errors
//! and stalls at named serving sites — see the [`chaos`] module docs for
//! the grammar and site table. The chaos test suite drives these rules to
//! prove the invariants the rest of this section claims: no leaked
//! admission permits, no poisoned locks, no partial cache entries, accurate
//! error counters.
//!
//! ```bash
//! # Panic every 3rd evaluation, kill every 2nd stream mid-flight.
//! trial-serve --preload transport --chaos "eval=panic@3,stream.chunk=ioerror@2"
//! ```
//!
//! ## Architecture
//!
//! * **[`registry`]** — named stores as epoch-versioned immutable snapshots
//!   behind `Arc`s. Readers clone the `Arc` under a momentary read lock and
//!   evaluate lock-free; `/load` builds the replacement store entirely off
//!   to the side and swaps the pointer. A query that started on epoch *n*
//!   sees epoch *n* to completion — no reader ever blocks on a writer. The
//!   replacement is an *append* to the current snapshot: it shares the
//!   snapshot's dictionary, and the sorted batch is merged into the runs
//!   and permutation indexes the snapshot had built, so a load costs its
//!   batch plus one merge pass and the first read after it re-sorts nothing.
//! * **[`cache`]** — one LRU of prefix-closed answers keyed by
//!   `(store, epoch, kind, query text)` and the evaluation shape, without
//!   the limit: an entry serves any smaller limit by slicing its rendered
//!   rows, and `--cache` bounds the entries of every kind together. Epoch
//!   bumps invalidate implicitly; hit/miss counters are served on
//!   `/healthz`.
//! * **[`admission`]** — per-store concurrent-evaluation permits with a
//!   bounded wait queue; saturation sheds load as structured `429`s with
//!   `Retry-After` instead of queueing unboundedly.
//! * **[`token`]** — opaque resumable pagination cursors: base64url over
//!   `(store, epoch, order, last row key)` with an integrity checksum,
//!   minted as `X-Trial-Cursor` trailers and validated before any bytes
//!   stream.
//! * **[`metrics`]** — the server's `trial-obs` registry wiring: owned
//!   service counters (read by both `/healthz` and `/metrics`), fn-backed
//!   gauges over the cache/admission/registry structs, per-endpoint and
//!   per-phase latency histograms.
//! * **[`trace`]** — request IDs, phase-timed spans and the bounded
//!   flight recorder behind `GET /debug/slow`.
//! * **[`chaos`]** — the gated fault-injection layer: deterministic
//!   injected panics, socket errors and stalls at named serving sites,
//!   inert (one `is_empty()` test per site) unless armed.
//! * **[`server`]** — listener + fixed worker pool with keep-alive
//!   connections and graceful shutdown; [`Server::spawn_ephemeral`] gives
//!   tests and examples an in-process instance on a free port.
//! * **[`routes`]** — the endpoint handlers. `/query` executes through
//!   `trial-eval`'s streaming cursor pipeline: `?limit=` becomes a `Limit`
//!   plan node so bounded queries terminate early, rows are rendered into
//!   the JSON body as the cursors yield them (the result set is never
//!   buffered), and `?limit=0` drains a counting cursor that renders no
//!   rows (order-preserving plans count allocation-free; unordered plans
//!   track seen triples, never name strings). Untrusted input is bounded
//!   everywhere: request bodies by [`ServerConfig::max_body_bytes`], query
//!   evaluation by the server's [`trial_eval::EvalOptions`] (universe size
//!   and star-round caps), response bodies by `?limit=`, and registry
//!   growth by [`ServerConfig::max_stores`] /
//!   [`ServerConfig::max_store_triples`] (stores never expire, so `/load`
//!   refuses to grow past them).
//!
//! ```
//! use trial_server::{client, Server};
//! use trial_workloads::figure1_store;
//!
//! let server = Server::spawn_ephemeral().unwrap();
//! server.registry().set("transport", figure1_store());
//! let response =
//!     client::post(server.addr(), "/query", "(E JOIN[1,3',3 | 2=1'] E)").unwrap();
//! assert_eq!(response.status, 200);
//! assert!(response.body.contains("\"count\":3"));
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod chaos;
pub mod client;
pub mod http;
pub mod json;
pub mod metrics;
pub mod preload;
pub mod registry;
pub mod routes;
pub mod server;
pub mod token;
pub mod trace;

pub use admission::{Admission, AdmissionPermit};
pub use cache::{CacheKey, Entry, QueryKind, ResultCache};
pub use chaos::Chaos;
pub use metrics::Metrics;
pub use preload::{preload_workload, WORKLOAD_NAMES};
pub use registry::{StoreRegistry, StoreSnapshot};
pub use routes::MAX_EVAL_THREADS;
pub use server::{default_timeout_ms, Server, ServerConfig};
pub use token::CursorToken;
pub use trace::{next_request_id, FlightRecorder, Span};

// The server hands `Arc<ServerState>` and store snapshots across worker
// threads; these mirror the assertions in trial-core / trial-eval at the
// point of use.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Server>();
    assert_send_sync::<StoreRegistry>();
    assert_send_sync::<ResultCache>();
};
