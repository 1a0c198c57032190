//! Facade crate for the TriAL-for-RDF workspace.
//!
//! The implementation lives in the `trial-*` crates under `crates/`; this
//! package exists to host the cross-crate integration tests (`tests/`) and
//! runnable examples (`examples/`) at the repository root, and re-exports
//! the member crates for convenience.
//!
//! # Serving TriAL over HTTP
//!
//! The [`server`] crate wraps the engines in a concurrent HTTP/1.1 query
//! service (std-only: hand-rolled HTTP and JSON, fixed worker thread pool,
//! copy-on-write store snapshots, LRU query cache). Start one with a preset
//! workload:
//!
//! ```bash
//! cargo run --release -p trial-server --bin trial-serve -- --preload transport
//! ```
//!
//! and drive it with curl — request bodies are plain text, responses JSON:
//!
//! ```bash
//! curl -s localhost:7878/query   -d "(E JOIN[1,3',3 | 2=1'] E)"   # evaluate
//! curl -s localhost:7878/explain -d "STAR(E JOIN[1,2,3' | 3=1'])" # plan only
//! curl -s "localhost:7878/load?store=mydata" --data-binary @data.nt
//! curl -s localhost:7878/path    -d "a/b"                         # path query
//! curl -s "localhost:7878/path?max_hops=4" -d "(a|b)+"            # bounded walk
//! curl -s "localhost:7878/explain?path=1" -d "(a/b)*"             # path plan
//! curl -s "localhost:7878/query?order=pos" -d "E"                 # sorted rows
//! curl -s "localhost:7878/query?order=osp&topk=10" -d "E"         # k smallest
//! curl -sN "localhost:7878/query?stream=1" -d "E"                 # chunked rows
//! curl -s "localhost:7878/query?cursor=$TOKEN" -d "E"             # next page
//! curl -s localhost:7878/stores                                   # inventory
//! curl -s localhost:7878/healthz                                  # counters
//! curl -s "localhost:7878/explain?analyze=1" -d "E"  # run + report actuals
//! ```
//!
//! `POST /path` evaluates regular path queries — label atoms, `/`
//! concatenation, `|` alternation, `*`/`+`/`?` closures — over one edge
//! relation, returning reachable pairs `(x, y)` as `(x, x, y)` triples.
//! Every expression runs as a product walk over its position automaton,
//! optionally bounded by `?max_hops=`. All `/query` delivery knobs apply. See the [`eval`]
//! crate's *Path queries* section.
//!
//! `?stream=1` switches the response to chunked transfer encoding fed by a
//! parallel exchange — rows hit the wire as evaluation produces them, and
//! `X-Trial-Count` / `X-Trial-Truncated` / `X-Trial-Cursor` arrive as HTTP
//! trailers. A truncated ordered stream's cursor token resumes the row
//! sequence exactly where the page stopped (`410` if the store was reloaded
//! in between); saturated stores shed load with structured `429`s instead
//! of queueing unboundedly.
//!
//! # Observability
//!
//! The server ships its own scrape surface and a slow-query flight
//! recorder, built on the std-only [`obs`] metrics registry:
//!
//! ```bash
//! curl -s localhost:7878/metrics                     # Prometheus text format
//! curl -s localhost:7878/debug/slow                  # slowest + errored spans
//! curl -s "localhost:7878/explain?analyze=1" -d "E"  # per-node elapsed_us
//! curl -s -H "X-Request-Id: deploy-42" localhost:7878/query -d "E" -i
//! ```
//!
//! Metrics follow Prometheus conventions (`trial_` prefix, `_total`
//! counters, `_us` microsecond histograms, low-cardinality labels like
//! `{endpoint}`, `{phase}`, `{kind}`). Every response echoes an
//! `X-Request-Id` header — client-supplied or generated — that keys the
//! request's phase-timed span in `/debug/slow`. `trial-serve
//! --profile-sample N` samples per-operator timings outside `?analyze=1`.
//! The full metric reference is in the [`server`] crate's *Observability*
//! section.
//!
//! # Robustness
//!
//! Evaluation is cooperatively cancellable end to end: every fresh query
//! runs under a cancel token (deadline + explicit cancel) consulted at
//! each cursor pull, morsel loop, fixpoint round and blocking build, so a
//! deadline surfaces as a structured error within milliseconds instead of
//! after the evaluation would have finished anyway:
//!
//! ```bash
//! curl -s "localhost:7878/query?timeout_ms=250" -d "STAR(E JOIN[1,2,3' | 3=1'])"
//! # → 408 {"error":{"kind":"deadline_exceeded",...}}
//! trial-serve --preload transport --default-timeout-ms 2000  # server-wide default
//! trial-serve --chaos "eval=panic@2"                         # fault injection
//! ```
//!
//! A cancelled query frees its admission permit and workers promptly and
//! never seeds the caches; a chunked response that dies mid-stream names
//! the reason in an `X-Trial-Error` trailer. SIGTERM (or
//! `Server::drain()`) drains gracefully: in-flight requests finish within
//! a grace window, stragglers are cancelled with reason `shutdown`. The
//! `--chaos` fault-injection layer deterministically panics, errors or
//! stalls named serving sites so the crash-containment invariants stay
//! testable (`crates/trial-server/tests/chaos.rs`). Details and the full
//! grammar are in the [`server`] crate's *Robustness* section.
//!
//! `examples/server_demo.rs` runs the same round trip in-process; the full
//! endpoint reference is in the [`server`] crate docs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use trial_core as core;
pub use trial_datalog as datalog;
pub use trial_eval as eval;
pub use trial_graph as graph;
pub use trial_logic as logic;
pub use trial_obs as obs;
pub use trial_parser as parser;
pub use trial_rdf as rdf;
pub use trial_server as server;
pub use trial_workloads as workloads;
