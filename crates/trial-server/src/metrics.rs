//! The server's metric surface: one [`trial_obs::Registry`] holding every
//! counter, gauge and histogram served on `GET /metrics`.
//!
//! Two registration styles keep the surface honest:
//!
//! * **Owned instruments** ([`trial_obs::Counter`] handles held here) are
//!   the *single source of truth* for the service counters — `/healthz`
//!   reads the very same atomics `/metrics` renders, so the two surfaces
//!   cannot drift.
//! * **Fn-backed series** (`counter_fn`/`gauge_fn`) expose state that
//!   already has an owner — the result cache, the admission
//!   semaphore, the store registry — by reading it at scrape time instead
//!   of duplicating it.
//!
//! Naming follows the Prometheus conventions: `trial_` prefix,
//! `snake_case`, unit suffixes (`_us`, `_seconds`, `_total` for counters).
//! Label cardinality is bounded by construction: `endpoint` ranges over the
//! fixed route table, `status` over `1xx`…`5xx` classes, `phase` over the
//! five request phases, and `kind` over the server's structured error kinds.

use crate::admission::Admission;
use crate::cache::ResultCache;
use crate::registry::StoreRegistry;
use std::sync::Arc;
use std::time::Instant;
use trial_eval::{AnalyzedEvaluation, EvalStats};
use trial_obs::{Counter, Gauge, Histogram, Registry, LATENCY_BUCKETS_US, ROW_BUCKETS};

/// Relative estimate-error buckets in percent: 0 % (exact) through 10×
/// off and beyond. Mass in the high buckets marks the plan shapes whose
/// heuristic estimates mislead join and morsel choices.
const EST_ERROR_BUCKETS: &[u64] = &[0, 1, 5, 10, 25, 50, 100, 250, 500, 1_000, 10_000];

/// The request phases a traced request is broken into, in wall order.
/// `eval` covers planning's cursor compilation onward for buffered queries;
/// for streamed queries it covers the whole row pump (rendering overlaps
/// evaluation there, so `serialize` only measures head/trailer writes).
pub const PHASES: &[&str] = &["parse", "plan", "admission", "eval", "serialize"];

/// Typed handles onto the server's metric registry.
///
/// Handles that the hot path increments are plain fields (one relaxed
/// atomic add, no registry lock); labelled series that only materialise
/// when traffic arrives (`trial_requests_total{endpoint,status}`,
/// `trial_errors_total{kind}`) go through the registry's get-or-create,
/// which costs one short mutex hold per request.
#[derive(Debug)]
pub struct Metrics {
    registry: Arc<Registry>,
    /// Queries answered (cache hits included) — mirrors `/healthz`.
    pub(crate) queries_served: Arc<Counter>,
    /// `/load` requests that swapped in a new store epoch.
    pub(crate) loads_completed: Arc<Counter>,
    /// Fresh evaluations that actually ran parallel morsels.
    pub(crate) queries_parallel: Arc<Counter>,
    /// Fresh evaluations that stayed single-threaded.
    pub(crate) queries_sequential: Arc<Counter>,
    /// `/query?stream=1` responses completed.
    pub(crate) queries_streamed: Arc<Counter>,
    /// Requests shed with `429` by admission control.
    pub(crate) queries_shed: Arc<Counter>,
    /// Queries cancelled by their deadline (`408 deadline_exceeded`).
    pub(crate) queries_timeout: Arc<Counter>,
    /// Queries cancelled for any other reason (shutdown drain, client
    /// disconnect).
    pub(crate) queries_cancelled: Arc<Counter>,
    /// Sum of [`EvalStats::hash_tables_built`] over fresh evaluations.
    pub(crate) hash_tables_built: Arc<Counter>,
    /// Sum of [`EvalStats::parallel_morsels`] over fresh evaluations.
    pub(crate) parallel_morsels: Arc<Counter>,
    /// High watermark of [`EvalStats::topk_buffered_peak`] across queries.
    pub(crate) topk_buffered_peak: Arc<Gauge>,
    /// Rows rendered into `/query` responses (decade buckets).
    rows_returned: Arc<Histogram>,
    /// Per-node relative estimate error (percent) reported by analyzed
    /// runs — how far the planner's heuristics miss the actual row counts.
    est_error_pct: Arc<Histogram>,
}

impl Metrics {
    /// Builds the metric surface, wiring fn-backed series onto the caches,
    /// the admission semaphore and the store registry.
    pub(crate) fn new(
        stores: &Arc<StoreRegistry>,
        cache: &Arc<ResultCache>,
        admission: &Arc<Admission>,
        started: Instant,
    ) -> Metrics {
        let r = Arc::new(Registry::new());

        let queries_served = r.counter(
            "trial_queries_served_total",
            "Queries answered on /query and /explain, cache hits included.",
            &[],
        );
        let loads_completed = r.counter(
            "trial_loads_completed_total",
            "Successful /load requests (each swapped in a new store epoch).",
            &[],
        );
        let queries_parallel = r.counter(
            "trial_queries_parallel_total",
            "Fresh evaluations whose execution ran parallel morsels.",
            &[],
        );
        let queries_sequential = r.counter(
            "trial_queries_sequential_total",
            "Fresh evaluations that stayed single-threaded.",
            &[],
        );
        let queries_streamed = r.counter(
            "trial_queries_streamed_total",
            "Chunked /query?stream=1 responses completed.",
            &[],
        );
        let queries_shed = r.counter(
            "trial_queries_shed_total",
            "Requests shed with 429 by per-store admission control.",
            &[],
        );
        let queries_timeout = r.counter(
            "trial_queries_timeout_total",
            "Queries cancelled by their deadline (408 deadline_exceeded).",
            &[],
        );
        let queries_cancelled = r.counter(
            "trial_queries_cancelled_total",
            "Queries cancelled by shutdown drain or client disconnect.",
            &[],
        );
        let hash_tables_built = r.counter(
            "trial_eval_hash_tables_built_total",
            "Join hash tables built across fresh evaluations.",
            &[],
        );
        let parallel_morsels = r.counter(
            "trial_eval_parallel_morsels_total",
            "Morsels dispatched to parallel workers across fresh evaluations.",
            &[],
        );
        let topk_buffered_peak = r.gauge(
            "trial_eval_topk_buffered_peak",
            "Largest top-k heap any single query buffered (high watermark).",
            &[],
        );
        let rows_returned = r.histogram(
            "trial_query_rows_returned",
            "Rows rendered into one /query response.",
            &[],
            ROW_BUCKETS,
        );
        let est_error_pct = r.histogram(
            "trial_planner_est_error_pct",
            "Per-node relative estimate error (percent) from analyzed runs.",
            &[],
            EST_ERROR_BUCKETS,
        );

        // Fn-backed series: /metrics and /healthz read the same atomics.
        let c = Arc::clone(cache);
        r.counter_fn(
            "trial_cache_hits_total",
            "Result-cache hits (answered by slicing a cached entry).",
            &[],
            move || c.hits(),
        );
        let c = Arc::clone(cache);
        r.counter_fn(
            "trial_cache_misses_total",
            "Result-cache misses (no entry, or one too shallow).",
            &[],
            move || c.misses(),
        );
        let c = Arc::clone(cache);
        r.gauge_fn(
            "trial_cache_entries",
            "Live result-cache entries.",
            &[],
            move || c.len() as u64,
        );
        let c = Arc::clone(cache);
        r.gauge_fn(
            "trial_cache_capacity",
            "Configured result-cache capacity in entries.",
            &[],
            move || c.capacity() as u64,
        );

        let a = Arc::clone(admission);
        r.counter_fn(
            "trial_admission_admitted_total",
            "Evaluations granted an admission permit.",
            &[],
            move || a.admitted(),
        );
        let a = Arc::clone(admission);
        r.counter_fn(
            "trial_admission_rejected_total",
            "Evaluations shed by admission control.",
            &[],
            move || a.rejected(),
        );
        let a = Arc::clone(admission);
        r.gauge_fn(
            "trial_admission_in_flight",
            "Evaluations currently holding a permit (all stores).",
            &[],
            move || a.live().0,
        );
        let a = Arc::clone(admission);
        r.gauge_fn(
            "trial_admission_waiting",
            "Requests currently queued for a permit (all stores).",
            &[],
            move || a.live().1,
        );
        let a = Arc::clone(admission);
        r.gauge_fn(
            "trial_admission_permits",
            "Configured per-store concurrent-evaluation permits.",
            &[],
            move || a.permits() as u64,
        );

        let s = Arc::clone(stores);
        r.gauge_fn(
            "trial_stores",
            "Named stores currently registered.",
            &[],
            move || s.len() as u64,
        );
        r.gauge_fn(
            "trial_uptime_seconds",
            "Seconds since the server started.",
            &[],
            move || started.elapsed().as_secs(),
        );

        Metrics {
            registry: r,
            queries_served,
            loads_completed,
            queries_parallel,
            queries_sequential,
            queries_streamed,
            queries_shed,
            queries_timeout,
            queries_cancelled,
            hash_tables_built,
            parallel_morsels,
            topk_buffered_peak,
            rows_returned,
            est_error_pct,
        }
    }

    /// The underlying registry (rendered on `GET /metrics`).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Renders the whole surface in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        self.registry.render()
    }

    /// Records one finished request: the per-endpoint/status-class counter
    /// and the per-endpoint latency histogram.
    pub(crate) fn observe_request(&self, endpoint: &'static str, status: u16, duration_us: u64) {
        let class = match status {
            100..=199 => "1xx",
            200..=299 => "2xx",
            300..=399 => "3xx",
            400..=499 => "4xx",
            _ => "5xx",
        };
        self.registry
            .counter(
                "trial_requests_total",
                "HTTP requests handled, by endpoint and status class.",
                &[("endpoint", endpoint), ("status", class)],
            )
            .inc();
        self.registry
            .histogram(
                "trial_request_duration_us",
                "End-to-end request latency in microseconds, by endpoint.",
                &[("endpoint", endpoint)],
                LATENCY_BUCKETS_US,
            )
            .observe(duration_us);
    }

    /// Records one request phase (`parse`/`plan`/`admission`/`eval`/
    /// `serialize`) duration.
    pub(crate) fn observe_phase(&self, phase: &'static str, duration_us: u64) {
        self.registry
            .histogram(
                "trial_phase_duration_us",
                "Request-phase latency in microseconds.",
                &[("phase", phase)],
                LATENCY_BUCKETS_US,
            )
            .observe(duration_us);
    }

    /// Counts one cancelled query by its reason kind: `deadline_exceeded`
    /// lands on the timeout counter, shutdown/disconnect on the cancelled
    /// counter. Both the buffered 408/503 path and the mid-stream trailer
    /// path report through here, so the counters see every cancellation
    /// regardless of response framing.
    pub(crate) fn observe_cancel(&self, kind: &str) {
        if kind == "deadline_exceeded" {
            self.queries_timeout.inc();
        } else {
            self.queries_cancelled.inc();
        }
    }

    /// Records one structured error (`trial_errors_total{kind=...}`); kinds
    /// are the server's fixed error vocabulary, so cardinality is bounded.
    pub(crate) fn observe_error(&self, kind: &str) {
        self.registry
            .counter(
                "trial_errors_total",
                "Structured error responses, by error kind.",
                &[("kind", kind)],
            )
            .inc();
    }

    /// Folds a fresh evaluation's work counters into the surface.
    pub(crate) fn observe_eval(&self, stats: &EvalStats) {
        self.hash_tables_built.add(stats.hash_tables_built);
        self.parallel_morsels.add(stats.parallel_morsels);
        self.topk_buffered_peak.set_max(stats.topk_buffered_peak);
    }

    /// Records the number of rows rendered into one `/query` response.
    pub(crate) fn observe_rows(&self, rows: u64) {
        self.rows_returned.observe(rows);
    }

    /// Records one analyzed run's per-node estimate errors: for every node
    /// that reported an actual row count, `|est − actual| · 100 /
    /// max(actual, 1)` lands in the `est_error_pct` histogram.
    pub(crate) fn observe_est_errors(&self, analyzed: &AnalyzedEvaluation) {
        let nodes = analyzed.plan.root.preorder();
        for (node, actual) in nodes.into_iter().zip(&analyzed.actuals) {
            let Some(actual) = *actual else { continue };
            let est = node.est() as u64;
            self.est_error_pct
                .observe(est.abs_diff(actual).saturating_mul(100) / actual.max(1));
        }
    }
}
