//! The [`Engine`] trait, evaluation options and instrumentation counters.

use crate::cancel::CancelToken;
use trial_core::{Expr, Result, TripleSet, Triplestore};

/// Counters describing *how much work* an evaluation performed.
///
/// The paper's complexity results (Theorem 3, Propositions 4 and 5) are
/// statements about the number of elementary steps, not about wall-clock
/// time on a particular machine. Engines therefore count their dominant
/// operations so that benchmarks can verify the *shape* of the bounds
/// (quadratic vs. cubic vs. `|O|·|T|`) directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalStats {
    /// Candidate pairs of triples inspected by join operators (the inner
    /// loop of Procedure 1 / the probe count of a hash join).
    pub pairs_considered: u64,
    /// Triples emitted by joins and selections before deduplication.
    pub triples_emitted: u64,
    /// Triples scanned by selections and set operations.
    pub triples_scanned: u64,
    /// Fixpoint rounds executed across all Kleene stars.
    pub fixpoint_rounds: u64,
    /// Number of join operations executed (including the joins performed
    /// inside star fixpoints).
    pub joins_executed: u64,
    /// Edges traversed by the specialised reachability procedures of
    /// Proposition 5 (BFS relaxations).
    pub reach_edges_traversed: u64,
    /// Sub-expression evaluations answered from the memo cache.
    pub memo_hits: u64,
    /// Morsels executed on parallel worker threads (0 for a fully
    /// single-threaded evaluation — the signal behind the server's
    /// parallel/sequential query counters).
    pub parallel_morsels: u64,
    /// Hash tables built by join operators (hash-join build sides, including
    /// the build-once tables inside star fixpoints). A merge join performs
    /// none — this counter is how the ordered test-suite asserts that a
    /// two-sided ordered scan join really runs allocation-free.
    pub hash_tables_built: u64,
    /// Peak number of candidate rows buffered by any top-k heap — bounded by
    /// `k` by construction, which is what makes `?topk=` memory-safe over
    /// arbitrarily large inputs. Merged with `max`, not `+` (it is a high
    /// watermark, not a volume).
    pub topk_buffered_peak: u64,
}

impl EvalStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        EvalStats::default()
    }

    /// Sums counters element-wise (useful when aggregating across runs).
    pub fn merge(&mut self, other: &EvalStats) {
        self.pairs_considered += other.pairs_considered;
        self.triples_emitted += other.triples_emitted;
        self.triples_scanned += other.triples_scanned;
        self.fixpoint_rounds += other.fixpoint_rounds;
        self.joins_executed += other.joins_executed;
        self.reach_edges_traversed += other.reach_edges_traversed;
        self.memo_hits += other.memo_hits;
        self.parallel_morsels += other.parallel_morsels;
        self.hash_tables_built += other.hash_tables_built;
        self.topk_buffered_peak = self.topk_buffered_peak.max(other.topk_buffered_peak);
    }

    /// A single scalar summarising the dominant work performed: the sum of
    /// pair inspections, scans and reachability edge traversals. Benchmarks
    /// plot this against `|T|` to observe the growth exponent.
    pub fn work(&self) -> u64 {
        self.pairs_considered + self.triples_scanned + self.reach_edges_traversed
    }
}

/// The outcome of evaluating an expression: the result triples plus the work
/// counters accumulated while computing them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Evaluation {
    /// The triples in `e(T)`.
    pub result: TripleSet,
    /// Work counters.
    pub stats: EvalStats,
}

/// Tunable limits and resources for evaluation.
///
/// Not `Copy`: the embedded [`CancelToken`] is reference-counted, so options
/// propagate through the engine by (cheap) `clone()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalOptions {
    /// Maximum number of triples the universal relation `U` (and therefore a
    /// complement) may materialise before evaluation aborts with
    /// [`trial_core::Error::LimitExceeded`]. `U` has `|adom|³` triples, so
    /// this guards against accidentally cubing a large store.
    pub max_universe: usize,
    /// Upper bound on fixpoint rounds per Kleene star. The semantics needs
    /// at most `|adom|³` rounds (Procedure 2 of the paper); the default is
    /// effectively unlimited and exists to catch engine bugs.
    pub max_fixpoint_rounds: u64,
    /// Degree of intra-query parallelism: the number of worker threads
    /// morsel-parallel operators may use (see the *Parallel execution*
    /// section of the crate docs). `1` (the built-in default) is the
    /// single-threaded path; `n > 1` lets the set work that breakers own
    /// split into morsels executed on a scoped worker pool: hash-join
    /// builds, filtered index scans a breaker materialises, semi-naive
    /// rounds, and the per-source Proposition 5 closures (`StarReach`,
    /// `PathNfa`) a breaker materialises; the stream exchange fans out an
    /// ordered root. Cursors run on the thread that pulls them. Results are
    /// identical for every value (the differential suite proves it); only
    /// wall-clock changes.
    ///
    /// The environment variable `TRIAL_EVAL_THREADS` overrides the default
    /// (read once per process), which is how CI runs the whole test suite a
    /// second time with parallelism on.
    ///
    /// The requested degree is honoured as-is: values above the host's
    /// available parallelism **oversubscribe** (morsel workers are scoped
    /// and joined per operator, so this is bounded churn, not a fork bomb —
    /// and it is exactly what the differential suite uses to exercise the
    /// multi-thread paths on small machines). Speedup is physically capped
    /// by the core count; [`crate::available_threads`] reports it, and
    /// `trial-serve --eval-threads 0` auto-detects it.
    pub threads: usize,
    /// Inputs smaller than this many rows are never split into morsels —
    /// below it, thread spawn/join overhead dwarfs the work. Tests set it to
    /// 0 to force the parallel code paths on tiny stores.
    pub parallel_min_rows: usize,
    /// Sampling stride for per-node wall-clock profiling on **regular**
    /// evaluations ([`crate::SmartEngine::analyze`] always profiles at
    /// stride 1, whatever this says): `0` disables the profiler entirely (the
    /// default — zero overhead), `n ≥ 1` wraps every cursor in a timing
    /// shim that measures one in `n` pulls and scales the estimate by `n`
    /// (see [`crate::profile::NodeProfile`]). Row counts stay exact at any
    /// stride. The server's slow-query flight recorder turns this on to
    /// attach per-operator timings to sampled production queries.
    ///
    /// The environment variable `TRIAL_PROFILE_SAMPLE` overrides the default
    /// (read once per process), which is how CI reruns the whole suite with
    /// the profiling shims active.
    pub profile_sample: u32,
    /// Cooperative cancellation/deadline handle (see [`crate::cancel`]).
    /// The default is the inert token — no deadline, no cancellation, and a
    /// single-branch fast path at every checkpoint. When armed, the token is
    /// honored at cursor pull boundaries, morsel worker loops, exchange
    /// pumps, fixpoint rounds, BFS frontiers, and hash/sort/top-k builds:
    /// Result-returning layers fail with [`trial_core::Error::Cancelled`]
    /// and infallible cursor pulls end their stream early.
    pub cancel: CancelToken,
}

/// The process-wide default for [`EvalOptions::threads`]: the
/// `TRIAL_EVAL_THREADS` environment variable if set to a positive integer
/// (read once), otherwise 1.
pub fn default_threads() -> usize {
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("TRIAL_EVAL_THREADS")
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1)
    })
}

/// The process-wide default for [`EvalOptions::profile_sample`]: the
/// `TRIAL_PROFILE_SAMPLE` environment variable if set to a non-negative
/// integer (read once), otherwise 0 (profiling off).
pub fn default_profile_sample() -> u32 {
    static DEFAULT: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("TRIAL_PROFILE_SAMPLE")
            .ok()
            .and_then(|raw| raw.trim().parse::<u32>().ok())
            .unwrap_or(0)
    })
}

impl EvalOptions {
    /// The morsel-parallel degree for an operator over `rows` input rows:
    /// [`EvalOptions::threads`] when parallelism is on and the input reaches
    /// [`EvalOptions::parallel_min_rows`], 1 otherwise. The one place the
    /// executor, the fixpoint and the stream exchange decide to fan out.
    pub fn degree(&self, rows: usize) -> usize {
        if self.threads > 1 && rows >= self.parallel_min_rows {
            self.threads
        } else {
            1
        }
    }
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            max_universe: 20_000_000,
            max_fixpoint_rounds: u64::MAX,
            threads: default_threads(),
            parallel_min_rows: 2048,
            profile_sample: default_profile_sample(),
            cancel: CancelToken::none(),
        }
    }
}

/// A query evaluation strategy for TriAL\* expressions.
///
/// Implementations must agree on semantics — the test-suite checks them
/// against each other — and differ only in the algorithms used.
pub trait Engine {
    /// Human-readable engine name, used in benchmark reports.
    fn name(&self) -> &'static str;

    /// Computes `e(T)` together with work counters.
    fn evaluate(&self, expr: &Expr, store: &Triplestore) -> Result<Evaluation>;

    /// Convenience: evaluate and discard the statistics.
    fn run(&self, expr: &Expr, store: &Triplestore) -> Result<TripleSet> {
        Ok(self.evaluate(expr, store)?.result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_and_work() {
        let mut a = EvalStats {
            pairs_considered: 10,
            triples_emitted: 5,
            triples_scanned: 3,
            fixpoint_rounds: 2,
            joins_executed: 1,
            reach_edges_traversed: 7,
            memo_hits: 1,
            parallel_morsels: 4,
            hash_tables_built: 2,
            topk_buffered_peak: 5,
        };
        let b = EvalStats {
            pairs_considered: 1,
            triples_emitted: 1,
            triples_scanned: 1,
            fixpoint_rounds: 1,
            joins_executed: 1,
            reach_edges_traversed: 1,
            memo_hits: 1,
            parallel_morsels: 2,
            hash_tables_built: 1,
            topk_buffered_peak: 3,
        };
        a.merge(&b);
        assert_eq!(a.pairs_considered, 11);
        assert_eq!(a.fixpoint_rounds, 3);
        assert_eq!(a.memo_hits, 2);
        assert_eq!(a.parallel_morsels, 6);
        assert_eq!(a.hash_tables_built, 3);
        // The heap peak is a high watermark: merge takes the max.
        assert_eq!(a.topk_buffered_peak, 5);
        assert_eq!(a.work(), 11 + 4 + 8);
        assert_eq!(EvalStats::new(), EvalStats::default());
    }

    #[test]
    fn default_options_are_permissive() {
        let opts = EvalOptions::default();
        assert!(opts.max_universe >= 1_000_000);
        assert_eq!(opts.max_fixpoint_rounds, u64::MAX);
        // The default degree comes from TRIAL_EVAL_THREADS (or 1), so the
        // suite can run with parallelism on; it is always at least 1.
        assert!(opts.threads >= 1);
        assert_eq!(opts.threads, default_threads());
        assert!(opts.parallel_min_rows > 0);
        // The default stride comes from TRIAL_PROFILE_SAMPLE (or 0), so CI
        // can rerun the suite with the profiling shims active.
        assert_eq!(opts.profile_sample, default_profile_sample());
        // The default token is inert: no deadline, nothing to cancel.
        assert!(!opts.cancel.is_armed());
    }
}
