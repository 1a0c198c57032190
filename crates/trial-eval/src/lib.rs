//! # trial-eval
//!
//! Query evaluation for TriAL and TriAL\* expressions (Section 5 of
//! *"TriAL for RDF"*, PODS 2013).
//!
//! The crate ships several interchangeable engines behind the [`Engine`]
//! trait so that the paper's complexity claims can be measured as ablations
//! on identical expressions and data:
//!
//! * [`NaiveEngine`] — the literal algorithms of Theorem 3: nested-loop
//!   joins (`O(|T|²)` per join) and naive fixpoint iteration of Kleene
//!   stars (`O(|T|³)` per star).
//! * [`SmartEngine`] — the production engine: a cost-based planner compiles
//!   every expression into a physical [`Plan`] executed against the store's
//!   permutation indexes (see *Query planning* below).
//!
//! # Query planning
//!
//! The [`SmartEngine`] never interprets the logical
//! [`Expr`](trial_core::Expr) tree directly. Each evaluation first runs
//! [`SmartEngine::plan_query`], which compiles the expression into a tree of
//! physical [`PlanNode`]s over the store's lazily-cached permutation indexes
//! ([`trial_core::index`]): selections with constants become index-scan
//! bindings, joins with cross equalities become hash joins (the
//! Proposition 4 optimisation) or index nested-loop joins probing a stored
//! relation — with the argument order chosen from relation cardinalities
//! and per-component distinct-value statistics — reachTA⁼ stars become the
//! Proposition 5 reachability walk over the base's SPO run, all
//! other stars become build-once semi-naive fixpoints, and repeated
//! sub-expressions are memoised. [`explain`] (or [`Plan::explain`]) renders
//! the chosen plan, e.g. for Example 2 of the paper
//! (`E ✶^{1,3',3}_{2=1'} E`) on the Figure 1 store — a sort-merge join of
//! the POS permutation against the SPO permutation on the shared component:
//!
//! ```text
//! MergeJoin [1,3',3 | 2=1'] on 2=1'  (~7 rows) [merge pos⋈spo]
//! ├─ IndexScan E order=pos  (7 rows)
//! ╰─ IndexScan E  (7 rows)
//! ```
//!
//! ```
//! use trial_core::builder::queries;
//! use trial_core::TriplestoreBuilder;
//!
//! let mut b = TriplestoreBuilder::new();
//! b.add_triple("E", "Edinburgh", "TrainOp1", "London");
//! b.add_triple("E", "TrainOp1", "part_of", "EastCoast");
//! let store = b.finish();
//!
//! let plan = trial_eval::explain(&queries::example2("E"), &store).unwrap();
//! assert!(plan.contains("MergeJoin"));
//! assert!(plan.contains("IndexScan E"));
//! ```
//!
//! The `examples/explain.rs` example at the repository root walks the
//! paper's running queries and prints each plan next to its work counters.
//!
//! # Execution model
//!
//! One walk; breakers own their set work. The executor ([`exec`]) compiles
//! every physical operator into a [`Cursor`] ([`cursor`]) that yields one
//! triple per pull and performs work only when pulled. The paper's Theorem 3
//! prices evaluation per triple produced, and the pipeline makes that price
//! real: a consumer that stops after ten triples pays for ten triples, not
//! for the full intermediate relations. The walk runs behind every
//! [`QueryStream`] ([`SmartEngine::stream`]), and a full result
//! ([`SmartEngine::execute`]) is the root's cursor drained into a
//! [`TripleSet`](trial_core::TripleSet).
//!
//! A pipeline breaker fills its blocking input while its cursor is built,
//! and that set work is the breaker's own: an index scan hands over its
//! stored run (copied through a residual filter, [`ops::select`], when it
//! has one), a memo slot its shared set, and a closure computes its set
//! (semi-naive rounds, or the per-source Proposition 5 closures of
//! [`reach`] and [`rpq`]). Any other input is its own cursor, drained.
//! The reference that the differential suites hold the engine to is the
//! independent [`NaiveEngine`], not a second mode of this engine.
//!
//! **Joins see only the positions they use.** Every keyed join reads each
//! side through its U-projection: a probe row whose projection already
//! probed is skipped, and build sides and merge groups keep one row per
//! projection (the U rule, stated in [`ops`]). The plan does not change,
//! and neither does the order in which distinct rows arrive; only
//! `pairs_considered` and `triples_emitted` fall. This is what holds TriAL⁼
//! joins to Proposition 4's O(|O|·|T|) on dense stores.
//!
//! **Streaming operators** (first row costs O(1) beyond their children):
//! index scans (over the store's cached SPO/POS/OSP permutation runs,
//! zero-copy), selections, unions (merging when both inputs stream in
//! canonical order, concatenating otherwise), hash-join *probe* sides,
//! index nested-loop joins, complements (the universe `adom³` is enumerated
//! lazily), NFA path walks (one root per refill), and limits.
//!
//! **Pipeline breakers** (materialise an input before the first row):
//! hash-join *build* sides, nested-loop / difference / intersection *right*
//! sides, complement inputs, Kleene-star inputs and fixpoints, and memo
//! slots. A Proposition 5 star materialises only its base: its closure then
//! streams one `(x, ℓ)` source per refill, in SPO order, so a limit or an
//! SPO top-k above it stops after the first sources.
//! [`PlanNode::pipelined`] exposes the distinction and `explain()` tags
//! every node `[pipelined]` or `[breaker]`.
//!
//! **Limit pushdown** ([`SmartEngine::plan_query`] with a limit): a
//! result-cardinality bound becomes a [`PlanNode::Limit`] that folds into
//! nested limits and distributes through unions; the cursor pipeline then
//! terminates the entire pipeline after `k` *distinct* triples. Constant
//! selections likewise distribute through union/difference/intersection down
//! to index-scan bindings.
//!
//! # Ordered execution
//!
//! Every operator advertises the sort order its output streams in —
//! [`PlanNode::ordering`] returns the [`trial_core::Permutation`]
//! (`spo`/`pos`/`osp`) whose key is strictly increasing across the emitted
//! rows, or `None`. Because permutation keys order all three components, an
//! ordered stream is automatically duplicate-free, which is what makes the
//! following cheap:
//!
//! * **Merge joins** ([`PlanNode::MergeJoin`]) — when both join inputs can
//!   stream sorted on the two sides of a cross equality *for free* (an
//!   unbound scan just picks the permutation keyed on the joined component:
//!   `E ✶_{2=1'} E` merges POS against SPO), the planner emits a fully
//!   pipelined sort-merge join: **no build side, no hash table**
//!   ([`EvalStats::hash_tables_built`] stays 0), only the current right-side
//!   key group buffered. Merge beats hash whenever both orders are free;
//!   an index nested-loop probe is still chosen when its outer side is ≫
//!   smaller than the two linear scans (factor 8 in the cost gate), and
//!   the planner never *inserts a sort* just to enable a merge join.
//! * **Order delivery** ([`SmartEngine::plan_query`] with an order) —
//!   requesting an output order rewrites the plan so the root streams in that permutation's key
//!   order: unbound scans switch permutation, filters / difference and
//!   intersection left sides / merge unions pass the requirement down, and
//!   only when nothing below can deliver does an explicit
//!   [`PlanNode::Sort`] breaker materialise and re-sort. `explain()` tags
//!   the imposed orders (`[merge pos⋈spo]`, `[sort pos]`, `[topk osp]`).
//! * **Top-k pushdown** ([`PlanNode::TopK`]) — "the k smallest by component
//!   ordering" generalises the limit machinery: a bounded heap of at most
//!   `k` permutation keys (peak recorded in
//!   [`EvalStats::topk_buffered_peak`]) consumes the stream and re-emits the
//!   survivors in key order. Top-k bounds fold, distribute through unions,
//!   drop redundant same-order sorts, and collapse to a plain streaming
//!   [`PlanNode::Limit`] whenever the input already delivers the order —
//!   the first `k` rows of an ordered stream *are* the `k` smallest, so
//!   `?topk=` over a scan terminates early without any heap. Unlike a
//!   streamed limit, a top-k result is **deterministic** (permutation keys
//!   are total), so the heap is held to set equality with the `k` smallest
//!   rows of the naive engine's result by `tests/ordered_differential.rs`.
//!
//! Ordering metadata is deliberately conservative: joins never claim an
//! order (duplicate emissions break strictness even when the projection
//! wouldn't) — except the identity-output merge join, which the executor
//! runs as a semijoin (each left row emitted at most once) so its output is
//! a subsequence of the ordered left input. The differential suite's
//! `every_claimed_order_is_real` property streams each claimed-ordered root
//! and asserts the rows really arrive strictly key-ascending.
//!
//! Two further order sources feed the planner:
//!
//! * **secondary orders** — a bound index run (one component fixed) is
//!   strictly sorted under *two* permutations: the one it was read from and
//!   that permutation's [`trial_core::Permutation::secondary`] (a bound POS
//!   run is also OSP-sorted). Declaring the secondary order on a bound scan
//!   costs nothing physically and unlocks merge joins between two bound
//!   scans — shapes that previously always built hash tables — as well as
//!   sort-free `?order=` delivery over selections.
//! * **interesting orders** — [`SmartEngine::plan_query`] pushes the
//!   requested root order down into join planning, so an identity-output join picks the
//!   merge key (and prefers a merge over an index probe) that makes the
//!   root stream in the requested order natively, dissolving the final
//!   [`PlanNode::Sort`].
//!
//! # Path queries
//!
//! [`rpq`] evaluates **regular path queries** — [`trial_parser::PathExpr`]
//! expressions built from label atoms, `/` concatenation, `|` alternation
//! and the `*`/`+`/`?` closures — over one edge relation, returning the
//! reachable node pairs `(x, y)` encoded as triples `(x, x, y)`. One
//! evaluator answers them, the **NFA product walk**
//! ([`rpq::eval_on_store`]): the expression compiles to its position
//! automaton ([`rpq::Nfa`]: one state per atom and no moves on the empty
//! word, so stacked closures cost what one closure costs) and a BFS
//! explores the product of the graph with the automaton over the
//! relation's SPO run, with optional per-walk hop bounds (`max_hops`),
//! root-partitioned parallelism and cancellation checkpoints.
//! Its plan is a [`PlanNode::PathNfa`] leaf that streams root by root, so a
//! limit or an SPO top-k above it stops after the first roots; the entry
//! points are [`SmartEngine::plan_path_query`] /
//! [`SmartEngine::stream_path_query`].
//!
//! [`rpq::lower`] is Theorem 7 made executable: a total translation into the
//! TriAL algebra (atoms become label-bound selections self-joined to the
//! `(x, x, y)` shape, concatenation becomes composition joins, closures
//! become right-star fixpoints). The result is an ordinary
//! [`Expr`](trial_core::Expr) any engine runs. It is the witness the walk is
//! held to — `tests/rpq_differential.rs` checks both against an independent
//! reachability reference — not a second way to answer `/path`: the walk
//! was faster on every case `tables e15` measures.
//!
//! # Parallel execution
//!
//! [`EvalOptions::threads`]` = n` enables **morsel-driven intra-query
//! parallelism** ([`parallel`]): set work is carved into contiguous morsels
//! and executed on a scoped `std::thread` worker pool. The default is 1
//! (the single-threaded path); `TRIAL_EVAL_THREADS` overrides the process
//! default, which is how CI runs the suite a second time with parallelism
//! on.
//!
//! The degree is an **argument**, not a second operator: each set kernel
//! runs its morsels inline when the degree is 1. `parallel::chunk` is the
//! only splitter (of slices, of scanned permutation runs and of a stream's
//! exchange fan-out), and [`EvalOptions::degree`] is the only rule for when
//! an operator fans out.
//!
//! **What fans out** (tagged `[parallel×N]` by `explain()`) is the set work
//! that breakers own; cursors run on the thread that pulls them:
//!
//! * **hash joins** — the build side is sharded across workers and merged
//!   shard-by-shard (bucket order identical to a sequential build);
//! * **filtered index scans** a breaker materialises — the scanned run
//!   splits into morsels (order-preserving: morsel outputs concatenate in
//!   run order);
//! * **star fixpoints** — semi-naive rounds partition each round's delta
//!   across workers probing the build-once hash table;
//! * **Proposition 5 closures** a breaker materialises — `StarReach` and
//!   `PathNfa` partition their sources over the shared SPO run;
//! * **the stream exchange** — [`QueryStream::channel`] runs an ordered,
//!   morselizable root as one producer per morsel of its scan.
//!
//! **Fallback rules.** Operators stay at degree 1 beneath
//! [`EvalOptions::parallel_min_rows`] (morsel overhead beats the work on
//! small inputs; the heuristic default is a few thousand rows). Results are
//! **identical** at every degree: morsels are contiguous and their outputs
//! concatenate in input order, so even pre-deduplication row sequences match
//! the single-threaded run. Work counters are **equal** at every degree:
//! they are exact sums over the morsels. `tests/parallel_differential.rs`
//! holds both against the naive engine across `threads ∈ {1, 2, 4}`, with
//! [`EvalStats::parallel_morsels`] recording the fan-out.
//!
//! # Instrumentation
//!
//! Every evaluation returns an [`Evaluation`] bundling the result
//! [`TripleSet`](trial_core::TripleSet) with [`EvalStats`] —
//! machine-readable counters (candidate pairs inspected, fixpoint rounds,
//! output sizes) that expose the *shape* of the computation independently of
//! wall-clock time; the benchmark harness uses them to check the paper's
//! asymptotic claims.
//!
//! ```
//! use trial_core::builder::queries;
//! use trial_core::TriplestoreBuilder;
//! use trial_eval::evaluate;
//!
//! let mut b = TriplestoreBuilder::new();
//! b.add_triple("E", "Edinburgh", "TrainOp1", "London");
//! b.add_triple("E", "TrainOp1", "part_of", "EastCoast");
//! let store = b.finish();
//!
//! let eval = evaluate(&queries::example2("E"), &store).unwrap();
//! assert_eq!(
//!     store.display_triples(&eval.result),
//!     vec!["(Edinburgh, EastCoast, London)".to_string()]
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod compile;
pub mod cursor;
pub mod engine;
pub mod exec;
pub mod naive;
pub mod ops;
pub mod parallel;
pub mod plan;
pub mod planner;
pub mod profile;
pub mod reach;
pub mod rpq;
pub mod seminaive;

pub use cancel::{CancelChecker, CancelReason, CancelToken, CANCEL_CHECK_STRIDE};
pub use cursor::{Cursor, QueryStream};
pub use engine::{
    default_profile_sample, default_threads, Engine, EvalOptions, EvalStats, Evaluation,
};
pub use naive::NaiveEngine;
pub use parallel::{available_threads, Exchange};
pub use plan::{Plan, PlanNode};
pub use planner::{evaluate, explain, AnalyzedEvaluation, SmartEngine};
pub use profile::{NodeProfile, QueryProfile};
pub use rpq::PathStrategy;

// Compile-time thread-safety contract: `trial-server` evaluates queries with
// a shared `SmartEngine` from many worker threads and caches `Plan`s keyed by
// query text. Locking `Send + Sync` in here means a regression (e.g. a
// `RefCell` memo slot) is caught at the source, not in the server build.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SmartEngine>();
    assert_send_sync::<NaiveEngine>();
    assert_send_sync::<Plan>();
    assert_send_sync::<PlanNode>();
    assert_send_sync::<EvalOptions>();
    assert_send_sync::<Evaluation>();
};
