//! The cost-based query planner and the production [`SmartEngine`].
//!
//! Planning turns a logical [`Expr`] tree into a physical [`Plan`] over the
//! store's permutation indexes ([`trial_core::index`]), choosing for every
//! operator the cheapest applicable strategy:
//!
//! * **selection pushdown** — constant equalities move into
//!   [`PlanNode::IndexScan`] bindings answered from the matching permutation
//!   (SPO/POS/OSP) in `O(log |R|)`; nested selections are merged; a
//!   selection on an object name absent from the store folds to
//!   [`PlanNode::Empty`];
//! * **join strategy and order** — joins with cross equalities become
//!   [`PlanNode::HashJoin`]s (the Proposition 4 optimisation) with the
//!   *smaller* estimated side as the build side (arguments are swapped via
//!   the mirroring identity when needed), or
//!   [`PlanNode::IndexNestedLoopJoin`]s probing a base relation's cached
//!   permutation index when one side is a stored relation; key order is
//!   chosen by per-component distinct-value statistics;
//! * **recursion strategy** — Kleene stars matching a reachTA⁼ shape are
//!   routed to the Proposition 5 procedures ([`PlanNode::StarReach`]),
//!   one BFS per root over the base's SPO run; all other stars run as
//!   build-once semi-naive fixpoints
//!   ([`PlanNode::StarSemiNaive`]);
//! * **memoisation** — structurally repeated sub-expressions are wrapped in
//!   [`PlanNode::Memo`] slots and executed once.
//!
//! Cardinality estimates come from exact relation sizes and per-component
//! distinct counts (from [`trial_core::RelationIndex::distinct_counts`]) and
//! textbook selectivity heuristics everywhere else.
//!
//! There is one way in per query kind — [`SmartEngine::plan_query`] for an
//! expression, [`SmartEngine::plan_path_query`] for an NFA path walk — and
//! everything after planning consumes the [`Plan`]: [`SmartEngine::stream`],
//! [`SmartEngine::stream_after`], [`SmartEngine::execute`] and
//! [`SmartEngine::analyze`]. The free functions [`evaluate`] and [`explain`]
//! are shorthands over a default engine.

use crate::cursor::QueryStream;
use crate::engine::{Engine, EvalOptions, EvalStats, Evaluation};
use crate::exec::{Executor, ScanAccess};
use crate::plan::{Plan, PlanNode};
use std::collections::{HashMap, HashSet};
use trial_core::condition::{Cmp, ObjAtom, ObjOperand};
use trial_core::fragment::is_reachability_star;
use trial_core::{Conditions, Expr, ObjectId, Permutation, Pos, Result, Triplestore};
use trial_parser::PathExpr;

/// The default, optimisation-enabled evaluation engine: plans every query
/// with [`SmartEngine::plan_query`] and executes the physical plan against
/// the store's permutation indexes.
#[derive(Debug, Clone, Default)]
pub struct SmartEngine {
    /// Evaluation options (limits, parallelism, profiling, cancellation).
    pub options: EvalOptions,
}

impl SmartEngine {
    /// Creates the engine with default options.
    pub fn new() -> Self {
        SmartEngine::default()
    }

    /// Creates the engine with explicit options.
    pub fn with_options(options: EvalOptions) -> Self {
        SmartEngine { options }
    }

    /// Plans `expr` over `store` without executing it, compiling an output
    /// order, a top-k bound and/or a result-cardinality limit into the plan
    /// — the planner behind the server's `?order=`/`?topk=`/`?limit=`
    /// parameters. With all three `None` the plan computes the full result.
    ///
    /// * With `topk = Some(k)` the plan computes the `k` smallest distinct
    ///   triples under `order`'s permutation key (`order` defaults to
    ///   `spo`): `push_topk` distributes the bound through unions, folds
    ///   nested top-ks, and turns it into a plain [`PlanNode::Limit`]
    ///   wherever the input already streams in the target order (the first
    ///   `k` of an ordered stream *are* the `k` smallest — early termination
    ///   for free). Elsewhere a [`PlanNode::TopK`] bounded heap does the
    ///   work; no sort is ever inserted on this path.
    /// * With only `order = Some(p)` the plan's root is rewritten to stream
    ///   in `p`'s key order: unbound scans switch permutation and
    ///   order-preserving operators pass the requirement down
    ///   (`ensure_order`); if no operator below can deliver, an explicit
    ///   [`PlanNode::Sort`] breaker is inserted at the root.
    /// * `limit` is then pushed as deep as set semantics allow
    ///   (`push_limit`); it never disturbs the delivered order.
    ///
    /// The requested order (explicit, or the key a top-k bound ranks by) is
    /// also the planner's **interesting order**: join planning can choose
    /// merge keys that deliver it natively, so the rewrites above find an
    /// already-ordered root instead of inserting a breaker.
    pub fn plan_query(
        &self,
        expr: &Expr,
        store: &Triplestore,
        limit: Option<usize>,
        order: Option<Permutation>,
        topk: Option<usize>,
    ) -> Result<Plan> {
        expr.validate()?;
        let rank = topk.map(|_| order.unwrap_or(Permutation::Spo));
        let mut planner = Planner {
            store,
            interesting: rank.or(order),
            repeated: repeated_subexpressions(expr),
            slots: HashMap::new(),
        };
        let root = planner.plan_expr(expr)?;
        Ok(self.bounded_plan(root, planner.slots.len(), limit, order, topk))
    }

    /// Plans a path query executed as an NFA product walk: a
    /// [`PlanNode::PathNfa`] leaf over `relation`, with the same
    /// limit/order/top-k rewrites as [`SmartEngine::plan_query`] applied on
    /// top. The leaf materialises in canonical SPO order, so `?order=spo` and
    /// SPO top-k bounds collapse to plain streaming limits; other orders
    /// insert the usual sort breaker.
    ///
    /// This is the **NFA strategy** entry point. Path queries whose strategy
    /// resolves to the TriAL lowering instead go through
    /// [`SmartEngine::plan_query`] with [`crate::rpq::lower`]'s output — that
    /// is the whole point of the lowering.
    ///
    /// Fails fast when `relation` is not stored — the walk has nothing to
    /// traverse, and the server wants the 404-equivalent before streaming.
    #[allow(clippy::too_many_arguments)]
    pub fn plan_path_query(
        &self,
        path: &PathExpr,
        relation: &str,
        store: &Triplestore,
        max_hops: Option<usize>,
        limit: Option<usize>,
        order: Option<Permutation>,
        topk: Option<usize>,
    ) -> Result<Plan> {
        let base = store.require_relation(relation)?;
        let root = PlanNode::PathNfa {
            relation: relation.to_owned(),
            path: path.clone(),
            max_hops,
            // Stats-free estimate: one pair per (root, reachable node) is
            // bounded by nodes², but on sparse graphs the edge count is the
            // better proxy — and the leaf has no join above it that the
            // number could mislead.
            est: base.len().max(1),
        };
        Ok(self.bounded_plan(root, 0, limit, order, topk))
    }

    /// Applies the top-k / order / limit rewrites to a planned root — the
    /// one place an expression plan and a path plan stop differing.
    fn bounded_plan(
        &self,
        mut root: PlanNode,
        memo_slots: usize,
        limit: Option<usize>,
        order: Option<Permutation>,
        topk: Option<usize>,
    ) -> Plan {
        if let Some(k) = topk {
            root = push_topk(root, k, order.unwrap_or(Permutation::Spo));
        } else if let Some(perm) = order {
            root = ensure_order(root, perm);
        }
        if let Some(k) = limit {
            root = push_limit(root, k);
        }
        Plan {
            root,
            memo_slots,
            threads: self.options.threads.max(1),
        }
    }

    /// Plans `expr` ([`SmartEngine::plan_query`]) and compiles the plan into
    /// a [`QueryStream`] ([`SmartEngine::stream`]).
    pub fn stream_query<'s>(
        &self,
        expr: &Expr,
        store: &'s Triplestore,
        limit: Option<usize>,
        order: Option<Permutation>,
        topk: Option<usize>,
    ) -> Result<QueryStream<'s>> {
        self.stream(self.plan_query(expr, store, limit, order, topk)?, store)
    }

    /// [`SmartEngine::stream_query`] for the NFA path strategy.
    #[allow(clippy::too_many_arguments)]
    pub fn stream_path_query<'s>(
        &self,
        path: &PathExpr,
        relation: &str,
        store: &'s Triplestore,
        max_hops: Option<usize>,
        limit: Option<usize>,
        order: Option<Permutation>,
        topk: Option<usize>,
    ) -> Result<QueryStream<'s>> {
        let plan = self.plan_path_query(path, relation, store, max_hops, limit, order, topk)?;
        self.stream(plan, store)
    }

    /// Compiles `plan` into a streaming [`QueryStream`] over `store` — the
    /// pull-based way to run a plan.
    ///
    /// Pipeline breakers (hash-join build sides, semi-naive star fixpoints,
    /// reach-star bases, difference right sides, memo slots, sorts) run
    /// here, at compile time; everything else — the Proposition 5 closures
    /// included — runs as the caller pulls. Dropping the stream abandons all
    /// remaining work, so a bounded consumer pays for the triples it reads,
    /// not for the full result. Row order is deterministic whenever the plan
    /// was built for an order: the root either delivers the permutation
    /// order natively or sits above an explicit sort/top-k operator.
    pub fn stream<'s>(&self, plan: Plan, store: &'s Triplestore) -> Result<QueryStream<'s>> {
        let mut stats = EvalStats::new();
        let mut executor = Executor::new(store, self.options.clone(), &plan, false);
        let root = executor.cursor(&plan.root, &mut stats)?;
        // Exchange fan-out for `QueryStream::channel`: when parallelism is
        // on and the root (beneath any peeled limit) is an ordered,
        // morselizable pipeline of worthwhile size, attach one producer
        // pipeline per morsel. Ordered morsels are duplicate-free and their
        // in-order concatenation is exactly the sequential row sequence, so
        // the exchange changes *when* rows are computed, never which or in
        // what order.
        let mut morsels = None;
        let (inner, peeled) = match &plan.root {
            PlanNode::Limit { input, limit, .. } => (&**input, Some(*limit)),
            other => (other, None),
        };
        if inner.ordering().is_some() && self.options.degree(inner.est()) > 1 {
            // Adaptive morsel granularity: size the fan-out from the
            // planner's row estimate instead of always
            // carving thread-count-equal splits — a stream barely past
            // the parallel threshold gets two full morsels instead of
            // `threads` slivers, and only estimates several thresholds
            // deep fan out to the full degree.
            let parts = if self.options.parallel_min_rows == 0 {
                self.options.threads
            } else {
                inner
                    .est()
                    .div_ceil(self.options.parallel_min_rows)
                    .clamp(2, self.options.threads)
            };
            morsels = executor
                .morsel_cursors(inner, parts, &mut stats)?
                .map(|cursors| (cursors, peeled));
        }
        let profile = executor.query_profile(&plan);
        let stream = QueryStream::new(plan, root, stats, profile, &self.options.cancel);
        Ok(match morsels {
            Some((cursors, peeled)) => stream.with_morsels(cursors, peeled),
            None => stream,
        })
    }

    /// Compiles `plan` like [`SmartEngine::stream`] but **resumed strictly
    /// after** the row whose key under `order` is `after` — the engine half
    /// of cursor pagination. `plan` is the ordered query's own plan (its
    /// root must deliver `order`); the executor seeks the root (`O(log n)`
    /// on index scans via [`trial_core::RangeCursor::seek`], linear skip
    /// otherwise), so page `n+1` never re-evaluates page `n`'s rows. Top-k
    /// queries cannot resume (their result is a bounded set, not a stream
    /// position): callers gate that out.
    pub fn stream_after<'s>(
        &self,
        plan: Plan,
        store: &'s Triplestore,
        order: Permutation,
        after: [ObjectId; 3],
    ) -> Result<QueryStream<'s>> {
        let mut stats = EvalStats::new();
        let mut executor = Executor::new(store, self.options.clone(), &plan, false);
        debug_assert_eq!(
            plan.root.ordering(),
            Some(order),
            "a seek needs an ordered root"
        );
        let root = executor
            .cursor_at(&plan.root, ScanAccess::After(order, after), &mut stats)?
            .expect("every operator compiles for a seek");
        let profile = executor.query_profile(&plan);
        Ok(QueryStream::new(
            plan,
            root,
            stats,
            profile,
            &self.options.cancel,
        ))
    }

    /// Runs `plan` to its full result set.
    ///
    /// The same walk as [`SmartEngine::stream`]: the root's cursor is
    /// drained into a set, and the breakers beneath it own their set work
    /// (index scans, memo slots and closures compute their sets directly,
    /// and those fan out at [`EvalOptions::threads`]` > 1`). A limited or top-k subtree stops
    /// pulling the moment its bound is reached. A limited result is the
    /// first `limit` distinct triples that pipeline yields — for an ordered
    /// input exactly the `limit` smallest under its order — and a top-k
    /// result is the `k` smallest distinct triples under the permutation
    /// key.
    pub fn execute(&self, plan: &Plan, store: &Triplestore) -> Result<Evaluation> {
        let mut stats = EvalStats::new();
        let mut executor = Executor::new(store, self.options.clone(), plan, false);
        let result = executor.materialize(&plan.root, &mut stats)?;
        Ok(Evaluation { result, stats })
    }

    /// [`SmartEngine::execute`] while also recording every plan node's
    /// **actual** output cardinality and an exact per-node wall-clock
    /// profile — the `EXPLAIN ANALYZE` entry point behind the server's
    /// `/explain?analyze=1`.
    ///
    /// Comparing actuals to the per-node `est` exposes the selectivity
    /// mis-estimates that would mislead morsel sizing (and build-side
    /// choices). Node indexing follows [`PlanNode::preorder`] of the
    /// returned plan. A node's actual is the number of rows it produced: its
    /// set's size when the executor computed the set directly, else the rows
    /// pulled through its cursor — beneath a [`PlanNode::Limit`], the
    /// rows it yielded before the limit stopped pulling.
    pub fn analyze(&self, plan: Plan, store: &Triplestore) -> Result<AnalyzedEvaluation> {
        let mut stats = EvalStats::new();
        let mut executor = Executor::new(store, self.options.clone(), &plan, true);
        let result = executor.materialize(&plan.root, &mut stats)?;
        let profiles = executor
            .query_profile(&plan)
            .map(|profile| profile.snapshot())
            .unwrap_or_default();
        let actuals = profiles.iter().map(|profile| profile.rows).collect();
        Ok(AnalyzedEvaluation {
            plan,
            evaluation: Evaluation { result, stats },
            actuals,
            profiles,
        })
    }
}

/// The outcome of [`SmartEngine::analyze`]: the executed plan, the
/// evaluation itself, and each node's actual output cardinality.
#[derive(Debug, Clone)]
pub struct AnalyzedEvaluation {
    /// The physical plan that was executed (limit already pushed).
    pub plan: Plan,
    /// Result triples and work counters.
    pub evaluation: Evaluation,
    /// Actual output rows per plan node, indexed by the node's position in
    /// [`PlanNode::preorder`] over `plan.root`. `None` marks nodes that
    /// never ran (the input of a memo node whose slot another node filled).
    pub actuals: Vec<Option<u64>>,
    /// Per-node wall-clock profiles (exact — `EXPLAIN ANALYZE` runs the
    /// profiler at stride 1), indexed like `actuals`; each profile's
    /// [`NodeProfile::rows`](crate::NodeProfile) is the node's actual.
    pub profiles: Vec<crate::NodeProfile>,
}

impl Engine for SmartEngine {
    fn name(&self) -> &'static str {
        "smart (planned: index scans + hash/index joins + semi-naive + Prop. 5 reachability)"
    }

    fn evaluate(&self, expr: &Expr, store: &Triplestore) -> Result<Evaluation> {
        self.execute(&self.plan_query(expr, store, None, None, None)?, store)
    }
}

/// Evaluates `expr` over `store` with the default [`SmartEngine`].
pub fn evaluate(expr: &Expr, store: &Triplestore) -> Result<Evaluation> {
    SmartEngine::new().evaluate(expr, store)
}

/// Plans `expr` and renders the physical plan in `EXPLAIN` style.
pub fn explain(expr: &Expr, store: &Triplestore) -> Result<String> {
    let plan = SmartEngine::new().plan_query(expr, store, None, None, None)?;
    Ok(plan.explain())
}

/// Rewrites `node` so at most `k` distinct triples are ever produced, with
/// a [`PlanNode::Limit`] pushed as deep as set semantics allow:
///
/// * nested limits fold to the smaller bound;
/// * a limit distributes through **union** — `limitₖ(a ∪ b)` needs at most
///   `k` distinct triples from each input (if either child limit truncated,
///   the outer limit is what stops the merge; if neither did, the union is
///   complete) — so both children are limited and the union stays wrapped;
/// * a limit of `0` folds the subtree to [`PlanNode::Empty`];
/// * everything else keeps the limit **above** it: limits never cross
///   filters, joins, differences or stars (those need to see rows the limit
///   would cut), but the cursor pipeline still terminates them early
///   because the limit stops *pulling*.
fn push_limit(node: PlanNode, k: usize) -> PlanNode {
    if k == 0 {
        return PlanNode::Empty;
    }
    match node {
        PlanNode::Empty => PlanNode::Empty,
        PlanNode::Limit { input, limit, .. } => push_limit(*input, k.min(limit)),
        PlanNode::Union { left, right, .. } => {
            let left = push_limit(*left, k);
            let right = push_limit(*right, k);
            let est = left.est().saturating_add(right.est()).min(k);
            limit_over(
                PlanNode::Union {
                    left: Box::new(left),
                    right: Box::new(right),
                    est,
                },
                k,
            )
        }
        other => limit_over(other, k),
    }
}

/// Wraps a node in a [`PlanNode::Limit`] of `k`.
fn limit_over(input: PlanNode, k: usize) -> PlanNode {
    let est = input.est().min(k);
    PlanNode::Limit {
        input: Box::new(input),
        limit: k,
        est,
    }
}

/// Rewrites a scan to stream sorted on `component`: an unbound scan
/// switches to the permutation keyed on it, a bound scan whose run's
/// [secondary order](Permutation::secondary) keys it declares that order
/// (the run is physically unchanged — it is already sorted both ways).
/// Other nodes must already be ordered on the component (checked by the
/// caller).
fn deliver_order(node: PlanNode, component: usize) -> PlanNode {
    if node.ordering().map(Permutation::key_component) == Some(component) {
        return node;
    }
    match node {
        PlanNode::IndexScan {
            relation,
            bound: None,
            residual,
            est,
            ..
        } => PlanNode::IndexScan {
            relation,
            bound: None,
            residual,
            order: Permutation::keyed_on(component),
            est,
        },
        PlanNode::IndexScan {
            relation,
            bound: Some((bc, id)),
            residual,
            est,
            ..
        } if Permutation::keyed_on(bc).secondary().key_component() == component => {
            PlanNode::IndexScan {
                relation,
                bound: Some((bc, id)),
                residual,
                order: Permutation::keyed_on(bc).secondary(),
                est,
            }
        }
        other => other,
    }
}

/// Rewrites `node` so its output streams in `perm`'s key order, inserting a
/// [`PlanNode::Sort`] breaker at the root only if the tree below cannot
/// deliver the order itself (see [`try_order`]).
fn ensure_order(node: PlanNode, perm: Permutation) -> PlanNode {
    match try_order(node, perm) {
        Ok(ordered) => ordered,
        Err(node) => {
            let est = node.est();
            PlanNode::Sort {
                input: Box::new(node),
                order: perm,
                est,
            }
        }
    }
}

/// Attempts to deliver `perm`'s order without a sort breaker: unbound index
/// scans switch to the permutation keyed on `perm`'s key component, filters
/// and the streamed (left) sides of difference/intersection pass the
/// requirement through, unions deliver when **both** sides do (the executor
/// then merge-unions them), and an existing sort is re-targeted. `Err`
/// hands the node back unchanged.
fn try_order(node: PlanNode, perm: Permutation) -> std::result::Result<PlanNode, PlanNode> {
    if node.ordering() == Some(perm) {
        return Ok(node);
    }
    match node {
        PlanNode::IndexScan {
            relation,
            bound: None,
            residual,
            est,
            ..
        } => Ok(PlanNode::IndexScan {
            relation,
            bound: None,
            residual,
            order: perm,
            est,
        }),
        // A bound run is also strictly sorted under its permutation's
        // secondary order ([`Permutation::secondary`]): declaring it
        // delivers `perm` with zero physical change — no sort breaker.
        PlanNode::IndexScan {
            relation,
            bound: Some((bc, id)),
            residual,
            est,
            ..
        } if Permutation::keyed_on(bc).secondary() == perm => Ok(PlanNode::IndexScan {
            relation,
            bound: Some((bc, id)),
            residual,
            order: perm,
            est,
        }),
        PlanNode::Filter { input, cond, est } => match try_order(*input, perm) {
            Ok(input) => Ok(PlanNode::Filter {
                input: Box::new(input),
                cond,
                est,
            }),
            Err(input) => Err(PlanNode::Filter {
                input: Box::new(input),
                cond,
                est,
            }),
        },
        PlanNode::Union { left, right, est } => match try_order(*left, perm) {
            Ok(l) => match try_order(*right, perm) {
                Ok(r) => Ok(PlanNode::Union {
                    left: Box::new(l),
                    right: Box::new(r),
                    est,
                }),
                Err(r) => Err(PlanNode::Union {
                    left: Box::new(l),
                    right: Box::new(r),
                    est,
                }),
            },
            Err(l) => Err(PlanNode::Union {
                left: Box::new(l),
                right,
                est,
            }),
        },
        PlanNode::Diff { left, right, est } => match try_order(*left, perm) {
            Ok(l) => Ok(PlanNode::Diff {
                left: Box::new(l),
                right,
                est,
            }),
            Err(l) => Err(PlanNode::Diff {
                left: Box::new(l),
                right,
                est,
            }),
        },
        PlanNode::Intersect { left, right, est } => match try_order(*left, perm) {
            Ok(l) => Ok(PlanNode::Intersect {
                left: Box::new(l),
                right,
                est,
            }),
            Err(l) => Err(PlanNode::Intersect {
                left: Box::new(l),
                right,
                est,
            }),
        },
        PlanNode::Sort { input, est, .. } => Ok(PlanNode::Sort {
            input,
            order: perm,
            est,
        }),
        other => Err(other),
    }
}

/// Rewrites `node` so it produces the `k` smallest distinct triples under
/// `perm`'s key: top-k bounds fold, distribute through unions (the k
/// smallest of a union are among the union of each side's k smallest), drop
/// same-order sorts (the heap imposes the order itself), and collapse to a
/// plain streaming [`PlanNode::Limit`] over inputs that already deliver the
/// order.
fn push_topk(node: PlanNode, k: usize, perm: Permutation) -> PlanNode {
    if k == 0 {
        return PlanNode::Empty;
    }
    match node {
        PlanNode::Empty => PlanNode::Empty,
        PlanNode::TopK {
            input,
            k: k2,
            order,
            ..
        } if order == perm => push_topk(*input, k.min(k2), perm),
        // A sort below a top-k of the same order is redundant: the heap
        // orders its survivors itself.
        PlanNode::Sort { input, order, .. } if order == perm => push_topk(*input, k, perm),
        PlanNode::Union { left, right, .. } => {
            let left = push_topk(*left, k, perm);
            let right = push_topk(*right, k, perm);
            let est = left.est().saturating_add(right.est()).min(k);
            topk_over(
                PlanNode::Union {
                    left: Box::new(left),
                    right: Box::new(right),
                    est,
                },
                k,
                perm,
            )
        }
        other => topk_over(other, k, perm),
    }
}

/// Wraps a node in the cheapest operator computing its `k` smallest under
/// `perm`: a streaming [`PlanNode::Limit`] when the input (possibly after
/// free order delivery) already streams in that order, a bounded-heap
/// [`PlanNode::TopK`] otherwise.
fn topk_over(input: PlanNode, k: usize, perm: Permutation) -> PlanNode {
    match try_order(input, perm) {
        Ok(ordered) => {
            // Ordered input: the first k distinct rows are the k smallest,
            // and the limit terminates the pipeline early.
            let est = ordered.est().min(k);
            PlanNode::Limit {
                input: Box::new(ordered),
                limit: k,
                est,
            }
        }
        Err(input) => {
            let est = input.est().min(k);
            PlanNode::TopK {
                input: Box::new(input),
                k,
                order: perm,
                est,
            }
        }
    }
}

/// Sub-expressions worth a memo slot: anything that performs work.
fn memoizable(expr: &Expr) -> bool {
    !matches!(expr, Expr::Rel(_) | Expr::Empty | Expr::Universe)
}

/// The set of sub-expressions occurring more than once.
fn repeated_subexpressions(expr: &Expr) -> HashSet<Expr> {
    let mut seen: HashSet<&Expr> = HashSet::new();
    let mut repeated: HashSet<Expr> = HashSet::new();
    for sub in expr.subexpressions() {
        if memoizable(sub) && !seen.insert(sub) {
            repeated.insert(sub.clone());
        }
    }
    repeated
}

struct Planner<'a> {
    store: &'a Triplestore,
    /// The root output order the query will be asked for (interesting
    /// orders), pushed down into join-strategy choices.
    interesting: Option<Permutation>,
    repeated: HashSet<Expr>,
    slots: HashMap<Expr, usize>,
}

impl Planner<'_> {
    /// `|adom|³`, the cardinality of the universal relation.
    fn universe_est(&self) -> usize {
        let n = self.store.active_domain_len();
        n.saturating_mul(n).saturating_mul(n)
    }

    /// Exact `(cardinality, distinct counts per component)` when the plan
    /// scans a stored relation unfiltered; `None` otherwise.
    fn scan_stats(&self, node: &PlanNode) -> Option<(usize, [usize; 3])> {
        let name = node.bare_scan()?;
        let (base, index) = self.store.relation_with_index(name)?;
        Some((base.len(), index.distinct_counts(base)))
    }

    fn plan_expr(&mut self, expr: &Expr) -> Result<PlanNode> {
        if memoizable(expr) && self.repeated.contains(expr) {
            let slot = match self.slots.get(expr) {
                Some(&slot) => slot,
                None => {
                    let next = self.slots.len();
                    self.slots.insert(expr.clone(), next);
                    next
                }
            };
            let input = self.plan_inner(expr)?;
            return Ok(PlanNode::Memo {
                slot,
                input: Box::new(input),
            });
        }
        self.plan_inner(expr)
    }

    fn plan_inner(&mut self, expr: &Expr) -> Result<PlanNode> {
        Ok(match expr {
            Expr::Rel(name) => {
                let est = self.store.require_relation(name)?.len();
                PlanNode::IndexScan {
                    relation: name.clone(),
                    bound: None,
                    residual: Conditions::new(),
                    order: Permutation::Spo,
                    est,
                }
            }
            Expr::Universe => PlanNode::Universe {
                est: self.universe_est(),
            },
            Expr::Empty => PlanNode::Empty,
            Expr::Select { input, cond } => self.plan_select(input, cond)?,
            Expr::Union(a, b) => {
                let left = self.plan_expr(a)?;
                let right = self.plan_expr(b)?;
                let est = left.est().saturating_add(right.est());
                PlanNode::Union {
                    left: Box::new(left),
                    right: Box::new(right),
                    est,
                }
            }
            Expr::Diff(a, b) => {
                let left = self.plan_expr(a)?;
                let right = self.plan_expr(b)?;
                let est = left.est();
                PlanNode::Diff {
                    left: Box::new(left),
                    right: Box::new(right),
                    est,
                }
            }
            Expr::Intersect(a, b) => {
                let left = self.plan_expr(a)?;
                let right = self.plan_expr(b)?;
                let est = left.est().min(right.est());
                PlanNode::Intersect {
                    left: Box::new(left),
                    right: Box::new(right),
                    est,
                }
            }
            Expr::Complement(e) => {
                let input = self.plan_expr(e)?;
                let est = self.universe_est().saturating_sub(input.est());
                PlanNode::Complement {
                    input: Box::new(input),
                    est,
                }
            }
            Expr::Join {
                left,
                right,
                output,
                cond,
            } => self.plan_join(left, right, output, cond)?,
            Expr::Star {
                input,
                output,
                cond,
                direction,
            } => {
                let input_plan = self.plan_expr(input)?;
                let est = star_est(input_plan.est(), self.universe_est());
                if is_reachability_star(output, cond, *direction) {
                    // Distinguish the two reachTA⁼ shapes by whether the
                    // label equality 2=2' is part of the condition.
                    let same_label = cond
                        .cross_equalities()
                        .iter()
                        .any(|&(l, r)| l == Pos::L2 && r == Pos::R2);
                    PlanNode::StarReach {
                        input: Box::new(input_plan),
                        same_label,
                        est,
                    }
                } else {
                    PlanNode::StarSemiNaive {
                        input: Box::new(input_plan),
                        output: *output,
                        cond: cond.clone(),
                        direction: *direction,
                        est,
                    }
                }
            }
        })
    }

    /// Plans `σ_cond(input)`: merges selection chains, then pushes constant
    /// equalities into the scan when the input is a stored relation.
    fn plan_select(&mut self, input: &Expr, cond: &Conditions) -> Result<PlanNode> {
        // Merge σ_c1(σ_c2(e)) into σ_{c1 ∧ c2}(e).
        let mut combined = cond.clone();
        let mut inner = input;
        while let Expr::Select { input, cond } = inner {
            combined = combined.and(cond.clone());
            inner = input;
        }
        let input_plan = self.plan_expr(inner)?;
        Ok(self.attach_selection(input_plan, combined))
    }

    /// Attaches selection conditions to a plan, pushing them into index
    /// scans where possible.
    fn attach_selection(&mut self, input: PlanNode, cond: Conditions) -> PlanNode {
        if cond.is_empty() {
            return input;
        }
        // Selections distribute through the order-preserving set
        // operations — σ(a ∪ b) = σ(a) ∪ σ(b), σ(a − b) = σ(a) − σ(b),
        // σ(a ∩ b) = σ(a) ∩ σ(b) — which carries constant equalities all
        // the way down to the index scans on both sides.
        match input {
            PlanNode::Union { left, right, .. } => {
                let left = self.attach_selection(*left, cond.clone());
                let right = self.attach_selection(*right, cond);
                let est = left.est().saturating_add(right.est());
                return PlanNode::Union {
                    left: Box::new(left),
                    right: Box::new(right),
                    est,
                };
            }
            PlanNode::Diff { left, right, .. } => {
                let left = self.attach_selection(*left, cond.clone());
                let right = self.attach_selection(*right, cond);
                let est = left.est();
                return PlanNode::Diff {
                    left: Box::new(left),
                    right: Box::new(right),
                    est,
                };
            }
            PlanNode::Intersect { left, right, .. } => {
                let left = self.attach_selection(*left, cond.clone());
                let right = self.attach_selection(*right, cond);
                let est = left.est().min(right.est());
                return PlanNode::Intersect {
                    left: Box::new(left),
                    right: Box::new(right),
                    est,
                };
            }
            _ => {}
        }
        if let PlanNode::IndexScan {
            relation,
            bound: None,
            residual,
            est,
            ..
        } = &input
        {
            // An equality with an object name absent from the store can
            // never hold: the whole selection is empty.
            if cond.theta.iter().any(|a| {
                a.cmp == Cmp::Eq
                    && matches!(&a.rhs, ObjOperand::Const(name)
                        if self.store.object_id(name).is_none())
            }) {
                return PlanNode::Empty;
            }
            let stats = self
                .store
                .relation_with_index(relation)
                .map(|(base, ix)| ix.distinct_counts(base));
            // Bind the most selective constant equality (the component
            // with the most distinct values) through the permutation
            // index; everything else stays as a residual filter.
            let mut best: Option<(usize, ObjectId, usize)> = None;
            for atom in &cond.theta {
                if atom.cmp != Cmp::Eq {
                    continue;
                }
                let ObjOperand::Const(name) = &atom.rhs else {
                    continue;
                };
                let Some(id) = self.store.object_id(name) else {
                    continue;
                };
                let component = atom.lhs.component_index();
                let distinct = stats.map(|d| d[component]).unwrap_or(1);
                if best.map(|(_, _, d)| distinct > d).unwrap_or(true) {
                    best = Some((component, id, distinct));
                }
            }
            if let Some((component, id, distinct)) = best {
                let residual_cond = Conditions {
                    theta: cond
                        .theta
                        .iter()
                        .filter(|a| {
                            !(a.cmp == Cmp::Eq
                                && a.lhs.component_index() == component
                                && matches!(&a.rhs, ObjOperand::Const(n)
                                    if self.store.object_id(n) == Some(id)))
                        })
                        .cloned()
                        .collect::<Vec<ObjAtom>>(),
                    eta: cond.eta.clone(),
                };
                // Integer division underflows a nonzero relation to 0
                // bound rows whenever `est < distinct`; clamp so only a
                // provably empty relation estimates empty.
                let bound_est = (est / distinct.max(1)).max(usize::from(*est > 0));
                let est = selectivity_est(bound_est, &residual_cond);
                return PlanNode::IndexScan {
                    relation: relation.clone(),
                    bound: Some((component, id)),
                    residual: residual_cond.and(residual.clone()),
                    order: Permutation::Spo,
                    est: est.max(1),
                };
            }
            // No bindable constant: fold the whole selection into the
            // scan's residual — one filtered pass over the relation
            // instead of a scan followed by a Filter operator.
            let est = selectivity_est(*est, &cond);
            return PlanNode::IndexScan {
                relation: relation.clone(),
                bound: None,
                residual: cond.and(residual.clone()),
                order: Permutation::Spo,
                est: est.max(1),
            };
        }
        // Merge stacked filters produced by earlier planning stages.
        if let PlanNode::Filter {
            input: deeper,
            cond: existing,
            ..
        } = input
        {
            let merged = existing.and(cond);
            let est = selectivity_est(deeper.est(), &merged);
            return PlanNode::Filter {
                input: deeper,
                cond: merged,
                est,
            };
        }
        let est = selectivity_est(input.est(), &cond);
        PlanNode::Filter {
            input: Box::new(input),
            cond,
            est,
        }
    }

    /// Plans a triple join: picks nested-loop, hash, or index nested-loop
    /// strategy and the argument order.
    fn plan_join(
        &mut self,
        left: &Expr,
        right: &Expr,
        output: &trial_core::OutputSpec,
        cond: &Conditions,
    ) -> Result<PlanNode> {
        let left_plan = self.plan_expr(left)?;
        let right_plan = self.plan_expr(right)?;
        let mut keys = cond.cross_equalities();
        keys.sort();
        keys.dedup();
        let est = self.join_est(&left_plan, &right_plan, &keys, cond);

        if keys.is_empty() {
            return Ok(PlanNode::NestedLoopJoin {
                left: Box::new(left_plan),
                right: Box::new(right_plan),
                output: *output,
                cond: cond.clone(),
                est,
            });
        }
        // Index nested-loop join: probe a stored relation's cached
        // permutation index instead of building a per-query hash table. The
        // inner side must be an unfiltered stored relation and should not be
        // smaller than the probing side.
        let right_inner = right_plan.bare_scan().is_some() && left_plan.est() <= right_plan.est();
        let left_inner = left_plan.bare_scan().is_some() && right_plan.est() <= left_plan.est();

        // Sort-merge join: when both inputs can stream sorted on the two
        // sides of the cross equality *for free* — an unbound scan switches
        // to the permutation keyed on the joined component (e.g. POS ⋈ SPO
        // on 2=1'), a **bound** scan declares its run's secondary order
        // ([`Permutation::secondary`]: a POS-bound run is also OSP-sorted),
        // an already-ordered operator qualifies as-is — the join is a single
        // synchronized pass with no build side and no hash table. Only
        // single-key joins qualify: a merge synchronizes on one equality and
        // would re-check further keys pair-by-pair across whole
        // duplicate-run cross products, while a hash join keys on the
        // composite and never touches non-matching pairs. An index
        // nested-loop probe still wins when its outer side is much smaller
        // than the two linear scans a merge would read (factor 8: a probe
        // costs a binary search per outer row, a merge reads both inputs
        // end to end).
        let deliverable = |node: &PlanNode, component: usize| {
            node.ordering().map(Permutation::key_component) == Some(component)
                || matches!(node, PlanNode::IndexScan { bound: None, .. })
                || matches!(node, PlanNode::IndexScan { bound: Some((bc, _)), .. }
                    if Permutation::keyed_on(*bc).secondary().key_component() == component)
        };
        // Interesting orders: an identity-output merge join emits a
        // subsequence of its ordered left input, so merging on the requested
        // root order's component delivers that order natively — the final
        // sort (or top-k heap) dissolves. When that is on the table it
        // outbids the index nested-loop probe, whose scrambled output would
        // force a sort breaker back in at the root.
        let interesting_key = if keys.len() == 1 {
            self.interesting
                .filter(|_| *output == trial_core::OutputSpec::IDENTITY)
                .and_then(|perm| {
                    keys.iter().copied().find(|&(l, r)| {
                        l.component_index() == perm.key_component()
                            && deliverable(&left_plan, l.component_index())
                            && deliverable(&right_plan, r.component_index())
                    })
                })
        } else {
            None
        };
        let merge_cost = left_plan.est().saturating_add(right_plan.est());
        let inlj_outer_est = if right_inner {
            left_plan.est()
        } else {
            right_plan.est()
        };
        let prefer_inlj = (right_inner || left_inner)
            && inlj_outer_est.saturating_mul(8) < merge_cost
            && interesting_key.is_none();
        if keys.len() == 1 && !prefer_inlj {
            let chosen = interesting_key.or_else(|| {
                keys.iter().copied().find(|&(l, r)| {
                    deliverable(&left_plan, l.component_index())
                        && deliverable(&right_plan, r.component_index())
                })
            });
            if let Some(key) = chosen {
                return Ok(PlanNode::MergeJoin {
                    left: Box::new(deliver_order(left_plan, key.0.component_index())),
                    right: Box::new(deliver_order(right_plan, key.1.component_index())),
                    output: *output,
                    cond: cond.clone(),
                    key,
                    est,
                });
            }
        }

        if right_inner || left_inner {
            // Keep the written orientation when the right side qualifies;
            // otherwise mirror the join so the stored relation is inner.
            let (outer, inner, output, cond, keys, swapped) =
                orient_join(right_inner, left_plan, right_plan, output, cond, keys);
            let relation = inner.bare_scan().expect("checked above").to_owned();
            let probe = self.best_probe_key(&keys, &relation);
            return Ok(PlanNode::IndexNestedLoopJoin {
                outer: Box::new(outer),
                relation,
                probe,
                output,
                cond,
                swapped,
                est,
            });
        }

        // Hash join: build the table on the smaller estimated side.
        let keep_order = right_plan.est() <= left_plan.est();
        let (left_plan, right_plan, output, cond, keys, swapped) =
            orient_join(keep_order, left_plan, right_plan, output, cond, keys);
        Ok(PlanNode::HashJoin {
            left: Box::new(left_plan),
            right: Box::new(right_plan),
            output,
            cond,
            keys,
            swapped,
            est,
        })
    }

    /// The cross equality whose inner component has the most distinct values
    /// (most selective index probe).
    fn best_probe_key(&self, keys: &[(Pos, Pos)], relation: &str) -> (Pos, Pos) {
        let distinct = self
            .store
            .relation_with_index(relation)
            .map(|(base, ix)| ix.distinct_counts(base))
            .unwrap_or([1, 1, 1]);
        *keys
            .iter()
            .max_by_key(|(_, rp)| distinct[rp.component_index()])
            .expect("keyed joins have at least one key")
    }

    /// Textbook join cardinality: `|L|·|R| / Π max(V(L,a), V(R,b))` over the
    /// equality keys, degraded by the remaining conditions' selectivity.
    fn join_est(
        &self,
        left: &PlanNode,
        right: &PlanNode,
        keys: &[(Pos, Pos)],
        cond: &Conditions,
    ) -> usize {
        let l = left.est().max(1);
        let r = right.est().max(1);
        let l_stats = self.scan_stats(left);
        let r_stats = self.scan_stats(right);
        let mut est = l.saturating_mul(r) as f64;
        for (lp, rp) in keys {
            let vl = l_stats
                .map(|(_, d)| d[lp.component_index()])
                .unwrap_or_else(|| l.min(1000));
            let vr = r_stats
                .map(|(_, d)| d[rp.component_index()])
                .unwrap_or_else(|| r.min(1000));
            est /= vl.max(vr).max(1) as f64;
        }
        let non_key = cond.len().saturating_sub(keys.len());
        est *= 0.5f64.powi(non_key as i32);
        (est.ceil() as usize).max(1)
    }
}

/// The two join arguments in execution order: `(probe/outer, build/inner,
/// output, cond, keys, swapped)`. With `keep_order` the written orientation
/// is preserved; otherwise the arguments are swapped through the mirroring
/// identity and the keys are re-derived from the mirrored conditions.
fn orient_join(
    keep_order: bool,
    left_plan: PlanNode,
    right_plan: PlanNode,
    output: &trial_core::OutputSpec,
    cond: &Conditions,
    keys: Vec<(Pos, Pos)>,
) -> (
    PlanNode,
    PlanNode,
    trial_core::OutputSpec,
    Conditions,
    Vec<(Pos, Pos)>,
    bool,
) {
    if keep_order {
        (left_plan, right_plan, *output, cond.clone(), keys, false)
    } else {
        let cond = cond.mirrored();
        let mut keys = cond.cross_equalities();
        keys.sort();
        keys.dedup();
        (right_plan, left_plan, output.mirrored(), cond, keys, true)
    }
}

/// Star output estimate: between the base size and the universal relation.
fn star_est(input_est: usize, universe_est: usize) -> usize {
    input_est
        .saturating_mul(input_est)
        .min(universe_est)
        .max(input_est)
}

/// Selection selectivity heuristic: equalities keep ~20% of rows,
/// inequalities ~80%.
///
/// Returns 0 only when the input is **provably empty** (`input_est == 0`);
/// otherwise every intermediate is clamped to at least one row, so a long
/// chain of equalities cannot underflow a nonzero estimate to 0 — an
/// estimate [`push_limit`] and the Empty-propagation rewrites would treat
/// as "no rows ever", turning a mis-estimate into a wrong plan shape.
fn selectivity_est(input_est: usize, cond: &Conditions) -> usize {
    if input_est == 0 {
        return 0;
    }
    let mut est = input_est as f64;
    for atom in &cond.theta {
        est = (est
            * match atom.cmp {
                Cmp::Eq => 0.2,
                Cmp::Neq => 0.8,
            })
        .max(1.0);
    }
    for atom in &cond.eta {
        est = (est
            * match atom.cmp {
                Cmp::Eq => 0.25,
                Cmp::Neq => 0.75,
            })
        .max(1.0);
    }
    est.ceil() as usize
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::naive::NaiveEngine;
    use trial_core::builder::{queries, ExprBuilderExt};
    use trial_core::{output, Conditions, TriplestoreBuilder};

    fn figure1() -> Triplestore {
        let mut b = TriplestoreBuilder::new();
        for (s, p, o) in [
            ("St.Andrews", "BusOp1", "Edinburgh"),
            ("Edinburgh", "TrainOp1", "London"),
            ("London", "TrainOp2", "Brussels"),
            ("BusOp1", "part_of", "NatExpress"),
            ("TrainOp1", "part_of", "EastCoast"),
            ("TrainOp2", "part_of", "Eurostar"),
            ("EastCoast", "part_of", "NatExpress"),
        ] {
            b.add_triple("E", s, p, o);
        }
        b.finish()
    }

    fn eval_query(
        engine: &SmartEngine,
        q: &Expr,
        store: &Triplestore,
        limit: Option<usize>,
        order: Option<Permutation>,
        topk: Option<usize>,
    ) -> Evaluation {
        let plan = engine.plan_query(q, store, limit, order, topk).unwrap();
        engine.execute(&plan, store).unwrap()
    }

    fn analyze(
        engine: &SmartEngine,
        q: &Expr,
        store: &Triplestore,
        limit: Option<usize>,
    ) -> AnalyzedEvaluation {
        let plan = engine.plan_query(q, store, limit, None, None).unwrap();
        engine.analyze(plan, store).unwrap()
    }

    /// A mixed bag of expressions covering every operator.
    pub(crate) fn expression_zoo() -> Vec<Expr> {
        vec![
            Expr::rel("E"),
            queries::example2("E"),
            queries::example2_extended("E"),
            queries::reach_forward("E"),
            queries::reach_same_label("E"),
            queries::reach_down("E"),
            queries::same_company_reachability("E"),
            queries::at_least_four_objects(),
            queries::at_least_six_objects(),
            Expr::rel("E").complement(),
            Expr::rel("E")
                .select(Conditions::new().obj_eq_const(trial_core::Pos::L2, "part_of"))
                .reach_forward(),
            Expr::rel("E").intersect_via_join(queries::example2("E")),
            Expr::rel("E").minus(queries::example2("E")),
            Expr::Universe.minus(Expr::rel("E")),
            Expr::Empty.union(Expr::rel("E")),
        ]
    }

    /// A synthetic store large enough to clear morsel thresholds.
    fn grid(n: u32) -> Triplestore {
        let mut b = TriplestoreBuilder::new();
        for i in 0..n {
            b.add_triple(
                "E",
                format!("s{}", i % 50),
                format!("p{}", i % 7),
                format!("o{i}"),
            );
        }
        // Predicates double as subjects so self-joins on 2=1' are nonempty.
        for p in 0..7 {
            b.add_triple("E", format!("p{p}"), "part_of", "hub");
        }
        b.finish()
    }

    #[test]
    fn channel_yields_exactly_the_stream_rows() {
        let store = grid(4_000);
        let exprs = [
            Expr::rel("E"),
            Expr::rel("E").select(Conditions::new().obj_eq_const(trial_core::Pos::L2, "p3")),
            queries::example2("E"),
        ];
        for threads in [1usize, 4] {
            let engine = SmartEngine::with_options(EvalOptions {
                threads,
                parallel_min_rows: 64,
                ..EvalOptions::default()
            });
            for expr in &exprs {
                for order in [None, Some(Permutation::Pos)] {
                    for limit in [None, Some(100)] {
                        let mut reference = engine
                            .stream_query(expr, &store, limit, order, None)
                            .unwrap();
                        let mut expected = Vec::new();
                        while let Some(t) = reference.next_triple() {
                            expected.push(t);
                        }
                        let stream = engine
                            .stream_query(expr, &store, limit, order, None)
                            .unwrap();
                        let (got, stats) = stream.channel(4, |exchange| {
                            let mut rows = Vec::new();
                            while let Some(t) = exchange.next_triple() {
                                rows.push(t);
                            }
                            rows
                        });
                        assert_eq!(
                            got, expected,
                            "channel diverged: {expr} threads={threads} order={order:?} limit={limit:?}"
                        );
                        let _ = stats;
                    }
                }
            }
        }
    }

    #[test]
    fn channel_fans_out_over_ordered_scans() {
        let store = grid(4_000);
        let engine = SmartEngine::with_options(EvalOptions {
            threads: 4,
            parallel_min_rows: 64,
            ..EvalOptions::default()
        });
        let stream = engine
            .stream_query(&Expr::rel("E"), &store, None, Some(Permutation::Spo), None)
            .unwrap();
        assert!(stream.parallelized(), "plain ordered scan should fan out");
        let (count, stats) = stream.channel(4, |exchange| {
            let mut n = 0u64;
            while exchange.next_triple().is_some() {
                n += 1;
            }
            n
        });
        assert_eq!(count, 4_007);
        assert!(stats.parallel_morsels > 0);
        // A join root has no contiguous morsels: single-producer fallback.
        let joined = engine
            .stream_query(&queries::example2("E"), &store, None, None, None)
            .unwrap();
        assert!(!joined.parallelized());
    }

    #[test]
    fn dropping_the_channel_consumer_terminates_producers() {
        let store = grid(4_000);
        for threads in [1usize, 4] {
            let engine = SmartEngine::with_options(EvalOptions {
                threads,
                parallel_min_rows: 64,
                ..EvalOptions::default()
            });
            let stream = engine
                .stream_query(&Expr::rel("E"), &store, None, Some(Permutation::Spo), None)
                .unwrap();
            // Consume three rows, then hang up: channel() must return (the
            // scope joins every producer) rather than deadlock on a full
            // lane.
            let (got, _stats) = stream.channel(1, |exchange| {
                (0..3).filter_map(|_| exchange.next_triple()).count()
            });
            assert_eq!(got, 3, "threads={threads}");
        }
    }

    #[test]
    fn smart_engine_does_less_join_work() {
        let store = figure1();
        let q = queries::same_company_reachability("E");
        let smart = SmartEngine::new().evaluate(&q, &store).unwrap();
        let naive = NaiveEngine::new().evaluate(&q, &store).unwrap();
        assert_eq!(smart.result, naive.result);
        assert!(smart.stats.work() <= naive.stats.work());
    }

    #[test]
    fn memo_avoids_recomputation() {
        let store = figure1();
        // example2_extended evaluates example2 twice.
        let q = queries::example2_extended("E");
        let with = SmartEngine::new().evaluate(&q, &store).unwrap();
        assert!(with.stats.memo_hits >= 1);
        assert_eq!(with.result, NaiveEngine::new().run(&q, &store).unwrap());
    }

    #[test]
    fn same_label_specialisation_used_for_labelled_reach() {
        let store = figure1();
        let q = queries::reach_same_label("E");
        let eval = SmartEngine::new().evaluate(&q, &store).unwrap();
        let naive = NaiveEngine::new().run(&q, &store).unwrap();
        assert_eq!(eval.result, naive);
        assert!(eval.stats.reach_edges_traversed > 0);
    }

    #[test]
    fn selections_are_pushed_into_index_scans() {
        let store = figure1();
        let q =
            Expr::rel("E").select(Conditions::new().obj_eq_const(trial_core::Pos::L2, "part_of"));
        let plan = SmartEngine::new()
            .plan_query(&q, &store, None, None, None)
            .unwrap();
        match &plan.root {
            PlanNode::IndexScan {
                bound: Some((component, _)),
                residual,
                ..
            } => {
                assert_eq!(*component, 1);
                assert!(residual.is_empty());
            }
            other => panic!("expected a bound IndexScan, got:\n{}", other.explain()),
        }
        // An unknown constant folds the scan to Empty.
        let q = Expr::rel("E").select(Conditions::new().obj_eq_const(trial_core::Pos::L2, "nope"));
        let plan = SmartEngine::new()
            .plan_query(&q, &store, None, None, None)
            .unwrap();
        assert_eq!(plan.root, PlanNode::Empty);
        assert!(SmartEngine::new().run(&q, &store).unwrap().is_empty());
    }

    #[test]
    fn nested_selections_merge() {
        let store = figure1();
        let q = Expr::rel("E")
            .select(Conditions::new().obj_eq_const(trial_core::Pos::L2, "part_of"))
            .select(Conditions::new().obj_neq(trial_core::Pos::L1, trial_core::Pos::L3));
        let plan = SmartEngine::new()
            .plan_query(&q, &store, None, None, None)
            .unwrap();
        match &plan.root {
            PlanNode::IndexScan {
                bound: Some(_),
                residual,
                ..
            } => assert_eq!(residual.len(), 1),
            other => panic!("expected one bound IndexScan, got:\n{}", other.explain()),
        }
        let smart = SmartEngine::new().run(&q, &store).unwrap();
        let naive = NaiveEngine::new().run(&q, &store).unwrap();
        assert_eq!(smart, naive);
    }

    #[test]
    fn joins_against_relations_use_the_index() {
        let store = figure1();
        // E ✶ E with an equality key: both sides are stored relations whose
        // permutations deliver the key order for free, so the planner merges
        // POS against SPO instead of probing or hashing.
        let plan = SmartEngine::new()
            .plan_query(&queries::example2("E"), &store, None, None, None)
            .unwrap();
        match &plan.root {
            PlanNode::MergeJoin {
                left, right, key, ..
            } => {
                assert_eq!(*key, (Pos::L2, Pos::R1));
                assert_eq!(left.ordering(), Some(trial_core::Permutation::Pos));
                assert_eq!(right.ordering(), Some(trial_core::Permutation::Spo));
            }
            other => panic!("expected MergeJoin, got:\n{}", other.explain()),
        }
        // A bound scan (pinned to the bound component's POS run) delivers
        // the key component 3 through its *secondary* order — a bound POS
        // run is also OSP-sorted — so on this small store (where the
        // factor-8 probe gate does not fire) the join merges OSP against
        // SPO with no sort and no hash table.
        let probing = Expr::rel("E")
            .select(Conditions::new().obj_eq_const(Pos::L2, "part_of"))
            .join(
                Expr::rel("E"),
                trial_core::output(Pos::L1, Pos::L2, Pos::R3),
                Conditions::new().obj_eq(Pos::L3, Pos::R1),
            );
        let plan = SmartEngine::new()
            .plan_query(&probing, &store, None, None, None)
            .unwrap();
        match &plan.root {
            PlanNode::MergeJoin {
                left, right, key, ..
            } => {
                assert_eq!(*key, (Pos::L3, Pos::R1));
                assert_eq!(left.ordering(), Some(trial_core::Permutation::Osp));
                assert_eq!(right.ordering(), Some(trial_core::Permutation::Spo));
            }
            other => panic!("expected MergeJoin, got:\n{}", other.explain()),
        }
        // When the bound outer is ≫ smaller than the two runs a merge would
        // read end-to-end, the index nested-loop probe still wins.
        let mut big = TriplestoreBuilder::new();
        for i in 0..40 {
            big.add_triple("E", format!("s{i}"), format!("p{i}"), format!("o{i}"));
        }
        big.add_triple("E", "TrainOp1", "part_of", "EastCoast");
        let big = big.finish();
        let plan = SmartEngine::new()
            .plan_query(&probing, &big, None, None, None)
            .unwrap();
        match &plan.root {
            PlanNode::IndexNestedLoopJoin {
                relation, probe, ..
            } => {
                assert_eq!(relation, "E");
                assert_eq!(probe, &(Pos::L3, Pos::R1));
            }
            other => panic!("expected IndexNestedLoopJoin, got:\n{}", other.explain()),
        }
        // Without a hashable key the join stays a nested loop.
        let neq = Expr::rel("E").join(
            Expr::rel("E"),
            trial_core::output(Pos::L1, Pos::L2, Pos::R3),
            Conditions::new().obj_neq(Pos::L1, Pos::R1),
        );
        let plan = SmartEngine::new()
            .plan_query(&neq, &store, None, None, None)
            .unwrap();
        assert!(matches!(plan.root, PlanNode::NestedLoopJoin { .. }));
    }

    #[test]
    fn hash_join_builds_on_the_smaller_side() {
        let store = figure1();
        // Left side: a filtered (smaller) derivation; right side: the full
        // relation twice joined (larger estimate). Neither side qualifies
        // for an index probe once filtered, so a HashJoin is chosen and the
        // smaller side must end up as the build (right) input.
        let small = Expr::rel("E").select(Conditions::new().obj_eq_const(Pos::L2, "part_of"));
        let big = Expr::rel("E").join(
            Expr::rel("E"),
            trial_core::output(Pos::L1, Pos::L2, Pos::R3),
            Conditions::new()
                .obj_eq(Pos::L3, Pos::R1)
                .data_eq(Pos::L1, Pos::R3),
        );
        let q = big.clone().join(
            small.clone(),
            trial_core::output(Pos::L1, Pos::L2, Pos::R3),
            Conditions::new().obj_eq(Pos::L3, Pos::R1),
        );
        let plan = SmartEngine::new()
            .plan_query(&q, &store, None, None, None)
            .unwrap();
        match &plan.root {
            PlanNode::HashJoin {
                left,
                right,
                swapped,
                ..
            } => {
                assert!(right.est() <= left.est(), "build side should be smaller");
                assert!(!swapped, "written order already had the smaller side right");
            }
            PlanNode::IndexNestedLoopJoin { .. } => {
                panic!("filtered sides must not be index-probed")
            }
            other => panic!("expected HashJoin, got:\n{}", other.explain()),
        }
        let smart = SmartEngine::new().run(&q, &store).unwrap();
        let naive = NaiveEngine::new().run(&q, &store).unwrap();
        assert_eq!(smart, naive);
    }

    #[test]
    fn explain_covers_every_operator() {
        let store = figure1();
        let q = queries::example2("E")
            .union(queries::reach_forward("E"))
            .minus(Expr::rel("E").complement())
            .intersect(Expr::Universe)
            .select(Conditions::new().obj_neq(trial_core::Pos::L1, trial_core::Pos::L2));
        let text = explain(&q, &store).unwrap();
        for needle in [
            "Intersect",
            "Diff",
            "Union",
            "Complement",
            "Universe",
            "IndexScan",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn limits_push_through_unions_and_fold() {
        let store = figure1();
        let q = Expr::rel("E").union(queries::example2("E"));
        let plan = SmartEngine::new()
            .plan_query(&q, &store, Some(2), None, None)
            .unwrap();
        // Limit(2) over the union, and each union child individually limited.
        let PlanNode::Limit {
            input, limit: 2, ..
        } = &plan.root
        else {
            panic!("expected a root Limit, got:\n{}", plan.root.explain());
        };
        let PlanNode::Union { left, right, .. } = &**input else {
            panic!(
                "expected a Union under the Limit, got:\n{}",
                input.explain()
            );
        };
        assert!(matches!(&**left, PlanNode::Limit { limit: 2, .. }));
        assert!(matches!(&**right, PlanNode::Limit { limit: 2, .. }));
        // Limit 0 folds the whole tree to Empty.
        let empty = SmartEngine::new()
            .plan_query(&q, &store, Some(0), None, None)
            .unwrap();
        assert_eq!(empty.root, PlanNode::Empty);
        // No limit plans identically to plan().
        let unlimited = SmartEngine::new()
            .plan_query(&q, &store, None, None, None)
            .unwrap();
        assert_eq!(
            unlimited,
            SmartEngine::new()
                .plan_query(&q, &store, None, None, None)
                .unwrap()
        );
    }

    #[test]
    fn streams_deliver_distinct_triples_and_stop_at_the_limit() {
        let store = figure1();
        let engine = SmartEngine::new();
        for expr in expression_zoo() {
            let full = engine.run(&expr, &store).unwrap();
            for limit in [0usize, 1, 3, usize::MAX] {
                let mut stream = engine
                    .stream_query(&expr, &store, Some(limit), None, None)
                    .unwrap();
                let mut got = Vec::new();
                while let Some(t) = stream.next_triple() {
                    got.push(t);
                }
                let expected = full.len().min(limit);
                assert_eq!(got.len(), expected, "wrong row count for {expr} @ {limit}");
                // Distinct and a subset of the full result.
                let as_set: trial_core::TripleSet = got.iter().copied().collect();
                assert_eq!(as_set.len(), got.len(), "duplicates streamed for {expr}");
                assert!(got.iter().all(|t| full.contains(t)));
            }
            // An unlimited stream reproduces the full result exactly.
            let (set, _) = engine
                .stream_query(&expr, &store, None, None, None)
                .unwrap()
                .collect_set();
            assert_eq!(set, full, "unlimited stream diverges on {expr}");
        }
    }

    #[test]
    fn bounded_streams_skip_work() {
        let store = figure1();
        let engine = SmartEngine::new();
        let q = queries::example2("E");
        let full = engine.evaluate(&q, &store).unwrap();
        let mut stream = engine
            .stream_query(&q, &store, Some(1), None, None)
            .unwrap();
        assert!(stream.next_triple().is_some());
        assert!(
            stream.stats().work() < full.stats.work(),
            "bounded stream should do strictly less work ({} vs {})",
            stream.stats().work(),
            full.stats.work()
        );
        // Counting drains everything without building a result set.
        let (count, _) = engine
            .stream_query(&q, &store, None, None, None)
            .unwrap()
            .count();
        assert_eq!(count as usize, full.result.len());
    }

    #[test]
    fn selections_push_through_set_operations() {
        let store = figure1();
        let cond = Conditions::new().obj_eq_const(trial_core::Pos::L2, "part_of");
        let q = Expr::rel("E").union(Expr::rel("E")).select(cond.clone());
        let plan = SmartEngine::new()
            .plan_query(&q, &store, None, None, None)
            .unwrap();
        // The selection reaches both scans as index bindings.
        let PlanNode::Union { left, right, .. } = &plan.root else {
            panic!("expected Union at the root, got:\n{}", plan.root.explain());
        };
        for side in [&**left, &**right] {
            assert!(
                matches!(side, PlanNode::IndexScan { bound: Some(_), .. }),
                "expected a bound IndexScan, got:\n{}",
                side.explain()
            );
        }
        let smart = SmartEngine::new().run(&q, &store).unwrap();
        let naive = NaiveEngine::new().run(&q, &store).unwrap();
        assert_eq!(smart, naive);
        // Same law for difference and intersection.
        for q in [
            Expr::rel("E")
                .minus(queries::example2("E"))
                .select(cond.clone()),
            Expr::rel("E")
                .intersect(queries::example2("E"))
                .select(cond.clone()),
        ] {
            let smart = SmartEngine::new().run(&q, &store).unwrap();
            let naive = NaiveEngine::new().run(&q, &store).unwrap();
            assert_eq!(smart, naive, "pushdown broke {q}");
        }
    }

    #[test]
    fn explain_marks_pipeline_boundaries() {
        let store = figure1();
        let q = queries::example2("E").union(queries::reach_forward("E"));
        let plan = SmartEngine::new()
            .plan_query(&q, &store, Some(5), None, None)
            .unwrap();
        let text = plan.explain();
        assert!(text.contains("Limit 5"), "{text}");
        assert!(text.contains("[pipelined]"), "{text}");
        assert!(text.contains("[breaker]"), "{text}");
    }

    #[test]
    fn parallel_sides_share_memo_slots() {
        // Both union sides are the same memoizable star: at every degree the
        // closure is computed exactly once (one side fills the memo slot,
        // the other hits it) and work counters stay identical to the
        // single-threaded run.
        let store = figure1();
        let q = queries::reach_forward("E").union(queries::reach_forward("E"));
        let seq = SmartEngine::with_options(EvalOptions {
            threads: 1,
            ..EvalOptions::default()
        })
        .evaluate(&q, &store)
        .unwrap();
        for threads in [2usize, 4] {
            let par = SmartEngine::with_options(EvalOptions {
                threads,
                parallel_min_rows: 0,
                ..EvalOptions::default()
            })
            .evaluate(&q, &store)
            .unwrap();
            assert_eq!(seq.result, par.result);
            assert_eq!(
                seq.stats.reach_edges_traversed, par.stats.reach_edges_traversed,
                "memoized star recomputed at {threads} threads"
            );
            assert_eq!(seq.stats.pairs_considered, par.stats.pairs_considered);
            assert_eq!(seq.stats.memo_hits, par.stats.memo_hits);
            assert!(par.stats.memo_hits >= 1);
        }
    }

    #[test]
    fn explain_tags_parallel_operators() {
        let store = figure1();
        let explain = |threads: usize, q: &Expr| {
            SmartEngine::with_options(EvalOptions {
                threads,
                ..EvalOptions::default()
            })
            .plan_query(q, &store, None, None, None)
            .unwrap()
            .explain()
        };
        // Filtered sides force a hash join, whose build shards across
        // workers.
        let side = Expr::rel("E").select(Conditions::new().obj_neq(Pos::L1, Pos::L3));
        let hop = Conditions::new().obj_eq(Pos::L3, Pos::R1);
        let q = side
            .clone()
            .join(side, output(Pos::L1, Pos::L2, Pos::R3), hop);
        let text = explain(4, &q);
        let join = text.lines().next().unwrap();
        assert!(join.starts_with("HashJoin"), "{text}");
        assert!(join.contains("[parallel×4]"), "missing tag in:\n{text}");
        let text = explain(1, &q);
        assert!(!text.contains("parallel"), "unexpected tag in:\n{text}");
        // A merge join does its work as rows are pulled: nothing fans out.
        let text = explain(4, &queries::example2("E"));
        assert!(text.contains("MergeJoin"), "{text}");
        assert!(!text.contains("parallel"), "unexpected tag in:\n{text}");
    }

    #[test]
    fn analyze_reports_per_node_actuals() {
        let store = figure1();
        let engine = SmartEngine::new();
        let q = queries::example2("E");
        let analyzed = analyze(&engine, &q, &store, None);
        let nodes = analyzed.plan.root.preorder();
        assert_eq!(analyzed.actuals.len(), nodes.len());
        // Every node materialised individually: all actuals present, and the
        // root's actual equals the result cardinality.
        assert!(analyzed.actuals.iter().all(Option::is_some));
        assert_eq!(
            analyzed.actuals[0],
            Some(analyzed.evaluation.result.len() as u64)
        );
        // The analyzed run returns the same result as a plain evaluation.
        assert_eq!(analyzed.evaluation.result, engine.run(&q, &store).unwrap());
        // Under a limit, the limit node reports its actual and every node
        // beneath it the rows it yielded before the limit stopped pulling.
        let analyzed = analyze(&engine, &q, &store, Some(1));
        assert!(matches!(analyzed.plan.root, PlanNode::Limit { .. }));
        assert_eq!(analyzed.actuals[0], Some(1));
        assert!(analyzed.actuals[1..].iter().all(Option::is_some));
        assert_eq!(analyzed.actuals[1], Some(1));
        // Actual collection also works on a parallel run.
        let parallel = SmartEngine::with_options(EvalOptions {
            threads: 4,
            parallel_min_rows: 0,
            ..EvalOptions::default()
        });
        let a = analyze(&parallel, &q, &store, None);
        assert!(a.actuals.iter().all(Option::is_some));
        assert_eq!(a.evaluation.result, engine.run(&q, &store).unwrap());
    }

    #[test]
    fn analyze_reports_per_node_profiles() {
        let store = figure1();
        let engine = SmartEngine::new();
        let q = queries::example2("E");
        let analyzed = analyze(&engine, &q, &store, None);
        let nodes = analyzed.plan.root.preorder();
        assert_eq!(analyzed.profiles.len(), nodes.len());
        // Profile rows are the actuals.
        for (profile, actual) in analyzed.profiles.iter().zip(&analyzed.actuals) {
            assert_eq!(profile.rows, *actual);
        }
        // Inclusive timing: no child can have spent longer than the root,
        // also when the root is a breaker that fills a child while its
        // cursor is built.
        let side = Expr::rel("E").select(Conditions::new().obj_neq(Pos::L1, Pos::L3));
        let hop = Conditions::new().obj_eq(Pos::L3, Pos::R1);
        let hash = side
            .clone()
            .join(side, output(Pos::L1, Pos::L2, Pos::R3), hop);
        let hashed = analyze(&engine, &hash, &store, None);
        assert!(matches!(hashed.plan.root, PlanNode::HashJoin { .. }));
        for profiles in [&analyzed.profiles, &hashed.profiles] {
            let root_us = profiles[0].elapsed_us;
            assert!(profiles.iter().all(|p| p.elapsed_us <= root_us.max(1)));
        }
        // Under a limit the profiles report the rows pulled through each
        // cursor, and the root's row count equals the limit.
        let analyzed = analyze(&engine, &q, &store, Some(1));
        assert!(matches!(analyzed.plan.root, PlanNode::Limit { .. }));
        assert_eq!(analyzed.profiles[0].rows, Some(1));
        assert!(analyzed.profiles.iter().all(|p| p.rows.is_some()));
    }

    #[test]
    fn sampled_streams_expose_query_profiles() {
        let store = figure1();
        let engine = SmartEngine::with_options(EvalOptions {
            profile_sample: 2,
            ..EvalOptions::default()
        });
        let q = queries::example2("E");
        let mut stream = engine.stream_query(&q, &store, None, None, None).unwrap();
        let profile = stream.profile().expect("profiler active");
        let preorder_len = stream.plan().root.preorder().len();
        let mut rows = 0u64;
        while stream.next_triple().is_some() {
            rows += 1;
        }
        let profiles = profile.snapshot();
        assert_eq!(profiles.len(), preorder_len);
        assert_eq!(profile.stride(), 2);
        // The root cursor flushed on exhaustion: its row count is final.
        assert_eq!(profiles[0].rows, Some(rows));
        // With the profiler off, streams carry no handle.
        let plain = SmartEngine::with_options(EvalOptions {
            profile_sample: 0,
            ..EvalOptions::default()
        });
        assert!(plain
            .stream_query(&q, &store, None, None, None)
            .unwrap()
            .profile()
            .is_none());
    }

    #[test]
    fn merge_joins_run_without_hash_tables() {
        let store = figure1();
        let q = queries::example2("E");
        let merged = SmartEngine::new().evaluate(&q, &store).unwrap();
        let naive = NaiveEngine::new().run(&q, &store).unwrap();
        assert_eq!(merged.result, naive);
        // The acceptance bar: a two-sided ordered scan join allocates no
        // hash table at all.
        assert_eq!(merged.stats.hash_tables_built, 0);
        assert_eq!(merged.stats.joins_executed, 1);
        // The streaming cursor path is equally allocation-free.
        let (set, stats) = SmartEngine::new()
            .stream_query(&q, &store, None, None, None)
            .unwrap()
            .collect_set();
        assert_eq!(set, naive);
        assert_eq!(stats.hash_tables_built, 0);
    }

    #[test]
    fn order_delivery_prefers_index_permutations_over_sorts() {
        use trial_core::Permutation;
        let store = figure1();
        let engine = SmartEngine::new();
        // A bare scan delivers any order by switching permutation: no Sort.
        for perm in Permutation::ALL {
            let plan = engine
                .plan_query(&Expr::rel("E"), &store, None, Some(perm), None)
                .unwrap();
            assert_eq!(plan.root.ordering(), Some(perm), "{}", plan.explain());
            assert!(
                !plan.explain().contains("Sort"),
                "scan order should be free:\n{}",
                plan.explain()
            );
        }
        // A join output has no order to pass through: a Sort breaker lands
        // at the root, tagged with the order it imposes.
        let plan = engine
            .plan_query(
                &queries::example2("E"),
                &store,
                None,
                Some(Permutation::Pos),
                None,
            )
            .unwrap();
        assert!(
            matches!(plan.root, PlanNode::Sort { .. }),
            "{}",
            plan.explain()
        );
        assert_eq!(plan.root.ordering(), Some(Permutation::Pos));
        assert!(plan.explain().contains("[sort pos]"), "{}", plan.explain());
        // Order-preserving operators pass the requirement down to the scans:
        // a union delivers by merge-unioning two re-ordered scans.
        let plan = engine
            .plan_query(
                &Expr::rel("E").union(Expr::rel("E")),
                &store,
                None,
                Some(Permutation::Osp),
                None,
            )
            .unwrap();
        assert!(
            matches!(plan.root, PlanNode::Union { .. }),
            "{}",
            plan.explain()
        );
        assert_eq!(plan.root.ordering(), Some(Permutation::Osp));
    }

    #[test]
    fn topk_folds_to_a_limit_over_ordered_input() {
        use trial_core::Permutation;
        let store = figure1();
        let engine = SmartEngine::new();
        // Over an input that already streams in the requested order, the
        // planner collapses top-k to a plain limit: early termination, no
        // heap at all.
        let plan = engine
            .plan_query(
                &Expr::rel("E"),
                &store,
                None,
                Some(Permutation::Pos),
                Some(3),
            )
            .unwrap();
        assert!(
            matches!(plan.root, PlanNode::Limit { limit: 3, .. }),
            "{}",
            plan.explain()
        );
        let eval = eval_query(
            &engine,
            &Expr::rel("E"),
            &store,
            None,
            Some(Permutation::Pos),
            Some(3),
        );
        assert_eq!(
            eval.stats.topk_buffered_peak, 0,
            "limit path must skip the heap"
        );
        assert_eq!(eval.result.len(), 3);
    }

    #[test]
    fn bound_scans_merge_against_each_other_via_secondary_orders() {
        // Two label-bound scans joined on their third components: each bound
        // POS run is also OSP-sorted, so the planner merges OSP against OSP
        // with no sort and no hash table.
        let mut b = TriplestoreBuilder::new();
        for (s, p, o) in [
            ("a", "x", "c"),
            ("d", "x", "e"),
            ("g", "x", "h"),
            ("b", "y", "c"),
            ("f", "y", "e"),
            ("i", "z", "c"),
        ] {
            b.add_triple("E", s, p, o);
        }
        let store = b.finish();
        let q = Expr::rel("E")
            .select(Conditions::new().obj_eq_const(Pos::L2, "x"))
            .join(
                Expr::rel("E").select(Conditions::new().obj_eq_const(Pos::L2, "y")),
                trial_core::OutputSpec::IDENTITY,
                Conditions::new().obj_eq(Pos::L3, Pos::R3),
            );
        let plan = SmartEngine::new()
            .plan_query(&q, &store, None, None, None)
            .unwrap();
        match &plan.root {
            PlanNode::MergeJoin {
                left, right, key, ..
            } => {
                assert_eq!(*key, (Pos::L3, Pos::R3));
                assert_eq!(left.ordering(), Some(trial_core::Permutation::Osp));
                assert_eq!(right.ordering(), Some(trial_core::Permutation::Osp));
                // Identity output: the merge itself claims the left order.
                assert_eq!(plan.root.ordering(), Some(trial_core::Permutation::Osp));
            }
            other => panic!("expected MergeJoin, got:\n{}", other.explain()),
        }
        assert!(
            plan.root
                .preorder()
                .iter()
                .all(|n| !matches!(n, PlanNode::Sort { .. })),
            "no sort should be needed:\n{}",
            plan.explain()
        );
        let eval = eval_query(&SmartEngine::new(), &q, &store, None, None, None);
        assert_eq!(eval.stats.hash_tables_built, 0);
        let naive = NaiveEngine::new().run(&q, &store).unwrap();
        assert_eq!(eval.result, naive);
    }

    #[test]
    fn interesting_orders_flip_probes_to_order_delivering_merges() {
        // On a store where the bound outer is tiny the probe gate normally
        // picks an index nested-loop join — which cannot deliver any order.
        let mut b = TriplestoreBuilder::new();
        for i in 0..40 {
            b.add_triple("E", format!("s{i}"), format!("p{i}"), format!("o{i}"));
        }
        b.add_triple("E", "TrainOp1", "part_of", "EastCoast");
        b.add_triple("E", "EastCoast", "part_of", "NatExpress");
        let store = b.finish();
        let q = Expr::rel("E")
            .select(Conditions::new().obj_eq_const(Pos::L2, "part_of"))
            .join(
                Expr::rel("E"),
                trial_core::OutputSpec::IDENTITY,
                Conditions::new().obj_eq(Pos::L3, Pos::R1),
            );
        let engine = SmartEngine::new();
        let cold = engine.plan_query(&q, &store, None, None, None).unwrap();
        assert!(
            matches!(cold.root, PlanNode::IndexNestedLoopJoin { .. }),
            "without an order request the probe should win:\n{}",
            cold.explain()
        );
        // Requesting OSP order makes the key's order interesting: the bound
        // scan's secondary order delivers it, so the planner flips to a
        // merge join and the requested order arrives sort-free.
        let ordered = engine
            .plan_query(&q, &store, None, Some(Permutation::Osp), None)
            .unwrap();
        match &ordered.root {
            PlanNode::MergeJoin { left, key, .. } => {
                assert_eq!(*key, (Pos::L3, Pos::R1));
                assert_eq!(left.ordering(), Some(trial_core::Permutation::Osp));
            }
            other => panic!("expected MergeJoin, got:\n{}", other.explain()),
        }
        assert!(
            ordered
                .root
                .preorder()
                .iter()
                .all(|n| !matches!(n, PlanNode::Sort { .. })),
            "the interesting order must arrive without a sort:\n{}",
            ordered.explain()
        );
        // Both shapes agree with the naive engine.
        let naive = NaiveEngine::new().run(&q, &store).unwrap();
        assert_eq!(engine.run(&q, &store).unwrap(), naive);
        let eval = eval_query(&engine, &q, &store, None, Some(Permutation::Osp), None);
        assert_eq!(eval.result, naive);
    }

    #[test]
    fn selectivity_estimates_never_underflow_nonempty_inputs() {
        // A long chain of equalities decays geometrically but must bottom
        // out at one row while the input is nonempty: rounding to 0 would
        // let Empty-propagation rewrites discard rows that still exist.
        let mut cond = Conditions::new();
        for _ in 0..30 {
            cond = cond.obj_eq(Pos::L1, Pos::L3).data_eq(Pos::L1, Pos::L2);
        }
        assert_eq!(selectivity_est(0, &cond), 0, "provably empty stays empty");
        assert!(selectivity_est(1, &cond) >= 1);
        assert!(selectivity_est(7, &cond) >= 1);
        assert!(selectivity_est(1_000_000, &cond) >= 1);
        assert_eq!(selectivity_est(500, &Conditions::new()), 500);
        // End to end: the heavily-filtered scan plans with a nonzero
        // estimate and does not fold to an Empty node.
        let store = figure1();
        let q = Expr::rel("E").select(cond);
        let plan = SmartEngine::new()
            .plan_query(&q, &store, None, None, None)
            .unwrap();
        assert!(
            plan.root.est() >= 1,
            "nonempty input must keep est >= 1:\n{}",
            plan.explain()
        );
        assert!(!matches!(plan.root, PlanNode::Empty));
    }
}
