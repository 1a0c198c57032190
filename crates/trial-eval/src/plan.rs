//! The physical plan IR: what the planner emits and the executor runs.
//!
//! A [`Plan`] is a tree of [`PlanNode`]s, each a concrete physical operator
//! with its chosen strategy (index scan vs. filter, hash vs. index
//! nested-loop join, semi-naive vs. reachability star) and an estimated
//! output cardinality. The tree is produced once per `(expression, store)`
//! pair by [`crate::planner`] and interpreted by [`crate::exec`]; the logical
//! [`Expr`](trial_core::Expr) tree is never pattern-matched on the execution
//! path.
//!
//! Each node also carries **pipeline metadata** consumed by the streaming
//! executor: [`PlanNode::ordered`] (output streams in canonical order, hence
//! duplicate-free) and [`PlanNode::pipelined`] (`false` marks a pipeline
//! breaker that materialises an input before emitting its first row).
//! [`Plan::explain`] renders the tree in the usual `EXPLAIN` style, tagging
//! every operator with its pipeline behaviour:
//!
//! ```text
//! Union  (~10 rows) [pipelined]
//! ├─ Memo #0 [breaker]
//! │  ╰─ HashJoin [1,3',3 | 2=1'] build=right  (~7 rows) [breaker]
//! │     ├─ IndexScan E  (7 rows) [pipelined]
//! │     ╰─ IndexScan E  (7 rows) [pipelined]
//! ╰─ StarReach plain on E  (~49 rows) [breaker]
//!    ╰─ IndexScan E  (7 rows) [pipelined]
//! ```

use std::fmt;
use trial_core::{Conditions, ObjectId, OutputSpec, Permutation, Pos, StarDirection};

/// One physical operator with its inputs and cardinality estimate.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Scan a stored relation, optionally binding one component to a
    /// constant through the matching permutation index, with residual
    /// selection conditions applied during the scan.
    IndexScan {
        /// Relation name.
        relation: String,
        /// Pushed-down constant binding `(component, object)` served by the
        /// permutation index keyed on that component.
        bound: Option<(usize, ObjectId)>,
        /// Residual selection conditions checked per scanned triple.
        residual: Conditions,
        /// Which permutation an **unbound** scan streams — the planner's
        /// free order-delivery knob (merge-join inputs, `?order=` roots).
        ///
        /// Bound scans always read the run of the permutation keyed on the
        /// bound component, but that run is *also* strictly sorted under the
        /// permutation's [`Permutation::secondary`] order (the bound
        /// component is constant, so the remaining two components — exactly
        /// the secondary key prefix — decide every comparison). Setting this
        /// field to the secondary permutation makes [`PlanNode::ordering`]
        /// advertise that order instead of the primary one, which is how the
        /// planner unlocks merge joins between two *bound* scans without
        /// inserting a sort. Any other value on a bound scan is ignored.
        order: Permutation,
        /// Estimated output rows.
        est: usize,
    },
    /// Materialise the universal relation `U = adom³`.
    Universe {
        /// Estimated output rows (`|adom|³`).
        est: usize,
    },
    /// The empty relation.
    Empty,
    /// Filter the input by selection conditions (no index available).
    Filter {
        /// Input plan.
        input: Box<PlanNode>,
        /// Selection conditions.
        cond: Conditions,
        /// Estimated output rows.
        est: usize,
    },
    /// Hash join: build a table on the right input keyed on the cross
    /// equalities, probe with the left input.
    HashJoin {
        /// Probe side.
        left: Box<PlanNode>,
        /// Build side.
        right: Box<PlanNode>,
        /// Output specification.
        output: OutputSpec,
        /// Full join conditions.
        cond: Conditions,
        /// Cross equalities used as the hash key.
        keys: Vec<(Pos, Pos)>,
        /// `true` if the planner swapped the written argument order (so the
        /// smaller side is built); output and conditions are already
        /// mirrored accordingly.
        swapped: bool,
        /// Estimated output rows.
        est: usize,
    },
    /// Index nested-loop join: probe a base relation's permutation index
    /// with each outer triple (no build phase at all).
    IndexNestedLoopJoin {
        /// Outer (probing, left) side.
        outer: Box<PlanNode>,
        /// Inner base relation, probed through its permutation index.
        relation: String,
        /// The cross equality used for the index probe.
        probe: (Pos, Pos),
        /// Output specification.
        output: OutputSpec,
        /// Full join conditions.
        cond: Conditions,
        /// `true` if the planner swapped the written argument order.
        swapped: bool,
        /// Estimated output rows.
        est: usize,
    },
    /// Sort-merge join: both inputs stream in a sort order keyed on the join
    /// component (left on `key.0`'s component, right on `key.1`'s), so the
    /// join is a single synchronized pass — fully pipelined, **no build
    /// side, no hash table**. Only the current right-side key group is
    /// buffered (bounded by the widest duplicate run).
    MergeJoin {
        /// Left input, streaming ordered on `key.0`'s component.
        left: Box<PlanNode>,
        /// Right input, streaming ordered on `key.1`'s component.
        right: Box<PlanNode>,
        /// Output specification.
        output: OutputSpec,
        /// Full join conditions (checked per matching pair; includes the
        /// merge key equality).
        cond: Conditions,
        /// The cross equality the merge is synchronized on.
        key: (Pos, Pos),
        /// Estimated output rows.
        est: usize,
    },
    /// Nested-loop join (no hashable key).
    NestedLoopJoin {
        /// Left input.
        left: Box<PlanNode>,
        /// Right input.
        right: Box<PlanNode>,
        /// Output specification.
        output: OutputSpec,
        /// Join conditions.
        cond: Conditions,
        /// Estimated output rows.
        est: usize,
    },
    /// Set union.
    Union {
        /// Left input.
        left: Box<PlanNode>,
        /// Right input.
        right: Box<PlanNode>,
        /// Estimated output rows.
        est: usize,
    },
    /// Set difference.
    Diff {
        /// Left input.
        left: Box<PlanNode>,
        /// Right input.
        right: Box<PlanNode>,
        /// Estimated output rows.
        est: usize,
    },
    /// Set intersection.
    Intersect {
        /// Left input.
        left: Box<PlanNode>,
        /// Right input.
        right: Box<PlanNode>,
        /// Estimated output rows.
        est: usize,
    },
    /// Complement against the universal relation.
    Complement {
        /// Input plan.
        input: Box<PlanNode>,
        /// Estimated output rows.
        est: usize,
    },
    /// Kleene star by semi-naive (delta) fixpoint iteration; the base's hash
    /// table is built once and probed every round.
    StarSemiNaive {
        /// Plan for the starred expression.
        input: Box<PlanNode>,
        /// Output specification of the iterated join.
        output: OutputSpec,
        /// Conditions of the iterated join.
        cond: Conditions,
        /// Closure direction.
        direction: StarDirection,
        /// Estimated output rows.
        est: usize,
    },
    /// Kleene star by the Proposition 5 reachability procedures: one BFS
    /// per `(x, ℓ)` source of the base's SPO run, the sources closed in SPO
    /// order.
    StarReach {
        /// Plan for the starred expression.
        input: Box<PlanNode>,
        /// `true` for the same-label shape `(R ✶^{1,2,3'}_{3=1',2=2'})^*`.
        same_label: bool,
        /// Estimated output rows.
        est: usize,
    },
    /// Regular path query evaluated as a BFS over the product of a stored
    /// relation's edge graph with the position automaton of the path
    /// expression ([`crate::rpq::eval_on_store`]). A leaf: the executor walks the
    /// relation's SPO run directly, one root at a time in id order. Emits
    /// the pair encoding `(x, x, y)` for every pair the path matches.
    PathNfa {
        /// The stored relation whose triples are the edge graph.
        relation: String,
        /// The path expression (its `Display` form is the query text).
        path: trial_parser::PathExpr,
        /// Bound on graph edges per matched path (`None` = unbounded).
        max_hops: Option<usize>,
        /// Estimated output rows.
        est: usize,
    },
    /// Materialisation point for a repeated sub-expression: the first
    /// execution stores the result in the slot, later executions reuse it.
    Memo {
        /// Slot number (one per distinct repeated sub-expression).
        slot: usize,
        /// Plan for the shared sub-expression.
        input: Box<PlanNode>,
    },
    /// Emit at most `limit` **distinct** triples of the input, then stop
    /// pulling — the early-termination point of the streaming executor.
    ///
    /// The planner pushes limits down through order-preserving operators
    /// (nested limits fold, union children are limited individually); a limit
    /// directly above a pipelined subtree bounds the number of rows the
    /// whole subtree ever produces.
    Limit {
        /// Input plan.
        input: Box<PlanNode>,
        /// Maximum number of distinct output triples.
        limit: usize,
        /// Estimated output rows (`min(input estimate, limit)`).
        est: usize,
    },
    /// Materialise the input and re-emit it sorted by the given permutation
    /// key — the explicit **order breaker** the planner inserts when an
    /// order is required (a `?order=` response) but no operator below can
    /// deliver it.
    Sort {
        /// Input plan.
        input: Box<PlanNode>,
        /// The permutation key the output streams in.
        order: Permutation,
        /// Estimated output rows (same as the input's).
        est: usize,
    },
    /// The `k` smallest distinct triples of the input under the given
    /// permutation key, via a bounded heap of at most `k` entries — the
    /// generalisation of [`PlanNode::Limit`] to "k smallest by component
    /// ordering". Consumes its whole input before emitting (a *bounded*
    /// breaker: memory never exceeds `k` buffered keys, asserted through
    /// [`crate::EvalStats::topk_buffered_peak`]), then streams the survivors
    /// in key order. Unlike a streamed limit the result is deterministic:
    /// permutation keys induce a total order, so "the k smallest" is a
    /// unique set.
    TopK {
        /// Input plan.
        input: Box<PlanNode>,
        /// Number of smallest triples kept.
        k: usize,
        /// The permutation key defining "smallest" (and the output order).
        order: Permutation,
        /// Estimated output rows (`min(input estimate, k)`).
        est: usize,
    },
}

impl PlanNode {
    /// The relation name if this node scans a stored relation without
    /// binding or residual filter.
    pub(crate) fn bare_scan(&self) -> Option<&str> {
        match self {
            PlanNode::IndexScan {
                relation,
                bound: None,
                residual,
                ..
            } if residual.is_empty() => Some(relation),
            _ => None,
        }
    }

    /// The planner's estimate of this node's output cardinality.
    pub fn est(&self) -> usize {
        match self {
            PlanNode::Empty => 0,
            PlanNode::IndexScan { est, .. }
            | PlanNode::Universe { est }
            | PlanNode::Filter { est, .. }
            | PlanNode::HashJoin { est, .. }
            | PlanNode::MergeJoin { est, .. }
            | PlanNode::IndexNestedLoopJoin { est, .. }
            | PlanNode::NestedLoopJoin { est, .. }
            | PlanNode::Union { est, .. }
            | PlanNode::Diff { est, .. }
            | PlanNode::Intersect { est, .. }
            | PlanNode::Complement { est, .. }
            | PlanNode::StarSemiNaive { est, .. }
            | PlanNode::StarReach { est, .. }
            | PlanNode::PathNfa { est, .. }
            | PlanNode::Limit { est, .. }
            | PlanNode::Sort { est, .. }
            | PlanNode::TopK { est, .. } => *est,
            PlanNode::Memo { input, .. } => input.est(),
        }
    }

    /// The sort order this operator's streamed output follows, if any: the
    /// permutation whose key is strictly increasing across the emitted rows.
    /// Because permutation keys order all three components, `Some(_)` also
    /// means the stream is duplicate-free.
    ///
    /// Ordered streams unlock merge joins and merge unions, allocation-free
    /// distinct counting, limit enforcement without a seen-set, and
    /// `?order=` responses that stream without a sort breaker. The metadata
    /// is deliberately **conservative**: joins never claim an order, even
    /// when the output spec projects only left positions in scan order —
    /// a probe row matching several build rows is emitted several times, and
    /// a duplicated row breaks the *strictly*-increasing contract that the
    /// dedup-free paths rely on. The one exception is the merge join with an
    /// **identity output** (`[1,2,3]`): the executor then short-circuits
    /// each left row after its first surviving partner (a semijoin — the
    /// projected row would be the same left row every time), so the output
    /// is a subsequence of the already-ordered, already-distinct left stream
    /// and the claim is real. (Claiming order through a mirrored hash join
    /// is exactly the kind of optimism the `every_claimed_order_is_real`
    /// regression test exists to catch.)
    pub fn ordering(&self) -> Option<Permutation> {
        match self {
            // An unbound scan streams whichever permutation the planner
            // chose; a bound scan streams the run of the permutation keyed on
            // the bound component (constant there, sorted on the rest — a
            // contiguous, strictly increasing slice of that permutation).
            // That same run is also strictly sorted under the permutation's
            // *secondary* order, and the planner opts into advertising it by
            // setting `order` to exactly that permutation (see the field
            // docs); every other `order` value means the primary claim.
            PlanNode::IndexScan { bound, order, .. } => match bound {
                None => Some(*order),
                Some((component, _)) => {
                    let primary = Permutation::keyed_on(*component);
                    Some(if *order == primary.secondary() {
                        *order
                    } else {
                        primary
                    })
                }
            },
            // Lexicographic loops over the sorted active domain.
            PlanNode::Universe { .. } | PlanNode::Empty => Some(Permutation::Spo),
            // Filtering preserves order; so do streamed set operations on
            // their left (streamed) side.
            PlanNode::Filter { input, .. } | PlanNode::Limit { input, .. } => input.ordering(),
            PlanNode::Diff { left, .. } | PlanNode::Intersect { left, .. } => left.ordering(),
            // A union merges (ordered) only when both inputs share an order;
            // otherwise it concatenates.
            PlanNode::Union { left, right, .. } => {
                let order = left.ordering()?;
                (right.ordering() == Some(order)).then_some(order)
            }
            // The universe streams in canonical order and removal preserves
            // it.
            PlanNode::Complement { .. } => Some(Permutation::Spo),
            // An identity-output merge join runs as a semijoin: each left
            // row is emitted at most once (the executor short-circuits the
            // right group after the first surviving partner), so the output
            // is a subsequence of the left stream and inherits its order.
            PlanNode::MergeJoin { left, output, .. } if *output == OutputSpec::IDENTITY => {
                left.ordering()
            }
            // Projection scrambles join outputs — and duplicate emissions
            // break strictness even when it wouldn't (see above). This
            // includes the projecting merge join: its *inputs* are ordered,
            // its output is not.
            PlanNode::HashJoin { .. }
            | PlanNode::MergeJoin { .. }
            | PlanNode::IndexNestedLoopJoin { .. }
            | PlanNode::NestedLoopJoin { .. } => None,
            // Fixpoints and memo slots materialise into sorted `TripleSet`s.
            // The Proposition 5 closures stream their sources in SPO order,
            // each source's rows sorted — the same order, from the first
            // source on.
            PlanNode::StarSemiNaive { .. }
            | PlanNode::StarReach { .. }
            | PlanNode::PathNfa { .. }
            | PlanNode::Memo { .. } => Some(Permutation::Spo),
            // Sort and top-k exist to impose their order.
            PlanNode::Sort { order, .. } | PlanNode::TopK { order, .. } => Some(*order),
        }
    }

    /// `true` if this operator's output streams in strictly increasing
    /// canonical (SPO) order — the order [`trial_core::TripleSet`]s store,
    /// so such streams collect via the zero-copy sorted path.
    pub fn ordered(&self) -> bool {
        self.ordering() == Some(Permutation::Spo)
    }

    /// `true` if the executor has a **morsel-parallel strategy** for this
    /// operator: with [`crate::EvalOptions::threads`] `> 1` (and an input
    /// large enough to beat spawn overhead) its set work is carved into
    /// contiguous morsels executed on a scoped worker pool.
    ///
    /// Only breakers own set work, so only they fan out: hash joins (sharded
    /// build), filtered index scans when a breaker materialises them
    /// (partitioned residual check), semi-naive stars (per-round delta
    /// partitioning) and the Proposition 5 closures, `StarReach` and
    /// `PathNfa` (sources fanned out when a breaker materialises them).
    /// Every other operator runs as a sequential cursor, since its work
    /// happens as rows are pulled; the stream exchange
    /// ([`crate::QueryStream::channel`]) fans out an ordered root on its own.
    pub fn parallelizable(&self) -> bool {
        match self {
            PlanNode::IndexScan { residual, .. } => !residual.is_empty(),
            PlanNode::HashJoin { .. }
            | PlanNode::StarSemiNaive { .. }
            | PlanNode::StarReach { .. }
            | PlanNode::PathNfa { .. } => true,
            PlanNode::Filter { .. }
            | PlanNode::MergeJoin { .. }
            | PlanNode::IndexNestedLoopJoin { .. }
            | PlanNode::NestedLoopJoin { .. }
            | PlanNode::Union { .. }
            | PlanNode::Diff { .. }
            | PlanNode::Intersect { .. }
            | PlanNode::Complement { .. }
            | PlanNode::Universe { .. }
            | PlanNode::Empty
            | PlanNode::Memo { .. }
            | PlanNode::Limit { .. }
            | PlanNode::Sort { .. }
            | PlanNode::TopK { .. } => false,
        }
    }

    /// This subtree in preorder (the node itself, then each child's subtree
    /// left to right) — the indexing scheme shared by
    /// [`crate::exec`]'s per-node actual-row counters and the server's
    /// structured `/explain` tree.
    pub fn preorder(&self) -> Vec<&PlanNode> {
        fn walk<'n>(node: &'n PlanNode, out: &mut Vec<&'n PlanNode>) {
            out.push(node);
            for child in node.children() {
                walk(child, out);
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// `true` if this operator emits rows incrementally as its inputs are
    /// pulled; `false` if it is a **pipeline breaker** that must fully
    /// consume at least one input before emitting its first row (hash-join
    /// build sides, nested-loop and difference/intersection right sides,
    /// complement inputs, star inputs, memo slots).
    ///
    /// The two Proposition 5 closures differ here only by their input. A
    /// `PathNfa` is a leaf over a stored relation whose product walk runs
    /// one root per pull, so it is pipelined. A `StarReach` streams its
    /// closure source by source too, but must first materialise the base it
    /// walks, so it stays a breaker; the generic fixpoint does all its work
    /// before the first row.
    pub fn pipelined(&self) -> bool {
        match self {
            PlanNode::IndexScan { .. }
            | PlanNode::Universe { .. }
            | PlanNode::Empty
            | PlanNode::Filter { .. }
            | PlanNode::Union { .. }
            | PlanNode::MergeJoin { .. }
            | PlanNode::IndexNestedLoopJoin { .. }
            | PlanNode::PathNfa { .. }
            | PlanNode::Limit { .. } => true,
            PlanNode::HashJoin { .. }
            | PlanNode::NestedLoopJoin { .. }
            | PlanNode::Diff { .. }
            | PlanNode::Intersect { .. }
            | PlanNode::Complement { .. }
            | PlanNode::StarSemiNaive { .. }
            | PlanNode::StarReach { .. }
            | PlanNode::Memo { .. }
            // A sort materialises its whole input; a top-k heap must see
            // every row before the smallest k are known (but buffers at most
            // k of them — a *bounded* breaker).
            | PlanNode::Sort { .. }
            | PlanNode::TopK { .. } => false,
        }
    }

    /// Child plans, left to right.
    pub fn children(&self) -> Vec<&PlanNode> {
        match self {
            PlanNode::IndexScan { .. }
            | PlanNode::Universe { .. }
            | PlanNode::Empty
            | PlanNode::PathNfa { .. } => vec![],
            PlanNode::Filter { input, .. }
            | PlanNode::Complement { input, .. }
            | PlanNode::StarSemiNaive { input, .. }
            | PlanNode::StarReach { input, .. }
            | PlanNode::Memo { input, .. }
            | PlanNode::Limit { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::TopK { input, .. } => vec![input],
            PlanNode::HashJoin { left, right, .. }
            | PlanNode::MergeJoin { left, right, .. }
            | PlanNode::NestedLoopJoin { left, right, .. }
            | PlanNode::Union { left, right, .. }
            | PlanNode::Diff { left, right, .. }
            | PlanNode::Intersect { left, right, .. } => vec![left, right],
            PlanNode::IndexNestedLoopJoin { outer, .. } => vec![outer],
        }
    }

    /// The operator's one-line label (without children) as rendered for an
    /// evaluation running on `threads` worker threads: like
    /// [`PlanNode::label`], plus a `[parallel×N]` tag on every operator the
    /// executor would run morsel-parallel at that degree.
    pub fn label_with_threads(&self, threads: usize) -> String {
        let mut label = self.label();
        if threads > 1 && self.parallelizable() {
            label.push_str(&format!(" [parallel×{threads}]"));
        }
        label
    }

    /// The operator's one-line label (without children), as used by
    /// [`Plan::explain`].
    pub fn label(&self) -> String {
        fn cond_part(output: &OutputSpec, cond: &Conditions) -> String {
            if cond.is_empty() {
                format!("[{output}]")
            } else {
                format!("[{output} | {cond}]")
            }
        }
        let mut label = match self {
            PlanNode::IndexScan {
                relation,
                bound,
                residual,
                order,
                est,
            } => {
                let mut s = format!("IndexScan {relation}");
                if let Some((component, id)) = bound {
                    s.push_str(&format!(" where {}=#{}", component + 1, id.0));
                    // A bound run advertising its secondary sort order is a
                    // deliberate planner choice (bound⋈bound merge input).
                    if *order == Permutation::keyed_on(*component).secondary() {
                        s.push_str(&format!(" order={order}"));
                    }
                } else if *order != Permutation::Spo {
                    // A non-canonical scan order is a deliberate planner
                    // choice (merge-join input, ?order= root): surface it.
                    s.push_str(&format!(" order={order}"));
                }
                if !residual.is_empty() {
                    s.push_str(&format!(" filter [{residual}]"));
                }
                s.push_str(&format!("  ({est} rows)"));
                s
            }
            PlanNode::Universe { est } => format!("Universe  (~{est} rows)"),
            PlanNode::Empty => "Empty  (0 rows)".to_owned(),
            PlanNode::Filter { cond, est, .. } => format!("Filter [{cond}]  (~{est} rows)"),
            PlanNode::HashJoin {
                output,
                cond,
                keys,
                swapped,
                est,
                ..
            } => {
                let keys: Vec<String> = keys.iter().map(|(l, r)| format!("{l}={r}")).collect();
                format!(
                    "HashJoin {} keys={}{}  (~{est} rows)",
                    cond_part(output, cond),
                    keys.join(","),
                    if *swapped { " (args swapped)" } else { "" },
                )
            }
            PlanNode::MergeJoin {
                left,
                right,
                output,
                cond,
                key,
                est,
            } => {
                let side = |n: &PlanNode| n.ordering().map(|p| p.name()).unwrap_or("?");
                format!(
                    "MergeJoin {} on {}={}  (~{est} rows) [merge {}⋈{}]",
                    cond_part(output, cond),
                    key.0,
                    key.1,
                    side(left),
                    side(right),
                )
            }
            PlanNode::IndexNestedLoopJoin {
                relation,
                probe,
                output,
                cond,
                swapped,
                est,
                ..
            } => format!(
                "IndexNestedLoopJoin {} into {relation} via {}={}{}  (~{est} rows)",
                cond_part(output, cond),
                probe.0,
                probe.1,
                if *swapped { " (args swapped)" } else { "" },
            ),
            PlanNode::NestedLoopJoin {
                output, cond, est, ..
            } => format!("NestedLoopJoin {}  (~{est} rows)", cond_part(output, cond)),
            PlanNode::Union { est, .. } => format!("Union  (~{est} rows)"),
            PlanNode::Diff { est, .. } => format!("Diff  (~{est} rows)"),
            PlanNode::Intersect { est, .. } => format!("Intersect  (~{est} rows)"),
            PlanNode::Complement { est, .. } => format!("Complement  (~{est} rows)"),
            PlanNode::StarSemiNaive {
                output,
                cond,
                direction,
                est,
                ..
            } => {
                let dir = match direction {
                    StarDirection::Right => "right",
                    StarDirection::Left => "left",
                };
                format!(
                    "StarSemiNaive {dir} {}  (~{est} rows)",
                    cond_part(output, cond)
                )
            }
            PlanNode::StarReach {
                input,
                same_label,
                est,
            } => {
                let shape = if *same_label { "same-label" } else { "plain" };
                match input.bare_scan() {
                    Some(rel) => format!("StarReach {shape} on {rel}  (~{est} rows)"),
                    None => format!("StarReach {shape}  (~{est} rows)"),
                }
            }
            PlanNode::PathNfa {
                relation,
                path,
                max_hops,
                est,
            } => match max_hops {
                Some(h) => format!("PathNfa {path} on {relation} max_hops={h}  (~{est} rows)"),
                None => format!("PathNfa {path} on {relation}  (~{est} rows)"),
            },
            PlanNode::Memo { slot, .. } => format!("Memo #{slot}"),
            PlanNode::Limit { limit, est, .. } => format!("Limit {limit}  (~{est} rows)"),
            PlanNode::Sort { order, est, .. } => format!("Sort  (~{est} rows) [sort {order}]"),
            PlanNode::TopK { k, order, est, .. } => {
                format!("TopK {k}  (~{est} rows) [topk {order}]")
            }
        };
        label.push_str(if self.pipelined() {
            " [pipelined]"
        } else {
            " [breaker]"
        });
        label
    }

    fn render(&self, out: &mut String, prefix: &str, is_last: Option<bool>, threads: usize) {
        let (branch, next_prefix) = match is_last {
            None => ("", String::new()),
            Some(false) => ("├─ ", format!("{prefix}│  ")),
            Some(true) => ("╰─ ", format!("{prefix}   ")),
        };
        out.push_str(prefix);
        out.push_str(branch);
        out.push_str(&self.label_with_threads(threads));
        out.push('\n');
        let children = self.children();
        let count = children.len();
        for (i, child) in children.into_iter().enumerate() {
            child.render(out, &next_prefix, Some(i + 1 == count), threads);
        }
    }

    /// Renders this subtree in `EXPLAIN` style (single-threaded labels; use
    /// [`Plan::explain`] for the thread-aware rendering of a whole plan).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, "", None, 1);
        out
    }
}

impl fmt::Display for PlanNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

/// A complete physical plan: the operator tree plus the number of memo slots
/// the executor must allocate and the degree of parallelism it was planned
/// for.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Root operator.
    pub root: PlanNode,
    /// Number of [`PlanNode::Memo`] slots referenced by the tree.
    pub memo_slots: usize,
    /// The [`crate::EvalOptions::threads`] the plan was built under; drives
    /// the `[parallel×N]` tags in [`Plan::explain`] (always at least 1).
    pub threads: usize,
}

impl Plan {
    /// Renders the plan in `EXPLAIN` style (see the module docs for a
    /// sample). With [`Plan::threads`]` > 1`, operators the executor runs
    /// morsel-parallel are tagged `[parallel×N]`.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.root.render(&mut out, "", None, self.threads.max(1));
        out
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trial_core::{output, Conditions, Pos};

    fn scan(rel: &str, est: usize) -> PlanNode {
        PlanNode::IndexScan {
            relation: rel.to_owned(),
            bound: None,
            residual: Conditions::new(),
            order: Permutation::Spo,
            est,
        }
    }

    #[test]
    fn explain_renders_tree_structure() {
        let join = PlanNode::HashJoin {
            left: Box::new(scan("E", 7)),
            right: Box::new(scan("E", 7)),
            output: output(Pos::L1, Pos::R3, Pos::L3),
            cond: Conditions::new().obj_eq(Pos::L2, Pos::R1),
            keys: vec![(Pos::L2, Pos::R1)],
            swapped: false,
            est: 7,
        };
        let plan = Plan {
            root: PlanNode::Union {
                left: Box::new(PlanNode::Memo {
                    slot: 0,
                    input: Box::new(join),
                }),
                right: Box::new(PlanNode::Empty),
                est: 7,
            },
            memo_slots: 1,
            threads: 1,
        };
        let text = plan.explain();
        assert!(text.contains("Union"));
        assert!(text.contains("Memo #0"));
        assert!(text.contains("HashJoin [1,3',3 | 2=1'] keys=2=1'"));
        assert!(text.contains("├─"));
        assert!(text.contains("╰─"));
        assert!(text.contains("IndexScan E  (7 rows)"));
        assert_eq!(plan.root.est(), 7);
        assert_eq!(plan.to_string(), text);
    }

    #[test]
    fn every_operator_has_a_label() {
        let nodes = vec![
            scan("E", 1),
            PlanNode::Universe { est: 27 },
            PlanNode::Empty,
            PlanNode::Filter {
                input: Box::new(PlanNode::Empty),
                cond: Conditions::new().obj_eq_const(Pos::L2, "p"),
                est: 1,
            },
            PlanNode::IndexNestedLoopJoin {
                outer: Box::new(scan("E", 2)),
                relation: "E".into(),
                probe: (Pos::L3, Pos::R1),
                output: output(Pos::L1, Pos::L2, Pos::R3),
                cond: Conditions::new().obj_eq(Pos::L3, Pos::R1),
                swapped: true,
                est: 2,
            },
            PlanNode::NestedLoopJoin {
                left: Box::new(scan("E", 2)),
                right: Box::new(scan("E", 2)),
                output: output(Pos::L1, Pos::L2, Pos::R3),
                cond: Conditions::new(),
                est: 4,
            },
            PlanNode::Diff {
                left: Box::new(scan("E", 2)),
                right: Box::new(PlanNode::Empty),
                est: 2,
            },
            PlanNode::Intersect {
                left: Box::new(scan("E", 2)),
                right: Box::new(scan("F", 3)),
                est: 2,
            },
            PlanNode::Complement {
                input: Box::new(scan("E", 2)),
                est: 25,
            },
            PlanNode::StarSemiNaive {
                input: Box::new(scan("E", 2)),
                output: output(Pos::L1, Pos::L2, Pos::R3),
                cond: Conditions::new().obj_eq(Pos::L3, Pos::R1),
                direction: StarDirection::Left,
                est: 4,
            },
            PlanNode::StarReach {
                input: Box::new(scan("E", 2)),
                same_label: true,
                est: 4,
            },
            PlanNode::MergeJoin {
                left: Box::new(scan("E", 2)),
                right: Box::new(scan("E", 2)),
                output: output(Pos::L1, Pos::L2, Pos::R3),
                cond: Conditions::new().obj_eq(Pos::L1, Pos::R1),
                key: (Pos::L1, Pos::R1),
                est: 2,
            },
            PlanNode::Sort {
                input: Box::new(scan("E", 2)),
                order: Permutation::Pos,
                est: 2,
            },
            PlanNode::TopK {
                input: Box::new(scan("E", 2)),
                k: 1,
                order: Permutation::Osp,
                est: 1,
            },
        ];
        for node in nodes {
            let label = node.label();
            assert!(!label.is_empty());
            // The tree rendering of a node always starts with its label.
            assert!(node.explain().starts_with(&label));
        }
    }

    #[test]
    fn pipeline_metadata_is_reported() {
        let scan_node = scan("E", 7);
        assert!(scan_node.ordered());
        assert!(scan_node.pipelined());
        // A scan bound through POS/OSP interleaves; bound through SPO stays
        // canonical.
        let bound_pos = PlanNode::IndexScan {
            relation: "E".into(),
            bound: Some((1, trial_core::ObjectId(3))),
            residual: Conditions::new(),
            order: Permutation::Spo,
            est: 2,
        };
        assert!(!bound_pos.ordered());
        assert_eq!(bound_pos.ordering(), Some(Permutation::Pos));
        let bound_spo = PlanNode::IndexScan {
            relation: "E".into(),
            bound: Some((0, trial_core::ObjectId(3))),
            residual: Conditions::new(),
            order: Permutation::Spo,
            est: 2,
        };
        assert!(bound_spo.ordered());
        // Joins scramble order and break the pipeline on their build side.
        let join = PlanNode::HashJoin {
            left: Box::new(scan("E", 7)),
            right: Box::new(scan("E", 7)),
            output: output(Pos::L1, Pos::R3, Pos::L3),
            cond: Conditions::new().obj_eq(Pos::L2, Pos::R1),
            keys: vec![(Pos::L2, Pos::R1)],
            swapped: false,
            est: 7,
        };
        assert!(!join.ordered());
        assert!(!join.pipelined());
        assert!(join.label().contains("[breaker]"));
        // Union of ordered inputs merges (ordered); over a join it chains.
        let ordered_union = PlanNode::Union {
            left: Box::new(scan("E", 7)),
            right: Box::new(scan("F", 3)),
            est: 10,
        };
        assert!(ordered_union.ordered());
        assert!(ordered_union.pipelined());
        let chained_union = PlanNode::Union {
            left: Box::new(join.clone()),
            right: Box::new(scan("F", 3)),
            est: 10,
        };
        assert!(!chained_union.ordered());
        assert!(chained_union.pipelined());
        // Limits inherit ordering and never break the pipeline.
        let limit = PlanNode::Limit {
            input: Box::new(join),
            limit: 5,
            est: 5,
        };
        assert!(!limit.ordered());
        assert!(limit.pipelined());
        assert_eq!(limit.est(), 5);
        assert!(limit.label().starts_with("Limit 5"));
        assert_eq!(limit.children().len(), 1);
        // Stars and memo slots materialise: ordered but breaking.
        let star = PlanNode::StarReach {
            input: Box::new(scan("E", 7)),
            same_label: false,
            est: 49,
        };
        assert!(star.ordered());
        assert!(!star.pipelined());
    }

    #[test]
    fn parallel_metadata_and_tags() {
        let join = PlanNode::HashJoin {
            left: Box::new(scan("E", 7)),
            right: Box::new(scan("E", 7)),
            output: output(Pos::L1, Pos::R3, Pos::L3),
            cond: Conditions::new().obj_eq(Pos::L2, Pos::R1),
            keys: vec![(Pos::L2, Pos::R1)],
            swapped: false,
            est: 7,
        };
        assert!(join.parallelizable());
        // A plain scan is a passthrough (nothing to parallelise); a filtered
        // scan partitions its residual check.
        assert!(!scan("E", 7).parallelizable());
        let filtered = PlanNode::IndexScan {
            relation: "E".into(),
            bound: None,
            residual: Conditions::new().obj_neq(Pos::L1, Pos::L3),
            order: Permutation::Spo,
            est: 5,
        };
        assert!(filtered.parallelizable());
        // Limits fall back to the sequential streaming pipeline.
        let limit = PlanNode::Limit {
            input: Box::new(join.clone()),
            limit: 5,
            est: 5,
        };
        assert!(!limit.parallelizable());
        // Operators whose work happens as rows are pulled never fan out.
        let filter = PlanNode::Filter {
            input: Box::new(join.clone()),
            cond: Conditions::new().obj_neq(Pos::L1, Pos::L3),
            est: 5,
        };
        let union = PlanNode::Union {
            left: Box::new(filter.clone()),
            right: Box::new(filtered.clone()),
            est: 10,
        };
        for streamed in [&filter, &union] {
            assert!(!streamed.parallelizable());
            assert!(!streamed.label_with_threads(4).contains("parallel"));
        }
        // Labels carry the tag only at degree > 1.
        assert!(join.label_with_threads(4).contains("[parallel×4]"));
        assert!(!join.label_with_threads(1).contains("parallel"));
        assert!(!limit.label_with_threads(4).contains("parallel"));
        // Plan::explain renders with the plan's own degree.
        let parallel_plan = Plan {
            root: join.clone(),
            memo_slots: 0,
            threads: 4,
        };
        assert!(parallel_plan.explain().contains("[parallel×4]"));
        let sequential_plan = Plan {
            root: join,
            memo_slots: 0,
            threads: 1,
        };
        assert!(!sequential_plan.explain().contains("parallel"));
    }

    #[test]
    fn bound_scans_can_advertise_their_secondary_order() {
        // A POS-bound run (component 2 fixed) is also OSP-sorted; declaring
        // `order: osp` switches the advertised ordering without changing the
        // physical scan.
        let bound = |order| PlanNode::IndexScan {
            relation: "E".into(),
            bound: Some((1, trial_core::ObjectId(3))),
            residual: Conditions::new(),
            order,
            est: 2,
        };
        assert_eq!(bound(Permutation::Spo).ordering(), Some(Permutation::Pos));
        assert_eq!(bound(Permutation::Pos).ordering(), Some(Permutation::Pos));
        assert_eq!(bound(Permutation::Osp).ordering(), Some(Permutation::Osp));
        // The secondary claim is surfaced in the label; the primary is not.
        assert!(
            bound(Permutation::Osp).label().contains("order=osp"),
            "{}",
            bound(Permutation::Osp).label()
        );
        assert!(!bound(Permutation::Spo).label().contains("order="));
    }

    #[test]
    fn identity_merge_joins_inherit_the_left_order() {
        let left = PlanNode::IndexScan {
            relation: "E".into(),
            bound: None,
            residual: Conditions::new(),
            order: Permutation::Pos,
            est: 7,
        };
        let semi = PlanNode::MergeJoin {
            left: Box::new(left.clone()),
            right: Box::new(scan("E", 7)),
            output: OutputSpec::IDENTITY,
            cond: Conditions::new().obj_eq(Pos::L2, Pos::R1),
            key: (Pos::L2, Pos::R1),
            est: 7,
        };
        assert_eq!(semi.ordering(), Some(Permutation::Pos));
        // A projecting output still scrambles: no claim.
        let projecting = PlanNode::MergeJoin {
            left: Box::new(left),
            right: Box::new(scan("E", 7)),
            output: output(Pos::L1, Pos::R3, Pos::L3),
            cond: Conditions::new().obj_eq(Pos::L2, Pos::R1),
            key: (Pos::L2, Pos::R1),
            est: 7,
        };
        assert_eq!(projecting.ordering(), None);
    }

    #[test]
    fn preorder_walk_matches_tree_shape() {
        let tree = PlanNode::Union {
            left: Box::new(PlanNode::Filter {
                input: Box::new(scan("E", 3)),
                cond: Conditions::new().obj_neq(Pos::L1, Pos::L2),
                est: 2,
            }),
            right: Box::new(scan("F", 4)),
            est: 6,
        };
        let order = tree.preorder();
        assert_eq!(order.len(), 4);
        assert!(matches!(order[0], PlanNode::Union { .. }));
        assert!(matches!(order[1], PlanNode::Filter { .. }));
        assert!(matches!(order[2], PlanNode::IndexScan { relation, .. } if relation == "E"));
        assert!(matches!(order[3], PlanNode::IndexScan { relation, .. } if relation == "F"));
    }

    #[test]
    fn bound_scans_render_the_binding() {
        let node = PlanNode::IndexScan {
            relation: "E".into(),
            bound: Some((1, trial_core::ObjectId(5))),
            residual: Conditions::new().data_eq(Pos::L1, Pos::L3),
            order: Permutation::Spo,
            est: 3,
        };
        let label = node.label();
        assert!(label.contains("where 2=#5"), "got: {label}");
        assert!(label.contains("filter [rho(1)=rho(3)]"), "got: {label}");
        // An unbound scan in a non-canonical order surfaces the choice.
        let pos_scan = PlanNode::IndexScan {
            relation: "E".into(),
            bound: None,
            residual: Conditions::new(),
            order: Permutation::Pos,
            est: 7,
        };
        assert!(
            pos_scan.label().contains("order=pos"),
            "{}",
            pos_scan.label()
        );
        assert_eq!(pos_scan.ordering(), Some(Permutation::Pos));
        assert!(!pos_scan.ordered());
    }

    #[test]
    fn ordered_operators_report_their_metadata() {
        // Merge join: ordered inputs, fully pipelined, *unordered* output.
        let left = PlanNode::IndexScan {
            relation: "E".into(),
            bound: None,
            residual: Conditions::new(),
            order: Permutation::Pos,
            est: 7,
        };
        let join = PlanNode::MergeJoin {
            left: Box::new(left),
            right: Box::new(scan("E", 7)),
            output: output(Pos::L1, Pos::R3, Pos::L3),
            cond: Conditions::new().obj_eq(Pos::L2, Pos::R1),
            key: (Pos::L2, Pos::R1),
            est: 7,
        };
        assert!(join.pipelined(), "merge joins must not break the pipeline");
        assert_eq!(join.ordering(), None, "projection scrambles the output");
        // Its work happens as rows are pulled: nothing to fan out.
        assert!(!join.parallelizable());
        let label = join.label();
        assert!(label.contains("MergeJoin"), "{label}");
        assert!(label.contains("on 2=1'"), "{label}");
        assert!(label.contains("[merge pos⋈spo]"), "{label}");
        assert!(label.contains("[pipelined]"), "{label}");
        // Sort: a breaker that imposes its order.
        let sort = PlanNode::Sort {
            input: Box::new(join.clone()),
            order: Permutation::Osp,
            est: 7,
        };
        assert_eq!(sort.ordering(), Some(Permutation::Osp));
        assert!(!sort.pipelined());
        assert!(sort.label().contains("[sort osp]"), "{}", sort.label());
        assert!(sort.label().contains("[breaker]"), "{}", sort.label());
        // TopK: a bounded breaker that imposes its order.
        let topk = PlanNode::TopK {
            input: Box::new(join),
            k: 5,
            order: Permutation::Pos,
            est: 5,
        };
        assert_eq!(topk.ordering(), Some(Permutation::Pos));
        assert!(!topk.pipelined());
        assert!(!topk.parallelizable());
        assert_eq!(topk.est(), 5);
        assert_eq!(topk.children().len(), 1);
        assert!(topk.label().contains("TopK 5"), "{}", topk.label());
        assert!(topk.label().contains("[topk pos]"), "{}", topk.label());
        // A union only claims an order its two sides share.
        let mixed = PlanNode::Union {
            left: Box::new(PlanNode::IndexScan {
                relation: "E".into(),
                bound: None,
                residual: Conditions::new(),
                order: Permutation::Pos,
                est: 7,
            }),
            right: Box::new(scan("F", 3)),
            est: 10,
        };
        assert_eq!(mixed.ordering(), None);
    }
}
