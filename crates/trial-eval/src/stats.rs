//! Feedback-driven planner statistics: observed cardinalities keyed by
//! normalized plan-shape fingerprints.
//!
//! The planner's heuristics (the textbook 0.2/0.8 selectivities in
//! `selectivity_est`, the `|L|·|R|/max(V)` join formula) are static — they
//! never learn from the exact per-node actual row counts that
//! [`SmartEngine::analyze`](crate::SmartEngine::analyze)
//! already produces. A [`StatsStore`] closes that loop:
//!
//! * **ingest** — [`StatsStore::observe_plan`] walks an executed plan in
//!   preorder next to its actual row counts and records, per node, an
//!   exponentially-decayed moving average of the observed cardinality under
//!   the node's [`fingerprint`];
//! * **estimate** — while planning, the planner asks
//!   [`StatsStore::estimate`] for every operator it builds and replaces the
//!   heuristic estimate with the observed one when the fingerprint is known
//!   (`est_src=stats` in the server's `/explain`), which flows into every
//!   downstream decision: join strategy and orientation, build-side choice,
//!   merge-vs-probe gates, and morsel granularity;
//! * **invalidate** — statistics describe one immutable store snapshot.
//!   [`StatsStore::invalidate`] atomically clears the table and adopts the
//!   new epoch when the underlying data changes (`/load`), and
//!   [`StatsStore::observe_plan`] drops observations recorded against a
//!   stale epoch so an in-flight `analyze` of the old snapshot can never
//!   pollute the fresh table.
//!
//! # Fingerprints
//!
//! A [`fingerprint`] hashes the **logical shape** of an operator — scanned
//! relation, pushed-down binding, condition structure, child shapes — and
//! deliberately ignores everything the feedback loop itself changes:
//! cardinality estimates, chosen scan orders, and the physical join variant
//! (a hash join, merge join and index nested-loop probe of the same logical
//! join share one fingerprint, with the two argument orientations
//! normalized so `A ⋈ B` and the mirrored `B ⋈ A` also coincide). Were the
//! estimate part of the key, the first correction would orphan every
//! previously-learned entry; were the join variant part of it, a plan
//! flipped by feedback could never find the observation that flipped it.
//!
//! Constant bindings hash the raw [`ObjectId`], which is only meaningful
//! within one store epoch — exactly the lifetime the epoch invalidation
//! enforces.

use crate::plan::{Plan, PlanNode};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Decay of the exponentially-weighted moving average: a fresh observation
/// contributes half of the stored value, so stale cardinalities fade in a
/// few observations without letting one outlier overwrite history.
const EWMA_ALPHA: f64 = 0.5;

/// Observed-cardinality statistics for one store (one epoch at a time).
///
/// Thread-safe and cheap to share: estimates take a read lock, ingestion and
/// invalidation a write lock, and the replan counter is a lone atomic.
#[derive(Debug, Default)]
pub struct StatsStore {
    inner: RwLock<Inner>,
    /// Number of plans that consulted at least one observed estimate.
    replans: AtomicU64,
    /// Bumped whenever the table's contents change (ingestion that recorded
    /// at least one node, or an epoch invalidation). Cache keys include it
    /// so fragments planned against stale statistics are not re-served once
    /// the table has learned better cardinalities.
    generation: AtomicU64,
}

#[derive(Debug, Default)]
struct Inner {
    /// The store epoch the entries describe.
    epoch: u64,
    /// Fingerprint → decayed observed cardinality.
    entries: HashMap<u64, f64>,
}

/// What one [`StatsStore::observe_plan`] call recorded: how many nodes were
/// ingested and the estimate error of every node that reported an actual.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObserveSummary {
    /// Nodes whose observed cardinality entered the table.
    pub ingested: usize,
    /// Per observed node, `|est − actual| · 100 / max(actual, 1)` — the
    /// relative estimate error in percent, the quantity the server's
    /// `est_error` histogram tracks over time.
    pub est_errors: Vec<u64>,
}

impl StatsStore {
    /// An empty table at epoch 0.
    pub fn new() -> Self {
        StatsStore::default()
    }

    /// The epoch the current entries describe.
    pub fn epoch(&self) -> u64 {
        self.inner.read().expect("stats lock poisoned").epoch
    }

    /// Number of fingerprints with an observed cardinality.
    pub fn entries(&self) -> usize {
        self.inner
            .read()
            .expect("stats lock poisoned")
            .entries
            .len()
    }

    /// How many plans consulted at least one observed estimate.
    pub fn replans(&self) -> u64 {
        self.replans.load(Ordering::Relaxed)
    }

    /// Called by the planner when a plan used at least one observed
    /// estimate.
    pub fn note_replan(&self) {
        self.replans.fetch_add(1, Ordering::Relaxed);
    }

    /// A counter that changes whenever the table's contents change. Two
    /// calls returning the same value bracket a window in which every plan
    /// against this store would come out identical — the property result
    /// caches key on.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The observed cardinality for a fingerprint, if any (never 0: an
    /// estimate of "provably empty" is the planner's call, not feedback's).
    pub fn estimate(&self, fingerprint: u64) -> Option<u64> {
        let inner = self.inner.read().expect("stats lock poisoned");
        inner
            .entries
            .get(&fingerprint)
            .map(|&rows| (rows.round() as u64).max(1))
    }

    /// [`StatsStore::estimate`] through a node's [`fingerprint`]: the
    /// observed cardinality the planner would substitute for this operator's
    /// heuristic estimate (`None` → the heuristic stands, `est_src=heuristic`).
    pub fn estimate_node(&self, node: &PlanNode) -> Option<u64> {
        self.estimate(fingerprint(node)?)
    }

    /// Ingests an executed plan's actual row counts (indexed like
    /// [`PlanNode::preorder`], as produced by
    /// [`SmartEngine::analyze`](crate::SmartEngine::analyze)).
    ///
    /// `epoch` is the store epoch the evaluation ran against: observations
    /// from any other epoch are dropped whole, so a slow `analyze` completing
    /// after a `/load` cannot seed the new table with the old snapshot's
    /// cardinalities.
    pub fn observe_plan(&self, plan: &Plan, actuals: &[Option<u64>], epoch: u64) -> ObserveSummary {
        let mut summary = ObserveSummary::default();
        let nodes = plan.root.preorder();
        let mut inner = self.inner.write().expect("stats lock poisoned");
        if inner.epoch != epoch {
            return summary;
        }
        for (node, actual) in nodes.iter().zip(actuals) {
            let Some(actual) = *actual else { continue };
            let est = node.est() as u64;
            summary
                .est_errors
                .push(est.abs_diff(actual).saturating_mul(100) / actual.max(1));
            let Some(fp) = fingerprint(node) else {
                continue;
            };
            let entry = inner.entries.entry(fp);
            entry
                .and_modify(|rows| *rows += EWMA_ALPHA * (actual as f64 - *rows))
                .or_insert(actual as f64);
            summary.ingested += 1;
        }
        if summary.ingested > 0 {
            self.generation.fetch_add(1, Ordering::Release);
        }
        summary
    }

    /// Clears the table and adopts `epoch` — the data changed underneath, so
    /// every observed cardinality (and every raw [`ObjectId`] baked into a
    /// fingerprint) is meaningless. A no-op when already at `epoch`, making
    /// it safe to call eagerly. Counters survive: replans are a lifetime
    /// total.
    pub fn invalidate(&self, epoch: u64) {
        let mut inner = self.inner.write().expect("stats lock poisoned");
        if inner.epoch != epoch {
            inner.entries.clear();
            inner.epoch = epoch;
            self.generation.fetch_add(1, Ordering::Release);
        }
    }
}

use trial_core::ObjectId;

/// The normalized plan-shape fingerprint of one operator (see the module
/// docs for what it keys on and what it deliberately ignores). `None` for
/// operators whose cardinality is structural or already exact — limits,
/// sorts, top-k bounds, the universe, the empty relation — and for memo
/// slots, which are transparent (their input's fingerprint is the shape).
pub fn fingerprint(node: &PlanNode) -> Option<u64> {
    fn hash_one<T: Hash>(tag: &str, value: &T) -> u64 {
        let mut h = DefaultHasher::new();
        tag.hash(&mut h);
        value.hash(&mut h);
        h.finish()
    }
    // The two orientations of a join describe the same logical operator
    // (the planner mirrors freely to pick build sides), so hash both and
    // keep the smaller: `min` is orientation-invariant.
    fn join_fp(
        tag: &str,
        left: Option<u64>,
        right: Option<u64>,
        cond: &trial_core::Conditions,
        output: &trial_core::OutputSpec,
    ) -> u64 {
        let forward = hash_one(tag, &(left, right, cond, output.0));
        let mirrored = hash_one(tag, &(right, left, &cond.mirrored(), output.mirrored().0));
        forward.min(mirrored)
    }
    // A stored relation probed by an index nested-loop join has no child
    // plan node; give it the same fingerprint a bare scan of it would get so
    // the probe and the equivalent hash/merge join coincide.
    fn bare_scan_fp(relation: &str) -> u64 {
        hash_one(
            "scan",
            &(
                relation,
                None::<(usize, ObjectId)>,
                &trial_core::Conditions::new(),
            ),
        )
    }
    Some(match node {
        PlanNode::IndexScan {
            relation,
            bound,
            residual,
            // `order` and `est` are exactly what feedback rewrites.
            ..
        } => hash_one("scan", &(relation, bound, residual)),
        PlanNode::Filter { input, cond, .. } => hash_one("filter", &(fingerprint(input), cond)),
        PlanNode::HashJoin {
            left,
            right,
            output,
            cond,
            ..
        }
        | PlanNode::MergeJoin {
            left,
            right,
            output,
            cond,
            ..
        }
        | PlanNode::NestedLoopJoin {
            left,
            right,
            output,
            cond,
            ..
        } => join_fp("join", fingerprint(left), fingerprint(right), cond, output),
        PlanNode::IndexNestedLoopJoin {
            outer,
            relation,
            output,
            cond,
            ..
        } => join_fp(
            "join",
            fingerprint(outer),
            Some(bare_scan_fp(relation)),
            cond,
            output,
        ),
        // Union and intersection are commutative: order-normalize the
        // children. Difference is not.
        PlanNode::Union { left, right, .. } => {
            let (a, b) = (fingerprint(left), fingerprint(right));
            hash_one("union", &(a.min(b), a.max(b)))
        }
        PlanNode::Intersect { left, right, .. } => {
            let (a, b) = (fingerprint(left), fingerprint(right));
            hash_one("intersect", &(a.min(b), a.max(b)))
        }
        PlanNode::Diff { left, right, .. } => {
            hash_one("diff", &(fingerprint(left), fingerprint(right)))
        }
        PlanNode::Complement { input, .. } => hash_one("complement", &fingerprint(input)),
        PlanNode::StarSemiNaive {
            input,
            output,
            cond,
            direction,
            ..
        } => hash_one("star", &(fingerprint(input), output.0, cond, direction)),
        PlanNode::StarReach {
            input, same_label, ..
        } => hash_one("star-reach", &(fingerprint(input), same_label)),
        // Transparent: a memo slot's shape is its input's shape.
        PlanNode::Memo { input, .. } => return fingerprint(input),
        // Structural or exact cardinalities — nothing to learn, and a
        // limit's "actual" measures the bound, not the operator beneath it.
        // An NFA walk's cardinality is dominated by the graph, not by a
        // reusable plan shape, so it stays out of the feedback loop too.
        PlanNode::Universe { .. }
        | PlanNode::Empty
        | PlanNode::PathNfa { .. }
        | PlanNode::Limit { .. }
        | PlanNode::Sort { .. }
        | PlanNode::TopK { .. } => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trial_core::{output, Conditions, Permutation, Pos};

    fn scan(rel: &str, est: usize) -> PlanNode {
        PlanNode::IndexScan {
            relation: rel.to_owned(),
            bound: None,
            residual: Conditions::new(),
            order: Permutation::Spo,
            est,
        }
    }

    fn plan_of(root: PlanNode) -> Plan {
        Plan {
            root,
            memo_slots: 0,
            threads: 1,
        }
    }

    #[test]
    fn fingerprints_ignore_estimates_and_orders() {
        assert_eq!(fingerprint(&scan("E", 7)), fingerprint(&scan("E", 999)));
        let reordered = PlanNode::IndexScan {
            relation: "E".into(),
            bound: None,
            residual: Conditions::new(),
            order: Permutation::Pos,
            est: 7,
        };
        assert_eq!(fingerprint(&scan("E", 7)), fingerprint(&reordered));
        assert_ne!(fingerprint(&scan("E", 7)), fingerprint(&scan("F", 7)));
    }

    #[test]
    fn join_fingerprints_are_variant_and_orientation_invariant() {
        let out = output(Pos::L1, Pos::R3, Pos::L3);
        let cond = Conditions::new().obj_eq(Pos::L2, Pos::R1);
        let hash = PlanNode::HashJoin {
            left: Box::new(scan("E", 7)),
            right: Box::new(scan("F", 3)),
            output: out,
            cond: cond.clone(),
            keys: vec![(Pos::L2, Pos::R1)],
            swapped: false,
            est: 7,
        };
        let merge = PlanNode::MergeJoin {
            left: Box::new(scan("E", 7)),
            right: Box::new(scan("F", 3)),
            output: out,
            cond: cond.clone(),
            key: (Pos::L2, Pos::R1),
            est: 21,
        };
        // The planner-mirrored orientation: B ⋈ A with mirrored cond/output.
        let mirrored = PlanNode::HashJoin {
            left: Box::new(scan("F", 3)),
            right: Box::new(scan("E", 7)),
            output: out.mirrored(),
            cond: cond.mirrored(),
            keys: cond.mirrored().cross_equalities(),
            swapped: true,
            est: 7,
        };
        // The index-probe variant of the same logical join.
        let inlj = PlanNode::IndexNestedLoopJoin {
            outer: Box::new(scan("E", 7)),
            relation: "F".into(),
            probe: (Pos::L2, Pos::R1),
            output: out,
            cond: cond.clone(),
            swapped: false,
            est: 7,
        };
        let fp = fingerprint(&hash);
        assert_eq!(fp, fingerprint(&merge));
        assert_eq!(fp, fingerprint(&mirrored));
        assert_eq!(fp, fingerprint(&inlj));
        // A different output spec is a different operator.
        let projected = PlanNode::HashJoin {
            left: Box::new(scan("E", 7)),
            right: Box::new(scan("F", 3)),
            output: trial_core::OutputSpec::IDENTITY,
            cond,
            keys: vec![(Pos::L2, Pos::R1)],
            swapped: false,
            est: 7,
        };
        assert_ne!(fp, fingerprint(&projected));
    }

    #[test]
    fn memo_is_transparent_and_bounds_are_excluded() {
        let inner = scan("E", 7);
        let memo = PlanNode::Memo {
            slot: 0,
            input: Box::new(inner.clone()),
        };
        assert_eq!(fingerprint(&memo), fingerprint(&inner));
        let limit = PlanNode::Limit {
            input: Box::new(inner.clone()),
            limit: 5,
            est: 5,
        };
        assert_eq!(fingerprint(&limit), None);
        assert_eq!(fingerprint(&PlanNode::Empty), None);
        assert_eq!(fingerprint(&PlanNode::Universe { est: 27 }), None);
    }

    #[test]
    fn observe_then_estimate_round_trips_with_decay() {
        let stats = StatsStore::new();
        let node = scan("E", 100);
        let fp = fingerprint(&node).unwrap();
        assert_eq!(stats.estimate(fp), None);
        let summary = stats.observe_plan(&plan_of(node.clone()), &[Some(10)], 0);
        assert_eq!(summary.ingested, 1);
        // est 100 vs actual 10 → 900% relative error.
        assert_eq!(summary.est_errors, vec![900]);
        assert_eq!(stats.estimate(fp), Some(10));
        assert_eq!(stats.entries(), 1);
        // EWMA: a second observation of 20 moves the estimate halfway.
        stats.observe_plan(&plan_of(node.clone()), &[Some(20)], 0);
        assert_eq!(stats.estimate(fp), Some(15));
        // Observed zeros clamp to 1: emptiness is the planner's call.
        stats.observe_plan(&plan_of(node.clone()), &[Some(0)], 0);
        stats.observe_plan(&plan_of(node), &[Some(0)], 0);
        assert_eq!(stats.estimate(fp), Some(4));
    }

    #[test]
    fn invalidation_clears_entries_and_gates_stale_observations() {
        let stats = StatsStore::new();
        let node = scan("E", 100);
        let fp = fingerprint(&node).unwrap();
        stats.observe_plan(&plan_of(node.clone()), &[Some(10)], 0);
        assert_eq!(stats.estimate(fp), Some(10));
        stats.invalidate(3);
        assert_eq!(stats.epoch(), 3);
        assert_eq!(stats.entries(), 0);
        assert_eq!(stats.estimate(fp), None);
        // A stale in-flight evaluation (epoch 0) must not repopulate.
        let dropped = stats.observe_plan(&plan_of(node.clone()), &[Some(10)], 0);
        assert_eq!(dropped.ingested, 0);
        assert_eq!(stats.estimate(fp), None);
        // The current epoch ingests normally; re-invalidating the same
        // epoch is a no-op.
        stats.observe_plan(&plan_of(node), &[Some(12)], 3);
        stats.invalidate(3);
        assert_eq!(stats.estimate(fp), Some(12));
    }

    #[test]
    fn replans_count_monotonically() {
        let stats = StatsStore::new();
        assert_eq!(stats.replans(), 0);
        stats.note_replan();
        stats.note_replan();
        assert_eq!(stats.replans(), 2);
    }
}
