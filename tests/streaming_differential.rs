//! Differential property tests for the streaming cursor pipeline: the
//! cursor walk, the set-at-a-time walk and the independent naive Theorem-3
//! evaluator must agree on randomized stores and expressions — and limits must behave like limits (exactly `min(k, |e(T)|)`
//! distinct result triples, early termination, no phantom or missing rows).

use proptest::prelude::*;
use trial_core::{output, Conditions, Expr, Pos, TripleSet, TriplestoreBuilder};
use trial_eval::{Engine, NaiveEngine, SmartEngine};

/// Strategy for a random store over at most 10 named objects, with data
/// values on some objects so η-conditions bite.
fn arb_store() -> impl Strategy<Value = trial_core::Triplestore> {
    (
        3u32..10,
        prop::collection::vec((0u32..10, 0u32..10, 0u32..10), 1..40),
    )
        .prop_map(|(n, triples)| {
            let mut b = TriplestoreBuilder::new();
            for i in 0..n {
                b.object_with_value(format!("o{i}"), trial_core::Value::int((i % 3) as i64));
            }
            b.relation("E");
            for (s, p, o) in triples {
                b.add_triple(
                    "E",
                    format!("o{}", s % n),
                    format!("o{}", p % n),
                    format!("o{}", o % n),
                );
            }
            b.finish()
        })
}

fn arb_pos() -> impl Strategy<Value = Pos> {
    prop::sample::select(Pos::ALL.to_vec())
}

/// Random expressions covering every streaming operator and every breaker:
/// set operations (merge and chain unions, streamed difference and
/// intersection), keyed and key-free joins, reachability-shaped and general
/// stars in **both directions**, complements (streamed universe), and
/// constant selections (pushed through set operations into index scans).
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![Just(Expr::rel("E")), Just(Expr::Empty)];
    leaf.prop_recursive(3, 10, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.minus(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.intersect(b)),
            inner.clone().prop_map(|a| a.complement()),
            (
                inner.clone(),
                inner.clone(),
                arb_pos(),
                arb_pos(),
                arb_pos(),
                arb_pos(),
                arb_pos()
            )
                .prop_map(|(a, b, i, j, k, x, y)| a.join(
                    b,
                    output(i, j, k),
                    Conditions::new().obj_eq(x, y.mirrored())
                )),
            // Reachability-shaped stars (plain and same-label).
            (inner.clone(), any::<bool>()).prop_map(|(a, same_label)| {
                let cond = if same_label {
                    Conditions::new()
                        .obj_eq(Pos::L3, Pos::R1)
                        .obj_eq(Pos::L2, Pos::R2)
                } else {
                    Conditions::new().obj_eq(Pos::L3, Pos::R1)
                };
                a.right_star(output(Pos::L1, Pos::L2, Pos::R3), cond)
            }),
            // General stars in both directions.
            (inner.clone(), any::<bool>()).prop_map(|(a, left)| {
                let out = output(Pos::L1, Pos::L2, Pos::R2);
                let cond = Conditions::new().obj_eq(Pos::L3, Pos::R1);
                if left {
                    a.left_star(out, cond)
                } else {
                    a.right_star(out, cond)
                }
            }),
            inner
                .clone()
                .prop_map(|a| a.select(Conditions::new().data_eq(Pos::L1, Pos::L3))),
            (inner.clone(), any::<bool>()).prop_map(|(a, known)| {
                let name = if known { "o1" } else { "zzz" };
                a.select(Conditions::new().obj_eq_const(Pos::L2, name))
            }),
        ]
    })
}

/// `expr` collected under a limit of `k`: set kernels above the limit node,
/// one cursor pipeline beneath it.
fn limited(expr: &Expr, store: &trial_core::Triplestore, k: usize) -> TripleSet {
    let engine = SmartEngine::new();
    let plan = engine.plan_query(expr, store, Some(k), None, None).unwrap();
    engine.execute(&plan, store).unwrap().result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full results: the executor's two walks — evaluated to a set, and
    /// compiled to cursors and drained — and the independent naive
    /// evaluator produce identical `TripleSet`s.
    #[test]
    fn three_evaluators_agree_on_full_results(store in arb_store(), expr in arb_expr()) {
        let n = NaiveEngine::new().run(&expr, &store).unwrap();
        let set = SmartEngine::new().run(&expr, &store).unwrap();
        let (drained, _) = SmartEngine::new()
            .stream_query(&expr, &store, None, None, None)
            .unwrap()
            .collect_set();
        prop_assert_eq!(&set, &n, "set walk vs naive diverge on {}", expr);
        prop_assert_eq!(&drained, &n, "cursor walk vs naive diverge on {}", expr);
    }

    /// Limits 0 / 1 / n / ∞ against the naive result: a limit-`k` stream
    /// yields exactly `min(k, |e(T)|)` distinct triples, all drawn from the
    /// full result; when `k` covers the whole result the stream reproduces
    /// it exactly; an unordered limit may be any `k`-subset but is
    /// deterministic; and a limit over an ordered input is exactly the `k`
    /// smallest triples under that order.
    #[test]
    fn limits_truncate_consistently(store in arb_store(), expr in arb_expr()) {
        let full = NaiveEngine::new().run(&expr, &store).unwrap();
        let half = full.len() / 2;
        for k in [0usize, 1, half, usize::MAX] {
            // Stream triple-by-triple so duplicate emissions would be caught
            // before any set-level deduplication can hide them.
            let mut stream = SmartEngine::new()
                .stream_query(&expr, &store, Some(k), None, None)
                .unwrap();
            let mut rows = Vec::new();
            while let Some(t) = stream.next_triple() {
                rows.push(t);
            }
            let expected = full.len().min(k);
            prop_assert_eq!(rows.len(), expected, "stream length for {} @ {}", expr, k);
            let as_set: TripleSet = rows.iter().copied().collect();
            prop_assert_eq!(as_set.len(), rows.len(), "stream emitted duplicates for {}", expr);
            for t in &rows {
                prop_assert!(full.contains(t), "phantom triple {:?} for {}", t, expr);
            }
            if k >= full.len() {
                prop_assert_eq!(&as_set, &full, "covering limit lost rows for {}", expr);
            }
            // The collected limited evaluation: right cardinality, a subset
            // of the full result, the same rows as the stream, and the same
            // again on a rerun.
            let m = limited(&expr, &store, k);
            prop_assert_eq!(m.len(), expected);
            for t in m.iter() {
                prop_assert!(full.contains(t), "collected phantom {:?} for {}", t, expr);
            }
            prop_assert_eq!(&m, &as_set, "collected limit diverges from the stream for {}", expr);
            prop_assert_eq!(&limited(&expr, &store, k), &m, "limit is nondeterministic for {}", expr);
            // When the limited plan's root claims a delivered order, the
            // result must be exactly the k smallest under that order —
            // which for SPO-ordered roots is the canonical prefix.
            let plan = SmartEngine::new()
                .plan_query(&expr, &store, Some(k), None, None)
                .unwrap();
            if let Some(perm) = plan.root.ordering() {
                let mut sorted = full.as_slice().to_vec();
                sorted.sort_unstable_by_key(|t| perm.key(t));
                let want: TripleSet = sorted.iter().take(expected).copied().collect();
                prop_assert_eq!(&m, &want, "ordered limit is not the ordered prefix for {}", expr);
            }
        }
    }

    /// A bounded stream never does more work than the unbounded evaluation
    /// of the same expression.
    #[test]
    fn bounded_streams_do_no_extra_work(store in arb_store(), expr in arb_expr()) {
        let full = SmartEngine::new().evaluate(&expr, &store).unwrap();
        let mut stream = SmartEngine::new()
            .stream_query(&expr, &store, Some(1), None, None)
            .unwrap();
        let _ = stream.next_triple();
        prop_assert!(
            stream.stats().work() <= full.stats.work(),
            "bounded stream did more work ({} vs {}) on {}",
            stream.stats().work(),
            full.stats.work(),
            expr
        );
    }
}
