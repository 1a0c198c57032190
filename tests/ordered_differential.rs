//! Differential property tests for ordered execution: the planner's
//! merge-, hash- and index-join plans and the naive Theorem-3 evaluator
//! must agree on randomized stores and expressions (both star directions,
//! threads 1/2/4); `?order=`-style
//! streams must be *exactly* sorted under the requested permutation key;
//! and top-k (k ∈ {0, 1, n, ∞}) must return precisely the k smallest
//! distinct triples under the key — deterministically, with the heap never
//! buffering more than k rows and merge joins never building a hash table.

use proptest::prelude::*;
use trial_core::{output, Conditions, Expr, Permutation, Pos, TripleSet, TriplestoreBuilder};
use trial_eval::{Engine, EvalOptions, NaiveEngine, SmartEngine};

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

/// Random expressions biased towards the shapes the ordered machinery
/// rewrites: keyed joins on every component pair (merge-join candidates),
/// unions of scans (merge unions / order delivery through both sides),
/// constant and data selections (order-preserving residual filters),
/// difference/intersection (left-side order propagation), complements, and
/// reachability-shaped plus general stars in **both directions**.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![Just(Expr::rel("E")), Just(Expr::Empty)];
    leaf.prop_recursive(3, 10, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.minus(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.intersect(b)),
            inner.clone().prop_map(|a| a.complement()),
            // Keyed joins over arbitrary component pairs and outputs: these
            // are the merge-join candidates (and, with identity-like
            // outputs, the very joins a naive ordering analysis would be
            // tempted to call ordered).
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

/// The production engine at a given degree, morsel thresholds disabled.
fn merging(threads: usize) -> SmartEngine {
    SmartEngine::with_options(EvalOptions {
        threads,
        parallel_min_rows: 0,
        ..EvalOptions::default()
    })
}

const DEGREES: [usize; 3] = [1, 2, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Full results: the planner's merge-join (and every other) plans
    /// produce the naive evaluator's set at every thread count.
    #[test]
    fn merge_plans_agree_with_naive(store in arb_store(), expr in arb_expr()) {
        let naive = NaiveEngine::new().run(&expr, &store).unwrap();
        for threads in DEGREES {
            let merged = merging(threads).evaluate(&expr, &store).unwrap();
            prop_assert_eq!(
                &merged.result, &naive,
                "merge plans diverge at threads={} on {}", threads, expr
            );
        }
    }

    /// `?order=`-style streams are **exactly sorted**: strictly increasing
    /// permutation keys (hence duplicate-free) and set-equal to the full
    /// result, for every permutation — including plans that need an
    /// explicit sort breaker.
    #[test]
    fn ordered_streams_are_exactly_sorted(store in arb_store(), expr in arb_expr()) {
        let full = NaiveEngine::new().run(&expr, &store).unwrap();
        for perm in Permutation::ALL {
            let mut stream = merging(1)
                .stream_query(&expr, &store, None, Some(perm), None)
                .unwrap();
            let mut rows = Vec::new();
            while let Some(t) = stream.next_triple() {
                rows.push(t);
            }
            prop_assert!(
                rows.windows(2).all(|w| perm.key(&w[0]) < perm.key(&w[1])),
                "rows not strictly {}-sorted for {}", perm, expr
            );
            let as_set: TripleSet = rows.iter().copied().collect();
            prop_assert_eq!(&as_set, &full, "ordered stream lost rows for {} under {}", expr, perm);
        }
    }

    /// Top-k (k ∈ {0, 1, half, ∞}) returns exactly the k smallest distinct
    /// triples of the naive result under the permutation key — at every
    /// thread count, with the heap bounded by k.
    #[test]
    fn topk_is_exactly_the_k_smallest(store in arb_store(), expr in arb_expr()) {
        let full = NaiveEngine::new().run(&expr, &store).unwrap();
        for perm in Permutation::ALL {
            let mut sorted = full.as_slice().to_vec();
            sorted.sort_unstable_by_key(|t| perm.key(t));
            for k in [0usize, 1, full.len() / 2, usize::MAX] {
                let want: TripleSet = sorted.iter().take(k).copied().collect();
                for threads in DEGREES {
                    let engine = merging(threads);
                    let plan = engine.plan_query(&expr, &store, None, Some(perm), Some(k)).unwrap();
                    let eval = engine.execute(&plan, &store).unwrap();
                    prop_assert_eq!(
                        &eval.result, &want,
                        "top-{} under {} diverges at threads={} on {}", k, perm, threads, expr
                    );
                    prop_assert!(
                        (eval.stats.topk_buffered_peak as usize) <= k,
                        "heap exceeded k={} on {}", k, expr
                    );
                }
            }
        }
    }

    /// The ordering-metadata regression: every plan root that **claims** an
    /// order really streams strictly key-ascending rows — with and without
    /// an explicitly requested order. A hash join
    /// whose mirrored build side scrambles the probe order (or any join
    /// duplicating projected rows) must therefore claim `None`.
    #[test]
    fn every_claimed_order_is_real(store in arb_store(), expr in arb_expr()) {
        let engine = merging(1);
        for requested in [None, Some(Permutation::Spo), Some(Permutation::Pos), Some(Permutation::Osp)] {
            let plan = engine.plan_query(&expr, &store, None, requested, None).unwrap();
            if let Some(requested) = requested {
                prop_assert_eq!(
                    plan.root.ordering(), Some(requested),
                    "requested order not delivered for {}", expr
                );
            }
            let Some(claimed) = plan.root.ordering() else { continue };
            let mut stream = engine
                .stream_query(&expr, &store, None, requested, None)
                .unwrap();
            let mut prev: Option<trial_core::Triple> = None;
            while let Some(t) = stream.next_triple() {
                if let Some(p) = prev {
                    prop_assert!(
                        claimed.key(&p) < claimed.key(&t),
                        "{} claims {} order but emitted {:?} before {:?}",
                        expr, claimed, p, t
                    );
                }
                prev = Some(t);
            }
        }
    }

    /// Two-sided ordered scan joins execute allocation-free: when the plan
    /// is a merge join over scans, the whole evaluation builds zero hash
    /// tables (stars and memos aside, which this shape excludes).
    #[test]
    fn merge_joins_build_no_hash_tables(
        store in arb_store(),
        key in prop::sample::select(vec![
            (Pos::L1, Pos::R1), (Pos::L2, Pos::R1), (Pos::L3, Pos::R1),
            (Pos::L1, Pos::R2), (Pos::L2, Pos::R3), (Pos::L3, Pos::R2),
        ]),
    ) {
        let expr = Expr::rel("E").join(
            Expr::rel("E"),
            output(Pos::L1, Pos::L2, Pos::R3),
            Conditions::new().obj_eq(key.0, key.1),
        );
        let plan = merging(1).plan_query(&expr, &store, None, None, None).unwrap();
        prop_assert!(
            matches!(plan.root, trial_eval::PlanNode::MergeJoin { .. }),
            "two-sided scan join did not merge:\n{}", plan.explain()
        );
        for threads in DEGREES {
            let eval = merging(threads).evaluate(&expr, &store).unwrap();
            prop_assert_eq!(eval.stats.hash_tables_built, 0, "hash table built on {}", expr);
            prop_assert_eq!(
                &eval.result,
                &NaiveEngine::new().run(&expr, &store).unwrap(),
                "merge join wrong at threads={} on {}", threads, expr
            );
        }
    }
}
