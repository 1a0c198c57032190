//! Property-based tests on the core data structures and on engine
//! agreement, using randomly generated stores and expressions.

use proptest::prelude::*;
use trial_core::builder::queries;
use trial_core::{output, Conditions, Expr, ObjectId, Pos, Triple, TripleSet, TriplestoreBuilder};
use trial_eval::{Engine, NaiveEngine, SmartEngine};
use trial_parser::parse;

/// Strategy for a small triple over at most `n` objects.
fn arb_triple(n: u32) -> impl Strategy<Value = Triple> {
    (0..n, 0..n, 0..n).prop_map(|(a, b, c)| Triple::new(ObjectId(a), ObjectId(b), ObjectId(c)))
}

fn arb_tripleset(n: u32) -> impl Strategy<Value = TripleSet> {
    prop::collection::vec(arb_triple(n), 0..40).prop_map(TripleSet::from_vec)
}

/// Strategy for a random store over `n` named objects with `m` triples.
fn arb_store() -> impl Strategy<Value = trial_core::Triplestore> {
    (
        3u32..10,
        prop::collection::vec((0u32..10, 0u32..10, 0u32..10), 1..40),
    )
        .prop_map(|(n, triples)| {
            let mut b = TriplestoreBuilder::new();
            // Give some objects data values so η-conditions are exercised.
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

/// Strategy for a join position.
fn arb_pos() -> impl Strategy<Value = Pos> {
    prop::sample::select(Pos::ALL.to_vec())
}

/// Strategy for small non-recursive and recursive expressions over `E`,
/// covering every operator the planner handles: set operations, keyed and
/// key-free joins, reachability-shaped and general stars in both directions,
/// and selections with position, data and (known or unknown) constant
/// comparisons.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![Just(Expr::rel("E")), Just(Expr::Empty)];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.minus(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.intersect(b)),
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
            // General (non-reachability) stars in both directions.
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
            // Constant selections: `o1` exists in every generated store
            // (pushed into an index scan), `zzz` never does (folds to ∅).
            (inner.clone(), any::<bool>()).prop_map(|(a, known)| {
                let name = if known { "o1" } else { "zzz" };
                a.select(Conditions::new().obj_eq_const(Pos::L2, name))
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// TripleSet operations satisfy the usual set-algebra laws.
    #[test]
    fn tripleset_set_laws(a in arb_tripleset(6), b in arb_tripleset(6)) {
        let union = a.union(&b);
        let inter = a.intersection(&b);
        let diff = a.difference(&b);
        // |A ∪ B| + |A ∩ B| = |A| + |B|
        prop_assert_eq!(union.len() + inter.len(), a.len() + b.len());
        // A = (A − B) ∪ (A ∩ B)
        prop_assert_eq!(diff.union(&inter), a.clone());
        // Union is commutative, difference is anti-monotone in its right arg.
        prop_assert_eq!(union, b.union(&a));
        for t in diff.iter() {
            prop_assert!(!b.contains(t));
        }
    }

    /// Every triple in a set's active-object list really occurs in it.
    #[test]
    fn tripleset_active_objects_cover(a in arb_tripleset(6)) {
        let objs = a.active_objects();
        for t in a.iter() {
            for o in t.0 {
                prop_assert!(objs.binary_search(&o).is_ok());
            }
        }
    }

    /// The naive Theorem-3 engine and the planned, index-backed engine agree
    /// on random stores and random expressions (including stars in both
    /// directions and pushed-down constant selections).
    #[test]
    fn engines_agree_on_random_inputs(store in arb_store(), expr in arb_expr()) {
        let naive = NaiveEngine::new().run(&expr, &store).unwrap();
        let smart = SmartEngine::new().run(&expr, &store).unwrap();
        prop_assert_eq!(naive, smart);
    }

    /// Planning is deterministic: the same expression over the same store
    /// always compiles to the same plan.
    #[test]
    fn planning_is_deterministic(store in arb_store(), expr in arb_expr()) {
        let planned = SmartEngine::new();
        let p1 = planned.plan_query(&expr, &store, None, None, None).unwrap();
        let p2 = planned.plan_query(&expr, &store, None, None, None).unwrap();
        prop_assert_eq!(p1.explain(), p2.explain());
    }

    /// Display → parse is the identity on randomly generated expressions.
    #[test]
    fn parser_roundtrips_random_expressions(expr in arb_expr()) {
        let text = expr.to_string();
        let parsed = parse(&text).unwrap();
        prop_assert_eq!(parsed, expr);
    }

    /// Kleene closures are monotone and contain their base (on stores where
    /// the base is E itself).
    #[test]
    fn star_contains_base(store in arb_store()) {
        let base = store.require_relation("E").unwrap().clone();
        let reach = SmartEngine::new()
            .run(&queries::reach_forward("E"), &store)
            .unwrap();
        for t in base.iter() {
            prop_assert!(reach.contains(t));
        }
        // The same-label closure is a subset of the unrestricted closure.
        let labelled = SmartEngine::new()
            .run(&queries::reach_same_label("E"), &store)
            .unwrap();
        for t in labelled.iter() {
            prop_assert!(reach.contains(t));
        }
    }
}
