//! Differential property tests for morsel-driven parallel execution: at
//! every tested degree (`threads ∈ {1, 2, 4}`) the parallel executor must
//! produce exactly the result sets of the single-threaded run and of the
//! independent naive Theorem-3 evaluator, over randomized stores and
//! expressions — including both star directions, limits, and the
//! empty/singleton-morsel edge cases — and must be deterministic across
//! repeated runs.
//!
//! `parallel_min_rows` is set to 0 so the morsel paths engage even on the
//! tiny randomized stores; a separate property keeps the default threshold
//! honest by checking that small inputs stay sequential under it.

use proptest::prelude::*;
use trial_core::{output, Conditions, Expr, Pos, TripleSet, TriplestoreBuilder};
use trial_eval::{Engine, EvalOptions, NaiveEngine, SmartEngine};

/// Strategy for a random store over at most 10 named objects, with data
/// values on some objects so η-conditions bite. Stores with a single triple
/// (or relations that filter down to nothing) exercise the singleton/empty
/// morsel edge cases.
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

/// Random expressions covering every parallel strategy: keyed joins (hash
/// and index nested-loop), key-free nested loops, set operations whose
/// blocking sides materialise concurrently, complements, constant and data
/// selections (partitioned residual filtering), and reachability-shaped and
/// general stars in **both directions** (BFS fan-out and per-round delta
/// partitioning).
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
            // Key-free join: the parallel nested loop.
            (inner.clone(), inner.clone(), arb_pos(), arb_pos()).prop_map(|(a, b, x, y)| a.join(
                b,
                output(Pos::L1, Pos::L2, Pos::R3),
                Conditions::new().obj_neq(x, y.mirrored())
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

/// The single-threaded engine (the production default).
fn sequential() -> SmartEngine {
    SmartEngine::with_options(EvalOptions {
        threads: 1,
        ..EvalOptions::default()
    })
}

/// `expr` collected under a limit of `k`.
fn limited(
    engine: &SmartEngine,
    expr: &Expr,
    store: &trial_core::Triplestore,
    k: usize,
) -> TripleSet {
    let plan = engine.plan_query(expr, store, Some(k), None, None).unwrap();
    engine.execute(&plan, store).unwrap().result
}

/// A parallel engine at the given degree with morsel thresholds disabled, so
/// every qualifying operator actually fans out.
fn parallel(threads: usize) -> SmartEngine {
    SmartEngine::with_options(EvalOptions {
        threads,
        parallel_min_rows: 0,
        ..EvalOptions::default()
    })
}

const DEGREES: [usize; 3] = [1, 2, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Full results: every thread count produces exactly the result set of
    /// the naive evaluator, twice in a row (determinism), with the work
    /// counters of the single-threaded run.
    #[test]
    fn parallel_engines_agree_on_full_results(store in arb_store(), expr in arb_expr()) {
        let reference = sequential().evaluate(&expr, &store).unwrap();
        let naive = NaiveEngine::new().run(&expr, &store).unwrap();
        prop_assert_eq!(&reference.result, &naive, "sequential vs naive diverge on {}", expr);
        for threads in DEGREES {
            let engine = parallel(threads);
            let first = engine.evaluate(&expr, &store).unwrap();
            prop_assert_eq!(
                &first.result, &reference.result,
                "threads={} diverges on {}", threads, expr
            );
            let second = engine.evaluate(&expr, &store).unwrap();
            prop_assert_eq!(
                &second.result, &first.result,
                "threads={} is nondeterministic on {}", threads, expr
            );
            // Morsel execution reports the same work totals as the
            // sequential run (each pair/scan/edge is counted exactly once,
            // wherever it ran, and a merge join's scan is counted from its
            // two runs, not from its morsels).
            prop_assert_eq!(
                first.stats.pairs_considered,
                reference.stats.pairs_considered,
                "pair counts diverge at threads={} on {}", threads, expr
            );
            prop_assert_eq!(
                first.stats.reach_edges_traversed,
                reference.stats.reach_edges_traversed,
                "edge counts diverge at threads={} on {}", threads, expr
            );
            prop_assert_eq!(
                first.stats.work(),
                reference.stats.work(),
                "work diverges at threads={} on {}", threads, expr
            );
        }
    }

    /// Limits 0 / 1 / half / ∞: the parallel executor's limited results are
    /// identical to the sequential streaming executor's (the limit subtree
    /// is the explicit sequential fallback), at every degree.
    #[test]
    fn limits_are_thread_count_invariant(store in arb_store(), expr in arb_expr()) {
        let full = NaiveEngine::new().run(&expr, &store).unwrap();
        let half = full.len() / 2;
        for k in [0usize, 1, half, usize::MAX] {
            let seq = limited(&sequential(), &expr, &store, k);
            prop_assert_eq!(seq.len(), full.len().min(k), "length for {} @ {}", expr, k);
            for t in seq.iter() {
                prop_assert!(full.contains(t), "phantom triple {:?} for {}", t, expr);
            }
            for threads in DEGREES {
                let par = limited(&parallel(threads), &expr, &store, k);
                prop_assert_eq!(
                    &par, &seq,
                    "limited results diverge at threads={} on {} @ {}", threads, expr, k
                );
                // Streams agree triple-for-triple too.
                let mut stream = parallel(threads)
                    .stream_query(&expr, &store, Some(k), None, None)
                    .unwrap();
                let mut rows = Vec::new();
                while let Some(t) = stream.next_triple() {
                    rows.push(t);
                }
                let as_set: TripleSet = rows.iter().copied().collect();
                prop_assert_eq!(as_set.len(), rows.len(), "stream emitted duplicates for {}", expr);
                prop_assert_eq!(&as_set, &par, "stream diverges at threads={} on {}", threads, expr);
            }
        }
    }

    /// Under the default morsel threshold these tiny stores never fan out:
    /// the threshold really gates the parallel paths.
    #[test]
    fn default_threshold_keeps_tiny_inputs_sequential(store in arb_store(), expr in arb_expr()) {
        let engine = SmartEngine::with_options(EvalOptions {
            threads: 4,
            ..EvalOptions::default()
        });
        let eval = engine.evaluate(&expr, &store).unwrap();
        prop_assert_eq!(eval.stats.parallel_morsels, 0, "tiny input fanned out on {}", expr);
        prop_assert_eq!(
            &eval.result,
            &NaiveEngine::new().run(&expr, &store).unwrap(),
            "threshold path diverges on {}",
            expr
        );
    }
}
