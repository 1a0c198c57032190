//! Convergence differential for feedback-driven planning: on a skewed
//! store whose static selectivity heuristics are badly wrong, running the
//! same analyzed query twice must (a) shrink the plan's total estimate
//! error — the second plan draws on the observed cardinalities the first
//! run ingested — and (b) change **only** estimates, never answers: the
//! rendered result bytes must be identical cold vs. warm, at every tested
//! thread count, and equal to the naive Theorem-3 reference.

use std::sync::Arc;
use trial_core::{output, Conditions, Expr, Pos, TripleSet, Triplestore, TriplestoreBuilder};
use trial_eval::{Engine, EvalOptions, NaiveEngine, SmartEngine, StatsStore};

/// A store with heavy predicate skew: one `hot` chain of 300 edges and a
/// handful of `rare` edges feeding into it. The planner's uniform
/// `len / distinct` heuristic estimates both label bindings at ~150 rows —
/// far above `rare`'s 5 and far below `hot`'s 300.
fn skewed_store() -> Triplestore {
    let mut b = TriplestoreBuilder::new();
    for i in 0..300 {
        b.add_triple("E", format!("n{i}"), "hot", format!("n{}", i + 1));
    }
    for i in 0..5 {
        b.add_triple("E", format!("r{i}"), "rare", format!("n{}", i * 7));
    }
    b.finish()
}

/// A multi-join in SP²Bench shape: a selective access path (`rare`) probed
/// through two `hot` hops — the kind of plan whose join order and morsel
/// sizing hinge on getting the bound-scan cardinalities right.
fn skewed_query() -> Expr {
    let rare = Expr::rel("E").select(Conditions::new().obj_eq_const(Pos::L2, "rare"));
    let hot = || Expr::rel("E").select(Conditions::new().obj_eq_const(Pos::L2, "hot"));
    rare.join(
        hot(),
        output(Pos::L1, Pos::L2, Pos::R3),
        Conditions::new().obj_eq(Pos::L3, Pos::R1),
    )
    .join(
        hot(),
        output(Pos::L1, Pos::L2, Pos::R3),
        Conditions::new().obj_eq(Pos::L3, Pos::R1),
    )
}

/// Renders a result set to bytes: one `s p o` line per triple, in the
/// set's canonical order. Byte equality is the strongest answer-identity
/// check available — it covers content *and* canonical ordering.
fn render(store: &Triplestore, set: &TripleSet) -> String {
    let mut out = String::new();
    for t in set.iter() {
        out.push_str(store.object_name(t.s()));
        out.push(' ');
        out.push_str(store.object_name(t.p()));
        out.push(' ');
        out.push_str(store.object_name(t.o()));
        out.push('\n');
    }
    out
}

#[test]
fn feedback_shrinks_estimate_errors_and_never_changes_answers() {
    let store = skewed_store();
    let q = skewed_query();
    let stats = Arc::new(StatsStore::new());
    let engine = SmartEngine::with_stats(EvalOptions::default(), Arc::clone(&stats));

    let analyze = || {
        let plan = engine.plan_query(&q, &store, None, None, None).unwrap();
        engine.analyze(plan, &store).unwrap()
    };
    let cold = analyze();
    assert!(
        cold.est_sources.iter().all(|s| !s),
        "the first plan must be purely heuristic"
    );
    let cold_feedback = cold
        .feedback
        .clone()
        .expect("stats engine reports feedback");
    assert!(cold_feedback.ingested > 0, "analyze must feed the stats");

    let warm = analyze();
    assert!(
        warm.est_sources.iter().any(|s| *s),
        "the second plan must draw on observed estimates"
    );
    let warm_feedback = warm.feedback.clone().unwrap();
    let err = |errors: &[u64]| errors.iter().sum::<u64>();
    assert!(
        err(&warm_feedback.est_errors) < err(&cold_feedback.est_errors),
        "estimate error must shrink: cold {:?} vs warm {:?}",
        cold_feedback.est_errors,
        warm_feedback.est_errors
    );
    assert!(stats.replans() >= 1);

    // Answers are invariant: cold vs. warm, every thread count, and the
    // naive reference all render to identical bytes.
    let reference = render(&store, &cold.evaluation.result);
    assert_eq!(render(&store, &warm.evaluation.result), reference);
    let naive = NaiveEngine::new().run(&q, &store).unwrap();
    assert_eq!(render(&store, &naive), reference);
    for threads in [1usize, 2, 4] {
        let engine = SmartEngine::with_stats(
            EvalOptions {
                threads,
                parallel_min_rows: 16,
                ..EvalOptions::default()
            },
            Arc::clone(&stats),
        );
        let result = engine.run(&q, &store).unwrap();
        assert_eq!(
            render(&store, &result),
            reference,
            "threads={threads} must render byte-identical results"
        );
    }
}
