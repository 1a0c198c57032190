//! Eval-layer cancellation: a deadline or explicit cancel surfaces as
//! [`trial_eval::Error::Cancelled`] promptly — within tens of milliseconds
//! of the cut-off, not after the evaluation would have finished anyway —
//! across the reach specialisation, the generic semi-naive fixpoint, and
//! every morsel degree.

use std::time::{Duration, Instant};
use trial_core::Error;
use trial_eval::{CancelReason, CancelToken, Engine, EvalOptions, SmartEngine};
use trial_workloads::chain_store;

/// A transitive closure whose full evaluation takes seconds in debug
/// builds — the deadline always fires long before it finishes.
const SLOW_QUERY: &str = "STAR(E JOIN[1,2,3' | 3=1'])";

/// The same closure written as a *left* star. Proposition 5 covers right
/// stars only, so the planner runs this one through the generic semi-naive
/// fixpoint — one round, and one token check, per chain hop.
const SLOW_GENERIC_QUERY: &str = "STAR(JOIN[1,2,3' | 3=1'] E)";

/// How long after the deadline the error may surface. The acceptance bound
/// for the serving path is 50 ms end-to-end; the eval layer alone must be
/// comfortably inside that.
const RELEASE_BUDGET: Duration = Duration::from_millis(50);

fn expect_cancelled(result: Result<usize, Error>, slug: &str) {
    match result {
        Err(Error::Cancelled(reason)) => assert_eq!(reason, slug),
        other => panic!("expected Cancelled({slug}), got {other:?}"),
    }
}

#[test]
fn deadline_cancels_the_reach_closure_at_every_degree() {
    let store = chain_store(2000);
    let expr = trial_parser::parse(SLOW_QUERY).unwrap();
    let deadline = Duration::from_millis(200);
    for threads in [1usize, 2, 4] {
        let engine = SmartEngine::with_options(EvalOptions {
            threads,
            cancel: CancelToken::with_timeout(deadline),
            ..EvalOptions::default()
        });
        let started = Instant::now();
        let result = engine.evaluate(&expr, &store);
        let elapsed = started.elapsed();
        expect_cancelled(result.map(|e| e.result.len()), "deadline_exceeded");
        assert!(
            elapsed >= deadline,
            "threads={threads}: finished before the deadline: {elapsed:?}"
        );
        assert!(
            elapsed <= deadline + RELEASE_BUDGET,
            "threads={threads}: released {:?} after the deadline",
            elapsed - deadline
        );
    }
}

#[test]
fn deadline_cancels_the_generic_fixpoint_too() {
    let store = chain_store(2000);
    let expr = trial_parser::parse(SLOW_GENERIC_QUERY).unwrap();
    let plan = SmartEngine::new()
        .plan_query(&expr, &store, None, None, None)
        .unwrap();
    assert!(
        matches!(plan.root, trial_eval::PlanNode::StarSemiNaive { .. }),
        "expected the generic fixpoint:\n{}",
        plan.explain()
    );
    let deadline = Duration::from_millis(200);
    let engine = SmartEngine::with_options(EvalOptions {
        cancel: CancelToken::with_timeout(deadline),
        ..EvalOptions::default()
    });
    let started = Instant::now();
    let result = engine.evaluate(&expr, &store);
    let elapsed = started.elapsed();
    expect_cancelled(result.map(|e| e.result.len()), "deadline_exceeded");
    assert!(
        elapsed <= deadline + RELEASE_BUDGET,
        "released {:?} after the deadline",
        elapsed - deadline
    );
}

#[test]
fn explicit_cancellation_preempts_evaluation_entirely() {
    // A token cancelled before evaluation starts (the shutdown drain does
    // exactly this) aborts at the entry checkpoint: no fixpoint rounds, no
    // closure, single-digit milliseconds.
    let store = chain_store(2000);
    let expr = trial_parser::parse(SLOW_QUERY).unwrap();
    let token = CancelToken::manual();
    token.cancel(CancelReason::Shutdown);
    let engine = SmartEngine::with_options(EvalOptions {
        cancel: token,
        ..EvalOptions::default()
    });
    let started = Instant::now();
    let result = engine.evaluate(&expr, &store);
    expect_cancelled(result.map(|e| e.result.len()), "shutdown");
    assert!(
        started.elapsed() < Duration::from_millis(50),
        "pre-cancelled evaluation still ran for {:?}",
        started.elapsed()
    );
}

#[test]
fn an_inert_token_never_cancels() {
    // `EvalOptions::default()` carries the inert token: the same closure
    // runs to completion and the deadline machinery costs nothing.
    let store = chain_store(400);
    let expr = trial_parser::parse(SLOW_QUERY).unwrap();
    let engine = SmartEngine::with_options(EvalOptions::default());
    let result = engine.evaluate(&expr, &store).unwrap();
    assert!(result.result.len() > store.triple_count());
}

#[test]
fn every_way_of_draining_a_stream_honours_cancellation() {
    // `next_triple`, `collect_set` and the single-producer `channel` share
    // one pull loop, so a token cancelled before the drain starts stops each
    // of them at its first checkpoint, one check stride in — not after the
    // 4999 rows of the full join.
    let store = chain_store(5000);
    let expr = trial_parser::parse("(E JOIN[1,2,3' | 3=1'] E)").unwrap();
    let token = CancelToken::manual();
    let engine = SmartEngine::with_options(EvalOptions {
        cancel: token.clone(),
        ..EvalOptions::default()
    });
    let stream = || {
        engine
            .stream_query(&expr, &store, None, None, None)
            .unwrap()
    };
    let (counted, collected, exchanged) = (stream(), stream(), stream());
    token.cancel(CancelReason::Shutdown);
    let checkpoint = trial_eval::CANCEL_CHECK_STRIDE as usize - 1;
    assert_eq!(counted.count().0 as usize, checkpoint);
    assert_eq!(collected.collect_set().0.len(), checkpoint);
    let (rows, _) = exchanged.channel(4, |exchange| {
        std::iter::from_fn(|| exchange.next_triple()).count()
    });
    assert_eq!(rows, checkpoint);
}
