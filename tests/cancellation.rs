//! Eval-layer cancellation: a deadline or explicit cancel surfaces as
//! [`trial_eval::Error::Cancelled`] promptly — within tens of milliseconds
//! of the cut-off, not after the evaluation would have finished anyway —
//! across the reach specialisation, the generic semi-naive fixpoint, the
//! closures' source-by-source cursors, and every morsel degree.

use std::time::{Duration, Instant};
use trial_core::Error;
use trial_core::{Triplestore, TriplestoreBuilder};
use trial_eval::{CancelReason, CancelToken, Engine, EvalOptions, QueryStream, SmartEngine};
use trial_workloads::chain_store;

/// The right-star transitive closure: the Proposition 5 walk, one BFS per
/// `(x, ℓ)` source.
const SLOW_QUERY: &str = "STAR(E JOIN[1,2,3' | 3=1'])";

/// The same-label closure, the other Proposition 5 shape.
const SAME_LABEL_QUERY: &str = "STAR(E JOIN[1,2,3' | 3=1',2=2'])";

/// The same closure written as a *left* star. Proposition 5 covers right
/// stars only, so the planner runs this one through the generic semi-naive
/// fixpoint — one round, and one token check, per chain hop.
const SLOW_GENERIC_QUERY: &str = "STAR(JOIN[1,2,3' | 3=1'] E)";

/// How long after the deadline the error may surface. The acceptance bound
/// for the serving path is 50 ms end-to-end; the eval layer alone must be
/// comfortably inside that.
const RELEASE_BUDGET: Duration = Duration::from_millis(50);

/// `nodes` nodes with an edge under each of `labels` labels from every node
/// to every other.
fn parallel_labels(nodes: usize, labels: usize) -> Triplestore {
    let mut b = TriplestoreBuilder::new();
    for l in 0..labels {
        for i in 0..nodes {
            for j in (0..nodes).filter(|&j| j != i) {
                b.add_triple("E", format!("n{i}"), format!("l{l}"), format!("n{j}"));
            }
        }
    }
    b.finish()
}

fn expect_cancelled(result: Result<usize, Error>, slug: &str) {
    match result {
        Err(Error::Cancelled(reason)) => assert_eq!(reason, slug),
        other => panic!("expected Cancelled({slug}), got {other:?}"),
    }
}

#[test]
fn deadline_cancels_the_reach_closure_at_every_degree() {
    // Six nodes, every ordered pair joined by 2 000 parallel labels: each
    // of the 12 000 `(x, ℓ)` sources reaches all six nodes over 60 000
    // edges, so the closure does 720 M edge visits for 72 000 rows. A
    // release build on a 2-CPU Xeon VM took 2.57 s at one thread and
    // 1.35 s at four (debug builds take many times that), so the 200 ms
    // deadline fires mid-closure in every build; the token is checked
    // between sources, tens of microseconds apart in release. (A chain
    // grows its rows as fast as its work: chain(2000) finished in 42 ms in
    // release, and a longer one would hold hundreds of megabytes of rows by
    // the deadline.)
    let store = parallel_labels(6, 2000);
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

/// Drains `stream` one of four ways, returning the rows it delivered: a
/// `next_triple` loop, `count`, `collect_set` or the single-producer
/// `channel`.
fn drain(stream: QueryStream<'_>, how: &str) -> usize {
    match how {
        "next_triple" => {
            let mut stream = stream;
            std::iter::from_fn(|| stream.next_triple()).count()
        }
        "count" => stream.count().0 as usize,
        "collect_set" => stream.collect_set().0.len(),
        "channel" => {
            let (rows, _) = stream.channel(4, |exchange| {
                std::iter::from_fn(|| exchange.next_triple()).count()
            });
            rows
        }
        other => unreachable!("no drain named {other}"),
    }
}

#[test]
fn deadlines_cut_streamed_closures_mid_drain() {
    // The closures stream source by source, so their work happens during
    // the drain, not when the stream is opened. chain(4000) has 8 002 000
    // closure rows, and a release build on a 2-CPU Xeon VM drained them in
    // 0.17 s (right star) and 0.39 s (`next+`): a 50 ms deadline fires after
    // the first rows and well before the last, in every build. Whatever
    // way the stream is drained, the rows stop short and the token carries
    // the error that the caller's `Result` layer surfaces — never a short
    // answer passed off as complete.
    let store = chain_store(4000);
    let total = 4000 * 4001 / 2;
    let path = trial_parser::parse_path("next+").unwrap();
    let deadline = Duration::from_millis(50);
    for threads in [1usize, 2, 4] {
        let planner = SmartEngine::with_options(EvalOptions {
            threads,
            ..EvalOptions::default()
        });
        let plans =
            [("right star", SLOW_QUERY), ("same label", SAME_LABEL_QUERY)].map(|(shape, text)| {
                let expr = trial_parser::parse(text).unwrap();
                let plan = planner.plan_query(&expr, &store, None, None, None).unwrap();
                assert!(
                    matches!(plan.root, trial_eval::PlanNode::StarReach { .. }),
                    "{shape}: {}",
                    plan.explain()
                );
                (shape, plan)
            });
        let nfa = planner
            .plan_path_query(&path, "E", &store, None, None, None, None)
            .unwrap();
        assert!(matches!(nfa.root, trial_eval::PlanNode::PathNfa { .. }));
        for (shape, plan) in plans.into_iter().chain([("path nfa", nfa)]) {
            for how in ["next_triple", "count", "collect_set", "channel"] {
                let token = CancelToken::with_timeout(deadline);
                let engine = SmartEngine::with_options(EvalOptions {
                    threads,
                    cancel: token.clone(),
                    ..EvalOptions::default()
                });
                let rows = drain(engine.stream(plan.clone(), &store).unwrap(), how);
                let case = format!("{shape}, {how}, threads={threads}");
                assert!(rows > 0, "{case}: cancelled before the first row");
                assert!(rows < total, "{case}: drained all {total} rows");
                expect_cancelled(token.check().map(|()| rows), "deadline_exceeded");
            }
        }
    }
}
