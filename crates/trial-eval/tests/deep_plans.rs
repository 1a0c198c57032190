//! Stack headroom: a plan twice as deep as the parsers accept still plans,
//! opens, runs and drops on a thread with a 2 MiB stack, the default for a
//! spawned thread. Every level of a plan recurses through the planner and
//! the cursor walk, and a full result drains the cursors too, so `stream`,
//! `execute` and `analyze` each get the whole chain.
//!
//! CI runs this test in release as well, because inlining changes frame
//! sizes.

use trial_core::{Expr, TriplestoreBuilder};
use trial_eval::SmartEngine;

/// The default stack size of a thread spawned by `std::thread`.
const STACK: usize = 2 << 20;

#[test]
fn a_union_chain_twice_the_parser_depth_runs_on_a_2_mib_stack() {
    let unions = 2 * trial_parser::MAX_DEPTH;
    let worker = std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(move || {
            let mut b = TriplestoreBuilder::new();
            for i in 0..20 {
                b.add_triple("E", format!("n{i}"), "next", format!("n{}", i + 1));
            }
            let store = b.finish();
            let chain = (0..unions).fold(Expr::rel("E"), |chain, _| chain.union(Expr::rel("E")));
            let engine = SmartEngine::new();
            // A limit distributes through every union, so the limited plan is
            // twice as deep as the chain.
            for limit in [None, Some(1000)] {
                let plan = || {
                    engine
                        .plan_query(&chain, &store, limit, None, None)
                        .unwrap()
                };
                let (streamed, _) = engine.stream(plan(), &store).unwrap().count();
                assert_eq!(streamed, 20, "stream, limit {limit:?}");
                let executed = engine.execute(&plan(), &store).unwrap();
                assert_eq!(executed.result.len(), 20, "execute, limit {limit:?}");
                let analyzed = engine.analyze(plan(), &store).unwrap();
                assert_eq!(
                    analyzed.evaluation.result.len(),
                    20,
                    "analyze, limit {limit:?}"
                );
                assert!(analyzed.actuals.iter().all(Option::is_some));
            }
        });
    worker.unwrap().join().unwrap();
}
