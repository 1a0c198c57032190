//! Early termination of the Proposition 5 closures: a reach star and an NFA
//! path walk stream their answer one source at a time in SPO order, so a
//! `limit k` or an SPO `topk k` above them returns the first `k` rows of the
//! full closure after closing only the sources those rows come from.
//!
//! The fixture is a doubly-labelled chain `n0 … n10`: every `n_i` has a
//! `next` and a `see` edge to `n_{i+1}`. The work counters are pinned to
//! values derived by hand for the first sources; a closure that ran to the
//! end before its first row would read the whole closure's work instead
//! (180, 90 and 55 edges for the three shapes below).

use trial_core::{Triplestore, TriplestoreBuilder};
use trial_eval::{EvalOptions, Plan, PlanNode, SmartEngine};

fn fixture() -> Triplestore {
    let mut b = TriplestoreBuilder::new();
    for i in 0..10 {
        b.add_triple("E", format!("n{i}"), "next", format!("n{}", i + 1));
        b.add_triple("E", format!("n{i}"), "see", format!("n{}", i + 1));
    }
    b.finish()
}

fn engine(threads: usize) -> SmartEngine {
    SmartEngine::with_options(EvalOptions {
        threads,
        parallel_min_rows: 0,
        ..EvalOptions::default()
    })
}

/// The plan of one closure shape — a right star, a same-label star or an
/// NFA path walk — under `limit` or an SPO `topk`.
fn plan(
    engine: &SmartEngine,
    store: &Triplestore,
    shape: &str,
    limit: Option<usize>,
    topk: Option<usize>,
) -> Plan {
    let star = |text| {
        let expr = trial_parser::parse(text).unwrap();
        engine.plan_query(&expr, store, limit, None, topk).unwrap()
    };
    match shape {
        "right star" => star("STAR(E JOIN[1,2,3' | 3=1'])"),
        "same label" => star("STAR(E JOIN[1,2,3' | 3=1',2=2'])"),
        _ => {
            let path = trial_parser::parse_path("next+").unwrap();
            engine
                .plan_path_query(&path, "E", store, None, limit, None, topk)
                .unwrap()
        }
    }
}

#[test]
fn bounded_closures_close_only_their_first_sources() {
    let store = fixture();
    // `reach_edges_traversed` after `k` rows, for k = 1, 10 and 12.
    //
    // Right star: the sources are `(n0, next)`, `(n0, see)`, `(n1, next)`,
    // …; `(n0, ·)` reaches n1 … n10 (10 rows), expanding each once over 2
    // edges apiece but n10's none: 18 edges. Rows 1–10 need one source,
    // rows 11–12 the second: 18, 18, 36.
    //
    // Same label: the same sources, but each expands only its own label's
    // edge: 9, 9, 18.
    //
    // `next+`: the roots are the subjects n0, n1, …; n0's product walk
    // crosses the 10 `next` edges n0 → … → n10 (10 rows), n1's the 9 from n1
    // on: 10, 10, 19.
    let pins = [
        ("right star", [18, 18, 36]),
        ("same label", [9, 9, 18]),
        ("path nfa", [10, 10, 19]),
    ];
    for (name, edges) in pins {
        let full = plan(&engine(1), &store, name, None, None);
        let full = engine(1).execute(&full, &store).unwrap();
        let full = full.result.as_slice();
        assert_eq!(full.len(), if name == "path nfa" { 55 } else { 110 });
        for (k, edges) in [1, 10, 12].into_iter().zip(edges) {
            for threads in [1, 2, 4] {
                let engine = engine(threads);
                for (knob, limit, topk) in [("limit", Some(k), None), ("topk", None, Some(k))] {
                    let case = format!("{name}, {knob} {k}, threads={threads}");
                    let plan = plan(&engine, &store, name, limit, topk);
                    // Both knobs plan to a streaming limit right over the
                    // closure: it already streams in SPO order.
                    let PlanNode::Limit { input, .. } = &plan.root else {
                        panic!("{case}: {}", plan.explain());
                    };
                    assert!(
                        matches!(
                            **input,
                            PlanNode::StarReach { .. } | PlanNode::PathNfa { .. }
                        ),
                        "{case}: {}",
                        plan.explain()
                    );
                    // The cursor walk: the first k rows, in order.
                    let mut stream = engine.stream(plan.clone(), &store).unwrap();
                    let rows: Vec<_> = std::iter::from_fn(|| stream.next_triple()).collect();
                    assert_eq!(rows, full[..k], "{case}");
                    assert_eq!(stream.stats().reach_edges_traversed, edges, "{case}");
                    // The set walk runs a bounded subtree as the same pipeline.
                    let set = engine.execute(&plan, &store).unwrap();
                    assert_eq!(set.result.as_slice(), &full[..k], "{case}");
                    assert_eq!(set.stats.reach_edges_traversed, edges, "{case}");
                }
            }
        }
    }
}
