//! Exact work counters for the U rule (see `trial_eval::ops`): a keyed join
//! reads each side only through the positions its output and conditions
//! use, so it probes each distinct projection once and keeps one build row
//! per projection.
//!
//! The store is coauthor-shaped: one author wrote most of the papers and
//! also edited some of them, so projections repeat on both sides. Each
//! query shape forces one join kind, and its `pairs_considered` must equal
//! an oracle computed here from the inputs alone, in both walks (set and
//! cursor) and at every degree.

use std::collections::BTreeSet;
use trial_core::{Expr, Triple, TripleSet, Triplestore, TriplestoreBuilder};
use trial_eval::{Engine, EvalOptions, EvalStats, NaiveEngine, PlanNode, SmartEngine};

/// Papers p0..p39 by authors a0..a5: a0 wrote p0..p29 and edited
/// p0..p9, every paper has one or two more authors, and papers cite their
/// predecessor.
fn coauthor_store() -> Triplestore {
    let mut b = TriplestoreBuilder::new();
    for i in 0..40 {
        let paper = format!("p{i}");
        if i < 30 {
            b.add_triple("E", &paper, "creator", "a0");
        }
        if i < 10 {
            b.add_triple("E", &paper, "editor", "a0");
        }
        b.add_triple("E", &paper, "creator", format!("a{}", 1 + i % 5));
        if i % 3 == 0 {
            b.add_triple("E", &paper, "creator", format!("a{}", 1 + (i + 2) % 5));
        }
        if i > 0 {
            b.add_triple("E", &paper, "cites", format!("p{}", i - 1));
        }
        b.add_triple("E", &paper, "type", "Paper");
    }
    b.finish()
}

/// One query shape: a single keyed join whose plan is of kind `kind`, with
/// each side's used-position mask written out by hand.
struct Shape {
    kind: &'static str,
    left: &'static str,
    right: &'static str,
    join: &'static str,
    left_used: [bool; 3],
    right_used: [bool; 3],
}

const SHAPES: [Shape; 3] = [
    // Every paper's creator, joined to all papers of that creator: the
    // outer reads only {2, 3}, so each author probes once.
    Shape {
        kind: "IndexNestedLoopJoin",
        left: "SELECT[2='creator'](E)",
        right: "E",
        join: "JOIN[3,2',1' | 3=3',2=2']",
        left_used: [false, true, true],
        right_used: [true, true, true],
    },
    // Two filtered sides keep the stored relation out of reach and the
    // merge out of order: a hash join. The left reads only {3}, the right
    // {1', 3'}, so a0's edits collapse onto its creations.
    Shape {
        kind: "HashJoin",
        left: "SELECT[2='creator'](E)",
        right: "SELECT[3='a0'](E)",
        join: "JOIN[3,3,1' | 3=3']",
        left_used: [false, false, true],
        right_used: [true, false, true],
    },
    // A large filtered side against the whole relation on one key: a merge
    // join whose left key runs and right groups both repeat projections.
    Shape {
        kind: "MergeJoin",
        left: "SELECT[2='creator'](E)",
        right: "E",
        join: "JOIN[3,1',3' | 3=3']",
        left_used: [false, false, true],
        right_used: [true, false, true],
    },
];

fn project(t: &Triple, used: [bool; 3]) -> [Option<u32>; 3] {
    [0, 1, 2].map(|c| used[c].then_some(t.0[c].0))
}

/// Σ over the distinct left projections of the right rows they meet: the
/// distinct right projections whose `keys` components agree, or, for an
/// index probe (`right_used` = `None`), every row of the probed run.
fn oracle(
    left: &TripleSet,
    right: &TripleSet,
    keys: &[(usize, usize)],
    left_used: [bool; 3],
    right_used: Option<[bool; 3]>,
) -> u64 {
    let mut probed = BTreeSet::new();
    let pairs: usize = left
        .iter()
        .filter(|l| probed.insert(project(l, left_used)))
        .map(|l| {
            let matching = right
                .iter()
                .filter(|r| keys.iter().all(|&(lc, rc)| l.0[lc] == r.0[rc]));
            match right_used {
                Some(used) => matching
                    .map(|r| project(r, used))
                    .collect::<BTreeSet<_>>()
                    .len(),
                None => matching.count(),
            }
        })
        .sum();
    pairs as u64
}

fn engine(threads: usize) -> SmartEngine {
    SmartEngine::with_options(EvalOptions {
        threads,
        parallel_min_rows: 0,
        ..EvalOptions::default()
    })
}

/// The join node under any plan decoration, with its kind, the keys it
/// matches rows on (component pairs) and whether its right side dedups.
fn join_node(node: &PlanNode) -> (&'static str, Vec<(usize, usize)>, bool) {
    let comps = |keys: &[(trial_core::Pos, trial_core::Pos)]| {
        keys.iter()
            .map(|(l, r)| (l.component_index(), r.component_index()))
            .collect()
    };
    match node {
        PlanNode::IndexNestedLoopJoin { probe, swapped, .. } => {
            assert!(!swapped, "the outer must be the written left side");
            ("IndexNestedLoopJoin", comps(&[*probe]), false)
        }
        PlanNode::HashJoin { keys, .. } => ("HashJoin", comps(keys), true),
        PlanNode::MergeJoin { key, .. } => ("MergeJoin", comps(&[*key]), true),
        other => panic!("expected a keyed join, got\n{}", other.explain()),
    }
}

#[test]
fn pairs_considered_count_each_distinct_projection_once() {
    let store = coauthor_store();
    let naive = NaiveEngine::new();
    for shape in &SHAPES {
        let parse = |text: &str| trial_parser::parse(text).unwrap();
        let text = format!("({} {} {})", shape.left, shape.join, shape.right);
        let expr: Expr = parse(&text);
        let left = naive.run(&parse(shape.left), &store).unwrap();
        let right = naive.run(&parse(shape.right), &store).unwrap();
        let expected = naive.run(&expr, &store).unwrap();

        let plan = engine(1)
            .plan_query(&expr, &store, None, None, None)
            .unwrap();
        let (kind, keys, right_dedups) = join_node(&plan.root);
        assert_eq!(kind, shape.kind, "{text} planned as\n{}", plan.explain());
        // Hash and merge match on their keys either way round, so the
        // oracle does not depend on which side the planner builds.
        let right_used = right_dedups.then_some(shape.right_used);
        let want = oracle(&left, &right, &keys, shape.left_used, right_used);
        let every_row = oracle(&left, &right, &keys, [true; 3], None);
        assert!(
            want < every_row,
            "{text}: no projection repeats ({want} pairs)"
        );

        let mut by_walk: [Vec<EvalStats>; 2] = Default::default();
        for threads in [1, 2, 4] {
            let engine = engine(threads);
            let set = engine.execute(&plan, &store).unwrap();
            assert_eq!(set.result, expected, "{text} at degree {threads}");
            let mut stream = engine.stream(plan.clone(), &store).unwrap();
            let mut rows = Vec::new();
            while let Some(t) = stream.next_triple() {
                rows.push(t);
            }
            assert_eq!(rows.into_iter().collect::<TripleSet>(), expected, "{text}");
            for (walk, stats) in [(0, set.stats), (1, *stream.stats())] {
                assert_eq!(
                    stats.pairs_considered, want,
                    "{text}: walk {walk} at degree {threads}"
                );
                by_walk[walk].push(stats);
            }
        }
        for runs in &by_walk {
            for stats in &runs[1..] {
                assert_eq!(stats.pairs_considered, runs[0].pairs_considered, "{text}");
                assert_eq!(stats.triples_scanned, runs[0].triples_scanned, "{text}");
                assert_eq!(stats.triples_emitted, runs[0].triples_emitted, "{text}");
            }
        }
    }
}
