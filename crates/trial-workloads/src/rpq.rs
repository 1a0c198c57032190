//! Path-query (RPQ) workloads: labelled graphs plus expression suites.
//!
//! The structured stores in [`crate::chains`] carry a single edge label per
//! shape (`next`, or `right`/`down` on grids), which is enough for
//! reachability but not for regular path expressions — alternation and
//! concatenation only become interesting when a walk has to *choose* between
//! labels. The generators here build the labelled variants, and the
//! `*_path_suite` functions enumerate the expressions the `e15` table and
//! the differential tests run over them: concatenation chains (which the TriAL
//! lowering turns into join trees), alternations, and the closures that force
//! the NFA product walk.

use trial_core::{Triplestore, TriplestoreBuilder};

/// One path-query case of a workload suite: a path-expression text in the
/// `trial_parser::parse_path` grammar plus an optional hop bound.
#[derive(Debug, Clone, Copy)]
pub struct PathCase {
    /// Short case name (stable across runs; used in reports).
    pub name: &'static str,
    /// The path expression, in concrete syntax.
    pub path: &'static str,
    /// Walk-length bound in graph edges (`None` = unbounded).
    pub max_hops: Option<usize>,
}

/// A chain `n0 → n1 → … → n_len` whose edge labels cycle through `labels`:
/// edge `i` is labelled `labels[i % labels.len()]`. With `labels = ["a","b"]`
/// the chain spells the word `abab…`, so `a/b` matches every even-offset
/// two-step hop and `(a/b)*` the even-length prefix pairs — the shapes that
/// separate concatenation lowering from closure walks.
pub fn labeled_chain_store(len: usize, labels: &[&str]) -> Triplestore {
    let mut b = TriplestoreBuilder::new();
    b.relation("E");
    for i in 0..len {
        b.add_triple(
            "E",
            format!("n{i}"),
            labels[i % labels.len().max(1)],
            format!("n{}", i + 1),
        );
    }
    b.finish()
}

/// A cycle of `len` nodes whose edge labels cycle through `labels` (edge
/// `i → i+1 mod len` is labelled `labels[i % labels.len()]`).
pub fn labeled_cycle_store(len: usize, labels: &[&str]) -> Triplestore {
    let mut b = TriplestoreBuilder::new();
    b.relation("E");
    for i in 0..len {
        b.add_triple(
            "E",
            format!("n{i}"),
            labels[i % labels.len().max(1)],
            format!("n{}", (i + 1) % len.max(1)),
        );
    }
    b.finish()
}

/// The expression suite for an `a`/`b`-labelled chain
/// ([`labeled_chain_store`] with `labels = ["a", "b"]`): closure-free cases
/// first (these lower to TriAL join plans), then the closures that resolve
/// to the NFA product walk.
pub fn chain_path_suite() -> Vec<PathCase> {
    vec![
        PathCase {
            name: "chain/atom",
            path: "a",
            max_hops: None,
        },
        PathCase {
            name: "chain/seq2",
            path: "a/b",
            max_hops: None,
        },
        PathCase {
            name: "chain/seq4",
            path: "a/b/a/b",
            max_hops: None,
        },
        PathCase {
            name: "chain/alt-seq",
            path: "(a|b)/(a|b)",
            max_hops: None,
        },
        PathCase {
            name: "chain/opt",
            path: "a?/b",
            max_hops: None,
        },
        PathCase {
            name: "chain/star-seq",
            path: "(a/b)*",
            max_hops: None,
        },
        PathCase {
            name: "chain/plus-alt",
            path: "(a|b)+",
            max_hops: None,
        },
        PathCase {
            name: "chain/plus-alt-bounded",
            path: "(a|b)+",
            max_hops: Some(8),
        },
    ]
}

/// The expression suite for a `next`-labelled cycle ([`crate::cycle_store`]
/// or [`labeled_cycle_store`] with one label): closures over a graph where
/// every node reaches every node, the worst case for transitive closure.
/// `next**` and `(next?)+` spell `next*` with stacked closures, which must
/// neither change the answer nor cost more than the single star.
pub fn cycle_path_suite() -> Vec<PathCase> {
    vec![
        PathCase {
            name: "cycle/seq2",
            path: "next/next",
            max_hops: None,
        },
        PathCase {
            name: "cycle/star",
            path: "next*",
            max_hops: None,
        },
        PathCase {
            name: "cycle/star-star",
            path: "next**",
            max_hops: None,
        },
        PathCase {
            name: "cycle/opt-plus",
            path: "(next?)+",
            max_hops: None,
        },
        PathCase {
            name: "cycle/plus",
            path: "next+",
            max_hops: None,
        },
        PathCase {
            name: "cycle/plus-bounded",
            path: "next+",
            max_hops: Some(4),
        },
    ]
}

/// The expression suite for the `right`/`down`-labelled grid
/// ([`crate::grid_store`]): monotone walks where the two labels genuinely
/// compete, including the classic staircase `(right/down)+`.
pub fn grid_path_suite() -> Vec<PathCase> {
    vec![
        PathCase {
            name: "grid/seq2",
            path: "right/down",
            max_hops: None,
        },
        PathCase {
            name: "grid/stairs",
            path: "(right/down)+",
            max_hops: None,
        },
        PathCase {
            name: "grid/monotone",
            path: "(right|down)+",
            max_hops: None,
        },
        PathCase {
            name: "grid/monotone-bounded",
            path: "(right|down)+",
            max_hops: Some(6),
        },
        PathCase {
            name: "grid/rows-then-cols",
            path: "right*/down*",
            max_hops: None,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeled_chain_counts() {
        let store = labeled_chain_store(6, &["a", "b"]);
        assert_eq!(store.triple_count(), 6);
        // 7 nodes + 2 labels.
        assert_eq!(store.object_count(), 9);
    }

    #[test]
    fn labeled_cycle_counts() {
        let store = labeled_cycle_store(4, &["a", "b"]);
        assert_eq!(store.triple_count(), 4);
        assert_eq!(store.object_count(), 6);
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(labeled_chain_store(0, &["a"]).triple_count(), 0);
        assert_eq!(labeled_cycle_store(0, &["a"]).triple_count(), 0);
    }

    #[test]
    fn suites_are_nonempty_and_named_uniquely() {
        for suite in [chain_path_suite(), cycle_path_suite(), grid_path_suite()] {
            assert!(!suite.is_empty());
            let mut names: Vec<_> = suite.iter().map(|c| c.name).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), suite.len());
        }
    }
}
