//! Golden-file explain corpus for regular path queries: each case pins how
//! a path expression compiles — closure-free concatenation chains must keep
//! lowering to TriAL join plans the planner optimizes, while
//! closures and `max_hops` bounds must keep resolving to the `PathNfa`
//! product walk. The checked-in trees under `tests/golden/rpq/` make a
//! strategy flip (an RPQ silently degrading to the NFA walk, or a bounded
//! walk silently running a full fixpoint) a readable text diff.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```bash
//! TRIAL_BLESS=1 cargo test --test rpq_golden
//! ```

use trial_core::{Permutation, Triplestore};
use trial_eval::rpq::{self, PathStrategy};
use trial_eval::{EvalOptions, SmartEngine};
use trial_workloads::labeled_chain_store;

/// One golden case: a path expression plus the `/path` endpoint knobs.
struct Case {
    /// Golden file stem under `tests/golden/rpq/`.
    name: &'static str,
    /// Path expression in `trial_parser::parse_path` concrete syntax.
    path: &'static str,
    /// `?algo=` strategy.
    strategy: PathStrategy,
    /// `?max_hops=` walk bound.
    max_hops: Option<usize>,
    /// `?limit=` bound pushed into the plan.
    limit: Option<usize>,
    /// `?order=` output order.
    order: Option<Permutation>,
    /// `?topk=` bound.
    topk: Option<usize>,
}

const fn case(name: &'static str, path: &'static str) -> Case {
    Case {
        name,
        path,
        strategy: PathStrategy::Auto,
        max_hops: None,
        limit: None,
        order: None,
        topk: None,
    }
}

const CASES: &[Case] = &[
    // Closure-free expressions: `auto` lowers these to TriAL algebra, so
    // the plans below are scans, σ-selections and joins — never a PathNfa.
    case("lower-atom", "a"),
    case("lower-seq2", "a/b"),
    case("lower-seq4", "a/b/a/b"),
    case("lower-alt", "a|b"),
    case("lower-opt", "a?/b"),
    case("lower-alt-seq", "(a|b)/(a|b)"),
    // Closures resolve to the NFA product walk.
    case("nfa-star-seq", "(a/b)*"),
    case("nfa-plus-alt", "(a|b)+"),
    // A hop bound forces the walk even on a closure-free expression: the
    // lowering evaluates full compositions and cannot count edges.
    Case {
        max_hops: Some(3),
        ..case("nfa-bounded-seq", "a/b")
    },
    // `?algo=nfa` overrides the lowering on a concatenation.
    Case {
        strategy: PathStrategy::Nfa,
        ..case("nfa-forced-seq", "a/b")
    },
    // Delivery knobs compose over the walk like over any other breaker.
    Case {
        limit: Some(5),
        ..case("nfa-limit", "(a|b)+")
    },
    Case {
        order: Some(Permutation::Pos),
        topk: Some(3),
        ..case("nfa-order-topk", "(a|b)+")
    },
    Case {
        order: Some(Permutation::Osp),
        ..case("lower-order-seq", "a/b")
    },
];

/// The `abab…`-labelled chain every case plans against.
fn store() -> Triplestore {
    labeled_chain_store(6, &["a", "b"])
}

/// Renders one case exactly the way `/path` compiles it: resolve the
/// strategy, then either lower to TriAL algebra and plan that expression,
/// or plan the NFA product walk.
fn render(case: &Case, store: &Triplestore) -> String {
    let path = trial_parser::parse_path(case.path)
        .unwrap_or_else(|e| panic!("case `{}` does not parse: {e}", case.name));
    // Pinned to one thread: the goldens carry no `[parallel×N]` tags, and
    // the default degree follows `TRIAL_EVAL_THREADS`.
    let engine = SmartEngine::with_options(EvalOptions {
        threads: 1,
        ..EvalOptions::default()
    });
    let to_nfa = case.strategy.resolves_to_nfa(&path, case.max_hops);
    let plan = if to_nfa {
        engine.plan_path_query(
            &path,
            "E",
            store,
            case.max_hops,
            case.limit,
            case.order,
            case.topk,
        )
    } else {
        engine.plan_query(
            &rpq::lower(&path, "E"),
            store,
            case.limit,
            case.order,
            case.topk,
        )
    }
    .unwrap_or_else(|e| panic!("case `{}` does not plan: {e}", case.name));
    let knob = |name: &str, v: Option<String>| match v {
        Some(v) => format!(" {name}={v}"),
        None => String::new(),
    };
    format!(
        "# path: {}\n# knobs: algo={}{}{}{}{}\n# resolved: {}\n{}",
        case.path,
        case.strategy.name(),
        knob("max_hops", case.max_hops.map(|h| h.to_string())),
        knob("limit", case.limit.map(|k| k.to_string())),
        knob("order", case.order.map(|p| p.to_string())),
        knob("topk", case.topk.map(|k| k.to_string())),
        if to_nfa { "nfa" } else { "lower" },
        plan.explain(),
    )
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/rpq")
        .join(format!("{name}.txt"))
}

/// Checked independently of the golden files: a concatenation RPQ
/// compiles to a join plan, not an NFA walk.
#[test]
fn concatenation_lowers_to_joins_not_nfa() {
    let store = store();
    for case in CASES.iter().filter(|c| c.name.starts_with("lower-")) {
        let rendered = render(case, &store);
        assert!(
            !rendered.contains("PathNfa"),
            "case `{}` was expected to lower but planned a walk:\n{rendered}",
            case.name
        );
    }
    let seq2 = render(
        CASES.iter().find(|c| c.name == "lower-seq2").unwrap(),
        &store,
    );
    assert!(
        seq2.contains("Join"),
        "`a/b` should compile to a join plan:\n{seq2}"
    );
    for case in CASES.iter().filter(|c| c.name.starts_with("nfa-")) {
        let rendered = render(case, &store);
        assert!(
            rendered.contains("PathNfa"),
            "case `{}` was expected to walk the NFA product:\n{rendered}",
            case.name
        );
    }
}

#[test]
fn golden_rpq_corpus() {
    let bless = std::env::var("TRIAL_BLESS")
        .map(|v| v == "1")
        .unwrap_or(false);
    let store = store();
    let mut names: Vec<&str> = CASES.iter().map(|c| c.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), CASES.len(), "duplicate golden case names");

    let mut failures = Vec::new();
    for case in CASES {
        let actual = render(case, &store);
        let path = golden_path(case.name);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &actual).unwrap();
            continue;
        }
        let expected = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                failures.push(format!(
                    "── {}: missing golden file {} ({e}); run with TRIAL_BLESS=1 to create it",
                    case.name,
                    path.display()
                ));
                continue;
            }
        };
        if expected != actual {
            let mut diff = String::new();
            for line in diff_lines(&expected, &actual) {
                diff.push_str(&line);
                diff.push('\n');
            }
            failures.push(format!(
                "── {}: plan diverges from {} (TRIAL_BLESS=1 regenerates after review)\n{}",
                case.name,
                path.display(),
                diff
            ));
        }
    }
    if bless {
        eprintln!("blessed {} golden rpq files", CASES.len());
        return;
    }
    assert!(
        failures.is_empty(),
        "golden rpq corpus diverged:\n\n{}",
        failures.join("\n")
    );
}

/// A minimal line diff: shared lines print bare, divergences as -/+ pairs.
fn diff_lines(expected: &str, actual: &str) -> Vec<String> {
    let e: Vec<&str> = expected.lines().collect();
    let a: Vec<&str> = actual.lines().collect();
    let mut out = Vec::new();
    for i in 0..e.len().max(a.len()) {
        match (e.get(i), a.get(i)) {
            (Some(x), Some(y)) if x == y => out.push(format!("  {x}")),
            (Some(x), Some(y)) => {
                out.push(format!("- {x}"));
                out.push(format!("+ {y}"));
            }
            (Some(x), None) => out.push(format!("- {x}")),
            (None, Some(y)) => out.push(format!("+ {y}")),
            (None, None) => {}
        }
    }
    out
}
