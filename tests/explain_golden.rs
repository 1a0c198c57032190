//! Golden-file explain corpus: ~16 representative TriAL queries over the
//! paper's Figure 1 transport store, each with its expected `explain()`
//! tree checked into `tests/golden/`. Planner regressions — a changed join
//! strategy, a lost ordering tag, a limit that stopped folding — surface as
//! readable text diffs instead of downstream result changes.
//!
//! Regenerate the corpus after an *intentional* planner change with:
//!
//! ```bash
//! TRIAL_BLESS=1 cargo test --test explain_golden
//! ```
//!
//! then review the `tests/golden/*.txt` diff like any other code change.

use trial_core::{Permutation, Triplestore, TriplestoreBuilder};
use trial_eval::{EvalOptions, SmartEngine};

/// One golden case: a parsed query plus the planner knobs under test.
struct Case {
    /// Golden file stem under `tests/golden/`.
    name: &'static str,
    /// TriAL query text (parsed with `trial_parser`).
    query: &'static str,
    /// `?limit=`-style bound pushed into the plan.
    limit: Option<usize>,
    /// `?order=`-style output order.
    order: Option<Permutation>,
    /// `?topk=`-style bound.
    topk: Option<usize>,
    /// Parallel degree the plan is rendered for (tags `[parallel×N]`).
    threads: usize,
}

const fn case(name: &'static str, query: &'static str) -> Case {
    Case {
        name,
        query,
        limit: None,
        order: None,
        topk: None,
        threads: 1,
    }
}

const CASES: &[Case] = &[
    // Scans and selections.
    case("scan", "E"),
    Case {
        order: Some(Permutation::Pos),
        ..case("scan-order-pos", "E")
    },
    case("select-bound", "SELECT[2='part_of'](E)"),
    case("select-residual", "SELECT[1!=3](E)"),
    case("select-unknown-const", "SELECT[2='nope'](E)"),
    // Joins: merge (two permutation-ordered scans), index nested-loop
    // (small bound outer), hash (derived sides), plain nested loop (no key).
    case("join-merge-example2", "(E JOIN[1,3',3 | 2=1'] E)"),
    case("join-merge-osp", "(E JOIN[1,2,3' | 3=2'] E)"),
    case(
        "join-index-probe",
        "(SELECT[2='part_of'](E) JOIN[1,2,3' | 3=1'] E)",
    ),
    case(
        "join-hash-derived",
        "((E JOIN[1,2,3' | 3=1',rho(1)=rho(3')] E) JOIN[1,2,3' | 3=1'] SELECT[2='part_of'](E))",
    ),
    case("join-nested-loop", "(E JOIN[1,2,3' | 1!=1'] E)"),
    // Two label-bound scans joined on their third components: each bound
    // POS run is also OSP-sorted (the secondary order), so this merges
    // OSP⋈OSP where it previously had to hash.
    case(
        "join-merge-bound-bound",
        "(SELECT[2='part_of'](E) JOIN[1,2,3' | 3=3'] SELECT[2='BusOp1'](E))",
    ),
    // An identity-output (semijoin-shaped) join under ?order=osp: the merge
    // join inherits its left side's secondary order, so the requested order
    // arrives with no sort breaker.
    Case {
        order: Some(Permutation::Osp),
        ..case(
            "order-semijoin-no-sort",
            "(SELECT[2='part_of'](E) JOIN[1,2,3 | 3=1'] E)",
        )
    },
    // Set operations, stars, memoisation.
    case("union-pushdown", "SELECT[2='part_of']((E UNION E))"),
    case("diff-complement", "(E MINUS COMPL(E))"),
    case("star-reach", "STAR(E JOIN[1,2,3' | 3=1'])"),
    case("star-seminaive", "STAR(E JOIN[1,2,2' | 3=1'])"),
    case(
        "memo-shared-subquery",
        "((E JOIN[1,3',3 | 2=1'] E) UNION (E JOIN[1,3',3 | 2=1'] E))",
    ),
    // Limits, ordered delivery, top-k.
    Case {
        limit: Some(5),
        ..case("limit-union", "(E UNION (E JOIN[1,2,3' | 3=1'] E))")
    },
    Case {
        order: Some(Permutation::Pos),
        ..case("sort-breaker", "(E JOIN[1,3',3 | 2=1'] E)")
    },
    Case {
        order: Some(Permutation::Pos),
        topk: Some(3),
        ..case("topk-heap", "(E JOIN[1,3',3 | 2=1'] E)")
    },
    Case {
        order: Some(Permutation::Osp),
        topk: Some(3),
        ..case("topk-limit-collapse", "(E UNION E)")
    },
    Case {
        threads: 4,
        ..case("parallel-tags", "(E JOIN[1,3',3 | 2=1',1!=3'] E)")
    },
];

/// The Figure 1 transport store the whole corpus plans against.
fn store() -> Triplestore {
    let mut b = TriplestoreBuilder::new();
    for (s, p, o) in [
        ("St.Andrews", "BusOp1", "Edinburgh"),
        ("Edinburgh", "TrainOp1", "London"),
        ("London", "TrainOp2", "Brussels"),
        ("BusOp1", "part_of", "NatExpress"),
        ("TrainOp1", "part_of", "EastCoast"),
        ("TrainOp2", "part_of", "Eurostar"),
        ("EastCoast", "part_of", "NatExpress"),
    ] {
        b.add_triple("E", s, p, o);
    }
    b.finish()
}

/// Renders one case: a reproducibility header plus the explain tree.
fn render(case: &Case, store: &Triplestore) -> String {
    let expr = trial_parser::parse(case.query)
        .unwrap_or_else(|e| panic!("case `{}` does not parse: {e}", case.name));
    let options = EvalOptions {
        threads: case.threads,
        ..EvalOptions::default()
    };
    let plan = SmartEngine::with_options(options)
        .plan_query(&expr, store, case.limit, case.order, case.topk)
        .unwrap_or_else(|e| panic!("case `{}` does not plan: {e}", case.name));
    let knob = |name: &str, v: Option<String>| match v {
        Some(v) => format!(" {name}={v}"),
        None => String::new(),
    };
    format!(
        "# query: {}\n# knobs:{}{}{}{}\n{}",
        case.query,
        knob("limit", case.limit.map(|k| k.to_string())),
        knob("order", case.order.map(|p| p.to_string())),
        knob("topk", case.topk.map(|k| k.to_string())),
        knob(
            "threads",
            (case.threads > 1).then(|| case.threads.to_string())
        ),
        plan.explain(),
    )
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

#[test]
fn golden_explain_corpus() {
    let bless = std::env::var("TRIAL_BLESS")
        .map(|v| v == "1")
        .unwrap_or(false);
    let store = store();
    // Every case has a distinct golden file.
    let mut names: Vec<&str> = CASES.iter().map(|c| c.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), CASES.len(), "duplicate golden case names");

    let mut failures = Vec::new();
    for case in CASES {
        let actual = render(case, &store);
        let path = golden_path(case.name);
        if bless {
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
        eprintln!("blessed {} golden explain files", CASES.len());
        return;
    }
    assert!(
        failures.is_empty(),
        "golden explain corpus diverged:\n\n{}",
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
