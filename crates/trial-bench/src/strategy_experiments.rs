//! Experiments e14–e15: one query, two evaluation strategies, equal
//! answers. e14 runs query Q as a ReachTripleDatalog¬ program and as the
//! TriAL\* expression it came from (Proposition 2 / Theorem 2); e15 runs
//! regular path queries through the Thompson-NFA product walk and through
//! their TriAL\* lowering (Theorem 7 in practice).
//!
//! Both tables check agreement *before* timing anything and report it per
//! row, so a disagreement shows up as `false` in the `agree` column rather
//! than as a timing.

use crate::{ms, Report};
use std::fmt::Write as _;
use std::time::Instant;
use trial_core::builder::queries;
use trial_core::{TripleSet, Triplestore};
use trial_datalog::{evaluate_program, expr_to_program};
use trial_eval::rpq;
use trial_eval::{CancelToken, Engine, EvalStats, SmartEngine};
use trial_parser::parse_path;
use trial_workloads::{
    chain_path_suite, cycle_path_suite, grid_path_suite, grid_store, labeled_chain_store,
    labeled_cycle_store, transport_network, PathCase, TransportConfig,
};

/// Timed samples per strategy in e15; the table reports their median.
const SAMPLES: usize = 5;

/// Two e15 medians closer than this fraction of the larger one are a tie:
/// sub-millisecond medians of identical code differ by that much between
/// runs, so the `faster` column names a winner only beyond it.
const TIE_FRACTION: f64 = 0.10;

/// The `faster` column of e15: which strategy's median is lower, or `tie`
/// when they are within [`TIE_FRACTION`] of each other.
fn faster(nfa_ms: f64, lower_ms: f64) -> &'static str {
    if (nfa_ms - lower_ms).abs() <= TIE_FRACTION * nfa_ms.max(lower_ms) {
        "tie"
    } else if nfa_ms < lower_ms {
        "nfa"
    } else {
        "lower"
    }
}

/// The least wall-clock time one e15 sample covers: a sample repeats its
/// call back to back until this much time has passed, so sub-millisecond
/// strategies are timed over many calls instead of one.
const SAMPLE_MIN_MS: f64 = 2.0;

/// Median over [`SAMPLES`] samples of the mean wall-clock milliseconds per
/// call of `f`, each sample running `f` at least once and until
/// [`SAMPLE_MIN_MS`] have passed.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u32;
            while calls == 0 || ms(start) < SAMPLE_MIN_MS {
                f();
                calls += 1;
            }
            ms(start) / f64::from(calls)
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[SAMPLES / 2]
}

/// Proposition 2 / Theorem 2: query Q evaluated as a ReachTripleDatalog¬
/// program (bottom-up, stratified) and as the TriAL\* expression it was
/// translated from, on transport networks of `scales` × (10 cities,
/// 2 operators, 30 services).
pub fn e14_datalog_vs_algebra(scales: &[usize]) -> Report {
    let mut body = String::new();
    let engine = SmartEngine::new();
    let expr = queries::same_company_reachability("E");
    let _ = writeln!(
        body,
        "| cities | \\|T\\| | program | rules | answers | datalog bindings | datalog ms | \
         algebra work | algebra ms | agree |"
    );
    let _ = writeln!(body, "|---|---|---|---|---|---|---|---|---|---|");
    for &scale in scales {
        let store = transport_network(&TransportConfig {
            cities: 10 * scale,
            operators: 2 * scale,
            companies: 3,
            services: 30 * scale,
            ownership_depth: 2,
            seed: 8,
        });
        let rels: Vec<&str> = store.relation_names().collect();
        let program = expr_to_program(&expr, &rels).expect("Q translates to Datalog");
        let t0 = Instant::now();
        let datalog = evaluate_program(&program, &store).expect("datalog evaluation");
        let datalog_ms = ms(t0);
        let t1 = Instant::now();
        let algebra = engine.evaluate(&expr, &store).expect("algebra evaluation");
        let algebra_ms = ms(t1);
        let agree = datalog.output_triples().is_ok_and(|t| t == algebra.result);
        let _ = writeln!(
            body,
            "| {} | {} | {} | {} | {} | {} | {datalog_ms:.2} | {} | {algebra_ms:.2} | {agree} |",
            10 * scale,
            store.triple_count(),
            program.classify(),
            program.rules().len(),
            algebra.result.len(),
            datalog.bindings_considered,
            algebra.stats.work(),
        );
    }
    let _ = writeln!(
        body,
        "\nExpected (Prop. 2 / Thm. 2): the program and the expression define the same \
         relation on every store; the algebra's planned joins and Proposition 5 closures do \
         far less work than rule-at-a-time bottom-up evaluation."
    );
    Report {
        id: "e14",
        title: "Query Q as ReachTripleDatalog¬ vs. as TriAL* (Proposition 2 / Theorem 2)",
        body,
    }
}

/// Store sizes for [`e15_rpq_strategies`]: chain length, cycle length and
/// grid side.
#[derive(Debug, Clone, Copy)]
pub struct RpqSizes {
    /// Edges in the `abab…` chain.
    pub chain: usize,
    /// Nodes on the `next` cycle.
    pub cycle: usize,
    /// Side of the `right`/`down` grid.
    pub grid: usize,
}

fn nfa_eval(store: &Triplestore, case: &PathCase) -> TripleSet {
    let path = parse_path(case.path).expect("suite paths parse");
    let mut stats = EvalStats::new();
    rpq::eval_on_store(
        store,
        "E",
        &path,
        case.max_hops,
        1,
        &CancelToken::none(),
        &mut stats,
    )
    .expect("NFA evaluation")
}

fn lowered_eval(store: &Triplestore, case: &PathCase) -> TripleSet {
    let path = parse_path(case.path).expect("suite paths parse");
    SmartEngine::new()
        .run(&rpq::lower(&path, "E"), store)
        .expect("lowered evaluation")
}

/// Regular path queries: the NFA product walk against the TriAL\* star
/// lowering on chain, cycle and grid stores. Every unbounded case is
/// evaluated both ways and compared before it is timed; bounded cases
/// (`max_hops`) run NFA-only, since the lowering evaluates full fixpoints
/// and cannot express a hop budget.
pub fn e15_rpq_strategies(sizes: RpqSizes) -> Report {
    let mut body = String::new();
    let workloads: [(Triplestore, Vec<PathCase>); 3] = [
        (
            labeled_chain_store(sizes.chain, &["a", "b"]),
            chain_path_suite(),
        ),
        (
            labeled_cycle_store(sizes.cycle, &["next"]),
            cycle_path_suite(),
        ),
        (grid_store(sizes.grid), grid_path_suite()),
    ];
    let _ = writeln!(
        body,
        "Sizes: chain {}, cycle {}, grid {}×{}; median of {SAMPLES} samples, each the mean \
         per call over at least {SAMPLE_MIN_MS} ms of back-to-back calls.\n",
        sizes.chain, sizes.cycle, sizes.grid, sizes.grid
    );
    let _ = writeln!(
        body,
        "| case | path | \\|T\\| | rows | nfa ms | lower ms | faster | agree |"
    );
    let _ = writeln!(body, "|---|---|---|---|---|---|---|---|");
    for (store, suite) in &workloads {
        for case in suite {
            let nfa = nfa_eval(store, case);
            let agree = case
                .max_hops
                .is_none()
                .then(|| lowered_eval(store, case) == nfa);
            let nfa_ms = median_ms(|| {
                nfa_eval(store, case);
            });
            let (lower_ms, faster, agree) = if let Some(agree) = agree {
                let lower_ms = median_ms(|| {
                    lowered_eval(store, case);
                });
                (
                    format!("{lower_ms:.3}"),
                    faster(nfa_ms, lower_ms),
                    agree.to_string(),
                )
            } else {
                ("—".to_owned(), "—", "— (bounded)".to_owned())
            };
            let hops = case
                .max_hops
                .map_or_else(String::new, |h| format!(" ≤{h} hops"));
            let _ = writeln!(
                body,
                "| {} | `{}`{hops} | {} | {} | {nfa_ms:.3} | {lower_ms} | {faster} | {agree} |",
                case.name,
                case.path.replace('|', "\\|"),
                store.triple_count(),
                nfa.len(),
            );
        }
    }
    let _ = writeln!(
        body,
        "\nExpected (Thm. 7): both strategies return the same pairs on every unbounded case. \
         `faster` reads `tie` when the two medians are within {:.0} % of each other.",
        TIE_FRACTION * 100.0
    );
    Report {
        id: "e15",
        title: "Regular path queries: NFA product walk vs. TriAL* lowering (Theorem 7)",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::faster;

    #[test]
    fn medians_within_ten_percent_are_a_tie() {
        assert_eq!(faster(1.00, 1.05), "tie");
        assert_eq!(faster(1.05, 1.00), "tie");
        assert_eq!(faster(0.90, 1.00), "tie");
        assert_eq!(faster(0.89, 1.00), "nfa");
        assert_eq!(faster(1.00, 0.89), "lower");
        assert_eq!(faster(0.0, 0.0), "tie");
    }
}
