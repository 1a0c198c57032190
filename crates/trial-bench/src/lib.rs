//! # trial-bench
//!
//! The experiment harness reproducing the checkable claims of
//! *"TriAL for RDF"* (PODS 2013). The paper is a theory paper — its
//! "evaluation" consists of worked examples, inexpressibility separations and
//! complexity theorems — so each experiment here regenerates one of those
//! claims as a table: either an exact answer-set check or a measured scaling
//! curve whose *shape* (growth exponent, which engine wins) is the paper's
//! prediction.
//!
//! Run `cargo run -p trial-bench --bin tables --release -- all` to print
//! every table, or pass experiment ids (`e1` … `e15`). The tables are the
//! record: nothing else in the workspace measures the paper's claims.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod logic_experiments;
pub mod strategy_experiments;

pub use logic_experiments::{e11_logic_translations, e12_register_automata, e13_nsparql_axes};
pub use strategy_experiments::{e14_datalog_vs_algebra, e15_rpq_strategies, RpqSizes};

use std::fmt::Write as _;
use std::time::Instant;
use trial_core::builder::queries;
use trial_core::fragment;
use trial_core::{Conditions, Expr, Pos, Result, Triplestore};
use trial_eval::seminaive::semi_naive_star;
use trial_eval::{Engine, EvalOptions, Evaluation, NaiveEngine, SmartEngine};
use trial_graph::gxpath::{evaluate_path, NodeExpr, PathExpr};
use trial_graph::nre::{evaluate_nre, Nre};
use trial_graph::rpq::evaluate_rpq;
use trial_graph::sigma::{sigma_encode, SIGMA_EDGE, SIGMA_NEXT, SIGMA_NODE};
use trial_graph::{graph_to_triplestore, nre_to_trial, path_to_trial, regex_to_trial, Regex};
use trial_workloads::{
    chain_store, figure1_store, random_graph, random_store, transport_network, RandomStoreConfig,
    TransportConfig,
};

/// The generic semi-naive fixpoint as an [`Engine`] — the middle arm of the
/// Theorem 3 vs Proposition 5 comparisons. The [`SmartEngine`] routes a
/// reachTA⁼ star to the Proposition 5 procedures, so this arm evaluates the
/// query's top-level star itself, calling [`semi_naive_star`] on the star's
/// own `(output, cond, direction)` over its input's result.
#[derive(Debug, Clone, Copy, Default)]
pub struct SemiNaiveStar;

impl Engine for SemiNaiveStar {
    fn name(&self) -> &'static str {
        "semi-naive (generic delta fixpoint on the top-level star)"
    }

    fn evaluate(&self, expr: &Expr, store: &Triplestore) -> Result<Evaluation> {
        let Expr::Star {
            input,
            output,
            cond,
            direction,
        } = expr
        else {
            return SmartEngine::new().evaluate(expr, store);
        };
        let Evaluation {
            result: base,
            mut stats,
        } = SmartEngine::new().evaluate(input, store)?;
        let options = EvalOptions::default();
        let result = semi_naive_star(&base, output, cond, *direction, store, &options, &mut stats)?;
        Ok(Evaluation { result, stats })
    }
}

/// A rendered experiment: an id, a title and a preformatted table.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id, e.g. `e3`.
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// The preformatted table / findings.
    pub body: String,
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "## {} — {}\n", self.id.to_uppercase(), self.title)?;
        writeln!(f, "{}", self.body)
    }
}

pub(crate) fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// All experiment ids in order.
pub const ALL_EXPERIMENTS: [&str; 15] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
];

/// Runs one experiment by id.
pub fn run_experiment(id: &str) -> Option<Report> {
    match id {
        "e1" => Some(e1_sigma_inexpressibility()),
        "e2" => Some(e2_worked_examples()),
        "e3" => Some(e3_theorem3_scaling()),
        "e4" => Some(e4_trial_eq_scaling()),
        "e5" => Some(e5_reachta_scaling()),
        "e6" => Some(e6_data_complexity()),
        "e7" => Some(e7_expressiveness_separations()),
        "e8" => Some(e8_graph_language_translations()),
        "e9" => Some(e9_use_cases()),
        "e10" => Some(e10_recursion_ablation()),
        "e11" => Some(e11_logic_translations()),
        "e12" => Some(e12_register_automata()),
        "e13" => Some(e13_nsparql_axes()),
        "e14" => Some(e14_datalog_vs_algebra(&[1, 2, 4])),
        "e15" => Some(e15_rpq_strategies(RpqSizes {
            chain: 200,
            cycle: 64,
            grid: 12,
        })),
        _ => None,
    }
}

/// Proposition 1 / Theorem 1: the query `Q` distinguishes two RDF documents
/// whose σ-encodings coincide, hence no NRE over σ(·) (and no nSPARQL
/// navigation) expresses `Q`.
pub fn e1_sigma_inexpressibility() -> Report {
    let shared = [
        ("StAndrews", "BusOp1", "Edinburgh"),
        ("Edinburgh", "TrainOp3", "London"),
        ("Edinburgh", "TrainOp1", "Manchester"),
        ("Newcastle", "TrainOp1", "London"),
        ("London", "TrainOp2", "Brussels"),
        ("BusOp1", "part_of", "NatExpress"),
        ("TrainOp1", "part_of", "EastCoast"),
        ("TrainOp2", "part_of", "Eurostar"),
        ("EastCoast", "part_of", "NatExpress"),
    ];
    let build = |extra: bool| {
        let mut b = trial_core::TriplestoreBuilder::new();
        for (s, p, o) in shared {
            b.add_triple("E", s, p, o);
        }
        if extra {
            b.add_triple("E", "Edinburgh", "TrainOp1", "London");
        }
        b.finish()
    };
    let d1 = build(true);
    let d2 = build(false);
    let g1 = sigma_encode(&d1, "E");
    let g2 = sigma_encode(&d2, "E");
    let edge_set = |g: &trial_graph::GraphDb| -> std::collections::BTreeSet<String> {
        g.edges()
            .map(|e| {
                format!(
                    "{} {} {}",
                    g.node_name(e.source),
                    e.label,
                    g.node_name(e.target)
                )
            })
            .collect()
    };
    let sigma_equal = edge_set(&g1) == edge_set(&g2);
    let q = queries::same_company_reachability("E");
    let engine = SmartEngine::new();
    let pairs = |store: &Triplestore| -> std::collections::BTreeSet<(String, String)> {
        engine
            .run(&q, store)
            .unwrap()
            .iter()
            .map(|t| {
                (
                    store.object_name(t.s()).to_owned(),
                    store.object_name(t.o()).to_owned(),
                )
            })
            .collect()
    };
    let q1 = pairs(&d1);
    let q2 = pairs(&d2);
    let witness = ("StAndrews".to_owned(), "London".to_owned());
    // A representative family of NREs over the σ alphabet all agree on the
    // two encodings (they must: the encodings are equal as graphs).
    let nres = [
        Nre::label(SIGMA_NEXT).plus(),
        Nre::label(SIGMA_EDGE).then(Nre::label(SIGMA_NODE)).plus(),
        Nre::label(SIGMA_EDGE)
            .then(Nre::label(SIGMA_NEXT).star().test())
            .then(Nre::label(SIGMA_NODE))
            .star(),
    ];
    let mut nre_agree = true;
    for nre in &nres {
        let r1 = evaluate_nre(&g1, nre).len();
        let r2 = evaluate_nre(&g2, nre).len();
        nre_agree &= r1 == r2;
    }
    let mut body = String::new();
    let _ = writeln!(body, "| check | value |");
    let _ = writeln!(body, "|---|---|");
    let _ = writeln!(
        body,
        "| D1 triples / D2 triples | {} / {} |",
        d1.triple_count(),
        d2.triple_count()
    );
    let _ = writeln!(body, "| σ(D1) = σ(D2) (same edge set) | {sigma_equal} |");
    let _ = writeln!(
        body,
        "| (StAndrews, London) ∈ Q(D1) | {} |",
        q1.contains(&witness)
    );
    let _ = writeln!(
        body,
        "| (StAndrews, London) ∈ Q(D2) | {} |",
        q2.contains(&witness)
    );
    let _ = writeln!(body, "| Q(D1) = Q(D2) | {} |", q1 == q2);
    let _ = writeln!(body, "| sample NREs agree on σ(D1), σ(D2) | {nre_agree} |");
    let _ = writeln!(
        body,
        "\nConclusion (matches Prop. 1 / Thm. 1): σ(D1) = σ(D2), so every NRE/nSPARQL \
         navigation answers identically on D1 and D2, yet TriAL*'s Q separates them."
    );
    Report {
        id: "e1",
        title: "Q is not expressible over the σ(·) graph encoding (Prop. 1 / Thm. 1)",
        body,
    }
}

/// Examples 2–4: the worked query results on the Figure 1 database.
pub fn e2_worked_examples() -> Report {
    let store = figure1_store();
    let engine = SmartEngine::new();
    let mut body = String::new();
    let show = |body: &mut String, label: &str, expr: &Expr| {
        let result = engine.run(expr, &store).unwrap();
        let _ = writeln!(body, "**{label}** `{expr}`");
        for line in store.display_triples(&result) {
            let _ = writeln!(body, "  - {line}");
        }
        let _ = writeln!(body);
    };
    show(&mut body, "Example 2", &queries::example2("E"));
    show(
        &mut body,
        "Example 2 (extended)",
        &queries::example2_extended("E"),
    );
    show(
        &mut body,
        "Reach→ (Example 4)",
        &queries::reach_forward("E"),
    );
    show(
        &mut body,
        "Query Q (Theorem 1 / Example 4)",
        &queries::same_company_reachability("E"),
    );
    Report {
        id: "e2",
        title: "Worked examples on the Figure 1 database (Examples 2–4)",
        body,
    }
}

fn scaling_row(
    body: &mut String,
    label: &str,
    store: &Triplestore,
    expr: &Expr,
    engine: &dyn Engine,
) {
    let start = Instant::now();
    let eval = engine.evaluate(expr, store).unwrap();
    let _ = writeln!(
        body,
        "| {label} | {} | {} | {} | {:.2} |",
        store.triple_count(),
        eval.stats.work(),
        eval.result.len(),
        ms(start)
    );
}

/// Theorem 3: the naive engine's work grows ≈|T|² for joins and ≈|T|³ in the
/// worst case for stars; the table reports the measured work counters.
pub fn e3_theorem3_scaling() -> Report {
    let mut body = String::new();
    let naive = NaiveEngine::new();
    let _ = writeln!(body, "| workload | \\|T\\| | work (pairs) | out | ms |");
    let _ = writeln!(body, "|---|---|---|---|---|");
    let join = queries::example2("E");
    for triples in [100usize, 200, 400, 800] {
        let store = random_store(&RandomStoreConfig {
            objects: triples / 2,
            triples,
            distinct_values: 5,
            seed: 9,
        });
        scaling_row(&mut body, "join (TriAL)", &store, &join, &naive);
    }
    let star = queries::reach_forward("E");
    for len in [25usize, 50, 100, 200] {
        let store = chain_store(len);
        scaling_row(&mut body, "star (TriAL*) on a chain", &store, &star, &naive);
    }
    let _ = writeln!(
        body,
        "\nExpected shape (Thm. 3): doubling |T| roughly quadruples the join work and \
         roughly ×8 the chain-star work of the naive engine."
    );
    Report {
        id: "e3",
        title: "Naive-engine scaling (Theorem 3: O(|e|·|T|²) joins, O(|e|·|T|³) stars)",
        body,
    }
}

/// The e4 ladder as `(|O|, triples drawn)` for `random_store` with seed 4
/// and 5 distinct values (duplicates merge, so |T| is a little lower):
/// four sparse rungs (|O| = |T|/2, where |O|·|T| and |T|² coincide up to a
/// factor) and two dense ones (|O| = 20 and 50, |T| = 1 606 and 25 329),
/// where Proposition 4's bound is far below |T|².
pub const E4_LADDER: [(usize, usize); 6] = [
    (100, 200),
    (200, 400),
    (400, 800),
    (800, 1600),
    (20, 1788),
    (50, 28320),
];

/// The naive Theorem 3 engine runs only on stores up to this many triples.
const E4_NAIVE_MAX_TRIPLES: usize = 2000;

/// One e4 measurement: a TriAL⁼ join on one rung.
#[derive(Debug, Clone)]
pub struct E4Row {
    /// `|O|`, the store's object count.
    pub objects: usize,
    /// `|T|`, the store's triple count.
    pub triples: usize,
    /// Which join.
    pub query: &'static str,
    /// The naive engine's work and time, where it ran.
    pub naive: Option<(u64, f64)>,
    /// The planned engine's work.
    pub smart_work: u64,
    /// The planned engine's time in ms.
    pub smart_ms: f64,
}

impl E4Row {
    /// The planned engine's work over Proposition 4's `|O|·|T|`.
    pub fn ratio(&self) -> f64 {
        self.smart_work as f64 / (self.objects * self.triples) as f64
    }
}

/// Runs the two e4 joins on each rung: the object-equality join
/// `E JOIN[1,2,3' | 3=1'] E` and Example 2, `E JOIN[1,3',3 | 2=1'] E`.
pub fn e4_rows(rungs: &[(usize, usize)]) -> Vec<E4Row> {
    let object_join = Expr::rel("E").join(
        Expr::rel("E"),
        trial_core::output(Pos::L1, Pos::L2, Pos::R3),
        Conditions::new().obj_eq(Pos::L3, Pos::R1),
    );
    let joins = [
        ("object join [1,2,3' : 3=1']", object_join),
        ("Example 2 [1,3',3 : 2=1']", queries::example2("E")),
    ];
    let mut rows = Vec::new();
    for &(objects, triples) in rungs {
        let store = random_store(&RandomStoreConfig {
            objects,
            triples,
            distinct_values: 5,
            seed: 4,
        });
        for (query, join) in &joins {
            let naive = (store.triple_count() <= E4_NAIVE_MAX_TRIPLES).then(|| {
                let t0 = Instant::now();
                let n = NaiveEngine::new().evaluate(join, &store).unwrap();
                (n, ms(t0))
            });
            let t1 = Instant::now();
            let s = SmartEngine::new().evaluate(join, &store).unwrap();
            let smart_ms = ms(t1);
            if let Some((n, _)) = &naive {
                assert_eq!(n.result, s.result, "engines disagree on {join}");
            }
            rows.push(E4Row {
                objects: store.object_count(),
                triples: store.triple_count(),
                query,
                naive: naive.map(|(n, t)| (n.stats.work(), t)),
                smart_work: s.stats.work(),
                smart_ms,
            });
        }
    }
    rows
}

/// Proposition 4: equality-only joins run in O(|O|·|T|), not |T|².
pub fn e4_trial_eq_scaling() -> Report {
    let mut body = String::new();
    let _ = writeln!(
        body,
        "| \\|O\\| | \\|T\\| | query | naive work | smart work | \\|O\\|·\\|T\\| | \
         work/(\\|O\\|·\\|T\\|) | naive ms | smart ms |"
    );
    let _ = writeln!(body, "|---|---|---|---|---|---|---|---|---|");
    for row in e4_rows(&E4_LADDER) {
        let (naive_work, naive_ms) = match row.naive {
            Some((work, t)) => (work.to_string(), format!("{t:.2}")),
            None => ("—".to_owned(), "—".to_owned()),
        };
        let _ = writeln!(
            body,
            "| {} | {} | {} | {naive_work} | {} | {} | {:.2} | {naive_ms} | {:.2} |",
            row.objects,
            row.triples,
            row.query,
            row.smart_work,
            row.objects * row.triples,
            row.ratio(),
            row.smart_ms
        );
    }
    let _ = writeln!(
        body,
        "\nExpected shape (Prop. 4 / fragment {}): both joins are in TriAL⁼, so the planned \
         engine's work stays within a small constant of |O|·|T| on every rung, dense ones \
         included, while the naive engine grows as |T|². Each side is read only through the \
         positions the join uses, so a row meets at most |O| distinct partners.",
        fragment::classify(&queries::example2("E"))
    );
    Report {
        id: "e4",
        title: "TriAL⁼ joins within |O|·|T| (Proposition 4)",
        body,
    }
}

/// Proposition 5: the specialised reachability procedures scale ≈|O|·|T| on
/// reachTA⁼ stars, far below the generic fixpoints.
pub fn e5_reachta_scaling() -> Report {
    let mut body = String::new();
    let reach = queries::reach_forward("E");
    let _ = writeln!(
        body,
        "| chain length | engine | work | fixpoint rounds | ms |"
    );
    let _ = writeln!(body, "|---|---|---|---|---|");
    for len in [50usize, 100, 200, 400] {
        let store = chain_store(len);
        let engines: Vec<(&str, Box<dyn Engine>)> = vec![
            ("naive (Thm 3)", Box::new(NaiveEngine::new())),
            ("semi-naive", Box::new(SemiNaiveStar)),
            ("Prop. 5 reachability", Box::new(SmartEngine::new())),
        ];
        for (name, engine) in engines {
            let t0 = Instant::now();
            let eval = engine.evaluate(&reach, &store).unwrap();
            let _ = writeln!(
                body,
                "| {len} | {name} | {} | {} | {:.2} |",
                eval.stats.work(),
                eval.stats.fixpoint_rounds,
                ms(t0)
            );
        }
    }
    let _ = writeln!(
        body,
        "\nExpected shape (Prop. 5): the reachability procedures' work grows ~linearly with the \
         chain length (per output triple), the generic fixpoints polynomially; the naive engine \
         is the slowest by a widening margin."
    );
    Report {
        id: "e5",
        title: "reachTA⁼ stars: Proposition 5 procedures vs. generic fixpoints",
        body,
    }
}

/// Proposition 3: data complexity — a fixed query over growing data.
pub fn e6_data_complexity() -> Report {
    let mut body = String::new();
    let smart = SmartEngine::new();
    let q = queries::same_company_reachability("E");
    let _ = writeln!(
        body,
        "| cities | services | \\|T\\| | answers | work | ms |"
    );
    let _ = writeln!(body, "|---|---|---|---|---|---|");
    for scale in [1usize, 2, 4, 8] {
        let store = transport_network(&TransportConfig {
            cities: 20 * scale,
            operators: 4 * scale,
            companies: 3,
            services: 60 * scale,
            ownership_depth: 2,
            seed: 13,
        });
        let t0 = Instant::now();
        let eval = smart.evaluate(&q, &store).unwrap();
        let _ = writeln!(
            body,
            "| {} | {} | {} | {} | {} | {:.2} |",
            20 * scale,
            60 * scale,
            store.triple_count(),
            eval.result.len(),
            eval.stats.work(),
            ms(t0)
        );
    }
    let _ = writeln!(
        body,
        "\nExpected shape (Prop. 3): for the fixed query Q the work grows polynomially \
         (low-degree) in |T|; no exponential blow-up appears as the data grows."
    );
    Report {
        id: "e6",
        title: "Data complexity of a fixed TriAL* query (Proposition 3)",
        body,
    }
}

/// Theorems 4/5: the separating queries of the expressiveness results,
/// evaluated on the structures from the proofs.
pub fn e7_expressiveness_separations() -> Report {
    let mut body = String::new();
    let engine = SmartEngine::new();
    // T_k = complete ternary relation over k objects (proof of Thm 4).
    let complete = |k: usize| -> Triplestore {
        let mut b = trial_core::TriplestoreBuilder::new();
        let names: Vec<String> = (0..k).map(|i| format!("a{i}")).collect();
        for s in &names {
            for p in &names {
                for o in &names {
                    b.add_triple("E", s, p, o);
                }
            }
        }
        b.finish()
    };
    let four = queries::at_least_four_objects();
    let six = queries::at_least_six_objects();
    let _ = writeln!(body, "| structure | ≥4-objects query | ≥6-objects query |");
    let _ = writeln!(body, "|---|---|---|");
    for k in [3usize, 4, 5, 6] {
        let store = complete(k);
        let r4 = !engine.run(&four, &store).unwrap().is_empty();
        let r6 = !engine.run(&six, &store).unwrap().is_empty();
        let _ = writeln!(body, "| T{k} (complete, {k} objects) | {r4} | {r6} |");
    }
    let _ = writeln!(
        body,
        "\nExpected (Thm. 4 proof): the ≥4 query separates T3 from T4 (structures \
         indistinguishable in L³∞ω), the ≥6 query separates T5 from T6 (indistinguishable in \
         L⁵∞ω) — witnessing that TriAL is not contained in FO⁴/FO⁵ and that the separating \
         power comes from inequality joins ({} vs {}).",
        fragment::classify(&four),
        fragment::classify(&queries::example2("E"))
    );
    // Fragment classification table.
    let _ = writeln!(body, "\n| query | fragment | paper bound |");
    let _ = writeln!(body, "|---|---|---|");
    for (name, expr) in [
        ("Example 2 join", queries::example2("E")),
        ("Reach→", queries::reach_forward("E")),
        ("Reach with same label", queries::reach_same_label("E")),
        ("Query Q", queries::same_company_reachability("E")),
        ("≥6 objects", queries::at_least_six_objects()),
    ] {
        let f = fragment::classify(&expr);
        let _ = writeln!(body, "| {name} | {f} | {} |", f.paper_bound());
    }
    Report {
        id: "e7",
        title: "Expressiveness separations and fragment classification (Theorems 4/5)",
        body,
    }
}

/// Theorem 7 / Corollaries 2 and 4: graph-language queries agree with their
/// TriAL* translations on random graphs.
pub fn e8_graph_language_translations() -> Report {
    let mut body = String::new();
    let _ = writeln!(body, "| language | queries checked | graphs | all agree |");
    let _ = writeln!(body, "|---|---|---|---|");
    let graphs: Vec<_> = (0..3).map(|seed| random_graph(12, 40, 3, seed)).collect();
    let engine = SmartEngine::new();
    // RPQs.
    let rpqs = vec![
        Regex::label("l0"),
        Regex::label("l0").then(Regex::label("l1")),
        Regex::label("l0").or(Regex::label("l2")).star(),
        Regex::label("l1").plus(),
    ];
    let mut rpq_ok = true;
    for g in &graphs {
        let store = graph_to_triplestore(g);
        for re in &rpqs {
            let native: std::collections::BTreeSet<_> = evaluate_rpq(g, re)
                .into_iter()
                .map(|(a, b)| (g.node_name(a).to_owned(), g.node_name(b).to_owned()))
                .collect();
            let translated: std::collections::BTreeSet<_> = engine
                .run(&regex_to_trial(re), &store)
                .unwrap()
                .iter()
                .map(|t| {
                    (
                        store.object_name(t.s()).to_owned(),
                        store.object_name(t.o()).to_owned(),
                    )
                })
                .collect();
            rpq_ok &= native == translated;
        }
    }
    let _ = writeln!(
        body,
        "| RPQ | {} | {} | {rpq_ok} |",
        rpqs.len(),
        graphs.len()
    );
    // NREs.
    let nres = vec![
        Nre::label("l0").then(Nre::label("l1").test()),
        Nre::label("l0").star().then(Nre::inverse("l1")),
        Nre::label("l2").plus(),
    ];
    let mut nre_ok = true;
    for g in &graphs {
        let store = graph_to_triplestore(g);
        for e in &nres {
            let native: std::collections::BTreeSet<_> = evaluate_nre(g, e)
                .into_iter()
                .map(|(a, b)| (g.node_name(a).to_owned(), g.node_name(b).to_owned()))
                .collect();
            let translated: std::collections::BTreeSet<_> = engine
                .run(&nre_to_trial(e), &store)
                .unwrap()
                .iter()
                .map(|t| {
                    (
                        store.object_name(t.s()).to_owned(),
                        store.object_name(t.o()).to_owned(),
                    )
                })
                .collect();
            nre_ok &= native == translated;
        }
    }
    let _ = writeln!(
        body,
        "| NRE | {} | {} | {nre_ok} |",
        nres.len(),
        graphs.len()
    );
    // GXPath (including data comparisons and complement).
    let paths = vec![
        PathExpr::label("l0").complement(),
        PathExpr::label("l0").then(PathExpr::test(
            NodeExpr::exists(PathExpr::label("l1")).not(),
        )),
        PathExpr::label("l0").or(PathExpr::label("l1")).star(),
        PathExpr::label("l0").then(PathExpr::label("l1")).data_eq(),
    ];
    let mut gx_ok = true;
    for g in &graphs {
        let store = graph_to_triplestore(g);
        for alpha in &paths {
            let native: std::collections::BTreeSet<_> = evaluate_path(g, alpha)
                .into_iter()
                .map(|(a, b)| (g.node_name(a).to_owned(), g.node_name(b).to_owned()))
                .collect();
            let translated: std::collections::BTreeSet<_> = engine
                .run(&path_to_trial(alpha), &store)
                .unwrap()
                .iter()
                .map(|t| {
                    (
                        store.object_name(t.s()).to_owned(),
                        store.object_name(t.o()).to_owned(),
                    )
                })
                .collect();
            gx_ok &= native == translated;
        }
    }
    let _ = writeln!(
        body,
        "| GXPath(∼) | {} | {} | {gx_ok} |",
        paths.len(),
        graphs.len()
    );
    let _ = writeln!(
        body,
        "\nExpected (Thm. 7, Cor. 2, Cor. 4): every graph-language query equals the π₁,₃ \
         projection of its TriAL* translation over the triplestore encoding T_G."
    );
    Report {
        id: "e8",
        title: "Graph query languages embed into TriAL* (Theorem 7, Corollaries 2/4)",
        body,
    }
}

/// The two application scenarios of the paper: the transport network (query
/// Q) and the social network of Section 2.3.
pub fn e9_use_cases() -> Report {
    let mut body = String::new();
    // Transport use case at a moderate size.
    let store = transport_network(&TransportConfig {
        cities: 40,
        operators: 8,
        companies: 3,
        services: 120,
        ownership_depth: 3,
        seed: 21,
    });
    let q = queries::same_company_reachability("E");
    let engine = SmartEngine::new();
    let t0 = Instant::now();
    let eval = engine.evaluate(&q, &store).unwrap();
    let city_pairs = eval
        .result
        .iter()
        .filter(|t| {
            store.object_name(t.s()).starts_with("city")
                && store.object_name(t.o()).starts_with("city")
        })
        .count();
    let _ = writeln!(body, "| use case | \\|T\\| | answers | city pairs | ms |");
    let _ = writeln!(body, "|---|---|---|---|---|");
    let _ = writeln!(
        body,
        "| transport / query Q | {} | {} | {} | {:.2} |",
        store.triple_count(),
        eval.result.len(),
        city_pairs,
        ms(t0)
    );
    // Social-network use case: friends-of-friends established in the same year
    // (a data-value join on the connection objects).
    let social = trial_workloads::social::social_network(&trial_workloads::SocialConfig {
        users: 60,
        connections: 200,
        seed: 5,
    });
    // (x, c, y) ✶ (y, c', z) with ρ(c) = ρ(c') on the 5th component is not
    // directly expressible (ρ compares whole tuples), so the example uses
    // full-tuple equality: connections created the same instant with the same
    // type.
    let fof = Expr::rel("E").join(
        Expr::rel("E"),
        trial_core::output(Pos::L1, Pos::L2, Pos::R3),
        Conditions::new()
            .obj_eq(Pos::L3, Pos::R1)
            .data_eq(Pos::L2, Pos::R2),
    );
    let t1 = Instant::now();
    let eval = engine.evaluate(&fof, &social).unwrap();
    let _ = writeln!(
        body,
        "| social / same-kind friend-of-friend | {} | {} | — | {:.2} |",
        social.triple_count(),
        eval.result.len(),
        ms(t1)
    );
    Report {
        id: "e9",
        title: "Application scenarios: transport (query Q) and the §2.3 social network",
        body,
    }
}

/// Section 7 future work: how should the recursion be implemented? Ablation
/// of the three strategies on the same workloads.
pub fn e10_recursion_ablation() -> Report {
    let mut body = String::new();
    let _ = writeln!(body, "| workload | query | engine | work | ms |");
    let _ = writeln!(body, "|---|---|---|---|---|");
    let workloads: Vec<(&str, Triplestore, Expr)> = vec![
        ("chain(300)", chain_store(300), queries::reach_forward("E")),
        (
            "transport(×4)",
            transport_network(&TransportConfig {
                cities: 80,
                operators: 16,
                companies: 4,
                services: 240,
                ownership_depth: 2,
                seed: 2,
            }),
            queries::same_company_reachability("E"),
        ),
        (
            "random(600)",
            random_store(&RandomStoreConfig {
                objects: 200,
                triples: 600,
                distinct_values: 6,
                seed: 6,
            }),
            queries::reach_same_label("E"),
        ),
    ];
    for (wname, store, query) in &workloads {
        let engines: Vec<(&str, Box<dyn Engine>)> = vec![
            ("naive (Thm 3)", Box::new(NaiveEngine::new())),
            ("semi-naive", Box::new(SemiNaiveStar)),
            ("smart (+Prop. 5)", Box::new(SmartEngine::new())),
        ];
        let mut reference: Option<trial_core::TripleSet> = None;
        for (ename, engine) in engines {
            let t0 = Instant::now();
            let eval = engine.evaluate(query, store).unwrap();
            match &reference {
                None => reference = Some(eval.result.clone()),
                Some(r) => assert_eq!(r, &eval.result, "engines disagree on {wname}"),
            }
            let _ = writeln!(
                body,
                "| {wname} | {} | {ename} | {} | {:.2} |",
                fragment::classify(query),
                eval.stats.work(),
                ms(t0)
            );
        }
    }
    let _ = writeln!(
        body,
        "\nExpected shape (§7): semi-naive evaluation dominates the naive fixpoint everywhere; \
         the Proposition 5 procedures win additionally whenever the star is a reachability star \
         (reachTA⁼), answering the paper's question of whether the required recursion is \
         efficiently implementable."
    );
    Report {
        id: "e10",
        title: "Recursion-strategy ablation (Section 7 future work)",
        body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The experiments cheap enough to run under the debug profile in unit
    /// tests. The scaling experiments (e3–e6, e10) deliberately run the slow
    /// Theorem-3 baseline on sizeable inputs and are exercised by the
    /// `tables` binary in release mode instead (plus the ignored test below).
    /// e14 and e15 run in `cheap_experiments_run` at small sizes.
    const CHEAP_EXPERIMENTS: [&str; 5] = ["e1", "e2", "e7", "e8", "e9"];

    /// Asserts that no row of an e14/e15 table reports a disagreement: both
    /// tables compare the two strategies' answers before timing them.
    fn assert_strategies_agree(report: &Report) {
        let rows: Vec<&str> = report
            .body
            .lines()
            .filter(|l| {
                l.starts_with("| ") && !l.starts_with("| cities") && !l.starts_with("| case")
            })
            .collect();
        assert!(!rows.is_empty(), "{} printed no rows", report.id);
        for line in rows {
            assert!(
                line.ends_with("| true |") || line.ends_with("| — (bounded) |"),
                "{} strategies disagree: {line}",
                report.id
            );
        }
    }

    #[test]
    fn cheap_experiments_run() {
        for id in CHEAP_EXPERIMENTS {
            let report = run_experiment(id).unwrap();
            assert_eq!(report.id, id);
            assert!(!report.body.is_empty());
            assert!(!report.to_string().is_empty());
        }
        let small = [
            ("e14", e14_datalog_vs_algebra(&[1])),
            (
                "e15",
                e15_rpq_strategies(RpqSizes {
                    chain: 24,
                    cycle: 12,
                    grid: 5,
                }),
            ),
        ];
        for (id, report) in small {
            assert!(ALL_EXPERIMENTS.contains(&id));
            assert_eq!(report.id, id);
            assert_strategies_agree(&report);
        }
        assert!(run_experiment("nope").is_none());
        assert!(ALL_EXPERIMENTS.len() >= CHEAP_EXPERIMENTS.len());
    }

    /// Full sweep of every experiment; run with `cargo test -p trial-bench
    /// --release -- --ignored` (minutes of runtime on the naive baselines).
    #[test]
    #[ignore = "runs the slow Theorem-3 baselines; use the release-mode tables binary"]
    fn every_experiment_runs() {
        for id in ALL_EXPERIMENTS {
            let report = run_experiment(id).unwrap();
            assert_eq!(report.id, id);
            assert!(!report.body.is_empty());
        }
    }

    /// Proposition 4 on the dense |O| = 20 rung: both joins stay within
    /// twice |O|·|T|.
    #[test]
    fn e4_dense_joins_stay_within_prop4() {
        let rows = e4_rows(&E4_LADDER[4..5]);
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert_eq!(row.objects, 20);
            assert!(
                row.ratio() <= 2.0,
                "{} does {:.2}× |O|·|T|",
                row.query,
                row.ratio()
            );
        }
    }

    #[test]
    fn e1_confirms_the_separation() {
        let report = e1_sigma_inexpressibility();
        assert!(report
            .body
            .contains("| σ(D1) = σ(D2) (same edge set) | true |"));
        assert!(report
            .body
            .contains("| (StAndrews, London) ∈ Q(D1) | true |"));
        assert!(report
            .body
            .contains("| (StAndrews, London) ∈ Q(D2) | false |"));
    }

    #[test]
    fn e7_separates_the_proof_structures() {
        let report = e7_expressiveness_separations();
        assert!(report
            .body
            .contains("| T3 (complete, 3 objects) | false | false |"));
        assert!(report
            .body
            .contains("| T4 (complete, 4 objects) | true | false |"));
        assert!(report
            .body
            .contains("| T6 (complete, 6 objects) | true | true |"));
    }

    #[test]
    fn e8_translations_agree() {
        let report = e8_graph_language_translations();
        for line in report.body.lines().filter(|l| l.starts_with("| ")) {
            assert!(!line.contains("false"), "translation mismatch: {line}");
        }
    }
}
