//! Cross-engine agreement: the Theorem-3 naive engine and the planned
//! engine (semi-naive fixpoints, Proposition 5 reachability) must compute
//! identical answers on every expression and workload. That the generic
//! semi-naive fixpoint and the Proposition 5 procedures agree with each
//! other on reachability stars is held by `trial-eval`'s in-crate walk
//! properties (`exec::tests`).

use trial_core::builder::{queries, ExprBuilderExt};
use trial_core::{Conditions, Expr, Pos};
use trial_eval::{Engine, NaiveEngine, SmartEngine};
use trial_workloads::{
    chain_store, cycle_store, figure1_store, grid_store, random_store, social_network,
    transport_network, RandomStoreConfig, SocialConfig, TransportConfig,
};

fn engines() -> Vec<(&'static str, Box<dyn Engine>)> {
    vec![
        ("naive", Box::new(NaiveEngine::new())),
        ("smart", Box::new(SmartEngine::new())),
    ]
}

fn expressions() -> Vec<Expr> {
    vec![
        queries::example2("E"),
        queries::example2_extended("E"),
        queries::reach_forward("E"),
        queries::reach_down("E"),
        queries::reach_same_label("E"),
        queries::same_company_reachability("E"),
        Expr::rel("E").select(Conditions::new().obj_eq_const(Pos::L2, "part_of")),
        Expr::rel("E").minus(queries::example2("E")),
        Expr::rel("E").intersect_via_join(Expr::rel("E")),
        Expr::rel("E")
            .select(Conditions::new().data_eq(Pos::L1, Pos::L3))
            .reach_forward(),
        Expr::rel("E").join(
            Expr::rel("E"),
            trial_core::output(Pos::L1, Pos::R2, Pos::R3),
            Conditions::new()
                .obj_eq(Pos::L3, Pos::R1)
                .obj_neq(Pos::L1, Pos::R3),
        ),
    ]
}

fn stores() -> Vec<(&'static str, trial_core::Triplestore)> {
    vec![
        ("figure1", figure1_store()),
        ("chain(20)", chain_store(20)),
        ("cycle(12)", cycle_store(12)),
        ("grid(4)", grid_store(4)),
        (
            "random",
            random_store(&RandomStoreConfig {
                objects: 40,
                triples: 120,
                distinct_values: 4,
                seed: 77,
            }),
        ),
        (
            "transport",
            transport_network(&TransportConfig {
                cities: 15,
                operators: 5,
                companies: 2,
                services: 40,
                ownership_depth: 2,
                seed: 5,
            }),
        ),
        (
            "social",
            social_network(&SocialConfig {
                users: 20,
                connections: 50,
                seed: 1,
            }),
        ),
    ]
}

#[test]
fn all_engines_agree_on_all_workloads() {
    for (store_name, store) in stores() {
        for expr in expressions() {
            let mut reference = None;
            for (engine_name, engine) in engines() {
                let result = engine
                    .run(&expr, &store)
                    .unwrap_or_else(|e| panic!("{engine_name} failed on {store_name}: {e}"));
                match &reference {
                    None => reference = Some(result),
                    Some(r) => assert_eq!(
                        r, &result,
                        "{engine_name} disagrees on store {store_name}, expr {expr}"
                    ),
                }
            }
        }
    }
}

#[test]
fn stats_reflect_the_strategy_used() {
    let store = chain_store(60);
    let q = queries::reach_forward("E");
    let naive = NaiveEngine::new().evaluate(&q, &store).unwrap();
    let smart = SmartEngine::new().evaluate(&q, &store).unwrap();
    // The specialised engine does strictly less work on a reachability star.
    assert!(smart.stats.work() < naive.stats.work());
    assert!(smart.stats.reach_edges_traversed > 0);
    assert_eq!(naive.stats.reach_edges_traversed, 0);
}

#[test]
fn results_compose_through_materialisation() {
    // The algebra is compositional: materialising an intermediate result as a
    // new relation and continuing the query gives the same answer as the
    // nested expression.
    let store = figure1_store();
    let inner = Expr::rel("E").lift_middle();
    let inner_result = SmartEngine::new().run(&inner, &store).unwrap();
    let staged_store = store.with_relation("Lifted", inner_result);
    let outer_staged = Expr::rel("Lifted").right_star(
        trial_core::output(Pos::L1, Pos::L2, Pos::R3),
        Conditions::new()
            .obj_eq(Pos::L3, Pos::R1)
            .obj_eq(Pos::L2, Pos::R2),
    );
    let staged = SmartEngine::new()
        .run(&outer_staged, &staged_store)
        .unwrap();
    let nested = SmartEngine::new()
        .run(&queries::same_company_reachability("E"), &store)
        .unwrap();
    assert_eq!(staged, nested);
}
