//! The transport-integration scenario from the paper's introduction, at a
//! realistic scale: which city pairs can be served with a single ticket
//! (i.e. by services that all belong to one company)?
//!
//! Run with `cargo run --example transport_network --release`.

use trial_bench::SemiNaiveStar;
use trial_core::builder::queries;
use trial_core::fragment;
use trial_eval::{Engine, NaiveEngine, SmartEngine};
use trial_workloads::{transport_network, TransportConfig};

fn main() {
    let config = TransportConfig {
        cities: 60,
        operators: 12,
        companies: 4,
        services: 200,
        ownership_depth: 3,
        seed: 2026,
    };
    let store = transport_network(&config);
    println!(
        "Transport network: {} objects, {} triples",
        store.object_count(),
        store.triple_count()
    );

    let q = queries::same_company_reachability("E");
    println!("Query Q: {q}");
    println!(
        "Fragment: {} — paper bound {}",
        fragment::classify(&q),
        fragment::classify(&q).paper_bound()
    );

    // Evaluate with the three strategies and compare their work. Q's outer
    // star is a reachability star, which the smart engine hands to the
    // Proposition 5 procedure; the semi-naive arm runs the generic delta
    // fixpoint on that star instead.
    let engines: Vec<(&str, Box<dyn Engine>)> = vec![
        ("naive (Theorem 3)", Box::new(NaiveEngine::new())),
        ("semi-naive", Box::new(SemiNaiveStar)),
        ("smart (+ Prop. 5)", Box::new(SmartEngine::new())),
    ];
    let mut reference = None;
    for (name, engine) in engines {
        let start = std::time::Instant::now();
        let eval = engine.evaluate(&q, &store).expect("evaluation succeeds");
        let elapsed = start.elapsed();
        match &reference {
            None => reference = Some(eval.result.clone()),
            Some(r) => assert_eq!(r, &eval.result, "engines must agree"),
        }
        println!(
            "  {name:<22} {:>10} answers  {:>12} work units  {:>8.2?}",
            eval.result.len(),
            eval.stats.work(),
            elapsed
        );
    }

    // Show a few reachable city pairs with their companies.
    let result = reference.expect("at least one engine ran");
    println!("\nSample answers (city → city via company):");
    for t in result
        .iter()
        .filter(|t| {
            store.object_name(t.s()).starts_with("city")
                && store.object_name(t.o()).starts_with("city")
        })
        .take(10)
    {
        println!(
            "  {} → {} via {}",
            store.object_name(t.s()),
            store.object_name(t.o()),
            store.object_name(t.p())
        );
    }
}
