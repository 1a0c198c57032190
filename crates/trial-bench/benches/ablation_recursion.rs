//! Section 7 future work: ablation of the recursion strategies on the
//! paper's flagship query Q.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use trial_bench::SemiNaiveStar;
use trial_core::builder::queries;
use trial_eval::{Engine, NaiveEngine, SmartEngine};
use trial_workloads::{transport_network, TransportConfig};

fn bench_ablation(c: &mut Criterion) {
    let store = transport_network(&TransportConfig {
        cities: 60,
        operators: 12,
        companies: 4,
        services: 180,
        ownership_depth: 2,
        seed: 2,
    });
    let query = queries::same_company_reachability("E");
    let naive = NaiveEngine::new();
    let seminaive = SemiNaiveStar;
    let smart = SmartEngine::new();
    let mut group = c.benchmark_group("ablation_query_q");
    group.sample_size(10);
    for (name, engine) in [
        ("naive", &naive as &dyn Engine),
        ("seminaive", &seminaive as &dyn Engine),
        ("smart", &smart as &dyn Engine),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &store, |b, store| {
            b.iter(|| black_box(engine.run(&query, store).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
