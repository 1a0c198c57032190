//! Proposition 5: reachTA⁼ stars — the specialised reachability procedures
//! against the generic fixpoints.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use trial_bench::SemiNaiveStar;
use trial_core::builder::queries;
use trial_eval::{Engine, NaiveEngine, SmartEngine};
use trial_workloads::chain_store;

fn bench_prop5(c: &mut Criterion) {
    let naive = NaiveEngine::new();
    let seminaive = SemiNaiveStar;
    let reach = SmartEngine::new();
    let query = queries::reach_forward("E");
    for (name, engine) in [
        ("naive", &naive as &dyn Engine),
        ("seminaive", &seminaive as &dyn Engine),
        ("prop5_reach", &reach as &dyn Engine),
    ] {
        let mut group = c.benchmark_group(format!("prop5_{name}"));
        group.sample_size(10);
        for len in [25usize, 50, 100] {
            let store = chain_store(len);
            group.bench_with_input(BenchmarkId::from_parameter(len), &store, |b, store| {
                b.iter(|| black_box(engine.run(&query, store).unwrap()))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_prop5);
criterion_main!(benches);
