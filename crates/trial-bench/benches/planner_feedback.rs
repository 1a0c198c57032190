//! Feedback-driven planning vs. static heuristics on a skewed multi-join.
//!
//! The store is a long `hop` chain (no self-loops) plus a handful of
//! self-loop triples — so the residual selection `σ[1=3](E)` actually
//! matches a few rows while the static heuristic pegs it at 25% of the
//! store. The workload joins that selection through the chain twice. A
//! cold (heuristic) planner sees a "large" filtered side and merges it
//! against full relation scans; after one analyzed run feeds the
//! `StatsStore`, the observed cardinality flips the plan to index
//! nested-loop probes off the tiny outer — the adaptive loop's payoff,
//! measured end to end.
//!
//! The harness asserts the cold and warmed plans render **byte-identical
//! results** before timing anything, prints medians, and records them in
//! `BENCH_planner.json` at the repository root. `TRIAL_BENCH_SMOKE=1`
//! shrinks the store and sample counts for CI; the committed JSON comes
//! from a full local run.

use criterion::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trial_core::{Triplestore, TriplestoreBuilder};
use trial_eval::{Engine, EvalOptions, SmartEngine, StatsStore};
use trial_parser::parse;

struct Config {
    chain: usize,
    self_loops: usize,
    samples: usize,
}

fn config() -> Config {
    if std::env::var("TRIAL_BENCH_SMOKE").is_ok() {
        Config {
            chain: 6_000,
            self_loops: 8,
            samples: 3,
        }
    } else {
        Config {
            chain: 120_000,
            self_loops: 8,
            samples: 7,
        }
    }
}

/// A `hop` chain `n_i → n_{i+1}` (never a self-loop) plus `self_loops`
/// `pin` triples `m_j → m_j`: the only rows `σ[1=3]` can match.
fn skewed_store(config: &Config) -> Triplestore {
    let mut b = TriplestoreBuilder::new();
    for i in 0..config.chain {
        b.add_triple("E", format!("n{i}"), "hop", format!("n{}", i + 1));
    }
    for j in 0..config.self_loops {
        b.add_triple("E", format!("m{j}"), "pin", format!("m{j}"));
    }
    b.finish()
}

/// One warm-up call, then `samples` timed runs; returns sorted durations.
fn time_runs(samples: usize, mut f: impl FnMut() -> usize) -> (Vec<Duration>, usize) {
    let rows = f();
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        black_box(f());
        times.push(start.elapsed());
    }
    times.sort_unstable();
    (times, rows)
}

fn median(times: &[Duration]) -> Duration {
    times[times.len() / 2]
}

/// Renders a result set to bytes (one `s p o` line per triple, canonical
/// order) — the strongest answer-identity check available.
fn render(store: &Triplestore, set: &trial_core::TripleSet) -> String {
    let mut out = String::new();
    for t in set.iter() {
        out.push_str(store.object_name(t.s()));
        out.push(' ');
        out.push_str(store.object_name(t.p()));
        out.push(' ');
        out.push_str(store.object_name(t.o()));
        out.push('\n');
    }
    out
}

fn main() {
    let config = config();
    let store = skewed_store(&config);
    println!(
        "store: {} objects, {} triples ({} self-loops)",
        store.object_count(),
        store.triple_count(),
        config.self_loops
    );

    let mut entries = Vec::new();
    let mut headline_speedup = 0.0f64;
    for (name, query) in [
        (
            "selfloop-2hop",
            "((SELECT[1=3](E) JOIN[1,2,3' | 3=1'] E) JOIN[1,2,3' | 3=1'] E)",
        ),
        ("selfloop-probe", "(SELECT[1=3](E) JOIN[1,2,3' | 3=1'] E)"),
    ] {
        let expr = parse(query).unwrap();

        // Cold: static heuristics only.
        let cold_engine = SmartEngine::with_options(EvalOptions::default());
        let cold_plan = cold_engine
            .plan_query(&expr, &store, None, None, None)
            .unwrap();

        // Warmed: one analyzed run feeds the per-store statistics; every
        // plan after it draws on the observed cardinalities.
        let stats = Arc::new(StatsStore::new());
        let warmed_engine = SmartEngine::with_stats(EvalOptions::default(), Arc::clone(&stats));
        let first_plan = warmed_engine
            .plan_query(&expr, &store, None, None, None)
            .unwrap();
        let analyzed = warmed_engine.analyze(first_plan, &store).unwrap();
        assert!(
            analyzed.feedback.as_ref().is_some_and(|f| f.ingested > 0),
            "{name}: the analyzed run must feed the stats"
        );
        let warmed_plan = warmed_engine
            .plan_query(&expr, &store, None, None, None)
            .unwrap();
        assert!(
            warmed_plan
                .estimate_sources(warmed_engine.stats())
                .iter()
                .any(|s| *s),
            "{name}: the warmed plan must draw on observed estimates"
        );

        // Answer identity first, performance second.
        let reference = render(&store, &cold_engine.run(&expr, &store).unwrap());
        let warmed_result = render(&store, &warmed_engine.run(&expr, &store).unwrap());
        assert_eq!(reference, warmed_result, "{name}: answers diverged");

        let (cold_times, rows) = time_runs(config.samples, || {
            cold_engine.run(&expr, &store).unwrap().len()
        });
        let (warm_times, warm_rows) = time_runs(config.samples, || {
            warmed_engine.run(&expr, &store).unwrap().len()
        });
        assert_eq!(rows, warm_rows);
        let cold = median(&cold_times);
        let warmed = median(&warm_times);
        let speedup = cold.as_secs_f64() / warmed.as_secs_f64().max(1e-12);
        let replanned = cold_plan.explain() != warmed_plan.explain();
        println!(
            "{:<16} cold: {:>12.3?}  warmed: {:>12.3?}  speedup: {:>7.2}x  replanned: {}  ({} rows)",
            name, cold, warmed, speedup, replanned, rows
        );
        headline_speedup = headline_speedup.max(speedup);
        entries.push(format!(
            concat!(
                "    {{\"workload\":\"{}\",\"query\":{:?},\"rows\":{},",
                "\"cold_median_ns\":{},\"warmed_median_ns\":{},",
                "\"speedup\":{:.3},\"replanned\":{}}}"
            ),
            name,
            query,
            rows,
            cold.as_nanos(),
            warmed.as_nanos(),
            speedup,
            replanned,
        ));
    }

    // The adaptive loop must pay for itself on the skewed store. Timing in
    // smoke runs (tiny store, shared CI hardware) is too noisy to gate on.
    let smoke = std::env::var("TRIAL_BENCH_SMOKE").is_ok();
    if !smoke {
        assert!(
            headline_speedup >= 1.3,
            "warmed plans must be >=1.3x faster than cold on the skewed multi-join, got {headline_speedup:.2}x"
        );
    }

    let json = format!(
        "{{\n  \"store\": {{\"triples\": {}, \"self_loops\": {}}},\n  \
         \"smoke\": {},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        store.triple_count(),
        config.self_loops,
        smoke,
        entries.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_planner.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("recorded results in BENCH_planner.json");
    }
}
