//! Cost and promptness of cooperative cancellation.
//!
//! Two figures back the robustness acceptance bar:
//!
//! * **Check overhead** — the same full 100k-triple scan drained row by
//!   row through two engines: one carrying the inert token, one carrying
//!   an armed deadline far in the future. Both pay the identical per-row
//!   countdown; every `CANCEL_CHECK_STRIDE` rows the inert token answers
//!   with a pointer test where the armed one reads the monotonic clock —
//!   so the measured delta is one amortized clock read per 1024 rows. The
//!   acceptance bar is **≤ 2%** throughput.
//! * **Time to release** — a transitive closure far larger than its
//!   deadline, at morsel degrees 1/2/4: how long after the deadline the
//!   evaluation actually surfaces `Cancelled` and frees its threads. The
//!   acceptance bar is **≤ 50 ms** (the serving path promises permit and
//!   worker release within 50 ms of the deadline, and the eval layer owns
//!   nearly all of that budget).
//!
//! Results land in `BENCH_robustness.json` at the repository root.
//! `TRIAL_BENCH_SMOKE=1` shrinks rounds and samples for CI.

use std::time::{Duration, Instant};
use trial_core::{Error, Expr, Triplestore};
use trial_eval::{CancelToken, Engine, EvalOptions, SmartEngine};
use trial_workloads::{chain_store, random_store, RandomStoreConfig};

struct Knobs {
    scan_rounds: usize,
    release_samples: usize,
}

fn knobs() -> Knobs {
    if std::env::var("TRIAL_BENCH_SMOKE").is_ok() {
        Knobs {
            scan_rounds: 3,
            release_samples: 2,
        }
    } else {
        Knobs {
            scan_rounds: 9,
            release_samples: 5,
        }
    }
}

/// Drains a full scan through the streaming cursor (every row passes the
/// stride-checked cancellation checkpoint) and returns rows and wall time.
fn drain_scan(engine: &SmartEngine, expr: &Expr, store: &Triplestore) -> (u64, Duration) {
    let started = Instant::now();
    let mut stream = engine
        .stream_query(expr, store, None, None, None)
        .expect("plan scan");
    let mut rows = 0_u64;
    while stream.next_triple().is_some() {
        rows += 1;
    }
    (rows, started.elapsed())
}

fn median_f64(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn median_duration(samples: &mut [Duration]) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let k = knobs();
    let host_cpus = trial_eval::available_threads();
    println!(
        "cancellation: {} scan rounds, {} release samples per degree on {host_cpus} core(s)",
        k.scan_rounds, k.release_samples
    );

    // ── Check overhead on a full 100k-triple scan ────────────────────────
    let scan_store = random_store(&RandomStoreConfig {
        objects: 20_000,
        triples: 100_000,
        distinct_values: 10,
        seed: 7,
    });
    let scan = trial_parser::parse("E").expect("parse scan");
    let inert = SmartEngine::with_options(EvalOptions::default());
    // A deadline hours away: never fires, but every stride checkpoint
    // reads the clock instead of short-circuiting on the inert token.
    let armed = SmartEngine::with_options(EvalOptions {
        cancel: CancelToken::with_timeout(Duration::from_secs(3600)),
        ..EvalOptions::default()
    });

    // Warm both (plans, page-in).
    drain_scan(&inert, &scan, &scan_store);
    drain_scan(&armed, &scan, &scan_store);

    let mut inert_rps = Vec::new();
    let mut armed_rps = Vec::new();
    for round in 0..k.scan_rounds {
        // Paired within the round, alternating which engine goes first:
        // position bias (cache warmth, frequency ramps) would otherwise
        // masquerade as checker overhead on a sub-millisecond drain.
        let mut pair = Vec::new();
        let order: [&SmartEngine; 2] = if round % 2 == 0 {
            [&inert, &armed]
        } else {
            [&armed, &inert]
        };
        for engine in order {
            let (rows, spent) = drain_scan(engine, &scan, &scan_store);
            assert_eq!(rows, 100_000, "scan must cover the full store");
            pair.push(rows as f64 / spent.as_secs_f64());
        }
        if round % 2 != 0 {
            pair.reverse();
        }
        inert_rps.push(pair[0]);
        armed_rps.push(pair[1]);
    }
    let inert_m = median_f64(&mut inert_rps);
    let armed_m = median_f64(&mut armed_rps);
    let overhead_pct = 100.0 * (inert_m - armed_m) / inert_m;
    println!(
        "100k scan: inert {inert_m:.0} rows/s  armed {armed_m:.0} rows/s  \
         overhead {overhead_pct:+.1}%"
    );

    // ── Time to release after the deadline ───────────────────────────────
    // A closure whose full evaluation takes far longer than the deadline;
    // what we time is how long past the deadline `Cancelled` surfaces.
    let chain = chain_store(4000);
    let star = trial_parser::parse("STAR(E JOIN[1,2,3' | 3=1'])").expect("parse star");
    let deadline = Duration::from_millis(200);
    let mut release_ms = Vec::new();
    for threads in [1_usize, 2, 4] {
        let mut samples = Vec::new();
        for _ in 0..k.release_samples {
            let engine = SmartEngine::with_options(EvalOptions {
                threads,
                cancel: CancelToken::with_timeout(deadline),
                ..EvalOptions::default()
            });
            let started = Instant::now();
            let result = engine.evaluate(&star, &chain);
            let elapsed = started.elapsed();
            match result {
                Err(Error::Cancelled(reason)) => assert_eq!(reason, "deadline_exceeded"),
                other => panic!(
                    "closure finished under its deadline — enlarge the chain: {:?}",
                    other.map(|e| e.result.len())
                ),
            }
            samples.push(elapsed.saturating_sub(deadline));
        }
        let median = median_duration(&mut samples);
        println!("release after deadline, threads={threads}: {median:?}");
        assert!(
            median <= Duration::from_millis(50),
            "threads={threads}: released {median:?} after the deadline (budget 50ms)"
        );
        release_ms.push((threads, median.as_secs_f64() * 1e3));
    }

    // Guard against a genuine regression while leaving headroom for noise
    // on small hosts (a sub-millisecond drain on a shared core swings by
    // several percent between rounds); the committed figure comes from a
    // full run and must sit within the 2% acceptance bar.
    let guard_pct = if std::env::var("TRIAL_BENCH_SMOKE").is_ok() {
        25.0
    } else {
        10.0
    };
    assert!(
        overhead_pct <= guard_pct,
        "cancellation-check overhead {overhead_pct:.1}% is far beyond the 2% target"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"host_cpus\": {host_cpus},\n",
            "  \"smoke\": {smoke},\n",
            "  \"config\": {{\"scan_rounds\": {rounds}, \"release_samples\": {samples}, ",
            "\"deadline_ms\": 200}},\n",
            "  \"scan_100k_rows_per_s\": {{\"inert\": {inert:.0}, \"armed\": {armed:.0}}},\n",
            "  \"check_overhead_pct\": {overhead:.2},\n",
            "  \"check_overhead_target_pct\": 2.0,\n",
            "  \"release_after_deadline_ms\": {{\"threads_1\": {r1:.2}, ",
            "\"threads_2\": {r2:.2}, \"threads_4\": {r4:.2}}},\n",
            "  \"release_target_ms\": 50.0\n",
            "}}\n"
        ),
        host_cpus = host_cpus,
        smoke = std::env::var("TRIAL_BENCH_SMOKE").is_ok(),
        rounds = k.scan_rounds,
        samples = k.release_samples,
        inert = inert_m,
        armed = armed_m,
        overhead = overhead_pct,
        r1 = release_ms[0].1,
        r2 = release_ms[1].1,
        r4 = release_ms[2].1,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_robustness.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("recorded results in BENCH_robustness.json");
    }
}
