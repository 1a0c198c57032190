//! The end-to-end driver: runs a workload against the real `trial-serve`
//! binary over loopback HTTP and reports what a caller of the service sees.
//!
//! This file and the library it uses reach the server only through its wire
//! surface (`/load`, `/query`, `/path`, `/explain`, `/healthz`, `/metrics`),
//! so they keep compiling while the crates behind that surface are reshaped.
//! The per-layer numbers come from the sibling `layers` binary, which this
//! one starts for `--trace 1`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trial_perfbench::json::{self, Json};
use trial_perfbench::run::{run_episode, EpisodeResult, Sample, Scrape};
use trial_perfbench::stats::{median, quartile_spread, tail};
use trial_perfbench::workloads::{self, Bench, Spec, WORKLOADS};

/// Gated end-to-end metrics: name, unit, whether higher is better, and the
/// share of the parent's median by which it may worsen. `BENCHMARK.json`
/// states the same four; a test below keeps the two in step.
const END_TO_END: [(&str, &str, bool, f64); 4] = [
    ("latency_p50_ms", "ms", false, 0.15),
    ("throughput_rps", "1/s", true, 0.15),
    ("peak_rss_mb", "MB", false, 0.15),
    ("setup_s", "s", false, 0.25),
];

/// Per-layer metrics the replay reports, with units (the two that come from
/// the server's own counters and the residual are added by this binary).
const PER_LAYER_UNITS: [(&str, &str); 15] = [
    ("http.read_us", "us"),
    ("http.write_us_per_mb", "us/MB"),
    ("parser.parse_us", "us"),
    ("planner.plan_us", "us"),
    ("eval.run_us", "us"),
    ("eval.ns_per_row", "ns/row"),
    ("eval.work", "count"),
    ("json.ns_per_row", "ns/row"),
    ("json.bytes_per_row", "bytes/row"),
    ("rdf.parse_ns_per_triple", "ns/triple"),
    ("core.build_ns_per_triple", "ns/triple"),
    ("core.index_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("admission.rejected", "count"),
    ("wire.residual_share", "ratio"),
];

/// Episodes stop being started once a run has used this much wall time, so
/// a server that turns very slow cannot push a run past the harness limit.
const RUN_WALL_CAP_S: f64 = 110.0;

struct Args {
    server_bin: PathBuf,
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
    runs: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        server_bin: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
        selfcheck: false,
        runs: 10,
        out: PathBuf::from("bench/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let number = |raw: String| {
            raw.parse::<f64>()
                .map_err(|_| format!("unparsable number `{raw}`"))
        };
        match flag.as_str() {
            "--server-bin" => args.server_bin = value()?.into(),
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(workloads::spec(&name).ok_or(format!("no workload named `{name}`"))?);
            }
            "--seed" => args.seed = number(value()?)? as u64,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.trace = number(value()?)? != 0.0,
            "--runs" => args.runs = (number(value()?)? as usize).max(2),
            "--out" => args.out = value()?.into(),
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.server_bin.as_os_str().is_empty() {
        return Err(
            "--server-bin <path to trial-serve> is required (bench/run.sh passes it)".into(),
        );
    }
    Ok(args)
}

/// `--smoke` cuts every episode to a twentieth and runs one of them.
fn shrink(args: &Args) -> usize {
    if args.smoke {
        20
    } else {
        1
    }
}

/// Episodes of one workload until `seconds` of measured time are in.
fn episodes(args: &Args, bench: &Bench) -> Result<Vec<EpisodeResult>, String> {
    let seconds = if args.smoke { 0.0 } else { args.seconds };
    let started = Instant::now();
    let mut results: Vec<EpisodeResult> = Vec::new();
    let mut measured = 0.0;
    while results.is_empty()
        || (measured < seconds && started.elapsed().as_secs_f64() < RUN_WALL_CAP_S)
    {
        let index = results.len() as u64;
        let result = run_episode(&args.server_bin, &bench.episode(index), index == 0)?;
        measured += result.block_s;
        results.push(result);
    }
    Ok(results)
}

fn ms(sample: &Sample) -> f64 {
    sample.latency.as_secs_f64() * 1e3
}

/// One trace-0 run, reduced to its metrics.
struct Report {
    spec: &'static Spec,
    seed: u64,
    episodes: usize,
    /// Rounds behind `latency_p50_ms`.
    rounds: usize,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// The four gated metrics, in `END_TO_END` order.
    gated: [f64; 4],
    /// Printed, not gated: `(name, value, unit, samples)`.
    extras: Vec<(String, f64, &'static str, usize)>,
}

fn report(spec: &'static Spec, seed: u64, results: &[EpisodeResult]) -> Result<Report, String> {
    let over =
        |pick: fn(&EpisodeResult) -> f64| median(&results.iter().map(pick).collect::<Vec<_>>());
    let rounds: Vec<f64> = results
        .iter()
        .flat_map(|r| r.tally.round_means_ms.iter().copied())
        .collect();
    let samples: Vec<&Sample> = results.iter().flat_map(|r| &r.tally.samples).collect();
    let latency = median(&rounds).ok_or("no request of the measured block succeeded")?;
    let gated = [
        latency,
        // Closed loop: each caller completes one request per latency.
        spec.clients as f64 * 1e3 / latency,
        over(|r| r.peak_rss_mb).unwrap_or(0.0),
        over(|r| r.setup_s).unwrap_or(0.0),
    ];

    let mut extras = Vec::new();
    let all: Vec<f64> = samples.iter().map(|s| ms(s)).collect();
    if let Some((label, value)) = tail(&all) {
        extras.push((format!("latency_{label}_ms"), value, "ms", all.len()));
    }
    for (t, name) in spec.templates.iter().enumerate() {
        let of: Vec<&&Sample> = samples.iter().filter(|s| s.template == t).collect();
        let times: Vec<f64> = of.iter().map(|s| ms(s)).collect();
        if let Some(p50) = median(&times) {
            extras.push((format!("{name}.p50_ms"), p50, "ms", times.len()));
        }
        if name.ends_with("streamed") {
            let first: Vec<f64> = of
                .iter()
                .map(|s| s.first_byte.as_secs_f64() * 1e3)
                .collect();
            extras.push((
                "ttfb_p50_ms".to_owned(),
                median(&first).unwrap_or(0.0),
                "ms",
                first.len(),
            ));
        }
    }
    if samples.iter().any(|s| s.cached) {
        for (cached, name) in [(true, "cached.p50_ms"), (false, "fresh.p50_ms")] {
            let of = samples.iter().filter(|s| s.cached == cached);
            let times: Vec<f64> = of.map(|s| ms(s)).collect();
            extras.push((
                name.to_owned(),
                median(&times).unwrap_or(0.0),
                "ms",
                times.len(),
            ));
        }
    }
    Ok(Report {
        spec,
        seed,
        episodes: results.len(),
        rounds: rounds.len(),
        attempted: results.iter().map(|r| r.tally.attempted).sum(),
        failed: results.iter().map(|r| r.tally.failed).sum(),
        errors: results
            .iter()
            .flat_map(|r| r.tally.errors.iter().cloned())
            .take(5)
            .collect(),
        gated,
        extras,
    })
}

impl Report {
    fn text(&self) -> String {
        let mut out = format!(
            "{} seed {}: {} episodes, {} rounds, {} requests attempted, {} failed (failed_share {:.4})\n",
            self.spec.name,
            self.seed,
            self.episodes,
            self.rounds,
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for ((name, unit, _, bound), value) in END_TO_END.iter().zip(self.gated) {
            let _ = writeln!(
                out,
                "  {name:<28} {value:>12.4} {unit:<6} gated, bound {:.0}%",
                bound * 100.0
            );
        }
        for (name, value, unit, n) in &self.extras {
            let _ = writeln!(out, "  {name:<28} {value:>12.4} {unit:<6} n={n}");
        }
        for error in &self.errors {
            let _ = writeln!(out, "  FAILED {error}");
        }
        out
    }
}

fn quote(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The one line a harness reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        metrics_json(metrics)
    )
}

fn gated_metrics(report: &Report) -> Vec<(String, f64, &'static str)> {
    let named = END_TO_END.iter().zip(report.gated);
    named
        .map(|((name, unit, _, _), value)| ((*name).to_owned(), value, *unit))
        .collect()
}

/// The traced run: episodes with the server's counters read around each
/// block, then the in-process layer replay, joined into the per-layer
/// metrics.
struct Traced {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    text: String,
}

fn traced(args: &Args, spec: &'static Spec, seed: u64) -> Result<Traced, String> {
    let bench = Bench::new(spec, seed, shrink(args));
    let results = episodes(args, &bench)?;
    let samples: Vec<&Sample> = results.iter().flat_map(|r| &r.tally.samples).collect();
    let mut counters = Scrape::default();
    results.iter().for_each(|r| counters.add(&r.counters));
    let lookups = counters.cache_hits + counters.cache_misses;
    let hit_ratio = counters.cache_hits as f64 / lookups.max(1) as f64;

    // The replay, in its own process: the only code that links the repo's crates.
    let layers_bin = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("layers");
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let trace_path = args.out.join(format!("trace_{}.json", spec.name));
    let output = Command::new(&layers_bin)
        .args(["--workload", spec.name, "--seed", &seed.to_string()])
        .args(["--shrink", &shrink(args).to_string()])
        .arg("--out")
        .arg(&trace_path)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", layers_bin.display()))?;
    if !output.status.success() {
        return Err(format!(
            "layers failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let replay = json::parse(stdout.trim()).map_err(|e| format!("layers output: {e}"))?;
    let number = |doc: &Json, key: &str| -> Result<f64, String> {
        match doc.get(key) {
            Some(Json::Num(n)) => Ok(*n),
            _ => Err(format!("layers output has no number `{key}`")),
        }
    };

    // Residual: what the caller waited for, per request, that the replayed
    // layers do not explain — sockets, thread hand-off, the exchange. Fresh
    // (uncached) requests only: the replay has no cache to hit.
    let mut text = format!(
        "{} seed {seed}: {} traced episodes + layer replay\n",
        spec.name,
        results.len()
    );
    let (mut waited_us, mut replayed_us) = (0.0, 0.0);
    let templates = replay
        .get("templates")
        .and_then(Json::as_arr)
        .ok_or("layers output has no templates")?;
    for (t, entry) in templates.iter().enumerate() {
        let fresh = samples.iter().filter(|s| s.template == t && !s.cached);
        let times: Vec<f64> = fresh.map(|s| s.latency.as_secs_f64() * 1e6).collect();
        let (share, replay_us) = (number(entry, "share")?, number(entry, "replay_us")?);
        let e2e_us = median(&times).unwrap_or(replay_us);
        waited_us += share * e2e_us;
        replayed_us += share * replay_us;
        let _ = writeln!(
            text,
            "  {:<16} share {share:>5.3}  e2e p50 {e2e_us:>10.1} us  replayed {replay_us:>10.1} us  residual {:>6.3}",
            spec.templates[t],
            (e2e_us - replay_us) / e2e_us
        );
    }
    let residual = (waited_us - replayed_us) / waited_us;

    let from_replay = replay
        .get("metrics")
        .ok_or("layers output has no metrics")?;
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER_UNITS {
        let value = match name {
            "cache.hit_ratio" => hit_ratio,
            "admission.rejected" => counters.rejected as f64,
            "wire.residual_share" => residual,
            _ => number(from_replay, name)?,
        };
        let _ = writeln!(text, "  {name:<28} {value:>14.4} {unit}");
        metrics.push((name.to_owned(), value, unit));
    }

    // Cross-check: the server's own phase clocks over the same block, per
    // request, beside the replayed layers they should resemble.
    let _ = writeln!(
        text,
        "  server's own trial_phase_duration_us_sum, per request of the blocks:"
    );
    for (phase, total) in &counters.phase_us {
        let per_request = total / samples.len().max(1) as f64;
        let _ = writeln!(text, "    phase {phase:<10} {per_request:>12.1} us");
    }
    let errors = results.iter().flat_map(|r| &r.tally.errors);
    for error in errors.take(5) {
        let _ = writeln!(text, "  FAILED {error}");
    }
    let _ = writeln!(text, "  spans written to {}", trace_path.display());
    Ok(Traced {
        attempted: results.iter().map(|r| r.tally.attempted).sum(),
        failed: results.iter().map(|r| r.tally.failed).sum(),
        metrics,
        text,
    })
}

fn measure(args: &Args, spec: &'static Spec, seed: u64) -> Result<Report, String> {
    let bench = Bench::new(spec, seed, shrink(args));
    report(spec, seed, &episodes(args, &bench)?)
}

fn command_line(program: &str, args: &[&str]) -> String {
    let output = Command::new(program).args(args).output();
    let text = output
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned());
    text.unwrap_or_else(|| "unknown".to_owned())
}

/// Every workload, both ways, printed and written to `results.json`.
fn suite(args: &Args) -> Result<bool, String> {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let host = format!(
        "{{\"cpus\":{cpus},\"rustc\":{},\"git_rev\":{}}}",
        quote(&command_line("rustc", &["--version"])),
        quote(&command_line("git", &["rev-parse", "HEAD"]))
    );
    println!(
        "host: {cpus} cpus; seed {}; {} s per workload{}",
        args.seed,
        args.seconds,
        if args.smoke { " (smoke)" } else { "" }
    );
    let mut entries = Vec::new();
    let mut clean = true;
    for spec in &WORKLOADS {
        let report = measure(args, spec, args.seed)?;
        print!("{}", report.text());
        let traced = traced(args, spec, args.seed)?;
        print!("{}", traced.text);
        clean &= report.failed == 0 && traced.failed == 0;
        let extras: Vec<_> = report
            .extras
            .iter()
            .map(|(n, v, u, _)| (n.clone(), *v, *u))
            .collect();
        entries.push(format!(
            "{{\"workload\":{},\"episodes\":{},\"attempted\":{},\"failed\":{},\"end_to_end\":{},\"printed_not_gated\":{},\"per_layer\":{}}}",
            quote(spec.name),
            report.episodes,
            report.attempted + traced.attempted,
            report.failed + traced.failed,
            metrics_json(&gated_metrics(&report)),
            metrics_json(&extras),
            metrics_json(&traced.metrics)
        ));
    }
    let document = format!(
        "{{\"smoke\":{},\"seed\":{},\"seconds\":{},\"host\":{host},\"workloads\":[\n{}\n]}}\n",
        args.smoke,
        args.seed,
        args.seconds,
        entries.join(",\n")
    );
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    let path = args.out.join("results.json");
    std::fs::write(&path, document).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(clean)
}

/// Two sets of `runs` runs per workload on the same build, one seed per run
/// and the same seeds in both sets, interleaved. A gated metric passes when
/// its quartile spread within each set and the worsening of the second
/// set's median over the first's both stay inside its bound — the rule the
/// benchmark's bounds are meant to be usable under.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let mut steady = true;
    let chosen: Vec<&'static Spec> = args
        .workload
        .map_or(WORKLOADS.iter().collect(), |w| vec![w]);
    for spec in chosen {
        let mut sets: [Vec<Report>; 2] = [Vec::new(), Vec::new()];
        for run in 0..args.runs {
            for set in &mut sets {
                set.push(measure(args, spec, args.seed + run as u64)?);
            }
        }
        println!(
            "{}: two sets of {} runs, seeds {}..{}",
            spec.name,
            args.runs,
            args.seed,
            args.seed + args.runs as u64 - 1
        );
        for (m, (name, unit, higher_better, bound)) in END_TO_END.iter().enumerate() {
            let values = |set: &Vec<Report>| set.iter().map(|r| r.gated[m]).collect::<Vec<f64>>();
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (median_a, median_b) = (median(&a).unwrap_or(0.0), median(&b).unwrap_or(0.0));
            let worse = if *higher_better {
                (median_a - median_b) / median_a
            } else {
                (median_b - median_a) / median_a
            };
            let spread = quartile_spread(&a)
                .unwrap_or(0.0)
                .max(quartile_spread(&b).unwrap_or(0.0));
            // Set-up time is gated on its median only; its spread is shown.
            let ok = worse <= *bound && (*name == "setup_s" || spread <= *bound);
            steady &= ok;
            println!(
                "  {name:<16} A {median_a:>11.4} B {median_b:>11.4} {unit:<4} B worse by {:>6.2}%  spread {:>5.2}%  bound {:>4.0}%  {}",
                worse * 100.0,
                spread * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "OUT OF BOUND" }
            );
        }
        let failed: u64 = sets.iter().flatten().map(|r| r.failed).sum();
        println!("  failed requests: {failed}");
        steady &= failed == 0;
    }
    Ok(steady)
}

fn run(args: &Args) -> Result<bool, String> {
    if args.selfcheck {
        return selfcheck(args);
    }
    let Some(spec) = args.workload else {
        return suite(args);
    };
    // One workload, one run: the report goes to stderr and the single
    // result line to stdout, last.
    let (attempted, failed, metrics) = if args.trace {
        let traced = traced(args, spec, args.seed)?;
        eprint!("{}", traced.text);
        (traced.attempted, traced.failed, traced.metrics)
    } else {
        let report = measure(args, spec, args.seed)?;
        eprint!("{}", report.text());
        (report.attempted, report.failed, gated_metrics(&report))
    };
    println!("{}", result_line(attempted, failed, &metrics));
    Ok(true)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits beside bench/")
    }

    /// `BENCHMARK.json` is what a harness reads; the constants above are
    /// what the binary prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let text = manifest();
        let doc = json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            let list = doc.get(key).and_then(Json::as_arr).unwrap();
            let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_owned();
            list.iter()
                .map(|m| {
                    (
                        field(m, "name"),
                        field(m, if key == "workloads" { "why" } else { "unit" }),
                    )
                })
                .collect()
        };
        let own: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.0.to_owned(), m.1.to_owned()))
            .collect();
        assert_eq!(names("end_to_end"), own);
        let own: Vec<_> = PER_LAYER_UNITS
            .iter()
            .map(|m| (m.0.to_owned(), m.1.to_owned()))
            .collect();
        assert_eq!(names("per_layer"), own);
        let own: Vec<_> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(names("workloads"), own);
        for (entry, own) in doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(END_TO_END)
        {
            let better = entry.get("better").and_then(Json::as_str).unwrap();
            assert_eq!(better == "higher", own.2);
            assert!(matches!(entry.get("bound"), Some(Json::Num(b)) if *b == own.3));
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let line = result_line(10, 0, &[("setup_s".to_owned(), 0.25, "s")]);
        let doc = json::parse(&line).unwrap();
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert!(quote("a\"b\\c\n").contains("\\u000a"));
    }
}
