//! `trial-serve` — the TriAL query service as a standalone binary.
//!
//! ```bash
//! trial-serve --preload transport --port 7878 --workers 8
//! curl -s localhost:7878/query -d "(E JOIN[1,3',3 | 2=1'] E)"
//! ```

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use trial_server::{preload_workload, Server, ServerConfig, WORKLOAD_NAMES};

/// Set from the signal handler; the main loop polls it and drains.
static TERMINATE: AtomicBool = AtomicBool::new(false);

/// Installs SIGTERM/SIGINT handlers that flip [`TERMINATE`]. Storing to a
/// static atomic is async-signal-safe; everything else (draining, printing)
/// happens on the main thread after the poll loop observes the flag.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_term(_signum: i32) {
        TERMINATE.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_term);
        signal(SIGTERM, on_term);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

const USAGE: &str = "\
trial-serve — serve TriAL queries over HTTP

USAGE:
    trial-serve [OPTIONS]

OPTIONS:
    --host <ADDR>        interface to bind            [default: 127.0.0.1]
    --port <PORT>        port to bind (0 = ephemeral) [default: 7878]
    --workers <N>        worker threads               [default: 4]
    --preload <NAME>     preload a workload store (repeatable);
                         names: figure1 transport social random chain
                                cycle grid clique
    --cache <N>          result-cache entries, all result kinds together
                         (0 = off)                     [default: 128]
    --eval-threads <N>   intra-query parallelism degree (0 = all cores);
                         per-request override: ?threads= (clamped to 16)
                                                       [default: 1]
    --max-body <BYTES>   request body limit            [default: 8388608]
    --max-universe <N>   universal-relation cap        [default: 1000000]
    --max-rounds <N>     fixpoint-round cap per star   [default: 10000]
    --profile-sample <N> per-operator profiling stride: time every N-th
                         cursor pull (0 = off outside ?analyze=1; also
                         settable via TRIAL_PROFILE_SAMPLE)  [default: 0]
    --flight-slots <N>   flight-recorder capacity (slowest + errored spans
                         each; 0 disables /debug/slow)       [default: 16]
    --default-timeout-ms <MS>
                         evaluation deadline applied to every query that
                         doesn't set its own ?timeout_ms= (0 = none; also
                         settable via TRIAL_DEFAULT_TIMEOUT_MS) [default: 0]
    --drain-grace-ms <MS>
                         how long SIGTERM lets in-flight requests finish
                         before cancelling them              [default: 2000]
    --chaos <SPEC>       arm fault injection, e.g. \"eval=panic@3,
                         stream.chunk=ioerror@2\" (also settable via
                         TRIAL_CHAOS; see the chaos module docs)
    -h, --help           print this help

SIGNALS:
    SIGTERM/SIGINT    graceful drain: stop accepting (late requests get a
                      structured 503), let in-flight work finish within the
                      grace window, cancel stragglers, flush /debug/slow

ENDPOINTS:
    POST /query       TriAL expression (plain text) -> JSON triples + stats
                      (?limit=, ?threads=)
    POST /explain     TriAL expression -> rendered physical plan; ?analyze=1
                      also runs it and reports actual rows + per-node
                      elapsed_us next to the estimates
    POST /load        N-Triples document (?store=, ?relation=) -> new epoch
    GET  /stores      store inventory
    GET  /healthz     liveness + eval-thread & cache counters
    GET  /metrics     Prometheus text exposition of every server metric
    GET  /debug/slow  slow-query flight recorder: phase-timed span records
                      for the slowest and all errored/shed requests
";

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("trial-serve: {message}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut config = ServerConfig {
        port: 7878,
        ..ServerConfig::default()
    };
    let mut preloads: Vec<String> = Vec::new();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            "--host" => config.host = take_value(&args, &mut i)?,
            "--port" => config.port = parse_num(&take_value(&args, &mut i)?, "--port")?,
            "--workers" => {
                config.workers =
                    parse_num::<usize>(&take_value(&args, &mut i)?, "--workers")?.max(1)
            }
            "--preload" => preloads.push(take_value(&args, &mut i)?),
            "--cache" => config.cache_capacity = parse_num(&take_value(&args, &mut i)?, "--cache")?,
            "--eval-threads" => {
                let n: usize = parse_num(&take_value(&args, &mut i)?, "--eval-threads")?;
                // 0 = auto-detect; anything else is clamped to the same
                // ceiling the per-request ?threads= knob gets.
                let n = if n == 0 {
                    trial_eval::available_threads()
                } else {
                    n
                };
                config.eval.threads = n.clamp(1, trial_server::MAX_EVAL_THREADS);
            }
            "--max-body" => {
                config.max_body_bytes = parse_num(&take_value(&args, &mut i)?, "--max-body")?
            }
            "--max-universe" => {
                config.eval.max_universe = parse_num(&take_value(&args, &mut i)?, "--max-universe")?
            }
            "--max-rounds" => {
                config.eval.max_fixpoint_rounds =
                    parse_num(&take_value(&args, &mut i)?, "--max-rounds")?
            }
            "--profile-sample" => {
                config.eval.profile_sample =
                    parse_num(&take_value(&args, &mut i)?, "--profile-sample")?
            }
            "--flight-slots" => {
                config.flight_slots = parse_num(&take_value(&args, &mut i)?, "--flight-slots")?
            }
            "--default-timeout-ms" => {
                let ms: u64 = parse_num(&take_value(&args, &mut i)?, "--default-timeout-ms")?;
                config.default_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--drain-grace-ms" => {
                let ms: u64 = parse_num(&take_value(&args, &mut i)?, "--drain-grace-ms")?;
                config.drain_grace = Duration::from_millis(ms);
            }
            "--chaos" => config.chaos = Some(take_value(&args, &mut i)?),
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
        i += 1;
    }

    // Generate preloads before binding so a typo fails fast.
    let mut stores = Vec::new();
    for name in &preloads {
        let store = preload_workload(name).ok_or_else(|| {
            format!(
                "unknown workload `{name}`; available: {}",
                WORKLOAD_NAMES.join(" ")
            )
        })?;
        stores.push((name.clone(), store));
    }

    let drain_grace = config.drain_grace;
    let server = Server::spawn(config).map_err(|e| format!("failed to bind: {e}"))?;
    for (name, store) in stores {
        let triples = store.triple_count();
        let epoch = server.registry().set(&name, store);
        println!("preloaded store `{name}` (epoch {epoch}, {triples} triples)");
    }
    println!("trial-serve listening on http://{}", server.addr());
    println!("try: curl -s http://{}/healthz", server.addr());

    // Serve until asked to stop, then drain: refuse new work, let in-flight
    // requests finish within the grace window, cancel stragglers with
    // reason `shutdown`, and flush the flight recorder so the final spans
    // aren't lost with the process.
    install_signal_handlers();
    while !TERMINATE.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!(
        "trial-serve: draining (grace {} ms)",
        drain_grace.as_millis()
    );
    let spans = server.drain();
    for span in &spans {
        println!(
            "trial-serve: flushed span {} {} {} -> {} ({} us{})",
            span.request_id,
            span.method,
            span.path,
            span.status,
            span.total_us,
            span.error_kind
                .as_deref()
                .map(|k| format!(", {k}"))
                .unwrap_or_default()
        );
    }
    println!("trial-serve: drained, exiting");
    Ok(ExitCode::SUCCESS)
}

/// Consumes the value of the flag at `args[*i]`, advancing the cursor.
fn take_value(args: &[String], i: &mut usize) -> Result<String, String> {
    let flag = args[*i].clone();
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} requires a value"))
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
    raw.parse::<T>()
        .map_err(|_| format!("unparsable value `{raw}` for {flag}"))
}
