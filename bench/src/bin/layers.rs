//! The per-layer replay: one representative request per template, pushed
//! through the repo's layers in-process and in the order the server calls
//! them, with a span around each call.
//!
//! This is the **only** file of the benchmark that links `trial-*` crates.
//! What it calls is the surface a refactor must keep (or change together
//! with this file, in a benchmark change of its own):
//!
//! * `trial_server::http::{read_request, write_response, ChunkedWriter, Response}`
//! * `trial_server::json::{string_array, array, JsonObject}`
//! * `trial_server::ServerConfig::default().eval` (the server's `EvalOptions`)
//! * `trial_parser::{parse, parse_path}`
//! * `trial_eval::{SmartEngine, CancelToken, PathStrategy, rpq::lower}` —
//!   `plan_query`, `plan_path_query`, `stream_query`, `stream_path_query`,
//!   `Plan::explain`, and on the stream `next_triple`, `count`,
//!   `stats().work()`
//! * `trial_rdf::{parse_ntriples_iter, Term}`
//! * `trial_core::{Triplestore, TriplestoreBuilder, Permutation, Value}` —
//!   `into_builder`, `object_with_value`, `add_triple`, `finish`,
//!   `relation_with_index`, `RelationIndex::permutation`, `object_name`
//!
//! Output: one JSON object on stdout (`metrics`, `templates`) and the spans
//! in the file named by `--out`.

use std::io::{self, BufReader};
use std::process::ExitCode;
use std::time::Instant;
use trial_core::{Expr, Permutation, Triple, Triplestore, TriplestoreBuilder, Value};
use trial_eval::{CancelToken, EvalOptions, PathStrategy, Plan, QueryStream, SmartEngine};
use trial_parser::PathExpr;
use trial_perfbench::spans::Tracer;
use trial_perfbench::stats::median;
use trial_perfbench::workloads::{self, Bench, Req};
use trial_rdf::{parse_ntriples_iter, RdfTriple, Term};
use trial_server::http::{self, ChunkedWriter, ReadOutcome, Request, Response};
use trial_server::json::{self, JsonObject};

/// Replays per template.
const REPS: usize = 30;
/// Replays of a whole-store load (50–100 ms each).
const LOAD_REPS: usize = 5;
/// The server's defaults: response cap when `?limit=` is absent, the clamp
/// on it, and the request body limit.
const DEFAULT_LIMIT: usize = 10_000;
const MAX_LIMIT: usize = 100_000;
const MAX_BODY: usize = 8 * 1024 * 1024;

/// What one replayed request did, beyond its spans.
#[derive(Default, Clone, Copy)]
struct Counts {
    /// Rows the engine handed to the drain (or counted, for `limit=0`).
    rows: u64,
    /// Rows rendered into the body.
    rendered: u64,
    /// Response bytes written (head included).
    bytes: u64,
    /// `EvalStats::work()` of the evaluation.
    work: u64,
    /// Triples parsed from an N-Triples body.
    parsed: u64,
}

fn request_bytes(req: &Req) -> Vec<u8> {
    let head = format!(
        "{} {} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\r\n",
        req.method,
        req.target,
        req.body.len()
    );
    [head.as_bytes(), req.body.as_bytes()].concat()
}

fn read(raw: &[u8]) -> Result<Request, String> {
    match http::read_request(&mut BufReader::new(raw), &mut io::sink(), MAX_BODY) {
        Ok(ReadOutcome::Request(request)) => Ok(request),
        other => Err(format!("the replayed request did not parse: {other:?}")),
    }
}

fn engine_options() -> EvalOptions {
    EvalOptions {
        threads: 1,
        cancel: CancelToken::manual(),
        ..trial_server::ServerConfig::default().eval
    }
}

/// `/load`, as `routes::load` does it: parse the body, rebuild the store
/// from a clone of `base` plus the new triples.
fn replay_load(
    tracer: &mut Tracer,
    raw: &[u8],
    base: Option<&Triplestore>,
) -> Result<(Triplestore, Counts), String> {
    let (result, _) = tracer.span("request", |t| -> Result<(Triplestore, Counts), String> {
        let request = t.span("http.read", |_| read(raw)).0?;
        let body = request.body_utf8().ok_or("load body is not UTF-8")?;
        let parsed = t.span("rdf.parse", |_| {
            parse_ntriples_iter(body).collect::<Result<Vec<RdfTriple>, _>>()
        });
        let triples = parsed.0.map_err(|e| e.to_string())?;
        let store = t.span("core.build", |_| {
            let mut builder = match base {
                Some(store) => store.clone().into_builder(),
                None => TriplestoreBuilder::new(),
            };
            builder.relation("E");
            for triple in &triples {
                for term in triple.terms() {
                    if let Term::Literal(lexical) = term {
                        builder.object_with_value(lexical, Value::str(lexical.clone()));
                    }
                }
                builder.add_triple(
                    "E",
                    triple.subject.lexical(),
                    triple.predicate.lexical(),
                    triple.object.lexical(),
                );
            }
            builder.finish()
        });
        let store = store.0;
        let body = JsonObject::new()
            .str("store", request.param("store").unwrap_or(""))
            .num("triples_added", triples.len() as u64)
            .num("triples_total", store.triple_count() as u64)
            .finish();
        let mut wire = Vec::new();
        let written = t.span("http.write", |_| {
            http::write_response(&mut wire, &Response::ok(body), false)
        });
        written.0.map_err(|e| e.to_string())?;
        let counts = Counts {
            bytes: wire.len() as u64,
            parsed: triples.len() as u64,
            ..Counts::default()
        };
        Ok((store, counts))
    });
    result
}

/// The lazy per-snapshot structures the first reads of a store build: the
/// three permutation indexes of `E`.
fn build_indexes(store: &Triplestore) {
    let (triples, index) = store
        .relation_with_index("E")
        .expect("the store has relation E");
    for permutation in [Permutation::Spo, Permutation::Pos, Permutation::Osp] {
        std::hint::black_box(index.permutation(triples, permutation).len());
    }
}

fn row_json(store: &Triplestore, t: &Triple) -> String {
    json::string_array([
        store.object_name(t.s()),
        store.object_name(t.p()),
        store.object_name(t.o()),
    ])
}

/// The delivery knobs of a query request, as `routes::parse_query_params`
/// reads them.
struct Knobs {
    limit: usize,
    topk: Option<usize>,
    order: Option<Permutation>,
    streamed: bool,
}

impl Knobs {
    fn of(request: &Request) -> Knobs {
        let number = |name: &str| request.param(name).and_then(|v| v.parse::<usize>().ok());
        Knobs {
            limit: number("limit").map_or(DEFAULT_LIMIT, |l| l.min(MAX_LIMIT)),
            topk: number("topk"),
            order: request.param("order").and_then(Permutation::parse),
            streamed: request.param("stream") == Some("1"),
        }
    }

    /// One row past the cap, so truncation is observable; the count-only
    /// form (`limit=0`) plans without a limit or an order it never sees.
    fn plan_limit(&self) -> Option<usize> {
        (self.limit > 0).then(|| self.limit.saturating_add(1))
    }

    fn plan_order(&self) -> Option<Permutation> {
        if self.limit == 0 && self.topk.is_none() {
            None
        } else {
            self.order
        }
    }
}

/// A parsed body: TriAL algebra (a closure-free path lowers to it, as in
/// the server) or a path kept whole for the NFA walk.
enum Compiled {
    Trial(Expr),
    Nfa(PathExpr),
}

fn compile(request: &Request) -> Result<Compiled, String> {
    let text = request.body_utf8().ok_or("query body is not UTF-8")?.trim();
    let failed = |e: trial_core::Error| e.to_string();
    if request.path != "/path" {
        return trial_parser::parse(text)
            .map(Compiled::Trial)
            .map_err(failed);
    }
    let path = trial_parser::parse_path(text).map_err(failed)?;
    Ok(if PathStrategy::Auto.resolves_to_nfa(&path, None) {
        Compiled::Nfa(path)
    } else {
        Compiled::Trial(trial_eval::rpq::lower(&path, "E"))
    })
}

impl Compiled {
    fn plan(
        &self,
        engine: &SmartEngine,
        store: &Triplestore,
        knobs: &Knobs,
    ) -> trial_core::Result<Plan> {
        let (limit, order) = (knobs.plan_limit(), knobs.plan_order());
        match self {
            Compiled::Trial(expr) => engine.plan_query(expr, store, limit, order, knobs.topk),
            Compiled::Nfa(path) => {
                engine.plan_path_query(path, "E", store, None, limit, order, knobs.topk)
            }
        }
    }

    fn stream<'s>(
        &self,
        engine: &SmartEngine,
        store: &'s Triplestore,
        knobs: &Knobs,
    ) -> trial_core::Result<QueryStream<'s>> {
        let (limit, order) = (knobs.plan_limit(), knobs.plan_order());
        match self {
            Compiled::Trial(expr) => engine.stream_query(expr, store, limit, order, knobs.topk),
            Compiled::Nfa(path) => {
                engine.stream_path_query(path, "E", store, None, limit, order, knobs.topk)
            }
        }
    }
}

/// How long planning alone takes for the request in `raw`, on a store whose
/// lazy indexes are already built.
fn planning_ns(raw: &[u8], store: &Triplestore) -> Result<u64, String> {
    let engine = SmartEngine::with_options(engine_options());
    let request = read(raw)?;
    let (compiled, knobs) = (compile(&request)?, Knobs::of(&request));
    let started = Instant::now();
    std::hint::black_box(
        compiled
            .plan(&engine, store, &knobs)
            .map_err(|e| e.to_string())?,
    );
    Ok(started.elapsed().as_nanos() as u64)
}

/// `/query`, `/path` and `/explain`, as `routes::query` and
/// `StreamingQuery::run` do them on a cache miss, one layer after another.
///
/// The engine's streaming entry point plans *and* runs the pipeline
/// breakers (hash builds, star fixpoints) in one call, so planner and
/// evaluator cannot be wrapped separately. The caller times the pure
/// planning call first ([`planning_ns`]), and the combined call is split at
/// that duration: `planner.plan` is planning, `eval.run` is the breakers
/// plus the drain.
fn replay_query(
    tracer: &mut Tracer,
    raw: &[u8],
    store: &Triplestore,
    plan_ns: u64,
) -> Result<Counts, String> {
    let engine = SmartEngine::with_options(engine_options());
    let failed = |e: trial_core::Error| e.to_string();
    let (result, _) = tracer.span("request", |t| -> Result<Counts, String> {
        let request = t.span("http.read", |_| read(raw)).0?;
        let knobs = Knobs::of(&request);
        let compiled = t.span("parser.parse", |_| compile(&request)).0?;

        if request.path == "/explain" {
            let plan = t
                .span("planner.plan", |_| compiled.plan(&engine, store, &knobs))
                .0
                .map_err(failed)?;
            let body = t.span("json.render", |_| {
                JsonObject::new()
                    .str("plan", plan.explain().trim_end())
                    .finish()
            });
            let mut wire = Vec::new();
            let written = t.span("http.write", |_| {
                http::write_response(&mut wire, &Response::ok(body.0), false)
            });
            written.0.map_err(|e| e.to_string())?;
            return Ok(Counts {
                bytes: wire.len() as u64,
                ..Counts::default()
            });
        }

        // Plan, run the breakers, drain the cursor tree.
        let mut counts = Counts::default();
        let started = t.now_ns();
        let mut stream = compiled.stream(&engine, store, &knobs).map_err(failed)?;
        let mut rows: Vec<Triple> = Vec::new();
        if knobs.limit == 0 {
            let (counted, stats) = stream.count();
            (counts.rows, counts.work) = (counted, stats.work());
        } else {
            while let Some(triple) = stream.next_triple() {
                if rows.len() == knobs.limit {
                    break;
                }
                rows.push(triple);
            }
            counts.work = stream.stats().work();
            counts.rows = rows.len() as u64;
            counts.rendered = counts.rows;
        }
        let ended = t.now_ns();
        let planned = (started + plan_ns).min(ended);
        t.record("planner.plan", started, planned);
        t.record("eval.run", planned, ended);

        // Serialise: every row through `json::string_array`, then the body.
        let rendered = t.span("json.render", |_| -> Vec<String> {
            let rows_json: Vec<String> = rows.iter().map(|r| row_json(store, r)).collect();
            if knobs.streamed {
                return rows_json;
            }
            let result = JsonObject::new()
                .num("count", counts.rows)
                .boolean("truncated", knobs.limit == 0)
                .raw("triples", &json::array(&rows_json))
                .finish();
            vec![JsonObject::new()
                .str("store", "dblp")
                .boolean("cached", false)
                .raw("result", &result)
                .finish()]
        });
        let rendered = rendered.0;

        // Write: a buffered response, or chunks and trailers.
        let mut wire = Vec::new();
        let written = t.span("http.write", |_| -> io::Result<()> {
            if !knobs.streamed {
                let body = rendered.into_iter().next().unwrap_or_default();
                return http::write_response(&mut wire, &Response::ok(body), false);
            }
            let mut chunked =
                ChunkedWriter::begin(&mut wire, 200, false, &["X-Trial-Count"], None)?;
            chunked.write_text("{\"triples\":[")?;
            for (i, row) in rendered.iter().enumerate() {
                if i > 0 {
                    chunked.write_text(",")?;
                }
                chunked.write_text(row)?;
            }
            chunked.write_text("]}")?;
            chunked.finish(&[("X-Trial-Count", counts.rows.to_string())])
        });
        written.0.map_err(|e| e.to_string())?;
        counts.bytes = wire.len() as u64;
        Ok(counts)
    });
    result
}

/// Median self time, in ns, of the spans named `name` among `roots`'
/// children.
fn layer_ns(tracer: &Tracer, roots: &[usize], name: &str) -> f64 {
    let spans = tracer.spans();
    let of_root = |root: usize| -> f64 {
        let own =
            (0..spans.len()).filter(|&i| spans[i].parent == Some(root) && spans[i].name == name);
        own.map(|i| tracer.self_ns(i) as f64).sum()
    };
    median(&roots.iter().map(|&r| of_root(r)).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// One template's replays: the root span of each, and what a replay did.
struct Replayed {
    name: &'static str,
    share: f64,
    roots: Vec<usize>,
    counts: Counts,
}

/// Replays of one `/load` request, each followed by building the store's
/// lazy indexes (a root of its own: the server builds them inside the first
/// read, not inside the load).
struct Loads {
    roots: Vec<usize>,
    index_roots: Vec<usize>,
    counts: Counts,
    /// Triples in the store a replay produces.
    triples: usize,
}

fn replay_loads(
    tracer: &mut Tracer,
    raw: &[u8],
    base: Option<&Triplestore>,
    reps: usize,
) -> Result<(Triplestore, Loads), String> {
    let (mut roots, mut index_roots) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..reps {
        tracer.next_request();
        roots.push(tracer.spans().len());
        let (built, counts) = replay_load(tracer, raw, base)?;
        tracer.next_request();
        index_roots.push(tracer.span("core.index", |_| build_indexes(&built)).1);
        last = Some((built, counts));
    }
    let (store, counts) = last.ok_or("no load was replayed")?;
    let triples = store.triple_count();
    Ok((
        store,
        Loads {
            roots,
            index_roots,
            counts,
            triples,
        },
    ))
}

fn run() -> Result<(), String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut shrink, mut out) =
        (String::new(), 1u64, 1usize, String::new());
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = value,
            "--seed" => seed = value.parse().map_err(|_| "unparsable --seed")?,
            "--shrink" => shrink = value.parse().map_err(|_| "unparsable --shrink")?,
            "--out" => out = value,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let spec = workloads::spec(&workload).ok_or(format!("no workload named `{workload}`"))?;
    let bench = Bench::new(spec, seed, shrink);
    let episode = bench.episode(0);
    let block: Vec<&Req> = episode.clients.iter().flatten().flatten().collect();
    let mut tracer = Tracer::default();

    // The set-up load builds the store every read template runs against,
    // and is where the write-path layers of a read-only workload come from.
    let setup_reps = if spec.templates[0] == "load" {
        1
    } else {
        LOAD_REPS
    };
    let (mut store, mut loads) = replay_loads(
        &mut tracer,
        &request_bytes(&episode.setup[0]),
        None,
        setup_reps,
    )?;

    let mut replayed = Vec::new();
    for (t, name) in spec.templates.iter().enumerate() {
        let Some(req) = block.iter().find(|r| r.template == t) else {
            continue;
        };
        let share = block.iter().filter(|r| r.template == t).count() as f64 / block.len() as f64;
        let raw = request_bytes(req);
        let (mut roots, mut counts) = (Vec::new(), Counts::default());
        if *name == "load" {
            // An append: every replay starts from the same base store, and
            // its write-path layers are the ones reported.
            (store, loads) = replay_loads(&mut tracer, &raw, Some(&store), REPS)?;
            roots.clone_from(&loads.roots);
            counts = loads.counts;
        } else {
            for _ in 0..REPS {
                // The first read after a load pays for the lazy indexes: a
                // cloned store starts with none, like a fresh snapshot.
                let fresh = (*name == "first_read").then(|| store.clone());
                let plan_ns = planning_ns(&raw, &store)?;
                tracer.next_request();
                roots.push(tracer.spans().len());
                counts =
                    replay_query(&mut tracer, &raw, fresh.as_ref().unwrap_or(&store), plan_ns)?;
            }
        }
        replayed.push(Replayed {
            name,
            share,
            roots,
            counts,
        });
    }

    // Per-request layer times, weighted by each template's share of the block.
    let weighted = |layer: &str| -> f64 {
        replayed
            .iter()
            .map(|r| r.share * layer_ns(&tracer, &r.roots, layer))
            .sum()
    };
    let per = |total: f64, pick: fn(&Counts) -> u64| -> f64 {
        let units: f64 = replayed
            .iter()
            .map(|r| r.share * pick(&r.counts) as f64)
            .sum();
        if units > 0.0 {
            total / units
        } else {
            0.0
        }
    };
    let rendering = || replayed.iter().filter(|r| r.counts.rendered > 0);
    let rendered_rows: f64 = rendering()
        .map(|r| r.share * r.counts.rendered as f64)
        .sum();
    let rendered_bytes: f64 = rendering().map(|r| r.share * r.counts.bytes as f64).sum();
    let metrics = [
        ("http.read_us", weighted("http.read") / 1e3),
        (
            "http.write_us_per_mb",
            per(weighted("http.write") / 1e3, |c| c.bytes) * 1e6,
        ),
        ("parser.parse_us", weighted("parser.parse") / 1e3),
        ("planner.plan_us", weighted("planner.plan") / 1e3),
        ("eval.run_us", weighted("eval.run") / 1e3),
        ("eval.ns_per_row", per(weighted("eval.run"), |c| c.rows)),
        (
            "eval.work",
            replayed.iter().map(|r| r.counts.work as f64).sum(),
        ),
        (
            "json.ns_per_row",
            per(weighted("json.render"), |c| c.rendered),
        ),
        (
            "json.bytes_per_row",
            if rendered_rows > 0.0 {
                rendered_bytes / rendered_rows
            } else {
                0.0
            },
        ),
        (
            "rdf.parse_ns_per_triple",
            layer_ns(&tracer, &loads.roots, "rdf.parse") / loads.counts.parsed.max(1) as f64,
        ),
        (
            "core.build_ns_per_triple",
            layer_ns(&tracer, &loads.roots, "core.build") / loads.triples.max(1) as f64,
        ),
        (
            "core.index_us",
            median(
                &loads
                    .index_roots
                    .iter()
                    .map(|&i| tracer.self_ns(i) as f64)
                    .collect::<Vec<_>>(),
            )
            .unwrap_or(0.0)
                / 1e3,
        ),
    ];

    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("\"{name}\":{value}"))
        .collect();
    let templates: Vec<String> = replayed
        .iter()
        .map(|r| {
            let spans = tracer.spans();
            let totals: Vec<f64> = r
                .roots
                .iter()
                .map(|&i| (spans[i].end_ns - spans[i].start_ns) as f64 / 1e3)
                .collect();
            format!(
                "{{\"name\":\"{}\",\"share\":{},\"replay_us\":{}}}",
                r.name,
                r.share,
                median(&totals).unwrap_or(0.0)
            )
        })
        .collect();
    if !out.is_empty() {
        std::fs::write(&out, tracer.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    println!(
        "{{\"metrics\":{{{}}},\"templates\":[{}]}}",
        metrics.join(","),
        templates.join(",")
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("layers: {message}");
            ExitCode::from(2)
        }
    }
}
