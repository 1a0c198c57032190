//! Integration tests for the observability surface: `/metrics` renders
//! valid Prometheus text exposition covering the engine work counters,
//! `/healthz` and `/metrics` read the same sources and cannot disagree,
//! request IDs are accepted and echoed on buffered and chunked responses,
//! `/explain?analyze=1` reports per-node timings, and the flight recorder
//! retains complete span records under concurrency — including every
//! errored or shed request.

use std::time::Duration;
use trial_obs::expo;
use trial_server::client::{self, HttpClient};
use trial_server::{Server, ServerConfig};

/// Extracts the integer value of `"field":N` from a flat JSON rendering.
fn json_u64(body: &str, field: &str) -> u64 {
    let needle = format!("\"{field}\":");
    let at = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no `{needle}` in `{body}`"));
    body[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric `{needle}` in `{body}`"))
}

/// An N-Triples chain `<n0> <next> <n1> . …` of `n` triples.
fn chain_doc(n: usize) -> String {
    let mut doc = String::new();
    for i in 0..n {
        doc.push_str(&format!("<n{i}> <next> <n{}> .\n", i + 1));
    }
    doc
}

/// Scrapes `/metrics` and runs it through the strict exposition parser.
fn scrape(server: &Server) -> expo::Exposition {
    let response = client::get(server.addr(), "/metrics").unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(
        response.header("Content-Type"),
        Some("text/plain; version=0.0.4"),
        "scrape content type"
    );
    expo::parse(&response.body).unwrap_or_else(|e| panic!("invalid exposition: {e}"))
}

#[test]
fn metrics_are_valid_prometheus_and_cover_the_engine_counters() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &chain_doc(3000)).unwrap();

    // Mixed traffic: a hash join (filtered sides disqualify merge and
    // index-probe joins), a parallel evaluation, a buffering top-k, a cache
    // hit, a streamed response and a parse error.
    let join = "(SELECT[1!=3](E) JOIN[1,2,3' | 3=1'] SELECT[1!=3](E))";
    assert!(client::post(addr, "/query?store=chain", join)
        .unwrap()
        .is_ok());
    assert!(
        client::post(addr, "/query?store=chain&threads=4&stream=1", "E")
            .unwrap()
            .is_ok()
    );
    // Top-k over a join result: the derived rows have no index order, so
    // the bounded heap genuinely buffers (a bare scan would collapse to a
    // plain limit and never buffer).
    assert!(client::post(
        addr,
        "/query?store=chain&order=osp&topk=5",
        "(E JOIN[1,2,3' | 3=1'] E)"
    )
    .unwrap()
    .is_ok());
    let cached = client::post(addr, "/query?store=chain", join).unwrap();
    assert!(cached.body.contains("\"cached\":true"), "{}", cached.body);
    let bad = client::post(addr, "/query?store=chain", "(E JOIN[1,2").unwrap();
    assert_eq!(bad.status, 400);

    let metrics = scrape(&server);

    // Declared family types survive the strict parse.
    for (family, kind) in [
        ("trial_queries_served_total", "counter"),
        ("trial_requests_total", "counter"),
        ("trial_request_duration_us", "histogram"),
        ("trial_phase_duration_us", "histogram"),
        ("trial_query_rows_returned", "histogram"),
        ("trial_eval_topk_buffered_peak", "gauge"),
        ("trial_stores", "gauge"),
    ] {
        assert_eq!(
            metrics.types.get(family).map(String::as_str),
            Some(kind),
            "family {family}"
        );
    }

    // Service counters.
    assert!(metrics.value("trial_queries_served_total", &[]).unwrap() >= 4.0);
    assert_eq!(metrics.value("trial_loads_completed_total", &[]), Some(1.0));
    assert_eq!(metrics.value("trial_stores", &[]), Some(1.0));
    assert!(metrics.value("trial_queries_streamed_total", &[]).unwrap() >= 1.0);
    assert!(metrics.value("trial_cache_hits_total", &[]).unwrap() >= 1.0);

    // The engine work counters surfaced from EvalStats: the join built hash
    // tables, the threads=4 evaluation dispatched parallel morsels, and the
    // non-canonical top-k buffered a bounded heap.
    assert!(
        metrics
            .value("trial_eval_hash_tables_built_total", &[])
            .unwrap()
            >= 1.0
    );
    assert!(
        metrics
            .value("trial_eval_parallel_morsels_total", &[])
            .unwrap()
            >= 1.0
    );
    let peak = metrics.value("trial_eval_topk_buffered_peak", &[]).unwrap();
    assert!((1.0..=5.0).contains(&peak), "topk peak {peak}");

    // Per-endpoint request counters and latency histograms.
    assert!(
        metrics
            .value(
                "trial_requests_total",
                &[("endpoint", "query"), ("status", "2xx")]
            )
            .unwrap()
            >= 4.0
    );
    assert!(
        metrics
            .value(
                "trial_requests_total",
                &[("endpoint", "query"), ("status", "4xx")]
            )
            .unwrap()
            >= 1.0
    );
    assert!(
        metrics
            .value("trial_request_duration_us_count", &[("endpoint", "query")])
            .unwrap()
            >= 5.0
    );

    // Phase histograms: every fresh query parsed and evaluated.
    for phase in ["parse", "eval", "serialize"] {
        assert!(
            metrics
                .value("trial_phase_duration_us_count", &[("phase", phase)])
                .unwrap_or(0.0)
                >= 1.0,
            "no {phase} phase samples"
        );
    }

    // The parse failure landed in the structured error counter and rows
    // were recorded for the successful queries.
    assert!(metrics.sum("trial_errors_total") >= 1.0);
    assert!(
        metrics
            .value("trial_query_rows_returned_count", &[])
            .unwrap()
            >= 1.0
    );

    server.shutdown();
}

#[test]
fn healthz_and_metrics_read_the_same_counters() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &chain_doc(200)).unwrap();
    client::post(addr, "/load?store=other", &chain_doc(10)).unwrap();

    // Mixed traffic: fresh evaluations, cache hits at the cached limit and
    // sliced to a smaller one, a streamed response.
    let query = "SELECT[1!=3](E)";
    client::post(addr, "/query?store=chain&order=spo&limit=50", query).unwrap();
    client::post(addr, "/query?store=chain&order=spo&limit=50", query).unwrap(); // hit
    client::post(addr, "/query?store=chain&order=spo&limit=10", query).unwrap(); // sliced hit
    client::post(addr, "/query?store=other&stream=1", "E").unwrap();
    client::post(addr, "/query?store=other&threads=4", "E").unwrap();

    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    let metrics = scrape(&server);

    // Every counter /healthz reports must be the value /metrics renders —
    // both read the same registry-owned atomics and the same cache and
    // admission structs, so after identical traffic they cannot differ.
    for (healthz_field, metric) in [
        ("queries_served", "trial_queries_served_total"),
        ("loads_completed", "trial_loads_completed_total"),
        ("queries_parallel", "trial_queries_parallel_total"),
        ("queries_sequential", "trial_queries_sequential_total"),
        ("queries_streamed", "trial_queries_streamed_total"),
        ("hits", "trial_cache_hits_total"),
        ("misses", "trial_cache_misses_total"),
        ("entries", "trial_cache_entries"),
        ("capacity", "trial_cache_capacity"),
        ("admitted", "trial_admission_admitted_total"),
        ("rejected", "trial_admission_rejected_total"),
        ("in_flight", "trial_admission_in_flight"),
        ("waiting", "trial_admission_waiting"),
        ("permits", "trial_admission_permits"),
        ("stores", "trial_stores"),
    ] {
        assert_eq!(
            json_u64(&health.body, healthz_field) as f64,
            metrics
                .value(metric, &[])
                .unwrap_or_else(|| panic!("no {metric}")),
            "/healthz `{healthz_field}` vs /metrics `{metric}`"
        );
    }

    server.shutdown();
}

#[test]
fn request_ids_are_accepted_and_echoed_on_both_framings() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &chain_doc(20)).unwrap();

    // A well-formed client ID is echoed verbatim on a buffered response.
    let tagged = client::request_with(
        addr,
        "POST",
        "/query?store=chain",
        "E",
        &[("X-Request-Id", "deploy-42.a_b")],
    )
    .unwrap();
    assert_eq!(tagged.status, 200, "{}", tagged.body);
    assert_eq!(tagged.header("X-Request-Id"), Some("deploy-42.a_b"));

    // ... and on a chunked streamed response, ahead of the body.
    let streamed = client::request_with(
        addr,
        "POST",
        "/query?store=chain&stream=1",
        "E",
        &[("X-Request-Id", "page-7")],
    )
    .unwrap();
    assert!(streamed.chunked);
    assert_eq!(streamed.header("X-Request-Id"), Some("page-7"));

    // Errors carry the ID too (this response never ran a query).
    let error = client::request_with(
        addr,
        "POST",
        "/query?store=nope",
        "E",
        &[("X-Request-Id", "err-1")],
    )
    .unwrap();
    assert_eq!(error.status, 404);
    assert_eq!(error.header("X-Request-Id"), Some("err-1"));

    // Without a client ID the server generates one.
    let fresh = client::post(addr, "/query?store=chain", "E").unwrap();
    let generated = fresh.header("X-Request-Id").expect("generated ID");
    assert!(!generated.is_empty());

    // Malformed IDs (bad characters / oversized) are replaced, not echoed —
    // the header is part of the server's own response surface.
    let bad = client::request_with(
        addr,
        "POST",
        "/query?store=chain",
        "E",
        &[("X-Request-Id", "no spaces allowed")],
    )
    .unwrap();
    let echoed = bad.header("X-Request-Id").expect("replacement ID");
    assert_ne!(echoed, "no spaces allowed");

    // The client IDs key the spans in the flight recorder.
    let slow = client::get(addr, "/debug/slow").unwrap();
    assert!(
        slow.body.contains("\"request_id\":\"deploy-42.a_b\""),
        "{}",
        slow.body
    );
    assert!(
        slow.body.contains("\"request_id\":\"page-7\""),
        "{}",
        slow.body
    );
    assert!(
        slow.body.contains("\"request_id\":\"err-1\""),
        "{}",
        slow.body
    );

    server.shutdown();
}

#[test]
fn explain_analyze_reports_per_node_timings() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &chain_doc(100)).unwrap();

    // Filtered sides force a hash join — a breaker, so the analyzed tree
    // reports a build time alongside the per-node elapsed time.
    let analyzed = client::post(
        addr,
        "/explain?store=chain&analyze=1",
        "(SELECT[1!=3](E) JOIN[1,2,3' | 3=1'] SELECT[1!=3](E))",
    )
    .unwrap();
    assert_eq!(analyzed.status, 200, "{}", analyzed.body);
    // Every tree node carries elapsed_us next to est/actual; the hash join
    // is a breaker, so at least one node reports a build time too.
    assert!(
        analyzed.body.contains("\"elapsed_us\":"),
        "{}",
        analyzed.body
    );
    assert!(analyzed.body.contains("\"actual\":"), "{}", analyzed.body);
    assert!(analyzed.body.contains("\"build_us\":"), "{}", analyzed.body);
    // Every node that reported an actual row count files one estimate
    // error in the planner histogram.
    let observed = analyzed.body.matches("\"actual\":").count()
        - analyzed.body.matches("\"actual\":null").count();
    assert!(observed >= 1, "{}", analyzed.body);
    assert_eq!(
        scrape(&server).value("trial_planner_est_error_pct_count", &[]),
        Some(observed as f64)
    );

    // The plain explain plans without running: no timings in its tree (the
    // response envelope's own top-level elapsed_us is not node timing).
    let plain = client::post(addr, "/explain?store=chain", "E").unwrap();
    assert_eq!(plain.status, 200);
    let tree = plain.body.split("\"tree\":").nth(1).expect("tree field");
    assert!(!tree.contains("\"elapsed_us\":"), "{tree}");

    server.shutdown();
}

#[test]
fn spans_are_complete_and_non_interleaved_under_concurrency() {
    // Cache off so every request is a fresh, profiled evaluation; a large
    // recorder so all of them are retained; stride-1 profiling so every
    // span carries per-node timings.
    let mut config = ServerConfig {
        cache_capacity: 0,
        flight_slots: 64,
        ..ServerConfig::default()
    };
    config.eval.profile_sample = 1;
    let server = Server::spawn(config).unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &chain_doc(500)).unwrap();

    // Three client threads — eval degrees 1, 2 and 4 — each issuing tagged
    // buffered and streamed requests over one keep-alive connection.
    const QUERIES: &[&str] = &["E", "SELECT[1!=3](E)", "(E JOIN[1,2,3' | 3=1'] E)"];
    let mut expected: Vec<(String, &'static str, bool)> = Vec::new();
    let mut handles = Vec::new();
    for threads in [1_usize, 2, 4] {
        let mut plan: Vec<(String, &'static str, bool, String)> = Vec::new();
        for (i, query) in QUERIES.iter().enumerate() {
            let streamed = i % 2 == 1;
            let id = format!("w{threads}-{i}");
            let stream = if streamed { "&stream=1" } else { "" };
            let path = format!("/query?store=chain&threads={threads}&limit=400{stream}");
            expected.push((id.clone(), query, streamed));
            plan.push((id, query, streamed, path));
        }
        handles.push(std::thread::spawn(move || {
            let mut http = HttpClient::new(addr);
            for (id, query, _, path) in plan {
                let response = http
                    .request_with("POST", &path, query, &[("X-Request-Id", &id)])
                    .unwrap();
                assert_eq!(response.status, 200, "{id}: {}", response.body);
                assert_eq!(response.header("X-Request-Id"), Some(id.as_str()));
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }

    let slow = client::get(addr, "/debug/slow").unwrap();
    assert_eq!(slow.status, 200);
    let body = &slow.body;

    // Every request produced exactly one retained span, and each span's
    // fields belong to its own request — concurrent tracing never
    // interleaves records.
    for (id, query, streamed) in &expected {
        let needle = format!("\"request_id\":\"{id}\"");
        let at = body
            .find(&needle)
            .unwrap_or_else(|| panic!("no span for {id}"));
        assert!(
            body[at + needle.len()..].find(&needle).is_none(),
            "duplicate span for {id}"
        );
        let end = body[at + needle.len()..]
            .find("\"request_id\":")
            .map_or(body.len(), |next| at + needle.len() + next);
        let span = &body[at..end];
        assert!(
            span.contains(&format!("\"query\":\"{query}\"")),
            "{id}: {span}"
        );
        assert!(span.contains("\"store\":\"chain\""), "{id}: {span}");
        assert!(span.contains("\"status\":200"), "{id}: {span}");
        assert!(
            span.contains(&format!("\"streamed\":{streamed}")),
            "{id}: {span}"
        );
        // The phase breakdown is complete for a fresh evaluation...
        for phase in ["parse_us", "plan_us", "admission_us", "eval_us"] {
            assert!(span.contains(phase), "{id} missing {phase}: {span}");
        }
        // ... and stride-1 profiling attached per-node timings and the plan.
        assert!(span.contains("\"profile_stride\":1"), "{id}: {span}");
        assert!(span.contains("\"elapsed_us\":"), "{id}: {span}");
        assert!(span.contains("\"plan\":\""), "{id}: {span}");
    }

    server.shutdown();
}

#[test]
fn errored_and_shed_requests_always_reach_the_flight_recorder() {
    let server = Server::spawn(ServerConfig {
        admission_permits: 1,
        admission_max_waiters: 0,
        admission_wait: Duration::from_millis(50),
        flight_slots: 8,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &chain_doc(50)).unwrap();
    let mut http = HttpClient::new(addr);

    // Mint a cursor, then trigger each structured failure: malformed token,
    // stale epoch, saturation.
    let page = http
        .post("/query?store=chain&order=spo&limit=10&stream=1", "E")
        .unwrap();
    let token = page.trailer("X-Trial-Cursor").expect("cursor").to_owned();

    let bad = http.post("/query?store=chain&cursor=@@!", "E").unwrap();
    assert_eq!(bad.status, 400);

    client::post(addr, "/load?store=chain", "<x> <next> <y> .\n").unwrap();
    let stale = http
        .post(&format!("/query?store=chain&cursor={token}"), "E")
        .unwrap();
    assert_eq!(stale.status, 410);

    let held = server.admission().acquire("chain").unwrap();
    let shed = http.post("/query?store=chain&limit=49", "E").unwrap();
    assert_eq!(shed.status, 429, "{}", shed.body);
    drop(held);

    // Every failure is in the error ring with its structured kind — these
    // responses were fast, so a slowest-only recorder would have lost them.
    let slow = http.get("/debug/slow").unwrap();
    assert_eq!(slow.status, 200);
    let errors = slow.body.split("\"errors\":").nth(1).expect("errors list");
    for (kind, status) in [
        ("bad_cursor", 400),
        ("stale_cursor", 410),
        ("saturated", 429),
    ] {
        assert!(
            errors.contains(&format!("\"error\":\"{kind}\"")),
            "missing {kind}: {errors}"
        );
        assert!(
            errors.contains(&format!("\"status\":{status}")),
            "missing status {status}: {errors}"
        );
    }

    // The shed request also shows up on the metric surface.
    let metrics = scrape(&server);
    assert!(metrics.value("trial_queries_shed_total", &[]).unwrap() >= 1.0);
    assert!(
        metrics
            .value("trial_errors_total", &[("kind", "saturated")])
            .unwrap()
            >= 1.0
    );

    server.shutdown();
}
