//! Deadline, cancellation and graceful-shutdown behaviour of the serving
//! path: `?timeout_ms=` (and the server default) turns runaway evaluations
//! into structured `408 deadline_exceeded` responses that release their
//! admission permit promptly and never seed the caches; a deadline that
//! fires mid-stream names itself in an `X-Trial-Error` trailer; and
//! `Server::drain` refuses new work, cancels stragglers with reason
//! `shutdown`, and flushes the flight recorder.

use std::time::{Duration, Instant};
use trial_server::client::{self, HttpClient};
use trial_server::{Server, ServerConfig};

/// A transitive closure that does all its work before its first row: the
/// *left* star, which the planner runs as the generic semi-naive fixpoint
/// (one round per chain hop), so the server's row cap cannot cut it short
/// and the deadline always fires long before it finishes. Cancellation is
/// checked every fixpoint round (milliseconds apart on a chain), so the
/// release-latency assertions are meaningful, not lucky.
const SLOW_QUERY: &str = "STAR(JOIN[1,2,3' | 3=1'] E)";

/// The right star of the same closure: the Proposition 5 walk, which
/// streams its rows source by source, so rows are on the wire from the
/// first source on.
const STREAMING_CLOSURE: &str = "STAR(E JOIN[1,2,3' | 3=1'])";

/// An N-Triples chain `<n0> <next> <n1> . … <n{n-1}> <next> <n{n}> .`.
fn chain_doc(n: usize) -> String {
    let mut doc = String::new();
    for i in 0..n {
        doc.push_str(&format!("<n{i}> <next> <n{}> .\n", i + 1));
    }
    doc
}

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

/// The value of a counter family in the `/metrics` exposition (0 when the
/// family has no sample yet).
fn metric_value(addr: std::net::SocketAddr, family: &str) -> f64 {
    let text = client::get(addr, "/metrics").unwrap().body;
    text.lines()
        .find(|l| l.starts_with(family) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

#[test]
fn timeout_ms_yields_structured_408_and_counts_on_metrics() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &chain_doc(2000)).unwrap();

    let response = client::post(addr, "/query?store=chain&timeout_ms=200", SLOW_QUERY).unwrap();
    assert_eq!(response.status, 408, "{}", response.body);
    assert!(
        response.body.contains("\"kind\":\"deadline_exceeded\""),
        "{}",
        response.body
    );

    // The cancelled evaluation released its permit: nothing is in flight.
    let healthz = client::get(addr, "/healthz").unwrap().body;
    assert_eq!(json_u64(&healthz, "in_flight"), 0, "{healthz}");

    // The timeout counter saw it; the shutdown/disconnect counter did not.
    assert!(metric_value(addr, "trial_queries_timeout_total") >= 1.0);
    assert_eq!(metric_value(addr, "trial_queries_cancelled_total"), 0.0);
    server.shutdown();
}

#[test]
fn deadline_releases_the_permit_within_50ms() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &chain_doc(2000)).unwrap();

    let deadline = Duration::from_millis(300);
    let started = Instant::now();
    let response = client::post(addr, "/query?store=chain&timeout_ms=300", SLOW_QUERY).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(response.status, 408, "{}", response.body);
    // The whole request — deadline firing, unwinding the cursor tree,
    // rendering the 408 — completes within 50 ms of the deadline, and the
    // admission permit is already free when the response is readable.
    assert!(
        elapsed >= deadline,
        "finished before its deadline: {elapsed:?}"
    );
    assert!(
        elapsed <= deadline + Duration::from_millis(50),
        "released {:?} after the deadline (budget 50ms)",
        elapsed - deadline
    );
    let healthz = client::get(addr, "/healthz").unwrap().body;
    assert_eq!(json_u64(&healthz, "in_flight"), 0, "{healthz}");
    server.shutdown();
}

#[test]
fn server_default_timeout_applies_and_zero_opts_out() {
    let server = Server::spawn(ServerConfig {
        port: 0,
        default_timeout: Some(Duration::from_millis(150)),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &chain_doc(2000)).unwrap();

    // No per-request knob: the server default cancels the slow query.
    let response = client::post(addr, "/query?store=chain", SLOW_QUERY).unwrap();
    assert_eq!(response.status, 408, "{}", response.body);

    // Fast queries fit comfortably inside the default.
    let response = client::post(addr, "/query?store=chain&limit=5", "E").unwrap();
    assert_eq!(response.status, 200, "{}", response.body);

    // ?timeout_ms=0 opts out entirely: the slow query runs to completion.
    // The fixpoint's rounds grow with the closure, so it completes on a
    // shorter chain, which still outlasts the default in a debug build.
    client::post(addr, "/load?store=short", &chain_doc(200)).unwrap();
    let response =
        client::post(addr, "/query?store=short&timeout_ms=0&limit=5", SLOW_QUERY).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    server.shutdown();
}

#[test]
fn cancelled_queries_never_seed_the_caches() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();
    // Short enough that the fixpoint runs to completion below, long enough
    // that it outlasts a 60 ms deadline in a debug build.
    client::post(addr, "/load?store=chain", &chain_doc(200)).unwrap();

    // Cancelled buffered evaluation (plain and ordered): both 408.
    let r = client::post(addr, "/query?store=chain&timeout_ms=60", SLOW_QUERY).unwrap();
    assert_eq!(r.status, 408, "{}", r.body);
    let r = client::post(
        addr,
        "/query?store=chain&timeout_ms=60&order=spo&limit=100",
        SLOW_QUERY,
    )
    .unwrap();
    assert_eq!(r.status, 408, "{}", r.body);

    // The same queries re-run without a deadline are fresh evaluations —
    // a cancelled partial result must not have been cached under the same
    // key (`timeout_ms` is deliberately NOT part of the cache key) — and
    // they complete with the full answer.
    let r = client::post(addr, "/query?store=chain&limit=5", SLOW_QUERY).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"cached\":false"), "{}", r.body);
    let r = client::post(addr, "/query?store=chain&order=spo&limit=100", SLOW_QUERY).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"cached\":false"), "{}", r.body);
    assert_eq!(json_u64(&r.body, "count"), 100);
    server.shutdown();
}

#[test]
fn streamed_deadline_names_itself_in_the_error_trailer() {
    // A 2 ms injected stall per streamed row: slow enough that a 300 ms
    // deadline reliably fires while rows are on the wire, fast enough that
    // the release-latency budget still means something.
    let server = Server::spawn(ServerConfig {
        port: 0,
        chaos: Some("stream.slow=slow2".to_owned()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // A deadline that fires while the closure is still being planned and
    // materialized — before any byte is on the wire — still gets an
    // ordinary buffered 408, not a doomed chunked stream.
    client::post(addr, "/load?store=big", &chain_doc(2000)).unwrap();
    let response =
        client::post(addr, "/query?store=big&stream=1&timeout_ms=300", SLOW_QUERY).unwrap();
    assert_eq!(response.status, 408, "{}", response.body);
    assert!(
        response.body.contains("\"kind\":\"deadline_exceeded\""),
        "{}",
        response.body
    );

    // A small closure clears planning quickly, so the 200 head is flushed
    // and rows are dripping when the deadline fires: the status can't carry
    // the failure any more — the trailer does, and the stream is still a
    // complete, well-formed chunked response.
    client::post(addr, "/load?store=chain", &chain_doc(150)).unwrap();
    let started = Instant::now();
    let response = client::post(
        addr,
        "/query?store=chain&stream=1&timeout_ms=300&limit=50000",
        STREAMING_CLOSURE,
    )
    .unwrap();
    let elapsed = started.elapsed();
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(response.chunked);
    assert_eq!(
        response.trailer("X-Trial-Error"),
        Some("deadline_exceeded"),
        "trailers: {:?}",
        response.trailers
    );
    assert_eq!(response.trailer("X-Trial-Truncated"), Some("true"));
    // Some rows made it out before the deadline cut the stream short.
    let count: u64 = response.trailer("X-Trial-Count").unwrap().parse().unwrap();
    assert!(count > 0);
    // A cancelled position is not a trustworthy resume point.
    assert!(response.trailer("X-Trial-Cursor").is_none());

    // Worker, permit and exchange lanes released within 50 ms of the
    // deadline (the client has the trailers, so the stream is fully over).
    assert!(
        elapsed <= Duration::from_millis(300 + 50),
        "stream released {:?} after its 300ms deadline",
        elapsed
    );
    let healthz = client::get(addr, "/healthz").unwrap().body;
    assert_eq!(json_u64(&healthz, "in_flight"), 0, "{healthz}");
    assert!(metric_value(addr, "trial_queries_timeout_total") >= 2.0);
    server.shutdown();
}

#[test]
fn drain_finishes_in_flight_work_and_refuses_new_requests() {
    let server = Server::spawn(ServerConfig {
        port: 0,
        drain_grace: Duration::from_millis(400),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &chain_doc(2000)).unwrap();

    // A slow query with no deadline of its own: only drain can stop it.
    let slow =
        std::thread::spawn(move || client::post(addr, "/query?store=chain", SLOW_QUERY).unwrap());
    // An established keep-alive connection that outlives the accept loop.
    let mut keepalive = HttpClient::new(addr);
    assert_eq!(keepalive.get("/healthz").unwrap().status, 200);
    // Let the slow query reach its evaluation loop.
    std::thread::sleep(Duration::from_millis(150));

    let drained = std::thread::spawn(move || server.drain());
    // Inside the grace window: the draining server answers requests on the
    // existing connection with a complete structured 503.
    std::thread::sleep(Duration::from_millis(100));
    let refused = keepalive
        .post("/query?store=chain&limit=1", "E")
        .expect("draining server still answers established connections");
    assert_eq!(refused.status, 503, "{}", refused.body);
    assert!(
        refused.body.contains("\"kind\":\"shutdown\""),
        "{}",
        refused.body
    );

    // The in-flight slow query was cancelled with reason `shutdown` once
    // the grace window passed (it could not finish a multi-second closure
    // inside 400 ms).
    let slow_response = slow.join().unwrap();
    assert_eq!(slow_response.status, 503, "{}", slow_response.body);
    assert!(
        slow_response.body.contains("\"kind\":\"shutdown\""),
        "{}",
        slow_response.body
    );

    // Drain flushed the flight recorder; the cancelled query's span (an
    // errored request, always retained) is among the flushed records.
    let spans = drained.join().unwrap();
    assert!(
        spans
            .iter()
            .any(|s| s.error_kind.as_deref() == Some("shutdown")),
        "flushed spans: {:?}",
        spans
            .iter()
            .map(|s| (s.path.clone(), s.status, s.error_kind.clone()))
            .collect::<Vec<_>>()
    );
}

#[test]
fn drain_of_an_idle_server_returns_immediately() {
    let server = Server::spawn(ServerConfig {
        port: 0,
        drain_grace: Duration::from_secs(10),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    let started = Instant::now();
    let _spans = server.drain();
    // Nothing in flight: the grace window is an upper bound, not a sleep.
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "idle drain waited the full grace window"
    );
}

#[test]
fn shutdown_does_not_wait_out_idle_keep_alive_connections() {
    for drain in [false, true] {
        // The default 10 s read timeout: a worker left blocked reading the
        // idle connection would hold shutdown that long.
        let server = Server::spawn_ephemeral().unwrap();
        let mut idle = HttpClient::new(server.addr());
        assert_eq!(idle.get("/healthz").unwrap().status, 200);
        let started = Instant::now();
        if drain {
            server.drain();
        } else {
            server.shutdown();
        }
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "drain={drain}: shutdown took {:?} with an idle client open",
            started.elapsed()
        );
    }
}

#[test]
fn client_retries_saturated_responses_when_opted_in() {
    // A server with one permit and no wait queue sheds the second query.
    let server = Server::spawn(ServerConfig {
        port: 0,
        admission_permits: 1,
        admission_max_waiters: 0,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &chain_doc(2000)).unwrap();

    // Occupy the single permit with a slow query.
    let hog = std::thread::spawn(move || {
        client::post(addr, "/query?store=chain&timeout_ms=1500", SLOW_QUERY).unwrap()
    });
    std::thread::sleep(Duration::from_millis(200));

    // Without opt-in the 429 comes straight back…
    let mut plain = HttpClient::new(addr);
    let shed = plain.post("/query?store=chain&limit=1", "E").unwrap();
    assert_eq!(shed.status, 429, "{}", shed.body);
    assert!(shed.header("Retry-After").is_some());

    // …with opt-in the client sleeps the (capped, jittered) Retry-After
    // hint and eventually gets through once the hog's deadline fires.
    let mut retrying = HttpClient::new(addr).retry_saturated(20, Duration::from_millis(250));
    let response = retrying.post("/query?store=chain&limit=1", "E").unwrap();
    assert_eq!(response.status, 200, "{}", response.body);

    assert_eq!(hog.join().unwrap().status, 408);
    server.shutdown();
}

/// Request bodies past `trial_parser::MAX_DEPTH` or `MAX_PATH_SIZE` are
/// structured 400s at the offending offset, the bodies at the caps are
/// answered on every delivery shape, and the server keeps serving: before
/// the caps, a 1 KB body overflowed a worker's stack and aborted the
/// process.
#[test]
fn nesting_and_size_caps_reject_before_the_stack_overflows() {
    use trial_parser::{MAX_DEPTH, MAX_PATH_SIZE};
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &chain_doc(20)).unwrap();
    let mut http = HttpClient::new(addr);

    // `n` operators deep: a union chain, a closure chain, and a flat
    // alternation of `n` atoms, which is shallow but counts against the
    // path size.
    let unions = |n: usize| vec!["E"; n].join(" UNION ");
    let closures = |n: usize| format!("next{}", "?".repeat(n - 1));
    let atoms = |n: usize| vec!["next"; n].join("|");
    let cases: [(&str, &[&str], String, String); 3] = [
        (
            "/query",
            &[
                "/query",
                "/query?stream=1",
                "/explain",
                "/explain?analyze=1",
            ],
            unions(MAX_DEPTH),
            unions(MAX_DEPTH + 1),
        ),
        (
            "/path",
            &[
                "/path",
                "/path?stream=1",
                "/explain?path=1",
                "/explain?path=1&analyze=1",
            ],
            closures(MAX_DEPTH),
            closures(MAX_DEPTH + 1),
        ),
        (
            "/path",
            &["/path", "/path?stream=1", "/explain?path=1"],
            atoms(MAX_PATH_SIZE),
            atoms(MAX_PATH_SIZE + 1),
        ),
    ];
    for (rejecting, accepting, at_cap, past_cap) in &cases {
        for endpoint in *accepting {
            let sep = if endpoint.contains('?') { '&' } else { '?' };
            let response = http
                .post(&format!("{endpoint}{sep}store=chain"), at_cap)
                .unwrap();
            assert_eq!(response.status, 200, "{endpoint}: {}", response.body);
        }
        let response = http
            .post(&format!("{rejecting}?store=chain"), past_cap)
            .unwrap();
        assert_eq!(response.status, 400, "{rejecting}: {}", response.body);
        assert!(response.body.contains("\"offset\""), "{}", response.body);
    }

    // The bodies that used to abort the process.
    for (endpoint, body) in [
        ("/query", unions(1000)),
        (
            "/query",
            format!("{}E{}", "(".repeat(5000), ")".repeat(5000)),
        ),
        ("/path", closures(1001)),
    ] {
        let response = http
            .post(&format!("{endpoint}?store=chain"), &body)
            .unwrap();
        assert_eq!(response.status, 400, "{endpoint}: {}", response.body);
        assert!(response.body.contains("\"offset\""), "{}", response.body);
    }
    let healthz = client::get(addr, "/healthz").unwrap();
    assert_eq!(healthz.status, 200, "{}", healthz.body);

    // Hang up first: shutdown waits for open keep-alive connections.
    drop(http);
    server.shutdown();
}
