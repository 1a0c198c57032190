//! Integration tests for the `/path` endpoint: regular path queries over
//! real sockets. Theorem 7 parity (the NFA walk `/path` runs returns the
//! same rows as `/query` of the path's TriAL\* lowering), the `PathNfa`
//! plan through `/explain?path=1`, delivery knobs
//! (limit/order/topk/stream/cursor) matching `/query` semantics, cache
//! namespacing, the structured knob errors, store names containing a
//! literal `+` surviving path/query decoding end to end, and a
//! case-insensitive `?order=` with an `accepted` list in the failure body.

use trial_eval::rpq;
use trial_server::client::{self, HttpClient, HttpResponse};
use trial_server::Server;

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

/// The rendered `"triples":[...]` array of a buffered response.
fn buffered_triples(body: &str) -> &str {
    let start = body.find("\"triples\":").expect("triples field") + "\"triples\":".len();
    let end = body[start..]
        .find(",\"stats\"")
        .expect("stats after triples")
        + start;
    &body[start..end]
}

/// The rendered `"triples":[...]` array of a streamed response (last field
/// of the body object; count arrives as a trailer).
fn streamed_triples(body: &str) -> &str {
    let start = body.find("\"triples\":").expect("triples field") + "\"triples\":".len();
    assert!(body.ends_with('}'), "unterminated streamed body: {body}");
    &body[start..body.len() - 1]
}

/// An N-Triples chain whose edge labels alternate `a`, `b`, `a`, `b`, …
fn labeled_chain_doc(n: usize) -> String {
    let mut doc = String::new();
    for i in 0..n {
        let label = if i % 2 == 0 { "a" } else { "b" };
        doc.push_str(&format!("<n{i}> <{label}> <n{}> .\n", i + 1));
    }
    doc
}

fn ok(response: HttpResponse) -> HttpResponse {
    assert_eq!(response.status, 200, "{}", response.body);
    response
}

#[test]
fn path_strategies_agree_and_bounds_bound() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &labeled_chain_doc(40)).unwrap();
    let mut http = HttpClient::new(addr);

    // The walk returns the same rows as the path's TriAL lowering, sent
    // to `/query` as an ordinary expression.
    for path in [
        "a",
        "a/b",
        "a/b/a/b",
        "(a|b)/(a|b)",
        "a?/b",
        "(a/b)*",
        "(a|b)+",
    ] {
        let walked = ok(http.post("/path?store=chain&order=spo", path).unwrap());
        let lowered = rpq::lower(&trial_parser::parse_path(path).unwrap(), "E").to_string();
        let lowered = ok(http.post("/query?store=chain&order=spo", &lowered).unwrap());
        assert_eq!(
            buffered_triples(&walked.body),
            buffered_triples(&lowered.body),
            "walk/lowering divergence for `{path}`"
        );
    }

    // `(a|b)+` over the 40-edge chain: all 820 ordered pairs, and with
    // `?max_hops=3` exactly the pairs at walk distance 1..=3
    // (40 + 39 + 38 = 117).
    let full = ok(http.post("/path?store=chain", "(a|b)+").unwrap());
    assert_eq!(json_u64(&full.body, "count"), 820);
    let bounded = ok(http.post("/path?store=chain&max_hops=3", "(a|b)+").unwrap());
    assert_eq!(json_u64(&bounded.body, "count"), 117);

    server.shutdown();
}

#[test]
fn path_explain_reports_the_resolved_strategy() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &labeled_chain_doc(10)).unwrap();
    let mut http = HttpClient::new(addr);

    // Concatenations, closures and hop bounds all plan the product walk;
    // a leftover `?algo=` is ignored like any unknown parameter.
    for (knobs, path) in [
        ("", "a/b"),
        ("", "(a/b)*"),
        ("&max_hops=3", "a/b"),
        ("&algo=lower", "a/b"),
    ] {
        let explained = ok(http
            .post(&format!("/explain?store=chain&path=1{knobs}"), path)
            .unwrap());
        let body = &explained.body;
        assert!(body.contains("PathNfa"), "{body}");
        assert!(!body.contains("Join"), "{body}");
        assert!(body.contains("\"relation\":\"E\""), "{body}");
        assert_eq!(
            body.contains("\"max_hops\":3"),
            knobs.contains("max_hops"),
            "{body}"
        );
    }

    server.shutdown();
}

#[test]
fn path_knob_errors_are_structured() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &labeled_chain_doc(4)).unwrap();
    let mut http = HttpClient::new(addr);

    let bad_hops = http.post("/path?store=chain&max_hops=lots", "a").unwrap();
    assert_eq!(bad_hops.status, 400, "{}", bad_hops.body);

    // An unparsable path expression is a structured parse error.
    let bad_path = http.post("/path?store=chain", "a//b").unwrap();
    assert_eq!(bad_path.status, 400, "{}", bad_path.body);
    assert!(bad_path.body.contains("\"kind\""), "{}", bad_path.body);

    server.shutdown();
}

#[test]
fn order_values_are_case_insensitive_with_accepted_list_on_failure() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &labeled_chain_doc(6)).unwrap();
    let mut http = HttpClient::new(addr);

    // Any casing of a valid permutation is accepted and echoed lowercase,
    // on /query and /path alike.
    for (endpoint, body) in [("/query", "E"), ("/path", "a")] {
        for raw in ["SPO", "sPo", "POS", "Osp"] {
            let response = ok(http
                .post(&format!("{endpoint}?store=chain&order={raw}"), body)
                .unwrap());
            let echoed = format!("\"order\":\"{}\"", raw.to_ascii_lowercase());
            assert!(response.body.contains(&echoed), "{}", response.body);
        }
    }

    // A genuinely unparsable value fails with the accepted list spelled out.
    let bad = http.post("/query?store=chain&order=sop", "E").unwrap();
    assert_eq!(bad.status, 400, "{}", bad.body);
    assert!(
        bad.body.contains("\"accepted\":[\"spo\",\"pos\",\"osp\"]"),
        "{}",
        bad.body
    );
    assert!(bad.body.contains("`sop`"), "{}", bad.body);

    server.shutdown();
}

#[test]
fn path_streams_and_pages_like_query() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &labeled_chain_doc(60)).unwrap();
    let mut http = HttpClient::new(addr);

    // Streamed rows are byte-identical to the buffered rendering.
    let buffered = ok(http.post("/path?store=chain&order=spo", "(a|b)+").unwrap());
    let streamed = http
        .post("/path?store=chain&order=spo&stream=1", "(a|b)+")
        .unwrap();
    assert_eq!(streamed.status, 200, "{}", streamed.body);
    assert!(streamed.chunked, "streamed /path response was not chunked");
    assert_eq!(
        streamed_triples(&streamed.body),
        buffered_triples(&buffered.body)
    );
    let count: u64 = streamed
        .trailer("X-Trial-Count")
        .expect("count trailer")
        .parse()
        .unwrap();
    assert_eq!(count, json_u64(&buffered.body, "count"));

    // Cursor pages concatenate to the full ordered result.
    let full_rows = buffered_triples(&buffered.body);
    let full_rows = &full_rows[1..full_rows.len() - 1]; // strip [ ]
    let mut collected = String::new();
    let mut cursor: Option<String> = None;
    let mut pages = 0;
    loop {
        let path = match &cursor {
            None => "/path?store=chain&order=spo&limit=700&stream=1".to_owned(),
            Some(token) => format!("/path?store=chain&limit=700&cursor={token}"),
        };
        let page = http.post(&path, "(a|b)+").unwrap();
        assert_eq!(page.status, 200, "{}", page.body);
        pages += 1;
        let rows = streamed_triples(&page.body);
        let rows = &rows[1..rows.len() - 1];
        if !rows.is_empty() {
            if !collected.is_empty() {
                collected.push(',');
            }
            collected.push_str(rows);
        }
        match page.trailer("X-Trial-Cursor") {
            Some(token) => cursor = Some(token.to_owned()),
            None => break,
        }
        assert!(pages < 20, "cursor loop did not terminate");
    }
    assert!(pages > 1, "limit never paged");
    assert_eq!(collected, full_rows, "pages diverge from the full result");

    server.shutdown();
}

#[test]
fn path_cache_keys_are_namespaced_by_knobs_and_epoch() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &labeled_chain_doc(8)).unwrap();
    let mut http = HttpClient::new(addr);

    let first = ok(http.post("/path?store=chain", "a/b").unwrap());
    assert!(first.body.contains("\"cached\":false"), "{}", first.body);
    let repeat = ok(http.post("/path?store=chain", "a/b").unwrap());
    assert!(repeat.body.contains("\"cached\":true"), "{}", repeat.body);

    // A different hop bound is a different fragment.
    let bounded = ok(http.post("/path?store=chain&max_hops=2", "a/b").unwrap());
    assert!(
        bounded.body.contains("\"cached\":false"),
        "{}",
        bounded.body
    );

    // Reloading the store bumps the epoch and invalidates path fragments.
    client::post(addr, "/load?store=chain", &labeled_chain_doc(8)).unwrap();
    let after_bump = ok(http.post("/path?store=chain", "a/b").unwrap());
    assert!(
        after_bump.body.contains("\"cached\":false"),
        "{}",
        after_bump.body
    );

    server.shutdown();
}

#[test]
fn store_names_with_literal_plus_survive_decoding() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();

    // `%2B` names the store `a+b`; a bare `+` in the query string still
    // decodes to a space, so `store=a+b` would mean `a b`.
    let load = client::post(addr, "/load?store=a%2Bb", &labeled_chain_doc(4)).unwrap();
    assert_eq!(load.status, 200, "{}", load.body);
    assert!(load.body.contains("\"store\":\"a+b\""), "{}", load.body);

    let listed = client::get(addr, "/stores").unwrap();
    assert!(listed.body.contains("\"name\":\"a+b\""), "{}", listed.body);

    let queried = client::post(addr, "/query?store=a%2Bb", "E").unwrap();
    assert_eq!(queried.status, 200, "{}", queried.body);
    assert_eq!(json_u64(&queried.body, "count"), 4);
    let pathed = client::post(addr, "/path?store=a%2Bb", "a/b").unwrap();
    assert_eq!(pathed.status, 200, "{}", pathed.body);

    // The space-named store does not exist.
    let spaced = client::post(addr, "/query?store=a+b", "E").unwrap();
    assert_eq!(spaced.status, 404, "{}", spaced.body);
    assert!(spaced.body.contains("unknown_store"), "{}", spaced.body);
    assert!(spaced.body.contains("`a b`"), "{}", spaced.body);

    server.shutdown();
}
