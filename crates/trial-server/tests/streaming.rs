//! Integration tests for the streaming serving path: `?stream=1` chunked
//! responses are byte-identical to buffered ones at every parallelism
//! degree, pagination cursors resume exactly where the previous page
//! stopped, stale/malformed cursors fail with structured errors before any
//! bytes stream, and saturated stores shed load with complete `429`s, also
//! under a concurrent keep-alive fleet.

use std::time::{Duration, Instant};
use trial_server::client::{self, HttpClient, HttpResponse};
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

/// The rendered `"triples":[...]` array of a **buffered** response (always
/// followed by the stats object inside the `result` fragment).
fn buffered_triples(body: &str) -> &str {
    let start = body.find("\"triples\":").expect("triples field") + "\"triples\":".len();
    let end = body[start..]
        .find(",\"stats\"")
        .expect("stats after triples")
        + start;
    &body[start..end]
}

/// The rendered `"triples":[...]` array of a **streamed** response (the
/// array is the last field of the body object; count/truncated arrive as
/// trailers instead).
fn streamed_triples(body: &str) -> &str {
    let start = body.find("\"triples\":").expect("triples field") + "\"triples\":".len();
    assert!(body.ends_with('}'), "unterminated streamed body: {body}");
    &body[start..body.len() - 1]
}

/// An N-Triples chain `<n0> <next> <n1> . … <n{n-1}> <next> <n{n}> .`.
fn chain_doc(n: usize) -> String {
    let mut doc = String::new();
    for i in 0..n {
        doc.push_str(&format!("<n{i}> <next> <n{}> .\n", i + 1));
    }
    doc
}

fn assert_complete_stream(response: &HttpResponse) -> (u64, bool) {
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(response.chunked, "streamed response was not chunked");
    let count: u64 = response
        .trailer("X-Trial-Count")
        .expect("X-Trial-Count trailer")
        .parse()
        .expect("numeric count trailer");
    let truncated = response
        .trailer("X-Trial-Truncated")
        .expect("X-Trial-Truncated trailer")
        == "true";
    assert!(
        response.trailer("X-Trial-Elapsed-Us").is_some(),
        "missing elapsed trailer"
    );
    (count, truncated)
}

#[test]
fn streamed_rows_match_buffered_at_every_degree() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();
    // Big enough to cross the parallel-morsel threshold (2048 rows), so
    // degrees > 1 exercise real exchange fan-out, not a sequential fallback.
    client::post(addr, "/load?store=chain", &chain_doc(3000)).unwrap();

    // One keep-alive connection carries the whole matrix: buffered and
    // chunked responses interleave on the same socket.
    let mut http = HttpClient::new(addr);
    for query in ["E", "SELECT[1!=3](E)", "(E JOIN[1,2,3' | 3=1'] E)"] {
        for threads in [1_usize, 2, 4] {
            for order in ["", "&order=pos"] {
                let path = format!("/query?store=chain&limit=100000&threads={threads}{order}");
                let buffered = http.post(&path, query).unwrap();
                assert_eq!(buffered.status, 200, "{}", buffered.body);
                assert!(!buffered.chunked);
                let streamed = http.post(&format!("{path}&stream=1"), query).unwrap();
                let (count, truncated) = assert_complete_stream(&streamed);
                assert_eq!(count, json_u64(&buffered.body, "count"));
                assert!(!truncated, "unexpected truncation for {query}");
                // Unordered plans are only row-set deterministic in general,
                // but this engine's pipelines are: the streamed body must be
                // byte-identical to the buffered rendering, order or not.
                assert_eq!(
                    streamed_triples(&streamed.body),
                    buffered_triples(&buffered.body),
                    "stream/buffer divergence for `{query}` at threads={threads} order={order:?}"
                );
                assert!(streamed.body.contains("\"stream\":true"));
            }
        }
    }

    // Top-k streams too: the head echoes order+topk and the bounded result
    // is complete (no cursor — top-k sets cannot resume).
    let topk = http
        .post("/query?store=chain&topk=5&stream=1", "E")
        .unwrap();
    let (count, truncated) = assert_complete_stream(&topk);
    assert_eq!(count, 5);
    assert!(!truncated);
    assert!(topk.body.contains("\"order\":\"spo\""), "{}", topk.body);
    assert!(topk.body.contains("\"topk\":5"), "{}", topk.body);
    assert!(topk.trailer("X-Trial-Cursor").is_none());

    server.shutdown();
}

/// Walks a 100-row ordered result of `store` (URL-encoded) in pages of 25
/// by cursor and checks that the pages concatenate to the one-shot result.
fn walk_pages(server: &Server, store: &str) {
    let addr = server.addr();
    let load = client::post(addr, &format!("/load?store={store}"), &chain_doc(100)).unwrap();
    assert_eq!(load.status, 200, "{}", load.body);
    let mut http = HttpClient::new(addr);

    let full = http
        .post(&format!("/query?store={store}&order=spo"), "E")
        .unwrap();
    assert_eq!(full.status, 200, "{}", full.body);
    let full_rows = buffered_triples(&full.body);
    let full_rows = &full_rows[1..full_rows.len() - 1]; // strip [ ]

    let mut collected = String::new();
    let mut pages = 0;
    let mut cursor: Option<String> = None;
    loop {
        let path = match &cursor {
            None => format!("/query?store={store}&order=spo&limit=25&stream=1"),
            Some(token) => format!("/query?store={store}&limit=25&cursor={token}"),
        };
        let page = http.post(&path, "E").unwrap();
        assert_eq!(
            page.status,
            200,
            "{store} page {}: {}",
            pages + 1,
            page.body
        );
        let (count, truncated) = assert_complete_stream(&page);
        pages += 1;
        assert_eq!(count, 25, "short page {pages}: {}", page.body);
        // Resumed pages say so in the head; the first page does not.
        assert_eq!(
            page.body.contains("\"resumed\":true"),
            cursor.is_some(),
            "{}",
            page.body
        );
        let rows = streamed_triples(&page.body);
        let rows = &rows[1..rows.len() - 1];
        if !rows.is_empty() {
            if !collected.is_empty() {
                collected.push(',');
            }
            collected.push_str(rows);
        }
        match page.trailer("X-Trial-Cursor") {
            Some(token) => {
                assert!(truncated, "cursor on an unfinished page {pages}");
                cursor = Some(token.to_owned());
            }
            None => {
                assert!(!truncated, "truncated page {pages} without a cursor");
                break;
            }
        }
        assert!(pages < 10, "pagination did not converge");
    }
    assert_eq!(pages, 4); // 100 rows / 25 per page
    assert_eq!(
        collected, full_rows,
        "page concatenation diverged from the one-shot ordered result"
    );
}

#[test]
fn pagination_pages_concatenate_to_the_full_ordered_result() {
    let server = Server::spawn_ephemeral().unwrap();
    walk_pages(&server, "chain");
    server.shutdown();
}

/// The cursor carries the store name, so a name with the token's own field
/// separator in it must still resume.
#[test]
fn pagination_resumes_on_store_names_containing_a_pipe() {
    let server = Server::spawn_ephemeral().unwrap();
    walk_pages(&server, "a%7Cb");
    walk_pages(&server, "%7C");
    server.shutdown();
}

#[test]
fn cursor_errors_are_structured_and_buffered() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &chain_doc(50)).unwrap();
    client::post(addr, "/load?store=other", &chain_doc(5)).unwrap();
    let mut http = HttpClient::new(addr);

    let page = http
        .post("/query?store=chain&order=spo&limit=10&stream=1", "E")
        .unwrap();
    let token = page
        .trailer("X-Trial-Cursor")
        .expect("truncated ordered stream mints a cursor")
        .to_owned();

    // Malformed token: not even valid base64url.
    let garbage = http.post("/query?store=chain&cursor=@@!", "E").unwrap();
    assert_eq!(garbage.status, 400, "{}", garbage.body);
    assert!(garbage.body.contains("bad_cursor"), "{}", garbage.body);
    assert!(!garbage.chunked, "errors must be buffered");

    // Valid alphabet, corrupt content (checksum mismatch).
    let corrupt = http
        .post(&format!("/query?store=chain&cursor=AA{token}"), "E")
        .unwrap();
    assert_eq!(corrupt.status, 400, "{}", corrupt.body);
    assert!(corrupt.body.contains("bad_cursor"), "{}", corrupt.body);

    // Cursors resume streams; top-k responses are complete sets.
    let topk = http
        .post(&format!("/query?store=chain&topk=3&cursor={token}"), "E")
        .unwrap();
    assert_eq!(topk.status, 400, "{}", topk.body);
    assert!(topk.body.contains("bad_cursor"), "{}", topk.body);

    // The token names its order; contradicting it is an error, not a re-sort.
    let reorder = http
        .post(&format!("/query?store=chain&order=pos&cursor={token}"), "E")
        .unwrap();
    assert_eq!(reorder.status, 400, "{}", reorder.body);
    assert!(reorder.body.contains("bad_cursor"), "{}", reorder.body);

    // Tokens are store-scoped.
    let wrong_store = http
        .post(&format!("/query?store=other&cursor={token}"), "E")
        .unwrap();
    assert_eq!(wrong_store.status, 400, "{}", wrong_store.body);
    assert!(
        wrong_store.body.contains("bad_cursor"),
        "{}",
        wrong_store.body
    );

    // Reloading the store bumps its epoch: old row keys are meaningless in
    // the new snapshot, so the cursor is gone, not retryable.
    client::post(addr, "/load?store=chain", "<x> <next> <y> .\n").unwrap();
    let stale = http
        .post(&format!("/query?store=chain&cursor={token}"), "E")
        .unwrap();
    assert_eq!(stale.status, 410, "{}", stale.body);
    assert!(stale.body.contains("stale_cursor"), "{}", stale.body);
    assert!(stale.body.contains("restart pagination"), "{}", stale.body);

    // The connection survived every rejection: a good request still works.
    let ok = http.post("/query?store=chain&stream=1", "E").unwrap();
    assert_complete_stream(&ok);

    server.shutdown();
}

#[test]
fn saturated_stores_shed_load_with_structured_429() {
    let server = Server::spawn(ServerConfig {
        admission_permits: 1,
        admission_max_waiters: 0,
        admission_wait: Duration::from_millis(50),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &chain_doc(100)).unwrap();

    // Hold the store's only permit from the outside: every fresh evaluation
    // is now deterministically saturated.
    let held = server.admission().acquire("chain").unwrap();

    let buffered = client::post(addr, "/query?store=chain", "E").unwrap();
    assert_eq!(buffered.status, 429, "{}", buffered.body);
    assert!(buffered.body.contains("saturated"), "{}", buffered.body);
    let retry_after = buffered
        .header("Retry-After")
        .expect("429 carries Retry-After");
    assert!(retry_after.parse::<u64>().unwrap() >= 1);

    // Streaming requests are admission-checked before any bytes go out, so
    // the rejection is an ordinary complete response too.
    let streamed = client::post(addr, "/query?store=chain&stream=1", "E").unwrap();
    assert_eq!(streamed.status, 429, "{}", streamed.body);
    assert!(!streamed.chunked);
    assert!(streamed.header("Retry-After").is_some());

    // Other stores have their own gates.
    client::post(addr, "/load?store=open", &chain_doc(5)).unwrap();
    let other = client::post(addr, "/query?store=open", "E").unwrap();
    assert_eq!(other.status, 200, "{}", other.body);

    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(json_u64(&health.body, "permits"), 1);
    assert_eq!(json_u64(&health.body, "in_flight"), 1); // the held permit
    assert!(json_u64(&health.body, "rejected") >= 2);

    // Releasing the permit reopens the store; the fresh result then seeds
    // the cache, and cache hits bypass admission entirely.
    drop(held);
    let fresh = client::post(addr, "/query?store=chain", "E").unwrap();
    assert_eq!(fresh.status, 200, "{}", fresh.body);
    let _held = server.admission().acquire("chain").unwrap();
    let cached = client::post(addr, "/query?store=chain", "E").unwrap();
    assert_eq!(cached.status, 200, "{}", cached.body);
    assert!(cached.body.contains("\"cached\":true"), "{}", cached.body);

    server.shutdown();
}

/// A keep-alive client fleet under tight admission: 8 clients × 20 mixed
/// requests (a cacheable join, fresh buffered and streamed scans, ordered
/// pages walked by cursor) against one permit and no waiters. Every
/// response must be a complete `200` (streamed ones chunked through the
/// terminal chunk and its trailers) or a structured `429` with
/// `Retry-After`; once the fleet is gone no permit may stay in flight.
#[test]
fn a_saturated_keep_alive_fleet_gets_only_complete_200s_or_structured_429s() {
    const CLIENTS: usize = 8;
    const REQUESTS: usize = 20;
    let server = Server::spawn(ServerConfig {
        // Thread-per-connection: one worker per keep-alive client plus
        // headroom for the /healthz poll below.
        workers: CLIENTS + 2,
        admission_permits: 1,
        admission_max_waiters: 0,
        admission_wait: Duration::from_millis(50),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=scan", &chain_doc(2_000)).unwrap();

    let tallies: Vec<[u64; 3]> = std::thread::scope(|scope| {
        let fleet: Vec<_> = (0..CLIENTS)
            .map(|id| {
                scope.spawn(move || {
                    let mut http = HttpClient::new(addr);
                    // [buffered 200s, streamed 200s, 429s]
                    let mut tally = [0_u64; 3];
                    let mut cursor: Option<String> = None;
                    for i in 0..REQUESTS {
                        // Distinct limits keep scans cache-cold, so they pay
                        // admission on every request.
                        let limit = 500 + (id * REQUESTS + i) % 1_000;
                        let (path, query, streamed) = match id % 4 {
                            0 => (
                                "/query?store=scan".to_owned(),
                                "(E JOIN[1,3',3 | 3=1'] E)",
                                false,
                            ),
                            1 => (format!("/query?store=scan&limit={limit}"), "E", false),
                            2 => (
                                format!("/query?store=scan&limit={limit}&stream=1"),
                                "E",
                                true,
                            ),
                            _ => match cursor.take() {
                                Some(token) => (
                                    format!("/query?store=scan&limit=100&cursor={token}"),
                                    "E",
                                    true,
                                ),
                                None => (
                                    "/query?store=scan&order=spo&limit=100&stream=1".to_owned(),
                                    "E",
                                    true,
                                ),
                            },
                        };
                        let response = http
                            .post(&path, query)
                            .unwrap_or_else(|e| panic!("{path}: hang, reset or truncation: {e}"));
                        match response.status {
                            200 if streamed => {
                                assert_complete_stream(&response);
                                cursor = response.trailer("X-Trial-Cursor").map(str::to_owned);
                                tally[1] += 1;
                            }
                            200 => {
                                assert!(!response.chunked, "{path}: buffered 200 was chunked");
                                assert!(response.body.contains("\"count\":"), "{}", response.body);
                                tally[0] += 1;
                            }
                            429 => {
                                assert!(!response.chunked, "{path}: a 429 must not stream");
                                assert!(response.body.contains("saturated"), "{}", response.body);
                                let retry = response
                                    .header("Retry-After")
                                    .expect("429 carries Retry-After");
                                assert!(retry.parse::<u64>().unwrap() >= 1);
                                tally[2] += 1;
                                // Back off briefly, as a client honouring
                                // Retry-After would, so the fleet's requests
                                // interleave instead of all colliding at once.
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            other => panic!("{path}: unexpected status {other}: {}", response.body),
                        }
                    }
                    tally
                })
            })
            .collect();
        fleet.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let [buffered, streamed, shed] = tallies.iter().fold([0; 3], |acc, t| {
        [acc[0] + t[0], acc[1] + t[1], acc[2] + t[2]]
    });
    assert_eq!(buffered + streamed + shed, (CLIENTS * REQUESTS) as u64);
    assert!(
        buffered > 0 && streamed > 0,
        "the fleet must see buffered and streamed successes: \
         {buffered} buffered, {streamed} streamed, {shed} shed"
    );

    // A client sees its complete response a hair before the server-side job
    // drops its permit, so poll briefly instead of trusting one snapshot.
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let health = client::get(addr, "/healthz").unwrap();
        assert_eq!(health.status, 200);
        if json_u64(&health.body, "in_flight") == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "permits leaked: {}", health.body);
        std::thread::sleep(Duration::from_millis(20));
    }

    server.shutdown();
}

#[test]
fn prefix_cache_serves_smaller_limits_from_one_deep_evaluation() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &chain_doc(200)).unwrap();
    let query = "SELECT[1!=3](E)";

    let deep = client::post(addr, "/query?store=chain&order=spo&limit=50", query).unwrap();
    assert_eq!(deep.status, 200, "{}", deep.body);
    assert!(deep.body.contains("\"cached\":false"), "{}", deep.body);
    assert_eq!(json_u64(&deep.body, "count"), 50);

    // A smaller limit under the same (store, epoch, text, threads, order) is
    // a slice of the cached entry: served as a hit without re-evaluating.
    let shallow = client::post(addr, "/query?store=chain&order=spo&limit=10", query).unwrap();
    assert_eq!(shallow.status, 200, "{}", shallow.body);
    assert!(shallow.body.contains("\"cached\":true"), "{}", shallow.body);
    assert_eq!(json_u64(&shallow.body, "count"), 10);
    assert!(shallow.body.contains("\"truncated\":true"));
    let deep_rows = buffered_triples(&deep.body);
    let shallow_rows = buffered_triples(&shallow.body);
    assert!(
        deep_rows.starts_with(&shallow_rows[..shallow_rows.len() - 1]),
        "sliced prefix is not a prefix: {shallow_rows} vs {deep_rows}"
    );
    let health = client::get(addr, "/healthz").unwrap();
    assert!(json_u64(&health.body, "hits") >= 1, "{}", health.body);

    // A complete (untruncated) evaluation replaces the partial prefix and
    // covers *every* limit from then on.
    let full = client::post(addr, "/query?store=chain&order=spo&limit=10000", query).unwrap();
    assert_eq!(json_u64(&full.body, "count"), 200);
    assert!(full.body.contains("\"truncated\":false"), "{}", full.body);
    let between = client::post(addr, "/query?store=chain&order=spo&limit=120", query).unwrap();
    assert!(between.body.contains("\"cached\":true"), "{}", between.body);
    assert_eq!(json_u64(&between.body, "count"), 120);
    assert!(between.body.contains("\"truncated\":true"));

    server.shutdown();
}

#[test]
fn streaming_failures_before_the_head_are_buffered_and_keep_alive() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=chain", &chain_doc(20)).unwrap();
    let mut http = HttpClient::new(addr);

    // Parse errors, the stream-less count path and unknown stores all fail
    // during up-front validation: complete buffered errors, no chunking.
    let parse = http
        .post("/query?store=chain&stream=1", "(E JOIN[1,2")
        .unwrap();
    assert_eq!(parse.status, 400, "{}", parse.body);
    assert!(!parse.chunked);

    let count_only = http
        .post("/query?store=chain&limit=0&stream=1", "E")
        .unwrap();
    assert_eq!(count_only.status, 400, "{}", count_only.body);
    assert!(
        count_only.body.contains("no streaming form"),
        "{}",
        count_only.body
    );

    let missing = http.post("/query?store=nope&stream=1", "E").unwrap();
    assert_eq!(missing.status, 404, "{}", missing.body);
    assert!(missing.body.contains("unknown_store"), "{}", missing.body);

    // None of those poisoned the connection.
    let ok = http.post("/query?store=chain&stream=1", "E").unwrap();
    let (count, _) = assert_complete_stream(&ok);
    assert_eq!(count, 20);

    let health = http.get("/healthz").unwrap();
    assert!(json_u64(&health.body, "queries_streamed") >= 1);

    server.shutdown();
}
