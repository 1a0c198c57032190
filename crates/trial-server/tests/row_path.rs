//! The row path end to end: every delivery shape — buffered, ordered and
//! fresh, sliced from the prefix cache, streamed at one and at four
//! threads — writes byte-identical `triples` arrays, also when the names
//! need escaping, and prefix slices report `count` and `truncated` exactly.

use trial_core::TriplestoreBuilder;
use trial_server::client::{self, HttpResponse};
use trial_server::Server;

/// Names that exercise each escaping rule, with their JSON string literals
/// written out by hand (the oracle does not share code with the server).
const NAMES: [(&str, &str); 9] = [
    ("q\"uote", r#""q\"uote""#),
    ("back\\slash", r#""back\\slash""#),
    ("new\nline", r#""new\nline""#),
    ("tab\tbed", r#""tab\tbed""#),
    ("sep\u{2028}arator", r#""sep\u2028arator""#),
    ("€uro", "\"€uro\""),
    ("ctl\u{1}del\u{7f}", r#""ctl\u0001del\u007f""#),
    ("crab🦀", "\"crab🦀\""),
    ("plain", "\"plain\""),
];

/// Rows in the store (enough to span several 8 KiB chunks when streamed).
const ROWS: usize = 600;

/// The `i`-th triple's names and their JSON literals.
fn triple(i: usize) -> [(String, String); 3] {
    let k = NAMES.len();
    let (s, s_json) = NAMES[i % k];
    let (p, p_json) = NAMES[(i / k) % k];
    let (o, o_json) = NAMES[(i * 5 + 2) % k];
    [
        (
            format!("{s}#{i}"),
            format!("{}#{i}\"", &s_json[..s_json.len() - 1]),
        ),
        (p.to_owned(), p_json.to_owned()),
        (
            format!("{o}!"),
            format!("{}!\"", &o_json[..o_json.len() - 1]),
        ),
    ]
}

/// Builds the store and, independently of the server's escaper, the
/// expected rendering of each row in SPO order.
fn hostile_store() -> (trial_core::Triplestore, Vec<String>) {
    let mut builder = TriplestoreBuilder::new();
    let mut json_of = std::collections::HashMap::new();
    for i in 0..ROWS {
        let [s, p, o] = triple(i);
        builder.add_triple("E", &s.0, &p.0, &o.0);
        for (name, json) in [s, p, o] {
            json_of.insert(name, json);
        }
    }
    let store = builder.finish();
    let rows = store
        .relation("E")
        .expect("relation E")
        .triples()
        .iter()
        .map(|t| {
            let name = |id| json_of[store.object_name(id)].as_str();
            format!("[{},{},{}]", name(t.s()), name(t.p()), name(t.o()))
        })
        .collect();
    (store, rows)
}

/// The first `n` expected rows as a JSON array.
fn array(rows: &[String], n: usize) -> String {
    format!("[{}]", rows[..n.min(rows.len())].join(","))
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

/// The `"triples":[...]` array of a buffered response (the stats object
/// follows it; an escaped name can never contain `,"stats"` unescaped).
fn buffered_triples(body: &str) -> &str {
    let start = body.find("\"triples\":").expect("triples field") + "\"triples\":".len();
    let end = body[start..]
        .find(",\"stats\"")
        .expect("stats after triples")
        + start;
    &body[start..end]
}

/// The `"triples":[...]` array of a streamed response (its last field).
fn streamed_triples(response: &HttpResponse) -> &str {
    let body = &response.body;
    let start = body.find("\"triples\":").expect("triples field") + "\"triples\":".len();
    assert!(body.ends_with('}'), "unterminated streamed body: {body}");
    &body[start..body.len() - 1]
}

/// Posts a buffered query and returns `(triples, count, truncated, cached)`.
fn buffered(server: &Server, path: &str) -> (String, u64, bool, bool) {
    let response = client::post(server.addr(), path, "E").unwrap();
    assert_eq!(response.status, 200, "{path}: {}", response.body);
    let body = &response.body;
    (
        buffered_triples(body).to_owned(),
        json_u64(body, "count"),
        body.contains("\"truncated\":true"),
        body.contains("\"cached\":true"),
    )
}

/// Posts a streamed query and returns `(triples, count, truncated)`.
fn streamed(server: &Server, path: &str) -> (String, u64, bool) {
    let response = client::post(server.addr(), path, "E").unwrap();
    assert_eq!(response.status, 200, "{path}: {}", response.body);
    assert!(response.chunked, "{path} was not streamed");
    let count = response.trailer("X-Trial-Count").expect("count trailer");
    let truncated = response.trailer("X-Trial-Truncated").expect("trailer");
    (
        streamed_triples(&response).to_owned(),
        count.parse().expect("numeric count"),
        truncated == "true",
    )
}

fn prefix_hits(server: &Server) -> u64 {
    server.prefix_cache().hits()
}

#[test]
fn every_delivery_shape_writes_the_same_bytes_for_hostile_names() {
    let server = Server::spawn_ephemeral().unwrap();
    let (store, rows) = hostile_store();
    let n = rows.len();
    assert_eq!(n, ROWS);
    server.registry().set("h", store);
    let full = array(&rows, n);

    // Buffered, no order: the plain body sink.
    let (triples, count, truncated, _) = buffered(&server, "/query?store=h&limit=1000");
    assert_eq!(triples, full);
    assert_eq!((count, truncated), (n as u64, false));

    // Ordered and fresh: the prefix-recording sink.
    let before = prefix_hits(&server);
    let (triples, count, truncated, cached) =
        buffered(&server, "/query?store=h&order=spo&limit=1000");
    assert!(!cached);
    assert_eq!(triples, full);
    assert_eq!((count, truncated), (n as u64, false));
    assert_eq!(prefix_hits(&server), before);

    // Prefix hits on the complete entry, just below, at and above n.
    for (limit, count, truncated) in [(n - 1, n - 1, true), (n, n, false), (n + 1, n, false)] {
        let before = prefix_hits(&server);
        let path = format!("/query?store=h&order=spo&limit={limit}");
        let got = buffered(&server, &path);
        assert_eq!(
            prefix_hits(&server),
            before + 1,
            "limit {limit}: not a prefix hit"
        );
        assert_eq!(got, (array(&rows, count), count as u64, truncated, true));
        // A fresh evaluation at the same limit agrees byte for byte.
        let fresh = buffered(&server, &format!("/query?store=h&limit={limit}"));
        assert_eq!(fresh, (got.0.clone(), got.1, got.2, false), "limit {limit}");
    }

    // Streamed, sequential and through four morsel producers.
    for threads in [1, 4] {
        let path = format!("/query?store=h&order=spo&stream=1&threads={threads}&limit=1000");
        assert_eq!(streamed(&server, &path), (full.clone(), n as u64, false));
        let path = format!("/query?store=h&order=spo&stream=1&threads={threads}&limit=17");
        assert_eq!(streamed(&server, &path), (array(&rows, 17), 17, true));
    }
}

#[test]
fn slices_of_an_incomplete_prefix_stay_truncated() {
    let server = Server::spawn_ephemeral().unwrap();
    let (store, rows) = hostile_store();
    let n = rows.len();
    server.registry().set("h", store);

    // A shallow evaluation leaves an entry of n − 2 rows that knows more
    // rows exist. (A repeat at n − 2 itself is an exact-cache hit.)
    let shallow = buffered(
        &server,
        &format!("/query?store=h&order=spo&limit={}", n - 2),
    );
    assert_eq!(shallow, (array(&rows, n - 2), (n - 2) as u64, true, false));
    for limit in [1, n - 4, n - 3] {
        let before = prefix_hits(&server);
        let got = buffered(&server, &format!("/query?store=h&order=spo&limit={limit}"));
        assert_eq!(
            prefix_hits(&server),
            before + 1,
            "limit {limit}: not a prefix hit"
        );
        assert_eq!(got, (array(&rows, limit), limit as u64, true, true));
    }
    // One row deeper than the entry: evaluated afresh, then served whole.
    let before = prefix_hits(&server);
    let deeper = buffered(
        &server,
        &format!("/query?store=h&order=spo&limit={}", n - 1),
    );
    assert_eq!(prefix_hits(&server), before);
    assert_eq!(deeper, (array(&rows, n - 1), (n - 1) as u64, true, false));
}
