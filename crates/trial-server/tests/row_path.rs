//! The row path end to end: every delivery shape — buffered, ordered and
//! fresh, sliced from the result cache, streamed at one and at four
//! threads — writes byte-identical `triples` arrays, also when the names
//! need escaping, and every cache hit (unordered, ordered, top-k and
//! `/path` slices of complete and of incomplete entries) reports the same
//! `triples`, `count`, `truncated`, `order` and `topk` as a server with the
//! cache turned off.

use trial_core::TriplestoreBuilder;
use trial_server::client::{self, HttpResponse};
use trial_server::{Server, ServerConfig};

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

/// The value of `"field":"..."` (a knob echo, never escaped), if present.
fn json_knob(body: &str, field: &str) -> Option<String> {
    let needle = format!("\"{field}\":");
    let at = body.find(&needle)? + needle.len();
    let value = body[at..].split([',', '}']).next()?;
    Some(value.trim_matches('"').to_owned())
}

/// What a buffered answer says about its rows: `triples`, `count`,
/// `truncated`, and the echoed `order` and `topk`.
#[derive(Debug, PartialEq)]
struct Answer {
    triples: String,
    count: u64,
    truncated: bool,
    order: Option<String>,
    topk: Option<String>,
}

/// Posts a buffered request and returns its answer and whether it was
/// served from the cache.
fn buffered(server: &Server, path: &str, body: &str) -> (Answer, bool) {
    let response = client::post(server.addr(), path, body).unwrap();
    assert_eq!(response.status, 200, "{path}: {}", response.body);
    let body = &response.body;
    let answer = Answer {
        triples: buffered_triples(body).to_owned(),
        count: json_u64(body, "count"),
        truncated: body.contains("\"truncated\":true"),
        order: json_knob(body, "order"),
        topk: json_knob(body, "topk"),
    };
    (answer, body.contains("\"cached\":true"))
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

/// A caching server and a cache-off oracle over the same hostile store.
fn servers() -> (Server, Server, Vec<String>) {
    let server = Server::spawn_ephemeral().unwrap();
    let oracle = Server::spawn(ServerConfig {
        cache_capacity: 0,
        ..ServerConfig::default()
    })
    .unwrap();
    let (store, rows) = hostile_store();
    server.registry().set("h", store.clone());
    oracle.registry().set("h", store);
    (server, oracle, rows)
}

/// Sends `path` to both servers: asserts that the answers agree, that the
/// oracle evaluated afresh and that the server's `cached` flag matches its
/// hit counter; returns `(answer, cached)`.
fn agree(server: &Server, oracle: &Server, path: &str, body: &str) -> (Answer, bool) {
    let before = server.cache().hits();
    let (got, cached) = buffered(server, path, body);
    assert_eq!(server.cache().hits(), before + u64::from(cached), "{path}");
    let (fresh, oracle_cached) = buffered(oracle, path, body);
    assert!(!oracle_cached, "{path}: the cache-off oracle hit");
    assert_eq!(got, fresh, "{path}: cached={cached}");
    (got, cached)
}

/// Sends `path` to both servers and asserts a hit matching the oracle.
fn hit(server: &Server, oracle: &Server, path: &str, body: &str) -> Answer {
    let (got, cached) = agree(server, oracle, path, body);
    assert!(cached, "{path}: not a cache hit");
    got
}

/// Sends `path` to both servers and asserts a miss matching the oracle.
fn miss(server: &Server, oracle: &Server, path: &str, body: &str) -> Answer {
    let (got, cached) = agree(server, oracle, path, body);
    assert!(!cached, "{path}: unexpected cache hit");
    got
}

#[test]
fn every_delivery_shape_writes_the_same_bytes_for_hostile_names() {
    let (server, oracle, rows) = servers();
    let n = rows.len();
    assert_eq!(n, ROWS);
    let full = array(&rows, n);

    // Unordered and ordered, fresh: the body sink writes the expected bytes
    // and leaves a complete entry behind.
    for shape in ["", "&order=spo"] {
        let fresh = miss(
            &server,
            &oracle,
            &format!("/query?store=h&limit=1000{shape}"),
            "E",
        );
        assert_eq!(fresh.triples, full);
        assert_eq!((fresh.count, fresh.truncated), (n as u64, false));
        // Hits on the complete entry, well below, just below, at and above n.
        for (limit, count, truncated) in [
            (1, 1, true),
            (n - 1, n - 1, true),
            (n, n, false),
            (n + 1, n, false),
        ] {
            let path = format!("/query?store=h&limit={limit}{shape}");
            let got = hit(&server, &oracle, &path, "E");
            assert_eq!(got.triples, array(&rows, count), "{path}");
            assert_eq!((got.count, got.truncated), (count as u64, truncated));
        }
    }

    // Top-k: a complete set of 40 rows, echoed knobs, sliced by limit —
    // with and without an explicit order.
    for shape in ["&topk=40", "&topk=40&order=pos", "&topk=40&order=osp"] {
        let fresh = miss(&server, &oracle, &format!("/query?store=h{shape}"), "E");
        assert_eq!((fresh.count, fresh.truncated), (40, false));
        assert_eq!(fresh.topk.as_deref(), Some("40"));
        for limit in [1, 7, 39, 40, 41] {
            hit(
                &server,
                &oracle,
                &format!("/query?store=h&limit={limit}{shape}"),
                "E",
            );
        }
    }

    // A `/path` answer (lowered to joins, and walked as an NFA) slices the
    // same way.
    for expr in ["plain", "plain/plain*"] {
        for shape in ["", "&order=spo"] {
            let path = format!("/path?store=h{shape}");
            let fresh = miss(&server, &oracle, &format!("{path}&limit=1000"), expr);
            assert!(fresh.count > 3, "{expr}: {fresh:?}");
            for limit in [1, 3, fresh.count as usize] {
                hit(&server, &oracle, &format!("{path}&limit={limit}"), expr);
            }
        }
    }

    // Count-only never touches the cache, not even on a repeat.
    for _ in 0..2 {
        let count = miss(&server, &oracle, "/query?store=h&limit=0", "E");
        assert_eq!((count.count, count.triples.as_str()), (n as u64, "[]"));
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
    let (server, oracle, rows) = servers();
    let n = rows.len();

    for shape in ["&order=spo", ""] {
        // A shallow evaluation leaves an entry of n − 2 rows that knows
        // more rows exist.
        let path = format!("/query?store=h&limit={}{shape}", n - 2);
        let shallow = miss(&server, &oracle, &path, "E");
        assert_eq!((shallow.count, shallow.truncated), ((n - 2) as u64, true));
        if shape == "&order=spo" {
            assert_eq!(shallow.triples, array(&rows, n - 2));
        }
        for limit in [1, n - 4, n - 3, n - 2] {
            let path = format!("/query?store=h&limit={limit}{shape}");
            let got = hit(&server, &oracle, &path, "E");
            assert_eq!((got.count, got.truncated), (limit as u64, true), "{path}");
        }
        // One row deeper than the entry: evaluated afresh, and the deeper
        // entry then serves it whole.
        let path = format!("/query?store=h&limit={}{shape}", n - 1);
        let deeper = miss(&server, &oracle, &path, "E");
        assert_eq!((deeper.count, deeper.truncated), ((n - 1) as u64, true));
        hit(&server, &oracle, &path, "E");
    }
}
