//! End-to-end integration tests for the HTTP query service: routing, error
//! shapes, snapshot isolation under concurrent load/query traffic, and
//! LRU-cache behaviour across epoch bumps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use trial_core::Permutation;
use trial_server::{client, Server, ServerConfig};

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

/// The raw (still JSON-escaped) value of `"field":"…"` in a flat JSON
/// rendering.
fn json_str<'a>(body: &'a str, field: &str) -> &'a str {
    let needle = format!("\"{field}\":\"");
    let start = body
        .find(&needle)
        .unwrap_or_else(|| panic!("no `{needle}` in `{body}`"))
        + needle.len();
    let mut escaped = false;
    for (at, c) in body[start..].char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' => escaped = true,
            '"' => return &body[start..start + at],
            _ => {}
        }
    }
    panic!("unterminated `{needle}` in `{body}`")
}

/// An N-Triples batch of `count` unique triples tagged by `tag`.
fn batch(tag: &str, count: usize) -> String {
    let mut doc = String::new();
    for i in 0..count {
        doc.push_str(&format!("<{tag}s{i}> <p> <{tag}o{i}> .\n"));
    }
    doc
}

#[test]
fn endpoints_roundtrip_over_http() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();

    // Empty service: healthz is alive, querying has nothing to target.
    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"status\":\"ok\""));
    assert_eq!(json_u64(&health.body, "stores"), 0);
    let no_store = client::post(addr, "/query", "E").unwrap();
    assert_eq!(no_store.status, 400);
    assert!(no_store.body.contains("no_store_selected"));

    // Routing errors are structured.
    assert_eq!(client::get(addr, "/nope").unwrap().status, 404);
    let wrong_method = client::get(addr, "/query").unwrap();
    assert_eq!(wrong_method.status, 405);
    assert!(wrong_method.body.contains("method_not_allowed"));

    // Load the Figure 1 transport network.
    let doc = "\
<StAndrews> <BusOp1> <Edinburgh> .
<Edinburgh> <TrainOp1> <London> .
<London> <TrainOp2> <Brussels> .
<BusOp1> <part_of> <NatExpress> .
<TrainOp1> <part_of> <EastCoast> .
<TrainOp2> <part_of> <Eurostar> .
<EastCoast> <part_of> <NatExpress> .
";
    let load = client::post(addr, "/load?store=fig1", doc).unwrap();
    assert_eq!(load.status, 200, "{}", load.body);
    assert_eq!(json_u64(&load.body, "epoch"), 1);
    assert_eq!(json_u64(&load.body, "triples_added"), 7);

    // /stores sees it.
    let stores = client::get(addr, "/stores").unwrap();
    assert!(stores.body.contains("\"name\":\"fig1\""));
    assert_eq!(json_u64(&stores.body, "triples"), 7);

    // Example 2 of the paper over the wire (single store: ?store= optional).
    let query = client::post(addr, "/query", "(E JOIN[1,3',3 | 2=1'] E)").unwrap();
    assert_eq!(query.status, 200, "{}", query.body);
    assert_eq!(json_u64(&query.body, "count"), 3);
    assert!(query.body.contains(r#"["Edinburgh","EastCoast","London"]"#));
    assert!(query.body.contains("\"cached\":false"));
    assert!(query.body.contains("\"stats\":"));

    // /explain renders the physical plan without executing.
    let explain = client::post(addr, "/explain", "(E JOIN[1,3',3 | 2=1'] E)").unwrap();
    assert_eq!(explain.status, 200);
    assert!(explain.body.contains("IndexScan"), "{}", explain.body);

    // Parse errors carry the byte offset of the failing token.
    let bad = client::post(addr, "/query?store=fig1", "E JOIN[1,2,4] E").unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("\"kind\":\"parse\""));
    assert_eq!(json_u64(&bad.body, "offset"), 11);

    // Unknown stores 404; unknown relations are query errors.
    assert_eq!(
        client::post(addr, "/query?store=ghost", "E")
            .unwrap()
            .status,
        404
    );
    let unknown_rel = client::post(addr, "/query?store=fig1", "F").unwrap();
    assert_eq!(unknown_rel.status, 400);
    assert!(unknown_rel.body.contains("unknown_relation"));

    // ?limit= is pushed into the plan: evaluation stops after the limit, so
    // the response carries exactly the returned rows plus a truncation flag.
    let limited = client::post(addr, "/query?store=fig1&limit=1", "E").unwrap();
    assert_eq!(json_u64(&limited.body, "count"), 1);
    assert!(limited.body.contains("\"truncated\":true"));

    // Different limits are different cache entries: the same text with the
    // default limit must not be served the truncated fragment.
    let full = client::post(addr, "/query?store=fig1", "E").unwrap();
    assert_eq!(json_u64(&full.body, "count"), 7);
    assert!(full.body.contains("\"truncated\":false"), "{}", full.body);
    // And ?limit=0 is the count-only fast path: exact cardinality, no rows.
    let count_only = client::post(addr, "/query?store=fig1&limit=0", "E").unwrap();
    assert_eq!(json_u64(&count_only.body, "count"), 7);
    assert!(count_only.body.contains("\"triples\":[]"));

    server.shutdown();
}

/// `?limit=` rides the plan as a `Limit` node: bounded queries do strictly
/// less evaluation work than unbounded ones, one complete cache entry
/// serves every limit, and `/explain` exposes the pushdown as plan metadata.
#[test]
fn limit_pushdown_terminates_early_and_keys_the_cache() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();
    // A 200-edge chain: reach-style joins over it emit plenty of rows.
    let mut doc = String::new();
    for i in 0..200 {
        doc.push_str(&format!("<n{i}> <next> <n{}> .\n", i + 1));
    }
    client::post(addr, "/load?store=chain", &doc).unwrap();

    // The join has 199 result rows; a limit of 3 returns exactly 3 and
    // reports the early cut.
    let query = "(E JOIN[1,2,3' | 3=1'] E)";
    let bounded = client::post(addr, "/query?store=chain&limit=3", query).unwrap();
    assert_eq!(bounded.status, 200, "{}", bounded.body);
    assert_eq!(json_u64(&bounded.body, "count"), 3);
    assert!(bounded.body.contains("\"truncated\":true"));
    let full = client::post(addr, "/query?store=chain", query).unwrap();
    assert_eq!(json_u64(&full.body, "count"), 199);
    assert!(full.body.contains("\"truncated\":false"));

    // Early termination is observable in the work counters: the bounded
    // evaluation considered far fewer candidate pairs.
    let bounded_pairs = json_u64(&bounded.body, "pairs_considered");
    let full_pairs = json_u64(&full.body, "pairs_considered");
    assert!(
        bounded_pairs * 10 <= full_pairs,
        "limit pushdown did not cut work: {bounded_pairs} vs {full_pairs} pairs"
    );

    // The complete evaluation left one entry that answers every limit by
    // slicing: repeats and other limits hit alike.
    let again = client::post(addr, "/query?store=chain&limit=3", query).unwrap();
    assert!(again.body.contains("\"cached\":true"), "{}", again.body);
    assert_eq!(json_u64(&again.body, "count"), 3);
    let other = client::post(addr, "/query?store=chain&limit=5", query).unwrap();
    assert!(other.body.contains("\"cached\":true"), "{}", other.body);
    assert_eq!(json_u64(&other.body, "count"), 5);
    assert!(other.body.contains("\"truncated\":true"), "{}", other.body);

    // The count-only path still reports the exact cardinality (it drains a
    // counting cursor instead of rendering rows).
    let count_only = client::post(addr, "/query?store=chain&limit=0", query).unwrap();
    assert_eq!(json_u64(&count_only.body, "count"), 199);
    assert!(count_only.body.contains("\"triples\":[]"));

    // /explain shows the pushed-down limit and machine-readable pipeline
    // metadata; limited and unlimited explains are cached separately.
    let explained = client::post(addr, "/explain?store=chain&limit=3", query).unwrap();
    assert!(explained.body.contains("Limit 3"), "{}", explained.body);
    assert!(
        explained.body.contains("\"pipelined\":true"),
        "{}",
        explained.body
    );
    assert!(explained.body.contains("\"tree\":"), "{}", explained.body);
    let plain = client::post(addr, "/explain?store=chain", query).unwrap();
    assert!(plain.body.contains("\"cached\":false"), "{}", plain.body);
    assert!(!plain.body.contains("Limit 3"), "{}", plain.body);

    server.shutdown();
}

#[test]
fn untrusted_input_is_bounded() {
    // Tight limits so the test is fast: tiny bodies, tiny universe.
    let config = ServerConfig {
        max_body_bytes: 256,
        eval: trial_eval::EvalOptions {
            max_universe: 50,
            max_fixpoint_rounds: 4,
            ..trial_eval::EvalOptions::default()
        },
        ..ServerConfig::default()
    };
    let server = Server::spawn(config).unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=s", &batch("t", 5)).unwrap();

    // Body over the limit: 413 before the server buffers it.
    let big = "x".repeat(1024);
    let too_large = client::post(addr, "/load?store=s", &big).unwrap();
    assert_eq!(too_large.status, 413);
    assert!(too_large.body.contains("payload_too_large"));

    // A query that would materialise the universal relation trips the
    // configured cap with a structured 422 instead of eating memory.
    let compl = client::post(addr, "/query?store=s", "COMPL(E)").unwrap();
    assert_eq!(compl.status, 422, "{}", compl.body);
    assert!(compl.body.contains("limit_exceeded"));

    server.shutdown();
}

#[test]
fn registry_growth_is_capped() {
    let server = Server::spawn(ServerConfig {
        max_stores: 2,
        max_store_triples: 8,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Store count cap: a third distinct store is refused …
    assert_eq!(
        client::post(addr, "/load?store=a", &batch("a", 2))
            .unwrap()
            .status,
        200
    );
    assert_eq!(
        client::post(addr, "/load?store=b", &batch("b", 2))
            .unwrap()
            .status,
        200
    );
    let third = client::post(addr, "/load?store=c", &batch("c", 2)).unwrap();
    assert_eq!(third.status, 422, "{}", third.body);
    assert!(third.body.contains("store limit"));
    // … but reloading an existing store is fine.
    assert_eq!(
        client::post(addr, "/load?store=a", &batch("a2", 2))
            .unwrap()
            .status,
        200
    );

    // Per-store size cap: growing `a` past 8 triples is refused and the
    // store is left at its previous epoch.
    let too_big = client::post(addr, "/load?store=a", &batch("big", 10)).unwrap();
    assert_eq!(too_big.status, 422, "{}", too_big.body);
    assert!(too_big.body.contains("limit_exceeded"));
    let q = client::post(addr, "/query?store=a&limit=0", "E").unwrap();
    assert_eq!(json_u64(&q.body, "count"), 4);
    assert!(q.body.contains("\"epoch\":2"));

    server.shutdown();
}

/// ≥8 client threads mix `/query` and `/load` against one store. Every load
/// appends one complete batch of `BATCH` unique triples, so snapshot
/// isolation means every observed count is an exact multiple of `BATCH` —
/// a reader that caught a store mid-load would see something else.
#[test]
fn concurrent_loads_never_expose_partial_stores() {
    const BATCH: u64 = 25;
    const WRITERS: usize = 2;
    const READERS: usize = 8;
    const LOADS_PER_WRITER: usize = 8;
    const QUERIES_PER_READER: usize = 40;

    let server = Server::spawn(ServerConfig {
        workers: 8,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Epoch 1: one full batch, so readers always have a store to hit.
    let seed = client::post(addr, "/load?store=iso", &batch("seed", BATCH as usize)).unwrap();
    assert_eq!(seed.status, 200, "{}", seed.body);

    let max_count = Arc::new(AtomicU64::new(0));
    let mut threads = Vec::new();
    for w in 0..WRITERS {
        threads.push(std::thread::spawn(move || {
            for j in 0..LOADS_PER_WRITER {
                let doc = batch(&format!("w{w}x{j}"), BATCH as usize);
                let res = client::post(addr, "/load?store=iso", &doc).unwrap();
                assert_eq!(res.status, 200, "{}", res.body);
                // Writers mix in reads too.
                let q = client::post(addr, "/query?store=iso", "E").unwrap();
                assert_eq!(q.status, 200);
            }
        }));
    }
    for r in 0..READERS {
        let max_count = Arc::clone(&max_count);
        threads.push(std::thread::spawn(move || {
            for i in 0..QUERIES_PER_READER {
                // Vary the query text a little so both cache paths run hot.
                let text = if (i + r) % 2 == 0 { "E" } else { "(E)" };
                let res = client::post(addr, "/query?store=iso&limit=0", text).unwrap();
                assert_eq!(res.status, 200, "{}", res.body);
                let count = json_u64(&res.body, "count");
                assert!(
                    count.is_multiple_of(BATCH) && count > 0,
                    "snapshot isolation violated: observed {count} triples, \
                     not a positive multiple of {BATCH}"
                );
                max_count.fetch_max(count, Ordering::Relaxed);
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }

    // All writers landed: final state has every batch.
    let total = (1 + WRITERS * LOADS_PER_WRITER) as u64 * BATCH;
    let final_q = client::post(addr, "/query?store=iso&limit=0", "E").unwrap();
    assert_eq!(json_u64(&final_q.body, "count"), total);
    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(
        json_u64(&health.body, "loads_completed"),
        1 + (WRITERS * LOADS_PER_WRITER) as u64
    );
    // Readers really did observe intermediate epochs concurrently with the
    // writers (at least the final state; typically much earlier too).
    assert!(max_count.load(Ordering::Relaxed) >= BATCH);

    server.shutdown();
}

#[test]
fn cache_hits_and_epoch_invalidation() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=c", &batch("a", 10)).unwrap();

    let query = "(E JOIN[1,2,3'] E)";
    let first = client::post(addr, "/query?store=c", query).unwrap();
    assert!(first.body.contains("\"cached\":false"));
    let second = client::post(addr, "/query?store=c", query).unwrap();
    assert!(second.body.contains("\"cached\":true"), "{}", second.body);
    assert_eq!(
        json_u64(&second.body, "count"),
        json_u64(&first.body, "count")
    );

    // The hit is observable on the served stats counter.
    let health = client::get(addr, "/healthz").unwrap();
    assert!(json_u64(&health.body, "hits") >= 1, "{}", health.body);

    // /explain caches independently of /query.
    let explain1 = client::post(addr, "/explain?store=c", query).unwrap();
    assert!(explain1.body.contains("\"cached\":false"));
    let explain2 = client::post(addr, "/explain?store=c", query).unwrap();
    assert!(explain2.body.contains("\"cached\":true"));

    // An epoch bump invalidates: same text, fresh evaluation, new answer.
    let reload = client::post(addr, "/load?store=c", &batch("b", 10)).unwrap();
    assert_eq!(json_u64(&reload.body, "epoch"), 2);
    let after = client::post(addr, "/query?store=c", query).unwrap();
    assert!(after.body.contains("\"cached\":false"), "{}", after.body);
    assert!(after.body.contains("\"epoch\":2"));
    assert!(json_u64(&after.body, "count") > json_u64(&first.body, "count"));
    let again = client::post(addr, "/query?store=c", query).unwrap();
    assert!(again.body.contains("\"cached\":true"));

    server.shutdown();
}

/// `--cache N` bounds the cached answers of every kind together: ordered,
/// unordered and explain traffic share one LRU of at most `N` entries.
#[test]
fn cache_capacity_bounds_entries_of_every_kind() {
    let server = Server::spawn(ServerConfig {
        cache_capacity: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    client::post(addr, "/load?store=c", &batch("a", 10)).unwrap();

    // Every cache-entry count `/healthz` reports, summed.
    let cached_entries = || {
        let health = client::get(addr, "/healthz").unwrap().body;
        health
            .match_indices("entries\":")
            .map(|(at, field)| {
                let digits = &health[at + field.len()..];
                let end = digits.find(|c: char| !c.is_ascii_digit()).unwrap();
                digits[..end].parse::<u64>().unwrap()
            })
            .sum::<u64>()
    };
    let mut peak = 0;
    for text in ["E", "(E JOIN[1,2,3'] E)", "(E UNION E)"] {
        for path in [
            "/query?store=c&order=pos&limit=5",
            "/query?store=c&order=pos&limit=3",
            "/query?store=c&limit=4",
            "/explain?store=c",
            "/explain?store=c&limit=2",
        ] {
            let response = client::post(addr, path, text).unwrap();
            assert_eq!(response.status, 200, "{path}: {}", response.body);
            let entries = cached_entries();
            assert!(entries <= 2, "{entries} entries after {path} {text}");
            peak = peak.max(entries);
        }
    }
    assert_eq!(peak, 2);
    assert_eq!(server.cache().len(), 2);

    server.shutdown();
}

#[test]
fn load_appends_and_literals_carry_values() {
    let server = Server::spawn_ephemeral().unwrap();
    let addr = server.addr();

    // Literals become objects whose ρ-value is their lexical form, so data
    // conditions can select on them.
    let doc = "<Edinburgh> <population> \"524930\" .\n<Glasgow> <population> \"635640\" .\n";
    let load = client::post(addr, "/load?store=lit", doc).unwrap();
    assert_eq!(load.status, 200, "{}", load.body);
    let q = client::post(addr, "/query?store=lit", "SELECT[rho(3)=\"524930\"](E)").unwrap();
    assert_eq!(json_u64(&q.body, "count"), 1, "{}", q.body);
    assert!(q.body.contains("Edinburgh"));

    // A second load into a different relation of the same store appends
    // copy-on-write: both relations are visible at the new epoch.
    let more = client::post(addr, "/load?store=lit&relation=F", "<a> <b> <c> .\n").unwrap();
    assert_eq!(json_u64(&more.body, "epoch"), 2);
    assert_eq!(json_u64(&more.body, "triples_total"), 3);
    let union = client::post(addr, "/query?store=lit", "E UNION F").unwrap();
    assert_eq!(json_u64(&union.body, "count"), 3);

    // An append to E once its permutation runs exist: a bound read builds
    // POS / OSP on epoch 2, and the epoch-3 store arrives with them merged.
    let bound = client::post(addr, "/query?store=lit", "SELECT[2='population'](E)").unwrap();
    assert_eq!(json_u64(&bound.body, "count"), 2, "{}", bound.body);
    let before = server.registry().snapshot("lit").unwrap();
    let grown = client::post(
        addr,
        "/load?store=lit",
        "<Aberdeen> <population> \"198590\" .\n<Glasgow> <population> \"635640\" .\n",
    )
    .unwrap();
    assert_eq!(json_u64(&grown.body, "epoch"), 3, "{}", grown.body);
    assert_eq!(json_u64(&grown.body, "triples_added"), 2, "{}", grown.body);
    assert_eq!(json_u64(&grown.body, "triples_total"), 4, "{}", grown.body);

    // Snapshot isolation: the epoch-2 snapshot still answers as it did.
    let old = before.store();
    assert_eq!(before.epoch(), 2);
    assert_eq!((old.object_count(), old.triple_count()), (8, 3));
    assert_eq!(old.object_id("Aberdeen"), None);
    assert_eq!(
        old.object_name(old.object_id("Glasgow").unwrap()),
        "Glasgow"
    );

    // The new epoch shares the ids, carries the runs (so the first bound
    // read after the append re-sorts nothing) and reads its own write.
    let after = server.registry().snapshot("lit").unwrap();
    let new = after.store();
    assert_eq!(new.object_id("Glasgow"), old.object_id("Glasgow"));
    let (_, index) = new.relation_with_index("E").unwrap();
    assert!(index.is_built(Permutation::Pos) && index.is_built(Permutation::Osp));
    let read = client::post(addr, "/query?store=lit", "SELECT[1='Aberdeen'](E)").unwrap();
    assert_eq!(json_u64(&read.body, "count"), 1, "{}", read.body);
    assert_eq!(json_u64(&read.body, "epoch"), 3, "{}", read.body);
    assert!(read.body.contains("198590"), "{}", read.body);

    // A malformed document reports its offset and leaves the store intact.
    let bad = client::post(addr, "/load?store=lit", "<a> <b> <c> .\nbroken .\n").unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("\"kind\":\"parse\""));
    assert_eq!(json_u64(&bad.body, "offset"), 14);
    let still = client::get(addr, "/stores").unwrap();
    assert!(still.body.contains("\"epoch\":3"), "{}", still.body);

    server.shutdown();
}

/// `?threads=` rides every request into `EvalOptions`, `/explain` reports
/// the effective degree and `[parallel×N]` tags, `/explain?analyze=1` runs
/// the query and reports actual vs estimated rows, and `/healthz` counts
/// parallel vs sequential executions.
#[test]
fn eval_threads_knob_and_analyze_explain() {
    // parallel_min_rows: 0 forces morsel execution even on small stores so
    // the parallel counters are observable end-to-end.
    let mut config = ServerConfig::default();
    config.eval.threads = 1;
    config.eval.parallel_min_rows = 0;
    let server = Server::spawn(config).unwrap();
    let addr = server.addr();
    // A 50-edge chain so the join actually composes rows.
    let mut doc = String::new();
    for i in 0..50 {
        doc.push_str(&format!("<n{i}> <p> <n{}> .\n", i + 1));
    }
    client::post(addr, "/load?store=p", &doc).unwrap();

    // Filtered join sides force a HashJoin whose build side materialises —
    // the pipeline breaker where the streaming /query path parallelises
    // (fully-pipelined plans like a bare index join stay sequential by
    // design: their row pump is the limit-respecting cursor).
    let query = "(SELECT[1!=3](E) JOIN[1,2,3' | 3=1'] SELECT[1!=3](E))";

    // Sequential by default: the query runs, healthz counts it sequential.
    let seq = client::post(addr, "/query?store=p", query).unwrap();
    assert_eq!(seq.status, 200, "{}", seq.body);
    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(json_u64(&health.body, "threads"), 1);
    assert_eq!(json_u64(&health.body, "queries_sequential"), 1);
    assert_eq!(json_u64(&health.body, "queries_parallel"), 0);

    // ?threads=4: same result set, parallel morsels actually execute.
    let par = client::post(addr, "/query?store=p&threads=4", query).unwrap();
    assert_eq!(par.status, 200, "{}", par.body);
    assert_eq!(json_u64(&par.body, "count"), json_u64(&seq.body, "count"));
    assert!(par.body.contains("\"cached\":false"), "{}", par.body);
    assert!(json_u64(&par.body, "parallel_morsels") > 0, "{}", par.body);
    let health = client::get(addr, "/healthz").unwrap();
    assert_eq!(json_u64(&health.body, "queries_parallel"), 1);
    assert_eq!(json_u64(&health.body, "queries_sequential"), 1);
    assert_eq!(json_u64(&health.body, "max_threads"), 16);

    // The degree is part of the cache key: repeating the parallel request
    // hits, and the sequential fragment was never shared with it.
    let again = client::post(addr, "/query?store=p&threads=4", query).unwrap();
    assert!(again.body.contains("\"cached\":true"), "{}", again.body);

    // An absurd ?threads= clamps instead of erroring; a malformed one is 400.
    let clamped = client::post(addr, "/explain?store=p&threads=9999", query).unwrap();
    assert_eq!(json_u64(&clamped.body, "threads"), 16);
    assert!(clamped.body.contains("[parallel×16]"), "{}", clamped.body);
    let bad = client::post(addr, "/query?store=p&threads=lots", query).unwrap();
    assert_eq!(bad.status, 400);

    // /explain reports the effective degree and tags parallel operators
    // (and at degree 1 it tags nothing).
    let explain = client::post(addr, "/explain?store=p&threads=4", query).unwrap();
    assert_eq!(json_u64(&explain.body, "threads"), 4);
    assert!(explain.body.contains("[parallel×4]"), "{}", explain.body);
    assert!(
        explain.body.contains("\"parallel\":true"),
        "{}",
        explain.body
    );
    let explain1 = client::post(addr, "/explain?store=p", query).unwrap();
    assert!(!explain1.body.contains("[parallel×"), "{}", explain1.body);

    // analyze=1 executes the plan: every materialised node reports an
    // `actual` row count next to its estimate, and the root actual equals
    // the query's cardinality.
    let analyzed = client::post(addr, "/explain?store=p&analyze=1", query).unwrap();
    assert_eq!(analyzed.status, 200, "{}", analyzed.body);
    assert!(analyzed.body.contains("\"actual\":"), "{}", analyzed.body);
    assert_eq!(
        json_u64(&analyzed.body, "rows"),
        json_u64(&seq.body, "count")
    );
    // Plans depend on the query and the snapshot alone, and an analyze run
    // bypasses the result cache both ways: the plain explain cached before
    // it still answers, with the same plan and no actuals.
    let plain = client::post(addr, "/explain?store=p", query).unwrap();
    assert!(plain.body.contains("\"cached\":true"), "{}", plain.body);
    assert!(!plain.body.contains("\"actual\":"), "{}", plain.body);
    assert_eq!(
        json_str(&plain.body, "plan"),
        json_str(&explain1.body, "plan")
    );
    // A repeated analyze executes again rather than replaying the first.
    let again = client::post(addr, "/explain?store=p&analyze=1", query).unwrap();
    assert_eq!(again.status, 200, "{}", again.body);
    assert!(again.body.contains("\"cached\":false"), "{}", again.body);
    assert!(again.body.contains("\"actual\":"), "{}", again.body);

    server.shutdown();
}
