//! The correctness checker: every response is parsed strictly and held
//! against what the generator's reference says it must contain.

use crate::dblp::{row_hash, term_hash, Graph, Row};
use crate::json::{self, Json};
use crate::wire::Reply;
use std::collections::HashSet;
use std::sync::Arc;

/// What a request's response must contain.
#[derive(Debug, Clone)]
pub enum Expect {
    /// The whole result set: `count` rows whose hashes sum to `checksum`,
    /// not truncated.
    Rows { count: u64, checksum: u64 },
    /// A bounded cut of a larger result (top-k, or one ordered page):
    /// exactly `count` distinct rows, each a member of `universe`.
    Members {
        count: u64,
        truncated: bool,
        universe: Arc<HashSet<u64>>,
    },
    /// A count-only (`limit=0`) answer: the exact cardinality and no rows.
    Count(u64),
    /// A `/load` acknowledgement.
    Load { added: u64, total: u64 },
    /// An `/explain` answer: a plan for the query, nothing executed.
    Explain,
}

impl Expect {
    /// The whole of `rows` (which the reference guarantees distinct).
    pub fn rows(graph: &Graph, rows: &[Row]) -> Expect {
        let hashes = rows.iter().map(|r| graph.hash_of(r));
        Expect::Rows {
            count: rows.len() as u64,
            checksum: hashes.fold(0, u64::wrapping_add),
        }
    }

    /// The `k` smallest of `universe` under some order: `min(k, |universe|)`
    /// members. Top-k answers are complete sets, never `truncated`.
    pub fn top(k: u64, universe: &Arc<HashSet<u64>>) -> Expect {
        Expect::Members {
            count: k.min(universe.len() as u64),
            truncated: false,
            universe: Arc::clone(universe),
        }
    }
}

/// The hashes of `rows`, for [`Expect::Members`].
pub fn universe(graph: &Graph, rows: &[Row]) -> Arc<HashSet<u64>> {
    Arc::new(rows.iter().map(|r| graph.hash_of(r)).collect())
}

/// What a passing response said about the store it was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seen {
    pub epoch: u64,
    /// Served from the server's result cache.
    pub cached: bool,
    /// Rows in the body.
    pub rows: u64,
}

fn field<'d>(doc: &'d Json<'d>, key: &str) -> Result<&'d Json<'d>, String> {
    doc.get(key).ok_or_else(|| format!("no `{key}` field"))
}

fn number(doc: &Json, key: &str) -> Result<u64, String> {
    field(doc, key)?
        .as_u64()
        .ok_or_else(|| format!("`{key}` is not a whole number"))
}

fn flag(doc: &Json, key: &str) -> Result<bool, String> {
    field(doc, key)?
        .as_bool()
        .ok_or_else(|| format!("`{key}` is not a boolean"))
}

fn hash_rows(triples: &Json) -> Result<Vec<u64>, String> {
    let rows = triples.as_arr().ok_or("`triples` is not an array")?;
    let mut hashes = Vec::with_capacity(rows.len());
    for row in rows {
        match row.as_arr() {
            Some([Json::Str(s), Json::Str(p), Json::Str(o)]) => {
                hashes.push(row_hash(term_hash(s), term_hash(p), term_hash(o)));
            }
            _ => return Err("a row is not an array of three strings".into()),
        }
    }
    Ok(hashes)
}

/// Checks one response. `epoch` is the epoch the store was last loaded at:
/// a read that reports any other epoch was served from a stale (or foreign)
/// snapshot and fails, which is the read-your-writes check.
pub fn check(reply: &Reply, expect: &Expect, epoch: Option<u64>) -> Result<Seen, String> {
    if reply.status != 200 {
        let head: String = reply.body.chars().take(200).collect();
        return Err(format!("status {}: {head}", reply.status));
    }
    let doc = json::parse(&reply.body)?;
    let seen_epoch = number(&doc, "epoch")?;

    if let Expect::Load { added, total } = *expect {
        let (got_added, got_total) = (
            number(&doc, "triples_added")?,
            number(&doc, "triples_total")?,
        );
        if (got_added, got_total) != (added, total) {
            return Err(format!(
                "load acknowledged {got_added} added / {got_total} total, expected {added} / {total}"
            ));
        }
        return Ok(Seen {
            epoch: seen_epoch,
            cached: false,
            rows: 0,
        });
    }

    if epoch.is_some_and(|e| e != seen_epoch) {
        return Err(format!(
            "served from epoch {seen_epoch}, store is at {epoch:?}"
        ));
    }
    let cached = flag(&doc, "cached")?;

    if matches!(expect, Expect::Explain) {
        let result = field(&doc, "result")?;
        let plan = field(result, "plan")?
            .as_str()
            .ok_or("`plan` is not a string")?;
        field(result, "query")?
            .as_str()
            .ok_or("`query` is not a string")?;
        field(result, "tree")?;
        if plan.is_empty() {
            return Err("empty plan".into());
        }
        return Ok(Seen {
            epoch: seen_epoch,
            cached,
            rows: 0,
        });
    }

    // A streamed body carries its rows inline and its count and truncation
    // flag in trailers; a buffered one nests all three under `result`.
    let (count, truncated, triples) = if reply.chunked {
        if let Some(error) = reply.trailer("x-trial-error") {
            return Err(format!("stream aborted: {error}"));
        }
        let trailer = |name: &str| reply.trailer(name).ok_or(format!("no `{name}` trailer"));
        let count = trailer("x-trial-count")?
            .parse::<u64>()
            .map_err(|e| e.to_string())?;
        let truncated = trailer("x-trial-truncated")?
            .parse::<bool>()
            .map_err(|e| e.to_string())?;
        (count, truncated, field(&doc, "triples")?)
    } else {
        let result = field(&doc, "result")?;
        (
            number(result, "count")?,
            flag(result, "truncated")?,
            field(result, "triples")?,
        )
    };
    let hashes = hash_rows(triples)?;
    let seen = Seen {
        epoch: seen_epoch,
        cached,
        rows: hashes.len() as u64,
    };

    match expect {
        Expect::Count(expected) => {
            if count != *expected || !hashes.is_empty() {
                return Err(format!(
                    "counted {count} with {} rows, expected {expected} and none",
                    hashes.len()
                ));
            }
        }
        Expect::Rows {
            count: expected,
            checksum,
        } => {
            if count != *expected || hashes.len() as u64 != count || truncated {
                return Err(format!(
                    "count {count}, {} rows, truncated {truncated}; expected {expected} complete rows",
                    hashes.len()
                ));
            }
            if hashes.iter().fold(0u64, |a, &h| a.wrapping_add(h)) != *checksum {
                return Err("row checksum differs from the reference".into());
            }
        }
        Expect::Members {
            count: expected,
            truncated: cut,
            universe,
        } => {
            if count != *expected || hashes.len() as u64 != count || truncated != *cut {
                return Err(format!(
                    "count {count}, {} rows, truncated {truncated}; expected {expected}, truncated {cut}",
                    hashes.len()
                ));
            }
            let mut distinct = HashSet::with_capacity(hashes.len());
            for h in &hashes {
                if !universe.contains(h) {
                    return Err("a row is not in the reference result".into());
                }
                if !distinct.insert(h) {
                    return Err("a row appears twice".into());
                }
            }
        }
        Expect::Load { .. } | Expect::Explain => unreachable!("handled above"),
    }
    Ok(seen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::read_reply;

    fn graph() -> (Graph, Vec<Row>) {
        let mut g = Graph::default();
        let p = g.iri("p".into());
        let rows: Vec<Row> = (0..4)
            .map(|i| {
                let (s, o) = (g.iri(format!("s{i}")), g.literal(format!("o \"{i}\"")));
                [s, p, o]
            })
            .collect();
        for r in &rows {
            g.add(*r);
        }
        (g, rows)
    }

    fn body_rows(g: &Graph, rows: &[Row]) -> String {
        let row = |r: &Row| {
            let quoted = r.map(|id| format!("\"{}\"", g.name(id).replace('"', "\\\"")));
            format!("[{}]", quoted.join(","))
        };
        rows.iter().map(row).collect::<Vec<_>>().join(",")
    }

    fn buffered(g: &Graph, rows: &[Row], count: usize, epoch: u64) -> Reply {
        let body = format!(
            "{{\"store\":\"t\",\"epoch\":{epoch},\"cached\":false,\"elapsed_us\":5,\"result\":{{\"count\":{count},\"truncated\":false,\"triples\":[{}],\"stats\":{{}}}}}}",
            body_rows(g, rows)
        );
        let raw = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        read_reply(&mut raw.as_bytes()).unwrap()
    }

    fn streamed_raw(g: &Graph, rows: &[Row]) -> String {
        let body = format!(
            "{{\"store\":\"t\",\"epoch\":1,\"cached\":false,\"stream\":true,\"triples\":[{}]}}",
            body_rows(g, rows)
        );
        let (a, b) = body.split_at(body.len() / 2);
        format!(
            "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n{a}\r\n{:x}\r\n{b}\r\n0\r\n\
             X-Trial-Count: {}\r\nX-Trial-Truncated: false\r\n\r\n",
            a.len(),
            b.len(),
            rows.len()
        )
    }

    #[test]
    fn a_correct_answer_passes_buffered_and_streamed() {
        let (g, rows) = graph();
        let expect = Expect::rows(&g, &rows);
        let seen = check(&buffered(&g, &rows, 4, 1), &expect, Some(1)).unwrap();
        assert_eq!(
            seen,
            Seen {
                epoch: 1,
                cached: false,
                rows: 4
            }
        );
        let mut reversed = rows.clone();
        reversed.reverse();
        check(&buffered(&g, &reversed, 4, 1), &expect, None).unwrap();
        let reply = read_reply(&mut streamed_raw(&g, &rows).as_bytes()).unwrap();
        check(&reply, &expect, Some(1)).unwrap();
    }

    #[test]
    fn a_dropped_row_fails() {
        let (g, rows) = graph();
        let expect = Expect::rows(&g, &rows);
        assert!(check(&buffered(&g, &rows[..3], 3, 1), &expect, None).is_err());
        // Even when the server still claims the full count.
        assert!(check(&buffered(&g, &rows[..3], 4, 1), &expect, None).is_err());
    }

    #[test]
    fn a_duplicated_row_fails() {
        let (g, rows) = graph();
        let doubled = [rows[0], rows[0], rows[2], rows[3]];
        assert!(check(
            &buffered(&g, &doubled, 4, 1),
            &Expect::rows(&g, &rows),
            None
        )
        .is_err());
        // Also in a bounded answer, where no checksum is available.
        let top = Expect::top(2, &universe(&g, &rows));
        check(&buffered(&g, &rows[1..3], 2, 1), &top, None).unwrap();
        assert!(check(&buffered(&g, &[rows[1], rows[1]], 2, 1), &top, None).is_err());
    }

    #[test]
    fn a_row_from_outside_the_reference_fails() {
        let (mut g, rows) = graph();
        let top = Expect::top(2, &universe(&g, &rows));
        let stranger = [rows[0][0], rows[0][1], g.iri("elsewhere".into())];
        assert!(check(&buffered(&g, &[rows[0], stranger], 2, 1), &top, None).is_err());
    }

    #[test]
    fn a_truncated_chunk_stream_fails() {
        let (g, rows) = graph();
        let raw = streamed_raw(&g, &rows);
        let terminal = raw.find("0\r\nX-Trial-Count").unwrap();
        // The terminal chunk never arrives: no reply reaches the checker, and
        // the driver counts the request as failed.
        assert!(read_reply(&mut &raw.as_bytes()[..terminal]).is_err());
        // A stream that ends cleanly but reports an abort is also a failure.
        let aborted = raw.replace(
            "X-Trial-Truncated: false",
            "X-Trial-Truncated: true\r\nX-Trial-Error: internal",
        );
        let reply = read_reply(&mut aborted.as_bytes()).unwrap();
        assert!(check(&reply, &Expect::rows(&g, &rows), None).is_err());
    }

    #[test]
    fn a_stale_epoch_read_fails() {
        let (g, rows) = graph();
        let expect = Expect::rows(&g, &rows);
        let error = check(&buffered(&g, &rows, 4, 6), &expect, Some(7)).unwrap_err();
        assert!(error.contains("epoch 6"), "{error}");
    }

    #[test]
    fn loads_counts_and_errors() {
        let load = |added, total| {
            let body = format!("{{\"store\":\"w\",\"relation\":\"E\",\"epoch\":2,\"triples_added\":{added},\"relation_triples\":{total},\"triples_total\":{total}}}");
            let raw = format!(
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            read_reply(&mut raw.as_bytes()).unwrap()
        };
        let expect = Expect::Load {
            added: 10,
            total: 60,
        };
        assert_eq!(check(&load(10, 60), &expect, None).unwrap().epoch, 2);
        assert!(check(&load(10, 59), &expect, None).is_err());

        let (g, rows) = graph();
        check(&buffered(&g, &[], 9, 1), &Expect::Count(9), None).unwrap();
        assert!(check(&buffered(&g, &[], 8, 1), &Expect::Count(9), None).is_err());

        let raw = "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\n\r\n{}";
        let shed = read_reply(&mut raw.as_bytes()).unwrap();
        assert!(check(&shed, &Expect::rows(&g, &rows), None).is_err());
    }
}
