//! The four workloads: which requests each sends, in what order, and what
//! every response must contain.
//!
//! A run is a sequence of identical-shaped **episodes**. Each episode gets
//! a fresh server, loads the data, warms every template once (the set-up,
//! timed as `setup_s`) and then sends a fixed, seeded block of requests
//! (the measured part). Fixed blocks mean two commits serve byte-identical
//! requests against stores of identical size; the run length only decides
//! how many episodes there are.

use crate::check::{universe, Expect};
use crate::dblp::{Dblp, Id};
use crate::rng::{Rng, Zipf};
use std::collections::HashSet;
use std::sync::Arc;

/// Triples in the `dblp` store (scale 1). Below the server's 100 000-row
/// response cap, so one request can carry the whole store.
pub const STORE_TRIPLES: usize = 92_000;
/// The server clamps `?limit=` here; scan limits stay between the store
/// size and this so that every request has its own cache key.
const SERVER_ROW_CAP: usize = 100_000;
/// `load_append`: triples in store `w` before the first append.
pub const APPEND_BASE_TRIPLES: usize = 50_000;
/// `load_append`: triples (at least) per appended batch.
pub const APPEND_BATCH_TRIPLES: usize = 1_000;
/// `point_lookup`: distinct (template, entity) request kinds.
pub const POINT_KEYS: usize = 5_000;

/// Static description of one workload.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Concurrent closed-loop callers, each on its own connection.
    pub clients: usize,
    /// Request templates; [`Req::template`] indexes this.
    pub templates: &'static [&'static str],
    /// Rounds per caller per episode.
    pub rounds: usize,
    /// Requests per round: a round is the unit whose mean latency is one
    /// sample of `latency_p50_ms`.
    pub round_len: usize,
    pub why: &'static str,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "scan_wire",
        clients: 1,
        templates: &["scan", "scan_ordered", "scan_streamed"],
        rounds: 10,
        round_len: 3,
        why: "whole-store scans (92k rows, 7 MB) in the three delivery shapes: row serialisation and socket writes dominate, the engine does under 1%",
    },
    Spec {
        name: "engine_mix",
        clients: 1,
        templates: &["compose", "reach_star", "label_star", "path_plus", "path_seq", "coauthors"],
        rounds: 16,
        round_len: 6,
        why: "six whole-graph joins, closures and path queries answered with top-k bodies under 2 KB and never cached: planning and evaluation dominate",
    },
    Spec {
        name: "point_lookup",
        clients: 2,
        templates: &["scan_subject", "scan_pred_obj", "hop", "explain", "cites_of"],
        rounds: 200,
        round_len: 100,
        why: "short Zipf-parameterised requests from two callers, half of them cache hits: HTTP framing, parsing, planning and cache lookup dominate",
    },
    Spec {
        name: "load_append",
        clients: 1,
        templates: &["load", "first_read", "hop_count", "page", "closure"],
        rounds: 60,
        round_len: 5,
        why: "1000-triple appends to a growing store, each followed by four reads of the new data: the write path (parse, rebuild, reindex, invalidate) beside readers",
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One request and what its response must contain.
#[derive(Debug, Clone)]
pub struct Req {
    pub template: usize,
    pub method: &'static str,
    pub target: String,
    pub body: Arc<str>,
    pub expect: Expect,
}

fn post(template: usize, target: String, body: impl Into<Arc<str>>, expect: Expect) -> Req {
    Req {
        template,
        method: "POST",
        target,
        body: body.into(),
        expect,
    }
}

/// Everything one episode sends.
#[derive(Debug, Default)]
pub struct Episode {
    /// Loads, then one warm-up per template; timed as set-up.
    pub setup: Vec<Req>,
    /// caller → round → requests; the measured block.
    pub clients: Vec<Vec<Vec<Req>>>,
    /// Sent once after the block, checked but not timed: exact counts the
    /// measured requests are too cheap to carry.
    pub verify: Vec<Req>,
}

/// A workload bound to a seed: the dataset and references are built once,
/// episodes are cut from them.
pub struct Bench {
    pub spec: &'static Spec,
    seed: u64,
    /// Divides the rounds per episode (`--smoke`).
    shrink: usize,
    dblp: Dblp,
    doc: Arc<str>,
    /// engine_mix: the reference result of each template, as row hashes.
    universes: Vec<Arc<HashSet<u64>>>,
    /// point_lookup: the request of each Zipf rank.
    keys: Vec<Req>,
}

impl Bench {
    pub fn new(spec: &'static Spec, seed: u64, shrink: usize) -> Bench {
        let appending = spec.name == "load_append";
        let triples = if appending {
            APPEND_BASE_TRIPLES
        } else {
            STORE_TRIPLES
        };
        let mut dblp = Dblp::new(seed, triples);
        dblp.grow_exactly_to(triples);
        let doc: Arc<str> = dblp.graph.ntriples(dblp.graph.rows()).into();
        let mut bench = Bench {
            spec,
            seed,
            shrink,
            dblp,
            doc,
            universes: Vec::new(),
            keys: Vec::new(),
        };
        match spec.name {
            "engine_mix" => bench.universes = bench.engine_references(),
            "point_lookup" => bench.keys = bench.point_keys(),
            _ => {}
        }
        bench
    }

    fn rounds(&self) -> usize {
        (self.spec.rounds / self.shrink).max(1)
    }

    fn load(&self, doc: Arc<str>, added: usize, total: usize) -> Req {
        let store = if self.spec.name == "load_append" {
            "w"
        } else {
            "dblp"
        };
        let expect = Expect::Load {
            added: added as u64,
            total: total as u64,
        };
        post(0, format!("/load?store={store}"), doc, expect)
    }

    /// The set-up load: the whole generated store in one document.
    fn base_load(&self) -> Req {
        let triples = self.dblp.graph.len();
        self.load(Arc::clone(&self.doc), triples, triples)
    }

    pub fn episode(&self, index: u64) -> Episode {
        match self.spec.name {
            "scan_wire" => self.scan_wire(),
            "engine_mix" => self.engine_mix(index),
            "point_lookup" => self.point_lookup(index),
            "load_append" => self.load_append(),
            other => unreachable!("no workload named {other}"),
        }
    }

    // ---- scan_wire ----

    fn scan_wire(&self) -> Episode {
        let graph = &self.dblp.graph;
        let everything = Expect::rows(graph, graph.rows());
        let shapes = ["", "&order=pos", "&stream=1"];
        // A different limit per request: same rows, distinct cache key.
        let mut sent = 0;
        let mut round = || -> Vec<Req> {
            let scans = shapes.iter().enumerate().map(|(template, shape)| {
                sent += 1;
                let limit = STORE_TRIPLES + 1 + sent % (SERVER_ROW_CAP - STORE_TRIPLES);
                let target = format!("/query?store=dblp&limit={limit}{shape}");
                post(template, target, "E", everything.clone())
            });
            scans.collect()
        };
        let mut setup = vec![self.base_load()];
        setup.extend(round());
        let rounds = (0..self.rounds()).map(|_| round()).collect();
        Episode {
            setup,
            clients: vec![rounds],
            verify: Vec::new(),
        }
    }

    // ---- engine_mix ----

    fn engine_queries(&self) -> [(&'static str, String); 6] {
        let d = &self.dblp;
        let (cites, creator) = (d.graph.name(d.cites), d.graph.name(d.creator));
        [
            ("/query", "(E JOIN[1,2,3' | 3=1'] E)".to_owned()),
            ("/query", "STAR(E JOIN[1,2,3' | 3=1'])".to_owned()),
            ("/query", "STAR(E JOIN[1,2,3' | 3=1',2=2'])".to_owned()),
            // A closure: runs as the NFA product walk.
            ("/path", format!("'{cites}'+")),
            // Closure-free: lowered to two joins.
            ("/path", format!("'{cites}'/'{cites}'/'{creator}'")),
            // The most prolific author (Zipf rank 0) as the constant.
            ("/query", d.coauthor_query(d.authors[0])),
        ]
    }

    fn engine_references(&self) -> Vec<Arc<HashSet<u64>>> {
        let (d, g) = (&self.dblp, &self.dblp.graph);
        let results = [
            g.hop(g.rows()),
            g.star(false),
            g.star(true),
            g.path_plus(d.cites),
            g.path_seq(&[d.cites, d.cites, d.creator]),
            g.coauthor_papers(d.creator, d.authors[0]),
        ];
        results.iter().map(|rows| universe(g, rows)).collect()
    }

    fn engine_mix(&self, index: u64) -> Episode {
        let queries = self.engine_queries();
        // Every request of an episode has its own `topk`, so none is ever
        // answered from the cache; the seed and episode pick where K starts.
        let mut k = 8 + Rng::fork(self.seed, 100 + index).below(8) as u64;
        let mut round = || -> Vec<Req> {
            k += 1;
            let requests = queries.iter().enumerate().map(|(template, (path, text))| {
                let target = format!("{path}?store=dblp&topk={k}");
                post(
                    template,
                    target,
                    text.as_str(),
                    Expect::top(k, &self.universes[template]),
                )
            });
            requests.collect()
        };
        let mut setup = vec![self.base_load()];
        setup.extend(round());
        let rounds = (0..self.rounds()).map(|_| round()).collect();
        let verify = queries.iter().enumerate().map(|(template, (path, text))| {
            let count = Expect::Count(self.universes[template].len() as u64);
            post(
                template,
                format!("{path}?store=dblp&limit=0"),
                text.as_str(),
                count,
            )
        });
        Episode {
            setup,
            clients: vec![rounds],
            verify: verify.collect(),
        }
    }

    // ---- point_lookup ----

    /// The request for one (template, entity) pair.
    fn point_request(&self, template: usize, entity: Id) -> Req {
        let (d, g) = (&self.dblp, &self.dblp.graph);
        let name = g.name(entity);
        let hop = format!("(SELECT[1='{name}'](E) JOIN[1,2,3' | 3=1'] E)");
        let query = "/query?store=dblp".to_owned();
        match template {
            0 => post(
                0,
                query,
                format!("SELECT[1='{name}'](E)"),
                Expect::rows(g, &g.from_subject(entity)),
            ),
            1 => {
                let text = format!("SELECT[2='{}',3='{name}'](E)", g.name(d.creator));
                post(
                    1,
                    query,
                    text,
                    Expect::rows(g, &g.with_pred_obj(d.creator, entity)),
                )
            }
            2 => post(
                2,
                query,
                hop,
                Expect::rows(g, &g.hop(&g.from_subject(entity))),
            ),
            3 => post(3, "/explain?store=dblp".to_owned(), hop, Expect::Explain),
            _ => {
                let text = format!("SELECT[1='{name}',2='{}'](E)", g.name(d.cites));
                let direct: Vec<_> = g
                    .from_subject(entity)
                    .into_iter()
                    .filter(|r| r[1] == d.cites)
                    .collect();
                post(4, query, text, Expect::rows(g, &direct))
            }
        }
    }

    /// Rank `r` asks template `r % 5` about the `r / 5`-th entity of a
    /// seeded shuffle, so template shares are the same for every seed while
    /// the hot entities differ. Authors come from outside the most prolific
    /// tenth: one of those among the hot keys would make a seed's bodies a
    /// hundred times larger than another's.
    fn point_keys(&self) -> Vec<Req> {
        let templates = self.spec.templates.len();
        let mut rng = Rng::fork(self.seed, 2);
        let mut papers = self.dblp.papers.clone();
        let mut authors = self.dblp.authors[self.dblp.authors.len() / 10..].to_vec();
        rng.shuffle(&mut papers);
        rng.shuffle(&mut authors);
        let key = |rank: usize| {
            let (template, slot) = (rank % templates, rank / templates);
            let pool = if template == 1 { &authors } else { &papers };
            self.point_request(template, pool[slot])
        };
        (0..POINT_KEYS).map(key).collect()
    }

    fn point_lookup(&self, index: u64) -> Episode {
        // Zipf with exponent 1 over 5000 kinds: the 64 hottest draw about
        // half the traffic and fit the server's 128-entry cache; the tail
        // does not.
        let zipf = Zipf::new(POINT_KEYS, 1.0);
        let mut setup = vec![self.base_load()];
        // Warm each template with its coldest key.
        setup.extend(
            self.keys[POINT_KEYS - self.spec.templates.len()..]
                .iter()
                .cloned(),
        );
        let caller = |c: usize| -> Vec<Vec<Req>> {
            let mut rng = Rng::fork(self.seed, 1000 * (index + 1) + c as u64);
            let mut round = || -> Vec<Req> {
                let draws =
                    (0..self.spec.round_len).map(|_| self.keys[zipf.sample(&mut rng)].clone());
                draws.collect()
            };
            (0..self.rounds()).map(|_| round()).collect()
        };
        Episode {
            setup,
            clients: (0..self.spec.clients).map(caller).collect(),
            verify: Vec::new(),
        }
    }

    // ---- load_append ----

    fn load_append(&self) -> Episode {
        // The generator keeps growing as batches are cut, so each episode
        // regrows its own copy from the seed.
        let mut d = Dblp::new(self.seed, APPEND_BASE_TRIPLES);
        d.grow_exactly_to(APPEND_BASE_TRIPLES);
        let query = |params: &str| format!("/query?store=w{params}");
        let mut batches: Vec<(Arc<str>, usize, usize, Id)> = Vec::new();
        for _ in 0..self.rounds() {
            let before = d.graph.len();
            let added = d.grow_to(before + APPEND_BATCH_TRIPLES);
            let doc = d.graph.ntriples(&d.graph.rows()[before..]);
            batches.push((doc.into(), before, d.graph.len(), added[added.len() / 2]));
        }
        // One membership set for every page request: all rows the store will
        // ever hold. (That a new row is visible is `first_read`'s job.)
        let every_row = universe(&d.graph, d.graph.rows());
        let page = Expect::Members {
            count: 100,
            truncated: true,
            universe: every_row,
        };
        let g = &d.graph;
        // Reads are checked against the final graph; that is exact because
        // nothing appended later touches a paper already written, and a new
        // paper cites only older ones.
        let reads = |paper: Id| -> [Req; 4] {
            let name = g.name(paper);
            let scan = g.from_subject(paper);
            let closure = format!(
                "SELECT[1='{name}'](STAR(SELECT[2='{}'](E) JOIN[1,2,3' | 3=1']))",
                g.name(d.cites)
            );
            [
                post(
                    1,
                    query(""),
                    format!("SELECT[1='{name}'](E)"),
                    Expect::rows(g, &scan),
                ),
                post(
                    2,
                    query("&limit=0"),
                    format!("(SELECT[1='{name}'](E) JOIN[1,2,3' | 3=1'] E)"),
                    Expect::Count(g.hop(&scan).len() as u64),
                ),
                post(3, query("&order=pos&limit=100"), "E", page.clone()),
                post(
                    4,
                    query(""),
                    closure,
                    Expect::rows(g, &g.closure_from(paper, d.cites)),
                ),
            ]
        };
        let mut setup = vec![self.base_load()];
        setup.extend(reads(d.papers[0]));
        let rounds = batches.iter().map(|(doc, before, after, paper)| {
            let mut round = vec![self.load(Arc::clone(doc), after - before, *after)];
            round.extend(reads(*paper));
            round
        });
        let total = Expect::Count(g.len() as u64);
        Episode {
            setup,
            clients: vec![rounds.collect()],
            verify: vec![post(2, query("&limit=0"), "E", total)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episodes_have_the_declared_shape() {
        for spec in &WORKLOADS {
            let bench = Bench::new(spec, 3, 20);
            let episode = bench.episode(0);
            assert_eq!(episode.clients.len(), spec.clients, "{}", spec.name);
            assert!(
                matches!(episode.setup[0].expect, Expect::Load { .. }),
                "{}",
                spec.name
            );
            assert!(episode.setup.len() >= spec.templates.len(), "{}", spec.name);
            for rounds in &episode.clients {
                assert_eq!(rounds.len(), (spec.rounds / 20).max(1));
                for round in rounds {
                    assert_eq!(round.len(), spec.round_len, "{}", spec.name);
                    assert!(round.iter().all(|r| r.template < spec.templates.len()));
                }
            }
        }
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        let targets = |seed: u64| -> Vec<(String, Arc<str>)> {
            let spec = spec("point_lookup").unwrap();
            let episode = Bench::new(spec, seed, 20).episode(1);
            let all = episode.clients.into_iter().flatten().flatten();
            all.map(|r| (r.target, r.body)).collect()
        };
        assert_eq!(targets(9), targets(9));
        assert_ne!(targets(9), targets(10));
    }

    #[test]
    fn scan_limits_never_repeat_and_stay_above_the_store() {
        let bench = Bench::new(spec("scan_wire").unwrap(), 1, 1);
        let episode = bench.episode(0);
        let requests = episode.setup[1..]
            .iter()
            .chain(episode.clients[0].iter().flatten());
        let limits: HashSet<usize> = requests
            .map(|r| {
                r.target
                    .split("limit=")
                    .nth(1)
                    .unwrap()
                    .split('&')
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert_eq!(limits.len(), 3 + 30);
        assert!(limits
            .iter()
            .all(|&l| l > STORE_TRIPLES && l <= SERVER_ROW_CAP));
    }
}
