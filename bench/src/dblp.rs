//! The seeded DBLP-like dataset and, beside it, an independent reference
//! for every query template the workloads send.
//!
//! The server only ever sees the N-Triples text ([`Graph::ntriples`]). The
//! generator keeps the same triples as integer rows with adjacency lists,
//! and the references below are plain hash joins and breadth-first searches
//! over those lists — nothing from the `trial-*` crates — so a row the
//! engine drops, duplicates or invents changes a count or a checksum.

use crate::rng::{Rng, Zipf};
use std::collections::{HashMap, HashSet};

pub type Id = u32;
/// `[subject, predicate, object]` as generator-side term ids.
pub type Row = [Id; 3];

const NS: &str = "http://ex.org/ns#";

/// FNV-1a over the bytes of a term's name — the name the server reports in
/// a result row, i.e. the IRI without brackets or the literal's text.
pub fn term_hash(name: &str) -> u64 {
    name.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Position-sensitive hash of one row from its three term hashes. A result
/// set's checksum is the wrapping sum of its row hashes: independent of row
/// order, changed by any dropped, duplicated or altered row.
pub fn row_hash(s: u64, p: u64, o: u64) -> u64 {
    let mut z = s
        ^ p.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(21)
        ^ o.wrapping_mul(0xC2B2_AE3D_27D4_EB4F).rotate_left(43);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A set of distinct triples over interned terms, with adjacency lists.
#[derive(Debug, Default)]
pub struct Graph {
    names: Vec<String>,
    literal: Vec<bool>,
    hashes: Vec<u64>,
    by_name: HashMap<String, Id>,
    rows: Vec<Row>,
    seen: HashSet<Row>,
    /// subject → `(predicate, object)`
    out: Vec<Vec<(Id, Id)>>,
    /// object → `(subject, predicate)`
    inn: Vec<Vec<(Id, Id)>>,
}

impl Graph {
    fn intern(&mut self, name: String, literal: bool) -> Id {
        if let Some(&id) = self.by_name.get(&name) {
            return id;
        }
        let id = self.names.len() as Id;
        self.hashes.push(term_hash(&name));
        self.by_name.insert(name.clone(), id);
        self.names.push(name);
        self.literal.push(literal);
        self.out.push(Vec::new());
        self.inn.push(Vec::new());
        id
    }

    pub fn iri(&mut self, name: String) -> Id {
        self.intern(name, false)
    }

    pub fn literal(&mut self, text: String) -> Id {
        self.intern(text, true)
    }

    /// Adds a triple; `false` if it was already present (stores are sets).
    pub fn add(&mut self, row: Row) -> bool {
        if !self.seen.insert(row) {
            return false;
        }
        self.rows.push(row);
        self.out[row[0] as usize].push((row[1], row[2]));
        self.inn[row[2] as usize].push((row[0], row[1]));
        true
    }

    pub fn name(&self, id: Id) -> &str {
        &self.names[id as usize]
    }

    /// All triples, in the order they were added.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn hash_of(&self, row: &Row) -> u64 {
        let h = |id: Id| self.hashes[id as usize];
        row_hash(h(row[0]), h(row[1]), h(row[2]))
    }

    /// The N-Triples document for `rows`. The only escape the server's
    /// reader undoes is `\"`, so that is the only one written; every other
    /// character of a literal (backslashes, control characters) goes out raw
    /// and comes back as part of the name.
    pub fn ntriples(&self, rows: &[Row]) -> String {
        let mut doc = String::with_capacity(rows.len() * 80);
        for row in rows {
            for &id in row {
                let name = self.name(id);
                if self.literal[id as usize] {
                    doc.push('"');
                    doc.push_str(&name.replace('"', "\\\""));
                    doc.push_str("\" ");
                } else {
                    doc.push('<');
                    doc.push_str(name);
                    doc.push_str("> ");
                }
            }
            doc.push_str(".\n");
        }
        doc
    }

    // ---- references: one per query template ----

    /// `SELECT[1='s'](E)`.
    pub fn from_subject(&self, s: Id) -> Vec<Row> {
        self.out[s as usize]
            .iter()
            .map(|&(p, o)| [s, p, o])
            .collect()
    }

    /// `SELECT[2='p',3='o'](E)`.
    pub fn with_pred_obj(&self, p: Id, o: Id) -> Vec<Row> {
        let hits = self.inn[o as usize].iter().filter(|&&(_, q)| q == p);
        hits.map(|&(s, _)| [s, p, o]).collect()
    }

    /// `(seeds JOIN[1,2,3' | 3=1'] E)`: one more hop from each seed's object.
    pub fn hop(&self, seeds: &[Row]) -> Vec<Row> {
        let mut result = HashSet::new();
        for &[s, p, o] in seeds {
            result.extend(self.out[o as usize].iter().map(|&(_, z)| [s, p, z]));
        }
        result.into_iter().collect()
    }

    /// Nodes reachable from `from` by one or more edges, all labelled
    /// `label` when one is given.
    fn reach(&self, from: Id, label: Option<Id>) -> Vec<Id> {
        let mut seen = HashSet::new();
        let mut queue = vec![from];
        while let Some(node) = queue.pop() {
            for &(p, o) in &self.out[node as usize] {
                if label.is_none_or(|l| l == p) && seen.insert(o) {
                    queue.push(o);
                }
            }
        }
        seen.into_iter().collect()
    }

    /// `STAR(E JOIN[1,2,3' | 3=1'])`, or with `same_label` the closure whose
    /// join also demands `2=2'`: every `(s, p, z)` such that `(s, p, o)` is
    /// a triple and `z` is `o` or reachable from it (by `p`-edges only when
    /// `same_label`).
    pub fn star(&self, same_label: bool) -> Vec<Row> {
        let mut memo: HashMap<(Id, Option<Id>), Vec<Id>> = HashMap::new();
        let mut result = HashSet::new();
        for &[s, p, o] in &self.rows {
            let label = same_label.then_some(p);
            let beyond = memo
                .entry((o, label))
                .or_insert_with(|| self.reach(o, label));
            result.insert([s, p, o]);
            result.extend(beyond.iter().map(|&z| [s, p, z]));
        }
        result.into_iter().collect()
    }

    /// `SELECT[1='s'](STAR(SELECT[2='p'](E) JOIN[1,2,3' | 3=1']))`: what `s`
    /// reaches over `p`-edges.
    pub fn closure_from(&self, s: Id, p: Id) -> Vec<Row> {
        self.reach(s, Some(p))
            .into_iter()
            .map(|z| [s, p, z])
            .collect()
    }

    /// `/path` of `p+`: pairs `(x, y)` joined by one or more `p`-edges,
    /// reported by the server as `(x, x, y)`.
    pub fn path_plus(&self, p: Id) -> Vec<Row> {
        let mut result = Vec::new();
        for x in 0..self.names.len() as Id {
            result.extend(self.reach(x, Some(p)).into_iter().map(|y| [x, x, y]));
        }
        result
    }

    /// `/path` of `l₁/l₂/…`: pairs joined by a walk spelling `labels`.
    pub fn path_seq(&self, labels: &[Id]) -> Vec<Row> {
        let mut result = Vec::new();
        for x in 0..self.names.len() as Id {
            let mut frontier = HashSet::from([x]);
            for &label in labels {
                let step = frontier.iter().flat_map(|&n| &self.out[n as usize]);
                frontier = step.filter(|e| e.0 == label).map(|e| e.1).collect();
            }
            result.extend(frontier.into_iter().map(|y| [x, x, y]));
        }
        result
    }

    /// The three-way join of [`Dblp::coauthor_query`]: `(b, creator, q)` for
    /// every `b` sharing a paper with `author` (`author` included) and every
    /// paper `q` of `b`.
    pub fn coauthor_papers(&self, creator: Id, author: Id) -> Vec<Row> {
        let mut result = HashSet::new();
        for [paper, _, _] in self.with_pred_obj(creator, author) {
            for [_, _, b] in self
                .from_subject(paper)
                .into_iter()
                .filter(|r| r[1] == creator)
            {
                result.extend(
                    self.with_pred_obj(creator, b)
                        .into_iter()
                        .map(|r| [b, creator, r[0]]),
                );
            }
        }
        result.into_iter().collect()
    }
}

/// The dataset generator: venues, authors and a growing sequence of papers.
///
/// Shape (after SP²Bench's DBLP model): every paper has a type, one venue,
/// one title, one to five creators and a few citations. Author productivity
/// and venue size are Zipf; citations only point at earlier papers and
/// favour old ones, so `cites` is a DAG with a heavy-tailed in-degree whose
/// closure stays a small multiple of the graph. About one title in twenty
/// carries `"`, `\`, control or non-ASCII characters, which is what sends
/// the server's JSON escaper down its slow path.
#[derive(Debug)]
pub struct Dblp {
    pub graph: Graph,
    pub papers: Vec<Id>,
    pub authors: Vec<Id>,
    pub creator: Id,
    pub cites: Id,
    venues: Vec<Id>,
    rdf_type: Id,
    part_of: Id,
    title: Id,
    class_paper: Id,
    class_person: Id,
    rng: Rng,
    by_productivity: Zipf,
    by_size: Zipf,
}

const WORDS: [&str; 16] = [
    "graph", "query", "triple", "algebra", "path", "closure", "join", "index", "stream", "plan",
    "rdf", "store", "logic", "datalog", "reach", "order",
];

/// Name suffixes that exercise every branch of a JSON string escaper: a
/// quote, a backslash pair, a tab, a C0 control, DEL, two- to four-byte
/// UTF-8 and the U+2028 line separator.
const AWKWARD: [&str; 7] = [
    " \"quoted\"",
    " back\\\\slash",
    " tab\there",
    " ctl\u{1}",
    " del\u{7f}",
    " na\u{ef}ve \u{4e2d}\u{6587} \u{1f393}",
    " sep\u{2028}",
];

impl Dblp {
    /// Venues and authors for a store of about `target` triples; no papers
    /// yet.
    pub fn new(seed: u64, target: usize) -> Dblp {
        let mut graph = Graph::default();
        let pred = |g: &mut Graph, local: &str| g.iri(format!("{NS}{local}"));
        let rdf_type = pred(&mut graph, "type");
        let part_of = pred(&mut graph, "partOf");
        let creator = pred(&mut graph, "creator");
        let cites = pred(&mut graph, "cites");
        let title = pred(&mut graph, "title");
        let class_paper = pred(&mut graph, "Paper");
        let class_person = pred(&mut graph, "Person");
        let class_venue = pred(&mut graph, "Venue");
        let (n_authors, n_venues) = (target / 15, target / 600);
        let mut dblp = Dblp {
            graph,
            papers: Vec::new(),
            authors: Vec::new(),
            venues: Vec::new(),
            rdf_type,
            part_of,
            creator,
            cites,
            title,
            class_paper,
            class_person,
            rng: Rng::fork(seed, 1),
            by_productivity: Zipf::new(n_authors, 0.8),
            by_size: Zipf::new(n_venues, 0.7),
        };
        for v in 0..n_venues {
            let venue = dblp.graph.iri(format!("http://ex.org/db/{v}"));
            dblp.graph.add([venue, rdf_type, class_venue]);
            dblp.venues.push(venue);
        }
        for _ in 0..n_authors {
            dblp.new_author();
        }
        dblp
    }

    fn new_author(&mut self) -> Id {
        let author = self
            .graph
            .iri(format!("http://ex.org/pid/{}", self.authors.len()));
        self.graph.add([author, self.rdf_type, self.class_person]);
        self.authors.push(author);
        author
    }

    /// Adds one paper and returns it.
    fn new_paper(&mut self) -> Id {
        let index = self.papers.len();
        let paper = self.graph.iri(format!("http://ex.org/rec/{index}"));
        self.papers.push(paper);
        self.graph.add([paper, self.rdf_type, self.class_paper]);
        let venue = self.venues[self.by_size.sample(&mut self.rng)];
        self.graph.add([paper, self.part_of, venue]);

        let mut text = format!(
            "{} {} {index}",
            WORDS[self.rng.below(WORDS.len())],
            WORDS[self.rng.below(WORDS.len())]
        );
        if self.rng.below(20) == 0 {
            text.push_str(AWKWARD[self.rng.below(AWKWARD.len())]);
        }
        let text = self.graph.literal(text);
        self.graph.add([paper, self.title, text]);

        // One to five creators, Zipf over the founding authors; one paper in
        // ten brings a first-time author (a dictionary miss on append).
        for _ in 0..1 + self.rng.below(3) + self.rng.below(3) {
            let author = self.authors[self.by_productivity.sample(&mut self.rng)];
            self.graph.add([paper, self.creator, author]);
        }
        if self.rng.below(10) == 0 {
            let author = self.new_author();
            self.graph.add([paper, self.creator, author]);
        }

        // Mean out-degree 0.8 keeps the closure subcritical; squaring the
        // uniform draw skews targets towards old papers.
        let citations = [0, 0, 0, 0, 0, 1, 1, 1, 2, 3][self.rng.below(10)];
        for _ in 0..citations.min(index) {
            let u = self.rng.unit();
            let cited = self.papers[(index as f64 * u * u) as usize];
            self.graph.add([paper, self.cites, cited]);
        }
        paper
    }

    /// Adds whole papers until the graph holds at least `target` triples and
    /// returns the papers added.
    pub fn grow_to(&mut self, target: usize) -> Vec<Id> {
        let first = self.papers.len();
        while self.graph.len() < target {
            self.new_paper();
        }
        self.papers[first..].to_vec()
    }

    /// Grows to **exactly** `target` triples, so every seed yields a store
    /// of the same size: whole papers while a full one still fits, then
    /// extra citations from the last paper to the oldest ones.
    pub fn grow_exactly_to(&mut self, target: usize) {
        const LARGEST_PAPER: usize = 3 + 5 + 2 + 3;
        self.grow_to(target.saturating_sub(LARGEST_PAPER));
        let last = *self
            .papers
            .last()
            .expect("a store this small has no papers");
        let mut oldest = self.papers.clone().into_iter();
        while self.graph.len() < target {
            let cited = oldest.next().expect("more papers than padding");
            if cited != last {
                self.graph.add([last, self.cites, cited]);
            }
        }
    }

    /// The TriAL text of the three-way co-author join checked by
    /// [`Graph::coauthor_papers`]: papers of `author` → their creators `b`
    /// → every paper of each `b`.
    pub fn coauthor_query(&self, author: Id) -> String {
        let creator = self.graph.name(self.creator);
        let author = self.graph.name(author);
        format!(
            "((SELECT[2='{creator}',3='{author}'](E) JOIN[3',2,1 | 1=1',2=2'] E) \
             JOIN[1,2',1' | 1=3',2=2'] E)"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_document_and_exact_size() {
        let build = |seed| {
            let mut d = Dblp::new(seed, 3000);
            d.grow_exactly_to(3000);
            d
        };
        let (a, b, c) = (build(5), build(5), build(6));
        assert_eq!(a.graph.len(), 3000);
        assert_eq!(c.graph.len(), 3000);
        assert_eq!(
            a.graph.ntriples(a.graph.rows()),
            b.graph.ntriples(b.graph.rows())
        );
        assert_ne!(
            a.graph.ntriples(a.graph.rows()),
            c.graph.ntriples(c.graph.rows())
        );
    }

    #[test]
    fn citations_point_backwards_and_literals_escape_quotes_only() {
        let mut d = Dblp::new(11, 6000);
        d.grow_exactly_to(6000);
        let rank: HashMap<Id, usize> = d.papers.iter().enumerate().map(|(i, &p)| (p, i)).collect();
        let last = *d.papers.last().unwrap();
        for row in d
            .graph
            .rows()
            .iter()
            .filter(|r| r[1] == d.cites && r[0] != last)
        {
            assert!(rank[&row[2]] < rank[&row[0]]);
        }
        let doc = d.graph.ntriples(d.graph.rows());
        assert_eq!(doc.lines().count(), 6000);
        assert!(
            doc.contains("\\\"quoted\\\""),
            "no awkward title in 6000 triples"
        );
        assert!(doc.contains("back\\\\slash"));
    }

    /// A hand-checked graph: a→b→c over `p`, a→d over `q`.
    #[test]
    fn references_on_a_known_graph() {
        let mut g = Graph::default();
        let ids: Vec<Id> = ["a", "b", "c", "d", "p", "q"]
            .iter()
            .map(|n| g.iri((*n).into()))
            .collect();
        let (a, b, c, d, p, q) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        for row in [[a, p, b], [b, p, c], [a, q, d]] {
            assert!(g.add(row));
        }
        assert!(!g.add([a, p, b]));
        let sorted = |mut rows: Vec<Row>| {
            rows.sort_unstable();
            rows
        };
        assert_eq!(sorted(g.from_subject(a)), vec![[a, p, b], [a, q, d]]);
        assert_eq!(g.with_pred_obj(p, c), vec![[b, p, c]]);
        assert_eq!(g.hop(&g.from_subject(a)), vec![[a, p, c]]);
        assert_eq!(
            sorted(g.star(false)),
            vec![[a, p, b], [a, p, c], [a, q, d], [b, p, c]]
        );
        assert_eq!(
            sorted(g.star(true)),
            vec![[a, p, b], [a, p, c], [a, q, d], [b, p, c]]
        );
        assert_eq!(sorted(g.closure_from(a, p)), vec![[a, p, b], [a, p, c]]);
        assert_eq!(
            sorted(g.path_plus(p)),
            vec![[a, a, b], [a, a, c], [b, b, c]]
        );
        assert_eq!(g.path_seq(&[p, p]), vec![[a, a, c]]);
        assert_eq!(g.path_seq(&[q, p]), Vec::<Row>::new());
    }
}
