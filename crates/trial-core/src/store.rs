//! The triplestore data model `T = (O, E1, …, En, ρ)` (Definition 1).
//!
//! A [`Triplestore`] holds a finite set of interned objects, one or more
//! named ternary relations of triples over those objects, and the data-value
//! assignment `ρ`. Stores are immutable once built; use the
//! [`TriplestoreBuilder`] to construct them, or
//! [`Triplestore::with_relation`] to derive a store that has an extra
//! (materialised) relation — handy for composing algebra results.
//!
//! **Appends** ([`TriplestoreBuilder::append_to`]) cost the delta plus one
//! merge pass over the runs that already exist. Object ids are stable
//! across appends and every name is one shared `Arc<str>`, so extending the
//! dictionary copies pointers, not strings; the new triples are sorted on
//! their own and merged into each relation's SPO run, and whatever
//! permutation runs and statistics the base had built are carried forward
//! with the delta merged in (see [`crate::index`]). A build from scratch is
//! an append to the empty store: there is one build path. The base is only
//! read, so a snapshot taken before an append answers exactly as before,
//! and any number of appends may branch from one base.

use crate::error::{Error, Result};
use crate::index::{merge_run, IndexCache, Permutation};
use crate::object::ObjectId;
use crate::triple::{Triple, TripleSet};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A named ternary relation `Eᵢ ⊆ O × O × O` of a triplestore.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Relation {
    name: String,
    triples: TripleSet,
}

impl Relation {
    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relation's triples.
    pub fn triples(&self) -> &TripleSet {
        &self.triples
    }

    /// Number of triples in the relation.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// Returns `true` if the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }
}

/// An immutable triplestore database `T = (O, E1, …, En, ρ)`.
///
/// * Objects are interned: every object has a dense [`ObjectId`], a unique
///   string name, and a data value (defaulting to [`Value::Null`]).
/// * Relations are named sets of triples.
/// * The *active domain* is the set of objects occurring in at least one
///   triple of at least one relation; the paper's universal relation `U`
///   ranges over it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Triplestore {
    /// id → name; each name is shared with `by_name` and with every store
    /// appended from this one.
    names: Vec<Arc<str>>,
    values: Vec<Value>,
    by_name: HashMap<Arc<str>, ObjectId>,
    relations: Vec<Relation>,
    rel_index: HashMap<String, usize>,
    /// Lazily-built permutation indexes (derived data: cloning a store
    /// resets the cache, an append carries what was built, and the cache
    /// never affects equality).
    index: IndexCache,
}

impl Triplestore {
    /// Number of objects in `O` (including objects that occur in no triple).
    pub fn object_count(&self) -> usize {
        self.names.len()
    }

    /// Total number of triples across all relations (`|T|` in the paper's
    /// cost model, up to the `|O|` additive term for the ρ array).
    pub fn triple_count(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// Iterates over all object ids.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        (0..self.names.len() as u32).map(ObjectId)
    }

    /// Looks up an object id by name.
    pub fn object_id(&self, name: &str) -> Option<ObjectId> {
        self.by_name.get(name).copied()
    }

    /// Looks up an object id by name, returning an error if absent.
    pub fn require_object(&self, name: &str) -> Result<ObjectId> {
        self.object_id(name)
            .ok_or_else(|| Error::UnknownObject(name.to_owned()))
    }

    /// The display name of an object.
    ///
    /// # Panics
    /// Panics if the id does not belong to this store.
    pub fn object_name(&self, id: ObjectId) -> &str {
        &self.names[id.index()]
    }

    /// The data value `ρ(o)` of an object.
    ///
    /// # Panics
    /// Panics if the id does not belong to this store.
    pub fn value(&self, id: ObjectId) -> &Value {
        &self.values[id.index()]
    }

    /// Tests the data-equivalence relation `x ∼ y`, i.e. `ρ(x) = ρ(y)`.
    pub fn data_eq(&self, a: ObjectId, b: ObjectId) -> bool {
        self.value(a) == self.value(b)
    }

    /// The names of all relations, in insertion order.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.relations.iter().map(|r| r.name.as_str())
    }

    /// All relations, in insertion order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> + '_ {
        self.relations.iter()
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.rel_index.get(name).map(|&i| &self.relations[i])
    }

    /// Looks up a relation's triples by name, returning an error if absent.
    pub fn require_relation(&self, name: &str) -> Result<&TripleSet> {
        self.relation(name)
            .map(Relation::triples)
            .ok_or_else(|| Error::UnknownRelation(name.to_owned()))
    }

    /// The *active domain*: objects occurring in at least one triple of at
    /// least one relation, in sorted order.
    ///
    /// The paper's universal relation `U` is the set of all triples
    /// `(o1, o2, o3)` such that each `oi` occurs in the triplestore; its
    /// object universe is exactly this set. Its size alone is
    /// [`Triplestore::active_domain_len`].
    pub fn active_domain(&self) -> Vec<ObjectId> {
        self.active().ids()
    }

    /// Renders a triple with object names, for debugging and examples.
    pub fn display_triple(&self, t: &Triple) -> String {
        format!(
            "({}, {}, {})",
            self.object_name(t.s()),
            self.object_name(t.p()),
            self.object_name(t.o())
        )
    }

    /// Renders a whole triple set with object names, sorted lexicographically
    /// by the rendered form — convenient for assertions in tests/examples.
    pub fn display_triples(&self, ts: &TripleSet) -> Vec<String> {
        let mut out: Vec<String> = ts.iter().map(|t| self.display_triple(t)).collect();
        out.sort();
        out
    }

    /// Builds a triple from three object *names*, failing if any is unknown.
    pub fn triple_by_names(&self, s: &str, p: &str, o: &str) -> Result<Triple> {
        Ok(Triple::new(
            self.require_object(s)?,
            self.require_object(p)?,
            self.require_object(o)?,
        ))
    }

    /// Returns a new store identical to this one but with an extra relation
    /// `name` holding `triples`. Replaces the relation if the name exists.
    ///
    /// This is how materialised query results are fed back into further
    /// queries (the algebra is compositional).
    pub fn with_relation(&self, name: impl Into<String>, triples: TripleSet) -> Triplestore {
        let name = name.into();
        let mut store = self.clone();
        match store.rel_index.get(&name) {
            Some(&i) => store.relations[i].triples = triples,
            None => {
                store.rel_index.insert(name.clone(), store.relations.len());
                store.relations.push(Relation { name, triples });
            }
        }
        store
    }

    /// The store's index cache slot (see [`Triplestore::indexes`]).
    pub(crate) fn index_cache(&self) -> &IndexCache {
        &self.index
    }

    /// Converts this store back into a builder, e.g. to add more triples:
    /// [`TriplestoreBuilder::append_to`] with this store as the base.
    pub fn into_builder(self) -> TriplestoreBuilder {
        TriplestoreBuilder::append_to(Arc::new(self))
    }
}

impl fmt::Display for Triplestore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Triplestore: {} objects, {} relations, {} triples",
            self.object_count(),
            self.relation_count(),
            self.triple_count()
        )?;
        for rel in &self.relations {
            writeln!(f, "  {} ({} triples)", rel.name, rel.len())?;
        }
        Ok(())
    }
}

/// Mutable builder for [`Triplestore`]s.
///
/// Objects are interned on first use; triples are added to named relations;
/// data values can be attached to objects at any point before `finish`.
/// A builder either starts empty ([`TriplestoreBuilder::new`]) or extends a
/// base store ([`TriplestoreBuilder::append_to`]); `finish` is the same
/// merge in both cases, the empty store being the base of the first.
#[derive(Debug, Clone, Default)]
pub struct TriplestoreBuilder {
    /// The store being extended (`None`: the empty store). Only read.
    base: Option<Arc<Triplestore>>,
    /// The base's dictionary (shared names) followed by the names this
    /// builder interned.
    names: Vec<Arc<str>>,
    values: Vec<Value>,
    by_name: HashMap<Arc<str>, ObjectId>,
    /// Relation name → triples added since the base (in insertion order of
    /// relations, the base's first).
    relations: Vec<(String, Vec<Triple>)>,
}

impl TriplestoreBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TriplestoreBuilder::default()
    }

    /// A builder extending `base`: ids and names of the base's objects stay
    /// as they are, its relations keep their order, and
    /// [`TriplestoreBuilder::finish`] merges the added triples into the
    /// base's runs and carries its built indexes. `base` itself never
    /// changes, so readers holding it are unaffected and several builders
    /// may extend one base independently.
    pub fn append_to(base: Arc<Triplestore>) -> Self {
        TriplestoreBuilder {
            names: base.names.clone(),
            values: base.values.clone(),
            by_name: base.by_name.clone(),
            relations: base
                .relations
                .iter()
                .map(|r| (r.name.clone(), Vec::new()))
                .collect(),
            base: Some(base),
        }
    }

    /// Interns an object by name, returning its id. Idempotent.
    pub fn object(&mut self, name: impl AsRef<str>) -> ObjectId {
        let name = name.as_ref();
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = ObjectId::from_index(self.names.len());
        let name: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&name));
        self.values.push(Value::Null);
        self.by_name.insert(name, id);
        id
    }

    /// Interns an object and sets its data value `ρ(o) = value`.
    pub fn object_with_value(
        &mut self,
        name: impl AsRef<str>,
        value: impl Into<Value>,
    ) -> ObjectId {
        let id = self.object(name);
        self.values[id.index()] = value.into();
        id
    }

    /// Sets (or overwrites) the data value of an already-interned object.
    pub fn set_value(&mut self, id: ObjectId, value: impl Into<Value>) {
        self.values[id.index()] = value.into();
    }

    /// Ensures a relation with the given name exists (possibly empty).
    pub fn relation(&mut self, name: impl AsRef<str>) -> &mut Vec<Triple> {
        let name = name.as_ref();
        if let Some(idx) = self.relations.iter().position(|(n, _)| n == name) {
            return &mut self.relations[idx].1;
        }
        self.relations.push((name.to_owned(), Vec::new()));
        &mut self.relations.last_mut().expect("just pushed").1
    }

    /// Adds a triple of object *names* to a relation, interning as needed.
    pub fn add_triple(
        &mut self,
        rel: impl AsRef<str>,
        s: impl AsRef<str>,
        p: impl AsRef<str>,
        o: impl AsRef<str>,
    ) -> Triple {
        let t = Triple::new(self.object(s), self.object(p), self.object(o));
        self.relation(rel).push(t);
        t
    }

    /// Adds a triple of already-interned object ids to a relation.
    pub fn add_triple_ids(&mut self, rel: impl AsRef<str>, s: ObjectId, p: ObjectId, o: ObjectId) {
        let t = Triple::new(s, p, o);
        self.relation(rel).push(t);
    }

    /// Number of objects interned so far.
    pub fn object_count(&self) -> usize {
        self.names.len()
    }

    /// Finalises the builder into an immutable [`Triplestore`].
    ///
    /// Only the added triples are sorted; each relation's run is the base's
    /// with them merged in, and the base's built indexes come along.
    pub fn finish(self) -> Triplestore {
        let base = self.base.as_deref();
        let old = |name: &str| base.and_then(|b| b.relation(name)).map(Relation::triples);
        let novel: Vec<(String, Vec<Triple>)> = self
            .relations
            .into_iter()
            .map(|(name, mut delta)| {
                delta.sort_unstable();
                delta.dedup();
                if let Some(old) = old(&name) {
                    delta.retain(|t| !old.contains(t));
                }
                (name, delta)
            })
            .collect();
        let index = match base.and_then(|b| Some((b, b.index_cache().built()?))) {
            Some((base, built)) => IndexCache::from(built.append(base, &novel)),
            None => IndexCache::default(),
        };
        let relations: Vec<Relation> = novel
            .into_iter()
            .map(|(name, delta)| {
                let triples = match old(&name) {
                    Some(old) => merge_run(old.as_slice(), &delta, Permutation::Spo),
                    None => delta,
                };
                Relation {
                    name,
                    triples: TripleSet::from_sorted_vec(triples),
                }
            })
            .collect();
        let rel_index = relations
            .iter()
            .enumerate()
            .map(|(i, r)| (r.name.clone(), i))
            .collect();
        Triplestore {
            names: self.names,
            values: self.values,
            by_name: self.by_name,
            relations,
            rel_index,
            index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The RDF database `D` of Figure 1 as a single-relation triplestore.
    pub fn figure1_store() -> Triplestore {
        let mut b = TriplestoreBuilder::new();
        for (s, p, o) in [
            ("St.Andrews", "BusOp1", "Edinburgh"),
            ("Edinburgh", "TrainOp1", "London"),
            ("London", "TrainOp2", "Brussels"),
            ("BusOp1", "part_of", "NatExpress"),
            ("TrainOp1", "part_of", "EastCoast"),
            ("TrainOp2", "part_of", "Eurostar"),
            ("EastCoast", "part_of", "NatExpress"),
        ] {
            b.add_triple("E", s, p, o);
        }
        b.finish()
    }

    #[test]
    fn build_and_query_figure1() {
        let store = figure1_store();
        assert_eq!(store.relation_count(), 1);
        assert_eq!(store.triple_count(), 7);
        // Objects: St.Andrews, BusOp1, Edinburgh, TrainOp1, London, TrainOp2,
        // Brussels, part_of, NatExpress, EastCoast, Eurostar = 11.
        assert_eq!(store.object_count(), 11);
        assert_eq!(store.active_domain().len(), 11);
        let e = store.require_relation("E").unwrap();
        assert_eq!(e.len(), 7);
        let t = store
            .triple_by_names("Edinburgh", "TrainOp1", "London")
            .unwrap();
        assert!(e.contains(&t));
    }

    #[test]
    fn interning_is_idempotent() {
        let mut b = TriplestoreBuilder::new();
        let a1 = b.object("a");
        let a2 = b.object("a");
        let c = b.object("c");
        assert_eq!(a1, a2);
        assert_ne!(a1, c);
        assert_eq!(b.object_count(), 2);
    }

    #[test]
    fn values_and_data_eq() {
        let mut b = TriplestoreBuilder::new();
        let mario =
            b.object_with_value("o175", Value::tuple([Value::str("Mario"), Value::int(23)]));
        let luigi =
            b.object_with_value("o7521", Value::tuple([Value::str("Luigi"), Value::int(27)]));
        let clone = b.object("o999");
        b.set_value(clone, Value::tuple([Value::str("Mario"), Value::int(23)]));
        b.add_triple_ids("E", mario, luigi, clone);
        let store = b.finish();
        assert!(store.data_eq(mario, clone));
        assert!(!store.data_eq(mario, luigi));
        assert_eq!(store.value(luigi).component(0), Some(&Value::str("Luigi")));
        // Objects not given a value default to Null.
        let mut b2 = TriplestoreBuilder::new();
        let x = b2.object("x");
        let store2 = b2.finish();
        assert_eq!(store2.value(x), &Value::Null);
    }

    #[test]
    fn unknown_lookups_error() {
        let store = figure1_store();
        assert_eq!(
            store.require_relation("nope").unwrap_err(),
            Error::UnknownRelation("nope".into())
        );
        assert_eq!(
            store.require_object("Paris").unwrap_err(),
            Error::UnknownObject("Paris".into())
        );
        assert!(store.relation("nope").is_none());
        assert!(store.object_id("Paris").is_none());
    }

    #[test]
    fn active_domain_excludes_isolated_objects() {
        let mut b = TriplestoreBuilder::new();
        b.add_triple("E", "a", "b", "c");
        b.object("isolated");
        let store = b.finish();
        assert_eq!(store.object_count(), 4);
        assert_eq!(store.active_domain().len(), 3);
    }

    #[test]
    fn with_relation_adds_and_replaces() {
        let store = figure1_store();
        let result: TripleSet = [store
            .triple_by_names("Edinburgh", "EastCoast", "London")
            .unwrap()]
        .into_iter()
        .collect();
        let store2 = store.with_relation("Answer", result.clone());
        assert_eq!(store2.relation_count(), 2);
        assert_eq!(store2.require_relation("Answer").unwrap(), &result);
        // Replacing an existing relation keeps the count stable.
        let store3 = store2.with_relation("Answer", TripleSet::new());
        assert_eq!(store3.relation_count(), 2);
        assert!(store3.require_relation("Answer").unwrap().is_empty());
        // The original store is unchanged.
        assert_eq!(store.relation_count(), 1);
    }

    #[test]
    fn into_builder_roundtrip() {
        let store = figure1_store();
        let mut b = store.clone().into_builder();
        b.add_triple("E", "Brussels", "TrainOp3", "Paris");
        let bigger = b.finish();
        assert_eq!(bigger.triple_count(), 8);
        assert_eq!(bigger.relation_count(), 1);
        assert!(bigger.object_id("Paris").is_some());
        // Names and values of existing objects are preserved.
        assert_eq!(store.object_id("Edinburgh"), bigger.object_id("Edinburgh"));
    }

    #[test]
    fn display_helpers() {
        let store = figure1_store();
        let t = store
            .triple_by_names("Edinburgh", "TrainOp1", "London")
            .unwrap();
        assert_eq!(store.display_triple(&t), "(Edinburgh, TrainOp1, London)");
        let rendered = store.display_triples(store.require_relation("E").unwrap());
        assert_eq!(rendered.len(), 7);
        assert!(rendered.contains(&"(EastCoast, part_of, NatExpress)".to_string()));
        let summary = store.to_string();
        assert!(summary.contains("11 objects"));
        assert!(summary.contains("E (7 triples)"));
    }

    #[test]
    fn relation_accessors() {
        let store = figure1_store();
        let rel = store.relation("E").unwrap();
        assert_eq!(rel.name(), "E");
        assert!(!rel.is_empty());
        assert_eq!(rel.len(), rel.triples().len());
        assert_eq!(store.relation_names().collect::<Vec<_>>(), vec!["E"]);
        assert_eq!(store.relations().count(), 1);
        assert_eq!(store.objects().count(), 11);
    }
}
