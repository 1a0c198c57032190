//! The store registry: named, epoch-versioned, copy-on-write triplestores.
//!
//! Concurrency model (the heart of the server's snapshot isolation):
//!
//! * every named store is an immutable [`StoreSnapshot`] behind an `Arc`;
//! * readers take a brief `RwLock` read guard only to **clone the `Arc`**,
//!   then evaluate against their snapshot with no lock held — a query that
//!   started on epoch *n* sees epoch *n*'s triples to completion, no matter
//!   how many loads land meanwhile;
//! * writers build the replacement store entirely **off to the side** (the
//!   parse of the batch and its merge into the current snapshot's runs and
//!   built indexes happen outside every lock; the snapshot itself is only
//!   read, and the new store shares its dictionary), then swap the `Arc`
//!   under the write lock — held for a pointer swap, nothing more;
//! * concurrent writers to the *same* store are serialised by that store's
//!   [`StoreRegistry::write_gate`] mutex so two `/load`s cannot interleave
//!   their read-modify-write cycles; loads to different stores run in
//!   parallel, and readers never touch any gate.
//!
//! Epochs increment on every swap and key the query cache, so a load
//! invalidates cached results for its store without touching other stores.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};
use trial_core::Triplestore;

/// One immutable version of a named store.
#[derive(Debug)]
pub struct StoreSnapshot {
    name: String,
    epoch: u64,
    store: Arc<Triplestore>,
}

impl StoreSnapshot {
    /// The store's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The version number: 1 for the first load, +1 per swap.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The triplestore itself.
    pub fn store(&self) -> &Arc<Triplestore> {
        &self.store
    }
}

/// A concurrent map of named stores with copy-on-write swap semantics.
#[derive(Debug, Default)]
pub struct StoreRegistry {
    stores: RwLock<HashMap<String, Arc<StoreSnapshot>>>,
    /// One writer gate per store name, so loads to *different* stores build
    /// in parallel while loads to the same store serialise.
    write_gates: Mutex<HashMap<String, Arc<Mutex<()>>>>,
}

impl StoreRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        StoreRegistry::default()
    }

    /// The current snapshot of store `name`, if it exists. The returned
    /// `Arc` stays valid (and immutable) even if the store is swapped or
    /// removed afterwards.
    pub fn snapshot(&self, name: &str) -> Option<Arc<StoreSnapshot>> {
        self.stores
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// If exactly one store is registered, its snapshot — the "default
    /// store" convenience for single-tenant deployments, so `curl` users can
    /// omit `?store=`.
    pub fn single(&self) -> Option<Arc<StoreSnapshot>> {
        let stores = self
            .stores
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if stores.len() == 1 {
            stores.values().next().cloned()
        } else {
            None
        }
    }

    /// Snapshots of every store, sorted by name.
    pub fn list(&self) -> Vec<Arc<StoreSnapshot>> {
        let mut all: Vec<Arc<StoreSnapshot>> = self
            .stores
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
            .cloned()
            .collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }

    /// Number of registered stores.
    pub fn len(&self) -> usize {
        self.stores
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// `true` if no stores are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The writer gate for store `name`: lock the returned mutex across a
    /// read-modify-write cycle (snapshot → build off to the side →
    /// [`StoreRegistry::set`]) so concurrent loads to the *same* store
    /// cannot lose updates. Loads to different stores get independent gates
    /// and proceed in parallel; readers never touch any gate.
    pub fn write_gate(&self, name: &str) -> Arc<Mutex<()>> {
        let mut gates = self
            .write_gates
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(gates.entry(name.to_owned()).or_default())
    }

    /// Publishes `store` as the new version of `name` and returns its epoch
    /// (previous epoch + 1, or 1 for a new name). The write lock is held
    /// only for the map insert — the store was built by the caller outside.
    pub fn set(&self, name: impl Into<String>, store: Triplestore) -> u64 {
        self.try_set(name, store, usize::MAX)
            .expect("usize::MAX store cap cannot be reached")
    }

    /// Like [`StoreRegistry::set`], but refuses (returns `None`, registry
    /// unchanged) when the store would be a *new* name and `max_stores`
    /// names already exist. The check and the insert happen under one write
    /// lock, so concurrent loads cannot overshoot the cap.
    pub fn try_set(
        &self,
        name: impl Into<String>,
        store: Triplestore,
        max_stores: usize,
    ) -> Option<u64> {
        let name = name.into();
        let mut stores = self
            .stores
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let epoch = match stores.get(&name) {
            Some(current) => current.epoch + 1,
            None if stores.len() >= max_stores => return None,
            None => 1,
        };
        stores.insert(
            name.clone(),
            Arc::new(StoreSnapshot {
                name,
                epoch,
                store: Arc::new(store),
            }),
        );
        Some(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trial_core::TriplestoreBuilder;

    fn store_with(n: usize) -> Triplestore {
        let mut b = TriplestoreBuilder::new();
        for i in 0..n {
            b.add_triple("E", format!("a{i}"), "p", format!("b{i}"));
        }
        b.finish()
    }

    #[test]
    fn set_bumps_epochs_per_store() {
        let reg = StoreRegistry::new();
        assert!(reg.is_empty());
        assert_eq!(reg.set("x", store_with(1)), 1);
        assert_eq!(reg.set("x", store_with(2)), 2);
        assert_eq!(reg.set("y", store_with(3)), 1);
        assert_eq!(reg.len(), 2);
        let x = reg.snapshot("x").unwrap();
        assert_eq!(x.epoch(), 2);
        assert_eq!(x.name(), "x");
        assert_eq!(x.store().triple_count(), 2);
        assert!(reg.snapshot("nope").is_none());
    }

    #[test]
    fn snapshots_outlive_swaps() {
        let reg = StoreRegistry::new();
        reg.set("x", store_with(1));
        let old = reg.snapshot("x").unwrap();
        reg.set("x", store_with(5));
        // The reader's snapshot still sees the old version.
        assert_eq!(old.epoch(), 1);
        assert_eq!(old.store().triple_count(), 1);
        assert_eq!(reg.snapshot("x").unwrap().store().triple_count(), 5);
    }

    #[test]
    fn single_is_only_for_exactly_one_store() {
        let reg = StoreRegistry::new();
        assert!(reg.single().is_none());
        reg.set("x", store_with(1));
        assert_eq!(reg.single().unwrap().name(), "x");
        reg.set("y", store_with(1));
        assert!(reg.single().is_none());
        assert_eq!(
            reg.list()
                .iter()
                .map(|s| s.name().to_owned())
                .collect::<Vec<_>>(),
            vec!["x", "y"]
        );
    }

    #[test]
    fn try_set_enforces_the_store_cap_atomically() {
        let reg = StoreRegistry::new();
        assert_eq!(reg.try_set("a", store_with(1), 2), Some(1));
        assert_eq!(reg.try_set("b", store_with(1), 2), Some(1));
        // A third name is refused; existing names still swap.
        assert_eq!(reg.try_set("c", store_with(1), 2), None);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.try_set("a", store_with(2), 2), Some(2));
    }

    #[test]
    fn write_gates_are_per_store() {
        let reg = StoreRegistry::new();
        let a1 = reg.write_gate("a");
        let a2 = reg.write_gate("a");
        let b = reg.write_gate("b");
        assert!(Arc::ptr_eq(&a1, &a2), "same store must share a gate");
        assert!(!Arc::ptr_eq(&a1, &b), "different stores must not serialise");
        // Holding `a`'s gate does not block `b`'s.
        let _guard_a = a1.lock().unwrap();
        assert!(b.try_lock().is_ok());
    }

    #[test]
    fn registry_is_send_sync() {
        const fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StoreRegistry>();
        assert_send_sync::<StoreSnapshot>();
    }
}
