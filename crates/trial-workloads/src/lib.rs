//! # trial-workloads
//!
//! Synthetic workload generators for the benchmark harness and the examples:
//!
//! * [`transport`] — parametric versions of the Figure 1 transport network
//!   (cities connected by services, services owned by companies through
//!   `part_of` chains), the workload behind the paper's query `Q`;
//! * [`social`] — the Section 2.3 social network with tuple-valued data;
//! * [`random`] — Erdős–Rényi-style random triplestores and graphs;
//! * [`chains`] — chains, cycles, grids and cliques used to probe the
//!   complexity bounds of Theorem 3 and Propositions 4/5;
//! * [`rpq`] — labelled chains/cycles plus the regular-path-expression
//!   suites the `e15` table and the differential tests evaluate over them.
//!
//! All generators are deterministic given their seed, so every table the
//! `trial-bench` `tables` binary prints is reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chains;
pub mod random;
pub mod rpq;
pub mod social;
pub mod transport;

pub use chains::{chain_store, clique_store, cycle_store, grid_store};
pub use random::{random_graph, random_store, RandomStoreConfig};
pub use rpq::{
    chain_path_suite, cycle_path_suite, grid_path_suite, labeled_chain_store, labeled_cycle_store,
    PathCase,
};
pub use social::{social_network, SocialConfig};
pub use transport::{figure1_store, transport_network, TransportConfig};
