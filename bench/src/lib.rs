//! The repo benchmark's library: dataset and references, wire client,
//! checker, workloads and the episode driver. Std-only, and nothing here
//! depends on a `trial-*` crate: the server is reached over HTTP alone.

pub mod check;
pub mod dblp;
pub mod json;
pub mod rng;
pub mod run;
pub mod spans;
pub mod stats;
pub mod wire;
pub mod workloads;
