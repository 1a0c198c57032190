//! # trial-core
//!
//! Data model and expression language of **TriAL**, the Triple Algebra of
//! Libkin, Reutter and Vrgoč, *"TriAL for RDF: Adapting Graph Query Languages
//! for RDF Data"* (PODS 2013).
//!
//! The crate provides:
//!
//! * the **triplestore** data model `T = (O, E1, …, En, ρ)` — a finite set of
//!   objects, one or more ternary relations over those objects, and a data
//!   value assignment `ρ : O → D` ([`Triplestore`], [`TriplestoreBuilder`]);
//! * the **TriAL / TriAL\*** expression AST ([`Expr`]) with selections,
//!   set operations, the family of triple joins
//!   `R ✶^{i,j,k}_{θ,η} R'`, and left/right Kleene closures of joins;
//! * join/selection **conditions** `θ` (object comparisons) and `η`
//!   (data-value comparisons) ([`Conditions`]);
//! * a fluent [`builder`] API and ready-made query shapes for the paper's
//!   running examples;
//! * **fragment analysis** ([`fragment`]) detecting the tractable fragments
//!   TriAL⁼ and reachTA⁼ used by the evaluation engines in `trial-eval`.
//!
//! Evaluation itself lives in the companion crate `trial-eval`; a concrete
//! text syntax lives in `trial-parser`.
//!
//! ## Quick example
//!
//! ```
//! use trial_core::{TriplestoreBuilder, Expr, Pos, output, Conditions};
//!
//! // The transport network of Figure 1 (fragment).
//! let mut b = TriplestoreBuilder::new();
//! b.add_triple("E", "Edinburgh", "TrainOp1", "London");
//! b.add_triple("E", "TrainOp1", "part_of", "EastCoast");
//! let store = b.finish();
//!
//! // Example 2 of the paper:  e = E ✶^{1,3',3}_{2=1'} E
//! let e = Expr::rel("E").join(
//!     Expr::rel("E"),
//!     output(Pos::L1, Pos::R3, Pos::L3),
//!     Conditions::new().obj_eq(Pos::L2, Pos::R1),
//! );
//! assert_eq!(e.to_string(), "(E JOIN[1,3',3 | 2=1'] E)");
//! assert!(store.relation("E").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
pub mod builder;
pub mod condition;
pub mod error;
pub mod fragment;
pub mod index;
pub mod object;
pub mod position;
pub mod store;
pub mod triple;
pub mod value;

pub use algebra::{Expr, StarDirection};
pub use builder::{output, ExprBuilderExt};
pub use condition::{Cmp, Conditions, DataAtom, DataOperand, ObjAtom, ObjOperand};
pub use error::{Error, Result};
pub use fragment::{Fragment, FragmentReport};
pub use index::{Permutation, RangeCursor, RelationIndex, StoreIndexes, SubjectRuns};
pub use object::ObjectId;
pub use position::{OutputSpec, Pos, Side};
pub use store::{Relation, Triplestore, TriplestoreBuilder};
pub use triple::{Triple, TripleSet};
pub use value::Value;

// Compile-time thread-safety contract. Concurrent services (`trial-server`)
// share immutable stores across worker threads behind `Arc`s; the lazy index
// cache must therefore stay `OnceLock`-based. If a future change introduces
// `RefCell`/`Rc` interior state, this block fails to compile instead of the
// server crate failing at a distance.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Triplestore>();
    assert_send_sync::<TriplestoreBuilder>();
    assert_send_sync::<TripleSet>();
    assert_send_sync::<Expr>();
    assert_send_sync::<Error>();
    assert_send_sync::<StoreIndexes>();
};
