//! # trial-parser
//!
//! A concrete text syntax for TriAL / TriAL\* expressions, matching the
//! [`Display`](std::fmt::Display) rendering of
//! [`trial_core::Expr`] — so `parse(&expr.to_string())` round-trips.
//!
//! The syntax follows the paper's notation as closely as ASCII allows:
//!
//! ```text
//! (E JOIN[1,3',3 | 2=1'] E)                  e = E ✶^{1,3',3}_{2=1'} E        (Example 2)
//! STAR(E JOIN[1,2,3' | 3=1'])                (E ✶^{1,2,3'}_{3=1'})^*          (Reach→)
//! STAR(JOIN[1',2',3 | 1=2'] E)               (✶^{1',2',3}_{1=2'} E)^*         (Reach⇓)
//! SELECT[2='part_of'](E)                     σ_{2=part_of}(E)
//! (E UNION F)   (E MINUS F)   (E INTERSECT F)   COMPL(E)   U   EMPTY
//! rho(1)=rho(2')  rho(3)!="London"  1!='Edinburgh'
//! ```
//!
//! ```
//! use trial_parser::parse;
//! use trial_core::builder::queries;
//!
//! let q = parse("STAR(STAR(E JOIN[1,3',3 | 2=1']) JOIN[1,2,3' | 3=1',2=2'])").unwrap();
//! assert_eq!(q, queries::same_company_reachability("E"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod parser;
pub mod path;
pub mod pretty;

pub use parser::parse;
pub use path::{parse_path, PathExpr, MAX_PATH_SIZE};
pub use pretty::pretty;

/// The deepest expression either grammar accepts, counted in operators
/// (AST nodes on a root-to-leaf path), and the most brackets it lets stand
/// open at once. Every stage after parsing — planning, explain, opening
/// cursors, `Display` and drop — recurses on the tree, so the cap is what
/// keeps a short request from overflowing a thread's stack. A union chain
/// this deep opens its cursors within a 2 MiB thread stack in a debug
/// build; `trial-server` gives its workers four times that. Deeper input is
/// a parse error at the operator or bracket that crosses the cap.
pub const MAX_DEPTH: usize = 64;
