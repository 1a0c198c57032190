//! Data values attached to objects by the function `ρ : O → D`.
//!
//! The paper (Section 2.3) allows `ρ` to map into an arbitrary infinite
//! domain of data values, and notes that tuple-valued `ρ` (as used in the
//! social-network example) changes nothing. [`Value`] therefore supports
//! nulls, integers, strings and tuples of values. Only *equality* of data
//! values is ever used by the algebra (the `η`/`∼` conditions), so the type
//! derives `Eq`, `Ord` and `Hash` and deliberately excludes floating-point
//! values.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A data value from the domain `D`.
///
/// Values compare by structural equality; this is exactly the `ρ(x) = ρ(y)`
/// test (written `x ∼ y` in the Datalog representation of Section 4).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub enum Value {
    /// The absent / null value (`⊥` in the paper's social-network example).
    #[default]
    Null,
    /// An integer data value.
    Int(i64),
    /// A string data value, shared (not copied) when `ρ` is copied into
    /// an appended store.
    Str(Arc<str>),
    /// A tuple of data values, used when `ρ` maps objects to tuples
    /// (e.g. `(name, email, age, type, created)` in Section 2.3).
    Tuple(Vec<Value>),
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into().into())
    }

    /// Builds an integer value.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Builds a tuple value from any iterator of values.
    pub fn tuple(items: impl IntoIterator<Item = Value>) -> Self {
        Value::Tuple(items.into_iter().collect())
    }

    /// Returns `true` if this is the null value.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Projects the `i`-th component of a tuple value (0-based).
    ///
    /// Returns `None` for non-tuple values or out-of-range indices. This
    /// supports the `∼ᵢ` relations of Section 4 ("if the values of ρ are
    /// tuples, we just use ∼ᵢ relations testing that the i-th components of
    /// tuples are the same").
    pub fn component(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Tuple(items) => items.get(i),
            _ => None,
        }
    }

    /// Tests component-wise equality `∼ᵢ` between two values.
    ///
    /// Both values must be tuples with an `i`-th component and those
    /// components must be equal.
    pub fn component_eq(&self, other: &Value, i: usize) -> bool {
        match (self.component(i), other.component(i)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.into())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into())
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Tuple(items) => {
                write!(f, "(")?;
                for (idx, item) in items.iter().enumerate() {
                    if idx > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_null() {
        assert_eq!(Value::default(), Value::Null);
        assert!(Value::default().is_null());
    }

    #[test]
    fn constructors_and_conversions() {
        assert_eq!(Value::str("a"), Value::Str("a".into()));
        assert_eq!(Value::int(3), Value::Int(3));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(String::from("y")), Value::Str("y".into()));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::int(-4).to_string(), "-4");
        assert_eq!(Value::str("hi").to_string(), "\"hi\"");
        assert_eq!(
            Value::tuple([Value::str("Mario"), Value::int(23), Value::Null]).to_string(),
            "(\"Mario\", 23, null)"
        );
    }

    #[test]
    fn tuple_components() {
        let mario = Value::tuple([Value::str("Mario"), Value::str("m@nes.com"), Value::int(23)]);
        let luigi = Value::tuple([Value::str("Luigi"), Value::str("l@nes.com"), Value::int(23)]);
        assert_eq!(mario.component(0), Some(&Value::str("Mario")));
        assert_eq!(mario.component(7), None);
        assert_eq!(Value::int(1).component(0), None);
        // Same age (component 2), different names (component 0).
        assert!(mario.component_eq(&luigi, 2));
        assert!(!mario.component_eq(&luigi, 0));
        // Out-of-range components never compare equal.
        assert!(!mario.component_eq(&luigi, 9));
        // Non-tuples never compare equal component-wise.
        assert!(!Value::int(1).component_eq(&Value::int(1), 0));
    }

    #[test]
    fn equality_is_structural() {
        let a = Value::tuple([Value::Null, Value::str("rival")]);
        let b = Value::tuple([Value::Null, Value::str("rival")]);
        let c = Value::tuple([Value::Null, Value::str("brother")]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn ordering_is_total() {
        let mut vs = vec![
            Value::str("b"),
            Value::Null,
            Value::int(2),
            Value::int(-1),
            Value::str("a"),
            Value::tuple([Value::int(1)]),
        ];
        vs.sort();
        // Null < Int < Str < Tuple by declaration order; ints and strings sort naturally.
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::int(-1),
                Value::int(2),
                Value::str("a"),
                Value::str("b"),
                Value::tuple([Value::int(1)]),
            ]
        );
    }
}
