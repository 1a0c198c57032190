//! Regular path expressions (RPQs) over edge labels.
//!
//! The paper's central theorem is that TriAL* captures regular path
//! queries; this module provides the navigational surface that makes the
//! claim executable. A [`PathExpr`] denotes a regular language over edge
//! labels: a pair `(x, y)` matches iff some directed path from `x` to `y`
//! spells a word of that language (reading each traversed triple's middle
//! element as a letter).
//!
//! ## Grammar
//!
//! ```text
//! path    := alt
//! alt     := seq ( '|' seq )*
//! seq     := postfix ( '/' postfix )*
//! postfix := primary ( '*' | '+' | '?' )*
//! primary := atom | '(' alt ')'
//! atom    := label | 'quoted label'
//! ```
//!
//! `/` is concatenation, `|` alternation; `*`, `+`, `?` are the usual
//! closures (zero-or-more, one-or-more, optional). Postfix binds tightest,
//! then `/`, then `|` — `a/b*|c` reads as `(a/(b*))|c`. Bare labels use the
//! same identifier characters as TriAL relation names **except `/`** (which
//! is the concatenation operator here); labels containing arbitrary
//! characters — URIs in particular — are single-quoted: `'http://ex.org/p'`.
//!
//! [`PathExpr`]'s [`Display`](std::fmt::Display) form always re-parses to
//! the same AST (round-tripping is tested), which is what lets the engine
//! cache and log path queries by their text.
//!
//! ## Limits
//!
//! A path may nest at most [`MAX_DEPTH`] deep, counting each closure and
//! each `/` or `|` list as one level, and have at most [`MAX_DEPTH`]
//! parentheses open at once. It may hold at most [`MAX_PATH_SIZE`] atoms
//! and closure operators together. The engine's position automaton has one
//! state per atom, and an atom may be followed by every atom, so compiling
//! takes time quadratic in the atom count and each edge the walk reads can
//! enter that many states; the cap bounds both. A closure operator adds no
//! state, but each is one more level of every pass over the expression.

use crate::MAX_DEPTH;
use std::fmt;
use trial_core::{Error, Result};

/// The most atoms plus closure operators (`*`, `+`, `?`) one path may
/// hold; see the module's *Limits*.
pub const MAX_PATH_SIZE: usize = 256;

/// A regular path expression over edge labels.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PathExpr {
    /// A single edge label: matches `(x, y)` iff some triple `(x, label, y)`
    /// exists.
    Atom(String),
    /// Concatenation `p₁/p₂/…` (at least two parts).
    Seq(Vec<PathExpr>),
    /// Alternation `p₁|p₂|…` (at least two parts).
    Alt(Vec<PathExpr>),
    /// Kleene star `p*`: zero or more repetitions (includes every node's
    /// identity pair).
    Star(Box<PathExpr>),
    /// `p+`: one or more repetitions.
    Plus(Box<PathExpr>),
    /// `p?`: zero or one occurrence (includes every node's identity pair).
    Opt(Box<PathExpr>),
}

impl PathExpr {
    /// Every distinct atom label, in first-appearance order.
    pub fn labels(&self) -> Vec<&str> {
        fn walk<'e>(e: &'e PathExpr, out: &mut Vec<&'e str>) {
            match e {
                PathExpr::Atom(label) => {
                    if !out.contains(&label.as_str()) {
                        out.push(label);
                    }
                }
                PathExpr::Seq(parts) | PathExpr::Alt(parts) => {
                    for p in parts {
                        walk(p, out);
                    }
                }
                PathExpr::Star(inner) | PathExpr::Plus(inner) | PathExpr::Opt(inner) => {
                    walk(inner, out)
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }
}

/// `true` for characters allowed in a bare (unquoted) atom label. The set
/// matches TriAL identifier characters minus `/`, which is the path
/// concatenation operator.
fn is_label_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '.' | ':' | '#' | '-')
}

/// Parses a regular path expression.
///
/// Errors carry the byte offset of the failing character, like
/// [`crate::parse`], so the server can report them structurally. A path
/// past the module's *Limits* fails at the operator, bracket or atom that
/// crosses one.
pub fn parse_path(input: &str) -> Result<PathExpr> {
    let chars: Vec<char> = input.chars().collect();
    let mut offsets: Vec<usize> = Vec::with_capacity(chars.len() + 1);
    let mut off = 0;
    for c in &chars {
        offsets.push(off);
        off += c.len_utf8();
    }
    offsets.push(off);
    let mut parser = PathParser {
        chars,
        offsets,
        index: 0,
        open: 0,
        size: 0,
    };
    parser.skip_ws();
    let (expr, _) = parser.parse_alt()?;
    parser.skip_ws();
    if parser.index < parser.chars.len() {
        return Err(parser.error(format!(
            "unexpected trailing `{}`",
            parser.chars[parser.index]
        )));
    }
    Ok(expr)
}

/// A parsed subexpression with its height: the most AST nodes on a path
/// from its root to a leaf.
type Node = (PathExpr, usize);

struct PathParser {
    chars: Vec<char>,
    offsets: Vec<usize>,
    index: usize,
    /// Parentheses opened and not yet closed: bounds the recursion.
    open: usize,
    /// Atoms and closure operators read so far.
    size: usize,
}

impl PathParser {
    fn error(&self, message: impl Into<String>) -> Error {
        self.error_at(self.index, message)
    }

    fn error_at(&self, index: usize, message: impl Into<String>) -> Error {
        Error::Parse {
            message: message.into(),
            offset: self.offsets[index.min(self.chars.len())],
        }
    }

    fn skip_ws(&mut self) {
        while self
            .chars
            .get(self.index)
            .is_some_and(|c| c.is_whitespace())
        {
            self.index += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.index).copied()
    }

    /// The height of a node built by the operator at char `at` over
    /// children at most `below` high: an error if it is deeper than
    /// [`MAX_DEPTH`].
    fn deepen(&self, below: usize, at: usize) -> Result<usize> {
        if below >= MAX_DEPTH {
            return Err(self.error_at(at, format!("path nests deeper than {MAX_DEPTH} operators")));
        }
        Ok(below + 1)
    }

    /// Counts one atom or closure operator at the cursor against
    /// [`MAX_PATH_SIZE`].
    fn grow(&mut self) -> Result<()> {
        if self.size >= MAX_PATH_SIZE {
            return Err(self.error(format!(
                "path has more than {MAX_PATH_SIZE} atoms and closure operators"
            )));
        }
        self.size += 1;
        Ok(())
    }

    /// Parses `part (sep part)*`: one part as is, several as the list node
    /// `list` builds, one level above its highest part.
    fn parse_list(
        &mut self,
        sep: char,
        part: fn(&mut Self) -> Result<Node>,
        list: fn(Vec<PathExpr>) -> PathExpr,
    ) -> Result<Node> {
        let (first, mut height) = part(self)?;
        let mut parts = vec![first];
        let mut first_sep = None;
        loop {
            self.skip_ws();
            if self.peek() != Some(sep) {
                break;
            }
            first_sep.get_or_insert(self.index);
            self.index += 1;
            self.skip_ws();
            let (next, below) = part(self)?;
            parts.push(next);
            height = height.max(below);
        }
        match first_sep {
            None => Ok((parts.pop().expect("one part"), height)),
            Some(at) => Ok((list(parts), self.deepen(height, at)?)),
        }
    }

    fn parse_alt(&mut self) -> Result<Node> {
        self.parse_list('|', Self::parse_seq, PathExpr::Alt)
    }

    fn parse_seq(&mut self) -> Result<Node> {
        self.parse_list('/', Self::parse_postfix, PathExpr::Seq)
    }

    fn parse_postfix(&mut self) -> Result<Node> {
        let (mut expr, mut height) = self.parse_primary()?;
        loop {
            self.skip_ws();
            let closure: fn(Box<PathExpr>) -> PathExpr = match self.peek() {
                Some('*') => PathExpr::Star,
                Some('+') => PathExpr::Plus,
                Some('?') => PathExpr::Opt,
                _ => return Ok((expr, height)),
            };
            height = self.deepen(height, self.index)?;
            self.grow()?;
            self.index += 1;
            expr = closure(Box::new(expr));
        }
    }

    fn parse_primary(&mut self) -> Result<Node> {
        match self.peek() {
            Some('(') => {
                if self.open >= MAX_DEPTH {
                    return Err(self.error(format!("more than {MAX_DEPTH} nested parentheses")));
                }
                self.open += 1;
                self.index += 1;
                self.skip_ws();
                let inner = self.parse_alt()?;
                self.skip_ws();
                if self.peek() != Some(')') {
                    return Err(self.error("expected `)`"));
                }
                self.index += 1;
                self.open -= 1;
                Ok(inner)
            }
            Some('\'') => {
                self.grow()?;
                let open = self.index;
                self.index += 1;
                let mut label = String::new();
                while let Some(c) = self.peek() {
                    if c == '\'' {
                        self.index += 1;
                        if label.is_empty() {
                            self.index = open;
                            return Err(self.error("empty quoted label"));
                        }
                        return Ok((PathExpr::Atom(label), 1));
                    }
                    label.push(c);
                    self.index += 1;
                }
                self.index = open;
                Err(self.error("unterminated quoted label"))
            }
            Some(c) if is_label_char(c) => {
                self.grow()?;
                let mut label = String::new();
                while let Some(c) = self.peek() {
                    if is_label_char(c) {
                        label.push(c);
                        self.index += 1;
                    } else {
                        break;
                    }
                }
                Ok((PathExpr::Atom(label), 1))
            }
            Some(c) => Err(self.error(format!(
                "expected an edge label, `(` or a quoted label, found `{c}`"
            ))),
            None => Err(self.error("expected an edge label, found end of input")),
        }
    }
}

/// Precedence levels for parenthesis-free rendering: alternation binds
/// loosest, postfix closures tightest.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
enum Prec {
    Alt,
    Seq,
    Postfix,
}

fn write_prec(e: &PathExpr, min: Prec, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let own = match e {
        PathExpr::Alt(_) => Prec::Alt,
        PathExpr::Seq(_) => Prec::Seq,
        _ => Prec::Postfix,
    };
    let parens = own < min;
    if parens {
        f.write_str("(")?;
    }
    match e {
        PathExpr::Atom(label) => {
            if !label.is_empty() && label.chars().all(is_label_char) {
                f.write_str(label)?;
            } else {
                write!(f, "'{label}'")?;
            }
        }
        PathExpr::Seq(parts) => {
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    f.write_str("/")?;
                }
                write_prec(p, Prec::Seq, f)?;
            }
        }
        PathExpr::Alt(parts) => {
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    f.write_str("|")?;
                }
                write_prec(p, Prec::Seq, f)?;
            }
        }
        PathExpr::Star(inner) => {
            write_prec(inner, Prec::Postfix, f)?;
            f.write_str("*")?;
        }
        PathExpr::Plus(inner) => {
            write_prec(inner, Prec::Postfix, f)?;
            f.write_str("+")?;
        }
        PathExpr::Opt(inner) => {
            write_prec(inner, Prec::Postfix, f)?;
            f.write_str("?")?;
        }
    }
    if parens {
        f.write_str(")")?;
    }
    Ok(())
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_prec(self, Prec::Alt, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(s: &str) -> PathExpr {
        PathExpr::Atom(s.to_owned())
    }

    #[test]
    fn parse_atoms_and_operators() {
        assert_eq!(parse_path("next").unwrap(), atom("next"));
        assert_eq!(
            parse_path("a/b").unwrap(),
            PathExpr::Seq(vec![atom("a"), atom("b")])
        );
        assert_eq!(
            parse_path("a|b").unwrap(),
            PathExpr::Alt(vec![atom("a"), atom("b")])
        );
        assert_eq!(
            parse_path("a*").unwrap(),
            PathExpr::Star(Box::new(atom("a")))
        );
        assert_eq!(
            parse_path("a+").unwrap(),
            PathExpr::Plus(Box::new(atom("a")))
        );
        assert_eq!(
            parse_path("a?").unwrap(),
            PathExpr::Opt(Box::new(atom("a")))
        );
    }

    #[test]
    fn precedence_postfix_over_seq_over_alt() {
        // a/b*|c == (a/(b*)) | c
        assert_eq!(
            parse_path("a/b*|c").unwrap(),
            PathExpr::Alt(vec![
                PathExpr::Seq(vec![atom("a"), PathExpr::Star(Box::new(atom("b")))]),
                atom("c"),
            ])
        );
        // Parentheses override: (a/b)* and a/(b|c).
        assert_eq!(
            parse_path("(a/b)*").unwrap(),
            PathExpr::Star(Box::new(PathExpr::Seq(vec![atom("a"), atom("b")])))
        );
        assert_eq!(
            parse_path("a/(b|c)").unwrap(),
            PathExpr::Seq(vec![atom("a"), PathExpr::Alt(vec![atom("b"), atom("c")])])
        );
    }

    #[test]
    fn stacked_postfix_operators() {
        assert_eq!(
            parse_path("a*?").unwrap(),
            PathExpr::Opt(Box::new(PathExpr::Star(Box::new(atom("a")))))
        );
    }

    #[test]
    fn quoted_labels_carry_arbitrary_characters() {
        assert_eq!(
            parse_path("'http://example.org/knows'").unwrap(),
            atom("http://example.org/knows")
        );
        assert_eq!(
            parse_path("'has space'/b").unwrap(),
            PathExpr::Seq(vec![atom("has space"), atom("b")])
        );
    }

    #[test]
    fn uri_characters_without_slash_stay_bare() {
        assert_eq!(parse_path("foaf:knows").unwrap(), atom("foaf:knows"));
        assert_eq!(parse_path("part_of").unwrap(), atom("part_of"));
        assert_eq!(parse_path("a-b.c#d").unwrap(), atom("a-b.c#d"));
    }

    #[test]
    fn display_round_trips() {
        let zoo = [
            "next",
            "a/b/c",
            "a|b|c",
            "a*",
            "a+",
            "a?",
            "a/b*|c",
            "(a/b)*",
            "a/(b|c)+/d",
            "((a|b)/c)?",
            "'http://example.org/knows'/name",
            "a**",
        ];
        for text in zoo {
            let parsed = parse_path(text).unwrap_or_else(|e| panic!("parse `{text}`: {e}"));
            let rendered = parsed.to_string();
            let reparsed = parse_path(&rendered)
                .unwrap_or_else(|e| panic!("reparse `{rendered}` (from `{text}`): {e}"));
            assert_eq!(
                reparsed, parsed,
                "round-trip failed: `{text}` → `{rendered}`"
            );
        }
    }

    #[test]
    fn whitespace_is_insignificant() {
        assert_eq!(
            parse_path(" a / b | c ").unwrap(),
            parse_path("a/b|c").unwrap()
        );
    }

    #[test]
    fn errors_carry_offsets() {
        let offset_of = |input: &str| match parse_path(input) {
            Err(Error::Parse { offset, .. }) => offset,
            other => panic!("expected a parse error for `{input}`, got {other:?}"),
        };
        assert_eq!(offset_of(""), 0);
        assert_eq!(offset_of("a//b"), 2); // empty concatenation operand
        assert_eq!(offset_of("a/"), 2); // trailing operator
        assert_eq!(offset_of("(a"), 2); // missing `)`
        assert_eq!(offset_of("a)b"), 1); // stray `)`
        assert_eq!(offset_of("*a"), 0); // postfix with no operand
        assert_eq!(offset_of("'unterminated"), 0);
        assert_eq!(offset_of("''"), 0); // empty quoted label
    }

    #[test]
    fn depth_and_size_are_capped_at_the_crossing_character() {
        let offset_of = |input: &str| match parse_path(input) {
            Err(Error::Parse { offset, .. }) => offset,
            other => panic!("expected a parse error, got {other:?}"),
        };
        // `a` under `n` closures is `n + 1` deep.
        let postfix = |n: usize| format!("a{}", "?".repeat(n));
        assert!(parse_path(&postfix(MAX_DEPTH - 1)).is_ok());
        assert_eq!(offset_of(&postfix(MAX_DEPTH)), MAX_DEPTH);
        // Each parenthesised list is one level, so the outermost list is
        // the one too deep: the offset is its `/`.
        let nested = |n: usize| format!("{}a{}", "(".repeat(n), "/a)".repeat(n));
        assert!(parse_path(&nested(MAX_DEPTH - 1)).is_ok());
        assert_eq!(offset_of(&nested(MAX_DEPTH)), 4 * MAX_DEPTH - 2);
        let parens = |n: usize| format!("{}a{}", "(".repeat(n), ")".repeat(n));
        assert_eq!(parse_path(&parens(MAX_DEPTH)).unwrap(), atom("a"));
        assert_eq!(offset_of(&parens(MAX_DEPTH + 1)), MAX_DEPTH);
        // A flat list is shallow, but its atoms count against the size.
        let flat = |n: usize| vec!["a"; n].join("|");
        assert!(parse_path(&flat(MAX_PATH_SIZE)).is_ok());
        assert_eq!(offset_of(&flat(MAX_PATH_SIZE + 1)), 2 * MAX_PATH_SIZE);
        // ...and so do closure operators.
        let starred = |n: usize| vec!["a*"; n].join("/");
        assert!(parse_path(&starred(MAX_PATH_SIZE / 2)).is_ok());
        assert_eq!(
            offset_of(&starred(MAX_PATH_SIZE / 2 + 1)),
            3 * MAX_PATH_SIZE / 2
        );
    }

    #[test]
    fn labels_in_first_appearance_order() {
        let e = parse_path("a/(b|c)+/d?").unwrap();
        assert_eq!(e.labels(), vec!["a", "b", "c", "d"]);
        let flat = parse_path("a/b?|a").unwrap();
        assert_eq!(flat.labels(), vec!["a", "b"]);
    }
}
