//! Recursive-descent parser for the TriAL expression syntax.

use crate::lexer::{tokenize, Token, TokenKind};
use crate::MAX_DEPTH;
use trial_core::{Cmp, Conditions, Error, Expr, OutputSpec, Pos, Result, Side, Value};

/// Parses a TriAL / TriAL\* expression from its textual form.
///
/// The accepted grammar (informally):
///
/// ```text
/// expr     := term ( binop term )*
/// binop    := UNION | MINUS | INTERSECT | JOIN spec
/// term     := EMPTY | U | ident
///           | SELECT spec ( expr )
///           | COMPL ( expr )
///           | STAR ( expr JOIN spec )          -- right Kleene closure
///           | STAR ( JOIN spec expr )          -- left Kleene closure
///           | ( expr )
/// spec     := [ pos , pos , pos ( | cond ( , cond )* )? ]
/// cond     := pos (=|!=) (pos | 'object')
///           | rho ( pos ) (=|!=) ( rho ( pos ) | value )
/// value    := integer | "string" | null | ( value , … )
/// pos      := 1 | 2 | 3 | 1' | 2' | 3'
/// ```
///
/// Binary operators are left-associative and have equal precedence, so
/// unparenthesised chains group as `((a op b) op c)`. The
/// [`Display`](std::fmt::Display) form of [`Expr`] always parenthesises, so
/// round-tripping is unambiguous.
///
/// An expression deeper than [`MAX_DEPTH`] operators, or with more than
/// [`MAX_DEPTH`] brackets open at once, is a parse error at the token that
/// crosses the limit.
pub fn parse(input: &str) -> Result<Expr> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens,
        index: 0,
        open: 0,
    };
    let (expr, _) = parser.parse_expr()?;
    parser.expect_eof()?;
    expr.validate()?;
    Ok(expr)
}

/// A parsed subexpression with its height: the most AST nodes on a path
/// from its root to a leaf.
type Node = (Expr, usize);

struct Parser {
    tokens: Vec<Token>,
    index: usize,
    /// Brackets opened and not yet closed: bounds the parser's recursion.
    open: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.index].kind
    }

    fn peek_offset(&self) -> usize {
        self.tokens[self.index].offset
    }

    fn advance(&mut self) -> TokenKind {
        let kind = self.tokens[self.index].kind.clone();
        if self.index + 1 < self.tokens.len() {
            self.index += 1;
        }
        kind
    }

    fn error(&self, message: impl Into<String>) -> Error {
        Error::Parse {
            message: message.into(),
            offset: self.peek_offset(),
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<()> {
        if self.peek() == kind {
            self.advance();
            Ok(())
        } else {
            Err(self.error(format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(self.error(format!("unexpected trailing {}", self.peek())))
        }
    }

    fn ident_is(&self, word: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s == word)
    }

    /// The height of a node built by the token at `offset` over children
    /// at most `below` high: an error if it is deeper than [`MAX_DEPTH`].
    fn deepen(&self, below: usize, offset: usize) -> Result<usize> {
        if below >= MAX_DEPTH {
            return Err(Error::Parse {
                message: format!("expression nests deeper than {MAX_DEPTH} operators"),
                offset,
            });
        }
        Ok(below + 1)
    }

    /// Consumes a `(`: an error if it would leave more than [`MAX_DEPTH`]
    /// brackets open.
    fn open(&mut self) -> Result<()> {
        if self.open >= MAX_DEPTH && matches!(self.peek(), TokenKind::LParen) {
            return Err(self.error(format!("more than {MAX_DEPTH} nested brackets")));
        }
        self.expect(&TokenKind::LParen)?;
        self.open += 1;
        Ok(())
    }

    /// Consumes the `)` that closes the innermost open bracket.
    fn close(&mut self) -> Result<()> {
        self.expect(&TokenKind::RParen)?;
        self.open -= 1;
        Ok(())
    }

    fn parse_expr(&mut self) -> Result<Node> {
        let (mut left, mut height) = self.parse_term()?;
        loop {
            let offset = self.peek_offset();
            let (right, below);
            if self.ident_is("UNION") {
                self.advance();
                (right, below) = self.parse_term()?;
                left = left.union(right);
            } else if self.ident_is("MINUS") {
                self.advance();
                (right, below) = self.parse_term()?;
                left = left.minus(right);
            } else if self.ident_is("INTERSECT") {
                self.advance();
                (right, below) = self.parse_term()?;
                left = left.intersect(right);
            } else if self.ident_is("JOIN") {
                self.advance();
                let (output, cond) = self.parse_spec()?;
                (right, below) = self.parse_term()?;
                left = left.join(right, output, cond);
            } else {
                return Ok((left, height));
            }
            height = self.deepen(height.max(below), offset)?;
        }
    }

    fn parse_term(&mut self) -> Result<Node> {
        let offset = self.peek_offset();
        match self.peek().clone() {
            TokenKind::LParen => {
                self.open()?;
                let inner = self.parse_expr()?;
                self.close()?;
                Ok(inner)
            }
            TokenKind::Ident(word) => match word.as_str() {
                "EMPTY" => {
                    self.advance();
                    Ok((Expr::Empty, 1))
                }
                "U" => {
                    self.advance();
                    Ok((Expr::Universe, 1))
                }
                "SELECT" => {
                    self.advance();
                    let (output, cond) = self.parse_select_spec()?;
                    if output.is_some() {
                        return Err(self.error("SELECT takes only conditions, not an output list"));
                    }
                    self.open()?;
                    let (inner, below) = self.parse_expr()?;
                    self.close()?;
                    Ok((inner.select(cond), self.deepen(below, offset)?))
                }
                "COMPL" => {
                    self.advance();
                    self.open()?;
                    let (inner, below) = self.parse_expr()?;
                    self.close()?;
                    Ok((inner.complement(), self.deepen(below, offset)?))
                }
                "STAR" => {
                    self.advance();
                    self.open()?;
                    let (star, below) = self.parse_star_body()?;
                    self.close()?;
                    Ok((star, self.deepen(below, offset)?))
                }
                "UNION" | "MINUS" | "INTERSECT" | "JOIN" => {
                    Err(self.error(format!("`{word}` is a keyword, not a relation name")))
                }
                _ => {
                    self.advance();
                    Ok((Expr::rel(word), 1))
                }
            },
            other => Err(self.error(format!("expected an expression, found {other}"))),
        }
    }

    /// Parses the body of `STAR( … )`: either `expr JOIN spec` (right) or
    /// `JOIN spec expr` (left).
    ///
    /// The right form is mildly ambiguous because `JOIN spec` is also a
    /// binary operator: in `STAR(A JOIN[s1] B JOIN[s2])` the first `JOIN`
    /// combines `A` and `B` while the second is the star's own join. The
    /// disambiguation rule is that the star's join spec is the one
    /// immediately followed by the closing parenthesis (a term can never
    /// start with `)`).
    ///
    /// The height returned is the star's operand's: the caller counts the
    /// star itself.
    fn parse_star_body(&mut self) -> Result<Node> {
        if self.ident_is("JOIN") {
            self.advance();
            let (output, cond) = self.parse_spec()?;
            let (inner, below) = self.parse_expr()?;
            return Ok((inner.left_star(output, cond), below));
        }
        let (mut left, mut height) = self.parse_term()?;
        loop {
            let offset = self.peek_offset();
            let (right, below);
            if self.ident_is("UNION") {
                self.advance();
                (right, below) = self.parse_term()?;
                left = left.union(right);
            } else if self.ident_is("MINUS") {
                self.advance();
                (right, below) = self.parse_term()?;
                left = left.minus(right);
            } else if self.ident_is("INTERSECT") {
                self.advance();
                (right, below) = self.parse_term()?;
                left = left.intersect(right);
            } else if self.ident_is("JOIN") {
                self.advance();
                let (output, cond) = self.parse_spec()?;
                if matches!(self.peek(), TokenKind::RParen) {
                    // This JOIN is the star's own join.
                    return Ok((left.right_star(output, cond), height));
                }
                (right, below) = self.parse_term()?;
                left = left.join(right, output, cond);
            } else {
                return Err(self.error("expected JOIN inside STAR(...)"));
            }
            height = self.deepen(height.max(below), offset)?;
        }
    }

    /// Parses a join spec `[i,j,k]` or `[i,j,k | conds]`.
    fn parse_spec(&mut self) -> Result<(OutputSpec, Conditions)> {
        self.expect(&TokenKind::LBracket)?;
        let i = self.parse_pos()?;
        self.expect(&TokenKind::Comma)?;
        let j = self.parse_pos()?;
        self.expect(&TokenKind::Comma)?;
        let k = self.parse_pos()?;
        let cond = if matches!(self.peek(), TokenKind::Pipe) {
            self.advance();
            self.parse_conditions()?
        } else {
            Conditions::new()
        };
        self.expect(&TokenKind::RBracket)?;
        Ok((OutputSpec::new(i, j, k), cond))
    }

    /// Parses a selection spec `[conds]` (no output positions).
    ///
    /// Returns `(None, conds)`; the `Option` is reserved for error reporting
    /// if an output list is mistakenly supplied.
    fn parse_select_spec(&mut self) -> Result<(Option<OutputSpec>, Conditions)> {
        self.expect(&TokenKind::LBracket)?;
        let cond = if matches!(self.peek(), TokenKind::RBracket) {
            Conditions::new()
        } else {
            self.parse_conditions()?
        };
        self.expect(&TokenKind::RBracket)?;
        Ok((None, cond))
    }

    fn parse_conditions(&mut self) -> Result<Conditions> {
        let mut cond = Conditions::new();
        loop {
            cond = self.parse_condition(cond)?;
            if matches!(self.peek(), TokenKind::Comma) {
                self.advance();
            } else {
                return Ok(cond);
            }
        }
    }

    fn parse_condition(&mut self, cond: Conditions) -> Result<Conditions> {
        if self.ident_is("rho") {
            // Data condition: rho(p) op (rho(q) | value)
            self.advance();
            self.expect(&TokenKind::LParen)?;
            let lhs = self.parse_pos()?;
            self.expect(&TokenKind::RParen)?;
            let cmp = self.parse_cmp()?;
            if self.ident_is("rho") {
                self.advance();
                self.expect(&TokenKind::LParen)?;
                let rhs = self.parse_pos()?;
                self.expect(&TokenKind::RParen)?;
                Ok(match cmp {
                    Cmp::Eq => cond.data_eq(lhs, rhs),
                    Cmp::Neq => cond.data_neq(lhs, rhs),
                })
            } else {
                let value = self.parse_value()?;
                Ok(match cmp {
                    Cmp::Eq => cond.data_eq_const(lhs, value),
                    Cmp::Neq => cond.data_neq_const(lhs, value),
                })
            }
        } else {
            // Object condition: p op (q | 'name')
            let lhs = self.parse_pos()?;
            let cmp = self.parse_cmp()?;
            match self.peek().clone() {
                TokenKind::ObjConst(name) => {
                    self.advance();
                    Ok(match cmp {
                        Cmp::Eq => cond.obj_eq_const(lhs, name),
                        Cmp::Neq => cond.obj_neq_const(lhs, name),
                    })
                }
                _ => {
                    let rhs = self.parse_pos()?;
                    Ok(match cmp {
                        Cmp::Eq => cond.obj_eq(lhs, rhs),
                        Cmp::Neq => cond.obj_neq(lhs, rhs),
                    })
                }
            }
        }
    }

    fn parse_cmp(&mut self) -> Result<Cmp> {
        match self.peek() {
            TokenKind::Eq => {
                self.advance();
                Ok(Cmp::Eq)
            }
            TokenKind::Neq => {
                self.advance();
                Ok(Cmp::Neq)
            }
            other => Err(self.error(format!("expected `=` or `!=`, found {other}"))),
        }
    }

    fn parse_pos(&mut self) -> Result<Pos> {
        match self.peek().clone() {
            TokenKind::Int(n @ 1..=3) => {
                self.advance();
                let side = if matches!(self.peek(), TokenKind::Prime) {
                    self.advance();
                    Side::Right
                } else {
                    Side::Left
                };
                Ok(Pos::new(side, n as u8))
            }
            other => Err(self.error(format!(
                "expected a position (1, 2, 3, 1', 2', 3'), found {other}"
            ))),
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        match self.peek().clone() {
            TokenKind::Int(i) => {
                self.advance();
                Ok(Value::Int(i))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Value::from(s))
            }
            TokenKind::Ident(word) if word == "null" => {
                self.advance();
                Ok(Value::Null)
            }
            TokenKind::LParen => {
                self.open()?;
                let mut items = Vec::new();
                if !matches!(self.peek(), TokenKind::RParen) {
                    loop {
                        items.push(self.parse_value()?);
                        if matches!(self.peek(), TokenKind::Comma) {
                            self.advance();
                        } else {
                            break;
                        }
                    }
                }
                self.close()?;
                Ok(Value::Tuple(items))
            }
            other => Err(self.error(format!(
                "expected a data value (integer, string, null or tuple), found {other}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trial_core::builder::queries;
    use trial_core::builder::ExprBuilderExt;

    #[test]
    fn parse_relation_and_constants() {
        assert_eq!(parse("E").unwrap(), Expr::rel("E"));
        assert_eq!(parse("U").unwrap(), Expr::Universe);
        assert_eq!(parse("EMPTY").unwrap(), Expr::Empty);
        assert_eq!(parse("(E)").unwrap(), Expr::rel("E"));
    }

    #[test]
    fn parse_paper_examples() {
        assert_eq!(
            parse("(E JOIN[1,3',3 | 2=1'] E)").unwrap(),
            queries::example2("E")
        );
        assert_eq!(
            parse("STAR(E JOIN[1,2,3' | 3=1'])").unwrap(),
            queries::reach_forward("E")
        );
        assert_eq!(
            parse("STAR(JOIN[1',2',3 | 1=2'] E)").unwrap(),
            queries::reach_down("E")
        );
        assert_eq!(
            parse("STAR(STAR(E JOIN[1,3',3 | 2=1']) JOIN[1,2,3' | 3=1',2=2'])").unwrap(),
            queries::same_company_reachability("E")
        );
    }

    #[test]
    fn parse_set_operations_left_associative() {
        let e = parse("A UNION B MINUS C INTERSECT D").unwrap();
        assert_eq!(
            e,
            Expr::rel("A")
                .union(Expr::rel("B"))
                .minus(Expr::rel("C"))
                .intersect(Expr::rel("D"))
        );
        // Parenthesised grouping overrides.
        let e = parse("A UNION (B MINUS C)").unwrap();
        assert_eq!(
            e,
            Expr::rel("A").union(Expr::rel("B").minus(Expr::rel("C")))
        );
    }

    #[test]
    fn parse_select_compl_and_conditions() {
        let e = parse("SELECT[2='part_of'](E)").unwrap();
        assert_eq!(
            e,
            Expr::rel("E").select(Conditions::new().obj_eq_const(Pos::L2, "part_of"))
        );
        let e = parse("COMPL(E)").unwrap();
        assert_eq!(e, Expr::rel("E").complement());
        let e = parse("SELECT[rho(1)=rho(3), 1!=3](E)").unwrap();
        assert_eq!(
            e,
            Expr::rel("E").select(
                Conditions::new()
                    .data_eq(Pos::L1, Pos::L3)
                    .obj_neq(Pos::L1, Pos::L3)
            )
        );
        let e = parse("SELECT[rho(2)=\"brother\", rho(3)!=null, rho(1)=42](E)").unwrap();
        match e {
            Expr::Select { cond, .. } => {
                assert_eq!(cond.eta.len(), 3);
            }
            _ => panic!("expected select"),
        }
    }

    #[test]
    fn parse_join_without_conditions_and_bare_join() {
        let e = parse("(A JOIN[1,2,3'] B)").unwrap();
        assert_eq!(
            e,
            Expr::rel("A").join(
                Expr::rel("B"),
                OutputSpec::new(Pos::L1, Pos::L2, Pos::R3),
                Conditions::new()
            )
        );
        // Without surrounding parentheses, JOIN behaves as a binary operator.
        let e2 = parse("A JOIN[1,2,3'] B").unwrap();
        assert_eq!(e, e2);
    }

    #[test]
    fn roundtrip_display_parse() {
        let zoo = vec![
            queries::example2("E"),
            queries::example2_extended("E"),
            queries::reach_forward("E"),
            queries::reach_down("E"),
            queries::reach_same_label("E"),
            queries::same_company_reachability("E"),
            queries::at_least_four_objects(),
            queries::at_least_six_objects(),
            Expr::rel("E").complement().intersect(Expr::Universe),
            Expr::rel("E")
                .select(Conditions::new().data_eq_const(Pos::L1, Value::str("x")))
                .minus(Expr::Empty),
            Expr::rel("E").intersect_via_join(Expr::rel("F")),
        ];
        for expr in zoo {
            let text = expr.to_string();
            let parsed = parse(&text).unwrap_or_else(|e| panic!("failed to parse `{text}`: {e}"));
            assert_eq!(parsed, expr, "round-trip failed for `{text}`");
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in [
            "",
            "(E",
            "E UNION",
            "STAR(E)",
            "E JOIN[1,2] E",
            "E JOIN[1,2,4] E",
            "SELECT[1=1'](E)", // primed position in selection
            "E extra",
            "JOIN",
            "STAR(JOIN[1,2,3'])",
            "E JOIN[1,2,3' | rho(1)=](E)",
        ] {
            assert!(parse(bad).is_err(), "expected `{bad}` to fail");
        }
    }

    #[test]
    fn parse_error_offsets_point_at_the_failing_token() {
        // `trial-server` returns these offsets in its JSON error bodies, so
        // they must identify the failing byte, not just "somewhere".
        let offset_of = |input: &str| match parse(input) {
            Err(Error::Parse { offset, .. }) => offset,
            other => panic!("expected a parse error for `{input}`, got {other:?}"),
        };
        assert_eq!(offset_of("E extra"), 2); // the trailing identifier
        assert_eq!(offset_of("E JOIN[1,2,4] E"), 11); // the out-of-range position
        assert_eq!(offset_of("E UNION"), 7); // end of input
        assert_eq!(offset_of(""), 0);
        assert_eq!(offset_of("(E"), 2); // missing `)`
        assert_eq!(offset_of("E JOIN[1,2,3' | 1**2] E"), 17); // bad comparator
    }

    #[test]
    fn nesting_is_capped_at_the_crossing_token() {
        let offset_of = |input: &str| match parse(input) {
            Err(Error::Parse { offset, .. }) => offset,
            other => panic!("expected a parse error, got {other:?}"),
        };
        // A flat chain of `n` unions is `n + 1` deep: the error points at
        // the union that makes it `MAX_DEPTH + 1`.
        let chain = |n: usize| vec!["E"; n + 1].join(" UNION ");
        assert!(parse(&chain(MAX_DEPTH - 1)).is_ok());
        assert_eq!(offset_of(&chain(MAX_DEPTH)), chain(MAX_DEPTH - 1).len() + 1);
        // Unary operators and a star's join count one level each.
        let compl = |n: usize| format!("{}E{}", "COMPL(".repeat(n), ")".repeat(n));
        assert!(parse(&compl(MAX_DEPTH - 1)).is_ok());
        assert_eq!(offset_of(&compl(MAX_DEPTH)), 0);
        let star = |n: usize| {
            format!(
                "{}E{}",
                "STAR(".repeat(n),
                " JOIN[1,2,3' | 3=1'])".repeat(n)
            )
        };
        assert!(parse(&star(MAX_DEPTH - 1)).is_ok());
        assert!(parse(&star(MAX_DEPTH)).is_err());
        // Brackets that add no operator still bound the recursion, and so
        // do nested tuple values.
        let parens = |n: usize| format!("{}E{}", "(".repeat(n), ")".repeat(n));
        assert_eq!(parse(&parens(MAX_DEPTH)).unwrap(), Expr::rel("E"));
        assert_eq!(offset_of(&parens(MAX_DEPTH + 1)), MAX_DEPTH);
        let tuple = |n: usize| format!("SELECT[rho(1)={}1{}](E)", "(".repeat(n), ")".repeat(n));
        assert!(parse(&tuple(MAX_DEPTH)).is_ok());
        assert!(parse(&tuple(MAX_DEPTH + 1)).is_err());
        // What `Display` renders at the cap parses back.
        let deep = parse(&chain(MAX_DEPTH - 1)).unwrap();
        assert_eq!(parse(&deep.to_string()).unwrap(), deep);
    }

    #[test]
    fn parse_uri_style_relation_names() {
        let e = parse("foaf:knows UNION http://example.org/pred").unwrap();
        assert_eq!(
            e,
            Expr::rel("foaf:knows").union(Expr::rel("http://example.org/pred"))
        );
    }

    #[test]
    fn parse_tuple_values() {
        let e = parse("SELECT[rho(1)=(\"Mario\", 23, null)](E)").unwrap();
        match e {
            Expr::Select { cond, .. } => {
                assert_eq!(cond.eta.len(), 1);
            }
            _ => panic!("expected select"),
        }
    }
}
