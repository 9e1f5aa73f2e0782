//! Parser for the paper's Datalog-style intermediate representation
//! (§2.2):
//!
//! ```text
//! {R(Jerry, x)} R(Kramer, x) <- Flights(x, Paris) [choose k]
//! ```
//!
//! Conventions, matching the paper's typography:
//!
//! * identifiers starting with an **uppercase** letter are string
//!   constants (`Jerry`, `Paris`);
//! * identifiers starting with a **lowercase** letter or `_` are
//!   variables (`x`, `f`);
//! * quoted strings and integers are constants of the respective kinds;
//! * atoms are separated by `,` or `&`;
//! * the postcondition block `{...}` may be empty; the body after `<-`
//!   may be empty for fully ground queries.

use crate::error::ParseError;
use crate::lexer::{Lexer, Token, TokenKind};
use eq_ir::{Atom, CmpOp, Constraint, EntangledQuery, FastMap, QueryId, Term, Value, Var};
use std::fmt::Write as _;

/// Renders a query in IR text format such that
/// [`parse_ir_query`]`(render_ir_query(q))` reproduces `q` up to dense
/// variable renumbering. Variables print as `v{n}` (lowercase ⇒
/// variable), string constants are always quoted, integers print bare.
pub fn render_ir_query(q: &EntangledQuery) -> String {
    let mut out = String::new();
    let atom_list = |atoms: &[Atom], out: &mut String| {
        for (i, a) in atoms.iter().enumerate() {
            if i > 0 {
                out.push_str(" & ");
            }
            let _ = write!(out, "{}(", a.relation);
            for (j, t) in a.terms.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                match t {
                    Term::Var(v) => {
                        let _ = write!(out, "v{}", v.index());
                    }
                    Term::Const(Value::Int(n)) => {
                        let _ = write!(out, "{n}");
                    }
                    Term::Const(Value::Str(s)) => {
                        let _ = write!(out, "\"{}\"", s.as_str());
                    }
                }
            }
            out.push(')');
        }
    };
    out.push('{');
    atom_list(&q.postconditions, &mut out);
    out.push_str("} ");
    atom_list(&q.head, &mut out);
    out.push_str(" <- ");
    atom_list(&q.body, &mut out);
    let term_text = |t: Term| -> String {
        match t {
            Term::Var(v) => format!("v{}", v.index()),
            Term::Const(Value::Int(n)) => format!("{n}"),
            Term::Const(Value::Str(s)) => format!("\"{}\"", s.as_str()),
        }
    };
    for c in &q.constraints {
        if out.ends_with("<- ") {
            let _ = write!(out, "{} {} {}", term_text(c.lhs), c.op, term_text(c.rhs));
        } else {
            let _ = write!(out, " & {} {} {}", term_text(c.lhs), c.op, term_text(c.rhs));
        }
    }
    if q.choose != 1 {
        let _ = write!(out, " choose {}", q.choose);
    }
    out
}

/// Parses one query in IR text format. Variables are numbered densely in
/// first-occurrence order.
pub fn parse_ir_query(input: &str) -> Result<EntangledQuery, ParseError> {
    let tokens = Lexer::tokenize(input)?;
    let mut p = IrParser {
        tokens,
        pos: 0,
        vars: FastMap::default(),
        next_var: 0,
    };
    let q = p.query()?;
    p.expect_eof()?;
    q.validate()
        .map_err(|e| ParseError::general(e.to_string()))?;
    Ok(q)
}

struct IrParser {
    tokens: Vec<Token>,
    pos: usize,
    vars: FastMap<String, Var>,
    next_var: u32,
}

impl IrParser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn error_here(&self, msg: impl Into<String>) -> ParseError {
        ParseError::at(self.peek().offset, msg)
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
        if &self.peek().kind == kind {
            self.bump();
            Ok(())
        } else {
            Err(self.error_here(format!("expected {kind}, found {}", self.peek().kind)))
        }
    }

    fn expect_eof(&self) -> Result<(), ParseError> {
        if self.peek().kind == TokenKind::Eof {
            Ok(())
        } else {
            Err(self.error_here(format!("trailing input: {}", self.peek().kind)))
        }
    }

    fn query(&mut self) -> Result<EntangledQuery, ParseError> {
        self.expect(&TokenKind::LBrace)?;
        let postconditions = if self.peek().kind == TokenKind::RBrace {
            Vec::new()
        } else {
            self.atom_list(|k| *k == TokenKind::RBrace)?
        };
        self.expect(&TokenKind::RBrace)?;
        let head = self.atom_list(|k| *k == TokenKind::Arrow || *k == TokenKind::Eof)?;
        let mut body = Vec::new();
        let mut constraints = Vec::new();
        if self.peek().kind == TokenKind::Arrow {
            self.bump();
            if !self.at_end_or_choose() {
                self.body_items(&mut body, &mut constraints)?;
            }
        }
        let choose = if self.at_keyword("choose") {
            self.bump();
            match self.bump().kind {
                TokenKind::Int(k) if k > 0 => u32::try_from(k)
                    .map_err(|_| ParseError::general("choose count out of range"))?,
                _ => return Err(ParseError::general("choose expects a positive integer")),
            }
        } else {
            1
        };
        Ok(EntangledQuery {
            id: QueryId(0),
            head,
            postconditions,
            body,
            constraints,
            choose,
        })
    }

    /// Parses `item ((',' | '&') item)*` where an item is either a
    /// relational atom or a comparison constraint `term op term`.
    fn body_items(
        &mut self,
        body: &mut Vec<Atom>,
        constraints: &mut Vec<Constraint>,
    ) -> Result<(), ParseError> {
        loop {
            // Lookahead: Ident '(' means a relational atom.
            let is_atom = matches!(self.peek().kind, TokenKind::Ident(_))
                && self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::LParen);
            if is_atom {
                body.push(self.atom()?);
            } else {
                let lhs = self.term()?;
                let op = match self.bump().kind {
                    TokenKind::Lt => CmpOp::Lt,
                    TokenKind::Le => CmpOp::Le,
                    TokenKind::Gt => CmpOp::Gt,
                    TokenKind::Ge => CmpOp::Ge,
                    TokenKind::Ne => CmpOp::Ne,
                    other => {
                        return Err(
                            self.error_here(format!("expected comparison operator, found {other}"))
                        )
                    }
                };
                let rhs = self.term()?;
                constraints.push(Constraint::new(lhs, op, rhs));
            }
            match &self.peek().kind {
                TokenKind::Comma | TokenKind::Amp => {
                    self.bump();
                }
                _ => return Ok(()),
            }
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn at_end_or_choose(&self) -> bool {
        self.peek().kind == TokenKind::Eof || self.at_keyword("choose")
    }

    /// Parses `atom ((',' | '&') atom)*`, stopping before `stop` tokens or
    /// a `choose` keyword.
    fn atom_list(&mut self, stop: impl Fn(&TokenKind) -> bool) -> Result<Vec<Atom>, ParseError> {
        let mut atoms = vec![self.atom()?];
        loop {
            match &self.peek().kind {
                TokenKind::Comma | TokenKind::Amp => {
                    self.bump();
                    atoms.push(self.atom()?);
                }
                k if stop(k) || self.at_keyword("choose") => break,
                _ => break,
            }
        }
        Ok(atoms)
    }

    fn atom(&mut self) -> Result<Atom, ParseError> {
        let relation = match self.bump().kind {
            TokenKind::Ident(s) => s,
            other => return Err(self.error_here(format!("expected relation name, found {other}"))),
        };
        self.expect(&TokenKind::LParen)?;
        let mut terms = Vec::new();
        if self.peek().kind != TokenKind::RParen {
            terms.push(self.term()?);
            while self.peek().kind == TokenKind::Comma {
                self.bump();
                terms.push(self.term()?);
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Atom::new(relation.as_str(), terms))
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        match self.bump().kind {
            TokenKind::Str(s) => Ok(Term::str(&s)),
            TokenKind::Int(i) => Ok(Term::int(i)),
            TokenKind::Ident(s) => {
                let first = s.chars().next().expect("idents are non-empty");
                if first.is_ascii_uppercase() {
                    Ok(Term::str(&s))
                } else {
                    let next_var = &mut self.next_var;
                    let v = *self.vars.entry(s).or_insert_with(|| {
                        let v = Var(*next_var);
                        *next_var += 1;
                        v
                    });
                    Ok(Term::Var(v))
                }
            }
            other => Err(self.error_here(format!("expected term, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eq_ir::Symbol;

    #[test]
    fn kramer_paper_figure_2a() {
        let q = parse_ir_query("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)").unwrap();
        assert_eq!(q.postconditions.len(), 1);
        assert_eq!(q.head.len(), 1);
        assert_eq!(q.body.len(), 1);
        assert_eq!(q.head[0].terms[0], Term::str("Kramer"));
        assert_eq!(q.head[0].terms[1], Term::Var(Var(0)));
        assert_eq!(q.postconditions[0].terms[1], Term::Var(Var(0)));
        assert_eq!(q.choose, 1);
    }

    #[test]
    fn jerry_with_conjunctive_body() {
        let q = parse_ir_query("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris) & A(y, United)").unwrap();
        assert_eq!(q.body.len(), 2);
        assert_eq!(q.body[1].relation, Symbol::new("A"));
    }

    #[test]
    fn comma_conjunction_also_accepted() {
        let q = parse_ir_query("{R(Kramer, y)} R(Jerry, y) <- F(y, Paris), A(y, United)").unwrap();
        assert_eq!(q.body.len(), 2);
    }

    #[test]
    fn empty_postconditions() {
        let q = parse_ir_query("{} R(Kramer, x) <- F(x, Paris)").unwrap();
        assert!(q.postconditions.is_empty());
    }

    #[test]
    fn ground_query_without_body() {
        let q = parse_ir_query("{R(Kramer, ITH)} R(Jerry, ITH) <-").unwrap();
        assert!(q.body.is_empty());
        assert!(q.head[0].is_ground());
        // Arrow fully omitted also works.
        let q2 = parse_ir_query("{R(Kramer, ITH)} R(Jerry, ITH)").unwrap();
        assert_eq!(q2.head, q.head);
    }

    #[test]
    fn quoted_and_numeric_constants() {
        let q = parse_ir_query("{} R(\"lower case const\", 42) <- T('x y', 7)").unwrap();
        assert_eq!(q.head[0].terms[0], Term::str("lower case const"));
        assert_eq!(q.head[0].terms[1], Term::int(42));
        assert_eq!(q.body[0].terms[0], Term::str("x y"));
    }

    #[test]
    fn case_convention_distinguishes_vars_and_consts() {
        let q = parse_ir_query("{} R(Paris, paris) <- T(paris)").unwrap();
        assert_eq!(q.head[0].terms[0], Term::str("Paris"));
        assert!(q.head[0].terms[1].is_var());
    }

    #[test]
    fn shared_variable_names_map_to_same_var() {
        let q = parse_ir_query("{R(f, z)} R(Jerry, z) <- F(z, w) & Friend(Jerry, f)").unwrap();
        // f occurs in postcondition and body; z in all three parts.
        let z_pc = q.postconditions[0].terms[1];
        let z_head = q.head[0].terms[1];
        let z_body = q.body[0].terms[0];
        assert_eq!(z_pc, z_head);
        assert_eq!(z_pc, z_body);
    }

    #[test]
    fn choose_clause() {
        // `choose 1` is the default; every other count is refused.
        let q = parse_ir_query("{} R(x) <- T(x) choose 1").unwrap();
        assert_eq!(q.choose, 1);
        let err = parse_ir_query("{} R(x) <- T(x) choose 3").unwrap_err();
        assert!(err.to_string().contains("CHOOSE 3"), "{err}");
        assert!(parse_ir_query("{} R(x) <- T(x) choose 0").is_err());
    }

    #[test]
    fn multi_head_multi_postcondition() {
        // Fig 7 workload shape: 2 postconditions.
        let q = parse_ir_query(
            "{R(Jerry, SBN) & R(Kramer, SBN)} R(Elaine, SBN) <- \
             F(Elaine, Jerry) & F(Elaine, Kramer)",
        )
        .unwrap();
        assert_eq!(q.pc_count(), 2);
        assert_eq!(q.body.len(), 2);
    }

    #[test]
    fn range_restriction_checked() {
        let err = parse_ir_query("{} R(x) <- T(y)").unwrap_err();
        assert!(err.message.contains("range restriction"));
    }

    #[test]
    fn nullary_atom() {
        let q = parse_ir_query("{} R() <- ").unwrap();
        assert_eq!(q.head[0].arity(), 0);
    }

    #[test]
    fn syntax_errors_reported() {
        assert!(parse_ir_query("R(x) <- T(x)").is_err()); // missing {..}
        assert!(parse_ir_query("{} R(x <- T(x)").is_err());
        assert!(parse_ir_query("{} R(x) <- T(x) trailing(y)").is_err());
    }

    #[test]
    fn display_roundtrip() {
        // Pretty-printed queries parse back to the same structure (modulo
        // the `?N` variable names, which the printer emits and the parser
        // treats as fresh lowercase-style identifiers — so compare shape).
        let q = parse_ir_query("{R(Jerry, x)} R(Kramer, x) <- F(x, Paris)").unwrap();
        let printed = q.to_string().replace('?', "v");
        let q2 = parse_ir_query(&printed.replace(" & ", ", ")).unwrap();
        assert_eq!(q2.head[0].relation, q.head[0].relation);
        assert_eq!(q2.pc_count(), q.pc_count());
        assert_eq!(q2.body.len(), q.body.len());
    }
}
