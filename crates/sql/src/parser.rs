//! Recursive-descent parser for the entangled-SQL dialect.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! statement  := SELECT scalar (',' scalar)*
//!               INTO ANSWER ident (',' ANSWER ident)*
//!               [WHERE cond (AND cond)*]
//!               [CHOOSE int]                          -- default 1
//! cond       := ident IN '(' subselect ')'
//!             | '(' scalar (',' scalar)* ')' IN ANSWER ident
//!             | scalar IN ANSWER ident                -- 1-tuple sugar
//!             | scalar '=' scalar
//!             | ident '(' scalar (',' scalar)* ')'    -- direct db atom
//! subselect  := SELECT colref FROM tableref (',' tableref)*
//!               [WHERE simple (AND simple)*]
//! tableref   := ident [ident]                          -- name [alias]
//! simple     := colref '=' (literal | colref | ident)
//! colref     := [ident '.'] ident
//! scalar     := literal | ident
//! ```

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::{Lexer, Token, TokenKind};

/// Parses one entangled-SQL statement.
pub fn parse_select(input: &str) -> Result<EntangledSelect, ParseError> {
    let tokens = Lexer::tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.expect_eof()?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
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

    /// True if the current token is the given keyword (case-insensitive).
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.at_keyword(kw) {
            self.bump();
            Ok(())
        } else {
            Err(self.error_here(format!("expected {kw}, found {}", self.peek().kind)))
        }
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

    fn ident(&mut self) -> Result<String, ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => Err(self.error_here(format!("expected identifier, found {other}"))),
        }
    }

    fn statement(&mut self) -> Result<EntangledSelect, ParseError> {
        self.expect_keyword("SELECT")?;
        let mut items = vec![self.scalar()?];
        while self.peek().kind == TokenKind::Comma {
            self.bump();
            items.push(self.scalar()?);
        }
        self.expect_keyword("INTO")?;
        self.expect_keyword("ANSWER")?;
        let mut into = vec![self.ident()?];
        while self.peek().kind == TokenKind::Comma {
            self.bump();
            self.expect_keyword("ANSWER")?;
            into.push(self.ident()?);
        }
        let mut conditions = Vec::new();
        if self.at_keyword("WHERE") {
            self.bump();
            conditions.push(self.condition()?);
            while self.at_keyword("AND") {
                self.bump();
                conditions.push(self.condition()?);
            }
        }
        let choose = if self.at_keyword("CHOOSE") {
            self.bump();
            match self.bump().kind {
                TokenKind::Int(k) if k > 0 => u32::try_from(k)
                    .map_err(|_| ParseError::general("CHOOSE count out of range"))?,
                _ => return Err(ParseError::general("CHOOSE expects a positive integer")),
            }
        } else {
            1
        };
        Ok(EntangledSelect {
            items,
            into,
            conditions,
            choose,
        })
    }

    fn scalar(&mut self) -> Result<ScalarExpr, ParseError> {
        match &self.peek().kind {
            TokenKind::Str(s) => {
                let s = s.clone();
                self.bump();
                Ok(ScalarExpr::Lit(Literal::Str(s)))
            }
            TokenKind::Int(i) => {
                let i = *i;
                self.bump();
                Ok(ScalarExpr::Lit(Literal::Int(i)))
            }
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(ScalarExpr::Name(s))
            }
            other => Err(self.error_here(format!("expected scalar, found {other}"))),
        }
    }

    fn condition(&mut self) -> Result<Condition, ParseError> {
        // Tuple postcondition: '(' scalar, ... ')' IN ANSWER r
        if self.peek().kind == TokenKind::LParen {
            self.bump();
            let mut tuple = vec![self.scalar()?];
            while self.peek().kind == TokenKind::Comma {
                self.bump();
                tuple.push(self.scalar()?);
            }
            self.expect(&TokenKind::RParen)?;
            self.expect_keyword("IN")?;
            self.expect_keyword("ANSWER")?;
            let answer = self.ident()?;
            return Ok(Condition::InAnswer(AnswerMembership { tuple, answer }));
        }

        // Direct db atom: ident '(' ... ')' — lookahead for '(' after ident.
        if matches!(self.peek().kind, TokenKind::Ident(_))
            && self.tokens.get(self.pos + 1).map(|t| &t.kind) == Some(&TokenKind::LParen)
            && !self.at_keyword("SELECT")
        {
            let relation = self.ident()?;
            self.expect(&TokenKind::LParen)?;
            let mut tuple = vec![self.scalar()?];
            while self.peek().kind == TokenKind::Comma {
                self.bump();
                tuple.push(self.scalar()?);
            }
            self.expect(&TokenKind::RParen)?;
            return Ok(Condition::DbAtom { relation, tuple });
        }

        let left = self.scalar()?;
        if self.at_keyword("IN") {
            self.bump();
            if self.at_keyword("ANSWER") {
                self.bump();
                let answer = self.ident()?;
                return Ok(Condition::InAnswer(AnswerMembership {
                    tuple: vec![left],
                    answer,
                }));
            }
            self.expect(&TokenKind::LParen)?;
            let sub = self.subselect()?;
            self.expect(&TokenKind::RParen)?;
            let name = match left {
                ScalarExpr::Name(n) => n,
                ScalarExpr::Lit(_) => {
                    return Err(ParseError::general(
                        "left side of IN (SELECT ...) must be a name",
                    ))
                }
            };
            return Ok(Condition::InSubquery { name, sub });
        }
        self.expect(&TokenKind::Eq)?;
        let right = self.scalar()?;
        Ok(Condition::Equality(left, right))
    }

    fn subselect(&mut self) -> Result<SubSelect, ParseError> {
        self.expect_keyword("SELECT")?;
        let column = self.colref()?;
        self.expect_keyword("FROM")?;
        let mut tables = vec![self.tableref()?];
        while self.peek().kind == TokenKind::Comma {
            self.bump();
            tables.push(self.tableref()?);
        }
        let mut conditions = Vec::new();
        if self.at_keyword("WHERE") {
            self.bump();
            conditions.push(self.simple_condition()?);
            while self.at_keyword("AND") {
                self.bump();
                conditions.push(self.simple_condition()?);
            }
        }
        Ok(SubSelect {
            column,
            tables,
            conditions,
        })
    }

    fn tableref(&mut self) -> Result<TableRef, ParseError> {
        let table = self.ident()?;
        // Optional alias: a bare identifier that is not a clause keyword.
        let alias = if matches!(self.peek().kind, TokenKind::Ident(_))
            && !self.at_keyword("WHERE")
            && !self.at_keyword("AND")
        {
            self.ident()?
        } else {
            table.clone()
        };
        Ok(TableRef { table, alias })
    }

    fn colref(&mut self) -> Result<(String, String), ParseError> {
        let first = self.ident()?;
        if self.peek().kind == TokenKind::Dot {
            self.bump();
            let col = self.ident()?;
            Ok((first, col))
        } else {
            Ok((String::new(), first))
        }
    }

    fn simple_condition(&mut self) -> Result<SimpleCondition, ParseError> {
        let col = self.colref()?;
        self.expect(&TokenKind::Eq)?;
        match &self.peek().kind {
            TokenKind::Str(s) => {
                let lit = Literal::Str(s.clone());
                self.bump();
                Ok(SimpleCondition::ColEqLit { col, lit })
            }
            TokenKind::Int(i) => {
                let lit = Literal::Int(*i);
                self.bump();
                Ok(SimpleCondition::ColEqLit { col, lit })
            }
            TokenKind::Ident(_) => {
                let save = self.pos;
                let name_or_col = self.ident()?;
                if self.peek().kind == TokenKind::Dot {
                    self.pos = save;
                    let right = self.colref()?;
                    Ok(SimpleCondition::ColEqCol { left: col, right })
                } else {
                    Ok(SimpleCondition::ColEqName {
                        col,
                        name: name_or_col,
                    })
                }
            }
            other => Err(self.error_here(format!("expected literal or column, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Kramer's query from the paper's introduction, §1.1.
    const KRAMER: &str = "SELECT 'Kramer', fno INTO ANSWER Reservation \
        WHERE fno IN (SELECT fno FROM Flights WHERE dest='Paris') \
        AND ('Jerry', fno) IN ANSWER Reservation \
        CHOOSE 1";

    #[test]
    fn parses_kramer() {
        let q = parse_select(KRAMER).unwrap();
        assert_eq!(q.items.len(), 2);
        assert_eq!(q.items[0], ScalarExpr::Lit(Literal::Str("Kramer".into())));
        assert_eq!(q.items[1], ScalarExpr::Name("fno".into()));
        assert_eq!(q.into, vec!["Reservation".to_string()]);
        assert_eq!(q.conditions.len(), 2);
        assert_eq!(q.choose, 1);
        match &q.conditions[0] {
            Condition::InSubquery { name, sub } => {
                assert_eq!(name, "fno");
                assert_eq!(sub.column, (String::new(), "fno".to_string()));
                assert_eq!(sub.tables.len(), 1);
                assert_eq!(sub.conditions.len(), 1);
            }
            other => panic!("unexpected condition {other:?}"),
        }
        match &q.conditions[1] {
            Condition::InAnswer(m) => {
                assert_eq!(m.answer, "Reservation");
                assert_eq!(m.tuple.len(), 2);
            }
            other => panic!("unexpected condition {other:?}"),
        }
    }

    #[test]
    fn parses_jerry_with_join_subquery() {
        // Jerry's query, §1.1: join of Flights and Airlines with aliases.
        let q = parse_select(
            "SELECT 'Jerry', fno INTO ANSWER Reservation \
             WHERE fno IN (SELECT F.fno FROM Flights F, Airlines A \
                           WHERE F.dest='Paris' AND F.fno=A.fno AND A.airline='United') \
             AND ('Kramer', fno) IN ANSWER Reservation \
             CHOOSE 1",
        )
        .unwrap();
        match &q.conditions[0] {
            Condition::InSubquery { sub, .. } => {
                assert_eq!(sub.tables.len(), 2);
                assert_eq!(sub.tables[0].alias, "F");
                assert_eq!(sub.conditions.len(), 3);
                assert!(matches!(
                    sub.conditions[1],
                    SimpleCondition::ColEqCol { .. }
                ));
            }
            other => panic!("unexpected condition {other:?}"),
        }
    }

    #[test]
    fn choose_defaults_to_one() {
        let q = parse_select("SELECT 'a' INTO ANSWER R").unwrap();
        assert_eq!(q.choose, 1);
        assert!(q.conditions.is_empty());
    }

    #[test]
    fn multiple_answer_targets() {
        let q = parse_select("SELECT x INTO ANSWER R, ANSWER S WHERE T(x)").unwrap();
        assert_eq!(q.into, vec!["R".to_string(), "S".to_string()]);
    }

    #[test]
    fn direct_db_atom_condition() {
        let q = parse_select("SELECT x INTO ANSWER R WHERE Friends('Jerry', x)").unwrap();
        match &q.conditions[0] {
            Condition::DbAtom { relation, tuple } => {
                assert_eq!(relation, "Friends");
                assert_eq!(tuple.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn single_scalar_in_answer_sugar() {
        let q = parse_select("SELECT x INTO ANSWER R WHERE x IN ANSWER S AND T(x)").unwrap();
        assert!(matches!(&q.conditions[0], Condition::InAnswer(m) if m.answer == "S"));
    }

    #[test]
    fn equality_condition() {
        let q = parse_select("SELECT x INTO ANSWER R WHERE x = 'ITH' AND T(x)").unwrap();
        assert!(matches!(&q.conditions[0], Condition::Equality(..)));
    }

    #[test]
    fn choose_k() {
        // The clause parses; lowering refuses every count but 1.
        let sql = "SELECT x INTO ANSWER R WHERE T(x) CHOOSE 3";
        assert_eq!(parse_select(sql).unwrap().choose, 3);
        let mut catalog = crate::Catalog::new();
        catalog.add_table("T", &["a"]);
        let err = crate::parse_entangled_sql(sql, &catalog).unwrap_err();
        assert!(err.to_string().contains("CHOOSE 3"), "{err}");
        let one = crate::parse_entangled_sql(&sql.replace('3', "1"), &catalog).unwrap();
        assert_eq!(one.choose, 1);
    }

    #[test]
    fn errors_are_located() {
        let err = parse_select("SELECT").unwrap_err();
        assert!(err.offset.is_some());
        assert!(parse_select("SELECT 'x' INTO R").is_err()); // missing ANSWER
        assert!(parse_select("SELECT 'x' INTO ANSWER R CHOOSE 0").is_err());
        assert!(parse_select("SELECT 'x' INTO ANSWER R extra").is_err());
        assert!(parse_select("SELECT 'a' INTO ANSWER R WHERE 'l' IN (SELECT c FROM T)").is_err());
    }

    #[test]
    fn keywords_case_insensitive() {
        let q = parse_select("select x into answer R where T(x) choose 2").unwrap();
        assert_eq!(q.choose, 2);
    }
}
