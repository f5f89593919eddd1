//! A small text syntax for schemas, queries, foreign keys and instances.
//!
//! Grammar (whitespace-insensitive; `,` `;` and newlines separate items):
//!
//! * **schema** — `R[3,2] S[2,1]`: relation `R` has arity 3 and a 2-attribute
//!   primary key (the paper's signature notation).
//! * **query** — `N(x, 'c', y), O(y)`: bare identifiers are variables,
//!   quoted tokens and bare numerals are constants.
//! * **foreign keys** — `N[3] -> O; R[1] -> DOCS` (also accepts `→`).
//! * **instance** — `R(a, 1); S(1, x)`: every term is a constant (quotes
//!   optional).
//!
//! The characters `#` and `§` are reserved for internally generated fresh
//! symbols and parameter constants, and are rejected in user input.
//!
//! The lexer yields tokens that borrow from the input. Ground atoms (an
//! instance's facts, [`parse_fact`]) never become [`Atom`]s: their
//! constants are interned straight into one reused row buffer, and
//! [`parse_instance`] resolves each relation name against the schema and
//! writes the row into the instance's store, so a fact costs no allocation
//! of its own. [`parse_instance`] leases the names it brings in to the
//! instance; every other parser pins them (see [`crate::intern`]).

use crate::atom::Atom;
use crate::error::ModelError;
use crate::fact::Fact;
use crate::fk::{FkSet, ForeignKey};
use crate::instance::Instance;
use crate::intern::{Cst, LeaseBuilder};
use crate::query::Query;
use crate::schema::{RelName, Schema};
use crate::term::Term;
use std::sync::Arc;

fn err(detail: impl Into<String>) -> ModelError {
    ModelError::Parse {
        detail: detail.into(),
    }
}

struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tok<'a> {
    Ident(&'a str),
    Quoted(&'a str),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Arrow,
    Eof,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Lexer<'a> {
        Lexer { input, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn skip_ws(&mut self) {
        loop {
            let r = self.rest();
            let trimmed = r.trim_start_matches([' ', '\t', '\n', '\r', ';']);
            self.pos += r.len() - trimmed.len();
            if trimmed.starts_with("--") {
                // line comment
                match trimmed.find('\n') {
                    Some(i) => self.pos += i,
                    None => self.pos = self.input.len(),
                }
            } else {
                break;
            }
        }
    }

    fn next(&mut self) -> Result<Tok<'a>, ModelError> {
        self.skip_ws();
        let r = self.rest();
        let mut chars = r.chars();
        let Some(c) = chars.next() else {
            return Ok(Tok::Eof);
        };
        match c {
            '(' => {
                self.pos += 1;
                Ok(Tok::LParen)
            }
            ')' => {
                self.pos += 1;
                Ok(Tok::RParen)
            }
            '[' => {
                self.pos += 1;
                Ok(Tok::LBracket)
            }
            ']' => {
                self.pos += 1;
                Ok(Tok::RBracket)
            }
            ',' => {
                self.pos += 1;
                Ok(Tok::Comma)
            }
            '\u{2192}' => {
                // '→'
                self.pos += c.len_utf8();
                Ok(Tok::Arrow)
            }
            '-' if r.starts_with("->") => {
                self.pos += 2;
                Ok(Tok::Arrow)
            }
            '\'' => {
                let rest = &r[1..];
                let end = rest
                    .find('\'')
                    .ok_or_else(|| err(format!("unterminated quote at …{r}")))?;
                let content = &rest[..end];
                validate_token(content)?;
                self.pos += end + 2;
                Ok(Tok::Quoted(content))
            }
            c if is_ident_char(c) => {
                let end = r.find(|ch| !is_ident_char(ch)).unwrap_or(r.len());
                let word = &r[..end];
                validate_token(word)?;
                self.pos += end;
                Ok(Tok::Ident(word))
            }
            other => Err(err(format!("unexpected character {other:?} at …{r}"))),
        }
    }

    fn expect(&mut self, want: Tok<'_>) -> Result<(), ModelError> {
        let got = self.next()?;
        if got == want {
            Ok(())
        } else {
            Err(err(format!("expected {want:?}, got {got:?}")))
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '.' || c == '\u{22a5}' // allow '⊥'
}

fn validate_token(s: &str) -> Result<(), ModelError> {
    if s.is_empty() {
        return Err(err("empty token"));
    }
    if s.contains('#') || s.contains('\u{a7}') {
        return Err(err(format!(
            "token {s:?} uses a reserved character ('#' or '§')"
        )));
    }
    Ok(())
}

/// Parses a schema, e.g. `"R[3,2] S[2,1]"`.
pub fn parse_schema(input: &str) -> Result<Schema, ModelError> {
    let mut lex = Lexer::new(input);
    let mut schema = Schema::new();
    loop {
        match lex.next()? {
            Tok::Eof => break,
            Tok::Comma => continue,
            Tok::Ident(name) => {
                lex.expect(Tok::LBracket)?;
                let arity = parse_usize(&mut lex)?;
                lex.expect(Tok::Comma)?;
                let key_len = parse_usize(&mut lex)?;
                lex.expect(Tok::RBracket)?;
                schema.add(name, arity, key_len)?;
            }
            other => return Err(err(format!("expected relation name, got {other:?}"))),
        }
    }
    Ok(schema)
}

fn parse_usize(lex: &mut Lexer<'_>) -> Result<usize, ModelError> {
    match lex.next()? {
        Tok::Ident(word) => word
            .parse::<usize>()
            .map_err(|_| err(format!("expected a number, got {word:?}"))),
        other => Err(err(format!("expected a number, got {other:?}"))),
    }
}

/// Parses a parenthesized term list, `(t₁, …, tₙ)` or `()`, handing each
/// term token to `push`.
fn parse_args<'a>(
    lex: &mut Lexer<'a>,
    mut push: impl FnMut(Tok<'a>) -> Result<(), ModelError>,
) -> Result<(), ModelError> {
    lex.expect(Tok::LParen)?;
    let mut first = true;
    loop {
        let tok = lex.next()?;
        if tok == Tok::RParen && first {
            return Ok(());
        }
        first = false;
        push(tok)?;
        match lex.next()? {
            Tok::Comma => continue,
            Tok::RParen => return Ok(()),
            other => return Err(err(format!("expected ',' or ')', got {other:?}"))),
        }
    }
}

/// The term a token denotes in a query: quoted tokens and numerals are
/// constants, other identifiers variables.
fn parse_term(tok: Tok<'_>) -> Result<Term, ModelError> {
    match tok {
        Tok::Quoted(s) => Ok(Term::cst(s)),
        Tok::Ident(s) if s.chars().all(|c| c.is_ascii_digit()) => Ok(Term::cst(s)),
        Tok::Ident(s) => Ok(Term::var(s)),
        other => Err(err(format!("expected a term, got {other:?}"))),
    }
}

/// Parses a ground atom's arguments into `row` (cleared first): every term
/// is a constant, quoted or not, interned by `intern`.
fn parse_ground_args(
    lex: &mut Lexer<'_>,
    row: &mut Vec<Cst>,
    mut intern: impl FnMut(&str) -> Cst,
) -> Result<(), ModelError> {
    row.clear();
    parse_args(lex, |tok| match tok {
        Tok::Quoted(s) | Tok::Ident(s) => {
            row.push(intern(s));
            Ok(())
        }
        other => Err(err(format!("expected a term, got {other:?}"))),
    })
}

/// Parses a list of atoms, e.g. `"N(x, 'c', y), O(y)"`, into a query.
pub fn parse_query(schema: &Arc<Schema>, input: &str) -> Result<Query, ModelError> {
    let mut lex = Lexer::new(input);
    let mut atoms = Vec::new();
    loop {
        match lex.next()? {
            Tok::Eof => break,
            Tok::Comma => continue,
            Tok::Ident(name) => {
                let mut terms = Vec::new();
                parse_args(&mut lex, |tok| {
                    terms.push(parse_term(tok)?);
                    Ok(())
                })?;
                atoms.push(Atom::new(RelName::new(name), terms));
            }
            other => return Err(err(format!("expected an atom, got {other:?}"))),
        }
    }
    Query::new(schema.clone(), atoms)
}

/// Parses a single ground fact, e.g. `"R(a, 1)"`.
pub fn parse_fact(input: &str) -> Result<Fact, ModelError> {
    let mut lex = Lexer::new(input);
    match lex.next()? {
        Tok::Ident(name) => {
            let mut row = Vec::new();
            parse_ground_args(&mut lex, &mut row, Cst::new)?;
            Ok(Fact::new(RelName::new(name), row))
        }
        other => Err(err(format!("expected a fact, got {other:?}"))),
    }
}

/// Parses a whole instance, e.g. `"R(a,1); R(a,2); S(1,x)"`.
///
/// Equivalent to [`parse_fact`] on every fact followed by
/// [`Instance::insert`], errors included (a malformed fact fails as a parse
/// error before its relation is checked), but each fact goes straight from
/// the input into the store, and the names the interner did not pin yet
/// are *leased* to the instance rather than pinned: they are freed when the
/// instance and every instance derived from it are gone (see
/// [`crate::intern`]).
pub fn parse_instance(schema: &Arc<Schema>, input: &str) -> Result<Instance, ModelError> {
    // The schema's relations by name, resolved once: a fact's relation is
    // found by comparing its name token, without interning it.
    let rels: Vec<(Arc<str>, RelName)> = schema
        .relations()
        .map(|(rel, _)| (rel.name(), rel))
        .collect();
    let mut lex = Lexer::new(input);
    let mut db = Instance::new(schema.clone());
    let mut lease = LeaseBuilder::new();
    let mut row = Vec::new();
    loop {
        match lex.next()? {
            Tok::Eof => break,
            Tok::Comma => continue,
            Tok::Ident(name) => {
                parse_ground_args(&mut lex, &mut row, |s| lease.intern(s))?;
                let Some(&(_, rel)) = rels.iter().find(|(n, _)| **n == *name) else {
                    return Err(ModelError::UnknownRelation(name.to_string()));
                };
                db.insert_row(rel, &row)?;
            }
            other => return Err(err(format!("expected a fact, got {other:?}"))),
        }
    }
    db.hold(lease.finish());
    Ok(db)
}

/// Parses foreign keys, e.g. `"N[3] -> O; R[1] -> DOCS"`.
pub fn parse_fks(schema: &Arc<Schema>, input: &str) -> Result<FkSet, ModelError> {
    let mut lex = Lexer::new(input);
    let mut fks = Vec::new();
    loop {
        match lex.next()? {
            Tok::Eof => break,
            Tok::Comma => continue,
            Tok::Ident(from) => {
                lex.expect(Tok::LBracket)?;
                let pos = parse_usize(&mut lex)?;
                lex.expect(Tok::RBracket)?;
                lex.expect(Tok::Arrow)?;
                match lex.next()? {
                    Tok::Ident(to) => fks.push(ForeignKey::from_names(from, pos, to)),
                    other => return Err(err(format!("expected relation name, got {other:?}"))),
                }
            }
            other => return Err(err(format!("expected a foreign key, got {other:?}"))),
        }
    }
    FkSet::new(schema.clone(), fks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Var;

    #[test]
    fn schema_round_trip() {
        let s = parse_schema("R[3,2] S[2,1], T[1,1]").unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.signature(RelName::new("R")).unwrap().key_len, 2);
        assert_eq!(s.to_string(), "R[3, 2] S[2, 1] T[1, 1]");
    }

    #[test]
    fn schema_rejects_bad_signature() {
        assert!(parse_schema("R[0,0]").is_err());
        assert!(parse_schema("R[2,3]").is_err());
        assert!(parse_schema("R[2]").is_err());
    }

    #[test]
    fn query_terms() {
        let s = Arc::new(parse_schema("N[3,1] O[1,1]").unwrap());
        let q = parse_query(&s, "N(x, 'c', y), O(y)").unwrap();
        assert_eq!(q.len(), 2);
        let n = q.atom(RelName::new("N")).unwrap();
        assert_eq!(n.terms[0], Term::var("x"));
        assert_eq!(n.terms[1], Term::cst("c"));
        assert!(q.vars().contains(&Var::new("y")));
    }

    #[test]
    fn numerals_are_constants_in_queries() {
        let s = Arc::new(parse_schema("DOCS[3,1]").unwrap());
        let q = parse_query(&s, "DOCS(x, t, 2016)").unwrap();
        let a = q.atom(RelName::new("DOCS")).unwrap();
        assert_eq!(a.terms[2], Term::cst("2016"));
    }

    #[test]
    fn instance_parsing() {
        let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
        let db = parse_instance(&s, "R(a,1); R(a,2)\nS(1,x) -- a comment\nS(2,y)").unwrap();
        assert_eq!(db.len(), 4);
        assert!(db.contains(&Fact::from_names("S", &["2", "y"])));
    }

    #[test]
    fn fk_parsing_both_arrows() {
        let s = Arc::new(parse_schema("N[3,1] O[1,1]").unwrap());
        let fks = parse_fks(&s, "N[3] -> O").unwrap();
        assert_eq!(fks.len(), 1);
        let fks2 = parse_fks(&s, "N[3] → O").unwrap();
        assert_eq!(fks, fks2);
    }

    #[test]
    fn fk_parsing_validates() {
        let s = Arc::new(parse_schema("N[3,1] O[2,2]").unwrap());
        // O has a composite key; referencing it must fail.
        assert!(parse_fks(&s, "N[3] -> O").is_err());
    }

    #[test]
    fn reserved_characters_rejected() {
        let s = Arc::new(parse_schema("R[1,1]").unwrap());
        assert!(parse_instance(&s, "R(a#1)").is_err());
        assert!(parse_query(&s, "R(x§)").is_err());
    }

    #[test]
    fn unterminated_quote() {
        let s = Arc::new(parse_schema("R[1,1]").unwrap());
        assert!(parse_instance(&s, "R('abc)").is_err());
    }

    #[test]
    fn fact_parsing() {
        let f = parse_fact("AUTHORS(o1, 'Jeff', 'Ullman')").unwrap();
        assert_eq!(f.arity(), 3);
        assert_eq!(f.args[1], Cst::new("Jeff"));
    }

    #[test]
    fn query_self_join_still_rejected() {
        let s = Arc::new(parse_schema("R[2,1]").unwrap());
        assert!(parse_query(&s, "R(x,y), R(y,x)").is_err());
    }
}
