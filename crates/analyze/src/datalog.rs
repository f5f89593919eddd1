//! A minimal stratified-Datalog dialect: AST, text syntax, and audits.
//!
//! `cqa-emit` lowers classified problems into programs of this dialect and
//! executes them with its vendored semi-naïve evaluator. The *language*
//! lives here, in the static-analysis crate, for the same reason the plan
//! IR does: emitted artifacts must be auditable — range restriction and
//! stratifiability are exactly the safety preconditions an external engine
//! (or our own executor) needs, and `cqa analyze` reports their violations
//! with the same [`Code`]/[`AuditReport`] machinery as the compiled-plan
//! audits.
//!
//! ## Syntax
//!
//! ```text
//! % line comment
//! n("a", "b").                     % ground fact (constants always quoted
//!                                  % when emitted; bare lowercase accepted)
//! cqa_sub0(X) :- n("c", X), o(X).  % rule; variables start uppercase
//! cqa_esc(X) :- cqa_edge(X, Y), cqa_esc(Y).
//! cqa_certain :- cqa_marked(X), not cqa_esc(X).   % stratified negation
//! cqa_edge(X, Y) :- cqa_vtx(X), n(X, Y), X != Y.  % inequality builtin
//! ```
//!
//! In argument position an identifier starting with an uppercase letter or
//! `_` is a variable; anything else (or a quoted string) is a constant.
//! Zero-arity atoms are written without parentheses. The printer and
//! parser round-trip ([`Program::parse`] ∘ `Display` is the identity up to
//! whitespace), which is what lets the differential oracle re-read emitted
//! artifacts instead of trusting in-memory structures.
//!
//! ## Audits
//!
//! [`audit_program`] checks:
//!
//! * **range restriction** ([`Code::DatalogNotRangeRestricted`]): every
//!   variable in a rule head, negated literal, or `!=` builtin must be
//!   bound by a positive body atom; facts must be ground;
//! * **stratifiability** ([`Code::DatalogUnstratified`]): no predicate may
//!   depend on itself through negation ([`stratify`] computes the strata
//!   the evaluator runs, or the offending cycle).

use crate::diag::{AuditReport, Code};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A term: a variable or a constant.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DTerm {
    /// A variable (printed starting with an uppercase letter).
    Var(String),
    /// A constant (always printed quoted).
    Cst(String),
}

impl DTerm {
    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            DTerm::Var(v) => Some(v),
            DTerm::Cst(_) => None,
        }
    }
}

impl fmt::Display for DTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DTerm::Var(v) => f.write_str(v),
            DTerm::Cst(c) => write!(f, "\"{}\"", c.replace('\\', "\\\\").replace('"', "\\\"")),
        }
    }
}

/// An atom `pred(t₁, …, tₙ)`; zero-arity atoms print without parentheses.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DAtom {
    /// The predicate name.
    pub pred: String,
    /// The argument terms.
    pub args: Vec<DTerm>,
}

impl DAtom {
    /// Builds an atom.
    pub fn new(pred: impl Into<String>, args: Vec<DTerm>) -> DAtom {
        DAtom {
            pred: pred.into(),
            args,
        }
    }

    /// Whether every argument is a constant.
    pub fn is_ground(&self) -> bool {
        self.args.iter().all(|t| matches!(t, DTerm::Cst(_)))
    }

    fn vars_into(&self, out: &mut BTreeSet<String>) {
        for t in &self.args {
            if let DTerm::Var(v) = t {
                out.insert(v.clone());
            }
        }
    }
}

impl fmt::Display for DAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pred)?;
        if self.args.is_empty() {
            return Ok(());
        }
        f.write_str("(")?;
        for (i, t) in self.args.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{t}")?;
        }
        f.write_str(")")
    }
}

/// A body literal: positive atom, negated atom, or inequality builtin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Literal {
    /// `p(…)`.
    Pos(DAtom),
    /// `not p(…)` (stratified negation).
    Neg(DAtom),
    /// `s != t` — both sides must be bound by positive literals.
    Neq(DTerm, DTerm),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Pos(a) => write!(f, "{a}"),
            Literal::Neg(a) => write!(f, "not {a}"),
            Literal::Neq(s, t) => write!(f, "{s} != {t}"),
        }
    }
}

/// A rule `head :- body.`; an empty body is a fact `head.`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    /// The head atom.
    pub head: DAtom,
    /// The body literals (empty for facts).
    pub body: Vec<Literal>,
}

impl Rule {
    /// A ground fact.
    pub fn fact(head: DAtom) -> Rule {
        Rule {
            head,
            body: Vec::new(),
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            f.write_str(" :- ")?;
            for (i, l) in self.body.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{l}")?;
            }
        }
        f.write_str(".")
    }
}

/// A Datalog program: rules (facts are bodiless rules) in source order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    /// The rules, facts included.
    pub rules: Vec<Rule>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Every predicate mentioned anywhere (heads and bodies).
    pub fn predicates(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        for r in &self.rules {
            out.insert(r.head.pred.as_str());
            for l in &r.body {
                match l {
                    Literal::Pos(a) | Literal::Neg(a) => {
                        out.insert(a.pred.as_str());
                    }
                    Literal::Neq(_, _) => {}
                }
            }
        }
        out
    }

    /// Parses the printed syntax (see the [module docs](self)).
    pub fn parse(text: &str) -> Result<Program, ParseError> {
        Parser::new(text)?.program()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

/// A syntax error with a 1-based line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line of the offending token.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "datalog parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Quoted(String),
    LParen,
    RParen,
    Comma,
    Dot,
    Turnstile,
    Neq,
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    last_line: usize,
}

impl Parser {
    /// Lexes `text`; a lexical error is reported at its line.
    fn new(text: &str) -> Result<Parser, ParseError> {
        let mut toks = Vec::new();
        let mut line = 1usize;
        let mut chars = text.chars().peekable();
        let lex_err = |line: usize, message: String| Err(ParseError { line, message });
        while let Some(&c) = chars.peek() {
            match c {
                '\n' => {
                    line += 1;
                    chars.next();
                }
                c if c.is_whitespace() => {
                    chars.next();
                }
                '%' => {
                    for c in chars.by_ref() {
                        if c == '\n' {
                            line += 1;
                            break;
                        }
                    }
                }
                '(' => {
                    toks.push((Tok::LParen, line));
                    chars.next();
                }
                ')' => {
                    toks.push((Tok::RParen, line));
                    chars.next();
                }
                ',' => {
                    toks.push((Tok::Comma, line));
                    chars.next();
                }
                '.' => {
                    toks.push((Tok::Dot, line));
                    chars.next();
                }
                ':' => {
                    chars.next();
                    if chars.peek() == Some(&'-') {
                        chars.next();
                        toks.push((Tok::Turnstile, line));
                    } else {
                        return lex_err(line, "expected `:-`".to_string());
                    }
                }
                '!' => {
                    chars.next();
                    if chars.peek() == Some(&'=') {
                        chars.next();
                        toks.push((Tok::Neq, line));
                    } else {
                        return lex_err(line, "expected `!=`".to_string());
                    }
                }
                '"' => {
                    chars.next();
                    let mut s = String::new();
                    let mut closed = false;
                    while let Some(c) = chars.next() {
                        match c {
                            '"' => {
                                closed = true;
                                break;
                            }
                            '\\' => match chars.next() {
                                Some(e) => s.push(e),
                                None => break,
                            },
                            '\n' => {
                                line += 1;
                                s.push(c);
                            }
                            c => s.push(c),
                        }
                    }
                    if closed {
                        toks.push((Tok::Quoted(s), line));
                    } else {
                        return lex_err(line, "unterminated string".to_string());
                    }
                }
                c if c.is_alphanumeric() || c == '_' => {
                    let mut s = String::new();
                    while let Some(&c) = chars.peek() {
                        if c.is_alphanumeric() || c == '_' {
                            s.push(c);
                            chars.next();
                        } else {
                            break;
                        }
                    }
                    toks.push((Tok::Ident(s), line));
                }
                other => {
                    return lex_err(line, format!("unexpected character `{other}`"));
                }
            }
        }
        Ok(Parser {
            toks,
            pos: 0,
            last_line: line,
        })
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|(_, l)| *l)
            .unwrap_or(self.last_line)
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.line(),
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: Tok, what: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if *t == want => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => self.err(format!("expected {what}, found {t:?}")),
            None => self.err(format!("expected {what}, found end of input")),
        }
    }

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut rules = Vec::new();
        while self.peek().is_some() {
            rules.push(self.rule()?);
        }
        Ok(Program { rules })
    }

    fn rule(&mut self) -> Result<Rule, ParseError> {
        let head = self.atom()?;
        let mut body = Vec::new();
        if self.peek() == Some(&Tok::Turnstile) {
            self.pos += 1;
            loop {
                body.push(self.literal()?);
                if self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::Dot, "`.`")?;
        Ok(Rule { head, body })
    }

    fn literal(&mut self) -> Result<Literal, ParseError> {
        if let Some(Tok::Ident(id)) = self.peek() {
            if id == "not" {
                self.pos += 1;
                return Ok(Literal::Neg(self.atom()?));
            }
        }
        // An atom, or `term != term`. Both start with an ident/quoted; a
        // quoted token or a following `!=` forces the builtin reading.
        let start = self.pos;
        if let Some(t) = self.try_term() {
            if self.peek() == Some(&Tok::Neq) {
                self.pos += 1;
                let rhs = match self.try_term() {
                    Some(t) => t,
                    None => return self.err("expected a term after `!=`"),
                };
                return Ok(Literal::Neq(t, rhs));
            }
            self.pos = start;
        }
        Ok(Literal::Pos(self.atom()?))
    }

    fn atom(&mut self) -> Result<DAtom, ParseError> {
        let pred = match self.next() {
            Some(Tok::Ident(id)) => id,
            Some(t) => return self.err(format!("expected a predicate name, found {t:?}")),
            None => return self.err("expected a predicate name, found end of input"),
        };
        let mut args = Vec::new();
        if self.peek() == Some(&Tok::LParen) {
            self.pos += 1;
            loop {
                match self.try_term() {
                    Some(t) => args.push(t),
                    None => return self.err("expected a term"),
                }
                match self.next() {
                    Some(Tok::Comma) => continue,
                    Some(Tok::RParen) => break,
                    Some(t) => return self.err(format!("expected `,` or `)`, found {t:?}")),
                    None => return self.err("expected `,` or `)`, found end of input"),
                }
            }
            if args.is_empty() {
                return self.err("empty argument list (write zero-arity atoms bare)");
            }
        }
        Ok(DAtom { pred, args })
    }

    fn try_term(&mut self) -> Option<DTerm> {
        match self.peek() {
            Some(Tok::Quoted(s)) => {
                let t = DTerm::Cst(s.clone());
                self.pos += 1;
                Some(t)
            }
            Some(Tok::Ident(id)) => {
                let first = id.chars().next().unwrap_or('_');
                let t = if first.is_uppercase() || first == '_' {
                    DTerm::Var(id.clone())
                } else {
                    DTerm::Cst(id.clone())
                };
                self.pos += 1;
                Some(t)
            }
            _ => None,
        }
    }
}

/// Why a program has no stratification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnstratifiableError {
    /// Predicates of a strongly connected component containing a negative
    /// dependency edge.
    pub cycle: Vec<String>,
}

impl fmt::Display for UnstratifiableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recursion through negation among {{{}}}",
            self.cycle.join(", ")
        )
    }
}

impl std::error::Error for UnstratifiableError {}

/// Computes a stratification: predicates grouped into strata, in
/// evaluation order, such that every negative dependency points strictly
/// downward. Fails iff some predicate depends on itself through negation.
pub fn stratify(p: &Program) -> Result<Vec<BTreeSet<String>>, UnstratifiableError> {
    // stratum[pred] starts at 0; positive edges body → head force
    // head ≥ body, negative edges force head ≥ body + 1. Iterate to
    // fixpoint; a value exceeding the predicate count proves a negative
    // cycle (Bellman-Ford style).
    let preds: Vec<String> = p.predicates().into_iter().map(str::to_string).collect();
    let index: BTreeMap<&str, usize> = preds.iter().map(|s| s.as_str()).zip(0..).collect();
    let n = preds.len();
    let mut level = vec![0usize; n];
    let mut changed = true;
    let mut rounds = 0usize;
    while changed {
        changed = false;
        rounds += 1;
        for r in &p.rules {
            let h = index[r.head.pred.as_str()];
            for l in &r.body {
                let (b, strict) = match l {
                    Literal::Pos(a) => (index[a.pred.as_str()], false),
                    Literal::Neg(a) => (index[a.pred.as_str()], true),
                    Literal::Neq(_, _) => continue,
                };
                let need = level[b] + usize::from(strict);
                if level[h] < need {
                    level[h] = need;
                    changed = true;
                }
            }
        }
        if rounds > n + 1 {
            // Some level keeps climbing: a negative cycle. Report every
            // predicate at or above the overflow level that sits in a
            // body-negating rule cycle; the simple, sound choice is the
            // set of maximal-level predicates.
            let top = level.iter().copied().max().unwrap_or(0);
            let cycle = preds
                .iter()
                .zip(&level)
                .filter(|(_, &l)| l == top)
                .map(|(p, _)| p.clone())
                .collect();
            return Err(UnstratifiableError { cycle });
        }
    }
    let max = level.iter().copied().max().unwrap_or(0);
    let mut strata = vec![BTreeSet::new(); max + 1];
    for (p, l) in preds.iter().zip(&level) {
        strata[*l].insert(p.clone());
    }
    Ok(strata)
}

/// Audits a program for the safety preconditions of bottom-up evaluation:
/// range restriction and stratifiability (see the [module docs](self)).
pub fn audit_program(p: &Program) -> AuditReport {
    let mut report = AuditReport::new();
    for (i, r) in p.rules.iter().enumerate() {
        let path = format!("rules[{i}]");
        let mut positive = BTreeSet::new();
        for l in &r.body {
            if let Literal::Pos(a) = l {
                a.vars_into(&mut positive);
            }
        }
        report.tick();
        let mut unbound: BTreeSet<&str> = BTreeSet::new();
        for t in &r.head.args {
            if let Some(v) = t.as_var() {
                if !positive.contains(v) {
                    unbound.insert(v);
                }
            }
        }
        for l in &r.body {
            match l {
                Literal::Pos(_) => {}
                Literal::Neg(a) => {
                    for t in &a.args {
                        if let Some(v) = t.as_var() {
                            if !positive.contains(v) {
                                unbound.insert(v);
                            }
                        }
                    }
                }
                Literal::Neq(s, t) => {
                    for side in [s, t] {
                        if let Some(v) = side.as_var() {
                            if !positive.contains(v) {
                                unbound.insert(v);
                            }
                        }
                    }
                }
            }
        }
        if !unbound.is_empty() {
            let vars: Vec<&str> = unbound.into_iter().collect();
            report.push(
                Code::DatalogNotRangeRestricted,
                &path,
                format!(
                    "variable{} {} not bound by any positive body atom in `{r}`",
                    if vars.len() == 1 { "" } else { "s" },
                    vars.join(", ")
                ),
            );
        }
    }
    report.tick();
    if let Err(e) = stratify(p) {
        report.push(Code::DatalogUnstratified, "program", e.to_string());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(v: &str) -> DTerm {
        DTerm::Var(v.to_string())
    }

    fn cst(c: &str) -> DTerm {
        DTerm::Cst(c.to_string())
    }

    #[test]
    fn display_parse_round_trip() {
        let text = r#"
            % Proposition 16 skeleton.
            n("a", "a").
            n("a", "b\"x\\").
            cqa_vtx(X) :- n(X, X).
            cqa_edge(X, Y) :- cqa_vtx(X), n(X, Y), cqa_vtx(Y), X != Y.
            cqa_certain :- cqa_marked(X), not cqa_esc(X).
            cqa_goal.
        "#;
        let p = Program::parse(text).unwrap();
        assert_eq!(p.rules.len(), 6);
        assert_eq!(p.rules[1].head.args[1], cst("b\"x\\"));
        assert_eq!(p.rules[4].body.len(), 2);
        assert!(p.rules[5].head.args.is_empty());
        let printed = p.to_string();
        let again = Program::parse(&printed).unwrap();
        assert_eq!(p, again, "print → parse must round-trip");
    }

    #[test]
    fn bare_lowercase_arguments_are_constants() {
        let p = Program::parse("edge(a, B).").unwrap();
        assert_eq!(p.rules[0].head.args[0], cst("a"));
        assert_eq!(p.rules[0].head.args[1], var("B"));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = Program::parse("ok(X) :- p(X).\nbad(X) :- ,").unwrap_err();
        assert_eq!(err.line, 2);
        let err = Program::parse("p(X) :- q(X)").unwrap_err();
        assert!(err.message.contains("`.`"), "{err}");
        let err = Program::parse("p(\"unterminated").unwrap_err();
        assert!(err.message.contains("unterminated"), "{err}");
    }

    #[test]
    fn stratification_orders_negation_downward() {
        let p = Program::parse(
            "vtx(X) :- n(X, X).\n\
             tobot(X) :- vtx(X), n(X, Y), not vtx(Y).\n\
             certain :- marked(X), not tobot(X).\n\
             marked(X) :- vtx(X).",
        )
        .unwrap();
        let strata = stratify(&p).unwrap();
        let level = |pred: &str| {
            strata
                .iter()
                .position(|s| s.contains(pred))
                .unwrap_or(usize::MAX)
        };
        assert!(level("vtx") < level("tobot"));
        assert!(level("tobot") < level("certain"));
        assert!(audit_program(&p).is_clean());
    }

    #[test]
    fn recursion_through_negation_is_rejected() {
        let p = Program::parse("win(X) :- move(X, Y), not win(Y).\nmove(a, b).").unwrap();
        let err = stratify(&p).unwrap_err();
        assert!(err.cycle.contains(&"win".to_string()));
        let report = audit_program(&p);
        assert!(report.has(Code::DatalogUnstratified));
    }

    #[test]
    fn positive_recursion_is_fine() {
        let p = Program::parse(
            "reach(X, Y) :- edge(X, Y).\nreach(X, Z) :- edge(X, Y), reach(Y, Z).",
        )
        .unwrap();
        assert!(stratify(&p).is_ok());
        assert!(audit_program(&p).is_clean());
    }

    #[test]
    fn range_restriction_catches_unbound_heads_negations_and_builtins() {
        for (text, what) in [
            ("p(X) :- q(Y).", "head"),
            ("p(X) :- q(X), not r(Z).", "negated"),
            ("p(X) :- q(X), X != W.", "builtin"),
            ("p(X).", "non-ground fact"),
        ] {
            let p = Program::parse(text).unwrap();
            let report = audit_program(&p);
            assert!(
                report.has(Code::DatalogNotRangeRestricted),
                "{what}: {text} must be flagged"
            );
        }
        let good = Program::parse("p(X, c) :- q(X), not r(X), X != d.").unwrap();
        assert!(audit_program(&good).is_clean());
    }
}
