//! The Koutris–Wijsen consistent first-order rewriting for `CERTAINTY(q)`
//! with primary keys only, for queries with an acyclic attack graph.
//!
//! The construction repeatedly removes an *unattacked* atom
//! `F = R(s₁…s_k, s_{k+1}…s_n)` and emits
//!
//! ```text
//! ∃(key vars of F) [ ∃⃗w R(⃗s_key, ⃗w)
//!                    ∧ ∀⃗y ( R(⃗s_key, ⃗y) → match(⃗y, ⃗s_nonkey) ∧ φ′ ) ]
//! ```
//!
//! where `match` asserts the equalities induced by constants and repeated
//! variables at non-key positions, and `φ′` is the rewriting of `q ∖ {F}`
//! with the variables of `F` *frozen* (they act as constants in the
//! recursion; see [`cqa_model::Cst::param`]). Removing an unattacked atom
//! preserves acyclicity, so the recursion is total.
//!
//! The reproduced paper uses this construction as the base case of its
//! reduction pipeline (Appendix E): after all foreign keys are removed,
//! `CERTAINTY(q'', ∅)` is rewritten here.

use crate::attack_graph::AttackGraph;
use cqa_fo::{simplify, Formula};
use cqa_model::{sort_by_name, Atom, Cst, Query, Term, Var};
use std::collections::BTreeMap;
use std::fmt;

/// Errors from rewriting construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RewriteError {
    /// The attack graph is cyclic: `CERTAINTY(q)` is not in FO (it is L-hard
    /// by Theorem 2 / Lemma 14).
    CyclicAttackGraph(String),
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::CyclicAttackGraph(q) => {
                write!(f, "attack graph of {q} is cyclic; no FO rewriting exists")
            }
        }
    }
}

impl std::error::Error for RewriteError {}

/// Constructs the consistent first-order rewriting of `CERTAINTY(q, ∅)`.
///
/// Returns a closed formula `φ` such that `db ⊨ φ` iff every repair of `db`
/// with respect to primary keys satisfies `q`. Fails iff the attack graph is
/// cyclic.
pub fn kw_rewrite(q: &Query) -> Result<Formula, RewriteError> {
    let raw = rewrite_rec(q)?;
    Ok(simplify(&raw.unfreeze()))
}

fn rewrite_rec(q: &Query) -> Result<Formula, RewriteError> {
    if q.is_empty() {
        return Ok(Formula::True);
    }
    let ag = AttackGraph::of(q);
    let Some(&f_rel) = ag.unattacked().first() else {
        return Err(RewriteError::CyclicAttackGraph(q.to_string()));
    };
    let atom = q.atom(f_rel).expect("unattacked atom from q").clone();
    let sig = q.sig(f_rel);
    let key_terms: Vec<Term> = atom.key_terms(sig).to_vec();
    let nonkey_terms: Vec<Term> = atom.nonkey_terms(sig).to_vec();
    let key_vars = atom.key_vars(sig);

    // Fresh ∀-variables, one per non-key position.
    let ys: Vec<Var> = nonkey_terms.iter().map(|_| Var::fresh("y")).collect();

    // Equalities the block facts must satisfy, plus the substitution sending
    // each first-occurrence non-key variable of F to its frozen ∀-variable.
    let mut eqs: Vec<Formula> = Vec::new();
    let mut subst: BTreeMap<Var, Term> = BTreeMap::new();
    for (i, t) in nonkey_terms.iter().enumerate() {
        let y = ys[i];
        match *t {
            Term::Cst(c) => eqs.push(Formula::eq(Term::Var(y), Term::Cst(c))),
            Term::Var(x) => {
                if key_vars.contains(&x) {
                    eqs.push(Formula::eq(Term::Var(y), Term::Var(x)));
                } else if let Some(prev) = subst.get(&x) {
                    let prev_y = prev
                        .as_cst()
                        .and_then(Cst::as_param)
                        .expect("subst holds frozen ∀-variables");
                    eqs.push(Formula::eq(Term::Var(y), Term::Var(prev_y)));
                } else {
                    subst.insert(x, Term::Cst(Cst::param(y)));
                }
            }
        }
    }

    // Recurse on q ∖ {F} with all variables of F frozen.
    let q2 = q.without(f_rel).substitute(&subst).freeze(&key_vars);
    let inner = rewrite_rec(&q2)?;

    let guard = Atom::new(
        f_rel,
        key_terms
            .iter()
            .copied()
            .chain(ys.iter().map(|&y| Term::Var(y)))
            .collect(),
    );
    let body = Formula::and(eqs.into_iter().chain([inner]));
    let forall = Formula::forall(
        ys.iter().copied(),
        Formula::implies(Formula::Atom(guard), body),
    );

    let ws: Vec<Var> = nonkey_terms.iter().map(|_| Var::fresh("w")).collect();
    let witness_atom = Atom::new(
        f_rel,
        key_terms
            .iter()
            .copied()
            .chain(ws.iter().map(|&w| Term::Var(w)))
            .collect(),
    );
    let witness = Formula::exists(ws, Formula::Atom(witness_atom));

    let mut key_vars: Vec<Var> = key_vars.into_iter().collect();
    sort_by_name(&mut key_vars);
    Ok(Formula::exists(key_vars, Formula::and([witness, forall])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_fo::eval::eval_closed;
    use cqa_model::parser::{parse_instance, parse_query, parse_schema};
    use std::sync::Arc;

    #[test]
    fn single_atom_all_vars() {
        let s = Arc::new(parse_schema("R[2,1]").unwrap());
        let q = parse_query(&s, "R(x,y)").unwrap();
        let f = kw_rewrite(&q).unwrap();
        assert!(f.is_closed());
        // Certain iff the database has some R-fact.
        let yes = parse_instance(&s, "R(a,1) R(a,2)").unwrap();
        assert!(eval_closed(&yes, &f));
        let no = parse_instance(&s, "").unwrap();
        assert!(!eval_closed(&no, &f));
    }

    #[test]
    fn nonkey_constant() {
        let s = Arc::new(parse_schema("R[2,1]").unwrap());
        let q = parse_query(&s, "R(x,'c')").unwrap();
        let f = kw_rewrite(&q).unwrap();
        // Certain iff some block consists entirely of c-facts.
        let yes = parse_instance(&s, "R(a,c) R(b,c) R(b,d)").unwrap();
        assert!(eval_closed(&yes, &f));
        let no = parse_instance(&s, "R(a,c) R(a,d) R(b,d)").unwrap();
        assert!(!eval_closed(&no, &f));
    }

    #[test]
    fn chain_query() {
        let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
        let q = parse_query(&s, "R(x,y), S(y,z)").unwrap();
        let f = kw_rewrite(&q).unwrap();
        // Block R(a,·) = {b, c}; S has blocks for both b and c: certain.
        let yes = parse_instance(&s, "R(a,b) R(a,c) S(b,1) S(c,2)").unwrap();
        assert!(eval_closed(&yes, &f));
        // S(c,·) missing: the repair choosing R(a,c) falsifies q.
        let no = parse_instance(&s, "R(a,b) R(a,c) S(b,1)").unwrap();
        assert!(!eval_closed(&no, &f));
    }

    #[test]
    fn repeated_nonkey_variable() {
        let s = Arc::new(parse_schema("R[3,1]").unwrap());
        let q = parse_query(&s, "R(x,y,y)").unwrap();
        let f = kw_rewrite(&q).unwrap();
        let yes = parse_instance(&s, "R(a,1,1) R(a,2,2)").unwrap();
        assert!(eval_closed(&yes, &f));
        let no = parse_instance(&s, "R(a,1,1) R(a,1,2)").unwrap();
        assert!(!eval_closed(&no, &f));
    }

    #[test]
    fn key_variable_repeated_at_nonkey_position() {
        let s = Arc::new(parse_schema("R[2,1]").unwrap());
        let q = parse_query(&s, "R(x,x)").unwrap();
        let f = kw_rewrite(&q).unwrap();
        let yes = parse_instance(&s, "R(a,a)").unwrap();
        assert!(eval_closed(&yes, &f));
        let mixed = parse_instance(&s, "R(a,a) R(a,b)").unwrap();
        assert!(!eval_closed(&mixed, &f));
        let no = parse_instance(&s, "R(a,b)").unwrap();
        assert!(!eval_closed(&no, &f));
    }

    #[test]
    fn cyclic_attack_graph_rejected() {
        let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
        let q = parse_query(&s, "R(x,y), S(y,x)").unwrap();
        assert!(matches!(
            kw_rewrite(&q),
            Err(RewriteError::CyclicAttackGraph(_))
        ));
    }

    #[test]
    fn constant_key_atom() {
        // q = {R('c', y), S(y)}: the R-block at key c must uniformly chain
        // into S.
        let s = Arc::new(parse_schema("R[2,1] S[1,1]").unwrap());
        let q = parse_query(&s, "R('c',y), S(y)").unwrap();
        let f = kw_rewrite(&q).unwrap();
        let yes = parse_instance(&s, "R(c,1) R(c,2) S(1) S(2)").unwrap();
        assert!(eval_closed(&yes, &f));
        let no = parse_instance(&s, "R(c,1) R(c,2) S(1)").unwrap();
        assert!(!eval_closed(&no, &f));
        // No R(c,·) fact at all: not certain.
        let empty = parse_instance(&s, "R(d,1) S(1)").unwrap();
        assert!(!eval_closed(&empty, &f));
    }

    #[test]
    fn formula_is_closed_and_printable() {
        let s = Arc::new(parse_schema("R[2,1] S[2,1] T[2,1]").unwrap());
        let q = parse_query(&s, "R(x,y), S(y,z), T(z,'c')").unwrap();
        let f = kw_rewrite(&q).unwrap();
        assert!(f.is_closed(), "rewriting must be a sentence: {f}");
        let shown = f.to_string();
        assert!(shown.contains("∃"));
        assert!(shown.contains("∀"));
    }

    #[test]
    fn composite_key() {
        let s = Arc::new(parse_schema("R[3,2]").unwrap());
        let q = parse_query(&s, "R(x,y,'v')").unwrap();
        let f = kw_rewrite(&q).unwrap();
        let yes = parse_instance(&s, "R(a,b,v)").unwrap();
        assert!(eval_closed(&yes, &f));
        let no = parse_instance(&s, "R(a,b,v) R(a,b,w)").unwrap();
        assert!(!eval_closed(&no, &f));
    }
}
