//! Folding a [`RewritePlan`] into a single closed first-order sentence.
//!
//! The plan's database transformations are all first-order definable, so the
//! composition is expressible as one formula:
//!
//! * identity steps contribute nothing;
//! * a Lemma 37 step contributes the view
//!   `R′(⃗u) ≡ R(⃗u) ∧ ∃… (the block of ⃗u is relevant for q^FK_R)`, which is
//!   substituted for every `R`-atom of the downstream formula;
//! * a Lemma 40 step contributes
//!   `N′(⃗u) ≡ N(⃗u) ∧ ∃⃗w (N(⃗u_key, ⃗w) non-dangling w.r.t. FK[N→])`;
//! * a Lemma 45 tail contributes
//!   `∃⃗v (N(⃗c,⃗v) ∧ non-dangling(⃗v)) ∧ ∀⃗y (N(⃗c,⃗y) → match(⃗y) ∧ φ₀(⃗y))`
//!   where `φ₀` is the flattened residual rewriting with the bound variables
//!   substituted for the frozen parameters of `⃗x` (the paper's §8 example
//!   `∃y (N(c,y) ∧ O(y)) ∧ ∀y (N(c,y) → P(y))` is reproduced this way).
//!
//! For the Lemma 45 case the residual plan is *rebuilt* over `q₀` with the
//! variables of `⃗x` frozen as distinct parameter constants (instead of the
//! single generic constant `b` used by [`RewritePlan::answer`]'s
//! renamed-database evaluation). Parameterized flattening is cross-validated
//! against the authoritative renamed-database evaluation by the integration
//! and property tests (`flatten ≡ answer`).

use crate::pipeline::{BuildError, Lemma45Step, PlanStep, RewritePlan, StepAction, Tail};
use crate::problem::Problem;
use cqa_fo::{simplify, Formula};
use cqa_model::{sort_by_name, Atom, ForeignKey, Query, Term, Var};
use std::collections::BTreeMap;
use std::fmt;

/// Errors from flattening.
#[derive(Clone, Debug)]
pub struct FlattenError(pub String);

impl fmt::Display for FlattenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot flatten plan: {}", self.0)
    }
}

impl std::error::Error for FlattenError {}

/// Flattens `plan` into one closed formula over the *original* database
/// schema.
pub fn flatten(plan: &RewritePlan) -> Result<Formula, FlattenError> {
    let mut formula = flatten_tail(&plan.tail)?;
    for step in plan.steps.iter().rev() {
        formula = substitute_step(step, formula);
    }
    let out = simplify(&formula.unfreeze());
    Ok(out)
}

fn flatten_tail(tail: &Tail) -> Result<Formula, FlattenError> {
    match tail {
        Tail::Kw { formula, .. } => Ok((**formula).clone()),
        Tail::Lemma45(step) => flatten_lemma45(step),
    }
}

fn flatten_lemma45(step: &Lemma45Step) -> Result<Formula, FlattenError> {
    // Residual rewriting with ⃗x frozen as distinct parameter constants.
    let frozen_q0 = step.q0.freeze(&step.xs.iter().copied().collect());
    let sub_problem = Problem::new(frozen_q0, step.fk0.clone())
        .map_err(|e| FlattenError(format!("frozen residual problem invalid: {e}")))?;
    let sub_plan = match RewritePlan::build(&sub_problem) {
        Ok(p) => p,
        Err(BuildError::Internal(m)) => return Err(FlattenError(m)),
        Err(e) => return Err(FlattenError(e.to_string())),
    };
    let phi0 = flatten(&sub_plan)?; // free variables ⃗x after unfreezing

    let n_atom = &step.n_atom;
    let sig_key_len = n_atom.arity() - nonkey_len(step);
    let key_terms: Vec<Term> = n_atom.terms[..sig_key_len].to_vec();
    let nonkey_terms: Vec<Term> = n_atom.terms[sig_key_len..].to_vec();

    // Witness: ∃⃗v (N(⃗c, ⃗v) ∧ ⋀_{fk ∈ FK[N→]} ∃⃗u O(v_i, ⃗u)).
    let vs: Vec<Var> = nonkey_terms.iter().map(|_| Var::fresh("v")).collect();
    let witness_atom = Atom::new(
        n_atom.rel,
        key_terms
            .iter()
            .copied()
            .chain(vs.iter().map(|&v| Term::Var(v)))
            .collect(),
    );
    let mut witness_parts = vec![Formula::Atom(witness_atom)];
    for fk in &step.outgoing {
        witness_parts.push(non_dangling_formula(
            fk,
            &key_terms,
            &vs,
            sig_key_len,
            step.fk0.schema(),
        )?);
    }
    let witness = Formula::exists(vs.iter().copied(), Formula::and(witness_parts));

    // Universal branch: ∀⃗y (N(⃗c, ⃗y) → match ∧ φ₀[x ↦ y]).
    let ys: Vec<Var> = nonkey_terms.iter().map(|_| Var::fresh("y")).collect();
    let mut eqs: Vec<Formula> = Vec::new();
    let mut subst: BTreeMap<Var, Term> = BTreeMap::new();
    for (i, t) in nonkey_terms.iter().enumerate() {
        let y = ys[i];
        match *t {
            Term::Cst(c) => eqs.push(Formula::eq(Term::Var(y), Term::Cst(c))),
            Term::Var(x) => {
                if let Some(prev) = subst.get(&x) {
                    eqs.push(Formula::eq(Term::Var(y), *prev));
                } else {
                    subst.insert(x, Term::Var(y));
                }
            }
        }
    }
    let phi0_bound = phi0.substitute(&subst);
    let guard = Atom::new(
        n_atom.rel,
        key_terms
            .iter()
            .copied()
            .chain(ys.iter().map(|&y| Term::Var(y)))
            .collect(),
    );
    let universal = Formula::forall(
        ys.iter().copied(),
        Formula::implies(
            Formula::Atom(guard),
            Formula::and(eqs.into_iter().chain([phi0_bound])),
        ),
    );

    Ok(Formula::and([witness, universal]))
}

fn nonkey_len(step: &Lemma45Step) -> usize {
    step.fk0
        .schema()
        .signature(step.n_atom.rel)
        .map(|s| s.nonkey_len())
        .unwrap_or(0)
}

/// `∃⃗u O(t, ⃗u)` where `t` is the term at the foreign key's source position.
fn non_dangling_formula(
    fk: &ForeignKey,
    key_terms: &[Term],
    nonkey_vars: &[Var],
    key_len: usize,
    schema: &cqa_model::Schema,
) -> Result<Formula, FlattenError> {
    let src_term = if fk.pos <= key_len {
        key_terms
            .get(fk.pos - 1)
            .copied()
            .ok_or_else(|| FlattenError(format!("bad position in {fk}")))?
    } else {
        Term::Var(
            *nonkey_vars
                .get(fk.pos - key_len - 1)
                .ok_or_else(|| FlattenError(format!("bad position in {fk}")))?,
        )
    };
    let to_sig = schema
        .signature(fk.to)
        .ok_or_else(|| FlattenError(format!("unknown relation {}", fk.to)))?;
    let us: Vec<Var> = (1..to_sig.arity).map(|_| Var::fresh("u")).collect();
    let atom = Atom::new(
        fk.to,
        std::iter::once(src_term)
            .chain(us.iter().map(|&u| Term::Var(u)))
            .collect(),
    );
    Ok(Formula::exists(us, Formula::Atom(atom)))
}

/// Substitutes a step's relation views into the downstream formula.
fn substitute_step(step: &PlanStep, formula: Formula) -> Formula {
    match &step.action {
        StepAction::DropTrivial { .. }
        | StepAction::CloseStar { .. }
        | StepAction::DropWeak { .. }
        | StepAction::RemoveDD { .. } => formula,
        StepAction::RemoveOO { fk, relevance_query } => map_atoms(&formula, &mut |atom| {
            if atom.rel != fk.from {
                return Formula::Atom(atom.clone());
            }
            Formula::and([
                Formula::Atom(atom.clone()),
                block_relevance_formula(relevance_query, atom),
            ])
        }),
        StepAction::RemoveDO { fk, outgoing } => map_atoms(&formula, &mut |atom| {
            if atom.rel != fk.from {
                return Formula::Atom(atom.clone());
            }
            // ∃⃗w (N(⃗t_key, ⃗w) ∧ ⋀ non-dangling): the block of the fact
            // contains a fact that survives the Lemma 40 filter.
            let schema = step.fks_after.schema();
            let sig = schema.signature(atom.rel).expect("validated");
            let ws: Vec<Var> = (0..sig.nonkey_len()).map(|_| Var::fresh("w")).collect();
            let key_terms: Vec<Term> = atom.terms[..sig.key_len].to_vec();
            let member = Atom::new(
                atom.rel,
                key_terms
                    .iter()
                    .copied()
                    .chain(ws.iter().map(|&w| Term::Var(w)))
                    .collect(),
            );
            let mut parts = vec![Formula::Atom(member)];
            for o in outgoing {
                match non_dangling_formula(o, &key_terms, &ws, sig.key_len, schema) {
                    Ok(f) => parts.push(f),
                    Err(_) => return Formula::Atom(atom.clone()),
                }
            }
            Formula::and([
                Formula::Atom(atom.clone()),
                Formula::exists(ws, Formula::and(parts)),
            ])
        }),
    }
}

/// `∃ (fresh copy of q_rel's variables): atoms ∧ key-equalities with the
/// given `R`-atom occurrence` — "the block of this fact is relevant for
/// `q^FK_R`".
fn block_relevance_formula(q_rel: &Query, occurrence: &Atom) -> Formula {
    // Freshen the relevance query's variables, numbered in name order.
    let mut vars: Vec<Var> = q_rel.vars().into_iter().collect();
    sort_by_name(&mut vars);
    let fresh_vars: Vec<Var> = vars.iter().map(|_| Var::fresh("z")).collect();
    let renaming: BTreeMap<Var, Term> = vars
        .iter()
        .zip(&fresh_vars)
        .map(|(&v, &z)| (v, Term::Var(z)))
        .collect();
    let fresh_q = q_rel.substitute(&renaming);

    let mut parts: Vec<Formula> = fresh_q
        .atoms()
        .iter()
        .map(|a| Formula::Atom(a.clone()))
        .collect();

    // Key equalities: the renamed R-atom's key terms equal the occurrence's.
    let r_atom = fresh_q.atom(occurrence.rel).expect("R in q^FK_R");
    let sig = fresh_q.sig(occurrence.rel);
    for i in 0..sig.key_len {
        parts.push(Formula::eq(r_atom.terms[i], occurrence.terms[i]));
    }
    Formula::exists(fresh_vars, Formula::and(parts))
}

/// Applies `f` to every atom of the formula.
fn map_atoms(formula: &Formula, f: &mut impl FnMut(&Atom) -> Formula) -> Formula {
    match formula {
        Formula::True => Formula::True,
        Formula::False => Formula::False,
        Formula::Eq(a, b) => Formula::eq(*a, *b),
        Formula::Atom(atom) => f(atom),
        Formula::Not(g) => Formula::not(map_atoms(g, f)),
        Formula::And(gs) => Formula::and(gs.iter().map(|g| map_atoms(g, f))),
        Formula::Or(gs) => Formula::or(gs.iter().map(|g| map_atoms(g, f))),
        Formula::Implies(l, r) => Formula::implies(map_atoms(l, f), map_atoms(r, f)),
        Formula::Exists(vs, g) => Formula::exists(vs.iter().copied(), map_atoms(g, f)),
        Formula::Forall(vs, g) => Formula::forall(vs.iter().copied(), map_atoms(g, f)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_fo::eval::eval_closed;
    use cqa_model::parser::{parse_fks, parse_instance, parse_query, parse_schema};
    use std::sync::Arc;

    fn plan(schema: &str, query: &str, fks: &str) -> RewritePlan {
        let s = Arc::new(parse_schema(schema).unwrap());
        let q = parse_query(&s, query).unwrap();
        let k = parse_fks(&s, fks).unwrap();
        RewritePlan::build(&Problem::new(q, k).unwrap()).unwrap()
    }

    #[test]
    fn section8_formula_matches_paper() {
        // Paper §8: q = {N('c',y), O(y), P(y)}, FK = {N[2]→O} rewrites to
        // ∃y (N(c,y) ∧ O(y)) ∧ ∀y (N(c,y) → P(y)).
        let p = plan("N[2,1] O[1,1] P[1,1]", "N('c',y), O(y), P(y)", "N[2] -> O");
        let f = flatten(&p).unwrap();
        assert!(f.is_closed(), "must be a sentence: {f}");
        let shown = f.to_string();
        // Structure check (fresh variable names differ from the paper's y).
        assert!(shown.contains("N("), "formula: {shown}");
        assert!(shown.contains("O("), "formula: {shown}");
        assert!(shown.contains("P("), "formula: {shown}");
        assert!(shown.contains("∀"), "formula: {shown}");

        // Semantics check on the paper's instances.
        let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
        let yes = parse_instance(&s, "N(c,a) N(c,b) O(a) P(a) P(b)").unwrap();
        assert!(eval_closed(&yes, &f));
        for missing in ["P(a)", "P(b)"] {
            let mut db = yes.clone();
            db.remove(&cqa_model::parser::parse_fact(missing).unwrap()).unwrap();
            assert!(!eval_closed(&db, &f), "removing {missing} must flip");
        }
    }

    #[test]
    fn flatten_agrees_with_plan_answer() {
        let cases = [
            ("N[2,1] O[1,1] P[1,1]", "N('c',y), O(y), P(y)", "N[2] -> O"),
            ("N[3,1] O[2,1]", "N(x,u,y), O(y,w)", "N[3] -> O"),
            ("N[3,1] O[2,1]", "N(x,'c',y), O(y,'c')", "N[3] -> O"),
            ("N[2,1] O[1,1]", "N(x,y), O(y)", "N[2] -> O"),
            ("R[2,1] S[1,1]", "R(x,y), S(x)", "R[1] -> S"),
        ];
        let instances = [
            "",
            "N(c,a) N(c,b) O(a) P(a) P(b)",
            "N(a,c,1) O(1,c)",
            "N(a,b) O(b)",
            "N(a,b)",
            "R(a,1) S(a)",
            "R(a,1)",
            "N(c,a) O(a) P(a)",
            "N(x1,c,2) N(x1,d,3) O(2,w) O(3,v)",
        ];
        for (schema, query, fks) in cases {
            let p = plan(schema, query, fks);
            let f = flatten(&p).unwrap();
            assert!(f.is_closed(), "{query}: {f}");
            let s = Arc::new(parse_schema(schema).unwrap());
            for text in instances {
                let Ok(db) = parse_instance(&s, text) else {
                    continue; // instance doesn't fit this schema
                };
                assert_eq!(
                    p.answer(&db),
                    eval_closed(&db, &f),
                    "query {query}, instance {text}, formula {f}"
                );
            }
        }
    }

    #[test]
    fn example_13_q1_flattens_to_query_itself() {
        // The paper: the consistent FO rewriting of CERTAINTY(q1, FK) is q1
        // itself. Our flattened formula must be equivalent; check it on
        // discriminating instances.
        let p = plan("N[3,1] O[2,1]", "N(x,u,y), O(y,w)", "N[3] -> O");
        let f = flatten(&p).unwrap();
        let s = Arc::new(parse_schema("N[3,1] O[2,1]").unwrap());
        // q1 holds ⟺ rewriting holds on these:
        for (text, expected) in [
            ("N(c,1,a) N(c,2,b) O(a,3)", true), // paper's witness
            ("N(c,1,a) O(a,3)", true),
            ("N(c,1,a)", false),
            ("O(a,3)", false),
            ("", false),
        ] {
            let db = parse_instance(&s, text).unwrap();
            assert_eq!(eval_closed(&db, &f), expected, "on {text}: {f}");
        }
    }
}
