//! The foreign-key chase (paper Appendix B).
//!
//! Repairing a dangling fact `T(a₁,…,aₘ)` with respect to `T[i] → U` inserts
//! a fact `U(aᵢ, b₂, …, b_m′)`. The paper's chase rule leaves the `bⱼ`
//! unconstrained; [`chase_fresh`] instantiates them with globally **fresh**
//! constants — the instantiation that is optimal for *falsifying* a query,
//! because a fresh constant can only be matched by a variable that occurs
//! nowhere else (cf. Lemma 24, where the invented values are orphan
//! constants).
//!
//! Cyclic dependency graphs (e.g. `R[2] → R`) can force unbounded insertion
//! chains; the chase is capped and reports [`ChaseError::InsertLimit`]
//! instead of diverging, which the oracle surfaces as `Inconclusive`.

use cqa_model::{Cst, Fact, FkSet, Instance};
use std::fmt;

/// Chase failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChaseError {
    /// The insertion cap was reached (cyclic foreign keys diverge).
    InsertLimit {
        /// The cap that was exceeded.
        cap: usize,
    },
}

impl fmt::Display for ChaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaseError::InsertLimit { cap } => {
                write!(f, "chase exceeded the insertion cap of {cap} facts")
            }
        }
    }
}

impl std::error::Error for ChaseError {}

/// Chases `base` to foreign-key consistency, inserting referenced facts with
/// fresh non-key values. Returns the chased instance together with the list
/// of inserted facts.
pub fn chase_fresh(
    base: &Instance,
    fks: &FkSet,
    max_inserts: usize,
) -> Result<(Instance, Vec<Fact>), ChaseError> {
    let mut db = base.clone();
    let mut inserted = Vec::new();
    // Worklist: facts whose outgoing keys still need checking, in name
    // order so fresh values are numbered the same way in every process.
    let mut work: Vec<Fact> = db.facts_by_name();
    while let Some(fact) = work.pop() {
        for fk in fks.outgoing(fact.rel) {
            if db.is_dangling(&fact, &fk) {
                if inserted.len() >= max_inserts {
                    return Err(ChaseError::InsertLimit { cap: max_inserts });
                }
                let sig = db
                    .schema()
                    .signature(fk.to)
                    .expect("foreign keys validated against schema");
                let key = fact.arg_at(fk.pos).expect("position validated");
                let mut args = Vec::with_capacity(sig.arity);
                args.push(key);
                for _ in 1..sig.arity {
                    args.push(Cst::fresh("\u{22a5}")); // ⊥-prefixed fresh value
                }
                let new_fact = Fact::new(fk.to, args);
                db.insert(new_fact.clone()).expect("schema validated");
                inserted.push(new_fact.clone());
                work.push(new_fact);
            }
        }
    }
    Ok((db, inserted))
}

/// Bounded-chase entailment `q₁ ⊨_FK q₂` over instances: chases `base`
/// (typically a query viewed as a database by reading variables as fresh
/// constants) and tests `q₂`.
///
/// Returns `None` when the chase hits the cap (cyclic dependency graphs), in
/// which case the caller should fall back to the syntactic test (Theorem 7).
pub fn chase_entails(
    base: &Instance,
    fks: &FkSet,
    q: &cqa_model::Query,
    max_inserts: usize,
) -> Option<bool> {
    match chase_fresh(base, fks, max_inserts) {
        Ok((chased, _)) => Some(cqa_model::satisfies(&chased, q)),
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_model::parser::{parse_fks, parse_instance, parse_query, parse_schema};
    use std::sync::Arc;

    #[test]
    fn chase_repairs_dangling_chain() {
        // Example 4's shape: R[2]→S, S[2]→T over {R(a,b), S(b,c)}.
        let s = Arc::new(parse_schema("R[2,1] S[2,1] T[1,1]").unwrap());
        let fks = parse_fks(&s, "R[2] -> S, S[2] -> T").unwrap();
        let db = parse_instance(&s, "R(a,b) S(b,c)").unwrap();
        let (chased, inserted) = chase_fresh(&db, &fks, 16).unwrap();
        assert!(chased.satisfies_fks(&fks));
        // Only T(c) is missing: exactly one insertion, with key c.
        assert_eq!(inserted.len(), 1);
        assert_eq!(inserted[0].rel, cqa_model::RelName::new("T"));
        assert_eq!(inserted[0].args[0], Cst::new("c"));
    }

    #[test]
    fn chase_cascades_through_fresh_values() {
        // R[2]→S where S has arity 2 and S[2]→T: the invented S-fact has a
        // fresh second component, which itself needs a T-fact.
        let s = Arc::new(parse_schema("R[2,1] S[2,1] T[1,1]").unwrap());
        let fks = parse_fks(&s, "R[2] -> S, S[2] -> T").unwrap();
        let db = parse_instance(&s, "R(a,b)").unwrap();
        let (chased, inserted) = chase_fresh(&db, &fks, 16).unwrap();
        assert!(chased.satisfies_fks(&fks));
        assert_eq!(inserted.len(), 2); // S(b, ⊥₁) then T(⊥₁)
        let s_fact = inserted
            .iter()
            .find(|f| f.rel == cqa_model::RelName::new("S"))
            .unwrap();
        assert!(s_fact.args[1].is_fresh());
    }

    #[test]
    fn cyclic_chase_hits_cap() {
        // R[2] → R diverges with always-fresh values.
        let s = Arc::new(parse_schema("R[2,1]").unwrap());
        let fks = parse_fks(&s, "R[2] -> R").unwrap();
        let db = parse_instance(&s, "R(a,b)").unwrap();
        assert!(matches!(
            chase_fresh(&db, &fks, 8),
            Err(ChaseError::InsertLimit { cap: 8 })
        ));
    }

    #[test]
    fn consistent_input_unchanged() {
        let s = Arc::new(parse_schema("R[2,1] S[1,1]").unwrap());
        let fks = parse_fks(&s, "R[2] -> S").unwrap();
        let db = parse_instance(&s, "R(a,b) S(b)").unwrap();
        let (chased, inserted) = chase_fresh(&db, &fks, 16).unwrap();
        assert!(inserted.is_empty());
        assert_eq!(chased, db);
    }

    #[test]
    fn entailment_via_chase() {
        // Paper §3.2: with FK = {R[1] → S} (weak) over unary R, S:
        // {R(x)} ≡_FK {R(x), S(x)}.
        let s = Arc::new(parse_schema("R[1,1] S[1,1]").unwrap());
        let fks = parse_fks(&s, "R[1] -> S").unwrap();
        // View q′ = {R(x)} as the database {R(cx)}.
        let base = parse_instance(&s, "R(cx)").unwrap();
        let q = parse_query(&s, "R(x), S(x)").unwrap();
        assert_eq!(chase_entails(&base, &fks, &q, 8), Some(true));

        // Without the FK, entailment fails.
        let no_fk = cqa_model::FkSet::empty(s.clone());
        assert_eq!(chase_entails(&base, &no_fk, &q, 8), Some(false));
    }

    #[test]
    fn fresh_values_do_not_satisfy_selective_atoms() {
        // Chase {N(a, b)} with N[2] → O where O has arity 2: the invented
        // O-fact is O(b, ⊥). A query with O(y, 'c') must NOT be entailed.
        let s = Arc::new(parse_schema("N[2,1] O[2,1]").unwrap());
        let fks = parse_fks(&s, "N[2] -> O").unwrap();
        let base = parse_instance(&s, "N(a,b)").unwrap();
        let q_const = parse_query(&s, "N(x,y), O(y,'c')").unwrap();
        assert_eq!(chase_entails(&base, &fks, &q_const, 8), Some(false));
        let q_var = parse_query(&s, "N(x,y), O(y,w)").unwrap();
        assert_eq!(chase_entails(&base, &fks, &q_var, 8), Some(true));
    }
}
