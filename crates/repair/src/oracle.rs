//! The exhaustive certainty oracle — ground truth for `CERTAINTY(q, FK)`.
//!
//! The oracle searches for a **falsifying ⊕-repair**:
//!
//! 1. enumerate, per block of `db`, either one fact or none (dropping a
//!    block is legitimate under foreign keys — cf. Example 4, where `∅` is a
//!    repair);
//! 2. chase the chosen facts to foreign-key consistency with fresh non-key
//!    values ([`crate::chase_fresh`]) — fresh values are optimal for
//!    falsification, because they can only be matched by variables that
//!    occur once (Lemma 24's orphan-constant argument);
//! 3. skip candidates that satisfy `q`;
//! 4. verify ⊕-minimality *exactly* ([`crate::is_delta_repair`]).
//!
//! Any candidate passing 3–4 witnesses `NotCertain`. If the enumeration is
//! exhausted without a witness and no step was truncated by limits, the
//! answer is `Certain`; otherwise `Inconclusive`.

use crate::chase::chase_fresh;
use crate::delta::is_delta_repair;
use crate::limits::SearchLimits;
use crate::pk_repairs::{blocks_of, count_pk_repairs, visit_pk_repairs};
use cqa_model::{CompiledQuery, Fact, FkSet, Instance, Query};
use std::fmt;
use std::ops::ControlFlow;

/// The oracle's verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OracleOutcome {
    /// Every ⊕-repair satisfies the query.
    Certain,
    /// A falsifying ⊕-repair exists (witness included; boxed — an
    /// `Instance` with its fact store dwarfs the other variants).
    NotCertain(Box<Instance>),
    /// Search limits were hit before a verdict was reached.
    Inconclusive(String),
}

impl OracleOutcome {
    /// `true` for [`OracleOutcome::Certain`].
    pub fn is_certain(&self) -> bool {
        matches!(self, OracleOutcome::Certain)
    }

    /// `Some(bool)` for definite outcomes, `None` when inconclusive.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            OracleOutcome::Certain => Some(true),
            OracleOutcome::NotCertain(_) => Some(false),
            OracleOutcome::Inconclusive(_) => None,
        }
    }
}

impl fmt::Display for OracleOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleOutcome::Certain => write!(f, "certain"),
            OracleOutcome::NotCertain(r) => write!(f, "not certain (witness {r})"),
            OracleOutcome::Inconclusive(why) => write!(f, "inconclusive: {why}"),
        }
    }
}

/// Exhaustive certainty checker for small instances.
#[derive(Clone, Debug, Default)]
pub struct CertaintyOracle {
    /// Search limits; exceeding them yields `Inconclusive`.
    pub limits: SearchLimits,
}

impl CertaintyOracle {
    /// Oracle with default limits.
    pub fn new() -> CertaintyOracle {
        CertaintyOracle::default()
    }

    /// Oracle with custom limits.
    pub fn with_limits(limits: SearchLimits) -> CertaintyOracle {
        CertaintyOracle { limits }
    }

    /// Whether `db`'s search space fits this oracle's candidate budget —
    /// a cheap probe callers (e.g. the `cqa solve` CLI) can use to predict
    /// an [`OracleOutcome::Inconclusive`] before paying for the
    /// enumeration. [`CertaintyOracle::is_certain`] performs the same
    /// check internally before searching, so this never changes verdicts —
    /// it only lets a caller warn or re-budget up front. For `FK = ∅` the
    /// space is the number of primary-key repairs; otherwise it is
    /// [`candidate_space`].
    pub fn within_budget(&self, db: &Instance, fks: &FkSet) -> bool {
        if fks.is_empty() {
            count_pk_repairs(db) <= self.limits.max_candidates as u128
        } else {
            candidate_space(db) <= self.limits.max_candidates
        }
    }

    /// Decides `CERTAINTY(q, FK)` on `db` by exhaustive search.
    ///
    /// The query is compiled once; the (exponentially many) candidate
    /// repairs reuse the compiled join for their `⊨ q` checks.
    pub fn is_certain(&self, db: &Instance, q: &Query, fks: &FkSet) -> OracleOutcome {
        let cq = CompiledQuery::new(q);
        if fks.is_empty() {
            return self.pk_only(db, &cq);
        }
        let blocks = blocks_of(db);
        let space = candidate_space(db);
        if space > self.limits.max_candidates {
            return OracleOutcome::Inconclusive(format!(
                "candidate space {space} exceeds limit {}",
                self.limits.max_candidates
            ));
        }

        let mut inconclusive: Option<String> = None;
        let mut chosen: Vec<Fact> = Vec::new();
        let outcome = self.search(db, &cq, fks, &blocks, 0, &mut chosen, &mut inconclusive);
        match outcome {
            Some(witness) => OracleOutcome::NotCertain(Box::new(witness)),
            None => match inconclusive {
                Some(why) => OracleOutcome::Inconclusive(why),
                None => OracleOutcome::Certain,
            },
        }
    }

    fn pk_only(&self, db: &Instance, q: &CompiledQuery) -> OracleOutcome {
        let repairs = count_pk_repairs(db);
        if repairs > self.limits.max_candidates as u128 {
            return OracleOutcome::Inconclusive(format!(
                "{repairs} primary-key repairs exceed limit {}",
                self.limits.max_candidates
            ));
        }
        let witness = visit_pk_repairs(db, |r| {
            if q.satisfies(r) {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(r.clone())
            }
        });
        match witness {
            Some(r) => OracleOutcome::NotCertain(Box::new(r)),
            None => OracleOutcome::Certain,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn search(
        &self,
        db: &Instance,
        q: &CompiledQuery,
        fks: &FkSet,
        blocks: &[Vec<Fact>],
        idx: usize,
        chosen: &mut Vec<Fact>,
        inconclusive: &mut Option<String>,
    ) -> Option<Instance> {
        if idx == blocks.len() {
            let mut base = db.empty_like();
            for f in chosen.iter() {
                base.insert(f.clone()).expect("db fact");
            }
            let (candidate, _) = match chase_fresh(&base, fks, self.limits.max_chase_inserts) {
                Ok(x) => x,
                Err(e) => {
                    *inconclusive = Some(e.to_string());
                    return None;
                }
            };
            if q.satisfies(&candidate) {
                return None;
            }
            match is_delta_repair(db, &candidate, fks, &self.limits) {
                Some(true) => return Some(candidate),
                Some(false) => return None,
                None => {
                    *inconclusive =
                        Some("⊕-minimality check exceeded limits".to_string());
                    return None;
                }
            }
        }
        // Option: drop the block entirely.
        if let Some(w) = self.search(db, q, fks, blocks, idx + 1, chosen, inconclusive) {
            return Some(w);
        }
        // Option: keep one fact.
        for f in &blocks[idx] {
            chosen.push(f.clone());
            let w = self.search(db, q, fks, blocks, idx + 1, chosen, inconclusive);
            chosen.pop();
            if w.is_some() {
                return w;
            }
        }
        None
    }
}

/// The size of the oracle's block-choice search space on `db` under
/// foreign keys: per block, keep one fact or drop the block, so
/// `∏ (|block| + 1)` over all blocks (saturating). This is the quantity
/// [`SearchLimits::max_candidates`] bounds — exposed so callers (the
/// unified solver's budgeted fallback) can report how far a budget goes
/// before committing to the search.
pub fn candidate_space(db: &Instance) -> u64 {
    blocks_of(db)
        .iter()
        .fold(1, |n, b| n.saturating_mul(b.len() as u64 + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_model::parser::{parse_fks, parse_instance, parse_query, parse_schema};
    use std::sync::Arc;

    #[test]
    fn candidate_space_counts_block_choices() {
        let s = Arc::new(parse_schema("R[2,1] S[1,1]").unwrap());
        // Two R-blocks of 2 facts each and one S-block of 1: (2+1)²·(1+1).
        let db = parse_instance(&s, "R(k0,a) R(k0,b) R(k1,a) R(k1,b) S(a)").unwrap();
        assert_eq!(candidate_space(&db), 18);
        assert_eq!(candidate_space(&Instance::new(s.clone())), 1);

        let fks = cqa_model::parser::parse_fks(&s, "R[2] -> S").unwrap();
        let roomy = CertaintyOracle::new();
        assert!(roomy.within_budget(&db, &fks));
        let tight = CertaintyOracle::with_limits(SearchLimits::budgeted(17));
        assert!(!tight.within_budget(&db, &fks));
        // FK-free budgeting counts primary-key repairs (2·2 = 4) instead.
        let empty = cqa_model::FkSet::empty(s);
        assert!(CertaintyOracle::with_limits(SearchLimits::budgeted(4))
            .within_budget(&db, &empty));
        assert!(!CertaintyOracle::with_limits(SearchLimits::budgeted(3))
            .within_budget(&db, &empty));
    }

    #[test]
    fn pk_only_path_matches_enumeration() {
        let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
        let q = parse_query(&s, "R(x,y), S(y,z)").unwrap();
        let fks = cqa_model::FkSet::empty(s.clone());
        let oracle = CertaintyOracle::new();

        let yes = parse_instance(&s, "R(a,b) R(a,c) S(b,1) S(c,2)").unwrap();
        assert!(oracle.is_certain(&yes, &q, &fks).is_certain());

        let no = parse_instance(&s, "R(a,b) R(a,c) S(b,1)").unwrap();
        assert_eq!(oracle.is_certain(&no, &q, &fks).as_bool(), Some(false));
    }

    #[test]
    fn example_4_empty_repair_falsifies() {
        // q = {R(x,y), S(y,z), T(z)} with FK = {R[2]→S, S[2]→T} and
        // db = {R(a,b), S(b,c)}: r₁ = {} is a ⊕-repair falsifying q.
        let s = Arc::new(parse_schema("R[2,1] S[2,1] T[1,1]").unwrap());
        let q = parse_query(&s, "R(x,y), S(y,z), T(z)").unwrap();
        let fks = parse_fks(&s, "R[2] -> S, S[2] -> T").unwrap();
        let db = parse_instance(&s, "R(a,b) S(b,c)").unwrap();
        let oracle = CertaintyOracle::new();
        match oracle.is_certain(&db, &q, &fks) {
            OracleOutcome::NotCertain(witness) => {
                assert!(!cqa_model::satisfies(&witness, &q));
            }
            other => panic!("expected NotCertain, got {other}"),
        }
    }

    #[test]
    fn section4_blockchain_n1() {
        // §4's construction at n = 1: q = {N(x,'c',y), O(y)}, FK = {N[3]→O},
        // db = {N(b1,c,1), N(b1,d,2), N(b2,□,2), O(1)}.
        // The paper: yes-instance iff □ = c.
        let s = Arc::new(parse_schema("N[3,1] O[1,1]").unwrap());
        let q = parse_query(&s, "N(x,'c',y), O(y)").unwrap();
        let fks = parse_fks(&s, "N[3] -> O").unwrap();
        let oracle = CertaintyOracle::new();

        let yes = parse_instance(&s, "N(b1,c,1) N(b1,d,2) N(b2,c,2) O(1)").unwrap();
        assert!(
            oracle.is_certain(&yes, &q, &fks).is_certain(),
            "□ = c must be a yes-instance"
        );

        let no = parse_instance(&s, "N(b1,c,1) N(b1,d,2) N(b2,d,3) O(1)").unwrap();
        assert_eq!(
            oracle.is_certain(&no, &q, &fks).as_bool(),
            Some(false),
            "□ = d must be a no-instance"
        );

        // Removing O(1) makes {} a repair: a no-instance (paper's db′).
        let no2 = parse_instance(&s, "N(b1,c,1) N(b1,d,2) N(b2,c,2)").unwrap();
        assert_eq!(oracle.is_certain(&no2, &q, &fks).as_bool(), Some(false));
    }

    #[test]
    fn foreign_key_insertion_can_force_satisfaction() {
        // q = {N(x,y), O(y)} with FK = {N[2]→O}: any kept N-fact forces an
        // O-fact with the right key, so q is certain whenever every repair
        // must keep some N-fact. With a single consistent N-fact, it must.
        let s = Arc::new(parse_schema("N[2,1] O[1,1]").unwrap());
        let q = parse_query(&s, "N(x,y), O(y)").unwrap();
        let fks = parse_fks(&s, "N[2] -> O").unwrap();
        let oracle = CertaintyOracle::new();

        // N(a,b) dangling: {} is a repair (drop it) → not certain.
        let db1 = parse_instance(&s, "N(a,b)").unwrap();
        assert_eq!(oracle.is_certain(&db1, &q, &fks).as_bool(), Some(false));

        // N(a,b) with O(b): the only repair is db itself → certain.
        let db2 = parse_instance(&s, "N(a,b) O(b)").unwrap();
        assert!(oracle.is_certain(&db2, &q, &fks).is_certain());
    }

    #[test]
    fn inconclusive_on_cyclic_divergence() {
        // R[2] → R: the fresh chase diverges; with a kept dangling fact the
        // oracle must admit inconclusiveness rather than guess, unless the
        // drop-everything repair already falsifies the query (it does here,
        // so the oracle answers definitely).
        let s = Arc::new(parse_schema("R[2,1]").unwrap());
        let q = parse_query(&s, "R(x,x)").unwrap();
        let fks = parse_fks(&s, "R[2] -> R").unwrap();
        let db = parse_instance(&s, "R(a,b)").unwrap();
        let oracle = CertaintyOracle::new();
        // {} is a repair falsifying q → definite NotCertain despite cycles.
        assert_eq!(oracle.is_certain(&db, &q, &fks).as_bool(), Some(false));
    }

    #[test]
    fn candidate_space_limit() {
        let s = Arc::new(parse_schema("R[2,1] S[1,1]").unwrap());
        let q = parse_query(&s, "R(x,y), S(y)").unwrap();
        let fks = parse_fks(&s, "R[2] -> S").unwrap();
        let mut text = String::new();
        for i in 0..20 {
            text.push_str(&format!("R(k{i},a) R(k{i},b) "));
        }
        let db = parse_instance(&s, &text).unwrap();
        let oracle = CertaintyOracle::with_limits(SearchLimits {
            max_candidates: 100,
            ..SearchLimits::default()
        });
        assert!(matches!(
            oracle.is_certain(&db, &q, &fks),
            OracleOutcome::Inconclusive(_)
        ));
    }

    #[test]
    fn hitting_max_candidates_is_inconclusive_never_certain() {
        // Example 4's dangling-chain pattern, widened: no T-fact exists, so
        // every consistent subset is ∅ — a ⊕-repair falsifying q. Ground
        // truth is therefore NotCertain; with max_candidates below the
        // candidate space (3·3·2 = 18: each R-block drops or keeps one of
        // two facts, the S-block drops or keeps its fact) the oracle must
        // answer Inconclusive — a false Certain here would poison every
        // downstream cross-validation.
        let s = Arc::new(parse_schema("R[2,1] S[2,1] T[1,1]").unwrap());
        let q = parse_query(&s, "R(x,y), S(y,z), T(z)").unwrap();
        let fks = parse_fks(&s, "R[2] -> S, S[2] -> T").unwrap();
        let db =
            parse_instance(&s, "R(k0,b0) R(k0,b1) R(k1,b0) R(k1,b1) S(b0,c)").unwrap();

        let unlimited = CertaintyOracle::new().is_certain(&db, &q, &fks);
        assert_eq!(unlimited.as_bool(), Some(false), "ground truth: not certain");

        for max in [1u64, 2, 5, 17] {
            let tight = CertaintyOracle::with_limits(SearchLimits {
                max_candidates: max,
                ..SearchLimits::default()
            })
            .is_certain(&db, &q, &fks);
            assert!(
                matches!(tight, OracleOutcome::Inconclusive(_)),
                "limit {max} must be inconclusive, got {tight}"
            );
            assert_eq!(tight.as_bool(), None, "inconclusive must be skippable");
        }
    }

    #[test]
    fn pk_only_limit_is_inconclusive_never_certain() {
        // Same invariant on the FK-free path: ground truth NotCertain, and
        // a repair-count limit must yield Inconclusive, not Certain.
        let s = Arc::new(parse_schema("R[2,1] S[1,1]").unwrap());
        let q = parse_query(&s, "R(x,y), S(y)").unwrap();
        let fks = cqa_model::FkSet::empty(s.clone());
        let db = parse_instance(&s, "R(k0,a) R(k0,b) R(k1,a) R(k1,b) S(a)").unwrap();
        assert_eq!(
            CertaintyOracle::new().is_certain(&db, &q, &fks).as_bool(),
            Some(false)
        );
        let tight = CertaintyOracle::with_limits(SearchLimits {
            max_candidates: 3, // 2·2 = 4 pk-repairs exceed this
            ..SearchLimits::default()
        })
        .is_certain(&db, &q, &fks);
        assert!(matches!(tight, OracleOutcome::Inconclusive(_)), "{tight}");
        assert_eq!(tight.as_bool(), None, "inconclusive must be skippable");
    }

    #[test]
    fn outcome_display() {
        assert_eq!(OracleOutcome::Certain.to_string(), "certain");
        assert!(OracleOutcome::Inconclusive("x".into())
            .to_string()
            .contains("inconclusive"));
    }
}
