//! Repair counting — the `#CERTAINTY(q)` problem family surveyed in the
//! paper's §2 (Maslowski & Wijsen; Calautti, Console & Pieris): count (or
//! estimate) how many primary-key repairs satisfy a Boolean query.
//!
//! Exact counting is `#P`-hard in general, so alongside the exact
//! enumeration counter this module provides the randomized approximation
//! used in the PODS 2021 benchmarking paper cited by §2: sample repairs
//! uniformly (choose one fact per block, independently and uniformly) and
//! report the satisfaction ratio.

use crate::pk_repairs::{blocks_of, visit_pk_repairs};
use cqa_model::{CompiledQuery, Instance, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::ControlFlow;

/// Exact count of primary-key repairs satisfying `q`, by enumeration.
/// Exponential — meant for ground truth on small instances.
pub fn count_satisfying_pk_repairs(db: &Instance, q: &Query) -> u128 {
    let cq = CompiledQuery::new(q);
    let mut n = 0;
    visit_pk_repairs(db, |r| {
        n += u128::from(cq.satisfies(r));
        ControlFlow::<()>::Continue(())
    });
    n
}

/// The exact fraction of primary-key repairs satisfying `q`
/// (`count / total`), as a float.
pub fn exact_satisfaction_ratio(db: &Instance, q: &Query) -> f64 {
    let total = crate::pk_repairs::count_pk_repairs(db);
    if total == 0 {
        return 0.0;
    }
    count_satisfying_pk_repairs(db, q) as f64 / total as f64
}

/// Monte-Carlo estimate of the fraction of primary-key repairs satisfying
/// `q`: draws `samples` uniform repairs (one uniform fact per block,
/// independently — this is the uniform distribution over repairs).
pub fn sampled_satisfaction_ratio(db: &Instance, q: &Query, samples: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let blocks = blocks_of(db);
    if samples == 0 {
        return 0.0;
    }
    let cq = CompiledQuery::new(q);
    let mut hits = 0usize;
    for _ in 0..samples {
        let mut r = Instance::new(db.schema().clone());
        for facts in &blocks {
            let pick = &facts[rng.gen_range(0..facts.len())];
            r.insert(pick.clone()).expect("db fact");
        }
        if cq.satisfies(&r) {
            hits += 1;
        }
    }
    hits as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_model::parser::{parse_instance, parse_query, parse_schema};
    use std::sync::Arc;

    fn fixture() -> (Instance, Query) {
        let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
        let q = parse_query(&s, "R(x,y), S(y,z)").unwrap();
        // R block {b, c}; S has a block for b only: exactly half the repairs
        // satisfy q (those choosing R(a,b)).
        let db = parse_instance(&s, "R(a,b) R(a,c) S(b,1)").unwrap();
        (db, q)
    }

    #[test]
    fn exact_count() {
        let (db, q) = fixture();
        assert_eq!(crate::pk_repairs::count_pk_repairs(&db), 2);
        assert_eq!(count_satisfying_pk_repairs(&db, &q), 1);
        assert!((exact_satisfaction_ratio(&db, &q) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn certain_iff_ratio_one() {
        let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
        let q = parse_query(&s, "R(x,y), S(y,z)").unwrap();
        let db = parse_instance(&s, "R(a,b) R(a,c) S(b,1) S(c,2)").unwrap();
        assert!((exact_satisfaction_ratio(&db, &q) - 1.0).abs() < 1e-9);
        assert!(crate::pk_certain(&db, &q));
    }

    #[test]
    fn sampling_converges_to_exact() {
        let (db, q) = fixture();
        let estimate = sampled_satisfaction_ratio(&db, &q, 4000, 99);
        assert!(
            (estimate - 0.5).abs() < 0.05,
            "estimate {estimate} too far from 0.5"
        );
    }

    #[test]
    fn sampling_on_larger_instance() {
        let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
        let q = parse_query(&s, "R(x,y), S(y,z)").unwrap();
        let mut text = String::new();
        for i in 0..10 {
            text.push_str(&format!("R(k{i},b) R(k{i},c) "));
        }
        text.push_str("S(b,1)");
        let db = parse_instance(&s, &text).unwrap();
        // q needs SOME block to choose b: ratio = 1 - (1/2)^10.
        let expected = 1.0 - 0.5f64.powi(10);
        let exact = exact_satisfaction_ratio(&db, &q);
        assert!((exact - expected).abs() < 1e-9);
        let estimate = sampled_satisfaction_ratio(&db, &q, 2000, 7);
        assert!((estimate - expected).abs() < 0.05);
    }

    #[test]
    fn empty_database() {
        let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
        let q = parse_query(&s, "R(x,y), S(y,z)").unwrap();
        let db = Instance::new(s);
        assert_eq!(count_satisfying_pk_repairs(&db, &q), 0);
        assert_eq!(sampled_satisfaction_ratio(&db, &q, 10, 1), 0.0);
    }
}
