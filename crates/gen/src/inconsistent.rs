//! Parameterized inconsistent-database generation for arbitrary problems.
//!
//! Given `(q, FK)`, the generator plants `n_valuations` random satisfying
//! valuations of `q` (so the clean core satisfies both the query and the
//! foreign keys by construction — `FK` is about `q`), then injects
//! primary-key violations (extra facts key-equal to planted ones) and
//! dangling facts at configurable rates. This is the workload for the
//! FO-rewriting vs. naive-oracle scaling experiment (E13).

use cqa_model::{sort_by_name, Atom, Cst, Fact, FkSet, Instance, Query, Term, Valuation, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Number of planted satisfying valuations.
    pub n_valuations: usize,
    /// Size of the constant pool the valuations draw from.
    pub domain_size: usize,
    /// Fraction (0..=1) of planted facts that get a key-equal sibling
    /// (primary-key violation).
    pub pk_violation_rate: f64,
    /// Fraction (0..=1) of atoms for which an extra *dangling-prone* fact is
    /// inserted with fresh values (may violate foreign keys).
    pub noise_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            n_valuations: 16,
            domain_size: 16,
            pk_violation_rate: 0.3,
            noise_rate: 0.2,
            seed: 0xC0FFEE,
        }
    }
}

/// Generates an inconsistent database for `(q, fks)`.
pub fn generate(q: &Query, _fks: &FkSet, cfg: GenConfig) -> Instance {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut db = Instance::new(q.schema().clone());
    let pool: Vec<Cst> = (0..cfg.domain_size.max(1))
        .map(|i| Cst::new(&format!("v{i}")))
        .collect();

    // Draw in name order, so a seed gives the same instance in every process.
    let mut vars: Vec<Var> = q.vars().into_iter().collect();
    sort_by_name(&mut vars);
    for _ in 0..cfg.n_valuations {
        // Random valuation over vars(q).
        let val: Valuation = vars
            .iter()
            .map(|&v| (v, pool[rng.gen_range(0..pool.len())]))
            .collect();
        for atom in q.atoms() {
            let fact = apply(atom, &val);
            db.insert(fact.clone()).expect("schema ok");

            // Primary-key violation: a sibling agreeing on the key.
            if rng.gen_bool(cfg.pk_violation_rate) {
                let sig = q.sig(atom.rel);
                if sig.nonkey_len() > 0 {
                    let mut args = fact.args.to_vec();
                    for a in args.iter_mut().skip(sig.key_len) {
                        *a = pool[rng.gen_range(0..pool.len())];
                    }
                    db.insert(Fact::new(atom.rel, args)).expect("schema ok");
                }
            }

            // Noise: an unrelated fact with random values (often dangling).
            if rng.gen_bool(cfg.noise_rate) {
                let sig = q.sig(atom.rel);
                let args: Vec<Cst> = (0..sig.arity)
                    .map(|_| pool[rng.gen_range(0..pool.len())])
                    .collect();
                db.insert(Fact::new(atom.rel, args)).expect("schema ok");
            }
        }
    }
    db
}

fn apply(atom: &Atom, val: &BTreeMap<Var, Cst>) -> Fact {
    let args: Vec<Cst> = atom
        .terms
        .iter()
        .map(|t| match t {
            Term::Cst(c) => *c,
            Term::Var(v) => val[v],
        })
        .collect();
    Fact::new(atom.rel, args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_model::parser::{parse_fks, parse_query, parse_schema};
    use std::sync::Arc;

    #[test]
    fn generation_is_deterministic() {
        let s = Arc::new(parse_schema("N[3,1] O[2,1]").unwrap());
        let q = parse_query(&s, "N(x,u,y), O(y,w)").unwrap();
        let fks = parse_fks(&s, "N[3] -> O").unwrap();
        let a = generate(&q, &fks, GenConfig::default());
        let b = generate(&q, &fks, GenConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn clean_core_satisfies_query() {
        let s = Arc::new(parse_schema("N[3,1] O[2,1]").unwrap());
        let q = parse_query(&s, "N(x,u,y), O(y,w)").unwrap();
        let fks = parse_fks(&s, "N[3] -> O").unwrap();
        let db = generate(
            &q,
            &fks,
            GenConfig {
                pk_violation_rate: 0.0,
                noise_rate: 0.0,
                ..Default::default()
            },
        );
        assert!(cqa_model::satisfies(&db, &q));
        assert!(db.satisfies_fks(&fks), "clean core honours the FKs");
    }

    #[test]
    fn violation_rates_inject_inconsistency() {
        let s = Arc::new(parse_schema("N[3,1] O[2,1]").unwrap());
        let q = parse_query(&s, "N(x,u,y), O(y,w)").unwrap();
        let fks = parse_fks(&s, "N[3] -> O").unwrap();
        let db = generate(
            &q,
            &fks,
            GenConfig {
                n_valuations: 50,
                pk_violation_rate: 0.8,
                noise_rate: 0.8,
                ..Default::default()
            },
        );
        assert!(!db.pk_violations().is_empty());
    }

    #[test]
    fn scales_with_valuations() {
        let s = Arc::new(parse_schema("R[2,1]").unwrap());
        let q = parse_query(&s, "R(x,y)").unwrap();
        let fks = cqa_model::FkSet::empty(s.clone());
        let small = generate(
            &q,
            &fks,
            GenConfig {
                n_valuations: 5,
                domain_size: 1000,
                pk_violation_rate: 0.0,
                noise_rate: 0.0,
                seed: 1,
            },
        );
        let large = generate(
            &q,
            &fks,
            GenConfig {
                n_valuations: 200,
                domain_size: 1000,
                pk_violation_rate: 0.0,
                noise_rate: 0.0,
                seed: 1,
            },
        );
        assert!(large.len() > small.len());
    }
}
