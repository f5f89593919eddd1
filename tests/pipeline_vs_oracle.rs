//! Randomized cross-validation: the constructed rewritings (interpretive
//! plan evaluation, the compiled view-backed plan, AND the flattened single
//! formula) must agree with the exhaustive ⊕-repair oracle on every
//! instance, for a corpus of FO-classified problems covering every
//! reduction lemma.
//!
//! This is the strongest correctness signal in the workspace: four
//! independent implementations of `CERTAINTY(q, FK)` (materializing paper
//! pipeline, compiled lazy-view pipeline, flattened FO formula, brute-force
//! repair search) computed four different ways. The compiled plan runs
//! under each [`JoinStrategy`].

use cqa::core::compiled_plan::CompiledPlan;
use cqa::core::flatten::flatten;
use cqa::prelude::*;
use cqa_fo::eval::{eval_with, Strategy};
use cqa_model::Valuation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

struct Case {
    name: &'static str,
    schema: &'static str,
    query: &'static str,
    fks: &'static str,
    /// relations and arities used by the random instance generator
    rels: &'static [(&'static str, usize)],
}

const CASES: &[Case] = &[
    Case {
        name: "lemma36 weak key",
        schema: "R[2,1] S[1,1]",
        query: "R(x,y), S(x)",
        fks: "R[1] -> S",
        rels: &[("R", 2), ("S", 1)],
    },
    Case {
        name: "lemma37 o→o (Example 13 q1)",
        schema: "N[3,1] O[2,1]",
        query: "N(x,u,y), O(y,w)",
        fks: "N[3] -> O",
        rels: &[("N", 3), ("O", 2)],
    },
    Case {
        name: "lemma39 d→d (Example 13 q3)",
        schema: "N[3,1] O[2,1]",
        query: "N(x,'c',y), O(y,'c')",
        fks: "N[3] -> O",
        rels: &[("N", 3), ("O", 2)],
    },
    Case {
        name: "lemma45 (§8 example)",
        schema: "N[2,1] O[1,1] P[1,1]",
        query: "N('c',y), O(y), P(y)",
        fks: "N[2] -> O",
        rels: &[("N", 2), ("O", 1), ("P", 1)],
    },
    Case {
        name: "lemma40 d→o",
        schema: "N[2,1] O[1,1] T[2,1] U[2,1]",
        query: "N(x,y), O(y), T(z,y), U(z,y)",
        fks: "N[2] -> O",
        rels: &[("N", 2), ("O", 1), ("T", 2), ("U", 2)],
    },
    Case {
        name: "simple o→o into unary",
        schema: "N[2,1] O[1,1]",
        query: "N(x,y), O(y)",
        fks: "N[2] -> O",
        rels: &[("N", 2), ("O", 1)],
    },
    Case {
        name: "chained keys with closure",
        schema: "A[2,1] B[2,1] C[1,1] D[2,1]",
        query: "A(x,y), B(y,z), C(y), D(z,'k')",
        fks: "A[2] -> B, B[1] -> C, B[2] -> D",
        rels: &[("A", 2), ("B", 2), ("C", 1), ("D", 2)],
    },
    Case {
        name: "pk-only baseline",
        schema: "R[2,1] S[2,1]",
        query: "R(x,y), S(y,'v')",
        fks: "",
        rels: &[("R", 2), ("S", 2)],
    },
    Case {
        name: "composite key source",
        schema: "N[3,2] O[1,1]",
        query: "N(x,y,z), O(z)",
        fks: "N[3] -> O",
        rels: &[("N", 3), ("O", 1)],
    },
    Case {
        name: "two strong keys from one atom",
        schema: "A[3,1] B[1,1] C[1,1]",
        query: "A(x,y,z), B(y), C(z)",
        fks: "A[2] -> B, A[3] -> C",
        rels: &[("A", 3), ("B", 1), ("C", 1)],
    },
    Case {
        name: "strong key chain",
        schema: "A[2,1] B[2,1] C[1,1]",
        query: "A(x,y), B(y,z), C(z)",
        fks: "A[2] -> B, B[2] -> C",
        rels: &[("A", 2), ("B", 2), ("C", 1)],
    },
    Case {
        name: "lemma45 followed by a strong key",
        schema: "N[2,1] O[2,1] Q[1,1]",
        query: "N('c',y), O(y,z), Q(z)",
        fks: "N[2] -> O, O[2] -> Q",
        rels: &[("N", 2), ("O", 2), ("Q", 1)],
    },
    Case {
        name: "weak key from a composite key",
        schema: "N[2,2] O[1,1]",
        query: "N(x,'k'), O(x)",
        fks: "N[1] -> O",
        rels: &[("N", 2), ("O", 1)],
    },
    Case {
        name: "disobedient target constant",
        schema: "A[2,1] B[2,1]",
        query: "A(x,y), B(y,'m')",
        fks: "A[2] -> B",
        rels: &[("A", 2), ("B", 2)],
    },
];

/// Random instance over the case's relations with a small shared domain, so
/// that joins, blocks and dangling references all occur with high
/// probability.
fn random_instance(
    schema: &Arc<Schema>,
    rels: &[(&str, usize)],
    rng: &mut StdRng,
    max_facts: usize,
) -> Instance {
    let pool = ["a", "b", "c", "v", "k", "1"];
    let mut db = Instance::new(schema.clone());
    let n = rng.gen_range(0..=max_facts);
    for _ in 0..n {
        let (rel, arity) = rels[rng.gen_range(0..rels.len())];
        let args: Vec<&str> = (0..arity).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
        db.insert_named(rel, &args).unwrap();
    }
    db
}

#[test]
fn rewriting_matches_oracle_on_random_instances() {
    let oracle = CertaintyOracle::new();
    let mut rng = StdRng::seed_from_u64(2022);
    let mut checked = 0usize;
    let mut inconclusive = 0usize;

    for case in CASES {
        let schema = Arc::new(parse_schema(case.schema).unwrap());
        let q = parse_query(&schema, case.query).unwrap();
        let fks = parse_fks(&schema, case.fks).unwrap();
        let problem = Problem::new(q, fks).unwrap();
        let plan = match problem.classify() {
            Classification::Fo(plan) => plan,
            Classification::NotFo(r) => panic!("{}: expected FO, got {r}", case.name),
        };
        let formula = flatten(&plan)
            .unwrap_or_else(|e| panic!("{}: flatten failed: {e}", case.name));
        assert!(formula.is_closed(), "{}: open formula {formula}", case.name);
        let joins = [
            JoinStrategy::Auto,
            JoinStrategy::Backtracking,
            JoinStrategy::Semijoin,
        ];
        let compiled = joins.map(|join| {
            CompiledPlan::compile_with(&plan, join)
                .unwrap_or_else(|e| panic!("{}: compile ({join}) failed: {e}", case.name))
        });

        for round in 0..60 {
            let db = random_instance(&schema, case.rels, &mut rng, 7);
            let by_plan = plan.answer(&db);
            let by_formula_guarded =
                eval_with(&db, &formula, &Valuation::new(), Strategy::Guarded);
            let by_formula_naive = eval_with(&db, &formula, &Valuation::new(), Strategy::Naive);
            assert_eq!(
                by_formula_guarded, by_formula_naive,
                "{} round {round}: evaluator strategies disagree on {db} for {formula}",
                case.name
            );
            for (join, compiled) in joins.iter().zip(&compiled) {
                assert_eq!(
                    by_plan,
                    compiled.answer(&db),
                    "{} round {round}: materializing plan vs compiled plan ({join} join) on {db}",
                    case.name
                );
            }
            assert_eq!(
                by_plan, by_formula_guarded,
                "{} round {round}: plan vs flattened formula on {db}\nformula: {formula}",
                case.name
            );
            match oracle.is_certain(&db, problem.query(), problem.fks()) {
                OracleOutcome::Certain => {
                    assert!(
                        by_plan,
                        "{} round {round}: oracle certain, plan says no on {db}",
                        case.name
                    );
                    checked += 1;
                }
                OracleOutcome::NotCertain(witness) => {
                    assert!(
                        !by_plan,
                        "{} round {round}: oracle found falsifying repair {witness} on {db}",
                        case.name
                    );
                    checked += 1;
                }
                OracleOutcome::Inconclusive(_) => {
                    inconclusive += 1;
                }
            }
        }
    }
    assert!(
        checked >= 300,
        "too few conclusive oracle comparisons: {checked} (inconclusive {inconclusive})"
    );
}

#[test]
fn inconclusive_oracle_outcomes_are_skipped_not_passed() {
    // The cross-validation above SKIPS inconclusive oracle outcomes. This
    // test pins that contract under deliberately tiny limits: on instances
    // whose candidate space exceeds the limit the oracle must return
    // `Inconclusive` (`as_bool() == None`, so the harness cannot count it
    // as agreement), and every verdict that IS conclusive must still match
    // the rewriting plan. A limit that never bites would silently weaken
    // the suite, so we also require that some instances were skipped.
    let tight = CertaintyOracle::with_limits(cqa_repair::SearchLimits {
        max_candidates: 6,
        ..cqa_repair::SearchLimits::default()
    });
    let mut rng = StdRng::seed_from_u64(45);
    let mut skipped = 0usize;
    let mut conclusive = 0usize;
    for case in CASES.iter().take(6) {
        let schema = Arc::new(parse_schema(case.schema).unwrap());
        let q = parse_query(&schema, case.query).unwrap();
        let fks = parse_fks(&schema, case.fks).unwrap();
        let problem = Problem::new(q, fks).unwrap();
        let plan = match problem.classify() {
            Classification::Fo(plan) => plan,
            Classification::NotFo(r) => panic!("{}: expected FO, got {r}", case.name),
        };
        for _ in 0..40 {
            let db = random_instance(&schema, case.rels, &mut rng, 8);
            match tight.is_certain(&db, problem.query(), problem.fks()) {
                OracleOutcome::Inconclusive(why) => {
                    // Skipped — but never silently: the reason is real.
                    assert!(!why.is_empty());
                    skipped += 1;
                }
                outcome => {
                    let truth = outcome.as_bool().expect("conclusive outcome");
                    assert_eq!(
                        truth,
                        plan.answer(&db),
                        "{}: conclusive oracle verdict disagrees with plan on {db}",
                        case.name
                    );
                    conclusive += 1;
                }
            }
        }
    }
    assert!(skipped > 0, "the tiny limit never applied — test is vacuous");
    assert!(conclusive > 0, "everything skipped — test is vacuous");
}

#[test]
fn nl_p_solvers_match_oracle_on_random_instances() {
    let oracle = CertaintyOracle::new();
    let mut rng = StdRng::seed_from_u64(16);

    // Proposition 16 random instances.
    let s16 = Arc::new(parse_schema(cqa::solvers::prop16::SCHEMA).unwrap());
    let q16 = parse_query(&s16, cqa::solvers::prop16::QUERY).unwrap();
    let k16 = parse_fks(&s16, cqa::solvers::prop16::FKS).unwrap();
    let pool = ["a", "b", "c", "d"];
    for _ in 0..120 {
        let mut db = Instance::new(s16.clone());
        for _ in 0..rng.gen_range(0..8) {
            let u = pool[rng.gen_range(0..pool.len())];
            let v = pool[rng.gen_range(0..pool.len())];
            db.insert_named("N", &[u, v]).unwrap();
        }
        for _ in 0..rng.gen_range(0..3) {
            db.insert_named("O", &[pool[rng.gen_range(0..pool.len())]])
                .unwrap();
        }
        let fast = cqa::solvers::prop16::certain(&db);
        let via_reach = cqa::solvers::prop16::certain_via_reachability(&db);
        assert_eq!(fast, via_reach, "prop16 criteria disagree on {db}");
        if let Some(truth) = oracle.is_certain(&db, &q16, &k16).as_bool() {
            assert_eq!(fast, truth, "prop16 vs oracle on {db}");
        }
    }

    // Proposition 17 random instances.
    let s17 = Arc::new(parse_schema(cqa::solvers::prop17::SCHEMA).unwrap());
    let q17 = parse_query(&s17, cqa::solvers::prop17::QUERY).unwrap();
    let k17 = parse_fks(&s17, cqa::solvers::prop17::FKS).unwrap();
    let mids = ["c", "d"];
    let vals = ["1", "2", "3"];
    for _ in 0..120 {
        let mut db = Instance::new(s17.clone());
        for _ in 0..rng.gen_range(0..7) {
            let key = pool[rng.gen_range(0..pool.len())];
            let mid = mids[rng.gen_range(0..mids.len())];
            let val = vals[rng.gen_range(0..vals.len())];
            db.insert_named("N", &[key, mid, val]).unwrap();
        }
        for _ in 0..rng.gen_range(0..3) {
            db.insert_named("O", &[vals[rng.gen_range(0..vals.len())]])
                .unwrap();
        }
        let fast = cqa::solvers::prop17::certain(&db, Cst::new("c"));
        if let Some(truth) = oracle.is_certain(&db, &q17, &k17).as_bool() {
            assert_eq!(fast, truth, "prop17 vs oracle on {db}");
        }
    }
}

#[test]
fn pk_only_rewriting_matches_enumeration_on_random_instances() {
    // Theorem 2's FO side: the Koutris–Wijsen rewriting vs. exhaustive
    // primary-key repair enumeration, over several acyclic queries.
    let mut rng = StdRng::seed_from_u64(7);
    let corpus = [
        ("R[2,1] S[2,1]", "R(x,y), S(y,z)", &[("R", 2), ("S", 2)][..]),
        ("R[2,1] S[2,1]", "R(x,y), S(y,'v')", &[("R", 2), ("S", 2)][..]),
        ("R[3,1]", "R(x,y,y)", &[("R", 3)][..]),
        ("R[2,1] S[2,1] T[2,1]", "R(x,y), S(y,z), T(z,u)", &[("R", 2), ("S", 2), ("T", 2)][..]),
        ("R[2,2] S[2,1]", "R(x,y), S(y,z)", &[("R", 2), ("S", 2)][..]),
    ];
    for (schema_text, query_text, rels) in corpus {
        let schema = Arc::new(parse_schema(schema_text).unwrap());
        let q = parse_query(&schema, query_text).unwrap();
        let f = kw_rewrite(&q).unwrap();
        for _ in 0..80 {
            let db = random_instance(&schema, rels, &mut rng, 8);
            let by_formula = cqa::fo::eval::eval_closed(&db, &f);
            let by_enumeration = cqa_repair::pk_certain(&db, &q);
            assert_eq!(
                by_formula, by_enumeration,
                "query {query_text} instance {db}\nformula {f}"
            );
        }
    }
}
