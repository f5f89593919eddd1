//! Integration tests for the user-facing features layered on the core
//! library: the certain-answers API, batched solving, the engine's SQL
//! emission, formula statistics, and the repair-counting module's
//! relationship to certainty.

use cqa::core::certain_answers;
use cqa::fo::stats;
use cqa::prelude::*;
use cqa_repair::{exact_satisfaction_ratio, sampled_satisfaction_ratio};
use std::sync::Arc;

#[test]
fn certain_answers_agree_with_boolean_certainty_per_tuple() {
    // For every candidate tuple, membership in certain_answers must equal
    // the oracle's verdict on the grounded Boolean query.
    let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
    let q = parse_query(&s, "N(x,y), O(y), P(y)").unwrap();
    let fks = parse_fks(&s, "N[2] -> O").unwrap();
    let db = parse_instance(
        &s,
        "N(k1,a) N(k1,b) O(a) O(b) P(a) P(b)
         N(k2,c) O(c) P(c)
         N(k3,d) P(d)",
    )
    .unwrap();

    let answers = certain_answers(&q, &fks, &[Var::new("x")], &db).unwrap();
    let oracle = CertaintyOracle::new();
    for key in ["k1", "k2", "k3"] {
        let grounded = parse_query(&s, &format!("N('{key}',y), O(y), P(y)")).unwrap();
        let truth = oracle
            .is_certain(&db, &grounded, &fks)
            .as_bool()
            .expect("small instance");
        assert_eq!(
            answers.contains(&vec![Cst::new(key)]),
            truth,
            "tuple {key}"
        );
    }
    // k1: both block choices supported and P-covered → certain.
    // k2: single consistent chain → certain. k3: N(k3,d) dangling (no O(d)),
    // droppable → not certain.
    assert!(answers.contains(&vec![Cst::new("k1")]));
    assert!(answers.contains(&vec![Cst::new("k2")]));
    assert!(!answers.contains(&vec![Cst::new("k3")]));
}

#[test]
fn certain_answers_fast_path_matches_per_tuple_grounding_on_collisions() {
    // The fast path freezes the free variables as DISTINCT parameter
    // constants, classifies once, and reuses one compiled plan across all
    // tuples. Its load-bearing assumption is that the answer is invariant
    // when tuple values collide — with each other, or with constants
    // already in the query. Pin that against the legacy per-tuple
    // grounding path, tuple by tuple.
    let cases: &[(&str, &str, &str, &[&str])] = &[
        // Values of u collide with key values of R and with each other.
        ("R[2,1] S[1,1]", "R(x,u), S(x)", "R[1] -> S", &["u"]),
        // Two free variables that bind to the SAME value on some tuples.
        ("R[2,1] S[2,1]", "R(x,y), S(y,z)", "", &["x", "z"]),
        // A free variable whose values collide with the query constant 'm'.
        ("A[2,1] B[2,1]", "A(x,y), B(y,'m')", "A[2] -> B", &["x"]),
    ];
    let dbs = [
        "R(a,k) R(a,a) R(k,k) S(a) S(k)",
        "R(a,b) S(b,a) R(b,b) S(b,b) R(a,a)",
        "A(m,b) A(m,c) B(b,m) B(c,m) A(n,b)",
        "A(a,m) B(m,m)",
        "",
    ];
    for (schema_text, query_text, fks_text, free_names) in cases {
        let s = Arc::new(parse_schema(schema_text).unwrap());
        let q = parse_query(&s, query_text).unwrap();
        let fks = parse_fks(&s, fks_text).unwrap();
        let free: Vec<Var> = free_names.iter().map(|n| Var::new(n)).collect();
        for db_text in dbs {
            let Ok(db) = parse_instance(&s, db_text) else {
                continue; // instance doesn't fit this schema
            };
            let answers = certain_answers(&q, &fks, &free, &db).unwrap();
            // Candidate space, recomputed the same way the API does.
            let mut candidates: std::collections::BTreeSet<Vec<Cst>> = Default::default();
            for val in cqa_model::all_valuations(&db, &q) {
                candidates.insert(free.iter().map(|v| val[v]).collect());
            }
            for tuple in candidates {
                // Legacy path: ground, classify, answer — per tuple.
                let subst: std::collections::BTreeMap<Var, Term> = free
                    .iter()
                    .zip(tuple.iter())
                    .map(|(&v, &c)| (v, Term::Cst(c)))
                    .collect();
                let grounded = q.substitute(&subst);
                let problem = Problem::new(grounded, fks.clone()).unwrap();
                let expected = match problem.classify() {
                    Classification::Fo(plan) => plan.answer(&db),
                    Classification::NotFo(r) => {
                        panic!("{query_text} grounding {tuple:?} must stay FO: {r}")
                    }
                };
                assert_eq!(
                    answers.contains(&tuple),
                    expected,
                    "query {query_text}, tuple {tuple:?}, db {db_text}"
                );
            }
        }
    }
}

#[test]
fn batched_answers_amortize_one_compiled_plan() {
    // The solver compiles the plan once; solve_many evaluates a stream of
    // databases against it and must agree with the interpretive
    // materializing evaluator on every one.
    let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
    let q = parse_query(&s, "N('c',y), O(y), P(y)").unwrap();
    let fks = parse_fks(&s, "N[2] -> O").unwrap();
    let solver = Solver::new(Problem::new(q, fks).unwrap()).unwrap();
    let Route::FoPlan(route) = solver.route() else {
        panic!("the §8 problem is FO, routed {}", solver.route());
    };
    let compiled = route.compiled().expect("the §8 plan must compile");

    let dbs: Vec<Instance> = [
        "N(c,a) N(c,b) O(a) P(a) P(b)",
        "N(c,a) N(c,b) O(a) P(b)",
        "N(c,a) O(a) P(a)",
        "O(a) P(a)",
        "",
    ]
    .iter()
    .map(|text| parse_instance(&s, text).unwrap())
    .collect();

    let batched: Vec<bool> = solver.solve_many(&dbs).map(|v| v.is_certain()).collect();
    assert_eq!(batched, vec![true, false, true, false, false]);
    for (db, &got) in dbs.iter().zip(&batched) {
        assert_eq!(got, route.plan().answer(db), "on {db}");
        assert_eq!(got, compiled.answer(db), "on {db}");
    }
}

#[test]
fn certain_answers_with_two_free_variables() {
    let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
    let q = parse_query(&s, "R(x,y), S(y,z)").unwrap();
    let fks = FkSet::empty(s.clone());
    // R(a,·) is ambiguous between b and b2 — only z via the unambiguous
    // R(c,d) chain is certain.
    let db = parse_instance(&s, "R(a,b) R(a,b2) S(b,1) S(b2,2) R(c,d) S(d,9)").unwrap();
    let answers = certain_answers(&q, &fks, &[Var::new("x"), Var::new("z")], &db).unwrap();
    assert!(answers.contains(&vec![Cst::new("c"), Cst::new("9")]));
    assert!(!answers.contains(&vec![Cst::new("a"), Cst::new("1")]));
    assert!(!answers.contains(&vec![Cst::new("a"), Cst::new("2")]));
}

#[test]
fn formula_stats_of_constructed_rewritings() {
    // Rewriting size grows with the query, quantifier depth tracks the atom
    // elimination order.
    let s = Arc::new(parse_schema("R[2,1] S[2,1] T[2,1]").unwrap());
    let q2 = parse_query(&s, "R(x,y), S(y,z)").unwrap();
    let q3 = parse_query(&s, "R(x,y), S(y,z), T(z,w)").unwrap();
    let f2 = kw_rewrite(&q2).unwrap();
    let f3 = kw_rewrite(&q3).unwrap();
    let s2 = stats(&f2);
    let s3 = stats(&f3);
    assert!(s3.nodes > s2.nodes);
    assert!(s3.quantifier_depth > s2.quantifier_depth);
    assert!(s2.atoms >= 2);
    assert!(s3.atoms >= 3);
}

#[test]
fn satisfaction_ratio_one_iff_pk_certain() {
    let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
    let q = parse_query(&s, "R(x,y), S(y,z)").unwrap();
    for (text, certain) in [
        ("R(a,b) R(a,c) S(b,1) S(c,2)", true),
        ("R(a,b) R(a,c) S(b,1)", false),
        ("R(a,b) S(b,1)", true),
    ] {
        let db = parse_instance(&s, text).unwrap();
        let ratio = exact_satisfaction_ratio(&db, &q);
        assert_eq!(ratio == 1.0, certain, "on {text} (ratio {ratio})");
        assert_eq!(cqa_repair::pk_certain(&db, &q), certain);
        // The sampler is consistent with the exact ratio.
        let est = sampled_satisfaction_ratio(&db, &q, 800, 5);
        assert!((est - ratio).abs() < 0.1, "estimate {est} vs exact {ratio}");
    }
}

#[test]
fn engine_sql_mentions_every_relation() {
    let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
    let q = parse_query(&s, "N('c',y), O(y), P(y)").unwrap();
    let fks = parse_fks(&s, "N[2] -> O").unwrap();
    let engine = CertainEngine::try_new(Problem::new(q, fks).unwrap()).unwrap();
    let (ddl, expr) = engine.sql().unwrap();
    for rel in ["N", "O", "P"] {
        assert!(ddl.contains(&format!("FROM {rel}")), "DDL misses {rel}");
        assert!(expr.contains(&format!("FROM {rel}")), "WHERE misses {rel}");
    }
}
