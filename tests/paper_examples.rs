//! End-to-end reproduction of every numbered example of the paper,
//! cross-validating the classifier, the rewriting pipeline, the polynomial
//! solvers and the exhaustive ⊕-repair oracle against each other.
//!
//! Experiment index (DESIGN.md §3): E1, E2, E3, E4, E5, E9, E10, E11, E14.

use cqa::core::flatten::flatten;
use cqa::prelude::*;
use cqa_repair::chase::chase_fresh;
use cqa_repair::{is_delta_repair, SearchLimits};
use std::sync::Arc;

fn problem(schema: &Arc<Schema>, q: &str, fks: &str) -> Problem {
    Problem::new(
        parse_query(schema, q).unwrap(),
        parse_fks(schema, fks).unwrap(),
    )
    .unwrap()
}

/// E1 — Figure 1 + §1: the consistent answer to q₀ is "no"; the oracle and
/// the constructed rewriting agree fact for fact.
#[test]
fn e1_figure1_bibliography() {
    let bib = cqa_gen::bibliography_scenario();
    let p = Problem::new(bib.query.clone(), bib.fks.clone()).unwrap();
    let plan = match p.classify() {
        Classification::Fo(plan) => plan,
        Classification::NotFo(r) => panic!("q₀ must be FO: {r}"),
    };
    assert!(!plan.answer(&bib.db), "the paper's consistent answer is no");

    let oracle = CertaintyOracle::new();
    assert_eq!(
        oracle.is_certain(&bib.db, &bib.query, &bib.fks).as_bool(),
        Some(false)
    );

    // The flattened single formula agrees too.
    let f = flatten(&plan).unwrap();
    assert!(!cqa::fo::eval::eval_closed(&bib.db, &f));

    // Repairing the inconsistency flips the answer.
    let mut clean = bib.db.clone();
    clean.remove(&parse_fact("AUTHORS(o1, 'Jeffrey', 'Ullman')").unwrap()).unwrap();
    clean.remove(&parse_fact("R(d1, o3)").unwrap()).unwrap();
    assert!(plan.answer(&clean));
    assert_eq!(
        oracle.is_certain(&clean, &bib.query, &bib.fks).as_bool(),
        Some(true)
    );
}

/// E2 — the §4 block-chain: yes-instance iff `□ = c`; without the anchor
/// `O(1)` the empty instance is a repair. Checked for several chain lengths
/// with the polynomial solver, and at small length with the oracle.
#[test]
fn e2_section4_block_chain() {
    use cqa_gen::{block_chain, BlockChainConfig};
    for n in [1usize, 2, 3, 6, 20] {
        for closing_is_c in [true, false] {
            for with_anchor in [true, false] {
                let bc = block_chain(BlockChainConfig {
                    n,
                    closing_is_c,
                    with_anchor,
                });
                let fast = cqa::solvers::prop17::certain(&bc.db, Cst::new("c"));
                assert_eq!(
                    fast, bc.expected_certain,
                    "n={n} closing_is_c={closing_is_c} with_anchor={with_anchor}"
                );
                if n <= 2 {
                    let oracle = CertaintyOracle::new();
                    assert_eq!(
                        oracle.is_certain(&bc.db, &bc.query, &bc.fks).as_bool(),
                        Some(bc.expected_certain),
                        "oracle at n={n}"
                    );
                }
            }
        }
    }
}

/// E3 — Examples 6 and 10: obedience facts and the (3a) interference of the
/// §4 query; Theorem 12 classifies it NL-hard.
#[test]
fn e3_examples_6_and_10() {
    let s = Arc::new(parse_schema("N[3,1] O[1,1]").unwrap());
    let p = problem(&s, "N(x,'c',y), O(y)", "N[3] -> O");
    match p.classify() {
        Classification::NotFo(r) => {
            assert!(r.nl_hard());
            assert!(!r.l_hard());
        }
        Classification::Fo(_) => panic!("must be NL-hard"),
    }
}

/// E4 — Example 11: interference via (3b), killed by fixing `x`.
#[test]
fn e4_example_11() {
    let s = Arc::new(parse_schema("Np[2,1] O[1,1] T[2,1] R[2,1]").unwrap());
    let interfering = problem(&s, "Np(x,y), O(y), T(x,y)", "Np[2] -> O");
    assert!(!interfering.classify().is_fo());

    let fixed = problem(&s, "Np(x,y), O(y), T(x,y), R('a',x)", "Np[2] -> O");
    assert!(fixed.classify().is_fo(), "R('a',x) fixes x and kills (3b)");
}

/// E5 — Example 13: the FO boundary moves in both directions when variables
/// become constants, and q1's rewriting differs from its PK-only rewriting
/// on the paper's witness instance.
#[test]
fn e5_example_13() {
    let s = Arc::new(parse_schema("N[3,1] O[2,1]").unwrap());
    let q1 = problem(&s, "N(x,u,y), O(y,w)", "N[3] -> O");
    let q2 = problem(&s, "N(x,'c',y), O(y,w)", "N[3] -> O");
    let q3 = problem(&s, "N(x,'c',y), O(y,'c')", "N[3] -> O");

    let plan1 = match q1.classify() {
        Classification::Fo(p) => p,
        _ => panic!("q1 is FO"),
    };
    assert!(!q2.classify().is_fo(), "q2 is NL-hard");
    let plan3 = match q3.classify() {
        Classification::Fo(p) => p,
        _ => panic!("q3 is FO"),
    };

    // Paper's witness: yes for CERTAINTY(q1, FK), no for CERTAINTY(q1).
    let witness = parse_instance(&s, "N(c,1,a) N(c,2,b) O(a,3)").unwrap();
    assert!(plan1.answer(&witness));
    let pk_only = RewritePlanOf(&s, "N(x,u,y), O(y,w)");
    assert!(!pk_only.answer(&witness));

    // Oracle confirms both.
    let oracle = CertaintyOracle::new();
    assert_eq!(
        oracle
            .is_certain(&witness, q1.query(), q1.fks())
            .as_bool(),
        Some(true)
    );
    let empty_fks = FkSet::empty(s.clone());
    assert_eq!(
        oracle
            .is_certain(&witness, q1.query(), &empty_fks)
            .as_bool(),
        Some(false)
    );

    // q3: CERTAINTY(q3, FK) has the same rewriting as CERTAINTY(q3); verify
    // extensional equality on a battery of instances.
    let pk_plan3 = RewritePlanOf(&s, "N(x,'c',y), O(y,'c')");
    for text in [
        "",
        "N(a,c,1) O(1,c)",
        "N(a,c,1) O(1,d)",
        "N(a,c,1) N(a,d,2) O(1,c) O(2,c)",
        "N(a,c,1) N(b,c,2) O(1,c) O(2,d)",
    ] {
        let db = parse_instance(&s, text).unwrap();
        assert_eq!(plan3.answer(&db), pk_plan3.answer(&db), "on {text}");
    }
}

#[allow(non_snake_case)]
fn RewritePlanOf(s: &Arc<Schema>, q: &str) -> cqa::core::RewritePlan {
    let p = Problem::pk_only(parse_query(s, q).unwrap());
    match p.classify() {
        Classification::Fo(plan) => *plan,
        Classification::NotFo(r) => panic!("{r}"),
    }
}

/// E9 — §8's worked rewriting, checked as a formula and on the asymmetry
/// instance (O referenced by a strong key, P not).
#[test]
fn e9_section8_rewriting() {
    let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
    let p = problem(&s, "N('c',y), O(y), P(y)", "N[2] -> O");
    let solver = Solver::new(p).unwrap();
    let Route::FoPlan(fo) = solver.route() else {
        panic!("§8's query is FO: {}", solver.route())
    };
    let f = flatten(fo.plan()).unwrap();
    assert!(f.is_closed());

    let yes = parse_instance(&s, "N(c,a) N(c,b) O(a) P(a) P(b)").unwrap();
    assert!(solver.solve(&yes).is_certain());
    let oracle = CertaintyOracle::new();
    assert_eq!(
        oracle
            .is_certain(&yes, solver.problem().query(), solver.problem().fks())
            .as_bool(),
        Some(true)
    );
    for missing in ["P(a)", "P(b)"] {
        let mut db = yes.clone();
        db.remove(&parse_fact(missing).unwrap()).unwrap();
        assert!(!solver.solve(&db).is_certain(), "without {missing}");
        assert_eq!(
            oracle
                .is_certain(&db, solver.problem().query(), solver.problem().fks())
                .as_bool(),
            Some(false),
            "oracle without {missing}"
        );
    }
}

/// E10 — Example 4: the three ⊕-repairs of `{R(a,b), S(b,c)}` under
/// `{R[2]→S, S[2]→T}`, including the counter-intuitive incomparability of
/// r2 and r3.
#[test]
fn e10_example_4_repairs() {
    let s = Arc::new(parse_schema("R[2,1] S[2,1] T[1,1]").unwrap());
    let fks = parse_fks(&s, "R[2] -> S, S[2] -> T").unwrap();
    let db = parse_instance(&s, "R(a,b) S(b,c)").unwrap();
    let limits = SearchLimits::default();

    let r1 = parse_instance(&s, "").unwrap();
    let r2 = parse_instance(&s, "R(a,b) S(b,1) T(1)").unwrap();
    let r3 = parse_instance(&s, "R(a,b) S(b,c) T(c)").unwrap();
    for (name, r) in [("r1", &r1), ("r2", &r2), ("r3", &r3)] {
        assert_eq!(
            is_delta_repair(&db, r, &fks, &limits),
            Some(true),
            "{name} must be a ⊕-repair"
        );
    }
    assert!(!cqa_repair::closer_eq(&db, &r2, &r3));
    assert!(!cqa_repair::closer_eq(&db, &r3, &r2));

    // db ⊕ r2 and db ⊕ r3 as the paper lists them.
    let d2 = db.symmetric_difference(&r2);
    assert_eq!(d2.len(), 3); // {S(b,c), S(b,1), T(1)}
    let d3 = db.symmetric_difference(&r3);
    assert_eq!(d3.len(), 1); // {T(c)}
}

/// E11 — Example 27 / Lemma 24: the chase witness `db_{A,P}` for the cyclic
/// dependency graph `{N[2]→N, N[2]→O}` satisfies all five items of the
/// lemma.
#[test]
fn e11_example_27_lemma_24() {
    let s = Arc::new(parse_schema("N[2,1] O[2,1]").unwrap());
    let q = parse_query(&s, "N(x,x), O(x,y)").unwrap();
    let fks = parse_fks(&s, "N[2] -> N, N[2] -> O").unwrap();

    // db as in Example 27; A = N(b,c), P = {(N,2)} (on a dependency cycle).
    let db = parse_instance(&s, "N(a,a) N(b,c) O(a,b)").unwrap();
    let a_fact = parse_fact("N(b, c)").unwrap();

    // The paper's db_{A,P} with the 2-cycle c → ⊥ → c.
    let db_ap = parse_instance(&s, "N(c,⊥) N(⊥,c) O(c,⊥) O(⊥,c)").unwrap();

    // (1) keyconst(db) ∩ adom(db_{A,P}) = ∅.
    let keyconsts = db.key_consts();
    assert!(db_ap.adom().iter().all(|c| !keyconsts.contains(c)));

    // (2) adom(db) ∩ adom(db_{A,P}) ⊆ C = {c}.
    let inter: Vec<_> = db
        .adom()
        .intersection(db_ap.adom())
        .copied()
        .collect();
    assert_eq!(inter, vec![Cst::new("c")]);

    // (3) db_{A,P} ⊨ PK ∪ FK.
    assert!(db_ap.is_consistent(&fks));

    // (4) A is not dangling in {A} ∪ db_{A,P} w.r.t. keys outgoing P.
    let mut with_a = db_ap.clone();
    with_a.insert(a_fact.clone()).unwrap();
    for fk in fks.iter() {
        assert!(!with_a.is_dangling(&a_fact, fk), "A dangles for {fk}");
    }

    // (5) every fact of {A} ∪ db_{A,P} is irrelevant for q in db ∪ db_{A,P}.
    let union = db.union(&db_ap);
    for fact in with_a.facts() {
        assert!(
            !cqa_model::eval::is_relevant(&union, &q, &fact),
            "{fact} must be irrelevant"
        );
    }
}

/// E14 — the "about the query" restriction: Proposition 19's pair is
/// rejected; the §1 discussion about q₁ (the AUTHORS atom may not be
/// dropped) is enforced.
#[test]
fn e14_aboutness_validation() {
    let s = Arc::new(parse_schema("E[2,1]").unwrap());
    let q = parse_query(&s, "E(x,y)").unwrap();
    let fks = parse_fks(&s, "E[2] -> E").unwrap();
    assert!(Problem::new(q, fks).is_err());

    let s2 = Arc::new(parse_schema("DOCS[3,1] R[2,2] AUTHORS[3,1]").unwrap());
    let short = parse_query(&s2, "DOCS(x, t, 2016), R(x, 'o1')").unwrap();
    let fks2 = parse_fks(&s2, "R[1] -> DOCS, R[2] -> AUTHORS").unwrap();
    assert!(Problem::new(short, fks2.clone()).is_err());
    let full =
        parse_query(&s2, "DOCS(x, t, 2016), R(x, 'o1'), AUTHORS('o1', u, z)").unwrap();
    assert!(Problem::new(full, fks2).is_ok());
}

/// Example 4's chase shape: chasing `{R(a,b), S(b,c)}` to consistency
/// regenerates exactly the superset-repair r3's missing fact.
#[test]
fn example_4_chase() {
    let s = Arc::new(parse_schema("R[2,1] S[2,1] T[1,1]").unwrap());
    let fks = parse_fks(&s, "R[2] -> S, S[2] -> T").unwrap();
    let db = parse_instance(&s, "R(a,b) S(b,c)").unwrap();
    let (chased, inserted) = chase_fresh(&db, &fks, 8).unwrap();
    assert_eq!(inserted.len(), 1);
    assert_eq!(inserted[0].rel, RelName::new("T"));
    assert!(chased.is_consistent(&fks));
}
