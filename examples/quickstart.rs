//! Quickstart: the paper's running example (Figure 1), answered through
//! the unified [`Solver`] — one entry point that accepts any
//! `CERTAINTY(q, FK)` problem, classifies it once, and routes it to the
//! fastest sound backend.
//!
//! An inconsistent bibliography database — one primary-key violation (two
//! first names for ORCiD o1) and one foreign-key violation (a dangling
//! authorship R(d1, o3)) — and the §1 query:
//!
//! > Does some paper of 2016 have an author with first name Jeff?
//!
//! The consistent answer is **no**: there is a repair in which it fails.
//! The second half shows cross-class routing: the same `solve` call site
//! serves an FO-rewritable problem, a P-complete one (dual-Horn backend)
//! and a hard one (budgeted oracle, explicit opt-in).
//!
//! Run with: `cargo run --example quickstart`

use cqa::prelude::*;
use cqa_gen::bibliography_scenario;
use std::sync::Arc;

fn main() {
    let bib = bibliography_scenario();
    println!("Figure 1 database ({} facts):", bib.db.len());
    for fact in bib.db.facts_by_name() {
        println!("  {fact}");
    }
    println!();
    println!("primary-key violations : {:?}", bib.db.pk_violations());
    println!("dangling facts         : {:?}", bib.db.dangling_facts(&bib.fks));
    println!();

    let problem = Problem::new(bib.query.clone(), bib.fks.clone()).expect("FK₀ is about q₀");
    println!("problem: {problem}");

    // One builder call: Theorem 12 classification, backend selection and
    // plan compilation all happen here, exactly once.
    let solver = Solver::new(problem).expect("q₀ is FO-rewritable");
    println!("route  : {}", solver.route());
    assert_eq!(solver.route().kind(), RouteKind::Fo);
    println!();

    let verdict = solver.solve(&bib.db);
    println!("consistent answer on the Figure 1 database: {}", yn(&verdict));
    assert_eq!(verdict.as_bool(), Some(false), "the paper says no");
    assert_eq!(verdict.provenance.backend, BackendKind::CompiledPlan);

    // Cross-check against the exhaustive ⊕-repair oracle.
    let oracle = CertaintyOracle::new();
    match oracle.is_certain(&bib.db, solver.problem().query(), solver.problem().fks()) {
        OracleOutcome::NotCertain(witness) => {
            println!("oracle agrees; a falsifying ⊕-repair:");
            for fact in witness.facts_by_name() {
                println!("  {fact}");
            }
        }
        other => panic!("oracle disagrees: {other}"),
    }

    // Repair the data: give o1 the first name Jeff everywhere and resolve
    // the dangling fact; the answer flips to yes.
    let mut clean = bib.db.clone();
    clean.remove(&parse_fact("AUTHORS(o1, 'Jeffrey', 'Ullman')").unwrap()).unwrap();
    clean.remove(&parse_fact("R(d1, o3)").unwrap()).unwrap();
    println!();
    println!(
        "after cleaning (drop the Jeffrey tuple and the dangling authorship): {}",
        yn(&solver.solve(&clean))
    );
    assert!(solver.solve(&clean).is_certain());

    cross_class_routing();
}

/// The same `Solver::solve` call site serving all three complexity
/// classes — no per-class plumbing at the caller.
fn cross_class_routing() {
    println!();
    println!("━━ cross-class routing ━━");

    // P-complete (Proposition 17's shape, relations renamed): routed to
    // the dual-Horn backend, no FO rewriting exists.
    let s = Arc::new(parse_schema("Emp[3,1] Dept[1,1]").unwrap());
    let q = parse_query(&s, "Emp(x,'hq',y), Dept(y)").unwrap();
    let fks = parse_fks(&s, "Emp[3] -> Dept").unwrap();
    let solver = Solver::new(Problem::new(q, fks).unwrap()).unwrap();
    println!("P-complete problem  → {}", solver.route());
    let db = parse_instance(&s, "Emp(e1,hq,d1) Dept(d1)").unwrap();
    let verdict = solver.solve(&db);
    println!("  {} on {db}", verdict);
    assert_eq!(verdict.provenance.backend, BackendKind::DualHorn);
    assert!(verdict.is_certain());

    // Hard class (Example 13's q2 — not FO, not a known poly shape):
    // requires an explicit fallback opt-in, and the budget is honest.
    let s = Arc::new(parse_schema("N[3,1] O[2,1]").unwrap());
    let q = parse_query(&s, "N(x,'c',y), O(y,w)").unwrap();
    let fks = parse_fks(&s, "N[3] -> O").unwrap();
    let problem = Problem::new(q, fks).unwrap();
    match Solver::new(problem.clone()) {
        Err(SolverError::HardWithoutFallback(reason)) => {
            println!("hard problem        → rejected by default ({reason})");
        }
        other => panic!("expected a hard-class rejection, got {other:?}"),
    }
    let solver = Solver::builder(problem)
        .options(ExecOptions::default().with_fallback(SearchLimits::budgeted(10_000)))
        .build()
        .unwrap();
    println!("  with --fallback   → {}", solver.route());
    let db = parse_instance(&s, "N(k,c,a) O(a,3)").unwrap();
    let verdict = solver.solve(&db);
    println!("  {} on {db}", verdict);
    assert_eq!(verdict.provenance.backend, BackendKind::Oracle);
    assert_eq!(verdict.as_bool(), Some(true));
}

fn yn(v: &Verdict) -> String {
    match v.as_bool() {
        Some(true) => format!("yes (holds in every repair; via {})", v.provenance.backend),
        Some(false) => format!("no (some repair falsifies it; via {})", v.provenance.backend),
        None => format!("inconclusive ({v})"),
    }
}
