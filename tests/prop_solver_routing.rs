//! Differential routing harness for the unified [`Solver`]: on generated
//! families from **all three** complexity classes, `Solver::solve` must
//! agree with the per-backend ground truth —
//!
//! * FO-rewritable (§8's query): the [`CompiledPlan`] it routes to, and
//!   the interpretive [`RewritePlan`] differential oracle behind it;
//! * polynomial-time (Propositions 16 and 17 **under renamed relations**,
//!   so the shape matcher is on the hook): the dual-Horn / reachability
//!   solvers called directly, and the exhaustive ⊕-repair oracle where it
//!   is conclusive;
//! * hard (Example 13's q2, which is NL-hard and *not* a known poly
//!   shape): the materializing oracle under the same budget.
//!
//! Plus a regression pinning `solve_many`'s input-ordered laziness across
//! ragged shards (batch sizes that don't divide the thread width).

use cqa::core::compiled_plan::CompiledPlan;
use cqa::prelude::*;
use cqa::solvers::{prop16, prop17};
use proptest::prelude::*;
use std::sync::Arc;

/// Value pool shared by all generators: query constants occur often so
/// blocks fill up and middles match/mismatch.
const POOL: [&str; 6] = ["c", "hq", "a", "b", "d", "1"];

fn instance_for(
    schema: &Arc<Schema>,
    rels: &[(&str, usize)],
    picks: &[(usize, Vec<usize>)],
) -> Instance {
    let mut db = Instance::new(schema.clone());
    for (rel_pick, args) in picks {
        let (rel, arity) = rels[rel_pick % rels.len()];
        let args: Vec<&str> = (0..arity)
            .map(|i| POOL[args.get(i).copied().unwrap_or(0) % POOL.len()])
            .collect();
        db.insert_named(rel, &args).unwrap();
    }
    db
}

fn arb_picks() -> impl Strategy<Value = Vec<(usize, Vec<usize>)>> {
    proptest::collection::vec(
        (0..8usize, proptest::collection::vec(0..POOL.len(), 0..3)),
        0..12,
    )
}

fn solver_for(schema: &Arc<Schema>, q: &str, fks: &str, options: ExecOptions) -> Solver {
    let problem = Problem::new(
        parse_query(schema, q).unwrap(),
        parse_fks(schema, fks).unwrap(),
    )
    .unwrap();
    Solver::builder(problem).options(options).build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128,
        failure_persistence: Some(FileFailurePersistence::WithSource("proptest-regressions")),
        ..ProptestConfig::default()
    })]

    /// FO class: the solver's verdict ≡ the compiled plan it routed to ≡
    /// the interpretive differential oracle.
    #[test]
    fn fo_route_matches_compiled_and_materializing_plans(picks in arb_picks()) {
        let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
        let solver = solver_for(&s, "N('c',y), O(y), P(y)", "N[2] -> O", ExecOptions::default());
        prop_assert_eq!(solver.route().kind(), RouteKind::Fo);

        let problem = solver.problem();
        let plan = match problem.classify() {
            Classification::Fo(p) => *p,
            Classification::NotFo(r) => panic!("§8's query must be FO: {r}"),
        };
        let compiled = CompiledPlan::compile(&plan).unwrap();

        let db = instance_for(&s, &[("N", 2), ("O", 1), ("P", 1)], &picks);
        let verdict = solver.solve(&db);
        prop_assert_eq!(verdict.provenance.backend, BackendKind::CompiledPlan);
        prop_assert_eq!(
            verdict.as_bool(), Some(compiled.answer(&db)),
            "solver vs compiled plan on {}", db
        );
        prop_assert_eq!(
            verdict.as_bool(), Some(plan.answer(&db)),
            "solver vs materializing plan on {}", db
        );
    }

    /// Poly class, Proposition 16 shape under renamed relations: the
    /// solver must recognize the shape and agree with the dual-Horn and
    /// reachability deciders called directly, and with the exhaustive
    /// oracle where it is conclusive.
    #[test]
    fn prop16_route_matches_solvers_and_oracle(picks in arb_picks()) {
        let s = Arc::new(parse_schema("E[2,1] V[1,1]").unwrap());
        let solver = solver_for(&s, "E(x,x), V(x)", "E[2] -> V", ExecOptions::default());
        prop_assert_eq!(solver.route().kind(), RouteKind::PolyTime);

        let db = instance_for(&s, &[("E", 2), ("V", 1)], &picks);
        let verdict = solver.solve(&db);
        prop_assert_eq!(verdict.provenance.backend, BackendKind::Reachability);
        let e = RelName::new("E");
        let v = RelName::new("V");
        prop_assert_eq!(
            verdict.as_bool(), Some(prop16::certain_in(&db, e, v)),
            "solver vs dual-Horn decider on {}", db
        );
        prop_assert_eq!(
            verdict.as_bool(), Some(prop16::certain_via_reachability_in(&db, e, v)),
            "solver vs reachability decider on {}", db
        );
        let oracle = CertaintyOracle::new()
            .is_certain(&db, solver.problem().query(), solver.problem().fks());
        if let Some(truth) = oracle.as_bool() {
            prop_assert_eq!(verdict.as_bool(), Some(truth), "solver vs oracle on {}", db);
        }
    }

    /// Poly class, Proposition 17 shape under renamed relations and a
    /// non-'c' middle constant.
    #[test]
    fn prop17_route_matches_dual_horn_and_oracle(picks in arb_picks()) {
        let s = Arc::new(parse_schema("Emp[3,1] Dept[1,1]").unwrap());
        let solver = solver_for(&s, "Emp(x,'hq',y), Dept(y)", "Emp[3] -> Dept", ExecOptions::default());
        prop_assert_eq!(solver.route().kind(), RouteKind::PolyTime);

        let db = instance_for(&s, &[("Emp", 3), ("Dept", 1)], &picks);
        let verdict = solver.solve(&db);
        prop_assert_eq!(verdict.provenance.backend, BackendKind::DualHorn);
        prop_assert_eq!(
            verdict.as_bool(),
            Some(prop17::certain_in(
                &db,
                RelName::new("Emp"),
                RelName::new("Dept"),
                Cst::new("hq"),
            )),
            "solver vs dual-Horn decider on {}", db
        );
        let oracle = CertaintyOracle::new()
            .is_certain(&db, solver.problem().query(), solver.problem().fks());
        if let Some(truth) = oracle.as_bool() {
            prop_assert_eq!(verdict.as_bool(), Some(truth), "solver vs oracle on {}", db);
        }
    }

    /// Hard class (Example 13's q2): the budgeted fallback must agree with
    /// the materializing oracle under the same limits — including *which*
    /// instances are inconclusive.
    #[test]
    fn fallback_route_matches_materializing_oracle(picks in arb_picks()) {
        let s = Arc::new(parse_schema("N[3,1] O[2,1]").unwrap());
        let limits = SearchLimits::small();
        let solver = solver_for(
            &s,
            "N(x,'c',y), O(y,w)",
            "N[3] -> O",
            ExecOptions::default().with_fallback(limits),
        );
        prop_assert_eq!(solver.route().kind(), RouteKind::Fallback);

        let db = instance_for(&s, &[("N", 3), ("O", 2)], &picks);
        let verdict = solver.solve(&db);
        prop_assert_eq!(verdict.provenance.backend, BackendKind::Oracle);
        let oracle = CertaintyOracle::with_limits(limits)
            .is_certain(&db, solver.problem().query(), solver.problem().fks());
        prop_assert_eq!(
            verdict.as_bool(), oracle.as_bool(),
            "solver vs oracle (incl. inconclusiveness) on {}", db
        );
        if verdict.as_bool().is_none() {
            prop_assert!(verdict.provenance.detail.is_some(), "inconclusive carries a reason");
        }
    }

    /// `solve_many` ≡ per-instance `solve` in input order, across thread
    /// widths and ragged batch lengths. Batches start at the 16-instance
    /// sharding floor, so every width above 1 reaches the sharded path.
    #[test]
    fn solve_many_matches_solve_in_input_order(
        batches in proptest::collection::vec(arb_picks(), 16..24),
        threads in 1usize..9,
    ) {
        let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
        let options = ExecOptions::default().with_threads(threads);
        let solver = solver_for(&s, "N('c',y), O(y), P(y)", "N[2] -> O", options);
        let dbs: Vec<Instance> = batches
            .iter()
            .map(|p| instance_for(&s, &[("N", 2), ("O", 1), ("P", 1)], p))
            .collect();
        let expected: Vec<Option<bool>> = dbs.iter().map(|db| solver.solve(db).as_bool()).collect();
        let streamed: Vec<Option<bool>> = solver.solve_many(&dbs).map(|v| v.as_bool()).collect();
        prop_assert_eq!(streamed, expected);
    }
}

/// Regression for `solve_many` order determinism: a batch with a *known,
/// position-dependent* answer pattern, sized so chunks are ragged against
/// every tested width, must stream back in input order — and lazily (the
/// iterator never evaluates past the pulled prefix plus one chunk).
#[test]
fn solve_many_preserves_input_order_across_ragged_shards() {
    let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
    let problem = Problem::new(
        parse_query(&s, "N('c',y), O(y), P(y)").unwrap(),
        parse_fks(&s, "N[2] -> O").unwrap(),
    )
    .unwrap();

    // Instance i is a yes-instance iff i % 3 == 0; sizes vary so shard
    // workloads are deliberately skewed, and 41 is coprime to every
    // tested width (ragged final chunks all around).
    let mut dbs = Vec::new();
    let mut expected = Vec::new();
    for i in 0..41usize {
        let mut db = Instance::new(s.clone());
        for j in 0..=(i % 4) {
            db.insert_named("N", &["c", &format!("y{j}")]).unwrap();
            db.insert_named("O", &[&format!("y{j}")]).unwrap();
            if i % 3 == 0 || j > 0 {
                db.insert_named("P", &[&format!("y{j}")]).unwrap();
            }
        }
        expected.push(i % 3 == 0);
        dbs.push(db);
    }
    assert!(expected.iter().any(|&b| b) && expected.iter().any(|&b| !b));

    for threads in [2usize, 3, 8, 64] {
        let solver = Solver::builder(problem.clone())
            .options(ExecOptions::default().with_threads(threads))
            .build()
            .unwrap();
        for round in 0..4 {
            let got: Vec<bool> = solver.solve_many(&dbs).map(|v| v.is_certain()).collect();
            assert_eq!(
                got, expected,
                "threads={threads} round={round}: verdicts out of input order"
            );
            // The first chunk clears the sharding floor, so it shards (and
            // says so in its batch provenance) whenever the machine has a
            // second CPU; order is unaffected either way.
            let first = solver.solve_many(&dbs).next().unwrap();
            assert_eq!(
                first.provenance.batch > 1,
                rayon_lite::current_num_threads() > 1,
                "threads={threads}: batch {}",
                first.provenance.batch
            );
        }
    }

    // The default environment-driven options agree too.
    let solver = Solver::new(problem).unwrap();
    let got: Vec<bool> = solver.solve_many(&dbs).map(|v| v.is_certain()).collect();
    assert_eq!(got, expected);
}
