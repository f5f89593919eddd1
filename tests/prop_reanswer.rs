//! Differential harness for **delta-certainty**: on randomized mutation
//! traces, [`IncrementalSolver::reanswer`] must agree with a from-scratch
//! [`Solver::solve`] after every batch — across all three routes (the
//! compiled FO plan, the poly-time backends, the budgeted fallback), and
//! whatever mix of reuse rungs the session picks (unaffected, localized,
//! recomputed). Traces include remove-then-reinsert round trips, emptied
//! blocks, active-domain shrink and facts in a relation the problem never
//! reads.
//!
//! A second family runs the nested Lemma 45 shape `N('c',y), M(y,w), Q(w),
//! P(w), O(y)` that `delta_stream` measures: its traces toggle residual
//! facts, add fresh ones, empty the `N('c',·)` block and refill it, and
//! mix redundant ops into each batch, so the session's dependency-tracked
//! re-evaluation is checked against scratch on every kind of delta.

use cqa::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Small value pool: block collisions, re-removals and reinserts are
/// common.
const POOL: [&str; 4] = ["c", "a", "b", "1"];

/// One mutation: `(op, rel_pick, args...)` — `op == 0` inserts, else
/// removes. Relations and arities are resolved per route.
type Step = (usize, usize, usize, usize, usize);

/// A trace: the initial instance as insert-only steps, then batches of
/// mutations, each answered incrementally and differentially checked.
fn arb_trace() -> impl Strategy<Value = (Vec<Step>, Vec<Vec<Step>>)> {
    let step = (0..2usize, 0..8usize, 0..POOL.len(), 0..POOL.len(), 0..POOL.len());
    let seed = (Just(0usize), 0..8usize, 0..POOL.len(), 0..POOL.len(), 0..POOL.len());
    (
        proptest::collection::vec(seed, 0..10),
        proptest::collection::vec(proptest::collection::vec(step, 0..5), 0..6),
    )
}

fn fact_for(rels: &[(&str, usize)], &(_, rel_pick, a, b, c): &Step) -> Fact {
    let (rel, arity) = rels[rel_pick % rels.len()];
    let picks = [a, b, c];
    let args: Vec<&str> = (0..arity).map(|i| POOL[picks[i] % POOL.len()]).collect();
    Fact::from_names(rel, &args)
}

fn delta_for(rels: &[(&str, usize)], steps: &[Step]) -> Delta {
    let mut delta = Delta::new();
    for step in steps {
        let fact = fact_for(rels, step);
        if step.0 == 0 {
            delta.insert(fact);
        } else {
            delta.remove(fact);
        }
    }
    delta
}

/// Runs a whole trace through one solver: incremental verdicts must match
/// from-scratch verdicts (including *which* instances are inconclusive),
/// and a session that applies its own deltas must never lose its prior.
fn check_trace(
    schema: &Arc<Schema>,
    solver: &Solver,
    rels: &[(&str, usize)],
    seed: &[Step],
    batches: &[Vec<Step>],
) -> Result<(), TestCaseError> {
    let mut db = Instance::new(schema.clone());
    for step in seed {
        db.insert(fact_for(rels, step)).unwrap();
    }
    let mut session = solver.incremental();
    prop_assert_eq!(
        session.solve(&db).certainty,
        solver.solve(&db).certainty,
        "initial session solve differs from scratch on {}",
        db
    );
    for batch in batches {
        let delta = delta_for(rels, batch);
        let incremental = session.reanswer(&mut db, &delta).unwrap();
        let scratch = solver.solve(&db);
        prop_assert_eq!(
            incremental.certainty,
            scratch.certainty,
            "incremental ({:?}) diverged from scratch after {} on {}",
            incremental.provenance.delta,
            delta,
            db
        );
        // The session applied the delta itself, so its prior is always
        // valid: a "no prior verdict" recompute here would mean the epoch
        // protocol lost track of its own mutations.
        prop_assert!(
            incremental.provenance.delta
                != Some(DeltaOutcome::Recomputed("no prior verdict for this instance state")),
            "single-writer session must never see its own writes as stale"
        );
    }
    Ok(())
}

/// The nested Lemma 45 family: the shape `delta_stream` measures, plus a
/// relation `Z` nothing reads.
const NESTED_SCHEMA: &str = "N[2,1] M[2,1] Q[1,1] P[1,1] O[1,1] Z[1,1]";
const NESTED_QUERY: &str = "N('c',y), M(y,w), Q(w), P(w), O(y)";
const NESTED_FKS: &str = "N[2] -> O, M[2] -> Q";
const NESTED_RELS: [(&str, usize); 6] =
    [("N", 2), ("M", 2), ("Q", 1), ("P", 1), ("O", 1), ("Z", 1)];

fn nested_solver() -> (Arc<Schema>, Solver) {
    let s = Arc::new(parse_schema(NESTED_SCHEMA).unwrap());
    let problem = Problem::new(
        parse_query(&s, NESTED_QUERY).unwrap(),
        parse_fks(&s, NESTED_FKS).unwrap(),
    )
    .unwrap();
    let solver = Solver::new(problem).unwrap();
    (s, solver)
}

/// One op of a nested-family batch: `(kind, rel_pick, a, b)`. Kinds 0–1
/// insert / remove a pool fact (present or not), 2 inserts and removes
/// the same fact in one batch, 3 removes and reinserts it, 4 inserts a
/// fact with one fresh value, 5 empties the `N('c',·)` block, 6 links
/// every pool value into it, and 7–8 toggle one fact of a seed unit's
/// chain (unit `a`, chain position `rel_pick`).
type NestedStep = (usize, usize, usize, usize);

/// A nested-family seed instance: linked units `(y, w)` — each the whole
/// chain `N(c,y) O(y) M(y,w) Q(w) P(w)`, so seeds are often certain and
/// a single residual toggle can flip them — plus stray `(rel_pick, a, b)`
/// facts.
type NestedSeed = (Vec<(usize, usize)>, Vec<(usize, usize, usize)>);

fn arb_nested_trace() -> impl Strategy<Value = (NestedSeed, Vec<Vec<NestedStep>>)> {
    let unit = (0..POOL.len(), 0..POOL.len());
    let stray = (0..NESTED_RELS.len(), 0..POOL.len(), 0..POOL.len());
    let step = (
        0..9usize,
        0..NESTED_RELS.len(),
        0..POOL.len(),
        0..POOL.len(),
    );
    (
        (
            proptest::collection::vec(unit, 1..4),
            proptest::collection::vec(stray, 0..6),
        ),
        proptest::collection::vec(proptest::collection::vec(step, 1..5), 1..10),
    )
}

/// The chain `N(c,y) O(y) M(y,w) Q(w) P(w)` of a linked unit.
fn unit_chain(y: &str, w: &str) -> [Fact; 5] {
    [
        Fact::from_names("N", &["c", y]),
        Fact::from_names("O", &[y]),
        Fact::from_names("M", &[y, w]),
        Fact::from_names("Q", &[w]),
        Fact::from_names("P", &[w]),
    ]
}

fn nested_fact(rel_pick: usize, values: [&str; 2]) -> Fact {
    let (rel, arity) = NESTED_RELS[rel_pick % NESTED_RELS.len()];
    Fact::from_names(rel, &values[..arity])
}

/// The delta of one batch against the current `db`, whose seed units are
/// `units`; `fresh` numbers the fresh values.
fn nested_delta(
    db: &Instance,
    units: &[(usize, usize)],
    steps: &[NestedStep],
    fresh: &mut usize,
) -> Delta {
    let mut delta = Delta::new();
    for &(kind, rel, a, b) in steps {
        let fact = nested_fact(rel, [POOL[a], POOL[b]]);
        match kind {
            0 => {
                delta.insert(fact);
            }
            1 => {
                delta.remove(fact);
            }
            2 => {
                delta.insert(fact.clone()).remove(fact);
            }
            3 => {
                delta.remove(fact.clone()).insert(fact);
            }
            4 => {
                *fresh += 1;
                let name = format!("fresh{fresh}");
                // The fresh value goes last, so N facts join the 'c' block.
                let values = if NESTED_RELS[rel].1 == 2 {
                    [if rel == 0 { "c" } else { POOL[a] }, name.as_str()]
                } else {
                    [name.as_str(), name.as_str()]
                };
                delta.insert(nested_fact(rel, values));
            }
            5 => {
                for f in db.block(RelName::new("N"), &[Cst::new("c")]) {
                    delta.remove(f);
                }
            }
            6 => {
                for v in POOL {
                    delta.insert(Fact::from_names("N", &["c", v]));
                }
            }
            _ => {
                let (y, w) = units[a % units.len()];
                let fact = unit_chain(POOL[y], POOL[w])[rel % 5].clone();
                if db.contains(&fact) {
                    delta.remove(fact);
                } else {
                    delta.insert(fact);
                }
            }
        }
    }
    delta
}

/// `delta_stream`'s four kinds of delta on a small instance: noise-block
/// churn reuses the verdict, and `N('c',·)` link toggles, `P` toggles and
/// fresh `M`/`Q`/`O` facts all localize — none recomputes — while every
/// verdict matches a scratch solve.
#[test]
fn delta_stream_kinds_localize_on_the_nested_shape() {
    let (s, solver) = nested_solver();
    let mut db = parse_instance(
        &s,
        "N(c,y1) O(y1) M(y1,w1) Q(w1) P(w1) \
         N(c,y2) O(y2) M(y2,w2) Q(w2) P(w2) M(y2,v2) Q(v2) P(v2) \
         O(y3) M(y3,w3) Q(w3) \
         N(d,z1) N(d,z2) O(z1) O(z2)",
    )
    .unwrap();
    let mut session = solver.incremental();
    assert!(session.solve(&db).is_certain());
    let fact = |text: &str| parse_fact(text).unwrap();
    let steps = [
        // (fact, insert?, expected Localized {reused, evaluated}; None = Unaffected)
        ("N(d,z3)", true, None),
        ("N(c,y3)", true, Some((2, 1))), // link a unit that lacks P(w3)
        ("P(w3)", true, Some((2, 1))),   // repair it: only its row re-evaluates
        ("P(v2)", false, Some((2, 1))),  // break unit 2 through its second w
        ("P(v2)", true, Some((2, 1))),
        ("M(y1,x9)", true, Some((2, 1))), // a second w for unit 1
        ("M(y1,x9)", false, Some((2, 1))),
        ("Q(w1)", false, Some((2, 1))),
        ("Q(w1)", true, Some((2, 1))),
        ("N(c,y3)", false, Some((2, 0))), // unlink: no evaluation at all
        ("M(f1,f2)", true, Some((2, 0))),
        ("Q(f3)", true, Some((2, 0))),
        ("O(f4)", true, Some((2, 0))),
        ("O(y1)", false, Some((1, 1))), // unit 1 dangles now
        ("O(y1)", true, Some((1, 1))),
        ("N(d,z3)", false, None),
    ];
    for (text, insert, expected) in steps {
        let mut delta = Delta::new();
        if insert {
            delta.insert(fact(text));
        } else {
            delta.remove(fact(text));
        }
        let v = session.reanswer(&mut db, &delta).unwrap();
        let want = match expected {
            None => DeltaOutcome::Unaffected,
            Some((reused, evaluated)) => DeltaOutcome::Localized { reused, evaluated },
        };
        assert_eq!(v.provenance.delta, Some(want), "after {delta}");
        assert_eq!(v.certainty, solver.solve(&db).certainty, "after {delta}");
    }
}

/// One side of the block-size shape test: a session over `units` linked
/// units, a twin instance, and the toggle of unit 0's `N('c',·)` fact.
struct Toggle<'s> {
    db: Instance,
    twin: Instance,
    session: IncrementalSolver<'s>,
    deltas: [Delta; 2],
    /// Best batch times so far: `reanswer`, and the twin's `apply`.
    best: (u128, u128),
}

impl<'s> Toggle<'s> {
    const BATCH: usize = 100;

    fn new(schema: &Arc<Schema>, solver: &'s Solver, units: usize) -> Toggle<'s> {
        let mut db = Instance::new(schema.clone());
        for i in 0..units {
            for fact in unit_chain(&format!("y{i}"), &format!("w{i}")) {
                db.insert(fact).unwrap();
            }
        }
        let mut session = solver.incremental();
        assert!(session.solve(&db).is_certain());
        let toggled = Fact::from_names("N", &["c", "y0"]);
        let (mut unlink, mut link) = (Delta::new(), Delta::new());
        unlink.remove(toggled.clone());
        link.insert(toggled);
        Toggle {
            twin: db.clone(),
            db,
            session,
            deltas: [unlink, link],
            best: (u128::MAX, u128::MAX),
        }
    }

    /// Times one batch of toggles each way and keeps the best times.
    fn round(&mut self) {
        let start = std::time::Instant::now();
        for _ in 0..Self::BATCH {
            for d in &self.deltas {
                let v = self.session.reanswer(&mut self.db, d).unwrap();
                assert!(matches!(
                    v.provenance.delta,
                    Some(DeltaOutcome::Localized { .. })
                ));
            }
        }
        let reanswer = start.elapsed().as_nanos();
        let start = std::time::Instant::now();
        for _ in 0..Self::BATCH {
            for d in &self.deltas {
                self.twin.apply(d).unwrap();
            }
        }
        let apply = start.elapsed().as_nanos();
        self.best = (self.best.0.min(reanswer), self.best.1.min(apply));
    }

    /// What the session adds to applying the deltas, in the best rounds.
    fn session_ns(&self) -> u128 {
        self.best.0.saturating_sub(self.best.1).max(1)
    }
}

/// Re-answering a single-fact `N('c',·)` toggle costs the same at a
/// 16k-row block as at a 1k-row block: only the toggled row is evaluated
/// or dropped. `Instance::apply` itself removes a row from its block by
/// scanning the block's ids, so the test times what the session adds —
/// `reanswer` minus the same deltas applied to a twin instance. Rounds
/// alternate between the two sizes and each keeps its best times, so
/// host speed and load cancel out of the ratio.
#[test]
fn block_toggle_reanswer_cost_is_independent_of_block_size() {
    let (s, solver) = nested_solver();
    let mut small = Toggle::new(&s, &solver, 1_000);
    let mut large = Toggle::new(&s, &solver, 16_000);
    for _ in 0..40 {
        small.round();
        large.round();
    }
    let (small, large) = (small.session_ns(), large.session_ns());
    assert!(
        large <= 2 * small,
        "toggle at a 16k-row block: {large} ns; at a 1k-row block: {small} ns"
    );
}

/// Deterministic witness that the per-block rung is *strictly* stronger
/// than the rel-level condition it replaced: on §8's query the plan probes
/// only the `N('c')` block, so deltas confined to `N('d', ·)` — a relation
/// the rel-level condition counts as read — reuse the verdict outright,
/// with verdicts identical to from-scratch solves throughout.
#[test]
fn delta_on_unread_block_of_a_read_relation_is_unaffected() {
    let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
    let problem = Problem::new(
        parse_query(&s, "N('c',y), O(y), P(y)").unwrap(),
        parse_fks(&s, "N[2] -> O").unwrap(),
    )
    .unwrap();
    let solver = Solver::new(problem).unwrap();
    let mut db = parse_instance(&s, "N(c,a) N(c,b) O(a) P(a) P(b)").unwrap();
    let mut session = solver.incremental();
    assert!(session.solve(&db).is_certain());

    // The old rung could not have fired here: N is in `reads()`.
    assert!(session.reads().contains(&RelName::new("N")));
    assert!(!session
        .read_set()
        .may_read(RelName::new("N"), &[Cst::new("d")]));

    let mut insert = Delta::new();
    insert.insert(parse_fact("N(d,x)").unwrap());
    let v = session.reanswer(&mut db, &insert).unwrap();
    assert_eq!(v.provenance.delta, Some(DeltaOutcome::Unaffected));
    assert_eq!(v.as_bool(), solver.solve(&db).as_bool());

    let mut remove = Delta::new();
    remove.remove(parse_fact("N(d,x)").unwrap());
    let v = session.reanswer(&mut db, &remove).unwrap();
    assert_eq!(v.provenance.delta, Some(DeltaOutcome::Unaffected));
    assert_eq!(v.as_bool(), solver.solve(&db).as_bool());

    // Inside the probed block the rung must NOT fire — the delta
    // localizes and the verdict flips, exactly as a scratch solve says.
    let mut inside = Delta::new();
    inside.insert(parse_fact("N(c,e)").unwrap());
    let v = session.reanswer(&mut db, &inside).unwrap();
    assert!(matches!(
        v.provenance.delta,
        Some(DeltaOutcome::Localized { .. })
    ));
    assert_eq!(v.as_bool(), Some(false));
    assert_eq!(solver.solve(&db).as_bool(), Some(false));
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        failure_persistence: Some(FileFailurePersistence::WithSource("proptest-regressions")),
        ..ProptestConfig::default()
    })]

    /// FO route (§8's query, plus an unread relation `Z`): the localized
    /// per-row maintenance and both recompute paths all agree with
    /// from-scratch answers.
    #[test]
    fn fo_route_reanswer_matches_scratch(trace in arb_trace()) {
        let (seed, batches) = trace;
        let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1] Z[1,1]").unwrap());
        let problem = Problem::new(
            parse_query(&s, "N('c',y), O(y), P(y)").unwrap(),
            parse_fks(&s, "N[2] -> O").unwrap(),
        )
        .unwrap();
        let solver = Solver::new(problem).unwrap();
        prop_assert_eq!(solver.route().kind(), RouteKind::Fo);
        let rels = [("N", 2), ("O", 1), ("P", 1), ("Z", 1)];
        check_trace(&s, &solver, &rels, &seed, &batches)?;
    }

    /// The nested Lemma 45 shape: every batch — residual toggles, fresh
    /// facts, an emptied and refilled block, redundant and cancelling ops
    /// — localizes (or is unaffected) and agrees with a scratch solve.
    #[test]
    fn nested_route_reanswer_matches_scratch(trace in arb_nested_trace()) {
        let ((units, strays), batches) = trace;
        let (s, solver) = nested_solver();
        let mut db = Instance::new(s.clone());
        for &(y, w) in &units {
            for fact in unit_chain(POOL[y], POOL[w]) {
                db.insert(fact).unwrap();
            }
        }
        for &(rel, a, b) in &strays {
            db.insert(nested_fact(rel, [POOL[a], POOL[b]])).unwrap();
        }
        let mut session = solver.incremental();
        prop_assert_eq!(session.solve(&db).certainty, solver.solve(&db).certainty);
        let mut fresh = 0;
        for batch in &batches {
            let delta = nested_delta(&db, &units, batch, &mut fresh);
            let incremental = session.reanswer(&mut db, &delta).unwrap();
            let scratch = solver.solve(&db);
            prop_assert_eq!(
                incremental.certainty,
                scratch.certainty,
                "incremental ({:?}) diverged from scratch after {} on {}",
                incremental.provenance.delta,
                delta,
                db
            );
            prop_assert!(
                matches!(
                    incremental.provenance.delta,
                    Some(DeltaOutcome::Unaffected | DeltaOutcome::Localized { .. })
                ),
                "a localizable plan recomputed: {:?} after {}",
                incremental.provenance.delta,
                delta
            );
        }
    }

    /// Poly-time route (Proposition 16 shape): no localizable plan, so
    /// every read-touching delta recomputes — and still agrees.
    #[test]
    fn poly_route_reanswer_matches_scratch(trace in arb_trace()) {
        let (seed, batches) = trace;
        let s = Arc::new(parse_schema("E[2,1] V[1,1] Z[1,1]").unwrap());
        let problem = Problem::new(
            parse_query(&s, "E(x,x), V(x)").unwrap(),
            parse_fks(&s, "E[2] -> V").unwrap(),
        )
        .unwrap();
        let solver = Solver::new(problem).unwrap();
        prop_assert_eq!(solver.route().kind(), RouteKind::PolyTime);
        let rels = [("E", 2), ("V", 1), ("Z", 1)];
        check_trace(&s, &solver, &rels, &seed, &batches)?;
    }

    /// Fallback route (Example 13's q2 under a small budget): verdicts —
    /// including inconclusive ones — match from-scratch, and inconclusive
    /// priors are never reused.
    #[test]
    fn fallback_route_reanswer_matches_scratch(trace in arb_trace()) {
        let (seed, batches) = trace;
        let s = Arc::new(parse_schema("N[3,1] O[2,1] Z[1,1]").unwrap());
        let problem = Problem::new(
            parse_query(&s, "N(x,'c',y), O(y,w)").unwrap(),
            parse_fks(&s, "N[3] -> O").unwrap(),
        )
        .unwrap();
        let solver = Solver::builder(problem)
            .options(ExecOptions::default().with_fallback(SearchLimits::small()))
            .build()
            .unwrap();
        prop_assert_eq!(solver.route().kind(), RouteKind::Fallback);
        let rels = [("N", 3), ("O", 2), ("Z", 1)];
        check_trace(&s, &solver, &rels, &seed, &batches)?;
    }

    /// The block-precise Unaffected rung (PR 7) *dominates* the old
    /// rel-level condition: whenever a batch's touched relations are
    /// disjoint from `reads()` and the prior verdict is definite, the
    /// session must still answer `Unaffected` — the inferred read-set is
    /// never coarser than the relation set it refines.
    #[test]
    fn unaffected_dominates_rel_level_condition(trace in arb_trace()) {
        let (seed, batches) = trace;
        let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1] Z[1,1]").unwrap());
        let problem = Problem::new(
            parse_query(&s, "N('c',y), O(y), P(y)").unwrap(),
            parse_fks(&s, "N[2] -> O").unwrap(),
        )
        .unwrap();
        let solver = Solver::new(problem).unwrap();
        let rels = [("N", 2), ("O", 1), ("P", 1), ("Z", 1)];

        let mut db = Instance::new(s.clone());
        for step in &seed {
            db.insert(fact_for(&rels, step)).unwrap();
        }
        let mut session = solver.incremental();
        session.solve(&db);
        for batch in &batches {
            let delta = delta_for(&rels, batch);
            let prior_definite = session
                .last_verdict()
                .is_some_and(|v| v.as_bool().is_some());
            let rel_level_unaffected = delta
                .rels()
                .iter()
                .all(|r| !session.reads().contains(r));
            let v = session.reanswer(&mut db, &delta).unwrap();
            if rel_level_unaffected && prior_definite {
                prop_assert_eq!(
                    v.provenance.delta,
                    Some(DeltaOutcome::Unaffected),
                    "the per-block rung regressed below the rel-level condition on {}",
                    delta
                );
            }
            prop_assert_eq!(v.certainty, solver.solve(&db).certainty);
        }
    }

    /// Out-of-band writes between re-answers: the epoch protocol detects
    /// the stale prior and recomputes — never serving the memo.
    #[test]
    fn out_of_band_mutations_are_detected(trace in arb_trace()) {
        let (seed, batches) = trace;
        let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1] Z[1,1]").unwrap());
        let problem = Problem::new(
            parse_query(&s, "N('c',y), O(y), P(y)").unwrap(),
            parse_fks(&s, "N[2] -> O").unwrap(),
        )
        .unwrap();
        let solver = Solver::new(problem).unwrap();
        let rels = [("N", 2), ("O", 1), ("P", 1), ("Z", 1)];

        let mut db = Instance::new(s.clone());
        for step in &seed {
            db.insert(fact_for(&rels, step)).unwrap();
        }
        let mut session = solver.incremental();
        session.solve(&db);
        for (i, batch) in batches.iter().enumerate() {
            // Odd rounds mutate behind the session's back first.
            let went_behind = i % 2 == 1 && db.insert_named("N", &["c", "oob"]).unwrap();
            let delta = delta_for(&rels, batch);
            let incremental = session.reanswer(&mut db, &delta).unwrap();
            let scratch = solver.solve(&db);
            prop_assert_eq!(incremental.certainty, scratch.certainty);
            if went_behind {
                prop_assert_eq!(
                    incremental.provenance.delta,
                    Some(DeltaOutcome::Recomputed("no prior verdict for this instance state")),
                    "out-of-band write must be detected"
                );
                // Re-remove so later rounds can go behind the back again.
                db.remove(&Fact::from_names("N", &["c", "oob"])).unwrap();
            }
        }
    }
}
