//! The compiled-vs-interpreted evaluation benchmark behind
//! `BENCH_eval.json`.
//!
//! Workload: the guarded path of `benches/fo_vs_naive` — the flattened
//! consistent rewriting of Example 13's `q1 = {N(x,u,y), O(y,w)}` with
//! `FK = {N[3]→O}`, evaluated over instances with `n` two-fact blocks. The
//! same closed formula is evaluated by
//!
//! * the interpretive reference evaluator ([`cqa_fo::interp`], the pre-PR
//!   hot path: per-candidate valuation clones and re-materialized residual
//!   conjunctions), and
//! * the compiled evaluator ([`cqa_fo::CompiledFormula`], compiled once
//!   outside the timing loop: slot bindings, pre-split guards, hash-indexed
//!   candidates),
//!
//! both with the guarded strategy.
//!
//! A second workload measures the **reduction pipeline** end to end: the
//! depth-2 nested Lemma 45 problem
//! `q = {N('c',y), M(y,w), Q(w), P(w), O(y)}`,
//! `FK = {N[2]→O, M[2]→Q}`, whose interpretive evaluator
//! ([`cqa_core::RewritePlan::answer`]) renames and materializes a database
//! per block fact per nesting level, against the view-backed
//! [`cqa_core::CompiledPlan`] (compiled once outside the loop, zero
//! intermediate instances).
//!
//! A third workload measures the **unified-solver routing overhead**:
//! [`cqa_core::Solver::solve`] with sequential options vs calling the
//! compiled plan directly on the same problem — both sides execute the
//! identical single-threaded plan, so the delta is pure facade cost
//! (route dispatch, verdict and provenance construction); the acceptance
//! target is < 5% at the largest size.
//!
//! A fourth workload measures **delta-certainty**: the same nested problem
//! under a single-fact delta on the outer block (remove one `N('c',∗)`
//! fact, reinsert it, alternating), answered by
//! [`cqa_core::IncrementalSolver::reanswer`] — which re-reads cached
//! residual verdicts for the `n−1` untouched block facts — vs applying the
//! same delta and re-running a full [`cqa_core::Solver::solve`]. Both
//! sides pay the identical mutation, so the ratio is pure re-answering
//! work; the acceptance target is ≥ 10× at the largest size.
//!
//! A fifth workload measures the **Yannakakis semijoin evaluator** on the
//! acyclic residual join `{A(x,u), B(y,u)}` — two relations joined on
//! their *non-key* second position, with disjoint value sets so the query
//! is unsatisfiable. The backtracking search degenerates to an O(n²)
//! scan×scan nested loop; the semijoin pass filters each relation once
//! over the columnar projection. Both strategies are pinned explicitly
//! through [`cqa_model::CompiledQuery::satisfies_via`], so the row is
//! independent of `CQA_EVALUATOR`; the acceptance target is ≥ 3× at the
//! largest size.
//!
//! A sixth workload measures **serve-mode plan-cache amortization**: the
//! same nested Lemma 45 problem answered (a) the per-request way — parse
//! the schema/query/fks text, classify, compile, parse the database,
//! solve, all inside the loop — and (b) through
//! [`cqa_serve::Service::handle_line`] with a warm cache, where the
//! request still pays JSON decoding and database parsing but shares the
//! one cached compiled [`Solver`]. The ratio is the serve mode's reason to
//! exist; the acceptance target is ≥ 10× for repeated cached requests.
//!
//! A seventh workload measures the **emitted-artifact execution cost**:
//! the nested Lemma 45 problem lowered by `cqa-emit` to a self-contained
//! stratified Datalog program (emit + parse outside the loop), executed
//! by the vendored semi-naïve evaluator, vs the same verdict from the
//! compiled plan. The artifact path re-derives the rewriting's subformula
//! predicates over the whole active domain per call, so a large slowdown
//! is expected and *documented* — the evaluator is a differential oracle
//! and a portability story, not a production backend. The row exists so
//! a regression (or an accidental dependence of exec cost on route
//! internals) shows up in the trajectory.
//!
//! `paper-eval` runs all seven after the E1–E16 table and snapshots the
//! result to `BENCH_eval.json`, which CI uploads as an artifact — the
//! perf-trajectory baseline for the evaluation core.

use cqa_core::classify::Classification;
use cqa_core::flatten::flatten;
use cqa_core::{CompiledPlan, ExecOptions, Problem, RewritePlan, Solver};
use cqa_fo::{interp, CompiledFormula, Formula, Strategy};
use cqa_model::parser::{parse_fks, parse_query, parse_schema};
use cqa_model::{CompiledQuery, Instance, JoinStrategy, Schema};
use serde::Serialize;
use std::sync::Arc;
use std::time::Duration;

/// One measured size of the evaluation benchmark.
#[derive(Clone, Debug, Serialize)]
pub struct EvalBenchRow {
    /// Number of two-fact `N`-blocks in the instance.
    pub n_blocks: usize,
    /// Total facts in the instance.
    pub facts: usize,
    /// Best per-evaluation time of the interpretive guarded evaluator.
    pub interpreted_guarded_ns: u128,
    /// Best per-evaluation time of the compiled guarded evaluator
    /// (compiled once outside the loop).
    pub compiled_guarded_ns: u128,
    /// `interpreted / compiled`.
    pub speedup: f64,
}

/// One measured size of the plan-level benchmark.
#[derive(Clone, Debug, Serialize)]
pub struct PlanBenchRow {
    /// Number of facts in the outer Lemma 45 block.
    pub n_blocks: usize,
    /// Total facts in the instance.
    pub facts: usize,
    /// Best per-evaluation time of the materializing `RewritePlan::answer`.
    pub materialized_ns: u128,
    /// Best per-evaluation time of the view-backed `CompiledPlan::answer`
    /// (compiled once outside the loop).
    pub compiled_ns: u128,
    /// `materialized / compiled`.
    pub speedup: f64,
}

/// One measured size of the solver-routing-overhead benchmark.
#[derive(Clone, Debug, Serialize)]
pub struct SolverRoutingRow {
    /// Number of facts in the outer Lemma 45 block.
    pub n_blocks: usize,
    /// Total facts in the instance.
    pub facts: usize,
    /// Best per-evaluation time of `CompiledPlan::answer` called directly.
    pub direct_ns: u128,
    /// Best per-evaluation time of `Solver::solve` (sequential options) on
    /// the same problem — the same compiled plan behind the unified
    /// facade, plus verdict/provenance construction.
    pub solver_ns: u128,
    /// `(solver − direct) / direct`, in percent. Negative values are
    /// measurement noise.
    pub overhead_pct: f64,
}

/// One measured size of the delta-reanswer benchmark.
#[derive(Clone, Debug, Serialize)]
pub struct DeltaBenchRow {
    /// Number of facts in the outer Lemma 45 block.
    pub n_blocks: usize,
    /// Total facts in the instance.
    pub facts: usize,
    /// Best per-mutation time of the from-scratch baseline: apply the
    /// single-fact delta, then a full `Solver::solve`.
    pub full_ns: u128,
    /// Best per-mutation time of the incremental path: the same delta
    /// through `IncrementalSolver::reanswer` (residual-cache reuse for the
    /// untouched block facts).
    pub incremental_ns: u128,
    /// `full / incremental`.
    pub speedup: f64,
}

/// One measured size of the acyclic-join (semijoin vs backtracking)
/// benchmark.
#[derive(Clone, Debug, Serialize)]
pub struct AcyclicJoinRow {
    /// Rows per joined relation.
    pub n_rows: usize,
    /// Total facts in the instance.
    pub facts: usize,
    /// Best per-evaluation time of the backtracking join
    /// (`JoinStrategy::Backtracking`).
    pub backtracking_ns: u128,
    /// Best per-evaluation time of the Yannakakis semijoin evaluator
    /// (`JoinStrategy::Semijoin`).
    pub semijoin_ns: u128,
    /// `backtracking / semijoin`.
    pub speedup: f64,
}

/// One measured size of the emitted-artifact execution benchmark.
#[derive(Clone, Debug, Serialize)]
pub struct EmitExecRow {
    /// Number of facts in the outer Lemma 45 block.
    pub n_blocks: usize,
    /// Total facts in the instance (also embedded in the artifact).
    pub facts: usize,
    /// Best per-evaluation time of the compiled plan on the same instance.
    pub compiled_ns: u128,
    /// Best per-evaluation time of the vendored semi-naïve evaluator on
    /// the emitted Datalog artifact (emit + parse outside the loop).
    pub emit_exec_ns: u128,
    /// `emit_exec / compiled` — how much the self-contained artifact
    /// pays over the native backend (expected to be large; see module doc).
    pub slowdown: f64,
}

/// One measured size of the serve-mode cache-amortization benchmark.
#[derive(Clone, Debug, Serialize)]
pub struct ServeBenchRow {
    /// Number of facts in the outer Lemma 45 block.
    pub n_blocks: usize,
    /// Total facts in the instance.
    pub facts: usize,
    /// Best per-request time of the uncached path: parse schema/query/fks,
    /// classify + compile (`Solver::build`), parse the database, solve.
    pub per_request_build_ns: u128,
    /// Best per-request time through `Service::handle_line` with a warm
    /// plan cache (JSON decode + db parse + solve on the shared solver).
    pub cached_serve_ns: u128,
    /// `per_request_build / cached_serve` — the amortization factor.
    pub amortization: f64,
}

/// The full `BENCH_eval.json` payload.
#[derive(Clone, Debug, Serialize)]
pub struct EvalBench {
    /// What was measured (formula-evaluation workload).
    pub workload: String,
    /// Per-size measurements of the formula evaluators.
    pub rows: Vec<EvalBenchRow>,
    /// The formula-level speedup at the largest measured size.
    pub largest_size_speedup: f64,
    /// What was measured (plan-level workload).
    pub plan_workload: String,
    /// Per-size measurements of the reduction-pipeline executors.
    pub plan_rows: Vec<PlanBenchRow>,
    /// The plan-level speedup at the largest measured size (the
    /// compiled-plan acceptance metric).
    pub plan_largest_size_speedup: f64,
    /// CPUs available to this process when the snapshot was taken, so
    /// timings from differently sized runners stay interpretable.
    pub threads_available: usize,
    /// What was measured (solver-routing-overhead workload).
    pub solver_routing_workload: String,
    /// Per-size measurements of direct plan calls vs the unified solver
    /// facade.
    pub solver_routing_rows: Vec<SolverRoutingRow>,
    /// Facade dispatch overhead (percent) at the largest measured size —
    /// the unified-solver acceptance metric, target < 5%.
    pub solver_routing_overhead: f64,
    /// What was measured (delta-reanswer workload).
    pub delta_workload: String,
    /// Per-size measurements of incremental re-answering vs apply+resolve.
    pub delta_rows: Vec<DeltaBenchRow>,
    /// Incremental speedup at the largest measured size (the
    /// delta-certainty acceptance metric, target ≥ 10×).
    pub delta_reanswer_vs_full: f64,
    /// What was measured (acyclic-join workload).
    pub acyclic_join_workload: String,
    /// Per-size measurements of the semijoin evaluator vs backtracking
    /// search on the acyclic non-key join.
    pub acyclic_join_rows: Vec<AcyclicJoinRow>,
    /// Semijoin speedup at the largest measured size (the Yannakakis
    /// acceptance metric, target ≥ 3×).
    pub acyclic_join_largest_speedup: f64,
    /// What was measured (emitted-artifact execution workload).
    pub emit_exec_workload: String,
    /// Per-size measurements of the emitted Datalog artifact under the
    /// vendored evaluator vs the compiled plan.
    pub emit_exec_rows: Vec<EmitExecRow>,
    /// Artifact-evaluator slowdown at the largest measured size — a
    /// documented cost, tracked so regressions in the exec core show up.
    pub emit_exec_vs_compiled: f64,
    /// What was measured (serve-mode cache-amortization workload).
    pub serve_workload: String,
    /// Per-size measurements of per-request build vs the warm serve path.
    pub serve_rows: Vec<ServeBenchRow>,
    /// Amortization factor at the smallest measured size (the serve-mode
    /// acceptance metric, target ≥ 10×): build cost is constant in the
    /// database, so the many-small-requests regime is where the cache pays.
    pub serve_cache_amortization: f64,
}

impl EvalBench {
    /// Renders as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bench report serializes")
    }
}

fn chain_instance(s: &Arc<Schema>, n: usize) -> Instance {
    let mut db = Instance::new(s.clone());
    for i in 0..n {
        db.insert_named("N", &[&format!("k{i}"), "u", &format!("y{i}")])
            .unwrap();
        db.insert_named("N", &[&format!("k{i}"), "v", &format!("z{i}")])
            .unwrap();
        db.insert_named("O", &[&format!("y{i}"), "w"]).unwrap();
    }
    db
}

/// Best-of-batches wall-clock measurement of `routine`, targeting roughly
/// `budget` of total measurement time — the criterion shim's calibrated
/// loop, so these numbers are comparable with the `ablations` bench rows.
fn measure(budget: Duration, mut routine: impl FnMut() -> bool) -> Duration {
    criterion::measure_best(budget, || {
        std::hint::black_box(routine());
    })
}

/// The flattened rewriting of Example 13's q1.
fn q1_formula() -> (Arc<Schema>, Formula) {
    let s = Arc::new(parse_schema("N[3,1] O[2,1]").unwrap());
    let q = parse_query(&s, "N(x,u,y), O(y,w)").unwrap();
    let fks = parse_fks(&s, "N[3] -> O").unwrap();
    let plan = match Problem::new(q, fks).unwrap().classify() {
        Classification::Fo(p) => p,
        Classification::NotFo(r) => panic!("q1 must be in FO: {r}"),
    };
    (s, flatten(&plan).unwrap())
}

/// The nested-Lemma-45 plan workload: schema, query and keys (shared with
/// `benches/ablations.rs`).
pub const NESTED_L45_SCHEMA: &str = "N[2,1] M[2,1] Q[1,1] P[1,1] O[1,1]";
/// The depth-2 query: `N('c',y)` branches on its block, the residual
/// `M(y,w)` branches again, the tail is the KW rewriting of `P`.
pub const NESTED_L45_QUERY: &str = "N('c',y), M(y,w), Q(w), P(w), O(y)";
/// Its foreign keys.
pub const NESTED_L45_FKS: &str = "N[2] -> O, M[2] -> Q";

/// The nested-Lemma-45 problem value (shared by the plan and
/// solver-routing workloads).
pub fn nested_l45_problem() -> Problem {
    let s = Arc::new(parse_schema(NESTED_L45_SCHEMA).unwrap());
    let q = parse_query(&s, NESTED_L45_QUERY).unwrap();
    let fks = parse_fks(&s, NESTED_L45_FKS).unwrap();
    Problem::new(q, fks).expect("nested workload is a valid problem")
}

/// The nested-Lemma-45 plan pair (interpretive + compiled).
pub fn nested_l45_plan() -> (Arc<Schema>, RewritePlan, CompiledPlan) {
    let problem = nested_l45_problem();
    let s = problem.query().schema().clone();
    let plan = match problem.classify() {
        Classification::Fo(p) => *p,
        Classification::NotFo(r) => panic!("nested workload must be in FO: {r}"),
    };
    let compiled = CompiledPlan::compile(&plan).expect("nested workload compiles");
    (s, plan, compiled)
}

/// A yes-instance with `n` facts in the outer `N('c', ∗)` block, each
/// chained through its own `M`/`Q`/`P` witness (5n facts total) — every
/// block fact forces a full residual evaluation on both executors.
pub fn nested_l45_instance(s: &Arc<Schema>, n: usize) -> Instance {
    let mut db = Instance::new(s.clone());
    for i in 0..n {
        let y = format!("y{i}");
        let w = format!("w{i}");
        db.insert_named("N", &["c", &y]).unwrap();
        db.insert_named("O", &[&y]).unwrap();
        db.insert_named("M", &[&y, &w]).unwrap();
        db.insert_named("Q", &[&w]).unwrap();
        db.insert_named("P", &[&w]).unwrap();
    }
    db
}

/// The acyclic-join workload (shared with `benches/ablations.rs`): two
/// relations joined on their *non-key* second position.
pub const ACYCLIC_JOIN_SCHEMA: &str = "A[2,1] B[2,1]";
/// The non-key join query — GYO-acyclic, so [`CompiledQuery`] carries a
/// semijoin plan.
pub const ACYCLIC_JOIN_QUERY: &str = "A(x,u), B(y,u)";
/// Sizes measured for the acyclic-join workload (rows per relation).
pub const ACYCLIC_JOIN_SIZES: &[usize] = &[8, 64, 512];

/// Sizes measured for the emitted-artifact execution workload (outer
/// block facts; the instance has 5n facts, all embedded in the artifact).
pub const EMIT_EXEC_SIZES: &[usize] = &[4, 16, 64];

/// Sizes measured for the serve-mode amortization workload (outer block
/// facts; the instance has 5n facts). Deliberately small-heavy: the cache
/// amortizes the constant classify+compile cost, which dominates exactly
/// when instances are small.
pub const SERVE_SIZES: &[usize] = &[1, 8, 64];

/// An instance with `n` rows per relation whose `u`-value sets are
/// disjoint: the join is unsatisfiable, so backtracking search scans all
/// `n²` candidate pairs while the semijoin pass rejects after two linear
/// column filters.
pub fn acyclic_join_instance(s: &Arc<Schema>, n: usize) -> Instance {
    let mut db = Instance::new(s.clone());
    for i in 0..n {
        db.insert_named("A", &[&format!("a{i}"), &format!("u{i}")])
            .unwrap();
        db.insert_named("B", &[&format!("b{i}"), &format!("v{i}")])
            .unwrap();
    }
    db
}

/// Paired repeats of the solver-routing measurement per size; the reported
/// row is the median by overhead, damping scheduler noise in what is a
/// ratio of two near-identical timings.
const ROUTING_REPEATS: usize = 5;

/// Runs the benchmark at the given sizes (ascending): `sizes` for the
/// formula workload, `plan_sizes` for the plan workload. `budget` bounds
/// the measurement time per engine per size.
pub fn run_eval_bench(sizes: &[usize], plan_sizes: &[usize], budget: Duration) -> EvalBench {
    let (s, formula) = q1_formula();
    let compiled = CompiledFormula::compile(&formula, Strategy::Guarded);
    let mut rows = Vec::new();
    for &n in sizes {
        let db = chain_instance(&s, n);
        let expected = compiled.eval_closed(&db);
        assert_eq!(
            expected,
            interp::eval_closed(&db, &formula),
            "engines disagree at n={n}"
        );
        db.index(); // warm the index so both engines see a built cache
        let interp_t = measure(budget, || interp::eval_closed(&db, &formula));
        let compiled_t = measure(budget, || compiled.eval_closed(&db));
        rows.push(EvalBenchRow {
            n_blocks: n,
            facts: db.len(),
            interpreted_guarded_ns: interp_t.as_nanos(),
            compiled_guarded_ns: compiled_t.as_nanos(),
            speedup: interp_t.as_secs_f64() / compiled_t.as_secs_f64().max(f64::EPSILON),
        });
    }
    let largest_size_speedup = rows.last().map(|r| r.speedup).unwrap_or(0.0);

    let (ps, plan, cplan) = nested_l45_plan();
    let mut plan_rows = Vec::new();
    for &n in plan_sizes {
        let db = nested_l45_instance(&ps, n);
        assert_eq!(
            plan.answer(&db),
            cplan.answer(&db),
            "plan executors disagree at n={n}"
        );
        db.index();
        let mat_t = measure(budget, || plan.answer(&db));
        let comp_t = measure(budget, || cplan.answer(&db));
        plan_rows.push(PlanBenchRow {
            n_blocks: n,
            facts: db.len(),
            materialized_ns: mat_t.as_nanos(),
            compiled_ns: comp_t.as_nanos(),
            speedup: mat_t.as_secs_f64() / comp_t.as_secs_f64().max(f64::EPSILON),
        });
    }
    let plan_largest_size_speedup = plan_rows.last().map(|r| r.speedup).unwrap_or(0.0);

    // Unified-solver routing overhead: the same nested Lemma 45 problem
    // answered through `Solver::solve` (sequential options, so both sides
    // run the identical single-threaded compiled-plan execution) vs
    // calling the compiled plan directly. Measures pure facade cost:
    // route dispatch, verdict + provenance construction.
    // Each size takes the median of `ROUTING_REPEATS` paired runs.
    let solver = Solver::builder(nested_l45_problem())
        .options(ExecOptions::sequential())
        .build()
        .expect("nested workload is FO");
    let mut solver_routing_rows = Vec::new();
    for &n in plan_sizes {
        let db = nested_l45_instance(&ps, n);
        assert_eq!(
            solver.solve(&db).as_bool(),
            Some(cplan.answer(&db)),
            "solver facade and direct plan disagree at n={n}"
        );
        db.index();
        // The overhead is a ratio of two near-identical sub-microsecond
        // timings, so a single (direct, solver) pair is at the mercy of
        // scheduler noise: repeat the paired measurement and keep the
        // median repeat, which is what the acceptance metric reads.
        let mut repeats: Vec<(Duration, Duration, f64)> = (0..ROUTING_REPEATS)
            .map(|_| {
                let direct_t = measure(budget, || cplan.answer(&db));
                let solver_t = measure(budget, || solver.solve(&db).is_certain());
                let pct = (solver_t.as_secs_f64() / direct_t.as_secs_f64().max(f64::EPSILON)
                    - 1.0)
                    * 100.0;
                (direct_t, solver_t, pct)
            })
            .collect();
        repeats.sort_by(|a, b| a.2.total_cmp(&b.2));
        let (direct_t, solver_t, overhead_pct) = repeats[repeats.len() / 2];
        solver_routing_rows.push(SolverRoutingRow {
            n_blocks: n,
            facts: db.len(),
            direct_ns: direct_t.as_nanos(),
            solver_ns: solver_t.as_nanos(),
            overhead_pct,
        });
    }
    let solver_routing_overhead = solver_routing_rows
        .last()
        .map(|r| r.overhead_pct)
        .unwrap_or(0.0);

    // Delta-certainty: a single-fact delta on the outer N('c', ∗) block —
    // remove one chain's N-fact, then reinsert it, alternating — answered
    // incrementally (IncrementalSolver::reanswer, cached residuals for the
    // n−1 untouched block facts) vs from scratch (Instance::apply + full
    // Solver::solve). Both sides pay the same mutation; the delta is pure
    // re-answering work.
    let mut delta_rows = Vec::new();
    for &n in plan_sizes {
        let toggled = cqa_model::parser::parse_fact("N(c,y0)").unwrap();
        let mut remove = cqa_model::Delta::new();
        remove.remove(toggled.clone());
        let mut insert = cqa_model::Delta::new();
        insert.insert(toggled.clone());
        let toggles = [remove, insert];

        // Correctness first: the incremental session must localize (not
        // silently recompute) and agree with from-scratch on both phases.
        let mut db = nested_l45_instance(&ps, n);
        let mut session = solver.incremental();
        session.solve(&db);
        let mut check = nested_l45_instance(&ps, n);
        for i in 0..4 {
            let delta = &toggles[i % 2];
            let v = session.reanswer(&mut db, delta).unwrap();
            check.apply(delta).unwrap();
            assert_eq!(
                v.as_bool(),
                solver.solve(&check).as_bool(),
                "incremental and from-scratch disagree at n={n}, toggle {i}"
            );
            assert!(
                matches!(
                    v.provenance.delta,
                    Some(cqa_core::DeltaOutcome::Localized { .. })
                ),
                "single-fact N-delta must localize at n={n}: {:?}",
                v.provenance.delta
            );
        }

        // Timed runs: one mutation + one answer per iteration on each side.
        let mut full_db = nested_l45_instance(&ps, n);
        let facts = full_db.len();
        solver.solve(&full_db);
        let mut i = 0usize;
        let full_t = measure(budget, || {
            let delta = &toggles[i % 2];
            i += 1;
            full_db.apply(delta).unwrap();
            solver.solve(&full_db).is_certain()
        });

        let mut inc_db = nested_l45_instance(&ps, n);
        let mut session = solver.incremental();
        session.solve(&inc_db);
        let mut j = 0usize;
        let inc_t = measure(budget, || {
            let delta = &toggles[j % 2];
            j += 1;
            session.reanswer(&mut inc_db, delta).unwrap().is_certain()
        });

        delta_rows.push(DeltaBenchRow {
            n_blocks: n,
            facts,
            full_ns: full_t.as_nanos(),
            incremental_ns: inc_t.as_nanos(),
            speedup: full_t.as_secs_f64() / inc_t.as_secs_f64().max(f64::EPSILON),
        });
    }
    let delta_reanswer_vs_full = delta_rows.last().map(|r| r.speedup).unwrap_or(0.0);

    // Yannakakis semijoin vs backtracking search on the acyclic non-key
    // join: disjoint `u`-value sets, so the query is unsatisfiable and the
    // backtracking side pays the full n² scan×scan loop. Both strategies
    // are pinned per call, so the row is independent of `CQA_EVALUATOR`.
    let js = Arc::new(parse_schema(ACYCLIC_JOIN_SCHEMA).unwrap());
    let jq = parse_query(&js, ACYCLIC_JOIN_QUERY).unwrap();
    let cq = CompiledQuery::new(&jq);
    assert!(cq.semijoin_plan().is_some(), "join workload must be acyclic");
    let mut acyclic_join_rows = Vec::new();
    for &n in ACYCLIC_JOIN_SIZES {
        let db = acyclic_join_instance(&js, n);
        db.index(); // warm the row index and columnar projections
        assert_eq!(
            cq.satisfies_via(&db, JoinStrategy::Backtracking),
            cq.satisfies_via(&db, JoinStrategy::Semijoin),
            "join strategies disagree at n={n}"
        );
        let bt_t = measure(budget, || {
            cq.satisfies_via(&db, JoinStrategy::Backtracking)
        });
        let sj_t = measure(budget, || cq.satisfies_via(&db, JoinStrategy::Semijoin));
        acyclic_join_rows.push(AcyclicJoinRow {
            n_rows: n,
            facts: db.len(),
            backtracking_ns: bt_t.as_nanos(),
            semijoin_ns: sj_t.as_nanos(),
            speedup: bt_t.as_secs_f64() / sj_t.as_secs_f64().max(f64::EPSILON),
        });
    }
    let acyclic_join_largest_speedup = acyclic_join_rows.last().map(|r| r.speedup).unwrap_or(0.0);

    // Emitted-artifact execution: the same nested problem lowered to a
    // self-contained Datalog program (emit + re-parse OUTSIDE the loop —
    // the measured routine is pure semi-naïve evaluation), executed by the
    // vendored evaluator vs the compiled plan on the same instance. The
    // verdicts are asserted equal before timing (the differential-oracle
    // contract), and the recorded number is a slowdown, not a speedup:
    // the artifact re-derives every subformula predicate over the active
    // domain per call, which is the price of self-containment.
    let mut emit_exec_rows = Vec::new();
    {
        use cqa_emit::{datalog::Program, evaluate, Format, SolverEmitExt};
        for &n in EMIT_EXEC_SIZES {
            let db = nested_l45_instance(&ps, n);
            db.index();
            let artifact = solver
                .emit(&db, Format::Datalog)
                .expect("nested workload emits");
            let program =
                Program::parse(&artifact.text).expect("emitted artifact re-parses");
            let expected = cplan.answer(&db);
            assert_eq!(
                evaluate(&program).expect("artifact is sound").holds(&artifact.goal),
                expected,
                "emit∘exec and the compiled plan disagree at n={n}"
            );
            let comp_t = measure(budget, || cplan.answer(&db));
            let exec_t = measure(budget, || {
                evaluate(&program).expect("artifact is sound").holds(&artifact.goal)
            });
            emit_exec_rows.push(EmitExecRow {
                n_blocks: n,
                facts: db.len(),
                compiled_ns: comp_t.as_nanos(),
                emit_exec_ns: exec_t.as_nanos(),
                slowdown: exec_t.as_secs_f64() / comp_t.as_secs_f64().max(f64::EPSILON),
            });
        }
    }
    let emit_exec_vs_compiled = emit_exec_rows.last().map(|r| r.slowdown).unwrap_or(0.0);

    // Serve-mode plan-cache amortization: the same nested problem answered
    // (a) the uncached per-request way — schema/query/fks parsed,
    // classified and compiled inside the loop, exactly what a naive
    // stateless server would do per request — vs (b) through the serve
    // handler with a warm cache, which still decodes the request JSON and
    // parses the database text but shares the one cached compiled solver.
    // Both sides pay the database parse, so amortization is largest where
    // per-instance work is smallest (the build cost is constant in the
    // database); the headline reads the SMALLEST size — that is the
    // regime, many small requests against one plan, serve mode exists
    // for — and the larger rows document how the ratio decays toward 1 as
    // per-instance work swamps the amortized build.
    let mut serve_rows = Vec::new();
    {
        let service = cqa_serve::Service::new(cqa_serve::ServeConfig {
            defaults: ExecOptions::sequential(),
            cache_capacity: 8,
            max_facts: None,
        });
        for &n in SERVE_SIZES {
            let db = nested_l45_instance(&ps, n);
            let facts = db.len();
            let db_text = db
                .facts()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join(" ");
            let request = {
                use serde_json::Value;
                let mut fields = std::collections::BTreeMap::new();
                fields.insert("op".to_string(), Value::String("solve".to_string()));
                fields.insert(
                    "schema".to_string(),
                    Value::String(NESTED_L45_SCHEMA.to_string()),
                );
                fields.insert(
                    "query".to_string(),
                    Value::String(NESTED_L45_QUERY.to_string()),
                );
                fields.insert("fks".to_string(), Value::String(NESTED_L45_FKS.to_string()));
                fields.insert("db".to_string(), Value::String(db_text.clone()));
                serde_json::to_string(&Value::Object(fields)).expect("request serializes")
            };
            // Correctness first: the serve path must agree with the
            // per-request build on a yes-instance.
            let warm_reply = service.handle_line(&request);
            assert!(
                warm_reply.contains("\"certainty\":\"certain\""),
                "serve path answers the yes-instance at n={n}: {warm_reply}"
            );

            let cold_t = measure(budget, || {
                let s = Arc::new(parse_schema(NESTED_L45_SCHEMA).unwrap());
                let q = parse_query(&s, NESTED_L45_QUERY).unwrap();
                let fks = parse_fks(&s, NESTED_L45_FKS).unwrap();
                let solver = Solver::builder(Problem::new(q, fks).unwrap())
                    .options(ExecOptions::sequential())
                    .build()
                    .expect("nested workload is FO");
                let db = cqa_model::parser::parse_instance(&s, &db_text).unwrap();
                solver.solve(&db).is_certain()
            });
            let warm_t = measure(budget, || {
                service.handle_line(&request).contains("certain")
            });
            serve_rows.push(ServeBenchRow {
                n_blocks: n,
                facts,
                per_request_build_ns: cold_t.as_nanos(),
                cached_serve_ns: warm_t.as_nanos(),
                amortization: cold_t.as_secs_f64() / warm_t.as_secs_f64().max(f64::EPSILON),
            });
        }
    }
    let serve_cache_amortization = serve_rows.first().map(|r| r.amortization).unwrap_or(0.0);

    EvalBench {
        workload: "flattened rewriting of Example 13 q1 (guarded strategy) over n two-fact \
                   blocks: interpreted (cqa_fo::interp) vs compiled (CompiledFormula), \
                   compile outside the loop"
            .to_string(),
        rows,
        largest_size_speedup,
        plan_workload: "depth-2 nested Lemma 45 plan over an n-fact outer block (5n facts): \
                        materializing RewritePlan::answer vs view-backed CompiledPlan, \
                        compile outside the loop"
            .to_string(),
        plan_rows,
        plan_largest_size_speedup,
        threads_available: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        solver_routing_workload: "the same depth-2 nested Lemma 45 problem: direct \
                                  CompiledPlan::answer vs Solver::solve with sequential \
                                  ExecOptions (identical plan execution; the delta is route \
                                  dispatch + verdict/provenance construction)"
            .to_string(),
        solver_routing_rows,
        solver_routing_overhead,
        delta_workload: "the same depth-2 nested Lemma 45 problem under a single-fact delta \
                         (remove/reinsert one outer N('c',∗) block fact): \
                         IncrementalSolver::reanswer (cached residuals for the untouched \
                         block facts) vs Instance::apply + full Solver::solve"
            .to_string(),
        delta_rows,
        delta_reanswer_vs_full,
        acyclic_join_workload: "acyclic non-key join {A(x,u), B(y,u)} with disjoint u-value \
                                sets (unsatisfiable): CompiledQuery::satisfies_via pinned to \
                                Backtracking (n² scan×scan) vs Semijoin (Yannakakis passes \
                                over the columnar projection)"
            .to_string(),
        acyclic_join_rows,
        acyclic_join_largest_speedup,
        emit_exec_workload: "the same depth-2 nested Lemma 45 problem lowered by cqa-emit to \
                             a self-contained stratified Datalog artifact (emit + parse \
                             outside the loop): vendored semi-naïve evaluation of the \
                             artifact vs CompiledPlan::answer on the same instance — a \
                             documented self-containment cost, not a race"
            .to_string(),
        emit_exec_rows,
        emit_exec_vs_compiled,
        serve_workload: "the same depth-2 nested Lemma 45 problem as one serve request per \
                         instance: per-request parse + classify + compile (Solver::build) + \
                         solve, vs cqa_serve::Service::handle_line with a warm plan cache \
                         (JSON decode + db parse + solve on the shared cached solver); \
                         headline at the smallest size, where plan work dominates"
            .to_string(),
        serve_rows,
        serve_cache_amortization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_bench_smoke() {
        // Tiny sizes and budget: correctness of the harness, not timings.
        let report = run_eval_bench(&[2, 4], &[2, 4], Duration::from_millis(5));
        assert_eq!(report.rows.len(), 2);
        assert!(report.rows.iter().all(|r| r.compiled_guarded_ns > 0));
        assert_eq!(report.plan_rows.len(), 2);
        assert!(report.plan_rows.iter().all(|r| r.compiled_ns > 0));
        assert!(report.threads_available >= 1);
        assert!(report.to_json().contains("largest_size_speedup"));
        assert!(report.to_json().contains("plan_largest_size_speedup"));
        assert_eq!(report.solver_routing_rows.len(), 2);
        assert!(report.solver_routing_rows.iter().all(|r| r.solver_ns > 0));
        assert!(report.to_json().contains("solver_routing_overhead"));
        assert_eq!(report.delta_rows.len(), 2);
        assert!(report.delta_rows.iter().all(|r| r.incremental_ns > 0));
        assert!(report.to_json().contains("delta_reanswer_vs_full"));
        assert_eq!(report.acyclic_join_rows.len(), ACYCLIC_JOIN_SIZES.len());
        assert!(report.acyclic_join_rows.iter().all(|r| r.semijoin_ns > 0));
        assert!(report.to_json().contains("acyclic_join_largest_speedup"));
        assert_eq!(report.emit_exec_rows.len(), EMIT_EXEC_SIZES.len());
        assert!(report.emit_exec_rows.iter().all(|r| r.emit_exec_ns > 0));
        assert!(report.to_json().contains("emit_exec_vs_compiled"));
        assert_eq!(report.serve_rows.len(), SERVE_SIZES.len());
        assert!(report.serve_rows.iter().all(|r| r.cached_serve_ns > 0));
        assert!(report.to_json().contains("serve_cache_amortization"));
    }

    #[test]
    fn nested_workload_is_a_yes_instance_with_depth_two() {
        let (s, plan, compiled) = nested_l45_plan();
        assert!(plan.depth() >= 3, "nested Lemma 45 depth: {}", plan.depth());
        let db = nested_l45_instance(&s, 4);
        assert_eq!(db.len(), 20);
        assert!(plan.answer(&db));
        assert!(compiled.answer(&db));
        // Breaking one chain flips both executors to "not certain".
        let mut broken = db.clone();
        broken.remove(&cqa_model::parser::parse_fact("P(w2)").unwrap()).unwrap();
        assert!(!plan.answer(&broken));
        assert!(!compiled.answer(&broken));
    }
}
