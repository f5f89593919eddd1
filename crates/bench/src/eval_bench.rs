//! The kernel ratio table behind `BENCH_eval.json`: every production
//! kernel timed against its deliberately slow baseline, each ratio with the
//! floor (or ceiling) it must meet.
//!
//! Every workload is built from one of three problems:
//!
//! * the flattened consistent rewriting of Example 13's
//!   `q1 = {N(x,u,y), O(y,w)}` with `FK = {N[3]→O}`, over `n` two-fact
//!   blocks;
//! * the depth-2 nested Lemma 45 problem
//!   `q = {N('c',y), M(y,w), Q(w), P(w), O(y)}`, `FK = {N[2]→O, M[2]→Q}`,
//!   over an `n`-fact outer block (5n facts), every block fact chained to
//!   its own witness so each one forces a full residual evaluation;
//! * the acyclic non-key join `{A(x,u), B(y,u)}` with disjoint `u`-value
//!   sets, `n` rows per relation.
//!
//! Each [`Ratio`] times a *baseline* and a *subject* with the same
//! calibrated best-of-batches loop, after asserting that both give the
//! same answer, and reads its headline from one row:
//!
//! | ratio | baseline → subject | gate |
//! |---|---|---|
//! | `compiled_vs_interpreted` | [`cqa_fo::interp`] → [`CompiledFormula`] | ≥ 5× |
//! | `compiled_vs_materializing_plan` | [`RewritePlan::answer`] → [`CompiledPlan::answer`] | ≥ 5× |
//! | `routing_overhead` | [`CompiledPlan::answer`] → [`Solver::solve`] | ≤ 5% |
//! | `reanswer_vs_full_resolve` | apply + [`Solver::solve`] → [`cqa_core::IncrementalSolver::reanswer`] | ≥ 10× |
//! | `semijoin_vs_backtracking` | [`JoinStrategy::Backtracking`] → [`JoinStrategy::Semijoin`] | ≥ 3× |
//! | `serve_cache_amortization` | per-request build → warm [`cqa_serve::Service`] | ≥ 10× |
//! | `emitted_artifact_cost` | vendored Datalog evaluator → [`CompiledPlan::answer`] | recorded |
//!
//! `paper-eval` runs the table after the E1–E16 experiments, writes it to
//! `BENCH_eval.json` and exits non-zero if any gate misses.

use crate::fmt_duration;
use cqa_core::classify::Classification;
use cqa_core::flatten::flatten;
use cqa_core::{CompiledPlan, ExecOptions, Problem, RewritePlan, Solver};
use cqa_fo::{interp, CompiledFormula, Formula, Strategy};
use cqa_model::parser::{parse_fks, parse_query, parse_schema};
use cqa_model::{CompiledQuery, Instance, JoinStrategy, Schema};
use serde::Serialize;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measured size of a [`Ratio`].
#[derive(Clone, Debug, Serialize)]
pub struct RatioRow {
    /// The workload size parameter (block facts, blocks or rows per
    /// relation; see the ratio's workload).
    pub n: usize,
    /// Total facts in the instance.
    pub facts: usize,
    /// Best per-call time of the baseline.
    pub baseline_ns: u128,
    /// Best per-call time of the subject.
    pub subject_ns: u128,
    /// `baseline / subject`.
    pub ratio: f64,
}

impl RatioRow {
    fn new(n: usize, facts: usize, baseline: Duration, subject: Duration) -> RatioRow {
        RatioRow {
            n,
            facts,
            baseline_ns: baseline.as_nanos(),
            subject_ns: subject.as_nanos(),
            ratio: baseline.as_secs_f64() / subject.as_secs_f64(),
        }
    }
}

/// The bound a ratio's headline must meet; both ends inclusive. A gate
/// with neither bound records the ratio without enforcing anything.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct Gate {
    /// The floor, if any.
    pub min: Option<f64>,
    /// The ceiling, if any.
    pub max: Option<f64>,
}

impl Gate {
    /// A gate requiring `headline ≥ floor`.
    pub const fn at_least(floor: f64) -> Gate {
        Gate {
            min: Some(floor),
            max: None,
        }
    }

    /// A gate requiring `headline ≤ ceiling`.
    pub const fn at_most(ceiling: f64) -> Gate {
        Gate {
            min: None,
            max: Some(ceiling),
        }
    }

    /// Whether `headline` meets the gate. A NaN headline meets no bound.
    pub fn passes(&self, headline: f64) -> bool {
        self.min.is_none_or(|m| headline >= m) && self.max.is_none_or(|m| headline <= m)
    }
}

/// One kernel measured against its slow baseline across sizes.
#[derive(Clone, Debug, Serialize)]
pub struct Ratio {
    /// Short identifier, `<subject>_vs_<baseline>` or the measured cost.
    pub name: &'static str,
    /// What was measured.
    pub workload: &'static str,
    /// The headline's unit: `×` for speedups, `%` for overheads.
    pub unit: &'static str,
    /// Per-size measurements, ascending.
    pub rows: Vec<RatioRow>,
    /// The gated number, read from one row (see the workload).
    pub headline: f64,
    /// The bound the headline must meet.
    pub gate: Gate,
}

impl Ratio {
    /// Whether the headline meets the gate.
    pub fn passes(&self) -> bool {
        self.gate.passes(self.headline)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}: {}", self.name, self.workload)?;
        let ns = |t: u128| fmt_duration(Duration::from_nanos(t as u64));
        for r in &self.rows {
            writeln!(
                f,
                "  n={:<4} ({:>4} facts): baseline {:>10} — subject {:>10} — {:.1}×",
                r.n,
                r.facts,
                ns(r.baseline_ns),
                ns(r.subject_ns),
                r.ratio,
            )?;
        }
        let unit = self.unit;
        let (gate, mark) = match (self.gate.min, self.gate.max) {
            (Some(m), _) => (format!("gate ≥ {m}{unit}"), self.passes()),
            (_, Some(m)) => (format!("gate ≤ {m}{unit}"), self.passes()),
            (None, None) => ("recorded, ungated".to_string(), true),
        };
        let mark = if mark { "✓" } else { "✗ MISSED" };
        write!(f, "  headline {:.2}{unit} ({gate}) {mark}", self.headline)
    }
}

/// The full `BENCH_eval.json` payload.
#[derive(Clone, Debug, Serialize)]
pub struct EvalBench {
    /// CPUs available to this process when the snapshot was taken, so
    /// timings from differently sized runners stay interpretable.
    pub threads_available: usize,
    /// The ratio table.
    pub ratios: Vec<Ratio>,
}

impl EvalBench {
    /// Renders as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bench report serializes")
    }

    /// The ratios whose headline misses its gate.
    pub fn missed_gates(&self) -> Vec<&Ratio> {
        self.ratios.iter().filter(|r| !r.passes()).collect()
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

/// Calibrated best-of-batches wall-clock measurement: runs `routine` once
/// to size the batches, then reports the best per-call time over 5 batches
/// targeting roughly `budget` of total measurement time.
fn measure(budget: Duration, mut routine: impl FnMut() -> bool) -> Duration {
    let start = Instant::now();
    std::hint::black_box(routine());
    let once = start.elapsed().max(Duration::from_nanos(1));
    let batch = (budget.as_nanos() / 5 / once.as_nanos()).clamp(1, 1_000_000) as u32;
    let mut best = Duration::MAX;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(routine());
        }
        best = best.min(start.elapsed() / batch);
    }
    best.max(Duration::from_nanos(1))
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

const NESTED_L45_SCHEMA: &str = "N[2,1] M[2,1] Q[1,1] P[1,1] O[1,1]";
/// `N('c',y)` branches on its block, the residual `M(y,w)` branches again,
/// the tail is the KW rewriting of `P`.
const NESTED_L45_QUERY: &str = "N('c',y), M(y,w), Q(w), P(w), O(y)";
const NESTED_L45_FKS: &str = "N[2] -> O, M[2] -> Q";

fn nested_l45_problem() -> Problem {
    let s = Arc::new(parse_schema(NESTED_L45_SCHEMA).unwrap());
    let q = parse_query(&s, NESTED_L45_QUERY).unwrap();
    let fks = parse_fks(&s, NESTED_L45_FKS).unwrap();
    Problem::new(q, fks).expect("nested workload is a valid problem")
}

/// The nested-Lemma-45 plan pair (interpretive + compiled).
fn nested_l45_plan() -> (Arc<Schema>, RewritePlan, CompiledPlan) {
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
/// chained through its own `M`/`Q`/`P` witness (5n facts total).
fn nested_l45_instance(s: &Arc<Schema>, n: usize) -> Instance {
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

/// Rows per relation measured for the acyclic-join workload.
const ACYCLIC_JOIN_SIZES: &[usize] = &[8, 64, 512];

/// Outer block facts measured for the emitted-artifact workload (every
/// fact is embedded in the artifact).
const EMIT_EXEC_SIZES: &[usize] = &[4, 16, 64];

/// Outer block facts measured for the serve workload. Small-heavy: the
/// cache amortizes the constant classify+compile cost, which dominates
/// exactly when instances are small.
const SERVE_SIZES: &[usize] = &[1, 8, 64];

/// `n` rows per relation with disjoint `u`-value sets: the join is
/// unsatisfiable, so backtracking search scans all `n²` candidate pairs
/// while the semijoin pass rejects after two linear column filters.
fn acyclic_join_instance(s: &Arc<Schema>, n: usize) -> Instance {
    let mut db = Instance::new(s.clone());
    for i in 0..n {
        db.insert_named("A", &[&format!("a{i}"), &format!("u{i}")])
            .unwrap();
        db.insert_named("B", &[&format!("b{i}"), &format!("v{i}")])
            .unwrap();
    }
    db
}

/// Paired repeats of the routing measurement per size; the kept row is the
/// median by overhead, damping scheduler noise in what is a ratio of two
/// near-identical timings.
const ROUTING_REPEATS: usize = 5;

fn last_ratio(rows: &[RatioRow]) -> f64 {
    rows.last().map_or(f64::NAN, |r| r.ratio)
}

/// Runs the table at the given sizes (ascending): `sizes` for the formula
/// workload, `plan_sizes` for the plan, routing and delta workloads.
/// `budget` bounds the measurement time per side per size.
pub fn run_eval_bench(sizes: &[usize], plan_sizes: &[usize], budget: Duration) -> EvalBench {
    let mut ratios = Vec::new();

    let (s, formula) = q1_formula();
    let compiled = CompiledFormula::compile(&formula, Strategy::Guarded);
    let mut rows = Vec::new();
    for &n in sizes {
        let db = chain_instance(&s, n);
        assert_eq!(
            compiled.eval_closed(&db),
            interp::eval_closed(&db, &formula),
            "engines disagree at n={n}"
        );
        db.adom(); // build the lazy domains so both engines see them built
        let interp_t = measure(budget, || interp::eval_closed(&db, &formula));
        let compiled_t = measure(budget, || compiled.eval_closed(&db));
        rows.push(RatioRow::new(n, db.len(), interp_t, compiled_t));
    }
    ratios.push(Ratio {
        name: "compiled_vs_interpreted",
        workload: "flattened rewriting of Example 13 q1 (guarded strategy) over n two-fact \
                   blocks: interpreted (cqa_fo::interp) vs compiled (CompiledFormula, compiled \
                   outside the loop); headline at the largest size",
        unit: "×",
        headline: last_ratio(&rows),
        rows,
        // DESIGN.md records ≈9× at 512 blocks when first measured.
        gate: Gate::at_least(5.0),
    });

    let (ps, plan, cplan) = nested_l45_plan();
    let mut rows = Vec::new();
    for &n in plan_sizes {
        let db = nested_l45_instance(&ps, n);
        assert_eq!(
            plan.answer(&db),
            cplan.answer(&db),
            "plan executors disagree at n={n}"
        );
        db.adom();
        let mat_t = measure(budget, || plan.answer(&db));
        let comp_t = measure(budget, || cplan.answer(&db));
        rows.push(RatioRow::new(n, db.len(), mat_t, comp_t));
    }
    ratios.push(Ratio {
        name: "compiled_vs_materializing_plan",
        workload: "depth-2 nested Lemma 45 plan over an n-fact outer block (5n facts): \
                   materializing RewritePlan::answer vs view-backed CompiledPlan (compiled \
                   outside the loop); headline at the largest size",
        unit: "×",
        headline: last_ratio(&rows),
        rows,
        // DESIGN.md's acceptance floor for the compiled plan.
        gate: Gate::at_least(5.0),
    });

    // Both sides run the identical single-threaded plan, so the delta is
    // pure facade cost: route dispatch, verdict + provenance construction.
    let solver = Solver::builder(nested_l45_problem())
        .options(ExecOptions::sequential())
        .build()
        .expect("nested workload is FO");
    let mut rows = Vec::new();
    for &n in plan_sizes {
        let db = nested_l45_instance(&ps, n);
        assert_eq!(
            solver.solve(&db).as_bool(),
            Some(cplan.answer(&db)),
            "solver facade and direct plan disagree at n={n}"
        );
        db.adom();
        let mut repeats: Vec<RatioRow> = (0..ROUTING_REPEATS)
            .map(|_| {
                let direct_t = measure(budget, || cplan.answer(&db));
                let solver_t = measure(budget, || solver.solve(&db).is_certain());
                RatioRow::new(n, db.len(), direct_t, solver_t)
            })
            .collect();
        // Overhead falls as `direct / solver` rises: the median by either.
        repeats.sort_by(|a, b| a.ratio.total_cmp(&b.ratio));
        rows.push(repeats.swap_remove(ROUTING_REPEATS / 2));
    }
    ratios.push(Ratio {
        name: "routing_overhead",
        workload: "the nested Lemma 45 problem: direct CompiledPlan::answer vs Solver::solve \
                   with sequential ExecOptions (the same plan behind the facade); headline is \
                   (solver / direct − 1) in percent at the largest size, median of 5 paired \
                   repeats; negative values are noise",
        unit: "%",
        headline: rows
            .last()
            .map_or(f64::NAN, |r| (1.0 / r.ratio - 1.0) * 100.0),
        rows,
        gate: Gate::at_most(5.0),
    });

    // A single-fact delta on the outer N('c', ∗) block — remove one
    // chain's N-fact, then reinsert it, alternating. Both sides pay the
    // same mutation; the delta is pure re-answering work.
    let toggled = cqa_model::parser::parse_fact("N(c,y0)").unwrap();
    let mut remove = cqa_model::Delta::new();
    remove.remove(toggled.clone());
    let mut insert = cqa_model::Delta::new();
    insert.insert(toggled);
    let toggles = [remove, insert];
    let mut rows = Vec::new();
    for &n in plan_sizes {
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
        // A residual fact: removing and restoring P(w0) re-evaluates only
        // the row whose probes read it.
        let p = cqa_model::parser::parse_fact("P(w0)").unwrap();
        for insert in [false, true] {
            let mut delta = cqa_model::Delta::new();
            if insert {
                delta.insert(p.clone());
            } else {
                delta.remove(p.clone());
            }
            let v = session.reanswer(&mut db, &delta).unwrap();
            check.apply(&delta).unwrap();
            assert_eq!(
                v.as_bool(),
                solver.solve(&check).as_bool(),
                "incremental and from-scratch disagree at n={n} after {delta}"
            );
            assert!(
                matches!(
                    v.provenance.delta,
                    Some(cqa_core::DeltaOutcome::Localized { evaluated: 1, .. })
                ),
                "a P-delta must localize to one row at n={n}: {:?}",
                v.provenance.delta
            );
        }

        let mut full_db = nested_l45_instance(&ps, n);
        let facts = full_db.len();
        solver.solve(&full_db);
        let mut i = 0usize;
        let full_t = measure(budget, || {
            full_db.apply(&toggles[i % 2]).unwrap();
            i += 1;
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
        rows.push(RatioRow::new(n, facts, full_t, inc_t));
    }
    ratios.push(Ratio {
        name: "reanswer_vs_full_resolve",
        workload: "the nested Lemma 45 problem under a single-fact delta (remove/reinsert one \
                   outer N('c',∗) block fact): Instance::apply + full Solver::solve vs \
                   IncrementalSolver::reanswer (per-row state: only the toggled row is \
                   evaluated or dropped); headline at the largest size",
        unit: "×",
        headline: last_ratio(&rows),
        rows,
        gate: Gate::at_least(10.0),
    });

    let js = Arc::new(parse_schema("A[2,1] B[2,1]").unwrap());
    let jq = parse_query(&js, "A(x,u), B(y,u)").unwrap();
    let cq = CompiledQuery::new(&jq);
    assert!(
        cq.semijoin_plan().is_some(),
        "join workload must be acyclic"
    );
    let mut rows = Vec::new();
    for &n in ACYCLIC_JOIN_SIZES {
        let db = acyclic_join_instance(&js, n);
        db.adom(); // build the lazy domains outside the timed loops
        assert_eq!(
            cq.satisfies_via(&db, JoinStrategy::Backtracking),
            cq.satisfies_via(&db, JoinStrategy::Semijoin),
            "join strategies disagree at n={n}"
        );
        let bt_t = measure(budget, || cq.satisfies_via(&db, JoinStrategy::Backtracking));
        let sj_t = measure(budget, || cq.satisfies_via(&db, JoinStrategy::Semijoin));
        rows.push(RatioRow::new(n, db.len(), bt_t, sj_t));
    }
    ratios.push(Ratio {
        name: "semijoin_vs_backtracking",
        workload: "acyclic non-key join {A(x,u), B(y,u)} with disjoint u-value sets \
                   (unsatisfiable), n rows per relation: CompiledQuery::satisfies_via pinned \
                   to Backtracking (n² scan×scan) vs Semijoin (one filtered scan per atom, \
                   then a hashed semijoin pass per join-forest edge); headline at the \
                   largest size",
        unit: "×",
        headline: last_ratio(&rows),
        rows,
        gate: Gate::at_least(3.0),
    });

    // Both sides pay the database parse and the build cost is constant in
    // the database, so amortization is largest on small requests — the
    // regime serve mode exists for; the larger rows show the ratio
    // decaying toward 1 as per-instance work swamps the amortized build.
    let service = cqa_serve::Service::new(cqa_serve::ServeConfig {
        defaults: ExecOptions::sequential(),
        cache_capacity: 8,
        max_facts: None,
    });
    let mut rows = Vec::new();
    for &n in SERVE_SIZES {
        let db = nested_l45_instance(&ps, n);
        let db_text = db
            .facts()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        let request = {
            use serde_json::Value;
            let fields = [
                ("op", "solve"),
                ("schema", NESTED_L45_SCHEMA),
                ("query", NESTED_L45_QUERY),
                ("fks", NESTED_L45_FKS),
                ("db", db_text.as_str()),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::String(v.to_string())))
            .collect();
            serde_json::to_string(&Value::Object(fields)).expect("request serializes")
        };
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
        let warm_t = measure(budget, || service.handle_line(&request).contains("certain"));
        rows.push(RatioRow::new(n, db.len(), cold_t, warm_t));
    }
    ratios.push(Ratio {
        name: "serve_cache_amortization",
        workload: "the nested Lemma 45 problem as one serve request per instance: \
                   per-request parse + classify + compile (Solver::build) + db parse + solve \
                   vs cqa_serve::Service::handle_line with a warm plan cache (JSON decode + \
                   db parse + solve on the shared solver); headline at the smallest size, \
                   where plan work dominates",
        unit: "×",
        headline: rows.first().map_or(f64::NAN, |r| r.ratio),
        rows,
        gate: Gate::at_least(10.0),
    });

    // The artifact re-derives every subformula predicate over the active
    // domain per call, so a large ratio is the expected price of
    // self-containment; it is recorded so a regression shows.
    let mut rows = Vec::new();
    {
        use cqa_emit::{datalog::Program, evaluate, Format, SolverEmitExt};
        for &n in EMIT_EXEC_SIZES {
            let db = nested_l45_instance(&ps, n);
            db.adom();
            let artifact = solver
                .emit(&db, Format::Datalog)
                .expect("nested workload emits");
            let program = Program::parse(&artifact.text).expect("emitted artifact re-parses");
            let exec = || {
                evaluate(&program)
                    .expect("artifact is sound")
                    .holds(&artifact.goal)
            };
            assert_eq!(
                exec(),
                cplan.answer(&db),
                "emit∘exec and the compiled plan disagree at n={n}"
            );
            let exec_t = measure(budget, exec);
            let comp_t = measure(budget, || cplan.answer(&db));
            rows.push(RatioRow::new(n, db.len(), exec_t, comp_t));
        }
    }
    ratios.push(Ratio {
        name: "emitted_artifact_cost",
        workload: "the nested Lemma 45 problem lowered by cqa-emit to a self-contained \
                   stratified Datalog artifact (emit + parse outside the loop): vendored \
                   semi-naïve evaluation of the artifact vs CompiledPlan::answer on the same \
                   instance; headline at the largest size, a documented cost, not a race",
        unit: "×",
        headline: last_ratio(&rows),
        rows,
        gate: Gate::default(),
    });

    EvalBench {
        threads_available: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        ratios,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_bench_smoke() {
        // Tiny sizes and budget: correctness of the harness, not timings.
        let report = run_eval_bench(&[2, 4], &[2, 4], Duration::from_millis(5));
        assert_eq!(report.ratios.len(), 7);
        for r in &report.ratios {
            assert!(!r.rows.is_empty(), "{} has rows", r.name);
            assert!(r.rows.iter().all(|row| row.subject_ns > 0), "{}", r.name);
            assert!(r.headline.is_finite(), "{} headline {}", r.name, r.headline);
        }
    }

    fn table(headlines: &[(f64, Gate)]) -> EvalBench {
        let ratios = headlines
            .iter()
            .map(|&(headline, gate)| Ratio {
                name: "synthetic",
                workload: "synthetic",
                unit: "×",
                rows: Vec::new(),
                headline,
                gate,
            })
            .collect();
        EvalBench {
            threads_available: 1,
            ratios,
        }
    }

    #[test]
    fn gates_pass_on_their_bound_and_miss_past_it() {
        let on_bound = table(&[
            (5.0, Gate::at_least(5.0)),
            (10.0, Gate::at_least(10.0)),
            (3.0, Gate::at_least(3.0)),
            (5.0, Gate::at_most(5.0)),
            (-0.6, Gate::at_most(5.0)),
            (f64::NAN, Gate::default()),
        ]);
        assert!(on_bound.missed_gates().is_empty());

        for (headline, gate) in [
            (4.99, Gate::at_least(5.0)),
            (9.99, Gate::at_least(10.0)),
            (2.99, Gate::at_least(3.0)),
            (5.01, Gate::at_most(5.0)),
            (f64::NAN, Gate::at_least(5.0)),
            (f64::NAN, Gate::at_most(5.0)),
        ] {
            let t = table(&[(100.0, Gate::at_least(5.0)), (headline, gate)]);
            assert_eq!(t.missed_gates().len(), 1, "{headline} vs {gate:?}");
        }
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
        broken
            .remove(&cqa_model::parser::parse_fact("P(w2)").unwrap())
            .unwrap();
        assert!(!plan.answer(&broken));
        assert!(!compiled.answer(&broken));
    }
}
