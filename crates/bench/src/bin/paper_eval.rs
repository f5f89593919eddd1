//! `paper-eval` — regenerates every figure, worked example and proposition
//! of the paper and prints a paper-vs-measured table (experiments E1–E16 of
//! DESIGN.md §3). Writes `experiments.json` next to the table, then runs
//! the compiled-vs-interpreted evaluation benchmark and snapshots it to
//! `BENCH_eval.json` (the perf-trajectory baseline; uploaded by CI).
//!
//! Run with: `cargo run -p cqa-bench --bin paper-eval --release`

use cqa_bench::{fmt_duration, timed, Experiment, Report};
use cqa_core::classify::Classification;
use cqa_core::fk_types::{type_table, FkType};
use cqa_core::flatten::flatten;
use cqa_core::{block_interference, CertainEngine, Problem, Solver};
use cqa_fo::eval::eval_closed;
use cqa_gen::graphs::layered_dag;
use cqa_gen::{bibliography_scenario, block_chain, BlockChainConfig};
use cqa_model::parser::{parse_fact, parse_fks, parse_instance, parse_query, parse_schema};
use cqa_model::{Cst, FkSet, Instance, Position, RelName, Schema};
use cqa_repair::{CertaintyOracle, SearchLimits};
use cqa_solvers::{fig3, prop16, prop17, DiGraph};
use std::sync::Arc;

/// A reachability test case: vertices, edges, source, target, expected
/// reachability.
type GraphCase = (Vec<usize>, Vec<(usize, usize)>, usize, usize, bool);
/// Paired `R`/`S` edge sets for the Lemma 14 invariance check.
type PairSet = (Vec<(usize, usize)>, Vec<(usize, usize)>);

fn main() {
    let mut report = Report::new();
    e1_bibliography(&mut report);
    e2_block_chain(&mut report);
    e3_obedience(&mut report);
    e4_interference_3b(&mut report);
    e5_example13(&mut report);
    e6_fig3(&mut report);
    e7_prop16(&mut report);
    e8_prop17(&mut report);
    e9_section8(&mut report);
    e10_example4(&mut report);
    e11_example27(&mut report);
    e12_classification_corpus(&mut report);
    e13_fo_vs_naive(&mut report);
    e14_aboutness(&mut report);
    e15_generic_lemma15(&mut report);
    e16_lemma14_invariance(&mut report);

    println!("━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━");
    println!("{}", report.summary());
    let json = report.to_json();
    let path = "experiments.json";
    std::fs::write(path, &json).expect("write experiments.json");
    println!("wrote {path}");
    // Fail before touching the perf baseline: a build whose experiments do
    // not reproduce must not overwrite BENCH_eval.json.
    assert!(report.all_ok(), "some experiments failed to reproduce");

    bench_eval_snapshot();
}

/// Measures the interpreted-vs-compiled formula evaluators on the
/// `fo_vs_naive` guarded workload, the materializing-vs-compiled plan
/// executors on the nested Lemma 45 workload, and snapshots both to
/// `BENCH_eval.json`.
fn bench_eval_snapshot() {
    println!("━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━");
    println!("evaluation core: interpreted vs compiled (guarded strategy)");
    let bench = cqa_bench::run_eval_bench(
        &[8, 64, 512],
        &[8, 64, 256],
        std::time::Duration::from_millis(200),
    );
    for row in &bench.rows {
        println!(
            "  n={:<4} ({:>4} facts): interpreted {:>10} — compiled {:>10} — {:.1}×",
            row.n_blocks,
            row.facts,
            fmt_duration(std::time::Duration::from_nanos(
                row.interpreted_guarded_ns as u64
            )),
            fmt_duration(std::time::Duration::from_nanos(
                row.compiled_guarded_ns as u64
            )),
            row.speedup,
        );
    }
    println!(
        "  speedup at the largest size: {:.1}×",
        bench.largest_size_speedup
    );
    println!("reduction pipeline: materializing plan vs compiled plan (nested Lemma 45)");
    for row in &bench.plan_rows {
        println!(
            "  n={:<4} ({:>4} facts): materialized {:>10} — compiled {:>10} — {:.1}×",
            row.n_blocks,
            row.facts,
            fmt_duration(std::time::Duration::from_nanos(row.materialized_ns as u64)),
            fmt_duration(std::time::Duration::from_nanos(row.compiled_ns as u64)),
            row.speedup,
        );
    }
    println!(
        "  plan speedup at the largest size: {:.1}×",
        bench.plan_largest_size_speedup
    );
    println!("unified solver: direct CompiledPlan::answer vs Solver::solve (facade dispatch)");
    for row in &bench.solver_routing_rows {
        println!(
            "  n={:<4} ({:>4} facts): direct {:>10} — solver {:>10} — overhead {:+.2}%",
            row.n_blocks,
            row.facts,
            fmt_duration(std::time::Duration::from_nanos(row.direct_ns as u64)),
            fmt_duration(std::time::Duration::from_nanos(row.solver_ns as u64)),
            row.overhead_pct,
        );
    }
    println!(
        "  routing overhead at the largest size: {:+.2}% (target < 5%)",
        bench.solver_routing_overhead
    );
    println!("delta-certainty: apply + full solve vs IncrementalSolver::reanswer (single-fact Δ)");
    for row in &bench.delta_rows {
        println!(
            "  n={:<4} ({:>4} facts): full {:>10} — incremental {:>10} — {:.1}×",
            row.n_blocks,
            row.facts,
            fmt_duration(std::time::Duration::from_nanos(row.full_ns as u64)),
            fmt_duration(std::time::Duration::from_nanos(row.incremental_ns as u64)),
            row.speedup,
        );
    }
    println!(
        "  delta speedup at the largest size: {:.1}× (target ≥ 10×)",
        bench.delta_reanswer_vs_full
    );
    println!("acyclic residual join: backtracking search vs Yannakakis semijoin passes");
    for row in &bench.acyclic_join_rows {
        println!(
            "  n={:<4} ({:>4} facts): backtracking {:>10} — semijoin {:>10} — {:.1}×",
            row.n_rows,
            row.facts,
            fmt_duration(std::time::Duration::from_nanos(row.backtracking_ns as u64)),
            fmt_duration(std::time::Duration::from_nanos(row.semijoin_ns as u64)),
            row.speedup,
        );
    }
    println!(
        "  semijoin speedup at the largest size: {:.1}× (target ≥ 3×)",
        bench.acyclic_join_largest_speedup
    );
    println!("emitted artifact: vendored Datalog evaluation vs the compiled plan");
    for row in &bench.emit_exec_rows {
        println!(
            "  n={:<4} ({:>4} facts): compiled {:>10} — emit∘exec {:>10} — {:.1}× slower",
            row.n_blocks,
            row.facts,
            fmt_duration(std::time::Duration::from_nanos(row.compiled_ns as u64)),
            fmt_duration(std::time::Duration::from_nanos(row.emit_exec_ns as u64)),
            row.slowdown,
        );
    }
    println!(
        "  self-containment cost at the largest size: {:.1}× (documented, not a race)",
        bench.emit_exec_vs_compiled
    );
    println!("serve mode: per-request parse+classify+compile+solve vs warm plan cache");
    for row in &bench.serve_rows {
        println!(
            "  n={:<4} ({:>4} facts): per-request {:>10} — cached serve {:>10} — {:.1}×",
            row.n_blocks,
            row.facts,
            fmt_duration(std::time::Duration::from_nanos(row.per_request_build_ns as u64)),
            fmt_duration(std::time::Duration::from_nanos(row.cached_serve_ns as u64)),
            row.amortization,
        );
    }
    println!(
        "  serve cache amortization at the smallest size: {:.1}× (target ≥ 10×)",
        bench.serve_cache_amortization
    );
    let path = "BENCH_eval.json";
    std::fs::write(path, bench.to_json()).expect("write BENCH_eval.json");
    println!("wrote {path}");
}

fn e1_bibliography(report: &mut Report) {
    let bib = bibliography_scenario();
    let problem = Problem::new(bib.query.clone(), bib.fks.clone()).unwrap();
    let plan = match problem.classify() {
        Classification::Fo(p) => p,
        Classification::NotFo(r) => {
            report.push(Experiment::new("E1", "Fig. 1 + §1 query q0", "in FO", r.to_string(), false));
            return;
        }
    };
    let (ans, t) = timed(|| plan.answer(&bib.db));
    let oracle = CertaintyOracle::new()
        .is_certain(&bib.db, &bib.query, &bib.fks)
        .as_bool();
    let ok = !ans && oracle == Some(false);
    report.push(Experiment::new(
        "E1",
        "Fig. 1 bibliography, §1 query q0",
        "consistent answer is \"no\" (a repair falsifies q0)",
        format!(
            "rewriting answer = {ans} in {}; exhaustive oracle = {:?}",
            fmt_duration(t),
            oracle
        ),
        ok,
    ));
}

fn e2_block_chain(report: &mut Report) {
    let mut ok = true;
    let mut lines = Vec::new();
    for (cfg, expect) in [
        (BlockChainConfig { n: 12, closing_is_c: true, with_anchor: true }, true),
        (BlockChainConfig { n: 12, closing_is_c: false, with_anchor: true }, false),
        (BlockChainConfig { n: 12, closing_is_c: true, with_anchor: false }, false),
    ] {
        let bc = block_chain(cfg);
        let got = prop17::certain(&bc.db, Cst::new("c"));
        ok &= got == expect;
        lines.push(format!(
            "□={} anchor={} → certain={got}",
            if cfg.closing_is_c { "c" } else { "d" },
            cfg.with_anchor
        ));
    }
    // Oracle confirmation at n = 2.
    let bc = block_chain(BlockChainConfig { n: 2, closing_is_c: true, with_anchor: true });
    let oracle = CertaintyOracle::new()
        .is_certain(&bc.db, &bc.query, &bc.fks)
        .as_bool();
    ok &= oracle == Some(true);
    report.push(Experiment::new(
        "E2",
        "§4 block-chain database",
        "yes-instance iff □ = c; removing O(1) gives a no-instance",
        format!("{}; oracle at n=2: {:?}", lines.join("; "), oracle),
        ok,
    ));
}

fn e3_obedience(report: &mut Report) {
    let s = Arc::new(parse_schema("N[3,1] O[1,1]").unwrap());
    let q = parse_query(&s, "N(x,'c',y), O(y)").unwrap();
    let fks = parse_fks(&s, "N[3] -> O").unwrap();
    let n2 = cqa_core::obedience::is_obedient_position(&q, &fks, Position::new(RelName::new("N"), 2));
    let n3 = cqa_core::obedience::is_obedient_position(&q, &fks, Position::new(RelName::new("N"), 3));
    let o = cqa_core::atom_obedient(&q, &fks, RelName::new("O"));
    let witnesses = block_interference(&q, &fks);
    let ok = !n2 && n3 && o && witnesses.len() == 1;
    report.push(Experiment::new(
        "E3",
        "Examples 6 & 10 (obedience, (3a) interference)",
        "{(N,2)} disobedient, {(N,3)} obedient, O obedient; N[3]→O interferes via (3a)",
        format!(
            "(N,2) obedient={n2}, (N,3) obedient={n3}, O obedient={o}; witnesses: {}",
            witnesses
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        ),
        ok,
    ));
}

fn e4_interference_3b(report: &mut Report) {
    let s = Arc::new(parse_schema("Np[2,1] O[1,1] T[2,1] R[2,1]").unwrap());
    let q0 = parse_query(&s, "Np(x,y), O(y), T(x,y)").unwrap();
    let fks = parse_fks(&s, "Np[2] -> O").unwrap();
    let with_t = block_interference(&q0, &fks);
    let q_fixed = parse_query(&s, "Np(x,y), O(y), T(x,y), R('a',x)").unwrap();
    let fixed = block_interference(&q_fixed, &fks);
    let ok = with_t.len() == 1 && fixed.is_empty();
    report.push(Experiment::new(
        "E4",
        "Example 11 ((3b) interference and the V-set)",
        "T connects x,y ⟹ interference; adding R('a',x) fixes x and removes it",
        format!("witnesses with T: {}; after R('a',x): {}", with_t.len(), fixed.len()),
        ok,
    ));
}

fn e5_example13(report: &mut Report) {
    let s = Arc::new(parse_schema("N[3,1] O[2,1]").unwrap());
    let mk = |q: &str| {
        Problem::new(
            parse_query(&s, q).unwrap(),
            parse_fks(&s, "N[3] -> O").unwrap(),
        )
        .unwrap()
    };
    let c1 = mk("N(x,u,y), O(y,w)").classify();
    let c2 = mk("N(x,'c',y), O(y,w)").classify();
    let c3 = mk("N(x,'c',y), O(y,'c')").classify();

    // q1's rewriting differs from PK-only on the paper's witness.
    let witness = parse_instance(&s, "N(c,1,a) N(c,2,b) O(a,3)").unwrap();
    let with_fk = c1.plan().map(|p| p.answer(&witness));
    let pk_plan = match Problem::pk_only(parse_query(&s, "N(x,u,y), O(y,w)").unwrap()).classify() {
        Classification::Fo(p) => p,
        _ => unreachable!(),
    };
    let without_fk = pk_plan.answer(&witness);

    let ok = c1.is_fo() && !c2.is_fo() && c3.is_fo() && with_fk == Some(true) && !without_fk;
    report.push(Experiment::new(
        "E5",
        "Example 13 (q1, q2, q3)",
        "q1: FO (rewriting ≡ q1); q2: NL-hard; q3: FO; witness db yes with FK, no without",
        format!(
            "q1 {}; q2 {}; q3 {}; witness with FK = {:?}, without = {}",
            c1, c2, c3, with_fk, without_fk
        ),
        ok,
    ));
}

fn e6_fig3(report: &mut Report) {
    // The paper's Figure 3 graph, then a scaling sweep.
    let mut g = DiGraph::new();
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(2, 3);
    let inst = fig3::reduce(&g, 0, 3);
    let no_instance = !prop17::certain(&inst.db, Cst::new("c"));
    let mut ok = no_instance == inst.reachable;

    let mut sweep = Vec::new();
    for layers in [8usize, 32, 128] {
        let spec = layered_dag(layers, 5, 2, 11);
        let mut g = DiGraph::new();
        for &v in &spec.vertices {
            g.add_vertex(v);
        }
        for &(u, v) in &spec.edges {
            g.add_edge(u, v);
        }
        let inst = fig3::reduce(&g, 0, layers * 5 - 1);
        let (got, t) = timed(|| prop17::certain(&inst.db, Cst::new("c")));
        ok &= got != inst.reachable;
        sweep.push(format!("{} facts: {}", inst.db.len(), fmt_duration(t)));
    }
    report.push(Experiment::new(
        "E6",
        "Fig. 3 / Lemma 15 reduction from reachability",
        "db is a no-instance iff s ⇝ t; family witnesses NL-hardness",
        format!(
            "paper's graph: no-instance={no_instance} (reachable={}); sweep {}",
            inst.reachable,
            sweep.join(", ")
        ),
        ok,
    ));
}

fn e7_prop16(report: &mut Report) {
    let s = Arc::new(parse_schema(prop16::SCHEMA).unwrap());
    let q = parse_query(&s, prop16::QUERY).unwrap();
    let fks = parse_fks(&s, prop16::FKS).unwrap();
    let classify = Problem::new(q.clone(), fks.clone()).unwrap().classify();
    let mut ok = !classify.is_fo();

    // Solver vs oracle over a deterministic instance battery.
    let oracle = CertaintyOracle::new();
    let mut agree = 0;
    let mut total = 0;
    for text in [
        "N(a,a) O(a)",
        "N(a,a) N(a,b) O(a)",
        "N(a,a) N(a,b) N(b,b) O(a)",
        "N(a,a) N(a,b) N(b,b) N(b,a) O(a)",
        "N(a,a) N(a,b) N(b,b) N(b,c) N(c,c) O(a) O(c)",
    ] {
        let db = parse_instance(&s, text).unwrap();
        let fast = prop16::certain(&db);
        let reach = prop16::certain_via_reachability(&db);
        if let Some(truth) = oracle.is_certain(&db, &q, &fks).as_bool() {
            total += 1;
            if fast == truth && reach == truth {
                agree += 1;
            }
        }
    }
    ok &= agree == total;
    report.push(Experiment::new(
        "E7",
        "Proposition 16 (NL-complete case)",
        "q={N(x,x),O(x)}, FK={N[2]→O} not in FO; decidable via reachability",
        format!(
            "Theorem 12: {classify}; solver agrees with oracle on {agree}/{total} instances \
             (graph criterion refined to \"⊥ or a cycle\", see cqa-solvers docs)"
        ),
        ok,
    ));
}

fn e8_prop17(report: &mut Report) {
    let s = Arc::new(parse_schema(prop17::SCHEMA).unwrap());
    let q = parse_query(&s, prop17::QUERY).unwrap();
    let fks = parse_fks(&s, prop17::FKS).unwrap();
    let classify = Problem::new(q.clone(), fks.clone()).unwrap().classify();
    let mut ok = !classify.is_fo();

    // Linear-scaling sweep of the dual-Horn solver.
    let mut sweep = Vec::new();
    for n in [1_000usize, 10_000, 100_000] {
        let bc = block_chain(BlockChainConfig { n, closing_is_c: true, with_anchor: true });
        let (got, t) = timed(|| prop17::certain(&bc.db, Cst::new("c")));
        ok &= got;
        sweep.push(format!("n={n}: {}", fmt_duration(t)));
    }
    report.push(Experiment::new(
        "E8",
        "Proposition 17 (P-complete case)",
        "q={N(x,'c',y),O(y)}, FK={N[3]→O} ≡ DUAL HORN SAT (both directions)",
        format!("Theorem 12: {classify}; dual-Horn sweep {}", sweep.join(", ")),
        ok,
    ));
}

fn e9_section8(report: &mut Report) {
    let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
    let q = parse_query(&s, "N('c',y), O(y), P(y)").unwrap();
    let fks = parse_fks(&s, "N[2] -> O").unwrap();
    let p = Problem::new(q, fks).unwrap();
    let engine = match CertainEngine::try_new(p.clone()) {
        Ok(e) => e,
        Err(r) => {
            report.push(Experiment::new("E9", "§8 rewriting", "in FO", r.to_string(), false));
            return;
        }
    };
    let solver = Solver::new(p).expect("§8's problem is FO");
    let formula = engine.formula().unwrap();
    let yes = parse_instance(&s, "N(c,a) N(c,b) O(a) P(a) P(b)").unwrap();
    let mut ok = solver.solve(&yes).is_certain() && eval_closed(&yes, &formula);
    for gone in ["P(a)", "P(b)"] {
        let mut db = yes.clone();
        db.remove(&parse_fact(gone).unwrap()).unwrap();
        ok &= !solver.solve(&db).is_certain();
    }
    report.push(Experiment::new(
        "E9",
        "§8 worked rewriting (Lemma 45)",
        "rewriting is ∃y(N(c,y) ∧ O(y)) ∧ ∀y(N(c,y) → P(y)); removing either P-fact flips yes→no",
        format!("constructed: {formula}; instance behaviour matches"),
        ok,
    ));
}

fn e10_example4(report: &mut Report) {
    let s = Arc::new(parse_schema("R[2,1] S[2,1] T[1,1]").unwrap());
    let fks = parse_fks(&s, "R[2] -> S, S[2] -> T").unwrap();
    let db = parse_instance(&s, "R(a,b) S(b,c)").unwrap();
    let limits = SearchLimits::default();
    let r1 = parse_instance(&s, "").unwrap();
    let r2 = parse_instance(&s, "R(a,b) S(b,1) T(1)").unwrap();
    let r3 = parse_instance(&s, "R(a,b) S(b,c) T(c)").unwrap();
    let all_repairs = [&r1, &r2, &r3]
        .iter()
        .all(|r| cqa_repair::is_delta_repair(&db, r, &fks, &limits) == Some(true));
    let incomparable =
        !cqa_repair::closer_eq(&db, &r2, &r3) && !cqa_repair::closer_eq(&db, &r3, &r2);
    report.push(Experiment::new(
        "E10",
        "Example 4 (⊕-repairs)",
        "r1={}, r2, r3 are ⊕-repairs; r2 and r3 are ⪯_db-incomparable",
        format!("all three verified as ⊕-repairs: {all_repairs}; r2 ∥ r3: {incomparable}"),
        all_repairs && incomparable,
    ));
}

fn e11_example27(report: &mut Report) {
    let s = Arc::new(parse_schema("N[2,1] O[2,1]").unwrap());
    let q = parse_query(&s, "N(x,x), O(x,y)").unwrap();
    let fks = parse_fks(&s, "N[2] -> N, N[2] -> O").unwrap();
    let db = parse_instance(&s, "N(a,a) N(b,c) O(a,b)").unwrap();
    let a_fact = parse_fact("N(b, c)").unwrap();
    let db_ap = parse_instance(&s, "N(c,⊥) N(⊥,c) O(c,⊥) O(⊥,c)").unwrap();

    let item1 = db_ap.adom().iter().all(|c| !db.key_consts().contains(c));
    let item3 = db_ap.is_consistent(&fks);
    let mut with_a = db_ap.clone();
    with_a.insert(a_fact.clone()).unwrap();
    let item4 = fks.iter().all(|fk| !with_a.is_dangling(&a_fact, fk));
    let union = db.union(&db_ap);
    let item5 = with_a
        .facts()
        .all(|f| !cqa_model::eval::is_relevant(&union, &q, &f));
    let ok = item1 && item3 && item4 && item5;
    report.push(Experiment::new(
        "E11",
        "Example 27 / Lemma 24 (cyclic chase witness)",
        "db_{A,P} with 2-cycle c→⊥→c satisfies items (1)–(5) of Lemma 24",
        format!("keyconst∩adom=∅: {item1}; consistent: {item3}; A non-dangling: {item4}; all irrelevant: {item5}"),
        ok,
    ));
}

fn e12_classification_corpus(report: &mut Report) {
    // A corpus spanning all foreign-key types and all Theorem 12 outcomes.
    let corpus: Vec<(&str, &str, &str, &str)> = vec![
        ("N[3,1] O[2,1]", "N(x,u,y), O(y,w)", "N[3] -> O", "FO"),
        ("N[3,1] O[2,1]", "N(x,'c',y), O(y,w)", "N[3] -> O", "NL-hard"),
        ("N[3,1] O[2,1]", "N(x,'c',y), O(y,'c')", "N[3] -> O", "FO"),
        ("N[3,1] O[1,1]", "N(x,'c',y), O(y)", "N[3] -> O", "NL-hard"),
        ("N[2,1] O[1,1]", "N(x,x), O(x)", "N[2] -> O", "NL-hard"),
        ("R[2,1] S[2,1]", "R(x,y), S(y,x)", "R[2] -> S", "L-hard"),
        ("R[2,1] S[1,1]", "R(x,y), S(x)", "R[1] -> S", "FO"),
        ("N[2,1] O[1,1] P[1,1]", "N('c',y), O(y), P(y)", "N[2] -> O", "FO"),
    ];
    let mut ok = true;
    let mut types = std::collections::BTreeSet::new();
    let mut lines = Vec::new();
    let (_, total_time) = timed(|| {
        for (schema_text, q, fk, expected) in &corpus {
            let s = Arc::new(parse_schema(schema_text).unwrap());
            let problem = Problem::new(
                parse_query(&s, q).unwrap(),
                parse_fks(&s, fk).unwrap(),
            )
            .unwrap();
            for (_, ty) in type_table(problem.query(), problem.fks()) {
                if ty != FkType::Trivial {
                    types.insert(ty.to_string());
                }
            }
            let got = match problem.classify() {
                Classification::Fo(_) => "FO",
                Classification::NotFo(r) => {
                    if r.l_hard() {
                        "L-hard"
                    } else {
                        "NL-hard"
                    }
                }
            };
            if got != *expected {
                ok = false;
                lines.push(format!("{q} with {fk}: expected {expected}, got {got}"));
            }
        }
    });
    report.push(Experiment::new(
        "E12",
        "Theorem 12 over a corpus + Fig. 4 type table",
        "classification decidable; types weak / o→o / d→d / d→o all occur",
        format!(
            "8/8 classified as expected in {}; observed types: {:?}{}",
            fmt_duration(total_time),
            types,
            if lines.is_empty() { String::new() } else { format!("; ERRORS: {lines:?}") }
        ),
        ok && types.len() >= 4,
    ));
}

fn e13_fo_vs_naive(report: &mut Report) {
    // FO case: rewriting evaluation (polynomial) vs. exhaustive repair
    // search (exponential). The crossover is immediate and widens.
    let s = Arc::new(parse_schema("N[3,1] O[2,1]").unwrap());
    let q = parse_query(&s, "N(x,u,y), O(y,w)").unwrap();
    let fks = parse_fks(&s, "N[3] -> O").unwrap();
    let problem = Problem::new(q.clone(), fks.clone()).unwrap();
    let plan = match problem.classify() {
        Classification::Fo(p) => p,
        _ => unreachable!(),
    };
    let formula = flatten(&plan).unwrap();

    let mut lines = Vec::new();
    let mut ok = true;
    for n in [2usize, 4, 6, 32, 256] {
        let db = chain_instance(&s, n);
        let (a, t_plan) = timed(|| plan.answer(&db));
        let (b, t_formula) = timed(|| eval_closed(&db, &formula));
        ok &= a == b;
        let oracle_col = if n <= 6 {
            let oracle = CertaintyOracle::new();
            let (o, t_oracle) = timed(|| oracle.is_certain(&db, &q, &fks));
            if let Some(truth) = o.as_bool() {
                ok &= truth == a;
            }
            format!("oracle {}", fmt_duration(t_oracle))
        } else {
            "oracle —(exponential)".to_string()
        };
        lines.push(format!(
            "n={n}: plan {} formula {} {}",
            fmt_duration(t_plan),
            fmt_duration(t_formula),
            oracle_col
        ));
    }
    report.push(Experiment::new(
        "E13",
        "FO rewriting vs. generic repair search (shape of Theorem 12(1))",
        "rewriting is polynomial data complexity; repair enumeration blows up",
        lines.join(" | "),
        ok,
    ));
}

fn chain_instance(s: &Arc<Schema>, n: usize) -> Instance {
    let mut db = Instance::new(s.clone());
    for i in 0..n {
        db.insert_named("N", &[&format!("k{i}"), "u", &format!("y{i}")]).unwrap();
        db.insert_named("N", &[&format!("k{i}"), "v", &format!("z{i}")]).unwrap();
        db.insert_named("O", &[&format!("y{i}"), "w"]).unwrap();
    }
    db
}

fn e14_aboutness(report: &mut Report) {
    let s = Arc::new(parse_schema("E[2,1]").unwrap());
    let rejected = Problem::new(
        parse_query(&s, "E(x,y)").unwrap(),
        parse_fks(&s, "E[2] -> E").unwrap(),
    )
    .is_err();
    let s2 = Arc::new(parse_schema("DOCS[3,1] R[2,2] AUTHORS[3,1]").unwrap());
    let fks2 = parse_fks(&s2, "R[1] -> DOCS, R[2] -> AUTHORS").unwrap();
    let short_rejected = Problem::new(
        parse_query(&s2, "DOCS(x, t, 2016), R(x, 'o1')").unwrap(),
        fks2.clone(),
    )
    .is_err();
    let full_accepted = Problem::new(
        parse_query(&s2, "DOCS(x, t, 2016), R(x, 'o1'), AUTHORS('o1', u, z)").unwrap(),
        fks2,
    )
    .is_ok();
    let _unused: Option<FkSet> = None;
    let ok = rejected && short_rejected && full_accepted;
    report.push(Experiment::new(
        "E14",
        "\"about the query\" restriction (§1, Proposition 19)",
        "({E(x,y)}, {E[2]→E}) rejected; §1's q1 needs the AUTHORS atom",
        format!(
            "Prop 19 pair rejected: {rejected}; short q rejected: {short_rejected}; full q1 accepted: {full_accepted}"
        ),
        ok,
    ));
}

fn e15_generic_lemma15(report: &mut Report) {
    // The generic Appendix D.2 reduction, exercised on both Definition 9
    // witness kinds and verified against the oracle.
    let cases = [
        ("(3a)", "N[3,1] O[1,1]", "N(x,'c',y), O(y)", "N[3] -> O"),
        ("(3b)", "Np[2,1] O[1,1] T[2,1]", "Np(x,y), O(y), T(x,y)", "Np[2] -> O"),
    ];
    let graphs: [GraphCase; 3] = [
        (vec![0, 1, 2], vec![(0, 1), (1, 2)], 0, 2, true),
        (vec![0, 1, 2], vec![(0, 1)], 0, 2, false),
        (vec![0, 1, 2, 3], vec![(0, 1), (0, 2), (2, 3)], 0, 3, true),
    ];
    let mut ok = true;
    let mut lines = Vec::new();
    let oracle = CertaintyOracle::new();
    for (kind, schema_text, q_text, fks_text) in cases {
        let s = Arc::new(parse_schema(schema_text).unwrap());
        let q = parse_query(&s, q_text).unwrap();
        let fks = parse_fks(&s, fks_text).unwrap();
        let w = cqa_core::block_interference(&q, &fks).into_iter().next().unwrap();
        let mut agree = 0;
        for (vs, es, src, dst, reach) in &graphs {
            let db = cqa_core::lemma15_reduction(&q, &fks, &w, vs, es, *src, *dst).unwrap();
            if let Some(certain) = oracle.is_certain(&db, &q, &fks).as_bool() {
                if certain != *reach {
                    agree += 1;
                } else {
                    ok = false;
                }
            }
        }
        lines.push(format!("{kind}: {agree}/3 graphs"));
    }
    report.push(Experiment::new(
        "E15",
        "generic Lemma 15 reduction (Appendix D.2)",
        "for any block-interfering pair: db is a no-instance iff s \u{21dd} t",
        format!("oracle agreement {}", lines.join("; ")),
        ok,
    ));
}

fn e16_lemma14_invariance(report: &mut Report) {
    // Lemma 14's proof invariant on db_{R,S}: foreign keys do not change
    // certainty.
    let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
    let q = parse_query(&s, "R(x,y), S(y,x)").unwrap();
    let no_fk = FkSet::empty(s.clone());
    let with_fk = parse_fks(&s, "R[2] -> S").unwrap();
    let oracle = CertaintyOracle::new();
    let mut ok = true;
    let mut compared = 0;
    let sets: [PairSet; 4] = [
        (vec![(0, 0)], vec![(0, 0)]),
        (vec![(0, 0), (0, 1)], vec![(0, 0)]),
        (vec![(0, 1)], vec![(1, 0)]),
        (vec![(0, 0), (1, 1)], vec![(0, 0), (1, 1)]),
    ];
    for (r_pairs, s_pairs) in sets {
        let db = cqa_core::lemma14_instance(
            &q,
            RelName::new("R"),
            RelName::new("S"),
            &r_pairs,
            &s_pairs,
        )
        .unwrap();
        let base = oracle.is_certain(&db, &q, &no_fk).as_bool();
        let with = oracle.is_certain(&db, &q, &with_fk).as_bool();
        if let (Some(a), Some(b)) = (base, with) {
            compared += 1;
            ok &= a == b;
        }
    }
    report.push(Experiment::new(
        "E16",
        "Lemma 14 on db_{R,S} (Appendix C)",
        "adding foreign keys preserves certainty on the L-hardness instances",
        format!("{compared}/4 instance pairs compared, all invariant: {ok}"),
        ok,
    ));
}

