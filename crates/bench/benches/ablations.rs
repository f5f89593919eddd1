//! Ablation benches (design-choice experiments of DESIGN.md §3):
//!
//! * `guarded_vs_naive_fo` — the guarded top-down FO evaluator vs. plain
//!   active-domain evaluation of the same rewriting formula;
//! * `compiled_vs_interpreted` — the compiled evaluation core
//!   (slot bindings, pre-split guards, hash-indexed candidates) vs. the
//!   interpretive reference evaluator, on the same guarded formula; the
//!   `compile+eval` row includes the one-time compile step, the `eval`
//!   row reuses a precompiled formula;
//! * `plan_compiled_vs_materialized` — the view-backed `CompiledPlan`
//!   executor vs. the materializing `RewritePlan::answer` on the depth-2
//!   nested Lemma 45 workload (the interpreter renames and materializes a
//!   database per block fact per level; the compiled plan rebinds
//!   parameter slots over one lazy view stack);
//! * `delta_reanswer_vs_full` — a single-fact delta on the outer Lemma 45
//!   block (remove/reinsert one `N('c',∗)` fact, alternating), answered by
//!   `IncrementalSolver::reanswer` (cached residuals for the untouched
//!   block facts) vs. the same mutation followed by a full
//!   `Solver::solve`;
//! * `block_index` — conjunctive-query matching with the primary-key block
//!   index vs. a relation-scan emulation;
//! * `columnar_vs_row` — a single-column predicate scan over the cached
//!   [`cqa_model::ColumnarRelation`] projection (one contiguous `&[Cst]`
//!   slice) vs. the same scan over the row store's boxed-row iterator;
//! * `semijoin_vs_backtracking` — `CompiledQuery::satisfies_via` pinned to
//!   the Yannakakis semijoin evaluator vs. the backtracking search on the
//!   acyclic non-key join `{A(x,u), B(y,u)}` with disjoint `u`-value sets
//!   (unsatisfiable, so backtracking pays the full n² scan×scan loop).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cqa_attack::kw_rewrite;
use cqa_bench::{
    acyclic_join_instance, nested_l45_instance, nested_l45_plan, ACYCLIC_JOIN_QUERY,
    ACYCLIC_JOIN_SCHEMA,
};
use cqa_fo::eval::{eval_with, Strategy};
use cqa_fo::{interp, CompiledFormula};
use cqa_model::parser::{parse_query, parse_schema};
use cqa_model::{satisfies, CompiledQuery, Cst, Instance, JoinStrategy, RelName, Schema, Valuation};
use std::sync::Arc;

fn chain_db(s: &Arc<Schema>, n: usize) -> Instance {
    let mut db = Instance::new(s.clone());
    for i in 0..n {
        db.insert_named("R", &[&format!("a{i}"), &format!("b{i}")]).unwrap();
        db.insert_named("S", &[&format!("b{i}"), &format!("c{i}")]).unwrap();
    }
    db
}

fn bench_guarded_vs_naive(c: &mut Criterion) {
    let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
    let q = parse_query(&s, "R(x,y), S(y,z)").unwrap();
    let f = kw_rewrite(&q).unwrap();
    let mut group = c.benchmark_group("guarded_vs_naive_fo");
    group.sample_size(10);
    for n in [8usize, 32] {
        let db = chain_db(&s, n);
        group.bench_with_input(BenchmarkId::new("guarded", n), &db, |b, db| {
            b.iter(|| eval_with(db, &f, &Valuation::new(), Strategy::Guarded))
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &db, |b, db| {
            b.iter(|| eval_with(db, &f, &Valuation::new(), Strategy::Naive))
        });
    }
    group.finish();
}

fn bench_compiled_vs_interpreted(c: &mut Criterion) {
    let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
    let q = parse_query(&s, "R(x,y), S(y,z)").unwrap();
    let f = kw_rewrite(&q).unwrap();
    let compiled = CompiledFormula::compile(&f, Strategy::Guarded);
    let mut group = c.benchmark_group("compiled_vs_interpreted");
    group.sample_size(10);
    for n in [8usize, 64, 512] {
        let db = chain_db(&s, n);
        db.adom(); // build the lazy domains outside the timed loops
        group.bench_with_input(BenchmarkId::new("eval", n), &db, |b, db| {
            b.iter(|| compiled.eval_closed(db))
        });
        group.bench_with_input(BenchmarkId::new("compile+eval", n), &db, |b, db| {
            b.iter(|| CompiledFormula::compile(&f, Strategy::Guarded).eval_closed(db))
        });
        group.bench_with_input(BenchmarkId::new("interpreted", n), &db, |b, db| {
            b.iter(|| interp::eval_closed(db, &f))
        });
    }
    group.finish();
}

fn bench_plan_compiled_vs_materialized(c: &mut Criterion) {
    let (s, plan, compiled) = nested_l45_plan();
    let mut group = c.benchmark_group("plan_compiled_vs_materialized");
    group.sample_size(10);
    for n in [16usize, 64, 256] {
        let db = nested_l45_instance(&s, n);
        assert_eq!(plan.answer(&db), compiled.answer(&db), "executors agree");
        db.adom(); // build the lazy domains outside the timed loops
        group.bench_with_input(BenchmarkId::new("compiled", n), &db, |b, db| {
            b.iter(|| compiled.answer(db))
        });
        group.bench_with_input(BenchmarkId::new("materialized", n), &db, |b, db| {
            b.iter(|| plan.answer(db))
        });
    }
    group.finish();
}

fn bench_delta_reanswer_vs_full(c: &mut Criterion) {
    use cqa_bench::nested_l45_problem;
    use cqa_core::{ExecOptions, Solver};
    use cqa_model::parser::parse_fact;
    use cqa_model::Delta;

    let (s, _, _) = nested_l45_plan();
    let solver = Solver::builder(nested_l45_problem())
        .options(ExecOptions::sequential())
        .build()
        .expect("nested workload is FO");
    let toggled = parse_fact("N(c,y0)").unwrap();
    let mut remove = Delta::new();
    remove.remove(toggled.clone());
    let mut insert = Delta::new();
    insert.insert(toggled);
    let toggles = [remove, insert];

    let mut group = c.benchmark_group("delta_reanswer_vs_full");
    group.sample_size(10);
    for n in [64usize, 256] {
        // Both sides pay one single-fact mutation + one answer per
        // iteration; the delta between them is pure re-answering work.
        group.bench_with_input(BenchmarkId::new("full", n), &n, |b, &n| {
            let mut db = nested_l45_instance(&s, n);
            solver.solve(&db);
            let mut i = 0usize;
            b.iter(|| {
                let delta = &toggles[i % 2];
                i += 1;
                db.apply(delta).unwrap();
                solver.solve(&db).is_certain()
            })
        });
        group.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, &n| {
            let mut db = nested_l45_instance(&s, n);
            let mut session = solver.incremental();
            session.solve(&db);
            let mut i = 0usize;
            b.iter(|| {
                let delta = &toggles[i % 2];
                i += 1;
                session.reanswer(&mut db, delta).unwrap().is_certain()
            })
        });
    }
    group.finish();
}

/// Emulates CQ matching without the block index: join the atoms by scanning
/// full relations and filtering, the way an index-free engine would.
fn scan_join(db: &Instance, _q: &cqa_model::Query) -> bool {
    let r = cqa_model::RelName::new("R");
    let s_rel = cqa_model::RelName::new("S");
    for rf in db.facts_of(r) {
        for sf in db.facts_of(s_rel) {
            if rf.args[1] == sf.args[0] {
                return true;
            }
        }
    }
    false
}

fn bench_block_index(c: &mut Criterion) {
    let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
    let q = parse_query(&s, "R(x,y), S(y,z)").unwrap();
    let mut group = c.benchmark_group("block_index");
    group.sample_size(10);
    for n in [64usize, 512] {
        // Worst case for the scan: no join partner until the very end.
        let mut db = Instance::new(s.clone());
        for i in 0..n {
            db.insert_named("R", &[&format!("a{i}"), &format!("miss{i}")]).unwrap();
            db.insert_named("S", &[&format!("other{i}"), "z"]).unwrap();
        }
        db.insert_named("R", &["last", "hit"]).unwrap();
        db.insert_named("S", &["hit", "z"]).unwrap();

        group.bench_with_input(BenchmarkId::new("indexed", n), &db, |b, db| {
            b.iter(|| assert!(satisfies(db, &q)))
        });
        group.bench_with_input(BenchmarkId::new("scan", n), &db, |b, db| {
            b.iter(|| assert!(scan_join(db, &q)))
        });
    }
    group.finish();
}

fn bench_columnar_vs_row(c: &mut Criterion) {
    let s = Arc::new(parse_schema("R[2,1]").unwrap());
    let rel = RelName::new("R");
    let needle = Cst::new("hit");
    let mut group = c.benchmark_group("columnar_vs_row");
    group.sample_size(10);
    for n in [64usize, 512] {
        // Every 8th row carries the needle in the non-key position.
        let mut db = Instance::new(s.clone());
        for i in 0..n {
            let v = if i % 8 == 0 { "hit".to_string() } else { format!("v{i}") };
            db.insert_named("R", &[&format!("k{i}"), &v]).unwrap();
        }
        let columnar = db.index().columnar(rel).expect("R holds rows").clone();
        let expected = n.div_ceil(8);
        let col_count = || columnar.column(1).iter().filter(|&&c| c == needle).count();
        let row_count = || {
            db.facts_of(rel)
                .filter(|f| f.args[1] == needle)
                .count()
        };
        assert_eq!(col_count(), expected);
        assert_eq!(row_count(), expected);
        group.bench_with_input(BenchmarkId::new("columnar", n), &n, |b, _| {
            b.iter(col_count)
        });
        group.bench_with_input(BenchmarkId::new("row", n), &n, |b, _| b.iter(row_count));
    }
    group.finish();
}

fn bench_semijoin_vs_backtracking(c: &mut Criterion) {
    let s = Arc::new(parse_schema(ACYCLIC_JOIN_SCHEMA).unwrap());
    let q = parse_query(&s, ACYCLIC_JOIN_QUERY).unwrap();
    let cq = CompiledQuery::new(&q);
    assert!(cq.semijoin_plan().is_some(), "workload must be acyclic");
    let mut group = c.benchmark_group("semijoin_vs_backtracking");
    group.sample_size(10);
    for n in [8usize, 64, 512] {
        let db = acyclic_join_instance(&s, n);
        db.adom(); // build the lazy domains outside the timed loops
        assert!(!cq.satisfies_via(&db, JoinStrategy::Backtracking));
        assert!(!cq.satisfies_via(&db, JoinStrategy::Semijoin));
        group.bench_with_input(BenchmarkId::new("semijoin", n), &db, |b, db| {
            b.iter(|| cq.satisfies_via(db, JoinStrategy::Semijoin))
        });
        group.bench_with_input(BenchmarkId::new("backtracking", n), &db, |b, db| {
            b.iter(|| cq.satisfies_via(db, JoinStrategy::Backtracking))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_guarded_vs_naive,
    bench_compiled_vs_interpreted,
    bench_plan_compiled_vs_materialized,
    bench_delta_reanswer_vs_full,
    bench_block_index,
    bench_columnar_vs_row,
    bench_semijoin_vs_backtracking
);
criterion_main!(benches);
