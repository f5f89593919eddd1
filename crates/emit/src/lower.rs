//! Lowering classified routes to stratified Datalog.
//!
//! The input is a [`cqa_core::EmitSpec`] — the logical content of a
//! compiled [`cqa_core::Route`] — plus the instance whose facts the
//! artifact embeds; the output is one self-contained [`Program`] whose
//! zero-arity goal predicate (`cqa_certain` by default) is derivable iff
//! the instance is a yes-instance of `CERTAINTY(q, FK)`.
//!
//! Three lowerings, one per route:
//!
//! * **FO** ([`EmitSpec::Fo`]) — the flattened consistent rewriting is
//!   desugared (`→` to `∨¬`, `∀` to `¬∃¬`), α-renamed so every bound
//!   variable is unique, and translated one predicate per subformula: a
//!   predicate's relation is exactly the set of active-domain assignments
//!   to the subformula's free variables that satisfy it. Negation is
//!   guarded by the active-domain predicate `cqa_dom` (rules over every
//!   relation position, plus one fact per query constant — matching the
//!   evaluator's `adom(db) ∪ consts(q)` quantifier range), which keeps
//!   every rule range-restricted and the program stratified.
//! * **Proposition 16** ([`EmitSpec::Reachability`]) — the proof-sketch
//!   block graph as recursive rules: vertices are diagonal blocks, edges
//!   follow non-diagonal members, a vertex *escapes* when it reaches `⊥`
//!   (a member leaving the vertex set) or a cycle, and certainty is a
//!   marked vertex that does not escape.
//! * **Proposition 17** ([`EmitSpec::DualHorn`]) — the dual-Horn
//!   complement encoding, **flipped** into a definite (purely positive)
//!   Horn program over deletions: `cqa_del(p)` holds iff every repair that
//!   keeps `O(p)` available forces another deletion chain, and certainty
//!   is a deleted `O`-fact. The flip matters: the naive lowering
//!   (`del`/`blocked` through negation) is unstratified — see the
//!   `datalog-unstratified` fixture in `cqa-analyze`. Block-local clause
//!   bodies `q₁ ∧ … ∧ qₘ → p` are chained through per-block ordering
//!   facts (`cqa_qfirst`/`cqa_qsucc`/`cqa_qlast`, or `cqa_noq` for empty
//!   bodies) so rules stay fixed-arity while blocks have unbounded width.
//!
//! Derived predicates are prefixed `cqa_`; if a schema relation collides
//! with that prefix the lowering escalates to `cqa0_`, `cqa1_`, … (see
//! [`derived_prefix`]).

use cqa_analyze::datalog::{DAtom, DTerm, Literal, Program, Rule};
use cqa_core::EmitSpec;
use cqa_fo::Formula;
use cqa_model::{sort_by_name, Atom, Cst, Instance, RelName, Schema, Term, Var};
use std::collections::{BTreeMap, BTreeSet};

/// A lowered program plus the name of its zero-arity goal predicate.
#[derive(Clone, Debug)]
pub struct Lowered {
    /// The self-contained program (rules first, instance facts after).
    pub program: Program,
    /// The goal predicate: derivable iff the instance is a yes-instance.
    pub goal: String,
}

/// The prefix for derived (IDB) predicates: `cqa_`, escalated to `cqa0_`,
/// `cqa1_`, … until no schema relation starts with it, so emitted
/// predicates can never collide with instance relations.
pub fn derived_prefix(schema: &Schema) -> String {
    let rels: Vec<String> = schema.relations().map(|(r, _)| r.to_string()).collect();
    let mut i = 0usize;
    loop {
        let candidate = if i == 0 {
            "cqa_".to_string()
        } else {
            format!("cqa{}_", i - 1)
        };
        if !rels.iter().any(|r| r.starts_with(&candidate)) {
            return candidate;
        }
        i += 1;
    }
}

/// Lowers a route specification over `db` into one self-contained program:
/// route rules, then one ground fact per instance fact.
pub fn lower(spec: &EmitSpec, schema: &Schema, db: &Instance) -> Lowered {
    let prefix = derived_prefix(schema);
    let mut rules = Vec::new();
    match spec {
        EmitSpec::Fo { formula, .. } => lower_fo(formula, schema, &prefix, &mut rules),
        EmitSpec::Reachability { n, o } => lower_reachability(*n, *o, &prefix, &mut rules),
        EmitSpec::DualHorn { n, o, middle } => {
            lower_dual_horn(*n, *o, middle, db, &prefix, &mut rules)
        }
    }
    for fact in db.facts_by_name() {
        rules.push(Rule::fact(DAtom::new(
            fact.rel.to_string(),
            fact.args.iter().map(|c| cst(*c)).collect(),
        )));
    }
    Lowered {
        program: Program { rules },
        goal: format!("{prefix}certain"),
    }
}

fn cst(c: Cst) -> DTerm {
    DTerm::Cst(c.name().to_string())
}

/// The Datalog variable for a (renamed) formula variable: `V_` keeps the
/// name in variable position for any source spelling.
fn dvar(v: &Var) -> DTerm {
    DTerm::Var(format!("V_{v}"))
}

fn dterm(t: &Term) -> DTerm {
    match t {
        Term::Var(v) => dvar(v),
        Term::Cst(c) => cst(*c),
    }
}

// ---------------------------------------------------------------------------
// FO route
// ---------------------------------------------------------------------------

fn lower_fo(formula: &Formula, schema: &Schema, prefix: &str, rules: &mut Vec<Rule>) {
    let mut counter = 0usize;
    let mut env = BTreeMap::new();
    let prepared = prepare(formula, &mut env, &mut counter);

    let mut next = 0usize;
    let (root, root_vars) = emit_sub(&prepared, prefix, &mut next, rules);
    // Flattened rewritings are closed, so the goal body is zero-arity; an
    // open formula degrades gracefully to its existential closure.
    rules.push(Rule {
        head: DAtom::new(format!("{prefix}certain"), vec![]),
        body: vec![Literal::Pos(DAtom::new(
            root,
            root_vars.iter().map(dvar).collect(),
        ))],
    });

    // Active domain: every position of every relation, plus the formula's
    // constants — the evaluator's quantifier range `adom(db) ∪ consts(q)`.
    for (rel, sig) in schema.relations() {
        for i in 0..sig.arity {
            let args: Vec<DTerm> = (0..sig.arity)
                .map(|j| DTerm::Var(format!("A{j}")))
                .collect();
            rules.push(Rule {
                head: DAtom::new(format!("{prefix}dom"), vec![DTerm::Var(format!("A{i}"))]),
                body: vec![Literal::Pos(DAtom::new(rel.to_string(), args))],
            });
        }
    }
    let mut consts: Vec<Cst> = formula.consts().into_iter().collect();
    sort_by_name(&mut consts);
    for c in consts {
        rules.push(Rule::fact(DAtom::new(format!("{prefix}dom"), vec![cst(c)])));
    }
}

/// Desugars `Implies`/`Forall` away and α-renames every bound variable to
/// a fresh `v{k}`, so no variable is bound twice and no binding shadows
/// another — the per-subformula translation then never confuses scopes.
fn prepare(f: &Formula, env: &mut BTreeMap<Var, Var>, counter: &mut usize) -> Formula {
    let map_term = |t: &Term, env: &BTreeMap<Var, Var>| match t {
        Term::Var(v) => Term::Var(env.get(v).copied().unwrap_or(*v)),
        Term::Cst(c) => Term::Cst(*c),
    };
    match f {
        Formula::True => Formula::True,
        Formula::False => Formula::False,
        Formula::Atom(a) => Formula::Atom(Atom::new(
            a.rel,
            a.terms.iter().map(|t| map_term(t, env)).collect(),
        )),
        Formula::Eq(s, t) => Formula::Eq(map_term(s, env), map_term(t, env)),
        Formula::Not(g) => Formula::Not(Box::new(prepare(g, env, counter))),
        Formula::And(gs) => {
            Formula::And(gs.iter().map(|g| prepare(g, env, counter)).collect())
        }
        Formula::Or(gs) => Formula::Or(gs.iter().map(|g| prepare(g, env, counter)).collect()),
        Formula::Implies(l, r) => Formula::Or(vec![
            Formula::Not(Box::new(prepare(l, env, counter))),
            prepare(r, env, counter),
        ]),
        Formula::Exists(vs, g) => {
            let (fresh, saved) = bind_fresh(vs, env, counter);
            let body = prepare(g, env, counter);
            restore(saved, env);
            Formula::Exists(fresh, Box::new(body))
        }
        Formula::Forall(vs, g) => {
            let (fresh, saved) = bind_fresh(vs, env, counter);
            let body = prepare(g, env, counter);
            restore(saved, env);
            Formula::Not(Box::new(Formula::Exists(
                fresh,
                Box::new(Formula::Not(Box::new(body))),
            )))
        }
    }
}

type Saved = Vec<(Var, Option<Var>)>;

fn bind_fresh(vs: &[Var], env: &mut BTreeMap<Var, Var>, counter: &mut usize) -> (Vec<Var>, Saved) {
    let mut fresh = Vec::with_capacity(vs.len());
    let mut saved = Vec::with_capacity(vs.len());
    for v in vs {
        let name = format!("v{counter}");
        *counter += 1;
        let nv = Var::new(&name);
        fresh.push(nv);
        saved.push((*v, env.insert(*v, nv)));
    }
    (fresh, saved)
}

fn restore(saved: Saved, env: &mut BTreeMap<Var, Var>) {
    for (v, prev) in saved {
        match prev {
            Some(p) => {
                env.insert(v, p);
            }
            None => {
                env.remove(&v);
            }
        }
    }
}

/// Emits the rules defining one subformula's predicate and returns its
/// name together with its argument variables (the subformula's free
/// variables, sorted). Invariant: the predicate's relation in the least
/// model is exactly the set of active-domain assignments satisfying the
/// subformula.
fn emit_sub(
    f: &Formula,
    prefix: &str,
    next: &mut usize,
    rules: &mut Vec<Rule>,
) -> (String, Vec<Var>) {
    let idx = *next;
    *next += 1;
    let pred = format!("{prefix}sub{idx}");
    let mut vars: Vec<Var> = f.free_vars().into_iter().collect();
    sort_by_name(&mut vars);
    let head = DAtom::new(pred.clone(), vars.iter().map(dvar).collect());
    let dom = |v: &Var| {
        Literal::Pos(DAtom::new(format!("{prefix}dom"), vec![dvar(v)]))
    };
    match f {
        Formula::True => rules.push(Rule::fact(head)),
        Formula::False => {}
        Formula::Atom(a) => rules.push(Rule {
            head,
            body: vec![Literal::Pos(DAtom::new(
                a.rel.to_string(),
                a.terms.iter().map(dterm).collect(),
            ))],
        }),
        Formula::Eq(s, t) => match (s, t) {
            (Term::Var(x), Term::Var(y)) if x == y => rules.push(Rule {
                head,
                body: vec![dom(x)],
            }),
            (Term::Var(_), Term::Var(_)) => {
                // Two distinct free variables: the diagonal over the domain.
                let d = DTerm::Var("V".to_string());
                rules.push(Rule {
                    head: DAtom::new(pred.clone(), vec![d.clone(), d.clone()]),
                    body: vec![Literal::Pos(DAtom::new(format!("{prefix}dom"), vec![d]))],
                });
            }
            (Term::Var(_), Term::Cst(c)) | (Term::Cst(c), Term::Var(_)) => {
                rules.push(Rule::fact(DAtom::new(pred.clone(), vec![cst(*c)])));
            }
            (Term::Cst(c), Term::Cst(d)) => {
                if c == d {
                    rules.push(Rule::fact(head));
                }
            }
        },
        Formula::Not(g) => {
            let (gp, gv) = emit_sub(g, prefix, next, rules);
            let mut body: Vec<Literal> = vars.iter().map(dom).collect();
            body.push(Literal::Neg(DAtom::new(gp, gv.iter().map(dvar).collect())));
            rules.push(Rule { head, body });
        }
        Formula::And(gs) => {
            let mut body = Vec::with_capacity(gs.len());
            for g in gs {
                let (gp, gv) = emit_sub(g, prefix, next, rules);
                body.push(Literal::Pos(DAtom::new(gp, gv.iter().map(dvar).collect())));
            }
            rules.push(Rule { head, body });
        }
        Formula::Or(gs) => {
            for g in gs {
                let (gp, gv) = emit_sub(g, prefix, next, rules);
                let present: BTreeSet<Var> = gv.iter().copied().collect();
                let mut body = vec![Literal::Pos(DAtom::new(
                    gp,
                    gv.iter().map(dvar).collect(),
                ))];
                for v in &vars {
                    if !present.contains(v) {
                        body.push(dom(v));
                    }
                }
                rules.push(Rule {
                    head: head.clone(),
                    body,
                });
            }
        }
        Formula::Exists(_, g) => {
            let (gp, gv) = emit_sub(g, prefix, next, rules);
            rules.push(Rule {
                head,
                body: vec![Literal::Pos(DAtom::new(gp, gv.iter().map(dvar).collect()))],
            });
        }
        Formula::Implies(_, _) | Formula::Forall(_, _) => {
            unreachable!("prepare() desugars Implies and Forall")
        }
    }
    (pred, vars)
}

// ---------------------------------------------------------------------------
// Proposition 16 route (reachability)
// ---------------------------------------------------------------------------

fn lower_reachability(n: RelName, o: RelName, p: &str, rules: &mut Vec<Rule>) {
    let src = format!(
        "{p}vtx(X) :- {n}(X, X).\n\
         {p}edge(X, Y) :- {p}vtx(X), {n}(X, Y), {p}vtx(Y), X != Y.\n\
         {p}tobot(X) :- {p}vtx(X), {n}(X, Y), X != Y, not {p}vtx(Y).\n\
         {p}reach(X, Y) :- {p}edge(X, Y).\n\
         {p}reach(X, Z) :- {p}edge(X, Y), {p}reach(Y, Z).\n\
         {p}oncycle(X) :- {p}reach(X, X).\n\
         {p}esc(X) :- {p}tobot(X).\n\
         {p}esc(X) :- {p}oncycle(X).\n\
         {p}esc(X) :- {p}edge(X, Y), {p}esc(Y).\n\
         {p}marked(X) :- {p}vtx(X), {o}(X).\n\
         {p}certain :- {p}marked(X), not {p}esc(X).\n"
    );
    rules.extend(
        Program::parse(&src)
            .expect("reachability template parses")
            .rules,
    );
}

// ---------------------------------------------------------------------------
// Proposition 17 route (flipped dual-Horn)
// ---------------------------------------------------------------------------

fn lower_dual_horn(
    n: RelName,
    o: RelName,
    middle: &Cst,
    db: &Instance,
    p: &str,
    rules: &mut Vec<Rule>,
) {
    let c = cst(*middle);
    let src = format!(
        "{p}del(Y) :- {n}(I, {c}, Y), {p}noq(I).\n\
         {p}upto(I, Q) :- {p}qfirst(I, Q), {p}del(Q).\n\
         {p}upto(I, Q2) :- {p}upto(I, Q1), {p}qsucc(I, Q1, Q2), {p}del(Q2).\n\
         {p}del(Y) :- {n}(I, {c}, Y), {p}qlast(I, Q), {p}upto(I, Q).\n\
         {p}certain :- {o}(V), {p}del(V).\n"
    );
    rules.extend(
        Program::parse(&src)
            .expect("dual-Horn template parses")
            .rules,
    );
    // Per-block ordering EDB: the clause body `q₁ ∧ … ∧ qₘ` (the distinct
    // non-`c` third components of the block) as a chain, so the recursive
    // rules stay fixed-arity.
    for (key, qs) in block_chains(db, n, middle) {
        let i = cst(key);
        let qs: Vec<DTerm> = qs.into_iter().map(cst).collect();
        match qs.as_slice() {
            [] => rules.push(Rule::fact(DAtom::new(format!("{p}noq"), vec![i]))),
            [first @ .., last] => {
                let first_q = first.first().unwrap_or(last);
                rules.push(Rule::fact(DAtom::new(
                    format!("{p}qfirst"),
                    vec![i.clone(), first_q.clone()],
                )));
                for w in qs.windows(2) {
                    rules.push(Rule::fact(DAtom::new(
                        format!("{p}qsucc"),
                        vec![i.clone(), w[0].clone(), w[1].clone()],
                    )));
                }
                rules.push(Rule::fact(DAtom::new(
                    format!("{p}qlast"),
                    vec![i, last.clone()],
                )));
            }
        }
    }
}

/// Per-block dual-Horn clause bodies: for each `n`-block (keyed by its
/// first component), the distinct third components of the members whose
/// middle is *not* `middle`; blocks and components in name order. Shared
/// by the Datalog and SQL emitters so both artifacts encode the same
/// clauses.
pub(crate) fn block_chains(db: &Instance, n: RelName, middle: &Cst) -> Vec<(Cst, Vec<Cst>)> {
    let mut chains: Vec<(Cst, Vec<Cst>)> = db
        .blocks(n)
        .into_iter()
        .map(|(key, block)| {
            let mut qs: Vec<Cst> = block
                .iter()
                .filter(|f| f.args[1] != *middle)
                .map(|f| f.args[2])
                .collect();
            sort_by_name(&mut qs);
            qs.dedup();
            (key[0], qs)
        })
        .collect();
    sort_by_name(&mut chains);
    chains
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::evaluate;
    use cqa_core::{ExecOptions, Problem, Solver};
    use cqa_model::parser::{parse_fks, parse_instance, parse_query, parse_schema};
    use std::sync::Arc;

    fn solver_for(schema: &str, query: &str, fks: &str) -> (Arc<cqa_model::Schema>, Solver) {
        let s = Arc::new(parse_schema(schema).unwrap());
        let q = parse_query(&s, query).unwrap();
        let fks = parse_fks(&s, fks).unwrap();
        let solver = Solver::builder(Problem::new(q, fks).unwrap())
            .options(ExecOptions::sequential())
            .build()
            .unwrap();
        (s, solver)
    }

    /// The full differential loop: emit → print → re-parse → execute, and
    /// compare the goal against the solver's own verdict.
    fn exec_agrees(schema: &str, query: &str, fks: &str, dbs: &[&str]) {
        let (s, solver) = solver_for(schema, query, fks);
        let spec = solver.emit_spec().unwrap();
        for text in dbs {
            let db = parse_instance(&s, text).unwrap();
            let lowered = lower(&spec, &s, &db);
            let printed = lowered.program.to_string();
            let reparsed = Program::parse(&printed).expect("artifact re-parses");
            let ev = evaluate(&reparsed).expect("artifact is sound");
            assert_eq!(
                ev.holds(&lowered.goal),
                solver.solve(&db).is_certain(),
                "emit∘exec disagrees with solve on {text:?}\n{printed}"
            );
        }
    }

    #[test]
    fn reachability_lowering_matches_the_backend_on_the_prop16_vectors() {
        exec_agrees(
            cqa_solvers::prop16::SCHEMA,
            cqa_solvers::prop16::QUERY,
            cqa_solvers::prop16::FKS,
            &[
                "",
                "N(a,a) O(a)",
                "N(a,a)",
                "N(a,b)",
                "N(a,a) N(a,b) O(a)",
                "N(a,a) N(a,b) N(b,b) O(a)",
                "N(a,a) N(a,b) N(b,b) O(a) O(b)",
                "N(a,a) N(a,b) N(b,b) N(b,c) O(a)",
                "N(a,a) N(a,b) N(b,b) N(b,a) O(a)",
                "N(a,a) O(a) O(zz)",
                "N(a,a) N(b,b) O(a) O(b)",
                "N(a,a) N(a,b) N(b,b) N(b,c) N(c,c) O(a) O(c)",
                "N(a,a) N(a,e) N(w,w) N(w,e) O(a) O(w)",
                "N(a,a) N(a,b) N(b,c) N(c,c) O(a)",
                "N(a,b) N(a,c) O(a)",
                "N(a,a) N(a,b) N(b,b) N(b,a) N(c,c) O(a) O(c)",
            ],
        );
    }

    #[test]
    fn dual_horn_lowering_matches_the_backend_on_the_prop17_vectors() {
        exec_agrees(
            cqa_solvers::prop17::SCHEMA,
            cqa_solvers::prop17::QUERY,
            cqa_solvers::prop17::FKS,
            &[
                "",
                "O(1)",
                "N(i,c,1)",
                "N(i,c,1) O(1)",
                "N(i,c,1) N(i,d,2) O(1)",
                "N(i,c,1) N(i,d,2) O(1) O(2)",
                "N(b1,c,1) N(b1,d,2) N(b2,c,2) O(1)",
                "N(b1,c,1) N(b1,d,2) N(b2,d,3) O(1)",
                "N(b1,c,1) N(b1,d,2) N(b2,c,2) N(b2,d,3) O(1)",
                "N(b1,c,1) N(b1,c,2) O(1) O(2)",
                "N(b1,d,1) O(1)",
                "N(b1,c,1) N(b1,d,2) N(b1,e,3) N(b2,c,2) N(b3,c,3) O(1)",
            ],
        );
    }

    #[test]
    fn fo_lowering_matches_the_compiled_plan() {
        exec_agrees(
            "N[2,1] O[1,1] P[1,1]",
            "N('c',y), O(y), P(y)",
            "N[2] -> O",
            &[
                "",
                "N(c,a) O(a) P(a)",
                "N(c,a) N(c,b) O(a) P(a)",
                "N(c,a) N(c,b) O(a) P(a) P(b)",
                "N(c,a) N(c,b) O(a) O(b) P(a) P(b)",
                "N(d,a) O(a) P(a)",
                "O(a) P(a)",
            ],
        );
    }

    #[test]
    fn nested_fo_lowering_matches_the_compiled_plan() {
        exec_agrees(
            "N[2,1] M[2,1] Q[1,1] P[1,1] O[1,1]",
            "N('c',y), M(y,w), Q(w), P(w), O(y)",
            "N[2] -> O, M[2] -> Q",
            &[
                "",
                "N(c,a) M(a,u) Q(u) P(u) O(a)",
                "N(c,a) N(c,b) M(a,u) Q(u) P(u) O(a)",
                "N(c,a) M(a,u) M(a,v) Q(u) Q(v) P(u) O(a)",
                "N(c,a) M(a,u) M(a,v) Q(u) Q(v) P(u) P(v) O(a)",
                "N(c,a) M(a,u) Q(u) O(a)",
            ],
        );
    }

    #[test]
    fn emitted_programs_audit_clean() {
        for (schema, query, fks, db_text) in [
            (
                cqa_solvers::prop16::SCHEMA,
                cqa_solvers::prop16::QUERY,
                cqa_solvers::prop16::FKS,
                "N(a,a) N(a,b) O(a)",
            ),
            (
                cqa_solvers::prop17::SCHEMA,
                cqa_solvers::prop17::QUERY,
                cqa_solvers::prop17::FKS,
                "N(i,c,1) N(i,d,2) O(1)",
            ),
            (
                "N[2,1] O[1,1] P[1,1]",
                "N('c',y), O(y), P(y)",
                "N[2] -> O",
                "N(c,a) O(a) P(a)",
            ),
        ] {
            let (s, solver) = solver_for(schema, query, fks);
            let db = parse_instance(&s, db_text).unwrap();
            let lowered = lower(&solver.emit_spec().unwrap(), &s, &db);
            let report = cqa_analyze::audit_program(&lowered.program);
            assert!(report.is_clean(), "{report}");
        }
    }

    #[test]
    fn derived_prefix_escalates_on_collision() {
        let plain = Arc::new(parse_schema("N[2,1] O[1,1]").unwrap());
        assert_eq!(derived_prefix(&plain), "cqa_");
        let clash = Arc::new(parse_schema("cqa_dom[1,1] O[1,1]").unwrap());
        assert_eq!(derived_prefix(&clash), "cqa0_");
    }
}
