//! The compiled, view-backed executor of a [`RewritePlan`]: one
//! [`CompiledPlan`] is built at classification time and then answers any
//! number of databases (and, for parameterized residual plans, any number
//! of bindings) **without materializing a single intermediate
//! [`Instance`]**.
//!
//! The interpretive [`RewritePlan::answer`] realizes each reduction step as
//! a fresh database: Lemma 37/40 copy the surviving facts, and Lemma 45
//! builds a fully renamed instance *per block fact* before recursing — a
//! depth-`d` plan over `b`-fact blocks materializes `O(b^d)` databases and
//! rebuilds every index from scratch. The compiled form keeps the same
//! step structure but executes it lazily:
//!
//! * reduction steps become [`cqa_model::InstanceView`] transformations —
//!   relation hiding plus per-relation block filters whose predicates
//!   (block relevance for Lemma 37, non-danglingness for Lemma 40) are
//!   evaluated through the view with compiled, parameterized queries;
//! * the Koutris–Wijsen tail is the precompiled formula evaluated over the
//!   view through [`CompiledFormula::eval_params`];
//! * a Lemma 45 tail holds the residual plan compiled **once** with the
//!   block-fact binding `θ(⃗x)` as *parameter slots*. Where the
//!   interpretive path renames the database per fact so that the one
//!   generic residual plan applies, the compiled path uses the same
//!   construction as [`crate::flatten`]: the residual problem is rebuilt
//!   with `⃗x` frozen as distinct parameter constants ([`Cst::param`]),
//!   compiled recursively, and evaluated per fact by rebinding the
//!   parameter slots — the paper's injective-renaming argument is exactly
//!   what justifies substituting concrete values for the generic
//!   parameters (`flatten ≡ answer` pins this equivalence in the test
//!   suites, and the differential property tests pit `CompiledPlan`
//!   against the materializing evaluator directly).
//!
//! The interpretive `RewritePlan::answer` stays untouched as the
//! differential-testing oracle, mirroring the `cqa-fo::interp` split of the
//! formula evaluators.
//!
//! Execution is sequential: one evaluation walks the view stack on the
//! calling thread. A compiled plan is `Send + Sync` and evaluation only
//! reads it, so parallelism lives one level up — [`crate::Solver::solve_many`]
//! and [`crate::certain_answers_with`] shard their batches across threads
//! over one shared plan.
//!
//! Compilation can fail ([`CompileError`]) in the rare case where the
//! frozen residual problem falls outside the pipeline's invariants (the
//! same cases where [`crate::flatten`] fails); the [`crate::Solver`] then
//! falls back to the interpretive evaluator.

use crate::pipeline::{RewritePlan, StepAction, Tail};
use crate::problem::Problem;
use cqa_analyze::{AuditReport, L45Ir, OpIr, PatIr, PlanIr, QueryIr, ReadSet, TailIr};
use cqa_fo::{CompiledFormula, Strategy};
use cqa_model::{
    sort_by_name, CompiledQuery, Cst, Delta, ForeignKey, Instance, InstanceView, JoinStrategy,
    ReadLog, RelName, Schema, Term, Var,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Why a plan could not be compiled into its view-backed executable form.
#[derive(Clone, Debug)]
pub struct CompileError(pub String);

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot compile plan: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

/// A term of a compiled Lemma 45 atom pattern.
#[derive(Clone, Copy, Debug)]
enum PatTerm {
    /// A literal constant of the (frozen) query.
    Cst(Cst),
    /// A parameter of an enclosing Lemma 45 binding: index into the
    /// argument slice.
    Param(usize),
    /// A variable of this step's binding `⃗x`: index into the values
    /// extracted from the current block fact.
    X(usize),
}

/// One non-identity reduction step in compiled form: hide the removed
/// relation and keep only the source blocks passing the step's predicate.
#[derive(Clone, Debug)]
enum CompiledOp {
    /// Lemma 37: keep the blocks of `filter` relevant for `q^FK_R`.
    FilterRelevant {
        drop: RelName,
        filter: RelName,
        relevance: CompiledQuery,
        /// Index of the `filter`-atom inside `relevance`.
        anchor: usize,
    },
    /// Lemma 40: keep the blocks of `filter` containing a fact non-dangling
    /// w.r.t. `outgoing`.
    FilterNonDangling {
        drop: RelName,
        filter: RelName,
        outgoing: Vec<ForeignKey>,
    },
}

/// The compiled terminal stage.
#[derive(Clone, Debug)]
enum CompiledTail {
    /// The Koutris–Wijsen formula with its free (parameter) variables
    /// mapped into the argument slice.
    Kw {
        formula: CompiledFormula,
        /// `free_map[i]` = argument index of the formula's `i`-th free var.
        free_map: Vec<usize>,
    },
    /// A Lemma 45 branch.
    Lemma45(Box<CompiledLemma45>),
}

/// The compiled Lemma 45 reduction: match the constant-keyed block of
/// `rel`, extract `θ(⃗x)` per fact, and evaluate the parameter-compiled
/// residual plan under the extended argument slice.
#[derive(Clone, Debug)]
struct CompiledLemma45 {
    rel: RelName,
    /// The ground key of the block (constants and enclosing parameters).
    key: Vec<PatTerm>,
    /// The full-arity match pattern of `N(⃗c, ⃗t)`.
    pattern: Vec<PatTerm>,
    /// Number of binding variables `⃗x` (appended to the arguments, in the
    /// canonical order of [`crate::pipeline::Lemma45Step::xs`]).
    n_xs: usize,
    /// `FK[N→]` for the non-dangling witness test.
    outgoing: Vec<ForeignKey>,
    /// The residual plan, compiled with `params ++ ⃗x` as parameters.
    sub: CompiledPlan,
}

/// An end-to-end executable form of a [`RewritePlan`]: compile once, then
/// [`CompiledPlan::answer`] any number of databases through lazy
/// [`InstanceView`]s. See the module docs.
#[derive(Clone, Debug)]
pub struct CompiledPlan {
    /// The schema of the (possibly frozen) query at this level — kept for
    /// static analysis (audits and read-set inference are schema-driven).
    schema: Arc<Schema>,
    /// The relations of the (possibly frozen) query at this level; the
    /// initial view restriction.
    rels: BTreeSet<RelName>,
    ops: Vec<CompiledOp>,
    tail: CompiledTail,
    n_params: usize,
    /// How acyclic conjunctions execute at every level — the KW tail, the
    /// filter steps' relevance matchers, and nested residual plans are all
    /// compiled for (and routed through) this one strategy.
    join: JoinStrategy,
}

impl CompiledPlan {
    /// Compiles `plan` under [`JoinStrategy::Auto`]. Fails when a frozen residual problem
    /// cannot be rebuilt (the same cases where [`crate::flatten`] fails).
    pub fn compile(plan: &RewritePlan) -> Result<CompiledPlan, CompileError> {
        CompiledPlan::compile_parameterized(plan, &[])
    }

    /// [`CompiledPlan::compile`] with an explicit join strategy for the
    /// plan's residual conjunctions (KW tail quantifier groups, filter-step
    /// relevance matchers, nested Lemma 45 residuals).
    pub fn compile_with(
        plan: &RewritePlan,
        join: JoinStrategy,
    ) -> Result<CompiledPlan, CompileError> {
        CompiledPlan::compile_parameterized_with(plan, &[], join)
    }

    /// Compiles `plan` with the given *parameters*: variables frozen as
    /// [`Cst::param`] constants inside the plan's queries and formulas
    /// compile to argument-slice positions, so one compiled plan serves
    /// every binding of the parameters (the `certain_answers` fast path
    /// compiles the query once with its free variables as parameters).
    pub fn compile_parameterized(
        plan: &RewritePlan,
        params: &[Var],
    ) -> Result<CompiledPlan, CompileError> {
        CompiledPlan::compile_parameterized_with(plan, params, JoinStrategy::Auto)
    }

    /// The fully explicit compile entry point: parameters plus join
    /// strategy.
    pub fn compile_parameterized_with(
        plan: &RewritePlan,
        params: &[Var],
        join: JoinStrategy,
    ) -> Result<CompiledPlan, CompileError> {
        let rels: BTreeSet<RelName> = plan.problem.query().relations().collect();
        let mut ops = Vec::new();
        for step in &plan.steps {
            match &step.action {
                StepAction::DropTrivial { .. }
                | StepAction::CloseStar { .. }
                | StepAction::DropWeak { .. }
                | StepAction::RemoveDD { .. } => {} // identity reductions
                StepAction::RemoveOO {
                    fk,
                    relevance_query,
                } => {
                    let relevance = CompiledQuery::with_params(relevance_query, params);
                    let anchor = relevance.atom_index(fk.from).ok_or_else(|| {
                        CompileError(format!("{} missing from its relevance query", fk.from))
                    })?;
                    ops.push(CompiledOp::FilterRelevant {
                        drop: fk.to,
                        filter: fk.from,
                        relevance,
                        anchor,
                    });
                }
                StepAction::RemoveDO { fk, outgoing } => {
                    ops.push(CompiledOp::FilterNonDangling {
                        drop: fk.to,
                        filter: fk.from,
                        outgoing: outgoing.clone(),
                    });
                }
            }
        }
        let tail = match &plan.tail {
            Tail::Kw { formula, .. } => {
                // Recompile the rewriting under the requested join strategy
                // (the plan-build-time compile used the process default).
                // The compiled formula's free variables are exactly the
                // unfrozen parameters (`kw_rewrite` unfreezes on exit); map
                // each into the argument slice.
                let formula = CompiledFormula::compile_with(formula, Strategy::Guarded, join);
                let mut free_map = Vec::new();
                for v in formula.free_vars() {
                    let i = params.iter().position(|&p| p == v).ok_or_else(|| {
                        CompileError(format!("free variable {v} is not a parameter"))
                    })?;
                    free_map.push(i);
                }
                CompiledTail::Kw { formula, free_map }
            }
            Tail::Lemma45(step) => {
                // Rebuild the residual problem with ⃗x frozen as distinct
                // parameter constants (the construction validated by
                // `flatten ≡ answer`), then compile it with the extended
                // parameter list.
                let frozen_q0 = step.q0.freeze(&step.xs.iter().copied().collect());
                let sub_problem =
                    Problem::new(frozen_q0, step.fk0.clone()).map_err(|e| {
                        CompileError(format!("frozen residual problem invalid: {e}"))
                    })?;
                let sub_plan = RewritePlan::build(&sub_problem).map_err(|e| {
                    CompileError(format!("frozen residual plan failed: {e}"))
                })?;
                let mut sub_params = params.to_vec();
                sub_params.extend(step.xs.iter().copied());
                let sub = CompiledPlan::compile_parameterized_with(&sub_plan, &sub_params, join)?;

                let sig = step
                    .q0
                    .schema()
                    .signature(step.n_atom.rel)
                    .ok_or_else(|| CompileError(format!("unknown relation {}", step.n_atom.rel)))?;
                let pattern = compile_pattern(&step.n_atom.terms, params, &step.xs)?;
                let key = pattern[..sig.key_len].to_vec();
                if key.iter().any(|t| matches!(t, PatTerm::X(_))) {
                    return Err(CompileError(format!(
                        "Lemma 45 atom {} has a non-ground key",
                        step.n_atom
                    )));
                }
                CompiledTail::Lemma45(Box::new(CompiledLemma45 {
                    rel: step.n_atom.rel,
                    key,
                    pattern,
                    n_xs: step.xs.len(),
                    outgoing: step.outgoing.clone(),
                    sub,
                }))
            }
        };
        let compiled = CompiledPlan {
            schema: plan.problem.query().schema().clone(),
            rels,
            ops,
            tail,
            n_params: params.len(),
            join,
        };
        #[cfg(debug_assertions)]
        {
            let report = compiled.audit();
            debug_assert!(
                report.is_clean(),
                "compiled plan failed its IR audit:\n{report}"
            );
        }
        Ok(compiled)
    }

    /// Converts the compiled plan (and, recursively, its residual plans)
    /// into the neutral `cqa-analyze` IR.
    pub fn to_ir(&self) -> PlanIr {
        PlanIr {
            schema: self.schema.clone(),
            rels: self.rels.clone(),
            ops: self.ops.iter().map(CompiledOp::to_ir).collect(),
            tail: match &self.tail {
                CompiledTail::Kw { formula, free_map } => TailIr::Kw {
                    formula: formula.to_ir(),
                    free_map: free_map.clone(),
                },
                CompiledTail::Lemma45(l) => TailIr::Lemma45(Box::new(L45Ir {
                    rel: l.rel,
                    key: l.key.iter().copied().map(PatTerm::to_ir).collect(),
                    pattern: l.pattern.iter().copied().map(PatTerm::to_ir).collect(),
                    n_xs: l.n_xs,
                    outgoing: l.outgoing.clone(),
                    sub: l.sub.to_ir(),
                })),
            },
            n_params: self.n_params,
        }
    }

    /// Audits the compiled plan's IR invariants — schema conformance,
    /// parameter composition across nested Lemma 45 levels, ground probe
    /// keys, and every embedded formula and relevance query (see
    /// `cqa_analyze::checks`). Run behind `debug_assert!` at every compile;
    /// callable explicitly for reports (`cqa analyze`).
    pub fn audit(&self) -> AuditReport {
        cqa_analyze::audit_plan(&self.to_ir())
    }

    /// The statically inferred read-set: the exact (relation, block-key)
    /// pairs this plan can touch. Sound — any fact able to influence the
    /// answer lands in a covered block — and strictly tighter than
    /// [`CompiledPlan::reads`] whenever a Lemma 45 tail probes a ground
    /// key: there the block relation contributes `blocks {key}` instead of
    /// a whole-relation read, so the incremental solver can ignore deltas
    /// to that relation's *other* blocks.
    pub fn read_set(&self) -> ReadSet {
        cqa_analyze::readset::infer(&self.to_ir())
    }

    /// [`CompiledPlan::answer`] with every view probe recorded into `log` —
    /// the instrumentation side of the read-set soundness tests.
    pub fn answer_traced(&self, db: &Instance, log: &Arc<ReadLog>) -> bool {
        assert_eq!(self.n_params, 0, "tracing answers parameterless plans");
        let view = InstanceView::new(db).with_read_log(log.clone());
        self.eval(&view, &[])
    }

    /// Number of parameters this plan expects.
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// The join strategy the plan was compiled with.
    pub fn join_strategy(&self) -> JoinStrategy {
        self.join
    }

    /// Whether any level of the plan holds a compiled Yannakakis route an
    /// evaluation could take — a semijoin-eligible KW quantifier group, an
    /// acyclic filter-step relevance query, or a nested residual with
    /// either. Always `false` under [`JoinStrategy::Backtracking`], where
    /// the routes are not even compiled.
    pub fn uses_semijoin(&self) -> bool {
        if self.join == JoinStrategy::Backtracking {
            return false;
        }
        self.ops.iter().any(|op| match op {
            CompiledOp::FilterRelevant { relevance, .. } => relevance.semijoin_plan().is_some(),
            CompiledOp::FilterNonDangling { .. } => false,
        }) || match &self.tail {
            CompiledTail::Kw { formula, .. } => formula.uses_semijoin(),
            CompiledTail::Lemma45(l) => l.sub.uses_semijoin(),
        }
    }

    /// Total number of compiled levels (this plan plus nested Lemma 45
    /// residuals).
    pub fn depth(&self) -> usize {
        1 + match &self.tail {
            CompiledTail::Kw { .. } => 0,
            CompiledTail::Lemma45(l) => l.sub.depth(),
        }
    }

    /// Evaluates the plan: is `db` a yes-instance of `CERTAINTY(q, FK)`?
    /// Requires a parameterless plan.
    pub fn answer(&self, db: &Instance) -> bool {
        self.answer_with(db, &[])
    }

    /// Evaluates a parameterized plan under the given argument values (one
    /// per parameter, in [`CompiledPlan::compile_parameterized`] order).
    pub fn answer_with(&self, db: &Instance, args: &[Cst]) -> bool {
        assert_eq!(args.len(), self.n_params, "one argument per parameter");
        self.eval(&InstanceView::new(db), args)
    }

    /// The relations this plan may read, at any nesting level. Every level
    /// starts by restricting the incoming view to its own relation set, and
    /// residual levels receive an already-restricted view, so the top-level
    /// set is a sound overapproximation of everything the whole plan (ops
    /// predicates, non-dangling probes, tail formula, nested residuals)
    /// can observe. A delta confined to other relations cannot change the
    /// answer.
    pub fn reads(&self) -> &BTreeSet<RelName> {
        &self.rels
    }

    /// Delta-localization probe: `Some(rel)` when this parameterless plan
    /// is a bare Lemma 45 universal over one constant-keyed block of `rel`
    /// and `rel` is read **nowhere else** — no filter ops precede the tail,
    /// the residual plan never reads `rel`, and no foreign key of the step
    /// points back into `rel`. In that shape the plan reads `rel` only
    /// through `block_rows(rel, key)`: the answer is a conjunction over the
    /// rows of that one block, and each row's part of it (its non-dangling
    /// flag and its residual verdict) depends only on the row's content
    /// and on the blocks of *other* relations its evaluation probes. That
    /// is what lets an incremental session maintain the answer row by row
    /// ([`crate::IncrementalSolver`]): a delta re-evaluates only the rows
    /// it inserts into the block and the rows whose recorded probes it
    /// touches. `None` means every delta touching the plan's reads needs a
    /// full re-answer (detected, never stale).
    pub fn localizable_rel(&self) -> Option<RelName> {
        if self.n_params != 0 || !self.ops.is_empty() {
            return None;
        }
        let CompiledTail::Lemma45(l) = &self.tail else {
            return None;
        };
        if l.key.iter().any(|t| !matches!(t, PatTerm::Cst(_))) {
            return None;
        }
        if l.sub.rels.contains(&l.rel) || l.outgoing.iter().any(|fk| fk.to == l.rel) {
            return None;
        }
        Some(l.rel)
    }

    /// Evaluates every row of a [`CompiledPlan::localizable_rel`] plan's
    /// block in `db` into a fresh [`BlockState`]; `None` when the plan is
    /// not localizable.
    pub(crate) fn block_state(&self, db: &Instance) -> Option<BlockState<'_>> {
        self.localizable_rel()?;
        let CompiledTail::Lemma45(tail) = &self.tail else {
            unreachable!("localizable plans have a Lemma 45 tail");
        };
        let key = tail
            .key
            .iter()
            .map(|t| match t {
                PatTerm::Cst(c) => *c,
                _ => unreachable!("localizable keys are ground constants"),
            })
            .collect();
        let mut state = BlockState {
            tail,
            rels: &self.rels,
            key,
            rows: HashMap::new(),
            readers: HashMap::new(),
            non_dangling: 0,
            failing: 0,
        };
        let view = InstanceView::new(db).restrict(&self.rels);
        let block = view.block_rows(tail.rel, &state.key);
        state.refresh(db, block.into_iter().map(Arc::from));
        Some(state)
    }

    /// Evaluates over a view (already reduced by enclosing levels).
    fn eval(&self, base: &InstanceView<'_>, args: &[Cst]) -> bool {
        let mut view = base.clone().restrict(&self.rels);
        for op in &self.ops {
            view = op.apply(view, args, self.join);
        }
        match &self.tail {
            CompiledTail::Kw { formula, free_map } => {
                let bound: Vec<Cst> = free_map.iter().map(|&i| args[i]).collect();
                formula.eval_params(&view, &bound)
            }
            CompiledTail::Lemma45(l) => l.eval(&view, args),
        }
    }
}

impl PatTerm {
    fn to_ir(self) -> PatIr {
        match self {
            PatTerm::Cst(c) => PatIr::Cst(c),
            PatTerm::Param(i) => PatIr::Param(i),
            PatTerm::X(k) => PatIr::X(k),
        }
    }
}

/// Compiles the terms of a (frozen) Lemma 45 atom into a match pattern.
fn compile_pattern(
    terms: &[Term],
    params: &[Var],
    xs: &[Var],
) -> Result<Vec<PatTerm>, CompileError> {
    terms
        .iter()
        .map(|t| match t {
            Term::Cst(c) => match c.as_param() {
                Some(v) => match params.iter().position(|&p| p == v) {
                    Some(i) => Ok(PatTerm::Param(i)),
                    None => Ok(PatTerm::Cst(*c)),
                },
                None => Ok(PatTerm::Cst(*c)),
            },
            Term::Var(v) => match xs.iter().position(|&x| x == *v) {
                Some(i) => Ok(PatTerm::X(i)),
                None => Err(CompileError(format!(
                    "variable {v} of a Lemma 45 atom is not in its binding"
                ))),
            },
        })
        .collect()
}

impl CompiledOp {
    fn to_ir(&self) -> OpIr {
        match self {
            CompiledOp::FilterRelevant {
                drop,
                filter,
                relevance,
                anchor,
            } => OpIr::FilterRelevant {
                drop: *drop,
                filter: *filter,
                relevance: QueryIr::from(relevance),
                anchor: *anchor,
            },
            CompiledOp::FilterNonDangling {
                drop,
                filter,
                outgoing,
            } => OpIr::FilterNonDangling {
                drop: *drop,
                filter: *filter,
                outgoing: outgoing.clone(),
            },
        }
    }

    /// Applies the step to the view: evaluates the block predicate over the
    /// *incoming* view (the reductions read the pre-step database), then
    /// hides the removed relation and installs the surviving-block filter.
    fn apply<'a>(
        &self,
        view: InstanceView<'a>,
        args: &[Cst],
        join: JoinStrategy,
    ) -> InstanceView<'a> {
        let mut keys: HashSet<Box<[Cst]>> = HashSet::new();
        let (drop, filter) = match self {
            CompiledOp::FilterRelevant {
                drop,
                filter,
                relevance,
                anchor,
            } => {
                let mut matcher = relevance.anchored_matcher_via(*anchor, args, join);
                for (key, rows) in view.blocks(*filter) {
                    if rows.iter().any(|row| matcher.matches(&view, row)) {
                        keys.insert(key.into());
                    }
                }
                (*drop, *filter)
            }
            CompiledOp::FilterNonDangling {
                drop,
                filter,
                outgoing,
            } => {
                for (key, rows) in view.blocks(*filter) {
                    if rows.iter().any(|row| non_dangling(&view, row, outgoing)) {
                        keys.insert(key.into());
                    }
                }
                (*drop, *filter)
            }
        };
        view.hide(drop).with_block_filter(filter, keys)
    }
}

/// Whether the row is non-dangling w.r.t. every key of `outgoing` in the
/// view (the referenced block is visible and non-empty).
fn non_dangling(view: &InstanceView<'_>, row: &[Cst], outgoing: &[ForeignKey]) -> bool {
    outgoing.iter().all(|fk| match row.get(fk.pos - 1) {
        Some(&v) => view.block_nonempty(fk.to, &[v]),
        None => false,
    })
}

impl CompiledLemma45 {
    fn eval(&self, view: &InstanceView<'_>, args: &[Cst]) -> bool {
        let key: Vec<Cst> = self
            .key
            .iter()
            .map(|t| match t {
                PatTerm::Cst(c) => *c,
                PatTerm::Param(i) => args[*i],
                PatTerm::X(_) => unreachable!("checked ground at compile time"),
            })
            .collect();
        let block = view.block_rows(self.rel, &key);
        if block.is_empty() {
            return false;
        }
        if !block
            .iter()
            .any(|row| non_dangling(view, row, &self.outgoing))
        {
            return false;
        }
        // The answer is a universal over the block facts; the slot buffers
        // are allocated once and reused across them.
        let mut sub_args: Vec<Cst> = Vec::with_capacity(args.len() + self.n_xs);
        let mut xs_vals: Vec<Option<Cst>> = vec![None; self.n_xs];
        block
            .iter()
            .all(|row| self.eval_row(view, args, row, &mut xs_vals, &mut sub_args))
    }

    /// One block fact: match it against `N(⃗c, ⃗t)` (a repair may keep a
    /// non-matching fact of the block, falsifying q), extract `θ(⃗x)`, and
    /// evaluate the residual plan. `xs_vals` and `sub_args` are reusable
    /// caller buffers (cleared here).
    fn eval_row(
        &self,
        view: &InstanceView<'_>,
        args: &[Cst],
        row: &[Cst],
        xs_vals: &mut [Option<Cst>],
        sub_args: &mut Vec<Cst>,
    ) -> bool {
        xs_vals.iter_mut().for_each(|v| *v = None);
        for (i, t) in self.pattern.iter().enumerate() {
            let cell = row[i];
            let ok = match t {
                PatTerm::Cst(c) => cell == *c,
                PatTerm::Param(p) => cell == args[*p],
                PatTerm::X(k) => match xs_vals[*k] {
                    None => {
                        xs_vals[*k] = Some(cell);
                        true
                    }
                    Some(prev) => prev == cell,
                },
            };
            if !ok {
                return false;
            }
        }
        sub_args.clear();
        sub_args.extend_from_slice(args);
        sub_args.extend(xs_vals.iter().map(|v| v.expect("⃗x covers the atom")));
        self.sub.eval(view, sub_args)
    }
}

/// One probe of a row evaluation, as a [`ReadLog`] records it:
/// `(relation, Some(block key))`, or `(relation, None)` for a scan of the
/// whole relation.
type Probe = (RelName, Option<Vec<Cst>>);

/// What a [`BlockState`] knows about one row of the block.
#[derive(Debug)]
struct TrackedRow {
    non_dangling: bool,
    /// The row's residual verdict ([`CompiledLemma45::eval_row`]).
    holds: bool,
    /// Every probe the row's last evaluation made.
    probes: Vec<Probe>,
}

/// The maintained answer of a [`CompiledPlan::localizable_rel`] plan —
/// counting-based view maintenance (Gupta–Mumick–Subrahmanian, SIGMOD
/// 1993) of the Lemma 45 universal over the block `N(c⃗, ·)`.
///
/// For every row currently in the block the state holds the row's
/// non-dangling flag, its residual verdict and the probes that produced
/// them; three counts fold those into the answer `rows > 0 ∧
/// non_dangling > 0 ∧ failing = 0` (the same conjunction
/// [`CompiledLemma45::eval`] computes). A dependency index inverts the
/// probes into `(relation, key) → rows`, so a delta re-evaluates only the
/// rows it adds to the block and the rows whose probes cover a block it
/// changes; a row that scanned a whole relation depends on every fact of
/// it. Rows that leave the block are dropped with their index entries, so
/// the state is bounded by the live block.
#[derive(Debug)]
pub(crate) struct BlockState<'p> {
    tail: &'p CompiledLemma45,
    /// The plan's view restriction.
    rels: &'p BTreeSet<RelName>,
    key: Box<[Cst]>,
    rows: HashMap<Arc<[Cst]>, TrackedRow>,
    readers: HashMap<Probe, HashSet<Arc<[Cst]>>>,
    non_dangling: usize,
    failing: usize,
}

impl BlockState<'_> {
    /// The plan's answer on the instance the state was last brought up to
    /// date with.
    pub(crate) fn answer(&self) -> bool {
        !self.rows.is_empty() && self.non_dangling > 0 && self.failing == 0
    }

    /// The number of tracked rows — the rows of the block.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The tracked rows, and every row some dependency index entry names.
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> (BTreeSet<&[Cst]>, BTreeSet<&[Cst]>) {
        let tracked = self.rows.keys().map(|r| &**r).collect();
        let indexed = self.readers.values().flatten().map(|r| &**r).collect();
        (tracked, indexed)
    }

    /// Brings the state up to date after `delta` was applied to `db`, which
    /// must be the instance the state was last brought up to date with.
    /// Returns the number of rows evaluated.
    pub(crate) fn apply(&mut self, db: &Instance, delta: &Delta) -> usize {
        let mut dirty: Vec<Arc<[Cst]>> = Vec::new();
        for op in delta.ops() {
            let fact = op.fact();
            if fact.rel == self.tail.rel {
                // Localizability: the plan reads `rel` nowhere but this
                // block, so ops on its other blocks change nothing.
                if fact.args.starts_with(&self.key) {
                    dirty.push(Arc::from(&*fact.args));
                }
                continue;
            }
            let key_len = db.schema().signature(fact.rel).map_or(0, |s| s.key_len);
            let key = fact.args[..key_len.min(fact.args.len())].to_vec();
            for probe in [(fact.rel, None), (fact.rel, Some(key))] {
                if let Some(rows) = self.readers.get(&probe) {
                    dirty.extend(rows.iter().cloned());
                }
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        self.refresh(db, dirty)
    }

    /// Drops the state of each (distinct) `dirty` row and re-evaluates the
    /// ones still present in `db`: insert-then-remove, a no-op insert or a
    /// remove of an absent fact all reconcile by final presence. Returns
    /// the number of rows evaluated.
    fn refresh(&mut self, db: &Instance, dirty: impl IntoIterator<Item = Arc<[Cst]>>) -> usize {
        let mut present = Vec::new();
        for row in dirty {
            self.untrack(&row);
            if db.index().contains(self.tail.rel, &row) {
                present.push(row);
            }
        }
        if present.is_empty() {
            return 0;
        }
        let log = Arc::new(ReadLog::new());
        let view = InstanceView::new(db)
            .restrict(self.rels)
            .with_read_log(log.clone());
        let mut xs_vals: Vec<Option<Cst>> = vec![None; self.tail.n_xs];
        let mut sub_args: Vec<Cst> = Vec::with_capacity(self.tail.n_xs);
        let evaluated = present.len();
        for row in present {
            let non_dangling = non_dangling(&view, &row, &self.tail.outgoing);
            let holds = self
                .tail
                .eval_row(&view, &[], &row, &mut xs_vals, &mut sub_args);
            let probes = log.take();
            for probe in &probes {
                self.readers
                    .entry(probe.clone())
                    .or_default()
                    .insert(row.clone());
            }
            self.non_dangling += usize::from(non_dangling);
            self.failing += usize::from(!holds);
            self.rows.insert(
                row,
                TrackedRow {
                    non_dangling,
                    holds,
                    probes,
                },
            );
        }
        evaluated
    }

    /// Forgets `row`, its counts and its dependency index entries.
    fn untrack(&mut self, row: &[Cst]) {
        let Some(tracked) = self.rows.remove(row) else {
            return;
        };
        self.non_dangling -= usize::from(tracked.non_dangling);
        self.failing -= usize::from(!tracked.holds);
        for probe in tracked.probes {
            if let Entry::Occupied(mut readers) = self.readers.entry(probe) {
                readers.get_mut().remove(row);
                if readers.get().is_empty() {
                    readers.remove();
                }
            }
        }
    }
}

impl fmt::Display for CompiledPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rels: Vec<RelName> = self.rels.iter().copied().collect();
        sort_by_name(&mut rels);
        let rels: Vec<String> = rels.iter().map(RelName::to_string).collect();
        write!(
            f,
            "compiled plan over {{{}}}: {} filter op(s), ",
            rels.join(", "),
            self.ops.len()
        )?;
        match &self.tail {
            CompiledTail::Kw { formula, .. } => {
                write!(f, "KW tail ({} params)", formula.free_vars().count())
            }
            CompiledTail::Lemma45(l) => {
                write!(f, "Lemma 45 on {} ⊳ [{}]", l.rel, l.sub)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_model::parser::{parse_fks, parse_instance, parse_query, parse_schema};
    use std::sync::Arc;

    fn compiled(schema: &str, query: &str, fks: &str) -> (RewritePlan, CompiledPlan) {
        let s = Arc::new(parse_schema(schema).unwrap());
        let q = parse_query(&s, query).unwrap();
        let k = parse_fks(&s, fks).unwrap();
        let plan = RewritePlan::build(&Problem::new(q, k).unwrap()).unwrap();
        let compiled = CompiledPlan::compile(&plan).unwrap();
        (plan, compiled)
    }

    fn agree_on(schema: &str, query: &str, fks: &str, instances: &[&str]) {
        let (plan, compiled) = compiled(schema, query, fks);
        let s = Arc::new(parse_schema(schema).unwrap());
        for text in instances {
            let db = parse_instance(&s, text).unwrap();
            assert_eq!(
                plan.answer(&db),
                compiled.answer(&db),
                "query {query}, fks {fks}, instance {text}"
            );
        }
    }

    #[test]
    fn section8_example_matches_interpreter() {
        agree_on(
            "N[2,1] O[1,1] P[1,1]",
            "N('c',y), O(y), P(y)",
            "N[2] -> O",
            &[
                "N(c,a) N(c,b) O(a) P(a) P(b)",
                "N(c,a) N(c,b) O(a) P(b)",
                "N(c,a) N(c,b) O(a) P(a)",
                "N(c,a) N(c,b) P(a) P(b)",
                "O(a) P(a)",
                "",
            ],
        );
    }

    #[test]
    fn lemma37_block_filtering_matches_interpreter() {
        agree_on(
            "N[3,1] O[2,1]",
            "N(x,u,y), O(y,w)",
            "N[3] -> O",
            &[
                "N(c,1,a) N(c,2,b) O(a,3)",
                "N(c,1,a) O(a,3)",
                "N(c,1,a)",
                "O(a,3)",
                "N(k,1,a) N(k,2,a) N(j,1,b) O(a,1) O(b,2)",
                "",
            ],
        );
    }

    #[test]
    fn lemma40_filtering_matches_interpreter() {
        agree_on(
            "N[2,1] O[1,1] T[2,1] U[2,1]",
            "N(x,y), O(y), T(z,y), U(z,y)",
            "N[2] -> O",
            &[
                "N(a,b) O(b) T(t,b) U(t,b)",
                "N(a,b) T(t,b) U(t,b)",
                "N(a,b) O(b) T(t,b) U(t,zz)",
                "N(a,b) N(a,c) O(b) O(c) T(t,b) U(t,b) T(s,c) U(s,c)",
                "",
            ],
        );
    }

    #[test]
    fn nested_lemma45_depth_two() {
        // N('c',y) binds y; the frozen residual M(§y,w) binds w; the final
        // tail is the KW rewriting of P(§w). Exercises parameters in key
        // position at the second level.
        let (plan, compiled) = compiled(
            "N[2,1] M[2,1] Q[1,1] P[1,1] O[1,1]",
            "N('c',y), M(y,w), Q(w), P(w), O(y)",
            "N[2] -> O, M[2] -> Q",
        );
        assert_eq!(compiled.depth(), 3);
        assert_eq!(compiled.to_string().matches("Lemma 45").count(), 2);
        let s =
            Arc::new(parse_schema("N[2,1] M[2,1] Q[1,1] P[1,1] O[1,1]").unwrap());
        for text in [
            "N(c,y0) O(y0) M(y0,w0) Q(w0) P(w0)",
            "N(c,y0) O(y0) M(y0,w0) Q(w0)",
            "N(c,y0) O(y0) M(y0,w0) P(w0)",
            "N(c,y0) N(c,y1) O(y0) M(y0,w0) Q(w0) P(w0) M(y1,w1) Q(w1) P(w1)",
            "N(c,y0) N(c,y1) O(y0) M(y0,w0) Q(w0) P(w0) M(y1,w1) Q(w1)",
            "N(c,y0) M(y0,w0) Q(w0) P(w0)",
            "N(c,y0) O(y0) M(y0,w0) M(y0,w1) Q(w0) Q(w1) P(w0) P(w1)",
            "N(c,y0) O(y0) M(y0,w0) M(y0,w1) Q(w0) P(w0) P(w1)",
            "",
        ] {
            let db = parse_instance(&s, text).unwrap();
            assert_eq!(
                plan.answer(&db),
                compiled.answer(&db),
                "instance {text}"
            );
        }
    }

    #[test]
    fn parameterized_compile_matches_grounded_plans() {
        // Compile q = {R(x,u), S(x)} (weak key R[1]→S) with u as a
        // parameter; the parameterized plan under u := v must agree with
        // the plan built for each grounded query.
        let s = Arc::new(parse_schema("R[2,1] S[1,1]").unwrap());
        let q = parse_query(&s, "R(x,u), S(x)").unwrap();
        let fks = parse_fks(&s, "R[1] -> S").unwrap();
        let u = Var::new("u");
        let frozen = q.freeze(&[u].into_iter().collect());
        let plan = RewritePlan::build(&Problem::new(frozen, fks.clone()).unwrap()).unwrap();
        let compiled = CompiledPlan::compile_parameterized(&plan, &[u]).unwrap();
        assert_eq!(compiled.n_params(), 1);

        for val in ["1", "k", "zzz"] {
            let grounded = parse_query(&s, &format!("R(x,'{val}'), S(x)")).unwrap();
            let gplan =
                RewritePlan::build(&Problem::new(grounded, fks.clone()).unwrap()).unwrap();
            for text in [
                "R(a,1) S(a)",
                "R(a,k) S(a)",
                "R(a,1) R(a,k) S(a)",
                "R(a,1) R(b,k) S(a) S(b)",
                "R(a,zzz)",
                "",
            ] {
                let db = parse_instance(&s, text).unwrap();
                assert_eq!(
                    gplan.answer(&db),
                    compiled.answer_with(&db, &[Cst::new(val)]),
                    "u := {val}, instance {text}"
                );
            }
        }
    }

    #[test]
    fn compiled_artifacts_are_shareable_across_threads() {
        // Batch sharding shares one plan across workers by reference.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledPlan>();
    }

    #[test]
    fn join_strategies_agree_on_compiled_plans() {
        let cases: [(&str, &str, &str, &[&str]); 3] = [
            (
                "N[2,1] O[1,1] P[1,1]",
                "N('c',y), O(y), P(y)",
                "N[2] -> O",
                &[
                    "N(c,a) N(c,b) O(a) P(a) P(b)",
                    "N(c,a) N(c,b) O(a) P(b)",
                    "",
                ],
            ),
            (
                "N[3,1] O[2,1]",
                "N(x,u,y), O(y,w)",
                "N[3] -> O",
                &[
                    "N(c,1,a) N(c,2,b) O(a,3)",
                    "N(k,1,a) N(k,2,a) N(j,1,b) O(a,1) O(b,2)",
                    "",
                ],
            ),
            (
                "N[2,1] M[2,1] Q[1,1] P[1,1] O[1,1]",
                "N('c',y), M(y,w), Q(w), P(w), O(y)",
                "N[2] -> O, M[2] -> Q",
                &[
                    "N(c,y0) O(y0) M(y0,w0) Q(w0) P(w0)",
                    "N(c,y0) O(y0) M(y0,w0) Q(w0)",
                    "N(c,y0) N(c,y1) O(y0) M(y0,w0) Q(w0) P(w0) M(y1,w1) Q(w1)",
                    "",
                ],
            ),
        ];
        let strategies = [
            JoinStrategy::Auto,
            JoinStrategy::Backtracking,
            JoinStrategy::Semijoin,
        ];
        for (schema, query, fks, instances) in cases {
            let s = Arc::new(parse_schema(schema).unwrap());
            let q = parse_query(&s, query).unwrap();
            let k = parse_fks(&s, fks).unwrap();
            let plan = RewritePlan::build(&Problem::new(q, k).unwrap()).unwrap();
            let compiled: Vec<CompiledPlan> = strategies
                .into_iter()
                .map(|j| CompiledPlan::compile_with(&plan, j).unwrap())
                .collect();
            assert!(!compiled[1].uses_semijoin(), "{query}");
            for text in instances {
                let db = parse_instance(&s, text).unwrap();
                let expected = plan.answer(&db);
                for (j, c) in strategies.iter().zip(&compiled) {
                    assert_eq!(c.join_strategy(), *j);
                    assert_eq!(c.answer(&db), expected, "join {j} on {text}");
                }
            }
        }
    }

    #[test]
    fn non_query_relations_are_ignored() {
        // Facts over relations outside q must not influence the answer.
        let s = Arc::new(parse_schema("N[2,1] O[1,1] Z[1,1]").unwrap());
        let q = parse_query(&s, "N(x,y), O(y)").unwrap();
        let fks = parse_fks(&s, "N[2] -> O").unwrap();
        let plan = RewritePlan::build(&Problem::new(q, fks).unwrap()).unwrap();
        let compiled = CompiledPlan::compile(&plan).unwrap();
        let db = parse_instance(&s, "N(a,b) O(b) Z(junk)").unwrap();
        assert_eq!(plan.answer(&db), compiled.answer(&db));
        assert!(compiled.answer(&db));
    }
}
