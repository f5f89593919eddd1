//! Compiling formulas for slot-based evaluation.
//!
//! [`CompiledFormula::compile`] performs, once per formula, all the work the
//! interpretive evaluator ([`crate::interp`]) used to redo per candidate:
//!
//! * **slot numbering** — every variable occurrence is resolved to a dense
//!   [`Binding`] slot. Quantifiers that rebind an outer variable get a
//!   *fresh* slot (compile-time α-renaming), so shadowing needs no runtime
//!   bookkeeping and the hot loops never clone a `BTreeMap` valuation;
//! * **guard pre-splitting** — for each `∃⃗x (R(…) ∧ ρ)` the guard atom and
//!   the residual conjunction are split at compile time into a chain of
//!   `Node::ExistsGuarded` steps (and dually `∀⃗y (R(…) → ρ)` into
//!   `Node::ForallGuarded`), instead of re-scanning conjuncts and
//!   re-materializing `Formula::and(rest)` on every candidate fact;
//! * **index-backed candidates** — guard lookups go through
//!   [`cqa_model::InstanceIndex`]: a hash probe on the primary-key block
//!   when the key prefix is ground, a borrowed row slice otherwise — no
//!   `Vec<Fact>` is materialized and no row is cloned.
//!
//! The guard structure is strategy-specific, so a compiled formula fixes its
//! [`Strategy`] at compile time; [`crate::eval::eval_with`] stays the
//! convenience entry point that compiles and runs in one call.
//!
//! **Parameter slots and views.** Evaluation is generic over a
//! [`cqa_model::FactSource`], so one compiled tree runs against a full
//! database index or a lazy [`cqa_model::InstanceView`] of the reduction
//! pipeline. The free variables double as *parameter slots*:
//! [`CompiledFormula::eval_params`] rebinds them from a plain argument
//! slice — the Lemma 45 residual rewriting is compiled once with `θ(⃗x)` as
//! parameters and re-evaluated per block fact by slot rebinding, no
//! `Valuation` maps and no re-compilation.
//!
//! **Quantifier domain.** Evaluation uses active-domain semantics over
//! `adom(db) ∪ const(φ) ∪ const(θ↾free(φ))` where `θ` is the caller's
//! binding of free variables. The last term is deliberate: a free variable
//! may be bound to a constant that occurs in neither the database nor the
//! formula, and quantifiers must still range over it (this fixes a
//! soundness gap in the original interpreter, which dropped such
//! constants).

use crate::ast::Formula;
use crate::eval::Strategy;
use cqa_model::binding::CompiledAtom;
use cqa_model::instance::Candidates;
use cqa_model::{
    Atom, Binding, Cst, FactSource, Instance, JoinStrategy, SemijoinPlan, Slot, SlotTerm, Term,
    Trail, Valuation, Var,
};
use std::collections::BTreeSet;

/// A compiled formula node. Guard-directed quantifier nodes only appear in
/// trees compiled with [`Strategy::Guarded`].
#[derive(Clone, Debug)]
enum Node {
    True,
    False,
    Atom(CompiledAtom),
    Eq(SlotTerm, SlotTerm),
    Not(Box<Node>),
    And(Vec<Node>),
    Or(Vec<Node>),
    Implies(Box<Node>, Box<Node>),
    /// `∃ slots`: iterate the active domain per slot.
    Exists(Vec<Slot>, Box<Node>),
    /// `∃ (guard ∧ rest)`: iterate candidate rows of the guard, unify, and
    /// continue with the pre-split continuation.
    ExistsGuarded(CompiledAtom, Box<Node>),
    /// `∃⃗x (⋀ atoms)` over an acyclic conjunction of positive atoms
    /// covering every quantified variable: executed as one Yannakakis
    /// semijoin pass ([`SemijoinPlan`]). `force` pins the semijoin
    /// ([`JoinStrategy::Semijoin`]); otherwise the
    /// [`SemijoinPlan::prefers_semijoin`] heuristic may fall back to the
    /// backtracking join over the same atoms.
    SemijoinExists {
        /// The compiled join plan.
        plan: SemijoinPlan,
        /// Skip the auto heuristic and always run the semijoin pass.
        force: bool,
    },
    /// `∀ slots`: iterate the active domain per slot.
    Forall(Vec<Slot>, Box<Node>),
    /// `∀ (guard → body)` with the guard covering every quantified
    /// variable: only rows matching the guard matter.
    ForallGuarded(CompiledAtom, Box<Node>),
}

/// A formula compiled for a fixed evaluation strategy.
///
/// Compile once, evaluate many times: the compiled tree is immutable and
/// shareable, and [`CompiledFormula::eval`] only allocates the quantifier
/// domain and the slot array per call.
#[derive(Clone, Debug)]
pub struct CompiledFormula {
    root: Node,
    strategy: Strategy,
    n_slots: usize,
    /// Free variables in canonical order, with their slots.
    free: Vec<(Var, Slot)>,
    /// The constants of the formula (part of the quantifier domain).
    consts: Vec<Cst>,
    /// Whether any node iterates the active domain. A fully guard-directed
    /// tree (the common case for constructed rewritings) never reads it,
    /// so evaluation skips building the domain entirely.
    uses_domain: bool,
}

impl CompiledFormula {
    /// Compiles `f` for `strategy` under [`JoinStrategy::Auto`].
    pub fn compile(f: &Formula, strategy: Strategy) -> CompiledFormula {
        CompiledFormula::compile_with(f, strategy, JoinStrategy::Auto)
    }

    /// Compiles `f` for `strategy` under an explicit [`JoinStrategy`].
    /// Unless pinned to backtracking, existentials over acyclic positive
    /// conjunctions compile to a semijoin-exists node (Yannakakis
    /// execution); [`Strategy::Naive`] trees never do — they stay the pure
    /// differential baseline.
    pub fn compile_with(f: &Formula, strategy: Strategy, join: JoinStrategy) -> CompiledFormula {
        let mut c = Compiler {
            strategy,
            join,
            env: Vec::new(),
            n_slots: 0,
        };
        let free: Vec<(Var, Slot)> = f
            .free_vars()
            .into_iter()
            .map(|v| (v, c.push_var(v)))
            .collect();
        let root = c.go(f);
        debug_assert!(c.env.len() == free.len(), "scopes must be balanced");
        let uses_domain = uses_domain(&root);
        let compiled = CompiledFormula {
            root,
            strategy,
            n_slots: c.n_slots,
            free,
            consts: f.consts().into_iter().collect(),
            uses_domain,
        };
        #[cfg(debug_assertions)]
        {
            let report = compiled.audit();
            debug_assert!(
                report.is_clean(),
                "compiled formula failed its IR audit:\n{report}"
            );
        }
        compiled
    }

    /// Converts the compiled tree into the neutral `cqa-analyze` IR.
    pub fn to_ir(&self) -> cqa_analyze::FormulaIr {
        cqa_analyze::FormulaIr {
            root: node_ir(&self.root),
            n_slots: self.n_slots,
            params: self.free.iter().map(|&(_, s)| s).collect(),
            uses_domain: self.uses_domain,
        }
    }

    /// Audits the compiled tree's slot/binder/range-restriction invariants
    /// (see `cqa_analyze::checks`). Run behind `debug_assert!` at every
    /// compile; callable explicitly for reports.
    pub fn audit(&self) -> cqa_analyze::AuditReport {
        cqa_analyze::audit_formula(&self.to_ir())
    }

    /// The strategy this formula was compiled for.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Whether any node of the tree executes as a Yannakakis semijoin pass
    /// — recorded in solver provenance so verdicts say which join strategy
    /// was in play.
    pub fn uses_semijoin(&self) -> bool {
        has_semijoin(&self.root)
    }

    /// The free variables, in canonical order.
    pub fn free_vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.free.iter().map(|&(v, _)| v)
    }

    /// Evaluates the formula over `db` under a binding of its free
    /// variables.
    pub fn eval(&self, db: &Instance, binding: &Valuation) -> bool {
        let mut b = Binding::new(self.n_slots);
        let mut bound: Vec<Cst> = Vec::new();
        for &(v, s) in &self.free {
            if let Some(&c) = binding.get(&v) {
                b.set(s, c);
                bound.push(c);
            }
        }
        self.run(db.index(), b, &bound)
    }

    /// Evaluates a closed formula over `db`.
    pub fn eval_closed(&self, db: &Instance) -> bool {
        debug_assert!(self.free.is_empty(), "eval_closed requires a sentence");
        self.eval(db, &Valuation::new())
    }

    /// Evaluates over an arbitrary [`FactSource`] (a full
    /// [`cqa_model::InstanceIndex`] or a lazy [`cqa_model::InstanceView`])
    /// with the free variables used as **parameter slots**: `args[i]` binds
    /// the `i`-th free variable in canonical ([`CompiledFormula::free_vars`])
    /// order. This is the per-block-fact rebinding entry point of the
    /// compiled reduction pipeline: no `Valuation` map, no per-call
    /// allocation beyond the slot array (and the quantifier domain when the
    /// tree is not fully guard-directed).
    pub fn eval_params<S: FactSource + ?Sized>(&self, src: &S, args: &[Cst]) -> bool {
        assert_eq!(
            args.len(),
            self.free.len(),
            "one argument per parameter slot"
        );
        let mut b = Binding::new(self.n_slots);
        for (&(_, s), &c) in self.free.iter().zip(args) {
            b.set(s, c);
        }
        self.run(src, b, args)
    }

    /// Shared evaluation core: `bound` are the constants already placed in
    /// parameter slots (they join the quantifier domain — the soundness rule
    /// for out-of-domain bindings, see the module docs).
    fn run<S: FactSource + ?Sized>(&self, src: &S, b: Binding, bound: &[Cst]) -> bool {
        let domain: Vec<Cst> = if self.uses_domain {
            let mut dom: BTreeSet<Cst> = BTreeSet::new();
            src.extend_adom(&mut dom);
            dom.extend(self.consts.iter().copied());
            dom.extend(bound.iter().copied());
            dom.into_iter().collect()
        } else {
            // Fully guard-directed tree: no quantifier reads the domain.
            Vec::new()
        };
        let ctx = EvalCtx {
            src,
            domain: &domain,
        };
        let mut st = EvalState {
            b,
            trail: Trail::new(),
            scratch: Vec::new(),
        };
        ctx.eval(&self.root, &mut st)
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

struct Compiler {
    strategy: Strategy,
    join: JoinStrategy,
    /// Scope stack; lookups scan from the end so inner quantifiers shadow.
    env: Vec<(Var, Slot)>,
    n_slots: usize,
}

impl Compiler {
    fn push_var(&mut self, v: Var) -> Slot {
        let s = u32::try_from(self.n_slots).expect("slot count fits in u32");
        self.n_slots += 1;
        self.env.push((v, s));
        s
    }

    fn lookup(&self, v: Var) -> Slot {
        self.env
            .iter()
            .rev()
            .find(|&&(w, _)| w == v)
            .map(|&(_, s)| s)
            .expect("every variable is quantified or free")
    }

    fn term(&self, t: Term) -> SlotTerm {
        match t {
            Term::Cst(c) => SlotTerm::Cst(c),
            Term::Var(v) => SlotTerm::Slot(self.lookup(v)),
        }
    }

    fn atom(&self, a: &Atom) -> CompiledAtom {
        CompiledAtom {
            rel: a.rel,
            terms: a.terms.iter().map(|&t| self.term(t)).collect(),
        }
    }

    fn go(&mut self, f: &Formula) -> Node {
        match f {
            Formula::True => Node::True,
            Formula::False => Node::False,
            Formula::Atom(a) => Node::Atom(self.atom(a)),
            Formula::Eq(s, t) => Node::Eq(self.term(*s), self.term(*t)),
            Formula::Not(g) => Node::Not(Box::new(self.go(g))),
            Formula::And(gs) => Node::And(gs.iter().map(|g| self.go(g)).collect()),
            Formula::Or(gs) => Node::Or(gs.iter().map(|g| self.go(g)).collect()),
            Formula::Implies(l, r) => {
                Node::Implies(Box::new(self.go(l)), Box::new(self.go(r)))
            }
            Formula::Exists(vs, g) => {
                let scope = self.env.len();
                let quant: Vec<(Var, Slot)> =
                    vs.iter().map(|&v| (v, self.push_var(v))).collect();
                let node = match self.strategy {
                    Strategy::Guarded => {
                        let mut parts = Vec::new();
                        flatten_and(g, &mut parts);
                        self.guarded_exists(quant, parts)
                    }
                    Strategy::Naive => {
                        let slots = quant.iter().map(|&(_, s)| s).collect();
                        Node::Exists(slots, Box::new(self.go(g)))
                    }
                };
                self.env.truncate(scope);
                node
            }
            Formula::Forall(vs, g) => {
                let scope = self.env.len();
                let quant: Vec<(Var, Slot)> =
                    vs.iter().map(|&v| (v, self.push_var(v))).collect();
                let node = self.forall(quant, g);
                self.env.truncate(scope);
                node
            }
        }
    }

    /// Compiles `∃ quant (⋀ parts)` as a chain of guard steps: at each step
    /// the first *usable* guard — a positive atom conjunct covering at least
    /// one still-unguarded quantified variable — drives candidate
    /// iteration, and the residual conjunction continues. Constant-only
    /// atoms and atoms over already-covered variables are never selected as
    /// guards (they stay in the residual), and duplicate conjuncts are
    /// harmless: the duplicate simply remains a membership test in the
    /// continuation.
    fn guarded_exists(&mut self, quant: Vec<(Var, Slot)>, parts: Vec<&Formula>) -> Node {
        if quant.is_empty() {
            return self.conj(parts);
        }
        if let Some(node) = self.semijoin_exists(&quant, &parts) {
            return node;
        }
        let guard_pos = parts.iter().position(|p| match p {
            Formula::Atom(a) => a.vars().iter().any(|v| quant.iter().any(|&(w, _)| w == *v)),
            _ => false,
        });
        match guard_pos {
            None => {
                let slots = quant.iter().map(|&(_, s)| s).collect();
                Node::Exists(slots, Box::new(self.conj(parts)))
            }
            Some(i) => {
                let Formula::Atom(guard) = parts[i] else {
                    unreachable!("position found an Atom");
                };
                let catom = self.atom(guard);
                let guard_vars = guard.vars();
                let remaining: Vec<(Var, Slot)> = quant
                    .into_iter()
                    .filter(|&(v, _)| !guard_vars.contains(&v))
                    .collect();
                let rest: Vec<&Formula> = parts
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, p)| *p)
                    .collect();
                let cont = self.guarded_exists(remaining, rest);
                Node::ExistsGuarded(catom, Box::new(cont))
            }
        }
    }

    /// The Yannakakis fast path for `∃ quant (⋀ parts)`: applies when the
    /// join strategy allows it, every part is a positive atom, every
    /// quantified variable occurs in some atom (so the pass binds all of
    /// them — no active-domain residue), and the atom hypergraph is
    /// acyclic. Cyclic conjunctions and mixed residuals return `None` and
    /// keep the per-guard chain.
    fn semijoin_exists(&mut self, quant: &[(Var, Slot)], parts: &[&Formula]) -> Option<Node> {
        if self.join == JoinStrategy::Backtracking || parts.is_empty() {
            return None;
        }
        let mut atoms: Vec<&Atom> = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Formula::Atom(a) => atoms.push(a),
                _ => return None,
            }
        }
        let covered = quant
            .iter()
            .all(|&(v, _)| atoms.iter().any(|a| a.vars().contains(&v)));
        if !covered {
            return None;
        }
        let catoms: Vec<CompiledAtom> = atoms.iter().map(|a| self.atom(a)).collect();
        let plan = SemijoinPlan::build(&catoms)?;
        Some(Node::SemijoinExists {
            plan,
            force: self.join == JoinStrategy::Semijoin,
        })
    }

    fn conj(&mut self, parts: Vec<&Formula>) -> Node {
        match parts.len() {
            0 => Node::True,
            1 => self.go(parts[0]),
            _ => Node::And(parts.into_iter().map(|p| self.go(p)).collect()),
        }
    }

    fn forall(&mut self, quant: Vec<(Var, Slot)>, g: &Formula) -> Node {
        if self.strategy == Strategy::Guarded {
            if let Formula::Implies(lhs, rhs) = g {
                if let Formula::Atom(guard) = lhs.as_ref() {
                    let guard_vars = guard.vars();
                    let all_covered =
                        quant.iter().all(|&(v, _)| guard_vars.contains(&v));
                    if all_covered && !quant.is_empty() {
                        // ∀⃗y (guard → rhs): values outside the guard hold
                        // vacuously, so only matching rows matter.
                        let catom = self.atom(guard);
                        return Node::ForallGuarded(catom, Box::new(self.go(rhs)));
                    }
                }
            }
        }
        let slots = quant.iter().map(|&(_, s)| s).collect();
        Node::Forall(slots, Box::new(self.go(g)))
    }
}

/// Whether any node of the tree iterates the active domain.
/// Mirrors the private [`Node`] tree into the analysis IR.
fn node_ir(n: &Node) -> cqa_analyze::FNode {
    use cqa_analyze::FNode;
    match n {
        Node::True => FNode::True,
        Node::False => FNode::False,
        Node::Atom(a) => FNode::Atom(a.clone()),
        Node::Eq(l, r) => FNode::Eq(*l, *r),
        Node::Not(g) => FNode::Not(Box::new(node_ir(g))),
        Node::And(gs) => FNode::And(gs.iter().map(node_ir).collect()),
        Node::Or(gs) => FNode::Or(gs.iter().map(node_ir).collect()),
        Node::Implies(l, r) => FNode::Implies(Box::new(node_ir(l)), Box::new(node_ir(r))),
        Node::Exists(slots, b) => FNode::Exists(slots.clone(), Box::new(node_ir(b))),
        Node::ExistsGuarded(g, b) => FNode::ExistsGuarded(g.clone(), Box::new(node_ir(b))),
        Node::SemijoinExists { plan, .. } => FNode::SemijoinExists(plan.atoms().to_vec()),
        Node::Forall(slots, b) => FNode::Forall(slots.clone(), Box::new(node_ir(b))),
        Node::ForallGuarded(g, b) => FNode::ForallGuarded(g.clone(), Box::new(node_ir(b))),
    }
}

/// Whether any node of the tree is a [`Node::SemijoinExists`].
fn has_semijoin(node: &Node) -> bool {
    match node {
        Node::True | Node::False | Node::Atom(_) | Node::Eq(_, _) => false,
        Node::SemijoinExists { .. } => true,
        Node::Not(g) => has_semijoin(g),
        Node::And(gs) | Node::Or(gs) => gs.iter().any(has_semijoin),
        Node::Implies(l, r) => has_semijoin(l) || has_semijoin(r),
        Node::Exists(_, b) | Node::Forall(_, b) => has_semijoin(b),
        Node::ExistsGuarded(_, b) | Node::ForallGuarded(_, b) => has_semijoin(b),
    }
}

fn uses_domain(node: &Node) -> bool {
    match node {
        Node::True | Node::False | Node::Atom(_) | Node::Eq(_, _) => false,
        // Quantifiers with no slots left still skip the domain loop.
        Node::Exists(slots, body) | Node::Forall(slots, body) => {
            !slots.is_empty() || uses_domain(body)
        }
        Node::Not(g) => uses_domain(g),
        Node::And(gs) | Node::Or(gs) => gs.iter().any(uses_domain),
        Node::Implies(l, r) => uses_domain(l) || uses_domain(r),
        Node::ExistsGuarded(_, cont) | Node::ForallGuarded(_, cont) => uses_domain(cont),
        Node::SemijoinExists { .. } => false,
    }
}

/// Flattens nested conjunctions into a part list (the interpretive
/// evaluator flattened one level per recursion step; flattening fully here
/// only exposes more guard opportunities and cannot change semantics).
fn flatten_and<'f>(f: &'f Formula, out: &mut Vec<&'f Formula>) {
    match f {
        Formula::And(gs) => {
            for g in gs {
                flatten_and(g, out);
            }
        }
        other => out.push(other),
    }
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

struct EvalCtx<'a, S: FactSource + ?Sized> {
    src: &'a S,
    domain: &'a [Cst],
}

struct EvalState {
    b: Binding,
    trail: Trail,
    /// Scratch for resolved atom arguments and ground key prefixes.
    scratch: Vec<Cst>,
}

impl<'a, S: FactSource + ?Sized> EvalCtx<'a, S> {
    fn eval(&self, node: &Node, st: &mut EvalState) -> bool {
        match node {
            Node::True => true,
            Node::False => false,
            Node::Atom(a) => {
                st.scratch.clear();
                for &t in &a.terms {
                    let c = st
                        .b
                        .resolve(t)
                        .expect("atom variables must be bound during evaluation");
                    st.scratch.push(c);
                }
                self.src.contains_row(a.rel, &st.scratch)
            }
            Node::Eq(s, t) => {
                let a = st.b.resolve(*s).expect("equality term must be bound");
                let b = st.b.resolve(*t).expect("equality term must be bound");
                a == b
            }
            Node::Not(g) => !self.eval(g, st),
            Node::And(gs) => gs.iter().all(|g| self.eval(g, st)),
            Node::Or(gs) => gs.iter().any(|g| self.eval(g, st)),
            Node::Implies(l, r) => !self.eval(l, st) || self.eval(r, st),
            Node::Exists(slots, body) => self.exists_domain(slots, body, st),
            Node::Forall(slots, body) => self.forall_domain(slots, body, st),
            Node::ExistsGuarded(guard, cont) => {
                let cands = self.guard_candidates(guard, st);
                for row in cands {
                    let frame = st.trail.frame();
                    if st.b.unify_row(&guard.terms, row, &mut st.trail)
                        && self.eval(cont, st)
                    {
                        st.trail.undo_to(frame, &mut st.b);
                        return true;
                    }
                    st.trail.undo_to(frame, &mut st.b);
                }
                false
            }
            Node::SemijoinExists { plan, force } => {
                plan.eval_exists(self.src, &mut st.b, &mut st.trail, &mut st.scratch, *force)
            }
            Node::ForallGuarded(guard, body) => {
                let cands = self.guard_candidates(guard, st);
                for row in cands {
                    let frame = st.trail.frame();
                    if st.b.unify_row(&guard.terms, row, &mut st.trail)
                        && !self.eval(body, st)
                    {
                        st.trail.undo_to(frame, &mut st.b);
                        return false;
                    }
                    st.trail.undo_to(frame, &mut st.b);
                }
                true
            }
        }
    }

    fn exists_domain(&self, slots: &[Slot], body: &Node, st: &mut EvalState) -> bool {
        match slots.split_first() {
            None => self.eval(body, st),
            Some((&s, rest)) => {
                for &c in self.domain {
                    st.b.set(s, c);
                    if self.exists_domain(rest, body, st) {
                        st.b.clear(s);
                        return true;
                    }
                }
                st.b.clear(s);
                false
            }
        }
    }

    fn forall_domain(&self, slots: &[Slot], body: &Node, st: &mut EvalState) -> bool {
        match slots.split_first() {
            None => self.eval(body, st),
            Some((&s, rest)) => {
                for &c in self.domain {
                    st.b.set(s, c);
                    if !self.forall_domain(rest, body, st) {
                        st.b.clear(s);
                        return false;
                    }
                }
                st.b.clear(s);
                true
            }
        }
    }

    /// Candidate rows for a guard atom: the shared ground-key-prefix
    /// resolution of [`FactSource::guarded_candidates`].
    fn guard_candidates(&self, guard: &CompiledAtom, st: &mut EvalState) -> Candidates<'a> {
        self.src.guarded_candidates(guard, &st.b, &mut st.scratch)
    }
}
