//! The interpretive (pre-compilation) formula evaluator, kept as a
//! reference implementation.
//!
//! This is the original tree-walking evaluator: every quantifier re-walks
//! the AST, guard candidates clone `BTreeMap` valuations and re-materialize
//! the residual conjunction per fact, and candidate facts are collected into
//! `Vec<Fact>`. It is retained — unchanged in algorithm — for two reasons:
//!
//! * **differential testing**: the property suites check the compiled
//!   evaluator ([`crate::compile::CompiledFormula`]) against this
//!   interpreter on arbitrary formulas, strategies and bindings;
//! * **the kernel ratio table**: `paper-eval`'s `compiled_vs_interpreted`
//!   ratio gates the compiled evaluator's speedup against this baseline.
//!
//! The only semantic change from its pre-compilation form is the
//! active-domain soundness fix shared with the compiled path: the
//! quantifier domain is `adom(db) ∪ const(φ) ∪ const(θ↾free(φ))`, i.e.
//! constants bound to free variables by the caller count as active.

use crate::ast::Formula;
use crate::eval::Strategy;
use cqa_model::eval::unify;
use cqa_model::{Cst, Instance, Term, Valuation, Var};

/// Evaluates a closed formula over `db` with the guarded strategy
/// (interpretive reference implementation).
pub fn eval_closed(db: &Instance, f: &Formula) -> bool {
    debug_assert!(f.is_closed(), "eval_closed requires a sentence: {f}");
    eval_with(db, f, &Valuation::new(), Strategy::Guarded)
}

/// Evaluates `f` under a binding of its free variables (interpretive
/// reference implementation).
pub fn eval_with(db: &Instance, f: &Formula, binding: &Valuation, strategy: Strategy) -> bool {
    let domain: Vec<Cst> = {
        let mut d = db.adom().clone();
        d.extend(f.consts());
        // Soundness fix (shared with the compiled path): constants the
        // caller bound to free variables are active too.
        for v in f.free_vars() {
            if let Some(&c) = binding.get(&v) {
                d.insert(c);
            }
        }
        d.into_iter().collect()
    };
    let mut binding = binding.clone();
    Evaluator {
        db,
        domain,
        strategy,
    }
    .eval(f, &mut binding)
}

struct Evaluator<'a> {
    db: &'a Instance,
    domain: Vec<Cst>,
    strategy: Strategy,
}

impl Evaluator<'_> {
    fn resolve(&self, t: Term, binding: &Valuation) -> Option<Cst> {
        match t {
            Term::Cst(c) => Some(c),
            Term::Var(v) => binding.get(&v).copied(),
        }
    }

    fn eval(&self, f: &Formula, binding: &mut Valuation) -> bool {
        match f {
            Formula::True => true,
            Formula::False => false,
            Formula::Atom(a) => {
                let fact = cqa_model::eval::apply_atom(a, binding)
                    .expect("atom variables must be bound during evaluation");
                self.db.contains(&fact)
            }
            Formula::Eq(s, t) => {
                let a = self
                    .resolve(*s, binding)
                    .expect("equality term must be bound");
                let b = self
                    .resolve(*t, binding)
                    .expect("equality term must be bound");
                a == b
            }
            Formula::Not(g) => !self.eval(g, binding),
            Formula::And(gs) => gs.iter().all(|g| self.eval(g, binding)),
            Formula::Or(gs) => gs.iter().any(|g| self.eval(g, binding)),
            Formula::Implies(l, r) => !self.eval(l, binding) || self.eval(r, binding),
            Formula::Exists(vs, g) => {
                // Quantifiers shadow outer bindings of the same variables.
                let mut inner = binding.clone();
                for v in vs {
                    inner.remove(v);
                }
                self.eval_exists(vs, g, &mut inner)
            }
            Formula::Forall(vs, g) => {
                let mut inner = binding.clone();
                for v in vs {
                    inner.remove(v);
                }
                self.eval_forall(vs, g, &mut inner)
            }
        }
    }

    /// Finds a positive atom conjunct of `g` usable as a guard for the
    /// quantified variables `vs`: returns `(guard, rest)`.
    fn split_guard<'f>(
        &self,
        vs: &[Var],
        g: &'f Formula,
    ) -> Option<(&'f cqa_model::Atom, Vec<&'f Formula>)> {
        let parts: Vec<&Formula> = match g {
            Formula::And(gs) => gs.iter().collect(),
            other => vec![other],
        };
        let idx = parts.iter().position(|p| match p {
            Formula::Atom(a) => a.vars().iter().any(|v| vs.contains(v)),
            _ => false,
        })?;
        let Formula::Atom(a) = parts[idx] else {
            unreachable!("position found an Atom");
        };
        let rest = parts
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != idx)
            .map(|(_, p)| *p)
            .collect();
        Some((a, rest))
    }

    fn eval_exists(&self, vs: &[Var], g: &Formula, binding: &mut Valuation) -> bool {
        if self.strategy == Strategy::Guarded {
            if let Some((guard, rest)) = self.split_guard(vs, g) {
                // ∃vs (guard ∧ rest): iterate over facts matching the guard.
                let remaining: Vec<Var> = vs
                    .iter()
                    .copied()
                    .filter(|v| !guard.vars().contains(v))
                    .collect();
                for fact in self.candidates(guard, binding) {
                    if let Some(mut next) = unify(guard, &fact, binding) {
                        let rest_formula = Formula::and(rest.iter().map(|p| (*p).clone()));
                        if self.eval_exists(&remaining, &rest_formula, &mut next) {
                            return true;
                        }
                    }
                }
                return false;
            }
        }
        // Active-domain fallback, one variable at a time.
        match vs.split_first() {
            None => self.eval(g, binding),
            Some((&v, rest)) => {
                for &c in &self.domain {
                    let prev = binding.insert(v, c);
                    let ok = self.eval_exists(rest, g, binding);
                    match prev {
                        Some(p) => {
                            binding.insert(v, p);
                        }
                        None => {
                            binding.remove(&v);
                        }
                    }
                    if ok {
                        return true;
                    }
                }
                false
            }
        }
    }

    fn eval_forall(&self, vs: &[Var], g: &Formula, binding: &mut Valuation) -> bool {
        if self.strategy == Strategy::Guarded {
            if let Formula::Implies(lhs, rhs) = g {
                if let Formula::Atom(guard) = lhs.as_ref() {
                    let covered: Vec<Var> = vs
                        .iter()
                        .copied()
                        .filter(|v| guard.vars().contains(v))
                        .collect();
                    let uncovered: Vec<Var> = vs
                        .iter()
                        .copied()
                        .filter(|v| !guard.vars().contains(v))
                        .collect();
                    if uncovered.is_empty() && !covered.is_empty() {
                        // ∀vs (guard → rhs): values outside the guard hold
                        // vacuously, so only matching facts matter.
                        for fact in self.candidates(guard, binding) {
                            if let Some(mut next) = unify(guard, &fact, binding) {
                                if !self.eval(rhs, &mut next) {
                                    return false;
                                }
                            }
                        }
                        return true;
                    }
                }
            }
        }
        match vs.split_first() {
            None => self.eval(g, binding),
            Some((&v, rest)) => {
                for &c in &self.domain {
                    let prev = binding.insert(v, c);
                    let ok = self.eval_forall(rest, g, binding);
                    match prev {
                        Some(p) => {
                            binding.insert(v, p);
                        }
                        None => {
                            binding.remove(&v);
                        }
                    }
                    if !ok {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Candidate facts for a guard atom: the block when the key prefix is
    /// ground under `binding`, otherwise a relation scan.
    fn candidates(&self, atom: &cqa_model::Atom, binding: &Valuation) -> Vec<cqa_model::Fact> {
        let Some(sig) = self.db.schema().signature(atom.rel) else {
            return Vec::new();
        };
        if sig.arity != atom.arity() {
            return Vec::new();
        }
        let mut key: Vec<Cst> = Vec::with_capacity(sig.key_len);
        for t in atom.key_terms(sig) {
            match self.resolve(*t, binding) {
                Some(c) => key.push(c),
                None => return self.db.facts_of(atom.rel).collect(),
            }
        }
        self.db.block(atom.rel, &key)
    }
}
