//! Conjunctive-query evaluation: homomorphism (valuation) search.
//!
//! A Boolean conjunctive query `q` is satisfied by `db` (`db ⊨ q`) if there
//! is a valuation `θ` over `vars(q)` with `θ(q) ⊆ db` (paper §3.1). The
//! search is a backtracking join that picks, at each step, the atom with the
//! fewest candidate facts under the current partial valuation, using the
//! primary-key block index whenever the key prefix is ground.
//!
//! The search runs over a [`CompiledQuery`]: variables are numbered into
//! dense [`Binding`] slots once per query, candidate rows are borrowed from
//! the instance's [`crate::InstanceIndex`] (no per-node `Vec<Fact>`
//! materialization), and backtracking unbinds via a [`Trail`] instead of
//! cloning `BTreeMap` valuations. The map-based entry points
//! ([`satisfies`], [`find_valuation_with`], [`all_valuations`], …) are thin
//! wrappers that compile and run, so callers and tests are unaffected;
//! hot-loop callers (the repair oracle, the rewrite pipeline) compile once
//! and reuse.

use crate::acyclic::{JoinStrategy, SemijoinPlan};
use crate::atom::Atom;
use crate::binding::{Binding, CompiledAtom, Slot, SlotTerm, Trail};
use crate::fact::Fact;
use crate::instance::{Candidates, Instance};
use crate::intern::{Cst, Var};
use crate::query::Query;
use crate::term::Term;
use crate::view::FactSource;
use std::collections::{BTreeMap, BTreeSet};

/// A (partial) valuation: a mapping from variables to constants.
pub type Valuation = BTreeMap<Var, Cst>;

/// Applies a valuation to an atom; `None` if some variable is unbound.
pub fn apply_atom(atom: &Atom, val: &Valuation) -> Option<Fact> {
    let mut args = Vec::with_capacity(atom.arity());
    for t in &atom.terms {
        match t {
            Term::Cst(c) => args.push(*c),
            Term::Var(v) => args.push(*val.get(v)?),
        }
    }
    Some(Fact::new(atom.rel, args))
}

/// Applies a valuation to a whole query; `None` if some variable is unbound.
pub fn apply_query(q: &Query, val: &Valuation) -> Option<Vec<Fact>> {
    q.atoms().iter().map(|a| apply_atom(a, val)).collect()
}

/// Unifies an atom with a fact, extending `base`. Fails on constant mismatch
/// or inconsistent repeated variables.
pub fn unify(atom: &Atom, fact: &Fact, base: &Valuation) -> Option<Valuation> {
    if atom.rel != fact.rel || atom.arity() != fact.arity() {
        return None;
    }
    let mut val = base.clone();
    for (t, &a) in atom.terms.iter().zip(fact.args.iter()) {
        match t {
            Term::Cst(c) => {
                if *c != a {
                    return None;
                }
            }
            Term::Var(v) => match val.get(v) {
                Some(&bound) if bound != a => return None,
                Some(_) => {}
                None => {
                    val.insert(*v, a);
                }
            },
        }
    }
    Some(val)
}

/// A query compiled for slot-based backtracking search.
///
/// Compilation numbers `vars(q)` into dense slots (first-occurrence order)
/// and freezes each atom's key length, so the per-node work of the join is
/// index probes and slot reads only.
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    atoms: Vec<CompiledAtom>,
    /// slot → variable, for converting bindings back into valuations.
    vars: Vec<Var>,
    /// Leading slots that are *parameters*: bound from an argument slice
    /// before the search starts (see [`CompiledQuery::with_params`]).
    n_params: usize,
    /// The Yannakakis plan when the atom hypergraph is acyclic; the
    /// satisfiability entry points route through it per [`JoinStrategy`]
    /// (cyclic queries always keep the backtracking join).
    semijoin: Option<SemijoinPlan>,
}

impl CompiledQuery {
    /// Compiles `q`.
    pub fn new(q: &Query) -> CompiledQuery {
        CompiledQuery::with_params(q, &[])
    }

    /// Compiles `q` with *parameter slots*: the variables of `params` get
    /// the leading slots `0..params.len()`, and any constant of `q` that is
    /// a frozen parameter ([`Cst::param`]) of one of them compiles to that
    /// slot instead of a constant. The query is compiled once; each
    /// evaluation binds the parameter slots from an argument slice — the
    /// Lemma 45 residual evaluation's per-block-fact rebinding.
    pub fn with_params(q: &Query, params: &[Var]) -> CompiledQuery {
        let mut vars: Vec<Var> = params.to_vec();
        let slot_of = |v: Var, vars: &mut Vec<Var>| -> Slot {
            match vars.iter().position(|&w| w == v) {
                Some(i) => i as Slot,
                None => {
                    vars.push(v);
                    (vars.len() - 1) as Slot
                }
            }
        };
        let atoms: Vec<CompiledAtom> = q
            .atoms()
            .iter()
            .map(|a| CompiledAtom {
                rel: a.rel,
                terms: a
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Cst(c) => match c.as_param() {
                            Some(v) if params.contains(&v) => {
                                SlotTerm::Slot(slot_of(v, &mut vars))
                            }
                            _ => SlotTerm::Cst(*c),
                        },
                        Term::Var(v) => SlotTerm::Slot(slot_of(*v, &mut vars)),
                    })
                    .collect(),
            })
            .collect();
        let semijoin = SemijoinPlan::build(&atoms);
        CompiledQuery {
            atoms,
            vars,
            n_params: params.len(),
            semijoin,
        }
    }

    /// The variables of the query in slot order (parameters first).
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// The slot-compiled atoms, in query order — exposed for static
    /// analysis (`cqa-analyze` converts them into its neutral IR).
    pub fn atoms(&self) -> &[CompiledAtom] {
        &self.atoms
    }

    /// The number of leading parameter slots (see
    /// [`CompiledQuery::with_params`]).
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// The index of the (unique, queries being self-join-free) atom over
    /// `rel`, if any.
    pub fn atom_index(&self, rel: crate::schema::RelName) -> Option<usize> {
        self.atoms.iter().position(|a| a.rel == rel)
    }

    /// The Yannakakis plan, when the query's atom hypergraph is acyclic.
    pub fn semijoin_plan(&self) -> Option<&SemijoinPlan> {
        self.semijoin.as_ref()
    }

    /// `db ⊨ q`, under [`JoinStrategy::Auto`].
    pub fn satisfies(&self, db: &Instance) -> bool {
        self.satisfies_via(db, JoinStrategy::Auto)
    }

    /// `db ⊨ q` under an explicit join strategy — the pin used by the
    /// differential tests and the kernel ratio table.
    pub fn satisfies_via(&self, db: &Instance, join: JoinStrategy) -> bool {
        let mut b = self.base_binding(&Valuation::new());
        if let Some(plan) = self.route(db.index(), &b, join) {
            return plan.satisfiable(db.index(), &mut b, &mut Trail::new(), &mut Vec::new());
        }
        let mut found = false;
        self.run(db, &Valuation::new(), &mut |_| {
            found = true;
            true
        });
        found
    }

    /// Finds a valuation extending `base` with `θ(q) ⊆ db`, under
    /// [`JoinStrategy::Auto`].
    pub fn find_with(&self, db: &Instance, base: &Valuation) -> Option<Valuation> {
        self.find_with_via(db, base, JoinStrategy::Auto)
    }

    /// Like [`CompiledQuery::find_with`] under an explicit join strategy.
    /// The semijoin path may return a *different* (equally valid) witness
    /// than the backtracking search.
    pub fn find_with_via(
        &self,
        db: &Instance,
        base: &Valuation,
        join: JoinStrategy,
    ) -> Option<Valuation> {
        let mut b = self.base_binding(base);
        if let Some(plan) = self.route(db.index(), &b, join) {
            return plan
                .witness(db.index(), &mut b, &mut Trail::new(), &mut Vec::new())
                .then(|| self.to_valuation(&b, base));
        }
        let mut result = None;
        self.run(db, base, &mut |b| {
            result = Some(self.to_valuation(b, base));
            true
        });
        result
    }

    /// The semijoin plan to execute with, if the strategy (and, in `auto`
    /// mode, the [`SemijoinPlan::prefers_semijoin`] heuristic) selects it.
    fn route<S: FactSource + ?Sized>(
        &self,
        src: &S,
        b: &Binding,
        join: JoinStrategy,
    ) -> Option<&SemijoinPlan> {
        let plan = self.semijoin.as_ref()?;
        match join {
            JoinStrategy::Backtracking => None,
            JoinStrategy::Semijoin => Some(plan),
            JoinStrategy::Auto => plan.prefers_semijoin(src, b).then_some(plan),
        }
    }

    /// A fresh binding with the base valuation's entries installed.
    fn base_binding(&self, base: &Valuation) -> Binding {
        let mut binding = Binding::new(self.vars.len());
        for (i, v) in self.vars.iter().enumerate() {
            if let Some(&c) = base.get(v) {
                binding.set(i as Slot, c);
            }
        }
        binding
    }

    /// Runs the join, invoking `on_match` per matching binding until it
    /// returns `true` (stop).
    fn run(&self, db: &Instance, base: &Valuation, on_match: &mut dyn FnMut(&Binding) -> bool) {
        let mut binding = self.base_binding(base);
        let mut remaining: Vec<usize> = (0..self.atoms.len()).collect();
        self.search(
            db.index(),
            &mut remaining,
            &mut binding,
            &mut Trail::new(),
            &mut Vec::new(),
            on_match,
        );
    }

    /// A reusable matcher asking, per row: does some valuation match the
    /// whole query with the anchor atom mapped to exactly that row and the
    /// parameter slots bound to `params`? This is the block-relevance
    /// primitive of the compiled reduction pipeline; the binding, trail and
    /// work list are allocated once here and reused across every row of
    /// every block ([`AnchoredMatcher::matches`] allocates nothing).
    pub fn anchored_matcher(&self, anchor: usize, params: &[Cst]) -> AnchoredMatcher<'_> {
        self.anchored_matcher_via(anchor, params, JoinStrategy::Auto)
    }

    /// Like [`CompiledQuery::anchored_matcher`] under an explicit join
    /// strategy: unless pinned to backtracking, the matcher carries a
    /// semijoin plan over the non-anchor atoms (when they are acyclic) and
    /// routes the per-row residual check through it.
    pub fn anchored_matcher_via(
        &self,
        anchor: usize,
        params: &[Cst],
        join: JoinStrategy,
    ) -> AnchoredMatcher<'_> {
        debug_assert_eq!(params.len(), self.n_params, "parameter arity");
        let mut binding = Binding::new(self.vars.len());
        for (i, &c) in params.iter().enumerate() {
            binding.set(i as Slot, c);
        }
        let semijoin = match join {
            JoinStrategy::Backtracking => None,
            JoinStrategy::Auto | JoinStrategy::Semijoin => {
                let rest: Vec<CompiledAtom> = self
                    .atoms
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != anchor)
                    .map(|(_, a)| a.clone())
                    .collect();
                SemijoinPlan::build(&rest)
            }
        };
        AnchoredMatcher {
            cq: self,
            anchor,
            binding,
            trail: Trail::new(),
            remaining: (0..self.atoms.len()).filter(|&i| i != anchor).collect(),
            key_buf: Vec::new(),
            join,
            semijoin,
            use_semijoin: None,
        }
    }

    /// Converts a match back into a map-based valuation, keeping the extra
    /// entries of `base` (bindings of variables outside `q`), like the
    /// interpretive search did.
    fn to_valuation(&self, b: &Binding, base: &Valuation) -> Valuation {
        let mut out = base.clone();
        for (i, v) in self.vars.iter().enumerate() {
            if let Some(c) = b.get(i as Slot) {
                out.insert(*v, c);
            }
        }
        out
    }

    fn search<S: FactSource + ?Sized>(
        &self,
        idx: &S,
        remaining: &mut Vec<usize>,
        b: &mut Binding,
        trail: &mut Trail,
        key_buf: &mut Vec<Cst>,
        on_match: &mut dyn FnMut(&Binding) -> bool,
    ) -> bool {
        if remaining.is_empty() {
            return on_match(b);
        }
        // Pick the atom with the fewest candidates (fail-first).
        let mut best_idx = 0;
        let mut best: Option<Candidates<'_>> = None;
        for (i, &ai) in remaining.iter().enumerate() {
            let c = idx.guarded_candidates(&self.atoms[ai], b, key_buf);
            let better = match &best {
                None => true,
                Some(bc) => c.len() < bc.len(),
            };
            if better {
                best_idx = i;
                let empty = c.is_empty();
                best = Some(c);
                if empty {
                    break;
                }
            }
        }
        let cands = best.expect("remaining non-empty");
        let ai = remaining.swap_remove(best_idx);
        let atom = &self.atoms[ai];
        let mut stop = false;
        for row in cands {
            let frame = trail.frame();
            if b.unify_row(&atom.terms, row, trail)
                && self.search(idx, remaining, b, trail, key_buf, on_match)
            {
                trail.undo_to(frame, b);
                stop = true;
                break;
            }
            trail.undo_to(frame, b);
        }
        // restore for caller
        remaining.push(ai);
        let last = remaining.len() - 1;
        remaining.swap(best_idx, last);
        stop
    }
}

/// A reusable anchored-match state over one [`CompiledQuery`]: see
/// [`CompiledQuery::anchored_matcher`].
#[derive(Clone, Debug)]
pub struct AnchoredMatcher<'q> {
    cq: &'q CompiledQuery,
    anchor: usize,
    binding: Binding,
    trail: Trail,
    remaining: Vec<usize>,
    key_buf: Vec<Cst>,
    join: JoinStrategy,
    /// Yannakakis plan over the non-anchor atoms, when acyclic and the
    /// strategy allows it.
    semijoin: Option<SemijoinPlan>,
    /// `auto`-mode routing decision, cached after the first row: the
    /// boundness pattern after unifying an anchor row is the same for every
    /// row of the relation, so the heuristic need not rerun per row.
    use_semijoin: Option<bool>,
}

impl AnchoredMatcher<'_> {
    /// Whether the query matches in `src` with the anchor atom mapped to
    /// exactly `row` (under the parameters fixed at construction). Leaves
    /// the matcher ready for the next row: the search undoes its own
    /// bindings and restores the work list.
    pub fn matches<S: FactSource + ?Sized>(&mut self, src: &S, row: &[Cst]) -> bool {
        let frame = self.trail.frame();
        let mut ok = self
            .binding
            .unify_row(&self.cq.atoms[self.anchor].terms, row, &mut self.trail);
        if ok {
            let via_semijoin = match (&self.semijoin, self.join) {
                (None, _) => false,
                (Some(_), JoinStrategy::Semijoin) => true,
                (Some(plan), _) => *self
                    .use_semijoin
                    .get_or_insert_with(|| plan.prefers_semijoin(src, &self.binding)),
            };
            ok = match (&self.semijoin, via_semijoin) {
                (Some(plan), true) => plan.satisfiable(
                    src,
                    &mut self.binding,
                    &mut self.trail,
                    &mut self.key_buf,
                ),
                _ => self.cq.search(
                    src,
                    &mut self.remaining,
                    &mut self.binding,
                    &mut self.trail,
                    &mut self.key_buf,
                    &mut |_| true,
                ),
            };
        }
        self.trail.undo_to(frame, &mut self.binding);
        ok
    }
}

/// Finds a valuation extending `base` with `θ(q) ⊆ db`.
pub fn find_valuation_with(db: &Instance, q: &Query, base: &Valuation) -> Option<Valuation> {
    CompiledQuery::new(q).find_with(db, base)
}

/// Finds a valuation with `θ(q) ⊆ db`.
pub fn find_valuation(db: &Instance, q: &Query) -> Option<Valuation> {
    find_valuation_with(db, q, &Valuation::new())
}

/// `db ⊨ q`.
pub fn satisfies(db: &Instance, q: &Query) -> bool {
    CompiledQuery::new(q).satisfies(db)
}

/// All total valuations over `vars(q)` with `θ(q) ⊆ db` (deduplicated).
pub fn all_valuations(db: &Instance, q: &Query) -> Vec<Valuation> {
    let cq = CompiledQuery::new(q);
    let mut out: BTreeSet<Valuation> = BTreeSet::new();
    cq.run(db, &Valuation::new(), &mut |b| {
        out.insert(cq.to_valuation(b, &Valuation::new()));
        false // keep enumerating
    });
    out.into_iter().collect()
}

/// A fact `A` is *relevant* for `q` in `db` if some valuation `θ` has
/// `A ∈ θ(q) ⊆ db` (paper Appendix A). Returns all relevant facts.
pub fn relevant_facts(db: &Instance, q: &Query) -> BTreeSet<Fact> {
    let mut out = BTreeSet::new();
    for atom in q.atoms() {
        let rest = CompiledQuery::new(&q.without(atom.rel));
        for fact in db.facts_of(atom.rel) {
            if out.contains(&fact) {
                continue;
            }
            if let Some(base) = unify(atom, &fact, &Valuation::new()) {
                if rest.find_with(db, &base).is_some() {
                    out.insert(fact);
                }
            }
        }
    }
    out
}

/// Whether the single fact `A` is relevant for `q` in `db`, i.e. some
/// valuation maps the (unique) atom over `A`'s relation to `A` and embeds the
/// rest of the query.
pub fn is_relevant(db: &Instance, q: &Query, fact: &Fact) -> bool {
    let Some(atom) = q.atom(fact.rel) else {
        return false;
    };
    let Some(base) = unify(atom, fact, &Valuation::new()) else {
        return false;
    };
    find_valuation_with(db, &q.without(fact.rel), &base).is_some()
}

/// Whether a block (given by one of its facts) is relevant for `q` in `db`:
/// it contains at least one relevant fact (paper Appendix A). The residual
/// query is compiled once and reused across the block.
pub fn block_is_relevant(db: &Instance, q: &Query, member: &Fact) -> bool {
    let Some(atom) = q.atom(member.rel) else {
        return false;
    };
    let rest = CompiledQuery::new(&q.without(member.rel));
    db.block_of(member).iter().any(|fact| {
        unify(atom, fact, &Valuation::new())
            .map(|base| rest.find_with(db, &base).is_some())
            .unwrap_or(false)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{RelName, Schema};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        let mut s = Schema::new();
        s.add("R", 2, 1).unwrap();
        s.add("S", 2, 1).unwrap();
        s.add("T", 1, 1).unwrap();
        Arc::new(s)
    }

    fn q_rst() -> Query {
        // {R(x, y), S(y, z), T(z)}
        Query::new(
            schema(),
            vec![
                Atom::new(RelName::new("R"), vec![Term::var("x"), Term::var("y")]),
                Atom::new(RelName::new("S"), vec![Term::var("y"), Term::var("z")]),
                Atom::new(RelName::new("T"), vec![Term::var("z")]),
            ],
        )
        .unwrap()
    }

    fn db() -> Instance {
        let mut db = Instance::new(schema());
        db.insert_named("R", &["a", "b"]).unwrap();
        db.insert_named("R", &["a", "c"]).unwrap();
        db.insert_named("S", &["b", "d"]).unwrap();
        db.insert_named("S", &["x", "y"]).unwrap();
        db.insert_named("T", &["d"]).unwrap();
        db
    }

    #[test]
    fn satisfaction_via_join() {
        assert!(satisfies(&db(), &q_rst()));
        let val = find_valuation(&db(), &q_rst()).unwrap();
        assert_eq!(val[&Var::new("x")], Cst::new("a"));
        assert_eq!(val[&Var::new("y")], Cst::new("b"));
        assert_eq!(val[&Var::new("z")], Cst::new("d"));
    }

    #[test]
    fn unsatisfied_when_chain_broken() {
        let mut d = db();
        d.remove(&Fact::from_names("T", &["d"])).unwrap();
        assert!(!satisfies(&d, &q_rst()));
    }

    #[test]
    fn compiled_query_reusable_across_instances() {
        let cq = CompiledQuery::new(&q_rst());
        assert!(cq.satisfies(&db()));
        let mut d = db();
        d.remove(&Fact::from_names("T", &["d"])).unwrap();
        assert!(!cq.satisfies(&d));
        d.insert_named("T", &["d"]).unwrap();
        assert!(cq.satisfies(&d), "index invalidation after re-insert");
    }

    #[test]
    fn constants_must_match() {
        let q = Query::new(
            schema(),
            vec![Atom::new(
                RelName::new("R"),
                vec![Term::var("x"), Term::cst("zzz")],
            )],
        )
        .unwrap();
        assert!(!satisfies(&db(), &q));
        let q2 = Query::new(
            schema(),
            vec![Atom::new(
                RelName::new("R"),
                vec![Term::var("x"), Term::cst("b")],
            )],
        )
        .unwrap();
        assert!(satisfies(&db(), &q2));
    }

    #[test]
    fn repeated_variables_enforced() {
        // R(x, x) only matches facts with equal components.
        let q = Query::new(
            schema(),
            vec![Atom::new(
                RelName::new("R"),
                vec![Term::var("x"), Term::var("x")],
            )],
        )
        .unwrap();
        assert!(!satisfies(&db(), &q));
        let mut d = db();
        d.insert_named("R", &["e", "e"]).unwrap();
        assert!(satisfies(&d, &q));
    }

    #[test]
    fn partial_valuation_respected() {
        let mut base = Valuation::new();
        base.insert(Var::new("x"), Cst::new("nope"));
        assert!(find_valuation_with(&db(), &q_rst(), &base).is_none());
        let mut base2 = Valuation::new();
        base2.insert(Var::new("x"), Cst::new("a"));
        assert!(find_valuation_with(&db(), &q_rst(), &base2).is_some());
    }

    #[test]
    fn base_entries_outside_query_are_kept() {
        // The interpretive search returned base ∪ bindings; the compiled
        // wrappers must preserve that contract.
        let mut base = Valuation::new();
        base.insert(Var::new("unrelated"), Cst::new("k"));
        let val = find_valuation_with(&db(), &q_rst(), &base).unwrap();
        assert_eq!(val[&Var::new("unrelated")], Cst::new("k"));
        assert_eq!(val[&Var::new("x")], Cst::new("a"));
    }

    #[test]
    fn all_valuations_enumeration() {
        // {R(x, y)} has two embeddings in db.
        let q = Query::new(
            schema(),
            vec![Atom::new(
                RelName::new("R"),
                vec![Term::var("x"), Term::var("y")],
            )],
        )
        .unwrap();
        assert_eq!(all_valuations(&db(), &q).len(), 2);
    }

    #[test]
    fn empty_query_always_true() {
        let q = Query::empty(schema());
        assert!(satisfies(&Instance::new(schema()), &q));
        assert_eq!(all_valuations(&db(), &q).len(), 1); // the empty valuation
    }

    #[test]
    fn relevance() {
        let d = db();
        let q = q_rst();
        let rel = relevant_facts(&d, &q);
        // Only the R(a,b) → S(b,d) → T(d) chain is relevant.
        assert!(rel.contains(&Fact::from_names("R", &["a", "b"])));
        assert!(rel.contains(&Fact::from_names("S", &["b", "d"])));
        assert!(rel.contains(&Fact::from_names("T", &["d"])));
        assert!(!rel.contains(&Fact::from_names("R", &["a", "c"])));
        assert!(!rel.contains(&Fact::from_names("S", &["x", "y"])));

        // Block relevance: the R(a,·) block is relevant via R(a,b).
        assert!(block_is_relevant(&d, &q, &Fact::from_names("R", &["a", "c"])));
        assert!(!block_is_relevant(
            &d,
            &q,
            &Fact::from_names("S", &["x", "y"])
        ));
    }

    #[test]
    fn join_strategies_agree() {
        let cq = CompiledQuery::new(&q_rst());
        let d = db();
        let mut broken = db();
        broken.remove(&Fact::from_names("T", &["d"])).unwrap();
        for join in [
            JoinStrategy::Auto,
            JoinStrategy::Backtracking,
            JoinStrategy::Semijoin,
        ] {
            assert!(cq.satisfies_via(&d, join), "{join}: satisfiable");
            assert!(!cq.satisfies_via(&broken, join), "{join}: broken chain");
            let val = cq.find_with_via(&d, &Valuation::new(), join).unwrap();
            let facts = apply_query(&q_rst(), &val).unwrap();
            assert!(
                facts.iter().all(|f| d.contains(f)),
                "{join}: witness embeds in the instance"
            );
        }
    }

    #[test]
    fn anchored_matcher_strategies_agree() {
        let cq = CompiledQuery::new(&q_rst());
        let d = db();
        let idx = d.index();
        let anchor = cq.atom_index(RelName::new("R")).unwrap();
        let rows: Vec<Box<[Cst]>> = d
            .facts_of(RelName::new("R"))
            .map(|f| f.args.clone())
            .collect();
        for row in &rows {
            let expected = cq
                .anchored_matcher_via(anchor, &[], JoinStrategy::Backtracking)
                .matches(idx, row);
            for join in [JoinStrategy::Auto, JoinStrategy::Semijoin] {
                let got = cq.anchored_matcher_via(anchor, &[], join).matches(idx, row);
                assert_eq!(got, expected, "{join}: anchored row {row:?}");
            }
        }
    }

    #[test]
    fn unify_rejects_mismatches() {
        let atom = Atom::new(RelName::new("R"), vec![Term::var("x"), Term::var("x")]);
        let f1 = Fact::from_names("R", &["a", "a"]);
        let f2 = Fact::from_names("R", &["a", "b"]);
        assert!(unify(&atom, &f1, &Valuation::new()).is_some());
        assert!(unify(&atom, &f2, &Valuation::new()).is_none());
        let f3 = Fact::from_names("S", &["a", "a"]);
        assert!(unify(&atom, &f3, &Valuation::new()).is_none());
    }
}
