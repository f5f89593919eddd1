//! Self-join-free Boolean conjunctive queries (`sjfBCQ`, paper §3.1).

use crate::atom::Atom;
use crate::error::ModelError;
use crate::intern::{by_name, Cst, Var};
use crate::schema::{Position, RelName, Schema, Signature};
use crate::term::Term;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// A self-join-free Boolean conjunctive query: a finite set of atoms, no two
/// of which share a relation name. Since queries are self-join-free, the
/// paper's convention of naming atoms by their relation applies: `q.atom(R)`
/// is *the* `R`-atom of `q`.
#[derive(Clone, PartialEq, Eq)]
pub struct Query {
    schema: Arc<Schema>,
    atoms: Vec<Atom>,
    index: BTreeMap<RelName, usize>,
}

impl Query {
    /// Builds a query over `schema`, validating arity and self-join-freeness.
    pub fn new(schema: Arc<Schema>, mut atoms: Vec<Atom>) -> Result<Query, ModelError> {
        atoms.sort_by(|a, b| by_name(&a.rel, &b.rel));
        let mut index = BTreeMap::new();
        for (i, atom) in atoms.iter().enumerate() {
            let sig = schema.expect(atom.rel)?;
            if atom.arity() != sig.arity {
                return Err(ModelError::ArityMismatch {
                    rel: atom.rel,
                    expected: sig.arity,
                    got: atom.arity(),
                });
            }
            if index.insert(atom.rel, i).is_some() {
                return Err(ModelError::SelfJoin(atom.rel));
            }
        }
        Ok(Query {
            schema,
            atoms,
            index,
        })
    }

    /// The empty query (trivially true).
    pub fn empty(schema: Arc<Schema>) -> Query {
        Query {
            schema,
            atoms: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    /// The underlying schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The atoms, in canonical (relation-name) order.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the query has no atoms.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The unique `rel`-atom, if present.
    pub fn atom(&self, rel: RelName) -> Option<&Atom> {
        self.index.get(&rel).map(|&i| &self.atoms[i])
    }

    /// The relations occurring in the query, in canonical order.
    pub fn relations(&self) -> impl Iterator<Item = RelName> + '_ {
        self.atoms.iter().map(|a| a.rel)
    }

    /// Whether `rel` occurs in the query.
    pub fn contains(&self, rel: RelName) -> bool {
        self.index.contains_key(&rel)
    }

    /// The signature of an atom's relation. Panics if `rel` is not in the
    /// query's schema (queries validate membership at construction).
    pub fn sig(&self, rel: RelName) -> Signature {
        self.schema
            .signature(rel)
            .expect("relation validated at construction")
    }

    /// `vars(q)`: all variables of the query.
    pub fn vars(&self) -> BTreeSet<Var> {
        self.atoms.iter().flat_map(|a| a.vars()).collect()
    }

    /// `const(q)`: all constants of the query.
    pub fn consts(&self) -> BTreeSet<Cst> {
        self.atoms.iter().flat_map(|a| a.consts()).collect()
    }

    /// `key(F)` for the `rel`-atom: variables at primary-key positions.
    pub fn key_vars(&self, rel: RelName) -> BTreeSet<Var> {
        match self.atom(rel) {
            Some(a) => a.key_vars(self.sig(rel)),
            None => BTreeSet::new(),
        }
    }

    /// The term at position `(R, i)`, if `R` occurs in the query.
    pub fn term_at(&self, pos: Position) -> Option<Term> {
        self.atom(pos.rel)?.term_at(pos.idx)
    }

    /// All positions of the query's relations (1-based), canonical order.
    pub fn positions(&self) -> Vec<Position> {
        let mut out = Vec::new();
        for atom in &self.atoms {
            for i in 1..=atom.arity() {
                out.push(Position::new(atom.rel, i));
            }
        }
        out
    }

    /// The query without the `rel`-atom (`q ∖ {F}`).
    pub fn without(&self, rel: RelName) -> Query {
        let atoms = self
            .atoms
            .iter()
            .filter(|a| a.rel != rel)
            .cloned()
            .collect();
        Query::new(self.schema.clone(), atoms).expect("subset of a valid query is valid")
    }

    /// The query restricted to the given relation names.
    pub fn restrict(&self, keep: &BTreeSet<RelName>) -> Query {
        let atoms = self
            .atoms
            .iter()
            .filter(|a| keep.contains(&a.rel))
            .cloned()
            .collect();
        Query::new(self.schema.clone(), atoms).expect("subset of a valid query is valid")
    }

    /// `q[x→t]` extended to maps: applies a variable substitution to every
    /// atom.
    pub fn substitute(&self, map: &BTreeMap<Var, Term>) -> Query {
        let atoms = self.atoms.iter().map(|a| a.substitute(map)).collect();
        Query::new(self.schema.clone(), atoms).expect("substitution preserves validity")
    }

    /// Freezes the given variables as *parameter constants* (`§x`); analysis
    /// code then treats them as constants. See [`Cst::param`].
    pub fn freeze(&self, vars: &BTreeSet<Var>) -> Query {
        let map = vars
            .iter()
            .map(|&v| (v, Term::Cst(Cst::param(v))))
            .collect();
        self.substitute(&map)
    }

    /// Whether variables `x` and `y` are *connected in q* (paper Appendix A):
    /// there is a sequence of variables from `x` to `y` such that adjacent
    /// ones co-occur in some atom of the query.
    pub fn connected(&self, x: Var, y: Var) -> bool {
        if x == y {
            return self.vars().contains(&x);
        }
        let mut seen = BTreeSet::new();
        let mut stack = vec![x];
        seen.insert(x);
        while let Some(v) = stack.pop() {
            for atom in &self.atoms {
                let vars = atom.vars();
                if vars.contains(&v) {
                    for w in vars {
                        if w == y {
                            return true;
                        }
                        if seen.insert(w) {
                            stack.push(w);
                        }
                    }
                }
            }
        }
        false
    }

    /// A variable is *orphan* in `q` if it occurs exactly once in the query,
    /// at a non-primary-key position (paper Appendix A).
    pub fn is_orphan(&self, v: Var) -> bool {
        let mut occurrences = 0usize;
        let mut at_nonkey = false;
        for atom in &self.atoms {
            let sig = self.sig(atom.rel);
            for (i, t) in atom.terms.iter().enumerate() {
                if t.as_var() == Some(v) {
                    occurrences += 1;
                    at_nonkey = !sig.is_key_pos(i + 1);
                }
            }
        }
        occurrences == 1 && at_nonkey
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        let mut s = Schema::new();
        s.add("R", 2, 1).unwrap();
        s.add("S", 2, 1).unwrap();
        s.add("T", 3, 2).unwrap();
        Arc::new(s)
    }

    fn q_rs() -> Query {
        // {R(x,y), S(y,z)}
        Query::new(
            schema(),
            vec![
                Atom::new(RelName::new("R"), vec![Term::var("x"), Term::var("y")]),
                Atom::new(RelName::new("S"), vec![Term::var("y"), Term::var("z")]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn valid_query() {
        let q = q_rs();
        assert_eq!(q.len(), 2);
        assert!(q.contains(RelName::new("R")));
        assert_eq!(
            q.vars(),
            ["x", "y", "z"].iter().map(|v| Var::new(v)).collect()
        );
    }

    #[test]
    fn self_join_rejected() {
        let err = Query::new(
            schema(),
            vec![
                Atom::new(RelName::new("R"), vec![Term::var("x"), Term::var("y")]),
                Atom::new(RelName::new("R"), vec![Term::var("y"), Term::var("x")]),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::SelfJoin(_)));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let err = Query::new(
            schema(),
            vec![Atom::new(RelName::new("R"), vec![Term::var("x")])],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::ArityMismatch { .. }));
    }

    #[test]
    fn unknown_relation_rejected() {
        let err = Query::new(
            schema(),
            vec![Atom::new(RelName::new("Z"), vec![Term::var("x")])],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::UnknownRelation(_)));
    }

    #[test]
    fn key_vars_respects_signature() {
        let q = Query::new(
            schema(),
            vec![Atom::new(
                RelName::new("T"),
                vec![Term::var("x"), Term::cst("c"), Term::var("y")],
            )],
        )
        .unwrap();
        assert_eq!(
            q.key_vars(RelName::new("T")),
            [Var::new("x")].into_iter().collect()
        );
    }

    #[test]
    fn without_and_restrict() {
        let q = q_rs();
        let q2 = q.without(RelName::new("R"));
        assert_eq!(q2.len(), 1);
        assert!(q2.contains(RelName::new("S")));
        let q3 = q.restrict(&[RelName::new("R")].into_iter().collect());
        assert_eq!(q3.len(), 1);
        assert!(q3.contains(RelName::new("R")));
    }

    #[test]
    fn substitution_and_freeze() {
        let q = q_rs();
        let mut m = BTreeMap::new();
        m.insert(Var::new("y"), Term::cst("c"));
        let q2 = q.substitute(&m);
        assert!(!q2.vars().contains(&Var::new("y")));
        assert!(q2.consts().contains(&Cst::new("c")));

        let frozen = q.freeze(&[Var::new("x")].into_iter().collect());
        assert!(!frozen.vars().contains(&Var::new("x")));
        let c = Cst::param(Var::new("x"));
        assert!(frozen.consts().contains(&c));
        assert_eq!(c.as_param(), Some(Var::new("x")));
    }

    #[test]
    fn connectivity() {
        let q = q_rs();
        assert!(q.connected(Var::new("x"), Var::new("z")));
        assert!(q.connected(Var::new("x"), Var::new("x")));
        assert!(!q.connected(Var::new("x"), Var::new("w")));
    }

    #[test]
    fn orphan_detection() {
        let q = q_rs();
        // z occurs once at a non-key position of S.
        assert!(q.is_orphan(Var::new("z")));
        // y occurs twice.
        assert!(!q.is_orphan(Var::new("y")));
        // x occurs once but at a key position.
        assert!(!q.is_orphan(Var::new("x")));
    }

    #[test]
    fn atoms_sorted_canonically() {
        let q = Query::new(
            schema(),
            vec![
                Atom::new(RelName::new("S"), vec![Term::var("y"), Term::var("z")]),
                Atom::new(RelName::new("R"), vec![Term::var("x"), Term::var("y")]),
            ],
        )
        .unwrap();
        assert_eq!(q.atoms()[0].rel, RelName::new("R"));
        assert_eq!(q.to_string(), "{R(x, y), S(y, z)}");
    }
}
