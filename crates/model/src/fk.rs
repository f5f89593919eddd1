//! Unary foreign keys `R[i] → S` and validated sets thereof (paper §3.2).

use crate::error::ModelError;
use crate::intern::{sort_by_name, ByName, Names};
use crate::query::Query;
use crate::schema::{RelName, Schema};
use crate::term::Term;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A unary foreign key `R[i] → S`: position `i` of `R` references the
/// (unary) primary key of `S`.
///
/// The key is *weak* if `i ≤ k` (it overlaps `R`'s primary key) and *strong*
/// otherwise. The referenced relation `S` must have signature `[m, 1]`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ForeignKey {
    /// Source relation `R`.
    pub from: RelName,
    /// 1-based position `i` of `R`.
    pub pos: usize,
    /// Referenced relation `S`.
    pub to: RelName,
}

impl ByName for ForeignKey {
    fn cmp_names(&self, other: &Self, names: &Names<'_>) -> std::cmp::Ordering {
        ((self.from, self.pos), self.to).cmp_names(&((other.from, other.pos), other.to), names)
    }
}

impl ForeignKey {
    /// Creates a foreign key (unvalidated; see [`FkSet::new`]).
    pub fn new(from: RelName, pos: usize, to: RelName) -> ForeignKey {
        ForeignKey { from, pos, to }
    }

    /// Convenience constructor from names.
    pub fn from_names(from: &str, pos: usize, to: &str) -> ForeignKey {
        ForeignKey::new(RelName::new(from), pos, RelName::new(to))
    }

    /// Whether the key is weak (`i ≤ k`) under `schema`.
    pub fn is_weak(&self, schema: &Schema) -> bool {
        match schema.signature(self.from) {
            Some(sig) => self.pos <= sig.key_len,
            None => false,
        }
    }

    /// Whether the key is strong (`i > k`) under `schema`.
    pub fn is_strong(&self, schema: &Schema) -> bool {
        match schema.signature(self.from) {
            Some(sig) => self.pos > sig.key_len,
            None => false,
        }
    }

    /// A foreign key `R[1] → R` over signature `[n, 1]` is *trivial*: it can
    /// never be falsified (paper Appendix A).
    pub fn is_trivial(&self, schema: &Schema) -> bool {
        self.from == self.to
            && self.pos == 1
            && schema
                .signature(self.from)
                .map(|s| s.key_len == 1)
                .unwrap_or(false)
    }

    /// Validates the key against a schema.
    pub fn validate(&self, schema: &Schema) -> Result<(), ModelError> {
        let from_sig = schema.expect(self.from)?;
        let to_sig = schema.expect(self.to)?;
        if self.pos == 0 || self.pos > from_sig.arity {
            return Err(ModelError::BadFkPosition {
                from: self.from,
                pos: self.pos,
            });
        }
        if to_sig.key_len != 1 {
            return Err(ModelError::CompositeKeyReferenced(self.to));
        }
        Ok(())
    }
}

impl fmt::Display for ForeignKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] → {}", self.from, self.pos, self.to)
    }
}

impl fmt::Debug for ForeignKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A schema-validated set of unary foreign keys.
#[derive(Clone, PartialEq, Eq)]
pub struct FkSet {
    schema: Arc<Schema>,
    /// Sorted by name and deduplicated: the set's one canonical order.
    fks: Vec<ForeignKey>,
}

/// `fks` as a set in name order.
fn canonical(mut fks: Vec<ForeignKey>) -> Vec<ForeignKey> {
    sort_by_name(&mut fks);
    fks.dedup();
    fks
}

impl FkSet {
    /// Builds a foreign-key set, validating every key against `schema`.
    pub fn new(
        schema: Arc<Schema>,
        fks: impl IntoIterator<Item = ForeignKey>,
    ) -> Result<FkSet, ModelError> {
        let fks = canonical(fks.into_iter().collect());
        for fk in &fks {
            fk.validate(&schema)?;
        }
        Ok(FkSet { schema, fks })
    }

    /// The empty set over `schema`.
    pub fn empty(schema: Arc<Schema>) -> FkSet {
        FkSet {
            schema,
            fks: Vec::new(),
        }
    }

    /// The underlying schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Iterator over the keys in canonical (name) order.
    pub fn iter(&self) -> impl Iterator<Item = &ForeignKey> + '_ {
        self.fks.iter()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.fks.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.fks.is_empty()
    }

    /// Whether `fk` is a member.
    pub fn contains(&self, fk: &ForeignKey) -> bool {
        self.fks.contains(fk)
    }

    /// `FK[R →]`: keys outgoing from `rel`.
    pub fn outgoing(&self, rel: RelName) -> Vec<ForeignKey> {
        self.fks.iter().filter(|fk| fk.from == rel).copied().collect()
    }

    /// `FK[→ R]`: keys referencing `rel`.
    pub fn referencing(&self, rel: RelName) -> Vec<ForeignKey> {
        self.fks.iter().filter(|fk| fk.to == rel).copied().collect()
    }

    /// The weak members.
    pub fn weak(&self) -> Vec<ForeignKey> {
        self.fks
            .iter()
            .filter(|fk| fk.is_weak(&self.schema))
            .copied()
            .collect()
    }

    /// The strong members.
    pub fn strong(&self) -> Vec<ForeignKey> {
        self.fks
            .iter()
            .filter(|fk| fk.is_strong(&self.schema))
            .copied()
            .collect()
    }

    /// The set without `fk`.
    pub fn without(&self, fk: &ForeignKey) -> FkSet {
        self.without_all([fk])
    }

    /// The set minus all the given keys.
    pub fn without_all<'a>(&self, remove: impl IntoIterator<Item = &'a ForeignKey>) -> FkSet {
        let remove: Vec<&ForeignKey> = remove.into_iter().collect();
        FkSet {
            schema: self.schema.clone(),
            fks: self
                .fks
                .iter()
                .filter(|fk| !remove.contains(fk))
                .copied()
                .collect(),
        }
    }

    /// Adds a key (validated).
    pub fn with(&self, fk: ForeignKey) -> Result<FkSet, ModelError> {
        fk.validate(&self.schema)?;
        let mut fks = self.fks.clone();
        fks.push(fk);
        Ok(FkSet {
            schema: self.schema.clone(),
            fks: canonical(fks),
        })
    }

    /// `FK↾q`: the keys that only use relation names occurring in `q`.
    pub fn restrict_to_query(&self, q: &Query) -> FkSet {
        let fks = self
            .fks
            .iter()
            .filter(|fk| q.contains(fk.from) && q.contains(fk.to))
            .copied()
            .collect();
        FkSet {
            schema: self.schema.clone(),
            fks,
        }
    }

    /// All relation names mentioned by some key.
    pub fn relations(&self) -> BTreeSet<RelName> {
        self.fks
            .iter()
            .flat_map(|fk| [fk.from, fk.to])
            .collect()
    }

    /// Checks that this set is *about* `q` (paper §3.2): every key is
    /// satisfied by `q` when distinct variables are read as distinct
    /// constants, and every relation of the set occurs in `q`.
    ///
    /// For unary keys this means: the term at `(R, i)` must be literally the
    /// same term as the one at `(S, 1)` in the unique `S`-atom of `q`.
    pub fn check_about(&self, q: &Query) -> Result<(), ModelError> {
        for fk in &self.fks {
            if !q.contains(fk.from) || !q.contains(fk.to) {
                return Err(ModelError::NotAboutQuery {
                    detail: format!("{fk}: both relations must occur in the query"),
                });
            }
            let src = q
                .atom(fk.from)
                .expect("contains checked")
                .term_at(fk.pos)
                .ok_or(ModelError::BadFkPosition {
                    from: fk.from,
                    pos: fk.pos,
                })?;
            let dst = q
                .atom(fk.to)
                .expect("contains checked")
                .term_at(1)
                .expect("arity >= 1");
            if src != dst {
                return Err(ModelError::NotAboutQuery {
                    detail: format!(
                        "{fk}: term {src} at ({}, {}) differs from key term {dst} of {}",
                        fk.from, fk.pos, fk.to
                    ),
                });
            }
            // Distinct variables are distinct constants, so a variable term
            // satisfies the key only by matching itself — already checked.
            // A constant term must equal the S-atom key constant — also
            // covered by literal term equality.
        }
        Ok(())
    }
}

impl fmt::Display for FkSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, fk) in self.fks.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{fk}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for FkSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Helper used by validation examples and tests: whether a query satisfies a
/// single foreign key when distinct variables are treated as distinct
/// constants (i.e. the atom pattern itself is non-dangling).
pub fn query_satisfies_fk(q: &Query, fk: &ForeignKey) -> bool {
    match (q.atom(fk.from), q.atom(fk.to)) {
        (Some(src), Some(dst)) => {
            let s: Option<Term> = src.term_at(fk.pos);
            let d = dst.term_at(1);
            s.is_some() && s == d
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::term::Term;

    fn schema() -> Arc<Schema> {
        let mut s = Schema::new();
        s.add("R", 3, 2).unwrap();
        s.add("S", 2, 1).unwrap();
        s.add("T", 2, 1).unwrap();
        s.add("U", 3, 2).unwrap();
        Arc::new(s)
    }

    #[test]
    fn weak_vs_strong_example3() {
        // Paper Example 3: FK = {R[1] → S, R[3] → T}, R:[3,2], S,T:[2,1].
        let s = schema();
        let weak = ForeignKey::from_names("R", 1, "S");
        let strong = ForeignKey::from_names("R", 3, "T");
        assert!(weak.is_weak(&s));
        assert!(!weak.is_strong(&s));
        assert!(strong.is_strong(&s));
        assert!(!strong.is_weak(&s));
    }

    #[test]
    fn composite_key_reference_rejected() {
        let s = schema();
        // U has key_len 2: cannot be referenced.
        let fk = ForeignKey::from_names("R", 3, "U");
        assert!(matches!(
            fk.validate(&s),
            Err(ModelError::CompositeKeyReferenced(_))
        ));
        assert!(FkSet::new(s, vec![fk]).is_err());
    }

    #[test]
    fn position_out_of_range_rejected() {
        let s = schema();
        let fk = ForeignKey::from_names("R", 4, "S");
        assert!(matches!(
            fk.validate(&s),
            Err(ModelError::BadFkPosition { .. })
        ));
        let fk0 = ForeignKey::from_names("R", 0, "S");
        assert!(fk0.validate(&s).is_err());
    }

    #[test]
    fn trivial_detection() {
        let s = schema();
        assert!(ForeignKey::from_names("S", 1, "S").is_trivial(&s));
        assert!(!ForeignKey::from_names("S", 2, "S").is_trivial(&s));
        assert!(!ForeignKey::from_names("S", 1, "T").is_trivial(&s));
        // R has composite key: R[1] → R is not even valid, and not trivial.
        assert!(!ForeignKey::from_names("R", 1, "R").is_trivial(&s));
    }

    #[test]
    fn outgoing_and_referencing() {
        let s = schema();
        let set = FkSet::new(
            s,
            vec![
                ForeignKey::from_names("R", 1, "S"),
                ForeignKey::from_names("R", 3, "T"),
                ForeignKey::from_names("T", 2, "S"),
            ],
        )
        .unwrap();
        assert_eq!(set.outgoing(RelName::new("R")).len(), 2);
        assert_eq!(set.referencing(RelName::new("S")).len(), 2);
        assert_eq!(set.weak().len(), 1);
        assert_eq!(set.strong().len(), 2);
    }

    #[test]
    fn about_check_accepts_matching_terms() {
        // q = {R(x, y, z), S(z, w)}, FK = {R[3] → S}: term z matches.
        let s = schema();
        let q = Query::new(
            s.clone(),
            vec![
                Atom::new(
                    RelName::new("R"),
                    vec![Term::var("x"), Term::var("y"), Term::var("z")],
                ),
                Atom::new(RelName::new("S"), vec![Term::var("z"), Term::var("w")]),
            ],
        )
        .unwrap();
        let set = FkSet::new(s, vec![ForeignKey::from_names("R", 3, "S")]).unwrap();
        assert!(set.check_about(&q).is_ok());
    }

    #[test]
    fn about_check_rejects_mismatch_and_missing_relation() {
        let s = schema();
        // Terms differ: R[3] holds z but S's key is w.
        let q = Query::new(
            s.clone(),
            vec![
                Atom::new(
                    RelName::new("R"),
                    vec![Term::var("x"), Term::var("y"), Term::var("z")],
                ),
                Atom::new(RelName::new("S"), vec![Term::var("w"), Term::var("u")]),
            ],
        )
        .unwrap();
        let set = FkSet::new(s.clone(), vec![ForeignKey::from_names("R", 3, "S")]).unwrap();
        assert!(matches!(
            set.check_about(&q),
            Err(ModelError::NotAboutQuery { .. })
        ));

        // Relation T absent from the query.
        let set2 = FkSet::new(s, vec![ForeignKey::from_names("R", 3, "T")]).unwrap();
        assert!(set2.check_about(&q).is_err());
    }

    #[test]
    fn proposition_19_shape_is_rejected() {
        // q = {E(x, y)} with FK = {E[2] → E} is NOT about q: the term y at
        // (E,2) differs from the key term x (paper §9, Proposition 19).
        let mut sch = Schema::new();
        sch.add("E", 2, 1).unwrap();
        let s = Arc::new(sch);
        let q = Query::new(
            s.clone(),
            vec![Atom::new(
                RelName::new("E"),
                vec![Term::var("x"), Term::var("y")],
            )],
        )
        .unwrap();
        let set = FkSet::new(s, vec![ForeignKey::from_names("E", 2, "E")]).unwrap();
        assert!(set.check_about(&q).is_err());
        assert!(!query_satisfies_fk(&q, &ForeignKey::from_names("E", 2, "E")));
    }

    #[test]
    fn set_operations() {
        let s = schema();
        let fk1 = ForeignKey::from_names("R", 1, "S");
        let fk2 = ForeignKey::from_names("R", 3, "T");
        let set = FkSet::new(s, vec![fk1, fk2]).unwrap();
        let smaller = set.without(&fk1);
        assert_eq!(smaller.len(), 1);
        assert!(smaller.contains(&fk2));
        let bigger = smaller.with(fk1).unwrap();
        assert_eq!(bigger.len(), 2);
        assert_eq!(
            set.relations(),
            ["R", "S", "T"].iter().map(|r| RelName::new(r)).collect()
        );
    }
}
