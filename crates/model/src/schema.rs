//! Database schemas: relation names with signatures `[n, k]`.
//!
//! Following the paper (§3), every relation name is associated with a
//! signature `[n, k]` where `n ≥ 1` is the arity and `k ∈ [n]`; the set
//! `{1, …, k}` is the primary key. The paper assumes a fixed schema; here a
//! [`Schema`] is an explicit value shared by queries and instances.

use crate::error::ModelError;
use crate::intern::{by_name, by_name_via_sym, Sym};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// An interned relation name.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelName(pub Sym);

impl RelName {
    /// Interns a relation name.
    pub fn new(name: &str) -> RelName {
        RelName(Sym::intern(name))
    }

    /// The relation's name.
    pub fn name(self) -> Arc<str> {
        self.0.resolve()
    }
}

impl fmt::Debug for RelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for RelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

by_name_via_sym!(RelName);

/// A relation signature `[n, k]`: arity `n`, primary key = positions `1..=k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Arity `n ≥ 1`.
    pub arity: usize,
    /// Key length `k` with `1 ≤ k ≤ n`.
    pub key_len: usize,
}

impl Signature {
    /// Creates a signature, validating `1 ≤ k ≤ n`.
    pub fn new(arity: usize, key_len: usize) -> Result<Signature, ModelError> {
        if arity == 0 || key_len == 0 || key_len > arity {
            return Err(ModelError::BadSignature {
                rel: String::new(),
                arity,
                key_len,
            });
        }
        Ok(Signature { arity, key_len })
    }

    /// Number of non-primary-key positions.
    pub fn nonkey_len(self) -> usize {
        self.arity - self.key_len
    }

    /// Whether 1-based position `i` is a primary-key position.
    pub fn is_key_pos(self, i: usize) -> bool {
        (1..=self.key_len).contains(&i)
    }

    /// Iterator over the 1-based primary-key positions `1..=k`.
    pub fn key_positions(self) -> impl Iterator<Item = usize> {
        1..=self.key_len
    }

    /// Iterator over the 1-based non-primary-key positions `k+1..=n`.
    pub fn nonkey_positions(self) -> impl Iterator<Item = usize> {
        (self.key_len + 1)..=self.arity
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.arity, self.key_len)
    }
}

/// A position `(R, i)` of the schema, `i` 1-based — a vertex of the paper's
/// dependency graph (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Position {
    /// Relation name.
    pub rel: RelName,
    /// 1-based attribute index.
    pub idx: usize,
}

impl Position {
    /// Creates a position.
    pub fn new(rel: RelName, idx: usize) -> Position {
        Position { rel, idx }
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.rel, self.idx)
    }
}

/// A finite set of relation names with signatures.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schema {
    /// The lookup table (intern-id order).
    rels: BTreeMap<RelName, Signature>,
    /// The same relations in name order, for every reader that iterates.
    names: Vec<RelName>,
    /// The same relations as one shared set: the visible set of every full
    /// [`InstanceView`](crate::InstanceView), which copies it only when it
    /// hides a relation.
    set: Arc<BTreeSet<RelName>>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Declares relation `name` with signature `[arity, key_len]`.
    ///
    /// Re-declaring with the same signature is a no-op; re-declaring with a
    /// different one is an error.
    pub fn add(&mut self, name: &str, arity: usize, key_len: usize) -> Result<RelName, ModelError> {
        let sig = Signature::new(arity, key_len).map_err(|_| ModelError::BadSignature {
            rel: name.to_string(),
            arity,
            key_len,
        })?;
        let rel = RelName::new(name);
        match self.rels.get(&rel) {
            Some(existing) if *existing != sig => {
                Err(ModelError::ConflictingSignature(name.to_string()))
            }
            Some(_) => Ok(rel),
            None => {
                self.rels.insert(rel, sig);
                Arc::make_mut(&mut self.set).insert(rel);
                let at = self.names.partition_point(|r| by_name(r, &rel).is_lt());
                self.names.insert(at, rel);
                Ok(rel)
            }
        }
    }

    /// The signature of `rel`, if declared.
    pub fn signature(&self, rel: RelName) -> Option<Signature> {
        self.rels.get(&rel).copied()
    }

    /// The signature of `rel`, or an error.
    pub fn expect(&self, rel: RelName) -> Result<Signature, ModelError> {
        self.signature(rel)
            .ok_or_else(|| ModelError::UnknownRelation(rel.name().to_string()))
    }

    /// Whether `rel` is declared.
    pub fn contains(&self, rel: RelName) -> bool {
        self.rels.contains_key(&rel)
    }

    /// All declared relations in name order.
    pub fn relations(&self) -> impl Iterator<Item = (RelName, Signature)> + '_ {
        self.names.iter().map(|r| (*r, self.rels[r]))
    }

    /// All declared relations in intern-id order: the order of
    /// [`RelName`]'s `Ord`, for readers that must agree with sorted sets.
    pub(crate) fn ids(&self) -> impl Iterator<Item = RelName> + '_ {
        self.rels.keys().copied()
    }

    /// All declared relations, as the shared set.
    pub(crate) fn relation_set(&self) -> &Arc<BTreeSet<RelName>> {
        &self.set
    }

    /// Number of declared relations.
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    /// Whether the schema is empty.
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    /// All positions `(R, i)` of the schema, in canonical order.
    pub fn positions(&self) -> Vec<Position> {
        let mut out = Vec::new();
        for (rel, sig) in self.relations() {
            for i in 1..=sig.arity {
                out.push(Position::new(rel, i));
            }
        }
        out
    }

    /// Restriction of the schema to the given relations.
    pub fn restrict(&self, keep: impl Fn(RelName) -> bool) -> Schema {
        let names: Vec<RelName> = self.names.iter().copied().filter(|&r| keep(r)).collect();
        Schema {
            rels: names.iter().map(|r| (*r, self.rels[r])).collect(),
            set: Arc::new(names.iter().copied().collect()),
            names,
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (rel, sig) in self.relations() {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            write!(f, "{rel}{sig}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_validation() {
        assert!(Signature::new(3, 2).is_ok());
        assert!(Signature::new(3, 0).is_err());
        assert!(Signature::new(3, 4).is_err());
        assert!(Signature::new(0, 0).is_err());
    }

    #[test]
    fn signature_positions() {
        let sig = Signature::new(4, 2).unwrap();
        assert_eq!(sig.key_positions().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(sig.nonkey_positions().collect::<Vec<_>>(), vec![3, 4]);
        assert!(sig.is_key_pos(1));
        assert!(!sig.is_key_pos(3));
        assert_eq!(sig.nonkey_len(), 2);
    }

    #[test]
    fn schema_add_and_lookup() {
        let mut s = Schema::new();
        let r = s.add("R", 3, 2).unwrap();
        assert_eq!(s.signature(r), Some(Signature { arity: 3, key_len: 2 }));
        // idempotent re-declaration
        assert!(s.add("R", 3, 2).is_ok());
        // conflicting re-declaration
        assert!(matches!(
            s.add("R", 2, 1),
            Err(ModelError::ConflictingSignature(_))
        ));
        assert!(s.expect(RelName::new("Zzz")).is_err());
    }

    #[test]
    fn schema_positions_enumeration() {
        let mut s = Schema::new();
        s.add("R", 2, 1).unwrap();
        s.add("S", 1, 1).unwrap();
        let ps = s.positions();
        assert_eq!(ps.len(), 3);
        assert!(ps.contains(&Position::new(RelName::new("R"), 2)));
    }

    #[test]
    fn schema_display_matches_paper_notation() {
        let mut s = Schema::new();
        s.add("R", 3, 2).unwrap();
        s.add("S", 2, 1).unwrap();
        assert_eq!(s.to_string(), "R[3, 2] S[2, 1]");
    }

    #[test]
    fn schema_restrict() {
        let mut s = Schema::new();
        s.add("R", 2, 1).unwrap();
        s.add("S", 1, 1).unwrap();
        let r = s.restrict(|rel| rel == RelName::new("R"));
        assert_eq!(r.len(), 1);
        assert!(r.contains(RelName::new("R")));
        assert!(!r.contains(RelName::new("S")));
    }
}
