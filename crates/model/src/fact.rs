//! Ground facts `R(a₁, …, aₙ)`.

use crate::intern::{ByName, Cst, Names};
use crate::schema::{RelName, Signature};
use std::fmt;

/// A ground fact: a relation name plus a tuple of constants.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fact {
    /// Relation name.
    pub rel: RelName,
    /// Constants, in attribute order.
    pub args: Box<[Cst]>,
}

impl ByName for Fact {
    fn cmp_names(&self, other: &Self, names: &Names<'_>) -> std::cmp::Ordering {
        (self.rel, &self.args).cmp_names(&(other.rel, &other.args), names)
    }
}

impl Fact {
    /// Creates a fact.
    pub fn new(rel: RelName, args: impl Into<Box<[Cst]>>) -> Fact {
        Fact {
            rel,
            args: args.into(),
        }
    }

    /// Convenience constructor from string names.
    pub fn from_names(rel: &str, args: &[&str]) -> Fact {
        Fact {
            rel: RelName::new(rel),
            args: args.iter().map(|a| Cst::new(a)).collect(),
        }
    }

    /// Arity of the fact.
    pub fn arity(&self) -> usize {
        self.args.len()
    }

    /// The constant at 1-based position `i`.
    pub fn arg_at(&self, i: usize) -> Option<Cst> {
        self.args.get(i.checked_sub(1)?).copied()
    }

    /// The primary-key prefix of the fact.
    pub fn key(&self, sig: Signature) -> &[Cst] {
        &self.args[..sig.key_len]
    }

    /// Key-equality `A ∼ B` (paper §3.1): same relation name, agreeing on all
    /// primary-key positions.
    pub fn key_equal(&self, other: &Fact, sig: Signature) -> bool {
        self.rel == other.rel && self.key(sig) == other.key(sig)
    }
}

impl fmt::Display for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.rel)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Fact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let f = Fact::from_names("R", &["a", "b", "c"]);
        assert_eq!(f.arity(), 3);
        assert_eq!(f.arg_at(1), Some(Cst::new("a")));
        assert_eq!(f.arg_at(4), None);
        assert_eq!(f.to_string(), "R(a, b, c)");
    }

    #[test]
    fn key_equality() {
        let sig = Signature::new(3, 2).unwrap();
        let a = Fact::from_names("R", &["1", "2", "x"]);
        let b = Fact::from_names("R", &["1", "2", "y"]);
        let c = Fact::from_names("R", &["1", "3", "x"]);
        let d = Fact::from_names("S", &["1", "2", "x"]);
        assert!(a.key_equal(&b, sig));
        assert!(!a.key_equal(&c, sig));
        assert!(!a.key_equal(&d, sig));
        assert_eq!(a.key(sig), &[Cst::new("1"), Cst::new("2")]);
    }
}
