//! Process-global string interner and the interned symbol types.
//!
//! Constants ([`Cst`]) and variables ([`Var`]) are thin wrappers over an
//! interned symbol ([`Sym`]). Interning makes equality O(1) and keeps facts
//! compact (`u32` per value).
//!
//! **Ordering is by intern id**: `Sym`, `Cst`, `Var` and
//! [`RelName`](crate::RelName) compare as `u32`, with no lock and no string
//! read, so every sorted set, map and row sort inside the system costs an
//! integer compare. Id order depends on the order in which a process
//! first met each name, so nothing a user sees may follow it. *String*
//! order applies only at the output boundaries, through the one
//! [`by_name`] comparator ([`ByName`] lifts it to facts, foreign keys,
//! pairs and slices; [`sort_by_name`] sorts under one lock):
//!
//! * the `Display` impls of [`Schema`](crate::Schema),
//!   [`Query`](crate::Query), [`FkSet`](crate::FkSet) and
//!   [`Instance`](crate::Instance) (and, downstream, the rewrite plan and
//!   the read-set);
//! * emitted Datalog and SQL artifacts;
//! * `cqa answer` / `cqa oracle` listings (the oracle also searches blocks
//!   in name order, so it finds the same witness) and serve JSON replies;
//! * per-problem planning that picks "the first" element of a set, so a
//!   plan (and its fresh-symbol numbering) is the same in every process.

use parking_lot::RwLock;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};

/// An interned string symbol.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

struct Interner {
    map: HashMap<Arc<str>, u32>,
    strings: Vec<Arc<str>>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

static FRESH_COUNTER: AtomicU64 = AtomicU64::new(0);

impl Sym {
    /// Interns `s`, returning its symbol. Idempotent.
    pub fn intern(s: &str) -> Sym {
        {
            let guard = interner().read();
            if let Some(&id) = guard.map.get(s) {
                return Sym(id);
            }
        }
        let mut guard = interner().write();
        if let Some(&id) = guard.map.get(s) {
            return Sym(id);
        }
        let arc: Arc<str> = Arc::from(s);
        let id = u32::try_from(guard.strings.len()).expect("interner overflow");
        guard.strings.push(arc.clone());
        guard.map.insert(arc, id);
        Sym(id)
    }

    /// Resolves the symbol back to its string.
    pub fn resolve(self) -> Arc<str> {
        interner().read().strings[self.0 as usize].clone()
    }

    /// Interns a globally fresh symbol of the form `{prefix}#{n}`.
    ///
    /// The `#` character is reserved: the parser rejects it in user input, so
    /// fresh symbols can never collide with user-visible names.
    pub fn fresh(prefix: &str) -> Sym {
        let n = FRESH_COUNTER.fetch_add(1, AtomicOrdering::Relaxed);
        Sym::intern(&format!("{prefix}#{n}"))
    }

    /// Whether this symbol was produced by [`Sym::fresh`].
    pub fn is_fresh(self) -> bool {
        self.resolve().contains('#')
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Intern-id order: a `u32` compare. See the module docs for where string
/// order is used instead.
impl Ord for Sym {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

/// Canonical *string* order, for the output boundaries listed in the module
/// docs. Symbols compare by their names; composite values compare
/// lexicographically, component by component, each by name.
pub trait ByName {
    /// Compares `self` and `other` by name, reading names from `names`.
    fn cmp_names(&self, other: &Self, names: &Names<'_>) -> Ordering;
}

/// A read view of the interner's string table, held for the duration of
/// one comparison or one whole sort.
pub struct Names<'a>(&'a [Arc<str>]);

/// The one string-order comparator: `by_name(a, b)` compares by name. Each
/// call takes the interner's read lock; [`sort_by_name`] takes it once for
/// a whole sort.
pub fn by_name<T: ByName + ?Sized>(a: &T, b: &T) -> Ordering {
    a.cmp_names(b, &Names(&interner().read().strings))
}

/// Sorts `items` by [`by_name`], under one read lock.
pub fn sort_by_name<T: ByName>(items: &mut [T]) {
    let guard = interner().read();
    let names = Names(&guard.strings);
    items.sort_by(|a, b| a.cmp_names(b, &names));
}

impl ByName for Sym {
    fn cmp_names(&self, other: &Self, names: &Names<'_>) -> Ordering {
        if self.0 == other.0 {
            return Ordering::Equal;
        }
        names.0[self.0 as usize].cmp(&names.0[other.0 as usize])
    }
}

impl ByName for usize {
    fn cmp_names(&self, other: &Self, _: &Names<'_>) -> Ordering {
        self.cmp(other)
    }
}

impl<T: ByName> ByName for [T] {
    fn cmp_names(&self, other: &Self, names: &Names<'_>) -> Ordering {
        self.iter()
            .zip(other)
            .map(|(a, b)| a.cmp_names(b, names))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| self.len().cmp(&other.len()))
    }
}

impl<T: ByName> ByName for Vec<T> {
    fn cmp_names(&self, other: &Self, names: &Names<'_>) -> Ordering {
        self[..].cmp_names(&other[..], names)
    }
}

impl<T: ByName + ?Sized> ByName for Box<T> {
    fn cmp_names(&self, other: &Self, names: &Names<'_>) -> Ordering {
        (**self).cmp_names(other, names)
    }
}

impl<T: ByName + ?Sized> ByName for &T {
    fn cmp_names(&self, other: &Self, names: &Names<'_>) -> Ordering {
        (**self).cmp_names(other, names)
    }
}

impl<A: ByName, B: ByName> ByName for (A, B) {
    fn cmp_names(&self, other: &Self, names: &Names<'_>) -> Ordering {
        self.0
            .cmp_names(&other.0, names)
            .then_with(|| self.1.cmp_names(&other.1, names))
    }
}

/// Implements [`ByName`] for a newtype over [`Sym`].
macro_rules! by_name_via_sym {
    ($($t:ty),*) => {$(
        impl $crate::intern::ByName for $t {
            fn cmp_names(
                &self,
                other: &Self,
                names: &$crate::intern::Names<'_>,
            ) -> std::cmp::Ordering {
                $crate::intern::ByName::cmp_names(&self.0, &other.0, names)
            }
        }
    )*};
}
pub(crate) use by_name_via_sym;

by_name_via_sym!(Cst, Var);

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.resolve())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.resolve())
    }
}

/// An interned database **constant**.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cst(pub Sym);

/// Prefix marking a *parameter constant*: a query variable temporarily frozen
/// as a constant during rewriting construction (see `cqa-attack`).
const PARAM_PREFIX: char = '\u{a7}'; // '§'

impl Cst {
    /// Interns a constant by name.
    pub fn new(name: &str) -> Cst {
        Cst(Sym::intern(name))
    }

    /// A globally fresh constant (used by the chase and by repairs that must
    /// invent values; cf. the paper's "fresh constants").
    pub fn fresh(prefix: &str) -> Cst {
        Cst(Sym::fresh(prefix))
    }

    /// Whether this constant was invented by [`Cst::fresh`].
    pub fn is_fresh(self) -> bool {
        self.0.is_fresh()
    }

    /// Freezes a variable as a *parameter constant* (`§x`). Analysis code then
    /// treats it as an ordinary constant; [`Cst::as_param`] recovers the
    /// variable when emitting first-order formulas.
    pub fn param(v: Var) -> Cst {
        Cst(Sym::intern(&format!("{PARAM_PREFIX}{}", v.0.resolve())))
    }

    /// If this is a parameter constant, the variable it froze.
    pub fn as_param(self) -> Option<Var> {
        let s = self.0.resolve();
        let mut chars = s.chars();
        if chars.next() == Some(PARAM_PREFIX) {
            Some(Var::new(chars.as_str()))
        } else {
            None
        }
    }

    /// The constant's name.
    pub fn name(self) -> Arc<str> {
        self.0.resolve()
    }
}

impl fmt::Debug for Cst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "'{}'", self.0)
    }
}

impl fmt::Display for Cst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An interned query **variable**.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub Sym);

impl Var {
    /// Interns a variable by name.
    pub fn new(name: &str) -> Var {
        Var(Sym::intern(name))
    }

    /// A globally fresh variable (used when constructing rewritings).
    pub fn fresh(prefix: &str) -> Var {
        Var(Sym::fresh(prefix))
    }

    /// The variable's name.
    pub fn name(self) -> Arc<str> {
        self.0.resolve()
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_round_trip() {
        let a = Sym::intern("hello");
        let b = Sym::intern("hello");
        assert_eq!(a, b);
        assert_eq!(&*a.resolve(), "hello");
    }

    #[test]
    fn distinct_strings_distinct_syms() {
        assert_ne!(Sym::intern("a"), Sym::intern("b"));
    }

    #[test]
    fn ord_is_id_order() {
        let z = Sym::intern("zzz_first_interned");
        let a = Sym::intern("aaa_second_interned");
        assert!(z < a, "ordering follows intern ids, not strings");
        assert_eq!(by_name(&a, &z), Ordering::Less, "by_name follows strings");
        assert_eq!(by_name(&Cst(z), &Cst(z)), Ordering::Equal);
        assert_eq!(
            by_name(&[Cst(a), Cst(z)][..], &[Cst(a)][..]),
            Ordering::Greater,
            "a proper prefix sorts first"
        );
    }

    #[test]
    fn display_sorts_by_name() {
        use crate::parser::{parse_fks, parse_instance, parse_query, parse_schema};
        use crate::RelName;
        // Every name is interned in reverse string order, so id order and
        // name order disagree everywhere.
        let schema = std::sync::Arc::new(
            parse_schema("Ord_c[2,1] Ord_b[1,1] Ord_a[1,1]").unwrap(),
        );
        assert!(RelName::new("Ord_c") < RelName::new("Ord_a"), "ids are reversed");
        assert_eq!(schema.to_string(), "Ord_a[1, 1] Ord_b[1, 1] Ord_c[2, 1]");
        let q = parse_query(&schema, "Ord_c(ord_z, ord_a), Ord_b(ord_a), Ord_a(ord_z)").unwrap();
        assert_eq!(q.to_string(), "{Ord_a(ord_z), Ord_b(ord_a), Ord_c(ord_z, ord_a)}");
        let fks = parse_fks(&schema, "Ord_c[2] -> Ord_b, Ord_c[1] -> Ord_a").unwrap();
        assert_eq!(fks.to_string(), "{Ord_c[1] → Ord_a, Ord_c[2] → Ord_b}");
        let db = parse_instance(
            &schema,
            "Ord_c(ordk_9, ordv_1) Ord_c(ordk_1, ordv_9) Ord_b(ordv_9) Ord_a(ordk_1)",
        )
        .unwrap();
        assert!(Cst::new("ordk_9") < Cst::new("ordk_1"));
        assert_eq!(
            db.to_string(),
            "{Ord_a(ordk_1), Ord_b(ordv_9), Ord_c(ordk_1, ordv_9), Ord_c(ordk_9, ordv_1)}"
        );
    }

    #[test]
    fn fresh_symbols_are_unique() {
        let a = Sym::fresh("f");
        let b = Sym::fresh("f");
        assert_ne!(a, b);
        assert!(a.is_fresh());
        assert!(!Sym::intern("plain").is_fresh());
    }

    #[test]
    fn param_round_trip() {
        let x = Var::new("x");
        let p = Cst::param(x);
        assert_eq!(p.as_param(), Some(x));
        assert_eq!(Cst::new("x").as_param(), None);
    }

    #[test]
    fn cst_var_display() {
        assert_eq!(Var::new("y").to_string(), "y");
        assert_eq!(Cst::new("c").to_string(), "c");
        assert_eq!(format!("{:?}", Cst::new("c")), "'c'");
    }
}
