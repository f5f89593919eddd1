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
//!
//! **Symbol lifetime.** A name is either *pinned* or *leased*:
//!
//! * a **pinned** name lives until the process exits. Every name interned
//!   through [`Sym::intern`] is pinned: [`Cst::new`], [`Var::new`],
//!   [`RelName::new`](crate::RelName::new), [`Sym::fresh`], and the schema,
//!   query, foreign-key and single-fact parsers;
//! * a **leased** name is one that
//!   [`parse_instance`](crate::parser::parse_instance) meets while the
//!   interner does not hold it, or holds it only on lease. The parsed
//!   [`Instance`](crate::Instance) holds one lease on its leased names,
//!   shared with its clones and with every instance built from its rows
//!   ([`Instance::empty_like`](crate::Instance::empty_like)). When the last
//!   holder of every lease on a name drops, the name is freed: its string
//!   and map entry go, and its id returns to a free list.
//!
//! Leased ids have the top bit set, so telling the two kinds apart is a
//! bit test and a pinned value costs no lock or atomic anywhere. Interning
//! a leased name through [`Sym::intern`] pins it, so plans, deltas and
//! `Cst::new` callers never hold a name that can die. The contract for
//! everything else: **a value read from an instance is valid while that
//! instance, or one derived from it, lives.** Debug builds check it: they
//! never issue a freed id again (a leased id carries its slot's
//! generation), [`Sym::resolve`] and [`by_name`] panic on a freed id, and
//! every leased value inserted into an instance must be held by that
//! instance's lease. [`symbol_counts`] reports both populations.

use crate::fact::Fact;
use parking_lot::RwLock;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};

/// An interned string symbol.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

/// Ids with this bit set are leased; the others are pinned.
const LEASED: u32 = 1 << 31;
/// Bits of a leased id that hold its slot's generation. Debug builds spend
/// eight, so a freed id is not issued again until its slot is retired;
/// release builds spend none and reissue a freed id at once.
const GEN_BITS: u32 = if cfg!(debug_assertions) { 8 } else { 0 };
/// Bits of a leased id that index its slot.
const INDEX_BITS: u32 = 31 - GEN_BITS;
const INDEX_MASK: u32 = (1 << INDEX_BITS) - 1;
/// Set in a leased slot's holder count once its name is pinned.
const PINNED: u32 = 1 << 31;

/// A map entry: the name's id, and the tag of the last lease that took a
/// hold on it (a per-parse hint, so one parse holds each name once).
struct Entry {
    id: u32,
    tag: AtomicU32,
}

/// One leased name.
struct Slot {
    /// The name; `None` once freed.
    name: Option<Arc<str>>,
    /// How many lease holds the name has, plus [`PINNED`] once pinned.
    holders: AtomicU32,
    /// How often the slot was reused (always 0 in release builds).
    gen: u32,
}

struct Interner {
    map: HashMap<Arc<str>, Entry>,
    /// Pinned names, indexed by id.
    pinned: Vec<Arc<str>>,
    /// Leased names, indexed by the low [`INDEX_BITS`] of their ids.
    leased: Vec<Slot>,
    /// Indices of freed slots, ready for reuse.
    free: Vec<u32>,
    /// Slots holding a name.
    live_leased: usize,
    /// Live slots whose name was pinned after it was leased.
    pinned_leased: AtomicUsize,
}

impl Interner {
    /// The slot of leased id `id`; panics if its name was freed.
    fn slot(&self, id: u32) -> &Slot {
        match self.leased.get((id & INDEX_MASK) as usize) {
            Some(slot) if slot.name.is_some() && slot.gen == (id & !LEASED) >> INDEX_BITS => slot,
            _ => panic!(
                "symbol {id:#x} names a freed leased name: a value outlived every instance holding it"
            ),
        }
    }

    /// The name of `id`; panics if it was freed.
    fn name(&self, id: u32) -> &Arc<str> {
        if id & LEASED == 0 {
            &self.pinned[id as usize]
        } else {
            self.slot(id).name.as_ref().expect("checked by slot")
        }
    }

    /// Pins `id` if it is leased.
    fn pin(&self, id: u32) {
        if id & LEASED != 0
            && self.slot(id).holders.fetch_or(PINNED, AtomicOrdering::Relaxed) & PINNED == 0
        {
            self.pinned_leased.fetch_add(1, AtomicOrdering::Relaxed);
        }
    }
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            pinned: Vec::new(),
            leased: Vec::new(),
            free: Vec::new(),
            live_leased: 0,
            pinned_leased: AtomicUsize::new(0),
        })
    })
}

static FRESH_COUNTER: AtomicU64 = AtomicU64::new(0);

impl Sym {
    /// Interns `s`, returning its symbol, and pins it. Idempotent.
    pub fn intern(s: &str) -> Sym {
        {
            let guard = interner().read();
            if let Some(e) = guard.map.get(s) {
                guard.pin(e.id);
                return Sym(e.id);
            }
        }
        let mut guard = interner().write();
        if let Some(e) = guard.map.get(s) {
            guard.pin(e.id);
            return Sym(e.id);
        }
        let id = u32::try_from(guard.pinned.len())
            .ok()
            .filter(|&id| id < LEASED)
            .expect("interner overflow");
        let arc: Arc<str> = Arc::from(s);
        guard.pinned.push(arc.clone());
        guard.map.insert(
            arc,
            Entry {
                id,
                tag: AtomicU32::new(0),
            },
        );
        Sym(id)
    }

    /// Resolves the symbol back to its string. Panics if the symbol names
    /// a leased name that was freed (see the module docs).
    pub fn resolve(self) -> Arc<str> {
        interner().read().name(self.0).clone()
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

/// How many names the interner holds, by kind (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SymbolCounts {
    /// Names that live until the process exits.
    pub pinned: usize,
    /// Names that some live instance holds on lease.
    pub leased: usize,
}

/// The interner's current [`SymbolCounts`].
pub fn symbol_counts() -> SymbolCounts {
    let guard = interner().read();
    let pinned_leased = guard.pinned_leased.load(AtomicOrdering::Relaxed);
    SymbolCounts {
        pinned: guard.pinned.len() + pinned_leased,
        leased: guard.live_leased - pinned_leased,
    }
}

/// The leased names one parsed instance holds: one hold on each id in
/// `ids`, released when the lease drops. Instances share a lease through
/// an `Arc`; a union of instances with different leases holds both through
/// `also`.
pub(crate) struct Lease {
    /// Held ids, sorted (a name held twice appears twice).
    ids: Box<[u32]>,
    /// Other leases this one keeps alive.
    also: Vec<Arc<Lease>>,
}

impl Lease {
    /// The lease holding everything `a` and `b` hold.
    pub(crate) fn joint(a: &Option<Arc<Lease>>, b: &Option<Arc<Lease>>) -> Option<Arc<Lease>> {
        match (a, b) {
            (Some(x), Some(y)) if !Arc::ptr_eq(x, y) => Some(Arc::new(Lease {
                ids: Box::default(),
                also: vec![x.clone(), y.clone()],
            })),
            (Some(l), _) | (None, Some(l)) => Some(l.clone()),
            (None, None) => None,
        }
    }

    fn holds(&self, id: u32) -> bool {
        self.ids.binary_search(&id).is_ok() || self.also.iter().any(|l| l.holds(id))
    }

    /// Debug builds: panics unless every leased value of `fact` is pinned
    /// or held by `lease`, the lease of the instance `fact` is inserted
    /// into. Pinned values are told apart by a bit test, without a lock.
    pub(crate) fn debug_assert_holds(lease: Option<&Lease>, fact: &Fact) {
        if !cfg!(debug_assertions) || fact.args.iter().all(|c| c.0 .0 & LEASED == 0) {
            return;
        }
        let stray = {
            let guard = interner().read();
            fact.args.iter().find(|c| {
                let id = c.0 .0;
                id & LEASED != 0
                    && guard.slot(id).holders.load(AtomicOrdering::Relaxed) & PINNED == 0
                    && !lease.is_some_and(|l| l.holds(id))
            })
        };
        // Formatting resolves names, so the lock is released first.
        if let Some(c) = stray {
            panic!(
                "{fact:?}: value {c:?} is leased by another instance; build the instance \
                 with `Instance::empty_like` of the one the value was read from"
            );
        }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if self.ids.is_empty() {
            return;
        }
        let mut guard = interner().write();
        let g = &mut *guard;
        for &id in &self.ids {
            let index = id & INDEX_MASK;
            let slot = &mut g.leased[index as usize];
            let holders = slot.holders.get_mut();
            *holders -= 1;
            if *holders != 0 {
                continue;
            }
            let name = slot.name.take().expect("a held name is live");
            g.map.remove(&*name);
            g.live_leased -= 1;
            if cfg!(debug_assertions) {
                // The next generation gives the slot new ids; a slot out
                // of generations is retired, never reused.
                slot.gen += 1;
                if slot.gen >> GEN_BITS != 0 {
                    continue;
                }
            }
            g.free.push(index);
        }
        // Once a large population is freed, give its room back.
        if g.map.capacity() > ROOMY && g.map.len() * 4 < g.map.capacity() {
            g.map.shrink_to(0);
        }
        if !cfg!(debug_assertions) && g.live_leased == 0 && g.leased.capacity() > ROOMY {
            g.leased = Vec::new();
            g.free = Vec::new();
        }
    }
}

/// Table capacity below which freeing names never shrinks a table. Debug
/// builds keep every slot, so retired generations stay retired.
const ROOMY: usize = 4096;

/// Source of lease tags; 0 means "no tag".
static NEXT_TAG: AtomicU32 = AtomicU32::new(1);

/// A lease under construction: the interning side of
/// [`parse_instance`](crate::parser::parse_instance).
pub(crate) struct LeaseBuilder {
    tag: u32,
    /// Ids held so far, in the order first held.
    ids: Vec<u32>,
}

impl LeaseBuilder {
    pub(crate) fn new() -> LeaseBuilder {
        let tag = loop {
            match NEXT_TAG.fetch_add(1, AtomicOrdering::Relaxed) {
                // The tags wrapped around: clear every stale one, so no
                // entry carries the tag of a new lease it is not held by.
                0 => interner()
                    .write()
                    .map
                    .values_mut()
                    .for_each(|e| *e.tag.get_mut() = 0),
                tag => break tag,
            }
        };
        LeaseBuilder {
            tag,
            ids: Vec::new(),
        }
    }

    /// The constant named `s`: its pinned id, or a leased id this lease
    /// holds.
    pub(crate) fn intern(&mut self, s: &str) -> Cst {
        {
            let guard = interner().read();
            if let Some(e) = guard.map.get(s) {
                return self.hold(&guard, e);
            }
        }
        let mut guard = interner().write();
        if let Some(e) = guard.map.get(s) {
            return self.hold(&guard, e);
        }
        let g = &mut *guard;
        let index = g.free.pop().unwrap_or_else(|| {
            let index = u32::try_from(g.leased.len())
                .ok()
                .filter(|&i| i <= INDEX_MASK)
                .expect("too many leased names");
            g.leased.push(Slot {
                name: None,
                holders: AtomicU32::new(0),
                gen: 0,
            });
            index
        });
        let slot = &mut g.leased[index as usize];
        let name: Arc<str> = Arc::from(s);
        slot.name = Some(name.clone());
        *slot.holders.get_mut() = 1;
        let id = LEASED | slot.gen << INDEX_BITS | index;
        g.map.insert(
            name,
            Entry {
                id,
                tag: AtomicU32::new(self.tag),
            },
        );
        g.live_leased += 1;
        self.ids.push(id);
        Cst(Sym(id))
    }

    /// Takes a hold on `e`'s name unless it is pinned or already held.
    fn hold(&mut self, g: &Interner, e: &Entry) -> Cst {
        if e.id & LEASED != 0 && e.tag.load(AtomicOrdering::Relaxed) != self.tag {
            g.slot(e.id).holders.fetch_add(1, AtomicOrdering::Relaxed);
            e.tag.store(self.tag, AtomicOrdering::Relaxed);
            self.ids.push(e.id);
        }
        Cst(Sym(e.id))
    }

    /// The finished lease, `None` when it holds nothing.
    pub(crate) fn finish(mut self) -> Option<Arc<Lease>> {
        if self.ids.is_empty() {
            return None;
        }
        let mut ids = std::mem::take(&mut self.ids);
        ids.sort_unstable();
        Some(Arc::new(Lease {
            ids: ids.into_boxed_slice(),
            also: Vec::new(),
        }))
    }
}

/// A parse that fails gives back the holds it took.
impl Drop for LeaseBuilder {
    fn drop(&mut self) {
        drop(Lease {
            ids: std::mem::take(&mut self.ids).into_boxed_slice(),
            also: Vec::new(),
        });
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

/// A read view of the interner's string tables, held for the duration of
/// one comparison or one whole sort.
pub struct Names<'a>(&'a Interner);

/// The one string-order comparator: `by_name(a, b)` compares by name. Each
/// call takes the interner's read lock; [`sort_by_name`] takes it once for
/// a whole sort.
pub fn by_name<T: ByName + ?Sized>(a: &T, b: &T) -> Ordering {
    a.cmp_names(b, &Names(&interner().read()))
}

/// Sorts `items` by [`by_name`], under one read lock.
pub fn sort_by_name<T: ByName>(items: &mut [T]) {
    let guard = interner().read();
    let names = Names(&guard);
    items.sort_by(|a, b| a.cmp_names(b, &names));
}

impl ByName for Sym {
    fn cmp_names(&self, other: &Self, names: &Names<'_>) -> Ordering {
        if self.0 == other.0 {
            return Ordering::Equal;
        }
        names.0.name(self.0).cmp(names.0.name(other.0))
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
