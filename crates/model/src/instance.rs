//! Database instances with primary-key *block* indexes.
//!
//! A *block* (paper §3.1) is a maximal set of key-equal facts; repairs with
//! respect to primary keys choose at most one fact per block. An instance
//! stores each fact once, in a per-relation row table with a hash map from
//! key prefix to the rows of that block and a full-row membership table
//! ([`InstanceIndex`]), so block enumeration — the primitive of every CQA
//! algorithm — is direct, and point reads are hash probes. Readers that
//! promise the canonical (sorted) order sort a relation's row ids on demand.
//!
//! An instance also holds the [lease](crate::intern) on the names its
//! parse brought in. Its clones share the lease, and so does every
//! instance built with [`Instance::empty_like`]: the repairs, oracle
//! candidates and restrictions made from its rows. A constant read from an
//! instance is valid while that instance, or one derived from it, lives;
//! debug builds check that every leased value inserted into an instance is
//! held by that instance's lease.

use crate::binding::{Binding, CompiledAtom};
use crate::delta::{Delta, DeltaOp};
use crate::error::ModelError;
use crate::fact::Fact;
use crate::fk::{FkSet, ForeignKey};
use crate::intern::{sort_by_name, Cst, Lease};
use crate::schema::{RelName, Schema, Signature};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::hash::{BuildHasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Source of per-object instance identities (see [`Instance::uid`]).
static NEXT_UID: AtomicU64 = AtomicU64::new(1);

fn next_uid() -> u64 {
    NEXT_UID.fetch_add(1, Ordering::Relaxed)
}

/// A finite set of facts over a schema.
pub struct Instance {
    schema: Arc<Schema>,
    /// The only copy of the facts; every mutation maintains it in place.
    store: InstanceIndex,
    len: usize,
    /// Generation counter: bumped by every *effective* mutation (an insert
    /// that added a row, a remove that deleted one). Together with
    /// [`Instance::uid`] this lets long-lived consumers (incremental
    /// solvers, cached plans) detect staleness with two integer compares.
    epoch: u64,
    /// Process-unique object identity. A [`Clone`] gets a **fresh** uid, so
    /// `(uid, epoch)` pins one mutation history of one object: equal pairs
    /// guarantee the observer has seen every mutation.
    uid: u64,
    /// The lease on the names the instance's parse brought in, shared with
    /// every instance derived from it; `None` when it holds none.
    lease: Option<Arc<Lease>>,
}

impl Clone for Instance {
    fn clone(&self) -> Instance {
        Instance {
            schema: self.schema.clone(),
            store: self.store.clone(),
            len: self.len,
            epoch: self.epoch,
            uid: next_uid(),
            lease: self.lease.clone(),
        }
    }
}

impl Instance {
    /// Creates an empty instance. It holds no leased names, so it may take
    /// pinned values only; an instance that takes rows of another instance
    /// starts from [`Instance::empty_like`].
    pub fn new(schema: Arc<Schema>) -> Instance {
        Instance {
            schema,
            store: InstanceIndex::default(),
            len: 0,
            epoch: 0,
            uid: next_uid(),
            lease: None,
        }
    }

    /// An empty instance over this one's schema that shares its lease, so
    /// it may take any value read from this instance (or from one derived
    /// from it). Every instance built from another's rows starts here.
    pub fn empty_like(&self) -> Instance {
        Instance {
            lease: self.lease.clone(),
            ..Instance::new(self.schema.clone())
        }
    }

    /// Makes this instance also hold `other`'s lease, so it may take values
    /// read from `other` too (say, through a [`Delta`] computed against
    /// it).
    pub fn share_names(&mut self, other: &Instance) {
        self.lease = Lease::joint(&self.lease, &other.lease);
    }

    /// Makes this instance hold `lease` (the loader's, once it is built).
    pub(crate) fn hold(&mut self, lease: Option<Arc<Lease>>) {
        self.lease = lease;
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The mutation generation: strictly increases with every effective
    /// [`Instance::insert`]/[`Instance::remove`]. No-op mutations (duplicate
    /// insert, absent remove) leave it unchanged.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// This object's process-unique identity; a clone gets a fresh one.
    /// `(uid(), epoch())` together identify one state of one object.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// The signature of `rel`, after checking that the relation is declared
    /// and that `arity` matches it.
    fn validate(&self, rel: RelName, arity: usize) -> Result<Signature, ModelError> {
        let sig = self.schema.expect(rel)?;
        if arity != sig.arity {
            return Err(ModelError::ArityMismatch {
                rel,
                expected: sig.arity,
                got: arity,
            });
        }
        Ok(sig)
    }

    /// Inserts a fact; returns `Ok(true)` if it was new. Each of its values
    /// must be pinned or held by this instance's lease (checked in debug
    /// builds).
    pub fn insert(&mut self, fact: Fact) -> Result<bool, ModelError> {
        Lease::debug_assert_holds(self.lease.as_deref(), &fact);
        self.insert_row(fact.rel, &fact.args)
    }

    /// Inserts the fact `rel(row…)` with [`Instance::insert`]'s validation,
    /// from a borrowed row (the loader's path: no `Fact` is built, and the
    /// loader's own lease holds every value).
    pub(crate) fn insert_row(&mut self, rel: RelName, row: &[Cst]) -> Result<bool, ModelError> {
        let sig = self.validate(rel, row.len())?;
        let added = self.store.insert(rel, sig, row);
        self.len += usize::from(added);
        self.epoch += u64::from(added);
        Ok(added)
    }

    /// Convenience: inserts `rel(args…)` by name.
    pub fn insert_named(&mut self, rel: &str, args: &[&str]) -> Result<bool, ModelError> {
        self.insert(Fact::from_names(rel, args))
    }

    /// Removes a fact; returns `Ok(true)` if it was present. Validation is
    /// symmetric with [`Instance::insert`]: an unknown relation or a
    /// wrong-arity fact for a known relation is an error, not a silent
    /// `false` (which would be indistinguishable from "not present").
    pub fn remove(&mut self, fact: &Fact) -> Result<bool, ModelError> {
        self.validate(fact.rel, fact.arity())?;
        let removed = self.store.remove(fact.rel, &fact.args);
        self.len -= usize::from(removed);
        self.epoch += u64::from(removed);
        Ok(removed)
    }

    /// Applies an ordered batch of mutations. Every operation is validated
    /// against the schema (known relation, matching arity) **before** any is
    /// applied, so a malformed batch leaves the instance untouched. Returns
    /// the number of *effective* operations (inserts that added a row,
    /// removes that deleted one); the epoch advances by exactly that many.
    pub fn apply(&mut self, delta: &Delta) -> Result<usize, ModelError> {
        for op in delta.ops() {
            self.validate(op.fact().rel, op.fact().arity())?;
        }
        let mut effective = 0;
        for op in delta.ops() {
            let changed = match op {
                DeltaOp::Insert(f) => self.insert(f.clone())?,
                DeltaOp::Remove(f) => self.remove(f)?,
            };
            effective += usize::from(changed);
        }
        Ok(effective)
    }

    /// Whether the instance contains `fact`.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.store.contains(fact.rel, &fact.args)
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the instance has no facts.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All facts, in canonical order: `Fact`'s `Ord`, which compares
    /// symbols by intern id (see [`crate::intern`]).
    pub fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.schema.ids().flat_map(|rel| self.facts_of(rel))
    }

    /// All facts in name order ([`sort_by_name`]): the order for output, where
    /// [`Instance::facts`]' intern-id order must not show.
    pub fn facts_by_name(&self) -> Vec<Fact> {
        let mut facts: Vec<Fact> = self.facts().collect();
        sort_by_name(&mut facts);
        facts
    }

    /// Facts of one relation, in canonical order.
    pub fn facts_of(&self, rel: RelName) -> impl Iterator<Item = Fact> + '_ {
        self.store.rel(rel).into_iter().flat_map(move |r| {
            r.sorted_ids()
                .into_iter()
                .map(move |i| Fact::new(rel, r.row(i)))
        })
    }

    /// The rows of every relation, in arbitrary order — for readers whose
    /// result does not depend on order, so they skip the sort.
    fn rows(&self) -> impl Iterator<Item = (RelName, &[Cst])> + '_ {
        self.store
            .rels
            .iter()
            .flat_map(|(&rel, r)| r.rows().into_iter().map(move |row| (rel, row)))
    }

    /// Number of facts of one relation.
    pub fn count_of(&self, rel: RelName) -> usize {
        self.store.rel(rel).map_or(0, RelIndex::len)
    }

    /// The block `R(⃗a, ∗)`: all facts of `rel` with key prefix `key`.
    pub fn block(&self, rel: RelName, key: &[Cst]) -> Vec<Fact> {
        let Some(r) = self.store.rel(rel) else {
            return Vec::new();
        };
        let mut block: Vec<Fact> = r
            .block(key)
            .iter()
            .map(|&i| Fact::new(rel, r.row(i)))
            .collect();
        block.sort_unstable();
        block
    }

    /// `block(A, db)`: the block containing `fact` (empty if absent relation).
    pub fn block_of(&self, fact: &Fact) -> Vec<Fact> {
        match self.schema.signature(fact.rel) {
            Some(sig) => self.block(fact.rel, fact.key(sig)),
            None => Vec::new(),
        }
    }

    /// All blocks of `rel` as `(key, facts)` pairs, in canonical order.
    pub fn blocks(&self, rel: RelName) -> Vec<(Box<[Cst]>, Vec<Fact>)> {
        let Some(r) = self.store.rel(rel) else {
            return Vec::new();
        };
        // The key is a prefix of the row, so the sorted rows of one block
        // are adjacent.
        let key = |id: u32| &r.row(id)[..r.key_len];
        r.sorted_ids()
            .chunk_by(|&a, &b| key(a) == key(b))
            .map(|ids| {
                let facts = ids.iter().map(|&i| Fact::new(rel, r.row(i))).collect();
                (key(ids[0]).into(), facts)
            })
            .collect()
    }

    /// Relations with at least one fact.
    pub fn populated_relations(&self) -> impl Iterator<Item = RelName> + '_ {
        self.schema
            .relations()
            .map(|(rel, _)| rel)
            .filter(|&rel| self.count_of(rel) > 0)
    }

    /// The instance's fact store: per-relation row tables with
    /// hash-indexed key-prefix blocks for block lookups and full-fact
    /// membership, plus the lazily built active domain and key constants.
    /// Every successful [`Instance::insert`]/[`Instance::remove`] maintains
    /// it in place. Both find the row with one probe of its relation's
    /// full-row membership table, so an insert costs O(1) amortized however
    /// large its block; a remove also looks up one `u32` in its block's id
    /// list (and in the list of the row that moves into its slot).
    pub fn index(&self) -> &InstanceIndex {
        &self.store
    }

    /// Builds a fresh [`InstanceIndex`] from the current facts, with its
    /// domains built, bypassing (and not touching) the maintained one. This
    /// is the differential-testing oracle for the incremental maintenance in
    /// [`Instance::insert`]/[`Instance::remove`]: after any mutation trace,
    /// `*db.index() == db.rebuild_index()` must hold.
    pub fn rebuild_index(&self) -> InstanceIndex {
        let mut fresh = InstanceIndex::default();
        for f in self.facts() {
            fresh.insert(f.rel, self.sig(f.rel), &f.args);
        }
        fresh.domains();
        fresh
    }

    /// `adom(db)`: the active domain, as a cached handle (allocation-free
    /// after the first call; maintained in place across mutations).
    pub fn adom(&self) -> &BTreeSet<Cst> {
        self.store.adom_set()
    }

    /// `keyconst(db)`: constants appearing at some primary-key position
    /// (paper Appendix B). Cached alongside [`Instance::adom`].
    pub fn key_consts(&self) -> &BTreeSet<Cst> {
        self.store.key_consts_set()
    }

    /// A constant is *orphan* in `db` if it occurs exactly once, at a
    /// non-primary-key position (paper Appendix A).
    pub fn is_orphan_const(&self, c: Cst) -> bool {
        let d = self.store.domains();
        d.adom.occurrences(c) == 1 && d.key_consts.occurrences(c) == 0
    }

    /// Whether the instance satisfies all primary keys (no two distinct
    /// key-equal facts).
    pub fn satisfies_pk(&self) -> bool {
        // Blocks partition the rows, so no block holds two rows exactly
        // when there are as many blocks as rows.
        self.store.rels.values().all(|r| r.blocks.len() == r.len())
    }

    /// The blocks violating a primary key, as `(rel, key)` pairs.
    pub fn pk_violations(&self) -> Vec<(RelName, Box<[Cst]>)> {
        let mut out = Vec::new();
        for (rel, _) in self.schema.relations() {
            let Some(r) = self.store.rel(rel) else {
                continue;
            };
            let mut keys: Vec<&[Cst]> = r
                .blocks
                .iter()
                .filter(|(_, ids)| ids.as_slice().len() > 1)
                .map(|(key, _)| &**key)
                .collect();
            keys.sort_unstable();
            out.extend(keys.into_iter().map(|key| (rel, key.into())));
        }
        out
    }

    /// Whether `fact` is dangling in this instance with respect to `fk`
    /// (paper §3.2): no `S`-fact whose key equals the fact's `i`-th value.
    pub fn is_dangling(&self, fact: &Fact, fk: &ForeignKey) -> bool {
        fact.rel == fk.from && self.dangles(&fact.args, fk)
    }

    /// Whether the `fk.from` row `args` has no `fk.to` block to point at.
    fn dangles(&self, args: &[Cst], fk: &ForeignKey) -> bool {
        let Some(&v) = fk.pos.checked_sub(1).and_then(|i| args.get(i)) else {
            return true;
        };
        self.store.rel(fk.to).is_none_or(|r| r.block(&[v]).is_empty())
    }

    /// Whether `fact` is dangling with respect to *some* key of `fks`.
    pub fn is_dangling_any(&self, fact: &Fact, fks: &FkSet) -> bool {
        fks.iter().any(|fk| self.is_dangling(fact, fk))
    }

    /// All dangling facts with respect to `fks`.
    pub fn dangling_facts(&self, fks: &FkSet) -> Vec<Fact> {
        self.facts()
            .filter(|f| self.is_dangling_any(f, fks))
            .collect()
    }

    /// Whether the instance satisfies all foreign keys of `fks`.
    pub fn satisfies_fks(&self, fks: &FkSet) -> bool {
        self.rows()
            .all(|(rel, row)| fks.iter().all(|fk| fk.from != rel || !self.dangles(row, fk)))
    }

    /// Whether the instance is consistent with respect to `PK ∪ FK`.
    pub fn is_consistent(&self, fks: &FkSet) -> bool {
        self.satisfies_pk() && self.satisfies_fks(fks)
    }

    /// The instance over this schema holding the rows of `self` that pass
    /// `keep`.
    fn filtered(&self, keep: impl Fn(RelName, &[Cst]) -> bool) -> Instance {
        let mut out = self.empty_like();
        for (rel, row) in self.rows().filter(|&(rel, row)| keep(rel, row)) {
            out.insert(Fact::new(rel, row)).expect("same schema");
        }
        out
    }

    /// `db ∪ other`. It shares the leases of both.
    pub fn union(&self, other: &Instance) -> Instance {
        let mut out = self.clone();
        out.share_names(other);
        for (rel, row) in other.rows() {
            out.insert(Fact::new(rel, row)).expect("schemas compatible");
        }
        out
    }

    /// `db ∖ other` as a new instance.
    pub fn difference(&self, other: &Instance) -> Instance {
        self.filtered(|rel, row| !other.store.contains(rel, row))
    }

    /// `db ⊕ other`: symmetric difference as a fact set.
    pub fn symmetric_difference(&self, other: &Instance) -> BTreeSet<Fact> {
        self.rows()
            .chain(other.rows())
            .filter(|&(rel, row)| !(self.store.contains(rel, row) && other.store.contains(rel, row)))
            .map(|(rel, row)| Fact::new(rel, row))
            .collect()
    }

    /// Intersection `db ∩ other` as a new instance. It shares the leases of
    /// both, so it may take values read from either.
    pub fn intersection(&self, other: &Instance) -> Instance {
        let mut out = self.filtered(|rel, row| other.store.contains(rel, row));
        out.share_names(other);
        out
    }

    /// Whether `self ⊆ other` as fact sets.
    pub fn subset_of(&self, other: &Instance) -> bool {
        self.rows().all(|(rel, row)| other.store.contains(rel, row))
    }

    /// `db↾rels`: restriction to facts whose relation is in `keep`.
    pub fn restrict(&self, keep: &BTreeSet<RelName>) -> Instance {
        self.filtered(|rel, _| keep.contains(&rel))
    }

    /// Builds an instance from facts.
    pub fn from_facts(
        schema: Arc<Schema>,
        facts: impl IntoIterator<Item = Fact>,
    ) -> Result<Instance, ModelError> {
        let mut out = Instance::new(schema);
        for f in facts {
            out.insert(f)?;
        }
        Ok(out)
    }

    /// The signature of `rel` (panics if absent; instances validate inserts).
    pub fn sig(&self, rel: RelName) -> Signature {
        self.schema.signature(rel).expect("validated on insert")
    }
}

/// One relation's rows: a dense row table, a key-prefix hash map from
/// block key to row ids, and a full-row membership table. Shared with
/// [`crate::view`], which layers lazy restriction/filtering on top of these
/// handles.
///
/// Row order in `all` (and id order within a block's index list) is
/// **arbitrary**: inserts append and removes swap-remove. Consumers that
/// need a deterministic order sort the ids ([`RelIndex::sorted_ids`]).
#[derive(Clone, Debug)]
pub(crate) struct RelIndex {
    pub(crate) key_len: usize,
    pub(crate) arity: usize,
    /// All rows of the relation back to back, `arity` values each: row `i`
    /// is `all[i * arity..][..arity]`. One allocation per relation keeps
    /// rows dense in memory, whatever else was allocated between inserts.
    all: Vec<Cst>,
    /// key prefix → ids of the block's rows (arbitrary order).
    pub(crate) blocks: HashMap<Box<[Cst]>, BlockIds>,
    /// Every row id, keyed by its full row: the dedup, remove and
    /// `contains` probe, O(1) however large the row's block.
    members: RowSet,
}

impl RelIndex {
    fn new(sig: Signature) -> RelIndex {
        RelIndex {
            key_len: sig.key_len,
            arity: sig.arity,
            all: Vec::new(),
            blocks: HashMap::new(),
            members: RowSet::new(),
        }
    }

    /// The number of rows.
    pub(crate) fn len(&self) -> usize {
        self.all.len() / self.arity
    }

    /// The row with this id.
    pub(crate) fn row(&self, id: u32) -> &[Cst] {
        row_of(&self.all, self.arity, id)
    }

    /// Every row, in arbitrary order.
    pub(crate) fn rows(&self) -> Candidates<'_> {
        Candidates::from_parts(self, None)
    }

    /// The row ids of the block with this key (empty when absent).
    pub(crate) fn block(&self, key: &[Cst]) -> &[u32] {
        self.blocks.get(key).map_or(&[], BlockIds::as_slice)
    }

    /// Every row id, ordered by row: the canonical order. Rows are
    /// distinct, so the order is total and the key-prefix blocks come out
    /// contiguous.
    fn sorted_ids(&self) -> Vec<u32> {
        let len = u32::try_from(self.len()).expect("row count fits in u32");
        let mut ids: Vec<u32> = (0..len).collect();
        ids.sort_unstable_by(|&a, &b| self.row(a).cmp(self.row(b)));
        ids
    }
}

/// The row ids of one block, in arbitrary order. A block of a relation
/// that satisfies its key holds one row, so that case stays inline; `Many`
/// always holds at least two ids.
#[derive(Clone, Debug)]
pub(crate) enum BlockIds {
    One(u32),
    Many(Vec<u32>),
}

impl BlockIds {
    pub(crate) fn as_slice(&self) -> &[u32] {
        match self {
            BlockIds::One(id) => std::slice::from_ref(id),
            BlockIds::Many(ids) => ids,
        }
    }

    fn push(&mut self, id: u32) {
        match self {
            BlockIds::One(first) => *self = BlockIds::Many(vec![*first, id]),
            BlockIds::Many(ids) => ids.push(id),
        }
    }

    /// Drops `id`, which must be in the block; returns whether the block
    /// is now empty.
    fn remove(&mut self, id: u32) -> bool {
        let BlockIds::Many(ids) = self else {
            return true;
        };
        ids.swap_remove(ids.iter().position(|&i| i == id).expect("id in its block"));
        if let [only] = ids[..] {
            *self = BlockIds::One(only);
        }
        false
    }

    /// Replaces id `from`, which must be in the block, with `to`.
    fn repoint(&mut self, from: u32, to: u32) {
        let slot = match self {
            BlockIds::One(id) => id,
            BlockIds::Many(ids) => ids
                .iter_mut()
                .find(|i| **i == from)
                .expect("id in its block"),
        };
        *slot = to;
    }
}

/// Marks a free [`RowSet`] slot.
const EMPTY: u32 = u32::MAX;

/// A set of row ids keyed by their full rows: open addressing with linear
/// probing over a power-of-two slot array, at most 7/8 full. The rows stay
/// in the relation's row table, which every operation takes as `all`; the
/// set hashes and compares them there, so it holds nothing but one `u32`
/// per slot. Deletion shifts the rest of the probe run back, so there are
/// no tombstones and probe runs never outlive the rows that made them.
#[derive(Clone, Debug)]
struct RowSet {
    /// Row ids, or [`EMPTY`]; the length is a power of two.
    slots: Vec<u32>,
    len: usize,
    /// Keys the row hash per table (the std hasher), so no input can be
    /// crafted to collide.
    hasher: RandomState,
}

impl RowSet {
    fn new() -> RowSet {
        RowSet {
            slots: vec![EMPTY; 8],
            len: 0,
            hasher: RandomState::new(),
        }
    }

    /// The slot where the probe run for `row` starts.
    fn home(&self, row: &[Cst]) -> usize {
        self.hasher.hash_one(row) as usize & (self.slots.len() - 1)
    }

    /// `Ok(slot)` of `row`'s id, or `Err(slot)`: the free slot that ends
    /// its probe run.
    fn find(&self, all: &[Cst], arity: usize, row: &[Cst]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(row);
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                id if row_of(all, arity, id) == row => return Ok(slot),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Adds `id` for `row` (not yet in `all`) unless an equal row is
    /// present; returns whether it was added.
    fn insert(&mut self, all: &[Cst], arity: usize, row: &[Cst], id: u32) -> bool {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow(all, arity);
        }
        let Err(slot) = self.find(all, arity, row) else {
            return false;
        };
        self.slots[slot] = id;
        self.len += 1;
        true
    }

    /// Doubles the slot array and re-places every id.
    fn grow(&mut self, all: &[Cst], arity: usize) {
        let cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; cap]);
        let mask = cap - 1;
        for id in old.into_iter().filter(|&id| id != EMPTY) {
            let mut slot = self.home(row_of(all, arity, id));
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id;
        }
    }

    /// Removes `row`'s id and returns it (`None` when absent). Every id's
    /// row must still be in `all`: the backward shift rehashes the rows
    /// after the freed slot.
    fn remove(&mut self, all: &[Cst], arity: usize, row: &[Cst]) -> Option<u32> {
        let mut hole = self.find(all, arity, row).ok()?;
        let id = self.slots[hole];
        let mask = self.slots.len() - 1;
        let mut slot = hole;
        loop {
            slot = (slot + 1) & mask;
            let next = self.slots[slot];
            if next == EMPTY {
                break;
            }
            // `next` may move back into the hole unless its home lies
            // cyclically in (hole, slot]: its probe would then miss it.
            let home = self.home(row_of(all, arity, next));
            if (slot.wrapping_sub(home) & mask) >= (slot.wrapping_sub(hole) & mask) {
                self.slots[hole] = next;
                hole = slot;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
        Some(id)
    }

    /// Re-points `row`'s slot from id `from` to id `to` (the row is moving
    /// to slot `to` of the row table). `row` must be present under `from`.
    fn repoint(&mut self, row: &[Cst], from: u32, to: u32) {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(row);
        while self.slots[slot] != from {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = to;
    }
}

/// Row `id` of a back-to-back row table of the given arity.
fn row_of(all: &[Cst], arity: usize, id: u32) -> &[Cst] {
    &all[id as usize * arity..][..arity]
}

/// A refcounted constant set: the materialized [`BTreeSet`] tracks the keys
/// of the occurrence-count map, so membership survives removes until the
/// *last* occurrence of a constant disappears.
#[derive(Clone, Debug, Default, PartialEq)]
struct CountedSet {
    set: BTreeSet<Cst>,
    counts: HashMap<Cst, u32>,
}

impl CountedSet {
    fn count(&mut self, c: Cst) {
        let n = self.counts.entry(c).or_insert(0);
        *n += 1;
        if *n == 1 {
            self.set.insert(c);
        }
    }

    fn uncount(&mut self, c: Cst) {
        let n = self.counts.get_mut(&c).expect("uncount of counted constant");
        *n -= 1;
        if *n == 0 {
            self.counts.remove(&c);
            self.set.remove(&c);
        }
    }

    /// How many times `c` was counted (0 when absent).
    fn occurrences(&self, c: Cst) -> u32 {
        self.counts.get(&c).copied().unwrap_or(0)
    }
}

/// The active domain and the key constants, refcounted per occurrence so
/// mutations maintain them exactly (a constant leaves a set only when its
/// last occurrence does).
#[derive(Clone, Debug, Default, PartialEq)]
struct Domains {
    adom: CountedSet,
    key_consts: CountedSet,
}

impl Domains {
    fn count_row(&mut self, key_len: usize, row: &[Cst]) {
        row.iter().for_each(|&c| self.adom.count(c));
        row[..key_len].iter().for_each(|&c| self.key_consts.count(c));
    }

    fn uncount_row(&mut self, key_len: usize, row: &[Cst]) {
        row.iter().for_each(|&c| self.adom.uncount(c));
        row[..key_len].iter().for_each(|&c| self.key_consts.uncount(c));
    }
}

/// The fact store of an [`Instance`] ([`Instance::index`]), shared by the
/// compiled evaluators:
///
/// * per-relation row tables with hash-indexed key-prefix blocks and a
///   full-row membership table, so guarded lookups with a ground key and
///   full-fact membership checks are O(1) hash probes, however large the
///   block;
/// * the active domain and key-constant sets, built on first
///   demand and maintained in place after that, so no workload pays for a
///   domain it never reads.
///
/// Every mutation patches it in place; `==` compares *structural content*
/// (domains, occurrence counts, blocks as row sets), deliberately ignoring
/// physical row order, which is history-dependent under swap-remove.
#[derive(Clone, Debug, Default)]
pub struct InstanceIndex {
    rels: HashMap<RelName, RelIndex>,
    domains: OnceLock<Domains>,
}

impl InstanceIndex {
    /// The domains, counted over every row on first demand.
    fn domains(&self) -> &Domains {
        self.domains.get_or_init(|| {
            let mut d = Domains::default();
            for r in self.rels.values() {
                r.rows().iter().for_each(|row| d.count_row(r.key_len, row));
            }
            d
        })
    }

    /// Adds `row` to `rel` unless present (one membership probe); returns
    /// whether it was added.
    fn insert(&mut self, rel: RelName, sig: Signature, row: &[Cst]) -> bool {
        let r = self.rels.entry(rel).or_insert_with(|| RelIndex::new(sig));
        let id = u32::try_from(r.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("row count fits in u32");
        if !r.members.insert(&r.all, r.arity, row, id) {
            return false;
        }
        match r.blocks.get_mut(&row[..sig.key_len]) {
            Some(ids) => ids.push(id),
            None => {
                r.blocks.insert(row[..sig.key_len].into(), BlockIds::One(id));
            }
        }
        if let Some(d) = self.domains.get_mut() {
            d.count_row(sig.key_len, row);
        }
        r.all.extend_from_slice(row);
        true
    }

    /// Removes `row` from `rel` if present; returns whether it was removed.
    /// Drops its id from the membership table and the block (erasing an
    /// emptied block), moves the last row into its slot and re-points that
    /// row's id in both.
    fn remove(&mut self, rel: RelName, row: &[Cst]) -> bool {
        let Some(r) = self.rels.get_mut(&rel) else {
            return false;
        };
        let Some(id) = r.members.remove(&r.all, r.arity, row) else {
            return false;
        };
        let key = &row[..r.key_len];
        let ids = r.blocks.get_mut(key).expect("member's block indexed");
        if ids.remove(id) {
            r.blocks.remove(key);
        }
        if let Some(d) = self.domains.get_mut() {
            d.uncount_row(r.key_len, row);
        }
        let (arity, last) = (r.arity, r.len() - 1);
        let last_id = u32::try_from(last).expect("row count fits in u32");
        if id != last_id {
            // The last row moves into slot `id`: re-point its two index
            // entries while its values still sit at `last`.
            let moved = row_of(&r.all, arity, last_id);
            r.members.repoint(moved, last_id, id);
            r.blocks
                .get_mut(&moved[..r.key_len])
                .expect("moved row's block indexed")
                .repoint(last_id, id);
        }
        r.all.copy_within(last * arity.., id as usize * arity);
        r.all.truncate(last * arity);
        true
    }

    /// Candidate rows for a slot-compiled guard atom under `binding`: the
    /// hash-indexed block when the primary-key prefix is ground, the full
    /// relation otherwise, and nothing when the relation is unpopulated or
    /// the arity cannot match. `scratch` is a reusable key buffer (cleared
    /// here). Shared by the compiled CQ join and the compiled formula
    /// evaluator — the single place that resolves ground key prefixes.
    pub fn guarded_candidates(
        &self,
        atom: &CompiledAtom,
        binding: &Binding,
        scratch: &mut Vec<Cst>,
    ) -> Candidates<'_> {
        let Some(r) = self.rels.get(&atom.rel).filter(|r| r.arity == atom.terms.len()) else {
            return Candidates::none();
        };
        scratch.clear();
        for &t in &atom.terms[..r.key_len] {
            let Some(c) = binding.resolve(t) else {
                return r.rows();
            };
            scratch.push(c);
        }
        Candidates::from_parts(r, Some(r.block(scratch)))
    }

    /// The active domain, built on first demand.
    pub fn adom_set(&self) -> &BTreeSet<Cst> {
        &self.domains().adom.set
    }

    /// The set of constants occurring in key positions, built on first
    /// demand alongside [`InstanceIndex::adom_set`].
    pub fn key_consts_set(&self) -> &BTreeSet<Cst> {
        &self.domains().key_consts.set
    }

    /// The per-relation index handles (for [`crate::view::InstanceView`]).
    pub(crate) fn rel(&self, rel: RelName) -> Option<&RelIndex> {
        self.rels.get(&rel)
    }

    /// Full-fact membership: one probe of the relation's membership
    /// table, whatever the size of the fact's block.
    pub fn contains(&self, rel: RelName, args: &[Cst]) -> bool {
        let Some(r) = self.rels.get(&rel) else {
            return false;
        };
        args.len() == r.arity && r.members.find(&r.all, r.arity, args).is_ok()
    }

    /// Canonical per-relation content: the row count and each block's
    /// sorted rows, skipping relations with no rows (an empty [`RelIndex`]
    /// entry is an artifact of mutation history, not content).
    #[allow(clippy::type_complexity)]
    fn canonical_rels(&self) -> BTreeMap<RelName, (usize, BTreeMap<&[Cst], Vec<&[Cst]>>)> {
        self.rels
            .iter()
            .filter(|(_, r)| r.len() > 0)
            .map(|(rel, r)| {
                let blocks = r.blocks.iter().map(|(key, ids)| {
                    let mut rows: Vec<&[Cst]> = ids.as_slice().iter().map(|&i| r.row(i)).collect();
                    rows.sort_unstable();
                    (&**key, rows)
                });
                (*rel, (r.len(), blocks.collect()))
            })
            .collect()
    }
}

/// Structural equality: domains, occurrence counts, and per-relation block
/// content must match; physical row order (which is history-dependent under
/// swap-remove maintenance) is canonicalized away. This is what the
/// incremental-vs-rebuild differential tests compare.
impl PartialEq for InstanceIndex {
    fn eq(&self, other: &Self) -> bool {
        self.domains() == other.domains() && self.canonical_rels() == other.canonical_rels()
    }
}

impl Eq for InstanceIndex {}

/// A candidate row set from `InstanceIndex::candidates`: either one block
/// or a whole relation, borrowed — no rows are cloned.
#[derive(Clone, Copy, Debug)]
pub struct Candidates<'a> {
    /// The relation's rows, back to back.
    all: &'a [Cst],
    arity: usize,
    /// `Some(row ids)` for a block, `None` for the full relation.
    idxs: Option<&'a [u32]>,
}

impl<'a> Candidates<'a> {
    /// A candidate set over the rows of `r`, optionally narrowed to the
    /// given row ids (used by [`crate::view::InstanceView`] to present
    /// filtered row sets without copying rows).
    pub(crate) fn from_parts(r: &'a RelIndex, idxs: Option<&'a [u32]>) -> Candidates<'a> {
        Candidates {
            all: &r.all,
            arity: r.arity,
            idxs,
        }
    }

    /// The empty candidate set.
    pub(crate) fn none() -> Candidates<'static> {
        Candidates {
            all: &[],
            arity: 1,
            idxs: Some(&[]),
        }
    }

    /// Number of candidate rows.
    pub fn len(&self) -> usize {
        match self.idxs {
            Some(ix) => ix.len(),
            None => self.all.len() / self.arity,
        }
    }

    /// Whether there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the candidate rows.
    pub fn iter(&self) -> CandidateIter<'a> {
        (*self).into_iter()
    }
}

impl<'a> IntoIterator for Candidates<'a> {
    type Item = &'a [Cst];
    type IntoIter = CandidateIter<'a>;

    fn into_iter(self) -> CandidateIter<'a> {
        CandidateIter {
            cands: self,
            pos: 0,
        }
    }
}

/// Iterator over [`Candidates`].
#[derive(Clone, Debug)]
pub struct CandidateIter<'a> {
    cands: Candidates<'a>,
    pos: usize,
}

impl<'a> Iterator for CandidateIter<'a> {
    type Item = &'a [Cst];

    fn next(&mut self) -> Option<&'a [Cst]> {
        let Candidates { all, arity, idxs } = self.cands;
        let id = match idxs {
            Some(ix) => *ix.get(self.pos)?,
            None if self.pos * arity < all.len() => self.pos as u32,
            None => return None,
        };
        self.pos += 1;
        Some(row_of(all, arity, id))
    }
}

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.subset_of(other)
    }
}

impl Eq for Instance {}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let facts: Vec<String> = self.facts_by_name().iter().map(Fact::to_string).collect();
        write!(f, "{{{}}}", facts.join(", "))
    }
}

impl fmt::Debug for Instance {
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
        Arc::new(s)
    }

    fn db() -> Instance {
        let mut db = Instance::new(schema());
        db.insert_named("R", &["a", "1"]).unwrap();
        db.insert_named("R", &["a", "2"]).unwrap();
        db.insert_named("R", &["b", "1"]).unwrap();
        db.insert_named("S", &["1", "x"]).unwrap();
        db
    }

    #[test]
    fn insert_dedup_and_len() {
        let mut db = db();
        assert_eq!(db.len(), 4);
        assert!(!db.insert_named("R", &["a", "1"]).unwrap());
        assert_eq!(db.len(), 4);
        assert!(db.contains(&Fact::from_names("R", &["a", "1"])));
    }

    #[test]
    fn arity_validated() {
        let mut db = db();
        assert!(matches!(
            db.insert_named("R", &["a"]),
            Err(ModelError::ArityMismatch { .. })
        ));
        assert!(db.insert_named("Zzz", &["a"]).is_err());
    }

    #[test]
    fn blocks_and_block_of() {
        let db = db();
        let block = db.block(RelName::new("R"), &[Cst::new("a")]);
        assert_eq!(block.len(), 2);
        let blocks = db.blocks(RelName::new("R"));
        assert_eq!(blocks.len(), 2);
        let b = db.block_of(&Fact::from_names("R", &["a", "1"]));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn pk_violation_detection() {
        let db = db();
        assert!(!db.satisfies_pk());
        let v = db.pk_violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0, RelName::new("R"));

        let mut clean = Instance::new(schema());
        clean.insert_named("R", &["a", "1"]).unwrap();
        clean.insert_named("R", &["b", "1"]).unwrap();
        assert!(clean.satisfies_pk());
    }

    #[test]
    fn dangling_detection() {
        let db = db();
        let fk = ForeignKey::from_names("R", 2, "S");
        // R(a,1) references S(1,·) which exists; R(a,2) dangles.
        assert!(!db.is_dangling(&Fact::from_names("R", &["a", "1"]), &fk));
        assert!(db.is_dangling(&Fact::from_names("R", &["a", "2"]), &fk));
        let fks = FkSet::new(schema(), vec![fk]).unwrap();
        let dangling = db.dangling_facts(&fks);
        assert_eq!(dangling.len(), 1);
        assert!(!db.satisfies_fks(&fks));
    }

    #[test]
    fn set_operations() {
        let db = db();
        let mut other = Instance::new(schema());
        other.insert_named("R", &["a", "1"]).unwrap();
        other.insert_named("S", &["9", "z"]).unwrap();

        let inter = db.intersection(&other);
        assert_eq!(inter.len(), 1);

        let diff = db.difference(&other);
        assert_eq!(diff.len(), 3);

        let sym = db.symmetric_difference(&other);
        assert_eq!(sym.len(), 4); // 3 only-in-db + 1 only-in-other

        let uni = db.union(&other);
        assert_eq!(uni.len(), 5);
        assert!(db.subset_of(&uni));
        assert!(!uni.subset_of(&db));
    }

    #[test]
    fn adom_and_key_consts() {
        let db = db();
        assert!(db.adom().contains(&Cst::new("x")));
        let kc = db.key_consts();
        assert!(kc.contains(&Cst::new("a")));
        assert!(kc.contains(&Cst::new("1"))); // S's key
        assert!(!kc.contains(&Cst::new("x")));
    }

    #[test]
    fn orphan_constants() {
        let db = db();
        // "x" occurs once at a non-key position of S.
        assert!(db.is_orphan_const(Cst::new("x")));
        // "1" occurs three times.
        assert!(!db.is_orphan_const(Cst::new("1")));
        // "b" occurs once but at a key position.
        assert!(!db.is_orphan_const(Cst::new("b")));
    }

    #[test]
    fn restriction() {
        let db = db();
        let r = db.restrict(&[RelName::new("S")].into_iter().collect());
        assert_eq!(r.len(), 1);
        assert_eq!(r.count_of(RelName::new("R")), 0);
    }

    #[test]
    fn remove() {
        let mut db = db();
        assert!(db.remove(&Fact::from_names("R", &["a", "2"])).unwrap());
        assert!(!db.remove(&Fact::from_names("R", &["a", "2"])).unwrap());
        assert_eq!(db.len(), 3);
        assert_eq!(db.block(RelName::new("R"), &[Cst::new("a")]).len(), 1);
        assert!(db.satisfies_pk());
    }

    #[test]
    fn remove_arity_validated_like_insert() {
        // Regression: remove used to silently return false on a wrong-arity
        // fact for a known relation, asymmetric with insert.
        let mut db = db();
        assert!(matches!(
            db.remove(&Fact::from_names("R", &["a"])),
            Err(ModelError::ArityMismatch { .. })
        ));
        assert!(db.remove(&Fact::from_names("Zzz", &["a"])).is_err());
        assert_eq!(db.len(), 4, "failed removes must not mutate");
    }

    #[test]
    fn epoch_counts_effective_mutations() {
        let mut db = db();
        let e0 = db.epoch();
        assert!(!db.insert_named("R", &["a", "1"]).unwrap());
        assert!(!db.remove(&Fact::from_names("R", &["zz", "zz"])).unwrap());
        assert_eq!(db.epoch(), e0, "no-ops leave the epoch unchanged");
        db.insert_named("R", &["c", "9"]).unwrap();
        assert_eq!(db.epoch(), e0 + 1);
        db.remove(&Fact::from_names("R", &["c", "9"])).unwrap();
        assert_eq!(db.epoch(), e0 + 2);
        // A clone keeps the epoch but gets a fresh identity.
        let twin = db.clone();
        assert_eq!(twin.epoch(), db.epoch());
        assert_ne!(twin.uid(), db.uid());
    }

    #[test]
    fn index_is_patched_in_place() {
        let mut db = db();
        db.adom(); // build the domains, then mutate through the patch path
        db.insert_named("S", &["7", "q"]).unwrap();
        db.remove(&Fact::from_names("R", &["a", "1"])).unwrap();
        db.remove(&Fact::from_names("S", &["1", "x"])).unwrap();
        db.insert_named("R", &["a", "1"]).unwrap();
        assert_eq!(*db.index(), db.rebuild_index());
        assert!(db.adom().contains(&Cst::new("q")));
        assert!(!db.adom().contains(&Cst::new("x")), "adom must shrink");
        // Emptied relation: the S-block of key 1 is gone.
        assert!(db.block(RelName::new("S"), &[Cst::new("1")]).is_empty());
    }

    #[test]
    fn apply_delta_is_validated_and_counted() {
        use crate::delta::Delta;
        let mut db = db();
        let mut delta = Delta::new();
        delta
            .remove(Fact::from_names("R", &["a", "2"]))
            .insert(Fact::from_names("S", &["2", "y"]))
            .insert(Fact::from_names("S", &["2", "y"])); // duplicate: no-op
        let e0 = db.epoch();
        assert_eq!(db.apply(&delta).unwrap(), 2);
        assert_eq!(db.epoch(), e0 + 2);
        assert!(db.contains(&Fact::from_names("S", &["2", "y"])));

        // A malformed op anywhere aborts the whole batch untouched.
        let mut bad = Delta::new();
        bad.insert(Fact::from_names("S", &["3", "z"]))
            .remove(Fact::from_names("R", &["only-one"]));
        let before = db.clone();
        assert!(db.apply(&bad).is_err());
        assert_eq!(db, before);
        assert_eq!(db.epoch(), e0 + 2);
    }

    /// Nanoseconds to load `facts` into a fresh instance, the best of
    /// three loads.
    fn load_ns(facts: &[Fact]) -> u128 {
        (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                Instance::from_facts(schema(), facts.iter().cloned()).unwrap();
                start.elapsed().as_nanos()
            })
            .min()
            .unwrap()
    }

    #[test]
    fn one_block_loads_as_fast_as_singleton_blocks() {
        // Both loads insert the same number of facts, so host speed cancels
        // out of the ratio. A dedup that compares each new row with its
        // whole block makes the one-block load ≈50× slower.
        const N: usize = 20_000;
        let values: Vec<String> = (0..N).map(|i| format!("v{i}")).collect();
        let fact = |k: &str, v: &str| Fact::from_names("R", &[k, v]);
        let one_block: Vec<Fact> = values.iter().map(|v| fact("k", v)).collect();
        let singletons: Vec<Fact> = values.iter().map(|v| fact(v, "k")).collect();
        let (one, single) = (load_ns(&one_block), load_ns(&singletons));
        assert!(
            one <= 4 * single,
            "one block of {N}: {one} ns; {N} singleton blocks: {single} ns"
        );
    }

    #[test]
    fn equality_is_setwise() {
        let a = db();
        let mut b = Instance::new(schema());
        // insert in a different order
        b.insert_named("S", &["1", "x"]).unwrap();
        b.insert_named("R", &["b", "1"]).unwrap();
        b.insert_named("R", &["a", "2"]).unwrap();
        b.insert_named("R", &["a", "1"]).unwrap();
        assert_eq!(a, b);
    }
}
