//! Lazy instance views: restriction, block filtering and renaming **without
//! materializing a database**.
//!
//! The Appendix E reduction pipeline transforms the database between steps:
//! Lemma 37/40 delete a relation and a subset of the source relation's
//! blocks, and Lemma 45 evaluates a residual problem per block fact. The
//! interpretive evaluator realizes each transformation as a fresh
//! [`Instance`]; an [`InstanceView`] realizes the same transformations as a
//! *view stack* over the base instance's fact store ([`InstanceIndex`]):
//!
//! * **restriction** — a set of visible relations (hidden relations present
//!   no rows);
//! * **block filtering** — per relation, the set of surviving block keys
//!   plus the surviving row indices into the store's row table, so
//!   candidate iteration still hands out borrowed row slices;
//! * **renaming** — the Lemma 45 injective renaming `f` as a lazy
//!   per-position value translation ([`InstanceView::renamed_rows`]) backed
//!   by a [`RenameTable`] that *recycles* its invented constants across
//!   calls instead of minting fresh interner symbols per evaluation.
//!
//! Views are cheap to clone (filters are shared behind [`Arc`]) so a
//! compiled plan can thread one view through nested reductions and branch
//! per block fact without copying anything.
//!
//! The [`FactSource`] trait is the common surface the compiled evaluators
//! (the CQ join of [`crate::eval::CompiledQuery`] and the formula evaluator
//! of `cqa-fo`) consume: candidate rows for a guard atom, full-fact
//! membership, and the active domain. Both the raw [`InstanceIndex`] and an
//! [`InstanceView`] implement it, so one compiled artifact evaluates over
//! full databases and reduced views alike.

use crate::binding::{Binding, CompiledAtom};
use crate::columnar::ColumnarRelation;
use crate::instance::{Candidates, Instance, InstanceIndex, RelIndex};
use crate::intern::Cst;
use crate::schema::RelName;
use crate::term::Term;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// A row source for compiled evaluation: the index-backed primitives shared
/// by the CQ join and the formula evaluator.
pub trait FactSource {
    /// Candidate rows for a slot-compiled guard atom under `binding`: a
    /// block when the key prefix is ground, a (possibly filtered) relation
    /// scan otherwise. `scratch` is a reusable key buffer.
    fn guarded_candidates<'s>(
        &'s self,
        atom: &CompiledAtom,
        binding: &Binding,
        scratch: &mut Vec<Cst>,
    ) -> Candidates<'s>;

    /// Whether the source contains the fully ground row `rel(args…)`.
    fn contains_row(&self, rel: RelName, args: &[Cst]) -> bool;

    /// Adds the source's active domain to `out`.
    fn extend_adom(&self, out: &mut BTreeSet<Cst>);

    /// The primary-key length of `rel`, when the source indexes it. Schema
    /// metadata, not a data access — nothing is logged. Join-strategy
    /// selection ([`crate::acyclic::SemijoinPlan::prefers_semijoin`]) uses
    /// it to predict whether the backtracking join can probe by key.
    fn key_len(&self, rel: RelName) -> Option<usize>;

    /// The key-sorted columnar projection of `rel`, when the source can
    /// serve whole column slices for it. A filtered or hidden relation
    /// cannot (its columns would leak rows the view excludes) and returns
    /// `None`; callers must treat `None` as "iterate rows instead", never
    /// as "empty". Serving a projection counts as a whole-relation scan.
    fn columnar(&self, rel: RelName) -> Option<&ColumnarRelation>;
}

impl FactSource for InstanceIndex {
    fn guarded_candidates<'s>(
        &'s self,
        atom: &CompiledAtom,
        binding: &Binding,
        scratch: &mut Vec<Cst>,
    ) -> Candidates<'s> {
        InstanceIndex::guarded_candidates(self, atom, binding, scratch)
    }

    fn contains_row(&self, rel: RelName, args: &[Cst]) -> bool {
        InstanceIndex::contains(self, rel, args)
    }

    fn extend_adom(&self, out: &mut BTreeSet<Cst>) {
        out.extend(self.adom_set().iter().copied());
    }

    fn key_len(&self, rel: RelName) -> Option<usize> {
        self.rel(rel).map(|r| r.key_len)
    }

    fn columnar(&self, rel: RelName) -> Option<&ColumnarRelation> {
        InstanceIndex::columnar(self, rel)
    }
}

/// The surviving blocks of one filtered relation: the allowed block keys
/// (for ground-key probes) and the surviving row indices (for scans).
#[derive(Debug)]
struct BlockFilter {
    keys: HashSet<Box<[Cst]>>,
    rows: Vec<u32>,
}

/// A thread-safe log of the probes a traced view performed — the dynamic
/// counterpart of static read-set inference (`cqa-analyze`).
///
/// Each event is a `(relation, key)` pair: `Some(key)` for a single-block
/// probe ([`InstanceView::block_rows`], ground-key guard candidates, row
/// membership), `None` for a whole-relation scan ([`InstanceView::blocks`],
/// non-ground guards, active-domain collection). Attach a log with
/// [`InstanceView::with_read_log`]; clones of the view share it, so one log
/// observes an entire plan evaluation including nested residual views.
///
/// Probes on *hidden* relations are not recorded (hiding is static plan
/// structure — the result of such a probe cannot depend on the data), but
/// probes on filtered-out blocks are: the filter itself was derived from
/// earlier, recorded reads.
#[derive(Debug, Default)]
pub struct ReadLog {
    events: Mutex<BTreeSet<(RelName, Option<Vec<Cst>>)>>,
}

impl ReadLog {
    /// An empty log.
    pub fn new() -> ReadLog {
        ReadLog::default()
    }

    fn scan(&self, rel: RelName) {
        self.events.lock().insert((rel, None));
    }

    fn key(&self, rel: RelName, key: &[Cst]) {
        self.events.lock().insert((rel, Some(key.to_vec())));
    }

    /// The recorded events, sorted: `(relation, Some(block key) | None)`.
    pub fn events(&self) -> Vec<(RelName, Option<Vec<Cst>>)> {
        self.events.lock().iter().cloned().collect()
    }

    /// The number of distinct recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A lazy view over an [`Instance`]: relation restriction plus per-relation
/// block filters, evaluated against the instance's fact store
/// ([`InstanceIndex`]). See the module docs.
#[derive(Clone)]
pub struct InstanceView<'a> {
    idx: &'a InstanceIndex,
    visible: BTreeSet<RelName>,
    filters: HashMap<RelName, Arc<BlockFilter>>,
    log: Option<Arc<ReadLog>>,
}

impl<'a> InstanceView<'a> {
    /// The full view of `db`: every relation visible, nothing filtered.
    pub fn new(db: &'a Instance) -> InstanceView<'a> {
        InstanceView {
            idx: db.index(),
            visible: db.schema().relations().map(|(r, _)| r).collect(),
            filters: HashMap::new(),
            log: None,
        }
    }

    /// Attaches a [`ReadLog`] that records every data-dependent probe this
    /// view (and all views derived from it) performs.
    pub fn with_read_log(mut self, log: Arc<ReadLog>) -> InstanceView<'a> {
        self.log = Some(log);
        self
    }

    fn note_scan(&self, rel: RelName) {
        if let Some(log) = &self.log {
            log.scan(rel);
        }
    }

    /// The rows of `rel` (held in `r`) that survive its block filter.
    fn surviving_rows<'s>(&'s self, rel: RelName, r: &'s RelIndex) -> Candidates<'s> {
        Candidates::from_parts(r, self.filters.get(&rel).map(|f| f.rows.as_slice()))
    }

    fn note_key(&self, rel: RelName, key: &[Cst]) {
        if let Some(log) = &self.log {
            log.key(rel, key);
        }
    }

    /// Restricts the view to the relations of `keep` (intersection with the
    /// currently visible set) — the lazy form of [`Instance::restrict`].
    pub fn restrict(mut self, keep: &BTreeSet<RelName>) -> InstanceView<'a> {
        self.visible.retain(|r| keep.contains(r));
        self
    }

    /// Hides one relation (the deleted target of a Lemma 37/40 step).
    pub fn hide(mut self, rel: RelName) -> InstanceView<'a> {
        self.visible.remove(&rel);
        self
    }

    /// Keeps only the blocks of `rel` whose key is in `keys` (the surviving
    /// source blocks of a Lemma 37/40 step). Replaces any previous filter on
    /// `rel`; callers compute `keys` from the *current* view, so the new
    /// filter is always a refinement.
    pub fn with_block_filter(
        mut self,
        rel: RelName,
        keys: HashSet<Box<[Cst]>>,
    ) -> InstanceView<'a> {
        let mut rows: Vec<u32> = Vec::new();
        if let Some(r) = self.idx.rel(rel) {
            for key in &keys {
                rows.extend_from_slice(r.block(key));
            }
        }
        rows.sort_unstable();
        self.filters.insert(rel, Arc::new(BlockFilter { keys, rows }));
        self
    }

    /// Whether `rel` is visible in this view.
    pub fn is_visible(&self, rel: RelName) -> bool {
        self.visible.contains(&rel)
    }

    /// The visible blocks of `rel` as `(key, rows)` pairs of borrowed
    /// slices (iteration order follows the underlying hash index).
    pub fn blocks(&self, rel: RelName) -> Vec<(&'a [Cst], Vec<&'a [Cst]>)> {
        let mut out = Vec::new();
        if !self.visible.contains(&rel) {
            return out;
        }
        self.note_scan(rel);
        let Some(r) = self.idx.rel(rel) else {
            return out;
        };
        let filter = self.filters.get(&rel);
        for (key, idxs) in &r.blocks {
            if let Some(f) = filter {
                if !f.keys.contains(key) {
                    continue;
                }
            }
            out.push((
                &**key,
                idxs.iter().map(|&i| r.row(i)).collect(),
            ));
        }
        out
    }

    /// The rows of the block `rel(key, ∗)`, empty when the relation is
    /// hidden or the block was filtered out.
    pub fn block_rows(&self, rel: RelName, key: &[Cst]) -> Vec<&'a [Cst]> {
        if !self.visible.contains(&rel) {
            return Vec::new();
        }
        self.note_key(rel, key);
        let Some(r) = self.idx.rel(rel) else {
            return Vec::new();
        };
        if let Some(f) = self.filters.get(&rel) {
            if !f.keys.contains(key) {
                return Vec::new();
            }
        }
        r.block(key).iter().map(|&i| r.row(i)).collect()
    }

    /// Whether the block `rel(key, ∗)` is visible and non-empty — the
    /// dangling test of the reduction steps, O(1) hash probes.
    pub fn block_nonempty(&self, rel: RelName, key: &[Cst]) -> bool {
        if !self.visible.contains(&rel) {
            return false;
        }
        self.note_key(rel, key);
        let Some(r) = self.idx.rel(rel) else {
            return false;
        };
        if let Some(f) = self.filters.get(&rel) {
            if !f.keys.contains(key) {
                return false;
            }
        }
        r.blocks.contains_key(key)
    }

    /// The visible rows of `rel`, renamed per position by the Lemma 45
    /// injective renaming: the value at position `i` is compared against
    /// `spec[i]` and translated through `table`. The stream is lazy (rows
    /// are borrowed handles translated on demand); only the caller decides
    /// whether to materialize it.
    pub fn renamed_rows<'s>(
        &'s self,
        rel: RelName,
        spec: &'s [Term],
        table: &'s RenameTable,
    ) -> impl Iterator<Item = Vec<Cst>> + 's {
        let cands = if self.visible.contains(&rel) {
            self.note_scan(rel);
            match self.idx.rel(rel) {
                Some(r) => self.surviving_rows(rel, r),
                None => Candidates::none(),
            }
        } else {
            Candidates::none()
        };
        cands.into_iter().map(move |row| {
            row.iter()
                .zip(spec)
                .map(|(&a, &expected)| table.rename(a, expected))
                .collect()
        })
    }

    /// The number of visible rows across all relations.
    pub fn len(&self) -> usize {
        self.visible
            .iter()
            .filter_map(|&rel| Some(self.surviving_rows(rel, self.idx.rel(rel)?).len()))
            .sum()
    }

    /// Whether no rows are visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl FactSource for InstanceView<'_> {
    fn guarded_candidates<'s>(
        &'s self,
        atom: &CompiledAtom,
        binding: &Binding,
        scratch: &mut Vec<Cst>,
    ) -> Candidates<'s> {
        if !self.visible.contains(&atom.rel) {
            return Candidates::none();
        }
        let Some(r) = self.idx.rel(atom.rel) else {
            self.note_scan(atom.rel);
            return Candidates::none();
        };
        if r.arity != atom.terms.len() {
            return Candidates::none();
        }
        // Resolve the key prefix (mirrors the base index's ground-key
        // resolution, plus the block filter: a block survives whole, so a
        // ground probe only needs its key checked against the filter).
        scratch.clear();
        for &t in &atom.terms[..r.key_len] {
            match binding.resolve(t) {
                Some(c) => scratch.push(c),
                None => {
                    // Non-ground key: scan the surviving rows.
                    self.note_scan(atom.rel);
                    return self.surviving_rows(atom.rel, r);
                }
            }
        }
        self.note_key(atom.rel, scratch.as_slice());
        if let Some(f) = self.filters.get(&atom.rel) {
            if !f.keys.contains(scratch.as_slice()) {
                return Candidates::none();
            }
        }
        Candidates::from_parts(r, Some(r.block(scratch)))
    }

    fn contains_row(&self, rel: RelName, args: &[Cst]) -> bool {
        if !self.visible.contains(&rel) {
            return false;
        }
        match self.idx.rel(rel) {
            Some(r) => self.note_key(rel, &args[..r.key_len.min(args.len())]),
            None => self.note_scan(rel),
        }
        if !self.idx.contains(rel, args) {
            return false;
        }
        match (self.filters.get(&rel), self.idx.rel(rel)) {
            (Some(f), Some(r)) => f.keys.contains(&args[..r.key_len]),
            _ => true,
        }
    }

    fn extend_adom(&self, out: &mut BTreeSet<Cst>) {
        for &rel in &self.visible {
            self.note_scan(rel);
            let Some(r) = self.idx.rel(rel) else { continue };
            for row in self.surviving_rows(rel, r) {
                out.extend(row.iter().copied());
            }
        }
    }

    fn key_len(&self, rel: RelName) -> Option<usize> {
        // Schema metadata, independent of visibility or filters; nothing
        // data-dependent is revealed, so nothing is logged.
        self.idx.rel(rel).map(|r| r.key_len)
    }

    fn columnar(&self, rel: RelName) -> Option<&ColumnarRelation> {
        if !self.visible.contains(&rel) || self.filters.contains_key(&rel) {
            // A filtered view cannot hand out whole columns: they would
            // include rows of filtered-out blocks.
            return None;
        }
        let r = self.idx.rel(rel)?;
        self.note_scan(rel);
        Some(r.columnar())
    }
}

impl fmt::Debug for InstanceView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "InstanceView(visible {:?}, {} filtered, {} rows)",
            self.visible,
            self.filters.len(),
            self.len()
        )
    }
}

/// The Lemma 45 injective renaming `f` with **recycled** constants: a value
/// `a` expected to be the constant `c` becomes the generic constant `b`
/// when `a = c`, and otherwise a constant determined (injectively, and
/// stably across calls) by the pair `(a, expected term)`.
///
/// The interpretive pipeline used to mint `Cst::fresh` symbols on every
/// `answer()` call, growing the process-global interner without bound on a
/// long-lived engine; the table memoizes the mapping so repeated
/// evaluations reuse the same invented constants. Clones share the table.
#[derive(Clone)]
pub struct RenameTable {
    b: Cst,
    map: Arc<Mutex<BTreeMap<(Cst, Term), Cst>>>,
}

impl RenameTable {
    /// A table renaming expected values to the generic constant `b`.
    pub fn new(b: Cst) -> RenameTable {
        RenameTable {
            b,
            map: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// The generic constant.
    pub fn generic(&self) -> Cst {
        self.b
    }

    /// Renames `value` at a position whose `expected` term is already
    /// θ-applied (variables bound by the block fact are constants here).
    pub fn rename(&self, value: Cst, expected: Term) -> Cst {
        if let Term::Cst(c) = expected {
            if value == c {
                return self.b;
            }
        }
        *self
            .map
            .lock()
            .entry((value, expected))
            .or_insert_with(|| Cst::fresh("r"))
    }

    /// The number of memoized (recycled) renamed constants.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Whether no renamed constant has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for RenameTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RenameTable(b = {}, {} recycled)", self.b, self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

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

    fn r() -> RelName {
        RelName::new("R")
    }

    #[test]
    fn full_view_sees_everything() {
        let db = db();
        let v = InstanceView::new(&db);
        assert_eq!(v.len(), 4);
        assert!(v.contains_row(r(), &[Cst::new("a"), Cst::new("1")]));
        assert_eq!(v.blocks(r()).len(), 2);
        assert_eq!(v.block_rows(r(), &[Cst::new("a")]).len(), 2);
        let mut adom = BTreeSet::new();
        v.extend_adom(&mut adom);
        assert_eq!(&adom, db.adom());
    }

    #[test]
    fn restriction_hides_relations() {
        let db = db();
        let v = InstanceView::new(&db).hide(r());
        assert_eq!(v.len(), 1);
        assert!(!v.contains_row(r(), &[Cst::new("a"), Cst::new("1")]));
        assert!(v.blocks(r()).is_empty());
        assert!(!v.block_nonempty(r(), &[Cst::new("a")]));
        let mut adom = BTreeSet::new();
        v.extend_adom(&mut adom);
        assert!(!adom.contains(&Cst::new("a")));
        assert!(adom.contains(&Cst::new("x")));
    }

    #[test]
    fn block_filter_drops_blocks_not_rows() {
        let db = db();
        let keep: HashSet<Box<[Cst]>> = [vec![Cst::new("a")].into_boxed_slice()].into();
        let v = InstanceView::new(&db).with_block_filter(r(), keep);
        assert_eq!(v.len(), 3); // 2 R(a,·) + 1 S
        assert!(v.contains_row(r(), &[Cst::new("a"), Cst::new("2")]));
        assert!(!v.contains_row(r(), &[Cst::new("b"), Cst::new("1")]));
        assert_eq!(v.blocks(r()).len(), 1);
        assert!(v.block_nonempty(r(), &[Cst::new("a")]));
        assert!(!v.block_nonempty(r(), &[Cst::new("b")]));
        assert!(v.block_rows(r(), &[Cst::new("b")]).is_empty());
    }

    #[test]
    fn guarded_candidates_respect_filters() {
        use crate::binding::{SlotTerm, Trail};
        let db = db();
        let keep: HashSet<Box<[Cst]>> = [vec![Cst::new("b")].into_boxed_slice()].into();
        let v = InstanceView::new(&db).with_block_filter(r(), keep);
        let atom = CompiledAtom {
            rel: r(),
            terms: vec![SlotTerm::Slot(0), SlotTerm::Slot(1)],
        };
        let b = Binding::new(2);
        let mut scratch = Vec::new();
        // Unground key: the scan sees only the surviving block's row.
        let cands = FactSource::guarded_candidates(&v, &atom, &b, &mut scratch);
        assert_eq!(cands.len(), 1);
        // Ground key probes: surviving vs filtered block.
        let ground = CompiledAtom {
            rel: r(),
            terms: vec![SlotTerm::Cst(Cst::new("b")), SlotTerm::Slot(1)],
        };
        let cands = FactSource::guarded_candidates(&v, &ground, &b, &mut scratch);
        assert_eq!(cands.len(), 1);
        let filtered = CompiledAtom {
            rel: r(),
            terms: vec![SlotTerm::Cst(Cst::new("a")), SlotTerm::Slot(1)],
        };
        let cands = FactSource::guarded_candidates(&v, &filtered, &b, &mut scratch);
        assert!(cands.is_empty());
        // A row from the survivors actually unifies.
        let mut bind = Binding::new(2);
        let mut trail = Trail::new();
        let cands = FactSource::guarded_candidates(&v, &atom, &bind.clone(), &mut scratch);
        let row = cands.iter().next().unwrap();
        assert!(bind.unify_row(&atom.terms, row, &mut trail));
        assert_eq!(bind.get(0), Some(Cst::new("b")));
    }

    #[test]
    fn views_are_shareable_across_threads() {
        // The borrow-only FactSource impls must stay usable from worker
        // threads: a view (and the index it borrows) is Send + Sync.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<InstanceView<'_>>();
        assert_send_sync::<InstanceIndex>();
        assert_send_sync::<Instance>();
        assert_send_sync::<RenameTable>();
    }

    #[test]
    fn rename_table_recycles() {
        let table = RenameTable::new(Cst::new("βgen"));
        let expect_c = Term::cst("c");
        assert_eq!(table.rename(Cst::new("c"), expect_c), Cst::new("βgen"));
        let r1 = table.rename(Cst::new("d"), expect_c);
        let r2 = table.rename(Cst::new("d"), expect_c);
        assert_eq!(r1, r2, "same pair must reuse the invented constant");
        let r3 = table.rename(Cst::new("d"), Term::var("y"));
        assert_ne!(r1, r3, "per-position injectivity");
        assert_eq!(table.len(), 2);
        // Clones share the memo.
        let clone = table.clone();
        assert_eq!(clone.rename(Cst::new("d"), expect_c), r1);
        assert_eq!(clone.len(), 2);
    }

    #[test]
    fn renamed_rows_follow_spec() {
        let db = db();
        let v = InstanceView::new(&db);
        let table = RenameTable::new(Cst::new("βgen"));
        // Spec: position 1 expects constant a, position 2 is variable y.
        let spec = [Term::cst("a"), Term::var("y")];
        let rows: BTreeSet<Vec<Cst>> = v.renamed_rows(r(), &spec, &table).collect();
        assert_eq!(rows.len(), 3);
        let y1 = table.rename(Cst::new("1"), Term::var("y"));
        assert!(rows.contains(&vec![Cst::new("βgen"), y1]));
        let rb = table.rename(Cst::new("b"), Term::cst("a"));
        assert!(rows.contains(&vec![rb, y1]));
        // Hidden relation renames to nothing.
        let hidden = InstanceView::new(&db).hide(r());
        assert_eq!(hidden.renamed_rows(r(), &spec, &table).count(), 0);
    }
}
