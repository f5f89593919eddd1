//! Property tests for the columnar projection ([`ColumnarRelation`]):
//! along arbitrary insert/remove traces, the lazily cached projection
//! served by the instance index must equal a projection built from scratch
//! off the current rows (cache invalidation is exact — never stale, never
//! lossy), its column slices must reassemble exactly the live row set, and
//! its block directory must tile the sorted row order with contiguous,
//! key-ascending, non-overlapping ranges that agree with the blocks an
//! [`InstanceView`] serves.

use cqa_model::parser::parse_schema;
use cqa_model::{ColumnarRelation, Cst, Instance, InstanceView, RelName};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Small pool so blocks fill up, empty out, and refill along a trace.
const POOL: [&str; 4] = ["a", "b", "c", "d"];

/// One trace step: insert (`op == 0`) or remove a fact of `R[2,1]`
/// (`rel == 0`) or `S[3,2]`, drawn from the pool by index.
type Step = (usize, usize, usize, usize, usize);

fn names_of(&(_, rel, a, b, c): &Step) -> (&'static str, Vec<&'static str>) {
    let p = |i: usize| POOL[i % POOL.len()];
    if rel == 0 {
        ("R", vec![p(a), p(b)])
    } else {
        ("S", vec![p(a), p(b), p(c)])
    }
}

fn empty_db() -> Instance {
    Instance::new(Arc::new(parse_schema("R[2,1] S[3,2]").unwrap()))
}

/// The projection rebuilt from the instance's current facts, bypassing the
/// index cache entirely.
fn fresh_projection(db: &Instance, rel: &str, key_len: usize, arity: usize) -> ColumnarRelation {
    let rows: Vec<Box<[Cst]>> = db
        .facts()
        .filter(|f| f.rel == RelName::new(rel))
        .map(|f| f.args.clone())
        .collect();
    ColumnarRelation::from_rows(key_len, arity, &rows)
}

/// The structural laws of one projection: columns aligned and key-sorted,
/// blocks a contiguous ascending exact cover, every block range internally
/// consistent with its key, and probes agreeing with the directory.
fn check_invariants(c: &ColumnarRelation) -> Result<(), TestCaseError> {
    for p in 0..c.arity() {
        prop_assert_eq!(c.column(p).len(), c.n_rows(), "column {} aligned", p);
    }
    let mut covered = 0usize;
    let mut prev_key: Option<Vec<Cst>> = None;
    for (key, range) in c.blocks() {
        prop_assert_eq!(range.start, covered, "blocks tile contiguously");
        prop_assert!(!range.is_empty(), "no empty block survives");
        covered = range.end;
        for i in range.clone() {
            for (p, &k) in key.iter().enumerate() {
                prop_assert_eq!(c.value(p, i), k, "key prefix matches block key");
            }
        }
        if let Some(prev) = &prev_key {
            prop_assert!(prev.as_slice() < key, "ascending key order");
        }
        prop_assert_eq!(
            c.block_range(key),
            Some(range),
            "probe agrees with the directory"
        );
        prev_key = Some(key.to_vec());
    }
    prop_assert_eq!(covered, c.n_rows(), "blocks form an exact cover");
    Ok(())
}

/// Reassembles the projection's rows into a multiset for comparison with
/// the row store.
fn row_multiset(c: &ColumnarRelation) -> BTreeMap<Vec<Cst>, usize> {
    let mut out: BTreeMap<Vec<Cst>, usize> = BTreeMap::new();
    let mut buf = Vec::new();
    for i in 0..c.n_rows() {
        c.copy_row_into(i, &mut buf);
        *out.entry(buf.clone()).or_insert(0) += 1;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        failure_persistence: Some(FileFailurePersistence::WithSource("proptest-regressions")),
        ..ProptestConfig::default()
    })]

    /// After every step of a mutation trace, the cached columnar projection
    /// equals a from-scratch rebuild off the live rows (so invalidation is
    /// exact), satisfies the structural laws, and reassembles to exactly
    /// the instance's fact set.
    #[test]
    fn cached_projection_matches_rebuild_along_any_trace(
        steps in proptest::collection::vec(
            (0..2usize, 0..2usize, 0..POOL.len(), 0..POOL.len(), 0..POOL.len()),
            0..40),
    ) {
        let mut db = empty_db();
        // Force the caches into existence so every later step exercises
        // invalidate-and-rebuild, not first-touch laziness.
        let _ = db.index().columnar(RelName::new("R"));
        let _ = db.index().columnar(RelName::new("S"));
        for step in &steps {
            let (rel, args) = names_of(step);
            if step.0 == 0 {
                db.insert_named(rel, &args).unwrap();
            } else {
                let fact = cqa_model::Fact::from_names(rel, &args);
                db.remove(&fact).unwrap();
            }
            for (rel, key_len, arity) in [("R", 1, 2), ("S", 2, 3)] {
                let fresh = fresh_projection(&db, rel, key_len, arity);
                let Some(cached) = db.index().columnar(RelName::new(rel)) else {
                    // `None` only before the relation ever held a row.
                    prop_assert!(fresh.is_empty());
                    continue;
                };
                prop_assert_eq!(
                    cached,
                    &fresh,
                    "cached projection of {} stale after {:?}",
                    rel,
                    step
                );
                check_invariants(cached)?;
                let facts: BTreeMap<Vec<Cst>, usize> = {
                    let mut out: BTreeMap<Vec<Cst>, usize> = BTreeMap::new();
                    for f in db.facts().filter(|f| f.rel == RelName::new(rel)) {
                        *out.entry(f.args.to_vec()).or_insert(0) += 1;
                    }
                    out
                };
                prop_assert_eq!(row_multiset(cached), facts);
            }
        }
    }

    /// The view's blocks restated over column ranges: the view's block keys
    /// are exactly the projection's block directory, each exactly once, and
    /// each block's rows equal the projection's rows in that key's column
    /// range.
    #[test]
    fn view_blocks_tile_the_columnar_block_directory(
        picks in proptest::collection::vec(
            (Just(0usize), 0..2usize, 0..POOL.len(), 0..POOL.len(), 0..POOL.len()),
            0..24),
    ) {
        let mut db = empty_db();
        for step in &picks {
            let (rel, args) = names_of(step);
            db.insert_named(rel, &args).unwrap();
        }
        for rel in [RelName::new("R"), RelName::new("S")] {
            let Some(columnar) = db.index().columnar(rel).cloned() else {
                // The relation never held a row: no blocks to compare.
                prop_assert!(db.facts().all(|f| f.rel != rel));
                continue;
            };
            let view = InstanceView::new(&db);
            let mut seen: Vec<Vec<Cst>> = Vec::new();
            for (key, rows) in view.blocks(rel) {
                seen.push(key.to_vec());
                let range = columnar
                    .block_range(key)
                    .expect("every visible block is in the directory");
                let mut expected: Vec<Vec<Cst>> = range
                    .map(|i| {
                        let mut buf = Vec::new();
                        columnar.copy_row_into(i, &mut buf);
                        buf
                    })
                    .collect();
                let mut got: Vec<Vec<Cst>> = rows.iter().map(|r| r.to_vec()).collect();
                expected.sort();
                got.sort();
                prop_assert_eq!(got, expected, "block rows = column range rows");
            }
            seen.sort();
            let mut directory: Vec<Vec<Cst>> =
                columnar.blocks().map(|(k, _)| k.to_vec()).collect();
            directory.sort();
            prop_assert_eq!(
                seen,
                directory,
                "view blocks tile the block directory exactly once"
            );
        }
    }
}
