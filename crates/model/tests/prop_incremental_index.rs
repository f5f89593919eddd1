//! Differential property tests for **incremental store maintenance**: on
//! randomized insert/remove traces (including remove-then-reinsert, blocks
//! emptied and refilled, and active-domain shrink), the in-place-patched
//! [`Instance`] store must stay canonically equal to a from-scratch
//! rebuild, its readers must keep the canonical (sorted) order of a
//! `BTreeSet<Fact>` model, an [`InstanceView`]'s unordered blocks must
//! tile the instance's sorted ones, the epoch must count exactly the
//! effective mutations, and batch [`Instance::apply`] must agree with
//! op-by-op application.

use cqa_model::{Cst, Delta, Fact, Instance, InstanceView};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Small pools so the same fact is inserted, removed and reinserted often,
/// blocks empty out, and constants leave the active domain entirely.
const POOL: [&str; 4] = ["a", "b", "c", "d"];

/// One trace step: insert (`op == 0`) or remove a fact of `R[2,1]`
/// (`rel == 0`) or `S[3,2]`, drawn from the pool by index. (The vendored
/// proptest has no `any::<bool>()`, so flags are `0..2usize`.)
type Step = (usize, usize, usize, usize, usize);

fn is_insert(&(op, ..): &Step) -> bool {
    op == 0
}

fn fact_of(&(_, rel, a, b, c): &Step) -> Fact {
    let p = |i: usize| POOL[i % POOL.len()];
    if rel == 0 {
        Fact::from_names("R", &[p(a), p(b)])
    } else {
        Fact::from_names("S", &[p(a), p(b), p(c)])
    }
}

fn empty_db() -> Instance {
    Instance::new(Arc::new(
        cqa_model::parser::parse_schema("R[2,1] S[3,2]").unwrap(),
    ))
}

/// Every reader of `db` agrees with the sorted fact set `model`: `facts()`
/// in sorted order, blocks key-ascending with sorted rows (and equal, once
/// sorted, to the unfiltered view's blocks), point probes and primary-key
/// checks.
fn check_against_model(db: &Instance, model: &BTreeSet<Fact>) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        db.facts().collect::<Vec<_>>(),
        model.iter().cloned().collect::<Vec<_>>()
    );
    let mut violations = Vec::new();
    for (rel, _) in db.schema().relations() {
        let of_rel: Vec<Fact> = model.iter().filter(|f| f.rel == rel).cloned().collect();
        prop_assert_eq!(db.count_of(rel), of_rel.len());
        let blocks = db.blocks(rel);
        prop_assert!(
            blocks.windows(2).all(|w| w[0].0 < w[1].0),
            "blocks key-ascending"
        );
        let flat: Vec<Fact> = blocks.iter().flat_map(|(_, b)| b.iter().cloned()).collect();
        prop_assert_eq!(flat, of_rel.clone(), "blocks hold sorted rows");
        for (key, block) in &blocks {
            prop_assert_eq!(&db.block(rel, key), block, "block() is sorted");
            prop_assert!(block.iter().all(|f| db.contains(f)));
            if block.len() > 1 {
                violations.push((rel, key.clone()));
            }
        }
        let view_blocks: BTreeMap<Box<[Cst]>, Vec<Fact>> = InstanceView::new(db)
            .blocks(rel)
            .into_iter()
            .map(|(key, rows)| {
                let mut facts: Vec<Fact> = rows.iter().map(|&row| Fact::new(rel, row)).collect();
                facts.sort_unstable();
                (key.into(), facts)
            })
            .collect();
        prop_assert_eq!(
            view_blocks.into_iter().collect::<Vec<_>>(),
            blocks,
            "view blocks tile the sorted blocks"
        );
    }
    prop_assert_eq!(db.satisfies_pk(), violations.is_empty());
    prop_assert_eq!(db.pk_violations(), violations);
    Ok(())
}

/// The orphan test by brute force: one occurrence in the whole instance,
/// at a non-key position.
fn orphan_by_scan(db: &Instance, c: Cst) -> bool {
    let mut hits = Vec::new();
    for f in db.facts() {
        let key_len = db.sig(f.rel).key_len;
        hits.extend(
            (0..f.arity())
                .filter(|&i| f.args[i] == c)
                .map(|i| i >= key_len),
        );
    }
    hits == [true]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        failure_persistence: Some(FileFailurePersistence::WithSource("proptest-regressions")),
        ..ProptestConfig::default()
    })]

    /// After every step of a mutation trace, the patched index equals a
    /// from-scratch rebuild (canonical equality: same active domain, key
    /// constants, rows and blocks — physical row order is free), and the
    /// epoch advances iff the step changed the instance.
    #[test]
    fn patched_index_matches_rebuild_along_any_trace(
        steps in proptest::collection::vec(
            (0..2usize, 0..2usize, 0..POOL.len(), 0..POOL.len(), 0..POOL.len()),
            0..40),
    ) {
        let mut db = empty_db();
        let mut model = BTreeSet::new();
        // Build the lazy domains up front so every later step exercises
        // the in-place patch path, not a lazy build.
        let _ = db.adom();
        for step in &steps {
            let fact = fact_of(step);
            let epoch_before = db.epoch();
            let effective = if is_insert(step) {
                model.insert(fact.clone());
                db.insert(fact.clone()).unwrap()
            } else {
                model.remove(&fact);
                db.remove(&fact).unwrap()
            };
            prop_assert_eq!(
                db.epoch(),
                epoch_before + u64::from(effective),
                "epoch must count exactly the effective mutations"
            );
            prop_assert!(
                *db.index() == db.rebuild_index(),
                "patched index diverged from rebuild after {:?}",
                step
            );
            prop_assert_eq!(db.contains(&fact), model.contains(&fact));
            check_against_model(&db, &model)?;
        }
        // The derived views agree with the rebuild too.
        let rebuilt = db.rebuild_index();
        prop_assert_eq!(db.adom(), rebuilt.adom_set());
        prop_assert_eq!(db.key_consts(), rebuilt.key_consts_set());
    }

    /// Batch `apply` ≡ op-by-op insert/remove: same final contents, same
    /// effective-mutation count, same (canonical) index.
    #[test]
    fn apply_agrees_with_op_by_op_application(
        prefix in proptest::collection::vec(
            (Just(0usize), 0..2usize, 0..POOL.len(), 0..POOL.len(), 0..POOL.len()),
            0..10),
        steps in proptest::collection::vec(
            (0..2usize, 0..2usize, 0..POOL.len(), 0..POOL.len(), 0..POOL.len()),
            0..20),
    ) {
        // A shared non-empty starting point so removes sometimes hit.
        let mut base = empty_db();
        for step in &prefix {
            base.insert(fact_of(step)).unwrap();
        }
        let _ = base.adom();

        let mut delta = Delta::new();
        for step in &steps {
            if is_insert(step) {
                delta.insert(fact_of(step));
            } else {
                delta.remove(fact_of(step));
            }
        }

        let mut batched = base.clone();
        let effective = batched.apply(&delta).unwrap();

        let mut one_by_one = base.clone();
        let mut expected_effective = 0;
        for step in &steps {
            let fact = fact_of(step);
            let changed = if is_insert(step) {
                one_by_one.insert(fact).unwrap()
            } else {
                one_by_one.remove(&fact).unwrap()
            };
            expected_effective += usize::from(changed);
        }

        prop_assert_eq!(effective, expected_effective);
        prop_assert_eq!(batched.len(), one_by_one.len());
        prop_assert_eq!(batched.epoch(), one_by_one.epoch());
        prop_assert!(
            batched.symmetric_difference(&one_by_one).is_empty(),
            "batched and op-by-op application disagree on contents"
        );
        prop_assert!(batched.rebuild_index() == one_by_one.rebuild_index());
        prop_assert!(*batched.index() == batched.rebuild_index());
    }

    /// A remove-then-reinsert round trip is contents-neutral but never
    /// epoch-neutral: the instance looks the same, the history does not.
    #[test]
    fn remove_reinsert_round_trip_is_content_neutral(
        prefix in proptest::collection::vec(
            (Just(0usize), 0..2usize, 0..POOL.len(), 0..POOL.len(), 0..POOL.len()),
            1..12),
        victim in 0..12usize,
    ) {
        let mut db = empty_db();
        for step in &prefix {
            db.insert(fact_of(step)).unwrap();
        }
        let _ = db.adom();
        let snapshot = db.rebuild_index();
        let epoch = db.epoch();

        let fact = fact_of(&prefix[victim % prefix.len()]);
        prop_assert!(db.remove(&fact).unwrap());
        prop_assert!(*db.index() == db.rebuild_index());
        prop_assert!(db.insert(fact).unwrap());

        prop_assert!(*db.index() == snapshot, "round trip must restore the index");
        prop_assert_eq!(db.epoch(), epoch + 2, "two effective mutations");
    }

    /// `is_orphan_const` (two counted-domain lookups) agrees with a scan of
    /// every fact, after every step of a mutation trace.
    #[test]
    fn orphan_check_matches_a_scan_along_any_trace(
        steps in proptest::collection::vec(
            (0..2usize, 0..2usize, 0..POOL.len(), 0..POOL.len(), 0..POOL.len()),
            0..40),
    ) {
        let mut db = empty_db();
        for step in &steps {
            let fact = fact_of(step);
            if is_insert(step) {
                db.insert(fact).unwrap();
            } else {
                db.remove(&fact).unwrap();
            }
            for c in POOL.map(Cst::new) {
                prop_assert_eq!(db.is_orphan_const(c), orphan_by_scan(&db, c), "{} in {}", c, db);
            }
        }
    }

    /// `Display` prints the canonical order: two insertion orders of one
    /// fact set print the same text.
    #[test]
    fn display_ignores_insertion_order(
        steps in proptest::collection::vec(
            (Just(0usize), 0..2usize, 0..POOL.len(), 0..POOL.len(), 0..POOL.len()),
            0..20),
    ) {
        let mut forward = empty_db();
        let mut backward = empty_db();
        for step in &steps {
            forward.insert(fact_of(step)).unwrap();
        }
        for step in steps.iter().rev() {
            backward.insert(fact_of(step)).unwrap();
        }
        prop_assert_eq!(forward.to_string(), backward.to_string());
    }
}

/// Non-key constants for the one-block traces: enough that a single block
/// of `R` outgrows several membership-table sizes (8 → 16 → … → 128 slots).
const WIDE: usize = 96;

fn one_block_fact(v: usize) -> Fact {
    Fact::from_names("R", &["k", &format!("v{v}")])
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        failure_persistence: Some(FileFailurePersistence::WithSource("proptest-regressions")),
        ..ProptestConfig::default()
    })]

    /// A long trace over `R[2,1]` facts that all share one key. The block
    /// grows through several membership-table resizes, and removes run the
    /// backward-shift deletion through long probe runs, also across the
    /// end of the slot array. Three steps in four insert, so the block
    /// settles near 72 rows.
    #[test]
    fn one_large_block_matches_the_model_along_any_trace(
        steps in proptest::collection::vec((0..4usize, 0..WIDE), 400..600),
    ) {
        let mut db = empty_db();
        let mut model = BTreeSet::new();
        let _ = db.adom();
        for (i, &(op, v)) in steps.iter().enumerate() {
            let fact = one_block_fact(v);
            let epoch_before = db.epoch();
            let (effective, changed) = if op < 3 {
                (db.insert(fact.clone()).unwrap(), model.insert(fact.clone()))
            } else {
                (db.remove(&fact).unwrap(), model.remove(&fact))
            };
            prop_assert_eq!(effective, changed, "step {} {:?}", i, fact);
            prop_assert_eq!(db.epoch(), epoch_before + u64::from(effective));
            prop_assert_eq!(db.len(), model.len());
            prop_assert_eq!(db.contains(&fact), model.contains(&fact));
            if i % 16 == 0 || i + 1 == steps.len() {
                for v in 0..WIDE {
                    let probe = one_block_fact(v);
                    prop_assert_eq!(db.contains(&probe), model.contains(&probe), "{}", probe);
                }
                prop_assert!(*db.index() == db.rebuild_index(), "diverged at step {}", i);
                check_against_model(&db, &model)?;
            }
        }
    }
}
