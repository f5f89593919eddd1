//! The ⊕-closeness preorder and exact ⊕-repair verification (paper §3.3).
//!
//! `r ⪯_db s` iff `db ⊕ r ⊆ db ⊕ s`. Equivalently: `r` keeps at least the
//! `db`-facts `s` keeps (`s ∩ db ⊆ r ∩ db`) and inserts at most the facts
//! `s` inserts (`r ∖ db ⊆ s ∖ db`). A ⊕-repair is a consistent instance that
//! is `≺_db`-minimal among consistent instances.
//!
//! **Finite verification.** Any instance `s ≺_db r` satisfies
//! `s ∖ db ⊆ r ∖ db` and `s ∩ db ⊇ r ∩ db`, so it lives inside the finite
//! universe `db ∪ r`. Minimality of a finite candidate is therefore exactly
//! decidable by enumerating: per `db`-block, either the fact `r` chose (it
//! must stay) or — for blocks `r` skipped — any single fact or none; plus any
//! subset of `r ∖ db`. [`is_delta_repair`] does precisely this.

use crate::limits::SearchLimits;
use cqa_model::{Delta, Fact, FkSet, Instance};

/// The mutation batch ([`cqa_model::Delta`]) that carries `db` to `target`:
/// removals of `db ∖ target` followed by insertions of `target ∖ db` — the
/// literal `⊕`-difference as an applicable edit script. Applying it with
/// [`Instance::apply`] turns `db` into (a content-equal copy of) `target`,
/// which is how a repair chosen by the oracle becomes the input of an
/// incremental re-answer session instead of a fresh solve.
pub fn delta_to(db: &Instance, target: &Instance) -> Delta {
    let mut delta = Delta::new();
    for f in db.facts().filter(|f| !target.contains(f)) {
        delta.remove(f);
    }
    for f in target.facts().filter(|f| !db.contains(f)) {
        delta.insert(f);
    }
    delta
}

/// `r ⪯_db s`: is `r` at least as ⊕-close to `db` as `s`?
pub fn closer_eq(db: &Instance, r: &Instance, s: &Instance) -> bool {
    let dr = db.symmetric_difference(r);
    let ds = db.symmetric_difference(s);
    dr.is_subset(&ds)
}

/// `r ≺_db s`: strictly ⊕-closer.
pub fn strictly_closer(db: &Instance, r: &Instance, s: &Instance) -> bool {
    let dr = db.symmetric_difference(r);
    let ds = db.symmetric_difference(s);
    dr.is_subset(&ds) && dr != ds
}

/// Exactly decides whether `r` is a ⊕-repair of `db` with respect to
/// `PK ∪ FK`. Returns `None` when the enumeration would exceed `limits`.
pub fn is_delta_repair(
    db: &Instance,
    r: &Instance,
    fks: &FkSet,
    limits: &SearchLimits,
) -> Option<bool> {
    if !r.is_consistent(fks) {
        return Some(false);
    }

    // Facts r inserted (outside db) and db-blocks r did not pick from.
    let inserted: Vec<Fact> = r.facts().filter(|f| !db.contains(f)).collect();
    let kept: Instance = r.intersection(db);

    let mut open_blocks: Vec<Vec<Fact>> = Vec::new();
    for rel in db.populated_relations() {
        for (key, facts) in db.blocks(rel) {
            let picked = kept.block(rel, &key);
            if picked.is_empty() {
                open_blocks.push(facts);
            }
        }
    }

    // Search space size: Π(|block|+1) × 2^|inserted|.
    let mut space: u64 = 1;
    for b in &open_blocks {
        space = space.saturating_mul(b.len() as u64 + 1);
    }
    space = space.saturating_mul(1u64.checked_shl(inserted.len() as u32).unwrap_or(u64::MAX));
    if space > limits.max_domination_checks {
        return None;
    }

    // Enumerate candidates s: kept-facts ∪ (choice per open block) ∪ (subset
    // of inserted). s ≺_db r iff s picks some open-block fact (more of db) or
    // drops some inserted fact — i.e. s ≠ r.
    let mut dominated = false;
    enumerate(
        &kept,
        &open_blocks,
        0,
        &inserted,
        &mut Vec::new(),
        fks,
        &mut dominated,
    );
    Some(!dominated)
}

fn enumerate(
    kept: &Instance,
    open_blocks: &[Vec<Fact>],
    block_idx: usize,
    inserted: &[Fact],
    extra_db_facts: &mut Vec<Fact>,
    fks: &FkSet,
    dominated: &mut bool,
) {
    if *dominated {
        return;
    }
    if block_idx == open_blocks.len() {
        // Choose subsets of inserted facts. Any candidate that differs from r
        // (extra db fact picked, or insert dropped) and is consistent
        // dominates r.
        let n = inserted.len();
        for mask in 0..(1u64 << n) {
            let drops_insert = mask != (1u64 << n) - 1;
            let adds_fact = !extra_db_facts.is_empty();
            if !drops_insert && !adds_fact {
                continue; // this candidate is r itself
            }
            let mut s = kept.clone();
            for f in extra_db_facts.iter() {
                s.insert(f.clone()).expect("db fact");
            }
            for (i, f) in inserted.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    s.insert(f.clone()).expect("insert fact");
                }
            }
            if s.is_consistent(fks) {
                *dominated = true;
                return;
            }
        }
        return;
    }
    // Option 1: keep skipping this block.
    enumerate(
        kept,
        open_blocks,
        block_idx + 1,
        inserted,
        extra_db_facts,
        fks,
        dominated,
    );
    // Option 2: pick one fact from it.
    for f in &open_blocks[block_idx] {
        extra_db_facts.push(f.clone());
        enumerate(
            kept,
            open_blocks,
            block_idx + 1,
            inserted,
            extra_db_facts,
            fks,
            dominated,
        );
        extra_db_facts.pop();
        if *dominated {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_model::parser::{parse_fks, parse_instance, parse_schema};
    use std::sync::Arc;

    #[test]
    fn delta_to_carries_db_onto_the_repair() {
        let s = Arc::new(parse_schema("R[2,1] S[2,1] T[1,1]").unwrap());
        let db = parse_instance(&s, "R(a,b) S(b,c)").unwrap();
        let repair = parse_instance(&s, "R(a,b) S(b,1) T(1)").unwrap();

        let delta = delta_to(&db, &repair);
        // |db ∖ r| = 1 (S(b,c)), |r ∖ db| = 2 (S(b,1), T(1)).
        assert_eq!(delta.len(), 3);

        // The delta names constants of `repair`, a separate parse.
        let mut patched = db.clone();
        patched.share_names(&repair);
        let effective = patched.apply(&delta).unwrap();
        assert_eq!(effective, 3);
        assert!(patched.symmetric_difference(&repair).is_empty());
        assert_eq!(patched.len(), repair.len());

        // The identity edit is empty, and applying it is a no-op.
        assert!(delta_to(&db, &db).is_empty());
    }

    #[test]
    fn preorder_basics() {
        let s = Arc::new(parse_schema("R[2,1]").unwrap());
        let db = parse_instance(&s, "R(a,1) R(a,2)").unwrap();
        let r1 = parse_instance(&s, "R(a,1)").unwrap();
        let r2 = parse_instance(&s, "").unwrap();
        assert!(closer_eq(&db, &r1, &r2));
        assert!(strictly_closer(&db, &r1, &r2));
        assert!(!closer_eq(&db, &r2, &r1));
        // Reflexivity, antisymmetric strictness.
        assert!(closer_eq(&db, &r1, &r1));
        assert!(!strictly_closer(&db, &r1, &r1));
    }

    #[test]
    fn paper_example_4_repairs() {
        // q = {R(x,y), S(y,z), T(z)}, FK = {R[2]→S, S[2]→T},
        // db = {R(a,b), S(b,c)}. The paper lists three ⊕-repairs:
        //   r1 = {}, r2 = {R(a,b), S(b,1), T(1)}, r3 = {R(a,b), S(b,c), T(c)}.
        let s = Arc::new(parse_schema("R[2,1] S[2,1] T[1,1]").unwrap());
        let fks = parse_fks(&s, "R[2] -> S, S[2] -> T").unwrap();
        let db = parse_instance(&s, "R(a,b) S(b,c)").unwrap();
        let limits = SearchLimits::default();

        let r1 = parse_instance(&s, "").unwrap();
        let r2 = parse_instance(&s, "R(a,b) S(b,1) T(1)").unwrap();
        let r3 = parse_instance(&s, "R(a,b) S(b,c) T(c)").unwrap();
        assert_eq!(is_delta_repair(&db, &r1, &fks, &limits), Some(true));
        assert_eq!(is_delta_repair(&db, &r2, &fks, &limits), Some(true));
        assert_eq!(is_delta_repair(&db, &r3, &fks, &limits), Some(true));

        // r2 and r3 are ⪯_db-incomparable (the paper's point).
        assert!(!closer_eq(&db, &r2, &r3));
        assert!(!closer_eq(&db, &r3, &r2));

        // {R(a,b)} alone is not even consistent; {S(b,c)} is not a repair
        // because r3 keeps more of db with fewer deletions... in fact
        // {S(b,c), T(c)} is dominated by r3.
        let not_consistent = parse_instance(&s, "R(a,b)").unwrap();
        assert_eq!(
            is_delta_repair(&db, &not_consistent, &fks, &limits),
            Some(false)
        );
        let dominated = parse_instance(&s, "S(b,c) T(c)").unwrap();
        assert_eq!(is_delta_repair(&db, &dominated, &fks, &limits), Some(false));
    }

    #[test]
    fn pk_only_repair_check() {
        let s = Arc::new(parse_schema("R[2,1]").unwrap());
        let fks = cqa_model::FkSet::empty(s.clone());
        let db = parse_instance(&s, "R(a,1) R(a,2) R(b,1)").unwrap();
        let limits = SearchLimits::default();

        let good = parse_instance(&s, "R(a,1) R(b,1)").unwrap();
        assert_eq!(is_delta_repair(&db, &good, &fks, &limits), Some(true));

        // Dropping a whole block is not minimal for PK-only.
        let partial = parse_instance(&s, "R(a,1)").unwrap();
        assert_eq!(is_delta_repair(&db, &partial, &fks, &limits), Some(false));

        // Keeping both facts of a block is inconsistent.
        let bad = parse_instance(&s, "R(a,1) R(a,2) R(b,1)").unwrap();
        assert_eq!(is_delta_repair(&db, &bad, &fks, &limits), Some(false));
    }

    #[test]
    fn inserting_unforced_facts_is_not_minimal() {
        let s = Arc::new(parse_schema("R[2,1] S[1,1]").unwrap());
        let fks = cqa_model::FkSet::empty(s.clone());
        let db = parse_instance(&s, "R(a,1)").unwrap();
        let padded = parse_instance(&s, "R(a,1) S(zz)").unwrap();
        assert_eq!(
            is_delta_repair(&db, &padded, &fks, &SearchLimits::default()),
            Some(false)
        );
    }

    #[test]
    fn limits_respected() {
        let s = Arc::new(parse_schema("R[2,1]").unwrap());
        let fks = cqa_model::FkSet::empty(s.clone());
        // 12 open blocks of 3 facts → 4^12 ≈ 1.6e7 candidates.
        let mut text = String::new();
        for i in 0..12 {
            for j in 0..3 {
                text.push_str(&format!("R(k{i},v{j}) "));
            }
        }
        let db = parse_instance(&s, &text).unwrap();
        let empty = parse_instance(&s, "").unwrap();
        let tight = SearchLimits {
            max_domination_checks: 1000,
            ..SearchLimits::default()
        };
        assert_eq!(is_delta_repair(&db, &empty, &fks, &tight), None);
    }
}
