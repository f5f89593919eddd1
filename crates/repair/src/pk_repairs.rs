//! Primary-key repairs: one fact per block (paper §3.1).
//!
//! With `FK = ∅`, the ⊕-repairs of `db` are exactly the maximal subsets with
//! no two key-equal facts — the products of choosing one fact from every
//! block. Insertions never occur (dropping an inserted fact always yields a
//! strictly ⊕-closer consistent instance), so enumeration is direct.

use cqa_model::{CompiledQuery, Fact, Instance, Query};
use std::ops::ControlFlow;

/// Enumerates all primary-key repairs of `db`.
///
/// The number of repairs is the product of block sizes, so this is for small
/// instances and ground-truth testing (which is its purpose).
pub fn pk_repairs(db: &Instance) -> Vec<Instance> {
    let mut out = Vec::new();
    visit_pk_repairs(db, |r| {
        out.push(r.clone());
        ControlFlow::<()>::Continue(())
    });
    out
}

/// Visits the primary-key repairs of `db` one at a time, in the order of
/// [`pk_repairs`], and stops at the first visit that breaks, returning its
/// value. One repair instance is kept and edited in place (insert the chosen
/// fact on the way down, remove it on the way back), so memory stays at one
/// instance however many repairs there are.
pub(crate) fn visit_pk_repairs<B>(
    db: &Instance,
    mut visit: impl FnMut(&Instance) -> ControlFlow<B>,
) -> Option<B> {
    let mut repair = Instance::new(db.schema().clone());
    walk(&blocks_of(db), &mut repair, &mut visit).break_value()
}

/// Every block of `db`, in canonical order (relations by name, blocks by
/// key, facts sorted).
pub(crate) fn blocks_of(db: &Instance) -> Vec<Vec<Fact>> {
    db.populated_relations()
        .flat_map(|rel| db.blocks(rel).into_iter().map(|(_, facts)| facts))
        .collect()
}

fn walk<B>(
    blocks: &[Vec<Fact>],
    repair: &mut Instance,
    visit: &mut impl FnMut(&Instance) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let Some((block, rest)) = blocks.split_first() else {
        return visit(repair);
    };
    for f in block {
        repair.insert(f.clone()).expect("db fact");
        let flow = walk(rest, repair, visit);
        repair.remove(f).expect("db fact");
        flow?;
    }
    ControlFlow::Continue(())
}

/// The number of primary-key repairs (the product of block sizes).
pub fn count_pk_repairs(db: &Instance) -> u128 {
    blocks_of(db)
        .iter()
        .fold(1, |n, b| n.saturating_mul(b.len() as u128))
}

/// `CERTAINTY(q)` by exhaustive repair enumeration: does every primary-key
/// repair of `db` satisfy `q`?
pub fn pk_certain(db: &Instance, q: &Query) -> bool {
    // Compile once; every enumerated repair reuses the compiled join.
    let cq = CompiledQuery::new(q);
    visit_pk_repairs(db, |r| {
        if cq.satisfies(r) {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    })
    .is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_model::parser::{parse_instance, parse_query, parse_schema};
    use std::sync::Arc;

    #[test]
    fn repair_count_is_block_product() {
        let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
        let db = parse_instance(&s, "R(a,1) R(a,2) R(b,1) S(x,1) S(x,2) S(x,3)").unwrap();
        assert_eq!(count_pk_repairs(&db), 2 * 3);
        let repairs = pk_repairs(&db);
        assert_eq!(repairs.len(), 6);
        for r in &repairs {
            assert!(r.satisfies_pk());
            assert!(r.subset_of(&db));
            assert_eq!(r.len(), 3); // one per block
        }
        // All repairs distinct.
        for i in 0..repairs.len() {
            for j in (i + 1)..repairs.len() {
                assert_ne!(repairs[i], repairs[j]);
            }
        }
    }

    #[test]
    fn certainty_by_enumeration() {
        let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
        let q = parse_query(&s, "R(x,y), S(y,z)").unwrap();
        // Certain: both choices of the R-block chain into S.
        let yes = parse_instance(&s, "R(a,b) R(a,c) S(b,1) S(c,2)").unwrap();
        assert!(pk_certain(&yes, &q));
        // Not certain: the repair picking R(a,c) fails.
        let no = parse_instance(&s, "R(a,b) R(a,c) S(b,1)").unwrap();
        assert!(!pk_certain(&no, &q));
    }

    #[test]
    fn consistent_db_single_repair() {
        let s = Arc::new(parse_schema("R[2,1]").unwrap());
        let db = parse_instance(&s, "R(a,1) R(b,2)").unwrap();
        let repairs = pk_repairs(&db);
        assert_eq!(repairs.len(), 1);
        assert_eq!(repairs[0], db);
    }

    #[test]
    fn empty_db() {
        let s = Arc::new(parse_schema("R[2,1]").unwrap());
        let db = Instance::new(s.clone());
        assert_eq!(pk_repairs(&db).len(), 1);
        let q = parse_query(&s, "R(x,y)").unwrap();
        assert!(!pk_certain(&db, &q));
    }
}
