//! Property-based tests for the repair machinery: the oracle's PK-only path
//! agrees with direct repair enumeration, chases terminate and repair, and
//! ⊕-repair verification accepts exactly the enumerated PK repairs when
//! `FK = ∅`.

use cqa::prelude::*;
use cqa_repair::{chase_fresh, is_delta_repair, pk_certain, pk_repairs, SearchLimits};
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Arc::new(cqa::model::parser::parse_schema("R[2,1] S[2,1]").unwrap())
}

prop_compose! {
    fn arb_db(max: usize)(rows in proptest::collection::vec((0..2usize, 0..4u8, 0..4u8), 0..max)) -> Instance {
        let mut db = Instance::new(schema());
        let name = |v: u8| ["a", "b", "c", "d"][v as usize];
        for (rel, u, v) in rows {
            let r = if rel == 0 { "R" } else { "S" };
            db.insert_named(r, &[name(u), name(v)]).unwrap();
        }
        db
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        failure_persistence: Some(FileFailurePersistence::WithSource("proptest-regressions")),
        ..ProptestConfig::default()
    })]

    #[test]
    fn oracle_pk_path_equals_enumeration(db in arb_db(8)) {
        let q = cqa::model::parser::parse_query(&schema(), "R(x,y), S(y,z)").unwrap();
        let fks = FkSet::empty(schema());
        let oracle = CertaintyOracle::new();
        let outcome = oracle.is_certain(&db, &q, &fks);
        prop_assert_eq!(outcome.as_bool(), Some(pk_certain(&db, &q)));
        // The witness is the first repair, in enumeration order, that fails q.
        let first_failing = pk_repairs(&db)
            .into_iter()
            .find(|r| !cqa::model::satisfies(r, &q));
        match outcome {
            OracleOutcome::NotCertain(witness) => prop_assert_eq!(Some(*witness), first_failing),
            _ => prop_assert!(first_failing.is_none()),
        }
    }

    #[test]
    fn pk_repairs_pass_delta_verification_and_others_fail(db in arb_db(6)) {
        let fks = FkSet::empty(schema());
        let limits = SearchLimits::default();
        for r in pk_repairs(&db) {
            prop_assert_eq!(is_delta_repair(&db, &r, &fks, &limits), Some(true));
            // dropping any fact from a repair makes it non-maximal
            if let Some(f) = r.facts().next() {
                let mut smaller = r.clone();
                smaller.remove(&f).unwrap();
                prop_assert_eq!(is_delta_repair(&db, &smaller, &fks, &limits), Some(false));
            }
        }
    }

    #[test]
    fn chase_fixes_all_dangling_facts(db in arb_db(8)) {
        let fks = FkSet::new(
            schema(),
            vec![ForeignKey::from_names("R", 2, "S")],
        ).unwrap();
        if let Ok((chased, inserted)) = chase_fresh(&db, &fks, 32) {
            prop_assert!(chased.satisfies_fks(&fks));
            prop_assert!(db.subset_of(&chased));
            // Each inserted fact repairs a previously dangling value.
            for f in &inserted {
                prop_assert_eq!(f.rel, RelName::new("S"));
            }
            // Chase of a chased instance inserts nothing.
            let (again, more) = chase_fresh(&chased, &fks, 32).unwrap();
            prop_assert!(more.is_empty());
            prop_assert_eq!(again, chased);
        }
    }

    #[test]
    fn certainty_monotone_under_oracle_definite_answers(db in arb_db(6)) {
        // Sanity property: if the oracle says certain, then the (unique)
        // query embedding exists in every enumerated PK repair.
        let q = cqa::model::parser::parse_query(&schema(), "R(x,y), S(y,z)").unwrap();
        let fks = FkSet::empty(schema());
        if CertaintyOracle::new().is_certain(&db, &q, &fks).is_certain() {
            for r in pk_repairs(&db) {
                prop_assert!(cqa::model::satisfies(&r, &q));
            }
        }
    }

    #[test]
    fn falsifying_witness_is_a_real_repair(db in arb_db(6)) {
        let q = cqa::model::parser::parse_query(&schema(), "R(x,y), S(y,z)").unwrap();
        let fks = FkSet::new(
            schema(),
            vec![ForeignKey::from_names("R", 2, "S")],
        ).unwrap();
        let oracle = CertaintyOracle::new();
        if let OracleOutcome::NotCertain(witness) = oracle.is_certain(&db, &q, &fks) {
            prop_assert!(witness.is_consistent(&fks));
            prop_assert!(!cqa::model::satisfies(&witness, &q));
            prop_assert_eq!(
                is_delta_repair(&db, &witness, &fks, &SearchLimits::default()),
                Some(true)
            );
        }
    }
}
