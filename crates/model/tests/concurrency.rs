//! Concurrency stress tests for the lazily built domains of an [`Instance`]:
//! `certain_answers_with` shards candidate tuples over one shared
//! `&Instance`, so its workers may all take the *first* look at a fresh
//! instance's active domain simultaneously. The `OnceLock` behind
//! `adom()`/`key_consts()` must be safe (and stable) under a concurrent
//! first build, and the store-backed read paths (`guarded_candidates`,
//! `contains`, `is_orphan_const`) must agree with a sequentially warmed twin.

use cqa_model::{
    Binding, CompiledAtom, Cst, FactSource, Instance, RelName, SlotTerm,
};
use cqa_model::parser::parse_schema;
use std::collections::BTreeSet;
use std::sync::Arc;

const THREADS: usize = 8;
const ROUNDS: usize = 32;

fn fresh_db(round: usize) -> Instance {
    let schema = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
    let mut db = Instance::new(schema);
    for i in 0..(8 + round % 5) {
        db.insert_named("R", &[&format!("k{}", i % 4), &format!("v{i}")])
            .unwrap();
        db.insert_named("S", &[&format!("v{i}"), &format!("w{i}")])
            .unwrap();
    }
    db
}

/// What a worker observes: the identity of the cached active domain plus
/// the results of the read paths around it.
type Observation = (usize, (usize, usize, usize, bool, bool));

fn probe(db: &Instance) -> Observation {
    let adom = db.adom();
    let identity = adom as *const _ as usize;
    let atom = CompiledAtom {
        rel: RelName::new("R"),
        terms: vec![SlotTerm::Cst(Cst::new("k1")), SlotTerm::Slot(0)],
    };
    let binding = Binding::new(1);
    let mut scratch = Vec::new();
    let idx = db.index();
    let block = idx
        .guarded_candidates(&atom, &binding, &mut scratch)
        .len();
    let member = idx.contains(RelName::new("S"), &[Cst::new("v0"), Cst::new("w0")]);
    let orphan = db.is_orphan_const(Cst::new("w0"));
    (identity, (block, adom.len(), db.key_consts().len(), member, orphan))
}

#[test]
fn first_build_of_the_domains_is_safe_under_racing_threads() {
    for round in 0..ROUNDS {
        let db = fresh_db(round);
        // A sequentially warmed twin provides the expected observations.
        let twin = db.clone();
        let (_, expected) = probe(&twin);

        // All threads race the *first* domain build of `db`.
        let observations: Vec<Observation> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS).map(|_| s.spawn(|| probe(&db))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let identities: BTreeSet<usize> = observations.iter().map(|o| o.0).collect();
        assert_eq!(
            identities.len(),
            1,
            "round {round}: racing threads must all see the same cached domain"
        );
        for (i, (_, seen)) in observations.iter().enumerate() {
            assert_eq!(*seen, expected, "round {round}, thread {i}");
        }
        // The winner's domains stayed installed: a later sequential call
        // observes the same cache, not a rebuild.
        assert!(identities.contains(&(db.adom() as *const _ as usize)));
    }
}

#[test]
fn racing_view_readers_agree_with_a_sequential_reader() {
    // Workers build per-thread views over one shared instance and read
    // through the FactSource surface while others are doing the same;
    // every observation must match the sequential one.
    let db = fresh_db(0);
    let view = cqa_model::InstanceView::new(&db);
    let atom = CompiledAtom {
        rel: RelName::new("R"),
        terms: vec![SlotTerm::Slot(0), SlotTerm::Slot(1)],
    };
    let binding = Binding::new(2);
    let mut scratch = Vec::new();
    let expected = FactSource::guarded_candidates(&view, &atom, &binding, &mut scratch).len();
    let mut expected_adom = BTreeSet::new();
    view.extend_adom(&mut expected_adom);

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                let local = view.clone();
                let binding = Binding::new(2);
                let mut scratch = Vec::new();
                assert_eq!(
                    FactSource::guarded_candidates(&local, &atom, &binding, &mut scratch)
                        .len(),
                    expected
                );
                let mut adom = BTreeSet::new();
                local.extend_adom(&mut adom);
                assert_eq!(adom, expected_adom);
            });
        }
    });
}
