//! Leased names (see `cqa_model::intern`): the names a parsed instance
//! brings in live exactly as long as that instance or one derived from it,
//! under concurrent parsing, pinning and resolving.

use cqa_model::parser::{parse_instance, parse_schema};
use cqa_model::{Cst, Fact, Instance, Schema};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

fn schema() -> Arc<Schema> {
    Arc::new(parse_schema("R[2,1]").unwrap())
}

/// The instance's one fact's values.
fn only_row(db: &Instance) -> Vec<Cst> {
    db.facts().next().unwrap().args.to_vec()
}

#[test]
fn derived_instances_keep_the_names_alive() {
    let db = parse_instance(&schema(), "R(lease_kept_k, lease_kept_v)").unwrap();
    let row = only_row(&db);
    let mut derived = db.empty_like();
    derived.insert(Fact::new(db.facts().next().unwrap().rel, row.clone())).unwrap();
    let twin = db.clone();
    drop(db);
    assert_eq!(&*row[0].name(), "lease_kept_k");
    drop(derived);
    assert_eq!(&*row[1].name(), "lease_kept_v", "the clone still holds the names");
    drop(twin);
}

#[test]
fn interning_a_leased_name_pins_it() {
    let db = parse_instance(&schema(), "R(lease_pinned_k, lease_pinned_v)").unwrap();
    let row = only_row(&db);
    let pinned = Cst::new("lease_pinned_k");
    assert_eq!(pinned, row[0], "one name, one id");
    drop(db);
    assert_eq!(&*pinned.name(), "lease_pinned_k");
    // A later parse meets the pinned name and takes no lease on it.
    let again = parse_instance(&schema(), "R(lease_pinned_k, lease_pinned_w)").unwrap();
    assert_eq!(only_row(&again)[0], pinned);
}

/// Counts a thread out when dropped.
struct Finished<'a>(&'a AtomicUsize);

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn parses_and_pins_race_without_losing_a_name() {
    const PARSERS: usize = 3;
    const PINNERS: usize = 2;
    const ROUNDS: usize = 2_000;
    const POOL: usize = 24;
    let schema = schema();
    let start = Barrier::new(PARSERS + PINNERS);
    let (parsed, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
    thread::scope(|scope| {
        for p in 0..PARSERS {
            let (schema, start, parsed, finished) = (&schema, &start, &parsed, &finished);
            scope.spawn(move || {
                start.wait();
                // Counts this parser out even if it panics, so the pinners
                // stop.
                let _out = Finished(finished);
                for round in 0..ROUNDS {
                    // Names every other parser also leases, plus one of this
                    // parse's own.
                    let mut facts: Vec<String> = (0..6)
                        .map(|i| {
                            let k = (round * 7 + i * 5 + p) % POOL;
                            format!("R(race_{k}, race_{})", (k + 1) % POOL)
                        })
                        .collect();
                    facts.push(format!("R(own_{p}_{round}, race_{})", round % POOL));
                    let db = parse_instance(schema, &facts.join(" ")).unwrap();
                    facts.sort();
                    facts.dedup();
                    // Other parses drop their instances meanwhile.
                    thread::yield_now();
                    let mut shown: Vec<String> = db.facts().map(|f| f.to_string()).collect();
                    shown.sort();
                    assert_eq!(shown, facts, "parser {p}, round {round}");
                    drop(db);
                    parsed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for t in 0..PINNERS {
            let (start, parsed, finished) = (&start, &parsed, &finished);
            scope.spawn(move || {
                start.wait();
                // Pins every other name of the pool in step with the
                // parses, so each is leased by many of them first.
                while finished.load(Ordering::Relaxed) < PARSERS {
                    let done = parsed.load(Ordering::Relaxed);
                    let k = (done * POOL / (PARSERS * ROUNDS)) & !1;
                    let name = format!("race_{k}");
                    let c = Cst::new(&name);
                    assert_eq!(&*c.name(), name, "pinner {t}");
                    assert_eq!(Cst::new(&name), c);
                    thread::yield_now();
                }
            });
        }
    });
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "freed leased name")]
fn resolving_a_name_of_a_dropped_instance_panics() {
    let db = parse_instance(&schema(), "R(lease_dropped_k, lease_dropped_v)").unwrap();
    let row = only_row(&db);
    drop(db);
    row[0].name();
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "leased by another instance")]
fn inserting_a_value_another_instance_leases_panics() {
    let db = parse_instance(&schema(), "R(lease_other_k, lease_other_v)").unwrap();
    let fact = db.facts().next().unwrap();
    let mut unrelated = Instance::new(db.schema().clone());
    let _ = unrelated.insert(fact);
}
