//! Serve-protocol fuzzing: arbitrary strings, a soup of protocol
//! fragments, and well-formed requests with fuzzed field values, fed to
//! `Service::handle_line`. Every call must return one line that parses as
//! a JSON object with a boolean `ok` — never panic. A panic is caught and
//! reported as a failing case, so its seed persists to
//! `proptest-regressions/prop_serve_fuzz.txt` and replays before fresh
//! cases on every later run.
//!
//! The service admits at most 8 facts per request, so a hard-class
//! request with a budget keeps the exhaustive oracle small.

use cqa::prelude::ExecOptions;
use cqa::serve::{ServeConfig, Service};
use proptest::prelude::*;
use serde_json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Schema, query and FK texts of the five problem families a served mix
/// covers: nested Lemma 45 and §8 (FO), Proposition 16 and 17 (poly-time),
/// and the primary-key cycle (hard, budgeted oracle).
const FAMILIES: [(&str, &str, &str); 5] = [
    (
        "N[2,1] M[2,1] Q[1,1] P[1,1] O[1,1]",
        "N('c',y), M(y,w), Q(w), P(w), O(y)",
        "N[2] -> O, M[2] -> Q",
    ),
    ("N[2,1] O[1,1] P[1,1]", "N('c',y), O(y), P(y)", "N[2] -> O"),
    ("E[2,1] V[1,1]", "E(x,x), V(x)", "E[2] -> V"),
    ("N[3,1] O[1,1]", "N(x,'c',y), O(y)", "N[3] -> O"),
    ("R[2,1] S[2,1]", "R(x,y), S(y,x)", ""),
];

/// Facts over each family's relations, in [`FAMILIES`] order.
const FACTS: [[&str; 6]; 5] = [
    ["N(c,a)", "N(c,b)", "O(a)", "M(a,1)", "Q(1)", "P(1)"],
    ["N(c,a)", "N(c,b)", "N(d,a)", "O(a)", "P(a)", "P(b)"],
    ["E(a,a)", "E(a,b)", "E(b,a)", "E(c,c)", "V(a)", "V(b)"],
    [
        "N(a,c,1)", "N(a,d,2)", "N(b,c,2)", "N(b,d,1)", "O(1)", "O(2)",
    ],
    ["R(a,b)", "R(a,c)", "R(b,b)", "S(b,a)", "S(b,c)", "S(c,b)"],
];

/// Facts no family's schema accepts.
const BAD_FACTS: [&str; 2] = ["R(a", "Z(q)"];

/// Fact `i` for a request over family `f`: that family's facts for
/// `i < 10`, a malformed one above.
fn fact(f: usize, i: usize) -> &'static str {
    match i {
        0..=9 => FACTS[f][i % FACTS[f].len()],
        _ => BAD_FACTS[i % BAD_FACTS.len()],
    }
}

/// Field names, including the ignored legacy ones.
const FIELDS: [&str; 11] = [
    "op",
    "schema",
    "query",
    "fks",
    "db",
    "budget",
    "format",
    "evaluator",
    "materialized",
    "threads",
    "",
];

/// JSON values a field may carry: ops, formats, legacy values, and
/// malformed numbers and strings.
const VALUES: [&str; 30] = [
    r#""solve""#,
    r#""emit""#,
    r#""ping""#,
    r#""metrics""#,
    r#""shutdown""#,
    r#""frobnicate""#,
    r#""datalog""#,
    r#""sql""#,
    r#""prolog""#,
    r#""semijoin""#,
    "true",
    "false",
    "null",
    "0",
    "8",
    "100000",
    "-1",
    "1.5",
    "1e999",
    "-0",
    "18446744073709551616",
    "01",
    "1e",
    "[]",
    "{}",
    r#""""#,
    r#""\u00""#,
    r#""\ud800""#,
    r#""unterminated"#,
    r#""a\"b""#,
];

/// Structural JSON pieces for the soup.
const PUNCT: [&str; 9] = ["{", "}", "[", "]", ":", ",", "\"", "\\", " "];

fn quoted(s: &str) -> String {
    format!("\"{s}\"")
}

/// The soup: fragments of the protocol glued in random order.
fn fragment_soup() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        (0..PUNCT.len()).prop_map(|i| PUNCT[i].to_string()),
        (0..FIELDS.len()).prop_map(|i| quoted(FIELDS[i])),
        (0..VALUES.len()).prop_map(|i| VALUES[i].to_string()),
        (0..FAMILIES.len(), 0..3usize).prop_map(|(f, part)| {
            let (s, q, k) = FAMILIES[f];
            quoted([s, q, k][part])
        }),
        (0..FAMILIES.len(), 0..12usize).prop_map(|(f, i)| quoted(fact(f, i))),
    ];
    proptest::collection::vec(piece, 0..24).prop_map(|pieces| pieces.concat())
}

/// Optional request fields besides `budget`, including the ignored legacy
/// ones.
const EXTRA: [&str; 5] = ["format", "evaluator", "materialized", "threads", ""];

/// A well-formed JSON object: mostly a `solve` or `emit` of one family's
/// problem (sometimes schema, query and FKs from different families), a
/// database of up to 10 facts, a budget that is absent, large enough for
/// the oracle or fuzzed, and up to two more optional fields with fuzzed
/// values.
fn fuzzed_request() -> impl Strategy<Value = String> {
    let op = prop_oneof![3 => Just(0usize), 2 => Just(1usize), 1 => 0..VALUES.len()];
    let n = FAMILIES.len();
    let problem = prop_oneof![
        3 => (0..n).prop_map(|f| (f, f, f)),
        1 => (0..n, 0..n, 0..n),
    ];
    let budget = prop_oneof![
        Just(None),
        Just(Some("100000")),
        (0..VALUES.len()).prop_map(|v| Some(VALUES[v])),
    ];
    (
        op,
        problem,
        proptest::collection::vec(0..11usize, 0..10),
        budget,
        proptest::collection::vec((0..EXTRA.len(), 0..VALUES.len()), 0..2),
    )
        .prop_map(|(op, (s, q, k), facts, budget, extra)| {
            let db: Vec<&str> = facts.iter().map(|&i| fact(s, i)).collect();
            let mut fields = vec![
                format!(r#""op":{}"#, VALUES[op]),
                format!(r#""schema":{}"#, quoted(FAMILIES[s].0)),
                format!(r#""query":{}"#, quoted(FAMILIES[q].1)),
                format!(r#""fks":{}"#, quoted(FAMILIES[k].2)),
                format!(r#""db":{}"#, quoted(&db.join(" "))),
            ];
            fields.extend(budget.map(|b| format!(r#""budget":{b}"#)));
            for (f, v) in extra {
                fields.push(format!("{}:{}", quoted(EXTRA[f]), VALUES[v]));
            }
            format!("{{{}}}", fields.join(","))
        })
}

/// Arbitrary text, weighted toward ASCII but reaching multi-byte code
/// points.
fn arbitrary_text() -> impl Strategy<Value = String> {
    let ch = prop_oneof![3 => '\0'..'\u{80}', 1 => '\u{80}'..'\u{2400}'];
    proptest::collection::vec(ch, 0..64).prop_map(|chars| chars.into_iter().collect())
}

/// Feeds `line` to a fresh service and checks the reply's shape.
fn handled(line: &str) -> Result<(), TestCaseError> {
    let service = Service::new(ServeConfig {
        defaults: ExecOptions::sequential(),
        cache_capacity: 4,
        max_facts: Some(8),
    });
    let reply = catch_unwind(AssertUnwindSafe(|| service.handle_line(line)))
        .map_err(|_| TestCaseError::fail(format!("handle_line panicked on {line:?}")))?;
    prop_assert!(
        !reply.contains('\n'),
        "multi-line reply to {line:?}: {reply}"
    );
    let parsed = serde_json::from_str(&reply);
    prop_assert!(
        matches!(&parsed, Ok(Value::Object(_))),
        "reply to {line:?} is not a JSON object: {reply}"
    );
    let ok = parsed
        .ok()
        .and_then(|v| v.get("ok").and_then(Value::as_bool));
    prop_assert!(ok.is_some(), "reply to {line:?} has no boolean ok: {reply}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        failure_persistence: Some(FileFailurePersistence::WithSource("proptest-regressions")),
        ..ProptestConfig::default()
    })]

    #[test]
    fn service_never_panics_on_arbitrary_text(line in arbitrary_text()) {
        handled(&line)?;
    }

    #[test]
    fn service_never_panics_on_fragment_soup(line in fragment_soup()) {
        handled(&line)?;
    }

    #[test]
    fn service_never_panics_on_fuzzed_requests(line in fuzzed_request()) {
        handled(&line)?;
    }
}
