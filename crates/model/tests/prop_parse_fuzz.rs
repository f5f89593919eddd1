//! Parser fuzzing: arbitrary strings, and a soup of the text syntax's own
//! tokens, fed to `parse_schema`, `parse_query`, `parse_fks` and
//! `parse_instance`. Every call must return `Ok` or a typed [`ModelError`]
//! — never panic. A panic is caught and reported as a failing case, so its
//! seed persists to `proptest-regressions/prop_parse_fuzz.txt` and replays
//! before fresh cases on every later run.
//!
//! A differential property pins the loader: `parse_instance` writes rows
//! straight into the store, and must equal folding `parse_fact` and
//! `Instance::insert` over the same facts — the same instance, or an error
//! of the same variant.

use cqa_model::parser::{parse_fact, parse_fks, parse_instance, parse_query, parse_schema};
use cqa_model::{Instance, ModelError, Schema};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Fragments of the grammar plus its reserved characters (`§`, `#`), so
/// generated text reaches past the lexer into the item parsers.
const TOKENS: [&str; 30] = [
    "R",
    "S",
    "N",
    "O",
    "x",
    "y",
    "'c'",
    "[",
    "]",
    "(",
    ")",
    ",",
    ";",
    "'",
    "->",
    "→",
    "-",
    "--",
    "§",
    "#",
    "⊥",
    "_",
    ".",
    " ",
    "\n",
    "R[2,1]",
    "S[1,1]",
    "R(a,b)",
    "N[2] -> O",
    "R[1] -> S",
];

/// The soup: tokens, digits and lowercase letters glued in random order.
fn token_soup() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        (0..TOKENS.len()).prop_map(|i| TOKENS[i].to_string()),
        ('0'..':').prop_map(String::from),
        ('a'..'{').prop_map(String::from),
    ];
    proptest::collection::vec(piece, 0..32).prop_map(|pieces| pieces.concat())
}

/// Arbitrary text, weighted toward ASCII but reaching multi-byte code
/// points (`§`, `→`, `⊥` and their neighbours).
fn arbitrary_text() -> impl Strategy<Value = String> {
    let ch = prop_oneof![3 => '\0'..'\u{80}', 1 => '\u{80}'..'\u{2400}'];
    proptest::collection::vec(ch, 0..48).prop_map(|chars| chars.into_iter().collect())
}

/// Runs one parser call, failing the case if it panics or returns an error
/// without a message.
fn no_panic<T>(
    parser: &str,
    input: &str,
    call: impl FnOnce() -> Result<T, ModelError>,
) -> Result<Option<T>, TestCaseError> {
    match catch_unwind(AssertUnwindSafe(call)) {
        Ok(Ok(value)) => Ok(Some(value)),
        Ok(Err(e)) => {
            prop_assert!(
                !e.to_string().is_empty(),
                "{parser}: empty error on {input:?}"
            );
            Ok(None)
        }
        Err(_) => Err(TestCaseError::fail(format!(
            "{parser} panicked on {input:?}"
        ))),
    }
}

/// Feeds `text` to every parser: as a schema, then as a query, foreign
/// keys and an instance over a fixed schema and over the parsed one.
fn parse_everywhere(text: &str) -> Result<(), TestCaseError> {
    let fixed: Arc<Schema> = Arc::new(parse_schema("R[2,1] S[1,1] N[2,1] O[1,1]").unwrap());
    let parsed = no_panic("parse_schema", text, || parse_schema(text))?.map(Arc::new);
    for schema in std::iter::once(&fixed).chain(parsed.as_ref()) {
        no_panic("parse_query", text, || parse_query(schema, text))?;
        no_panic("parse_fks", text, || parse_fks(schema, text))?;
        no_panic("parse_instance", text, || parse_instance(schema, text))?;
    }
    Ok(())
}

/// The loader's schema: the differential property's facts range over it.
const LOADER_SCHEMA: &str = "R[2,1] S[1,1] T[3,2]";

/// Constants, some needing quotes (a space, a reserved `#`).
const VALUES: [&str; 6] = ["a", "b", "1", "22", "c d", "e#1"];

/// One fact of the differential property: a relation name (index 3 is
/// undeclared), its arguments as value indices (so any arity, including a
/// wrong one), and whether to quote each.
type FactSpec = (usize, Vec<(usize, usize)>);

fn fact_spec() -> impl Strategy<Value = FactSpec> {
    (0..4usize, proptest::collection::vec((0..VALUES.len(), 0..2usize), 0..4))
}

/// Renders a fact; an unquoted `c d` or `e#1` is itself malformed.
fn render(&(rel, ref args): &FactSpec) -> String {
    let args: Vec<String> = args
        .iter()
        .map(|&(v, quoted)| {
            if quoted == 1 {
                format!("'{}'", VALUES[v])
            } else {
                VALUES[v].to_string()
            }
        })
        .collect();
    format!("{}({})", ["R", "S", "T", "Zz"][rel], args.join(", "))
}

/// A malformed last item that would swallow whatever followed it: an
/// unterminated quote or a missing `)`.
const TAILS: [&str; 4] = ["", "R('a, b)", "R(a, b", "S("];

/// The items of an instance text: the facts (each twice when `dup`, so
/// duplicates occur), then the tail.
fn loader_items(facts: &[FactSpec], dup: usize, tail: usize) -> Vec<String> {
    let mut items: Vec<String> = Vec::new();
    for f in facts {
        items.extend(std::iter::repeat_n(render(f), dup + 1));
    }
    if tail > 0 {
        items.push(TAILS[tail].to_string());
    }
    items
}

/// Joins the items with assorted separators, `seps` choosing each.
fn join(items: &[String], seps: &[usize]) -> String {
    const SEPS: [&str; 5] = [" ", "; ", ", ", "\n", " -- note\n"];
    let mut text = String::new();
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            text.push_str(SEPS[seps.get(i).copied().unwrap_or(0) % SEPS.len()]);
        }
        text.push_str(item);
    }
    text
}

/// Checks `parse_instance` on `text` against the fold over `items`; returns
/// the shared outcome.
fn loader_agrees(text: &str, items: &[String]) -> Result<Result<usize, ModelError>, TestCaseError> {
    let schema = Arc::new(parse_schema(LOADER_SCHEMA).unwrap());
    match (parse_instance(&schema, text), fold_facts(&schema, items)) {
        (Ok(got), Ok(want)) => {
            prop_assert!(got == want, "{} != {} on {:?}", got, want, text);
            prop_assert_eq!(got.facts().collect::<Vec<_>>(), want.facts().collect::<Vec<_>>());
            Ok(Ok(got.len()))
        }
        (Err(got), Err(want)) => {
            prop_assert_eq!(
                std::mem::discriminant(&got),
                std::mem::discriminant(&want),
                "{} vs {} on {:?}",
                got,
                want,
                text
            );
            Ok(Err(got))
        }
        (got, want) => Err(TestCaseError::fail(format!(
            "parse_instance gave {:?} but the fold {:?} on {text:?}",
            got.map(|d| d.len()),
            want.map(|d| d.len())
        ))),
    }
}

/// A loader outcome as a short label.
fn label(outcome: &Result<usize, ModelError>) -> String {
    match outcome {
        Ok(n) => format!("{n} facts"),
        Err(ModelError::UnknownRelation(_)) => "unknown relation".into(),
        Err(ModelError::ArityMismatch { .. }) => "arity mismatch".into(),
        Err(ModelError::Parse { .. }) => "parse error".into(),
        Err(other) => format!("{other:?}"),
    }
}

#[test]
fn loader_agrees_on_each_malformed_shape() {
    let cases: [(&[&str], &str); 8] = [
        (&["R(a, b)", "R(a, b)", "S(b)"], "2 facts"),
        (&["R(a, b)", "Zz(a)"], "unknown relation"),
        (&["R(a)"], "arity mismatch"),
        (&["S()"], "arity mismatch"),
        (&["S('e#1')"], "parse error"),
        (&["S(e#1)"], "parse error"),
        (&["S(b)", "R('a, b)"], "parse error"),
        (&["S(b)", "R(a, b"], "parse error"),
    ];
    for (items, want) in cases {
        let items: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        let outcome = loader_agrees(&items.join("; "), &items).unwrap();
        assert_eq!(label(&outcome), want, "{items:?}");
    }
}

/// The reference loader: `parse_fact` then `Instance::insert`, item by
/// item, stopping at the first error.
fn fold_facts(schema: &Arc<Schema>, items: &[String]) -> Result<Instance, ModelError> {
    let mut db = Instance::new(schema.clone());
    for item in items {
        db.insert(parse_fact(item)?)?;
    }
    Ok(db)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 512,
        failure_persistence: Some(FileFailurePersistence::WithSource("proptest-regressions")),
        ..ProptestConfig::default()
    })]

    #[test]
    fn parse_instance_equals_folding_parse_fact_and_insert(
        facts in proptest::collection::vec(fact_spec(), 0..8),
        dup in 0..2usize,
        seps in proptest::collection::vec(0..5usize, 0..24),
        tail in 0..TAILS.len(),
    ) {
        let items = loader_items(&facts, dup, tail);
        let _outcome = loader_agrees(&join(&items, &seps), &items)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 512,
        failure_persistence: Some(FileFailurePersistence::WithSource("proptest-regressions")),
        ..ProptestConfig::default()
    })]

    #[test]
    fn parsers_never_panic_on_arbitrary_text(text in arbitrary_text()) {
        parse_everywhere(&text)?;
    }

    #[test]
    fn parsers_never_panic_on_token_soup(text in token_soup()) {
        parse_everywhere(&text)?;
    }
}
