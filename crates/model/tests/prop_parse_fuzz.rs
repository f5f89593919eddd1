//! Parser fuzzing: arbitrary strings, and a soup of the text syntax's own
//! tokens, fed to `parse_schema`, `parse_query`, `parse_fks` and
//! `parse_instance`. Every call must return `Ok` or a typed [`ModelError`]
//! — never panic. A panic is caught and reported as a failing case, so its
//! seed persists to `proptest-regressions/prop_parse_fuzz.txt` and replays
//! before fresh cases on every later run.

use cqa_model::parser::{parse_fks, parse_instance, parse_query, parse_schema};
use cqa_model::{ModelError, Schema};
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
