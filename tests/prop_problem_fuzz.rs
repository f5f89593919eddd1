//! `.problem` file fuzzing: arbitrary text, a soup of the format's own
//! lines and field fragments, and well-formed files with one field
//! fuzzed, fed to `parse_problem_file` and then down the path `cqa solve`
//! takes (schema, query, foreign keys, problem, solver, inline database,
//! verdict). Every step must return `Ok` or a typed error — never panic. A
//! panic is caught and reported as a failing case, so its seed persists to
//! `proptest-regressions/prop_problem_fuzz.txt` and replays before fresh
//! cases on every later run.

use cqa::prelude::*;
use cqa::problem_file::{parse_problem_file, ProblemFile};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Well-formed files: an FO problem, a poly-time one, and a hard one.
const FILES: [[&str; 4]; 3] = [
    [
        "N[2,1] O[1,1] P[1,1]",
        "N('c',y), O(y), P(y)",
        "N[2] -> O",
        "N(c,a) N(c,b) O(a) P(a)",
    ],
    [
        "E[2,1] V[1,1]",
        "E(x,x), V(x)",
        "E[2] -> V",
        "E(a,a) E(a,b) E(b,b) V(a)",
    ],
    [
        "N[3,1] O[2,1]",
        "N(x,'c',y), O(y,w)",
        "N[3] -> O",
        "N(k,c,a) O(a,3)",
    ],
];

/// The format's keys, with near misses.
const KEYS: [&str; 8] = [
    "schema:", "query:", "fks:", "db:", "#", "", "bogus:", "schema",
];

/// Field-syntax fragments, including the reserved characters.
const FRAGMENTS: [&str; 24] = [
    "N",
    "O",
    "x",
    "'c'",
    "[",
    "]",
    "(",
    ")",
    ",",
    ";",
    "->",
    "→",
    "2",
    "1",
    "0",
    "#",
    "§",
    "'",
    ":",
    " ",
    "N[2,1]",
    "N(c,a)",
    "N[2] -> O",
    "--",
];

/// Runs one step, failing the case if it panics.
fn no_panic<T>(step: &str, input: &str, call: impl FnOnce() -> T) -> Result<T, TestCaseError> {
    catch_unwind(AssertUnwindSafe(call))
        .map_err(|_| TestCaseError::fail(format!("{step} panicked on {input:?}")))
}

/// Parses `text` as a `.problem` file and follows it as far as it is
/// valid, the way `cqa solve --problem` does.
fn load_and_solve(text: &str) -> Result<(), TestCaseError> {
    let Ok(file) = no_panic("parse_problem_file", text, || parse_problem_file(text))? else {
        return Ok(());
    };
    no_panic("solve", text, || {
        let Ok(schema) = parse_schema(&file.schema) else {
            return;
        };
        let schema = Arc::new(schema);
        let (Ok(query), Ok(fks)) = (
            parse_query(&schema, &file.query),
            parse_fks(&schema, &file.fks),
        ) else {
            return;
        };
        let Ok(problem) = Problem::new(query, fks) else {
            return;
        };
        let _ = problem.to_string();
        let Ok(solver) = Solver::new(problem) else {
            return;
        };
        if let Some(Ok(db)) = file.db.as_deref().map(|db| parse_instance(&schema, db)) {
            let _ = solver.solve(&db).to_string();
        }
    })
}

/// Renders a file from its fields.
fn render(file: &ProblemFile) -> String {
    let mut text = format!(
        "schema: {}\nquery: {}\nfks: {}\n",
        file.schema, file.query, file.fks
    );
    if let Some(db) = &file.db {
        text.push_str(&format!("db: {db}\n"));
    }
    text
}

/// Fragments glued in random order.
fn fragments() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..FRAGMENTS.len(), 0..12)
        .prop_map(|ix| ix.into_iter().map(|i| FRAGMENTS[i]).collect())
}

/// Arbitrary text, weighted toward ASCII but reaching multi-byte code
/// points (`§`, `→`, `⊥` and their neighbours).
fn arbitrary_text() -> impl Strategy<Value = String> {
    let ch = prop_oneof![3 => '\0'..'\u{80}', 1 => '\u{80}'..'\u{2400}'];
    proptest::collection::vec(ch, 0..64).prop_map(|chars| chars.into_iter().collect())
}

/// Lines of keys and fragments.
fn line_soup() -> impl Strategy<Value = String> {
    let line = (0..KEYS.len(), fragments()).prop_map(|(k, f)| format!("{} {f}", KEYS[k]));
    proptest::collection::vec(line, 0..6).prop_map(|lines| lines.join("\n"))
}

/// A well-formed file with one field replaced by fragments, cut short, or
/// extended with fragments.
fn fuzzed_file() -> impl Strategy<Value = String> {
    (
        0..FILES.len(),
        0..4usize,
        0..3usize,
        fragments(),
        0..64usize,
    )
        .prop_map(|(f, field, how, junk, cut)| {
            let [schema, query, fks, db] = FILES[f].map(str::to_string);
            let mut fields = [schema, query, fks, db];
            let target = &mut fields[field];
            match how {
                0 => *target = junk,
                1 => {
                    let at = (0..=cut.min(target.len()))
                        .rev()
                        .find(|&i| target.is_char_boundary(i))
                        .unwrap_or(0);
                    target.truncate(at);
                }
                _ => target.push_str(&junk),
            }
            let [schema, query, fks, db] = fields;
            render(&ProblemFile {
                schema,
                query,
                fks,
                db: Some(db),
            })
        })
}

#[test]
fn the_corpus_and_the_fixtures_load() {
    for [schema, query, fks, db] in FILES {
        let text = render(&ProblemFile {
            schema: schema.into(),
            query: query.into(),
            fks: fks.into(),
            db: Some(db.into()),
        });
        let file = parse_problem_file(&text).unwrap();
        assert_eq!(
            (file.schema.as_str(), file.db.as_deref()),
            (schema, Some(db))
        );
        load_and_solve(&text).unwrap();
    }
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/problems");
    for entry in std::fs::read_dir(corpus).unwrap() {
        let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
        parse_problem_file(&text).unwrap();
        load_and_solve(&text).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        failure_persistence: Some(FileFailurePersistence::WithSource("proptest-regressions")),
        ..ProptestConfig::default()
    })]

    #[test]
    fn arbitrary_text_never_panics(text in arbitrary_text()) {
        load_and_solve(&text)?;
    }

    #[test]
    fn line_soup_never_panics(text in line_soup()) {
        load_and_solve(&text)?;
    }

    #[test]
    fn fuzzed_fields_never_panic(text in fuzzed_file()) {
        load_and_solve(&text)?;
    }
}
