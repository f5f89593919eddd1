//! Datalog input fuzzing, the surface `cqa analyze --datalog` reads:
//! arbitrary text, and byte-mutated copies of the artifacts `cqa emit`
//! produces for `examples/problems/*.problem`. Each input goes through
//! `Program::parse`, `stratify` and `audit_program`, then `evaluate`, which
//! must run exactly the programs that audit clean. Every call must return
//! `Ok` or a typed error with a message — never panic. A panic is caught
//! and reported as a failing case, so its seed persists to
//! `proptest-regressions/prop_datalog_fuzz.txt` and replays before fresh
//! cases on every later run.

use cqa::analyze::datalog::{stratify, Program};
use cqa::analyze::{audit_program, Code};
use cqa::emit::evaluate;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::sync::OnceLock;

/// The Datalog artifact `cqa emit` writes for every shipped example
/// problem that has one (oracle-only problems exit 4 and are skipped).
fn artifacts() -> &'static [String] {
    static ARTIFACTS: OnceLock<Vec<String>> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/problems");
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .expect("examples/problems exists")
            .map(|e| e.expect("readable entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "problem"))
            .collect();
        paths.sort();
        let out: Vec<String> = paths
            .iter()
            .filter_map(|p| {
                let run = Command::new(env!("CARGO_BIN_EXE_cqa"))
                    .args(["emit", "--format", "datalog", "--problem"])
                    .arg(p)
                    .output()
                    .expect("spawn cqa emit");
                run.status
                    .success()
                    .then(|| String::from_utf8(run.stdout).expect("artifact is UTF-8"))
            })
            .collect();
        assert!(out.len() >= 4, "too few emitted artifacts: {}", out.len());
        out
    })
}

/// One edit: overwrite a byte, insert a fragment, delete a byte, or copy
/// a whole line (a rule) before another. Positions are taken modulo the
/// current length.
#[derive(Clone, Debug)]
enum Edit {
    Set(usize, u8),
    Insert(usize, &'static [u8]),
    Delete(usize),
    CopyLine { from: usize, to: usize },
}

/// Fragments that steer the lexer and grammar: `:-`, `!=`, negation,
/// quotes, escapes, comments, upper/lowercase term starts.
const FRAGMENTS: &[&[u8]] = &[
    b"(",
    b")",
    b",",
    b".",
    b":",
    b"-",
    b":-",
    b"!",
    b"!=",
    b"not ",
    b"\"",
    b"\\",
    b"%",
    b"\n",
    b" ",
    b"X",
    b"a",
    b"_",
    b"0",
    b"\xC2",
    b"\xE2\x86\x92",
];

fn edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        1 => (0..usize::MAX, 0..256u16).prop_map(|(p, b)| Edit::Set(p, b as u8)),
        3 => (0..usize::MAX, 0..FRAGMENTS.len()).prop_map(|(p, i)| Edit::Insert(p, FRAGMENTS[i])),
        2 => (0..usize::MAX).prop_map(Edit::Delete),
        2 => (0..usize::MAX, 0..usize::MAX).prop_map(|(from, to)| Edit::CopyLine { from, to }),
    ]
}

/// Applies `edits` to the bytes of `text`; invalid UTF-8 is replaced, as a
/// reader decoding a damaged file lossily would.
fn mutate(text: &str, edits: &[Edit]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for e in edits {
        let len = bytes.len();
        match *e {
            Edit::Set(p, b) if len > 0 => bytes[p % len] = b,
            Edit::Insert(p, frag) => {
                let at = p % (len + 1);
                bytes.splice(at..at, frag.iter().copied());
            }
            Edit::Delete(p) if len > 0 => {
                bytes.remove(p % len);
            }
            Edit::CopyLine { from, to } => {
                let lines: Vec<Vec<u8>> = bytes
                    .split_inclusive(|&b| b == b'\n')
                    .map(<[u8]>::to_vec)
                    .collect();
                if !lines.is_empty() {
                    let line = lines[from % lines.len()].clone();
                    let at: usize = lines[..to % lines.len()].iter().map(Vec::len).sum();
                    bytes.splice(at..at, line);
                }
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Arbitrary text, weighted toward ASCII but reaching multi-byte code
/// points.
fn arbitrary_text() -> impl Strategy<Value = String> {
    let ch = prop_oneof![3 => '\0'..'\u{80}', 1 => '\u{80}'..'\u{2400}'];
    proptest::collection::vec(ch, 0..64).prop_map(|chars| chars.into_iter().collect())
}

/// Runs one call, failing the case if it panics.
fn no_panic<T>(stage: &str, input: &str, call: impl FnOnce() -> T) -> Result<T, TestCaseError> {
    catch_unwind(AssertUnwindSafe(call))
        .map_err(|_| TestCaseError::fail(format!("{stage} panicked on {input:?}")))
}

/// Drives `text` through the whole Datalog input surface.
fn check(text: &str) -> Result<(), TestCaseError> {
    let program = match no_panic("parse", text, || Program::parse(text))? {
        Ok(p) => p,
        Err(e) => {
            prop_assert!(!e.message.is_empty(), "empty parse error on {text:?}");
            return Ok(());
        }
    };
    let printed = program.to_string();
    let reparsed = no_panic("parse", &printed, || Program::parse(&printed))?;
    prop_assert_eq!(
        reparsed.as_ref(),
        Ok(&program),
        "print → parse on {:?}",
        text
    );

    let strata = no_panic("stratify", text, || stratify(&program))?;
    let report = no_panic("audit_program", text, || audit_program(&program))?;
    prop_assert_eq!(
        strata.is_err(),
        report.has(Code::DatalogUnstratified),
        "stratify and audit disagree on {:?}",
        text
    );
    let run = no_panic("evaluate", text, || evaluate(&program))?;
    prop_assert_eq!(
        run.is_ok(),
        report.is_clean(),
        "evaluate must run exactly the clean programs: {:?}",
        text
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 512,
        failure_persistence: Some(FileFailurePersistence::WithSource("proptest-regressions")),
        ..ProptestConfig::default()
    })]

    #[test]
    fn datalog_surface_never_panics_on_arbitrary_text(text in arbitrary_text()) {
        check(&text)?;
    }
}

proptest! {
    // Most edits break the syntax; more cases reach stratify, audit and
    // evaluate with programs that still parse.
    #![proptest_config(ProptestConfig {
        cases: 2048,
        failure_persistence: Some(FileFailurePersistence::WithSource("proptest-regressions")),
        ..ProptestConfig::default()
    })]

    #[test]
    fn datalog_surface_never_panics_on_mutated_artifacts(
        which in 0..64usize,
        edits in proptest::collection::vec(edit(), 1..4),
    ) {
        let all = artifacts();
        check(&mutate(&all[which % all.len()], &edits))?;
    }
}

#[test]
fn emitted_artifacts_audit_clean_and_evaluate() {
    for text in artifacts() {
        let program = Program::parse(text).expect("artifact parses");
        assert!(audit_program(&program).is_clean(), "{text}");
        assert!(evaluate(&program).is_ok(), "{text}");
    }
}

/// Regression: the lexer used to report its errors by replacing the token
/// stream with one quoted token carrying the message, so a program that
/// *was* one quoted string failed with that string as its message — the
/// empty message for `""`.
#[test]
fn a_lone_quoted_string_is_reported_as_a_misplaced_token() {
    for text in ["\"\"", "\"x\"", "\"unterminated string\""] {
        let err = Program::parse(text).unwrap_err();
        assert!(err.message.contains("predicate name"), "{text}: {err}");
    }
}
