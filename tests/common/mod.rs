//! Shared by the corpus CLI suites (`corpus_golden`,
//! `cli_order_invariance`): the corpus files, the golden command list, and
//! a `cqa` runner whose stdout has its elapsed times stripped.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The golden commands: file suffix and `cqa` arguments.
pub const COMMANDS: [(&str, &[&str]); 6] = [
    ("solve", &["solve"]),
    ("classify", &["classify"]),
    ("rewrite", &["rewrite"]),
    ("analyze", &["analyze"]),
    ("emit-datalog", &["emit", "--format", "datalog"]),
    ("emit-sql", &["emit", "--format", "sql"]),
];

/// The `cqa` package root.
pub fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Replaces every `Duration` debug rendering that closes a parenthesis
/// (`17.35µs)`, `2ms)`, `1.5s)`) with `<elapsed>)` — the same rewrite as
/// `sed -E 's/[0-9]+(\.[0-9]+)?(ns|µs|ms|s)\)/<elapsed>)/g'`.
pub fn strip_elapsed(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(i) = rest.find(|c: char| c.is_ascii_digit()) {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        let int = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        let mut end = int;
        if rest[end..].starts_with('.') {
            let frac = rest[end + 1..]
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len() - end - 1);
            if frac > 0 {
                end += 1 + frac;
            }
        }
        let unit = ["ns)", "µs)", "ms)", "s)"]
            .into_iter()
            .find(|u| rest[end..].starts_with(u));
        match unit {
            Some(u) => {
                out.push_str("<elapsed>)");
                rest = &rest[end + u.len()..];
            }
            None => {
                // Not a duration: keep the whole digit run, so a later
                // digit of the same number cannot start a false match.
                out.push_str(&rest[..int]);
                rest = &rest[int..];
            }
        }
    }
    out.push_str(rest);
    out
}

/// Runs `cqa <args> --problem <path>`: (stripped stdout, exit code).
pub fn run_cqa(args: &[&str], problem: &Path) -> (String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_cqa"))
        .args(args)
        .arg("--problem")
        .arg(problem)
        .output()
        .expect("cqa runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    (
        strip_elapsed(&stdout),
        out.status.code().expect("exit code"),
    )
}

/// Every `examples/problems/*.problem` file, sorted by path.
pub fn corpus() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(root().join("examples/problems"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "problem"))
        .collect();
    files.sort();
    files
}
