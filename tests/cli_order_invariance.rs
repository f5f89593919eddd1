//! Interning-order invariance: symbols compare by intern id, and each
//! `cqa` process interns names in the order its input text mentions them.
//! So for every corpus problem, permuting the relations of `schema:`, the
//! atoms of `query:`, the `fks:` entries and the `db:` facts changes every
//! intern order — and must change no byte of any golden command's stdout,
//! nor its exit code.

mod common;

use common::{corpus, run_cqa, COMMANDS};
use std::path::Path;

/// Splits a field into its items at top level (outside `[]`, `()` and
/// quotes): at `,`/`;`, and also at whitespace when `by_space`.
fn items(field: &str, by_space: bool) -> Vec<String> {
    let (mut out, mut cur, mut depth, mut quoted) = (Vec::new(), String::new(), 0i32, false);
    for c in field.chars() {
        match c {
            '\'' => quoted = !quoted,
            '[' | '(' if !quoted => depth += 1,
            ']' | ')' if !quoted => depth -= 1,
            _ => {}
        }
        let split =
            !quoted && depth == 0 && (c == ',' || c == ';' || (by_space && c.is_whitespace()));
        if split {
            if !cur.trim().is_empty() {
                out.push(cur.trim().to_string());
            }
            cur.clear();
        } else {
            cur.push(c);
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

/// The problem's fields as `(key, items, separator)`, in file order.
fn fields(text: &str) -> Vec<(String, Vec<String>, &'static str)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let (key, rest) = line.split_once(':').expect("key: value line");
            let by_space = matches!(key, "schema" | "db");
            let sep = if by_space { " " } else { ", " };
            (key.to_string(), items(rest, by_space), sep)
        })
        .collect()
}

/// The problem text with every field's items rotated left by `k` and, when
/// `reverse`, then reversed.
fn permuted(text: &str, k: usize, reverse: bool) -> String {
    fields(text)
        .into_iter()
        .map(|(key, mut items, sep)| {
            let n = items.len();
            if n > 0 {
                items.rotate_left(k % n);
            }
            if reverse {
                items.reverse();
            }
            format!("{key}: {}\n", items.join(sep))
        })
        .collect()
}

fn outputs(problem: &Path) -> Vec<(String, i32)> {
    COMMANDS
        .iter()
        .map(|(_, args)| run_cqa(args, problem))
        .collect()
}

#[test]
fn item_splitting_respects_brackets_and_quotes() {
    assert_eq!(items(" N[3,1] O[1,1]", true), ["N[3,1]", "O[1,1]"]);
    assert_eq!(
        items(" N(x,'c, d',y), O(y)", false),
        ["N(x,'c, d',y)", "O(y)"]
    );
    assert_eq!(
        items(" N[2] -> O, M[2] -> Q", false),
        ["N[2] -> O", "M[2] -> Q"]
    );
}

#[test]
fn stdout_is_invariant_under_input_permutations() {
    let dir = std::env::temp_dir().join(format!("cqa-order-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut failures = Vec::new();
    for path in corpus() {
        let name = path.file_stem().unwrap().to_str().unwrap().to_string();
        let text = std::fs::read_to_string(&path).unwrap();
        let base = outputs(&path);
        let widest = fields(&text).iter().map(|f| f.1.len()).max().unwrap_or(1);
        for k in 0..widest {
            for reverse in [false, true] {
                let variant = dir.join(format!("{name}-{k}-{reverse}.problem"));
                std::fs::write(&variant, permuted(&text, k, reverse)).unwrap();
                for ((cmd, _), (want, got)) in
                    COMMANDS.iter().zip(base.iter().zip(outputs(&variant)))
                {
                    if *want != got {
                        failures.push(format!(
                            "{name} {cmd} (rotate {k}, reverse {reverse}):\n--- unpermuted\n{}\
                             (exit {})\n--- permuted\n{}(exit {})",
                            want.0, want.1, got.0, got.1
                        ));
                    }
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
