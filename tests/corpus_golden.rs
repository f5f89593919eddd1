//! Byte-identity gate over the problem corpus: for every
//! `examples/problems/*.problem`, the stdout of `solve`, `classify`,
//! `rewrite`, `analyze`, `emit --format datalog` and `emit --format sql`
//! must equal `tests/golden/<problem>.<cmd>`, and each exit code the line
//! `<cmd> <code>` of `tests/golden/<problem>.status`. Elapsed times are
//! the only thing stripped (to `<elapsed>`).
//!
//! Regenerate only for a deliberate output change: with the reference
//! commit's `cqa`, write each command's stdout to its golden file, rewrite
//! it as [`strip_elapsed`] does (`sed -E 's/[0-9]+(\.[0-9]+)?(ns|µs|ms|s)\)/<elapsed>)/g'`)
//! and record `<cmd> <exit code>` in the `.status` file.

mod common;

use common::{corpus, root, run_cqa, strip_elapsed, COMMANDS};

#[test]
fn strip_elapsed_matches_the_sed_rewrite() {
    assert_eq!(
        strip_elapsed("certain (via dual-Horn, 17.352µs)\nsize 12 (3ms) (1.5s) (40ns)"),
        "certain (via dual-Horn, <elapsed>)\nsize 12 (<elapsed>) (<elapsed>) (<elapsed>)"
    );
    assert_eq!(
        strip_elapsed("depth 3, 10 rows) a1s"),
        "depth 3, 10 rows) a1s"
    );
}

#[test]
fn every_corpus_command_matches_its_golden_file() {
    let problems = corpus();
    assert_eq!(problems.len(), 6, "the corpus has six problems");
    let mut mismatches = Vec::new();
    for path in &problems {
        let name = path.file_stem().unwrap().to_str().unwrap();
        let golden = root().join("tests/golden");
        let status = std::fs::read_to_string(golden.join(format!("{name}.status")))
            .unwrap_or_else(|e| panic!("{name}.status: {e}"));
        for (cmd, args) in COMMANDS {
            let want = std::fs::read_to_string(golden.join(format!("{name}.{cmd}")))
                .unwrap_or_else(|e| panic!("{name}.{cmd}: {e}"));
            let want_code: i32 = status
                .lines()
                .find_map(|l| l.strip_prefix(cmd)?.strip_prefix(' '))
                .unwrap_or_else(|| panic!("{name}.status has no `{cmd}` line"))
                .parse()
                .unwrap();
            let (got, code) = run_cqa(args, path);
            if got != want {
                mismatches.push(format!(
                    "{name}.{cmd}: stdout differs\n--- golden\n{want}--- got\n{got}"
                ));
            }
            if code != want_code {
                mismatches.push(format!("{name}.{cmd}: exit {code}, golden {want_code}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
