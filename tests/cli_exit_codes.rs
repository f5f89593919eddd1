//! CLI exit-code contract, driven through the real binary
//! (`CARGO_BIN_EXE_cqa`): the not-FO exit 4 for `cqa answer` and
//! `cqa sql`, inline `--db-text` databases, and `cqa serve`'s strict
//! refusal to start on an invalid `CQA_THREADS` — via subprocess
//! environments, never in-process `set_var`.

use std::io::Write;
use std::process::{Command, Stdio};

fn cqa() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cqa"))
}

fn write_db(tag: &str, text: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("cqa-exitcode-{}-{tag}.db", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "{text}").unwrap();
    path
}

const FO: [&str; 6] = [
    "--schema",
    "N[2,1] O[1,1] P[1,1]",
    "--query",
    "N('c',y), O(y), P(y)",
    "--fks",
    "N[2] -> O",
];

const HARD: [&str; 6] = [
    "--schema",
    "N[3,1] O[2,1]",
    "--query",
    "N(x,'c',y), O(y,w)",
    "--fks",
    "N[3] -> O",
];

#[test]
fn answer_distinguishes_certain_no_from_not_fo() {
    let db = write_db("yes", "N(c,a) O(a) P(a)");
    let yes = cqa()
        .arg("answer")
        .args(FO)
        .args(["--db", db.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(yes.status.code(), Some(0), "certain yes exits 0");

    let db_no = write_db("no", "N(c,a) N(c,b) O(a) P(a)");
    let no = cqa()
        .arg("answer")
        .args(FO)
        .args(["--db", db_no.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(no.status.code(), Some(1), "certain no exits 1");

    // The regression: a hard-class problem used to be indistinguishable
    // from those by exit code. It must exit 4 — not 1 (the answer is not
    // "no") and not 2 (the invocation is well-formed).
    let db_hard = write_db("hard", "N(a,c,1) O(1,w)");
    let not_fo = cqa()
        .arg("answer")
        .args(HARD)
        .args(["--db", db_hard.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(not_fo.status.code(), Some(4), "not-FO exits 4");
    let stderr = String::from_utf8_lossy(&not_fo.stderr);
    assert!(stderr.contains("not FO-rewritable"), "{stderr}");
    assert!(stderr.contains("cqa solve"), "points at the right tool: {stderr}");

    for p in [db, db_no, db_hard] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn db_text_is_an_inline_database_for_every_db_command() {
    // Regression: `--db-text` was parsed and then ignored, so every
    // command but `request` failed with "missing --db".
    let r: &[&str] = &["--schema", "R[2,1]", "--query", "R(x,y)"];
    let cases: [(&[&str], &[&str], &str, i32); 5] = [
        (&["solve"], r, "R(a,b)", 0),
        (&["solve"], &FO, "N(c,a) N(c,b) O(a) P(a)", 1),
        (&["answer"], &FO, "N(c,a) O(a) P(a)", 0),
        (&["oracle"], &FO, "N(c,a) N(c,b) O(a) P(a)", 1),
        (&["emit", "--execute"], &FO, "N(c,a) O(a) P(a)", 0),
    ];
    for (cmd, problem, db, code) in cases {
        let out = cqa()
            .args(cmd)
            .args(problem)
            .args(["--db-text", db])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(code),
            "{cmd:?} --db-text {db:?}: {out:?}"
        );
    }
}

#[test]
fn conflicting_or_repeated_flags_are_usage_errors() {
    // Regression: with both `--db` and `--db-text`, `solve` read the file
    // and `request` sent the text, so the same flags gave opposite
    // verdicts; a repeated flag silently kept its last value.
    let db = write_db("conflict", "R(a,b)");
    let db = db.to_str().unwrap();
    let rs: &[&str] = &["--schema", "R[2,1] S[1,1]", "--query", "R(x,y), S(y)"];
    let sock = "/tmp/cqa-never-bound.sock";
    let cases: [&[&str]; 4] = [
        &["solve", "--db", db, "--db-text", "R(a,b) S(b)"],
        &["request", "--socket", sock, "--db-text", "S(b)", "--db", db],
        &["solve", "--db-text", "R(a,b)", "--db-text", "R(a,b) S(b)"],
        &["emit", "--execute", "--db-text", "S(b)", "--execute"],
    ];
    for args in cases {
        let out = cqa().args(args).args(rs).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "{args:?} prints the usage line"
        );
    }
    let _ = std::fs::remove_file(db);
}

#[test]
fn serve_refuses_invalid_env_instead_of_degrading() {
    // A long-lived server must not silently degrade a bad CQA_THREADS to
    // the default width: `cqa serve` validates strictly and exits 2
    // before binding anything.
    let refused = cqa()
        .arg("serve")
        .args(["--socket", "/tmp/cqa-never-bound.sock"])
        .env("CQA_THREADS", "not-a-number")
        .output()
        .unwrap();
    assert_eq!(refused.status.code(), Some(2), "unparsable threads refused");
    assert!(
        String::from_utf8_lossy(&refused.stderr).contains("CQA_THREADS"),
        "names the variable"
    );

    let refused = cqa()
        .arg("serve")
        .args(["--socket", "/tmp/cqa-never-bound.sock"])
        .env("CQA_THREADS", "0")
        .output()
        .unwrap();
    assert_eq!(refused.status.code(), Some(2), "zero threads refused");
}

#[test]
fn sql_exits_4_on_a_valid_non_fo_problem() {
    // Regression: these exited 2, the code for malformed invocations. The
    // problems are valid; `sql` is just the wrong tool for their class.
    let nl_hard: &[&str] = &[
        "--schema",
        "N[3,1] O[1,1]",
        "--query",
        "N(x,'c',y), O(y)",
        "--fks",
        "N[3] -> O",
    ];
    let pk_cycle: &[&str] = &["--schema", "R[2,1] S[2,1]", "--query", "R(x,y), S(y,x)"];
    let cases: [(&[&str], i32, &str); 3] = [
        (&FO, 0, "SELECT CASE WHEN"),
        (nl_hard, 4, "NL-hard"),
        (pk_cycle, 4, "L-hard"),
    ];
    for (problem, code, says) in cases {
        let out = cqa().arg("sql").args(problem).output().unwrap();
        assert_eq!(out.status.code(), Some(code), "sql {problem:?}: {out:?}");
        let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
        assert!(text.contains(says), "sql {problem:?}: {text}");
    }
}

#[test]
fn request_maps_verdicts_onto_exit_codes() {
    // serve + request round trip over a Unix socket, exercising the exit
    // mapping (0 certain / 1 not certain) through real processes.
    let socket = {
        let mut p = std::env::temp_dir();
        p.push(format!("cqa-exitcode-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    };
    let mut server = cqa()
        .arg("serve")
        .args(["--socket", socket.to_str().unwrap()])
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    // Wait for the socket to answer a ping.
    let mut up = false;
    for _ in 0..300 {
        let ping = cqa()
            .arg("request")
            .args(["--socket", socket.to_str().unwrap(), "--op", "ping"])
            .output()
            .unwrap();
        if ping.status.code() == Some(0) {
            up = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(up, "server came up");

    let yes = cqa()
        .arg("request")
        .args(["--socket", socket.to_str().unwrap()])
        .args(FO)
        .args(["--db-text", "N(c,a) O(a) P(a)"])
        .output()
        .unwrap();
    assert_eq!(yes.status.code(), Some(0), "certain → 0: {yes:?}");

    let no = cqa()
        .arg("request")
        .args(["--socket", socket.to_str().unwrap()])
        .args(FO)
        .args(["--db-text", "N(c,a) N(c,b) O(a) P(a)"])
        .output()
        .unwrap();
    assert_eq!(no.status.code(), Some(1), "not certain → 1: {no:?}");
    let reply = String::from_utf8_lossy(&no.stdout);
    assert!(reply.contains(r#""cache":"hit""#), "second request hits: {reply}");

    let bye = cqa()
        .arg("request")
        .args(["--socket", socket.to_str().unwrap(), "--op", "shutdown"])
        .output()
        .unwrap();
    assert_eq!(bye.status.code(), Some(0));
    let status = server.wait().unwrap();
    assert_eq!(status.code(), Some(0), "serve exits 0 on clean shutdown");
}
