//! SQL artifact emission.
//!
//! Each artifact is one self-contained script: `CREATE TABLE` DDL for the
//! schema, `INSERT` statements embedding the instance, and one final
//! query that returns a single row `certain` ∈ {0, 1}. The FO route
//! reuses the rewriting renderer from `cqa-fo` (plain SQL, no recursion,
//! witnessing the FO upper bound); the two poly-time routes emit
//! `WITH RECURSIVE` CTEs, which is exactly where they exceed plain
//! relational algebra.
//!
//! The emitter ships with its own shallow validity check,
//! [`check_sql`] — a tokenizer that verifies string-literal and comment
//! termination, paren balance, and statement shape. It is *not* a SQL
//! parser; it exists so a malformed artifact fails at emission time
//! rather than on the user's database.

use crate::lower::{block_chains, derived_prefix};
use cqa_core::EmitSpec;
use cqa_model::{Instance, Schema};
use std::fmt::Write as _;

/// Quotes a constant as a SQL string literal (`'` doubled).
fn lit(s: impl AsRef<str>) -> String {
    format!("'{}'", s.as_ref().replace('\'', "''"))
}

/// Renders the schema DDL plus one `INSERT` per instance fact. Column
/// names are `a1..ak`, matching the `adom` view emitted by
/// [`cqa_fo::to_sql`].
fn schema_and_facts(schema: &Schema, db: &Instance) -> String {
    let mut out = String::new();
    for (rel, sig) in schema.relations() {
        let cols: Vec<String> = (1..=sig.arity).map(|i| format!("a{i} TEXT")).collect();
        writeln!(out, "CREATE TABLE {rel} ({});", cols.join(", ")).expect("write");
    }
    out.push('\n');
    let mut any = false;
    for fact in db.facts_by_name() {
        let vals: Vec<String> = fact.args.iter().map(|c| lit(c.name())).collect();
        writeln!(out, "INSERT INTO {} VALUES ({});", fact.rel, vals.join(", ")).expect("write");
        any = true;
    }
    if !any {
        out.push_str("-- (empty instance)\n");
    }
    out
}

/// Emits the full SQL script for a route specification over `db`.
pub fn emit_sql(spec: &EmitSpec, schema: &Schema, db: &Instance) -> String {
    let p = derived_prefix(schema);
    let mut out = String::from("-- cqa emit: certainty as a self-contained SQL script.\n");
    match spec {
        EmitSpec::Fo { formula, depth } => {
            writeln!(
                out,
                "-- route: fo (consistent first-order rewriting, {depth} rewrite steps)"
            )
            .expect("write");
            out.push('\n');
            out.push_str(&schema_and_facts(schema, db));
            out.push('\n');
            let (ddl, expr) = cqa_fo::to_sql(schema, formula)
                .expect("flattened rewritings are closed");
            out.push_str(&ddl);
            out.push('\n');
            writeln!(out, "SELECT CASE WHEN {expr}\nTHEN 1 ELSE 0 END AS certain;")
                .expect("write");
        }
        EmitSpec::Reachability { n, o } => {
            out.push_str("-- route: reachability (Proposition 16 block graph)\n\n");
            out.push_str(&schema_and_facts(schema, db));
            out.push('\n');
            writeln!(
                out,
                "WITH RECURSIVE\n\
                 -- Diagonal blocks are the graph's vertices.\n\
                 {p}vtx(x) AS (\n\
                 \x20 SELECT a1 FROM {n} WHERE a1 = a2),\n\
                 -- Off-diagonal members between vertices are its edges.\n\
                 {p}edge(x, y) AS (\n\
                 \x20 SELECT t.a1, t.a2 FROM {n} t\n\
                 \x20 WHERE t.a1 <> t.a2\n\
                 \x20   AND t.a1 IN (SELECT x FROM {p}vtx)\n\
                 \x20   AND t.a2 IN (SELECT x FROM {p}vtx)),\n\
                 -- A member leaving the vertex set falls to the bottom element.\n\
                 {p}tobot(x) AS (\n\
                 \x20 SELECT t.a1 FROM {n} t\n\
                 \x20 WHERE t.a1 <> t.a2\n\
                 \x20   AND t.a1 IN (SELECT x FROM {p}vtx)\n\
                 \x20   AND t.a2 NOT IN (SELECT x FROM {p}vtx)),\n\
                 {p}reach(x, y) AS (\n\
                 \x20 SELECT x, y FROM {p}edge\n\
                 \x20 UNION\n\
                 \x20 SELECT e.x, r.y FROM {p}edge e, {p}reach r WHERE e.y = r.x),\n\
                 -- A vertex escapes by reaching bottom or a cycle.\n\
                 {p}esc(x) AS (\n\
                 \x20 SELECT x FROM {p}tobot\n\
                 \x20 UNION\n\
                 \x20 SELECT x FROM {p}reach WHERE x = y\n\
                 \x20 UNION\n\
                 \x20 SELECT r.x FROM {p}reach r WHERE r.y IN (SELECT x FROM {p}tobot)\n\
                 \x20 UNION\n\
                 \x20 SELECT r.x FROM {p}reach r, {p}reach c WHERE r.y = c.x AND c.x = c.y),\n\
                 {p}marked(x) AS (\n\
                 \x20 SELECT x FROM {p}vtx WHERE x IN (SELECT a1 FROM {o}))\n\
                 SELECT CASE WHEN EXISTS (\n\
                 \x20 SELECT 1 FROM {p}marked m WHERE m.x NOT IN (SELECT x FROM {p}esc)\n\
                 ) THEN 1 ELSE 0 END AS certain;"
            )
            .expect("write");
        }
        EmitSpec::DualHorn { n, o, middle } => {
            out.push_str("-- route: dual-horn (Proposition 17, flipped to deletion closure)\n\n");
            out.push_str(&schema_and_facts(schema, db));
            out.push('\n');
            // Per-block clause-body chains, materialized as ordinary tables
            // so the recursive part stays fixed-arity (see lower.rs).
            writeln!(
                out,
                "CREATE TABLE {p}noq (i TEXT);\n\
                 CREATE TABLE {p}qfirst (i TEXT, q TEXT);\n\
                 CREATE TABLE {p}qsucc (i TEXT, q1 TEXT, q2 TEXT);\n\
                 CREATE TABLE {p}qlast (i TEXT, q TEXT);"
            )
            .expect("write");
            for (key, qs) in block_chains(db, *n, middle) {
                let i = lit(key.name());
                match qs.as_slice() {
                    [] => writeln!(out, "INSERT INTO {p}noq VALUES ({i});").expect("write"),
                    [.., last] => {
                        writeln!(
                            out,
                            "INSERT INTO {p}qfirst VALUES ({i}, {});",
                            lit(qs[0].name())
                        )
                        .expect("write");
                        for w in qs.windows(2) {
                            writeln!(
                                out,
                                "INSERT INTO {p}qsucc VALUES ({i}, {}, {});",
                                lit(w[0].name()),
                                lit(w[1].name())
                            )
                            .expect("write");
                        }
                        writeln!(out, "INSERT INTO {p}qlast VALUES ({i}, {});", lit(last.name()))
                            .expect("write");
                    }
                }
            }
            let c = lit(middle.name());
            // NOTE: the `del`/`upto` mutual recursion is packed into one
            // tagged CTE, and some arms reference it twice — engines that
            // restrict recursive CTEs to a single self-reference per arm
            // (e.g. SQLite) will reject this script; it targets permissive
            // engines. The Datalog artifact has no such caveat.
            writeln!(
                out,
                "\nWITH RECURSIVE {p}fix(kind, x, y) AS (\n\
                 \x20 SELECT 'del', t.a3, '' FROM {n} t, {p}noq b\n\
                 \x20 WHERE t.a1 = b.i AND t.a2 = {c}\n\
                 \x20 UNION\n\
                 \x20 SELECT 'upto', f.i, f.q FROM {p}qfirst f, {p}fix d\n\
                 \x20 WHERE d.kind = 'del' AND d.x = f.q\n\
                 \x20 UNION\n\
                 \x20 SELECT 'upto', s.i, s.q2 FROM {p}qsucc s, {p}fix u, {p}fix d\n\
                 \x20 WHERE u.kind = 'upto' AND u.x = s.i AND u.y = s.q1\n\
                 \x20   AND d.kind = 'del' AND d.x = s.q2\n\
                 \x20 UNION\n\
                 \x20 SELECT 'del', t.a3, '' FROM {n} t, {p}qlast l, {p}fix u\n\
                 \x20 WHERE t.a1 = l.i AND t.a2 = {c}\n\
                 \x20   AND u.kind = 'upto' AND u.x = l.i AND u.y = l.q\n\
                 )\n\
                 SELECT CASE WHEN EXISTS (\n\
                 \x20 SELECT 1 FROM {o} v, {p}fix d WHERE d.kind = 'del' AND d.x = v.a1\n\
                 ) THEN 1 ELSE 0 END AS certain;"
            )
            .expect("write");
        }
    }
    out
}

/// A shallow well-formedness check over an emitted script: terminated
/// strings and comments, balanced parens, `;`-separated statements each
/// starting with `CREATE`, `INSERT`, `SELECT` or `WITH`, and no trailing
/// garbage. Returns the first violation as a message.
pub fn check_sql(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut i = 0usize;
    let mut depth = 0i64;
    let mut stmt_head: Option<String> = None;
    let mut stmts = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'-' && bytes.get(i + 1) == Some(&b'-') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if b == b'\'' {
            // Scan to the closing quote; '' is an escaped quote.
            i += 1;
            loop {
                match bytes.get(i) {
                    None => return Err("unterminated string literal".to_string()),
                    Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => i += 2,
                    Some(b'\'') => {
                        i += 1;
                        break;
                    }
                    Some(_) => i += 1,
                }
            }
            continue;
        }
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth < 0 {
                    return Err("unbalanced ')'".to_string());
                }
            }
            b';' => {
                if depth != 0 {
                    return Err("';' inside parentheses".to_string());
                }
                if stmt_head.is_none() {
                    return Err("empty statement before ';'".to_string());
                }
                stmt_head = None;
                stmts += 1;
            }
            _ => {}
        }
        if b.is_ascii_alphabetic() && stmt_head.is_none() {
            let start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            let word = text[start..i].to_ascii_uppercase();
            if !matches!(word.as_str(), "CREATE" | "INSERT" | "SELECT" | "WITH") {
                return Err(format!("statement starts with unexpected keyword `{word}`"));
            }
            stmt_head = Some(word);
            continue;
        }
        i += 1;
    }
    if depth != 0 {
        return Err("unbalanced '('".to_string());
    }
    if let Some(head) = stmt_head {
        return Err(format!("trailing `{head}` statement not closed with ';'"));
    }
    if stmts == 0 {
        return Err("no statements".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_core::{ExecOptions, Problem, Solver};
    use cqa_model::parser::{parse_fks, parse_instance, parse_query, parse_schema};
    use std::sync::Arc;

    fn emit_for(schema: &str, query: &str, fks: &str, db: &str) -> String {
        let s = Arc::new(parse_schema(schema).unwrap());
        let q = parse_query(&s, query).unwrap();
        let fks = parse_fks(&s, fks).unwrap();
        let solver = Solver::builder(Problem::new(q, fks).unwrap())
            .options(ExecOptions::sequential())
            .build()
            .unwrap();
        let db = parse_instance(&s, db).unwrap();
        emit_sql(&solver.emit_spec().unwrap(), &s, &db)
    }

    #[test]
    fn all_three_routes_pass_the_shape_check() {
        for (schema, query, fks, db) in [
            (
                "N[2,1] O[1,1] P[1,1]",
                "N('c',y), O(y), P(y)",
                "N[2] -> O",
                "N(c,a) O(a) P(a)",
            ),
            (
                cqa_solvers::prop16::SCHEMA,
                cqa_solvers::prop16::QUERY,
                cqa_solvers::prop16::FKS,
                "N(a,a) N(a,b) N(b,b) O(a)",
            ),
            (
                cqa_solvers::prop17::SCHEMA,
                cqa_solvers::prop17::QUERY,
                cqa_solvers::prop17::FKS,
                "N(b1,c,1) N(b1,d,2) N(b2,c,2) O(1)",
            ),
        ] {
            let script = emit_for(schema, query, fks, db);
            check_sql(&script).unwrap_or_else(|e| panic!("{e}\n---\n{script}"));
            assert!(script.contains("AS certain"), "{script}");
        }
    }

    #[test]
    fn poly_routes_use_recursion_and_fo_does_not() {
        let fo = emit_for("N[2,1] O[1,1]", "N(x,y), O(y)", "N[2] -> O", "N(a,b) O(b)");
        assert!(!fo.contains("WITH RECURSIVE"), "{fo}");
        let l = emit_for(
            cqa_solvers::prop16::SCHEMA,
            cqa_solvers::prop16::QUERY,
            cqa_solvers::prop16::FKS,
            "N(a,a) O(a)",
        );
        assert!(l.contains("WITH RECURSIVE"), "{l}");
        let nl = emit_for(
            cqa_solvers::prop17::SCHEMA,
            cqa_solvers::prop17::QUERY,
            cqa_solvers::prop17::FKS,
            "N(i,c,1) O(1)",
        );
        assert!(nl.contains("WITH RECURSIVE"), "{nl}");
    }

    #[test]
    fn constants_with_quotes_are_escaped() {
        use cqa_model::{Cst, Fact, Instance, RelName};
        let s = Arc::new(parse_schema("N[2,1] O[1,1]").unwrap());
        let q = parse_query(&s, "N(x,y), O(y)").unwrap();
        let fks = parse_fks(&s, "N[2] -> O").unwrap();
        let solver = Solver::builder(Problem::new(q, fks).unwrap())
            .options(ExecOptions::sequential())
            .build()
            .unwrap();
        let mut db = Instance::new(s.clone());
        let tricky = Cst::new("it's");
        db.insert(Fact::new(RelName::new("N"), vec![tricky, Cst::new("b")]))
            .unwrap();
        db.insert(Fact::new(RelName::new("O"), vec![Cst::new("b")]))
            .unwrap();
        let script = emit_sql(&solver.emit_spec().unwrap(), &s, &db);
        check_sql(&script).unwrap();
        assert!(script.contains("'it''s'"), "{script}");
    }

    #[test]
    fn the_checker_rejects_malformed_scripts() {
        assert!(check_sql("SELECT 'oops FROM t;").is_err());
        assert!(check_sql("SELECT (1;").is_err());
        assert!(check_sql("DROP TABLE t;").is_err());
        assert!(check_sql("SELECT 1").is_err());
        assert!(check_sql("").is_err());
        assert!(check_sql("-- only a comment\n").is_err());
        check_sql("SELECT 1; -- trailing comment is fine\n").unwrap();
    }
}
