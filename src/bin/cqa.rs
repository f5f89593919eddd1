//! `cqa` — command-line front end for consistent query answering with
//! primary keys and unary foreign keys.
//!
//! ```text
//! cqa classify --schema "N[3,1] O[2,1]" --query "N(x,'c',y), O(y,w)" --fks "N[3] -> O"
//! cqa rewrite  --schema … --query … --fks …            # print plan + formula
//! cqa sql      --schema … --query … --fks …            # rewriting as SQL
//! cqa solve    --schema … --query … --fks … --db db.txt  # unified solver (any class)
//! cqa answer   --schema … --query … --fks … --db db.txt  # FO-only legacy path
//! cqa oracle   --schema … --query … --fks … --db db.txt  # exhaustive check
//! cqa emit     --schema … --query … --fks … --db db.txt  # self-contained Datalog/SQL artifact
//! cqa analyze  --schema … --query … [--fks …]            # static IR audit + read-set
//! cqa analyze  --problem file.problem                    # same, from a problem file
//! cqa analyze  --fixture list | --fixture NAME           # built-in malformed IR
//! cqa analyze  --datalog artifact.dl                     # audit an emitted Datalog program
//! cqa serve    --socket /tmp/cqa.sock [--metrics-out m.json]  # persistent service
//! cqa request  --socket /tmp/cqa.sock --op ping          # one-shot protocol client
//! ```
//!
//! `emit` compiles the problem's route over one database into a
//! **self-contained artifact** (`--format datalog|sql`, default
//! `datalog`): DDL/facts plus the certainty program, runnable with no part
//! of this codebase present. `--out PATH` writes it to a file (default
//! stdout); `--execute` additionally runs a Datalog artifact through the
//! vendored semi-naïve evaluator and exits by its verdict. Problems whose
//! only route is the budgeted oracle have no polynomial-size artifact and
//! exit 4. Every command accepts `--problem file.problem` in place of the
//! `--schema`/`--query`/`--fks` flags; a `db:` line in the file supplies
//! an inline database (`--db` or `--db-text` overrides it).
//!
//! `solve` routes the problem to its best backend (compiled FO plan,
//! dual-Horn / reachability poly-time solver, or — with
//! `--fallback-budget N` — the budgeted exhaustive oracle) and prints the
//! verdict with provenance.
//!
//! `serve` runs the persistent solver service (`cqa_serve`): a
//! line-delimited JSON protocol on `--socket PATH` (Unix domain) or
//! `--tcp ADDR`, with an LRU plan cache (`--cache N` entries), admission
//! control (`--max-facts N`, which also caps request line bytes before
//! decode; hard-class requests must carry a budget) and
//! a metrics dump on shutdown (`--metrics-out PATH`). Unlike every other
//! command, `serve` validates `CQA_THREADS` **strictly** at startup and
//! refuses to start on an unparsable value — a long-lived server must not
//! silently degrade to defaults; `CQA_THREADS` sets its worker slots.
//! `request` is the matching one-shot client:
//! `--op ping|solve|emit|metrics|shutdown` (with the usual problem flags),
//! or a raw protocol line via `--line JSON`.
//!
//! Databases are text files of facts (`R(a,1); S(1,x)` — see
//! `cqa_model::parser`). Every command that reads a database also takes it
//! inline: `--db-text "R(a,1) S(1,x)"` in place of `--db FILE`. Giving
//! both, or any flag twice, is a usage error.
//!
//! ## Exit codes
//!
//! | code | meaning |
//! |------|---------|
//! | 0 | yes / certain (`classify`: in FO) |
//! | 1 | no / not certain (`classify`: not in FO) |
//! | 2 | usage or input error (including `serve` env-validation refusal) |
//! | 3 | inconclusive (fallback budget exhausted) or request rejected by admission control |
//! | 4 | `answer`, `sql`: the problem is **not FO-rewritable** — the query/FK pair is the wrong shape for the command, use `solve`. `emit`: the problem routes only to the budgeted oracle, so **no polynomial-size artifact exists**. Distinct from 1 so scripts can tell "the answer is no" from "wrong tool / no artifact". |

use cqa::core::flatten::flatten;
use cqa::prelude::*;
use cqa::problem_file::parse_problem_file;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    command: String,
    schema: Option<String>,
    query: Option<String>,
    fks: String,
    db: Option<String>,
    problem_file: Option<String>,
    fixture: Option<String>,
    datalog_file: Option<String>,
    format: Option<Format>,
    out: Option<String>,
    execute: bool,
    fallback_budget: Option<u64>,
    // serve / request flags
    socket: Option<String>,
    tcp: Option<String>,
    cache: Option<usize>,
    max_facts: Option<usize>,
    metrics_out: Option<String>,
    op: Option<String>,
    db_text: Option<String>,
    line: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(usage)?;
    let mut args = Args {
        command,
        schema: None,
        query: None,
        fks: String::new(),
        db: None,
        problem_file: None,
        fixture: None,
        datalog_file: None,
        format: None,
        out: None,
        execute: false,
        fallback_budget: None,
        socket: None,
        tcp: None,
        cache: None,
        max_facts: None,
        metrics_out: None,
        op: None,
        db_text: None,
        line: None,
    };
    let mut seen = std::collections::HashSet::new();
    while let Some(flag) = argv.next() {
        if !seen.insert(flag.clone()) {
            return Err(format!("{flag} given twice\n{}", usage()));
        }
        if flag == "--execute" {
            args.execute = true;
            continue;
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--schema" => args.schema = Some(value),
            "--query" => args.query = Some(value),
            "--fks" => args.fks = value,
            "--db" => args.db = Some(value),
            "--problem" => args.problem_file = Some(value),
            "--fixture" => args.fixture = Some(value),
            "--datalog" => args.datalog_file = Some(value),
            "--format" => args.format = Some(value.parse().map_err(|e| format!("--format: {e}"))?),
            "--out" => args.out = Some(value),
            "--fallback-budget" => {
                args.fallback_budget =
                    Some(value.parse().map_err(|e| format!("--fallback-budget: {e}"))?)
            }
            "--socket" => args.socket = Some(value),
            "--tcp" => args.tcp = Some(value),
            "--cache" => {
                args.cache = Some(value.parse().map_err(|e| format!("--cache: {e}"))?)
            }
            "--max-facts" => {
                args.max_facts = Some(value.parse().map_err(|e| format!("--max-facts: {e}"))?)
            }
            "--metrics-out" => args.metrics_out = Some(value),
            "--op" => args.op = Some(value),
            "--db-text" => args.db_text = Some(value),
            "--line" => args.line = Some(value),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if args.db.is_some() && args.db_text.is_some() {
        return Err(format!("--db and --db-text are exclusive\n{}", usage()));
    }
    Ok(args)
}

fn usage() -> String {
    "usage: cqa <classify|rewrite|sql|solve|answer|oracle|emit|analyze|serve|request> \
     --schema \"R[2,1] …\" --query \"R(x,y), …\" [--fks \"R[2] -> S, …\"] \
     [--db facts.txt | --db-text \"R(a,1) …\"] \
     [--problem file.problem] [--fixture NAME|list] [--datalog artifact.dl] \
     [--fallback-budget N]\n\
     emit:    --format datalog|sql  [--out PATH] [--execute]  \
     (self-contained artifact; exit 4 when only the oracle route exists)\n\
     serve:   --socket PATH | --tcp ADDR  [--cache N] [--max-facts N] [--metrics-out PATH] \
     (refuses to start on invalid CQA_THREADS)\n\
     request: --socket PATH | --tcp ADDR  [--op ping|solve|emit|metrics|shutdown] \
     [--line '{\"op\":…}']\n\
     exit codes: 0 yes/certain · 1 no/not-certain · 2 usage or input error · \
     3 inconclusive or rejected · 4 not-FO (answer, sql) / no artifact (emit)"
        .to_string()
}

/// The CLI's outcome, mapped to exit codes in `main`.
enum Outcome {
    /// Yes / certain / in FO — exit 0.
    Yes,
    /// No / not certain / not in FO — exit 1.
    No,
    /// Budget exhausted or request rejected by admission control — exit 3.
    Inconclusive,
    /// `cqa answer`/`cqa sql`: the problem is not FO-rewritable, so the
    /// command is the wrong tool (use `cqa solve`); `cqa emit`: no
    /// artifact exists — exit 4, distinct from the "certain no" exit 1.
    NotFo,
}

/// `cqa analyze`: the static IR auditor. Dispatched before the
/// `--schema`/`--query` requirement because the fixture and `--datalog`
/// modes need neither.
fn run_analyze(args: &Args) -> Result<Outcome, String> {
    if let Some(path) = &args.datalog_file {
        // Audit an emitted (or hand-written) Datalog artifact: parse,
        // then check range-restriction and stratifiability.
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let program = cqa::emit::datalog::Program::parse(&text)
            .map_err(|e| format!("{path}: {e}"))?;
        println!("datalog: {} rules", program.rules.len());
        let report = cqa::analyze::audit_program(&program);
        print!("{report}");
        return Ok(if report.is_clean() {
            Outcome::Yes
        } else {
            Outcome::No
        });
    }
    if let Some(name) = &args.fixture {
        if name == "list" {
            for f in cqa::analyze::fixtures::all() {
                println!("{:<26} [{}] {}", f.name, f.expect, f.describe);
            }
            return Ok(Outcome::Yes);
        }
        let f = cqa::analyze::fixtures::by_name(name)
            .ok_or_else(|| format!("unknown fixture `{name}` (see --fixture list)"))?;
        println!("fixture `{}`: {}", f.name, f.describe);
        print!("{}", f.audit());
        // Fixtures are malformed by construction: the audit must fail.
        return Ok(Outcome::No);
    }

    // `analyze` is static: a `db:` line in the problem file is ignored.
    let (schema_text, query_text, fks_text, _db) = problem_inputs(args)?;
    let schema = Arc::new(parse_schema(&schema_text).map_err(|e| e.to_string())?);
    let query = parse_query(&schema, &query_text).map_err(|e| e.to_string())?;
    let fks = parse_fks(&schema, &fks_text).map_err(|e| e.to_string())?;
    let problem = Problem::new(query, fks).map_err(|e| e.to_string())?;
    println!("problem: {problem}");

    match problem.classify() {
        Classification::Fo(plan) => {
            let compiled = CompiledPlan::compile(&plan).map_err(|e| e.to_string())?;
            println!("class: FO-rewritable (depth-{} reduction plan)", plan.depth());
            let report = compiled.audit();
            if !report.is_clean() {
                print!("{report}");
                return Ok(Outcome::No);
            }
            println!("{report}");
            println!("read-set: {}", compiled.read_set());
            Ok(Outcome::Yes)
        }
        Classification::NotFo(reason) => {
            // No compiled IR to audit — report the class and the coarse
            // (whole-relation) read-set the incremental solver falls back
            // to on this route.
            println!("class: not FO — {reason}");
            let mut rels: std::collections::BTreeSet<RelName> =
                problem.query().atoms().iter().map(|a| a.rel).collect();
            for fk in problem.fks().iter() {
                rels.insert(fk.from);
                rels.insert(fk.to);
            }
            println!("read-set (coarse): {}", ReadSet::whole_over(rels));
            Ok(Outcome::Yes)
        }
    }
}

/// Resolves the problem text from `--problem` and/or the explicit flags
/// (explicit flags win over file fields). The fourth component is the
/// file's inline `db:` facts, if any.
fn problem_inputs(args: &Args) -> Result<(String, String, String, Option<String>), String> {
    let file = match &args.problem_file {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Some(parse_problem_file(&text).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };
    let (f_schema, f_query, f_fks, f_db) = match file {
        Some(f) => (Some(f.schema), Some(f.query), Some(f.fks), f.db),
        None => (None, None, None, None),
    };
    Ok((
        args.schema.clone().or(f_schema).ok_or("missing --schema")?,
        args.query.clone().or(f_query).ok_or("missing --query")?,
        if args.fks.is_empty() {
            f_fks.unwrap_or_default()
        } else {
            args.fks.clone()
        },
        f_db,
    ))
}

/// `cqa serve`: the persistent solver service. Validates `CQA_THREADS`
/// **strictly** before binding — a long-lived server that silently
/// degraded a typo to the default width would run mis-sized until someone
/// noticed; refusing to start is the only honest behavior.
fn run_serve(args: &Args) -> Result<Outcome, String> {
    // Strict env validation (exit 2 on failure). The lenient reader used
    // by `ExecOptions::default()` resolves the same value once this check
    // passes.
    rayon_lite::env_threads().map_err(|e| format!("refusing to serve: {e}"))?;

    let endpoint = cqa::serve::Endpoint::from_flags(args.socket.as_deref(), args.tcp.as_deref())?;
    let mut defaults = ExecOptions::default();
    if let Some(budget) = args.fallback_budget {
        defaults = defaults.with_fallback(SearchLimits::budgeted(budget));
    }
    let config = cqa::serve::ServeConfig {
        defaults,
        cache_capacity: args.cache.unwrap_or(64),
        max_facts: args.max_facts,
    };
    let service = Arc::new(cqa::serve::Service::new(config));
    eprintln!("cqa serve: listening on {endpoint}");
    cqa::serve::serve(
        &service,
        &endpoint,
        args.metrics_out.as_deref().map(std::path::Path::new),
    )
    .map_err(|e| format!("serve: {e}"))?;
    eprintln!(
        "cqa serve: shut down ({} cache hits, {} misses)",
        service.metrics().hits(),
        service.metrics().misses()
    );
    Ok(Outcome::Yes)
}

/// `cqa request`: one-shot protocol client. Builds the request line from
/// the usual problem flags (or takes it verbatim via `--line`), prints
/// the server's reply, and maps it onto the CLI exit codes.
fn run_request(args: &Args) -> Result<Outcome, String> {
    use serde_json::Value;
    let endpoint = cqa::serve::Endpoint::from_flags(args.socket.as_deref(), args.tcp.as_deref())?;
    let line = match &args.line {
        Some(line) => line.clone(),
        None => {
            let op = args.op.clone().unwrap_or_else(|| "solve".to_string());
            let mut fields = std::collections::BTreeMap::new();
            fields.insert("op".to_string(), Value::String(op.clone()));
            if op == "emit" {
                if let Some(format) = args.format {
                    fields.insert("format".to_string(), Value::String(format.to_string()));
                }
            }
            if op == "solve" || op == "emit" {
                let db_text = match (&args.db_text, &args.db) {
                    (Some(text), _) => text.clone(),
                    (None, Some(path)) => {
                        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
                    }
                    (None, None) => return Err("missing --db or --db-text".to_string()),
                };
                fields.insert(
                    "schema".to_string(),
                    Value::String(args.schema.clone().ok_or("missing --schema")?),
                );
                fields.insert(
                    "query".to_string(),
                    Value::String(args.query.clone().ok_or("missing --query")?),
                );
                fields.insert("fks".to_string(), Value::String(args.fks.clone()));
                fields.insert("db".to_string(), Value::String(db_text));
                if let Some(b) = args.fallback_budget {
                    fields.insert("budget".to_string(), Value::Number(b as f64));
                }
            }
            serde_json::to_string(&Value::Object(fields)).expect("request serialization")
        }
    };
    let reply = cqa::serve::request(&endpoint, &line).map_err(|e| format!("request: {e}"))?;
    println!("{reply}");
    let parsed = serde_json::from_str(&reply).map_err(|e| format!("unparsable reply: {e}"))?;
    if parsed.get("ok").and_then(Value::as_bool) != Some(true) {
        if parsed.get("rejected").and_then(Value::as_bool) == Some(true) {
            return Ok(Outcome::Inconclusive);
        }
        return Err(parsed
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("request failed")
            .to_string());
    }
    match parsed.get("certainty").and_then(Value::as_str) {
        Some("certain") | None => Ok(Outcome::Yes),
        Some("not certain") => Ok(Outcome::No),
        _ => Ok(Outcome::Inconclusive),
    }
}

fn run() -> Result<Outcome, String> {
    let args = parse_args()?;
    if args.command == "analyze" {
        return run_analyze(&args);
    }
    if args.command == "serve" {
        return run_serve(&args);
    }
    if args.command == "request" {
        return run_request(&args);
    }
    let (schema_text, query_text, fks_text, inline_db) = problem_inputs(&args)?;
    let schema = Arc::new(parse_schema(&schema_text).map_err(|e| e.to_string())?);
    let query = parse_query(&schema, &query_text).map_err(|e| e.to_string())?;
    let fks = parse_fks(&schema, &fks_text).map_err(|e| e.to_string())?;
    let problem = Problem::new(query, fks).map_err(|e| e.to_string())?;

    let load_db = || -> Result<Instance, String> {
        let text = match (&args.db, &args.db_text, &inline_db) {
            (Some(path), _, _) => {
                std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
            }
            (None, Some(text), _) | (None, None, Some(text)) => text.clone(),
            (None, None, None) => {
                return Err("missing --db or --db-text (or a `db:` line in --problem)".to_string())
            }
        };
        parse_instance(&schema, &text).map_err(|e| e.to_string())
    };

    let yn = |b: bool| if b { Outcome::Yes } else { Outcome::No };

    match args.command.as_str() {
        "classify" => match problem.classify() {
            Classification::Fo(plan) => {
                println!("in FO — consistent first-order rewriting constructed");
                println!("{plan}");
                Ok(Outcome::Yes)
            }
            Classification::NotFo(reason) => {
                println!("not in FO — {reason}");
                Ok(Outcome::No)
            }
        },
        "rewrite" => match problem.classify() {
            Classification::Fo(plan) => {
                println!("{plan}");
                let f = flatten(&plan).map_err(|e| e.to_string())?;
                println!("\nflattened: {f}");
                println!("ascii    : {}", f.ascii());
                Ok(Outcome::Yes)
            }
            Classification::NotFo(reason) => {
                println!("not in FO — {reason}");
                Ok(Outcome::No)
            }
        },
        "sql" => {
            let plan = match problem.classify() {
                Classification::Fo(plan) => plan,
                Classification::NotFo(reason) => {
                    eprintln!(
                        "not FO-rewritable ({reason}); no SQL rewriting exists, use `cqa solve`"
                    );
                    return Ok(Outcome::NotFo);
                }
            };
            let f = flatten(&plan).map_err(|e| e.to_string())?;
            let (ddl, expr) = cqa::fo::to_sql(&schema, &f).map_err(|e| e.to_string())?;
            println!("{ddl}");
            println!("SELECT CASE WHEN {expr} THEN 1 ELSE 0 END AS certain;");
            Ok(Outcome::Yes)
        }
        "solve" => {
            let mut options = ExecOptions::default();
            if let Some(budget) = args.fallback_budget {
                options = options.with_fallback(SearchLimits::budgeted(budget));
            }
            let solver = Solver::builder(problem)
                .options(options)
                .build()
                .map_err(|e| format!("{e}\n(hint: pass --fallback-budget N to opt in)"))?;
            println!("route: {}", solver.route());
            let db = load_db()?;
            if let Route::Fallback(fallback) = solver.route() {
                if !fallback.oracle().within_budget(&db, solver.problem().fks()) {
                    eprintln!(
                        "note: candidate space exceeds the fallback budget — expect an \
                         inconclusive verdict (raise --fallback-budget)"
                    );
                }
            }
            let verdict = solver.solve(&db);
            println!("{verdict}");
            match verdict.certainty {
                Certainty::Certain => Ok(Outcome::Yes),
                Certainty::NotCertain => Ok(Outcome::No),
                Certainty::Inconclusive => Ok(Outcome::Inconclusive),
            }
        }
        "emit" => {
            let format = args.format.unwrap_or(Format::Datalog);
            if args.execute && format != Format::Datalog {
                return Err("--execute runs the vendored Datalog evaluator; \
                            it requires --format datalog"
                    .to_string());
            }
            let mut options = ExecOptions::default();
            if let Some(budget) = args.fallback_budget {
                options = options.with_fallback(SearchLimits::budgeted(budget));
            }
            // Hard-class problems have no polynomial-size artifact whether
            // or not a fallback budget was supplied: exit 4 either way.
            let no_artifact = |reason: &dyn std::fmt::Display| {
                eprintln!(
                    "cannot emit: {reason} — the only route is the budgeted oracle, \
                     and there is no polynomial-size artifact for it"
                );
            };
            let solver = match Solver::builder(problem).options(options).build() {
                Ok(solver) => solver,
                Err(SolverError::HardWithoutFallback(reason)) => {
                    no_artifact(&reason);
                    return Ok(Outcome::NotFo);
                }
            };
            let db = load_db()?;
            let artifact = match solver.emit(&db, format) {
                Ok(artifact) => artifact,
                Err(EmitError::Spec(reason @ EmitSpecError::FallbackOnly)) => {
                    no_artifact(&reason);
                    return Ok(Outcome::NotFo);
                }
                Err(e) => return Err(e.to_string()),
            };
            match &args.out {
                Some(path) => {
                    std::fs::write(path, &artifact.text).map_err(|e| format!("{path}: {e}"))?;
                    eprintln!(
                        "wrote {} artifact (route: {}, goal: {}) to {path}",
                        artifact.format, artifact.route, artifact.goal
                    );
                }
                None => print!("{}", artifact.text),
            }
            if args.execute {
                let program = cqa::emit::datalog::Program::parse(&artifact.text)
                    .map_err(|e| format!("emitted artifact failed to re-parse: {e}"))?;
                let ev = evaluate(&program).map_err(|e| e.to_string())?;
                let holds = ev.holds(&artifact.goal);
                println!(
                    "executed: {} ({} facts derived, {} rounds)",
                    if holds { "certain" } else { "not certain" },
                    ev.derived(),
                    ev.rounds()
                );
                return Ok(yn(holds));
            }
            Ok(Outcome::Yes)
        }
        "answer" => {
            // The FO-only legacy path, now a thin alias of the solver's
            // FO route. Anything not FO exits 4 — NOT 1 (a certain "no")
            // and NOT 2 (a malformed invocation): the problem is valid,
            // `answer` is just the wrong tool for its class, and scripts
            // need to tell those apart.
            let not_fo = "use `cqa solve` (with --fallback-budget for the hard class) \
                          or `cqa oracle` for small instances";
            let solver = match Solver::new(problem) {
                Ok(solver) => solver,
                Err(r) => {
                    eprintln!("not FO-rewritable ({r}); {not_fo}");
                    return Ok(Outcome::NotFo);
                }
            };
            if solver.route().kind() != RouteKind::Fo {
                eprintln!("not FO-rewritable (routed {}); {not_fo}", solver.route());
                return Ok(Outcome::NotFo);
            }
            let db = load_db()?;
            let ans = solver.solve(&db).is_certain();
            println!(
                "{}",
                if ans {
                    "certain: the query holds in every ⊕-repair"
                } else {
                    "not certain: some ⊕-repair falsifies the query"
                }
            );
            Ok(yn(ans))
        }
        "oracle" => {
            let db = load_db()?;
            // --fallback-budget raises/lowers the search limits here too,
            // so a user hitting "inconclusive" can re-budget in place.
            let oracle = match args.fallback_budget {
                Some(budget) => CertaintyOracle::with_limits(SearchLimits::budgeted(budget)),
                None => CertaintyOracle::new(),
            };
            match oracle.is_certain(&db, problem.query(), problem.fks()) {
                OracleOutcome::Certain => {
                    println!("certain (exhaustive search)");
                    Ok(Outcome::Yes)
                }
                OracleOutcome::NotCertain(witness) => {
                    println!("not certain; falsifying ⊕-repair: {witness}");
                    Ok(Outcome::No)
                }
                OracleOutcome::Inconclusive(why) => {
                    println!("inconclusive: {why} (raise --fallback-budget)");
                    Ok(Outcome::Inconclusive)
                }
            }
        }
        other => Err(format!("unknown command {other}\n{}", usage())),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(Outcome::Yes) => ExitCode::SUCCESS,
        Ok(Outcome::No) => ExitCode::from(1),
        Ok(Outcome::Inconclusive) => ExitCode::from(3),
        Ok(Outcome::NotFo) => ExitCode::from(4),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
