//! `batch_solve`: the `cqa solve` path — instance file text → verdict —
//! on the nested Lemma 45 problem at ~10⁵ facts, alternating a
//! yes-instance with a no-instance (one `P` fact removed).
//!
//! Every repetition runs in a fresh process (this binary re-executed with
//! [`CHILD_FLAG`]) so it starts from an empty process-global interner, as
//! `cqa solve` does; in-process repeats would skip first-time interning.

use crate::gen::{self, Rng};
use crate::trace::{self, Span, Summary, Tracer};
use crate::{alloc, median, quantile, Args, Report, WORK_DIR};
use cqa_core::{Certainty, ExecOptions, Problem, Solver};
use cqa_model::parser::{parse_fks, parse_instance, parse_query, parse_schema};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// First argument that turns this binary into one batch repetition.
pub const CHILD_FLAG: &str = "--batch-child";

/// Units of the instance (≈5.95 facts each: ~10⁵ facts).
const UNITS: usize = 16_800;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Span names a child may report.
const NAMES: [&str; 5] = [
    "batch.rep",
    "core.build",
    "model.parser",
    "model.index",
    "core.solve",
];

struct Inputs {
    yes: PathBuf,
    no: PathBuf,
    facts: [usize; 2],
}

/// Writes the yes- and no-instance files.
fn write_inputs(seed: u64) -> Result<Inputs, String> {
    let mut rng = Rng::new(seed);
    let broken = rng.below(UNITS);
    let dir = Path::new(WORK_DIR);
    let (yes, no) = (dir.join("batch-yes.txt"), dir.join("batch-no.txt"));
    let mut facts = [0; 2];
    for (i, (certain, path)) in [(true, &yes), (false, &no)].into_iter().enumerate() {
        let mut db = gen::l45_db(UNITS, (!certain).then_some(broken));
        rng.shuffle(&mut db.facts);
        facts[i] = db.facts.len();
        let text = gen::render(&db.facts, "", gen::seeded_name(seed));
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(Inputs { yes, no, facts })
}

/// One repetition's measurements, as reported by the child.
struct Rep {
    certainty: String,
    facts: f64,
    ns: f64,
    live: f64,
    peak: f64,
    retained: f64,
    spans: Vec<Span>,
}

fn rep(exe: &Path, file: &Path, traced: bool) -> Result<Rep, String> {
    let out = Command::new(exe)
        .arg(CHILD_FLAG)
        .arg(file)
        .arg(if traced { "1" } else { "0" })
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "repetition failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let v = serde_json::from_str(text.trim()).map_err(|e| format!("child output: {e}"))?;
    let num = |k: &str| {
        v.get(k)
            .and_then(Value::as_f64)
            .ok_or(format!("child output lacks {k}"))
    };
    let mut spans = Vec::new();
    for s in v.get("spans").and_then(Value::as_array).unwrap_or(&[]) {
        let f = |i: usize| {
            s.as_array()
                .and_then(|a| a.get(i))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        let name = s
            .as_array()
            .and_then(|a| a.first())
            .and_then(Value::as_str)
            .unwrap_or("");
        let name = NAMES
            .iter()
            .copied()
            .find(|n| *n == name)
            .ok_or("unknown span name")?;
        spans.push(Span {
            name,
            start: f(1) as u64,
            end: f(2) as u64,
            parent: (f(3) >= 0.0).then_some(f(3) as usize),
            op: 0,
            bytes: f(4) as i64,
            facts: f(5) as u64,
        });
    }
    Ok(Rep {
        certainty: v
            .get("certainty")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        facts: num("facts")?,
        ns: num("ns")?,
        live: num("live")?,
        peak: num("peak")?,
        retained: num("retained")?,
        spans,
    })
}

/// One repetition in this (fresh) process: `argv` is the instance file and
/// the trace flag. Prints one JSON line.
pub fn child(argv: &[String]) -> ExitCode {
    let (Some(path), Some(flag)) = (argv.first(), argv.get(1)) else {
        eprintln!("usage: {CHILD_FLAG} FILE 0|1");
        return ExitCode::from(2);
    };
    let base = alloc::live();
    alloc::reset_peak();
    let mut t = Tracer::new(flag == "1");
    let start = Instant::now();
    let result = t.span("batch.rep", |t| -> Result<_, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        // What `cqa solve` does, in its order: build the solver, load the
        // database, answer.
        let (schema, solver) = t.span("core.build", |_| -> Result<_, String> {
            let schema = Arc::new(parse_schema(gen::L45.schema).map_err(|e| e.to_string())?);
            let query = parse_query(&schema, gen::L45.query).map_err(|e| e.to_string())?;
            let fks = parse_fks(&schema, gen::L45.fks).map_err(|e| e.to_string())?;
            let problem = Problem::new(query, fks).map_err(|e| e.to_string())?;
            let solver = Solver::builder(problem)
                .options(ExecOptions::default())
                .build()
                .map_err(|e| e.to_string())?;
            Ok((schema, solver))
        })?;
        let db = t
            .span("model.parser", |_| parse_instance(&schema, &text))
            .map_err(|e| e.to_string())?;
        drop(text);
        t.span("model.index", |_| {
            std::hint::black_box(db.index());
        });
        let live = alloc::live() - base;
        let verdict = t.span("core.solve", |_| solver.solve(&db));
        t.set_facts(db.len() as u64);
        Ok((verdict.certainty, db.len(), live, solver, db))
    });
    let ns = start.elapsed().as_nanos();
    let peak = alloc::peak() - base;
    let (certainty, facts, live, solver, db) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    drop((solver, db));
    let retained = alloc::live() - base;
    let spans: Vec<String> = t
        .take()
        .iter()
        .map(|s| {
            let parent = s.parent.map_or(-1, |p| p as i64);
            format!(
                "[\"{}\",{},{},{parent},{},{}]",
                s.name, s.start, s.end, s.bytes, s.facts
            )
        })
        .collect();
    println!(
        "{{\"certainty\":\"{certainty}\",\"facts\":{facts},\"ns\":{ns},\"live\":{live},\
         \"peak\":{peak},\"retained\":{retained},\"spans\":[{}]}}",
        spans.join(",")
    );
    ExitCode::SUCCESS
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let checked = Instant::now();
    gen::check_l45_twins()?;
    let oracle_s = checked.elapsed().as_secs_f64();
    // Set-up: one warm-up repetition (executable, page cache). Writing the
    // inputs is the generator's work, so it stays outside the clock.
    let inputs = write_inputs(args.seed)?;
    let mut setup_s = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        rep(&exe, &inputs.yes, false)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let mut report = Report::default();
    report.input("oracle_check_s", format!("{oracle_s:.3}"));
    // Untraced repetitions, their latencies per instance (yes, no), and the
    // yes-instance repetitions, whose byte counts repeat exactly.
    let mut untraced: Vec<Rep> = Vec::new();
    let mut by_instance: [Vec<f64>; 2] = Default::default();
    let mut yes_bytes: Vec<[f64; 3]> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let total = Duration::from_secs_f64(args.seconds);
    // The traced run spends its first half untraced, for the overhead.
    let phases: &[(bool, f64)] = if args.trace {
        &[(false, 0.5), (true, 1.0)]
    } else {
        &[(false, 1.0)]
    };
    let start = Instant::now();
    let mut i = 0usize;
    for &(tracing, until) in phases {
        while start.elapsed() < total.mul_f64(until) || (tracing && traced.len() < 2) {
            let certain = i.is_multiple_of(2);
            i += 1;
            let file = if certain { &inputs.yes } else { &inputs.no };
            match rep(&exe, file, tracing) {
                Ok(r) => {
                    let want = if certain {
                        Certainty::Certain
                    } else {
                        Certainty::NotCertain
                    };
                    report.check(r.certainty == want.to_string());
                    if tracing {
                        traced.push(r)
                    } else {
                        by_instance[usize::from(!certain)].push(r.ns);
                        if certain {
                            yes_bytes.push([r.live / r.facts, r.peak / r.facts, r.retained]);
                        }
                        untraced.push(r)
                    }
                }
                Err(e) => {
                    eprintln!("batch_solve: {e}");
                    report.check(false);
                }
            }
        }
    }

    let col = |reps: &[Rep], f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let ns = col(&untraced, |r| r.ns);
    report.set("setup_s", median(&setup_s));
    report.set("ns_per_fact", median(&col(&untraced, |r| r.ns / r.facts)));
    let bytes = |i: usize| median(&yes_bytes.iter().map(|b| b[i]).collect::<Vec<_>>());
    report.set("bytes_per_fact", bytes(0));
    report.set("peak_bytes_per_fact", bytes(1));
    report.set("ops_per_s", trace::ratio(1e9, median(&ns)));
    report.set("latency_p50_us", median(&ns) / 1e3);
    // Two inputs and ~30 repetitions give no empirical p99: the tail over
    // inputs is the slower instance's median latency.
    let slower = median(&by_instance[0]).max(median(&by_instance[1]));
    report.set("latency_p99_us", slower / 1e3);
    report.set("retained_bytes_per_op", bytes(2));
    report.set(
        "ok_share",
        trace::ratio(
            (report.attempted - report.failed) as f64,
            report.attempted as f64,
        ),
    );
    report.input("facts_yes", inputs.facts[0]);
    report.input("facts_no", inputs.facts[1]);
    report.input("latency_samples", ns.len());
    report.notes.push(format!(
        "batch_solve: {} untraced repetitions; p50 {:.0} us; median yes {:.0} us, no {:.0} us \
         (latency_p99_us is the slower of the two; the empirical p99 of {} samples, {:.0} us, is their maximum)",
        ns.len(),
        median(&ns) / 1e3,
        median(&by_instance[0]) / 1e3,
        median(&by_instance[1]) / 1e3,
        ns.len(),
        quantile(&ns, 0.99) / 1e3,
    ));

    if args.trace {
        let mut tracer = Tracer::new(true);
        let traced_ns = col(&traced, |r| r.ns);
        for r in traced {
            tracer.absorb(r.spans);
        }
        let spans = tracer.take();
        let s = Summary::of(&spans);
        trace::write_tsv(
            &Path::new(WORK_DIR).join(format!("spans-batch_solve-{}.tsv", args.seed)),
            &spans,
        )
        .map_err(|e| format!("span dump: {e}"))?;
        report.set("model.parser.ns_per_fact", s.ns_per_fact("model.parser"));
        report.set("model.parser.share", s.share("model.parser"));
        report.set("model.index.ns_per_fact", s.ns_per_fact("model.index"));
        report.set("model.index.share", s.share("model.index"));
        let parse_index = s.share("model.parser") + s.share("model.index");
        report.set("model.parse_index.share", parse_index);
        report.set(
            "model.store.bytes_per_fact",
            s.bytes_per_fact("model.parser"),
        );
        report.set(
            "model.index.bytes_per_fact",
            s.bytes_per_fact("model.index"),
        );
        report.set("core.build.us", s.us("core.build"));
        report.set("core.build.share", s.share("core.build"));
        report.set("core.solve.ns_per_fact", s.ns_per_fact("core.solve"));
        report.set("core.solve.share", s.share("core.solve"));
        report.set("core.solve.fo.us", s.us("core.solve"));
        report.set(
            "trace.overhead_share",
            trace::ratio(median(&traced_ns) - median(&ns), median(&ns)),
        );
        report.set("trace.uncovered_share", s.uncovered_share());
        report.set("trace.ops", s.ops as f64);
        report.set("trace.spans", spans.len() as f64);
        let agrees = (parse_index - 0.90).abs() <= 0.10;
        report.notes.push(format!(
            "batch_solve: parser + index take {:.1}% of file-to-verdict wall time and the solve {:.1}% \
             (ROADMAP: ≈90% and ≈5%); {}",
            parse_index * 100.0,
            s.share("core.solve") * 100.0,
            if agrees { "these agree" } else { "these DISAGREE with the ROADMAP figure" }
        ));
    }
    Ok(report)
}
