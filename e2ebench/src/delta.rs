//! `delta_stream`: a nested Lemma 45 instance loaded at set-up, then a
//! seeded stream of single-fact deltas through
//! `IncrementalSolver::reanswer`, mixing the three rungs of the reuse
//! ladder in fixed proportions (per 128 deltas: 32 unaffected, 95
//! localized, 1 recomputed). The p50 and the p99 both fall among the
//! cheap rungs: a recompute runs the whole plan, in parallel by default,
//! and its time swings from run to run with the host's load. Recomputes
//! still take about 40% of the stream's time, so they move `ops_per_s`:
//!
//! * `N(d, ·)` inserts/removes land in blocks the plan never reads →
//!   `Unaffected`;
//! * `N(c, y)` toggles link or unlink a unit → `Localized`;
//! * `P` toggles (breaking or repairing a unit) and fresh `M`/`Q`/`O`
//!   facts → `Recomputed`.
//!
//! The expected verdict is tracked by construction: certain iff no linked
//! unit lacks its `P` fact. Before set-up the oracle checks that rule on
//! down-scaled twins (`gen::l45_twins`): each unit kind whole and broken,
//! a broken unit linked and unlinked, and the fresh facts the stream
//! writes.

use crate::gen::{self, Arg, Db, Rng};
use crate::trace::{self, Summary, Tracer};
use crate::{alloc, growth_per_op, median, p99, windowed, Args, Report, WORK_DIR};
use cqa_core::{Certainty, DeltaOutcome, ExecOptions, Problem, Solver};
use cqa_model::parser::{parse_fks, parse_instance, parse_query, parse_schema};
use cqa_model::{Delta, Fact, Instance};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Units linked into the `N(c, ·)` block for good.
const BASE_UNITS: usize = 3_000;
/// Units the localized deltas link and unlink.
const TOGGLE_UNITS: usize = 200;
/// `N(d, ·)` blocks the unaffected deltas write to.
const NOISE_BLOCKS: usize = 1_000;
/// Fresh facts kept alive per kind before the oldest is removed again.
const FIFO_CAP: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Deltas between two live-heap snapshots.
const SNAPSHOT_EVERY: u64 = 2048;
/// Deltas per window for `ops_per_s` and `latency_p99_us`.
const WINDOW: usize = 2000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Rung {
    Unaffected,
    Localized,
    Recomputed,
}

struct Unit {
    y: Arg,
    /// The `w` whose `P` fact the recomputed deltas toggle.
    last_w: Arg,
    linked: bool,
}

/// Names gadget-local constants.
type Namer = Box<dyn FnMut(u32, &mut String)>;

/// The delta generator and its model of the instance.
struct Stream {
    rng: Rng,
    name: Namer,
    units: Vec<Unit>,
    toggles: std::ops::Range<usize>,
    noise: Vec<Arg>,
    p_missing: Option<usize>,
    fresh: u32,
    fifo_n: VecDeque<Fact>,
    fifo_other: VecDeque<Fact>,
    schedule: Vec<Rung>,
    recomputed: u64,
}

impl Stream {
    /// Builds the instance ([`BASE_UNITS`] linked units, [`TOGGLE_UNITS`]
    /// unlinked ones, [`NOISE_BLOCKS`] noise blocks) and the stream that
    /// mutates it.
    fn new(seed: u64) -> (Stream, Db) {
        let mut db = Db::default();
        let mut units = Vec::new();
        for i in 0..BASE_UNITS + TOGGLE_UNITS {
            let mconf = gen::l45_mconf(i);
            let [y, w, w2] = gen::l45_unit(&mut db, mconf, false, i < BASE_UNITS);
            units.push(Unit {
                y,
                last_w: if mconf { w2 } else { w },
                linked: i < BASE_UNITS,
            });
        }
        let noise: Vec<Arg> = (0..NOISE_BLOCKS)
            .map(|_| gen::noise_block(&mut db, false))
            .collect();
        let mut rng = Rng::new(seed);
        rng.shuffle(&mut db.facts);
        let stream = Stream {
            rng,
            name: Box::new(gen::seeded_name(seed)),
            units,
            toggles: BASE_UNITS..BASE_UNITS + TOGGLE_UNITS,
            noise,
            p_missing: None,
            // Fresh constants are numbered far above the instance's.
            fresh: 1 << 31,
            fifo_n: VecDeque::new(),
            fifo_other: VecDeque::new(),
            schedule: Vec::new(),
            recomputed: 0,
        };
        (stream, db)
    }

    fn fact(&mut self, rel: &'static str, args: &[Arg]) -> Fact {
        let mut db = Db::default();
        db.fact(rel, args);
        gen::to_fact(&db.facts[0], &mut self.name)
    }

    fn fresh(&mut self) -> Arg {
        self.fresh += 1;
        Arg::Local(self.fresh)
    }

    /// Whether the instance is currently a yes-instance.
    fn certain(&self) -> bool {
        self.p_missing.is_none_or(|u| !self.units[u].linked)
    }

    /// Inserts a fresh fact until the FIFO is full, then alternates
    /// removing the oldest and inserting — the same counts for every seed.
    fn churn(&mut self, which: Rung, make: impl FnOnce(&mut Stream) -> Fact) -> Delta {
        let mut delta = Delta::new();
        let full = match which {
            Rung::Unaffected => self.fifo_n.len(),
            _ => self.fifo_other.len(),
        } >= FIFO_CAP;
        let f = if full { None } else { Some(make(self)) };
        let fifo = match which {
            Rung::Unaffected => &mut self.fifo_n,
            _ => &mut self.fifo_other,
        };
        match f {
            None => {
                delta.remove(fifo.pop_front().expect("full FIFO"));
            }
            Some(f) => {
                fifo.push_back(f.clone());
                delta.insert(f);
            }
        }
        delta
    }

    /// The next delta and the verdict expected after it.
    fn next(&mut self) -> (Delta, bool) {
        if self.schedule.is_empty() {
            self.schedule = [
                (Rung::Unaffected, 32),
                (Rung::Localized, 95),
                (Rung::Recomputed, 1),
            ]
            .into_iter()
            .flat_map(|(rung, n)| std::iter::repeat_n(rung, n))
            .collect();
            self.rng.shuffle(&mut self.schedule);
        }
        let rung = self.schedule.pop().expect("refilled");
        // Recomputed deltas alternate a `P` toggle with fresh churn.
        if rung == Rung::Recomputed {
            self.recomputed += 1;
        }
        let delta = match rung {
            Rung::Unaffected => self.churn(rung, |s| {
                let d = s.noise[s.rng.below(s.noise.len())];
                let z = s.fresh();
                s.fact("N", &[d, z])
            }),
            Rung::Localized => {
                let u = self.toggles.start + self.rng.below(self.toggles.len());
                let y = self.units[u].y;
                let f = self.fact("N", &[Arg::Fixed("c"), y]);
                let mut delta = Delta::new();
                if self.units[u].linked {
                    delta.remove(f);
                } else {
                    delta.insert(f);
                }
                self.units[u].linked = !self.units[u].linked;
                delta
            }
            Rung::Recomputed if self.recomputed.is_multiple_of(2) => {
                let mut delta = Delta::new();
                match self.p_missing.take() {
                    Some(u) => {
                        let w = self.units[u].last_w;
                        delta.insert(self.fact("P", &[w]));
                    }
                    None => {
                        let u = self.rng.below(self.units.len());
                        let w = self.units[u].last_w;
                        delta.remove(self.fact("P", &[w]));
                        self.p_missing = Some(u);
                    }
                }
                delta
            }
            Rung::Recomputed => self.churn(rung, |s| {
                let (a, b) = (s.fresh(), s.fresh());
                match s.recomputed / 2 % 3 {
                    0 => s.fact("M", &[a, b]),
                    1 => s.fact("Q", &[a]),
                    _ => s.fact("O", &[a]),
                }
            }),
        };
        (delta, self.certain())
    }
}

struct Loaded {
    db: Instance,
    solver: Solver,
    /// Live heap of instance, index and solver session, per fact.
    bytes_per_fact: f64,
    /// Peak heap while parsing, indexing and answering, per fact.
    peak_bytes_per_fact: f64,
}

/// Set-up: parse the instance text, build the solver and answer once
/// (which builds the index).
fn setup(text: &str) -> Result<Loaded, String> {
    let base = alloc::live();
    alloc::reset_peak();
    let schema = Arc::new(parse_schema(gen::L45.schema).map_err(|e| e.to_string())?);
    let query = parse_query(&schema, gen::L45.query).map_err(|e| e.to_string())?;
    let fks = parse_fks(&schema, gen::L45.fks).map_err(|e| e.to_string())?;
    let problem = Problem::new(query, fks).map_err(|e| e.to_string())?;
    let solver = Solver::builder(problem)
        .options(ExecOptions::default())
        .build()
        .map_err(|e| e.to_string())?;
    let db = parse_instance(&schema, text).map_err(|e| e.to_string())?;
    // The first answer builds the index; the session is primed in `run`.
    if !solver.solve(&db).is_certain() {
        return Err("delta_stream: the loaded instance must be certain".to_string());
    }
    let facts = db.len() as f64;
    Ok(Loaded {
        db,
        solver,
        bytes_per_fact: (alloc::live() - base) as f64 / facts,
        peak_bytes_per_fact: (alloc::peak() - base) as f64 / facts,
    })
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let checked = Instant::now();
    gen::check_l45_twins()?;
    let oracle_s = checked.elapsed().as_secs_f64();
    // Generating the instance text is the generator's work, so it stays
    // outside the set-up clock.
    let (mut stream, gdb) = Stream::new(args.seed);
    let text = gen::render(&gdb.facts, "", gen::seeded_name(args.seed));
    drop(gdb);
    let t = Instant::now();
    let loaded = setup(&text)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let Loaded {
        mut db,
        solver,
        bytes_per_fact,
        peak_bytes_per_fact,
    } = loaded;
    let facts = db.len();
    let mut session = solver.incremental();
    if !session.solve(&db).is_certain() {
        return Err("delta_stream: the loaded instance must be certain".to_string());
    }
    // The twin `Instance::apply` is timed on (traced run only).
    let mut twin = args.trace.then(|| db.clone());

    let mut report = Report::default();
    let mut lat: Vec<f64> = Vec::with_capacity(1 << 21);
    let mut snaps: Vec<(u64, i64)> = Vec::with_capacity(1 << 14);
    let mut rungs = [0u64; 3];
    let (mut reused, mut evaluated) = (0u64, 0u64);
    let mut tracer = Tracer::new(false);
    let total = Duration::from_secs_f64(args.seconds);
    let phases: &[(bool, f64)] = if args.trace {
        &[(false, 0.5), (true, 1.0)]
    } else {
        &[(false, 1.0)]
    };
    let start = Instant::now();
    let mut ops = 0u64;
    for &(tracing, until) in phases {
        if tracing {
            tracer = Tracer::new(true);
        }
        while start.elapsed() < total.mul_f64(until) {
            // The other set-ups are spread over the run, so `setup_s`
            // samples the host's speed across it, not during one second.
            let due = total.mul_f64(setup_s.len() as f64 / SETUPS as f64);
            if setup_s.len() < SETUPS && start.elapsed() >= due {
                let t = Instant::now();
                let extra = setup(&text)?;
                setup_s.push(t.elapsed().as_secs_f64());
                drop(extra);
            }
            if ops.is_multiple_of(SNAPSHOT_EVERY) {
                snaps.push((ops, alloc::live()));
            }
            ops += 1;
            let (delta, certain) = stream.next();
            let t0 = Instant::now();
            let verdict = tracer.span("delta.op", |t| {
                let v = t.span("core.reanswer", |_| session.reanswer(&mut db, &delta));
                if let Ok(v) = &v {
                    t.relabel_last(match v.provenance.delta {
                        Some(DeltaOutcome::Unaffected) => "core.reanswer.unaffected",
                        Some(DeltaOutcome::Localized { .. }) => "core.reanswer.localized",
                        _ => "core.reanswer.recomputed",
                    });
                }
                if let Some(twin) = twin.as_mut().filter(|_| t.on()) {
                    t.span("model.apply", |_| twin.apply(&delta))
                        .map(drop)
                        .map_err(|e| e.to_string())?;
                }
                t.set_facts(delta.len() as u64);
                v.map_err(|e| e.to_string())
            });
            let ns = t0.elapsed().as_nanos() as f64;
            let ok = match &verdict {
                Ok(v) => {
                    v.certainty
                        == if certain {
                            Certainty::Certain
                        } else {
                            Certainty::NotCertain
                        }
                }
                Err(e) => {
                    eprintln!("delta_stream: {e}");
                    false
                }
            };
            report.check(ok);
            if let Ok(v) = &verdict {
                match v.provenance.delta {
                    Some(DeltaOutcome::Unaffected) => rungs[0] += 1,
                    Some(DeltaOutcome::Localized {
                        reused: r,
                        evaluated: e,
                    }) => {
                        rungs[1] += 1;
                        reused += r as u64;
                        evaluated += e as u64;
                    }
                    _ => rungs[2] += 1,
                }
            }
            if !tracing {
                lat.push(ns);
            }
        }
    }
    snaps.push((ops, alloc::live()));

    report.set("setup_s", median(&setup_s));
    report.set("ns_per_fact", median(&lat));
    report.set("bytes_per_fact", bytes_per_fact);
    report.set("peak_bytes_per_fact", peak_bytes_per_fact);
    report.set(
        "ops_per_s",
        windowed(&lat, WINDOW, |w| {
            w.len() as f64 / w.iter().sum::<f64>() * 1e9
        }),
    );
    report.set("latency_p50_us", median(&lat) / 1e3);
    report.set("latency_p99_us", windowed(&lat, WINDOW, p99) / 1e3);
    report.set("retained_bytes_per_op", growth_per_op(&snaps));
    report.set(
        "ok_share",
        trace::ratio(
            (report.attempted - report.failed) as f64,
            report.attempted as f64,
        ),
    );
    report.input("instance_facts", facts);
    report.input("oracle_check_s", format!("{oracle_s:.3}"));
    report.input("latency_samples", lat.len());
    let all = (rungs[0] + rungs[1] + rungs[2]).max(1) as f64;
    report.notes.push(format!(
        "delta_stream: {} deltas on {facts} facts; rungs unaffected {:.3}, localized {:.3}, recomputed {:.3}",
        ops,
        rungs[0] as f64 / all,
        rungs[1] as f64 / all,
        rungs[2] as f64 / all
    ));

    if args.trace {
        let spans = tracer.take();
        let s = Summary::of(&spans);
        trace::write_tsv(
            &std::path::Path::new(WORK_DIR).join(format!("spans-delta_stream-{}.tsv", args.seed)),
            &spans,
        )
        .map_err(|e| format!("span dump: {e}"))?;
        let n = ["unaffected", "localized", "recomputed"];
        let names = n.map(|r| format!("core.reanswer.{r}"));
        let calls: Vec<u64> = names.iter().map(|k| s.calls(k)).collect();
        let sum = calls.iter().sum::<u64>() as f64;
        report.set("core.reanswer.unaffected.us", s.us(&names[0]));
        report.set("core.reanswer.localized.us", s.us(&names[1]));
        report.set("core.reanswer.recomputed.us", s.us(&names[2]));
        report.set(
            "core.reanswer.rung_share.unaffected",
            trace::ratio(calls[0] as f64, sum),
        );
        report.set(
            "core.reanswer.rung_share.localized",
            trace::ratio(calls[1] as f64, sum),
        );
        report.set(
            "core.reanswer.rung_share.recomputed",
            trace::ratio(calls[2] as f64, sum),
        );
        report.set(
            "core.reanswer.reused_ratio",
            trace::ratio(reused as f64, (reused + evaluated) as f64),
        );
        report.set("model.apply.us", s.us("model.apply"));
        report.set(
            "trace.overhead_share",
            trace::ratio(s.op_us() * 1e3 - mean(&lat), mean(&lat)),
        );
        report.set("trace.uncovered_share", s.uncovered_share());
        report.set("trace.ops", s.ops as f64);
        report.set("trace.spans", spans.len() as f64);
    }
    Ok(report)
}

fn mean(v: &[f64]) -> f64 {
    trace::ratio(v.iter().sum(), v.len() as f64)
}
