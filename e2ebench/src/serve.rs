//! `serve_mixed`: a closed loop of [`CLIENTS`] client threads, each with
//! one persistent Unix-socket connection to `cqa_serve::net::serve`
//! running `ServeConfig::default()` in this process.
//!
//! Requests carry small databases (5–320 facts, skewed small) with fresh
//! constants on every request, over five problems covering all three
//! routes. [`NOVEL_PER_MILLE`] of the requests rename the relations of
//! their problem to a never-seen name, forcing a plan-cache miss
//! (`Solver::build`) and, past the default capacity of 64, LRU evictions.
//!
//! The traced run replays each request's layers in-process next to the
//! socket round trip: `Service::handle_line` on a twin service, then the
//! same steps `Service::handle_line` takes (decode, `PlanCache::get_or_build`,
//! `parse_instance`, `Solver::solve_with`, encode) on a twin plan cache,
//! each in its own span. The replay's reply must equal the twin service's
//! (`elapsed_us` aside), or the request counts as failed.

use crate::gen::{self, Family, GFact, Rng, FAMILIES};
use crate::trace::{self, Span, Summary, Tracer};
use crate::{alloc, growth_per_op, median, p99, Args, Report, WORK_DIR};
use cqa_core::solver::{Evaluator, FallbackBudget, RouteKind};
use cqa_core::Certainty;
use cqa_model::parser::parse_instance;
use cqa_repair::{CertaintyOracle, SearchLimits};
use cqa_serve::{Endpoint, Lookup, PlanCache, RawKey, ServeConfig, Service};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client threads (one persistent connection each).
const CLIENTS: usize = 2;
/// Requests per thousand whose problem text was never seen before.
const NOVEL_PER_MILLE: usize = 30;
/// Database sizes (facts) and their weights out of 64.
const SIZES: [(usize, usize); 7] = [
    (5, 32),
    (10, 16),
    (20, 8),
    (40, 4),
    (80, 2),
    (160, 1),
    (320, 1),
];
/// Templates per (problem, size, verdict).
const VARIANTS: usize = 2;
/// Largest oracle search space checked directly; larger databases are
/// checked through a down-scaled twin.
const ORACLE_DIRECT: u64 = 4_096;
/// Set-ups per run; `setup_s` is their median. A set-up takes milliseconds,
/// part of them the accept loop's 2 ms polling, so many are taken.
const SETUPS: usize = 31;
/// Requests of client 0 between two live-heap snapshots.
const SNAPSHOT_EVERY: u64 = 128;
/// Requests of one client per window for `ops_per_s` and `latency_p99_us`
/// (at least ten beyond the p99 of each window).
const WINDOW: usize = 2000;
/// Traced requests per client between two one-shot connections.
const CONNECT_EVERY: u64 = 32;

/// A database shape with its verdict; every request renames its constants.
struct Template {
    family: &'static Family,
    facts: Vec<GFact>,
    certain: bool,
}

/// Templates indexed by problem, size class and verdict.
struct Mix {
    templates: Vec<Template>,
    /// `by[family][size][certain]` → template indices.
    by: Vec<Vec<[Vec<usize>; 2]>>,
    checked_directly: usize,
}

fn build_mix(seed: u64) -> Result<Mix, String> {
    let mut rng = Rng::new(seed);
    let mut mix = Mix {
        templates: Vec::new(),
        by: Vec::new(),
        checked_directly: 0,
    };
    for family in FAMILIES {
        let mut per_size = Vec::new();
        for &(size, _) in &SIZES {
            let mut slots: [Vec<usize>; 2] = Default::default();
            for certain in [false, true] {
                for _ in 0..VARIANTS {
                    let db = (family.build)(size, certain, &mut rng);
                    let mut twin_rng = rng.clone();
                    let direct =
                        gen::oracle_check_or_twin(family, &db, certain, ORACLE_DIRECT, || {
                            (family.build)(8, certain, &mut twin_rng)
                        })?;
                    mix.checked_directly += usize::from(direct);
                    slots[usize::from(certain)].push(mix.templates.len());
                    mix.templates.push(Template {
                        family,
                        facts: db.facts,
                        certain,
                    });
                }
            }
            per_size.push(slots);
        }
        mix.by.push(per_size);
    }
    Ok(mix)
}

/// Names unique across every request of the process.
static NOVEL: AtomicU64 = AtomicU64::new(0);

/// One rendered request.
struct Request {
    line: String,
    facts: usize,
    certain: bool,
}

impl Mix {
    fn pick(&self, rng: &mut Rng) -> &Template {
        let family = rng.below(self.by.len());
        let mut w = rng.below(64);
        let mut size = 0;
        while w >= SIZES[size].1 {
            w -= SIZES[size].1;
            size += 1;
        }
        let slot = &self.by[family][size][rng.below(2)];
        &self.templates[slot[rng.below(slot.len())]]
    }
}

fn render(t: &Template, tag: &str, novel: bool) -> Request {
    let f = t.family;
    let suffix = if novel {
        format!("x{}", NOVEL.fetch_add(1, Ordering::Relaxed))
    } else {
        String::new()
    };
    let rename = |s: &str| {
        if novel {
            gen::rename_rels(s, &suffix)
        } else {
            s.to_string()
        }
    };
    let db = gen::render(&t.facts, &suffix, |n, out| {
        let _ = write!(out, "k{n}{tag}");
    });
    let budget = f
        .budget
        .map(|b| format!(",\"budget\":{b}"))
        .unwrap_or_default();
    Request {
        line: format!(
            "{{\"op\":\"solve\",\"schema\":\"{}\",\"query\":\"{}\",\"fks\":\"{}\",\"db\":\"{}\"{budget}}}\n",
            rename(f.schema),
            rename(f.query),
            rename(f.fks),
            db.trim_end()
        ),
        facts: t.facts.len(),
        certain: t.certain,
    }
}

/// Whether `reply` is a definite verdict equal to the expected one.
fn reply_ok(reply: &str, certain: bool) -> bool {
    let Ok(v) = serde_json::from_str(reply) else {
        return false;
    };
    let want = if certain {
        Certainty::Certain
    } else {
        Certainty::NotCertain
    };
    v.get("ok").and_then(Value::as_bool) == Some(true)
        && v.get("certainty").and_then(Value::as_str) == Some(want.to_string().as_str())
}

/// One persistent client connection.
struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    reply: String,
}

impl Conn {
    fn open(endpoint: &Endpoint) -> Result<Conn, String> {
        let Endpoint::Unix(path) = endpoint else {
            unreachable!("the benchmark serves on a Unix socket")
        };
        let writer = UnixStream::connect(path).map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn {
            writer,
            reader,
            reply: String::with_capacity(256),
        })
    }

    /// Sends one request line and reads the reply line.
    fn round_trip(&mut self, line: &str) -> Result<&str, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(self.reply.trim_end()),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// A `cqa_serve::net::serve` accept loop on its own thread.
struct Server {
    service: Arc<Service>,
    endpoint: Endpoint,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Server {
    fn start(seed: u64) -> Result<Server, String> {
        let path = std::path::Path::new(WORK_DIR)
            .join(format!("serve-{}-{seed}.sock", std::process::id()));
        let endpoint = Endpoint::Unix(path);
        let service = Arc::new(Service::new(ServeConfig::default()));
        let thread = {
            let (service, endpoint) = (Arc::clone(&service), endpoint.clone());
            std::thread::spawn(move || cqa_serve::serve(&service, &endpoint, None))
        };
        let server = Server {
            service,
            endpoint,
            thread,
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if cqa_serve::request(&server.endpoint, r#"{"op":"ping"}"#).is_ok() {
                return Ok(server);
            }
            if server.thread.is_finished() {
                break;
            }
            // Short, so the wait for the socket adds little to `setup_s`.
            std::thread::sleep(Duration::from_micros(50));
        }
        server.stop()?;
        Err("the server did not come up".to_string())
    }

    fn stop(self) -> Result<(), String> {
        if !self.thread.is_finished() {
            cqa_serve::request(&self.endpoint, r#"{"op":"shutdown"}"#)
                .map_err(|e| format!("shutdown: {e}"))?;
        }
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("serve: {e}")),
            Err(_) => Err("the server thread panicked".to_string()),
        }
    }
}

/// The in-process twins the traced run replays each request on.
struct Twins {
    service: Service,
    cache: PlanCache,
    config: ServeConfig,
    /// Held across one request's `handle_line` and replay, so the twin
    /// service and the twin cache see the requests in the same order and
    /// agree on every hit and miss.
    turn: Mutex<()>,
}

/// The steps `Service::handle_line` takes for a `solve` request of the
/// benchmark's shape (no `evaluator`, `materialized` or `threads` field),
/// each in a span. Returns the reply line, or why the server would refuse.
fn replay(t: &mut Tracer, twins: &Twins, line: &str) -> Result<String, String> {
    let req = t
        .span("serde_json.decode", |_| serde_json::from_str(line))
        .map_err(|e| e.to_string())?;
    let field = |k: &str| req.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    let mut options = twins.config.defaults;
    if let Some(b) = req.get("budget").and_then(Value::as_u64) {
        options = options.with_fallback(SearchLimits::budgeted(b));
    }
    let key = RawKey {
        schema: field("schema"),
        query: field("query"),
        fks: field("fks"),
        evaluator: options.evaluator,
        join: options.join,
    };
    let (plan, lookup) = t.span("serve.cache.hit", |_| {
        twins.cache.get_or_build(&key, &twins.config.defaults)
    })?;
    if lookup == Lookup::Miss {
        t.relabel_last("serve.cache.miss_build");
    }
    let db_text = field("db");
    let db = t
        .span("model.parser", |_| parse_instance(&plan.schema, &db_text))
        .map_err(|e| e.to_string())?;
    if twins.config.max_facts.is_some_and(|cap| db.len() > cap) {
        return Err("over the admission ceiling".to_string());
    }
    let solver = &plan.solver;
    let verdict = match solver.route().kind() {
        RouteKind::Fo => t.span("core.solve.fo", |_| solver.solve_with(&db, &options)),
        RouteKind::PolyTime => t.span("solvers.poly", |_| solver.solve_with(&db, &options)),
        RouteKind::Fallback => t.span("repair.oracle", |_| {
            // The admission check `handle_line` makes before the search.
            let FallbackBudget::Allow(limits) = options.fallback else {
                return Err("hard-class problem without a budget".to_string());
            };
            if !CertaintyOracle::with_limits(limits).within_budget(&db, solver.problem().fks()) {
                return Err("over the fallback budget".to_string());
            }
            Ok(solver.solve_with(&db, &options))
        })?,
    };
    t.span("serde_json.encode", |_| {
        let evaluator = match solver.options().evaluator {
            Evaluator::Compiled => "compiled",
            Evaluator::Materialized => "materialized",
        };
        let mut map = BTreeMap::new();
        let mut put = |k: &str, v: Value| map.insert(k.to_string(), v);
        put("ok", Value::Bool(true));
        put("certainty", Value::String(verdict.certainty.to_string()));
        put(
            "backend",
            Value::String(verdict.provenance.backend.to_string()),
        );
        put("cache", Value::String(lookup.label().to_string()));
        put("evaluator", Value::String(evaluator.to_string()));
        put("join", Value::String(solver.options().join.to_string()));
        put(
            "elapsed_us",
            Value::Number(verdict.provenance.elapsed.as_micros() as f64),
        );
        if verdict.certainty == Certainty::Inconclusive {
            if let Some(detail) = &verdict.provenance.detail {
                put("detail", Value::String(detail.clone()));
            }
        }
        serde_json::to_string(&Value::Object(map)).map_err(|_| "encode".to_string())
    })
}

/// Whether two reply lines agree on everything but `elapsed_us`.
fn same_reply(a: &str, b: &str) -> bool {
    let strip = |s: &str| match serde_json::from_str(s) {
        Ok(Value::Object(mut m)) => {
            m.remove("elapsed_us");
            Some(m)
        }
        _ => None,
    };
    matches!((strip(a), strip(b)), (Some(a), Some(b)) if a == b)
}

/// What one client thread measured.
#[derive(Default)]
struct ClientOut {
    attempted: u64,
    failed: u64,
    /// Untraced request latencies (ns) and latency per fact.
    lat: Vec<f64>,
    lat_per_fact: Vec<f64>,
    /// When each untraced request completed, in seconds since the start.
    done: Vec<f64>,
    facts: u64,
    spans: Vec<Span>,
    snaps: Vec<Snap>,
}

/// Client 0's view of the whole server at one instant.
#[derive(Clone, Copy)]
struct Snap {
    /// Requests completed by all clients.
    ops: u64,
    /// Facts sent by all clients.
    facts: u64,
    /// Live heap.
    live: i64,
    /// Highest live heap since the previous snapshot.
    peak: i64,
}

impl Snap {
    fn take(sh: &Shared<'_>) -> Snap {
        let snap = Snap {
            ops: sh.ops.load(Ordering::Relaxed),
            facts: sh.facts.load(Ordering::Relaxed),
            live: alloc::live(),
            peak: alloc::peak(),
        };
        alloc::reset_peak();
        snap
    }
}

struct Shared<'a> {
    mix: &'a Mix,
    endpoint: &'a Endpoint,
    twins: Option<&'a Twins>,
    start: Instant,
    /// `(tracing, end of phase as elapsed time)`.
    phases: Vec<(bool, Duration)>,
    ops: &'a AtomicU64,
    facts: &'a AtomicU64,
    seed: u64,
}

fn client(id: usize, mut conn: Conn, sh: &Shared<'_>) -> ClientOut {
    let mut out = ClientOut {
        lat: Vec::with_capacity(1 << 20),
        lat_per_fact: Vec::with_capacity(1 << 20),
        done: Vec::with_capacity(1 << 20),
        snaps: Vec::with_capacity(1 << 14),
        ..ClientOut::default()
    };
    let mut rng = Rng::new(sh.seed.wrapping_mul(31).wrapping_add(id as u64 + 1));
    let mut tracer = Tracer::new(false);
    let mut mine = 0u64;
    let mut tag = String::with_capacity(16);
    for &(tracing, until) in &sh.phases {
        if tracing {
            tracer = Tracer::new(true);
        }
        while sh.start.elapsed() < until {
            if id == 0 && !tracing && mine.is_multiple_of(SNAPSHOT_EVERY) {
                out.snaps.push(Snap::take(sh));
            }
            mine += 1;
            tag.clear();
            let _ = write!(tag, "_{id}x{mine:x}");
            let t = sh.mix.pick(&mut rng);
            let req = render(t, &tag, rng.below(1000) < NOVEL_PER_MILLE);
            let t0 = Instant::now();
            let ok = tracer.span("serve.op", |tr| {
                tr.set_facts(req.facts as u64);
                let ok = match tr.span("serve.roundtrip", |_| conn.round_trip(&req.line)) {
                    Ok(reply) => reply_ok(reply, req.certain),
                    Err(e) => {
                        eprintln!("serve_mixed: {e}");
                        false
                    }
                };
                let Some(twins) = sh.twins.filter(|_| tr.on()) else {
                    return ok;
                };
                let line = req.line.trim_end();
                let turn = tr.span("trace.wait", |_| {
                    twins
                        .turn
                        .lock()
                        .expect("no client panics while holding the lock")
                });
                let served = tr.span("serve.handle", |_| twins.service.handle_line(line));
                let replayed = replay(tr, twins, line);
                drop(turn);
                // The replay must describe the server: any drift is a failure.
                let agrees = match &replayed {
                    Ok(reply) => same_reply(&served, reply),
                    Err(_) => false,
                };
                if !agrees {
                    eprintln!("serve_mixed: replay {replayed:?} differs from handle_line {served}");
                }
                if mine.is_multiple_of(CONNECT_EVERY) {
                    let _ = tr.span("serve.connect", |_| {
                        cqa_serve::request(sh.endpoint, r#"{"op":"ping"}"#)
                    });
                }
                ok && agrees
            });
            let ns = t0.elapsed().as_nanos() as f64;
            sh.ops.fetch_add(1, Ordering::Relaxed);
            sh.facts.fetch_add(req.facts as u64, Ordering::Relaxed);
            out.attempted += 1;
            out.failed += u64::from(!ok);
            if !tracing {
                out.lat.push(ns);
                out.lat_per_fact.push(ns / req.facts as f64);
                out.done.push(sh.start.elapsed().as_secs_f64());
                out.facts += req.facts as u64;
            }
        }
    }
    out.spans = tracer.take();
    out
}

/// Set-up: start a server, connect the clients and warm every base
/// problem's plan.
fn setup(mix: &Mix, seed: u64) -> Result<(Server, Vec<Conn>), String> {
    let server = Server::start(seed)?;
    let conns = (0..CLIENTS)
        .map(|_| Conn::open(&server.endpoint))
        .collect::<Result<Vec<_>, _>>();
    let mut conns = match conns {
        Ok(c) => c,
        Err(e) => {
            let _ = server.stop();
            return Err(e);
        }
    };
    for (f, per_size) in mix.by.iter().enumerate() {
        for certain in [false, true] {
            let t = &mix.templates[per_size[0][usize::from(certain)][0]];
            let req = render(t, &format!("_w{f}"), false);
            let ok = conns[0]
                .round_trip(&req.line)
                .map(|r| reply_ok(r, req.certain));
            if ok != Ok(true) {
                drop(conns);
                let _ = server.stop();
                return Err(format!(
                    "warm-up request for {} failed: {ok:?}",
                    FAMILIES[f].name
                ));
            }
        }
    }
    Ok((server, conns))
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let checked = Instant::now();
    let mix = build_mix(args.seed)?;
    let oracle_s = checked.elapsed().as_secs_f64();
    let mut setup_s = Vec::new();
    let mut state = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let (server, conns) = setup(&mix, args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            drop(conns);
            server.stop()?;
        } else {
            state = Some((server, conns));
        }
    }
    let (server, conns) = state.expect("at least one set-up");
    let twins = args.trace.then(|| Twins {
        service: Service::new(ServeConfig::default()),
        cache: PlanCache::new(ServeConfig::default().cache_capacity),
        config: ServeConfig::default(),
        turn: Mutex::new(()),
    });
    let total = Duration::from_secs_f64(args.seconds);
    let phases = if args.trace {
        vec![(false, total / 2), (true, total)]
    } else {
        vec![(false, total)]
    };
    let (ops, facts_sent) = (AtomicU64::new(0), AtomicU64::new(0));
    let (hits0, misses0) = (
        server.service.metrics().hits(),
        server.service.metrics().misses(),
    );
    let evictions0 = server.service.cache().evictions();
    let sh = Shared {
        mix: &mix,
        endpoint: &server.endpoint,
        twins: twins.as_ref(),
        start: Instant::now(),
        phases,
        ops: &ops,
        facts: &facts_sent,
        seed: args.seed,
    };
    let outs = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (id, conn) in conns.into_iter().enumerate() {
            let (sh, outs) = (&sh, &outs);
            scope.spawn(move || {
                let out = client(id, conn, sh);
                outs.lock()
                    .expect("no client panics while holding the lock")
                    .push((id, out));
            });
        }
    });
    let wall = sh.start.elapsed().as_secs_f64();
    let hits = server.service.metrics().hits() - hits0;
    let misses = server.service.metrics().misses() - misses0;
    let evictions = server.service.cache().evictions() - evictions0;
    server.stop()?;

    let mut outs = outs.into_inner().expect("clients joined");
    outs.sort_by_key(|(id, _)| *id);
    let mut report = Report::default();
    let (mut lat, mut lat_per_fact, mut snaps, mut facts) =
        (Vec::new(), Vec::new(), Vec::new(), 0u64);
    // Per window of WINDOW requests of one client: its p99, and its rate.
    let (mut p99s, mut rates): (Vec<f64>, Vec<Vec<f64>>) = (Vec::new(), Vec::new());
    let mut tracer = Tracer::new(true);
    for (_, o) in outs {
        report.attempted += o.attempted;
        report.failed += o.failed;
        p99s.extend(o.lat.chunks_exact(WINDOW).map(p99));
        rates.push(
            o.done
                .chunks_exact(WINDOW)
                .map(|w| (w.len() - 1) as f64 / (w[w.len() - 1] - w[0]))
                .collect(),
        );
        lat.extend(o.lat);
        lat_per_fact.extend(o.lat_per_fact);
        facts += o.facts;
        snaps.extend(o.snaps);
        tracer.absorb(o.spans);
    }
    let untraced_wall = if args.trace { wall / 2.0 } else { wall };
    // Window k's server throughput: the sum of the clients' k-th rates.
    let windows = rates.iter().map(Vec::len).min().unwrap_or(0);
    let total_rates: Vec<f64> = (0..windows)
        .map(|k| rates.iter().map(|r| r[k]).sum())
        .collect();
    let retained = growth_per_op(&snaps.iter().map(|s| (s.ops, s.live)).collect::<Vec<_>>());
    // Per window between snapshots: the heap's rise above its level at the
    // window's start, per fact sent in the window; the median skips the
    // windows in which a table doubles.
    let peak_per_fact: Vec<f64> = snaps
        .windows(2)
        .filter(|w| w[1].facts > w[0].facts)
        .map(|w| (w[1].peak - w[0].live) as f64 / (w[1].facts - w[0].facts) as f64)
        .collect();
    let mean_facts = trace::ratio(facts as f64, lat.len() as f64);
    report.set("setup_s", median(&setup_s));
    report.set("ns_per_fact", median(&lat_per_fact));
    report.set("bytes_per_fact", trace::ratio(retained, mean_facts));
    report.set("peak_bytes_per_fact", median(&peak_per_fact));
    report.set(
        "ops_per_s",
        if windows > 0 {
            median(&total_rates)
        } else {
            lat.len() as f64 / untraced_wall
        },
    );
    report.set("latency_p50_us", median(&lat) / 1e3);
    report.set(
        "latency_p99_us",
        if p99s.is_empty() {
            p99(&lat)
        } else {
            median(&p99s)
        } / 1e3,
    );
    report.set("retained_bytes_per_op", retained);
    report.set(
        "ok_share",
        trace::ratio(
            (report.attempted - report.failed) as f64,
            report.attempted as f64,
        ),
    );
    report.input("clients", CLIENTS);
    report.input("templates", mix.templates.len());
    report.input("templates_oracle_checked_directly", mix.checked_directly);
    report.input("oracle_check_s", format!("{oracle_s:.3}"));
    report.input("mean_request_facts", format!("{mean_facts:.1}"));
    report.input("latency_samples", lat.len());
    report.notes.push(format!(
        "serve_mixed: {} requests from {CLIENTS} closed-loop clients ({} latency samples, {} beyond p99); \
         cache hits {hits}, misses {misses}, evictions {evictions}",
        report.attempted,
        lat.len(),
        lat.len() / 100
    ));

    if args.trace {
        let spans = tracer.take();
        let s = Summary::of(&spans);
        trace::write_tsv(
            &std::path::Path::new(WORK_DIR).join(format!("spans-serve_mixed-{}.tsv", args.seed)),
            &spans,
        )
        .map_err(|e| format!("span dump: {e}"))?;
        let handle = s.total_us("serve.handle");
        let solve_us = ["core.solve.fo", "solvers.poly", "repair.oracle"]
            .iter()
            .map(|k| s.us(k) * s.calls(k) as f64)
            .sum::<f64>()
            / s.ops.max(1) as f64;
        report.set("model.parser.ns_per_fact", s.ns_per_fact("model.parser"));
        // Shares on serve are of the in-process request handling time.
        report.set(
            "model.parser.share",
            trace::ratio(s.us("model.parser"), handle),
        );
        report.set(
            "core.solve.ns_per_fact",
            trace::ratio(solve_us * 1e3, trace::ratio(s.facts as f64, s.ops as f64)),
        );
        report.set("core.solve.share", trace::ratio(solve_us, handle));
        // Plan builds happen inside `PlanCache::get_or_build` on a miss.
        report.set("core.build.us", s.us("serve.cache.miss_build"));
        report.set(
            "core.build.share",
            trace::ratio(
                s.us("serve.cache.miss_build") * s.calls("serve.cache.miss_build") as f64,
                handle * s.ops as f64,
            ),
        );
        report.set("core.solve.fo.us", s.us("core.solve.fo"));
        report.set("solvers.poly.us", s.us("solvers.poly"));
        report.set("repair.oracle.us", s.us("repair.oracle"));
        report.set("serde_json.decode.us", s.us("serde_json.decode"));
        report.set("serde_json.encode.us", s.us("serde_json.encode"));
        report.set(
            "serve.cache.hit_ratio",
            trace::ratio(hits as f64, (hits + misses) as f64),
        );
        report.set("serve.cache.evictions", evictions as f64);
        report.set("serve.cache.miss_build.us", s.us("serve.cache.miss_build"));
        report.set("serve.handle.us", handle);
        report.set("serve.transport.us", s.total_us("serve.roundtrip") - handle);
        report.set("serve.connect.us", s.total_us("serve.connect"));
        let untraced_mean = trace::ratio(lat.iter().sum(), lat.len() as f64) / 1e3;
        report.set(
            "trace.overhead_share",
            trace::ratio(s.op_us() - untraced_mean, untraced_mean),
        );
        report.set("trace.uncovered_share", s.uncovered_share());
        report.set("trace.ops", s.ops as f64);
        report.set("trace.spans", spans.len() as f64);
    }
    Ok(report)
}
