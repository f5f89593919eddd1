//! End-to-end benchmark for `cqa`.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload batch_solve|serve_mixed|delta_stream --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload drives a public entry point in-process with the shipping
//! defaults (`ExecOptions::default()`, `ServeConfig::default()`), checks
//! every verdict against a verdict known by construction (cross-checked by
//! the exhaustive oracle at set-up), and prints one JSON object as its last
//! line. `--trace 0` reports the end-to-end metrics; `--trace 1` reports the
//! per-layer metrics from spans around each call into a layer. See
//! `README.md` for the metric definitions.

mod alloc;
mod batch;
mod delta;
mod gen;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// What a workload hands back for printing.
#[derive(Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were refused, were inconclusive or gave a
    /// wrong verdict.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Input sizes and sample counts, recorded with the result.
    pub inputs: Vec<(&'static str, String)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records an input size or sample count.
    pub fn input(&mut self, name: &'static str, value: impl ToString) {
        self.inputs.push((name, value.to_string()));
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// The end-to-end metrics (`--trace 0`) with their units; every workload
/// reports all of them.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ns_per_fact", "ns"),
    ("bytes_per_fact", "bytes"),
    ("peak_bytes_per_fact", "bytes"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("retained_bytes_per_op", "bytes"),
    ("ok_share", "ratio"),
];

/// The per-layer metrics (`--trace 1`) with their units. A layer a
/// workload never calls reports 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("model.parser.ns_per_fact", "ns"),
    ("model.parser.share", "ratio"),
    ("model.index.ns_per_fact", "ns"),
    ("model.index.share", "ratio"),
    ("model.parse_index.share", "ratio"),
    ("model.store.bytes_per_fact", "bytes"),
    ("model.index.bytes_per_fact", "bytes"),
    ("core.build.us", "us"),
    ("core.build.share", "ratio"),
    ("core.solve.ns_per_fact", "ns"),
    ("core.solve.share", "ratio"),
    ("core.solve.fo.us", "us"),
    ("solvers.poly.us", "us"),
    ("repair.oracle.us", "us"),
    ("serde_json.decode.us", "us"),
    ("serde_json.encode.us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.miss_build.us", "us"),
    ("serve.handle.us", "us"),
    ("serve.transport.us", "us"),
    ("serve.connect.us", "us"),
    ("model.apply.us", "us"),
    ("core.reanswer.unaffected.us", "us"),
    ("core.reanswer.localized.us", "us"),
    ("core.reanswer.recomputed.us", "us"),
    ("core.reanswer.rung_share.unaffected", "ratio"),
    ("core.reanswer.rung_share.localized", "ratio"),
    ("core.reanswer.rung_share.recomputed", "ratio"),
    ("core.reanswer.reused_ratio", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.uncovered_share", "ratio"),
    ("trace.ops", "count"),
    ("trace.spans", "count"),
];

/// Where inputs, sockets and span dumps go, relative to the checkout.
pub const WORK_DIR: &str = ".bench_work";

/// The `q`-quantile of `values` (linear interpolation between ranks).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The 99th percentile of `values`.
pub fn p99(values: &[f64]) -> f64 {
    quantile(values, 0.99)
}

/// The median, over consecutive windows of `window` samples, of `stat` on
/// each window (on all samples when there is less than one full window).
/// Host contention comes in bursts of a few seconds; a burst that covers
/// fewer than half the windows does not move the result.
pub fn windowed(samples: &[f64], window: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    if samples.len() < window {
        return stat(samples);
    }
    let per_window: Vec<f64> = samples.chunks_exact(window).map(&stat).collect();
    median(&per_window)
}

/// Live-heap growth per operation from `(operations, live bytes)`
/// snapshots: the median over consecutive snapshot pairs of Δlive/Δops.
/// The median skips the rare windows in which a hash table doubles, so
/// whether one resize lands inside the run does not decide the value.
pub fn growth_per_op(snaps: &[(u64, i64)]) -> f64 {
    let slopes: Vec<f64> = snaps
        .windows(2)
        .filter(|w| w[1].0 > w[0].0)
        .map(|w| (w[1].1 - w[0].1) as f64 / (w[1].0 - w[0].0) as f64)
        .collect();
    median(&slopes)
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Identifies the measured code: an FNV-1a digest of every source file the
/// benchmark builds from.
fn source_id() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "e2ebench/src"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.push("e2ebench/Cargo.toml".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-fnv1a:{h:016x}")
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&serde_json::Value::String(s.to_string())).expect("string serializes")
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    for var in ["CQA_THREADS", "CQA_EVALUATOR"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "refusing to run: {var} is set, and it changes the compiled route; unset it"
            ));
        }
    }
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("{WORK_DIR}: {e}"))?;
    let report = match args.workload.as_str() {
        "batch_solve" => batch::run(&args)?,
        "serve_mixed" => serve::run(&args)?,
        "delta_stream" => delta::run(&args)?,
        other => return Err(format!("unknown workload {other}")),
    };

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let value = report.values.get(name).copied();
        let value = match (value, args.trace) {
            (Some(v), _) if v.is_finite() => v,
            (None, true) => 0.0,
            _ => return Err(format!("workload produced no finite value for {name}")),
        };
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut env = vec![
        format!("\"workload\": {}", json_str(&args.workload)),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", args.seconds),
        format!("\"trace\": {}", u8::from(args.trace)),
        format!("\"threads_available\": {threads}"),
        format!("\"commit\": {}", json_str(&source_id())),
    ];
    for (k, v) in &report.inputs {
        env.push(format!("{}: {}", json_str(k), json_str(v)));
    }
    println!("env: {{{}}}", env.join(", "));
    for note in &report.notes {
        println!("note: {note}");
    }
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(batch::CHILD_FLAG) {
        return batch::child(&argv[2..]);
    }
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
