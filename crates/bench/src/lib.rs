//! # cqa-bench
//!
//! The experiment harness behind the `paper-eval` binary, which
//! regenerates every figure and worked example of the paper and prints a
//! paper-vs-measured table (DESIGN.md §3 indexes the experiments E1–E16),
//! then times every kernel against its slow baseline in the gated ratio
//! table of [`eval_bench`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval_bench;

pub use eval_bench::{run_eval_bench, EvalBench};

use serde::Serialize;
use std::fmt;
use std::time::{Duration, Instant};

/// One experiment row: what the paper claims vs. what this reproduction
/// measured.
#[derive(Clone, Debug, Serialize)]
pub struct Experiment {
    /// Experiment id (E1…E14, DESIGN.md §3).
    pub id: String,
    /// The paper artifact (figure / example / proposition).
    pub artifact: String,
    /// What the paper claims.
    pub paper: String,
    /// What we measured or computed.
    pub measured: String,
    /// Whether the claim is reproduced.
    pub ok: bool,
}

impl Experiment {
    /// Creates a row.
    pub fn new(
        id: &str,
        artifact: &str,
        paper: &str,
        measured: impl Into<String>,
        ok: bool,
    ) -> Experiment {
        Experiment {
            id: id.to_string(),
            artifact: artifact.to_string(),
            paper: paper.to_string(),
            measured: measured.into(),
            ok,
        }
    }
}

impl fmt::Display for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mark = if self.ok { "✓" } else { "✗" };
        writeln!(f, "[{mark}] {} — {}", self.id, self.artifact)?;
        writeln!(f, "      paper    : {}", self.paper)?;
        write!(f, "      measured : {}", self.measured)
    }
}

/// A collection of experiment rows with pretty/JSON output.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Report {
    /// The rows.
    pub experiments: Vec<Experiment>,
}

impl Report {
    /// Creates an empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Adds a row (also printing it).
    pub fn push(&mut self, e: Experiment) {
        println!("{e}\n");
        self.experiments.push(e);
    }

    /// Whether every experiment reproduced.
    pub fn all_ok(&self) -> bool {
        self.experiments.iter().all(|e| e.ok)
    }

    /// Renders the report as JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Summary line.
    pub fn summary(&self) -> String {
        let ok = self.experiments.iter().filter(|e| e.ok).count();
        format!("{ok}/{} experiments reproduced", self.experiments.len())
    }
}

/// Times a closure, returning its result and the wall-clock duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Formats a duration compactly for tables.
pub fn fmt_duration(d: Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.2}s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.1}µs", d.as_secs_f64() * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trip() {
        let mut r = Report::new();
        r.push(Experiment::new("E0", "smoke", "claim", "observed", true));
        assert!(r.all_ok());
        assert!(r.to_json().contains("\"E0\""));
        assert_eq!(r.summary(), "1/1 experiments reproduced");
    }

    #[test]
    fn duration_formatting() {
        assert!(fmt_duration(Duration::from_micros(12)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(12)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with('s'));
    }
}
