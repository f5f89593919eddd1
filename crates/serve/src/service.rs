//! The request handler: one line of JSON in, one line of JSON out.
//!
//! ## Protocol
//!
//! Requests are single-line JSON objects with an `"op"` field:
//!
//! | op | fields | reply |
//! |----|--------|-------|
//! | `ping` | — | `{"ok":true,"pong":true}` |
//! | `solve` | `schema`, `query`, `db` (required); `fks`, `budget` (optional) | verdict + provenance (below) |
//! | `emit` | `schema`, `query`, `db` (required); `fks`, `format` (`"datalog"` \| `"sql"`, default `"datalog"`) (optional) | `{"ok":true,"format":…,"route":…,"goal":…,"artifact":…}` — the self-contained artifact text (see `cqa-emit`); reuses the same plan cache as `solve` |
//! | `metrics` | — | `{"ok":true,"metrics":{…}}` (see [`crate::MetricsRegistry::snapshot`]) |
//! | `shutdown` | — | `{"ok":true,"shutdown":true}`; the accept loop then drains and exits |
//!
//! A `solve` reply carries the three-valued verdict and enough provenance
//! for clients (and the regression tests) to see exactly which compiled
//! route answered:
//!
//! ```json
//! {"ok":true,"certainty":"certain","backend":"compiled plan",
//!  "cache":"hit","evaluator":"compiled","join":"auto",
//!  "elapsed_us":42}
//! ```
//!
//! `evaluator` and `join` always report the server's defaults
//! ([`ExecOptions::default`]: `compiled`, `auto`); requests cannot pick
//! them.
//!
//! Errors are `{"ok":false,"error":"…"}`; admission-control refusals add
//! `"rejected":true` so clients can distinguish "resize your request"
//! from "your request is malformed". Unknown request fields are ignored,
//! so clients written against an older protocol keep working.
//!
//! ## Per-request options
//!
//! Each request resolves its own [`ExecOptions`] from the server defaults
//! plus its optional `budget` — after startup the serve loop never
//! consults the process environment again. The budget is passed to
//! [`cqa_core::Solver::solve_with`] per call on the shared cached solver.
//! A solve runs on its connection's worker thread; parallelism comes from
//! serving connections concurrently.
//!
//! ## Admission control
//!
//! Over-budget work is refused up front instead of queued: a `solve`
//! whose database exceeds the configured fact ceiling, or whose
//! hard-class candidate space exceeds the request's oracle budget, gets
//! an immediate `rejected` reply — the server's latency profile is
//! protected by never starting work it already knows it cannot finish.

use crate::cache::{CachedPlan, Lookup, PlanCache, RawKey};
use crate::metrics::MetricsRegistry;
use cqa_core::solver::{Evaluator, ExecOptions, FallbackBudget, Route};
use cqa_core::Certainty;
use cqa_emit::{Format, SolverEmitExt};
use cqa_model::parser::parse_instance;
use cqa_model::Instance;
use cqa_repair::{CertaintyOracle, SearchLimits};
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Server-level configuration, fixed at startup.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Default execution options; per-request fields override them.
    pub defaults: ExecOptions,
    /// Maximum number of compiled plans kept in the LRU cache.
    pub cache_capacity: usize,
    /// Admission control: refuse databases with more facts than this.
    pub max_facts: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            defaults: ExecOptions::default(),
            cache_capacity: 64,
            max_facts: None,
        }
    }
}

/// The long-lived service state shared by every connection: plan cache,
/// metrics, config, shutdown flag.
#[derive(Debug)]
pub struct Service {
    config: ServeConfig,
    cache: PlanCache,
    metrics: MetricsRegistry,
    shutdown: AtomicBool,
}

impl Service {
    /// A fresh service with an empty cache and zeroed metrics.
    pub fn new(config: ServeConfig) -> Service {
        Service {
            cache: PlanCache::new(config.cache_capacity),
            metrics: MetricsRegistry::new(),
            shutdown: AtomicBool::new(false),
            config,
        }
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The plan cache.
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Whether a `shutdown` request has been accepted.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Handles one protocol line, returning the reply line (without the
    /// trailing newline). Never panics on malformed input — every failure
    /// is an `{"ok":false,…}` reply.
    pub fn handle_line(&self, line: &str) -> String {
        let request = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(e) => {
                self.metrics.record_request("invalid");
                self.metrics.record_error();
                return error_reply(&format!("invalid request: {e}"), false);
            }
        };
        let op = request.get("op").and_then(Value::as_str).unwrap_or("");
        match op {
            "ping" => {
                self.metrics.record_request("ping");
                ok_reply([("pong", Value::Bool(true))])
            }
            "metrics" => {
                self.metrics.record_request("metrics");
                ok_reply([("metrics", self.metrics.snapshot())])
            }
            "shutdown" => {
                self.metrics.record_request("shutdown");
                self.shutdown.store(true, Ordering::SeqCst);
                ok_reply([("shutdown", Value::Bool(true))])
            }
            "solve" => {
                self.metrics.record_request("solve");
                match self.handle_solve(&request) {
                    Ok(reply) => reply,
                    Err(SolveRefusal::Error(msg)) => {
                        self.metrics.record_error();
                        error_reply(&msg, false)
                    }
                    Err(SolveRefusal::Rejected(msg)) => {
                        self.metrics.record_rejection();
                        error_reply(&msg, true)
                    }
                }
            }
            "emit" => {
                self.metrics.record_request("emit");
                match self.handle_emit(&request) {
                    Ok(reply) => reply,
                    Err(SolveRefusal::Error(msg)) => {
                        self.metrics.record_error();
                        error_reply(&msg, false)
                    }
                    Err(SolveRefusal::Rejected(msg)) => {
                        self.metrics.record_rejection();
                        error_reply(&msg, true)
                    }
                }
            }
            other => {
                self.metrics.record_request("invalid");
                self.metrics.record_error();
                error_reply(
                    &format!(
                        "unknown op {other:?} (expected ping, solve, emit, metrics or shutdown)"
                    ),
                    false,
                )
            }
        }
    }

    /// The cached plan for a `solve`/`emit` request and its parsed,
    /// admitted database. The cache key carries the server's compiled
    /// defaults, so both ops for one problem share one entry.
    fn plan_and_db(
        &self,
        request: &Value,
    ) -> Result<(Arc<CachedPlan>, Lookup, Instance), SolveRefusal> {
        let field = |name: &str| -> Result<String, SolveRefusal> {
            request
                .get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| SolveRefusal::Error(format!("missing string field {name:?}")))
        };
        let raw_key = RawKey {
            schema: field("schema")?,
            query: field("query")?,
            fks: request
                .get("fks")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            evaluator: self.config.defaults.evaluator,
            join: self.config.defaults.join,
        };
        let db_text = field("db")?;
        let (plan, lookup) = self
            .cache
            .get_or_build(&raw_key, &self.config.defaults)
            .map_err(SolveRefusal::Error)?;
        self.metrics.record_cache(lookup == Lookup::Hit);

        let db = parse_instance(&plan.schema, &db_text)
            .map_err(|e| SolveRefusal::Error(format!("db: {e}")))?;
        // Admission control: refuse work we already know we cannot (or
        // should not) finish, instead of queueing it.
        if let Some(cap) = self.config.max_facts {
            if db.len() > cap {
                return Err(SolveRefusal::Rejected(format!(
                    "database has {} facts, over the admission ceiling of {cap}",
                    db.len()
                )));
            }
        }
        Ok((plan, lookup, db))
    }

    fn handle_solve(&self, request: &Value) -> Result<String, SolveRefusal> {
        // Per-request execution options over the server defaults. The
        // environment is NOT consulted here: `defaults` was resolved once
        // at startup, and the budget comes from the request.
        let mut options = self.config.defaults;
        if let Some(b) = request.get("budget") {
            let b = b
                .as_u64()
                .ok_or_else(|| SolveRefusal::Error("budget must be a non-negative integer".to_string()))?;
            options = options.with_fallback(SearchLimits::budgeted(b));
        }
        let (plan, lookup, db) = self.plan_and_db(request)?;

        if let Route::Fallback(_) = plan.solver.route() {
            let limits = match options.fallback {
                FallbackBudget::Allow(limits) => limits,
                FallbackBudget::Deny => {
                    return Err(SolveRefusal::Rejected(
                        "hard-class problem and the request allows no fallback budget \
                         (send a \"budget\" field)"
                            .to_string(),
                    ))
                }
            };
            let oracle = CertaintyOracle::with_limits(limits);
            if !oracle.within_budget(&db, plan.solver.problem().fks()) {
                return Err(SolveRefusal::Rejected(format!(
                    "hard-class candidate space exceeds the request budget \
                     ({} facts; raise \"budget\")",
                    db.len()
                )));
            }
        }

        let verdict = plan.solver.solve_with(&db, &options);
        let backend = verdict.provenance.backend.to_string();
        self.metrics.record_solve(&backend, verdict.provenance.elapsed);

        let mut reply: Vec<(&str, Value)> = vec![
            (
                "certainty",
                Value::String(verdict.certainty.to_string()),
            ),
            ("backend", Value::String(backend)),
            ("cache", Value::String(lookup.label().to_string())),
            (
                "evaluator",
                Value::String(
                    match plan.solver.options().evaluator {
                        Evaluator::Compiled => "compiled",
                        Evaluator::Materialized => "materialized",
                    }
                    .to_string(),
                ),
            ),
            (
                "join",
                Value::String(plan.solver.options().join.to_string()),
            ),
            (
                "elapsed_us",
                Value::Number(verdict.provenance.elapsed.as_micros() as f64),
            ),
        ];
        if verdict.certainty == Certainty::Inconclusive {
            if let Some(detail) = &verdict.provenance.detail {
                reply.push(("detail", Value::String(detail.clone())));
            }
        }
        Ok(ok_reply(reply))
    }
}

impl Service {
    /// `emit`: compile the (cached) plan over the request database into a
    /// self-contained Datalog/SQL artifact. Shares `solve`'s plan cache —
    /// an emit after a solve of the same problem is a cache hit — and its
    /// fact-ceiling admission control (the artifact embeds every fact).
    fn handle_emit(&self, request: &Value) -> Result<String, SolveRefusal> {
        let format = match request.get("format") {
            None => Format::Datalog,
            Some(f) => f
                .as_str()
                .ok_or_else(|| SolveRefusal::Error("format must be a string".to_string()))?
                .parse::<Format>()
                .map_err(SolveRefusal::Error)?,
        };
        let (plan, lookup, db) = self.plan_and_db(request)?;

        let artifact = plan
            .solver
            .emit(&db, format)
            .map_err(|e| SolveRefusal::Error(format!("emit: {e}")))?;
        Ok(ok_reply([
            ("format", Value::String(artifact.format.to_string())),
            ("route", Value::String(artifact.route.to_string())),
            ("goal", Value::String(artifact.goal)),
            ("cache", Value::String(lookup.label().to_string())),
            ("artifact", Value::String(artifact.text)),
        ]))
    }
}

/// Why a `solve` did not produce a verdict: a malformed/unanswerable
/// request vs. an admission-control refusal.
enum SolveRefusal {
    Error(String),
    Rejected(String),
}

fn ok_reply<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> String {
    let mut map = BTreeMap::new();
    map.insert("ok".to_string(), Value::Bool(true));
    for (k, v) in fields {
        map.insert(k.to_string(), v);
    }
    serde_json::to_string(&Value::Object(map)).expect("object serialization is infallible")
}

fn error_reply(msg: &str, rejected: bool) -> String {
    let mut map = BTreeMap::new();
    map.insert("ok".to_string(), Value::Bool(false));
    map.insert("error".to_string(), Value::String(msg.to_string()));
    if rejected {
        map.insert("rejected".to_string(), Value::Bool(true));
    }
    serde_json::to_string(&Value::Object(map)).expect("object serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> Service {
        Service::new(ServeConfig {
            defaults: ExecOptions::sequential(),
            cache_capacity: 8,
            max_facts: None,
        })
    }

    fn solve_line(db: &str, extra: &str) -> String {
        format!(
            r#"{{"op":"solve","schema":"N[2,1] O[1,1] P[1,1]","query":"N('c',y), O(y), P(y)","fks":"N[2] -> O","db":"{db}"{extra}}}"#
        )
    }

    #[test]
    fn ping_metrics_and_unknown_ops() {
        let s = service();
        let pong = serde_json::from_str(&s.handle_line(r#"{"op":"ping"}"#)).unwrap();
        assert_eq!(pong.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
        let bad = serde_json::from_str(&s.handle_line(r#"{"op":"frobnicate"}"#)).unwrap();
        assert_eq!(bad.get("ok").and_then(Value::as_bool), Some(false));
        let metrics = serde_json::from_str(&s.handle_line(r#"{"op":"metrics"}"#)).unwrap();
        let m = metrics.get("metrics").unwrap();
        assert_eq!(
            m.get("requests").and_then(|r| r.get("ping")).and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(m.get("errors").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn solve_round_trip_hits_the_cache_on_repeat() {
        let s = service();
        let line = solve_line("N(c,a) O(a) P(a)", "");
        let first = serde_json::from_str(&s.handle_line(&line)).unwrap();
        assert_eq!(first.get("ok").and_then(Value::as_bool), Some(true), "{first:?}");
        assert_eq!(first.get("certainty").and_then(Value::as_str), Some("certain"));
        assert_eq!(first.get("cache").and_then(Value::as_str), Some("miss"));
        let again = serde_json::from_str(&s.handle_line(&line)).unwrap();
        assert_eq!(again.get("cache").and_then(Value::as_str), Some("hit"));
        // A falsified instance through the same cached plan.
        let no = serde_json::from_str(&s.handle_line(&solve_line(
            "N(c,a) N(c,b) O(a) P(a)",
            "",
        )))
        .unwrap();
        assert_eq!(no.get("certainty").and_then(Value::as_str), Some("not certain"));
        assert_eq!(no.get("cache").and_then(Value::as_str), Some("hit"));
        assert_eq!(s.metrics().hits(), 2);
        assert_eq!(s.metrics().misses(), 1);
    }

    #[test]
    fn legacy_threads_field_is_ignored() {
        // Older clients sent a per-request "threads" width, an "evaluator"
        // join pin or a "materialized" flag; none of them means anything
        // now, and each must get the reply a request without it gets.
        let s = service();
        let reply = |extra: &str| {
            let mut v = serde_json::from_str(&s.handle_line(&solve_line("N(c,a) O(a) P(a)", extra)))
                .unwrap();
            if let Value::Object(map) = &mut v {
                map.remove("elapsed_us");
            }
            v
        };
        reply(""); // the miss that builds the plan
        let plain = reply("");
        assert_eq!(plain.get("certainty").and_then(Value::as_str), Some("certain"));
        assert_eq!(plain.get("join").and_then(Value::as_str), Some("auto"));
        for extra in [r#","threads":4"#, r#","evaluator":"semijoin""#, r#","materialized":true"#] {
            assert_eq!(reply(extra), plain, "{extra}");
        }
    }

    #[test]
    fn admission_control_rejects_oversized_databases() {
        let s = Service::new(ServeConfig {
            defaults: ExecOptions::sequential(),
            cache_capacity: 8,
            max_facts: Some(2),
        });
        let reply = serde_json::from_str(&s.handle_line(&solve_line(
            "N(c,a) O(a) P(a)",
            "",
        )))
        .unwrap();
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(reply.get("rejected").and_then(Value::as_bool), Some(true));
        assert!(reply
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("admission ceiling"));
        let m = s.metrics().snapshot();
        assert_eq!(m.get("rejected").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn hard_class_requires_a_request_budget() {
        // Example 13's q2 — block-interfering and not a poly-time shape,
        // so it routes to the budgeted fallback (same fixture as the
        // solver routing tests).
        let line = |extra: &str| {
            format!(
                r#"{{"op":"solve","schema":"N[3,1] O[2,1]","query":"N(x,'c',y), O(y,w)","fks":"N[3] -> O","db":"N(a,c,1) O(1,w)"{extra}}}"#
            )
        };
        let s = service();
        let refused = serde_json::from_str(&s.handle_line(&line(""))).unwrap();
        if refused.get("rejected").and_then(Value::as_bool) == Some(true) {
            // Hard class without a budget: admission control refuses.
            let with_budget =
                serde_json::from_str(&s.handle_line(&line(r#","budget":100000"#))).unwrap();
            assert_eq!(
                with_budget.get("ok").and_then(Value::as_bool),
                Some(true),
                "{with_budget:?}"
            );
            assert_eq!(
                with_budget.get("backend").and_then(Value::as_str),
                Some("budgeted oracle")
            );
        } else {
            // If the shape routes elsewhere the test premise is wrong —
            // fail loudly rather than vacuously passing.
            panic!("expected a hard-class rejection, got {refused:?}");
        }
    }

    #[test]
    fn emit_shares_the_solve_plan_cache() {
        let s = service();
        let solve = serde_json::from_str(&s.handle_line(&solve_line("N(c,a) O(a) P(a)", "")))
            .unwrap();
        assert_eq!(solve.get("cache").and_then(Value::as_str), Some("miss"));
        // Same problem, emit op: must hit the plan cached by solve.
        let line = r#"{"op":"emit","schema":"N[2,1] O[1,1] P[1,1]","query":"N('c',y), O(y), P(y)","fks":"N[2] -> O","db":"N(c,a) O(a) P(a)"}"#;
        let emit = serde_json::from_str(&s.handle_line(line)).unwrap();
        assert_eq!(emit.get("ok").and_then(Value::as_bool), Some(true), "{emit:?}");
        assert_eq!(emit.get("cache").and_then(Value::as_str), Some("hit"));
        assert_eq!(emit.get("format").and_then(Value::as_str), Some("datalog"));
        assert_eq!(emit.get("route").and_then(Value::as_str), Some("fo"));
        assert_eq!(emit.get("goal").and_then(Value::as_str), Some("cqa_certain"));
        // The artifact is self-contained: re-parse and execute it, and the
        // goal must agree with the solve verdict above.
        let text = emit.get("artifact").and_then(Value::as_str).unwrap();
        let program = cqa_emit::datalog::Program::parse(text).unwrap();
        let ev = cqa_emit::evaluate(&program).unwrap();
        assert!(ev.holds("cqa_certain"));
        assert_eq!(solve.get("certainty").and_then(Value::as_str), Some("certain"));
    }

    #[test]
    fn emit_sql_and_bad_formats() {
        let s = service();
        let sql_line = r#"{"op":"emit","schema":"N[2,1] O[1,1] P[1,1]","query":"N('c',y), O(y), P(y)","fks":"N[2] -> O","db":"N(c,a) O(a) P(a)","format":"sql"}"#;
        let reply = serde_json::from_str(&s.handle_line(sql_line)).unwrap();
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true), "{reply:?}");
        assert_eq!(reply.get("format").and_then(Value::as_str), Some("sql"));
        assert_eq!(reply.get("goal").and_then(Value::as_str), Some("certain"));
        assert!(reply
            .get("artifact")
            .and_then(Value::as_str)
            .unwrap()
            .contains("AS certain"));
        let bad = r#"{"op":"emit","schema":"N[2,1] O[1,1] P[1,1]","query":"N('c',y), O(y), P(y)","fks":"N[2] -> O","db":"","format":"prolog"}"#;
        let reply = serde_json::from_str(&s.handle_line(bad)).unwrap();
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(false));
    }

    #[test]
    fn shutdown_flag_is_observable() {
        let s = service();
        assert!(!s.shutdown_requested());
        let reply = serde_json::from_str(&s.handle_line(r#"{"op":"shutdown"}"#)).unwrap();
        assert_eq!(reply.get("shutdown").and_then(Value::as_bool), Some(true));
        assert!(s.shutdown_requested());
    }
}
