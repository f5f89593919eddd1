//! # cqa — Consistent Query Answering for Primary Keys and Unary Foreign Keys
//!
//! Facade crate re-exporting the whole workspace: a faithful, executable
//! implementation of *"A Dichotomy in Consistent Query Answering for Primary
//! Keys and Unary Foreign Keys"* (Hannula & Wijsen, PODS 2022).
//!
//! ## Quick start
//!
//! One [`Solver`](prelude::Solver) accepts **any** `CERTAINTY(q, FK)`
//! problem, classifies it once (Theorem 12 plus the Proposition 16/17
//! shape matcher), and answers through the fastest sound backend:
//!
//! ```
//! use cqa::prelude::*;
//!
//! // Schema in the paper's signature notation: N has arity 3 with a unary key.
//! let schema = std::sync::Arc::new(parse_schema("N[3,1] O[1,1]").unwrap());
//! let q = parse_query(&schema, "N(x, 'c', y), O(y)").unwrap();
//! let fks = parse_fks(&schema, "N[3] -> O").unwrap();
//! let problem = Problem::new(q, fks).unwrap();
//!
//! // Theorem 12: this pair has block-interference, hence is NL-hard (not
//! // FO) — but it is Proposition 17's shape, so the solver routes it to
//! // the polynomial-time dual-Horn backend instead of turning you away.
//! match problem.classify() {
//!     Classification::NotFo(why) => assert!(why.nl_hard()),
//!     Classification::Fo(_) => unreachable!(),
//! }
//! let solver = Solver::new(problem).unwrap();
//! let db = parse_instance(&schema, "N(b,c,1) O(1)").unwrap();
//! let verdict = solver.solve(&db);
//! assert!(verdict.is_certain());
//! assert_eq!(verdict.provenance.backend, BackendKind::DualHorn);
//! ```
//!
//! See `examples/` for richer scenarios and `DESIGN.md` for the module map
//! and the full routing table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cqa_analyze as analyze;
pub use cqa_attack as attack;
pub use cqa_core as core;
pub use cqa_emit as emit;
pub use cqa_fo as fo;
pub use cqa_gen as gen;
pub use cqa_model as model;
pub use cqa_repair as repair;
pub use cqa_serve as serve;
pub use cqa_solvers as solvers;

pub mod problem_file;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use cqa_analyze::{AuditReport, Code, Diagnostic, ReadSet};
    pub use cqa_attack::{attack_graph::AttackGraph, classify::PkClass, rewrite::kw_rewrite};
    pub use cqa_core::{
        classify::{Classification, NotFoReason},
        compiled_plan::{CompileError, CompiledPlan},
        pipeline::RewritePlan,
        problem::Problem,
        solver::{
            EmitSpec, EmitSpecError, ExecOptions, Evaluator, FallbackBudget, IncrementalSolver,
            Route, RouteKind, Solver, SolverBuilder, SolverError,
        },
        verdict::{BackendKind, Certainty, DeltaOutcome, Provenance, Verdict},
    };
    pub use cqa_emit::{evaluate, Artifact, EmitError, Format, SolverEmitExt};
    pub use cqa_repair::SearchLimits;
    pub use cqa_solvers::backend::Backend;
    pub use cqa_fo::{ast::Formula, eval::eval_closed};
    pub use cqa_model::parser::{
        parse_fact, parse_fks, parse_instance, parse_query, parse_schema,
    };
    pub use cqa_model::{
        Atom, Cst, Delta, DeltaOp, Fact, FkSet, ForeignKey, Instance, JoinStrategy, Query,
        RelName, Schema, Term, Var,
    };
    pub use cqa_repair::oracle::{CertaintyOracle, OracleOutcome};
}
