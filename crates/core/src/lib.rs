//! # cqa-core
//!
//! The paper's primary contribution, implemented end to end:
//! **deciding whether `CERTAINTY(q, FK)` is in FO, and constructing the
//! consistent first-order rewriting when it is** (Hannula & Wijsen,
//! *A Dichotomy in Consistent Query Answering for Primary Keys and Unary
//! Foreign Keys*, PODS 2022).
//!
//! Main entry points:
//!
//! * [`problem::Problem`] — a validated pair `(q, FK)` with `FK` *about* `q`;
//! * [`solver::Solver`] — **the unified entry point**: classifies once and
//!   routes every query class to its best backend (compiled FO plan,
//!   dual-Horn / reachability poly-time solvers, budgeted oracle), with
//!   typed [`solver::ExecOptions`] and provenance-carrying
//!   [`verdict::Verdict`]s;
//! * [`classify::classify`] — Theorem 12: FO (with a constructed
//!   [`pipeline::RewritePlan`]) vs. L-hard / NL-hard with witnesses;
//! * [`compiled_plan::CompiledPlan`] — the plan compiled once into a lazy,
//!   view-backed sequential executor (zero intermediate database
//!   materializations; the solver's FO hot path);
//! * [`flatten`] — folds a plan into one closed first-order sentence
//!   (render it as SQL with `cqa_fo::to_sql`).
//!
//! Internal machinery, each mapped to its definition in the paper:
//!
//! | module | paper |
//! |--------|-------|
//! | [`depgraph`] | dependency graph of `FK`, closures `P_FK` (§3.2) + implication closure `FK*` |
//! | [`obedience`] | obedience, Definition 5 / Theorem 7 (syntactic characterization) |
//! | [`interference`] | block-interference, Definition 9 |
//! | [`fk_types`] | the `weak` / `o→o` / `d→d` / `d→o` taxonomy (Fig. 4) |
//! | [`pipeline`] | the Appendix E reduction pipeline (Lemmas 36, 37, 39, 40, 45) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod answers;
pub mod classify;
pub mod compiled_plan;
pub mod depgraph;
pub mod fk_types;
pub mod flatten;
pub mod hardness;
pub mod interference;
pub mod obedience;
pub mod pipeline;
pub mod problem;
pub mod solver;
pub mod verdict;

pub use answers::{certain_answers, certain_answers_with, AnswerError};
pub use classify::{classify, Classification, NotFoReason};
pub use compiled_plan::{CompileError, CompiledPlan, ResidualCache};
pub use depgraph::{fk_star, DepGraph};
pub use hardness::{lemma14_instance, lemma15_reduction};
pub use interference::{block_interference, InterferenceWitness};
pub use obedience::{atom_obedient, is_obedient_set, qfk_atoms};
pub use pipeline::RewritePlan;
pub use problem::Problem;
pub use solver::{
    EmitSpec, EmitSpecError, ExecOptions, Evaluator, FallbackBudget, IncrementalSolver, Route,
    RouteKind, SolveMany, Solver, SolverBuilder, SolverError,
};
pub use verdict::{BackendKind, Certainty, DeltaOutcome, Provenance, Verdict};
