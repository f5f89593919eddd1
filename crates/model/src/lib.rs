//! # cqa-model
//!
//! The relational data model underlying consistent query answering (CQA) with
//! primary keys and unary foreign keys, as formalized in
//! *"A Dichotomy in Consistent Query Answering for Primary Keys and Unary
//! Foreign Keys"* (Hannula & Wijsen, PODS 2022).
//!
//! This crate provides the substrate every other crate in the workspace builds
//! on:
//!
//! * interned [`Cst`] constants and [`Var`] variables ([`intern`]);
//! * relation [`Schema`]s with signatures `[n, k]` (arity `n`, primary key =
//!   the first `k` positions) ([`schema`]);
//! * [`Atom`]s, self-join-free Boolean conjunctive [`Query`]s, [`Fact`]s and
//!   database [`Instance`]s with primary-key *block* indexes;
//! * unary [`ForeignKey`]s `R[i] → S` and sets thereof ([`fk`]);
//! * conjunctive-query evaluation (homomorphism search) ([`eval`]), with
//!   Yannakakis semijoin execution for acyclic conjunctions ([`acyclic`]);
//! * a small text syntax for schemas, queries, foreign keys and instances
//!   ([`parser`]).
//!
//! Positions are **1-based** throughout the public API, matching the paper's
//! notation (`R[i] → S`, position `(R, i)`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acyclic;
pub mod atom;
pub mod binding;
pub mod delta;
pub mod error;
pub mod eval;
pub mod fact;
pub mod fk;
pub mod instance;
pub mod intern;
pub mod parser;
pub mod query;
pub mod schema;
pub mod term;
pub mod view;

pub use acyclic::{is_acyclic, JoinStrategy, SemijoinPlan};
pub use atom::Atom;
pub use binding::{Binding, CompiledAtom, Slot, SlotTerm, Trail};
pub use delta::{Delta, DeltaOp};
pub use error::ModelError;
pub use eval::{
    all_valuations, find_valuation, find_valuation_with, satisfies, AnchoredMatcher,
    CompiledQuery, Valuation,
};
pub use fact::Fact;
pub use fk::{FkSet, ForeignKey};
pub use instance::{Candidates, Instance, InstanceIndex};
pub use intern::{by_name, sort_by_name, symbol_counts, ByName, Cst, Names, Sym, SymbolCounts, Var};
pub use query::Query;
pub use schema::{Position, RelName, Schema, Signature};
pub use term::Term;
pub use view::{FactSource, InstanceView, ReadLog, RenameTable};
