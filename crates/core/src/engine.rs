//! The certain-answer engine: the historical entry point for evaluating
//! `CERTAINTY(q, FK)` on concrete databases when the problem is in FO.
//!
//! Answering routes through [`crate::Solver`], which serves **every**
//! query class (FO, polynomial-time, hard-with-budget) behind one typed
//! surface. The engine remains the home of the FO-only artifacts a
//! rewriting consumer needs — the plan and its [`CompiledPlan`], the
//! flattened [`Formula`], the compiled formula evaluator and the SQL
//! translation.

use crate::classify::{classify, Classification, NotFoReason};
use crate::compiled_plan::{CompileError, CompiledPlan};
use crate::flatten::{flatten, FlattenError};
use crate::pipeline::RewritePlan;
use crate::problem::Problem;
use cqa_fo::{CompiledFormula, Formula, Strategy};
use cqa_model::Instance;
use std::fmt;

/// An engine wrapping a constructed rewriting plan.
///
/// At construction the plan is also compiled into its view-backed
/// executable form ([`CompiledPlan`]), which evaluates through lazy
/// instance views with zero intermediate database materializations;
/// [`CertainEngine::compiled_plan`] is `None` only when compilation is not
/// possible (see [`CertainEngine::compile_plan`]).
///
/// ```
/// use cqa_core::{CertainEngine, Problem};
/// use cqa_model::parser::{parse_fks, parse_instance, parse_query, parse_schema};
/// use std::sync::Arc;
///
/// let schema = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
/// let q = parse_query(&schema, "N('c',y), O(y), P(y)").unwrap();
/// let fks = parse_fks(&schema, "N[2] -> O").unwrap();
/// let engine = CertainEngine::try_new(Problem::new(q, fks).unwrap()).unwrap();
///
/// let db = parse_instance(&schema, "N(c,a) N(c,b) O(a) P(a) P(b)").unwrap();
/// let compiled = engine.compiled_plan().expect("the §8 plan compiles");
/// assert!(compiled.answer(&db)); // the paper's §8 yes-instance
/// assert!(engine.answer_materialized(&db));
/// ```
#[derive(Clone, Debug)]
pub struct CertainEngine {
    plan: RewritePlan,
    compiled: Option<CompiledPlan>,
}

impl CertainEngine {
    /// Classifies the problem; returns the engine when it is in FO, or the
    /// Theorem 12 hardness reason otherwise. The plan is compiled once
    /// here.
    pub fn try_new(problem: Problem) -> Result<CertainEngine, NotFoReason> {
        match classify(&problem) {
            Classification::Fo(plan) => {
                let compiled = CompiledPlan::compile(&plan).ok();
                Ok(CertainEngine {
                    plan: *plan,
                    compiled,
                })
            }
            Classification::NotFo(reason) => Err(reason),
        }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &RewritePlan {
        &self.plan
    }

    /// The plan's compiled executable form, when compilation succeeded at
    /// construction time.
    pub fn compiled_plan(&self) -> Option<&CompiledPlan> {
        self.compiled.as_ref()
    }

    /// Compiles the plan afresh (exposing the failure reason that
    /// [`CertainEngine::try_new`] swallows when it falls back to the
    /// interpretive evaluator).
    pub fn compile_plan(&self) -> Result<CompiledPlan, CompileError> {
        CompiledPlan::compile(&self.plan)
    }

    /// The problem.
    pub fn problem(&self) -> &Problem {
        &self.plan.problem
    }

    /// Interpretive evaluation through the materializing pipeline — the
    /// differential-testing oracle for [`CertainEngine::compiled_plan`].
    pub fn answer_materialized(&self, db: &Instance) -> bool {
        self.plan.answer(db)
    }

    /// The consistent first-order rewriting as one closed formula.
    pub fn formula(&self) -> Result<Formula, FlattenError> {
        flatten(&self.plan)
    }

    /// The flattened rewriting compiled for repeated evaluation (guarded
    /// strategy): compile once, then `compiled.eval_closed(db)` per
    /// database.
    pub fn compiled(&self) -> Result<CompiledFormula, FlattenError> {
        Ok(CompiledFormula::compile(
            &self.formula()?,
            Strategy::Guarded,
        ))
    }

    /// The rewriting rendered as SQL (active-domain translation).
    pub fn sql(&self) -> Result<(String, String), FlattenError> {
        let f = self.formula()?;
        Ok(cqa_fo::to_sql(self.problem().query().schema(), &f)
            .expect("flattened rewritings are closed"))
    }
}

impl fmt::Display for CertainEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_model::parser::{parse_fks, parse_instance, parse_query, parse_schema};
    use std::sync::Arc;

    #[test]
    fn engine_round_trip() {
        let s = Arc::new(parse_schema("N[2,1] O[1,1] P[1,1]").unwrap());
        let q = parse_query(&s, "N('c',y), O(y), P(y)").unwrap();
        let fks = parse_fks(&s, "N[2] -> O").unwrap();
        let engine = CertainEngine::try_new(Problem::new(q, fks).unwrap()).unwrap();

        let yes = parse_instance(&s, "N(c,a) N(c,b) O(a) P(a) P(b)").unwrap();
        let no = parse_instance(&s, "N(c,a) N(c,b) O(a) P(a)").unwrap();
        let plan = engine.compiled_plan().expect("the §8 plan compiles");
        assert!(plan.answer(&yes));
        assert!(!plan.answer(&no));
        assert!(engine.answer_materialized(&yes));
        assert!(!engine.answer_materialized(&no));

        let f = engine.formula().unwrap();
        assert!(f.is_closed());
        let compiled = engine.compiled().unwrap();
        assert!(compiled.eval_closed(&yes));
        assert!(!compiled.eval_closed(&no));
        let (ddl, expr) = engine.sql().unwrap();
        assert!(ddl.contains("CREATE VIEW adom"));
        assert!(expr.contains("EXISTS"));
    }

    #[test]
    fn hard_problem_rejected_with_reason() {
        let s = Arc::new(parse_schema("N[3,1] O[1,1]").unwrap());
        let q = parse_query(&s, "N(x,'c',y), O(y)").unwrap();
        let fks = parse_fks(&s, "N[3] -> O").unwrap();
        let err = CertainEngine::try_new(Problem::new(q, fks).unwrap()).unwrap_err();
        assert!(err.nl_hard());
        assert!(!err.l_hard());
    }
}
