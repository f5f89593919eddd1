//! The bounded LRU plan cache: the piece that turns the dichotomy's
//! classify-once economics into a service.
//!
//! Classification (Theorem 12) plus plan compilation is the expensive,
//! once-per-`(q, FK)` step; per-instance answering is cheap. The cache
//! holds one [`Arc<Solver>`] per **canonicalized** problem so every
//! request for the same problem — however its text is formatted — shares
//! one compiled route.
//!
//! Canonicalization parses the request's schema/query/fks text and renders
//! the parsed values back through their `Display` impls, which are
//! interner-backed and sorted — so `" N[3,1]  O[1,1] "` and `"O[1,1]
//! N[3,1]"` hit the same entry. The key also folds in the **compiled**
//! execution choices (evaluator, join strategy) because those are baked
//! into the route at [`Solver`] build time and cannot be honored
//! per-request on a shared solver (see `Solver::solve_with`): a client
//! pinning `--evaluator semijoin` gets a plan compiled for semijoin, never
//! a silently different cached one.
//!
//! A raw-text alias layer fronts the canonical map so that byte-identical
//! request texts (the overwhelmingly common case for a service fed by one
//! client template) skip re-parsing entirely — this is what makes repeated
//! cached requests an order of magnitude cheaper than per-request
//! `Solver::new`. The alias map is bounded too: past `ALIASES_PER_PLAN`
//! aliases per plan slot it is cleared wholesale, so a client sending
//! endless textual variants of one hot problem pays re-parses, never
//! unbounded server memory.

use cqa_core::solver::{Evaluator, ExecOptions, FallbackBudget, Solver};
use cqa_core::Problem;
use cqa_model::parser::{parse_fks, parse_query, parse_schema};
use cqa_model::{JoinStrategy, Schema};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A compiled, shareable plan: the solver plus the schema its instances
/// parse against.
#[derive(Debug)]
pub struct CachedPlan {
    /// The schema the cached problem was declared over — requests parse
    /// their database payloads against this.
    pub schema: Arc<Schema>,
    /// The shared solver (classification and plan compilation amortized).
    pub solver: Arc<Solver>,
}

/// The raw (pre-canonicalization) identity of a request's plan: exact
/// texts plus the compiled execution choices.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RawKey {
    /// Schema text exactly as received.
    pub schema: String,
    /// Query text exactly as received.
    pub query: String,
    /// FK text exactly as received.
    pub fks: String,
    /// Which FO evaluator the plan is compiled for.
    pub evaluator: Evaluator,
    /// Which join strategy the plan is compiled with.
    pub join: JoinStrategy,
}

impl RawKey {
    fn canonical(&self, schema: &Schema, problem: &Problem) -> String {
        format!(
            "{schema} | {problem} | {:?} | {}",
            self.evaluator, self.join
        )
    }
}

/// Outcome of a cache lookup, for the metrics registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Served from the cache (raw-text fast path or canonical map).
    Hit,
    /// Parsed, classified and compiled on this request.
    Miss,
}

impl Lookup {
    /// The wire label (`"hit"` / `"miss"`) used in responses.
    pub fn label(&self) -> &'static str {
        match self {
            Lookup::Hit => "hit",
            Lookup::Miss => "miss",
        }
    }
}

/// Raw-text aliases kept per plan slot of capacity before the alias map is
/// cleared. Aliases are only a parse-skipping fast path — the canonical map
/// still answers every hit — so clearing them costs re-parses, not misses.
const ALIASES_PER_PLAN: usize = 8;

struct Entry {
    plan: Arc<CachedPlan>,
    /// Logical clock of the last touch, for LRU eviction.
    stamp: u64,
}

struct Inner {
    /// Canonical key → compiled plan.
    plans: HashMap<String, Entry>,
    /// Raw request identity → canonical key (the parse-skipping fast
    /// path).
    aliases: HashMap<RawKey, String>,
    clock: u64,
    evictions: u64,
}

impl Inner {
    /// Records `key` as an alias of `canonical`, first clearing every alias
    /// when the map already holds `cap`.
    fn alias(&mut self, key: &RawKey, canonical: String, cap: usize) {
        if self.aliases.len() >= cap {
            self.aliases.clear();
        }
        self.aliases.insert(key.clone(), canonical);
    }
}

/// Bounded LRU cache of compiled plans keyed by canonicalized
/// `(schema, query, fks, evaluator, join)`.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` compiled plans
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                plans: HashMap::new(),
                aliases: HashMap::new(),
                clock: 0,
                evictions: 0,
            }),
        }
    }

    /// Number of compiled plans currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().plans.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total LRU evictions so far.
    pub fn evictions(&self) -> u64 {
        self.inner.lock().evictions
    }

    fn alias_cap(&self) -> usize {
        self.capacity * ALIASES_PER_PLAN
    }

    /// The plan for `key`, compiling it on a miss.
    ///
    /// The cache lock is held across parse + classify + compile, so under
    /// concurrent identical requests exactly one performs the build and
    /// every other request observes a hit — plan compilation is never
    /// duplicated, which both the amortization guarantee and the
    /// "exactly one miss" serve test rely on.
    ///
    /// `build_options` supplies the non-key execution defaults the solver
    /// is built with; its `evaluator`/`join` are overridden by the key's.
    /// Hard-class problems are always compiled with a fallback route (the
    /// default oracle limits if `build_options` denies fallback) — whether
    /// a given request may actually spend that budget is the admission
    /// controller's per-request decision, not a compile-time one.
    pub fn get_or_build(
        &self,
        key: &RawKey,
        build_options: &ExecOptions,
    ) -> Result<(Arc<CachedPlan>, Lookup), String> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let now = inner.clock;

        if let Some(canonical) = inner.aliases.get(key).cloned() {
            if let Some(entry) = inner.plans.get_mut(&canonical) {
                entry.stamp = now;
                return Ok((Arc::clone(&entry.plan), Lookup::Hit));
            }
            // The alias outlived its evicted plan; fall through to rebuild.
            inner.aliases.remove(key);
        }

        // Slow path: canonicalize by parsing.
        let schema = Arc::new(parse_schema(&key.schema).map_err(|e| format!("schema: {e}"))?);
        let query = parse_query(&schema, &key.query).map_err(|e| format!("query: {e}"))?;
        let fks = parse_fks(&schema, &key.fks).map_err(|e| format!("fks: {e}"))?;
        let problem = Problem::new(query, fks).map_err(|e| e.to_string())?;
        let canonical = key.canonical(&schema, &problem);

        if let Some(entry) = inner.plans.get_mut(&canonical) {
            entry.stamp = now;
            let plan = Arc::clone(&entry.plan);
            inner.alias(key, canonical, self.alias_cap());
            return Ok((plan, Lookup::Hit));
        }

        let mut options = *build_options;
        options.evaluator = key.evaluator;
        options = options.with_join(key.join);
        if options.fallback == FallbackBudget::Deny {
            options = options.allow_fallback();
        }
        let solver = Solver::builder(problem)
            .options(options)
            .build()
            .map_err(|e| e.to_string())?;
        let plan = Arc::new(CachedPlan {
            schema,
            solver: Arc::new(solver),
        });

        if inner.plans.len() >= self.capacity {
            evict_lru(&mut inner);
        }
        inner.plans.insert(
            canonical.clone(),
            Entry {
                plan: Arc::clone(&plan),
                stamp: now,
            },
        );
        inner.alias(key, canonical, self.alias_cap());
        Ok((plan, Lookup::Miss))
    }
}

/// Drops the least-recently-touched plan and every raw alias pointing at
/// it.
fn evict_lru(inner: &mut Inner) {
    let victim = inner
        .plans
        .iter()
        .min_by_key(|(_, e)| e.stamp)
        .map(|(k, _)| k.clone());
    if let Some(victim) = victim {
        inner.plans.remove(&victim);
        inner.aliases.retain(|_, canonical| *canonical != victim);
        inner.evictions += 1;
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(schema: &str, join: JoinStrategy) -> RawKey {
        RawKey {
            schema: schema.to_string(),
            query: "N('c',y), O(y), P(y)".to_string(),
            fks: "N[2] -> O".to_string(),
            evaluator: Evaluator::Compiled,
            join,
        }
    }

    #[test]
    fn textual_variants_share_one_compiled_plan() {
        let cache = PlanCache::new(8);
        let opts = ExecOptions::sequential();
        let (a, l1) = cache
            .get_or_build(&key("N[2,1] O[1,1] P[1,1]", JoinStrategy::Auto), &opts)
            .unwrap();
        // Different text, same canonical problem: relation order and
        // whitespace must not matter.
        let (b, l2) = cache
            .get_or_build(&key("P[1,1]  O[1,1] N[2,1]", JoinStrategy::Auto), &opts)
            .unwrap();
        assert_eq!(l1, Lookup::Miss);
        assert_eq!(l2, Lookup::Hit);
        assert!(Arc::ptr_eq(&a.solver, &b.solver));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn compiled_choices_are_part_of_the_key() {
        // A plan compiled for semijoin is NOT the plan compiled for
        // backtracking — sharing them would silently override a client's
        // pinned evaluator (the satellite-2 regression).
        let cache = PlanCache::new(8);
        let opts = ExecOptions::sequential();
        let (a, _) = cache
            .get_or_build(
                &key("N[2,1] O[1,1] P[1,1]", JoinStrategy::Backtracking),
                &opts,
            )
            .unwrap();
        let (b, l2) = cache
            .get_or_build(&key("N[2,1] O[1,1] P[1,1]", JoinStrategy::Semijoin), &opts)
            .unwrap();
        assert_eq!(l2, Lookup::Miss);
        assert!(!Arc::ptr_eq(&a.solver, &b.solver));
        assert_eq!(a.solver.options().join, JoinStrategy::Backtracking);
        assert_eq!(b.solver.options().join, JoinStrategy::Semijoin);
    }

    #[test]
    fn lru_evicts_the_coldest_plan_and_its_aliases() {
        let cache = PlanCache::new(2);
        let opts = ExecOptions::sequential();
        let k1 = key("N[2,1] O[1,1] P[1,1]", JoinStrategy::Auto);
        let k2 = key("N[2,1] O[1,1] P[1,1]", JoinStrategy::Semijoin);
        let k3 = key("N[2,1] O[1,1] P[1,1]", JoinStrategy::Backtracking);
        cache.get_or_build(&k1, &opts).unwrap();
        cache.get_or_build(&k2, &opts).unwrap();
        // Touch k1 so k2 is the LRU victim.
        cache.get_or_build(&k1, &opts).unwrap();
        cache.get_or_build(&k3, &opts).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // k1 survived; k2 was evicted and rebuilds as a miss.
        let (_, l1) = cache.get_or_build(&k1, &opts).unwrap();
        assert_eq!(l1, Lookup::Hit);
        let (_, l2) = cache.get_or_build(&k2, &opts).unwrap();
        assert_eq!(l2, Lookup::Miss);
    }

    #[test]
    fn whitespace_variants_hit_without_growing_aliases_past_the_cap() {
        // Regression: every new raw spelling of a cached problem used to
        // add an alias that only eviction of its plan could drop, so a
        // client could grow a hot plan's aliases without bound.
        let cache = PlanCache::new(4);
        let opts = ExecOptions::sequential();
        let cap = 4 * ALIASES_PER_PLAN;
        for i in 0..10_000 {
            let pad = |n: usize| " ".repeat(n + 1);
            let schema = format!("N[2,1]{}O[1,1]{}P[1,1]", pad(i % 100), pad(i / 100));
            let (_, lookup) = cache
                .get_or_build(&key(&schema, JoinStrategy::Auto), &opts)
                .unwrap();
            let expected = if i == 0 { Lookup::Miss } else { Lookup::Hit };
            assert_eq!(lookup, expected, "variant {i}");
            let aliases = cache.inner.lock().aliases.len();
            assert!(aliases <= cap, "variant {i}: {aliases} aliases");
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn parse_errors_surface_instead_of_caching() {
        let cache = PlanCache::new(2);
        let bad = RawKey {
            schema: "N[2,1".to_string(),
            query: "N(x,y)".to_string(),
            fks: String::new(),
            evaluator: Evaluator::Compiled,
            join: JoinStrategy::Auto,
        };
        assert!(cache.get_or_build(&bad, &ExecOptions::sequential()).is_err());
        assert!(cache.is_empty());
    }
}
