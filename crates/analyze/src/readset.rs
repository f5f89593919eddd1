//! Read-set inference: the exact (relation, block-key) pairs a compiled
//! plan can touch.
//!
//! The inference is deliberately coarse everywhere except where the plan
//! structure *proves* block locality: a Lemma 45 tail whose probe key is
//! ground reads exactly one block of its relation, and that is the only
//! place a compiled plan probes by key with a statically known key. Every
//! other access — relevance-query joins, non-dangling probes, residual
//! formula evaluation, active-domain collection — is recorded as a
//! whole-relation read. [`AccessPattern::Whole`] absorbs block reads of the
//! same relation, so the result is always sound: if a fact with key `k` in
//! relation `R` can influence the plan's answer, then
//! [`ReadSet::may_read`]`(R, k)` is `true`.
//!
//! The incremental solver consumes this: a delta none of whose facts may
//! be read leaves the previous verdict (and the session's per-row state)
//! valid — the *Unaffected* rung fires per *block*, not per relation.

use crate::ir::{FormulaIr, OpIr, PatIr, PlanIr, TailIr};
use cqa_model::{by_name, sort_by_name, Cst, RelName};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// How a plan accesses one relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AccessPattern {
    /// Any block may be read (scans, joins, data-dependent probes).
    Whole,
    /// Only the blocks with these exact keys may be read.
    Blocks(BTreeSet<Vec<Cst>>),
}

/// The set of (relation, key-pattern) pairs a plan can touch. Relations
/// absent from the set are never read at all.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReadSet {
    map: BTreeMap<RelName, AccessPattern>,
}

impl ReadSet {
    /// The empty read-set (reads nothing).
    pub fn new() -> ReadSet {
        ReadSet::default()
    }

    /// A read-set marking every relation of `rels` as wholly read — the
    /// conservative description of backends that cannot be instrumented
    /// (poly-time solvers and the fallback oracle read the raw instance).
    pub fn whole_over<I: IntoIterator<Item = RelName>>(rels: I) -> ReadSet {
        let mut rs = ReadSet::new();
        for r in rels {
            rs.add_whole(r);
        }
        rs
    }

    /// Marks `rel` as wholly read (absorbs any block-level entry).
    pub fn add_whole(&mut self, rel: RelName) {
        self.map.insert(rel, AccessPattern::Whole);
    }

    /// Adds one readable block of `rel`; a whole-relation entry absorbs it.
    pub fn add_block(&mut self, rel: RelName, key: Vec<Cst>) {
        match self.map.get_mut(&rel) {
            Some(AccessPattern::Whole) => {}
            Some(AccessPattern::Blocks(keys)) => {
                keys.insert(key);
            }
            None => {
                self.map
                    .insert(rel, AccessPattern::Blocks(BTreeSet::from([key])));
            }
        }
    }

    /// The access pattern for `rel`, if the plan reads it at all.
    pub fn pattern(&self, rel: RelName) -> Option<&AccessPattern> {
        self.map.get(&rel)
    }

    /// Whether `rel` is read without block bounds.
    pub fn is_whole(&self, rel: RelName) -> bool {
        matches!(self.map.get(&rel), Some(AccessPattern::Whole))
    }

    /// Whether a fact in the block `rel(key, ∗)` may be read — i.e. whether
    /// inserting or removing such a fact can change the plan's answer.
    pub fn may_read(&self, rel: RelName, key: &[Cst]) -> bool {
        match self.map.get(&rel) {
            None => false,
            Some(AccessPattern::Whole) => true,
            Some(AccessPattern::Blocks(keys)) => keys.iter().any(|k| k.as_slice() == key),
        }
    }

    /// Whether a recorded probe is covered: a key probe needs
    /// [`ReadSet::may_read`], a whole-relation scan (`key = None`) needs
    /// [`AccessPattern::Whole`].
    pub fn covers(&self, rel: RelName, key: Option<&[Cst]>) -> bool {
        match key {
            Some(k) => self.may_read(rel, k),
            None => self.is_whole(rel),
        }
    }

    /// The relations the plan may read, in order.
    pub fn rels(&self) -> impl Iterator<Item = RelName> + '_ {
        self.map.keys().copied()
    }

    /// Number of relations with any access.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the plan reads nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl fmt::Display for ReadSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.map.is_empty() {
            return write!(f, "(reads nothing)");
        }
        let mut rels: Vec<(&RelName, &AccessPattern)> = self.map.iter().collect();
        rels.sort_by(|a, b| by_name(a.0, b.0));
        let mut first = true;
        for (rel, pat) in rels {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            match pat {
                AccessPattern::Whole => write!(f, "{rel}: *")?,
                AccessPattern::Blocks(keys) => {
                    write!(f, "{rel}: blocks {{")?;
                    let mut keys: Vec<&Vec<Cst>> = keys.iter().collect();
                    sort_by_name(&mut keys);
                    for (i, key) in keys.into_iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "[")?;
                        for (j, c) in key.iter().enumerate() {
                            if j > 0 {
                                write!(f, " ")?;
                            }
                            write!(f, "{c}")?;
                        }
                        write!(f, "]")?;
                    }
                    write!(f, "}}")?;
                }
            }
        }
        Ok(())
    }
}

/// Infers the read-set of a compiled plan.
pub fn infer(plan: &PlanIr) -> ReadSet {
    let mut whole: BTreeSet<RelName> = BTreeSet::new();
    let mut blocks: Vec<(RelName, Vec<Cst>)> = Vec::new();
    collect(plan, &mut whole, &mut blocks);
    let mut rs = ReadSet::new();
    for r in whole {
        rs.add_whole(r);
    }
    for (r, k) in blocks {
        rs.add_block(r, k);
    }
    rs
}

fn formula_reads(f: &FormulaIr, level_rels: &BTreeSet<RelName>, whole: &mut BTreeSet<RelName>) {
    for a in f.root.atoms() {
        whole.insert(a.rel);
    }
    // Active-domain evaluation reads every visible relation (the domain is
    // collected from all of them); visibility at this level is bounded by
    // the level's restriction set.
    if f.uses_domain {
        whole.extend(level_rels.iter().copied());
    }
}

fn collect(plan: &PlanIr, whole: &mut BTreeSet<RelName>, blocks: &mut Vec<(RelName, Vec<Cst>)>) {
    for op in &plan.ops {
        match op {
            OpIr::FilterRelevant {
                filter, relevance, ..
            } => {
                // The op scans every block of `filter` and joins the
                // relevance query over the whole view.
                whole.insert(*filter);
                for a in &relevance.atoms {
                    whole.insert(a.rel);
                }
            }
            OpIr::FilterNonDangling {
                filter, outgoing, ..
            } => {
                whole.insert(*filter);
                for fk in outgoing {
                    whole.insert(fk.to);
                }
            }
        }
    }
    match &plan.tail {
        TailIr::Kw { formula, .. } => formula_reads(formula, &plan.rels, whole),
        TailIr::Lemma45(l) => {
            for fk in &l.outgoing {
                whole.insert(fk.to);
            }
            // The step probes exactly one block of `rel` when the key is
            // ground at compile time; a parameterized key is data-dependent
            // and degrades to a whole-relation read.
            let ground: Option<Vec<Cst>> = l
                .key
                .iter()
                .map(|t| match t {
                    PatIr::Cst(c) => Some(*c),
                    PatIr::Param(_) | PatIr::X(_) => None,
                })
                .collect();
            match ground {
                Some(key) => blocks.push((l.rel, key)),
                None => {
                    whole.insert(l.rel);
                }
            }
            collect(&l.sub, whole, blocks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(n: &str) -> RelName {
        RelName::new(n)
    }

    #[test]
    fn whole_absorbs_blocks() {
        let mut rs = ReadSet::new();
        rs.add_block(rel("N"), vec![Cst::new("c")]);
        assert!(rs.may_read(rel("N"), &[Cst::new("c")]));
        assert!(!rs.may_read(rel("N"), &[Cst::new("d")]));
        rs.add_whole(rel("N"));
        assert!(rs.may_read(rel("N"), &[Cst::new("d")]));
        // Block adds after Whole stay Whole.
        rs.add_block(rel("N"), vec![Cst::new("e")]);
        assert!(rs.is_whole(rel("N")));
    }

    #[test]
    fn absent_relation_is_never_read() {
        let rs = ReadSet::whole_over([rel("A")]);
        assert!(!rs.may_read(rel("B"), &[Cst::new("x")]));
        assert!(!rs.covers(rel("B"), None));
        assert!(rs.covers(rel("A"), None));
        assert!(rs.covers(rel("A"), Some(&[Cst::new("x")])));
    }

    #[test]
    fn display_is_stable() {
        let mut rs = ReadSet::new();
        rs.add_whole(rel("O"));
        rs.add_block(rel("N"), vec![Cst::new("c")]);
        let s = rs.to_string();
        assert!(s.contains("O: *"), "{s}");
        assert!(s.contains("N: blocks {[c]}"), "{s}");
    }
}
