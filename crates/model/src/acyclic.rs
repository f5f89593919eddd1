//! GYO acyclicity detection and Yannakakis semijoin evaluation for
//! conjunctions of positive atoms.
//!
//! The backtracking join of [`crate::eval::CompiledQuery`] is index-driven:
//! when successive atoms are reachable through ground key prefixes it does
//! O(1) hash probes per step. But a conjunction whose atoms join on
//! *non-key* positions degenerates to nested relation scans — O(n²) for two
//! atoms, and worse as the chain grows. For **acyclic** conjunctions the
//! Yannakakis algorithm answers satisfiability in time linear in the data: a
//! join tree is built once (GYO reduction, at compile time), and evaluation
//! runs one bottom-up semijoin pass over hash sets of the shared columns.
//!
//! The module provides:
//!
//! * [`JoinStrategy`] — the `auto`/`backtracking`/`semijoin` execution
//!   policy (`auto` everywhere but the differential tests);
//! * [`SemijoinPlan::build`] — GYO reduction over the atom hypergraph
//!   (vertex elimination + ear removal with a parent witness), returning the
//!   join forest or `None` when the conjunction is cyclic;
//! * [`SemijoinPlan::satisfiable`] / [`SemijoinPlan::witness`] — the
//!   bottom-up semijoin pass (plus top-down witness extraction) under an
//!   ambient [`Binding`], generic over any [`FactSource`];
//! * [`backtracking_satisfiable`] — the fail-first backtracking
//!   satisfiability test over the same atoms, used as the `auto`-mode
//!   fallback and as the differential oracle for the semijoin path.
//!
//! **Correctness of the semijoin keys.** Each tree edge's semijoin key is
//! the intersection of the two atoms' *original* variable sets. This is
//! sound because a variable shared by two alive hyperedges has occurrence
//! count ≥ 2 and so is never vertex-eliminated while both are alive; at ear
//! removal time it is still present in both current sets, and the classical
//! GYO theorem gives the parent pointers the running-intersection property
//! over the original hyperedges. Consistency along tree edges therefore
//! implies a globally consistent witness.

use crate::binding::{Binding, CompiledAtom, Slot, SlotTerm, Trail};
use crate::intern::Cst;
use crate::view::FactSource;
use std::collections::{BTreeSet, HashSet};
use std::fmt;

/// Which join algorithm executes a conjunction of positive atoms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JoinStrategy {
    /// Per-conjunction heuristic: semijoin when the conjunction is acyclic
    /// *and* the backtracking join would need two or more relation scans
    /// (see [`SemijoinPlan::prefers_semijoin`]); backtracking otherwise.
    Auto,
    /// Always the backtracking join (the differential oracle).
    Backtracking,
    /// Semijoin whenever the conjunction is acyclic; cyclic conjunctions
    /// still fall back to backtracking (there is no semijoin plan to run).
    Semijoin,
}

impl fmt::Display for JoinStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JoinStrategy::Auto => "auto",
            JoinStrategy::Backtracking => "backtracking",
            JoinStrategy::Semijoin => "semijoin",
        })
    }
}

/// Whether the hypergraph of `atoms` (vertices = slots, one hyperedge per
/// atom) is α-acyclic, per GYO reduction. Constant-only atoms contribute
/// empty edges and never make a conjunction cyclic.
pub fn is_acyclic(atoms: &[CompiledAtom]) -> bool {
    atoms.is_empty() || gyo(&edge_sets(atoms)).is_some()
}

fn edge_sets(atoms: &[CompiledAtom]) -> Vec<BTreeSet<Slot>> {
    atoms
        .iter()
        .map(|a| {
            a.terms
                .iter()
                .filter_map(|t| match t {
                    SlotTerm::Slot(s) => Some(*s),
                    SlotTerm::Cst(_) => None,
                })
                .collect()
        })
        .collect()
}

/// GYO reduction: returns `(root, ear removals as (child, parent) in
/// removal order)` when the hypergraph is acyclic, `None` otherwise.
/// Requires at least one edge.
fn gyo(orig: &[BTreeSet<Slot>]) -> Option<(usize, Vec<(usize, usize)>)> {
    let n = orig.len();
    debug_assert!(n > 0);
    let mut cur: Vec<BTreeSet<Slot>> = orig.to_vec();
    let mut alive: Vec<bool> = vec![true; n];
    let mut steps: Vec<(usize, usize)> = Vec::new();
    loop {
        let mut changed = false;
        // Vertex elimination: a slot occurring in exactly one alive edge is
        // exclusive to it and drops out.
        let mut count: std::collections::HashMap<Slot, usize> = std::collections::HashMap::new();
        for (i, set) in cur.iter().enumerate() {
            if alive[i] {
                for &s in set {
                    *count.entry(s).or_insert(0) += 1;
                }
            }
        }
        for (i, set) in cur.iter_mut().enumerate() {
            if alive[i] {
                let before = set.len();
                set.retain(|s| count[s] > 1);
                changed |= set.len() != before;
            }
        }
        // Ear removal: an edge contained in another alive edge is removed
        // with that edge as its join-tree parent. One removal per round
        // keeps the occurrence counts honest.
        'ear: for i in 0..n {
            if !alive[i] {
                continue;
            }
            for j in 0..n {
                if i != j && alive[j] && cur[i].is_subset(&cur[j]) {
                    alive[i] = false;
                    steps.push((i, j));
                    changed = true;
                    break 'ear;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut root = None;
    for (i, &a) in alive.iter().enumerate() {
        if a {
            if root.is_some() {
                return None; // ≥ 2 irreducible edges: cyclic
            }
            root = Some(i);
        }
    }
    Some((root.expect("ear removal never removes the last edge"), steps))
}

/// One bottom-up semijoin step: reduce `parent`'s rows to those whose
/// projection on the shared slots appears in `child`'s rows. Positions are
/// into the respective atoms' term lists, aligned pairwise per shared slot.
#[derive(Clone, Debug)]
struct Step {
    child: usize,
    parent: usize,
    child_pos: Vec<usize>,
    parent_pos: Vec<usize>,
}

/// A compiled Yannakakis plan for one acyclic conjunction of positive
/// atoms: the join forest from GYO reduction plus the per-edge semijoin
/// column alignments. Built once ([`SemijoinPlan::build`]), evaluated many
/// times against any [`FactSource`].
#[derive(Clone, Debug)]
pub struct SemijoinPlan {
    atoms: Vec<CompiledAtom>,
    /// Ear-removal steps in removal (leaves-first) order — the bottom-up
    /// semijoin schedule.
    steps: Vec<Step>,
    root: usize,
}

impl SemijoinPlan {
    /// Builds the plan, or `None` when `atoms` is empty (nothing to plan)
    /// or the conjunction's hypergraph is cyclic (the caller must keep the
    /// backtracking join).
    pub fn build(atoms: &[CompiledAtom]) -> Option<SemijoinPlan> {
        if atoms.is_empty() {
            return None;
        }
        let orig = edge_sets(atoms);
        let (root, raw_steps) = gyo(&orig)?;
        let pos_of = |atom: &CompiledAtom, s: Slot| -> usize {
            atom.terms
                .iter()
                .position(|t| *t == SlotTerm::Slot(s))
                .expect("shared slot occurs in the atom")
        };
        let steps = raw_steps
            .into_iter()
            .map(|(child, parent)| {
                let shared: Vec<Slot> = orig[child].intersection(&orig[parent]).copied().collect();
                Step {
                    child,
                    parent,
                    child_pos: shared.iter().map(|&s| pos_of(&atoms[child], s)).collect(),
                    parent_pos: shared.iter().map(|&s| pos_of(&atoms[parent], s)).collect(),
                }
            })
            .collect();
        Some(SemijoinPlan {
            atoms: atoms.to_vec(),
            steps,
            root,
        })
    }

    /// The atoms the plan joins, in their original order.
    pub fn atoms(&self) -> &[CompiledAtom] {
        &self.atoms
    }

    /// Materializes each atom's candidate rows under the ambient binding
    /// and runs the bottom-up semijoin pass. `None` as soon as any row set
    /// empties (the conjunction is unsatisfiable); otherwise the reduced
    /// row sets, in which every root row extends to a full match.
    fn reduce<'s, S: FactSource + ?Sized>(
        &self,
        src: &'s S,
        b: &mut Binding,
        trail: &mut Trail,
        scratch: &mut Vec<Cst>,
    ) -> Option<Vec<Vec<&'s [Cst]>>> {
        let mut rows: Vec<Vec<&'s [Cst]>> = Vec::with_capacity(self.atoms.len());
        for atom in &self.atoms {
            let cands = src.guarded_candidates(atom, b, scratch);
            let mut keep: Vec<&'s [Cst]> = Vec::with_capacity(cands.len());
            for row in cands {
                let frame = trail.frame();
                if b.unify_row(&atom.terms, row, trail) {
                    keep.push(row);
                }
                trail.undo_to(frame, b);
            }
            if keep.is_empty() {
                return None;
            }
            rows.push(keep);
        }
        let mut probe: Vec<Cst> = Vec::new();
        for step in &self.steps {
            let keys: HashSet<Vec<Cst>> = rows[step.child]
                .iter()
                .map(|r| step.child_pos.iter().map(|&p| r[p]).collect())
                .collect();
            rows[step.parent].retain(|r| {
                probe.clear();
                probe.extend(step.parent_pos.iter().map(|&p| r[p]));
                keys.contains(probe.as_slice())
            });
            if rows[step.parent].is_empty() {
                return None;
            }
        }
        Some(rows)
    }

    /// Whether the conjunction has a satisfying extension of the ambient
    /// binding. Leaves `b` exactly as it found it.
    pub fn satisfiable<S: FactSource + ?Sized>(
        &self,
        src: &S,
        b: &mut Binding,
        trail: &mut Trail,
        scratch: &mut Vec<Cst>,
    ) -> bool {
        self.reduce(src, b, trail, scratch).is_some()
    }

    /// Like [`SemijoinPlan::satisfiable`], but on success **binds** one
    /// satisfying extension into `b` (recording on `trail`): the root row is
    /// picked from the reduced set and children are chosen top-down to agree
    /// with their parent on the shared slots — consistent globally by the
    /// running-intersection property.
    pub fn witness<S: FactSource + ?Sized>(
        &self,
        src: &S,
        b: &mut Binding,
        trail: &mut Trail,
        scratch: &mut Vec<Cst>,
    ) -> bool {
        let Some(rows) = self.reduce(src, b, trail, scratch) else {
            return false;
        };
        let mut chosen: Vec<Option<&[Cst]>> = vec![None; self.atoms.len()];
        chosen[self.root] = Some(rows[self.root][0]);
        for step in self.steps.iter().rev() {
            let parent_row = chosen[step.parent].expect("parent chosen before child");
            let child_row = rows[step.child]
                .iter()
                .find(|r| {
                    step.child_pos
                        .iter()
                        .zip(&step.parent_pos)
                        .all(|(&cp, &pp)| r[cp] == parent_row[pp])
                })
                .expect("a reduced parent row has child support");
            chosen[step.child] = Some(*child_row);
        }
        for (atom, row) in self.atoms.iter().zip(&chosen) {
            let ok = b.unify_row(&atom.terms, row.expect("every atom chosen"), trail);
            debug_assert!(ok, "tree-consistent rows unify globally");
            if !ok {
                return false;
            }
        }
        true
    }

    /// The `auto`-mode heuristic: would the backtracking join need **two or
    /// more** whole-relation scans? Simulates its index use as a greedy
    /// closure — an atom whose key prefix is ground under the already-bound
    /// slots resolves by hash probe (binding its slots); when no atom can,
    /// one is scanned. The first scan is free (backtracking scans its
    /// opening atom too); a second scan is the nested-loop signature the
    /// semijoin pass beats. Unknown relations vote for backtracking (their
    /// empty candidate sets make it exit immediately).
    pub fn prefers_semijoin<S: FactSource + ?Sized>(&self, src: &S, b: &Binding) -> bool {
        let n_slots = b.len();
        let mut bound = vec![false; n_slots];
        for (s, flag) in bound.iter_mut().enumerate() {
            *flag = b.get(s as Slot).is_some();
        }
        let mut key_lens = Vec::with_capacity(self.atoms.len());
        for atom in &self.atoms {
            match src.key_len(atom.rel) {
                Some(k) => key_lens.push(k.min(atom.terms.len())),
                None => return false,
            }
        }
        let mut remaining: Vec<usize> = (0..self.atoms.len()).collect();
        let mut scans = 0usize;
        while !remaining.is_empty() {
            let mut progressed = false;
            remaining.retain(|&i| {
                let atom = &self.atoms[i];
                let key_ground = atom.terms[..key_lens[i]].iter().all(|t| match t {
                    SlotTerm::Cst(_) => true,
                    SlotTerm::Slot(s) => bound[*s as usize],
                });
                if key_ground {
                    for t in &atom.terms {
                        if let SlotTerm::Slot(s) = t {
                            bound[*s as usize] = true;
                        }
                    }
                    progressed = true;
                    false
                } else {
                    true
                }
            });
            if remaining.is_empty() {
                break;
            }
            if !progressed {
                scans += 1;
                if scans >= 2 {
                    return true;
                }
                let i = remaining.remove(0);
                for t in &self.atoms[i].terms {
                    if let SlotTerm::Slot(s) = t {
                        bound[*s as usize] = true;
                    }
                }
            }
        }
        false
    }

    /// Dispatches between the semijoin pass and the backtracking fallback:
    /// semijoin when `force` (the compiled [`JoinStrategy::Semijoin`]
    /// policy) or when [`SemijoinPlan::prefers_semijoin`] says the
    /// backtracking join would degenerate to nested scans.
    pub fn eval_exists<S: FactSource + ?Sized>(
        &self,
        src: &S,
        b: &mut Binding,
        trail: &mut Trail,
        scratch: &mut Vec<Cst>,
        force: bool,
    ) -> bool {
        if force || self.prefers_semijoin(src, b) {
            self.satisfiable(src, b, trail, scratch)
        } else {
            backtracking_satisfiable(&self.atoms, src, b, trail, scratch)
        }
    }
}

/// Fail-first backtracking satisfiability over a conjunction of positive
/// atoms under an ambient binding — the same algorithm as the compiled CQ
/// join's search, kept as the `auto`-mode fallback and the differential
/// oracle for the semijoin path. Leaves `b` exactly as it found it.
pub fn backtracking_satisfiable<S: FactSource + ?Sized>(
    atoms: &[CompiledAtom],
    src: &S,
    b: &mut Binding,
    trail: &mut Trail,
    scratch: &mut Vec<Cst>,
) -> bool {
    let mut remaining: Vec<usize> = (0..atoms.len()).collect();
    bt_search(atoms, src, b, trail, scratch, &mut remaining)
}

fn bt_search<S: FactSource + ?Sized>(
    atoms: &[CompiledAtom],
    src: &S,
    b: &mut Binding,
    trail: &mut Trail,
    scratch: &mut Vec<Cst>,
    remaining: &mut Vec<usize>,
) -> bool {
    if remaining.is_empty() {
        return true;
    }
    let mut best_idx = 0;
    let mut best_len = usize::MAX;
    for (i, &ai) in remaining.iter().enumerate() {
        let len = src.guarded_candidates(&atoms[ai], b, scratch).len();
        if len < best_len {
            best_idx = i;
            best_len = len;
            if len == 0 {
                break;
            }
        }
    }
    let ai = remaining.swap_remove(best_idx);
    let atom = &atoms[ai];
    let cands = src.guarded_candidates(atom, b, scratch);
    let mut found = false;
    for row in cands {
        let frame = trail.frame();
        if b.unify_row(&atom.terms, row, trail)
            && bt_search(atoms, src, b, trail, scratch, remaining)
        {
            trail.undo_to(frame, b);
            found = true;
            break;
        }
        trail.undo_to(frame, b);
    }
    remaining.push(ai);
    let last = remaining.len() - 1;
    remaining.swap(best_idx, last);
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelName;

    fn atom(rel: &str, slots: &[u32]) -> CompiledAtom {
        CompiledAtom {
            rel: RelName::new(rel),
            terms: slots.iter().map(|&s| SlotTerm::Slot(s)).collect(),
        }
    }

    #[test]
    fn chain_is_acyclic() {
        // R(x,y), S(y,z), T(z): the classic path join.
        let atoms = [atom("R", &[0, 1]), atom("S", &[1, 2]), atom("T", &[2])];
        assert!(is_acyclic(&atoms));
        let plan = SemijoinPlan::build(&atoms).unwrap();
        assert_eq!(plan.steps.len(), 2);
    }

    #[test]
    fn triangle_is_cyclic() {
        // R(x,y), S(y,z), T(z,x): the classic cyclic triangle.
        let atoms = [
            atom("R", &[0, 1]),
            atom("S", &[1, 2]),
            atom("T", &[2, 0]),
        ];
        assert!(!is_acyclic(&atoms));
        assert!(SemijoinPlan::build(&atoms).is_none());
    }

    #[test]
    fn star_is_acyclic() {
        // Hub E(x,y,z) with spokes A(x), B(y), C(z).
        let atoms = [
            atom("E", &[0, 1, 2]),
            atom("A", &[0]),
            atom("B", &[1]),
            atom("C", &[2]),
        ];
        assert!(is_acyclic(&atoms));
        let plan = SemijoinPlan::build(&atoms).unwrap();
        assert_eq!(plan.steps.len(), 3, "three edges in the join tree");
        // The hub is the parent of at least the first two spokes (the last
        // containment may orient either way once the hub's exclusive
        // vertices are eliminated).
        assert!(plan.steps.iter().filter(|s| s.parent == 0).count() >= 2);
    }

    #[test]
    fn cycle_with_chord_hypergraph_is_acyclic() {
        // R(x,y), S(y,z), T(z,x) is cyclic, but adding U(x,y,z) covers the
        // cycle: every pairwise edge is contained in the big one.
        let atoms = [
            atom("R", &[0, 1]),
            atom("S", &[1, 2]),
            atom("T", &[2, 0]),
            atom("U", &[0, 1, 2]),
        ];
        assert!(is_acyclic(&atoms));
    }

    #[test]
    fn four_cycle_is_cyclic() {
        let atoms = [
            atom("A", &[0, 1]),
            atom("B", &[1, 2]),
            atom("C", &[2, 3]),
            atom("D", &[3, 0]),
        ];
        assert!(!is_acyclic(&atoms));
    }

    #[test]
    fn disconnected_atoms_are_acyclic() {
        // A(x), B(y): a cross product — one tree with an empty-key edge.
        let atoms = [atom("A", &[0]), atom("B", &[1])];
        let plan = SemijoinPlan::build(&atoms).unwrap();
        assert_eq!(plan.steps.len(), 1);
        assert!(plan.steps[0].child_pos.is_empty(), "empty semijoin key");
    }

    #[test]
    fn duplicate_atoms_are_acyclic() {
        let atoms = [atom("R", &[0, 1]), atom("R", &[0, 1])];
        assert!(is_acyclic(&atoms));
    }

    #[test]
    fn empty_conjunction_has_no_plan() {
        assert!(is_acyclic(&[]));
        assert!(SemijoinPlan::build(&[]).is_none());
    }

    #[test]
    fn constant_only_atom_is_an_empty_edge() {
        let ground = CompiledAtom {
            rel: RelName::new("G"),
            terms: vec![SlotTerm::Cst(Cst::new("c"))],
        };
        let atoms = [atom("R", &[0, 1]), ground];
        assert!(is_acyclic(&atoms));
        assert!(SemijoinPlan::build(&atoms).is_some());
    }
}
