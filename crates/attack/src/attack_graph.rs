//! The attack graph of a self-join-free conjunctive query (paper §3.1,
//! following Koutris & Wijsen).
//!
//! Vertices are the atoms of `q`. There is an attack `F ⇝ G` (for `F ≠ G`)
//! if some sequence of variables `x₀, …, xₙ`, all outside `F^{+,q}`, links a
//! variable of `F` to a variable of `G`, adjacent variables co-occurring in
//! an atom of `q`. An attack is *weak* when `K(q) ⊨ key(F) → key(G)` and
//! *strong* otherwise; strong attacks on cycles drive the coNP-hard cases of
//! the PK-only trichotomy.

use crate::fd::{f_plus, k_of};
use cqa_model::{Query, RelName, Var};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The attack graph of a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttackGraph {
    atoms: Vec<RelName>,
    edges: BTreeMap<RelName, BTreeSet<RelName>>,
    strong: BTreeSet<(RelName, RelName)>,
}

impl AttackGraph {
    /// Computes the attack graph of `q`.
    pub fn of(q: &Query) -> AttackGraph {
        let atoms: Vec<RelName> = q.relations().collect();
        let all_vars = q.vars();
        let k = k_of(q);
        let mut edges: BTreeMap<RelName, BTreeSet<RelName>> = BTreeMap::new();
        let mut strong = BTreeSet::new();

        for &f in &atoms {
            let f_atom = q.atom(f).expect("atom exists");
            let plus = f_plus(q, f);
            let outside: BTreeSet<Var> = all_vars.difference(&plus).copied().collect();

            // BFS in the co-occurrence graph restricted to `outside`,
            // starting from vars(F) ∖ F⁺.
            let mut reach: BTreeSet<Var> = f_atom
                .vars()
                .intersection(&outside)
                .copied()
                .collect();
            let mut stack: Vec<Var> = reach.iter().copied().collect();
            while let Some(u) = stack.pop() {
                for atom in q.atoms() {
                    let vars = atom.vars();
                    if vars.contains(&u) {
                        for w in vars {
                            if outside.contains(&w) && reach.insert(w) {
                                stack.push(w);
                            }
                        }
                    }
                }
            }

            let targets: BTreeSet<RelName> = atoms
                .iter()
                .copied()
                .filter(|&g| g != f)
                .filter(|&g| {
                    let g_vars = q.atom(g).expect("atom exists").vars();
                    g_vars.iter().any(|v| reach.contains(v))
                })
                .collect();
            for &g in &targets {
                let key_f = q.key_vars(f);
                let key_g = q.key_vars(g);
                if !k.implies(&key_f, &key_g) {
                    strong.insert((f, g));
                }
            }
            edges.insert(f, targets);
        }
        AttackGraph {
            atoms,
            edges,
            strong,
        }
    }

    /// The atoms (vertices), canonical order.
    pub fn atoms(&self) -> &[RelName] {
        &self.atoms
    }

    /// Whether `f ⇝ g`.
    pub fn attacks(&self, f: RelName, g: RelName) -> bool {
        self.edges.get(&f).map(|s| s.contains(&g)).unwrap_or(false)
    }

    /// Whether `f ⇝ g` is a strong attack.
    pub fn is_strong(&self, f: RelName, g: RelName) -> bool {
        self.strong.contains(&(f, g))
    }

    /// All attacks as `(from, to, strong)` triples, in the atoms' canonical
    /// (name) order.
    pub fn all_attacks(&self) -> Vec<(RelName, RelName, bool)> {
        let mut out = Vec::new();
        for &f in &self.atoms {
            for &g in self.atoms.iter().filter(|&&g| self.attacks(f, g)) {
                out.push((f, g, self.is_strong(f, g)));
            }
        }
        out
    }

    /// Atoms with no incoming attack.
    pub fn unattacked(&self) -> Vec<RelName> {
        self.atoms
            .iter()
            .copied()
            .filter(|&g| !self.atoms.iter().any(|&f| self.attacks(f, g)))
            .collect()
    }

    /// Whether the graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm.
        let mut indeg: BTreeMap<RelName, usize> =
            self.atoms.iter().map(|&a| (a, 0)).collect();
        for gs in self.edges.values() {
            for g in gs {
                *indeg.get_mut(g).expect("vertex") += 1;
            }
        }
        let mut queue: Vec<RelName> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&a, _)| a)
            .collect();
        let mut removed = 0usize;
        while let Some(a) = queue.pop() {
            removed += 1;
            if let Some(gs) = self.edges.get(&a) {
                for g in gs {
                    let d = indeg.get_mut(g).expect("vertex");
                    *d -= 1;
                    if *d == 0 {
                        queue.push(*g);
                    }
                }
            }
        }
        removed == self.atoms.len()
    }

    /// Whether some cycle passes through a strong attack — i.e. a strong edge
    /// `(f, g)` with `f` reachable back from `g`. This is the coNP-hardness
    /// criterion of the PK-only trichotomy.
    pub fn has_strong_cycle(&self) -> bool {
        self.strong
            .iter()
            .any(|&(f, g)| self.reaches(g, f))
    }

    fn reaches(&self, from: RelName, to: RelName) -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        seen.insert(from);
        while let Some(a) = stack.pop() {
            if a == to {
                return true;
            }
            if let Some(gs) = self.edges.get(&a) {
                for &g in gs {
                    if seen.insert(g) {
                        stack.push(g);
                    }
                }
            }
        }
        false
    }
}

impl fmt::Display for AttackGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (from, to, strong) in self.all_attacks() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            let arrow = if strong { "⇝ₛ" } else { "⇝" };
            write!(f, "{from} {arrow} {to}")?;
        }
        if first {
            write!(f, "(no attacks)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_model::parser::{parse_query, parse_schema};
    use std::sync::Arc;

    fn rel(s: &str) -> RelName {
        RelName::new(s)
    }

    #[test]
    fn chain_query_is_acyclic() {
        let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
        let q = parse_query(&s, "R(x,y), S(y,z)").unwrap();
        let ag = AttackGraph::of(&q);
        assert!(ag.attacks(rel("R"), rel("S")));
        assert!(!ag.attacks(rel("S"), rel("R")));
        assert!(ag.is_acyclic());
        assert_eq!(ag.unattacked(), vec![rel("R")]);
    }

    #[test]
    fn two_cycle_weak_attacks() {
        // Paper §6: q = {R(x,y), S(y,x)} has a cyclic attack graph.
        let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
        let q = parse_query(&s, "R(x,y), S(y,x)").unwrap();
        let ag = AttackGraph::of(&q);
        assert!(ag.attacks(rel("R"), rel("S")));
        assert!(ag.attacks(rel("S"), rel("R")));
        assert!(!ag.is_acyclic());
        // Both attacks are weak: x → y and y → x hold in K(q).
        assert!(!ag.is_strong(rel("R"), rel("S")));
        assert!(!ag.is_strong(rel("S"), rel("R")));
        assert!(!ag.has_strong_cycle());
    }

    #[test]
    fn strong_cycle_detected() {
        // The classical coNP-complete query {R(x,y), S(z,y)}.
        let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
        let q = parse_query(&s, "R(x,y), S(z,y)").unwrap();
        let ag = AttackGraph::of(&q);
        assert!(!ag.is_acyclic());
        assert!(ag.has_strong_cycle());
    }

    #[test]
    fn constants_weaken_attacks() {
        // q = {R(x,'c'), S(y,'d')}: no shared variables, no attacks.
        let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
        let q = parse_query(&s, "R(x,'c'), S(y,'d')").unwrap();
        let ag = AttackGraph::of(&q);
        assert!(ag.all_attacks().is_empty());
        assert!(ag.is_acyclic());
        assert_eq!(ag.unattacked().len(), 2);
    }

    #[test]
    fn fplus_blocks_attack() {
        // q = {R(x,y), S(x,y)}: R⁺ = {x,y} = vars, so no attack R ⇝ S, and
        // symmetrically. The graph is empty.
        let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
        let q = parse_query(&s, "R(x,y), S(x,y)").unwrap();
        let ag = AttackGraph::of(&q);
        assert!(ag.all_attacks().is_empty());
    }

    #[test]
    fn attack_through_intermediate_variable() {
        // q = {R(x,y), S(y,z), T(z,u)}: R attacks T through y—z.
        let s = Arc::new(parse_schema("R[2,1] S[2,1] T[2,1]").unwrap());
        let q = parse_query(&s, "R(x,y), S(y,z), T(z,u)").unwrap();
        let ag = AttackGraph::of(&q);
        assert!(ag.attacks(rel("R"), rel("T")));
        assert!(ag.is_acyclic());
    }

    #[test]
    fn paper_example13_queries_acyclic() {
        // Example 13: all three variants have acyclic attack graphs.
        let s = Arc::new(parse_schema("N[3,1] O[2,1]").unwrap());
        for text in [
            "N(x,u,y), O(y,w)",
            "N(x,'c',y), O(y,w)",
            "N(x,'c',y), O(y,'c')",
        ] {
            let q = parse_query(&s, text).unwrap();
            assert!(AttackGraph::of(&q).is_acyclic(), "query {text}");
        }
    }

    #[test]
    fn display_renders() {
        let s = Arc::new(parse_schema("R[2,1] S[2,1]").unwrap());
        let q = parse_query(&s, "R(x,y), S(z,y)").unwrap();
        let ag = AttackGraph::of(&q);
        let shown = ag.to_string();
        assert!(shown.contains("⇝"));
    }
}
