//! The Figure 3 reduction: graph reachability inside consistent query
//! answering.
//!
//! Builds the paper's NL-hardness instances from directed graphs, decides
//! them with the polynomial dual-Horn solver (Proposition 17's engine), and
//! cross-checks small cases against the exhaustive ⊕-repair oracle.
//!
//! Run with: `cargo run --example reachability_hardness`

use cqa::prelude::*;
use cqa::solvers::fig3;
use cqa::solvers::reach::DiGraph;
use cqa_gen::graphs::{layered_dag, random_dag};

fn to_digraph(spec: &cqa_gen::graphs::GraphSpec) -> DiGraph {
    let mut g = DiGraph::new();
    for &v in &spec.vertices {
        g.add_vertex(v);
    }
    for &(u, v) in &spec.edges {
        g.add_edge(u, v);
    }
    g
}

fn main() {
    // The paper's own Figure 3 graph: s → 1, s → 2, 2 → t.
    let mut fig3_graph = DiGraph::new();
    let (s, t) = (0, 3);
    fig3_graph.add_edge(s, 1);
    fig3_graph.add_edge(s, 2);
    fig3_graph.add_edge(2, t);

    let inst = fig3::reduce(&fig3_graph, s, t);
    println!("Figure 3 reduction of the paper's example graph:");
    for fact in inst.db.facts_by_name() {
        println!("  {fact}");
    }
    let certain = cqa::solvers::prop17::certain(&inst.db, Cst::new("c"));
    println!(
        "  s ⇝ t in the graph: {}; database is a {}-instance of CERTAINTY(q, FK)",
        inst.reachable,
        if certain { "yes" } else { "no" },
    );
    assert_eq!(certain, !inst.reachable, "no-instance iff reachable");

    // Oracle cross-check on the same (small) instance.
    let oracle = CertaintyOracle::new();
    let oracle_says = oracle
        .is_certain(&inst.db, &inst.query, &inst.fks)
        .as_bool()
        .expect("small instance");
    assert_eq!(oracle_says, certain);
    println!("  exhaustive oracle agrees\n");

    // Random DAGs: the fast solver tracks ground-truth reachability exactly.
    println!("random DAGs (n = 14, p = 0.12), solver vs. reachability:");
    let mut disagreements = 0;
    for seed in 0..20u64 {
        let spec = random_dag(14, 0.12, seed);
        let g = to_digraph(&spec);
        let inst = fig3::reduce(&g, 0, 13);
        let fast = cqa::solvers::prop17::certain(&inst.db, Cst::new("c"));
        if fast == inst.reachable {
            disagreements += 1;
        }
    }
    println!("  20 seeds, {disagreements} disagreements (must be 0)");
    assert_eq!(disagreements, 0);

    // Scaling: reachability distance grows with the number of layers, and
    // the solver stays polynomial (the paper pins the problem NL-hard, i.e.
    // inherently sequential block-to-block propagation, yet easily P-time).
    println!("\nlayered DAGs (width 6, fanout 2): instance size vs. solve time");
    for layers in [4usize, 16, 64, 256] {
        let spec = layered_dag(layers, 6, 2, 99);
        let g = to_digraph(&spec);
        let target = layers * 6 - 1;
        let inst = fig3::reduce(&g, 0, target);
        let start = std::time::Instant::now();
        let fast = cqa::solvers::prop17::certain(&inst.db, Cst::new("c"));
        let elapsed = start.elapsed();
        println!(
            "  layers {layers:>4}: {:>6} facts, certain = {:5}, solved in {elapsed:?}",
            inst.db.len(),
            fast,
        );
        assert_eq!(fast, !inst.reachable);
    }
}
