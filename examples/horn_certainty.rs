//! The P-complete case solved through dual-Horn SAT (Proposition 17), on
//! the §4 block-chain family: certainty propagates block to block, which is
//! exactly unit propagation in the dual-Horn encoding.
//!
//! Since the unified [`Solver`] landed, no caller has to know that: the
//! problem is NL-hard by Theorem 12, matches Proposition 17's shape, and
//! routes to the dual-Horn backend automatically — this example builds the
//! solver once and streams the whole §4 family through `solve`/`solve_many`,
//! cross-checking the encoding internals and the exhaustive oracle.
//!
//! Run with: `cargo run --example horn_certainty`

use cqa::prelude::*;
use cqa::solvers::prop17;
use cqa_gen::{block_chain, BlockChainConfig};
use std::sync::Arc;

fn main() {
    println!("§4 block-chain database, n = 3, closing value □ = c:");
    let bc = block_chain(BlockChainConfig {
        n: 3,
        closing_is_c: true,
        with_anchor: true,
    });
    for fact in bc.db.facts_by_name() {
        println!("  {fact}");
    }

    // One solver for the whole family: classified once, routed to the
    // polynomial-time backend (Theorem 12 says NL-hard, so no FO plan
    // exists — the router recognizes Proposition 17's shape instead).
    let problem = Problem::new(bc.query.clone(), bc.fks.clone()).unwrap();
    let solver = Solver::new(problem).expect("poly-time shape needs no fallback opt-in");
    println!("\nroute: {}", solver.route());
    assert_eq!(solver.route().kind(), RouteKind::PolyTime);

    // The encoding behind the route, for the curious.
    let formula = prop17::build_formula(&bc.db, Cst::new("c"));
    println!(
        "dual-Horn encoding: {} clauses over the chain values; satisfiable = {}",
        formula.len(),
        formula.satisfiable()
    );
    let verdict = solver.solve(&bc.db);
    println!("verdict: {verdict} (paper: yes-instance iff □ = c)");
    assert!(verdict.is_certain());
    assert_eq!(verdict.provenance.backend, BackendKind::DualHorn);

    // The three §4 variants as one lazy batch, cross-checked against the
    // exhaustive oracle at n = 2.
    println!("\nvariants at n = 2 (small enough for the ⊕-repair oracle):");
    let oracle = CertaintyOracle::new();
    let configs = [
        ("□ = c, with O(1)", BlockChainConfig { n: 2, closing_is_c: true, with_anchor: true }),
        ("□ = d, with O(1)", BlockChainConfig { n: 2, closing_is_c: false, with_anchor: true }),
        ("□ = c, without O(1)", BlockChainConfig { n: 2, closing_is_c: true, with_anchor: false }),
    ];
    let chains: Vec<_> = configs.iter().map(|(_, cfg)| block_chain(*cfg)).collect();
    let dbs: Vec<Instance> = chains.iter().map(|bc| bc.db.clone()).collect();
    for ((label, _), (bc, verdict)) in configs
        .iter()
        .zip(chains.iter().zip(solver.solve_many(&dbs)))
    {
        let fast = verdict.as_bool().expect("poly backends always decide");
        let slow = oracle
            .is_certain(&bc.db, &bc.query, &bc.fks)
            .as_bool()
            .expect("small instance");
        println!(
            "  {label:<22} solver: {fast:5}  oracle: {slow:5}  expected: {:5}",
            bc.expected_certain
        );
        assert_eq!(fast, slow);
        assert_eq!(fast, bc.expected_certain);
    }

    // Scaling: linear-time solving of a P-complete problem family while the
    // exhaustive oracle is exponential (don't try it at n = 4096). The
    // verdict's provenance carries the per-call wall time.
    println!("\nchain length sweep (dual-Horn backend via the solver):");
    for n in [64usize, 512, 4096, 32768] {
        let bc = block_chain(BlockChainConfig {
            n,
            closing_is_c: true,
            with_anchor: true,
        });
        let verdict = solver.solve(&bc.db);
        println!(
            "  n = {n:>6}: {:>6} facts solved in {:?} → {}",
            bc.db.len(),
            verdict.provenance.elapsed,
            verdict.certainty
        );
        assert!(verdict.is_certain());
    }

    // The solver is shape-generic: the same problem under renamed
    // relations routes identically (no hardcoded "N"/"O" anywhere).
    let s = Arc::new(parse_schema("Emp[3,1] Dept[1,1]").unwrap());
    let q = parse_query(&s, "Emp(x,'hq',y), Dept(y)").unwrap();
    let fks = parse_fks(&s, "Emp[3] -> Dept").unwrap();
    let renamed = Solver::new(Problem::new(q, fks).unwrap()).unwrap();
    let db = parse_instance(&s, "Emp(e1,hq,d1) Dept(d1)").unwrap();
    println!("\nrenamed relations: {} → {}", renamed.route(), renamed.solve(&db).certainty);
    assert!(renamed.solve(&db).is_certain());
}
