//! The motivating example of the paper (Example 1): three publication queries
//! over a DBLP-like bibliography graph — conjunction ("Alice AND Bob"),
//! disjunction ("Alice OR Bob") and negation ("Alice but NOT Bob"), all
//! restricted to proceedings from 2000-2010.
//!
//! Run with `cargo run --example dblp_publications`.

use std::time::Instant;

use gtpq::baselines::{evaluate_gtpq_with, TwigStackD};
use gtpq::datagen::{dblp_queries, generate_dblp};
use gtpq::prelude::*;
use gtpq::query::naive;

fn main() {
    let graph = generate_dblp(400, 2024);
    println!(
        "DBLP-like graph: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );

    let engine = GteaEngine::new(&graph);
    let twig_d = TwigStackD::new(&graph);

    for (name, query) in dblp_queries() {
        let start = Instant::now();
        let answer = engine.evaluate(&query);
        let gtea_time = start.elapsed();
        // Cross-check against the naive semantics and the decompose-and-merge
        // baseline to show all three agree.
        let oracle = naive::evaluate(&query, &graph);
        let (baseline, baseline_stats) = evaluate_gtpq_with(&twig_d, &query);
        assert!(answer.same_answer(&oracle));
        assert!(answer.same_answer(&baseline));
        println!(
            "{name}: {:>4} results | GTEA {gtea_time:>9.3?} | TwigStackD+decompose {:>9.3?} ({} subqueries)",
            answer.len(),
            baseline_stats.total_time,
            baseline_stats.subqueries,
        );
    }
    println!("Q1 (AND) ⊆ Q2 (OR) and Q3 (AND NOT) ⊆ Q2 hold by construction.");
}
