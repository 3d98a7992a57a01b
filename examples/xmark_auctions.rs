//! Auction-site analytics on an XMark-like graph: runs the paper's Q1-Q3 and
//! the Fig. 11 GTPQ suite (disjunction and negation variants), comparing GTEA
//! against the classical baselines.
//!
//! Run with `cargo run --release --example xmark_auctions`.

use std::time::Instant;

use gtpq::baselines::{TpqAlgorithm, TwigStack, TwigStackD};
use gtpq::datagen::{
    fig11_gtpq, generate_xmark, xmark_q1, xmark_q2, xmark_q3, Fig11Predicate, XmarkConfig,
};
use gtpq::prelude::*;

fn main() {
    let graph = generate_xmark(&XmarkConfig::with_scale(0.3));
    println!(
        "XMark-like graph: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );

    let engine = GteaEngine::new(&graph);
    let twig = TwigStack::new(&graph);
    let twig_d = TwigStackD::new(&graph);

    println!("\n-- conjunctive queries (Fig. 7) --");
    for (name, q) in [
        ("Q1", xmark_q1(0)),
        ("Q2", xmark_q2(0, 3)),
        ("Q3", xmark_q3(0, 3, 7)),
    ] {
        let start = Instant::now();
        let answer = engine.evaluate(&q);
        let gtea_time = start.elapsed();
        let start = Instant::now();
        let (twig_answer, _) = twig.evaluate(&q);
        let twig_time = start.elapsed();
        let (twig_d_answer, _) = twig_d.evaluate(&q);
        assert!(answer.same_answer(&twig_answer));
        assert!(answer.same_answer(&twig_d_answer));
        println!(
            "{name}: {:>5} results | GTEA {gtea_time:>9.3?} | TwigStack {twig_time:>9.3?}",
            answer.len()
        );
    }

    println!("\n-- GTPQs with logical operators (Fig. 11 / Table 4) --");
    for (name, variant) in [
        ("DIS1  (bidder OR seller)", Fig11Predicate::Dis1),
        ("NEG1  (NOT education)", Fig11Predicate::Neg1),
        ("DIS_NEG2 (bidder XOR seller)", Fig11Predicate::DisNeg2),
    ] {
        let q = fig11_gtpq(variant, 0, 3);
        let start = Instant::now();
        let plan = engine.plan(&q);
        let run = engine
            .execute(&q, &plan, ExecOptions::unbounded())
            .expect("unbounded execution cannot be interrupted");
        let elapsed = start.elapsed();
        println!(
            "{name:<30} {:>5} results | {elapsed:>9.3?} | matching graph size {}",
            run.results.len(),
            run.stats.intermediate_size
        );
    }
}
