//! Plan quality: planner overhead and planned-vs-fixed-pipeline latency.
//!
//! Three measurements per workload (arXiv and XMark, the graphs of §5.2):
//!
//! * `plan` — building the cost-based plan alone (the planner overhead a
//!   query pays on a plan-cache miss),
//! * `fixed` — executing the seed's hard-wired pipeline
//!   (`QueryPlan::fixed_pipeline`: id-ordered pruning, no planning),
//! * `planned` — `GteaEngine::evaluate`, i.e. plan *and* execute.
//!
//! The acceptance bar (recorded in
//! `crates/bench/baselines/BENCH_plan_quality.json`) is that `planned` stays
//! within noise of `fixed` — selectivity-ordered pruning must at least pay
//! for the planner.  Both variants run on the same engine and backend, so
//! the delta isolates the plan layer.  A correctness pre-pass asserts the
//! two pipelines return identical answers on every workload query.
//!
//! Set `GTPQ_BENCH_QUICK=1` for the CI smoke run.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gtpq_bench::workloads::{arxiv_graph_small, xmark_graph};
use gtpq_core::{ExecOptions, GteaEngine, QueryPlan};
use gtpq_datagen::{random_queries, xmark_q1, xmark_q2, xmark_q3, RandomQueryConfig};
use gtpq_graph::{AttrValue, DataGraph};
use gtpq_query::{AttrPredicate, CmpOp, EdgeKind, Gtpq, GtpqBuilder};

fn quick() -> bool {
    std::env::var("GTPQ_BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// Selective label + year-range queries with a couple of branches — the
/// shape whose prune ordering the planner can actually influence.
fn arxiv_workload(g: &DataGraph) -> Vec<Gtpq> {
    let mut queries = Vec::new();
    for i in 0..8u32 {
        let mut b = GtpqBuilder::new(
            AttrPredicate::label(&format!("paper{}", i * 17 % 900))
                .and("year", CmpOp::Ge, AttrValue::int(1996))
                .and("year", CmpOp::Le, AttrValue::int(2004)),
        );
        let root = b.root_id();
        let cited = b.backbone_child(
            root,
            EdgeKind::Descendant,
            AttrPredicate::label(&format!("paper{}", i * 29 % 900)),
        );
        let _author = b.backbone_child(
            root,
            EdgeKind::Descendant,
            AttrPredicate::label(&format!("auth{}", i * 11 % 230)),
        );
        b.mark_output(cited);
        queries.push(b.build().expect("arxiv bench query is well formed"));
    }
    queries.extend(random_queries(g, &RandomQueryConfig::with_size(5)));
    queries
}

fn xmark_workload(g: &DataGraph) -> Vec<Gtpq> {
    let mut queries = vec![xmark_q1(0), xmark_q2(0, 3), xmark_q3(0, 3, 7)];
    queries.extend(random_queries(g, &RandomQueryConfig::with_size(4)));
    queries
}

/// Executes `q` through the pre-built plan `plan`.
fn execute(engine: &GteaEngine<'_>, q: &Gtpq, plan: &QueryPlan) -> gtpq_query::ResultSet {
    engine
        .execute(q, plan, ExecOptions::unbounded())
        .expect("unbounded execution cannot be interrupted")
        .results
}

/// Executes every query through its pre-built fixed-pipeline plan.
fn run_fixed(engine: &GteaEngine<'_>, work: &[(Gtpq, QueryPlan)]) -> usize {
    work.iter()
        .map(|(q, fixed)| execute(engine, q, fixed).len())
        .sum()
}

/// Plans and executes every query (planner overhead included).
fn run_planned(engine: &GteaEngine<'_>, work: &[(Gtpq, QueryPlan)]) -> usize {
    work.iter().map(|(q, _)| engine.evaluate(q).len()).sum()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_quality");
    if quick() {
        group.sample_size(5);
        group.warm_up_time(Duration::from_millis(50));
        group.measurement_time(Duration::from_millis(200));
    } else {
        group.sample_size(15);
        group.warm_up_time(Duration::from_millis(200));
        group.measurement_time(Duration::from_millis(1500));
    }

    let workloads = [("arxiv", arxiv_graph_small()), ("xmark", xmark_graph(0.5))];
    for (name, graph) in workloads {
        let queries = if name == "arxiv" {
            arxiv_workload(&graph)
        } else {
            xmark_workload(&graph)
        };
        let engine = GteaEngine::new(&graph);
        let work: Vec<(Gtpq, QueryPlan)> = queries
            .into_iter()
            .map(|q| {
                let fixed = QueryPlan::fixed_pipeline(&q);
                (q, fixed)
            })
            .collect();
        // Both pipelines must return identical answers before timing them.
        for (q, fixed) in &work {
            let planned = engine.evaluate(q);
            let fixed_run = execute(&engine, q, fixed);
            assert!(
                planned.same_answer(&fixed_run),
                "planned/fixed answer mismatch on {name}"
            );
        }
        group.bench_with_input(BenchmarkId::new("plan", name), &work, |b, work| {
            b.iter(|| {
                work.iter()
                    .map(|(q, _)| engine.plan(q).estimated_probes as usize)
                    .sum::<usize>()
            })
        });
        group.bench_with_input(BenchmarkId::new("fixed", name), &work, |b, work| {
            b.iter(|| run_fixed(&engine, work))
        });
        group.bench_with_input(BenchmarkId::new("planned", name), &work, |b, work| {
            b.iter(|| run_planned(&engine, work))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
