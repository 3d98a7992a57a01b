//! Fig. 9(d): GTEA's two-round pruning time vs TwigStackD's pre-filtering.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gtpq_baselines::{BaselineStats, TwigStackD};
use gtpq_bench::workloads::arxiv_graph_small;
use gtpq_core::{ExecOptions, GteaEngine};
use gtpq_datagen::{random_queries, RandomQueryConfig};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9d_pruning");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(800));
    let g = arxiv_graph_small();
    let engine = GteaEngine::new(&g);
    let twig_d = TwigStackD::new(&g);
    for &size in &[5usize, 9, 13] {
        let queries = random_queries(
            &g,
            &RandomQueryConfig {
                count: 5,
                ..RandomQueryConfig::with_size(size)
            },
        );
        group.bench_with_input(BenchmarkId::new("GTEA-pruning", size), &queries, |b, qs| {
            b.iter(|| {
                qs.iter()
                    .map(|q| {
                        engine
                            .execute(q, &engine.plan(q), ExecOptions::unbounded())
                            .expect("unbounded execution cannot be interrupted")
                            .stats
                            .filtering_time()
                    })
                    .sum::<std::time::Duration>()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("TwigStackD-prefilter", size),
            &queries,
            |b, qs| {
                b.iter(|| {
                    qs.iter()
                        .map(|q| {
                            let mut stats = BaselineStats::default();
                            let mut mat: Vec<Vec<gtpq_graph::NodeId>> = q
                                .node_ids()
                                .map(|u| q.candidates(twig_d_graph(&twig_d), u))
                                .collect();
                            twig_d.prefilter(q, &mut mat, &mut stats);
                            stats.filtering_time
                        })
                        .sum::<std::time::Duration>()
                })
            },
        );
    }
    group.finish();
}

fn twig_d_graph<'g>(t: &'g TwigStackD<'g>) -> &'g gtpq_graph::DataGraph {
    use gtpq_baselines::TpqAlgorithm;
    t.graph()
}

criterion_group!(benches, bench);
criterion_main!(benches);
