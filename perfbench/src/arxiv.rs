//! `arxiv-fig9`: the paper's Fig. 9 random conjunctive queries on the
//! arXiv-like graph, with TwigStackD interleaved query by query.
//!
//! Why: it is the paper's headline comparison and the bucket GTEA loses on
//! large answers.  Large answers make enumeration and collection drive the
//! tail, the throughput and the ratio, prune-bound small answers set the
//! median, and the 3-hop build dominates set-up.

use std::sync::Arc;

use gtpq_baselines::{TpqAlgorithm, TwigStackD};
use gtpq_core::{ExecCtl, GteaEngine};
use gtpq_datagen::{generate_arxiv, random_queries, ArxivConfig, RandomQueryConfig};
use gtpq_query::{Gtpq, ResultSet};
use gtpq_service::{QueryRequest, QueryService};

use crate::client::{self, serial_config, Client, LiveTail, Tail};
use crate::measure::{min_samples, Samples};
use crate::{Args, Report};

/// Query sizes of Fig. 9 and queries per size with small answers in one
/// query set.
const SIZES: [usize; 5] = [5, 7, 9, 11, 13];
const PER_SIZE: usize = 30;
/// Largest answer a query of the per-size part may have.
const SMALL_MAX: u64 = 10_000;
/// Large-answer bands of one query set: `(fewest rows, most rows, queries)`.
///
/// About one generated query in 100 has more than 10k rows, and those few
/// queries take from 20% to 90% of a set's time: left to chance, how many
/// a seed draws, and how large, decides its throughput, its p99 and its
/// ratio.  Each set therefore holds a fixed number of them in fixed bands,
/// the seed choosing only which queries fill each band.  Answers past the
/// last band (one query in 200 has 0.2 to 2.2 million rows, one such query
/// takes seconds and a gigabyte) are left out.
const LARGE_BANDS: [(u64, u64, usize); 2] = [(10_001, 20_000, 1), (20_001, 40_000, 3)];
/// Sizes whose generator pools are drawn again to fill the large bands:
/// the smaller queries almost never have answers that large.
const LARGE_SIZES: [usize; 3] = [9, 11, 13];
/// Query sets per 10 s of nominal run length.  A run sends its sets in as
/// many passes as its p99 needs samples: drawing the large bands costs
/// about 2 s of generation per set, so sets are reused rather than drawn
/// anew.
const SETS_PER_10S: u64 = 2;
/// The warm-up pass sends the query set of this fixed seed, so set-up
/// costs the same whatever the workload seed.
const WARM_UP_SEED: u64 = 0x5EED;
/// Set-ups per run; `setup_s` is their median.  Each builds 3-hop.
const SETUPS: usize = 5;
/// Epochs of the tail phase.  Every `TAIL_READ_EVERY`-th commit is read,
/// and that read rebuilds 3-hop (about 1.2 s), so few commits are read.
const TAIL_EPOCHS: usize = 63;
const TAIL_READ_EVERY: usize = 9;
/// One read in this many also runs the naive oracle, a different share of
/// the queries in every pass.
const NAIVE_EVERY: usize = 10;

fn set_len() -> usize {
    SIZES.len() * PER_SIZE + LARGE_BANDS.iter().map(|b| b.2).sum::<usize>()
}

/// Query set `j` of `seed`: `PER_SIZE` queries of each size with at most
/// `SMALL_MAX` rows, then the `LARGE_BANDS` quotas, all from the generator
/// the paper's harness uses.  Returns the set and how many generated
/// queries were skipped for answers past the last band.
fn query_set(engine: &GteaEngine<'_>, seed: u64, j: u64) -> (Vec<Gtpq>, usize) {
    let most = LARGE_BANDS[LARGE_BANDS.len() - 1].1;
    let mut set = Vec::new();
    let mut small = [0usize; SIZES.len()];
    let mut large = [0usize; LARGE_BANDS.len()];
    let mut skipped = 0;
    for round in 0u64.. {
        let bands_open = LARGE_BANDS.iter().zip(&large).any(|(b, &n)| n < b.2);
        if !bands_open && small.iter().all(|&n| n == PER_SIZE) {
            break;
        }
        for (k, &size) in SIZES.iter().enumerate() {
            if small[k] == PER_SIZE && !(bands_open && LARGE_SIZES.contains(&size)) {
                continue;
            }
            let pool = random_queries(
                engine.graph(),
                &RandomQueryConfig {
                    count: 2 * PER_SIZE,
                    seed: seed ^ (j << 32) ^ (round << 48),
                    ..RandomQueryConfig::with_size(size)
                },
            );
            for q in pool {
                let Some(rows) = rows_up_to(engine, &q, most) else {
                    skipped += 1;
                    continue;
                };
                if rows <= SMALL_MAX {
                    if small[k] < PER_SIZE {
                        small[k] += 1;
                        set.push(q);
                    }
                } else if let Some(b) = (0..LARGE_BANDS.len()).find(|&b| {
                    let (lo, hi, quota) = LARGE_BANDS[b];
                    (lo..=hi).contains(&rows) && large[b] < quota
                }) {
                    large[b] += 1;
                    set.push(q);
                }
            }
        }
    }
    (set, skipped)
}

/// The number of rows of `q`, or `None` past `max`, enumerating no further
/// than that.
fn rows_up_to(engine: &GteaEngine<'_>, q: &Gtpq, max: u64) -> Option<u64> {
    let plan = engine.plan(q);
    let (mut stream, _) = engine
        .match_stream(q, &plan, ExecCtl::unbounded())
        .expect("an unbounded run is never interrupted");
    let mut rows = 0;
    while let Ok(Some(_)) = stream.next_row() {
        rows += 1;
        if rows > max {
            return None;
        }
    }
    Some(rows)
}

pub fn run(args: &Args) -> Report {
    let graph = Arc::new(generate_arxiv(&ArxivConfig::default()));
    let sets = (args.seconds * SETS_PER_10S).div_ceil(10);
    let passes = min_samples().div_ceil(sets as usize * set_len()).max(1);
    let mut generated = Vec::new();
    let mut skipped = 0;
    let warm_up_set = {
        let engine = GteaEngine::new(&graph);
        for j in 0..sets {
            let (set, n) = query_set(&engine, args.seed, j);
            generated.extend(set);
            skipped += n;
        }
        query_set(&engine, WARM_UP_SEED, 0).0
    };
    let texts = client::texts(&generated);
    let queries = client::parsed(&texts);
    let requests: Vec<QueryRequest> = texts.iter().map(QueryRequest::text).collect();
    let warm_up_texts = client::texts(&warm_up_set);
    let warm_up: Vec<QueryRequest> = warm_up_texts.iter().map(QueryRequest::text).collect();
    let updates = client::updates(&graph, args.seed, TAIL_EPOCHS, 32);

    let mut report = Report::default();
    report.note(
        "graph",
        format!(
            "arxiv-like, {} nodes, {} edges",
            graph.node_count(),
            graph.edge_count()
        ),
    );
    report.note(
        "queries",
        format!(
            "{} in {sets} sets of {SIZES:?} x {PER_SIZE} with <= {SMALL_MAX} rows + large bands (rows, queries) {:?} ({skipped} generated queries skipped for more rows), sent as text in {passes} passes, result cache off",
            requests.len(),
            LARGE_BANDS.map(|(lo, hi, n)| (format!("{lo}-{hi}"), n)),
        ),
    );
    report.note(
        "set_up",
        format!(
            "{SETUPS} x (service build + warm-up pass over the {} queries of seed {WARM_UP_SEED:#x})",
            warm_up.len()
        ),
    );
    report.note(
        "tail",
        format!("{TAIL_EPOCHS} 32-op commits, one read after every {TAIL_READ_EVERY}th"),
    );
    report.note(
        "comparators",
        format!("TwigStackD on every read; the naive oracle on one read in {NAIVE_EVERY}"),
    );

    let twig = TwigStackD::new(&graph);
    let warm_up_reference: Vec<ResultSet> = client::parsed(&warm_up_texts)
        .iter()
        .map(|q| twig.evaluate(q).0)
        .collect();
    let mut client = Client::new(args);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        built = Some(client.set_up(
            |_| QueryService::with_config(Arc::clone(&graph), serial_config(false)),
            |s| s,
            &warm_up,
            |i, answer| client::matches(answer, &warm_up_reference[i]),
            &mut report,
        ));
    }
    drop(warm_up_reference);
    let service = &built.expect("at least one set-up");

    let mut reads = Samples::default();
    let mut rows = 0usize;
    let reads_in_pass = queries.len();
    for (i, (q, request)) in (0..passes)
        .flat_map(|_| queries.iter().zip(&requests))
        .enumerate()
    {
        let mut answer = client.read(service, request);
        rows += answer.rows().map_or(0, |r| r.len());
        let mut ok = client.against_twig(&twig, q, &mut answer);
        if (i % reads_in_pass) % NAIVE_EVERY == (i / reads_in_pass) % NAIVE_EVERY {
            ok &= client.against_naive(q, &graph, &mut answer);
        }
        reads.push(client.finish(answer));
        report.attempted += 1;
        report.failed += u64::from(!ok);
    }
    let mut tail = Tail::default();
    let live = LiveTail::new(service.graph().as_ref().clone());
    for (i, ops) in updates.iter().enumerate() {
        live.commit(&mut client, ops, &mut tail);
        if (i + 1) % TAIL_READ_EVERY == 0 {
            let j = i % requests.len();
            live.read(
                &mut client,
                &requests[j],
                |g, answer| client::matches(answer, &TwigStackD::new(g).evaluate(&queries[j]).0),
                &mut tail,
                &mut report,
            );
        }
    }
    live.retire(&mut client);
    report.note("rows_per_set", rows / (passes * sets as usize));
    // Printed, not bounded: on xmark-live the mark moved 17-30 MiB between
    // seeds, beyond any bound the benchmark may set.
    report.note("peak_rss_mb", format!("{:.2}", client.rss.mib()));
    client.finish_run(args, report, |client, report| {
        client::end_to_end(client, &reads, &Samples::default(), &tail, report)
    })
}
