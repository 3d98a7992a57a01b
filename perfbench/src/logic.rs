//! `xmark-logic`: Q1–Q3, the Fig. 11 query and its ten Table 4 AND/OR/NOT
//! variants over ten label groups on the XMark-like graph.
//!
//! Why: logical operators are the paper's contribution.  Matching (pruning
//! and the matching graph) takes most of the layer time and answers are
//! small, so this is the control for enumeration changes: it should not
//! move when only enumeration does.

use std::sync::Arc;

use gtpq_baselines::TwigStackD;
use gtpq_datagen::{
    fig11_gtpq, generate_xmark, xmark_q1, xmark_q2, xmark_q3, Fig11Predicate, XmarkConfig,
};
use gtpq_graph::DataGraph;
use gtpq_query::{naive, Gtpq, ResultSet};
use gtpq_service::{QueryRequest, QueryService};

use crate::client::{self, serial_config, Client, LiveTail, Tail};
use crate::measure::{min_samples, Samples};
use crate::{Args, Report};

/// The harness's paper scale 1.0 (the generator scales the paper down 5x).
pub const XMARK_SCALE: f64 = 0.2;
/// Measured passes over the 140 queries per 10 s of nominal run length.
const PASSES_PER_10S: u64 = 40;
/// Most set-ups per run; `setup_s` is their median.  Each serves the
/// passes up to the next one.
const SETUPS: usize = 20;
/// The tail phase: after every pass, this many epochs are committed, each
/// followed by one read, so the commit figures sample the whole run.
const TAIL_EPOCHS_PER_PASS: usize = 2;
/// Epochs of one seeded stream; each stream starts from the base graph, so
/// no single stream's growth decides the commit figures.
const TAIL_STREAM_EPOCHS: usize = 60;
/// In every pass, one query in this many also runs the naive oracle, a
/// different share of the queries in each pass.
const NAIVE_EVERY: usize = 10;

/// The XMark-like graph of the harness, with its fixed generator seed.
///
/// The graph does not follow the workload seed: at this scale the graph's
/// condensation sits near the size where backend auto-selection switches
/// between the bitset closure and 3-hop, so a seeded graph would put whole
/// runs on either side of that switch, and rebuild costs would differ
/// four-fold between seeds.
pub fn xmark_graph() -> DataGraph {
    generate_xmark(&XmarkConfig::with_scale(XMARK_SCALE))
}

/// The harness's ten (person, item, seller) label groups.
pub fn label_groups() -> impl Iterator<Item = (u32, u32, u32)> {
    (0..10).map(|i| (i, (i + 3) % 10, (i + 7) % 10))
}

/// Q1–Q3, the conjunctive Fig. 11 query and the ten Table 4 variants, for
/// every label group.  Returns the queries and how many of each group's
/// run beside TwigStackD: Q1–Q3 only, because on the conjunctive Fig. 11
/// query TwigStackD's answer differs from the naive oracle's for some
/// label groups, while GTEA's agrees.
fn workload_queries() -> (Vec<Gtpq>, usize) {
    let mut out = Vec::new();
    for (p, i, s) in label_groups() {
        out.push(xmark_q1(p));
        out.push(xmark_q2(p, i));
        out.push(xmark_q3(p, i, s));
        out.push(fig11_gtpq(Fig11Predicate::Conjunctive, p, i));
        for (_, variant) in Fig11Predicate::table4_suite() {
            out.push(fig11_gtpq(variant, p, i));
        }
    }
    (out, 3)
}

pub fn run(args: &Args) -> Report {
    let graph = Arc::new(xmark_graph());
    let (generated, conjunctive) = workload_queries();
    let per_group = generated.len() / 10;
    let compared = |k: usize| k % per_group < conjunctive;
    let texts = client::texts(&generated);
    let queries = client::parsed(&texts);
    let requests: Vec<QueryRequest> = texts.iter().map(QueryRequest::text).collect();
    let oracle: Vec<ResultSet> = queries.iter().map(|q| naive::evaluate(q, &graph)).collect();
    let passes = ((args.seconds * PASSES_PER_10S).div_ceil(10) as usize)
        .max(min_samples().div_ceil(requests.len()));
    let tail_epochs = passes * TAIL_EPOCHS_PER_PASS;
    let streams: Vec<_> = (0..tail_epochs.div_ceil(TAIL_STREAM_EPOCHS) as u64)
        .map(|j| client::updates(&graph, args.seed ^ (j << 32), TAIL_STREAM_EPOCHS, 32))
        .collect();

    let mut report = Report::default();
    report.note(
        "graph",
        format!(
            "xmark-like scale {XMARK_SCALE}, {} nodes, {} edges",
            graph.node_count(),
            graph.edge_count()
        ),
    );
    report.note(
        "queries",
        format!(
            "{} (Q1-Q3, Fig. 11 conjunctive, 10 Table 4 variants; x 10 label groups), sent as text, result cache off; {passes} passes",
            requests.len()
        ),
    );
    report.note(
        "rows_per_pass",
        oracle.iter().map(ResultSet::len).sum::<usize>(),
    );
    report.note(
        "comparators",
        format!("TwigStackD on Q1-Q3 (30 queries) only; the naive oracle on one query in {NAIVE_EVERY} per pass"),
    );
    report.note(
        "tail",
        format!(
            "{tail_epochs} x (32-op commit + one read), {TAIL_EPOCHS_PER_PASS} after every pass; seeded streams of {TAIL_STREAM_EPOCHS} from the base graph: {}",
            streams.len()
        ),
    );

    let twig = TwigStackD::new(&graph);
    let mut client = Client::new(args);
    let mut reads = Samples::default();
    let mut tail = Tail::default();
    let mut epochs = streams.iter().flatten().take(tail_epochs).enumerate();
    let mut live: Option<LiveTail> = None;
    // Set-ups and tail epochs are spread over the run, so their figures see
    // the same host-speed phases as the reads.
    let block = passes.div_ceil(SETUPS);
    report.note(
        "set_up",
        format!(
            "{} x (service build + warm-up pass), one every {block} passes",
            passes.div_ceil(block)
        ),
    );
    let mut service = None;
    for pass in 0..passes {
        if pass % block == 0 {
            drop(service.take());
            service = Some(client.set_up(
                |_| QueryService::with_config(Arc::clone(&graph), serial_config(false)),
                |s| s,
                &requests,
                |k, answer| client::matches(answer, &oracle[k]),
                &mut report,
            ));
        }
        let service = service.as_ref().expect("set up above");
        for (k, request) in requests.iter().enumerate() {
            let mut answer = client.read(service, request);
            let mut ok = client::matches(&answer, &oracle[k]);
            if compared(k) {
                ok &= client.against_twig(&twig, &queries[k], &mut answer);
            }
            if k % NAIVE_EVERY == pass % NAIVE_EVERY {
                ok &= client.against_naive(&queries[k], &graph, &mut answer);
            }
            reads.push(client.finish(answer));
            report.attempted += 1;
            report.failed += u64::from(!ok);
        }
        for (epoch, ops) in epochs.by_ref().take(TAIL_EPOCHS_PER_PASS) {
            let i = epoch % TAIL_STREAM_EPOCHS;
            if i == 0 {
                if let Some(done) = live.take() {
                    done.retire(&mut client);
                }
                live = Some(LiveTail::new(graph.as_ref().clone()));
            }
            let live = live.as_ref().expect("started above");
            live.commit(&mut client, ops, &mut tail);
            let j = i % requests.len();
            live.read(
                &mut client,
                &requests[j],
                |g, answer| client::matches(answer, &naive::evaluate(&queries[j], g)),
                &mut tail,
                &mut report,
            );
        }
    }
    if let Some(done) = live {
        done.retire(&mut client);
    }
    // Printed, not bounded: on xmark-live the mark moved 17-30 MiB between
    // seeds, beyond any bound the benchmark may set.
    report.note("peak_rss_mb", format!("{:.2}", client.rss.mib()));
    client.finish_run(args, report, |client, report| {
        client::end_to_end(client, &reads, &Samples::default(), &tail, report)
    })
}
