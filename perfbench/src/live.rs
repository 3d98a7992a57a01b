//! `xmark-live`: writes beside reads on a live graph served from a mapped
//! snapshot.  Each epoch commits one 32-op update batch, then 20 reads drawn
//! with a Zipf-like skew over Q1–Q3 and DIS_NEG4 x 10 label groups.
//!
//! Why: every commit rotates the service's epoch, drops its caches and
//! forces a reachability rebuild on the next read, so this is the only
//! workload that exercises mutation, snapshots and the result cache.  The
//! skew gives roughly 30% cache hits, well away from all-hit or all-miss.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use gtpq_baselines::TwigStackD;
use gtpq_datagen::{fig11_gtpq, xmark_q1, xmark_q2, xmark_q3, Fig11Predicate, UpdateOp};
use gtpq_graph::{GraphHandle, GraphSnapshot, MutationConfig};
use gtpq_query::{naive, Gtpq, ResultSet};
use gtpq_service::{QueryRequest, QueryService};

use crate::client::{self, serial_config, Client, Tail};
use crate::logic::{label_groups, xmark_graph, XMARK_SCALE};
use crate::measure::Samples;
use crate::{Args, Report};

/// Epochs per round; fixed, because the graph grows as the run goes on.
const EPOCHS: usize = 60;
const READS_PER_EPOCH: usize = 20;
const OPS_PER_EPOCH: usize = 32;
/// Rounds per 10 s of nominal run length.  Each round starts from a freshly
/// opened snapshot.
const ROUNDS_PER_10S: u64 = 6;
/// Zipf exponent of the read skew; 0.7 gives about 30% hits when the cache
/// is emptied every 20 reads.
const ZIPF: f64 = 0.7;
/// Every this many epochs, each read is checked against the naive oracle
/// on the committed graph; other reads must be complete answers.
const ORACLE_EVERY: usize = 10;
/// Set-ups at the start of each round; `setup_s` is the median over the
/// run's set-ups, and each round is served by its last one.
const SETUPS_PER_ROUND: usize = 2;

/// Q1–Q3 (conjunctive, so TwigStackD can evaluate them) and DIS_NEG4, for
/// every label group.
fn read_pool() -> Vec<Gtpq> {
    let mut out = Vec::new();
    for (p, i, s) in label_groups() {
        out.push(xmark_q1(p));
        out.push(xmark_q2(p, i));
        out.push(xmark_q3(p, i, s));
        out.push(fig11_gtpq(Fig11Predicate::DisNeg4, p, i));
    }
    out
}

fn is_conjunctive(k: usize) -> bool {
    k % 4 < 3
}

/// SplitMix64: a small seeded generator for the read sequence.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The read sequence: per epoch, `READS_PER_EPOCH` pool indexes drawn with
/// a Zipf skew over a seeded ranking of the pool.  Popularity rank `r`
/// always holds query kind `r % 4` and the seed shuffles the label groups
/// within each kind, so every seed's hot set has the same mix of kinds.
fn read_sequence(seed: u64, pool: usize) -> Vec<Vec<usize>> {
    let mut rng = SplitMix(seed);
    let kinds = 4;
    let groups = pool / kinds;
    let mut ranking = Vec::with_capacity(pool);
    let mut order: Vec<Vec<usize>> = (0..kinds).map(|_| (0..groups).collect()).collect();
    for o in &mut order {
        for i in (1..groups).rev() {
            o.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
    }
    for r in 0..pool {
        ranking.push(order[r % kinds][r / kinds] * kinds + r % kinds);
    }
    let weights: Vec<f64> = (0..pool)
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF))
        .collect();
    let total: f64 = weights.iter().sum();
    (0..EPOCHS)
        .map(|_| {
            (0..READS_PER_EPOCH)
                .map(|_| {
                    let mut x = rng.unit() * total;
                    let mut r = 0;
                    while r + 1 < pool && x >= weights[r] {
                        x -= weights[r];
                        r += 1;
                    }
                    ranking[r]
                })
                .collect()
        })
        .collect()
}

/// Where the run keeps its snapshot file: inside the working directory,
/// removed when the run ends.
struct SnapshotFile(PathBuf);

impl Drop for SnapshotFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.0);
    }
}

/// One round's seeded update batches and read indexes, epoch by epoch.
type Stream = (Vec<Vec<UpdateOp>>, Vec<Vec<usize>>);

/// A live graph as the measured loop drives it.
struct Live {
    handle: Arc<GraphHandle>,
    service: QueryService,
}

pub fn run(args: &Args) -> Report {
    let graph = xmark_graph();
    let pool = read_pool();
    let texts = client::texts(&pool);
    let queries = client::parsed(&texts);
    let requests: Vec<QueryRequest> = texts.iter().map(QueryRequest::text).collect();
    let rounds = (args.seconds * ROUNDS_PER_10S).div_ceil(10);
    // Round `j` replays its own seeded stream: a run averages over several
    // streams, so no single stream's growth decides the tail figures.
    let streams: Vec<Stream> = (0..rounds)
        .map(|j| {
            let seed = args.seed ^ (j << 32);
            (
                client::updates(&graph, seed, EPOCHS, OPS_PER_EPOCH),
                read_sequence(seed, pool.len()),
            )
        })
        .collect();
    let oracle: Vec<ResultSet> = queries.iter().map(|q| naive::evaluate(q, &graph)).collect();

    let dir = PathBuf::from("perfbench-out");
    fs::create_dir_all(&dir).expect("creating perfbench-out");
    let file = SnapshotFile(dir.join(format!("xmark-live-{}.gtpq", std::process::id())));
    let (nodes, edges) = (graph.node_count(), graph.edge_count());
    GraphSnapshot::freeze(Arc::new(graph))
        .save(&file.0)
        .expect("saving the workload snapshot");

    let mut report = Report::default();
    report.note(
        "graph",
        format!("xmark-like scale {XMARK_SCALE}, {nodes} nodes, {edges} edges, served from a mapped .gtpq snapshot"),
    );
    report.note(
        "loop",
        format!(
            "{rounds} rounds x {EPOCHS} epochs x ({OPS_PER_EPOCH}-op commit + {READS_PER_EPOCH} reads, Zipf {ZIPF} over {} queries), result cache on",
            pool.len()
        ),
    );

    report.note(
        "comparators",
        format!("TwigStackD on Q1-Q3 reads that miss the cache; the naive oracle on every read of every {ORACLE_EVERY}th epoch"),
    );
    report.note(
        "set_up",
        format!("{SETUPS_PER_ROUND} x (open_mmap + handle + live service + warm-up pass) at the start of each round"),
    );
    let open = |client: &mut Client| {
        let (snapshot, _) = client.timed("graph.snapshot_open", || {
            GraphSnapshot::open_mmap(&file.0).expect("opening the workload snapshot")
        });
        let handle = Arc::new(GraphHandle::from_snapshot(
            snapshot,
            MutationConfig::default(),
        ));
        let service = QueryService::live_with_config(Arc::clone(&handle), serial_config(true));
        Live { handle, service }
    };
    let mut client = Client::new(args);
    let mut latency = Samples::default();
    let mut tail = Tail::default();
    let mut hits = 0usize;
    let mut live: Option<Live> = None;
    for (updates, reads) in &streams {
        if let Some(done) = &live {
            client.rss.end_round();
            client.retire(&done.handle);
        }
        // Every round starts with set-ups of its own, so the set-up figures
        // are spread over the run like the reads.
        for _ in 0..SETUPS_PER_ROUND {
            drop(live.take());
            live = Some(client.set_up(
                open,
                |live| &live.service,
                &requests,
                |k, answer| client::matches(answer, &oracle[k]),
                &mut report,
            ));
        }
        let live = live.as_ref().expect("set up above");
        for (e, (ops, epoch_reads)) in updates.iter().zip(reads).enumerate() {
            tail.commits.push(client.commit(&live.handle, ops));
            report.attempted += 1;
            let snapshot = live.handle.snapshot();
            let graph = snapshot.graph();
            let twig = TwigStackD::new(graph);
            let checked = e % ORACLE_EVERY == 0;
            for (r, &k) in epoch_reads.iter().enumerate() {
                let mut answer = client.read(&live.service, &requests[k]);
                let hit = answer.hit();
                hits += usize::from(hit);
                let mut ok = answer.outcome.as_ref().is_ok_and(|o| !o.truncated);
                if checked {
                    ok &= client.against_naive(&queries[k], graph, &mut answer);
                }
                if is_conjunctive(k) && !hit {
                    ok &= client.against_twig(&twig, &queries[k], &mut answer);
                }
                let took = client.finish(answer);
                if r == 0 {
                    tail.fresh.push(took);
                }
                latency.push(took);
                report.attempted += 1;
                report.failed += u64::from(!ok);
            }
        }
    }
    let live = live.expect("at least one round");
    client.rss.end_round();
    client.retire(&live.handle);
    let stats = live.handle.stats();
    report.note("cache_hits", format!("{hits} of {} reads", latency.len()));
    report.note(
        "final_graph",
        format!(
            "{} nodes after {} commits; backends built in the last epoch: {:?}",
            live.handle.snapshot().graph().node_count(),
            stats.epochs,
            live.service.built_backends()
        ),
    );
    // Printed, not bounded: it moved 17-30 MiB between seeds, beyond any
    // bound the benchmark may set.
    report.note("peak_rss_mb", format!("{:.2}", client.rss.mib()));
    client.finish_run(args, report, |client, report| {
        client::end_to_end(client, &latency, &tail.commits, &tail, report)
    })
}
