//! The closed-loop client every workload shares: serial service
//! configuration, timed requests, the comparator ledger, commit epochs and,
//! in a traced run, the tracer that replays each read's layers.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gtpq_baselines::{TpqAlgorithm, TwigStackD};
use gtpq_datagen::{apply_ops, update_stream, UpdateOp, UpdateStreamConfig};
use gtpq_graph::{DataGraph, GraphHandle};
use gtpq_query::{naive, Gtpq, ResultSet};
use gtpq_service::{QueryError, QueryOutcome, QueryRequest, QueryService, ServiceConfig};

use crate::measure::{median, PeakRss, Samples};
use crate::trace::{Served, Tracer};
use crate::{Args, Metric, Report};

/// The service configuration of every timed run: one batch worker and
/// serial queries, so on a small host the run measures the program and not
/// the scheduler.  Everything else keeps its default.
pub fn serial_config(result_cache: bool) -> ServiceConfig {
    let defaults = ServiceConfig::default();
    ServiceConfig {
        threads: 1,
        intra_query_threads: 1,
        cache_capacity: if result_cache {
            defaults.cache_capacity
        } else {
            0
        },
        ..defaults
    }
}

/// A request in flight: submitted and consumed, not yet dropped.
pub struct Answer {
    pub outcome: Result<QueryOutcome, QueryError>,
    elapsed: Duration,
    /// Whether the latency is a base of the traced run's
    /// `service.overhead_ms`: a traced read that did not rotate.
    overhead_base: bool,
    /// Whether the latency is booked against TwigStackD's and the naive
    /// oracle's time on the same query.
    against_twig: bool,
    against_naive: bool,
}

impl Answer {
    pub fn rows(&self) -> Option<&ResultSet> {
        self.outcome.as_ref().ok().map(|o| o.rows.as_ref())
    }

    /// Whether the service answered from its result cache.
    pub fn hit(&self) -> bool {
        self.outcome.as_ref().is_ok_and(|o| o.from_cache)
    }

    /// Drops the outcome (result teardown is part of the request) and
    /// returns the request's latency.
    fn finish(self) -> Duration {
        let start = Instant::now();
        drop(self.outcome);
        self.elapsed + start.elapsed()
    }
}

/// Submits one request and consumes its outcome, with the peak-RSS mark
/// counting only this window.
fn submit(service: &QueryService, request: &QueryRequest, rss: &mut PeakRss) -> Answer {
    rss.start();
    let start = Instant::now();
    let outcome = service.submit(request);
    black_box(outcome.as_ref().map(|o| o.rows.len()).ok());
    let elapsed = start.elapsed();
    rss.stop();
    Answer {
        outcome,
        elapsed,
        overhead_base: false,
        against_twig: false,
        against_naive: false,
    }
}

/// Whether an answer is a complete result equal to `expected`.
pub fn matches(answer: &Answer, expected: &ResultSet) -> bool {
    answer
        .outcome
        .as_ref()
        .is_ok_and(|o| !o.truncated && o.rows.same_answer(expected))
}

/// One side of a speedup: a reference evaluator's time and GTEA's on the
/// same reads.  Each reference call runs right after the GTEA read it
/// checks, so both sides of the ratio see the same host-speed phase.
#[derive(Default)]
struct Ledger {
    reference: Duration,
    gtea: Duration,
    reads: usize,
}

impl Ledger {
    fn speedup(&self) -> f64 {
        self.reference.as_secs_f64() / self.gtea.as_secs_f64()
    }
}

/// The client thread: it sends reads and commits, keeps the peak-RSS mark
/// and the comparator ledgers, and in a traced run hands every read to the
/// tracer.
pub struct Client {
    pub rss: PeakRss,
    tracer: Option<Tracer>,
    twig: Ledger,
    naive: Ledger,
    setup_seconds: Vec<f64>,
}

impl Client {
    pub fn new(args: &Args) -> Self {
        Self {
            rss: PeakRss::default(),
            tracer: args.trace.then(|| Tracer::new(&serial_config(false))),
            twig: Ledger::default(),
            naive: Ledger::default(),
            setup_seconds: Vec::new(),
        }
    }

    /// Runs `f`, returning its result and time; a traced run also records
    /// it as a span named `name`.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = match &mut self.tracer {
            Some(tracer) => tracer.scoped(name, f),
            None => f(),
        };
        (out, start.elapsed())
    }

    /// Sends one read.  A traced run asks for the request's stats and plan
    /// and replays its layers once the service has answered.
    pub fn read(&mut self, service: &QueryService, request: &QueryRequest) -> Answer {
        let Some(tracer) = &mut self.tracer else {
            return submit(service, request, &mut self.rss);
        };
        let traced = request.clone().with_stats().with_plan();
        let before = service.metrics();
        let mut answer = submit(service, &traced, &mut self.rss);
        let after = service.metrics();
        if let Ok(outcome) = &answer.outcome {
            let served = Served {
                rotated: after.epoch_rotations > before.epoch_rotations,
                planned: after.plan_cache_misses > before.plan_cache_misses,
            };
            answer.overhead_base = !served.rotated;
            tracer.replay(service, &request.source, outcome, served);
        }
        answer
    }

    /// Drops a read's outcome and returns its latency, booking it beside
    /// the reference times taken on the same query.
    pub fn finish(&mut self, answer: Answer) -> Duration {
        let (base, twig, naive) = (
            answer.overhead_base,
            answer.against_twig,
            answer.against_naive,
        );
        let latency = answer.finish();
        if let (Some(tracer), true) = (&mut self.tracer, base) {
            tracer.untraced_ms += latency.as_secs_f64() * 1e3;
            tracer.untraced_reads += 1;
        }
        for (ledger, booked) in [(&mut self.twig, twig), (&mut self.naive, naive)] {
            if booked {
                ledger.gtea += latency;
                ledger.reads += 1;
            }
        }
        latency
    }

    /// Runs TwigStackD on `q` right after GTEA's `answer` and checks that
    /// the two agree; GTEA's side is booked when the answer is finished.
    pub fn against_twig(&mut self, twig: &TwigStackD<'_>, q: &Gtpq, answer: &mut Answer) -> bool {
        let ((reference, _), took) = self.timed("baselines.twigstackd", || twig.evaluate(q));
        self.twig.reference += took;
        answer.against_twig = true;
        matches(answer, &reference)
    }

    /// Runs the naive oracle on `q` over `graph` right after GTEA's
    /// `answer` and checks that the two agree; GTEA's side is booked when
    /// the answer is finished.
    pub fn against_naive(&mut self, q: &Gtpq, graph: &DataGraph, answer: &mut Answer) -> bool {
        let (reference, took) = self.timed("baselines.naive", || naive::evaluate(q, graph));
        self.naive.reference += took;
        answer.against_naive = true;
        matches(answer, &reference)
    }

    /// One set-up (`setup_s` is the median over a run's set-ups): `make`
    /// brings the graph into the serving layers (index builds included),
    /// then one warm-up pass sends every request once and `check`s it.  The
    /// set-up's time runs from calling `make` to the end of the warm-up
    /// pass, checks excluded.  Its reads are never traced.
    pub fn set_up<T>(
        &mut self,
        make: impl FnOnce(&mut Client) -> T,
        service: impl Fn(&T) -> &QueryService,
        requests: &[QueryRequest],
        check: impl Fn(usize, &Answer) -> bool,
        report: &mut Report,
    ) -> T {
        self.rss.start();
        let start = Instant::now();
        let built = make(self);
        let mut elapsed = start.elapsed();
        self.rss.stop();
        for (i, request) in requests.iter().enumerate() {
            let answer = submit(service(&built), request, &mut self.rss);
            let ok = check(i, &answer);
            elapsed += answer.finish();
            report.attempted += 1;
            report.failed += u64::from(!ok);
        }
        self.setup_seconds.push(elapsed.as_secs_f64());
        built
    }

    /// Stages and commits one epoch on `handle`; returns the time staging
    /// plus commit took.
    pub fn commit(&mut self, handle: &GraphHandle, ops: &[UpdateOp]) -> Duration {
        self.timed("graph.commit", || {
            apply_ops(handle, ops);
            black_box(handle.commit());
        })
        .1
    }

    /// Books a graph handle's mutation counts once the run is done with it.
    pub fn retire(&mut self, handle: &GraphHandle) {
        if let Some(tracer) = &mut self.tracer {
            tracer.add_mutation(&handle.stats());
        }
    }

    /// The report of the run: the per-layer metrics in a traced run, the
    /// `end_to_end` metrics otherwise.
    pub fn finish_run(
        self,
        args: &Args,
        mut report: Report,
        end_to_end: impl FnOnce(&Client, &mut Report),
    ) -> Report {
        if self.tracer.is_none() {
            end_to_end(&self, &mut report);
            return report;
        }
        let tracer = self.tracer.expect("checked above");
        tracer.finish(args, report)
    }
}

/// The seeded update stream of a run, `epochs` batches of `ops` operations
/// on `graph`, with one edge added to the first batch that closes a cycle
/// (the reverse of the graph's first edge).
///
/// The random stream's backward edges close a cycle for some seeds and not
/// others, and a single cycle moves backend auto-selection from SSPI to
/// 3-hop, whose rebuilds cost four times as much: left to chance, that one
/// event would decide a seed's figures.  Live reference graphs have cycles.
pub fn updates(graph: &DataGraph, seed: u64, epochs: usize, ops: usize) -> Vec<Vec<UpdateOp>> {
    let mut stream = update_stream(
        graph,
        &UpdateStreamConfig {
            seed,
            epochs,
            ops_per_epoch: ops,
            ..UpdateStreamConfig::default()
        },
    );
    let (from, to) = graph
        .nodes()
        .find_map(|v| graph.children(v).first().map(|&w| (v, w)))
        .expect("the workload graph has an edge");
    stream[0].push(UpdateOp::InsertEdge { from: to, to: from });
    stream
}

/// Commit and fresh-read latencies of a read-only workload's tail phase.
#[derive(Default)]
pub struct Tail {
    pub commits: Samples,
    pub fresh: Samples,
}

/// The read-only workloads' tail phase: the workload's graph goes live
/// behind a `GraphHandle` and a live service; epochs are committed one at a
/// time and some are followed by one read, which pays the service's
/// rotation to the new generation.  A workload may interleave a tail's
/// epochs with its read passes, so the commit figures see the same
/// host-speed phases as the reads.
pub struct LiveTail {
    handle: Arc<GraphHandle>,
    service: QueryService,
}

impl LiveTail {
    pub fn new(graph: DataGraph) -> Self {
        let handle = Arc::new(GraphHandle::new(graph));
        let service = QueryService::live_with_config(Arc::clone(&handle), serial_config(false));
        Self { handle, service }
    }

    /// Stages and commits one epoch.
    pub fn commit(&self, client: &mut Client, ops: &[UpdateOp], tail: &mut Tail) {
        tail.commits.push(client.commit(&self.handle, ops));
    }

    /// Sends `request`, the first read after a commit; `check` gets the
    /// committed graph and the answer.
    pub fn read(
        &self,
        client: &mut Client,
        request: &QueryRequest,
        check: impl FnOnce(&DataGraph, &Answer) -> bool,
        tail: &mut Tail,
        report: &mut Report,
    ) {
        let answer = client.read(&self.service, request);
        let ok = check(self.handle.snapshot().graph(), &answer);
        tail.fresh.push(client.finish(answer));
        report.attempted += 1;
        report.failed += u64::from(!ok);
    }

    /// Books the handle's mutation counts once the run is done with it.
    pub fn retire(self, client: &mut Client) {
        client.retire(&self.handle);
    }
}

/// Text of each query, as a client would send it.
pub fn texts(queries: &[Gtpq]) -> Vec<String> {
    queries.iter().map(|q| q.to_string()).collect()
}

/// Parses the texts back: the comparator and the oracle evaluate exactly
/// the query the service parses, so the output columns line up.
pub fn parsed(texts: &[String]) -> Vec<Arc<Gtpq>> {
    texts
        .iter()
        .map(|t| Arc::new(gtpq_query::parse_query(t).expect("generated query text parses")))
        .collect()
}

/// The end-to-end figures.  The bounded metrics, in the order
/// `BENCHMARK.json` lists them, are set-up time and the two speedups: each
/// speedup's sides run back to back, so it holds still while the host's
/// speed drifts.  Latency, throughput, commit and fresh-read times follow
/// that drift (`perfbench/STUDY.md`) and are printed, not bounded.
/// Throughput counts `extra_ops` (commits) beside the reads, over the
/// client's summed operation time.
pub fn end_to_end(
    client: &Client,
    reads: &Samples,
    extra_ops: &Samples,
    tail: &Tail,
    report: &mut Report,
) {
    let ops = reads.len() + extra_ops.len();
    report.metrics = vec![
        Metric::new(
            "setup_s",
            median(&client.setup_seconds),
            "s",
            client.setup_seconds.len(),
        ),
        Metric::new(
            "speedup_vs_twigstackd",
            client.twig.speedup(),
            "x",
            client.twig.reads,
        ),
        Metric::new(
            "speedup_vs_naive",
            client.naive.speedup(),
            "x",
            client.naive.reads,
        ),
    ];
    report.figures = vec![
        Metric::new("latency_p50_ms", reads.p50(), "ms", reads.len()),
        Metric::new("latency_p99_ms", reads.p99(), "ms", reads.len()),
        Metric::new(
            "throughput_ops",
            ops as f64 / (reads.total_s() + extra_ops.total_s()),
            "ops/s",
            ops,
        ),
        Metric::new(
            "commit_p50_ms",
            tail.commits.p50(),
            "ms",
            tail.commits.len(),
        ),
        Metric::new(
            "fresh_read_p50_ms",
            tail.fresh.p50(),
            "ms",
            tail.fresh.len(),
        ),
    ];
}
