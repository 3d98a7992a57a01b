//! The traced run: spans recorded from the benchmark's own code around each
//! layer's public functions, and the per-layer metrics computed from them.
//!
//! Every traced read is served by the service first, untraced, with its
//! stats and plan.  The [`Tracer`] then calls the layer functions the
//! service ran for that request — parse, satisfiability and canonical form
//! always; planning only when the service missed its plan cache; backend
//! builds only for backends the service reports built; matching,
//! enumeration and collection only when the service missed its result
//! cache — on the service's own snapshot, each under its own span, and
//! checks that the layers reproduce the service's answer.  End-to-end
//! figures never come from this run.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use gtpq_core::{ExecCtl, GteaEngine, GteaOptions, Planner};
use gtpq_graph::{GraphSnapshot, MutationStats};
use gtpq_query::{parse_query, ResultSet};
use gtpq_reach::{BackendKind, GraphProfile, SharedIndex};
use gtpq_service::{canonicalize, QueryOutcome, QueryService, QuerySource, ServiceConfig};

use crate::{Args, Metric, Report};

/// One recorded span.
struct Span {
    name: &'static str,
    request: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory for the whole run and written out at its end.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u32,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) {
        let span = Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    fn exit(&mut self) {
        let idx = self.open.pop().expect("exit without an open span");
        self.spans[idx].end_ns = self.now_ns();
    }

    pub fn scoped<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time per span name in milliseconds: each span's duration minus
    /// the part its child spans cover.
    fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - child) as f64 / 1e6;
        }
        out
    }

    /// Total time of the spans directly under the spans named `root`.
    fn under_ms(&self, root: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == root))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, out)
    }
}

/// The indexes the tracer has built for one graph generation of a service.
struct Generation {
    snapshot: Arc<GraphSnapshot>,
    profile: GraphProfile,
    default_kind: BackendKind,
    catalog: HashMap<BackendKind, SharedIndex>,
}

/// What the service reported about one request beside its answer: whether
/// it rotated to a new generation and whether it planned (missed its plan
/// cache) while serving it.
pub struct Served {
    pub rotated: bool,
    pub planned: bool,
}

/// Spans and counts of a traced run.
pub struct Tracer {
    log: SpanLog,
    options: GteaOptions,
    per_query_backend: bool,
    generation: Option<Generation>,
    /// Summed latency of the service's answers to the traced reads that
    /// did not rotate the service, and their number.
    pub untraced_ms: f64,
    pub untraced_reads: u64,
    requests: u64,
    hits: u64,
    rows: u64,
    index_lookups: u64,
    initial_candidates: u64,
    after_downward: u64,
    mutation: MutationStats,
    /// Reads whose layer calls did not reproduce the service's answer.
    mismatches: u64,
}

impl Tracer {
    /// A tracer for services running with `config`'s engine options and
    /// backend policy.
    pub fn new(config: &ServiceConfig) -> Self {
        Self {
            log: SpanLog::new(),
            options: config.options,
            per_query_backend: config.per_query_backend && config.backend.is_none(),
            generation: None,
            untraced_ms: 0.0,
            untraced_reads: 0,
            requests: 0,
            hits: 0,
            rows: 0,
            index_lookups: 0,
            initial_candidates: 0,
            after_downward: 0,
            mutation: MutationStats::default(),
            mismatches: 0,
        }
    }

    pub fn scoped<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.log.scoped(name, f)
    }

    /// Adds a retired graph handle's mutation counts.
    pub fn add_mutation(&mut self, stats: &MutationStats) {
        let m = &mut self.mutation;
        m.epochs += stats.epochs;
        m.csr_rebuilds += stats.csr_rebuilds;
        m.index_rebuilds += stats.index_rebuilds;
        m.condensation_rebuilds += stats.condensation_rebuilds;
    }

    /// Replays the layers of one request the service has answered with
    /// `outcome` (requested with stats and plan).
    pub fn replay(
        &mut self,
        service: &QueryService,
        source: &QuerySource,
        outcome: &QueryOutcome,
        served: Served,
    ) {
        self.requests += 1;
        let snapshot = service.snapshot();
        let fresh = !self
            .generation
            .as_ref()
            .is_some_and(|g| Arc::ptr_eq(&g.snapshot, &snapshot));
        // A generation the service built at construction was built during
        // set-up, outside any request; one it rotated to was built inside
        // this request.
        if fresh && !served.rotated {
            self.rotate(service, Arc::clone(&snapshot));
        }
        self.log.request += 1;
        // `service.overhead_ms` compares the layer spans of plain requests
        // with the service's latency for them; a rotating request's index
        // build runs beside the service's own and is left out of that base.
        self.log.enter(if served.rotated {
            "rotating_request"
        } else {
            "request"
        });
        if fresh && served.rotated {
            self.rotate(service, snapshot);
        }
        let ok = self.layers(service, source, outcome, served.planned);
        self.log.exit();
        self.mismatches += u64::from(!ok);
    }

    /// Builds the service's default backend for a new generation.
    fn rotate(&mut self, service: &QueryService, snapshot: Arc<GraphSnapshot>) {
        let default_kind = service.default_backend();
        let (g, cond) = (snapshot.graph(), snapshot.condensation());
        let index = self
            .log
            .scoped("reach.build", || default_kind.build_shared_with(g, cond));
        self.generation = Some(Generation {
            profile: GraphProfile::compute_with(g, cond),
            snapshot,
            default_kind,
            catalog: HashMap::from([(default_kind, index)]),
        });
    }

    /// The layer calls of one request; whether they reproduce `outcome`.
    fn layers(
        &mut self,
        service: &QueryService,
        source: &QuerySource,
        outcome: &QueryOutcome,
        planned: bool,
    ) -> bool {
        let QuerySource::Text(text) = source else {
            panic!("benchmark requests are sent as text")
        };
        let log = &mut self.log;
        let Ok(q) = log.scoped("query.parse", || parse_query(text)) else {
            return false;
        };
        if !log.scoped("analysis.sat", || gtpq_analysis::is_satisfiable(&q)) {
            return false;
        }
        black_box(log.scoped("service.canon", || canonicalize(&q)));
        if outcome.from_cache {
            self.hits += 1;
            return true;
        }
        let gen = self.generation.as_mut().expect("a generation is current");
        let g = Arc::clone(gen.snapshot.graph());
        if planned {
            let prebuilt: Vec<BackendKind> = gen.catalog.keys().copied().collect();
            black_box(log.scoped("core.plan", || {
                Planner::new(&g)
                    .with_profile(gen.profile)
                    .with_prebuilt(&prebuilt)
                    .plan(&q)
            }));
        }
        for name in service.built_backends() {
            let kind = backend_named(name);
            if !gen.catalog.contains_key(&kind) {
                let cond = gen.snapshot.condensation();
                let index = log.scoped("reach.build", || kind.build_shared_with(&g, cond));
                gen.catalog.insert(kind, index);
            }
        }
        let plan = outcome
            .plan
            .as_ref()
            .expect("traced reads ask for the plan");
        let kind = plan
            .backend
            .kind
            .filter(|_| self.per_query_backend)
            .unwrap_or(gen.default_kind);
        let index = Arc::clone(&gen.catalog[&kind]);
        let engine = GteaEngine::with_backend(&g, index, self.options);
        let matched = log.scoped("core.match", || {
            engine.match_stream(&q, plan, ExecCtl::unbounded())
        });
        let Ok((mut stream, _)) = matched else {
            return false;
        };
        let rows = log.scoped("core.enumerate", || {
            let mut rows = Vec::with_capacity(outcome.rows.len());
            while let Ok(Some(row)) = stream.next_row() {
                rows.push(row);
            }
            rows
        });
        drop(stream);
        self.rows += rows.len() as u64;
        let result = log.scoped("query.collect", || {
            let mut result = ResultSet::new(q.output_nodes().to_vec());
            for row in rows {
                result.insert(row);
            }
            result
        });
        let same = result.same_answer(&outcome.rows);
        log.scoped("query.collect", || drop(black_box(result)));
        if let Some(stats) = &outcome.stats {
            self.index_lookups += stats.index_lookups;
            self.initial_candidates += stats.initial_candidates;
            self.after_downward += stats.candidates_after_downward;
        }
        same
    }

    /// Fills a traced run's report and writes its spans out.
    pub fn finish(self, args: &Args, mut report: Report) -> Report {
        report.failed += self.mismatches;
        let (metrics, table) = self.layer_metrics();
        report.metrics = metrics;
        report.table = table;
        let path = Path::new("perfbench-out")
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match self.log.write_jsonl(&path) {
            Ok(()) => report.note("spans", path.display()),
            Err(e) => report.note("spans", format!("not written: {e}")),
        }
        report
    }

    /// The per-layer metrics of a traced run, and the table that explains
    /// them.
    fn layer_metrics(&self) -> (Vec<Metric>, Vec<String>) {
        let log = &self.log;
        let self_ms = log.self_ms();
        let ms = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let request_layers_ms = log.under_ms("request");
        let m = &self.mutation;
        let values: [(f64, String); 19] = [
            (ms("query.parse"), String::new()),
            (ms("analysis.sat"), String::new()),
            (ms("service.canon"), String::new()),
            (ms("core.plan"), format!("{} plans", log.count("core.plan"))),
            (ms("core.match"), String::new()),
            (self.index_lookups as f64, String::new()),
            (
                ratio(self.after_downward as f64, self.initial_candidates as f64),
                format!(
                    "candidates_after_downward {} / initial_candidates {}",
                    self.after_downward, self.initial_candidates
                ),
            ),
            (ms("core.enumerate"), String::new()),
            (
                ratio(ms("core.enumerate") * 1e6, self.rows as f64),
                format!("over {} rows", self.rows),
            ),
            (ms("query.collect"), String::new()),
            (
                self.untraced_ms - request_layers_ms,
                format!(
                    "untraced latency {:.1} ms - layer spans {:.1} ms, over the {} reads that did not rotate",
                    self.untraced_ms, request_layers_ms, self.untraced_reads
                ),
            ),
            (ms("reach.build"), String::new()),
            (log.count("reach.build") as f64, String::new()),
            (ms("graph.commit"), String::new()),
            (
                (m.csr_rebuilds + m.index_rebuilds + m.condensation_rebuilds) as f64,
                format!("over {} commits", m.epochs),
            ),
            (ms("graph.snapshot_open"), String::new()),
            (
                ratio(self.hits as f64, self.requests as f64),
                format!("{} hits of {} traced reads", self.hits, self.requests),
            ),
            (ms("baselines.twigstackd"), String::new()),
            (ms("baselines.naive"), String::new()),
        ];
        let timed_layer = |name: &str, unit: &str| unit == "ms" && !name.starts_with("baselines.");
        let layer_total: f64 = LAYERS
            .iter()
            .zip(&values)
            .filter(|((name, unit, _), _)| timed_layer(name, unit))
            .map(|(_, (v, _))| v.max(0.0))
            .sum();
        let mut table = vec![format!(
            "# {:<26} {:>12} {:<8} {:>7}  {}",
            "layer metric", "value", "unit", "share", "moves / base"
        )];
        let mut metrics = Vec::new();
        for ((name, unit, target), (value, base)) in LAYERS.iter().zip(values) {
            let share = if timed_layer(name, unit) {
                format!("{:>6.1}%", 100.0 * value / layer_total)
            } else {
                String::new()
            };
            let note = if base.is_empty() {
                target.to_string()
            } else {
                format!("{target}; base: {base}")
            };
            table.push(format!(
                "# {name:<26} {value:>12.4} {unit:<8} {share:>7}  {note}"
            ));
            metrics.push(Metric::new(name, value, unit, self.requests as usize));
        }
        let span_ns = span_cost_ns();
        let tracing_ms = log.spans.len() as f64 * span_ns / 1e6;
        table.push(format!(
            "# tracing overhead: {} spans x {span_ns:.0} ns = {tracing_ms:.2} ms, {:.2}% of the {:.1} ms {} reads took untraced",
            log.spans.len(),
            100.0 * tracing_ms / self.untraced_ms,
            self.untraced_ms,
            self.untraced_reads,
        ));
        (metrics, table)
    }
}

/// Cost of recording one span, measured on a scratch log.
fn span_cost_ns() -> f64 {
    const N: u32 = 200_000;
    let mut scratch = SpanLog::new();
    scratch.spans.reserve(N as usize);
    let start = Instant::now();
    for _ in 0..N {
        scratch.enter("calibrate");
        scratch.exit();
    }
    start.elapsed().as_nanos() as f64 / f64::from(N)
}

fn backend_named(name: &str) -> BackendKind {
    use BackendKind::*;
    [Closure, ThreeHop, Chain, Contour, Sspi, Interval]
        .into_iter()
        .find(|k| k.as_str() == name)
        .unwrap_or_else(|| panic!("service reported unknown backend {name}"))
}

/// Per-layer metrics: name, unit, and the end-to-end metric each should
/// move, on which workload.
const LAYERS: [(&str, &str, &str); 19] = [
    ("query.parse_ms", "ms", "speedup_vs_naive, latency_p50_ms on xmark-logic"),
    ("analysis.sat_ms", "ms", "as query.parse_ms"),
    ("service.canon_ms", "ms", "as query.parse_ms"),
    ("core.plan_ms", "ms", "as query.parse_ms"),
    (
        "core.match_ms",
        "ms",
        "speedup_vs_naive, speedup_vs_twigstackd, throughput_ops, latency_p50_ms on xmark-logic; latency_p50_ms on arxiv-fig9",
    ),
    ("core.index_lookups", "count", "as core.match_ms"),
    ("core.prune_survival", "fraction", "as core.match_ms"),
    (
        "core.enumerate_ms",
        "ms",
        "latency_p99_ms, throughput_ops, speedup_vs_twigstackd on arxiv-fig9; flat on xmark-logic",
    ),
    (
        "core.enumerate_ns_per_row",
        "ns/row",
        "as core.enumerate_ms",
    ),
    ("query.collect_ms", "ms", "as core.enumerate_ms"),
    ("service.overhead_ms", "ms", "as core.enumerate_ms"),
    (
        "reach.build_ms",
        "ms",
        "setup_s on every workload; speedup_vs_naive, fresh_read_p50_ms, throughput_ops on xmark-live",
    ),
    ("reach.builds", "count", "as reach.build_ms"),
    ("graph.commit_ms", "ms", "commit_p50_ms"),
    ("graph.commit_rebuilds", "count", "commit_p50_ms"),
    ("graph.snapshot_open_ms", "ms", "setup_s on xmark-live"),
    (
        "service.cache_hit_rate",
        "fraction",
        "latency_p50_ms on xmark-live",
    ),
    (
        "baselines.twigstackd_ms",
        "ms",
        "numerator of speedup_vs_twigstackd; flat unless the baselines change",
    ),
    (
        "baselines.naive_ms",
        "ms",
        "numerator of speedup_vs_naive; flat unless the naive oracle changes",
    ),
];
