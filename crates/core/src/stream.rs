//! Pull-based, ranked result enumeration (`MatchStream`).
//!
//! The seed's `CollectResults` materialized every partial of every shrunk
//! component and took their full Cartesian product before the first tuple was
//! visible.  `MatchStream` replaces that with *ranked enumeration* over the
//! maximal matching graph: distinct output tuples are produced one at a time,
//! **in exactly the order a materialized `ResultSet` would iterate them**
//! (lexicographic over the output coordinates), so `LIMIT`/`OFFSET` push down
//! into the executor — pulling `offset + limit` rows does only the work those
//! rows need, instead of the full product.
//!
//! The machinery is a tree of lazy sorted lists:
//!
//! * a **node list** for a `(query node, candidate)` pair enumerates the
//!   distinct output projections of the subtree match, sorted; it is the
//!   ordered product of the node's own column and one **child list** per
//!   shrunk child (memoized and shared across parents, like the paper's
//!   merged sub-results),
//! * a **child list** is the ordered, deduplicating merge of the node lists
//!   of the data nodes the matching graph points to,
//! * the **top level** is the ordered product across shrunk components (plus
//!   the constant columns of shrunk-away output nodes).
//!
//! Ordered products are enumerated A*-style: a frontier heap of index
//! vectors, popping the smallest assembled projection and pushing its
//! one-step successors.  Sortedness is preserved because components and
//! subtrees own *disjoint* output coordinates: growing one factor's
//! sub-projection grows the assembled projection in output-coordinate
//! lexicographic order, whatever the interleaving.
//!
//! Every pull polls the stream's [`ExecCtl`], so deadlines and cancellation
//! interrupt enumeration mid-way with a clean [`Interrupt`].

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gtpq_graph::NodeId;
use gtpq_query::{Gtpq, QueryNodeId};

use crate::exec::{ExecCtl, Interrupt};
use crate::matching::MatchingGraph;
use crate::prime::ShrunkPrime;

/// Per-pull spans are recorded for the first this-many pulls of a traced
/// stream; later pulls go untraced so an unbounded enumeration cannot grow
/// the trace without bound (and so tracing a large answer stays cheap: each
/// pull span costs an allocation, which would dominate small queries).
const TRACED_PULLS: u64 = 16;

/// A partial output projection: `(output coordinate, data node)` pairs,
/// sorted by coordinate.  Two partials over the same coordinate set compare
/// exactly like the corresponding result-tuple slices.
type Partial = Vec<(usize, NodeId)>;

/// A shared, lazily produced sorted list of partials.
type ListHandle = Rc<RefCell<LazyList>>;

/// The immutable, `Send + Sync` inputs of result enumeration: the shrunk
/// prime subtree, the maximal matching graph, the pruned candidate sets and
/// the output-coordinate layout.
///
/// Extracted from [`MatchStream`] so parallel enumeration can share one
/// source across worker threads behind an `Arc`, each worker building its
/// own (thread-local, `Rc`-based) stream over a *partition* of the widest
/// component's root candidates.
pub struct StreamSource {
    shrunk: ShrunkPrime,
    matching: MatchingGraph,
    mat: Vec<Vec<NodeId>>,
    /// Output-coordinate of each query node (`None` for non-output nodes).
    rank: Vec<Option<usize>>,
    /// Constant columns of shrunk-away output nodes.
    constants: Partial,
    output_len: usize,
    /// Index (into `shrunk.roots`) of the component with the most root
    /// candidates — the axis partitioned streams split on.
    axis: Option<usize>,
}

impl StreamSource {
    /// Captures the enumeration inputs.  `mat` must hold the candidate sets
    /// *after* both prune rounds, and `matching` the maximal matching graph
    /// built from them.
    pub fn new(
        q: &Gtpq,
        shrunk: ShrunkPrime,
        matching: MatchingGraph,
        mat: Vec<Vec<NodeId>>,
    ) -> Self {
        let outputs = q.output_nodes();
        let mut rank: Vec<Option<usize>> = vec![None; q.size()];
        for (i, &u) in outputs.iter().enumerate() {
            rank[u.index()] = Some(i);
        }
        let constants: Partial = shrunk
            .constant_outputs
            .iter()
            .filter_map(|&(u, v)| rank[u.index()].map(|r| (r, v)))
            .collect();
        // First-widest wins so the axis is deterministic across runs.
        let mut axis: Option<(usize, usize)> = None;
        for (i, r) in shrunk.roots.iter().enumerate() {
            let width = mat[r.index()].len();
            if axis.is_none_or(|(_, best)| width > best) {
                axis = Some((i, width));
            }
        }
        Self {
            shrunk,
            matching,
            mat,
            rank,
            constants,
            output_len: outputs.len(),
            axis: axis.map(|(i, _)| i),
        }
    }

    /// Number of output coordinates per row.
    pub fn output_len(&self) -> usize {
        self.output_len
    }

    /// How many top-level units the partition axis (the component with the
    /// most root candidates) offers: the upper bound on useful enumeration
    /// partitions.  Zero when every component was shrunk away.
    pub fn partition_width(&self) -> usize {
        self.axis
            .map(|i| self.mat[self.shrunk.roots[i].index()].len())
            .unwrap_or(0)
    }
}

/// Immutable context shared by every lazy list of one stream: the shared
/// source plus this stream's thread-local memo table.
struct StreamCtx {
    source: Arc<StreamSource>,
    /// Memoized node lists, shared across every parent that points at the
    /// same `(query node, candidate)` pair.
    memo: RefCell<HashMap<(QueryNodeId, NodeId), ListHandle>>,
}

impl std::ops::Deref for StreamCtx {
    type Target = StreamSource;

    fn deref(&self) -> &StreamSource {
        &self.source
    }
}

/// A sorted list of distinct partials, extended on demand by its producer.
struct LazyList {
    items: Vec<Rc<Partial>>,
    /// `None` once the list is fully produced.
    producer: Option<Producer>,
}

impl LazyList {
    fn fixed(items: Vec<Rc<Partial>>) -> Self {
        Self {
            items,
            producer: None,
        }
    }

    fn handle(self) -> ListHandle {
        Rc::new(RefCell::new(self))
    }
}

enum Producer {
    Merge(MergeState),
    Product(ProductState),
}

/// Ordered, deduplicating k-way merge over sorted source lists.
struct MergeState {
    /// `(source list, cursor of the next item to read)`.
    sources: Vec<(ListHandle, usize)>,
    heap: BinaryHeap<Reverse<(Rc<Partial>, usize)>>,
    initialized: bool,
}

/// Ordered product over sorted factor lists, A*-style.
struct ProductState {
    /// Coordinates contributed by the product owner itself (the node's own
    /// output column, or the constant columns at the top level).
    own: Partial,
    factors: Vec<ListHandle>,
    heap: BinaryHeap<Reverse<(Partial, Vec<usize>)>>,
    visited: HashSet<Vec<usize>>,
    initialized: bool,
}

impl ProductState {
    fn new(own: Partial, factors: Vec<ListHandle>) -> Self {
        Self {
            own,
            factors,
            heap: BinaryHeap::new(),
            visited: HashSet::new(),
            initialized: false,
        }
    }

    /// Assembles the partial at index vector `idxs`; every factor item is
    /// already produced (or is produced now, for the advanced coordinate).
    fn assemble(&self, idxs: &[usize], ctl: &ExecCtl) -> Result<Option<Partial>, Interrupt> {
        let mut out = self.own.clone();
        for (factor, &i) in self.factors.iter().zip(idxs) {
            match pull(factor, i, ctl)? {
                Some(part) => out.extend_from_slice(&part),
                None => return Ok(None),
            }
        }
        out.sort_unstable();
        Ok(Some(out))
    }

    fn produce(&mut self, ctl: &ExecCtl) -> Result<Option<Rc<Partial>>, Interrupt> {
        if !self.initialized {
            self.initialized = true;
            let idxs = vec![0; self.factors.len()];
            if let Some(first) = self.assemble(&idxs, ctl)? {
                self.visited.insert(idxs.clone());
                self.heap.push(Reverse((first, idxs)));
            }
        }
        let Some(Reverse((item, idxs))) = self.heap.pop() else {
            return Ok(None);
        };
        for c in 0..self.factors.len() {
            let mut succ = idxs.clone();
            succ[c] += 1;
            if self.visited.contains(&succ) {
                continue;
            }
            if let Some(assembled) = self.assemble(&succ, ctl)? {
                self.visited.insert(succ.clone());
                self.heap.push(Reverse((assembled, succ)));
            }
        }
        Ok(Some(Rc::new(item)))
    }
}

impl MergeState {
    fn new(sources: Vec<ListHandle>) -> Self {
        Self {
            sources: sources.into_iter().map(|s| (s, 0)).collect(),
            heap: BinaryHeap::new(),
            initialized: false,
        }
    }

    fn produce(
        &mut self,
        last: Option<&Partial>,
        ctl: &ExecCtl,
    ) -> Result<Option<Rc<Partial>>, Interrupt> {
        if !self.initialized {
            self.initialized = true;
            for i in 0..self.sources.len() {
                let head = pull(&self.sources[i].0, 0, ctl)?;
                if let Some(item) = head {
                    self.heap.push(Reverse((item, i)));
                }
            }
        }
        loop {
            let Some(Reverse((item, i))) = self.heap.pop() else {
                return Ok(None);
            };
            let (source, cursor) = &mut self.sources[i];
            *cursor += 1;
            let source = Rc::clone(source);
            let cursor = *cursor;
            if let Some(next) = pull(&source, cursor, ctl)? {
                self.heap.push(Reverse((next, i)));
            }
            // Equal projections reached through different candidates
            // deduplicate here (the lists themselves are distinct).
            if last != Some(item.as_ref()) {
                return Ok(Some(item));
            }
        }
    }
}

/// Returns the `idx`-th item of `list`, producing items on demand; `None`
/// when the list has fewer than `idx + 1` items.
fn pull(list: &ListHandle, idx: usize, ctl: &ExecCtl) -> Result<Option<Rc<Partial>>, Interrupt> {
    loop {
        {
            let borrowed = list.borrow();
            if let Some(item) = borrowed.items.get(idx) {
                return Ok(Some(Rc::clone(item)));
            }
            if borrowed.producer.is_none() {
                return Ok(None);
            }
        }
        ctl.check_sampled()?;
        // Produce exactly one more item.  The recursive pulls inside the
        // producer only ever touch lists of strictly deeper query nodes, so
        // re-borrowing `list` is impossible.
        let mut borrowed = list.borrow_mut();
        let LazyList { items, producer } = &mut *borrowed;
        let last = items.last().map(Rc::clone);
        let produced = match producer.as_mut().expect("checked above") {
            Producer::Merge(m) => m.produce(last.as_deref(), ctl)?,
            Producer::Product(p) => p.produce(ctl)?,
        };
        match produced {
            Some(item) => {
                debug_assert!(
                    last.is_none_or(|prev| *prev < *item),
                    "lazy lists must produce strictly ascending partials"
                );
                items.push(item);
            }
            None => *producer = None,
        }
    }
}

/// Builds (or reuses) the memoized node list of `(u, v)`.
fn node_list(ctx: &Rc<StreamCtx>, u: QueryNodeId, v: NodeId) -> ListHandle {
    if let Some(existing) = ctx.memo.borrow().get(&(u, v)) {
        return Rc::clone(existing);
    }
    let own: Partial = match ctx.rank[u.index()] {
        Some(rank) => vec![(rank, v)],
        None => Vec::new(),
    };
    let children = ctx.shrunk.children_of(u);
    let list = if children.is_empty() {
        LazyList::fixed(vec![Rc::new(own)])
    } else {
        let branches = ctx.matching.branches_of(u, v);
        let factors: Vec<ListHandle> = (0..children.len())
            .map(|ci| {
                let pointed: &[NodeId] = branches.map(|b| b[ci].as_slice()).unwrap_or(&[]);
                let sources: Vec<ListHandle> = pointed
                    .iter()
                    .map(|&v2| node_list(ctx, children[ci], v2))
                    .collect();
                LazyList {
                    items: Vec::new(),
                    producer: Some(Producer::Merge(MergeState::new(sources))),
                }
                .handle()
            })
            .collect();
        LazyList {
            items: Vec::new(),
            producer: Some(Producer::Product(ProductState::new(own, factors))),
        }
    };
    let handle = list.handle();
    ctx.memo.borrow_mut().insert((u, v), Rc::clone(&handle));
    handle
}

/// A pull-based iterator over the distinct result tuples of one evaluated
/// query, produced in [`ResultSet`](gtpq_query::ResultSet) iteration order.
///
/// Built by [`GteaEngine::match_stream`](crate::GteaEngine::match_stream)
/// after candidate selection, pruning and matching-graph construction; each
/// [`next_row`](Self::next_row) call does only the enumeration work that row
/// needs, which is what makes `LIMIT` pushdown and time-to-first-row cheap.
pub struct MatchStream {
    top: ListHandle,
    cursor: usize,
    output_len: usize,
    ctl: ExecCtl,
    rows_enumerated: u64,
    enumerate_time: Duration,
    time_to_first_row: Duration,
}

impl MatchStream {
    /// Builds the stream over a prepared (possibly shared) source.
    pub fn from_source(source: Arc<StreamSource>, ctl: ExecCtl) -> Self {
        Self::over(source, None, ctl)
    }

    /// Builds a stream restricted to the root candidates at positions
    /// `part` of the source's partition axis (the widest component); the
    /// other components enumerate in full.  The union of the streams over a
    /// partition of `0..partition_width()`, merged in order with
    /// adjacent-duplicate elimination, is bit-for-bit the serial stream.
    pub(crate) fn partitioned(source: Arc<StreamSource>, part: Range<usize>, ctl: ExecCtl) -> Self {
        Self::over(source, Some(part), ctl)
    }

    fn over(source: Arc<StreamSource>, part: Option<Range<usize>>, ctl: ExecCtl) -> Self {
        let output_len = source.output_len;
        let constants = source.constants.clone();
        let ctx = Rc::new(StreamCtx {
            source,
            memo: RefCell::new(HashMap::new()),
        });
        // One deduplicating merge per shrunk component (over the component
        // root's candidates), combined by an ordered product with the
        // constant columns attached.  Zero components (everything shrunk
        // away) yield exactly the constants tuple, matching the
        // materializing semantics.
        let components: Vec<ListHandle> = ctx
            .shrunk
            .roots
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                let all = ctx.mat[r.index()].as_slice();
                let cands: &[NodeId] = match (&part, ctx.axis) {
                    (Some(range), Some(axis)) if axis == i => &all[range.clone()],
                    _ => all,
                };
                let sources: Vec<ListHandle> =
                    cands.iter().map(|&v| node_list(&ctx, r, v)).collect();
                LazyList {
                    items: Vec::new(),
                    producer: Some(Producer::Merge(MergeState::new(sources))),
                }
                .handle()
            })
            .collect();
        let top = LazyList {
            items: Vec::new(),
            producer: Some(Producer::Product(ProductState::new(constants, components))),
        }
        .handle();
        Self {
            top,
            cursor: 0,
            output_len,
            ctl,
            rows_enumerated: 0,
            enumerate_time: Duration::ZERO,
            time_to_first_row: Duration::ZERO,
        }
    }

    /// A stream that yields no rows (pruning proved the answer empty).
    pub fn empty(q: &Gtpq, ctl: ExecCtl) -> Self {
        Self {
            top: LazyList::fixed(Vec::new()).handle(),
            cursor: 0,
            output_len: q.output_nodes().len(),
            ctl,
            rows_enumerated: 0,
            enumerate_time: Duration::ZERO,
            time_to_first_row: Duration::ZERO,
        }
    }

    /// Produces the next result tuple, in materialized-`ResultSet` order;
    /// `Ok(None)` once the answer is exhausted, `Err` when the deadline
    /// passes or the request is cancelled mid-enumeration.
    ///
    /// When the stream's control carries an enabled tracer, each of the
    /// first `TRACED_PULLS` (16) pulls records a `pull N` span.
    pub fn next_row(&mut self) -> Result<Option<Vec<NodeId>>, Interrupt> {
        let _span =
            (self.ctl.tracer().is_enabled() && self.rows_enumerated < TRACED_PULLS).then(|| {
                let n = self.rows_enumerated;
                self.ctl.tracer().span_with(|| format!("pull {n}"))
            });
        let start = Instant::now();
        let outcome = loop {
            match pull(&self.top, self.cursor, &self.ctl) {
                Err(e) => break Err(e),
                Ok(None) => break Ok(None),
                Ok(Some(partial)) => {
                    self.cursor += 1;
                    self.rows_enumerated += 1;
                    // Every component plus the constants covers every output
                    // coordinate exactly once; anything else would be a
                    // pruning bug, so the row is dropped rather than padded.
                    debug_assert_eq!(partial.len(), self.output_len);
                    if partial.len() != self.output_len {
                        continue;
                    }
                    let mut row = vec![NodeId(0); self.output_len];
                    for &(rank, v) in partial.iter() {
                        row[rank] = v;
                    }
                    break Ok(Some(row));
                }
            }
        };
        let elapsed = start.elapsed();
        self.enumerate_time += elapsed;
        if self.rows_enumerated == 1 && self.time_to_first_row == Duration::ZERO {
            self.time_to_first_row = self.enumerate_time;
        }
        outcome
    }

    /// Rows pulled from the enumerator so far (emitted plus any the caller
    /// skipped over an `OFFSET`).
    pub fn rows_enumerated(&self) -> u64 {
        self.rows_enumerated
    }

    /// Wall time spent inside [`next_row`](Self::next_row) so far.
    pub fn enumerate_time(&self) -> Duration {
        self.enumerate_time
    }

    /// Wall time from the first [`next_row`](Self::next_row) call to the
    /// first produced row (zero until then).
    pub fn time_to_first_row(&self) -> Duration {
        self.time_to_first_row
    }
}

#[cfg(test)]
mod tests {
    use gtpq_query::fixtures::{example_answer_pairs, example_graph, example_query};
    use gtpq_reach::ThreeHop;

    use crate::options::GteaOptions;
    use crate::plan::PruneStep;
    use crate::prime::{PrimeSubtree, ShrunkPrime};
    use crate::prune::{initial_candidates, prune_downward, prune_upward};
    use crate::stats::EvalStats;

    use super::*;

    /// The running example's enumeration source, after both prune rounds.
    fn pruned_example() -> Arc<StreamSource> {
        let g = example_graph();
        let q = example_query();
        let index = ThreeHop::new(&g);
        let options = GteaOptions::default();
        let ctl = ExecCtl::unbounded();
        let mut stats = EvalStats::default();
        let mut mat = initial_candidates(&q, &g, &mut stats);
        prune_downward(
            &q,
            &g,
            &index,
            &options,
            &PruneStep::bottom_up(&q),
            &mut mat,
            &mut stats,
            &ctl,
        )
        .unwrap();
        let prime = PrimeSubtree::new(&q);
        prune_upward(
            &q, &g, &index, &options, &prime, 0, &mut mat, &mut stats, &ctl,
        )
        .unwrap();
        let shrunk = ShrunkPrime::new(&q, &prime, &mat, true);
        let matching =
            MatchingGraph::build(&q, &g, &index, &shrunk, &mat, &mut stats, &ctl).unwrap();
        Arc::new(StreamSource::new(&q, shrunk, matching, mat))
    }

    #[test]
    fn stream_emits_the_example_answer_in_sorted_order() {
        let mut stream = MatchStream::from_source(pruned_example(), ExecCtl::unbounded());
        let mut rows = Vec::new();
        while let Some(row) = stream.next_row().unwrap() {
            rows.push(row);
        }
        let mut expected: Vec<Vec<NodeId>> = example_answer_pairs()
            .into_iter()
            .map(|(a, b)| vec![NodeId(a - 1), NodeId(b - 1)])
            .collect();
        expected.sort();
        assert_eq!(rows, expected, "sorted order and exact multiset");
        assert_eq!(stream.rows_enumerated(), expected.len() as u64);
        assert!(stream.time_to_first_row() <= stream.enumerate_time());
    }

    #[test]
    fn stream_respects_cancellation() {
        let token = crate::exec::CancelToken::new();
        token.cancel();
        let ctl = ExecCtl::unbounded().with_cancel(token);
        let mut stream = MatchStream::from_source(pruned_example(), ctl);
        assert_eq!(stream.next_row(), Err(Interrupt::Cancelled));
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let q = example_query();
        let mut stream = MatchStream::empty(&q, ExecCtl::unbounded());
        assert_eq!(stream.next_row(), Ok(None));
        assert_eq!(stream.rows_enumerated(), 0);
    }

    #[test]
    fn partitioned_streams_union_to_the_serial_stream() {
        let source = pruned_example();
        let drain = |mut s: MatchStream| {
            let mut rows = Vec::new();
            while let Some(row) = s.next_row().unwrap() {
                rows.push(row);
            }
            rows
        };
        let serial = drain(MatchStream::from_source(
            Arc::clone(&source),
            ExecCtl::unbounded(),
        ));
        assert!(!serial.is_empty());
        let width = source.partition_width();
        assert!(width >= 1);
        for parts in 1..=width {
            let ranges = crate::morsel::morsel_ranges(width, parts);
            let mut union: Vec<Vec<NodeId>> = Vec::new();
            for range in ranges {
                let stream =
                    MatchStream::partitioned(Arc::clone(&source), range, ExecCtl::unbounded());
                let rows = drain(stream);
                // Each partition is itself sorted and distinct.
                assert!(rows.windows(2).all(|w| w[0] < w[1]));
                union.extend(rows);
            }
            union.sort();
            union.dedup();
            assert_eq!(union, serial, "partition count {parts}");
        }
    }
}
