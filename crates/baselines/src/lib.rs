//! Baseline algorithms the paper compares GTEA against (§5).
//!
//! All baselines evaluate *conjunctive* tree pattern queries; general GTPQs
//! are handled through the decompose-and-merge wrapper in [`decompose`],
//! which is how the paper applies TwigStack / TwigStackD to queries with
//! disjunction and negation (Appendix C.2).
//!
//! * [`TwigStack`] — holistic twig join in the style of Bruno et al.:
//!   enumerates root-to-leaf *path solutions* and merge-joins them into twig
//!   matches.  Its intermediate results grow with the number of path
//!   solutions, the effect the paper's Fig. 10 quantifies.
//! * [`Twig2Stack`] — bottom-up twig evaluation that avoids path
//!   enumeration by keeping per-node hierarchical match links, at the cost
//!   of building and maintaining those structures for every query node.
//! * [`TwigStackD`] — the DAG generalization of the holistic algorithms:
//!   a pre-filtering phase (two sweeps over the candidates) followed by
//!   pool-based match expansion, with the SSPI index answering reachability.
//! * [`HgJoin`] — hash-based structural join over (parent, children) units,
//!   in two flavours: tuple intermediates (HGJoin+) and graph-represented
//!   intermediates (HGJoin*), the paper's own revision.
//!
//! Substitutions with respect to the original systems (region-encoded input
//! streams, selectivity-based plan generation) are listed under
//! "Substitutions" in `docs/ARCHITECTURE.md`; the join strategies and
//! intermediate-result representations — the factors the paper's
//! experiments isolate — are reproduced by real code doing the
//! corresponding work.

pub mod decompose;
pub mod hgjoin;
pub mod stats;
pub mod twig2stack;
pub mod twig_stack;
pub mod twigstack_d;

use std::collections::HashMap;

use gtpq_graph::{DataGraph, NodeId};
use gtpq_logic::transform::rename_vars;
use gtpq_logic::{implies, BoolExpr};
use gtpq_query::{Gtpq, GtpqBuilder, QueryNodeId, ResultSet};

pub use decompose::evaluate_gtpq_with;
pub use hgjoin::HgJoin;
pub use stats::BaselineStats;
pub use twig2stack::Twig2Stack;
pub use twig_stack::TwigStack;
pub use twigstack_d::TwigStackD;

/// Per-query-node candidate restrictions handed to a baseline by the
/// decompose-and-merge wrapper (`None` entries mean "no restriction").
pub type Restrictions = Vec<Option<Vec<NodeId>>>;

/// One match projection: a sorted `(query node, data node)` assignment.
/// Shared by the enumeration phases of the baseline evaluators.
pub(crate) type Assignment = Vec<(gtpq_query::QueryNodeId, NodeId)>;

/// Shared, memoized projections per (query node, data node).
pub(crate) type AssignmentMemo =
    std::collections::HashMap<(gtpq_query::QueryNodeId, NodeId), std::rc::Rc<Vec<Assignment>>>;

/// A conjunctive tree-pattern-query evaluation algorithm.
pub trait TpqAlgorithm {
    /// Short name used in experiment output.
    fn name(&self) -> &'static str;

    /// Evaluates a conjunctive query, optionally restricting the candidates of
    /// some query nodes.
    ///
    /// Every query node is matched, predicate children included, so each
    /// predicate child must be required by its parent's structural
    /// predicate; [`evaluate`](Self::evaluate) strips the ones that are not.
    ///
    /// # Panics
    /// Panics if `q` is not conjunctive (use [`evaluate_gtpq_with`] for
    /// general GTPQs).
    fn evaluate_restricted(
        &self,
        q: &Gtpq,
        restrict: Option<&Restrictions>,
    ) -> (ResultSet, BaselineStats);

    /// Evaluates a conjunctive query without restrictions, after stripping
    /// the predicate subtrees it does not require: those whose variable the
    /// parent's structural predicate does not imply.
    fn evaluate(&self, q: &Gtpq) -> (ResultSet, BaselineStats) {
        let Some(required) = required_pattern(q) else {
            return self.evaluate_restricted(q, None);
        };
        let (mut results, stats) = self.evaluate_restricted(&required, None);
        // Same output columns in the same order, under `q`'s node ids.
        results.output = q.output_nodes().to_vec();
        (results, stats)
    }

    /// The data graph the algorithm was built for.
    fn graph(&self) -> &DataGraph;
}

/// `q` without the predicate subtrees whose variable the parent's structural
/// predicate does not imply, or `None` when there are none to strip (always
/// so for all-backbone queries) or `q` is not conjunctive.
///
/// A predicate child under `fs = true` constrains nothing, yet an algorithm
/// that matches every query node would demand a match for it.  In a
/// satisfiable conjunctive `fs` an unimplied variable does not occur at all,
/// so dropping its subtree leaves the answer unchanged.
pub(crate) fn required_pattern(q: &Gtpq) -> Option<Gtpq> {
    if q.node_ids().all(|u| q.is_backbone(u)) || !q.is_conjunctive() {
        return None;
    }
    let mut b = GtpqBuilder::new(q.node(q.root()).attr.clone());
    let mut kept: Vec<Option<QueryNodeId>> = vec![None; q.size()];
    kept[q.root().index()] = Some(b.root_id());
    // Node ids are assigned parent first, so one pass in id order sees every
    // parent's fate before its children.
    for u in q.node_ids().skip(1) {
        let parent = q.parent(u).expect("non-root");
        let Some(new_parent) = kept[parent.index()] else {
            continue;
        };
        let edge = q.incoming_edge(u).expect("non-root");
        let attr = q.node(u).attr.clone();
        kept[u.index()] = if q.is_backbone(u) {
            Some(b.backbone_child(new_parent, edge, attr))
        } else if implies(q.fs(parent), &BoolExpr::Var(u.var())) {
            Some(b.predicate_child(new_parent, edge, attr))
        } else {
            None
        };
    }
    if kept.iter().all(Option::is_some) {
        return None;
    }
    let rename: HashMap<_, _> = q
        .node_ids()
        .filter_map(|u| kept[u.index()].map(|new| (u.var(), new.var())))
        .collect();
    for u in q.node_ids() {
        if let Some(new) = kept[u.index()] {
            b.set_structural(new, rename_vars(q.fs(u), &rename));
        }
    }
    for &o in q.output_nodes() {
        b.mark_output(kept[o.index()].expect("output nodes are backbone nodes"));
    }
    Some(b.build().expect("a valid query has a valid sub-pattern"))
}

/// Computes the initial candidates of every query node through the attribute
/// inverted index, applying restrictions.
pub(crate) fn restricted_candidates(
    q: &Gtpq,
    g: &DataGraph,
    restrict: Option<&Restrictions>,
    stats: &mut BaselineStats,
) -> Vec<Vec<NodeId>> {
    let mut mat: Vec<Vec<NodeId>> = Vec::with_capacity(q.size());
    let mut allowed = gtpq_graph::NodeBitSet::new(g.node_count());
    for u in q.node_ids() {
        let selection = q.candidates_indexed(g, u);
        stats.input_nodes += selection.verified;
        stats.index_lookups += selection.posting_entries;
        let mut candidates = selection.nodes;
        if let Some(r) = restrict.and_then(|r| r[u.index()].as_ref()) {
            allowed.clear();
            allowed.extend_from_slice(r);
            candidates.retain(|&v| allowed.contains(v));
        }
        mat.push(candidates);
    }
    mat
}

#[cfg(test)]
mod tests {
    use gtpq_datagen::{fig11_gtpq, xmark_q1, Fig11Predicate};
    use gtpq_query::{AttrPredicate, EdgeKind};

    use super::*;

    #[test]
    fn required_pattern_strips_only_unconstrained_predicate_subtrees() {
        // All-backbone queries take the direct path untouched.
        assert!(required_pattern(&xmark_q1(0)).is_none());
        // Non-conjunctive queries are left for the algorithms to reject.
        assert!(required_pattern(&fig11_gtpq(Fig11Predicate::Neg1, 0, 3)).is_none());
        // `fs = true` requires neither education nor mailbox/mail.
        let q = fig11_gtpq(Fig11Predicate::Conjunctive, 0, 3);
        let required = required_pattern(&q).expect("three predicate nodes to strip");
        assert_eq!(required.size(), q.size() - 3);
        assert!(required.node_ids().all(|u| required.is_backbone(u)));
        assert_eq!(required.output_nodes().len(), q.output_nodes().len());
        // A predicate child the parent's `fs` implies survives, renamed.
        let mut b = GtpqBuilder::new(AttrPredicate::label("a"));
        let root = b.root_id();
        let _loose = b.predicate_child(root, EdgeKind::Child, AttrPredicate::label("b"));
        let kept = b.predicate_child(root, EdgeKind::Child, AttrPredicate::label("c"));
        b.set_structural(root, BoolExpr::Var(kept.var()));
        b.mark_output(root);
        let q = b.build().unwrap();
        let required = required_pattern(&q).expect("`b` is not required");
        assert_eq!(required.size(), 2);
        let child = required.children(required.root())[0];
        assert_eq!(required.fs(required.root()), &BoolExpr::Var(child.var()));
    }
}
