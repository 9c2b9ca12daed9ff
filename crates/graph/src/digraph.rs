//! The core directed-graph container.
//!
//! [`DiGraph`] is a simple (no parallel edges, no self-loops) directed graph
//! stored as flat compressed-sparse-row arrays, forward and reverse
//! ([`CsrView`]), plus its edge list in insertion order. It is the substrate
//! the paper obtained from LEDA's `GRAPH<int,int>`; everything above it
//! (layering algorithms, the ant colony, the Sugiyama stages) only needs the
//! operations provided here.
//!
//! A graph is immutable once built. [`DiGraph::from_edges`] validates and
//! lays out a whole edge list in `O(V + E)`; an edit builds the new edge
//! list and calls it again. Every neighbour list keeps edge insertion order,
//! so traversal orders, and everything derived from them, depend only on
//! the edge list.
//!
//! Node payloads are deliberately *not* stored inside the graph: algorithms
//! keep side tables ([`NodeVec`](crate::NodeVec)) instead, which keeps the hot
//! adjacency data compact (structure-of-arrays layout).

use crate::{Adjacency, CsrView, EdgeId, GraphError, NodeId};
use std::fmt;

/// A simple directed graph with dense `u32` node ids.
///
/// # Example
/// ```
/// use antlayer_graph::{DiGraph, NodeId};
///
/// let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.out_neighbors(a), &[b]);
/// assert_eq!(g.in_neighbors(c), &[b]);
/// ```
#[derive(Clone, Default)]
pub struct DiGraph {
    adj: CsrView,
    /// Edge list in insertion order; `edges[e] = (source, target)`.
    edges: Vec<(NodeId, NodeId)>,
}

/// What [`DiGraph::build`] does with a pair that occurs more than once.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Repeats {
    Reject,
    KeepFirst,
}

impl DiGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph::default()
    }

    /// Builds a graph with `n` nodes from raw `(source, target)` index pairs.
    ///
    /// Rejects out-of-bounds endpoints, self-loops and repeated pairs in
    /// `O(V + E)`, reporting the first offending edge in list order.
    ///
    /// # Example
    /// ```
    /// use antlayer_graph::{DiGraph, GraphError, NodeId};
    /// let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
    /// assert_eq!(g.edge_count(), 2);
    /// assert_eq!(
    ///     DiGraph::from_edges(3, &[(0, 1), (2, 2), (0, 1)]).unwrap_err(),
    ///     GraphError::SelfLoop(NodeId::new(2))
    /// );
    /// ```
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Result<Self, GraphError> {
        DiGraph::build(n, node_pairs(edges), Repeats::Reject)
    }

    /// Like [`from_edges`](Self::from_edges), but a repeated pair is
    /// dropped instead of rejected: each pair keeps its first occurrence,
    /// and the edge list and every neighbour list keep the order of the
    /// kept edges. Out-of-bounds endpoints and self-loops are still errors.
    ///
    /// # Example
    /// ```
    /// use antlayer_graph::DiGraph;
    /// let g = DiGraph::from_edges_dedup(3, &[(0, 1), (1, 2), (0, 1)]).unwrap();
    /// assert_eq!(g.edge_count(), 2);
    /// assert!(DiGraph::from_edges_dedup(3, &[(0, 1), (1, 1)]).is_err());
    /// ```
    pub fn from_edges_dedup(n: usize, edges: &[(u32, u32)]) -> Result<Self, GraphError> {
        DiGraph::build(n, node_pairs(edges), Repeats::KeepFirst)
    }

    /// [`from_edges`](Self::from_edges) over an owned list of node pairs.
    pub(crate) fn from_node_pairs(
        n: usize,
        edges: Vec<(NodeId, NodeId)>,
    ) -> Result<Self, GraphError> {
        DiGraph::build(n, edges, Repeats::Reject)
    }

    /// Lays out `edges` over `n` nodes, validating every pair.
    fn build(
        n: usize,
        mut edges: Vec<(NodeId, NodeId)>,
        repeats: Repeats,
    ) -> Result<Self, GraphError> {
        let adj = match CsrView::counting_sort(n, &edges) {
            Ok(adj) => adj,
            Err(bad) => {
                // A repeat before the bad edge is the first error.
                edges.truncate(bad + 1);
                let (u, v) = edges.pop().expect("the bad edge");
                DiGraph::build(n, edges, repeats)?;
                return Err(match [u, v].into_iter().find(|id| id.index() >= n) {
                    Some(id) => GraphError::NodeOutOfBounds { id, node_count: n },
                    None => GraphError::SelfLoop(u),
                });
            }
        };
        let Some(repeated) = adj.repeats(&edges) else {
            return Ok(DiGraph { adj, edges });
        };
        if repeats == Repeats::Reject {
            let first = repeated.iter().position(|&r| r).expect("some pair repeats");
            let (u, v) = edges[first];
            return Err(GraphError::DuplicateEdge(u, v));
        }
        let mut repeated = repeated.into_iter();
        edges.retain(|_| !repeated.next().expect("one flag per edge"));
        Ok(DiGraph::from_valid_edges(n, edges))
    }

    /// Lays out `edges`, which the caller guarantees form a simple graph on
    /// `n` nodes (in bounds, no self-loop, no repeat).
    pub(crate) fn from_valid_edges(n: usize, edges: Vec<(NodeId, NodeId)>) -> Self {
        let adj = CsrView::counting_sort(n, &edges).expect("edges are in bounds, no self-loops");
        debug_assert!(adj.repeats(&edges).is_none(), "edges are simple");
        DiGraph { adj, edges }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adj.node_count()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    /// Membership test for the edge `(u, v)`.
    ///
    /// Linear in `deg(u)`: one contiguous scan of `u`'s out-list.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u.index() < self.node_count() && self.out_neighbors(u).contains(&v)
    }

    /// Successors of `v` (targets of edges leaving `v`), in edge insertion
    /// order.
    #[inline]
    pub fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.adj.out_neighbors(v)
    }

    /// Predecessors of `v` (sources of edges entering `v`), in edge
    /// insertion order.
    #[inline]
    pub fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.adj.in_neighbors(v)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_neighbors(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Total degree (in + out) of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.in_degree(v) + self.out_degree(v)
    }

    /// Iterates over all node ids `0..n`.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterates over all edges as `(source, target)` pairs in insertion order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (NodeId, NodeId)> + Clone + '_ {
        self.edges.iter().copied()
    }

    /// The endpoints of edge `e`.
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e.index()]
    }

    /// Nodes with no incoming edges.
    pub fn sources(&self) -> Vec<NodeId> {
        self.nodes().filter(|&v| self.in_degree(v) == 0).collect()
    }

    /// Nodes with no outgoing edges.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.nodes().filter(|&v| self.out_degree(v) == 0).collect()
    }

    /// Nodes with no edges at all.
    pub fn isolated_nodes(&self) -> Vec<NodeId> {
        self.nodes().filter(|&v| self.degree(v) == 0).collect()
    }

    /// A copy of the adjacency arrays, for callers that keep their own.
    pub fn to_csr(&self) -> CsrView {
        self.adj.clone()
    }

    /// The reverse graph: every edge `(u, v)` becomes `(v, u)`.
    pub fn reversed(&self) -> DiGraph {
        let edges = self.edges().map(|(u, v)| (v, u)).collect();
        DiGraph::from_valid_edges(self.node_count(), edges)
    }

    /// A copy keeping only the edges for which `keep` returns `true`.
    ///
    /// Node ids are preserved. This is the substrate's replacement for
    /// individual edge removal: edge ids stay dense and algorithms never see
    /// tombstones.
    pub fn filter_edges(&self, mut keep: impl FnMut(NodeId, NodeId) -> bool) -> DiGraph {
        let edges = self.edges().filter(|&(u, v)| keep(u, v)).collect();
        DiGraph::from_valid_edges(self.node_count(), edges)
    }

    /// The subgraph induced by `nodes`.
    ///
    /// Returns the new graph together with the mapping from old ids to new
    /// ids (entries for excluded nodes are `None`).
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (DiGraph, Vec<Option<NodeId>>) {
        let mut map: Vec<Option<NodeId>> = vec![None; self.node_count()];
        for (i, &v) in nodes.iter().enumerate() {
            assert!(map[v.index()].is_none(), "duplicate node in subgraph list");
            map[v.index()] = Some(NodeId::new(i));
        }
        let edges = self
            .edges()
            .filter_map(|(u, v)| Some((map[u.index()]?, map[v.index()]?)))
            .collect();
        (DiGraph::from_valid_edges(nodes.len(), edges), map)
    }
}

fn node_pairs(edges: &[(u32, u32)]) -> Vec<(NodeId, NodeId)> {
    edges.iter().map(|&(u, v)| (NodeId(u), NodeId(v))).collect()
}

impl fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DiGraph {{ nodes: {}, edges: {} }}",
            self.node_count(),
            self.edge_count()
        )?;
        for (u, v) in self.edges() {
            writeln!(f, "  {u} -> {v}")?;
        }
        Ok(())
    }
}

/// Test oracle: the pre-CSR incremental graph.
#[cfg(test)]
pub(crate) mod incremental {
    use super::*;

    /// The graph as it was built before the flat layout: one `add_edge` per
    /// pair, each checking bounds, self-loops and (by scanning the source's
    /// list) repeats, appending to per-node lists.
    ///
    /// Kept as the oracle for [`DiGraph::build`]: seeded tests check that the
    /// two agree on lists, edge order and the first error.
    pub(crate) struct Incremental {
        pub(crate) out_adj: Vec<Vec<NodeId>>,
        pub(crate) in_adj: Vec<Vec<NodeId>>,
        pub(crate) edges: Vec<(NodeId, NodeId)>,
    }

    impl Incremental {
        pub(crate) fn new(n: usize) -> Self {
            Incremental {
                out_adj: vec![Vec::new(); n],
                in_adj: vec![Vec::new(); n],
                edges: Vec::new(),
            }
        }

        pub(crate) fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
            let node_count = self.out_adj.len();
            for id in [u, v] {
                if id.index() >= node_count {
                    return Err(GraphError::NodeOutOfBounds { id, node_count });
                }
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            if self.out_adj[u.index()].contains(&v) {
                return Err(GraphError::DuplicateEdge(u, v));
            }
            self.out_adj[u.index()].push(v);
            self.in_adj[v.index()].push(u);
            self.edges.push((u, v));
            Ok(())
        }

        /// `from_edges` (`lenient = false`) or the callers that dropped
        /// `DuplicateEdge` errors (`lenient = true`).
        pub(crate) fn from_edges(
            n: usize,
            edges: &[(u32, u32)],
            lenient: bool,
        ) -> Result<Self, GraphError> {
            let mut g = Incremental::new(n);
            for &(u, v) in edges {
                match g.add_edge(NodeId(u), NodeId(v)) {
                    Err(GraphError::DuplicateEdge(..)) if lenient => {}
                    other => other?,
                }
            }
            Ok(g)
        }

        pub(crate) fn assert_same_as(&self, g: &DiGraph, context: &str) {
            assert_eq!(g.node_count(), self.out_adj.len(), "{context}");
            assert_eq!(g.edges().collect::<Vec<_>>(), self.edges, "{context}");
            for v in g.nodes() {
                assert_eq!(
                    g.out_neighbors(v),
                    &self.out_adj[v.index()][..],
                    "{context}"
                );
                assert_eq!(g.in_neighbors(v), &self.in_adj[v.index()][..], "{context}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::incremental::Incremental;
    use super::*;
    use crate::topological_sort;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn diamond() -> DiGraph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    /// Seeded edge lists over few nodes, so repeats, self-loops and
    /// out-of-range ends all turn up. Every fourth list leaves most edges
    /// from node 0, a hub whose long out-list repeats many targets.
    fn messy_edge_lists(seed: u64, rounds: usize) -> Vec<(usize, Vec<(u32, u32)>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..rounds)
            .map(|round| {
                let hub = round % 4 == 3;
                let n = rng.gen_range(0..=if hub { 60 } else { 12usize });
                let m = rng.gen_range(0..=3 * n + 2);
                let edges = (0..m)
                    .map(|_| {
                        let end = |rng: &mut StdRng| match rng.gen_range(0..40) {
                            0 if !hub => n as u32 + rng.gen_range(0..3),
                            _ => rng.gen_range(0..n.max(1)) as u32,
                        };
                        let u = if hub && rng.gen_bool(0.7) {
                            0
                        } else {
                            end(&mut rng)
                        };
                        (u, end(&mut rng))
                    })
                    .collect();
                (n, edges)
            })
            .collect()
    }

    #[test]
    fn bulk_build_matches_incremental_transcription() {
        let (mut built, mut refused) = (0, 0);
        for (round, (n, edges)) in messy_edge_lists(1402, 4000).into_iter().enumerate() {
            let context = format!("round {round}: n {n}, edges {edges:?}");
            match (
                DiGraph::from_edges(n, &edges),
                Incremental::from_edges(n, &edges, false),
            ) {
                (Ok(g), Ok(old)) => {
                    old.assert_same_as(&g, &context);
                    let order = topological_sort(&g).map_err(|_| ());
                    let old_order =
                        topological_sort(&DiGraph::from_valid_edges(n, old.edges)).map_err(|_| ());
                    assert_eq!(order, old_order, "{context}");
                    built += 1;
                }
                (Err(e), Err(old)) => {
                    assert_eq!(e, old, "{context}");
                    refused += 1;
                }
                (new, old) => panic!("{context}: {new:?} vs {:?}", old.map(|g| g.edges)),
            }
        }
        assert!(
            built >= 500 && refused >= 500,
            "built {built}, refused {refused}"
        );
    }

    #[test]
    fn dedup_build_matches_incremental_transcription() {
        let mut deduped = 0;
        for (round, (n, edges)) in messy_edge_lists(1403, 4000).into_iter().enumerate() {
            let context = format!("round {round}: n {n}, edges {edges:?}");
            match (
                DiGraph::from_edges_dedup(n, &edges),
                Incremental::from_edges(n, &edges, true),
            ) {
                (Ok(g), Ok(old)) => {
                    old.assert_same_as(&g, &context);
                    deduped += usize::from(g.edge_count() < edges.len());
                }
                (Err(e), Err(old)) => assert_eq!(e, old, "{context}"),
                (new, old) => panic!("{context}: {new:?} vs {:?}", old.map(|g| g.edges)),
            }
        }
        assert!(deduped >= 100, "only {deduped} lists had repeats");
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.nodes().count(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn nodes_are_dense_ids() {
        let g = DiGraph::from_edges(3, &[]).unwrap();
        let ids: Vec<usize> = g.nodes().map(NodeId::index).collect();
        assert_eq!(ids, [0, 1, 2]);
    }

    #[test]
    fn adjacency_is_consistent() {
        let g = diamond();
        let n = |i| NodeId::new(i);
        assert_eq!(g.out_neighbors(n(0)), &[n(1), n(2)]);
        assert_eq!(g.in_neighbors(n(3)), &[n(1), n(2)]);
        assert_eq!(g.out_degree(n(0)), 2);
        assert_eq!(g.in_degree(n(0)), 0);
        assert_eq!(g.degree(n(1)), 2);
        assert!(g.has_edge(n(0), n(1)));
        assert!(!g.has_edge(n(1), n(0)));
        assert!(!g.has_edge(n(9), n(0)));
    }

    #[test]
    fn rejects_self_loop() {
        let a = NodeId::new(0);
        assert_eq!(
            DiGraph::from_edges(1, &[(0, 0)]).unwrap_err(),
            GraphError::SelfLoop(a)
        );
    }

    #[test]
    fn rejects_duplicate_edge() {
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        assert_eq!(
            DiGraph::from_edges(2, &[(0, 1), (0, 1)]).unwrap_err(),
            GraphError::DuplicateEdge(a, b)
        );
        // The reverse direction is a different edge and must be accepted.
        assert!(DiGraph::from_edges(2, &[(0, 1), (1, 0)]).is_ok());
    }

    #[test]
    fn rejects_out_of_bounds() {
        assert_eq!(
            DiGraph::from_edges(1, &[(0, 7)]).unwrap_err(),
            GraphError::NodeOutOfBounds {
                id: NodeId::new(7),
                node_count: 1
            }
        );
    }

    #[test]
    fn from_edges_propagates_errors() {
        assert!(DiGraph::from_edges(2, &[(0, 0)]).is_err());
        assert!(DiGraph::from_edges(2, &[(0, 5)]).is_err());
        assert!(DiGraph::from_edges(2, &[(0, 1), (0, 1)]).is_err());
    }

    #[test]
    fn reports_the_first_offending_edge() {
        // A repeat before a self-loop before an out-of-range end.
        let e = DiGraph::from_edges(3, &[(0, 1), (1, 2), (0, 1), (2, 2), (0, 5)]);
        assert_eq!(
            e.unwrap_err(),
            GraphError::DuplicateEdge(NodeId::new(0), NodeId::new(1))
        );
        let e = DiGraph::from_edges_dedup(3, &[(0, 1), (0, 1), (0, 5), (2, 2)]);
        assert!(matches!(e, Err(GraphError::NodeOutOfBounds { .. })));
    }

    #[test]
    fn sources_sinks_isolated() {
        let g = DiGraph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let iso = NodeId::new(4);
        assert_eq!(g.sources(), vec![NodeId::new(0), iso]);
        assert_eq!(g.sinks(), vec![NodeId::new(3), iso]);
        assert_eq!(g.isolated_nodes(), vec![iso]);
    }

    #[test]
    fn edge_ids_and_endpoints() {
        let g = diamond();
        assert_eq!(
            g.edge_endpoints(EdgeId::new(2)),
            (NodeId::new(1), NodeId::new(3))
        );
    }

    #[test]
    fn reversed_swaps_directions() {
        let g = diamond().reversed();
        let n = |i| NodeId::new(i);
        assert!(g.has_edge(n(1), n(0)));
        assert!(g.has_edge(n(3), n(2)));
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.sources(), vec![n(3)]);
    }

    #[test]
    fn filter_edges_keeps_ids() {
        let g = diamond();
        let n = |i| NodeId::new(i);
        let f = g.filter_edges(|u, _| u != n(0));
        assert_eq!(f.node_count(), 4);
        assert_eq!(f.edge_count(), 2);
        assert!(!f.has_edge(n(0), n(1)));
        assert!(f.has_edge(n(1), n(3)));
    }

    #[test]
    fn induced_subgraph_remaps_ids() {
        let g = diamond();
        let n = |i| NodeId::new(i);
        let (sub, map) = g.induced_subgraph(&[n(0), n(1), n(3)]);
        assert_eq!(sub.node_count(), 3);
        // Edges 0->1 and 1->3 survive; 0->2 and 2->3 drop.
        assert_eq!(sub.edge_count(), 2);
        assert_eq!(map[n(2).index()], None);
        let n0 = map[n(0).index()].unwrap();
        let n1 = map[n(1).index()].unwrap();
        assert!(sub.has_edge(n0, n1));
    }

    #[test]
    fn debug_format_lists_edges() {
        let g = DiGraph::from_edges(2, &[(0, 1)]).unwrap();
        let s = format!("{g:?}");
        assert!(s.contains("nodes: 2"));
        assert!(s.contains("0 -> 1"));
    }
}
