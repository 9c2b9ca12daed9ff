//! Compressed-sparse-row adjacency and the [`Adjacency`] abstraction.
//!
//! [`CsrView`] packs both directions of a graph's adjacency into two flat
//! buffers (list bounds and list entries), so a neighbour scan is one
//! bounds check and a contiguous read, and building or freeing a graph
//! touches two allocations instead of `2 · |V|` lists. It is the storage of
//! [`DiGraph`] itself; [`DiGraph::to_csr`] hands out a copy for callers that
//! own their adjacency (the colony keeps one per run).
//!
//! [`Adjacency`] is the minimal neighbor-scan interface shared by
//! [`DiGraph`], [`Dag`] and [`CsrView`]; algorithms generic over it are
//! monomorphized, so the abstraction costs nothing at runtime.

use crate::{Dag, DiGraph, NodeId};

/// Read-only neighbor access, implemented by every graph representation.
///
/// The neighbor slices must list the same nodes in the same order for all
/// implementations describing the same graph (every list keeps edge
/// insertion order), so algorithms produce identical results no matter
/// which representation they are handed.
pub trait Adjacency {
    /// Number of nodes (ids are dense, `0..node_count`).
    fn node_count(&self) -> usize;

    /// Successors of `v` (targets of edges leaving `v`).
    fn out_neighbors(&self, v: NodeId) -> &[NodeId];

    /// Predecessors of `v` (sources of edges entering `v`).
    fn in_neighbors(&self, v: NodeId) -> &[NodeId];

    /// Out-degree of `v`.
    #[inline]
    fn out_degree(&self, v: NodeId) -> usize {
        self.out_neighbors(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    fn in_degree(&self, v: NodeId) -> usize {
        self.in_neighbors(v).len()
    }
}

impl Adjacency for DiGraph {
    #[inline]
    fn node_count(&self) -> usize {
        DiGraph::node_count(self)
    }

    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        DiGraph::out_neighbors(self, v)
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        DiGraph::in_neighbors(self, v)
    }
}

impl Adjacency for Dag {
    #[inline]
    fn node_count(&self) -> usize {
        DiGraph::node_count(self)
    }

    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        DiGraph::out_neighbors(self, v)
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        DiGraph::in_neighbors(self, v)
    }
}

/// Flat compressed-sparse-row adjacency, both directions.
///
/// Two buffers hold the whole graph: `targets` has every out-list, then
/// every in-list, each in the order the edges were given, and `offsets`
/// has the `n + 1` bounds of the out-lists, then those of the in-lists.
/// Node `v`'s successors are `targets[offsets[v] .. offsets[v + 1]]`.
///
/// # Example
/// ```
/// use antlayer_graph::{Adjacency, DiGraph, NodeId};
///
/// let g = DiGraph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]).unwrap();
/// let csr = g.to_csr();
/// assert_eq!(csr.out_neighbors(NodeId::new(0)), g.out_neighbors(NodeId::new(0)));
/// assert_eq!(csr.in_neighbors(NodeId::new(2)), g.in_neighbors(NodeId::new(2)));
/// ```
#[derive(Clone, Debug)]
pub struct CsrView {
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

impl Default for CsrView {
    fn default() -> Self {
        CsrView {
            offsets: vec![0, 0],
            targets: Vec::new(),
        }
    }
}

impl CsrView {
    /// A copy of `graph`'s adjacency.
    pub fn from_graph(graph: &DiGraph) -> Self {
        graph.to_csr()
    }

    /// Both directions of `edges` over `n` nodes by one counting sort, each
    /// list in `edges` order. Fails with the index of the first edge that
    /// has an end `≥ n` or is a self-loop; repeated pairs are laid out like
    /// any other (see [`repeats`](Self::repeats)).
    pub(crate) fn counting_sort(n: usize, edges: &[(NodeId, NodeId)]) -> Result<CsrView, usize> {
        let mut offsets = vec![0u32; 2 * (n + 1)];
        let (outs, ins) = offsets.split_at_mut(n + 1);
        for (i, &(u, v)) in edges.iter().enumerate() {
            if u.index() >= n || v.index() >= n || u == v {
                return Err(i);
            }
            outs[u.index() + 1] += 1;
            ins[v.index() + 1] += 1;
        }
        // The in-lists follow the out-lists in `targets`.
        let m = edges.len() as u32;
        ins[0] = m;
        for i in 0..n {
            outs[i + 1] += outs[i];
            ins[i + 1] += ins[i];
        }
        // Each list's start doubles as its fill cursor; once every list
        // is full, entry `u` holds `u + 1`'s start, and one shift restores
        // the starts.
        let mut targets = vec![NodeId(0); 2 * edges.len()];
        for &(u, v) in edges {
            let slot = &mut outs[u.index()];
            targets[*slot as usize] = v;
            *slot += 1;
            let slot = &mut ins[v.index()];
            targets[*slot as usize] = u;
            *slot += 1;
        }
        for (bounds, first) in [(outs, 0), (ins, m)] {
            bounds.copy_within(0..n, 1);
            bounds[0] = first;
        }
        Ok(CsrView { offsets, targets })
    }

    /// List `i` of `targets`: out-list `i` for `i < n`, in-list `i - n - 1`
    /// for `i > n`.
    #[inline]
    fn list(&self, i: usize) -> &[NodeId] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Given the edge list this view was sorted from, marks every edge
    /// whose pair occurs earlier in the list; `None` when no pair repeats.
    /// One pass over the out-lists with a per-source stamp array,
    /// `O(V + E)`.
    pub(crate) fn repeats(&self, edges: &[(NodeId, NodeId)]) -> Option<Vec<bool>> {
        let n = self.node_count();
        // Slots in order (sources by id, each out-list in order), each
        // flagged when its target already occurred in its source's list.
        let mut stamp = vec![u32::MAX; n];
        let mut slots = (0..n as u32).flat_map(|u| {
            let targets = self.out_neighbors(NodeId(u));
            targets.iter().map(move |v| (u, v.index()))
        });
        let mut repeat = |(u, v): (u32, usize)| std::mem::replace(&mut stamp[v], u) == u;
        let first = slots.position(&mut repeat)?;
        let mut repeated = vec![false; first];
        repeated.push(true);
        repeated.extend(slots.map(repeat));
        // The k-th edge leaving `u` in list order sits in `u`'s k-th slot.
        let mut next = self.offsets[..n].to_vec();
        let in_list_order = edges.iter().map(|&(u, _)| {
            let slot = &mut next[u.index()];
            *slot += 1;
            repeated[*slot as usize - 1]
        });
        Some(in_list_order.collect())
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }
}

impl Adjacency for CsrView {
    #[inline]
    fn node_count(&self) -> usize {
        self.offsets.len() / 2 - 1
    }

    #[inline]
    fn out_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.list(v.index())
    }

    #[inline]
    fn in_neighbors(&self, v: NodeId) -> &[NodeId] {
        self.list(self.node_count() + 1 + v.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_graph_view() {
        let csr = DiGraph::new().to_csr();
        assert_eq!(Adjacency::node_count(&csr), 0);
        assert_eq!(csr.edge_count(), 0);
    }

    #[test]
    fn copy_matches_the_graph_exactly() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let dag = generate::random_dag_with_edges(30, 60, &mut rng);
            let csr = dag.to_csr();
            assert_eq!(Adjacency::node_count(&csr), dag.node_count());
            assert_eq!(csr.edge_count(), dag.edge_count());
            for v in dag.nodes() {
                assert_eq!(csr.out_neighbors(v), DiGraph::out_neighbors(&dag, v));
                assert_eq!(csr.in_neighbors(v), DiGraph::in_neighbors(&dag, v));
                assert_eq!(Adjacency::out_degree(&csr, v), DiGraph::out_degree(&dag, v));
                assert_eq!(Adjacency::in_degree(&csr, v), DiGraph::in_degree(&dag, v));
            }
        }
    }

    #[test]
    fn isolated_nodes_have_empty_slices() {
        let g = DiGraph::from_edges(4, &[(0, 1)]).unwrap();
        let csr = g.to_csr();
        assert!(csr.out_neighbors(NodeId::new(2)).is_empty());
        assert!(csr.in_neighbors(NodeId::new(3)).is_empty());
    }

    #[test]
    fn counting_sort_keeps_edge_order_and_flags_repeats() {
        let n = |i: u32| NodeId(i);
        let edges = [
            (n(2), n(0)),
            (n(0), n(2)),
            (n(0), n(1)),
            (n(1), n(0)),
            (n(0), n(2)),
        ];
        let csr = CsrView::counting_sort(3, &edges).unwrap();
        assert_eq!(csr.out_neighbors(n(0)), &[n(2), n(1), n(2)]);
        assert_eq!(csr.in_neighbors(n(0)), &[n(2), n(1)]);
        assert_eq!(csr.in_neighbors(n(2)), &[n(0), n(0)]);
        assert_eq!(
            csr.repeats(&edges),
            Some(vec![false, false, false, false, true])
        );
        assert_eq!(
            CsrView::counting_sort(3, &edges[..4])
                .unwrap()
                .repeats(&edges[..4]),
            None
        );
        let bad = [(n(0), n(1)), (n(0), n(3)), (n(1), n(1))];
        assert_eq!(CsrView::counting_sort(3, &bad).unwrap_err(), 1);
        assert_eq!(CsrView::counting_sort(3, &bad[2..]).unwrap_err(), 0);
    }

    #[test]
    fn adjacency_trait_is_uniform_across_representations() {
        fn total_degree<A: Adjacency>(g: &A) -> usize {
            (0..g.node_count())
                .map(|i| g.out_degree(NodeId::new(i)) + g.in_degree(NodeId::new(i)))
                .sum()
        }
        let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let csr = dag.to_csr();
        assert_eq!(total_degree(dag.graph()), total_degree(&csr));
        assert_eq!(total_degree(&dag), 8);
    }
}
