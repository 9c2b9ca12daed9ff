//! Proper layerings: subdividing long edges with explicit dummy vertices.
//!
//! A layering is *proper* when every edge span equals one. Downstream
//! Sugiyama stages (crossing minimization, coordinate assignment) operate on
//! the proper layering, where each long edge has become a chain of dummy
//! vertices.

use crate::Layering;
use antlayer_graph::{Dag, DiGraph, NodeId};

/// What a node of a proper layering represents.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// An original vertex of the input DAG (same id space).
    Real(NodeId),
    /// The `i`-th dummy vertex (counting from the *source* side) of the
    /// original edge with this index.
    Dummy {
        /// Index of the original edge in the input DAG's edge order.
        edge: usize,
        /// Position along the chain, `0..span-1`.
        position: u32,
    },
}

impl NodeKind {
    /// Whether this node is a dummy.
    pub fn is_dummy(&self) -> bool {
        matches!(self, NodeKind::Dummy { .. })
    }
}

/// A proper layering: the expanded graph, its layer assignment and the
/// provenance of every node.
#[derive(Clone, Debug)]
pub struct ProperLayering {
    /// The expanded graph: original vertices keep their ids (`0..n`), dummy
    /// vertices follow.
    pub graph: DiGraph,
    /// Layer of every expanded-graph node.
    pub layering: Layering,
    /// Provenance of every expanded-graph node.
    pub kinds: Vec<NodeKind>,
    /// For each original edge, the node chain it became:
    /// `[u, d1, …, dk, v]` (just `[u, v]` for span-1 edges).
    pub chains: Vec<Vec<NodeId>>,
}

impl ProperLayering {
    /// Expands `layering` of `dag` into a proper layering.
    ///
    /// Every edge `(u, v)` of span `s` is replaced by the path
    /// `u → d1 → … → d(s−1) → v` with `di` on layer `layer(u) − i`.
    pub fn build(dag: &Dag, layering: &Layering) -> ProperLayering {
        debug_assert!(layering.validate(dag).is_ok());
        let n = dag.node_count();
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(dag.edge_count());
        let mut kinds: Vec<NodeKind> = (0..n).map(|i| NodeKind::Real(NodeId::new(i))).collect();
        let mut layers: Vec<u32> = (0..n).map(|i| layering.layer(NodeId::new(i))).collect();
        let mut chains = Vec::with_capacity(dag.edge_count());
        for (edge_idx, (u, v)) in dag.edges().enumerate() {
            let span = layering.edge_span(u, v);
            let mut chain = Vec::with_capacity(span as usize + 1);
            chain.push(u);
            let mut prev = u;
            for i in 1..span {
                let d = NodeId::new(kinds.len());
                kinds.push(NodeKind::Dummy {
                    edge: edge_idx,
                    position: i - 1,
                });
                layers.push(layering.layer(u) - i);
                edges.push((prev.raw(), d.raw()));
                chain.push(d);
                prev = d;
            }
            edges.push((prev.raw(), v.raw()));
            chain.push(v);
            chains.push(chain);
        }
        // Dummy chain nodes are fresh and a chain tail is a fresh
        // connection, so the expansion stays simple.
        let graph = DiGraph::from_edges(kinds.len(), &edges).expect("expansion is simple");
        ProperLayering {
            graph,
            layering: Layering::from_slice(&layers),
            kinds,
            chains,
        }
    }

    /// Number of dummy vertices.
    pub fn dummy_count(&self) -> usize {
        self.kinds.iter().filter(|k| k.is_dummy()).count()
    }

    /// Whether every edge of the expanded graph has span exactly one.
    pub fn is_proper(&self) -> bool {
        self.graph
            .edges()
            .all(|(u, v)| self.layering.layer(u) == self.layering.layer(v) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn span_one_edges_are_untouched() {
        let dag = Dag::from_edges(2, &[(0, 1)]).unwrap();
        let l = Layering::from_slice(&[2, 1]);
        let p = ProperLayering::build(&dag, &l);
        assert_eq!(p.graph.node_count(), 2);
        assert_eq!(p.dummy_count(), 0);
        assert!(p.is_proper());
        assert_eq!(p.chains, vec![vec![n(0), n(1)]]);
    }

    #[test]
    fn long_edge_becomes_chain() {
        let dag = Dag::from_edges(2, &[(0, 1)]).unwrap();
        let l = Layering::from_slice(&[4, 1]);
        let p = ProperLayering::build(&dag, &l);
        assert_eq!(p.graph.node_count(), 4); // 2 real + 2 dummies
        assert_eq!(p.dummy_count(), 2);
        assert!(p.is_proper());
        let chain = &p.chains[0];
        assert_eq!(chain.len(), 4);
        assert_eq!(chain[0], n(0));
        assert_eq!(chain[3], n(1));
        // Dummies descend one layer at a time.
        assert_eq!(p.layering.layer(chain[1]), 3);
        assert_eq!(p.layering.layer(chain[2]), 2);
        assert_eq!(
            p.kinds[chain[1].index()],
            NodeKind::Dummy {
                edge: 0,
                position: 0
            }
        );
    }

    #[test]
    fn dummy_count_matches_metrics() {
        let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 3)]).unwrap();
        let l = Layering::from_slice(&[4, 3, 2, 1]);
        l.validate(&dag).unwrap();
        let p = ProperLayering::build(&dag, &l);
        assert_eq!(p.dummy_count() as u64, metrics::dummy_count(&dag, &l));
        assert!(p.is_proper());
    }

    #[test]
    fn expanded_graph_edge_count_is_sum_of_spans() {
        let dag = Dag::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let l = Layering::from_slice(&[3, 2, 1]);
        let p = ProperLayering::build(&dag, &l);
        let span_sum: u32 = dag.edges().map(|(u, v)| l.edge_span(u, v)).sum();
        assert_eq!(p.graph.edge_count() as u32, span_sum);
    }

    #[test]
    fn real_nodes_keep_ids_and_layers() {
        let dag = Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let l = Layering::from_slice(&[5, 3, 1]);
        let p = ProperLayering::build(&dag, &l);
        for v in dag.nodes() {
            assert_eq!(p.kinds[v.index()], NodeKind::Real(v));
            assert_eq!(p.layering.layer(v), l.layer(v));
        }
    }
}
