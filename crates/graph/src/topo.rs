//! Topological algorithms: ordering, cycle detection, longest paths.

use crate::{DiGraph, GraphError, NodeId, NodeVec};

/// Computes a topological order of `g` with Kahn's algorithm.
///
/// Returns the nodes in an order where every edge points from an earlier to a
/// later node, or [`GraphError::Cycle`] naming the nodes of a strongly
/// connected remainder when `g` is cyclic. Runs in `O(V + E)`.
///
/// # Example
/// ```
/// use antlayer_graph::{DiGraph, topological_sort};
/// let g = DiGraph::from_edges(3, &[(2, 1), (1, 0)]).unwrap();
/// let order = topological_sort(&g).unwrap();
/// assert_eq!(order.iter().map(|n| n.index()).collect::<Vec<_>>(), [2, 1, 0]);
/// ```
pub fn topological_sort(g: &DiGraph) -> Result<Vec<NodeId>, GraphError> {
    let mut in_deg = NodeVec::from_fn(g.node_count(), |v| g.in_degree(v));
    let mut queue: Vec<NodeId> = g.nodes().filter(|&v| in_deg[v] == 0).collect();
    let mut order = Vec::with_capacity(g.node_count());
    // A plain stack keeps this O(V+E); the specific tie-breaking order is
    // irrelevant to callers (all downstream algorithms only need *a* valid
    // topological order).
    while let Some(v) = queue.pop() {
        order.push(v);
        for &w in g.out_neighbors(v) {
            in_deg[w] -= 1;
            if in_deg[w] == 0 {
                queue.push(w);
            }
        }
    }
    if order.len() == g.node_count() {
        Ok(order)
    } else {
        let leftovers: Vec<NodeId> = g.nodes().filter(|&v| in_deg[v] > 0).collect();
        Err(GraphError::Cycle(trim_to_cycle(g, leftovers)))
    }
}

/// Shrinks a set of nodes known to contain a cycle down to one concrete cycle,
/// so error messages point at an actual offending loop rather than the whole
/// cyclic core.
fn trim_to_cycle(g: &DiGraph, candidates: Vec<NodeId>) -> Vec<NodeId> {
    if candidates.is_empty() {
        return candidates;
    }
    let mut in_set = {
        let mut s = vec![false; g.node_count()];
        for &v in &candidates {
            s[v.index()] = true;
        }
        s
    };
    // The unprocessed remainder also contains acyclic appendages *downstream*
    // of cycles; peel nodes without a successor in the set (reverse Kahn)
    // until every remaining node can step forward, then walk to find a loop.
    let mut out_in_set = NodeVec::from_fn(g.node_count(), |v| {
        if in_set[v.index()] {
            g.out_neighbors(v)
                .iter()
                .filter(|w| in_set[w.index()])
                .count()
        } else {
            0
        }
    });
    let mut peel: Vec<NodeId> = candidates
        .iter()
        .copied()
        .filter(|&v| out_in_set[v] == 0)
        .collect();
    while let Some(v) = peel.pop() {
        in_set[v.index()] = false;
        for &u in g.in_neighbors(v) {
            if in_set[u.index()] {
                out_in_set[u] -= 1;
                if out_in_set[u] == 0 {
                    peel.push(u);
                }
            }
        }
    }
    let candidates: Vec<NodeId> = candidates
        .into_iter()
        .filter(|&v| v.index() < in_set.len() && in_set[v.index()])
        .collect();
    // Walk forward through the cyclic core; after at most n steps we must
    // revisit a node, and the walk since that node is a cycle.
    let mut seen_at: Vec<Option<usize>> = vec![None; g.node_count()];
    let mut walk = Vec::new();
    let mut cur = candidates[0];
    loop {
        if let Some(start) = seen_at[cur.index()] {
            return walk[start..].to_vec();
        }
        seen_at[cur.index()] = Some(walk.len());
        walk.push(cur);
        cur = *g
            .out_neighbors(cur)
            .iter()
            .find(|w| in_set[w.index()])
            .expect("every node of the cyclic core has a successor in the core");
    }
}

/// Whether `g` contains no directed cycle.
pub fn is_acyclic(g: &DiGraph) -> bool {
    topological_sort(g).is_ok()
}

/// Longest path lengths (in edges) from each node to any sink, following
/// edge directions.
///
/// `result[v] = 0` when `v` is a sink; otherwise
/// `result[v] = 1 + max over successors`. This is exactly the layer index
/// (0-based) that Longest-Path Layering assigns. `g` must be acyclic.
pub fn longest_path_to_sink(g: &DiGraph, topo: &[NodeId]) -> NodeVec<u32> {
    let mut dist = NodeVec::filled(0u32, g.node_count());
    // Process in reverse topological order so successors are final.
    for &v in topo.iter().rev() {
        for &w in g.out_neighbors(v) {
            dist[v] = dist[v].max(dist[w] + 1);
        }
    }
    dist
}

/// Longest path lengths (in edges) from any source to each node.
///
/// `result[v] = 0` when `v` is a source. `g` must be acyclic.
pub fn longest_path_from_source(g: &DiGraph, topo: &[NodeId]) -> NodeVec<u32> {
    let mut dist = NodeVec::filled(0u32, g.node_count());
    for &v in topo.iter() {
        for &w in g.out_neighbors(v) {
            dist[w] = dist[w].max(dist[v] + 1);
        }
    }
    dist
}

/// Length (in edges) of the longest directed path anywhere in the DAG.
pub fn critical_path_length(g: &DiGraph, topo: &[NodeId]) -> u32 {
    longest_path_to_sink(g, topo)
        .values()
        .copied()
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> DiGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        DiGraph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn topo_sort_chain() {
        let g = chain(5);
        let order = topological_sort(&g).unwrap();
        assert_eq!(
            order.iter().copied().map(NodeId::index).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn topo_sort_respects_all_edges() {
        let g = DiGraph::from_edges(6, &[(0, 3), (1, 3), (2, 4), (3, 5), (4, 5)]).unwrap();
        let order = topological_sort(&g).unwrap();
        let pos = {
            let mut p = vec![0; 6];
            for (i, v) in order.iter().enumerate() {
                p[v.index()] = i;
            }
            p
        };
        for (u, v) in g.edges() {
            assert!(pos[u.index()] < pos[v.index()], "edge {u}->{v} violated");
        }
    }

    #[test]
    fn topo_sort_empty_graph() {
        assert!(topological_sort(&DiGraph::new()).unwrap().is_empty());
    }

    #[test]
    fn detects_two_cycle() {
        let g = DiGraph::from_edges(2, &[(0, 1), (1, 0)]).unwrap();
        match topological_sort(&g) {
            Err(GraphError::Cycle(nodes)) => assert_eq!(nodes.len(), 2),
            other => panic!("expected cycle, got {other:?}"),
        }
        assert!(!is_acyclic(&g));
    }

    #[test]
    fn reported_cycle_is_a_real_cycle() {
        // Cyclic core 1->2->3->1 plus acyclic appendage 0->1, 3->4.
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 1), (3, 4)]).unwrap();
        let Err(GraphError::Cycle(cyc)) = topological_sort(&g) else {
            panic!("expected cycle");
        };
        assert!(cyc.len() >= 2);
        // Consecutive members (wrapping) must be connected by edges.
        for i in 0..cyc.len() {
            let u = cyc[i];
            let v = cyc[(i + 1) % cyc.len()];
            assert!(g.has_edge(u, v), "cycle witness broken at {u}->{v}");
        }
    }

    #[test]
    fn longest_paths_chain() {
        let g = chain(4);
        let topo = topological_sort(&g).unwrap();
        let to_sink = longest_path_to_sink(&g, &topo);
        assert_eq!(to_sink.as_slice(), &[3, 2, 1, 0]);
        let from_source = longest_path_from_source(&g, &topo);
        assert_eq!(from_source.as_slice(), &[0, 1, 2, 3]);
        assert_eq!(critical_path_length(&g, &topo), 3);
    }

    #[test]
    fn longest_path_takes_max_branch() {
        // 0 -> 1 -> 2 -> 4 and 0 -> 3 -> 4: node 0 must see the long branch.
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]).unwrap();
        let topo = topological_sort(&g).unwrap();
        let d = longest_path_to_sink(&g, &topo);
        assert_eq!(d[NodeId::new(0)], 3);
        assert_eq!(d[NodeId::new(3)], 1);
        assert_eq!(critical_path_length(&g, &topo), 3);
    }

    #[test]
    fn isolated_nodes_have_zero_lengths() {
        let g = DiGraph::from_edges(3, &[]).unwrap();
        let topo = topological_sort(&g).unwrap();
        assert_eq!(critical_path_length(&g, &topo), 0);
        assert_eq!(longest_path_to_sink(&g, &topo).as_slice(), &[0, 0, 0]);
    }
}
