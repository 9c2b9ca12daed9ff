//! Strongly connected components (Tarjan's algorithm, iterative).
//!
//! Used to analyse cyclic inputs before layering: every SCC with more than
//! one vertex (or any would-be self-loop) must be broken by the cycle-removal
//! stage, and the condensation of the SCCs is always a DAG.

use crate::{DiGraph, NodeId};

/// Strongly connected components of `g`, in *reverse topological order* of
/// the condensation (every edge between components points from a later
/// entry to an earlier one). Each component lists its members sorted by id.
pub fn strongly_connected_components(g: &DiGraph) -> Vec<Vec<NodeId>> {
    let n = g.node_count();
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut next_index = 0u32;
    let mut components = Vec::new();

    // Explicit DFS frames: (node, next-neighbour-position).
    let mut frames: Vec<(NodeId, usize)> = Vec::new();
    for start in g.nodes() {
        if index[start.index()] != UNVISITED {
            continue;
        }
        frames.push((start, 0));
        index[start.index()] = next_index;
        low[start.index()] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start.index()] = true;

        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            if let Some(&w) = g.out_neighbors(v).get(*pos) {
                *pos += 1;
                if index[w.index()] == UNVISITED {
                    index[w.index()] = next_index;
                    low[w.index()] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w.index()] = true;
                    frames.push((w, 0));
                } else if on_stack[w.index()] {
                    low[v.index()] = low[v.index()].min(index[w.index()]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent.index()] = low[parent.index()].min(low[v.index()]);
                }
                if low[v.index()] == index[v.index()] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("root is on the stack");
                        on_stack[w.index()] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort();
                    components.push(comp);
                }
            }
        }
    }
    components
}

/// The condensation of `g`: one node per SCC, edges between distinct SCCs
/// deduplicated. Returns the condensed graph and the component id of every
/// original node.
pub fn condensation(g: &DiGraph) -> (DiGraph, Vec<usize>) {
    let sccs = strongly_connected_components(g);
    let mut comp_of = vec![0usize; g.node_count()];
    for (ci, comp) in sccs.iter().enumerate() {
        for &v in comp {
            comp_of[v.index()] = ci;
        }
    }
    let edges: Vec<(u32, u32)> = g
        .edges()
        .map(|(u, v)| (comp_of[u.index()] as u32, comp_of[v.index()] as u32))
        .filter(|(cu, cv)| cu != cv)
        .collect();
    // Duplicate edges between the same pair are silently dropped.
    let cg = DiGraph::from_edges_dedup(sccs.len(), &edges).expect("component ids are in range");
    (cg, comp_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_acyclic;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn dag_has_singleton_components() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 4);
        assert!(sccs.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn cycle_collapses_to_one_component() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0], vec![n(0), n(1), n(2)]);
    }

    #[test]
    fn mixed_graph_components() {
        // 0↔1 cycle feeding a chain 2→3, plus isolated 4.
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 0), (1, 2), (2, 3)]).unwrap();
        let mut sccs = strongly_connected_components(&g);
        sccs.sort_by_key(|c| c[0]);
        assert_eq!(sccs.len(), 4);
        assert_eq!(sccs[0], vec![n(0), n(1)]);
    }

    #[test]
    fn components_in_reverse_topological_order() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 1), (2, 3)]).unwrap();
        let sccs = strongly_connected_components(&g);
        // Build position map and verify edges point from later to earlier.
        let mut pos = [0usize; 4];
        for (ci, comp) in sccs.iter().enumerate() {
            for &v in comp {
                pos[v.index()] = ci;
            }
        }
        for (u, v) in g.edges() {
            assert!(
                pos[u.index()] >= pos[v.index()],
                "edge {u}->{v} breaks reverse topo order of SCCs"
            );
        }
    }

    #[test]
    fn condensation_is_acyclic() {
        let g = DiGraph::from_edges(
            6,
            &[
                (0, 1),
                (1, 0),
                (1, 2),
                (2, 3),
                (3, 2),
                (3, 4),
                (4, 5),
                (5, 4),
            ],
        )
        .unwrap();
        let (cg, comp_of) = condensation(&g);
        assert_eq!(cg.node_count(), 3);
        assert!(is_acyclic(&cg));
        assert_eq!(comp_of[0], comp_of[1]);
        assert_eq!(comp_of[2], comp_of[3]);
        assert_ne!(comp_of[0], comp_of[2]);
    }

    #[test]
    fn empty_graph() {
        assert!(strongly_connected_components(&DiGraph::new()).is_empty());
        let (cg, map) = condensation(&DiGraph::new());
        assert_eq!(cg.node_count(), 0);
        assert!(map.is_empty());
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // Iterative Tarjan must handle paths much longer than the thread
        // stack could take recursively.
        let n_nodes = 100_000;
        let edges: Vec<(u32, u32)> = (0..n_nodes as u32 - 1).map(|i| (i, i + 1)).collect();
        let g = DiGraph::from_edges(n_nodes, &edges).unwrap();
        let sccs = strongly_connected_components(&g);
        assert_eq!(sccs.len(), n_nodes);
    }
}
