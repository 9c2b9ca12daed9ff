//! Graph traversals: BFS, DFS and weak connectivity.

use crate::{DiGraph, NodeId, NodeSet};
use std::collections::VecDeque;

/// Direction along which a traversal follows edges.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Direction {
    /// Follow edges source → target.
    #[default]
    Forward,
    /// Follow edges target → source.
    Backward,
    /// Ignore edge direction (weak connectivity).
    Undirected,
}

fn neighbors<'g>(
    g: &'g DiGraph,
    v: NodeId,
    dir: Direction,
) -> Box<dyn Iterator<Item = NodeId> + 'g> {
    match dir {
        Direction::Forward => Box::new(g.out_neighbors(v).iter().copied()),
        Direction::Backward => Box::new(g.in_neighbors(v).iter().copied()),
        Direction::Undirected => {
            Box::new(g.out_neighbors(v).iter().chain(g.in_neighbors(v)).copied())
        }
    }
}

/// Breadth-first traversal yielding nodes in visit order.
///
/// # Example
/// ```
/// use antlayer_graph::{DiGraph, NodeId, Bfs, Direction};
/// let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3)]).unwrap();
/// let order: Vec<usize> = Bfs::new(&g, NodeId::new(0), Direction::Forward)
///     .map(|n| n.index())
///     .collect();
/// assert_eq!(order, [0, 1, 2, 3]);
/// ```
pub struct Bfs<'g> {
    graph: &'g DiGraph,
    dir: Direction,
    queue: VecDeque<NodeId>,
    seen: NodeSet,
}

impl<'g> Bfs<'g> {
    /// Starts a BFS from `start`.
    pub fn new(graph: &'g DiGraph, start: NodeId, dir: Direction) -> Self {
        let mut seen = NodeSet::with_capacity(graph.node_count());
        seen.insert(start);
        Bfs {
            graph,
            dir,
            queue: VecDeque::from([start]),
            seen,
        }
    }
}

impl Iterator for Bfs<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let v = self.queue.pop_front()?;
        for w in neighbors(self.graph, v, self.dir) {
            if self.seen.insert(w) {
                self.queue.push_back(w);
            }
        }
        Some(v)
    }
}

/// Depth-first (pre-order) traversal yielding nodes in visit order.
pub struct Dfs<'g> {
    graph: &'g DiGraph,
    dir: Direction,
    stack: Vec<NodeId>,
    seen: NodeSet,
}

impl<'g> Dfs<'g> {
    /// Starts a DFS from `start`.
    pub fn new(graph: &'g DiGraph, start: NodeId, dir: Direction) -> Self {
        let mut seen = NodeSet::with_capacity(graph.node_count());
        seen.insert(start);
        Dfs {
            graph,
            dir,
            stack: vec![start],
            seen,
        }
    }
}

impl Iterator for Dfs<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let v = self.stack.pop()?;
        for w in neighbors(self.graph, v, self.dir) {
            if self.seen.insert(w) {
                self.stack.push(w);
            }
        }
        Some(v)
    }
}

/// The set of nodes reachable from `start` (inclusive) in direction `dir`.
pub fn reachable_set(g: &DiGraph, start: NodeId, dir: Direction) -> NodeSet {
    let mut set = NodeSet::with_capacity(g.node_count());
    for v in Bfs::new(g, start, dir) {
        set.insert(v);
    }
    set
}

/// Weakly connected components, each a sorted list of node ids.
///
/// Components are returned ordered by their smallest member.
pub fn weak_components(g: &DiGraph) -> Vec<Vec<NodeId>> {
    let mut assigned = NodeSet::with_capacity(g.node_count());
    let mut comps = Vec::new();
    for v in g.nodes() {
        if assigned.contains(v) {
            continue;
        }
        let mut comp: Vec<NodeId> = Bfs::new(g, v, Direction::Undirected).collect();
        for &u in &comp {
            assigned.insert(u);
        }
        comp.sort();
        comps.push(comp);
    }
    comps
}

/// Whether the graph is weakly connected (the empty graph counts as connected).
pub fn is_weakly_connected(g: &DiGraph) -> bool {
    weak_components(g).len() <= 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn bfs_visits_each_node_once() {
        // Diamond: both paths reach 3, it must appear once.
        let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let order: Vec<_> = Bfs::new(&g, n(0), Direction::Forward).collect();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], n(0));
    }

    #[test]
    fn bfs_backward_follows_in_edges() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let order: Vec<_> = Bfs::new(&g, n(2), Direction::Backward).collect();
        assert_eq!(order, vec![n(2), n(1), n(0)]);
    }

    #[test]
    fn dfs_reaches_everything_reachable() {
        let g = DiGraph::from_edges(5, &[(0, 1), (1, 2), (0, 3)]).unwrap();
        let seen: Vec<_> = Dfs::new(&g, n(0), Direction::Forward).collect();
        assert_eq!(seen.len(), 4); // node 4 is unreachable
        assert!(!seen.contains(&n(4)));
    }

    #[test]
    fn undirected_traversal_crosses_both_ways() {
        let g = DiGraph::from_edges(3, &[(0, 1), (2, 1)]).unwrap();
        let set = reachable_set(&g, n(0), Direction::Undirected);
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn reachable_set_forward_only() {
        let g = DiGraph::from_edges(3, &[(0, 1), (2, 1)]).unwrap();
        let set = reachable_set(&g, n(0), Direction::Forward);
        assert!(set.contains(n(0)) && set.contains(n(1)) && !set.contains(n(2)));
    }

    #[test]
    fn weak_components_partition() {
        let g = DiGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let comps = weak_components(&g);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![n(0), n(1), n(2)]);
        assert_eq!(comps[1], vec![n(3), n(4)]);
        assert_eq!(comps[2], vec![n(5)]);
        assert!(!is_weakly_connected(&g));
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(is_weakly_connected(&DiGraph::new()));
    }

    #[test]
    fn single_node_component() {
        let g = DiGraph::from_edges(1, &[]).unwrap();
        assert!(is_weakly_connected(&g));
        assert_eq!(weak_components(&g).len(), 1);
    }
}
