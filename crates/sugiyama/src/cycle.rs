//! Cycle removal: the first stage of the Sugiyama framework.
//!
//! Layering requires a DAG; arbitrary digraphs are first given an acyclic
//! orientation by *reversing* the edges of a small feedback set. We
//! implement the Eades–Lin–Smyth (GR) greedy heuristic, which guarantees a
//! feedback set of at most `m/2 − n/6` edges. Its vertex sequence costs
//! `O(V + E)` on acyclic input, which sink peeling alone consumes, and
//! `O((V + E) log V)` in general, where the max-δ steps draw from a heap.
//! Writing out the oriented DAG is one bulk [`DiGraph::from_edges_dedup`]
//! in `O(V + E)`; when nothing is reversed, the DAG is a copy of the input.
//!
//! The orientation is pinned, tie-break included: among the vertices with
//! the largest `δ = outdeg − indeg`, the δ step takes the highest index.
//! The layout service re-validates persisted and replicated cache entries
//! against a fresh orientation of their graph, so a change to which edges
//! are reversed would reject layerings that were stored valid.

use antlayer_graph::{Dag, DiGraph, NodeId};
use std::collections::BinaryHeap;

/// Result of the acyclic orientation of a digraph.
#[derive(Clone, Debug)]
pub struct AcyclicOrientation {
    /// The acyclic graph (same node ids; some edges reversed).
    pub dag: Dag,
    /// The edges of the *input* graph that were reversed, as `(u, v)` pairs
    /// of the original direction.
    pub reversed: Vec<(NodeId, NodeId)>,
}

/// Computes a vertex sequence with few "backward" edges via the
/// Eades–Lin–Smyth greedy heuristic, then reverses those backward edges.
///
/// Self-loops are not representable in [`DiGraph`], so every input is
/// orientable. Multi-edges do not exist either (simple digraphs).
pub fn acyclic_orientation(g: &DiGraph) -> AcyclicOrientation {
    orient_along(g, &greedy_sequence(g))
}

/// Keeps the edges of `g` that point forward in `order` and reverses the
/// rest. Both halves of a 2-cycle orient to the same pair; the one listed
/// first in `g` is kept, and a reversal is reported only if it was kept.
fn orient_along(g: &DiGraph, order: &[NodeId]) -> AcyclicOrientation {
    let mut pos = vec![0u32; g.node_count()];
    for (i, v) in order.iter().enumerate() {
        pos[v.index()] = i as u32;
    }
    let forward = |u: NodeId, v: NodeId| pos[u.index()] < pos[v.index()];
    if g.edges().all(|(u, v)| forward(u, v)) {
        return AcyclicOrientation {
            dag: Dag::new(g.clone()).expect("all edges point forward in the sequence"),
            reversed: Vec::new(),
        };
    }
    let oriented: Vec<(u32, u32)> = g
        .edges()
        .map(|(u, v)| if forward(u, v) { (u, v) } else { (v, u) })
        .map(|(u, v)| (u.raw(), v.raw()))
        .collect();
    let out = DiGraph::from_edges_dedup(g.node_count(), &oriented).expect("ends are g's nodes");
    // The DAG's edge list is `oriented` minus its repeats, in order, and
    // kept pairs are distinct: an oriented edge was kept iff it is the next
    // DAG edge not yet matched.
    let reversed = {
        let mut kept = out.edges().peekable();
        g.edges()
            .zip(&oriented)
            .filter(|&(_, &(a, b))| kept.next_if_eq(&(a.into(), b.into())).is_some())
            .map(|(edge, _)| edge)
            .filter(|&(u, v)| !forward(u, v))
            .collect()
    };
    AcyclicOrientation {
        dag: Dag::new(out).expect("all edges point forward in the sequence"),
        reversed,
    }
}

/// The Eades–Lin–Smyth vertex sequence: repeatedly peel sinks to the back
/// and sources to the front; when neither exists, move the vertex with the
/// largest `outdeg − indeg` to the front, the highest index among ties.
///
/// No step scans the remaining vertices. Sinks and sources wait on
/// worklists that each removal tops up, and the max-δ vertex comes from a
/// heap built at the first δ step, which acyclic input never reaches.
/// Which sink or source of one round leaves first does not matter: the
/// set each round peels is fixed, and so is every edge's direction. Only
/// the δ pick decides which edges are reversed.
fn greedy_sequence(g: &DiGraph) -> Vec<NodeId> {
    let mut peel = Peeling::new(g);
    let mut front: Vec<NodeId> = Vec::new();
    let mut back: Vec<NodeId> = Vec::new();
    while peel.remaining > 0 {
        while let Some(v) = pop_unremoved(&mut peel.sinks, &peel.removed) {
            back.push(v);
            peel.remove(v);
        }
        while let Some(v) = pop_unremoved(&mut peel.sources, &peel.removed) {
            front.push(v);
            peel.remove(v);
        }
        if peel.remaining == 0 {
            break;
        }
        // All remaining vertices are on cycles: take max outdeg − indeg.
        let v = peel.max_delta();
        front.push(v);
        peel.remove(v);
    }
    back.reverse();
    front.extend(back);
    front
}

/// The remaining subgraph of a [`greedy_sequence`] run.
struct Peeling<'g> {
    g: &'g DiGraph,
    /// Out- and in-degrees counting remaining neighbours only.
    out_deg: Vec<isize>,
    in_deg: Vec<isize>,
    removed: Vec<bool>,
    remaining: usize,
    /// Every vertex whose out-degree (in-degree) reached zero. Degrees only
    /// drop, so an entry stays a sink (source) until it is removed.
    sinks: Vec<NodeId>,
    sources: Vec<NodeId>,
    /// `(δ, v)` entries, one pushed whenever `v`'s δ changes. An entry is
    /// stale once `v` is removed or its δ moved on; stale ones are skipped
    /// when popped.
    deltas: Option<BinaryHeap<(isize, NodeId)>>,
}

impl<'g> Peeling<'g> {
    fn new(g: &'g DiGraph) -> Self {
        let out_deg: Vec<isize> = g.nodes().map(|v| g.out_degree(v) as isize).collect();
        let in_deg: Vec<isize> = g.nodes().map(|v| g.in_degree(v) as isize).collect();
        Peeling {
            g,
            sinks: g.nodes().filter(|v| out_deg[v.index()] == 0).collect(),
            sources: g.nodes().filter(|v| in_deg[v.index()] == 0).collect(),
            out_deg,
            in_deg,
            removed: vec![false; g.node_count()],
            remaining: g.node_count(),
            deltas: None,
        }
    }

    fn delta(&self, v: NodeId) -> isize {
        self.out_deg[v.index()] - self.in_deg[v.index()]
    }

    /// The remaining vertex with the largest `(δ, index)`.
    fn max_delta(&mut self) -> NodeId {
        let mut heap = self.deltas.take().unwrap_or_else(|| {
            self.g
                .nodes()
                .filter(|v| !self.removed[v.index()])
                .map(|v| (self.delta(v), v))
                .collect()
        });
        let v = loop {
            let (d, v) = heap.pop().expect("every remaining vertex has a live entry");
            if !self.removed[v.index()] && d == self.delta(v) {
                break v;
            }
        };
        self.deltas = Some(heap);
        v
    }

    fn remove(&mut self, v: NodeId) {
        self.removed[v.index()] = true;
        self.remaining -= 1;
        let g = self.g;
        for &w in g.out_neighbors(v) {
            self.in_deg[w.index()] -= 1;
            if !self.removed[w.index()] {
                if self.in_deg[w.index()] == 0 {
                    self.sources.push(w);
                }
                self.requeue(w);
            }
        }
        for &u in g.in_neighbors(v) {
            self.out_deg[u.index()] -= 1;
            if !self.removed[u.index()] {
                if self.out_deg[u.index()] == 0 {
                    self.sinks.push(u);
                }
                self.requeue(u);
            }
        }
    }

    /// Records `v`'s new δ, once the heap exists.
    fn requeue(&mut self, v: NodeId) {
        let d = self.delta(v);
        if let Some(heap) = &mut self.deltas {
            heap.push((d, v));
        }
    }
}

/// Pops worklist entries until one that is still in the graph.
fn pop_unremoved(list: &mut Vec<NodeId>, removed: &[bool]) -> Option<NodeId> {
    std::iter::from_fn(|| list.pop()).find(|v| !removed[v.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use antlayer_graph::is_acyclic;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// Literal transcription of the Eades–Lin–Smyth sequence: every sink,
    /// source and max-δ pick rescans all vertices, so it is `O(V²)`.
    ///
    /// Kept as the oracle for [`greedy_sequence`]: a seeded test checks
    /// that the two orient thousands of random digraphs alike.
    fn greedy_sequence_rescanning(g: &DiGraph) -> Vec<NodeId> {
        let n = g.node_count();
        let mut out_deg: Vec<isize> = g.nodes().map(|v| g.out_degree(v) as isize).collect();
        let mut in_deg: Vec<isize> = g.nodes().map(|v| g.in_degree(v) as isize).collect();
        let mut removed = vec![false; n];
        let mut front: Vec<NodeId> = Vec::new();
        let mut back: Vec<NodeId> = Vec::new();
        let mut remaining = n;

        let remove = |v: NodeId,
                      out_deg: &mut Vec<isize>,
                      in_deg: &mut Vec<isize>,
                      removed: &mut Vec<bool>| {
            removed[v.index()] = true;
            for &w in g.out_neighbors(v) {
                in_deg[w.index()] -= 1;
            }
            for &u in g.in_neighbors(v) {
                out_deg[u.index()] -= 1;
            }
        };

        while remaining > 0 {
            // Peel sinks.
            loop {
                let sink = g
                    .nodes()
                    .find(|&v| !removed[v.index()] && out_deg[v.index()] == 0);
                match sink {
                    Some(v) => {
                        back.push(v);
                        remove(v, &mut out_deg, &mut in_deg, &mut removed);
                        remaining -= 1;
                    }
                    None => break,
                }
            }
            // Peel sources.
            loop {
                let source = g
                    .nodes()
                    .find(|&v| !removed[v.index()] && in_deg[v.index()] == 0);
                match source {
                    Some(v) => {
                        front.push(v);
                        remove(v, &mut out_deg, &mut in_deg, &mut removed);
                        remaining -= 1;
                    }
                    None => break,
                }
            }
            if remaining == 0 {
                break;
            }
            // All remaining vertices are on cycles: take max outdeg − indeg.
            let v = g
                .nodes()
                .filter(|&v| !removed[v.index()])
                .max_by_key(|&v| out_deg[v.index()] - in_deg[v.index()])
                .expect("remaining > 0");
            front.push(v);
            remove(v, &mut out_deg, &mut in_deg, &mut removed);
            remaining -= 1;
        }
        back.reverse();
        front.extend(back);
        front
    }

    /// `orient_along` as it was written against a growable graph: one
    /// `add_edge` per input edge, forward or reversed, whose duplicate
    /// check dropped the second half of a 2-cycle; a reversal counted only
    /// when its `add_edge` succeeded. Returns the DAG's edge list, its
    /// in-lists and the reversed edges.
    ///
    /// Kept as the oracle for the bulk [`orient_along`].
    #[allow(clippy::type_complexity)]
    fn orient_along_incrementally(
        g: &DiGraph,
        order: &[NodeId],
    ) -> (
        Vec<(NodeId, NodeId)>,
        Vec<Vec<NodeId>>,
        Vec<(NodeId, NodeId)>,
    ) {
        let mut pos = vec![0usize; g.node_count()];
        for (i, v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        let mut out_adj: Vec<Vec<NodeId>> = vec![Vec::new(); g.node_count()];
        let mut in_adj: Vec<Vec<NodeId>> = vec![Vec::new(); g.node_count()];
        let mut edges = Vec::new();
        let mut add_edge = |u: NodeId, v: NodeId| {
            if out_adj[u.index()].contains(&v) {
                return false;
            }
            out_adj[u.index()].push(v);
            in_adj[v.index()].push(u);
            edges.push((u, v));
            true
        };
        let mut reversed = Vec::new();
        for (u, v) in g.edges() {
            if pos[u.index()] < pos[v.index()] {
                add_edge(u, v);
            } else if add_edge(v, u) {
                reversed.push((u, v));
            }
        }
        (edges, in_adj, reversed)
    }

    #[test]
    fn bulk_orientation_matches_incremental_transcription() {
        let mut rng = StdRng::seed_from_u64(1406);
        let (mut dropped, mut reversing) = (0, 0);
        for round in 0..2000 {
            let n = rng.gen_range(1..=30usize);
            // Dense in 2-cycles: most drawn pairs go in both directions,
            // in either order.
            let mut edges = Vec::new();
            for _ in 0..rng.gen_range(0..=2 * n) {
                let (u, v) = (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32);
                if u == v {
                    continue;
                }
                edges.push((u, v));
                if rng.gen_bool(0.7) {
                    let at = rng.gen_range(0..=edges.len());
                    edges.insert(at, (v, u));
                }
            }
            let g = DiGraph::from_edges_dedup(n, &edges).unwrap();
            // The greedy sequence, and a random order that reverses more.
            let mut shuffled: Vec<NodeId> = g.nodes().collect();
            shuffled.shuffle(&mut rng);
            for order in [greedy_sequence(&g), shuffled] {
                let new = orient_along(&g, &order);
                let (old_edges, old_in, old_reversed) = orient_along_incrementally(&g, &order);
                let context = format!("round {round}: {g:?} order {order:?}");
                assert_eq!(new.dag.edges().collect::<Vec<_>>(), old_edges, "{context}");
                for v in g.nodes() {
                    assert_eq!(new.dag.in_neighbors(v), &old_in[v.index()][..], "{context}");
                }
                assert_eq!(new.reversed, old_reversed, "{context}");
                dropped += usize::from(new.dag.edge_count() < g.edge_count());
                reversing += usize::from(!new.reversed.is_empty());
            }
        }
        assert!(
            dropped >= 500 && reversing >= 1000,
            "dropped {dropped}, reversing {reversing}"
        );
    }

    #[test]
    fn dag_input_reverses_nothing() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (0, 3), (3, 2)]).unwrap();
        let o = acyclic_orientation(&g);
        assert!(o.reversed.is_empty());
        assert_eq!(o.dag.edge_count(), 4);
    }

    #[test]
    fn two_cycle_reverses_one_edge() {
        let g = DiGraph::from_edges(2, &[(0, 1), (1, 0)]).unwrap();
        let o = acyclic_orientation(&g);
        // One direction survives; the duplicate reverse is dropped.
        assert!(o.dag.edge_count() >= 1);
        assert!(is_acyclic(&o.dag));
    }

    #[test]
    fn triangle_cycle_is_broken() {
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let o = acyclic_orientation(&g);
        assert!(is_acyclic(&o.dag));
        assert_eq!(o.dag.edge_count(), 3);
        assert_eq!(o.reversed.len(), 1);
    }

    #[test]
    fn random_digraphs_become_acyclic_with_bounded_reversals() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..20 {
            let n = rng.gen_range(5..40);
            let mut edges = Vec::new();
            for _ in 0..(3 * n) {
                let u = rng.gen_range(0..n) as u32;
                let v = rng.gen_range(0..n) as u32;
                if u != v {
                    edges.push((u, v));
                }
            }
            let g = DiGraph::from_edges_dedup(n, &edges).unwrap();
            let m = g.edge_count() as f64;
            let o = acyclic_orientation(&g);
            assert!(is_acyclic(&o.dag));
            // ELS guarantee: |reversed| <= m/2 - n/6 (we allow the exact bound).
            assert!(
                (o.reversed.len() as f64) <= m / 2.0,
                "reversed {} of {} edges",
                o.reversed.len(),
                m
            );
            // Node ids are preserved.
            assert_eq!(o.dag.node_count(), n);
        }
    }

    #[test]
    fn worklist_sequence_orients_like_the_rescanning_transcription() {
        let mut rng = StdRng::seed_from_u64(1705);
        let (mut cyclic, mut acyclic) = (0, 0);
        for round in 0..3000 {
            let n = rng.gen_range(1..=60);
            // Even rounds draw a DAG: every edge climbs a shuffled rank, so
            // sinks and sources sit at arbitrary indices.
            let mut rank: Vec<u32> = (0..n as u32).collect();
            rank.shuffle(&mut rng);
            let mut edges = Vec::new();
            for _ in 0..rng.gen_range(0..=3 * n) {
                let (mut u, mut v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if round % 2 == 0 && u > v {
                    std::mem::swap(&mut u, &mut v);
                }
                if u != v {
                    edges.push((rank[u], rank[v]));
                }
            }
            let g = DiGraph::from_edges_dedup(n, &edges).unwrap();
            if is_acyclic(&g) {
                acyclic += 1;
            } else {
                cyclic += 1;
            }

            let fast = acyclic_orientation(&g);
            let slow = orient_along(&g, &greedy_sequence_rescanning(&g));
            assert_eq!(
                fast.dag.edges().collect::<Vec<_>>(),
                slow.dag.edges().collect::<Vec<_>>(),
                "round {round}: DAG edge lists differ"
            );
            for v in g.nodes() {
                assert_eq!(
                    fast.dag.in_neighbors(v),
                    slow.dag.in_neighbors(v),
                    "round {round}: in-neighbours of {v} differ"
                );
            }
            assert_eq!(
                fast.reversed, slow.reversed,
                "round {round}: reversed sets differ"
            );
        }
        assert!(
            cyclic >= 1000 && acyclic >= 1000,
            "cyclic {cyclic}, acyclic {acyclic}"
        );
    }

    #[test]
    fn reversed_edges_existed_in_input() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]).unwrap();
        let o = acyclic_orientation(&g);
        for (u, v) in &o.reversed {
            assert!(g.has_edge(*u, *v), "reversed edge not from input");
            assert!(o.dag.has_edge(*v, *u), "reverse not present in output");
        }
    }

    #[test]
    fn empty_graph() {
        let o = acyclic_orientation(&DiGraph::new());
        assert_eq!(o.dag.node_count(), 0);
        assert!(o.reversed.is_empty());
    }
}
