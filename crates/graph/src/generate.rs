//! Seeded random DAG generators.
//!
//! All generators take an explicit `&mut impl Rng` so experiments are fully
//! reproducible from a seed. Every generator returns a validated [`Dag`].

use crate::{Dag, DiGraph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// Random DAG in the `G(n, p)` style: nodes are placed in a random linear
/// order and each forward pair becomes an edge independently with
/// probability `p`.
///
/// The random order (rather than id order) removes the correlation between
/// node id and topological depth that would otherwise leak into algorithms
/// that iterate nodes in id order.
pub fn gnp_dag(n: usize, p: f64, rng: &mut impl Rng) -> Dag {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut edges = Vec::with_capacity((p * (n * n) as f64 / 2.0) as usize);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                edges.push((NodeId(order[i]), NodeId(order[j])));
            }
        }
    }
    // Forward pairs of an order: simple and acyclic.
    Dag::new(DiGraph::from_valid_edges(n, edges)).expect("construction is acyclic by design")
}

/// Random DAG with exactly `m` edges (or the maximum possible if `m` exceeds
/// `n·(n−1)/2`), sampled uniformly over forward pairs of a random order.
pub fn random_dag_with_edges(n: usize, m: usize, rng: &mut impl Rng) -> Dag {
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let max_m = n.saturating_mul(n.saturating_sub(1)) / 2;
    let m = m.min(max_m);
    let mut edges = Vec::with_capacity(m);
    let mut present: HashSet<(u32, u32)> = HashSet::with_capacity(m);
    // Rejection sampling is fast while m is well below max_m (our suites are
    // sparse); fall back to exhaustive choice when the graph gets dense.
    let mut attempts = 0usize;
    while edges.len() < m {
        attempts += 1;
        if attempts > 20 * m + 100 {
            // Dense regime: enumerate the remaining free pairs and sample.
            let mut free: Vec<(u32, u32)> = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    if !present.contains(&(order[i], order[j])) {
                        free.push((order[i], order[j]));
                    }
                }
            }
            free.shuffle(rng);
            let missing = m - edges.len();
            edges.extend(
                free.iter()
                    .take(missing)
                    .map(|&(u, v)| (NodeId(u), NodeId(v))),
            );
            break;
        }
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if i == j {
            continue;
        }
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        if present.insert((order[i], order[j])) {
            edges.push((NodeId(order[i]), NodeId(order[j])));
        }
    }
    Dag::new(DiGraph::from_valid_edges(n, edges)).expect("construction is acyclic by design")
}

/// Random "layered" DAG: `n` nodes are spread over `n_layers` ranks and each
/// node (except those on the first rank) receives at least one incoming edge
/// from a strictly higher rank, plus extra edges with probability `p_extra`
/// per higher-ranked candidate within a window of `span_window` ranks.
///
/// This mimics the shape of real hierarchical graphs (call graphs, schedules)
/// where most edges connect nearby ranks.
pub fn layered_dag(
    n: usize,
    n_layers: usize,
    p_extra: f64,
    span_window: usize,
    rng: &mut impl Rng,
) -> Dag {
    assert!(n_layers >= 1, "need at least one layer");
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n * 2);
    // rank[v] in 0..n_layers; rank 0 is the "top" (sources live there).
    let rank: Vec<usize> = (0..n)
        .map(|i| {
            if i < n_layers {
                i // guarantee no rank is empty
            } else {
                rng.gen_range(0..n_layers)
            }
        })
        .collect();
    let mut by_rank: Vec<Vec<u32>> = vec![Vec::new(); n_layers];
    for (v, &r) in rank.iter().enumerate() {
        by_rank[r].push(v as u32);
    }
    for (v, &r) in rank.iter().enumerate() {
        if r == 0 {
            continue;
        }
        // Mandatory parent from some higher rank within the window.
        let lo = r.saturating_sub(span_window.max(1));
        let parent_rank = rng.gen_range(lo..r);
        if let Some(&u) = by_rank[parent_rank].choose(rng) {
            edges.push((u, v as u32));
        }
        // Optional extras; one may repeat the mandatory parent.
        for higher in &by_rank[lo..r] {
            for &u in higher {
                if rng.gen_bool(p_extra) {
                    edges.push((u, v as u32));
                }
            }
        }
    }
    let g = DiGraph::from_edges_dedup(n, &edges).expect("ends are distinct nodes");
    Dag::new(g).expect("edges only go from higher to lower rank")
}

/// Random rooted out-tree: node `i > 0` gets exactly one parent drawn among
/// nodes `0..i`. Node 0 is the root.
pub fn random_tree(n: usize, rng: &mut impl Rng) -> Dag {
    let edges = (1..n)
        .map(|v| (NodeId(rng.gen_range(0..v) as u32), NodeId(v as u32)))
        .collect();
    // Parent ids are smaller: simple and acyclic.
    Dag::new(DiGraph::from_valid_edges(n, edges)).expect("trees are acyclic")
}

/// Random two-terminal series-parallel DAG with roughly `n` nodes.
///
/// Starts from a single edge and repeatedly applies series or parallel
/// expansions, each through a fresh node `w`. Series expansion subdivides
/// an edge `u → v` into `u → w → v`; parallel expansion adds `u → w → v`
/// alongside it (keeping the graph simple).
pub fn series_parallel_dag(n: usize, p_series: f64, rng: &mut impl Rng) -> Dag {
    assert!((0.0..=1.0).contains(&p_series));
    let (s, t) = (NodeId(0), NodeId(1));
    let mut nodes = 2;
    let mut edges: Vec<(NodeId, NodeId)> = vec![(s, t)];
    while nodes < n {
        let idx = rng.gen_range(0..edges.len());
        let (u, v) = edges[idx];
        let w = NodeId::new(nodes);
        nodes += 1;
        if rng.gen_bool(p_series) {
            edges.swap_remove(idx);
        }
        edges.push((u, w));
        edges.push((w, v));
    }
    // Every edge but the first touches the node it was created with.
    Dag::new(DiGraph::from_valid_edges(nodes, edges))
        .expect("series-parallel construction is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::incremental::Incremental;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// The generators as they were written against a growable graph: one
    /// `add_edge` per accepted pair, whose result doubled as the membership
    /// test. Kept as the oracle that the edge-list rewrites draw the same
    /// graphs from the same seeds.
    mod incremental_transcriptions {
        use super::*;

        fn id(i: usize) -> NodeId {
            NodeId::new(i)
        }

        pub(super) fn gnp_dag(n: usize, p: f64, rng: &mut impl Rng) -> Incremental {
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.shuffle(rng);
            let mut g = Incremental::new(n);
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(p) {
                        g.add_edge(NodeId(order[i]), NodeId(order[j])).unwrap();
                    }
                }
            }
            g
        }

        pub(super) fn random_dag_with_edges(n: usize, m: usize, rng: &mut impl Rng) -> Incremental {
            let mut order: Vec<u32> = (0..n as u32).collect();
            order.shuffle(rng);
            let m = m.min(n.saturating_mul(n.saturating_sub(1)) / 2);
            let mut g = Incremental::new(n);
            let (mut added, mut attempts) = (0usize, 0usize);
            while added < m {
                attempts += 1;
                if attempts > 20 * m + 100 {
                    let mut free: Vec<(u32, u32)> = Vec::new();
                    for i in 0..n {
                        for j in (i + 1)..n {
                            if !g.out_adj[order[i] as usize].contains(&NodeId(order[j])) {
                                free.push((order[i], order[j]));
                            }
                        }
                    }
                    free.shuffle(rng);
                    for &(u, v) in free.iter().take(m - added) {
                        g.add_edge(NodeId(u), NodeId(v)).unwrap();
                    }
                    break;
                }
                let i = rng.gen_range(0..n);
                let j = rng.gen_range(0..n);
                if i == j {
                    continue;
                }
                let (i, j) = if i < j { (i, j) } else { (j, i) };
                if g.add_edge(NodeId(order[i]), NodeId(order[j])).is_ok() {
                    added += 1;
                }
            }
            g
        }

        pub(super) fn layered_dag(
            n: usize,
            n_layers: usize,
            p_extra: f64,
            span_window: usize,
            rng: &mut impl Rng,
        ) -> Incremental {
            let mut g = Incremental::new(n);
            let rank: Vec<usize> = (0..n)
                .map(|i| {
                    if i < n_layers {
                        i
                    } else {
                        rng.gen_range(0..n_layers)
                    }
                })
                .collect();
            let mut by_rank: Vec<Vec<u32>> = vec![Vec::new(); n_layers];
            for (v, &r) in rank.iter().enumerate() {
                by_rank[r].push(v as u32);
            }
            for (v, &r) in rank.iter().enumerate() {
                if r == 0 {
                    continue;
                }
                let lo = r.saturating_sub(span_window.max(1));
                let parent_rank = rng.gen_range(lo..r);
                if let Some(&u) = by_rank[parent_rank].choose(rng) {
                    let _ = g.add_edge(NodeId(u), id(v));
                }
                for higher in &by_rank[lo..r] {
                    for &u in higher {
                        if rng.gen_bool(p_extra) {
                            let _ = g.add_edge(NodeId(u), id(v));
                        }
                    }
                }
            }
            g
        }

        pub(super) fn random_tree(n: usize, rng: &mut impl Rng) -> Incremental {
            let mut g = Incremental::new(n);
            for v in 1..n {
                let parent = rng.gen_range(0..v);
                g.add_edge(id(parent), id(v)).unwrap();
            }
            g
        }

        pub(super) fn series_parallel_dag(
            n: usize,
            p_series: f64,
            rng: &mut impl Rng,
        ) -> Incremental {
            let mut nodes = 2;
            let mut edges: Vec<(NodeId, NodeId)> = vec![(id(0), id(1))];
            while nodes < n {
                let idx = rng.gen_range(0..edges.len());
                let (u, v) = edges[idx];
                let w = id(nodes);
                nodes += 1;
                if rng.gen_bool(p_series) {
                    edges.swap_remove(idx);
                }
                edges.push((u, w));
                edges.push((w, v));
            }
            let mut clean = Incremental::new(nodes);
            for &(u, v) in &edges {
                let _ = clean.add_edge(u, v);
            }
            clean
        }
    }

    #[test]
    fn generators_draw_what_the_incremental_transcriptions_draw() {
        use incremental_transcriptions as old;
        for seed in 0..60u64 {
            let n = [0, 1, 2, 7, 30, 120][seed as usize % 6];
            let context = format!("seed {seed}, n {n}");
            let check = |new: Dag, old: Incremental, what: &str| {
                old.assert_same_as(&new, &format!("{what}: {context}"));
                let old_order = crate::topological_sort(&DiGraph::from_valid_edges(
                    old.out_adj.len(),
                    old.edges,
                ));
                assert_eq!(
                    new.topo_order(),
                    &old_order.unwrap()[..],
                    "{what}: {context}"
                );
            };
            let p = [0.0, 0.1, 0.5, 1.0][seed as usize % 4];
            check(
                gnp_dag(n, p, &mut rng(seed)),
                old::gnp_dag(n, p, &mut rng(seed)),
                "gnp",
            );
            for m in [n, 2 * n, n * n / 2] {
                check(
                    random_dag_with_edges(n, m, &mut rng(seed)),
                    old::random_dag_with_edges(n, m, &mut rng(seed)),
                    "random_dag_with_edges",
                );
            }
            let layers = (n / 4).max(1);
            check(
                layered_dag(n, layers, 0.3, 2, &mut rng(seed)),
                old::layered_dag(n, layers, 0.3, 2, &mut rng(seed)),
                "layered_dag",
            );
            check(
                random_tree(n, &mut rng(seed)),
                old::random_tree(n, &mut rng(seed)),
                "tree",
            );
            check(
                series_parallel_dag(n, 0.5, &mut rng(seed)),
                old::series_parallel_dag(n, 0.5, &mut rng(seed)),
                "series_parallel",
            );
        }
    }

    #[test]
    fn gnp_produces_requested_nodes() {
        let dag = gnp_dag(30, 0.1, &mut rng(1));
        assert_eq!(dag.node_count(), 30);
    }

    #[test]
    fn gnp_extremes() {
        let empty = gnp_dag(10, 0.0, &mut rng(2));
        assert_eq!(empty.edge_count(), 0);
        let full = gnp_dag(10, 1.0, &mut rng(3));
        assert_eq!(full.edge_count(), 45); // complete DAG: n(n-1)/2
    }

    #[test]
    fn gnp_is_deterministic_per_seed() {
        let a = gnp_dag(20, 0.2, &mut rng(7));
        let b = gnp_dag(20, 0.2, &mut rng(7));
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn exact_edge_count() {
        let dag = random_dag_with_edges(25, 40, &mut rng(4));
        assert_eq!(dag.node_count(), 25);
        assert_eq!(dag.edge_count(), 40);
    }

    #[test]
    fn edge_count_clamped_to_max() {
        let dag = random_dag_with_edges(5, 1000, &mut rng(5));
        assert_eq!(dag.edge_count(), 10);
    }

    #[test]
    fn dense_request_falls_back_gracefully() {
        let dag = random_dag_with_edges(12, 60, &mut rng(6));
        assert_eq!(dag.edge_count(), 60);
    }

    #[test]
    fn layered_dag_every_nonroot_rank_connected() {
        let dag = layered_dag(40, 6, 0.05, 2, &mut rng(8));
        assert_eq!(dag.node_count(), 40);
        // At least n - n_layers mandatory edges (every node off rank 0 gets a parent,
        // modulo duplicate-suppression which is rare).
        assert!(dag.edge_count() >= 25, "edges = {}", dag.edge_count());
    }

    #[test]
    fn random_tree_shape() {
        let dag = random_tree(50, &mut rng(9));
        assert_eq!(dag.edge_count(), 49);
        // Exactly one source (the root).
        assert_eq!(dag.sources().len(), 1);
        for v in dag.nodes().skip(1) {
            assert_eq!(dag.in_degree(v), 1);
        }
    }

    #[test]
    fn series_parallel_two_terminals() {
        let dag = series_parallel_dag(30, 0.5, &mut rng(10));
        assert!(dag.node_count() >= 30);
        // s and t remain the unique source / sink.
        assert_eq!(dag.sources(), vec![NodeId::new(0)]);
        assert_eq!(dag.sinks(), vec![NodeId::new(1)]);
    }

    #[test]
    fn tiny_inputs() {
        assert_eq!(random_tree(1, &mut rng(11)).node_count(), 1);
        assert_eq!(gnp_dag(0, 0.5, &mut rng(12)).node_count(), 0);
        assert_eq!(layered_dag(1, 1, 0.1, 1, &mut rng(13)).node_count(), 1);
    }
}
