//! Property-based tests for the graph substrate.

use antlayer_graph::{
    condensation, generate, io, is_acyclic, strongly_connected_components, topological_sort, Dag,
    DiGraph, GraphDelta, GraphStats, NodeId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: an arbitrary simple digraph with up to `max_n` nodes.
fn arb_digraph(max_n: usize) -> impl Strategy<Value = DiGraph> {
    (1..=max_n).prop_flat_map(|n| {
        let pair = (0..n as u32, 0..n as u32);
        proptest::collection::vec(pair, 0..(3 * n)).prop_map(move |mut pairs| {
            pairs.retain(|(u, v)| u != v);
            DiGraph::from_edges_dedup(n, &pairs).unwrap()
        })
    })
}

/// Strategy: a random DAG built from a seeded generator.
fn arb_dag() -> impl Strategy<Value = Dag> {
    (1usize..60, 0u64..1_000_000, 0u8..4).prop_map(|(n, seed, kind)| {
        let mut rng = StdRng::seed_from_u64(seed);
        match kind {
            0 => generate::gnp_dag(n, 0.15, &mut rng),
            1 => generate::random_dag_with_edges(n, n * 3 / 2, &mut rng),
            2 => generate::random_tree(n, &mut rng),
            _ => generate::layered_dag(n, (n / 4).max(1), 0.05, 2, &mut rng),
        }
    })
}

/// Strategy: a digraph plus a delta that provably applies to it (up to
/// three random removals of existing edges, up to three additions of
/// fresh pairs).
fn arb_graph_and_delta() -> impl Strategy<Value = (DiGraph, GraphDelta)> {
    (arb_digraph(30), 0u64..1_000_000).prop_map(|(g, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<(u32, u32)> = g
            .edges()
            .map(|(u, v)| (u.index() as u32, v.index() as u32))
            .collect();
        let mut removed = Vec::new();
        for _ in 0..rng.gen_range(0..=3usize) {
            if edges.is_empty() {
                break;
            }
            let e = edges[rng.gen_range(0..edges.len())];
            if !removed.contains(&e) {
                removed.push(e);
            }
        }
        let n = g.node_count() as u32;
        let mut added = Vec::new();
        for _ in 0..rng.gen_range(0..=3usize) {
            if n < 2 {
                break;
            }
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            let fresh =
                u != v && !g.has_edge(NodeId::from(u), NodeId::from(v)) && !added.contains(&(u, v));
            if fresh {
                added.push((u, v));
            }
        }
        (g, GraphDelta::new(added, removed))
    })
}

proptest! {
    #[test]
    fn delta_then_inverse_restores_the_digraph((g, d) in arb_graph_and_delta()) {
        let edited = d.apply(&g).unwrap();
        prop_assert_eq!(
            edited.edge_count(),
            g.edge_count() + d.added.len() - d.removed.len()
        );
        let restored = d.inverse().apply(&edited).unwrap();
        prop_assert_eq!(restored.node_count(), g.node_count());
        prop_assert_eq!(restored.edge_count(), g.edge_count());
        for (u, v) in g.edges() {
            prop_assert!(restored.has_edge(u, v), "lost edge {}->{}", u, v);
        }
        for (u, v) in restored.edges() {
            prop_assert!(g.has_edge(u, v), "invented edge {}->{}", u, v);
        }
    }

    #[test]
    fn composed_delta_equals_sequential_application(
        (g, d1) in arb_graph_and_delta(),
        seed in 0u64..1_000_000,
    ) {
        // Build a second delta that provably applies to the *edited*
        // graph, then check compose's contract: one application of the
        // folded delta lands on the same edge set as the two steps.
        let mid = d1.apply(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<(u32, u32)> = mid
            .edges()
            .map(|(u, v)| (u.index() as u32, v.index() as u32))
            .collect();
        let mut removed = Vec::new();
        for _ in 0..rng.gen_range(0..=3usize) {
            if edges.is_empty() {
                break;
            }
            let e = edges[rng.gen_range(0..edges.len())];
            if !removed.contains(&e) {
                removed.push(e);
            }
        }
        let n = mid.node_count() as u32;
        let mut added = Vec::new();
        for _ in 0..rng.gen_range(0..=3usize) {
            if n < 2 {
                break;
            }
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            let fresh = u != v
                && !mid.has_edge(NodeId::from(u), NodeId::from(v))
                && !added.contains(&(u, v));
            if fresh {
                added.push((u, v));
            }
        }
        let d2 = GraphDelta::new(added, removed);
        let stepped = d2.apply(&mid).unwrap();
        let folded = d1.compose(&d2).apply(&g).unwrap();
        prop_assert_eq!(folded.node_count(), stepped.node_count());
        prop_assert_eq!(folded.edge_count(), stepped.edge_count());
        for (u, v) in stepped.edges() {
            prop_assert!(folded.has_edge(u, v), "compose lost edge {}->{}", u, v);
        }
    }

    #[test]
    fn delta_application_is_all_or_nothing(g in arb_digraph(20)) {
        // A delta whose *last* addition is invalid must leave no trace:
        // apply returns Err and the base graph is unchanged (apply is
        // pure, so "unchanged" means the original still validates).
        let bad = GraphDelta::new(vec![(0, 0)], vec![]); // self-loop
        let before = g.edge_count();
        prop_assert!(bad.apply(&g).is_err());
        prop_assert_eq!(g.edge_count(), before);
    }

    #[test]
    fn topo_sort_is_valid_when_it_succeeds(g in arb_digraph(40)) {
        if let Ok(order) = topological_sort(&g) {
            prop_assert_eq!(order.len(), g.node_count());
            let mut pos = vec![usize::MAX; g.node_count()];
            for (i, v) in order.iter().enumerate() {
                pos[v.index()] = i;
            }
            for (u, v) in g.edges() {
                prop_assert!(pos[u.index()] < pos[v.index()]);
            }
        }
    }

    #[test]
    fn cycle_witness_is_a_cycle(g in arb_digraph(30)) {
        if let Err(antlayer_graph::GraphError::Cycle(cyc)) = topological_sort(&g) {
            prop_assert!(cyc.len() >= 2);
            for i in 0..cyc.len() {
                let u = cyc[i];
                let v = cyc[(i + 1) % cyc.len()];
                prop_assert!(g.has_edge(u, v), "broken witness at {}->{}", u, v);
            }
        }
    }

    #[test]
    fn generators_produce_acyclic_graphs(dag in arb_dag()) {
        prop_assert!(is_acyclic(&dag));
    }

    #[test]
    fn reversing_twice_is_identity(g in arb_digraph(30)) {
        let rr = g.reversed().reversed();
        prop_assert_eq!(g.node_count(), rr.node_count());
        prop_assert_eq!(g.edge_count(), rr.edge_count());
        for (u, v) in g.edges() {
            prop_assert!(rr.has_edge(u, v));
        }
    }

    #[test]
    fn degree_sums_match_edge_count(g in arb_digraph(40)) {
        let out_sum: usize = g.nodes().map(|v| g.out_degree(v)).sum();
        let in_sum: usize = g.nodes().map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_sum, g.edge_count());
        prop_assert_eq!(in_sum, g.edge_count());
    }

    #[test]
    fn dot_roundtrip_preserves_structure(dag in arb_dag()) {
        let dot = io::dot::write_dot_ids(&dag);
        let parsed = io::dot::parse_dot(&dot).unwrap();
        prop_assert_eq!(parsed.graph.node_count(), dag.node_count());
        prop_assert_eq!(parsed.graph.edge_count(), dag.edge_count());
        for (u, v) in dag.edges() {
            let pu = parsed.node_by_name(&u.index().to_string()).unwrap();
            let pv = parsed.node_by_name(&v.index().to_string()).unwrap();
            prop_assert!(parsed.graph.has_edge(pu, pv));
        }
    }

    #[test]
    fn gml_roundtrip_preserves_structure(dag in arb_dag()) {
        let gml = io::gml::write_gml(&dag, |v| format!("v{}", v.index()));
        let parsed = io::gml::parse_gml(&gml).unwrap();
        prop_assert_eq!(parsed.graph.node_count(), dag.node_count());
        prop_assert_eq!(parsed.graph.edge_count(), dag.edge_count());
        for (u, v) in dag.edges() {
            prop_assert!(parsed.graph.has_edge(u, v));
        }
    }

    #[test]
    fn transitive_reduction_preserves_reachability(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dag = generate::gnp_dag(15, 0.3, &mut rng);
        let red = dag.transitive_reduction();
        for u in dag.nodes() {
            for v in dag.nodes() {
                prop_assert_eq!(dag.reaches(u, v), red.reaches(u, v));
            }
        }
        prop_assert!(red.edge_count() <= dag.edge_count());
    }

    #[test]
    fn stats_are_internally_consistent(g in arb_digraph(40)) {
        let s = GraphStats::of(&g);
        prop_assert_eq!(s.nodes, g.node_count());
        prop_assert_eq!(s.edges, g.edge_count());
        prop_assert!(s.sources >= s.isolated);
        prop_assert!(s.sinks >= s.isolated);
        prop_assert!(s.weak_components >= 1 || s.nodes == 0);
    }

    #[test]
    fn descendants_never_contain_self_in_dag(dag in arb_dag()) {
        for v in dag.nodes() {
            prop_assert!(!dag.descendants(v).contains(v));
        }
    }

    #[test]
    fn sccs_partition_the_nodes(g in arb_digraph(40)) {
        let sccs = strongly_connected_components(&g);
        let mut seen = vec![false; g.node_count()];
        for comp in &sccs {
            prop_assert!(!comp.is_empty());
            for &v in comp {
                prop_assert!(!seen[v.index()], "node {} in two components", v);
                seen[v.index()] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn condensation_is_always_acyclic(g in arb_digraph(40)) {
        let (cg, comp_of) = condensation(&g);
        prop_assert!(is_acyclic(&cg));
        prop_assert_eq!(comp_of.len(), g.node_count());
        // Every original edge maps to an intra-component pair or a
        // condensation edge.
        for (u, v) in g.edges() {
            let (cu, cv) = (comp_of[u.index()], comp_of[v.index()]);
            if cu != cv {
                prop_assert!(cg.has_edge(NodeId::new(cu), NodeId::new(cv)));
            }
        }
    }

    #[test]
    fn dag_sccs_are_all_singletons(dag in arb_dag()) {
        let sccs = strongly_connected_components(&dag);
        prop_assert_eq!(sccs.len(), dag.node_count());
    }
}
