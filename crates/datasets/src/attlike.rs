//! The synthetic AT&T-like benchmark suite.
//!
//! The paper evaluates on 1277 directed graphs from the AT&T collection at
//! graphdrawing.org, divided into 19 groups by vertex count (10, 15, …, 100).
//! That collection is not redistributable here, so this module generates a
//! *seeded synthetic stand-in* with the same shape (substitution documented
//! in DESIGN.md §5):
//!
//! * 1277 graphs, 19 groups, |V| ∈ {10, 15, …, 100};
//! * sparse — `m/n` between roughly 1.0 and 1.4 (the AT&T graphs average
//!   ≈1.1–1.3);
//! * deep and "stringy" — Longest-Path heights around `n/4` (the paper's
//!   Fig. 6 reports LPL heights near 27 at `n = 100`), which is the regime
//!   where the layering trade-offs the paper studies actually appear;
//! * a mixture of shapes: hierarchies with local edges, parented trees with
//!   extra cross edges, and two-terminal series-parallel graphs.

use antlayer_graph::{generate, Dag, DiGraph, GraphStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// One size group of the suite.
#[derive(Clone, Debug)]
pub struct SuiteGroup {
    /// Vertex count shared by all graphs of the group.
    pub n: usize,
    /// The group's graphs.
    pub graphs: Vec<Dag>,
}

/// The full benchmark suite: 19 groups ordered by vertex count.
#[derive(Clone, Debug)]
pub struct GraphSuite {
    /// Groups in increasing |V| order.
    pub groups: Vec<SuiteGroup>,
    /// Seed the suite was generated from.
    pub seed: u64,
}

/// Vertex counts of the 19 groups: 10, 15, …, 100.
pub const GROUP_SIZES: [usize; 19] = [
    10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80, 85, 90, 95, 100,
];

/// Total number of graphs, matching the paper's corpus.
pub const TOTAL_GRAPHS: usize = 1277;

/// Generates one AT&T-like DAG with `n` vertices.
///
/// The mixture and parameters are chosen so the suite lands in the Rome
/// regime: `m/n ≈ 1.0–1.4` and LPL height ≈ `n/5 … n/3`.
pub fn att_like_graph(n: usize, rng: &mut StdRng) -> Dag {
    debug_assert!(n >= 2);
    match rng.gen_range(0..10u32) {
        // Hierarchies with local edges (the dominant shape): depth n/5..n/3.
        0..=5 => {
            let denom = rng.gen_range(3..=5) as usize;
            let layers = (n / denom).clamp(2, n);
            let p_extra = rng.gen_range(0.02..0.07);
            let window = rng.gen_range(1..=3);
            generate::layered_dag(n, layers, p_extra, window, rng)
        }
        // Parented trees with a few extra forward edges.
        6..=7 => {
            let tree = generate::random_tree(n, rng);
            let extra = (n as f64 * rng.gen_range(0.1..0.35)) as usize;
            add_random_forward_edges(tree, extra, rng)
        }
        // Series-parallel graphs (long two-terminal chains). The generator
        // grows one node per expansion, so it yields exactly `n` nodes.
        _ => generate::series_parallel_dag(n, 0.65, rng),
    }
}

/// Adds up to `count` random edges to `dag` along its topological order
/// within a short forward window, preserving acyclicity and sparsity.
fn add_random_forward_edges(dag: Dag, count: usize, rng: &mut StdRng) -> Dag {
    let order = dag.topo_order().to_vec();
    let n = order.len();
    let mut edges: Vec<(u32, u32)> = dag.edges().map(|(u, v)| (u.raw(), v.raw())).collect();
    let mut present: HashSet<(u32, u32)> = edges.iter().copied().collect();
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < count && attempts < count * 10 + 10 {
        attempts += 1;
        if n < 3 {
            break;
        }
        let i = rng.gen_range(0..n - 1);
        let j = (i + rng.gen_range(1..=4)).min(n - 1);
        if i == j {
            continue;
        }
        let pair = (order[i].raw(), order[j].raw());
        if present.insert(pair) {
            edges.push(pair);
            added += 1;
        }
    }
    let g = DiGraph::from_edges(n, &edges).expect("new pairs are fresh forward edges");
    Dag::new(g).expect("forward edges keep the graph acyclic")
}

impl GraphSuite {
    /// Generates the full 1277-graph suite from `seed`.
    pub fn att_like(seed: u64) -> GraphSuite {
        GraphSuite::att_like_scaled(seed, TOTAL_GRAPHS)
    }

    /// Generates a proportionally smaller suite (same 19 groups, about
    /// `total` graphs) — handy for quick experiments and tests.
    pub fn att_like_scaled(seed: u64, total: usize) -> GraphSuite {
        let per_group = total / GROUP_SIZES.len();
        let remainder = total % GROUP_SIZES.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let groups = GROUP_SIZES
            .iter()
            .enumerate()
            .map(|(gi, &n)| {
                let count = per_group + usize::from(gi < remainder);
                let graphs = (0..count).map(|_| att_like_graph(n, &mut rng)).collect();
                SuiteGroup { n, graphs }
            })
            .collect();
        GraphSuite { groups, seed }
    }

    /// Total number of graphs.
    pub fn len(&self) -> usize {
        self.groups.iter().map(|g| g.graphs.len()).sum()
    }

    /// Whether the suite holds no graphs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(group_size_n, &dag)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Dag)> {
        self.groups
            .iter()
            .flat_map(|g| g.graphs.iter().map(move |d| (g.n, d)))
    }

    /// Mean edges-per-node ratio over the whole suite.
    pub fn mean_edge_node_ratio(&self) -> f64 {
        let (mut m, mut n) = (0usize, 0usize);
        for (_, dag) in self.iter() {
            m += dag.edge_count();
            n += dag.node_count();
        }
        m as f64 / n as f64
    }

    /// Per-group summary statistics (group n, mean m, mean LPL height).
    pub fn group_summaries(&self) -> Vec<(usize, f64, f64)> {
        self.groups
            .iter()
            .map(|g| {
                let mean_m = g.graphs.iter().map(|d| d.edge_count() as f64).sum::<f64>()
                    / g.graphs.len().max(1) as f64;
                let mean_depth = g
                    .graphs
                    .iter()
                    .map(|d| {
                        GraphStats::of(d)
                            .longest_path
                            .expect("suite graphs are DAGs") as f64
                            + 1.0
                    })
                    .sum::<f64>()
                    / g.graphs.len().max(1) as f64;
                (g.n, mean_m, mean_depth)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_suite_has_paper_shape() {
        let suite = GraphSuite::att_like_scaled(7, 190); // 10 per group
        assert_eq!(suite.groups.len(), 19);
        assert_eq!(suite.len(), 190);
        for (gi, group) in suite.groups.iter().enumerate() {
            assert_eq!(group.n, GROUP_SIZES[gi]);
            for dag in &group.graphs {
                assert_eq!(dag.node_count(), group.n);
            }
        }
    }

    #[test]
    fn group_count_split_adds_up_to_total() {
        let suite = GraphSuite::att_like_scaled(3, 100);
        assert_eq!(suite.len(), 100);
        // remainder spread over the first groups
        assert!(suite.groups[0].graphs.len() >= suite.groups[18].graphs.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = GraphSuite::att_like_scaled(11, 38);
        let b = GraphSuite::att_like_scaled(11, 38);
        for ((na, da), (nb, db)) in a.iter().zip(b.iter()) {
            assert_eq!(na, nb);
            assert_eq!(da.node_count(), db.node_count());
            let ea: Vec<_> = da.edges().collect();
            let eb: Vec<_> = db.edges().collect();
            assert_eq!(ea, eb);
        }
        let c = GraphSuite::att_like_scaled(12, 38);
        assert_ne!(
            a.iter().map(|(_, d)| d.edge_count()).collect::<Vec<_>>(),
            c.iter().map(|(_, d)| d.edge_count()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sparsity_is_rome_like() {
        let suite = GraphSuite::att_like_scaled(5, 190);
        let ratio = suite.mean_edge_node_ratio();
        assert!(
            (0.9..=1.5).contains(&ratio),
            "edge/node ratio {ratio} outside the Rome band"
        );
    }

    #[test]
    fn depth_is_rome_like() {
        // The paper's Fig. 6 reports LPL heights near n/4; require the
        // suite's mean LPL depth for large groups to land near that band.
        let suite = GraphSuite::att_like_scaled(5, 190);
        let summaries = suite.group_summaries();
        let (n, _, depth) = summaries[18]; // n = 100 group
        assert_eq!(n, 100);
        assert!(
            (15.0..=45.0).contains(&depth),
            "mean LPL depth {depth} at n=100 is outside the Rome band"
        );
    }

    #[test]
    fn full_corpus_size_constant() {
        assert_eq!(TOTAL_GRAPHS, 1277);
        let full = GraphSuite::att_like_scaled(1, TOTAL_GRAPHS);
        assert_eq!(full.len(), 1277);
    }

    #[test]
    fn added_forward_edges_preserve_acyclicity() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let tree = generate::random_tree(30, &mut rng);
            let dag = add_random_forward_edges(tree, 12, &mut rng);
            assert!(antlayer_graph::is_acyclic(&dag));
            assert!(dag.edge_count() >= 29);
        }
    }
}
