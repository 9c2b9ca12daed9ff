//! Micro-benchmarks of the zero-allocation hot path against the preserved
//! pre-refactor reference path: one walk (`walk`) and the objective
//! evaluation (`objective`). The end-to-end ratio is gated by
//! `experiments hotpath` (BENCH_4.json); these groups exist to localize a
//! regression when that gate trips.

use antlayer_aco::{
    perform_walk, reference, stretch, AcoParams, SearchState, SelectionRule, StretchStrategy,
    VertexLayerMatrix, WalkCtx, WalkScratch,
};
use antlayer_graph::{generate, Adjacency, Dag};
use antlayer_layering::{LayeringAlgorithm, LongestPath, WidthModel};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The BENCH_4 scenario's graph shape: deep, sparse, 200 nodes.
fn graph(n: usize, layers: usize) -> Dag {
    let mut rng = StdRng::seed_from_u64(99);
    generate::layered_dag(n, layers, 0.04, 2, &mut rng)
}

fn base_state(dag: &Dag, wm: &WidthModel) -> SearchState {
    let lpl = LongestPath.layer(dag, wm);
    let s = stretch(&lpl, dag.node_count(), StretchStrategy::Between);
    SearchState::new(dag, &s.layering, s.total_layers, wm)
}

fn bench_walk(c: &mut Criterion) {
    let wm = WidthModel::unit();
    let mut group = c.benchmark_group("hotpath_walk");
    for (n, layers) in [(100usize, 25usize), (200, 50), (400, 100)] {
        let dag = graph(n, layers);
        let base = base_state(&dag, &wm);
        for selection in [SelectionRule::ArgMax, SelectionRule::Roulette] {
            let params = AcoParams {
                selection,
                ..AcoParams::default()
            };
            let tau = VertexLayerMatrix::filled(dag.node_count(), base.total_layers as usize, 1.0);
            let label = |path: &str| format!("{path}_{}", params.selection.name());
            group.bench_with_input(BenchmarkId::new(label("optimized"), n), &dag, |b, dag| {
                let csr = dag.to_csr();
                let ctx = WalkCtx::new(dag, &csr, &wm, &params);
                let mut state = base.clone();
                let mut scratch = WalkScratch::new();
                b.iter(|| {
                    state.copy_from(&base);
                    let mut rng = StdRng::seed_from_u64(3);
                    perform_walk(&ctx, &tau, &mut state, &mut scratch, &mut rng)
                })
            });
            group.bench_with_input(BenchmarkId::new(label("reference"), n), &dag, |b, dag| {
                b.iter(|| {
                    let mut state = base.clone();
                    let mut rng = StdRng::seed_from_u64(3);
                    reference::perform_walk(dag, &wm, &params, &tau, &mut state, &mut rng)
                })
            });
        }
    }
    group.finish();
}

fn bench_objective(c: &mut Criterion) {
    let wm = WidthModel::unit();
    let mut group = c.benchmark_group("hotpath_objective");
    for (n, layers) in [(200usize, 50usize), (800, 200)] {
        let dag = graph(n, layers);
        let state = base_state(&dag, &wm);
        group.bench_with_input(BenchmarkId::new("incremental", n), &state, |b, state| {
            b.iter(|| state.incremental_objective())
        });
        group.bench_with_input(BenchmarkId::new("full_rebuild", n), &state, |b, state| {
            b.iter(|| state.normalized_objective(&dag, &wm))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_walk, bench_objective);
criterion_main!(benches);
