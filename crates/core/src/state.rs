//! The mutable search state an ant works on: layer assignment, per-layer
//! widths (including dummy contributions), per-layer real-vertex
//! occupancy, and per-vertex layer spans.
//!
//! Widths are maintained *incrementally* exactly as in the paper's
//! Algorithm 5 / Fig. 3 ("reflect vertex movement"); layer spans are
//! refreshed for the neighbours of a moved vertex (Alg. 4 lines 9–11); the
//! occupancy table and occupied-layer counter let
//! [`incremental_objective`](SearchState::incremental_objective) evaluate
//! the paper's normalized objective with one flat `O(h)` scan (`h` =
//! total available layers) instead of rebuilding a [`Layering`]. Every
//! mutation is cross-checked against a from-scratch recomputation in
//! debug builds and in the test suite.
//!
//! All neighbour scans are generic over [`Adjacency`], so the hot path can
//! hand in a cache-local [CSR view](antlayer_graph::CsrView) while cold
//! callers keep passing the [`Dag`] directly.

use antlayer_graph::{Adjacency, Dag, NodeId};
use antlayer_layering::{Layering, WidthModel};

/// Layer assignment + derived quantities for one point of the search space.
#[derive(Clone, PartialEq, Debug)]
pub struct SearchState {
    /// Layer of each vertex (1-based), indexed by `NodeId::index()`.
    pub layer: Vec<u32>,
    /// Width of every layer, including dummy vertices; entry `l` is layer
    /// `l` (entry 0 unused).
    pub width: Vec<f64>,
    /// Number of real vertices on every layer (entry 0 unused).
    pub occupancy: Vec<u32>,
    /// Number of layers holding at least one real vertex — the paper's
    /// height `H` of the *normalized* layering, maintained incrementally.
    pub occupied_count: u32,
    /// Lowest layer each vertex may move to (`1 + max successor layer`).
    pub span_lo: Vec<u32>,
    /// Highest layer each vertex may move to (`min predecessor layer − 1`,
    /// or the total layer count for vertices without predecessors).
    pub span_hi: Vec<u32>,
    /// Total number of available layers `h`.
    pub total_layers: u32,
}

impl SearchState {
    /// Builds the state for `layering` on `dag` with `total_layers`
    /// available layers.
    pub fn new(dag: &Dag, layering: &Layering, total_layers: u32, wm: &WidthModel) -> Self {
        debug_assert!(layering.validate(dag).is_ok());
        debug_assert!(layering.max_layer() <= total_layers);
        let layer: Vec<u32> = dag.nodes().map(|v| layering.layer(v)).collect();
        let width = compute_widths(dag, &layer, total_layers, wm);
        let mut occupancy = vec![0u32; total_layers as usize + 1];
        for &l in &layer {
            occupancy[l as usize] += 1;
        }
        let occupied_count = occupancy.iter().filter(|&&c| c > 0).count() as u32;
        let mut state = SearchState {
            layer,
            width,
            occupancy,
            occupied_count,
            span_lo: vec![1; dag.node_count()],
            span_hi: vec![total_layers; dag.node_count()],
            total_layers,
        };
        for v in dag.nodes() {
            state.refresh_span(dag, v);
        }
        state
    }

    /// Overwrites `self` with `src`, reusing the existing buffers.
    ///
    /// Allocation-free whenever the buffers already have the needed
    /// capacity — in particular for any two states of the same graph and
    /// layer count, the steady state inside a colony, where every ant
    /// slot is a clone of the base. Dimension mismatches (e.g. a
    /// warm-start incumbent stretched to a different height than the
    /// base under an explicit `target_layers`) resize instead of
    /// panicking. This is how per-ant states are re-seeded from the tour
    /// base without a per-walk `clone`.
    pub fn copy_from(&mut self, src: &SearchState) {
        self.layer.clone_from(&src.layer);
        self.width.clone_from(&src.width);
        self.occupancy.clone_from(&src.occupancy);
        self.occupied_count = src.occupied_count;
        self.span_lo.clone_from(&src.span_lo);
        self.span_hi.clone_from(&src.span_hi);
        self.total_layers = src.total_layers;
    }

    /// The current assignment as a [`Layering`] (not normalized).
    pub fn to_layering(&self) -> Layering {
        Layering::from_slice(&self.layer)
    }

    /// The span of `v` as dictated by its neighbours' current layers.
    #[inline]
    fn computed_span<A: Adjacency>(&self, g: &A, v: NodeId) -> (u32, u32) {
        let lo = g
            .out_neighbors(v)
            .iter()
            .map(|&w| self.layer[w.index()] + 1)
            .max()
            .unwrap_or(1);
        let hi = g
            .in_neighbors(v)
            .iter()
            .map(|&u| self.layer[u.index()] - 1)
            .min()
            .unwrap_or(self.total_layers);
        (lo, hi)
    }

    /// Recomputes the span of `v` from its neighbours' current layers.
    #[inline]
    pub fn refresh_span<A: Adjacency>(&mut self, g: &A, v: NodeId) {
        let (lo, hi) = self.computed_span(g, v);
        debug_assert!(lo <= hi, "span of {v} collapsed: [{lo}, {hi}]");
        self.span_lo[v.index()] = lo;
        self.span_hi[v.index()] = hi;
    }

    /// Moves `v` to `new_layer`, updating layer widths with the paper's
    /// Algorithm 5, maintaining the occupancy table, and refreshing the
    /// spans of `v`'s neighbours.
    ///
    /// `new_layer` must lie within `v`'s current span.
    pub fn move_vertex<A: Adjacency>(&mut self, g: &A, wm: &WidthModel, v: NodeId, new_layer: u32) {
        let cur = self.layer[v.index()];
        if new_layer == cur {
            return;
        }
        debug_assert!(
            (self.span_lo[v.index()]..=self.span_hi[v.index()]).contains(&new_layer),
            "move of {v} to {new_layer} leaves span [{}, {}]",
            self.span_lo[v.index()],
            self.span_hi[v.index()],
        );
        let nw = wm.node_width(v);
        let nd = wm.dummy_width;
        let out_d = g.out_degree(v) as f64 * nd;
        let in_d = g.in_degree(v) as f64 * nd;

        // W(current) -= n_width; W(new) += n_width  (Alg. 5 lines 1–2)
        self.width[cur as usize] -= nw;
        self.width[new_layer as usize] += nw;

        // Occupancy, feeding the flat-scan normalized objective.
        self.occupancy[cur as usize] -= 1;
        if self.occupancy[cur as usize] == 0 {
            self.occupied_count -= 1;
        }
        self.occupancy[new_layer as usize] += 1;
        if self.occupancy[new_layer as usize] == 1 {
            self.occupied_count += 1;
        }

        if new_layer > cur {
            // Moving up. Out-edges now additionally cross [cur, new):
            for l in cur..new_layer {
                self.width[l as usize] += out_d;
            }
            // In-edges no longer cross (cur, new]:
            for l in (cur + 1)..=new_layer {
                self.width[l as usize] -= in_d;
            }
        } else {
            // Moving down. In-edges now additionally cross (new, cur]:
            for l in (new_layer + 1)..=cur {
                self.width[l as usize] += in_d;
            }
            // Out-edges no longer cross [new, cur):
            for l in new_layer..cur {
                self.width[l as usize] -= out_d;
            }
        }
        self.layer[v.index()] = new_layer;

        // Neighbour spans depend on v's layer (Alg. 4 lines 9–11); v's own
        // span is a function of its neighbours only, hence unchanged. The
        // update is incremental: a span bound only ever needs a rescan when
        // `v` was the neighbour that *bound* it and `v` moved away — when
        // `v`'s candidate tightens the bound, a constant-time min/max
        // suffices. (Cross-checked against the full recomputation by
        // `assert_consistent` in debug builds.)
        //
        // Out-neighbours `w` sit below `v`; their ceiling is
        // `span_hi[w] = min over in-neighbours u of layer(u) − 1`.
        if new_layer < cur {
            for &w in g.out_neighbors(v) {
                let cand = new_layer - 1;
                if cand < self.span_hi[w.index()] {
                    self.span_hi[w.index()] = cand;
                }
            }
        } else {
            for &w in g.out_neighbors(v) {
                // v's candidate rose from cur − 1; rescan only if it was
                // the binding minimum (in_neighbors(w) contains v, so the
                // iterator is never empty).
                if self.span_hi[w.index()] == cur - 1 {
                    self.span_hi[w.index()] = g
                        .in_neighbors(w)
                        .iter()
                        .map(|&u| self.layer[u.index()] - 1)
                        .min()
                        .expect("w has in-neighbor v");
                }
            }
        }
        // In-neighbours `u` sit above `v`; their floor is
        // `span_lo[u] = max over out-neighbours w of layer(w) + 1`.
        if new_layer > cur {
            for &u in g.in_neighbors(v) {
                let cand = new_layer + 1;
                if cand > self.span_lo[u.index()] {
                    self.span_lo[u.index()] = cand;
                }
            }
        } else {
            for &u in g.in_neighbors(v) {
                if self.span_lo[u.index()] == cur + 1 {
                    self.span_lo[u.index()] = g
                        .out_neighbors(u)
                        .iter()
                        .map(|&w| self.layer[w.index()] + 1)
                        .max()
                        .expect("u has out-neighbor v");
                }
            }
        }

        #[cfg(debug_assertions)]
        self.assert_consistent(g, wm);
    }

    /// Height (`H`): number of layers holding at least one real vertex.
    /// `O(1)` — maintained by [`move_vertex`](Self::move_vertex).
    pub fn occupied_layers(&self) -> u32 {
        self.occupied_count
    }

    /// Width (`W`): the widest layer, dummies included.
    pub fn max_width(&self) -> f64 {
        self.width[1..].iter().copied().fold(0.0, f64::max)
    }

    /// Width of the *normalized* layering: the widest layer that holds at
    /// least one real vertex.
    ///
    /// Removing a gap (dummy-only) layer shrinks the spans of exactly the
    /// edges crossing it, deleting that layer's dummy row and nothing
    /// else; an occupied layer keeps its real vertices and is still
    /// crossed by the same edges. So compaction leaves every occupied
    /// layer's width untouched and merely drops the gap layers from the
    /// maximum — the gap-layer dummy mass is subtracted analytically by
    /// skipping unoccupied entries.
    pub fn occupied_max_width(&self) -> f64 {
        let mut w = 0.0f64;
        for l in 1..=self.total_layers as usize {
            if self.occupancy[l] > 0 {
                w = w.max(self.width[l]);
            }
        }
        w
    }

    /// Raw `f = 1 / (H + W)` over the stretched space (diagnostics only;
    /// ants are scored with the normalized objective).
    pub fn objective(&self) -> f64 {
        1.0 / (self.occupied_layers() as f64 + self.max_width()).max(f64::MIN_POSITIVE)
    }

    /// The normalized objective as one flat `O(h)` scan over the
    /// occupancy and width arrays (`h` = total available layers, `|V|`
    /// under the default stretch — but a branch and two loads per entry,
    /// no allocation), equal to
    /// [`normalized_objective`](Self::normalized_objective) without
    /// rebuilding, normalizing and re-measuring a [`Layering`]:
    /// `H` is the maintained occupied-layer count and `W` is
    /// [`occupied_max_width`](Self::occupied_max_width) (see there for why
    /// skipping gap layers is exactly the §VI clean-up step). This is what
    /// the hot walk loop scores ants with.
    pub fn incremental_objective(&self) -> f64 {
        1.0 / (self.occupied_count as f64 + self.occupied_max_width()).max(f64::MIN_POSITIVE)
    }

    /// The paper's objective `f = 1 / (H + W)` evaluated on the *completed*
    /// layering, i.e. after the §VI clean-up step that removes empty layers.
    ///
    /// Compacting the interior gaps shrinks edge spans, so the dummy mass
    /// that long stretched edges spread over unused gap layers does not
    /// count against the ant. Scoring the raw stretched state instead would
    /// make the initial dummy walls unbeatable and freeze the colony on its
    /// LPL seed (see DESIGN.md §4).
    ///
    /// This is the reference implementation: it clones, normalizes and
    /// re-measures the layering in `O(V + E + H)` with several
    /// allocations. The colony scores ants with the equivalent
    /// [`incremental_objective`](Self::incremental_objective); the
    /// equality of the two is property-tested.
    pub fn normalized_objective(&self, dag: &Dag, wm: &WidthModel) -> f64 {
        let mut layering = self.to_layering();
        layering.normalize();
        let h = layering.max_layer() as f64;
        let w = antlayer_layering::metrics::width(dag, &layering, wm);
        1.0 / (h + w).max(f64::MIN_POSITIVE)
    }

    /// Verifies incremental bookkeeping against a from-scratch
    /// recomputation (used by debug builds and tests).
    pub fn assert_consistent<A: Adjacency>(&self, g: &A, wm: &WidthModel) {
        let fresh = compute_widths(g, &self.layer, self.total_layers, wm);
        for (l, (a, b)) in self.width.iter().zip(fresh.iter()).enumerate().skip(1) {
            assert!(
                (a - b).abs() < 1e-6,
                "width of layer {l} drifted: incremental {a} vs fresh {b}"
            );
        }
        let mut occupancy = vec![0u32; self.total_layers as usize + 1];
        for &l in &self.layer {
            occupancy[l as usize] += 1;
        }
        assert_eq!(occupancy, self.occupancy, "occupancy table drifted");
        assert_eq!(
            occupancy.iter().filter(|&&c| c > 0).count() as u32,
            self.occupied_count,
            "occupied-layer counter drifted"
        );
        for i in 0..g.node_count() {
            let v = NodeId::new(i);
            // Recompute into two scalars instead of cloning the state —
            // the clone made this check O(V²) and debug-profile proptests
            // crawl on large cases.
            let (lo, hi) = self.computed_span(g, v);
            assert_eq!(lo, self.span_lo[i], "stale lo span of {v}");
            assert_eq!(hi, self.span_hi[i], "stale hi span of {v}");
        }
    }
}

/// From-scratch layer widths: real vertex widths plus `nd_width` per
/// crossing edge, via a difference array. Generic over the adjacency
/// representation (edges are enumerated as `(u, out-neighbor)` pairs).
pub fn compute_widths<A: Adjacency>(
    g: &A,
    layer: &[u32],
    total_layers: u32,
    wm: &WidthModel,
) -> Vec<f64> {
    let h = total_layers as usize;
    let mut width = vec![0.0f64; h + 1];
    for i in 0..g.node_count() {
        width[layer[i] as usize] += wm.node_width(NodeId::new(i));
    }
    // Edge (u, v) puts a dummy on every layer strictly between.
    let mut diff = vec![0i64; h + 2];
    for i in 0..g.node_count() {
        let lu = layer[i] as usize;
        for &v in g.out_neighbors(NodeId::new(i)) {
            let lv = layer[v.index()] as usize;
            debug_assert!(lu > lv);
            if lu > lv + 1 {
                diff[lv + 1] += 1;
                diff[lu] -= 1;
            }
        }
    }
    let mut acc = 0i64;
    for l in 1..=h {
        acc += diff[l];
        width[l] += wm.dummy_width * acc as f64;
    }
    width
}

#[cfg(test)]
mod tests {
    use super::*;
    use antlayer_graph::generate;
    use antlayer_layering::{LayeringAlgorithm, LongestPath};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn state_for(dag: &Dag, extra_layers: u32) -> SearchState {
        let wm = WidthModel::unit();
        let lpl = LongestPath.layer(dag, &wm);
        let h = lpl.max_layer() + extra_layers;
        let stretched = crate::stretch::stretch(&lpl, h as usize, crate::StretchStrategy::Between);
        SearchState::new(dag, &stretched.layering, stretched.total_layers, &wm)
    }

    #[test]
    fn initial_widths_match_fresh_computation() {
        let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let s = state_for(&dag, 3);
        s.assert_consistent(&dag, &WidthModel::unit());
    }

    #[test]
    fn spans_bound_current_layers() {
        let mut rng = StdRng::seed_from_u64(3);
        let dag = generate::gnp_dag(30, 0.15, &mut rng);
        let s = state_for(&dag, 10);
        for v in dag.nodes() {
            assert!(s.span_lo[v.index()] <= s.layer[v.index()]);
            assert!(s.layer[v.index()] <= s.span_hi[v.index()]);
        }
    }

    #[test]
    fn source_and_sink_spans_touch_boundaries() {
        let dag = Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let s = state_for(&dag, 0); // layers: 0→3, 1→2, 2→1, h = 3
        assert_eq!(s.span_hi[0], 3, "source may rise to the top");
        assert_eq!(s.span_lo[2], 1, "sink may sink to the bottom");
        assert_eq!((s.span_lo[1], s.span_hi[1]), (2, 2), "middle is pinned");
    }

    #[test]
    fn moving_down_adds_in_edge_dummies() {
        // Chain 0→1→2 on layers [5, 3, 1] of h = 5 (stretched).
        let dag = Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let wm = WidthModel::unit();
        let layering = Layering::from_slice(&[5, 3, 1]);
        let mut s = SearchState::new(&dag, &layering, 5, &wm);
        // Move vertex 1 down from layer 3 to layer 2: in-edge (0,1) now
        // crosses layers 3 and 4 ... wait it already crossed 4; newly
        // crosses 3. Out-edge (1,2) stops crossing 2.
        s.move_vertex(&dag, &wm, n(1), 2);
        assert_eq!(s.layer[1], 2);
        let fresh = compute_widths(&dag, &s.layer, 5, &wm);
        assert_eq!(&s.width[1..], &fresh[1..]);
        // Layer 3 now holds a dummy of edge (0,1) instead of vertex 1.
        assert_eq!(s.width[3], 1.0);
        // Layer 2 holds vertex 1 only.
        assert_eq!(s.width[2], 1.0);
    }

    #[test]
    fn moving_up_adds_out_edge_dummies() {
        let dag = Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let wm = WidthModel::unit();
        let layering = Layering::from_slice(&[5, 2, 1]);
        let mut s = SearchState::new(&dag, &layering, 5, &wm);
        s.move_vertex(&dag, &wm, n(1), 4);
        assert_eq!(s.layer[1], 4);
        let fresh = compute_widths(&dag, &s.layer, 5, &wm);
        assert_eq!(&s.width[1..], &fresh[1..]);
        // Out-edge (1,2) now crosses layers 2 and 3.
        assert_eq!(s.width[2], 1.0);
        assert_eq!(s.width[3], 1.0);
    }

    #[test]
    fn dummy_width_scales_move_updates() {
        let dag = Dag::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let wm = WidthModel::with_dummy_width(0.3);
        let layering = Layering::from_slice(&[5, 3, 1]);
        let mut s = SearchState::new(&dag, &layering, 5, &wm);
        s.move_vertex(&dag, &wm, n(1), 4);
        let fresh = compute_widths(&dag, &s.layer, 5, &wm);
        for (a, b) in s.width.iter().zip(fresh.iter()).skip(1) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn random_walks_keep_widths_and_spans_consistent() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let dag = generate::random_dag_with_edges(20, 30, &mut rng);
            let wm = WidthModel::unit();
            let mut s = state_for(&dag, 10);
            for _ in 0..200 {
                let v = n(rng.gen_range(0..dag.node_count()));
                let (lo, hi) = (s.span_lo[v.index()], s.span_hi[v.index()]);
                let target = rng.gen_range(lo..=hi);
                s.move_vertex(&dag, &wm, v, target);
            }
            s.assert_consistent(&dag, &wm);
            // The layering remains valid throughout.
            s.to_layering().validate(&dag).unwrap();
        }
    }

    #[test]
    fn moves_through_csr_match_moves_through_vecvec() {
        let mut rng = StdRng::seed_from_u64(19);
        let dag = generate::random_dag_with_edges(25, 40, &mut rng);
        let wm = WidthModel::unit();
        let csr = dag.to_csr();
        let mut a = state_for(&dag, 12);
        let mut b = a.clone();
        for _ in 0..300 {
            let v = n(rng.gen_range(0..dag.node_count()));
            let (lo, hi) = (a.span_lo[v.index()], a.span_hi[v.index()]);
            let target = rng.gen_range(lo..=hi);
            a.move_vertex(&dag, &wm, v, target);
            b.move_vertex(&csr, &wm, v, target);
        }
        assert_eq!(a, b, "the Dag and its CSR copy must agree exactly");
    }

    #[test]
    fn incremental_objective_matches_normalized_objective() {
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..10 {
            let dag = generate::random_dag_with_edges(20, 30, &mut rng);
            let wm = WidthModel::unit();
            let mut s = state_for(&dag, 10);
            assert_eq!(
                s.incremental_objective(),
                s.normalized_objective(&dag, &wm),
                "fresh states agree bitwise"
            );
            for _ in 0..100 {
                let v = n(rng.gen_range(0..dag.node_count()));
                let (lo, hi) = (s.span_lo[v.index()], s.span_hi[v.index()]);
                s.move_vertex(&dag, &wm, v, rng.gen_range(lo..=hi));
            }
            let inc = s.incremental_objective();
            let full = s.normalized_objective(&dag, &wm);
            assert!(
                (inc - full).abs() < 1e-9,
                "incremental {inc} vs normalized {full}"
            );
        }
    }

    #[test]
    fn copy_from_restores_state_without_resizing() {
        let mut rng = StdRng::seed_from_u64(29);
        let dag = generate::random_dag_with_edges(18, 26, &mut rng);
        let wm = WidthModel::unit();
        let base = state_for(&dag, 8);
        let mut scratch = base.clone();
        for _ in 0..50 {
            let v = n(rng.gen_range(0..dag.node_count()));
            let (lo, hi) = (scratch.span_lo[v.index()], scratch.span_hi[v.index()]);
            scratch.move_vertex(&dag, &wm, v, rng.gen_range(lo..=hi));
        }
        scratch.copy_from(&base);
        assert_eq!(scratch, base);
    }

    #[test]
    fn objective_matches_metrics_after_normalization_only_improves() {
        let mut rng = StdRng::seed_from_u64(13);
        let dag = generate::gnp_dag(20, 0.2, &mut rng);
        let wm = WidthModel::unit();
        let s = state_for(&dag, 10);
        let f_stretched = s.objective();
        let mut l = s.to_layering();
        l.normalize();
        let m = antlayer_layering::LayeringMetrics::compute(&dag, &l, &wm);
        assert!(
            m.objective >= f_stretched - 1e-12,
            "normalization must not hurt the objective: {} vs {}",
            m.objective,
            f_stretched
        );
    }

    #[test]
    fn occupied_layers_ignores_dummy_only_layers() {
        let dag = Dag::from_edges(2, &[(0, 1)]).unwrap();
        let layering = Layering::from_slice(&[4, 1]);
        let s = SearchState::new(&dag, &layering, 4, &WidthModel::unit());
        assert_eq!(s.occupied_layers(), 2);
        // Layers 2 and 3 hold one dummy each.
        assert_eq!(s.width[2], 1.0);
        assert_eq!(s.width[3], 1.0);
        assert_eq!(s.max_width(), 1.0);
        // The normalized width skips the dummy-only gap layers.
        assert_eq!(s.occupied_max_width(), 1.0);
        assert_eq!(s.incremental_objective(), 1.0 / 3.0);
    }

    #[test]
    fn noop_move_changes_nothing() {
        let dag = Dag::from_edges(2, &[(0, 1)]).unwrap();
        let wm = WidthModel::unit();
        let layering = Layering::from_slice(&[2, 1]);
        let mut s = SearchState::new(&dag, &layering, 3, &wm);
        let before = s.clone();
        s.move_vertex(&dag, &wm, n(0), 2);
        assert_eq!(before, s);
    }
}
