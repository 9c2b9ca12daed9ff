//! The benchmark's own inputs: a seeded PRNG, the graph shapes of each
//! workload, edits, and the wire lines that carry them.
//!
//! Nothing here calls the program's generators (`antlayer_datasets`,
//! `antlayer_graph::generate`) or the vendored `rand`, so no change to
//! the program can change what is measured. Every graph is simple (no
//! self-loops, no duplicate edges). Forward edges go from a lower to a
//! higher node id, so a graph without back edges is a DAG and any added
//! pair `u < v` keeps it one.

use std::collections::HashSet;
use std::fmt::Write;

/// SplitMix64: small, fast and good enough for input generation.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Derives an independent sub-seed, so each input stream depends only on
/// the run seed and its own position.
pub fn mix(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// A simple directed graph as the wire carries it.
#[derive(Clone, Debug, PartialEq)]
pub struct Graph {
    pub n: usize,
    pub edges: Vec<(u32, u32)>,
}

impl Graph {
    pub fn edge_set(&self) -> HashSet<(u32, u32)> {
        self.edges.iter().copied().collect()
    }
}

/// Builds a graph from edges, dropping self-loops and duplicates.
struct Builder {
    n: usize,
    edges: Vec<(u32, u32)>,
    seen: HashSet<(u32, u32)>,
}

impl Builder {
    fn new(n: usize) -> Builder {
        Builder {
            n,
            edges: Vec::new(),
            seen: HashSet::new(),
        }
    }

    fn add(&mut self, u: usize, v: usize) -> bool {
        if u == v || !self.seen.insert((u as u32, v as u32)) {
            return false;
        }
        self.edges.push((u as u32, v as u32));
        true
    }

    fn finish(self) -> Graph {
        Graph {
            n: self.n,
            edges: self.edges,
        }
    }
}

/// Node ids `0..n` split into `ranks` consecutive runs, as `att_like`
/// ranks them: one vertex per rank, the rest on uniformly drawn ranks.
/// Returns the start of each run plus `n` as a sentinel.
fn rank_starts(n: usize, ranks: usize, rng: &mut Rng) -> Vec<usize> {
    let ranks = ranks.clamp(1, n);
    let mut size = vec![1usize; ranks];
    for _ in ranks..n {
        size[rng.below(ranks)] += 1;
    }
    let mut starts = Vec::with_capacity(ranks + 1);
    let mut at = 0;
    for s in size {
        starts.push(at);
        at += s;
    }
    starts.push(n);
    starts
}

/// A layered hierarchy: every vertex of rank `r > 0` gets one parent
/// from the `window` ranks above it, plus `extra` more on average.
fn layered(n: usize, ranks: usize, window: usize, extra: f64, rng: &mut Rng) -> Graph {
    let starts = rank_starts(n, ranks, rng);
    let mut b = Builder::new(n);
    for r in 1..starts.len() - 1 {
        let lo = starts[r.saturating_sub(window)];
        for v in starts[r]..starts[r + 1] {
            let parents = 1 + (extra.floor() as usize) + usize::from(rng.chance(extra.fract()));
            for _ in 0..parents {
                let u = lo + rng.below(starts[r] - lo);
                b.add(u, v);
            }
        }
    }
    b.finish()
}

/// A random out-tree (node `v > 0` hangs under some `u < v`) plus
/// `extra` forward edges within a short id window, as in `att_like`.
fn tree_with_forward_edges(n: usize, extra: usize, rng: &mut Rng) -> Graph {
    let mut b = Builder::new(n);
    for v in 1..n {
        let u = rng.below(v);
        b.add(u, v);
    }
    let (mut added, mut attempts) = (0, 0);
    while added < extra && attempts < extra * 10 + 10 && n >= 3 {
        attempts += 1;
        let i = rng.below(n - 1);
        let j = (i + rng.between(1, 4)).min(n - 1);
        if b.add(i, j) {
            added += 1;
        }
    }
    b.finish()
}

/// A two-terminal series-parallel graph grown one node per expansion;
/// node ids are renumbered into a topological order at the end.
fn series_parallel(n: usize, p_series: f64, rng: &mut Rng) -> Graph {
    let mut edges: Vec<(usize, usize)> = vec![(0, 1)];
    let mut count = 2;
    while count < n {
        let idx = rng.below(edges.len());
        let (u, v) = edges[idx];
        let w = count;
        count += 1;
        if rng.chance(p_series) {
            edges.swap_remove(idx);
        }
        edges.push((u, w));
        edges.push((w, v));
    }
    // Kahn's order makes every edge point from a lower to a higher id.
    let mut indeg = vec![0usize; count];
    let mut out = vec![Vec::new(); count];
    for &(u, v) in &edges {
        indeg[v] += 1;
        out[u].push(v);
    }
    let mut order = Vec::with_capacity(count);
    let mut stack: Vec<usize> = (0..count).filter(|&v| indeg[v] == 0).collect();
    while let Some(u) = stack.pop() {
        order.push(u);
        for &v in &out[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                stack.push(v);
            }
        }
    }
    let mut pos = vec![0usize; count];
    for (i, &v) in order.iter().enumerate() {
        pos[v] = i;
    }
    let mut b = Builder::new(count);
    for &(u, v) in &edges {
        b.add(pos[u], pos[v]);
    }
    b.finish()
}

/// One graph in the proportions of `GraphSuite::att_like`: 6 in 10
/// layered hierarchies of depth n/3..n/5, 2 in 10 trees with forward
/// edges, 2 in 10 series-parallel graphs.
pub fn att_like(n: usize, rng: &mut Rng) -> Graph {
    let kind = rng.below(10);
    att_like_kind(n, kind, rng)
}

/// An `att_like` graph of kind `kind` in 0..10 (0–5 layered, 6–7 tree,
/// 8–9 series-parallel).
fn att_like_kind(n: usize, kind: usize, rng: &mut Rng) -> Graph {
    match kind {
        0..=5 => {
            let ranks = (n / rng.between(3, 5)).clamp(2, n);
            let window = rng.between(1, 3);
            // att_like draws each extra parent with p in 0.02..0.07 from
            // up to `window` ranks of n/ranks nodes each.
            let p = 0.02 + 0.05 * rng.unit();
            let extra = p * window as f64 * n as f64 / ranks as f64;
            layered(n, ranks, window, extra, rng)
        }
        6..=7 => {
            let extra = (n as f64 * (0.1 + 0.25 * rng.unit())) as usize;
            tree_with_forward_edges(n, extra, rng)
        }
        _ => series_parallel(n, 0.65, rng),
    }
}

/// Group sizes of the paper's corpus: 10, 15, …, 100 nodes.
pub const CORPUS_SIZES: [usize; 19] = [
    10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80, 85, 90, 95, 100,
];
/// The paper's corpus size.
pub const CORPUS_GRAPHS: usize = 1277;

/// The `paper_corpus` inputs: 1277 graphs in 19 groups, the first
/// `1277 % 19` groups one graph larger, as `att_like` splits them.
pub fn corpus(seed: u64) -> Vec<Graph> {
    let mut rng = Rng::new(mix(seed, 1));
    let per = CORPUS_GRAPHS / CORPUS_SIZES.len();
    let rem = CORPUS_GRAPHS % CORPUS_SIZES.len();
    let mut out = Vec::with_capacity(CORPUS_GRAPHS);
    for (gi, &n) in CORPUS_SIZES.iter().enumerate() {
        for _ in 0..per + usize::from(gi < rem) {
            out.push(att_like(n, &mut rng));
        }
    }
    out
}

/// The four `large_graphs` shapes.
pub const SHAPES: [&str; 4] = ["layered", "wide", "deep", "hub"];

/// One `large_graphs` input of `n` nodes with about `2n` edges.
///
/// * `layered`: n/50 ranks, parents from the two ranks above, plus
///   `n/1000` back edges, so cycle removal reverses edges;
/// * `wide`: 8 ranks of n/8 nodes;
/// * `deep`: n/4 ranks of about 4 nodes, so chains run n/4 long;
/// * `hub`: `layered` plus one vertex of out-degree `n/10` and one of
///   in-degree `n/10` (10⁴ at 10⁵ nodes).
pub fn shape(name: &str, n: usize, seed: u64) -> Graph {
    let mut rng = Rng::new(mix(
        seed,
        2 + SHAPES.iter().position(|&s| s == name).unwrap() as u64,
    ));
    let mut g = match name {
        "layered" | "hub" => layered(n, n / 50, 2, 1.0, &mut rng),
        "wide" => layered(n, 8, 2, 1.0, &mut rng),
        "deep" => layered(n, n / 4, 3, 1.0, &mut rng),
        other => panic!("unknown shape {other}"),
    };
    let mut seen = g.edge_set();
    let mut push = |g: &mut Graph, u: usize, v: usize| {
        if u != v && seen.insert((u as u32, v as u32)) {
            g.edges.push((u as u32, v as u32));
        }
    };
    if name == "layered" || name == "hub" {
        for _ in 0..n / 1000 {
            let v = rng.below(n / 2);
            let u = n / 2 + rng.below(n / 2);
            push(&mut g, u, v);
        }
    }
    if name == "hub" {
        // An out-hub near the top and an in-hub near the bottom, each of
        // degree n/10; the stride walk picks distinct partners on the far
        // side. Only the out-hub meets `DiGraph::add_edge`'s scan of the
        // source's out-list.
        let (degree, span) = (n / 10, n - n / 5);
        for out in [true, false] {
            let hub = if out {
                rng.below(n / 10)
            } else {
                n - 1 - rng.below(n / 10)
            };
            let start = rng.below(span);
            let stride = coprime_stride(span, &mut rng);
            for k in 0..degree {
                let other = (start + k * stride) % span;
                if out {
                    push(&mut g, hub, n / 5 + other);
                } else {
                    push(&mut g, other, hub);
                }
            }
        }
    }
    g
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn coprime_stride(n: usize, rng: &mut Rng) -> usize {
    loop {
        let s = 1 + rng.below(n - 1);
        if gcd(s, n) == 1 {
            return s;
        }
    }
}

/// A relabeling `v → (a·v + b) mod n`, so that each round of
/// `large_graphs` sends a distinct request (a fresh cache key) of the
/// same shape without storing a permutation.
#[derive(Clone, Copy, Debug)]
pub struct Relabel {
    n: usize,
    a: usize,
    b: usize,
}

impl Relabel {
    pub fn new(n: usize, seed: u64) -> Relabel {
        let mut rng = Rng::new(seed);
        Relabel {
            n,
            a: coprime_stride(n, &mut rng),
            b: rng.below(n),
        }
    }

    pub fn map(&self, v: u32) -> u32 {
        ((self.a as u128 * v as u128 + self.b as u128) % self.n as u128) as u32
    }

    pub fn apply(&self, g: &Graph) -> Graph {
        Graph {
            n: g.n,
            edges: g
                .edges
                .iter()
                .map(|&(u, v)| (self.map(u), self.map(v)))
                .collect(),
        }
    }
}

/// The graph of `edit_fleet` session `k`: an `att_like` DAG of 100–300
/// nodes. Size and kind follow `k` through fixed strides, so every run
/// draws the same mix of sizes and kinds and only the edges depend on
/// the seed; a run's sessions then cost alike whatever the seed.
pub fn edit_graph(k: u64, rng: &mut Rng) -> Graph {
    let n = 100 + (k as usize * 67) % 201;
    att_like_kind(n, (k as usize * 7) % 10, rng)
}

/// Picks a forward pair `u < v` that is not yet an edge.
pub fn fresh_forward_edge(n: usize, edges: &HashSet<(u32, u32)>, rng: &mut Rng) -> (u32, u32) {
    loop {
        let u = rng.below(n - 1);
        let v = u + 1 + rng.below((n - u - 1).min(n / 4 + 1));
        let e = (u as u32, v as u32);
        if !edges.contains(&e) {
            return e;
        }
    }
}

fn push_pairs(out: &mut String, pairs: &[(u32, u32)]) {
    out.push('[');
    for (i, (u, v)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{u},{v}]");
    }
    out.push(']');
}

/// The solver a request names, with the colony knobs for `aco`.
#[derive(Clone, Copy, Debug)]
pub enum Algo {
    /// The paper's colony at 10 ants × 10 tours under this seed.
    Aco(u64),
    Lpl,
}

fn push_algo(out: &mut String, algo: Algo) {
    match algo {
        Algo::Aco(seed) => {
            let _ = write!(out, r#""algo":"aco","seed":{seed},"ants":10,"tours":10"#);
        }
        Algo::Lpl => out.push_str(r#""algo":"lpl""#),
    }
}

/// A v2 `layout` (or `session_open`) line.
pub fn layout_line(op: &str, id: &str, g: &Graph, algo: Algo) -> String {
    let mut out = String::with_capacity(64 + g.edges.len() * 14);
    let _ = write!(
        out,
        r#"{{"v":2,"op":"{op}","id":"{id}","body":{{"nodes":{},"edges":"#,
        g.n
    );
    push_pairs(&mut out, &g.edges);
    out.push(',');
    push_algo(&mut out, algo);
    out.push_str("}}");
    out
}

/// A v2 `layout_delta` line against `base`.
pub fn delta_line(
    id: &str,
    base: &str,
    add: &[(u32, u32)],
    remove: &[(u32, u32)],
    algo: Algo,
) -> String {
    let mut out = String::with_capacity(160);
    let _ = write!(
        out,
        r#"{{"v":2,"op":"layout_delta","id":"{id}","body":{{"base":"{base}","add":"#
    );
    push_pairs(&mut out, add);
    out.push_str(r#","remove":"#);
    push_pairs(&mut out, remove);
    out.push(',');
    push_algo(&mut out, algo);
    out.push_str("}}");
    out
}

/// A v2 `session_delta` line (add-only).
pub fn session_delta_line(id: &str, add: &[(u32, u32)]) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(
        out,
        r#"{{"v":2,"op":"session_delta","id":"{id}","body":{{"add":"#
    );
    push_pairs(&mut out, add);
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_simple(g: &Graph) -> bool {
        let set = g.edge_set();
        set.len() == g.edges.len()
            && g.edges
                .iter()
                .all(|&(u, v)| u != v && (u as usize) < g.n && (v as usize) < g.n)
    }

    #[test]
    fn corpus_matches_the_paper_and_repeats_per_seed() {
        let a = corpus(7);
        assert_eq!(a.len(), CORPUS_GRAPHS);
        assert_eq!(a, corpus(7));
        assert_ne!(a, corpus(8));
        assert!(a
            .iter()
            .all(|g| is_simple(g) && g.edges.iter().all(|&(u, v)| u < v)));
        let (n, m) = a
            .iter()
            .fold((0, 0), |(n, m), g| (n + g.n, m + g.edges.len()));
        let ratio = m as f64 / n as f64;
        assert!((0.9..1.5).contains(&ratio), "m/n = {ratio}");
    }

    #[test]
    fn shapes_are_simple_and_hubs_reach_their_degree() {
        for name in SHAPES {
            let g = shape(name, 10_000, 3);
            assert!(is_simple(&g), "{name}");
            assert!(g.edges.len() >= 15_000, "{name}: {} edges", g.edges.len());
        }
        let hub = shape("hub", 10_000, 3);
        let (mut out, mut inn) = (vec![0usize; hub.n], vec![0usize; hub.n]);
        for &(u, v) in &hub.edges {
            out[u as usize] += 1;
            inn[v as usize] += 1;
        }
        assert!(out.iter().max() >= Some(&1_000) && inn.iter().max() >= Some(&1_000));
    }

    #[test]
    fn relabels_are_bijections() {
        let r = Relabel::new(1000, 9);
        let mut hit = vec![false; 1000];
        for v in 0..1000 {
            hit[r.map(v) as usize] = true;
        }
        assert!(hit.iter().all(|&h| h));
    }
}
