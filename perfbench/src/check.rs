//! Output checks, written apart from the program: nothing here calls
//! `antlayer-layering`, `antlayer-sugiyama` or `LayeringMetrics`. Each
//! check recomputes what a reply claims from its layers and the input
//! edges, and returns an error naming the first claim that fails.

use crate::gen::Graph;

/// What a layout reply claims, as decoded from the wire.
#[derive(Clone, Debug)]
pub struct Claim<'a> {
    pub layers: &'a [Vec<u32>],
    pub height: u64,
    pub width: f64,
    pub dummies: u64,
    pub reversed_edges: u64,
}

/// Height, width (dummies included) and dummy count of a layering,
/// recomputed from scratch; `layer_of[v]` is 0-based bottom-up.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Shape {
    pub height: u64,
    pub width: f64,
    pub dummies: u64,
}

impl Shape {
    pub fn cost(&self) -> f64 {
        self.height as f64 + self.width
    }
}

/// Every node in exactly one layer and no edge inside a layer; returns
/// each node's 0-based layer.
pub fn partition(g: &Graph, layers: &[Vec<u32>]) -> Result<Vec<u32>, String> {
    let mut layer_of = vec![u32::MAX; g.n];
    for (i, layer) in layers.iter().enumerate() {
        for &v in layer {
            let slot = layer_of
                .get_mut(v as usize)
                .ok_or_else(|| format!("layer {i} names node {v} of {}", g.n))?;
            if *slot != u32::MAX {
                return Err(format!("node {v} is in layers {} and {i}", *slot));
            }
            *slot = i as u32;
        }
    }
    if let Some(v) = layer_of.iter().position(|&l| l == u32::MAX) {
        return Err(format!("node {v} is in no layer"));
    }
    if let Some(&(u, v)) = g
        .edges
        .iter()
        .find(|&&(u, v)| layer_of[u as usize] == layer_of[v as usize])
    {
        return Err(format!(
            "edge ({u},{v}) lies inside layer {}",
            layer_of[u as usize]
        ));
    }
    Ok(layer_of)
}

/// Edges drawn upward: the program layers sinks at the bottom, so an
/// edge whose head sits above its tail was reversed to break a cycle.
pub fn upward_edges(g: &Graph, layer_of: &[u32]) -> u64 {
    g.edges
        .iter()
        .filter(|&&(u, v)| layer_of[u as usize] < layer_of[v as usize])
        .count() as u64
}

/// Height, width and dummies of the layering `layer_of` (with
/// `height` layers) of `g`, each dummy `nd_width` wide.
pub fn shape_of(g: &Graph, layer_of: &[u32], height: usize, nd_width: f64) -> Shape {
    let mut width = vec![0.0f64; height];
    for &l in layer_of {
        width[l as usize] += 1.0;
    }
    // A difference array of dummies: an edge spanning layers lo..hi puts
    // one on each layer strictly between.
    let mut diff = vec![0i64; height + 1];
    let mut dummies = 0u64;
    for &(u, v) in &g.edges {
        let (a, b) = (layer_of[u as usize], layer_of[v as usize]);
        let (lo, hi) = (a.min(b) as usize, a.max(b) as usize);
        if hi > lo + 1 {
            diff[lo + 1] += 1;
            diff[hi] -= 1;
            dummies += (hi - lo - 1) as u64;
        }
    }
    let mut acc = 0i64;
    for (l, w) in width.iter_mut().enumerate() {
        acc += diff[l];
        *w += nd_width * acc as f64;
    }
    Shape {
        height: height as u64,
        width: width.into_iter().fold(0.0, f64::max),
        dummies,
    }
}

/// The checks every layout reply must pass: partition, no edge inside a
/// layer, upward edges equal to `reversed_edges`, and height, width and
/// dummies equal to their recomputation.
pub fn layout(g: &Graph, claim: &Claim<'_>, nd_width: f64) -> Result<(Vec<u32>, Shape), String> {
    let layer_of = partition(g, claim.layers)?;
    let up = upward_edges(g, &layer_of);
    if up != claim.reversed_edges {
        return Err(format!(
            "{up} edges point upward but the reply reversed {}",
            claim.reversed_edges
        ));
    }
    let shape = shape_of(g, &layer_of, claim.layers.len(), nd_width);
    if shape.height != claim.height
        || shape.dummies != claim.dummies
        || (shape.width - claim.width).abs() > 1e-9
    {
        return Err(format!(
            "reply claims height {} width {} dummies {}, layers give {} {} {}",
            claim.height, claim.width, claim.dummies, shape.height, shape.width, shape.dummies
        ));
    }
    Ok((layer_of, shape))
}

/// Longest path, in vertices, of `g` with every edge oriented downward
/// along `layer_of` (which must put no edge inside a layer).
pub fn longest_path(g: &Graph, layer_of: &[u32]) -> u64 {
    // Each edge's lower end, grouped by its upper end (a flat CSR).
    let mut start = vec![0usize; g.n + 1];
    let ends = |&(u, v): &(u32, u32)| {
        if layer_of[u as usize] > layer_of[v as usize] {
            (u as usize, v)
        } else {
            (v as usize, u)
        }
    };
    for e in &g.edges {
        start[ends(e).0 + 1] += 1;
    }
    for i in 0..g.n {
        start[i + 1] += start[i];
    }
    let mut below = vec![0u32; g.edges.len()];
    let mut fill = start.clone();
    for e in &g.edges {
        let (top, bottom) = ends(e);
        below[fill[top]] = bottom;
        fill[top] += 1;
    }
    // Visiting vertices bottom-up makes every lower end final first.
    let mut order: Vec<u32> = (0..g.n as u32).collect();
    order.sort_unstable_by_key(|&v| layer_of[v as usize]);
    let mut len = vec![1u64; g.n];
    for &v in &order {
        let v = v as usize;
        if let Some(best) = below[start[v]..start[v + 1]]
            .iter()
            .map(|&w| len[w as usize])
            .max()
        {
            len[v] = best + 1;
        }
    }
    len.into_iter().max().unwrap_or(0)
}

/// On an `lpl` reply the height is the longest path of the DAG the
/// layering orients.
pub fn lpl_height(g: &Graph, layer_of: &[u32], height: u64) -> Result<(), String> {
    let longest = longest_path(g, layer_of);
    if longest != height {
        return Err(format!("lpl height {height}, longest path {longest}"));
    }
    Ok(())
}

/// The benchmark's own longest-path layering of a DAG whose edges all
/// run from lower to higher ids: sinks on layer 0, every other vertex
/// one above its highest successor.
pub fn own_lpl(g: &Graph) -> Vec<u32> {
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); g.n];
    for &(u, v) in &g.edges {
        debug_assert!(u < v, "own_lpl takes id-ordered DAGs");
        out[u as usize].push(v);
    }
    let mut layer = vec![0u32; g.n];
    for v in (0..g.n).rev() {
        layer[v] = out[v]
            .iter()
            .map(|&w| layer[w as usize] + 1)
            .max()
            .unwrap_or(0);
    }
    layer
}

/// A cold colony reply must cost no more than the longest-path layering
/// it starts from: the colony keeps its best.
pub fn aco_no_worse_than_lpl(g: &Graph, reply: &Shape, nd_width: f64) -> Result<(), String> {
    let lpl = own_lpl(g);
    let height = lpl.iter().max().map_or(0, |&h| h as usize + 1);
    let bound = shape_of(g, &lpl, height, nd_width).cost();
    if reply.cost() > bound + 1e-9 {
        return Err(format!(
            "aco H+W {} exceeds the LPL's {bound}",
            reply.cost()
        ));
    }
    Ok(())
}

/// The reply's `source` must be `want`.
pub fn source(got: &str, want: &str) -> Result<(), String> {
    if got != want {
        return Err(format!("reply source '{got}', expected '{want}'"));
    }
    Ok(())
}

/// A revisit must be a hit with the layers first returned.
pub fn revisit(source_name: &str, layers: &[Vec<u32>], first: &[Vec<u32>]) -> Result<(), String> {
    source(source_name, "hit")?;
    if layers != first {
        return Err("revisit returned other layers than the first reply".into());
    }
    Ok(())
}

/// Live pushes must carry gapless versions.
pub fn next_version(previous: u64, got: u64) -> Result<(), String> {
    if got != previous + 1 {
        return Err(format!("push version {got} after {previous}"));
    }
    Ok(())
}

/// Client-side tallies by source must agree with the program's
/// counters over the same interval.
pub fn tallies(what: &str, client: u64, program: u64) -> Result<(), String> {
    if client != program {
        return Err(format!(
            "{what}: client counted {client}, program {program}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 → 1 → 2 and a shortcut 0 → 2, layered 2 / 1 / 0.
    fn chain() -> (Graph, Vec<Vec<u32>>) {
        let g = Graph {
            n: 3,
            edges: vec![(0, 1), (1, 2), (0, 2)],
        };
        (g, vec![vec![2], vec![1], vec![0]])
    }

    fn claim(layers: &[Vec<u32>]) -> Claim<'_> {
        Claim {
            layers,
            height: 3,
            width: 2.0,
            dummies: 1,
            reversed_edges: 0,
        }
    }

    #[test]
    fn a_correct_reply_passes_every_check() {
        let (g, layers) = chain();
        let (layer_of, shape) = layout(&g, &claim(&layers), 1.0).unwrap();
        lpl_height(&g, &layer_of, shape.height).unwrap();
        aco_no_worse_than_lpl(&g, &shape, 1.0).unwrap();
        revisit("hit", &layers, &layers).unwrap();
        next_version(4, 5).unwrap();
        tallies("hits", 3, 3).unwrap();
        source("computed", "computed").unwrap();
    }

    #[test]
    fn a_missing_or_doubled_node_fails() {
        let (g, _) = chain();
        assert!(layout(&g, &claim(&[vec![2], vec![1]]), 1.0).is_err());
        assert!(layout(&g, &claim(&[vec![2], vec![1, 2], vec![0]]), 1.0).is_err());
        assert!(layout(&g, &claim(&[vec![2], vec![1, 7], vec![0]]), 1.0).is_err());
    }

    #[test]
    fn an_edge_inside_a_layer_fails() {
        let (g, _) = chain();
        let layers = [vec![2], vec![0, 1]];
        let mut c = claim(&layers);
        c.height = 2;
        assert!(layout(&g, &c, 1.0).unwrap_err().contains("inside"));
    }

    #[test]
    fn a_wrong_reversed_count_fails() {
        let (g, layers) = chain();
        let mut c = claim(&layers);
        c.reversed_edges = 1;
        assert!(layout(&g, &c, 1.0).unwrap_err().contains("upward"));
        // Drawn upside down, all three edges point up.
        let flipped: Vec<Vec<u32>> = layers.iter().rev().cloned().collect();
        let mut c = claim(&flipped);
        c.reversed_edges = 0;
        assert!(layout(&g, &c, 1.0).is_err());
    }

    #[test]
    fn wrong_height_width_or_dummies_fail() {
        let (g, layers) = chain();
        for broken in [
            Claim {
                height: 4,
                ..claim(&layers)
            },
            Claim {
                width: 1.0,
                ..claim(&layers)
            },
            Claim {
                dummies: 0,
                ..claim(&layers)
            },
        ] {
            assert!(layout(&g, &broken, 1.0).is_err());
        }
        // The dummy on layer 1 counts at its own width.
        assert!(layout(&g, &claim(&layers), 2.0).is_err());
    }

    #[test]
    fn an_lpl_reply_taller_than_the_longest_path_fails() {
        let g = Graph {
            n: 3,
            edges: vec![(0, 1)],
        };
        // Node 2 is isolated but floats on its own layer: height 3, path 2.
        let layers = vec![vec![1], vec![0], vec![2]];
        let layer_of = partition(&g, &layers).unwrap();
        assert!(lpl_height(&g, &layer_of, 3).is_err());
        assert!(lpl_height(&g, &layer_of, 2).is_ok());
    }

    #[test]
    fn an_aco_reply_worse_than_lpl_fails() {
        let g = Graph {
            n: 3,
            edges: vec![(0, 1)],
        };
        // LPL: {1,2} / {0}, H+W = 4; one vertex per layer costs 3 + 1.
        let tall = Shape {
            height: 3,
            width: 1.0,
            dummies: 0,
        };
        assert!(aco_no_worse_than_lpl(&g, &tall, 1.0).is_ok());
        let worse = Shape {
            height: 3,
            width: 2.0,
            dummies: 0,
        };
        assert!(aco_no_worse_than_lpl(&g, &worse, 1.0).is_err());
    }

    #[test]
    fn a_revisit_that_misses_or_differs_fails() {
        let (_, layers) = chain();
        assert!(revisit("computed", &layers, &layers).is_err());
        let other = vec![vec![2], vec![0], vec![1]];
        assert!(revisit("hit", &other, &layers).is_err());
    }

    #[test]
    fn a_push_gap_or_repeat_fails() {
        assert!(next_version(4, 6).is_err());
        assert!(next_version(4, 4).is_err());
    }

    #[test]
    fn a_cold_corpus_reply_not_computed_fails() {
        assert!(source("hit", "computed").is_err());
        assert!(source("coalesced", "computed").is_err());
    }

    #[test]
    fn tallies_that_disagree_fail() {
        assert!(tallies("hits", 3, 4).is_err());
    }
}
