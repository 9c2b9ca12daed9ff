//! GML (Graph Modelling Language) reading and writing.
//!
//! This is the format of the AT&T / Rome graphs from graphdrawing.org that
//! the paper's evaluation used. Supported structure:
//!
//! ```text
//! graph [
//!   directed 1
//!   node [ id 3 label "..." ... ]
//!   edge [ source 3 target 5 ... ]
//! ]
//! ```
//!
//! Unknown keys and nested sections are skipped. Node `id`s may be arbitrary
//! integers; they are mapped to dense [`NodeId`]s in order of appearance.

use crate::{DiGraph, GraphError, NodeId, ParseError};
use std::collections::HashMap;
use std::fmt::Write as _;

/// A graph parsed from GML: structure plus original ids/labels.
#[derive(Clone, Debug)]
pub struct GmlGraph {
    /// The structure.
    pub graph: DiGraph,
    /// `original_ids[v]` is the GML `id` of node `v`.
    pub original_ids: Vec<i64>,
    /// `labels[v]` is the GML `label` of node `v` (empty when absent).
    pub labels: Vec<String>,
    /// Whether the file declared `directed 1`.
    pub directed: bool,
}

/// Serialises a graph to GML, labelling nodes with `label(v)`.
pub fn write_gml(g: &DiGraph, mut label: impl FnMut(NodeId) -> String) -> String {
    let mut out = String::with_capacity(64 + 32 * (g.node_count() + g.edge_count()));
    out.push_str("graph [\n  directed 1\n");
    for v in g.nodes() {
        let _ = writeln!(
            out,
            "  node [\n    id {}\n    label \"{}\"\n  ]",
            v.index(),
            label(v).replace('"', "'")
        );
    }
    for (u, v) in g.edges() {
        let _ = writeln!(
            out,
            "  edge [\n    source {}\n    target {}\n  ]",
            u.index(),
            v.index()
        );
    }
    out.push_str("]\n");
    out
}

#[derive(Clone, PartialEq, Debug)]
enum Tok {
    Key(String),
    Int(i64),
    Real(f64),
    Str(String),
    LBracket,
    RBracket,
}

fn tokenize(src: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let mut toks = Vec::new();
    let mut line = 1usize;
    let bytes = src.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'[' => {
                toks.push((Tok::LBracket, line));
                i += 1;
            }
            b']' => {
                toks.push((Tok::RBracket, line));
                i += 1;
            }
            b'"' => {
                i += 1;
                let start = i;
                while i < bytes.len() && bytes[i] != b'"' {
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(ParseError::new(line, 1, "unterminated string"));
                }
                toks.push((Tok::Str(src[start..i].to_string()), line));
                i += 1;
            }
            c if c == b'-' || c == b'+' || c.is_ascii_digit() => {
                let start = i;
                i += 1;
                let mut is_real = false;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E'
                        || bytes[i] == b'-'
                        || bytes[i] == b'+')
                {
                    if bytes[i] == b'.' || bytes[i] == b'e' || bytes[i] == b'E' {
                        is_real = true;
                    }
                    i += 1;
                }
                let text = &src[start..i];
                if is_real {
                    let v = text
                        .parse::<f64>()
                        .map_err(|_| ParseError::new(line, 1, format!("bad number '{text}'")))?;
                    toks.push((Tok::Real(v), line));
                } else {
                    let v = text
                        .parse::<i64>()
                        .map_err(|_| ParseError::new(line, 1, format!("bad integer '{text}'")))?;
                    toks.push((Tok::Int(v), line));
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                toks.push((Tok::Key(src[start..i].to_string()), line));
            }
            other => {
                return Err(ParseError::new(
                    line,
                    1,
                    format!("unexpected character '{}'", other as char),
                ))
            }
        }
    }
    Ok(toks)
}

/// Skips one value (scalar or bracketed section) starting at `*i`.
fn skip_value(toks: &[(Tok, usize)], i: &mut usize) -> Result<(), ParseError> {
    match toks.get(*i) {
        Some((Tok::LBracket, _)) => {
            *i += 1;
            let mut depth = 1usize;
            while depth > 0 {
                match toks.get(*i) {
                    Some((Tok::LBracket, _)) => depth += 1,
                    Some((Tok::RBracket, _)) => depth -= 1,
                    Some(_) => {}
                    None => return Err(ParseError::new(0, 0, "unterminated section")),
                }
                *i += 1;
            }
            Ok(())
        }
        Some(_) => {
            *i += 1;
            Ok(())
        }
        None => Err(ParseError::new(0, 0, "expected value, got EOF")),
    }
}

#[derive(Default)]
struct NodeRec {
    id: Option<i64>,
    label: String,
}

#[derive(Default)]
struct EdgeRec {
    source: Option<i64>,
    target: Option<i64>,
}

/// Parses a GML graph file.
///
/// Undirected files (`directed 0` or absent) are accepted; edge direction is
/// then taken from source→target order, which matches how the Rome test
/// suite is used for layering experiments.
pub fn parse_gml(src: &str) -> Result<GmlGraph, GraphError> {
    let toks = tokenize(src)?;
    let mut i = 0usize;
    // find `graph [`
    loop {
        match toks.get(i) {
            Some((Tok::Key(k), _)) if k == "graph" => {
                i += 1;
                break;
            }
            Some(_) => i += 1,
            None => return Err(ParseError::new(0, 0, "no 'graph [' section found").into()),
        }
    }
    match toks.get(i) {
        Some((Tok::LBracket, _)) => i += 1,
        _ => return Err(ParseError::new(0, 0, "expected '[' after 'graph'").into()),
    }

    let mut directed = false;
    let mut nodes: Vec<NodeRec> = Vec::new();
    let mut edges: Vec<EdgeRec> = Vec::new();

    while let Some((tok, line)) = toks.get(i) {
        match tok {
            Tok::RBracket => {
                break;
            }
            Tok::Key(k) if k == "directed" => {
                i += 1;
                if let Some((Tok::Int(v), _)) = toks.get(i) {
                    directed = *v != 0;
                    i += 1;
                } else {
                    return Err(ParseError::new(*line, 1, "expected 0/1 after 'directed'").into());
                }
            }
            Tok::Key(k) if k == "node" => {
                i += 1;
                let mut rec = NodeRec::default();
                parse_section(&toks, &mut i, |key, val| match (key, val) {
                    ("id", Val::Int(v)) => rec.id = Some(v),
                    ("label", Val::Str(s)) => rec.label = s,
                    _ => {}
                })?;
                nodes.push(rec);
            }
            Tok::Key(k) if k == "edge" => {
                i += 1;
                let mut rec = EdgeRec::default();
                parse_section(&toks, &mut i, |key, val| match (key, val) {
                    ("source", Val::Int(v)) => rec.source = Some(v),
                    ("target", Val::Int(v)) => rec.target = Some(v),
                    _ => {}
                })?;
                edges.push(rec);
            }
            Tok::Key(_) => {
                i += 1;
                skip_value(&toks, &mut i)?;
            }
            _ => return Err(ParseError::new(*line, 1, "expected key or ']'").into()),
        }
    }

    let node_count = nodes.len();
    let mut original_ids = Vec::with_capacity(nodes.len());
    let mut labels = Vec::with_capacity(nodes.len());
    let mut by_gml_id: HashMap<i64, NodeId> = HashMap::new();
    for rec in nodes {
        let gml_id = rec
            .id
            .ok_or_else(|| ParseError::new(0, 0, "node without id"))?;
        if by_gml_id.contains_key(&gml_id) {
            return Err(ParseError::new(0, 0, format!("duplicate node id {gml_id}")).into());
        }
        by_gml_id.insert(gml_id, NodeId::new(by_gml_id.len()));
        original_ids.push(gml_id);
        labels.push(rec.label);
    }
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(edges.len());
    for rec in edges {
        let s = rec
            .source
            .ok_or_else(|| ParseError::new(0, 0, "edge without source"))?;
        let t = rec
            .target
            .ok_or_else(|| ParseError::new(0, 0, "edge without target"))?;
        let (Some(&u), Some(&v)) = (by_gml_id.get(&s), by_gml_id.get(&t)) else {
            return Err(
                ParseError::new(0, 0, format!("edge refers to unknown node {s} or {t}")).into(),
            );
        };
        // Self-loops are tolerated in inputs and dropped.
        if u != v {
            pairs.push((u.raw(), v.raw()));
        }
    }
    // Repeated edges are tolerated too: each pair keeps its first occurrence.
    let graph = DiGraph::from_edges_dedup(node_count, &pairs)?;
    Ok(GmlGraph {
        graph,
        original_ids,
        labels,
        directed,
    })
}

enum Val {
    Int(i64),
    Str(String),
}

/// Parses a `[ key value ... ]` section, calling `on_kv` for scalar pairs.
fn parse_section(
    toks: &[(Tok, usize)],
    i: &mut usize,
    mut on_kv: impl FnMut(&str, Val),
) -> Result<(), ParseError> {
    match toks.get(*i) {
        Some((Tok::LBracket, _)) => *i += 1,
        Some((_, line)) => return Err(ParseError::new(*line, 1, "expected '['")),
        None => return Err(ParseError::new(0, 0, "expected '[', got EOF")),
    }
    loop {
        match toks.get(*i) {
            Some((Tok::RBracket, _)) => {
                *i += 1;
                return Ok(());
            }
            Some((Tok::Key(k), _)) => {
                *i += 1;
                match toks.get(*i) {
                    Some((Tok::Int(v), _)) => {
                        on_kv(k, Val::Int(*v));
                        *i += 1;
                    }
                    Some((Tok::Real(_), _)) => {
                        *i += 1;
                    }
                    Some((Tok::Str(s), _)) => {
                        on_kv(k, Val::Str(s.clone()));
                        *i += 1;
                    }
                    Some((Tok::LBracket, _)) => skip_value(toks, i)?,
                    Some((_, line)) => return Err(ParseError::new(*line, 1, "expected value")),
                    None => return Err(ParseError::new(0, 0, "expected value, got EOF")),
                }
            }
            Some((_, line)) => return Err(ParseError::new(*line, 1, "expected key or ']'")),
            None => return Err(ParseError::new(0, 0, "unterminated section")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# a Rome-like file
graph [
  directed 1
  node [ id 10 label "a" ]
  node [ id 20 label "b" graphics [ x 1.5 y 2.5 ] ]
  node [ id 30 ]
  edge [ source 10 target 20 ]
  edge [ source 20 target 30 label "e" ]
]
"#;

    #[test]
    fn parses_nodes_edges_labels() {
        let g = parse_gml(SAMPLE).unwrap();
        assert!(g.directed);
        assert_eq!(g.graph.node_count(), 3);
        assert_eq!(g.graph.edge_count(), 2);
        assert_eq!(g.original_ids, vec![10, 20, 30]);
        assert_eq!(g.labels[0], "a");
        assert_eq!(g.labels[2], "");
    }

    #[test]
    fn skips_nested_unknown_sections() {
        let g = parse_gml(SAMPLE).unwrap();
        // graphics [...] inside node 20 must not derail parsing.
        assert_eq!(g.original_ids[1], 20);
    }

    #[test]
    fn arbitrary_ids_are_remapped_densely() {
        let src = "graph [ node [ id 1000 ] node [ id -5 ] edge [ source 1000 target -5 ] ]";
        let g = parse_gml(src).unwrap();
        assert_eq!(g.graph.edge_count(), 1);
        assert!(g.graph.has_edge(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn rejects_duplicate_ids() {
        let src = "graph [ node [ id 1 ] node [ id 1 ] ]";
        assert!(parse_gml(src).is_err());
    }

    #[test]
    fn rejects_edge_to_unknown_node() {
        let src = "graph [ node [ id 1 ] edge [ source 1 target 2 ] ]";
        assert!(parse_gml(src).is_err());
    }

    #[test]
    fn rejects_missing_graph_section() {
        assert!(parse_gml("node [ id 1 ]").is_err());
    }

    #[test]
    fn tolerates_duplicate_and_self_loop_edges() {
        let src = "graph [ node [ id 1 ] node [ id 2 ] \
                   edge [ source 1 target 2 ] edge [ source 1 target 2 ] \
                   edge [ source 1 target 1 ] ]";
        let g = parse_gml(src).unwrap();
        assert_eq!(g.graph.edge_count(), 1);
    }

    #[test]
    fn undirected_flag_reported() {
        let src = "graph [ directed 0 node [ id 1 ] ]";
        let g = parse_gml(src).unwrap();
        assert!(!g.directed);
    }

    #[test]
    fn roundtrip_write_then_parse() {
        let g0 = DiGraph::from_edges(4, &[(0, 1), (1, 2), (1, 3)]).unwrap();
        let text = write_gml(&g0, |v| format!("v{}", v.index()));
        let parsed = parse_gml(&text).unwrap();
        assert_eq!(parsed.graph.node_count(), 4);
        assert_eq!(parsed.graph.edge_count(), 3);
        assert_eq!(parsed.labels[3], "v3");
        for (u, v) in g0.edges() {
            assert!(parsed.graph.has_edge(u, v));
        }
    }

    #[test]
    fn reals_and_comments_are_skipped() {
        let src = "# header\ngraph [ node [ id 1 w 3.25 ] node [ id 2 ] edge [ source 1 target 2 weight 0.5 ] ]";
        let g = parse_gml(src).unwrap();
        assert_eq!(g.graph.edge_count(), 1);
    }
}
