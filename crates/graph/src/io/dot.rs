//! Graphviz DOT reading and writing (directed graphs, subset).
//!
//! Supported input grammar (a pragmatic subset of DOT):
//!
//! ```text
//! digraph NAME? {
//!     stmt*            // statements, optionally ';'-terminated
//! }
//! stmt := node_id (-> node_id)* attr_list?
//!       | node_id attr_list?           // bare node declaration
//! node_id := identifier | "quoted string" | number
//! attr_list := '[' ... ']'             // attributes are skipped
//! ```
//!
//! Comments (`//…`, `#…`, `/*…*/`) are ignored. Node names are arbitrary
//! strings; they are assigned dense [`NodeId`]s in order of first appearance.

use crate::{DiGraph, GraphError, NodeId, ParseError};
use std::collections::HashMap;
use std::fmt::Write as _;

/// A digraph plus the node names it was parsed with.
#[derive(Clone, Debug)]
pub struct NamedGraph {
    /// The structure.
    pub graph: DiGraph,
    /// `names[v]` is the DOT identifier of node `v`.
    pub names: Vec<String>,
}

impl NamedGraph {
    /// Looks up a node by name (linear scan; parsing keeps its own map).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.iter().position(|n| n == name).map(NodeId::new)
    }
}

/// Serialises `g` to DOT. `name(v)` provides node labels.
pub fn write_dot(g: &DiGraph, mut name: impl FnMut(NodeId) -> String) -> String {
    let mut out = String::with_capacity(32 + 16 * g.edge_count());
    out.push_str("digraph G {\n");
    for v in g.nodes() {
        let _ = writeln!(out, "  \"{}\";", escape(&name(v)));
    }
    for (u, v) in g.edges() {
        let _ = writeln!(
            out,
            "  \"{}\" -> \"{}\";",
            escape(&name(u)),
            escape(&name(v))
        );
    }
    out.push_str("}\n");
    out
}

/// Serialises `g` to DOT with nodes labelled by their numeric id.
pub fn write_dot_ids(g: &DiGraph) -> String {
    write_dot(g, |v| v.index().to_string())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[derive(Clone, PartialEq, Debug)]
enum Tok {
    Ident(String),
    Arrow,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Equals,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.line, self.col, msg)
    }

    fn bump(&mut self) -> Option<u8> {
        let c = *self.src.get(self.pos)?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn skip_trivia(&mut self) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'#') => {
                    while let Some(c) = self.bump() {
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                Some(b'/') => match self.src.get(self.pos + 1) {
                    Some(b'/') => {
                        while let Some(c) = self.bump() {
                            if c == b'\n' {
                                break;
                            }
                        }
                    }
                    Some(b'*') => {
                        self.bump();
                        self.bump();
                        loop {
                            match self.bump() {
                                Some(b'*') if self.peek() == Some(b'/') => {
                                    self.bump();
                                    break;
                                }
                                Some(_) => {}
                                None => return Err(self.error("unterminated block comment")),
                            }
                        }
                    }
                    _ => return Ok(()),
                },
                _ => return Ok(()),
            }
        }
    }

    fn next_token(&mut self) -> Result<Option<(Tok, usize, usize)>, ParseError> {
        self.skip_trivia()?;
        let (line, col) = (self.line, self.col);
        let Some(c) = self.peek() else {
            return Ok(None);
        };
        let tok = match c {
            b'{' => {
                self.bump();
                Tok::LBrace
            }
            b'}' => {
                self.bump();
                Tok::RBrace
            }
            b'[' => {
                self.bump();
                Tok::LBracket
            }
            b']' => {
                self.bump();
                Tok::RBracket
            }
            b';' => {
                self.bump();
                Tok::Semi
            }
            b',' => {
                self.bump();
                Tok::Comma
            }
            b'=' => {
                self.bump();
                Tok::Equals
            }
            b'-' => {
                self.bump();
                match self.bump() {
                    Some(b'>') => Tok::Arrow,
                    _ => return Err(ParseError::new(line, col, "expected '->'")),
                }
            }
            b'"' => {
                self.bump();
                let mut s = String::new();
                loop {
                    match self.bump() {
                        Some(b'"') => break,
                        Some(b'\\') => match self.bump() {
                            Some(c2) => s.push(c2 as char),
                            None => return Err(self.error("unterminated string")),
                        },
                        Some(c2) => s.push(c2 as char),
                        None => return Err(self.error("unterminated string")),
                    }
                }
                Tok::Ident(s)
            }
            c if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' => {
                let mut s = String::new();
                while let Some(c2) = self.peek() {
                    if c2.is_ascii_alphanumeric() || c2 == b'_' || c2 == b'.' {
                        s.push(c2 as char);
                        self.bump();
                    } else {
                        break;
                    }
                }
                Tok::Ident(s)
            }
            other => {
                return Err(ParseError::new(
                    line,
                    col,
                    format!("unexpected character '{}'", other as char),
                ))
            }
        };
        Ok(Some((tok, line, col)))
    }
}

/// Parses a DOT digraph (see module docs for the supported subset).
pub fn parse_dot(src: &str) -> Result<NamedGraph, GraphError> {
    let mut lx = Lexer::new(src);
    let mut toks = Vec::new();
    while let Some(t) = lx.next_token()? {
        toks.push(t);
    }
    let mut i = 0usize;
    let expect_ident = |toks: &[(Tok, usize, usize)], i: &mut usize, what: &str| match toks.get(*i)
    {
        Some((Tok::Ident(s), _, _)) => {
            *i += 1;
            Ok(s.clone())
        }
        Some((_, l, c)) => Err(ParseError::new(*l, *c, format!("expected {what}"))),
        None => Err(ParseError::new(0, 0, format!("expected {what}, got EOF"))),
    };

    // Header: digraph NAME? {
    let kw = expect_ident(&toks, &mut i, "'digraph'")?;
    if kw != "digraph" {
        return Err(ParseError::new(1, 1, "only 'digraph' inputs are supported").into());
    }
    if matches!(toks.get(i), Some((Tok::Ident(_), _, _))) {
        i += 1; // optional graph name
    }
    match toks.get(i) {
        Some((Tok::LBrace, _, _)) => i += 1,
        Some((_, l, c)) => return Err(ParseError::new(*l, *c, "expected '{'").into()),
        None => return Err(ParseError::new(0, 0, "expected '{', got EOF").into()),
    }

    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut by_name: HashMap<String, NodeId> = HashMap::new();
    let intern = |names: &mut Vec<String>, by_name: &mut HashMap<String, NodeId>, name: String| {
        *by_name.entry(name.clone()).or_insert_with(|| {
            names.push(name);
            NodeId::new(names.len() - 1)
        })
    };
    let skip_attrs = |toks: &[(Tok, usize, usize)], i: &mut usize| -> Result<(), ParseError> {
        if matches!(toks.get(*i), Some((Tok::LBracket, _, _))) {
            let mut depth = 0usize;
            loop {
                match toks.get(*i) {
                    Some((Tok::LBracket, _, _)) => {
                        depth += 1;
                        *i += 1;
                    }
                    Some((Tok::RBracket, _, _)) => {
                        depth -= 1;
                        *i += 1;
                        if depth == 0 {
                            return Ok(());
                        }
                    }
                    Some((_, _, _)) => *i += 1,
                    None => return Err(ParseError::new(0, 0, "unterminated attribute list")),
                }
            }
        }
        Ok(())
    };

    // Anonymous subgraph blocks `{ ... }` (e.g. rank=same groups) share the
    // enclosing graph's namespace; we only track nesting depth.
    let mut depth = 0usize;
    loop {
        match toks.get(i) {
            Some((Tok::RBrace, _, _)) => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
                i += 1;
            }
            Some((Tok::LBrace, _, _)) => {
                depth += 1;
                i += 1;
            }
            Some((Tok::Semi, _, _)) => {
                i += 1;
            }
            Some((Tok::Ident(name), _, _)) => {
                // Skip graph-level attribute statements: ident = ident.
                if matches!(toks.get(i + 1), Some((Tok::Equals, _, _))) {
                    i += 2;
                    expect_ident(&toks, &mut i, "attribute value")?;
                    continue;
                }
                let mut prev = intern(&mut names, &mut by_name, name.clone());
                i += 1;
                skip_attrs(&toks, &mut i)?;
                while matches!(toks.get(i), Some((Tok::Arrow, _, _))) {
                    i += 1;
                    let next_name = expect_ident(&toks, &mut i, "node after '->'")?;
                    let next = intern(&mut names, &mut by_name, next_name);
                    skip_attrs(&toks, &mut i)?;
                    if prev == next {
                        return Err(GraphError::SelfLoop(prev));
                    }
                    edges.push((prev.raw(), next.raw()));
                    prev = next;
                }
            }
            Some((_, l, c)) => {
                return Err(ParseError::new(*l, *c, "expected statement or '}'").into())
            }
            None => return Err(ParseError::new(0, 0, "missing closing '}'").into()),
        }
    }
    // Tolerate repeated edges in the input (DOT multigraphs): the
    // substrate stores simple digraphs.
    let graph = DiGraph::from_edges_dedup(names.len(), &edges)?;
    Ok(NamedGraph { graph, names })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_digraph() {
        let g = parse_dot("digraph { a -> b; b -> c; }").unwrap();
        assert_eq!(g.graph.node_count(), 3);
        assert_eq!(g.graph.edge_count(), 2);
        assert_eq!(g.names, vec!["a", "b", "c"]);
    }

    #[test]
    fn parses_chains_and_reuses_nodes() {
        let g = parse_dot("digraph X { a -> b -> c a -> c }").unwrap();
        assert_eq!(g.graph.node_count(), 3);
        assert_eq!(g.graph.edge_count(), 3);
        let a = g.node_by_name("a").unwrap();
        let c = g.node_by_name("c").unwrap();
        assert!(g.graph.has_edge(a, c));
    }

    #[test]
    fn parses_quoted_names_and_attrs() {
        let src = r#"
            digraph {
                rankdir = TB;
                "node one" [shape=box, label="N 1"];
                "node one" -> x [weight=2];
            }
        "#;
        let g = parse_dot(src).unwrap();
        assert_eq!(g.graph.node_count(), 2);
        assert!(g.node_by_name("node one").is_some());
    }

    #[test]
    fn ignores_comments() {
        let src = "digraph { // line\n# hash\n/* block */ a -> b }";
        let g = parse_dot(src).unwrap();
        assert_eq!(g.graph.edge_count(), 1);
    }

    #[test]
    fn anonymous_subgraph_blocks_share_the_namespace() {
        let src = r#"digraph {
            { rank=same; a; b; }
            { rank=same; c; }
            a -> c; b -> c;
        }"#;
        let g = parse_dot(src).unwrap();
        assert_eq!(g.graph.node_count(), 3);
        assert_eq!(g.graph.edge_count(), 2);
        // Nested blocks are fine too.
        let nested = parse_dot("digraph { { { x -> y } } }").unwrap();
        assert_eq!(nested.graph.edge_count(), 1);
    }

    #[test]
    fn unterminated_subgraph_is_an_error() {
        assert!(parse_dot("digraph { { a ").is_err());
    }

    #[test]
    fn duplicate_edges_are_tolerated() {
        let g = parse_dot("digraph { a -> b; a -> b; }").unwrap();
        assert_eq!(g.graph.edge_count(), 1);
    }

    #[test]
    fn rejects_undirected_graph() {
        assert!(parse_dot("graph { a -- b }").is_err());
    }

    #[test]
    fn rejects_garbage_with_position() {
        let err = parse_dot("digraph { a -> }").unwrap_err();
        let GraphError::Parse(p) = err else {
            panic!("expected parse error")
        };
        assert!(p.message.contains("node after '->'"), "{p}");
    }

    #[test]
    fn rejects_unterminated() {
        assert!(parse_dot("digraph { a -> b").is_err());
        assert!(parse_dot("digraph { \"abc }").is_err());
    }

    #[test]
    fn roundtrip_write_then_parse() {
        let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (2, 3)]).unwrap();
        let dot = write_dot_ids(&g);
        let parsed = parse_dot(&dot).unwrap();
        assert_eq!(parsed.graph.node_count(), 4);
        assert_eq!(parsed.graph.edge_count(), 3);
        // Names are ids, so structure must match exactly after renumbering.
        for (u, v) in g.edges() {
            let pu = parsed.node_by_name(&u.index().to_string()).unwrap();
            let pv = parsed.node_by_name(&v.index().to_string()).unwrap();
            assert!(parsed.graph.has_edge(pu, pv));
        }
    }

    #[test]
    fn write_escapes_quotes() {
        let g = DiGraph::from_edges(1, &[]).unwrap();
        let dot = write_dot(&g, |_| "we \"quote\"".to_string());
        assert!(dot.contains("\\\""));
        assert!(parse_dot(&dot).is_ok());
    }

    #[test]
    fn self_loop_in_input_is_error() {
        assert!(parse_dot("digraph { a -> a }").is_err());
    }
}
