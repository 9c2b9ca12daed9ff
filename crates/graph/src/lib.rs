//! # antlayer-graph
//!
//! Directed-graph substrate for the `antlayer` project — a from-scratch
//! replacement for the slice of LEDA 5.0 that the IPPS 2007 ACO-layering
//! paper's implementation relied on.
//!
//! The crate provides:
//!
//! * [`DiGraph`] — an immutable simple digraph with dense `u32` node ids,
//!   built in one pass from an edge list, with flat forward/reverse
//!   adjacency (structure-of-arrays: payloads live in [`NodeVec`] side
//!   tables, not inside the graph).
//! * [`Dag`] — a digraph whose acyclicity is proven at construction, carrying
//!   a cached topological order. All layering algorithms take a `Dag`.
//! * [`CsrView`] / [`Adjacency`] — the flat compressed-sparse-row adjacency
//!   (both directions) a `DiGraph` stores, and the representation-agnostic
//!   neighbor-scan trait shared with `DiGraph`/`Dag`.
//! * [`GraphDelta`] — validated edge diffs (add/remove) with inverses, the
//!   substrate of the serving layer's incremental re-layout.
//! * Topological algorithms ([`topological_sort`], [`longest_path_to_sink`],
//!   …) and traversals ([`Bfs`], [`Dfs`], [`weak_components`]).
//! * Seeded random DAG [`generators`](generate) used by the benchmark suite.
//! * [`io::dot`] and [`io::gml`] readers/writers (GML is the format of the
//!   AT&T/Rome graphs the paper evaluated on).
//!
//! ## Quick start
//! ```
//! use antlayer_graph::{Dag, GraphStats};
//!
//! let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
//! assert_eq!(GraphStats::of(&dag).longest_path, Some(2));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod acyclic;
mod csr;
mod delta;
mod digraph;
mod error;
pub mod generate;
mod id;
pub mod io;
mod scc;
mod stats;
mod topo;
mod traversal;

pub use acyclic::Dag;
pub use csr::{Adjacency, CsrView};
pub use delta::{DeltaError, GraphDelta};
pub use digraph::DiGraph;
pub use error::{GraphError, ParseError};
pub use id::{EdgeId, NodeId, NodeSet, NodeVec};
pub use scc::{condensation, strongly_connected_components};
pub use stats::GraphStats;
pub use topo::{
    critical_path_length, is_acyclic, longest_path_from_source, longest_path_to_sink,
    topological_sort,
};
pub use traversal::{is_weakly_connected, reachable_set, weak_components, Bfs, Dfs, Direction};
