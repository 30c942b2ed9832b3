//! # stg-graph
//!
//! Graph substrate for the streaming task graph scheduler: an arena-based
//! DAG ([`Dag`]), exact rational arithmetic ([`Ratio`]) for streaming
//! intervals and production rates, and the graph algorithms the paper's
//! analyses rely on — topological orders and levels, weakly connected
//! components over edge subsets (Theorem 4.1), undirected-cycle node
//! detection (Section 6), longest paths / bottom levels (the NSTR-SCH
//! baseline priority), and DAG condensation (the supernode DAG `H` of
//! Section 4.2.3).

#![warn(missing_docs)]

pub mod algo;
pub mod cycles;
pub mod dag;
pub mod ratio;
pub mod topo;
pub mod wcc;

pub use algo::{
    bottom_levels, condense, critical_path_length, reachable_from, strongly_connected_components,
    top_levels,
};
pub use cycles::{edge_set_cycle_nodes, undirected_cycle_nodes, CycleNodes, CycleScratch};
pub use dag::{Dag, Edge, EdgeId, NodeId};
pub use ratio::Ratio;
pub use topo::{is_acyclic, levels, topological_order, CycleError};
pub use wcc::{wcc_over_nodes, weakly_connected_components, UnionFind};
