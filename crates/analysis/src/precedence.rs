//! Compute-task precedence closure.
//!
//! Both the partitioning heuristics and the non-streaming baseline reason
//! about precedence between *compute* tasks, with source/sink/buffer nodes
//! collapsed into edges: task `a` precedes task `b` if the canonical graph
//! has a path `a → … → b` whose interior nodes are all non-compute.

use stg_graph::{topological_order, Dag, NodeId};
use stg_model::CanonicalGraph;

/// The compute-task precedence DAG. Node payloads are the original
/// [`NodeId`]s in the canonical graph; an index map is provided for the
/// reverse direction.
#[derive(Clone, Debug)]
pub struct TaskPrecedence {
    /// Precedence DAG over compute tasks (payload = original node id).
    pub dag: Dag<NodeId, ()>,
    /// `task_of[orig.index()]` = node id in `dag`, for compute nodes.
    pub task_of: Vec<Option<NodeId>>,
}

impl TaskPrecedence {
    /// Builds the precedence closure of `g`'s compute tasks.
    pub fn build(g: &CanonicalGraph) -> TaskPrecedence {
        let dag = g.dag();
        let n = dag.node_count();
        let mut task_of: Vec<Option<NodeId>> = vec![None; n];
        let mut out: Dag<NodeId, ()> = Dag::new();
        for v in g.compute_nodes() {
            task_of[v.index()] = Some(out.add_node(v));
        }
        // Frontier of nearest compute ancestors for each non-compute node.
        let order = topological_order(dag).expect("canonical graphs are acyclic");
        let mut frontier: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        // Every edge into task `tv` is added while `tv` is visited, so a
        // source task whose last added edge already ends at `tv` would
        // repeat that edge: `last_target[tu]` removes duplicates exactly.
        // (`u32::MAX` is no task's id: that would take 2^32 tasks.)
        let mut last_target: Vec<u32> = vec![u32::MAX; out.node_count()];
        for &v in &order {
            if let Some(tv) = task_of[v.index()] {
                let mut add = |tu: NodeId| {
                    if last_target[tu.index()] != tv.0 {
                        last_target[tu.index()] = tv.0;
                        out.add_edge(tu, tv, ());
                    }
                };
                for u in dag.predecessors(v) {
                    if let Some(tu) = task_of[u.index()] {
                        add(tu);
                    } else {
                        for &a in &frontier[u.index()] {
                            add(task_of[a.index()].expect("frontier holds compute nodes"));
                        }
                    }
                }
            } else {
                let mut f: Vec<NodeId> = Vec::new();
                for u in dag.predecessors(v) {
                    if task_of[u.index()].is_some() {
                        f.push(u);
                    } else {
                        f.extend_from_slice(&frontier[u.index()]);
                    }
                }
                f.sort_unstable();
                f.dedup();
                frontier[v.index()] = f;
            }
        }
        TaskPrecedence { dag: out, task_of }
    }

    /// The precedence-DAG id of an original compute node.
    pub fn task(&self, orig: NodeId) -> Option<NodeId> {
        self.task_of.get(orig.index()).copied().flatten()
    }

    /// The original node id of a precedence-DAG node.
    pub fn original(&self, task: NodeId) -> NodeId {
        *self.dag.node(task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stg_model::Builder;
    use stg_workloads::{WorkloadFamily, WorkloadKind};

    /// The edge list of the precedence DAG as it was built before the
    /// per-source stamps: duplicates removed through a set of every edge
    /// added so far.
    fn oracle_edges(g: &CanonicalGraph) -> Vec<(NodeId, NodeId)> {
        let dag = g.dag();
        let n = dag.node_count();
        let mut task_of: Vec<Option<NodeId>> = vec![None; n];
        for (i, v) in g.compute_nodes().enumerate() {
            task_of[v.index()] = Some(NodeId(i as u32));
        }
        let order = topological_order(dag).expect("canonical graphs are acyclic");
        let mut frontier: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut edge_seen = std::collections::HashSet::new();
        let mut edges = Vec::new();
        for &v in &order {
            if let Some(tv) = task_of[v.index()] {
                for u in dag.predecessors(v) {
                    if let Some(tu) = task_of[u.index()] {
                        if edge_seen.insert((tu, tv)) {
                            edges.push((tu, tv));
                        }
                    } else {
                        for &a in &frontier[u.index()] {
                            let ta = task_of[a.index()].expect("frontier holds compute nodes");
                            if edge_seen.insert((ta, tv)) {
                                edges.push((ta, tv));
                            }
                        }
                    }
                }
            } else {
                let mut f: Vec<NodeId> = Vec::new();
                for u in dag.predecessors(v) {
                    if task_of[u.index()].is_some() {
                        f.push(u);
                    } else {
                        f.extend_from_slice(&frontier[u.index()]);
                    }
                }
                f.sort_unstable();
                f.dedup();
                frontier[v.index()] = f;
            }
        }
        edges
    }

    /// The edges of `TaskPrecedence::build(g)`, in insertion order.
    fn built_edges(g: &CanonicalGraph) -> Vec<(NodeId, NodeId)> {
        let p = TaskPrecedence::build(g);
        p.dag.edges().map(|(_, e)| (e.src, e.dst)).collect()
    }

    #[test]
    fn every_registered_family_builds_the_oracle_edges() {
        for kind in WorkloadKind::registered() {
            for seed in 0..3 {
                let g = kind.build(seed);
                assert_eq!(
                    built_edges(&g),
                    oracle_edges(&g),
                    "{} seed {seed}",
                    kind.spec()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random DAGs whose nodes are half buffers: buffer chains, fans
        /// through buffers and parallel edges all reach the deduplication.
        #[test]
        fn random_graphs_with_buffer_chains_build_the_oracle_edges(
            seed in any::<u64>(),
            n in 2usize..40,
            m in 0usize..120,
        ) {
            // SplitMix64 over the seed draws node kinds and edges.
            let mut state = seed;
            let mut next = move || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as usize
            };
            let mut b = Builder::new();
            let ids: Vec<NodeId> = (0..n)
                .map(|i| match next() % 2 {
                    0 => b.buffer(format!("b{i}")),
                    _ => b.compute(format!("t{i}")),
                })
                .collect();
            for _ in 0..m {
                let (x, y) = (next() % n, next() % n);
                if x != y {
                    b.edge(ids[x.min(y)], ids[x.max(y)], 1);
                }
            }
            let g = b.finish_unchecked();
            prop_assert_eq!(built_edges(&g), oracle_edges(&g));
        }
    }

    #[test]
    fn direct_edges_preserved() {
        let mut b = Builder::new();
        let t0 = b.compute("t0");
        let t1 = b.compute("t1");
        b.edge(t0, t1, 8);
        let g = b.finish().unwrap();
        let p = TaskPrecedence::build(&g);
        assert_eq!(p.dag.node_count(), 2);
        assert_eq!(p.dag.edge_count(), 1);
        let (e0, e) = p.dag.edges().next().map(|(i, e)| (i, e.clone())).unwrap();
        let _ = e0;
        assert_eq!(p.original(e.src), t0);
        assert_eq!(p.original(e.dst), t1);
    }

    #[test]
    fn buffers_collapse_into_edges() {
        // t0 -> B -> t1 and t0 -> B2 -> t1: single precedence edge.
        let mut b = Builder::new();
        let t0 = b.compute("t0");
        let b1 = b.buffer("B1");
        let b2 = b.buffer("B2");
        let t1 = b.compute("t1");
        b.edge(t0, b1, 8);
        b.edge(t0, b2, 8);
        b.edge(b1, t1, 8);
        b.edge(b2, t1, 8);
        let g = b.finish().unwrap();
        let p = TaskPrecedence::build(&g);
        assert_eq!(p.dag.edge_count(), 1);
    }

    #[test]
    fn sources_and_sinks_do_not_create_precedence() {
        // src -> t0, src -> t1: t0 and t1 are independent tasks.
        let mut b = Builder::new();
        let s = b.source("s");
        let t0 = b.compute("t0");
        let t1 = b.compute("t1");
        let k0 = b.sink("k0");
        let k1 = b.sink("k1");
        b.edge(s, t0, 8);
        b.edge(s, t1, 8);
        b.edge(t0, k0, 8);
        b.edge(t1, k1, 8);
        let g = b.finish().unwrap();
        let p = TaskPrecedence::build(&g);
        assert_eq!(p.dag.node_count(), 2);
        assert_eq!(p.dag.edge_count(), 0);
    }

    #[test]
    fn buffer_chains_collapse() {
        // t0 -> B -> B2 -> t1.
        let mut b = Builder::new();
        let t0 = b.compute("t0");
        let b1 = b.buffer("B1");
        let b2 = b.buffer("B2");
        let t1 = b.compute("t1");
        b.edge(t0, b1, 8);
        b.edge(b1, b2, 8);
        b.edge(b2, t1, 8);
        let g = b.finish().unwrap();
        let p = TaskPrecedence::build(&g);
        assert_eq!(p.dag.edge_count(), 1);
    }
}
