//! Work and depth analysis (Section 4.2).
//!
//! - `T1` — the work: sequential execution time on one PE.
//! - `T_s∞` — the *streaming depth*: the minimum time to execute the graph
//!   with unbounded PEs, all tasks co-scheduled and streaming. Computed
//!   exactly by scheduling the whole graph as a single spatial block.
//! - The closed-form upper bound of Eq. (4), `T ≤ L(G) + max_u O(u)` per
//!   weakly connected component, lifted to graphs with buffers through the
//!   supernode DAG `H` of Section 4.2.3.
//! - The *non-streaming depth*: the critical path under buffered
//!   communication (each task takes `W(v)` and starts after its predecessors
//!   finish), which is what the NSTR-SCH baseline can at best achieve.

use crate::block::ScheduleError;
use crate::facts::GraphFacts;
use crate::intervals::StreamingIntervals;
use crate::level::generalized_levels;
use stg_graph::{topological_order, NodeId, Ratio};
use stg_model::{CanonicalGraph, NodeKind};

/// The exact streaming depth `T_s∞`: makespan of the whole graph scheduled
/// as one co-scheduled spatial block (infinitely many PEs).
pub fn streaming_depth(g: &CanonicalGraph) -> Result<u64, ScheduleError> {
    GraphFacts::new(g).streaming_depth()
}

/// The non-streaming depth: longest path where each compute node costs
/// `W(v)` and communication is buffered (successors start after producers
/// finish). Source/sink/buffer nodes cost nothing — their traffic is already
/// accounted for inside `W` of the adjacent compute nodes.
pub fn non_streaming_depth(g: &CanonicalGraph) -> Result<u64, ScheduleError> {
    let dag = g.dag();
    let order = topological_order(dag).map_err(|_| ScheduleError::Cyclic)?;
    let mut finish = vec![0u64; dag.node_count()];
    let mut max = 0;
    for &v in &order {
        let ready = dag
            .predecessors(v)
            .map(|u| finish[u.index()])
            .max()
            .unwrap_or(0);
        let cost = if g.node(v).is_schedulable() {
            g.work(v)
        } else {
            0
        };
        finish[v.index()] = ready + cost;
        max = max.max(finish[v.index()]);
    }
    Ok(max)
}

/// The Eq. (4) closed-form bound for a single weakly connected component:
/// `T_s∞ ≤ L(G) + max_u O(u)`.
///
/// Returns the per-component bound summed along the deepest path of the
/// supernode DAG `H` (components connected through split buffer nodes). If
/// `H` is cyclic — possible when a buffer's producers and consumers share a
/// streaming component, which the recurrence-based [`streaming_depth`] still
/// handles — returns `None`.
pub fn streaming_depth_bound(g: &CanonicalGraph) -> Option<u64> {
    let dag = g.dag();
    let levels = generalized_levels(g).ok()?;
    let intervals = StreamingIntervals::for_graph(g);

    // Component of each compute node (Theorem 4.1 components).
    let n = dag.node_count();
    let mut comp = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut remap: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    for v in g.compute_nodes() {
        if let Some(c) = intervals.wcc_of(v) {
            let c2 = *remap.entry(c).or_insert_with(|| {
                count += 1;
                count - 1
            });
            comp[v.index()] = c2;
        }
    }
    if count == 0 {
        return Some(0);
    }

    // Per-component bound: max level within the component + max volume.
    let mut comp_level = vec![Ratio::ZERO; count as usize];
    let mut comp_vol = vec![0u64; count as usize];
    for v in g.compute_nodes() {
        let c = comp[v.index()] as usize;
        comp_level[c] = comp_level[c].max(levels.of_node[v.index()]);
        comp_vol[c] = comp_vol[c].max(g.output_volume(v).unwrap_or(0));
        // Volumes injected by sources/memory count toward the component max.
        for u in dag.predecessors(v) {
            if !g.node(u).is_schedulable() {
                comp_vol[c] = comp_vol[c].max(g.output_volume(u).unwrap_or(0));
            }
        }
    }
    let bound_of = |c: usize| -> u64 { (comp_level[c].ceil().max(0) as u64) + comp_vol[c] };

    // Supernode DAG H: connect components through buffer nodes (tail side
    // component -> head side component) and through memory (cross-component
    // compute-to-compute edges, which arise when an edge's endpoints landed
    // in different components via buffer splits).
    let h = {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (_, e) in dag.edges() {
            let (u, v) = (e.src, e.dst);
            match (g.kind(u), g.kind(v)) {
                (NodeKind::Buffer, _) | (_, NodeKind::Buffer) => {}
                _ => {
                    let (cu, cv) = (comp[u.index()], comp[v.index()]);
                    if cu != u32::MAX && cv != u32::MAX && cu != cv {
                        pairs.push((cu, cv));
                    }
                }
            }
        }
        // Buffer hops: every (producer component, consumer component) pair.
        for b in dag.node_ids().filter(|&b| g.kind(b) == NodeKind::Buffer) {
            for u in dag.predecessors(b) {
                let cu = comp[u.index()];
                if cu == u32::MAX {
                    continue;
                }
                for v in dag.successors(b) {
                    let cv = comp[v.index()];
                    if cv != u32::MAX && cu != cv {
                        pairs.push((cu, cv));
                    }
                    if cv != u32::MAX && cu == cv {
                        // Producer and consumer share a component: H would
                        // have a self-loop; the bound does not apply.
                        return None;
                    }
                }
            }
        }
        // Build the component DAG directly.
        let mut d: stg_graph::Dag<(), ()> = stg_graph::Dag::new();
        for _ in 0..count {
            d.add_node(());
        }
        let mut seen = std::collections::HashSet::new();
        for (a, b) in pairs {
            if a != b && seen.insert((a, b)) {
                d.add_edge(NodeId(a), NodeId(b), ());
            }
        }
        d
    };

    if topological_order(&h).is_err() {
        return None;
    }
    stg_graph::top_levels(&h, |c| bound_of(c.index()))
        .ok()
        .map(|tl| tl.into_iter().max().unwrap_or(0))
}

/// A compact work/depth report for a canonical task graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkDepth {
    /// `T1`: total work.
    pub work: u64,
    /// Exact streaming depth `T_s∞`.
    pub streaming_depth: u64,
    /// Non-streaming critical path length.
    pub non_streaming_depth: u64,
}

/// Computes `T1`, `T_s∞` and the non-streaming depth in one call.
pub fn work_depth(g: &CanonicalGraph) -> Result<WorkDepth, ScheduleError> {
    Ok(WorkDepth {
        work: g.sequential_time(),
        streaming_depth: streaming_depth(g)?,
        non_streaming_depth: non_streaming_depth(g)?,
    })
}
