//! # stg-buffer
//!
//! FIFO buffer-space computation for deadlock-free pipelined execution
//! (Section 6 of the paper).
//!
//! Streaming communications are FIFO channels with blocking-after-service
//! semantics; insufficient capacity can deadlock an acyclic task graph when
//! paths of different latency converge (Figure 9 ①), or introduce bubbles
//! that delay tasks past their computed schedule (Figure 9 ②). For each
//! spatial block we apply Eq. (5): at a converging node `v`, the channel
//! from `u` must absorb the skew between `u`'s first output and the slowest
//! input of `v`:
//!
//! ```text
//! B(u,v) = ( max_{(t,v)∈G[B_i]} FO(t) − FO(u) ) / S_o(u)
//! ```
//!
//! capped at the edge's data volume.
//!
//! The paper restricts the analysis to nodes on undirected cycles. Its own
//! worked example ② (two converging paths that share only their final node,
//! hence no undirected cycle) still receives a sized buffer, so by default
//! we size every converging node and use the cycle analysis to *classify*
//! which channels are deadlock-critical (cycle) versus bubble-preventing
//! (convergence only). `SizingPolicy::CyclesOnly` restores the literal
//! reading.

#![warn(missing_docs)]

use stg_analysis::Schedule;
use stg_graph::{edge_set_cycle_nodes, CycleScratch, EdgeId, NodeId, Ratio};
use stg_model::{CanonicalGraph, NodeKind};

/// Which converging nodes receive Eq. (5) sizing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SizingPolicy {
    /// Size every node with ≥2 streaming predecessors in its block
    /// (matches both worked examples of the paper; prevents deadlocks *and*
    /// schedule bubbles).
    #[default]
    Converging,
    /// Size only nodes lying on an undirected cycle of their block's
    /// streaming subgraph (the literal Section 6 reading; prevents
    /// deadlocks only).
    CyclesOnly,
}

/// Why a channel was sized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelKind {
    /// On an undirected cycle: undersizing can deadlock the block.
    DeadlockCritical,
    /// Converging paths without a cycle: undersizing stalls producers and
    /// delays their completion beyond the analytic schedule.
    BubblePreventing,
}

/// The buffer-space plan for one schedule.
#[derive(Clone, Debug)]
pub struct BufferPlan {
    /// FIFO capacity (elements) per edge; `None` for non-streaming edges
    /// (buffered through global memory, no FIFO involved).
    pub capacity: Vec<Option<u64>>,
    /// Classification for edges that received an Eq. (5) size.
    pub sized: Vec<(EdgeId, u64, ChannelKind)>,
    /// Nodes on undirected cycles, per spatial block.
    pub cycle_nodes: Vec<Vec<NodeId>>,
    /// Total FIFO space across all streaming channels.
    pub total_elements: u64,
}

impl BufferPlan {
    /// The capacity of one edge, if it is a streaming channel.
    pub fn capacity_of(&self, e: EdgeId) -> Option<u64> {
        self.capacity.get(e.index()).copied().flatten()
    }
}

/// Computes FIFO capacities for every streaming channel of `schedule`.
///
/// `default_capacity` (≥1) is used for channels that need no skew
/// absorption; the paper leaves this constant open, and the DES validation
/// works with 1.
///
/// One counting pass buckets the compute nodes and the streaming edges by
/// block, so each block's cycle analysis and sizing walk only that block:
/// `O(V + E)` in total, as Section 6 states.
pub fn buffer_sizes(
    g: &CanonicalGraph,
    schedule: &Schedule,
    policy: SizingPolicy,
    default_capacity: u64,
) -> BufferPlan {
    let default_capacity = default_capacity.max(1);
    let dag = g.dag();
    let n_blocks = schedule.block_spans.len();
    let mut capacity: Vec<Option<u64>> = vec![None; dag.edge_count()];
    let mut sized = Vec::new();
    let mut cycle_nodes_per_block = Vec::with_capacity(n_blocks);

    // Baseline: every streaming edge gets the default capacity.
    for (eid, _) in dag.edges() {
        if schedule.streaming_edge[eid.index()] {
            capacity[eid.index()] = Some(default_capacity);
        }
    }

    let block_of = |v: NodeId| {
        schedule.block_of[v.index()]
            .map(|b| b as usize)
            .filter(|&b| b < n_blocks)
    };
    // Each block's members, ascending by node id.
    let members = by_block(n_blocks, || {
        dag.node_ids().filter_map(|v| Some((block_of(v)?, v)))
    });
    // Each block's streaming subgraph, ascending by edge id: the streaming
    // edges into the block from a member or from a source multicasting
    // into it.
    let streams = by_block(n_blocks, || {
        dag.edges().filter_map(|(eid, e)| {
            let b = block_of(e.dst)?;
            let from_member = block_of(e.src) == Some(b) || g.kind(e.src) == NodeKind::Source;
            (schedule.streaming_edge[eid.index()] && from_member).then_some((b, eid))
        })
    });

    let mut scratch = CycleScratch::default();
    let mut on_cycle = vec![false; dag.node_count()];
    let mut stream_in: Vec<EdgeId> = Vec::new();
    for bi in 0..n_blocks {
        let mut cyc = Vec::new();
        edge_set_cycle_nodes(dag, streams.of(bi), &mut scratch, &mut cyc);
        for v in &cyc {
            on_cycle[v.index()] = true;
        }

        for &v in members.of(bi) {
            // A member's in-edges all end in its block: the streaming
            // ones are its in-block streaming inputs.
            stream_in.clear();
            stream_in.extend(
                dag.in_edge_ids(v)
                    .iter()
                    .copied()
                    .filter(|&e| schedule.streaming_edge[e.index()]),
            );
            if stream_in.len() < 2 {
                continue;
            }
            let on_cycle = on_cycle[v.index()];
            if policy == SizingPolicy::CyclesOnly && !on_cycle {
                continue;
            }
            let max_fo = stream_in
                .iter()
                .map(|&e| {
                    schedule.edge_producer[e.index()]
                        .expect("streaming edge has producer")
                        .fo
                })
                .max()
                .expect("at least two inputs");
            for &eid in &stream_in {
                let prod = schedule.edge_producer[eid.index()].expect("streaming edge");
                let skew = max_fo - prod.fo;
                if skew == 0 {
                    continue;
                }
                // Eq. (5): elements in flight = skew / S_o(u), capped at the
                // edge volume (no channel needs to hold more than all data).
                let need = (Ratio::from_u64(skew) / prod.so).ceil().max(0) as u64;
                let vol = dag.edge(eid).weight;
                let cap = need.min(vol).max(default_capacity);
                let slot = &mut capacity[eid.index()];
                if slot.is_none_or(|c| c < cap) {
                    *slot = Some(cap);
                    sized.push((
                        eid,
                        cap,
                        if on_cycle {
                            ChannelKind::DeadlockCritical
                        } else {
                            ChannelKind::BubblePreventing
                        },
                    ));
                }
            }
        }
        for v in &cyc {
            on_cycle[v.index()] = false;
        }
        cycle_nodes_per_block.push(cyc);
    }

    let total_elements = capacity.iter().flatten().sum();
    BufferPlan {
        capacity,
        sized,
        cycle_nodes: cycle_nodes_per_block,
        total_elements,
    }
}

/// Items grouped by block, each group in input order: a counting sort.
struct ByBlock<T> {
    start: Vec<usize>,
    items: Vec<T>,
}

impl<T> ByBlock<T> {
    fn of(&self, b: usize) -> &[T] {
        &self.items[self.start[b]..self.start[b + 1]]
    }
}

/// Groups the items `items()` yields by block, keeping their order within
/// each block: a counting sort over two passes of the iterator.
fn by_block<T: Copy, I: Iterator<Item = (usize, T)>>(
    n_blocks: usize,
    items: impl Fn() -> I,
) -> ByBlock<T> {
    let mut start = vec![0usize; n_blocks + 1];
    let mut any = None;
    for (b, item) in items() {
        start[b + 1] += 1;
        any = Some(item);
    }
    for b in 0..n_blocks {
        start[b + 1] += start[b];
    }
    let Some(filler) = any else {
        return ByBlock {
            start,
            items: Vec::new(),
        };
    };
    let mut fill = start.clone();
    let mut grouped = vec![filler; start[n_blocks]];
    for (b, item) in items() {
        grouped[fill[b]] = item;
        fill[b] += 1;
    }
    ByBlock {
        start,
        items: grouped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg_analysis::{schedule, Partition};
    use stg_model::Builder;

    /// Figure 9 graph ①.
    fn figure9_1() -> (CanonicalGraph, Vec<NodeId>) {
        let mut b = Builder::new();
        let n: Vec<_> = (0..5).map(|i| b.compute(format!("{i}"))).collect();
        b.edge(n[0], n[1], 32);
        b.edge(n[1], n[2], 4);
        b.edge(n[2], n[3], 2);
        b.edge(n[3], n[4], 32);
        b.edge(n[0], n[4], 32);
        (b.finish().unwrap(), n)
    }

    /// Figure 9 graph ②.
    fn figure9_2() -> (CanonicalGraph, Vec<NodeId>) {
        let mut b = Builder::new();
        let n: Vec<_> = (0..6).map(|i| b.compute(format!("{i}"))).collect();
        b.edge(n[0], n[1], 32);
        b.edge(n[1], n[2], 1);
        b.edge(n[2], n[5], 32);
        b.edge(n[3], n[4], 32);
        b.edge(n[4], n[5], 32);
        (b.finish().unwrap(), n)
    }

    fn edge_between(g: &CanonicalGraph, a: NodeId, b: NodeId) -> EdgeId {
        g.dag()
            .edges()
            .find(|(_, e)| e.src == a && e.dst == b)
            .map(|(id, _)| id)
            .unwrap()
    }

    #[test]
    fn figure9_graph1_buffer_is_18() {
        // "the FIFO channel used for the streaming communication between
        //  tasks 0 and 4 must have a buffer space equal to 18"
        let (g, n) = figure9_1();
        let s = schedule(&g, &Partition::single_block(&g)).unwrap();
        let plan = buffer_sizes(&g, &s, SizingPolicy::Converging, 1);
        let e04 = edge_between(&g, n[0], n[4]);
        assert_eq!(plan.capacity_of(e04), Some(18));
        // The shortcut is on an undirected cycle: deadlock-critical.
        let kind = plan
            .sized
            .iter()
            .find(|(e, _, _)| *e == e04)
            .map(|&(_, _, k)| k)
            .unwrap();
        assert_eq!(kind, ChannelKind::DeadlockCritical);
        // The in-sync edge (3,4) keeps the default capacity.
        let e34 = edge_between(&g, n[3], n[4]);
        assert_eq!(plan.capacity_of(e34), Some(1));
    }

    #[test]
    fn figure9_graph2_buffer_is_32() {
        // "the buffer space for the channel [into task 5 from the 3→4 path]
        //  must be equal to 32"
        let (g, n) = figure9_2();
        let s = schedule(&g, &Partition::single_block(&g)).unwrap();
        let plan = buffer_sizes(&g, &s, SizingPolicy::Converging, 1);
        let e45 = edge_between(&g, n[4], n[5]);
        assert_eq!(plan.capacity_of(e45), Some(32));
        // No undirected cycle here: the channel is bubble-preventing.
        let kind = plan
            .sized
            .iter()
            .find(|(e, _, _)| *e == e45)
            .map(|&(_, _, k)| k)
            .unwrap();
        assert_eq!(kind, ChannelKind::BubblePreventing);
        // Under the literal cycles-only policy nothing is sized.
        let literal = buffer_sizes(&g, &s, SizingPolicy::CyclesOnly, 1);
        assert_eq!(literal.capacity_of(e45), Some(1));
    }

    #[test]
    fn capacity_capped_at_edge_volume() {
        // A tiny-volume shortcut across a long path: Eq. (5) skew exceeds
        // the 4-element volume, so the cap applies.
        let mut b = Builder::new();
        let n: Vec<_> = (0..5).map(|i| b.compute(format!("{i}"))).collect();
        b.edge(n[0], n[1], 4);
        b.edge(n[1], n[2], 256);
        b.edge(n[2], n[3], 1);
        b.edge(n[3], n[4], 4);
        b.edge(n[0], n[4], 4);
        let g = b.finish().unwrap();
        let s = schedule(&g, &Partition::single_block(&g)).unwrap();
        let plan = buffer_sizes(&g, &s, SizingPolicy::Converging, 1);
        let e04 = edge_between(&g, n[0], n[4]);
        assert_eq!(plan.capacity_of(e04), Some(4));
    }

    #[test]
    fn non_streaming_edges_get_no_fifo() {
        let (g, n) = figure9_1();
        // Two blocks: the cross-block edges have no FIFO capacity.
        let part = Partition {
            blocks: vec![vec![n[0], n[1], n[2]], vec![n[3], n[4]]],
        };
        let s = schedule(&g, &part).unwrap();
        let plan = buffer_sizes(&g, &s, SizingPolicy::Converging, 1);
        let e23 = edge_between(&g, n[2], n[3]);
        assert_eq!(plan.capacity_of(e23), None);
        let e04 = edge_between(&g, n[0], n[4]);
        assert_eq!(plan.capacity_of(e04), None);
    }

    #[test]
    fn source_multicast_participates_in_cycles() {
        // An explicit Source feeding two converging paths: the undirected
        // cycle runs through the source, and the skewed edge is sized.
        let mut b = Builder::new();
        let s = b.source("x");
        let d = b.compute("D");
        let up = b.compute("U");
        let e = b.compute("E");
        let y = b.sink("y");
        b.edge(s, d, 16);
        b.edge(d, up, 1);
        b.edge(up, e, 16);
        b.edge(s, e, 16);
        b.edge(e, y, 16);
        let g = b.finish().unwrap();
        let sch = schedule(&g, &Partition::single_block(&g)).unwrap();
        let plan = buffer_sizes(&g, &sch, SizingPolicy::Converging, 1);
        let se = edge_between(&g, s, e);
        let cap = plan.capacity_of(se).unwrap();
        assert!(cap > 1, "skewed source edge must be sized, got {cap}");
        let kind = plan
            .sized
            .iter()
            .find(|(eid, _, _)| *eid == se)
            .map(|&(_, _, k)| k)
            .unwrap();
        assert_eq!(kind, ChannelKind::DeadlockCritical);
    }

    #[test]
    fn total_elements_accumulates() {
        let (g, _) = figure9_1();
        let s = schedule(&g, &Partition::single_block(&g)).unwrap();
        let plan = buffer_sizes(&g, &s, SizingPolicy::Converging, 1);
        // Edges: 4 defaults of 1 + the sized 18 on the shortcut.
        assert_eq!(plan.total_elements, 4 + 18);
    }
}
