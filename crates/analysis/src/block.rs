//! The spatial-block schedule engine (Section 5.1).
//!
//! Given a canonical task graph and a partition of its compute nodes into
//! ordered spatial blocks, this module computes the steady-state streaming
//! intervals per block (Theorem 4.1) and the start / first-out / last-out
//! times of every task, reproducing the paper's recurrences exactly (the
//! unit tests replay the schedule tables of Figures 8 and 9).
//!
//! ## Semantics
//!
//! Blocks are gang-scheduled back-to-back: block `B_i` begins once every
//! task of `B_{i-1}` has finished (this barrier semantics is what the
//! Theorem A.1 proof sums over). Data enters a block through *memory
//! endpoints*:
//!
//! - a [`NodeKind::Source`] feeding members of a block is a single-pass
//!   multicast stream shared by all its consumers in that block (so its
//!   volume participates in the block's steady state, and converging paths
//!   from it can deadlock — Section 6);
//! - buffer-node replays and outputs of earlier blocks are independent
//!   per-edge memory reads, gated on the producer's completion (`LO` for
//!   compute producers, fill time for buffers).
//!
//! Endpoints behave like the paper's source nodes: first element one cycle
//! after their gate opens, last element `⌈(O−1)·S_o⌉+1` cycles after.

use crate::facts::GraphFacts;
use crate::intervals::{BlockComponents, EdgeProducer};
use stg_graph::{NodeId, Ratio};
use stg_model::{CanonicalGraph, NodeKind};

/// An ordered partition of the compute nodes into spatial blocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Blocks in execution order; each holds compute node ids.
    pub blocks: Vec<Vec<NodeId>>,
}

impl Partition {
    /// A single block containing every compute node (the infinite-PE /
    /// fully-spatial schedule used to define the streaming depth).
    pub fn single_block(g: &CanonicalGraph) -> Partition {
        Partition {
            blocks: vec![g.compute_nodes().collect()],
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The maximum number of tasks in any block (the PE demand).
    pub fn max_block_size(&self) -> usize {
        self.blocks.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Errors the schedule engine can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// The graph is not a DAG.
    Cyclic,
    /// A compute node is missing from the partition.
    Uncovered(NodeId),
    /// A node appears in more than one block (or twice in one).
    Duplicated(NodeId),
    /// A non-compute node was listed in a block.
    NotSchedulable(NodeId),
    /// An empty spatial block.
    EmptyBlock(usize),
    /// A dependency points from a later block to an earlier one, violating
    /// the acyclic-blocks requirement of Section 5.
    BlockOrderViolation {
        /// The producing node (in the later block).
        producer: NodeId,
        /// The consuming node (in the earlier block).
        consumer: NodeId,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Cyclic => write!(f, "task graph has a directed cycle"),
            ScheduleError::Uncovered(v) => write!(f, "{v:?} not assigned to any spatial block"),
            ScheduleError::Duplicated(v) => write!(f, "{v:?} assigned to multiple spatial blocks"),
            ScheduleError::NotSchedulable(v) => {
                write!(f, "{v:?} is not a compute node but was assigned to a block")
            }
            ScheduleError::EmptyBlock(i) => write!(f, "spatial block {i} is empty"),
            ScheduleError::BlockOrderViolation { producer, consumer } => write!(
                f,
                "{producer:?} (later block) feeds {consumer:?} (earlier block)"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The computed streaming schedule.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Start time `ST(v)` per node (compute nodes only; others 0).
    pub st: Vec<u64>,
    /// First-out time `FO(v)` per node.
    pub fo: Vec<u64>,
    /// Last-out time `LO(v)` per node (completion time for compute nodes).
    pub lo: Vec<u64>,
    /// Output streaming interval `S_o(v)` per node within its block's steady
    /// state (`None` for nodes without outputs or not co-scheduled).
    pub so: Vec<Option<Ratio>>,
    /// Input streaming interval `S_i(v)`.
    pub si: Vec<Option<Ratio>>,
    /// Block index per node (`None` for non-compute nodes).
    pub block_of: Vec<Option<u32>>,
    /// Per-block `(start, end)` times.
    pub block_spans: Vec<(u64, u64)>,
    /// Per-edge producer-side timing: the first-out time and output interval
    /// of whatever feeds this edge within the consumer's block (the member's
    /// own FO/S_o for streaming edges, the memory endpoint's for gated
    /// edges). Used by the buffer-space analysis (Section 6).
    pub edge_producer: Vec<Option<EdgeProducer>>,
    /// Whether each edge is a streaming (pipelined) communication: both
    /// endpoints are compute nodes co-scheduled in the same block, or the
    /// producer is a source multicasting into the consumer's block.
    pub streaming_edge: Vec<bool>,
    /// The schedule length: `max_v LO(v)` over compute nodes.
    pub makespan: u64,
}

impl Schedule {
    /// Sum of busy PE time, `Σ (LO(v) − ST(v))` over compute nodes.
    pub fn busy_time(&self, g: &CanonicalGraph) -> u64 {
        g.compute_nodes()
            .map(|v| self.lo[v.index()] - self.st[v.index()])
            .sum()
    }

    /// PE utilization for a machine with `p` PEs:
    /// `busy / (p · makespan)`.
    pub fn utilization(&self, g: &CanonicalGraph, p: usize) -> f64 {
        if self.makespan == 0 || p == 0 {
            return 0.0;
        }
        self.busy_time(g) as f64 / (p as f64 * self.makespan as f64)
    }
}

/// When a spatial block's tasks may start. There is one rule, the barrier
/// of the module docs: block `B_i` starts only after every task of
/// `B_{i-1}` finished. The Theorem A.1 proof sums over it, and both
/// simulators implement it. The type stays only because perfbench's
/// layered timer names it (through `stg_sched::schedule_partition_with`);
/// it goes when that caller does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BlockStartRule {
    /// Gang scheduling: block `B_i` starts when `B_{i-1}` has finished.
    #[default]
    Barrier,
}

/// Computes the streaming schedule of `g` under the given spatial-block
/// partition.
pub fn schedule(g: &CanonicalGraph, partition: &Partition) -> Result<Schedule, ScheduleError> {
    GraphFacts::new(g).schedule(partition)
}

/// The schedule engine behind [`GraphFacts::schedule`]: the graph's
/// topological order comes from its facts.
pub(crate) fn schedule_facts(
    facts: &GraphFacts<'_>,
    partition: &Partition,
) -> Result<Schedule, ScheduleError> {
    let g = facts.graph();
    let n = g.node_count();
    let dag = g.dag();
    let topo = facts.topological_order()?;
    let topo_pos = facts.topological_positions()?;

    // Validate the partition.
    let mut block_of: Vec<Option<u32>> = vec![None; n];
    for (bi, block) in partition.blocks.iter().enumerate() {
        if block.is_empty() {
            return Err(ScheduleError::EmptyBlock(bi));
        }
        for &v in block {
            if !g.node(v).is_schedulable() {
                return Err(ScheduleError::NotSchedulable(v));
            }
            if block_of[v.index()].is_some() {
                return Err(ScheduleError::Duplicated(v));
            }
            block_of[v.index()] = Some(bi as u32);
        }
    }
    for v in g.compute_nodes() {
        if block_of[v.index()].is_none() {
            return Err(ScheduleError::Uncovered(v));
        }
    }
    // Compute-to-compute dependencies (also through buffers) must not point
    // backwards across blocks. Buffer fills propagate block indices.
    let mut min_block_from: Vec<u32> = vec![0; n]; // earliest block producing into v
    for &v in topo {
        let mut need = 0u32;
        for p in dag.predecessors(v) {
            need = need.max(match block_of[p.index()] {
                Some(b) => b,
                None => min_block_from[p.index()],
            });
        }
        min_block_from[v.index()] = need;
        if let Some(b) = block_of[v.index()] {
            if b < need {
                // Find a witness predecessor for the error report.
                let witness = dag
                    .predecessors(v)
                    .find(|p| block_of[p.index()].unwrap_or(min_block_from[p.index()]) > b)
                    .expect("violation implies witness");
                return Err(ScheduleError::BlockOrderViolation {
                    producer: witness,
                    consumer: v,
                });
            }
        }
    }

    let mut st = vec![0u64; n];
    let mut fo = vec![0u64; n];
    let mut lo = vec![0u64; n];
    let mut so: Vec<Option<Ratio>> = vec![None; n];
    let mut si: Vec<Option<Ratio>> = vec![None; n];
    let mut edge_producer: Vec<Option<EdgeProducer>> = vec![None; dag.edge_count()];
    let mut streaming_edge = vec![false; dag.edge_count()];
    let mut block_spans = Vec::with_capacity(partition.blocks.len());
    // Buffer fill times, memoized (computed when first consumed).
    let mut buffer_fill: Vec<Option<u64>> = vec![None; n];

    // Nothing in a block runs before the previous block ends.
    let mut block_start = 0u64;
    let mut makespan = 0u64;
    let mut intervals = BlockComponents::new(g);

    for (bi, block) in partition.blocks.iter().enumerate() {
        // Steady-state intervals for this block.
        intervals.compute(g, block, &block_of, bi as u32);

        // Members in topological order (global order restricted to block).
        let mut members = block.clone();
        members.sort_by_key(|v| topo_pos[v.index()]);

        let mut block_end = block_start;
        for &v in &members {
            so[v.index()] = intervals.so(g, v);
            si[v.index()] = intervals.si(g, v);

            // Gather constraints from every in-edge.
            let mut max_fo = 0u64; // streaming first-element availability
            let mut max_lo = 0u64; // last-element availability
            for &eid in dag.in_edge_ids(v) {
                let e = dag.edge(eid);
                let u = e.src;
                let (c_fo, c_lo, c_so) = if block_of[u.index()] == Some(bi as u32) {
                    // In-block streaming predecessor.
                    streaming_edge[eid.index()] = true;
                    (
                        fo[u.index()],
                        lo[u.index()],
                        so[u.index()].unwrap_or(Ratio::ONE),
                    )
                } else {
                    // Memory endpoint: source multicast, buffer replay, or
                    // an earlier block's output read back from memory.
                    let gate = match g.kind(u) {
                        NodeKind::Source => {
                            streaming_edge[eid.index()] = true;
                            0
                        }
                        NodeKind::Buffer => fill_time(g, u, &lo, &mut buffer_fill),
                        _ => lo[u.index()], // compute node in an earlier block
                    };
                    let e_so = intervals
                        .endpoint_so(eid, e.weight)
                        .expect("endpoint interval for non-member producer");
                    let e_st = gate.max(block_start);
                    let e_fo = e_st + 1;
                    let vol = e.weight;
                    let e_lo = e_st + ceil_mul(vol.saturating_sub(1), e_so) + 1;
                    (e_fo, e_lo, e_so)
                };
                max_fo = max_fo.max(c_fo);
                max_lo = max_lo.max(c_lo);
                edge_producer[eid.index()] = Some(EdgeProducer { fo: c_fo, so: c_so });
            }

            let has_inputs = dag.in_degree(v) > 0;
            let has_outputs = dag.out_degree(v) > 0;
            if !has_inputs {
                // Producer task (or the paper's source role): generates O(v)
                // elements at its output interval, starting at block start.
                let o = g.output_volume(v).unwrap_or(0);
                let sov = so[v.index()].unwrap_or(Ratio::ONE);
                st[v.index()] = block_start;
                fo[v.index()] = block_start + 1;
                lo[v.index()] = block_start + ceil_mul(o.saturating_sub(1), sov) + 1;
            } else {
                let stv = max_fo.max(block_start);
                st[v.index()] = stv;
                // First-out: down-samplers accumulate 1/R elements first.
                let startup = match g.rate(v) {
                    Some(r) if has_outputs && r < Ratio::ONE => {
                        let siv = si[v.index()].unwrap_or(Ratio::ONE);
                        ceil_ratio((r.recip() - Ratio::ONE) * siv) + 1
                    }
                    _ => 1,
                };
                fo[v.index()] = stv + startup;
                // Last-out: up-samplers keep emitting after their last input.
                let tail = match g.rate(v) {
                    Some(r) if r > Ratio::ONE => {
                        let sov = so[v.index()].unwrap_or(Ratio::ONE);
                        ceil_ratio((r - Ratio::ONE) * sov) + 1
                    }
                    _ => 1,
                };
                lo[v.index()] = max_lo.max(block_start) + tail;
                // A task cannot finish before it has produced its first
                // element (degenerate volumes).
                lo[v.index()] = lo[v.index()].max(fo[v.index()]);
            }
            block_end = block_end.max(lo[v.index()]);
        }

        block_spans.push((block_start, block_end));
        makespan = makespan.max(block_end);
        block_start = block_end;
    }

    Ok(Schedule {
        st,
        fo,
        lo,
        so,
        si,
        block_of,
        block_spans,
        edge_producer,
        streaming_edge,
        makespan,
    })
}

/// The time a buffer node finishes storing all of its inputs: `max` over its
/// producers of their completion (compute: `LO`; source: 0 — the data is
/// already in global memory; upstream buffers: their own fill time, since a
/// buffer-to-buffer hop is a memory-level reshape).
fn fill_time(g: &CanonicalGraph, b: NodeId, lo: &[u64], memo: &mut [Option<u64>]) -> u64 {
    if let Some(t) = memo[b.index()] {
        return t;
    }
    let mut t = 0u64;
    // Iterative worklist to avoid recursion on long buffer chains.
    // (Buffer chains are short in practice; a direct recursion would be fine
    // but this keeps the engine panic-free on adversarial inputs.)
    let mut stack = vec![(b, 0usize, 0u64)];
    while let Some((cur, mut idx, mut acc)) = stack.pop() {
        let preds = g.dag().in_edge_ids(cur);
        let mut descended = false;
        while idx < preds.len() {
            let u = g.dag().edge(preds[idx]).src;
            idx += 1;
            match g.kind(u) {
                NodeKind::Source => {}
                NodeKind::Buffer => {
                    if let Some(f) = memo[u.index()] {
                        acc = acc.max(f);
                    } else {
                        // Re-process this predecessor once its fill is known.
                        stack.push((cur, idx - 1, acc));
                        stack.push((u, 0, 0));
                        descended = true;
                        break;
                    }
                }
                _ => acc = acc.max(lo[u.index()]),
            }
        }
        if !descended && idx >= preds.len() {
            memo[cur.index()] = Some(acc);
            t = acc;
        }
    }
    memo[b.index()].unwrap_or(t)
}

/// `⌈k · r⌉` for a non-negative integer `k` and positive rational `r`.
fn ceil_mul(k: u64, r: Ratio) -> u64 {
    (Ratio::from_u64(k) * r).ceil() as u64
}

/// `⌈r⌉` clamped to non-negative.
fn ceil_ratio(r: Ratio) -> u64 {
    r.ceil().max(0) as u64
}
