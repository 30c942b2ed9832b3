//! Algorithm 1: greedy spatial-block partitioning (Section 5.2).
//!
//! The heuristic repeatedly picks a ready task (all compute predecessors
//! already assigned) and adds it to the current block, preferring — in this
//! order —
//!
//! 1. a task producing no more data than the in-block *block sources* it
//!    depends on (adding it cannot slow the block's steady state),
//! 2. a task that would become a new block source (its in-block streaming
//!    predecessors are none: it reads from memory, buffers, or earlier
//!    blocks),
//! 3. (SB-RLX only) any ready task, preferring the one producing the least
//!    data.
//!
//! SB-LTS opens a new block when only class-3 candidates remain; SB-RLX
//! fills every block to `P` tasks. Ties break by produced volume, then node
//! level, then node id, so partitions are deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use stg_analysis::{GraphFacts, Partition};
use stg_graph::NodeId;
use stg_model::CanonicalGraph;

/// Which Algorithm 1 variant to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SbVariant {
    /// SB-LTS ("less than source"): never admit a task producing more data
    /// than the block sources it depends on; blocks may stay under-full.
    Lts,
    /// SB-RLX (relaxed): admit the least-producing ready task when nothing
    /// better exists; all blocks except the last contain exactly `P` tasks.
    Rlx,
}

impl std::fmt::Display for SbVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SbVariant::Lts => write!(f, "SB-LTS"),
            SbVariant::Rlx => write!(f, "SB-RLX"),
        }
    }
}

/// Candidate ordering key: `(class, produced volume, level, node id)`.
type Key = (u8, u64, u32, u32);

/// Partitions the compute tasks of `g` into spatial blocks of at most `p`
/// tasks using Algorithm 1 ([`spatial_blocks`] on freshly analysed facts).
///
/// # Panics
/// Panics if `p == 0` or the graph is cyclic.
pub fn spatial_block_partition(g: &CanonicalGraph, p: usize, variant: SbVariant) -> Partition {
    spatial_blocks(&GraphFacts::new(g), p, variant)
}

/// Algorithm 1 over a graph's shared facts: its precedence and levels.
///
/// # Panics
/// Panics if `p == 0` or the graph is cyclic.
pub fn spatial_blocks(facts: &GraphFacts<'_>, p: usize, variant: SbVariant) -> Partition {
    assert!(p > 0, "need at least one processing element");
    let g = facts.graph();
    let prec = facts.precedence();
    let tasks = prec.dag.node_count();
    let level = facts.levels();

    // Direct compute→compute edges carry streaming within a block; edges
    // through buffers/memory do not constrain the steady state.
    let dag = g.dag();
    let is_compute: Vec<bool> = g.node_ids().map(|v| g.node(v).is_schedulable()).collect();

    // Per original-node state.
    let n = dag.node_count();
    let mut unassigned_preds: Vec<u32> = vec![0; n];
    for t in prec.dag.node_ids() {
        let orig = prec.original(t);
        unassigned_preds[orig.index()] = prec.dag.in_degree(t) as u32;
    }
    // (bound, block_stamp): min block-source volume this task transitively
    // streams from within block `block_stamp`.
    let mut bound: Vec<(u64, u32)> = vec![(u64::MAX, u32::MAX); n];
    let mut msrc: Vec<u64> = vec![u64::MAX; n];
    let mut assigned: Vec<bool> = vec![false; n];

    let out_vol = |v: NodeId| -> u64 { g.output_volume(v).unwrap_or(0) };

    let mut current_block: u32 = 0;
    let key_of = |v: NodeId, bound: &[(u64, u32)], current_block: u32| -> Key {
        let (b, stamp) = bound[v.index()];
        let class = if stamp != current_block || b == u64::MAX {
            2
        } else if out_vol(v) <= b {
            1
        } else {
            3
        };
        (class, out_vol(v), level[v.index()], v.0)
    };

    // The ready set: a min-heap of keys with lazy deletion. A task's
    // entry is live while the task is ready and the entry holds its
    // current key; a key change pushes a new entry and leaves the old one
    // to be skipped when it surfaces.
    let mut ready = ReadySet::default();
    let mut key: Vec<Key> = vec![(0, 0, 0, 0); n];
    let mut in_ready: Vec<bool> = vec![false; n];
    for t in prec.dag.node_ids() {
        let orig = prec.original(t);
        if unassigned_preds[orig.index()] == 0 {
            key[orig.index()] = key_of(orig, &bound, current_block);
            ready.push(key[orig.index()]);
            in_ready[orig.index()] = true;
        }
    }

    let mut blocks: Vec<Vec<NodeId>> = Vec::new();
    let mut block: Vec<NodeId> = Vec::new();
    let mut done = 0usize;

    while done < tasks {
        let (class, _, _, id) = ready
            .peek_live(&key, &in_ready)
            .expect("acyclic graph has ready tasks");
        if class == 3 && variant == SbVariant::Lts {
            // No admissible candidate: open a new block. All ready keys
            // change class (everything becomes a block source).
            debug_assert!(!block.is_empty(), "class-3 candidate in an empty block");
            blocks.push(std::mem::take(&mut block));
            current_block += 1;
            ready.rekey(&mut key, &mut in_ready, |v| {
                key_of(v, &bound, current_block)
            });
            continue;
        }
        let v = NodeId(id);
        ready.pop();
        in_ready[v.index()] = false;
        assigned[v.index()] = true;
        done += 1;
        block.push(v);
        // Record the min block-source volume this task streams from.
        msrc[v.index()] = if class == 2 {
            out_vol(v)
        } else {
            bound[v.index()].0
        };

        // Tighten bounds of direct streaming successors (they now have an
        // in-current-block predecessor).
        for s in dag.successors(v) {
            if !is_compute[s.index()] || assigned[s.index()] {
                continue;
            }
            let (b, stamp) = bound[s.index()];
            let eff = if stamp == current_block { b } else { u64::MAX };
            let nb = eff.min(msrc[v.index()]);
            bound[s.index()] = (nb, current_block);
            if in_ready[s.index()] {
                let new_key = key_of(s, &bound, current_block);
                if new_key != key[s.index()] {
                    key[s.index()] = new_key;
                    ready.push(new_key);
                }
            }
        }
        // Release precedence successors.
        let tv = prec.task(v).expect("compute node has a task id");
        for ts in prec.dag.successors(tv) {
            let s = prec.original(ts);
            unassigned_preds[s.index()] -= 1;
            if unassigned_preds[s.index()] == 0 {
                key[s.index()] = key_of(s, &bound, current_block);
                ready.push(key[s.index()]);
                in_ready[s.index()] = true;
            }
        }

        if block.len() >= p {
            blocks.push(std::mem::take(&mut block));
            current_block += 1;
            ready.rekey(&mut key, &mut in_ready, |v| {
                key_of(v, &bound, current_block)
            });
        }
    }
    if !block.is_empty() {
        blocks.push(block);
    }
    Partition { blocks }
}

/// Algorithm 1's ready set: a binary min-heap of candidate keys with lazy
/// deletion. Keys end in the node id, so no two tasks share one and the
/// minimum is the one a sorted set would yield first.
#[derive(Default)]
struct ReadySet {
    heap: BinaryHeap<Reverse<Key>>,
}

impl ReadySet {
    fn push(&mut self, key: Key) {
        self.heap.push(Reverse(key));
    }

    /// Drops dead entries off the top and returns the smallest live key.
    fn peek_live(&mut self, key: &[Key], in_ready: &[bool]) -> Option<Key> {
        while let Some(&Reverse(top)) = self.heap.peek() {
            let v = top.3 as usize;
            if in_ready[v] && key[v] == top {
                return Some(top);
            }
            self.heap.pop();
        }
        None
    }

    /// Removes the top entry (the one [`Self::peek_live`] returned).
    fn pop(&mut self) {
        self.heap.pop();
    }

    /// Recomputes every ready task's key after a block change (each key's
    /// class resets) and rebuilds the heap from the live entries.
    fn rekey(&mut self, key: &mut [Key], in_ready: &mut [bool], key_of: impl Fn(NodeId) -> Key) {
        let mut live = std::mem::take(&mut self.heap).into_vec();
        live.retain_mut(|Reverse(k)| {
            let v = k.3 as usize;
            // Clearing `in_ready` while collecting drops duplicates of a
            // task whose key returned to an earlier value.
            if !in_ready[v] || key[v] != *k {
                return false;
            }
            in_ready[v] = false;
            key[v] = key_of(NodeId(k.3));
            *k = key[v];
            true
        });
        for Reverse(k) in &live {
            in_ready[k.3 as usize] = true;
        }
        self.heap = BinaryHeap::from(live);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg_model::Builder;

    fn chain(n: usize, k: u64) -> (CanonicalGraph, Vec<NodeId>) {
        let mut b = Builder::new();
        let t: Vec<_> = (0..n).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, k);
        (b.finish().unwrap(), t)
    }

    #[test]
    fn chain_fits_one_block_when_p_large() {
        let (g, t) = chain(8, 32);
        for variant in [SbVariant::Lts, SbVariant::Rlx] {
            let part = spatial_block_partition(&g, 8, variant);
            assert_eq!(part.blocks.len(), 1, "{variant}");
            assert_eq!(part.blocks[0].len(), 8);
            // Chain order is respected.
            assert_eq!(part.blocks[0], t);
        }
    }

    #[test]
    fn chain_splits_by_p() {
        let (g, _) = chain(8, 32);
        for variant in [SbVariant::Lts, SbVariant::Rlx] {
            let part = spatial_block_partition(&g, 3, variant);
            assert_eq!(part.blocks.len(), 3);
            assert_eq!(
                part.blocks.iter().map(Vec::len).collect::<Vec<_>>(),
                vec![3, 3, 2]
            );
        }
    }

    #[test]
    fn lts_refuses_oversized_upsampler() {
        // t0(O=4) -> up(O=64): under SB-LTS the upsampler producing more
        // than the block source must open a new block; SB-RLX admits it.
        let mut b = Builder::new();
        let t0 = b.compute("t0");
        let up = b.compute("up");
        let t1 = b.compute("t1");
        b.edge(t0, up, 4);
        b.edge(up, t1, 64);
        let g = b.finish().unwrap();
        let lts = spatial_block_partition(&g, 3, SbVariant::Lts);
        assert_eq!(lts.blocks.len(), 2);
        assert_eq!(lts.blocks[0], vec![t0]);
        assert_eq!(lts.blocks[1], vec![up, t1]);
        let rlx = spatial_block_partition(&g, 3, SbVariant::Rlx);
        assert_eq!(rlx.blocks.len(), 1);
    }

    #[test]
    fn downsamplers_always_join() {
        // Reductions produce less data and can always extend the block.
        let mut b = Builder::new();
        let t0 = b.compute("t0");
        let d1 = b.compute("d1");
        let d2 = b.compute("d2");
        b.edge(t0, d1, 64);
        b.edge(d1, d2, 16);
        let g = b.finish().unwrap();
        let part = spatial_block_partition(&g, 3, SbVariant::Lts);
        assert_eq!(part.blocks.len(), 1);
    }

    #[test]
    fn independent_tasks_fill_blocks_in_volume_order() {
        // Three independent producers with different volumes: all block
        // sources; ordering is by produced volume.
        let mut b = Builder::new();
        let big = b.compute("big");
        let mid = b.compute("mid");
        let small = b.compute("small");
        let kb = b.sink("kb");
        let km = b.sink("km");
        let ks = b.sink("ks");
        b.edge(big, kb, 64);
        b.edge(mid, km, 16);
        b.edge(small, ks, 4);
        let g = b.finish().unwrap();
        let part = spatial_block_partition(&g, 2, SbVariant::Rlx);
        assert_eq!(part.blocks.len(), 2);
        assert_eq!(part.blocks[0], vec![small, mid]);
        assert_eq!(part.blocks[1], vec![big]);
    }

    #[test]
    fn partition_is_schedulable() {
        // The produced partitions always satisfy the block engine's
        // validity checks (coverage, ordering).
        let (g, _) = chain(12, 16);
        for p in [1, 2, 5, 12, 64] {
            for variant in [SbVariant::Lts, SbVariant::Rlx] {
                let part = spatial_block_partition(&g, p, variant);
                stg_analysis::schedule(&g, &part).unwrap();
                assert!(part.max_block_size() <= p);
            }
        }
    }

    #[test]
    fn buffer_successor_is_block_source() {
        // t0 -> B -> t1: t1 does not stream from t0, so SB-LTS keeps both in
        // one block even though t1 "produces more" than t0.
        let mut b = Builder::new();
        let t0 = b.compute("t0");
        let buf = b.buffer("B");
        let t1 = b.compute("t1");
        let k = b.sink("k");
        b.edge(t0, buf, 4);
        b.edge(buf, t1, 4);
        b.edge(t1, k, 64);
        let g = b.finish().unwrap();
        let part = spatial_block_partition(&g, 2, SbVariant::Lts);
        assert_eq!(
            part.blocks.len(),
            1,
            "buffer breaks the streaming constraint"
        );
    }
}
