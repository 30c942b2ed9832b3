//! The appendix partitioners with provable bounds (Appendix A).
//!
//! - [`elementwise_partition`] — Theorem A.1: order tasks by level, chunk
//!   into blocks of `P`. For element-wise graphs this yields
//!   `T_s∞ ≤ T_P ≤ T1/P + T_s∞` (Brent-style).
//! - [`downsampler_partition`] — Algorithm 2 / Theorem A.2: for graphs of
//!   element-wise and down-sampler nodes, repeatedly pick the ready task
//!   with the highest work (tie: lowest level), grouping tasks of similar
//!   work so each block's pipeline-fill cost is charged to the next block's
//!   work.

use std::collections::BTreeSet;
use stg_analysis::{GraphFacts, Partition};
use stg_graph::NodeId;
use stg_model::CanonicalGraph;

/// Theorem A.1's level-order partitioning ([`elementwise_blocks`] on
/// freshly analysed facts).
///
/// # Panics
/// Panics if `p == 0` or the graph is cyclic.
pub fn elementwise_partition(g: &CanonicalGraph, p: usize) -> Partition {
    elementwise_blocks(&GraphFacts::new(g), p)
}

/// Theorem A.1's level-order partitioning over a graph's shared levels.
///
/// # Panics
/// Panics if `p == 0` or the graph is cyclic.
pub fn elementwise_blocks(facts: &GraphFacts<'_>, p: usize) -> Partition {
    assert!(p > 0, "need at least one processing element");
    let level = facts.levels();
    let mut tasks: Vec<NodeId> = facts.graph().compute_nodes().collect();
    // Level order, ties broken arbitrarily (we use node id for determinism).
    tasks.sort_by_key(|v| (level[v.index()], v.0));
    let blocks = tasks.chunks(p).map(<[NodeId]>::to_vec).collect();
    Partition { blocks }
}

/// Algorithm 2's work-ordered partitioning for element-wise/down-sampler
/// graphs ([`downsampler_blocks`] on freshly analysed facts).
///
/// # Panics
/// Panics if `p == 0` or the graph is cyclic.
pub fn downsampler_partition(g: &CanonicalGraph, p: usize) -> Partition {
    downsampler_blocks(&GraphFacts::new(g), p)
}

/// Algorithm 2 over a graph's shared precedence and levels.
///
/// # Panics
/// Panics if `p == 0` or the graph is cyclic.
pub fn downsampler_blocks(facts: &GraphFacts<'_>, p: usize) -> Partition {
    assert!(p > 0, "need at least one processing element");
    work_ordered_partition(facts, p, |w| u64::MAX - w)
}

/// The symmetric partitioner for element-wise/up-sampler graphs (the
/// appendix closes by noting the Theorem A.2 argument mirrors): works only
/// *grow* along paths there, so picking the lowest-work ready task groups
/// tasks of similar work exactly as Algorithm 2 does for reductions
/// ([`upsampler_blocks`] on freshly analysed facts).
///
/// # Panics
/// Panics if `p == 0` or the graph is cyclic.
pub fn upsampler_partition(g: &CanonicalGraph, p: usize) -> Partition {
    upsampler_blocks(&GraphFacts::new(g), p)
}

/// The up-sampler partitioner over a graph's shared precedence and levels.
///
/// # Panics
/// Panics if `p == 0` or the graph is cyclic.
pub fn upsampler_blocks(facts: &GraphFacts<'_>, p: usize) -> Partition {
    assert!(p > 0, "need at least one processing element");
    work_ordered_partition(facts, p, |w| w)
}

/// Greedy ready-list partitioning ordered by a work key (ties: level, id).
fn work_ordered_partition(
    facts: &GraphFacts<'_>,
    p: usize,
    work_key: impl Fn(u64) -> u64,
) -> Partition {
    let g = facts.graph();
    let prec = facts.precedence();
    let level = facts.levels();
    let n = g.dag().node_count();

    let mut unassigned_preds: Vec<u32> = vec![0; n];
    for t in prec.dag.node_ids() {
        unassigned_preds[prec.original(t).index()] = prec.dag.in_degree(t) as u32;
    }
    let mut ready: BTreeSet<(u64, u32, u32)> = BTreeSet::new();
    for t in prec.dag.node_ids() {
        let v = prec.original(t);
        if unassigned_preds[v.index()] == 0 {
            ready.insert((work_key(g.work(v)), level[v.index()], v.0));
        }
    }

    let mut blocks: Vec<Vec<NodeId>> = Vec::new();
    let mut block: Vec<NodeId> = Vec::new();
    while let Some(&(wkey, lvl, id)) = ready.iter().next() {
        ready.remove(&(wkey, lvl, id));
        let v = NodeId(id);
        if block.len() >= p {
            blocks.push(std::mem::take(&mut block));
        }
        block.push(v);
        let tv = prec.task(v).expect("compute node");
        for ts in prec.dag.successors(tv) {
            let s = prec.original(ts);
            unassigned_preds[s.index()] -= 1;
            if unassigned_preds[s.index()] == 0 {
                ready.insert((work_key(g.work(s)), level[s.index()], s.0));
            }
        }
    }
    if !block.is_empty() {
        blocks.push(block);
    }
    Partition { blocks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg_model::Builder;

    /// Binary in-tree of element-wise reducers over `leaves` inputs.
    fn elementwise_tree(leaves: usize, k: u64) -> CanonicalGraph {
        let mut b = Builder::new();
        let mut frontier: Vec<_> = (0..leaves).map(|i| b.compute(format!("l{i}"))).collect();
        let mut j = 0;
        while frontier.len() > 1 {
            let mut next = Vec::new();
            for pair in frontier.chunks(2) {
                if pair.len() == 2 {
                    let m = b.compute(format!("m{j}"));
                    j += 1;
                    b.edge(pair[0], m, k);
                    b.edge(pair[1], m, k);
                    next.push(m);
                } else {
                    next.push(pair[0]);
                }
            }
            frontier = next;
        }
        b.finish().unwrap()
    }

    #[test]
    fn elementwise_blocks_are_level_ordered() {
        let g = elementwise_tree(8, 16);
        let part = elementwise_partition(&g, 4);
        assert!(part.max_block_size() <= 4);
        // Level-ordered chunks are schedulable (dependencies never point
        // backwards).
        stg_analysis::schedule(&g, &part).unwrap();
        // All 15 tree nodes are covered.
        assert_eq!(part.blocks.iter().map(Vec::len).sum::<usize>(), 15);
    }

    #[test]
    fn theorem_a1_bound_holds() {
        // T_s∞ ≤ T_P ≤ T1/P + T_s∞ (+ one memory hop per block, see
        // DESIGN.md on the endpoint convention).
        let g = elementwise_tree(16, 64);
        let t1 = g.sequential_time();
        let tinf = stg_analysis::streaming_depth(&g).unwrap();
        for p in [2usize, 4, 8, 31] {
            let part = elementwise_partition(&g, p);
            let s = stg_analysis::schedule(&g, &part).unwrap();
            let blocks = part.blocks.len() as u64;
            assert!(s.makespan as u64 >= tinf, "lower bound at P={p}");
            assert!(
                s.makespan <= t1 / p as u64 + tinf + blocks,
                "upper bound at P={p}: {} > {}/{} + {} + {}",
                s.makespan,
                t1,
                p,
                tinf,
                blocks
            );
        }
    }

    #[test]
    fn downsampler_partition_prefers_heavy_tasks() {
        // Two independent chains, one heavy (W=64) one light (W=8): the
        // heavy chain's ready tasks are picked first.
        let mut b = Builder::new();
        let h0 = b.compute("h0");
        let h1 = b.compute("h1");
        b.edge(h0, h1, 64);
        let l0 = b.compute("l0");
        let l1 = b.compute("l1");
        b.edge(l0, l1, 8);
        let g = b.finish().unwrap();
        let part = downsampler_partition(&g, 2);
        assert_eq!(part.blocks[0][0], h0);
        stg_analysis::schedule(&g, &part).unwrap();
    }

    #[test]
    fn downsampler_partition_is_work_monotone() {
        // In an elwise/downsampler graph, works along the pick order never
        // increase (the Theorem A.2 argument).
        let mut b = Builder::new();
        let t0 = b.compute("t0");
        let d1 = b.compute("d1");
        let d2 = b.compute("d2");
        let e1 = b.compute("e1");
        b.edge(t0, d1, 64);
        b.edge(d1, e1, 16);
        b.edge(e1, d2, 16);
        let g = b.finish().unwrap();
        let part = downsampler_partition(&g, 2);
        let order: Vec<u64> = part.blocks.iter().flatten().map(|&v| g.work(v)).collect();
        assert!(order.windows(2).all(|w| w[0] >= w[1]), "order {order:?}");
    }

    #[test]
    fn upsampler_partition_is_work_monotone_increasing() {
        // Mirror of Theorem A.2: on an elwise/upsampler graph, picks never
        // decrease in work.
        let mut b = Builder::new();
        let t0 = b.compute("t0");
        let u1 = b.compute("u1");
        let e1 = b.compute("e1");
        let u2 = b.compute("u2");
        b.edge(t0, u1, 8);
        b.edge(u1, e1, 32);
        b.edge(e1, u2, 32);
        let g = b.finish().unwrap();
        let part = upsampler_partition(&g, 2);
        let order: Vec<u64> = part.blocks.iter().flatten().map(|&v| g.work(v)).collect();
        assert!(order.windows(2).all(|w| w[0] <= w[1]), "order {order:?}");
        stg_analysis::schedule(&g, &part).unwrap();
    }

    #[test]
    fn upsampler_bound_mirrors_theorem_a2() {
        // Three expansion chains of equal shape.
        let mut b = Builder::new();
        for c in 0..3 {
            let t0 = b.compute(format!("t0_{c}"));
            let u1 = b.compute(format!("u1_{c}"));
            let u2 = b.compute(format!("u2_{c}"));
            b.edge(t0, u1, 16);
            b.edge(u1, u2, 64);
        }
        let g = b.finish().unwrap();
        let t1 = g.sequential_time();
        let tinf = stg_analysis::streaming_depth(&g).unwrap();
        for p in [1usize, 2, 3, 9] {
            let part = upsampler_partition(&g, p);
            let s = stg_analysis::schedule(&g, &part).unwrap();
            let n = g.compute_count() as u64;
            let blocks = part.blocks.len() as u64;
            assert!(
                s.makespan <= t1 / p as u64 + tinf + (n - 1) + blocks,
                "P={p}: {} > bound",
                s.makespan
            );
        }
    }

    #[test]
    fn theorem_a2_bound_holds() {
        // T_P ≤ T1/P + T_s∞ + min(n−1, (x−1)(L−1)) with the same per-block
        // memory-hop slack as Theorem A.1.
        let mut b = Builder::new();
        // Three reduction chains of equal shape: x (distinct works per
        // level) is 1, so the extra term vanishes.
        let mut heads = Vec::new();
        for c in 0..3 {
            let t0 = b.compute(format!("t0_{c}"));
            let d1 = b.compute(format!("d1_{c}"));
            let d2 = b.compute(format!("d2_{c}"));
            b.edge(t0, d1, 64);
            b.edge(d1, d2, 16);
            heads.push(t0);
        }
        let g = b.finish().unwrap();
        let t1 = g.sequential_time();
        let tinf = stg_analysis::streaming_depth(&g).unwrap();
        for p in [1usize, 2, 3, 4, 9] {
            let part = downsampler_partition(&g, p);
            let s = stg_analysis::schedule(&g, &part).unwrap();
            let n = g.compute_count() as u64;
            let blocks = part.blocks.len() as u64;
            assert!(
                s.makespan <= t1 / p as u64 + tinf + (n - 1) + blocks,
                "P={p}: {} > bound",
                s.makespan
            );
        }
    }
}
