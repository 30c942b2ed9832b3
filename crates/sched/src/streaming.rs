//! The end-to-end streaming scheduling pipeline: partition, then schedule.

use crate::metrics::{metrics, Metrics};
use crate::partition::{spatial_blocks, SbVariant};
use stg_analysis::{BlockStartRule, GraphFacts, Partition, Schedule, ScheduleError};
use stg_model::CanonicalGraph;

/// Result of a full streaming scheduling run.
#[derive(Clone, Debug)]
pub struct StreamingResult {
    /// The spatial-block partition chosen by the heuristic.
    pub partition: Partition,
    /// The computed `ST/FO/LO` schedule.
    pub schedule: Schedule,
    /// Evaluation metrics for the machine size used.
    pub metrics: Metrics,
}

/// Runs Algorithm 1 with the given variant and schedules the blocks, for a
/// machine with `p` PEs (gang-scheduled blocks).
pub fn streaming_schedule(
    g: &CanonicalGraph,
    p: usize,
    variant: SbVariant,
) -> Result<StreamingResult, ScheduleError> {
    let facts = GraphFacts::new(g);
    let partition = spatial_blocks(&facts, p, variant);
    schedule_blocks(&facts, p, partition)
}

/// Schedules a pre-computed partition and derives metrics (gang-scheduled
/// blocks), on freshly analysed facts.
pub fn schedule_partition(
    g: &CanonicalGraph,
    p: usize,
    partition: Partition,
) -> Result<StreamingResult, ScheduleError> {
    schedule_blocks(&GraphFacts::new(g), p, partition)
}

/// [`schedule_partition`]: `BlockStartRule` has one value, the barrier.
/// This form stays only for perfbench's layered timer, which calls it, and
/// goes when that caller does.
pub fn schedule_partition_with(
    g: &CanonicalGraph,
    p: usize,
    partition: Partition,
    _rule: BlockStartRule,
) -> Result<StreamingResult, ScheduleError> {
    schedule_partition(g, p, partition)
}

/// Schedules a partition and derives metrics, reading the topological
/// order and both depths from the graph's shared facts.
pub fn schedule_blocks(
    facts: &GraphFacts<'_>,
    p: usize,
    partition: Partition,
) -> Result<StreamingResult, ScheduleError> {
    let g = facts.graph();
    let sched = facts.schedule(&partition)?;
    let t_inf = facts.streaming_depth()?;
    let t_nstr = facts.non_streaming_depth()?;
    let m = metrics(
        g,
        sched.makespan,
        sched.utilization(g, p),
        partition.len(),
        t_inf,
        t_nstr,
    );
    Ok(StreamingResult {
        partition,
        schedule: sched,
        metrics: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg_model::Builder;

    fn chain(n: usize, k: u64) -> CanonicalGraph {
        let mut b = Builder::new();
        let t: Vec<_> = (0..n).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, k);
        b.finish().unwrap()
    }

    #[test]
    fn chain_speedup_grows_with_pes() {
        // The Figure 10 chain effect: streaming speedup grows with P while
        // the buffered schedule is stuck at 1.
        let g = chain(8, 256);
        let mut last = 0.0;
        for p in [2usize, 4, 6, 8] {
            let r = streaming_schedule(&g, p, SbVariant::Rlx).unwrap();
            assert!(
                r.metrics.speedup >= last,
                "speedup should not decrease with more PEs"
            );
            last = r.metrics.speedup;
        }
        assert!(last > 4.0, "8-task chain at 8 PEs should exceed 4x");
    }

    #[test]
    fn sslr_approaches_one_with_full_spatial_execution() {
        let g = chain(8, 256);
        let r = streaming_schedule(&g, 8, SbVariant::Rlx).unwrap();
        assert_eq!(r.partition.len(), 1);
        assert!(
            (r.metrics.sslr - 1.0).abs() < 1e-9,
            "sslr={}",
            r.metrics.sslr
        );
    }

    #[test]
    fn variants_agree_on_single_block_graphs() {
        let g = chain(6, 64);
        let a = streaming_schedule(&g, 6, SbVariant::Lts).unwrap();
        let b = streaming_schedule(&g, 6, SbVariant::Rlx).unwrap();
        assert_eq!(a.metrics.makespan, b.metrics.makespan);
    }
}
