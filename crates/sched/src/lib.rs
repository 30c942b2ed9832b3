//! # stg-sched
//!
//! Scheduling algorithms for canonical task graphs (Section 5 of the
//! paper), plus the non-streaming baseline used in the evaluation:
//!
//! - [`partition`] — spatial-block partitioning: Algorithm 1 in its SB-LTS
//!   and SB-RLX variants, the level-order element-wise partitioner of
//!   Theorem A.1, and the work-ordered down-sampler partitioner of
//!   Algorithm 2;
//! - [`streaming`] — the end-to-end streaming pipeline (partition →
//!   per-block steady state → `ST/FO/LO` schedule → metrics);
//! - [`liststr`] — NSTR-SCH: critical-path list scheduling with bottom-level
//!   priorities and insertion, all communication buffered;
//! - [`metrics`] — speedup, (S)SLR, and PE utilization;
//! - [`multiplex`] — temporal multiplexing of several tenants' graphs
//!   onto one device via LPT time-slot packing.
//!
//! Every algorithm reads the graph-only analyses it needs (precedence,
//! levels, depths, list priority) from a shared
//! [`GraphFacts`](stg_analysis::GraphFacts): `spatial_blocks`,
//! `list_schedule`, `schedule_blocks` and the other facts-taking forms let
//! a caller analyse a graph once for all of its cells, and the
//! graph-taking forms (`spatial_block_partition`, `non_streaming_schedule`,
//! ...) analyse it afresh per call.

#![warn(missing_docs)]

pub mod liststr;
pub mod metrics;
pub mod multiplex;
pub mod partition;
pub mod placement;
pub mod streaming;

pub use liststr::{list_schedule, non_streaming_schedule, ListSchedule};
pub use metrics::{metrics as compute_metrics, Metrics};
pub use multiplex::{
    multiplex_layout, temporal_multiplex_partition, MultiplexLayout, Tenant,
    DEFAULT_TRANSITION_COST,
};
pub use partition::{
    downsampler_blocks, downsampler_partition, elementwise_blocks, elementwise_partition,
    spatial_block_partition, spatial_blocks, upsampler_blocks, upsampler_partition, SbVariant,
};
pub use placement::{assign_pes, Placement};
pub use stg_analysis::TaskPrecedence;
pub use streaming::{
    schedule_blocks, schedule_partition, schedule_partition_with, streaming_schedule,
    StreamingResult,
};

#[cfg(test)]
mod tests {
    use super::*;
    use stg_model::Builder;

    #[test]
    fn streaming_beats_non_streaming_on_chains() {
        // The headline comparison: pipelined vs buffered scheduling of a
        // task chain.
        let mut b = Builder::new();
        let t: Vec<_> = (0..8).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, 512);
        let g = b.finish().unwrap();
        let p = 8;
        let str_res = streaming_schedule(&g, p, SbVariant::Rlx).unwrap();
        let nstr = non_streaming_schedule(&g, p);
        assert!(
            str_res.metrics.makespan < nstr.makespan,
            "streaming {} vs buffered {}",
            str_res.metrics.makespan,
            nstr.makespan
        );
        // Chain: buffered speedup is exactly 1.
        assert_eq!(nstr.makespan, g.sequential_time());
        // Streaming approaches 8x for large volumes.
        assert!(str_res.metrics.speedup > 6.0);
    }

    #[test]
    fn all_partitioners_produce_valid_schedules() {
        // A mixed graph exercising every node class.
        let mut b = Builder::new();
        let t0 = b.compute("t0");
        let up = b.compute("up");
        let d = b.compute("d");
        let e1 = b.compute("e1");
        let e2 = b.compute("e2");
        let j = b.compute("j");
        b.edge(t0, up, 8);
        b.edge(up, e1, 32);
        b.edge(t0, d, 8);
        b.edge(d, e2, 2);
        // Join requires equal input volumes: bring both paths to 2.
        let d1 = b.compute("d1");
        b.edge(e1, d1, 32);
        b.edge(d1, j, 2);
        b.edge(e2, j, 2);
        let g = b.finish().unwrap();
        for p in [1usize, 2, 3, 7] {
            for variant in [SbVariant::Lts, SbVariant::Rlx] {
                let r = streaming_schedule(&g, p, variant).unwrap();
                assert!(r.partition.max_block_size() <= p);
                assert!(r.metrics.makespan > 0);
            }
        }
    }

    #[test]
    fn more_pes_never_hurt_rlx_much() {
        // Sanity: speedup at P=8 at least matches P=1 for a diamond mesh.
        let mut b = Builder::new();
        let root = b.compute("root");
        let mid: Vec<_> = (0..4).map(|i| b.compute(format!("m{i}"))).collect();
        let join = b.compute("join");
        for m in &mid {
            b.edge(root, *m, 16);
            b.edge(*m, join, 16);
        }
        let g = b.finish().unwrap();
        let r1 = streaming_schedule(&g, 1, SbVariant::Rlx).unwrap();
        let r8 = streaming_schedule(&g, 8, SbVariant::Rlx).unwrap();
        assert!(r8.metrics.makespan <= r1.metrics.makespan);
    }
}
