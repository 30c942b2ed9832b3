//! Convenience re-exports of the most commonly used types across the
//! workspace.

pub use crate::pipeline::{
    MultiplexScheduler, NonStreamingPlan, NonStreamingScheduler, Partitioner, StreamingPlan,
    StreamingScheduler,
};
pub use crate::scheduler::{Plan, Scheduler, SchedulerKind};
pub use stg_analysis::{
    generalized_levels, non_streaming_depth, schedule, streaming_depth, streaming_depth_bound,
    work_depth, GraphFacts, Partition, Schedule, ScheduleError, StreamingIntervals, WorkDepth,
};
pub use stg_buffer::{buffer_sizes, BufferPlan, ChannelKind, SizingPolicy};
pub use stg_des::{
    relative_error, simulate, simulate_kind, simulate_with, simulate_with_kind, BatchedSim,
    ReferenceSim, SimConfig, SimFailure, SimKind, SimResult, Simulator,
};
pub use stg_graph::{Dag, EdgeId, NodeId, Ratio};
pub use stg_model::{Builder, CanonicalGraph, CanonicalNode, NodeClass, NodeKind, Violation};
pub use stg_sched::{
    assign_pes, downsampler_partition, elementwise_partition, non_streaming_schedule,
    spatial_block_partition, streaming_schedule, temporal_multiplex_partition, ListSchedule,
    Metrics, MultiplexLayout, Placement, SbVariant, StreamingResult,
};
