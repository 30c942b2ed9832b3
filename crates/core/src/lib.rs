//! # stg-core
//!
//! The high-level entry point of the streaming task graph scheduler: one
//! call runs the full pipeline of the paper —
//!
//! 1. partition the canonical task graph into spatial blocks (Algorithm 1),
//! 2. compute per-block steady-state streaming intervals (Theorem 4.1),
//! 3. derive the `ST/FO/LO` schedule (Section 5.1),
//! 4. size the FIFO channels for deadlock freedom (Section 6),
//!
//! plus the non-streaming baseline behind the same API, and optional
//! validation by discrete event simulation (Appendix B).
//!
//! ```
//! use stg_core::prelude::*;
//!
//! // An 8-task chain with 256-element messages on 4 PEs.
//! let mut b = Builder::new();
//! let tasks: Vec<_> = (0..8).map(|i| b.compute(format!("t{i}"))).collect();
//! b.chain(&tasks, 256);
//! let graph = b.finish().expect("canonical");
//!
//! let plan = StreamingScheduler::new(4).run(&graph).expect("schedulable");
//! let baseline = NonStreamingScheduler::new(4).run(&graph);
//! assert!(plan.metrics().makespan < baseline.metrics.makespan);
//!
//! // The schedule survives element-level simulation.
//! let sim = plan.validate(&graph);
//! assert!(sim.completed());
//! ```

#![warn(missing_docs)]

pub mod pipeline;
pub mod prelude;
pub mod scheduler;

pub use pipeline::{
    MultiplexScheduler, NonStreamingPlan, NonStreamingScheduler, Partitioner, StreamingPlan,
    StreamingScheduler,
};
pub use scheduler::{ParseSchedulerError, Plan, Scheduler, SchedulerKind};
