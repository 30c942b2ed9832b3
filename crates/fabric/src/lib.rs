//! `stg_fabric` — the distributed sweep fabric.
//!
//! A coordinator expands a [`stg_experiments::SweepSpec`] into **leases**
//! of whole graph instances and serves them to workers over newline-JSON
//! loopback TCP
//! (the same framing as the `stg_service` daemon). The fabric's promise
//! is the workspace's determinism contract, extended across processes:
//! the merged artifact is **byte-identical** to an unsharded `sweep` run
//! of the same spec, regardless of worker count, work-stealing splits,
//! lease re-queues, or workers killed mid-lease.
//!
//! The moving parts:
//!
//! - [`protocol`] — the request/response frames (`hello`/`lease`/`next`/
//!   `rows`/`ping`/`stats`); a `rows` frame carries the shard artifact's
//!   row section ([`stg_experiments::store::put_rows`]) in a hex wrapper.
//! - [`coordinator`] — lease queue in graph order
//!   ([`stg_experiments::GraphOrder`]), work-stealing splits at graph
//!   boundaries, deadline and connection-drop re-queue, and the drain
//!   phase.
//! - [`worker`] — lease/evaluate/report loop over the shared engine
//!   ([`stg_experiments::SweepSpec::run_cases_on`], one graph-major pass
//!   per chunk of whole graphs, and one single-flight table per worker
//!   without a store), honoring steal truncation acks.
//! - the engine's bounded-memory [`StreamMerger`] (re-exported here with
//!   its [`OutputKind`]), which the coordinator feeds each reported row;
//!   the same merger writes `sweep` and `sweep merge` artifacts.
//! - [`counters`] — the fabric counter set (`leases_issued`,
//!   `leases_stolen`, `re_queued`, `worker_deaths`, `merge_peak_rows`, …,
//!   plus the workers' `cell_cache_*` and `leap_*` telemetry) served over
//!   the `stats` op and printed at exit.
//!
//! Entry points: the `fabric` binary (`fabric coordinate` / `fabric work`
//! / `fabric stats`) and `sweep --distributed N`, which delegates to it.

#![warn(missing_docs)]

pub mod coordinator;
pub mod counters;
pub mod protocol;
pub mod worker;

pub use coordinator::{Coordinator, FabricConfig, FabricRunReport, LeaseTuner};
pub use counters::{FabricCounters, FabricSnapshot};
pub use protocol::{
    FabricRequest, FabricResponse, LeaseOrder, MAX_FRAME_BYTES, MAX_ROWS_PER_FRAME,
};
pub use stg_experiments::{OutputKind, StreamMerger};
pub use worker::{run_worker, threads_per_worker, WorkerConfig, WorkerReport};
