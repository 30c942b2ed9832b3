//! # stg-service
//!
//! Scheduler-as-a-service: a std-only daemon that serves scheduling
//! requests over newline-delimited JSON on loopback TCP, answering warm
//! requests from the shared in-process result store (optionally
//! persisted with `--cache-dir`, sharing cell keys with
//! `sweep --cache-dir`) so repeated requests never re-schedule.
//!
//! The production concerns live in dedicated modules:
//!
//! - [`protocol`] — request/response frames (plan, sweep, stats, ping,
//!   shutdown; 400/503 error frames), over the workspace's one JSON codec
//!   ([`stg_experiments::json`]); a sweep request carries the spec
//!   encoding that shard artifacts and fabric handshakes carry too;
//! - [`queue`] — bounded admission with per-client round-robin fairness
//!   (overload is an explicit `503`, never unbounded buffering);
//! - [`counters`] — per-request and aggregate counters behind the
//!   `stats` request;
//! - [`service`] — transport-independent execution over the shared
//!   caches ([`Service::handle`] drives the full path without sockets);
//! - [`server`] — the TCP daemon: worker pool, per-connection writer,
//!   graceful drain;
//! - [`loadgen`] — the closed-loop latency load generator behind the
//!   `loadgen` binary.
//!
//! Two binaries front the crate: `serve` (the daemon) and `loadgen`
//! (deterministic multi-client load with p50/p99 and warm-speedup
//! reporting, plus `--check` for byte-diffing a daemon response against
//! direct engine output).

#![warn(missing_docs)]

pub mod counters;
pub mod loadgen;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod service;

pub use counters::{ClientCounters, Counters, Snapshot, Stats, Totals};
pub use protocol::{
    parse_request, parse_response, PlanRequest, PlanResponse, ProtoError, Request, Response,
    SimMode, SweepRequest, CODE_BAD_REQUEST, CODE_OVERLOADED,
};
pub use queue::{Admission, Reject};
pub use server::{read_frame, Daemon, ACCEPT_BACKOFF, COMMIT_INTERVAL, MAX_FRAME_BYTES};
pub use service::{Service, ServiceConfig};
