//! # stg-experiments
//!
//! The experiment harness regenerating every table and figure of the
//! paper's evaluation section. One binary per artifact:
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `fig10_speedup`   | Figure 10 — speedup distributions + PE utilization |
//! | `fig11_sslr`      | Figure 11 — streaming SLR distributions |
//! | `fig12_csdf`      | Figure 12 — scheduling time & makespan vs CSDF |
//! | `fig13_validation`| Figure 13 — DES relative-error distributions |
//! | `table2_ml`       | Table 2 — ResNet-50 / transformer speedups |
//! | `ablation_semantics` | design-choice ablations (buffer sizing, partitioners) |
//! | `sweep`           | the full grid as deterministic CSV/JSON (engine frontend) |
//! | `all_experiments` | everything above, sequentially |
//!
//! Every binary runs its grid through the [`engine`]: a declarative
//! [`engine::SweepSpec`] evaluated on scoped threads (the calling thread
//! plus helpers, at most one thread per core in all and no helper for a
//! one-thread pass; see [`harness::par_map_with`]), with all schedulers
//! behind the `stg_core::Scheduler` trait and all workloads behind
//! `stg_workloads::WorkloadKind`. Every CSV/JSON artifact — of an
//! in-process sweep, a merged shard set or a fabric run — is written by
//! the one [`emit::StreamMerger`]. All binaries accept
//! `--graphs N --seed S --timeout-ms T --csv --json --validate
//! --threads N --workload LIST --pes LIST --scheduler LIST`
//! (`--topology` is an alias of `--workload`), plus `--list-workloads` /
//! `--list-schedulers` to print the registries and exit.

#![warn(missing_docs)]

pub mod emit;
pub mod engine;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod order;
mod sim_memo;
pub mod stats;
pub mod store;

pub use emit::{MergeReport, MergeTallies, OutputKind, StreamMerger};
pub use engine::{
    Case, CasesResult, Cell, Record, Run, Shard, ShardResult, SimChoice, SimMicros, SimMode,
    SimRecord, SingleFlight, Sweep, SweepSpec, WorkloadSpec,
};
pub use harness::{
    cores, default_threads, par_map_with, print_scheduler_registry, print_workload_registry, Args,
};
pub use order::GraphOrder;
pub use stats::{summary, Summary};
pub use stg_workloads::{WorkloadFamily, WorkloadKind};
pub use store::{CellKey, ResultStore, SemanticTable, StoreStats, SCHEMA_VERSION};
