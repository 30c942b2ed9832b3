//! The [`WorkloadFamily`] abstraction: every workload — the paper's four
//! synthetic topologies, the fixed ML graphs, and any new generator — is a
//! named family that renders a canonical spec string, declares its task
//! count, and instantiates seeded canonical graphs through the shared
//! memoization cache ([`crate::cache`]).
//!
//! This mirrors the `stg_core::Scheduler` / `SchedulerKind` split: the
//! trait is the abstraction the engine talks to, [`crate::WorkloadKind`]
//! is the registry of everything a `--workload` spec string can name.

use std::sync::Arc;

use stg_model::CanonicalGraph;

use crate::cache;

/// A family of task-graph workloads, identified by a spec string.
///
/// Implementations are immutable and thread-safe so one instance can
/// instantiate graphs for many sweep cells concurrently. The number of
/// tasks (and for seed-insensitive families the whole graph) must be a
/// pure function of the spec; only edge volumes — and, for families like
/// [`crate::Spmv`], the sparsity pattern — may vary with the seed.
pub trait WorkloadFamily: Send + Sync {
    /// The lowercase family keyword used in spec strings and `--workload`
    /// filters ("chain", "stencil2d", "resnet50", ...).
    fn family(&self) -> &'static str;

    /// The canonical spec string (`chain:8`, `stencil2d:16x16`, ...).
    /// Round-trips through `WorkloadKind::from_str`.
    fn spec(&self) -> String;

    /// The identifier used in reports and emitted CSV/JSON rows. Defaults
    /// to the spec; fixed graphs use their display name ("Resnet-50").
    fn label(&self) -> String {
        self.spec()
    }

    /// The number of compute tasks per generated graph. Constant across
    /// seeds (the cache-coherence and round-trip property tests rely on
    /// it).
    fn task_count(&self) -> usize;

    /// Builds one graph for `seed`, bypassing the cache: for a caller
    /// that is the graph's one user, as a sweep's graph job is. Prefer
    /// [`WorkloadFamily::instantiate`] for a graph that is asked for again.
    fn build(&self, seed: u64) -> CanonicalGraph;

    /// False for fixed graphs whose structure and volumes ignore the seed
    /// (they are cached under a single entry and built once per process).
    fn seeded(&self) -> bool {
        true
    }

    /// Returns the graph for `seed`, shared through the process-wide
    /// memoization cache: equal `(spec, seed)` keys build exactly once
    /// and every later request receives the same `Arc`.
    fn instantiate(&self, seed: u64) -> Arc<CanonicalGraph> {
        self.instantiate_traced(seed).0
    }

    /// [`WorkloadFamily::instantiate`] plus whether the cache already
    /// held the graph (`true` = hit). The sweep engine aggregates these
    /// into per-sweep cache statistics.
    fn instantiate_traced(&self, seed: u64) -> (Arc<CanonicalGraph>, bool) {
        let seed = if self.seeded() { seed } else { 0 };
        cache::get_or_build(&self.spec(), seed, || self.build(seed))
    }
}
