//! Process-wide memoization of instantiated workload graphs.
//!
//! The sweep engine evaluates a graph's scheduler × PE cells together, as
//! one job that builds the graph for itself and drops it when the job
//! ends, so a sweep does not need this cache to build each graph once.
//! What still shares graphs through it: one-cell evaluations (every
//! `serve` plan request, and a sweep cell whose graph has no other cell
//! left to evaluate), unseeded graphs such as the ML models, which are
//! built once per process, and `SweepSpec::run_map`, which hands each
//! case its graph separately. The cache keys graphs by `(spec, seed)` and
//! hands out shared `Arc`s, guaranteeing **exactly one** construction per
//! key even under concurrent instantiation: the map lock only guards slot
//! lookup, while a per-slot [`OnceLock`] serializes (and deduplicates)
//! the build itself.
//!
//! The cache never evicts on its own — resident memory is
//! O(distinct `(spec, seed)` keys) until the process exits. Experiment
//! binaries are short-lived, and the service's requests repeat a small
//! set of graphs; long-lived processes that draw new graphs without end
//! (benchmark harnesses) should call [`clear`] between work items they
//! don't want to share graphs across.
//!
//! Retained graphs are **arena-compacted** before they are published:
//! the builder finishes, the graph's adjacency moves into contiguous CSR
//! slabs ([`Dag::compact`](stg_graph::Dag::compact)), and every cache hit
//! hands out an `Arc` of that compact arena — zero per-hit allocation
//! (the spec is looked up by `&str`, never re-boxed) and better traversal
//! locality for the scheduler's level/partition passes. Compaction never
//! changes ids, adjacency order, or any scheduling output; the
//! cache-coherence proptest pins fingerprint equality against freshly
//! built graphs across every registered family.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use stg_model::CanonicalGraph;

type Slot = Arc<OnceLock<Arc<CanonicalGraph>>>;

/// Keyed `spec → seed → slot`: two levels so the hot path can look a
/// spec up by `&str` (via the `Borrow<str>` impl on `String` keys)
/// without allocating a key tuple per call.
static CACHE: OnceLock<Mutex<HashMap<String, HashMap<u64, Slot>>>> = OnceLock::new();

/// Hit/miss counts of the workload graph cache, as the engine tallies them
/// per sweep (`stg_experiments::engine::Sweep::cache`); its counter set is
/// registered in `stg_experiments::metrics` as `graph_cache_*`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Instantiations served from the cache.
    pub hits: u64,
    /// Instantiations that had to build the graph.
    pub misses: u64,
}

impl CacheStats {
    /// Records one instantiation outcome.
    pub fn record(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Total instantiations observed.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }
}

fn map() -> &'static Mutex<HashMap<String, HashMap<u64, Slot>>> {
    CACHE.get_or_init(Default::default)
}

/// Returns the cached graph for `(spec, seed)`, building it with `build`
/// on the first request. The second component is `true` when the cache
/// already held the graph. Concurrent first requests for one key block on
/// the builder instead of duplicating work.
///
/// Hits allocate nothing: the slot lookup borrows `spec` as `&str` and
/// the returned graph is an `Arc` clone of the compacted arena built on
/// the first request. Only a miss pays the `String` key insertion and
/// the build + [`compact`](stg_graph::Dag::compact) cost.
pub fn get_or_build(
    spec: &str,
    seed: u64,
    build: impl FnOnce() -> CanonicalGraph,
) -> (Arc<CanonicalGraph>, bool) {
    let slot = {
        let mut m = map().lock().expect("workload cache lock");
        match m.get(spec).and_then(|seeds| seeds.get(&seed)) {
            Some(slot) => Arc::clone(slot),
            None => {
                let slot: Slot = Slot::default();
                m.entry(spec.to_string())
                    .or_default()
                    .insert(seed, Arc::clone(&slot));
                slot
            }
        }
    };
    let mut built = false;
    let graph = slot
        .get_or_init(|| {
            built = true;
            let mut g = build();
            // Compact once, before publication: every hit shares the
            // CSR-slab arena.
            g.dag_mut().compact();
            Arc::new(g)
        })
        .clone();
    (graph, !built)
}

/// Drops every cached graph. Shared `Arc`s held by callers stay alive;
/// only the cache's references go.
pub fn clear() {
    map().lock().expect("workload cache lock").clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg_model::Builder;

    fn tiny(n: u64) -> CanonicalGraph {
        let mut b = Builder::new();
        let a = b.compute("a");
        let c = b.compute("b");
        b.edge(a, c, n);
        b.finish().unwrap()
    }

    #[test]
    fn second_request_is_a_hit_and_shares_the_graph() {
        let (a, hit_a) = get_or_build("test-cache-tiny:1", 7, || tiny(8));
        let (b, hit_b) = get_or_build("test-cache-tiny:1", 7, || unreachable!("cached"));
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn distinct_seeds_and_specs_build_separately() {
        let (a, _) = get_or_build("test-cache-tiny:2", 0, || tiny(16));
        let (b, hit) = get_or_build("test-cache-tiny:2", 1, || tiny(16));
        assert!(!hit);
        assert!(!Arc::ptr_eq(&a, &b));
        let (_, hit) = get_or_build("test-cache-tiny:3", 0, || tiny(16));
        assert!(!hit);
    }

    #[test]
    fn cached_graphs_are_arena_compacted_and_structurally_intact() {
        let fresh = tiny(32);
        let (cached, hit) = get_or_build("test-cache-tiny:compact", 3, || tiny(32));
        assert!(!hit);
        assert!(cached.dag().is_compact(), "cache compacts before publish");
        assert!(!fresh.dag().is_compact(), "fresh builds stay uncompacted");
        assert_eq!(cached.fingerprint(), fresh.fingerprint());
        assert!(cached.structurally_equal(&fresh));
        // Hits hand out the same compact arena.
        let (again, hit) = get_or_build("test-cache-tiny:compact", 3, || unreachable!());
        assert!(hit);
        assert!(Arc::ptr_eq(&cached, &again));
    }

    #[test]
    fn exactly_once_under_concurrency() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let builds = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    get_or_build("test-cache-tiny:4", 5, || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        tiny(4)
                    })
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
    }
}
