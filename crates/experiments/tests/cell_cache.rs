//! Cache-correctness properties of the staged sweep pipeline.
//!
//! The result store is an *accelerator*: its presence, temperature, and
//! backing medium must never change a byte of sweep output. These tests
//! pin that from the outside — a warm-cache rerun of a random filtered
//! spec is byte-identical to the cold run (with every cell served from
//! the store), changing any `CellKey` component forces misses, and every
//! preset schedules name-blind, which is what lets graphs that differ
//! only in node names share one semantic key.

use proptest::prelude::*;
use stg_core::SchedulerKind;
use stg_des::SimKind;
use stg_experiments::engine::{SimChoice, WorkloadSpec};
use stg_experiments::{ResultStore, SweepSpec};
use stg_model::{Builder, CanonicalGraph};

/// A small spec assembled from proptest-chosen grid dimensions. Bitmasks
/// select non-empty subsets of workloads and schedulers; everything stays
/// proptest-sized so validated sweeps run in milliseconds.
fn build_spec(
    workload_mask: usize,
    sched_mask: usize,
    pe_choice: usize,
    graphs: u64,
    seed: u64,
    validate: bool,
) -> SweepSpec {
    let all_workloads = ["chain:6", "fft:8", "stencil2d:4x4", "forkjoin:2x3"];
    let all_schedulers = [
        SchedulerKind::StreamingLts,
        SchedulerKind::StreamingRlx,
        SchedulerKind::NonStreaming,
    ];
    let pes = [vec![2], vec![4], vec![2, 4]][pe_choice % 3].clone();
    let workloads: Vec<WorkloadSpec> = all_workloads
        .iter()
        .enumerate()
        .filter(|(i, _)| workload_mask & (1 << i) != 0)
        .map(|(_, s)| WorkloadSpec {
            workload: s.parse().expect("registered spec"),
            pes: pes.clone(),
        })
        .collect();
    let schedulers: Vec<SchedulerKind> = all_schedulers
        .iter()
        .enumerate()
        .filter(|(i, _)| sched_mask & (1 << i) != 0)
        .map(|(_, &k)| k)
        .collect();
    SweepSpec {
        workloads,
        graphs,
        seed,
        schedulers,
        validate,
        sim: SimChoice::Batched,
        timing: false,
        threads: Some(2),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A warm-cache rerun of a random filtered spec is byte-identical to
    /// the cold run on both emitters, with every cell a store hit and no
    /// graph ever re-instantiated.
    #[test]
    fn warm_rerun_is_byte_identical(
        workload_mask in 1usize..16,
        sched_mask in 1usize..8,
        pe_choice in 0usize..3,
        graphs in 1u64..3,
        seed in any::<u64>(),
        validate in any::<bool>(),
    ) {
        let spec = build_spec(workload_mask, sched_mask, pe_choice, graphs, seed, validate);
        let store = ResultStore::in_memory();
        let cold = spec.run_with(Some(&store));
        let warm = spec.run_with(Some(&store));
        let n = cold.runs.len() as u64;
        prop_assert_eq!(cold.cell_cache.hits, 0);
        prop_assert_eq!(cold.cell_cache.misses, n);
        prop_assert_eq!(warm.cell_cache.hits, n);
        prop_assert_eq!(warm.cell_cache.misses, 0);
        prop_assert_eq!(warm.cache.total(), 0, "warm cells must not instantiate graphs");
        prop_assert_eq!(cold.to_csv(), warm.to_csv());
        prop_assert_eq!(cold.to_json(), warm.to_json());
        // The store never changes output: a storeless run matches too.
        prop_assert_eq!(cold.to_csv(), spec.run().to_csv());
    }

    /// Changing any `CellKey` component — seed, PE count, scheduler, sim
    /// mode, workload — makes every (changed) cell miss a store warmed
    /// with the original spec.
    #[test]
    fn changing_any_key_component_forces_misses(
        seed in any::<u64>(),
        component in 0usize..5,
    ) {
        let base = build_spec(0b0001, 0b001, 0, 1, seed, false);
        let store = ResultStore::in_memory();
        base.run_with(Some(&store));
        prop_assert_eq!(base.run_with(Some(&store)).cell_cache.misses, 0);
        let mut changed = base.clone();
        match component {
            0 => changed.seed = changed.seed.wrapping_add(1),
            1 => changed.workloads[0].pes = vec![8],
            2 => changed.schedulers = vec![SchedulerKind::StreamingRlx],
            3 => changed.validate = true, // sim mode off -> batched
            _ => changed.workloads[0].workload = "chain:7".parse().unwrap(),
        }
        let rerun = changed.run_with(Some(&store));
        prop_assert_eq!(rerun.cell_cache.hits, 0, "component {} must key the cell", component);
        prop_assert_eq!(rerun.cell_cache.misses, rerun.runs.len() as u64);
    }
}

/// `chains` disjoint task chains (so the multiplex preset sees several
/// tenants), `tasks` long, with per-chain volumes scaled off `volume`.
/// Node names carry `prefix`, so two prefixes build two graphs that
/// differ only in names.
fn multi_chain(chains: usize, tasks: usize, volume: u64, prefix: &str) -> CanonicalGraph {
    let mut b = Builder::new();
    for c in 0..chains {
        let t: Vec<_> = (0..tasks)
            .map(|i| b.compute(format!("{prefix}{c}_{i}")))
            .collect();
        b.chain(&t, volume * (c as u64 + 1));
    }
    b.finish().expect("disjoint chains are acyclic")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Semantic cell keys are built from `CanonicalGraph::fingerprint`,
    /// which ignores node names, so a graph and its renamed copy share
    /// one stored outcome. That is sound only if every preset schedules
    /// name-blind: equal fingerprints, the same plan or error, and the
    /// same batched validation. `Debug` rendering is the byte-identity
    /// proxy for plans: it prints every field, including the exact bits
    /// of the f64 metrics.
    #[test]
    fn renamed_graphs_share_a_fingerprint_and_schedule_identically(
        chains in 1usize..4,
        tasks in 2usize..6,
        volume in 1u64..200,
        pes in 2usize..6,
    ) {
        let g = multi_chain(chains, tasks, volume, "t");
        let renamed = multi_chain(chains, tasks, volume, "renamed");
        prop_assert_eq!(g.fingerprint(), renamed.fingerprint());
        for kind in SchedulerKind::ALL.into_iter().chain([SchedulerKind::Multiplex(3)]) {
            let scheduler = kind.build(pes);
            let (plan, renamed_plan) = (scheduler.schedule(&g), scheduler.schedule(&renamed));
            prop_assert_eq!(format!("{plan:?}"), format!("{renamed_plan:?}"), "{}", kind);
            if let (Ok(plan), Ok(renamed_plan)) = (plan, renamed_plan) {
                prop_assert_eq!(
                    plan.validate_with(&g, SimKind::Batched),
                    renamed_plan.validate_with(&renamed, SimKind::Batched),
                    "{}", kind
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The arena-backed graph cache is invisible to consumers: for every
    /// registered workload family, the cached (CSR-compacted) graph is
    /// fingerprint-identical and structurally equal to a freshly built
    /// one, and a repeat instantiation is a pointer-equal cache hit.
    #[test]
    fn cached_arena_graphs_match_fresh_builds(seed in any::<u64>()) {
        use std::sync::Arc;
        use stg_workloads::{WorkloadFamily, WorkloadKind};
        for kind in WorkloadKind::registered() {
            let (cached, _) = kind.instantiate_traced(seed);
            prop_assert!(
                cached.dag().is_compact(),
                "family {} must publish a compacted arena", kind.spec()
            );
            let fresh = kind.build(seed);
            prop_assert!(
                !fresh.dag().is_compact(),
                "fresh builds stay uncompacted (family {})", kind.spec()
            );
            prop_assert_eq!(
                cached.fingerprint(), fresh.fingerprint(),
                "family {} arena fingerprint drift", kind.spec()
            );
            prop_assert!(
                cached.structurally_equal(&fresh),
                "family {} arena structure drift", kind.spec()
            );
            let (again, hit) = kind.instantiate_traced(seed);
            prop_assert!(hit, "repeat instantiation must hit");
            prop_assert!(Arc::ptr_eq(&cached, &again));
        }
    }
}

/// The disk store carries cells across store instances (processes): a
/// second instance over the same `--cache-dir` serves the whole grid
/// without evaluating anything, byte-identically.
#[test]
fn disk_store_warms_across_instances() {
    let dir = std::env::temp_dir().join(format!("stg-cell-cache-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = build_spec(0b0011, 0b101, 2, 2, 0xD15C_CAFE, true);
    let cold_csv;
    {
        let store = ResultStore::at_dir(&dir).expect("create cache dir");
        let cold = spec.run_with(Some(&store));
        assert_eq!(cold.cell_cache.misses, cold.runs.len() as u64);
        cold_csv = cold.to_csv();
    }
    let store = ResultStore::at_dir(&dir).expect("reopen cache dir");
    let warm = spec.run_with(Some(&store));
    assert_eq!(warm.cell_cache.hits, warm.runs.len() as u64);
    assert_eq!(warm.cell_cache.misses, 0);
    assert_eq!(warm.to_csv(), cold_csv);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted disk artifact is evicted (counted), the cells re-evaluate,
/// and the store heals: output stays byte-identical and a further rerun
/// is all hits again. The engine persists whole segments, so corrupting
/// the cache dir evicts segment files — clean misses, not per-cell
/// invalidations (those are covered by the store's unit tests).
#[test]
fn corrupted_disk_entries_invalidate_and_heal() {
    let dir = std::env::temp_dir().join(format!("stg-cell-cache-inv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = build_spec(0b0001, 0b001, 0, 2, 0xBAD_F00D, false);
    let store = ResultStore::at_dir(&dir).expect("create cache dir");
    let cold = spec.run_with(Some(&store));
    store.flush();
    // Corrupt every disk artifact and drop the in-memory copies by
    // reopening the store.
    let mut artifacts = 0u64;
    for entry in std::fs::read_dir(&dir).expect("cache dir") {
        let path = entry.expect("entry").path();
        std::fs::write(&path, "garbage\n").expect("corrupt");
        artifacts += 1;
    }
    assert!(artifacts > 0, "cold run persisted something");
    let store = ResultStore::at_dir(&dir).expect("reopen cache dir");
    let healed = spec.run_with(Some(&store));
    let n = cold.runs.len() as u64;
    assert_eq!(
        healed.cell_cache.evicted, artifacts,
        "corrupt artifacts deleted"
    );
    assert_eq!(healed.cell_cache.misses, n);
    assert_eq!(healed.cell_cache.hits, 0);
    assert_eq!(healed.to_csv(), cold.to_csv());
    let again = spec.run_with(Some(&store));
    assert_eq!(again.cell_cache.hits, n);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The one-cell grid of the segment fixtures below.
fn one_cell_spec() -> SweepSpec {
    SweepSpec {
        workloads: vec![WorkloadSpec {
            workload: "chain:8".parse().expect("registered spec"),
            pes: vec![4],
        }],
        graphs: 1,
        seed: 1,
        schedulers: vec![SchedulerKind::StreamingLts],
        validate: false,
        sim: SimChoice::default(),
        timing: false,
        threads: Some(1),
    }
}

/// A fresh cache directory for one test.
fn cache_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("stg-cell-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create cache dir");
    dir
}

/// The `seg-*.cells` files of `dir`.
fn segments(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    std::fs::read_dir(dir)
        .expect("cache dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "cells"))
        .collect()
}

/// A flipped byte inside each stored record is never served: both
/// entries of the one-cell store (the nominal and the semantic key) fail
/// their checksum and count as invalidations, the cell is evaluated again
/// and the output is byte-identical. Offsets follow the v3 segment
/// layout: a 16-byte header, then per entry a u64 hash, u32 key and
/// record lengths, the key, the record and a u64 checksum.
#[test]
fn flipped_record_bytes_are_invalidated_not_served() {
    let dir = cache_dir("flip");
    let spec = one_cell_spec();
    let clean = {
        let store = ResultStore::at_dir(&dir).expect("open cache dir");
        spec.run_with(Some(&store)).to_csv()
    };
    let [seg] = &segments(&dir)[..] else {
        panic!("one segment")
    };
    let mut bytes = std::fs::read(seg).expect("segment bytes");
    let mut at = 16;
    while at < bytes.len() {
        let len = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let (key_len, record_len) = (len(at + 8), len(at + 12));
        // The low byte of the record's makespan: 391 would read 263.
        bytes[at + 16 + key_len + 1] ^= 0x80;
        at += 16 + key_len + record_len + 8;
    }
    std::fs::write(seg, &bytes).expect("rewrite");
    let store = ResultStore::at_dir(&dir).expect("reopen cache dir");
    let rerun = spec.run_with(Some(&store));
    assert_eq!(rerun.to_csv(), clean);
    let stats = rerun.cell_cache;
    assert_eq!((stats.hits, stats.misses, stats.repaired), (0, 1, 0));
    assert_eq!((stats.invalidations, stats.evicted), (2, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A segment the v2 store wrote (text payloads, no checksums; the
/// fixture is the one-cell grid's cache directory as the v2 `sweep`
/// left it) is evicted whole as a stale schema, and the cell re-evaluates
/// to the bytes a storeless run emits.
#[test]
fn v2_segments_are_evicted_and_the_rerun_is_byte_identical() {
    const V2_SEGMENT: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/segment_v2.cells"
    );
    let old = std::fs::read(V2_SEGMENT).expect("fixture checked in");
    assert_eq!(&old[..12], b"STGCELLS\x02\0\0\0", "a v2 segment");
    let dir = cache_dir("v2");
    let stale = dir.join("seg-ce4cf1b2c693d024.cells");
    std::fs::write(&stale, &old).expect("install fixture");
    let spec = one_cell_spec();
    let store = ResultStore::at_dir(&dir).expect("open cache dir");
    let rerun = spec.run_with(Some(&store));
    assert_eq!(rerun.to_csv(), spec.run().to_csv());
    let stats = rerun.cell_cache;
    assert_eq!((stats.hits, stats.misses, stats.evicted), (0, 1, 1));
    assert!(!stale.exists(), "the stale segment is deleted");
    drop(store);
    let warm = ResultStore::at_dir(&dir).expect("reopen cache dir");
    assert_eq!(spec.run_with(Some(&warm)).cell_cache.hits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
