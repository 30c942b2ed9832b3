//! Property-based tests of the workload registry's contracts: every
//! registered `WorkloadKind` round-trips through `Display`/`FromStr`,
//! generates a valid (acyclic, canonical) DAG whose compute count matches
//! `task_count()`, and instantiates byte-identically for equal
//! `(spec, seed)` whether built directly or served from the memoization
//! cache.

use proptest::prelude::*;
use stg_workloads::{WorkloadFamily, WorkloadKind};

/// Random sizes across every parseable family — the four paper
/// topologies plus the four extension families (sized small enough for
/// per-case generation).
fn arbitrary_kind() -> impl Strategy<Value = WorkloadKind> {
    fn parse(spec: String) -> WorkloadKind {
        spec.parse().unwrap_or_else(|e| panic!("{e}"))
    }
    prop_oneof![
        (2usize..12).prop_map(|n| parse(format!("chain:{n}"))),
        (1u32..4).prop_map(|k| parse(format!("fft:{}", 1usize << (k + 1)))),
        (2usize..8).prop_map(|m| parse(format!("gauss:{m}"))),
        (2usize..6).prop_map(|t| parse(format!("chol:{t}"))),
        (1usize..6, 2usize..6).prop_map(|(r, c)| parse(format!("stencil2d:{r}x{c}"))),
        (8usize..64, 1u32..400_000)
            .prop_map(|(n, ppm)| { parse(format!("spmv:{n}:{}", ppm as f64 / 1e6)) }),
        (1usize..400).prop_map(|seq| parse(format!("attention:seq{seq}"))),
        (1usize..6, 1usize..8).prop_map(|(w, s)| parse(format!("forkjoin:{w}x{s}"))),
    ]
}

/// The `(src, dst, volume)` edge list — the byte-level identity of a
/// generated graph (node payloads are pure functions of the spec).
fn edge_list(g: &stg_model::CanonicalGraph) -> Vec<(usize, usize, u64)> {
    g.dag()
        .edges()
        .map(|(_, e)| (e.src.index(), e.dst.index(), e.weight))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_kind_round_trips_and_generates_valid_graphs(
        kind in arbitrary_kind(),
        seed in any::<u64>(),
    ) {
        // Display/FromStr round-trip.
        let spec = kind.to_string();
        let reparsed: WorkloadKind = spec.parse().map_err(
            |e| TestCaseError::fail(format!("{spec}: {e}")))?;
        prop_assert_eq!(&reparsed, &kind, "{}", spec);

        // The generated graph is canonical (hence acyclic) and its
        // compute count matches the declared task count.
        let g = kind.build(seed);
        if let Err(v) = g.validate() {
            return Err(TestCaseError::fail(format!("{spec} seed {seed}: {v:?}")));
        }
        prop_assert_eq!(g.compute_count(), kind.task_count(), "{}", spec);

        // Cache coherence: the memoized instantiation is byte-identical
        // to a direct build for the same (spec, seed), and a second
        // instantiation shares the same graph.
        let cached = kind.instantiate(seed);
        prop_assert_eq!(edge_list(&g), edge_list(&cached), "{}", spec);
        prop_assert!(std::sync::Arc::ptr_eq(&cached, &kind.instantiate(seed)));
    }

    #[test]
    fn equal_spec_and_seed_are_byte_identical_across_values(
        kind in arbitrary_kind(),
        seed in any::<u64>(),
    ) {
        // Two independently parsed values of one spec build identically.
        let twin: WorkloadKind = kind.to_string().parse().unwrap();
        prop_assert_eq!(edge_list(&kind.build(seed)), edge_list(&twin.build(seed)));
        // ... and different seeds change volumes (or structure) for
        // seeded families on all but degenerate sizes.
        prop_assume!(kind.task_count() >= 4);
        let a = edge_list(&kind.build(seed));
        let b = edge_list(&kind.build(seed ^ 0x9E37_79B9));
        // Volumes are random; identical lists across seeds would mean the
        // seed is ignored. (Tiny graphs can collide; filtered above.)
        if a == b {
            // Extremely unlikely but not impossible; tolerate single
            // collisions by checking a second seed too.
            let c = edge_list(&kind.build(seed.wrapping_add(1)));
            prop_assert_ne!(a, c, "seed appears to be ignored");
        }
    }
}

/// The full registry (including the ML recipes) parses back from its
/// spec strings without instantiating anything.
#[test]
fn registered_specs_round_trip_without_building() {
    for kind in WorkloadKind::registered() {
        let spec = kind.to_string();
        assert_eq!(spec.parse::<WorkloadKind>().unwrap(), kind, "{spec}");
    }
}

/// ML graphs lower lazily, once per process, and are shared thereafter.
#[test]
fn transformer_lowers_once_and_is_shared() {
    let kind: WorkloadKind = "transformer".parse().unwrap();
    let a = kind.instantiate(3);
    let b = kind.instantiate(9); // fixed graphs ignore the seed
    assert!(std::sync::Arc::ptr_eq(&a, &b));
    assert_eq!(a.compute_count(), kind.task_count());
}

/// Every registered seeded family builds one tenant: its compute-task
/// precedence DAG is weakly connected at the registry sizes and at the CI
/// registry grid's (the registry's, with `attention:seq512`), seeds 0–19.
/// So on registry workloads `multiplex:<slots>` packs one slot and
/// charges no transition. A family that starts building several
/// components fails here, and with it this description of multiplexing
/// in the README and in `stg_sched::multiplex`.
#[test]
fn every_seeded_family_is_one_tenant() {
    let ci_attention: WorkloadKind = "attention:seq512".parse().expect("registered spec");
    let kinds = WorkloadKind::registered()
        .into_iter()
        .filter(|k| k.seeded())
        .chain([ci_attention]);
    for kind in kinds {
        for seed in 0..20 {
            let layout = stg_sched::temporal_multiplex_partition(&kind.build(seed), 4, 3);
            assert_eq!(
                (
                    layout.tenants.len(),
                    layout.slots_used,
                    layout.transitions()
                ),
                (1, 1, 0),
                "{kind} seed {seed}"
            );
        }
    }
}
