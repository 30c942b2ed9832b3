//! Differential validation of the two discrete-event simulators.
//!
//! For every registered workload family (at proptest-sized instances) ×
//! every registered scheduler preset, the beat-batched fast path must
//! agree with the per-beat reference simulator **exactly** — same
//! makespan, same per-PE busy time, same peak FIFO occupancy, and in fact
//! the same full [`SimResult`] bit for bit (first-out/completion times,
//! beat counts, per-edge peaks, and failure reports included). Both the
//! buffer-sized plans and the deliberately under-buffered capacity-1
//! configurations (which deadlock some cells) are exercised, so the
//! deadlock reporting paths are differentially covered too.
//!
//! The fixed ML graphs (`resnet50`, `transformer`) are the one registered
//! family without a small instance — simulating them per proptest case
//! would dominate the tier-1 suite; their validation path is covered by
//! the engine's `--sim both` differential mode and the golden-snapshot
//! sweep test instead.

use proptest::prelude::*;
use stg_workloads::{WorkloadFamily, WorkloadKind};
use streaming_sched::prelude::*;

/// A proptest-sized instance of every seeded registered family. The
/// companion test below fails when a new family is registered without
/// being added here.
fn small_specs() -> Vec<WorkloadKind> {
    [
        "chain:6",
        "fft:8",
        "gauss:5",
        "chol:4",
        "stencil2d:5x4",
        "spmv:48:0.08",
        "attention:seq256",
        "forkjoin:3x5",
    ]
    .iter()
    .map(|s| s.parse().expect("registered spec"))
    .collect()
}

#[test]
fn every_registered_family_has_a_differential_cell() {
    let covered: Vec<&'static str> = small_specs().iter().map(|w| w.family()).collect();
    for kind in WorkloadKind::registered() {
        if matches!(kind, WorkloadKind::Ml(_)) {
            continue; // fixed large graphs; see the module docs
        }
        assert!(
            covered.contains(&kind.family()),
            "family {:?} missing from the differential grid — add a small spec",
            kind.family()
        );
    }
}

fn assert_sims_agree(g: &CanonicalGraph, plan: &Plan, label: &str) {
    let reference = plan.validate_with(g, SimKind::Reference);
    let batched = plan.validate_with(g, SimKind::Batched);
    // The named headline metrics first, for readable failures...
    assert_eq!(
        reference.makespan, batched.makespan,
        "{label}: makespan diverged"
    );
    assert_eq!(reference.busy, batched.busy, "{label}: busy time diverged");
    assert_eq!(
        reference.peak_fifo(),
        batched.peak_fifo(),
        "{label}: peak FIFO occupancy diverged"
    );
    // ...then the full results, bit for bit.
    assert_eq!(reference, batched, "{label}: results diverged");
}

/// The paper-grid cell where two tasks end the last block but one in the
/// same cycle: a pure consumer, done at `t + 1`, and an emitting task,
/// done at `t`. The next block must start at the later of the two,
/// whichever one the driver steps last. The batched simulator used to
/// start block 6 of this cell one cycle early (makespan 2865, not 2866).
#[test]
fn next_block_starts_at_the_latest_completion_of_the_block() {
    let workload: WorkloadKind = "fft:32".parse().expect("registered spec");
    let g = workload.build(12_648_441);
    for kind in [SchedulerKind::StreamingLts, SchedulerKind::StreamingRlx] {
        let plan = kind.build(32).schedule(&g).expect("schedulable");
        let label = format!("fft:32 × {kind} @ P=32 seed=12648441");
        assert_sims_agree(&g, &plan, &label);
        assert_eq!(plan.validate_with(&g, SimKind::Batched).makespan, 2866);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every (small workload) × (scheduler preset) cell: the two
    /// simulators produce identical results on the buffer-sized plan.
    #[test]
    fn batched_equals_reference_on_every_cell(
        seed in any::<u64>(),
        pe_choice in 0usize..4,
    ) {
        let pes = [2usize, 3, 7, 16][pe_choice];
        for workload in small_specs() {
            let g = workload.build(seed);
            for kind in SchedulerKind::ALL {
                let label = format!("{} × {kind} @ P={pes} seed={seed}", workload.spec());
                match kind.build(pes).schedule(&g) {
                    Ok(plan) => assert_sims_agree(&g, &plan, &label),
                    // Scheduling errors are data (some appendix
                    // partitioners reject non-conforming graphs); there
                    // is nothing to simulate.
                    Err(_) => continue,
                }
            }
        }
    }

    /// Ratio chains whose steady periods fall outside the old `m · 2^k`
    /// candidate ladder (`m ∈ {1,3,5,7}`) must both **leap** (the general
    /// cycle detector finds the period by occurrence distance — the
    /// ladder never could) and stay bit-identical to the per-beat
    /// reference. `11:1` and `13:3` are the exact volume ratios the
    /// ladder's worst case left un-leapt.
    #[test]
    fn non_ladder_steady_periods_leap_bit_identically(
        q_choice in 0usize..4,
        p_choice in 0usize..3,
        reps in 200u64..400,
    ) {
        let q = [11u64, 13, 17, 23][q_choice];
        let p = [1u64, 3, 7][p_choice];
        let mut b = streaming_sched::model::Builder::new();
        let t0 = b.compute("t0");
        let t1 = b.compute("t1");
        let t2 = b.compute("t2");
        b.edge(t0, t1, q * reps);
        b.edge(t1, t2, p * reps);
        let g = b.finish().expect("acyclic chain");
        let plan = StreamingScheduler::new(3).run(&g).expect("schedulable");
        let reference = plan.validate_with(&g, SimKind::Reference);
        streaming_sched::des::take_leap_telemetry();
        let batched = plan.validate_with(&g, SimKind::Batched);
        let leaps = streaming_sched::des::take_leap_telemetry();
        prop_assert_eq!(reference, batched, "ratio {}:{} diverged", q, p);
        prop_assert!(
            leaps.leaps > 0,
            "ratio {}:{} (reps {}) never leapt — the general detector regressed \
             to ladder-only coverage",
            q, p, reps
        );
    }

    /// Under-buffered capacity-1 channels: deadlocks and bubbles must be
    /// reported identically by both simulators.
    #[test]
    fn deadlock_reports_agree(
        seed in any::<u64>(),
        pe_choice in 0usize..2,
    ) {
        let pes = [2usize, 8][pe_choice];
        for workload in small_specs() {
            let g = workload.build(seed);
            let plan = StreamingScheduler::new(pes).run(&g).expect("schedulable");
            let s = plan.schedule();
            let run = |kind: SimKind| {
                simulate_with_kind(kind, &g, s, |_| None, SimConfig::default())
            };
            let reference = run(SimKind::Reference);
            let batched = run(SimKind::Batched);
            prop_assert_eq!(
                reference,
                batched,
                "{} @ P={} seed={}: capacity-1 results diverged",
                workload.spec(),
                pes,
                seed
            );
        }
    }
}
