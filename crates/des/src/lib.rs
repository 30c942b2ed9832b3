//! # stg-des
//!
//! An element-level discrete event simulator for scheduled canonical task
//! graphs — the from-scratch replacement for the paper's `simpy`-based
//! validation (Appendix B). It executes a computed streaming schedule with
//! finite, blocking-after-service FIFO channels, memory-gated buffered
//! communication, and gang-scheduled spatial blocks, and reports the
//! simulated makespan, per-task first-out/completion/busy times, peak FIFO
//! occupancies, and deadlocks.
//!
//! Two interchangeable simulators implement the [`Simulator`] trait and
//! produce bit-identical results:
//!
//! - [`ReferenceSim`] ([`SimKind::Reference`]) — the per-beat event-heap
//!   ground truth: one event per element beat.
//! - [`BatchedSim`] ([`SimKind::Batched`]) — the beat-batched fast path:
//!   per-cycle work buckets plus steady-state epoch leaping that advances
//!   whole `(rate, depth)`-determined runs at once, falling back to
//!   per-beat stepping around stalls, back-pressure, and task boundaries.
//!
//! Used by the Figure 13 experiment to measure the relative error between
//! the analytic makespan and the simulated one, and by the Section 6 tests
//! to demonstrate that the computed buffer sizes are necessary (capacity-1
//! FIFOs deadlock Figure 9 ①) and sufficient (the sized plan completes and
//! matches the analytic schedule).

#![warn(missing_docs)]

mod batch;
mod sim;

pub use batch::{take_leap_telemetry, BatchedSim, LeapStats};
pub use sim::{
    same_sim_inputs, simulate, simulate_kind, simulate_with, simulate_with_kind, Event,
    ParseSimKindError, ReferenceSim, SimConfig, SimFailure, SimKind, SimResult, Simulator,
};

/// The Figure 13 error metric: `(simulated − analytic) / analytic`.
/// Negative values mean the analysis over-estimated the makespan.
pub fn relative_error(analytic: u64, simulated: u64) -> f64 {
    if analytic == 0 {
        return 0.0;
    }
    (simulated as f64 - analytic as f64) / analytic as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg_analysis::{schedule, Partition};
    use stg_buffer::{buffer_sizes, SizingPolicy};
    use stg_graph::NodeId;
    use stg_model::{Builder, CanonicalGraph};

    fn run_with_plan(g: &CanonicalGraph, part: &Partition) -> (u64, SimResult) {
        let s = schedule(g, part).unwrap();
        let plan = buffer_sizes(g, &s, SizingPolicy::Converging, 1);
        let sim = simulate(g, &s, &plan, SimConfig::default());
        (s.makespan, sim)
    }

    fn figure9_1() -> (CanonicalGraph, Vec<NodeId>) {
        let mut b = Builder::new();
        let n: Vec<_> = (0..5).map(|i| b.compute(format!("{i}"))).collect();
        b.edge(n[0], n[1], 32);
        b.edge(n[1], n[2], 4);
        b.edge(n[2], n[3], 2);
        b.edge(n[3], n[4], 32);
        b.edge(n[0], n[4], 32);
        (b.finish().unwrap(), n)
    }

    #[test]
    fn figure9_1_deadlocks_with_capacity_one() {
        // The Section 6 motivating example: lock-step multicast from task 0
        // plus a slow reducer path starves the shortcut channel.
        let (g, _) = figure9_1();
        let s = schedule(&g, &Partition::single_block(&g)).unwrap();
        let sim = simulate_with(&g, &s, |_| None, SimConfig::default());
        match sim.failure {
            Some(SimFailure::Deadlock(nodes)) => assert!(!nodes.is_empty()),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn figure9_1_completes_with_sized_buffers_exactly() {
        let (g, n) = figure9_1();
        let (analytic, sim) = run_with_plan(&g, &Partition::single_block(&g));
        assert!(sim.completed(), "failure: {:?}", sim.failure);
        assert_eq!(analytic, 51);
        assert_eq!(sim.makespan, 51, "simulated makespan matches the paper");
        // Per-task completion matches the paper's LO column.
        for (v, lo) in [(n[0], 32), (n[1], 33), (n[2], 34), (n[3], 50), (n[4], 51)] {
            assert_eq!(sim.lo[v.index()], Some(lo), "LO of {v:?}");
        }
    }

    #[test]
    fn figure9_2_bubbles_without_sizing_but_no_deadlock() {
        // Graph ② has converging paths but no undirected cycle: capacity-1
        // FIFOs stall tasks 3/4 past their scheduled completion (bubbles)
        // yet the run still finishes with the same makespan.
        let mut b = Builder::new();
        let n: Vec<_> = (0..6).map(|i| b.compute(format!("{i}"))).collect();
        b.edge(n[0], n[1], 32);
        b.edge(n[1], n[2], 1);
        b.edge(n[2], n[5], 32);
        b.edge(n[3], n[4], 32);
        b.edge(n[4], n[5], 32);
        let g = b.finish().unwrap();
        let s = schedule(&g, &Partition::single_block(&g)).unwrap();

        let tight = simulate_with(&g, &s, |_| None, SimConfig::default());
        assert!(tight.completed());
        assert_eq!(tight.makespan, 66);
        // Task 4's scheduled completion is 33, but with a 1-deep channel it
        // is held back by task 5's lock-step consumption.
        assert!(tight.lo[n[4].index()].unwrap() > 33);

        let plan = buffer_sizes(&g, &s, SizingPolicy::Converging, 1);
        let sized = simulate(&g, &s, &plan, SimConfig::default());
        assert!(sized.completed());
        assert_eq!(sized.makespan, 66);
        assert_eq!(sized.lo[n[4].index()], Some(33), "no bubbles when sized");
        assert_eq!(sized.lo[n[5].index()], Some(66));
    }

    #[test]
    fn figure8_simulation_matches_analysis() {
        let mut b = Builder::new();
        let n0 = b.source("0");
        let n1 = b.compute("1");
        let n2 = b.compute("2");
        let n3 = b.compute("3");
        let n4 = b.compute("4");
        let s2 = b.sink("s2");
        let s4 = b.sink("s4");
        b.edge(n0, n1, 16);
        b.edge(n0, n3, 16);
        b.edge(n1, n2, 4);
        b.edge(n3, n4, 32);
        b.edge(n2, s2, 4);
        b.edge(n4, s4, 8);
        let g = b.finish().unwrap();
        let (analytic, sim) = run_with_plan(&g, &Partition::single_block(&g));
        assert!(sim.completed(), "failure: {:?}", sim.failure);
        assert_eq!(analytic, 34);
        assert_eq!(sim.makespan, 34);
        // The makespan-critical exit matches the analysis exactly. Off-
        // critical tasks may finish EARLIER than the steady-state
        // prediction: before the upsampler's backlog throttles the shared
        // source, the source bursts at full rate and the reducer path
        // front-runs its average-rate schedule (the paper's Figure 13 shows
        // the same small deviations). They must never finish later.
        assert_eq!(sim.lo[n4.index()], Some(34));
        for (v, analytic_lo) in [(n1, 32), (n2, 33), (n3, 33)] {
            assert!(
                sim.lo[v.index()].unwrap() <= analytic_lo,
                "{v:?} finished after its scheduled completion"
            );
        }
    }

    #[test]
    fn elementwise_chain_exact() {
        let mut b = Builder::new();
        let t: Vec<_> = (0..6).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, 128);
        let g = b.finish().unwrap();
        let (analytic, sim) = run_with_plan(&g, &Partition::single_block(&g));
        assert!(sim.completed());
        assert_eq!(sim.makespan, analytic);
        assert_eq!(sim.makespan, 128 + 6 - 1);
    }

    #[test]
    fn two_blocks_serialize_in_simulation() {
        let mut b = Builder::new();
        let t: Vec<_> = (0..4).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, 64);
        let g = b.finish().unwrap();
        let part = Partition {
            blocks: vec![vec![t[0], t[1]], vec![t[2], t[3]]],
        };
        let (analytic, sim) = run_with_plan(&g, &part);
        assert!(sim.completed());
        assert_eq!(sim.makespan, analytic);
        // The second block's first task starts only after the first block
        // completes: its first-out is past the first block's span.
        let fo_t2 = sim.fo[t[2].index()].unwrap();
        let lo_t1 = sim.lo[t[1].index()].unwrap();
        assert!(fo_t2 > lo_t1);
    }

    #[test]
    fn buffer_gating_matches_analysis() {
        let mut b = Builder::new();
        let t0 = b.compute("t0");
        let buf = b.buffer("B");
        let t1 = b.compute("t1");
        b.edge(t0, buf, 16);
        b.edge(buf, t1, 16);
        let g = b.finish().unwrap();
        let (analytic, sim) = run_with_plan(&g, &Partition::single_block(&g));
        assert!(sim.completed());
        assert_eq!(sim.makespan, analytic);
        assert_eq!(sim.lo[t1.index()], Some(33));
    }

    #[test]
    fn upsampler_downsampler_pipeline_exact() {
        // producer -> up(x4) -> down(/8) -> consumer.
        let mut b = Builder::new();
        let p0 = b.compute("p");
        let up = b.compute("up");
        let dn = b.compute("dn");
        let c0 = b.compute("c");
        b.edge(p0, up, 16);
        b.edge(up, dn, 64);
        b.edge(dn, c0, 8);
        let g = b.finish().unwrap();
        let (analytic, sim) = run_with_plan(&g, &Partition::single_block(&g));
        assert!(sim.completed());
        assert_eq!(sim.makespan, analytic);
    }

    #[test]
    fn streamed_vector_norm_needs_sizing() {
        // Figure 4 ②: x streamed to both the reducer and the divider. With
        // capacity-1 channels the lock-step source deadlocks; the computed
        // plan sizes the skewed edge and the simulation completes.
        let (g, h) = stg_model::expansions::vector_norm_streamed(32);
        let s = schedule(&g, &Partition::single_block(&g)).unwrap();
        let tight = simulate_with(&g, &s, |_| None, SimConfig::default());
        assert!(
            matches!(tight.failure, Some(SimFailure::Deadlock(_))),
            "expected deadlock, got {:?}",
            tight.failure
        );
        let plan = buffer_sizes(&g, &s, SizingPolicy::Converging, 1);
        let sized = simulate(&g, &s, &plan, SimConfig::default());
        assert!(sized.completed(), "failure: {:?}", sized.failure);
        assert_eq!(sized.makespan, s.makespan);
        let _ = h;
    }

    #[test]
    fn softmax_runs_to_completion() {
        let (g, _) = stg_model::expansions::softmax(64);
        let (analytic, sim) = run_with_plan(&g, &Partition::single_block(&g));
        assert!(sim.completed(), "failure: {:?}", sim.failure);
        assert_eq!(sim.makespan, analytic);
    }

    #[test]
    fn relative_error_sign_convention() {
        assert_eq!(relative_error(100, 110), 0.1);
        assert_eq!(relative_error(100, 90), -0.1);
        assert_eq!(relative_error(0, 5), 0.0);
    }

    #[test]
    fn time_limit_is_reported() {
        let mut b = Builder::new();
        let t: Vec<_> = (0..4).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, 512);
        let g = b.finish().unwrap();
        let s = schedule(&g, &Partition::single_block(&g)).unwrap();
        let plan = buffer_sizes(&g, &s, SizingPolicy::Converging, 1);
        let sim = simulate(
            &g,
            &s,
            &plan,
            SimConfig {
                default_capacity: 1,
                max_time: 5,
            },
        );
        assert_eq!(sim.failure, Some(SimFailure::TimeLimit));
    }

    #[test]
    fn beats_count_all_element_transfers() {
        // A k-element chain of n element-wise tasks does n·k input beats
        // plus n·k output beats minus the leaf's missing emissions.
        let mut b = Builder::new();
        let t: Vec<_> = (0..3).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, 16);
        let g = b.finish().unwrap();
        let (_, sim) = run_with_plan(&g, &Partition::single_block(&g));
        // t0: 16 out; t1: 16 in + 16 out; t2: 16 in = 64 beats.
        assert_eq!(sim.beats, 64);
    }

    /// Runs both simulators on the same scenario and asserts bit-equality
    /// before returning the (shared) result.
    fn simulate_both(
        g: &CanonicalGraph,
        s: &stg_analysis::Schedule,
        capacity_of: impl Fn(stg_graph::EdgeId) -> Option<u64> + Copy,
        config: SimConfig,
    ) -> SimResult {
        let reference = simulate_with_kind(SimKind::Reference, g, s, capacity_of, config);
        let batched = simulate_with_kind(SimKind::Batched, g, s, capacity_of, config);
        assert_eq!(reference, batched, "simulators diverged");
        reference
    }

    #[test]
    fn event_ordering_is_time_then_pid() {
        // The documented tie-break: at equal cycles, the lower process id
        // steps first. Pinned so traces are reproducible even though the
        // cycle fixpoint is confluent.
        let e = |time, pid| Event { time, pid };
        assert!(e(1, 0) < e(1, 1), "ties break on process id");
        assert!(e(1, 7) < e(2, 0), "time dominates pid");
        let mut heap = std::collections::BinaryHeap::new();
        for ev in [e(2, 1), e(1, 3), e(1, 2), e(2, 0)] {
            heap.push(std::cmp::Reverse(ev));
        }
        let order: Vec<Event> = std::iter::from_fn(|| heap.pop().map(|r| r.0)).collect();
        assert_eq!(order, vec![e(1, 2), e(1, 3), e(2, 0), e(2, 1)]);
    }

    #[test]
    fn two_pes_simultaneously_ready_agree_across_simulators() {
        // Two independent equal-length chains in one block: both leading
        // tasks become ready at the same cycle on different PEs. The
        // explicit event ordering (and confluence) makes the outcome
        // identical whichever steps first — pinned across both simulators.
        let mut b = Builder::new();
        let a0 = b.compute("a0");
        let a1 = b.compute("a1");
        let c0 = b.compute("c0");
        let c1 = b.compute("c1");
        b.edge(a0, a1, 32);
        b.edge(c0, c1, 32);
        let g = b.finish().unwrap();
        let s = schedule(&g, &Partition::single_block(&g)).unwrap();
        let plan = buffer_sizes(&g, &s, SizingPolicy::Converging, 1);
        let sim = simulate_both(&g, &s, |e| plan.capacity_of(e), SimConfig::default());
        assert!(sim.completed());
        // Symmetric chains finish identically: same FO/LO/busy on both PEs.
        assert_eq!(sim.fo[a0.index()], sim.fo[c0.index()]);
        assert_eq!(sim.lo[a1.index()], sim.lo[c1.index()]);
        assert_eq!(sim.busy[a0.index()], sim.busy[c0.index()]);
    }

    #[test]
    fn zero_depth_fifos_clamp_to_one_in_both_simulators() {
        // A zero-capacity channel cannot transport elements; both
        // simulators clamp explicit zero-depth capacities (and a
        // zero default) to one element, identically.
        let mut b = Builder::new();
        let t: Vec<_> = (0..3).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, 64);
        let g = b.finish().unwrap();
        let s = schedule(&g, &Partition::single_block(&g)).unwrap();
        let zero_cfg = SimConfig {
            default_capacity: 0,
            ..SimConfig::default()
        };
        let zero = simulate_both(&g, &s, |_| Some(0), zero_cfg);
        let one = simulate_both(&g, &s, |_| Some(1), SimConfig::default());
        assert!(zero.completed());
        assert_eq!(zero.makespan, one.makespan);
        assert_eq!(zero.fifo_peak, one.fifo_peak);
        // End-of-cycle occupancy never exceeds the clamped capacity.
        assert!(zero.peak_fifo() <= 1);
    }

    #[test]
    fn rate_mismatched_pairs_agree_and_track_peaks() {
        // Down- and up-samplers break the period-1 steady state: the
        // batched path must only leap whole multi-cycle periods (or none)
        // and still match the reference exactly. produce -> down(/4) ->
        // up(x2) -> consume over a long stream.
        let mut b = Builder::new();
        let p0 = b.compute("p");
        let dn = b.compute("dn");
        let up = b.compute("up");
        let c0 = b.compute("c");
        b.edge(p0, dn, 1024);
        b.edge(dn, up, 256);
        b.edge(up, c0, 512);
        let g = b.finish().unwrap();
        let s = schedule(&g, &Partition::single_block(&g)).unwrap();
        let plan = buffer_sizes(&g, &s, SizingPolicy::Converging, 1);
        let sized = simulate_both(&g, &s, |e| plan.capacity_of(e), SimConfig::default());
        assert!(sized.completed(), "{:?}", sized.failure);
        // Off-critical tasks may front-run the steady-state analysis, so
        // the simulated makespan is bounded by the analytic one.
        assert!(sized.makespan <= s.makespan && sized.makespan > 1024);
        // And under deliberately tight capacity-1 channels (bubbles).
        let tight = simulate_both(&g, &s, |_| None, SimConfig::default());
        assert!(tight.completed());
        assert!(tight.peak_fifo() <= 1, "capacity-1 bounds the occupancy");
    }

    #[test]
    fn single_beat_tasks_are_not_coalesced() {
        // Volume-1 edges leave no steady state to batch: every counter
        // margin is zero, so the epoch leap must never fire and both
        // simulators walk the graph beat by beat, with one busy cycle
        // per beat boundary.
        let mut b = Builder::new();
        let t: Vec<_> = (0..5).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, 1);
        let g = b.finish().unwrap();
        let s = schedule(&g, &Partition::single_block(&g)).unwrap();
        let plan = buffer_sizes(&g, &s, SizingPolicy::Converging, 1);
        let sim = simulate_both(&g, &s, |e| plan.capacity_of(e), SimConfig::default());
        assert!(sim.completed());
        assert_eq!(sim.makespan, s.makespan);
        // 4 pops + 4 pushes + the head's emission... exactly one element
        // over each of the 4 channels: 8 beats total.
        assert_eq!(sim.beats, 8);
        for v in &t {
            // Each task touches its single element in at most 2 cycles.
            assert!(sim.busy[v.index()].unwrap() <= 2);
        }
    }

    #[test]
    fn busy_times_count_beat_cycles_exactly() {
        // An element-wise chain in steady state keeps every task busy
        // once per element (input and output beats share cycles), plus
        // the pipeline fill offsets — and both simulators agree.
        let mut b = Builder::new();
        let t: Vec<_> = (0..3).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, 16);
        let g = b.finish().unwrap();
        let s = schedule(&g, &Partition::single_block(&g)).unwrap();
        let plan = buffer_sizes(&g, &s, SizingPolicy::Converging, 1);
        let sim = simulate_both(&g, &s, |e| plan.capacity_of(e), SimConfig::default());
        // Head/tail: 16 busy cycles (one beat per element); the middle
        // task overlaps its input and output beats after the fill cycle,
        // taking one extra cycle for the trailing output.
        assert_eq!(sim.busy[t[0].index()], Some(16));
        assert_eq!(sim.busy[t[2].index()], Some(16));
        assert_eq!(sim.busy[t[1].index()], Some(17));
    }

    #[test]
    fn time_limit_agrees_across_simulators() {
        let mut b = Builder::new();
        let t: Vec<_> = (0..4).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, 512);
        let g = b.finish().unwrap();
        let s = schedule(&g, &Partition::single_block(&g)).unwrap();
        let plan = buffer_sizes(&g, &s, SizingPolicy::Converging, 1);
        let config = SimConfig {
            default_capacity: 1,
            max_time: 37,
        };
        let sim = simulate_both(&g, &s, |e| plan.capacity_of(e), config);
        assert_eq!(sim.failure, Some(SimFailure::TimeLimit));
        assert_eq!(sim.makespan, 37, "runs up to the limit, then reports");
    }

    #[test]
    fn multi_block_fft_matches_or_beats_analysis() {
        // A denser end-to-end case: random FFT graph, several blocks.
        use stg_workloads::{generate, Topology};
        let g = generate(Topology::Fft { points: 8 }, 17);
        let part = stg_sched::spatial_block_partition(&g, 8, stg_sched::SbVariant::Lts);
        let (analytic, sim) = run_with_plan(&g, &part);
        assert!(sim.completed(), "{:?}", sim.failure);
        assert!(sim.makespan <= analytic);
    }
}
