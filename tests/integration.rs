//! Cross-crate integration tests: the full pipeline (workload generation →
//! partitioning → analysis → buffer sizing → simulation) on every synthetic
//! topology and the ML models, including the paper's headline claims.

use stg_csdf::{self_timed_makespan, to_csdf, AnalysisConfig};
use stg_workloads::{generate, paper_suite, Topology, WorkloadFamily, WorkloadKind};
use streaming_sched::prelude::*;

#[test]
fn every_topology_schedules_sizes_and_simulates() {
    for (topo, pe_counts) in paper_suite() {
        for seed in 0..3u64 {
            let g = generate(topo, seed);
            for &p in &pe_counts[..2] {
                for variant in [SbVariant::Lts, SbVariant::Rlx] {
                    let plan = StreamingScheduler::new(p)
                        .variant(variant)
                        .run(&g)
                        .unwrap_or_else(|e| panic!("{topo:?} seed {seed} P={p}: {e}"));
                    assert!(plan.result.partition.max_block_size() <= p);
                    let sim = plan.validate(&g);
                    assert!(
                        sim.completed(),
                        "{topo:?} seed {seed} P={p} {variant}: {:?}",
                        sim.failure
                    );
                    assert!(
                        sim.makespan <= plan.metrics().makespan,
                        "{topo:?} seed {seed}: simulation may not exceed the analysis"
                    );
                }
            }
        }
    }
}

#[test]
fn streaming_dominates_buffered_on_chains_at_scale() {
    // The paper's headline: pipelined scheduling breaks the chain's
    // sequential barrier while list scheduling cannot.
    let g = generate(Topology::Chain { tasks: 8 }, 7);
    for p in [2usize, 4, 8] {
        let s = StreamingScheduler::new(p).run(&g).expect("schedulable");
        let n = NonStreamingScheduler::new(p).run(&g);
        assert_eq!(n.metrics.makespan, g.sequential_time());
        assert!(s.metrics().makespan < n.metrics.makespan);
    }
}

#[test]
fn csdf_agrees_with_canonical_analysis_on_synthetic_graphs() {
    // Figure 12 right: the two models derive nearly identical makespans.
    for topo in [
        Topology::Chain { tasks: 8 },
        Topology::GaussianElimination { m: 8 },
    ] {
        let g = generate(topo, 11);
        let p = g.compute_count();
        let plan = StreamingScheduler::new(p)
            .variant(SbVariant::Rlx)
            .run(&g)
            .expect("schedulable");
        let converted = to_csdf(&g).expect("no buffers in synthetic graphs");
        let analysis = self_timed_makespan(&converted, &AnalysisConfig::default());
        let period = analysis.period.expect("no timeout at default budget");
        let ratio = plan.metrics().makespan as f64 / period as f64;
        assert!(
            (0.85..=1.30).contains(&ratio),
            "{topo:?}: ratio {ratio} (ours {}, csdf {period})",
            plan.metrics().makespan
        );
    }
}

#[test]
fn ml_models_schedule_end_to_end() {
    use stg_ml::{encoder_layer, LowerConfig, TransformerConfig};
    let tf = encoder_layer(&TransformerConfig {
        seq: 32,
        d_model: 64,
        heads: 4,
        d_ff: 128,
        lower: LowerConfig { max_parallel: 16 },
    });
    tf.validate().expect("canonical");
    let s = StreamingScheduler::new(64).run(&tf).expect("schedulable");
    let n = NonStreamingScheduler::new(64).run(&tf);
    assert!(s.metrics().speedup > 1.0);
    assert!(n.metrics.speedup > 1.0);
}

#[test]
fn appendix_partitioners_compose_with_the_pipeline() {
    let g = generate(Topology::Fft { points: 16 }, 3);
    for p in [4usize, 16] {
        let lvl = elementwise_partition(&g, p);
        let plan = StreamingScheduler::new(p)
            .run_with_partition(&g, lvl)
            .expect("schedulable");
        let sim = plan.validate(&g);
        assert!(sim.completed());
        let wrk = downsampler_partition(&g, p);
        let plan = StreamingScheduler::new(p)
            .run_with_partition(&g, wrk)
            .expect("schedulable");
        let sim = plan.validate(&g);
        assert!(sim.completed());
    }
}

#[test]
fn utilization_is_higher_for_streaming_than_buffered() {
    // Figure 10's white labels: streaming keeps PEs busier.
    let g = generate(Topology::GaussianElimination { m: 16 }, 21);
    let p = 32;
    let s = StreamingScheduler::new(p)
        .variant(SbVariant::Rlx)
        .run(&g)
        .expect("schedulable");
    let n = NonStreamingScheduler::new(p).run(&g);
    assert!(s.metrics().utilization > n.metrics.utilization);
}

#[test]
fn fig13_simulation_never_exceeds_the_analysis_on_the_paper_grid() {
    // Figure 13: the relative error (simulated − analytic) / analytic is
    // bounded above by zero, so the analysis is a safe upper bound for
    // every topology at its paper size and PE counts, under every
    // scheduler. Only this side is bounded: at these sizes the analytic
    // makespan can exceed the simulated one by 30% (`fft:32`, P = 128,
    // SB-RLX), beyond the 25% that `simulation_validates_every_plan`
    // allows on its smaller graphs.
    let mut spec = stg_experiments::SweepSpec::paper(3, 0xC0FFEE);
    spec.validate = true;
    spec.sim = stg_experiments::SimChoice::Batched;
    let sweep = spec.run();
    assert_eq!(sweep.runs.len(), 4 * 4 * 3 * 3, "the whole paper grid");
    for run in &sweep.runs {
        let c = &run.case;
        let what = format!("{} P={} {} seed {}", c.workload, c.pes, c.scheduler, c.seed);
        let record = run
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let sim = record.sim.expect("validated");
        assert!(sim.completed, "{what}: simulation deadlocked");
        assert!(
            sim.makespan <= record.metrics.makespan && sim.rel_err_pct <= 0.0,
            "{what}: simulated {} exceeds the analytic {} ({}%)",
            sim.makespan,
            record.metrics.makespan,
            sim.rel_err_pct
        );
    }
}

#[test]
fn fig10_streaming_beats_buffered_in_aggregate_on_the_paper_grid() {
    // Figure 10 in aggregate: on every topology × P of the paper grid,
    // each STR-SCH variant's median makespan advantage over the buffered
    // NSTR-SCH baseline (per seed: NSTR-SCH / STR-SCH makespan) is at
    // least 1.3. At this seed the smallest median is 1.38 (`fft:32`,
    // P = 32, STR-SCH-1). Single cells may lose (one does at 100 graphs),
    // so only medians are asserted.
    let sweep = stg_experiments::SweepSpec::paper(20, 0xC0FFEE).run();
    assert_eq!(sweep.runs.len(), 4 * 4 * 3 * 20, "the whole paper grid");
    let cells = sweep.cells();
    let makespans = |cell: &stg_experiments::Cell| -> Vec<f64> {
        assert_eq!(cell.errors(), 0, "{} P={}", cell.workload, cell.pes);
        cell.values(|r| r.metrics.makespan as f64)
    };
    let mut compared = 0;
    for cell in cells
        .iter()
        .filter(|c| c.scheduler != SchedulerKind::NonStreaming)
    {
        let baseline = cells
            .iter()
            .find(|c| {
                c.workload == cell.workload
                    && c.pes == cell.pes
                    && c.scheduler == SchedulerKind::NonStreaming
            })
            .expect("every topology × P has a baseline cell");
        let ratios: Vec<f64> = makespans(baseline)
            .iter()
            .zip(makespans(cell))
            .map(|(nstr, str_sch)| nstr / str_sch)
            .collect();
        let median = stg_experiments::summary(&ratios).median;
        assert!(
            median >= 1.3,
            "{} P={} {}: median NSTR-SCH/STR-SCH makespan ratio {median:.3}",
            cell.workload,
            cell.pes,
            cell.scheduler
        );
        compared += 1;
    }
    assert_eq!(compared, 4 * 4 * 2, "every topology × P × STR-SCH variant");
}

#[test]
fn every_preset_validates_on_every_seeded_workload_family() {
    // The registry-wide sibling of the Fig. 13 test: every preset,
    // multiplex included, on one small instance of every seeded workload
    // family. Every cell schedules, simulates to completion, stays at or
    // above the streaming depth, and simulates within its analytic
    // makespan. The fixed ML graphs stay out — the transformer alone takes
    // most of a minute across all presets in a debug build.
    let workloads: Vec<WorkloadKind> = [
        "chain:8",
        "fft:16",
        "gauss:8",
        "chol:4",
        "stencil2d:6x6",
        "spmv:64:0.05",
        "attention:seq256",
        "forkjoin:4x8",
    ]
    .iter()
    .map(|s| s.parse().expect("registered spec"))
    .collect();
    for kind in WorkloadKind::registered().iter().filter(|k| k.seeded()) {
        assert!(
            workloads.iter().any(|w| w.family() == kind.family()),
            "family {:?} missing from the registry grid — add a small spec",
            kind.family()
        );
    }
    let spec = stg_experiments::SweepSpec {
        workloads: workloads
            .into_iter()
            .map(|workload| stg_experiments::engine::WorkloadSpec {
                workload,
                pes: vec![2, 8],
            })
            .collect(),
        graphs: 2,
        seed: 1,
        schedulers: SchedulerKind::ALL
            .into_iter()
            .chain([SchedulerKind::Multiplex(3)])
            .collect(),
        validate: true,
        sim: stg_experiments::SimChoice::Batched,
        timing: false,
        threads: None,
    };
    let sweep = spec.run();
    assert_eq!(sweep.runs.len(), 8 * 2 * 9 * 2, "the whole registry grid");
    for run in &sweep.runs {
        let c = &run.case;
        let what = format!("{} P={} {} seed {}", c.workload, c.pes, c.scheduler, c.seed);
        let record = run
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let sim = record.sim.expect("validated");
        assert!(sim.completed, "{what}: simulation deadlocked");
        let tinf = streaming_depth(&c.graph()).expect("acyclic");
        assert!(
            record.metrics.makespan >= tinf,
            "{what}: makespan {} below streaming depth {tinf}",
            record.metrics.makespan
        );
        assert!(
            sim.makespan <= record.metrics.makespan,
            "{what}: simulated {} exceeds the analytic {}",
            sim.makespan,
            record.metrics.makespan
        );
    }
}
