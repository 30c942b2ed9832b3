//! Property test of the graph order that fabric leases walk: over random
//! multi-workload grids (seeded and unseeded workloads, and stripe counts
//! beyond one `rows` frame), the positions map one-to-one onto the grid
//! indices, the cases of any position range are the grid's cases at the
//! mapped indices, and the graph boundaries cut whole graph instances.

use proptest::prelude::*;
use stg_core::SchedulerKind;
use stg_experiments::engine::{SimChoice, WorkloadSpec};
use stg_experiments::{GraphOrder, SweepSpec, WorkloadKind};
use stg_workloads::MlWorkload;

/// The workloads a grid draws from: seeded families, and one unseeded
/// model (never built: expanding cases names graphs, it does not make
/// them).
fn workload(pick: u8) -> WorkloadKind {
    match pick % 5 {
        0 => "chain:8".parse().unwrap(),
        1 => "fft:8".parse().unwrap(),
        2 => "stencil2d:5x4".parse().unwrap(),
        3 => "spmv:48:0.08".parse().unwrap(),
        _ => WorkloadKind::Ml(MlWorkload::Resnet50),
    }
}

/// A grid of `workloads` (each a workload pick and a PE count), with
/// `schedulers` multiplex slot counts as its scheduler set.
fn grid(workloads: Vec<(u8, usize)>, schedulers: usize, graphs: u64, seed: u64) -> SweepSpec {
    SweepSpec {
        workloads: workloads
            .into_iter()
            .map(|(pick, pes)| WorkloadSpec {
                workload: workload(pick),
                pes: (1..=pes).collect(),
            })
            .collect(),
        graphs,
        seed,
        schedulers: (1..=schedulers).map(SchedulerKind::Multiplex).collect(),
        validate: false,
        sim: SimChoice::default(),
        timing: false,
        threads: Some(1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn graph_order_is_a_permutation_of_whole_graphs(
        n in 1usize..4,
        pick in 0u8..5,
        pes in (1usize..48, 1usize..48, 1usize..48),
        schedulers in 1usize..4,
        graphs in 1u64..6,
        seed in 0u64..1_000,
        cut in any::<u64>(),
        len in 0usize..400,
    ) {
        // Three distinct workloads, so each names one block.
        let workloads = [(pick, pes.0), (pick + 1, pes.1), (pick + 2, pes.2)];
        let spec = grid(workloads[..n].to_vec(), schedulers, graphs, seed);
        let order = GraphOrder::of(&spec);
        let cases = spec.cases();
        let total = cases.len();
        prop_assert_eq!(total, spec.total_cases());

        // One-to-one onto the grid indices.
        let mut seen = vec![false; total];
        for pos in 0..total {
            let index = order.index(pos);
            prop_assert!(!seen[index], "index {} mapped twice", index);
            seen[index] = true;
        }

        // Any position range expands to the grid's cases at the mapped
        // indices, in position order.
        let start = (cut % (total as u64 + 1)) as usize;
        let range = start..(start + len).min(total);
        let expanded = spec.graph_cases(range.clone());
        prop_assert_eq!(expanded.len(), range.len());
        for (pos, case) in range.zip(&expanded) {
            let want = &cases[order.index(pos)];
            prop_assert_eq!(case.index, want.index);
            prop_assert_eq!(&case.workload, &want.workload);
            prop_assert_eq!((case.pes, case.seed), (want.pes, want.seed));
            prop_assert_eq!(case.scheduler, want.scheduler);
        }

        // Graph boundaries cut whole graphs: the positions between two
        // consecutive boundaries are one workload and seed, and hold every
        // (PE count, scheduler) stripe of it once.
        let mut at = 0;
        while at < total {
            let end = order.graph_end(at + 1);
            prop_assert_eq!(order.graph_start(end - 1), at);
            let graph = spec.graph_cases(at..end);
            let first = &graph[0];
            let w = spec.workloads.iter().find(|w| w.workload == first.workload).unwrap();
            prop_assert_eq!(graph.len(), w.pes.len() * spec.schedulers.len());
            for case in &graph {
                prop_assert_eq!(&case.workload, &first.workload);
                prop_assert_eq!(case.seed, first.seed);
            }
            at = end;
        }
    }
}

/// One graph of a grid with more stripes than a `rows` frame carries
/// (128) is still one run of consecutive positions.
#[test]
fn a_graph_may_hold_more_cells_than_a_frame() {
    let spec = grid(vec![(0, 47), (4, 3)], 3, 2, 9);
    let order = GraphOrder::of(&spec);
    assert_eq!(order.graph_end(1), 141);
    assert_eq!(order.graph_end(142), 282);
    assert!(spec.graph_cases(0..141).iter().all(|c| c.seed == 9));
    assert!(spec.graph_cases(141..282).iter().all(|c| c.seed == 10));
    // The unseeded model is one graph of 9 cells.
    assert_eq!(spec.total_cases(), 282 + 9);
    assert_eq!(order.graph_end(283), 291);
    assert_eq!(order.graph_start(290), 282);
}
