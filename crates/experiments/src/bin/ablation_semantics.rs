//! Ablation: design choices the paper leaves implicit.
//!
//! 1. **Buffer sizing policy** — converging-node sizing (matches both
//!    worked examples of Section 6) vs. the literal cycles-only policy,
//!    measured as total FIFO space and DES schedule fidelity.
//! 2. **Partitioner choice** — Algorithm 1 (SB-LTS/SB-RLX) vs. the
//!    appendix partitioners on their home turf.
//!
//! Every comparison is an engine sweep over a pair (or triple) of
//! scheduler presets; pairing per-graph results falls out of the engine's
//! deterministic case order. `--workload` and `--pes` prune the grids;
//! `--scheduler` is ignored — the paired presets *are* the ablations.

use stg_core::SchedulerKind;
use stg_experiments::engine::{SimChoice, WorkloadSpec};
use stg_experiments::{summary, Args, SweepSpec, WorkloadKind};
use stg_workloads::{paper_suite, Topology};

/// The suite with one mid-range PE count per topology.
fn mid_pe_suite() -> Vec<WorkloadSpec> {
    paper_suite()
        .into_iter()
        .map(|(topo, pes)| WorkloadSpec {
            workload: WorkloadKind::Synthetic(topo),
            pes: vec![pes[pes.len() / 2]],
        })
        .collect()
}

fn spec(
    workloads: Vec<WorkloadSpec>,
    schedulers: Vec<SchedulerKind>,
    graphs: u64,
    args: &Args,
) -> SweepSpec {
    // Honour the grid filters; the scheduler pairs stay pinned (each
    // ablation compares a fixed preset pair) and graphs/seed are set per
    // sweep, so only the grid half of `SweepSpec::filtered` applies.
    SweepSpec {
        workloads,
        graphs,
        seed: args.seed,
        schedulers,
        validate: false,
        sim: SimChoice::default(),
        timing: false,
        threads: args.threads,
    }
    .filter_grid(args)
}

/// Runs a sweep through the shared result store, refusing to aggregate
/// over a sample shrunken by scheduling errors.
fn run_checked(
    spec: SweepSpec,
    store: Option<&stg_experiments::ResultStore>,
) -> stg_experiments::Sweep {
    spec.run_with(store).exit_on_errors()
}

fn main() {
    let args = Args::parse();
    args.reject_shard("ablation_semantics");
    let store = args.open_store();
    let graphs = args.graphs.min(50);

    println!("== Ablation 1: buffer sizing policy (total FIFO elements / fidelity) ==\n");
    let mut sizing = spec(
        mid_pe_suite(),
        vec![
            SchedulerKind::StreamingLts,
            SchedulerKind::StreamingLtsCyclesOnly,
        ],
        graphs,
        &args,
    );
    sizing.validate = true;
    let sweep = run_checked(sizing, store.as_ref());
    for pair in sweep.cells().chunks(2) {
        let [conv, cyc] = pair else { unreachable!() };
        let topo = conv.workload.topology().expect("synthetic suite");
        let conv_mem = summary(&conv.values(|r| r.buffer_elements as f64));
        let cyc_mem = summary(&cyc.values(|r| r.buffer_elements as f64));
        // Per-graph slowdown of the cycles-only sizing: runs pair up by
        // seed in case order.
        let slowdowns: Vec<f64> = conv
            .runs
            .iter()
            .zip(cyc.runs.iter())
            .filter_map(|(a, b)| {
                let sa = a.record()?.sim?;
                let sb = b.record()?.sim?;
                (sa.completed && sb.completed)
                    .then(|| sb.makespan as f64 / sa.makespan.max(1) as f64)
            })
            .collect();
        let slow = if slowdowns.is_empty() {
            f64::NAN
        } else {
            summary(&slowdowns).median
        };
        println!(
            "  {:24} P={:4}  converging {:9.0} el ({} deadlocks)   cycles-only {:9.0} el ({} deadlocks, sim slowdown x{:.3})",
            topo.name(),
            conv.pes,
            conv_mem.median,
            conv.deadlocks(),
            cyc_mem.median,
            cyc.deadlocks(),
            slow
        );
    }

    println!("\n== Ablation 2: partitioners on structured graphs ==\n");
    // Element-wise chain: Theorem A.1's level-order partitioner and the
    // Algorithm 2 work-ordered partitioner vs Algorithm 1.
    let sweep = run_checked(
        spec(
            vec![WorkloadSpec {
                workload: WorkloadKind::Synthetic(Topology::Chain { tasks: 8 }),
                pes: vec![2, 4],
            }],
            vec![
                SchedulerKind::StreamingLts,
                SchedulerKind::Elementwise,
                SchedulerKind::Downsampler,
            ],
            1,
            &args,
        ),
        store.as_ref(),
    );
    for trio in sweep.cells().chunks(3) {
        let [a1, lvl, work] = trio else {
            unreachable!()
        };
        let speed = |c: &stg_experiments::engine::Cell| {
            c.records().next().expect("schedulable").metrics.speedup
        };
        println!(
            "  Chain(8)  P={}: Algorithm1 {:.2}  level-order {:.2}  work-order {:.2}",
            a1.pes,
            speed(a1),
            speed(lvl),
            speed(work)
        );
    }
    let mut chol = spec(
        vec![WorkloadSpec {
            workload: WorkloadKind::Synthetic(Topology::Cholesky { tiles: 8 }),
            pes: vec![64],
        }],
        vec![SchedulerKind::StreamingLts, SchedulerKind::StreamingRlx],
        1,
        &args,
    );
    chol.seed = args.seed + 1;
    let sweep = run_checked(chol, store.as_ref());
    for cell in sweep.cells() {
        let m = cell.records().next().expect("schedulable").metrics;
        println!(
            "  Cholesky(8) P=64 {}: speedup {:.2}, {} blocks",
            cell.scheduler, m.speedup, m.blocks
        );
    }
}
