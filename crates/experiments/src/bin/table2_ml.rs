//! Table 2: streaming vs non-streaming speedups on machine-learning
//! inference workloads — ResNet-50 and a base transformer encoder layer —
//! with the gain G of streaming over buffered scheduling.
//!
//! The paper reports the SB-LTS variant (the two variants did not differ
//! noticeably on these graphs); we do the same. The grid runs through the
//! sweep engine with the ML graphs as registry workloads. The cells are
//! not simulated, so the speedups are the analytic ones.

use stg_core::SchedulerKind;
use stg_experiments::engine::{SimChoice, WorkloadSpec};
use stg_experiments::{Args, SweepSpec, WorkloadFamily, WorkloadKind};
use stg_workloads::MlWorkload;

fn main() {
    let args = Args::parse();
    args.reject_shard("table2_ml");
    if args.csv {
        println!("model,nodes,buffer_nodes,pes,str_speedup,nstr_speedup,gain");
    } else {
        println!("== Table 2: ML inference workloads (STR-SCH = SB-LTS) ==\n");
    }

    // The ML workloads come from the registry as lazy recipes: a grid
    // filtered down to one model (or none) never lowers the other.
    let spec = SweepSpec {
        workloads: vec![
            WorkloadSpec {
                workload: WorkloadKind::Ml(MlWorkload::Resnet50),
                pes: vec![512, 1024, 1536, 2048],
            },
            WorkloadSpec {
                workload: WorkloadKind::Ml(MlWorkload::TransformerEncoder),
                pes: vec![256, 512, 768, 1024],
            },
        ],
        graphs: 1, // fixed graphs: one instantiation per scenario
        seed: args.seed,
        schedulers: vec![SchedulerKind::StreamingLts, SchedulerKind::NonStreaming],
        validate: false,
        sim: SimChoice::default(),
        timing: false,
        threads: args.threads,
    }
    // Table 2 *is* the STR/NSTR comparison: the scheduler pair is pinned,
    // only the grid filters pass through.
    .filter_grid(&args);
    if !args.schedulers.is_empty() {
        eprintln!("note: table 2 compares a fixed STR/NSTR pair; --scheduler is ignored");
    }

    // ML workloads are registry specs (not `Fixed` graphs), so their
    // cells cache like any other under `--cache-dir`.
    let store = args.open_store();
    let sweep = spec.run_with(store.as_ref());
    // Cells arrive workload → pes → scheduler; regroup per (workload, pes).
    let cells = sweep.cells();
    let mut current = String::new();
    for pair in cells.chunks(2) {
        let [s, n] = pair else {
            unreachable!("the scheduler pair is pinned above")
        };
        let name = s.workload.label();
        let graph = s.workload.instantiate(0);
        let buffers = graph
            .node_ids()
            .filter(|&v| graph.kind(v) == stg_model::NodeKind::Buffer)
            .count();
        if !args.csv && current != name {
            if !current.is_empty() {
                println!();
            }
            current = name.clone();
            println!(
                "{name}: {} nodes ({} buffer nodes, {} tasks)",
                graph.node_count(),
                buffers,
                graph.compute_count()
            );
            println!("  #PEs   STR speedup   NSTR speedup      G");
        }
        let rec = |cell: &stg_experiments::engine::Cell| {
            cell.records().next().expect("schedulable").metrics
        };
        let (sm, nm) = (rec(s), rec(n));
        let gain = nm.makespan as f64 / sm.makespan as f64;
        if args.csv {
            println!(
                "{},{},{},{},{:.1},{:.1},{:.2}",
                name.replace(' ', "_"),
                graph.node_count(),
                buffers,
                s.pes,
                sm.speedup,
                nm.speedup,
                gain
            );
        } else {
            println!(
                "  {:5}    {:10.1}    {:11.1}   {gain:5.2}",
                s.pes, sm.speedup, nm.speedup,
            );
        }
    }
    if !args.csv {
        println!();
    }
}
