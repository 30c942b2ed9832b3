//! The scenario-sweep engine in a few lines: declare a grid of
//! (workload × seed × PE count × scheduler) scenarios, evaluate it in
//! parallel, and aggregate or export the deterministic results.
//!
//! Workloads come from the `WorkloadKind` registry, so extending the
//! paper grid with a new family is one parsed spec string — and the
//! engine's memoization cache instantiates each `(spec, seed)` graph
//! exactly once across all scheduler/PE cells.
//!
//! ```sh
//! cargo run --release --example scenario_sweep
//! ```

use stg_core::SchedulerKind;
use stg_experiments::engine::WorkloadSpec;
use stg_experiments::metrics::CounterSet;
use stg_experiments::{summary, SweepSpec, WorkloadFamily, WorkloadKind};

fn main() {
    // The paper's full synthetic grid at 10 graphs per cell, with one
    // extra scheduler preset mixed in — plus a workload family the paper
    // never ran, straight from the registry.
    let mut spec = SweepSpec::paper(10, 2024);
    spec.schedulers.push(SchedulerKind::Elementwise);
    spec.validate = true;
    let stencil: WorkloadKind = "stencil2d:8x8".parse().expect("registered spec");
    spec.workloads.push(WorkloadSpec {
        pes: stencil.default_pes(),
        workload: stencil,
    });

    let sweep = spec.run();
    let tallies = sweep.tallies();
    println!(
        "evaluated {} scenarios ({} errors, {} deadlocks); {}\n",
        sweep.runs.len(),
        tallies.errors,
        tallies.deadlocks,
        sweep.cache.text(),
    );

    println!("workload      #PEs  scheduler      median speedup   median SSLR");
    for cell in sweep.cells() {
        let speed = summary(&cell.values(|r| r.metrics.speedup));
        let sslr = summary(&cell.values(|r| r.metrics.sslr));
        println!(
            "{:12} {:5}  {:13}  {:14.2}   {:11.2}",
            cell.workload.label(),
            cell.pes,
            cell.scheduler.to_string(),
            speed.median,
            sslr.median,
        );
    }

    // The same sweep exports as byte-stable CSV/JSON for downstream
    // tooling; rerunning with any thread count yields identical bytes.
    let csv = sweep.to_csv();
    println!("\nCSV export: {} rows", csv.lines().count() - 1);
}
