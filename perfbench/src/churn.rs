//! `store_churn`: the `chain:8` × PEs {2, 4, 8} × three-scheduler grid
//! with validation off, through the result store. Each round runs a cold
//! pass through `ResultStore::at_dir` on an empty directory (key, lookup,
//! evaluate, `insert_batched`, `flush` with fsync), then a warm pass
//! through a fresh `ResultStore` on the same directory while its segment
//! files are still in the page cache. Graphs are tiny, so the store and
//! the engine dominate; the warm pass never schedules.

use std::path::Path;

use stg_experiments::{ResultStore, StoreStats, SweepSpec};
use stg_workloads::cache;

use crate::layers::{self, disk_usage, StoreRound, Traced, BATCH_REQUEST};
use crate::paper::quality;
use crate::trace::{self, request, span, Totals};
use crate::{chain_grid, end_to_end, runs_of, sweep_of, timed, timed_setup, Ctx, Rate, Report};

/// Seeds per grid cell: 72k cells, so one warm pass takes tens of
/// milliseconds.
pub const GRAPHS: u64 = 8_000;

/// Request-id offset of the warm pass's spans.
const WARM_REQUESTS: u64 = 1 << 32;

/// One pass through a store opened on `dir`.
struct Pass {
    csv: String,
    stats: StoreStats,
    open_s: f64,
    run_s: f64,
}

fn untraced_pass(spec: &SweepSpec, dir: &Path) -> Pass {
    let ((store, cases), open_s) = timed_setup(|| {
        let store = ResultStore::at_dir(dir).expect("open the store directory");
        (store, spec.cases())
    });
    let (csv, run_s) = timed(|| sweep_of(spec, spec.run_cases(cases, Some(&store)).runs).to_csv());
    Pass {
        csv,
        stats: store.stats(),
        open_s,
        run_s,
    }
}

fn traced_pass(spec: &SweepSpec, dir: &Path, requests: u64) -> (Pass, layers::Counts) {
    let batch = requests | BATCH_REQUEST;
    let ((store, cases), open_s) = timed(|| {
        request(batch, || {
            let store =
                span("store.open", || ResultStore::at_dir(dir)).expect("open the store directory");
            (store, span("engine.expand", || spec.cases()))
        })
    });
    let ((csv, counts), run_s) = timed(|| {
        let (outcomes, counts) = layers::run_cases(spec, &cases, Some(&store), requests);
        let sweep = sweep_of(spec, runs_of(cases, outcomes));
        (
            request(batch, || span("engine.emit", || sweep.to_csv())),
            counts,
        )
    });
    let pass = Pass {
        csv,
        stats: store.stats(),
        open_s,
        run_s,
    };
    (pass, counts)
}

fn add(a: StoreStats, b: StoreStats) -> StoreStats {
    StoreStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        invalidations: a.invalidations + b.invalidations,
        evicted: a.evicted + b.evicted,
        repaired: a.repaired + b.repaired,
    }
}

pub fn run(ctx: &Ctx, traced_run: bool) -> Report {
    let spec = chain_grid(ctx.seed, GRAPHS);
    let dir = ctx.work.join("store");
    let mut report = Report::new();
    // The storeless sweep is dropped here; its CSV and plan quality stay.
    // The store passes answer with the same outcomes (their CSV must equal
    // this one), so the quality is theirs too.
    let (reference, errors, q) = {
        let sweep = spec.run();
        (sweep.to_csv(), sweep.errors() as u64, quality(&sweep.runs))
    };
    let cells = spec.total_cases() as u64;
    let (mut setup, mut rate) = (Vec::new(), Rate::default());
    let mut layers = Traced::default();
    let check = |report: &mut Report, c: &Pass, w: &Pass, what: &str| {
        if c.csv != reference || w.csv != reference {
            report.fail_check(format!("{what} store CSV differs from the storeless run"));
        }
        if w.stats.misses != 0 {
            report.fail_check(format!("{what} warm pass missed {} cells", w.stats.misses));
        }
        report.attempted += 2 * cells;
        report.failed += 2 * errors;
    };
    let peak = ctx.rounds(|n| {
        let _ = std::fs::remove_dir_all(&dir);
        cache::clear();
        let c = untraced_pass(&spec, &dir);
        let w = untraced_pass(&spec, &dir);
        check(&mut report, &c, &w, "untraced");
        setup.push(c.open_s + w.open_s);
        rate.add(2.0 * cells as f64, c.run_s + w.run_s);
        eprintln!(
            "perfbench: round {n}: cold {:.0} cells/s, warm {:.0} cells/s",
            cells as f64 / c.run_s,
            cells as f64 / w.run_s,
        );
        layers
            .untraced_wall
            .push(c.open_s + c.run_s + w.open_s + w.run_s);
        if !traced_run {
            return;
        }
        let _ = std::fs::remove_dir_all(&dir);
        cache::clear();
        let (c, c_counts) = traced_pass(&spec, &dir, 0);
        let (segments, bytes) = disk_usage(&dir);
        let (w, w_counts) = traced_pass(&spec, &dir, WARM_REQUESTS);
        check(&mut report, &c, &w, "traced");
        let spans = trace::take();
        if n == 0 {
            if let Err(e) = trace::write_file(&ctx.span_file(), &spans) {
                report.fail_check(format!("span file: {e}"));
            }
        }
        layers
            .traced_wall
            .push(c.open_s + c.run_s + w.open_s + w.run_s);
        layers.totals.push(Totals::of(&spans));
        let mut both = c_counts;
        both.add(&w_counts);
        layers.counts.push(both);
        layers.stores.push(StoreRound {
            stats: add(c.stats, w.stats),
            segments,
            bytes,
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
    if traced_run {
        layers.report(&mut report);
    } else {
        end_to_end(&mut report, &setup, peak, &rate, q);
    }
    report
}
