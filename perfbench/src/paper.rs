//! `paper_validated`: the paper's own evaluation grid (`SweepSpec::paper`:
//! chain/fft/gauss/chol at the paper PE sweeps × SB-LTS, SB-RLX,
//! NSTR-SCH), every plan validated by the batched simulator, no result
//! store, and the graph memo cache emptied before each round. Scheduling
//! and simulation do nearly all the work.

use std::collections::HashMap;

use stg_analysis::{non_streaming_depth, streaming_depth};
use stg_core::SchedulerKind;
use stg_experiments::engine::{Run, SimChoice, Sweep};
use stg_experiments::SweepSpec;
use stg_workloads::{cache, WorkloadFamily};

use crate::layers::{self, Traced, BATCH_REQUEST};
use crate::trace::{self, request, span, Totals};
use crate::{end_to_end, runs_of, sweep_of, timed, timed_setup, Ctx, Rate, Report, PARALLELISM};

/// Graphs per (topology, PE count, scheduler) cell, as in the paper.
const GRAPHS: u64 = 100;

/// The validated paper grid of `seed`.
pub fn spec(seed: u64, graphs: u64) -> SweepSpec {
    let mut spec = SweepSpec::paper(graphs, seed);
    spec.validate = true;
    spec.sim = SimChoice::Batched;
    spec.threads = Some(PARALLELISM);
    spec
}

/// One untraced round: memo cache emptied (as in a fresh process, not
/// timed), set-up (grid expanded), then the timed sweep and CSV emission.
struct Round {
    sweep: Sweep,
    csv: String,
    setup_s: f64,
    /// Expansion + evaluation + emission, the span the traced round covers.
    work_s: f64,
    run_s: f64,
}

fn untraced(spec: &SweepSpec) -> Round {
    cache::clear();
    let (cases, expand_s) = timed_setup(|| spec.cases());
    let ((sweep, csv), run_s) = timed(|| {
        let sweep = sweep_of(spec, spec.run_cases(cases, None).runs);
        let csv = sweep.to_csv();
        (sweep, csv)
    });
    Round {
        sweep,
        csv,
        setup_s: expand_s,
        work_s: expand_s + run_s,
        run_s,
    }
}

/// The traced round: the same inputs through [`layers::run_cases`].
fn traced(spec: &SweepSpec) -> (Sweep, String, layers::Counts, f64) {
    cache::clear();
    let ((sweep, csv, counts), wall) = timed(|| {
        let cases = request(BATCH_REQUEST, || span("engine.expand", || spec.cases()));
        let (outcomes, counts) = layers::run_cases(spec, &cases, None, 0);
        let sweep = sweep_of(spec, runs_of(cases, outcomes));
        let csv = request(BATCH_REQUEST, || span("engine.emit", || sweep.to_csv()));
        (sweep, csv, counts)
    });
    (sweep, csv, counts, wall)
}

/// The simulated-time quality of a set of answered cells: geometric-mean
/// NSTR-SCH ÷ STR-SCH-1 makespan (paired by workload, PEs and seed) and
/// mean utilization over every plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quality {
    pub speedup: f64,
    pub utilization: f64,
}

pub fn quality<'a>(runs: impl IntoIterator<Item = &'a Run> + Clone) -> Quality {
    let key = |r: &Run| (r.case.workload.spec(), r.case.pes, r.case.seed);
    let nstr: HashMap<_, u64> = runs
        .clone()
        .into_iter()
        .filter(|r| r.case.scheduler == SchedulerKind::NonStreaming)
        .filter_map(|r| Some((key(r), r.record()?.metrics.makespan)))
        .collect();
    let (mut log_sum, mut pairs) = (0.0, 0u64);
    let (mut util_sum, mut util_n) = (0.0, 0u64);
    for r in runs {
        let Some(rec) = r.record() else { continue };
        util_sum += rec.metrics.utilization;
        util_n += 1;
        if r.case.scheduler == SchedulerKind::StreamingLts {
            if let Some(&base) = nstr.get(&key(r)) {
                log_sum += (base as f64 / rec.metrics.makespan as f64).ln();
                pairs += 1;
            }
        }
    }
    Quality {
        speedup: (log_sum / pairs.max(1) as f64).exp(),
        utilization: util_sum / util_n.max(1) as f64,
    }
}

/// Checks the paper's properties on every run: no scheduler error, no
/// deadlock, utilization at most 1, and the depth lower bounds on the
/// analytic makespan — the streaming depth for single-block streaming
/// plans, the buffered critical path (`non_streaming_depth`) for
/// NSTR-SCH. Across spatial blocks, data between blocks goes through
/// memory and a plan can finish below the streaming depth; such plans are
/// counted on stderr, not failed. Returns the failed-operation count.
fn check_runs(runs: &[Run], report: &mut Report) -> u64 {
    let mut depths: HashMap<(String, u64), (u64, u64)> = HashMap::new();
    let (mut failed, mut below) = (0, 0);
    for r in runs {
        let rec = match &r.outcome {
            Ok(rec) => rec,
            Err(e) => {
                failed += 1;
                report.fail_check(format!("case {}: scheduler error {e:?}", r.case.index));
                continue;
            }
        };
        let (t_inf, t_nstr) = *depths
            .entry((r.case.workload.spec(), r.case.seed))
            .or_insert_with(|| {
                let g = r.case.graph();
                let depth = |d: Result<u64, _>| d.expect("paper graphs are acyclic");
                (depth(streaming_depth(&g)), depth(non_streaming_depth(&g)))
            });
        if !rec.sim.expect("validated sweep").completed {
            failed += 1;
            report.fail_check(format!("case {}: simulation deadlocked", r.case.index));
        }
        let m = &rec.metrics;
        let (bound, name) = match r.case.scheduler {
            SchedulerKind::NonStreaming => (t_nstr, "buffered critical path"),
            _ if m.blocks == 1 => (t_inf, "streaming depth"),
            _ => {
                below += u64::from(m.makespan < t_inf);
                (0, "")
            }
        };
        if m.makespan < bound {
            report.fail_check(format!("case {}: makespan below the {name}", r.case.index));
        }
        if m.utilization > 1.0 {
            report.fail_check(format!("case {}: utilization above 1", r.case.index));
        }
    }
    eprintln!(
        "perfbench: {below} of {} multi-block streaming plans finish below the streaming depth",
        runs.iter()
            .filter(|r| r.case.scheduler.is_streaming())
            .filter(|r| r.record().is_some_and(|rec| rec.metrics.blocks > 1))
            .count()
    );
    failed
}

pub fn run(ctx: &Ctx, traced_run: bool) -> Report {
    let spec = spec(ctx.seed, GRAPHS);
    let mut report = Report::new();
    let mut first: Option<(String, Quality)> = None;
    let mut setup = Vec::new();
    let mut rate = Rate::default();
    let mut layers = Traced::default();
    let peak = ctx.rounds(|n| {
        let round = untraced(&spec);
        let cells = round.sweep.runs.len() as u64;
        report.attempted += cells;
        match &first {
            None => {
                let failed = check_runs(&round.sweep.runs, &mut report);
                report.failed += failed;
                first = Some((round.csv.clone(), quality(&round.sweep.runs)));
            }
            Some((csv, _)) if *csv != round.csv => report.fail_check("CSV differs between rounds"),
            Some(_) => {}
        }
        setup.push(round.setup_s);
        rate.add(cells as f64, round.run_s);
        eprintln!(
            "perfbench: round {n}: {:.0} cells/s",
            cells as f64 / round.run_s
        );
        layers.untraced_wall.push(round.work_s);
        if traced_run {
            let (sweep, csv, c, wall) = traced(&spec);
            let spans = trace::take();
            if n == 0 {
                if let Err(e) = trace::write_file(&ctx.span_file(), &spans) {
                    report.fail_check(format!("span file: {e}"));
                }
            }
            let (csv0, q0) = first.as_ref().expect("first round recorded");
            if csv != *csv0 || quality(&sweep.runs) != *q0 {
                report.fail_check("traced output differs from the untraced output");
            }
            layers.traced_wall.push(wall);
            layers.totals.push(Totals::of(&spans));
            layers.counts.push(c);
        }
    });
    let (_, q) = first.expect("at least one round");
    if traced_run {
        layers.report(&mut report);
    } else {
        end_to_end(&mut report, &setup, peak, &rate, q);
    }
    report
}
