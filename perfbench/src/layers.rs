//! The traced re-drive of the sweep engine's pipeline.
//!
//! [`run_cases`] does what `SweepSpec::run_cases` does — key, batch
//! lookup, then per missing case instantiate, semantic probe, evaluate,
//! and finally persist and flush — but calls each layer's public functions
//! itself, inside spans. Evaluation follows `StreamingScheduler::run`
//! (partition → `schedule_partition_with` → `buffer_sizes`) and
//! `NonStreamingScheduler::run` (`non_streaming_schedule` plus metrics),
//! then validates exactly as the engine does. The outcomes are the
//! engine's, byte for byte; the workloads compare the traced output with
//! the untraced output and reject the traced run when they differ.

use std::path::Path;
use std::time::Instant;

use stg_analysis::{non_streaming_depth, streaming_depth, BlockStartRule, ScheduleError};
use stg_buffer::{buffer_sizes, SizingPolicy};
use stg_core::{NonStreamingPlan, Plan, SchedulerKind, StreamingPlan};
use stg_des::{relative_error, take_leap_telemetry};
use stg_experiments::engine::{Case, Record, SimChoice, SimMicros, SimRecord};
use stg_experiments::harness::{default_threads, par_map_with};
use stg_experiments::store::{CellKey, Outcome, ResultStore, SCHEMA_VERSION};
use stg_experiments::{StoreStats, SweepSpec};
use stg_fabric::FabricSnapshot;
use stg_model::CanonicalGraph;
use stg_sched::{compute_metrics, non_streaming_schedule, schedule_partition_with};
use stg_sched::{spatial_block_partition, SbVariant};
use stg_workloads::{WorkloadFamily, WorkloadKind};

use crate::trace::{request, span, Totals};
use crate::{mean, median, Report, PARALLELISM};

/// Work counts of one traced pass, gathered where the work happens.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Graph instantiations served by the memo cache.
    pub memo_hits: u64,
    /// Graph instantiations that built the graph.
    pub memo_misses: u64,
    /// Plans produced (scheduler calls that returned a plan).
    pub plans: u64,
    /// Scheduler errors.
    pub errors: u64,
    /// Element beats simulated by validation.
    pub beats: u64,
    /// Simulated cycles of streaming validations (sum of makespans).
    pub sim_cycles: u64,
    /// Cycles the batched simulator skipped by epoch leaping.
    pub leaped_cycles: u64,
    /// Validations that did not complete.
    pub deadlocks: u64,
}

impl Counts {
    /// Adds `other` field by field.
    pub fn add(&mut self, other: &Counts) {
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.plans += other.plans;
        self.errors += other.errors;
        self.beats += other.beats;
        self.sim_cycles += other.sim_cycles;
        self.leaped_cycles += other.leaped_cycles;
        self.deadlocks += other.deadlocks;
    }
}

/// The request id of the batch stages (key, lookup, persist, flush) of a
/// pass; per-case spans use the case index as their request id.
pub const BATCH_REQUEST: u64 = 1 << 62;

/// Traced `SweepSpec::run_cases`: the outcomes of `cases`, in order, and
/// the work counts. `request_base` is added to every request id, so two
/// passes of one round keep distinct ids.
pub fn run_cases(
    spec: &SweepSpec,
    cases: &[Case],
    store: Option<&ResultStore>,
    request_base: u64,
) -> (Vec<Outcome>, Counts) {
    let sim_mode = spec.sim_mode();
    let batch = request_base | BATCH_REQUEST;
    let (keys, mut slots) = request(batch, || {
        let keys = match store {
            Some(_) => span("store.key", || nominal_keys(spec, cases, &sim_mode)),
            None => vec![None; cases.len()],
        };
        let slots = match store {
            Some(store) => {
                let threads = spec
                    .threads
                    .unwrap_or_else(|| default_threads(keys.len() as u64));
                span("store.lookup", || store.lookup_many(&keys, threads))
            }
            None => vec![None; cases.len()],
        };
        (keys, slots)
    });
    let todo: Vec<usize> = (0..cases.len()).filter(|&i| slots[i].is_none()).collect();
    let threads = spec
        .threads
        .unwrap_or_else(|| default_threads(todo.len() as u64));
    let evaluated = par_map_with(todo.len() as u64, threads, |j| {
        let i = todo[j as usize];
        let case = &cases[i];
        request(request_base + case.index as u64, || {
            let mut counts = Counts::default();
            let (g, hit) = span("workloads.instantiate", || {
                case.workload.instantiate_traced(case.seed)
            });
            if hit {
                counts.memo_hits += 1;
            } else {
                counts.memo_misses += 1;
            }
            let semantic = match (store, &keys[i]) {
                (Some(_), Some(_)) => Some(span("store.key", || {
                    CellKey::semantic(
                        SCHEMA_VERSION,
                        g.fingerprint(),
                        case.pes,
                        case.scheduler.alias(),
                        &sim_mode,
                    )
                })),
                _ => None,
            };
            if let (Some(store), Some(sem)) = (store, &semantic) {
                if let Some(outcome) = span("store.lookup", || store.lookup_repaired(sem)) {
                    take_leap_telemetry();
                    return (outcome, None, counts);
                }
            }
            let outcome = evaluate(case, &g, spec.validate, spec.sim, &mut counts);
            (outcome, semantic, counts)
        })
    });
    let mut counts = Counts::default();
    request(batch, || {
        let mut persist = Vec::with_capacity(evaluated.len());
        for (j, (outcome, semantic, case_counts)) in evaluated.into_iter().enumerate() {
            counts.add(&case_counts);
            persist.push((todo[j], semantic));
            slots[todo[j]] = Some(outcome);
        }
        if let Some(store) = store {
            span("store.persist", || {
                for (i, semantic) in &persist {
                    let outcome = slots[*i].as_ref().expect("evaluated above");
                    if let Some(key) = &keys[*i] {
                        store.insert_batched(key, outcome);
                        if let Some(sem) = semantic {
                            store.insert_batched(sem, outcome);
                        }
                    }
                }
            });
            span("store.flush", || store.flush());
        }
    });
    let outcomes = slots
        .into_iter()
        .map(|o| o.expect("every slot filled by lookup or evaluation"))
        .collect();
    (outcomes, counts)
}

/// The engine's key stage: one nominal key per cacheable case, with the
/// workload spec rendered once per run of cases sharing a workload.
fn nominal_keys(spec: &SweepSpec, cases: &[Case], sim_mode: &str) -> Vec<Option<CellKey>> {
    let mut keys = Vec::with_capacity(cases.len());
    let mut rendered = String::new();
    let mut rendered_for: Option<&WorkloadKind> = None;
    for c in cases {
        if spec.timing || matches!(c.workload, WorkloadKind::Fixed(_)) {
            keys.push(None);
            continue;
        }
        if rendered_for != Some(&c.workload) {
            rendered = c.workload.spec();
            rendered_for = Some(&c.workload);
        }
        keys.push(Some(CellKey::new(
            SCHEMA_VERSION,
            &rendered,
            c.seed,
            c.pes,
            c.scheduler.alias(),
            sim_mode,
        )));
    }
    keys
}

/// One case through the scheduler's phases and, when `validate` is set,
/// the simulator — the engine's `evaluate_with`, one layer call per span.
fn evaluate(
    case: &Case,
    g: &CanonicalGraph,
    validate: bool,
    choice: SimChoice,
    counts: &mut Counts,
) -> Outcome {
    let plan = match schedule(case, g) {
        Ok(plan) => plan,
        Err(e) => {
            counts.errors += 1;
            return Err(e);
        }
    };
    counts.plans += 1;
    let sim = validate.then(|| {
        span("des.simulate", || {
            let mut micros = SimMicros::default();
            let mut results = Vec::with_capacity(choice.kinds().len());
            for &kind in choice.kinds() {
                let t0 = Instant::now();
                results.push(plan.validate_with(g, kind));
                let us = t0.elapsed().as_micros() as u64;
                match kind {
                    stg_des::SimKind::Reference => micros.reference = Some(us),
                    stg_des::SimKind::Batched => micros.batched = Some(us),
                }
            }
            let diverged = results.windows(2).any(|w| w[0] != w[1]);
            let s = &results[0];
            SimRecord {
                completed: s.completed(),
                makespan: s.makespan,
                rel_err_pct: if s.completed() {
                    100.0 * relative_error(plan.makespan(), s.makespan)
                } else {
                    0.0
                },
                beats: s.beats,
                diverged,
                micros,
            }
        })
    });
    let leap = take_leap_telemetry();
    if let Some(s) = &sim {
        counts.beats += s.beats;
        counts.leaped_cycles += leap.leaped_cycles;
        if plan.buffers().is_some() {
            counts.sim_cycles += s.makespan;
        }
        if !s.completed {
            counts.deadlocks += 1;
        }
    }
    Ok(Record {
        metrics: *plan.metrics(),
        buffer_elements: plan.buffers().map_or(0, |b| b.total_elements),
        sim,
    })
}

/// The scheduler of `case`, phase by phase for the presets the benchmark
/// workloads use; any other preset runs whole inside `sched.schedule`.
fn schedule(case: &Case, g: &CanonicalGraph) -> Result<Plan, ScheduleError> {
    let pes = case.pes;
    let variant = match case.scheduler {
        SchedulerKind::StreamingLts => SbVariant::Lts,
        SchedulerKind::StreamingRlx => SbVariant::Rlx,
        SchedulerKind::NonStreaming => {
            let schedule = span("sched.list", || non_streaming_schedule(g, pes));
            let metrics = span("sched.schedule", || {
                let t_inf = streaming_depth(g).unwrap_or(0);
                let t_nstr = non_streaming_depth(g).unwrap_or(0);
                compute_metrics(
                    g,
                    schedule.makespan,
                    schedule.utilization(g, pes),
                    1,
                    t_inf,
                    t_nstr,
                )
            });
            return Ok(Plan::from_non_streaming(
                "NSTR-SCH",
                pes,
                NonStreamingPlan { schedule, metrics },
            ));
        }
        other => return span("sched.schedule", || other.build(pes).schedule(g)),
    };
    let partition = span("sched.partition", || {
        spatial_block_partition(g, pes, variant)
    });
    let result = span("sched.schedule", || {
        schedule_partition_with(g, pes, partition, BlockStartRule::Barrier)
    })?;
    let buffers = span("buffer.sizing", || {
        buffer_sizes(g, &result.schedule, SizingPolicy::Converging, 1)
    });
    let name = match variant {
        SbVariant::Lts => "STR-SCH-1",
        SbVariant::Rlx => "STR-SCH-2",
    };
    Ok(Plan::from_streaming(
        name,
        StreamingPlan {
            pes,
            result,
            buffers,
        },
    ))
}

/// What the traced rounds of one workload gathered, round by round. A
/// workload leaves the lists of layers it does not run empty.
#[derive(Default)]
pub struct Traced {
    /// Wall of the untraced work the traced round repeats, seconds.
    pub untraced_wall: Vec<f64>,
    /// Wall of each traced round, seconds.
    pub traced_wall: Vec<f64>,
    /// Span totals of each traced round.
    pub totals: Vec<Totals>,
    /// Work counts of each traced round.
    pub counts: Vec<Counts>,
    /// Store counters and disk usage after each traced round.
    pub stores: Vec<StoreRound>,
    /// Coordinator counters of each traced round.
    pub fabric: Vec<FabricSnapshot>,
    /// Store misses ÷ distinct new cells of each traced round.
    pub evals_per_new_cell: Vec<f64>,
}

/// Spans of the layers every workload runs, reported as self seconds.
const SELF_SECONDS: [&str; 6] = [
    "workloads.instantiate",
    "sched.partition",
    "sched.schedule",
    "buffer.sizing",
    "sched.list",
    "engine.expand",
];

/// Spans of the layers only some workloads run, reported as a share of
/// the traced round's thread time (self time ÷ [`PARALLELISM`] × wall), so
/// that a workload without the layer reports a share of 0.
const SHARES: [&str; 11] = [
    "engine.emit",
    "des.simulate",
    "store.open",
    "store.key",
    "store.lookup",
    "store.persist",
    "store.flush",
    "service.parse",
    "service.dispatch",
    "fabric.row_codec",
    "fabric.merge",
];

impl Traced {
    /// Adds every per-layer metric of `BENCHMARK.json` to `report`: means
    /// over traced rounds, 0 for a layer the workload does not run.
    pub fn report(&self, report: &mut Report) {
        let totals = &self.totals;
        let rounds: Vec<(&Totals, f64)> = totals
            .iter()
            .zip(&self.traced_wall)
            .map(|(t, &wall)| (t, PARALLELISM as f64 * wall))
            .collect();
        let share = |busy: &dyn Fn(&Totals) -> f64| mean(&rounds, |(t, time)| busy(t) / time);
        let counts = &self.counts;
        for name in SELF_SECONDS {
            report.metric(&format!("{name}_s"), mean(totals, |t| t.self_s(name)), "s");
        }
        let miss_ratio =
            |c: &Counts| c.memo_misses as f64 / (c.memo_hits + c.memo_misses).max(1) as f64;
        report.metric(
            "workloads.cache_miss_ratio",
            mean(counts, miss_ratio),
            "ratio",
        );
        report.metric("sched.plans", mean(counts, |c| c.plans as f64), "count");
        for name in SHARES {
            report.metric(
                &format!("{name}_share"),
                share(&|t| t.self_s(name)),
                "ratio",
            );
        }

        let per_round: Vec<(&Counts, &Totals)> = counts.iter().zip(totals).collect();
        report.metric("des.beats", mean(counts, |c| c.beats as f64), "count");
        let beats_per_us = |&(c, t): &(&Counts, &Totals)| {
            let us = t.self_s("des.simulate") * 1e6;
            if us > 0.0 {
                c.beats as f64 / us
            } else {
                0.0
            }
        };
        report.metric("des.beats_per_us", mean(&per_round, beats_per_us), "1/us");
        let leaped = |c: &Counts| c.leaped_cycles as f64 / c.sim_cycles.max(1) as f64;
        report.metric("des.leaped_share", mean(counts, leaped), "ratio");
        report.metric(
            "des.deadlocks",
            mean(counts, |c| c.deadlocks as f64),
            "count",
        );

        let stores = &self.stores;
        let hit_ratio = |r: &StoreRound| r.stats.hits as f64 / r.stats.total().max(1) as f64;
        report.metric("store.hit_ratio", mean(stores, hit_ratio), "ratio");
        let segments = mean(stores, |r| r.segments as f64);
        report.metric("store.segment_files", segments, "count");
        report.metric(
            "store.bytes_on_disk",
            mean(stores, |r| r.bytes as f64),
            "bytes",
        );
        report.metric(
            "store.evicted",
            mean(stores, |r| r.stats.evicted as f64),
            "count",
        );
        report.metric(
            "store.repaired",
            mean(stores, |r| r.stats.repaired as f64),
            "count",
        );

        // Client latency beyond the daemon's parse and dispatch: transport,
        // queueing and the connection threads.
        let transport = |t: &Totals| {
            t.wall_s("client.request") - t.wall_s("service.parse") - t.wall_s("service.dispatch")
        };
        report.metric("service.transport_share", share(&transport), "ratio");
        let evals = mean(&self.evals_per_new_cell, |e| *e);
        report.metric("service.evals_per_new_cell", evals, "ratio");

        let fabric = &self.fabric;
        let issued = mean(fabric, |f| f.leases_issued as f64);
        report.metric("fabric.leases_issued", issued, "count");
        let stolen = mean(fabric, |f| f.leases_stolen as f64);
        report.metric("fabric.leases_stolen", stolen, "count");
        let duplicates = mean(fabric, |f| {
            f.rows_duplicate as f64 / f.rows_merged.max(1) as f64
        });
        report.metric("fabric.duplicate_row_share", duplicates, "ratio");
        // Worker evaluation including its child spans.
        report.metric(
            "fabric.eval_share",
            share(&|t| t.wall_s("fabric.eval")),
            "ratio",
        );

        // Tracing overhead: median traced wall minus median untraced wall
        // of the same work.
        let (untraced, traced) = (median(&self.untraced_wall), median(&self.traced_wall));
        report.metric("trace.untraced_wall_s", untraced, "s");
        report.metric("trace.overhead_s", traced - untraced, "s");
        report.metric("trace.spans", mean(totals, |t| t.spans() as f64), "count");
    }
}

/// Segment files and total bytes under a store directory.
pub fn disk_usage(dir: &Path) -> (u64, u64) {
    let mut segments = 0;
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if entry.file_name().to_string_lossy().starts_with("seg-") {
            segments += 1;
        }
        bytes += entry.metadata().map_or(0, |m| m.len());
    }
    (segments, bytes)
}

/// Store counters and disk usage of one traced round.
pub struct StoreRound {
    pub stats: StoreStats,
    pub segments: u64,
    pub bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace;
    use crate::{runs_of, sweep_of};

    /// A small validated grid: the paper's chain and FFT topologies, two
    /// graphs per cell.
    fn small_spec(seed: u64) -> SweepSpec {
        let mut spec = crate::paper::spec(seed, 2);
        spec.workloads.truncate(2);
        spec
    }

    fn traced_csv(spec: &SweepSpec, store: Option<&ResultStore>) -> (String, Vec<trace::Span>) {
        stg_workloads::cache::clear();
        let cases = spec.cases();
        let (outcomes, _) = run_cases(spec, &cases, store, 0);
        (
            sweep_of(spec, runs_of(cases, outcomes)).to_csv(),
            trace::take(),
        )
    }

    /// The traced re-drive emits the engine's bytes, and a seed fixes the
    /// span file up to its times and thread numbers. (One test, because
    /// the span list is process-wide.)
    #[test]
    fn traced_runs_match_the_engine_and_repeat_their_spans() {
        let spec = small_spec(5);
        let engine = spec.run().to_csv();
        let (csv, spans) = traced_csv(&spec, None);
        assert_eq!(csv, engine, "traced outcomes differ from the engine's");
        let (again, spans_again) = traced_csv(&spec, None);
        assert_eq!(again, engine);
        assert_eq!(trace::skeleton(&spans), trace::skeleton(&spans_again));
        let names: std::collections::BTreeSet<_> = spans.iter().map(|s| s.name).collect();
        for layer in [
            "workloads.instantiate",
            "sched.partition",
            "sched.schedule",
            "buffer.sizing",
            "sched.list",
            "des.simulate",
        ] {
            assert!(names.contains(layer), "no {layer} span");
        }

        let store = ResultStore::in_memory();
        let (cold, cold_spans) = traced_csv(&spec, Some(&store));
        let (warm, warm_spans) = traced_csv(&spec, Some(&store));
        assert_eq!(
            (cold.as_str(), warm.as_str()),
            (engine.as_str(), engine.as_str())
        );
        assert_eq!(store.stats().hits, spec.total_cases() as u64);
        assert!(cold_spans.iter().any(|s| s.name == "store.persist"));
        assert!(warm_spans.iter().all(|s| s.name != "workloads.instantiate"));

        let other = small_spec(6);
        let (_, other_spans) = traced_csv(&other, None);
        assert_ne!(other.run().to_csv(), engine, "seeds draw different graphs");
        assert_eq!(
            trace::skeleton(&other_spans).len(),
            trace::skeleton(&spans).len()
        );
    }
}
