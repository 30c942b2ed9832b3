//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_validated --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run measures one workload for `--seconds` seconds, checks every
//! output it produced, and prints a one-line JSON result as the last line
//! of standard output. With `--trace 0` the result holds the end-to-end
//! metrics; with `--trace 1` it alternates untraced and traced rounds of
//! the same inputs, reports the per-layer metrics of the traced rounds
//! plus the tracing overhead, and writes the spans of the first traced
//! round under `.bench_out/`. A failed output check prints
//! `"correct": false` and exits with status 1. `perfbench/README.md`
//! describes the workloads and what each metric should move.

mod churn;
mod fabric;
mod layers;
mod paper;
mod service;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use stg_experiments::engine::{Case, Run, Sweep, WorkloadSpec};
use stg_experiments::store::Outcome;
use stg_experiments::SweepSpec;
use stg_workloads::cache;

use crate::paper::Quality;

/// Benchmark threads, worker threads and client connections: the
/// benchmark is sized for a two-core machine and never loads more cores.
pub const PARALLELISM: usize = 2;

/// Rounds measured at least, even when one round outlasts `--seconds`.
const MIN_ROUNDS: usize = 3;

/// What a run was asked to do.
pub struct Ctx {
    /// The `--workload` name.
    pub workload: String,
    /// The `--seed` every input is derived from.
    pub seed: u64,
    /// How long to keep measuring.
    pub seconds: f64,
    /// Scratch directory of this run (store and cache directories).
    pub work: PathBuf,
    /// Where the span file goes.
    pub out: PathBuf,
}

impl Ctx {
    /// Runs `round` until `--seconds` have passed (and at least
    /// [`MIN_ROUNDS`] times), passing the round number. Returns the peak
    /// resident set of the first round, in MiB: the memo cache is emptied
    /// and the high-water mark reset just before it, so the workload's own
    /// reference output does not count. Later rounds are not measured:
    /// after the first round glibc has raised its mmap threshold, so large
    /// buffers come from the heap and the peak creeps up round after round
    /// (in `fabric_chain` from 29 to 60 MiB over 16 rounds).
    pub fn rounds(&self, mut round: impl FnMut(u64)) -> f64 {
        let start = Instant::now();
        cache::clear();
        reset_peak_rss();
        round(0);
        let peak = peak_rss_mib();
        let mut n = 1u64;
        while n < MIN_ROUNDS as u64 || start.elapsed().as_secs_f64() < self.seconds {
            round(n);
            n += 1;
        }
        peak
    }

    /// The span file of this run.
    pub fn span_file(&self) -> PathBuf {
        self.out
            .join(format!("spans-{}-seed{}.tsv", self.workload, self.seed))
    }
}

/// One run's result line.
#[derive(Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (cells evaluated, requests sent).
    pub attempted: u64,
    /// Operations that failed: scheduler errors, deadlocks, error or
    /// refused frames.
    pub failed: u64,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// An empty report whose checks have not failed yet.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Adds one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Marks the run incorrect, with the reason on standard error.
    pub fn fail_check(&mut self, why: impl std::fmt::Display) {
        eprintln!("perfbench: output check failed: {why}");
        self.correct = false;
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of sorted latencies.
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Resets this process's VmHWM to its current resident set (Linux
/// `clear_refs` value 5). Without it the peak would include whatever ran
/// before.
fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("perfbench: cannot reset the peak resident set ({e}); it includes set-up");
    }
}

/// Peak resident set of this process since the last reset (VmHWM), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Throughput over a whole run: units done ÷ seconds spent, both summed
/// over rounds. Per-round rates are bimodal (a round either gets both
/// worker threads or mostly one), so their median jumps between modes
/// from run to run; the run total does not.
#[derive(Default)]
pub struct Rate {
    units: f64,
    secs: f64,
}

impl Rate {
    /// Adds one round's work and time.
    pub fn add(&mut self, units: f64, secs: f64) {
        self.units += units;
        self.secs += secs;
    }

    /// Units per second over every round added.
    pub fn per_s(&self) -> f64 {
        self.units / self.secs
    }
}

/// The mean of `f` over traced rounds; 0 over none (a layer the workload
/// does not run).
pub fn mean<T>(rounds: &[T], f: impl Fn(&T) -> f64) -> f64 {
    if rounds.is_empty() {
        return 0.0;
    }
    rounds.iter().map(f).sum::<f64>() / rounds.len() as f64
}

/// Adds the end-to-end metrics of `BENCHMARK.json`, which every workload
/// reports: median set-up time, the first round's peak resident set, the
/// run's cell throughput, and the simulated-time quality of the plans the
/// workload answered with.
pub fn end_to_end(report: &mut Report, setup: &[f64], peak_mib: f64, cells: &Rate, q: Quality) {
    report.metric("setup_s", median(setup), "s");
    report.metric("peak_rss_mib", peak_mib, "MiB");
    report.metric("cells_per_s", cells.per_s(), "1/s");
    report.metric("str_over_nstr_speedup", q.speedup, "ratio");
    report.metric("utilization_mean", q.utilization, "ratio");
}

/// Seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Times of a set-up step taken per round.
const SETUP_REPEATS: usize = 9;

/// Runs the set-up step `f` [`SETUP_REPEATS`] times and returns the last
/// result with the median time. The steps `timed_setup` wraps take about
/// a millisecond, so a single timing of each is mostly noise. Each result
/// is dropped before the next call, so the peak resident set holds one.
pub fn timed_setup<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut out = None;
    for _ in 0..SETUP_REPEATS {
        drop(out.take());
        let (r, s) = timed(&mut f);
        times.push(s);
        out = Some(r);
    }
    (out.expect("at least one repeat"), median(&times))
}

/// A sweep over `runs` (no cache telemetry), for CSV emission.
pub fn sweep_of(spec: &SweepSpec, runs: Vec<Run>) -> Sweep {
    Sweep {
        spec: spec.clone(),
        runs,
        cache: Default::default(),
        cell_cache: Default::default(),
        leap: Default::default(),
    }
}

/// Pairs traced outcomes with their cases.
pub fn runs_of(cases: Vec<Case>, outcomes: Vec<Outcome>) -> Vec<Run> {
    cases
        .into_iter()
        .zip(outcomes)
        .map(|(case, outcome)| Run { case, outcome })
        .collect()
}

/// The `store_churn` / `fabric_chain` grid: `chain:8` × PEs {2, 4, 8} ×
/// {SB-LTS, SB-RLX, NSTR-SCH} × `graphs` seeds, validation off. Like every
/// grid here, `seed` is the sweep's own `--seed`: graph seeds
/// `seed .. seed + graphs`.
pub fn chain_grid(seed: u64, graphs: u64) -> SweepSpec {
    let mut spec = SweepSpec::paper(graphs, seed);
    spec.workloads = vec![WorkloadSpec {
        workload: "chain:8".parse().expect("chain:8 is registered"),
        pes: vec![2, 4, 8],
    }];
    spec.threads = Some(PARALLELISM);
    spec
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload \
         paper_validated|store_churn|service_mixed|fabric_chain \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let cwd = std::env::current_dir().unwrap_or_else(|e| usage(&format!("no cwd: {e}")));
    let ctx = Ctx {
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        work: cwd
            .join(".bench_work")
            .join(format!("{workload}-{}", std::process::id())),
        out: cwd.join(".bench_out"),
        workload,
    };
    let traced = traced.unwrap_or_else(|| usage("--trace is required"));
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        usage(&format!("cannot create {}: {e}", ctx.work.display()));
    }
    let run = match ctx.workload.as_str() {
        "paper_validated" => paper::run,
        "store_churn" => churn::run,
        "service_mixed" => service::run,
        "fabric_chain" => fabric::run,
        other => usage(&format!("unknown workload {other}")),
    };
    let mut report = run(&ctx, traced);
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Ok(mut rest) = std::fs::read_dir(cwd.join(".bench_work")) {
        if rest.next().is_none() {
            let _ = std::fs::remove_dir(cwd.join(".bench_work"));
        }
    }
    if report.metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        report.fail_check("a metric is not a finite number");
        for (_, v, _) in &mut report.metrics {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
    }
    if report.attempted == 0 {
        report.fail_check("no operation was attempted");
    }
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_seeds(spec: &SweepSpec) -> Vec<u64> {
        spec.cases().iter().map(|c| c.seed).collect()
    }

    #[test]
    fn a_seed_fixes_every_grid() {
        for grid in [|s| paper::spec(s, 3), |s| chain_grid(s, 3)] {
            let a = grid(4);
            assert_eq!(graph_seeds(&a), graph_seeds(&grid(4)));
            assert_eq!(a.grid_fingerprint(), grid(4).grid_fingerprint());
            assert_ne!(a.grid_fingerprint(), grid(5).grid_fingerprint());
            assert_eq!(graph_seeds(&a)[..3], [4, 5, 6]);
        }
    }

    /// `(name, unit)` of every metric object in `section` of
    /// `BENCHMARK.json`, in order.
    fn manifest(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|m| {
                let name = m[..m.find('"').expect("closing quote")].to_string();
                let unit = m.split("\"unit\": \"").nth(1).expect("a unit");
                (
                    name,
                    unit[..unit.find('"').expect("closing quote")].to_string(),
                )
            })
            .collect()
    }

    fn printed(report: &Report) -> Vec<(String, String)> {
        let mut metrics: Vec<_> = report
            .metrics
            .iter()
            .map(|(name, _, unit)| (name.clone(), unit.to_string()))
            .collect();
        metrics.sort();
        metrics
    }

    /// Every workload reports exactly the manifest's metrics, in its units:
    /// the end-to-end set untraced, the per-layer set traced, even for
    /// layers it does not run.
    #[test]
    fn reports_hold_exactly_the_manifest_metrics() {
        let mut end = Report::new();
        let q = Quality {
            speedup: 2.0,
            utilization: 0.5,
        };
        end_to_end(
            &mut end,
            &[0.1],
            10.0,
            &Rate {
                units: 1.0,
                secs: 1.0,
            },
            q,
        );
        let mut layer = Report::new();
        let one_round = layers::Traced {
            untraced_wall: vec![1.0],
            traced_wall: vec![1.0],
            totals: vec![Default::default()],
            counts: vec![Default::default()],
            ..Default::default()
        };
        one_round.report(&mut layer);
        for (report, section) in [(end, "end_to_end"), (layer, "per_layer")] {
            let mut want = manifest(section);
            assert!(!want.is_empty(), "{section} lists metrics");
            want.sort();
            assert_eq!(printed(&report), want, "{section}");
            assert!(report.metrics.iter().all(|(_, v, _)| v.is_finite()));
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<Duration> = (1..=1000).map(Duration::from_micros).collect();
        assert_eq!(percentile(&sorted, 50.0), Duration::from_micros(500));
        // Ten samples lie beyond the 99th percentile of 1000.
        assert_eq!(percentile(&sorted, 99.0), Duration::from_micros(990));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
