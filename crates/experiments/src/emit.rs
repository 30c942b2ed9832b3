//! The one emission path: every CSV/JSON artifact byte goes through a
//! [`StreamMerger`].
//!
//! The merger owns the output writer. The header goes out as soon as it
//! opens; rows are pushed in any order, each index merged at most once,
//! and emitted in case-index order through this module's row renderers —
//! the only ones in the workspace. Every source feeds it:
//!
//! - an in-process sweep ([`Sweep::emit`](crate::Sweep::emit), and
//!   [`Sweep::to_csv`](crate::Sweep::to_csv) /
//!   [`Sweep::to_json`](crate::Sweep::to_json) over it);
//! - a validated shard set
//!   ([`SweepSpec::merge_shard_bytes`](crate::SweepSpec::merge_shard_bytes));
//! - the fabric coordinator, as worker `rows` frames arrive.
//!
//! So the three artifacts are byte-identical by construction.
//! Out-of-order arrivals buffer in a [`BTreeMap`] until the next emission
//! index arrives; a fabric coordinator issues leases in index order, so
//! the buffer is bounded by the outstanding-lease spread, not the grid
//! size. The merger also keeps the one failure tally ([`MergeTallies`])
//! behind every binary's exit code, and names the first rows on which the
//! simulators diverged ([`MergeReport::diverged`]).

use std::collections::BTreeMap;
use std::io::Write;

use stg_workloads::WorkloadFamily;

use crate::engine::{Case, Run, SweepSpec};
use crate::json::quote;
use crate::store::{error_code, Outcome};

/// How many diverged rows a [`MergeReport`] names.
const NAMED_DIVERGED: usize = 10;

/// Which artifact the merger streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputKind {
    /// The `sweep` CSV artifact.
    Csv,
    /// The `sweep --json` artifact.
    Json,
}

/// Failure counts of a set of outcomes: the inputs of every binary's exit
/// code.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeTallies {
    /// Rows that failed to schedule.
    pub errors: usize,
    /// Validated rows whose simulation did not complete.
    pub deadlocks: usize,
    /// Validated rows on which the simulators diverged
    /// ([`SimChoice::Both`](crate::SimChoice::Both) only; any divergence is
    /// a simulator bug).
    pub divergences: usize,
}

impl MergeTallies {
    /// The tallies of `runs`.
    pub fn of(runs: &[Run]) -> MergeTallies {
        let mut tallies = MergeTallies::default();
        for run in runs {
            tallies.add(&run.outcome);
        }
        tallies
    }

    fn add(&mut self, outcome: &Outcome) {
        match outcome {
            Err(_) => self.errors += 1,
            Ok(r) => {
                if let Some(s) = r.sim {
                    self.deadlocks += usize::from(!s.completed);
                    self.divergences += usize::from(s.diverged);
                }
            }
        }
    }

    /// The exit policy of `sweep` (every mode) and `fabric coordinate`:
    /// any scheduling error, simulation deadlock or simulator divergence
    /// prints one `ERROR:` line on stderr and exits 1.
    pub fn exit_on_failures(self) {
        if self != MergeTallies::default() {
            eprintln!(
                "ERROR: {} scheduling errors, {} simulation deadlocks, {} simulator divergences",
                self.errors, self.deadlocks, self.divergences
            );
            std::process::exit(1);
        }
    }
}

/// The streaming merger: push rows in any order, exactly-once per index
/// enforced internally, output emitted in index order.
pub struct StreamMerger<W: Write> {
    spec: SweepSpec,
    kind: OutputKind,
    out: W,
    total: usize,
    next_emit: usize,
    buffered: BTreeMap<usize, Outcome>,
    merged: Vec<bool>,
    merged_count: usize,
    peak_buffered: usize,
    tallies: MergeTallies,
    diverged: Vec<(usize, String)>,
}

impl<W: Write> StreamMerger<W> {
    /// Opens the merger over `out` and writes the artifact header. Rows
    /// are rendered by expanding one case per index from `spec`, so it
    /// must be the spec that produced them.
    pub fn new(spec: SweepSpec, kind: OutputKind, mut out: W) -> std::io::Result<StreamMerger<W>> {
        let total = spec.total_cases();
        match kind {
            OutputKind::Csv => out.write_all(csv_header(spec.timing).as_bytes())?,
            OutputKind::Json => out.write_all(json_prelude(&spec).as_bytes())?,
        }
        Ok(StreamMerger {
            spec,
            kind,
            out,
            total,
            next_emit: 0,
            buffered: BTreeMap::new(),
            merged: vec![false; total],
            merged_count: 0,
            peak_buffered: 0,
            tallies: MergeTallies::default(),
            diverged: Vec::new(),
        })
    }

    /// True once `index` has been merged (first writer wins).
    pub fn is_merged(&self, index: usize) -> bool {
        self.merged[index]
    }

    /// True once every cell of the grid is merged.
    pub fn done(&self) -> bool {
        self.merged_count == self.total
    }

    /// High-water mark of rows buffered awaiting in-order emission — the
    /// bounded-memory tests assert this stays far below the grid size.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// Offers one row. Returns `Ok(true)` if it was new (merged), or
    /// `Ok(false)` if the index was already merged (a duplicate from a
    /// steal/re-queue overlap — harmless, outcomes are deterministic).
    /// Out-of-range indices are an error (a corrupt or foreign report),
    /// and so is a failed write.
    pub fn push(&mut self, index: usize, outcome: Outcome) -> Result<bool, String> {
        if index >= self.total {
            return Err(format!(
                "row index {index} out of range for a {}-cell grid",
                self.total
            ));
        }
        if self.merged[index] {
            return Ok(false);
        }
        self.merged[index] = true;
        self.merged_count += 1;
        self.tallies.add(&outcome);
        self.buffered.insert(index, outcome);
        self.peak_buffered = self.peak_buffered.max(self.buffered.len());
        self.drain().map_err(|e| format!("merge output: {e}"))?;
        Ok(true)
    }

    /// Emits the contiguous prefix that is now available.
    fn drain(&mut self) -> std::io::Result<()> {
        while let Some(outcome) = self.buffered.remove(&self.next_emit) {
            let case = self
                .spec
                .cases_slice(self.next_emit..self.next_emit + 1)
                .pop()
                .expect("index in range");
            let diverged = matches!(&outcome, Ok(r) if r.sim.is_some_and(|s| s.diverged));
            if diverged && self.diverged.len() < NAMED_DIVERGED {
                let name = format!(
                    "{} P={} seed={} {}",
                    case.workload.label(),
                    case.pes,
                    case.seed,
                    case.scheduler
                );
                self.diverged.push((case.index, name));
            }
            let row = match self.kind {
                OutputKind::Csv => csv_row(&case, &outcome, self.spec.timing),
                OutputKind::Json => json_row(
                    &case,
                    &outcome,
                    self.spec.timing,
                    self.next_emit + 1 == self.total,
                ),
            };
            self.out.write_all(row.as_bytes())?;
            self.next_emit += 1;
        }
        Ok(())
    }

    /// Writes the artifact epilogue and flushes. Errors unless every cell
    /// merged — a truncated artifact must never look complete.
    pub fn finish(mut self) -> Result<MergeReport, String> {
        if !self.done() {
            return Err(format!(
                "merge incomplete: {} of {} cells merged",
                self.merged_count, self.total
            ));
        }
        let io = |e: std::io::Error| format!("merge output: {e}");
        if self.kind == OutputKind::Json {
            self.out.write_all(JSON_EPILOGUE.as_bytes()).map_err(io)?;
        }
        self.out.flush().map_err(io)?;
        Ok(MergeReport {
            rows: self.merged_count,
            peak_buffered: self.peak_buffered,
            tallies: self.tallies,
            diverged: self.diverged,
        })
    }
}

/// What [`StreamMerger::finish`] reports about a completed merge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeReport {
    /// Rows merged (always the full grid).
    pub rows: usize,
    /// High-water mark of the out-of-order buffer.
    pub peak_buffered: usize,
    /// Failure counts for exit-code decisions.
    pub tallies: MergeTallies,
    /// The first rows (at most 10, in index order) on which the
    /// simulators diverged: grid index and
    /// `<workload> P=<pes> seed=<seed> <scheduler>`.
    pub diverged: Vec<(usize, String)>,
}

impl MergeReport {
    /// [`MergeTallies::exit_on_failures`], after one
    /// `diverged: <workload> P=<pes> seed=<seed> <scheduler>` line on
    /// stderr per named diverged row.
    pub fn exit_on_failures(&self) {
        for (_, name) in &self.diverged {
            eprintln!("diverged: {name}");
        }
        self.tallies.exit_on_failures();
    }
}

/// The CSV header row (with trailing newline). The non-deterministic
/// `sim_ref_us` / `sim_batched_us` wall-clock columns appear only with
/// `timing` and are excluded from the byte-stability contract.
fn csv_header(timing: bool) -> String {
    let mut out = String::from(
        "workload,tasks,pes,seed,scheduler,status,makespan,speedup,sslr,slr,\
         utilization,blocks,buffer_elements,sim_completed,sim_makespan,rel_err_pct,sim_beats",
    );
    if timing {
        out.push_str(",sim_ref_us,sim_batched_us");
    }
    out.push('\n');
    out
}

/// One CSV row (with trailing newline) for a case and its outcome.
fn csv_row(c: &Case, outcome: &Outcome, timing: bool) -> String {
    let na_us = |v: Option<u64>| v.map_or("NA".into(), |v: u64| v.to_string());
    let prefix = format!(
        "{},{},{},{},{}",
        csv_field(&c.workload.label()),
        c.workload.task_count(),
        c.pes,
        c.seed,
        c.scheduler
    );
    match outcome {
        Ok(r) => {
            let m = &r.metrics;
            let mut sim = match r.sim {
                Some(s) => format!(
                    "{},{},{:.6},{}",
                    s.completed as u8, s.makespan, s.rel_err_pct, s.beats
                ),
                None => "NA,NA,NA,NA".into(),
            };
            if timing {
                let micros = r.sim.map(|s| s.micros).unwrap_or_default();
                sim.push_str(&format!(
                    ",{},{}",
                    na_us(micros.reference),
                    na_us(micros.batched)
                ));
            }
            format!(
                "{prefix},ok,{},{:.6},{:.6},{:.6},{:.6},{},{},{sim}\n",
                m.makespan, m.speedup, m.sslr, m.slr, m.utilization, m.blocks, r.buffer_elements
            )
        }
        Err(e) => {
            let tail = if timing { ",NA,NA" } else { "" };
            format!(
                "{prefix},error:{},NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA{tail}\n",
                error_code(e)
            )
        }
    }
}

/// The JSON document prelude: opening brace, the `"spec"` member, and the
/// `"runs"` array opener. The header deliberately omits the `--sim`
/// choice: the simulators are equivalent, and results must not depend on
/// which one validated.
fn json_prelude(spec: &SweepSpec) -> String {
    let schedulers: Vec<String> = spec.schedulers.iter().map(|s| format!("\"{s}\"")).collect();
    format!(
        "{{\n  \"spec\": {{\"graphs\": {}, \"seed\": {}, \"validate\": {}, \
         \"schedulers\": [{}]}},\n  \"runs\": [\n",
        spec.graphs,
        spec.seed,
        spec.validate,
        schedulers.join(", ")
    )
}

/// One JSON run object line (with trailing newline, and a separating
/// comma unless `last`).
fn json_row(c: &Case, outcome: &Outcome, timing: bool, last: bool) -> String {
    let head = format!(
        "    {{\"workload\": {}, \"tasks\": {}, \"pes\": {}, \"seed\": {}, \
         \"scheduler\": \"{}\"",
        quote(&c.workload.label()),
        c.workload.task_count(),
        c.pes,
        c.seed,
        c.scheduler
    );
    let body = match outcome {
        Ok(r) => {
            let m = &r.metrics;
            let sim = match r.sim {
                Some(s) => {
                    let t = if timing {
                        let us = |v: Option<u64>| v.map_or("null".into(), |v: u64| v.to_string());
                        format!(
                            ", \"ref_us\": {}, \"batched_us\": {}",
                            us(s.micros.reference),
                            us(s.micros.batched)
                        )
                    } else {
                        String::new()
                    };
                    format!(
                        ", \"sim\": {{\"completed\": {}, \"makespan\": {}, \
                         \"rel_err_pct\": {:.6}, \"beats\": {}{t}}}",
                        s.completed, s.makespan, s.rel_err_pct, s.beats
                    )
                }
                None => String::new(),
            };
            format!(
                ", \"status\": \"ok\", \"makespan\": {}, \"speedup\": {:.6}, \
                 \"sslr\": {:.6}, \"slr\": {:.6}, \"utilization\": {:.6}, \
                 \"blocks\": {}, \"buffer_elements\": {}{sim}}}",
                m.makespan, m.speedup, m.sslr, m.slr, m.utilization, m.blocks, r.buffer_elements
            )
        }
        Err(e) => format!(", \"status\": {}}}", quote(&error_code(e))),
    };
    let comma = if last { "" } else { "," };
    format!("{head}{body}{comma}\n")
}

/// The JSON document epilogue closing the `"runs"` array and document.
const JSON_EPILOGUE: &str = "  ]\n}\n";

/// Keeps a free-form field (fixed-workload names) from corrupting CSV
/// rows: separators and newlines are replaced, matching the comma-free
/// guarantee [`error_code`] provides for the status column.
fn csv_field(s: &str) -> String {
    s.replace([',', '\n', '\r'], ";")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SweepSpec {
        let mut spec = SweepSpec::paper(2, 0xFAB_0001);
        spec.workloads.truncate(2);
        spec.validate = true;
        spec.threads = Some(2);
        spec
    }

    #[test]
    fn in_order_stream_matches_sweep_output() {
        let spec = spec();
        let sweep = spec.run();
        for (kind, expected) in [
            (OutputKind::Csv, sweep.to_csv()),
            (OutputKind::Json, sweep.to_json()),
        ] {
            let out = SharedBuf::default();
            let mut m = StreamMerger::new(spec.clone(), kind, out.clone()).unwrap();
            for run in &sweep.runs {
                assert!(m.push(run.case.index, run.outcome.clone()).unwrap());
            }
            assert!(m.done());
            assert_eq!(m.peak_buffered(), 1, "in-order arrivals never buffer");
            let report = m.finish().unwrap();
            assert_eq!(report.rows, sweep.runs.len());
            assert_eq!(out.take(), expected, "{kind:?}");
        }
    }

    #[test]
    fn shuffled_stream_is_byte_identical_and_duplicate_safe() {
        let spec = spec();
        let sweep = spec.run();
        for (kind, expected) in [
            (OutputKind::Csv, sweep.to_csv()),
            (OutputKind::Json, sweep.to_json()),
        ] {
            let out = SharedBuf::default();
            let mut m = StreamMerger::new(spec.clone(), kind, out.clone()).unwrap();
            // Reverse order maximizes buffering; every row duplicated.
            for run in sweep.runs.iter().rev() {
                assert!(m.push(run.case.index, run.outcome.clone()).unwrap());
                assert!(!m.push(run.case.index, run.outcome.clone()).unwrap());
            }
            // The final push (index 0) briefly buffers before draining,
            // so the high-water mark is the full row count.
            assert_eq!(m.peak_buffered(), sweep.runs.len());
            let report = m.finish().unwrap();
            assert_eq!(report.rows, sweep.runs.len());
            assert_eq!(report.tallies.errors, 0);
            assert_eq!(out.take(), expected, "{kind:?}");
        }
    }

    #[test]
    fn incomplete_merge_refuses_to_finish() {
        let spec = spec();
        let m = StreamMerger::new(spec, OutputKind::Csv, Vec::new()).unwrap();
        let err = m.finish().unwrap_err();
        assert!(err.contains("incomplete"), "{err}");
    }

    #[test]
    fn report_names_diverged_rows() {
        let spec = spec();
        let sweep = spec.run();
        let index = sweep.runs.len() / 2;
        let mut m = StreamMerger::new(spec, OutputKind::Csv, Vec::new()).unwrap();
        for run in &sweep.runs {
            let mut outcome = run.outcome.clone();
            if run.case.index == index {
                let sim = outcome.as_mut().unwrap().sim.as_mut().unwrap();
                sim.diverged = true;
            }
            m.push(run.case.index, outcome).unwrap();
        }
        let report = m.finish().unwrap();
        assert_eq!(report.tallies.divergences, 1);
        let case = &sweep.runs[index].case;
        let name = format!(
            "{} P={} seed={} {}",
            case.workload.label(),
            case.pes,
            case.seed,
            case.scheduler
        );
        assert_eq!(report.diverged, vec![(index, name)]);
    }

    #[test]
    fn out_of_range_rows_are_rejected() {
        let spec = spec();
        let sweep = spec.run();
        let total = sweep.runs.len();
        let mut m = StreamMerger::new(spec, OutputKind::Csv, Vec::new()).unwrap();
        let outcome = sweep.runs[0].outcome.clone();
        assert!(m.push(total, outcome).is_err());
    }

    /// A cloneable in-memory writer for asserting streamed bytes.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn take(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}
