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
//! A row pushed at the next emission index is written at once;
//! out-of-order arrivals wait in a compact buffer, each as its v3 record
//! ([`put_record`]), until the next emission index arrives. A fabric
//! coordinator that leases in grid order holds about the outstanding-lease
//! spread; one that leases whole graphs (`stg_fabric`) holds up to
//! (stripes − 1)/stripes of a workload's rows, where stripes = PE counts ×
//! schedulers, because each graph reports one row into every stripe of
//! the block. The merger also keeps the one failure tally ([`MergeTallies`])
//! behind every binary's exit code, and names the first rows on which the
//! simulators diverged ([`MergeReport::diverged`]).
//!
//! Rows render without `std` formatting and without a `String` per row:
//! each row is written into one reused byte buffer, the workload's label
//! and task count are rendered once per workload, integers are written
//! digit by digit, and the six-decimal float columns go through an exact
//! fixed-point renderer that writes the bytes `format!("{:.6}")` writes.

use std::collections::VecDeque;
use std::io::Write;
use std::ops::Range;

use stg_workloads::WorkloadFamily;

use crate::engine::{Record, Run, SimMicros, SweepSpec};
use crate::json::quote;
use crate::store::{error_code, put_record, take_record, Outcome};

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

/// The workload whose rows are being emitted: the case indices of its
/// block and the row parts every one of its rows shares, rendered once.
struct Block {
    /// Index of the workload in the spec.
    workload: usize,
    /// The case indices of the workload's block.
    range: Range<usize>,
    /// The label as the artifact writes it: CSV-safe, or a JSON string.
    label: String,
    /// Compute tasks per graph.
    tasks: usize,
}

impl Block {
    /// A block that holds no index, so the first row renders its own.
    fn none() -> Block {
        Block {
            workload: 0,
            range: 0..0,
            label: String::new(),
            tasks: 0,
        }
    }

    /// The block holding case `index` of `spec`.
    fn at(spec: &SweepSpec, kind: OutputKind, index: usize) -> Block {
        let (workload, (w, range)) = spec
            .blocks()
            .enumerate()
            .find(|(_, (_, range))| range.contains(&index))
            .expect("index in range");
        let label = w.workload.label();
        Block {
            workload,
            range,
            label: match kind {
                OutputKind::Csv => csv_field(&label),
                OutputKind::Json => quote(&label),
            },
            tasks: w.workload.task_count(),
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
    held: Held,
    merged: Vec<bool>,
    merged_count: usize,
    peak_buffered: usize,
    tallies: MergeTallies,
    diverged: Vec<(usize, String)>,
    /// The workload of the last emitted row.
    block: Block,
    /// Each scheduler's display name, in spec order.
    schedulers: Vec<String>,
    /// The row being rendered; one buffer serves every row.
    row: Vec<u8>,
}

impl<W: Write> StreamMerger<W> {
    /// Opens the merger over `out` and writes the artifact header. Rows
    /// are rendered from the grid coordinates of their index in `spec`,
    /// so it must be the spec that produced them.
    pub fn new(spec: SweepSpec, kind: OutputKind, mut out: W) -> std::io::Result<StreamMerger<W>> {
        let total = spec.total_cases();
        match kind {
            OutputKind::Csv => out.write_all(csv_header(spec.timing).as_bytes())?,
            OutputKind::Json => out.write_all(json_prelude(&spec).as_bytes())?,
        }
        Ok(StreamMerger {
            schedulers: spec.schedulers.iter().map(|s| s.to_string()).collect(),
            spec,
            kind,
            out,
            total,
            next_emit: 0,
            held: Held::default(),
            merged: vec![false; total],
            merged_count: 0,
            peak_buffered: 0,
            tallies: MergeTallies::default(),
            diverged: Vec::new(),
            block: Block::none(),
            row: Vec::with_capacity(256),
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

    /// High-water mark of rows held awaiting in-order emission, counting
    /// each arriving row until it is written — the bounded-memory tests
    /// assert this stays far below the grid size.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// Offers one row. Returns `Ok(true)` if it was new (merged), or
    /// `Ok(false)` if the index was already merged (a duplicate from a
    /// steal/re-queue overlap — harmless, outcomes are deterministic).
    /// Out-of-range indices are an error (a corrupt or foreign report),
    /// and so is a failed write. A row at the next emission index is
    /// written at once, followed by any buffered rows it unblocks.
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
        self.peak_buffered = self.peak_buffered.max(self.held.rows + 1);
        if index != self.next_emit {
            self.held
                .hold(index - self.next_emit, &outcome, self.spec.timing);
            return Ok(true);
        }
        let io = |e: std::io::Error| format!("merge output: {e}");
        self.held.skip();
        self.emit(&outcome).map_err(io)?;
        while let Some(outcome) = self.held.take_next() {
            self.emit(&outcome).map_err(io)?;
        }
        Ok(true)
    }

    /// Renders and writes the row at `next_emit`.
    fn emit(&mut self, outcome: &Outcome) -> std::io::Result<()> {
        let index = self.next_emit;
        if !self.block.range.contains(&index) {
            self.block = Block::at(&self.spec, self.kind, index);
        }
        let w = &self.spec.workloads[self.block.workload];
        let (pes, seed, scheduler) = self.spec.case_in_block(w, index - self.block.range.start);
        let scheduler = &self.schedulers[scheduler];
        let diverged = matches!(outcome, Ok(r) if r.sim.is_some_and(|s| s.diverged));
        if diverged && self.diverged.len() < NAMED_DIVERGED {
            let label = w.workload.label();
            let name = format!("{label} P={pes} seed={seed} {scheduler}");
            self.diverged.push((index, name));
        }
        let row = &mut self.row;
        row.clear();
        let coordinates = (self.block.tasks, pes, seed, scheduler.as_str());
        match self.kind {
            OutputKind::Csv => csv_row(
                row,
                &self.block.label,
                coordinates,
                outcome,
                self.spec.timing,
            ),
            OutputKind::Json => json_row(
                row,
                &self.block.label,
                coordinates,
                outcome,
                self.spec.timing,
                index + 1 == self.total,
            ),
        }
        self.out.write_all(row)?;
        self.next_emit += 1;
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

/// The rows a [`StreamMerger`] holds for in-order emission, each as its
/// v3 record ([`put_record`]) behind a length byte: about half the size
/// of an [`Outcome`], in one allocation for all of them.
#[derive(Default)]
struct Held {
    /// `slots[k]` locates the row at `next_emit + k`: its entry's offset
    /// in `bytes` plus one, or 0 while the row has not arrived.
    slots: VecDeque<usize>,
    /// Under `--sim-timing`, `micros[k]` holds the wall-clocks of the row
    /// at `next_emit + k`, which its record does not carry; else empty.
    micros: VecDeque<SimMicros>,
    /// The entries, in arrival order.
    bytes: Vec<u8>,
    /// Rows held.
    rows: usize,
    /// Bytes of `bytes` whose rows were emitted already.
    dead: usize,
}

impl Held {
    /// Holds `outcome` as the row `ahead` places past `next_emit`.
    fn hold(&mut self, ahead: usize, outcome: &Outcome, timing: bool) {
        if self.slots.len() <= ahead {
            self.slots.resize(ahead + 1, 0);
        }
        let at = self.bytes.len();
        self.slots[ahead] = at + 1;
        self.bytes.push(0);
        put_record(&mut self.bytes, outcome);
        self.bytes[at] = u8::try_from(self.bytes.len() - at - 1).expect("records are short");
        if let (true, Ok(Record { sim: Some(s), .. })) = (timing, outcome) {
            self.micros.resize(self.slots.len(), SimMicros::default());
            self.micros[ahead] = s.micros;
        }
        self.rows += 1;
    }

    /// Advances the slots past the row at `next_emit`, which was not held.
    fn skip(&mut self) {
        self.slots.pop_front();
        self.micros.pop_front();
    }

    /// Takes the row at `next_emit` and advances the slots past it, if
    /// the row is held.
    fn take_next(&mut self) -> Option<Outcome> {
        let at = self.slots.front().copied().filter(|&slot| slot > 0)? - 1;
        self.slots.pop_front();
        let micros = self.micros.pop_front();
        let end = at + 1 + usize::from(self.bytes[at]);
        let mut outcome =
            take_record(&self.bytes[at + 1..end]).expect("held records are well formed");
        if let (Some(micros), Ok(Record { sim: Some(s), .. })) = (micros, &mut outcome) {
            s.micros = micros;
        }
        self.rows -= 1;
        self.dead += end - at;
        if self.rows == 0 {
            self.bytes.clear();
            self.dead = 0;
        } else if self.dead > self.bytes.len() / 2 && self.bytes.len() > 1 << 16 {
            self.compact();
        }
        Some(outcome)
    }

    /// Drops the entries of emitted rows.
    fn compact(&mut self) {
        let mut bytes = Vec::with_capacity(2 * (self.bytes.len() - self.dead));
        for slot in self.slots.iter_mut().filter(|s| **s > 0) {
            let at = *slot - 1;
            *slot = bytes.len() + 1;
            bytes.extend_from_slice(&self.bytes[at..at + 1 + usize::from(self.bytes[at])]);
        }
        self.bytes = bytes;
        self.dead = 0;
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

/// A row's grid coordinates as the renderers take them: the task count,
/// PE count, seed and scheduler name.
type Coordinates<'a> = (usize, usize, u64, &'a str);

/// Appends one CSV row (with trailing newline); `label` is already
/// CSV-safe.
fn csv_row(
    out: &mut Vec<u8>,
    label: &str,
    (tasks, pes, seed, scheduler): Coordinates<'_>,
    outcome: &Outcome,
    timing: bool,
) {
    out.extend_from_slice(label.as_bytes());
    out.push(b',');
    push_u64(out, tasks as u64);
    out.push(b',');
    push_u64(out, pes as u64);
    out.push(b',');
    push_u64(out, seed);
    out.push(b',');
    out.extend_from_slice(scheduler.as_bytes());
    match outcome {
        Ok(r) => csv_record(out, r, timing),
        Err(e) => {
            out.extend_from_slice(b",error:");
            out.extend_from_slice(error_code(e).as_bytes());
            out.extend_from_slice(b",NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA");
            if timing {
                out.extend_from_slice(b",NA,NA");
            }
        }
    }
    out.push(b'\n');
}

/// Appends the columns of an `ok` row after its coordinates.
fn csv_record(out: &mut Vec<u8>, r: &Record, timing: bool) {
    let m = &r.metrics;
    out.extend_from_slice(b",ok,");
    push_u64(out, m.makespan);
    for v in [m.speedup, m.sslr, m.slr, m.utilization] {
        out.push(b',');
        push_fixed6(out, v);
    }
    out.push(b',');
    push_u64(out, m.blocks as u64);
    out.push(b',');
    push_u64(out, r.buffer_elements);
    out.push(b',');
    match r.sim {
        Some(s) => {
            push_u64(out, u64::from(s.completed));
            out.push(b',');
            push_u64(out, s.makespan);
            out.push(b',');
            push_fixed6(out, s.rel_err_pct);
            out.push(b',');
            push_u64(out, s.beats);
        }
        None => out.extend_from_slice(b"NA,NA,NA,NA"),
    }
    if timing {
        let micros = r.sim.map(|s| s.micros).unwrap_or_default();
        for us in [micros.reference, micros.batched] {
            out.push(b',');
            match us {
                Some(us) => push_u64(out, us),
                None => out.extend_from_slice(b"NA"),
            }
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

/// Appends one JSON run object line (with trailing newline, and a
/// separating comma unless `last`); `label` is already a JSON string.
fn json_row(
    out: &mut Vec<u8>,
    label: &str,
    (tasks, pes, seed, scheduler): Coordinates<'_>,
    outcome: &Outcome,
    timing: bool,
    last: bool,
) {
    out.extend_from_slice(b"    {\"workload\": ");
    out.extend_from_slice(label.as_bytes());
    out.extend_from_slice(b", \"tasks\": ");
    push_u64(out, tasks as u64);
    out.extend_from_slice(b", \"pes\": ");
    push_u64(out, pes as u64);
    out.extend_from_slice(b", \"seed\": ");
    push_u64(out, seed);
    out.extend_from_slice(b", \"scheduler\": \"");
    out.extend_from_slice(scheduler.as_bytes());
    out.push(b'"');
    match outcome {
        Ok(r) => json_record(out, r, timing),
        Err(e) => {
            out.extend_from_slice(b", \"status\": ");
            out.extend_from_slice(quote(&error_code(e)).as_bytes());
        }
    }
    out.extend_from_slice(if last { b"}\n" } else { b"},\n" });
}

/// Appends the members of an `ok` run object after its coordinates.
fn json_record(out: &mut Vec<u8>, r: &Record, timing: bool) {
    let m = &r.metrics;
    out.extend_from_slice(b", \"status\": \"ok\", \"makespan\": ");
    push_u64(out, m.makespan);
    for (name, v) in [
        (&b", \"speedup\": "[..], m.speedup),
        (b", \"sslr\": ", m.sslr),
        (b", \"slr\": ", m.slr),
        (b", \"utilization\": ", m.utilization),
    ] {
        out.extend_from_slice(name);
        push_fixed6(out, v);
    }
    out.extend_from_slice(b", \"blocks\": ");
    push_u64(out, m.blocks as u64);
    out.extend_from_slice(b", \"buffer_elements\": ");
    push_u64(out, r.buffer_elements);
    if let Some(s) = r.sim {
        out.extend_from_slice(b", \"sim\": {\"completed\": ");
        out.extend_from_slice(if s.completed { b"true" } else { b"false" });
        out.extend_from_slice(b", \"makespan\": ");
        push_u64(out, s.makespan);
        out.extend_from_slice(b", \"rel_err_pct\": ");
        push_fixed6(out, s.rel_err_pct);
        out.extend_from_slice(b", \"beats\": ");
        push_u64(out, s.beats);
        if timing {
            for (name, us) in [
                (&b", \"ref_us\": "[..], s.micros.reference),
                (b", \"batched_us\": ", s.micros.batched),
            ] {
                out.extend_from_slice(name);
                match us {
                    Some(us) => push_u64(out, us),
                    None => out.extend_from_slice(b"null"),
                }
            }
        }
        out.push(b'}');
    }
}

/// The JSON document epilogue closing the `"runs"` array and document.
const JSON_EPILOGUE: &str = "  ]\n}\n";

/// Keeps a free-form field (fixed-workload names) from corrupting CSV
/// rows: separators and newlines are replaced, matching the comma-free
/// guarantee [`error_code`] provides for the status column.
fn csv_field(s: &str) -> String {
    s.replace([',', '\n', '\r'], ";")
}

/// Appends `v` in decimal: the bytes `format!("{v}")` writes.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends `x` with six decimals: the bytes `format!("{x:.6}")` writes.
///
/// For finite `|x| < 1e12` the value is rendered exactly: `|x|` is
/// `mantissa / 2^shift`, so `|x| · 10^6` is `mantissa · 10^6` shifted
/// right, computed in `u128` and rounded half to even as `std` rounds —
/// `0.0078125` writes `0.007812`. The sign is kept, so `-0.0` and
/// negatives that round to zero write `-0.000000`. NaN, infinities and
/// larger magnitudes fall back to `std`.
fn push_fixed6(out: &mut Vec<u8>, x: f64) {
    const SCALE: u64 = 1_000_000;
    if x.is_nan() || x.abs() >= 1e12 {
        write!(out, "{x:.6}").expect("writes to a Vec cannot fail");
        return;
    }
    let bits = x.to_bits();
    let exponent = ((bits >> 52) & 0x7ff) as u32;
    let fraction = bits & ((1 << 52) - 1);
    // |x| = mantissa / 2^shift; below 1e12 (< 2^40) the shift is at
    // least 13, and a subnormal's is 1074.
    let (mantissa, shift) = match exponent {
        0 => (fraction, 1074),
        e => (fraction | 1 << 52, 1075 - e),
    };
    let scaled = u128::from(mantissa) * u128::from(SCALE);
    let n = if shift >= 128 {
        // scaled < 2^73, so the quotient is 0 and the rest below a half.
        0
    } else {
        let (q, rest) = (scaled >> shift, scaled & ((1 << shift) - 1));
        let half = 1 << (shift - 1);
        let up = rest > half || (rest == half && q & 1 == 1);
        (q + u128::from(up)) as u64
    };
    if bits >> 63 == 1 {
        out.push(b'-');
    }
    push_u64(out, n / SCALE);
    let mut decimals = *b".000000";
    let mut f = n % SCALE;
    for d in decimals[1..].iter_mut().rev() {
        *d = b'0' + (f % 10) as u8;
        f /= 10;
    }
    out.extend_from_slice(&decimals);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphOrder;

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

    /// Held rows keep every byte, the `--sim-timing` wall-clocks their
    /// records do not carry included.
    #[test]
    fn held_rows_keep_their_wall_clocks() {
        let mut spec = spec();
        spec.timing = true;
        let sweep = spec.run();
        assert!(sweep.runs.iter().any(|r| r
            .record()
            .and_then(|r| r.sim)
            .is_some_and(|s| s.micros != SimMicros::default())));
        let mut out = Vec::new();
        let mut m = StreamMerger::new(spec, OutputKind::Csv, &mut out).unwrap();
        for run in sweep.runs.iter().rev() {
            m.push(run.case.index, run.outcome.clone()).unwrap();
        }
        m.finish().unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), sweep.to_csv());
    }

    /// Graph-order arrivals hold (stripes − 1)/stripes of a block's rows,
    /// in records of several lengths, and the buffer compacts the
    /// entries of emitted rows while others are still held.
    #[test]
    fn graph_order_arrivals_compact_and_stay_byte_identical() {
        use stg_analysis::ScheduleError;
        let mut spec = spec();
        spec.workloads.truncate(1);
        spec.workloads[0].pes.truncate(1);
        spec.validate = false;
        spec.graphs = 8_000;
        let total = spec.total_cases();
        let stripes = spec.schedulers.len();
        assert_eq!(total, 3 * 8_000);
        let ok = spec.run_cases(spec.cases_slice(0..1), None).runs[0]
            .outcome
            .clone();
        let outcome = |i: usize| match i % 7 {
            0 => Err(ScheduleError::EmptyBlock(i)),
            _ => ok.clone(),
        };
        let render = |order: &mut dyn Iterator<Item = usize>| {
            let mut out = Vec::new();
            let mut m = StreamMerger::new(spec.clone(), OutputKind::Csv, &mut out).unwrap();
            for i in order {
                assert!(m.push(i, outcome(i)).unwrap());
            }
            let report = m.finish().unwrap();
            (out, report.peak_buffered)
        };
        let (want, _) = render(&mut (0..total));
        // Emit every other graph's rows first: the graph-major walk of
        // the even seeds, then of the odd ones.
        let order = GraphOrder::of(&spec);
        let graphs = |parity| {
            (0..total)
                .filter(move |p| p / stripes % 2 == parity)
                .map(|p| order.index(p))
        };
        let (got, peak) = render(&mut graphs(0).chain(graphs(1)));
        assert_eq!(got, want);
        assert!(peak > total / 2, "{peak}");
        let (got, peak) = render(&mut (0..total).map(|p| order.index(p)));
        assert_eq!(got, want);
        // Stripe 0 emits as it arrives; the other stripes wait for the
        // last graph's stripe-0 row.
        let runs = total / stripes;
        assert_eq!(peak, (stripes - 1) * (runs - 1) + 1);
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

    /// Scheduling-error rows keep their bytes: no registered preset fails
    /// on a sweep grid, so the engine tests never render one.
    #[test]
    fn error_rows_render_their_status_and_na_columns() {
        use stg_analysis::ScheduleError;
        let mut spec = SweepSpec::paper(2, 5);
        spec.workloads.truncate(1);
        spec.workloads[0].pes = vec![2];
        spec.schedulers.truncate(1);
        let render = |kind, timing| {
            let mut spec = spec.clone();
            spec.timing = timing;
            let mut out = Vec::new();
            let mut m = StreamMerger::new(spec, kind, &mut out).unwrap();
            m.push(0, Err(ScheduleError::Cyclic)).unwrap();
            m.push(1, Err(ScheduleError::EmptyBlock(3))).unwrap();
            assert_eq!(m.finish().unwrap().tallies.errors, 2);
            String::from_utf8(out).unwrap()
        };
        let csv = render(OutputKind::Csv, false);
        assert_eq!(
            csv.lines().skip(1).collect::<Vec<_>>(),
            [
                "chain:8,8,2,5,STR-SCH-1,error:cyclic,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA",
                "chain:8,8,2,6,STR-SCH-1,error:empty-block(3),NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA",
            ]
        );
        let timed = render(OutputKind::Csv, true);
        assert!(
            timed.ends_with(",NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA\n"),
            "{timed}"
        );
        let json = render(OutputKind::Json, false);
        let runs = "    {\"workload\": \"chain:8\", \"tasks\": 8, \"pes\": 2, \"seed\": 5, \
             \"scheduler\": \"STR-SCH-1\", \"status\": \"cyclic\"},\n    \
             {\"workload\": \"chain:8\", \"tasks\": 8, \"pes\": 2, \"seed\": 6, \
             \"scheduler\": \"STR-SCH-1\", \"status\": \"empty-block(3)\"}\n  ]\n}\n";
        assert!(json.ends_with(runs), "{json}");
    }

    /// Checks [`push_fixed6`] against `format!("{x:.6}")` on `x`.
    fn check_fixed6(out: &mut Vec<u8>, x: f64) {
        out.clear();
        push_fixed6(out, x);
        let want = format!("{x:.6}");
        assert_eq!(out, want.as_bytes(), "{x:e} ({:#018x})", x.to_bits());
    }

    /// The fixed-point renderer writes `std`'s bytes on over ten million
    /// values: the special values and the bounds of the exact path, every
    /// exact tie k/128 (the only binary values halfway between two
    /// six-decimal numbers) and the decimal boundaries k·10⁻⁶ and
    /// (k + ½)·10⁻⁶ below k = 10⁶, and random bit patterns and random
    /// magnitudes. Two threads split the work.
    #[test]
    fn fixed6_matches_std_formatting() {
        let mut out = Vec::with_capacity(400);
        let specials = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            1e12,
            -1e12,
            1e12 - 1e-3,
            f64::from_bits(1e12f64.to_bits() - 1),
            0.0078125,
            -0.0078125,
            0.5e-6,
            -0.5e-6,
            1.5e-6,
            0.999_999_5,
            9.999_999_5,
            1e-7,
            -1e-9,
        ];
        for x in specials {
            check_fixed6(&mut out, x);
        }
        std::thread::scope(|s| {
            for (half, seed) in [(0, 0x9e37_79b9_7f4a_7c15u64), (1, 0xd1b5_4a32_d192_ed03)] {
                s.spawn(move || {
                    let mut out = Vec::with_capacity(400);
                    for k in (half..1_000_000u32).step_by(2) {
                        let k = f64::from(k);
                        for x in [k / 128.0, k * 1e-6, (k + 0.5) * 1e-6] {
                            check_fixed6(&mut out, x);
                            check_fixed6(&mut out, -x);
                        }
                    }
                    let mut state = seed;
                    let mut next = move || {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state
                    };
                    for i in 0..2_000_000 {
                        // One in four draws is any bit pattern, mostly a
                        // huge or tiny magnitude (the huge ones take `std`
                        // hundreds of digits). The rest are a random
                        // mantissa at a random magnitude around the exact
                        // path's range, 1e-9 to 1e13.
                        let x = match i % 4 {
                            0 => f64::from_bits(next()),
                            _ => {
                                let mantissa = next() >> 12;
                                let exponent = 1023 - 30 + next() % 74;
                                f64::from_bits(exponent << 52 | mantissa)
                            }
                        };
                        check_fixed6(&mut out, x);
                    }
                });
            }
        });
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
