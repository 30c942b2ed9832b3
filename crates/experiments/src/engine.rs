//! The parallel scenario-sweep engine, as a staged evaluation pipeline.
//!
//! The paper's evaluation — and any production deployment serving many
//! configurations — is a grid of `(workload × seed × PE count ×
//! scheduler)` scenarios. This module turns that grid into data through
//! four explicit stages:
//!
//! 1. **expand** — a declarative [`SweepSpec`] expands into the
//!    deterministic, ordered list of [`Case`]s ([`SweepSpec::cases`]);
//! 2. **key** — every case gets a content-addressed
//!    [`CellKey`] ([`SweepSpec::run_cases`]);
//! 3. **lookup / evaluate / persist** — cells found in an optional
//!    [`ResultStore`] are reused; the rest are evaluated on scoped
//!    threads in one job per graph instance, whose cells share that
//!    graph's [`GraphFacts`] and every simulation with identical inputs
//!    (a job of one cell shares through the store's simulation memo,
//!    across passes), and each distinct graph structure at most once:
//!    through the store's single-flight evaluation when there is a
//!    store, else through a [`SemanticTable`] that lives for the call
//!    (or, in a fabric worker, for the worker's lifetime). Only a store
//!    persists them;
//! 4. **merge** — outcomes are assembled back into index order into a
//!    [`Sweep`], whose [`Sweep::emit`] pushes them through the one
//!    [`StreamMerger`]: byte-stable CSV/JSON regardless of which cells
//!    came from the cache, which were computed, and in what order.
//!
//! The same pipeline powers **sharded** execution: [`SweepSpec::run_shard`]
//! evaluates one contiguous index-range slice of the grid and emits a
//! self-describing binary shard artifact
//! ([`ShardResult::artifact_bytes`]); [`SweepSpec::merge_shard_bytes`]
//! validates a full set of artifacts and streams their rows through a
//! [`StreamMerger`] too, so its output is byte-identical to an unsharded
//! run without ever holding a [`Sweep`].
//!
//! Determinism contract: with an identical spec (including seed), the
//! emitted CSV and JSON are byte-identical across runs, across worker
//! thread counts, across cold/warm result caches, and across
//! sharded/unsharded execution. Wall-clock timings are deliberately
//! excluded from records; binaries that measure time (Figure 12) do so
//! through [`SweepSpec::run_map`] and keep timings out of the
//! deterministic output path.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::io::Write;
use std::ops::Range;
use std::str::FromStr;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use stg_analysis::GraphFacts;
use stg_core::{Plan, Scheduler, SchedulerKind};
use stg_des::{relative_error, take_leap_telemetry, LeapStats, SimKind, SimResult};
use stg_model::CanonicalGraph;
use stg_sched::Metrics;
use stg_workloads::{paper_suite, CacheStats, WorkloadFamily, WorkloadKind};

use crate::emit::{MergeReport, MergeTallies, OutputKind, StreamMerger};
use crate::harness::{default_threads, par_groups_with, par_map_with, Args};
use crate::json::{self, Json};
use crate::metrics::LeapCounters;
use crate::sim_memo::{SimMemo, Simulated};
use crate::store::{
    fnv1a_fold, CellKey, KeyEncoder, Outcome, ResultStore, SemanticKey, SemanticTable, StoreStats,
    FNV_BASIS, SCHEMA_VERSION,
};

/// The error text of a PE count that is not a positive integer.
const PES_POSITIVE: &str = "\"pes\" entries must be positive integers";

/// Which validation simulator(s) a sweep runs when `validate` is set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SimChoice {
    /// The per-beat reference simulator.
    #[default]
    Reference,
    /// The beat-batched fast path (bit-identical, much faster).
    Batched,
    /// The differential harness: every cell runs *both* simulators,
    /// records both wall-clocks, and flags any divergence (the `sweep`
    /// binary exits non-zero on one).
    Both,
}

impl SimChoice {
    /// The simulators this choice runs, in run order. The reference runs
    /// first in `Both` mode so its result is the one recorded.
    pub fn kinds(&self) -> &'static [SimKind] {
        match self {
            SimChoice::Reference => &[SimKind::Reference],
            SimChoice::Batched => &[SimKind::Batched],
            SimChoice::Both => &[SimKind::Reference, SimKind::Batched],
        }
    }

    /// The choice's `--sim` name, as [`Display`](std::fmt::Display)
    /// writes it.
    pub fn name(&self) -> &'static str {
        match self {
            SimChoice::Reference => "reference",
            SimChoice::Batched => "batched",
            SimChoice::Both => "both",
        }
    }
}

impl std::fmt::Display for SimChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SimChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("both") {
            return Ok(SimChoice::Both);
        }
        match s.parse::<SimKind>() {
            Ok(SimKind::Reference) => Ok(SimChoice::Reference),
            Ok(SimKind::Batched) => Ok(SimChoice::Batched),
            Err(_) => Err(format!(
                "unknown simulator choice {s:?}; known: reference, batched, both"
            )),
        }
    }
}

/// A spec's validation mode as it crosses the wire, the `"sim"` member of
/// the spec encoding and of service plan requests: `"off"` (no
/// simulation) or a simulator choice (`"reference"`, `"batched"`,
/// `"both"`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimMode {
    /// No validation simulation.
    #[default]
    Off,
    /// Validate with the given simulator choice.
    Validate(SimChoice),
}

impl SimMode {
    /// True when the mode asks for validation.
    pub fn validates(&self) -> bool {
        matches!(self, SimMode::Validate(_))
    }

    /// The engine simulator choice (the default choice when off — the
    /// engine ignores it unless `validate` is set).
    pub fn choice(&self) -> SimChoice {
        match self {
            SimMode::Off => SimChoice::default(),
            SimMode::Validate(c) => *c,
        }
    }
}

impl std::fmt::Display for SimMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimMode::Off => f.write_str("off"),
            SimMode::Validate(c) => write!(f, "{c}"),
        }
    }
}

impl FromStr for SimMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("off") {
            return Ok(SimMode::Off);
        }
        s.parse().map(SimMode::Validate)
    }
}

/// One workload and the PE counts to sweep it over.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// The graph source (any registered [`WorkloadKind`], or a fixed
    /// graph via [`WorkloadKind::fixed`]).
    pub workload: WorkloadKind,
    /// Machine sizes to evaluate.
    pub pes: Vec<usize>,
}

/// A declarative sweep: workloads × PE counts × seeds × schedulers.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Workloads with their PE sweeps.
    pub workloads: Vec<WorkloadSpec>,
    /// Graphs per (workload, PE, scheduler) cell; synthetic workloads use
    /// seeds `seed..seed+graphs`.
    pub graphs: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Scheduler presets to run.
    pub schedulers: Vec<SchedulerKind>,
    /// Also validate every plan by discrete event simulation.
    pub validate: bool,
    /// Which simulator(s) validation runs (`--sim`). Every choice yields
    /// identical deterministic output columns; only wall-clock differs.
    pub sim: SimChoice,
    /// Emit validation wall-clock columns in CSV/JSON (`--sim-timing`).
    /// Off by default: timings are non-deterministic and excluded from
    /// the byte-stability contract.
    pub timing: bool,
    /// Worker threads (`None`: available parallelism). Affects wall-clock
    /// only, never results.
    pub threads: Option<usize>,
}

impl SweepSpec {
    /// The paper's synthetic evaluation grid (Figures 10–11): the four
    /// topologies at their paper sizes and PE sweeps, with both streaming
    /// heuristics and the buffered baseline.
    pub fn paper(graphs: u64, seed: u64) -> SweepSpec {
        SweepSpec {
            workloads: paper_suite()
                .into_iter()
                .map(|(topo, pes)| WorkloadSpec {
                    workload: WorkloadKind::Synthetic(topo),
                    pes,
                })
                .collect(),
            graphs,
            seed,
            schedulers: vec![
                SchedulerKind::StreamingLts,
                SchedulerKind::StreamingRlx,
                SchedulerKind::NonStreaming,
            ],
            validate: false,
            sim: SimChoice::default(),
            timing: false,
            threads: None,
        }
    }

    /// Applies the command-line filters and overrides of `args`:
    /// `--workload` / `--pes` prune the grid (matching by family
    /// keyword), `--scheduler` replaces the scheduler set, and
    /// `--graphs`, `--seed`, `--validate`, `--sim`, `--sim-timing`,
    /// `--threads` override their fields.
    pub fn filtered(mut self, args: &Args) -> SweepSpec {
        self.graphs = args.graphs;
        self.seed = args.seed;
        self.validate = self.validate || args.validate;
        self.sim = args.sim;
        self.timing = self.timing || args.sim_timing;
        self.threads = args.threads.or(self.threads);
        if !args.schedulers.is_empty() {
            self.schedulers = args.schedulers.clone();
        }
        self.filter_grid(args)
    }

    /// Applies only the grid-pruning half of [`Self::filtered`]:
    /// `--workload` and `--pes`. Scheduler set, graphs, and seed are
    /// untouched — for binaries that pin those (the ablations, Table 2,
    /// Figure 12).
    pub fn filter_grid(mut self, args: &Args) -> SweepSpec {
        self.workloads
            .retain(|w| args.workload_selected(&w.workload));
        for w in &mut self.workloads {
            w.pes.retain(|&p| args.pes_selected(p));
        }
        self.workloads.retain(|w| !w.pes.is_empty());
        self
    }

    /// Appends a [`WorkloadSpec`] (at its registry-default PE sweep) for
    /// every `--workload` filter entry whose family is not already in
    /// the grid — so frontends seeded with the paper suite can sweep any
    /// registered family (`sweep --workload stencil2d:32x32`) without
    /// changing their default grid.
    pub fn extend_from_filter(mut self, args: &Args) -> SweepSpec {
        for kind in &args.workloads {
            let family = kind.family();
            if !self.workloads.iter().any(|w| w.workload.family() == family) {
                self.workloads.push(WorkloadSpec {
                    pes: kind.default_pes(),
                    workload: kind.clone(),
                });
            }
        }
        self
    }

    /// Seeds evaluated per (workload, PE, scheduler) cell: `graphs` for
    /// seeded workloads, at most one for fixed graphs — scheduling is a
    /// pure function of the graph, so extra seeds would only duplicate
    /// rows (and schedule the same multi-thousand-task ML graph
    /// `graphs` times over).
    pub fn runs_per_cell(&self, workload: &WorkloadKind) -> u64 {
        if workload.seeded() {
            self.graphs
        } else {
            self.graphs.min(1)
        }
    }

    /// Checks that the seeds `seed..seed + graphs` all fit in `u64`. Every
    /// outside input runs it before anything expands a grid: the command
    /// line ([`Args::parse_from`]) and the one spec validation behind
    /// [`Self::encode_spec`] and [`Self::decode_spec`] (shard artifacts,
    /// fabric handshakes and service sweep requests). `Err` names the
    /// overflowing range.
    pub fn check_seed_range(seed: u64, graphs: u64) -> Result<(), String> {
        match seed.checked_add(graphs.saturating_sub(1)) {
            Some(_) => Ok(()),
            None => Err(format!("seeds {seed}.. for {graphs} graphs overflow u64")),
        }
    }

    /// Expands the grid into cases, in the deterministic order the
    /// engine evaluates and emits them: workload → PE count → scheduler
    /// → seed (so each consecutive run of [`Self::runs_per_cell`] cases
    /// is one aggregation cell).
    pub fn cases(&self) -> Vec<Case> {
        let mut cases = Vec::with_capacity(self.total_cases());
        for w in &self.workloads {
            for &pes in &w.pes {
                for &scheduler in &self.schedulers {
                    for i in 0..self.runs_per_cell(&w.workload) {
                        cases.push(Case {
                            index: cases.len(),
                            workload: w.workload.clone(),
                            pes,
                            seed: self.seed + i,
                            scheduler,
                        });
                    }
                }
            }
        }
        cases
    }

    /// Case count of the full expanded grid, computed arithmetically —
    /// no per-case allocation, so coordinators sizing lease queues over
    /// million-cell grids stay O(workloads). Saturates at `usize::MAX`
    /// instead of wrapping, so no spec, however large, counts as a small
    /// grid.
    pub fn total_cases(&self) -> usize {
        self.workloads
            .iter()
            .map(|w| {
                let runs = usize::try_from(self.runs_per_cell(&w.workload)).unwrap_or(usize::MAX);
                w.pes
                    .len()
                    .saturating_mul(self.schedulers.len())
                    .saturating_mul(runs)
            })
            .fold(0, usize::saturating_add)
    }

    /// Materializes only the cases of one contiguous index range of the
    /// grid — identical (index for index) to `self.cases()[range]`, but
    /// O(range length + workloads) instead of O(grid). Shards and
    /// grid-order fabric leases expand their slices with it;
    /// [`Self::graph_cases`] is its twin for graph-order leases.
    pub fn cases_slice(&self, range: Range<usize>) -> Vec<Case> {
        let mut out = Vec::with_capacity(range.len());
        for (w, block) in self.blocks() {
            for index in range.start.max(block.start)..range.end.min(block.end) {
                out.push(self.case_at(w, block.start, index));
            }
        }
        out
    }

    /// The case at grid index `index` of workload `w`, whose block starts
    /// at index `block_start`.
    pub(crate) fn case_at(&self, w: &WorkloadSpec, block_start: usize, index: usize) -> Case {
        let (pes, seed, scheduler) = self.case_in_block(w, index - block_start);
        Case {
            index,
            workload: w.workload.clone(),
            pes,
            seed,
            scheduler: self.schedulers[scheduler],
        }
    }

    /// Each workload with the contiguous range of case indices its cases
    /// occupy, in grid order.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = (&WorkloadSpec, Range<usize>)> {
        let mut base = 0usize;
        self.workloads.iter().map(move |w| {
            let rpc = self.runs_per_cell(&w.workload) as usize;
            let start = base;
            base += w.pes.len() * self.schedulers.len() * rpc;
            (w, start..base)
        })
    }

    /// The PE count, seed and scheduler (an index into `schedulers`) of
    /// the `rel`-th case of workload `w`'s block: the grid order within a
    /// block is PE count → scheduler → seed.
    pub(crate) fn case_in_block(&self, w: &WorkloadSpec, rel: usize) -> (usize, u64, usize) {
        let rpc = self.runs_per_cell(&w.workload) as usize;
        let schedulers = self.schedulers.len();
        (
            w.pes[rel / (schedulers * rpc)],
            self.seed + (rel % rpc) as u64,
            (rel / rpc) % schedulers,
        )
    }

    /// Evaluates an arbitrary function over every case in parallel,
    /// returning `(case, result)` pairs in case order. This is the
    /// escape hatch for binaries that need more than a [`Record`]
    /// (timing, CSDF analysis, ...); the iteration itself stays in the
    /// engine. Graphs come from the process-wide memoization cache, so
    /// each `(spec, seed)` builds at most once across the grid.
    pub fn run_map<T: Send>(
        &self,
        f: impl Fn(&Case, &CanonicalGraph) -> T + Sync,
    ) -> Vec<(Case, T)> {
        let cases = self.cases();
        let threads = self
            .threads
            .unwrap_or_else(|| default_threads(cases.len() as u64));
        let out = par_map_with(cases.len() as u64, threads, |i| {
            let case = &cases[i as usize];
            f(case, &case.graph())
        });
        cases.into_iter().zip(out).collect()
    }

    /// Runs the full sweep: every case through its scheduler (plus the
    /// simulator when `validate` is set), each distinct graph structure
    /// once, in parallel, with deterministic, index-ordered results.
    /// Equivalent to [`Self::run_with`] without a result store.
    pub fn run(&self) -> Sweep {
        self.run_with(None)
    }

    /// The simulation-mode component of this spec's cell keys: `off` when
    /// validation is disabled, else the `--sim` choice (so toggling
    /// validation or switching the differential mode never reuses a stale
    /// cell).
    pub fn sim_mode(&self) -> String {
        if self.validate {
            self.sim.to_string()
        } else {
            "off".to_string()
        }
    }

    /// True when `case` may be served from / persisted to a result store.
    /// Fixed workloads are excluded (their spec string names an arbitrary
    /// caller-supplied graph, so it is not content-addressing), and
    /// timing captures are excluded (cached cells cannot report fresh
    /// wall-clocks).
    fn cacheable(&self, case: &Case) -> bool {
        !self.timing && !matches!(case.workload, WorkloadKind::Fixed(_))
    }

    /// A stable fingerprint of the whole expanded grid: the FNV-1a hash
    /// over every cell's canonical key, each followed by `\n`, in case
    /// order. Shard artifacts embed it so [`Self::merge_shard_bytes`]
    /// rejects artifacts produced by different specs (or engine schema
    /// versions).
    pub fn grid_fingerprint(&self) -> u64 {
        // Streamed through the key encoder: the coordinator fingerprints
        // million-cell grids without rendering a key per cell.
        let sim_mode = self.sim_mode();
        let mut encoder = KeyEncoder::new();
        let mut h = FNV_BASIS;
        for w in &self.workloads {
            encoder.nominal(SCHEMA_VERSION, &w.workload.spec());
            for &pes in &w.pes {
                for &scheduler in &self.schedulers {
                    encoder.stripe(pes, scheduler.alias(), &sim_mode);
                    for i in 0..self.runs_per_cell(&w.workload) {
                        h = fnv1a_fold(encoder.fold(h, self.seed + i), b"\n");
                    }
                }
            }
        }
        h
    }

    /// Stage key: the nominal [`CellKey`] of every cacheable case
    /// (`None` for the rest). The grid is workload-major, so each
    /// workload's spec is rendered once per run of its cases and each
    /// stripe's tail once per run of its seeds.
    fn nominal_keys(&self, cases: &[Case]) -> Vec<Option<CellKey>> {
        let sim_mode = self.sim_mode();
        let mut encoder = KeyEncoder::new();
        let mut at: Option<(&WorkloadKind, usize, SchedulerKind)> = None;
        let mut keys = Vec::with_capacity(cases.len());
        for c in cases {
            if !self.cacheable(c) {
                keys.push(None);
                continue;
            }
            if at.is_none_or(|(w, ..)| w != &c.workload) {
                encoder.nominal(SCHEMA_VERSION, &c.workload.spec());
                at = None;
            }
            if at != Some((&c.workload, c.pes, c.scheduler)) {
                encoder.stripe(c.pes, c.scheduler.alias(), &sim_mode);
                at = Some((&c.workload, c.pes, c.scheduler));
            }
            keys.push(Some(encoder.key(c.seed)));
        }
        keys
    }

    /// [`Self::run`] through an optional result store: cells present in
    /// the store are reused without instantiating their graph or
    /// scheduler; the rest are evaluated in parallel and persisted back.
    /// Output is byte-identical to a storeless run; the store traffic is
    /// reported in [`Sweep::cell_cache`].
    pub fn run_with(&self, store: Option<&ResultStore>) -> Sweep {
        let result = self.run_cases(self.cases(), store);
        Sweep {
            spec: self.clone(),
            runs: result.runs,
            cache: result.cache,
            cell_cache: result.cell_cache,
            leap: result.leap,
        }
    }

    /// Evaluates one shard — the `shard.index`-th of `shard.of` contiguous
    /// index-range slices of the case grid — and returns its outcomes
    /// for artifact emission. An optional result store accelerates the
    /// slice exactly as in [`Self::run_with`].
    pub fn run_shard(&self, shard: Shard, store: Option<&ResultStore>) -> ShardResult {
        let total = self.total_cases();
        let range = shard.slice(total);
        let result = self.run_cases(self.cases_slice(range.clone()), store);
        ShardResult {
            spec: self.clone(),
            shard,
            range,
            total,
            runs: result.runs,
            cache: result.cache,
            cell_cache: result.cell_cache,
            leap: result.leap,
        }
    }

    /// Stages 3–4 of the pipeline over an arbitrary case list (the full
    /// grid or one shard slice): [`Self::run_cases_on`] through the
    /// caller's store, or, without one, through a [`SemanticTable`] that
    /// lives for this call — so every pass evaluates each distinct
    /// (structure, PEs, scheduler, sim mode) once. A whole pass ends with
    /// its entries on disk: this call commits the store before it
    /// returns.
    pub fn run_cases(&self, cases: Vec<Case>, store: Option<&ResultStore>) -> CasesResult {
        match store {
            Some(store) => {
                let result = self.run_cases_on(cases, SingleFlight::Store(store));
                store.flush();
                result
            }
            None => {
                let keys = cases.iter().filter(|c| self.cacheable(c)).count();
                let table = SemanticTable::with_capacity(keys);
                self.run_cases_on(cases, SingleFlight::Table(&table))
            }
        }
    }

    /// [`Self::run_cases`] through a caller-chosen single-flight table:
    /// with a store, look every cacheable case up, evaluate the misses in
    /// parallel — each semantic key at most once, shared with concurrent
    /// callers of the same store — queue them for disk, and merge the
    /// outcomes back into the input order. With a [`SemanticTable`],
    /// every cacheable case evaluates through the table, and nothing is
    /// looked up or persisted. Fabric workers call this once per chunk of
    /// whole graphs ([`Self::graph_cases`]), every chunk of a worker
    /// sharing one store or table; the service calls it once per request.
    ///
    /// The store's owner decides when queued entries are committed: this
    /// call writes a segment only when
    /// [`FLUSH_THRESHOLD`](crate::store::FLUSH_THRESHOLD) entries are
    /// queued, and never calls [`ResultStore::flush`]. An entry that is
    /// lost before its commit is a later miss, never a wrong answer.
    pub fn run_cases_on(&self, cases: Vec<Case>, flight: SingleFlight<'_>) -> CasesResult {
        let validate = self.validate;
        let sim = self.sim;
        let store = match flight {
            SingleFlight::Store(store) => Some(store),
            SingleFlight::Table(_) => None,
        };
        // Stage key + prefetch, store only: expand every cacheable case
        // into its cell key and look the whole batch up in one parallel
        // pass (per-cell disk reads on a warm directory dominate
        // otherwise).
        let mut keys = match store {
            Some(_) => self.nominal_keys(&cases),
            None => vec![None; cases.len()],
        };
        let mut slots: Vec<Option<Outcome>> = match store {
            Some(store) => {
                let threads = self
                    .threads
                    .unwrap_or_else(|| default_threads(keys.len() as u64));
                store.lookup_many(&keys, threads)
            }
            None => vec![None; cases.len()],
        };
        // This call's own store traffic: the store's counters are shared
        // by every concurrent caller, so they cannot tell it apart.
        let keyed = keys.iter().filter(|k| k.is_some()).count() as u64;
        let hits = slots.iter().filter(|o| o.is_some()).count() as u64;
        let mut cell_cache = StoreStats {
            hits,
            misses: keyed - hits,
            ..StoreStats::default()
        };
        // A hit's key is spent: from here on `keys` holds the keys of the
        // cells left to persist.
        for (key, slot) in keys.iter_mut().zip(&slots) {
            if slot.is_some() {
                *key = None;
            }
        }
        // Stage evaluate, graph-major: only the missing cells touch a
        // graph or scheduler (so a fully warm rerun does no instantiation
        // at all), and they run as one job per graph instance, on one
        // thread. A job instantiates its graph once and hands every cell
        // the same `GraphFacts`, so the graph-only analyses (depths,
        // precedence, levels, list priority) run once per graph, on first
        // use. Cells whose plans give the simulator identical inputs share
        // one simulation (`SharedSims`); each still computes its own
        // partition, schedule, buffers and `rel_err_pct`. A one-cell job
        // (every service plan request) has no cell to share with: through
        // a store, it looks its plan up in the store's simulation memo
        // instead and offers the simulation it runs, sharing it with later
        // passes through the store. Jobs of several cells leave the memo
        // alone, so a one-pass sweep keeps nothing extra. `--sim-timing`
        // passes share no simulation: every cell reports its own clocks.
        //
        // Every cacheable miss evaluates through its *semantic* key, built
        // from the graph's structural fingerprint (see `SemanticKey`): the
        // single-flight table evaluates each semantic key at most once,
        // and every other miss on it — a spec delta that left the graph
        // unchanged, a repeated structure elsewhere in this batch or
        // lease, or a concurrent caller's cell — takes that outcome,
        // counted as repaired. Schedulers are name-blind and
        // deterministic, so a repaired outcome is byte-identical to
        // evaluating.
        let mut todo: Vec<usize> = (0..cases.len()).filter(|&i| slots[i].is_none()).collect();
        let jobs = graph_major(&cases, &mut todo);
        let share_sims = validate && !self.timing;
        // Which job of two with one structure evaluates its keys is a
        // race; the other takes them as repaired, and shares no
        // simulation with them. So that the simulations a pass runs do not
        // depend on the thread count, a later job of a structure waits
        // until the first has evaluated all of its cells. Single-cell jobs
        // share nothing, so a pass of only those (as many jobs as cells)
        // skips the wait.
        let wait_for_structures = share_sims && todo.len() > jobs.len();
        let structures: Mutex<HashMap<u64, Arc<OnceLock<()>>>> = Mutex::default();
        let leap = LeapCounters::default();
        let threads = self
            .threads
            .unwrap_or_else(|| default_threads(jobs.len() as u64));
        let evaluated = par_groups_with(&jobs, threads, |range, out| {
            // Leap telemetry is thread-local and reset-on-take: drop what
            // earlier work left on this thread, and collect the job's own
            // delta when it ends.
            take_leap_telemetry();
            let cells = &todo[range];
            let first = &cases[cells[0]];
            // A job of several cells is its graph's one user in this pass
            // and builds it for itself, dropped when the job ends; a
            // one-cell job (a service plan request) shares graphs with
            // later passes through the process-wide memo cache, and so do
            // unseeded graphs, which are built once per process.
            let (g, hit) = if cells.len() > 1 && first.workload.seeded() {
                // Compacted as the memo cache compacts what it keeps: the
                // job's cells traverse the graph many times over.
                let mut g = first.workload.build(first.seed);
                g.dag_mut().compact();
                (Arc::new(g), false)
            } else {
                first.workload.instantiate_traced(first.seed)
            };
            let facts = GraphFacts::new(&g);
            let fingerprint = OnceCell::new();
            let fingerprint = || *fingerprint.get_or_init(|| g.fingerprint());
            // A job of several cells shares simulations among them; a
            // one-cell job, through a store, with earlier passes through
            // the store's memo.
            let memo = store
                .filter(|_| share_sims && cells.len() == 1)
                .map(ResultStore::sim_memo);
            let run = |out: &mut [Option<EvaluatedCell>]| {
                let mut shared = SharedSims::new();
                for (k, (&i, slot)) in cells.iter().zip(out).enumerate() {
                    let case = &cases[i];
                    let mut eval = || {
                        let share = match memo {
                            Some(memo) => SimShare::Memo(memo, fingerprint()),
                            None if share_sims && cells.len() > 1 => SimShare::Job(&mut shared),
                            None => SimShare::Nothing,
                        };
                        evaluate(case, &facts, validate, sim, share)
                    };
                    let (outcome, repaired, semantic) = if self.cacheable(case) {
                        let key = SemanticKey {
                            fingerprint: fingerprint(),
                            pes: case.pes,
                            scheduler: case.scheduler,
                            sim: validate.then_some(sim),
                        };
                        flight.evaluate_once(key, eval)
                    } else {
                        (eval(), false, None)
                    };
                    // The job's first cell instantiated the graph; the rest
                    // reuse it.
                    *slot = Some(EvaluatedCell {
                        outcome,
                        repaired,
                        graph_hit: hit || k > 0,
                        semantic,
                    });
                }
            };
            if wait_for_structures && self.cacheable(first) {
                let fp = fingerprint();
                let latch = Arc::clone(
                    structures
                        .lock()
                        .expect("structure latches")
                        .entry(fp)
                        .or_default(),
                );
                let mut first_of_structure = false;
                latch.get_or_init(|| {
                    first_of_structure = true;
                    run(out);
                });
                if !first_of_structure {
                    run(out);
                }
            } else {
                run(out);
            }
            leap.absorb(&take_leap_telemetry());
        });
        // Stage persist + merge: outcomes land at their case index, and
        // persisting walks the cells in case order through the batched
        // segment path — one fsync per FLUSH_THRESHOLD cells instead of
        // one per cell, the rest left queued for the store's owner to
        // commit. A semantic entry this pass evaluated is already in
        // the store's memory (evaluation inserted it); it joins the disk
        // queue here, once, at the first cell in case order that carries
        // its key, so the segments a pass writes do not depend on which
        // thread evaluated what.
        let mut cache = CacheStats::default();
        // Per semantic key: the first case carrying it; and the entries
        // this pass evaluated.
        let mut first_case: HashMap<SemanticKey, usize> = HashMap::new();
        let mut fresh: Vec<(SemanticKey, Arc<[u8]>)> = Vec::new();
        for (&i, cell) in todo.iter().zip(evaluated) {
            cache.record(cell.graph_hit);
            cell_cache.repaired += u64::from(cell.repaired);
            slots[i] = Some(cell.outcome);
            if let Some((key, entry)) = cell.semantic {
                let first = first_case.entry(key).or_insert(i);
                *first = (*first).min(i);
                fresh.extend(entry.map(|entry| (key, entry)));
            }
        }
        if let Some(store) = store {
            let mut fresh: Vec<(usize, Arc<[u8]>)> = fresh
                .into_iter()
                .map(|(key, entry)| (first_case[&key], entry))
                .collect();
            fresh.sort_unstable_by_key(|&(i, _)| i);
            let mut fresh = fresh.into_iter().peekable();
            for (i, (key, outcome)) in keys.iter().zip(&slots).enumerate() {
                if let Some((_, entry)) = fresh.next_if(|&(first, _)| first == i) {
                    store.persist_entry(entry);
                }
                if let (Some(key), Some(outcome)) = (key, outcome) {
                    store.insert_batched(key, outcome);
                }
            }
            let lifetime = store.stats();
            cell_cache.invalidations = lifetime.invalidations;
            cell_cache.evicted = lifetime.evicted;
        }
        let runs = cases
            .into_iter()
            .zip(slots)
            .map(|(case, outcome)| Run {
                case,
                outcome: outcome.expect("every slot filled by lookup or evaluation"),
            })
            .collect();
        CasesResult {
            runs,
            cache,
            cell_cache,
            leap: leap.snapshot(),
        }
    }

    /// The spec's one wire encoding, the service's sweep object
    /// (`{"workloads":[{"workload":..,"pes":[..]}],"graphs":..,"seed":..,
    /// "schedulers":[..],"sim":..}`, `"sim"` being [`Self::sim_mode`]):
    /// shard headers, fabric handshakes and service sweep requests carry
    /// these bytes. Refuses what [`Self::decode_spec`] would refuse, and
    /// fixed workloads, which have no parseable spec string.
    pub fn encode_spec(&self) -> Result<String, String> {
        self.validate()?;
        let mut workloads = Vec::with_capacity(self.workloads.len());
        for w in &self.workloads {
            if matches!(w.workload, WorkloadKind::Fixed(_)) {
                return Err(format!(
                    "workload {:?} is a fixed graph; sharding requires registry specs",
                    w.workload.label()
                ));
            }
            workloads.push(Json::Obj(vec![
                ("workload".into(), Json::Str(w.workload.spec())),
                (
                    "pes".into(),
                    Json::Arr(w.pes.iter().map(Json::num).collect()),
                ),
            ]));
        }
        let schedulers = self.schedulers.iter().map(|s| Json::Str(s.alias().into()));
        Ok(Json::Obj(vec![
            ("workloads".into(), Json::Arr(workloads)),
            ("graphs".into(), Json::num(self.graphs)),
            ("seed".into(), Json::num(self.seed)),
            ("schedulers".into(), Json::Arr(schedulers.collect())),
            ("sim".into(), Json::Str(self.sim_mode())),
        ])
        .to_string())
    }

    /// Parses an [`Self::encode_spec`] encoding back into a spec (see
    /// [`Self::from_json`]).
    pub fn decode_spec(text: &str) -> Result<SweepSpec, String> {
        SweepSpec::from_json(&json::parse(text).map_err(|e| format!("bad spec JSON: {e}"))?)
    }

    /// Reads a parsed sweep object, with the service's defaults for absent
    /// members (registry PE sweep, one graph, seed 0, `sb-lts`, `"off"`),
    /// refusing unknown members and specs that fail the one validation.
    /// `threads` is left to callers that evaluate; timing is off.
    pub fn from_json(v: &Json) -> Result<SweepSpec, String> {
        v.check_fields(&["workloads", "graphs", "seed", "schedulers", "sim"])?;
        let workloads = v
            .array_field("workloads")?
            .iter()
            .map(|w| {
                w.check_fields(&["workload", "pes"])?;
                let workload: WorkloadKind = w
                    .str_field("workload")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
                let pes = match w.opt_array("pes")? {
                    None => workload.default_pes(),
                    Some(list) => list
                        .iter()
                        .map(|p| p.as_usize().ok_or(PES_POSITIVE))
                        .collect::<Result<_, _>>()?,
                };
                Ok(WorkloadSpec { workload, pes })
            })
            .collect::<Result<_, String>>()?;
        let schedulers = match v.opt_array("schedulers")? {
            None => vec![SchedulerKind::StreamingLts],
            Some(list) => list
                .iter()
                .map(|s| {
                    let alias = s.as_str().ok_or("\"schedulers\" entries must be strings")?;
                    alias.parse().map_err(|e| format!("{e}"))
                })
                .collect::<Result<_, String>>()?,
        };
        let sim: SimMode = v.opt_str("sim")?.unwrap_or("off").parse()?;
        let spec = SweepSpec {
            workloads,
            graphs: v.opt_u64("graphs")?.unwrap_or(1),
            seed: v.opt_u64("seed")?.unwrap_or(0),
            schedulers,
            validate: sim.validates(),
            sim: sim.choice(),
            timing: false,
            threads: None,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The one validation of a spec that crosses a process boundary: it
    /// needs workloads, PE counts (all positive), graphs and schedulers,
    /// and a seed range within `u64`. `sweep merge`, fabric workers and
    /// the service refuse through it, with the same text.
    fn validate(&self) -> Result<(), String> {
        let pes = |bad: fn(&Vec<usize>) -> bool| self.workloads.iter().any(|w| bad(&w.pes));
        if pes(|pes| pes.contains(&0)) {
            return Err(PES_POSITIVE.into());
        }
        let rules = [
            (self.workloads.is_empty(), "workloads", "non-empty"),
            (pes(Vec::is_empty), "pes", "non-empty"),
            (self.graphs == 0, "graphs", "a positive integer"),
            (self.schedulers.is_empty(), "schedulers", "non-empty"),
        ];
        match rules.iter().find(|(broken, ..)| *broken) {
            Some((_, field, must)) => Err(format!("field {field:?} must be {must}")),
            None => SweepSpec::check_seed_range(self.seed, self.graphs),
        }
    }

    /// Re-assembles a complete set of [`ShardResult::artifact_bytes`]
    /// artifacts (one per shard of a common spec, in any order) into the
    /// `kind` artifact of that spec, streamed into `out` through a
    /// [`StreamMerger`] — byte-identical to an unsharded run. Rejects
    /// artifacts from different specs or schema versions, incomplete or
    /// overlapping sets, and malformed payloads; every check runs before
    /// the merger opens, so a rejected set writes nothing to `out`.
    pub fn merge_shard_bytes<W: Write>(
        artifacts: &[Vec<u8>],
        kind: OutputKind,
        out: W,
    ) -> Result<MergeReport, String> {
        let mut parsed = artifacts
            .iter()
            .enumerate()
            .map(|(i, bytes)| {
                ParsedShard::parse_bytes(bytes).map_err(|e| format!("shard artifact {i}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if parsed.is_empty() {
            return Err("no shard artifacts to merge".to_string());
        }
        parsed.sort_by_key(|p| p.shard.index);
        let first = &parsed[0];
        if parsed.len() != first.shard.of {
            return Err(format!(
                "incomplete shard set: {} artifacts for a {}-way shard",
                parsed.len(),
                first.shard.of
            ));
        }
        for p in &parsed[1..] {
            if p.shard.of != first.shard.of
                || p.total != first.total
                || p.fingerprint != first.fingerprint
                || p.spec_block != first.spec_block
            {
                return Err(format!(
                    "shard {} does not belong to the same sweep as shard {}",
                    p.shard.index, first.shard.index
                ));
            }
        }
        let spec = SweepSpec::decode_spec(&first.spec_block)?;
        // The writer embeds the canonical encoding, so any other bytes that
        // decode to a spec (a case-flipped name, say) were altered.
        if spec.encode_spec()? != first.spec_block {
            return Err("spec block is not the canonical spec encoding".to_string());
        }
        // Bound the work by the input before walking the grid: the spec
        // must expand to the header's case count, and the rows must cover
        // that count exactly once. The fingerprint walk and the merge
        // below then cost O(rows carried), whatever grid a forged spec
        // block claims.
        let total = spec.total_cases();
        if total != first.total {
            return Err(format!(
                "grid expands to {total} cases but artifacts claim {}",
                first.total
            ));
        }
        for (position, p) in parsed.iter().enumerate() {
            // Sorted by index, a complete set has artifact i at position i;
            // anything else is a duplicate (and a hole elsewhere).
            if p.shard.index != position {
                return Err(format!("duplicate shard index {}", p.shard.index));
            }
            let expect = p.shard.slice(total);
            if !p.rows.iter().map(|(i, _)| *i).eq(expect.clone()) {
                let indices: Vec<usize> = p.rows.iter().map(|(i, _)| *i).collect();
                return Err(format!(
                    "shard {} rows cover {indices:?}, expected {expect:?}",
                    p.shard.index
                ));
            }
        }
        if spec.grid_fingerprint() != first.fingerprint {
            return Err("grid fingerprint mismatch: artifacts were produced by a \
                        different engine schema or workload registry"
                .to_string());
        }
        // Coverage is exact and in shard order, so the rows, concatenated,
        // arrive in case order.
        let mut merger =
            StreamMerger::new(spec, kind, out).map_err(|e| format!("merge output: {e}"))?;
        for (index, outcome) in parsed.into_iter().flat_map(|p| p.rows) {
            merger.push(index, outcome)?;
        }
        merger.finish()
    }
}

/// Where [`SweepSpec::run_cases_on`] single-flights its cacheable misses
/// on their semantic keys.
#[derive(Clone, Copy)]
pub enum SingleFlight<'a> {
    /// The caller's result store: semantic entries persist with it, and
    /// concurrent callers of the store share its evaluations.
    Store(&'a ResultStore),
    /// An in-memory table the caller owns and sizes: one pass, or every
    /// lease of a fabric worker.
    Table(&'a SemanticTable),
}

/// One evaluated cell of [`SweepSpec::run_cases_on`]'s evaluate stage.
struct EvaluatedCell {
    outcome: Outcome,
    /// Another cell's evaluation supplied the outcome.
    repaired: bool,
    /// The graph came from the memo cache or an earlier cell of the job.
    graph_hit: bool,
    /// Through a store: the cell's semantic key and fresh entry.
    semantic: Option<SemanticEntry>,
}

/// A store cell's semantic key, and the entry its evaluation inserted
/// into memory when this cell evaluated it: queued for disk at the
/// persist stage.
type SemanticEntry = (SemanticKey, Option<Arc<[u8]>>);

impl SingleFlight<'_> {
    /// Evaluates `key` at most once across this table's callers. Returns
    /// the outcome, whether another evaluation supplied it, and, for a
    /// store, the cell's [`SemanticEntry`].
    fn evaluate_once(
        self,
        key: SemanticKey,
        eval: impl FnOnce() -> Outcome,
    ) -> (Outcome, bool, Option<SemanticEntry>) {
        match self {
            SingleFlight::Store(store) => {
                let (outcome, fresh) = store.evaluate_once(key, eval);
                (outcome, fresh.is_none(), Some((key, fresh)))
            }
            SingleFlight::Table(table) => {
                let (outcome, repaired) = table.evaluate_once(key, eval);
                (outcome, repaired, None)
            }
        }
    }
}

/// The outcome of [`SweepSpec::run_cases`] over one case list: the
/// evaluated runs (in input order) plus the graph-cache and result-store
/// traffic and the aggregated [`BatchedSim`](stg_des::BatchedSim)
/// epoch-leap telemetry those evaluations produced.
pub struct CasesResult {
    /// Evaluated runs, one per input case, in input order.
    pub runs: Vec<Run>,
    /// Graph-cache hit/miss counts of the evaluations.
    pub cache: CacheStats,
    /// Cell reuse. `hits`, `misses` and `repaired` count this call's
    /// cells only, however many callers share the store or table;
    /// `repaired` counts the cells a store or [`SemanticTable`] answered
    /// without evaluating, so it is non-zero without a store too. `hits`,
    /// `misses`, `invalidations` and `evicted` need a store (zero without
    /// one); the last two describe the store itself, so they are its
    /// lifetime totals.
    pub cell_cache: StoreStats,
    /// Aggregated epoch-leap telemetry (zero unless the batched
    /// simulator validated cells).
    pub leap: LeapStats,
}

/// One slice selector of a sharded sweep: `--shard i/n` evaluates the
/// `i`-th of `n` contiguous index-range slices of the case grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// Zero-based slice index.
    pub index: usize,
    /// Total number of slices.
    pub of: usize,
}

impl Shard {
    /// The contiguous case-index range this shard evaluates out of
    /// `n_cases`: slices differ in length by at most one, cover
    /// `0..n_cases` exactly, and are in index order.
    pub fn slice(&self, n_cases: usize) -> Range<usize> {
        let per = n_cases / self.of;
        let rem = n_cases % self.of;
        let start = self.index * per + self.index.min(rem);
        let len = per + usize::from(self.index < rem);
        start..start + len
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.of)
    }
}

/// Error parsing a [`Shard`] from a `--shard i/n` value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseShardError(String);

impl std::fmt::Display for ParseShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid shard {:?}; expected i/n with 0 <= i < n <= {} (e.g. --shard 0/3)",
            self.0,
            u32::MAX
        )
    }
}

impl std::error::Error for ParseShardError {}

impl FromStr for Shard {
    type Err = ParseShardError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseShardError(s.to_string());
        let (i, n) = s.split_once('/').ok_or_else(err)?;
        let shard = Shard {
            index: i.trim().parse().map_err(|_| err())?,
            of: n.trim().parse().map_err(|_| err())?,
        };
        // Artifacts carry the selector as two u32s.
        if shard.of == 0 || shard.index >= shard.of || u32::try_from(shard.of).is_err() {
            return Err(err());
        }
        Ok(shard)
    }
}

/// The evaluated slice of a sharded sweep, ready for artifact emission.
pub struct ShardResult {
    spec: SweepSpec,
    /// The slice selector this result covers.
    pub shard: Shard,
    /// The global case-index range of the slice.
    pub range: Range<usize>,
    /// Case count of the full (unsharded) grid.
    pub total: usize,
    runs: Vec<Run>,
    /// Graph-cache traffic of this slice's evaluations.
    pub cache: CacheStats,
    /// Cell reuse of this slice (see [`CasesResult::cell_cache`]).
    pub cell_cache: StoreStats,
    /// Aggregated epoch-leap telemetry of this slice's validations.
    pub leap: LeapStats,
}

/// Magic prefix of shard artifacts (the schema version follows as a
/// `u32`).
const SHARD_MAGIC: &[u8] = b"STGSHRD";

impl ShardResult {
    /// The evaluated runs of this slice, in global case order.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// The self-describing shard artifact `sweep --shard i/n` writes: a
    /// header binding the slice to its spec (the [`SweepSpec::encode_spec`]
    /// bytes) and grid fingerprint, then the [`put_rows`](crate::store::put_rows) section
    /// with one serialized outcome per case. Length-prefixed, so
    /// [`SweepSpec::merge_shard_bytes`] parses it in one forward pass.
    /// Byte-deterministic, like every other engine output.
    pub fn artifact_bytes(&self) -> Result<Vec<u8>, String> {
        use crate::store::{put_rows, put_u32, put_u64};
        let spec_block = self.spec.encode_spec()?;
        let (Ok(index), Ok(of)) = (
            u32::try_from(self.shard.index),
            u32::try_from(self.shard.of),
        ) else {
            return Err(format!(
                "shard {} does not fit the artifact's u32 selector",
                self.shard
            ));
        };
        let mut out = Vec::with_capacity(64 + spec_block.len() + self.runs.len() * 48);
        out.extend_from_slice(SHARD_MAGIC);
        put_u32(&mut out, SCHEMA_VERSION);
        put_u32(&mut out, index);
        put_u32(&mut out, of);
        put_u64(&mut out, self.range.start as u64);
        put_u64(&mut out, self.range.end as u64);
        put_u64(&mut out, self.total as u64);
        put_u64(&mut out, self.spec.grid_fingerprint());
        put_u32(&mut out, spec_block.len() as u32);
        out.extend_from_slice(spec_block.as_bytes());
        put_rows(
            &mut out,
            self.runs.iter().map(|run| (run.case.index, &run.outcome)),
        );
        Ok(out)
    }

    /// Failure counts of this slice's runs.
    pub fn tallies(&self) -> MergeTallies {
        MergeTallies::of(&self.runs)
    }
}

/// One parsed shard artifact (header + rows), before cross-artifact
/// consistency checks.
struct ParsedShard {
    shard: Shard,
    total: usize,
    fingerprint: u64,
    spec_block: String,
    rows: Vec<(usize, Outcome)>,
}

impl ParsedShard {
    /// Parses a [`ShardResult::artifact_bytes`] artifact. The header
    /// layout is the same in every binary version, so the spec block is
    /// checked before the version: an artifact from before the JSON spec
    /// encoding is named as such, whatever version it carries.
    fn parse_bytes(bytes: &[u8]) -> Result<ParsedShard, String> {
        use crate::store::{take_rows, take_str, take_u32, take_u64};
        let trunc = || "truncated shard artifact".to_string();
        let rest = bytes.strip_prefix(SHARD_MAGIC).ok_or_else(|| {
            "not a shard artifact: missing the STGSHRD magic (regenerate it with \
             `sweep --shard i/n`)"
                .to_string()
        })?;
        let (version, rest) = take_u32(rest).ok_or_else(trunc)?;
        let (index, rest) = take_u32(rest).ok_or_else(trunc)?;
        let (of, rest) = take_u32(rest).ok_or_else(trunc)?;
        let (start, rest) = take_u64(rest).ok_or_else(trunc)?;
        let (end, rest) = take_u64(rest).ok_or_else(trunc)?;
        let (total, rest) = take_u64(rest).ok_or_else(trunc)?;
        let (fingerprint, rest) = take_u64(rest).ok_or_else(trunc)?;
        let (spec_len, rest) = take_u32(rest).ok_or_else(trunc)?;
        let (spec_block, rest) = take_str(rest, spec_len as usize).ok_or_else(trunc)?;
        if !spec_block.starts_with('{') {
            let regenerate = "regenerate it with `sweep --shard i/n`";
            return Err(format!(
                "shard artifact carries a pre-JSON text spec block ({regenerate})"
            ));
        }
        if version != SCHEMA_VERSION {
            return Err(format!(
                "shard artifact v{version} (expected v{SCHEMA_VERSION}; \
                 regenerate shards after a schema bump)"
            ));
        }
        let shard = Shard {
            index: index as usize,
            of: of as usize,
        };
        if shard.of == 0 || shard.index >= shard.of {
            return Err(format!("invalid shard selector {}/{}", index, of));
        }
        if start > end || end > total {
            return Err(format!("malformed case range {start}..{end} of {total}"));
        }
        let rows = take_rows(rest)?;
        if rows.len() as u64 != end - start {
            return Err(format!(
                "shard {shard} carries {} rows for a {}-case slice",
                rows.len(),
                end - start
            ));
        }
        Ok(ParsedShard {
            shard,
            total: total as usize,
            fingerprint,
            spec_block: spec_block.to_string(),
            rows,
        })
    }
}

/// One point of the sweep grid.
#[derive(Clone)]
pub struct Case {
    /// Position in the expanded grid (also the result index).
    pub index: usize,
    /// The graph source.
    pub workload: WorkloadKind,
    /// Machine size.
    pub pes: usize,
    /// Graph seed (ignored by fixed workloads).
    pub seed: u64,
    /// Scheduler preset to run.
    pub scheduler: SchedulerKind,
}

impl Case {
    /// This case's task graph, shared through the memoization cache.
    pub fn graph(&self) -> Arc<CanonicalGraph> {
        self.workload.instantiate(self.seed)
    }

    /// Instantiates this case's scheduler.
    pub fn build_scheduler(&self) -> Box<dyn Scheduler> {
        self.scheduler.build(self.pes)
    }
}

/// The deterministic measurements of one evaluated case.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// The scheduler's evaluation metrics.
    pub metrics: Metrics,
    /// Total FIFO elements allocated by buffer sizing (0 for the
    /// buffered baseline).
    pub buffer_elements: u64,
    /// Simulation outcome, when the spec requested validation.
    pub sim: Option<SimRecord>,
}

/// Discrete-event-simulation outcome for one plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimRecord {
    /// True if every task finished (no deadlock / time limit).
    pub completed: bool,
    /// Simulated makespan (meaningful when `completed`).
    pub makespan: u64,
    /// `100 · (simulated − analytic) / analytic`, Figure 13's signed
    /// error: negative when the analysis over-estimates (0 when not
    /// completed).
    pub rel_err_pct: f64,
    /// Element beats executed by the validation run — identical across
    /// simulators (the batched epochs count their coalesced beats).
    pub beats: u64,
    /// `SimChoice::Both` only: the simulators disagreed on any result
    /// field. Always false in a healthy build; `sweep` exits non-zero.
    pub diverged: bool,
    /// Validation wall-clock per simulator. Non-deterministic; only
    /// emitted when the spec's `timing` flag is set.
    pub micros: SimMicros,
}

/// Per-simulator validation wall-clock for one run, in microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimMicros {
    /// Reference-simulator wall-clock, when it ran.
    pub reference: Option<u64>,
    /// Batched-simulator wall-clock, when it ran.
    pub batched: Option<u64>,
}

impl SimMicros {
    fn set(&mut self, kind: SimKind, micros: u64) {
        match kind {
            SimKind::Reference => self.reference = Some(micros),
            SimKind::Batched => self.batched = Some(micros),
        }
    }

    /// `reference / batched` wall-clock ratio, when both simulators ran.
    pub fn speedup(&self) -> Option<f64> {
        match (self.reference, self.batched) {
            (Some(r), Some(b)) if b > 0 => Some(r as f64 / b as f64),
            _ => None,
        }
    }

    /// Adds another measurement field-wise (`None` stays absent until a
    /// simulator contributes a sample).
    pub fn accumulate(&mut self, other: SimMicros) {
        for (total, sample) in [
            (&mut self.reference, other.reference),
            (&mut self.batched, other.batched),
        ] {
            if let Some(us) = sample {
                *total = Some(total.unwrap_or(0) + us);
            }
        }
    }

    /// `12.345ms`-style rendering of one field (`-` when absent).
    fn fmt_ms(v: Option<u64>) -> String {
        match v {
            Some(us) => format!("{:.3}ms", us as f64 / 1e3),
            None => "-".into(),
        }
    }
}

/// One evaluated case: the scenario plus its record or scheduling error.
pub struct Run {
    /// The scenario.
    pub case: Case,
    /// The outcome (a scheduling error is data, not a panic).
    pub outcome: Result<Record, stg_analysis::ScheduleError>,
}

impl Run {
    /// The record, if the case scheduled successfully.
    pub fn record(&self) -> Option<&Record> {
        self.outcome.as_ref().ok()
    }
}

/// Reusable per-worker evaluation storage: instantiated schedulers keyed
/// by preset × machine size (the trait contract makes one instance safe
/// to reuse across scenarios) and the validation result pair. One
/// instance lives per thread, so steady-state cell evaluation allocates
/// neither per cell.
struct CellScratch {
    schedulers: std::collections::HashMap<(SchedulerKind, usize), Box<dyn Scheduler>>,
    sim_results: Vec<SimResult>,
}

thread_local! {
    static CELL_SCRATCH: std::cell::RefCell<CellScratch> =
        std::cell::RefCell::new(CellScratch {
            schedulers: std::collections::HashMap::new(),
            sim_results: Vec::new(),
        });
}

/// Reorders `todo` (ascending indices into `cases`) graph-major: each
/// graph instance's cells become contiguous, still in grid order, and the
/// returned vector holds the exclusive end of each instance's run of
/// positions, one evaluation job per graph. An instance is a workload and
/// a seed (any seed, for workloads that ignore it). The grid is
/// workload-major, so a workload's cells form one run of `todo`, and the
/// seeds within a whole grid's run are dense: a counting pass groups
/// them, with no comparison sort and no allocation per graph.
fn graph_major(cases: &[Case], todo: &mut Vec<usize>) -> Vec<usize> {
    let mut grouped = Vec::with_capacity(todo.len());
    let mut ends = Vec::new();
    let mut offsets: Vec<usize> = Vec::new();
    let seed = |i: usize| cases[i].seed;
    let mut rest = &todo[..];
    while let Some(&head) = rest.first() {
        let workload = &cases[head].workload;
        let len = rest
            .iter()
            .position(|&i| cases[i].workload != *workload)
            .unwrap_or(rest.len());
        let (run, tail) = rest.split_at(len);
        rest = tail;
        let base = grouped.len();
        if !workload.seeded() {
            grouped.extend_from_slice(run);
            ends.push(grouped.len());
            continue;
        }
        let lo = run
            .iter()
            .map(|&i| seed(i))
            .min()
            .expect("runs are non-empty");
        let hi = run
            .iter()
            .map(|&i| seed(i))
            .max()
            .expect("runs are non-empty");
        match usize::try_from(hi - lo)
            .ok()
            .filter(|&span| span < run.len())
        {
            Some(span) => {
                // offsets[s] = where seed lo + s starts within the run.
                offsets.clear();
                offsets.resize(span + 2, 0);
                for &i in run {
                    offsets[(seed(i) - lo) as usize + 1] += 1;
                }
                for s in 1..offsets.len() {
                    offsets[s] += offsets[s - 1];
                }
                for s in 0..=span {
                    if offsets[s + 1] > offsets[s] {
                        ends.push(base + offsets[s + 1]);
                    }
                }
                grouped.resize(base + run.len(), 0);
                for &i in run {
                    let s = (seed(i) - lo) as usize;
                    grouped[base + offsets[s]] = i;
                    offsets[s] += 1;
                }
            }
            // Sparse seeds (a slice that wraps from the last seed to the
            // first, or a hand-made case list): sort the run instead. The
            // index tie-break keeps each graph's cells in grid order.
            None => {
                grouped.extend_from_slice(run);
                grouped[base..].sort_unstable_by_key(|&i| (seed(i), i));
                for k in base + 1..grouped.len() {
                    if seed(grouped[k]) != seed(grouped[k - 1]) {
                        ends.push(k);
                    }
                }
                ends.push(grouped.len());
            }
        }
    }
    *todo = grouped;
    ends
}

/// The validations one graph job ran, kept so that a later cell of the
/// job whose plan gives the simulator identical inputs
/// ([`Plan::simulates_like`]) reuses the result instead of simulating
/// again. Dropped with the job.
type SharedSims = Vec<(Plan, Simulated)>;

/// Where a cell's validation looks for a simulation of identical inputs
/// before it simulates, and offers the one it runs.
enum SimShare<'a> {
    /// Nowhere: the cell simulates for itself.
    Nothing,
    /// The earlier cells of its graph job.
    Job(&'a mut SharedSims),
    /// The result store's memo, under the graph's fingerprint.
    Memo(&'a SimMemo, u64),
}

/// Evaluates one cell of the graph behind `facts`; `share` says where its
/// validation may reuse (and offers) a simulation.
fn evaluate(
    case: &Case,
    facts: &GraphFacts<'_>,
    validate: bool,
    choice: SimChoice,
    share: SimShare<'_>,
) -> Result<Record, stg_analysis::ScheduleError> {
    // Evaluations never nest, so the thread-local borrow spans the call.
    CELL_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        evaluate_with(case, facts, validate, choice, share, &mut scratch)
    })
}

fn evaluate_with(
    case: &Case,
    facts: &GraphFacts<'_>,
    validate: bool,
    choice: SimChoice,
    share: SimShare<'_>,
    scratch: &mut CellScratch,
) -> Result<Record, stg_analysis::ScheduleError> {
    let CellScratch {
        schedulers,
        sim_results,
        ..
    } = scratch;
    let plan = schedulers
        .entry((case.scheduler, case.pes))
        .or_insert_with(|| case.build_scheduler())
        .schedule_facts(facts)?;
    let metrics = *plan.metrics();
    let buffer_elements = plan.buffers().map_or(0, |b| b.total_elements);
    let sim = validate.then(|| {
        let reused = match (&share, plan.sim_inputs()) {
            (SimShare::Job(shared), _) => shared
                .iter()
                .find(|(p, _)| p.simulates_like(&plan))
                .map(|&(_, run)| run),
            (SimShare::Memo(memo, fingerprint), Some(inputs)) => {
                memo.find(*fingerprint, choice, inputs)
            }
            _ => None,
        };
        let (run, micros) = match reused {
            Some(run) => (run, SimMicros::default()),
            None => {
                let mut micros = SimMicros::default();
                sim_results.clear();
                let g = facts.graph();
                for &kind in choice.kinds() {
                    let t0 = Instant::now();
                    let r = plan.validate_with(g, kind);
                    micros.set(kind, t0.elapsed().as_micros() as u64);
                    sim_results.push(r);
                }
                // In Both mode the reference result (run first) is
                // recorded; the batched result must match it bit for bit.
                let s = &sim_results[0];
                let run = Simulated {
                    completed: s.completed(),
                    makespan: s.makespan,
                    beats: s.beats,
                    diverged: sim_results.windows(2).any(|w| w[0] != w[1]),
                };
                match share {
                    SimShare::Memo(memo, fingerprint) => {
                        if let Some(inputs) = plan.sim_inputs() {
                            memo.offer(fingerprint, choice, inputs, run);
                        }
                    }
                    SimShare::Job(shared) if plan.buffers().is_some() => {
                        shared.push((plan, run));
                    }
                    _ => {}
                }
                (run, micros)
            }
        };
        SimRecord {
            completed: run.completed,
            makespan: run.makespan,
            rel_err_pct: if run.completed {
                100.0 * relative_error(metrics.makespan, run.makespan)
            } else {
                0.0
            },
            beats: run.beats,
            diverged: run.diverged,
            micros,
        }
    });
    Ok(Record {
        metrics,
        buffer_elements,
        sim,
    })
}

/// An aggregation cell: the `graphs` runs sharing one
/// (workload, PE count, scheduler) coordinate.
pub struct Cell<'a> {
    /// The cell's workload.
    pub workload: &'a WorkloadKind,
    /// The cell's machine size.
    pub pes: usize,
    /// The cell's scheduler preset.
    pub scheduler: SchedulerKind,
    /// The runs, in seed order.
    pub runs: &'a [Run],
}

impl<'a> Cell<'a> {
    /// The successfully scheduled records of this cell.
    pub fn records(&self) -> impl Iterator<Item = &'a Record> + '_ {
        self.runs.iter().filter_map(Run::record)
    }

    /// Extracts one metric across the cell's successful records.
    pub fn values(&self, f: impl Fn(&Record) -> f64) -> Vec<f64> {
        self.records().map(f).collect()
    }

    /// Number of runs that failed to schedule.
    pub fn errors(&self) -> usize {
        MergeTallies::of(self.runs).errors
    }

    /// Number of validated runs whose simulation did not complete.
    pub fn deadlocks(&self) -> usize {
        MergeTallies::of(self.runs).deadlocks
    }

    /// Median reference/batched validation speedup over this cell's runs
    /// (requires `SimChoice::Both`; `None` when only one simulator ran).
    pub fn sim_speedup(&self) -> Option<f64> {
        let mut ratios: Vec<f64> = self
            .records()
            .filter_map(|r| r.sim.and_then(|s| s.micros.speedup()))
            .collect();
        if ratios.is_empty() {
            return None;
        }
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
        Some(ratios[ratios.len() / 2])
    }

    /// Total validation wall-clock of this cell per simulator, in
    /// microseconds.
    pub fn sim_micros(&self) -> SimMicros {
        let mut total = SimMicros::default();
        for s in self.records().filter_map(|r| r.sim) {
            total.accumulate(s.micros);
        }
        total
    }
}

/// The evaluated grid: every run, in deterministic case order.
pub struct Sweep {
    /// The spec that produced this sweep.
    pub spec: SweepSpec,
    /// All runs, index-ordered (`runs[i].case.index == i`).
    pub runs: Vec<Run>,
    /// Graph-cache hit/miss counts for this sweep: `misses` equals the
    /// number of distinct `(spec, seed)` graphs the pass built, and every
    /// further scheduler/PE cell over the same graph is a hit. A graph
    /// with several cells to evaluate is built for its pass alone, so a
    /// rerun in the same process builds it again; only one-cell graphs
    /// and unseeded graphs come from the process-wide memo cache.
    /// Cell-cache hits skip graph instantiation entirely, so a fully warm
    /// rerun reports zero traffic here.
    pub cache: CacheStats,
    /// Cell reuse this sweep incurred: store traffic when a store was
    /// passed to [`SweepSpec::run_with`], and the cells its store or pass
    /// table repaired (see [`CasesResult::cell_cache`] for which counters
    /// need a store and which are per call).
    pub cell_cache: StoreStats,
    /// Aggregated [`BatchedSim`](stg_des::BatchedSim) epoch-leap
    /// telemetry of this sweep's validations. Like the cache counters it
    /// reflects live evaluation work (a fully warm rerun leaps nothing),
    /// so it stays out of the emitted artifact (the `sweep` binary prints
    /// it on stderr).
    pub leap: LeapStats,
}

impl Sweep {
    /// Failure counts of every run.
    pub fn tallies(&self) -> MergeTallies {
        MergeTallies::of(&self.runs)
    }

    /// Total runs that failed to schedule.
    pub fn errors(&self) -> usize {
        self.tallies().errors
    }

    /// A human-readable per-cell validation timing report (for stderr —
    /// wall-clock never goes on the deterministic stdout path). `None`
    /// when no run captured validation timing. Cells report the total
    /// per-simulator wall-clock and, under `SimChoice::Both`, the median
    /// reference/batched speedup.
    pub fn sim_timing_summary(&self) -> Option<String> {
        let mut any = false;
        let mut out = String::from("validation timing (per cell):\n");
        let mut total = SimMicros::default();
        for cell in self.cells() {
            let us = cell.sim_micros();
            if us.reference.is_none() && us.batched.is_none() {
                continue;
            }
            any = true;
            let speedup = match cell.sim_speedup() {
                Some(s) => format!("  speedup {s:.1}x"),
                None => String::new(),
            };
            out.push_str(&format!(
                "  {:24} P={:<5} {:12} ref {:>10}  batched {:>10}{}\n",
                cell.workload.label(),
                cell.pes,
                cell.scheduler.to_string(),
                SimMicros::fmt_ms(us.reference),
                SimMicros::fmt_ms(us.batched),
                speedup
            ));
            total.accumulate(us);
        }
        if !any {
            return None;
        }
        out.push_str(&format!(
            "  total: ref {}  batched {}{}\n",
            SimMicros::fmt_ms(total.reference),
            SimMicros::fmt_ms(total.batched),
            match total.speedup() {
                Some(s) => format!("  overall speedup {s:.1}x"),
                None => String::new(),
            }
        ));
        Some(out)
    }

    /// Exits the process when any scenario failed to schedule. The engine
    /// records scheduling errors as data; binaries that aggregate
    /// statistics must not silently compute them over a shrunken sample.
    pub fn exit_on_errors(self) -> Sweep {
        if self.errors() > 0 {
            eprintln!("ERROR: {} scenarios failed to schedule", self.errors());
            std::process::exit(1);
        }
        self
    }

    /// Splits the runs into aggregation cells, in emission order
    /// (workload → PE count → scheduler). Cell sizes follow
    /// [`SweepSpec::runs_per_cell`]: `graphs` runs for seeded workloads,
    /// one for fixed graphs.
    pub fn cells(&self) -> Vec<Cell<'_>> {
        let mut cells = Vec::new();
        let mut rest = &self.runs[..];
        for w in &self.spec.workloads {
            let n = self.spec.runs_per_cell(&w.workload) as usize;
            if n == 0 {
                continue;
            }
            for _ in 0..w.pes.len() * self.spec.schedulers.len() {
                let (runs, tail) = rest.split_at(n);
                cells.push(Cell {
                    workload: &runs[0].case.workload,
                    pes: runs[0].case.pes,
                    scheduler: runs[0].case.scheduler,
                    runs,
                });
                rest = tail;
            }
        }
        cells
    }

    /// Streams the sweep's `kind` artifact into `out` through a
    /// [`StreamMerger`], the one emission path. Byte-identical across
    /// reruns, thread counts, simulator choices, cold/warm stores and
    /// sharded/unsharded execution for an identical spec; the `--sim-timing`
    /// wall-clock columns (spec `timing`) are excluded from that contract.
    /// `Err` is a failed write, or runs that do not cover the spec's grid.
    pub fn emit<W: Write>(&self, kind: OutputKind, out: W) -> Result<MergeReport, String> {
        let mut merger = StreamMerger::new(self.spec.clone(), kind, out)
            .map_err(|e| format!("merge output: {e}"))?;
        for run in &self.runs {
            merger.push(run.case.index, run.outcome.clone())?;
        }
        merger.finish()
    }

    /// [`Self::emit`] of the CSV artifact, one row per run, into memory.
    /// The golden-snapshot regression test pins these bytes.
    pub fn to_csv(&self) -> String {
        self.render(OutputKind::Csv)
    }

    /// [`Self::emit`] of the JSON artifact (spec header + one object per
    /// run) into memory.
    pub fn to_json(&self) -> String {
        self.render(OutputKind::Json)
    }

    fn render(&self, kind: OutputKind) -> String {
        let mut out = Vec::new();
        self.emit(kind, &mut out)
            .expect("a sweep's runs cover its grid, and memory writes cannot fail");
        String::from_utf8(out).expect("the emitters write UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_spec() -> SweepSpec {
        let mut spec = SweepSpec::paper(2, 42);
        // Keep the test fast: chains only, both PE extremes.
        spec.workloads.truncate(1);
        spec.validate = true;
        spec
    }

    #[test]
    fn case_order_is_workload_pes_scheduler_seed() {
        let spec = SweepSpec::paper(2, 7);
        let cases = spec.cases();
        assert_eq!(
            cases.len(),
            spec.workloads.iter().map(|w| w.pes.len()).sum::<usize>()
                * spec.schedulers.len()
                * spec.graphs as usize
        );
        for (i, c) in cases.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        // Seeds iterate innermost.
        assert_eq!(cases[0].seed, 7);
        assert_eq!(cases[1].seed, 8);
        assert_eq!(cases[0].scheduler, cases[1].scheduler);
        assert_ne!(cases[1].scheduler, cases[2].scheduler);
    }

    #[test]
    fn sweep_output_is_thread_count_invariant() {
        let mut one = smoke_spec();
        one.threads = Some(1);
        let mut many = smoke_spec();
        many.threads = Some(8);
        let a = one.run();
        let b = many.run();
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.tallies(), MergeTallies::default());
    }

    #[test]
    fn rerun_is_byte_identical() {
        let spec = smoke_spec();
        assert_eq!(spec.run().to_csv(), spec.run().to_csv());
        assert_eq!(spec.run().to_json(), spec.run().to_json());
    }

    #[test]
    fn cells_group_runs_by_scenario() {
        let spec = smoke_spec();
        let sweep = spec.run();
        let cells = sweep.cells();
        assert_eq!(cells.len(), sweep.runs.len() / spec.graphs as usize);
        for cell in &cells {
            assert_eq!(cell.runs.len(), spec.graphs as usize);
            for run in cell.runs {
                assert_eq!(run.case.pes, cell.pes);
                assert_eq!(run.case.scheduler, cell.scheduler);
            }
            // Streaming schedulers beat or match the baseline's makespan
            // bound on every validated run.
            for rec in cell.records() {
                assert!(rec.metrics.makespan > 0);
                if let Some(sim) = rec.sim {
                    assert!(sim.completed);
                }
            }
        }
    }

    #[test]
    fn filters_prune_the_grid() {
        let args = Args {
            graphs: 1,
            seed: 1,
            workloads: vec!["chain".parse().unwrap()],
            pes: vec![2, 4],
            schedulers: vec![SchedulerKind::NonStreaming],
            ..Args::default()
        };
        let spec = SweepSpec::paper(3, 9).filtered(&args);
        assert_eq!(spec.graphs, 1);
        assert_eq!(spec.seed, 1);
        assert_eq!(spec.workloads.len(), 1);
        assert_eq!(spec.workloads[0].pes, vec![2, 4]);
        assert_eq!(spec.schedulers, vec![SchedulerKind::NonStreaming]);
    }

    #[test]
    fn multi_scheduler_sweep_builds_each_graph_once() {
        // Seed chosen to be unique to this test so concurrently running
        // tests cannot pre-populate the cache keys it observes.
        let mut spec = SweepSpec::paper(2, 0xBADC_0DE5);
        spec.workloads.truncate(2);
        spec.threads = Some(4);
        let cases = spec.cases().len();
        let sweep = spec.run();
        // Distinct graphs = workloads × seeds; every extra scheduler and
        // PE cell over the same graph must be a cache hit.
        let distinct = spec.workloads.len() * spec.graphs as usize;
        assert_eq!(sweep.cache.misses as usize, distinct);
        assert_eq!(sweep.cache.hits as usize, cases - distinct);
        assert!(
            sweep.cache.hits > 0,
            "multi-scheduler sweeps must share graphs"
        );
        // A graph job of several cells builds its graph for its pass
        // alone, so a rerun builds each graph once more, and no more.
        let again = spec.run();
        assert_eq!(again.cache.misses as usize, distinct);
        assert_eq!(again.cache.hits as usize, cases - distinct);
        assert_eq!(again.to_csv(), sweep.to_csv());
        // One-cell passes share graphs through the memo cache: the first
        // pass over a cell builds its graph, and a rerun finds it there.
        let one = spec.cases_slice(0..1);
        let first = spec.run_cases(one.clone(), None);
        let rerun = spec.run_cases(one, None);
        assert_eq!((first.cache.hits, first.cache.misses), (0, 1));
        assert_eq!((rerun.cache.hits, rerun.cache.misses), (1, 0));
    }

    #[test]
    fn extend_from_filter_adds_new_families_once() {
        let args = Args {
            workloads: vec![
                "stencil2d:4x4".parse().unwrap(),
                "chain:16".parse().unwrap(),
                "stencil2d:8x8".parse().unwrap(),
            ],
            ..Args::default()
        };
        let spec = SweepSpec::paper(1, 0).extend_from_filter(&args);
        // chain is already in the paper grid; stencil2d joins once (first
        // spelling wins) at its registry-default PE sweep.
        assert_eq!(spec.workloads.len(), 5);
        let added = &spec.workloads[4];
        assert_eq!(added.workload.spec(), "stencil2d:4x4");
        assert_eq!(added.pes, added.workload.default_pes());
        // The usual filter then prunes to the requested families only.
        let filtered = spec.filtered(&args);
        assert_eq!(filtered.workloads.len(), 2);
    }

    #[test]
    fn fixed_workloads_collapse_the_seed_sweep() {
        use stg_model::Builder;
        let mut b = Builder::new();
        let t: Vec<_> = (0..4).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, 64);
        let g = b.finish().unwrap();
        let w = WorkloadKind::fixed("tiny", g);
        assert_eq!(w.task_count(), 4);
        let spec = SweepSpec {
            workloads: vec![WorkloadSpec {
                workload: w,
                pes: vec![2, 4],
            }],
            graphs: 3,
            seed: 0,
            schedulers: vec![SchedulerKind::StreamingLts],
            validate: false,
            sim: SimChoice::default(),
            timing: false,
            threads: Some(2),
        };
        // Seeds are meaningless for a fixed graph: each (PE, scheduler)
        // cell evaluates it once instead of `graphs` times.
        assert_eq!(spec.runs_per_cell(&spec.workloads[0].workload), 1);
        let sweep = spec.run();
        assert_eq!(sweep.runs.len(), 2);
        let cells = sweep.cells();
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().all(|c| c.runs.len() == 1));
        assert!(sweep.runs.iter().all(|r| r.record().is_some()));
    }

    #[test]
    fn cases_slice_matches_full_expansion() {
        // Mixed seeded + fixed grid exercises the per-workload
        // runs_per_cell arithmetic.
        use stg_model::Builder;
        let mut b = Builder::new();
        let t: Vec<_> = (0..3).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, 32);
        let mut spec = SweepSpec::paper(3, 11);
        spec.workloads.truncate(2);
        spec.workloads.push(WorkloadSpec {
            workload: WorkloadKind::fixed("tiny", b.finish().unwrap()),
            pes: vec![2, 4],
        });
        let cases = spec.cases();
        assert_eq!(spec.total_cases(), cases.len());
        let same = |a: &Case, b: &Case| {
            a.index == b.index
                && a.workload.label() == b.workload.label()
                && a.pes == b.pes
                && a.seed == b.seed
                && a.scheduler == b.scheduler
        };
        for range in [
            0..cases.len(),
            0..0,
            0..1,
            3..17,
            cases.len() - 1..cases.len(),
            cases.len()..cases.len() + 5,
            5..cases.len() + 9,
        ] {
            let slice = spec.cases_slice(range.clone());
            let lo = range.start.min(cases.len());
            let hi = range.end.min(cases.len());
            assert_eq!(slice.len(), hi - lo, "{range:?}");
            for (got, want) in slice.iter().zip(&cases[lo..hi]) {
                assert!(same(got, want), "case {} of {range:?}", want.index);
            }
        }
    }

    #[test]
    fn leap_telemetry_aggregates_per_sweep() {
        // A long steady chain leaps under the batched simulator; the
        // sweep must collect that telemetry from its scoped worker
        // threads, invariant to the thread count.
        let mut spec = SweepSpec {
            workloads: vec![WorkloadSpec {
                workload: "chain:64".parse().unwrap(),
                pes: vec![4],
            }],
            graphs: 2,
            seed: 0x5EED_CE17,
            schedulers: vec![SchedulerKind::StreamingLts],
            validate: true,
            sim: SimChoice::Batched,
            timing: false,
            threads: Some(1),
        };
        let one = spec.run();
        assert!(one.leap.leaps > 0, "steady chain must leap");
        assert!(one.leap.leaped_cycles > 0);
        assert!(one.leap.max_period > 0);
        spec.threads = Some(4);
        let many = spec.run();
        assert_eq!(one.leap, many.leap, "leap telemetry is deterministic");
        // The reference simulator never leaps.
        spec.sim = SimChoice::Reference;
        assert_eq!(spec.run().leap, LeapStats::default());
    }

    #[test]
    fn shard_slices_partition_every_grid() {
        for n_cases in [0usize, 1, 5, 17, 96] {
            for of in [1usize, 2, 3, 7, 13] {
                let mut covered = Vec::new();
                let mut lens = Vec::new();
                for index in 0..of {
                    let r = Shard { index, of }.slice(n_cases);
                    lens.push(r.len());
                    covered.extend(r);
                }
                // Contiguous, in order, covering 0..n exactly once, with
                // slice lengths differing by at most one.
                assert_eq!(covered, (0..n_cases).collect::<Vec<_>>());
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "{n_cases} cases / {of} shards: {lens:?}");
            }
        }
    }

    #[test]
    fn shard_parses_and_rejects() {
        assert_eq!("0/3".parse::<Shard>().unwrap(), Shard { index: 0, of: 3 });
        assert_eq!("2/3".parse::<Shard>().unwrap(), Shard { index: 2, of: 3 });
        for bad in [
            "",
            "3",
            "3/3",
            "4/3",
            "0/0",
            "-1/3",
            "a/b",
            "1/3/4",
            "0/4294967296",
        ] {
            assert!(bad.parse::<Shard>().is_err(), "{bad:?}");
        }
        let s: Shard = "1/4".parse().unwrap();
        assert_eq!(s.to_string().parse::<Shard>().unwrap(), s);
        assert!("4294967294/4294967295".parse::<Shard>().is_ok());
        // A selector built past the parser errs instead of truncating
        // into another shard's header.
        let shard = Shard {
            index: 1 << 32,
            of: (1 << 32) + 2,
        };
        let err = smoke_spec().run_shard(shard, None).artifact_bytes();
        assert!(err.unwrap_err().contains("u32"));
    }

    #[test]
    fn warm_store_rerun_is_byte_identical_with_full_hits() {
        let mut spec = smoke_spec();
        spec.seed = 0x5EED_CE11; // unique: no cross-test graph-cache noise
        let store = ResultStore::in_memory();
        let cold = spec.run_with(Some(&store));
        let n = cold.runs.len() as u64;
        assert_eq!(cold.cell_cache.hits, 0);
        assert_eq!(cold.cell_cache.misses, n);
        let warm = spec.run_with(Some(&store));
        assert_eq!(warm.cell_cache.hits, n);
        assert_eq!(warm.cell_cache.misses, 0);
        // Warm cells never instantiate a graph.
        assert_eq!(warm.cache.total(), 0);
        assert_eq!(cold.to_csv(), warm.to_csv());
        assert_eq!(cold.to_json(), warm.to_json());
        // And both match a storeless run bit for bit.
        assert_eq!(cold.to_csv(), spec.run().to_csv());
    }

    #[test]
    fn changed_key_components_miss_the_warm_store() {
        let mut spec = smoke_spec();
        spec.seed = 0x5EED_CE12;
        let store = ResultStore::in_memory();
        spec.run_with(Some(&store));
        let warm_base = spec.run_with(Some(&store));
        assert_eq!(warm_base.cell_cache.misses, 0);
        // Each varied spec dimension must force misses for the changed
        // cells (seed shifts every per-seed cell; sim mode shifts all).
        let mut reseeded = spec.clone();
        reseeded.seed += 1000;
        let r = reseeded.run_with(Some(&store));
        assert_eq!(r.cell_cache.hits, 0, "seed is a key component");
        let mut validated = spec.clone();
        validated.validate = false; // smoke_spec validates; turn it off
        let v = validated.run_with(Some(&store));
        assert_eq!(v.cell_cache.hits, 0, "sim mode is a key component");
    }

    #[test]
    fn seed_delta_on_seed_invariant_workload_repairs_semantically() {
        // `transformer` ignores the seed (the ML graph is fixed), so a
        // reseeded spec misses every nominal key but finds every cell
        // under its semantic (fingerprint-based) key: no cell is
        // re-evaluated, and the outcomes are byte-identical.
        let mut spec = SweepSpec {
            workloads: vec![WorkloadSpec {
                workload: "transformer".parse().unwrap(),
                pes: vec![2, 4],
            }],
            graphs: 1,
            seed: 0x5EED_CE18,
            schedulers: vec![SchedulerKind::StreamingLts],
            validate: false,
            sim: SimChoice::Batched,
            timing: false,
            threads: Some(1),
        };
        let store = ResultStore::in_memory();
        let cold = spec.run_with(Some(&store));
        let n = cold.runs.len() as u64;
        assert!(n > 0);
        assert_eq!(cold.cell_cache.misses, n);
        assert_eq!(cold.cell_cache.repaired, 0);
        spec.seed += 1000; // the spec delta: new seed, same graphs
        let repaired = spec.run_with(Some(&store));
        assert_eq!(repaired.cell_cache.hits, 0, "nominal keys changed");
        assert_eq!(repaired.cell_cache.misses, n);
        assert_eq!(repaired.cell_cache.repaired, n, "all cells repaired");
        for (a, b) in cold.runs.iter().zip(&repaired.runs) {
            assert_eq!(a.outcome, b.outcome, "repair is byte-identical");
        }
        // The repaired cells were re-inserted under their new nominal
        // keys, so a rerun of the delta spec is all nominal hits.
        let warm = spec.run_with(Some(&store));
        assert_eq!(warm.cell_cache.hits, n);
        assert_eq!(warm.cell_cache.repaired, 0);
    }

    #[test]
    fn cold_pass_evaluates_each_repeated_structure_once() {
        // `chain:8` draws edge volumes from a small alphabet, so some of
        // its seeds build structurally identical graphs. The first cell on
        // each distinct (structure, PEs, scheduler) evaluates; every other
        // cell takes that outcome within the same cold pass, whichever of
        // the 2 threads reaches the key first.
        let spec = SweepSpec {
            workloads: vec![WorkloadSpec {
                workload: "chain:8".parse().unwrap(),
                pes: vec![2, 4],
            }],
            graphs: 100,
            seed: 1,
            schedulers: vec![SchedulerKind::StreamingLts, SchedulerKind::NonStreaming],
            validate: false,
            sim: SimChoice::Batched,
            timing: false,
            threads: Some(2),
        };
        let distinct = spec
            .cases()
            .iter()
            .map(|c| {
                let (g, _) = c.workload.instantiate_traced(c.seed);
                (g.fingerprint(), c.pes, c.scheduler)
            })
            .collect::<std::collections::HashSet<_>>()
            .len() as u64;
        let store = ResultStore::in_memory();
        let cold = spec.run_with(Some(&store));
        let n = cold.runs.len() as u64;
        assert!(distinct < n, "the grid repeats structures");
        assert_eq!((cold.cell_cache.hits, cold.cell_cache.misses), (0, n));
        assert_eq!(cold.cell_cache.repaired, n - distinct);
        assert_eq!(cold.to_csv(), spec.run().to_csv());
        let warm = spec.run_with(Some(&store));
        assert_eq!((warm.cell_cache.hits, warm.cell_cache.repaired), (n, 0));
    }

    /// The oracle that reuses nothing: `case` through a fresh scheduler
    /// on a fresh graph analysis, then validated by every simulator of
    /// `choice`, the first one's result recorded as the engine records it.
    fn direct_outcome(case: &Case, choice: SimChoice) -> Outcome {
        let g = case.graph();
        case.build_scheduler().schedule(&g).map(|plan| {
            let results: Vec<SimResult> = choice
                .kinds()
                .iter()
                .map(|&kind| plan.validate_with(&g, kind))
                .collect();
            let s = &results[0];
            let rel_err_pct = match s.completed() {
                true => 100.0 * relative_error(plan.makespan(), s.makespan),
                false => 0.0,
            };
            Record {
                metrics: *plan.metrics(),
                buffer_elements: plan.buffers().map_or(0, |b| b.total_elements),
                sim: Some(SimRecord {
                    completed: s.completed(),
                    makespan: s.makespan,
                    rel_err_pct,
                    beats: s.beats,
                    diverged: results.windows(2).any(|w| w[0] != w[1]),
                    micros: SimMicros::default(),
                }),
            }
        })
    }

    /// `outcome` without its validation wall-clock.
    fn untimed(outcome: &Outcome) -> Outcome {
        let mut outcome = outcome.clone();
        if let Ok(Record { sim: Some(s), .. }) = &mut outcome {
            s.micros = SimMicros::default();
        }
        outcome
    }

    #[test]
    fn reuse_matches_direct_evaluation_of_every_case() {
        // Every pass single-flights and shares simulations within a graph,
        // so the byte checks elsewhere compare reuse with reuse; this one
        // compares it with `direct_outcome`, which reuses nothing.
        let spec = SweepSpec {
            workloads: vec![WorkloadSpec {
                workload: "chain:8".parse().unwrap(),
                pes: vec![2, 4],
            }],
            graphs: 300,
            seed: 1,
            schedulers: vec![
                SchedulerKind::StreamingLts,
                SchedulerKind::StreamingRlx,
                SchedulerKind::NonStreaming,
            ],
            validate: true,
            sim: SimChoice::Batched,
            timing: false,
            threads: Some(2),
        };
        let cases = spec.cases();
        let direct: Vec<String> = cases
            .iter()
            .map(|case| crate::store::encode_outcome(&direct_outcome(case, spec.sim)))
            .collect();
        let distinct = cases
            .iter()
            .map(|c| (c.graph().fingerprint(), c.pes, c.scheduler))
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert_eq!((cases.len(), cases.len() - distinct), (1800, 330));
        // One table for the pass; hits and misses need a store.
        let pass = spec.run();
        let stats = pass.cell_cache;
        assert_eq!((stats.hits, stats.misses, stats.repaired), (0, 0, 330));
        // Cells of one graph share simulations: fewer than one per
        // distinct streaming key.
        let evaluated_streaming = (distinct - distinct / 3) as u64;
        assert!(pass.leap.sims < evaluated_streaming, "{:?}", pass.leap);
        // Chunks sharing one table, as a fabric worker runs its leases:
        // 32-cell index ranges, or 21 whole graphs (126 cells) of the
        // graph order. The table evaluates exactly the distinct keys.
        let chunks = |expand: &dyn Fn(Range<usize>) -> Vec<Case>, len: usize| {
            let table = SemanticTable::with_capacity(cases.len());
            let mut runs = Vec::new();
            let mut repaired = 0;
            for start in (0..cases.len()).step_by(len) {
                let chunk = expand(start..(start + len).min(cases.len()));
                let result = spec.run_cases_on(chunk, SingleFlight::Table(&table));
                repaired += result.cell_cache.repaired;
                runs.extend(result.runs);
            }
            assert_eq!((table.len(), repaired), (distinct, 330));
            runs.sort_by_key(|run| run.case.index);
            runs
        };
        let chunked = chunks(&|range| spec.cases_slice(range), 32);
        let graphs = chunks(&|range| spec.graph_cases(range), 126);
        for (i, want) in direct.iter().enumerate() {
            for (path, runs) in [
                ("pass", &pass.runs),
                ("chunked", &chunked),
                ("graphs", &graphs),
            ] {
                let got = crate::store::encode_outcome(&runs[i].outcome);
                assert_eq!(&got, want, "{path} case {i}");
            }
        }
    }

    #[test]
    fn shared_simulations_match_direct_evaluation_of_every_preset() {
        // Every registered preset, validated, on graphs where presets and
        // machine sizes produce identical simulator inputs: those cells
        // share one simulation, yet each keeps its own record. On two
        // disjoint chains MUX-SCH:2 puts one tenant in each slot and
        // simulates like DSW-SCH, but its slot transition lengthens its
        // makespan, so its rel_err_pct is its own; `--sim both` shares
        // both simulators' results and the diverged flag between them.
        let workload = |spec: &str, pes: Vec<usize>| WorkloadSpec {
            workload: spec.parse().unwrap(),
            pes,
        };
        let mut b = stg_model::Builder::new();
        for (tenant, volume) in [("a", 64), ("b", 32)] {
            let t: Vec<_> = (0..4).map(|i| b.compute(format!("{tenant}{i}"))).collect();
            b.chain(&t, volume);
        }
        let tenants = WorkloadKind::fixed("two-tenants", b.finish().unwrap());
        for sim in [SimChoice::Batched, SimChoice::Both] {
            let spec = SweepSpec {
                workloads: vec![
                    workload("fft:32", vec![4, 16]),
                    workload("chain:8", vec![2, 4]),
                    WorkloadSpec {
                        workload: tenants.clone(),
                        pes: vec![2, 4],
                    },
                ],
                graphs: 2,
                seed: 1,
                schedulers: SchedulerKind::ALL.to_vec(),
                validate: true,
                sim,
                timing: false,
                threads: Some(2),
            };
            let pass = spec.run();
            let simulated = pass
                .runs
                .iter()
                .filter(|r| r.case.scheduler.is_streaming())
                .count() as u64
                - pass.cell_cache.repaired;
            assert!(pass.leap.sims < simulated, "{sim}: {:?}", pass.leap);
            let mut own_error = 0;
            for run in &pass.runs {
                let want = direct_outcome(&run.case, sim);
                assert_eq!(untimed(&run.outcome), want, "{sim} case {}", run.case.index);
                if !matches!(run.case.scheduler, SchedulerKind::Multiplex(_)) {
                    continue;
                }
                let g = run.case.graph();
                let plan = run.case.build_scheduler().schedule(&g).unwrap();
                let ms = run.record().unwrap().sim.unwrap();
                for other in pass.runs.iter().filter(|o| {
                    (o.case.workload.spec(), o.case.seed, o.case.pes)
                        == (run.case.workload.spec(), run.case.seed, run.case.pes)
                        && o.case.scheduler != run.case.scheduler
                }) {
                    let alike = other.case.build_scheduler().schedule(&g).unwrap();
                    if plan.simulates_like(&alike) && plan.makespan() != alike.makespan() {
                        let os = other.record().unwrap().sim.unwrap();
                        assert_eq!((ms.makespan, ms.beats), (os.makespan, os.beats));
                        assert_ne!(ms.rel_err_pct, os.rel_err_pct);
                        own_error += 1;
                    }
                }
            }
            assert!(
                own_error > 0,
                "{sim}: no MUX-SCH cell shares a simulation under another makespan"
            );
        }
    }

    #[test]
    fn shared_simulations_do_not_depend_on_the_thread_count() {
        // `chain:2` has 5 structures among 400 seeds, so graph jobs of one
        // structure are often in flight at once. Whichever job reaches a
        // semantic key first evaluates it, and only its own evaluations
        // can share a simulation; without the later job waiting for the
        // first, the simulations run vary from run to run on 2 threads.
        let mut spec = SweepSpec {
            workloads: vec![WorkloadSpec {
                workload: "chain:2".parse().unwrap(),
                pes: vec![1, 2, 4],
            }],
            graphs: 400,
            seed: 1,
            schedulers: vec![
                SchedulerKind::StreamingLts,
                SchedulerKind::StreamingRlx,
                SchedulerKind::StreamingLtsCyclesOnly,
                SchedulerKind::Elementwise,
            ],
            validate: true,
            sim: SimChoice::Batched,
            timing: false,
            threads: Some(1),
        };
        let one = spec.run();
        spec.threads = Some(2);
        for _ in 0..10 {
            assert_eq!(spec.run().leap, one.leap);
        }
    }

    #[test]
    fn timing_passes_share_no_simulation() {
        // Wall-clocks are per cell: a --sim-timing pass runs one
        // simulation per validated streaming cell, each with its own
        // batched clock. The same grid without clocks shares.
        let mut spec = SweepSpec::paper(2, 1);
        spec.validate = true;
        spec.sim = SimChoice::Batched;
        spec.timing = true;
        spec.threads = Some(2);
        let timed = spec.run();
        let streaming: Vec<&Run> = timed
            .runs
            .iter()
            .filter(|r| r.case.scheduler.is_streaming())
            .collect();
        for run in &streaming {
            let sim = run.record().and_then(|r| r.sim).expect("validated");
            assert!(sim.micros.batched.is_some(), "case {}", run.case.index);
        }
        assert_eq!(timed.leap.sims, streaming.len() as u64);
        spec.timing = false;
        assert!(spec.run().leap.sims < timed.leap.sims);
    }

    /// A validated one-cell spec: `fft:32` at 32 PEs under `scheduler`.
    fn fft_cell(seed: u64, scheduler: SchedulerKind) -> SweepSpec {
        SweepSpec {
            workloads: vec![WorkloadSpec {
                workload: "fft:32".parse().unwrap(),
                pes: vec![32],
            }],
            graphs: 1,
            seed,
            schedulers: vec![scheduler],
            validate: true,
            sim: SimChoice::Batched,
            timing: false,
            threads: Some(1),
        }
    }

    #[test]
    fn only_untimed_one_cell_passes_through_a_store_share_its_memo() {
        // On fft:32 seed 1 at 32 PEs, SB-LTS and SB-RLX give the
        // simulator identical inputs.
        let (lts, rlx) = (SchedulerKind::StreamingLts, SchedulerKind::StreamingRlx);
        let store = ResultStore::in_memory();
        let mut timed = fft_cell(1, lts);
        timed.timing = true;
        assert_eq!(timed.run_with(Some(&store)).leap.sims, 1);
        // A graph job of two cells shares within the job only.
        let mut both = fft_cell(1, lts);
        both.schedulers.push(rlx);
        assert_eq!(both.run_with(Some(&store)).leap.sims, 1);
        assert_eq!(store.sim_memo_bytes(), 0, "timed and multi-cell passes");
        // Without a store, a one-cell pass has nowhere to share.
        assert_eq!(fft_cell(1, lts).run().leap.sims, 1);
        assert_eq!(fft_cell(1, rlx).run().leap.sims, 1);
        let store = ResultStore::in_memory();
        for scheduler in [lts, rlx] {
            let spec = fft_cell(1, scheduler);
            let pass = spec.run_with(Some(&store));
            assert_eq!(pass.leap.sims, u64::from(scheduler == lts), "{scheduler}");
            let want = direct_outcome(&pass.runs[0].case, spec.sim);
            assert_eq!(untimed(&pass.runs[0].outcome), want, "{scheduler}");
        }
        assert!(store.sim_memo_bytes() > 0);
        // A --sim-timing pass neither reads the memo nor adds to it.
        let bytes = store.sim_memo_bytes();
        let mut timed = fft_cell(1, rlx);
        timed.timing = true;
        assert_eq!(timed.run_with(Some(&store)).leap.sims, 1);
        timed.seed = 2;
        assert_eq!(timed.run_with(Some(&store)).leap.sims, 1);
        assert_eq!(store.sim_memo_bytes(), bytes);
    }

    #[test]
    fn the_memo_budget_evicts_the_oldest_graph_and_answers_stay_identical() {
        // SB-LTS and SB-RLX simulate alike on fft:32 seeds 1–3 at 32
        // PEs, and every fft:32 plan stores the same number of bytes.
        let (lts, rlx) = (SchedulerKind::StreamingLts, SchedulerKind::StreamingRlx);
        let probe = ResultStore::in_memory();
        fft_cell(1, lts).run_with(Some(&probe));
        let one = probe.sim_memo_bytes();
        assert!(one > 0);
        // Room for two graphs' entries: the third evicts the first.
        let store = ResultStore::in_memory().with_sim_memo_budget(2 * one + one / 2);
        let mut sims = Vec::new();
        for (seed, scheduler) in [(1, lts), (2, lts), (3, lts), (3, rlx), (2, rlx), (1, rlx)] {
            let spec = fft_cell(seed, scheduler);
            let pass = spec.run_with(Some(&store));
            let want = direct_outcome(&pass.runs[0].case, spec.sim);
            assert_eq!(
                untimed(&pass.runs[0].outcome),
                want,
                "seed {seed} {scheduler}"
            );
            sims.push(pass.leap.sims);
        }
        assert_eq!(sims, [1, 1, 1, 0, 0, 1]);
        assert_eq!(store.sim_memo_bytes(), 2 * one);
        let fingerprint = |seed| fft_cell(seed, lts).cases()[0].graph().fingerprint();
        let memo = store.sim_memo();
        let held: Vec<bool> = (1..=3)
            .map(|seed| memo.holds(fingerprint(seed), SimChoice::Batched))
            .collect();
        assert_eq!(
            held,
            [true, false, true],
            "seed 1 came back and evicted seed 2"
        );
    }

    #[test]
    fn decoded_specs_reject_seed_ranges_overflowing_u64() {
        let mut spec = smoke_spec();
        spec.seed = u64::MAX;
        spec.graphs = 2;
        let err = spec.encode_spec().expect_err("never encoded");
        assert!(err.contains("overflow u64"), "{err}");
        // The last seed may be u64::MAX itself.
        spec.graphs = 1;
        let block = spec.encode_spec().unwrap();
        assert!(SweepSpec::decode_spec(&block).is_ok());
        let forged = block.replace("\"graphs\":1,", "\"graphs\":2,");
        assert_ne!(forged, block, "the encoding names its graph count");
        let err = SweepSpec::decode_spec(&forged).expect_err("seed u64::MAX + 1 is rejected");
        assert!(err.contains("overflow u64"), "{err}");
    }

    /// A two-workload validated grid, small enough to read its encoding.
    fn wire_spec() -> SweepSpec {
        let workload = |spec: &str, pes: Vec<usize>| WorkloadSpec {
            workload: spec.parse().unwrap(),
            pes,
        };
        SweepSpec {
            workloads: vec![workload("chain:8", vec![2, 4]), workload("fft:8", vec![8])],
            graphs: 2,
            seed: 42,
            schedulers: vec![SchedulerKind::StreamingLts, SchedulerKind::NonStreaming],
            validate: true,
            sim: SimChoice::Reference,
            timing: false,
            threads: Some(1),
        }
    }

    #[test]
    fn spec_encoding_is_the_sweep_object_and_round_trips() {
        let mut spec = wire_spec();
        spec.seed = u64::MAX - 7;
        let text = spec.encode_spec().unwrap();
        assert_eq!(
            text,
            "{\"workloads\":[{\"workload\":\"chain:8\",\"pes\":[2,4]},\
             {\"workload\":\"fft:8\",\"pes\":[8]}],\"graphs\":2,\
             \"seed\":18446744073709551608,\"schedulers\":[\"sb-lts\",\"nonstreaming\"],\
             \"sim\":\"reference\"}"
        );
        let back = SweepSpec::decode_spec(&text).unwrap();
        assert_eq!(back.encode_spec().unwrap(), text);
        assert_eq!(back.grid_fingerprint(), spec.grid_fingerprint());
        // Without validation the simulator choice is not encoded; neither
        // the fingerprint nor the emitted artifacts read it.
        spec.validate = false;
        spec.sim = SimChoice::Batched;
        let text = spec.encode_spec().unwrap();
        assert!(text.ends_with("\"sim\":\"off\"}"), "{text}");
        let back = SweepSpec::decode_spec(&text).unwrap();
        assert_eq!((back.validate, back.sim), (false, SimChoice::Reference));
        assert_eq!(back.grid_fingerprint(), spec.grid_fingerprint());
        assert_eq!(back.run().to_json(), spec.run().to_json());
    }

    #[test]
    fn encode_and_decode_refuse_the_same_specs_with_the_same_text() {
        let valid = wire_spec().encode_spec().unwrap();
        // The error text, a break of the spec, and the same break as an
        // edit of its encoding (`from` → `to`).
        type Broken = (&'static str, fn(&mut SweepSpec), &'static str, &'static str);
        let cases: [Broken; 5] = [
            (
                "non-empty",
                |s| s.workloads.clear(),
                "\"workloads\":[{\"workload\":\"chain:8\",\"pes\":[2,4]},{\"workload\":\"fft:8\",\"pes\":[8]}]",
                "\"workloads\":[]",
            ),
            (
                "positive integers",
                |s| s.workloads[0].pes[1] = 0,
                "\"pes\":[2,4]",
                "\"pes\":[2,0]",
            ),
            (
                "\"pes\" must be non-empty",
                |s| s.workloads[1].pes.clear(),
                "\"pes\":[8]",
                "\"pes\":[]",
            ),
            (
                "\"graphs\" must be a positive integer",
                |s| s.graphs = 0,
                "\"graphs\":2",
                "\"graphs\":0",
            ),
            (
                "\"schedulers\" must be non-empty",
                |s| s.schedulers.clear(),
                "\"schedulers\":[\"sb-lts\",\"nonstreaming\"]",
                "\"schedulers\":[]",
            ),
        ];
        for (needle, break_spec, from, to) in cases {
            let mut spec = wire_spec();
            break_spec(&mut spec);
            let encode_err = spec.encode_spec().expect_err(needle);
            assert!(encode_err.contains(needle), "{needle}: {encode_err}");
            assert!(spec.validate().is_err());
            let forged = valid.replacen(from, to, 1);
            assert_ne!(forged, valid, "{needle}");
            let decode_err = SweepSpec::decode_spec(&forged).expect_err(needle);
            assert_eq!(decode_err, encode_err, "{needle}");
        }
        for (bad, needle) in [
            ("", "bad spec JSON"),
            ("[]", "JSON object"),
            (
                "{\"workloads\":[{\"workload\":\"chain:8\"}],\"grahps\":2}",
                "unknown field",
            ),
            (
                "{\"workloads\":[{\"workload\":\"chain:8\",\"pes\":[-2]}]}",
                "positive",
            ),
            (
                "{\"workloads\":[{\"workload\":\"mesh\"}]}",
                "invalid workload",
            ),
            (
                "{\"workloads\":[{\"workload\":\"chain:8\"}],\"sim\":\"quantum\"}",
                "unknown simulator",
            ),
            ("{\"graphs\":2}", "missing required field \"workloads\""),
        ] {
            let err = SweepSpec::decode_spec(bad).expect_err(bad);
            assert!(err.contains(needle), "{bad}: {err}");
        }
    }

    #[test]
    fn repeated_spec_members_are_refused() {
        for (text, member) in [
            (
                "{\"workloads\":[{\"workload\":\"chain:8\"}],\"graphs\":2,\"graphs\":0}",
                "graphs",
            ),
            (
                "{\"workloads\":[{\"workload\":\"chain:8\",\"pes\":[2],\"pes\":[4]}]}",
                "pes",
            ),
        ] {
            let err = SweepSpec::decode_spec(text).expect_err(text);
            assert_eq!(err, format!("repeated field {member:?}"), "{text}");
        }
    }

    #[test]
    fn sharded_artifacts_merge_byte_identically() {
        let mut spec = smoke_spec();
        spec.seed = 0x5EED_CE13;
        let unsharded = spec.run();
        let total = unsharded.runs.len();
        for of in [1usize, 2, 3, total, total + 3] {
            let artifacts: Vec<Vec<u8>> = (0..of)
                .map(|index| {
                    spec.run_shard(Shard { index, of }, None)
                        .artifact_bytes()
                        .expect("registry workloads shard")
                })
                .collect();
            for (kind, want) in [
                (OutputKind::Csv, unsharded.to_csv()),
                (OutputKind::Json, unsharded.to_json()),
            ] {
                let mut out = Vec::new();
                let report = SweepSpec::merge_shard_bytes(&artifacts, kind, &mut out)
                    .expect("complete shard set");
                assert_eq!(report.rows, total, "{of}-way {kind:?}");
                assert_eq!(String::from_utf8(out).unwrap(), want, "{of}-way {kind:?}");
            }
        }
    }

    /// The error of merging `artifacts`, which must be rejected before
    /// the merger opens: nothing, not even the header, reaches the writer.
    fn merge_err(artifacts: &[Vec<u8>]) -> String {
        let mut out = Vec::new();
        let err = match SweepSpec::merge_shard_bytes(artifacts, OutputKind::Csv, &mut out) {
            Err(e) => e,
            Ok(_) => panic!("merge must be rejected"),
        };
        assert!(out.is_empty(), "a rejected set wrote {} bytes", out.len());
        err
    }

    #[test]
    fn binary_artifact_corruption_is_rejected_not_panicking() {
        let mut spec = smoke_spec();
        spec.seed = 0x5EED_CE16;
        let r0 = spec.run_shard(Shard { index: 0, of: 2 }, None);
        let r1 = spec.run_shard(Shard { index: 1, of: 2 }, None);
        let b0 = r0.artifact_bytes().unwrap();
        let b1 = r1.artifact_bytes().unwrap();
        // Truncation at every prefix length parses as an error, never a
        // panic (exhaustive over the whole artifact — it is small).
        for len in 0..b1.len() {
            merge_err(&[b0.clone(), b1[..len].to_vec()]);
        }
        // A wrong schema version is rejected with the regenerate hint.
        let mut stale = b1.clone();
        stale[SHARD_MAGIC.len()] ^= 0xff;
        let err = merge_err(&[b0.clone(), stale]);
        assert!(err.contains("regenerate"), "{err}");
        // Trailing junk is rejected.
        let mut padded = b1.clone();
        padded.push(0);
        merge_err(&[b0, padded]);
    }

    #[test]
    fn merge_rejects_inconsistent_artifacts() {
        let mut spec = smoke_spec();
        spec.seed = 0x5EED_CE14;
        let shard = |spec: &SweepSpec, index, of| {
            spec.run_shard(Shard { index, of }, None)
                .artifact_bytes()
                .unwrap()
        };
        let a0 = shard(&spec, 0, 2);
        let a1 = shard(&spec, 1, 2);
        // Complete set merges; incomplete or duplicated sets do not.
        let complete = [a1.clone(), a0.clone()];
        assert!(SweepSpec::merge_shard_bytes(&complete, OutputKind::Csv, std::io::sink()).is_ok());
        merge_err(std::slice::from_ref(&a0));
        merge_err(&[a0.clone(), a0.clone()]);
        merge_err(&[]);
        // A shard of a different spec (seed) cannot join the set.
        let mut other = spec.clone();
        other.seed += 1;
        let foreign = shard(&other, 1, 2);
        merge_err(&[a0.clone(), foreign]);
        // Header layout: magic, u32 version, u32 index, u32 of, u64 case
        // range start/end/total, u64 fingerprint, u32 spec length, the
        // spec block, then the row section (u32 count; per row a u64
        // index and u32 length before the record, a u64 checksum after).
        let range_at = SHARD_MAGIC.len() + 12;
        let spec_len_at = range_at + 32;
        let spec_len = u32::from_le_bytes(a1[spec_len_at..spec_len_at + 4].try_into().unwrap());
        let first_payload_at = spec_len_at + 4 + spec_len as usize + 4 + 12;
        // Corrupted rows are rejected outright: a garbage record byte
        // with intact framing fails the row's checksum.
        let mut corrupt = a1.clone();
        corrupt[first_payload_at] = b'#';
        let err = merge_err(&[a0.clone(), corrupt]);
        assert!(err.contains("row checksum mismatch"), "{err}");
        // A reversed or out-of-bounds case range is a malformed artifact,
        // not an arithmetic panic.
        let total = spec.total_cases() as u64;
        for (start, end) in [(total, 0), (0, total + 87)] {
            let mut bad = a1.clone();
            bad[range_at..range_at + 8].copy_from_slice(&start.to_le_bytes());
            bad[range_at + 8..range_at + 16].copy_from_slice(&end.to_le_bytes());
            let err = merge_err(&[a0.clone(), bad]);
            assert!(
                err.contains("malformed case range"),
                "{start}..{end}: {err}"
            );
        }
    }

    #[test]
    fn fixed_workloads_bypass_the_store_and_refuse_to_shard() {
        use stg_model::Builder;
        let mut b = Builder::new();
        let t: Vec<_> = (0..4).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, 64);
        let spec = SweepSpec {
            workloads: vec![WorkloadSpec {
                workload: WorkloadKind::fixed("tiny", b.finish().unwrap()),
                pes: vec![2, 4],
            }],
            graphs: 1,
            seed: 0,
            schedulers: vec![SchedulerKind::StreamingLts],
            validate: false,
            sim: SimChoice::default(),
            timing: false,
            threads: Some(1),
        };
        let store = ResultStore::in_memory();
        let sweep = spec.run_with(Some(&store));
        // Unkeyable cells generate no store traffic at all.
        assert_eq!(sweep.cell_cache, StoreStats::default());
        assert_eq!(store.len(), 0);
        assert!(spec
            .run_shard(Shard { index: 0, of: 1 }, None)
            .artifact_bytes()
            .is_err());
    }

    /// The key stage names every cacheable case by its formatted
    /// canonical string, across workloads and stripes and past a fixed
    /// graph between them; fixed graphs and timing passes get no key.
    #[test]
    fn the_key_stage_names_each_case_by_its_canonical_string() {
        use crate::store::fnv1a;
        use stg_model::Builder;
        let mut b = Builder::new();
        let t: Vec<_> = (0..3).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, 32);
        let workload = |spec: &str, pes: Vec<usize>| WorkloadSpec {
            workload: spec.parse().unwrap(),
            pes,
        };
        let mut spec = SweepSpec {
            workloads: vec![
                workload("chain:4", vec![2, 16]),
                WorkloadSpec {
                    workload: WorkloadKind::fixed("tiny", b.finish().unwrap()),
                    pes: vec![2],
                },
                workload("forkjoin:3x5", vec![8, 128]),
            ],
            graphs: 3,
            seed: u64::MAX - 2,
            schedulers: vec![
                SchedulerKind::StreamingLts,
                SchedulerKind::NonStreaming,
                SchedulerKind::Multiplex(2),
            ],
            validate: true,
            sim: SimChoice::Both,
            timing: false,
            threads: Some(1),
        };
        let cases = spec.cases();
        let keys = spec.nominal_keys(&cases);
        assert_eq!(keys.len(), cases.len());
        for (c, key) in cases.iter().zip(&keys) {
            if matches!(c.workload, WorkloadKind::Fixed(_)) {
                assert!(key.is_none());
                continue;
            }
            let text = format!(
                "v{SCHEMA_VERSION}|{}|{}|{}|{}|both",
                c.workload.spec(),
                c.seed,
                c.pes,
                c.scheduler.alias()
            );
            let key = key.as_ref().expect("a registry case is cacheable");
            assert_eq!(key.canonical(), text);
            assert_eq!(key.hash(), fnv1a(text.as_bytes()));
        }
        spec.timing = true;
        assert!(spec.nominal_keys(&cases).iter().all(Option::is_none));
    }

    #[test]
    fn cells_handle_mixed_seeded_and_fixed_grids() {
        use stg_model::Builder;
        let mut b = Builder::new();
        let t: Vec<_> = (0..3).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, 32);
        let spec = SweepSpec {
            workloads: vec![
                WorkloadSpec {
                    workload: "chain:4".parse().unwrap(),
                    pes: vec![2],
                },
                WorkloadSpec {
                    workload: WorkloadKind::fixed("tiny", b.finish().unwrap()),
                    pes: vec![2],
                },
            ],
            graphs: 3,
            seed: 7,
            schedulers: vec![SchedulerKind::StreamingLts],
            validate: false,
            sim: SimChoice::default(),
            timing: false,
            threads: Some(2),
        };
        let sweep = spec.run();
        // 3 seeded runs + 1 fixed run, grouped as one cell each.
        assert_eq!(sweep.runs.len(), 4);
        let cells = sweep.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].runs.len(), 3);
        assert_eq!(cells[1].runs.len(), 1);
        assert_eq!(cells[1].workload.label(), "tiny");
    }
}
