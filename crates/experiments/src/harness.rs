//! Shared experiment plumbing: argument parsing, and the parallel map
//! that sweeps the 100-graph samples on scoped threads.

use std::ops::Range;
use std::str::FromStr;
use std::sync::{Mutex, OnceLock};

use stg_core::SchedulerKind;
use stg_des::SimKind;
use stg_workloads::{WorkloadFamily, WorkloadKind};

use crate::engine::{Shard, SimChoice, SweepSpec};
use crate::store::ResultStore;

/// Common experiment options, parsed from the command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Graphs per (workload, configuration) sample (paper: 100).
    pub graphs: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Per-graph CSDF analysis timeout in milliseconds (Figure 12).
    pub timeout_ms: u64,
    /// Emit machine-readable CSV instead of aligned tables.
    pub csv: bool,
    /// Emit machine-readable JSON (sweep engine output).
    pub json: bool,
    /// Validate plans by discrete event simulation where supported.
    pub validate: bool,
    /// Which simulator(s) validation runs (`--sim reference|batched|both`).
    pub sim: SimChoice,
    /// Emit validation wall-clock columns in CSV/JSON (`--sim-timing`);
    /// the per-cell timing summary on stderr is always printed by `sweep`
    /// when timings were captured.
    pub sim_timing: bool,
    /// Worker thread count override (default: available parallelism).
    pub threads: Option<usize>,
    /// Keep only matching workloads (empty: keep all). Entries parse via
    /// [`WorkloadKind::from_str`], so `chain`, `fft:32`, `stencil2d:16x16`,
    /// and `resnet50` all work. `--topology` is kept as an alias.
    pub workloads: Vec<WorkloadKind>,
    /// Keep only these PE counts (empty: keep all).
    pub pes: Vec<usize>,
    /// Run only these schedulers (empty: the binary's default set).
    pub schedulers: Vec<SchedulerKind>,
    /// Print the workload registry (spec, task count, default PEs) and exit.
    pub list_workloads: bool,
    /// Print the scheduler registry (name, alias) and exit.
    pub list_schedulers: bool,
    /// Persist sweep-cell results under this directory (`--cache-dir`);
    /// warm reruns skip re-evaluating unchanged cells.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Evaluate only one index-range slice of the grid (`--shard i/n`,
    /// `sweep` binary only) and emit a shard artifact.
    pub shard: Option<Shard>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            graphs: 100,
            seed: 0xC0FFEE,
            timeout_ms: 2_000,
            csv: false,
            json: false,
            validate: false,
            sim: SimChoice::default(),
            sim_timing: false,
            threads: None,
            workloads: Vec::new(),
            pes: Vec::new(),
            schedulers: Vec::new(),
            list_workloads: false,
            list_schedulers: false,
            cache_dir: None,
            shard: None,
        }
    }
}

impl Args {
    /// Parses `--graphs N --seed S --timeout-ms T --csv --json --validate
    /// --sim KIND --sim-timing --threads N --workload LIST --pes LIST
    /// --scheduler LIST --cache-dir DIR --shard I/N --list-workloads
    /// --list-schedulers` from `std::env`. List flags take comma-separated
    /// values and may repeat; `--topology` is an alias of `--workload`.
    /// `--sim` takes `reference` (default), `batched` (the bit-identical
    /// fast path), or `both` (differential validation with speedup stats).
    pub fn parse() -> Args {
        Args::parse_from(std::env::args().skip(1))
    }

    /// [`Self::parse`] over an explicit argument list (the `sweep` binary
    /// strips its `merge` subcommand before flag parsing).
    pub fn parse_from(it: impl IntoIterator<Item = String>) -> Args {
        let mut args = Args::default();
        let mut it = it.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--graphs" => args.graphs = next_value(&mut it, "--graphs"),
                "--seed" => args.seed = next_value(&mut it, "--seed"),
                "--timeout-ms" => args.timeout_ms = next_value(&mut it, "--timeout-ms"),
                "--csv" => args.csv = true,
                "--json" => args.json = true,
                "--validate" => args.validate = true,
                "--sim" => args.sim = next_parsed(&mut it, "--sim"),
                "--sim-timing" => args.sim_timing = true,
                "--threads" => {
                    let threads: usize = next_value(&mut it, "--threads");
                    if threads == 0 {
                        eprintln!(
                            "--threads must be at least 1, got 0 \
                             (omit the flag to use all available cores)"
                        );
                        std::process::exit(2);
                    }
                    args.threads = Some(threads);
                }
                "--workload" | "--topology" => {
                    append_list(&mut args.workloads, &mut it, flag.as_str())
                }
                "--pes" => append_list(&mut args.pes, &mut it, "--pes"),
                "--scheduler" => append_list(&mut args.schedulers, &mut it, "--scheduler"),
                "--list-workloads" => args.list_workloads = true,
                "--list-schedulers" => args.list_schedulers = true,
                "--cache-dir" => {
                    let Some(dir) = it.next() else {
                        eprintln!("--cache-dir expects a directory path");
                        std::process::exit(2);
                    };
                    args.cache_dir = Some(dir.into());
                }
                "--shard" => args.shard = Some(next_parsed(&mut it, "--shard")),
                other => {
                    eprintln!(
                        "unknown flag {other}; supported: --graphs --seed --timeout-ms --csv \
                         --json --validate --sim --sim-timing --threads --workload --pes \
                         --scheduler --cache-dir --shard --list-workloads --list-schedulers"
                    );
                    std::process::exit(2);
                }
            }
        }
        // The listing flags short-circuit every binary (running a full
        // experiment after a listing request would be a surprise).
        if args.list_workloads || args.list_schedulers {
            if args.list_workloads {
                print_workload_registry();
            }
            if args.list_schedulers {
                print_scheduler_registry();
            }
            std::process::exit(0);
        }
        if let Err(e) = SweepSpec::check_seed_range(args.seed, args.graphs) {
            eprintln!("--seed {} with --graphs {}: {e}", args.seed, args.graphs);
            std::process::exit(2);
        }
        args
    }

    /// True if `workload` passes the `--workload` filter. Filtering is by
    /// family keyword (`--workload chain` and `--workload chain:8` both
    /// select every chain in the suite; `--workload resnet50` selects the
    /// ML graph); sizes in filter entries choose workload sizes when
    /// *adding* grid entries, not when filtering.
    pub fn workload_selected(&self, workload: &WorkloadKind) -> bool {
        self.workloads.is_empty()
            || self
                .workloads
                .iter()
                .any(|w| w.family() == workload.family())
    }

    /// True if `p` passes the `--pes` filter.
    pub fn pes_selected(&self, p: usize) -> bool {
        self.pes.is_empty() || self.pes.contains(&p)
    }

    /// Opens the `--cache-dir` result store, if one was requested. An
    /// unusable directory is a hard error — a silently disabled cache
    /// would masquerade as a byte-identical (but slow) rerun.
    pub fn open_store(&self) -> Option<ResultStore> {
        self.cache_dir.as_ref().map(|dir| {
            ResultStore::at_dir(dir).unwrap_or_else(|e| {
                eprintln!("--cache-dir {}: {e}", dir.display());
                std::process::exit(2);
            })
        })
    }

    /// Exits with usage error when `--shard` was passed to a binary that
    /// does not emit shard artifacts (everything but `sweep`).
    pub fn reject_shard(&self, bin: &str) {
        if let Some(shard) = self.shard {
            eprintln!(
                "--shard {shard} is only supported by the sweep binary; {bin} has no \
                 mergeable artifact format"
            );
            std::process::exit(2);
        }
    }
}

/// Prints every registered workload spec with its task count and default
/// PE sweep (computing ML task counts forces their one-time lowering).
pub fn print_workload_registry() {
    println!("registered workloads (spec: tasks @ default PEs):");
    for kind in WorkloadKind::registered() {
        let pes: Vec<String> = kind.default_pes().iter().map(usize::to_string).collect();
        println!(
            "  {:20} {:>6} tasks @ PEs {}",
            kind.spec(),
            kind.task_count(),
            pes.join(",")
        );
    }
}

/// Prints every registered scheduler preset with its CLI alias, plus the
/// validation simulators `--sim` can select.
pub fn print_scheduler_registry() {
    println!("registered schedulers (name / --scheduler alias):");
    for kind in SchedulerKind::ALL {
        println!("  {:14} {}", kind.to_string(), kind.alias());
    }
    println!("validation simulators (--sim; plus `both` for differential runs):");
    for kind in SimKind::ALL {
        println!("  {}", kind.alias());
    }
}

/// Like [`next_value`] but reports the parser's own error message
/// (simulator and scheduler names rather than "a numeric value").
fn next_parsed<T: FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T
where
    T::Err: std::fmt::Display,
{
    let Some(raw) = it.next() else {
        eprintln!("{flag} expects a value");
        std::process::exit(2);
    };
    raw.parse().unwrap_or_else(|e| {
        eprintln!("{flag}: {e}");
        std::process::exit(2);
    })
}

fn next_value<T: FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} expects a numeric value");
        std::process::exit(2);
    })
}

fn append_list<T: FromStr>(out: &mut Vec<T>, it: &mut impl Iterator<Item = String>, flag: &str)
where
    T::Err: std::fmt::Display,
{
    let Some(raw) = it.next() else {
        eprintln!("{flag} expects a comma-separated list");
        std::process::exit(2);
    };
    for part in raw.split(',').filter(|p| !p.is_empty()) {
        match part.parse() {
            Ok(v) => out.push(v),
            Err(e) => {
                eprintln!("{flag}: {e}");
                std::process::exit(2);
            }
        }
    }
}

/// The machine's parallelism, read once per process. No parallel pass
/// runs more threads than this, whatever thread count it asks for.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    })
}

/// The thread count a pass of `n` jobs uses by default: [`cores`],
/// capped at the job count.
pub fn default_threads(n: u64) -> usize {
    cores().min(n.max(1) as usize)
}

/// Applies `f` to `0..n` on up to `threads` threads, returning results
/// in index order. The closure receives the job index. The output is a
/// pure function of `n` and `f`: the thread count only affects
/// wall-clock time, never results or their order.
pub fn par_map_with<T: Send>(n: u64, threads: usize, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let threads = threads.max(1).min(n.max(1) as usize);
    // Contiguous chunks handed to threads whole; several chunks per
    // thread keep dynamic load balancing for skewed job costs.
    let chunk_size = (n as usize).div_ceil(threads * 4).max(1);
    let ends: Vec<usize> = (1..=(n as usize).div_ceil(chunk_size))
        .map(|k| (k * chunk_size).min(n as usize))
        .collect();
    par_groups_with(&ends, threads, |range, out| {
        for (i, slot) in range.zip(out) {
            *slot = Some(f(i as u64));
        }
    })
}

/// [`par_map_with`] over caller-chosen groups of jobs: `ends` holds the
/// exclusive end of each consecutive group of `0..n` (ascending; the
/// last is `n`). Each group runs whole on one thread, through one call
/// `f(range, out)` that must fill every slot of `out` (`out[k]` is job
/// `range.start + k`). Results come back in job order, and since a group
/// never splits across threads, neither they nor anything a group shares
/// internally depend on the thread count.
///
/// The calling thread drains the groups in index order together with
/// [`helper_count`] scoped helper threads; with none, the pass runs
/// inline and spawns nothing. A panic in any group reaches the caller
/// only after every helper has stopped.
pub(crate) fn par_groups_with<T: Send>(
    ends: &[usize],
    threads: usize,
    f: impl Fn(Range<usize>, &mut [Option<T>]) + Sync,
) -> Vec<T> {
    let n = ends.last().copied().unwrap_or(0);
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    // Disjoint `&mut` slices, one per group: no per-slot locking.
    let mut groups: Vec<(usize, &mut [Option<T>])> = Vec::with_capacity(ends.len());
    let mut rest: &mut [Option<T>] = &mut results;
    let mut base = 0usize;
    for &end in ends {
        let (head, tail) = rest.split_at_mut(end - base);
        groups.push((base, head));
        base = end;
        rest = tail;
    }
    let helpers = helper_count(threads, groups.len(), cores());
    let queue = Mutex::new(groups.into_iter());
    let drain = || loop {
        let Some((start, out)) = queue.lock().expect("group queue").next() else {
            break;
        };
        f(start..start + out.len(), out);
    };
    if helpers == 0 {
        drain();
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..helpers).map(|_| s.spawn(drain)).collect();
            drain();
            for handle in handles {
                if let Err(panic) = handle.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
    }
    results
        .into_iter()
        .map(|r| r.expect("every group fills its slots"))
        .collect()
}

/// Helper threads a pass of `groups` groups starts beside its calling
/// thread when asked for `threads` threads on a machine of `cores`:
/// `min(threads, groups, cores) - 1`, so a pass never runs more threads
/// than it has groups or the machine has cores.
fn helper_count(threads: usize, groups: usize, cores: usize) -> usize {
    threads.min(groups).min(cores).saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    #[test]
    fn par_map_preserves_order() {
        let out = par_map_with(64, default_threads(64), |i| i * i);
        assert_eq!(out.len(), 64);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn par_map_handles_zero_jobs() {
        let out: Vec<u64> = par_map_with(0, default_threads(0), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let expect: Vec<u64> = (0..101).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 3, 7, 64] {
            let out = par_map_with(101, threads, |i| i * 3 + 1);
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn nested_and_concurrent_par_maps_complete() {
        // Concurrent callers each drain their own groups with their own
        // helpers, and a job may start a pass of its own.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    let out = par_map_with(200, 8, |i| i * t);
                    assert_eq!(out[199], 199 * t);
                    let nested = par_map_with(4, 4, |i| par_map_with(8, 2, |j| i + j)[7]);
                    assert_eq!(nested, [7, 8, 9, 10]);
                });
            }
        });
    }

    #[test]
    fn helper_count_is_capped_by_groups_and_cores() {
        // Pure arithmetic: no thread is started, however many are asked.
        assert_eq!(
            helper_count(1_000_000, 10, cores()),
            9.min(cores() - 1),
            "cores={}",
            cores()
        );
        assert_eq!(helper_count(1_000_000, 10, 64), 9);
        assert_eq!(helper_count(1_000_000, 1_000_000, 2), 1);
        assert_eq!(helper_count(4, 10, 64), 3);
        // One thread, one group or one core: the pass runs inline.
        assert_eq!(helper_count(1, 10, 64), 0);
        assert_eq!(helper_count(8, 1, 64), 0);
        assert_eq!(helper_count(8, 10, 1), 0);
        assert_eq!(helper_count(8, 0, 64), 0);
        assert_eq!(helper_count(0, 10, 64), 0);
    }

    /// Sleeps until `flag` is set, for at most 10 s.
    fn wait_for(flag: &AtomicBool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !flag.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_panic_on_a_helper_reaches_the_caller() {
        // The caller holds its group until a helper has taken the other
        // one and panicked there. The call must panic, not hang: it runs
        // on a watchdog thread, and the test waits for it with a bound.
        let helpers = helper_count(2, 2, cores());
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let caller = std::thread::current().id();
            let helper_ran = AtomicBool::new(false);
            let result = catch_unwind(AssertUnwindSafe(|| {
                par_map_with(2, 2, |i| {
                    if std::thread::current().id() != caller {
                        helper_ran.store(true, Ordering::SeqCst);
                        panic!("job {i} panics on a helper");
                    }
                    if helpers > 0 {
                        wait_for(&helper_ran);
                    }
                    i
                })
            }));
            let _ = tx.send(result.is_err());
        });
        let panicked = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the call returns or panics within 30 s");
        // With one core the pass runs inline: no helper, no panic.
        assert_eq!(panicked, helpers > 0, "helpers={helpers}");
    }

    #[test]
    fn a_panic_on_the_caller_waits_for_running_helpers() {
        // The caller panics on its group while a helper's job still runs:
        // the call may unwind only after that job has finished and
        // written its result.
        let helpers = helper_count(2, 2, cores());
        let caller_panicked = AtomicBool::new(false);
        let finished = AtomicBool::new(false);
        let caller = std::thread::current().id();
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map_with(2, 2, |i| {
                if std::thread::current().id() == caller {
                    caller_panicked.store(true, Ordering::SeqCst);
                    panic!("job {i} panics on the caller");
                }
                wait_for(&caller_panicked);
                std::thread::sleep(Duration::from_millis(300));
                finished.store(true, Ordering::SeqCst);
                i
            })
        }));
        assert!(result.is_err());
        // With one core the caller runs the groups and stops at its first.
        assert_eq!(
            finished.load(Ordering::SeqCst),
            helpers > 0,
            "helpers={helpers}"
        );
    }

    #[test]
    fn default_args() {
        let a = Args::default();
        assert_eq!(a.graphs, 100);
        assert!(!a.csv);
        assert!(a.workloads.is_empty() && a.pes.is_empty() && a.schedulers.is_empty());
        assert!(!a.list_workloads && !a.list_schedulers);
    }

    #[test]
    fn filters_select_families_and_pes() {
        let args = Args {
            workloads: vec![
                "chain".parse().unwrap(),
                "fft:32".parse().unwrap(),
                "stencil2d:8x8".parse().unwrap(),
            ],
            pes: vec![2, 64],
            ..Args::default()
        };
        use stg_workloads::Topology;
        let chain = WorkloadKind::Synthetic(Topology::Chain { tasks: 8 });
        let fft = WorkloadKind::Synthetic(Topology::Fft { points: 32 });
        let chol = WorkloadKind::Synthetic(Topology::Cholesky { tiles: 8 });
        let stencil: WorkloadKind = "stencil2d:16x16".parse().unwrap();
        assert!(args.workload_selected(&chain));
        assert!(args.workload_selected(&fft));
        assert!(!args.workload_selected(&chol));
        // Family matching ignores sizes: any stencil passes the filter.
        assert!(args.workload_selected(&stencil));
        assert!(args.pes_selected(2) && args.pes_selected(64));
        assert!(!args.pes_selected(4));
        let all = Args::default();
        assert!(all.workload_selected(&chol));
        assert!(all.pes_selected(4));
    }
}
