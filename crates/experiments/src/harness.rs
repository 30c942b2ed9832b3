//! Shared experiment plumbing: argument parsing and a parallel map over
//! a persistent worker pool for sweeping the 100-graph samples.

use std::str::FromStr;

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

/// The worker count [`par_map`] uses for `n` jobs: available parallelism
/// capped at the job count.
pub fn default_threads(n: u64) -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n.max(1) as usize)
}

/// Applies `f` to `0..n` in parallel on the persistent worker pool,
/// returning results in index order. The closure receives the job index.
pub fn par_map<T: Send>(n: u64, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    par_map_with(n, default_threads(n), f)
}

/// [`par_map`] with an explicit worker count. The output is a pure
/// function of `n` and `f` — the thread count only affects wall-clock
/// time, never results or their order.
///
/// Work runs on a process-wide persistent pool (see [`pool_threads`]):
/// the calling thread drains chunks alongside at most `threads - 1` pool
/// workers, so per-call concurrency never exceeds `threads` and no call
/// ever spawns a fresh OS thread. The sweep engine's prefetch and
/// evaluate stages — and the fabric worker's 32-cell chunk loop, which
/// used to pay a thread-spawn per chunk — all route through here.
pub fn par_map_with<T: Send>(n: u64, threads: usize, f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let threads = threads.max(1).min(n.max(1) as usize);
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    if threads <= 1 {
        for (i, slot) in results.iter_mut().enumerate() {
            *slot = Some(f(i as u64));
        }
        return results
            .into_iter()
            .map(|r| r.expect("all jobs completed"))
            .collect();
    }
    // Split the output into contiguous chunks handed to workers whole
    // (disjoint `&mut` slices — no per-slot locking). Several chunks per
    // worker keep dynamic load balancing for skewed job costs.
    let chunk_size = (n as usize).div_ceil(threads * 4).max(1);
    let mut chunks: Vec<(u64, &mut [Option<T>])> = Vec::new();
    let mut rest: &mut [Option<T>] = &mut results;
    let mut base = 0u64;
    while !rest.is_empty() {
        let take = chunk_size.min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        chunks.push((base, head));
        base += take as u64;
        rest = tail;
    }
    chunks.reverse(); // pop() hands out low indices first
    pool::run_chunked(chunks, threads - 1, &f);
    results
        .into_iter()
        .map(|r| r.expect("all jobs completed"))
        .collect()
}

/// The persistent worker-pool size (available parallelism, fixed at first
/// use). [`par_map_with`] borrows at most `threads - 1` of these per call;
/// the pool is shared by every concurrent caller in the process.
pub fn pool_threads() -> usize {
    pool::global().workers
}

/// Total worker OS threads the pool has ever spawned — stays at
/// [`pool_threads`] for the process lifetime; tests pin that repeated
/// [`par_map_with`] calls do not spawn fresh threads.
pub fn pool_threads_spawned() -> usize {
    pool::threads_spawned()
}

/// The persistent worker pool behind [`par_map_with`].
///
/// Spawning `threads` scoped OS threads per call was fine for one sweep
/// per process, but the fabric worker calls the engine once per 32-cell
/// chunk and `lookup_many` prefetches once per sweep stage — thousands of
/// short-lived thread spawns per run. The pool spawns `available_parallelism`
/// detached workers once, and each `par_map_with` call enqueues a helper
/// job per borrowed worker; the calling thread always participates, so a
/// busy pool degrades to inline execution instead of deadlocking.
mod pool {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, Once, OnceLock};

    /// A type-erased "help drain this call's chunk queue" handle. `run`
    /// returns once the queue is empty; several workers may run the same
    /// task concurrently.
    trait TaskRun: Send + Sync {
        fn run(&self);
    }

    struct PoolState {
        /// Queued helper jobs, tagged by task id so an owner can cancel
        /// its not-yet-started helpers when it finishes draining first.
        queue: VecDeque<(u64, Arc<dyn TaskRun>)>,
        next_task: u64,
    }

    pub(super) struct WorkerPool {
        state: Mutex<PoolState>,
        work_ready: Condvar,
        pub(super) workers: usize,
    }

    static SPAWNED: AtomicUsize = AtomicUsize::new(0);

    pub(super) fn threads_spawned() -> usize {
        SPAWNED.load(Ordering::Relaxed)
    }

    pub(super) fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        static START: Once = Once::new();
        let pool = POOL.get_or_init(|| WorkerPool {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                next_task: 0,
            }),
            work_ready: Condvar::new(),
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
        });
        START.call_once(|| {
            for i in 0..pool.workers {
                SPAWNED.fetch_add(1, Ordering::Relaxed);
                std::thread::Builder::new()
                    .name(format!("stg-pool-{i}"))
                    .spawn(move || pool.worker_loop())
                    .expect("spawn pool worker");
            }
        });
        pool
    }

    impl WorkerPool {
        fn worker_loop(&self) {
            loop {
                let job = {
                    let mut st = self.state.lock().expect("pool state");
                    loop {
                        if let Some((_, task)) = st.queue.pop_front() {
                            break task;
                        }
                        st = self.work_ready.wait(st).expect("pool state");
                    }
                };
                job.run();
            }
        }

        /// Enqueues `copies` helper jobs for `task`; returns the task id
        /// for [`WorkerPool::cancel`].
        fn submit(&self, task: Arc<dyn TaskRun>, copies: usize) -> u64 {
            let id = {
                let mut st = self.state.lock().expect("pool state");
                let id = st.next_task;
                st.next_task += 1;
                for _ in 0..copies {
                    st.queue.push_back((id, Arc::clone(&task)));
                }
                id
            };
            if copies == 1 {
                self.work_ready.notify_one();
            } else {
                self.work_ready.notify_all();
            }
            id
        }

        /// Removes every not-yet-started helper job of `id`, returning how
        /// many were cancelled. A job a worker already popped is committed
        /// and will report completion itself.
        fn cancel(&self, id: u64) -> usize {
            let mut st = self.state.lock().expect("pool state");
            let before = st.queue.len();
            st.queue.retain(|(tid, _)| *tid != id);
            before - st.queue.len()
        }
    }

    /// A queue of (start index, output slice) chunks awaiting a worker.
    type ChunkQueue<'a, T> = Vec<(u64, &'a mut [Option<T>])>;

    /// One `par_map_with` call's shared state: the chunk queue, the job
    /// closure, and a completion latch for the helper jobs.
    struct MapTask<'a, T: Send, F: Fn(u64) -> T + Sync> {
        chunks: Mutex<ChunkQueue<'a, T>>,
        f: &'a F,
        done: Mutex<usize>,
        all_done: Condvar,
    }

    impl<T: Send, F: Fn(u64) -> T + Sync> TaskRun for MapTask<'_, T, F> {
        fn run(&self) {
            loop {
                let Some((start, slice)) = self.chunks.lock().expect("chunk queue").pop() else {
                    break;
                };
                for (j, slot) in slice.iter_mut().enumerate() {
                    *slot = Some((self.f)(start + j as u64));
                }
            }
            let mut done = self.done.lock().expect("done latch");
            *done += 1;
            self.all_done.notify_all();
        }
    }

    /// Drains `chunks` with the calling thread plus up to `helpers` pool
    /// workers. Returns only after every chunk ran and every helper job
    /// that started has finished — the borrows inside `chunks`/`f` stay
    /// valid for as long as any worker can touch them.
    pub(super) fn run_chunked<T: Send, F: Fn(u64) -> T + Sync>(
        chunks: Vec<(u64, &mut [Option<T>])>,
        helpers: usize,
        f: &F,
    ) {
        let task = Arc::new(MapTask {
            chunks: Mutex::new(chunks),
            f,
            done: Mutex::new(0),
            all_done: Condvar::new(),
        });
        let pool = global();
        let helpers = helpers.min(pool.workers);
        let erased: Arc<dyn TaskRun + '_> = task.clone();
        // SAFETY: the erased handle borrows `chunks` and `f` for the
        // caller's lifetime, not 'static. Before this function returns we
        // (a) cancel every helper job no worker has started, (b) wait for
        // every started helper to report completion, and (c) spin until
        // the last worker drops its Arc clone — so no borrow is ever
        // touched (or even held) past this call.
        let erased: Arc<dyn TaskRun + 'static> = unsafe { std::mem::transmute(erased) };
        let id = pool.submit(erased, helpers);
        // The caller is always one of the drainers: if the pool is busy
        // with other callers' work, this call still makes progress.
        task.run();
        let cancelled = pool.cancel(id);
        let expect = 1 + helpers - cancelled;
        let mut done = task.done.lock().expect("done latch");
        while *done < expect {
            done = task.all_done.wait(done).expect("done latch");
        }
        drop(done);
        // A worker that just reported may still hold its Arc clone for an
        // instant; wait it out so the allocation (whose type carries the
        // caller's lifetimes) is dropped strictly inside this scope.
        while Arc::strong_count(&task) != 1 {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let out = par_map(64, |i| i * i);
        assert_eq!(out.len(), 64);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn par_map_handles_zero_jobs() {
        let out: Vec<u64> = par_map(0, |i| i);
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
    fn repeated_calls_reuse_the_persistent_pool() {
        // Warm the pool, snapshot the spawn counter, then hammer it: no
        // call may spawn a fresh OS thread (the old implementation
        // spawned `threads` scoped threads per call).
        let _ = par_map_with(16, 4, |i| i);
        let spawned = pool_threads_spawned();
        assert_eq!(spawned, pool_threads());
        for round in 0..32 {
            let out = par_map_with(64, 4, |i| i + round);
            assert_eq!(out.len(), 64);
            assert_eq!(out[0], round);
        }
        assert_eq!(pool_threads_spawned(), spawned, "no fresh threads");
    }

    #[test]
    fn nested_and_concurrent_par_maps_complete() {
        // Concurrent callers share the pool; each caller drains its own
        // chunks, so a saturated pool cannot deadlock a call.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    let out = par_map_with(200, 8, |i| i * t);
                    assert_eq!(out[199], 199 * t);
                });
            }
        });
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
