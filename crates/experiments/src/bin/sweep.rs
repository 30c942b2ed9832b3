//! The engine frontend: run a declarative scenario sweep over the paper
//! suite and emit deterministic CSV (default) or JSON (`--json`).
//!
//! The grid defaults to the paper's synthetic suite; naming any other
//! registered family with `--workload` (e.g. `stencil2d:32x32`, `spmv`,
//! `resnet50`) adds it at its registry-default PE sweep. With an
//! identical spec (same `--graphs`, `--seed`, filters) the output is
//! byte-identical across reruns, `--threads` settings, `--sim` choices,
//! cold/warm `--cache-dir` states, *and* sharded/unsharded execution —
//! CI diffs runs pairwise to enforce all of these. Exits 1 if any
//! scenario fails to schedule, (under `--validate`) any simulation
//! deadlocks, or (under `--sim both`) the simulators diverge on any cell;
//! exits 2 on a bad flag or a failed write to stdout (e.g. a closed pipe).
//!
//! Caching and sharding (see the README's "Caching and sharded sweeps"):
//!
//! - `--cache-dir DIR` persists every evaluated cell under a
//!   content-addressed `CellKey`; warm reruns skip re-evaluation, and the
//!   `cell_cache_*` counters on the stderr counter line report the
//!   hit/miss/invalidation traffic.
//! - `--shard i/n` evaluates only the i-th of n contiguous slices of the
//!   case grid and writes a self-describing binary shard artifact
//!   (`STGSHRD`) to stdout instead of CSV/JSON.
//! - `sweep merge SHARD...` re-assembles a complete artifact set into
//!   output byte-identical to the unsharded run, CSV or `--json`.
//!
//! CSV/JSON is written by the engine's one `StreamMerger`, the same one
//! that writes `sweep merge` and `fabric coordinate` output. Graph-cache,
//! cell-cache, epoch-leap and validation-timing statistics are live
//! counters, so they go to stderr only, keeping stdout byte-stable. The
//! counters print as one `sweep:` (or `shard i/n:`) line of `name=value`
//! tokens, rendered by `stg_experiments::metrics` under the names the
//! service and fabric `stats` frames use. `--sim-timing` appends
//! wall-clock columns to the CSV/JSON, which are excluded from the
//! determinism contract.
//!
//! ```sh
//! cargo run --release --bin sweep -- --graphs 3 --validate
//! cargo run --release --bin sweep -- --graphs 3 --validate --cache-dir .sweep-cache
//! cargo run --release --bin sweep -- --graphs 3 --shard 0/3 > shard0
//! cargo run --release --bin sweep -- merge shard0 shard1 shard2
//! cargo run --release --bin sweep -- --workload chain,fft --pes 32 --json
//! cargo run --release --bin sweep -- --list-workloads --list-schedulers
//! ```

use std::io::{BufWriter, StdoutLock, Write};

use stg_experiments::metrics::CounterSet;
use stg_experiments::{Args, OutputKind, SweepSpec};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("merge") {
        merge_main(&argv[1..]);
        return;
    }
    if let Some(pos) = argv.iter().position(|a| a == "--distributed") {
        distributed_main(argv, pos);
        return;
    }
    let args = Args::parse(); // registry listing flags print and exit here
    let store = args.open_store();
    let spec = SweepSpec::paper(args.graphs, args.seed)
        .extend_from_filter(&args)
        .filtered(&args);

    if let Some(shard) = args.shard {
        if args.sim_timing {
            eprintln!("--sim-timing is incompatible with --shard: artifacts carry only the deterministic record fields");
            std::process::exit(2);
        }
        if args.json {
            eprintln!(
                "--json is incompatible with --shard: shard mode emits only the artifact \
                 format (pass --json to `sweep merge` instead)"
            );
            std::process::exit(2);
        }
        // Refuse up front a grid the artifact's spec header cannot carry
        // (e.g. an empty one), instead of after evaluating it.
        or_exit(
            spec.encode_spec()
                .map_err(|e| format!("cannot shard this grid: {e}")),
        );
        let result = spec.run_shard(shard, store.as_ref());
        let bytes = or_exit(
            result
                .artifact_bytes()
                .map_err(|e| format!("cannot emit shard artifact: {e}")),
        );
        let mut out = stdout();
        or_exit(
            out.write_all(&bytes)
                .and_then(|()| out.flush())
                .map_err(|e| format!("shard output: {e}")),
        );
        eprintln!(
            "shard {shard}: cases {}..{} of {}; {} {} {}",
            result.range.start,
            result.range.end,
            result.total,
            result.cache.text(),
            result.cell_cache.text(),
            result.leap.text()
        );
        result.tallies().exit_on_failures();
        return;
    }

    if args.sim_timing && store.is_some() {
        eprintln!("note: --sim-timing bypasses the cell cache (cached cells cannot report fresh wall-clocks)");
    }
    let sweep = spec.run_with(store.as_ref());
    let report = or_exit(sweep.emit(output_kind(args.json), stdout()));
    eprintln!(
        "sweep: {} scenarios; {} {} {}",
        sweep.runs.len(),
        sweep.cache.text(),
        sweep.cell_cache.text(),
        sweep.leap.text()
    );
    if let Some(timing) = sweep.sim_timing_summary() {
        eprint!("{timing}");
    }
    report.exit_on_failures();
}

/// Stdout behind a buffer, so rows cost no write syscall each.
fn stdout() -> BufWriter<StdoutLock<'static>> {
    BufWriter::new(std::io::stdout().lock())
}

fn output_kind(json: bool) -> OutputKind {
    if json {
        OutputKind::Json
    } else {
        OutputKind::Csv
    }
}

/// The value of `result`, or an `ERROR:` line on stderr and exit 2: a
/// rejected input or a failed write (e.g. stdout closed early).
fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("ERROR: {e}");
        std::process::exit(2);
    })
}

/// `sweep --distributed N ...`: delegate to `fabric coordinate --workers N`
/// with the remaining flags. The fabric binary lives next to `sweep` in
/// the target directory; stdout/stderr are inherited, so the artifact and
/// exit-code behavior match a local run (see the README's "Distributed
/// sweeps").
fn distributed_main(mut argv: Vec<String>, pos: usize) {
    argv.remove(pos); // --distributed
    let workers: usize = if pos < argv.len() && !argv[pos].starts_with("--") {
        argv.remove(pos).parse().unwrap_or_else(|_| {
            eprintln!("--distributed N needs a worker count of at least 1");
            std::process::exit(2);
        })
    } else {
        eprintln!("--distributed N needs a worker count of at least 1");
        std::process::exit(2);
    };
    if workers == 0 {
        eprintln!("--distributed N needs a worker count of at least 1");
        std::process::exit(2);
    }
    if argv.iter().any(|a| a == "--shard") {
        eprintln!(
            "--distributed is incompatible with --shard: the fabric already partitions the grid"
        );
        std::process::exit(2);
    }
    let fabric = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("fabric")))
        .unwrap_or_else(|| "fabric".into());
    let status = std::process::Command::new(&fabric)
        .arg("coordinate")
        .arg("--workers")
        .arg(workers.to_string())
        .args(&argv)
        .status()
        .unwrap_or_else(|e| {
            eprintln!(
                "ERROR: cannot launch {} (build the fabric binary alongside sweep): {e}",
                fabric.display()
            );
            std::process::exit(2);
        });
    std::process::exit(status.code().unwrap_or(1));
}

/// `sweep merge SHARD... [--json]`: re-assemble shard artifacts into the
/// byte-identical unsharded output. The spec travels inside the artifacts,
/// so no grid flags are needed (or accepted).
fn merge_main(rest: &[String]) {
    let mut json = false;
    let mut files: Vec<&String> = Vec::new();
    for arg in rest {
        match arg.as_str() {
            "--json" => json = true,
            other if other.starts_with("--") => {
                eprintln!(
                    "sweep merge supports only --json; the sweep spec is embedded in the artifacts"
                );
                std::process::exit(2);
            }
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        eprintln!("usage: sweep merge SHARD-FILE... [--json]");
        std::process::exit(2);
    }
    let artifacts: Vec<Vec<u8>> = files
        .iter()
        .map(|path| {
            std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("cannot read shard artifact {path}: {e}");
                std::process::exit(2);
            })
        })
        .collect();
    let report = or_exit(
        SweepSpec::merge_shard_bytes(&artifacts, output_kind(json), stdout())
            .map_err(|e| format!("merge failed: {e}")),
    );
    eprintln!(
        "merged {} shards into {} runs",
        artifacts.len(),
        report.rows
    );
    report.exit_on_failures();
}
