//! The distributed sweep fabric CLI.
//!
//! Three subcommands:
//!
//! - `fabric coordinate [FABRIC FLAGS] [SWEEP FLAGS]` — bind a
//!   coordinator, expand the sweep grid from the usual `sweep` flags
//!   (`--graphs`, `--seed`, `--workload`, `--pes`, `--scheduler`,
//!   `--validate`, `--sim`, `--json`, `--cache-dir`, …), serve leases
//!   until the artifact is complete, and stream byte-identical CSV/JSON
//!   to stdout. Fabric flags: `--addr A` (default `127.0.0.1:0`; the
//!   bound address prints to stderr), `--workers N` (in-process worker
//!   threads), `--spawn N` (child `fabric work` processes),
//!   `--lease-cells N`, `--lease-timeout-ms T`, `--eval-delay-ms D`
//!   (forwarded to workers; fault-test hook). Each of the `--workers`
//!   plus `--spawn` workers gets `--threads` evaluation threads, by
//!   default an equal share of the cores (at least one).
//! - `fabric work --connect ADDR [--cache-dir DIR] [--threads N]
//!   [--eval-delay-ms D] [--name S]` — one worker, runs to drain. It
//!   holds N connections (default: one per core), each leasing and
//!   evaluating on its own thread, sharing one result store.
//! - `fabric stats --connect ADDR` — print a live coordinator's counters
//!   as the `fabric:` line of `name=value` tokens `fabric coordinate`
//!   prints on stderr at exit.
//!
//! `sweep --distributed N` delegates to `fabric coordinate --workers N`.
//!
//! ```sh
//! cargo run --release --bin fabric -- coordinate --workers 4 \
//!     --workload stencil2d,spmv --graphs 2 --validate > distributed.csv
//! ```

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::process::{Child, Command};
use std::time::Duration;

use stg_experiments::metrics::CounterSet;
use stg_experiments::{cores, Args, SweepSpec};
use stg_fabric::{
    run_worker, threads_per_worker, Coordinator, FabricConfig, FabricRequest, FabricResponse,
    FabricSnapshot, OutputKind, WorkerConfig, MAX_FRAME_BYTES,
};
use stg_service::read_frame;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("coordinate") => coordinate_main(&argv[1..]),
        Some("work") => work_main(&argv[1..]),
        Some("stats") => stats_main(&argv[1..]),
        _ => {
            eprintln!(
                "usage: fabric coordinate [FABRIC FLAGS] [SWEEP FLAGS]\n\
                 \x20      fabric work --connect ADDR [--cache-dir DIR] [--threads N] \
                 [--eval-delay-ms D] [--name S]\n\
                 \x20      fabric stats --connect ADDR\n\
                 fabric work --threads N holds N connections to the coordinator, each \
                 evaluating on its own thread (default: one per core)"
            );
            std::process::exit(2);
        }
    }
}

/// Parses the flag's value operand, exiting with usage on absence/junk.
fn value<T: std::str::FromStr>(argv: &[String], i: &mut usize, flag: &str) -> T {
    *i += 1;
    argv.get(*i)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        })
}

fn coordinate_main(argv: &[String]) {
    let mut addr = "127.0.0.1:0".to_string();
    let mut workers = 0usize;
    let mut spawn = 0usize;
    let mut lease_cells = 0usize;
    let mut lease_timeout_ms = 30_000u64;
    let mut eval_delay_ms = 0u64;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => addr = value(argv, &mut i, "--addr"),
            "--workers" => workers = value(argv, &mut i, "--workers"),
            "--spawn" => spawn = value(argv, &mut i, "--spawn"),
            "--lease-cells" => lease_cells = value(argv, &mut i, "--lease-cells"),
            "--lease-timeout-ms" => lease_timeout_ms = value(argv, &mut i, "--lease-timeout-ms"),
            "--eval-delay-ms" => eval_delay_ms = value(argv, &mut i, "--eval-delay-ms"),
            _ => rest.push(argv[i].clone()),
        }
        i += 1;
    }
    if workers == 0 && spawn == 0 {
        workers = 1; // a coordinator with no workers would wait forever
    }
    let args = Args::parse_from(rest);
    if args.sim_timing {
        eprintln!("--sim-timing is not supported by fabric coordinate: wall-clocks are per-worker and non-deterministic");
        std::process::exit(2);
    }
    args.reject_shard("fabric coordinate");
    let spec = SweepSpec::paper(args.graphs, args.seed)
        .extend_from_filter(&args)
        .filtered(&args);
    let config = FabricConfig {
        addr,
        lease_cells,
        lease_timeout: Duration::from_millis(lease_timeout_ms.max(1)),
        cache_dir: args.cache_dir.clone(),
        kind: if args.json {
            OutputKind::Json
        } else {
            OutputKind::Csv
        },
    };
    let coordinator = Coordinator::bind(spec, config).unwrap_or_else(|e| {
        eprintln!("ERROR: {e}");
        std::process::exit(2);
    });
    let bound = coordinator.addr();
    eprintln!("fabric: listening on {bound}");

    let eval_delay = Duration::from_millis(eval_delay_ms);
    // About one evaluating thread per core across the whole fabric.
    let threads = args
        .threads
        .unwrap_or_else(|| threads_per_worker(cores(), workers + spawn));
    let mut children: Vec<Child> = Vec::new();
    for n in 0..spawn {
        let exe = std::env::current_exe().unwrap_or_else(|e| {
            eprintln!("ERROR: cannot locate the fabric binary: {e}");
            std::process::exit(2);
        });
        let mut cmd = Command::new(exe);
        cmd.arg("work")
            .arg("--connect")
            .arg(bound.to_string())
            .arg("--name")
            .arg(format!("spawned-{n}"))
            .arg("--threads")
            .arg(threads.to_string());
        if eval_delay_ms > 0 {
            cmd.arg("--eval-delay-ms").arg(eval_delay_ms.to_string());
        }
        match cmd.spawn() {
            Ok(child) => children.push(child),
            Err(e) => {
                eprintln!("ERROR: spawn worker: {e}");
                std::process::exit(2);
            }
        }
    }
    let mut handles = Vec::new();
    for n in 0..workers {
        let config = WorkerConfig {
            addr: bound.to_string(),
            cache_dir: None, // the coordinator advertises --cache-dir
            threads: Some(threads),
            eval_delay,
            name: format!("inproc-{n}"),
        };
        handles.push(std::thread::spawn(move || {
            if let Err(e) = run_worker(config) {
                eprintln!("fabric: worker {}: {e}", config_name(n));
            }
        }));
    }

    let out = BufWriter::new(std::io::stdout());
    let report = coordinator.run(out).unwrap_or_else(|e| {
        eprintln!("ERROR: {e}");
        std::process::exit(2);
    });
    for handle in handles {
        let _ = handle.join();
    }
    for mut child in children {
        let _ = child.wait(); // workers exit on drain; killed ones reap here
    }
    eprintln!("fabric: {}", report.counters.text());
    report.merge.exit_on_failures();
}

fn config_name(n: usize) -> String {
    format!("inproc-{n}")
}

fn work_main(argv: &[String]) {
    let mut config = WorkerConfig::default();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--connect" => config.addr = value(argv, &mut i, "--connect"),
            "--cache-dir" => {
                config.cache_dir = Some(value::<String>(argv, &mut i, "--cache-dir").into())
            }
            "--threads" => config.threads = Some(value(argv, &mut i, "--threads")),
            "--eval-delay-ms" => {
                config.eval_delay = Duration::from_millis(value(argv, &mut i, "--eval-delay-ms"))
            }
            "--name" => config.name = value(argv, &mut i, "--name"),
            other => {
                eprintln!(
                    "unknown fabric work flag {other}; supported: --connect ADDR \
                     --cache-dir DIR --threads N --eval-delay-ms D --name S"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if config.addr.is_empty() {
        eprintln!("fabric work requires --connect ADDR (printed by fabric coordinate)");
        std::process::exit(2);
    }
    match run_worker(config) {
        Ok(report) => eprintln!(
            "fabric: drained after {} leases, {} rows reported, {} repaired",
            report.leases, report.rows_reported, report.repaired
        ),
        Err(e) => {
            eprintln!("ERROR: {e}");
            std::process::exit(1);
        }
    }
}

fn stats_main(argv: &[String]) {
    let mut addr = String::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--connect" => addr = value(argv, &mut i, "--connect"),
            other => {
                eprintln!("unknown fabric stats flag {other}; supported: --connect ADDR");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if addr.is_empty() {
        eprintln!("fabric stats requires --connect ADDR");
        std::process::exit(2);
    }
    let snap = fetch_stats(&addr).unwrap_or_else(|e| {
        eprintln!("ERROR: {e}");
        std::process::exit(1);
    });
    println!("fabric: {}", snap.text());
}

/// One `stats` round-trip against a live coordinator.
fn fetch_stats(addr: &str) -> Result<FabricSnapshot, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?,
    );
    let mut frame = FabricRequest::Stats.frame();
    frame.push('\n');
    stream
        .write_all(frame.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    match read_frame(&mut reader, MAX_FRAME_BYTES).map_err(|e| format!("recv: {e}"))? {
        Some(Ok(line)) => match FabricResponse::parse(&line)? {
            FabricResponse::Stats(snap) => Ok(snap),
            FabricResponse::Error { error } => Err(error),
            other => Err(format!("unexpected stats reply: {}", other.frame())),
        },
        Some(Err(len)) => Err(format!("oversize {len}-byte response frame")),
        None => Err("coordinator closed the connection".to_string()),
    }
}
