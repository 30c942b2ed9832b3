//! The scheduler service daemon.
//!
//! ```text
//! serve [--addr 127.0.0.1:7171] [--workers N] [--queue-bound N]
//!       [--tenant-quota N] [--cache-dir DIR] [--max-tasks N]
//!       [--eval-delay-ms N]
//! ```
//!
//! Binds the address (`:0` picks an ephemeral port), prints one
//! `listening on ...` line, and serves until a `{"cmd":"shutdown"}`
//! frame drains the queue. Count flags reject zero and non-numeric
//! values with exit code 2.

use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use stg_service::{Daemon, Service, ServiceConfig};

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--workers N] [--queue-bound N] \
         [--tenant-quota N] [--cache-dir DIR] [--max-tasks N] [--eval-delay-ms N]"
    );
    exit(2);
}

fn value(flag: &str, it: &mut impl Iterator<Item = String>) -> String {
    it.next()
        .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
}

/// Parses a count flag, rejecting 0 and non-numeric values (exit 2) —
/// a zero worker pool or queue bound is a misconfiguration, not a
/// default to silently clamp.
fn count(flag: &str, it: &mut impl Iterator<Item = String>) -> usize {
    let v = value(flag, it);
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        Ok(_) => fail(&format!("{flag} must be at least 1, got 0")),
        Err(_) => fail(&format!("{flag} needs a positive integer, got {v:?}")),
    }
}

fn main() {
    let mut addr = "127.0.0.1:7171".to_string();
    let mut workers = 4usize;
    let mut queue_bound = 64usize;
    let mut tenant_quota: Option<usize> = None;
    let mut config = ServiceConfig::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = value("--addr", &mut it),
            "--workers" => workers = count("--workers", &mut it),
            "--queue-bound" => queue_bound = count("--queue-bound", &mut it),
            "--tenant-quota" => tenant_quota = Some(count("--tenant-quota", &mut it)),
            "--cache-dir" => config.cache_dir = Some(value("--cache-dir", &mut it).into()),
            "--max-tasks" => config.max_tasks = count("--max-tasks", &mut it),
            "--eval-delay-ms" => {
                let v = value("--eval-delay-ms", &mut it);
                let ms: u64 = v.parse().unwrap_or_else(|_| {
                    fail(&format!(
                        "--eval-delay-ms needs an unsigned integer, got {v:?}"
                    ))
                });
                config.eval_delay = Duration::from_millis(ms);
            }
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    let service = match Service::new(config) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("error: cannot open service: {e}");
            exit(1);
        }
    };
    let daemon =
        match Daemon::bind_with_quota(addr.as_str(), service, workers, queue_bound, tenant_quota) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("error: cannot bind {addr}: {e}");
                exit(1);
            }
        };
    println!(
        "listening on {} (workers={workers}, queue-bound={queue_bound})",
        daemon.addr()
    );
    daemon.wait();
}
