//! The fabric worker: connects to a coordinator, leases cell ranges,
//! evaluates them in small chunks through the shared sweep engine, and
//! reports rows back until told to drain.
//!
//! A worker with `threads` T holds T connections, each leasing,
//! evaluating and reporting on a thread of its own: parallel across
//! leases, as workers are, never within a chunk. The first connection's
//! handshake and result store serve them all.
//!
//! Cells single-flight on their semantic key like every engine pass:
//! through the result store when the worker has one, else through a
//! [`SemanticTable`] that lives for one lease. A lease table lets reuse
//! span the lease's chunks, and the lease size cap bounds it on any grid,
//! where a table kept for the worker's lifetime would grow with the grid.
//!
//! A worker with a store commits it at two points: a segment file each
//! time [`FLUSH_THRESHOLD`](stg_experiments::store::FLUSH_THRESHOLD)
//! entries are queued, and one more at drain, after every connection has
//! stopped. A chunk's rows are reported before its entries reach the
//! disk. A killed worker loses only its uncommitted entries, which a
//! later run evaluates again as misses, never as wrong answers.
//!
//! Workers are expendable by design: any post-handshake I/O failure is a
//! graceful drain (the coordinator re-queues whatever the connection
//! held), and a `gone` ack makes a connection abandon the lease
//! immediately. The only hard errors are the first connection's
//! connect/handshake failures, a spec the one spec validation refuses,
//! and a spec whose size or fingerprint disagrees with the coordinator's
//! — evaluating under a mismatched grid would silently corrupt the merge.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use stg_experiments::store::{ResultStore, SemanticTable};
use stg_experiments::{cores, SingleFlight, SweepSpec};
use stg_service::read_frame;

use crate::coordinator::LeaseTuner;
use crate::protocol::{FabricRequest, FabricResponse, MAX_FRAME_BYTES, MAX_ROWS_PER_FRAME};

/// Cells evaluated (and reported) per chunk: small enough that steals and
/// kill-mid-lease re-queues lose little work, large enough to amortize
/// the round-trip. Bounded by [`MAX_ROWS_PER_FRAME`].
const CHUNK_CELLS: usize = 32;

/// Worker tuning knobs.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub addr: String,
    /// Result-store directory override; `None` uses the directory the
    /// coordinator advertises (if any).
    pub cache_dir: Option<PathBuf>,
    /// Evaluation threads: the worker holds this many connections, each
    /// leasing and evaluating on one thread (`None`: one per core).
    pub threads: Option<usize>,
    /// Artificial per-cell delay before each chunk — a deterministic
    /// hook for the kill-mid-lease fault tests; zero in production.
    pub eval_delay: Duration,
    /// Worker name reported in the handshake (diagnostics only).
    pub name: String,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            addr: String::new(),
            cache_dir: None,
            threads: None,
            eval_delay: Duration::ZERO,
            name: "worker".into(),
        }
    }
}

/// What a drained worker reports, summed over its connections.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Leases this worker served (including stolen ones it received).
    pub leases: u64,
    /// Rows it reported to the coordinator.
    pub rows_reported: u64,
}

/// The evaluation threads `fabric coordinate` gives each of its
/// `workers` workers when `--threads` is not given: an equal share of the
/// machine's `cores`, at least one. A fabric on one machine then runs
/// about one evaluating thread per core.
pub fn threads_per_worker(cores: usize, workers: usize) -> usize {
    (cores / workers.max(1)).max(1)
}

/// Runs one worker to drain: the first connection's handshake, then one
/// lease/evaluate/report loop per connection, graceful exit on `drain` or
/// lost coordinator.
pub fn run_worker(config: WorkerConfig) -> Result<WorkerReport, String> {
    // Handshake: fetch the spec and verify we expand the same grid.
    let hello = FabricRequest::Hello {
        name: config.name.clone(),
    };
    let mut first = Connection::open(&config.addr)?;
    let handshake = first.exchange(&hello)?;
    let (mut spec, cache_dir) = match &handshake {
        FabricResponse::Spec {
            spec,
            fingerprint,
            total,
            cache_dir,
        } => {
            let spec = SweepSpec::decode_spec(spec)?;
            // The size first: it is arithmetic, while the fingerprint walks
            // every cell of whatever grid the frame claims.
            let local_total = spec.total_cases();
            if local_total != *total {
                return Err(format!(
                    "grid size mismatch: coordinator {total}, local {local_total}"
                ));
            }
            let local = spec.grid_fingerprint();
            if local != *fingerprint {
                return Err(format!(
                    "spec fingerprint mismatch: coordinator {fingerprint:016x}, \
                     local {local:016x} (version skew?)"
                ));
            }
            (spec, cache_dir.clone())
        }
        FabricResponse::Error { error } => return Err(format!("handshake rejected: {error}")),
        other => return Err(format!("unexpected handshake reply: {}", other.frame())),
    };
    spec.threads = Some(1);
    // One store for every connection, committed at drain.
    let store = match config.cache_dir.clone().or(cache_dir.map(PathBuf::from)) {
        Some(dir) => Some(
            ResultStore::at_dir(&dir)
                .map_err(|e| format!("open cache dir {}: {e}", dir.display()))?,
        ),
        None => None,
    };

    let (spec, store, config) = (&spec, store.as_ref(), &config);
    let results = std::thread::scope(|s| {
        // A later connection checks that it reaches the same grid. One
        // that cannot start or handshake counts as drained: the
        // coordinator may be done already.
        let later: Vec<_> = (1..config.threads.unwrap_or_else(cores))
            .filter_map(|_| {
                std::thread::Builder::new()
                    .spawn_scoped(s, || {
                        let Ok(mut conn) = Connection::open(&config.addr) else {
                            return Ok(WorkerReport::default());
                        };
                        match conn.exchange(&hello) {
                            Ok(reply) if reply == handshake => conn.serve(spec, store, config),
                            Ok(reply) => Err(format!("handshake changed: {}", reply.frame())),
                            Err(_) => Ok(WorkerReport::default()),
                        }
                    })
                    .ok()
            })
            .collect();
        let mut results = vec![first.serve(spec, store, config)];
        for conn in later {
            results.push(conn.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        results
    });
    if let Some(store) = store {
        store.flush();
    }
    let mut report = WorkerReport::default();
    for r in results {
        let r = r?;
        report.leases += r.leases;
        report.rows_reported += r.rows_reported;
    }
    Ok(report)
}

/// One request/response connection to the coordinator.
struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn open(addr: &str) -> Result<Connection, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))?,
        );
        Ok(Connection { stream, reader })
    }

    /// One coordinator exchange: send `req`, read one response frame.
    fn exchange(&mut self, req: &FabricRequest) -> Result<FabricResponse, String> {
        let mut frame = req.frame();
        frame.push('\n');
        self.stream
            .write_all(frame.as_bytes())
            .and_then(|()| self.stream.flush())
            .map_err(|e| format!("send: {e}"))?;
        match read_frame(&mut self.reader, MAX_FRAME_BYTES).map_err(|e| format!("recv: {e}"))? {
            Some(Ok(line)) => FabricResponse::parse(&line),
            Some(Err(len)) => Err(format!("oversize {len}-byte response frame")),
            None => Err("coordinator closed the connection".to_string()),
        }
    }

    /// The lease loop of one connection, until `drain` or a lost
    /// coordinator.
    fn serve(
        &mut self,
        spec: &SweepSpec,
        store: Option<&ResultStore>,
        config: &WorkerConfig,
    ) -> Result<WorkerReport, String> {
        let mut report = WorkerReport::default();
        loop {
            let next = FabricRequest::Next {
                name: config.name.clone(),
            };
            match self.exchange(&next) {
                Ok(FabricResponse::Lease {
                    lease, start, end, ..
                }) => {
                    report.leases += 1;
                    report.rows_reported +=
                        self.serve_lease(spec, store, config, lease, start, end)?;
                }
                Ok(FabricResponse::Wait { ms }) => {
                    std::thread::sleep(Duration::from_millis(ms.min(1_000)));
                }
                Ok(FabricResponse::Drain) => break,
                Ok(FabricResponse::Error { error }) => return Err(format!("coordinator: {error}")),
                Ok(other) => return Err(format!("unexpected next reply: {}", other.frame())),
                // Lost coordinator after handshake: our leases re-queue.
                Err(_) => break,
            }
        }
        Ok(report)
    }

    /// Evaluates one lease chunk-by-chunk, truncating to each ack's `end`
    /// (the lease shrinks when another worker steals its upper half).
    /// Without a store, the chunks share one [`SemanticTable`] sized to
    /// the lease, up to [`LeaseTuner::MAX_CELLS`] keys.
    fn serve_lease(
        &mut self,
        spec: &SweepSpec,
        store: Option<&ResultStore>,
        config: &WorkerConfig,
        lease: u64,
        start: usize,
        mut end: usize,
    ) -> Result<u64, String> {
        let table;
        let flight = match store {
            Some(store) => SingleFlight::Store(store),
            None => {
                // Bounded by the largest auto-tuned lease, whatever lease a
                // `--lease-cells` pin or a coordinator hands out.
                table = SemanticTable::with_capacity(
                    end.saturating_sub(start).min(LeaseTuner::MAX_CELLS),
                );
                SingleFlight::Table(&table)
            }
        };
        let mut reported = 0u64;
        let mut pos = start;
        while pos < end {
            let chunk_end = (pos + CHUNK_CELLS.min(MAX_ROWS_PER_FRAME)).min(end);
            if !config.eval_delay.is_zero() {
                // Deterministic straggler/kill window for the fault tests.
                std::thread::sleep(config.eval_delay * (chunk_end - pos) as u32);
            }
            let result = spec.run_cases_on(spec.cases_slice(pos..chunk_end), flight);
            let rows: Vec<_> = result
                .runs
                .into_iter()
                .map(|run| (run.case.index, run.outcome))
                .collect();
            reported += rows.len() as u64;
            let req = FabricRequest::Rows {
                lease,
                rows,
                hits: result.cell_cache.hits,
                misses: result.cell_cache.misses,
                leap: result.leap,
            };
            match self.exchange(&req) {
                Ok(FabricResponse::Ack { end: new_end }) => {
                    end = new_end;
                    pos = chunk_end;
                }
                // Lease re-queued or stolen out from under us: abandon it.
                Ok(FabricResponse::Gone) => break,
                Ok(FabricResponse::Error { error }) => return Err(format!("coordinator: {error}")),
                Ok(other) => return Err(format!("unexpected rows reply: {}", other.frame())),
                // Lost coordinator: stop; the lease deadline re-queues it.
                Err(_) => break,
            }
        }
        Ok(reported)
    }
}

#[cfg(test)]
mod tests {
    use super::threads_per_worker;

    #[test]
    fn workers_share_the_cores_with_at_least_one_thread_each() {
        assert_eq!(threads_per_worker(8, 1), 8);
        assert_eq!(threads_per_worker(8, 2), 4);
        assert_eq!(threads_per_worker(8, 3), 2);
        assert_eq!(threads_per_worker(2, 4), 1);
        assert_eq!(threads_per_worker(1, 1), 1);
        assert_eq!(threads_per_worker(8, 0), 8);
        // Pure arithmetic: no thread is started, however large the counts.
        assert_eq!(threads_per_worker(2, 100_000), 1);
        assert_eq!(threads_per_worker(100_000, 1), 100_000);
        // A fabric of up to `cores` workers runs at most one evaluating
        // thread per core.
        for cores in 1..=64 {
            for workers in 1..=cores {
                assert!(workers * threads_per_worker(cores, workers) <= cores);
            }
        }
    }
}
