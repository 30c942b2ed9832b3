//! The fabric worker: connects to a coordinator, leases ranges of the
//! grid, evaluates them in chunks through the shared sweep engine, and
//! reports rows back until told to drain.
//!
//! A worker with `threads` T holds T connections, each leasing,
//! evaluating and reporting on a thread of its own: parallel across
//! leases, as workers are, never within a chunk. The first connection's
//! handshake, and its result store or semantic table, serve them all.
//!
//! A worker asks for graph-order leases ([`LeaseOrder`]), cut on whole
//! graph instances, and evaluates each chunk of whole graphs — as many as
//! fit in one `rows` frame of [`MAX_ROWS_PER_FRAME`] rows — as one
//! graph-major [`SweepSpec::run_cases_on`] pass: every graph is built and
//! analysed once for all of its (PE count, scheduler) cells, and cells
//! whose plans give the simulator identical inputs share one simulation.
//! A graph with more cells than a frame holds is evaluated in frame-sized
//! pieces. A lease in grid order (a run whose first lease went to a `next`
//! client) is evaluated in 32-cell index ranges.
//!
//! Cells single-flight on their semantic key like every engine pass:
//! through the result store when the worker has one, else through one
//! [`SemanticTable`] that the worker's connections share for its
//! lifetime, so a structure that an earlier lease evaluated is repaired,
//! not evaluated again. The table holds at most [`TABLE_KEYS`] keys, so
//! it stays bounded on any grid: a key first seen once it is full is
//! evaluated without reuse.
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
use stg_experiments::{cores, GraphOrder, SingleFlight, SweepSpec};
use stg_service::read_frame;

use crate::protocol::{
    FabricRequest, FabricResponse, LeaseOrder, MAX_FRAME_BYTES, MAX_ROWS_PER_FRAME,
};

/// Cells evaluated (and reported) per chunk of a grid-order lease: small
/// enough that steals and kill-mid-lease re-queues lose little work,
/// large enough to amortize the round-trip. Bounded by
/// [`MAX_ROWS_PER_FRAME`].
const CHUNK_CELLS: usize = 32;

/// Semantic keys a storeless worker's table holds: about 7 MiB of slots
/// and index when full, and room for every distinct structure of a
/// 72,000-cell `chain:8` grid over 8,000 seeds (18,603 at seed 1).
pub const TABLE_KEYS: usize = 1 << 15;

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
    /// Reported cells that its result store or semantic table answered
    /// from another cell's evaluation.
    pub repaired: u64,
}

impl WorkerReport {
    fn add(&mut self, other: WorkerReport) {
        self.leases += other.leases;
        self.rows_reported += other.rows_reported;
        self.repaired += other.repaired;
    }
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
    run_worker_with(config, TABLE_KEYS)
}

/// [`run_worker`] with a semantic table of `table_keys` keys.
fn run_worker_with(config: WorkerConfig, table_keys: usize) -> Result<WorkerReport, String> {
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
    // One store for every connection, committed at drain, or one table.
    let store = match config.cache_dir.clone().or(cache_dir.map(PathBuf::from)) {
        Some(dir) => Some(
            ResultStore::at_dir(&dir)
                .map_err(|e| format!("open cache dir {}: {e}", dir.display()))?,
        ),
        None => None,
    };
    let table;
    let flight = match &store {
        Some(store) => SingleFlight::Store(store),
        None => {
            table = SemanticTable::with_capacity(table_keys);
            SingleFlight::Table(&table)
        }
    };

    let (spec, config) = (&spec, &config);
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
                            Ok(reply) if reply == handshake => conn.serve(spec, flight, config),
                            Ok(reply) => Err(format!("handshake changed: {}", reply.frame())),
                            Err(_) => Ok(WorkerReport::default()),
                        }
                    })
                    .ok()
            })
            .collect();
        let mut results = vec![first.serve(spec, flight, config)];
        for conn in later {
            results.push(conn.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        results
    });
    if let Some(store) = &store {
        store.flush();
    }
    let mut report = WorkerReport::default();
    for r in results {
        report.add(r?);
    }
    Ok(report)
}

/// The end of the chunk that starts at position `pos` of a lease in
/// `order` ending at `end`: whole graphs up to [`MAX_ROWS_PER_FRAME`] rows
/// in graph order, else `CHUNK_CELLS` cells.
fn chunk_end(spec: &SweepSpec, order: LeaseOrder, pos: usize, end: usize) -> usize {
    let cap = pos
        + match order {
            LeaseOrder::Grid => CHUNK_CELLS.min(MAX_ROWS_PER_FRAME),
            LeaseOrder::Graph => MAX_ROWS_PER_FRAME,
        };
    if cap >= end {
        return end;
    }
    match order {
        LeaseOrder::Graph => Some(GraphOrder::of(spec).graph_start(cap)).filter(|&g| g > pos),
        LeaseOrder::Grid => None,
    }
    .unwrap_or(cap)
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
        flight: SingleFlight<'_>,
        config: &WorkerConfig,
    ) -> Result<WorkerReport, String> {
        let mut report = WorkerReport::default();
        loop {
            let next = FabricRequest::Lease {
                name: config.name.clone(),
            };
            match self.exchange(&next) {
                Ok(FabricResponse::Lease {
                    lease,
                    start,
                    end,
                    order,
                    ..
                }) => {
                    report.leases += 1;
                    let lease = Leased {
                        id: lease,
                        order,
                        start,
                        end,
                    };
                    report.add(self.serve_lease(spec, flight, config, lease)?);
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

    /// Evaluates one lease chunk by chunk, truncating to each ack's `end`
    /// (the lease shrinks when another worker steals its upper part).
    fn serve_lease(
        &mut self,
        spec: &SweepSpec,
        flight: SingleFlight<'_>,
        config: &WorkerConfig,
        lease: Leased,
    ) -> Result<WorkerReport, String> {
        let mut report = WorkerReport::default();
        let (mut pos, mut end) = (lease.start, lease.end);
        while pos < end {
            let chunk_end = chunk_end(spec, lease.order, pos, end);
            if !config.eval_delay.is_zero() {
                // Deterministic straggler/kill window for the fault tests.
                std::thread::sleep(config.eval_delay * (chunk_end - pos) as u32);
            }
            let cases = match lease.order {
                LeaseOrder::Grid => spec.cases_slice(pos..chunk_end),
                LeaseOrder::Graph => spec.graph_cases(pos..chunk_end),
            };
            let result = spec.run_cases_on(cases, flight);
            let rows: Vec<_> = result
                .runs
                .into_iter()
                .map(|run| (run.case.index, run.outcome))
                .collect();
            report.rows_reported += rows.len() as u64;
            report.repaired += result.cell_cache.repaired;
            let req = FabricRequest::Rows {
                lease: lease.id,
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
        Ok(report)
    }
}

/// One lease a connection holds.
struct Leased {
    id: u64,
    order: LeaseOrder,
    start: usize,
    end: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Coordinator, FabricConfig};
    use std::sync::{Arc, Mutex};

    /// The merged artifact, shared with the coordinator.
    #[derive(Clone, Default)]
    struct Sink(Arc<Mutex<Vec<u8>>>);

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A storeless fabric run of `spec` by one single-connection worker
    /// whose semantic table holds `table_keys` keys: the merged CSV and
    /// the worker's report.
    fn run_with_table(spec: &SweepSpec, table_keys: usize) -> (String, WorkerReport) {
        let coordinator = Coordinator::bind(spec.clone(), FabricConfig::default()).unwrap();
        let config = WorkerConfig {
            addr: coordinator.addr().to_string(),
            threads: Some(1),
            ..WorkerConfig::default()
        };
        let worker = std::thread::spawn(move || run_worker_with(config, table_keys));
        let sink = Sink::default();
        coordinator.run(sink.clone()).unwrap();
        let report = worker.join().unwrap().unwrap();
        let csv = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        (csv, report)
    }

    /// One table serves every lease of a worker, so it repairs what the
    /// whole pass repairs; a full table evaluates the keys it has no room
    /// for without reuse, and the artifact stays byte-identical.
    #[test]
    fn a_full_worker_table_evaluates_later_keys_without_reuse() {
        let mut spec = SweepSpec::paper(300, 1);
        spec.workloads.truncate(1);
        spec.workloads[0].pes = vec![2, 4];
        let sweep = spec.run();
        // 245 distinct structures among the 300 seeds, at 6 stripes.
        assert_eq!(sweep.cell_cache.repaired, 330);
        let (csv, roomy) = run_with_table(&spec, TABLE_KEYS);
        assert_eq!(csv, sweep.to_csv());
        assert_eq!(roomy.repaired, 330, "{roomy:?}");
        let (csv, full) = run_with_table(&spec, 12);
        assert_eq!(csv, sweep.to_csv());
        assert!(full.repaired < roomy.repaired / 4, "{full:?}");
        assert_eq!(full.rows_reported, spec.total_cases() as u64);
    }

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
