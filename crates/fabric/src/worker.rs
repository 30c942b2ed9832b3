//! The fabric worker: connects to a coordinator, leases cell ranges,
//! evaluates them in small chunks through the shared sweep engine, and
//! reports rows back until told to drain.
//!
//! Cells single-flight on their semantic key like every engine pass:
//! through the result store when the worker has one, else through a
//! [`SemanticTable`] that lives for one lease. A lease table lets reuse
//! span the lease's chunks, and the lease size cap bounds it on any grid,
//! where a table kept for the worker's lifetime would grow with the grid.
//!
//! Workers are expendable by design: any post-handshake I/O failure is a
//! graceful drain (the coordinator re-queues whatever this worker held),
//! and a `gone` ack makes the worker abandon the lease immediately. The
//! only hard errors are connect/handshake failures, a spec the one spec
//! validation refuses, and a spec whose size or fingerprint disagrees
//! with the coordinator's — evaluating under a mismatched grid would
//! silently corrupt the merge.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use stg_experiments::store::{ResultStore, SemanticTable};
use stg_experiments::{SingleFlight, SweepSpec};
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
    /// Evaluation thread count (`None` = the engine default).
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

/// What a drained worker reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Leases this worker served (including stolen ones it received).
    pub leases: u64,
    /// Rows it reported to the coordinator.
    pub rows_reported: u64,
}

/// One coordinator exchange: send `req`, read one response frame.
fn exchange(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    req: &FabricRequest,
) -> Result<FabricResponse, String> {
    let mut frame = req.frame();
    frame.push('\n');
    stream
        .write_all(frame.as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| format!("send: {e}"))?;
    match read_frame(reader, MAX_FRAME_BYTES).map_err(|e| format!("recv: {e}"))? {
        Some(Ok(line)) => FabricResponse::parse(&line),
        Some(Err(len)) => Err(format!("oversize {len}-byte response frame")),
        None => Err("coordinator closed the connection".to_string()),
    }
}

/// Runs one worker to drain: handshake, lease/evaluate/report loop,
/// graceful exit on `drain` or lost coordinator.
pub fn run_worker(config: WorkerConfig) -> Result<WorkerReport, String> {
    let mut stream =
        TcpStream::connect(&config.addr).map_err(|e| format!("connect {}: {e}", config.addr))?;
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?,
    );

    // Handshake: fetch the spec and verify we expand the same grid.
    let hello = FabricRequest::Hello {
        name: config.name.clone(),
    };
    let (mut spec, cache_dir) = match exchange(&mut stream, &mut reader, &hello)? {
        FabricResponse::Spec {
            spec,
            fingerprint,
            total,
            cache_dir,
        } => {
            let spec = SweepSpec::decode_spec(&spec)?;
            // The size first: it is arithmetic, while the fingerprint walks
            // every cell of whatever grid the frame claims.
            let local_total = spec.total_cases();
            if local_total != total {
                return Err(format!(
                    "grid size mismatch: coordinator {total}, local {local_total}"
                ));
            }
            let local = spec.grid_fingerprint();
            if local != fingerprint {
                return Err(format!(
                    "spec fingerprint mismatch: coordinator {fingerprint:016x}, \
                     local {local:016x} (version skew?)"
                ));
            }
            (spec, cache_dir)
        }
        FabricResponse::Error { error } => return Err(format!("handshake rejected: {error}")),
        other => return Err(format!("unexpected handshake reply: {}", other.frame())),
    };
    spec.threads = config.threads;
    let store = match config.cache_dir.clone().or(cache_dir.map(PathBuf::from)) {
        Some(dir) => Some(
            ResultStore::at_dir(&dir)
                .map_err(|e| format!("open cache dir {}: {e}", dir.display()))?,
        ),
        None => None,
    };

    let mut report = WorkerReport::default();
    loop {
        let next = FabricRequest::Next {
            name: config.name.clone(),
        };
        match exchange(&mut stream, &mut reader, &next) {
            Ok(FabricResponse::Lease {
                lease, start, end, ..
            }) => {
                report.leases += 1;
                report.rows_reported += serve_lease(
                    &mut stream,
                    &mut reader,
                    &spec,
                    store.as_ref(),
                    &config,
                    lease,
                    start,
                    end,
                )?;
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
    if let Some(store) = &store {
        store.flush();
    }
    Ok(report)
}

/// Evaluates one lease chunk-by-chunk, truncating to each ack's `end`
/// (the lease shrinks when another worker steals its upper half). Without
/// a store, the chunks share one [`SemanticTable`] sized to the lease, up
/// to [`LeaseTuner::MAX_CELLS`] keys.
#[allow(clippy::too_many_arguments)]
fn serve_lease(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
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
            table =
                SemanticTable::with_capacity(end.saturating_sub(start).min(LeaseTuner::MAX_CELLS));
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
        match exchange(stream, reader, &req) {
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
