//! `fabric_chain`: the `store_churn` grid without a store, run through an
//! in-process `Coordinator` and two `run_worker` threads with one
//! evaluation thread each; the merged CSV goes to an in-memory sink.
//! Cells are cheap, so leases, the `rows` codec, transport and the
//! stream merger dominate.
//!
//! The traced round keeps the real coordinator and replaces the workers
//! with this file's copy of the worker loop (handshake, lease, evaluate
//! chunk by chunk, report), which wraps each call in a span and evaluates
//! through [`layers::run_cases`]. The coordinator's own `decode_rows` and
//! `StreamMerger::push` calls cannot be reached from outside; after the
//! timed wall the traced round replays every reported row chunk through
//! them, in acknowledgement order, so `fabric.row_codec_share` and
//! `fabric.merge_share` cover both sides and the merger's out-of-order
//! buffering.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use stg_des::LeapStats;
use stg_experiments::store::Outcome;
use stg_experiments::SweepSpec;
use stg_fabric::protocol::{decode_rows, encode_rows};
use stg_fabric::{
    run_worker, Coordinator, FabricConfig, FabricCounters, FabricRequest, FabricResponse,
    FabricRunReport, OutputKind, StreamMerger, WorkerConfig, MAX_FRAME_BYTES, MAX_ROWS_PER_FRAME,
};
use stg_service::read_frame;
use stg_workloads::cache;

use crate::churn::GRAPHS;
use crate::layers::{self, Traced};
use crate::paper::quality;
use crate::trace::{self, request, span, Totals};
use crate::{chain_grid, end_to_end, timed, Ctx, Rate, Report, PARALLELISM};

/// Cells a worker evaluates and reports per `rows` frame (the worker
/// loop's own chunk size).
const CHUNK_CELLS: usize = 32;

/// One reported `rows` frame: when its acknowledgement arrived (trace
/// clock) and its `(case index, outcome)` rows.
type Chunk = (u64, Vec<(usize, Outcome)>);

/// Request ids of the replayed coordinator-side spans.
const REPLAY_REQUESTS: u64 = 1 << 61;

/// The merged artifact, shared with the coordinator's output thread.
#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("sink lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One coordinator run: set-up time, timed wall, the merged bytes and the
/// coordinator's report.
struct Round {
    setup_s: f64,
    wall_s: f64,
    csv: Vec<u8>,
    report: Result<FabricRunReport, String>,
    worker_errors: Vec<String>,
}

/// Seconds from `start` until the coordinator issues its first lease (a
/// worker is past its handshake and starts evaluating), polled every few
/// microseconds; `None` if `done` is set first.
fn until_first_lease(counters: &FabricCounters, start: Instant, done: &AtomicBool) -> Option<f64> {
    loop {
        if counters.snapshot().leases_issued > 0 {
            return Some(start.elapsed().as_secs_f64());
        }
        if done.load(Ordering::Relaxed) {
            return None;
        }
        std::thread::sleep(Duration::from_micros(10));
    }
}

/// Binds a coordinator, runs `worker` on [`PARALLELISM`] threads against
/// it, and collects the merged output. Set-up runs from the bind until
/// the first lease (the workers start their handshakes together, so both
/// are about done); the wall from the workers' start until the merged
/// output is complete.
fn round<T: Send>(
    spec: &SweepSpec,
    worker: impl Fn(SocketAddr, u64) -> Result<T, String> + Sync,
) -> (Round, Vec<T>) {
    cache::clear();
    let start = Instant::now();
    let coordinator =
        Coordinator::bind(spec.clone(), FabricConfig::default()).expect("bind the coordinator");
    let (addr, counters) = (coordinator.addr(), coordinator.counters());
    let sink = Sink::default();
    let done = AtomicBool::new(false);
    let ((report, results, setup_s), wall_s) = timed(|| {
        std::thread::scope(|s| {
            let leased = s.spawn(|| until_first_lease(&counters, start, &done));
            let workers: Vec<_> = (0..PARALLELISM as u64)
                .map(|w| {
                    let worker = &worker;
                    s.spawn(move || worker(addr, w))
                })
                .collect();
            let report = coordinator.run(sink.clone());
            done.store(true, Ordering::Relaxed);
            let results: Vec<_> = workers
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect();
            let setup_s = leased.join().expect("lease watcher panicked");
            (report, results, setup_s)
        })
    });
    let mut worker_errors = Vec::new();
    let setup_s = setup_s.unwrap_or_else(|| {
        worker_errors.push("no worker received a lease".to_string());
        0.0
    });
    let mut outputs = Vec::new();
    for r in results {
        match r {
            Ok(out) => outputs.push(out),
            Err(e) => worker_errors.push(e),
        }
    }
    let csv = std::mem::take(&mut *sink.0.lock().expect("sink lock"));
    let round = Round {
        setup_s,
        wall_s,
        csv,
        report,
        worker_errors,
    };
    (round, outputs)
}

fn real_worker(addr: SocketAddr, w: u64) -> Result<(), String> {
    run_worker(WorkerConfig {
        addr: addr.to_string(),
        threads: Some(1),
        name: format!("bench-{w}"),
        ..WorkerConfig::default()
    })
    .map(|_| ())
}

/// One request/response exchange with the coordinator.
fn exchange(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    req: &FabricRequest,
) -> Result<FabricResponse, String> {
    let mut frame = req.frame();
    frame.push('\n');
    send(stream, reader, &frame)
}

fn send(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    frame: &str,
) -> Result<FabricResponse, String> {
    stream
        .write_all(frame.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    match read_frame(reader, MAX_FRAME_BYTES).map_err(|e| format!("recv: {e}"))? {
        Some(Ok(line)) => FabricResponse::parse(&line),
        Some(Err(len)) => Err(format!("oversize {len}-byte response frame")),
        None => Err("coordinator closed the connection".into()),
    }
}

/// The worker loop of `run_worker`, one span per call: `fabric.lease`
/// (lease request), `engine.expand` (`cases_slice`), `fabric.eval` (the
/// chunk's evaluation), `fabric.row_codec` (the `rows` frame encode) and
/// `fabric.transport` (send and acknowledgement). Returns the reported
/// row chunks for the coordinator-side replay.
fn traced_worker(addr: SocketAddr, w: u64) -> Result<(Vec<Chunk>, layers::Counts), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let name = format!("bench-{w}");
    let hello = FabricRequest::Hello { name: name.clone() };
    let mut spec = match exchange(&mut stream, &mut reader, &hello)? {
        FabricResponse::Spec {
            spec,
            fingerprint,
            total,
            ..
        } => {
            let spec = SweepSpec::decode_spec(&spec)?;
            if spec.grid_fingerprint() != fingerprint || spec.total_cases() != total {
                return Err("grid mismatch with the coordinator".into());
            }
            spec
        }
        other => return Err(format!("unexpected handshake reply: {}", other.frame())),
    };
    spec.threads = Some(1);
    let mut chunks = Vec::new();
    let mut counts = layers::Counts::default();
    let mut ids = (w << 40)..;
    loop {
        let next = FabricRequest::Next { name: name.clone() };
        let id = ids.next().expect("unbounded ids");
        let reply = request(id, || {
            span("fabric.lease", || exchange(&mut stream, &mut reader, &next))
        });
        let (lease, start, mut end) = match reply {
            Ok(FabricResponse::Lease {
                lease, start, end, ..
            }) => (lease, start, end),
            Ok(FabricResponse::Wait { ms }) => {
                std::thread::sleep(Duration::from_millis(ms.min(1_000)));
                continue;
            }
            Ok(FabricResponse::Error { error }) => return Err(format!("coordinator: {error}")),
            Ok(FabricResponse::Drain) | Err(_) => break,
            Ok(other) => return Err(format!("unexpected next reply: {}", other.frame())),
        };
        let mut pos = start;
        while pos < end {
            let chunk_end = (pos + CHUNK_CELLS.min(MAX_ROWS_PER_FRAME)).min(end);
            let id = ids.next().expect("unbounded ids");
            let (reply, rows) = request(id, || {
                let cases = span("engine.expand", || spec.cases_slice(pos..chunk_end));
                let (outcomes, c) =
                    span("fabric.eval", || layers::run_cases(&spec, &cases, None, id));
                counts.add(&c);
                let req = FabricRequest::Rows {
                    lease,
                    rows: cases.iter().map(|c| c.index).zip(outcomes).collect(),
                    hits: 0,
                    misses: 0,
                    leap: LeapStats::default(),
                };
                let mut frame = span("fabric.row_codec", || req.frame());
                frame.push('\n');
                let reply = span("fabric.transport", || {
                    send(&mut stream, &mut reader, &frame)
                });
                let FabricRequest::Rows { rows, .. } = req else {
                    unreachable!("built as a rows frame above")
                };
                (reply, rows)
            });
            chunks.push((trace::now_ns(), rows));
            match reply {
                Ok(FabricResponse::Ack { end: new_end }) => {
                    end = new_end;
                    pos = chunk_end;
                }
                Ok(FabricResponse::Error { error }) => return Err(format!("coordinator: {error}")),
                _ => break,
            }
        }
    }
    Ok((chunks, counts))
}

/// Replays the coordinator side of every reported chunk — `decode_rows`
/// of its blob and `StreamMerger::push` of its rows — in spans, in the
/// order the coordinator acknowledged the chunks, so the merger buffers
/// the two workers' interleaved rows as it did in the round.
fn replay(spec: &SweepSpec, mut chunks: Vec<Chunk>) -> Result<(), String> {
    chunks.sort_by_key(|&(acked_ns, _)| acked_ns);
    let mut merger = StreamMerger::new(spec.clone(), OutputKind::Csv, std::io::sink())
        .map_err(|e| e.to_string())?;
    for (k, (_, rows)) in chunks.iter().enumerate() {
        let blob = encode_rows(rows);
        request(REPLAY_REQUESTS | k as u64, || {
            let decoded = span("fabric.row_codec", || decode_rows(&blob))?;
            span("fabric.merge", || {
                decoded
                    .into_iter()
                    .try_for_each(|(i, o)| merger.push(i, o).map(|_| ()))
            })
        })?;
    }
    merger.finish().map(|_| ())
}

fn check(round: &Round, reference: &str, report: &mut Report, cells: u64) {
    report.attempted += cells;
    for e in &round.worker_errors {
        report.fail_check(format!("worker: {e}"));
    }
    match &round.report {
        Ok(r) => report.failed += (r.merge.tallies.errors + r.merge.tallies.deadlocks) as u64,
        Err(e) => report.fail_check(format!("coordinator: {e}")),
    }
    if round.csv != reference.as_bytes() {
        report.fail_check("merged CSV differs from the unsharded sweep");
    }
}

pub fn run(ctx: &Ctx, traced_run: bool) -> Report {
    let spec = chain_grid(ctx.seed, GRAPHS);
    let cells = spec.total_cases() as u64;
    // The unsharded sweep is dropped here; its CSV and plan quality stay
    // (the merged CSV must equal its CSV, so the quality is the fabric's).
    let (reference, q) = {
        let sweep = spec.run();
        (sweep.to_csv(), quality(&sweep.runs))
    };
    let mut report = Report::new();
    let (mut setup, mut rate) = (Vec::new(), Rate::default());
    let mut layers = Traced::default();
    let peak = ctx.rounds(|n| {
        let (r, _) = round(&spec, real_worker);
        check(&r, &reference, &mut report, cells);
        setup.push(r.setup_s);
        rate.add(cells as f64, r.wall_s);
        eprintln!(
            "perfbench: round {n}: set-up {:.1} ms, {:.0} cells/s",
            r.setup_s * 1e3,
            cells as f64 / r.wall_s
        );
        layers.untraced_wall.push(r.wall_s);
        if !traced_run {
            return;
        }
        let (r, outputs) = round(&spec, traced_worker);
        check(&r, &reference, &mut report, cells);
        let mut c = layers::Counts::default();
        let mut chunks = Vec::new();
        for (rows, worker_counts) in outputs {
            chunks.extend(rows);
            c.add(&worker_counts);
        }
        layers.counts.push(c);
        if let Err(e) = replay(&spec, chunks) {
            report.fail_check(format!("coordinator replay: {e}"));
        }
        let spans = trace::take();
        if n == 0 {
            if let Err(e) = trace::write_file(&ctx.span_file(), &spans) {
                report.fail_check(format!("span file: {e}"));
            }
        }
        layers
            .fabric
            .push(r.report.map(|r| r.counters).unwrap_or_default());
        layers.traced_wall.push(r.wall_s);
        layers.totals.push(Totals::of(&spans));
    });
    if traced_run {
        layers.report(&mut report);
    } else {
        end_to_end(&mut report, &setup, peak, &rate, q);
    }
    report
}
