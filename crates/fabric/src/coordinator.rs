//! The fabric coordinator: expands a [`SweepSpec`] into cell-range lease
//! units, serves them to workers over loopback TCP, and stream-merges the
//! reported rows into the final artifact.
//!
//! ## Lease lifecycle
//!
//! The grid is cut into contiguous ranges of `lease_cells` cells, queued
//! in index order. A worker's `next` request pops the queue; when the
//! queue is empty the coordinator **steals**: the largest outstanding
//! lease with at least two remaining cells is split at its midpoint, the
//! original owner keeps the lower half (its next `rows` ack tells it the
//! new end), and the upper half is issued as a fresh lease. Every lease
//! carries a deadline, refreshed by each accepted `rows`/`ping` frame;
//! an expired or connection-dropped lease has its **unmerged** subranges
//! re-queued at the front of the queue. Rows merge exactly once per cell
//! (first writer wins) — outcomes are deterministic, so duplicates from
//! steal/re-queue overlap are dropped, not conflicting.
//!
//! The merged artifact is byte-identical to an unsharded `sweep` run of
//! the same spec regardless of worker count, steals, and deaths.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use stg_experiments::{MergeReport, OutputKind, StreamMerger, SweepSpec};
use stg_service::read_frame;

use crate::counters::{FabricCounters, FabricSnapshot};
use crate::protocol::{FabricRequest, FabricResponse, MAX_FRAME_BYTES};

/// Coordinator tuning knobs.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral loopback port).
    pub addr: String,
    /// Cells per lease; `0` picks `max(1, min(256, total/32))` — small
    /// enough to work-steal, large enough to amortize a round-trip.
    pub lease_cells: usize,
    /// Lease deadline budget; an unrefreshed lease is re-queued after
    /// this long.
    pub lease_timeout: Duration,
    /// Shared result-store directory advertised to workers.
    pub cache_dir: Option<PathBuf>,
    /// Artifact format to stream.
    pub kind: OutputKind,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            addr: "127.0.0.1:0".into(),
            lease_cells: 0,
            lease_timeout: Duration::from_millis(30_000),
            cache_dir: None,
            kind: OutputKind::Csv,
        }
    }
}

/// What a completed coordinator run reports.
#[derive(Clone, Debug)]
pub struct FabricRunReport {
    /// The stream-merge outcome (row count, buffer high-water mark,
    /// failure tallies for exit codes).
    pub merge: MergeReport,
    /// Final counter values.
    pub counters: FabricSnapshot,
}

/// One outstanding lease.
struct Lease {
    range: Range<usize>,
    conn: u64,
    deadline: Instant,
    /// When the last `rows` ack (or the issue itself) happened — the
    /// inter-ack interval feeds the lease auto-tuner.
    served_since: Instant,
}

/// EWMA-driven lease sizing, active only in auto mode (`--lease-cells 0`).
///
/// Every accepted `rows` frame contributes one sample — the inter-ack
/// wall-clock divided by the rows reported — to an exponentially weighted
/// moving average of per-cell latency. The target lease size is whatever
/// covers [`LeaseTuner::TARGET_ACK_MS`] of work at that rate, bounded to
/// [`LeaseTuner::MIN_CELLS`]..=[`LeaseTuner::MAX_CELLS`]: fast grids grow
/// leases (fewer round-trips), slow or straggling grids shrink them
/// (finer steal/re-queue granularity). An explicit `--lease-cells` pins
/// the size and disables the tuner entirely.
pub struct LeaseTuner {
    auto: bool,
    ewma_us_per_cell: f64,
    target: usize,
}

impl LeaseTuner {
    /// Aimed-for wall-clock covered by one lease.
    pub const TARGET_ACK_MS: u64 = 250;
    /// Smallest auto-tuned lease.
    pub const MIN_CELLS: usize = 8;
    /// Largest auto-tuned lease.
    pub const MAX_CELLS: usize = 4096;
    /// EWMA weight of the newest sample.
    const ALPHA: f64 = 0.3;

    /// A tuner starting at `initial` cells; inert unless `auto`.
    pub fn new(auto: bool, initial: usize) -> LeaseTuner {
        LeaseTuner {
            auto,
            ewma_us_per_cell: 0.0,
            target: initial,
        }
    }

    /// Folds one ack covering `cells` cells over `elapsed` into the
    /// average and recomputes the target size.
    pub fn observe(&mut self, cells: u64, elapsed: Duration) {
        if !self.auto || cells == 0 {
            return;
        }
        let sample = elapsed.as_secs_f64() * 1e6 / cells as f64;
        self.ewma_us_per_cell = if self.ewma_us_per_cell == 0.0 {
            sample
        } else {
            Self::ALPHA * sample + (1.0 - Self::ALPHA) * self.ewma_us_per_cell
        };
        let budget_us = (Self::TARGET_ACK_MS * 1_000) as f64;
        let cells = budget_us / self.ewma_us_per_cell.max(f64::MIN_POSITIVE);
        self.target = (cells as usize).clamp(Self::MIN_CELLS, Self::MAX_CELLS);
    }

    /// The current lease size in cells.
    pub fn target(&self) -> usize {
        self.target
    }
}

/// Mutable coordinator state, shared by every connection thread.
struct State<W: Write> {
    pending: VecDeque<Range<usize>>,
    outstanding: HashMap<u64, Lease>,
    next_lease: u64,
    tuner: LeaseTuner,
    /// `None` once the merge finished (drain phase) or failed fatally.
    merger: Option<StreamMerger<W>>,
    merge_error: Option<String>,
}

impl<W: Write> State<W> {
    fn done(&self) -> bool {
        self.merge_error.is_some() || self.merger.as_ref().is_none_or(|m| m.done())
    }

    fn is_merged(&self, index: usize) -> bool {
        self.merger.as_ref().is_none_or(|m| m.is_merged(index))
    }

    /// The maximal unmerged subranges of `range`, in order.
    fn unmerged_subranges(&self, range: Range<usize>) -> Vec<Range<usize>> {
        let mut out: Vec<Range<usize>> = Vec::new();
        for i in range {
            if self.is_merged(i) {
                continue;
            }
            match out.last_mut() {
                Some(last) if last.end == i => last.end = i + 1,
                _ => out.push(i..i + 1),
            }
        }
        out
    }
}

struct Shared<W: Write> {
    state: Mutex<State<W>>,
    cv: Condvar,
    counters: Arc<FabricCounters>,
    spec_block: String,
    fingerprint: u64,
    total: usize,
    cache_dir: Option<String>,
    lease_timeout: Duration,
}

/// A bound, not-yet-running coordinator. [`Self::bind`] early so workers
/// can be pointed at [`Self::addr`] before [`Self::run`] blocks.
pub struct Coordinator {
    listener: TcpListener,
    spec: SweepSpec,
    spec_block: String,
    fingerprint: u64,
    config: FabricConfig,
    counters: Arc<FabricCounters>,
}

impl Coordinator {
    /// Binds the coordinator socket and validates the spec: it must have
    /// a wire encoding ([`SweepSpec::encode_spec`], which refuses what a
    /// worker's decoder would, and fixed-graph workloads).
    pub fn bind(spec: SweepSpec, config: FabricConfig) -> Result<Coordinator, String> {
        if spec.timing {
            return Err("--sim-timing is not supported for distributed sweeps \
                        (timings are per-worker and non-deterministic)"
                .to_string());
        }
        let spec_block = spec
            .encode_spec()
            .map_err(|e| format!("cannot distribute this grid: {e}"))?;
        let fingerprint = spec.grid_fingerprint();
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
        Ok(Coordinator {
            listener,
            spec,
            spec_block,
            fingerprint,
            config,
            counters: Arc::new(FabricCounters::default()),
        })
    }

    /// The bound socket address (pass to workers via `--connect`).
    pub fn addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// The live counters (for progress displays; [`Self::run`] returns
    /// the final snapshot).
    pub fn counters(&self) -> Arc<FabricCounters> {
        Arc::clone(&self.counters)
    }

    /// Serves leases until every cell of the grid is merged into `out`,
    /// then drains workers and returns. The artifact bytes written to
    /// `out` are byte-identical to `spec.run().to_csv()` (or `to_json()`)
    /// no matter how many workers served, stole, or died.
    pub fn run<W: Write + Send + 'static>(self, out: W) -> Result<FabricRunReport, String> {
        let total = self.spec.total_cases();
        let lease_cells = match self.config.lease_cells {
            0 => (total / 32).clamp(1, 256),
            n => n,
        };
        let merger = StreamMerger::new(self.spec.clone(), self.config.kind, out)
            .map_err(|e| format!("open output: {e}"))?;
        let mut pending = VecDeque::new();
        let mut at = 0;
        while at < total {
            let end = (at + lease_cells).min(total);
            pending.push_back(at..end);
            at = end;
        }
        self.counters.lease_cells.set(lease_cells as u64);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending,
                outstanding: HashMap::new(),
                next_lease: 0,
                tuner: LeaseTuner::new(self.config.lease_cells == 0, lease_cells),
                merger: Some(merger),
                merge_error: None,
            }),
            cv: Condvar::new(),
            counters: Arc::clone(&self.counters),
            spec_block: self.spec_block.clone(),
            fingerprint: self.fingerprint,
            total,
            cache_dir: self
                .config
                .cache_dir
                .as_ref()
                .map(|d| d.display().to_string()),
            lease_timeout: self.config.lease_timeout,
        });

        let stop = Arc::new(AtomicBool::new(false));
        let addr = self.addr();
        let accept = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            let listener = self.listener;
            std::thread::spawn(move || {
                let mut conn_id = 0u64;
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    conn_id += 1;
                    let shared = Arc::clone(&shared);
                    let id = conn_id;
                    std::thread::spawn(move || serve_connection(shared, stream, id));
                }
            })
        };

        // Wait for the merge to complete (or fail).
        let report = {
            let mut state = shared.state.lock().expect("fabric state lock");
            while !state.done() {
                // Waking periodically lets deadline expiry make progress
                // even if every worker died silently.
                let (s, _timeout) = shared
                    .cv
                    .wait_timeout(state, Duration::from_millis(100))
                    .expect("fabric state lock");
                state = s;
                expire_leases(&mut state, &shared.counters);
            }
            if let Some(e) = state.merge_error.take() {
                Err(e)
            } else {
                let merger = state.merger.take().expect("merger present until taken");
                merger.finish()
            }
        };

        // Stop the accept loop: flag + a wake-up connection.
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        let _ = accept.join();

        Ok(FabricRunReport {
            merge: report?,
            counters: self.counters.snapshot(),
        })
    }
}

/// Re-queues every outstanding lease whose deadline passed.
fn expire_leases<W: Write>(state: &mut State<W>, counters: &FabricCounters) {
    let now = Instant::now();
    let expired: Vec<u64> = state
        .outstanding
        .iter()
        .filter(|(_, l)| l.deadline <= now)
        .map(|(&id, _)| id)
        .collect();
    for id in expired {
        let lease = state.outstanding.remove(&id).expect("listed above");
        requeue(state, counters, lease.range);
    }
}

/// Puts the unmerged subranges of a dead lease back at the front of the
/// queue (front, not back: re-queued cells gate the in-order emission
/// prefix, so they must be re-evaluated first).
fn requeue<W: Write>(state: &mut State<W>, counters: &FabricCounters, range: Range<usize>) {
    let subranges = state.unmerged_subranges(range);
    if subranges.is_empty() {
        return;
    }
    counters.re_queued.add(1);
    for r in subranges.into_iter().rev() {
        state.pending.push_front(r);
    }
}

/// Advances every outstanding lease past its merged prefix; fully merged
/// leases complete.
fn advance_leases<W: Write>(state: &mut State<W>, counters: &FabricCounters) {
    let ids: Vec<u64> = state.outstanding.keys().copied().collect();
    for id in ids {
        let lease = state.outstanding.get(&id).expect("listed above");
        let mut start = lease.range.start;
        let end = lease.range.end;
        while start < end && state.is_merged(start) {
            start += 1;
        }
        let lease = state.outstanding.get_mut(&id).expect("listed above");
        lease.range.start = start;
        if start >= end {
            state.outstanding.remove(&id);
            counters.leases_completed.add(1);
        }
    }
}

/// One worker connection: strict request/response over newline JSON.
fn serve_connection<W: Write>(shared: Arc<Shared<W>>, stream: TcpStream, conn: u64) {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    loop {
        let resp = match read_frame(&mut reader, MAX_FRAME_BYTES) {
            Ok(Some(Ok(line))) if line.is_empty() => continue,
            Ok(Some(Ok(line))) => match FabricRequest::parse(&line) {
                Ok(req) => handle(&shared, conn, req),
                Err(error) => FabricResponse::Error { error },
            },
            Ok(Some(Err(len))) => FabricResponse::Error {
                error: format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES} bound"),
            },
            Ok(None) | Err(_) => break, // disconnect
        };
        if matches!(resp, FabricResponse::Error { .. }) {
            shared.counters.frames_refused.add(1);
        }
        if write_frame(&mut writer, &resp).is_err() {
            break;
        }
    }
    // Connection gone: re-queue whatever this worker still held.
    let mut state = shared.state.lock().expect("fabric state lock");
    let held: Vec<u64> = state
        .outstanding
        .iter()
        .filter(|(_, l)| l.conn == conn)
        .map(|(&id, _)| id)
        .collect();
    if !held.is_empty() {
        shared.counters.worker_deaths.add(1);
        for id in held {
            let lease = state.outstanding.remove(&id).expect("listed above");
            requeue(&mut state, &shared.counters, lease.range);
        }
    }
    shared.cv.notify_all();
}

fn write_frame<S: Write>(writer: &mut BufWriter<S>, resp: &FabricResponse) -> std::io::Result<()> {
    writer.write_all(resp.frame().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Executes one request under the state lock.
fn handle<W: Write>(shared: &Shared<W>, conn: u64, req: FabricRequest) -> FabricResponse {
    let counters = &*shared.counters;
    let mut state = shared.state.lock().expect("fabric state lock");
    match req {
        FabricRequest::Hello { .. } => FabricResponse::Spec {
            spec: shared.spec_block.clone(),
            fingerprint: shared.fingerprint,
            total: shared.total,
            cache_dir: shared.cache_dir.clone(),
        },
        FabricRequest::Stats => FabricResponse::Stats(counters.snapshot()),
        FabricRequest::Next { .. } => {
            expire_leases(&mut state, counters);
            if state.done() {
                return FabricResponse::Drain;
            }
            let deadline_ms = shared.lease_timeout.as_millis() as u64;
            if let Some(mut range) = state.pending.pop_front() {
                // Auto mode re-cuts at issue time: absorb contiguous
                // successor ranges up to the tuner's target, or split an
                // oversized range and return the tail to the queue front.
                // An explicit `--lease-cells` skips this entirely.
                if state.tuner.auto {
                    let target = state.tuner.target();
                    while range.len() < target {
                        match state.pending.front() {
                            Some(next) if next.start == range.end => {
                                range.end = state.pending.pop_front().expect("checked front").end;
                            }
                            _ => break,
                        }
                    }
                    if range.len() > target {
                        state.pending.push_front(range.start + target..range.end);
                        range.end = range.start + target;
                    }
                }
                counters.leases_issued.add(1);
                let (lease, start, end) = issue(&mut state, conn, range, shared.lease_timeout);
                return FabricResponse::Lease {
                    lease,
                    start,
                    end,
                    deadline_ms,
                };
            }
            // Work-steal: split the largest outstanding remainder.
            let victim = state
                .outstanding
                .iter()
                .filter(|(_, l)| l.range.len() >= 2)
                .max_by_key(|(_, l)| l.range.len())
                .map(|(&id, _)| id);
            if let Some(id) = victim {
                let l = state.outstanding.get_mut(&id).expect("chosen above");
                let mid = l.range.start + l.range.len() / 2;
                let stolen = mid..l.range.end;
                l.range.end = mid;
                counters.leases_stolen.add(1);
                let (lease, start, end) = issue(&mut state, conn, stolen, shared.lease_timeout);
                return FabricResponse::Lease {
                    lease,
                    start,
                    end,
                    deadline_ms,
                };
            }
            FabricResponse::Wait { ms: 50 }
        }
        FabricRequest::Ping { lease } => match state.outstanding.get_mut(&lease) {
            Some(l) if l.conn == conn => {
                l.deadline = Instant::now() + shared.lease_timeout;
                FabricResponse::Ack { end: l.range.end }
            }
            _ => FabricResponse::Gone,
        },
        FabricRequest::Rows {
            lease,
            rows,
            hits,
            misses,
            leap,
        } => {
            counters.cell_cache.hits.add(hits);
            counters.cell_cache.misses.add(misses);
            counters.leap.absorb(&leap);
            let rows_reported = rows.len() as u64;
            let mut merged = 0u64;
            let mut duplicate = 0u64;
            for (index, outcome) in rows {
                match &mut state.merger {
                    Some(m) => match m.push(index, outcome) {
                        Ok(true) => merged += 1,
                        Ok(false) => duplicate += 1,
                        Err(e) => {
                            state.merge_error = Some(e.clone());
                            state.merger = None;
                            shared.cv.notify_all();
                            return FabricResponse::Error { error: e };
                        }
                    },
                    // Drain phase: everything is merged already.
                    None => duplicate += 1,
                }
            }
            counters.rows_merged.add(merged);
            counters.rows_duplicate.add(duplicate);
            advance_leases(&mut state, counters);
            if state.done() {
                shared.cv.notify_all();
            }
            let ack = match state.outstanding.get_mut(&lease) {
                Some(l) if l.conn == conn => {
                    let elapsed = l.served_since.elapsed();
                    l.served_since = Instant::now();
                    l.deadline = Instant::now() + shared.lease_timeout;
                    Some((l.range.end, elapsed))
                }
                _ => None,
            };
            match ack {
                Some((end, elapsed)) => {
                    state.tuner.observe(rows_reported, elapsed);
                    counters.lease_cells.set(state.tuner.target() as u64);
                    FabricResponse::Ack { end }
                }
                None => FabricResponse::Gone,
            }
        }
    }
}

/// Registers a fresh lease for `conn` over `range`.
fn issue<W: Write>(
    state: &mut State<W>,
    conn: u64,
    range: Range<usize>,
    timeout: Duration,
) -> (u64, usize, usize) {
    let id = state.next_lease;
    state.next_lease += 1;
    let (start, end) = (range.start, range.end);
    state.outstanding.insert(
        id,
        Lease {
            range,
            conn,
            deadline: Instant::now() + timeout,
            served_since: Instant::now(),
        },
    );
    (id, start, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuner_tracks_toward_the_ack_budget() {
        let mut t = LeaseTuner::new(true, 64);
        assert_eq!(t.target(), 64);
        // 1ms per cell → 250ms budget covers 250 cells.
        for _ in 0..32 {
            t.observe(10, Duration::from_millis(10));
        }
        assert_eq!(t.target(), 250);
        // Much faster cells grow the lease, but never past the cap.
        for _ in 0..64 {
            t.observe(1_000, Duration::from_millis(1));
        }
        assert_eq!(t.target(), LeaseTuner::MAX_CELLS);
        // A sudden straggler shrinks it again, floored at the minimum.
        for _ in 0..64 {
            t.observe(1, Duration::from_millis(5_000));
        }
        assert_eq!(t.target(), LeaseTuner::MIN_CELLS);
    }

    #[test]
    fn tuner_is_inert_when_pinned_or_fed_empty_acks() {
        let mut t = LeaseTuner::new(false, 2);
        t.observe(100, Duration::from_millis(10_000));
        assert_eq!(t.target(), 2, "explicit --lease-cells disables tuning");
        let mut t = LeaseTuner::new(true, 64);
        t.observe(0, Duration::from_millis(10_000));
        assert_eq!(t.target(), 64, "empty acks contribute no sample");
    }

    #[test]
    fn tuner_ewma_smooths_single_outliers() {
        let mut t = LeaseTuner::new(true, 64);
        for _ in 0..32 {
            t.observe(10, Duration::from_millis(10));
        }
        let steady = t.target();
        t.observe(1, Duration::from_millis(50));
        assert!(
            t.target() > LeaseTuner::MIN_CELLS,
            "one 50× outlier must not collapse the lease size: {}",
            t.target()
        );
        assert!(t.target() < steady);
    }
}
