//! The fabric coordinator: expands a [`SweepSpec`] into lease units,
//! serves them to workers over loopback TCP, and stream-merges the
//! reported rows into the final artifact.
//!
//! ## Lease lifecycle
//!
//! A lease is a contiguous range of positions in one of two orders of
//! the grid ([`LeaseOrder`]), and the first lease request of a run fixes
//! the run's order: a worker's `lease` request asks for the graph order
//! ([`GraphOrder`]), in which a range cut at graph boundaries holds whole
//! graph instances, and a `next` request asks for the grid order, in which
//! a range is a contiguous case-index slice. Once a run leases in graph
//! order, `next` is refused (counted in `frames_refused`); a `lease` on a
//! grid-order run is served in grid order.
//!
//! When the order is fixed, the grid is cut into contiguous ranges of
//! `lease_cells` positions, rounded up to whole graphs in graph order,
//! and queued in position order. A lease request pops the queue; when the
//! queue is empty the coordinator **steals**: the largest outstanding
//! lease that can be split is split at the graph boundary nearest its
//! midpoint (any midpoint in grid order), the original owner keeps the
//! lower part (its next `rows` ack tells it the new end), and the upper
//! part is issued as a fresh lease. Every lease carries a deadline,
//! refreshed by each accepted `rows`/`ping` frame; an expired or
//! connection-dropped lease has its **unmerged** subranges re-queued at
//! the front of the queue. Rows carry grid indices whatever the order,
//! and merge exactly once per cell (first writer wins) — outcomes are
//! deterministic, so duplicates from steal/re-queue overlap are dropped,
//! not conflicting. A graph-order lease reports each graph's row into
//! every (PE count, scheduler) stripe of its workload's block, so the
//! merger holds up to (stripes − 1)/stripes of a block's rows; its
//! high-water mark is the `merge_peak_rows` counter.
//!
//! The merged artifact is byte-identical to an unsharded `sweep` run of
//! the same spec regardless of order, worker count, steals, and deaths.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use stg_experiments::{GraphOrder, MergeReport, OutputKind, StreamMerger, SweepSpec};
use stg_service::{read_frame, ACCEPT_BACKOFF};

use crate::counters::{FabricCounters, FabricSnapshot};
use crate::protocol::{FabricRequest, FabricResponse, LeaseOrder, MAX_FRAME_BYTES};

/// Coordinator tuning knobs.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral loopback port).
    pub addr: String,
    /// Cells per lease, rounded up to whole graphs in graph order; `0`
    /// picks `max(1, min(256, total/32))` and auto-tunes from there —
    /// small enough to work-steal, large enough to amortize a round-trip.
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
    /// The run's lease order, fixed by its first lease request; ranges in
    /// `pending` and `outstanding` are positions of it.
    order: Option<LeaseOrder>,
    /// The grid's graph order.
    graphs: GraphOrder,
    /// Cells per pre-cut lease.
    lease_cells: usize,
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

    /// Fixes the run's order and cuts the grid's `total` positions into
    /// the pending queue.
    fn fix_order(&mut self, order: LeaseOrder, total: usize) {
        self.order = Some(order);
        let mut at = 0;
        while at < total {
            let end = self.graph_end(at.saturating_add(self.lease_cells).min(total));
            self.pending.push_back(at..end);
            at = end;
        }
    }

    /// The graph order, in a run that leases in it.
    fn graph_order(&self) -> Option<&GraphOrder> {
        (self.order == Some(LeaseOrder::Graph)).then_some(&self.graphs)
    }

    /// The first cut point at or after position `pos`: a graph boundary
    /// in graph order, any position in grid order.
    fn graph_end(&self, pos: usize) -> usize {
        self.graph_order().map_or(pos, |g| g.graph_end(pos))
    }

    /// The last cut point at or before position `pos`.
    fn graph_start(&self, pos: usize) -> usize {
        self.graph_order().map_or(pos, |g| g.graph_start(pos))
    }

    /// The cut point of a steal from `range`: the one nearest its
    /// midpoint strictly inside it, if there is one.
    fn split_point(&self, range: &Range<usize>) -> Option<usize> {
        let half = range.start + range.len() / 2;
        [self.graph_end(half), self.graph_start(half)]
            .into_iter()
            .find(|&cut| range.start < cut && cut < range.end)
    }

    /// True once the cell at position `pos` has been merged.
    fn is_merged(&self, pos: usize) -> bool {
        let index = self.graph_order().map_or(pos, |g| g.index(pos));
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
        self.counters.lease_cells.set(lease_cells as u64);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                order: None,
                graphs: GraphOrder::of(&self.spec),
                lease_cells,
                pending: VecDeque::new(),
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
                    // A connection needs a second descriptor for its
                    // reader; without one it is dropped and counted like
                    // a failed accept, and the loop backs off.
                    let halves = stream.and_then(|s| Ok((s.try_clone()?, s)));
                    let Ok((read_half, stream)) = halves else {
                        shared.counters.accept_errors.add(1);
                        std::thread::sleep(ACCEPT_BACKOFF);
                        continue;
                    };
                    conn_id += 1;
                    let shared = Arc::clone(&shared);
                    let id = conn_id;
                    std::thread::spawn(move || serve_connection(shared, stream, read_half, id));
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
fn serve_connection<W: Write>(
    shared: Arc<Shared<W>>,
    stream: TcpStream,
    read_half: TcpStream,
    conn: u64,
) {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(read_half);
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
        FabricRequest::Lease { .. } => lease(shared, &mut state, conn, LeaseOrder::Graph),
        FabricRequest::Next { .. } => lease(shared, &mut state, conn, LeaseOrder::Grid),
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
            if let Some(m) = &state.merger {
                counters.merge_peak_rows.absorb(m.peak_buffered() as u64);
            }
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

/// Answers a lease request that asks for `asked` order: `lease` asks for
/// graph order and accepts the run's, `next` asks for grid order and
/// accepts nothing else.
fn lease<W: Write>(
    shared: &Shared<W>,
    state: &mut State<W>,
    conn: u64,
    asked: LeaseOrder,
) -> FabricResponse {
    let counters = &*shared.counters;
    let order = match state.order {
        Some(order) => order,
        None => {
            state.fix_order(asked, shared.total);
            asked
        }
    };
    if asked == LeaseOrder::Grid && order == LeaseOrder::Graph {
        return FabricResponse::Error {
            error: "this run leases whole graphs: request leases with the lease op".to_string(),
        };
    }
    expire_leases(state, counters);
    if state.done() {
        return FabricResponse::Drain;
    }
    let range = match state.pending.pop_front() {
        Some(mut range) => {
            // Auto mode re-cuts at issue time: absorb contiguous successor
            // ranges up to the tuner's target, or split an oversized range
            // at a graph boundary and return the tail to the queue front.
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
                let cut = state.graph_end(range.start + target);
                if cut < range.end {
                    state.pending.push_front(cut..range.end);
                    range.end = cut;
                }
            }
            counters.leases_issued.add(1);
            range
        }
        None => {
            // Work-steal: split the largest outstanding remainder.
            let victim = state
                .outstanding
                .iter()
                .filter_map(|(&id, l)| Some((id, l.range.len(), state.split_point(&l.range)?)))
                .max_by_key(|&(_, len, _)| len);
            let Some((id, _, cut)) = victim else {
                return FabricResponse::Wait { ms: 50 };
            };
            let l = state.outstanding.get_mut(&id).expect("chosen above");
            let stolen = cut..l.range.end;
            l.range.end = cut;
            counters.leases_stolen.add(1);
            stolen
        }
    };
    let (lease, start, end) = issue(state, conn, range, shared.lease_timeout);
    FabricResponse::Lease {
        lease,
        start,
        end,
        deadline_ms: shared.lease_timeout.as_millis() as u64,
        order,
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
