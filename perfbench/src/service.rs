//! `service_mixed`: an in-process daemon on loopback with an empty cache
//! directory, serving a closed loop of two clients (callers that wait for
//! each reply, like `loadgen` and sweep clients). Requests are drawn from
//! `loadgen`'s mix (`request_list`, batched validation). About one request
//! in twenty names a cell not answered yet. Each client draws those from
//! its own `loadgen` stream; when both draws name the same cell, both
//! clients send it at once (they meet at a barrier first). All other
//! requests repeat cells the sending client already had answered, so
//! store writes happen beside store reads. Hits set the median latency,
//! misses the 99th percentile.
//!
//! The traced round serves the same request lists from a daemon built in
//! this file out of the service crate's public parts — frame reader,
//! `Service::parse`, the admission queue, two workers, one writer per
//! connection — whose dispatch re-drives each plan through the layer
//! functions ([`layers::run_cases`]) on the service's own store.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use stg_experiments::engine::Run;
use stg_experiments::store::encode_outcome;
use stg_service::loadgen::request_list;
use stg_service::protocol::ProtoError;
use stg_service::{
    parse_response, read_frame, Admission, Daemon, PlanRequest, PlanResponse, Request, Response,
    Service, ServiceConfig, MAX_FRAME_BYTES,
};
use stg_workloads::{cache, WorkloadFamily};

use crate::layers::{self, disk_usage, StoreRound, Traced, BATCH_REQUEST};
use crate::paper::quality;
use crate::trace::{self, request, span, Totals};
use crate::{end_to_end, percentile, timed, Ctx, Rate, Report, PARALLELISM};

/// Requests each client sends per round (two clients: 1000 per round).
pub const REQUESTS_PER_CLIENT: usize = 500;
/// One request in this many names a cell not answered yet.
const NEW_EVERY: usize = 20;
/// Draws per client stream: enough to hold all 72 cells of the mix.
const STREAM_LEN: usize = 2_000;
/// The daemon's admission bound: far above what two closed-loop clients
/// can queue, so no request is refused.
const QUEUE_BOUND: usize = 64;

/// One request of a client's list.
#[derive(Clone, Debug, PartialEq)]
pub struct Planned {
    pub req: PlanRequest,
    /// The cell has not been answered before this request.
    pub new: bool,
    /// Both clients send this cell at the same list position, after
    /// meeting at a barrier.
    pub shared: bool,
}

/// A cell's identity: workload spec, graph seed, PEs, scheduler.
type Cell = (String, u64, usize, &'static str);

fn cell(req: &PlanRequest) -> Cell {
    (
        req.workload.spec(),
        req.seed,
        req.pes,
        req.scheduler.alias(),
    )
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The two clients' request lists of round `round` under `seed`. Each
/// client draws its new cells from its own `loadgen` stream
/// (`request_list` of clients 1 and 2 under one mix seed, as a 2-client
/// `loadgen` run draws them). New-cell slot `j` of a client sits at a
/// seeded position in `[20j, 20j + 20)`, the first at position 0; it takes
/// the client's next drawn cell that no client has had answered before
/// the slot. When both clients' picks for a slot are the same cell, both
/// send it at the same position — shared cells arise from the mix, at the
/// rate `loadgen`'s own draws coincide. Request ids follow `loadgen`'s
/// `client · 10^6 + position` scheme, clients numbered from 1.
pub fn round_lists(seed: u64, round: u64, per_client: usize) -> [Vec<Planned>; 2] {
    assert!(per_client > 0, "a client sends at least one request");
    let mut state = seed ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mix_seed = splitmix(&mut state);
    let mut streams = [1, 2].map(|c| request_list(mix_seed, c, STREAM_LEN, "").into_iter());
    let mut answered = HashSet::new();
    let mut new_at: [HashMap<usize, (PlanRequest, bool)>; 2] = Default::default();
    for j in 0..per_client.div_ceil(NEW_EVERY) {
        let base = j * NEW_EVERY;
        let width = NEW_EVERY.min(per_client - base);
        let mut position = || {
            if j == 0 {
                0
            } else {
                base + (splitmix(&mut state) % width as u64) as usize
            }
        };
        let picks = streams.each_mut().map(|s| {
            s.find(|r| !answered.contains(&cell(r)))
                .expect("the loadgen mix has enough distinct cells")
        });
        answered.extend(picks.iter().map(cell));
        if cell(&picks[0]) == cell(&picks[1]) {
            let at = position();
            for slots in &mut new_at {
                slots.insert(at, (picks[0].clone(), true));
            }
        } else {
            for (slots, req) in new_at.iter_mut().zip(picks) {
                slots.insert(position(), (req, false));
            }
        }
    }
    let mut lists: [Vec<Planned>; 2] = Default::default();
    for (c, (list, slots)) in lists.iter_mut().zip(&mut new_at).enumerate() {
        let mut answered: Vec<PlanRequest> = Vec::new();
        let mut rng = state ^ (c as u64 + 1);
        for at in 0..per_client {
            let (mut req, new, shared) = match slots.remove(&at) {
                Some((req, shared)) => {
                    answered.push(req.clone());
                    (req, true, shared)
                }
                None => {
                    let pick = (splitmix(&mut rng) % answered.len() as u64) as usize;
                    (answered[pick].clone(), false, false)
                }
            };
            req.id = (c as u64 + 1) * 1_000_000 + at as u64;
            list.push(Planned { req, new, shared });
        }
    }
    lists
}

/// What one client saw: per-request latency and response line.
struct ClientLog {
    latencies: Vec<Duration>,
    lines: Vec<String>,
    error: Option<String>,
}

/// One closed-loop client over an open connection. After a transport
/// error it sends nothing more but still meets the other client at every
/// remaining barrier.
fn client(stream: TcpStream, list: &[Planned], barrier: &Barrier, traced: bool) -> ClientLog {
    let mut log = ClientLog {
        latencies: Vec::with_capacity(list.len()),
        lines: Vec::with_capacity(list.len()),
        error: None,
    };
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(e) => {
            log.error = Some(format!("clone stream: {e}"));
            return log;
        }
    };
    let mut stream = stream;
    for p in list {
        if p.shared {
            barrier.wait();
        }
        if log.error.is_some() {
            continue;
        }
        let mut frame = p.req.encode();
        frame.push('\n');
        let start_ns = trace::now_ns();
        let t0 = Instant::now();
        let mut line = String::new();
        let sent = stream
            .write_all(frame.as_bytes())
            .and_then(|()| reader.read_line(&mut line));
        log.latencies.push(t0.elapsed());
        if traced {
            trace::record(p.req.id, "client.request", start_ns, trace::now_ns());
        }
        match sent {
            Ok(0) => log.error = Some("daemon closed the connection".into()),
            Ok(_) => log.lines.push(line.trim_end().to_string()),
            Err(e) => log.error = Some(format!("request {}: {e}", p.req.id)),
        }
    }
    log
}

/// Runs both clients over `streams` and returns their logs and the wall.
fn drive(
    streams: [TcpStream; 2],
    lists: &[Vec<Planned>; 2],
    traced: bool,
) -> (Vec<ClientLog>, f64) {
    let barrier = Barrier::new(2);
    timed(|| {
        std::thread::scope(|s| {
            let handles: Vec<_> = streams
                .into_iter()
                .zip(lists)
                .map(|(stream, list)| {
                    let barrier = &barrier;
                    s.spawn(move || client(stream, list, barrier, traced))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    })
}

fn connect(addr: SocketAddr) -> [TcpStream; 2] {
    [(); 2].map(|()| {
        let s = TcpStream::connect(addr).expect("connect to the loopback daemon");
        s.set_nodelay(true).expect("set TCP_NODELAY");
        s
    })
}

fn service_config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..ServiceConfig::default()
    }
}

/// One round's client-side results and store state.
struct Round {
    setup_s: f64,
    wall_s: f64,
    logs: Vec<ClientLog>,
    store: StoreRound,
}

fn untraced(dir: &Path, lists: &[Vec<Planned>; 2]) -> Round {
    let _ = std::fs::remove_dir_all(dir);
    cache::clear();
    let ((daemon, streams), setup_s) = timed(|| {
        let service = Service::new(service_config(dir)).expect("open the service store");
        let daemon = Daemon::bind("127.0.0.1:0", Arc::new(service), PARALLELISM, QUEUE_BOUND)
            .expect("bind the daemon");
        let streams = connect(daemon.addr());
        (daemon, streams)
    });
    let (logs, wall_s) = drive(streams, lists, false);
    let stats = daemon.service().store_stats();
    daemon.shutdown();
    daemon.wait();
    let (segments, bytes) = disk_usage(dir);
    Round {
        setup_s,
        wall_s,
        logs,
        store: StoreRound {
            stats,
            segments,
            bytes,
        },
    }
}

/// One admitted request of the traced daemon.
struct Job {
    client: u64,
    request: Request,
    out: mpsc::Sender<String>,
}

/// The traced daemon's dispatch: `Service::dispatch` for a plan request,
/// with the one-cell sweep re-driven through the layer functions.
fn dispatch(service: &Service, job: &Job, counts: &Mutex<layers::Counts>) -> String {
    let Request::Plan(plan) = &job.request else {
        return service.dispatch(job.client, &job.request).join("\n");
    };
    let id = plan.id;
    request(id, || {
        span("service.dispatch", || {
            service.counters().record_dispatched();
            let spec = plan.spec();
            let cases = span("engine.expand", || spec.cases());
            let seed = cases[0].seed;
            let t0 = Instant::now();
            let (outcomes, c) = layers::run_cases(&spec, &cases, Some(service.store()), id);
            let eval_micros = if c.plans + c.errors > 0 {
                t0.elapsed().as_micros() as u64
            } else {
                0
            };
            counts.lock().expect("counts lock").add(&c);
            let outcome = outcomes.into_iter().next().expect("a plan is one cell");
            let frame = PlanResponse {
                id,
                workload: plan.workload.spec(),
                seed,
                pes: plan.pes,
                scheduler: plan.scheduler.alias().to_string(),
                sim: plan.sim.to_string(),
                outcome: encode_outcome(&outcome),
            }
            .frame();
            service.counters().record_completed(
                job.client,
                job.request.tenant(),
                eval_micros,
                u64::from(outcome.is_err()),
            );
            frame
        })
    })
}

/// The traced daemon's connection reader: frames in, parse (timed as
/// `service.parse` of the request it yields), admission, responses out
/// through one writer thread — the daemon's own connection loop.
fn connection(stream: TcpStream, client: u64, service: &Service, queue: &Admission<Job>) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<String>();
    let writer = std::thread::spawn(move || {
        let mut out = std::io::BufWriter::new(write_half);
        for frame in rx {
            if out
                .write_all(frame.as_bytes())
                .and_then(|()| out.write_all(b"\n"))
                .and_then(|()| out.flush())
                .is_err()
            {
                break;
            }
        }
    });
    let mut reader = BufReader::new(stream);
    while let Ok(Some(frame)) = read_frame(&mut reader, MAX_FRAME_BYTES) {
        let Ok(frame) = frame else {
            let _ = tx.send(ProtoError::bad(0, "oversize frame").frame());
            continue;
        };
        let start_ns = trace::now_ns();
        let parsed = service.parse(&frame);
        let end_ns = trace::now_ns();
        let request = match parsed {
            Ok(r) => r,
            Err(error_frame) => {
                let _ = tx.send(error_frame);
                continue;
            }
        };
        let id = request.id();
        trace::record(id, "service.parse", start_ns, end_ns);
        if let Some(reply) = service.control(&request) {
            let _ = tx.send(reply);
            continue;
        }
        let tenant = request.tenant().to_string();
        let job = Job {
            client,
            request,
            out: tx.clone(),
        };
        match queue.push(client, &tenant, job) {
            Ok(()) => service.counters().record_accepted(client, &tenant),
            Err(_) => {
                service.counters().record_rejected(client, &tenant);
                let _ = tx.send(ProtoError::overloaded(id, "queue full").frame());
            }
        }
    }
    drop(tx);
    let _ = writer.join();
}

fn traced(dir: &Path, lists: &[Vec<Planned>; 2]) -> (Round, layers::Counts) {
    let _ = std::fs::remove_dir_all(dir);
    cache::clear();
    let counts = Mutex::new(layers::Counts::default());
    let (service, setup_s) = timed(|| {
        request(BATCH_REQUEST, || {
            span("store.open", || Service::new(service_config(dir)))
        })
        .expect("open the service store")
    });
    let queue = Admission::<Job>::new(QUEUE_BOUND);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the traced daemon");
    let addr = listener.local_addr().expect("bound address");
    let (logs, wall_s) = std::thread::scope(|s| {
        for _ in 0..PARALLELISM {
            s.spawn(|| {
                while let Some(job) = queue.pop() {
                    let _ = job.out.send(dispatch(&service, &job, &counts));
                }
            });
        }
        let acceptor = s.spawn(|| {
            std::thread::scope(|conns| {
                for client in 1..=2 {
                    let (stream, _) = listener.accept().expect("accept a client");
                    let (service, queue) = (&service, &queue);
                    conns.spawn(move || connection(stream, client, service, queue));
                }
            });
            queue.drain();
        });
        let out = drive(connect(addr), lists, true);
        acceptor.join().expect("acceptor panicked");
        out
    });
    let (segments, bytes) = disk_usage(dir);
    let round = Round {
        setup_s,
        wall_s,
        logs,
        store: StoreRound {
            stats: service.store_stats(),
            segments,
            bytes,
        },
    };
    let counts = counts.into_inner().expect("counts lock");
    (round, counts)
}

/// The in-process engine's answer to each cell asked so far: its run and
/// the run's encoded outcome.
type Expected = BTreeMap<Cell, (Run, String)>;

/// Adds the engine's answer to the cell of `req` unless `expected` has it.
fn expect_answer<'a>(expected: &'a mut Expected, req: &PlanRequest) -> &'a (Run, String) {
    expected.entry(cell(req)).or_insert_with(|| {
        let run = req.spec().run().runs.swap_remove(0);
        let outcome = encode_outcome(&run.outcome);
        (run, outcome)
    })
}

/// Compares every response with the frame the in-process engine gives for
/// the same request (as `loadgen --check` does). Error frames count as
/// failed requests; any other difference fails the run.
fn check(round: &Round, lists: &[Vec<Planned>; 2], expected: &mut Expected, report: &mut Report) {
    for (log, list) in round.logs.iter().zip(lists) {
        if let Some(e) = &log.error {
            report.fail_check(format!("client transport: {e}"));
        }
        report.attempted += list.len() as u64;
        report.failed += (list.len() - log.lines.len()) as u64;
        for (p, line) in list.iter().zip(&log.lines) {
            let (_, outcome) = expect_answer(expected, &p.req);
            let want = PlanResponse {
                id: p.req.id,
                workload: p.req.workload.spec(),
                seed: p.req.seed,
                pes: p.req.pes,
                scheduler: p.req.scheduler.alias().to_string(),
                sim: p.req.sim.to_string(),
                outcome: outcome.clone(),
            }
            .frame();
            if *line == want {
                continue;
            }
            if let Ok(Response::Error(_)) = parse_response(line) {
                report.failed += 1;
            } else {
                report.fail_check(format!(
                    "request {}: daemon {line} != engine {want}",
                    p.req.id
                ));
            }
        }
    }
}

pub fn run(ctx: &Ctx, traced_run: bool) -> Report {
    let dir = ctx.work.join("cache");
    let mut report = Report::new();
    let mut expected = Expected::new();
    // The engine answers the first round's cells before any round runs,
    // so the check's own evaluations stay out of that round's peak
    // resident set (which cells are new there depends on the seed).
    for p in round_lists(ctx.seed, 0, REQUESTS_PER_CLIENT)
        .iter()
        .flatten()
    {
        expect_answer(&mut expected, &p.req);
    }
    let (mut setup, mut rate, mut latencies) = (Vec::new(), Rate::default(), Vec::new());
    let mut layers = Traced::default();
    let peak = ctx.rounds(|n| {
        let lists = round_lists(ctx.seed, n, REQUESTS_PER_CLIENT);
        let round = untraced(&dir, &lists);
        check(&round, &lists, &mut expected, &mut report);
        let sent: usize = round.logs.iter().map(|l| l.latencies.len()).sum();
        setup.push(round.setup_s);
        rate.add(sent as f64, round.wall_s);
        layers.untraced_wall.push(round.wall_s);
        latencies.extend(round.logs.iter().flat_map(|l| l.latencies.iter().copied()));
        if !traced_run {
            return;
        }
        let (round, c) = traced(&dir, &lists);
        check(&round, &lists, &mut expected, &mut report);
        let spans = trace::take();
        if n == 0 {
            if let Err(e) = trace::write_file(&ctx.span_file(), &spans) {
                report.fail_check(format!("span file: {e}"));
            }
        }
        let distinct: HashSet<Cell> = lists
            .iter()
            .flatten()
            .filter(|p| p.new)
            .map(|p| cell(&p.req))
            .collect();
        let misses = round.store.stats.misses as f64;
        layers
            .evals_per_new_cell
            .push(misses / distinct.len() as f64);
        layers.traced_wall.push(round.wall_s);
        layers.totals.push(Totals::of(&spans));
        layers.counts.push(c);
        layers.stores.push(round.store);
    });
    let _ = std::fs::remove_dir_all(&dir);
    if traced_run {
        layers.report(&mut report);
    } else {
        latencies.sort();
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let n = latencies.len();
        eprintln!(
            "perfbench: service_mixed latency over {n} requests: p50 {:.4} ms, p99 {:.4} ms \
             ({} samples above p99)",
            ms(percentile(&latencies, 50.0)),
            ms(percentile(&latencies, 99.0)),
            n - (0.99 * n as f64).ceil() as usize
        );
        let q = quality(expected.values().map(|(run, _)| run));
        end_to_end(&mut report, &setup, peak, &rate, q);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lists_are_a_function_of_seed_and_round() {
        let a = round_lists(9, 0, REQUESTS_PER_CLIENT);
        assert_eq!(a, round_lists(9, 0, REQUESTS_PER_CLIENT));
        assert_ne!(a, round_lists(10, 0, REQUESTS_PER_CLIENT));
        assert_ne!(a, round_lists(9, 1, REQUESTS_PER_CLIENT));
    }

    #[test]
    fn request_lists_mix_new_cells_into_repeats() {
        let lists = round_lists(3, 2, REQUESTS_PER_CLIENT);
        let mut ids = HashSet::new();
        for list in &lists {
            assert_eq!(list.len(), REQUESTS_PER_CLIENT);
            assert!(list[0].new, "a client opens on a new cell");
            let new = list.iter().filter(|p| p.new).count();
            assert_eq!(new, REQUESTS_PER_CLIENT / NEW_EVERY);
            let mut answered = HashSet::new();
            for p in list {
                assert!(ids.insert(p.req.id), "request ids are unique");
                assert!(p.req.sim.validates(), "the loadgen mix validates");
                // A new cell was never sent before; a repeat was answered
                // to this client already.
                assert_eq!(p.new, answered.insert(cell(&p.req)));
            }
        }
        for (a, b) in lists[0].iter().zip(&lists[1]) {
            assert_eq!(a.shared, b.shared, "shared cells sit at one position");
            if a.shared {
                assert_eq!(cell(&a.req), cell(&b.req));
            }
        }
        // A new cell of one client is never sent as new by the other,
        // except at a shared position.
        let new_cells = |list: &[Planned]| -> HashSet<Cell> {
            list.iter()
                .filter(|p| p.new && !p.shared)
                .map(|p| cell(&p.req))
                .collect()
        };
        assert!(new_cells(&lists[0]).is_disjoint(&new_cells(&lists[1])));
    }

    /// The share of shared cells among distinct new cells, over many
    /// seeds, matches how often a 2-client `loadgen` run's draws coincide.
    #[test]
    fn shared_cells_arise_from_the_mix() {
        let (mut shared, mut distinct) = (0, 0);
        for seed in 1..=50 {
            let lists = round_lists(seed, 0, REQUESTS_PER_CLIENT);
            let s = lists[0].iter().filter(|p| p.shared).count();
            shared += s;
            distinct += 2 * (REQUESTS_PER_CLIENT / NEW_EVERY) - s;
        }
        let share = shared as f64 / distinct as f64;
        // A 2-client `loadgen` cold pass, clients in lockstep: the cells
        // both clients first request at the same list position.
        let (mut lockstep, mut first) = (0, 0);
        for seed in 1..=50 {
            let lists = [1, 2].map(|c| request_list(seed, c, 36, ""));
            let mut seen = HashSet::new();
            for (a, b) in lists[0].iter().zip(&lists[1]) {
                let both = cell(a) == cell(b) && !seen.contains(&cell(a));
                lockstep += usize::from(both);
                seen.insert(cell(a));
                seen.insert(cell(b));
            }
            first += seen.len();
        }
        let loadgen = lockstep as f64 / first as f64;
        // 1.2% here against 0.6% in lockstep `loadgen`: the same order, a
        // little higher because new-cell picks skip answered cells.
        assert!(shared > 0);
        assert!(
            share < 3.0 * loadgen && loadgen < 3.0 * share,
            "shared share {share} vs loadgen {loadgen}"
        );
    }
}
