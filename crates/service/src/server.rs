//! The TCP daemon: newline-delimited JSON over loopback, with bounded
//! admission and a fixed worker pool.
//!
//! One reader thread per connection parses frames and answers control
//! requests inline; plan/sweep requests go through the bounded
//! [`Admission`] queue (rejected with a `503` frame when full — the
//! daemon never buffers without bound) and are executed by `workers`
//! pool threads, which send response frames back through the
//! connection's writer channel. Responses to one request are contiguous
//! and in order; requests from different connections are served with
//! per-client round-robin fairness.
//!
//! Shutdown (`{"cmd":"shutdown"}` or [`Daemon::shutdown`]) is a graceful
//! drain: no new admissions, queued work still served, then the workers
//! and the accept loop exit, and [`Daemon::wait`] returns once every frame
//! already handed to a connection's writer — the shutdown ack included —
//! is written or counted in `frames_dropped`.
//!
//! Group commit: a request's new store entries are queued, not written,
//! before its reply goes out. A committer thread, started by the first
//! dispatched request, flushes the service store every
//! [`COMMIT_INTERVAL`], and [`Daemon::wait`] commits once more after the
//! drain. So a reply may precede its entry's fsync by up to
//! [`COMMIT_INTERVAL`], a clean shutdown leaves every answered miss on
//! disk, and a killed daemon loses only its uncommitted entries, which a
//! later daemon answers as misses, never wrongly.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, Once};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::protocol::{self, ProtoError, Request};
use crate::queue::{Admission, Reject};
use crate::service::Service;

/// Longest accepted request line, in bytes. Longer lines are discarded
/// (without buffering them) and answered with a 400 frame.
pub const MAX_FRAME_BYTES: usize = 64 * 1024;

/// How long [`Daemon::wait`] waits for frames still in flight after the
/// drain: only a client that stopped reading holds a writer that long.
const FLUSH_BOUND: Duration = Duration::from_secs(5);

/// How long an accept loop sleeps after a failed `accept` before it
/// tries again. A listener out of file descriptors (`EMFILE`) fails every
/// call at once while a connection waits in its backlog, so retrying at
/// once would spin a core until descriptors free up.
pub const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// How often the daemon commits the service store's queued entries to a
/// segment file: the longest a reply may precede its entry's fsync, and
/// so the window of answered misses a killed daemon can lose.
pub const COMMIT_INTERVAL: Duration = Duration::from_millis(10);

/// One admitted unit of work: the request plus the connection's writer.
struct Job {
    client: u64,
    request: Request,
    out: Writer,
}

/// A connection's writer channel, with the daemon's count of frames handed
/// to writers and not yet written or counted in `frames_dropped`.
#[derive(Clone)]
struct Writer {
    tx: mpsc::Sender<String>,
    in_flight: Arc<AtomicU64>,
}

/// The daemon's group commit: one thread that flushes the service store
/// every [`COMMIT_INTERVAL`] until stopped. It starts with the first
/// dispatched request, so a daemon that serves none never starts it.
struct Committer {
    start: Once,
    /// The running thread, and the sender whose drop stops it.
    running: Mutex<Option<(mpsc::Sender<()>, JoinHandle<()>)>>,
}

impl Committer {
    fn new() -> Committer {
        Committer {
            start: Once::new(),
            running: Mutex::new(None),
        }
    }

    /// Starts the commit thread on the first call; later calls return at
    /// once. Should the thread fail to start, entries are committed at
    /// [`FLUSH_THRESHOLD`](stg_experiments::store::FLUSH_THRESHOLD) and
    /// by [`Daemon::wait`] only.
    fn start(&self, service: &Arc<Service>) {
        self.start.call_once(|| {
            let (stop, stopped) = mpsc::channel::<()>();
            let service = Arc::clone(service);
            let thread = std::thread::Builder::new()
                .name("commit".into())
                .spawn(move || {
                    while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(COMMIT_INTERVAL)
                    {
                        service.store().flush();
                    }
                });
            *self.running.lock().expect("committer lock") = thread.ok().map(|t| (stop, t));
        });
    }

    /// Stops and joins the commit thread, if it ever started.
    fn stop(&self) {
        if let Some((stop, thread)) = self.running.lock().expect("committer lock").take() {
            drop(stop);
            let _ = thread.join();
        }
    }
}

/// The running daemon: listener address plus the handles needed to stop
/// and join it.
pub struct Daemon {
    addr: SocketAddr,
    service: Arc<Service>,
    queue: Arc<Admission<Job>>,
    stopping: Arc<AtomicBool>,
    in_flight: Arc<AtomicU64>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    committer: Arc<Committer>,
}

impl Daemon {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the accept loop and `workers` pool threads over the bounded
    /// admission queue. The store's committer starts later, with the
    /// first dispatched request.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<Service>,
        workers: usize,
        queue_bound: usize,
    ) -> std::io::Result<Daemon> {
        Daemon::bind_with_quota(addr, service, workers, queue_bound, None)
    }

    /// [`Daemon::bind`] with an additional per-tenant admission quota:
    /// at most `quota` queued requests per tenant tag, on top of the
    /// global bound and the per-client round-robin.
    pub fn bind_with_quota(
        addr: impl ToSocketAddrs,
        service: Arc<Service>,
        workers: usize,
        queue_bound: usize,
        tenant_quota: Option<usize>,
    ) -> std::io::Result<Daemon> {
        assert!(workers >= 1, "daemon needs at least one worker");
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let queue = match tenant_quota {
            Some(quota) => Arc::new(Admission::<Job>::new(queue_bound).with_tenant_quota(quota)),
            None => Arc::new(Admission::<Job>::new(queue_bound)),
        };
        let stopping = Arc::new(AtomicBool::new(false));
        let in_flight = Arc::new(AtomicU64::new(0));
        let committer = Arc::new(Committer::new());

        let mut pool = Vec::with_capacity(workers);
        for _ in 0..workers {
            let queue = Arc::clone(&queue);
            let service = Arc::clone(&service);
            let committer = Arc::clone(&committer);
            pool.push(std::thread::spawn(move || {
                while let Some(job) = queue.pop() {
                    for frame in service.dispatch(job.client, &job.request) {
                        // The result stays in the shared cache even if
                        // the client hung up.
                        send(&service, &job.out, frame);
                    }
                    // After the reply: starting the committer is no part
                    // of a request's latency.
                    committer.start(&service);
                }
            }));
        }

        let accept = {
            let queue = Arc::clone(&queue);
            let service = Arc::clone(&service);
            let stopping = Arc::clone(&stopping);
            let in_flight = Arc::clone(&in_flight);
            std::thread::spawn(move || {
                let clients = Arc::new(AtomicU64::new(0));
                for stream in listener.incoming() {
                    if stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    // A connection needs a second descriptor for its
                    // writer; without one it is dropped and counted like
                    // a failed accept, and the loop backs off.
                    let halves = stream.and_then(|s| Ok((s.try_clone()?, s)));
                    let Ok((write_half, stream)) = halves else {
                        service.counters().totals().accept_errors.add(1);
                        std::thread::sleep(ACCEPT_BACKOFF);
                        continue;
                    };
                    let client = clients.fetch_add(1, Ordering::Relaxed) + 1;
                    let queue = Arc::clone(&queue);
                    let service = Arc::clone(&service);
                    let stopping = Arc::clone(&stopping);
                    let in_flight = Arc::clone(&in_flight);
                    std::thread::spawn(move || {
                        let halves = (stream, write_half);
                        serve_connection(halves, client, &service, &queue, &stopping, in_flight);
                    });
                }
            })
        };

        Ok(Daemon {
            addr,
            service,
            queue,
            stopping,
            in_flight,
            accept: Some(accept),
            workers: pool,
            committer,
        })
    }

    /// The bound listener address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service this daemon fronts.
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Begins the graceful drain: stop admitting, serve what is queued,
    /// wake the accept loop so it can exit.
    pub fn shutdown(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.queue.drain();
        // The accept loop is blocked in `accept`; a throwaway connection
        // wakes it to observe the flag.
        let _ = TcpStream::connect(self.addr);
    }

    /// Waits for the drain to complete: all queued work served, workers
    /// and accept loop exited, the store committed, and every frame handed
    /// to a writer written or counted in `frames_dropped` (for at most
    /// five seconds). Open connections are not waited for — their reader
    /// threads die with their sockets — so an idle client cannot hold the
    /// drain up.
    ///
    /// The committer stops after the workers, and the store is flushed
    /// once more after it, so every miss the daemon answered is on disk
    /// when this returns.
    pub fn wait(mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.committer.stop();
        self.service.store().flush();
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        let deadline = Instant::now() + FLUSH_BOUND;
        while self.in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Reads one `\n`-terminated frame with a hard length bound. Oversized
/// lines are consumed and discarded (never buffered whole) and reported
/// as `Some(Err(len))`; EOF with no pending bytes is `None`. Public so
/// the fabric coordinator/worker loops share the daemon's framing.
pub fn read_frame(
    reader: &mut impl BufRead,
    max: usize,
) -> std::io::Result<Option<Result<String, usize>>> {
    let mut line = Vec::new();
    let mut total = 0usize;
    let mut saw_bytes = false;
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            if !saw_bytes {
                return Ok(None);
            }
            break; // unterminated trailing data still forms a frame
        }
        saw_bytes = true;
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                total += pos;
                if total <= max {
                    line.extend_from_slice(&buf[..pos]);
                }
                reader.consume(pos + 1);
                break;
            }
            None => {
                let len = buf.len();
                total += len;
                if total <= max {
                    line.extend_from_slice(buf);
                } else {
                    line.clear(); // over the bound: stop buffering, keep draining
                }
                reader.consume(len);
            }
        }
    }
    if total > max {
        return Ok(Some(Err(total)));
    }
    Ok(Some(Ok(String::from_utf8_lossy(&line).into_owned())))
}

/// Hands a response frame to its connection's writer, counting it in
/// `frames_dropped` if the writer is gone. Returns whether it was handed
/// over.
fn send(service: &Service, out: &Writer, frame: String) -> bool {
    out.in_flight.fetch_add(1, Ordering::SeqCst);
    let sent = out.tx.send(frame).is_ok();
    if !sent {
        out.in_flight.fetch_sub(1, Ordering::SeqCst);
        service.counters().totals().frames_dropped.add(1);
    }
    sent
}

/// One connection's writer loop. On the first failed write the client is
/// gone: it shuts the socket down, so the reader loop ends too, and counts
/// the failed frame and every frame queued behind it, including those
/// still being produced, in `frames_dropped`. Each frame leaves the
/// in-flight count once written or counted.
fn write_frames(
    service: &Service,
    stream: TcpStream,
    frames: mpsc::Receiver<String>,
    in_flight: &AtomicU64,
) {
    let mut out = std::io::BufWriter::new(stream);
    let mut frames = frames.into_iter();
    for frame in frames.by_ref() {
        let written = out
            .write_all(frame.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .and_then(|()| out.flush());
        if written.is_err() {
            let _ = out.get_ref().shutdown(Shutdown::Both);
            let dropped = 1 + frames.count() as u64;
            service.counters().totals().frames_dropped.add(dropped);
            in_flight.fetch_sub(dropped, Ordering::SeqCst);
            return;
        }
        in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One connection's reader loop over the stream and its writer's clone:
/// frames in, responses out through the writer channel. Malformed frames
/// answer with a 400 and keep the connection open; only EOF or an I/O
/// error ends it.
fn serve_connection(
    (stream, write_half): (TcpStream, TcpStream),
    client: u64,
    service: &Arc<Service>,
    queue: &Arc<Admission<Job>>,
    stopping: &Arc<AtomicBool>,
    in_flight: Arc<AtomicU64>,
) {
    // Responses are one buffered write + flush per frame; without
    // TCP_NODELAY a frame can sit behind Nagle waiting on a delayed ACK,
    // putting a ~40ms floor under every warm (cache-hit) request.
    let _ = stream.set_nodelay(true);
    let (tx, rx) = mpsc::channel();
    let writer = {
        let service = Arc::clone(service);
        let in_flight = Arc::clone(&in_flight);
        std::thread::spawn(move || write_frames(&service, write_half, rx, &in_flight))
    };
    let tx = Writer { tx, in_flight };

    let mut reader = BufReader::new(stream);
    loop {
        let frame = match read_frame(&mut reader, MAX_FRAME_BYTES) {
            Ok(Some(Ok(frame))) => frame,
            Ok(Some(Err(len))) => {
                service.counters().totals().malformed.add(1);
                let e = ProtoError::bad(
                    0,
                    format!("frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"),
                );
                if !send(service, &tx, e.frame()) {
                    break;
                }
                continue;
            }
            Ok(None) | Err(_) => break,
        };
        if frame.trim().is_empty() {
            continue;
        }
        let request = match service.parse(&frame) {
            Ok(r) => r,
            Err(error_frame) => {
                if !send(service, &tx, error_frame) {
                    break;
                }
                continue;
            }
        };
        if let Some(reply) = service.control(&request) {
            if !send(service, &tx, reply) {
                break;
            }
            continue;
        }
        if let Request::Shutdown { id } = request {
            // Acknowledge first, then start the drain so this client's
            // ack is never cut off by the exit.
            let ack = protocol::DoneResponse {
                id,
                cases: 0,
                errors: 0,
            }
            .frame();
            send(service, &tx, ack);
            stopping.store(true, Ordering::SeqCst);
            queue.drain();
            // The accepted socket's local address is the listener's;
            // reconnecting wakes the accept loop to observe the flag.
            if let Ok(addr) = reader.get_ref().local_addr() {
                let _ = TcpStream::connect(addr);
            }
            continue;
        }
        let id = request.id();
        let tenant = request.tenant().to_string();
        let job = Job {
            client,
            request,
            out: tx.clone(),
        };
        match queue.push(client, &tenant, job) {
            Ok(()) => service.counters().record_accepted(client, &tenant),
            Err(reject) => {
                service.counters().record_rejected(client, &tenant);
                let reason = match reject {
                    Reject::Overloaded => {
                        format!("queue full ({} queued); retry later", queue.bound())
                    }
                    Reject::TenantQuota => format!(
                        "tenant {tenant:?} already holds its quota of {} queued requests; retry later",
                        queue.tenant_quota().unwrap_or(0)
                    ),
                    Reject::Draining => "service is draining for shutdown".to_string(),
                };
                if !send(service, &tx, ProtoError::overloaded(id, reason).frame()) {
                    break;
                }
            }
        }
    }
    drop(tx);
    let _ = writer.join();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use std::io::Cursor;

    /// The committer starts with the first dispatched request: binding
    /// and control frames leave it stopped, so a daemon's set-up does not
    /// pay for a thread it may never need.
    #[test]
    fn the_committer_starts_with_the_first_dispatched_request() {
        let service = Arc::new(Service::new(ServiceConfig::default()).expect("in-memory service"));
        let daemon = Daemon::bind("127.0.0.1:0", service, 1, 4).expect("daemon binds");
        let started = || {
            daemon
                .committer
                .running
                .lock()
                .expect("committer lock")
                .is_some()
        };
        let stream = TcpStream::connect(daemon.addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut exchange = |line: &str| {
            (&stream)
                .write_all(format!("{line}\n").as_bytes())
                .expect("send");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("recv");
            reply
        };
        exchange(r#"{"cmd":"stats"}"#);
        assert!(!started(), "a control frame starts no committer");
        exchange(r#"{"workload":"chain:8","seed":1,"pes":2,"scheduler":"sb-lts"}"#);
        // The worker starts it right after handing the reply over.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !started() {
            assert!(Instant::now() < deadline, "no committer after a dispatch");
            std::thread::yield_now();
        }
        daemon.shutdown();
        daemon.wait();
    }

    #[test]
    fn read_frame_splits_lines_and_handles_eof() {
        let mut r = BufReader::new(Cursor::new(b"one\ntwo\nthree".to_vec()));
        assert_eq!(read_frame(&mut r, 16).unwrap(), Some(Ok("one".into())));
        assert_eq!(read_frame(&mut r, 16).unwrap(), Some(Ok("two".into())));
        // Unterminated trailing bytes still form a final frame.
        assert_eq!(read_frame(&mut r, 16).unwrap(), Some(Ok("three".into())));
        assert_eq!(read_frame(&mut r, 16).unwrap(), None);
    }

    #[test]
    fn read_frame_discards_oversized_lines_without_buffering() {
        let long = "x".repeat(100);
        let input = format!("{long}\nok\n");
        let mut r = BufReader::new(Cursor::new(input.into_bytes()));
        match read_frame(&mut r, 16).unwrap() {
            Some(Err(len)) => assert_eq!(len, 100),
            other => panic!("expected oversize error, got {other:?}"),
        }
        // The stream recovers at the next line.
        assert_eq!(read_frame(&mut r, 16).unwrap(), Some(Ok("ok".into())));
    }
}
