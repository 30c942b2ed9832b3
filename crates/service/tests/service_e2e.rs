//! End-to-end daemon tests over loopback TCP: byte-identity against the
//! engine, bounded overload with per-client fairness, the warm path
//! across a daemon restart, malformed-frame resilience, and an accept
//! loop that runs out of file descriptors.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stg_core::SchedulerKind;
use stg_service::loadgen::engine_frame;
use stg_service::{
    parse_request, parse_response, Daemon, PlanRequest, Request, Response, Service, ServiceConfig,
    CODE_BAD_REQUEST, CODE_OVERLOADED,
};

fn start(config: ServiceConfig, workers: usize, queue_bound: usize) -> Daemon {
    let service = Arc::new(Service::new(config).expect("service opens"));
    Daemon::bind("127.0.0.1:0", service, workers, queue_bound).expect("daemon binds")
}

fn start_with_quota(
    config: ServiceConfig,
    workers: usize,
    queue_bound: usize,
    quota: usize,
) -> Daemon {
    let service = Arc::new(Service::new(config).expect("service opens"));
    Daemon::bind_with_quota("127.0.0.1:0", service, workers, queue_bound, Some(quota))
        .expect("daemon binds")
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        // Single write per frame: two small writes would trip Nagle +
        // delayed-ACK and slow every request by ~40ms.
        let frame = format!("{line}\n");
        self.stream.write_all(frame.as_bytes()).expect("send");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("recv");
        assert!(n > 0, "daemon closed the connection");
        line.trim_end().to_string()
    }
}

/// The stats snapshot via a throwaway connection (control frames are
/// answered inline, so this works while every worker is busy).
fn stats(addr: std::net::SocketAddr) -> stg_service::Stats {
    let mut c = Client::connect(addr);
    c.send(r#"{"cmd":"stats"}"#);
    let line = c.recv();
    match parse_response(&line).expect("stats parses") {
        Response::Stats(v) => stg_service::Stats::from_json(&v).expect("stats decodes"),
        other => panic!("expected stats, got {other:?}"),
    }
}

fn wait_until(what: &str, deadline: Duration, mut ok: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !ok() {
        assert!(t0.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn concurrent_clients_get_byte_identical_engine_output() {
    let daemon = start(ServiceConfig::default(), 4, 64);
    let addr = daemon.addr();
    // Four clients, each with its own mix of registered cells (some
    // validated), all in flight concurrently.
    let mixes: Vec<Vec<(&str, usize, &str, &str)>> = vec![
        vec![
            ("chain:8", 4, "sb-lts", "off"),
            ("fft:32", 8, "sb-rlx", "batched"),
        ],
        vec![
            ("stencil2d:8x8", 8, "nonstreaming", "off"),
            ("chain:8", 2, "sb-lts", "reference"),
        ],
        vec![
            ("forkjoin:2x3", 4, "sb-lts", "batched"),
            ("gauss:8", 16, "sb-rlx", "off"),
        ],
        vec![
            ("spmv:64:0.05", 8, "sb-lts", "off"),
            ("chol:4", 8, "nonstreaming", "both"),
        ],
    ];
    let results: Vec<Vec<(PlanRequest, String)>> = std::thread::scope(|s| {
        let handles: Vec<_> = mixes
            .iter()
            .enumerate()
            .map(|(c, mix)| {
                s.spawn(move || {
                    let mut client = Client::connect(addr);
                    let mut got = Vec::new();
                    for (i, &(workload, pes, scheduler, sim)) in mix.iter().enumerate() {
                        let req = PlanRequest {
                            id: (c * 100 + i) as u64,
                            workload: workload.parse().unwrap(),
                            seed: c as u64,
                            pes,
                            scheduler: scheduler.parse().unwrap(),
                            sim: sim.parse().unwrap(),
                            tenant: String::new(),
                        };
                        client.send(&req.encode());
                        let line = client.recv();
                        got.push((req, line));
                    }
                    got
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (req, line) in results.into_iter().flatten() {
        assert_eq!(line, engine_frame(&req), "request {}", req.encode());
    }
    daemon.shutdown();
    daemon.wait();
}

#[test]
fn overload_is_bounded_and_interleaved_clients_progress() {
    // Two workers, queue bound 4, and a long artificial service time so
    // the saturation point is reached deterministically.
    let delay = Duration::from_millis(800);
    let config = ServiceConfig {
        eval_delay: delay,
        ..ServiceConfig::default()
    };
    let daemon = start(config, 2, 4);
    let addr = daemon.addr();
    let plan = |id: u64, seed: u64| {
        format!(r#"{{"id":{id},"workload":"chain:8","seed":{seed},"pes":2,"scheduler":"sb-lts"}}"#)
    };
    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);

    // Phase 1: saturate both workers.
    a.send(&plan(1, 0));
    a.send(&plan(2, 1));
    wait_until("both workers busy", Duration::from_secs(10), || {
        let s = stats(addr).service;
        s.in_flight() == 2 && s.queued() == 0
    });
    // Phase 2: fill the queue — two requests from each client.
    a.send(&plan(3, 2));
    a.send(&plan(4, 3));
    b.send(&plan(5, 4));
    b.send(&plan(6, 5));
    wait_until("queue full", Duration::from_secs(10), || {
        stats(addr).service.queued() == 4
    });
    // Phase 3: a burst of 44 more — every one must be rejected with a
    // 503 frame (never buffered, never dropped).
    for i in 0..44u64 {
        let c = if i % 2 == 0 { &mut a } else { &mut b };
        c.send(&plan(100 + i, i));
    }

    // Drain every response; classify by status. Client A expects
    // 4 results + 22 rejections, client B 2 results + 22 rejections.
    let mut ok = 0usize;
    let mut rejected = 0usize;
    for (client, expect) in [(&mut a, 26), (&mut b, 24)] {
        for _ in 0..expect {
            match parse_response(&client.recv()).expect("frame parses") {
                Response::Ok(_) => ok += 1,
                Response::Error(e) => {
                    assert_eq!(e.code, CODE_OVERLOADED, "{e:?}");
                    rejected += 1;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }
    assert_eq!((ok, rejected), (6, 44));

    // The counters agree, and both interleaved clients made progress.
    let stats = stats(addr);
    let snap = stats.service;
    assert_eq!(snap.accepted, 6);
    assert_eq!(snap.rejected, 44);
    assert_eq!(snap.completed, 6);
    let per: BTreeMap<u64, _> = stats.clients.iter().cloned().collect();
    let progressed = per.values().filter(|c| c.completed > 0).count();
    assert_eq!(progressed, 2, "both clients must complete work: {per:?}");
    for c in per.values() {
        assert_eq!(c.completed, c.accepted, "{per:?}");
    }
    daemon.shutdown();
    daemon.wait();
}

#[test]
fn tenant_quota_caps_a_burst_without_starving_the_other_tenant() {
    // Two workers, a long artificial service time, a roomy global queue
    // (bound 16 — never the limiter here), and a per-tenant quota of 2:
    // a tenant bursting ahead is capped at the quota while the other
    // tenant and untagged clients keep landing work.
    let config = ServiceConfig {
        eval_delay: Duration::from_millis(800),
        ..ServiceConfig::default()
    };
    let daemon = start_with_quota(config, 2, 16, 2);
    let addr = daemon.addr();
    let plan = |id: u64, seed: u64, tenant: &str| {
        format!(
            r#"{{"id":{id},"workload":"chain:8","seed":{seed},"pes":2,"scheduler":"sb-lts","tenant":"{tenant}"}}"#
        )
    };

    // Phase 1: an untagged client occupies both workers (quota-exempt).
    let mut untagged = Client::connect(addr);
    untagged.send(&plan(1, 0, ""));
    untagged.send(&plan(2, 1, ""));
    wait_until("both workers busy", Duration::from_secs(10), || {
        let s = stats(addr).service;
        s.in_flight() == 2 && s.queued() == 0
    });

    // Phase 2: tenant "acme" fills its quota from one connection...
    let mut acme_a = Client::connect(addr);
    acme_a.send(&plan(3, 2, "acme"));
    acme_a.send(&plan(4, 3, "acme"));
    wait_until("acme quota filled", Duration::from_secs(10), || {
        stats(addr).service.queued() == 2
    });
    // ...and bursts past it from a *second* connection: the quota spans
    // connections, so both are rejected while the queue has 14 free slots.
    let mut acme_b = Client::connect(addr);
    acme_b.send(&plan(5, 4, "acme"));
    acme_b.send(&plan(6, 5, "acme"));
    for _ in 0..2 {
        match parse_response(&acme_b.recv()).expect("frame parses") {
            Response::Error(e) => {
                assert_eq!(e.code, CODE_OVERLOADED, "{e:?}");
                assert!(e.error.contains("quota"), "{}", e.error);
                assert!(e.error.contains("acme"), "{}", e.error);
            }
            other => panic!("expected a quota rejection, got {other:?}"),
        }
    }

    // Phase 3: tenant "blue" is unaffected by acme's burst.
    let mut blue = Client::connect(addr);
    blue.send(&plan(7, 6, "blue"));
    blue.send(&plan(8, 7, "blue"));
    wait_until("blue admitted", Duration::from_secs(10), || {
        stats(addr).service.queued() == 4
    });

    // Every admitted request completes.
    for client in [&mut untagged, &mut acme_a, &mut blue] {
        for _ in 0..2 {
            match parse_response(&client.recv()).expect("frame parses") {
                Response::Ok(_) => {}
                other => panic!("expected a result, got {other:?}"),
            }
        }
    }

    // Per-tenant counters reconcile: acme capped but served, blue clean,
    // the untagged client never materializes a tenant row.
    let stats = stats(addr);
    let snap = stats.service;
    assert_eq!((snap.accepted, snap.rejected, snap.completed), (6, 2, 6));
    let tenants: BTreeMap<String, _> = stats.tenants.iter().cloned().collect();
    assert_eq!(tenants.len(), 2, "{tenants:?}");
    let acme = &tenants["acme"];
    assert_eq!((acme.accepted, acme.rejected, acme.completed), (2, 2, 2));
    let blue = &tenants["blue"];
    assert_eq!((blue.accepted, blue.rejected, blue.completed), (2, 0, 2));
    daemon.shutdown();
    daemon.wait();
}

fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stg-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_path_survives_daemon_restart_with_cache_dir() {
    let dir = temp_cache_dir("warm");
    let request =
        r#"{"id":1,"workload":"fft:32","seed":2,"pes":16,"scheduler":"sb-lts","sim":"batched"}"#;
    // Distinct cells answered back to back right before the shutdown, so
    // the commit timer has most likely not written the last of them.
    let misses: Vec<String> = (0..4)
        .map(|seed| {
            format!(
                r#"{{"id":{},"workload":"chain:8","seed":{seed},"pes":4,"scheduler":"sb-rlx","sim":"batched"}}"#,
                10 + seed
            )
        })
        .collect();
    let config = || ServiceConfig {
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };

    // Cold daemon: first request misses, second hits, bytes identical.
    let daemon = start(config(), 2, 16);
    let mut c = Client::connect(daemon.addr());
    c.send(request);
    let cold = c.recv();
    let store = stats(daemon.addr()).cell_cache;
    assert_eq!((store.hits, store.misses), (0, 1));
    c.send(request);
    let warm = c.recv();
    assert_eq!(cold, warm, "cache hits must be byte-identical");
    let store = stats(daemon.addr()).cell_cache;
    assert_eq!((store.hits, store.misses), (1, 1));
    let answers: Vec<String> = misses
        .iter()
        .map(|line| {
            c.send(line);
            c.recv()
        })
        .collect();
    let store = stats(daemon.addr()).cell_cache;
    assert_eq!(store.misses, 1 + misses.len() as u64);

    // Graceful shutdown through the protocol: `wait` commits whatever
    // the timer has not.
    c.send(r#"{"cmd":"shutdown","id":9}"#);
    match parse_response(&c.recv()).expect("ack parses") {
        Response::Done(d) => assert_eq!(d.id, 9),
        other => panic!("unexpected shutdown ack {other:?}"),
    }
    daemon.wait();

    // Restarted daemon, same cache dir: every cell the first daemon
    // answered is warm — no re-scheduling (zero evaluation time
    // recorded), identical bytes.
    let daemon = start(config(), 2, 16);
    let mut c = Client::connect(daemon.addr());
    c.send(request);
    let restarted = c.recv();
    assert_eq!(restarted, cold, "disk cache must reproduce the bytes");
    for (line, answer) in misses.iter().zip(&answers) {
        c.send(line);
        assert_eq!(&c.recv(), answer, "{line}");
    }
    let stats = stats(daemon.addr());
    let store = stats.cell_cache;
    assert_eq!((store.hits, store.misses), (1 + misses.len() as u64, 0));
    assert_eq!(
        stats.service.eval_micros, 0,
        "warm requests never re-schedule"
    );
    daemon.shutdown();
    daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_frames_answer_400_and_keep_the_connection() {
    let daemon = start(ServiceConfig::default(), 2, 16);
    let mut c = Client::connect(daemon.addr());
    for bad in [
        "garbage",
        "{\"pes\":4}",
        "[1,2,3]",
        "{\"workload\":\"chain:8\",\"pes\":0,\"scheduler\":\"sb-lts\"}",
    ] {
        c.send(bad);
        match parse_response(&c.recv()).expect("error frame parses") {
            Response::Error(e) => assert_eq!(e.code, CODE_BAD_REQUEST, "{bad:?}"),
            other => panic!("{bad:?} answered {other:?}"),
        }
    }
    // An oversized line is discarded without buffering and answered too.
    let huge = format!("{{\"workload\":\"{}\"}}", "x".repeat(80 * 1024));
    c.send(&huge);
    match parse_response(&c.recv()).expect("oversize frame parses") {
        Response::Error(e) => {
            assert_eq!(e.code, CODE_BAD_REQUEST);
            assert!(e.error.contains("exceeds"), "{}", e.error);
        }
        other => panic!("oversize answered {other:?}"),
    }
    // The connection is still alive and serves real work.
    c.send(r#"{"cmd":"ping","id":5}"#);
    assert!(matches!(
        parse_response(&c.recv()).unwrap(),
        Response::Pong { id: 5 }
    ));
    let req = PlanRequest {
        id: 6,
        workload: "chain:8".parse().unwrap(),
        seed: 0,
        pes: 4,
        scheduler: SchedulerKind::StreamingLts,
        sim: "off".parse().unwrap(),
        tenant: String::new(),
    };
    c.send(&req.encode());
    assert_eq!(c.recv(), engine_frame(&req));
    assert_eq!(stats(daemon.addr()).service.malformed, 5);
    daemon.shutdown();
    daemon.wait();
}

#[test]
fn frames_for_a_departed_client_count_as_dropped() {
    // One slow worker: the client is gone before its 201 frames exist.
    let config = ServiceConfig {
        eval_delay: Duration::from_millis(300),
        ..ServiceConfig::default()
    };
    let daemon = start(config, 1, 16);
    let addr = daemon.addr();
    let mut c = Client::connect(addr);
    c.send(r#"{"id":1,"sweep":{"workloads":[{"workload":"chain:8","pes":[2]}],"graphs":200,"seed":1,"schedulers":["sb-lts"]}}"#);
    wait_until("the request is admitted", Duration::from_secs(10), || {
        stats(addr).service.accepted == 1
    });
    drop(c);
    wait_until("the request completes", Duration::from_secs(30), || {
        stats(addr).service.completed == 1
    });
    // The writer fails on a write once the client's side has reset, then
    // counts every frame still queued or produced for the connection.
    wait_until(
        "dropped frames are counted",
        Duration::from_secs(10),
        || stats(addr).service.frames_dropped > 0,
    );
    assert!(stats(addr).service.frames_dropped <= 201);
    daemon.shutdown();
    daemon.wait();
}

#[test]
fn sweep_requests_stream_records_over_tcp() {
    let daemon = start(ServiceConfig::default(), 2, 16);
    let mut c = Client::connect(daemon.addr());
    let line = r#"{"id":3,"sweep":{"workloads":[{"workload":"chain:8","pes":[2,4]}],"graphs":1,"seed":0,"schedulers":["sb-lts","sb-rlx"]}}"#;
    // The same spec through the engine directly.
    let spec = match parse_request(line).expect("sweep parses") {
        Request::Sweep(s) => s.spec,
        other => panic!("not a sweep: {other:?}"),
    };
    let direct = spec.run();
    c.send(line);
    for run in &direct.runs {
        match parse_response(&c.recv()).expect("record parses") {
            Response::Record(r) => {
                assert_eq!((r.id, r.index), (3, run.case.index));
                assert_eq!(
                    r.outcome,
                    stg_experiments::store::encode_outcome(&run.outcome)
                );
            }
            other => panic!("expected record, got {other:?}"),
        }
    }
    match parse_response(&c.recv()).expect("done parses") {
        Response::Done(d) => assert_eq!((d.cases, d.errors), (direct.runs.len(), 0)),
        other => panic!("expected done, got {other:?}"),
    }
    daemon.shutdown();
    daemon.wait();
}

/// `serve` exits as soon as `Daemon::wait` returns, so every frame handed
/// to a connection's writer before then — the shutdown ack included —
/// must already be on the socket. Each round reads the ack without
/// blocking, right after `wait`.
#[test]
fn shutdown_ack_is_written_before_wait_returns() {
    for round in 0..50 {
        let daemon = start(ServiceConfig::default(), 2, 8);
        // An idle client that keeps its connection open must not hold
        // the drain up.
        let idle = Client::connect(daemon.addr());
        let mut c = Client::connect(daemon.addr());
        c.send(&format!(r#"{{"cmd":"shutdown","id":{round}}}"#));
        daemon.wait();
        c.stream.set_nonblocking(true).expect("nonblocking");
        let mut line = String::new();
        match c.reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            other => panic!("round {round}: no ack on the socket when wait returned: {other:?}"),
        }
        match parse_response(line.trim_end()).expect("ack parses") {
            Response::Done(d) => assert_eq!(d.id, round, "round {round}"),
            other => panic!("round {round}: unexpected shutdown ack {other:?}"),
        }
        drop(idle);
    }
}

/// A spawned daemon process, killed if the test ends before it exits.
#[cfg(target_os = "linux")]
struct ServeProcess(std::process::Child);

#[cfg(target_os = "linux")]
impl Drop for ServeProcess {
    fn drop(&mut self) {
        // Both fail harmlessly once the daemon has exited and been reaped.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `serve` allowed at most `limit` open file descriptors and
/// returns it with its address and the descriptors it holds once it
/// listens.
#[cfg(target_os = "linux")]
fn serve_with_fd_limit(limit: usize) -> (ServeProcess, std::net::SocketAddr, usize) {
    let mut child = std::process::Command::new("sh")
        .arg("-c")
        .arg(format!(
            r#"ulimit -n {limit} && exec "$0" --addr 127.0.0.1:0 --workers 1"#
        ))
        .arg(env!("CARGO_BIN_EXE_serve"))
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn serve under a lowered descriptor limit");
    let mut banner = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("read the listening line");
    let addr = banner
        .split_whitespace()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no address in {banner:?}"));
    let open = std::fs::read_dir(format!("/proc/{}/fd", child.id()))
        .expect("list the daemon's descriptors")
        .count();
    (ServeProcess(child), addr, open)
}

/// User plus system CPU time of process `pid`, in clock ticks
/// (`/proc/<pid>/stat` fields 14 and 15).
#[cfg(target_os = "linux")]
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read /proc stat");
    // The command name may hold spaces: the fields after it start past
    // its closing parenthesis, at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

/// A `serve` allowed about 24 file descriptors and sent 30 idle
/// connections runs out of descriptors: every `accept` then fails at
/// once (`EMFILE`) while connections wait in the listen backlog. The
/// daemon counts each failure and backs off, so it stays idle instead of
/// spinning a core, and it answers again once the clients close.
#[cfg(target_os = "linux")]
#[test]
fn an_accept_loop_out_of_descriptors_backs_off_and_recovers() {
    // A connection holds two descriptors: its stream and the clone its
    // writer thread uses. With an odd number left free, the last accept
    // takes the last descriptor, its clone fails and the connection is
    // dropped (the sibling test below). With an even number the daemon
    // ends with a full table and a waiting backlog.
    let (mut serve, addr) = (24..26)
        .map(serve_with_fd_limit)
        .zip(24..26)
        .find_map(|((serve, addr, open), limit)| ((limit - open) % 2 == 0).then_some((serve, addr)))
        .expect("one of two consecutive limits leaves an even number free");
    let pid = serve.0.id();
    let idle: Vec<TcpStream> = (0..30)
        .map(|_| TcpStream::connect(addr).expect("the backlog takes the connection"))
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    let before = cpu_ticks(pid);
    std::thread::sleep(Duration::from_secs(2));
    let ticks = cpu_ticks(pid) - before;
    // A core is 200 ticks over 2 s at the usual 100 ticks per second; a
    // spinning accept loop used 199 of them.
    assert!(
        ticks < 40,
        "serve used {ticks} CPU ticks in 2 s while out of descriptors"
    );
    drop(idle);
    // While the backlog drains, a connection can still lose the race for
    // a descriptor and be dropped: retry until a stats frame arrives.
    let try_stats = || -> Option<stg_service::Stats> {
        let mut stream = TcpStream::connect(addr).ok()?;
        stream.write_all(b"{\"cmd\":\"stats\"}\n").ok()?;
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).ok()?;
        match parse_response(line.trim_end()).ok()? {
            Response::Stats(v) => stg_service::Stats::from_json(&v),
            _ => None,
        }
    };
    let mut errors = 0;
    wait_until("a stats frame", Duration::from_secs(20), || {
        try_stats()
            .map(|s| errors = s.service.accept_errors)
            .is_some()
    });
    assert!(errors > 0, "no failed accept was counted");
    let req = PlanRequest {
        id: 3,
        workload: "chain:8".parse().expect("registered spec"),
        seed: 1,
        pes: 4,
        scheduler: SchedulerKind::StreamingLts,
        sim: "batched".parse().expect("batched simulator"),
        tenant: String::new(),
    };
    let mut c = Client::connect(addr);
    c.send(&req.encode());
    assert_eq!(c.recv(), engine_frame(&req));
    c.send(r#"{"cmd":"shutdown"}"#);
    assert!(matches!(parse_response(&c.recv()), Ok(Response::Done(_))));
    let status = serve.0.wait().expect("serve exits");
    assert!(status.success(), "{status:?} after {errors} failed accepts");
}

/// With an odd number of descriptors free, each connection accepted into
/// the last one cannot clone its stream for the writer: the daemon drops
/// it, counts it in `accept_errors` and backs off, and it answers again
/// once the clients close. A handful of connections shows it: a limit of
/// five descriptors over what the idle daemon holds serves two
/// connections and drops the rest.
#[cfg(target_os = "linux")]
#[test]
fn a_connection_without_a_descriptor_for_its_writer_is_counted() {
    let open = serve_with_fd_limit(24).2;
    let limit = open + 5;
    let (serve, addr, held) = serve_with_fd_limit(limit);
    assert_eq!(limit - held, 5, "the daemon's idle descriptors changed");
    let pid = serve.0.id();
    let idle: Vec<TcpStream> = (0..6)
        .map(|_| TcpStream::connect(addr).expect("the backlog takes the connection"))
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    let before = cpu_ticks(pid);
    std::thread::sleep(Duration::from_secs(1));
    let ticks = cpu_ticks(pid) - before;
    assert!(ticks < 20, "serve used {ticks} CPU ticks in 1 s");
    let stats = |stream: &TcpStream| -> Option<stg_service::Stats> {
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
        let mut w = stream;
        w.write_all(b"{\"cmd\":\"stats\"}\n").ok()?;
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).ok()?;
        match parse_response(line.trim_end()).ok()? {
            Response::Stats(v) => stg_service::Stats::from_json(&v),
            _ => None,
        }
    };
    // The first two connections were served; the other four each took
    // the last descriptor, lost their writer's clone and were counted.
    let served = stats(&idle[0]).expect("the first connection is served");
    assert_eq!(served.service.accept_errors, 4);
    drop(idle);
    // A new connection may lose the race for the descriptors the served
    // clients free: retry until a stats frame arrives.
    wait_until("a stats frame", Duration::from_secs(20), || {
        TcpStream::connect(addr)
            .ok()
            .and_then(|s| stats(&s))
            .is_some()
    });
    // No shutdown: a blocked `accept` holds a descriptor for the
    // connection it waits for, so with this few free, the shutdown's
    // wake-up connection can find none while closed clients' descriptors
    // are still being released, and the daemon would not exit. Dropping
    // `serve` kills it.
    drop(serve);
}
