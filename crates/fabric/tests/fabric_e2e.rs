//! End-to-end fabric tests: coordinator + workers over real loopback
//! TCP, asserting the distributed artifact is byte-identical to the
//! unsharded sweep — including with workers killed mid-lease, dropped
//! connections, expired deadlines, and a shared cell cache.

use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use stg_core::SchedulerKind;
use stg_experiments::engine::{SimChoice, WorkloadSpec};
use stg_experiments::store::FLUSH_THRESHOLD;
use stg_experiments::SweepSpec;
use stg_fabric::{
    run_worker, Coordinator, FabricConfig, FabricRequest, FabricResponse, FabricRunReport,
    FabricSnapshot, LeaseOrder, OutputKind, WorkerConfig, MAX_FRAME_BYTES,
};
use stg_service::read_frame;

/// A small validated grid over several families: 42 cells, all seeded
/// (hence cacheable), cheap enough to evaluate many times per test run.
fn spec() -> SweepSpec {
    let workload = |spec: &str, pes: Vec<usize>| WorkloadSpec {
        workload: spec.parse().expect("registered spec"),
        pes,
    };
    SweepSpec {
        workloads: vec![
            workload("chain:6", vec![2, 4]),
            workload("fft:8", vec![8]),
            workload("stencil2d:5x4", vec![4]),
            workload("spmv:48:0.08", vec![8]),
            workload("attention:seq256", vec![8]),
            workload("forkjoin:3x5", vec![4]),
        ],
        graphs: 2,
        seed: 7,
        schedulers: vec![
            SchedulerKind::StreamingLts,
            SchedulerKind::StreamingRlx,
            SchedulerKind::NonStreaming,
        ],
        validate: true,
        sim: SimChoice::default(),
        timing: false,
        threads: Some(2),
    }
}

/// The unsharded reference artifacts, evaluated once per test binary.
fn expected() -> &'static (String, String) {
    static EXPECTED: OnceLock<(String, String)> = OnceLock::new();
    EXPECTED.get_or_init(|| {
        let sweep = spec().run();
        (sweep.to_csv(), sweep.to_json())
    })
}

/// A cloneable in-memory writer capturing the streamed artifact.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn take(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn worker_config(addr: String) -> WorkerConfig {
    WorkerConfig {
        addr,
        cache_dir: None,
        threads: Some(2),
        eval_delay: Duration::ZERO,
        name: "test".into(),
    }
}

/// Runs a coordinator with `n` in-process workers to completion.
fn run_fabric(config: FabricConfig, n: usize) -> (String, FabricRunReport) {
    let coordinator = Coordinator::bind(spec(), config).expect("bind");
    let addr = coordinator.addr().to_string();
    let workers: Vec<_> = (0..n)
        .map(|_| {
            let config = worker_config(addr.clone());
            std::thread::spawn(move || run_worker(config))
        })
        .collect();
    let out = SharedBuf::default();
    let report = coordinator.run(out.clone()).expect("fabric run");
    for w in workers {
        w.join().expect("worker thread").expect("worker drains");
    }
    (out.take(), report)
}

#[test]
fn worker_counts_are_byte_identical() {
    let (expected_csv, expected_json) = expected();
    for n in [1usize, 2, 4] {
        for (kind, want) in [
            (OutputKind::Csv, expected_csv),
            (OutputKind::Json, expected_json),
        ] {
            let config = FabricConfig {
                lease_cells: 3, // force many leases (and likely steals)
                kind,
                ..FabricConfig::default()
            };
            let (got, report) = run_fabric(config, n);
            assert_eq!(&got, want, "{n} workers, {kind:?}");
            assert_eq!(report.merge.rows as u64, report.counters.rows_merged);
        }
    }
}

/// A worker with `threads` 3 holds three connections, each leasing and
/// evaluating on its own thread. `lease_cells` 1 rounds up to one graph
/// per lease, and a one-graph lease is never stolen, so every reported
/// row merges exactly once, and the worker's report must sum the rows of
/// all three connections.
#[test]
fn one_worker_with_three_connections_merges_byte_identically() {
    let config = FabricConfig {
        lease_cells: 1,
        ..FabricConfig::default()
    };
    let coordinator = Coordinator::bind(spec(), config).expect("bind");
    let addr = coordinator.addr().to_string();
    let worker = std::thread::spawn(move || {
        run_worker(WorkerConfig {
            threads: Some(3),
            // Keeps every connection busy long enough to take leases.
            eval_delay: Duration::from_millis(2),
            ..worker_config(addr)
        })
    });
    let out = SharedBuf::default();
    let report = coordinator.run(out.clone()).expect("fabric run");
    let worker = worker
        .join()
        .expect("worker thread")
        .expect("worker drains");
    assert_eq!(out.take(), expected().0);
    let counters = &report.counters;
    assert_eq!(
        worker.rows_reported,
        counters.rows_merged + counters.rows_duplicate,
        "{counters:?}"
    );
    assert_eq!(worker.leases, counters.leases_issued, "{counters:?}");
}

/// Drives a raw protocol client to the point of holding one lease.
fn grab_lease(addr: &str) -> (TcpStream, BufReader<TcpStream>, u64) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let hello = exchange_raw(
        &mut stream,
        &mut reader,
        &FabricRequest::Hello { name: "raw".into() },
    );
    assert!(
        matches!(hello, FabricResponse::Spec { .. }),
        "{}",
        hello.frame()
    );
    let next = exchange_raw(
        &mut stream,
        &mut reader,
        &FabricRequest::Next { name: "raw".into() },
    );
    match next {
        FabricResponse::Lease { lease, .. } => (stream, reader, lease),
        other => panic!("expected a lease, got {}", other.frame()),
    }
}

fn exchange_raw(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    req: &FabricRequest,
) -> FabricResponse {
    let mut frame = req.frame();
    frame.push('\n');
    stream.write_all(frame.as_bytes()).expect("send");
    let line = read_frame(reader, MAX_FRAME_BYTES)
        .expect("recv")
        .expect("open")
        .expect("sized");
    FabricResponse::parse(&line).expect("parseable response")
}

#[test]
fn dropped_connection_requeues_and_stays_byte_identical() {
    let coordinator = Coordinator::bind(spec(), FabricConfig::default()).expect("bind");
    let addr = coordinator.addr().to_string();
    let counters = coordinator.counters();
    let out = SharedBuf::default();
    let run = std::thread::spawn(move || coordinator.run(out.clone()).map(|r| (out.take(), r)));

    // A raw client takes a lease and vanishes without reporting a row.
    let (stream, reader, _lease) = grab_lease(&addr);
    drop((stream, reader));
    // The drop must register before a real worker connects, so the
    // victim's cells are re-queued (not just completed by overlap).
    let deadline = Instant::now() + Duration::from_secs(5);
    while counters.snapshot().worker_deaths == 0 {
        assert!(
            Instant::now() < deadline,
            "connection drop never registered"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let worker = std::thread::spawn({
        let config = worker_config(addr);
        move || run_worker(config)
    });
    let (got, report) = run.join().expect("run thread").expect("fabric run");
    worker
        .join()
        .expect("worker thread")
        .expect("worker drains");
    assert_eq!(got, expected().0);
    assert!(report.counters.worker_deaths >= 1, "{:?}", report.counters);
    assert!(report.counters.re_queued >= 1, "{:?}", report.counters);
}

#[test]
fn forged_rows_frames_are_refused_and_counted() {
    let coordinator = Coordinator::bind(spec(), FabricConfig::default()).expect("bind");
    let addr = coordinator.addr().to_string();
    let counters = coordinator.counters();
    let out = SharedBuf::default();
    let run = std::thread::spawn(move || coordinator.run(out.clone()).map(|r| (out.take(), r)));

    // A raw client takes a lease and reports a row whose checksum fails:
    // the last hex digit of the blob belongs to the row's checksum.
    let (mut stream, mut reader, lease) = grab_lease(&addr);
    let frame = FabricRequest::Rows {
        lease,
        rows: vec![(0, Err(stg_core::prelude::ScheduleError::Cyclic))],
        hits: 0,
        misses: 0,
        leap: Default::default(),
    }
    .frame();
    let end = frame.find("\",\"hits\"").expect("rows blob precedes hits");
    let flipped = if frame.as_bytes()[end - 1] == b'0' {
        "1"
    } else {
        "0"
    };
    let mut forged = format!("{}{flipped}{}", &frame[..end - 1], &frame[end..]);
    assert_ne!(forged, frame);
    forged.push('\n');
    stream.write_all(forged.as_bytes()).expect("send");
    let line = read_frame(&mut reader, MAX_FRAME_BYTES)
        .expect("recv")
        .expect("open")
        .expect("sized");
    match FabricResponse::parse(&line).expect("parseable response") {
        FabricResponse::Error { error } => assert!(error.contains("checksum"), "{error}"),
        other => panic!("forged rows accepted: {}", other.frame()),
    }
    let snap = counters.snapshot();
    assert_eq!((snap.frames_refused, snap.rows_merged), (1, 0), "{snap:?}");
    drop((stream, reader));

    let worker = std::thread::spawn({
        let config = worker_config(addr);
        move || run_worker(config)
    });
    let (got, report) = run.join().expect("run thread").expect("fabric run");
    worker
        .join()
        .expect("worker thread")
        .expect("worker drains");
    assert_eq!(got, expected().0);
    assert_eq!(report.counters.frames_refused, 1, "{:?}", report.counters);
}

#[test]
fn expired_lease_requeues_without_a_worker_death() {
    let config = FabricConfig {
        lease_timeout: Duration::from_millis(200),
        ..FabricConfig::default()
    };
    let coordinator = Coordinator::bind(spec(), config).expect("bind");
    let addr = coordinator.addr().to_string();
    let counters = coordinator.counters();
    let out = SharedBuf::default();
    let run = std::thread::spawn(move || coordinator.run(out.clone()).map(|r| (out.take(), r)));

    // Holds a lease silently, keeping the connection open: only the
    // deadline can reclaim those cells.
    let (stream, reader, _lease) = grab_lease(&addr);
    let deadline = Instant::now() + Duration::from_secs(5);
    while counters.snapshot().re_queued == 0 {
        assert!(Instant::now() < deadline, "deadline expiry never fired");
        std::thread::sleep(Duration::from_millis(20));
    }

    let worker = std::thread::spawn({
        let config = worker_config(addr);
        move || run_worker(config)
    });
    let (got, report) = run.join().expect("run thread").expect("fabric run");
    worker
        .join()
        .expect("worker thread")
        .expect("worker drains");
    drop((stream, reader));
    assert_eq!(got, expected().0);
    assert!(report.counters.re_queued >= 1, "{:?}", report.counters);
}

#[test]
fn killed_worker_process_mid_lease_stays_byte_identical() {
    let config = FabricConfig {
        lease_cells: 4,
        ..FabricConfig::default()
    };
    let coordinator = Coordinator::bind(spec(), config).expect("bind");
    let addr = coordinator.addr().to_string();
    let counters = coordinator.counters();
    let out = SharedBuf::default();
    let run = std::thread::spawn(move || coordinator.run(out.clone()).map(|r| (out.take(), r)));

    // A real `fabric work` process, slowed so the kill lands mid-lease.
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_fabric"))
        .args([
            "work",
            "--connect",
            &addr,
            "--eval-delay-ms",
            "200",
            "--name",
            "victim",
        ])
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn fabric work");
    let deadline = Instant::now() + Duration::from_secs(10);
    while counters.snapshot().leases_issued == 0 {
        assert!(Instant::now() < deadline, "victim never took a lease");
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("kill worker");
    child.wait().expect("reap worker");

    let worker = std::thread::spawn({
        let config = worker_config(addr);
        move || run_worker(config)
    });
    let (got, report) = run.join().expect("run thread").expect("fabric run");
    worker
        .join()
        .expect("worker thread")
        .expect("worker drains");
    assert_eq!(got, expected().0);
    assert!(report.counters.worker_deaths >= 1, "{:?}", report.counters);
    assert!(report.counters.re_queued >= 1, "{:?}", report.counters);
}

#[test]
fn shared_cache_dir_serves_warm_reruns() {
    let dir = std::env::temp_dir().join(format!("stg-fabric-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || FabricConfig {
        cache_dir: Some(dir.clone()),
        ..FabricConfig::default()
    };
    let (cold, cold_report) = run_fabric(config(), 2);
    assert_eq!(cold, expected().0);
    assert_eq!(
        cold_report.counters.cell_cache.hits, 0,
        "{:?}",
        cold_report.counters
    );
    assert!(
        cold_report.counters.cell_cache.misses > 0,
        "{:?}",
        cold_report.counters
    );
    // The 42-cell grid (a nominal and a semantic entry per cell) stays
    // under FLUSH_THRESHOLD, so each worker commits its store once, at
    // drain, not once per reported chunk.
    assert!(2 * spec().total_cases() < FLUSH_THRESHOLD);
    let segments: Vec<String> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .flatten()
        .map(|d| d.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        !segments.is_empty() && segments.len() <= 2,
        "2 workers left {segments:?}"
    );
    assert!(
        segments
            .iter()
            .all(|n| n.starts_with("seg-") && n.ends_with(".cells")),
        "{segments:?}"
    );

    let (warm, warm_report) = run_fabric(config(), 2);
    assert_eq!(warm, expected().0);
    assert!(
        warm_report.counters.cell_cache.hits > 0,
        "{:?}",
        warm_report.counters
    );
    assert_eq!(
        warm_report.counters.cell_cache.misses, 0,
        "{:?}",
        warm_report.counters
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_op_answers_over_a_socket_while_the_run_is_busy() {
    let coordinator = Coordinator::bind(spec(), FabricConfig::default()).expect("bind");
    let addr = coordinator.addr().to_string();
    let counters = coordinator.counters();
    let run = std::thread::spawn(move || coordinator.run(SharedBuf::default()));
    // 50 ms per cell keeps the 42-cell run going for about two seconds.
    let worker = std::thread::spawn({
        let config = WorkerConfig {
            eval_delay: Duration::from_millis(50),
            ..worker_config(addr.clone())
        };
        move || run_worker(config)
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while counters.snapshot().leases_issued == 0 {
        assert!(Instant::now() < deadline, "no lease was ever issued");
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut frame = FabricRequest::Stats.frame();
    frame.push('\n');
    stream.write_all(frame.as_bytes()).expect("send");
    let line = read_frame(&mut reader, MAX_FRAME_BYTES)
        .expect("recv")
        .expect("open")
        .expect("sized");
    let v = stg_experiments::json::parse(&line).expect("a JSON frame");
    let snap: FabricSnapshot = v.counters().expect("a whole fabric counter set");
    assert!(snap.leases_issued >= 1, "{line}");
    drop((stream, reader));

    let report = run.join().expect("run thread").expect("fabric run");
    worker
        .join()
        .expect("worker thread")
        .expect("worker drains");
    assert!(report.counters.leases_issued >= snap.leases_issued);
}

#[test]
fn leap_telemetry_flows_through_rows_frames() {
    // The batched simulator leaps on steady cycles; workers report the
    // telemetry per chunk and the coordinator aggregates it. A long
    // chain settles into a steady cycle, guaranteeing leaps.
    let mut s = spec();
    s.workloads = vec![WorkloadSpec {
        workload: "chain:64".parse().expect("registered spec"),
        pes: vec![4],
    }];
    s.sim = "batched".parse().expect("batched simulator");
    let coordinator = Coordinator::bind(s, FabricConfig::default()).expect("bind");
    let addr = coordinator.addr().to_string();
    let worker = std::thread::spawn({
        let config = worker_config(addr);
        move || run_worker(config)
    });
    let report = coordinator.run(SharedBuf::default()).expect("fabric run");
    worker
        .join()
        .expect("worker thread")
        .expect("worker drains");
    assert!(report.counters.leap.leaps > 0, "{:?}", report.counters.leap);
    assert!(
        report.counters.leap.max_period > 0,
        "{:?}",
        report.counters.leap
    );
}

#[test]
fn forged_grid_size_fails_the_handshake_before_the_fingerprint_walk() {
    // A coordinator claiming a 2-case grid for a spec encoding that expands
    // to trillions of cells: the worker compares the sizes, which is
    // arithmetic, before it fingerprints, which walks every cell.
    let mut forged = spec();
    forged.graphs = 1_000_000_000_000;
    let (addr, coordinator) = fake_coordinator(FabricResponse::Spec {
        spec: forged.encode_spec().expect("registry workloads encode"),
        fingerprint: 0,
        total: 2,
        cache_dir: None,
    });
    let started = Instant::now();
    let err = run_worker(worker_config(addr)).expect_err("the sizes disagree");
    let took = started.elapsed();
    assert!(err.contains("grid size mismatch"), "{err}");
    assert!(took < Duration::from_secs(1), "handshake took {took:?}");
    coordinator.join().expect("fake coordinator");
}

/// A fake coordinator that answers the worker's `hello` with `spec` as
/// the handshake frame, then holds the connection until the worker hangs
/// up.
fn fake_coordinator(spec: FabricResponse) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("bound address").to_string();
    let coordinator = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("the worker connects");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let hello = read_frame(&mut reader, MAX_FRAME_BYTES)
            .expect("recv")
            .expect("open")
            .expect("sized");
        assert!(
            matches!(
                FabricRequest::parse(&hello),
                Ok(FabricRequest::Hello { .. })
            ),
            "{hello}"
        );
        let mut frame = spec.frame();
        frame.push('\n');
        stream.write_all(frame.as_bytes()).expect("send the spec");
        let _ = read_frame(&mut reader, MAX_FRAME_BYTES);
    });
    (addr, coordinator)
}

#[test]
fn forged_zero_pe_count_fails_the_handshake() {
    // Total and fingerprint match the forged grid, so only the spec
    // validation stands between the worker and a scheduler asked for
    // zero processing elements.
    let mut forged = spec();
    forged.workloads[0].pes = vec![0, 4];
    let text = spec().encode_spec().expect("registry workloads encode");
    let forged_text = text.replacen("\"pes\":[2,4]", "\"pes\":[0,4]", 1);
    assert_ne!(forged_text, text);
    let (addr, coordinator) = fake_coordinator(FabricResponse::Spec {
        spec: forged_text,
        fingerprint: forged.grid_fingerprint(),
        total: forged.total_cases(),
        cache_dir: None,
    });
    let err = run_worker(worker_config(addr)).expect_err("zero PEs are refused");
    assert!(
        err.contains("\"pes\" entries must be positive integers"),
        "{err}"
    );
    coordinator.join().expect("fake coordinator");
}

/// The three carriers of a spec — a shard header, the fabric handshake
/// and a service sweep request — carry byte-equal encodings of one grid.
#[test]
fn shard_header_handshake_and_service_request_carry_one_spec_encoding() {
    use stg_experiments::Shard;
    use stg_service::{parse_request, Request, SweepRequest};

    let spec = spec();
    let encoding = spec.encode_spec().expect("registry workloads encode");

    // The shard header: the length-prefixed spec after the fixed fields.
    let artifact = spec
        .run_shard(Shard { index: 0, of: 2 }, None)
        .artifact_bytes()
        .expect("registry workloads shard");
    let spec_len_at = 7 + 3 * 4 + 4 * 8;
    let len = u32::from_le_bytes(artifact[spec_len_at..spec_len_at + 4].try_into().unwrap());
    let header_spec = &artifact[spec_len_at + 4..spec_len_at + 4 + len as usize];
    assert_eq!(header_spec, encoding.as_bytes());

    // The fabric handshake, from a bound coordinator.
    let coordinator = Coordinator::bind(spec.clone(), FabricConfig::default()).expect("bind");
    let addr = coordinator.addr().to_string();
    let run = std::thread::spawn(move || coordinator.run(SharedBuf::default()));
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let hello = FabricRequest::Hello { name: "raw".into() };
    match exchange_raw(&mut stream, &mut reader, &hello) {
        FabricResponse::Spec { spec: carried, .. } => assert_eq!(carried, encoding),
        other => panic!("expected the spec frame, got {}", other.frame()),
    }
    drop((stream, reader));
    let mut worker = worker_config(addr);
    worker.threads = Some(1);
    run_worker(worker).expect("a worker drains the run");
    run.join().expect("coordinator thread").expect("fabric run");

    // The service sweep request embeds the same bytes as its `sweep`
    // object, and parses back to the same encoding.
    let frame = SweepRequest { id: 5, spec }.encode().expect("encodes");
    assert_eq!(frame, format!("{{\"id\":5,\"sweep\":{encoding}}}"));
    match parse_request(&frame) {
        Ok(Request::Sweep(back)) => assert_eq!(back.spec.encode_spec().unwrap(), encoding),
        other => panic!("{frame} parsed to {other:?}"),
    }
}

#[test]
fn coordinate_refuses_a_grid_the_spec_encoding_cannot_carry() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fabric"))
        .args(["coordinate", "--graphs", "0"])
        .output()
        .expect("fabric launches");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("\"graphs\" must be a positive integer"),
        "{stderr}"
    );
}

/// Graph-order leases whose size is no multiple of any block's stripe
/// count (6 and 3 here) round up to whole graphs; one and two workers of
/// two connections each merge the same bytes as the unsharded sweep.
#[test]
fn graph_leases_of_any_size_merge_byte_identically() {
    let (expected_csv, expected_json) = expected();
    for lease_cells in [5, 7] {
        for n in [1, 2] {
            for (kind, want) in [
                (OutputKind::Csv, expected_csv),
                (OutputKind::Json, expected_json),
            ] {
                let config = FabricConfig {
                    lease_cells,
                    kind,
                    ..FabricConfig::default()
                };
                let (got, report) = run_fabric(config, n);
                assert_eq!(&got, want, "{lease_cells} cells, {n} workers, {kind:?}");
                let counters = &report.counters;
                assert_eq!(counters.rows_merged, spec().total_cases() as u64);
                assert_eq!(counters.frames_refused, 0, "{counters:?}");
                // Each graph reports a row into every stripe of its block.
                assert!(counters.merge_peak_rows > 1, "{counters:?}");
                assert_eq!(counters.merge_peak_rows, report.merge.peak_buffered as u64);
            }
        }
    }
}

/// A raw protocol connection past its handshake.
fn raw_client(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let hello = FabricRequest::Hello { name: "raw".into() };
    let reply = exchange_raw(&mut stream, &mut reader, &hello);
    assert!(
        matches!(reply, FabricResponse::Spec { .. }),
        "{}",
        reply.frame()
    );
    (stream, reader)
}

/// The first `lease` request takes the whole grid as one lease; later
/// ones steal the upper part of the largest lease, cut at a graph
/// boundary. Once the raw clients hang up, a worker finishes the run.
#[test]
fn graph_leases_are_stolen_at_graph_boundaries() {
    let config = FabricConfig {
        lease_cells: 1_000,
        ..FabricConfig::default()
    };
    let total = spec().total_cases();
    let graphs = stg_experiments::GraphOrder::of(&spec());
    let coordinator = Coordinator::bind(spec(), config).expect("bind");
    let addr = coordinator.addr().to_string();
    let counters = coordinator.counters();
    let out = SharedBuf::default();
    let run = std::thread::spawn(move || coordinator.run(out.clone()).map(|r| (out.take(), r)));

    let mut clients = Vec::new();
    let mut ranges = Vec::new();
    for _ in 0..3 {
        let (mut stream, mut reader) = raw_client(&addr);
        let lease = FabricRequest::Lease { name: "raw".into() };
        match exchange_raw(&mut stream, &mut reader, &lease) {
            FabricResponse::Lease {
                start, end, order, ..
            } => {
                assert_eq!(order, LeaseOrder::Graph);
                ranges.push(start..end);
            }
            other => panic!("expected a lease, got {}", other.frame()),
        }
        clients.push((stream, reader));
    }
    assert_eq!(ranges[0], 0..total, "one lease holds the whole grid");
    for stolen in &ranges[1..] {
        assert!(stolen.start > 0 && stolen.end <= total, "{ranges:?}");
        assert_eq!(graphs.graph_start(stolen.start), stolen.start, "{ranges:?}");
        assert_eq!(graphs.graph_end(stolen.end), stolen.end, "{ranges:?}");
    }
    assert_eq!(counters.snapshot().leases_stolen, 2);
    drop(clients);

    let worker = std::thread::spawn({
        let config = worker_config(addr);
        move || run_worker(config)
    });
    let (got, report) = run.join().expect("run thread").expect("fabric run");
    worker
        .join()
        .expect("worker thread")
        .expect("worker drains");
    assert_eq!(got, expected().0);
    assert!(report.counters.re_queued >= 1, "{:?}", report.counters);
}

/// A client that leases with `next`, as perfbench's traced worker does,
/// fixes the run's order to grid order, and completes the run alone by
/// evaluating contiguous index ranges.
#[test]
fn a_next_client_completes_a_grid_order_run() {
    let spec = spec();
    let coordinator = Coordinator::bind(spec.clone(), FabricConfig::default()).expect("bind");
    let addr = coordinator.addr().to_string();
    let out = SharedBuf::default();
    let run = std::thread::spawn(move || coordinator.run(out.clone()).map(|r| (out.take(), r)));

    let (mut stream, mut reader) = raw_client(&addr);
    let next = FabricRequest::Next { name: "raw".into() };
    let mut leases = 0;
    loop {
        let (lease, start, mut end) = match exchange_raw(&mut stream, &mut reader, &next) {
            FabricResponse::Lease {
                lease,
                start,
                end,
                order,
                ..
            } => {
                assert_eq!(order, LeaseOrder::Grid);
                (lease, start, end)
            }
            FabricResponse::Drain => break,
            other => panic!("unexpected next reply: {}", other.frame()),
        };
        leases += 1;
        let mut pos = start;
        while pos < end {
            let chunk_end = (pos + 4).min(end);
            let result = spec.run_cases(spec.cases_slice(pos..chunk_end), None);
            let rows = FabricRequest::Rows {
                lease,
                rows: result
                    .runs
                    .into_iter()
                    .map(|run| (run.case.index, run.outcome))
                    .collect(),
                hits: 0,
                misses: 0,
                leap: result.leap,
            };
            match exchange_raw(&mut stream, &mut reader, &rows) {
                FabricResponse::Ack { end: new_end } => end = new_end,
                // The lease's last rows completed it.
                FabricResponse::Gone => break,
                other => panic!("unexpected rows reply: {}", other.frame()),
            }
            pos = chunk_end;
        }
    }
    let (got, report) = run.join().expect("run thread").expect("fabric run");
    assert_eq!(got, expected().0);
    assert_eq!(report.counters.leases_issued, leases);
    assert_eq!(report.counters.frames_refused, 0, "{:?}", report.counters);
}

/// Once a run leases whole graphs, a `next` request is refused with an
/// error frame and counted; the run still completes byte-identically.
#[test]
fn next_on_a_graph_order_run_is_refused_and_counted() {
    let coordinator = Coordinator::bind(spec(), FabricConfig::default()).expect("bind");
    let addr = coordinator.addr().to_string();
    let counters = coordinator.counters();
    let out = SharedBuf::default();
    let run = std::thread::spawn(move || coordinator.run(out.clone()).map(|r| (out.take(), r)));

    let (mut stream, mut reader) = raw_client(&addr);
    let lease = FabricRequest::Lease { name: "raw".into() };
    let reply = exchange_raw(&mut stream, &mut reader, &lease);
    assert!(
        matches!(
            reply,
            FabricResponse::Lease {
                order: LeaseOrder::Graph,
                ..
            }
        ),
        "{}",
        reply.frame()
    );
    let next = FabricRequest::Next { name: "raw".into() };
    match exchange_raw(&mut stream, &mut reader, &next) {
        FabricResponse::Error { error } => assert!(error.contains("lease op"), "{error}"),
        other => panic!("next served on a graph-order run: {}", other.frame()),
    }
    assert_eq!(counters.snapshot().frames_refused, 1);
    drop((stream, reader));

    let worker = std::thread::spawn({
        let config = worker_config(addr);
        move || run_worker(config)
    });
    let (got, report) = run.join().expect("run thread").expect("fabric run");
    worker
        .join()
        .expect("worker thread")
        .expect("worker drains");
    assert_eq!(got, expected().0);
    assert_eq!(report.counters.frames_refused, 1, "{:?}", report.counters);
}
