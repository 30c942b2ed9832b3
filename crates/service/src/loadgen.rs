//! Closed-loop load generator for the scheduler service.
//!
//! Drives a daemon with a deterministic, seeded mix of plan requests
//! from `clients` concurrent connections, each sending `requests`
//! frames back-to-back (closed loop: the next request is not sent until
//! the previous response arrives). The same per-client request list is
//! replayed on every pass, so pass 1 is the cold pass that populates
//! the shared cell cache and every later pass is warm — the per-pass
//! p50/p99 latency spread is the cache's latency win, and the service's
//! `stats` counters (sampled between passes) prove the warm passes were
//! served as hits.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::counters::Stats;
use crate::protocol::{parse_request, parse_response, PlanRequest, Request, Response};

/// Load-generator parameters (all deterministic given `seed`).
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Daemon address, e.g. `127.0.0.1:7171`.
    pub addr: String,
    /// Concurrent closed-loop clients (at least 1).
    pub clients: usize,
    /// Requests per client per pass (at least 1).
    pub requests: usize,
    /// Passes over the identical request mix (pass 1 is cold).
    pub passes: usize,
    /// Mix seed: same seed, same requests, byte for byte.
    pub seed: u64,
    /// Tenant tag stamped on every plan request (`""`: untagged). The
    /// tag changes accounting and admission only, never the mix or the
    /// cache keys — two tenants replaying the same seed share warm cells.
    pub tenant: String,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7171".into(),
            clients: 4,
            requests: 8,
            passes: 2,
            seed: 1,
            tenant: String::new(),
        }
    }
}

/// The request mix: moderately expensive cells (thousands of scheduled
/// tasks, batched validation) so a cold evaluation costs milliseconds
/// while a warm cache hit costs one lookup plus the socket round trip —
/// the latency gap the warm-speedup check measures.
const MIX_WORKLOADS: &[(&str, usize)] = &[
    ("gauss:16", 64),
    ("chol:8", 64),
    ("fft:32", 32),
    ("stencil2d:16x16", 32),
    ("spmv:1024:0.01", 64),
    ("attention:seq512", 64),
];

const MIX_SCHEDULERS: &[&str] = &["sb-lts", "sb-rlx", "nonstreaming"];

/// The deterministic request list of one client: `n` plan requests drawn
/// from the mix tables by a generator seeded from `(seed, client)`.
/// Identical across passes — replaying it is what makes later passes
/// warm.
pub fn request_list(seed: u64, client: u64, n: usize, tenant: &str) -> Vec<PlanRequest> {
    let mut rng = StdRng::seed_from_u64(seed ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..n)
        .map(|i| {
            let (workload, pes) = MIX_WORKLOADS[rng.gen_range(0..MIX_WORKLOADS.len())];
            let scheduler = MIX_SCHEDULERS[rng.gen_range(0..MIX_SCHEDULERS.len())];
            PlanRequest {
                id: client * 1_000_000 + i as u64,
                workload: workload.parse().expect("mix workloads are registered"),
                seed: rng.gen_range(0u64..4),
                pes,
                scheduler: scheduler.parse().expect("mix schedulers are registered"),
                sim: "batched".parse().expect("batched is a simulator"),
                tenant: tenant.to_string(),
            }
        })
        .collect()
}

/// One pass's aggregate measurements.
#[derive(Clone, Debug)]
pub struct PassReport {
    /// Median request latency.
    pub p50: Duration,
    /// 99th-percentile request latency.
    pub p99: Duration,
    /// Requests completed (across all clients).
    pub reqs: usize,
    /// Error frames received (or transport failures).
    pub errors: usize,
    /// Pass wall-clock (first send to last response).
    pub wall: Duration,
    /// Cell-cache hits the service recorded during this pass.
    pub cache_hits: u64,
}

impl PassReport {
    /// Completed requests per second of wall-clock.
    pub fn req_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.reqs as f64 / self.wall.as_secs_f64()
    }
}

/// The full run: one report per pass, cold first.
#[derive(Clone, Debug)]
pub struct Report {
    /// Per-pass measurements, in pass order.
    pub passes: Vec<PassReport>,
}

impl Report {
    /// Total error frames across every pass.
    pub fn errors(&self) -> usize {
        self.passes.iter().map(|p| p.errors).sum()
    }

    /// Cache hits recorded during the warm passes (pass 2 onward).
    pub fn warm_hits(&self) -> u64 {
        self.passes.iter().skip(1).map(|p| p.cache_hits).sum()
    }

    /// Cold-p50 over final-warm-p50 latency ratio (`None` with a single
    /// pass). A warm p50 that rounds down to zero — possible on loopback
    /// with coarse timers — is clamped to a 1µs floor rather than
    /// dividing by a zero `Duration`, so a measured two-pass run always
    /// yields a finite ratio.
    pub fn warm_speedup(&self) -> Option<f64> {
        if self.passes.len() < 2 {
            return None;
        }
        let cold = self.passes.first()?.p50;
        let warm = self.passes.last()?.p50.max(Duration::from_micros(1));
        Some(cold.as_secs_f64() / warm.as_secs_f64())
    }

    /// The human report: one line per pass plus the warm-speedup summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, p) in self.passes.iter().enumerate() {
            let label = if i == 0 { "cold" } else { "warm" };
            out.push_str(&format!(
                "pass {} ({label}): {} reqs in {:.3}s  p50 {:.3}ms  p99 {:.3}ms  \
                 {:.1} req/s  errors {}  cache hits {}\n",
                i + 1,
                p.reqs,
                p.wall.as_secs_f64(),
                p.p50.as_secs_f64() * 1e3,
                p.p99.as_secs_f64() * 1e3,
                p.req_per_sec(),
                p.errors,
                p.cache_hits,
            ));
        }
        if let Some(s) = self.warm_speedup() {
            out.push_str(&format!("warm-cache p50 speedup: {s:.1}x\n"));
        }
        out
    }

    /// One machine-parseable line the CI smoke step greps:
    /// `loadgen: errors=0 reqs=64 warm_hits=32 cold_p50_ms=3.2
    /// warm_p50_ms=0.1 speedup=32.0`.
    pub fn summary_line(&self) -> String {
        let reqs: usize = self.passes.iter().map(|p| p.reqs).sum();
        let (cold, warm) = (
            self.passes.first().map(|p| p.p50).unwrap_or_default(),
            self.passes.last().map(|p| p.p50).unwrap_or_default(),
        );
        format!(
            "loadgen: errors={} reqs={reqs} warm_hits={} cold_p50_ms={:.3} \
             warm_p50_ms={:.3} speedup={:.1}",
            self.errors(),
            self.warm_hits(),
            cold.as_secs_f64() * 1e3,
            warm.as_secs_f64() * 1e3,
            self.warm_speedup().unwrap_or(0.0),
        )
    }
}

/// Nearest-rank percentile over a **sorted** latency slice (`p` in
/// 0..=100).
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Connects with retries — the smoke harness starts `serve` in the
/// background and must wait for the listener.
pub fn connect_retry(addr: &str, timeout: Duration) -> Result<TcpStream, String> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                return Ok(s);
            }
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("cannot connect to {addr}: {e}"));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Opens a connection with `TCP_NODELAY` — request frames are tiny, and
/// Nagle-delayed segments would put a ~40ms floor under every warm
/// request.
fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
    Ok(stream)
}

fn send_line(stream: &mut TcpStream, line: &str) -> Result<(), String> {
    // One write per frame: a separate "\n" write would be a second tiny
    // segment and interact badly with delayed ACKs.
    let mut frame = String::with_capacity(line.len() + 1);
    frame.push_str(line);
    frame.push('\n');
    stream
        .write_all(frame.as_bytes())
        .map_err(|e| format!("send failed: {e}"))
}

fn read_line(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Err("daemon closed the connection".into()),
        Ok(_) => Ok(line.trim_end().to_string()),
        Err(e) => Err(format!("read failed: {e}")),
    }
}

/// Fetches the service's stats counters over a throwaway connection.
pub fn fetch_stats(addr: &str) -> Result<Stats, String> {
    let mut stream = connect(addr)?;
    send_line(&mut stream, r#"{"cmd":"stats"}"#)?;
    let mut reader = BufReader::new(stream);
    let line = read_line(&mut reader)?;
    match parse_response(&line).map_err(|e| format!("bad stats frame: {e}"))? {
        Response::Stats(v) => {
            Stats::from_json(&v).ok_or_else(|| format!("undecodable stats frame: {line}"))
        }
        other => Err(format!("expected stats, got {other:?}")),
    }
}

/// One client's closed loop over its request list: per-request latencies
/// plus the error count.
fn run_client(addr: &str, list: &[PlanRequest]) -> Result<(Vec<Duration>, usize), String> {
    let mut stream = connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut latencies = Vec::with_capacity(list.len());
    let mut errors = 0usize;
    for req in list {
        let t0 = Instant::now();
        send_line(&mut stream, &req.encode())?;
        let line = read_line(&mut reader)?;
        latencies.push(t0.elapsed());
        match parse_response(&line) {
            Ok(Response::Ok(resp)) if resp.id == req.id => {}
            Ok(Response::Ok(resp)) => {
                return Err(format!("response id {} for request id {}", resp.id, req.id));
            }
            _ => errors += 1,
        }
    }
    Ok((latencies, errors))
}

/// Runs the full load generation: `passes` passes of `clients`
/// concurrent closed-loop clients over identical per-client request
/// lists, sampling the service stats between passes.
pub fn run(config: &LoadgenConfig) -> Result<Report, String> {
    assert!(config.clients >= 1 && config.requests >= 1 && config.passes >= 1);
    let lists: Vec<Vec<PlanRequest>> = (0..config.clients)
        .map(|c| request_list(config.seed, c as u64 + 1, config.requests, &config.tenant))
        .collect();
    let mut passes = Vec::with_capacity(config.passes);
    for _ in 0..config.passes {
        let store_before = fetch_stats(&config.addr)?.cell_cache;
        let t0 = Instant::now();
        let results: Vec<Result<(Vec<Duration>, usize), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = lists
                .iter()
                .map(|list| s.spawn(|| run_client(&config.addr, list)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = t0.elapsed();
        let store_after = fetch_stats(&config.addr)?.cell_cache;
        let mut latencies = Vec::new();
        let mut errors = 0usize;
        for r in results {
            let (lat, errs) = r?;
            latencies.extend(lat);
            errors += errs;
        }
        latencies.sort();
        passes.push(PassReport {
            p50: percentile(&latencies, 50.0),
            p99: percentile(&latencies, 99.0),
            reqs: latencies.len(),
            errors,
            wall,
            cache_hits: store_after.hits.saturating_sub(store_before.hits),
        });
    }
    Ok(Report { passes })
}

/// The response frame a direct engine evaluation of `req` produces: a
/// one-cell pass with no store, bypassing the service entirely.
pub fn engine_frame(req: &PlanRequest) -> String {
    let direct = req.spec().run();
    crate::protocol::PlanResponse {
        id: req.id,
        workload: stg_workloads::WorkloadFamily::spec(&req.workload),
        seed: req.seed,
        pes: req.pes,
        scheduler: req.scheduler.alias().to_string(),
        sim: req.sim.to_string(),
        outcome: stg_experiments::store::encode_outcome(&direct.runs[0].outcome),
    }
    .frame()
}

/// Sends one plan request to the daemon and byte-compares the response
/// frame against [`engine_frame`]. `line` is the raw request frame (the
/// CI smoke step passes it verbatim).
pub fn check_against_engine(addr: &str, line: &str) -> Result<(), String> {
    let req = match parse_request(line).map_err(|e| format!("bad --check request: {}", e.error))? {
        Request::Plan(p) => p,
        _ => return Err("--check takes a plan request".into()),
    };
    let expected = engine_frame(&req);
    let mut stream = connect(addr)?;
    send_line(&mut stream, &req.encode())?;
    let mut reader = BufReader::new(stream);
    let got = read_line(&mut reader)?;
    if got != expected {
        return Err(format!(
            "daemon response differs from direct engine output\n  daemon: {got}\n  engine: {expected}"
        ));
    }
    Ok(())
}

/// Asks the daemon to drain and exit; returns once the ack arrives.
pub fn shutdown(addr: &str) -> Result<(), String> {
    let mut stream = connect(addr)?;
    send_line(&mut stream, r#"{"cmd":"shutdown"}"#)?;
    let mut reader = BufReader::new(stream);
    let line = read_line(&mut reader)?;
    match parse_response(&line) {
        Ok(Response::Done(_)) => Ok(()),
        other => Err(format!("unexpected shutdown ack: {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Service, ServiceConfig};

    /// Every distinct cell of the mix, answered one request at a time by
    /// a fresh service: SB-LTS and SB-RLX give the simulator identical
    /// inputs on 12 of the mix's 24 graphs, so the 48 streaming cells
    /// take 36 batched simulations, and every frame is the engine's.
    #[test]
    fn the_mix_simulates_each_distinct_input_once() {
        let s = Service::new(ServiceConfig::default()).expect("in-memory service");
        let mut cells = 0;
        for &(workload, pes) in MIX_WORKLOADS {
            for seed in 0..4 {
                for scheduler in MIX_SCHEDULERS {
                    let req = PlanRequest {
                        id: cells,
                        workload: workload.parse().expect("mix workloads are registered"),
                        seed,
                        pes,
                        scheduler: scheduler.parse().expect("mix schedulers are registered"),
                        sim: "batched".parse().expect("batched is a simulator"),
                        tenant: String::new(),
                    };
                    let frames = s.handle(1, &req.encode());
                    assert_eq!(frames, [engine_frame(&req)], "{}", req.encode());
                    cells += 1;
                }
            }
        }
        assert_eq!(cells, 72);
        assert_eq!(s.store_stats().misses, 72);
        assert_eq!(s.counters().snapshot().leap.sims, 36);
        assert!(s.store().sim_memo_bytes() > 0);
    }

    #[test]
    fn request_lists_are_deterministic_and_client_distinct() {
        let a = request_list(7, 1, 16, "");
        let b = request_list(7, 1, 16, "");
        assert_eq!(a, b);
        let c = request_list(7, 2, 16, "");
        assert_ne!(a, c, "different clients draw different mixes");
        let d = request_list(8, 1, 16, "");
        assert_ne!(a, d, "different seeds draw different mixes");
        for req in &a {
            assert!(req.sim.validates(), "mix requests validate (batched)");
        }
        // A tenant tag changes only the tag, never the drawn mix.
        let tagged = request_list(7, 1, 16, "acme");
        for (plain, tag) in a.iter().zip(&tagged) {
            assert_eq!(tag.tenant, "acme");
            let mut untagged = tag.clone();
            untagged.tenant.clear();
            assert_eq!(&untagged, plain);
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let ms = |n: u64| Duration::from_millis(n);
        let sorted: Vec<Duration> = (1..=100).map(ms).collect();
        // Nearest rank over 100 samples: round(0.5 * 99) = 50 → the 51st.
        assert_eq!(percentile(&sorted, 50.0), ms(51));
        assert_eq!(percentile(&sorted, 99.0), ms(99));
        assert_eq!(percentile(&sorted, 0.0), ms(1));
        assert_eq!(percentile(&sorted, 100.0), ms(100));
        assert_eq!(percentile(&[ms(5)], 99.0), ms(5));
        assert_eq!(percentile(&[], 50.0), Duration::ZERO);
    }

    #[test]
    fn report_summary_reflects_passes() {
        let report = Report {
            passes: vec![
                PassReport {
                    p50: Duration::from_millis(10),
                    p99: Duration::from_millis(40),
                    reqs: 32,
                    errors: 0,
                    wall: Duration::from_secs(1),
                    cache_hits: 0,
                },
                PassReport {
                    p50: Duration::from_millis(1),
                    p99: Duration::from_millis(2),
                    reqs: 32,
                    errors: 0,
                    wall: Duration::from_millis(100),
                    cache_hits: 32,
                },
            ],
        };
        assert_eq!(report.errors(), 0);
        assert_eq!(report.warm_hits(), 32);
        let speedup = report.warm_speedup().unwrap();
        assert!((speedup - 10.0).abs() < 1e-9);
        let line = report.summary_line();
        assert!(line.contains("errors=0"), "{line}");
        assert!(line.contains("warm_hits=32"), "{line}");
        assert!(line.contains("speedup=10.0"), "{line}");
    }

    #[test]
    fn zero_warm_p50_is_clamped_not_divided_by() {
        let pass = |p50| PassReport {
            p50,
            p99: p50,
            reqs: 1,
            errors: 0,
            wall: Duration::from_secs(1),
            cache_hits: 0,
        };
        // A warm p50 of exactly zero (coarse timer on loopback) must
        // yield the 1µs-floor ratio, not None and not a division by a
        // zero Duration.
        let report = Report {
            passes: vec![pass(Duration::from_millis(2)), pass(Duration::ZERO)],
        };
        let speedup = report.warm_speedup().expect("two passes always rate");
        assert!((speedup - 2000.0).abs() < 1e-6, "{speedup}");
        assert!(speedup.is_finite());
        // A single pass still reports no ratio.
        let single = Report {
            passes: vec![pass(Duration::from_millis(2))],
        };
        assert_eq!(single.warm_speedup(), None);
    }
}
