//! The scheduler service core: request execution over the shared caches.
//!
//! [`Service`] is the transport-independent half of the daemon. It owns
//! the process-wide [`ResultStore`] (in-memory, optionally backed by a
//! `--cache-dir` directory shared with the `sweep` binary — the cell keys
//! are identical) and the request [`Counters`], and turns parsed
//! [`Request`]s into response frames. The TCP layer ([`crate::server`])
//! adds admission control and the worker pool on top; tests drive the
//! full request path in-process through [`Service::handle`] without
//! sockets.
//!
//! Warm requests never re-schedule: a plan request runs as a one-cell
//! engine pass over the shared store, keyed by the same
//! content-addressed `CellKey` the sweep engine uses. On a nominal miss
//! the engine evaluates through the semantic (graph-fingerprint) key, so
//! a spec delta that leaves the graph unchanged — e.g. a seed change on a
//! seed-invariant workload — is repaired from cache instead of
//! re-evaluated, and two workers that miss on one semantic key at once
//! evaluate it once: the second waits for the first's outcome
//! (`cell_cache_repaired` in the stats frame counts both kinds).
//! Responses are byte-identical either way — the `outcome` payload is the
//! engine's canonical serialization, which stores no wall-clocks.
//!
//! A plan request is a one-cell pass, so it has no other cell of its
//! graph to share a simulation with; it shares with earlier requests
//! instead, through the store's simulation memo: a validated miss whose
//! plan gives the simulator the same inputs as a plan of the same graph
//! that an earlier request simulated under the same `"sim"` choice
//! takes that simulation (SB-LTS and SB-RLX on `spmv:1024:0.01`, say).
//! The memo is bounded and kept in memory only; `leap_sims` in the stats
//! frame counts the simulations that did run.
//!
//! A request queues its misses for disk but does not commit them: the
//! store's owner does. The daemon ([`crate::server::Daemon`]) flushes the
//! store on a short timer and once more when it shuts down, so a reply
//! may precede its entry's fsync; a caller that drives [`Service::handle`]
//! itself commits with `store().flush()`. An entry lost before its commit
//! is a later miss, never a wrong answer.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use stg_experiments::{
    CasesResult, MergeTallies, ResultStore, SingleFlight, StoreStats, SweepSpec,
};
use stg_workloads::WorkloadFamily;

use crate::counters::Counters;
use crate::protocol::{
    self, DoneResponse, PlanRequest, PlanResponse, ProtoError, RecordResponse, Request,
    SweepRequest,
};

/// Service tuning knobs (transport-independent; the daemon adds its own).
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Persist the cell cache under this directory (`--cache-dir`); warm
    /// requests survive daemon restarts. `None`: in-memory only.
    pub cache_dir: Option<PathBuf>,
    /// Reject a request whose grid totals more tasks than this with a 400
    /// frame instead of expanding it. The total sums, over workloads,
    /// task count × PE counts × schedulers × runs per cell, so it bounds
    /// a whole sweep request, not one workload (an admission-control
    /// bound on per-request work, not a scheduling limit).
    pub max_tasks: usize,
    /// Artificial per-request service time, applied before evaluation.
    /// Zero in production; the overload and fairness tests (and load
    /// experiments) use it to hold workers busy deterministically.
    pub eval_delay: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_dir: None,
            max_tasks: 1_000_000,
            eval_delay: Duration::ZERO,
        }
    }
}

/// The transport-independent scheduler service: shared caches, counters,
/// and request execution.
pub struct Service {
    config: ServiceConfig,
    store: ResultStore,
    counters: Counters,
}

impl Service {
    /// Opens the service, creating the cache directory if configured.
    pub fn new(config: ServiceConfig) -> std::io::Result<Service> {
        let store = match &config.cache_dir {
            Some(dir) => ResultStore::at_dir(dir)?,
            None => ResultStore::in_memory(),
        };
        Ok(Service {
            config,
            store,
            counters: Counters::default(),
        })
    }

    /// The shared cell-result store.
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// The request counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The configuration this service was opened with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Parses one frame, counting malformed input. `Err` is the error
    /// frame to send back.
    pub fn parse(&self, line: &str) -> Result<Request, String> {
        protocol::parse_request(line).map_err(|e| {
            self.counters.totals().malformed.add(1);
            e.frame()
        })
    }

    /// Answers a control request ([`Request::Stats`] / [`Request::Ping`]),
    /// `None` for plan/sweep/shutdown (which go through admission).
    pub fn control(&self, request: &Request) -> Option<String> {
        match request {
            Request::Stats { id } => Some(self.stats_frame(*id)),
            Request::Ping { id } => Some(protocol::Response::Pong { id: *id }.frame()),
            _ => None,
        }
    }

    /// The current `"stats"` frame: request counters plus shared-store
    /// traffic.
    pub fn stats_frame(&self, id: u64) -> String {
        self.counters.stats(self.store.stats()).frame(id)
    }

    /// Result-store counters (hits are warm requests served without
    /// re-scheduling).
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Executes an admitted plan/sweep request and returns its response
    /// frames, maintaining the dispatch/completion counters. Shutdown is
    /// acknowledged but transport shutdown itself is the daemon's job.
    pub fn dispatch(&self, client: u64, request: &Request) -> Vec<String> {
        self.counters.record_dispatched();
        let (frames, eval_micros, sched_errors) = match request {
            Request::Plan(p) => self.plan(p),
            Request::Sweep(s) => self.sweep(s),
            Request::Shutdown { id } => (
                vec![DoneResponse {
                    id: *id,
                    cases: 0,
                    errors: 0,
                }
                .frame()],
                0,
                0,
            ),
            // Control requests are answered by `control`, not dispatched;
            // answering here anyway keeps dispatch total.
            other => (vec![self.control(other).expect("control request")], 0, 0),
        };
        self.counters
            .record_completed(client, request.tenant(), eval_micros, sched_errors);
        frames
    }

    /// The full in-process request path — parse, admission accounting,
    /// control handling, execution — exactly what one daemon worker does
    /// for one frame, minus the socket and the queue. Always returns at
    /// least one frame; never panics on malformed input.
    pub fn handle(&self, client: u64, line: &str) -> Vec<String> {
        let request = match self.parse(line) {
            Ok(r) => r,
            Err(frame) => return vec![frame],
        };
        if let Some(frame) = self.control(&request) {
            return vec![frame];
        }
        self.counters.record_accepted(client, request.tenant());
        self.dispatch(client, &request)
    }

    /// Evaluates one plan request as a one-cell engine pass over the
    /// shared store: the engine does the cache lookup, falls back to the
    /// semantic (fingerprint-keyed) entry on a nominal miss, evaluates
    /// only when both miss and no other worker is evaluating the same
    /// semantic key (else it takes that worker's outcome), and queues
    /// the new entries on the store's batched insert path for the
    /// store's owner to commit. Returns (frames, eval_micros,
    /// sched_errors).
    fn plan(&self, req: &PlanRequest) -> (Vec<String>, u64, u64) {
        if !self.config.eval_delay.is_zero() {
            std::thread::sleep(self.config.eval_delay);
        }
        let spec = req.spec();
        if let Err(frame) = self.check_size(req.id, &spec) {
            return (vec![frame], 0, 0);
        }
        let case = spec
            .cases()
            .pop()
            .expect("a plan request expands to exactly one case");
        let (result, eval_micros) = self.run(&spec);
        let outcome = result
            .runs
            .into_iter()
            .next()
            .expect("one-cell sweep has one run")
            .outcome;
        let sched_errors = u64::from(outcome.is_err());
        let response = PlanResponse {
            id: req.id,
            workload: req.workload.spec(),
            seed: case.seed,
            pes: req.pes,
            scheduler: req.scheduler.alias().to_string(),
            sim: req.sim.to_string(),
            outcome: stg_experiments::store::encode_outcome(&outcome),
        };
        (vec![response.frame()], eval_micros, sched_errors)
    }

    /// Evaluates a sweep request through the shared store, streaming one
    /// record frame per case plus the final done frame. Like a plan
    /// request, it runs on the worker thread that took it: the daemon's
    /// worker pool is the concurrency unit.
    fn sweep(&self, req: &SweepRequest) -> (Vec<String>, u64, u64) {
        if !self.config.eval_delay.is_zero() {
            std::thread::sleep(self.config.eval_delay);
        }
        if let Err(frame) = self.check_size(req.id, &req.spec) {
            return (vec![frame], 0, 0);
        }
        let (result, eval_micros) = self.run(&req.spec);
        let errors = MergeTallies::of(&result.runs).errors as u64;
        let mut frames = Vec::with_capacity(result.runs.len() + 1);
        for run in &result.runs {
            frames.push(
                RecordResponse {
                    id: req.id,
                    index: run.case.index,
                    workload: run.case.workload.spec(),
                    seed: run.case.seed,
                    pes: run.case.pes,
                    scheduler: run.case.scheduler.alias().to_string(),
                    outcome: stg_experiments::store::encode_outcome(&run.outcome),
                }
                .frame(),
            );
        }
        frames.push(
            DoneResponse {
                id: req.id,
                cases: result.runs.len(),
                errors: errors as usize,
            }
            .frame(),
        );
        (frames, eval_micros, errors)
    }

    /// Runs `spec` as one engine pass over the shared store, without
    /// committing it, and folds its leap telemetry into the totals. Also
    /// returns the evaluation wall-clock in microseconds, 0 unless a cell
    /// was evaluated: warm cells (nominal hits and semantic repairs
    /// alike, including an outcome taken over from another worker's
    /// evaluation) never re-schedule. The counts are this request's own,
    /// not the shared store's.
    fn run(&self, spec: &SweepSpec) -> (CasesResult, u64) {
        let t0 = Instant::now();
        let result = spec.run_cases_on(spec.cases(), SingleFlight::Store(&self.store));
        let micros = t0.elapsed().as_micros() as u64;
        self.counters.totals().leap.absorb(&result.leap);
        let warm = result.cell_cache.hits + result.cell_cache.repaired;
        let evaluated = warm < result.runs.len() as u64;
        (result, if evaluated { micros } else { 0 })
    }

    /// Rejects a spec before anything expands it when its whole grid
    /// totals more tasks than the configured bound (checked arithmetic, so
    /// no product wraps under the bound). Seed ranges were checked when
    /// the request parsed. `Err` is the 400 frame.
    fn check_size(&self, id: u64, spec: &SweepSpec) -> Result<(), String> {
        let bad = |msg: String| Err(ProtoError::bad(id, msg).frame());
        let tasks = spec.workloads.iter().try_fold(0usize, |sum, w| {
            let runs = usize::try_from(spec.runs_per_cell(&w.workload)).ok()?;
            w.workload
                .task_count()
                .checked_mul(w.pes.len())?
                .checked_mul(spec.schedulers.len())?
                .checked_mul(runs)?
                .checked_add(sum)
        });
        match tasks {
            Some(tasks) if tasks <= self.config.max_tasks => Ok(()),
            _ => bad(format!(
                "request totals {} tasks, above the service bound of {}",
                tasks.map_or_else(|| "more than usize::MAX".to_string(), |t| t.to_string()),
                self.config.max_tasks
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_response, Response};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
    use std::sync::Barrier;

    fn service() -> Service {
        Service::new(ServiceConfig::default()).expect("in-memory service")
    }

    #[test]
    fn plan_response_matches_direct_engine_evaluation() {
        let s = service();
        let line = r#"{"id":5,"workload":"chain:8","seed":3,"pes":4,"scheduler":"sb-lts","sim":"batched"}"#;
        let frames = s.handle(1, line);
        assert_eq!(frames.len(), 1);
        let Response::Ok(resp) = parse_response(&frames[0]).unwrap() else {
            panic!("not ok: {}", frames[0]);
        };
        // Direct engine evaluation of the identical one-cell spec.
        let req = match protocol::parse_request(line).unwrap() {
            Request::Plan(p) => p,
            _ => unreachable!(),
        };
        let direct = req.spec().run();
        let expected = stg_experiments::store::encode_outcome(&direct.runs[0].outcome);
        assert_eq!(resp.outcome, expected);
        assert_eq!(resp.id, 5);
        assert_eq!(resp.sim, "batched");
    }

    /// `line`'s plan request as the engine answers it without a store.
    fn engine_frame(line: &str) -> String {
        let Ok(Request::Plan(req)) = protocol::parse_request(line) else {
            panic!("not a plan request: {line}")
        };
        crate::loadgen::engine_frame(&req)
    }

    #[test]
    fn sb_rlx_reuses_the_simulation_of_an_earlier_sb_lts_request() {
        // On this graph SB-LTS and SB-RLX give the simulator identical
        // inputs: the second request takes the first one's simulation
        // from the store's memo.
        let s = service();
        for scheduler in ["sb-lts", "sb-rlx"] {
            let line = format!(
                r#"{{"workload":"spmv:1024:0.01","seed":0,"pes":64,"scheduler":"{scheduler}","sim":"batched"}}"#
            );
            assert_eq!(s.handle(1, &line), [engine_frame(&line)], "{scheduler}");
        }
        assert_eq!(s.store_stats().misses, 2);
        assert_eq!(s.counters().snapshot().leap.sims, 1);
    }

    #[test]
    fn a_batched_simulation_never_answers_a_both_request() {
        let s = service();
        let line = |scheduler: &str, sim: &str| {
            format!(
                r#"{{"workload":"fft:32","seed":1,"pes":32,"scheduler":"{scheduler}","sim":"{sim}"}}"#
            )
        };
        // The inputs are equal in all three requests. The `both` request
        // runs both simulators (the batched one counts in `leap_sims`);
        // the next `both` request takes its simulation.
        for (scheduler, sim, sims) in [
            ("sb-lts", "batched", 1),
            ("sb-lts", "both", 2),
            ("sb-rlx", "both", 2),
        ] {
            let line = line(scheduler, sim);
            assert_eq!(s.handle(1, &line), [engine_frame(&line)], "{line}");
            assert_eq!(s.counters().snapshot().leap.sims, sims, "{line}");
        }
    }

    #[test]
    fn warm_repeat_hits_the_cache_and_is_byte_identical() {
        let s = service();
        let line = r#"{"workload":"fft:32","seed":1,"pes":32,"scheduler":"sb-rlx"}"#;
        let cold = s.handle(1, line);
        let before = s.store_stats();
        assert_eq!((before.hits, before.misses), (0, 1));
        let warm = s.handle(1, line);
        let after = s.store_stats();
        assert_eq!(after.hits, 1, "second request must be served warm");
        assert_eq!(cold, warm, "cached responses are byte-identical");
    }

    #[test]
    fn sweep_request_streams_records_and_done() {
        let s = service();
        let line = r#"{"id":2,"sweep":{"workloads":[{"workload":"chain:8","pes":[2,4]}],"graphs":2,"seed":1,"schedulers":["sb-lts","nonstreaming"]}}"#;
        let frames = s.handle(1, line);
        // 2 PEs × 2 schedulers × 2 graphs = 8 records + 1 done.
        assert_eq!(frames.len(), 9);
        for (i, frame) in frames[..8].iter().enumerate() {
            match parse_response(frame).unwrap() {
                Response::Record(r) => {
                    assert_eq!(r.index, i);
                    assert_eq!(r.id, 2);
                }
                other => panic!("frame {i} not a record: {other:?}"),
            }
        }
        match parse_response(&frames[8]).unwrap() {
            Response::Done(d) => assert_eq!((d.cases, d.errors), (8, 0)),
            other => panic!("not done: {other:?}"),
        }
        // The sweep populated the shared store; a plan request for one of
        // its cells is warm.
        let hits_before = s.store_stats().hits;
        let plan = r#"{"workload":"chain:8","seed":1,"pes":2,"scheduler":"sb-lts"}"#;
        s.handle(1, plan);
        assert_eq!(s.store_stats().hits, hits_before + 1);
    }

    #[test]
    fn malformed_lines_yield_structured_error_frames() {
        let s = service();
        for bad in ["", "garbage", "{\"pes\":4}", "{\"cmd\":\"selfdestruct\"}"] {
            let frames = s.handle(1, bad);
            assert_eq!(frames.len(), 1, "{bad:?}");
            match parse_response(&frames[0]).unwrap() {
                Response::Error(e) => assert_eq!(e.code, protocol::CODE_BAD_REQUEST),
                other => panic!("{bad:?}: {other:?}"),
            }
        }
        assert_eq!(s.counters().snapshot().malformed, 4);
    }

    /// A repeated member is refused, not read as its first copy: the
    /// request gets a 400 naming the member and counts as malformed.
    #[test]
    fn repeated_members_are_refused_as_malformed() {
        let s = service();
        for (line, member) in [
            (
                r#"{"id":8,"workload":"chain:8","pes":4,"pes":0,"scheduler":"sb-lts"}"#,
                "pes",
            ),
            (
                r#"{"id":8,"sweep":{"workloads":[{"workload":"chain:8"}],"graphs":1,"graphs":2}}"#,
                "graphs",
            ),
        ] {
            let e = rejection(&s.handle(1, line));
            let want = format!("repeated field {member:?}");
            assert!(e.error.contains(&want), "{line}: {}", e.error);
        }
        assert_eq!(s.counters().snapshot().malformed, 2);
    }

    /// The one 400 frame `frames` must consist of, for request id 8.
    fn rejection(frames: &[String]) -> ProtoError {
        assert_eq!(frames.len(), 1, "{frames:?}");
        match parse_response(&frames[0]).unwrap() {
            Response::Error(e) => {
                assert_eq!((e.code, e.id), (protocol::CODE_BAD_REQUEST, 8));
                e
            }
            other => panic!("not an error: {other:?}"),
        }
    }

    #[test]
    fn oversized_workloads_are_rejected_without_instantiation() {
        let s = Service::new(ServiceConfig {
            max_tasks: 100,
            ..ServiceConfig::default()
        })
        .unwrap();
        let e = rejection(&s.handle(
            1,
            r#"{"id":8,"workload":"stencil2d:64x64","seed":0,"pes":16,"scheduler":"sb-lts"}"#,
        ));
        assert!(e.error.contains("above the service bound"), "{}", e.error);
        // The bound is on the whole grid: an 8-task workload fits, but
        // 8 tasks × 2 PE counts × 2 schedulers × 4 graphs = 128 do not.
        let e = rejection(&s.handle(
            1,
            r#"{"id":8,"sweep":{"workloads":[{"workload":"chain:8","pes":[2,4]}],"graphs":4,"schedulers":["sb-lts","sb-rlx"]}}"#,
        ));
        assert!(e.error.contains("totals 128 tasks"), "{}", e.error);
        assert_eq!(s.store_stats().misses, 0, "nothing evaluated");
    }

    #[test]
    fn oversized_sweep_grids_are_rejected_before_expansion() {
        let s = service();
        let e = rejection(&s.handle(
            1,
            r#"{"id":8,"sweep":{"workloads":[{"workload":"chain:8","pes":[2]}],"graphs":100000000000}}"#,
        ));
        assert!(e.error.contains("above the service bound"), "{}", e.error);
        // A product past usize::MAX is rejected too, not wrapped under
        // the bound.
        let e = rejection(&s.handle(
            1,
            r#"{"id":8,"sweep":{"workloads":[{"workload":"chain:8","pes":[2,4,8,16]}],"graphs":9223372036854775807}}"#,
        ));
        assert!(e.error.contains("above the service bound"), "{}", e.error);
        assert_eq!(s.store_stats().misses, 0, "nothing evaluated");
        // The service still answers.
        let frames = s.handle(
            1,
            r#"{"workload":"chain:8","seed":1,"pes":2,"scheduler":"sb-lts"}"#,
        );
        assert!(
            matches!(parse_response(&frames[0]).unwrap(), Response::Ok(_)),
            "{frames:?}"
        );
    }

    #[test]
    fn seed_ranges_overflowing_u64_are_rejected() {
        let s = service();
        let e = rejection(&s.handle(
            1,
            r#"{"id":8,"sweep":{"workloads":[{"workload":"chain:8","pes":[2]}],"seed":18446744073709551615,"graphs":2}}"#,
        ));
        assert!(e.error.contains("overflow u64"), "{}", e.error);
        assert_eq!(s.store_stats().misses, 0, "nothing evaluated");
        // The largest seed alone is a valid one-graph range.
        let frames = s.handle(
            1,
            r#"{"workload":"chain:8","seed":18446744073709551615,"pes":2,"scheduler":"sb-lts"}"#,
        );
        assert!(
            matches!(parse_response(&frames[0]).unwrap(), Response::Ok(_)),
            "{frames:?}"
        );
    }

    #[test]
    fn plan_misses_persist_through_segment_files_only() {
        let dir = std::env::temp_dir().join(format!(
            "stg-service-unit-{}-batched-plan",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let s = Service::new(ServiceConfig {
            cache_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .unwrap();
        let lines: Vec<String> = (0..3)
            .map(|seed| {
                format!(r#"{{"workload":"chain:8","seed":{seed},"pes":2,"scheduler":"sb-lts"}}"#)
            })
            .collect();
        for line in &lines {
            s.handle(1, line);
        }
        assert_eq!(s.store_stats().misses, 3);
        // A request queues its entries and commits nothing: the store's
        // owner picks the commit point.
        let names = || -> Vec<String> {
            std::fs::read_dir(&dir)
                .expect("cache dir exists")
                .flatten()
                .map(|d| d.file_name().to_string_lossy().into_owned())
                .collect()
        };
        assert_eq!(names(), Vec::<String>::new(), "nothing committed yet");
        s.store().flush();
        // One commit, one segment holding all three misses, and no temp
        // file left behind.
        let names = names();
        assert_eq!(names.len(), 1, "{names:?}");
        assert!(
            names
                .iter()
                .all(|n| n.starts_with("seg-") && n.ends_with(".cells")),
            "only segment files written: {names:?}"
        );
        let reopened = Service::new(s.config().clone()).unwrap();
        for line in &lines {
            reopened.handle(1, line);
        }
        let stats = reopened.store_stats();
        assert_eq!((stats.hits, stats.misses), (3, 0), "{stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seed_delta_on_seed_invariant_workload_repairs_from_cache() {
        let s = service();
        let cold = s.handle(
            1,
            r#"{"workload":"transformer","seed":1,"pes":4,"scheduler":"sb-lts"}"#,
        );
        let stats = s.store_stats();
        assert_eq!((stats.misses, stats.repaired), (1, 0));
        // The spec delta: a new seed. `transformer` ignores it, so the
        // nominal key misses but the semantic (fingerprint) key repairs.
        let warm = s.handle(
            1,
            r#"{"workload":"transformer","seed":2,"pes":4,"scheduler":"sb-lts"}"#,
        );
        let stats = s.store_stats();
        assert_eq!((stats.hits, stats.misses, stats.repaired), (0, 2, 1));
        let outcome = |frames: &[String]| match parse_response(&frames[0]).unwrap() {
            Response::Ok(r) => r.outcome,
            other => panic!("not ok: {other:?}"),
        };
        assert_eq!(outcome(&cold), outcome(&warm), "repair is byte-identical");
        // Warm requests (repaired ones included) report no eval time.
        assert!(s.counters().snapshot().eval_micros > 0);
        let before = s.counters().snapshot().eval_micros;
        s.handle(
            1,
            r#"{"workload":"transformer","seed":3,"pes":4,"scheduler":"sb-lts"}"#,
        );
        assert_eq!(s.counters().snapshot().eval_micros, before);
    }

    #[test]
    fn fully_warm_sweep_request_reports_no_eval_time() {
        let s = service();
        let line = r#"{"id":3,"sweep":{"workloads":[{"workload":"chain:8","pes":[2,4]}],"graphs":50,"seed":1}}"#;
        s.handle(1, line);
        let cold = s.counters().snapshot().eval_micros;
        assert!(cold > 0, "the cold request evaluated");
        let hits = s.store_stats().hits;
        let frames = s.handle(1, line);
        let cells = frames.len() as u64 - 1;
        assert_eq!(s.store_stats().hits, hits + cells, "every cell is a hit");
        assert_eq!(s.counters().snapshot().eval_micros, cold);
    }

    /// Runs `call` and reports whether the warm thread finished at least
    /// one whole hit meanwhile (`served` rose twice: the first step may
    /// belong to a hit that began before the call).
    fn during<T>(served: &AtomicU64, call: impl FnOnce() -> T) -> (T, bool) {
        let before = served.load(SeqCst);
        let out = call();
        (out, served.load(SeqCst) >= before + 2)
    }

    #[test]
    fn concurrent_warm_hits_stay_out_of_a_cold_call() {
        let s = service();
        let warm = r#"{"workload":"chain:8","seed":1,"pes":4,"scheduler":"sb-lts"}"#;
        s.handle(1, warm);
        // `fft:32` repeats no structure over these seeds, so every cold
        // call evaluates.
        let cold = |seed: u64| {
            format!(r#"{{"workload":"fft:32","seed":{seed},"pes":32,"scheduler":"sb-rlx"}}"#)
        };
        let (served, done, start) = (AtomicU64::new(0), AtomicBool::new(false), Barrier::new(2));
        let (mut calls, mut overlapped) = (Vec::new(), false);
        std::thread::scope(|scope| {
            let warm_thread = scope.spawn(|| {
                start.wait();
                while !done.load(SeqCst) {
                    s.handle(2, warm);
                    served.fetch_add(1, SeqCst);
                }
            });
            start.wait();
            // Warm hits run from before each cold call starts until it
            // returns; retry until both calls saw one land meanwhile.
            while served.load(SeqCst) == 0 && !warm_thread.is_finished() {
                std::thread::yield_now();
            }
            for seed in (0..40).step_by(2) {
                let (stats, engine_overlapped) = during(&served, || {
                    let Ok(Request::Plan(req)) = protocol::parse_request(&cold(seed)) else {
                        unreachable!("a plan request")
                    };
                    req.spec().run_with(Some(s.store())).cell_cache
                });
                let (eval_micros, service_overlapped) = during(&served, || {
                    let before = s.counters().snapshot().eval_micros;
                    s.handle(1, &cold(seed + 1));
                    s.counters().snapshot().eval_micros - before
                });
                calls.push((stats, eval_micros));
                overlapped = engine_overlapped && service_overlapped;
                if overlapped {
                    break;
                }
            }
            done.store(true, SeqCst);
        });
        assert!(overlapped, "warm hits never overlapped both cold calls");
        for (stats, eval_micros) in calls {
            assert_eq!((stats.hits, stats.misses, stats.repaired), (0, 1, 0));
            assert!(
                eval_micros > 0,
                "a cold plan request reports its evaluation"
            );
        }
    }

    #[test]
    fn tenant_tags_tally_per_tenant_counters() {
        let s = service();
        for (tenant, seed) in [("acme", 1), ("acme", 2), ("blue", 1)] {
            let line = format!(
                r#"{{"workload":"chain:8","seed":{seed},"pes":2,"scheduler":"sb-lts","tenant":"{tenant}"}}"#
            );
            s.handle(1, &line);
        }
        // Untagged traffic never materializes a tenant row.
        s.handle(
            1,
            r#"{"workload":"chain:8","seed":1,"pes":2,"scheduler":"sb-lts"}"#,
        );
        let stats = s.counters().stats(s.store_stats());
        assert_eq!(stats.service.accepted, 4);
        let tenants: std::collections::BTreeMap<_, _> = stats.tenants.iter().cloned().collect();
        assert_eq!(tenants.len(), 2);
        assert_eq!(
            (tenants["acme"].accepted, tenants["acme"].completed),
            (2, 2)
        );
        assert_eq!(
            (tenants["blue"].accepted, tenants["blue"].completed),
            (1, 1)
        );
        // And the stats frame carries them.
        let frames = s.handle(1, r#"{"cmd":"stats","id":1}"#);
        let v = stg_experiments::json::parse(&frames[0]).unwrap();
        let back = crate::Stats::from_json(&v).unwrap();
        assert_eq!(back.tenants, stats.tenants);
    }

    #[test]
    fn stats_frame_reports_counters_and_store_traffic() {
        let s = service();
        s.handle(
            3,
            r#"{"workload":"chain:8","seed":0,"pes":2,"scheduler":"sb-lts"}"#,
        );
        s.handle(
            3,
            r#"{"workload":"chain:8","seed":0,"pes":2,"scheduler":"sb-lts"}"#,
        );
        let frames = s.handle(3, r#"{"cmd":"stats","id":42}"#);
        let v = stg_experiments::json::parse(&frames[0]).unwrap();
        let stats = crate::Stats::from_json(&v).unwrap();
        assert_eq!(stats.service.accepted, 2);
        assert_eq!(stats.service.completed, 2);
        assert_eq!((stats.cell_cache.hits, stats.cell_cache.misses), (1, 1));
        assert_eq!(
            v.get("id").and_then(stg_experiments::json::Json::as_u64),
            Some(42)
        );
    }
}
