//! Protocol totality and round-trip properties.
//!
//! Two contracts, from the outside: every registered (workload,
//! scheduler, simulator) combination round-trips through request encode
//! → parse → response encode without loss, plan and sweep requests
//! alike, and *no* input line — random
//! bytes, truncations, single-byte mutations of valid frames — ever
//! panics the parser or escapes without a structured error frame.

use proptest::prelude::*;
use stg_core::SchedulerKind;
use stg_experiments::{SweepSpec, WorkloadSpec};
use stg_service::{
    parse_request, parse_response, PlanRequest, PlanResponse, ProtoError, Request, Response,
    Service, ServiceConfig, SimMode, SweepRequest, CODE_BAD_REQUEST,
};
use stg_workloads::WorkloadKind;

fn sim_modes() -> [SimMode; 4] {
    ["off", "reference", "batched", "both"].map(|s| s.parse().expect("registered sim mode"))
}

/// Exhaustive, not sampled: the full registry cross-product is only
/// 10 workloads × 8 schedulers × 4 sim modes.
#[test]
fn every_registered_combination_round_trips() {
    for workload in WorkloadKind::registered() {
        for scheduler in SchedulerKind::ALL {
            for sim in sim_modes() {
                let req = PlanRequest {
                    id: 7,
                    workload: workload.clone(),
                    seed: 3,
                    pes: 4,
                    scheduler,
                    sim,
                    tenant: String::new(),
                };
                let line = req.encode();
                match parse_request(&line) {
                    Ok(Request::Plan(back)) => assert_eq!(back, req, "{line}"),
                    other => panic!("{line} parsed to {other:?}"),
                }
            }
        }
    }
}

/// A sweep request over every registered workload × scheduler × sim
/// mode round-trips encode → parse → encode byte for byte. The encodings
/// are compared, not the structs: with validation off, `"sim":"off"`
/// drops the unused simulator choice, which neither the grid
/// fingerprint nor any emitted artifact reads.
#[test]
fn every_registered_sweep_request_round_trips() {
    for workload in WorkloadKind::registered() {
        for scheduler in SchedulerKind::ALL {
            for sim in sim_modes() {
                let req = SweepRequest {
                    id: 11,
                    spec: SweepSpec {
                        workloads: vec![WorkloadSpec {
                            workload: workload.clone(),
                            pes: vec![2, 8],
                        }],
                        graphs: 3,
                        seed: u64::MAX - 2,
                        schedulers: vec![scheduler, SchedulerKind::NonStreaming],
                        validate: sim.validates(),
                        sim: sim.choice(),
                        timing: false,
                        threads: Some(1),
                    },
                };
                let line = req.encode().expect("registry specs encode");
                match parse_request(&line) {
                    Ok(Request::Sweep(back)) => {
                        assert_eq!(back.id, 11, "{line}");
                        assert_eq!(back.encode().expect("re-encodes"), line);
                    }
                    other => panic!("{line} parsed to {other:?}"),
                }
            }
        }
    }
}

/// Deterministic byte-noise generator (xorshift64*): lengths 0..=96,
/// full byte range, so the parser sees invalid UTF-8, control bytes,
/// and brace soup.
fn garbage(seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let len = (step() % 97) as usize;
    (0..len).map(|_| (step() >> 32) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sampled coordinates round-trip losslessly, including ids and
    /// seeds beyond 2^53 (the JSON layer stores number literals
    /// verbatim, so u64 precision survives).
    #[test]
    fn plan_requests_round_trip(
        id in any::<u64>(),
        seed in any::<u64>(),
        pes in 1usize..4096,
        w in 0..WorkloadKind::registered().len(),
        s in 0..SchedulerKind::ALL.len(),
        m in 0usize..4,
        t in 0usize..3,
    ) {
        let req = PlanRequest {
            id,
            seed,
            pes,
            workload: WorkloadKind::registered()[w].clone(),
            scheduler: SchedulerKind::ALL[s],
            sim: sim_modes()[m],
            tenant: ["", "acme", "tenant b"][t].to_string(),
        };
        let line = req.encode();
        match parse_request(&line) {
            Ok(Request::Plan(back)) => prop_assert_eq!(back, req, "{}", line),
            other => prop_assert!(false, "{} parsed to {:?}", line, other),
        }
    }

    /// Response frames round-trip for arbitrary coordinates and outcome
    /// payloads.
    #[test]
    fn plan_responses_round_trip(
        id in any::<u64>(),
        seed in any::<u64>(),
        pes in 1usize..4096,
        w in 0..WorkloadKind::registered().len(),
        s in 0..SchedulerKind::ALL.len(),
        err in any::<bool>(),
    ) {
        let resp = Response::Ok(PlanResponse {
            id,
            seed,
            pes,
            workload: WorkloadKind::registered()[w].to_string(),
            scheduler: SchedulerKind::ALL[s].alias().to_string(),
            sim: "batched".into(),
            outcome: if err {
                "err cyclic".into()
            } else {
                "ok 645 1.98 2.47 0.5 0.99 3 7 nosim".into()
            },
        });
        let line = resp.frame();
        prop_assert_eq!(parse_response(&line).unwrap(), resp, "{}", line);
    }

    /// Random byte noise never panics the parser, and the full service
    /// path answers every unparseable line with exactly one structured
    /// 400 frame (never a dropped request).
    #[test]
    fn arbitrary_bytes_never_panic(noise_seed in any::<u64>()) {
        let bytes = garbage(noise_seed);
        let line = String::from_utf8_lossy(&bytes).into_owned();
        if parse_request(&line).is_ok() {
            return Ok(()); // astronomically unlikely, but valid input is fine
        }
        let service = Service::new(ServiceConfig::default()).expect("in-memory service");
        let frames = service.handle(1, &line);
        prop_assert_eq!(frames.len(), 1);
        match parse_response(&frames[0]) {
            Ok(Response::Error(ProtoError { code, .. })) => {
                prop_assert_eq!(code, CODE_BAD_REQUEST);
            }
            other => prop_assert!(false, "{:?} answered {:?}", line, other),
        }
        prop_assert_eq!(service.counters().snapshot().malformed, 1);
    }

    /// Single-byte mutations and truncations of a valid frame never
    /// panic: they either still parse or yield a 400 whose frame itself
    /// parses back.
    #[test]
    fn mutated_valid_frames_never_panic(
        w in 0..WorkloadKind::registered().len(),
        s in 0..SchedulerKind::ALL.len(),
        pos_seed in any::<u64>(),
        byte in any::<u8>(),
        truncate in any::<bool>(),
    ) {
        let req = PlanRequest {
            id: 1,
            workload: WorkloadKind::registered()[w].clone(),
            seed: 2,
            pes: 8,
            scheduler: SchedulerKind::ALL[s],
            sim: SimMode::Off,
            tenant: String::new(),
        };
        let mut line = req.encode().into_bytes();
        let pos = (pos_seed % line.len() as u64) as usize;
        if truncate {
            line.truncate(pos);
        } else {
            line[pos] = byte;
        }
        let line = String::from_utf8_lossy(&line).into_owned();
        if let Err(e) = parse_request(&line) {
            prop_assert_eq!(e.code, CODE_BAD_REQUEST, "{}", line);
            match parse_response(&e.frame()) {
                Ok(Response::Error(back)) => prop_assert_eq!(back, e),
                other => prop_assert!(false, "error frame reparsed as {:?}", other),
            }
        }
    }
}
