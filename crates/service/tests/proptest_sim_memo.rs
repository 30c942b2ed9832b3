//! The store's simulation memo under concurrent plan requests: two
//! threads send plan requests over registry workloads × schedulers × PE
//! counts, in random orders, to one service. Cells of one graph share
//! simulations across requests through the memo, and every response
//! frame must still be byte-identical to a storeless one-cell engine run.

use proptest::prelude::*;
use stg_core::SchedulerKind;
use stg_service::loadgen::engine_frame;
use stg_service::{PlanRequest, Service, ServiceConfig};
use stg_workloads::{WorkloadFamily, WorkloadKind};

/// One spec of every seeded registry family, at the registry size
/// except `attention` and `spmv`, which are smaller so that the reference
/// simulator of a `both` request stays fast in a debug build.
const WORKLOADS: [&str; 8] = [
    "chain:8",
    "fft:32",
    "gauss:16",
    "chol:8",
    "stencil2d:16x16",
    "spmv:256:0.02",
    "attention:seq512",
    "forkjoin:4x8",
];

#[test]
fn every_seeded_registry_family_is_drawn_from() {
    let drawn: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.parse::<WorkloadKind>().expect("registered spec").family())
        .collect();
    for kind in WorkloadKind::registered().iter().filter(|k| k.seeded()) {
        assert!(
            drawn.contains(&kind.family()),
            "{} is never drawn",
            kind.spec()
        );
    }
}

/// SplitMix64: the test's own draws from one proptest seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn concurrent_plan_requests_match_storeless_one_cell_runs(seed in any::<u64>()) {
        let mut state = seed;
        let mut draw = |n: usize| (splitmix(&mut state) % n as u64) as usize;
        // Two graphs of the seeded registry families, every preset at two
        // machine sizes on each, validated by the batched simulator or,
        // one request in four, by both.
        let pes = [2usize, 8, 32];
        let mut requests = Vec::new();
        for _ in 0..2 {
            let workload: WorkloadKind = WORKLOADS[draw(WORKLOADS.len())]
                .parse()
                .expect("registered spec");
            let graph_seed = draw(3) as u64;
            let p = pes[draw(pes.len())];
            for scheduler in SchedulerKind::ALL {
                for pes in [p, 2 * p] {
                    let sim = ["batched", "batched", "batched", "both"][draw(4)];
                    requests.push(PlanRequest {
                        id: requests.len() as u64,
                        workload: workload.clone(),
                        seed: graph_seed,
                        pes,
                        scheduler,
                        sim: sim.parse().expect("registered simulator choice"),
                        tenant: String::new(),
                    });
                }
            }
        }
        // Fisher–Yates, then alternate requests between the threads.
        for i in (1..requests.len()).rev() {
            requests.swap(i, draw(i + 1));
        }
        let service = Service::new(ServiceConfig::default()).expect("in-memory service");
        let answered: Vec<(PlanRequest, Vec<String>)> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..2)
                .map(|t| {
                    let (service, requests) = (&service, &requests);
                    scope.spawn(move || {
                        requests
                            .iter()
                            .skip(t)
                            .step_by(2)
                            .map(|req| (req.clone(), service.handle(t as u64, &req.encode())))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("client thread"))
                .collect()
        });
        prop_assert_eq!(answered.len(), requests.len());
        for (req, frames) in &answered {
            prop_assert_eq!(frames, &vec![engine_frame(req)], "{}", req.encode());
        }
    }
}
