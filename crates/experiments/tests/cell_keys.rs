//! Cell keys and the grid fingerprint against the text they stand for.
//!
//! Neither is formatted per cell: a key streams its bytes through the
//! store's key encoder and keeps only its seed (or graph fingerprint) and
//! the text around it. These properties pin every value to the formatted
//! reference — the canonical string
//! `v<version>|<spec>|<seed>|<pes>|<scheduler>|<sim>`, FNV-1a over it,
//! and the fingerprint's fold of every key plus `\n` in case order — so
//! no stored entry, shard artifact or fabric handshake can drift.

use proptest::prelude::*;
use stg_core::SchedulerKind;
use stg_experiments::engine::{SimChoice, WorkloadSpec};
use stg_experiments::store::{fnv1a, fnv1a_fold, CellKey, FNV_BASIS, SCHEMA_VERSION};
use stg_experiments::SweepSpec;
use stg_workloads::WorkloadFamily;

/// The canonical string a key stands for.
fn reference(
    version: u32,
    spec: &str,
    seed: u64,
    pes: usize,
    scheduler: &str,
    sim: &str,
) -> String {
    format!("v{version}|{spec}|{seed}|{pes}|{scheduler}|{sim}")
}

/// Registered specs, fixed-graph names and odd bytes: the encoder treats
/// a spec as opaque text.
const SPECS: [&str; 11] = [
    "chain:8",
    "fft:32",
    "stencil2d:16x16",
    "spmv:1024:0.01",
    "attention:seq4096",
    "forkjoin:8x32",
    "resnet50",
    "transformer",
    "",
    "a|b|",
    "ünïcode:7",
];

/// The scheduler aliases of every registered preset, with multiplex at
/// one- and three-digit slot counts.
fn aliases() -> Vec<&'static str> {
    let mut all: Vec<&str> = SchedulerKind::ALL.iter().map(|s| s.alias()).collect();
    all.extend([
        SchedulerKind::Multiplex(7).alias(),
        SchedulerKind::Multiplex(128).alias(),
    ]);
    all
}

const SIMS: [&str; 4] = ["off", "reference", "batched", "both"];

/// Seeds and PE counts at the digit-count edges, random values besides.
const EDGES: [u64; 8] = [0, 1, 9, 10, 99, 1 << 32, u64::MAX - 1, u64::MAX];

fn pick_u64(choice: usize, random: u64) -> u64 {
    EDGES.get(choice).copied().unwrap_or(random)
}

/// Asserts that `key` is the key of `canonical`.
fn check(key: &CellKey, canonical: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(key.canonical(), canonical);
    prop_assert_eq!(key.hash(), fnv1a(canonical.as_bytes()));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every nominal and semantic key hashes its canonical string, also
    /// when consecutive keys on one thread share a workload or a stripe
    /// and when they switch between nominal and semantic keys.
    #[test]
    fn streamed_keys_hash_their_canonical_strings(
        spec in 0usize..SPECS.len(),
        seed in (0usize..12, any::<u64>()),
        pes in (0usize..12, 1usize..100_000),
        scheduler in 0usize..10,
        sim in 0usize..SIMS.len(),
        version in prop_oneof![
            (0u32..1).prop_map(|_| SCHEMA_VERSION).boxed(),
            any::<u32>().boxed(),
        ],
    ) {
        let aliases = aliases();
        let (spec, scheduler, sim) = (SPECS[spec], aliases[scheduler], SIMS[sim]);
        let seed = pick_u64(seed.0, seed.1);
        let pes = pick_u64(pes.0, pes.1 as u64).min(usize::MAX as u64) as usize;
        // One workload, then a new seed, PE count, scheduler, sim mode and
        // spec in turn: each step reuses some of the encoder's state.
        let steps = [
            (spec, seed, pes, scheduler, sim),
            (spec, seed ^ 1, pes, scheduler, sim),
            (spec, seed, pes.wrapping_add(10).max(1), scheduler, sim),
            (spec, seed, pes, aliases[0], sim),
            (spec, seed, pes, scheduler, SIMS[0]),
            (SPECS[0], seed, pes, scheduler, sim),
            (spec, seed, pes, scheduler, sim),
        ];
        for (spec, seed, pes, scheduler, sim) in steps {
            let nominal = CellKey::new(version, spec, seed, pes, scheduler, sim);
            check(&nominal, &reference(version, spec, seed, pes, scheduler, sim))?;
            // A semantic key is the nominal key of spec `sem:<fp>` and
            // seed 0; the fingerprint takes any u64.
            let fp = seed.rotate_left(17);
            let semantic = CellKey::semantic(version, fp, pes, scheduler, sim);
            let text = reference(version, &format!("sem:{fp:016x}"), 0, pes, scheduler, sim);
            check(&semantic, &text)?;
            let spelled = CellKey::new(version, &format!("sem:{fp:016x}"), 0, pes, scheduler, sim);
            prop_assert_eq!(&semantic, &spelled);
            prop_assert_ne!(&semantic, &nominal);
        }
    }

    /// `grid_fingerprint` equals the per-cell reference fold over random
    /// multi-workload specs: one formatted line per case, in case order.
    #[test]
    fn grid_fingerprint_folds_every_formatted_key(
        workloads in (1usize..1 << 8, 0usize..4),
        schedulers in 1usize..1 << 10,
        graphs in 1u64..40,
        seed in (0usize..12, any::<u64>()),
        sim in (any::<bool>(), 0usize..3),
    ) {
        let pe_sets = [vec![2], vec![4, 16], vec![1, 10, 100], vec![3, 128, 4096]];
        let all = aliases();
        let spec = SweepSpec {
            workloads: SPECS[..8]
                .iter()
                .enumerate()
                .filter(|(i, _)| workloads.0 & (1 << i) != 0)
                .map(|(i, s)| WorkloadSpec {
                    workload: s.parse().expect("registered spec"),
                    pes: pe_sets[(i + workloads.1) % pe_sets.len()].clone(),
                })
                .collect(),
            graphs,
            seed: pick_u64(seed.0, seed.1).min(u64::MAX - graphs),
            schedulers: all
                .iter()
                .enumerate()
                .filter(|(i, _)| schedulers & (1 << i) != 0)
                .map(|(_, a)| a.parse().expect("registered alias"))
                .collect(),
            validate: sim.0,
            sim: [SimChoice::Reference, SimChoice::Batched, SimChoice::Both][sim.1],
            timing: false,
            threads: None,
        };
        prop_assert_eq!(spec.grid_fingerprint(), reference_fingerprint(&spec));
    }
}

/// The fingerprint as the grid's formatted keys define it.
fn reference_fingerprint(spec: &SweepSpec) -> u64 {
    let sim = spec.sim_mode();
    let mut h = FNV_BASIS;
    for w in &spec.workloads {
        let name = w.workload.spec();
        for &pes in &w.pes {
            for scheduler in &spec.schedulers {
                for i in 0..spec.runs_per_cell(&w.workload) {
                    let seed = spec.seed + i;
                    let key = reference(SCHEMA_VERSION, &name, seed, pes, scheduler.alias(), &sim);
                    h = fnv1a_fold(h, key.as_bytes());
                    h = fnv1a_fold(h, b"\n");
                }
            }
        }
    }
    h
}
