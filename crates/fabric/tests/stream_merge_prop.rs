//! Property test: stream-merging an arbitrary contiguous lease partition
//! of the grid, with rows arriving in an arbitrary interleaving, yields
//! output byte-identical to the unsharded sweep — and hence to the
//! `sweep merge` shard path, which the fixture pins to the same bytes.

use std::sync::OnceLock;

use proptest::prelude::*;
use stg_experiments::store::Outcome;
use stg_experiments::{OutputKind, Shard, StreamMerger, SweepSpec};

/// A cheap seeded grid (one workload family, two seeds).
fn spec() -> SweepSpec {
    let mut spec = SweepSpec::paper(2, 0xFAB_0002);
    spec.workloads.truncate(1);
    spec.validate = true;
    spec.threads = Some(2);
    spec
}

struct Fixture {
    rows: Vec<(usize, Outcome)>,
    csv: String,
    json: String,
}

/// Evaluates the grid once per test binary; every proptest case then
/// replays the rows through a fresh merger.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let spec = spec();
        let sweep = spec.run();
        // Pin the shard/merge path to the same bytes, so stream-merge ==
        // unsharded == merge_shard_bytes all hold transitively.
        let shards: Vec<Vec<u8>> = (0..3)
            .map(|index| {
                spec.run_shard(Shard { index, of: 3 }, None)
                    .artifact_bytes()
                    .expect("seeded grid encodes")
            })
            .collect();
        let (csv, json) = (sweep.to_csv(), sweep.to_json());
        for (kind, want) in [(OutputKind::Csv, &csv), (OutputKind::Json, &json)] {
            let mut merged = Vec::new();
            SweepSpec::merge_shard_bytes(&shards, kind, &mut merged).expect("shards merge");
            assert_eq!(&String::from_utf8(merged).unwrap(), want, "{kind:?}");
        }
        Fixture {
            rows: sweep
                .runs
                .iter()
                .map(|run| (run.case.index, run.outcome.clone()))
                .collect(),
            csv,
            json,
        }
    })
}

/// Splits `0..total` into contiguous leases at `n_cuts` points derived
/// from `cut_seed` (an LCG walk — arbitrary, but a pure function of the
/// proptest inputs, so failures replay).
fn partition(total: usize, n_cuts: usize, mut cut_seed: u64) -> Vec<(usize, usize)> {
    let mut points: Vec<usize> = (0..n_cuts)
        .map(|_| {
            cut_seed = cut_seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (cut_seed >> 33) as usize % total
        })
        .collect();
    points.push(0);
    points.push(total);
    points.sort_unstable();
    points.dedup();
    points.windows(2).map(|w| (w[0], w[1])).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any lease partition, with leases drained round-robin in any
    /// rotation (an adversarial arrival interleaving), merges to the
    /// exact unsharded bytes for both artifact kinds.
    #[test]
    fn arbitrary_lease_partitions_merge_byte_identically(
        n_cuts in 0usize..6,
        cut_seed in any::<u64>(),
        rotation in any::<u64>(),
    ) {
        let fx = fixture();
        let total = fx.rows.len();
        let leases = partition(total, n_cuts, cut_seed);

        // Interleave: repeatedly pick the (rotation-offset) next lease
        // with rows left and emit its next row — deterministic in the
        // proptest inputs, yet thoroughly out of index order.
        let mut cursors: Vec<usize> = leases.iter().map(|&(s, _)| s).collect();
        let mut arrival: Vec<usize> = Vec::with_capacity(total);
        let mut turn = rotation as usize;
        while arrival.len() < total {
            let live: Vec<usize> = (0..leases.len())
                .filter(|&i| cursors[i] < leases[i].1)
                .collect();
            let pick = live[turn % live.len()];
            arrival.push(cursors[pick]);
            cursors[pick] += 1;
            turn = turn.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        }

        for (kind, want) in [(OutputKind::Csv, &fx.csv), (OutputKind::Json, &fx.json)] {
            let mut out = Vec::new();
            {
                let mut merger = StreamMerger::new(spec(), kind, &mut out).unwrap();
                for &index in &arrival {
                    let outcome = fx.rows[index].1.clone();
                    prop_assert!(merger.push(index, outcome).unwrap());
                }
                let report = merger.finish().unwrap();
                prop_assert_eq!(report.rows, total);
            }
            prop_assert_eq!(&String::from_utf8(out).unwrap(), want);
        }
    }
}

/// The bounded-memory claim at scale: a 100k-cell grid streamed in index
/// order never buffers more than one row, and the merger's state stays
/// O(grid-bitmap), not O(result-set).
#[test]
fn stream_merge_is_bounded_on_a_100k_cell_grid() {
    let mut big = spec();
    big.workloads.truncate(1);
    big.workloads[0].pes.truncate(1);
    big.schedulers.truncate(1);
    big.validate = false;
    // One workload x one PE count x one scheduler: graphs = cells.
    big.graphs = 100_000;
    let total = big.total_cases();
    assert!(total >= 100_000, "grid holds {total} cells");

    // Evaluate a single real cell and replay its outcome everywhere:
    // the merger renders rows from (case, outcome) pairs and never
    // inspects cross-row state, so a repeated outcome exercises the
    // exact memory behavior of 100k distinct ones.
    let one = big.run_cases(big.cases_slice(0..1), None);
    let outcome = one.runs[0].outcome.clone();
    let mut merger = StreamMerger::new(big, OutputKind::Csv, std::io::sink()).unwrap();
    for index in 0..total {
        assert!(merger.push(index, outcome.clone()).unwrap());
    }
    let report = merger.finish().unwrap();
    assert_eq!(report.rows, total);
    assert_eq!(
        report.peak_buffered, 1,
        "in-order arrival never accumulates"
    );
}
