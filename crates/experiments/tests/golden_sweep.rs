//! Golden-snapshot regression test for validated sweep output.
//!
//! A small `sweep --validate`-shaped grid is pinned as a checked-in CSV
//! fixture. The test re-runs the grid with the reference simulator, the
//! batched simulator, and the differential `both` mode, and diffs each
//! against the fixture **byte for byte** — so a change to either
//! simulator, the schedulers, the workload generators, or the CSV emitter
//! cannot silently drift the figure data. Regenerate deliberately with:
//!
//! ```sh
//! STG_BLESS=1 cargo test -p stg_experiments --test golden_sweep
//! ```
//!
//! and review the fixture diff like any other code change.

mod common;

use common::{golden_spec, FIXTURE};
use stg_experiments::engine::SimChoice;
use stg_experiments::MergeTallies;

#[test]
fn validated_sweep_csv_matches_fixture_for_both_simulators() {
    if std::env::var_os("STG_BLESS").is_some() {
        let csv = golden_spec(SimChoice::Reference).run().to_csv();
        std::fs::write(FIXTURE, csv).expect("write fixture");
    }
    let golden = std::fs::read_to_string(FIXTURE).expect("fixture checked in");
    for sim in [SimChoice::Reference, SimChoice::Batched, SimChoice::Both] {
        let sweep = golden_spec(sim).run();
        assert_eq!(
            sweep.tallies(),
            MergeTallies::default(),
            "{sim}: scheduling errors, deadlocks or simulator divergences"
        );
        let csv = sweep.to_csv();
        assert!(
            csv == golden,
            "{sim}: sweep CSV drifted from the golden fixture \
             (STG_BLESS=1 regenerates it deliberately)"
        );
    }
}

/// The byte-stability contract extends to the result store: a cold run
/// through a store and a fully warm rerun both reproduce the fixture
/// bytes, with every warm cell a cache hit.
#[test]
fn warm_cell_cache_rerun_matches_fixture() {
    use stg_experiments::ResultStore;
    let golden = std::fs::read_to_string(FIXTURE).expect("fixture checked in");
    let spec = golden_spec(SimChoice::Reference);
    let store = ResultStore::in_memory();
    let cold = spec.run_with(Some(&store));
    assert!(cold.to_csv() == golden, "cold store run drifted");
    let warm = spec.run_with(Some(&store));
    assert!(warm.to_csv() == golden, "warm store run drifted");
    assert!(warm.cell_cache.hits > 0, "warm rerun must report cell hits");
    assert_eq!(warm.cell_cache.hits, warm.runs.len() as u64);
    assert_eq!(warm.cell_cache.misses, 0);
}
