//! Shard/merge byte-identity against the golden sweep fixture.
//!
//! For random shard counts `n`, running the golden grid as `--shard 0/n
//! .. (n-1)/n` artifacts and merging them must reproduce the checked-in
//! golden CSV byte for byte — the same fixture the unsharded
//! `golden_sweep` test pins. Shards share a result store here, which also
//! exercises the store/shard interplay (a cell evaluated by any shard of
//! any round is never evaluated again).

mod common;

use std::process::Command;
use std::sync::OnceLock;

use common::FIXTURE;
use proptest::prelude::*;
use stg_analysis::ScheduleError;
use stg_core::SchedulerKind;
use stg_experiments::engine::{SimChoice, WorkloadSpec};
use stg_experiments::store::{put_rows, take_rows};
use stg_experiments::{MergeReport, MergeTallies, OutputKind, ResultStore, Shard, SweepSpec};
use stg_graph::NodeId;

/// The golden grid, validated by the reference simulator (the mode the
/// fixture was blessed under).
fn golden_spec() -> SweepSpec {
    common::golden_spec(SimChoice::Reference)
}

/// One store shared across every shard of every proptest round: after the
/// first full coverage of the grid, all further shard runs are pure
/// lookups.
fn shared_store() -> &'static ResultStore {
    static STORE: OnceLock<ResultStore> = OnceLock::new();
    STORE.get_or_init(ResultStore::in_memory)
}

/// Merges `artifacts` into the `kind` artifact in memory.
fn merge(artifacts: &[Vec<u8>], kind: OutputKind) -> Result<(String, MergeReport), String> {
    let mut out = Vec::new();
    let report = SweepSpec::merge_shard_bytes(artifacts, kind, &mut out)?;
    Ok((String::from_utf8(out).expect("UTF-8 artifact"), report))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Merging the complete `0/n .. (n-1)/n` artifact set reproduces the
    /// golden fixture bytes for any shard count, including `n` larger
    /// than the grid (empty shards).
    #[test]
    fn merged_shards_byte_equal_the_golden_fixture(n in 1usize..9) {
        let golden = std::fs::read_to_string(FIXTURE).expect("fixture checked in");
        let spec = golden_spec();
        let artifacts: Vec<Vec<u8>> = (0..n)
            .map(|index| {
                spec.run_shard(Shard { index, of: n }, Some(shared_store()))
                    .artifact_bytes()
                    .expect("registry workloads shard")
            })
            .collect();
        let (csv, report) = merge(&artifacts, OutputKind::Csv).expect("complete shard set");
        prop_assert_eq!(report.tallies, MergeTallies::default());
        prop_assert!(csv == golden, "{}-way shard/merge drifted from the fixture", n);
    }
}

/// Artifact bytes are themselves deterministic: re-emitting the same
/// shard twice (the second time served from the store) is byte-identical.
#[test]
fn artifacts_are_deterministic() {
    let spec = golden_spec();
    let shard = Shard { index: 1, of: 3 };
    let a = spec
        .run_shard(shard, Some(shared_store()))
        .artifact_bytes()
        .unwrap();
    let b = spec
        .run_shard(shard, Some(shared_store()))
        .artifact_bytes()
        .unwrap();
    assert_eq!(a, b);
}

/// A complete, well-formed text-format shard artifact (`stg-shard v2`
/// header) — not a binary `STGSHRD` artifact.
const TEXT_SHARD_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/text_shard_v2.txt"
);

/// A text artifact is rejected with an error naming the missing binary
/// magic — never misparsed, never merged.
#[test]
fn text_artifacts_are_rejected() {
    let text = std::fs::read(TEXT_SHARD_FIXTURE).expect("fixture checked in");
    assert!(text.starts_with(b"stg-shard v2\n"));
    let err = match merge(&[text], OutputKind::Csv) {
        Err(e) => e,
        Ok(_) => panic!("a text artifact must not merge"),
    };
    assert!(err.contains("STGSHRD"), "{err}");
}

/// A two-case `chain:4` grid.
fn two_case_spec() -> SweepSpec {
    SweepSpec {
        workloads: vec![WorkloadSpec {
            workload: "chain:4".parse().unwrap(),
            pes: vec![2],
        }],
        graphs: 2,
        seed: 3,
        schedulers: vec![SchedulerKind::StreamingLts],
        validate: false,
        sim: SimChoice::default(),
        timing: false,
        threads: Some(1),
    }
}

/// The one-way artifact of [`two_case_spec`].
fn two_case_artifact() -> Vec<u8> {
    two_case_spec()
        .run_shard(Shard { index: 0, of: 1 }, None)
        .artifact_bytes()
        .unwrap()
}

/// Header offsets: the 7-byte magic, u32 version, index and count, u64
/// case range start/end, then the u64 total at `TOTAL_AT`, the u64
/// fingerprint, and the u32 spec length at `SPEC_LEN_AT`, followed by
/// the spec block and the row section.
const TOTAL_AT: usize = 7 + 3 * 4 + 2 * 8;
const SPEC_LEN_AT: usize = TOTAL_AT + 2 * 8;

/// The byte range of an artifact's spec encoding.
fn spec_block(artifact: &[u8]) -> std::ops::Range<usize> {
    let len = u32::from_le_bytes(artifact[SPEC_LEN_AT..SPEC_LEN_AT + 4].try_into().unwrap());
    SPEC_LEN_AT + 4..SPEC_LEN_AT + 4 + len as usize
}

/// `artifact` with its spec encoding rewritten by `edit`, which must
/// change it; the length prefix follows.
fn with_spec(artifact: &[u8], edit: impl Fn(&str) -> String) -> Vec<u8> {
    let block = spec_block(artifact);
    let text = std::str::from_utf8(&artifact[block.clone()]).unwrap();
    let forged_text = edit(text);
    assert_ne!(forged_text, text, "the edit must change the spec encoding");
    let mut forged = artifact[..SPEC_LEN_AT].to_vec();
    forged.extend_from_slice(&(forged_text.len() as u32).to_le_bytes());
    forged.extend_from_slice(forged_text.as_bytes());
    forged.extend_from_slice(&artifact[block.end..]);
    forged
}

/// The error of merging the one-way set `artifact`, which must be refused.
fn merge_err(artifact: &[u8]) -> String {
    match merge(&[artifact.to_vec()], OutputKind::Csv) {
        Err(e) => e,
        Ok(_) => panic!("a forged artifact must not merge"),
    }
}

/// Merged sweeps preserve the full failure-accounting surface: an `err`
/// row in an artifact decodes back into a scheduling-error outcome (data,
/// not a lost row) and renders through the merged CSV/JSON emitters. No
/// registered preset errors on these grids, so the row is injected into
/// the artifact's row section — exactly what a shard of a failing grid
/// would carry.
#[test]
fn error_rows_survive_the_shard_round_trip() {
    let artifact = two_case_artifact();
    let (header, row_section) = artifact.split_at(spec_block(&artifact).end);
    let mut rows = take_rows(row_section).expect("row section decodes");
    assert!(rows[1].1.is_ok(), "second row present and ok");
    rows[1].1 = Err(ScheduleError::BlockOrderViolation {
        producer: NodeId(3),
        consumer: NodeId(1),
    });
    let mut hacked = header.to_vec();
    put_rows(&mut hacked, rows.iter().map(|(i, o)| (*i, o)));
    let hacked = [hacked];
    let (csv, report) = merge(&hacked, OutputKind::Csv).expect("artifact still well-formed");
    assert_eq!(report.tallies.errors, 1);
    assert!(
        csv.contains(",error:block-order-violation(3->1),"),
        "error row renders through the merged CSV:\n{csv}"
    );
    let (json, _) = merge(&hacked, OutputKind::Json).expect("artifact still well-formed");
    assert!(json.contains("\"block-order-violation(3->1)\""));
    // The intact first row still carries its real record.
    assert!(csv.lines().nth(1).unwrap().contains(",ok,"));
}

/// A forged spec encoding cannot make a merge walk a grid larger than the
/// artifacts: the spec's case count is checked against the header total,
/// and the rows against that total, before the fingerprint walks the
/// grid. Claiming two million graphs fails at once on the case count,
/// and a header total forged to match fails on the rows.
#[test]
fn forged_grid_sizes_are_rejected_before_the_fingerprint_walk() {
    let artifact = two_case_artifact();
    let mut forged = with_spec(&artifact, |text| {
        text.replace("\"graphs\":2,", "\"graphs\":2000000,")
    });
    let err = merge_err(&forged);
    assert!(
        err.contains("grid expands to 2000000 cases but artifacts claim 2"),
        "{err}"
    );
    forged[TOTAL_AT..TOTAL_AT + 8].copy_from_slice(&2_000_000u64.to_le_bytes());
    let err = merge_err(&forged);
    assert!(
        err.contains("rows cover [0, 1], expected 0..2000000"),
        "{err}"
    );
}

/// A spec with a PE count of 0 fails the one spec validation, even when
/// the header's total and fingerprint are forged to match it: the merge
/// refuses it with the service's error text.
#[test]
fn forged_zero_pe_counts_are_refused() {
    let artifact = two_case_artifact();
    let mut forged = with_spec(&artifact, |text| text.replace("\"pes\":[2]", "\"pes\":[0]"));
    let mut zero = two_case_spec();
    zero.workloads[0].pes = vec![0];
    assert_eq!(zero.total_cases(), 2);
    let fingerprint_at = TOTAL_AT + 8;
    forged[fingerprint_at..fingerprint_at + 8]
        .copy_from_slice(&zero.grid_fingerprint().to_le_bytes());
    let err = merge_err(&forged);
    assert!(
        err.contains("\"pes\" entries must be positive integers"),
        "{err}"
    );
}

/// A `sweep --shard 0/1` artifact written before the JSON spec encoding,
/// whose header embeds the old text spec block (`w chain:8 2\ngraphs
/// 1\n…`), is refused with a hint to regenerate it.
const TEXT_SPEC_SHARD_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/text_spec_shard_v2.bin"
);

#[test]
fn text_spec_block_artifacts_are_refused_with_a_regenerate_hint() {
    let old = std::fs::read(TEXT_SPEC_SHARD_FIXTURE).expect("fixture checked in");
    assert!(old[spec_block(&old)].starts_with(b"w chain:8 2\n"));
    let err = merge_err(&old);
    assert!(err.contains("text spec block"), "{err}");
    assert!(err.contains("regenerate"), "{err}");
}

/// A `sweep --shard 0/1` artifact of the one-cell `chain:8` grid as the
/// v2 engine wrote it: the JSON spec block, with text row payloads and no
/// checksums. It is refused with a hint to regenerate it.
const JSON_SPEC_SHARD_V2_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/json_spec_shard_v2.bin"
);

#[test]
fn v2_artifacts_are_refused_with_a_regenerate_hint() {
    let old = std::fs::read(JSON_SPEC_SHARD_V2_FIXTURE).expect("fixture checked in");
    assert_eq!(&old[7..11], &2u32.to_le_bytes(), "a v2 artifact");
    assert!(old[spec_block(&old)].starts_with(b"{\"workloads\""));
    let err = merge_err(&old);
    assert!(err.contains("v2"), "{err}");
    assert!(err.contains("regenerate"), "{err}");
}

/// No single flipped bit anywhere in a one-row artifact is merged: the
/// header fails its own checks (selector, case range, total, the spec
/// encoding, the grid fingerprint), and the row fails the framing or its
/// checksum.
#[test]
fn every_flipped_bit_of_a_one_row_artifact_is_refused() {
    let mut spec = two_case_spec();
    spec.graphs = 1;
    let artifact = spec
        .run_shard(Shard { index: 0, of: 1 }, None)
        .artifact_bytes()
        .unwrap();
    assert!(merge(std::slice::from_ref(&artifact), OutputKind::Csv).is_ok());
    for at in 0..artifact.len() {
        for bit in 0..8 {
            let mut flipped = artifact.clone();
            flipped[at] ^= 1 << bit;
            if let Ok((csv, _)) = merge(&[flipped], OutputKind::Csv) {
                panic!("byte {at} bit {bit} was merged:\n{csv}");
            }
        }
    }
}

/// `sweep --json` and `sweep merge --json` of the same grid's shards write
/// the same bytes: the live cache and leap counters go to stderr only,
/// never into the artifact.
#[test]
fn sweep_json_equals_merged_shard_json() {
    let sweep = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(args)
            .output()
            .expect("sweep launches");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        out.stdout
    };
    let grid = [
        "--workload",
        "chain:8",
        "--pes",
        "2,4",
        "--graphs",
        "3",
        "--validate",
        "--sim",
        "batched",
    ];
    let dir = std::env::temp_dir().join(format!("stg-shard-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let shards: Vec<String> = (0..2)
        .map(|i| {
            let path = dir.join(format!("shard{i}")).display().to_string();
            let selector = format!("{i}/2");
            std::fs::write(&path, sweep(&[&grid[..], &["--shard", &selector]].concat())).unwrap();
            path
        })
        .collect();
    let merged = sweep(&["merge", &shards[0], &shards[1], "--json"]);
    std::fs::remove_dir_all(&dir).unwrap();
    let unsharded = sweep(&[&grid[..], &["--json"]].concat());
    assert_eq!(
        String::from_utf8(merged).unwrap(),
        String::from_utf8(unsharded).unwrap()
    );
}
