//! Cross-version fixtures: artifacts written by an earlier build of the
//! same `SCHEMA_VERSION` keep working.
//!
//! `fixtures/cache_v3/` is the `--cache-dir` that
//! `sweep --workload chain:8 --pes 2,4 --graphs 20 --seed 3` wrote (one
//! segment of 120 nominal and 120 semantic entries), next to that run's
//! CSV; `fixtures/shard_v3_*of2.bin` are the two `--shard i/2` artifacts
//! of [`SHARD_GRID`]. A drift in any key hash, canonical key byte or grid
//! fingerprint makes the cache miss, the segment bytes differ, or the
//! merge refuse the shards.

use std::path::{Path, PathBuf};
use std::process::Command;

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");

/// The grid the cache fixture was written for.
const CACHE_GRID: &[&str] = &[
    "--workload",
    "chain:8",
    "--pes",
    "2,4",
    "--graphs",
    "20",
    "--seed",
    "3",
];

/// The only file of the cache fixture.
const SEGMENT: &str = "seg-ef746b53aafefce9.cells";

/// The validated grid the shard fixtures were written for: three
/// workloads, a two-digit PE count and three scheduler aliases.
const SHARD_GRID: &[&str] = &[
    "--workload",
    "chain:8,forkjoin:3x5,stencil2d:5x4",
    "--pes",
    "8,16",
    "--scheduler",
    "sb-lts,nonstreaming,multiplex:2",
    "--graphs",
    "2",
    "--seed",
    "5",
    "--validate",
    "--sim",
    "batched",
];

/// Runs `sweep` with `args`, asserting exit 0; returns stdout and stderr.
fn sweep(args: &[&str]) -> (Vec<u8>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .output()
        .expect("sweep launches");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(0), "sweep {args:?}: {stderr}");
    (out.stdout, stderr)
}

/// A fresh, empty directory unique to this process and `name`.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stg-cross-version-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The `(name, bytes)` of every file in `dir`, sorted by name.
fn listing(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read dir")
        .flatten()
        .map(|d| {
            let bytes = std::fs::read(d.path()).expect("read file");
            (d.file_name().to_string_lossy().into_owned(), bytes)
        })
        .collect();
    files.sort();
    files
}

fn fixture(name: &str) -> Vec<u8> {
    std::fs::read(Path::new(FIXTURES).join(name)).expect("fixture checked in")
}

/// Runs the cache grid against `dir`; returns stdout and stderr.
fn cache_run(dir: &Path) -> (Vec<u8>, String) {
    let mut args = CACHE_GRID.to_vec();
    let dir = dir.to_str().expect("UTF-8 temp path");
    args.extend(["--cache-dir", dir]);
    sweep(&args)
}

#[test]
fn an_earlier_cache_dir_serves_every_cell() {
    let dir = scratch_dir("warm");
    let segment = fixture(&format!("cache_v3/{SEGMENT}"));
    std::fs::write(dir.join(SEGMENT), &segment).expect("copy the fixture");
    let (csv, stderr) = cache_run(&dir);
    assert!(
        stderr.contains("cell_cache_hits=120 cell_cache_misses=0 cell_cache_invalidations=0"),
        "{stderr}"
    );
    assert_eq!(csv, fixture("cache_v3.csv"));
    // An all-hit pass writes nothing.
    assert_eq!(listing(&dir), vec![(SEGMENT.to_string(), segment)]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cold_run_writes_the_earlier_segment_bytes() {
    let dir = scratch_dir("cold");
    let (csv, stderr) = cache_run(&dir);
    assert!(
        stderr.contains("cell_cache_hits=0 cell_cache_misses=120"),
        "{stderr}"
    );
    assert_eq!(csv, fixture("cache_v3.csv"));
    assert_eq!(
        listing(&dir),
        vec![(SEGMENT.to_string(), fixture(&format!("cache_v3/{SEGMENT}")))]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn earlier_shards_merge_like_a_fresh_unsharded_run() {
    let shards: Vec<String> = (0..2)
        .map(|i| format!("{FIXTURES}/shard_v3_{i}of2.bin"))
        .collect();
    for json in [false, true] {
        let mut fresh = SHARD_GRID.to_vec();
        let mut merge = vec!["merge", &shards[0], &shards[1]];
        if json {
            fresh.push("--json");
            merge.push("--json");
        }
        assert_eq!(sweep(&merge).0, sweep(&fresh).0, "json: {json}");
    }
    // This build writes the same artifacts, fingerprint included.
    for (i, shard) in ["0/2", "1/2"].into_iter().enumerate() {
        let mut args = SHARD_GRID.to_vec();
        args.extend(["--shard", shard]);
        assert_eq!(sweep(&args).0, fixture(&format!("shard_v3_{i}of2.bin")));
    }
}
