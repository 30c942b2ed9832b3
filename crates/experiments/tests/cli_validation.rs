//! CLI validation for the sweep frontend: junk `--threads`, out-of-range
//! `--shard i/n` selectors, grids a shard header cannot carry, retired
//! flags, unmergeable artifacts,
//! malformed `--distributed` worker counts, and seed ranges past `u64`
//! all exit with code 2 and a
//! clear usage message up front — instead of panicking, silently
//! clamping, or burning a full sweep first. So does a stdout closed
//! before the output is written.

use std::process::{Command, Stdio};

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .output()
        .expect("sweep launches");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn sweep_rejects_zero_threads() {
    let (code, stderr) = run(&["--threads", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--threads must be at least 1"), "{stderr}");
}

#[test]
fn sweep_rejects_junk_threads() {
    for junk in ["many", "-4", "1.5", ""] {
        let (code, stderr) = run(&["--threads", junk]);
        assert_eq!(code, Some(2), "--threads {junk:?}: {stderr}");
        assert!(stderr.contains("--threads"), "--threads {junk:?}: {stderr}");
    }
}

#[test]
fn sweep_rejects_out_of_range_shards_up_front() {
    // Index at/past the count and zero counts are rejected before any
    // evaluation, with the usage shape in the message.
    for bad in ["3/3", "4/3", "0/0", "1/0"] {
        let (code, stderr) = run(&["--shard", bad]);
        assert_eq!(code, Some(2), "--shard {bad}: {stderr}");
        assert!(stderr.contains("--shard"), "--shard {bad}: {stderr}");
        assert!(stderr.contains("0 <= i < n"), "--shard {bad}: {stderr}");
    }
}

#[test]
fn sweep_rejects_junk_shards() {
    // A count past u32 cannot be written into an artifact's header.
    for junk in [
        "",
        "1",
        "1/",
        "/2",
        "a/b",
        "-1/2",
        "1.5/3",
        "1/2/3",
        "0/4294967296",
    ] {
        let (code, stderr) = run(&["--shard", junk]);
        assert_eq!(code, Some(2), "--shard {junk:?}: {stderr}");
        assert!(stderr.contains("--shard"), "--shard {junk:?}: {stderr}");
    }
}

#[test]
fn sweep_accepts_valid_shard() {
    let (code, stderr) = run(&["--shard", "0/2", "--workload", "chain", "--pes", "2"]);
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn sweep_rejects_a_bin_flag() {
    // Shard artifacts are always binary; `--bin` is an unknown flag.
    let (code, stderr) = run(&["--shard", "0/2", "--bin"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --bin"), "{stderr}");
}

#[test]
fn sweep_merge_rejects_text_artifacts() {
    // A well-formed text-format shard artifact (`stg-shard v2` header).
    let text = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/text_shard_v2.txt"
    );
    let (code, stderr) = run(&["merge", text]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("STGSHRD"), "{stderr}");
}

#[test]
fn sweep_merge_rejects_text_spec_blocks_with_a_regenerate_hint() {
    // A `sweep --shard 0/1` artifact written before the JSON spec
    // encoding: binary, but with the old text spec block in its header.
    let old = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/text_spec_shard_v2.bin"
    );
    let (code, stderr) = run(&["merge", old]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("regenerate"), "{stderr}");
}

#[test]
fn sweep_refuses_to_shard_grids_the_spec_encoding_cannot_carry() {
    // `--graphs 0`, and a `--pes` filter that empties the grid, make specs
    // that `sweep merge` would refuse: refused before any evaluation.
    for (args, needle) in [
        (
            vec!["--graphs", "0", "--shard", "0/1"],
            "\"graphs\" must be a positive integer",
        ),
        (
            vec!["--workload", "chain", "--pes", "3", "--shard", "0/1"],
            "\"workloads\" must be non-empty",
        ),
    ] {
        let (code, stderr) = run(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("cannot shard this grid"),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

#[test]
fn sweep_rejects_distributed_without_a_worker_count() {
    for bad in [
        vec!["--distributed"],
        vec!["--distributed", "0"],
        vec!["--distributed", "two"],
        vec!["--distributed", "--json"],
    ] {
        let (code, stderr) = run(&bad);
        assert_eq!(code, Some(2), "{bad:?}: {stderr}");
        assert!(stderr.contains("--distributed"), "{bad:?}: {stderr}");
    }
}

#[test]
fn sweep_rejects_distributed_combined_with_shard() {
    let (code, stderr) = run(&["--distributed", "2", "--shard", "0/2"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("incompatible"), "{stderr}");
}

#[test]
fn sweep_accepts_positive_threads() {
    // A tiny grid with an explicit worker count parses and runs.
    let (code, stderr) = run(&[
        "--threads",
        "2",
        "--workload",
        "chain",
        "--pes",
        "2",
        "--csv",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn sweep_rejects_seed_ranges_overflowing_u64() {
    // The second seed would be u64::MAX + 1: rejected before any row is
    // emitted, instead of wrapping to seed 0.
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args([
            "--workload",
            "chain:8",
            "--pes",
            "2",
            "--scheduler",
            "sb-lts",
        ])
        .args(["--seed", "18446744073709551615", "--graphs", "2"])
        .output()
        .expect("sweep launches");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "no rows: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        stderr.contains("--seed") && stderr.contains("--graphs"),
        "{stderr}"
    );
}

/// Every `sweep` output path — CSV, JSON, a shard artifact and `sweep
/// merge` — reports a write to a closed stdout as `ERROR:` and exits 2,
/// without panicking. Each output of this grid (91 KB of CSV, 101 KB of
/// shard artifact, 245 KB of JSON) overflows a 64 KiB pipe buffer, so
/// the write fails whenever the child reaches it.
#[test]
fn sweep_exits_2_when_stdout_closes_early() {
    let grid = [
        "--workload",
        "chain:8",
        "--pes",
        "2",
        "--scheduler",
        "sb-lts",
        "--graphs",
        "1000",
    ];
    let dir = std::env::temp_dir().join(format!("stg-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let shards: Vec<String> = (0..2)
        .map(|i| {
            let selector = format!("{i}/2");
            let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
                .args(grid)
                .args(["--shard", &selector])
                .output()
                .expect("sweep launches");
            assert_eq!(out.status.code(), Some(0), "--shard {selector}");
            let path = dir.join(format!("shard{i}")).display().to_string();
            std::fs::write(&path, out.stdout).unwrap();
            path
        })
        .collect();
    let merge = ["merge", &shards[0], &shards[1]];
    for args in [
        grid.to_vec(),
        [&grid[..], &["--json"]].concat(),
        [&grid[..], &["--shard", "0/1"]].concat(),
        merge.to_vec(),
        [&merge[..], &["--json"]].concat(),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("sweep launches");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("sweep exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("ERROR: "), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
