//! Worker/thread-count CLI validation: `serve` and `loadgen` must reject
//! zero and non-numeric counts with a clear message and exit code 2 —
//! never panic, never silently clamp to a default.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("binary launches");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn serve_rejects_zero_and_junk_counts() {
    let serve = env!("CARGO_BIN_EXE_serve");
    for (args, needle) in [
        (&["--workers", "0"][..], "--workers must be at least 1"),
        (
            &["--queue-bound", "0"][..],
            "--queue-bound must be at least 1",
        ),
        (&["--max-tasks", "0"][..], "--max-tasks must be at least 1"),
        (&["--workers", "lots"][..], "positive integer"),
        (&["--workers", "-3"][..], "positive integer"),
        (&["--eval-delay-ms", "soon"][..], "unsigned integer"),
        (&["--workers"][..], "--workers needs a value"),
        (&["--frobnicate"][..], "unknown flag"),
    ] {
        let (code, stderr) = run(serve, args);
        assert_eq!(code, Some(2), "serve {args:?}: {stderr}");
        assert!(stderr.contains(needle), "serve {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "serve {args:?}: {stderr}");
    }
}

#[test]
fn loadgen_rejects_zero_and_junk_counts() {
    let loadgen = env!("CARGO_BIN_EXE_loadgen");
    for (args, needle) in [
        (&["--clients", "0"][..], "--clients must be at least 1"),
        (&["--requests", "0"][..], "--requests must be at least 1"),
        (&["--passes", "0"][..], "--passes must be at least 1"),
        (&["--clients", "many"][..], "positive integer"),
        (&["--seed", "abc"][..], "unsigned integer"),
        (&["--min-warm-speedup", "0"][..], "must be positive"),
        (&["--min-warm-speedup", "fast"][..], "needs a number"),
        (&["--requests"][..], "--requests needs a value"),
        (&["--frobnicate"][..], "unknown flag"),
    ] {
        let (code, stderr) = run(loadgen, args);
        assert_eq!(code, Some(2), "loadgen {args:?}: {stderr}");
        assert!(stderr.contains(needle), "loadgen {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "loadgen {args:?}: {stderr}");
    }
}

/// Valid counts get past validation: `loadgen` with a good config but an
/// unreachable daemon fails at connect time (exit 1), not at parse time
/// (exit 2).
#[test]
fn valid_counts_pass_validation() {
    let loadgen = env!("CARGO_BIN_EXE_loadgen");
    let (code, stderr) = run(
        loadgen,
        &[
            "--addr",
            "127.0.0.1:1", // nothing listens on port 1
            "--clients",
            "2",
            "--requests",
            "3",
            "--connect-timeout-ms",
            "1",
        ],
    );
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("cannot connect"), "{stderr}");
}
