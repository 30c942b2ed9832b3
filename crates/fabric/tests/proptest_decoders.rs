//! Arbitrary-bytes properties of the decoders that read another process's
//! bytes: fabric frames and their row section (`take_rows`), the spec
//! encoding (`decode_spec`), shard artifacts and `--cache-dir` segment
//! files (this crate reaches them all).
//! Seeded noise, single-byte replacements and tail cuts must never panic
//! them. None of these formats carries a checksum, so a mutated digit can
//! still decode to a plausible wrong value: these properties pin totality,
//! not "never a wrong answer".

use proptest::prelude::*;
use stg_experiments::store::{encode_outcome, put_rows, take_rows, Outcome};
use stg_experiments::{CellKey, OutputKind, ResultStore, Shard, SweepSpec, SCHEMA_VERSION};
use stg_fabric::{FabricRequest, FabricResponse};

/// `chain:8` at the paper's PE counts, one graph, validated.
fn spec() -> SweepSpec {
    let mut spec = SweepSpec::paper(1, 5);
    spec.workloads.truncate(1);
    spec.validate = true;
    spec.sim = "batched".parse().expect("registered simulator");
    spec
}

/// Every cell of [`spec`] as an `(index, outcome)` row.
fn rows() -> Vec<(usize, Outcome)> {
    let runs = spec().run().runs.into_iter();
    runs.map(|r| (r.case.index, r.outcome)).collect()
}

/// Seeded byte noise (xorshift64*): 0..=96 bytes over the full range.
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

/// `bytes` with byte `pos % len` set to `byte`, or cut there if `cut`.
fn mutate(mut bytes: Vec<u8>, pos: u64, byte: u8, cut: bool) -> Vec<u8> {
    let pos = (pos % bytes.len() as u64) as usize;
    if cut {
        bytes.truncate(pos);
    } else {
        bytes[pos] = byte;
    }
    bytes
}

/// The `put_rows` section of `rows` (bit-exact for floats, NaN included).
fn section(rows: &[(usize, Outcome)]) -> Vec<u8> {
    let mut out = Vec::new();
    put_rows(&mut out, rows.iter().map(|(i, o)| (*i, o)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Noise, and a valid row section, spec encoding, one-way shard
    /// artifact and `rows` frame with one byte replaced or the tail cut,
    /// never panic their decoders; rows that `take_rows` accepts, and
    /// specs that `decode_spec` accepts, re-encode and decode back
    /// unchanged.
    #[test]
    fn decoders_never_panic(
        noise in any::<u64>(),
        pos in any::<u64>(),
        byte in any::<u8>(),
        cut in any::<bool>(),
    ) {
        let rows = rows();
        for bytes in [garbage(noise), mutate(section(&rows), pos, byte, cut)] {
            if let Ok(accepted) = take_rows(&bytes) {
                let again = section(&accepted);
                let back = take_rows(&again).map_err(TestCaseError::fail)?;
                prop_assert_eq!(section(&back), again);
            }
        }
        let encoding = spec().encode_spec().expect("registry workloads encode");
        for bytes in [garbage(noise), mutate(encoding.into_bytes(), pos, byte, cut)] {
            if let Ok(accepted) = SweepSpec::decode_spec(&String::from_utf8_lossy(&bytes)) {
                let again = accepted.encode_spec().map_err(TestCaseError::fail)?;
                let back = SweepSpec::decode_spec(&again).map_err(TestCaseError::fail)?;
                prop_assert_eq!(back.encode_spec().map_err(TestCaseError::fail)?, again);
            }
        }
        let artifact = spec().run_shard(Shard { index: 0, of: 1 }, None).artifact_bytes();
        let artifact = artifact.expect("registry workloads shard");
        let mut out = Vec::new();
        let mutated = [mutate(artifact, pos, byte, cut)];
        if SweepSpec::merge_shard_bytes(&mutated, OutputKind::Csv, &mut out).is_err() {
            prop_assert!(out.is_empty(), "a rejected artifact wrote {} bytes", out.len());
        }
        let leap = Default::default();
        let frame = FabricRequest::Rows { lease: 1, rows, hits: 0, misses: 0, leap }.frame();
        for bytes in [garbage(noise), mutate(frame.into_bytes(), pos, byte, cut)] {
            let line = String::from_utf8_lossy(&bytes);
            let _ = FabricRequest::parse(&line);
            let _ = FabricResponse::parse(&line);
        }
    }

    /// A segment with one byte replaced or its tail cut never panics a
    /// lookup and evicts at most itself. Re-inserting the same cells in
    /// the same order rewrites the segment under its content-derived
    /// name, so a store reopened after that serves every inserted outcome.
    #[test]
    fn mutated_segment_heals_after_reinsert(
        pos in any::<u64>(),
        byte in any::<u8>(),
        cut in any::<bool>(),
    ) {
        let key = |i: usize| CellKey::new(SCHEMA_VERSION, "chain:8", i as u64, 4, "nstr", "off");
        let entries: Vec<_> = rows().into_iter().map(|(i, o)| (key(i), o)).collect();
        let insert_all = |store: &ResultStore| {
            for (key, outcome) in &entries {
                store.insert_batched(key, outcome);
            }
            store.flush();
        };
        let name = format!("stg-decoders-{}-{pos}-{byte}-{cut}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        insert_all(&ResultStore::at_dir(&dir).expect("create dir"));
        // The flush left exactly one file: the segment.
        let seg = std::fs::read_dir(&dir).expect("cache dir").next().expect("segment");
        let seg = seg.expect("dir entry").path();
        let bytes = std::fs::read(&seg).expect("segment bytes");
        std::fs::write(&seg, mutate(bytes, pos, byte, cut)).expect("rewrite");
        {
            let store = ResultStore::at_dir(&dir).expect("reopen");
            for (key, _) in &entries {
                let _ = store.lookup(key);
            }
            prop_assert!(store.stats().evicted <= 1, "{:?}", store.stats());
            insert_all(&store);
        }
        let store = ResultStore::at_dir(&dir).expect("reopen");
        for (key, outcome) in &entries {
            let served = store.lookup(key);
            prop_assert_eq!(served.as_ref().map(encode_outcome), Some(encode_outcome(outcome)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
