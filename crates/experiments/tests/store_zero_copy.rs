//! Zero-copy store properties.
//!
//! The mmap'd segment path is an *implementation* of the store contract,
//! not a new contract: for any store directory, every entry served out of
//! the mapped segments must be byte-identical to what was inserted.
//! Corrupt or truncated segments are verified before use and evicted — a
//! bad mapping is a clean miss, never undefined behavior — and writers
//! racing on the same cells never expose a partial segment to readers.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

use proptest::prelude::*;
use stg_analysis::ScheduleError;
use stg_core::SchedulerKind;
use stg_experiments::engine::{Record, SimMicros, SimRecord};
use stg_experiments::engine::{SimChoice, WorkloadSpec};
use stg_experiments::store::{encode_outcome, CellKey, Outcome, SCHEMA_VERSION};
use stg_experiments::{ResultStore, SweepSpec};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory per test case (proptest reruns included).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "stg-zero-copy-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic random `(key, outcome)` pairs from one seed (the same
/// xorshift idiom as the graph property tests — keeps shrinking stable
/// without a `rand` dependency here).
fn gen_entries(seed: u64, count: usize) -> Vec<(CellKey, Outcome)> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let schedulers = ["str-sch-1", "nstr-sch", "elw-sch"];
    let sims = ["off", "batched", "reference"];
    (0..count)
        .map(|_| {
            let spec = format!("fam{}:{}", next() % 7, next() % 100);
            let key = CellKey::new(
                SCHEMA_VERSION,
                &spec,
                next(),
                1 + (next() % 63) as usize,
                schedulers[(next() % 3) as usize],
                sims[(next() % 3) as usize],
            );
            let outcome: Outcome = match next() % 10 {
                0 => Err(ScheduleError::Cyclic),
                1 => Err(ScheduleError::EmptyBlock((next() % 32) as usize)),
                _ => Ok(Record {
                    metrics: stg_sched::Metrics {
                        makespan: next(),
                        speedup: (next() % 1_000_000) as f64 / 997.0,
                        sslr: (next() % 1_000_000) as f64 / 131.0,
                        slr: (next() % 1_000_000) as f64 / 173.0,
                        utilization: (next() % 1_000) as f64 / 1_000.0,
                        blocks: 1 + (next() % 64) as usize,
                    },
                    buffer_elements: next(),
                    sim: if next() % 2 == 0 {
                        None
                    } else {
                        Some(SimRecord {
                            completed: next() % 2 == 0,
                            makespan: next(),
                            rel_err_pct: (next() % 10_000) as f64 / 100.0,
                            beats: next(),
                            diverged: next() % 2 == 0,
                            micros: SimMicros::default(),
                        })
                    },
                }),
            };
            (key, outcome)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For a random persisted store, every entry a fresh store serves
    /// through the mapped segments is byte-identical to the outcome that
    /// was inserted, and every lookup counts as a plain hit.
    #[test]
    fn mapped_lookups_serve_exactly_the_inserted_entries(
        seed in any::<u64>(),
        count in 1usize..120,
    ) {
        let entries = gen_entries(seed, count);
        let dir = scratch_dir("prop");
        {
            let store = ResultStore::at_dir(&dir).expect("create dir");
            for (k, o) in &entries {
                store.insert_batched(k, o);
            }
            store.flush();
        }
        let mapped = ResultStore::at_dir(&dir).expect("reopen");
        for (k, o) in &entries {
            let served = mapped.lookup(k);
            prop_assert!(served.is_some(), "persisted key must be served");
            prop_assert_eq!(
                served.as_ref().map(encode_outcome),
                Some(encode_outcome(o)),
                "mapped entry must be byte-identical to the inserted one"
            );
        }
        let stats = mapped.stats();
        prop_assert_eq!(stats.hits, entries.len() as u64);
        prop_assert_eq!((stats.misses, stats.invalidations, stats.evicted), (0, 0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Writes a small store with one flushed segment and returns the segment
/// path plus one key it contains.
fn seeded_segment(dir: &PathBuf) -> (PathBuf, CellKey) {
    let key = CellKey::new(SCHEMA_VERSION, "chain:4", 7, 4, "str-sch-1", "off");
    let outcome: Outcome = Err(ScheduleError::Cyclic);
    {
        let store = ResultStore::at_dir(dir).expect("create dir");
        store.insert_batched(&key, &outcome);
        store.flush();
    }
    let seg = std::fs::read_dir(dir)
        .expect("cache dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".cells"))
        })
        .expect("flush wrote a segment");
    (seg, key)
}

/// A truncated segment file under mmap parses as corrupt at index build:
/// the lookup is a clean miss, the `evicted` counter rises, and the bad
/// artifact is deleted so the store heals.
#[test]
fn truncated_segment_under_mmap_is_evicted() {
    let dir = scratch_dir("trunc");
    let (seg, key) = seeded_segment(&dir);
    let bytes = std::fs::read(&seg).expect("segment bytes");
    std::fs::write(&seg, &bytes[..bytes.len() / 2]).expect("truncate");
    let store = ResultStore::at_dir(&dir).expect("reopen");
    assert_eq!(store.lookup(&key), None, "truncated entry must miss");
    let stats = store.stats();
    assert_eq!(stats.evicted, 1, "the corrupt segment is evicted");
    assert_eq!(stats.misses, 1);
    assert!(!seg.exists(), "evicted segment file is deleted");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A segment whose entry count is forged to `u32::MAX` is evicted like a
/// truncated one; the index build never reserves space for the count.
#[test]
fn forged_entry_count_is_evicted() {
    let dir = scratch_dir("count");
    let (seg, key) = seeded_segment(&dir);
    let mut bytes = std::fs::read(&seg).expect("segment bytes");
    // The count follows the 8-byte magic and the 4-byte version.
    bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&seg, &bytes).expect("rewrite");
    let store = ResultStore::at_dir(&dir).expect("reopen");
    assert_eq!((store.lookup(&key), store.stats().evicted), (None, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A mapped entry that fails verification — a bit-flip inside its
/// canonical key, or a garbage record — is invalidated (tombstoned)
/// rather than trusted, and the *second* probe is a plain miss — no
/// repeated invalidation, no promotion of corrupt bytes into memory.
#[test]
fn corrupt_mapped_entry_invalidates_once_then_misses() {
    // Layout: 8B magic + 4B version + 4B count, then per entry 8B hash +
    // 4B clen + 4B plen + canonical bytes + record bytes + 8B checksum.
    // Overwriting one byte keeps the framing intact while breaking
    // verification.
    let canonical_at = 8 + 4 + 4 + 8 + 4 + 4;
    for what in ["canonical", "payload"] {
        let dir = scratch_dir("flip");
        let (seg, key) = seeded_segment(&dir);
        let mut bytes = std::fs::read(&seg).expect("segment bytes");
        if what == "canonical" {
            bytes[canonical_at] = b'x';
        } else {
            bytes[canonical_at + key.canonical().len()] = b'#';
        }
        std::fs::write(&seg, &bytes).expect("rewrite");
        let store = ResultStore::at_dir(&dir).expect("reopen");
        assert_eq!(store.lookup(&key), None, "corrupt {what} must miss");
        let stats = store.stats();
        assert_eq!(stats.invalidations, 1, "{what}");
        assert_eq!(stats.misses, 1, "{what}");
        assert_eq!(store.lookup(&key), None);
        let stats = store.stats();
        assert_eq!(stats.invalidations, 1, "tombstoned {what} invalidates once");
        assert_eq!(stats.misses, 2, "{what}");
        assert_eq!(
            stats.evicted, 0,
            "entry corruption never evicts the segment"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A segment entry: the key it holds and its byte range in the segment.
type KeyedEntry = (CellKey, std::ops::Range<usize>);

/// A one-cell sweep's segment: its two entries (the nominal key and the
/// semantic key of the cell's graph) as `(key, byte range)`, and the
/// segment bytes. A v3 segment is a 16-byte header, then per entry a u64
/// hash, u32 key and record lengths, the key, the record and a u64
/// checksum.
fn one_cell_segment(dir: &PathBuf) -> (PathBuf, Vec<KeyedEntry>, Vec<u8>) {
    let spec = SweepSpec {
        workloads: vec![WorkloadSpec {
            workload: "chain:8".parse().expect("registered spec"),
            pes: vec![4],
        }],
        graphs: 1,
        seed: 1,
        schedulers: vec![SchedulerKind::StreamingLts],
        validate: false,
        sim: SimChoice::default(),
        timing: false,
        threads: Some(1),
    };
    {
        let store = ResultStore::at_dir(dir).expect("create dir");
        spec.run_with(Some(&store));
    }
    let fingerprint = spec.cases()[0].graph().fingerprint();
    let keys = [
        CellKey::new(SCHEMA_VERSION, "chain:8", 1, 4, "sb-lts", "off"),
        CellKey::semantic(SCHEMA_VERSION, fingerprint, 4, "sb-lts", "off"),
    ];
    let seg = std::fs::read_dir(dir)
        .expect("cache dir")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "cells"))
        .expect("the sweep wrote a segment");
    let bytes = std::fs::read(&seg).expect("segment bytes");
    assert_eq!(&bytes[12..16], &2u32.to_le_bytes(), "two entries");
    let mut entries = Vec::new();
    let mut at = 16;
    while at < bytes.len() {
        let len = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let end = at + 16 + len(at + 8) + len(at + 12) + 8;
        let key = keys
            .iter()
            .find(|k| bytes[at + 16..].starts_with(k.canonical().as_bytes()))
            .expect("every entry holds one of the cell's keys");
        entries.push((key.clone(), at..end));
        at = end;
    }
    assert_eq!((entries.len(), at), (2, bytes.len()));
    (seg, entries, bytes)
}

/// No single flipped bit anywhere in a one-cell segment is ever served:
/// a flip in the header or an entry's lengths evicts the segment, a flip
/// in an entry's key, record or checksum invalidates that entry, and a
/// flip in its hash files it under a key no lookup asks for. The other,
/// intact entry is still served whenever the segment parses.
#[test]
fn every_flipped_bit_of_a_one_cell_segment_is_refused() {
    let dir = scratch_dir("bitflip");
    let (seg, entries, clean) = one_cell_segment(&dir);
    let served = ResultStore::at_dir(&dir).expect("reopen");
    let want: Vec<Outcome> = entries
        .iter()
        .map(|(k, _)| {
            served
                .lookup(k)
                .expect("the clean segment serves both keys")
        })
        .collect();
    drop(served);
    let (mut evicted, mut invalidated, mut rehashed) = (0, 0, 0);
    for at in 0..clean.len() {
        for bit in 0..8 {
            let mut bytes = clean.clone();
            bytes[at] ^= 1 << bit;
            std::fs::write(&seg, &bytes).expect("rewrite");
            let store = ResultStore::at_dir(&dir).expect("reopen");
            for ((key, range), want) in entries.iter().zip(&want) {
                let got = store.lookup(key);
                if range.contains(&at) || at < 16 {
                    assert_eq!(got, None, "byte {at} bit {bit} was served");
                } else if store.stats().evicted == 0 {
                    assert_eq!(got.as_ref(), Some(want), "byte {at} bit {bit}");
                }
            }
            let stats = store.stats();
            match (stats.evicted, stats.invalidations) {
                (1, 0) => evicted += 1,
                (0, 1) => invalidated += 1,
                // Only a flipped hash leaves the entry unreachable.
                (0, 0) => {
                    let (_, range) = entries.iter().find(|(_, r)| r.contains(&at)).unwrap();
                    assert!(at < range.start + 8, "byte {at} bit {bit} went unnoticed");
                    rehashed += 1;
                }
                other => panic!("byte {at} bit {bit}: {other:?}"),
            }
        }
    }
    assert_eq!(evicted + invalidated + rehashed, 8 * clean.len());
    assert_eq!(rehashed, 2 * 64, "each entry's hash bits");
    assert_eq!(evicted, 8 * (16 + 2 * 8), "the header and length bits");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writers of one process that flush the same cells at once — two
/// service workers that both evaluated a shared cell — each stage through
/// their own temp file, so readers reopening the directory meanwhile only
/// ever map complete segments: every lookup hits, nothing is evicted, and
/// no temp file is left behind.
#[test]
fn concurrent_same_cell_flushes_never_expose_partial_segments() {
    const WRITERS: usize = 4;
    const READERS: usize = 2;
    const FLUSHES: usize = 150;
    let dir = scratch_dir("race");
    let (_, key) = seeded_segment(&dir);
    let outcome: Outcome = Err(ScheduleError::Cyclic);
    // Every thread starts its loop at once, so the flushes overlap.
    let start = Barrier::new(WRITERS + READERS);
    let done = AtomicBool::new(false);
    let (lookups, misses, evicted) = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|_| {
                s.spawn(|| {
                    let store = ResultStore::at_dir(&dir).expect("open dir");
                    start.wait();
                    for _ in 0..FLUSHES {
                        store.insert_batched(&key, &outcome);
                        store.flush();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                s.spawn(|| {
                    let (mut lookups, mut misses, mut evicted) = (0u64, 0u64, 0u64);
                    start.wait();
                    // At least one pass, and keep re-reading while any
                    // writer is still flushing.
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let store = ResultStore::at_dir(&dir).expect("open dir");
                        lookups += 1;
                        misses += u64::from(store.lookup(&key).is_none());
                        evicted += store.stats().evicted;
                        if finished {
                            return (lookups, misses, evicted);
                        }
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().expect("writer");
        }
        done.store(true, Ordering::Release);
        readers
            .into_iter()
            .map(|r| r.join().expect("reader"))
            .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2))
    });
    assert!(lookups >= READERS as u64);
    assert_eq!(
        misses, 0,
        "{misses} of {lookups} lookups missed a published cell"
    );
    assert_eq!(evicted, 0, "a reader evicted a half-written segment");
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .flatten()
        .map(|d| d.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
