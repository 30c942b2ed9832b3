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
use stg_experiments::engine::{Record, SimMicros, SimRecord};
use stg_experiments::store::{encode_outcome, CellKey, Outcome, SCHEMA_VERSION};
use stg_experiments::ResultStore;

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
/// canonical key, or a garbage payload — is invalidated (tombstoned)
/// rather than trusted, and the *second* probe is a plain miss — no
/// repeated invalidation, no promotion of corrupt bytes into memory.
#[test]
fn corrupt_mapped_entry_invalidates_once_then_misses() {
    // Layout: 8B magic + 4B version + 4B count, then per entry 8B hash +
    // 4B clen + 4B plen + canonical bytes + payload bytes. Overwriting one
    // byte with another ASCII value keeps the framing and UTF-8 intact
    // while breaking verification.
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
