//! Allocation discipline of the store's warm hot path.
//!
//! This binary installs a counting global allocator and asserts that the
//! zero-copy paths really are zero-copy: serving a fully warm grid from
//! the mapped segment index, encoding records and rows into a reused
//! buffer, and rendering CSV rows through a warmed merger perform **no
//! per-cell heap allocation** — the measured totals stay far below one
//! allocation per cell, or at zero.
//!
//! The count is per thread and only runs inside [`count_allocs`], so the
//! test harness running these tests (and its own bookkeeping) in
//! parallel cannot leak allocations into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use stg_core::SchedulerKind;
use stg_experiments::engine::{SimChoice, WorkloadSpec};
use stg_experiments::store::{put_record, put_rows, CellKey, Outcome, SCHEMA_VERSION};
use stg_experiments::{OutputKind, ResultStore, StreamMerger, SweepSpec};

struct Counting;

thread_local! {
    /// Allocations this thread made while a measurement is active;
    /// `None` outside [`count_allocs`]. `const`-initialised and free of
    /// destructors, so touching it from the allocator never allocates.
    static MEASURED: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs while threads tear down their
    // locals.
    let _ = MEASURED.try_with(|m| {
        if let Some(n) = m.get() {
            m.set(Some(n + 1));
        }
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Runs `f` and returns its result with the number of allocations the
/// calling thread made meanwhile.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    MEASURED.with(|m| m.set(Some(0)));
    let out = f();
    let spent = MEASURED.with(|m| m.take()).expect("measurement active");
    (out, spent)
}

/// Serving a warm grid from the mapped segment index allocates nothing
/// per cell: probes borrow verified views of the mapping, and decoded
/// records carry no heap. The whole `lookup_many` pass stays under a
/// small constant, orders of magnitude below one allocation per cell.
/// With one thread `lookup_many` runs inline on the calling thread, so
/// the per-thread count sees every probe.
#[test]
fn warm_mapped_lookups_do_not_allocate_per_cell() {
    let dir = std::env::temp_dir().join(format!("stg-alloc-disc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cells: usize = 512;
    let keys: Vec<Option<CellKey>> = (0..cells)
        .map(|i| {
            Some(CellKey::new(
                SCHEMA_VERSION,
                "chain:8",
                i as u64,
                4,
                "str-sch-1",
                "off",
            ))
        })
        .collect();
    let outcome: Outcome = Ok(stg_experiments::engine::Record {
        metrics: stg_sched::Metrics {
            makespan: 128,
            speedup: 3.5,
            sslr: 1.25,
            slr: 1.5,
            utilization: 0.875,
            blocks: 4,
        },
        buffer_elements: 64,
        sim: None,
    });
    {
        let store = ResultStore::at_dir(&dir).expect("create dir");
        for key in keys.iter().flatten() {
            store.insert_batched(key, &outcome);
        }
        store.flush();
    }
    let store = ResultStore::at_dir(&dir).expect("reopen");
    // Warm-up builds the lazy segment index and any thread-local state.
    let warmup = store.lookup_many(&keys, 1);
    assert!(warmup.iter().all(Option::is_some), "grid must be warm");
    let (served, spent) = count_allocs(|| store.lookup_many(&keys, 1));
    assert!(served.iter().all(Option::is_some));
    assert!(
        spent < 16,
        "warm lookup of {cells} cells spent {spent} allocations — the \
         mapped path must not allocate per cell"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Naming cells allocates per stripe, not per cell: consecutive keys of
/// one stripe share its frame, and the grid fingerprint streams every
/// key's bytes without rendering one.
#[test]
fn naming_cells_does_not_allocate_per_cell() {
    let cells = 512;
    let mut keys = Vec::with_capacity(2 * cells as usize);
    let name = |keys: &mut Vec<CellKey>, seed: u64| {
        keys.push(CellKey::new(
            SCHEMA_VERSION,
            "chain:8",
            seed,
            4,
            "sb-lts",
            "off",
        ));
        keys.push(CellKey::semantic(SCHEMA_VERSION, seed, 4, "sb-lts", "off"));
    };
    // The first two keys render this thread's frames.
    name(&mut keys, 0);
    let ((), spent) = count_allocs(|| (1..cells).for_each(|seed| name(&mut keys, seed)));
    assert_eq!(spent, 0, "{} keys of one stripe allocated", keys.len() - 2);
    let spec = SweepSpec {
        workloads: vec![WorkloadSpec {
            workload: "chain:8".parse().expect("registered spec"),
            pes: vec![2, 4, 8],
        }],
        graphs: 8_000,
        seed: 1,
        schedulers: vec![
            SchedulerKind::StreamingLts,
            SchedulerKind::StreamingRlx,
            SchedulerKind::NonStreaming,
        ],
        validate: false,
        sim: SimChoice::default(),
        timing: false,
        threads: Some(1),
    };
    let (_, spent) = count_allocs(|| spec.grid_fingerprint());
    assert!(
        spent < 16,
        "fingerprinting 72,000 cells spent {spent} allocations"
    );
}

/// A graph-major job names its graph's semantic keys stripe after
/// stripe. Each stripe keeps its own encoder on the thread, so only the
/// first key of a stripe renders its frame.
#[test]
fn semantic_keys_cycling_through_stripes_do_not_allocate_per_cell() {
    let stripes: Vec<(usize, &str)> = [2, 4, 8]
        .into_iter()
        .flat_map(|pes| ["sb-lts", "sb-rlx", "nonstreaming"].map(|s| (pes, s)))
        .collect();
    let graphs = 512;
    let mut keys = Vec::with_capacity(graphs as usize * stripes.len());
    let job = |keys: &mut Vec<CellKey>, fingerprint: u64| {
        for &(pes, scheduler) in &stripes {
            keys.push(CellKey::semantic(
                SCHEMA_VERSION,
                fingerprint,
                pes,
                scheduler,
                "off",
            ));
        }
    };
    // The first job renders this thread's frames.
    job(&mut keys, 0);
    let ((), spent) = count_allocs(|| (1..graphs).for_each(|fp| job(&mut keys, fp)));
    assert_eq!(
        spent,
        0,
        "{} keys cycling through {} stripes allocated",
        keys.len() - stripes.len(),
        stripes.len()
    );
}

/// A validated outcome with every field at an extreme.
fn wide_outcome() -> Outcome {
    Ok(stg_experiments::engine::Record {
        metrics: stg_sched::Metrics {
            makespan: u64::MAX,
            speedup: 123.456789,
            sslr: 2.5,
            slr: 97.5,
            utilization: 0.999,
            blocks: 4096,
        },
        buffer_elements: u64::MAX,
        sim: Some(stg_experiments::engine::SimRecord {
            completed: true,
            makespan: u64::MAX,
            rel_err_pct: 0.001,
            beats: u64::MAX,
            diverged: false,
            micros: stg_experiments::engine::SimMicros::default(),
        }),
    })
}

/// Encoding outcomes into a reused buffer — records, and the fabric
/// worker's per-row hot loop (a whole row section) — allocates nothing
/// once the buffer has grown to size.
#[test]
fn row_encoding_into_a_reused_buffer_does_not_allocate() {
    let outcome = wide_outcome();
    let mut record = Vec::new();
    put_record(&mut record, &outcome); // warm-up sizes the buffer
    let ((), spent) = count_allocs(|| {
        for _ in 0..1_000 {
            record.clear();
            put_record(&mut record, &outcome);
        }
    });
    assert_eq!(spent, 0, "1000 record encodes into a warmed buffer");
    let rows: Vec<(usize, Outcome)> = (0..128).map(|i| (i, outcome.clone())).collect();
    let mut section = Vec::new();
    put_rows(&mut section, rows.iter().map(|(i, o)| (*i, o)));
    let ((), spent) = count_allocs(|| {
        for _ in 0..100 {
            section.clear();
            put_rows(&mut section, rows.iter().map(|(i, o)| (*i, o)));
        }
    });
    assert_eq!(spent, 0, "100 row sections into a warmed buffer");
}

/// A warmed [`StreamMerger`] renders CSV rows into its one reused buffer:
/// 1,000 in-order rows written to `io::sink()` allocate nothing.
#[test]
fn warmed_merger_renders_csv_rows_without_allocating() {
    let spec = SweepSpec {
        workloads: vec![WorkloadSpec {
            workload: "chain:8".parse().expect("registered spec"),
            pes: vec![4],
        }],
        graphs: 1_100,
        seed: u64::MAX - 2_000,
        schedulers: vec![SchedulerKind::StreamingLts],
        validate: true,
        sim: SimChoice::Batched,
        timing: false,
        threads: Some(1),
    };
    let outcome = wide_outcome();
    let mut merger = StreamMerger::new(spec, OutputKind::Csv, std::io::sink()).expect("header");
    // Warm-up: the first rows render the workload's label and size the
    // row buffer.
    for index in 0..100 {
        merger.push(index, outcome.clone()).expect("row");
    }
    let rows: Vec<Outcome> = (0..1_000).map(|_| outcome.clone()).collect();
    let ((), spent) = count_allocs(|| {
        for (index, outcome) in (100..).zip(rows) {
            assert!(merger.push(index, outcome).expect("row"));
        }
    });
    assert_eq!(spent, 0, "1000 CSV rows through a warmed merger");
    assert_eq!(merger.finish().expect("complete").rows, 1_100);
}
