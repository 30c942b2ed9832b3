//! Content-addressed sweep-cell result store.
//!
//! The staged sweep pipeline (see [`crate::engine`]) keys every grid cell
//! by a [`CellKey`] — a stable content hash over the workload spec
//! string, graph seed, PE count, scheduler preset, simulation mode, and
//! the engine [`SCHEMA_VERSION`] — and consults a [`ResultStore`] before
//! evaluating it. The store layers an in-memory map over an optional
//! on-disk directory (`--cache-dir`), so repeated sweeps skip
//! re-evaluating unchanged cells within a process *and* across processes.
//!
//! Stored outcomes are the deterministic [`Record`]/`ScheduleError`
//! outcome of a cell, written by [`put_record`] as one fixed-width
//! little-endian record: floats travel as their `to_bits`, so they
//! round-trip bit-exactly without being formatted or parsed. The same
//! record is the payload of the shared row codec ([`put_rows`]), behind
//! shard artifacts and fabric `rows` frames, so there is one outcome
//! format on disk and between processes. Non-deterministic validation
//! wall-clocks are deliberately **not** stored — the engine bypasses the
//! store entirely when timing capture is on, keeping cached and fresh rows
//! indistinguishable on the byte-stable output path.
//!
//! Every nominal miss is evaluated through
//! `ResultStore::evaluate_once` on the cell's semantic key
//! ([`CellKey::semantic`], the graph's structure rather than its spec):
//! the first thread to miss on a semantic key evaluates it, and every
//! other miss on that key — a structure repeated later in the same
//! batch, or a concurrent caller's cell — takes the owner's outcome,
//! counted in [`StoreStats::repaired`]. Processes sharing one directory
//! do not coordinate: each evaluates its own misses, and their segment
//! writes race benignly. Passes without a store single-flight the same
//! way through a [`SemanticTable`], an in-memory table that lives for
//! one pass or one fabric lease; both run the one protocol of
//! `OnceLock::get_or_init`.
//!
//! Invalidation is structural, not temporal: every cache entry embeds its
//! canonical key string and ends in a 64-bit [`checksum`] of its bytes,
//! and both are verified on every load. So a hash collision, a corrupt
//! record, or a flipped byte anywhere in the entry is detected, counted in
//! [`StoreStats::invalidations`], and transparently re-evaluated — never
//! served. A segment file that does not even parse (truncation, an entry
//! count or length that does not add up, or an older [`SCHEMA_VERSION`])
//! is additionally *deleted* (counted in [`StoreStats::evicted`]) so
//! corruption heals instead of re-triggering in every future process.
//! Bump [`SCHEMA_VERSION`] whenever the meaning of a cell changes — new
//! record fields, changed scheduler/simulator semantics, changed workload
//! generators — and every old entry misses.
//!
//! Each store counts its own traffic in a [`StoreCounters`] set, one
//! relaxed atomic add per lookup; [`ResultStore::stats`] copies it into a
//! [`StoreStats`], which every surface prints as `cell_cache_*` (see
//! [`crate::metrics`]).
//!
//! ## Disk layout: segment files
//!
//! A `--cache-dir` holds one artifact kind: `seg-{hash:016x}.cells`, a
//! binary segment of many entries, written by
//! [`ResultStore::insert_batched`] + [`ResultStore::flush`]. One `fsync`
//! per [`FLUSH_THRESHOLD`] cells (or per flush). A segment is the
//! `STGCELLS` magic, the `u32` schema version and the `u32` entry count,
//! then per entry: the `u64` key hash, the `u32` lengths of the canonical
//! key and of the record, the canonical key, the [`put_record`] record,
//! and the `u64` [`checksum`] of everything before it in the entry. The
//! in-memory map holds the same entry bytes, so one reader verifies both.
//! On the first disk lookup the store memory-maps every segment and
//! builds a per-entry *offset index* — entries are **not** copied into the
//! in-memory map; lookups verify the embedded canonical key and checksum
//! and decode the record straight out of the mapped bytes. Where
//! `mmap(2)` is unavailable (non-Linux platforms) or fails, and for empty
//! files, the segment is read into an owned buffer instead; everything
//! downstream sees the same byte slice.
//!
//! Segments are written atomically (a temp file unique per process and
//! write, then rename), so a killed sweep or two threads flushing the
//! same cells never leave a half-written segment a later reader would
//! trip over — at worst an orphaned `.seg-*.tmp` that no lookup reads.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use stg_analysis::ScheduleError;
use stg_core::SchedulerKind;
use stg_graph::NodeId;

use crate::engine::{Record, SimChoice, SimMicros, SimRecord};

/// The engine result-schema version, embedded in every [`CellKey`].
/// Bumping it invalidates every previously cached cell (the canonical key
/// string changes, so old entries can never verify).
///
/// v2: binary segment files and binary shard artifacts joined the disk
/// formats, and invalid disk entries are evicted rather than left in
/// place. v3: outcomes are binary [`put_record`] records, and every
/// segment entry and row carries a [`checksum`].
pub const SCHEMA_VERSION: u32 = 3;

/// Pending batched inserts are flushed into a segment file once this
/// many accumulate (and finally on [`ResultStore::flush`]/drop). Each
/// flush costs one `fsync` + rename, amortized over up to this many
/// cells. Pending entries are under two hundred bytes each, so the queue
/// tops out well under a megabyte before flushing.
pub const FLUSH_THRESHOLD: usize = 4096;

/// A cell outcome as the engine records it: a scheduling error is data,
/// not a panic, and caches like any other result.
pub type Outcome = Result<Record, ScheduleError>;

/// 64-bit FNV-1a over `bytes` — a stable, dependency-free content hash
/// (the algorithm is pinned here; `std`'s hashers are explicitly not
/// stable across releases, which would silently invalidate disk caches on
/// a toolchain upgrade).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_BASIS, bytes)
}

/// The FNV-1a offset basis — the starting state of [`fnv1a`].
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a state `h`: hashing a byte stream
/// in chunks yields the same value as hashing the concatenation, so
/// callers (the grid fingerprint) can hash without materializing the
/// whole input.
pub fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The content-addressed identity of one sweep cell.
///
/// Two cells share a key exactly when they are guaranteed to produce the
/// same deterministic [`Record`]: same workload spec string, seed, PE
/// count, scheduler preset, simulation mode (`off` when validation is
/// disabled, else the `--sim` choice), and engine schema version.
/// Changing **any** component changes the canonical string and therefore
/// the hash — the cache-correctness tests pin this.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CellKey {
    canonical: String,
    hash: u64,
}

impl CellKey {
    /// Builds a key from its components. The engine passes
    /// [`SCHEMA_VERSION`]; tests pass other versions to prove the bump
    /// invalidates.
    pub fn new(
        version: u32,
        workload_spec: &str,
        seed: u64,
        pes: usize,
        scheduler: &str,
        sim_mode: &str,
    ) -> CellKey {
        let canonical = format!("v{version}|{workload_spec}|{seed}|{pes}|{scheduler}|{sim_mode}");
        let hash = fnv1a(canonical.as_bytes());
        CellKey { canonical, hash }
    }

    /// The content hash (the entry's index key in memory and in
    /// segment files).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The canonical key string the hash is computed over. Embedded in
    /// every cache entry and verified on load.
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// A *semantic* cell key: identifies a cell by the structural
    /// fingerprint of its instantiated graph
    /// ([`CanonicalGraph::fingerprint`](stg_model::CanonicalGraph::fingerprint))
    /// instead of the workload-spec/seed pair that produced it. Two specs
    /// that instantiate structurally identical graphs (e.g. a
    /// seed-invariant workload under two different seeds) share one
    /// semantic key, which is what lets the engine *repair* a nominal
    /// miss from a previously evaluated equivalent cell.
    ///
    /// The `sem:` spec prefix cannot collide with a nominal key: no
    /// registered workload family is named `sem`, and the seed slot is
    /// pinned to zero.
    pub fn semantic(
        version: u32,
        graph_fingerprint: u64,
        pes: usize,
        scheduler: &str,
        sim_mode: &str,
    ) -> CellKey {
        Self::semantic_with(
            &mut String::new(),
            version,
            graph_fingerprint,
            pes,
            scheduler,
            sim_mode,
        )
    }

    /// [`CellKey::semantic`] with a caller-provided scratch buffer for
    /// the rendered spec component — the engine's hot path reuses one
    /// buffer per worker thread instead of allocating a spec string per
    /// evaluated cell. The produced key is identical to
    /// [`CellKey::semantic`]'s.
    pub fn semantic_with(
        buf: &mut String,
        version: u32,
        graph_fingerprint: u64,
        pes: usize,
        scheduler: &str,
        sim_mode: &str,
    ) -> CellKey {
        use std::fmt::Write as _;
        buf.clear();
        write!(buf, "sem:{graph_fingerprint:016x}").expect("write to String");
        CellKey::new(version, buf, 0, pes, scheduler, sim_mode)
    }
}

crate::counter_set! {
    /// Hit/miss/invalidation/eviction counters of a [`ResultStore`].
    ///
    /// `misses` counts every nominal lookup that found no entry, including
    /// the `invalidations` subset (entries that existed but failed
    /// verification — canonical-key mismatch, undecodable payload). `evicted`
    /// counts segment files *deleted* because they failed to parse as a whole
    /// (truncation, stale schema, foreign bytes). `repaired` counts cells
    /// answered from their semantic (fingerprint-keyed) key without
    /// evaluating: by the store's single-flight evaluation (or
    /// [`ResultStore::lookup_repaired`]) after a nominal miss, when the entry
    /// was already stored or another thread handed its outcome over; and, in
    /// a pass without a store, by its [`SemanticTable`], which hands over
    /// the outcome of the cell that first evaluated the key. So in the
    /// engine a cacheable cell was evaluated exactly when it was neither a
    /// hit nor repaired. A repaired cell is *not* a hit (no nominal lookup
    /// found it), and probing a semantic key never counts a miss.
    pub struct StoreStats / StoreCounters: "cell_cache_" {
        /// Lookups served from the store.
        hits: Sum,
        /// Nominal lookups that found no entry.
        misses: Sum,
        /// Entries found but rejected by verification (subset of `misses`).
        invalidations: Sum,
        /// Unparseable segment files deleted.
        evicted: Sum,
        /// Cells answered from a semantic (graph-fingerprint) key: a stored
        /// entry, or an evaluation another cell ran.
        repaired: Sum,
    }
}

impl StoreStats {
    /// Total nominal lookups observed (repaired probes are follow-ups to
    /// counted misses, not extra lookups).
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }
}

/// The sweep-cell result store: an in-memory map, optionally backed by an
/// on-disk directory shared across processes.
///
/// Thread-safe; lookups and inserts from concurrent shards of one grid
/// are fine. Segment writes are atomic (unique temp file + rename), so
/// concurrent writers of the same cells race benignly — both publish
/// identical content. Disk I/O errors degrade to cache misses (with a
/// once-per-store warning) rather than failing the sweep: the cache is an
/// accelerator, never a correctness dependency.
pub struct ResultStore {
    /// This process's inserts by key hash, each held as its segment entry
    /// bytes (see [`put_entry`]).
    mem: Mutex<HashMap<u64, Arc<[u8]>>>,
    dir: Option<PathBuf>,
    /// Batched inserts awaiting a segment-file flush.
    pending: Mutex<Vec<Arc<[u8]>>>,
    /// The lazily built zero-copy index over the directory's `seg-*.cells`
    /// files (built once, on the first disk lookup).
    segments: OnceLock<SegmentIndex>,
    /// Semantic keys whose evaluation is running right now, each filled
    /// by the thread that missed on it first (see
    /// [`ResultStore::evaluate_once`]). A key leaves the table once its
    /// outcome is stored, so it never holds more than one key per
    /// evaluating thread (plus any whose evaluation unwound and that no
    /// caller has retried yet).
    inflight: Mutex<HashMap<CellKey, Arc<OnceLock<Outcome>>>>,
    counters: StoreCounters,
    warned_io: AtomicBool,
}

/// The single-flight protocol behind [`ResultStore::evaluate_once`] and
/// [`SemanticTable::evaluate_once`], which is `OnceLock::get_or_init`'s:
/// the first caller to reach the empty `cell` owns it and runs `eval`;
/// callers arriving meanwhile block and take its outcome; if `eval`
/// unwinds, the cell stays empty and one of them evaluates instead.
/// Returns the outcome and whether another caller's `eval` supplied it.
/// A handed-over outcome carries no validation wall-clock, like a stored
/// one: this caller ran no simulator.
fn single_flight(cell: &OnceLock<Outcome>, eval: impl FnOnce() -> Outcome) -> (Outcome, bool) {
    let mut owned = false;
    let mut outcome = cell
        .get_or_init(|| {
            owned = true;
            eval()
        })
        .clone();
    if !owned {
        if let Ok(Record { sim: Some(s), .. }) = &mut outcome {
            s.micros = SimMicros::default();
        }
    }
    (outcome, !owned)
}

/// A semantic cell key as typed parts (compare [`CellKey::semantic`],
/// its string form in the store): the structural fingerprint of the
/// instantiated graph, the machine size, the scheduler preset, and the
/// simulation mode (`None` when validation is off). [`SemanticTable`]
/// entries are keyed by it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct SemanticKey {
    /// [`CanonicalGraph::fingerprint`](stg_model::CanonicalGraph::fingerprint)
    /// of the cell's graph.
    pub(crate) fingerprint: u64,
    pub(crate) pes: usize,
    pub(crate) scheduler: SchedulerKind,
    /// The validating simulator choice, or `None` without validation.
    pub(crate) sim: Option<SimChoice>,
}

/// An in-memory single-flight table on semantic cell keys (graph
/// structure, PEs, scheduler and sim mode): what a pass without a
/// [`ResultStore`] evaluates its cells through, so each
/// distinct (structure, PEs, scheduler, sim mode) is evaluated once per
/// table and every other cell on it takes that outcome. The engine keeps
/// one per pass (or shard); a fabric worker keeps one per lease, so
/// reuse spans the lease's chunks and the table stays bounded by the
/// lease size.
///
/// Entries are typed outcomes held inline, one slot per claimed key: no
/// encoding and no allocation per entry. Slots come in chunks of 256,
/// each allocated when the first key claims a slot in
/// it, so a table holds about as many slots as it has distinct keys, not
/// as many as its capacity. The table never persists or forgets an
/// entry; it lives as long as its owner keeps it.
pub struct SemanticTable {
    /// Each claimed key's slot number, in claim order.
    index: Mutex<HashMap<SemanticKey, usize>>,
    /// Slot `i` is `chunks[i / SLOT_CHUNK][i % SLOT_CHUNK]`.
    chunks: Box<[OnceLock<SlotChunk>]>,
    capacity: usize,
}

/// One chunk of [`SemanticTable`] slots.
type SlotChunk = Box<[OnceLock<Outcome>]>;

/// Slots per [`SemanticTable`] chunk.
const SLOT_CHUNK: usize = 256;

impl SemanticTable {
    /// A table with room for `keys` distinct keys — the number of cells
    /// that will go through it is always enough. A key claimed after the
    /// table is full is evaluated without reuse.
    pub fn with_capacity(keys: usize) -> SemanticTable {
        SemanticTable {
            index: Mutex::new(HashMap::new()),
            chunks: (0..keys.div_ceil(SLOT_CHUNK))
                .map(|_| OnceLock::new())
                .collect(),
            capacity: keys,
        }
    }

    /// Slot `i`, allocating its chunk on first use.
    fn slot(&self, i: usize) -> &OnceLock<Outcome> {
        let chunk = i / SLOT_CHUNK;
        let slots = self.chunks[chunk].get_or_init(|| {
            let len = SLOT_CHUNK.min(self.capacity - chunk * SLOT_CHUNK);
            (0..len).map(|_| OnceLock::new()).collect()
        });
        &slots[i % SLOT_CHUNK]
    }

    /// Single-flight evaluation of `key`: `eval` runs only if no caller
    /// has filled the key's slot or is filling it. Returns the outcome and
    /// whether another caller's evaluation supplied it (the engine counts
    /// those in [`StoreStats::repaired`]). If `eval` unwinds, a caller
    /// waiting on the key evaluates instead. Schedulers and simulators
    /// are deterministic and blind to workload names, so the shared
    /// outcome is the one each caller would have computed.
    pub(crate) fn evaluate_once(
        &self,
        key: SemanticKey,
        eval: impl FnOnce() -> Outcome,
    ) -> (Outcome, bool) {
        let slot = {
            let mut index = self.index.lock().expect("semantic table lock");
            let next = index.len();
            if next < self.capacity {
                Some(*index.entry(key).or_insert(next))
            } else {
                index.get(&key).copied()
            }
        };
        match slot {
            Some(slot) => single_flight(self.slot(slot), eval),
            None => (eval(), false),
        }
    }

    /// Number of distinct keys claimed so far: each was evaluated once
    /// (or is being evaluated now).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.index.lock().expect("semantic table lock").len()
    }

    /// Slots allocated so far.
    #[cfg(test)]
    fn allocated(&self) -> usize {
        self.chunks
            .iter()
            .filter_map(OnceLock::get)
            .map(|c| c.len())
            .sum()
    }
}

/// A read-only view of one segment file's bytes: memory-mapped on
/// Linux, otherwise an owned buffer read in whole. Both variants expose
/// the identical byte slice, so every parse/verify path downstream is
/// shared.
enum Mapping {
    /// The fallback for platforms without `mmap(2)`, empty files, and
    /// failed maps.
    Owned(Vec<u8>),
    /// A `PROT_READ`/`MAP_PRIVATE` file mapping, unmapped on drop.
    #[cfg(target_os = "linux")]
    Mapped { ptr: *const u8, len: usize },
}

// SAFETY: the mapped pages are read-only for the mapping's lifetime; the
// raw pointer is only ever turned into an immutable byte slice.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Opens `path` for reading, mapping it where the platform allows.
    /// A failed map silently degrades to the owned read — the two are
    /// byte-identical.
    fn open(path: &Path) -> std::io::Result<Mapping> {
        #[cfg(target_os = "linux")]
        if let Ok(m) = Mapping::map_file(path) {
            return Ok(m);
        }
        Ok(Mapping::Owned(std::fs::read(path)?))
    }

    #[cfg(target_os = "linux")]
    fn map_file(path: &Path) -> std::io::Result<Mapping> {
        use std::os::unix::io::AsRawFd;
        // Raw mmap(2) via the C ABI — the workspace is dependency-free by
        // policy, so no `libc` crate; the two constants are stable parts
        // of the Linux ABI.
        const PROT_READ: i32 = 1;
        const MAP_PRIVATE: i32 = 2;
        extern "C" {
            fn mmap(
                addr: *mut u8,
                len: usize,
                prot: i32,
                flags: i32,
                fd: i32,
                offset: i64,
            ) -> *mut u8;
        }
        let f = std::fs::File::open(path)?;
        let len = f.metadata()?.len() as usize;
        if len == 0 {
            // Zero-length mappings are EINVAL; an empty segment cannot
            // parse anyway, so hand back an empty buffer.
            return Ok(Mapping::Owned(Vec::new()));
        }
        // SAFETY: a fresh read-only private mapping of a file we own a
        // handle to; the result is checked for MAP_FAILED below. The file
        // descriptor may close after mmap returns — POSIX keeps the
        // mapping alive.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                f.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Mapping::Mapped { ptr, len })
    }

    /// The segment bytes, whichever variant backs them.
    fn bytes(&self) -> &[u8] {
        match self {
            Mapping::Owned(v) => v,
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, valid until this value drops.
            #[cfg(target_os = "linux")]
            Mapping::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }
}

#[cfg(target_os = "linux")]
impl Drop for Mapping {
    fn drop(&mut self) {
        extern "C" {
            fn munmap(addr: *mut u8, len: usize) -> i32;
        }
        if let Mapping::Mapped { ptr, len } = *self {
            // SAFETY: unmapping the exact region mmap returned, once.
            unsafe { munmap(ptr as *mut u8, len) };
        }
    }
}

/// Where one entry lives inside a mapped segment: a byte range, not a
/// copy. The framing was checked once at index build; the canonical key,
/// checksum and record are re-verified on every probe.
struct SegRef {
    seg: u32,
    /// Offset and length of the whole entry, checksum included.
    entry: (u32, u32),
    /// Set when a probe found the entry unverifiable (hash collision,
    /// corrupt bytes); later probes then miss cleanly instead of
    /// re-invalidating.
    dead: AtomicBool,
}

/// The zero-copy index over every parseable `seg-*.cells` file: one
/// [`Mapping`] per segment plus a hash → [`SegRef`] table. Built once per
/// store on the first disk lookup; unparseable segments are deleted
/// (whole-file eviction) during the build.
#[derive(Default)]
struct SegmentIndex {
    maps: Vec<Mapping>,
    refs: HashMap<u64, SegRef>,
}

impl SegmentIndex {
    /// The entry bytes `r` refers to.
    fn entry(&self, r: &SegRef) -> &[u8] {
        let (off, len) = (r.entry.0 as usize, r.entry.1 as usize);
        &self.maps[r.seg as usize].bytes()[off..off + len]
    }
}

impl ResultStore {
    /// A purely in-memory store (process lifetime only).
    pub fn in_memory() -> ResultStore {
        ResultStore {
            mem: Mutex::new(HashMap::new()),
            dir: None,
            pending: Mutex::new(Vec::new()),
            segments: OnceLock::new(),
            inflight: Mutex::new(HashMap::new()),
            counters: StoreCounters::default(),
            warned_io: AtomicBool::new(false),
        }
    }

    /// A store persisting segment files under `dir` (created if absent),
    /// as `--cache-dir` opens it.
    pub fn at_dir(dir: impl AsRef<Path>) -> std::io::Result<ResultStore> {
        std::fs::create_dir_all(dir.as_ref())?;
        let mut store = ResultStore::in_memory();
        store.dir = Some(dir.as_ref().to_path_buf());
        Ok(store)
    }

    /// The backing directory, when this store persists to disk.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Looks `key` up, counting a hit, miss, or invalidation. Returns the
    /// decoded outcome only if the entry verifies: its embedded canonical
    /// key must equal `key.canonical()`, its checksum must match, and its
    /// record must decode.
    pub fn lookup(&self, key: &CellKey) -> Option<Outcome> {
        match self.probe(key) {
            Some(o) => {
                self.counters.hits.add(1);
                Some(o)
            }
            None => {
                self.counters.misses.add(1);
                None
            }
        }
    }

    /// Probes a *semantic* key (see [`CellKey::semantic`]) after a
    /// nominal [`ResultStore::lookup`] missed. A hit counts in
    /// [`StoreStats::repaired`] — not `hits` — and a probe that finds
    /// nothing counts nowhere: the nominal miss was already counted, and
    /// repaired cells must stay distinguishable from plain warm hits in
    /// every stats surface. This is step 1 of the engine's single-flight
    /// evaluation of a semantic key, which it calls instead: a probe alone
    /// cannot see an evaluation of the key that is still running.
    pub fn lookup_repaired(&self, key: &CellKey) -> Option<Outcome> {
        let found = self.probe(key);
        if found.is_some() {
            self.counters.repaired.add(1);
        }
        found
    }

    /// Single-flight evaluation of the *semantic* key `sem`: `eval` runs
    /// only if no thread has stored the key's outcome or is producing it.
    /// Returns the outcome and, when this call evaluated it, the entry it
    /// inserted into memory; `None` means another evaluation supplied the
    /// outcome (then it also counts in [`StoreStats::repaired`]). The
    /// caller queues a returned entry for disk
    /// ([`ResultStore::persist_entry`]): the engine does so in case
    /// order, so the segments a pass writes do not depend on which thread
    /// evaluated what.
    ///
    /// 1. a stored entry, probed as [`ResultStore::lookup_repaired`] does;
    /// 2. else the key's in-flight cell, joined or registered, filled
    ///    under the single-flight protocol [`SemanticTable`] shares: the
    ///    first caller probes again, then runs `eval` and inserts the
    ///    semantic entry into memory; callers that joined meanwhile take
    ///    its outcome;
    /// 3. the caller that filled the cell deregisters it.
    ///
    /// The filler inserts before it deregisters, and it probes again
    /// after registering, so no second evaluation slips in between. If
    /// `eval` unwinds, the cell stays registered and empty, and a caller
    /// that joined it (or a later one) evaluates. Fillers never wait on
    /// another key, so waits cannot form a cycle. Schedulers and
    /// simulators are deterministic and blind to workload names, so the
    /// shared outcome is the one each caller would have computed.
    pub(crate) fn evaluate_once(
        &self,
        sem: &CellKey,
        eval: impl FnOnce() -> Outcome,
    ) -> (Outcome, Option<Arc<[u8]>>) {
        if let Some(outcome) = self.lookup_repaired(sem) {
            return (outcome, None);
        }
        let flight = Arc::clone(
            self.inflight
                .lock()
                .expect("in-flight table lock")
                .entry(sem.clone())
                .or_default(),
        );
        let mut fresh = None;
        let (outcome, joined) = single_flight(&flight, || {
            // A filler that finished between step 1 and this registration
            // inserted its entry before deregistering: probe again.
            self.probe(sem).unwrap_or_else(|| {
                let outcome = eval();
                fresh = Some(self.insert_mem(sem, &outcome));
                outcome
            })
        });
        if !joined {
            self.inflight
                .lock()
                .expect("in-flight table lock")
                .remove(sem);
        }
        if fresh.is_none() {
            self.counters.repaired.add(1);
        }
        (outcome, fresh)
    }

    /// The lookup mechanics without hit/miss accounting: memory, then the
    /// zero-copy segment index — verification and invalidation of
    /// unverifiable entries happen at both layers (that structural
    /// counter always ticks here).
    fn probe(&self, key: &CellKey) -> Option<Outcome> {
        // 1. In-memory entries: this process's inserts. An `Arc` clone,
        //    not a byte copy.
        let mem_entry = {
            let mem = self.mem.lock().expect("result store lock");
            mem.get(&key.hash).cloned()
        };
        if let Some(e) = mem_entry {
            if let Some(o) = read_entry(&e, key) {
                return Some(o);
            }
            // Present but unverifiable: a hash collision. Drop it from
            // memory; the evaluation that follows re-inserts a fresh
            // entry.
            self.mem
                .lock()
                .expect("result store lock")
                .remove(&key.hash);
            self.counters.invalidations.add(1);
            return None;
        }
        // 2. Borrowed, verified views into the mapped segment files —
        //    nothing is promoted or copied; re-probes re-verify the same
        //    bytes in place.
        let segs = self.segment_index();
        let r = segs.refs.get(&key.hash)?;
        if r.dead.load(Ordering::Relaxed) {
            return None;
        }
        if let Some(o) = read_entry(segs.entry(r), key) {
            return Some(o);
        }
        // Unverifiable segment entry (hash collision, checksum mismatch,
        // undecodable record): tombstone it so later probes miss cleanly.
        // The segment file itself stays — only whole-segment parse
        // failures evict segments.
        r.dead.store(true, Ordering::Relaxed);
        self.counters.invalidations.add(1);
        None
    }

    /// Looks up a batch of keys with `threads` workers, in a single
    /// parallel pass (`None` key slots pass through as `None`) over the
    /// persistent worker pool. This is the sweep engine's prefetch path:
    /// verifying and decoding entries dominates a warm start, and it
    /// parallelizes perfectly. The result vector is index-aligned with
    /// `keys` and independent of `threads`.
    pub fn lookup_many(&self, keys: &[Option<CellKey>], threads: usize) -> Vec<Option<Outcome>> {
        // Build the segment index before fanning out, so the workers
        // start on a ready index instead of serializing behind its
        // one-time construction.
        self.segment_index();
        crate::harness::par_map_with(keys.len() as u64, threads, |i| {
            keys[i as usize].as_ref().and_then(|k| self.lookup(k))
        })
    }

    /// Inserts an outcome into memory immediately and queues the disk
    /// write; queued entries are persisted into one binary segment file
    /// per [`FLUSH_THRESHOLD`] accumulated cells (and on
    /// [`ResultStore::flush`]/drop).
    pub fn insert_batched(&self, key: &CellKey, outcome: &Outcome) {
        let entry = self.insert_mem(key, outcome);
        self.persist_entry(entry);
    }

    /// Queues an entry already held in memory for the disk, flushing a
    /// segment once [`FLUSH_THRESHOLD`] entries are queued. Without a
    /// backing directory it does nothing.
    pub(crate) fn persist_entry(&self, entry: Arc<[u8]>) {
        if self.dir.is_none() {
            return;
        }
        let due = {
            let mut pending = self.pending.lock().expect("pending lock");
            pending.push(entry);
            pending.len() >= FLUSH_THRESHOLD
        };
        if due {
            self.flush();
        }
    }

    /// Inserts `key`'s entry into the in-memory map and returns it: its
    /// segment bytes, rendered into a per-thread buffer and copied into
    /// one exact-size allocation, shared by the map and the disk queue.
    fn insert_mem(&self, key: &CellKey, outcome: &Outcome) -> Arc<[u8]> {
        thread_local! {
            static ENTRY_BUF: std::cell::RefCell<Vec<u8>> = const {
                std::cell::RefCell::new(Vec::new())
            };
        }
        let entry: Arc<[u8]> = ENTRY_BUF.with(|buf| {
            let mut buf = buf.borrow_mut();
            buf.clear();
            put_entry(&mut buf, key, outcome);
            Arc::from(&buf[..])
        });
        self.mem
            .lock()
            .expect("result store lock")
            .insert(key.hash, Arc::clone(&entry));
        entry
    }

    /// Persists all queued [`ResultStore::insert_batched`] entries into a
    /// segment file now. Idempotent; called automatically on drop.
    pub fn flush(&self) {
        let entries = {
            let mut pending = self.pending.lock().expect("pending lock");
            std::mem::take(&mut *pending)
        };
        if entries.is_empty() {
            return;
        }
        self.write_segment(&entries);
    }

    /// The counters accumulated over this store's lifetime, across every
    /// caller. The engine counts one call's hits, misses and repairs
    /// itself (see [`crate::engine::CasesResult::cell_cache`]).
    pub fn stats(&self) -> StoreStats {
        self.counters.snapshot()
    }

    /// Number of entries resident in memory.
    pub fn len(&self) -> usize {
        self.mem.lock().expect("result store lock").len()
    }

    /// True when no entry is resident in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The zero-copy segment index, built on first use: every
    /// `seg-*.cells` file in the backing directory is mapped and indexed
    /// by entry hash — entry bytes are never copied into the in-memory
    /// map. A segment that fails to parse — truncation, stale schema,
    /// foreign bytes — is deleted whole and counted as one eviction
    /// during the build.
    fn segment_index(&self) -> &SegmentIndex {
        self.segments.get_or_init(|| {
            let mut index = SegmentIndex::default();
            let Some(listing) = self.dir.as_ref().and_then(|d| std::fs::read_dir(d).ok()) else {
                return index;
            };
            for dirent in listing.flatten() {
                let name = dirent.file_name();
                let Some(name) = name.to_str() else { continue };
                if !name.starts_with("seg-") || !name.ends_with(".cells") {
                    continue;
                }
                let path = dirent.path();
                let Ok(map) = Mapping::open(&path) else {
                    continue;
                };
                let seg = index.maps.len() as u32;
                match index_segment(map.bytes(), seg) {
                    Some(refs) => {
                        index.maps.push(map);
                        for (hash, r) in refs {
                            // First segment read wins on duplicate hashes
                            // (identical content, written by racing
                            // shards).
                            index.refs.entry(hash).or_insert(r);
                        }
                    }
                    None => {
                        drop(map);
                        if std::fs::remove_file(&path).is_ok() {
                            self.counters.evicted.add(1);
                        }
                    }
                }
            }
            index
        })
    }

    /// Writes `entries` as one atomic binary segment file. The file name
    /// is content-derived (FNV-1a over the entry hashes), so concurrent
    /// writers persisting the same cells — shards, or service workers
    /// that evaluated one shared cell — race benignly onto the same name
    /// with identical bytes. Each write stages through its own temp file
    /// (unique per process and call), so racing writers never share an
    /// inode and a reader can only ever map a complete segment.
    fn write_segment(&self, entries: &[Arc<[u8]>]) {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let Some(dir) = self.dir.as_ref() else {
            return;
        };
        let len = entries.iter().map(|e| e.len()).sum::<usize>();
        let mut body = Vec::with_capacity(SEGMENT_MAGIC.len() + 8 + len);
        body.extend_from_slice(SEGMENT_MAGIC);
        put_u32(&mut body, SCHEMA_VERSION);
        put_u32(&mut body, entries.len() as u32);
        let mut name_hash = Vec::with_capacity(entries.len() * 8);
        for entry in entries {
            body.extend_from_slice(entry);
            // Every entry starts with its key hash.
            name_hash.extend_from_slice(&entry[..8]);
        }
        let file = format!("seg-{:016x}.cells", fnv1a(&name_hash));
        // The leading dot keeps temp files out of every `seg-*` listing.
        let tmp = dir.join(format!(
            ".{file}.{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let result = (|| -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&body)?;
            f.sync_data()?;
            std::fs::rename(&tmp, dir.join(&file))
        })();
        if let Err(e) = result {
            let _ = std::fs::remove_file(&tmp);
            self.warn_io(dir, &e);
        }
    }

    /// Reports the first failed segment write of this store. The failed
    /// batch stays served from memory for this process only; later
    /// flushes still try the disk.
    fn warn_io(&self, dir: &Path, e: &std::io::Error) {
        if !self.warned_io.swap(true, Ordering::Relaxed) {
            eprintln!(
                "warning: cell cache write to {} failed ({e}); those cells stay in memory \
                 only (later write failures are not reported)",
                dir.display()
            );
        }
    }
}

impl Drop for ResultStore {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Magic prefix of binary segment files.
const SEGMENT_MAGIC: &[u8] = b"STGCELLS";

/// Bytes of a segment entry's framing: the `u64` key hash and the `u32`
/// lengths of the canonical key and of the record.
const ENTRY_HEAD: usize = 16;

/// Bytes of the [`checksum`] that ends every segment entry and row.
const SUM: usize = 8;

/// Walks a binary segment file and records every entry's byte range —
/// the zero-copy analogue of parsing it into owned entries. `None` on any
/// malformation — wrong magic, wrong schema version, an entry count or
/// length that runs past the file, or trailing bytes. Entry contents are
/// verified on every probe ([`read_entry`]), not here. `seg` is the index
/// the mapping will occupy in [`SegmentIndex::maps`].
fn index_segment(bytes: &[u8], seg: u32) -> Option<Vec<(u64, SegRef)>> {
    // Entry ranges are `u32`s; no segment this store writes comes close.
    u32::try_from(bytes.len()).ok()?;
    let rest = bytes.strip_prefix(SEGMENT_MAGIC)?;
    let (version, rest) = take_u32(rest)?;
    if version != SCHEMA_VERSION {
        return None;
    }
    let (count, mut rest) = take_u32(rest)?;
    // A forged count cannot reserve more entries than the file could hold.
    let mut entries = Vec::with_capacity((count as usize).min(rest.len() / (ENTRY_HEAD + SUM)));
    for _ in 0..count {
        let at = bytes.len() - rest.len();
        let (hash, r) = take_u64(rest)?;
        let (key_len, r) = take_u32(r)?;
        let (record_len, r) = take_u32(r)?;
        let tail = key_len as usize + record_len as usize + SUM;
        rest = r.get(tail..)?;
        entries.push((
            hash,
            SegRef {
                seg,
                entry: (at as u32, (ENTRY_HEAD + tail) as u32),
                dead: AtomicBool::new(false),
            },
        ));
    }
    if !rest.is_empty() {
        return None;
    }
    Some(entries)
}

/// Appends one segment entry for `key`: its hash, the lengths of its
/// canonical key and of the record, the canonical key, the
/// [`put_record`] record of `outcome`, and the [`checksum`] of all of
/// those bytes.
fn put_entry(out: &mut Vec<u8>, key: &CellKey, outcome: &Outcome) {
    let start = out.len();
    put_u64(out, key.hash);
    put_u32(out, key.canonical.len() as u32);
    put_u32(out, 0); // the record length
    out.extend_from_slice(key.canonical.as_bytes());
    put_sealed_record(out, start, start + 12, outcome);
}

/// Appends `outcome`'s [`put_record`] record, writes its length into the
/// `u32` at `len_at`, and appends the [`checksum`] of every byte from
/// `start` on: the tail of both a segment entry and a row.
fn put_sealed_record(out: &mut Vec<u8>, start: usize, len_at: usize, outcome: &Outcome) {
    let record_at = out.len();
    put_record(out, outcome);
    let record_len = (out.len() - record_at) as u32;
    out[len_at..len_at + 4].copy_from_slice(&record_len.to_le_bytes());
    let sum = checksum(&out[start..]);
    put_u64(out, sum);
}

/// The outcome a framed segment entry (see [`index_segment`]) holds for
/// `key`. `None` unless its canonical key is `key`'s, its checksum
/// matches its bytes, and its record decodes.
fn read_entry(entry: &[u8], key: &CellKey) -> Option<Outcome> {
    let (body, sum) = entry.split_at_checked(entry.len().checked_sub(SUM)?)?;
    let (_, head) = take_u64(body)?;
    let (key_len, head) = take_u32(head)?;
    let (_, rest) = take_u32(head)?;
    let (canonical, record) = rest.split_at_checked(key_len as usize)?;
    if canonical != key.canonical.as_bytes() || checksum(body) != take_u64(sum)?.0 {
        return None;
    }
    take_record(record)
}

/// Little-endian `u32` writer for the binary wire/disk formats (segment
/// files and the [`put_rows`] section here, shard artifact headers in
/// [`crate::engine`]).
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Little-endian `u64` writer for the binary wire/disk formats.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian `u32` off the front of `bytes`.
pub fn take_u32(bytes: &[u8]) -> Option<(u32, &[u8])> {
    let (head, rest) = bytes.split_first_chunk::<4>()?;
    Some((u32::from_le_bytes(*head), rest))
}

/// Reads a little-endian `u64` off the front of `bytes`.
pub fn take_u64(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let (head, rest) = bytes.split_first_chunk::<8>()?;
    Some((u64::from_le_bytes(*head), rest))
}

/// Reads a `len`-byte UTF-8 string off the front of `bytes`.
pub fn take_str(bytes: &[u8], len: usize) -> Option<(&str, &[u8])> {
    let (head, rest) = bytes.split_at_checked(len)?;
    Some((std::str::from_utf8(head).ok()?, rest))
}

/// The 64-bit checksum that ends every segment entry and every row:
/// `bytes` folded a little-endian word at a time (the last word
/// zero-padded) through a multiply–xorshift step, starting from the
/// length. Each step is a bijection of the running state, so two inputs
/// of one length that differ only inside one aligned 8-byte word — a
/// flipped byte, say — always check differently. Like [`fnv1a`], the
/// algorithm is pinned here: stored checksums must not change with the
/// toolchain.
pub fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64| {
        let h = h.wrapping_mul(K);
        h ^ (h >> 32)
    };
    let (words, tail) = bytes.as_chunks::<8>();
    let mut h = step(bytes.len() as u64 ^ K);
    for word in words {
        h = step(h ^ u64::from_le_bytes(*word));
    }
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = step(h ^ u64::from_le_bytes(last));
    }
    h
}

/// Appends the `(case index, outcome)` row section — the one row
/// encoding shared by binary shard artifacts and fabric `rows` frames: a
/// `u32` row count, then per row a `u64` case index, the `u32` length of
/// its record, the [`put_record`] record, and the [`checksum`] of the
/// row's bytes before it. Allocates nothing beyond `out`'s growth.
pub fn put_rows<'a, I>(out: &mut Vec<u8>, rows: I)
where
    I: IntoIterator<Item = (usize, &'a Outcome)>,
    I::IntoIter: ExactSizeIterator,
{
    let rows = rows.into_iter();
    put_u32(out, rows.len() as u32);
    for (index, outcome) in rows {
        let start = out.len();
        put_u64(out, index as u64);
        put_u32(out, 0); // the record length
        put_sealed_record(out, start, start + 8, outcome);
    }
}

/// Bytes of one row's framing: its `u64` index and `u32` record length.
const ROW_HEAD: usize = 12;

/// Decodes a [`put_rows`] section that runs to the end of `bytes`.
/// Truncation, a checksum mismatch, an undecodable record, or trailing
/// bytes refuse the whole section, never panic.
pub fn take_rows(bytes: &[u8]) -> Result<Vec<(usize, Outcome)>, String> {
    let trunc = || "truncated row section".to_string();
    let (count, mut rest) = take_u32(bytes).ok_or_else(trunc)?;
    // A forged count cannot reserve more rows than the input could hold.
    let mut rows = Vec::with_capacity((count as usize).min(rest.len() / (ROW_HEAD + SUM)));
    for _ in 0..count {
        let (index, r) = take_u64(rest).ok_or_else(trunc)?;
        let (len, r) = take_u32(r).ok_or_else(trunc)?;
        let (record, r) = r.split_at_checked(len as usize).ok_or_else(trunc)?;
        let (sum, r) = take_u64(r).ok_or_else(trunc)?;
        let row = &rest[..ROW_HEAD + record.len()];
        if checksum(row) != sum {
            return Err(format!("row checksum mismatch for case {index}"));
        }
        let outcome = take_record(record)
            .ok_or_else(|| format!("undecodable row record for case {index}"))?;
        rows.push((index as usize, outcome));
        rest = r;
    }
    if !rest.is_empty() {
        return Err("trailing bytes after the row section".to_string());
    }
    Ok(rows)
}

/// Record tag of an `ok` outcome without a simulation block.
const TAG_OK: u8 = 0;
/// Record tag of an `ok` outcome with a simulation block.
const TAG_OK_SIM: u8 = 1;
/// Record tag of a scheduling error.
const TAG_ERR: u8 = 2;
/// Bytes of an `ok` record after its tag: three integers and four floats.
const OK_FIELDS: usize = 7 * 8;
/// Bytes of a simulation block: two integers, a float and two flags.
const SIM_FIELDS: usize = 3 * 8 + 2;

/// Appends `outcome` as one binary record, the payload of segment
/// entries and rows. Little-endian, fixed-width per kind:
///
/// - `ok`: tag `0`; `makespan`, `blocks`, `buffer_elements` as `u64`s;
///   `speedup`, `sslr`, `slr`, `utilization` as their `f64::to_bits` —
///   57 bytes;
/// - `ok` with a simulation: tag `1`, the same fields, then the sim block:
///   `makespan`, `beats` and the `rel_err_pct` bits as `u64`s, then
///   `completed` and `diverged` as one byte each (0 or 1) — 83 bytes;
/// - a scheduling error: tag `2`, then its [`error_code`].
///
/// Floats are stored as bits, so every value (NaN payloads included)
/// round-trips exactly. Wall-clocks are never stored. Any change here
/// must bump [`SCHEMA_VERSION`].
pub fn put_record(out: &mut Vec<u8>, outcome: &Outcome) {
    match outcome {
        Ok(r) => {
            let m = &r.metrics;
            out.push(if r.sim.is_some() { TAG_OK_SIM } else { TAG_OK });
            for v in [
                m.makespan,
                m.blocks as u64,
                r.buffer_elements,
                m.speedup.to_bits(),
                m.sslr.to_bits(),
                m.slr.to_bits(),
                m.utilization.to_bits(),
            ] {
                put_u64(out, v);
            }
            if let Some(s) = &r.sim {
                for v in [s.makespan, s.beats, s.rel_err_pct.to_bits()] {
                    put_u64(out, v);
                }
                out.extend_from_slice(&[u8::from(s.completed), u8::from(s.diverged)]);
            }
        }
        Err(e) => {
            out.push(TAG_ERR);
            out.extend_from_slice(error_code(e).as_bytes());
        }
    }
}

/// Decodes one whole [`put_record`] record. `None` on any malformation:
/// an unknown tag, a length that does not match the tag, a flag other
/// than 0 or 1, or an unknown error code.
pub fn take_record(bytes: &[u8]) -> Option<Outcome> {
    let (&tag, body) = bytes.split_first()?;
    let sim = match tag {
        TAG_OK => false,
        TAG_OK_SIM => true,
        TAG_ERR => {
            let code = std::str::from_utf8(body).ok()?;
            return parse_error_code(code).map(Err);
        }
        _ => return None,
    };
    let expect = OK_FIELDS + if sim { SIM_FIELDS } else { 0 };
    if body.len() != expect {
        return None;
    }
    let (words, flags) = body.as_chunks::<8>();
    let word = |i: usize| u64::from_le_bytes(words[i]);
    let flag = |i: usize| match flags[i] {
        0 => Some(false),
        1 => Some(true),
        _ => None,
    };
    let metrics = stg_sched::Metrics {
        makespan: word(0),
        blocks: usize::try_from(word(1)).ok()?,
        speedup: f64::from_bits(word(3)),
        sslr: f64::from_bits(word(4)),
        slr: f64::from_bits(word(5)),
        utilization: f64::from_bits(word(6)),
    };
    let sim = if sim {
        Some(SimRecord {
            completed: flag(0)?,
            makespan: word(7),
            rel_err_pct: f64::from_bits(word(9)),
            beats: word(8),
            diverged: flag(1)?,
            // Wall-clocks are never stored: a cached cell reports no
            // timing, by design.
            micros: SimMicros::default(),
        })
    } else {
        None
    };
    Some(Ok(Record {
        metrics,
        buffer_elements: word(2),
        sim,
    }))
}

/// Renders an outcome as one whitespace-separated text line, the
/// `"outcome"` member of the service's plan responses (floats in their
/// shortest round-trip form). No store or row format uses it.
pub fn encode_outcome(outcome: &Outcome) -> String {
    let mut out = String::new();
    encode_outcome_into(&mut out, outcome);
    out
}

/// [`encode_outcome`] appending into a caller-provided buffer (not
/// cleared first) — batch encoders reuse one buffer across rows instead
/// of allocating a line per cell. The appended bytes are identical to
/// [`encode_outcome`]'s.
pub fn encode_outcome_into(out: &mut String, outcome: &Outcome) {
    use std::fmt::Write as _;
    match outcome {
        Ok(r) => {
            let m = &r.metrics;
            write!(
                out,
                "ok {} {:?} {:?} {:?} {:?} {} {}",
                m.makespan, m.speedup, m.sslr, m.slr, m.utilization, m.blocks, r.buffer_elements
            )
            .expect("write to String");
            match &r.sim {
                Some(s) => write!(
                    out,
                    " sim {} {} {:?} {} {}",
                    s.completed as u8, s.makespan, s.rel_err_pct, s.beats, s.diverged as u8
                )
                .expect("write to String"),
                None => out.push_str(" nosim"),
            }
        }
        Err(e) => {
            write!(out, "err {}", error_code(e)).expect("write to String");
        }
    }
}

/// A short, comma- and space-free code for a scheduling error (CSV-safe,
/// store-safe). Round-trips through [`parse_error_code`].
pub fn error_code(e: &ScheduleError) -> String {
    use ScheduleError as E;
    match e {
        E::Cyclic => "cyclic".into(),
        E::Uncovered(v) => format!("uncovered({})", v.index()),
        E::Duplicated(v) => format!("duplicated({})", v.index()),
        E::NotSchedulable(v) => format!("not-schedulable({})", v.index()),
        E::EmptyBlock(b) => format!("empty-block({b})"),
        E::BlockOrderViolation { producer, consumer } => format!(
            "block-order-violation({}->{})",
            producer.index(),
            consumer.index()
        ),
    }
}

/// Parses an [`error_code`] string back into its [`ScheduleError`].
pub fn parse_error_code(s: &str) -> Option<ScheduleError> {
    if s == "cyclic" {
        return Some(ScheduleError::Cyclic);
    }
    let (name, args) = s.strip_suffix(')')?.split_once('(')?;
    let node = |a: &str| -> Option<NodeId> { Some(NodeId(a.parse().ok()?)) };
    match name {
        "uncovered" => Some(ScheduleError::Uncovered(node(args)?)),
        "duplicated" => Some(ScheduleError::Duplicated(node(args)?)),
        "not-schedulable" => Some(ScheduleError::NotSchedulable(node(args)?)),
        "empty-block" => Some(ScheduleError::EmptyBlock(args.parse().ok()?)),
        "block-order-violation" => {
            let (p, c) = args.split_once("->")?;
            Some(ScheduleError::BlockOrderViolation {
                producer: node(p)?,
                consumer: node(c)?,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ScopedJoinHandle;
    use stg_sched::Metrics;

    fn sample_record(sim: bool) -> Record {
        Record {
            metrics: Metrics {
                makespan: 645,
                speedup: 1.984_496_124_031_007_8,
                sslr: 2.471_264,
                slr: 0.503_906_25,
                utilization: 0.992_248,
                blocks: 3,
            },
            buffer_elements: 7,
            sim: sim.then_some(SimRecord {
                completed: true,
                makespan: 645,
                rel_err_pct: 0.015_625,
                beats: 2048,
                diverged: false,
                micros: SimMicros::default(),
            }),
        }
    }

    /// The [`put_record`] bytes of `outcome`.
    fn record(outcome: &Outcome) -> Vec<u8> {
        let mut out = Vec::new();
        put_record(&mut out, outcome);
        out
    }

    fn assert_round_trip(outcome: &Outcome) {
        let bytes = record(outcome);
        let back = take_record(&bytes).expect("decodes");
        // Re-encoding must reproduce the exact bytes (bit-exact floats).
        assert_eq!(record(&back), bytes);
        assert_eq!(encode_outcome(&back), encode_outcome(outcome));
    }

    #[test]
    fn outcomes_round_trip_bit_exactly() {
        assert_round_trip(&Ok(sample_record(false)));
        assert_round_trip(&Ok(sample_record(true)));
        assert_eq!(record(&Ok(sample_record(false))).len(), 1 + OK_FIELDS);
        assert_eq!(
            record(&Ok(sample_record(true))).len(),
            1 + OK_FIELDS + SIM_FIELDS
        );
        // Floats travel as bits: NaN payloads, infinities and -0.0 too.
        let mut odd = sample_record(true);
        odd.metrics.speedup = f64::from_bits(0x7ff8_0000_dead_beef);
        odd.metrics.sslr = f64::NEG_INFINITY;
        odd.metrics.slr = -0.0;
        odd.sim.as_mut().expect("validated").rel_err_pct = f64::MIN_POSITIVE / 3.0;
        assert_round_trip(&Ok(odd));
        for e in [
            ScheduleError::Cyclic,
            ScheduleError::Uncovered(NodeId(3)),
            ScheduleError::Duplicated(NodeId(12)),
            ScheduleError::NotSchedulable(NodeId(0)),
            ScheduleError::EmptyBlock(5),
            ScheduleError::BlockOrderViolation {
                producer: NodeId(9),
                consumer: NodeId(2),
            },
        ] {
            let bytes = record(&Err(e.clone()));
            assert_eq!(take_record(&bytes), Some(Err(e)));
        }
    }

    #[test]
    fn malformed_records_decode_to_none() {
        let ok = record(&Ok(sample_record(false)));
        let sim = record(&Ok(sample_record(true)));
        let with = |bytes: &[u8], at: usize, v: u8| {
            let mut b = bytes.to_vec();
            b[at] = v;
            b
        };
        let last = sim.len() - 1;
        for bad in [
            Vec::new(),
            vec![TAG_OK],
            // Lengths that do not match the tag.
            ok[..ok.len() - 1].to_vec(),
            [&ok[..], &[0]].concat(),
            with(&ok, 0, TAG_OK_SIM),
            with(&sim, 0, TAG_OK),
            // Flags other than 0 or 1.
            with(&sim, last - 1, 2),
            with(&sim, last, 0xff),
            // Unknown tags and error codes.
            with(&ok, 0, 3),
            with(&ok, 0, b'o'),
            vec![TAG_ERR],
            [&[TAG_ERR][..], b"unknown-code"].concat(),
            [&[TAG_ERR][..], b"uncovered(x)"].concat(),
            [&[TAG_ERR][..], &[0xff, 0xfe]].concat(),
            b"ok 1 2.0 3.0 4.0 5.0 6 7 nosim".to_vec(),
        ] {
            assert_eq!(take_record(&bad), None, "{bad:?}");
        }
    }

    #[test]
    fn cell_key_components_all_change_the_hash() {
        let base = CellKey::new(SCHEMA_VERSION, "chain:8", 7, 4, "sb-lts", "off");
        let variants = [
            CellKey::new(SCHEMA_VERSION + 1, "chain:8", 7, 4, "sb-lts", "off"),
            CellKey::new(SCHEMA_VERSION, "chain:9", 7, 4, "sb-lts", "off"),
            CellKey::new(SCHEMA_VERSION, "chain:8", 8, 4, "sb-lts", "off"),
            CellKey::new(SCHEMA_VERSION, "chain:8", 7, 8, "sb-lts", "off"),
            CellKey::new(SCHEMA_VERSION, "chain:8", 7, 4, "sb-rlx", "off"),
            CellKey::new(SCHEMA_VERSION, "chain:8", 7, 4, "sb-lts", "reference"),
        ];
        for v in &variants {
            assert_ne!(v.canonical(), base.canonical());
            assert_ne!(v.hash(), base.hash());
        }
        // Identical components reproduce the identical key.
        let again = CellKey::new(SCHEMA_VERSION, "chain:8", 7, 4, "sb-lts", "off");
        assert_eq!(again, base);
        assert_eq!(again.hash(), base.hash());
    }

    #[test]
    fn memory_store_hits_after_insert_and_counts() {
        let store = ResultStore::in_memory();
        let key = CellKey::new(SCHEMA_VERSION, "chain:8", 1, 2, "sb-lts", "off");
        assert_eq!(store.lookup(&key), None);
        store.insert_batched(&key, &Ok(sample_record(true)));
        assert_eq!(store.lookup(&key), Some(Ok(sample_record(true))));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 1, 0));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn semantic_lookups_count_repaired_not_hits() {
        let store = ResultStore::in_memory();
        let sem = CellKey::semantic(SCHEMA_VERSION, 0xfeed_beef, 4, "sb-lts", "off");
        // A semantic probe that finds nothing counts nowhere.
        assert_eq!(store.lookup_repaired(&sem), None);
        assert_eq!(store.stats(), StoreStats::default());
        store.insert_batched(&sem, &Ok(sample_record(false)));
        assert_eq!(store.lookup_repaired(&sem), Some(Ok(sample_record(false))));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.repaired), (0, 0, 1));
        // Nominal lookups never see semantic keys and vice versa: the
        // `sem:` prefix and pinned seed keep the canonical strings apart.
        let nominal = CellKey::new(
            SCHEMA_VERSION,
            "sem:00000000feedbeef",
            0,
            4,
            "sb-lts",
            "off",
        );
        assert_eq!(nominal.canonical(), sem.canonical());
        assert_ne!(
            CellKey::new(SCHEMA_VERSION, "chain:8", 0, 4, "sb-lts", "off").hash(),
            sem.hash()
        );
    }

    /// One key of a single-flight table under test: a semantic key of a
    /// store, or a typed key of a [`SemanticTable`]. The contract tests
    /// below run against both.
    trait Flights: Sync {
        fn evaluate_once(&self, eval: impl FnOnce() -> Outcome) -> (Outcome, bool);
        /// Blocks until `waiter` has joined the key's flight, or has
        /// returned without joining it.
        fn await_waiter<T>(&self, waiter: &ScopedJoinHandle<'_, T>);
    }

    impl Flights for (&ResultStore, &CellKey) {
        fn evaluate_once(&self, eval: impl FnOnce() -> Outcome) -> (Outcome, bool) {
            let (outcome, fresh) = self.0.evaluate_once(self.1, eval);
            (outcome, fresh.is_none())
        }

        /// The in-flight table, the owner and this probe hold one
        /// reference to the flight each; the waiter holds the fourth.
        fn await_waiter<T>(&self, waiter: &ScopedJoinHandle<'_, T>) {
            let flight = Arc::clone(&self.0.inflight.lock().expect("in-flight table lock")[self.1]);
            while Arc::strong_count(&flight) < 4 && !waiter.is_finished() {
                std::thread::yield_now();
            }
        }
    }

    impl Flights for (&SemanticTable, SemanticKey) {
        fn evaluate_once(&self, eval: impl FnOnce() -> Outcome) -> (Outcome, bool) {
            self.0.evaluate_once(self.1, eval)
        }

        /// A table never drops a claimed key, so the waiter joins the
        /// owner's slot whenever it arrives, and the contract's
        /// assertions hold at any arrival time. Nothing shows a thread
        /// blocked inside `get_or_init`, so this pause only makes the
        /// blocked path the one a run exercises.
        fn await_waiter<T>(&self, _waiter: &ScopedJoinHandle<'_, T>) {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    /// Holds a first caller inside `owner_eval` until a second caller,
    /// with `waiter_eval`, has joined its flight, then releases it.
    /// Returns the owner's thread result (it may panic) and the waiter's
    /// result.
    fn owner_and_waiter(
        flights: &impl Flights,
        owner_eval: impl FnOnce() -> Outcome + Send,
        waiter_eval: impl FnOnce() -> Outcome + Send,
    ) -> (std::thread::Result<(Outcome, bool)>, (Outcome, bool)) {
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let owner = s.spawn(move || {
                flights.evaluate_once(|| {
                    started_tx.send(()).expect("test thread alive");
                    release_rx.recv().expect("released by the test thread");
                    owner_eval()
                })
            });
            started_rx.recv().expect("owner started");
            let waiter = s.spawn(|| flights.evaluate_once(waiter_eval));
            flights.await_waiter(&waiter);
            assert!(
                !waiter.is_finished(),
                "the waiter blocks while the owner evaluates"
            );
            release_tx.send(()).expect("owner alive");
            (owner.join(), waiter.join().expect("the waiter returns"))
        })
    }

    fn concurrent_misses_evaluate_once(flights: &impl Flights) {
        let (owner, waiter) = owner_and_waiter(
            flights,
            || Ok(sample_record(true)),
            || panic!("a waiter must not evaluate"),
        );
        let owned = owner.expect("the owner evaluates");
        assert_eq!(owned, (Ok(sample_record(true)), false));
        assert_eq!(waiter, (owned.0, true));
        // The outcome stays: a later caller takes it without evaluating.
        let again = flights.evaluate_once(|| panic!("stored, not evaluated"));
        assert_eq!(again, (Ok(sample_record(true)), true));
    }

    fn waiter_evaluates_after_the_owner_unwinds(flights: &impl Flights) {
        let (owner, waiter) = owner_and_waiter(
            flights,
            || panic!("the owner's evaluation fails"),
            || Err(ScheduleError::Cyclic),
        );
        assert!(owner.is_err(), "the owner panicked");
        // The key stayed empty, so the waiter evaluated it.
        assert_eq!(waiter, (Err(ScheduleError::Cyclic), false));
        let again = flights.evaluate_once(|| panic!("stored, not evaluated"));
        assert_eq!(again, (Err(ScheduleError::Cyclic), true));
    }

    #[test]
    fn concurrent_misses_on_one_semantic_key_evaluate_once() {
        let store = ResultStore::in_memory();
        let sem = CellKey::semantic(SCHEMA_VERSION, 0x5eed_f117, 4, "sb-lts", "off");
        concurrent_misses_evaluate_once(&(&store, &sem));
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.repaired), (0, 0, 2));
        assert!(store
            .inflight
            .lock()
            .expect("in-flight table lock")
            .is_empty());
        let table = SemanticTable::with_capacity(1);
        concurrent_misses_evaluate_once(&(&table, table_key(0x5eed_f117)));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn a_waiter_evaluates_when_the_owner_unwinds() {
        let store = ResultStore::in_memory();
        let sem = CellKey::semantic(SCHEMA_VERSION, 0x5eed_f118, 4, "sb-lts", "off");
        waiter_evaluates_after_the_owner_unwinds(&(&store, &sem));
        assert_eq!(store.stats().repaired, 1);
        assert!(store
            .inflight
            .lock()
            .expect("in-flight table lock")
            .is_empty());
        let table = SemanticTable::with_capacity(1);
        waiter_evaluates_after_the_owner_unwinds(&(&table, table_key(0x5eed_f118)));
        assert_eq!(table.len(), 1);
    }

    fn table_key(fingerprint: u64) -> SemanticKey {
        SemanticKey {
            fingerprint,
            pes: 4,
            scheduler: SchedulerKind::StreamingLts,
            sim: None,
        }
    }

    #[test]
    fn a_full_table_evaluates_without_reuse() {
        let table = SemanticTable::with_capacity(1);
        let first = table.evaluate_once(table_key(1), || Ok(sample_record(false)));
        assert_eq!(first, (Ok(sample_record(false)), false));
        // Past capacity a new key is evaluated every time; claimed keys
        // are still served.
        for _ in 0..2 {
            let other = table.evaluate_once(table_key(2), || Err(ScheduleError::Cyclic));
            assert_eq!(other, (Err(ScheduleError::Cyclic), false));
        }
        let again = table.evaluate_once(table_key(1), || panic!("claimed, not evaluated"));
        assert_eq!(again, (Ok(sample_record(false)), true));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn slots_are_allocated_for_claimed_keys_only() {
        let table = SemanticTable::with_capacity(72_000);
        assert_eq!(table.allocated(), 0);
        for fingerprint in 0..300 {
            let _ = table.evaluate_once(table_key(fingerprint), || Ok(sample_record(false)));
        }
        // 300 keys claim two chunks, not 72,000 slots.
        assert_eq!(table.len(), 300);
        assert_eq!(table.allocated(), 2 * SLOT_CHUNK);
        for fingerprint in 0..300 {
            let again = table.evaluate_once(table_key(fingerprint), || panic!("claimed"));
            assert!(again.1, "key {fingerprint} is served from its slot");
        }
        // A short last chunk is sized to the capacity.
        let small = SemanticTable::with_capacity(SLOT_CHUNK + 3);
        for fingerprint in 0..SLOT_CHUNK as u64 + 5 {
            let _ = small.evaluate_once(table_key(fingerprint), || Ok(sample_record(false)));
        }
        assert_eq!(small.len(), SLOT_CHUNK + 3);
        assert_eq!(small.allocated(), SLOT_CHUNK + 3);
    }

    #[test]
    fn handed_over_outcomes_carry_no_wall_clock() {
        let table = SemanticTable::with_capacity(1);
        let mut timed = sample_record(true);
        timed.sim.as_mut().expect("validated").micros.batched = Some(42);
        let owned = table.evaluate_once(table_key(3), || Ok(timed.clone()));
        assert_eq!(
            owned,
            (Ok(timed), false),
            "the evaluating caller keeps its timing"
        );
        let handed = table.evaluate_once(table_key(3), || panic!("claimed, not evaluated"));
        assert_eq!(handed, (Ok(sample_record(true)), true));
    }

    #[test]
    fn rows_section_round_trips_and_rejects_malformed_input() {
        let rows: Vec<(usize, Outcome)> = vec![
            (3, Ok(sample_record(true))),
            (4, Err(ScheduleError::Cyclic)),
            (9, Ok(sample_record(false))),
        ];
        let mut bytes = Vec::new();
        put_rows(&mut bytes, rows.iter().map(|(i, o)| (*i, o)));
        assert_eq!(take_rows(&bytes), Ok(rows));
        // Every strict prefix is truncated, one more byte is trailing
        // junk, and a forged count larger than the input is rejected
        // without reserving for it.
        for len in 0..bytes.len() {
            assert!(take_rows(&bytes[..len]).is_err(), "prefix {len}");
        }
        // Every single-bit flip is refused: the count and lengths by the
        // framing, everything else by the row's checksum.
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                assert!(take_rows(&flipped).is_err(), "byte {at} bit {bit}");
            }
        }
        bytes.push(0);
        assert!(take_rows(&bytes).is_err());
        assert!(take_rows(&u32::MAX.to_le_bytes()).is_err());
        // An empty section is a count of zero and nothing else.
        let mut empty = Vec::new();
        put_rows(&mut empty, std::iter::empty());
        assert_eq!(empty, 0u32.to_le_bytes());
        assert_eq!(take_rows(&empty), Ok(Vec::new()));
    }

    #[test]
    fn batched_inserts_round_trip_through_segment_files() {
        let dir = std::env::temp_dir().join(format!(
            "stg-store-unit-{}-{:x}",
            std::process::id(),
            fnv1a(b"batched_segments")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let keys: Vec<CellKey> = (0..5)
            .map(|i| CellKey::new(SCHEMA_VERSION, "chain:8", i, 4, "sb-lts", "off"))
            .collect();
        {
            let store = ResultStore::at_dir(&dir).expect("create cache dir");
            for k in &keys {
                store.insert_batched(k, &Ok(sample_record(true)));
            }
            // Entries hit in-memory before any flush happened.
            assert_eq!(store.lookup(&keys[0]), Some(Ok(sample_record(true))));
            // Drop flushes the pending batch into a segment.
        }
        let files: Vec<String> = std::fs::read_dir(&dir)
            .expect("read dir")
            .flatten()
            .map(|d| d.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files.len(), 1, "one segment file, nothing else: {files:?}");
        assert!(files[0].starts_with("seg-") && files[0].ends_with(".cells"));
        // A fresh store folds the segment in and serves every key.
        let store = ResultStore::at_dir(&dir).expect("open cache dir");
        for k in &keys {
            assert_eq!(store.lookup(k), Some(Ok(sample_record(true))), "{k:?}");
        }
        assert_eq!(store.stats().hits, 5);
        // lookup_many agrees, preserves alignment, and passes None through.
        let slots = vec![
            Some(keys[2].clone()),
            None,
            Some(keys[4].clone()),
            Some(CellKey::new(
                SCHEMA_VERSION,
                "absent",
                0,
                1,
                "sb-lts",
                "off",
            )),
        ];
        let got = store.lookup_many(&slots, 3);
        assert_eq!(got.len(), 4);
        assert_eq!(got[0], Some(Ok(sample_record(true))));
        assert_eq!(got[1], None);
        assert_eq!(got[2], Some(Ok(sample_record(true))));
        assert_eq!(got[3], None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unparseable_segment_is_evicted_whole() {
        let dir = std::env::temp_dir().join(format!(
            "stg-store-unit-{}-{:x}",
            std::process::id(),
            fnv1a(b"segment_eviction")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        // A truncated segment: valid magic, then garbage.
        std::fs::write(dir.join("seg-00000000deadbeef.cells"), b"STGCELLS\x01").expect("write");
        // A foreign file that merely shares the extension.
        std::fs::write(dir.join("seg-0000000000000bad.cells"), b"not a segment").expect("write");
        let store = ResultStore::at_dir(&dir).expect("open cache dir");
        let key = CellKey::new(SCHEMA_VERSION, "chain:8", 0, 2, "sb-lts", "off");
        assert_eq!(store.lookup(&key), None);
        assert_eq!(store.stats().evicted, 2);
        assert!(!dir.join("seg-00000000deadbeef.cells").exists());
        assert!(!dir.join("seg-0000000000000bad.cells").exists());
        // Stale-schema segments evict the same way: re-encode a valid
        // segment under a different version.
        {
            let writer = ResultStore::at_dir(&dir).expect("open cache dir");
            writer.insert_batched(&key, &Ok(sample_record(false)));
            writer.flush();
        }
        let seg = segment_in(&dir);
        let mut bytes = std::fs::read(&seg).expect("read segment");
        bytes[SEGMENT_MAGIC.len()] ^= 0xff; // flip the version field
        std::fs::write(&seg, &bytes).expect("rewrite segment");
        let store = ResultStore::at_dir(&dir).expect("open cache dir");
        assert_eq!(store.lookup(&key), None);
        assert_eq!(store.stats().evicted, 1);
        assert!(!seg.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The first segment file in `dir`.
    fn segment_in(dir: &Path) -> PathBuf {
        std::fs::read_dir(dir)
            .expect("read dir")
            .flatten()
            .map(|d| d.path())
            .find(|p| p.extension().is_some_and(|e| e == "cells"))
            .expect("segment written")
    }

    #[test]
    fn crash_leftovers_heal_without_breaking_lookups() {
        let dir = std::env::temp_dir().join(format!(
            "stg-store-unit-{}-{:x}",
            std::process::id(),
            fnv1a(b"crash_simulation")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let key = CellKey::new(SCHEMA_VERSION, "fft:4", 9, 2, "sb-lts", "off");
        {
            let writer = ResultStore::at_dir(&dir).expect("open cache dir");
            writer.insert_batched(&key, &Ok(sample_record(false)));
        }
        let seg = segment_in(&dir);
        let bytes = std::fs::read(&seg).expect("read segment");
        // Simulate a crash mid-write: an orphaned temp file (never
        // renamed) plus a truncated segment (as if the rename landed but
        // a non-atomic writer died — the worst case the atomic protocol is
        // designed to rule out).
        let orphan = dir.join(format!(
            ".{}.12345.0.tmp",
            seg.file_name().unwrap().to_string_lossy()
        ));
        std::fs::write(&orphan, &bytes[..bytes.len() / 3]).expect("orphan tmp");
        std::fs::write(&seg, &bytes[..bytes.len() - 1]).expect("truncate segment");
        let store = ResultStore::at_dir(&dir).expect("open cache dir");
        // The truncated segment fails to parse -> evicted whole.
        assert_eq!(store.lookup(&key), None);
        let s = store.stats();
        assert_eq!((s.misses, s.evicted), (1, 1));
        assert!(!seg.exists(), "truncated segment deleted");
        // Re-inserting heals; the orphan tmp never matches any lookup.
        store.insert_batched(&key, &Ok(sample_record(false)));
        store.flush();
        assert_eq!(store.lookup(&key), Some(Ok(sample_record(false))));
        let reopened = ResultStore::at_dir(&dir).expect("open cache dir");
        assert_eq!(reopened.lookup(&key), Some(Ok(sample_record(false))));
        assert_eq!(reopened.stats().evicted, 0);
        assert!(
            orphan.exists(),
            "temp files are never read, so never evicted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The owned-buffer fallback (non-Linux platforms, failed maps) sees
    /// exactly the bytes and index the mapping does.
    #[cfg(target_os = "linux")]
    #[test]
    fn mapped_and_owned_reads_index_identically() {
        let dir = std::env::temp_dir().join(format!(
            "stg-store-unit-{}-{:x}",
            std::process::id(),
            fnv1a(b"mapped_vs_owned")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let writer = ResultStore::at_dir(&dir).expect("open cache dir");
            for seed in 0..8 {
                let key = CellKey::new(SCHEMA_VERSION, "chain:8", seed, 4, "sb-lts", "off");
                writer.insert_batched(&key, &Ok(sample_record(seed % 2 == 0)));
            }
        }
        let seg = segment_in(&dir);
        let mapped = Mapping::map_file(&seg).expect("map segment");
        assert!(matches!(mapped, Mapping::Mapped { .. }));
        let owned = Mapping::Owned(std::fs::read(&seg).expect("read segment"));
        assert_eq!(mapped.bytes(), owned.bytes());
        let ranges = |m: &Mapping| {
            index_segment(m.bytes(), 0)
                .expect("segment parses")
                .into_iter()
                .map(|(hash, r)| (hash, r.seg, r.entry))
                .collect::<Vec<_>>()
        };
        assert_eq!(ranges(&mapped).len(), 8);
        assert_eq!(ranges(&mapped), ranges(&owned));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
