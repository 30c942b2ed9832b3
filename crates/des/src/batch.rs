//! The beat-batched fast-path simulator.
//!
//! [`BatchedSim`] executes the same synchronous cycle semantics as the
//! reference simulator (see the `sim` module docs) but replaces the global
//! per-beat event heap with two constant-time work buckets — almost every
//! wake-up lands in the *current* or the *next* cycle; the rare `t + 2`
//! block-activation wakes go through a small spill heap — skips the
//! fruitless counterparty wakes the reference keeps, and coalesces
//! steady-state streaming intervals into **batched epochs**:
//!
//! 1. While stepping cycle by cycle, it records an order-independent
//!    signature of each cycle's committed beats — the process, direction
//!    and batch phase of each — and runs a **general cycle detector**
//!    over the signature stream: the last occurrence of the current
//!    signature and of the current signature *pair* (bigram) each
//!    propose a candidate period `P` (their occurrence distance). Any
//!    steady period up to [`MAX_PERIOD`] is proposed this way — not just
//!    the `m · 2^k` family a fixed candidate ladder can enumerate. The
//!    batch phase keeps a mid-batch upsampler, which commits the same
//!    beats cycle after cycle, from proposing a 1- or 2-cycle period
//!    that its pending batch counts would refute.
//! 2. A proposal opens a verification window at once, unless its period
//!    is cooling down after a refutation: it snapshots the active
//!    block's processes and edges (nothing else can move before a clean
//!    window closes) into a reused struct-of-arrays arena and steps `P`
//!    further cycles normally. No scan confirms the proposal first; the
//!    window is verified when it closes. It must be clean of structural
//!    boundaries (memory delivery, buffer-gate opening, task completion,
//!    block activation), an O(P) ring scan must show its `P` cycles
//!    replaying the `P` before them, and the resulting state must be a
//!    *uniform shift* of the snapshot — identical FIFO occupancies and
//!    batch phases, monotone counters advanced by fixed per-period
//!    deltas, pending batches shifted by exactly `P` cycles. Then by
//!    determinism and time-translation invariance the next periods
//!    replay the recorded one exactly.
//! 3. It advances the clock by `n · P` cycles in O(processes + edges) of
//!    the active block, where `n` is the largest period count for which
//!    every monotone counter keeps a safety margin: consume/emit counts
//!    stay positive (no completion fires inside the epoch), memory writes
//!    stay strictly below their delivery volume, and gated replays stay
//!    within bounds.
//!    Stalls, back-pressure boundaries, rate-change transients, and task
//!    or block boundaries are therefore always executed by per-beat
//!    stepping — only provably-replaying steady intervals are skipped.
//!
//! The epoch leap is exact, not approximate: a wrong or non-minimal
//! proposal is rejected by the ring scan and the uniform-shift
//! verification, costing time but never exactness, and leaping a
//! *multiple* of the true period is still a uniform shift. (A steady
//! state whose signature stream repeats no unigram or bigram at
//! period distance — possible only for contrived de-Bruijn-like beat
//! patterns — simply never leaps and runs per-beat.) The differential
//! proptest suite and the golden-snapshot sweep fixture assert
//! bit-identical results (makespan, first-out/completion/busy times,
//! beat counts, and peak FIFO occupancies) against [`crate::ReferenceSim`]
//! across every registered workload × scheduler cell.
//!
//! All working storage — wake buckets, detector ring and occurrence
//! maps, and the snapshot arena — lives in a thread-local [`Scratch`]
//! reused across simulations, so sweeping millions of small cells does
//! not pay a per-simulation allocation storm.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use stg_analysis::Schedule;
use stg_graph::EdgeId;
use stg_model::CanonicalGraph;

use crate::sim::{
    mix, Chan, Pending, SimConfig, SimFailure, SimResult, SimState, Simulator, Waker,
};
use crate::SimKind;

/// The beat-batched simulator: per-cycle work buckets plus steady-state
/// epoch leaping. Produces bit-identical results to [`crate::ReferenceSim`].
pub struct BatchedSim;

/// Signature ring capacity. The scan that closes a period-`P` window
/// reads `2 · P` trailing entries, so the ring must hold at least `2 · MAX_PERIOD`
/// live cycles.
const RING: usize = 16384;

/// The largest steady period the detector will propose and leap.
/// Longer periods fall back to per-beat stepping (which only costs
/// time, never exactness).
const MAX_PERIOD: u64 = 8191;

/// Occurrence-map size bound: the signature and bigram maps are cleared
/// when they outgrow this, so pathological non-repeating workloads
/// cannot grow them without bound. Clearing only forgets proposal
/// opportunities — never correctness.
const MAP_CAP: usize = 32_768;

/// Cumulative [`BatchedSim`] telemetry for the current thread (runs,
/// their epoch leaps, and the work the simulator did to find them),
/// accumulated across runs until collected with [`take_leap_telemetry`].
/// A pure observability side channel for perfbench and tests: it never
/// feeds back into simulation results.
///
/// The work counts are deterministic: a simulation's inputs fix them, so
/// they do not drift with host speed or thread count, and a change that
/// makes the simulator cheaper per unit of work leaves them unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LeapStats {
    /// Batched simulations run.
    pub sims: u64,
    /// Successful epoch leaps applied.
    pub leaps: u64,
    /// Total simulated cycles skipped by leaping (`Σ n · P`).
    pub leaped_cycles: u64,
    /// The largest single period `P` ever leaped.
    pub max_period: u64,
    /// Cycles executed one by one (every cycle not leaped over).
    pub stepped_cycles: u64,
    /// Process steps: beat attempts of one process in one cycle.
    pub process_steps: u64,
    /// Verification windows opened on a proposed period.
    pub windows_opened: u64,
    /// Windows that closed dirtied by a structural boundary.
    pub windows_dirtied: u64,
    /// Clean windows whose closing ring scan found no repeated period.
    pub windows_scan_failed: u64,
    /// Windows that passed the ring scan but that the uniform-shift check
    /// or the safety margins rejected.
    pub windows_rejected: u64,
}

impl LeapStats {
    /// Folds another sample into this one: counters add, the maximum
    /// period takes the larger value. The sweep engine uses this to
    /// aggregate per-case telemetry (collected on its worker threads)
    /// into one per-sweep block.
    pub fn absorb(&mut self, other: LeapStats) {
        self.sims += other.sims;
        self.leaps += other.leaps;
        self.leaped_cycles += other.leaped_cycles;
        self.max_period = self.max_period.max(other.max_period);
        self.stepped_cycles += other.stepped_cycles;
        self.process_steps += other.process_steps;
        self.windows_opened += other.windows_opened;
        self.windows_dirtied += other.windows_dirtied;
        self.windows_scan_failed += other.windows_scan_failed;
        self.windows_rejected += other.windows_rejected;
    }
}

thread_local! {
    static TELEMETRY: Cell<LeapStats> = const {
        Cell::new(LeapStats {
            sims: 0,
            leaps: 0,
            leaped_cycles: 0,
            max_period: 0,
            stepped_cycles: 0,
            process_steps: 0,
            windows_opened: 0,
            windows_dirtied: 0,
            windows_scan_failed: 0,
            windows_rejected: 0,
        })
    };
}

/// Returns and resets this thread's accumulated [`LeapStats`].
pub fn take_leap_telemetry() -> LeapStats {
    TELEMETRY.with(|t| t.replace(LeapStats::default()))
}

/// The two-bucket wake queue: `cur` is drained to the per-cycle cascade
/// fixpoint (appends during the drain re-attempt processes within the same
/// cycle), `nxt` seeds the following cycle. Membership flags keep every
/// process at most once per bucket. The flat vectors are reused across
/// simulations via [`Scratch`].
struct Buckets {
    /// The cycle `cur` belongs to.
    t: u64,
    cur: Vec<u32>,
    nxt: Vec<u32>,
    in_cur: Vec<bool>,
    in_nxt: Vec<bool>,
    head: usize,
    /// Wakes beyond `t + 1` (block activations triggered by a pure
    /// consumer's `t + 1` completion). A handful per simulation.
    far: std::collections::BinaryHeap<std::cmp::Reverse<crate::Event>>,
}

impl Buckets {
    fn new() -> Buckets {
        Buckets {
            t: 0,
            cur: Vec::new(),
            nxt: Vec::new(),
            in_cur: Vec::new(),
            in_nxt: Vec::new(),
            head: 0,
            far: std::collections::BinaryHeap::new(),
        }
    }

    /// Prepares the reused buffers for a fresh simulation of `n_procs`
    /// processes.
    fn reset(&mut self, n_procs: usize) {
        self.t = 0;
        self.head = 0;
        self.cur.clear();
        self.nxt.clear();
        self.in_cur.clear();
        self.in_cur.resize(n_procs, false);
        self.in_nxt.clear();
        self.in_nxt.resize(n_procs, false);
        self.far.clear();
    }

    fn idle(&self) -> bool {
        self.nxt.is_empty() && self.far.is_empty()
    }

    /// Moves to the next cycle: the pending bucket becomes current and
    /// due spill-heap wakes join it.
    fn advance(&mut self) {
        debug_assert!(self.head >= self.cur.len(), "cycle fully drained");
        self.cur.clear();
        self.head = 0;
        std::mem::swap(&mut self.cur, &mut self.nxt);
        std::mem::swap(&mut self.in_cur, &mut self.in_nxt);
        self.t += 1;
        while let Some(&std::cmp::Reverse(ev)) = self.far.peek() {
            debug_assert!(ev.time > self.t - 1, "missed spill wake");
            if ev.time > self.t {
                break;
            }
            self.far.pop();
            if !self.in_cur[ev.pid as usize] {
                self.in_cur[ev.pid as usize] = true;
                self.cur.push(ev.pid);
            }
        }
    }

    /// Jumps the cycle clock forward by `dt` after an epoch leap. No
    /// wake may be pending beyond the next cycle (leaps end on cycles
    /// without structural events, which are the only source of spill
    /// wakes).
    fn leap(&mut self, dt: u64) {
        debug_assert!(self.far.is_empty(), "spill wake pending across a leap");
        self.t += dt;
    }
}

impl Waker for Buckets {
    const SKIP_FRUITLESS: bool = true;

    fn wake(&mut self, pid: u32, time: u64) {
        if time <= self.t {
            debug_assert_eq!(time, self.t, "wake in the past");
            if !self.in_cur[pid as usize] {
                self.in_cur[pid as usize] = true;
                self.cur.push(pid);
            }
        } else if time == self.t + 1 {
            if !self.in_nxt[pid as usize] {
                self.in_nxt[pid as usize] = true;
                self.nxt.push(pid);
            }
        } else {
            self.far.push(std::cmp::Reverse(crate::Event { time, pid }));
        }
    }
}

/// Per-process snapshot field offsets into [`SnapArena::proc`].
const SP_TO_CONSUME: usize = 0;
const SP_TO_EMIT: usize = 1;
const SP_IN_BATCH: usize = 2;
const SP_LAST_IN: usize = 3;
const SP_LAST_OUT: usize = 4;
const SP_BUSY: usize = 5;
const SP_STRIDE: usize = 6;

/// Per-edge snapshot field offsets into [`SnapArena::edge`].
const SE_LEN: usize = 0;
const SE_POPPED: usize = 1;
const SE_PUSHED: usize = 2;
const SE_STRIDE: usize = 3;

/// The verification-window snapshot as flat struct-of-arrays storage,
/// reused across windows and simulations. One snapshot is live at a
/// time (the open [`PendingVerify`] window owns it), so taking a new
/// one simply overwrites the arena. It covers one window group of the
/// state (see [`SimState::window_group`]): the processes and edges that
/// can change before the window closes.
struct SnapArena {
    t: u64,
    beats: u64,
    /// The window group the snapshot covers.
    group: usize,
    /// Monotone process counters, [`SP_STRIDE`] words per process of the
    /// group, in group order.
    proc: Vec<u64>,
    /// Each process's pending batches.
    pending: Vec<Pending>,
    /// Edge occupancy/counter words, [`SE_STRIDE`] words per edge of the
    /// group, in group order.
    edge: Vec<u64>,
}

impl SnapArena {
    fn new() -> SnapArena {
        SnapArena {
            t: 0,
            beats: 0,
            group: 0,
            proc: Vec::new(),
            pending: Vec::new(),
            edge: Vec::new(),
        }
    }

    /// Overwrites the arena with window group `group` of the current
    /// state at cycle `t`.
    fn take(&mut self, state: &SimState<'_>, group: usize, t: u64) {
        self.t = t;
        self.beats = state.beats;
        self.group = group;
        self.proc.clear();
        self.pending.clear();
        self.edge.clear();
        for &pid in state.window_procs(group) {
            let p = &state.procs[pid as usize];
            self.proc.extend_from_slice(&[
                p.to_consume,
                p.to_emit,
                p.in_batch,
                p.last_in,
                p.last_out,
                p.busy,
            ]);
            self.pending.push(p.pending);
        }
        for &e in state.window_edges(group) {
            let es = &state.edges[e as usize];
            self.edge
                .extend_from_slice(&[state.level[e as usize].len, es.popped, es.pushed]);
        }
    }

    #[inline]
    fn proc_fields(&self, i: usize) -> &[u64] {
        &self.proc[i * SP_STRIDE..(i + 1) * SP_STRIDE]
    }

    #[inline]
    fn proc_pending(&self, i: usize) -> &[(u64, u64)] {
        self.pending[i].as_slice()
    }

    #[inline]
    fn edge_fields(&self, i: usize) -> &[u64] {
        &self.edge[i * SE_STRIDE..(i + 1) * SE_STRIDE]
    }
}

/// An in-flight verification window for one proposed period.
struct PendingVerify {
    period: u64,
    /// Executed-cycle count at which the window opened (the snapshot
    /// cycle). Any structural boundary after this cycle dirties the
    /// window.
    opened: u64,
    /// Executed-cycle count at which the window closes.
    target: u64,
}

/// Hashes a `u64` key with one multiply. The signature and bigram keys
/// are already SplitMix-mixed, and the odd multiplier spreads small
/// period keys into the high bits the table probes on; SipHash's
/// flooding resistance buys nothing for simulator-internal keys.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A map from a signature, bigram or period to an executed cycle.
type CycleMap = HashMap<u64, u64, BuildHasherDefault<MulHasher>>;

/// General steady-period detection over the per-cycle signature stream.
///
/// Candidate periods are *proposed* by occurrence distance — how long
/// ago the current signature, and the current `(previous, current)`
/// signature bigram, last occurred. A proposal opens a verification
/// window at once (see [`Self::may_open`]); the window is verified when
/// it closes, by an O(P) ring scan showing its `P` cycles replay the
/// `P` before them, then by [`try_leap`]'s uniform-shift check. Bigram
/// proposals are what make the detector general: in a period-`P` steady
/// state where every signature value repeats *within* the period (e.g.
/// the stream `A A B B …` with period 4), unigram distances never equal
/// `P`, but some bigram occurs exactly once per period and its distance
/// is exactly `P`.
struct Detector {
    /// Trailing signatures, indexed by executed cycle modulo [`RING`].
    /// Never cleared between runs: every scan closes a window opened at
    /// `cycles >= P`, so it runs at `cycles >= 2 · P` and only reads
    /// entries written by the current run.
    ring: Vec<u64>,
    /// Executed cycle at which each signature value was last seen.
    last_seen: CycleMap,
    /// Executed cycle at which each signature bigram was last seen.
    last_pair: CycleMap,
    /// Per-period earliest executed cycle at which it may trigger again.
    cooldown: CycleMap,
    prev_sig: u64,
    /// Most recent executed cycle with a structural boundary.
    last_boundary: u64,
    pending: Option<PendingVerify>,
}

impl Detector {
    fn new() -> Detector {
        Detector {
            ring: vec![0; RING],
            last_seen: CycleMap::default(),
            last_pair: CycleMap::default(),
            cooldown: CycleMap::default(),
            prev_sig: 0,
            last_boundary: 0,
            pending: None,
        }
    }

    /// Prepares the detector for a fresh simulation. The occurrence and
    /// cooldown maps store absolute executed-cycle counts, which restart
    /// at zero — stale entries would propose nonsense (or underflow), so
    /// they are cleared; the ring needs no clearing (see [`Self::ring`]).
    fn reset(&mut self) {
        self.last_seen.clear();
        self.last_pair.clear();
        self.cooldown.clear();
        self.prev_sig = 0;
        self.last_boundary = 0;
        self.pending = None;
    }

    /// Records cycle `cycles`'s signature and returns up to two proposed
    /// candidate periods (unigram and bigram occurrence distances),
    /// smallest first.
    fn observe(&mut self, cycles: u64, sig: u64, boundary: bool) -> [Option<u64>; 2] {
        self.ring[(cycles % RING as u64) as usize] = sig;
        if boundary {
            self.last_boundary = cycles;
            // A boundary changes the execution regime: backoffs earned
            // against the previous regime are stale and would suppress
            // detection of the new block's (possibly identical) period.
            self.cooldown.clear();
        }
        let mut props = [None, None];
        if self.last_seen.len() >= MAP_CAP {
            self.last_seen.clear();
        }
        if let Some(last) = self.last_seen.insert(sig, cycles) {
            let p = cycles - last;
            if p <= MAX_PERIOD {
                props[0] = Some(p);
            }
        }
        if cycles > 1 {
            if self.last_pair.len() >= MAP_CAP {
                self.last_pair.clear();
            }
            let pair = mix(self.prev_sig ^ mix(sig));
            if let Some(last) = self.last_pair.insert(pair, cycles) {
                let p = cycles - last;
                if p <= MAX_PERIOD && props[0] != Some(p) {
                    props[1] = Some(p);
                }
            }
        }
        self.prev_sig = sig;
        if let (Some(a), Some(b)) = (props[0], props[1]) {
            if b < a {
                props.swap(0, 1);
            }
        }
        props
    }

    /// True if the `p` cycles ending at `cycles` replay the `p` cycles
    /// before them. O(p), early exit on the first mismatch.
    fn periodic(&self, cycles: u64, p: u64) -> bool {
        debug_assert!(cycles >= 2 * p, "scan would read unwritten ring entries");
        (0..p).all(|i| {
            self.ring[((cycles - i) % RING as u64) as usize]
                == self.ring[((cycles - p - i) % RING as u64) as usize]
        })
    }

    /// Whether a window may open on proposed period `p` at `cycles`: the
    /// ring will hold both periods the closing scan compares, and `p` is
    /// not cooling down. No scan runs first: the window is verified once,
    /// when it closes. Phase-aware beat signatures keep the false
    /// proposals that a scan here would have caught rare. Structural
    /// boundaries do not gate opening either: the signature ring is
    /// preserved across them, so a block transition costs at most the
    /// verification window it dirties, never a fresh boundary-free
    /// warm-up.
    fn may_open(&self, cycles: u64, p: u64) -> bool {
        cycles >= p && self.cooldown.get(&p).is_none_or(|&until| cycles >= until)
    }
}

/// All reusable working storage for one thread's [`BatchedSim`] runs.
/// The fields are disjoint so the driver can borrow the buckets (as the
/// [`Waker`]) independently of the detector and the snapshot arena.
struct Scratch {
    buckets: Buckets,
    detector: Detector,
    snap: SnapArena,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        buckets: Buckets::new(),
        detector: Detector::new(),
        snap: SnapArena::new(),
    });
}

impl Simulator for BatchedSim {
    fn kind(&self) -> SimKind {
        SimKind::Batched
    }

    fn simulate_with(
        &self,
        g: &CanonicalGraph,
        schedule: &Schedule,
        capacity_of: &dyn Fn(EdgeId) -> Option<u64>,
        config: SimConfig,
    ) -> SimResult {
        // Simulations never nest (nothing below this frame re-enters the
        // simulator), so the thread-local borrow spans the whole run.
        SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let mut work = LeapStats {
                sims: 1,
                ..LeapStats::default()
            };
            let result = run(g, schedule, capacity_of, config, &mut scratch, &mut work);
            TELEMETRY.with(|tl| {
                let mut s = tl.get();
                s.absorb(work);
                tl.set(s);
            });
            result
        })
    }
}

/// One batched simulation; its work and leaps are counted into `work`.
fn run(
    g: &CanonicalGraph,
    schedule: &Schedule,
    capacity_of: &dyn Fn(EdgeId) -> Option<u64>,
    config: SimConfig,
    scratch: &mut Scratch,
    work: &mut LeapStats,
) -> SimResult {
    let Scratch {
        buckets,
        detector,
        snap,
    } = scratch;
    // Build-time wakes (block-0 activation) all target cycle 1.
    struct Seed(Vec<(u32, u64)>);
    impl Waker for Seed {
        fn wake(&mut self, pid: u32, time: u64) {
            self.0.push((pid, time));
        }
    }
    let mut seed = Seed(Vec::new());
    let mut state = SimState::build(g, schedule, capacity_of, config, &mut seed);
    buckets.reset(state.procs.len());
    detector.reset();
    for (pid, time) in seed.0 {
        buckets.wake(pid, time);
    }

    let mut cycles = 0u64; // executed (non-leaped) cycles
    let mut last_event_t = 0u64;
    while !buckets.idle() {
        buckets.advance();
        let t = buckets.t;
        if t > state.config.max_time {
            state.end_cycle();
            return state.finish(last_event_t, Some(SimFailure::TimeLimit));
        }
        if buckets.head < buckets.cur.len() {
            last_event_t = t;
        }
        // Drain the cycle to its cascade fixpoint.
        let boundaries_before = state.boundaries;
        while buckets.head < buckets.cur.len() {
            let pid = buckets.cur[buckets.head];
            buckets.head += 1;
            buckets.in_cur[pid as usize] = false;
            if !state.procs[pid as usize].done {
                work.process_steps += 1;
                state.step(pid, t, buckets);
            }
        }
        let sig = state.end_cycle();
        cycles += 1;
        work.stepped_cycles += 1;
        let proposals = detector.observe(cycles, sig, state.boundaries != boundaries_before);

        // Close a verification window: the window is clean if no
        // structural boundary occurred since it opened and the ring scan
        // shows a full repeated period (every window cycle replayed its
        // counterpart one period back).
        if let Some(pv) = &detector.pending {
            if cycles >= pv.target {
                let pv = detector.pending.take().expect("checked");
                let dirty = detector.last_boundary > pv.opened;
                let clean = !dirty && detector.periodic(cycles, pv.period);
                let leaped = clean && try_leap(&mut state, snap, pv.period, buckets, work);
                if leaped {
                    last_event_t = buckets.t;
                }
                if dirty {
                    work.windows_dirtied += 1;
                } else if !clean {
                    work.windows_scan_failed += 1;
                } else if !leaped {
                    work.windows_rejected += 1;
                }
                // A window dirtied by a structural boundary says nothing
                // about the period itself — retry on its next proposal.
                // Only a genuine refutation (a clean scan
                // that failed, or a leap the margins rejected) pays the
                // backoff.
                detector.cooldown.insert(
                    pv.period,
                    if leaped || dirty {
                        cycles
                    } else {
                        cycles + 4 * pv.period
                    },
                );
            }
        }
        // Open a verification window on the smallest proposal allowed to.
        if detector.pending.is_none() {
            for p in proposals.into_iter().flatten() {
                if detector.may_open(cycles, p) {
                    detector.pending = Some(PendingVerify {
                        period: p,
                        opened: cycles,
                        target: cycles + p,
                    });
                    let group = state.window_group();
                    snap.take(&state, group, buckets.t);
                    work.windows_opened += 1;
                    break;
                }
            }
        }
    }
    let (makespan, failure) = state.final_outcome();
    state.finish(makespan, failure)
}

/// Period bound from a draining consume/emit counter: after `n` periods
/// of `delta`, at least one unit must remain (hitting zero flips the
/// completion branch). `Some(u64::MAX)` when the counter is idle; `None`
/// when it is already exhausted yet still moved in the window — no leap.
fn consume_margin(counter: u64, delta: u64) -> Option<u64> {
    match counter.checked_sub(1).and_then(|m| m.checked_div(delta)) {
        Some(bound) => Some(bound),
        None if delta == 0 => Some(u64::MAX),
        None => None,
    }
}

/// Period bound from a filling memory-write edge: `pushed` must stay
/// strictly below `volume` (delivery is a structural boundary that runs
/// per-beat). `None` means no constraint (idle edge).
fn push_margin(volume: u64, pushed: u64, delta: u64) -> Option<u64> {
    debug_assert!(pushed <= volume);
    (volume - pushed).checked_sub(1)?.checked_div(delta)
}

/// Verifies that the state after the verification window is a uniform
/// shift of the snapshot in `snap` and, if so, applies as many whole
/// periods as the safety margins allow and counts the leap into `work`.
/// Returns true if at least one period was leaped.
fn try_leap(
    state: &mut SimState<'_>,
    snap: &SnapArena,
    period: u64,
    buckets: &mut Buckets,
    work: &mut LeapStats,
) -> bool {
    let t = buckets.t;
    // An idle window (no beats) can never repeat — the engine only
    // re-wakes processes that progressed.
    if state.beats == snap.beats {
        return false;
    }
    // Periods to apply, bounded so the clock cannot silently cross the
    // time limit (the per-cycle path must report it).
    let mut n: u64 = (state.config.max_time - t) / period;

    // Per-process shift verification and margin bounds, over the
    // window's group: nothing outside it moved.
    let pids = state.window_procs(snap.group);
    for (i, &pid) in pids.iter().enumerate() {
        let pr = &state.procs[pid as usize];
        let f = snap.proc_fields(i);
        let sp = snap.proc_pending(i);
        if pr.in_batch != f[SP_IN_BATCH] {
            return false;
        }
        let dc = f[SP_TO_CONSUME] - pr.to_consume;
        let de = f[SP_TO_EMIT] - pr.to_emit;
        // A counter must keep at least one period's margin: hitting zero
        // flips the completion branch, which must run per-beat.
        match consume_margin(pr.to_consume, dc) {
            Some(bound) => n = n.min(bound),
            None => return false,
        }
        match consume_margin(pr.to_emit, de) {
            Some(bound) => n = n.min(bound),
            None => return false,
        }
        // Last-beat cycles must have shifted with the window (active) or
        // stayed put (idle process).
        if pr.last_in != f[SP_LAST_IN] && pr.last_in != f[SP_LAST_IN] + period {
            return false;
        }
        if pr.last_out != f[SP_LAST_OUT] && pr.last_out != f[SP_LAST_OUT] + period {
            return false;
        }
        // Pending batches must be isomorphic modulo the time shift.
        let pending = pr.pending.as_slice();
        if pending.len() != sp.len() {
            return false;
        }
        if pr.q == 0 {
            // Pure producer: the single seeded batch drains in place; its
            // count mirrors `to_emit` (bounded above) and its ready time
            // is fixed in the past.
            if let (Some(&(ready, count)), Some(&(s_ready, s_count))) =
                (pending.first(), sp.first())
            {
                if ready != s_ready || ready > snap.t || s_count - count != de {
                    return false;
                }
            }
        } else {
            for (&(ready, count), &(s_ready, s_count)) in pending.iter().zip(sp) {
                if count != s_count {
                    return false;
                }
                let shifted = ready == s_ready + period;
                let both_ripe = s_ready <= snap.t + 1 && ready <= t + 1;
                if !shifted && !both_ripe {
                    return false;
                }
            }
        }
    }

    // Per-edge shift verification and margin bounds.
    let eids = state.window_edges(snap.group);
    for (i, &e) in eids.iter().enumerate() {
        let es = &state.edges[e as usize];
        let f = snap.edge_fields(i);
        // Steady state means zero FIFO drift: any accumulation or
        // drain-down is a transient that must run per-beat.
        if state.level[e as usize].len != f[SE_LEN] {
            return false;
        }
        let dpop = es.popped - f[SE_POPPED];
        let dpush = es.pushed - f[SE_PUSHED];
        match es.kind {
            Chan::Fifo => {}
            Chan::Gated => {
                // Replay reads stay within the gated volume; writes into
                // the gate stay strictly below delivery.
                if let Some(bound) = (es.volume - es.popped).checked_div(dpop) {
                    n = n.min(bound);
                }
                if let Some(bound) = push_margin(es.volume, es.pushed, dpush) {
                    n = n.min(bound);
                }
            }
            Chan::Write => {
                if let Some(bound) = push_margin(es.volume, es.pushed, dpush) {
                    n = n.min(bound);
                }
            }
            Chan::Inert => {}
        }
    }

    if n == 0 {
        return false;
    }

    // Apply `n` whole periods in O(group processes + edges).
    let period_beats = state.beats - snap.beats;
    for i in 0..state.window_procs(snap.group).len() {
        let pid = state.window_procs(snap.group)[i];
        let pr = &mut state.procs[pid as usize];
        let f = snap.proc_fields(i);
        let sp = snap.proc_pending(i);
        let dc = f[SP_TO_CONSUME] - pr.to_consume;
        let de = f[SP_TO_EMIT] - pr.to_emit;
        let dbusy = pr.busy - f[SP_BUSY];
        pr.to_consume -= n * dc;
        pr.to_emit -= n * de;
        pr.busy += n * dbusy;
        if pr.last_in == f[SP_LAST_IN] + period {
            pr.last_in += n * period;
        }
        if pr.last_out == f[SP_LAST_OUT] + period {
            pr.last_out += n * period;
        }
        if pr.q == 0 {
            if let Some(front) = pr.pending.as_mut_slice().first_mut() {
                front.1 -= n * de;
            }
        } else {
            for ((ready, _), &(s_ready, _)) in pr.pending.as_mut_slice().iter_mut().zip(sp) {
                if *ready == s_ready + period {
                    *ready += n * period;
                }
            }
        }
    }
    for i in 0..state.window_edges(snap.group).len() {
        let e = state.window_edges(snap.group)[i] as usize;
        let es = &mut state.edges[e];
        let f = snap.edge_fields(i);
        es.popped += n * (es.popped - f[SE_POPPED]);
        es.pushed += n * (es.pushed - f[SE_PUSHED]);
    }
    state.beats += n * period_beats;
    buckets.leap(n * period);
    work.leaps += 1;
    work.leaped_cycles += n * period;
    work.max_period = work.max_period.max(period);
    true
}

#[cfg(test)]
mod tests {
    use super::{take_leap_telemetry, MAP_CAP, MAX_PERIOD, RING};
    use crate::{simulate_kind, SimConfig, SimKind};
    use stg_analysis::{schedule, Partition};
    use stg_buffer::{buffer_sizes, SizingPolicy};
    use stg_model::{Builder, CanonicalGraph};

    #[test]
    fn ring_holds_two_full_periods() {
        // A window's closing scan reads 2·P trailing entries, all of
        // which must still be live in the ring.
        assert!(2 * MAX_PERIOD < RING as u64);
        assert!(MAP_CAP > 2 * MAX_PERIOD as usize);
    }

    /// A three-stage pipeline whose middle task consumes `q` elements
    /// per batch of `p` emissions — volume ratio `q:p`, steady period
    /// determined by the `q`-cycle consume run.
    fn ratio_chain(q: u64, p: u64, reps: u64) -> CanonicalGraph {
        let mut b = Builder::new();
        let t0 = b.compute("t0");
        let t1 = b.compute("t1");
        let t2 = b.compute("t2");
        b.edge(t0, t1, q * reps);
        b.edge(t1, t2, p * reps);
        b.finish().expect("acyclic chain")
    }

    /// Simulates `g` on both simulators, asserts bit-identity, and
    /// returns the number of epoch leaps the batched run applied.
    fn leaps_with_identity(g: &CanonicalGraph) -> u64 {
        let s = schedule(g, &Partition::single_block(g)).expect("schedulable");
        let plan = buffer_sizes(g, &s, SizingPolicy::Converging, 1);
        let reference = simulate_kind(SimKind::Reference, g, &s, &plan, SimConfig::default());
        take_leap_telemetry();
        let batched = simulate_kind(SimKind::Batched, g, &s, &plan, SimConfig::default());
        let stats = take_leap_telemetry();
        assert_eq!(reference, batched, "simulators diverged");
        assert!(reference.completed(), "{:?}", reference.failure);
        stats.leaps
    }

    #[test]
    fn period_one_chains_still_leap() {
        let mut b = Builder::new();
        let t: Vec<_> = (0..4).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, 4096);
        let g = b.finish().unwrap();
        assert!(leaps_with_identity(&g) > 0, "elementwise chain must leap");
    }

    #[test]
    fn ladder_family_ratios_still_leap() {
        // Ratios whose periods the old m·2^k candidate ladder already
        // covered must keep leaping under proposal-driven detection.
        for (q, p) in [(2, 1), (5, 1), (7, 1), (8, 1)] {
            let leaps = leaps_with_identity(&ratio_chain(q, p, 4_000));
            assert!(leaps > 0, "{q}:{p} chain must leap");
        }
    }

    /// Regression for the old detector's worst case: the 44-rung
    /// `m · 2^k` ladder (`m ∈ {1, 3, 5, 7}`) had no rung for periods
    /// with prime factors ≥ 11, so e.g. an 11:1 downsampler spent its
    /// whole steady phase stepping per-beat. General detection must
    /// leap these.
    #[test]
    fn non_ladder_ratios_leap() {
        for (q, p) in [(11, 1), (13, 3), (17, 1), (23, 7)] {
            let leaps = leaps_with_identity(&ratio_chain(q, p, 2_000));
            assert!(
                leaps > 0,
                "{q}:{p} chain must leap under general cycle detection"
            );
        }
    }

    /// Upsamplers (`q < p`) emit a batch over several cycles, so their
    /// output beats carry a batch phase in the cycle signature. Their
    /// steady states must still leap, bit-identically.
    #[test]
    fn upsampler_steady_states_leap_bit_identically() {
        for (q, p) in [(1, 8), (1, 32), (3, 32)] {
            let leaps = leaps_with_identity(&ratio_chain(q, p, 1_000));
            assert!(leaps > 0, "{q}:{p} chain must leap");
        }
    }

    #[test]
    fn telemetry_reports_periods_and_cycles() {
        take_leap_telemetry();
        let g = ratio_chain(11, 1, 2_000);
        let s = schedule(&g, &Partition::single_block(&g)).unwrap();
        let plan = buffer_sizes(&g, &s, SizingPolicy::Converging, 1);
        simulate_kind(SimKind::Batched, &g, &s, &plan, SimConfig::default());
        let stats = take_leap_telemetry();
        assert!(stats.leaps > 0);
        assert!(stats.leaped_cycles > 0);
        assert!(
            stats.max_period >= 11,
            "an 11:1 chain leaps a period divisible by 11, got {}",
            stats.max_period
        );
        // Every closed window has exactly one outcome; at most one window
        // is still open when the run ends.
        let closed = stats.leaps
            + stats.windows_dirtied
            + stats.windows_scan_failed
            + stats.windows_rejected;
        assert!(
            (closed..=closed + 1).contains(&stats.windows_opened),
            "{stats:?}"
        );
        assert!(stats.stepped_cycles > 0 && stats.process_steps >= stats.stepped_cycles);
        // Taking the telemetry resets it.
        assert_eq!(take_leap_telemetry(), super::LeapStats::default());
    }

    /// A chain of `blocks` two-task stages: a `1:q` upsampler feeding a
    /// `q:1` downsampler, so every block streams `~q·reps` cycles at
    /// steady period `~q` and hands only `reps` elements across each
    /// block edge.
    fn alternating_chain(blocks: usize, q: u64, reps: u64) -> (CanonicalGraph, Partition) {
        let mut b = Builder::new();
        let t: Vec<_> = (0..2 * blocks)
            .map(|i| b.compute(format!("t{i}")))
            .collect();
        for i in 0..t.len() - 1 {
            let volume = if i % 2 == 0 { q * reps } else { reps };
            b.edge(t[i], t[i + 1], volume);
        }
        let g = b.finish().expect("acyclic chain");
        let partition = Partition {
            blocks: t.chunks(2).map(|c| c.to_vec()).collect(),
        };
        (g, partition)
    }

    /// Regression: the detector used to treat every structural boundary
    /// as a hard reset — confirmation demanded a full boundary-free
    /// period before a window could open, and a window the boundary
    /// dirtied paid the same `4·period` backoff as a genuine
    /// refutation. On multi-block runs the combined warm-up outlasted a
    /// short block's steady phase, so each extra block *lost* its leap:
    /// an 11:1 stage pipeline peaked at `blocks − 1` leaps. Boundaries
    /// must cost at most the window they dirty: the signature ring is
    /// preserved across them, so the leap count rises with the block
    /// count — one steady phase batched per block.
    #[test]
    fn every_block_leaps_once_boundaries_stop_resetting_the_detector() {
        for blocks in [1usize, 2, 3, 4] {
            let (g, partition) = alternating_chain(blocks, 11, 8);
            let s = schedule(&g, &partition).expect("schedulable");
            let plan = buffer_sizes(&g, &s, SizingPolicy::Converging, 1);
            let reference = simulate_kind(SimKind::Reference, &g, &s, &plan, SimConfig::default());
            take_leap_telemetry();
            let batched = simulate_kind(SimKind::Batched, &g, &s, &plan, SimConfig::default());
            let stats = take_leap_telemetry();
            assert_eq!(reference, batched, "{blocks}-block simulators diverged");
            assert!(reference.completed(), "{:?}", reference.failure);
            assert!(
                stats.leaps as usize >= blocks,
                "{blocks}-block run leaped only {} times — a boundary re-reset the detector",
                stats.leaps
            );
        }
    }

    #[test]
    fn volume_one_chain_never_leaps() {
        // No steady state to batch: margins are zero, so the detector's
        // windows must all fail and the telemetry stays empty.
        let mut b = Builder::new();
        let t: Vec<_> = (0..5).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, 1);
        let g = b.finish().unwrap();
        assert_eq!(leaps_with_identity(&g), 0);
    }
}
