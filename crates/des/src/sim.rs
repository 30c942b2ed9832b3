//! The element-level dataflow simulator.
//!
//! Every compute task is a process that performs at most one *input beat*
//! and one *output beat* per cycle:
//!
//! - an input beat pops one element from **every** input channel (lock-step,
//!   like a PE reading all its ports) — this is what makes Figure 9 ①
//!   deadlock under small FIFOs;
//! - after consuming `q` elements (the denominator of the production rate
//!   `R = p/q` in lowest terms) the batch's `p` output elements become ready
//!   one cycle later;
//! - an output beat pushes one ready element to **every** output channel,
//!   blocking if any streaming FIFO is full; writes to global memory
//!   (buffers, sinks, later blocks) never block.
//!
//! Sources multicast a single pass of their data into each consuming block;
//! buffer nodes fill from their producers and then replay per-edge from
//! memory; spatial blocks are gang-scheduled back-to-back.
//!
//! # The block barrier
//!
//! Block `b + 1` activates at the *latest* completion time among block
//! `b`'s tasks, and its processes first step one cycle later. A task that
//! emits completes at its last output beat's cycle `t`; a pure consumer
//! completes one cycle after its last input beat, at `t + 1`. When both
//! end a block in the same cycle, the barrier waits for the later
//! completion, whichever of the two the driver steps last.
//!
//! # Cycle semantics and event ordering
//!
//! The simulation is *synchronous*: each cycle, beats cascade — a pop frees
//! space that the producer can refill in the same cycle, a push feeds a
//! consumer that can pop it in the same cycle — until no further beat is
//! possible. This per-cycle fixpoint is **confluent**: the set of beats that
//! commit in a cycle (and therefore every result field — makespan, per-task
//! first-out/completion/busy times, total beats, and end-of-cycle FIFO
//! occupancies) does not depend on the order in which ready processes are
//! attempted. Both simulators rely on this:
//!
//! - [`ReferenceSim`] drives the cascade through a global event heap that
//!   fires events in ascending [`Event`] order — `(cycle, process id)`
//!   lexicographically, so at equal cycles the *lower process id steps
//!   first*. The tie-break is semantically inert (confluence) but pinned
//!   explicitly so traces are reproducible.
//! - [`crate::BatchedSim`] drives the same cascade through per-cycle work
//!   queues and coalesces steady-state intervals into batched epochs; it
//!   produces bit-identical results. It alone skips *fruitless* wakes:
//!   after a push it wakes the consumer only if that one can still input
//!   in this cycle, after a pop the producer only if that one can still
//!   output (`Waker::SKIP_FRUITLESS`). The reference keeps every wake, so
//!   it stays an independent oracle.
//!
//! Peak FIFO occupancy is defined at *cycle boundaries* (the occupancy after
//! a cycle's cascade settles), which is the order-independent measure; the
//! transient within-cycle maximum would depend on the attempt order. A
//! FIFO sees at most one push and one pop per cycle (its producer and its
//! consumer each beat at most once per direction), so the state samples
//! the peak at each push and undoes that sample when a pop follows in the
//! same cycle: the cycle then ends at its starting occupancy, which an
//! earlier sample already covers.

use std::collections::BinaryHeap;
use std::str::FromStr;
use stg_analysis::Schedule;
use stg_buffer::BufferPlan;
use stg_graph::{EdgeId, NodeId};
use stg_model::{CanonicalGraph, NodeKind};

/// Simulation limits.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// FIFO capacity used for streaming edges not covered by the plan.
    /// Zero-depth channels cannot transport elements, so capacities are
    /// clamped to at least one element by both simulators.
    pub default_capacity: u64,
    /// Abort when simulated time exceeds this bound (guards against
    /// unexpected livelock; generous by default).
    pub max_time: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            default_capacity: 1,
            max_time: u64::MAX / 4,
        }
    }
}

/// Why a simulation stopped early.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimFailure {
    /// No runnable process and unfinished work: the block deadlocked.
    /// Contains the unfinished compute nodes.
    Deadlock(Vec<NodeId>),
    /// `max_time` exceeded.
    TimeLimit,
}

/// Result of a simulation run. Equality is field-wise and exact — the
/// differential harness compares whole results across simulators.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimResult {
    /// Simulated makespan (max completion over compute tasks), if the run
    /// finished.
    pub makespan: u64,
    /// First-out time observed per node (compute nodes with outputs).
    pub fo: Vec<Option<u64>>,
    /// Completion time observed per node.
    pub lo: Vec<Option<u64>>,
    /// Busy cycles per node: cycles in which the task's PE committed at
    /// least one beat (compute tasks only).
    pub busy: Vec<Option<u64>>,
    /// Total beats executed (a size measure of the simulation).
    pub beats: u64,
    /// Peak end-of-cycle occupancy per edge (streaming FIFO edges only;
    /// zero for memory-gated and write channels).
    pub fifo_peak: Vec<u64>,
    /// Failure, if the run did not complete.
    pub failure: Option<SimFailure>,
}

impl SimResult {
    /// True if every task finished.
    pub fn completed(&self) -> bool {
        self.failure.is_none()
    }

    /// The largest end-of-cycle occupancy observed over all FIFO channels.
    pub fn peak_fifo(&self) -> u64 {
        self.fifo_peak.iter().copied().max().unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// simulator registry
// ---------------------------------------------------------------------------

/// The registry of validation simulators: the per-beat reference and the
/// beat-batched fast path. Both produce bit-identical [`SimResult`]s; the
/// differential test suite (`tests/proptest_des_equivalence.rs`) enforces
/// the equivalence on every registered workload × scheduler cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SimKind {
    /// The per-beat event-heap simulator (one event per element beat).
    #[default]
    Reference,
    /// The beat-batched simulator: per-cycle work queues plus steady-state
    /// epoch leaping.
    Batched,
}

impl SimKind {
    /// Every registered simulator, in display order.
    pub const ALL: [SimKind; 2] = [SimKind::Reference, SimKind::Batched];

    /// The command-line spelling (`--sim reference`, `--sim batched`).
    pub fn alias(&self) -> &'static str {
        match self {
            SimKind::Reference => "reference",
            SimKind::Batched => "batched",
        }
    }

    /// The simulator implementation behind this kind.
    pub fn simulator(&self) -> &'static dyn Simulator {
        match self {
            SimKind::Reference => &ReferenceSim,
            SimKind::Batched => &crate::BatchedSim,
        }
    }
}

impl std::fmt::Display for SimKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.alias())
    }
}

/// Error parsing a [`SimKind`] from a string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseSimKindError(String);

impl std::fmt::Display for ParseSimKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown simulator {:?}; known: reference, batched",
            self.0
        )
    }
}

impl std::error::Error for ParseSimKindError {}

impl FromStr for SimKind {
    type Err = ParseSimKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "reference" | "ref" | "heap" => Ok(SimKind::Reference),
            "batched" | "batch" | "fast" => Ok(SimKind::Batched),
            _ => Err(ParseSimKindError(s.to_string())),
        }
    }
}

/// A discrete-event simulator for scheduled canonical task graphs.
/// Implementations are stateless and thread-safe; all run state lives in
/// per-call internal structures.
pub trait Simulator: Send + Sync {
    /// Which registered simulator this is.
    fn kind(&self) -> SimKind;

    /// Runs the simulator with explicit per-edge capacities (`None` = use
    /// the config default for streaming edges).
    fn simulate_with(
        &self,
        g: &CanonicalGraph,
        schedule: &Schedule,
        capacity_of: &dyn Fn(EdgeId) -> Option<u64>,
        config: SimConfig,
    ) -> SimResult;
}

/// Runs the reference simulator with the capacities of a computed buffer
/// plan.
pub fn simulate(
    g: &CanonicalGraph,
    schedule: &Schedule,
    plan: &BufferPlan,
    config: SimConfig,
) -> SimResult {
    simulate_kind(SimKind::Reference, g, schedule, plan, config)
}

/// Runs the reference simulator with explicit per-edge capacities (`None`
/// = use the default for streaming edges). Used to demonstrate deadlocks
/// under insufficient buffer space.
pub fn simulate_with(
    g: &CanonicalGraph,
    schedule: &Schedule,
    capacity_of: impl Fn(EdgeId) -> Option<u64>,
    config: SimConfig,
) -> SimResult {
    ReferenceSim.simulate_with(g, schedule, &capacity_of, config)
}

/// Everything [`simulate_kind`] reads from a schedule and its buffer
/// plan: each compute node's block ([`Schedule::block_of`]), the block
/// count, the streaming-edge flags and the plan's FIFO capacities. Start
/// and completion times never reach the simulators, so two pairs of one
/// graph with equal inputs return the same [`SimResult`] (with the same
/// [`SimConfig`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimInputs<'a> {
    /// Number of spatial blocks.
    pub blocks: usize,
    /// Block index per node (`None` for non-compute nodes).
    pub block_of: &'a [Option<u32>],
    /// Streaming flag per edge.
    pub streaming_edge: &'a [bool],
    /// FIFO capacity per edge (`None` for non-streaming edges).
    pub capacity: &'a [Option<u64>],
}

impl<'a> SimInputs<'a> {
    /// The inputs a simulation of `schedule` under `plan` reads.
    pub fn of(schedule: &'a Schedule, plan: &'a BufferPlan) -> SimInputs<'a> {
        SimInputs {
            blocks: schedule.block_spans.len(),
            block_of: &schedule.block_of,
            streaming_edge: &schedule.streaming_edge,
            capacity: &plan.capacity,
        }
    }
}

/// Runs the chosen simulator with the capacities of a computed buffer plan.
pub fn simulate_kind(
    kind: SimKind,
    g: &CanonicalGraph,
    schedule: &Schedule,
    plan: &BufferPlan,
    config: SimConfig,
) -> SimResult {
    kind.simulator()
        .simulate_with(g, schedule, &|e| plan.capacity_of(e), config)
}

/// Runs the chosen simulator with explicit per-edge capacities.
pub fn simulate_with_kind(
    kind: SimKind,
    g: &CanonicalGraph,
    schedule: &Schedule,
    capacity_of: impl Fn(EdgeId) -> Option<u64>,
    config: SimConfig,
) -> SimResult {
    kind.simulator()
        .simulate_with(g, schedule, &capacity_of, config)
}

// ---------------------------------------------------------------------------
// shared machinery
// ---------------------------------------------------------------------------

/// A scheduled simulator event. Events fire in ascending `(time, pid)`
/// order: earlier cycles first, and *within a cycle, the lower process id
/// steps first*. This tie-break is the documented ordering shared by both
/// simulators; it is semantically inert (the per-cycle cascade is
/// confluent — see the module docs) but pinned for reproducibility.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Event {
    /// The cycle at which the process is woken.
    pub time: u64,
    /// The process to step.
    pub pid: u32,
}

/// A channel's role in the simulation.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Chan {
    /// Streaming FIFO with bounded capacity.
    Fifo,
    /// Read side gated on a memory fill; replays `volume` elements.
    Gated,
    /// Non-blocking write into memory (buffer fill, sink, later block).
    Write,
    /// No simulation traffic (source→buffer prefills, buffer→buffer
    /// reshapes — handled by gate propagation).
    Inert,
}

/// A channel's occupancy and capacity: the two words the beat loop's
/// FIFO-full and FIFO-empty tests read, kept apart from the rest of the
/// channel so that those tests walk a dense array.
#[derive(Clone, Copy)]
pub(crate) struct Level {
    /// FIFO occupancy; always 0 on memory channels.
    pub len: u64,
    /// FIFO capacity; `u64::MAX` on memory channels, which never block a
    /// producer.
    pub cap: u64,
}

/// The gate time of a gated read whose memory fill has not completed.
pub(crate) const NO_GATE: u64 = u64::MAX;

const _: () = assert!(std::mem::size_of::<EdgeState>() == 64);
const _: () = assert!(std::mem::size_of::<Proc>() == 128);

/// The rest of a channel's run state: one cache line.
#[derive(Clone)]
#[repr(align(64))]
pub(crate) struct EdgeState {
    /// Elements popped from a gated replay.
    pub popped: u64,
    /// Elements pushed by the producer (for buffer fills).
    pub pushed: u64,
    pub volume: u64,
    /// Gate open time for gated reads ([`NO_GATE`] while closed).
    pub gate: u64,
    /// Peak end-of-cycle occupancy (FIFO edges), sampled at each push.
    pub peak: u64,
    /// The peak before the latest push, restored when a pop follows the
    /// push in its cycle.
    pub peak_before_push: u64,
    /// Producer / consumer process ids (u32::MAX = none).
    pub producer: u32,
    pub consumer: u32,
    pub kind: Chan,
}

/// The per-process state the beat loop reads and writes, packed into two
/// cache lines. What only the result needs — the node id and the
/// first-out time — lives in [`SimState`]'s cold arrays.
#[repr(align(64))]
pub(crate) struct Proc {
    pub to_consume: u64,
    pub to_emit: u64,
    pub in_batch: u64,
    pub last_in: u64,
    pub last_out: u64,
    /// Cycles with at least one committed beat.
    pub busy: u64,
    /// Batch shape: consume `q`, produce `p` (q=0: pure producer,
    /// p=0: pure consumer).
    pub q: u64,
    pub p: u64,
    pub pending: Pending,
    /// This process's edges in [`SimState::links`]: in-edges at
    /// `links[0]..links[1]`, out-edges at `links[1]..links[2]`.
    pub links: [u32; 3],
    pub block: u32,
    pub done: bool,
    /// Whether completion counts toward block barriers / makespan.
    pub is_task: bool,
}

impl Proc {
    /// Whether an input beat at `t` is still possible: none yet this
    /// cycle, and elements left to consume.
    #[inline(always)]
    fn can_input(&self, t: u64) -> bool {
        self.last_in < t && self.to_consume > 0
    }

    /// Whether an output beat at `t` is still possible: none yet this
    /// cycle, and elements left to emit.
    #[inline(always)]
    fn can_output(&self, t: u64) -> bool {
        self.last_out < t && self.to_emit > 0
    }
}

/// A process's emission backlog: the batches not yet fully emitted,
/// oldest first, as `(ready time, remaining count)`. Two slots suffice:
/// every batch but the front one is full (`p` elements), and an input
/// beat is refused while the backlog holds `p` elements, so a batch
/// completes only behind at most one partial front batch. A pure
/// producer holds its one seeded batch.
#[derive(Clone, Copy, Default)]
pub(crate) struct Pending {
    batches: [(u64, u64); 2],
    len: u8,
}

impl Pending {
    pub fn as_slice(&self) -> &[(u64, u64)] {
        &self.batches[..usize::from(self.len)]
    }

    pub fn as_mut_slice(&mut self) -> &mut [(u64, u64)] {
        &mut self.batches[..usize::from(self.len)]
    }

    /// Appends a batch. Panics on a third one, which the backlog rule
    /// above rules out.
    fn push_back(&mut self, batch: (u64, u64)) {
        self.batches[usize::from(self.len)] = batch;
        self.len += 1;
    }

    /// Elements awaiting emission.
    fn backlog(&self) -> u64 {
        self.as_slice().iter().map(|&(_, count)| count).sum()
    }

    /// Takes one element from the front batch, dropping the batch once
    /// empty, and returns the front batch's remaining count.
    fn take_one(&mut self) -> u64 {
        let left = self.batches[0].1 - 1;
        self.batches[0].1 = left;
        if left == 0 {
            self.batches[0] = self.batches[1];
            self.len -= 1;
        }
        left
    }
}

/// Where a beat attempt schedules follow-up work. Wake-ups are near-term
/// by construction: counterparty wakes after a push/pop land in the
/// current cycle `t`, self wakes after progress and gate openings land at
/// `t + 1`, and block activations triggered by a pure consumer's `t + 1`
/// completion land at `t + 2` — never further. The reference driver feeds
/// them into its global heap; the batched driver uses two cycle buckets
/// plus a small spill heap for the rare `t + 2` activation wakes.
pub(crate) trait Waker {
    /// Whether beat attempts skip *fruitless* counterparty wakes: after a
    /// push, a consumer that can no longer input at `t`; after a pop, a
    /// producer that can no longer output at `t`. Stepping either would
    /// fail, and a failed step has no side effects; whatever later
    /// enables the beat issues its own wake. The reference driver keeps
    /// every wake, so it stays an independent oracle.
    const SKIP_FRUITLESS: bool = false;

    /// Wake `pid` at cycle `time` (`time ∈ {t, t+1, t+2}` for a beat
    /// attempt at cycle `t`).
    fn wake(&mut self, pid: u32, time: u64);
}

/// Process and edge lists grouped by block: group `b < blocks` holds
/// block `b`'s, the last group holds all of them.
struct Groups {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Groups {
    fn of(&self, group: usize) -> &[u32] {
        &self.items[self.start[group] as usize..self.start[group + 1] as usize]
    }
}

/// The complete mutable simulation state plus the beat/cascade rules,
/// shared by both simulator drivers.
///
/// The layout serves the beat loop: every process's in- and out-edges
/// sit in one flat array ([`Self::links`]), the per-process and
/// per-channel words a beat touches are packed apart from the words only
/// the result reads, and the FIFO-full/empty tests read their own dense
/// array ([`Self::level`]).
pub(crate) struct SimState<'a> {
    pub g: &'a CanonicalGraph,
    pub procs: Vec<Proc>,
    /// Every process's in-edges then out-edges, process after process.
    pub links: Vec<u32>,
    pub level: Vec<Level>,
    pub edges: Vec<EdgeState>,
    /// Per process: its node (compute) or source node (source instances).
    node: Vec<NodeId>,
    /// Per process: its first output beat's cycle.
    fo: Vec<Option<u64>>,
    /// Per block: activation time (None = not yet) and remaining tasks.
    pub act: Vec<Option<u64>>,
    pub remaining: Vec<u64>,
    /// Per block: the latest completion time of its finished tasks. The
    /// next block activates at this time once `remaining` reaches zero.
    block_end: Vec<u64>,
    /// Per block: the processes to wake on activation (ascending id).
    block_procs: Groups,
    /// Per block: the edges its processes read or write, each once.
    block_edges: Groups,
    /// Per block: processes not yet done.
    live: Vec<u32>,
    /// The latest activated block.
    active: usize,
    /// The first block that may still hold a live process.
    first_live: usize,
    /// Buffers: per node, (undelivered in-edges, gate time when 0).
    pub buf_missing: Vec<u64>,
    pub buf_gate: Vec<Option<u64>>,
    pub config: SimConfig,
    pub beats: u64,
    /// Structural events so far: memory deliveries, buffer-gate openings,
    /// process completions, and block activations. The batched driver
    /// treats any change as a boundary that ends a steady-state epoch.
    pub boundaries: u64,
    /// Commutative hash of the current cycle's committed beats (order
    /// independent; reset by [`Self::end_cycle`]).
    pub cycle_sig: u64,
}

/// SplitMix64 finalizer: decorrelates beat identifiers before they are
/// combined into the (commutative) per-cycle signature.
#[inline]
pub(crate) fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The signature term of one committed beat: the process, the beat's
/// direction and its batch phase. Phase 0 (every beat of a pure producer
/// or pure consumer) leaves just the process and direction.
#[inline]
fn beat_sig(pid: u32, output: bool, phase: u64) -> u64 {
    mix(phase << 33 | u64::from(pid) << 1 | u64::from(output))
}

impl<'a> SimState<'a> {
    pub fn build<W: Waker>(
        g: &'a CanonicalGraph,
        schedule: &Schedule,
        capacity_of: &dyn Fn(EdgeId) -> Option<u64>,
        config: SimConfig,
        waker: &mut W,
    ) -> SimState<'a> {
        let dag = g.dag();
        let n = dag.node_count();
        let n_blocks = schedule.block_spans.len().max(1);

        let mut procs: Vec<Proc> = Vec::with_capacity(g.compute_count());
        let mut node: Vec<NodeId> = Vec::with_capacity(g.compute_count());
        let mut links: Vec<u32> = Vec::with_capacity(2 * dag.edge_count());
        let mut remaining = vec![0u64; n_blocks];
        let proc_of = |procs: &mut Vec<Proc>, links: &[u32], mid: usize, block: u32| Proc {
            to_consume: 0,
            to_emit: 0,
            in_batch: 0,
            last_in: 0,
            last_out: 0,
            busy: 0,
            q: 0,
            p: 0,
            pending: Pending::default(),
            links: [
                procs.last().map_or(0, |p: &Proc| p.links[2]),
                mid as u32,
                links.len() as u32,
            ],
            block,
            done: false,
            is_task: false,
        };

        // Compute-task processes.
        for v in g.compute_nodes() {
            let block = schedule.block_of[v.index()].expect("scheduled compute node");
            let i_vol = g.input_volume(v).unwrap_or(0);
            let o_vol = g.output_volume(v).unwrap_or(0);
            let (p, q) = match (i_vol, o_vol) {
                (0, o) => (o.min(1), 0), // pure producer: batches seeded at activation
                (_, 0) => (0, 1),        // pure consumer: no emission
                (i, o) => {
                    let gcd = {
                        let (mut a, mut b) = (i, o);
                        while b != 0 {
                            let t = a % b;
                            a = b;
                            b = t;
                        }
                        a
                    };
                    (o / gcd, i / gcd)
                }
            };
            links.extend(dag.in_edge_ids(v).iter().map(|e| e.0));
            let mid = links.len();
            links.extend(dag.out_edge_ids(v).iter().map(|e| e.0));
            let mut pr = proc_of(&mut procs, &links, mid, block);
            pr.q = q;
            pr.p = p;
            pr.to_consume = i_vol;
            pr.to_emit = o_vol;
            pr.is_task = true;
            procs.push(pr);
            node.push(v);
            remaining[block as usize] += 1;
        }

        // Source-instance processes: one per (source, consuming block), over
        // the streaming edges into that block, blocks ascending.
        let mut per_block: Vec<(u32, EdgeId)> = Vec::new();
        for s in dag.node_ids().filter(|&s| g.kind(s) == NodeKind::Source) {
            per_block.clear();
            for &e in dag.out_edge_ids(s) {
                let dst = dag.edge(e).dst;
                if schedule.streaming_edge[e.index()] {
                    if let Some(b) = schedule.block_of[dst.index()] {
                        per_block.push((b, e));
                    }
                }
            }
            per_block.sort_by_key(|&(b, _)| b);
            let vol = g.output_volume(s).unwrap_or(0);
            for group in per_block.chunk_by(|a, b| a.0 == b.0) {
                let mid = links.len();
                links.extend(group.iter().map(|&(_, e)| e.0));
                let mut pr = proc_of(&mut procs, &links, mid, group[0].0);
                pr.p = 1;
                pr.to_emit = vol;
                procs.push(pr);
                node.push(s);
            }
        }

        // Channel states.
        let mut level: Vec<Level> = Vec::with_capacity(dag.edge_count());
        let mut edges: Vec<EdgeState> = Vec::with_capacity(dag.edge_count());
        for (eid, e) in dag.edges() {
            let src_kind = g.kind(e.src);
            let dst_kind = g.kind(e.dst);
            let (kind, cap) =
                if schedule.streaming_edge[eid.index()] && dst_kind == NodeKind::Compute {
                    let cap = capacity_of(eid).unwrap_or(config.default_capacity).max(1);
                    (Chan::Fifo, cap)
                } else if dst_kind == NodeKind::Compute {
                    // Memory-gated read: from a buffer, or an earlier block's
                    // output, (or a non-streaming source edge, which cannot
                    // occur by construction).
                    (Chan::Gated, u64::MAX)
                } else if src_kind == NodeKind::Compute {
                    (Chan::Write, u64::MAX)
                } else {
                    (Chan::Inert, u64::MAX)
                };
            level.push(Level { len: 0, cap });
            edges.push(EdgeState {
                popped: 0,
                pushed: 0,
                volume: e.weight,
                gate: NO_GATE,
                peak: 0,
                peak_before_push: 0,
                producer: u32::MAX,
                consumer: u32::MAX,
                kind,
            });
        }
        // Wire producers/consumers.
        for (pid, pr) in procs.iter().enumerate() {
            let [start, mid, end] = pr.links.map(|i| i as usize);
            for &e in &links[start..mid] {
                edges[e as usize].consumer = pid as u32;
            }
            for &e in &links[mid..end] {
                edges[e as usize].producer = pid as u32;
            }
        }

        // Each block's processes (ascending id) and the edges they touch
        // (each once), then everything as the last group.
        let mut procs_start = vec![0u32; n_blocks + 2];
        for pr in &procs {
            procs_start[pr.block as usize + 1] += 1;
        }
        for b in 0..n_blocks {
            procs_start[b + 1] += procs_start[b];
        }
        procs_start[n_blocks + 1] = procs_start[n_blocks] + procs.len() as u32;
        let mut fill = procs_start.clone();
        let mut proc_items = vec![0u32; 2 * procs.len()];
        for (pid, pr) in procs.iter().enumerate() {
            proc_items[fill[pr.block as usize] as usize] = pid as u32;
            fill[pr.block as usize] += 1;
            proc_items[procs.len() + pid] = pid as u32;
        }
        let block_procs = Groups {
            start: procs_start,
            items: proc_items,
        };
        let mut edge_start = vec![0u32];
        let mut edge_items: Vec<u32> = Vec::new();
        let mut seen = vec![u32::MAX; dag.edge_count()];
        for b in 0..n_blocks {
            for &pid in block_procs.of(b) {
                let [start, _, end] = procs[pid as usize].links;
                for &e in &links[start as usize..end as usize] {
                    if seen[e as usize] != b as u32 {
                        seen[e as usize] = b as u32;
                        edge_items.push(e);
                    }
                }
            }
            edge_start.push(edge_items.len() as u32);
        }
        edge_items.extend(0..dag.edge_count() as u32);
        edge_start.push(edge_items.len() as u32);
        let block_edges = Groups {
            start: edge_start,
            items: edge_items,
        };
        let live = (0..n_blocks)
            .map(|b| block_procs.of(b).len() as u32)
            .collect();

        // Buffer fill dependencies: count in-edges that must deliver.
        let mut buf_missing = vec![0u64; n];
        let mut buf_gate: Vec<Option<u64>> = vec![None; n];
        for b in dag.node_ids().filter(|&b| g.kind(b) == NodeKind::Buffer) {
            let mut missing = 0;
            for &e in dag.in_edge_ids(b) {
                match g.kind(dag.edge(e).src) {
                    NodeKind::Source => {} // prefilled from global memory
                    _ => missing += 1,     // compute writes or upstream buffers
                }
            }
            buf_missing[b.index()] = missing;
            if missing == 0 {
                buf_gate[b.index()] = Some(0);
            }
        }

        let n_procs = procs.len();
        let mut sim = SimState {
            g,
            procs,
            links,
            level,
            edges,
            node,
            fo: vec![None; n_procs],
            act: vec![None; n_blocks],
            remaining,
            block_end: vec![0; n_blocks],
            block_procs,
            block_edges,
            live,
            active: 0,
            first_live: 0,
            buf_missing,
            buf_gate,
            config,
            beats: 0,
            boundaries: 0,
            cycle_sig: 0,
        };
        // Propagate gates of prefilled buffers (chains of buffers).
        for b in dag.node_ids() {
            if g.kind(b) == NodeKind::Buffer && sim.buf_gate[b.index()] == Some(0) {
                sim.propagate_buffer_gate(b, 0, waker);
            }
        }
        // Open gates on already-gated edges whose producers are sources
        // (cannot occur) — nothing else to do. Activate block 0.
        sim.activate_block(0, 0, waker);
        sim
    }

    pub fn activate_block<W: Waker>(&mut self, b: usize, t: u64, waker: &mut W) {
        if b >= self.act.len() || self.act[b].is_some() {
            return;
        }
        self.boundaries += 1;
        self.act[b] = Some(t);
        self.active = b;
        // Producer-only processes seed their pending batch at activation.
        let group = self.block_procs.start[b] as usize..self.block_procs.start[b + 1] as usize;
        for &pid in &self.block_procs.items[group] {
            let pr = &mut self.procs[pid as usize];
            if pr.q == 0 && pr.to_emit > 0 {
                pr.pending.push_back((t + 1, pr.to_emit));
            }
            waker.wake(pid, t + 1);
        }
        // An empty block (no tasks — cannot happen via the engine, but be
        // safe) immediately yields to the next one.
        if self.remaining[b] == 0 {
            self.activate_block(b + 1, t, waker);
        }
    }

    /// The processes and edges a verification window opened now must
    /// snapshot, as a group of [`Self::window_procs`] and
    /// [`Self::window_edges`]. Inside a window without structural
    /// boundaries only the latest activated block's processes can beat,
    /// and they touch only that block's edges: a block activation is a
    /// boundary, and the block barrier leaves every earlier block's
    /// processes done. Should an earlier process still run, the window
    /// covers every process and edge.
    pub fn window_group(&mut self) -> usize {
        while self.first_live < self.active && self.live[self.first_live] == 0 {
            self.first_live += 1;
        }
        if self.first_live < self.active {
            self.live.len()
        } else {
            self.active
        }
    }

    /// The processes of a [`Self::window_group`], ascending.
    pub fn window_procs(&self, group: usize) -> &[u32] {
        self.block_procs.of(group)
    }

    /// The edges of a [`Self::window_group`].
    pub fn window_edges(&self, group: usize) -> &[u32] {
        self.block_edges.of(group)
    }

    /// A buffer's fill completed at `t`: open its out-edges and propagate to
    /// downstream buffers.
    pub fn propagate_buffer_gate<W: Waker>(&mut self, b: NodeId, t: u64, waker: &mut W) {
        self.boundaries += 1;
        self.buf_gate[b.index()] = Some(t);
        let dag = self.g.dag();
        for &e in dag.out_edge_ids(b) {
            let dst = dag.edge(e).dst;
            match self.g.kind(dst) {
                NodeKind::Compute => {
                    self.open_gate(e, t, waker);
                }
                NodeKind::Buffer => {
                    self.buf_missing[dst.index()] -= 1;
                    if self.buf_missing[dst.index()] == 0 {
                        self.propagate_buffer_gate(dst, t, waker);
                    }
                }
                _ => {}
            }
        }
    }

    /// Opens gated edge `e` at `t` and wakes its consumer if its block is
    /// active.
    fn open_gate<W: Waker>(&mut self, e: EdgeId, t: u64, waker: &mut W) {
        self.edges[e.index()].gate = t;
        let consumer = self.edges[e.index()].consumer;
        if consumer != u32::MAX {
            let block = self.procs[consumer as usize].block as usize;
            if let Some(act) = self.act[block] {
                waker.wake(consumer, t.max(act) + 1);
            }
        }
    }

    /// Producer finished delivering on a write edge at time `t`.
    #[cold]
    pub fn write_edge_delivered<W: Waker>(&mut self, e: EdgeId, t: u64, waker: &mut W) {
        let dst = self.g.dag().edge(e).dst;
        match self.g.kind(dst) {
            NodeKind::Buffer => {
                self.buf_missing[dst.index()] -= 1;
                if self.buf_missing[dst.index()] == 0 {
                    self.propagate_buffer_gate(dst, t, waker);
                }
            }
            NodeKind::Compute => {
                // Cross-block memory read: gate on full delivery.
                self.boundaries += 1;
                self.open_gate(e, t, waker);
            }
            _ => {}
        }
    }

    /// Attempts beats for `pid` at time `t`; returns true if progressed.
    #[inline(always)]
    pub fn step<W: Waker>(&mut self, pid: u32, t: u64, waker: &mut W) -> bool {
        let mut progressed = false;
        // Output beat first: drains pending so the input beat of the same
        // cycle sees the freed batch slot.
        progressed |= self.try_output_beat(pid, t, waker);
        progressed |= self.try_input_beat(pid, t, waker);
        progressed
    }

    #[inline(always)]
    fn try_output_beat<W: Waker>(&mut self, pid: u32, t: u64, waker: &mut W) -> bool {
        let pr = &self.procs[pid as usize];
        if !pr.can_output(t) {
            return false;
        }
        match pr.pending.as_slice().first() {
            Some(&(ready, _)) if ready <= t => {}
            _ => return false,
        }
        let outs = pr.links[1] as usize..pr.links[2] as usize;
        // All streaming out-edges need space (memory channels never fill).
        for &e in &self.links[outs.clone()] {
            let level = &self.level[e as usize];
            if level.len >= level.cap {
                return false;
            }
        }
        // Commit the beat.
        for i in outs {
            let e = self.links[i] as usize;
            let es = &mut self.edges[e];
            es.pushed += 1;
            match es.kind {
                Chan::Fifo => {
                    let len = self.level[e].len + 1;
                    self.level[e].len = len;
                    es.peak_before_push = es.peak;
                    es.peak = es.peak.max(len);
                    let consumer = es.consumer;
                    if consumer != u32::MAX
                        && (!W::SKIP_FRUITLESS || self.procs[consumer as usize].can_input(t))
                    {
                        waker.wake(consumer, t);
                    }
                }
                // Write: memory fill (buffer/sink). Gated: a cross-block
                // edge — a memory write on the producer side whose gate
                // opens for the consumer once fully delivered.
                Chan::Write | Chan::Gated => {
                    if es.pushed == es.volume {
                        self.write_edge_delivered(EdgeId(e as u32), t, waker);
                    }
                }
                Chan::Inert => {}
            }
        }
        let pr = &mut self.procs[pid as usize];
        if pr.last_in != t {
            pr.busy += 1;
        }
        // No output beat before this one left `last_out` at 0: beats
        // start at cycle 1.
        if pr.last_out == 0 {
            self.fo[pid as usize] = Some(t);
        }
        pr.last_out = t;
        pr.to_emit -= 1;
        let left = pr.pending.take_one();
        self.beats += 1;
        // A pure producer's one batch counts down for the whole run, so
        // its phase never repeats: it keeps the phase-free term.
        let phase = if pr.q > 0 { left } else { 0 };
        self.cycle_sig = self.cycle_sig.wrapping_add(beat_sig(pid, true, phase));
        if pr.to_emit == 0 && pr.to_consume == 0 {
            self.complete(pid, t, waker);
        } else {
            waker.wake(pid, t + 1);
        }
        true
    }

    #[inline(always)]
    fn try_input_beat<W: Waker>(&mut self, pid: u32, t: u64, waker: &mut W) -> bool {
        let pr = &self.procs[pid as usize];
        if !pr.can_input(t) {
            return false;
        }
        // Emission backlog: do not consume a new batch while a full batch
        // is still pending (constant-space node).
        if pr.p > 0 && pr.pending.backlog() >= pr.p {
            return false;
        }
        let ins = pr.links[0] as usize..pr.links[1] as usize;
        // All in-edges must be poppable. A gated read has no occupancy:
        // only an empty level sends the test to the channel itself.
        for &e in &self.links[ins.clone()] {
            if self.level[e as usize].len == 0 {
                let es = &self.edges[e as usize];
                match es.kind {
                    Chan::Fifo => return false,
                    Chan::Gated => {
                        let act = self.act[pr.block as usize]
                            .expect("process woken implies active block");
                        if es.gate == NO_GATE || es.popped >= es.volume || t <= es.gate.max(act) {
                            return false;
                        }
                    }
                    _ => unreachable!("input edges are FIFO or gated"),
                }
            }
        }
        // Commit the beat.
        for i in ins {
            let e = self.links[i] as usize;
            let es = &mut self.edges[e];
            match es.kind {
                Chan::Fifo => {
                    self.level[e].len -= 1;
                    let producer = es.producer;
                    if producer != u32::MAX {
                        let pr = &self.procs[producer as usize];
                        // The producer pushed this cycle: the cycle ends
                        // at its starting occupancy, so undo the push's
                        // peak sample.
                        if pr.last_out == t {
                            es.peak = es.peak_before_push;
                        }
                        if !W::SKIP_FRUITLESS || pr.can_output(t) {
                            waker.wake(producer, t);
                        }
                    }
                }
                Chan::Gated => es.popped += 1,
                _ => unreachable!(),
            }
        }
        let pr = &mut self.procs[pid as usize];
        if pr.last_out != t {
            pr.busy += 1;
        }
        pr.last_in = t;
        pr.to_consume -= 1;
        self.beats += 1;
        if pr.p > 0 {
            pr.in_batch += 1;
            if pr.in_batch == pr.q {
                pr.in_batch = 0;
                pr.pending.push_back((t + 1, pr.p));
            }
        }
        self.cycle_sig = self
            .cycle_sig
            .wrapping_add(beat_sig(pid, false, pr.in_batch));
        if pr.to_consume == 0 && pr.to_emit == 0 {
            // Pure consumer: one more cycle to process the last element.
            self.complete(pid, t + 1, waker);
        } else {
            waker.wake(pid, t + 1);
        }
        true
    }

    #[cold]
    fn complete<W: Waker>(&mut self, pid: u32, t: u64, waker: &mut W) {
        self.boundaries += 1;
        let pr = &mut self.procs[pid as usize];
        debug_assert!(!pr.done);
        pr.done = true;
        pr.last_out = pr.last_out.max(t);
        let (block, is_task) = (pr.block as usize, pr.is_task);
        self.live[block] -= 1;
        if is_task {
            // The barrier waits for the block's latest completion, not the
            // last one the driver happens to step: a pure consumer stepped
            // at `t` completes at `t + 1`, an emitting task at `t`.
            self.block_end[block] = self.block_end[block].max(t);
            self.remaining[block] -= 1;
            if self.remaining[block] == 0 {
                self.activate_block(block + 1, self.block_end[block], waker);
            }
        }
    }

    /// Settles the current cycle: returns (and resets) the cycle's beat
    /// signature. The FIFO peaks are already settled (see the module
    /// docs).
    pub fn end_cycle(&mut self) -> u64 {
        std::mem::take(&mut self.cycle_sig)
    }

    /// The unfinished compute tasks (deadlock report) and final makespan.
    pub fn final_outcome(&self) -> (u64, Option<SimFailure>) {
        let unfinished: Vec<NodeId> = self
            .procs
            .iter()
            .zip(&self.node)
            .filter(|(p, _)| p.is_task && !p.done)
            .map(|(_, &v)| v)
            .collect();
        let failure = if unfinished.is_empty() {
            None
        } else {
            Some(SimFailure::Deadlock(unfinished))
        };
        let makespan = self
            .procs
            .iter()
            .filter(|p| p.is_task && p.done)
            .map(completion_time)
            .max()
            .unwrap_or(0);
        (makespan, failure)
    }

    pub fn finish(self, makespan: u64, failure: Option<SimFailure>) -> SimResult {
        let n = self.g.dag().node_count();
        let mut fo = vec![None; n];
        let mut lo = vec![None; n];
        let mut busy = vec![None; n];
        for ((p, v), &first_out) in self.procs.iter().zip(&self.node).zip(&self.fo) {
            if p.is_task {
                fo[v.index()] = first_out;
                busy[v.index()] = Some(p.busy);
                if p.done {
                    lo[v.index()] = Some(completion_time(p));
                }
            }
        }
        SimResult {
            makespan,
            fo,
            lo,
            busy,
            beats: self.beats,
            fifo_peak: self.edges.iter().map(|e| e.peak).collect(),
            failure,
        }
    }
}

fn completion_time(p: &Proc) -> u64 {
    p.last_out.max(p.last_in + u64::from(p.p == 0))
}

// ---------------------------------------------------------------------------
// the reference (per-beat event heap) driver
// ---------------------------------------------------------------------------

/// The per-beat reference simulator: a global event heap with one event
/// per `(cycle, process)` wake-up, firing in the documented [`Event`]
/// order. Slow but straightforward — the ground truth the beat-batched
/// fast path is differentially tested against.
pub struct ReferenceSim;

struct HeapWaker<'h> {
    heap: &'h mut BinaryHeap<std::cmp::Reverse<Event>>,
}

impl Waker for HeapWaker<'_> {
    fn wake(&mut self, pid: u32, time: u64) {
        self.heap.push(std::cmp::Reverse(Event { time, pid }));
    }
}

impl Simulator for ReferenceSim {
    fn kind(&self) -> SimKind {
        SimKind::Reference
    }

    fn simulate_with(
        &self,
        g: &CanonicalGraph,
        schedule: &Schedule,
        capacity_of: &dyn Fn(EdgeId) -> Option<u64>,
        config: SimConfig,
    ) -> SimResult {
        let mut heap: BinaryHeap<std::cmp::Reverse<Event>> = BinaryHeap::new();
        let mut state = SimState::build(
            g,
            schedule,
            capacity_of,
            config,
            &mut HeapWaker { heap: &mut heap },
        );
        let mut max_t = 0u64;
        let mut cur_t = 0u64;
        while let Some(std::cmp::Reverse(Event { time: t, pid })) = heap.pop() {
            if t > cur_t {
                state.end_cycle();
                cur_t = t;
            }
            if t > state.config.max_time {
                state.end_cycle();
                return state.finish(max_t, Some(SimFailure::TimeLimit));
            }
            max_t = max_t.max(t);
            if state.procs[pid as usize].done {
                continue;
            }
            state.step(pid, t, &mut HeapWaker { heap: &mut heap });
        }
        state.end_cycle();
        let (makespan, failure) = state.final_outcome();
        state.finish(makespan, failure)
    }
}
