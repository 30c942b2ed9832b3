//! The unified scheduler abstraction: every scheduling pipeline in the
//! workspace — the paper's STR-SCH variants, the appendix partitioners,
//! and the buffered NSTR-SCH baseline — implements one [`Scheduler`]
//! trait producing one [`Plan`] type. The experiment binaries, the sweep
//! engine (`stg_experiments::engine`), perfbench, and the examples all
//! talk to schedulers exclusively through this boundary, so new
//! schedulers plug into every figure and service frontend by
//! implementing a single method.

use std::str::FromStr;

use stg_analysis::{GraphFacts, Partition, Schedule, ScheduleError};
use stg_buffer::BufferPlan;
use stg_des::{same_sim_inputs, SimKind, SimResult};
use stg_model::CanonicalGraph;
use stg_sched::{assign_pes, Metrics, Placement, SbVariant};

use crate::pipeline::{
    MultiplexScheduler, NonStreamingPlan, NonStreamingScheduler, Partitioner, StreamingPlan,
    StreamingScheduler,
};

/// Interns a dynamically formatted preset name so parameterised presets
/// (like `multiplex:<slots>`) can hand out `&'static str` names exactly
/// like the fixed presets. The pool is bounded by the number of distinct
/// slot counts a process ever names, so the leak is finite and
/// deliberate.
pub(crate) fn intern_preset(name: String) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut pool = POOL
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .expect("preset intern pool");
    match pool.get(name.as_str()) {
        Some(&interned) => interned,
        None => {
            let leaked: &'static str = Box::leak(name.into_boxed_str());
            pool.insert(leaked);
            leaked
        }
    }
}

/// A scheduling algorithm for canonical task graphs on a fixed machine
/// size. Implementations are immutable and thread-safe so one instance
/// can evaluate many scenarios concurrently.
pub trait Scheduler: Send + Sync {
    /// A short display name ("STR-SCH-1", "NSTR-SCH", ...), used in
    /// reports and emitted CSV/JSON.
    fn name(&self) -> &'static str;

    /// The machine size (number of processing elements) plans target.
    fn pes(&self) -> usize;

    /// Computes a complete execution plan for `g`, analysing the graph
    /// from scratch: [`Self::schedule_facts`] on fresh [`GraphFacts`].
    fn schedule(&self, g: &CanonicalGraph) -> Result<Plan, ScheduleError> {
        self.schedule_facts(&GraphFacts::new(g))
    }

    /// Computes a complete execution plan for the graph of `facts`,
    /// reading its graph-only analyses (depths, precedence, levels, ...)
    /// from them. A caller scheduling one graph with several schedulers
    /// or machine sizes hands each the same facts, so each analysis runs
    /// once per graph.
    fn schedule_facts(&self, facts: &GraphFacts<'_>) -> Result<Plan, ScheduleError>;
}

/// The scheduler-specific parts of a [`Plan`].
#[derive(Clone, Debug)]
enum PlanDetail {
    /// A pipelined spatial-block plan (partition, `ST/FO/LO` schedule,
    /// sized FIFO channels). Boxed: streaming plans are much larger than
    /// the baseline's.
    Streaming(Box<StreamingPlan>),
    /// A buffered list-scheduling plan (all communication through global
    /// memory).
    NonStreaming(NonStreamingPlan),
}

/// A complete execution plan produced by any [`Scheduler`]: makespan and
/// metrics, a task-to-PE assignment, an optional FIFO buffer plan, and a
/// validation hook running the element-level discrete event simulator.
#[derive(Clone, Debug)]
pub struct Plan {
    scheduler: &'static str,
    pes: usize,
    detail: PlanDetail,
}

impl Plan {
    /// Wraps a streaming plan produced by `scheduler`.
    pub fn from_streaming(scheduler: &'static str, plan: StreamingPlan) -> Plan {
        Plan {
            scheduler,
            pes: plan.pes,
            detail: PlanDetail::Streaming(Box::new(plan)),
        }
    }

    /// Wraps a non-streaming (buffered baseline) plan.
    pub fn from_non_streaming(scheduler: &'static str, pes: usize, plan: NonStreamingPlan) -> Plan {
        Plan {
            scheduler,
            pes,
            detail: PlanDetail::NonStreaming(plan),
        }
    }

    /// The name of the scheduler that produced this plan.
    pub fn scheduler(&self) -> &'static str {
        self.scheduler
    }

    /// The machine size the plan was computed for.
    pub fn pes(&self) -> usize {
        self.pes
    }

    /// Schedule length.
    pub fn makespan(&self) -> u64 {
        self.metrics().makespan
    }

    /// Evaluation metrics (speedup, SSLR/SLR, utilization, block count).
    pub fn metrics(&self) -> &Metrics {
        match &self.detail {
            PlanDetail::Streaming(p) => p.metrics(),
            PlanDetail::NonStreaming(p) => &p.metrics,
        }
    }

    /// The FIFO buffer plan, if the schedule streams data between tasks
    /// (`None` for the buffered baseline — it has no FIFO channels).
    pub fn buffers(&self) -> Option<&BufferPlan> {
        match &self.detail {
            PlanDetail::Streaming(p) => Some(&p.buffers),
            PlanDetail::NonStreaming(_) => None,
        }
    }

    /// The spatial-block partition, for streaming plans.
    pub fn partition(&self) -> Option<&Partition> {
        match &self.detail {
            PlanDetail::Streaming(p) => Some(&p.result.partition),
            PlanDetail::NonStreaming(_) => None,
        }
    }

    /// The `ST/FO/LO` block schedule, for streaming plans.
    pub fn block_schedule(&self) -> Option<&Schedule> {
        match &self.detail {
            PlanDetail::Streaming(p) => Some(p.schedule()),
            PlanDetail::NonStreaming(_) => None,
        }
    }

    /// True when validating this plan and `other` (plans of one graph)
    /// runs the simulator on identical inputs (see
    /// [`same_sim_inputs`]), so both validations return the same
    /// [`SimResult`]. Always false for buffered baseline plans: their
    /// validation runs no simulator.
    pub fn simulates_like(&self, other: &Plan) -> bool {
        match (&self.detail, &other.detail) {
            (PlanDetail::Streaming(a), PlanDetail::Streaming(b)) => {
                same_sim_inputs((a.schedule(), &a.buffers), (b.schedule(), &b.buffers))
            }
            _ => false,
        }
    }

    /// The task-to-PE assignment of the plan.
    pub fn placement(&self, g: &CanonicalGraph) -> Placement {
        match &self.detail {
            PlanDetail::Streaming(p) => assign_pes(g, &p.result.partition),
            PlanDetail::NonStreaming(p) => {
                let pe_of = g
                    .node_ids()
                    .map(|v| g.node(v).is_schedulable().then(|| p.schedule.pe[v.index()]))
                    .collect();
                Placement {
                    pe_of,
                    pes_used: vec![p.schedule.pes_used],
                }
            }
        }
    }

    /// Validates the plan by element-level discrete event simulation with
    /// the reference simulator (see [`Self::validate_with`]).
    pub fn validate(&self, g: &CanonicalGraph) -> SimResult {
        self.validate_with(g, SimKind::Reference)
    }

    /// Validates the plan by element-level discrete event simulation with
    /// the chosen simulator ([`SimKind::Batched`] is bit-identical to the
    /// reference and far cheaper on large graphs).
    ///
    /// Streaming plans run the Appendix B simulator with the computed
    /// FIFO capacities. Buffered baseline plans cannot deadlock by
    /// construction (every transfer goes through unbounded global
    /// memory), so their analytic schedule is its own witness: the
    /// returned result reports completion at the analytic times, busy
    /// spans equal to the scheduled task spans, and no FIFO traffic.
    pub fn validate_with(&self, g: &CanonicalGraph, sim: SimKind) -> SimResult {
        match &self.detail {
            PlanDetail::Streaming(p) => p.validate_with(g, sim),
            PlanDetail::NonStreaming(p) => {
                let fo: Vec<Option<u64>> = g
                    .node_ids()
                    .map(|v| {
                        g.node(v)
                            .is_schedulable()
                            .then(|| p.schedule.finish[v.index()])
                    })
                    .collect();
                let busy: Vec<Option<u64>> = g
                    .node_ids()
                    .map(|v| {
                        g.node(v)
                            .is_schedulable()
                            .then(|| p.schedule.finish[v.index()] - p.schedule.start[v.index()])
                    })
                    .collect();
                SimResult {
                    makespan: p.schedule.makespan,
                    lo: fo.clone(),
                    fo,
                    busy,
                    beats: 0,
                    fifo_peak: vec![0; g.dag().edge_count()],
                    failure: None,
                }
            }
        }
    }
}

impl Scheduler for StreamingScheduler {
    fn name(&self) -> &'static str {
        self.preset_name()
    }

    fn pes(&self) -> usize {
        StreamingScheduler::pes(self)
    }

    fn schedule_facts(&self, facts: &GraphFacts<'_>) -> Result<Plan, ScheduleError> {
        self.plan(facts)
            .map(|p| Plan::from_streaming(self.name(), p))
    }
}

impl Scheduler for MultiplexScheduler {
    fn name(&self) -> &'static str {
        intern_preset(format!("MUX-SCH:{}", self.slots()))
    }

    fn pes(&self) -> usize {
        MultiplexScheduler::pes(self)
    }

    fn schedule_facts(&self, facts: &GraphFacts<'_>) -> Result<Plan, ScheduleError> {
        self.plan(facts)
            .map(|p| Plan::from_streaming(self.name(), p))
    }
}

impl Scheduler for NonStreamingScheduler {
    fn name(&self) -> &'static str {
        "NSTR-SCH"
    }

    fn pes(&self) -> usize {
        NonStreamingScheduler::pes(self)
    }

    fn schedule_facts(&self, facts: &GraphFacts<'_>) -> Result<Plan, ScheduleError> {
        Ok(Plan::from_non_streaming(
            self.name(),
            Scheduler::pes(self),
            self.plan(facts),
        ))
    }
}

/// The registry of named scheduler presets: everything the sweep engine,
/// the `--scheduler` CLI filter, and the property tests can instantiate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// STR-SCH-1: Algorithm 1 SB-LTS with converging buffer sizing.
    StreamingLts,
    /// STR-SCH-2: Algorithm 1 SB-RLX.
    StreamingRlx,
    /// STR-SCH-1-CYC: SB-LTS with the literal cycles-only buffer sizing.
    StreamingLtsCyclesOnly,
    /// ELW-SCH: Theorem A.1's level-order partitioner.
    Elementwise,
    /// DSW-SCH: Algorithm 2's work-ordered down-sampler partitioner.
    Downsampler,
    /// USW-SCH: the symmetric up-sampler partitioner.
    Upsampler,
    /// NSTR-SCH: the buffered critical-path list-scheduling baseline.
    NonStreaming,
    /// MUX-SCH:`<slots>`: temporal multiplexing of several tenants'
    /// graphs (precedence-DAG components) into the given number of time
    /// slots, with a per-transition reconfiguration cost.
    Multiplex(usize),
}

impl SchedulerKind {
    /// Every registered preset, in display order (the multiplex preset is
    /// represented by its two-slot default; other slot counts parse via
    /// `multiplex:<slots>`).
    pub const ALL: [SchedulerKind; 8] = [
        SchedulerKind::StreamingLts,
        SchedulerKind::StreamingRlx,
        SchedulerKind::StreamingLtsCyclesOnly,
        SchedulerKind::Elementwise,
        SchedulerKind::Downsampler,
        SchedulerKind::Upsampler,
        SchedulerKind::NonStreaming,
        SchedulerKind::Multiplex(2),
    ];

    /// Instantiates the preset for a machine with `pes` processing
    /// elements.
    pub fn build(&self, pes: usize) -> Box<dyn Scheduler> {
        use stg_buffer::SizingPolicy;
        match self {
            SchedulerKind::StreamingLts => Box::new(StreamingScheduler::new(pes)),
            SchedulerKind::StreamingRlx => {
                Box::new(StreamingScheduler::new(pes).variant(SbVariant::Rlx))
            }
            SchedulerKind::StreamingLtsCyclesOnly => {
                Box::new(StreamingScheduler::new(pes).sizing(SizingPolicy::CyclesOnly))
            }
            SchedulerKind::Elementwise => {
                Box::new(StreamingScheduler::new(pes).partitioner(Partitioner::Elementwise))
            }
            SchedulerKind::Downsampler => {
                Box::new(StreamingScheduler::new(pes).partitioner(Partitioner::Downsampler))
            }
            SchedulerKind::Upsampler => {
                Box::new(StreamingScheduler::new(pes).partitioner(Partitioner::Upsampler))
            }
            SchedulerKind::NonStreaming => Box::new(NonStreamingScheduler::new(pes)),
            SchedulerKind::Multiplex(slots) => Box::new(MultiplexScheduler::new(pes, *slots)),
        }
    }

    /// True for presets that pipeline data over FIFO channels (everything
    /// except the buffered baseline).
    pub fn is_streaming(&self) -> bool {
        !matches!(self, SchedulerKind::NonStreaming)
    }

    /// The canonical short command-line alias (`--scheduler sb-lts`).
    /// Parses back through `FromStr`, like the display name.
    pub fn alias(&self) -> &'static str {
        match self {
            SchedulerKind::StreamingLts => "sb-lts",
            SchedulerKind::StreamingRlx => "sb-rlx",
            SchedulerKind::StreamingLtsCyclesOnly => "sb-lts-cyc",
            SchedulerKind::Elementwise => "elementwise",
            SchedulerKind::Downsampler => "downsampler",
            SchedulerKind::Upsampler => "upsampler",
            SchedulerKind::NonStreaming => "nonstreaming",
            SchedulerKind::Multiplex(slots) => intern_preset(format!("multiplex:{slots}")),
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            SchedulerKind::StreamingLts => "STR-SCH-1",
            SchedulerKind::StreamingRlx => "STR-SCH-2",
            SchedulerKind::StreamingLtsCyclesOnly => "STR-SCH-1-CYC",
            SchedulerKind::Elementwise => "ELW-SCH",
            SchedulerKind::Downsampler => "DSW-SCH",
            SchedulerKind::Upsampler => "USW-SCH",
            SchedulerKind::NonStreaming => "NSTR-SCH",
            SchedulerKind::Multiplex(slots) => return write!(f, "MUX-SCH:{slots}"),
        };
        f.write_str(name)
    }
}

/// Error parsing a [`SchedulerKind`] from a string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseSchedulerError(String);

impl std::fmt::Display for ParseSchedulerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let known: Vec<&str> = SchedulerKind::ALL
            .iter()
            .map(|kind| match kind {
                SchedulerKind::Multiplex(_) => "multiplex:<slots>",
                _ => kind.alias(),
            })
            .collect();
        write!(
            f,
            "unknown scheduler {:?}; known: {}",
            self.0,
            known.join(", ")
        )
    }
}

impl std::error::Error for ParseSchedulerError {}

impl FromStr for SchedulerKind {
    type Err = ParseSchedulerError;

    /// Parses a preset name, case-insensitive. Accepts the display names
    /// ("STR-SCH-1", "NSTR-SCH", "MUX-SCH:4") and the short aliases used
    /// on the command line ("sb-lts", "rlx", "nstr", "multiplex:4",
    /// "mux:4", ...). Bare "multiplex"/"mux" means two slots.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        if let Some(slots) = ["multiplex:", "mux-sch:", "mux:"]
            .iter()
            .find_map(|prefix| lower.strip_prefix(prefix))
        {
            return match slots.parse::<usize>() {
                Ok(n) if n > 0 => Ok(SchedulerKind::Multiplex(n)),
                _ => Err(ParseSchedulerError(s.to_string())),
            };
        }
        match lower.as_str() {
            "multiplex" | "mux" | "mux-sch" => Ok(SchedulerKind::Multiplex(2)),
            "str-sch-1" | "sb-lts" | "lts" => Ok(SchedulerKind::StreamingLts),
            "str-sch-2" | "sb-rlx" | "rlx" => Ok(SchedulerKind::StreamingRlx),
            "str-sch-1-cyc" | "sb-lts-cyc" | "cycles-only" => {
                Ok(SchedulerKind::StreamingLtsCyclesOnly)
            }
            "elw-sch" | "elementwise" | "elw" => Ok(SchedulerKind::Elementwise),
            "dsw-sch" | "downsampler" | "dsw" => Ok(SchedulerKind::Downsampler),
            "usw-sch" | "upsampler" | "usw" => Ok(SchedulerKind::Upsampler),
            "nstr-sch" | "nonstreaming" | "non-streaming" | "nstr" | "baseline" => {
                Ok(SchedulerKind::NonStreaming)
            }
            _ => Err(ParseSchedulerError(s.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg_model::Builder;

    fn chain(n: usize, k: u64) -> CanonicalGraph {
        let mut b = Builder::new();
        let t: Vec<_> = (0..n).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, k);
        b.finish().unwrap()
    }

    #[test]
    fn every_kind_round_trips_through_from_str() {
        // The unknown-preset message is rendered from the registry.
        let message = "nope".parse::<SchedulerKind>().unwrap_err().to_string();
        assert!(message.ends_with(", multiplex:<slots>"), "{message}");
        for kind in SchedulerKind::ALL {
            let display = kind.to_string();
            assert_eq!(display.parse::<SchedulerKind>().unwrap(), kind, "{display}");
            assert_eq!(kind.alias().parse::<SchedulerKind>().unwrap(), kind);
            if !matches!(kind, SchedulerKind::Multiplex(_)) {
                let listed = format!(" {},", kind.alias());
                assert!(message.contains(&listed), "{message}");
            }
        }
    }

    #[test]
    fn built_scheduler_names_match_kind_display() {
        for kind in SchedulerKind::ALL {
            let sched = kind.build(4);
            assert_eq!(sched.name(), kind.to_string(), "{kind:?}");
            assert_eq!(sched.pes(), 4);
        }
    }

    #[test]
    fn every_kind_schedules_a_chain() {
        let g = chain(6, 64);
        for kind in SchedulerKind::ALL {
            let plan = kind.build(3).schedule(&g).expect("schedulable");
            assert!(plan.makespan() > 0, "{kind:?}");
            assert_eq!(plan.pes(), 3);
            assert_eq!(plan.scheduler(), kind.to_string());
            let sim = plan.validate(&g);
            assert!(sim.completed(), "{kind:?}: {:?}", sim.failure);
            // Every plan's PE usage fits the machine.
            let placement = plan.placement(&g);
            assert!(placement.pes_used.iter().all(|&u| u <= 3), "{kind:?}");
        }
    }

    #[test]
    fn multiplex_preset_parses_slot_counts() {
        assert_eq!(
            "multiplex:4".parse::<SchedulerKind>().unwrap(),
            SchedulerKind::Multiplex(4)
        );
        assert_eq!(
            "MUX-SCH:7".parse::<SchedulerKind>().unwrap(),
            SchedulerKind::Multiplex(7)
        );
        assert_eq!(
            "mux".parse::<SchedulerKind>().unwrap(),
            SchedulerKind::Multiplex(2)
        );
        assert!("multiplex:0".parse::<SchedulerKind>().is_err());
        assert!("multiplex:x".parse::<SchedulerKind>().is_err());
        // Interned names are stable pointers: the same slot count always
        // hands out the same &'static str.
        let a = SchedulerKind::Multiplex(3).build(2).name();
        let b = SchedulerKind::Multiplex(3).build(5).name();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "MUX-SCH:3");
        assert_eq!(SchedulerKind::Multiplex(3).alias(), "multiplex:3");
    }

    #[test]
    fn multiplex_schedules_two_tenants_with_transition_cost() {
        // Two disjoint chains = two tenants; two slots = one transition.
        let mut b = Builder::new();
        let t: Vec<_> = (0..4).map(|i| b.compute(format!("a{i}"))).collect();
        b.chain(&t, 64);
        let u: Vec<_> = (0..4).map(|i| b.compute(format!("b{i}"))).collect();
        b.chain(&u, 32);
        let g = b.finish().unwrap();
        let plan = SchedulerKind::Multiplex(2).build(4).schedule(&g).unwrap();
        assert_eq!(plan.scheduler(), "MUX-SCH:2");
        let sim = plan.validate(&g);
        assert!(sim.completed(), "{:?}", sim.failure);
        // One transition at the default cost separates analytic metrics
        // from the simulated schedule.
        assert_eq!(
            plan.makespan(),
            sim.makespan + stg_sched::DEFAULT_TRANSITION_COST
        );
    }

    #[test]
    fn baseline_plan_exposes_no_buffers_and_trivially_validates() {
        let g = chain(4, 32);
        let plan = SchedulerKind::NonStreaming.build(2).schedule(&g).unwrap();
        assert!(plan.buffers().is_none());
        assert!(plan.partition().is_none());
        let sim = plan.validate(&g);
        assert!(sim.completed());
        assert_eq!(sim.makespan, plan.makespan());
    }

    #[test]
    fn streaming_plan_exposes_partition_and_buffers() {
        let g = chain(6, 128);
        let plan = SchedulerKind::StreamingRlx.build(3).schedule(&g).unwrap();
        assert!(plan.buffers().is_some());
        assert!(plan.partition().is_some());
        assert!(plan.block_schedule().is_some());
        assert_eq!(plan.metrics().blocks, plan.partition().unwrap().len());
    }
}
