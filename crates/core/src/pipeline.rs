//! End-to-end scheduling pipelines.

use stg_analysis::{GraphFacts, Partition, Schedule, ScheduleError};
use stg_buffer::{buffer_sizes, BufferPlan, SizingPolicy};
use stg_des::{simulate_kind, SimConfig, SimKind, SimResult};
use stg_model::CanonicalGraph;
use stg_sched::{
    compute_metrics, downsampler_blocks, elementwise_blocks, list_schedule, multiplex_layout,
    schedule_blocks, spatial_blocks, upsampler_blocks, ListSchedule, Metrics, SbVariant,
    StreamingResult, DEFAULT_TRANSITION_COST,
};

/// Which partitioning algorithm a [`StreamingScheduler`] runs before
/// scheduling: Algorithm 1 (the default, in its configured
/// [`SbVariant`]) or one of the appendix partitioners.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Partitioner {
    /// Algorithm 1 spatial-block partitioning (SB-LTS / SB-RLX).
    #[default]
    SpatialBlock,
    /// Theorem A.1's level-order partitioner for element-wise graphs.
    Elementwise,
    /// Algorithm 2's work-ordered partitioner for down-sampler graphs.
    Downsampler,
    /// The symmetric work-ordered partitioner for up-sampler graphs.
    Upsampler,
}

/// Configurable streaming scheduler (the paper's STR-SCH).
#[derive(Clone, Copy, Debug)]
pub struct StreamingScheduler {
    pes: usize,
    variant: SbVariant,
    partitioner: Partitioner,
    sizing: SizingPolicy,
}

impl StreamingScheduler {
    /// A scheduler for a device with `pes` processing elements, using the
    /// SB-LTS partitioning variant and converging-node buffer sizing.
    /// Blocks are gang-scheduled, and channels that Eq. (5) leaves unsized
    /// get capacity 1.
    pub fn new(pes: usize) -> Self {
        StreamingScheduler {
            pes,
            variant: SbVariant::Lts,
            partitioner: Partitioner::SpatialBlock,
            sizing: SizingPolicy::Converging,
        }
    }

    /// Selects the Algorithm 1 variant (SB-LTS or SB-RLX).
    pub fn variant(mut self, variant: SbVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Selects the partitioning algorithm run before scheduling.
    pub fn partitioner(mut self, partitioner: Partitioner) -> Self {
        self.partitioner = partitioner;
        self
    }

    /// Selects the buffer sizing policy.
    pub fn sizing(mut self, sizing: SizingPolicy) -> Self {
        self.sizing = sizing;
        self
    }

    /// The machine size this scheduler targets.
    pub fn pes(&self) -> usize {
        self.pes
    }

    /// The display name of the configured preset ("STR-SCH-1" for SB-LTS,
    /// "STR-SCH-2" for SB-RLX, `-CYC` for cycles-only buffer sizing, or the
    /// appendix-partitioner names).
    pub fn preset_name(&self) -> &'static str {
        match self.partitioner {
            Partitioner::Elementwise => "ELW-SCH",
            Partitioner::Downsampler => "DSW-SCH",
            Partitioner::Upsampler => "USW-SCH",
            Partitioner::SpatialBlock => match (self.variant, self.sizing) {
                (SbVariant::Lts, SizingPolicy::Converging) => "STR-SCH-1",
                (SbVariant::Lts, SizingPolicy::CyclesOnly) => "STR-SCH-1-CYC",
                (SbVariant::Rlx, SizingPolicy::Converging) => "STR-SCH-2",
                (SbVariant::Rlx, SizingPolicy::CyclesOnly) => "STR-SCH-2-CYC",
            },
        }
    }

    /// Runs partitioning, scheduling, and buffer sizing.
    pub fn run(&self, g: &CanonicalGraph) -> Result<StreamingPlan, ScheduleError> {
        self.plan(&GraphFacts::new(g))
    }

    /// [`Self::run`] over a graph's shared facts.
    pub(crate) fn plan(&self, facts: &GraphFacts<'_>) -> Result<StreamingPlan, ScheduleError> {
        let partition = match self.partitioner {
            Partitioner::SpatialBlock => spatial_blocks(facts, self.pes, self.variant),
            Partitioner::Elementwise => elementwise_blocks(facts, self.pes),
            Partitioner::Downsampler => downsampler_blocks(facts, self.pes),
            Partitioner::Upsampler => upsampler_blocks(facts, self.pes),
        };
        self.plan_partition(facts, partition)
    }

    /// Runs scheduling and buffer sizing for a caller-provided partition
    /// (e.g. from the Theorem A.1 / Algorithm 2 partitioners).
    pub fn run_with_partition(
        &self,
        g: &CanonicalGraph,
        partition: Partition,
    ) -> Result<StreamingPlan, ScheduleError> {
        self.plan_partition(&GraphFacts::new(g), partition)
    }

    fn plan_partition(
        &self,
        facts: &GraphFacts<'_>,
        partition: Partition,
    ) -> Result<StreamingPlan, ScheduleError> {
        let g = facts.graph();
        let result = schedule_blocks(facts, self.pes, partition)?;
        let buffers = buffer_sizes(g, &result.schedule, self.sizing, 1);
        Ok(StreamingPlan {
            pes: self.pes,
            result,
            buffers,
        })
    }
}

/// A complete streaming execution plan: partition, schedule, metrics, and
/// FIFO buffer sizes.
#[derive(Clone, Debug)]
pub struct StreamingPlan {
    /// Machine size the plan was computed for.
    pub pes: usize,
    /// Partition, schedule and metrics.
    pub result: StreamingResult,
    /// FIFO capacities per edge (Section 6).
    pub buffers: BufferPlan,
}

impl StreamingPlan {
    /// The schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.result.schedule
    }

    /// The evaluation metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.result.metrics
    }

    /// Validates the plan by element-level discrete event simulation with
    /// the computed buffer sizes, using the reference simulator.
    pub fn validate(&self, g: &CanonicalGraph) -> SimResult {
        self.validate_with(g, SimKind::Reference)
    }

    /// [`Self::validate`] with an explicit simulator choice. The batched
    /// simulator produces bit-identical results at a fraction of the
    /// wall-clock cost — cheap enough to validate every cell of a sweep.
    pub fn validate_with(&self, g: &CanonicalGraph, sim: SimKind) -> SimResult {
        simulate_kind(
            sim,
            g,
            &self.result.schedule,
            &self.buffers,
            SimConfig::default(),
        )
    }

    /// Renders the plan as a human-readable report: per-block task tables
    /// (the paper's Figure 8 format) plus the sized FIFO channels.
    pub fn describe(&self, g: &CanonicalGraph) -> String {
        use std::fmt::Write;
        let s = &self.result.schedule;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "streaming plan: {} tasks in {} spatial blocks on {} PEs, makespan {}",
            g.compute_count(),
            self.result.partition.len(),
            self.pes,
            s.makespan
        );
        for (bi, block) in self.result.partition.blocks.iter().enumerate() {
            let (start, end) = s.block_spans[bi];
            let _ = writeln!(out, "block {bi} [{start}..{end}] ({} tasks)", block.len());
            let _ = writeln!(
                out,
                "  {:<20} {:>8} {:>8} {:>8}  S_o",
                "task", "ST", "FO", "LO"
            );
            let mut members = block.clone();
            members.sort_by_key(|v| s.st[v.index()]);
            for v in members {
                let so = s.so[v.index()]
                    .map(|r| r.to_string())
                    .unwrap_or_else(|| "-".into());
                let _ = writeln!(
                    out,
                    "  {:<20} {:>8} {:>8} {:>8}  {}",
                    truncate(&g.node(v).name, 20),
                    s.st[v.index()],
                    s.fo[v.index()],
                    s.lo[v.index()],
                    so
                );
            }
        }
        if self.buffers.sized.is_empty() {
            let _ = writeln!(
                out,
                "no skew-sized channels (all FIFOs at default capacity)"
            );
        } else {
            let _ = writeln!(out, "sized FIFO channels:");
            for &(e, cap, kind) in &self.buffers.sized {
                let edge = g.dag().edge(e);
                let _ = writeln!(
                    out,
                    "  {} -> {}: {} elements ({:?})",
                    g.node(edge.src).name,
                    g.node(edge.dst).name,
                    cap,
                    kind
                );
            }
        }
        out
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let cut: String = s.chars().take(n - 1).collect();
        format!("{cut}…")
    }
}

/// The buffered-communication baseline scheduler (the paper's NSTR-SCH).
#[derive(Clone, Copy, Debug)]
pub struct NonStreamingScheduler {
    pes: usize,
}

impl NonStreamingScheduler {
    /// A baseline scheduler for `pes` processing elements.
    pub fn new(pes: usize) -> Self {
        NonStreamingScheduler { pes }
    }

    /// The machine size this scheduler targets.
    pub fn pes(&self) -> usize {
        self.pes
    }

    /// Runs critical-path list scheduling with insertion.
    pub fn run(&self, g: &CanonicalGraph) -> NonStreamingPlan {
        self.plan(&GraphFacts::new(g))
    }

    /// [`Self::run`] over a graph's shared facts.
    pub(crate) fn plan(&self, facts: &GraphFacts<'_>) -> NonStreamingPlan {
        let g = facts.graph();
        let schedule = list_schedule(facts, self.pes);
        let t_inf = facts.streaming_depth().unwrap_or(0);
        let t_nstr = facts.non_streaming_depth().unwrap_or(0);
        let metrics = compute_metrics(
            g,
            schedule.makespan,
            schedule.utilization(g, self.pes),
            1,
            t_inf,
            t_nstr,
        );
        NonStreamingPlan { schedule, metrics }
    }
}

/// The baseline's schedule and metrics.
#[derive(Clone, Debug)]
pub struct NonStreamingPlan {
    /// Task start/finish times and PE assignments.
    pub schedule: ListSchedule,
    /// Evaluation metrics (SLR rather than SSLR is the meaningful ratio).
    pub metrics: Metrics,
}

/// The temporal-multiplexing scheduler (MUX-SCH): packs several tenants'
/// graphs — the weakly connected components of the compute-task
/// precedence DAG — into time slots by LPT on total work, cuts each
/// tenant into level-ordered spatial blocks, and charges
/// [`DEFAULT_TRANSITION_COST`] per slot switch (device reconfiguration
/// between tenant groups) on top of the streaming makespan.
///
/// The transition cost inflates only the plan's *metrics*; the schedule
/// and buffer sizes are exactly what the streaming pipeline produces for
/// the slot-major partition, so simulation still validates the schedule
/// itself.
#[derive(Clone, Copy, Debug)]
pub struct MultiplexScheduler {
    pes: usize,
    slots: usize,
}

impl MultiplexScheduler {
    /// A scheduler for `pes` processing elements multiplexing tenants
    /// over `slots` time slots (clamped to at least one), charging
    /// [`DEFAULT_TRANSITION_COST`] per slot transition.
    pub fn new(pes: usize, slots: usize) -> Self {
        MultiplexScheduler {
            pes,
            slots: slots.max(1),
        }
    }

    /// The machine size this scheduler targets.
    pub fn pes(&self) -> usize {
        self.pes
    }

    /// The number of time slots tenants are packed into.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Runs tenant packing, streaming scheduling, buffer sizing, and the
    /// transition-cost adjustment.
    pub fn run(&self, g: &CanonicalGraph) -> Result<StreamingPlan, ScheduleError> {
        self.plan(&GraphFacts::new(g))
    }

    /// [`Self::run`] over a graph's shared facts.
    pub(crate) fn plan(&self, facts: &GraphFacts<'_>) -> Result<StreamingPlan, ScheduleError> {
        let g = facts.graph();
        let layout = multiplex_layout(facts, self.pes, self.slots);
        let transitions = layout.transitions();
        let mut result = schedule_blocks(facts, self.pes, layout.partition)?;
        let buffers = buffer_sizes(g, &result.schedule, SizingPolicy::Converging, 1);
        let extra = DEFAULT_TRANSITION_COST * transitions;
        if extra > 0 {
            let old = result.metrics.makespan;
            let makespan = old + extra;
            // Utilization is busy/(P·makespan): rescale to the stretched
            // span so the derived metrics stay self-consistent.
            let utilization =
                result.schedule.utilization(g, self.pes) * old as f64 / makespan as f64;
            let t_inf = facts.streaming_depth().unwrap_or(0);
            let t_nstr = facts.non_streaming_depth().unwrap_or(0);
            result.metrics = compute_metrics(
                g,
                makespan,
                utilization,
                result.partition.len(),
                t_inf,
                t_nstr,
            );
        }
        Ok(StreamingPlan {
            pes: self.pes,
            result,
            buffers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg_model::Builder;

    fn chain_graph(n: usize, k: u64) -> CanonicalGraph {
        let mut b = Builder::new();
        let t: Vec<_> = (0..n).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, k);
        b.finish().unwrap()
    }

    #[test]
    fn full_pipeline_runs_and_validates() {
        let g = chain_graph(8, 128);
        for variant in [SbVariant::Lts, SbVariant::Rlx] {
            let plan = StreamingScheduler::new(4).variant(variant).run(&g).unwrap();
            assert!(plan.metrics().speedup > 1.0);
            let sim = plan.validate(&g);
            assert!(sim.completed(), "{variant}: {:?}", sim.failure);
            assert_eq!(sim.makespan, plan.metrics().makespan);
        }
    }

    #[test]
    fn baseline_matches_sequential_on_chains() {
        let g = chain_graph(8, 128);
        let plan = NonStreamingScheduler::new(8).run(&g);
        assert_eq!(plan.metrics.makespan, g.sequential_time());
        assert!((plan.metrics.speedup - 1.0).abs() < 1e-12);
        assert!((plan.metrics.slr - 1.0).abs() < 1e-12);
    }

    #[test]
    fn custom_partition_accepted() {
        use stg_sched::elementwise_partition;
        let g = chain_graph(6, 64);
        let part = elementwise_partition(&g, 2);
        let plan = StreamingScheduler::new(2)
            .run_with_partition(&g, part)
            .unwrap();
        assert!(plan.metrics().blocks >= 3);
        let sim = plan.validate(&g);
        assert!(sim.completed());
    }

    #[test]
    fn describe_renders_blocks_and_channels() {
        // Figure 9 ①-shaped graph so a sized channel appears.
        let mut b = Builder::new();
        let n: Vec<_> = (0..5).map(|i| b.compute(format!("task{i}"))).collect();
        b.edge(n[0], n[1], 32);
        b.edge(n[1], n[2], 4);
        b.edge(n[2], n[3], 2);
        b.edge(n[3], n[4], 32);
        b.edge(n[0], n[4], 32);
        let g = b.finish().unwrap();
        let plan = StreamingScheduler::new(8).run(&g).unwrap();
        let report = plan.describe(&g);
        assert!(report.contains("block 0"));
        assert!(report.contains("task0"));
        assert!(report.contains("18 elements"), "report:\n{report}");
        assert!(report.contains("makespan 51"));
    }

    #[test]
    fn multiplex_charges_transitions_but_validates() {
        // Two disjoint tenant chains in one canonical graph.
        let mut b = Builder::new();
        let a: Vec<_> = (0..4).map(|i| b.compute(format!("a{i}"))).collect();
        b.chain(&a, 64);
        let c: Vec<_> = (0..4).map(|i| b.compute(format!("b{i}"))).collect();
        b.chain(&c, 32);
        let g = b.finish().unwrap();
        let plan = MultiplexScheduler::new(4, 2).run(&g).unwrap();
        // Two tenants, two slots → one transition charged on the metrics
        // but not on the simulated schedule.
        let sim = plan.validate(&g);
        assert!(sim.completed(), "{:?}", sim.failure);
        assert_eq!(
            plan.metrics().makespan,
            sim.makespan + DEFAULT_TRANSITION_COST
        );
        // Single-tenant graphs pay nothing: metrics match the simulator.
        let single = chain_graph(6, 64);
        let plan = MultiplexScheduler::new(3, 4).run(&single).unwrap();
        let sim = plan.validate(&single);
        assert!(sim.completed());
        assert_eq!(plan.metrics().makespan, sim.makespan);
    }

    #[test]
    fn streaming_wins_on_the_paper_suite_smoke() {
        use stg_workloads::{generate, Topology};
        let g = generate(Topology::GaussianElimination { m: 8 }, 11);
        let p = 16;
        let s = StreamingScheduler::new(p).run(&g).unwrap();
        let n = NonStreamingScheduler::new(p).run(&g);
        // Streaming is allowed to tie but typically wins; it must never be
        // *worse* than 2x the baseline on these workloads.
        assert!(s.metrics().makespan as f64 <= 2.0 * n.metrics.makespan as f64);
    }
}
