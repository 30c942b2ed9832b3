//! Graph-only facts: the analyses of a canonical task graph that do not
//! depend on the machine size or the scheduler.
//!
//! An evaluation grid schedules every graph at several PE counts with
//! several schedulers. The streaming depth `T_s∞` and the non-streaming
//! depth (Section 4.2), the topological order, the node levels, the
//! compute-task precedence and the list scheduler's priority order are the
//! same for all of those cells. A [`GraphFacts`] computes each of them on
//! first use and hands the same value to every later reader, so a caller
//! that keeps one `GraphFacts` per graph pays for each analysis once per
//! graph instead of once per cell. Nothing is computed up front: a graph
//! scheduled once costs what a direct call of the underlying analyses
//! costs.

use std::cell::OnceCell;

use stg_graph::{bottom_levels, levels, topological_order, NodeId};
use stg_model::CanonicalGraph;

use crate::block::{schedule_facts, Partition, Schedule, ScheduleError};
use crate::depth::non_streaming_depth;
use crate::precedence::TaskPrecedence;

/// A canonical task graph with its lazily computed graph-only facts.
///
/// Single-threaded by design (the cells are [`OnceCell`]s): one owner
/// evaluates one graph's cells in sequence.
pub struct GraphFacts<'g> {
    graph: &'g CanonicalGraph,
    order: OnceCell<Result<Order, ScheduleError>>,
    levels: OnceCell<Vec<u32>>,
    precedence: OnceCell<TaskPrecedence>,
    priority: OnceCell<Vec<NodeId>>,
    streaming_depth: OnceCell<Result<u64, ScheduleError>>,
    non_streaming_depth: OnceCell<Result<u64, ScheduleError>>,
}

/// A topological order and each node's position in it.
struct Order {
    nodes: Vec<NodeId>,
    position: Vec<u32>,
}

impl<'g> GraphFacts<'g> {
    /// Facts of `graph`, none computed yet.
    pub fn new(graph: &'g CanonicalGraph) -> GraphFacts<'g> {
        GraphFacts {
            graph,
            order: OnceCell::new(),
            levels: OnceCell::new(),
            precedence: OnceCell::new(),
            priority: OnceCell::new(),
            streaming_depth: OnceCell::new(),
            non_streaming_depth: OnceCell::new(),
        }
    }

    /// The graph these facts describe.
    pub fn graph(&self) -> &'g CanonicalGraph {
        self.graph
    }

    fn order(&self) -> Result<&Order, ScheduleError> {
        self.order
            .get_or_init(|| {
                let nodes =
                    topological_order(self.graph.dag()).map_err(|_| ScheduleError::Cyclic)?;
                let mut position = vec![0u32; nodes.len()];
                for (i, v) in nodes.iter().enumerate() {
                    position[v.index()] = i as u32;
                }
                Ok(Order { nodes, position })
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The deterministic (Kahn, ties by node id) topological order of the
    /// graph's nodes.
    pub(crate) fn topological_order(&self) -> Result<&[NodeId], ScheduleError> {
        self.order().map(|o| o.nodes.as_slice())
    }

    /// Each node's index in [`Self::topological_order`].
    pub(crate) fn topological_positions(&self) -> Result<&[u32], ScheduleError> {
        self.order().map(|o| o.position.as_slice())
    }

    /// Classic integer levels per node (sources at level 1), the tie-break
    /// of every partitioner.
    ///
    /// # Panics
    /// Panics if the graph is cyclic.
    pub fn levels(&self) -> &[u32] {
        self.levels.get_or_init(|| {
            levels(self.graph.dag())
                .expect("canonical graphs are acyclic")
                .0
        })
    }

    /// The compute-task precedence DAG.
    ///
    /// # Panics
    /// Panics if the graph is cyclic.
    pub fn precedence(&self) -> &TaskPrecedence {
        self.precedence
            .get_or_init(|| TaskPrecedence::build(self.graph))
    }

    /// The precedence-DAG tasks by descending bottom level (each task
    /// costing its work `W(v)`, at least 1), ties by ascending original
    /// node id: the critical-path priority of the buffered list scheduler.
    /// Because every task costs at least 1, a task's bottom level strictly
    /// exceeds its successors', so this is also a topological order of the
    /// precedence DAG.
    ///
    /// # Panics
    /// Panics if the graph is cyclic.
    pub fn priority_order(&self) -> &[NodeId] {
        self.priority.get_or_init(|| {
            let g = self.graph;
            let prec = self.precedence();
            let bl = bottom_levels(&prec.dag, |t| g.work(prec.original(t)).max(1))
                .expect("precedence graph is acyclic");
            let mut order: Vec<NodeId> = prec.dag.node_ids().collect();
            order.sort_by_key(|t| (std::cmp::Reverse(bl[t.index()]), prec.original(*t).0));
            order
        })
    }

    /// The exact streaming depth `T_s∞`: the makespan of the whole graph
    /// scheduled as one spatial block (see [`crate::streaming_depth`]).
    pub fn streaming_depth(&self) -> Result<u64, ScheduleError> {
        self.streaming_depth
            .get_or_init(|| {
                if self.graph.compute_count() == 0 {
                    return Ok(0);
                }
                let block = Partition::single_block(self.graph);
                Ok(self.schedule(&block)?.makespan)
            })
            .clone()
    }

    /// The non-streaming depth: the critical path under buffered
    /// communication (see [`crate::non_streaming_depth`]).
    pub fn non_streaming_depth(&self) -> Result<u64, ScheduleError> {
        self.non_streaming_depth
            .get_or_init(|| non_streaming_depth(self.graph))
            .clone()
    }

    /// The `ST/FO/LO` schedule of the graph under `partition` (see
    /// [`crate::schedule`]), reusing the shared topological order.
    pub fn schedule(&self, partition: &Partition) -> Result<Schedule, ScheduleError> {
        schedule_facts(self, partition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{schedule, streaming_depth};
    use stg_model::Builder;

    /// A source feeding t0, whose output streams to `a` and is buffered
    /// for `t1`.
    fn buffered_fork() -> CanonicalGraph {
        let mut b = Builder::new();
        let src = b.source("src");
        let t0 = b.compute("t0");
        let a = b.compute("a");
        let buf = b.buffer("buf");
        let t1 = b.compute("t1");
        let ka = b.sink("ka");
        let k1 = b.sink("k1");
        b.edge(src, t0, 16);
        b.edge(t0, a, 16);
        b.edge(t0, buf, 16);
        b.edge(buf, t1, 16);
        b.edge(a, ka, 16);
        b.edge(t1, k1, 16);
        b.finish().unwrap()
    }

    #[test]
    fn facts_equal_the_direct_analyses() {
        let g = buffered_fork();
        let facts = GraphFacts::new(&g);
        assert_eq!(
            facts.topological_order().unwrap(),
            topological_order(g.dag()).unwrap().as_slice()
        );
        for (i, v) in facts.topological_order().unwrap().iter().enumerate() {
            assert_eq!(facts.topological_positions().unwrap()[v.index()], i as u32);
        }
        assert_eq!(facts.levels(), levels(g.dag()).unwrap().0.as_slice());
        assert_eq!(facts.streaming_depth(), streaming_depth(&g));
        assert_eq!(facts.non_streaming_depth(), non_streaming_depth(&g));
        let prec = TaskPrecedence::build(&g);
        assert_eq!(facts.precedence().dag.edge_count(), prec.dag.edge_count());
        assert_eq!(facts.precedence().task_of, prec.task_of);
        let part = Partition {
            blocks: vec![
                g.compute_nodes().take(2).collect(),
                g.compute_nodes().skip(2).collect(),
            ],
        };
        let via_facts = facts.schedule(&part).unwrap();
        let direct = schedule(&g, &part).unwrap();
        assert_eq!((via_facts.st, via_facts.lo), (direct.st, direct.lo));
        assert_eq!(via_facts.makespan, direct.makespan);
    }

    #[test]
    fn priority_order_is_critical_path_first_and_topological() {
        let g = buffered_fork();
        let facts = GraphFacts::new(&g);
        let prec = facts.precedence();
        let order = facts.priority_order();
        assert_eq!(order.len(), g.compute_count());
        let mut seen = vec![false; prec.dag.node_count()];
        for &t in order {
            assert!(prec.dag.predecessors(t).all(|u| seen[u.index()]));
            seen[t.index()] = true;
        }
        // t0 precedes every other task, so its bottom level is the largest.
        assert_eq!(prec.original(order[0]), g.compute_nodes().next().unwrap());
    }
}
