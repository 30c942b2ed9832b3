//! The graph order of a sweep grid: the order in which fabric leases walk
//! it, one graph instance after another.
//!
//! The grid order ([`SweepSpec::cases`]) is workload → PE count →
//! scheduler → seed. A contiguous index range therefore holds many graph
//! instances, each at one (PE count, scheduler) *stripe*, and a pass over
//! it shares no analysis and no simulation between its cells. The graph
//! order keeps the workload blocks but walks each block seed-major:
//! position `seed offset × stripes + stripe` of a block is the case at
//! grid index `stripe × runs + seed offset`, where `stripes` is the
//! block's PE counts × schedulers and `runs` its seeds
//! ([`SweepSpec::runs_per_cell`]). The `stripes` positions from each
//! multiple of `stripes` are the cells of one graph instance, so a range
//! cut at these *graph boundaries* holds whole graphs, and one graph-major
//! pass evaluates each of them once. A block of an unseeded workload (one
//! run per stripe) is one graph, in grid order.
//!
//! Positions and grid indices both run over `0..total`, and a case keeps
//! its grid index whatever position named it, so rows, artifacts and
//! cell keys do not depend on the order that produced them.

use std::ops::Range;

use crate::engine::{Case, SweepSpec};

/// The graph order of one grid: the grid index of each position, and the
/// graph boundaries between positions.
#[derive(Clone, Debug)]
pub struct GraphOrder {
    /// The non-empty workload blocks, in grid order.
    blocks: Vec<Block>,
}

/// One workload's block: the same positions as grid indices.
#[derive(Clone, Copy, Debug)]
struct Block {
    /// The workload's index in the spec.
    workload: usize,
    /// The block's first position.
    start: usize,
    /// One past its last position.
    end: usize,
    /// PE counts × schedulers: the cells of one graph instance.
    stripes: usize,
    /// Seeds per stripe.
    runs: usize,
}

impl Block {
    /// The grid index of the block's position `pos`.
    fn index(&self, pos: usize) -> usize {
        let rel = pos - self.start;
        self.start + (rel % self.stripes) * self.runs + rel / self.stripes
    }

    /// The last graph boundary at or before `pos`.
    fn floor(&self, pos: usize) -> usize {
        self.start + (pos - self.start) / self.stripes * self.stripes
    }

    /// The first graph boundary at or after `pos`.
    fn ceil(&self, pos: usize) -> usize {
        self.start + (pos - self.start).div_ceil(self.stripes) * self.stripes
    }
}

impl GraphOrder {
    /// The graph order of `spec`'s grid.
    pub fn of(spec: &SweepSpec) -> GraphOrder {
        let blocks = spec
            .blocks()
            .enumerate()
            .filter(|(_, (_, range))| !range.is_empty())
            .map(|(workload, (w, range))| Block {
                workload,
                start: range.start,
                end: range.end,
                stripes: w.pes.len() * spec.schedulers.len(),
                runs: spec.runs_per_cell(&w.workload) as usize,
            })
            .collect();
        GraphOrder { blocks }
    }

    /// The block holding `pos`, if `pos` is inside the grid.
    fn block(&self, pos: usize) -> Option<&Block> {
        self.blocks
            .get(self.blocks.partition_point(|b| b.end <= pos))
    }

    /// The grid index of position `pos`, which must be inside the grid.
    pub fn index(&self, pos: usize) -> usize {
        self.block(pos)
            .expect("a position inside the grid")
            .index(pos)
    }

    /// The last graph boundary at or before `pos`; `pos` itself at or
    /// past the end of the grid.
    pub fn graph_start(&self, pos: usize) -> usize {
        self.block(pos).map_or(pos, |b| b.floor(pos))
    }

    /// The first graph boundary at or after `pos`; `pos` itself at or
    /// past the end of the grid.
    pub fn graph_end(&self, pos: usize) -> usize {
        self.block(pos).map_or(pos, |b| b.ceil(pos))
    }
}

impl SweepSpec {
    /// The cases at graph-order positions `range` ([`GraphOrder`]), in
    /// position order, each carrying its grid index: `self.cases()` at
    /// the mapped indices, in O(range length + workloads). Fabric workers
    /// expand their graph-order leases with it.
    pub fn graph_cases(&self, range: Range<usize>) -> Vec<Case> {
        let mut out = Vec::with_capacity(range.len());
        for block in GraphOrder::of(self).blocks {
            let w = &self.workloads[block.workload];
            for pos in range.start.max(block.start)..range.end.min(block.end) {
                out.push(self.case_at(w, block.start, block.index(pos)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WorkloadSpec;

    /// chain:8 over 2 PE counts × 3 schedulers (6 stripes) and 3 seeds,
    /// then fft over one PE count (3 stripes).
    fn spec() -> SweepSpec {
        let mut spec = SweepSpec::paper(3, 1);
        spec.workloads = vec![
            WorkloadSpec {
                workload: "chain:8".parse().unwrap(),
                pes: vec![2, 4],
            },
            WorkloadSpec {
                workload: "fft:8".parse().unwrap(),
                pes: vec![8],
            },
        ];
        spec
    }

    #[test]
    fn positions_walk_each_block_graph_by_graph() {
        let spec = spec();
        let order = GraphOrder::of(&spec);
        // The first graph of chain:8 is seed 1 at its 6 stripes: grid
        // indices 0, 3, 6, 9, 12, 15.
        let first: Vec<usize> = (0..6).map(|p| order.index(p)).collect();
        assert_eq!(first, [0, 3, 6, 9, 12, 15]);
        assert_eq!(order.index(6), 1);
        // fft's block starts at 18 and holds 3 stripes × 3 seeds.
        assert_eq!(order.index(18), 18);
        assert_eq!(order.index(19), 21);
        assert_eq!(order.index(21), 19);
        let cases = spec.graph_cases(0..6);
        assert!(cases.iter().all(|c| c.seed == 1));
        assert_eq!(cases.iter().map(|c| c.index).collect::<Vec<_>>(), first);
    }

    #[test]
    fn boundaries_fall_on_whole_graphs_of_each_block() {
        let order = GraphOrder::of(&spec());
        let total = spec().total_cases();
        assert_eq!(total, 27);
        assert_eq!(order.graph_end(0), 0);
        assert_eq!(order.graph_end(1), 6);
        assert_eq!(order.graph_end(13), 18);
        assert_eq!(order.graph_start(17), 12);
        // Block boundaries are graph boundaries, whatever the stripes.
        assert_eq!(order.graph_end(18), 18);
        assert_eq!(order.graph_end(19), 21);
        assert_eq!(order.graph_start(26), 24);
        assert_eq!(order.graph_end(25), 27);
        assert_eq!((order.graph_start(27), order.graph_end(27)), (27, 27));
    }
}
