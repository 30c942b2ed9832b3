//! # stg-analysis
//!
//! Steady-state streaming analysis of canonical task graphs (Section 4 of
//! the paper) and the spatial-block schedule engine (Section 5.1):
//!
//! - [`intervals`] — streaming intervals per Theorem 4.1;
//! - [`level`] — generalized (rational) node levels;
//! - [`depth`] — work `T1`, exact streaming depth `T_s∞`, the Eq. (4)
//!   closed-form bound, and the non-streaming critical path;
//! - [`block`] — `ST`/`FO`/`LO` schedule computation for an ordered
//!   partition into spatial blocks, reproducing the paper's Figure 8 and
//!   Figure 9 tables exactly (see this crate's tests);
//! - [`precedence`] — the compute-task precedence closure the partitioning
//!   heuristics and the list scheduler walk;
//! - [`facts`] — [`GraphFacts`], a graph's scheduler-independent analyses
//!   (depths, topological order, levels, precedence, list priority),
//!   computed once per graph on first use and shared by every cell that
//!   schedules it.

#![warn(missing_docs)]

pub mod block;
pub mod depth;
pub mod facts;
pub mod intervals;
pub mod level;
pub mod precedence;

pub use block::{schedule, BlockStartRule, Partition, Schedule, ScheduleError};
pub use depth::{
    non_streaming_depth, streaming_depth, streaming_depth_bound, work_depth, WorkDepth,
};
pub use facts::GraphFacts;
pub use intervals::{EdgeProducer, StreamingIntervals};
pub use level::{generalized_levels, Levels};
pub use precedence::TaskPrecedence;

#[cfg(test)]
mod tests {
    use super::*;
    use stg_graph::{NodeId, Ratio};
    use stg_model::Builder;

    /// The task graph of Figure 8: a source with O=16 at interval 2 feeding
    /// a down-sampler chain and an up-sampler chain.
    ///
    /// ```text
    ///   0(src,16) ──16──> 1(R=1/4) ──4──> 2(elwise) ──4──> sink
    ///          └───16───> 3(R=2)  ──32──> 4(R=1/4) ──8──> sink
    /// ```
    fn figure8() -> (stg_model::CanonicalGraph, Vec<NodeId>) {
        let mut b = Builder::new();
        let n0 = b.source("0");
        let n1 = b.compute("1");
        let n2 = b.compute("2");
        let n3 = b.compute("3");
        let n4 = b.compute("4");
        let s2 = b.sink("s2");
        let s4 = b.sink("s4");
        b.edge(n0, n1, 16);
        b.edge(n0, n3, 16);
        b.edge(n1, n2, 4);
        b.edge(n3, n4, 32);
        b.edge(n2, s2, 4);
        b.edge(n4, s4, 8);
        (b.finish().unwrap(), vec![n0, n1, n2, n3, n4])
    }

    #[test]
    fn figure8_streaming_intervals() {
        let (g, n) = figure8();
        let iv = StreamingIntervals::for_graph(&g);
        // Max output volume in the WCC is node 3's 32.
        assert_eq!(iv.max_volume(n[1]), Some(32));
        assert_eq!(iv.so(n[1]), Some(Ratio::integer(8)));
        assert_eq!(iv.si(n[1]), Some(Ratio::integer(2)));
        assert_eq!(iv.so(n[2]), Some(Ratio::integer(8)));
        assert_eq!(iv.so(n[3]), Some(Ratio::integer(1)));
        assert_eq!(iv.si(n[3]), Some(Ratio::integer(2)));
        assert_eq!(iv.so(n[4]), Some(Ratio::integer(4)));
        assert_eq!(iv.si(n[4]), Some(Ratio::integer(1)));
    }

    #[test]
    fn figure8_schedule_table() {
        // The paper's exact table:
        //   Task  ST  LO  FO
        //   0      0  31   1
        //   1      1  32   8
        //   2      8  33   9
        //   3      1  33   2
        //   4      2  34   6
        // Node 0 is the memory source; its endpoint times are folded into
        // its consumers, so we check tasks 1..4 and the endpoint-derived
        // values for 0 via edge_producer.
        let (g, n) = figure8();
        let s = schedule(&g, &Partition::single_block(&g)).unwrap();
        let expect = [
            (n[1], 1, 32, 8),
            (n[2], 8, 33, 9),
            (n[3], 1, 33, 2),
            (n[4], 2, 34, 6),
        ];
        for (v, st, lo, fo) in expect {
            assert_eq!(s.st[v.index()], st, "ST of {:?}", v);
            assert_eq!(s.lo[v.index()], lo, "LO of {:?}", v);
            assert_eq!(s.fo[v.index()], fo, "FO of {:?}", v);
        }
        // The source endpoint: FO = 1 and S_o = 2 (paper: FO(0)=1, LO(0)=31).
        let e01 = g
            .dag()
            .edges()
            .find(|(_, e)| e.src == n[0] && e.dst == n[1])
            .map(|(id, _)| id)
            .unwrap();
        let ep = s.edge_producer[e01.index()].unwrap();
        assert_eq!(ep.fo, 1);
        assert_eq!(ep.so, Ratio::integer(2));
        assert_eq!(s.makespan, 34);
    }

    /// Figure 9 graph ①: a producer task 0 feeding a three-stage reducer/
    /// upsampler path and a shortcut edge straight into the join task 4.
    fn figure9_1() -> (stg_model::CanonicalGraph, Vec<NodeId>) {
        let mut b = Builder::new();
        let n0 = b.compute("0");
        let n1 = b.compute("1");
        let n2 = b.compute("2");
        let n3 = b.compute("3");
        let n4 = b.compute("4");
        b.edge(n0, n1, 32);
        b.edge(n1, n2, 4);
        b.edge(n2, n3, 2);
        b.edge(n3, n4, 32);
        b.edge(n0, n4, 32);
        (b.finish().unwrap(), vec![n0, n1, n2, n3, n4])
    }

    #[test]
    fn figure9_graph1_schedule_table() {
        // Paper table: ST/LO/FO = 0:0,32,1  1:1,33,9  2:9,34,18  3:18,50,19
        // 4:19,51,20.
        let (g, n) = figure9_1();
        let s = schedule(&g, &Partition::single_block(&g)).unwrap();
        let expect = [
            (n[0], 0, 32, 1),
            (n[1], 1, 33, 9),
            (n[2], 9, 34, 18),
            (n[3], 18, 50, 19),
            (n[4], 19, 51, 20),
        ];
        for (v, st, lo, fo) in expect {
            assert_eq!(s.st[v.index()], st, "ST of {:?}", v);
            assert_eq!(s.lo[v.index()], lo, "LO of {:?}", v);
            assert_eq!(s.fo[v.index()], fo, "FO of {:?}", v);
        }
        assert_eq!(s.makespan, 51);
    }

    /// Figure 9 graph ②: two producer tasks; the upper path contains a full
    /// reduction (32→1) followed by a full expansion (1→32).
    fn figure9_2() -> (stg_model::CanonicalGraph, Vec<NodeId>) {
        let mut b = Builder::new();
        let n0 = b.compute("0");
        let n1 = b.compute("1");
        let n2 = b.compute("2");
        let n3 = b.compute("3");
        let n4 = b.compute("4");
        let n5 = b.compute("5");
        b.edge(n0, n1, 32);
        b.edge(n1, n2, 1);
        b.edge(n2, n5, 32);
        b.edge(n3, n4, 32);
        b.edge(n4, n5, 32);
        (b.finish().unwrap(), vec![n0, n1, n2, n3, n4, n5])
    }

    #[test]
    fn figure9_graph2_schedule_table() {
        // Paper table: 0:0,32,1  1:1,33,33  2:33,65,34  3:0,32,1  4:1,33,2
        // 5:34,66,35.
        let (g, n) = figure9_2();
        let s = schedule(&g, &Partition::single_block(&g)).unwrap();
        let expect = [
            (n[0], 0, 32, 1),
            (n[1], 1, 33, 33),
            (n[2], 33, 65, 34),
            (n[3], 0, 32, 1),
            (n[4], 1, 33, 2),
            (n[5], 34, 66, 35),
        ];
        for (v, st, lo, fo) in expect {
            assert_eq!(s.st[v.index()], st, "ST of {:?}", v);
            assert_eq!(s.lo[v.index()], lo, "LO of {:?}", v);
            assert_eq!(s.fo[v.index()], fo, "FO of {:?}", v);
        }
        assert_eq!(s.makespan, 66);
    }

    #[test]
    fn elementwise_chain_depth_formula() {
        // Section 4.2.1: an element-wise graph with k elements per edge has
        // T_s∞ = k + L(G) − 1 and non-streaming depth k · L(G).
        let k = 64u64;
        let levels = 5usize;
        let mut b = Builder::new();
        let t: Vec<_> = (0..levels).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, k);
        let g = b.finish().unwrap();
        let wd = work_depth(&g).unwrap();
        assert_eq!(wd.streaming_depth, k + levels as u64 - 1);
        assert_eq!(wd.non_streaming_depth, k * levels as u64);
        assert_eq!(wd.work, k * levels as u64);
    }

    #[test]
    fn downsampler_graph_depth_formula() {
        // Section 4.2.2: with element-wise and down-sampler nodes,
        // T_s∞ = max_v W(v) + L(G) − 1.
        // t0(32) -> d(32→8) -> t1(8) -> d2(8→2) -> t2(2)
        let mut b = Builder::new();
        let t0 = b.compute("t0");
        let d = b.compute("d");
        let t1 = b.compute("t1");
        let d2 = b.compute("d2");
        let t2 = b.compute("t2");
        b.edge(t0, d, 32);
        b.edge(d, t1, 8);
        b.edge(t1, d2, 8);
        b.edge(d2, t2, 2);
        let g = b.finish().unwrap();
        let depth = streaming_depth(&g).unwrap();
        // max W = 32, L(G) = 5.
        assert_eq!(depth, 32 + 5 - 1);
    }

    #[test]
    fn eq4_bound_dominates_exact_depth() {
        let (g, _) = figure9_1();
        let exact = streaming_depth(&g).unwrap();
        let bound = streaming_depth_bound(&g).expect("single WCC, bound applies");
        assert!(
            bound >= exact,
            "Eq.(4) bound {bound} must dominate exact depth {exact}"
        );
    }

    #[test]
    fn two_block_partition_serializes() {
        // Splitting an element-wise chain into two blocks doubles the fill
        // cost: block barrier semantics.
        let k = 32u64;
        let mut b = Builder::new();
        let t: Vec<_> = (0..4).map(|i| b.compute(format!("t{i}"))).collect();
        b.chain(&t, k);
        let g = b.finish().unwrap();
        let one = schedule(&g, &Partition::single_block(&g)).unwrap();
        let two = schedule(
            &g,
            &Partition {
                blocks: vec![vec![t[0], t[1]], vec![t[2], t[3]]],
            },
        )
        .unwrap();
        assert!(two.makespan > one.makespan);
        // Second block starts exactly when the first finishes.
        assert_eq!(two.block_spans[1].0, two.block_spans[0].1);
        // The cross-block edge is not a streaming edge.
        let cross = g
            .dag()
            .edges()
            .find(|(_, e)| e.src == t[1] && e.dst == t[2])
            .map(|(id, _)| id)
            .unwrap();
        assert!(!two.streaming_edge[cross.index()]);
    }

    #[test]
    fn partition_validation_errors() {
        let (g, n) = figure9_1();
        // Missing node.
        let err = schedule(
            &g,
            &Partition {
                blocks: vec![vec![n[0], n[1], n[2], n[3]]],
            },
        )
        .unwrap_err();
        assert_eq!(err, ScheduleError::Uncovered(n[4]));
        // Duplicate node.
        let err = schedule(
            &g,
            &Partition {
                blocks: vec![vec![n[0], n[1], n[2], n[3], n[4], n[0]]],
            },
        )
        .unwrap_err();
        assert_eq!(err, ScheduleError::Duplicated(n[0]));
        // Block order violation: consumer before its producer.
        let err = schedule(
            &g,
            &Partition {
                blocks: vec![vec![n[4], n[3]], vec![n[0], n[1], n[2]]],
            },
        )
        .unwrap_err();
        assert!(matches!(err, ScheduleError::BlockOrderViolation { .. }));
    }

    #[test]
    fn buffer_serializes_within_block() {
        // t0 -> B -> t1 in one block: t1 starts only after t0 completes.
        let mut b = Builder::new();
        let t0 = b.compute("t0");
        let buf = b.buffer("B");
        let t1 = b.compute("t1");
        b.edge(t0, buf, 16);
        b.edge(buf, t1, 16);
        let g = b.finish().unwrap();
        let s = schedule(&g, &Partition::single_block(&g)).unwrap();
        // t0: ST 0, FO 1, LO = ⌈(16−1)·1⌉+1 = 16 (producer of 16 elements).
        assert_eq!(s.lo[t0.index()], 16);
        // Buffer endpoint gate = LO(t0) = 16; its replay has FO = 17 and
        // LO = 16 + ⌈15·1⌉ + 1 = 32, so t1 starts at 17 and finishes at 33.
        assert_eq!(s.st[t1.index()], 17);
        assert_eq!(s.lo[t1.index()], 33);
    }

    #[test]
    fn depth_bound_with_buffers_uses_supernode_dag() {
        // Two streaming components separated by a buffer: the Eq. (4) bound
        // sums along the deepest path of H and dominates the exact depth.
        let mut b = Builder::new();
        let t0 = b.compute("t0");
        let t1 = b.compute("t1");
        let buf = b.buffer("B");
        let t2 = b.compute("t2");
        let t3 = b.compute("t3");
        b.edge(t0, t1, 64);
        b.edge(t1, buf, 64);
        b.edge(buf, t2, 64);
        b.edge(t2, t3, 64);
        let g = b.finish().unwrap();
        let exact = streaming_depth(&g).unwrap();
        let bound = streaming_depth_bound(&g).expect("H is acyclic here");
        assert!(bound >= exact, "bound {bound} < exact {exact}");
        // The buffer serializes the two components: depth well above a
        // single streamed pass.
        assert!(exact > 2 * 64);
    }

    #[test]
    fn non_streaming_depth_ignores_passive_nodes() {
        let mut b = Builder::new();
        let s = b.source("s");
        let t0 = b.compute("t0");
        let buf = b.buffer("B");
        let t1 = b.compute("t1");
        let k = b.sink("k");
        b.edge(s, t0, 32);
        b.edge(t0, buf, 32);
        b.edge(buf, t1, 32);
        b.edge(t1, k, 32);
        let g = b.finish().unwrap();
        // Only the two compute works count: 32 + 32.
        assert_eq!(non_streaming_depth(&g).unwrap(), 64);
    }

    #[test]
    fn utilization_and_busy_time() {
        let (g, _) = figure9_2();
        let s = schedule(&g, &Partition::single_block(&g)).unwrap();
        let busy = s.busy_time(&g);
        assert!(busy > 0);
        let u6 = s.utilization(&g, 6);
        assert!(u6 > 0.0 && u6 <= 1.0);
        assert!(s.utilization(&g, 12) < u6);
    }
}
