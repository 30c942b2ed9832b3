//! The non-streaming baseline scheduler (NSTR-SCH, Section 7).
//!
//! A classical critical-path list scheduler for homogeneous PEs with
//! bottom-level priorities (CP/MISF-like, Kasahara & Narita) and
//! insertion-based slot allocation. All communications are buffered: a task
//! may start only when all of its predecessors have finished, and its
//! execution time is its work `W(v) = max(I(v), O(v))` — the time to read
//! its inputs from and write its outputs to global memory at one element
//! per cycle. No extra communication latency is charged, which is the most
//! favourable assumption for the baseline (its SLR reaches 1 with enough
//! PEs, as in the paper).

use stg_analysis::GraphFacts;
use stg_model::CanonicalGraph;

/// A non-streaming (buffered-communication) schedule.
#[derive(Clone, Debug)]
pub struct ListSchedule {
    /// Start time per original node id (compute nodes only; others 0).
    pub start: Vec<u64>,
    /// Finish time per original node id.
    pub finish: Vec<u64>,
    /// Assigned PE per original node id (compute nodes only).
    pub pe: Vec<u32>,
    /// Schedule length.
    pub makespan: u64,
    /// Number of PEs used by the schedule (≤ the machine size).
    pub pes_used: usize,
}

impl ListSchedule {
    /// PE utilization: total work over `p · makespan`.
    pub fn utilization(&self, g: &CanonicalGraph, p: usize) -> f64 {
        if self.makespan == 0 || p == 0 {
            return 0.0;
        }
        g.sequential_time() as f64 / (p as f64 * self.makespan as f64)
    }
}

/// Schedules `g`'s compute tasks on `p` homogeneous PEs with buffered
/// communication ([`list_schedule`] on freshly analysed facts).
///
/// # Panics
/// Panics if `p == 0` or the graph is cyclic.
pub fn non_streaming_schedule(g: &CanonicalGraph, p: usize) -> ListSchedule {
    list_schedule(&GraphFacts::new(g), p)
}

/// The buffered list schedule over a graph's shared precedence and
/// bottom-level priority order ([`GraphFacts::priority_order`], also a
/// topological order of the precedence DAG).
///
/// # Panics
/// Panics if `p == 0` or the graph is cyclic.
pub fn list_schedule(facts: &GraphFacts<'_>, p: usize) -> ListSchedule {
    assert!(p > 0, "need at least one processing element");
    let g = facts.graph();
    let prec = facts.precedence();
    let tdag = &prec.dag;

    let n = g.dag().node_count();
    let mut start = vec![0u64; n];
    let mut finish = vec![0u64; n];
    let mut pe_of = vec![0u32; n];

    // Per-PE busy intervals, sorted by start; plus the end of the last one.
    let mut busy: Vec<Vec<(u64, u64)>> = vec![Vec::new(); p];
    let mut avail: Vec<u64> = vec![0; p];
    // Min-heap of (avail, pe) with lazy invalidation, for the fast path.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> =
        (0..p as u32).map(|i| Reverse((0, i))).collect();

    let mut makespan = 0u64;
    let mut pes_used = 0usize;

    for &t in facts.priority_order() {
        let v = prec.original(t);
        let w = g.work(v).max(1);
        let ready = tdag
            .predecessors(t)
            .map(|u| finish[prec.original(u).index()])
            .max()
            .unwrap_or(0);

        // Fast path: a PE that is idle at `ready` gives the optimal start.
        let mut chosen: Option<(u64, u32)> = None;
        // Peek at the least-available PE (validating lazily).
        while let Some(&Reverse((a, pe))) = heap.peek() {
            if a != avail[pe as usize] {
                heap.pop();
                heap.push(Reverse((avail[pe as usize], pe)));
                continue;
            }
            if a <= ready {
                chosen = Some((ready, pe));
            }
            break;
        }
        // Slow path: all PEs busy past `ready`; look for the earliest
        // insertion slot (gap) across PEs.
        let (st, pe) = match chosen {
            Some(c) => c,
            None => {
                let mut best: Option<(u64, u32)> = None;
                'pes: for pe in 0..p as u32 {
                    let list = &busy[pe as usize];
                    let mut cursor = ready;
                    for &(bs, be) in list {
                        if cursor + w <= bs {
                            break; // gap found before this interval
                        }
                        cursor = cursor.max(be);
                    }
                    let cand = cursor;
                    if best.is_none_or(|(bs, _)| cand < bs) {
                        best = Some((cand, pe));
                        if cand == ready {
                            break 'pes;
                        }
                    }
                }
                best.expect("at least one PE")
            }
        };

        start[v.index()] = st;
        finish[v.index()] = st + w;
        pe_of[v.index()] = pe;
        makespan = makespan.max(st + w);
        // Insert the interval keeping the list sorted.
        let list = &mut busy[pe as usize];
        let pos = list.partition_point(|&(bs, _)| bs < st);
        if list.is_empty() {
            pes_used += 1;
        }
        list.insert(pos, (st, st + w));
        if st + w > avail[pe as usize] {
            avail[pe as usize] = st + w;
            heap.push(Reverse((st + w, pe)));
        }
    }

    ListSchedule {
        start,
        finish,
        pe: pe_of,
        makespan,
        pes_used,
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
    fn chain_is_sequential() {
        // The paper's observation: a task chain has non-streaming speedup 1
        // regardless of PE count.
        let g = chain(8, 32);
        for p in [1, 2, 8] {
            let s = non_streaming_schedule(&g, p);
            assert_eq!(s.makespan, g.sequential_time(), "p={p}");
        }
    }

    #[test]
    fn independent_tasks_parallelize() {
        let mut b = Builder::new();
        for i in 0..4 {
            let t = b.compute(format!("t{i}"));
            let k = b.sink(format!("k{i}"));
            b.edge(t, k, 16);
        }
        let g = b.finish().unwrap();
        let s1 = non_streaming_schedule(&g, 1);
        assert_eq!(s1.makespan, 64);
        let s4 = non_streaming_schedule(&g, 4);
        assert_eq!(s4.makespan, 16);
        assert_eq!(s4.pes_used, 4);
    }

    #[test]
    fn reaches_critical_path_with_enough_pes() {
        // Diamond: t0 -> {a, b} -> t1; CP = W(t0)+W(a)+W(t1).
        let mut b = Builder::new();
        let t0 = b.compute("t0");
        let a = b.compute("a");
        let c = b.compute("c");
        let t1 = b.compute("t1");
        b.edge(t0, a, 16);
        b.edge(t0, c, 16);
        b.edge(a, t1, 16);
        b.edge(c, t1, 16);
        let g = b.finish().unwrap();
        let s = non_streaming_schedule(&g, 2);
        let cp = stg_analysis::non_streaming_depth(&g);
        assert_eq!(s.makespan, cp.unwrap());
    }

    #[test]
    fn insertion_fills_gaps() {
        // Heavy chain a0 -> a1 plus a light independent task: with one PE
        // dominated by the chain and a second PE, the light task fits
        // wherever; with a single PE it must be appended. With 2 PEs, the
        // makespan equals the chain length.
        let mut b = Builder::new();
        let a0 = b.compute("a0");
        let a1 = b.compute("a1");
        b.edge(a0, a1, 100);
        let l = b.compute("l");
        let lk = b.sink("lk");
        b.edge(l, lk, 5);
        let g = b.finish().unwrap();
        let s = non_streaming_schedule(&g, 2);
        assert_eq!(s.makespan, 200);
        // Light task runs in parallel.
        assert!(s.finish[l.index()] <= 200);
    }

    #[test]
    fn precedence_respected() {
        let g = chain(5, 8);
        let s = non_streaming_schedule(&g, 3);
        for (eid, e) in g.dag().edges() {
            let _ = eid;
            assert!(s.finish[e.src.index()] <= s.start[e.dst.index()]);
        }
    }

    #[test]
    fn utilization_bounds() {
        let g = chain(4, 8);
        let s = non_streaming_schedule(&g, 2);
        let u = s.utilization(&g, 2);
        assert!(u > 0.0 && u <= 1.0);
    }

    #[test]
    fn wide_fan_out_saturates_all_pes() {
        // root -> 9 equal children: with 3 PEs the children run in 3 waves.
        let mut b = Builder::new();
        let root = b.compute("root");
        for i in 0..9 {
            let c = b.compute(format!("c{i}"));
            b.edge(root, c, 10);
        }
        let g = b.finish().unwrap();
        let s = non_streaming_schedule(&g, 3);
        // W(root)=10, then ceil(9/3)=3 waves of 10.
        assert_eq!(s.makespan, 40);
        assert_eq!(s.pes_used, 3);
    }

    #[test]
    fn never_exceeds_capacity_at_any_instant() {
        use stg_workloads::{generate, Topology};
        let g = generate(Topology::Cholesky { tiles: 5 }, 99);
        let p = 4;
        let s = non_streaming_schedule(&g, p);
        let events: Vec<(u64, u64)> = g
            .compute_nodes()
            .map(|v| (s.start[v.index()], s.finish[v.index()]))
            .collect();
        for &(t, _) in &events {
            let live = events.iter().filter(|&&(a, b)| a <= t && t < b).count();
            assert!(live <= p, "{live} live tasks at {t}");
        }
    }

    #[test]
    fn priority_ties_are_deterministic() {
        let g = chain(6, 32);
        let a = non_streaming_schedule(&g, 3);
        let b2 = non_streaming_schedule(&g, 3);
        assert_eq!(a.start, b2.start);
        assert_eq!(a.pe, b2.pe);
    }
}
