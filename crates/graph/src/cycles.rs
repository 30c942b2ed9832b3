//! Detection of nodes lying on undirected cycles (Section 6).
//!
//! Buffer-space analysis needs the set of nodes of a spatial block that are
//! part of an *undirected* cycle (converging/diverging pipelined paths). The
//! paper describes a modified DFS that, on finding a back edge, marks every
//! ancestor up to the common ancestor. An equivalent linear-time
//! characterization: a node lies on an undirected cycle iff it is incident to
//! a non-bridge edge of the undirected multigraph. We therefore run a
//! standard bridge-finding DFS (Tarjan low-link, iterative, multigraph-safe)
//! and return the weakly connected components of the nodes incident to
//! non-bridge edges — exactly the per-cycle groups the paper's procedure
//! produces.
//!
//! [`undirected_cycle_nodes`] filters the whole graph, so each call costs
//! `O(V + E)` of the *graph*. [`edge_set_cycle_nodes`] takes the subgraph
//! as an edge list and reuses a [`CycleScratch`], so it costs `O(V + E)`
//! of the *subgraph*: buffer sizing calls it once per spatial block, for
//! `O(V + E)` in total over a schedule, as Section 6 states.

use crate::dag::{Dag, EdgeId, NodeId};
use crate::wcc::UnionFind;

/// Result of undirected-cycle analysis on a (sub)graph.
#[derive(Clone, Debug, Default)]
pub struct CycleNodes {
    /// `true` for nodes that lie on at least one undirected cycle.
    pub on_cycle: Vec<bool>,
    /// Groups of cycle nodes: the weakly connected components of the marked
    /// nodes, connected through non-bridge edges. Deterministic order.
    pub groups: Vec<Vec<NodeId>>,
}

/// Finds all nodes lying on an undirected cycle of the subgraph restricted to
/// `node_filter` nodes and `edge_filter` edges (both endpoints must pass the
/// node filter for an edge to be considered).
///
/// Complexity: `O(V + E)`, as claimed in Section 6 of the paper.
pub fn undirected_cycle_nodes<N, E>(
    g: &Dag<N, E>,
    mut node_filter: impl FnMut(NodeId) -> bool,
    mut edge_filter: impl FnMut(EdgeId) -> bool,
) -> CycleNodes {
    let n = g.node_count();
    let included: Vec<bool> = g.node_ids().map(&mut node_filter).collect();

    // Undirected adjacency over the filtered subgraph: (neighbor, edge id).
    let mut adj: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); n];
    let mut considered = vec![false; g.edge_count()];
    for (eid, e) in g.edges() {
        if included[e.src.index()] && included[e.dst.index()] && edge_filter(eid) {
            considered[eid.index()] = true;
            adj[e.src.index()].push((e.dst, eid));
            adj[e.dst.index()].push((e.src, eid));
        }
    }

    const UNVISITED: u32 = u32::MAX;
    let mut disc = vec![UNVISITED; n]; // discovery time
    let mut low = vec![0u32; n]; // low-link
    let mut timer = 0u32;
    let mut is_bridge: Vec<bool> = vec![false; g.edge_count()];
    // Iterative DFS frame: (node, entering edge, next adjacency index).
    let mut stack: Vec<(NodeId, Option<EdgeId>, usize)> = Vec::new();

    for start in g.node_ids() {
        if !included[start.index()] || disc[start.index()] != UNVISITED {
            continue;
        }
        disc[start.index()] = timer;
        low[start.index()] = timer;
        timer += 1;
        stack.push((start, None, 0));
        while let Some(&mut (v, parent_edge, ref mut next)) = stack.last_mut() {
            if *next < adj[v.index()].len() {
                let (to, eid) = adj[v.index()][*next];
                *next += 1;
                // Skip only the exact edge we came through; a parallel edge
                // to the parent is a legitimate cycle.
                if Some(eid) == parent_edge {
                    continue;
                }
                if disc[to.index()] == UNVISITED {
                    disc[to.index()] = timer;
                    low[to.index()] = timer;
                    timer += 1;
                    stack.push((to, Some(eid), 0));
                } else {
                    low[v.index()] = low[v.index()].min(disc[to.index()]);
                }
            } else {
                stack.pop();
                if let Some(&mut (parent, _, _)) = stack.last_mut() {
                    low[parent.index()] = low[parent.index()].min(low[v.index()]);
                    if let Some(eid) = parent_edge {
                        if low[v.index()] > disc[parent.index()] {
                            is_bridge[eid.index()] = true;
                        }
                    }
                }
            }
        }
    }

    // Nodes on cycles = endpoints of non-bridge edges of the subgraph.
    let mut on_cycle = vec![false; n];
    let mut uf = UnionFind::new(n);
    for (eid, e) in g.edges() {
        if considered[eid.index()] && !is_bridge[eid.index()] {
            on_cycle[e.src.index()] = true;
            on_cycle[e.dst.index()] = true;
            uf.union(e.src.0, e.dst.0);
        }
    }

    // Group marked nodes by their union-find component, deterministic order.
    let mut group_of_root: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    let mut groups: Vec<Vec<NodeId>> = Vec::new();
    for v in g.node_ids() {
        if !on_cycle[v.index()] {
            continue;
        }
        let root = uf.find(v.0);
        let slot = *group_of_root.entry(root).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[slot].push(v);
    }

    CycleNodes { on_cycle, groups }
}

/// Reusable working storage for [`edge_set_cycle_nodes`]. Its per-node
/// table grows to the graph once and is left all-clear after each call,
/// so a call costs time proportional to its own edge set.
#[derive(Clone, Debug, Default)]
pub struct CycleScratch {
    /// Per graph node: its local index in the current call, or `u32::MAX`.
    local: Vec<u32>,
    /// Local index → graph node.
    nodes: Vec<NodeId>,
    /// Local CSR adjacency: `adj[start[v]..start[v + 1]]` holds
    /// `(neighbour, edge position)` pairs.
    start: Vec<u32>,
    adj: Vec<(u32, u32)>,
    /// Per local node: the next free slot of its list while filling.
    fill: Vec<u32>,
    disc: Vec<u32>,
    low: Vec<u32>,
    bridge: Vec<bool>,
    /// DFS frames: (node, entering edge position or `u32::MAX`, next
    /// adjacency slot).
    stack: Vec<(u32, u32, u32)>,
}

/// The nodes on an undirected cycle of the subgraph formed by `edges` and
/// their endpoints, ascending by node id, written into `out` (cleared
/// first). Equal to the marked nodes of [`undirected_cycle_nodes`] with
/// the endpoints as node filter and membership in `edges` as edge filter,
/// in `O(|edges|)` time plus sorting the result. `edges` must not repeat
/// an edge.
pub fn edge_set_cycle_nodes<N, E>(
    g: &Dag<N, E>,
    edges: &[EdgeId],
    scratch: &mut CycleScratch,
    out: &mut Vec<NodeId>,
) {
    out.clear();
    let s = scratch;
    if s.local.len() < g.node_count() {
        s.local.resize(g.node_count(), u32::MAX);
    }
    s.nodes.clear();
    let local_of = |v: NodeId, s: &mut CycleScratch| -> u32 {
        let slot = &mut s.local[v.index()];
        if *slot == u32::MAX {
            *slot = s.nodes.len() as u32;
            s.nodes.push(v);
        }
        *slot
    };
    // Degree count, then a prefix sum into CSR offsets.
    s.start.clear();
    for &eid in edges {
        let e = g.edge(eid);
        for v in [e.src, e.dst] {
            let l = local_of(v, s) as usize;
            if l >= s.start.len() {
                s.start.resize(l + 1, 0);
            }
            s.start[l] += 1;
        }
    }
    let n = s.nodes.len();
    s.start.resize(n + 1, 0);
    let mut sum = 0u32;
    for d in &mut s.start {
        let deg = *d;
        *d = sum;
        sum += deg;
    }
    s.adj.clear();
    s.adj.resize(sum as usize, (0, 0));
    s.fill.clear();
    s.fill.extend_from_slice(&s.start[..n]);
    for (pos, &eid) in edges.iter().enumerate() {
        let e = g.edge(eid);
        let (a, b) = (s.local[e.src.index()], s.local[e.dst.index()]);
        for (from, to) in [(a, b), (b, a)] {
            let slot = &mut s.fill[from as usize];
            s.adj[*slot as usize] = (to, pos as u32);
            *slot += 1;
        }
    }

    const UNVISITED: u32 = u32::MAX;
    s.disc.clear();
    s.disc.resize(n, UNVISITED);
    s.low.clear();
    s.low.resize(n, 0);
    s.bridge.clear();
    s.bridge.resize(edges.len(), false);
    let mut timer = 0u32;
    for root in 0..n as u32 {
        if s.disc[root as usize] != UNVISITED {
            continue;
        }
        s.disc[root as usize] = timer;
        s.low[root as usize] = timer;
        timer += 1;
        s.stack.push((root, u32::MAX, s.start[root as usize]));
        while let Some(&mut (v, entering, ref mut next)) = s.stack.last_mut() {
            if *next < s.start[v as usize + 1] {
                let (to, pos) = s.adj[*next as usize];
                *next += 1;
                // Skip only the exact edge we came through; a parallel
                // edge to the parent is a legitimate cycle.
                if pos == entering {
                    continue;
                }
                if s.disc[to as usize] == UNVISITED {
                    s.disc[to as usize] = timer;
                    s.low[to as usize] = timer;
                    timer += 1;
                    let first = s.start[to as usize];
                    s.stack.push((to, pos, first));
                } else {
                    s.low[v as usize] = s.low[v as usize].min(s.disc[to as usize]);
                }
            } else {
                s.stack.pop();
                if let Some(&(parent, _, _)) = s.stack.last() {
                    let low_v = s.low[v as usize];
                    s.low[parent as usize] = s.low[parent as usize].min(low_v);
                    if low_v > s.disc[parent as usize] {
                        s.bridge[entering as usize] = true;
                    }
                }
            }
        }
    }
    // Nodes on cycles = endpoints of non-bridge edges. `disc` is spent:
    // reuse it as the marked flag.
    s.disc.fill(0);
    for (pos, &eid) in edges.iter().enumerate() {
        if !s.bridge[pos] {
            let e = g.edge(eid);
            for v in [e.src, e.dst] {
                let l = s.local[v.index()] as usize;
                if s.disc[l] == 0 {
                    s.disc[l] = 1;
                    out.push(v);
                }
            }
        }
    }
    out.sort_unstable();
    for v in &s.nodes {
        s.local[v.index()] = u32::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(g: &Dag<(), ()>, marked: &CycleNodes) -> Vec<u32> {
        g.node_ids()
            .filter(|v| marked.on_cycle[v.index()])
            .map(|v| v.0)
            .collect()
    }

    #[test]
    fn tree_has_no_cycles() {
        let mut g: Dag<(), ()> = Dag::new();
        let v: Vec<NodeId> = (0..5).map(|_| g.add_node(())).collect();
        g.add_edge(v[0], v[1], ());
        g.add_edge(v[0], v[2], ());
        g.add_edge(v[1], v[3], ());
        g.add_edge(v[1], v[4], ());
        let res = undirected_cycle_nodes(&g, |_| true, |_| true);
        assert!(ids(&g, &res).is_empty());
        assert!(res.groups.is_empty());
    }

    #[test]
    fn diamond_is_one_cycle() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3: all four nodes on one undirected cycle.
        let mut g: Dag<(), ()> = Dag::new();
        let v: Vec<NodeId> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(v[0], v[1], ());
        g.add_edge(v[0], v[2], ());
        g.add_edge(v[1], v[3], ());
        g.add_edge(v[2], v[3], ());
        let res = undirected_cycle_nodes(&g, |_| true, |_| true);
        assert_eq!(ids(&g, &res), vec![0, 1, 2, 3]);
        assert_eq!(res.groups.len(), 1);
        assert_eq!(res.groups[0].len(), 4);
    }

    #[test]
    fn paper_figure9_graph1() {
        // 0 -> 1 -> 2 -> 3 -> 4 and 0 -> 4: the whole chain is one cycle
        // through the shortcut edge (the deadlock example ① of Section 6).
        let mut g: Dag<(), ()> = Dag::new();
        let v: Vec<NodeId> = (0..5).map(|_| g.add_node(())).collect();
        for w in v.windows(2) {
            g.add_edge(w[0], w[1], ());
        }
        g.add_edge(v[0], v[4], ());
        let res = undirected_cycle_nodes(&g, |_| true, |_| true);
        assert_eq!(ids(&g, &res), vec![0, 1, 2, 3, 4]);
        assert_eq!(res.groups.len(), 1);
    }

    #[test]
    fn dangling_tail_not_marked() {
        // Diamond with a tail: 3 -> 4; node 4 is not on the cycle.
        let mut g: Dag<(), ()> = Dag::new();
        let v: Vec<NodeId> = (0..5).map(|_| g.add_node(())).collect();
        g.add_edge(v[0], v[1], ());
        g.add_edge(v[0], v[2], ());
        g.add_edge(v[1], v[3], ());
        g.add_edge(v[2], v[3], ());
        g.add_edge(v[3], v[4], ());
        let res = undirected_cycle_nodes(&g, |_| true, |_| true);
        assert_eq!(ids(&g, &res), vec![0, 1, 2, 3]);
    }

    #[test]
    fn two_disjoint_cycles_form_two_groups() {
        let mut g: Dag<(), ()> = Dag::new();
        let v: Vec<NodeId> = (0..8).map(|_| g.add_node(())).collect();
        // Diamond A over 0..4 and diamond B over 4..8, joined by an edge 3->4.
        g.add_edge(v[0], v[1], ());
        g.add_edge(v[0], v[2], ());
        g.add_edge(v[1], v[3], ());
        g.add_edge(v[2], v[3], ());
        g.add_edge(v[3], v[4], ());
        g.add_edge(v[4], v[5], ());
        g.add_edge(v[4], v[6], ());
        g.add_edge(v[5], v[7], ());
        g.add_edge(v[6], v[7], ());
        let res = undirected_cycle_nodes(&g, |_| true, |_| true);
        assert_eq!(res.groups.len(), 2);
        assert_eq!(res.groups[0], vec![v[0], v[1], v[2], v[3]]);
        assert_eq!(res.groups[1], vec![v[4], v[5], v[6], v[7]]);
    }

    #[test]
    fn parallel_edges_are_a_cycle() {
        let mut g: Dag<(), ()> = Dag::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(a, b, ());
        let res = undirected_cycle_nodes(&g, |_| true, |_| true);
        assert_eq!(ids(&g, &res), vec![0, 1]);
    }

    #[test]
    fn node_filter_breaks_cycle() {
        // Excluding one diamond shoulder leaves a tree.
        let mut g: Dag<(), ()> = Dag::new();
        let v: Vec<NodeId> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(v[0], v[1], ());
        g.add_edge(v[0], v[2], ());
        g.add_edge(v[1], v[3], ());
        g.add_edge(v[2], v[3], ());
        let res = undirected_cycle_nodes(&g, |n| n != v[2], |_| true);
        assert!(ids(&g, &res).is_empty());
    }

    /// `edge_set_cycle_nodes` over every edge equals the filtered
    /// whole-graph analysis, scratch reused across graphs.
    #[test]
    fn edge_sets_match_the_whole_graph_analysis() {
        let mut scratch = CycleScratch::default();
        let mut out = Vec::new();
        for edges in [
            vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
            vec![(0, 1), (0, 1)],
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5), (5, 6)],
            vec![(0, 1), (0, 2), (1, 3)],
        ] {
            let mut g: Dag<(), ()> = Dag::new();
            let v: Vec<NodeId> = (0..8).map(|_| g.add_node(())).collect();
            let ids: Vec<EdgeId> = edges
                .iter()
                .map(|&(a, b)| g.add_edge(v[a], v[b], ()))
                .collect();
            edge_set_cycle_nodes(&g, &ids, &mut scratch, &mut out);
            let whole = undirected_cycle_nodes(&g, |_| true, |_| true);
            let marked: Vec<NodeId> = g.node_ids().filter(|u| whole.on_cycle[u.index()]).collect();
            assert_eq!(out, marked, "{edges:?}");
        }
    }

    #[test]
    fn edge_filter_breaks_cycle() {
        let mut g: Dag<(), ()> = Dag::new();
        let v: Vec<NodeId> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(v[0], v[1], ());
        g.add_edge(v[0], v[2], ());
        g.add_edge(v[1], v[3], ());
        let cut = g.add_edge(v[2], v[3], ());
        let res = undirected_cycle_nodes(&g, |_| true, |e| e != cut);
        assert!(ids(&g, &res).is_empty());
    }
}
