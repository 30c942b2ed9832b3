//! Union-find and weakly connected components over edge subsets.
//!
//! Theorem 4.1 computes streaming intervals per weakly connected component of
//! the buffer-split task graph. Within a spatial block the component
//! structure is taken over the block's *streaming* edges only, so the WCC
//! routine accepts an edge filter.

use crate::dag::{Dag, EdgeId, NodeId};

/// A classic disjoint-set (union-find) structure with path halving and
/// union by size.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Resets to zero sets, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.parent.clear();
        self.size.clear();
    }

    /// Adds a singleton set and returns its element.
    pub fn push(&mut self) -> u32 {
        let x = self.parent.len() as u32;
        self.parent.push(x);
        self.size.push(1);
        x
    }

    /// Finds the representative of `x`'s set (with path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Unions the sets of `a` and `b`; returns true if they were disjoint.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        true
    }

    /// True if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

/// The weakly connected components of the subgraph induced by the edges for
/// which `edge_filter` returns true. Every node appears in exactly one
/// component (isolated nodes form singleton components).
///
/// Returns `(component_of_node, component_count)` where components are
/// numbered `0..count` in order of first appearance by node id, so the
/// labelling is deterministic.
pub fn weakly_connected_components<N, E>(
    g: &Dag<N, E>,
    mut edge_filter: impl FnMut(EdgeId) -> bool,
) -> (Vec<u32>, usize) {
    let n = g.node_count();
    let mut uf = UnionFind::new(n);
    for (eid, e) in g.edges() {
        if edge_filter(eid) {
            uf.union(e.src.0, e.dst.0);
        }
    }
    compress_labels(&mut uf, n)
}

/// Weakly connected components over a node subset: only edges whose both
/// endpoints satisfy `node_filter` connect, and only such nodes are labelled
/// (others get `u32::MAX`).
pub fn wcc_over_nodes<N, E>(
    g: &Dag<N, E>,
    mut node_filter: impl FnMut(NodeId) -> bool,
) -> (Vec<u32>, usize) {
    let n = g.node_count();
    let included: Vec<bool> = g.node_ids().map(&mut node_filter).collect();
    let mut uf = UnionFind::new(n);
    for (_, e) in g.edges() {
        if included[e.src.index()] && included[e.dst.index()] {
            uf.union(e.src.0, e.dst.0);
        }
    }
    let mut label = vec![u32::MAX; n];
    let mut count = 0usize;
    for v in 0..n as u32 {
        if !included[v as usize] {
            continue;
        }
        let root = uf.find(v);
        if label[root as usize] == u32::MAX {
            label[root as usize] = count as u32;
            count += 1;
        }
        label[v as usize] = label[root as usize];
    }
    (label, count)
}

fn compress_labels(uf: &mut UnionFind, n: usize) -> (Vec<u32>, usize) {
    let mut label = vec![u32::MAX; n];
    let mut count = 0usize;
    for v in 0..n as u32 {
        let root = uf.find(v);
        if label[root as usize] == u32::MAX {
            label[root as usize] = count as u32;
            count += 1;
        }
        if v != root {
            label[v as usize] = label[root as usize];
        }
    }
    (label, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(3, 4));
        assert!(!uf.union(1, 0));
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(0, 3));
        uf.union(1, 3);
        assert!(uf.connected(0, 4));
        assert!(!uf.connected(2, 0));
    }

    #[test]
    fn wcc_all_edges() {
        // Two components: {0,1,2} and {3,4}; direction is ignored.
        let mut g: Dag<(), ()> = Dag::new();
        let v: Vec<NodeId> = (0..5).map(|_| g.add_node(())).collect();
        g.add_edge(v[0], v[1], ());
        g.add_edge(v[2], v[1], ());
        g.add_edge(v[3], v[4], ());
        let (labels, count) = weakly_connected_components(&g, |_| true);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn wcc_with_edge_filter() {
        // Filtering out the bridge edge splits one component into two, as
        // when a buffer node is split into tail/head halves.
        let mut g: Dag<(), u8> = Dag::new();
        let v: Vec<NodeId> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(v[0], v[1], 0);
        let bridge = g.add_edge(v[1], v[2], 1);
        g.add_edge(v[2], v[3], 0);
        let (_, all) = weakly_connected_components(&g, |_| true);
        assert_eq!(all, 1);
        let (labels, count) = weakly_connected_components(&g, |e| e != bridge);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn wcc_isolated_nodes_are_singletons() {
        let mut g: Dag<(), ()> = Dag::new();
        let _ = g.add_node(());
        let _ = g.add_node(());
        let (labels, count) = weakly_connected_components(&g, |_| true);
        assert_eq!(count, 2);
        assert_ne!(labels[0], labels[1]);
    }

    #[test]
    fn wcc_over_node_subset() {
        // 0 - 1 - 2 - 3 linear; exclude node 2: components {0,1}, {3}.
        let mut g: Dag<(), ()> = Dag::new();
        let v: Vec<NodeId> = (0..4).map(|_| g.add_node(())).collect();
        g.add_edge(v[0], v[1], ());
        g.add_edge(v[1], v[2], ());
        g.add_edge(v[2], v[3], ());
        let (labels, count) = wcc_over_nodes(&g, |n| n != v[2]);
        assert_eq!(count, 2);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], u32::MAX);
        assert_ne!(labels[3], labels[0]);
    }
}
