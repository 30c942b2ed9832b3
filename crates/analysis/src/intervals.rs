//! Steady-state streaming intervals (Section 4.1, Theorem 4.1).
//!
//! Within a set of co-scheduled tasks, the output streaming interval of a
//! node is `S_o(v) = max_{u ∈ WCC(v)} O(u) / O(v)`: every node in a weakly
//! connected streaming component is paced by the component's largest data
//! producer. Components are taken over *streaming* connections only:
//!
//! - edges between co-scheduled compute nodes connect;
//! - a source node couples all of its co-scheduled consumers (single-pass
//!   multicast), and its own volume participates;
//! - buffer nodes split (the paper's tail/head duplication): data re-enters
//!   through independent per-edge replay endpoints, as do reads of earlier
//!   blocks' outputs from global memory.

use stg_graph::{EdgeId, NodeId, Ratio, UnionFind};
use stg_model::{CanonicalGraph, NodeKind};

/// Producer-side timing of an edge in a computed schedule: the first-out
/// time and the output streaming interval of whatever feeds the edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeProducer {
    /// First element availability time.
    pub fo: u64,
    /// Average interval between elements on the edge.
    pub so: Ratio,
}

/// Streaming intervals for one co-scheduled set (a spatial block, or the
/// whole graph for the infinite-PE analysis).
#[derive(Clone, Debug)]
pub struct StreamingIntervals {
    /// Component id per slot (nodes `0..n`, per-edge endpoints `n..n+e`);
    /// `u32::MAX` for slots not participating.
    comp: Vec<u32>,
    /// Max output volume per component.
    comp_max: Vec<u64>,
    /// For each edge scanned as a member input: the slot of its producer.
    edge_slot: Vec<Option<u32>>,
    /// Cached member volumes (`I`, `O`) for interval queries.
    volumes: Vec<(u64, u64)>,
    member: Vec<bool>,
}

/// The streaming components of one spatial block over block-local slots:
/// one per member, one per source multicasting into the block, and one
/// per other memory endpoint (a buffer replay or an earlier block's
/// output read back). Reused block after block: its per-node and
/// per-edge tables are sized to the graph once, and a block touches only
/// its members, their in-edges and its own slots, so computing a block
/// costs time proportional to the block.
pub(crate) struct BlockComponents {
    /// Per graph node: its slot in the current block (members and shared
    /// sources), else `u32::MAX`.
    slot_of: Vec<u32>,
    /// The nodes holding a slot, cleared before the next block.
    slotted: Vec<NodeId>,
    /// Per graph edge: the slot of the endpoint feeding it. Valid for the
    /// current block's member in-edges only.
    edge_slot: Vec<u32>,
    uf: UnionFind,
    /// Per slot: the largest output volume of its component.
    max: Vec<u64>,
}

impl BlockComponents {
    /// Empty tables sized to `g`.
    pub(crate) fn new(g: &CanonicalGraph) -> BlockComponents {
        BlockComponents {
            slot_of: vec![u32::MAX; g.node_count()],
            slotted: Vec::new(),
            edge_slot: vec![u32::MAX; g.dag().edge_count()],
            uf: UnionFind::new(0),
            max: Vec::new(),
        }
    }

    fn new_slot(&mut self) -> u32 {
        self.max.push(0);
        self.uf.push()
    }

    /// Computes the components of block `bi`, whose members are `members`
    /// (`block_of[v] == Some(bi)` exactly for them). Components are taken
    /// over streaming connections only: in-block edges connect, a source
    /// couples all of its consumers in the block, and every other memory
    /// read is an endpoint of its own. A component's volume is the
    /// largest of its members' output volumes and its members' in-edge
    /// volumes.
    pub(crate) fn compute(
        &mut self,
        g: &CanonicalGraph,
        members: &[NodeId],
        block_of: &[Option<u32>],
        bi: u32,
    ) {
        let dag = g.dag();
        for v in self.slotted.drain(..) {
            self.slot_of[v.index()] = u32::MAX;
        }
        self.uf.clear();
        self.max.clear();
        for &v in members {
            self.slot_of[v.index()] = self.new_slot();
            self.slotted.push(v);
        }
        for &v in members {
            let sv = self.slot_of[v.index()];
            for &eid in dag.in_edge_ids(v) {
                let u = dag.edge(eid).src;
                let slot = if block_of[u.index()] == Some(bi) {
                    self.slot_of[u.index()]
                } else if g.kind(u) == NodeKind::Source {
                    // Shared multicast endpoint: one slot per source.
                    if self.slot_of[u.index()] == u32::MAX {
                        self.slot_of[u.index()] = self.new_slot();
                        self.slotted.push(u);
                    }
                    self.slot_of[u.index()]
                } else {
                    // Independent per-edge memory replay endpoint.
                    self.new_slot()
                };
                self.uf.union(slot, sv);
                self.edge_slot[eid.index()] = slot;
            }
        }
        // Fold the volumes into each component's root, then hand every
        // slot its component's maximum.
        for &v in members {
            let root = self.uf.find(self.slot_of[v.index()]) as usize;
            self.max[root] = self.max[root].max(g.output_volume(v).unwrap_or(0));
            for &eid in dag.in_edge_ids(v) {
                let root = self.uf.find(self.edge_slot[eid.index()]) as usize;
                self.max[root] = self.max[root].max(dag.edge(eid).weight);
            }
        }
        for slot in 0..self.max.len() as u32 {
            let root = self.uf.find(slot) as usize;
            self.max[slot as usize] = self.max[root];
        }
    }

    /// The component volume of member `v`'s component.
    fn member_max(&self, v: NodeId) -> u64 {
        self.max[self.slot_of[v.index()] as usize]
    }

    /// `S_o(v)` of member `v` (see [`StreamingIntervals::so`]).
    pub(crate) fn so(&self, g: &CanonicalGraph, v: NodeId) -> Option<Ratio> {
        let o = g.output_volume(v).unwrap_or(0);
        (o > 0).then(|| Ratio::new(self.member_max(v) as i128, o as i128))
    }

    /// `S_i(v)` of member `v` (see [`StreamingIntervals::si`]).
    pub(crate) fn si(&self, g: &CanonicalGraph, v: NodeId) -> Option<Ratio> {
        let i = g.input_volume(v).unwrap_or(0);
        (i > 0).then(|| Ratio::new(self.member_max(v) as i128, i as i128))
    }

    /// `S_o` of the endpoint feeding member in-edge `eid` (see
    /// [`StreamingIntervals::endpoint_so_with`]).
    pub(crate) fn endpoint_so(&self, eid: EdgeId, volume: u64) -> Option<Ratio> {
        let max = self.max[self.edge_slot[eid.index()] as usize];
        (volume > 0).then(|| Ratio::new(max as i128, volume as i128))
    }
}

impl StreamingIntervals {
    /// Computes the intervals for the members of spatial block `bi`.
    ///
    /// `block_of[v] == Some(bi)` identifies membership; `members` lists the
    /// same nodes (used for iteration order and volume collection).
    /// Components are labelled in order of first appearance: members in
    /// `members` order, then endpoints in edge-id order.
    pub fn for_block(
        g: &CanonicalGraph,
        members: &[NodeId],
        block_of: &[Option<u32>],
        bi: u32,
    ) -> StreamingIntervals {
        let dag = g.dag();
        let n = dag.node_count();
        let mut local = BlockComponents::new(g);
        local.compute(g, members, block_of, bi);

        // Lay the block-local components out over graph-indexed slots:
        // nodes `0..n`, per-edge endpoints `n..n+e`.
        let mut comp = vec![u32::MAX; n + dag.edge_count()];
        let mut comp_max: Vec<u64> = Vec::new();
        let mut label_of_root = vec![u32::MAX; local.max.len()];
        let mut label = |local: &mut BlockComponents, slot: u32| -> u32 {
            let root = local.uf.find(slot) as usize;
            if label_of_root[root] == u32::MAX {
                label_of_root[root] = comp_max.len() as u32;
                comp_max.push(local.max[root]);
            }
            label_of_root[root]
        };
        let mut volumes = vec![(0u64, 0u64); n];
        let mut member = vec![false; n];
        let mut scanned = vec![false; dag.edge_count()];
        for &v in members {
            member[v.index()] = true;
            volumes[v.index()] = (
                g.input_volume(v).unwrap_or(0),
                g.output_volume(v).unwrap_or(0),
            );
            let slot = local.slot_of[v.index()];
            comp[v.index()] = label(&mut local, slot);
            for &eid in dag.in_edge_ids(v) {
                scanned[eid.index()] = true;
            }
        }
        let mut edge_slot: Vec<Option<u32>> = vec![None; dag.edge_count()];
        for (eid, e) in dag.edges() {
            if !scanned[eid.index()] {
                continue;
            }
            let u = e.src;
            let slot = if block_of[u.index()] == Some(bi) || g.kind(u) == NodeKind::Source {
                u.0
            } else {
                (n + eid.index()) as u32
            };
            let local_slot = local.edge_slot[eid.index()];
            comp[slot as usize] = label(&mut local, local_slot);
            edge_slot[eid.index()] = Some(slot);
        }

        StreamingIntervals {
            comp,
            comp_max,
            edge_slot,
            volumes,
            member,
        }
    }

    /// Intervals over the whole graph co-scheduled at once (the Theorem 4.1
    /// setting used to define the streaming depth).
    pub fn for_graph(g: &CanonicalGraph) -> StreamingIntervals {
        let members: Vec<NodeId> = g.compute_nodes().collect();
        let block_of: Vec<Option<u32>> = g
            .node_ids()
            .map(|v| {
                if g.node(v).is_schedulable() {
                    Some(0)
                } else {
                    None
                }
            })
            .collect();
        Self::for_block(g, &members, &block_of, 0)
    }

    /// The component id of a member node.
    pub fn wcc_of(&self, v: NodeId) -> Option<u32> {
        let c = self.comp.get(v.index()).copied().unwrap_or(u32::MAX);
        (c != u32::MAX).then_some(c)
    }

    /// The largest output volume in the member's component.
    pub fn max_volume(&self, v: NodeId) -> Option<u64> {
        self.wcc_of(v).map(|c| self.comp_max[c as usize])
    }

    /// `S_o(v) = max_{u∈WCC(v)} O(u) / O(v)` for a member with outputs.
    pub fn so(&self, v: NodeId) -> Option<Ratio> {
        if !self.member.get(v.index()).copied().unwrap_or(false) {
            return None;
        }
        let (_, o) = self.volumes[v.index()];
        if o == 0 {
            return None;
        }
        let max = self.max_volume(v)?;
        Some(Ratio::new(max as i128, o as i128))
    }

    /// `S_i(v) = max_{u∈WCC(v)} O(u) / I(v)` for a member with inputs.
    pub fn si(&self, v: NodeId) -> Option<Ratio> {
        if !self.member.get(v.index()).copied().unwrap_or(false) {
            return None;
        }
        let (i, _) = self.volumes[v.index()];
        if i == 0 {
            return None;
        }
        let max = self.max_volume(v)?;
        Some(Ratio::new(max as i128, i as i128))
    }

    /// `S_o` of the memory endpoint (or shared source) feeding edge `eid`
    /// into the block, given the edge's volume.
    pub fn endpoint_so_with(&self, eid: EdgeId, volume: u64) -> Option<Ratio> {
        let slot = self.edge_slot.get(eid.index()).copied().flatten()?;
        let c = self.comp[slot as usize];
        if c == u32::MAX || volume == 0 {
            return None;
        }
        Some(Ratio::new(
            self.comp_max[c as usize] as i128,
            volume as i128,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg_graph::Ratio;
    use stg_model::Builder;

    #[test]
    fn shared_source_couples_consumers_but_buffer_replays_do_not() {
        // src multicasts to a and b (one component); buf replays to c and d
        // (two independent per-edge endpoints → separate components).
        let mut bld = Builder::new();
        let src = bld.source("src");
        let a = bld.compute("a");
        let b = bld.compute("b");
        bld.edge(src, a, 8);
        bld.edge(src, b, 8);
        let feed = bld.compute("feed");
        let buf = bld.buffer("B");
        bld.edge(feed, buf, 8);
        let c = bld.compute("c");
        let d = bld.compute("d");
        bld.edge(buf, c, 8);
        bld.edge(buf, d, 8);
        let ka = bld.sink("ka");
        let kb = bld.sink("kb");
        let kc = bld.sink("kc");
        let kd = bld.sink("kd");
        bld.edge(a, ka, 8);
        bld.edge(b, kb, 32); // b is an upsampler: slows the src component
        bld.edge(c, kc, 8);
        bld.edge(d, kd, 32); // d is an upsampler: must NOT slow c
        let g = bld.finish().unwrap();
        let iv = StreamingIntervals::for_graph(&g);
        // a and b share the source's component: b's 32 dominates.
        assert_eq!(iv.wcc_of(a), iv.wcc_of(b));
        // a reads 32 and writes 8.
        assert_eq!(iv.so(a), Some(Ratio::integer(4)));
        // c and d read independent buffer replays: separate components.
        assert_ne!(iv.wcc_of(c), iv.wcc_of(d));
        assert_eq!(iv.so(c), Some(Ratio::ONE));
        assert_eq!(iv.so(d), Some(Ratio::ONE)); // 32/32
    }

    #[test]
    fn cross_block_edges_use_per_edge_endpoints() {
        // Two members of block 1 both read the same block-0 producer: the
        // replays are independent, so the members land in separate
        // components unless otherwise connected.
        let mut bld = Builder::new();
        let p = bld.compute("p");
        let x = bld.compute("x");
        let y = bld.compute("y");
        bld.edge(p, x, 16);
        bld.edge(p, y, 16);
        let g = bld.finish().unwrap();
        let block_of = vec![Some(0), Some(1), Some(1)];
        let iv = StreamingIntervals::for_block(&g, &[x, y], &block_of, 1);
        assert_ne!(iv.wcc_of(x), iv.wcc_of(y));
        // Members are leaves here (no outputs): no S_o, but S_i is defined.
        assert_eq!(iv.si(x), Some(Ratio::ONE));
    }
}
