//! Temporal multiplexing of several tenants' graphs onto one device.
//!
//! A canonical graph holding several *independent* task graphs (one per
//! tenant, e.g. built by concatenating the tenants' builders) is split
//! into its weakly connected components over the compute-task precedence
//! DAG — source/sink/buffer nodes never merge tenants, because precedence
//! edges only connect compute tasks. Each component is a tenant; tenants
//! are packed into `slots` time slots by longest-processing-time-first
//! (LPT) on total work, and within a slot each tenant is chunked into
//! level-ordered spatial blocks of at most `p` tasks — the Theorem A.1
//! construction applied per component, so the resulting [`Partition`] is
//! always schedulable.
//!
//! Block order is slot-major: every block of slot 0's tenants precedes
//! every block of slot 1's, modelling the device being *reconfigured*
//! between slots. The scheduler charges [`DEFAULT_TRANSITION_COST`] per
//! slot transition on top of the streaming makespan — the multi-mode
//! transition-cost model of Jung, Oh & Ha applied to slot switches.

use stg_analysis::{GraphFacts, Partition};
use stg_graph::{weakly_connected_components, NodeId};
use stg_model::CanonicalGraph;

/// Default cycles charged per slot-to-slot transition (device
/// reconfiguration between tenant groups).
pub const DEFAULT_TRANSITION_COST: u64 = 64;

/// One tenant: a weakly connected component of the compute-task
/// precedence DAG, assigned to a time slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tenant {
    /// The tenant's compute tasks (original node ids), sorted by
    /// (whole-graph level, node id) — the order its blocks are cut in.
    pub tasks: Vec<NodeId>,
    /// Total work `Σ W(v)` of the tenant's tasks.
    pub work: u64,
    /// The time slot this tenant executes in (`0..slots`).
    pub slot: usize,
}

/// The result of temporal multiplexing: the slot-major partition plus the
/// tenant/slot assignment it was derived from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiplexLayout {
    /// Slot-major spatial-block partition (schedulable as-is).
    pub partition: Partition,
    /// Tenants in packing order (descending work, ties by smallest task
    /// id), with their slot assignments.
    pub tenants: Vec<Tenant>,
    /// Requested slot count.
    pub slots: usize,
    /// Slots that actually received at least one tenant (`<= slots`; with
    /// fewer tenants than slots the tail slots stay empty).
    pub slots_used: usize,
}

impl MultiplexLayout {
    /// Number of slot-to-slot transitions the schedule pays for.
    pub fn transitions(&self) -> u64 {
        self.slots_used.saturating_sub(1) as u64
    }
}

/// Packs `g`'s tenants (precedence-DAG components) into `slots` time
/// slots and cuts each into level-ordered blocks of at most `p` tasks
/// ([`multiplex_layout`] on freshly analysed facts).
///
/// # Panics
/// Panics if `p == 0` or `slots == 0`, or if the graph is cyclic.
pub fn temporal_multiplex_partition(g: &CanonicalGraph, p: usize, slots: usize) -> MultiplexLayout {
    multiplex_layout(&GraphFacts::new(g), p, slots)
}

/// Temporal multiplexing over a graph's shared precedence and levels.
///
/// # Panics
/// Panics if `p == 0` or `slots == 0`, or if the graph is cyclic.
pub fn multiplex_layout(facts: &GraphFacts<'_>, p: usize, slots: usize) -> MultiplexLayout {
    assert!(p > 0, "need at least one processing element");
    assert!(slots > 0, "need at least one time slot");
    let g = facts.graph();
    let level = facts.levels();
    let prec = facts.precedence();
    let (comp, count) = weakly_connected_components(&prec.dag, |_| true);

    // Gather each component's tasks in (level, id) order.
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); count];
    for t in prec.dag.node_ids() {
        let orig = *prec.dag.node(t);
        members[comp[t.index()] as usize].push(orig);
    }
    let mut tenants: Vec<Tenant> = members
        .into_iter()
        .filter(|tasks| !tasks.is_empty())
        .map(|mut tasks| {
            tasks.sort_by_key(|v| (level[v.index()], v.0));
            let work = tasks.iter().map(|&v| g.work(v)).sum();
            Tenant {
                tasks,
                work,
                slot: 0,
            }
        })
        .collect();
    // LPT packing order: heaviest first, ties by smallest task id so the
    // layout is deterministic.
    tenants.sort_by(|a, b| {
        b.work
            .cmp(&a.work)
            .then_with(|| a.tasks.first().cmp(&b.tasks.first()))
    });
    let mut load = vec![0u64; slots];
    for t in &mut tenants {
        let slot = (0..slots).min_by_key(|&s| (load[s], s)).expect("slots > 0");
        t.slot = slot;
        load[slot] += t.work.max(1);
    }
    let slots_used = load.iter().filter(|&&l| l > 0).count();

    // Slot-major block order; within a slot, tenants by smallest task id
    // (stable regardless of the packing order), each chunked like
    // Theorem A.1's level-order partitioner.
    let mut blocks = Vec::new();
    for slot in 0..slots {
        let mut in_slot: Vec<&Tenant> = tenants.iter().filter(|t| t.slot == slot).collect();
        in_slot.sort_by_key(|t| t.tasks.first().copied());
        for t in in_slot {
            blocks.extend(t.tasks.chunks(p).map(<[NodeId]>::to_vec));
        }
    }
    MultiplexLayout {
        partition: Partition { blocks },
        tenants,
        slots,
        slots_used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stg_model::Builder;

    /// `n` disjoint chains of `len` tasks with per-edge volume `vol[i]`.
    fn chains(vols: &[(usize, u64)]) -> CanonicalGraph {
        let mut b = Builder::new();
        for &(len, vol) in vols {
            let t: Vec<_> = (0..len).map(|i| b.compute(format!("c{vol}t{i}"))).collect();
            b.chain(&t, vol);
        }
        b.finish().expect("disjoint chains are canonical")
    }

    #[test]
    fn single_tenant_uses_one_slot() {
        let g = chains(&[(6, 64)]);
        let layout = temporal_multiplex_partition(&g, 3, 4);
        assert_eq!(layout.tenants.len(), 1);
        assert_eq!((layout.slots_used, layout.transitions()), (1, 0));
        assert_eq!(layout.partition.len(), 2); // 6 tasks / 3 per block
        assert!(layout.partition.max_block_size() <= 3);
    }

    #[test]
    fn tenants_are_components_and_cover_all_tasks() {
        let g = chains(&[(4, 32), (5, 16), (3, 8)]);
        let layout = temporal_multiplex_partition(&g, 2, 2);
        assert_eq!(layout.tenants.len(), 3);
        let mut covered: Vec<NodeId> = layout.partition.blocks.iter().flatten().copied().collect();
        covered.sort_by_key(|v| v.0);
        covered.dedup();
        assert_eq!(covered.len(), g.compute_count(), "exact cover");
        // Blocks never mix tenants.
        for block in &layout.partition.blocks {
            let slots: std::collections::BTreeSet<usize> = block
                .iter()
                .map(|v| {
                    layout
                        .tenants
                        .iter()
                        .position(|t| t.tasks.contains(v))
                        .expect("every task belongs to a tenant")
                })
                .collect();
            assert_eq!(slots.len(), 1, "block spans tenants: {block:?}");
        }
    }

    #[test]
    fn lpt_packs_heaviest_alone() {
        // Works 10·3=30, 7·3=21, 3·3=9 (chain work counts both edge ends).
        let g = chains(&[(4, 10), (4, 7), (4, 3)]);
        let layout = temporal_multiplex_partition(&g, 4, 2);
        assert_eq!(layout.slots_used, 2);
        let heavy = &layout.tenants[0];
        assert_eq!(heavy.work, 40); // 4 tasks × W=10
        let light_slots: Vec<usize> = layout.tenants[1..].iter().map(|t| t.slot).collect();
        assert!(
            light_slots.iter().all(|&s| s != heavy.slot),
            "LPT puts both lighter tenants opposite the heavy one"
        );
    }

    #[test]
    fn layout_is_deterministic() {
        let g = chains(&[(4, 9), (6, 5), (2, 17)]);
        let a = temporal_multiplex_partition(&g, 3, 2);
        let b = temporal_multiplex_partition(&g, 3, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn partition_is_schedulable() {
        let g = chains(&[(5, 64), (7, 32)]);
        let layout = temporal_multiplex_partition(&g, 3, 2);
        stg_analysis::schedule(&g, &layout.partition).expect("slot-major blocks are schedulable");
    }
}
