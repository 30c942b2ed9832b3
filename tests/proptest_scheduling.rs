//! Property-based tests of scheduling invariants on randomly generated
//! canonical task graphs: whatever the topology, volumes, PE count, and
//! heuristic, every schedule must satisfy the model's structural laws.

use proptest::prelude::*;
use stg_graph::undirected_cycle_nodes;
use stg_workloads::{generate, Topology, WorkloadFamily, WorkloadKind};
use streaming_sched::prelude::*;

fn arbitrary_workload() -> impl Strategy<Value = (Topology, u64)> {
    let topo = prop_oneof![
        (2usize..12).prop_map(|tasks| Topology::Chain { tasks }),
        (1u32..4).prop_map(|k| Topology::Fft {
            points: 1usize << (k + 1)
        }),
        (2usize..8).prop_map(|m| Topology::GaussianElimination { m }),
        (2usize..6).prop_map(|tiles| Topology::Cholesky { tiles }),
    ];
    (topo, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schedules_satisfy_structural_invariants(
        (topo, seed) in arbitrary_workload(),
        p in 1usize..24,
        rlx in any::<bool>(),
    ) {
        let g = generate(topo, seed);
        let variant = if rlx { SbVariant::Rlx } else { SbVariant::Lts };
        let plan = StreamingScheduler::new(p).variant(variant).run(&g).expect("schedulable");
        let s = plan.schedule();

        // Partition invariants: exact cover, bounded block size.
        let covered: usize = plan.result.partition.blocks.iter().map(Vec::len).sum();
        prop_assert_eq!(covered, g.compute_count());
        prop_assert!(plan.result.partition.max_block_size() <= p);

        // Time invariants per task.
        for v in g.compute_nodes() {
            prop_assert!(s.st[v.index()] <= s.fo[v.index()], "{v:?}: ST ≤ FO");
            prop_assert!(s.fo[v.index()] <= s.lo[v.index()], "{v:?}: FO ≤ LO");
            prop_assert!(s.lo[v.index()] <= s.makespan);
        }

        // Same-block streaming dependencies: a consumer starts no earlier
        // than its producer's first output and finishes no earlier than one
        // cycle after the producer's completion.
        for (eid, e) in g.dag().edges() {
            if s.streaming_edge[eid.index()]
                && g.node(e.src).is_schedulable()
                && g.node(e.dst).is_schedulable()
            {
                prop_assert!(s.st[e.dst.index()] >= s.fo[e.src.index()]);
                prop_assert!(s.lo[e.dst.index()] > s.lo[e.src.index()]);
            }
        }

        // Block spans are ordered (gang scheduling) and cover every member.
        for w in s.block_spans.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "blocks execute back to back");
        }
        for (bi, block) in plan.result.partition.blocks.iter().enumerate() {
            for &v in block {
                let (start, end) = s.block_spans[bi];
                prop_assert!(s.st[v.index()] >= start && s.lo[v.index()] <= end);
            }
        }

        // Makespan bounds: between the streaming depth scaled by nothing
        // (lower: never beat a single co-scheduled block with P = ∞ when
        // only one block is used) and the fully sequential time plus
        // pipeline slack.
        let t1 = g.sequential_time();
        prop_assert!(plan.metrics().makespan > 0);
        if plan.metrics().blocks == 1 {
            let tinf = streaming_depth(&g).expect("acyclic");
            prop_assert_eq!(plan.metrics().makespan, tinf);
        }
        // A very loose sanity ceiling: every block costs at most its
        // sequential work plus its fill; overall ≤ T1 + per-block overheads.
        let slack = (plan.metrics().blocks as u64 + 1) * (g.node_count() as u64 + 4096);
        prop_assert!(plan.metrics().makespan <= t1 + slack);
    }

    #[test]
    fn simulation_validates_every_plan(
        (topo, seed) in arbitrary_workload(),
        p in 1usize..16,
    ) {
        let g = generate(topo, seed);
        let plan = StreamingScheduler::new(p).run(&g).expect("schedulable");
        let sim = plan.validate(&g);
        prop_assert!(sim.completed(), "deadlock: {:?}", sim.failure);
        prop_assert!(sim.makespan <= plan.metrics().makespan,
            "simulation ({}) may not exceed the analysis ({})",
            sim.makespan, plan.metrics().makespan);
        // The analysis is tight on the critical exit: within 25% of the
        // simulated execution for the graphs drawn here — chains of up to
        // 11 tasks, FFTs of up to 16 points, Gaussian elimination with
        // m < 8 and Cholesky with fewer than 6 tiles — on fewer than 16
        // PEs. Paper-size graphs on up to 128 PEs exceed 25%; their
        // one-sided Fig. 13 bound is checked in `tests/integration.rs`.
        prop_assert!((plan.metrics().makespan as f64) <= 1.25 * sim.makespan as f64 + 64.0,
            "analysis too pessimistic: {} vs simulated {}",
            plan.metrics().makespan, sim.makespan);
    }

    #[test]
    fn every_registered_scheduler_respects_bounds(
        (topo, seed) in arbitrary_workload(),
        p in 1usize..24,
    ) {
        let g = generate(topo, seed);
        let tinf = streaming_depth(&g).expect("acyclic");
        // Every preset in the registry must produce a plan whose makespan
        // is at least the streaming depth lower bound (T_s∞ is the
        // infinite-resource pipelined optimum, which buffered schedules
        // cannot beat either) and whose PE usage fits the machine.
        for kind in SchedulerKind::ALL {
            let plan = kind.build(p).schedule(&g);
            let plan = match plan {
                Ok(plan) => plan,
                Err(e) => return Err(TestCaseError::fail(format!("{kind}: {e}"))),
            };
            prop_assert!(
                plan.makespan() >= tinf,
                "{kind}: makespan {} below streaming depth {tinf}",
                plan.makespan()
            );
            let placement = plan.placement(&g);
            prop_assert!(
                placement.pes_used.iter().all(|&used| used <= p),
                "{kind}: block uses more than {p} PEs ({:?})",
                placement.pes_used
            );
            if let Some(partition) = plan.partition() {
                prop_assert!(partition.max_block_size() <= p, "{kind}");
            }
            // The PE cap over time: task v runs over [ST(v), LO(v)), and
            // no more than P of them run at once. A sweep over the start
            // and end events, ends first where they tie.
            if let Some(s) = plan.block_schedule() {
                let mut events: Vec<(u64, i64)> = g
                    .compute_nodes()
                    .flat_map(|v| [(s.st[v.index()], 1), (s.lo[v.index()], -1)])
                    .collect();
                events.sort_unstable();
                let mut running = 0i64;
                for (t, delta) in events {
                    running += delta;
                    prop_assert!(
                        running <= p as i64,
                        "{kind}: {running} tasks run at t={t} on {p} PEs ({topo:?}, seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn baseline_respects_precedence_and_capacity(
        (topo, seed) in arbitrary_workload(),
        p in 1usize..12,
    ) {
        let g = generate(topo, seed);
        let n = non_streaming_schedule(&g, p);
        // Capacity: no more than p tasks overlap at any time. Check at
        // every start point.
        let mut intervals: Vec<(u64, u64)> = g
            .compute_nodes()
            .map(|v| (n.start[v.index()], n.finish[v.index()]))
            .collect();
        intervals.sort_unstable();
        for &(t, _) in &intervals {
            let overlapping = intervals
                .iter()
                .filter(|&&(s, f)| s <= t && t < f)
                .count();
            prop_assert!(overlapping <= p, "{overlapping} tasks at t={t} on {p} PEs");
        }
        // Work conservation: makespan ≥ T1 / p, and ≥ critical path.
        let t1 = g.sequential_time();
        prop_assert!(n.makespan >= t1.div_ceil(p as u64));
        prop_assert!(n.makespan >= non_streaming_depth(&g).expect("acyclic"));
    }

    /// Buffer sizing finds each block's cycle nodes over that block's own
    /// streaming edges. They must equal the whole-graph oracle
    /// `undirected_cycle_nodes` under the block filters: the block's
    /// members plus the sources multicasting into it, and the streaming
    /// edges into the block. The channel kinds follow the oracle too.
    #[test]
    fn per_block_cycle_nodes_match_the_whole_graph_oracle(
        (topo, seed) in arbitrary_workload(),
        family in 0usize..8,
        p in 1usize..24,
        rlx in any::<bool>(),
        cycles_only in any::<bool>(),
    ) {
        // The generated families have no source nodes; the canonical
        // expansions multicast sources into converging paths.
        let n = 4 + seed % 29;
        let g = match family {
            0 => generate(topo, seed),
            1..=4 => {
                let name = ["stencil2d", "spmv", "forkjoin", "attention:seq64"][family - 1];
                let kind: WorkloadKind = name.parse().expect("registered family");
                (*kind.instantiate(seed % 64)).clone()
            }
            5 => stg_model::expansions::vector_norm_streamed(n).0,
            6 => stg_model::expansions::softmax(n).0,
            _ => stg_model::expansions::matmul_outer_product(n % 5 + 2, n % 3 + 2, n % 4 + 2).0,
        };
        let variant = if rlx { SbVariant::Rlx } else { SbVariant::Lts };
        let partition = spatial_block_partition(&g, p, variant);
        let s = schedule(&g, &partition).expect("Algorithm 1 partitions are schedulable");
        let policy = if cycles_only { SizingPolicy::CyclesOnly } else { SizingPolicy::Converging };
        let plan = buffer_sizes(&g, &s, policy, 1);
        let dag = g.dag();
        prop_assert_eq!(plan.cycle_nodes.len(), partition.len());
        let mut on_cycle = vec![false; dag.node_count()];
        for (bi, found) in plan.cycle_nodes.iter().enumerate() {
            let bi = bi as u32;
            let streaming_in_block = |e: EdgeId| {
                s.streaming_edge[e.index()] && s.block_of[dag.edge(e).dst.index()] == Some(bi)
            };
            let in_block = |v: NodeId| {
                s.block_of[v.index()] == Some(bi)
                    || (g.kind(v) == NodeKind::Source
                        && dag.out_edge_ids(v).iter().any(|&e| streaming_in_block(e)))
            };
            let oracle = undirected_cycle_nodes(dag, in_block, streaming_in_block);
            let expected: Vec<NodeId> =
                dag.node_ids().filter(|v| oracle.on_cycle[v.index()]).collect();
            prop_assert_eq!(found, &expected, "block {}", bi);
            for v in expected {
                if s.block_of[v.index()] == Some(bi) {
                    on_cycle[v.index()] = true;
                }
            }
        }
        for &(e, _, kind) in &plan.sized {
            let critical = on_cycle[dag.edge(e).dst.index()];
            prop_assert_eq!(kind == ChannelKind::DeadlockCritical, critical);
        }
    }
}
