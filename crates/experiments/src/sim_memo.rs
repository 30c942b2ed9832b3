//! Validation simulations kept across engine passes: the result store's
//! simulation memo.
//!
//! A graph job of [`crate::engine`] shares one simulation among its cells
//! whose plans give the simulator identical inputs, and drops it with the
//! job. A pass of one-cell jobs has nothing to share within a job: every
//! `serve` plan request is one, and so is every cell of a stripe-major
//! fabric chunk. Through a [`ResultStore`](crate::ResultStore), such a
//! cell looks its plan up in the store's [`SimMemo`] before simulating,
//! and offers each simulation it runs to it, so later passes through the
//! store share it.
//!
//! - **Key.** The graph's structural fingerprint and the [`SimChoice`]:
//!   an entry made under one choice never answers another (a `batched`
//!   entry never answers a `both` request, which must run both
//!   simulators).
//! - **Entries.** Exactly the [`SimInputs`] (block count, `block_of`,
//!   streaming flags, FIFO capacities), compared value by value, not
//!   through a digest, plus the engine's [`Simulated`] result.
//! - **Bound.** [`SIM_MEMO_BYTES`] of stored inputs; past it, the graph
//!   stored first is evicted first, with all its entries.
//!
//! Nothing is persisted: a memo hit yields the bytes the simulation would
//! have, so no frame, CSV, shard or segment byte depends on the memo.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

use stg_des::SimInputs;

use crate::engine::SimChoice;

/// The memo's budget of stored simulator inputs in a
/// [`ResultStore`](crate::ResultStore), in bytes. A `spmv:1024:0.01`
/// plan stores about 28 KB.
pub(crate) const SIM_MEMO_BYTES: usize = 16 << 20;

/// The plan-independent part of a validation record: what one simulation
/// contributes to every cell that shares it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Simulated {
    pub(crate) completed: bool,
    pub(crate) makespan: u64,
    pub(crate) beats: u64,
    pub(crate) diverged: bool,
}

/// A bounded, thread-safe memo of simulations keyed by graph
/// fingerprint and [`SimChoice`] (see the module docs).
pub(crate) struct SimMemo {
    budget: usize,
    state: Mutex<MemoState>,
}

/// A memo key: graph fingerprint and simulator choice.
type GraphKey = (u64, SimChoice);

#[derive(Default)]
struct MemoState {
    graphs: HashMap<GraphKey, Vec<(StoredInputs, Simulated)>>,
    /// The keys of `graphs`, in the order each was first stored.
    order: VecDeque<GraphKey>,
    /// [`StoredInputs::bytes`] summed over every entry.
    bytes: usize,
}

impl SimMemo {
    /// An empty memo holding at most `budget` bytes of stored inputs.
    pub(crate) fn with_budget(budget: usize) -> SimMemo {
        SimMemo {
            budget,
            state: Mutex::default(),
        }
    }

    /// The simulation stored for `inputs` on the graph `fingerprint`
    /// under `choice`.
    pub(crate) fn find(
        &self,
        fingerprint: u64,
        choice: SimChoice,
        inputs: SimInputs<'_>,
    ) -> Option<Simulated> {
        let state = self.state.lock().expect("simulation memo lock");
        state
            .graphs
            .get(&(fingerprint, choice))?
            .iter()
            .find(|(stored, _)| stored.matches(inputs))
            .map(|&(_, run)| run)
    }

    /// Stores `run`, the simulation of `inputs` on the graph
    /// `fingerprint` under `choice`, unless an equal entry is stored
    /// already (a concurrent caller simulated the same inputs) or the
    /// inputs alone exceed the budget; then evicts the oldest graphs
    /// until the memo fits its budget again.
    pub(crate) fn offer(
        &self,
        fingerprint: u64,
        choice: SimChoice,
        inputs: SimInputs<'_>,
        run: Simulated,
    ) {
        let Some(stored) = StoredInputs::new(inputs).filter(|s| s.bytes() <= self.budget) else {
            return;
        };
        let key = (fingerprint, choice);
        let mut state = self.state.lock().expect("simulation memo lock");
        let MemoState {
            graphs,
            order,
            bytes,
        } = &mut *state;
        let entries = match graphs.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                order.push_back(key);
                e.insert(Vec::new())
            }
        };
        if entries.iter().any(|(s, _)| s.matches(inputs)) {
            return;
        }
        *bytes += stored.bytes();
        entries.push((stored, run));
        while *bytes > self.budget {
            let oldest = order.pop_front().expect("stored bytes belong to a graph");
            for (stored, _) in graphs.remove(&oldest).expect("ordered keys are stored") {
                *bytes -= stored.bytes();
            }
        }
    }

    /// Bytes of stored inputs.
    pub(crate) fn stored_bytes(&self) -> usize {
        self.state.lock().expect("simulation memo lock").bytes
    }

    /// Whether any entry is stored for the graph `fingerprint` under
    /// `choice`.
    #[cfg(test)]
    pub(crate) fn holds(&self, fingerprint: u64, choice: SimChoice) -> bool {
        let state = self.state.lock().expect("simulation memo lock");
        state.graphs.contains_key(&(fingerprint, choice))
    }
}

/// An owned, compact copy of one plan's [`SimInputs`]: block indices and
/// FIFO capacities as `u32` codes (0 for `None`, else the value plus
/// one), streaming flags as bits. Built only when every value has a
/// code, so [`Self::matches`] compares exactly.
struct StoredInputs {
    blocks: usize,
    block_of: Box<[u32]>,
    edges: usize,
    streaming: Box<[u64]>,
    capacity: Box<[u32]>,
}

/// The `u32` code of an optional value: 0 for `None`, else the value
/// plus one, if that fits. Distinct values have distinct codes.
fn code<T: TryInto<u32>>(v: Option<T>) -> Option<u32> {
    match v {
        None => Some(0),
        Some(v) => v.try_into().ok()?.checked_add(1),
    }
}

/// True when `codes` are the codes of `values`, one for one.
fn coded<T: Copy + TryInto<u32>>(codes: &[u32], values: &[Option<T>]) -> bool {
    codes.len() == values.len() && codes.iter().zip(values).all(|(&c, &v)| code(v) == Some(c))
}

impl StoredInputs {
    /// The copy of `inputs`, or `None` when a value has no code.
    fn new(inputs: SimInputs<'_>) -> Option<StoredInputs> {
        let SimInputs {
            blocks,
            block_of,
            streaming_edge,
            capacity,
        } = inputs;
        let mut streaming = vec![0u64; streaming_edge.len().div_ceil(64)];
        for (i, _) in streaming_edge.iter().enumerate().filter(|(_, &s)| s) {
            streaming[i / 64] |= 1u64 << (i % 64);
        }
        Some(StoredInputs {
            blocks,
            block_of: block_of.iter().map(|&b| code(b)).collect::<Option<_>>()?,
            edges: streaming_edge.len(),
            streaming: streaming.into(),
            capacity: capacity.iter().map(|&c| code(c)).collect::<Option<_>>()?,
        })
    }

    /// True when `inputs` equal the inputs this copy was made of.
    fn matches(&self, inputs: SimInputs<'_>) -> bool {
        let SimInputs {
            blocks,
            block_of,
            streaming_edge,
            capacity,
        } = inputs;
        blocks == self.blocks
            && streaming_edge.len() == self.edges
            && streaming_edge
                .iter()
                .enumerate()
                .all(|(i, &s)| s == (self.streaming[i / 64] >> (i % 64) & 1 == 1))
            && coded(&self.block_of, block_of)
            && coded(&self.capacity, capacity)
    }

    /// Bytes this copy holds.
    fn bytes(&self) -> usize {
        4 * self.block_of.len() + 8 * self.streaming.len() + 4 * self.capacity.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inputs of `n` nodes in one block and `n - 1` streaming edges of
    /// capacity `cap`, as owned parts.
    fn parts(n: usize, cap: u64) -> (Vec<Option<u32>>, Vec<bool>, Vec<Option<u64>>) {
        (vec![Some(0); n], vec![true; n - 1], vec![Some(cap); n - 1])
    }

    fn view<'a>(p: &'a (Vec<Option<u32>>, Vec<bool>, Vec<Option<u64>>)) -> SimInputs<'a> {
        SimInputs {
            blocks: 1,
            block_of: &p.0,
            streaming_edge: &p.1,
            capacity: &p.2,
        }
    }

    fn run(makespan: u64) -> Simulated {
        Simulated {
            completed: true,
            makespan,
            beats: 10 * makespan,
            diverged: false,
        }
    }

    #[test]
    fn stored_inputs_match_exactly_what_they_copied() {
        let mut p = (
            vec![None, Some(0), Some(1), Some(1)],
            vec![false, true, true, false, true],
            vec![None, Some(2), Some(u32::MAX as u64 - 1), None, Some(1)],
        );
        let mut inputs = view(&p);
        inputs.blocks = 2;
        let stored = StoredInputs::new(inputs).expect("every value has a code");
        assert!(stored.matches(inputs));
        assert_eq!(stored.bytes(), 4 * 4 + 8 + 4 * 5);
        let mut other = inputs;
        other.blocks = 3;
        assert!(!stored.matches(other), "block count");
        // One value changed at a time: None ↔ Some(0), a flag, and a
        // capacity one past the largest code.
        p.0[0] = Some(0);
        assert!(!stored.matches(SimInputs {
            blocks: 2,
            ..view(&p)
        }));
        p.0[0] = None;
        p.1[3] = true;
        assert!(!stored.matches(SimInputs {
            blocks: 2,
            ..view(&p)
        }));
        p.1[3] = false;
        p.2[2] = Some(u32::MAX as u64);
        assert!(!stored.matches(SimInputs {
            blocks: 2,
            ..view(&p)
        }));
        assert!(
            StoredInputs::new(SimInputs {
                blocks: 2,
                ..view(&p)
            })
            .is_none(),
            "a capacity without a code is never stored"
        );
        p.2[2] = Some(u32::MAX as u64 - 1);
        assert!(stored.matches(SimInputs {
            blocks: 2,
            ..view(&p)
        }));
        // A shorter edge list with the same prefix.
        let short = (p.0.clone(), p.1[..4].to_vec(), p.2[..4].to_vec());
        assert!(!stored.matches(SimInputs {
            blocks: 2,
            ..view(&short)
        }));
    }

    #[test]
    fn entries_answer_only_their_graph_and_choice() {
        let memo = SimMemo::with_budget(SIM_MEMO_BYTES);
        let (a, b) = (parts(8, 1), parts(8, 2));
        memo.offer(1, SimChoice::Batched, view(&a), run(5));
        assert_eq!(memo.find(1, SimChoice::Batched, view(&a)), Some(run(5)));
        assert_eq!(memo.find(1, SimChoice::Batched, view(&b)), None);
        assert_eq!(memo.find(2, SimChoice::Batched, view(&a)), None);
        assert_eq!(memo.find(1, SimChoice::Both, view(&a)), None);
        // A second offer of equal inputs (a concurrent caller's) adds
        // nothing.
        let bytes = memo.stored_bytes();
        memo.offer(1, SimChoice::Batched, view(&a), run(5));
        assert_eq!(memo.stored_bytes(), bytes);
        memo.offer(1, SimChoice::Batched, view(&b), run(6));
        assert_eq!(memo.find(1, SimChoice::Batched, view(&b)), Some(run(6)));
        assert_eq!(memo.stored_bytes(), 2 * bytes);
    }

    #[test]
    fn the_budget_evicts_the_oldest_graph_first() {
        let p = parts(64, 1);
        let one = StoredInputs::new(view(&p)).unwrap().bytes();
        // Room for three entries.
        let memo = SimMemo::with_budget(3 * one);
        memo.offer(1, SimChoice::Batched, view(&p), run(1));
        memo.offer(2, SimChoice::Batched, view(&p), run(2));
        let q = parts(64, 2);
        memo.offer(1, SimChoice::Batched, view(&q), run(3));
        assert_eq!(memo.stored_bytes(), 3 * one);
        // A fourth entry evicts graph 1, stored first, with both of its
        // entries; graph 2 stays, although graph 1 was stored to last.
        memo.offer(3, SimChoice::Batched, view(&p), run(4));
        assert!(!memo.holds(1, SimChoice::Batched));
        assert_eq!(memo.find(1, SimChoice::Batched, view(&q)), None);
        assert_eq!(memo.find(2, SimChoice::Batched, view(&p)), Some(run(2)));
        assert_eq!(memo.find(3, SimChoice::Batched, view(&p)), Some(run(4)));
        assert_eq!(memo.stored_bytes(), 2 * one);
        // Graph 1 stored again is now the newest.
        memo.offer(1, SimChoice::Batched, view(&p), run(1));
        memo.offer(4, SimChoice::Batched, view(&p), run(5));
        assert!(!memo.holds(2, SimChoice::Batched));
        assert!(memo.holds(1, SimChoice::Batched));
        // Inputs larger than the whole budget are never stored.
        let big = parts(1024, 1);
        memo.offer(5, SimChoice::Batched, view(&big), run(6));
        assert!(!memo.holds(5, SimChoice::Batched));
        assert_eq!(memo.stored_bytes(), 3 * one);
    }
}
