//! Dependency DAG over circuit gates.
//!
//! The greedy router consumes gates from the *front layer* (gates whose
//! predecessors have all been scheduled) and uses successor information for
//! the gate-dependent look-ahead moves of paper §V.A ("the data qubits
//! consult the circuit's DAG to determine the subsequent move operations").
//!
//! A gate acts on at most two qubits, so it has at most two direct
//! predecessors and two direct successors; each node stores both lists
//! inline, and building the DAG allocates only the node list.

use crate::circuit::Circuit;
use crate::gate::Gate;

/// Identifier of a node (gate) in the DAG; equals the gate's index in the
/// originating circuit.
pub type NodeId = usize;

/// Up to two node ids, stored inline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Edges {
    ids: [NodeId; 2],
    len: u8,
}

impl Edges {
    fn as_slice(&self) -> &[NodeId] {
        &self.ids[..self.len as usize]
    }

    /// Adds `id` unless present.
    ///
    /// # Panics
    ///
    /// Panics on a third distinct id (a gate with more than two operands).
    fn insert(&mut self, id: NodeId) {
        if !self.as_slice().contains(&id) {
            self.ids[self.len as usize] = id;
            self.len += 1;
        }
    }
}

/// One node of the dependency DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct DagNode {
    /// The gate at this node.
    pub gate: Gate,
    preds: Edges,
    succs: Edges,
}

impl DagNode {
    /// Direct predecessors (gates that must run first), in operand order.
    pub fn preds(&self) -> &[NodeId] {
        self.preds.as_slice()
    }

    /// Direct successors, ascending.
    pub fn succs(&self) -> &[NodeId] {
        self.succs.as_slice()
    }
}

/// A circuit's gate-dependency DAG.
///
/// Edges connect consecutive gates acting on a common qubit. Node ids equal
/// gate indices, so topological order by increasing id is always valid.
///
/// # Example
///
/// ```
/// use ftqc_circuit::Circuit;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cnot(0, 1).h(1);
/// let dag = c.dag();
/// assert_eq!(dag.len(), 3);
/// assert_eq!(dag.node(1).preds(), &[0]);
/// assert_eq!(dag.node(1).succs(), &[2]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DagCircuit {
    nodes: Vec<DagNode>,
    num_qubits: u32,
}

impl DagCircuit {
    /// Builds the DAG from a circuit.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut nodes: Vec<DagNode> = Vec::with_capacity(circuit.len());
        let mut last_on: Vec<Option<NodeId>> = vec![None; circuit.num_qubits() as usize];
        for (id, gate) in circuit.iter().enumerate() {
            let mut preds = Edges::default();
            for q in gate.qubits() {
                if let Some(p) = last_on[q as usize].replace(id) {
                    preds.insert(p);
                }
            }
            for &p in preds.as_slice() {
                nodes[p].succs.insert(id);
            }
            nodes.push(DagNode {
                gate: *gate,
                preds,
                succs: Edges::default(),
            });
        }
        Self {
            nodes,
            num_qubits: circuit.num_qubits(),
        }
    }

    /// Number of nodes (gates).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the DAG is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Register size of the originating circuit.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// Borrowed access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &DagNode {
        &self.nodes[id]
    }

    /// All nodes in id (= program) order.
    pub fn nodes(&self) -> &[DagNode] {
        &self.nodes
    }

    /// Nodes with no predecessors (the initial front layer).
    pub fn front_layer(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.preds().is_empty())
            .map(|(i, _)| i)
    }

    /// Length of the weighted critical path, where each gate contributes
    /// `cost(gate)`.
    ///
    /// Used by the DASCOT baseline model, whose execution time with unlimited
    /// magic states is depth-limited.
    pub fn critical_path(&self, mut cost: impl FnMut(&Gate) -> u64) -> u64 {
        let mut finish = vec![0u64; self.nodes.len()];
        let mut best = 0;
        for (id, node) in self.nodes.iter().enumerate() {
            let start = node.preds().iter().map(|&p| finish[p]).max().unwrap_or(0);
            finish[id] = start + cost(&node.gate);
            best = best.max(finish[id]);
        }
        best
    }

    /// Creates a scheduling tracker over this DAG.
    pub fn tracker(&self) -> FrontTracker<'_> {
        FrontTracker::new(self)
    }
}

/// A [`FrontTracker`] slot for a gate that is not in the ready set.
const NOT_READY: usize = usize::MAX;

/// Incremental front-layer tracker used by the greedy scheduler.
///
/// Call [`FrontTracker::complete`] as gates are scheduled;
/// [`FrontTracker::ready`] always holds the current front layer, in no
/// particular order: a caller that needs an order (the engine's heap, the
/// EDPC baseline's sort) imposes its own. Completing a gate is O(1) plus
/// its (at most two) successors.
#[derive(Debug, Clone)]
pub struct FrontTracker<'a> {
    dag: &'a DagCircuit,
    /// Per gate: its predecessors not yet completed.
    indeg: Vec<u8>,
    /// Per gate: its index in `ready`, or [`NOT_READY`].
    slot: Vec<usize>,
    ready: Vec<NodeId>,
    remaining: usize,
}

impl<'a> FrontTracker<'a> {
    /// Creates a tracker with the initial front layer ready.
    pub fn new(dag: &'a DagCircuit) -> Self {
        let indeg: Vec<u8> = dag.nodes().iter().map(|n| n.preds.len).collect();
        let ready: Vec<NodeId> = dag.front_layer().collect();
        let mut slot = vec![NOT_READY; dag.len()];
        for (i, &id) in ready.iter().enumerate() {
            slot[id] = i;
        }
        Self {
            dag,
            indeg,
            slot,
            ready,
            remaining: dag.len(),
        }
    }

    /// Gates currently schedulable, in no particular order.
    pub fn ready(&self) -> &[NodeId] {
        &self.ready
    }

    /// Number of gates not yet completed.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Whether every gate has been completed.
    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }

    /// Marks `id` complete, releasing successors whose predecessors are all
    /// complete. Returns the released successors, ascending, so a caller
    /// keeping its own order over the ready set can add just those.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not currently in the ready set (completing a gate
    /// with outstanding dependencies would corrupt the schedule).
    pub fn complete(&mut self, id: NodeId) -> &[NodeId] {
        let at = self.slot[id];
        assert!(at != NOT_READY, "gate {id} completed while not ready");
        self.slot[id] = NOT_READY;
        self.ready.swap_remove(at);
        if let Some(&moved) = self.ready.get(at) {
            self.slot[moved] = at;
        }
        self.remaining -= 1;
        let released = self.ready.len();
        for &s in self.dag.node(id).succs() {
            self.indeg[s] -= 1;
            if self.indeg[s] == 0 {
                self.slot[s] = self.ready.len();
                self.ready.push(s);
            }
        }
        &self.ready[released..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    fn chain3() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).h(1);
        c
    }

    #[test]
    fn edges_follow_qubit_order() {
        let dag = chain3().dag();
        assert_eq!(dag.node(0).preds(), &[] as &[NodeId]);
        assert_eq!(dag.node(0).succs(), &[1]);
        assert_eq!(dag.node(1).preds(), &[0]);
        assert_eq!(dag.node(2).preds(), &[1]);
    }

    #[test]
    fn cnot_preds_deduplicated() {
        // Both operands of the second CNOT last appeared in the first CNOT:
        // exactly one dependency edge should exist.
        let mut c = Circuit::new(2);
        c.cnot(0, 1).cnot(1, 0);
        let dag = c.dag();
        assert_eq!(dag.node(1).preds(), &[0]);
        assert_eq!(dag.node(0).succs(), &[1]);
    }

    #[test]
    fn front_layer_initial() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).cnot(0, 1).h(2);
        let dag = c.dag();
        let front: Vec<_> = dag.front_layer().collect();
        assert_eq!(front, vec![0, 1, 3]);
    }

    #[test]
    fn critical_path_weighted() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).h(1);
        let cp = c.dag().critical_path(|g| match g {
            Gate::H(_) => 3,
            Gate::Cnot { .. } => 2,
            _ => 1,
        });
        assert_eq!(cp, 3 + 2 + 3);
    }

    #[test]
    fn critical_path_parallel_branches() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3);
        assert_eq!(c.dag().critical_path(|_| 5), 5);
    }

    #[test]
    fn tracker_full_run() {
        let dag = chain3().dag();
        let mut t = dag.tracker();
        assert_eq!(t.ready(), &[0]);
        t.complete(0);
        assert_eq!(t.ready(), &[1]);
        t.complete(1);
        assert_eq!(t.ready(), &[2]);
        t.complete(2);
        assert!(t.is_done());
    }

    #[test]
    fn tracker_tracks_the_ready_set() {
        let mut c = Circuit::new(4);
        c.cnot(0, 1).h(2).h(3).h(0).cnot(0, 2);
        let dag = c.dag();
        let mut t = dag.tracker();
        let sorted = |t: &FrontTracker| {
            let mut ready = t.ready().to_vec();
            ready.sort_unstable();
            ready
        };
        assert_eq!(sorted(&t), [0, 1, 2]);
        // Gate 3 (h q0) is released; the ready set has no order.
        assert_eq!(t.complete(0), &[3]);
        assert_eq!(sorted(&t), [1, 2, 3]);
        assert!(t.complete(2).is_empty());
        assert_eq!(sorted(&t), [1, 3]);
        // Gate 4 (cx q0, q2) waits for both gate 3 and gate 1.
        assert!(t.complete(3).is_empty());
        assert_eq!(t.complete(1), &[4]);
        assert_eq!(t.ready(), &[4]);
        assert!(t.complete(4).is_empty());
        assert!(t.is_done());
    }

    #[test]
    fn nodes_hold_two_predecessors_and_two_successors() {
        // Gate 2 depends on both earlier gates; gate 0's successors are
        // gate 1 (via q1) and gate 2 (via q0), ascending.
        let mut c = Circuit::new(3);
        c.cnot(0, 1).cnot(1, 2).cnot(0, 2);
        let dag = c.dag();
        assert_eq!(dag.node(0).succs(), &[1, 2]);
        assert_eq!(dag.node(2).preds(), &[0, 1]);
        assert_eq!(dag.node(1).succs(), &[2]);
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn tracker_rejects_unready_completion() {
        let dag = chain3().dag();
        let mut t = dag.tracker();
        t.complete(2);
    }

    #[test]
    fn empty_dag() {
        let c = Circuit::new(1);
        let dag = c.dag();
        assert!(dag.is_empty());
        assert!(dag.tracker().is_done());
    }
}
