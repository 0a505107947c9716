//! Dependency DAG over circuit gates.
//!
//! The greedy router consumes gates from the *front layer* (gates whose
//! predecessors have all been scheduled) and uses successor information for
//! the gate-dependent look-ahead moves of paper §V.A ("the data qubits
//! consult the circuit's DAG to determine the subsequent move operations").

use crate::circuit::Circuit;
use crate::gate::{Gate, Qubit};
use serde::{Deserialize, Serialize};

/// Identifier of a node (gate) in the DAG; equals the gate's index in the
/// originating circuit.
pub type NodeId = usize;

/// One node of the dependency DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagNode {
    /// The gate at this node.
    pub gate: Gate,
    /// Direct predecessors (gates that must run first).
    pub preds: Vec<NodeId>,
    /// Direct successors.
    pub succs: Vec<NodeId>,
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
/// assert_eq!(dag.node(1).preds, vec![0]);
/// assert_eq!(dag.node(1).succs, vec![2]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
            let mut preds = Vec::new();
            for q in gate.qubits() {
                if let Some(p) = last_on[q as usize] {
                    if !preds.contains(&p) {
                        preds.push(p);
                    }
                }
                last_on[q as usize] = Some(id);
            }
            for &p in &preds {
                nodes[p].succs.push(id);
            }
            nodes.push(DagNode {
                gate: *gate,
                preds,
                succs: Vec::new(),
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
            .filter(|(_, n)| n.preds.is_empty())
            .map(|(i, _)| i)
    }

    /// ASAP layering: `layers()[k]` holds the ids of gates whose longest
    /// dependency chain from an input has length `k`.
    pub fn layers(&self) -> Vec<Vec<NodeId>> {
        let mut level = vec![0usize; self.nodes.len()];
        let mut max_level = 0;
        for (id, node) in self.nodes.iter().enumerate() {
            let lvl = node.preds.iter().map(|&p| level[p] + 1).max().unwrap_or(0);
            level[id] = lvl;
            max_level = max_level.max(lvl);
        }
        let mut layers = vec![
            Vec::new();
            if self.nodes.is_empty() {
                0
            } else {
                max_level + 1
            }
        ];
        for (id, &lvl) in level.iter().enumerate() {
            layers[lvl].push(id);
        }
        layers
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
            let start = node.preds.iter().map(|&p| finish[p]).max().unwrap_or(0);
            finish[id] = start + cost(&node.gate);
            best = best.max(finish[id]);
        }
        best
    }

    /// For each qubit, the id of the *next* gate at-or-after `from` that acts
    /// on it, scanning successor chains. Returns `None` when the qubit is
    /// idle for the rest of the program.
    ///
    /// This is the query behind gate-dependent moves: after finishing a gate,
    /// the router looks up where each operand is needed next.
    pub fn next_gate_on(&self, qubit: Qubit, after: NodeId) -> Option<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .skip(after + 1)
            .find(|(_, n)| n.gate.qubits().any(|q| q == qubit))
            .map(|(i, _)| i)
    }

    /// Creates a scheduling tracker over this DAG.
    pub fn tracker(&self) -> FrontTracker<'_> {
        FrontTracker::new(self)
    }
}

/// Incremental front-layer tracker used by the greedy scheduler.
///
/// Call [`FrontTracker::complete`] as gates are scheduled; [`FrontTracker::ready`]
/// always holds the current front layer in ascending id order (deterministic
/// tie-breaking, which keeps compilation reproducible).
#[derive(Debug, Clone)]
pub struct FrontTracker<'a> {
    dag: &'a DagCircuit,
    indeg: Vec<usize>,
    ready: Vec<NodeId>,
    /// The successors the last [`FrontTracker::complete`] released.
    released: Vec<NodeId>,
    remaining: usize,
}

impl<'a> FrontTracker<'a> {
    /// Creates a tracker with the initial front layer ready.
    pub fn new(dag: &'a DagCircuit) -> Self {
        let indeg: Vec<usize> = dag.nodes().iter().map(|n| n.preds.len()).collect();
        let mut ready: Vec<NodeId> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        ready.sort_unstable();
        Self {
            dag,
            indeg,
            ready,
            released: Vec::new(),
            remaining: dag.len(),
        }
    }

    /// Gates currently schedulable, ascending by id.
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
        let pos = self
            .ready
            .binary_search(&id)
            .unwrap_or_else(|_| panic!("gate {id} completed while not ready"));
        self.ready.remove(pos);
        self.remaining -= 1;
        self.released.clear();
        for &s in &self.dag.node(id).succs {
            self.indeg[s] -= 1;
            if self.indeg[s] == 0 {
                self.released.push(s);
                let ins = self.ready.partition_point(|&r| r < s);
                self.ready.insert(ins, s);
            }
        }
        &self.released
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
        assert_eq!(dag.node(0).preds, Vec::<NodeId>::new());
        assert_eq!(dag.node(0).succs, vec![1]);
        assert_eq!(dag.node(1).preds, vec![0]);
        assert_eq!(dag.node(2).preds, vec![1]);
    }

    #[test]
    fn cnot_preds_deduplicated() {
        // Both operands of the second CNOT last appeared in the first CNOT:
        // exactly one dependency edge should exist.
        let mut c = Circuit::new(2);
        c.cnot(0, 1).cnot(1, 0);
        let dag = c.dag();
        assert_eq!(dag.node(1).preds, vec![0]);
        assert_eq!(dag.node(0).succs, vec![1]);
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
    fn layers_asap() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).cnot(0, 1).h(2);
        let layers = c.dag().layers();
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0], vec![0, 1, 3]);
        assert_eq!(layers[1], vec![2]);
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
    fn next_gate_on_scans_forward() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).h(1).h(0);
        let dag = c.dag();
        assert_eq!(dag.next_gate_on(0, 0), Some(1));
        assert_eq!(dag.next_gate_on(0, 1), Some(3));
        assert_eq!(dag.next_gate_on(1, 2), None);
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
    fn tracker_keeps_ready_sorted() {
        let mut c = Circuit::new(4);
        c.cnot(0, 1).h(2).h(3).h(0);
        let dag = c.dag();
        let mut t = dag.tracker();
        assert_eq!(t.ready(), &[0, 1, 2]);
        // gate 3 (h q0) becomes ready and must be inserted in order.
        assert_eq!(t.complete(0), &[3]);
        assert_eq!(t.ready(), &[1, 2, 3]);
        assert!(t.complete(1).is_empty());
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
        assert!(dag.layers().is_empty());
        assert!(dag.tracker().is_done());
    }
}
