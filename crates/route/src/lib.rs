//! Routing heuristics for the `ftqc` compiler (paper §V).
//!
//! The paper's key claim is that *simple greedy heuristics* suffice for
//! early-FTQC routing. This crate implements the three heuristics behind
//! one router:
//!
//! * penalty-weighted Dijkstra pathfinding (§V.B, Fig 5), run as a
//!   goal-directed (A\*) bucket-queue search under the Manhattan bound: the
//!   cost function prefers paths through unoccupied bus cells, and crossing
//!   a cell occupied by a data qubit accrues a penalty ([`CostModel`]);
//! * space search (§V.C, Fig 6): find the neighbouring cell that can be
//!   freed for an ancilla with the fewest clearing moves ([`SpacePlan`]);
//! * [`moves`] — gate-dependent moves (§V.A, Fig 4): choose the diagonal
//!   CNOT configuration reachable with the fewest data-qubit moves, looking
//!   ahead in the circuit DAG.
//!
//! The [`incremental`] module holds the router: the engine's padded
//! occupancy grid ([`CellGrid`]), a reusable generation-stamped search
//! arena whose A\* bucket queue and breadth-first push chains walk that
//! grid by index, and [`Router`], which owns the cost model and the
//! arena and answers every [`RouteQueries`] query. The gate-dependent
//! moves score their candidates with its cost-only queries.
//!
//! [`Router`] is the only router in this crate. The seed router the
//! heuristics were first written as (hash-map state, a binary-heap
//! queue) lives on as dev-only code in `ftqc-bench`'s `reference` module,
//! which implements [`RouteQueries`] too. `tests/route_differential.rs`
//! pins every answer of the router byte-identical to it.

pub mod incremental;
pub mod moves;

pub use incremental::{CellGrid, RouteCounters, RouteQueries, Router, MAX_PENALTY_WEIGHT};
pub use moves::{best_cnot_config_with, CnotConfig};

use ftqc_arch::Coord;

/// Pathfinding cost parameters.
///
/// The paper's cost function is `C(a,b) = d(a,b) · p`, where `d` is the
/// path length and `p` the number of cells occupied by data qubits along
/// it: "movement to an unoccupied cell incurs zero cost, whereas moves
/// over occupied cells accrue a penalty". Dijkstra needs an additive
/// objective, so the router minimises `Σ (1 + w·occupied(cell))` over
/// entered cells — the same ordering (shortest path among
/// least-disturbing ones) with the penalty weight `w` making one crossed
/// data qubit cost as much as a `w`-cell detour. A [`Path`] exposes both
/// components (`length`, `occupied`), so the paper's multiplicative
/// product is available too.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Additive cost of entering an occupied cell, in units of one step.
    /// The paper's default makes one crossed data qubit as expensive as a
    /// five-cell detour.
    pub penalty_weight: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self { penalty_weight: 5 }
    }
}

/// A path found by [`RouteQueries::find_path`], from `from` (inclusive) to
/// `to` (inclusive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// The cells along the path, starting at the source.
    pub cells: Vec<Coord>,
    /// Number of steps (`cells.len() - 1`).
    pub length: u32,
    /// Number of *entered* cells that were occupied by data qubits.
    pub occupied: u32,
    /// The additive Dijkstra cost.
    pub cost: u64,
}

/// A plan produced by [`RouteQueries::space_search`]: which neighbouring
/// cell to use as the ancilla and the clearing moves (in execution order)
/// that free it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpacePlan {
    /// The cell that will serve as the ancilla once cleared.
    pub ancilla: Coord,
    /// Data-qubit relocations `(from, to)` to execute, in order. Each
    /// destination is free by the time its move runs.
    pub clearing_moves: Vec<(Coord, Coord)>,
}

impl SpacePlan {
    /// Number of clearing moves (the cost minimised by the search).
    pub fn cost(&self) -> usize {
        self.clearing_moves.len()
    }
}
