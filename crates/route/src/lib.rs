//! Routing heuristics for the `ftqc` compiler (paper §V).
//!
//! The paper's key claim is that *simple greedy heuristics* suffice for
//! early-FTQC routing. This crate implements the three heuristics:
//!
//! * [`dijkstra`] — penalty-weighted Dijkstra pathfinding with a binary-heap
//!   priority queue (§V.B, Fig 5). The cost function prefers paths through
//!   unoccupied bus cells; crossing a cell occupied by a data qubit accrues
//!   a penalty.
//! * [`space`] — space search (§V.C, Fig 6): find the nearest cell that can
//!   be freed for an ancilla with the fewest clearing moves.
//! * [`moves`] — gate-dependent moves (§V.A, Fig 4): choose the diagonal
//!   CNOT configuration reachable with the fewest data-qubit moves, looking
//!   ahead in the circuit DAG.
//!
//! The seed functions of the first two operate on any [`Occupancy`] view,
//! so the heuristics stay independent of the scheduler's internal state.
//!
//! The [`incremental`] module layers the production hot path on top: the
//! engine's padded occupancy grid ([`CellGrid`]), a reusable
//! generation-stamped [`SearchArena`] whose bucket-queue Dijkstra and
//! breadth-first push chains walk that grid by index, and the [`Router`]
//! facade the compiler engine drives. The gate-dependent moves score their
//! candidates with that router's cost-only queries. Every answer is pinned
//! byte-identical to the seed functions by a differential test harness,
//! and [`RouterMode::Reference`] answers with the seed functions
//! themselves.

pub mod dijkstra;
pub mod incremental;
pub mod moves;
pub mod space;

pub use dijkstra::{find_path, CostModel, Occupancy, Path};
pub use incremental::{CellGrid, RouteCounters, Router, RouterMode, SearchArena};
pub use moves::{best_cnot_config_with, CnotConfig};
pub use space::{clear_cell_plan, nearest_free_cell, space_search, SpacePlan};
