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
//! All three operate on an [`Occupancy`] view supplied by the compiler, so
//! the heuristics stay independent of the scheduler's internal state.
//!
//! The [`incremental`] module layers a production hot path on top: a
//! reusable generation-stamped [`SearchArena`] with a bucket-queue
//! Dijkstra, and the [`Router`] facade the compiler engine drives — both
//! pinned byte-identical to the seed functions by a differential test
//! harness.

pub mod dijkstra;
pub mod incremental;
pub mod moves;
pub mod space;

pub use dijkstra::{find_path, CostModel, Occupancy, Path};
pub use incremental::{RouteCounters, RoutePlanner, Router, RouterMode, SearchArena, SeedPlanner};
pub use moves::{best_cnot_config, best_cnot_config_with, CnotConfig};
pub use space::{clear_cell_plan, nearest_free_cell, space_search, SpacePlan};
