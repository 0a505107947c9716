//! Scheduling core for lattice-surgery execution simulation.
//!
//! The compiler turns a circuit into a sequence of [`SurgeryOp`]s
//! (`ftqc-arch`); this crate provides the machinery that assigns start
//! times: a [`ResourceTimeline`] tracking when each grid cell becomes free
//! (a row-major slab over the grid, probed once per cell an op occupies,
//! whose per-cell [`Clock`] is one instant or a pair advanced together),
//! and a [`Schedule`] that keeps the operations and their
//! `(start, duration)` pairs as two parallel arrays, with their makespan.
//!
//! The model is greedy list scheduling: an operation starts at the earliest
//! instant every cell it touches is free and all its ordering constraints
//! (qubit readiness, magic-state availability) are met. This is exactly the
//! discipline of the paper's compiler — operations are issued in the greedy
//! router's order and parallelism arises whenever resources are disjoint.
//!
//! [`SurgeryOp`]: ftqc_arch::SurgeryOp

pub mod schedule;
pub mod timeline;

pub use schedule::{Schedule, ScheduledOp};
pub use timeline::{Clock, ResourceTimeline};
