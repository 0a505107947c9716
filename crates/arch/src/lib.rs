//! Architecture substrate for the `ftqc` compiler.
//!
//! Models the early-FTQC machine of the paper:
//!
//! * [`Grid`] / [`Coord`] — the 2D array of logical surface-code patches
//!   (paper Fig 1(b) right).
//! * [`Layout`] — the routing-path-parameterised layout family of Fig 3:
//!   an `L×L` data block with `r ∈ [2, 2L+2]` full rows/columns of bus
//!   qubits that serve both as routing paths and as operational ancillas.
//! * [`SurgeryOp`] — the lattice-surgery instruction set of Fig 7 with its
//!   placement constraints (`M_ZZ` merges are vertical, `M_XX` horizontal,
//!   CNOT needs a diagonal control/target pair with the ancilla between).
//! * [`TimingModel`] / [`Ticks`] — operation latencies in units of the code
//!   distance `d` (internally half-`d` ticks so 1.5d and 2.5d stay exact).
//! * [`FactoryBank`] — 15-to-1 magic-state distillation factories with a
//!   configurable production latency (11d by default) docked on the layout
//!   boundary.
//!
//! # Example
//!
//! ```
//! use ftqc_arch::{Layout, TimingModel};
//!
//! // 10x10 data block with 4 routing paths: the 12x12 = 144-cell layout
//! // quoted in the paper (§VII.C).
//! let layout = Layout::with_routing_paths(100, 4);
//! assert_eq!(layout.grid().num_cells(), 144);
//! assert_eq!(layout.data_cells().len(), 100);
//! let t = TimingModel::paper();
//! assert_eq!(t.cnot.as_d(), 2.0);
//! ```

pub mod distillation;
pub mod factory;
pub mod grid;
pub mod layout;
pub mod qec;
pub mod surgery;
pub mod target;
pub mod timing;
pub mod viz;

pub use distillation::{catalogue, choose_protocol, per_state_target, DistillationProtocol};
pub use factory::{FactoryBank, PortPlacement, FACTORY_TILES};
pub use grid::{CellKind, Coord, Grid};
pub use layout::{Layout, LayoutError};
pub use surgery::{cnot_ancilla, SingleQubitKind, SurgeryOp};
pub use target::{
    BusSpec, Capabilities, TargetEntry, TargetError, TargetRegistry, TargetSpec, MAX_FACTORIES,
    MAX_QUBITS,
};
pub use timing::{Ticks, TimingModel, TICKS_PER_D};
pub use viz::{render_layout, render_with};
