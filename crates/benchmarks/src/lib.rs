//! Benchmark circuits for the `ftqc` evaluation (paper Table I).
//!
//! Three condensed-matter Hamiltonians (single Trotter step, 2D
//! nearest-neighbour couplings on an `L×L` spin grid) and three
//! QASMBench-style circuits. The condensed-matter generators follow the
//! standard Trotter decompositions, and at the paper's sizes reproduce the
//! Table I gate counts exactly; the QASMBench stand-ins reproduce the exact
//! counts with structurally faithful dependency chains (see DESIGN.md,
//! "Substitutions").
//!
//! | Benchmark | Qubits | Gate counts (Table I) |
//! |-----------|--------|----------------------|
//! | [`ising_2d`]`(10)` | 100 | CNOT 360, Rz 280, H 300 |
//! | [`heisenberg_2d`]`(10)` | 100 | H 1440, CNOT 1080, Rz 540, S 360, S† 360 |
//! | [`fermi_hubbard_2d`]`(10)` | 100 | H 400, CNOT 300, S 100, S† 100, Rz 150 |
//! | [`ghz`]`(255)` | 255 | CNOT 254, Rz 2, SX 34, X 1 |
//! | [`adder`]`()` | 28 | Rz 240, CNOT 195, SX 48, X 13 |
//! | [`multiplier`]`()` | 15 | Rz 300, CNOT 222, SX 34, X 4 |

pub mod condensed;
pub mod qasmbench;
pub mod random;
pub mod suite;

pub use condensed::{fermi_hubbard_2d, heisenberg_2d, ising_1d, ising_2d};
pub use qasmbench::{adder, ghz, multiplier};
pub use random::random_clifford_t;
pub use suite::{condensed_sides, table1_suite, Benchmark};
