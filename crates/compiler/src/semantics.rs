//! Semantic schedule verification: replaying a compiled program back into a
//! logical circuit and checking it against the input program.
//!
//! [`crate::verify()`](crate::verify::verify) establishes that a schedule is *physically executable*
//! (placement constraints, cell exclusivity, factory spacing). This module
//! establishes that it *computes the right unitary*. Steps 1–3 run in one
//! walk over the schedule in issue order, on flat arrays:
//!
//! 1. **Replay** — track every data patch through its moves (each qubit's
//!    cell, and each layout cell's qubit), and check that each logical
//!    operation's grid cells are exactly where its program qubits currently
//!    sit (a CNOT whose control cell holds the wrong qubit is a miscompile
//!    that the physical verifier cannot see). A move that leaves the grid
//!    is rejected.
//! 2. **Coverage** — every lowered gate is realised exactly once (magic
//!    gates exactly `TStatePolicy` times); the counts are compared after
//!    the walk.
//! 3. **Order** — one cursor per qubit runs over that qubit's gates in
//!    input order. At a gate's first realisation, the cursor of each of its
//!    qubits must point at it, and then moves past it. With exact coverage
//!    this is the circuit's dependency order plus equal per-qubit
//!    projections: the realised sequence differs from the input only by
//!    exchanging gates on disjoint qubits, which commute, so the two words
//!    are equal in the trace monoid and hence as unitaries. The cursors
//!    read the gate list itself, not the dependency DAG built from it.
//! 4. **Unitary equivalence (defence in depth)** — for small registers the
//!    reconstructed circuit is checked amplitude-for-amplitude on the dense
//!    simulator; Clifford-only circuits are checked at any width by
//!    tableau comparison.

use crate::pipeline::{lower, prepare, CompiledProgram};
use ftqc_arch::{Coord, SingleQubitKind, SurgeryOp};
use ftqc_circuit::{circuits_equivalent, Circuit, CliffordTableau, Gate};
use std::error::Error;
use std::fmt;

/// Largest register width checked on the dense state-vector simulator.
const STATEVECTOR_LIMIT: u32 = 12;

/// How a reconstructed circuit was proven equivalent to the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EquivalenceMethod {
    /// Per-qubit projection (trace monoid) equality — exact, any size.
    Trace,
    /// Clifford tableau comparison — exact, Clifford circuits only.
    Tableau,
    /// Dense state-vector comparison up to global phase — small registers.
    StateVector,
}

impl fmt::Display for EquivalenceMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivalenceMethod::Trace => write!(f, "trace"),
            EquivalenceMethod::Tableau => write!(f, "tableau"),
            EquivalenceMethod::StateVector => write!(f, "state-vector"),
        }
    }
}

/// A semantic verification failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SemanticsError {
    /// The program was compiled from a different circuit than the one given.
    WrongCircuit,
    /// An operation's kind does not match the gate it claims to realise.
    GateMismatch {
        /// Index in the schedule.
        index: usize,
        /// What the lowered gate required.
        expected: String,
        /// What the schedule contained.
        found: String,
    },
    /// A logical operation ran at cells that do not hold its operands.
    OperandMismatch {
        /// Index in the schedule.
        index: usize,
        /// The program qubit whose position disagrees.
        qubit: u32,
        /// Where the replay says the qubit is.
        tracked: Coord,
        /// Where the operation ran.
        used: Coord,
    },
    /// A move departs from a cell that does not hold the claimed qubit, or
    /// arrives at a cell another data qubit occupies.
    BadMove {
        /// Index in the schedule.
        index: usize,
        /// Description of the violation.
        reason: String,
    },
    /// An operation references no originating gate, or a gate out of range.
    Untagged {
        /// Index in the schedule.
        index: usize,
    },
    /// A gate was realised before an earlier gate on one of its qubits.
    OrderViolation {
        /// The gate realised too early.
        gate: usize,
        /// The earliest unrealised gate on that qubit.
        missing_pred: usize,
    },
    /// A non-magic gate appeared as more than one realising operation.
    DoubleRealization {
        /// The gate index.
        gate: usize,
    },
    /// Gates never realised, or a magic gate consuming the wrong number of
    /// states under the program's `TStatePolicy`.
    Coverage {
        /// Description of the gap.
        reason: String,
    },
    /// The reconstructed circuit failed a unitary-equivalence check.
    NotEquivalent {
        /// Which oracle rejected it.
        method: EquivalenceMethod,
    },
}

impl fmt::Display for SemanticsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemanticsError::WrongCircuit => {
                write!(f, "program was compiled from a different circuit")
            }
            SemanticsError::GateMismatch {
                index,
                expected,
                found,
            } => {
                write!(
                    f,
                    "op {index}: gate requires {expected}, schedule has {found}"
                )
            }
            SemanticsError::OperandMismatch {
                index,
                qubit,
                tracked,
                used,
            } => write!(
                f,
                "op {index}: qubit {qubit} is at {tracked} but the operation used {used}"
            ),
            SemanticsError::BadMove { index, reason } => write!(f, "op {index}: {reason}"),
            SemanticsError::Untagged { index } => {
                write!(f, "op {index} has no valid originating gate")
            }
            SemanticsError::OrderViolation { gate, missing_pred } => write!(
                f,
                "gate {gate} realised before its predecessor {missing_pred}"
            ),
            SemanticsError::DoubleRealization { gate } => {
                write!(f, "gate {gate} realised more than once")
            }
            SemanticsError::Coverage { reason } => write!(f, "coverage: {reason}"),
            SemanticsError::NotEquivalent { method } => {
                write!(f, "reconstructed circuit rejected by the {method} oracle")
            }
        }
    }
}

impl Error for SemanticsError {}

/// What the semantic verifier established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemanticsReport {
    /// Logical gates realised.
    pub gates_realized: usize,
    /// Data-patch moves replayed.
    pub moves_replayed: usize,
    /// Magic states consumed.
    pub magic_consumed: usize,
    /// Every oracle that accepted the reconstruction (always contains
    /// [`EquivalenceMethod::Trace`] on success).
    pub methods: Vec<EquivalenceMethod>,
}

impl fmt::Display for SemanticsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} gates, {} moves, {} magic states; oracles: ",
            self.gates_realized, self.moves_replayed, self.magic_consumed
        )?;
        for (i, m) in self.methods.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{m}")?;
        }
        Ok(())
    }
}

/// Replays `program`'s schedule and proves it equivalent to `original`.
///
/// # Errors
///
/// Returns the first semantic violation found; see [`SemanticsError`].
///
/// # Example
///
/// ```
/// use ftqc_circuit::Circuit;
/// use ftqc_compiler::{check_semantics, Compiler, CompilerOptions};
///
/// let mut c = Circuit::new(4);
/// c.h(0).cnot(0, 1).t(1).cnot(1, 2).cnot(2, 3).measure(3);
/// let p = Compiler::new(CompilerOptions::default()).compile(&c)?;
/// let report = check_semantics(&c, &p).expect("schedule is semantically sound");
/// assert_eq!(report.gates_realized, c.len());
/// # Ok::<(), ftqc_compiler::CompileError>(())
/// ```
pub fn check_semantics(
    original: &Circuit,
    program: &CompiledProgram,
) -> Result<SemanticsReport, SemanticsError> {
    let lowered = program.lowered_circuit();
    if lower(&prepare(original, program.compile_options())).gates() != lowered.gates() {
        return Err(SemanticsError::WrongCircuit);
    }
    let replayed = replay(program)?;
    let mut methods = vec![EquivalenceMethod::Trace];

    // 4. Defence in depth: unitary oracles where tractable, on both
    // circuits without their measurements.
    let clifford = lowered
        .iter()
        .all(|g| g.is_measurement() || g.is_clifford());
    if clifford || lowered.num_qubits() <= STATEVECTOR_LIMIT {
        let n = lowered.num_qubits();
        let a = unitary_part(n, lowered.iter().copied());
        let b = unitary_part(n, replayed.order.iter().map(|&g| lowered.gates()[g]));
        if clifford {
            let tab = |c: &Circuit| {
                let mut t = CliffordTableau::identity(c.num_qubits() as usize);
                for g in c.iter() {
                    t.apply(g);
                }
                t
            };
            if tab(&a) != tab(&b) {
                return Err(SemanticsError::NotEquivalent {
                    method: EquivalenceMethod::Tableau,
                });
            }
            methods.push(EquivalenceMethod::Tableau);
        } else {
            if !circuits_equivalent(&a, &b, 1e-9) {
                return Err(SemanticsError::NotEquivalent {
                    method: EquivalenceMethod::StateVector,
                });
            }
            methods.push(EquivalenceMethod::StateVector);
        }
    }

    Ok(SemanticsReport {
        gates_realized: lowered.len(),
        moves_replayed: replayed.moves,
        magic_consumed: replayed.magic,
        methods,
    })
}

/// What the walk over the schedule established.
struct Replayed {
    /// Every lowered gate, by index, in first-realisation order.
    order: Vec<usize>,
    moves: usize,
    magic: usize,
}

/// A layout cell no data qubit occupies.
const EMPTY: u32 = u32::MAX;

/// No gate: past the last gate on a qubit.
const NONE: usize = usize::MAX;

/// Steps 1–3 in one walk: track patch positions and check each logical
/// operation's operands, check each first realisation against the
/// per-qubit cursors, and count realisations, compared after the walk.
fn replay(program: &CompiledProgram) -> Result<Replayed, SemanticsError> {
    let lowered = program.lowered_circuit();
    let gates = lowered.gates();
    let n = lowered.num_qubits() as usize;
    let grid = program.layout().grid();
    let cols = grid.cols() as usize;
    let slot = |c: Coord| {
        grid.in_bounds(c)
            .then(|| c.row as usize * cols + c.col as usize)
    };

    // Step 1: each qubit's cell, and each layout cell's qubit.
    let mut pos: Vec<Coord> = (0..n as u32)
        .map(|q| program.initial_mapping().cell_of(q))
        .collect();
    let mut occ = vec![EMPTY; grid.num_cells() as usize];
    for (q, &c) in pos.iter().enumerate() {
        if let Some(s) = slot(c) {
            occ[s] = q as u32;
        }
    }

    // Step 3: `cursor[q]` is the first unrealised gate on qubit `q` in
    // input order, and `after[g][k]` the gate after `g` on its `k`-th
    // qubit (`NONE` past the last).
    let mut cursor = vec![NONE; n];
    let mut after = vec![[NONE; 2]; gates.len()];
    for (g, gate) in gates.iter().enumerate().rev() {
        for (k, q) in gate.qubits().enumerate() {
            after[g][k] = cursor[q as usize];
            cursor[q as usize] = g;
        }
    }

    let mut order = Vec::with_capacity(gates.len());
    let mut times_realized = vec![0u32; gates.len()];
    let mut moves = 0usize;
    let mut magic = 0usize;

    for (index, routed) in program.schedule().ops().iter().enumerate() {
        // A move relocates its qubit; a delivery stages a resource and
        // touches no data patch. Every other op realises the gate it is
        // tagged with: its kind must fit the gate, and it must run where
        // the gate's operands sit (a CNOT's control and target, any other
        // gate's one qubit).
        let tagged = routed.gate.map(|g| g as usize).filter(|&g| g < gates.len());
        let gate = tagged.map(|g| &gates[g]);
        let (fits, cells, found) = match &routed.op {
            SurgeryOp::Move { from, to } => {
                moves += 1;
                let bad_move = |reason: String| SemanticsError::BadMove { index, reason };
                let q = *routed
                    .patches
                    .first()
                    .ok_or_else(|| bad_move("move carries no qubit".into()))?;
                // An empty cell holds `EMPTY`, which names no qubit.
                let departs = slot(*from)
                    .filter(|&s| q != EMPTY && occ[s] == q)
                    .ok_or_else(|| {
                        bad_move(format!(
                            "move of q{q} departs {from}, which it does not occupy"
                        ))
                    })?;
                let lands = slot(*to)
                    .ok_or_else(|| bad_move(format!("move of q{q} lands on {to}, off the grid")))?;
                if occ[lands] != EMPTY {
                    let other = occ[lands];
                    return Err(bad_move(format!(
                        "move of q{q} lands on {to}, occupied by q{other}"
                    )));
                }
                occ[departs] = EMPTY;
                occ[lands] = q;
                pos[q as usize] = *to;
                continue;
            }
            SurgeryOp::DeliverMagic { .. } => continue,
            SurgeryOp::MergeZz { .. } | SurgeryOp::MergeXx { .. } => {
                // The greedy engine never emits bare merges; a schedule that
                // contains one was not produced by this compiler.
                return Err(SemanticsError::GateMismatch {
                    index,
                    expected: "no bare merge".into(),
                    found: "merge".into(),
                });
            }
            SurgeryOp::ConsumeMagic { target, .. } => {
                magic += 1;
                (
                    gate.is_some_and(Gate::is_magic),
                    [*target; 2],
                    "magic-state consumption",
                )
            }
            SurgeryOp::Cnot {
                control, target, ..
            } => (
                matches!(gate, Some(Gate::Cnot { .. })),
                [*control, *target],
                "cnot",
            ),
            SurgeryOp::Single { kind, cell, .. } => (
                gate.and_then(single_kind_of) == Some(*kind),
                [*cell; 2],
                "single-qubit",
            ),
            SurgeryOp::PauliFrame { cell } => (
                gate.is_some_and(is_frame_update),
                [*cell; 2],
                "pauli-frame update",
            ),
            SurgeryOp::MeasureZ { cell } => (
                matches!(gate, Some(Gate::Measure(_))),
                [*cell; 2],
                "measure",
            ),
        };
        let g = tagged.ok_or(SemanticsError::Untagged { index })?;
        let gate = &gates[g];
        if !fits {
            let found = match &routed.op {
                SurgeryOp::Single { kind, .. } => format!("{found} {}", kind.name()),
                _ => found.into(),
            };
            return Err(SemanticsError::GateMismatch {
                index,
                expected: gate.to_string(),
                found,
            });
        }
        for (qubit, used) in gate.qubits().zip(cells) {
            let tracked = pos[qubit as usize];
            if tracked != used {
                return Err(SemanticsError::OperandMismatch {
                    index,
                    qubit,
                    tracked,
                    used,
                });
            }
        }

        if times_realized[g] == 0 {
            // Every gate before the cursor is realised, so the cursor
            // points at `g` or at an earlier gate on that qubit.
            for (k, q) in gate.qubits().enumerate() {
                let next = cursor[q as usize];
                if next != g {
                    return Err(SemanticsError::OrderViolation {
                        gate: g,
                        missing_pred: next,
                    });
                }
                cursor[q as usize] = after[g][k];
            }
            order.push(g);
        } else if !gate.is_magic() {
            return Err(SemanticsError::DoubleRealization { gate: g });
        }
        times_realized[g] += 1;
    }

    // Step 2: every gate realised the number of times the program's
    // `TStatePolicy` asks for.
    let policy = program.compile_options().t_state_policy;
    for (g, gate) in gates.iter().enumerate() {
        let expected = match gate {
            Gate::T(_) | Gate::Tdg(_) => policy.states_per_t.max(1),
            Gate::Rz(_, a) if !a.is_clifford() => policy.states_per_rz.max(1),
            _ => 1,
        };
        if times_realized[g] != expected {
            return Err(SemanticsError::Coverage {
                reason: format!(
                    "gate {g} ({}) realised {} time(s), expected {expected}",
                    gate, times_realized[g]
                ),
            });
        }
    }
    Ok(Replayed {
        order,
        moves,
        magic,
    })
}

/// The circuit of `gates` on `n` qubits without their measurements.
fn unitary_part(n: u32, gates: impl Iterator<Item = Gate>) -> Circuit {
    let mut out = Circuit::new(n);
    out.append(gates.filter(|g| !g.is_measurement()));
    out
}

/// The `SingleQubitKind` a gate lowers to, if it lowers to a `Single` op.
fn single_kind_of(gate: &Gate) -> Option<SingleQubitKind> {
    match gate {
        Gate::H(_) => Some(SingleQubitKind::H),
        Gate::S(_) => Some(SingleQubitKind::S),
        Gate::Sdg(_) => Some(SingleQubitKind::Sdg),
        Gate::Sx(_) => Some(SingleQubitKind::Sx),
        Gate::Sxdg(_) => Some(SingleQubitKind::Sxdg),
        Gate::Rz(_, a) if a.is_clifford() => {
            let halves = (a.turns_of_pi() * 2.0).round() as i64;
            match halves.rem_euclid(4) {
                1 => Some(SingleQubitKind::S),
                3 => Some(SingleQubitKind::Sdg),
                _ => None, // frame update
            }
        }
        _ => None,
    }
}

/// Whether a gate executes as a zero-cost Pauli-frame update.
fn is_frame_update(gate: &Gate) -> bool {
    match gate {
        Gate::X(_) | Gate::Y(_) | Gate::Z(_) => true,
        Gate::Rz(_, a) if a.is_clifford() => {
            let halves = (a.turns_of_pi() * 2.0).round() as i64;
            matches!(halves.rem_euclid(4), 0 | 2)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Compiler, CompilerOptions, TStatePolicy};
    use ftqc_circuit::Angle;

    fn compile(c: &Circuit, o: CompilerOptions) -> CompiledProgram {
        Compiler::new(o).compile(c).expect("compiles")
    }

    #[test]
    fn clifford_circuit_verifies_with_tableau() {
        let mut c = Circuit::new(4);
        c.h(0).cnot(0, 1).s(1).cnot(1, 2).sx(2).cnot(2, 3);
        let p = compile(&c, CompilerOptions::default());
        let r = check_semantics(&c, &p).expect("sound");
        assert_eq!(r.gates_realized, c.len());
        assert!(r.methods.contains(&EquivalenceMethod::Trace));
        assert!(r.methods.contains(&EquivalenceMethod::Tableau));
    }

    #[test]
    fn t_circuit_verifies_with_statevector() {
        let mut c = Circuit::new(3);
        c.h(0).t(0).cnot(0, 1).tdg(1).cnot(1, 2).t(2);
        let p = compile(&c, CompilerOptions::default());
        let r = check_semantics(&c, &p).expect("sound");
        assert!(r.methods.contains(&EquivalenceMethod::StateVector));
        assert_eq!(r.magic_consumed, 3);
    }

    #[test]
    fn lowered_gates_verify() {
        // CZ and SWAP are lowered; the replay works on the lowered circuit.
        let mut c = Circuit::new(3);
        c.h(0).cz(0, 1).swap(1, 2).measure(2);
        let p = compile(&c, CompilerOptions::default());
        let r = check_semantics(&c, &p).expect("sound");
        // 1 H + (H CX H) + 3 CX + 1 measure = 8 lowered gates.
        assert_eq!(r.gates_realized, 8);
    }

    #[test]
    fn rz_clifford_angles_verify() {
        let mut c = Circuit::new(2);
        c.rz(0, Angle::new(0.5)) // S
            .rz(1, Angle::new(1.0)) // Z frame
            .rz(0, Angle::new(-0.5)) // S†
            .rz(1, Angle::new(2.0)); // identity frame
        let p = compile(&c, CompilerOptions::default());
        check_semantics(&c, &p).expect("sound");
    }

    #[test]
    fn synthesis_policy_consumes_multiple_states() {
        let mut c = Circuit::new(2);
        c.rz(0, Angle::new(0.1)).cnot(0, 1);
        let o = CompilerOptions::default().t_state_policy(TStatePolicy::synthesis(3));
        let p = compile(&c, o);
        let r = check_semantics(&c, &p).expect("sound");
        assert_eq!(r.magic_consumed, 3);
    }

    #[test]
    fn wrong_circuit_rejected() {
        let mut a = Circuit::new(2);
        a.h(0).cnot(0, 1);
        let mut b = Circuit::new(2);
        b.h(1).cnot(0, 1);
        let p = compile(&a, CompilerOptions::default());
        assert_eq!(
            check_semantics(&b, &p).unwrap_err(),
            SemanticsError::WrongCircuit
        );
    }

    #[test]
    fn condensed_matter_benchmark_verifies() {
        use ftqc_benchmarks::condensed;
        let c = condensed::ising_2d(4); // 4x4 = 16 qubits
        let p = compile(&c, CompilerOptions::default().routing_paths(4));
        let r = check_semantics(&c, &p).expect("Ising 4x4 schedule is sound");
        assert_eq!(r.gates_realized, crate::pipeline::lower(&c).len());
        assert!(r.methods.contains(&EquivalenceMethod::Trace));
    }

    #[test]
    fn report_displays() {
        let r = SemanticsReport {
            gates_realized: 10,
            moves_replayed: 4,
            magic_consumed: 2,
            methods: vec![EquivalenceMethod::Trace, EquivalenceMethod::StateVector],
        };
        let s = r.to_string();
        assert!(s.contains("10 gates"));
        assert!(s.contains("trace"));
        assert!(s.contains("state-vector"));
    }

    #[test]
    fn error_displays() {
        let errs: Vec<SemanticsError> = vec![
            SemanticsError::WrongCircuit,
            SemanticsError::GateMismatch {
                index: 1,
                expected: "h q[0]".into(),
                found: "cnot".into(),
            },
            SemanticsError::OperandMismatch {
                index: 2,
                qubit: 3,
                tracked: Coord::new(0, 0),
                used: Coord::new(1, 1),
            },
            SemanticsError::BadMove {
                index: 3,
                reason: "x".into(),
            },
            SemanticsError::Untagged { index: 4 },
            SemanticsError::OrderViolation {
                gate: 5,
                missing_pred: 4,
            },
            SemanticsError::DoubleRealization { gate: 6 },
            SemanticsError::Coverage {
                reason: "gap".into(),
            },
            SemanticsError::NotEquivalent {
                method: EquivalenceMethod::Tableau,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
