//! The greedy routing engine (paper §V).
//!
//! The engine consumes the circuit DAG front layer in earliest-ready order
//! and realises each gate on the grid:
//!
//! * data-qubit relocations are planned with penalty-weighted Dijkstra and
//!   executed one cell per move (1d each, Fig 7(d)), displacing blocking
//!   qubits with space-search push chains when the block is packed;
//! * CNOT configurations come from the gate-dependent move heuristic
//!   (cheapest of the eight diagonal placements when look-ahead is on);
//! * magic states are granted by the earliest-available factory and routed
//!   along a bus corridor to a cell vertically adjacent to the consumer;
//! * single-patch Cliffords borrow the nearest free neighbouring ancilla.
//!
//! The engine emits [`RoutedOp`]s in issue order together with provisional
//! times; the authoritative timing happens in [`crate::timer`] after the
//! redundant-move pass. Every path and space query goes through one
//! router: the pipeline's [`Router`], which answers from its
//! generation-stamped search arena, or any other [`RouteQueries`]
//! implementation handed to [`route_circuit`].
//!
//! [`Router`]: ftqc_route::Router

use crate::error::CompileError;
use crate::mapping::InitialMapping;
use crate::options::CompilerOptions;
use crate::routed::{Patches, RoutedOp};
use ftqc_arch::{
    cnot_ancilla, CellKind, Coord, FactoryBank, Grid, Layout, SingleQubitKind, SurgeryOp, Ticks,
};
use ftqc_circuit::{Circuit, DagCircuit, Gate, NodeId};
use ftqc_route::incremental::{CellGrid, RouteCounters, RouteQueries};
use ftqc_route::moves::{best_cnot_config_with, Mover};
use ftqc_route::CostModel;
use ftqc_sim::ResourceTimeline;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The router's cost model under `options` on `grid`.
///
/// The penalty weight is capped at twice the grid's cell count. A path
/// enters fewer cells than the grid has, and clearing an ancilla moves
/// fewer qubits than that, so every cost the router and the look-ahead
/// compare is `w · occupied + steps` with `steps < 2 · cells`. For any
/// `w ≥ 2 · cells` those costs order as `(occupied, steps)` pairs, so the
/// cap changes no choice; it keeps the sums from overflowing and the
/// weight small enough for the router's bucket queue. This cap is the one
/// place production weights are bounded: [`Router::new`] refuses weights
/// above [`MAX_PENALTY_WEIGHT`], twice the cells of the largest layout a
/// compile can build.
///
/// [`Router::new`]: ftqc_route::Router::new
/// [`MAX_PENALTY_WEIGHT`]: ftqc_route::MAX_PENALTY_WEIGHT
fn router_cost(options: &CompilerOptions, grid: &Grid) -> CostModel {
    CostModel {
        penalty_weight: options.penalty_weight.min(2 * u64::from(grid.num_cells())),
    }
}

/// The order the engine takes ready gates in: the latest readiness among
/// the gate's operands, then the gate id.
fn ready_key(dag: &DagCircuit, qubit_ready: &[Ticks], id: NodeId) -> (Ticks, NodeId) {
    let ready = dag
        .node(id)
        .gate
        .qubits()
        .map(|q| qubit_ready[q as usize])
        .fold(Ticks::ZERO, Ticks::max);
    (ready, id)
}

/// The routing engine. Create with [`Engine::new`], run with
/// [`Engine::run`], then take the emitted ops with [`Engine::into_ops`].
pub struct Engine<'a, R> {
    layout: &'a Layout,
    options: &'a CompilerOptions,
    bank: FactoryBank,
    /// The router every path and space query goes to.
    router: R,
    /// qubit -> current cell
    pos: Vec<Coord>,
    /// Cell -> occupying qubit, padded with an off-grid border: the grid
    /// every router query walks by index. Updated by [`Engine::raw_move`]
    /// alone.
    occ: CellGrid,
    /// Provisional per-cell timeline guiding greedy ordering decisions,
    /// a slab over the layout grid.
    timeline: ResourceTimeline,
    qubit_ready: Vec<Ticks>,
    ops: Vec<RoutedOp>,
    /// The gate being routed; [`Engine::run`] checks every gate index of
    /// the circuit fits a `u32`.
    current_gate: u32,
    /// Cells no operation may enter while the current gate executes
    /// (operand positions: one or two cells).
    protected: Vec<Coord>,
    /// Cells displacement chains may pass *through* but never park a qubit
    /// in (the planned merge ancilla of the current gate, if any).
    no_park: Vec<Coord>,
    /// Reused buffer for one router query's blocked or avoided cells.
    scratch: Vec<Coord>,
    n_magic_states: u64,
}

impl<'a, R: RouteQueries> Engine<'a, R> {
    /// Creates an engine over `layout` with qubits placed by `mapping`,
    /// routing through the router `new_router` builds for the engine's
    /// cost model ([`Router::new`](ftqc_route::Router::new) in the
    /// pipeline).
    pub fn new(
        layout: &'a Layout,
        mapping: &InitialMapping,
        bank: FactoryBank,
        options: &'a CompilerOptions,
        new_router: impl FnOnce(CostModel) -> R,
    ) -> Self {
        let pos: Vec<Coord> = mapping.cells().to_vec();
        let grid = layout.grid();
        let mut occ = CellGrid::new(grid.rows(), grid.cols());
        for (q, &c) in pos.iter().enumerate() {
            occ.place(c, q as u32);
        }
        Self {
            layout,
            options,
            bank,
            router: new_router(router_cost(options, grid)),
            qubit_ready: vec![Ticks::ZERO; pos.len()],
            pos,
            occ,
            timeline: ResourceTimeline::new(grid.rows(), grid.cols()),
            ops: Vec::new(),
            current_gate: 0,
            protected: Vec::new(),
            no_park: Vec::new(),
            scratch: Vec::new(),
            n_magic_states: 0,
        }
    }

    /// Routes every gate of `circuit` (already lowered to the surgery gate
    /// set), consuming the DAG front layer in earliest-ready order.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::RoutingFailed`] if a gate cannot be realised.
    pub fn run(&mut self, circuit: &Circuit) -> Result<(), CompileError> {
        if u32::try_from(circuit.len()).is_err() {
            return Err(CompileError::RoutingFailed {
                gate_index: circuit.len(),
                reason: "gate indices past u32::MAX".into(),
            });
        }
        let dag = circuit.dag();
        let mut tracker = dag.tracker();
        // The ready gates in a min-heap on `ready_key`, each entry keyed
        // when it was pushed. A gate's key only grows (`qubit_ready` never
        // decreases), so a stale key is a lower bound: a popped gate whose
        // key still holds is the ready set's minimum, and one whose key
        // grew goes back with the new key.
        let mut heap: BinaryHeap<Reverse<(Ticks, NodeId)>> = tracker
            .ready()
            .iter()
            .map(|&id| Reverse(ready_key(&dag, &self.qubit_ready, id)))
            .collect();
        while !tracker.is_done() {
            let gate_id = loop {
                let Reverse((keyed, id)) = heap
                    .pop()
                    .expect("tracker not done implies non-empty ready set");
                let key = ready_key(&dag, &self.qubit_ready, id);
                if key.0 == keyed {
                    break id;
                }
                heap.push(Reverse(key));
            };
            debug_assert_eq!(
                tracker
                    .ready()
                    .iter()
                    .map(|&id| ready_key(&dag, &self.qubit_ready, id))
                    .min(),
                Some(ready_key(&dag, &self.qubit_ready, gate_id)),
                "the heap's pick is the ready set's earliest gate"
            );
            self.current_gate = gate_id as u32;
            self.schedule_gate(&dag.node(gate_id).gate)?;
            for &next in tracker.complete(gate_id) {
                heap.push(Reverse(ready_key(&dag, &self.qubit_ready, next)));
            }
        }
        Ok(())
    }

    /// The emitted operations, in issue order.
    pub fn into_ops(self) -> (Vec<RoutedOp>, u64) {
        (self.ops, self.n_magic_states)
    }

    /// The router's activity counters so far.
    pub fn route_counters(&self) -> RouteCounters {
        self.router.counters()
    }

    fn grid(&self) -> &Grid {
        self.layout.grid()
    }

    #[inline]
    fn occ_has(&self, c: Coord) -> bool {
        self.occ.occupant(c).is_some()
    }

    fn fail(&self, reason: impl Into<String>) -> CompileError {
        CompileError::RoutingFailed {
            gate_index: self.current_gate as usize,
            reason: reason.into(),
        }
    }

    /// Makes `cells` the whole protected set.
    fn protect(&mut self, cells: &[Coord]) {
        self.protected.clear();
        self.protected.extend_from_slice(cells);
    }

    /// Emits an op: assigns a provisional start (per-cell timeline + qubit
    /// readiness + `extra_dep`), reserves resources, updates qubit clocks.
    fn emit(
        &mut self,
        op: SurgeryOp,
        patches: Patches,
        factory: Option<u32>,
        extra_dep: Ticks,
    ) -> Ticks {
        debug_assert!(op.validate().is_ok(), "emitting invalid op {op}");
        let dep = patches
            .iter()
            .map(|&q| self.qubit_ready[q as usize])
            .fold(extra_dep, Ticks::max);
        let start = self.timeline.earliest_start(&op, dep);
        let end = start + op.duration(&self.options.target.timing);
        self.timeline.reserve(&op, end);
        for &q in &patches {
            self.qubit_ready[q as usize] = end;
        }
        self.ops.push(RoutedOp {
            op,
            patches,
            factory,
            gate: Some(self.current_gate),
        });
        end
    }

    /// Emits an op on qubit `q` alone, with no factory grant and no extra
    /// dependency.
    fn emit_on(&mut self, op: SurgeryOp, q: u32) -> Ticks {
        self.emit(op, Patches::one(q), None, Ticks::ZERO)
    }

    /// Moves the qubit occupying `from` one step to `to` (must be free).
    fn raw_move(&mut self, from: Coord, to: Coord) {
        let q = self
            .occ
            .occupant(from)
            .unwrap_or_else(|| panic!("raw move from empty cell {from}"));
        debug_assert!(!self.occ_has(to), "raw move into occupied {to}");
        self.emit_on(SurgeryOp::Move { from, to }, q);
        self.occ.vacate(from);
        self.occ.place(to, q);
        self.pos[q as usize] = to;
    }

    /// Frees `cell` (if occupied) by pushing its occupant — and any chain of
    /// occupants — toward the nearest free cell, never entering `avoid`
    /// cells or protected operand cells.
    fn ensure_free(&mut self, cell: Coord, avoid: &[Coord]) -> Result<(), CompileError> {
        if !self.occ_has(cell) {
            return Ok(());
        }
        // Preferred: keep the planned ancilla (no_park) clear. If that boxes
        // the occupant in, allow parking there — the ancilla gets its own
        // clearing pass before the merge, so this is recoverable. The
        // relaxed set is a prefix of the strict one.
        self.scratch.clear();
        self.scratch.extend(
            avoid
                .iter()
                .chain(&self.protected)
                .copied()
                .filter(|&c| c != cell),
        );
        let relaxed_len = self.scratch.len();
        self.scratch
            .extend(self.no_park.iter().copied().filter(|&c| c != cell));
        let strict = &self.scratch;
        let plan = self
            .router
            .clear_cell_plan(&self.occ, cell, strict)
            .or_else(|| {
                self.router
                    .clear_cell_plan(&self.occ, cell, &strict[..relaxed_len])
            });
        match plan {
            Some(moves) => {
                for (f, t) in moves {
                    self.raw_move(f, t);
                }
                Ok(())
            }
            None => Err(self.fail(format!("cannot clear cell {cell}"))),
        }
    }

    /// Walks qubit `q` to `dest` along a planned path, displacing blockers
    /// on the way. The path is committed to (no per-step re-planning, which
    /// can oscillate under displacement churn); re-planning happens only
    /// when a blocker cannot be displaced, with that cell banned. Protected
    /// cells are never entered.
    fn relocate(&mut self, q: u32, dest: Coord) -> Result<(), CompileError> {
        let budget = (self.grid().num_cells() as usize) * 8;
        let mut steps = 0usize;
        let mut banned: Vec<Coord> = Vec::new();
        'replan: while self.pos[q as usize] != dest {
            let from = self.pos[q as usize];
            self.scratch.clear();
            self.scratch.extend(self.protected.iter().chain(&banned));
            let path = self
                .router
                .find_path(&self.occ, &self.scratch, from, dest)
                .ok_or_else(|| self.fail(format!("no path from {from} to {dest}")))?;
            for i in 1..path.cells.len() {
                steps += 1;
                if steps > budget {
                    return Err(self.fail(format!("relocation of q{q} to {dest} did not converge")));
                }
                let here = self.pos[q as usize];
                let next = path.cells[i];
                if self.ensure_free(next, &[here]).is_err() {
                    if next == dest {
                        // The destination itself cannot be cleared: this
                        // relocation target is infeasible.
                        return Err(
                            self.fail(format!("destination {dest} cannot be cleared for q{q}"))
                        );
                    }
                    // The occupant of `next` is boxed in: ban the cell and
                    // route around it.
                    banned.push(next);
                    continue 'replan;
                }
                self.raw_move(here, next);
            }
        }
        Ok(())
    }

    /// Finds (clearing if necessary) a free ancilla adjacent to `cell`.
    fn acquire_ancilla(&mut self, cell: Coord) -> Result<Coord, CompileError> {
        let plan = self.router.space_search(&self.occ, &self.protected, cell);
        match plan {
            Some(p) => {
                for (f, t) in p.clearing_moves {
                    self.raw_move(f, t);
                }
                Ok(p.ancilla)
            }
            None => Err(self.fail(format!("no ancilla available near {cell}"))),
        }
    }

    fn schedule_gate(&mut self, gate: &Gate) -> Result<(), CompileError> {
        match *gate {
            Gate::X(q) | Gate::Y(q) | Gate::Z(q) => {
                let cell = self.pos[q as usize];
                self.emit_on(SurgeryOp::PauliFrame { cell }, q);
                Ok(())
            }
            Gate::H(q) => self.exec_single(q, SingleQubitKind::H),
            Gate::S(q) => self.exec_single(q, SingleQubitKind::S),
            Gate::Sdg(q) => self.exec_single(q, SingleQubitKind::Sdg),
            Gate::Sx(q) => self.exec_single(q, SingleQubitKind::Sx),
            Gate::Sxdg(q) => self.exec_single(q, SingleQubitKind::Sxdg),
            Gate::Rz(q, a) if a.is_clifford() => {
                // Rz(kπ/2): k≡0,2 are frame updates; k≡1,3 are S/S†.
                let halves = (a.turns_of_pi() * 2.0).round() as i64;
                match halves.rem_euclid(4) {
                    0 | 2 => {
                        let cell = self.pos[q as usize];
                        self.emit_on(SurgeryOp::PauliFrame { cell }, q);
                        Ok(())
                    }
                    1 => self.exec_single(q, SingleQubitKind::S),
                    _ => self.exec_single(q, SingleQubitKind::Sdg),
                }
            }
            Gate::T(q) | Gate::Tdg(q) => {
                let n = self.options.t_state_policy.states_per_t.max(1);
                self.exec_magic(q, n)
            }
            Gate::Rz(q, _) => {
                let n = self.options.t_state_policy.states_per_rz.max(1);
                self.exec_magic(q, n)
            }
            Gate::Cnot { control, target } => self.exec_cnot(control, target),
            Gate::Measure(q) => {
                let cell = self.pos[q as usize];
                self.emit_on(SurgeryOp::MeasureZ { cell }, q);
                Ok(())
            }
            Gate::Cz(_, _) | Gate::Swap(_, _) => {
                Err(self
                    .fail("CZ/SWAP must be lowered before routing (Compiler::compile does this)"))
            }
        }
    }

    fn exec_single(&mut self, q: u32, kind: SingleQubitKind) -> Result<(), CompileError> {
        let cell = self.pos[q as usize];
        self.protect(&[cell]);
        let ancilla = self.acquire_ancilla(cell)?;
        self.emit_on(
            SurgeryOp::Single {
                kind,
                cell,
                ancilla,
            },
            q,
        );
        self.protected.clear();
        self.no_park.clear();
        Ok(())
    }

    fn exec_magic(&mut self, q: u32, states: u32) -> Result<(), CompileError> {
        for _ in 0..states {
            let tq = self.pos[q as usize];
            self.protect(&[tq]);
            // Delivery cell: vertical neighbour (M_ZZ constraint), preferring
            // a free one, then the cheaper to clear.
            let dest = [
                Coord::new(tq.row - 1, tq.col),
                Coord::new(tq.row + 1, tq.col),
            ]
            .into_iter()
            .filter(|&c| self.grid().in_bounds(c))
            .min_by_key(|&c| {
                let occupied = self.occ_has(c);
                let bus_bias = match self.grid().kind(c) {
                    CellKind::Bus => 0,
                    CellKind::Data => 1,
                };
                (occupied as u32, bus_bias, c.row, c.col)
            })
            .ok_or_else(|| self.fail(format!("no vertical neighbour for magic at {tq}")))?;
            self.ensure_free(dest, &[tq])?;

            let grant = self.bank.acquire(self.qubit_ready[q as usize]);
            // A bank docks at most `u32::MAX` factories (its count is a u32).
            let factory = grant.factory as u32;
            let path = self
                .router
                .find_path(&self.occ, &self.protected, grant.port, dest)
                .ok_or_else(|| self.fail(format!("no delivery path {} -> {dest}", grant.port)))?;
            self.n_magic_states += 1;
            if path.cells.len() >= 2 {
                self.emit(
                    SurgeryOp::DeliverMagic { path: path.cells },
                    Patches::default(),
                    Some(factory),
                    grant.available,
                );
                self.emit_on(
                    SurgeryOp::ConsumeMagic {
                        target: tq,
                        magic: dest,
                    },
                    q,
                );
            } else {
                // The factory port *is* the delivery cell: the state appears
                // in place and the consumption carries the grant itself.
                self.emit(
                    SurgeryOp::ConsumeMagic {
                        target: tq,
                        magic: dest,
                    },
                    Patches::one(q),
                    Some(factory),
                    grant.available,
                );
            }
            self.protected.clear();
            self.no_park.clear();
        }
        Ok(())
    }

    /// Whether the occupant of `ancilla` (if any) can escape once the
    /// operands sit at `cp`/`tp`: it needs at least one in-bounds neighbour
    /// that is not an operand cell. Prevents committing to boxed-corner
    /// configurations whose ancilla can never be cleared.
    fn ancilla_clearable(&self, ancilla: Coord, cp: Coord, tp: Coord) -> bool {
        if !self.occ_has(ancilla) {
            return true;
        }
        ancilla
            .neighbours()
            .into_iter()
            .any(|n| self.grid().in_bounds(n) && n != cp && n != tp)
    }

    fn exec_cnot(&mut self, control: u32, target: u32) -> Result<(), CompileError> {
        let (c_pos, t_pos) = (self.pos[control as usize], self.pos[target as usize]);
        self.protect(&[c_pos, t_pos]);

        // Preferred: the gate-dependent move heuristic over free cells.
        let cfg = best_cnot_config_with(
            &mut self.router,
            &self.occ,
            c_pos,
            t_pos,
            self.options.lookahead,
        )
        .filter(|cfg| self.ancilla_clearable(cfg.ancilla, cfg.control, cfg.target));

        let (mover, dest) = match cfg {
            Some(cfg) => match cfg.mover {
                Mover::None => (None, None),
                Mover::Control => (Some(control), Some(cfg.control)),
                Mover::Target => (Some(target), Some(cfg.target)),
            },
            None => {
                // Packed block (or the heuristic's pick was a boxed corner):
                // allow occupied destinations, scored by distance plus a
                // clearing estimate.
                let mut best: Option<(u32, Coord, u32)> = None;
                for (mq, anchor, from) in [(control, t_pos, c_pos), (target, c_pos, t_pos)] {
                    for d in anchor.diagonals() {
                        if !self.grid().in_bounds(d) || d == from || d == anchor {
                            continue;
                        }
                        let (cp, tp) = if mq == control {
                            (d, t_pos)
                        } else {
                            (c_pos, d)
                        };
                        let anc = match cnot_ancilla(cp, tp) {
                            Some(a) => a,
                            None => continue,
                        };
                        if !self.grid().in_bounds(anc) || anc == cp || anc == tp {
                            continue;
                        }
                        if !self.ancilla_clearable(anc, cp, tp) {
                            continue;
                        }
                        let est = from.manhattan(d)
                            + 2 * self.occ_has(d) as u32
                            + 2 * self.occ_has(anc) as u32;
                        if best.is_none_or(|(_, _, b)| est < b) {
                            best = Some((mq, d, est));
                        }
                    }
                }
                let (mq, d, _) =
                    best.ok_or_else(|| self.fail("no CNOT configuration reachable"))?;
                (Some(mq), Some(d))
            }
        };

        if let (Some(mq), Some(d)) = (mover, dest) {
            // Protect the anchor operand and the *planned* ancilla cell so
            // displacement chains never park a qubit where the merge must
            // happen; the mover itself walks freely.
            let from = self.pos[mq as usize];
            self.protected.retain(|&c| c != from);
            let planned = if mq == control {
                cnot_ancilla(d, t_pos)
            } else {
                cnot_ancilla(c_pos, d)
            };
            if let Some(a) = planned {
                if !self.occ_has(a) {
                    // Only freeze it when free — a pre-existing occupant
                    // still needs to escape through normal clearing. The
                    // mover may pass through; nothing may park there.
                    self.no_park.push(a);
                }
            }
            self.ensure_free(d, &[])?;
            self.relocate(mq, d)?;
            self.protected.push(d);
        }

        let (cp, tp) = (self.pos[control as usize], self.pos[target as usize]);
        let ancilla = cnot_ancilla(cp, tp)
            .ok_or_else(|| self.fail("operands not diagonal after relocation"))?;
        self.protect(&[cp, tp]);
        self.ensure_free(ancilla, &[])?;
        self.emit(
            SurgeryOp::Cnot {
                control: cp,
                target: tp,
                ancilla,
            },
            Patches::two(control, target),
            None,
            Ticks::ZERO,
        );
        self.protected.clear();
        self.no_park.clear();
        Ok(())
    }
}

/// Everything the map stage produces for a lowered circuit: the layout,
/// the initial placement, the routed operation sequence, and the routing
/// engine's activity counters.
#[derive(Debug, Clone)]
pub struct RoutedProgram {
    /// The layout the circuit was routed on.
    pub layout: Layout,
    /// The initial qubit placement.
    pub mapping: InitialMapping,
    /// Logical patches consumed by the factory bank.
    pub factory_patches: u32,
    /// The routed operations, in issue order.
    pub ops: Vec<RoutedOp>,
    /// Magic states the routed program consumes.
    pub n_magic_states: u64,
    /// The router's counters for this compile.
    pub route: RouteCounters,
}

/// Runs the map stage — target validation, layout construction, initial
/// placement, factory docking, and greedy routing — over an already
/// *lowered* circuit, with the router `new_router` builds for the
/// engine's cost model.
///
/// The pipeline passes [`Router::new`](ftqc_route::Router::new).
/// `tests/route_differential.rs` and `bench_session`'s routing bench also
/// pass the seed router (`ftqc_bench::reference::SeedRouter::new`), which
/// emits a byte-identical routed program.
///
/// # Errors
///
/// [`CompileError::Target`], [`CompileError::Layout`], or
/// [`CompileError::RoutingFailed`] — exactly as the map stage reports
/// them (untagged; [`CompileSession`](crate::CompileSession) adds the
/// stage tag).
pub fn route_circuit<R: RouteQueries>(
    lowered: &Circuit,
    options: &CompilerOptions,
    new_router: impl FnOnce(CostModel) -> R,
) -> Result<RoutedProgram, CompileError> {
    let target = &options.target;
    target.validate(lowered.num_qubits(), lowered.t_count() as u64)?;
    let layout = target.build_layout(lowered.num_qubits())?;
    let mapping = InitialMapping::for_circuit(&layout, lowered, options.mapping);
    let bank = target.factory_bank(&layout);
    let factory_patches = bank.total_tiles();
    let mut engine = Engine::new(&layout, &mapping, bank, options, new_router);
    engine.run(lowered)?;
    let route = engine.route_counters();
    let (ops, n_magic_states) = engine.into_ops();
    Ok(RoutedProgram {
        layout,
        mapping,
        factory_patches,
        ops,
        n_magic_states,
        route,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingStrategy;
    use ftqc_circuit::Circuit;
    use ftqc_route::Router;

    fn run_engine(circuit: &Circuit, r: u32, factories: u32) -> (Vec<RoutedOp>, u64) {
        let options = CompilerOptions::default()
            .routing_paths(r)
            .factories(factories);
        let layout = Layout::with_routing_paths(circuit.num_qubits(), r);
        let mapping = InitialMapping::new(&layout, circuit.num_qubits(), MappingStrategy::Snake);
        let bank = FactoryBank::dock(&layout, factories, options.target.timing.magic_production);
        let mut engine = Engine::new(&layout, &mapping, bank, &options, Router::new);
        engine.run(circuit).expect("engine routes the circuit");
        engine.into_ops()
    }

    #[test]
    fn hadamard_emits_single_with_ancilla() {
        let mut c = Circuit::new(4);
        c.h(0);
        let (ops, magic) = run_engine(&c, 4, 1);
        assert_eq!(magic, 0);
        assert!(ops.iter().any(|o| matches!(
            o.op,
            SurgeryOp::Single {
                kind: SingleQubitKind::H,
                ..
            }
        )));
        for o in &ops {
            o.op.validate().expect("all emitted ops valid");
        }
    }

    #[test]
    fn pauli_gates_are_frame_updates() {
        let mut c = Circuit::new(4);
        c.x(0).y(1).z(2);
        let (ops, _) = run_engine(&c, 4, 1);
        assert_eq!(ops.len(), 3);
        assert!(ops
            .iter()
            .all(|o| matches!(o.op, SurgeryOp::PauliFrame { .. })));
    }

    #[test]
    fn t_gate_delivers_and_consumes() {
        let mut c = Circuit::new(4);
        c.t(0);
        let (ops, magic) = run_engine(&c, 4, 1);
        assert_eq!(magic, 1);
        let deliver = ops
            .iter()
            .find(|o| matches!(o.op, SurgeryOp::DeliverMagic { .. }))
            .expect("delivery emitted");
        assert_eq!(deliver.factory, Some(0));
        let consume = ops
            .iter()
            .find(|o| matches!(o.op, SurgeryOp::ConsumeMagic { .. }))
            .expect("consumption emitted");
        assert_eq!(*consume.patches, [0]);
        // Delivery ends at the consume's magic cell.
        if let (SurgeryOp::DeliverMagic { path }, SurgeryOp::ConsumeMagic { magic, .. }) =
            (&deliver.op, &consume.op)
        {
            assert_eq!(path.last(), Some(magic));
        }
    }

    #[test]
    fn clifford_rz_needs_no_magic() {
        let mut c = Circuit::new(4);
        c.rz_pi(0, 0.5).rz_pi(1, 1.0).rz_pi(2, -0.5).rz_pi(3, 2.0);
        let (ops, magic) = run_engine(&c, 4, 1);
        assert_eq!(magic, 0);
        // S, frame, Sdg, frame.
        let singles = ops
            .iter()
            .filter(|o| matches!(o.op, SurgeryOp::Single { .. }))
            .count();
        let frames = ops
            .iter()
            .filter(|o| matches!(o.op, SurgeryOp::PauliFrame { .. }))
            .count();
        assert_eq!(singles, 2);
        assert_eq!(frames, 2);
    }

    #[test]
    fn synthesis_policy_multiplies_states() {
        let mut c = Circuit::new(4);
        c.rz_pi(0, 0.1);
        let options = CompilerOptions::default()
            .routing_paths(4)
            .t_state_policy(crate::options::TStatePolicy::synthesis(3));
        let layout = Layout::with_routing_paths(4, 4);
        let mapping = InitialMapping::new(&layout, 4, MappingStrategy::Snake);
        let bank = FactoryBank::dock(&layout, 1, options.target.timing.magic_production);
        let mut engine = Engine::new(&layout, &mapping, bank, &options, Router::new);
        engine.run(&c).unwrap();
        let (_, magic) = engine.into_ops();
        assert_eq!(magic, 3);
    }

    #[test]
    fn adjacent_cnot_requires_one_move() {
        // Snake mapping on 2x2: qubits 0,1 horizontally adjacent.
        let mut c = Circuit::new(4);
        c.cnot(0, 1);
        let (ops, _) = run_engine(&c, 6, 1);
        let moves = ops.iter().filter(|o| o.is_movement()).count();
        assert!(moves >= 1, "horizontal pair needs at least one move");
        assert!(ops.iter().any(|o| matches!(o.op, SurgeryOp::Cnot { .. })));
        for o in &ops {
            o.op.validate().expect("valid ops");
        }
    }

    #[test]
    fn cnot_in_packed_block_displaces() {
        // 3x3 fully packed, r=2 (top+left bus only): interior CNOTs force
        // displacement chains.
        let mut c = Circuit::new(9);
        c.cnot(4, 7).cnot(1, 4).cnot(3, 4);
        let (ops, _) = run_engine(&c, 2, 1);
        assert_eq!(
            ops.iter()
                .filter(|o| matches!(o.op, SurgeryOp::Cnot { .. }))
                .count(),
            3
        );
        for o in &ops {
            o.op.validate().expect("valid ops");
        }
    }

    #[test]
    fn measure_emits_measure_op() {
        let mut c = Circuit::new(4);
        c.h(0).measure(0);
        let (ops, _) = run_engine(&c, 4, 1);
        assert!(ops
            .iter()
            .any(|o| matches!(o.op, SurgeryOp::MeasureZ { .. })));
    }

    #[test]
    fn engine_positions_stay_consistent() {
        // A busy little program: every op must stay valid, implying the
        // internal position/occupancy maps never diverge.
        let mut c = Circuit::new(9);
        for q in 0..9 {
            c.h(q);
        }
        for (a, b) in [(0u32, 1u32), (3, 4), (7, 8), (2, 5), (4, 7)] {
            c.cnot(a, b);
        }
        for q in [0u32, 4, 8] {
            c.t(q);
        }
        let (ops, magic) = run_engine(&c, 4, 2);
        assert_eq!(magic, 3);
        for o in &ops {
            o.op.validate()
                .unwrap_or_else(|e| panic!("invalid op {}: {e}", o.op));
        }
    }

    #[test]
    fn two_factories_split_deliveries() {
        let mut c = Circuit::new(16);
        for q in 0..8 {
            c.t(q);
        }
        let (ops, _) = run_engine(&c, 4, 2);
        let mut used: Vec<u32> = ops.iter().filter_map(|o| o.factory).collect();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used, vec![0, 1], "both factories used");
    }
}
