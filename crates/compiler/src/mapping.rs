//! Initial static mapping of program qubits to layout data cells (paper §V:
//! "We assign an initial static mapping to our grid depending on the 1D/2D
//! programs").
//!
//! Beyond the paper's row-major and snake orders, the
//! [`MappingStrategy::InteractionAware`] extension places qubits by the
//! circuit's two-qubit interaction graph: heavily-interacting pairs are
//! pulled into adjacent cells, trading mapping-time analysis for fewer
//! routed moves at run time (ablated in `--bin ablation`).

use ftqc_arch::{Coord, Layout};
use ftqc_circuit::Circuit;

/// How program qubit indices map onto the data block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MappingStrategy {
    /// Row-major: qubit `i` at block position `(i / L, i % L)`.
    RowMajor,
    /// Snake (boustrophedon): odd block rows reversed, so consecutive
    /// indices stay nearest-neighbour across row boundaries — "a 1D Ising
    /// model benefits from a snake-like mapping that preserves NN
    /// interactions".
    #[default]
    Snake,
    /// Greedy placement on the circuit's interaction graph: qubits are
    /// placed in order of two-qubit-gate weight, each at the free cell
    /// minimising distance-weighted interaction cost to already-placed
    /// partners. Falls back to [`MappingStrategy::Snake`] when the circuit
    /// is not available.
    InteractionAware,
}

/// The assignment of program qubits to home cells.
#[derive(Debug, Clone, PartialEq)]
pub struct InitialMapping {
    cells: Vec<Coord>,
}

impl InitialMapping {
    /// Builds the mapping for `n` qubits on `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the layout's data capacity.
    pub fn new(layout: &Layout, n: u32, strategy: MappingStrategy) -> Self {
        let data = layout.data_cells();
        assert!(
            n as usize <= data.len(),
            "{n} qubits do not fit {} data cells",
            data.len()
        );
        let side = layout.data_side() as usize;
        let cells = (0..n as usize)
            .map(|i| match strategy {
                MappingStrategy::RowMajor => data[i],
                MappingStrategy::Snake | MappingStrategy::InteractionAware => {
                    let (row, col) = (i / side, i % side);
                    let col = if row % 2 == 1 { side - 1 - col } else { col };
                    let j = row * side + col;
                    // The last row may be partial; fall back to the original
                    // slot when the snake-reflected slot does not exist.
                    if j < data.len() {
                        data[j]
                    } else {
                        data[i]
                    }
                }
            })
            .collect();
        Self { cells }
    }

    /// Builds the mapping for `circuit` on `layout`, using the circuit's
    /// interaction graph when `strategy` is
    /// [`MappingStrategy::InteractionAware`].
    ///
    /// # Panics
    ///
    /// Panics if the register exceeds the layout's data capacity.
    pub fn for_circuit(layout: &Layout, circuit: &Circuit, strategy: MappingStrategy) -> Self {
        match strategy {
            MappingStrategy::InteractionAware => Self::interaction_aware(layout, circuit),
            other => Self::new(layout, circuit.num_qubits(), other),
        }
    }

    /// Greedy interaction-graph placement.
    ///
    /// The interaction graph is kept as per-qubit neighbour lists and each
    /// unplaced qubit's weight to the placed set as a running sum, so
    /// memory grows with the gate count and time with `n²` plus `n` times
    /// the gate count: a register at `MAX_QUBITS` places in milliseconds.
    fn interaction_aware(layout: &Layout, circuit: &Circuit) -> Self {
        let n = circuit.num_qubits() as usize;
        let data = layout.data_cells();
        assert!(
            n <= data.len(),
            "{n} qubits do not fit {} data cells",
            data.len()
        );
        // Interaction weights: number of two-qubit gates per pair, as
        // (partner, weight) lists.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut total = vec![0u32; n];
        for g in circuit.iter() {
            let mut qs = g.qubits();
            if let (Some(a), Some(b), None) = (qs.next(), qs.next(), qs.next()) {
                pairs.push((a, b));
                pairs.push((b, a));
                total[a as usize] += 1;
                total[b as usize] += 1;
            }
        }
        pairs.sort_unstable();
        let mut partners: Vec<Vec<(usize, u32)>> = vec![Vec::new(); n];
        for &(a, b) in &pairs {
            match partners[a as usize].last_mut() {
                Some((p, w)) if *p == b as usize => *w += 1,
                _ => partners[a as usize].push((b as usize, 1)),
            }
        }

        let mut placed: Vec<Option<Coord>> = vec![None; n];
        // Weight from each qubit to the placed set.
        let mut attached = vec![0u32; n];
        let place = |q: usize, cell: Coord, placed: &mut [Option<Coord>], attached: &mut [u32]| {
            placed[q] = Some(cell);
            for &(p, w) in &partners[q] {
                attached[p] += w;
            }
        };
        let mut free: Vec<Coord> = data.to_vec();
        // Seed: the most-connected qubit at the cell closest to the block
        // centroid.
        let centroid = {
            let (mut r, mut c) = (0i64, 0i64);
            for cell in data {
                r += i64::from(cell.row);
                c += i64::from(cell.col);
            }
            let k = data.len().max(1) as i64;
            Coord::new((r / k) as i32, (c / k) as i32)
        };
        let seed = (0..n)
            .max_by_key(|&q| (total[q], std::cmp::Reverse(q)))
            .unwrap_or(0);
        let seed_cell_idx = (0..free.len())
            .min_by_key(|&i| free[i].manhattan(centroid))
            .expect("layout has data cells");
        place(
            seed,
            free.swap_remove(seed_cell_idx),
            &mut placed,
            &mut attached,
        );

        for _ in 1..n {
            // Next qubit: heaviest total edge weight to the placed set
            // (ties: heaviest overall, then lowest index for determinism).
            let next = (0..n)
                .filter(|&q| placed[q].is_none())
                .max_by_key(|&q| (attached[q], total[q], std::cmp::Reverse(q)))
                .expect("some qubit unplaced");
            // Best cell: minimise distance-weighted cost to placed partners
            // (unattached qubits take the cell nearest the centroid).
            let best = (0..free.len())
                .min_by_key(|&i| {
                    let cost: u64 = partners[next]
                        .iter()
                        .filter_map(|&(p, w)| {
                            placed[p].map(|cell| u64::from(w) * u64::from(free[i].manhattan(cell)))
                        })
                        .sum();
                    (
                        cost,
                        u64::from(free[i].manhattan(centroid)),
                        free[i].row,
                        free[i].col,
                    )
                })
                .expect("free cell remains");
            place(next, free.swap_remove(best), &mut placed, &mut attached);
        }

        Self {
            cells: placed.into_iter().map(|c| c.expect("all placed")).collect(),
        }
    }

    /// Home cell of program qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn cell_of(&self, q: u32) -> Coord {
        self.cells[q as usize]
    }

    /// All home cells, indexed by program qubit.
    pub fn cells(&self) -> &[Coord] {
        &self.cells
    }

    /// Number of mapped qubits.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_arch::Layout;

    #[test]
    fn row_major_follows_data_order() {
        let layout = Layout::with_routing_paths(16, 4);
        let m = InitialMapping::new(&layout, 16, MappingStrategy::RowMajor);
        assert_eq!(m.cells(), layout.data_cells());
    }

    #[test]
    fn snake_reverses_odd_rows() {
        let layout = Layout::with_routing_paths(16, 4);
        let m = InitialMapping::new(&layout, 16, MappingStrategy::Snake);
        let data = layout.data_cells();
        // Row 0 unchanged.
        assert_eq!(m.cell_of(0), data[0]);
        assert_eq!(m.cell_of(3), data[3]);
        // Row 1 reversed: qubit 4 sits where row-major qubit 7 would.
        assert_eq!(m.cell_of(4), data[7]);
        assert_eq!(m.cell_of(7), data[4]);
        // Consecutive qubits 3 and 4 are now vertically adjacent.
        assert!(m.cell_of(3).is_vertical_neighbour(m.cell_of(4)));
    }

    #[test]
    fn snake_is_a_permutation() {
        let layout = Layout::with_routing_paths(36, 6);
        let m = InitialMapping::new(&layout, 36, MappingStrategy::Snake);
        let mut cells = m.cells().to_vec();
        cells.sort();
        cells.dedup();
        assert_eq!(cells.len(), 36, "snake mapping must not collide");
    }

    #[test]
    fn partial_last_row_handled() {
        let layout = Layout::with_routing_paths(10, 4);
        let m = InitialMapping::new(&layout, 10, MappingStrategy::Snake);
        let mut cells = m.cells().to_vec();
        cells.sort();
        cells.dedup();
        assert_eq!(cells.len(), 10);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn overful_mapping_rejected() {
        let layout = Layout::with_routing_paths(4, 4);
        InitialMapping::new(&layout, 9, MappingStrategy::RowMajor);
    }

    #[test]
    fn interaction_aware_is_a_permutation() {
        let mut c = Circuit::new(16);
        for i in 0..16u32 {
            c.cnot(i, (i + 5) % 16);
        }
        let layout = Layout::with_routing_paths(16, 4);
        let m = InitialMapping::for_circuit(&layout, &c, MappingStrategy::InteractionAware);
        let mut cells = m.cells().to_vec();
        cells.sort();
        cells.dedup();
        assert_eq!(cells.len(), 16, "placement must not collide");
    }

    #[test]
    fn interaction_aware_pulls_partners_together() {
        // Pairs (i, i+8) interact heavily; row-major would separate them by
        // two block rows. Interaction-aware placement must do better than
        // row-major on total pair distance.
        let mut c = Circuit::new(16);
        for i in 0..8u32 {
            for _ in 0..4 {
                c.cnot(i, i + 8);
            }
        }
        let layout = Layout::with_routing_paths(16, 4);
        let pair_distance = |m: &InitialMapping| -> u32 {
            (0..8u32)
                .map(|i| m.cell_of(i).manhattan(m.cell_of(i + 8)))
                .sum()
        };
        let aware = InitialMapping::for_circuit(&layout, &c, MappingStrategy::InteractionAware);
        let row = InitialMapping::for_circuit(&layout, &c, MappingStrategy::RowMajor);
        assert!(
            pair_distance(&aware) < pair_distance(&row),
            "aware {} !< row-major {}",
            pair_distance(&aware),
            pair_distance(&row)
        );
    }

    #[test]
    fn interaction_aware_without_two_qubit_gates_is_deterministic() {
        let mut c = Circuit::new(9);
        for q in 0..9 {
            c.h(q);
        }
        let layout = Layout::with_routing_paths(9, 4);
        let a = InitialMapping::for_circuit(&layout, &c, MappingStrategy::InteractionAware);
        let b = InitialMapping::for_circuit(&layout, &c, MappingStrategy::InteractionAware);
        assert_eq!(a, b);
        assert_eq!(a.len(), 9);
    }

    /// The greedy placement over a dense `n × n` weight matrix: the oracle
    /// for the neighbour-list form.
    fn dense_placement(layout: &Layout, circuit: &Circuit) -> Vec<Coord> {
        let n = circuit.num_qubits() as usize;
        let data = layout.data_cells();
        let mut weight = vec![vec![0u32; n]; n];
        let mut total = vec![0u32; n];
        for g in circuit.iter() {
            let qs: Vec<u32> = g.qubits().collect();
            if qs.len() == 2 {
                let (a, b) = (qs[0] as usize, qs[1] as usize);
                weight[a][b] += 1;
                weight[b][a] += 1;
                total[a] += 1;
                total[b] += 1;
            }
        }
        let mut placed: Vec<Option<Coord>> = vec![None; n];
        let mut free: Vec<Coord> = data.to_vec();
        let (r, c) = data.iter().fold((0i64, 0i64), |(r, c), cell| {
            (r + i64::from(cell.row), c + i64::from(cell.col))
        });
        let k = data.len() as i64;
        let centroid = Coord::new((r / k) as i32, (c / k) as i32);
        let seed = (0..n)
            .max_by_key(|&q| (total[q], std::cmp::Reverse(q)))
            .unwrap();
        let i = (0..free.len())
            .min_by_key(|&i| free[i].manhattan(centroid))
            .unwrap();
        placed[seed] = Some(free.swap_remove(i));
        for _ in 1..n {
            let next = (0..n)
                .filter(|&q| placed[q].is_none())
                .max_by_key(|&q| {
                    let attached: u32 = (0..n)
                        .filter(|&p| placed[p].is_some())
                        .map(|p| weight[q][p])
                        .sum();
                    (attached, total[q], std::cmp::Reverse(q))
                })
                .unwrap();
            let best = (0..free.len())
                .min_by_key(|&i| {
                    let cost: u64 = (0..n)
                        .filter_map(|p| {
                            placed[p].map(|cell| {
                                u64::from(weight[next][p]) * u64::from(free[i].manhattan(cell))
                            })
                        })
                        .sum();
                    let f = free[i];
                    (cost, u64::from(f.manhattan(centroid)), f.row, f.col)
                })
                .unwrap();
            placed[next] = Some(free.swap_remove(best));
        }
        placed.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn interaction_aware_matches_dense_placement() {
        // Pseudo-random circuits with repeated pairs, idle qubits and
        // single-qubit gates mixed in.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |m: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % u64::from(m)) as u32
        };
        for n in [2u32, 5, 9, 16, 23, 40] {
            let mut c = Circuit::new(n);
            for _ in 0..2 * n {
                let a = draw(n);
                let b = (a + 1 + draw(n - 1)) % n;
                c.cnot(a, b);
                if draw(3) == 0 {
                    c.t(b);
                }
            }
            let layout = Layout::with_routing_paths(n, 4);
            let m = InitialMapping::for_circuit(&layout, &c, MappingStrategy::InteractionAware);
            assert_eq!(
                m.cells(),
                dense_placement(&layout, &c).as_slice(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn for_circuit_delegates_for_static_strategies() {
        let c = Circuit::new(16);
        let layout = Layout::with_routing_paths(16, 4);
        let a = InitialMapping::for_circuit(&layout, &c, MappingStrategy::Snake);
        let b = InitialMapping::new(&layout, 16, MappingStrategy::Snake);
        assert_eq!(a, b);
    }
}
