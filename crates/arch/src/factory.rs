//! Magic-state distillation factories.
//!
//! Each factory runs the 15-to-1 protocol \[10\], producing one high-fidelity
//! T state every `magic_production` (11d by default, \[28\]). Factories are
//! docked outside the computation grid; only their *output port* — a bus
//! cell on the grid boundary — is visible to the router. A factory block
//! occupies [`FACTORY_TILES`] logical patches, which count toward the
//! machine's qubit total and the spacetime volume (paper Fig 9 includes
//! them; the DASCOT comparison of Fig 15 excludes them).

use crate::grid::Coord;
use crate::layout::Layout;
use crate::timing::Ticks;

/// Logical patches occupied by one 15-to-1 distillation factory block
/// (Litinski's distillation block footprint \[28\]).
pub const FACTORY_TILES: u32 = 11;

/// A grant for one magic state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MagicGrant {
    /// Index of the granting factory.
    pub factory: usize,
    /// Output port (grid boundary bus cell) where the state appears.
    pub port: Coord,
    /// Earliest time the state is available at the port.
    pub available: Ticks,
}

/// A bank of distillation factories docked on a layout's boundary.
///
/// Ports are spread evenly (clockwise) over the boundary bus cells so that
/// simultaneous deliveries from different factories contend as little as the
/// layout allows. Production is modelled per-factory: the `k`-th state of a
/// factory is ready no earlier than `k × production`, and a factory starts
/// its next state when the previous one is granted.
///
/// # Example
///
/// ```
/// use ftqc_arch::{FactoryBank, Layout, Ticks};
///
/// let layout = Layout::with_routing_paths(16, 4);
/// let mut bank = FactoryBank::dock(&layout, 2, Ticks::from_d(11.0));
/// let g = bank.acquire(Ticks::ZERO);
/// assert_eq!(g.available, Ticks::from_d(11.0)); // first state after 11d
/// ```
/// Where factory output ports sit on the layout boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PortPlacement {
    /// Ports spread evenly around the perimeter (the paper's assumption).
    #[default]
    Spread,
    /// Ports packed onto consecutive boundary cells from the top-left —
    /// the "all factories on one edge" floorplan.
    Clustered,
}

#[derive(Debug, Clone, PartialEq)]
pub struct FactoryBank {
    ports: Vec<Coord>,
    ready_at: Vec<Ticks>,
    production: Ticks,
    granted: u64,
    unbounded: bool,
}

impl FactoryBank {
    /// Docks `n_factories` factories on `layout`'s boundary bus cells,
    /// output ports spread evenly around the perimeter (the default the
    /// paper's layouts assume).
    ///
    /// # Panics
    ///
    /// Panics if `n_factories == 0` or the layout has no boundary bus cells
    /// (impossible for `r ≥ 2` layouts).
    pub fn dock(layout: &Layout, n_factories: u32, production: Ticks) -> Self {
        Self::dock_with(layout, n_factories, production, PortPlacement::Spread)
    }

    /// Docks factories with an explicit port-placement policy — the
    /// DESIGN.md "spread vs clustered" ablation. Clustered ports model a
    /// machine whose distillation blocks share one edge of the chip
    /// (shorter factory interconnect, longer delivery routes).
    ///
    /// # Panics
    ///
    /// Panics if `n_factories == 0` or the layout has no boundary bus cells.
    pub fn dock_with(
        layout: &Layout,
        n_factories: u32,
        production: Ticks,
        placement: PortPlacement,
    ) -> Self {
        assert!(n_factories > 0, "at least one factory is required");
        let sites = layout.boundary_bus_cells();
        assert!(!sites.is_empty(), "layout exposes no boundary bus cells");
        let ports = match placement {
            PortPlacement::Spread => (0..n_factories as usize)
                .map(|i| sites[i * sites.len() / n_factories as usize])
                .collect(),
            PortPlacement::Clustered => (0..n_factories as usize)
                .map(|i| sites[i.min(sites.len() - 1)])
                .collect(),
        };
        Self {
            ports,
            ready_at: vec![production; n_factories as usize],
            production,
            granted: 0,
            unbounded: false,
        }
    }

    /// A bank with an effectively unlimited supply of magic states
    /// (states are always ready) — models DASCOT's assumption \[31\].
    /// Ports still dock on the boundary so routing costs stay realistic.
    pub fn unbounded(layout: &Layout, n_ports: u32) -> Self {
        let mut bank = Self::dock(layout, n_ports.max(1), Ticks::ZERO);
        bank.unbounded = true;
        for r in &mut bank.ready_at {
            *r = Ticks::ZERO;
        }
        bank
    }

    /// Number of factories.
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// Whether the bank has no factories (never true for constructed banks).
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }

    /// Whether this bank models unlimited magic-state supply.
    pub fn is_unbounded(&self) -> bool {
        self.unbounded
    }

    /// Production latency per state.
    pub fn production(&self) -> Ticks {
        self.production
    }

    /// Output ports, indexed by factory.
    pub fn ports(&self) -> &[Coord] {
        &self.ports
    }

    /// Total states granted so far.
    pub fn states_granted(&self) -> u64 {
        self.granted
    }

    /// Logical patches consumed by the factory blocks.
    pub fn total_tiles(&self) -> u32 {
        if self.unbounded {
            0
        } else {
            FACTORY_TILES * self.ports.len() as u32
        }
    }

    /// Grants the earliest-available magic state for a request at time
    /// `request`; the granting factory immediately begins its next state.
    pub fn acquire(&mut self, request: Ticks) -> MagicGrant {
        self.granted += 1;
        if self.unbounded {
            // Round-robin the ports so parallel deliveries spread out.
            let idx = (self.granted - 1) as usize % self.ports.len();
            return MagicGrant {
                factory: idx,
                port: self.ports[idx],
                available: request,
            };
        }
        let (idx, _) = self
            .ready_at
            .iter()
            .enumerate()
            .min_by_key(|(i, &r)| (r.max(request), *i))
            .expect("bank is non-empty");
        let available = self.ready_at[idx].max(request);
        self.ready_at[idx] = available + self.production;
        MagicGrant {
            factory: idx,
            port: self.ports[idx],
            available,
        }
    }

    /// Restores the bank to its initial state (for recompilation).
    pub fn reset(&mut self) {
        self.granted = 0;
        for r in &mut self.ready_at {
            *r = if self.unbounded {
                Ticks::ZERO
            } else {
                self.production
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> Layout {
        Layout::with_routing_paths(16, 4)
    }

    #[test]
    fn first_state_ready_after_production() {
        let mut bank = FactoryBank::dock(&layout(), 1, Ticks::from_d(11.0));
        let g = bank.acquire(Ticks::ZERO);
        assert_eq!(g.available, Ticks::from_d(11.0));
        assert_eq!(g.factory, 0);
    }

    #[test]
    fn single_factory_serialises_states() {
        let mut bank = FactoryBank::dock(&layout(), 1, Ticks::from_d(11.0));
        let g1 = bank.acquire(Ticks::ZERO);
        let g2 = bank.acquire(Ticks::ZERO);
        let g3 = bank.acquire(Ticks::ZERO);
        assert_eq!(g1.available, Ticks::from_d(11.0));
        assert_eq!(g2.available, Ticks::from_d(22.0));
        assert_eq!(g3.available, Ticks::from_d(33.0));
    }

    #[test]
    fn late_request_delays_next_production() {
        let mut bank = FactoryBank::dock(&layout(), 1, Ticks::from_d(11.0));
        // Request at 50d: state waited in the buffer, next at 61d.
        let g1 = bank.acquire(Ticks::from_d(50.0));
        assert_eq!(g1.available, Ticks::from_d(50.0));
        let g2 = bank.acquire(Ticks::from_d(50.0));
        assert_eq!(g2.available, Ticks::from_d(61.0));
    }

    #[test]
    fn multiple_factories_interleave() {
        let mut bank = FactoryBank::dock(&layout(), 2, Ticks::from_d(11.0));
        let g1 = bank.acquire(Ticks::ZERO);
        let g2 = bank.acquire(Ticks::ZERO);
        let g3 = bank.acquire(Ticks::ZERO);
        let g4 = bank.acquire(Ticks::ZERO);
        assert_eq!(g1.available, Ticks::from_d(11.0));
        assert_eq!(g2.available, Ticks::from_d(11.0));
        assert_ne!(g1.factory, g2.factory);
        assert_eq!(g3.available, Ticks::from_d(22.0));
        assert_eq!(g4.available, Ticks::from_d(22.0));
        // Lower-bound check: n states from f factories take n*T/f.
        assert_eq!(bank.states_granted(), 4);
    }

    #[test]
    fn ports_lie_on_boundary_bus_cells() {
        let l = layout();
        let bank = FactoryBank::dock(&l, 4, Ticks::from_d(11.0));
        let sites = l.boundary_bus_cells();
        for p in bank.ports() {
            assert!(sites.contains(p), "port {p} must be a boundary bus cell");
        }
        // Spread: 4 factories on a 6x6 ring should use 4 distinct ports.
        let mut unique = bank.ports().to_vec();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    fn clustered_ports_pack_together() {
        let layout = Layout::with_routing_paths(16, 4);
        let spread = FactoryBank::dock_with(&layout, 3, Ticks::from_d(11.0), PortPlacement::Spread);
        let clustered =
            FactoryBank::dock_with(&layout, 3, Ticks::from_d(11.0), PortPlacement::Clustered);
        let span = |ports: &[Coord]| -> u32 {
            ports
                .iter()
                .flat_map(|a| ports.iter().map(move |b| a.manhattan(*b)))
                .max()
                .unwrap_or(0)
        };
        assert!(
            span(clustered.ports()) < span(spread.ports()),
            "clustered ports should sit closer together"
        );
        // Distinct cells in both policies.
        let uniq = |ports: &[Coord]| {
            let mut v = ports.to_vec();
            v.sort();
            v.dedup();
            v.len()
        };
        assert_eq!(uniq(spread.ports()), 3);
        assert_eq!(uniq(clustered.ports()), 3);
    }

    #[test]
    fn factory_tiles_counted() {
        let bank = FactoryBank::dock(&layout(), 3, Ticks::from_d(11.0));
        assert_eq!(bank.total_tiles(), 33);
    }

    #[test]
    fn unbounded_supply_always_ready() {
        let l = layout();
        let mut bank = FactoryBank::unbounded(&l, 2);
        assert!(bank.is_unbounded());
        assert_eq!(bank.total_tiles(), 0);
        for i in 0..5u64 {
            let g = bank.acquire(Ticks::from_d(i as f64));
            assert_eq!(g.available, Ticks::from_d(i as f64));
        }
    }

    #[test]
    fn reset_restores_initial_schedule() {
        let mut bank = FactoryBank::dock(&layout(), 1, Ticks::from_d(11.0));
        bank.acquire(Ticks::ZERO);
        bank.acquire(Ticks::ZERO);
        bank.reset();
        assert_eq!(bank.states_granted(), 0);
        assert_eq!(bank.acquire(Ticks::ZERO).available, Ticks::from_d(11.0));
    }

    #[test]
    #[should_panic(expected = "at least one factory")]
    fn zero_factories_rejected() {
        FactoryBank::dock(&layout(), 0, Ticks::from_d(11.0));
    }
}
