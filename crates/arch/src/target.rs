//! First-class hardware targets: one typed descriptor for the whole
//! machine model the compiler runs against.
//!
//! The paper's machine (Fig 1b / Fig 3) is an `L×L` data block provisioned
//! with `r` bus lines, 15-to-1 distillation factories docked on the
//! boundary, and per-operation latencies in units of the code distance.
//! [`TargetSpec`] gathers those knobs — bus provisioning (the
//! routing-path-parameterised family *or* an explicit bus mask), the
//! factory bank, the [`TimingModel`], and capability flags — into one
//! descriptor that the compiler digests canonically into its fingerprint
//! chain, so "which machine was this compiled for" is part of every cache
//! key and wire artifact.
//!
//! A spec builds its own layout ([`TargetSpec::build_layout`]), docks its
//! factory bank ([`TargetSpec::factory_bank`]) and checks a program
//! against its capabilities ([`TargetSpec::validate`]). The three presets
//! are constructors: the paper's machine ([`TargetSpec::paper`]), a
//! bus-starved variant ([`TargetSpec::sparse`]) and a timing-scaled
//! machine ([`TargetSpec::fast_d`]).
//!
//! [`TargetRegistry`] maps preset names (`"paper"`, `"sparse"`,
//! `"fast-d"`) and user-registered specs to descriptors — the lookup the
//! CLI's `--target` flag and the server's `GET /v1/targets` endpoint
//! share.
//!
//! # Example
//!
//! ```
//! use ftqc_arch::{TargetRegistry, TargetSpec};
//!
//! let registry = TargetRegistry::builtin();
//! let spec = registry.get("paper").unwrap().clone();
//! assert_eq!(spec, TargetSpec::paper());
//! let layout = spec.build_layout(100)?;
//! assert_eq!(layout.total_patches(), 144); // the §VII.C reference machine
//! spec.validate(100, 1_000)?; // fits, and the target distils T states
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::factory::{FactoryBank, PortPlacement};
use crate::layout::{Layout, LayoutError};
use crate::timing::TimingModel;
use std::error::Error;
use std::fmt;

/// How a target provisions its bus (routing/ancilla) lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusSpec {
    /// The paper's Fig 3 family: `r` bus lines inserted edges-first, then
    /// interior lines middle-out. Sweepable — the design-space explorer
    /// varies `r` freely (unless [`Capabilities::fixed_bus`] pins it).
    RoutingPaths(u32),
    /// An explicit bus mask: the exact gap positions of every bus row and
    /// column (`-1` = before data line 0, `k` = after data line `k`). This
    /// is how irregular machines (one-sided buses, heavy-hex-style
    /// provisioning) are described; the mask is never overridden by sweep
    /// grids.
    Explicit {
        /// Bus-row gap positions.
        rows: Vec<i32>,
        /// Bus-column gap positions.
        cols: Vec<i32>,
    },
}

impl BusSpec {
    /// The number of bus lines this spec provisions (the `r` the layout
    /// family would quote). Duplicate gaps in an explicit mask collapse,
    /// matching what [`Layout::try_with_bus_lines`] actually builds.
    pub fn routing_paths(&self) -> u32 {
        match self {
            BusSpec::RoutingPaths(r) => *r,
            BusSpec::Explicit { rows, cols } => {
                (canonical_gaps(rows).len() + canonical_gaps(cols).len()) as u32
            }
        }
    }

    /// The canonical form: explicit masks with gap lists sorted and
    /// deduplicated. Two masks describing the same machine canonicalise
    /// (and therefore digest) identically.
    pub fn canonical(&self) -> BusSpec {
        match self {
            BusSpec::RoutingPaths(r) => BusSpec::RoutingPaths(*r),
            BusSpec::Explicit { rows, cols } => BusSpec::Explicit {
                rows: canonical_gaps(rows),
                cols: canonical_gaps(cols),
            },
        }
    }
}

/// Sorted, deduplicated gap positions — the mask as the layout builds it.
fn canonical_gaps(gaps: &[i32]) -> Vec<i32> {
    let mut gaps = gaps.to_vec();
    gaps.sort_unstable();
    gaps.dedup();
    gaps
}

/// What a target can and cannot do, beyond its geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Hard cap on data qubits (`None` = any register the layout fits).
    pub max_qubits: Option<u32>,
    /// Whether the machine distils magic states at all. A `false` target
    /// is Clifford-only: compiling a circuit with T/non-Clifford rotations
    /// is a validation error rather than a silent mis-model.
    pub magic_states: bool,
    /// Whether the bus provisioning is part of the machine (not a free
    /// design axis): cross-target sweeps pin `r` to the spec's own value
    /// instead of sweeping it. Explicit bus masks are always pinned.
    pub fixed_bus: bool,
}

impl Default for Capabilities {
    fn default() -> Self {
        Capabilities {
            max_qubits: None,
            magic_states: true,
            fixed_bus: false,
        }
    }
}

impl Capabilities {
    /// Whether every flag holds its default — the test the options codec
    /// uses to keep legacy renderings byte-identical.
    pub fn is_default(&self) -> bool {
        *self == Capabilities::default()
    }
}

/// The most distillation factories a target may declare. Every factory
/// docks one output port on the boundary (under unbounded magic too), so
/// the cap bounds the factory bank's allocation; the paper's figures use
/// at most 8.
pub const MAX_FACTORIES: u32 = 1024;

/// The most data qubits a program may ask any target for, whether it
/// arrives as QASM or as a sized benchmark. A compile's memory grows
/// faster than its qubit count — the `64 × 64` Heisenberg lattice (4,096
/// qubits) compiles in ~4 s and ~420 MiB, the `256 × 256` Ising lattice
/// exhausts 4 GB — so the cap sits at 4,096 where an unchecked
/// `qreg q[4000000000]` would abort on a tens-of-gigabytes allocation. The
/// largest Table I circuit (GHZ) has 255.
pub const MAX_QUBITS: u32 = 1 << 12;

/// Why a program cannot run on a target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetError {
    /// A bounded-magic target was declared with zero factories.
    NoFactories,
    /// The target declares more factories than [`MAX_FACTORIES`].
    TooManyFactories {
        /// Factories the target declares.
        factories: u32,
        /// The cap.
        max: u32,
    },
    /// The program needs more data qubits than [`MAX_QUBITS`].
    QubitCapExceeded {
        /// Qubits the program needs (wide enough for a sized benchmark's
        /// `L²` before any register is built).
        qubits: u64,
        /// The cap.
        max: u32,
    },
    /// The program needs more data qubits than the target hosts.
    TooManyQubits {
        /// Qubits the program needs.
        qubits: u32,
        /// The target's cap.
        max: u32,
    },
    /// The program consumes magic states but the target is Clifford-only.
    MagicStatesUnsupported {
        /// Magic states the program would consume.
        t_count: u64,
    },
}

impl fmt::Display for TargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetError::NoFactories => {
                write!(
                    f,
                    "target provides no factories but models bounded magic-state supply"
                )
            }
            TargetError::TooManyFactories { factories, max } => {
                write!(
                    f,
                    "target declares {factories} factories but at most {max} are supported"
                )
            }
            TargetError::QubitCapExceeded { qubits, max } => {
                write!(
                    f,
                    "program needs {qubits} data qubits but at most {max} are supported"
                )
            }
            TargetError::TooManyQubits { qubits, max } => {
                write!(
                    f,
                    "program needs {qubits} data qubits but the target hosts at most {max}"
                )
            }
            TargetError::MagicStatesUnsupported { t_count } => write!(
                f,
                "program consumes {t_count} magic states but the target is Clifford-only"
            ),
        }
    }
}

impl Error for TargetError {}

/// A complete machine descriptor: bus provisioning, factory bank, timing
/// model, and capability flags.
///
/// The spec is plain data — cloneable, comparable, canonically digestible
/// (see `ftqc_compiler::codec::target_digest`) — so it can live in compile
/// options, job documents, wire payloads, and cache keys without any
/// behavioural baggage. Behaviour lives in the inherent methods
/// ([`TargetSpec::build_layout`], [`TargetSpec::factory_bank`],
/// [`TargetSpec::validate`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TargetSpec {
    /// Bus provisioning.
    pub bus: BusSpec,
    /// Distillation factories docked on the boundary.
    pub factories: u32,
    /// Per-operation latencies (includes the factories' production time).
    pub timing: TimingModel,
    /// Where factory output ports sit on the boundary.
    pub port_placement: PortPlacement,
    /// Model an unlimited magic-state supply (DASCOT-style assumption).
    pub unbounded_magic: bool,
    /// Capability flags.
    pub capabilities: Capabilities,
}

impl TargetSpec {
    /// The paper's evaluation machine: `r = 4`, one 15-to-1 factory at
    /// 11d, spread ports — exactly the pre-target compiler defaults.
    pub fn paper() -> Self {
        TargetSpec {
            bus: BusSpec::RoutingPaths(4),
            factories: 1,
            timing: TimingModel::paper(),
            port_placement: PortPlacement::Spread,
            unbounded_magic: false,
            capabilities: Capabilities::default(),
        }
    }

    /// A bus-starved machine: the minimum `r = 2` provisioning with all
    /// factory ports clustered on one edge, and the bus pinned (`r` is the
    /// machine, not a design axis).
    pub fn sparse() -> Self {
        TargetSpec {
            bus: BusSpec::RoutingPaths(2),
            port_placement: PortPlacement::Clustered,
            capabilities: Capabilities {
                fixed_bus: true,
                ..Capabilities::default()
            },
            ..TargetSpec::paper()
        }
    }

    /// The paper machine with every latency scaled to half (rounded up to
    /// whole ticks): a "fast-d" device whose effective code distance —
    /// and with it every lattice-surgery latency — is halved.
    pub fn fast_d() -> Self {
        TargetSpec {
            timing: TimingModel::paper().scaled(1, 2),
            ..TargetSpec::paper()
        }
    }

    /// The bus-line count this spec provisions (`r` for the layout
    /// family, the mask's line count for explicit masks).
    pub fn routing_paths(&self) -> u32 {
        self.bus.routing_paths()
    }

    /// Whether sweeps must keep this spec's bus provisioning as-is:
    /// explicit masks always, routing-path families when
    /// [`Capabilities::fixed_bus`] is set.
    pub fn bus_is_pinned(&self) -> bool {
        self.capabilities.fixed_bus || matches!(self.bus, BusSpec::Explicit { .. })
    }

    /// Builds the layout for `n_data` data qubits.
    ///
    /// # Errors
    ///
    /// [`LayoutError`] when the provisioning is invalid for this register
    /// size.
    pub fn build_layout(&self, n_data: u32) -> Result<Layout, LayoutError> {
        match &self.bus {
            BusSpec::RoutingPaths(r) => Layout::try_with_routing_paths(n_data, *r),
            BusSpec::Explicit { rows, cols } => Layout::try_with_bus_lines(n_data, rows, cols),
        }
    }

    /// Docks this spec's factory bank on `layout` — the exact bank the
    /// compiler's map stage routes magic states from.
    pub fn factory_bank(&self, layout: &Layout) -> FactoryBank {
        if self.unbounded_magic {
            FactoryBank::unbounded(layout, self.factories)
        } else {
            FactoryBank::dock_with(
                layout,
                self.factories,
                self.timing.magic_production,
                self.port_placement,
            )
        }
    }

    /// Checks a program shape against this target's capabilities.
    ///
    /// Geometry is *not* checked here (that is [`TargetSpec::build_layout`]'s
    /// job, with its own [`LayoutError`]); this covers the capability
    /// flags and the factory-count bounds the bank constructor relies on:
    /// it panics on zero factories and allocates per factory.
    ///
    /// # Errors
    ///
    /// The first violated [`TargetError`].
    pub fn validate(&self, qubits: u32, t_count: u64) -> Result<(), TargetError> {
        if self.factories == 0 && !self.unbounded_magic {
            return Err(TargetError::NoFactories);
        }
        if self.factories > MAX_FACTORIES {
            return Err(TargetError::TooManyFactories {
                factories: self.factories,
                max: MAX_FACTORIES,
            });
        }
        if qubits > MAX_QUBITS {
            return Err(TargetError::QubitCapExceeded {
                qubits: qubits.into(),
                max: MAX_QUBITS,
            });
        }
        if let Some(max) = self.capabilities.max_qubits {
            if qubits > max {
                return Err(TargetError::TooManyQubits { qubits, max });
            }
        }
        if t_count > 0 && !self.capabilities.magic_states {
            return Err(TargetError::MagicStatesUnsupported { t_count });
        }
        Ok(())
    }
}

impl Default for TargetSpec {
    fn default() -> Self {
        TargetSpec::paper()
    }
}

/// One registry entry: a named, described spec.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetEntry {
    /// The lookup name.
    pub name: String,
    /// A one-line description for listings.
    pub description: String,
    /// The machine descriptor.
    pub spec: TargetSpec,
}

/// Named targets: the built-in presets plus anything the embedding
/// process registers. Lookup is by exact name; registration order is
/// preserved for listings, and re-registering a name replaces its spec.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TargetRegistry {
    entries: Vec<TargetEntry>,
}

impl TargetRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        TargetRegistry::default()
    }

    /// The built-in presets: `"paper"`, `"sparse"`, `"fast-d"`.
    pub fn builtin() -> Self {
        let mut registry = TargetRegistry::empty();
        registry.register(
            "paper",
            "the paper's machine: r=4 layout family, one 15-to-1 factory (11d), spread ports",
            TargetSpec::paper(),
        );
        registry.register(
            "sparse",
            "bus-starved machine: minimum r=2 pinned, factory ports clustered on one edge",
            TargetSpec::sparse(),
        );
        registry.register(
            "fast-d",
            "paper machine with every latency halved (effective code distance d/2)",
            TargetSpec::fast_d(),
        );
        registry
    }

    /// Registers (or replaces) a named spec.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        description: impl Into<String>,
        spec: TargetSpec,
    ) {
        let name = name.into();
        let description = description.into();
        match self.entries.iter_mut().find(|e| e.name == name) {
            Some(entry) => {
                entry.description = description;
                entry.spec = spec;
            }
            None => self.entries.push(TargetEntry {
                name,
                description,
                spec,
            }),
        }
    }

    /// The spec registered under `name`.
    pub fn get(&self, name: &str) -> Option<&TargetSpec> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.spec)
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> &[TargetEntry] {
        &self.entries
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::CellKind;
    use crate::timing::Ticks;

    #[test]
    fn paper_spec_matches_legacy_defaults() {
        let spec = TargetSpec::paper();
        assert_eq!(spec.routing_paths(), 4);
        assert_eq!(spec.factories, 1);
        assert_eq!(spec.timing, TimingModel::paper());
        assert_eq!(spec.port_placement, PortPlacement::Spread);
        assert!(!spec.unbounded_magic);
        assert!(spec.capabilities.is_default());
        assert!(!spec.bus_is_pinned());
        assert_eq!(TargetSpec::default(), spec);
    }

    #[test]
    fn preset_layouts_build() {
        let paper = TargetSpec::paper().build_layout(100).unwrap();
        assert_eq!(paper.total_patches(), 144);
        let sparse = TargetSpec::sparse().build_layout(100).unwrap();
        assert_eq!(sparse.total_patches(), 121);
        assert!(TargetSpec::sparse().bus_is_pinned());
    }

    #[test]
    fn fast_d_halves_latencies() {
        let t = TargetSpec::fast_d().timing;
        assert_eq!(t.cnot, Ticks::from_d(1.0));
        assert_eq!(t.magic_production, Ticks::from_d(5.5));
        assert_eq!(t.move_op, Ticks::from_d(0.5));
        // 1.5d phase rounds up to a whole tick.
        assert_eq!(t.phase, Ticks(2));
    }

    #[test]
    fn explicit_masks_canonicalise() {
        let messy = BusSpec::Explicit {
            rows: vec![3, -1, -1],
            cols: vec![1, 1],
        };
        let clean = BusSpec::Explicit {
            rows: vec![-1, 3],
            cols: vec![1],
        };
        assert_eq!(messy.canonical(), clean);
        assert_eq!(clean.canonical(), clean);
        assert_eq!(messy.routing_paths(), 3, "duplicates collapse");
        assert_eq!(
            BusSpec::RoutingPaths(4).canonical(),
            BusSpec::RoutingPaths(4)
        );
    }

    #[test]
    fn explicit_masks_build_and_pin() {
        let spec = TargetSpec {
            bus: BusSpec::Explicit {
                rows: vec![-1, 1],
                cols: vec![-1],
            },
            ..TargetSpec::paper()
        };
        assert_eq!(spec.routing_paths(), 3);
        assert!(spec.bus_is_pinned());
        let layout = spec.build_layout(16).unwrap();
        assert_eq!(layout.grid().rows(), 6);
        assert_eq!(layout.grid().cols(), 5);
        assert_eq!(layout.grid().count_kind(CellKind::Data), 16);
    }

    #[test]
    fn factory_bank_matches_spec() {
        let spec = TargetSpec {
            factories: 3,
            ..TargetSpec::paper()
        };
        let layout = spec.build_layout(16).unwrap();
        let bank = spec.factory_bank(&layout);
        assert_eq!(bank.len(), 3);
        assert!(!bank.is_unbounded());
        let unbounded = TargetSpec {
            unbounded_magic: true,
            ..spec
        };
        assert!(unbounded.factory_bank(&layout).is_unbounded());
    }

    #[test]
    fn validation_catches_capability_violations() {
        let spec = TargetSpec::paper();
        assert!(spec.validate(100, 50).is_ok());

        let no_factories = TargetSpec {
            factories: 0,
            ..TargetSpec::paper()
        };
        assert_eq!(no_factories.validate(4, 0), Err(TargetError::NoFactories));
        // Unbounded supply never needs factories (ports default to 1).
        let unbounded = TargetSpec {
            factories: 0,
            unbounded_magic: true,
            ..TargetSpec::paper()
        };
        assert!(unbounded.validate(4, 10).is_ok());

        let small = TargetSpec {
            capabilities: Capabilities {
                max_qubits: Some(9),
                ..Capabilities::default()
            },
            ..TargetSpec::paper()
        };
        assert_eq!(
            small.validate(16, 0),
            Err(TargetError::TooManyQubits { qubits: 16, max: 9 })
        );

        let clifford_only = TargetSpec {
            capabilities: Capabilities {
                magic_states: false,
                ..Capabilities::default()
            },
            ..TargetSpec::paper()
        };
        assert!(clifford_only.validate(4, 0).is_ok());
        assert_eq!(
            clifford_only.validate(4, 7),
            Err(TargetError::MagicStatesUnsupported { t_count: 7 })
        );
    }

    /// A factory count past the cap is refused before any bank docks,
    /// bounded supply or not: the bank allocates per factory, so billions
    /// would abort the process. The cap itself is fine.
    #[test]
    fn validation_caps_the_factory_count() {
        for unbounded_magic in [false, true] {
            let spec = |factories| TargetSpec {
                factories,
                unbounded_magic,
                ..TargetSpec::paper()
            };
            assert!(spec(MAX_FACTORIES).validate(4, 10).is_ok());
            assert_eq!(
                spec(4_000_000_000).validate(4, 10),
                Err(TargetError::TooManyFactories {
                    factories: 4_000_000_000,
                    max: MAX_FACTORIES
                })
            );
        }
    }

    /// A qubit count past the cap is refused before any layout is built,
    /// whatever the target's own capacity says. The cap itself is fine.
    #[test]
    fn validation_caps_the_qubit_count() {
        let unlimited = TargetSpec::paper();
        assert!(unlimited.validate(MAX_QUBITS, 10).is_ok());
        for qubits in [MAX_QUBITS + 1, 4_000_000_000] {
            assert_eq!(
                unlimited.validate(qubits, 10),
                Err(TargetError::QubitCapExceeded {
                    qubits: qubits.into(),
                    max: MAX_QUBITS
                })
            );
        }
        let roomy = TargetSpec {
            capabilities: Capabilities {
                max_qubits: Some(u32::MAX),
                ..Capabilities::default()
            },
            ..TargetSpec::paper()
        };
        assert!(matches!(
            roomy.validate(4_000_000_000, 0),
            Err(TargetError::QubitCapExceeded { .. })
        ));
    }

    #[test]
    fn target_error_messages() {
        assert!(TargetError::NoFactories
            .to_string()
            .contains("no factories"));
        let e = TargetError::TooManyQubits { qubits: 16, max: 9 };
        assert!(e.to_string().contains("16") && e.to_string().contains("9"));
        let e = TargetError::MagicStatesUnsupported { t_count: 3 };
        assert!(e.to_string().contains("Clifford-only"));
        let e = TargetError::TooManyFactories {
            factories: 5000,
            max: MAX_FACTORIES,
        };
        assert!(e.to_string().contains("5000 factories"));
        let e = TargetError::QubitCapExceeded {
            qubits: 4_000_000_000,
            max: MAX_QUBITS,
        };
        assert!(e
            .to_string()
            .contains("4000000000 data qubits but at most 4096 are supported"));
    }

    #[test]
    fn registry_lookup_and_replacement() {
        let registry = TargetRegistry::builtin();
        assert_eq!(registry.names(), vec!["paper", "sparse", "fast-d"]);
        assert_eq!(registry.get("paper"), Some(&TargetSpec::paper()));
        assert_eq!(registry.get("sparse"), Some(&TargetSpec::sparse()));
        assert_eq!(registry.get("fast-d"), Some(&TargetSpec::fast_d()));
        assert_eq!(registry.get("nope"), None);

        let mut registry = registry;
        let custom = TargetSpec {
            factories: 4,
            ..TargetSpec::paper()
        };
        registry.register("lab", "our lab machine", custom.clone());
        assert_eq!(registry.get("lab"), Some(&custom));
        assert_eq!(registry.entries().len(), 4);
        // Re-registering replaces in place, preserving order.
        registry.register("lab", "updated", TargetSpec::sparse());
        assert_eq!(registry.get("lab"), Some(&TargetSpec::sparse()));
        assert_eq!(registry.entries().len(), 4);
        assert_eq!(registry.entries()[3].description, "updated");
    }
}
