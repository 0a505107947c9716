//! JSON codec for [`CompilerOptions`], [`TargetSpec`] and [`Metrics`] —
//! the concrete instantiation of `ftqc-service`'s generic wire format.
//!
//! These impls make the compiler's types usable as the `O` / `M`
//! parameters of `ftqc_service::BatchService` and as payloads of the
//! file-backed compile-cache tier. Encoding choices:
//!
//! * Durations travel as **raw ticks** (`u64`, 1 tick = 0.5 d): exact, and
//!   canonical for fingerprinting.
//! * Enum knobs travel as lowercase strings (`"snake"`, `"spread"`, …),
//!   matching the CLI's flag values.
//! * `CompilerOptions::from_json` treats every missing field as its
//!   default, so a jobs.jsonl line only names the knobs it changes —
//!   `{"routing_paths": 6, "factories": 2}` is a complete options object.
//! * The machine half of the options (now [`CompilerOptions::target`])
//!   keeps rendering as the **flat legacy fields** (`routing_paths`,
//!   `factories`, `timing`, `port_placement`, `unbounded_magic`); only
//!   what the legacy fields cannot express — explicit bus masks,
//!   non-default capability flags — is appended under a `"target"` key.
//!   A legacy-expressible target therefore renders byte-identically to
//!   the pre-target codec, keeping every existing fingerprint and cache
//!   file valid.

use crate::metrics::Metrics;
use crate::options::{CompilerOptions, TStatePolicy};
use crate::MappingStrategy;
use ftqc_arch::{BusSpec, Capabilities, PortPlacement, TargetSpec, Ticks, TimingModel};
use ftqc_service::json::{self, FromJson, JsonError, ToJson, Value};
use ftqc_service::{fingerprint, CacheStats};

fn num(v: u64) -> Value {
    Value::Num(v as f64)
}

fn ticks_field(value: &Value, key: &str, default: Ticks) -> Result<Ticks, JsonError> {
    match value.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .map(Ticks)
            .ok_or_else(|| JsonError::schema(format!("field {key:?} must be raw ticks"))),
    }
}

fn u32_field(value: &Value, key: &str, default: u32) -> Result<u32, JsonError> {
    match value.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| JsonError::schema(format!("field {key:?} must be a u32"))),
    }
}

fn bool_field(value: &Value, key: &str, default: bool) -> Result<bool, JsonError> {
    match value.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| JsonError::schema(format!("field {key:?} must be a boolean"))),
    }
}

/// Canonical JSON rendering of a timing model — shared by the options
/// codec and the session's schedule-stage fingerprint.
pub(crate) fn timing_to_json(t: &TimingModel) -> Value {
    Value::Obj(vec![
        ("move_op".into(), num(t.move_op.raw())),
        ("merge".into(), num(t.merge.raw())),
        ("cnot".into(), num(t.cnot.raw())),
        ("hadamard".into(), num(t.hadamard.raw())),
        ("phase".into(), num(t.phase.raw())),
        ("t_consume".into(), num(t.t_consume.raw())),
        ("measure".into(), num(t.measure.raw())),
        ("magic_production".into(), num(t.magic_production.raw())),
        ("ppr_compact".into(), num(t.ppr_compact.raw())),
        ("ppr_fast".into(), num(t.ppr_fast.raw())),
        ("unit".into(), num(t.unit.raw())),
    ])
}

fn timing_from_json(t: &Value, defaults: &TimingModel) -> Result<TimingModel, JsonError> {
    Ok(TimingModel {
        move_op: ticks_field(t, "move_op", defaults.move_op)?,
        merge: ticks_field(t, "merge", defaults.merge)?,
        cnot: ticks_field(t, "cnot", defaults.cnot)?,
        hadamard: ticks_field(t, "hadamard", defaults.hadamard)?,
        phase: ticks_field(t, "phase", defaults.phase)?,
        t_consume: ticks_field(t, "t_consume", defaults.t_consume)?,
        measure: ticks_field(t, "measure", defaults.measure)?,
        magic_production: ticks_field(t, "magic_production", defaults.magic_production)?,
        ppr_compact: ticks_field(t, "ppr_compact", defaults.ppr_compact)?,
        ppr_fast: ticks_field(t, "ppr_fast", defaults.ppr_fast)?,
        unit: ticks_field(t, "unit", defaults.unit)?,
    })
}

fn port_placement_str(p: PortPlacement) -> &'static str {
    match p {
        PortPlacement::Spread => "spread",
        PortPlacement::Clustered => "clustered",
    }
}

fn port_placement_from(value: &Value, default: PortPlacement) -> Result<PortPlacement, JsonError> {
    match value.get("port_placement") {
        None => Ok(default),
        Some(p) => match p.as_str() {
            Some("spread") => Ok(PortPlacement::Spread),
            Some("clustered") => Ok(PortPlacement::Clustered),
            _ => Err(JsonError::schema(
                "port_placement must be \"spread\" or \"clustered\"",
            )),
        },
    }
}

/// Renders a gap list verbatim (positions may be `-1`). Callers hand in
/// gaps from [`BusSpec::canonical`], so equivalent masks render — and
/// therefore digest — identically however they were constructed.
fn gaps_to_json(gaps: &[i32]) -> Value {
    Value::Arr(gaps.iter().map(|g| Value::Num(f64::from(*g))).collect())
}

fn gaps_from_json(value: &Value, key: &str) -> Result<Vec<i32>, JsonError> {
    let items = value
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| JsonError::schema(format!("bus mask needs an array {key:?}")))?;
    items
        .iter()
        .map(|item| {
            let n = item
                .as_f64()
                .filter(|n| n.fract() == 0.0 && (-1e9..=1e9).contains(n))
                .ok_or_else(|| {
                    JsonError::schema(format!("{key:?} entries must be integer gap positions"))
                })?;
            Ok(n as i32)
        })
        .collect()
}

/// Decodes a `"bus"` mask object into the canonical explicit form — the
/// one place the wire meets [`BusSpec::canonical`], so the
/// sorted/deduplicated rule lives in `ftqc_arch` alone.
fn bus_from_json(bus: &Value) -> Result<BusSpec, JsonError> {
    Ok(BusSpec::Explicit {
        rows: gaps_from_json(bus, "rows")?,
        cols: gaps_from_json(bus, "cols")?,
    }
    .canonical())
}

/// The extension object covering what the flat legacy fields cannot say:
/// explicit bus masks and non-default capability flags. `None` when the
/// target is fully legacy-expressible — the codec then omits the
/// `"target"` key and the rendering (hence the fingerprint) is identical
/// to the pre-target format.
fn target_extension(spec: &TargetSpec) -> Option<Value> {
    if matches!(spec.bus, BusSpec::RoutingPaths(_)) && spec.capabilities.is_default() {
        return None;
    }
    let mut fields = Vec::new();
    if let BusSpec::Explicit { rows, cols } = spec.bus.canonical() {
        fields.push((
            "bus".to_string(),
            Value::Obj(vec![
                ("rows".into(), gaps_to_json(&rows)),
                ("cols".into(), gaps_to_json(&cols)),
            ]),
        ));
    }
    let caps = spec.capabilities;
    if let Some(max) = caps.max_qubits {
        fields.push(("max_qubits".into(), num(u64::from(max))));
    }
    if !caps.magic_states {
        fields.push(("magic_states".into(), Value::Bool(false)));
    }
    if caps.fixed_bus {
        fields.push(("fixed_bus".into(), Value::Bool(true)));
    }
    if fields.is_empty() {
        None
    } else {
        Some(Value::Obj(fields))
    }
}

/// Applies a `"target"` extension object over an already-decoded spec.
fn apply_target_extension(spec: &mut TargetSpec, ext: &Value) -> Result<(), JsonError> {
    if ext.as_obj().is_none() {
        return Err(JsonError::schema("\"target\" must be a JSON object"));
    }
    if let Some(bus) = ext.get("bus") {
        spec.bus = bus_from_json(bus)?;
    }
    if let Some(max) = ext.get("max_qubits") {
        let max = max
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| JsonError::schema("\"max_qubits\" must be a u32"))?;
        spec.capabilities.max_qubits = Some(max);
    }
    spec.capabilities.magic_states =
        bool_field(ext, "magic_states", spec.capabilities.magic_states)?;
    spec.capabilities.fixed_bus = bool_field(ext, "fixed_bus", spec.capabilities.fixed_bus)?;
    Ok(())
}

/// Canonical standalone rendering of a [`TargetSpec`] — the document
/// `GET /v1/targets` serves, `ftqc targets show` prints, and inline job
/// targets decode from. The rendering is canonical (fixed field order,
/// defaults always materialised except `bus`/`max_qubits`, which appear
/// iff set), so [`target_digest`] is stable across field order and
/// default omission on the way in.
pub fn target_to_json(spec: &TargetSpec) -> Value {
    let mut fields = vec![(
        "routing_paths".to_string(),
        num(u64::from(spec.routing_paths())),
    )];
    if let BusSpec::Explicit { rows, cols } = spec.bus.canonical() {
        fields.push((
            "bus".into(),
            Value::Obj(vec![
                ("rows".into(), gaps_to_json(&rows)),
                ("cols".into(), gaps_to_json(&cols)),
            ]),
        ));
    }
    fields.push(("factories".into(), num(u64::from(spec.factories))));
    fields.push(("timing".into(), timing_to_json(&spec.timing)));
    fields.push((
        "port_placement".into(),
        Value::Str(port_placement_str(spec.port_placement).into()),
    ));
    fields.push(("unbounded_magic".into(), Value::Bool(spec.unbounded_magic)));
    if let Some(max) = spec.capabilities.max_qubits {
        fields.push(("max_qubits".into(), num(u64::from(max))));
    }
    fields.push((
        "magic_states".into(),
        Value::Bool(spec.capabilities.magic_states),
    ));
    fields.push(("fixed_bus".into(), Value::Bool(spec.capabilities.fixed_bus)));
    Value::Obj(fields)
}

/// Decodes a standalone target document. Missing fields default to the
/// paper machine, so `{"routing_paths": 2}` is a complete spec; a
/// `"bus"` object (explicit mask) wins over `"routing_paths"`.
///
/// # Errors
///
/// A schema error naming the offending field.
pub fn target_from_json(value: &Value) -> Result<TargetSpec, JsonError> {
    if value.as_obj().is_none() {
        return Err(JsonError::schema("target spec must be a JSON object"));
    }
    let defaults = TargetSpec::paper();
    let bus = match value.get("bus") {
        Some(bus) => bus_from_json(bus)?,
        None => BusSpec::RoutingPaths(u32_field(value, "routing_paths", defaults.routing_paths())?),
    };
    let timing = match value.get("timing") {
        None => defaults.timing,
        Some(t) => timing_from_json(t, &defaults.timing)?,
    };
    let max_qubits = match value.get("max_qubits") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| JsonError::schema("\"max_qubits\" must be a u32"))?,
        ),
    };
    Ok(TargetSpec {
        bus,
        factories: u32_field(value, "factories", defaults.factories)?,
        timing,
        port_placement: port_placement_from(value, defaults.port_placement)?,
        unbounded_magic: bool_field(value, "unbounded_magic", defaults.unbounded_magic)?,
        capabilities: Capabilities {
            max_qubits,
            magic_states: bool_field(value, "magic_states", true)?,
            fixed_bus: bool_field(value, "fixed_bus", false)?,
        },
    })
}

/// The canonical 64-bit digest of a target: the fingerprint of its
/// canonical rendering. Two specs digest equally iff they describe the
/// same machine, regardless of how their JSON arrived (field order,
/// omitted defaults).
pub fn target_digest(spec: &TargetSpec) -> u64 {
    fingerprint::fingerprint_value(&target_to_json(spec))
}

impl ToJson for CompilerOptions {
    fn to_json(&self) -> Value {
        let target = &self.target;
        let timing = timing_to_json(&target.timing);
        let mapping = match self.mapping {
            MappingStrategy::RowMajor => "row-major",
            MappingStrategy::Snake => "snake",
            MappingStrategy::InteractionAware => "interaction",
        };
        let mut doc = Value::Obj(vec![
            (
                "routing_paths".into(),
                num(u64::from(target.routing_paths())),
            ),
            ("factories".into(), num(u64::from(target.factories))),
            ("timing".into(), timing),
            ("penalty_weight".into(), num(self.penalty_weight)),
            ("lookahead".into(), Value::Bool(self.lookahead)),
            (
                "eliminate_redundant_moves".into(),
                Value::Bool(self.eliminate_redundant_moves),
            ),
            ("mapping".into(), Value::Str(mapping.into())),
            (
                "t_state_policy".into(),
                Value::Obj(vec![
                    (
                        "states_per_t".into(),
                        num(u64::from(self.t_state_policy.states_per_t)),
                    ),
                    (
                        "states_per_rz".into(),
                        num(u64::from(self.t_state_policy.states_per_rz)),
                    ),
                ]),
            ),
            ("optimize".into(), Value::Bool(self.optimize)),
            (
                "port_placement".into(),
                Value::Str(port_placement_str(target.port_placement).into()),
            ),
            (
                "unbounded_magic".into(),
                Value::Bool(target.unbounded_magic),
            ),
        ]);
        // Omitted when absent/default: the default rendering (and thus
        // every pre-existing fingerprint and cache file) is unchanged.
        if let Value::Obj(fields) = &mut doc {
            if let Some(st) = &self.schedule_timing {
                fields.push(("schedule_timing".into(), timing_to_json(st)));
            }
            if let Some(ext) = target_extension(target) {
                fields.push(("target".into(), ext));
            }
        }
        doc
    }
}

impl FromJson for CompilerOptions {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        if value.as_obj().is_none() {
            return Err(JsonError::schema("options must be a JSON object"));
        }
        let defaults = CompilerOptions::default();
        let dt = defaults.target.timing;
        let timing = match value.get("timing") {
            None => dt,
            Some(t) => timing_from_json(t, &dt)?,
        };
        // Missing fields of a schedule_timing override default to the
        // *router* timing, so `{"schedule_timing":{"cnot":2}}` means "as
        // routed, but re-time CNOTs at 1d".
        let schedule_timing = match value.get("schedule_timing") {
            None => None,
            Some(t) => Some(timing_from_json(t, &timing)?),
        };
        let mapping = match value.get("mapping") {
            None => defaults.mapping,
            Some(m) => match m.as_str() {
                Some("row-major") => MappingStrategy::RowMajor,
                Some("snake") => MappingStrategy::Snake,
                Some("interaction") => MappingStrategy::InteractionAware,
                _ => {
                    return Err(JsonError::schema(
                        "mapping must be \"snake\", \"row-major\" or \"interaction\"",
                    ))
                }
            },
        };
        let t_state_policy = match value.get("t_state_policy") {
            None => defaults.t_state_policy,
            Some(p) => TStatePolicy {
                states_per_t: u32_field(p, "states_per_t", defaults.t_state_policy.states_per_t)?,
                states_per_rz: u32_field(
                    p,
                    "states_per_rz",
                    defaults.t_state_policy.states_per_rz,
                )?,
            },
        };
        let penalty_weight = match value.get("penalty_weight") {
            None => defaults.penalty_weight,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| JsonError::schema("penalty_weight must be a u64"))?,
        };
        let mut target = TargetSpec {
            bus: BusSpec::RoutingPaths(u32_field(
                value,
                "routing_paths",
                defaults.target.routing_paths(),
            )?),
            factories: u32_field(value, "factories", defaults.target.factories)?,
            timing,
            port_placement: port_placement_from(value, defaults.target.port_placement)?,
            unbounded_magic: bool_field(value, "unbounded_magic", defaults.target.unbounded_magic)?,
            capabilities: Capabilities::default(),
        };
        if let Some(ext) = value.get("target") {
            apply_target_extension(&mut target, ext)?;
        }
        Ok(CompilerOptions {
            target,
            penalty_weight,
            lookahead: bool_field(value, "lookahead", defaults.lookahead)?,
            eliminate_redundant_moves: bool_field(
                value,
                "eliminate_redundant_moves",
                defaults.eliminate_redundant_moves,
            )?,
            mapping,
            t_state_policy,
            optimize: bool_field(value, "optimize", defaults.optimize)?,
            schedule_timing,
        })
    }
}

impl ToJson for crate::session::StageCacheStats {
    fn to_json(&self) -> Value {
        Value::Obj(
            crate::session::Stage::ALL
                .iter()
                .map(|s| (s.name().to_string(), self.for_stage(*s).to_json()))
                .collect(),
        )
    }
}

impl FromJson for crate::session::StageCacheStats {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(crate::session::StageCacheStats {
            prepare: CacheStats::from_json(json::require(value, "prepare")?)?,
            lower: CacheStats::from_json(json::require(value, "lower")?)?,
            map: CacheStats::from_json(json::require(value, "map")?)?,
            schedule: CacheStats::from_json(json::require(value, "schedule")?)?,
        })
    }
}

impl ToJson for Metrics {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("execution_time".into(), num(self.execution_time.raw())),
            ("unit_cost_time".into(), num(self.unit_cost_time.raw())),
            ("lower_bound".into(), num(self.lower_bound.raw())),
            ("grid_patches".into(), num(u64::from(self.grid_patches))),
            (
                "factory_patches".into(),
                num(u64::from(self.factory_patches)),
            ),
            ("routing_paths".into(), num(u64::from(self.routing_paths))),
            ("factories".into(), num(u64::from(self.factories))),
            ("n_gates".into(), num(self.n_gates as u64)),
            ("n_surgery_ops".into(), num(self.n_surgery_ops as u64)),
            ("n_moves".into(), num(self.n_moves as u64)),
            (
                "n_moves_eliminated".into(),
                num(self.n_moves_eliminated as u64),
            ),
            ("n_magic_states".into(), num(self.n_magic_states)),
            ("route".into(), route_counters_to_json(&self.route)),
        ])
    }
}

/// Renders [`ftqc_route::RouteCounters`] as a canonical JSON object (the
/// `"route"` member of the metrics document and of `/v1/cache/stats`).
pub fn route_counters_to_json(c: &ftqc_route::RouteCounters) -> Value {
    Value::Obj(vec![("arena_reuses".into(), num(c.arena_reuses))])
}

/// Decodes the object written by [`route_counters_to_json`]. Documents
/// written while the router kept a path table also carry `table_*`
/// counters; they are ignored.
///
/// # Errors
///
/// [`JsonError`] when `arena_reuses` is missing or not a `u64`.
pub fn route_counters_from_json(value: &Value) -> Result<ftqc_route::RouteCounters, JsonError> {
    Ok(ftqc_route::RouteCounters {
        arena_reuses: json::require_u64(value, "arena_reuses")?,
    })
}

impl FromJson for Metrics {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let u32_of = |key: &str| -> Result<u32, JsonError> {
            json::require_u64(value, key).and_then(|n| {
                u32::try_from(n).map_err(|_| JsonError::schema(format!("{key} overflows u32")))
            })
        };
        Ok(Metrics {
            execution_time: Ticks(json::require_u64(value, "execution_time")?),
            unit_cost_time: Ticks(json::require_u64(value, "unit_cost_time")?),
            lower_bound: Ticks(json::require_u64(value, "lower_bound")?),
            grid_patches: u32_of("grid_patches")?,
            factory_patches: u32_of("factory_patches")?,
            routing_paths: u32_of("routing_paths")?,
            factories: u32_of("factories")?,
            n_gates: json::require_u64(value, "n_gates")? as usize,
            n_surgery_ops: json::require_u64(value, "n_surgery_ops")? as usize,
            n_moves: json::require_u64(value, "n_moves")? as usize,
            n_moves_eliminated: json::require_u64(value, "n_moves_eliminated")? as usize,
            n_magic_states: json::require_u64(value, "n_magic_states")?,
            // Absent in documents written before the incremental router
            // (old cache files, older peers): default counters.
            route: match value.get("route") {
                None => ftqc_route::RouteCounters::default(),
                Some(v) => route_counters_from_json(v)?,
            },
        })
    }
}

impl ToJson for crate::DesignPoint {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("routing_paths".into(), num(u64::from(self.routing_paths))),
            ("factories".into(), num(u64::from(self.factories))),
            ("metrics".into(), self.metrics.to_json()),
        ])
    }
}

impl FromJson for crate::DesignPoint {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let u32_of = |key: &str| -> Result<u32, JsonError> {
            json::require_u64(value, key).and_then(|n| {
                u32::try_from(n).map_err(|_| JsonError::schema(format!("{key} overflows u32")))
            })
        };
        Ok(crate::DesignPoint {
            routing_paths: u32_of("routing_paths")?,
            factories: u32_of("factories")?,
            metrics: Metrics::from_json(json::require(value, "metrics")?)?,
        })
    }
}

impl ToJson for crate::TargetSweep {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("target".into(), Value::Str(self.name.clone())),
            (
                "digest".into(),
                Value::Str(fingerprint::to_hex(self.digest)),
            ),
            (
                "points".into(),
                Value::Arr(self.points.iter().map(ToJson::to_json).collect()),
            ),
            (
                "front".into(),
                Value::Arr(self.front.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for crate::TargetSweep {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let points_of = |key: &str| -> Result<Vec<crate::DesignPoint>, JsonError> {
            json::require(value, key)?
                .as_arr()
                .ok_or_else(|| JsonError::schema(format!("{key:?} must be an array")))?
                .iter()
                .map(crate::DesignPoint::from_json)
                .collect()
        };
        Ok(crate::TargetSweep {
            name: json::require_str(value, "target")?.to_string(),
            digest: fingerprint::from_hex(json::require_str(value, "digest")?)
                .ok_or_else(|| JsonError::schema("\"digest\" must be 16 hex digits"))?,
            points: points_of("points")?,
            front: points_of("front")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_service::fingerprint::fingerprint_value;

    #[test]
    fn options_roundtrip() {
        let o = CompilerOptions::default()
            .routing_paths(7)
            .factories(3)
            .penalty_weight(2)
            .lookahead(false)
            .mapping(MappingStrategy::InteractionAware)
            .port_placement(PortPlacement::Clustered)
            .magic_production(Ticks::from_d(5.0))
            .unbounded_magic(true);
        let back = CompilerOptions::from_json(&o.to_json()).unwrap();
        assert_eq!(back, o);
    }

    #[test]
    fn sparse_options_fill_defaults() {
        let v = Value::parse(r#"{"routing_paths":6,"factories":2}"#).unwrap();
        let o = CompilerOptions::from_json(&v).unwrap();
        assert_eq!(o.target.routing_paths(), 6);
        assert_eq!(o.target.factories, 2);
        assert_eq!(o.target.timing, TimingModel::paper());
        assert!(o.lookahead);
        let empty = CompilerOptions::from_json(&Value::parse("{}").unwrap()).unwrap();
        assert_eq!(empty, CompilerOptions::default());
    }

    #[test]
    fn legacy_rendering_is_byte_stable() {
        // The default options must render exactly as the pre-target codec
        // did — this pins every existing fingerprint and cache file.
        let rendered = CompilerOptions::default().to_json().render();
        assert_eq!(
            rendered,
            "{\"routing_paths\":4,\"factories\":1,\"timing\":{\"move_op\":2,\"merge\":2,\
             \"cnot\":4,\"hadamard\":6,\"phase\":3,\"t_consume\":5,\"measure\":2,\
             \"magic_production\":22,\"ppr_compact\":8,\"ppr_fast\":6,\"unit\":2},\
             \"penalty_weight\":5,\"lookahead\":true,\"eliminate_redundant_moves\":true,\
             \"mapping\":\"snake\",\"t_state_policy\":{\"states_per_t\":1,\"states_per_rz\":1},\
             \"optimize\":false,\"port_placement\":\"spread\",\"unbounded_magic\":false}"
        );
        // Fingerprints pinned before the target redesign.
        assert_eq!(
            fingerprint_value(&CompilerOptions::default().to_json()),
            0x6854_2c0e_d2b8_e030
        );
        let variant = CompilerOptions::default()
            .routing_paths(2)
            .factories(2)
            .port_placement(PortPlacement::Clustered);
        assert_eq!(fingerprint_value(&variant.to_json()), 0x8986_9481_7a9c_3b7f);
        // Legacy-expressible targets never emit the extension key.
        assert!(!rendered.contains("\"target\""));
    }

    #[test]
    fn target_extension_roundtrips() {
        let o = CompilerOptions::default().target(TargetSpec {
            bus: BusSpec::Explicit {
                rows: vec![-1, 1],
                cols: vec![-1],
            },
            capabilities: Capabilities {
                max_qubits: Some(64),
                magic_states: false,
                fixed_bus: true,
            },
            ..TargetSpec::paper()
        });
        let rendered = o.to_json().render();
        assert!(rendered.contains("\"target\""), "got {rendered}");
        assert!(rendered.contains("\"rows\":[-1,1]"), "got {rendered}");
        let back = CompilerOptions::from_json(&o.to_json()).unwrap();
        assert_eq!(back, o);

        // The sparse preset (pinned r=2, clustered) renders its flag.
        let o = CompilerOptions::default().target(TargetSpec::sparse());
        let rendered = o.to_json().render();
        assert!(rendered.contains("\"fixed_bus\":true"), "got {rendered}");
        assert_eq!(CompilerOptions::from_json(&o.to_json()).unwrap(), o);
    }

    #[test]
    fn standalone_target_codec_roundtrips() {
        for spec in [
            TargetSpec::paper(),
            TargetSpec::sparse(),
            TargetSpec::fast_d(),
            TargetSpec {
                bus: BusSpec::Explicit {
                    rows: vec![-1],
                    cols: vec![-1, 2],
                },
                factories: 3,
                unbounded_magic: true,
                capabilities: Capabilities {
                    max_qubits: Some(32),
                    magic_states: true,
                    fixed_bus: false,
                },
                ..TargetSpec::paper()
            },
        ] {
            let back = target_from_json(&target_to_json(&spec)).unwrap();
            assert_eq!(back, spec);
            assert_eq!(target_digest(&back), target_digest(&spec));
        }
    }

    #[test]
    fn equivalent_masks_digest_identically() {
        // Duplicate/unsorted gap lists describe the machine the layout
        // actually builds; they must not split the cache.
        let messy = TargetSpec {
            bus: BusSpec::Explicit {
                rows: vec![3, -1, -1],
                cols: vec![1, 1],
            },
            ..TargetSpec::paper()
        };
        let clean = TargetSpec {
            bus: BusSpec::Explicit {
                rows: vec![-1, 3],
                cols: vec![1],
            },
            ..TargetSpec::paper()
        };
        assert_eq!(target_digest(&messy), target_digest(&clean));
        assert_eq!(
            target_to_json(&messy).render(),
            target_to_json(&clean).render()
        );
        // Decoding canonicalises too.
        let back = target_from_json(&target_to_json(&messy)).unwrap();
        assert_eq!(back.bus, clean.bus);
        assert_eq!(messy.routing_paths(), 3);
    }

    #[test]
    fn target_digest_stable_across_omission_and_order() {
        // A partial document and the canonical full form digest equally.
        let partial = Value::parse(r#"{"routing_paths":2}"#).unwrap();
        let full = target_to_json(&TargetSpec {
            bus: BusSpec::RoutingPaths(2),
            ..TargetSpec::paper()
        });
        assert_eq!(
            target_digest(&target_from_json(&partial).unwrap()),
            fingerprint_value(&full)
        );
        // Field order on the way in does not matter.
        let shuffled =
            Value::parse(r#"{"factories":2,"routing_paths":3,"unbounded_magic":false}"#).unwrap();
        let ordered =
            Value::parse(r#"{"routing_paths":3,"unbounded_magic":false,"factories":2}"#).unwrap();
        assert_eq!(
            target_digest(&target_from_json(&shuffled).unwrap()),
            target_digest(&target_from_json(&ordered).unwrap())
        );
        // Distinct machines digest differently.
        assert_ne!(
            target_digest(&TargetSpec::paper()),
            target_digest(&TargetSpec::sparse())
        );
        assert_ne!(
            target_digest(&TargetSpec::paper()),
            target_digest(&TargetSpec::fast_d())
        );
    }

    #[test]
    fn bad_target_documents_rejected() {
        for text in [
            r#"{"bus":{"rows":"x","cols":[]}}"#,
            r#"{"bus":{"rows":[0.5],"cols":[]}}"#,
            r#"{"bus":{"cols":[]}}"#,
            r#"{"max_qubits":"many"}"#,
            r#"{"port_placement":"banana"}"#,
            r#"3"#,
        ] {
            let v = Value::parse(text).unwrap();
            assert!(target_from_json(&v).is_err(), "accepted {text}");
        }
        let v = Value::parse(r#"{"target":3}"#).unwrap();
        assert!(CompilerOptions::from_json(&v).is_err());
    }

    #[test]
    fn schedule_timing_roundtrip_and_defaults() {
        let o = CompilerOptions::default().schedule_timing(TimingModel {
            cnot: Ticks::from_d(1.0),
            ..TimingModel::paper()
        });
        let rendered = o.to_json();
        let back = CompilerOptions::from_json(&rendered).unwrap();
        assert_eq!(back, o);
        // None is omitted from the rendering, keeping old fingerprints.
        let plain = CompilerOptions::default().to_json().render();
        assert!(!plain.contains("schedule_timing"));
        // Sparse overrides inherit the router timing's other latencies.
        let v = Value::parse(r#"{"timing":{"cnot":8},"schedule_timing":{"move_op":6}}"#).unwrap();
        let o = CompilerOptions::from_json(&v).unwrap();
        let st = o.schedule_timing.unwrap();
        assert_eq!(st.move_op, Ticks(6));
        assert_eq!(st.cnot, Ticks(8), "inherits the router's cnot latency");
    }

    #[test]
    fn stage_cache_stats_roundtrip() {
        use crate::session::{StageCache, StageCacheStats};
        let cache = StageCache::new(4);
        let stats = cache.stats();
        let back = StageCacheStats::from_json(&stats.to_json()).unwrap();
        assert_eq!(back, stats);
        let rendered = stats.to_json().render();
        for name in ["prepare", "lower", "map", "schedule"] {
            assert!(rendered.contains(name), "missing {name} in {rendered}");
        }
    }

    #[test]
    fn bad_enum_values_rejected() {
        let v = Value::parse(r#"{"mapping":"banana"}"#).unwrap();
        assert!(CompilerOptions::from_json(&v).is_err());
        let v = Value::parse(r#"{"port_placement":"banana"}"#).unwrap();
        assert!(CompilerOptions::from_json(&v).is_err());
        assert!(CompilerOptions::from_json(&Value::Num(3.0)).is_err());
    }

    #[test]
    fn metrics_roundtrip() {
        let m = Metrics {
            execution_time: Ticks::from_d(120.0),
            unit_cost_time: Ticks::from_d(110.0),
            lower_bound: Ticks::from_d(100.0),
            grid_patches: 144,
            factory_patches: 11,
            routing_paths: 4,
            factories: 1,
            n_gates: 60,
            n_surgery_ops: 150,
            n_moves: 40,
            n_moves_eliminated: 6,
            n_magic_states: 10,
            route: ftqc_route::RouteCounters { arena_reuses: 99 },
        };
        let back = Metrics::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);

        // Documents written before the incremental router carry no
        // "route" object: they decode with default counters.
        let mut legacy = m.to_json();
        if let Value::Obj(fields) = &mut legacy {
            fields.retain(|(k, _)| k != "route");
        }
        let back = Metrics::from_json(&legacy).unwrap();
        assert_eq!(back.route, ftqc_route::RouteCounters::default());
        assert_eq!(back.n_moves, m.n_moves);
    }

    #[test]
    fn metrics_decode_route_objects_old_and_new() {
        let with_route = |route: &str| {
            Value::parse(&format!(
                "{{\"execution_time\":1200,\"unit_cost_time\":1100,\"lower_bound\":1000,\
                 \"grid_patches\":144,\"factory_patches\":11,\"routing_paths\":4,\
                 \"factories\":1,\"n_gates\":60,\"n_surgery_ops\":150,\"n_moves\":40,\
                 \"n_moves_eliminated\":6,\"n_magic_states\":10,\"route\":{route}}}"
            ))
            .unwrap()
        };
        // Written while the router kept a path table (stage-cache files,
        // stored JSONL results): the table counters are ignored.
        let old = with_route(
            "{\"arena_reuses\":1064,\"table_hits\":0,\"table_misses\":554,\
             \"table_invalidations\":4,\"table_invalidated_by_claim\":4,\
             \"table_flushes\":0}",
        );
        let m = Metrics::from_json(&old).unwrap();
        assert_eq!(m.route, ftqc_route::RouteCounters { arena_reuses: 1064 });
        assert_eq!(m.n_moves, 40);
        // Written now: the route object holds only arena_reuses.
        let new = with_route("{\"arena_reuses\":7}");
        let m = Metrics::from_json(&new).unwrap();
        assert_eq!(m.route, ftqc_route::RouteCounters { arena_reuses: 7 });
        assert_eq!(
            m.to_json().get("route").unwrap().render(),
            "{\"arena_reuses\":7}"
        );
    }

    #[test]
    fn design_point_roundtrip() {
        let p = crate::DesignPoint {
            routing_paths: 4,
            factories: 2,
            metrics: Metrics {
                execution_time: Ticks::from_d(120.0),
                unit_cost_time: Ticks::from_d(110.0),
                lower_bound: Ticks::from_d(100.0),
                grid_patches: 144,
                factory_patches: 11,
                routing_paths: 4,
                factories: 2,
                n_gates: 60,
                n_surgery_ops: 150,
                n_moves: 40,
                n_moves_eliminated: 6,
                n_magic_states: 10,
                route: ftqc_route::RouteCounters::default(),
            },
        };
        let back = crate::DesignPoint::from_json(&p.to_json()).unwrap();
        assert_eq!(back, p);
        assert!(crate::DesignPoint::from_json(&Value::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn metrics_missing_field_is_an_error() {
        let mut v = m_json();
        if let Value::Obj(fields) = &mut v {
            fields.retain(|(k, _)| k != "n_moves");
        }
        assert!(Metrics::from_json(&v).is_err());

        fn m_json() -> Value {
            Metrics {
                execution_time: Ticks(1),
                unit_cost_time: Ticks(1),
                lower_bound: Ticks(1),
                grid_patches: 1,
                factory_patches: 0,
                routing_paths: 2,
                factories: 1,
                n_gates: 1,
                n_surgery_ops: 1,
                n_moves: 0,
                n_moves_eliminated: 0,
                n_magic_states: 0,
                route: ftqc_route::RouteCounters::default(),
            }
            .to_json()
        }
    }

    #[test]
    fn option_fingerprints_distinguish_single_field_changes() {
        let base = CompilerOptions::default();
        let variants = [
            base.clone().routing_paths(5),
            base.clone().factories(2),
            base.clone().penalty_weight(6),
            base.clone().lookahead(false),
            base.clone().eliminate_redundant_moves(false),
            base.clone().mapping(MappingStrategy::RowMajor),
            base.clone().optimize(true),
            base.clone().unbounded_magic(true),
            base.clone().port_placement(PortPlacement::Clustered),
            base.clone().magic_production(Ticks::from_d(9.0)),
            base.clone().t_state_policy(TStatePolicy::synthesis(3)),
            base.clone().target(TargetSpec::sparse()),
            base.clone().target(TargetSpec::fast_d()),
            base.clone().target(TargetSpec {
                bus: BusSpec::Explicit {
                    rows: vec![-1, 3],
                    cols: vec![-1, 3],
                },
                ..TargetSpec::paper()
            }),
        ];
        let base_fp = fingerprint_value(&base.to_json());
        let mut seen = vec![base_fp];
        for v in &variants {
            let fp = fingerprint_value(&v.to_json());
            assert!(
                !seen.contains(&fp),
                "fingerprint collision for variant {v:?}"
            );
            seen.push(fp);
        }
    }
}
