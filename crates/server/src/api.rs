//! Wire types for the sweep endpoint, shared by server, client, and the
//! CLI's `--json` output so there is exactly one schema.
//!
//! A sweep request names a circuit source, the `(routing_paths, factories)`
//! grid, base options, and whether to reduce to the Pareto front:
//!
//! ```json
//! {"source":{"benchmark":"ising","size":2},
//!  "routing_paths":[2,3,4],"factories":[1,2],
//!  "options":{"lookahead":true},"pareto":true}
//! ```
//!
//! The response carries the design points (full metrics each) plus the
//! shared cache's counters and the worker count that served the sweep.
//!
//! # Wire-contract versioning
//!
//! Every top-level JSON document the server emits carries a `"v"` field
//! naming the contract version. The server speaks [`WIRE_VERSION`]
//! (currently 2, which added hardware targets: `GET /v1/targets`, job- and
//! sweep-level `"target"`/`"targets"` fields) and still accepts
//! [`MIN_WIRE_VERSION`] (1). Version negotiation is per request:
//!
//! * A request *may* declare `"v"`. A declared version outside
//!   `1..=2` is rejected with 400 rather than misinterpreted.
//! * A request that declares `"v":1` must not use v2 features — a
//!   `"target"`/`"targets"` field under a declared v1 is a 400.
//! * Responses echo the negotiated version: v1-shaped requests (declared
//!   v1, or no declaration and no v2 features) get `"v":1` documents that
//!   are byte-identical to the pre-target server's; anything using v2
//!   features gets `"v":2`.
//!
//! JSONL streams (`POST /v1/batch`) are versioned per *line* on the
//! request side — a job line may carry `"v"`, and an unsupported version
//! fails that line alone (see `ftqc_service::job::JOB_SCHEMA_VERSION`) —
//! while response lines follow the v1 result schema without a per-line
//! `"v"`. Both sides parse unknown-field-tolerantly, so additive changes
//! (new response fields, new optional request fields such as
//! `stop_after`) do **not** bump the version — only incompatible changes
//! (renamed/retyped fields, changed semantics, new fields that change
//! what gets compiled, like `target`) do. Old clients keep working
//! against new servers and vice versa within a version.
//!
//! The tracing surface is a worked example of the additive rule: the
//! `x-ftqc-trace` request/response header, the `queue_micros` result
//! field (rendered only when nonzero, so v1 result lines stay
//! byte-identical), the `latency`/`stage_latency`/`queue_wait`
//! percentile objects on `GET /v1/cache/stats`, and the new
//! `GET /v1/traces` + `GET /v1/trace/<id>` endpoints all landed without
//! bumping [`WIRE_VERSION`]. A v1 client that ignores unknown fields —
//! as the contract requires — never observes any of them.
//!
//! One removal broke that rule without a bump. Deleting the router's path
//! table removed its five `table_*` counters from every metrics `"route"`
//! object and from the `"router"` object of `GET /v1/cache/stats`, which
//! now carry `arena_reuses` alone. Decoders written before the removal
//! require the table's hit, miss and invalidation counters, so an older
//! client fails to decode a current server's results on the first missing
//! one: upgrade client and server together. Current decoders read
//! `arena_reuses` only and ignore the table counters older servers and
//! stored documents still carry.
//!
//! Deleting the edit sessions' differential recompile removed fields from
//! the `/v1/session*` surface, also without a bump: the edit result's
//! `"delta"` object lost `dirty_from`, `resume_cut` and `full_reason`
//! (its `"kind"` is always `"full"` now), the session snapshot lost its
//! count of differential recompiles (only `full_recompiles` remains), the
//! `"sessions"` object of `GET /v1/cache/stats` lost `differential`, and
//! `/metrics` lost the `ftqc_session_recompiles_total{kind="differential"}`
//! series. No decoder in this workspace reads any of them; a client that
//! did must treat them as absent.

use ftqc_arch::{TargetEntry, TargetSpec};
use ftqc_compiler::{
    target_digest, target_from_json, target_to_json, CompilerOptions, DesignPoint, TargetSweep,
};
use ftqc_service::json::{self, FromJson, JsonError, ToJson, Value};
use ftqc_service::{fingerprint, CacheStats, CircuitSource, TargetRef};

/// The wire-contract version this crate speaks.
pub const WIRE_VERSION: u64 = 2;

/// The oldest wire-contract version this crate still accepts.
pub const MIN_WIRE_VERSION: u64 = 1;

/// Validates a request document's optional `"v"` field: absent is
/// tolerated (the feature set used decides the response version); a
/// declared version must lie in
/// [`MIN_WIRE_VERSION`]`..=`[`WIRE_VERSION`].
///
/// # Errors
///
/// A rendered message naming the unsupported version.
pub fn check_wire_version(doc: &Value) -> Result<(), String> {
    match doc.get("v") {
        None => Ok(()),
        Some(v) => match v.as_u64() {
            Some(n) if (MIN_WIRE_VERSION..=WIRE_VERSION).contains(&n) => Ok(()),
            Some(n) => Err(format!(
                "unsupported wire version {n} (this server speaks v{WIRE_VERSION})"
            )),
            None => Err("\"v\" must be an integer wire version".into()),
        },
    }
}

/// Negotiates the response version for a checked request document: the
/// declared version when one was given, otherwise v2 iff the request uses
/// v2 features (`"target"`/`"targets"`). Rejects v2 features under a
/// declared v1.
///
/// # Errors
///
/// A rendered message when a declared v1 request carries v2 fields.
pub fn negotiate_version(doc: &Value) -> Result<u64, String> {
    let uses_v2 = doc.get("target").is_some() || doc.get("targets").is_some();
    match doc.get("v").and_then(Value::as_u64) {
        Some(1) if uses_v2 => Err(
            "\"target\"/\"targets\" require wire version 2 (declare \"v\":2 or drop \"v\")".into(),
        ),
        Some(v) => Ok(v),
        None => Ok(if uses_v2 {
            WIRE_VERSION
        } else {
            MIN_WIRE_VERSION
        }),
    }
}

/// Stamps a response document with wire version `v` (prepended as the
/// first field). Non-object documents pass through unchanged.
pub fn versioned_as(v: u64, value: Value) -> Value {
    match value {
        Value::Obj(mut fields) => {
            fields.insert(0, ("v".into(), Value::Num(v as f64)));
            Value::Obj(fields)
        }
        other => other,
    }
}

/// [`versioned_as`] at [`MIN_WIRE_VERSION`] — the stamp for v1-shaped
/// exchanges (the pre-target wire format, byte-identical for target-less
/// traffic).
pub fn versioned(value: Value) -> Value {
    versioned_as(MIN_WIRE_VERSION, value)
}

/// One target listed by `GET /v1/targets`: registry metadata plus the
/// canonical spec document and its digest.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetInfo {
    /// The registry name.
    pub name: String,
    /// The registry description.
    pub description: String,
    /// The spec's canonical digest, hex-rendered on the wire.
    pub digest: u64,
    /// The machine descriptor.
    pub spec: TargetSpec,
}

impl TargetInfo {
    /// Builds the wire entry for a registry entry.
    pub fn of_entry(entry: &TargetEntry) -> Self {
        TargetInfo {
            name: entry.name.clone(),
            description: entry.description.clone(),
            digest: target_digest(&entry.spec),
            spec: entry.spec.clone(),
        }
    }
}

impl ToJson for TargetInfo {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("description".into(), Value::Str(self.description.clone())),
            (
                "digest".into(),
                Value::Str(fingerprint::to_hex(self.digest)),
            ),
            ("spec".into(), target_to_json(&self.spec)),
        ])
    }
}

impl FromJson for TargetInfo {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(TargetInfo {
            name: json::require_str(value, "name")?.to_string(),
            description: json::require_str(value, "description")?.to_string(),
            digest: fingerprint::from_hex(json::require_str(value, "digest")?)
                .ok_or_else(|| JsonError::schema("\"digest\" must be 16 hex digits"))?,
            spec: target_from_json(json::require(value, "spec")?)?,
        })
    }
}

/// The `GET /v1/targets` document: every registered target, in
/// registration order.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetsResponse {
    /// The registered targets.
    pub targets: Vec<TargetInfo>,
}

impl ToJson for TargetsResponse {
    fn to_json(&self) -> Value {
        Value::Obj(vec![(
            "targets".into(),
            Value::Arr(self.targets.iter().map(ToJson::to_json).collect()),
        )])
    }
}

impl FromJson for TargetsResponse {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(TargetsResponse {
            targets: json::require(value, "targets")?
                .as_arr()
                .ok_or_else(|| JsonError::schema("\"targets\" must be an array"))?
                .iter()
                .map(TargetInfo::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

/// The cross-target sweep document (`POST /v1/sweep` with `"targets"`):
/// one [`TargetSweep`] per requested target, sharing one cache.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSweepResponse {
    /// One slice per requested target, in request order.
    pub targets: Vec<TargetSweep>,
    /// The shared cache's counters after this sweep.
    pub cache: CacheStats,
    /// Worker threads that served the sweep.
    pub workers: u64,
}

impl ToJson for MultiSweepResponse {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            (
                "targets".into(),
                Value::Arr(self.targets.iter().map(ToJson::to_json).collect()),
            ),
            ("cache".into(), self.cache.to_json()),
            ("workers".into(), Value::Num(self.workers as f64)),
        ])
    }
}

impl FromJson for MultiSweepResponse {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        Ok(MultiSweepResponse {
            targets: json::require(value, "targets")?
                .as_arr()
                .ok_or_else(|| JsonError::schema("\"targets\" must be an array"))?
                .iter()
                .map(TargetSweep::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            cache: CacheStats::from_json(json::require(value, "cache")?)?,
            workers: json::require_u64(value, "workers")?,
        })
    }
}

/// Default routing-path grid when a request omits `"routing_paths"`.
pub const DEFAULT_ROUTING_PATHS: [u32; 7] = [2, 3, 4, 5, 6, 7, 8];
/// Default factory grid when a request omits `"factories"`.
pub const DEFAULT_FACTORIES: [u32; 4] = [1, 2, 3, 4];

/// A design-space sweep over one circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// The circuit to sweep.
    pub source: CircuitSource,
    /// Routing-path counts to visit.
    pub routing_paths: Vec<u32>,
    /// Factory counts to visit.
    pub factories: Vec<u32>,
    /// Base options applied at every grid point (the grid overrides
    /// `routing_paths`/`factories`).
    pub options: CompilerOptions,
    /// Whether to reduce the result to the Pareto front.
    pub pareto: bool,
    /// Hardware targets to sweep across (wire v2). Empty means the
    /// classic single-machine sweep over the options' target; non-empty
    /// switches the response to [`MultiSweepResponse`], one grid (and one
    /// Pareto front) per target, all sharing the server's caches.
    pub targets: Vec<TargetRef>,
}

impl SweepRequest {
    /// A default-grid sweep of `source`.
    pub fn new(source: CircuitSource) -> Self {
        SweepRequest {
            source,
            routing_paths: DEFAULT_ROUTING_PATHS.to_vec(),
            factories: DEFAULT_FACTORIES.to_vec(),
            options: CompilerOptions::default(),
            pareto: false,
            targets: Vec::new(),
        }
    }

    /// Adds a target to sweep across.
    pub fn with_target(mut self, target: TargetRef) -> Self {
        self.targets.push(target);
        self
    }
}

fn u32_list(value: &Value, key: &str, default: &[u32]) -> Result<Vec<u32>, JsonError> {
    match value.get(key) {
        None => Ok(default.to_vec()),
        Some(v) => {
            let items = v
                .as_arr()
                .ok_or_else(|| JsonError::schema(format!("{key:?} must be an array")))?;
            items
                .iter()
                .map(|item| {
                    item.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| {
                            JsonError::schema(format!("{key:?} entries must be small integers"))
                        })
                })
                .collect()
        }
    }
}

impl ToJson for SweepRequest {
    fn to_json(&self) -> Value {
        let mut fields = vec![("source".to_string(), self.source.to_json())];
        if !self.targets.is_empty() {
            // As with target-bearing jobs: declare the version that
            // introduced the field so a v1 consumer refuses loudly.
            fields.insert(0, ("v".to_string(), Value::Num(WIRE_VERSION as f64)));
        }
        fields.push((
            "routing_paths".into(),
            Value::Arr(
                self.routing_paths
                    .iter()
                    .map(|r| Value::Num(f64::from(*r)))
                    .collect(),
            ),
        ));
        fields.push((
            "factories".into(),
            Value::Arr(
                self.factories
                    .iter()
                    .map(|f| Value::Num(f64::from(*f)))
                    .collect(),
            ),
        ));
        fields.push(("options".into(), self.options.to_json()));
        fields.push(("pareto".into(), Value::Bool(self.pareto)));
        if !self.targets.is_empty() {
            fields.push((
                "targets".into(),
                Value::Arr(self.targets.iter().map(ToJson::to_json).collect()),
            ));
        }
        Value::Obj(fields)
    }
}

impl FromJson for SweepRequest {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let source = CircuitSource::from_json(json::require(value, "source")?)?;
        let routing_paths = u32_list(value, "routing_paths", &DEFAULT_ROUTING_PATHS)?;
        let factories = u32_list(value, "factories", &DEFAULT_FACTORIES)?;
        let empty = Value::Obj(Vec::new());
        let options = CompilerOptions::from_json(value.get("options").unwrap_or(&empty))?;
        let pareto = match value.get("pareto") {
            None => false,
            Some(p) => p
                .as_bool()
                .ok_or_else(|| JsonError::schema("\"pareto\" must be a boolean"))?,
        };
        let targets = match value.get("targets") {
            None => Vec::new(),
            Some(t) => t
                .as_arr()
                .ok_or_else(|| JsonError::schema("\"targets\" must be an array"))?
                .iter()
                .map(TargetRef::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(SweepRequest {
            source,
            routing_paths,
            factories,
            options,
            pareto,
            targets,
        })
    }
}

/// The result of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResponse {
    /// The design points, in grid order (or the sorted Pareto front when
    /// the request asked for it).
    pub points: Vec<DesignPoint>,
    /// The shared cache's counters after this sweep.
    pub cache: CacheStats,
    /// Worker threads that served the sweep.
    pub workers: u64,
}

impl ToJson for SweepResponse {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            (
                "points".into(),
                Value::Arr(self.points.iter().map(ToJson::to_json).collect()),
            ),
            ("cache".into(), self.cache.to_json()),
            ("workers".into(), Value::Num(self.workers as f64)),
        ])
    }
}

impl FromJson for SweepResponse {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let points = json::require(value, "points")?
            .as_arr()
            .ok_or_else(|| JsonError::schema("\"points\" must be an array"))?
            .iter()
            .map(DesignPoint::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SweepResponse {
            points,
            cache: CacheStats::from_json(json::require(value, "cache")?)?,
            workers: json::require_u64(value, "workers")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_and_defaults() {
        let req = SweepRequest {
            source: CircuitSource::Benchmark {
                name: "ising".into(),
                size: Some(2),
            },
            routing_paths: vec![2, 4],
            factories: vec![1],
            options: CompilerOptions::default().lookahead(false),
            pareto: true,
            targets: Vec::new(),
        };
        let back = SweepRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(back, req);
        assert!(!req.to_json().render().contains("targets"));

        let sparse = Value::parse(r#"{"source":{"benchmark":"ghz"}}"#).unwrap();
        let req = SweepRequest::from_json(&sparse).unwrap();
        assert_eq!(req.routing_paths, DEFAULT_ROUTING_PATHS.to_vec());
        assert_eq!(req.factories, DEFAULT_FACTORIES.to_vec());
        assert_eq!(req.options, CompilerOptions::default());
        assert!(!req.pareto);
        assert!(req.targets.is_empty());
    }

    #[test]
    fn target_sweep_request_roundtrip() {
        let req = SweepRequest::new(CircuitSource::Benchmark {
            name: "ising".into(),
            size: Some(2),
        })
        .with_target(TargetRef::Named("paper".into()))
        .with_target(TargetRef::Inline(
            Value::parse(r#"{"routing_paths":2}"#).unwrap(),
        ));
        let rendered = req.to_json().render();
        assert!(rendered.contains("\"v\":2"), "got {rendered}");
        assert!(
            rendered.contains("\"targets\":[\"paper\""),
            "got {rendered}"
        );
        let back = SweepRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(back, req);
        let bad = Value::parse(r#"{"source":{"benchmark":"ghz"},"targets":"paper"}"#).unwrap();
        assert!(SweepRequest::from_json(&bad).is_err());
    }

    #[test]
    fn version_negotiation() {
        // Declared versions are echoed; absent picks by feature use.
        let v1 = Value::parse(r#"{"source":{"benchmark":"ghz"}}"#).unwrap();
        assert_eq!(negotiate_version(&v1).unwrap(), 1);
        let v2 = Value::parse(r#"{"v":2,"source":{"benchmark":"ghz"}}"#).unwrap();
        assert_eq!(negotiate_version(&v2).unwrap(), 2);
        let auto = Value::parse(r#"{"source":{"benchmark":"ghz"},"target":"paper"}"#).unwrap();
        assert_eq!(negotiate_version(&auto).unwrap(), 2);
        // v2 features under a declared v1 are refused.
        let clash =
            Value::parse(r#"{"v":1,"source":{"benchmark":"ghz"},"target":"paper"}"#).unwrap();
        let err = negotiate_version(&clash).unwrap_err();
        assert!(err.contains("wire version 2"), "got {err}");
        // Stamps carry the negotiated version.
        let doc = versioned_as(2, Value::Obj(vec![]));
        assert_eq!(doc.get("v").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn targets_response_roundtrip() {
        use ftqc_arch::TargetRegistry;
        let resp = TargetsResponse {
            targets: TargetRegistry::builtin()
                .entries()
                .iter()
                .map(TargetInfo::of_entry)
                .collect(),
        };
        assert_eq!(resp.targets.len(), 3);
        assert_eq!(resp.targets[0].name, "paper");
        assert_eq!(resp.targets[0].digest, target_digest(&TargetSpec::paper()));
        let back = TargetsResponse::from_json(&resp.to_json()).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn multi_sweep_response_roundtrip() {
        let resp = MultiSweepResponse {
            targets: vec![TargetSweep {
                name: "paper".into(),
                digest: target_digest(&TargetSpec::paper()),
                points: Vec::new(),
                front: Vec::new(),
            }],
            cache: CacheStats {
                hits: 1,
                file_hits: 0,
                misses: 2,
                insertions: 2,
                evictions: 0,
            },
            workers: 2,
        };
        let back = MultiSweepResponse::from_json(&resp.to_json()).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn request_shape_errors() {
        for text in [
            r#"{}"#,
            r#"{"source":{"benchmark":"ghz"},"routing_paths":4}"#,
            r#"{"source":{"benchmark":"ghz"},"routing_paths":["x"]}"#,
            r#"{"source":{"benchmark":"ghz"},"pareto":"yes"}"#,
        ] {
            let v = Value::parse(text).unwrap();
            assert!(SweepRequest::from_json(&v).is_err(), "accepted {text}");
        }
    }

    #[test]
    fn wire_version_checks() {
        assert!(check_wire_version(&Value::parse("{}").unwrap()).is_ok());
        assert!(check_wire_version(&Value::parse(r#"{"v":1}"#).unwrap()).is_ok());
        assert!(check_wire_version(&Value::parse(r#"{"v":2}"#).unwrap()).is_ok());
        let err = check_wire_version(&Value::parse(r#"{"v":99}"#).unwrap()).unwrap_err();
        assert!(err.contains("99"), "got {err}");
        assert!(check_wire_version(&Value::parse(r#"{"v":"one"}"#).unwrap()).is_err());

        // The default stamp is the v1 shape — target-less exchanges stay
        // byte-identical to the pre-target server.
        let stamped = versioned(Value::Obj(vec![("x".into(), Value::Num(1.0))]));
        assert_eq!(
            stamped.get("v").and_then(Value::as_u64),
            Some(MIN_WIRE_VERSION)
        );
        // Requests with unknown fields still decode (tolerant parsing).
        let req =
            Value::parse(r#"{"v":1,"source":{"benchmark":"ghz"},"future_knob":true}"#).unwrap();
        assert!(SweepRequest::from_json(&req).is_ok());
    }

    #[test]
    fn response_roundtrip() {
        let resp = SweepResponse {
            points: Vec::new(),
            cache: CacheStats {
                hits: 4,
                file_hits: 0,
                misses: 4,
                insertions: 4,
                evictions: 0,
            },
            workers: 3,
        };
        let back = SweepResponse::from_json(&resp.to_json()).unwrap();
        assert_eq!(back, resp);
    }
}
