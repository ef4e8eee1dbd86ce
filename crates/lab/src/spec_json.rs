//! Campaign specifications on disk.
//!
//! [`spec_to_json`] / [`spec_from_json`] move a [`CampaignSpec`] through
//! the crate's own deterministic [`Json`] emitter/parser (the same one
//! reports use), closing the ROADMAP's "campaign specs loaded from JSON
//! files" item: `comet-lab run spec.json` runs a campaign somebody wrote,
//! versioned, or generated — including `comet-serve` service scenarios
//! with their full tenant mixes.
//!
//! Devices serialize by **registry name** (resolved back through
//! [`device_by_name`](crate::device_by_name)); workloads serialize as full
//! synthetic profiles. Fixed in-memory traces are deliberately not
//! serializable — a spec file describes how to *generate* an experiment,
//! not megabytes of trace data — and are rejected with
//! [`SpecError::Unsupported`].
//!
//! Round trips are exact: `spec_to_json(&spec_from_json(text)?)`
//! re-emits `text` byte-for-byte for any emitted spec (pinned by tests).

use crate::json::{f64_field, field, schema, str_field, u64_field, Json, JsonError, SchemaError};
use crate::registry::{device_by_name, device_names};
use crate::spec::{CampaignSpec, Engine, EnginePoint, WorkloadSource};
use comet_data::PayloadSpec;
use comet_serve::{ArrivalProcess, BatchConfig, ServeSpec, TenantLoad, TenantSpec};
use comet_units::{ByteCount, Time};
use memsim::{AccessPattern, ReplayMode, Scheduler, WorkloadProfile};
use std::fmt;
use std::ops::Bound::{self, Excluded, Included, Unbounded};
use std::ops::RangeBounds;

/// A failure to serialize or reconstruct a campaign spec.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The text is not well-formed JSON.
    Json(JsonError),
    /// The JSON does not have the spec schema.
    Schema(String),
    /// A device name is not in the registry.
    UnknownDevice(String),
    /// The spec holds something that does not serialize (fixed traces).
    Unsupported(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "{e}"),
            SpecError::Schema(m) => write!(f, "spec schema error: {m}"),
            SpecError::UnknownDevice(d) => {
                write!(
                    f,
                    "unknown device '{d}'; registered devices: {}",
                    device_names().join(", ")
                )
            }
            SpecError::Unsupported(m) => write!(f, "unsupported in spec files: {m}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}

impl From<SchemaError> for SpecError {
    fn from(e: SchemaError) -> Self {
        SpecError::Schema(e.0)
    }
}

// --- emission ---------------------------------------------------------------

fn pattern_to_json(p: AccessPattern) -> Json {
    match p {
        AccessPattern::Stream => Json::object([("kind", Json::string("stream"))]),
        AccessPattern::Strided { stride } => Json::object([
            ("kind", Json::string("strided")),
            ("stride", Json::integer(stride)),
        ]),
        AccessPattern::Random => Json::object([("kind", Json::string("random"))]),
        AccessPattern::Clustered { locality } => Json::object([
            ("kind", Json::string("clustered")),
            ("locality", Json::float(locality)),
        ]),
    }
}

fn profile_to_json(p: &WorkloadProfile) -> Json {
    Json::object([
        ("name", Json::string(&p.name)),
        ("read_fraction", Json::float(p.read_fraction)),
        ("footprint_bytes", Json::integer(p.footprint.value())),
        ("pattern", pattern_to_json(p.pattern)),
        ("interarrival_s", Json::float(p.interarrival.as_seconds())),
        ("requests", Json::integer(p.requests as u64)),
        ("line_bytes", Json::integer(p.line_bytes)),
    ])
}

fn scheduler_to_json(s: Scheduler) -> Json {
    match s {
        Scheduler::Fcfs => Json::object([("kind", Json::string("fcfs"))]),
        Scheduler::FrFcfs { window } => Json::object([
            ("kind", Json::string("frfcfs")),
            ("window", Json::integer(window as u64)),
        ]),
    }
}

fn process_to_json(p: ArrivalProcess) -> Json {
    match p {
        ArrivalProcess::Deterministic { rate_rps } => Json::object([
            ("kind", Json::string("deterministic")),
            ("rate_rps", Json::float(rate_rps)),
        ]),
        ArrivalProcess::Poisson { rate_rps } => Json::object([
            ("kind", Json::string("poisson")),
            ("rate_rps", Json::float(rate_rps)),
        ]),
        ArrivalProcess::Bursty { rate_rps, on, off } => Json::object([
            ("kind", Json::string("bursty")),
            ("rate_rps", Json::float(rate_rps)),
            ("on_s", Json::float(on.as_seconds())),
            ("off_s", Json::float(off.as_seconds())),
        ]),
    }
}

fn payload_to_json(p: PayloadSpec) -> Json {
    match p {
        PayloadSpec::Zero => Json::object([("kind", Json::string("zero"))]),
        PayloadSpec::Uniform => Json::object([("kind", Json::string("uniform"))]),
        PayloadSpec::ToggleWords => Json::object([("kind", Json::string("toggle"))]),
        PayloadSpec::SparseUpdate { flip_fraction } => Json::object([
            ("kind", Json::string("sparse")),
            ("flip_fraction", Json::float(flip_fraction)),
        ]),
        PayloadSpec::TransformerWeights { std } => {
            Json::object([("kind", Json::string("weights")), ("std", Json::float(std))])
        }
    }
}

fn tenant_to_json(t: &TenantSpec) -> Json {
    let load = match t.load {
        TenantLoad::Open(process) => Json::object([
            ("kind", Json::string("open")),
            ("process", process_to_json(process)),
        ]),
        TenantLoad::Closed { clients, think } => Json::object([
            ("kind", Json::string("closed")),
            ("clients", Json::integer(clients as u64)),
            ("think_s", Json::float(think.as_seconds())),
        ]),
    };
    Json::object([
        ("name", Json::string(&t.name)),
        ("requests", Json::integer(t.requests as u64)),
        (
            "profile",
            t.profile.as_ref().map_or(Json::Null, profile_to_json),
        ),
        ("payload", t.payload.map_or(Json::Null, payload_to_json)),
        ("load", load),
    ])
}

fn serve_to_json(s: &ServeSpec) -> Json {
    Json::object([
        ("shards", Json::integer(s.shards as u64)),
        ("scheduler", scheduler_to_json(s.scheduler)),
        (
            "batch",
            s.batch.map_or(Json::Null, |b| {
                Json::object([
                    ("window_s", Json::float(b.window.as_seconds())),
                    ("max_writes", Json::integer(b.max_writes as u64)),
                ])
            }),
        ),
        (
            "tenants",
            Json::Array(s.tenants.iter().map(tenant_to_json).collect()),
        ),
    ])
}

fn engine_to_json(e: &EnginePoint) -> Json {
    match &e.engine {
        Engine::Serve(serve) => Json::object([
            ("label", Json::string(&e.label)),
            ("serve", serve_to_json(serve)),
        ]),
        &Engine::Replay { scheduler, replay } => Json::object([
            ("label", Json::string(&e.label)),
            ("scheduler", scheduler_to_json(scheduler)),
            (
                "replay",
                Json::string(match replay {
                    ReplayMode::Paced => "paced",
                    ReplayMode::Saturation => "saturation",
                }),
            ),
        ]),
    }
}

/// Serializes a campaign spec as deterministic, pretty-printed JSON.
///
/// # Errors
///
/// Returns [`SpecError::Unsupported`] if the spec holds fixed in-memory
/// traces (spec files describe generated experiments only).
pub fn spec_to_json(spec: &CampaignSpec) -> Result<String, SpecError> {
    let mut workloads = Vec::new();
    for w in &spec.workloads {
        match w {
            WorkloadSource::Profile(p) => workloads.push(profile_to_json(p)),
            WorkloadSource::Trace { name, .. } => {
                return Err(SpecError::Unsupported(format!(
                    "fixed trace workload '{name}'"
                )))
            }
        }
    }
    let doc = Json::object([
        ("campaign", Json::string(&spec.name)),
        ("seed", Json::integer(spec.seed)),
        ("replicates", Json::integer(spec.replicates as u64)),
        ("normalize_lines", Json::Bool(spec.normalize_lines)),
        (
            "devices",
            Json::Array(
                spec.devices
                    .iter()
                    .map(|d| Json::string(d.device_name()))
                    .collect(),
            ),
        ),
        ("workloads", Json::Array(workloads)),
        (
            "engines",
            Json::Array(spec.engines.iter().map(engine_to_json).collect()),
        ),
    ]);
    let mut text = doc.to_string();
    text.push('\n');
    Ok(text)
}

// --- parsing ----------------------------------------------------------------
//
// Spec files are untrusted input, so every value with an invariant is
// validated here with a SpecError instead of being fed raw into the
// serve/memsim constructors (whose asserts would panic mid-campaign, or —
// for enum variants built directly — silently produce garbage like
// infinite arrival times from a zero rate).

/// The longest duration a spec field may hold: an inter-arrival gap, a
/// think time, a burst's on or off phase, a batch window. Simulated runs
/// span micro- to milliseconds. A DRAM device walks its refresh windows
/// through idle time, so a longer pause costs wall time in proportion (a
/// 100 s think time runs for ~50 s on 2D_DDR3), and one near `f64::MAX`
/// yields times the report cannot represent.
const MAX_DURATION_S: f64 = 1.0;
/// The slowest arrival rate: one request per [`MAX_DURATION_S`].
const MIN_RATE_RPS: f64 = 1.0 / MAX_DURATION_S;

/// A duration that may be zero.
const DURATION: (Bound<f64>, Bound<f64>) = (Included(0.0), Included(MAX_DURATION_S));
/// A duration that must not be zero.
const POSITIVE_DURATION: (Bound<f64>, Bound<f64>) = (Excluded(0.0), Included(MAX_DURATION_S));
/// An arrival rate in requests per second.
const RATE: (Bound<f64>, Bound<f64>) = (Included(MIN_RATE_RPS), Excluded(f64::INFINITY));
/// A fraction that may be zero.
const FRACTION: (Bound<f64>, Bound<f64>) = (Included(0.0), Included(1.0));

/// Reads the number at `key` and accepts it only in `range`, naming the
/// field and the range otherwise.
fn bounded_f64(obj: &Json, key: &str, range: (Bound<f64>, Bound<f64>)) -> Result<f64, SpecError> {
    let v = f64_field(obj, key)?;
    if range.contains(&v) {
        return Ok(v);
    }
    let lo = match range.0 {
        Included(lo) => format!("[{lo:?}"),
        Excluded(lo) => format!("({lo:?}"),
        Unbounded => "(-inf".into(),
    };
    let hi = match range.1 {
        Included(hi) => format!("{hi:?}]"),
        Excluded(hi) => format!("{hi:?})"),
        Unbounded => "inf)".into(),
    };
    Err(schema(format!("'{key}' must be in {lo}, {hi}, got {v:?}")).into())
}

/// A request budget, which must be at least 1: an empty budget would run
/// one request under replay (line normalization floors at one) but none
/// under serve. (A profile embedded in a tenant keeps its `requests`
/// unchecked: serve ignores it, so a profile built in code may leave it
/// at 0 and must still round-trip.)
fn positive_requests(j: &Json, owner: &str) -> Result<usize, SpecError> {
    match u64_field(j, "requests")? {
        0 => Err(schema(format!("{owner}: 'requests' must be at least 1")).into()),
        n => Ok(n as usize),
    }
}

fn pattern_from_json(j: &Json) -> Result<AccessPattern, SpecError> {
    match str_field(j, "kind")?.as_str() {
        "stream" => Ok(AccessPattern::Stream),
        "strided" => Ok(AccessPattern::Strided {
            stride: u64_field(j, "stride")?,
        }),
        "random" => Ok(AccessPattern::Random),
        "clustered" => Ok(AccessPattern::Clustered {
            locality: f64_field(j, "locality")?,
        }),
        other => Err(schema(format!("unknown pattern kind '{other}'")).into()),
    }
}

fn profile_from_json(j: &Json) -> Result<WorkloadProfile, SpecError> {
    let read_fraction = bounded_f64(j, "read_fraction", FRACTION)?;
    let line_bytes = u64_field(j, "line_bytes")?;
    if line_bytes == 0 {
        return Err(schema("'line_bytes' must be at least 1").into());
    }
    let footprint = u64_field(j, "footprint_bytes")?;
    if footprint < line_bytes {
        return Err(schema(format!(
            "'footprint_bytes' ({footprint}) smaller than one line ({line_bytes})"
        ))
        .into());
    }
    Ok(WorkloadProfile {
        name: str_field(j, "name")?,
        read_fraction,
        footprint: ByteCount::new(footprint),
        pattern: pattern_from_json(field(j, "pattern")?)?,
        interarrival: Time::from_seconds(bounded_f64(j, "interarrival_s", DURATION)?),
        requests: u64_field(j, "requests")? as usize,
        line_bytes,
    })
}

fn scheduler_from_json(j: &Json) -> Result<Scheduler, SpecError> {
    match str_field(j, "kind")?.as_str() {
        "fcfs" => Ok(Scheduler::Fcfs),
        "frfcfs" => match u64_field(j, "window")? {
            // A zero window looks at no queue entry, so nothing would
            // ever issue.
            0 => Err(schema("FR-FCFS 'window' must be at least 1").into()),
            window => Ok(Scheduler::FrFcfs {
                window: window as usize,
            }),
        },
        other => Err(schema(format!("unknown scheduler kind '{other}'")).into()),
    }
}

fn process_from_json(j: &Json) -> Result<ArrivalProcess, SpecError> {
    // The validating constructors (not raw variants) keep the crate's
    // documented invariants — positive finite rates, positive burst
    // windows — out of reach of malformed files.
    let rate = || bounded_f64(j, "rate_rps", RATE);
    match str_field(j, "kind")?.as_str() {
        "deterministic" => Ok(ArrivalProcess::deterministic(rate()?)),
        "poisson" => Ok(ArrivalProcess::poisson(rate()?)),
        "bursty" => Ok(ArrivalProcess::bursty(
            rate()?,
            Time::from_seconds(bounded_f64(j, "on_s", POSITIVE_DURATION)?),
            Time::from_seconds(bounded_f64(j, "off_s", DURATION)?),
        )),
        other => Err(schema(format!("unknown arrival process kind '{other}'")).into()),
    }
}

fn payload_from_json(j: &Json) -> Result<PayloadSpec, SpecError> {
    match str_field(j, "kind")?.as_str() {
        "zero" => Ok(PayloadSpec::Zero),
        "uniform" => Ok(PayloadSpec::Uniform),
        "toggle" => Ok(PayloadSpec::ToggleWords),
        "sparse" => Ok(PayloadSpec::SparseUpdate {
            flip_fraction: bounded_f64(j, "flip_fraction", (Excluded(0.0), Included(1.0)))?,
        }),
        "weights" => Ok(PayloadSpec::TransformerWeights {
            std: bounded_f64(j, "std", (Excluded(0.0), Excluded(f64::INFINITY)))?,
        }),
        other => Err(schema(format!(
            "unknown payload kind '{other}' (zero|uniform|toggle|sparse|weights)"
        ))
        .into()),
    }
}

fn tenant_from_json(j: &Json) -> Result<TenantSpec, SpecError> {
    let load_json = field(j, "load")?;
    let load = match str_field(load_json, "kind")?.as_str() {
        "open" => TenantLoad::Open(process_from_json(field(load_json, "process")?)?),
        "closed" => {
            let clients = u64_field(load_json, "clients")? as usize;
            if clients == 0 {
                return Err(schema("'clients' must be at least 1").into());
            }
            TenantLoad::Closed {
                clients,
                think: Time::from_seconds(bounded_f64(load_json, "think_s", DURATION)?),
            }
        }
        other => Err(schema(format!("unknown tenant load kind '{other}'")))?,
    };
    let profile = match field(j, "profile")? {
        Json::Null => None,
        p => Some(profile_from_json(p)?),
    };
    // Absent and null both mean "no payload", so pre-payload spec files
    // keep parsing.
    let payload = match j.get("payload") {
        None | Some(Json::Null) => None,
        Some(p) => Some(payload_from_json(p)?),
    };
    let name = str_field(j, "name")?;
    let requests = positive_requests(j, &format!("tenant '{name}'"))?;
    Ok(TenantSpec {
        name,
        profile,
        load,
        requests,
        payload,
    })
}

fn serve_from_json(j: &Json) -> Result<ServeSpec, SpecError> {
    let batch = match field(j, "batch")? {
        Json::Null => None,
        b => {
            let max_writes = u64_field(b, "max_writes")? as usize;
            if max_writes == 0 {
                return Err(schema("'max_writes' must be at least 1").into());
            }
            Some(BatchConfig::new(
                Time::from_seconds(bounded_f64(b, "window_s", POSITIVE_DURATION)?),
                max_writes,
            ))
        }
    };
    let tenants = field(j, "tenants")?
        .as_array()
        .ok_or_else(|| schema("'tenants' is not an array"))?
        .iter()
        .map(tenant_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    if tenants.is_empty() {
        return Err(schema("a serve engine point needs at least one tenant").into());
    }
    Ok(ServeSpec {
        tenants,
        scheduler: scheduler_from_json(field(j, "scheduler")?)?,
        shards: u64_field(j, "shards")? as usize,
        batch,
    })
}

fn engine_from_json(j: &Json) -> Result<EnginePoint, SpecError> {
    let label = str_field(j, "label")?;
    if let Some(serve) = j.get("serve") {
        return Ok(EnginePoint::serve(label, serve_from_json(serve)?));
    }
    let replay = match str_field(j, "replay")?.as_str() {
        "paced" => ReplayMode::Paced,
        "saturation" => ReplayMode::Saturation,
        other => return Err(schema(format!("unknown replay mode '{other}'")).into()),
    };
    Ok(EnginePoint::new(
        label,
        scheduler_from_json(field(j, "scheduler")?)?,
        replay,
    ))
}

/// Reconstructs a campaign spec from its JSON serialization, resolving
/// device names through the registry.
///
/// # Errors
///
/// Returns [`SpecError`] on malformed JSON, schema mismatch, or a device
/// name the registry does not know.
///
/// # Examples
///
/// ```
/// use comet_lab::{run_campaign, spec_from_json};
///
/// let text = r#"{
///   "campaign": "doc", "seed": 7, "replicates": 1, "normalize_lines": true,
///   "devices": ["2D_DDR3"],
///   "workloads": [{
///     "name": "probe", "read_fraction": 0.8, "footprint_bytes": 8388608,
///     "pattern": {"kind": "random"}, "interarrival_s": 2.0e-9,
///     "requests": 64, "line_bytes": 64
///   }],
///   "engines": [{"label": "frfcfs8-paced",
///                "scheduler": {"kind": "frfcfs", "window": 8},
///                "replay": "paced"}]
/// }"#;
/// let spec = spec_from_json(text)?;
/// assert_eq!(run_campaign(&spec, 1).cells.len(), 1);
/// # Ok::<(), comet_lab::SpecError>(())
/// ```
pub fn spec_from_json(text: &str) -> Result<CampaignSpec, SpecError> {
    let doc = Json::parse(text)?;
    let mut devices = Vec::new();
    for d in field(&doc, "devices")?
        .as_array()
        .ok_or_else(|| schema("'devices' is not an array"))?
    {
        let name = d
            .as_str()
            .ok_or_else(|| schema("device entry is not a string"))?;
        devices.push(device_by_name(name).ok_or_else(|| SpecError::UnknownDevice(name.into()))?);
    }
    let workloads = field(&doc, "workloads")?
        .as_array()
        .ok_or_else(|| schema("'workloads' is not an array"))?
        .iter()
        .map(|w| {
            let profile = profile_from_json(w)?;
            positive_requests(w, &format!("workload '{}'", profile.name))?;
            Ok(WorkloadSource::Profile(profile))
        })
        .collect::<Result<Vec<_>, SpecError>>()?;
    let engines = field(&doc, "engines")?
        .as_array()
        .ok_or_else(|| schema("'engines' is not an array"))?
        .iter()
        .map(engine_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    if devices.is_empty() || workloads.is_empty() || engines.is_empty() {
        return Err(schema("devices, workloads and engines must be non-empty").into());
    }
    let spec = CampaignSpec {
        name: str_field(&doc, "campaign")?,
        seed: u64_field(&doc, "seed")?,
        replicates: u64_field(&doc, "replicates")? as usize,
        normalize_lines: field(&doc, "normalize_lines")?
            .as_bool()
            .ok_or_else(|| schema("'normalize_lines' is not a bool"))?,
        devices,
        workloads,
        engines,
    };
    check_one_shard(&spec)?;
    check_byte_totals_fit(&spec)?;
    if spec.normalize_lines {
        check_footprints_hold_a_line(&spec)?;
    } else {
        check_payload_lines_fit(&spec)?;
    }
    Ok(spec)
}

/// A serve run drives one device: channel sharding was removed, and
/// `"shards"` stays in the schema only as the value 1. [`spec_from_json`]
/// returns the error and [`crate::run_campaign`] panics with it before any
/// cell runs.
pub(crate) fn check_one_shard(spec: &CampaignSpec) -> Result<(), SpecError> {
    for engine in &spec.engines {
        match engine.serve_spec() {
            Some(serve) if serve.shards != 1 => {
                return Err(schema(format!(
                    "serve engine '{}': 'shards' is {}, but channel sharding was removed \
                     and a serve run drives one device; it must be 1",
                    engine.label, serve.shards
                ))
                .into())
            }
            _ => {}
        }
    }
    Ok(())
}

/// A cell's report counts its bytes in bits, so the bytes a cell requests,
/// times 8, must fit in a `u64`. Replay requests `requests × line_bytes` of
/// its workload; serve requests the sum over tenants of `requests ×
/// line_bytes`, each line from the tenant's own profile or else from the
/// cell's workload. Totals are exact in `u128`: a product of a `usize` and a
/// `u64` fits, and a sum stops at the first term past the bound. Line
/// normalization rescales a budget to the same bytes give or take half a
/// device line, so the bound holds with it too, short of a budget within
/// half a line of it (whose bit count then panics rather than wraps).
/// [`spec_from_json`] returns the error, and
/// [`crate::run_campaign`] panics with it before any cell runs, so a spec
/// built in code meets the same bound.
pub(crate) fn check_byte_totals_fit(spec: &CampaignSpec) -> Result<(), SpecError> {
    const MAX_BYTES: u128 = (u64::MAX / 8) as u128;
    let too_many = |owner: String, total: u128| -> Result<(), SpecError> {
        Err(schema(format!(
            "{owner} total {total} bytes; a cell's bit count must fit in 64 bits \
             (at most {MAX_BYTES} bytes)"
        ))
        .into())
    };
    let profiles = spec.workloads.iter().filter_map(|w| match w {
        WorkloadSource::Profile(p) => Some(p),
        WorkloadSource::Trace { .. } => None,
    });
    for w in profiles {
        for engine in &spec.engines {
            let Some(serve) = engine.serve_spec() else {
                let total = w.requests as u128 * w.line_bytes as u128;
                if total > MAX_BYTES {
                    let owner = format!(
                        "workload '{}': {} requests of {} bytes",
                        w.name, w.requests, w.line_bytes
                    );
                    return too_many(owner, total);
                }
                continue;
            };
            let mut total = 0u128;
            for t in &serve.tenants {
                let line = t.profile.as_ref().unwrap_or(w).line_bytes;
                total += t.requests as u128 * line as u128;
                if total > MAX_BYTES {
                    let owner = format!(
                        "serve engine '{}' on workload '{}': the tenants through '{}'",
                        engine.label, w.name, t.name
                    );
                    return too_many(owner, total);
                }
            }
        }
    }
    Ok(())
}

/// Without line normalization each profile keeps its own line, so a
/// payload-carrying tenant must not be shaped by a profile whose lines are
/// wider than a payload holds ([`memsim::MAX_LINE_BYTES`]).
fn check_payload_lines_fit(spec: &CampaignSpec) -> Result<(), SpecError> {
    let tenants = spec
        .engines
        .iter()
        .filter_map(EnginePoint::serve_spec)
        .flat_map(|s| &s.tenants)
        .filter(|t| t.payload.is_some());
    for tenant in tenants {
        let shapes: Vec<(&str, &WorkloadProfile)> = match &tenant.profile {
            Some(p) => vec![("tenant profile", p)],
            None => spec
                .workloads
                .iter()
                .filter_map(|w| match w {
                    WorkloadSource::Profile(p) => Some(("workload", p)),
                    WorkloadSource::Trace { .. } => None,
                })
                .collect(),
        };
        for (owner, p) in shapes {
            if p.line_bytes > memsim::MAX_LINE_BYTES as u64 {
                return Err(schema(format!(
                    "tenant '{}' carries payloads, but its {owner} '{}' has {}-byte lines, \
                     wider than the {}-byte payload capacity",
                    tenant.name,
                    p.name,
                    p.line_bytes,
                    memsim::MAX_LINE_BYTES
                ))
                .into());
            }
        }
    }
    Ok(())
}

/// Line normalization resizes every profile to each device's line, so a
/// profile must hold at least one line of the widest-line device.
fn check_footprints_hold_a_line(spec: &CampaignSpec) -> Result<(), SpecError> {
    // The first of the widest-line devices (`max_by_key` keeps the last).
    let Some((line, device)) = spec
        .devices
        .iter()
        .rev()
        .map(|d| (d.device_topology().line_bytes, d.device_name()))
        .max_by_key(|&(line, _)| line)
    else {
        return Ok(());
    };
    let workload_profiles = spec.workloads.iter().filter_map(|w| match w {
        WorkloadSource::Profile(p) => Some(("workload", p)),
        WorkloadSource::Trace { .. } => None,
    });
    let tenant_profiles = spec
        .engines
        .iter()
        .filter_map(EnginePoint::serve_spec)
        .flat_map(|s| &s.tenants)
        .filter_map(|t| t.profile.as_ref().map(|p| ("tenant profile", p)));
    for (owner, p) in workload_profiles.chain(tenant_profiles) {
        let footprint = p.footprint.value();
        if footprint < line {
            return Err(schema(format!(
                "{owner} '{}': 'footprint_bytes' ({footprint}) is smaller than one {line}-byte \
                 line of device '{device}', the line normalize_lines resizes it to",
                p.name
            ))
            .into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{device_names, payload_entropy_axis, serve_load_axis, workloads_by_name};
    use crate::runner::run_campaign;
    use dota::TransformerWorkload;

    /// The service scenarios of a spec's serve points.
    fn serve_specs(spec: &mut CampaignSpec) -> impl Iterator<Item = &mut ServeSpec> {
        spec.engines.iter_mut().filter_map(|e| match &mut e.engine {
            Engine::Serve(serve) => Some(serve),
            Engine::Replay { .. } => None,
        })
    }

    /// A closed-loop point per client count.
    fn closed_loop_points(clients: &[usize], think: Time, requests: usize) -> Vec<EnginePoint> {
        clients
            .iter()
            .map(|&n| {
                let serve = ServeSpec::closed_loop(n, think, requests);
                EnginePoint::serve(format!("serve-closed-{n}"), serve)
            })
            .collect()
    }

    /// The cell's workload alone, and the same stream sharing the memory
    /// with a DOTA DeiT-Base tenant that carries its own profile.
    fn dota_mix_points(process: ArrivalProcess, requests: usize) -> Vec<EnginePoint> {
        let dota = TenantSpec::open("dota", process, requests)
            .with_profile(TransformerWorkload::deit_base().profile(requests));
        vec![
            EnginePoint::serve("serve-solo", ServeSpec::open_loop(process, requests)),
            EnginePoint::serve(
                "serve-dota-mix",
                ServeSpec::open_loop(process, requests).with_tenant(dota),
            ),
        ]
    }

    fn sample_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::new(
            "spec-json",
            (1 << 60) + 9,
            vec![
                device_by_name("2D_DDR3").unwrap(),
                device_by_name("COMET").unwrap(),
            ],
            memsim::spec_like_suite(120)
                .into_iter()
                .take(2)
                .map(WorkloadSource::Profile)
                .collect(),
        );
        spec.replicates = 2;
        spec.engines = vec![EnginePoint::paced()];
        spec.engines.extend(serve_load_axis(&[2.0e7], 100));
        spec.engines
            .extend(dota_mix_points(ArrivalProcess::poisson(1.5e7), 80));
        spec.engines
            .extend(closed_loop_points(&[4], Time::from_nanos(30.0), 60));
        serve_specs(&mut spec).next().unwrap().batch =
            Some(BatchConfig::new(Time::from_seconds(1.5e-7), 4));
        // Every payload kind, so the round trip covers the data plane.
        spec.engines
            .extend(payload_entropy_axis(ArrivalProcess::poisson(2.5e7), 40));
        spec
    }

    #[test]
    fn roundtrip_is_byte_exact() {
        let spec = sample_spec();
        let text = spec_to_json(&spec).expect("serializes");
        let back = spec_from_json(&text).expect("parses");
        assert_eq!(spec_to_json(&back).unwrap(), text, "re-emission stable");
        // Semantically identical: both run to the same report.
        assert_eq!(run_campaign(&spec, 2), run_campaign(&back, 2));
    }

    #[test]
    fn fixed_traces_are_rejected() {
        let mut spec = sample_spec();
        spec.workloads
            .push(WorkloadSource::trace("raw", Vec::new()));
        assert!(matches!(
            spec_to_json(&spec),
            Err(SpecError::Unsupported(_))
        ));
    }

    #[test]
    fn invalid_values_are_schema_errors_not_panics() {
        let text = spec_to_json(&sample_spec()).unwrap();
        for (from, to) in [
            // Zero rate would make every arrival land at t = +inf.
            ("\"rate_rps\": 20000000.0", "\"rate_rps\": 0.0"),
            // Negative rate would run arrivals backwards.
            ("\"rate_rps\": 20000000.0", "\"rate_rps\": -1.0"),
            // Zero batch window/writes trip constructor asserts.
            ("\"max_writes\": 4", "\"max_writes\": 0"),
            ("\"window_s\": 1.5e-7", "\"window_s\": 0.0"),
            // Out-of-range profile knobs trip generation asserts.
            ("\"read_fraction\": 0.85", "\"read_fraction\": 1.5"),
            ("\"line_bytes\": 64", "\"line_bytes\": 0"),
            // Payload knobs: a zero or >1 flip fraction is meaningless.
            ("\"flip_fraction\": 0.05", "\"flip_fraction\": 0.0"),
            ("\"flip_fraction\": 0.05", "\"flip_fraction\": 1.5"),
            ("\"kind\": \"weights\"", "\"kind\": \"entropy9000\""),
        ] {
            let bad = text.replace(from, to);
            assert_ne!(bad, text, "substitution '{from}' must apply");
            assert!(
                matches!(spec_from_json(&bad), Err(SpecError::Schema(_))),
                "'{to}' must be rejected as a schema error"
            );
        }
        // Zero closed-loop clients would deadlock the service.
        let bad = text.replace("\"clients\": 4", "\"clients\": 0");
        assert_ne!(bad, text);
        assert!(matches!(spec_from_json(&bad), Err(SpecError::Schema(_))));
        // Durations above MAX_DURATION_S and rates below MIN_RATE_RPS: a
        // huge think time or gap hangs a DRAM run or overflows the export.
        let poisson = "\"kind\": \"poisson\",\n                \"rate_rps\": 20000000.0";
        let bursty = |on: &str, off: &str| {
            format!("\"kind\": \"bursty\", \"rate_rps\": 2e7, \"on_s\": {on}, \"off_s\": {off}")
        };
        for (from, to, key) in [
            (
                "\"think_s\": 3.0000000000000004e-8",
                "\"think_s\": 1e300".into(),
                "think_s",
            ),
            (
                "\"think_s\": 3.0000000000000004e-8",
                "\"think_s\": 1.5".into(),
                "think_s",
            ),
            (
                "\"interarrival_s\": 5e-10",
                "\"interarrival_s\": 1e300".into(),
                "interarrival_s",
            ),
            (
                "\"window_s\": 1.5e-7",
                "\"window_s\": 2.0".into(),
                "window_s",
            ),
            (
                "\"rate_rps\": 20000000.0",
                "\"rate_rps\": 0.5".into(),
                "rate_rps",
            ),
            ("\"shards\": 1", "\"shards\": 4".into(), "shards"),
            (poisson, bursty("1e300", "0.0"), "on_s"),
            (poisson, bursty("1e-7", "1e299"), "off_s"),
        ] {
            let bad = text.replace(from, &to);
            assert_ne!(bad, text, "substitution '{from}' must apply");
            match spec_from_json(&bad) {
                Err(SpecError::Schema(m)) => assert!(m.contains(&format!("'{key}'")), "{m}"),
                other => panic!("'{to}' must be rejected as a schema error, got {other:?}"),
            }
        }
        // The ceiling itself is a valid duration.
        let one = text.replace("\"think_s\": 3.0000000000000004e-8", "\"think_s\": 1.0");
        assert!(spec_from_json(&one).is_ok());
    }

    #[test]
    fn zero_frfcfs_window_is_rejected_with_a_message() {
        let text = spec_to_json(&sample_spec()).unwrap();
        let bad = text.replace("\"window\": 8", "\"window\": 0");
        assert_ne!(bad, text, "the sample spec has an FR-FCFS scheduler");
        match spec_from_json(&bad) {
            Err(SpecError::Schema(m)) => assert!(m.contains("'window' must be at least 1"), "{m}"),
            other => panic!("a zero window must be a schema error, got {other:?}"),
        }
    }

    #[test]
    fn zero_request_budgets_are_rejected_with_a_message() {
        let text = spec_to_json(&sample_spec()).unwrap();
        // Workload entries carry 120, the load-axis tenant 100.
        for (from, owner) in [
            ("\"requests\": 120", "workload 'mcf-like'"),
            ("\"requests\": 100", "tenant 'open'"),
        ] {
            let bad = text.replace(from, "\"requests\": 0");
            assert_ne!(bad, text, "substitution '{from}' must apply");
            match spec_from_json(&bad) {
                Err(SpecError::Schema(m)) => assert_eq!(
                    m,
                    format!("{owner}: 'requests' must be at least 1"),
                    "{from}"
                ),
                other => panic!("a zero budget must be a schema error, got {other:?}"),
            }
        }
    }

    #[test]
    fn sub_line_footprints_are_rejected_under_line_normalization() {
        // 2D_DDR3 has 64-byte lines and COMET 128-byte ones, so with line
        // normalization every profile must hold a 128-byte line.
        let shrink_workload = |spec: &mut CampaignSpec| match &mut spec.workloads[0] {
            WorkloadSource::Profile(p) => {
                p.footprint = ByteCount::new(100);
                "workload 'mcf-like': 'footprint_bytes' (100)".to_string()
            }
            WorkloadSource::Trace { .. } => unreachable!("sample workloads are profiles"),
        };
        let shrink_tenant = |spec: &mut CampaignSpec| {
            let p = serve_specs(spec)
                .flat_map(|s| s.tenants.iter_mut())
                .find_map(|t| t.profile.as_mut())
                .expect("the DOTA mix carries a tenant profile");
            p.line_bytes = 64;
            p.footprint = ByteCount::new(64);
            format!("tenant profile '{}': 'footprint_bytes' (64)", p.name)
        };
        for shrink in [
            &shrink_workload as &dyn Fn(&mut CampaignSpec) -> String,
            &shrink_tenant,
        ] {
            let mut spec = sample_spec();
            assert!(spec.normalize_lines);
            let owner = shrink(&mut spec);
            match spec_from_json(&spec_to_json(&spec).unwrap()) {
                Err(SpecError::Schema(m)) => assert_eq!(
                    m,
                    format!(
                        "{owner} is smaller than one 128-byte line of device 'COMET', \
                         the line normalize_lines resizes it to"
                    )
                ),
                other => panic!("a sub-line footprint must be a schema error, got {other:?}"),
            }
            // Without normalization each profile keeps its own line.
            spec.normalize_lines = false;
            let text = spec_to_json(&spec).unwrap();
            assert_eq!(spec_to_json(&spec_from_json(&text).unwrap()).unwrap(), text);
        }
    }

    #[test]
    fn payload_lines_wider_than_a_payload_are_rejected() {
        // A payload-carrying tenant shaped by the workload, on 256-byte
        // lines that line normalization does not shrink.
        let text = |line: u64, tenant_profile: &str| {
            format!(
                r#"{{
  "campaign": "wide", "seed": 1, "replicates": 1, "normalize_lines": false,
  "devices": ["EPCM-DCW-FNW"],
  "workloads": [{{
    "name": "wide-lines", "read_fraction": 0.5, "footprint_bytes": 65536,
    "pattern": {{"kind": "random"}}, "interarrival_s": 2.0e-9,
    "requests": 50, "line_bytes": {line}
  }}],
  "engines": [{{"label": "open", "serve": {{
    "shards": 1, "scheduler": {{"kind": "fcfs"}}, "batch": null,
    "tenants": [{{
      "name": "writer", "requests": 50, "profile": {tenant_profile},
      "payload": {{"kind": "uniform"}},
      "load": {{"kind": "open", "process": {{"kind": "poisson", "rate_rps": 1.0e7}}}}
    }}]
  }}}}]
}}"#
            )
        };
        match spec_from_json(&text(256, "null")) {
            Err(SpecError::Schema(m)) => assert_eq!(
                m,
                "tenant 'writer' carries payloads, but its workload 'wide-lines' has \
                 256-byte lines, wider than the 128-byte payload capacity"
            ),
            other => panic!("a 256-byte payload line must be a schema error, got {other:?}"),
        }
        // The tenant's own profile is checked in place of the workload's.
        let own = r#"{"name": "own", "read_fraction": 0.5, "footprint_bytes": 65536,
            "pattern": {"kind": "stream"}, "interarrival_s": 2.0e-9,
            "requests": 50, "line_bytes": 512}"#;
        match spec_from_json(&text(64, own)) {
            Err(SpecError::Schema(m)) => {
                assert!(m.contains("tenant profile 'own' has 512-byte"), "{m}")
            }
            other => panic!("a 512-byte payload line must be a schema error, got {other:?}"),
        }
        // At the capacity the spec parses and runs; a payload-less tenant
        // may use any width.
        let spec = spec_from_json(&text(128, "null")).expect("128-byte lines fit a payload");
        assert_eq!(run_campaign(&spec, 1).cells[0].stats.completed, 50);
        let payloadless = text(256, "null").replace(r#""payload": {"kind": "uniform"},"#, "");
        assert!(spec_from_json(&payloadless).is_ok());
    }

    #[test]
    fn byte_totals_past_a_u64_bit_count_are_rejected() {
        // One line per footprint on three devices, lines kept as given.
        let text = |line: u64, requests: u64, engine: &str| {
            format!(
                r#"{{
  "campaign": "huge", "seed": 1, "replicates": 1, "normalize_lines": false,
  "devices": ["2D_DDR3", "COMET", "EPCM-DCW-FNW"],
  "workloads": [{{
    "name": "huge-lines", "read_fraction": 0.5, "footprint_bytes": {line},
    "pattern": {{"kind": "random"}}, "interarrival_s": 2.0e-9,
    "requests": {requests}, "line_bytes": {line}
  }}],
  "engines": [{engine}]
}}"#
            )
        };
        let saturation =
            r#"{"label": "sat", "scheduler": {"kind": "fcfs"}, "replay": "saturation"}"#;
        // 4 × 2^59 B is 2^64 bits, 8 × 2^62 B is 2^68 bits: both used to
        // wrap to a zero bit count.
        for (line, requests, total) in [
            (1u64 << 59, 4u64, "2305843009213693952"),
            (1 << 62, 8, "36893488147419103232"),
        ] {
            match spec_from_json(&text(line, requests, saturation)) {
                Err(SpecError::Schema(m)) => assert_eq!(
                    m,
                    format!(
                        "workload 'huge-lines': {requests} requests of {line} bytes total \
                         {total} bytes; a cell's bit count must fit in 64 bits \
                         (at most 2305843009213693951 bytes)"
                    )
                ),
                other => panic!("an overflowing byte total must be a schema error, got {other:?}"),
            }
        }
        // Serve sums its tenants, each on the workload's line.
        let tenant = |name: &str| {
            format!(
                r#"{{"name": "{name}", "requests": 4, "profile": null,
      "load": {{"kind": "closed", "clients": 1, "think_s": 0.0}}}}"#
            )
        };
        let serve = format!(
            r#"{{"label": "two", "serve": {{
    "shards": 1, "scheduler": {{"kind": "fcfs"}}, "batch": null,
    "tenants": [{}, {}]}}}}"#,
            tenant("a"),
            tenant("b")
        );
        match spec_from_json(&text(1 << 58, 1, &serve)) {
            Err(SpecError::Schema(m)) => assert!(
                m.starts_with(
                    "serve engine 'two' on workload 'huge-lines': the tenants through 'b' \
                     total 2305843009213693952 bytes;"
                ),
                "{m}"
            ),
            other => panic!("an overflowing serve total must be a schema error, got {other:?}"),
        }
        // A total under the bound parses, runs and counts its bits exactly.
        let spec = spec_from_json(&text(1 << 58, 7, saturation)).expect("7 × 2^58 B fits");
        let report = run_campaign(&spec, 1);
        assert_eq!(report.cells[0].stats.bytes.to_bits().value(), 7 << 61);
    }

    #[test]
    fn tenant_profiles_keep_a_zero_request_count() {
        // Serve ignores a tenant profile's own `requests`, so a profile
        // built in code may leave it at 0; such specs must round-trip.
        let mut spec = sample_spec();
        let tenant = serve_specs(&mut spec)
            .flat_map(|s| s.tenants.iter_mut())
            .find(|t| t.profile.is_some())
            .expect("the DOTA mix carries a tenant profile");
        tenant.profile.as_mut().unwrap().requests = 0;
        let text = spec_to_json(&spec).unwrap();
        let back = spec_from_json(&text).expect("a zero profile count parses");
        assert_eq!(spec_to_json(&back).unwrap(), text);
    }

    #[test]
    fn every_registered_spec_roundtrips() {
        // Every registered device and workload under every registry axis,
        // plus closed-loop and DOTA-mix serve points.
        let mut spec = CampaignSpec::new(
            "registered",
            3,
            device_names()
                .into_iter()
                .map(|name| device_by_name(name).unwrap())
                .collect(),
            workloads_by_name("all", 50),
        );
        spec.engines = vec![EnginePoint::paced(), EnginePoint::saturation()];
        spec.engines.extend(serve_load_axis(&[1.0e7, 2.0e7], 30));
        spec.engines
            .extend(closed_loop_points(&[1, 8], Time::from_nanos(25.0), 30));
        spec.engines
            .extend(dota_mix_points(ArrivalProcess::poisson(1.0e7), 30));
        spec.engines
            .extend(payload_entropy_axis(ArrivalProcess::poisson(1.0e7), 30));
        let text = spec_to_json(&spec).expect("serializes");
        let back = spec_from_json(&text).expect("parses");
        assert_eq!(spec_to_json(&back).unwrap(), text);

        // And every committed spec file.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
        let mut files = 0;
        for entry in std::fs::read_dir(dir).expect("the specs directory exists") {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "json") {
                let text = std::fs::read_to_string(&path).unwrap();
                let spec =
                    spec_from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                let emitted = spec_to_json(&spec).unwrap();
                assert_eq!(
                    spec_to_json(&spec_from_json(&emitted).unwrap()).unwrap(),
                    emitted,
                    "{}",
                    path.display()
                );
                files += 1;
            }
        }
        assert!(files > 0, "no spec files under {dir}");
    }

    #[test]
    fn unknown_devices_and_bad_schema_are_reported() {
        let text = spec_to_json(&sample_spec()).unwrap();
        let renamed = text.replace("\"COMET\"", "\"NVRAM-9000\"");
        assert!(matches!(
            spec_from_json(&renamed),
            Err(SpecError::UnknownDevice(_))
        ));
        assert!(matches!(spec_from_json("{}"), Err(SpecError::Schema(_))));
        assert!(matches!(spec_from_json("nope"), Err(SpecError::Json(_))));
        // Empty axes are invalid.
        let empty = text.replace("\"devices\": [\"2D_DDR3\", \"COMET\"]", "\"devices\": []");
        assert!(matches!(spec_from_json(&empty), Err(SpecError::Schema(_))));
    }
}
