//! Typed campaign results with real JSON and CSV export.
//!
//! A [`CampaignReport`] is the aggregate of one campaign run: one
//! [`CellReport`] per grid cell, in grid order. Exports are deterministic —
//! two runs of the same spec produce byte-identical JSON and CSV no matter
//! how many threads ran the cells — and the JSON round-trips exactly:
//! `CampaignReport::from_json(report.to_json())` reconstructs an equal
//! report (floats are serialized in their native units at
//! shortest-round-trip precision).

use crate::json::{f64_field, field, schema, str_field, u64_field, Json, JsonError, SchemaError};
use comet_units::{ByteCount, Energy, Time};
use memsim::{EnergyBreakdown, LatencyHistogram, SimStats};
use std::fmt;

/// Per-tenant results of one serve cell, in tenant index order — the
/// exportable subset of a tenant's [`SimStats`] in
/// [`comet_serve::ServeReport::tenants`] (plain scalars; the name is the
/// tenant stats' workload label, and the tail percentiles are the ones
/// finalized from its histogram, by the rule the cell's own follow).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// Tenant name.
    pub name: String,
    /// Requests completed.
    pub completed: u64,
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Bytes transferred.
    pub bytes: ByteCount,
    /// Sum of request latencies (exact mean = total / completed).
    pub total_latency: Time,
    /// Maximum request latency.
    pub max_latency: Time,
    /// Median latency: the floor of the histogram bucket holding the
    /// nearest-rank sample, at most 2^-7 below it.
    pub p50_latency: Time,
    /// 95th-percentile latency (see [`TenantSummary::p50_latency`]).
    pub p95_latency: Time,
    /// 99th-percentile latency (see [`TenantSummary::p50_latency`]).
    pub p99_latency: Time,
}

impl TenantSummary {
    /// Captures a serve run's tenant accounting.
    pub fn from_stats(t: &SimStats) -> Self {
        TenantSummary {
            name: t.workload.clone(),
            completed: t.completed,
            reads: t.reads,
            writes: t.writes,
            bytes: t.bytes,
            total_latency: t.total_latency,
            max_latency: t.max_latency,
            p50_latency: t.p50_latency,
            p95_latency: t.p95_latency,
            p99_latency: t.p99_latency,
        }
    }

    /// Mean request latency.
    pub fn avg_latency(&self) -> Time {
        if self.completed == 0 {
            Time::ZERO
        } else {
            self.total_latency / self.completed as f64
        }
    }
}

/// The result of one campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Cell index in grid order.
    pub index: usize,
    /// Device label (the factory's `device_name`).
    pub device: String,
    /// Workload name.
    pub workload: String,
    /// Engine-point label.
    pub engine: String,
    /// Replicate number.
    pub replicate: usize,
    /// The seed this cell's trace was instantiated with.
    pub seed: u64,
    /// Aggregate simulation statistics.
    pub stats: SimStats,
    /// Per-tenant results (serve cells only; empty for trace replay).
    pub tenants: Vec<TenantSummary>,
}

/// The aggregate results of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Master seed.
    pub seed: u64,
    /// Replicates per grid point.
    pub replicates: usize,
    /// Whether profile workloads were resized to device-native lines.
    pub normalize_lines: bool,
    /// Per-cell results in grid order.
    pub cells: Vec<CellReport>,
}

/// Per-device averages over a report's cells (the Fig. 9 summary shape).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSummary {
    /// Device label.
    pub device: String,
    /// Cells aggregated.
    pub cells: usize,
    /// Mean per-cell bandwidth, GB/s.
    pub avg_bandwidth_gbs: f64,
    /// Mean per-cell energy per bit, pJ/b.
    pub avg_epb_pjb: f64,
    /// Mean per-cell average latency, ns.
    pub avg_latency_ns: f64,
}

impl DeviceSummary {
    /// The paper's Fig. 9(c) efficiency metric over the averages.
    pub fn bw_per_epb(&self) -> f64 {
        if self.avg_epb_pjb == 0.0 {
            0.0
        } else {
            self.avg_bandwidth_gbs / self.avg_epb_pjb
        }
    }
}

/// A failure to reconstruct a report from JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportParseError {
    /// The text is not well-formed JSON.
    Json(JsonError),
    /// The JSON does not have the report schema.
    Schema(String),
}

impl fmt::Display for ReportParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportParseError::Json(e) => write!(f, "{e}"),
            ReportParseError::Schema(m) => write!(f, "report schema error: {m}"),
        }
    }
}

impl std::error::Error for ReportParseError {}

impl From<JsonError> for ReportParseError {
    fn from(e: JsonError) -> Self {
        ReportParseError::Json(e)
    }
}

impl From<SchemaError> for ReportParseError {
    fn from(e: SchemaError) -> Self {
        ReportParseError::Schema(e.0)
    }
}

fn tenant_to_json(t: &TenantSummary) -> Json {
    Json::object([
        ("name", Json::string(&t.name)),
        ("completed", Json::integer(t.completed)),
        ("reads", Json::integer(t.reads)),
        ("writes", Json::integer(t.writes)),
        ("bytes", Json::integer(t.bytes.value())),
        ("total_latency_s", Json::float(t.total_latency.as_seconds())),
        ("max_latency_s", Json::float(t.max_latency.as_seconds())),
        ("p50_latency_s", Json::float(t.p50_latency.as_seconds())),
        ("p95_latency_s", Json::float(t.p95_latency.as_seconds())),
        ("p99_latency_s", Json::float(t.p99_latency.as_seconds())),
    ])
}

fn tenant_from_json(t: &Json) -> Result<TenantSummary, ReportParseError> {
    Ok(TenantSummary {
        name: str_field(t, "name")?,
        completed: u64_field(t, "completed")?,
        reads: u64_field(t, "reads")?,
        writes: u64_field(t, "writes")?,
        bytes: ByteCount::new(u64_field(t, "bytes")?),
        total_latency: Time::from_seconds(f64_field(t, "total_latency_s")?),
        max_latency: Time::from_seconds(f64_field(t, "max_latency_s")?),
        p50_latency: Time::from_seconds(f64_field(t, "p50_latency_s")?),
        p95_latency: Time::from_seconds(f64_field(t, "p95_latency_s")?),
        p99_latency: Time::from_seconds(f64_field(t, "p99_latency_s")?),
    })
}

fn histogram_from_json(h: &Json) -> Result<LatencyHistogram, ReportParseError> {
    if h.as_array().is_some() {
        return Err(schema(
            "'histogram' is an array of bucket counts, the 10-bucket format of older \
             reports; re-run the campaign to export its log-linear histogram",
        )
        .into());
    }
    let counts = field(h, "counts")?
        .as_array()
        .ok_or_else(|| schema("histogram 'counts' is not an array"))?
        .iter()
        .map(|c| {
            c.as_u64()
                .ok_or_else(|| schema("histogram count is not an integer"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let first_ps = u64_field(h, "first_ps")?;
    let message = "'histogram' is not canonical: 'first_ps' must be a bucket floor \
                   and the outer counts non-zero";
    LatencyHistogram::from_parts(first_ps, counts).ok_or_else(|| schema(message).into())
}

impl CellReport {
    fn to_json(&self) -> Json {
        let s = &self.stats;
        Json::object([
            ("index", Json::integer(self.index as u64)),
            ("device", Json::string(&self.device)),
            ("workload", Json::string(&self.workload)),
            ("engine", Json::string(&self.engine)),
            ("replicate", Json::integer(self.replicate as u64)),
            ("seed", Json::integer(self.seed)),
            (
                "stats",
                Json::object([
                    ("device", Json::string(&s.device)),
                    ("workload", Json::string(&s.workload)),
                    ("completed", Json::integer(s.completed)),
                    ("reads", Json::integer(s.reads)),
                    ("writes", Json::integer(s.writes)),
                    ("bytes", Json::integer(s.bytes.value())),
                    ("makespan_s", Json::float(s.makespan.as_seconds())),
                    ("total_latency_s", Json::float(s.total_latency.as_seconds())),
                    ("max_latency_s", Json::float(s.max_latency.as_seconds())),
                    ("p50_latency_s", Json::float(s.p50_latency.as_seconds())),
                    ("p95_latency_s", Json::float(s.p95_latency.as_seconds())),
                    ("p99_latency_s", Json::float(s.p99_latency.as_seconds())),
                    (
                        "histogram",
                        Json::object([
                            ("first_ps", Json::integer(s.histogram.first_ps())),
                            (
                                "counts",
                                Json::Array(
                                    s.histogram
                                        .counts()
                                        .iter()
                                        .map(|&c| Json::integer(c))
                                        .collect(),
                                ),
                            ),
                        ]),
                    ),
                    (
                        "energy_j",
                        Json::object([
                            ("access", Json::float(s.energy.access.as_joules())),
                            ("background", Json::float(s.energy.background.as_joules())),
                            ("refresh", Json::float(s.energy.refresh.as_joules())),
                        ]),
                    ),
                ]),
            ),
            (
                "tenants",
                Json::Array(self.tenants.iter().map(tenant_to_json).collect()),
            ),
            // Redundant human-facing metrics; recomputed (not parsed) on
            // import so the round trip stays exact.
            (
                "derived",
                Json::object([
                    (
                        "bandwidth_gbs",
                        Json::float(s.bandwidth().as_gigabytes_per_second()),
                    ),
                    ("avg_latency_ns", Json::float(s.avg_latency().as_nanos())),
                    ("p50_latency_ns", Json::float(s.p50_latency.as_nanos())),
                    ("p95_latency_ns", Json::float(s.p95_latency.as_nanos())),
                    ("p99_latency_ns", Json::float(s.p99_latency.as_nanos())),
                    (
                        "epb_pjb",
                        Json::float(s.energy_per_bit().as_picojoules_per_bit()),
                    ),
                    ("bw_per_epb", Json::float(s.bandwidth_per_epb())),
                ]),
            ),
        ])
    }

    fn from_json(cell: &Json) -> Result<CellReport, ReportParseError> {
        let stats = field(cell, "stats")?;
        let histogram = histogram_from_json(field(stats, "histogram")?)?;
        let energy = field(stats, "energy_j")?;
        // Absent means a pre-tenant-export report: parse as no tenants.
        let tenants = match cell.get("tenants") {
            None => Vec::new(),
            Some(t) => t
                .as_array()
                .ok_or_else(|| schema("'tenants' is not an array"))?
                .iter()
                .map(tenant_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(CellReport {
            index: u64_field(cell, "index")? as usize,
            device: str_field(cell, "device")?,
            workload: str_field(cell, "workload")?,
            engine: str_field(cell, "engine")?,
            replicate: u64_field(cell, "replicate")? as usize,
            seed: u64_field(cell, "seed")?,
            tenants,
            stats: SimStats {
                device: str_field(stats, "device")?,
                workload: str_field(stats, "workload")?,
                completed: u64_field(stats, "completed")?,
                reads: u64_field(stats, "reads")?,
                writes: u64_field(stats, "writes")?,
                bytes: ByteCount::new(u64_field(stats, "bytes")?),
                makespan: Time::from_seconds(f64_field(stats, "makespan_s")?),
                total_latency: Time::from_seconds(f64_field(stats, "total_latency_s")?),
                max_latency: Time::from_seconds(f64_field(stats, "max_latency_s")?),
                p50_latency: Time::from_seconds(f64_field(stats, "p50_latency_s")?),
                p95_latency: Time::from_seconds(f64_field(stats, "p95_latency_s")?),
                p99_latency: Time::from_seconds(f64_field(stats, "p99_latency_s")?),
                histogram,
                energy: EnergyBreakdown {
                    access: Energy::from_joules(f64_field(energy, "access")?),
                    background: Energy::from_joules(f64_field(energy, "background")?),
                    refresh: Energy::from_joules(f64_field(energy, "refresh")?),
                },
            },
        })
    }
}

impl CampaignReport {
    /// Serializes the report as deterministic, pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let doc = Json::object([
            ("campaign", Json::string(&self.name)),
            ("seed", Json::integer(self.seed)),
            ("replicates", Json::integer(self.replicates as u64)),
            ("normalize_lines", Json::Bool(self.normalize_lines)),
            (
                "cells",
                Json::Array(self.cells.iter().map(CellReport::to_json).collect()),
            ),
        ]);
        let mut text = doc.to_string();
        text.push('\n');
        text
    }

    /// Reconstructs a report from its JSON serialization.
    ///
    /// # Errors
    ///
    /// Returns [`ReportParseError`] on malformed JSON or schema mismatch.
    ///
    /// # Examples
    ///
    /// ```
    /// use comet_lab::CampaignReport;
    ///
    /// let empty = CampaignReport {
    ///     name: "demo".into(),
    ///     seed: 42,
    ///     replicates: 1,
    ///     normalize_lines: true,
    ///     cells: Vec::new(),
    /// };
    /// let back = CampaignReport::from_json(&empty.to_json())?;
    /// assert_eq!(back, empty);
    /// # Ok::<(), comet_lab::ReportParseError>(())
    /// ```
    pub fn from_json(text: &str) -> Result<CampaignReport, ReportParseError> {
        let doc = Json::parse(text)?;
        let cells = field(&doc, "cells")?
            .as_array()
            .ok_or_else(|| schema("'cells' is not an array"))?
            .iter()
            .map(CellReport::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CampaignReport {
            name: str_field(&doc, "campaign")?,
            seed: u64_field(&doc, "seed")?,
            replicates: u64_field(&doc, "replicates")? as usize,
            normalize_lines: field(&doc, "normalize_lines")?
                .as_bool()
                .ok_or_else(|| schema("'normalize_lines' is not a bool"))?,
            cells,
        })
    }

    /// Serializes the per-cell summary metrics as CSV (header + one row
    /// per cell; no histogram — use the JSON export for full fidelity).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "index,device,workload,engine,replicate,seed,completed,reads,writes,bytes,\
             makespan_ns,avg_latency_ns,p50_latency_ns,p95_latency_ns,p99_latency_ns,\
             max_latency_ns,bandwidth_gbs,epb_pjb,bw_per_epb,energy_access_pj,\
             energy_background_pj,energy_refresh_pj\n",
        );
        for c in &self.cells {
            let s = &c.stats;
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.6},{:.6},{:.6},{:.3},{:.3},{:.3}\n",
                c.index,
                csv_quote(&c.device),
                csv_quote(&c.workload),
                csv_quote(&c.engine),
                c.replicate,
                c.seed,
                s.completed,
                s.reads,
                s.writes,
                s.bytes.value(),
                s.makespan.as_nanos(),
                s.avg_latency().as_nanos(),
                s.p50_latency.as_nanos(),
                s.p95_latency.as_nanos(),
                s.p99_latency.as_nanos(),
                s.max_latency.as_nanos(),
                s.bandwidth().as_gigabytes_per_second(),
                s.energy_per_bit().as_picojoules_per_bit(),
                s.bandwidth_per_epb(),
                s.energy.access.as_picojoules(),
                s.energy.background.as_picojoules(),
                s.energy.refresh.as_picojoules(),
            ));
        }
        out
    }

    /// Serializes per-tenant serve results as CSV: one row per (cell,
    /// tenant), empty below replay cells (header always present, so the
    /// export is deterministic for any engine mix).
    pub fn to_tenant_csv(&self) -> String {
        let mut out = String::from(
            "index,device,workload,engine,replicate,tenant,completed,reads,writes,bytes,\
             avg_latency_ns,p50_latency_ns,p95_latency_ns,p99_latency_ns,max_latency_ns\n",
        );
        for c in &self.cells {
            for t in &c.tenants {
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3}\n",
                    c.index,
                    csv_quote(&c.device),
                    csv_quote(&c.workload),
                    csv_quote(&c.engine),
                    c.replicate,
                    csv_quote(&t.name),
                    t.completed,
                    t.reads,
                    t.writes,
                    t.bytes.value(),
                    t.avg_latency().as_nanos(),
                    t.p50_latency.as_nanos(),
                    t.p95_latency.as_nanos(),
                    t.p99_latency.as_nanos(),
                    t.max_latency.as_nanos(),
                ));
            }
        }
        out
    }

    /// Per-device averages over all cells, in first-appearance order (the
    /// Fig. 9 summary aggregation: plain means of per-cell bandwidth, EPB
    /// and average latency).
    pub fn device_summaries(&self) -> Vec<DeviceSummary> {
        let mut order: Vec<String> = Vec::new();
        for c in &self.cells {
            if !order.contains(&c.device) {
                order.push(c.device.clone());
            }
        }
        order
            .into_iter()
            .map(|device| {
                let cells: Vec<&CellReport> =
                    self.cells.iter().filter(|c| c.device == device).collect();
                let n = cells.len() as f64;
                DeviceSummary {
                    device,
                    cells: cells.len(),
                    avg_bandwidth_gbs: cells
                        .iter()
                        .map(|c| c.stats.bandwidth().as_gigabytes_per_second())
                        .sum::<f64>()
                        / n,
                    avg_epb_pjb: cells
                        .iter()
                        .map(|c| c.stats.energy_per_bit().as_picojoules_per_bit())
                        .sum::<f64>()
                        / n,
                    avg_latency_ns: cells
                        .iter()
                        .map(|c| c.stats.avg_latency().as_nanos())
                        .sum::<f64>()
                        / n,
                }
            })
            .collect()
    }

    /// The cells of one device, in grid order.
    pub fn cells_for(&self, device: &str) -> Vec<&CellReport> {
        self.cells.iter().filter(|c| c.device == device).collect()
    }
}

/// Quotes a CSV field if it contains a delimiter (report names are normally
/// plain identifiers, but the format stays correct for any input).
fn csv_quote(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(seed: u64) -> SimStats {
        let mut s = SimStats::new("DEV", "wl");
        s.completed = 3 + seed;
        s.reads = 2;
        s.writes = 1 + seed;
        s.bytes = ByteCount::new(192);
        s.makespan = Time::from_nanos(350.5);
        s.total_latency = Time::from_nanos(410.25);
        s.max_latency = Time::from_nanos(200.125);
        s.p50_latency = Time::from_nanos(120.5);
        s.p95_latency = Time::from_nanos(190.25);
        s.p99_latency = Time::from_nanos(200.125);
        for ns in [20.0, 200.0, 200.0] {
            s.histogram.record(Time::from_nanos(ns));
        }
        s.energy = EnergyBreakdown {
            access: Energy::from_picojoules(512.5),
            background: Energy::from_picojoules(17.0),
            refresh: Energy::ZERO,
        };
        s
    }

    fn sample_report() -> CampaignReport {
        CampaignReport {
            name: "unit".into(),
            seed: (1 << 60) + 3,
            replicates: 2,
            normalize_lines: true,
            cells: (0..4)
                .map(|i| CellReport {
                    index: i,
                    device: format!("dev{}", i / 2),
                    workload: "wl".into(),
                    engine: "frfcfs8-paced".into(),
                    replicate: i % 2,
                    seed: 42 + i as u64,
                    stats: sample_stats(i as u64),
                    tenants: (0..i % 3)
                        .map(|t| TenantSummary {
                            name: format!("tenant{t}"),
                            completed: 10 + t as u64,
                            reads: 8,
                            writes: 2 + t as u64,
                            bytes: ByteCount::new(640),
                            total_latency: Time::from_nanos(1200.5),
                            max_latency: Time::from_nanos(400.25),
                            p50_latency: Time::from_nanos(90.0),
                            p95_latency: Time::from_nanos(200.0),
                            p99_latency: Time::from_nanos(300.0),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let r = sample_report();
        let text = r.to_json();
        let back = CampaignReport::from_json(&text).expect("parses");
        assert_eq!(back, r);
        // Re-emission is byte-identical (determinism).
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn csv_has_header_and_all_cells() {
        let r = sample_report();
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + r.cells.len());
        assert!(lines[0].starts_with("index,device,workload"));
        assert!(lines[1].starts_with("0,dev0,wl,frfcfs8-paced,0,42,"));
    }

    #[test]
    fn tenant_csv_has_one_row_per_cell_tenant() {
        let r = sample_report();
        let csv = r.to_tenant_csv();
        let lines: Vec<&str> = csv.lines().collect();
        let expected: usize = r.cells.iter().map(|c| c.tenants.len()).sum();
        assert!(expected > 0, "sample report carries tenants");
        assert_eq!(lines.len(), 1 + expected);
        assert!(lines[0].starts_with("index,device,workload,engine,replicate,tenant"));
        assert!(lines[1].contains(",tenant0,"));
    }

    #[test]
    fn reports_without_tenant_arrays_still_parse() {
        // Backwards compatibility: exports from before per-tenant stats
        // carry no "tenants" key and parse as tenant-less cells.
        let mut r = sample_report();
        for c in &mut r.cells {
            c.tenants.clear();
        }
        let stripped = {
            // Emit, then surgically drop the tenants arrays.
            let text = r.to_json();
            text.replace("\"tenants\": [],\n      ", "")
        };
        assert_ne!(stripped, r.to_json(), "substitution applied");
        let back = CampaignReport::from_json(&stripped).expect("parses without tenants");
        assert_eq!(back, r);
    }

    #[test]
    fn device_summaries_group_and_average() {
        let r = sample_report();
        let sums = r.device_summaries();
        assert_eq!(sums.len(), 2);
        assert_eq!(sums[0].device, "dev0");
        assert_eq!(sums[0].cells, 2);
        let manual = (r.cells[0].stats.bandwidth().as_gigabytes_per_second()
            + r.cells[1].stats.bandwidth().as_gigabytes_per_second())
            / 2.0;
        assert!((sums[0].avg_bandwidth_gbs - manual).abs() < 1e-12);
    }

    #[test]
    fn schema_errors_are_reported() {
        assert!(matches!(
            CampaignReport::from_json("{}"),
            Err(ReportParseError::Schema(_))
        ));
        assert!(matches!(
            CampaignReport::from_json("not json"),
            Err(ReportParseError::Json(_))
        ));
        // A cell missing its stats.
        let bad = "{\"campaign\":\"x\",\"seed\":1,\"replicates\":1,\
                   \"normalize_lines\":true,\"cells\":[{\"index\":0}]}";
        assert!(CampaignReport::from_json(bad).is_err());
    }

    #[test]
    fn ten_bucket_histograms_are_rejected_with_a_message() {
        let text = sample_report().to_json();
        let h = &sample_report().cells[0].stats.histogram;
        let counts: Vec<String> = h.counts().iter().map(u64::to_string).collect();
        let new_form = format!(
            "\"histogram\": {{\n          \"first_ps\": {},\n          \"counts\": [{}]\n        }}",
            h.first_ps(),
            counts.join(", ")
        );
        assert!(text.contains(&new_form), "the export holds {new_form}");
        for (to, message) in [
            (
                "\"histogram\": [0, 1, 0, 2, 0, 0, 0, 0, 0, 0]".to_string(),
                "10-bucket format",
            ),
            (
                new_form.replace("\"counts\": [", "\"counts\": [0, "),
                "not canonical",
            ),
        ] {
            match CampaignReport::from_json(&text.replacen(&new_form, &to, 1)) {
                Err(ReportParseError::Schema(m)) => assert!(m.contains(message), "{m}"),
                other => panic!("'{to}' must be a schema error, got {other:?}"),
            }
        }
    }

    #[test]
    fn csv_quoting() {
        assert_eq!(csv_quote("plain"), "plain");
        assert_eq!(csv_quote("a,b"), "\"a,b\"");
        assert_eq!(csv_quote("q\"q"), "\"q\"\"q\"");
    }
}
