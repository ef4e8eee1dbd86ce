//! The `comet-lab` CLI: run an experiment campaign and export results.
//!
//! ```text
//! comet-lab [--devices A,B,..] [--workloads all|name,..] [--requests N]
//!           [--seed S] [--replicates R] [--engine paced|saturation|both]
//!           [--threads T] [--name NAME] [--out DIR] [--list]
//! comet-lab run SPEC.json [--threads T] [--out DIR] [--name NAME]
//! ```
//!
//! The `run` form loads a full campaign spec — including `comet-serve`
//! service scenarios — from a JSON file (the format `spec_to_json`
//! emits). Like the other form, its report is byte-identical for any
//! `--threads` value (CI asserts this).
//!
//! Both forms write `DIR/NAME.json` and `DIR/NAME.csv`, then re-parse the
//! JSON and verify it reconstructs the in-memory report exactly (so a
//! zero exit code certifies the export round-trips).

use comet_lab::{
    default_threads, device_by_name, device_names, run_campaign, spec_from_json, workload_names,
    workloads_by_name, CampaignReport, CampaignSpec, EnginePoint, WorkloadSource,
};
use memsim::DeviceFactory;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    devices: Vec<String>,
    workloads: Vec<String>,
    requests: usize,
    seed: u64,
    replicates: usize,
    engine: String,
    threads: usize,
    name: String,
    out: String,
    list: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        devices: vec!["2D_DDR3".into(), "EPCM-MM".into(), "COMET".into()],
        workloads: vec!["all".into()],
        requests: 2000,
        seed: 42,
        replicates: 1,
        engine: "paced".into(),
        threads: default_threads(),
        name: "campaign".into(),
        out: "results".into(),
        list: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a {what}"))
        };
        match flag.as_str() {
            "--devices" => {
                args.devices = value("comma list")?.split(',').map(String::from).collect()
            }
            "--workloads" => {
                args.workloads = value("comma list")?.split(',').map(String::from).collect()
            }
            "--requests" => {
                args.requests = value("count")?
                    .parse()
                    .map_err(|e| format!("--requests: {e}"))?;
                if args.requests == 0 {
                    return Err("'requests' must be at least 1".into());
                }
            }
            "--seed" => args.seed = value("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--replicates" => {
                args.replicates = value("count")?
                    .parse()
                    .map_err(|e| format!("--replicates: {e}"))?
            }
            "--engine" => args.engine = value("mode")?,
            "--threads" => {
                args.threads = value("count")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--name" => args.name = value("name")?,
            "--out" => args.out = value("dir")?,
            "--list" => args.list = true,
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

const USAGE: &str =
    "usage: comet-lab [--devices A,B,..] [--workloads all|name,..] [--requests N]\n\
                 [--seed S] [--replicates R] [--engine paced|saturation|both]\n\
                 [--threads T] [--name NAME] [--out DIR] [--list]\n\
       comet-lab run SPEC.json [--threads T] [--out DIR] [--name NAME]\n\
\n\
  --list      print every registered device and workload name\n\
\n\
  Data-plane axes: devices EPCM-oblivious | EPCM-DCW | EPCM-DCW-FNW sweep\n\
  the content-aware write policies (EPCM-MM stays the flat-cost baseline);\n\
  spec-file tenants take a \"payload\" source (zero | sparse | weights |\n\
  toggle | uniform) to sweep payload entropy. Outputs: NAME.json, NAME.csv\n\
  and NAME.tenants.csv (per-tenant serve results).";

/// Arguments of the `run SPEC.json` form.
struct RunArgs {
    spec_path: String,
    threads: usize,
    out: String,
    name: Option<String>,
}

fn parse_run_args(argv: &[String]) -> Result<RunArgs, String> {
    let mut it = argv.iter();
    let spec_path = it
        .next()
        .cloned()
        .ok_or_else(|| "run needs a SPEC.json path".to_string())?;
    let mut args = RunArgs {
        spec_path,
        threads: default_threads(),
        out: "results".into(),
        name: None,
    };
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a {what}"))
        };
        match flag.as_str() {
            "--threads" => {
                args.threads = value("count")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--out" => args.out = value("dir")?,
            "--name" => args.name = Some(value("name")?),
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn run_from_spec(argv: &[String]) -> ExitCode {
    let args = match parse_run_args(argv) {
        Ok(a) => a,
        Err(e) if e == "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("comet-lab: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(&args.spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("comet-lab: cannot read {}: {e}", args.spec_path);
            return ExitCode::FAILURE;
        }
    };
    let mut spec = match spec_from_json(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("comet-lab: {}: {e}", args.spec_path);
            return ExitCode::FAILURE;
        }
    };
    if let Some(name) = args.name {
        spec.name = name;
    }
    execute(spec, args.threads, &args.out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("run") {
        return run_from_spec(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        // Requested help goes to stdout and exits 0; errors go to stderr
        // and exit 2.
        Err(e) if e == "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("comet-lab: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.list {
        println!("devices:");
        for d in device_names() {
            println!("  {d}");
        }
        println!("workloads (plus 'all'):");
        for w in workload_names() {
            println!("  {w}");
        }
        return ExitCode::SUCCESS;
    }

    let mut devices: Vec<Box<dyn DeviceFactory>> = Vec::new();
    for name in &args.devices {
        match device_by_name(name) {
            Some(f) => devices.push(f),
            None => {
                eprintln!(
                    "comet-lab: unknown device '{name}'; registered: {}",
                    device_names().join(", ")
                );
                return ExitCode::from(2);
            }
        }
    }

    let mut workloads: Vec<WorkloadSource> = Vec::new();
    for name in &args.workloads {
        let mut found = workloads_by_name(name, args.requests);
        if found.is_empty() {
            eprintln!(
                "comet-lab: unknown workload '{name}'; registered: all, {}",
                workload_names().join(", ")
            );
            return ExitCode::from(2);
        }
        workloads.append(&mut found);
    }

    let engines = match args.engine.as_str() {
        "paced" => vec![EnginePoint::paced()],
        "saturation" => vec![EnginePoint::saturation()],
        "both" => vec![EnginePoint::paced(), EnginePoint::saturation()],
        other => {
            eprintln!("comet-lab: unknown engine '{other}'; registered: paced, saturation, both");
            return ExitCode::from(2);
        }
    };

    let mut spec = CampaignSpec::new(&args.name, args.seed, devices, workloads);
    spec.replicates = args.replicates.max(1);
    spec.engines = engines;
    execute(spec, args.threads, &args.out)
}

/// Runs a fully assembled spec and exports/validates its results.
fn execute(spec: CampaignSpec, threads: usize, out: &str) -> ExitCode {
    let cells = spec.cells();
    println!(
        "# campaign '{}': {} cells ({} devices x {} workloads x {} engines x {} replicates) on {} threads",
        spec.name,
        cells,
        spec.devices.len(),
        spec.workloads.len(),
        spec.engines.len(),
        spec.replicates,
        threads,
    );

    let started = Instant::now();
    let report = run_campaign(&spec, threads);
    let elapsed = started.elapsed();
    println!(
        "# ran {} cells in {:.2} s ({:.1} cells/s)",
        cells,
        elapsed.as_secs_f64(),
        cells as f64 / elapsed.as_secs_f64().max(1e-9),
    );

    for summary in report.device_summaries() {
        println!(
            "# {}: avg BW {:.3} GB/s, avg EPB {:.2} pJ/b, avg latency {:.1} ns over {} cells",
            summary.device,
            summary.avg_bandwidth_gbs,
            summary.avg_epb_pjb,
            summary.avg_latency_ns,
            summary.cells,
        );
    }

    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("comet-lab: cannot create {out}: {e}");
        return ExitCode::FAILURE;
    }
    let json_path = format!("{}/{}.json", out, spec.name);
    let csv_path = format!("{}/{}.csv", out, spec.name);
    let tenants_path = format!("{}/{}.tenants.csv", out, spec.name);
    let json = report.to_json();
    if let Err(e) = std::fs::write(&json_path, &json) {
        eprintln!("comet-lab: cannot write {json_path}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&csv_path, report.to_csv()) {
        eprintln!("comet-lab: cannot write {csv_path}: {e}");
        return ExitCode::FAILURE;
    }
    // Per-tenant serve results ride in a third export (header-only for
    // pure replay campaigns, so the output set is always the same).
    if let Err(e) = std::fs::write(&tenants_path, report.to_tenant_csv()) {
        eprintln!("comet-lab: cannot write {tenants_path}: {e}");
        return ExitCode::FAILURE;
    }

    // Self-check: the exported JSON must reconstruct the report exactly.
    let reread = match std::fs::read_to_string(&json_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("comet-lab: cannot re-read {json_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match CampaignReport::from_json(&reread) {
        Ok(back) if back == report => {
            println!(
                "# wrote {json_path}, {csv_path} and {tenants_path}; \
                 JSON parse-back verified ({cells} cells)"
            );
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!("comet-lab: parse-back mismatch in {json_path}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("comet-lab: exported JSON does not parse: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_requests_are_a_usage_error() {
        let argv = |n: &str| ["--requests", n].map(String::from);
        assert_eq!(
            parse_args(&argv("0")).err().as_deref(),
            Some("'requests' must be at least 1")
        );
        assert_eq!(parse_args(&argv("1")).map(|a| a.requests), Ok(1));
    }
}
