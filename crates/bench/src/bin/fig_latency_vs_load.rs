//! Latency vs offered load — the saturation hockey-stick the paper's
//! Fig. 9/10 wins imply but never plot.
//!
//! A thin wrapper over a `comet-lab` campaign through the `comet-serve`
//! engine: [`serve_device_axis`] (2D_DDR4 / COSMOS / COMET) ×
//! [`serve_load_axis`] (open-loop **Poisson** arrivals swept over a
//! geometric rate grid — memoryless by design; see the axis docs for why
//! evenly spaced arrivals would alias into DRAM's refresh period and
//! wobble the tail), one SPEC-like workload shape. Each cell reports
//! p50/p95/p99 (each at most 2^-7 below the exact nearest-rank sample);
//! sweeping the arrival rate exposes where every
//! device's queue blows up — DRAM first, COSMOS an order of magnitude
//! later, COMET last.
//!
//! Pass `--requests N` (default 3000) for trace length per cell, `--seed
//! S` and `--threads T` (report is thread-count invariant).
//!
//! The final block checks the queueing sanity condition the subsystem's
//! acceptance rests on: per device, p99 latency is monotonically
//! non-decreasing in offered load. p99 of a few thousand samples is an
//! order statistic, so in the flat sub-saturation region it carries a few
//! percent of sampling noise across rate points; the check therefore
//! allows a documented 10 % sampling tolerance on each step (the knee
//! itself rises by two orders of magnitude, far beyond any tolerance).
//! The binary exits non-zero if any device violates it.

use comet_bench::{header, parse_flag, Table};
use comet_lab::{
    default_threads, run_campaign, serve_device_axis, serve_load_axis, CampaignSpec, WorkloadSource,
};
use memsim::spec_like_suite;
use std::process::ExitCode;

/// The offered-load grid: ×4 steps from 0.25 M req/s to ~4 G req/s,
/// spanning the near-idle regime and every device's saturation knee (2D
/// DRAM ~37 M, COSMOS ~0.2 G, COMET ~0.8 G lines/s). Below its knee the
/// 2D_DDR4 tail is set by refresh, not queueing: every bank is blocked for
/// tRFC = 350 ns of each tREFI = 7.8 µs (4.5 % of the time), so more than
/// 1 % of requests wait out part of a refresh and p99 stays near tRFC at
/// every sub-knee load — measured 334 / 354 / 353 / 380 ns at 0.25 / 1 / 4
/// / 16 M req/s (`--requests 2000`, seed 42), monotone within the
/// check's tolerance.
pub fn load_grid() -> Vec<f64> {
    (0..8).map(|i| 0.25e6 * 4f64.powi(i)).collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let requests = parse_flag(&args, "--requests", 3000) as usize;
    let seed = parse_flag(&args, "--seed", 42);
    let threads = parse_flag(&args, "--threads", default_threads() as u64) as usize;

    header(
        "fig_latency_vs_load",
        "tail latency vs offered load per memory system (serve engine)",
        "Fig. 9/10 corollary: the photonic systems sustain orders of \
         magnitude more offered load before the queueing knee; p99 is \
         monotone in load for every device (M/G/k sanity)",
    );

    let workload = spec_like_suite(requests)
        .into_iter()
        .next()
        .expect("suite is non-empty"); // mcf-like: random, read-heavy
    let rates = load_grid();

    let mut spec = CampaignSpec::new(
        "latency-vs-load",
        seed,
        serve_device_axis(),
        vec![WorkloadSource::Profile(workload)],
    );
    spec.engines = serve_load_axis(&rates, requests);
    let report = run_campaign(&spec, threads);

    let mut table = Table::new(vec![
        "device",
        "offered_Mrps",
        "achieved_Mrps",
        "p50_ns",
        "p95_ns",
        "p99_ns",
        "max_ns",
    ]);
    for cell in &report.cells {
        let s = &cell.stats;
        let offered = rates[spec.coords(cell.index).engine];
        let achieved = if s.makespan.is_zero() {
            0.0
        } else {
            s.completed as f64 / s.makespan.as_seconds()
        };
        table.row(vec![
            s.device.clone(),
            format!("{:.3}", offered / 1e6),
            format!("{:.3}", achieved / 1e6),
            format!("{:.1}", s.p50_latency.as_nanos()),
            format!("{:.1}", s.p95_latency.as_nanos()),
            format!("{:.1}", s.p99_latency.as_nanos()),
            format!("{:.1}", s.max_latency.as_nanos()),
        ]);
    }
    println!("## latency vs offered load");
    table.print();

    println!("## p99 monotonicity per device");
    let mut all_monotone = true;
    for summary in report.device_summaries() {
        let p99s: Vec<f64> = report
            .cells_for(&summary.device)
            .iter()
            .map(|c| c.stats.p99_latency.as_nanos())
            .collect();
        // Strict check, with the documented 10 % order-statistic
        // tolerance on sub-saturation wiggle.
        let monotone = p99s.windows(2).all(|w| w[1] >= w[0] * 0.90);
        let strict = p99s.windows(2).all(|w| w[1] >= w[0]);
        println!(
            "# {}: p99 {} across the load sweep ({} ns)",
            summary.device,
            match (strict, monotone) {
                (true, _) => "non-decreasing",
                (false, true) => "non-decreasing within sampling tolerance",
                (false, false) => "NOT monotone",
            },
            p99s.iter()
                .map(|p| format!("{p:.3}"))
                .collect::<Vec<_>>()
                .join(" "),
        );
        all_monotone &= monotone;
    }
    if all_monotone {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
