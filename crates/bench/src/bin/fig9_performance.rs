//! Fig. 9 — average bandwidth, EPB and BW/EPB of all seven memory systems
//! across the SPEC-like workload suite.
//!
//! A thin wrapper over a `comet-lab` campaign: the seven devices × eight
//! workloads grid is a [`CampaignSpec`] sharded across threads by
//! [`run_campaign`] (traces are sized to each device's native line by the
//! campaign's line normalization, so equal bytes move through each
//! system). Pass `--requests N` to change the trace length (default 6000),
//! `--seed S` for a different trace instantiation and `--threads T` to
//! control sharding (the results are identical for any thread count).

use comet_bench::{header, parse_flag, ratio, Table};
use comet_lab::{default_threads, fig9_device_axis, run_campaign, CampaignSpec, WorkloadSource};
use memsim::spec_like_suite;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let requests = parse_flag(&args, "--requests", 6000) as usize;
    let seed = parse_flag(&args, "--seed", 42);
    let threads = parse_flag(&args, "--threads", default_threads() as u64) as usize;

    header(
        "fig9",
        "bandwidth / EPB / BW-per-EPB across memory systems",
        "photonic >> electronic bandwidth; 3D DRAM & EPCM beat photonic \
         EPB; COMET beats 2D DRAM and COSMOS EPB; COMET best BW/EPB \
         (Section IV.C)",
    );

    let spec = CampaignSpec::new(
        "fig9",
        seed,
        fig9_device_axis(),
        spec_like_suite(requests)
            .into_iter()
            .map(WorkloadSource::Profile)
            .collect(),
    );
    let report = run_campaign(&spec, threads);

    let mut per_workload = Table::new(vec![
        "device",
        "workload",
        "bandwidth_GBs",
        "epb_pJb",
        "avg_latency_ns",
        "p50_latency_ns",
        "p99_latency_ns",
        "bw_per_epb",
    ]);
    for cell in &report.cells {
        let stats = &cell.stats;
        per_workload.row(vec![
            stats.device.clone(),
            stats.workload.clone(),
            format!("{:.3}", stats.bandwidth().as_gigabytes_per_second()),
            format!("{:.2}", stats.energy_per_bit().as_picojoules_per_bit()),
            format!("{:.1}", stats.avg_latency().as_nanos()),
            format!("{:.0}", stats.p50_latency.as_nanos()),
            format!("{:.0}", stats.p99_latency.as_nanos()),
            format!("{:.4}", stats.bandwidth_per_epb()),
        ]);
    }

    println!("## per-workload results");
    per_workload.print();

    println!("## Fig. 9 averages");
    let summaries = report.device_summaries();
    let mut avg = Table::new(vec![
        "device",
        "avg_bandwidth_GBs",
        "avg_epb_pJb",
        "avg_latency_ns",
        "bw_per_epb",
    ]);
    for s in &summaries {
        avg.row(vec![
            s.device.clone(),
            format!("{:.3}", s.avg_bandwidth_gbs),
            format!("{:.2}", s.avg_epb_pjb),
            format!("{:.1}", s.avg_latency_ns),
            format!("{:.4}", s.bw_per_epb()),
        ]);
    }
    avg.print();

    let comet = summaries.last().expect("COMET runs last");
    println!("## COMET ratios (paper Fig. 9 quotes in parentheses)");
    let paper = [
        ("2D_DDR3", "100.3x BW, 4.1x EPB"),
        ("3D_DDR3", "47.2x BW"),
        ("2D_DDR4", "58.7x BW, 2.3x EPB"),
        ("3D_DDR4", "42.1x BW, 6.5x BW/EPB"),
        ("EPCM-MM", "40.6x BW"),
        ("COSMOS", "5.1x BW, 12.9x EPB, 65.8x BW/EPB, 3x latency"),
    ];
    for (s, (name, quote)) in summaries.iter().zip(paper.iter()) {
        println!(
            "# vs {name}: BW {}, EPB {}, BW/EPB {}, latency {} (paper: {quote})",
            ratio(comet.avg_bandwidth_gbs, s.avg_bandwidth_gbs),
            ratio(s.avg_epb_pjb, comet.avg_epb_pjb),
            ratio(comet.bw_per_epb(), s.bw_per_epb()),
            ratio(s.avg_latency_ns, comet.avg_latency_ns),
        );
    }
}
