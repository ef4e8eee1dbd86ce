//! Write energy vs payload entropy per write-reduction policy — the
//! data-plane acceptance figure.
//!
//! A thin wrapper over a `comet-lab` campaign through the `comet-serve`
//! engine: [`data_policy_axis`] (EPCM-oblivious / EPCM-DCW /
//! EPCM-DCW-FNW — the same EPCM-MM array priced per cell transition from
//! the physics layer's GST programming table) × [`payload_entropy_axis`]
//! (all-zero → sparse updates → DOTA transformer weights → complement
//! toggling → uniform), one write-heavy hot-line workload shape. The
//! flat-cost `EPCM-MM` baseline rides along for context (its energy is a
//! constant per write, so it draws the horizontal line content-awareness
//! removes).
//!
//! Every device sees the *identical* request and payload stream (open
//! loop, same cell seed, payload generation is pre-device), so per
//! entropy point the energy differences are pure policy: DCW skips
//! conserved cells for the price of a read probe, and Flip-N-Write is
//! never worse than DCW on the write it decides (its flip is gated on a
//! Pareto win in cells *and* energy, with a one-erase margin;
//! see `comet_data::policy` for why the *cumulative* ordering is an
//! empirical property of the swept payload sources rather than a
//! theorem). The final block asserts the ordering the subsystem's
//! acceptance rests on — **DCW+FNW ≤ DCW ≤ oblivious at every swept
//! entropy point** — and the binary exits non-zero if any point violates
//! it, making this a pinned-seed regression gate.
//!
//! Pass `--requests N` (default 1500) for stores per cell, `--seed S`,
//! `--threads T` (report is thread-count invariant).

use comet_bench::{header, parse_flag, ratio, Table};
use comet_lab::{
    data_policy_axis, default_threads, device_by_name, payload_entropy_axis, run_campaign,
    CampaignSpec, WorkloadSource,
};
use comet_serve::ArrivalProcess;
use comet_units::{ByteCount, Time};
use memsim::{AccessPattern, WorkloadProfile};
use std::process::ExitCode;

/// The policy ordering chain checked at every entropy point, cheapest
/// last.
const POLICY_CHAIN: [&str; 3] = ["EPCM-oblivious", "EPCM-DCW", "EPCM-DCW-FNW"];

/// A store-dominated, hot-line workload: writes revisit a small line pool
/// fast, which is the regime where content-awareness matters (the first
/// touch of a line always programs; savings come from rewrites).
fn hot_write_profile(requests: usize) -> WorkloadProfile {
    WorkloadProfile {
        name: "hot-writes".into(),
        read_fraction: 0.0,
        footprint: ByteCount::new(256 * 64),
        pattern: AccessPattern::Random,
        interarrival: Time::from_nanos(10.0),
        requests,
        line_bytes: 64,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let requests = parse_flag(&args, "--requests", 1500) as usize;
    let seed = parse_flag(&args, "--seed", 42);
    let threads = parse_flag(&args, "--threads", default_threads() as u64) as usize;

    header(
        "fig_write_energy_vs_entropy",
        "write energy vs payload entropy per write-reduction policy (data plane)",
        "DCW/Flip-N-Write corollary: most written bits don't change, so \
         content-aware pricing orders DCW+FNW <= DCW <= oblivious at every \
         payload entropy",
    );

    let mut devices = data_policy_axis();
    devices.push(device_by_name("EPCM-MM").expect("flat baseline is registered"));
    let mut spec = CampaignSpec::new(
        "write-energy-vs-entropy",
        seed,
        devices,
        vec![WorkloadSource::Profile(hot_write_profile(requests))],
    );
    spec.engines = payload_entropy_axis(ArrivalProcess::poisson(2.0e7), requests);
    let entropy_labels: Vec<String> = spec.engines.iter().map(|e| e.label.clone()).collect();
    let report = run_campaign(&spec, threads);

    let mut table = Table::new(vec![
        "payload",
        "policy",
        "writes",
        "write_energy_nJ",
        "energy_per_write_pJ",
        "vs_oblivious",
    ]);
    let energy_of = |device: &str, engine: &str| -> Option<(u64, f64)> {
        report
            .cells
            .iter()
            .find(|c| c.device == device && c.engine == engine)
            .map(|c| (c.stats.writes, c.stats.energy.access.as_joules() * 1e9))
    };
    for engine in &entropy_labels {
        let oblivious = energy_of(POLICY_CHAIN[0], engine).expect("grid is full").1;
        for device in POLICY_CHAIN.iter().chain(["EPCM-MM"].iter()) {
            let (writes, energy) = energy_of(device, engine).expect("grid is full");
            table.row(vec![
                engine.trim_start_matches("payload-").to_string(),
                device.to_string(),
                writes.to_string(),
                format!("{energy:.2}"),
                format!("{:.1}", energy * 1e3 / writes.max(1) as f64),
                ratio(energy, oblivious),
            ]);
        }
    }
    println!("## write energy per policy across payload entropy");
    table.print();
    println!(
        "# every policy row sees the identical store stream; EPCM-MM is the \
         flat-cost baseline outside the ordering check"
    );

    println!("## ordering check: DCW+FNW <= DCW <= oblivious at every entropy point");
    let mut all_ordered = true;
    for engine in &entropy_labels {
        let energies: Vec<f64> = POLICY_CHAIN
            .iter()
            .map(|d| energy_of(d, engine).expect("grid is full").1)
            .collect();
        // The chain is cheapest-last; equality is legitimate (e.g. FNW
        // never flips on uniform payloads).
        let ordered = energies.windows(2).all(|w| w[1] <= w[0]);
        println!(
            "# {}: oblivious {:.2} nJ >= dcw {:.2} nJ >= dcw+fnw {:.2} nJ — {}",
            engine,
            energies[0],
            energies[1],
            energies[2],
            if ordered { "ordered" } else { "VIOLATED" },
        );
        all_ordered &= ordered;
    }
    if all_ordered {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
