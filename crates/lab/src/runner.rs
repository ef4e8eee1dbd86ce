//! The sharded campaign runner.
//!
//! Cells are independent simulations, so the runner is an embarrassingly
//! parallel work queue: `threads` scoped OS threads pull cell indices from
//! a shared atomic counter, each builds a private device from the cell's
//! factory, instantiates the cell's trace with the cell's derived seed,
//! runs the sequential engine, and deposits the result at the cell's slot.
//! Determinism is structural — a cell's inputs depend only on the spec and
//! the cell index, never on scheduling — so any thread count produces the
//! identical [`CampaignReport`] (and therefore byte-identical exports).

use crate::report::{CampaignReport, CellReport, TenantSummary};
use crate::spec::{CampaignSpec, Engine, WorkloadSource};
use crate::spec_json::{check_byte_totals_fit, check_one_shard};
use memsim::{run_simulation, SimConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// The default worker count for campaign runners and their CLI wrappers:
/// every hardware thread, or one when parallelism cannot be queried.
pub fn default_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs every cell of `spec` across `threads` worker threads (clamped to
/// at least one; one thread reproduces the plain sequential sweep).
///
/// # Examples
///
/// ```
/// use comet_lab::{run_campaign, CampaignSpec, WorkloadSource};
/// use memsim::{spec_like_suite, DramConfig, EpcmConfig};
///
/// let spec = CampaignSpec::new(
///     "doc",
///     42,
///     vec![
///         Box::new(DramConfig::ddr3_1600_2d()),
///         Box::new(EpcmConfig::epcm_mm()),
///     ],
///     spec_like_suite(200).into_iter().take(2).map(WorkloadSource::Profile).collect(),
/// );
/// let report = run_campaign(&spec, 2);
/// assert_eq!(report.cells.len(), 4);
/// assert_eq!(report.cells[0].stats.completed, 200);
/// ```
///
/// # Panics
///
/// Before any cell runs, if a serve engine point sets `shards` other than
/// 1, or a cell requests more bytes than its report can count in bits,
/// with the error [`crate::spec_from_json`] returns for the same spec.
pub fn run_campaign(spec: &CampaignSpec, threads: usize) -> CampaignReport {
    if let Err(e) = check_one_shard(spec).and_then(|()| check_byte_totals_fit(spec)) {
        panic!("{e}");
    }
    let n = spec.cells();
    let workers = threads.max(1).min(n.max(1));
    let next = AtomicUsize::new(0);

    let mut slots: Vec<Option<CellReport>> = Vec::new();
    slots.resize_with(n, || None);

    if workers <= 1 {
        for (index, slot) in slots.iter_mut().enumerate() {
            *slot = Some(run_cell(spec, index));
        }
    } else {
        let mut chunks: Vec<Vec<(usize, CellReport)>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= n {
                                return done;
                            }
                            done.push((index, run_cell(spec, index)));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign worker panicked"))
                .collect()
        });
        for (index, cell) in chunks.drain(..).flatten() {
            slots[index] = Some(cell);
        }
    }

    CampaignReport {
        name: spec.name.clone(),
        seed: spec.seed,
        replicates: spec.replicates.max(1),
        normalize_lines: spec.normalize_lines,
        cells: slots
            .into_iter()
            .map(|s| s.expect("every cell index was claimed exactly once"))
            .collect(),
    }
}

/// Rescales a budget of `requests` lines of `from` bytes to lines of `to`
/// bytes, preserving total bytes (the Fig. 9 equal-bytes methodology).
/// Rounded division, floored at one request: a non-divisible count lands
/// within half a line of the target bytes instead of silently truncating
/// to an empty cell.
fn rescale_requests(requests: usize, from: u64, to: u64) -> usize {
    let bytes = (requests as u64)
        .checked_mul(from)
        .expect("run_campaign bounds every budget's bytes");
    ((bytes + to / 2) / to).max(1) as usize
}

/// Resizes a profile to a device-native cache line (see
/// [`rescale_requests`]).
fn normalize_profile(profile: &memsim::WorkloadProfile, line: u64) -> memsim::WorkloadProfile {
    let mut profile = profile.clone();
    profile.requests = rescale_requests(profile.requests, profile.line_bytes, line);
    profile.line_bytes = line;
    profile
}

/// Resizes a service scenario to a device-native cache line: each
/// tenant's budget keeps its bytes, counted in lines of the profile that
/// shapes the tenant (its own, else `fallback`), and any profile a tenant
/// carries is resized like the cell's.
fn normalize_serve(
    serve: &comet_serve::ServeSpec,
    fallback: &memsim::WorkloadProfile,
    line: u64,
) -> comet_serve::ServeSpec {
    let mut serve = serve.clone();
    for tenant in &mut serve.tenants {
        let from = tenant.profile.as_ref().unwrap_or(fallback).line_bytes;
        tenant.requests = rescale_requests(tenant.requests, from, line);
        if let Some(profile) = &mut tenant.profile {
            *profile = normalize_profile(profile, line);
        }
    }
    serve
}

/// Runs one cell: a private device, seeded trace or service scenario,
/// sequential engine.
fn run_cell(spec: &CampaignSpec, index: usize) -> CellReport {
    let c = spec.coords(index);
    let factory = &spec.devices[c.device];
    let workload = &spec.workloads[c.workload];
    let engine = &spec.engines[c.engine];
    let seed = spec.cell_seed(c.replicate);

    let (stats, tenants) = match &engine.engine {
        Engine::Serve(serve) => {
            // Service cell: the event-driven comet-serve core. Sources are
            // generative, so the workload must be a profile (it shapes every
            // tenant that carries no profile of its own).
            let profile = match workload {
                WorkloadSource::Profile(p) => p,
                WorkloadSource::Trace { name, .. } => panic!(
                    "serve engine point '{}' needs a profile workload, got fixed trace '{name}'",
                    engine.label
                ),
            };
            let (profile, serve) = if spec.normalize_lines {
                let line = factory.device_topology().line_bytes;
                (
                    normalize_profile(profile, line),
                    normalize_serve(serve, profile, line),
                )
            } else {
                (profile.clone(), serve.clone())
            };
            let report =
                comet_serve::run_service(factory.as_ref(), &serve, &profile, seed, workload.name());
            let tenants = report
                .tenants
                .iter()
                .map(TenantSummary::from_stats)
                .collect();
            (report.stats, tenants)
        }
        &Engine::Replay { scheduler, replay } => {
            let mut device = factory.build();
            let config = SimConfig {
                scheduler,
                replay,
                workload: workload.name().into(),
            };
            let stats = match workload {
                WorkloadSource::Profile(profile) => {
                    let profile = if spec.normalize_lines {
                        normalize_profile(profile, device.topology().line_bytes)
                    } else {
                        profile.clone()
                    };
                    let trace = profile.generate(seed);
                    run_simulation(device.as_mut(), &trace, &config)
                }
                WorkloadSource::Trace { requests, .. } => {
                    run_simulation(device.as_mut(), requests.as_slice(), &config)
                }
            };
            (stats, Vec::new())
        }
    };

    CellReport {
        index,
        device: factory.device_name(),
        workload: workload.name().to_string(),
        engine: engine.label.clone(),
        replicate: c.replicate,
        seed,
        stats,
        tenants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::EnginePoint;
    use comet_units::{ByteCount, Time};
    use memsim::{
        AccessPattern, DramConfig, EpcmConfig, MemOp, MemRequest, SimConfig, WorkloadProfile,
    };

    fn small_profile(name: &str) -> WorkloadSource {
        WorkloadSource::Profile(WorkloadProfile {
            name: name.into(),
            read_fraction: 0.8,
            footprint: ByteCount::from_mib(8),
            pattern: AccessPattern::Random,
            interarrival: Time::from_nanos(2.0),
            requests: 120,
            line_bytes: 64,
        })
    }

    fn small_spec() -> CampaignSpec {
        CampaignSpec::new(
            "runner-test",
            9,
            vec![
                Box::new(DramConfig::ddr3_1600_2d()),
                Box::new(EpcmConfig::epcm_mm()),
            ],
            vec![small_profile("alpha"), small_profile("beta")],
        )
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let spec = small_spec();
        let sequential = run_campaign(&spec, 1);
        for threads in [2, 3, 8] {
            let parallel = run_campaign(&spec, threads);
            assert_eq!(parallel, sequential, "threads={threads}");
            assert_eq!(parallel.to_json(), sequential.to_json());
            assert_eq!(parallel.to_csv(), sequential.to_csv());
        }
    }

    #[test]
    fn cells_are_in_grid_order_with_correct_labels() {
        let report = run_campaign(&small_spec(), 4);
        assert_eq!(report.cells.len(), 4);
        let labels: Vec<(String, String)> = report
            .cells
            .iter()
            .map(|c| (c.device.clone(), c.workload.clone()))
            .collect();
        assert_eq!(labels[0], ("2D_DDR3".to_string(), "alpha".to_string()));
        assert_eq!(labels[1], ("2D_DDR3".to_string(), "beta".to_string()));
        assert_eq!(labels[2], ("EPCM-MM".to_string(), "alpha".to_string()));
        assert_eq!(labels[3], ("EPCM-MM".to_string(), "beta".to_string()));
        for (i, c) in report.cells.iter().enumerate() {
            assert_eq!(c.index, i);
            assert_eq!(c.stats.completed, 120);
        }
    }

    #[test]
    fn cell_matches_direct_engine_run() {
        // A campaign cell must be bit-identical to hand-running the same
        // trace through the engine — the runner adds nothing.
        let spec = small_spec();
        let report = run_campaign(&spec, 2);
        let profile = match &spec.workloads[0] {
            WorkloadSource::Profile(p) => p.clone(),
            _ => unreachable!(),
        };
        let trace = profile.generate(9);
        let mut dev = memsim::DramDevice::new(DramConfig::ddr3_1600_2d());
        let direct = run_simulation(&mut dev, &trace, &SimConfig::paced("alpha"));
        assert_eq!(report.cells[0].stats, direct);
    }

    #[test]
    fn normalize_lines_rescales_requests() {
        // COMET-like 128 B lines halve the request count of a 64 B profile.
        let mut spec = small_spec();
        spec.devices = vec![Box::new(comet_config_128())];
        let report = run_campaign(&spec, 1);
        assert_eq!(report.cells[0].stats.completed, 60);
        assert_eq!(report.cells[0].stats.bytes.value(), 60 * 128);

        spec.normalize_lines = false;
        let raw = run_campaign(&spec, 1);
        assert_eq!(raw.cells[0].stats.completed, 120);
    }

    // A minimal 128-B-line device factory without pulling the comet crate
    // into memsim-level tests: EPCM config with a widened line.
    fn comet_config_128() -> EpcmConfig {
        let mut cfg = EpcmConfig::epcm_mm();
        cfg.name = "EPCM-128".into();
        cfg.topology.line_bytes = 128;
        cfg
    }

    #[test]
    #[should_panic(expected = "spec schema error: workload 'huge': 4 requests of \
                               576460752303423488 bytes total 2305843009213693952 bytes")]
    fn a_code_built_byte_total_past_a_u64_bit_count_panics_before_running() {
        // 4 × 2^59 B is 2^64 bits: the parser rejects this spec, and a spec
        // built in code must not wrap the bit count either.
        let WorkloadSource::Profile(mut huge) = small_profile("huge") else {
            unreachable!("small_profile builds a profile")
        };
        (huge.requests, huge.line_bytes) = (4, 1 << 59);
        let mut spec = small_spec();
        spec.normalize_lines = false;
        spec.workloads = vec![WorkloadSource::Profile(huge)];
        run_campaign(&spec, 1);
    }

    #[test]
    fn normalize_lines_never_empties_a_cell() {
        // Regression: truncating division used to turn a 1-request 64 B
        // profile into 0 requests on a 128 B device (and to shave odd
        // counts short of the byte target); rounded division floored at 1
        // keeps every cell populated and within half a line of the target.
        let mut spec = small_spec();
        spec.devices = vec![Box::new(comet_config_128())];
        for (requests, expect) in [(1usize, 1u64), (3, 2), (1001, 501)] {
            for w in &mut spec.workloads {
                if let WorkloadSource::Profile(p) = w {
                    p.requests = requests;
                }
            }
            let report = run_campaign(&spec, 1);
            assert_eq!(
                report.cells[0].stats.completed, expect,
                "requests={requests}"
            );
        }
    }

    #[test]
    fn serve_cells_run_the_service_core_and_stay_thread_invariant() {
        let mut spec = small_spec();
        spec.engines = vec![
            EnginePoint::paced(),
            EnginePoint::serve(
                "serve-closed4",
                comet_serve::ServeSpec::closed_loop(4, Time::from_nanos(20.0), 150),
            ),
        ];
        let sequential = run_campaign(&spec, 1);
        let parallel = run_campaign(&spec, 4);
        assert_eq!(sequential, parallel);
        assert_eq!(sequential.to_json(), parallel.to_json());
        let serve_cells: Vec<_> = sequential
            .cells
            .iter()
            .filter(|c| c.engine == "serve-closed4")
            .collect();
        assert_eq!(serve_cells.len(), 4);
        for cell in serve_cells {
            // Serve cells complete the scenario budget, not the profile's
            // request count, and carry tail percentiles.
            assert_eq!(cell.stats.completed, 150, "{}", cell.device);
            assert!(cell.stats.p99_latency >= cell.stats.p50_latency);
            assert!(cell.stats.p50_latency > Time::ZERO);
            // Per-tenant results ride on the cell and decompose the
            // aggregate exactly.
            assert_eq!(cell.tenants.len(), 1);
            assert_eq!(cell.tenants[0].name, "closed");
            assert_eq!(cell.tenants[0].completed, 150);
            // One tenant: its percentiles are the cell's.
            let (t, s) = (&cell.tenants[0], &cell.stats);
            assert_eq!(
                (t.p50_latency, t.p95_latency, t.p99_latency),
                (s.p50_latency, s.p95_latency, s.p99_latency)
            );
        }
        // Replay cells carry no tenants.
        for cell in sequential
            .cells
            .iter()
            .filter(|c| c.engine != "serve-closed4")
        {
            assert!(cell.tenants.is_empty());
        }
    }

    #[test]
    fn normalize_lines_rescales_serve_tenant_budgets() {
        // A profile-less tenant counts its budget in lines of the cell's
        // profile, a tenant with its own profile in lines of that one;
        // both keep their bytes on a 128 B device.
        let own = match small_profile("own") {
            WorkloadSource::Profile(p) => p,
            _ => unreachable!(),
        };
        let serve = comet_serve::ServeSpec::closed_loop(4, Time::from_nanos(20.0), 150)
            .with_tenant(
                comet_serve::TenantSpec::open(
                    "open",
                    comet_serve::ArrivalProcess::poisson(2.0e7),
                    100,
                )
                .with_profile(own),
            );
        let mut spec = CampaignSpec::new(
            "serve-normalize",
            5,
            vec![
                Box::new(EpcmConfig::epcm_mm()),
                Box::new(comet_config_128()),
            ],
            vec![small_profile("alpha")],
        );
        spec.engines = vec![EnginePoint::serve("serve", serve)];
        let report = run_campaign(&spec, 1);
        let completed =
            |cell: &CellReport| -> Vec<u64> { cell.tenants.iter().map(|t| t.completed).collect() };
        assert_eq!(completed(&report.cells[0]), [150, 100]);
        assert_eq!(completed(&report.cells[1]), [75, 50]);
        for cell in &report.cells {
            assert_eq!(cell.stats.bytes.value(), 250 * 64, "{}", cell.device);
        }

        spec.normalize_lines = false;
        let raw = run_campaign(&spec, 1);
        assert_eq!(completed(&raw.cells[1]), [150, 100]);
    }

    #[test]
    #[should_panic(
        expected = "serve engine 'serve': 'shards' is 2, but channel sharding was removed"
    )]
    fn a_code_built_shard_count_panics_before_running() {
        let mut serve = comet_serve::ServeSpec::closed_loop(1, Time::ZERO, 10);
        serve.shards = 2;
        let mut spec = small_spec();
        spec.engines = vec![EnginePoint::serve("serve", serve)];
        run_campaign(&spec, 1);
    }

    #[test]
    #[should_panic(expected = "needs a profile workload")]
    fn serve_cells_reject_fixed_traces() {
        let mut spec = CampaignSpec::new(
            "serve-trace",
            1,
            vec![Box::new(DramConfig::ddr3_1600_2d())],
            vec![WorkloadSource::trace("fixed", Vec::new())],
        );
        spec.engines = vec![EnginePoint::serve(
            "serve",
            comet_serve::ServeSpec::closed_loop(1, Time::ZERO, 10),
        )];
        let _ = run_campaign(&spec, 1);
    }

    #[test]
    fn fixed_traces_ignore_seed_and_replicates() {
        let reqs: Vec<MemRequest> = (0..50)
            .map(|i| MemRequest::new(i, Time::ZERO, MemOp::Read, i * 64, ByteCount::new(64)))
            .collect();
        let mut spec = CampaignSpec::new(
            "trace-test",
            1234,
            vec![Box::new(DramConfig::ddr3_1600_2d())],
            vec![WorkloadSource::trace("fixed", reqs)],
        );
        spec.replicates = 2;
        spec.engines = vec![EnginePoint::saturation()];
        let report = run_campaign(&spec, 2);
        assert_eq!(report.cells.len(), 2);
        // Same trace, same engine: replicates are identical runs.
        assert_eq!(report.cells[0].stats, report.cells[1].stats);
        assert_ne!(report.cells[0].seed, report.cells[1].seed);
    }
}
