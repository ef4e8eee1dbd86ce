//! End-to-end service scenarios: the `comet-serve` traffic subsystem
//! driving the full architecture stack (COMET device ← photonic circuits
//! ← PCM physics) under open/closed-loop multi-tenant load, and the pin
//! that a trace served as one source reports what trace replay reports.

use comet::CometConfig;
use comet_lab::device_by_name;
use comet_serve::{
    run_service, run_service_with_sources, ArrivalProcess, BatchConfig, RequestSource, ServeSpec,
    SourcePoll, Sourced, TenantSpec,
};
use comet_units::Time;
use dota::TransformerWorkload;
use memsim::{
    run_simulation, spec_like_suite, DramConfig, MemRequest, ReplayMode, Scheduler, SimConfig,
};
use proptest::prelude::*;

/// A DOTA DeiT-Base inference tenant and a SPEC-like tenant sharing one
/// COMET memory: the multi-tenant QoS scenario the subsystem exists for.
#[test]
fn transformer_and_spec_tenants_share_comet() {
    let spec_profile = &spec_like_suite(600)[0]; // mcf-like
    let dota_profile = TransformerWorkload::deit_base().profile(600);
    let spec = ServeSpec::open_loop(ArrivalProcess::poisson(2.0e8), 600).with_tenant(
        TenantSpec::open("dota", ArrivalProcess::deterministic(4.0e8), 600)
            .with_profile(dota_profile),
    );
    let report = run_service(
        &CometConfig::comet_4b(),
        &spec,
        spec_profile,
        42,
        "mcf+dota",
    );
    assert_eq!(report.stats.completed, 1200);
    assert_eq!(report.tenants.len(), 2);
    // Both tenants finished their budgets and saw finite tails.
    for tenant in &report.tenants {
        assert_eq!(tenant.completed, 600, "{}", tenant.workload);
        assert!(tenant.p99_latency >= tenant.p50_latency);
        assert!(tenant.max_latency >= tenant.p99_latency);
        assert!(tenant.makespan > Time::ZERO);
    }
    // Channel decomposition is exact.
    assert_eq!(report.channel_total(), report.stats.completed);
}

/// The write-coalescing batch stage saves work on a write-heavy tenant
/// without losing requests, on electronic and photonic devices alike.
#[test]
fn write_batching_conserves_requests_and_saves_energy() {
    let mut profile = spec_like_suite(800)[1].clone(); // lbm-like, write-rich
    profile.footprint = comet_units::ByteCount::new(64 * 64); // hot lines
    profile.pattern = memsim::AccessPattern::Random; // revisit lines fast
    let base = ServeSpec::open_loop(ArrivalProcess::deterministic(5.0e8), 800);
    let batched = base
        .clone()
        .with_batch(BatchConfig::new(Time::from_nanos(120.0), 8));
    for factory in [
        Box::new(DramConfig::ddr3_1600_2d()) as Box<dyn memsim::DeviceFactory>,
        Box::new(CometConfig::comet_4b()),
    ] {
        let plain = run_service(factory.as_ref(), &base, &profile, 3, "hot");
        let coal = run_service(factory.as_ref(), &batched, &profile, 3, "hot");
        assert_eq!(plain.stats.completed, 800);
        assert_eq!(coal.stats.completed, 800);
        assert!(
            coal.coalesced_writes > 0,
            "{} coalesced nothing",
            plain.stats.device
        );
        assert!(
            coal.stats.energy.access <= plain.stats.energy.access,
            "{}: coalescing must not add array work",
            plain.stats.device
        );
    }
}

/// A fixed trace as one serve tenant: each request arrives at its trace
/// time, or at zero in saturation (as replay's saturation mode reads it).
struct TraceSource {
    trace: Vec<MemRequest>,
    next: usize,
    saturate: bool,
}

impl TraceSource {
    fn arrival(&self, request: &MemRequest) -> Time {
        if self.saturate {
            Time::ZERO
        } else {
            request.arrival
        }
    }
}

impl RequestSource for TraceSource {
    fn name(&self) -> &str {
        "trace"
    }

    fn poll(&mut self) -> SourcePoll {
        match self.trace.get(self.next) {
            Some(r) => SourcePoll::Ready(self.arrival(r)),
            None => SourcePoll::Exhausted,
        }
    }

    fn take(&mut self) -> Sourced {
        let r = &self.trace[self.next];
        self.next += 1;
        Sourced {
            arrival: self.arrival(r),
            op: r.op,
            address: r.address,
            size: r.size,
            payload: None,
        }
    }

    fn on_complete(&mut self, _finished: Time) {}
}

proptest! {
    /// One engine equals the other: a trace fed to the service core as one
    /// source, with no batcher, reports exactly the statistics
    /// `run_simulation` reports for it — `total_latency` to the bit, since
    /// both record each request as it issues.
    #[test]
    fn serve_and_replay_agree_on_a_trace(
        profile in 0usize..8,
        requests in 50usize..400,
        seed in any::<u64>(),
    ) {
        let profile = &spec_like_suite(requests)[profile];
        let trace = profile.generate(seed);
        for device in ["2D_DDR4", "EPCM-MM", "COMET", "COSMOS"] {
            let factory = device_by_name(device).expect("registered device");
            for scheduler in [Scheduler::FrFcfs { window: 8 }, Scheduler::Fcfs] {
                for replay in [ReplayMode::Paced, ReplayMode::Saturation] {
                    let config = SimConfig {
                        scheduler,
                        replay,
                        workload: profile.name.clone(),
                    };
                    let replayed = run_simulation(factory.build().as_mut(), &trace, &config);
                    // Only the scheduler is read: the sources are given.
                    let mut spec = ServeSpec::open_loop(ArrivalProcess::deterministic(1.0), 0);
                    spec.scheduler = scheduler;
                    let source = TraceSource {
                        trace: trace.clone(),
                        next: 0,
                        saturate: replay == ReplayMode::Saturation,
                    };
                    let served = run_service_with_sources(
                        factory.as_ref(),
                        vec![Box::new(source)],
                        &spec,
                        &profile.name,
                    );
                    prop_assert_eq!(
                        &served.stats,
                        &replayed,
                        "{} / {} x{} seed {} / {:?} / {:?}: total_latency served {:?}, \
                         replayed {:?}",
                        device,
                        profile.name,
                        requests,
                        seed,
                        scheduler,
                        replay,
                        served.stats.total_latency,
                        replayed.total_latency
                    );
                }
            }
        }
    }
}
