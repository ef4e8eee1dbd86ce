//! End-to-end service scenarios: the `comet-serve` traffic subsystem
//! driving the full architecture stack (COMET device ← photonic circuits
//! ← PCM physics) under open/closed-loop multi-tenant load.

use comet::CometConfig;
use comet_serve::{run_service, ArrivalProcess, BatchConfig, ServeSpec, TenantSpec};
use comet_units::Time;
use dota::TransformerWorkload;
use memsim::{spec_like_suite, DramConfig};

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
        assert_eq!(tenant.completed, 600, "{}", tenant.name);
        assert!(tenant.percentile(99.0) >= tenant.percentile(50.0));
        assert!(tenant.max_latency >= tenant.percentile(99.0));
        assert!(tenant.throughput_rps(report.stats.makespan) > 0.0);
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
