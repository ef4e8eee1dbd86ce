//! End-to-end data-plane scenarios: payloads generated at the serve
//! layer, carried through the batch stage and the service core,
//! priced per cell transition by the content-aware EPCM device from the
//! physics layer's programming table, and exported by campaigns.

use comet_data::{attach_payloads, DataPolicy, DataWriteModel, PayloadSpec};
use comet_lab::{
    data_policy_axis, payload_entropy_axis, run_campaign, CampaignSpec, WorkloadSource,
};
use comet_serve::{run_service, ArrivalProcess, BatchConfig, ServeSpec, TenantSpec};
use comet_units::{ByteCount, Time};
use memsim::{
    run_simulation, AccessPattern, EpcmConfig, EpcmDevice, FnFactory, SimConfig, WorkloadProfile,
};

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

/// The acceptance ordering, asserted over a campaign grid exactly like
/// the `fig_write_energy_vs_entropy` binary sweeps (smaller, same
/// structure): DCW+FNW ≤ DCW ≤ content-oblivious write energy at every
/// payload entropy point.
#[test]
fn write_energy_orders_policies_at_every_entropy_point() {
    let mut spec = CampaignSpec::new(
        "data-ordering",
        42,
        data_policy_axis(),
        vec![WorkloadSource::Profile(hot_write_profile(400))],
    );
    spec.engines = payload_entropy_axis(ArrivalProcess::poisson(2.0e7), 400);
    let report = run_campaign(&spec, 4);
    assert_eq!(report.cells.len(), 3 * 5);

    let energy = |device: &str, engine: &str| {
        report
            .cells
            .iter()
            .find(|c| c.device == device && c.engine == engine)
            .map(|c| c.stats.energy.access.as_joules())
            .expect("grid is full")
    };
    for engine in ["zero", "sparse-0.05", "weights", "toggle", "uniform"] {
        let engine = format!("payload-{engine}");
        let oblivious = energy("EPCM-oblivious", &engine);
        let dcw = energy("EPCM-DCW", &engine);
        let fnw = energy("EPCM-DCW-FNW", &engine);
        assert!(fnw <= dcw, "{engine}: fnw {fnw} > dcw {dcw}");
        assert!(
            dcw <= oblivious,
            "{engine}: dcw {dcw} > oblivious {oblivious}"
        );
        // Content-awareness must actually bite somewhere below max
        // entropy: on the all-zero sweep DCW conserves every cell.
        if engine == "payload-zero" {
            assert!(dcw < oblivious * 0.05, "{engine}: DCW should almost free");
        }
        // And the flip showcase: complement-heavy updates flip words.
        if engine == "payload-toggle" {
            assert!(fnw < dcw * 0.8, "{engine}: FNW should beat DCW clearly");
        }
    }
    // Per-tenant serve stats rode along in the campaign export.
    for cell in &report.cells {
        assert_eq!(cell.tenants.len(), 1, "{}", cell.engine);
        assert_eq!(cell.tenants[0].name, "data");
        assert_eq!(cell.tenants[0].completed, cell.stats.completed);
    }
}

/// Same-line coalescing merges payloads: the surviving access writes the
/// *newest* store's bytes, so a batched run never spends more array
/// energy than an unbatched one on identical traffic.
#[test]
fn batch_coalescing_merges_payloads_without_extra_energy() {
    let factory = FnFactory::new("EPCM-DCW", || {
        Box::new(EpcmDevice::with_pricer(
            EpcmConfig::epcm_mm(),
            Box::new(DataWriteModel::gst(4, DataPolicy::Dcw)),
        ))
    });
    let mut profile = hot_write_profile(600);
    profile.footprint = ByteCount::new(16 * 64); // hot lines coalesce
    let base = ServeSpec::open_loop(ArrivalProcess::deterministic(2.0e8), 600);
    let with_payload = |spec: ServeSpec| {
        let mut spec = spec;
        spec.tenants[0] = spec.tenants[0].clone().with_payload(PayloadSpec::Uniform);
        spec
    };
    let plain = run_service(&factory, &with_payload(base.clone()), &profile, 3, "hot");
    let batched = run_service(
        &factory,
        &with_payload(base.with_batch(BatchConfig::new(Time::from_nanos(200.0), 16))),
        &profile,
        3,
        "hot",
    );
    assert_eq!(plain.stats.completed, 600);
    assert_eq!(batched.stats.completed, 600);
    assert!(batched.coalesced_writes > 0, "hot lines must coalesce");
    assert!(
        batched.stats.energy.access < plain.stats.energy.access,
        "coalesced stores skip whole device accesses"
    );
}

/// The replay engine carries payloads too: `attach_payloads` decorates a
/// synthetic trace and the content-aware device prices it — identically
/// across runs, and far below the oblivious policy on low-entropy data.
#[test]
fn trace_replay_prices_attached_payloads() {
    let profile = hot_write_profile(500);
    let mut trace = profile.generate(7);
    attach_payloads(&mut trace, PayloadSpec::Zero, 11);
    let run = |policy: DataPolicy| {
        let mut dev = EpcmDevice::with_pricer(
            EpcmConfig::epcm_mm(),
            Box::new(DataWriteModel::gst(4, policy)),
        );
        run_simulation(&mut dev, &trace, &SimConfig::paced("zero-trace"))
    };
    let dcw = run(DataPolicy::Dcw);
    let oblivious = run(DataPolicy::Oblivious);
    assert_eq!(dcw.completed, 500);
    assert_eq!(dcw, run(DataPolicy::Dcw), "replay is deterministic");
    assert!(
        dcw.energy.access.as_joules() < oblivious.energy.access.as_joules() * 0.05,
        "all-zero rewrites conserve every cell under DCW"
    );
    // Writes that skip every cell also finish faster than full programs.
    assert!(dcw.makespan <= oblivious.makespan);
    assert!(dcw.p99_latency <= oblivious.p99_latency);
}

/// A tenant mix where only one tenant carries payloads: the other's
/// stores price at the unknown-content worst case, and both finish.
#[test]
fn mixed_payload_and_payloadless_tenants_share_a_device() {
    let factory = FnFactory::new("EPCM-DCW", || {
        Box::new(EpcmDevice::with_pricer(
            EpcmConfig::epcm_mm(),
            Box::new(DataWriteModel::gst(4, DataPolicy::Dcw)),
        ))
    });
    let profile = hot_write_profile(300);
    let spec = ServeSpec {
        tenants: vec![
            TenantSpec::open("data", ArrivalProcess::poisson(5.0e7), 300)
                .with_payload(PayloadSpec::Zero),
            TenantSpec::open("blind", ArrivalProcess::poisson(5.0e7), 300),
        ],
        scheduler: memsim::Scheduler::default(),
        shards: 1,
        batch: None,
    };
    let report = run_service(&factory, &spec, &profile, 23, "mixed");
    assert_eq!(report.stats.completed, 600);
    assert_eq!(report.tenants[0].completed, 300);
    assert_eq!(report.tenants[1].completed, 300);
}

/// The payload-carrying replay path, pinned to the bit: payloads
/// attached to a mixed read/write trace (sparse updates of a hot line set,
/// and uniform noise) replayed on EPCM-DCW-FNW. Access energy, makespan,
/// total latency and the device's data-plane counts must not move when
/// the request record's layout changes.
#[test]
fn trace_replay_with_payloads_is_pinned_exactly() {
    let profile = WorkloadProfile {
        name: "pinned-payloads".into(),
        read_fraction: 0.3,
        footprint: ByteCount::new(512 * 64),
        pattern: AccessPattern::Random,
        interarrival: Time::from_nanos(20.0),
        requests: 3000,
        line_bytes: 64,
    };
    let run = |spec: PayloadSpec| {
        let mut trace = profile.generate(5);
        attach_payloads(&mut trace, spec, 17);
        let mut dev = EpcmDevice::with_pricer(
            EpcmConfig::epcm_mm(),
            Box::new(DataWriteModel::gst(4, DataPolicy::DcwFnw)),
        );
        let stats = run_simulation(&mut dev, &trace, &SimConfig::paced("pinned"));
        let plane = dev.data_plane_stats().expect("content-aware device");
        (
            stats.completed,
            stats.energy.access.as_joules().to_bits(),
            stats.makespan.as_seconds().to_bits(),
            stats.total_latency.as_seconds().to_bits(),
            (
                plane.priced_writes,
                plane.unpriced_writes,
                plane.cells_written,
                plane.cells_total,
            ),
        )
    };
    let sparse = run(PayloadSpec::SparseUpdate {
        flip_fraction: 0.05,
    });
    let uniform = run(PayloadSpec::Uniform);
    // (completed, access energy J, makespan s, total latency s, (priced,
    // unpriced, cells written, cells spanned)); the f64s as raw bits.
    assert_eq!(
        sparse,
        (
            3000,
            0x3eec_962f_61d1_4205, // 1.3631e-5 J
            0x3f24_e628_8765_396b, // 159.45 us
            0x3fc3_1c5d_c153_fbf3, // 0.1493 s
            (2151, 0, 72_835, 275_328),
        ),
        "sparse-update trace"
    );
    assert_eq!(
        uniform,
        (
            3000,
            0x3f0c_c30d_a770_3bac, // 5.4859e-5 J
            0x3f27_a80f_db84_553b, // 180.48 us
            0x3fc6_4d62_f357_4971, // 0.1742 s
            (2151, 0, 256_999, 275_328),
        ),
        "uniform trace"
    );
}
