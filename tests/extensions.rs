//! Integration tests for the beyond-the-paper extensions working together
//! with the trace-driven evaluation substrate: dynamic laser power
//! management, wear leveling, and end-to-end readout reliability.

use comet::{
    decode_levels, encode_bytes, CometConfig, CometDevice, DriftModel, LaserPolicy, LevelCodec,
    ReadoutReliability, StartGapRemapper, Subarray, WearTracker, WindowedPolicy,
};
use comet_units::{ByteCount, Decibels, Time};
use memsim::{run_simulation, spec_like_suite, MemOp, MemRequest, SimConfig};

/// DLPM never loses to the static stack on total energy across the whole
/// SPEC-like suite, and never costs more than a sliver of bandwidth.
#[test]
fn laser_management_dominates_static_on_the_suite() {
    for profile in &spec_like_suite(1500) {
        let mut p = profile.clone();
        p.line_bytes = 128;
        p.requests = 750;
        let trace = p.generate(11);

        let mut managed = CometDevice::with_policy(
            CometConfig::comet_4b(),
            LaserPolicy::Windowed(WindowedPolicy::default_1us()),
        );
        let mut static_dev = CometDevice::new(CometConfig::comet_4b());
        let sm = run_simulation(&mut managed, &trace, &SimConfig::paced(&p.name));
        let ss = run_simulation(&mut static_dev, &trace, &SimConfig::paced(&p.name));

        let e_managed = sm.energy.total().as_joules();
        let e_static = ss.energy.total().as_joules();
        assert!(
            e_managed <= e_static * 1.05,
            "{}: managed {e_managed} J should not exceed static {e_static} J",
            p.name
        );
        let bw_m = sm.bandwidth().as_gigabytes_per_second();
        let bw_s = ss.bandwidth().as_gigabytes_per_second();
        assert!(
            bw_m >= bw_s * 0.9,
            "{}: managed bandwidth {bw_m} fell more than 10% below static {bw_s}",
            p.name
        );
    }
}

/// Wear leveling driven by real trace traffic: decode the hot-spot write
/// stream with the COMET device's own topology, and verify start-gap
/// extends the projected lifetime by an order of magnitude.
#[test]
fn start_gap_extends_lifetime_on_trace_traffic() {
    const ROWS: u64 = 256;
    // A database-log-like pattern: 90% of writes hit an 8-row region.
    let writes: Vec<u64> = (0..200_000u64)
        .map(|i| {
            if i % 10 != 0 {
                i % 8
            } else {
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % ROWS
            }
        })
        .collect();

    let mut direct = WearTracker::new(ROWS);
    for &row in &writes {
        direct.record(row);
    }

    let mut sg = StartGapRemapper::new(ROWS, 16);
    let mut leveled = WearTracker::new(sg.physical_rows());
    for &row in &writes {
        leveled.record(sg.write(row));
    }

    assert!(direct.imbalance() > 20.0, "hot spot must be severe");
    assert!(
        leveled.imbalance() < direct.imbalance() / 3.0,
        "leveled {} vs direct {}",
        leveled.imbalance(),
        direct.imbalance()
    );

    // Lifetime: with the same endurance budget, the leveled array lasts
    // proportionally longer because its max wear is smaller.
    let gain = direct.max_wear() as f64 / leveled.max_wear() as f64;
    assert!(gain > 3.0, "lifetime gain {gain}");
}

/// `data` stored in one subarray row at the configuration's bit density and
/// read back through `loss` of uncompensated optical loss.
fn read_through_loss(config: &CometConfig, data: &[u8], loss: Decibels) -> Vec<u8> {
    let bits = config.bits_per_cell;
    let levels = encode_bytes(data, bits);
    let codec = LevelCodec::from_cell_model(config.cell_optics().as_ref(), bits);
    let mut sub = Subarray::new(1, levels.len() as u64);
    sub.write_span(0, 0, &levels);
    decode_levels(
        &sub.read_span_with_loss(&codec, 0, 0, levels.len(), loss),
        bits,
    )
}

/// The reliability analysis and the functional cells agree about the
/// loss margin: losses below the decode flip point leave data intact,
/// losses beyond it corrupt — the margin is real, not advisory.
#[test]
fn reliability_margin_matches_functional_memory() {
    let config = CometConfig::comet_4b();
    let rel = ReadoutReliability::new(config.clone());
    assert!(
        rel.worst_row_error() < 1e-9,
        "nominal COMET-4b reads cleanly"
    );

    let data: Vec<u8> = (0..512).map(|i| (i * 37 % 251) as u8).collect();

    // Below half a level spacing (6%/2 -> ~0.13 dB): intact.
    assert_eq!(read_through_loss(&config, &data, Decibels::new(0.10)), data);

    // Well past a full spacing: decode must corrupt.
    assert_ne!(
        read_through_loss(&config, &data, Decibels::new(0.40)),
        data,
        "a 0.4 dB uncompensated loss must corrupt 4-bit readout"
    );
}

/// Scrub scheduling coexists with performance: a scrub pass modeled as
/// background reads at the drift-derived interval costs a negligible
/// bandwidth share.
#[test]
fn scrub_traffic_is_negligible() {
    let drift = DriftModel::default();
    let interval = drift.scrub_interval(4);
    // The whole 2^21-row array must be re-read once per interval.
    let config = CometConfig::comet_4b();
    let lines = config.capacity().value() / 128;
    // COMET sustains ~1e9 lines/s; scrubbing needs orders of magnitude less.
    let scrub_rate = lines as f64 / interval.as_seconds(); // lines/s
    assert!(
        scrub_rate < 1e6,
        "scrub rate {scrub_rate} lines/s should be far below capability"
    );

    // And as actual traffic: a 1%-duty scrub stream barely moves EPB.
    let mut dev = CometDevice::new(CometConfig::comet_4b());
    let mut trace: Vec<MemRequest> = (0..10_000u64)
        .map(|i| MemRequest::new(i, Time::ZERO, MemOp::Read, i * 128, ByteCount::new(128)))
        .collect();
    // Interleave 1% scrub reads over a distant region.
    for k in 0..100u64 {
        trace.push(MemRequest::new(
            10_000 + k,
            Time::ZERO,
            MemOp::Read,
            (1 << 30) + k * 128,
            ByteCount::new(128),
        ));
    }
    let stats = run_simulation(&mut dev, &trace, &SimConfig::saturation("scrub"));
    assert_eq!(stats.completed, 10_100);
}

/// The laser manager's wake-stall accounting shows up in observed latency:
/// sparse traffic pays the wake latency, saturated traffic does not.
#[test]
fn wake_stalls_are_visible_in_latency() {
    let sparse: Vec<MemRequest> = (0..40u64)
        .map(|i| {
            MemRequest::new(
                i,
                Time::from_micros(i as f64 * 30.0),
                MemOp::Read,
                i * 128,
                ByteCount::new(128),
            )
        })
        .collect();
    let run = |policy| {
        let mut dev = CometDevice::with_policy(CometConfig::comet_4b(), policy);
        let stats = run_simulation(&mut dev, &sparse, &SimConfig::paced("sparse"));
        (stats.avg_latency(), dev.laser_wakeups())
    };
    let (lat_static, wake_static) = run(LaserPolicy::Static);
    let (lat_managed, wake_managed) = run(LaserPolicy::Windowed(WindowedPolicy::default_1us()));
    assert_eq!(wake_static, 0);
    assert!(wake_managed >= 39, "each isolated access wakes the laser");
    let delta = lat_managed.as_nanos() - lat_static.as_nanos();
    let wake = WindowedPolicy::default_1us().wake_latency.as_nanos();
    assert!(
        (delta - wake).abs() < wake * 0.2,
        "latency delta {delta} ns should be about one wake latency ({wake} ns)"
    );
}
