//! The payload-skip rule: a device that says it ignores payloads
//! (`MemoryDevice::reads_payloads() == false`) must time and price every
//! access alike with and without one, and the serve engine, which then
//! generates none, must report exactly what it reports when it does.

use comet_data::PayloadSpec;
use comet_lab::{device_by_name, device_names};
use comet_serve::{run_service, ArrivalProcess, BatchConfig, ServeSpec, TenantSpec};
use comet_units::{Energy, Power, Time};
use memsim::{
    spec_like_suite, AccessTiming, DecodedAddress, DeviceFactory, LineData, MemOp, MemoryDevice,
    Scheduler, Topology,
};
use proptest::prelude::*;

/// The registered devices that price writes from their content.
const CONTENT_AWARE: [&str; 3] = ["EPCM-oblivious", "EPCM-DCW", "EPCM-DCW-FNW"];

#[test]
fn only_the_content_priced_devices_read_payloads() {
    for name in device_names() {
        let device = device_by_name(name).expect("registered").build();
        assert_eq!(
            device.reads_payloads(),
            CONTENT_AWARE.contains(&name),
            "{name}"
        );
    }
}

proptest! {
    #[test]
    fn devices_that_ignore_payloads_time_them_alike(
        steps in proptest::collection::vec(
            // (write?, coordinates, picoseconds since the last issue,
            // carries a payload?, payload seed)
            (any::<bool>(), any::<u64>(), 0u64..400_000, any::<bool>(), any::<u64>()),
            1..120,
        ),
    ) {
        for name in device_names() {
            let factory = device_by_name(name).expect("registered");
            let (mut with, mut without) = (factory.build(), factory.build());
            if with.reads_payloads() {
                continue;
            }
            let Topology { channels, banks, rows, columns, line_bytes } = with.topology();
            let mut now = Time::ZERO;
            for &(write, coords, step, carries, seed) in &steps {
                now += Time::from_picos(step as f64);
                let loc = DecodedAddress {
                    channel: coords % channels,
                    bank: (coords >> 8) % banks,
                    // Few rows and columns, so rows reopen and lines recur.
                    row: (coords >> 16) % rows.min(4),
                    column: (coords >> 24) % columns.min(4),
                };
                let issue = with.bank_available(&loc, now);
                prop_assert_eq!(issue, without.bank_available(&loc, now), "{}", name);
                let op = if write { MemOp::Write } else { MemOp::Read };
                let line = (write && carries)
                    .then(|| PayloadSpec::Uniform.instantiate(seed).next_line(0, line_bytes));
                let a = with.access_line(&loc, op, issue, line.as_ref());
                let b = without.access_line(&loc, op, issue, None);
                prop_assert_eq!(a, b, "{}", name);
            }
            let drained = with.drain_accumulated_energy();
            prop_assert_eq!(drained, without.drain_accumulated_energy(), "{}", name);
        }
    }
}

/// Forwards everything to `inner` except `reads_payloads`, which keeps the
/// trait's default (`true`): the serve engine then generates every payload
/// and passes it down, as it did before devices could decline them.
struct Reading(Box<dyn MemoryDevice>);

impl MemoryDevice for Reading {
    fn name(&self) -> String {
        self.0.name()
    }

    fn topology(&self) -> Topology {
        self.0.topology()
    }

    fn bank_available(&mut self, loc: &DecodedAddress, at: Time) -> Time {
        self.0.bank_available(loc, at)
    }

    fn access(&mut self, loc: &DecodedAddress, op: MemOp, issue: Time) -> AccessTiming {
        self.0.access(loc, op, issue)
    }

    fn access_line(
        &mut self,
        loc: &DecodedAddress,
        op: MemOp,
        issue: Time,
        data: Option<&LineData>,
    ) -> AccessTiming {
        self.0.access_line(loc, op, issue, data)
    }

    fn row_hit(&self, loc: &DecodedAddress) -> bool {
        self.0.row_hit(loc)
    }

    fn drain_accumulated_energy(&mut self) -> Energy {
        self.0.drain_accumulated_energy()
    }

    fn background_power(&self) -> Power {
        self.0.background_power()
    }

    fn interface_delay(&self) -> Time {
        self.0.interface_delay()
    }
}

struct ReadingFactory(Box<dyn DeviceFactory>);

impl DeviceFactory for ReadingFactory {
    fn device_name(&self) -> String {
        self.0.device_name()
    }

    fn build(&self) -> Box<dyn MemoryDevice> {
        Box::new(Reading(self.0.build()))
    }
}

/// An open and a closed tenant, batched, with `payloads` on their stores.
fn mixed_spec(payloads: Option<[PayloadSpec; 2]>, requests: usize) -> ServeSpec {
    let mut open = TenantSpec::open("open", ArrivalProcess::poisson(20.0e6), requests);
    let mut closed = TenantSpec::closed("closed", 8, Time::from_nanos(25.0), requests);
    if let Some([a, b]) = payloads {
        open = open.with_payload(a);
        closed = closed.with_payload(b);
    }
    ServeSpec {
        tenants: vec![open, closed],
        scheduler: Scheduler::FrFcfs { window: 8 },
        shards: 1,
        batch: Some(BatchConfig::new(Time::from_nanos(100.0), 8)),
    }
}

#[test]
fn comet_serves_payload_tenants_as_payload_less_ones() {
    let profile = spec_like_suite(1500)
        .into_iter()
        .find(|p| p.name == "gcc-like")
        .expect("the suite has gcc-like");
    let comet = device_by_name("COMET").expect("registered");
    let payloads = [
        PayloadSpec::SparseUpdate {
            flip_fraction: 0.05,
        },
        PayloadSpec::Uniform,
    ];
    let run = |factory: &dyn DeviceFactory, spec: &ServeSpec| {
        run_service(factory, spec, &profile, 7, "payloads")
    };
    let skipped = run(comet.as_ref(), &mixed_spec(Some(payloads), 1500));
    let none = run(comet.as_ref(), &mixed_spec(None, 1500));
    let generated = run(
        &ReadingFactory(device_by_name("COMET").expect("registered")),
        &mixed_spec(Some(payloads), 1500),
    );
    assert_eq!(skipped.stats.completed, 3000);
    assert_eq!(skipped, none);
    assert_eq!(skipped, generated);
}
