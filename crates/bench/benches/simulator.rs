//! Criterion benches over the trace-driven simulator (the Fig. 9 engine):
//! per-device simulation throughput on a fixed workload, and the
//! controller's address decode on its own.

use comet::{CometConfig, CometDevice};
use comet_units::{ByteCount, Time};
use cosmos::{CosmosConfig, CosmosDevice};
use criterion::{criterion_group, criterion_main, Criterion};
use memsim::{
    run_simulation, AddressMap, DramConfig, DramDevice, EpcmConfig, EpcmDevice, Interleave, MemOp,
    MemRequest, MemoryDevice, SimConfig,
};
use std::hint::black_box;

fn trace(n: u64, line: u64) -> Vec<MemRequest> {
    (0..n)
        .map(|i| {
            let op = if i % 5 == 0 {
                MemOp::Write
            } else {
                MemOp::Read
            };
            MemRequest::new(
                i,
                Time::from_nanos(i as f64 * 0.5),
                op,
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (1 << 28),
                ByteCount::new(line),
            )
        })
        .collect()
}

fn bench_devices(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9/simulate_4k_requests");
    group.sample_size(20);

    let t64 = trace(4096, 64);
    let t128 = trace(4096, 128);

    group.bench_function("2D_DDR3", |b| {
        b.iter(|| {
            let mut dev = DramDevice::new(DramConfig::ddr3_1600_2d());
            black_box(run_simulation(&mut dev, &t64, &SimConfig::paced("bench")))
        })
    });
    group.bench_function("3D_DDR4", |b| {
        b.iter(|| {
            let mut dev = DramDevice::new(DramConfig::ddr4_3d());
            black_box(run_simulation(&mut dev, &t64, &SimConfig::paced("bench")))
        })
    });
    group.bench_function("EPCM-MM", |b| {
        b.iter(|| {
            let mut dev = EpcmDevice::new(EpcmConfig::epcm_mm());
            black_box(run_simulation(&mut dev, &t64, &SimConfig::paced("bench")))
        })
    });
    group.bench_function("COSMOS", |b| {
        b.iter(|| {
            let mut dev = CosmosDevice::new(CosmosConfig::corrected());
            black_box(run_simulation(&mut dev, &t128, &SimConfig::paced("bench")))
        })
    });
    group.bench_function("COMET", |b| {
        b.iter(|| {
            let mut dev = CometDevice::new(CometConfig::comet_4b());
            black_box(run_simulation(&mut dev, &t128, &SimConfig::paced("bench")))
        })
    });
    group.finish();
}

/// Decodes 4096 scattered addresses through the controller's map of each
/// device: COMET's four channels XOR-fold, 2D_DDR4's single channel does
/// not.
fn bench_address_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("memsim/address_decode");
    let addresses: Vec<u64> = (0..4096u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20)
        .collect();
    let devices: [(&str, Box<dyn MemoryDevice>); 2] = [
        ("COMET", Box::new(CometDevice::new(CometConfig::comet_4b()))),
        (
            "2D_DDR4",
            Box::new(DramDevice::new(DramConfig::ddr4_2400_2d())),
        ),
    ];
    for (name, device) in devices {
        let topo = device.topology();
        let map = AddressMap::new(
            topo.channels,
            topo.banks,
            topo.rows,
            topo.columns,
            topo.line_bytes,
            Interleave::RowBankColumnChannelXor,
        )
        .expect("device topologies are powers of two");
        group.bench_function(name, |b| {
            b.iter(|| {
                for &address in &addresses {
                    black_box(map.decode(black_box(address)));
                }
            })
        });
    }
    group.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    let suite = memsim::spec_like_suite(4096);
    c.bench_function("fig9/generate_mcf_like_trace", |b| {
        b.iter(|| black_box(suite[0].generate(42)))
    });
}

criterion_group!(
    simulator,
    bench_devices,
    bench_address_decode,
    bench_trace_generation
);
criterion_main!(simulator);
