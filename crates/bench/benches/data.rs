//! Criterion benchmarks of the data plane's per-write path: the MLC line
//! codec and the content-aware write pricer under each policy, over a
//! sparse-update and a uniform payload stream. Each iteration encodes or
//! prices 1024 lines, so ns/iter ÷ 1024 is the per-line cost.

use comet_data::{DataPolicy, DataWriteModel, LineCodec, PayloadSpec};
use criterion::{criterion_group, criterion_main, Criterion};
use memsim::{LineData, WritePricer};
use std::hint::black_box;

/// Writes per iteration.
const WRITES: u64 = 1024;
/// Distinct lines the writes land on, so most writes price against the
/// image an earlier write left.
const LINES: u64 = 64;

fn stream(spec: PayloadSpec) -> Vec<(usize, LineData)> {
    let mut gen = spec.instantiate(11);
    (0..WRITES)
        .map(|i| {
            let line = (i * 0x9E37_79B9) % LINES;
            (line as usize, gen.next_line(line * 64, 64))
        })
        .collect()
}

fn bench_codec(c: &mut Criterion) {
    let codec = LineCodec::new(4);
    let lines = stream(PayloadSpec::Uniform);
    c.bench_function("data/encode_4bit_1k_lines", |b| {
        b.iter(|| {
            for (_, data) in &lines {
                black_box(codec.encode(data.bytes()));
            }
        })
    });
}

fn bench_pricer(c: &mut Criterion) {
    let payloads = [
        (
            "sparse",
            stream(PayloadSpec::SparseUpdate {
                flip_fraction: 0.05,
            }),
        ),
        ("uniform", stream(PayloadSpec::Uniform)),
    ];
    let mut group = c.benchmark_group("data/price_1k_writes");
    group.sample_size(20);
    for policy in DataPolicy::ALL {
        let model = DataWriteModel::gst(4, policy);
        for (label, writes) in &payloads {
            group.bench_function(&format!("{policy}/{label}"), |b| {
                b.iter(|| {
                    let mut images: Vec<Option<Vec<u8>>> = vec![None; LINES as usize];
                    for (line, data) in writes {
                        let priced = model.price_write(images[*line].as_deref(), data);
                        black_box(priced.cost);
                        images[*line] = priced.image;
                    }
                })
            });
        }
    }
    group.finish();
}

criterion_group!(data, bench_codec, bench_pricer);
criterion_main!(data);
