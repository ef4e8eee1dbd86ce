//! Criterion benches over the physics kernels behind Figs. 3, 4 and 6.

use comet_units::{Power, Time};
use criterion::{criterion_group, criterion_main, Criterion};
use opcm_phys::{
    c_band_wavelengths, effective_index, CellOpticalModel, CellState, CellThermalModel, PcmKind,
    ProgramMode, ProgramTable, PulseSpec,
};
use std::hint::black_box;

fn bench_lorentz_spectra(c: &mut Criterion) {
    let gst = PcmKind::Gst.material();
    let grid = c_band_wavelengths(36);
    c.bench_function("fig3/lorentz_spectrum_36pts", |b| {
        b.iter(|| {
            for &lambda in &grid {
                black_box(gst.refractive_index(opcm_phys::Phase::Crystalline, lambda));
            }
        })
    });
}

fn bench_effective_medium(c: &mut Criterion) {
    let gst = PcmKind::Gst.material();
    let lambda = opcm_phys::reference_wavelength();
    c.bench_function("fig6/effective_index_sweep_64", |b| {
        b.iter(|| {
            for i in 0..64 {
                black_box(effective_index(&gst, i as f64 / 63.0, lambda));
            }
        })
    });
}

fn bench_geometry_sweep(c: &mut Criterion) {
    let model = CellOpticalModel::comet_gst();
    let lambda = opcm_phys::reference_wavelength();
    let widths: Vec<_> = (0..4)
        .map(|i| comet_units::Length::from_nanometers(300.0 + 60.0 * i as f64))
        .collect();
    let thicknesses: Vec<_> = (0..8)
        .map(|i| comet_units::Length::from_nanometers(5.0 + 6.0 * i as f64))
        .collect();
    c.bench_function("fig4/geometry_sweep_4x8", |b| {
        b.iter(|| black_box(model.geometry_sweep(&widths, &thicknesses, lambda)))
    });
}

fn bench_thermal_pulse(c: &mut Criterion) {
    let model = CellThermalModel::comet_gst();
    c.bench_function("fig6/amorphization_pulse_60ns", |b| {
        b.iter(|| {
            black_box(model.apply_pulse(
                CellState::crystalline(),
                PulseSpec::new(Power::from_milliwatts(5.0), Time::from_nanos(60.0)),
            ))
        })
    });
    c.bench_function("fig6/crystallization_pulse_170ns", |b| {
        b.iter(|| {
            black_box(model.apply_pulse(
                CellState::amorphous(),
                PulseSpec::new(Power::from_milliwatts(1.0), Time::from_nanos(170.0)),
            ))
        })
    });
}

fn bench_table_generation(c: &mut Criterion) {
    let model = CellThermalModel::comet_gst();
    let mut group = c.benchmark_group("fig6/program_table");
    group.sample_size(10);
    // The full pulse search in both modes...
    group.bench_function("amorphous_reset_4bit_uncached", |b| {
        b.iter(|| {
            black_box(
                ProgramTable::generate_uncached(&model, ProgramMode::AmorphousReset, 4)
                    .expect("generates"),
            )
        })
    });
    group.bench_function("crystalline_reset_4bit_uncached", |b| {
        b.iter(|| {
            black_box(
                ProgramTable::generate_uncached(&model, ProgramMode::CrystallineReset, 4)
                    .expect("generates"),
            )
        })
    });
    // ...versus the memoized path every repeat caller now takes (warm the
    // memo first so the comparison isolates the hit path).
    let _ = ProgramTable::generate(&model, ProgramMode::AmorphousReset, 4).expect("generates");
    group.bench_function("amorphous_reset_4bit_cached", |b| {
        b.iter(|| {
            black_box(
                ProgramTable::generate(&model, ProgramMode::AmorphousReset, 4).expect("generates"),
            )
        })
    });
    group.finish();
}

criterion_group!(
    physics,
    bench_lorentz_spectra,
    bench_effective_medium,
    bench_geometry_sweep,
    bench_thermal_pulse,
    bench_table_generation
);
criterion_main!(physics);
