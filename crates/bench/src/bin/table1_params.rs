//! Table I — optical loss and power parameters used for COMET power
//! modeling, plus the quantities the architecture derives from them.
//!
//! The last table pins published figures the models must reproduce: the
//! gain LUT's entry counts (Section III.C: 52 entries at b=1, 5 distinct
//! values per SOA period, 12 at b=2, 46 at b=4) and self-limiting
//! crystallization writes (1 mW can never melt the film, 5 mW can; Sevison
//! et al.). The binary exits non-zero if any of them does not match.

use comet::{CometConfig, GainLut};
use comet_bench::{header, Table};
use comet_units::{Length, Power};
use opcm_phys::CellThermalModel;
use photonic::{CellModelMode, LevelBudget, OpticalParams};
use std::process::ExitCode;

fn main() -> ExitCode {
    header(
        "table1",
        "optical loss and power parameters",
        "verbatim Table I constants with their derived architecture figures",
    );

    let p = OpticalParams::table_i();
    let mut loss = Table::new(vec!["loss_parameter", "value"]);
    loss.row(vec![
        "coupling loss".to_string(),
        format!("{}", p.coupling_loss),
    ])
    .row(vec![
        "MR drop loss".to_string(),
        format!("{}", p.mr_drop_loss),
    ])
    .row(vec![
        "MR through loss".to_string(),
        format!("{}", p.mr_through_loss),
    ])
    .row(vec![
        "EO tuned MR drop loss".to_string(),
        format!("{}", p.eo_mr_drop_loss),
    ])
    .row(vec![
        "EO tuned MR through loss".to_string(),
        format!("{}", p.eo_mr_through_loss),
    ])
    .row(vec![
        "propagation loss".to_string(),
        format!("{} /cm", p.propagation_loss_per_cm),
    ])
    .row(vec![
        "bending loss".to_string(),
        format!("{} /90deg", p.bend_loss_per_90),
    ])
    .row(vec![
        "GST switch loss".to_string(),
        format!("{}", p.gst_switch_loss),
    ])
    .row(vec!["SOA gain".to_string(), format!("{}", p.soa_gain)])
    .row(vec![
        "intra-subarray SOA gain".to_string(),
        format!("{}", p.intra_subarray_soa_gain),
    ]);
    loss.print();

    let mut power = Table::new(vec!["power_parameter", "value"]);
    power
        .row(vec![
            "laser wall plug efficiency".to_string(),
            format!("{:.0}%", p.laser_wall_plug_efficiency * 100.0),
        ])
        .row(vec![
            "EO tuning power".to_string(),
            format!(
                "{:.1} uW/nm",
                p.eo_tuning_power(Length::from_nanometers(1.0))
                    .as_microwatts()
            ),
        ])
        .row(vec![
            "max power at GST cell".to_string(),
            format!("{}", p.max_power_at_cell),
        ])
        .row(vec![
            "intra-subarray SOA power".to_string(),
            format!("{}", p.intra_subarray_soa_power),
        ]);
    power.print();

    println!(
        "# derived: SOA re-amplification every {} rows (15.2 dB / 0.33 dB)",
        p.rows_per_soa_stage()
    );

    // The cross-layer cell contract under both providers: the transcribed
    // paper constants next to the physics-derived values, with the
    // divergence each architecture-level quantity inherits.
    println!("## cell optical contract: paper vs derived (CellOpticalModel)");
    let paper = CellModelMode::Paper.model();
    let derived = CellModelMode::Derived.model();
    let mut cell = Table::new(vec!["cell_quantity", "paper", "derived", "delta"]);
    type CellQuantity = fn(&dyn photonic::CellOpticalModel) -> f64;
    let rows: [(&str, CellQuantity); 5] = [
        ("top level T", |m| m.max_transmittance().value()),
        ("bottom level T", |m| m.min_transmittance().value()),
        ("insertion loss (dB)", |m| m.insertion_loss().value()),
        ("level spacing @4b", |m| m.level_spacing(4)),
        ("fraction span", |m| m.fraction_span()),
    ];
    for (name, f) in rows {
        let a = f(paper.as_ref());
        let b = f(derived.as_ref());
        cell.row(vec![
            name.to_string(),
            format!("{a:.4}"),
            format!("{b:.4}"),
            format!("{:+.4}", b - a),
        ]);
    }
    for bits in [1u8, 2, 4] {
        let a = LevelBudget::for_cell(bits, paper.as_ref())
            .loss_tolerance
            .value();
        let b = LevelBudget::for_cell(bits, derived.as_ref())
            .loss_tolerance
            .value();
        cell.row(vec![
            format!("loss tolerance b={bits} (dB)"),
            format!("{a:.3}"),
            format!("{b:.3}"),
            format!("{:+.3}", b - a),
        ]);
    }
    cell.print();
    println!(
        "# evaluation runs in 'paper' mode by default; 'derived' resolves the\n\
         # same contract from opcm-phys (sweep both: comet-lab --devices\n\
         # COMET-paper,COMET-derived)"
    );

    let rows = CometConfig::comet_4b().subarray_rows;
    let lut = |bits| GainLut::for_bits(bits, rows, &p);
    let thermal = CellThermalModel::comet_gst();
    let melts = |mw| thermal.can_melt_at(Power::from_milliwatts(mw)).to_string();
    let pinned = [
        (
            "gain LUT entries b=1",
            "52",
            lut(1).total_entries().to_string(),
        ),
        (
            "gain LUT entries per SOA period b=1",
            "5",
            lut(1).distinct_entries().to_string(),
        ),
        (
            "gain LUT entries per SOA period b=2",
            "12",
            lut(2).distinct_entries().to_string(),
        ),
        (
            "gain LUT entries per SOA period b=4",
            "46",
            lut(4).distinct_entries().to_string(),
        ),
        ("1 mW write can melt the cell", "false", melts(1.0)),
        ("5 mW write can melt the cell", "true", melts(5.0)),
    ];
    let mut pins = Table::new(vec!["published_figure", "paper", "model"]);
    for (figure, paper, model) in &pinned {
        pins.row(vec![figure.to_string(), paper.to_string(), model.clone()]);
    }
    pins.print();
    if pinned.iter().all(|(_, paper, model)| paper == model) {
        ExitCode::SUCCESS
    } else {
        eprintln!("table1: a published figure does not match the model");
        ExitCode::FAILURE
    }
}
