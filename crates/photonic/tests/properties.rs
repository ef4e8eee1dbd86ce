//! Property-based tests for the photonic circuit substrate.
//!
//! Invariants: loss budgets compose additively in dB (multiplicatively in
//! linear power), microring responses are bounded transfer functions, SNR
//! is monotone in received power, and laser sizing inverts the loss budget.

use comet_units::{Decibels, Length, Power};
use photonic::{
    FilterOrder, Laser, LevelBudget, Microring, ModePenalty, MrTuning, OpticalParams, OpticalPath,
    PathElement, Photodetector, WdmCrosstalkAnalysis, WdmMdmLink,
};
use proptest::prelude::*;

fn params() -> OpticalParams {
    OpticalParams::table_i()
}

/// Strategy over representative path elements (losses and gains).
fn any_element() -> impl Strategy<Value = PathElement> {
    prop_oneof![
        Just(PathElement::Coupler),
        Just(PathElement::GstSwitch),
        Just(PathElement::MrDrop),
        Just(PathElement::MrThrough),
        Just(PathElement::TunedMrDrop(MrTuning::ElectroOptic)),
        Just(PathElement::TunedMrThrough(MrTuning::ElectroOptic)),
        (0.1..20.0f64).prop_map(|mm| PathElement::Propagation(Length::from_millimeters(mm))),
        (1u32..8).prop_map(PathElement::Bends),
        (0.1..3.0f64).prop_map(|db| PathElement::Fixed(Decibels::new(db))),
        (1.0..20.0f64).prop_map(|db| PathElement::Soa {
            gain: Decibels::new(db)
        }),
        (2u32..16).prop_map(|ways| PathElement::Splitter { ways }),
    ]
}

proptest! {
    // --- path composition ----------------------------------------------------

    #[test]
    fn path_loss_is_sum_of_element_losses(elements in prop::collection::vec(any_element(), 0..20)) {
        let p = params();
        let mut path = OpticalPath::new();
        let mut expect = Decibels::ZERO;
        for e in &elements {
            path.push(*e);
            expect += e.net_loss(&p);
        }
        let total = path.total_loss(&p);
        prop_assert!((total.value() - expect.value()).abs() < 1e-9);
    }

    #[test]
    fn path_concatenation_adds(a in prop::collection::vec(any_element(), 0..10),
                               b in prop::collection::vec(any_element(), 0..10)) {
        let p = params();
        let mut pa = OpticalPath::new();
        for e in &a { pa.push(*e); }
        let mut pb = OpticalPath::new();
        for e in &b { pb.push(*e); }
        let mut joined = OpticalPath::new();
        joined.extend(pa.elements().iter().chain(pb.elements()).copied());
        prop_assert!(
            (joined.total_loss(&p).value() - (pa.total_loss(&p) + pb.total_loss(&p)).value()).abs()
                < 1e-9
        );
        prop_assert_eq!(joined.len(), pa.len() + pb.len());
    }

    #[test]
    fn required_input_inverts_output(target_mw in 0.01..10.0f64,
                                     elements in prop::collection::vec(any_element(), 0..15)) {
        let p = params();
        let mut path = OpticalPath::new();
        for e in &elements { path.push(*e); }
        let target = Power::from_milliwatts(target_mw);
        let input = path.required_input(target, &p);
        let out = input.attenuate(path.total_loss(&p));
        prop_assert!((out.as_milliwatts() - target_mw).abs() < 1e-9 * target_mw);
    }

    #[test]
    fn level_profile_ends_at_total_loss(elements in prop::collection::vec(any_element(), 1..15)) {
        let p = params();
        let mut path = OpticalPath::new();
        for e in &elements { path.push(*e); }
        let profile = path.level_profile(&p);
        prop_assert_eq!(profile.len(), path.len());
        // Levels are reported relative to the input (negative = below it),
        // so the last entry is minus the net path loss.
        let last = profile.last().copied().unwrap();
        prop_assert!((last.value() + path.total_loss(&p).value()).abs() < 1e-9);
    }

    // --- microring response -----------------------------------------------------

    #[test]
    fn mr_transfer_functions_are_bounded(detune_pm in -2000.0..2000.0f64) {
        let mr = Microring::comet_default();
        let delta = Length::from_nanometers(detune_pm / 1000.0);
        let d = mr.drop_fraction(delta);
        prop_assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn mr_drop_peaks_on_resonance(detune_pm in 1.0..2000.0f64) {
        let mr = Microring::comet_default();
        let on = mr.drop_fraction(Length::ZERO);
        let off = mr.drop_fraction(Length::from_nanometers(detune_pm / 1000.0));
        prop_assert!(on >= off - 1e-12, "drop should peak at resonance");
    }

    #[test]
    fn mr_crosstalk_falls_with_channel_spacing(s1 in 0.1..5.0f64, s2 in 0.1..5.0f64) {
        let mr = Microring::comet_default();
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        let xt_near = mr.adjacent_channel_crosstalk(Length::from_nanometers(lo));
        let xt_far = mr.adjacent_channel_crosstalk(Length::from_nanometers(hi));
        // Crosstalk is reported as positive suppression (dB below the
        // intended signal): wider spacing suppresses more.
        prop_assert!(xt_far.value() >= xt_near.value() - 1e-9);
    }

    // --- links -----------------------------------------------------------------

    #[test]
    fn link_bandwidth_scales_with_channels(w in 1usize..512, m in 1usize..4) {
        let link = WdmMdmLink::new(w, m, comet_units::Frequency::from_gigahertz(1.0));
        prop_assert_eq!(link.parallel_channels(), w * m);
        let per_channel = link.raw_bandwidth().as_gigabytes_per_second() / (w * m) as f64;
        // 1 GHz x 1 bit/channel = 0.125 GB/s per channel.
        prop_assert!((per_channel - 0.125).abs() < 1e-9);
    }

    #[test]
    fn higher_modes_lose_more(degree in 2usize..8) {
        let mp = ModePenalty::default();
        for m in 1..degree {
            prop_assert!(mp.loss_for_mode(m).value() >= mp.loss_for_mode(m - 1).value() - 1e-12);
        }
        prop_assert!(
            (mp.worst_mode_loss(degree).value() - mp.loss_for_mode(degree - 1).value()).abs()
                < 1e-12
        );
    }

    // --- laser sizing -------------------------------------------------------------

    #[test]
    fn laser_power_scales_linearly_with_channels(
        target_mw in 0.1..5.0f64,
        loss_db in 0.0..30.0f64,
        n in 1usize..1024,
    ) {
        let laser = Laser::table_i();
        let target = Power::from_milliwatts(target_mw);
        let loss = Decibels::new(loss_db);
        let one = laser.electrical_power_for_target(target, loss);
        let many = laser.electrical_power_for_channels(target, loss, n);
        prop_assert!((many.as_watts() - one.as_watts() * n as f64).abs() < 1e-9 * many.as_watts().max(1.0));
    }

    #[test]
    fn laser_wall_plug_efficiency_divides(target_mw in 0.1..5.0f64, loss_db in 0.0..30.0f64) {
        let target = Power::from_milliwatts(target_mw);
        let loss = Decibels::new(loss_db);
        let launch = Laser::table_i().launch_power_for_target(target, loss);
        let electrical = Laser::table_i().electrical_power_for_target(target, loss);
        // 20 % wall-plug: electrical = launch / 0.2.
        prop_assert!((electrical.as_watts() - launch.as_watts() / 0.2).abs() < 1e-12);
        // Launch covers the loss exactly.
        prop_assert!((launch.attenuate(loss).as_milliwatts() - target_mw).abs() < 1e-9);
    }

    // --- readout noise ---------------------------------------------------------------

    #[test]
    fn level_error_probability_is_a_probability(
        uw in 0.01..1e4f64,
        bits in 1u8..6,
    ) {
        let pd = Photodetector::ge_10ghz();
        let pe = pd.level_error_probability(Power::from_microwatts(uw), bits);
        prop_assert!((0.0..=1.0).contains(&pe), "Pe = {pe}");
    }

    // --- level budgets ------------------------------------------------------------------

    // --- WDM crosstalk mitigation ----------------------------------------------

    #[test]
    fn double_ring_never_picks_up_more(channels in 2usize..512) {
        let ring = Microring::interface_demux();
        let single = WdmCrosstalkAnalysis::new(ring, channels, FilterOrder::Single);
        let double = WdmCrosstalkAnalysis::new(ring, channels, FilterOrder::Double);
        prop_assert!(double.total_crosstalk() <= single.total_crosstalk() + 1e-15);
        // Per-neighbour pickup stays a power fraction.
        for k in 1..4usize {
            let p = single.neighbour_pickup(k);
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(double.neighbour_pickup(k) <= p + 1e-15);
        }
    }

    #[test]
    fn crosstalk_monotone_in_channel_count(n1 in 2usize..512, n2 in 2usize..512) {
        let ring = Microring::comet_default();
        let (lo, hi) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        let a = WdmCrosstalkAnalysis::new(ring, lo, FilterOrder::Single).total_crosstalk();
        let b = WdmCrosstalkAnalysis::new(ring, hi, FilterOrder::Single).total_crosstalk();
        prop_assert!(b >= a - 1e-12, "{lo} ch: {a}, {hi} ch: {b}");
    }

    #[test]
    fn max_channels_is_the_budget_boundary(bits in 2u8..6) {
        let ring = Microring::interface_demux();
        let budget = LevelBudget::for_bits(bits);
        let max = WdmCrosstalkAnalysis::max_channels_within(ring, FilterOrder::Double, &budget);
        prop_assume!((2..4096).contains(&max));
        prop_assert!(
            WdmCrosstalkAnalysis::new(ring, max, FilterOrder::Double).within_budget(&budget)
        );
        prop_assert!(
            !WdmCrosstalkAnalysis::new(ring, max + 1, FilterOrder::Double)
                .within_budget(&budget)
        );
    }

    #[test]
    fn level_budget_shrinks_with_bits(bits in 1u8..5) {
        let lo = LevelBudget::for_bits(bits);
        let hi = LevelBudget::for_bits(bits + 1);
        prop_assert!(hi.loss_tolerance.value() <= lo.loss_tolerance.value());
    }
}

// --- the cross-layer cell contract ------------------------------------------

mod cell_contract {
    use super::*;
    use comet_units::Transmittance;
    use opcm_phys::{reference_wavelength, CellGeometry, LorentzModel, PcmMaterial};
    use photonic::{CellModelMode, CellOpticalModel, DerivedCellModel, PaperCellModel};

    /// The documented derived-vs-paper tolerance: the physics-derived level
    /// grid may sit up to one level spacing away from the transcribed paper
    /// grid (the amorphous endpoint is the dominant divergence — derived
    /// T_top ≈ 0.999 vs the paper's 0.95), while the *relative* quantities
    /// the architecture consumes (spacing, fraction span, loss budgets)
    /// agree much more tightly.
    #[test]
    fn derived_matches_paper_within_documented_tolerance() {
        let paper = PaperCellModel::paper_constants();
        let derived = DerivedCellModel::comet_gst();

        let spacing = paper.level_spacing(4);
        for (p, d) in paper
            .transmission_levels(4)
            .iter()
            .zip(derived.transmission_levels(4))
        {
            let delta = (d.value() - p.value()).abs();
            assert!(
                delta <= spacing,
                "level {p:?} vs {d:?}: |delta| {delta:.4} exceeds one spacing {spacing:.4}"
            );
        }
        // Level spacing within 5 % relative.
        let ds = derived.level_spacing(4);
        assert!(
            ((ds - spacing) / spacing).abs() < 0.05,
            "spacing {ds:.4} vs {spacing:.4}"
        );
        // Crystalline-fraction span within 0.05 absolute.
        assert!((derived.fraction_span() - paper.fraction_span()).abs() < 0.05);
        // Loss budgets within 0.15 dB at every practical bit density.
        for bits in [1u8, 2, 4] {
            let pb = LevelBudget::for_cell(bits, &paper).loss_tolerance.value();
            let db = LevelBudget::for_cell(bits, &derived).loss_tolerance.value();
            assert!((pb - db).abs() < 0.15, "b={bits}: {pb:.3} vs {db:.3} dB");
        }
    }

    /// The circuit layer's derived grid is *exactly* the grid the physics
    /// layer programs: both slice `ProgramTable::usable_transmittance_range`
    /// (the single authority on the guard-banded range), so a physics
    /// recalibration can never desynchronize the two layers.
    #[test]
    fn derived_grid_is_the_program_table_grid() {
        use opcm_phys::{CellThermalModel, ProgramMode, ProgramTable};
        let table = ProgramTable::generate(
            &CellThermalModel::comet_gst(),
            ProgramMode::AmorphousReset,
            4,
        )
        .expect("table generation");
        let derived = DerivedCellModel::comet_gst();
        for (spec, level) in table.levels.iter().zip(derived.transmission_levels(4)) {
            assert!(
                (spec.transmittance.value() - level.value()).abs() < 1e-9,
                "level {}: programmed {} vs contract {}",
                spec.level,
                spec.transmittance.value(),
                level.value()
            );
        }
    }

    #[test]
    fn mode_resolution_is_consistent_with_the_concrete_providers() {
        let by_mode = CellModelMode::Derived.model();
        let direct = DerivedCellModel::comet_gst();
        assert_eq!(
            by_mode.max_transmittance().value(),
            direct.max_transmittance().value()
        );
        assert_eq!(by_mode.source(), "derived");
        assert_eq!(CellModelMode::Paper.model().source(), "paper");
    }

    /// A GST-like material with perturbed optical anchors (the calibration
    /// knobs a recalibration would move) on a perturbed geometry.
    fn perturbed_cell(
        n_c_scale: f64,
        kappa_c_scale: f64,
        thickness_nm: f64,
        lambda_nm: f64,
    ) -> DerivedCellModel {
        let anchor = reference_wavelength();
        let mut material = PcmMaterial::gst();
        material.crystalline =
            LorentzModel::anchored(6.11 * n_c_scale, 1.10 * kappa_c_scale, anchor, 1.4, 0.8);
        let geometry = CellGeometry::comet_default()
            .with_thickness(comet_units::Length::from_nanometers(thickness_nm));
        DerivedCellModel::new(
            opcm_phys::CellOpticalModel::new(material, geometry),
            comet_units::Length::from_nanometers(lambda_nm),
        )
    }

    proptest! {
        // Read-out level spacing stays monotone (levels strictly
        // decreasing, spacing strictly positive and shrinking with bit
        // density) under material-parameter perturbation: −4/+8 % on the
        // crystalline refractive index, −40/+10 % on the crystalline
        // extinction (the widest ranges the Lorentz anchoring accepts as
        // physical at the GST resonance), 12–40 nm films, anywhere in the
        // C-band.
        #[test]
        fn level_spacing_monotone_under_material_perturbation(
            n_c in 0.96f64..1.08,
            kappa_c in 0.6f64..1.1,
            thickness in 12.0f64..40.0,
            lambda in 1530.0f64..1565.0,
        ) {
            let cell = perturbed_cell(n_c, kappa_c, thickness, lambda);
            let mut last_spacing = f64::INFINITY;
            for bits in 1..=6u8 {
                let levels = cell.transmission_levels(bits);
                prop_assert_eq!(levels.len(), 1usize << bits);
                for w in levels.windows(2) {
                    prop_assert!(
                        w[0].value() > w[1].value(),
                        "levels not strictly decreasing at b={} ({} vs {})",
                        bits, w[0].value(), w[1].value()
                    );
                }
                let spacing = cell.level_spacing(bits);
                prop_assert!(spacing > 0.0);
                prop_assert!(spacing < last_spacing, "spacing must shrink with bits");
                last_spacing = spacing;
                // The budget the spacing implies stays a positive loss.
                let budget = LevelBudget::for_cell(bits, &cell);
                prop_assert!(budget.loss_tolerance.value() > 0.0);
            }
        }

        // The contract's insertion loss is exactly the dB equivalent of
        // its top transmittance, for any provider and perturbation.
        #[test]
        fn insertion_loss_matches_top_level(
            kappa_c in 0.6f64..1.1,
            thickness in 12.0f64..40.0,
        ) {
            let cell = perturbed_cell(1.0, kappa_c, thickness, 1550.0);
            let top = cell.max_transmittance().value();
            let from_loss = Transmittance::new(
                10f64.powf(-cell.insertion_loss().value() / 10.0));
            prop_assert!((from_loss.value() - top).abs() < 1e-9);
        }
    }
}
