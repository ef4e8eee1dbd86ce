//! Property-based invariants spanning crate boundaries.

use comet::{decode_levels, encode_bytes, AddressMapper, CometConfig, LevelCodec};
use comet_units::{Decibels, Power, Transmittance};
use memsim::{AddressMap, DecodedAddress, Interleave};
use opcm_phys::{effective_index, CellOpticalModel, PcmKind};
use photonic::{OpticalParams, OpticalPath, PathElement};
use proptest::prelude::*;

proptest! {
    /// Byte <-> level packing round-trips for every supported density.
    #[test]
    fn packing_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 1..256),
                         bits in prop_oneof![Just(1u8), Just(2u8), Just(4u8)]) {
        let levels = encode_bytes(&bytes, bits);
        prop_assert_eq!(decode_levels(&levels, bits), bytes);
    }

    /// The Eq. (1)-(6) mapping is bijective over the whole address space.
    #[test]
    fn eq_mapping_bijective(row in 0u64..(4096 * 512), column in 0u64..256, bank in 0u64..4) {
        let mapper = AddressMapper::new(&CometConfig::comet_4b());
        let flat = DecodedAddress { channel: 0, bank, row, column };
        prop_assert_eq!(mapper.unmap(mapper.map(flat)), flat);
    }

    /// Every interleaving scheme round-trips arbitrary line addresses.
    #[test]
    fn address_map_bijective(line in 0u64..(1 << 24),
                             scheme in prop_oneof![
                                Just(Interleave::RowBankColumnChannel),
                                Just(Interleave::RowBankColumnChannelXor)]) {
        let map = AddressMap::new(4, 8, 1 << 14, 32, 64, scheme).unwrap();
        let addr = (line % (4 * 8 * (1 << 14) * 32)) * 64;
        prop_assert_eq!(map.encode(map.decode(addr)), addr);
    }

    /// Effective-medium optics are monotone: more crystalline = more index,
    /// more absorption, less transmission — for every material.
    #[test]
    fn mixing_monotone(p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let lambda = opcm_phys::reference_wavelength();
        for kind in PcmKind::ALL {
            let m = kind.material();
            let a = effective_index(&m, lo, lambda);
            let b = effective_index(&m, hi, lambda);
            prop_assert!(b.n >= a.n - 1e-12);
            prop_assert!(b.kappa >= a.kappa - 1e-12);
        }
        let cell = CellOpticalModel::comet_gst();
        let ta = cell.transmittance(lo, lambda).value();
        let tb = cell.transmittance(hi, lambda).value();
        prop_assert!(tb <= ta + 1e-12);
    }

    /// Loss budgets compose: splitting a path anywhere conserves total loss.
    #[test]
    fn path_loss_composes(
        segments in proptest::collection::vec(0u8..6, 1..20),
        split in 0usize..19,
    ) {
        let params = OpticalParams::table_i();
        let elems: Vec<PathElement> = segments.iter().map(|&s| match s {
            0 => PathElement::Coupler,
            1 => PathElement::MrThrough,
            2 => PathElement::MrDrop,
            3 => PathElement::GstSwitch,
            4 => PathElement::Bends(2),
            _ => PathElement::Soa { gain: Decibels::new(5.0) },
        }).collect();
        let whole: OpticalPath = elems.iter().copied().collect();
        let cut = split.min(elems.len());
        let first: OpticalPath = elems[..cut].iter().copied().collect();
        let second: OpticalPath = elems[cut..].iter().copied().collect();
        let sum = first.total_loss(&params) + second.total_loss(&params);
        prop_assert!((whole.total_loss(&params).value() - sum.value()).abs() < 1e-9);
    }

    /// Attenuating then amplifying by the same figure is the identity on
    /// power, for any power and any loss.
    #[test]
    fn attenuate_amplify_identity(mw in 0.001f64..1000.0, db in 0.0f64..60.0) {
        let p = Power::from_milliwatts(mw);
        let loss = Decibels::new(db);
        let back = p.attenuate(loss).amplify(loss);
        prop_assert!((back.as_watts() - p.as_watts()).abs() <= p.as_watts() * 1e-12);
    }

    /// Level codecs decode their own levels exactly, and tolerate any loss
    /// strictly below half a spacing.
    #[test]
    fn codec_margin_property(bits in prop_oneof![Just(1u8), Just(2u8), Just(4u8)],
                             frac in 0.0f64..0.49) {
        let codec = LevelCodec::ideal(bits);
        for level in 0..codec.level_count() as u8 {
            let t = codec.transmittance(level);
            // Perturb by `frac` of one spacing (sub-margin).
            let perturbed = Transmittance::new(t.value() - codec.spacing() * frac);
            prop_assert_eq!(codec.decode(perturbed), level);
        }
    }

    /// The COMET gain LUT's residual never exceeds one gain step, anywhere.
    #[test]
    fn lut_residual_bounded(bits in prop_oneof![Just(1u8), Just(2u8), Just(4u8)],
                            row in 0u64..512) {
        let params = OpticalParams::table_i();
        let lut = comet::GainLut::for_bits(bits, 512, &params);
        let bound = params.eo_mr_through_loss.value() * lut.step() as f64 + 1e-9;
        prop_assert!(lut.residual_loss(row).value().abs() <= bound);
    }
}
