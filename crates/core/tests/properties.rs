//! Property-based tests for the COMET core library.
//!
//! Invariants: the Eq. (1)–(6) address mapping is a bijection over the
//! configured geometry, MLC encode/decode roundtrips arbitrary data, the
//! lossy optical read path still decodes correctly within the LUT-trimmed
//! loss budget, and the functional memory is a faithful byte store under
//! arbitrary write/read interleavings.

use comet::{
    decode_levels, encode_bytes, AddressMapper, CometConfig, CometMemory, GainLut, LevelCodec,
    Subarray,
};
use comet_units::Decibels;
use memsim::DecodedAddress;
use proptest::prelude::*;

fn any_bits() -> impl Strategy<Value = u8> {
    prop_oneof![Just(1u8), Just(2u8), Just(4u8)]
}

fn config_for_bits(bits: u8) -> CometConfig {
    match bits {
        1 => CometConfig::comet_1b(),
        2 => CometConfig::comet_2b(),
        _ => CometConfig::comet_4b(),
    }
}

proptest! {
    // --- Eq. (1)-(6) address mapping ----------------------------------------

    #[test]
    fn mapping_roundtrips(
        bits in any_bits(),
        bank in 0u64..4,
        row in 0u64..(4096 * 512),
        column_seed in any::<u64>(),
    ) {
        let config = config_for_bits(bits);
        let mapper = AddressMapper::new(&config);
        let column = column_seed % config.subarray_cols;
        let flat = DecodedAddress { channel: 0, bank, row, column };
        let loc = mapper.map(flat);
        prop_assert!(loc.subarray < config.subarrays);
        prop_assert!(loc.row < config.subarray_rows);
        prop_assert!(loc.column < config.subarray_cols);
        prop_assert_eq!(mapper.unmap(loc), flat);
    }

    #[test]
    fn mapping_covers_all_subarrays(bits in any_bits(), seed in any::<u64>()) {
        // Eq. (4): every subarray index must be reachable from some row.
        let config = config_for_bits(bits);
        let mapper = AddressMapper::new(&config);
        let mut x = seed | 1;
        for _ in 0..32 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let target = x % config.subarrays;
            let row = target * config.subarray_rows + x % config.subarray_rows;
            let loc = mapper.map(DecodedAddress { channel: 0, bank: 0, row, column: 0 });
            prop_assert_eq!(loc.subarray, target);
        }
    }

    // --- MLC level packing -----------------------------------------------------

    #[test]
    fn encode_decode_roundtrips_bytes(data in prop::collection::vec(any::<u8>(), 0..256),
                                      bits in any_bits()) {
        let levels = encode_bytes(&data, bits);
        prop_assert_eq!(levels.len(), data.len() * 8 / bits as usize);
        let max_level = (1u16 << bits) as u8 - 1;
        for &l in &levels {
            prop_assert!(l <= max_level);
        }
        prop_assert_eq!(decode_levels(&levels, bits), data);
    }

    #[test]
    fn codec_decodes_nominal_levels(bits in any_bits(), level_seed in any::<u8>()) {
        let codec = LevelCodec::ideal(bits);
        let level = level_seed % codec.level_count() as u8;
        let t = codec.transmittance(level);
        prop_assert_eq!(codec.decode(t), level);
    }

    #[test]
    fn codec_tolerates_sub_budget_loss(
        bits in any_bits(),
        level_seed in any::<u8>(),
        loss_fraction in 0.0..0.45f64,
    ) {
        // Any loss strictly inside half the level spacing must decode
        // correctly — the analog margin the paper's Section III.C computes.
        let codec = LevelCodec::ideal(bits);
        let level = level_seed % codec.level_count() as u8;
        let spacing = codec.spacing();
        let loss_linear = 1.0 - spacing * loss_fraction;
        let lost = Decibels::from_linear(loss_linear);
        let observed = codec.apply_loss(codec.transmittance(level), lost);
        prop_assert_eq!(
            codec.decode(observed),
            level,
            "level {} under {:.3} dB", level, lost.value()
        );
    }

    // --- gain LUT -----------------------------------------------------------------

    #[test]
    fn lut_residual_stays_within_tolerance(bits in any_bits(), row in 0u64..512) {
        let config = config_for_bits(bits);
        let lut = GainLut::for_bits(bits, config.subarray_rows, &config.optical);
        let residual = lut.residual_loss(row);
        let budget = comet::paper_loss_tolerance(bits);
        // One LUT step of slack is allowed (the paper rounds to whole rows).
        let slack = config.optical.eo_mr_through_loss;
        prop_assert!(
            residual.value() <= budget.value() + slack.value() + 1e-9,
            "row {row}: residual {residual} > budget {budget}"
        );
        prop_assert!(residual.value() >= -1e-9, "gain must not overshoot");
    }

    #[test]
    fn lut_gain_is_monotone_in_row_distance(bits in any_bits(), r1 in 0u64..512, r2 in 0u64..512) {
        // Deeper rows accumulate more through-loss, so the trim gain is
        // non-decreasing in row index within an SOA stage span.
        let config = config_for_bits(bits);
        let lut = GainLut::for_bits(bits, config.subarray_rows, &config.optical);
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let stage = config.rows_per_soa_stage();
        if lo / stage == hi / stage {
            prop_assert!(lut.gain_for_row(hi).value() >= lut.gain_for_row(lo).value() - 1e-9);
        }
    }

    // --- functional subarray ----------------------------------------------------------

    #[test]
    fn subarray_stores_levels(rows in 1u64..32, cols in 1u64..64, seed in any::<u64>()) {
        let mut sa = Subarray::new(rows, cols);
        let mut x = seed | 1;
        let mut expected = Vec::new();
        for r in 0..rows {
            let row: Vec<u8> = (0..cols)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (x % 16) as u8
                })
                .collect();
            sa.write_span(r, 0, &row);
            expected.extend(row);
        }
        let mut i = 0;
        for r in 0..rows {
            for c in 0..cols {
                prop_assert_eq!(sa.level(r, c), expected[i]);
                i += 1;
            }
        }
    }

    // --- functional memory ----------------------------------------------------------------

    #[test]
    fn memory_roundtrips_arbitrary_writes(
        writes in prop::collection::vec(
            ((0u64..1 << 20), prop::collection::vec(any::<u8>(), 1..200)),
            1..12,
        ),
    ) {
        // Arbitrary overlapping writes through the optical path: the last
        // writer to each byte wins, reads see exactly that.
        let mut mem = CometMemory::new(CometConfig::comet_4b());
        let mut shadow = std::collections::HashMap::<u64, u8>::new();
        for (addr, data) in &writes {
            mem.write(*addr, data);
            for (i, b) in data.iter().enumerate() {
                shadow.insert(addr + i as u64, *b);
            }
        }
        for (addr, data) in &writes {
            let got = mem.read(*addr, data.len());
            for (i, g) in got.iter().enumerate() {
                prop_assert_eq!(*g, shadow[&(addr + i as u64)], "byte at {}", addr + i as u64);
            }
        }
    }

    #[test]
    fn memory_survives_loss_within_budget(
        data in prop::collection::vec(any::<u8>(), 1..64),
        loss_centi_db in 0u32..12,
    ) {
        // The paper's 4-bit budget is 0.26 dB = one full 6 % level spacing;
        // nearest-level decode flips at *half* a spacing, so anything below
        // ~0.13 dB must leave data intact.
        let levels = encode_bytes(&data, 4);
        let mut sa = Subarray::new(1, levels.len() as u64);
        sa.write_span(0, 0, &levels);
        let loss = Decibels::new(loss_centi_db as f64 / 100.0);
        let read = sa.read_span_with_loss(&LevelCodec::ideal(4), 0, 0, levels.len(), loss);
        prop_assert_eq!(decode_levels(&read, 4), data);
    }
}
