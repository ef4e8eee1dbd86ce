//! Property-based tests for the data plane.
//!
//! Invariants: the MLC codec round-trips any byte content at any
//! supported bit width; Flip-N-Write conserves bit flips (never programs
//! more cells than DCW from the same state, and with one-bit cells never
//! more than half of each word, flip cell included); the per-transition
//! cost model orders the policies DCW+FNW ≤ DCW ≤ oblivious on every
//! write from a shared state; and the table-driven codec and pricer agree
//! bit for bit with the straightforward per-bit / per-word reference
//! implementations kept below.

use comet_data::{DataPolicy, DataWriteModel, LineCodec, PayloadSpec, Price, TransitionCostModel};
use comet_units::{Energy, Time};
use memsim::{LineData, PricedWrite, WriteCost, WritePricer};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One memoized cost table per bit width keeps table generation (the
/// workspace's slowest kernel) out of the per-case loop.
fn costs(bits: u8) -> TransitionCostModel {
    static TABLES: OnceLock<Vec<TransitionCostModel>> = OnceLock::new();
    TABLES.get_or_init(|| (1..=4).map(TransitionCostModel::gst).collect())[bits as usize - 1]
        .clone()
}

fn model(bits: u8, policy: DataPolicy) -> DataWriteModel {
    DataWriteModel::new(LineCodec::new(bits), costs(bits), policy)
}

fn any_line() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 1..128)
}

/// A synthetic one-bit programming table whose SET and RESET pulses cost
/// the same, so energy is proportional to programmed cells and the FNW
/// flip decision reduces to the classic count rule.
fn symmetric_slc_table() -> opcm_phys::ProgramTable {
    use comet_units::{Power, Time, Transmittance};
    use opcm_phys::{LevelSpec, ProgramMode, ProgramTable, PulseSpec, ResetSpec};
    let pulse = PulseSpec::new(Power::from_milliwatts(1.0), Time::from_nanos(100.0));
    ProgramTable {
        mode: ProgramMode::AmorphousReset,
        bits: 1,
        levels: vec![
            LevelSpec {
                level: 0,
                transmittance: Transmittance::new(0.95),
                crystalline_fraction: 0.0,
                pulse: PulseSpec::new(Power::from_milliwatts(1.0), Time::ZERO),
            },
            LevelSpec {
                level: 1,
                transmittance: Transmittance::new(0.05),
                crystalline_fraction: 1.0,
                pulse,
            },
        ],
        reset: ResetSpec {
            pulse,
            fraction: 0.0,
        },
        spacing: 0.9,
    }
}

// --- reference implementations --------------------------------------------
//
// The original, obviously-correct forms of the codec and the pricer: a
// bit-at-a-time encoder and a pricer that prices each Flip-N-Write option
// in its own pass of `transition()` calls. The shipped code must match
// them exactly, including every f64 sum's bits.

fn reference_encode(bits: u8, data: &[u8]) -> Vec<u8> {
    let b = bits as usize;
    let total_bits = data.len() * 8;
    let mut levels = Vec::new();
    let mut bit = 0usize;
    while bit < total_bits {
        let mut chunk = 0u8;
        for k in 0..b {
            chunk <<= 1;
            let i = bit + k;
            if i < total_bits {
                chunk |= (data[i / 8] >> (7 - i % 8)) & 1;
            }
        }
        levels.push(chunk ^ (chunk >> 1));
        bit += b;
    }
    levels
}

fn reference_flip_level(level: u8, mask: u8) -> u8 {
    level ^ (mask & !(mask >> 1))
}

fn reference_word_price(
    costs: &TransitionCostModel,
    mask: u8,
    old: &[u8],
    target_plain: &[u8],
    flip: bool,
    old_flip: bool,
) -> (u64, Price) {
    let mut cells = 0u64;
    let mut energy = Energy::ZERO;
    let mut latency = Time::ZERO;
    for (&o, &t) in old.iter().zip(target_plain) {
        let target = if flip {
            reference_flip_level(t, mask)
        } else {
            t
        };
        if o != target {
            let p = costs.transition(o, target);
            cells += 1;
            energy += p.energy;
            latency = latency.max(p.latency);
        }
    }
    if flip != old_flip {
        let (from, to) = if old_flip {
            (costs.levels() - 1, 0)
        } else {
            (0, costs.levels() - 1)
        };
        let p = costs.transition(from, to);
        cells += 1;
        energy += p.energy;
        latency = latency.max(p.latency);
    }
    (cells, Price { energy, latency })
}

fn reference_price_write(
    model: &DataWriteModel,
    stored: Option<&[u8]>,
    data: &LineData,
) -> PricedWrite {
    let costs = model.costs();
    let bits = model.codec().bits();
    let new_levels = reference_encode(bits, data.bytes());
    let cells = new_levels.len();

    if model.policy() == DataPolicy::Oblivious {
        let mut energy = Energy::ZERO;
        let mut latency = Time::ZERO;
        for &l in &new_levels {
            let p = costs.oblivious(l);
            energy += p.energy;
            latency = latency.max(p.latency);
        }
        return PricedWrite {
            cost: WriteCost {
                energy,
                latency,
                cells_written: cells as u64,
                cells_total: cells as u64,
            },
            image: None,
        };
    }

    let probe = costs.read_probe();
    let mut energy = probe.energy * cells as f64;
    let mut pulse = Time::ZERO;
    let mut written = 0u64;

    let reset_level = costs.reset_level();
    let empty: &[u8] = &[];
    let (old_levels, old_flips) = match stored {
        Some(image) => image.split_at(cells.min(image.len())),
        None => (empty, empty),
    };
    let old_at = |c: usize| old_levels.get(c).copied().unwrap_or(reset_level);

    let word = model.word_cells();
    let words = cells.div_ceil(word.max(1));
    let flip_margin = costs.reset_price().energy;
    let mask = (1u16 << bits) as u8 - 1;
    let mut image_levels = vec![0u8; cells];
    let mut image_flips = vec![0u8; words];

    for (w, flip_slot) in image_flips.iter_mut().enumerate() {
        let span = (w * word)..((w * word + word).min(cells));
        let old: Vec<u8> = span.clone().map(old_at).collect();
        let target = &new_levels[span.clone()];
        let old_flip = old_flips.get(w).copied().unwrap_or(0) != 0;

        let (keep_cells, keep_price) =
            reference_word_price(costs, mask, &old, target, old_flip, old_flip);
        let (cells_chosen, price, flip) = if model.policy() == DataPolicy::DcwFnw {
            let (toggle_cells, toggle_price) =
                reference_word_price(costs, mask, &old, target, !old_flip, old_flip);
            let improves = toggle_cells <= keep_cells
                && toggle_price.energy + flip_margin <= keep_price.energy;
            if improves {
                (toggle_cells, toggle_price, !old_flip)
            } else {
                (keep_cells, keep_price, old_flip)
            }
        } else {
            (keep_cells, keep_price, old_flip)
        };

        written += cells_chosen;
        energy += price.energy;
        pulse = pulse.max(price.latency);
        for (i, c) in span.enumerate() {
            image_levels[c] = if flip {
                reference_flip_level(target[i], mask)
            } else {
                target[i]
            };
        }
        *flip_slot = flip as u8;
    }

    image_levels.extend_from_slice(&image_flips);
    PricedWrite {
        cost: WriteCost {
            energy,
            latency: probe.latency + pulse,
            cells_written: written,
            cells_total: cells as u64,
        },
        image: Some(image_levels),
    }
}

/// `PricedWrite` equality with the floats compared by bit pattern, so a
/// reassociated sum that happens to round the same still has to match
/// exactly (and -0.0 cannot pass for 0.0).
fn same_bits(a: &PricedWrite, b: &PricedWrite) -> bool {
    a == b
        && a.cost.energy.as_joules().to_bits() == b.cost.energy.as_joules().to_bits()
        && a.cost.latency.as_seconds().to_bits() == b.cost.latency.as_seconds().to_bits()
}

/// The next payload of a write sequence: fresh bytes, the complement of
/// the previous payload (Flip-N-Write's best case), the previous payload
/// with a few bytes changed (a sparse in-place update), or a complement
/// with a few bytes changed (flips whose toggled words still program
/// cells, so the order of the toggle sum matters).
fn next_payload(previous: &[u8], kind: u8, fresh: &[u8]) -> Vec<u8> {
    let complement = || previous.iter().map(|b| !b).collect::<Vec<u8>>();
    let touch = |mut line: Vec<u8>| {
        for (i, &f) in fresh.iter().enumerate().take(4) {
            if !line.is_empty() {
                let at = (f as usize * 31 + i) % line.len();
                line[at] ^= f | 1;
            }
        }
        line
    };
    match kind % 4 {
        0 => fresh.to_vec(),
        1 => complement(),
        2 => touch(previous.to_vec()),
        _ => touch(complement()),
    }
}

proptest! {
    // --- codec ---------------------------------------------------------------

    #[test]
    fn codec_roundtrip_is_exact(
        data in any_line(),
        bits in 1u8..=6,
    ) {
        let codec = LineCodec::new(bits);
        let levels = codec.encode(&data);
        prop_assert_eq!(levels.len(), codec.cells_for(data.len()));
        for &l in &levels {
            prop_assert!(l < codec.levels());
        }
        prop_assert_eq!(codec.decode(&levels, data.len()), data);
    }

    #[test]
    fn codec_matches_the_bit_walk_reference(
        data in proptest::collection::vec(any::<u8>(), 0..=128),
        prefix in proptest::collection::vec(any::<u8>(), 0..4),
        bits in 1u8..=6,
    ) {
        let codec = LineCodec::new(bits);
        let reference = reference_encode(bits, &data);
        prop_assert_eq!(codec.encode(&data), reference.clone());
        // `encode_into` appends after whatever the buffer already holds.
        let mut out = prefix.clone();
        codec.encode_into(&data, &mut out);
        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&out[prefix.len()..], &reference[..]);
    }

    // --- table-driven pricer vs the per-word reference ------------------------

    #[test]
    fn pricer_matches_the_per_word_reference(
        writes in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..=128), 0usize..=200),
            1..6,
        ),
        bits in 1u8..=4,
        slc in any::<bool>(),
    ) {
        // Each write prices from the image the previous one left (first:
        // None). A `cut` of at most 100 truncates that image to `cut` % of
        // its length; fresh payloads change length between writes, so
        // whole images are also longer or shorter than the new line.
        for policy in DataPolicy::ALL {
            let model = if slc {
                DataWriteModel::new(
                    LineCodec::new(1),
                    TransitionCostModel::from_program_table(&symmetric_slc_table()),
                    policy,
                )
            } else {
                model(bits, policy)
            };
            let mut image: Option<Vec<u8>> = None;
            let mut payload: Vec<u8> = Vec::new();
            for (kind, fresh, cut) in &writes {
                payload = next_payload(&payload, *kind, fresh);
                let line = LineData::from_bytes(&payload);
                let stored = image
                    .as_deref()
                    .map(|i| if *cut <= 100 { &i[..i.len() * cut / 100] } else { i });
                let got = model.price_write(stored, &line);
                let want = reference_price_write(&model, stored, &line);
                prop_assert!(
                    same_bits(&got, &want),
                    "{} at {} bits: {:?} != reference {:?}",
                    policy, model.codec().bits(), got, want
                );
                image = got.image;
            }
        }
    }

    // --- Flip-N-Write conservation -------------------------------------------

    #[test]
    fn fnw_never_programs_more_cells_than_dcw_from_equal_state(
        first in any_line(),
        second in any_line(),
        bits in 1u8..=4,
    ) {
        // Both policies start from the erased array; after one identical
        // write their stores describe the same logical content, and FNW's
        // per-word decision includes "keep the flip state" — exactly the
        // DCW write — so it can only do better.
        let dcw = model(bits, DataPolicy::Dcw);
        let fnw = model(bits, DataPolicy::DcwFnw);
        let line = |b: &[u8]| LineData::from_bytes(b);

        let d0 = dcw.price_write(None, &line(&first));
        let f0 = fnw.price_write(None, &line(&first));
        prop_assert!(f0.cost.cells_written <= d0.cost.cells_written);
        prop_assert!(f0.cost.energy <= d0.cost.energy);

        let mut padded = second.clone();
        padded.resize(first.len(), 0);
        let d1 = dcw.price_write(d0.image.as_deref(), &line(&padded));
        let f1 = fnw.price_write(f0.image.as_deref(), &line(&padded));
        prop_assert!(f1.cost.cells_total == d1.cost.cells_total);
        // From the same first write, FNW's flip freedom never loses on
        // programmed cells.
        if f0.image == d0.image {
            prop_assert!(f1.cost.cells_written <= d1.cost.cells_written,
                "fnw {} vs dcw {}", f1.cost.cells_written, d1.cost.cells_written);
        }
    }

    #[test]
    fn fnw_writes_at_most_half_of_each_binary_word(
        writes in proptest::collection::vec(any_line(), 1..5),
        len in 1usize..64,
    ) {
        // The classic SLC bound: with one-bit cells, 32-cell words and
        // direction-symmetric pulse costs, FNW degenerates to the classic
        // count rule (the Pareto energy gate never blocks a flip), so
        // min(d, n - d + 1) ≤ ⌈(n+1)/2⌉ per word regardless of history —
        // a line never programs more than half its cells plus one flip
        // cell per word. (Under the GST table SET and RESET prices
        // differ, and an energy-blocked flip legitimately keeps the plain
        // DCW write — covered by the ≤-DCW property above.)
        let fnw = DataWriteModel::new(
            LineCodec::new(1),
            TransitionCostModel::from_program_table(&symmetric_slc_table()),
            DataPolicy::DcwFnw,
        );
        let mut image: Option<Vec<u8>> = None;
        for bytes in &writes {
            let mut bytes = bytes.clone();
            bytes.resize(len, 0);
            let priced = fnw.price_write(image.as_deref(), &LineData::from_bytes(&bytes));
            let cells = priced.cost.cells_total;
            let words = (cells as usize).div_ceil(fnw.word_cells()) as u64;
            prop_assert!(
                priced.cost.cells_written <= cells / 2 + words,
                "{} cells written of {} (+{} flip cells allowed)",
                priced.cost.cells_written, cells, words
            );
            image = priced.image;
        }
    }

    // --- policy cost ordering ------------------------------------------------

    #[test]
    fn policies_order_on_every_write_from_shared_state(
        base in any_line(),
        update in any_line(),
        bits in 1u8..=4,
    ) {
        let obl = model(bits, DataPolicy::Oblivious);
        let dcw = model(bits, DataPolicy::Dcw);
        let fnw = model(bits, DataPolicy::DcwFnw);
        let line = |b: &[u8]| LineData::from_bytes(b);

        // First write: all three price from the erased array.
        let o0 = obl.price_write(None, &line(&base)).cost.energy;
        let d = dcw.price_write(None, &line(&base));
        let f = fnw.price_write(None, &line(&base));
        prop_assert!(f.cost.energy <= d.cost.energy, "fnw > dcw on first write");
        prop_assert!(d.cost.energy <= o0, "dcw > oblivious on first write");

        // Second write over DCW's own image: never above oblivious plus
        // the read-modify-compare overhead. The probe allowance is real,
        // not slack: when every changed cell moves *against* the
        // programming axis (e.g. 0xFF -> 0x00 lines) each prices at
        // exactly the via-reset = oblivious cost, and the probes are the
        // policy's net loss on that write. (Conserved cells each save at
        // least a reset, which dwarfs the whole line's probes — that is
        // why the aggregate ordering over real payloads still holds.)
        let mut padded = update.clone();
        padded.resize(base.len(), 0);
        let o1 = obl.price_write(None, &line(&padded)).cost.energy;
        let d1p = dcw.price_write(d.image.as_deref(), &line(&padded)).cost;
        let probes = dcw.costs().read_probe().energy * d1p.cells_total as f64;
        prop_assert!(
            d1p.energy <= o1 + probes,
            "dcw {} > oblivious {o1} + probes {probes} on rewrite",
            d1p.energy
        );
    }

    // --- payload generators --------------------------------------------------

    #[test]
    fn payload_streams_are_deterministic_and_sized(
        seed in any::<u64>(),
        line_bytes in prop_oneof![Just(32u64), Just(64u64), Just(128u64)],
    ) {
        for spec in PayloadSpec::entropy_sweep() {
            let mut a = spec.instantiate(seed);
            let mut b = spec.instantiate(seed);
            for i in 0..24u64 {
                let address = (i % 6) * line_bytes;
                let la = a.next_line(address, line_bytes);
                prop_assert_eq!(la, b.next_line(address, line_bytes), "{}", spec);
                prop_assert_eq!(la.len() as u64, line_bytes);
            }
        }
    }
}
