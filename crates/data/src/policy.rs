//! Write-reduction policies: content-oblivious pricing, DCW, Flip-N-Write.
//!
//! [`DataWriteModel`] is the crate's [`memsim::WritePricer`]: it owns a
//! [`LineCodec`] and a [`TransitionCostModel`] and prices a line write
//! under one of three policies (Song et al., *Improving Phase Change
//! Memory Performance with Data Content Aware Access*):
//!
//! * [`DataPolicy::Oblivious`] — the array programs every cell to its
//!   target level (erase + program, no read): the content-priced
//!   baseline. The line store is unused.
//! * [`DataPolicy::Dcw`] — data-comparison write: the array reads the
//!   line first (one probe per cell), then programs only the cells whose
//!   level changes, each at its [`TransitionCostModel::transition`]
//!   price.
//! * [`DataPolicy::DcwFnw`] — DCW plus Flip-N-Write: cells group into
//!   32-data-bit words, each with one flip cell; per word the model keeps
//!   or toggles the flip state, toggling only on a Pareto win with
//!   margin (no more programmed cells, at least one erase's worth of
//!   energy saved). With one-bit cells and direction-symmetric costs
//!   this reduces to the classic bound — at most half a word's cells
//!   (flip cell included) ever program; with MLC chunks the flip inverts
//!   each cell's data bits.
//!
//! The stored cell image is *physical*: the post-flip levels plus one
//! flip byte per word, so the policy's decisions persist across writes.
//! First touch prices from the all-reset state (an erased array), which
//! keeps runs deterministic.
//!
//! **The per-write path is table-driven and allocation-free.** It prices
//! in place ([`WritePricer::price_in_place`]): the old levels move to a
//! stack buffer and the codec encodes the new ones straight into the
//! image (exactly one level per cell plus one flip byte per word), every
//! cell's price is an index into the [`TransitionCostModel`]'s
//! precomputed matrix. Each word takes at most two passes: the first
//! prices keeping the flip state and only counts the cells toggling would
//! program; the second sums the toggle's energy only if that count can
//! win (no more programmed cells than keeping), since otherwise the
//! toggle is never chosen. Each option sums in cell order, flip cell
//! last, and only over the cells it programs: a conserved cell's price
//! is zero, and adding zero to a non-negative sum changes no bit. So every
//! energy sum is bit-equal to pricing the two options one after the
//! other with [`TransitionCostModel::transition`]. A chosen flip
//! complements the word's levels in place. The allocating
//! [`WritePricer::price_write`] is a wrapper over the same kernel.
//!
//! **What the FNW ≤ DCW ordering does and does not guarantee.** From
//! equal stored state, FNW's keep option *is* the DCW write, so each
//! decision is never worse than DCW on programmed cells or energy — a
//! structural per-write property. Across a write *sequence* the two
//! stores diverge once a word flips, and a greedy flip can in principle
//! cost more later than it saved (a flipped word turns a cheap
//! along-axis transition into erase-and-rewrite); the margin exists to
//! drop exactly the marginal flips where that regret risk is largest.
//! The cumulative ordering over the swept payload sources is therefore
//! asserted empirically — `fig_write_energy_vs_entropy` and
//! `tests/data_plane.rs` pin it at fixed seeds as a regression gate —
//! not claimed as a theorem for adversarial write sequences.

use crate::codec::LineCodec;
use crate::cost::{Price, TransitionCostModel};
use comet_units::{Energy, Time};
use memsim::{LineData, WriteCost, WritePricer};
use std::fmt;

/// Data bits per Flip-N-Write word (the classic granularity).
const WORD_BITS: usize = 32;

/// Cells in the longest line (one-bit cells): the size of the stack
/// buffers the pricer uses instead of allocating.
const MAX_CELLS: usize = memsim::MAX_LINE_BYTES * 8;

/// How a [`DataWriteModel`] prices writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataPolicy {
    /// Erase + program every cell; no read-modify-compare.
    Oblivious,
    /// Data-comparison write: program only changed cells.
    Dcw,
    /// DCW plus per-word Flip-N-Write.
    DcwFnw,
}

impl DataPolicy {
    /// All policies, in the cost-ordering direction (most to least
    /// expensive at equal content).
    pub const ALL: [DataPolicy; 3] = [DataPolicy::Oblivious, DataPolicy::Dcw, DataPolicy::DcwFnw];

    /// The registry/report label.
    pub fn label(self) -> &'static str {
        match self {
            DataPolicy::Oblivious => "oblivious",
            DataPolicy::Dcw => "dcw",
            DataPolicy::DcwFnw => "dcw-fnw",
        }
    }
}

impl fmt::Display for DataPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The crate's [`WritePricer`]: codec + transition costs + policy.
///
/// # Examples
///
/// ```no_run
/// use comet_data::{DataPolicy, DataWriteModel};
/// use memsim::{LineData, WritePricer};
///
/// let dcw = DataWriteModel::gst(4, DataPolicy::Dcw);
/// let line = LineData::from_bytes(&[0x5A; 64]);
/// let first = dcw.price_write(None, &line);
/// // Rewriting identical content conserves every cell.
/// let again = dcw.price_write(first.image.as_deref(), &line);
/// assert_eq!(again.cost.cells_written, 0);
/// assert!(again.cost.energy < first.cost.energy);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DataWriteModel {
    codec: LineCodec,
    costs: TransitionCostModel,
    policy: DataPolicy,
}

impl DataWriteModel {
    /// Builds a model from a codec and a cost table.
    ///
    /// # Panics
    ///
    /// Panics if the codec and the cost table disagree on bits per cell,
    /// or if the table was generated in crystalline-reset mode — the
    /// policies' first-touch state and flip-cell direction assume an
    /// erased array at level 0, so a crystalline-reset table would be
    /// silently mispriced rather than loudly rejected.
    pub fn new(codec: LineCodec, costs: TransitionCostModel, policy: DataPolicy) -> Self {
        assert_eq!(
            codec.bits(),
            costs.bits(),
            "codec and cost table must agree on bits/cell"
        );
        assert_eq!(
            costs.reset_level(),
            0,
            "DataWriteModel prices amorphous-reset tables only"
        );
        DataWriteModel {
            codec,
            costs,
            policy,
        }
    }

    /// The reference model: the COMET GST cell at `bits`/cell (see
    /// [`TransitionCostModel::gst`]).
    pub fn gst(bits: u8, policy: DataPolicy) -> Self {
        Self::new(LineCodec::new(bits), TransitionCostModel::gst(bits), policy)
    }

    /// The policy in force.
    pub fn policy(&self) -> DataPolicy {
        self.policy
    }

    /// The codec in force.
    pub fn codec(&self) -> &LineCodec {
        &self.codec
    }

    /// The transition cost table in force.
    pub fn costs(&self) -> &TransitionCostModel {
        &self.costs
    }

    /// Cells per Flip-N-Write word for this codec (32 data bits).
    pub fn word_cells(&self) -> usize {
        (WORD_BITS / self.codec.bits() as usize).max(1)
    }

    /// The mask that complements one cell's data chunk.
    fn flip_mask(&self) -> u8 {
        (1u16 << self.codec.bits()) as u8 - 1
    }
}

/// One option's running totals: programmed cells, summed energy and the
/// slowest pulse.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    cells: u64,
    energy: Energy,
    /// The slowest pulse's duration in seconds, as `f64` bits. Prices are
    /// finite and non-negative, and for such floats the bit patterns order
    /// like the values, so an integer max picks exactly the pulse
    /// `Time::max` would — without the NaN handling that makes a float max
    /// the longest dependency chain in the per-cell loop.
    slowest: u64,
}

impl Tally {
    /// Adds one programmed cell's price. A conserved cell is never added:
    /// its price is zero, and adding zero to the (non-negative) sums
    /// leaves them bit-equal, so skipping it changes no bit.
    fn add(&mut self, p: Price) {
        let pulse = p.latency.as_seconds();
        debug_assert!(pulse.is_finite() && pulse.is_sign_positive());
        self.cells += 1;
        self.energy += p.energy;
        self.slowest = self.slowest.max(pulse.to_bits());
    }

    /// The slowest pulse.
    fn latency(&self) -> Time {
        Time::from_seconds(f64::from_bits(self.slowest))
    }
}

/// Complements a Gray-coded level's data chunk: decode, invert the data
/// bits, re-encode. Gray of the complement is the Gray code with its top
/// bit flipped, so this is an involution on levels.
fn flip_level(level: u8, mask: u8) -> u8 {
    // gray(~v) = ~v ^ (~v >> 1) = (v ^ (v >> 1)) ^ top_bit  (within mask)
    level ^ (mask & !(mask >> 1))
}

impl WritePricer for DataWriteModel {
    fn image_len(&self, len: usize) -> Option<usize> {
        // DCW-class images: one level per cell, then one flip byte per
        // word. Content-oblivious pricing keeps nothing.
        let cells = self.codec.cells_for(len);
        (self.policy != DataPolicy::Oblivious).then(|| cells + cells.div_ceil(self.word_cells()))
    }

    fn price_in_place(&self, image: &mut [u8], data: &LineData) -> WriteCost {
        let cells = self.codec.cells_for(data.len());

        if self.policy == DataPolicy::Oblivious {
            // Erase + program every cell; no state kept.
            let mut levels = [0u8; MAX_CELLS];
            self.codec.encode_to(data.bytes(), &mut levels[..cells]);
            let table = self.costs.oblivious_table();
            let mut total = Tally::default();
            for &l in &levels[..cells] {
                total.add(table[l as usize]);
            }
            return WriteCost {
                energy: total.energy,
                latency: total.latency(),
                cells_written: cells as u64,
                cells_total: cells as u64,
            };
        }

        // DCW-class policies read the whole line first (probes fire in
        // parallel across cells: one probe latency, per-cell energy).
        let probe = self.costs.read_probe();
        let mut energy = probe.energy * cells as f64;
        let mut pulse = Time::ZERO;
        let mut written = 0u64;

        // The image holds the old levels (all at the reset level 0,
        // enforced by `new`, on an erased line) and then one flip byte
        // per word. The old levels move aside and the new ones are
        // encoded over them; each word's flip byte is read before it is
        // rewritten.
        debug_assert_eq!(Some(image.len()), self.image_len(data.len()));
        let (levels, flips) = image.split_at_mut(cells);
        let mut old = [0u8; MAX_CELLS];
        let old_levels = &mut old[..cells];
        old_levels.copy_from_slice(levels);
        self.codec.encode_to(data.bytes(), levels);

        let word = self.word_cells();
        let fnw = self.policy == DataPolicy::DcwFnw;
        let table = self.costs.transition_table();
        let n = self.costs.levels() as usize;
        let mask = self.flip_mask();
        // The flip cell toggles between the reset level and the deepest
        // level — one more transition on the same array.
        let flip_on = table[n - 1];
        let flip_off = table[(n - 1) * n];
        let flip_margin = self.costs.reset_price().energy;

        for ((target, old), flip_cell) in levels
            .chunks_mut(word)
            .zip(old_levels.chunks(word))
            .zip(flips.iter_mut())
        {
            let old_flip = *flip_cell != 0;
            // The level each cell takes under the word's current flip
            // state; toggling the flip stores its complement instead.
            let same_level = |t: u8| if old_flip { flip_level(t, mask) } else { t };

            // Pass 1 prices keeping the flip state (the DCW write) and only
            // counts the cells toggling would program, flip cell included.
            let mut keep = Tally::default();
            let mut toggle_cells = u64::from(fnw);
            for (&o, &t) in old.iter().zip(target.iter()) {
                let same = same_level(t);
                if o != same {
                    keep.add(table[o as usize * n + same as usize]);
                }
                toggle_cells += u64::from(fnw && o != flip_level(same, mask));
            }

            // Toggle only on a Pareto win with margin: no more programmed
            // cells AND at least one erase's worth of energy saved. The
            // keep option *is* the plain DCW write, so from equal stored
            // state Flip-N-Write is never worse than DCW on either axis.
            // (Classic count-only FNW would flip whenever it writes fewer
            // cells; with per-transition costs that can buy
            // fewer-but-deeper pulses, so energy gates the flip too. The
            // margin drops *marginal* flips — the ones whose banked saving
            // could be dwarfed by a later write's cost of being in the
            // flipped domain; only high-yield flips like full complements
            // survive. The greedy decision still cannot bound cumulative
            // regret structurally — see the module docs — which is why the
            // swept ordering is asserted as a pinned-seed regression gate,
            // not claimed as a theorem.)
            //
            // Toggling can win only if it programs no more cells, so pass 2
            // sums its energy only then, cell by cell and then the flip
            // cell: the order pricing the option alone would sum in.
            let toggle = (fnw && toggle_cells <= keep.cells)
                .then(|| {
                    let mut toggle = Tally::default();
                    for (&o, &t) in old.iter().zip(target.iter()) {
                        let other = flip_level(same_level(t), mask);
                        if o != other {
                            toggle.add(table[o as usize * n + other as usize]);
                        }
                    }
                    toggle.add(if old_flip { flip_off } else { flip_on });
                    debug_assert_eq!(toggle.cells, toggle_cells);
                    toggle
                })
                .filter(|toggle| toggle.energy + flip_margin <= keep.energy);
            let toggled = toggle.is_some();
            let chosen = toggle.unwrap_or(keep);
            written += chosen.cells;
            energy += chosen.energy;
            pulse = pulse.max(chosen.latency());
            let flip = old_flip != toggled;
            if flip {
                for t in target.iter_mut() {
                    *t = flip_level(*t, mask);
                }
            }
            *flip_cell = flip as u8;
        }

        WriteCost {
            energy,
            // Read-modify-write: the probe precedes the slowest pulse.
            latency: probe.latency + pulse,
            cells_written: written,
            cells_total: cells as u64,
        }
    }

    fn price_unknown(&self, line_bytes: u64) -> WriteCost {
        let cells = self.codec.cells_for(line_bytes as usize) as u64;
        let worst = self.costs.worst_case();
        WriteCost {
            energy: worst.energy * cells as f64,
            latency: worst.latency,
            cells_written: cells,
            cells_total: cells,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn models() -> &'static [DataWriteModel; 3] {
        static MODELS: OnceLock<[DataWriteModel; 3]> = OnceLock::new();
        MODELS.get_or_init(|| {
            [
                DataWriteModel::gst(4, DataPolicy::Oblivious),
                DataWriteModel::gst(4, DataPolicy::Dcw),
                DataWriteModel::gst(4, DataPolicy::DcwFnw),
            ]
        })
    }

    fn line(fill: u8) -> LineData {
        LineData::from_bytes(&[fill; 64])
    }

    #[test]
    fn flip_level_is_the_data_complement() {
        for bits in 1..=6u8 {
            let codec = LineCodec::new(bits);
            let mask = (1u16 << bits) as u8 - 1;
            let data: Vec<u8> = (0..32u8).collect();
            let plain = codec.encode(&data);
            let inverted: Vec<u8> = data.iter().map(|b| !b).collect();
            let flipped = codec.encode(&inverted);
            // Only cells fully inside the data: the padded tail cell's pad
            // bits flip with the chunk but stay zero under byte inversion
            // (harmless — pads are discarded on decode, and the flip is
            // applied consistently to old and new images).
            let full = (data.len() * 8) / bits as usize;
            for (p, f) in plain.iter().zip(&flipped).take(full) {
                assert_eq!(flip_level(*p, mask), *f, "bits={bits}");
                assert_eq!(flip_level(flip_level(*p, mask), mask), *p, "involution");
            }
        }
    }

    #[test]
    fn identical_rewrite_is_conserved_under_dcw() {
        let [_, dcw, fnw] = models();
        for model in [dcw, fnw] {
            let first = model.price_write(None, &line(0x5A));
            let again = model.price_write(first.image.as_deref(), &line(0x5A));
            assert_eq!(again.cost.cells_written, 0, "{}", model.policy());
            // Only the read probe remains.
            assert!(again.cost.energy < first.cost.energy);
            assert_eq!(again.cost.latency, model.costs.read_probe().latency);
        }
    }

    #[test]
    fn policies_order_on_a_first_write() {
        let [obl, dcw, fnw] = models();
        for fill in [0x00u8, 0xFF, 0x5A, 0x13] {
            let o = obl.price_write(None, &line(fill)).cost.energy;
            let d = dcw.price_write(None, &line(fill)).cost.energy;
            let f = fnw.price_write(None, &line(fill)).cost.energy;
            assert!(f <= d, "fill {fill:#x}: fnw {f} > dcw {d}");
            assert!(d <= o, "fill {fill:#x}: dcw {d} > oblivious {o}");
        }
    }

    #[test]
    fn fnw_wins_on_complement_heavy_updates() {
        let [_, dcw, fnw] = models();
        let a = line(0x33);
        let b = line(!0x33); // full complement: every cell flips
        let dcw_img = dcw.price_write(None, &a);
        let fnw_img = fnw.price_write(None, &a);
        let d = dcw.price_write(dcw_img.image.as_deref(), &b).cost;
        let f = fnw.price_write(fnw_img.image.as_deref(), &b).cost;
        // DCW programs every cell; FNW toggles one flip cell per word.
        assert_eq!(d.cells_written, d.cells_total);
        assert_eq!(
            f.cells_written as usize,
            128usize.div_ceil(fnw.word_cells())
        );
        assert!(f.energy < d.energy);
    }

    #[test]
    #[should_panic(expected = "amorphous-reset")]
    fn crystalline_reset_tables_are_rejected() {
        use opcm_phys::{CellThermalModel, ProgramMode, ProgramTable};
        let table = ProgramTable::generate(
            &CellThermalModel::comet_gst(),
            ProgramMode::CrystallineReset,
            1,
        )
        .expect("generates");
        let costs = TransitionCostModel::from_program_table(&table);
        let _ = DataWriteModel::new(LineCodec::new(1), costs, DataPolicy::Dcw);
    }

    #[test]
    fn oblivious_keeps_no_image_and_unknown_is_worst_case() {
        let [obl, dcw, _] = models();
        let priced = obl.price_write(None, &line(0x77));
        assert!(priced.image.is_none());
        let unknown = dcw.price_unknown(64);
        let known = dcw.price_write(None, &line(0xFF)).cost;
        assert!(unknown.energy >= known.energy - dcw.costs.read_probe().energy * 128.0);
        assert_eq!(unknown.cells_written, 128);
    }

    #[test]
    fn zero_lines_cost_only_probes_after_first_touch() {
        // An all-zero line maps every cell to level 0 = the reset state,
        // so even the first DCW write conserves everything.
        let [_, dcw, _] = models();
        let priced = dcw.price_write(None, &line(0x00));
        assert_eq!(priced.cost.cells_written, 0);
    }
}
