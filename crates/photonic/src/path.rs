//! Optical path loss budgets.
//!
//! An [`OpticalPath`] is an ordered chain of [`PathElement`]s between a
//! source (laser or SOA stage) and a destination (cell or detector). It
//! answers the two questions the architecture layer keeps asking:
//!
//! 1. *How much power must the source launch so the destination receives a
//!    target power?* — drives the laser-power model (Fig. 7/8).
//! 2. *Does the signal level anywhere exceed/undershoot limits?* — drives
//!    SOA placement (the every-46-rows rule).

use crate::elements::PathElement;
use crate::params::OpticalParams;
use comet_units::{Decibels, Power};

/// A chain of photonic elements traversed by one wavelength.
///
/// Non-consuming builder per [C-BUILDER]; `total_loss`/`required_input`
/// are the terminal computations.
///
/// # Examples
///
/// ```
/// use comet_units::{Length, Power};
/// use photonic::{MrTuning, OpticalParams, OpticalPath, PathElement};
///
/// let params = OpticalParams::table_i();
/// let mut path = OpticalPath::new();
/// path.push(PathElement::Coupler)
///     .push(PathElement::Propagation(Length::from_millimeters(5.0)))
///     .push(PathElement::TunedMrDrop(MrTuning::ElectroOptic));
/// let loss = path.total_loss(&params);
/// assert!((loss.value() - 2.65).abs() < 1e-9); // 1 + 0.05 + 1.6
///
/// // Laser power needed to deliver 1 mW at the cell:
/// let launch = path.required_input(Power::from_milliwatts(1.0), &params);
/// assert!(launch.as_milliwatts() > 1.8);
/// ```
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html#c-builder
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OpticalPath {
    elements: Vec<PathElement>,
}

impl OpticalPath {
    /// Creates an empty path.
    pub fn new() -> Self {
        OpticalPath::default()
    }

    /// Appends one element.
    pub fn push(&mut self, element: PathElement) -> &mut Self {
        self.elements.push(element);
        self
    }

    /// Appends `count` copies of an element.
    pub fn push_repeated(&mut self, element: PathElement, count: usize) -> &mut Self {
        self.elements.extend(std::iter::repeat(element).take(count));
        self
    }

    /// Appends a memory cell in its most transmissive state, taking the
    /// insertion loss from a cell model — the cross-layer hook through
    /// which device physics enters a circuit-level loss budget.
    ///
    /// ```
    /// use photonic::{CellOpticalModel, DerivedCellModel, OpticalParams, OpticalPath, PathElement};
    ///
    /// let cell = DerivedCellModel::comet_gst();
    /// let mut path = OpticalPath::new();
    /// path.push(PathElement::Coupler).push_cell(&cell);
    /// let loss = path.total_loss(&OpticalParams::table_i());
    /// assert!(loss.value() > 1.0 && loss.value() < 1.5);
    /// ```
    pub fn push_cell(&mut self, cell: &dyn crate::CellOpticalModel) -> &mut Self {
        self.push(PathElement::Cell(cell.insertion_loss()))
    }

    /// The elements in traversal order.
    pub fn elements(&self) -> &[PathElement] {
        &self.elements
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the path is empty.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Net end-to-end loss (gains subtract; may be negative for an
    /// amplifying path).
    pub fn total_loss(&self, params: &OpticalParams) -> Decibels {
        self.elements.iter().map(|e| e.net_loss(params)).sum()
    }

    /// The running signal level relative to the input, element by element;
    /// `out[i]` is the level after traversing element `i`.
    pub fn level_profile(&self, params: &OpticalParams) -> Vec<Decibels> {
        let mut level = Decibels::ZERO;
        self.elements
            .iter()
            .map(|e| {
                level += e.net_loss(params);
                -level
            })
            .collect()
    }

    /// Input power required so the path output is `target`.
    pub fn required_input(&self, target: Power, params: &OpticalParams) -> Power {
        target.amplify(self.total_loss(params))
    }
}

impl FromIterator<PathElement> for OpticalPath {
    fn from_iter<I: IntoIterator<Item = PathElement>>(iter: I) -> Self {
        OpticalPath {
            elements: iter.into_iter().collect(),
        }
    }
}

impl Extend<PathElement> for OpticalPath {
    fn extend<I: IntoIterator<Item = PathElement>>(&mut self, iter: I) {
        self.elements.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::MrTuning;
    use comet_units::Length;

    fn params() -> OpticalParams {
        OpticalParams::table_i()
    }

    #[test]
    fn empty_path_is_lossless() {
        let p = OpticalPath::new();
        assert!(p.is_empty());
        assert_eq!(p.total_loss(&params()), Decibels::ZERO);
    }

    #[test]
    fn losses_accumulate() {
        let mut p = OpticalPath::new();
        p.push(PathElement::Coupler)
            .push_repeated(PathElement::MrThrough, 10)
            .push(PathElement::TunedMrDrop(MrTuning::ElectroOptic));
        // 1.0 + 10*0.02 + 1.6 = 2.8 dB.
        assert!((p.total_loss(&params()).value() - 2.8).abs() < 1e-9);
    }

    #[test]
    fn soa_restores_level() {
        let mut p = OpticalPath::new();
        p.push(PathElement::Fixed(Decibels::new(15.2)))
            .push(PathElement::Soa {
                gain: Decibels::new(15.2),
            });
        assert!(p.total_loss(&params()).value().abs() < 1e-12);
    }

    #[test]
    fn worst_level_is_before_amplification() {
        let mut p = OpticalPath::new();
        p.push(PathElement::Fixed(Decibels::new(10.0)))
            .push(PathElement::Soa {
                gain: Decibels::new(10.0),
            })
            .push(PathElement::Fixed(Decibels::new(3.0)));
        let profile: Vec<f64> = p
            .level_profile(&params())
            .iter()
            .map(|l| l.value())
            .collect();
        assert_eq!(profile, [-10.0, 0.0, -3.0]);
    }

    #[test]
    fn required_input_roundtrip() {
        let mut p = OpticalPath::new();
        p.push(PathElement::Coupler)
            .push(PathElement::Propagation(Length::from_centimeters(1.0)))
            .push(PathElement::Bends(2))
            .push(PathElement::GstSwitch);
        let target = Power::from_milliwatts(1.0);
        let input = p.required_input(target, &params());
        let back = input.attenuate(p.total_loss(&params()));
        assert!((back.as_watts() - target.as_watts()).abs() < 1e-18);
        assert!(input > target);
    }

    #[test]
    fn profile_length_matches_elements() {
        let mut p = OpticalPath::new();
        p.push_repeated(PathElement::MrThrough, 5);
        let profile = p.level_profile(&params());
        assert_eq!(profile.len(), 5);
        // Monotone decreasing for a purely passive path.
        for w in profile.windows(2) {
            assert!(w[1] < w[0]);
        }
    }

    #[test]
    fn collect_from_iterator() {
        let p: OpticalPath = (0..3).map(|_| PathElement::MrThrough).collect();
        assert_eq!(p.len(), 3);
    }
}
