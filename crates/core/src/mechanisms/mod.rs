//! The four intrinsic hard-failure mechanisms modelled by RAMP.
//!
//! Each mechanism implements [`FailureModel`]: given a structure's
//! instantaneous [`OperatingPoint`] and the [`TechNode`] being simulated,
//! it returns a *relative* failure rate — the full analytic rate expression
//! with the unknown material/yield proportionality constant factored out.
//! [`crate::Qualification`] later fixes those constants so that each
//! mechanism contributes 1000 FIT on average across the workload at
//! 180 nm (a 30-year, 4000-FIT processor), exactly the paper's
//! reliability-qualification procedure.
//!
//! Summary of scaling dependences (Table 1 of the paper):
//!
//! | Mechanism | temperature | voltage | feature size |
//! |---|---|---|---|
//! | EM   | `e^{−Ea/kT}` (rate) | — | `1/(w·h)` via κ², plus J_max |
//! | SM   | `\|T−T₀\|^m e^{−Ea/kT}` (rate) | — | — |
//! | TDDB | super-exponential | `V^{a−bT}` (rate) | `10^{Δt_ox/s}`, gate area |
//! | TC   | `(T−T_ambient)^q` (rate) | — | — |
//!
//! Every model's rate also splits ([`SplitRate`]) into a part prepared once
//! per (node, voltage, activity) and a temperature part; `relative_rate`
//! is the composition of the two, so each formula is written once.

mod em;
mod sm;
mod tc;
mod tddb;

pub use em::{Electromigration, EmTerms};
pub use sm::StressMigration;
pub use tc::ThermalCycling;
pub use tddb::{DielectricBreakdown, TddbTerms};

use crate::{OperatingPoint, TechNode};
use ramp_units::{ActivityFactor, Kelvin, Volts};
use serde::{Deserialize, Serialize};

/// Identifies one of the four modelled failure mechanisms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MechanismKind {
    /// Electromigration in copper interconnects.
    Em,
    /// Stress migration (thermo-mechanical stress voiding).
    Sm,
    /// Time-dependent dielectric (gate-oxide) breakdown.
    Tddb,
    /// Thermal-cycling fatigue (package / die interface).
    Tc,
}

impl MechanismKind {
    /// All mechanisms, in the paper's reporting order.
    pub const ALL: [MechanismKind; 4] = [
        MechanismKind::Em,
        MechanismKind::Sm,
        MechanismKind::Tddb,
        MechanismKind::Tc,
    ];

    /// Number of modelled mechanisms.
    pub const COUNT: usize = 4;

    /// Dense index within [`MechanismKind::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            MechanismKind::Em => 0,
            MechanismKind::Sm => 1,
            MechanismKind::Tddb => 2,
            MechanismKind::Tc => 3,
        }
    }

    /// Short uppercase label as used in the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MechanismKind::Em => "EM",
            MechanismKind::Sm => "SM",
            MechanismKind::Tddb => "TDDB",
            MechanismKind::Tc => "TC",
        }
    }
}

impl std::fmt::Display for MechanismKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A failure-rate model with its proportionality constant factored out.
///
/// Implementations must be pure functions of the operating point and node:
/// the reliability engine calls them once per structure per microsecond
/// interval.
pub trait FailureModel: std::fmt::Debug + Send + Sync {
    /// Which mechanism this model describes.
    fn kind(&self) -> MechanismKind;

    /// Relative instantaneous failure rate (reciprocal of relative MTTF)
    /// at the given operating point on the given node. Dimensionless up to
    /// the calibration constant; must be finite and non-negative.
    fn relative_rate(&self, op: &OperatingPoint, node: &TechNode) -> f64;
}

/// A failure model whose rate separates into a temperature-independent
/// part and a temperature part.
///
/// [`SplitRate::prepare`] evaluates every term that depends only on the
/// node, the supply voltage and the activity; [`SplitRate::rate_at`]
/// finishes the rate at one temperature. Each model's
/// [`FailureModel::relative_rate`] is exactly
/// `rate_at(&prepare(V, p, node), T)`, with the same evaluation order, so
/// a caller that prices many temperatures at one (node, voltage,
/// activity) pays the temperature-independent terms once and gets the
/// same `f64`s bit for bit.
pub trait SplitRate: FailureModel {
    /// The temperature-independent terms of the rate.
    type Prepared;

    /// The terms fixed by the node, supply voltage and activity.
    fn prepare(&self, voltage: Volts, activity: ActivityFactor, node: &TechNode) -> Self::Prepared;

    /// The relative rate at `temperature`, given the prepared terms.
    fn rate_at(&self, prepared: &Self::Prepared, temperature: Kelvin) -> f64;
}

/// The standard model set: all four mechanisms with their default
/// (paper/calibrated) parameters, as concrete types.
///
/// `Copy` and statically dispatched: [`crate::RateAccumulator`] and the
/// fleet's chip kernel call each model's [`SplitRate`] terms directly.
/// [`StandardModels::iter`] views the set as trait objects for code that
/// loops over mechanisms.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StandardModels {
    /// Electromigration.
    pub em: Electromigration,
    /// Stress migration.
    pub sm: StressMigration,
    /// Gate-oxide breakdown.
    pub tddb: DielectricBreakdown,
    /// Thermal cycling.
    pub tc: ThermalCycling,
}

impl StandardModels {
    /// The four models as trait objects, in [`MechanismKind::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn FailureModel> {
        let models: [&dyn FailureModel; MechanismKind::COUNT] =
            [&self.em, &self.sm, &self.tddb, &self.tc];
        models.into_iter()
    }
}

/// The standard model set (see [`StandardModels`]).
#[must_use]
pub fn standard_models() -> StandardModels {
    StandardModels::default()
}

/// A dense per-mechanism map, indexed by [`MechanismKind`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerMechanism<T>(pub [T; MechanismKind::COUNT]);

impl<T: Default + Copy> Default for PerMechanism<T> {
    fn default() -> Self {
        PerMechanism([T::default(); MechanismKind::COUNT])
    }
}

impl<T> PerMechanism<T> {
    /// Builds a map by evaluating `f` for each mechanism.
    pub fn from_fn(mut f: impl FnMut(MechanismKind) -> T) -> Self {
        PerMechanism(MechanismKind::ALL.map(&mut f))
    }

    /// Iterates `(mechanism, &value)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (MechanismKind, &T)> {
        MechanismKind::ALL
            .iter()
            .map(move |&m| (m, &self.0[m.index()]))
    }

    /// The underlying array in canonical order.
    #[must_use]
    pub fn as_array(&self) -> &[T; MechanismKind::COUNT] {
        &self.0
    }
}

impl<T> std::ops::Index<MechanismKind> for PerMechanism<T> {
    type Output = T;
    fn index(&self, m: MechanismKind) -> &T {
        &self.0[m.index()]
    }
}

impl<T> std::ops::IndexMut<MechanismKind> for PerMechanism<T> {
    fn index_mut(&mut self, m: MechanismKind) -> &mut T {
        &mut self.0[m.index()]
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use ramp_units::{ActivityFactor, Kelvin, Volts};

    /// A representative 180 nm operating point for mechanism unit tests.
    pub fn typical_op(temp_k: f64) -> OperatingPoint {
        OperatingPoint::new(
            Kelvin::new(temp_k).unwrap(),
            Volts::new(1.3).unwrap(),
            ActivityFactor::new(0.4).unwrap(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use test_support::typical_op;

    #[test]
    fn kinds_are_dense() {
        for (i, &m) in MechanismKind::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
    }

    #[test]
    fn standard_models_cover_all_kinds() {
        let models = standard_models();
        let mut kinds: Vec<_> = models.iter().map(|m| m.kind()).collect();
        assert_eq!(kinds, MechanismKind::ALL, "iterated in canonical order");
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), 4);
    }

    #[test]
    fn all_rates_finite_positive_and_temperature_monotone() {
        let node = TechNode::reference();
        for model in standard_models().iter() {
            let cool = model.relative_rate(&typical_op(340.0), &node);
            let hot = model.relative_rate(&typical_op(380.0), &node);
            assert!(cool.is_finite() && cool > 0.0, "{}", model.kind());
            assert!(
                hot > cool,
                "{} must degrade with temperature: {cool} vs {hot}",
                model.kind()
            );
        }
    }

    #[test]
    fn scaling_to_65nm_raises_every_mechanism() {
        // At equal temperature, voltage effects can offset others; compare
        // at the realistic 65 nm point (1.0 V) with its observed ~+10 K.
        let n180 = TechNode::reference();
        let n65 = TechNode::get(NodeId::N65HighV);
        for model in standard_models().iter() {
            let mut op180 = typical_op(356.0);
            let mut op65 = typical_op(366.0);
            op180.voltage = n180.vdd;
            op65.voltage = n65.vdd;
            let r180 = model.relative_rate(&op180, &n180);
            let r65 = model.relative_rate(&op65, &n65);
            assert!(
                r65 > r180,
                "{}: 65 nm rate {r65} not above 180 nm rate {r180}",
                model.kind()
            );
        }
    }

    #[test]
    fn split_rate_composes_to_the_relative_rate() {
        fn check<M: SplitRate>(model: &M, op: &OperatingPoint, node: &TechNode) {
            let prepared = model.prepare(op.voltage, op.activity, node);
            let split = model.rate_at(&prepared, op.temperature);
            let whole = model.relative_rate(op, node);
            assert_eq!(split.to_bits(), whole.to_bits(), "{}", model.kind());
        }
        let models = StandardModels::default();
        for id in NodeId::ALL {
            let node = TechNode::get(id);
            for t in [300.0, 341.5, 356.0, 383.25] {
                let mut op = typical_op(t);
                op.voltage = node.vdd;
                check(&models.em, &op, &node);
                check(&models.sm, &op, &node);
                check(&models.tddb, &op, &node);
                check(&models.tc, &op, &node);
            }
        }
    }

    #[test]
    fn per_mechanism_indexing() {
        let m = PerMechanism::from_fn(|k| k.index() * 10);
        assert_eq!(m[MechanismKind::Tddb], 20);
        assert_eq!(m.iter().count(), 4);
    }
}
