//! Time-averaging of instantaneous failure rates over a workload run.
//!
//! RAMP evaluates each failure model at every sampling interval and keeps
//! a running average of the instantaneous rates (paper §2, "Combining the
//! models"): the average over *time* mirrors the SOFR sum over *space*.
//! Thermal cycling is the exception — its damage law is a function of the
//! run's average temperature swing (Eq. 4 uses `T_average`), so the
//! accumulator tracks average temperature and evaluates TC once at the
//! end.

use crate::mechanisms::{
    EmTerms, FailureModel, MechanismKind, PerMechanism, SplitRate, StandardModels, TddbTerms,
};
use crate::{OperatingPoint, TechNode};
use ramp_microarch::{PerStructure, Structure};
use ramp_units::{ActivityFactor, Kelvin, Volts};

/// Time-averaged relative failure rates, per mechanism and structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AveragedRates {
    per_mechanism: PerMechanism<PerStructure<f64>>,
    average_temperature: PerStructure<Kelvin>,
    peak_temperature: PerStructure<Kelvin>,
}

impl AveragedRates {
    /// Mean relative rate of one (mechanism, structure) pair.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- relative failure rate, dimensionless
    pub fn rate(&self, m: MechanismKind, s: Structure) -> f64 {
        // ramp-lint:allow(panic-reach) -- enum-indexed `PerMechanism`/`PerStructure` are total
        self.per_mechanism[m][s]
    }

    /// Sum of a mechanism's mean rates over all structures (the quantity
    /// qualification normalises).
    #[must_use]
    // ramp-lint:allow(unit-safety) -- relative failure rate, dimensionless
    pub fn mechanism_total(&self, m: MechanismKind) -> f64 {
        Structure::ALL.iter().map(|&s| self.rate(m, s)).sum()
    }

    /// Time-average temperature per structure.
    #[must_use]
    pub fn average_temperature(&self) -> &PerStructure<Kelvin> {
        &self.average_temperature
    }

    /// Peak temperature per structure over the run.
    #[must_use]
    pub fn peak_temperature(&self) -> &PerStructure<Kelvin> {
        &self.peak_temperature
    }

    /// Hottest structure temperature seen at any point in the run (the
    /// quantity Figure 2 plots).
    #[must_use]
    pub fn max_temperature(&self) -> Kelvin {
        *Structure::ALL
            .iter()
            // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
            .map(|&s| &self.peak_temperature[s])
            .max_by(|a, b| a.value().total_cmp(&b.value()))
            .expect("non-empty structure set") // ramp-lint:allow(panic-hygiene) -- structures are a non-empty static enum
    }
}

/// Accumulates instantaneous rates across a run.
///
/// The models are called by static dispatch, and the terms that do not
/// change within a run are prepared once, not once per (interval,
/// structure): EM's geometry penalty `κ^{−g}` per accumulator, and TDDB's
/// `ln V`, `ln A_rel` and t_ox terms per supply voltage, held in a
/// one-entry memo so a DVS switch re-prepares them. Every rate is still
/// the model's `rate_at(&prepare(..), T)`, so the sums are the same `f64`s
/// as calling each model's `relative_rate` cell by cell.
#[derive(Debug)]
pub struct RateAccumulator {
    models: StandardModels,
    node: TechNode,
    em_terms: EmTerms,
    tddb_voltage: Volts,
    tddb_terms: TddbTerms,
    rate_sums: PerMechanism<PerStructure<f64>>,
    temp_sums: PerStructure<f64>,
    temp_peaks: PerStructure<f64>,
    weight: f64,
}

impl RateAccumulator {
    /// Creates an accumulator for `node` using the given model set.
    #[must_use]
    pub fn new(models: &StandardModels, node: TechNode) -> Self {
        RateAccumulator {
            models: *models,
            node,
            em_terms: models.em.prepare(node.vdd, ActivityFactor::IDLE, &node),
            tddb_voltage: node.vdd,
            tddb_terms: models.tddb.prepare(node.vdd, ActivityFactor::IDLE, &node),
            rate_sums: PerMechanism::from_fn(|_| PerStructure::from_fn(|_| 0.0)),
            temp_sums: PerStructure::from_fn(|_| 0.0),
            temp_peaks: PerStructure::from_fn(|_| 0.0),
            weight: 0.0,
        }
    }

    /// Observes one sampling interval: an operating point per structure,
    /// weighted by the interval duration (relative weights suffice).
    ///
    /// # Panics
    ///
    /// Panics if `dt_weight` is not finite and positive, or a model
    /// produces a non-finite rate.
    // ramp-lint:allow(unit-safety) -- dt_weight is a dimensionless quadrature weight
    pub fn observe(&mut self, ops: &PerStructure<OperatingPoint>, dt_weight: f64) {
        assert!(
            dt_weight.is_finite() && dt_weight > 0.0,
            "interval weight must be positive"
        );
        let StandardModels { em, sm, tddb, .. } = self.models;
        for s in Structure::ALL {
            let op = &ops[s]; // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
            if op.voltage != self.tddb_voltage {
                self.tddb_voltage = op.voltage;
                self.tddb_terms = tddb.prepare(op.voltage, op.activity, &self.node);
            }
            let em_terms = em.at_activity(self.em_terms, op.activity, &self.node);
            let rates = [
                (MechanismKind::Em, em.rate_at(&em_terms, op.temperature)),
                (MechanismKind::Sm, sm.rate_at(&(), op.temperature)),
                (MechanismKind::Tddb, tddb.rate_at(&self.tddb_terms, op.temperature)),
            ];
            for (kind, r) in rates {
                assert!(
                    r.is_finite() && r >= 0.0,
                    "{kind} produced invalid rate {r}"
                );
                self.rate_sums[kind][s] += r * dt_weight; // ramp-lint:allow(panic-reach) -- enum-indexed `PerMechanism`/`PerStructure` are total
            }
            let t = op.temperature.value();
            self.temp_sums[s] += t * dt_weight; // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
            if t > self.temp_peaks[s] { // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
                self.temp_peaks[s] = t;
            }
        }
        self.weight += dt_weight;
    }

    /// Finalises into time-averaged rates.
    ///
    /// # Panics
    ///
    /// Panics if nothing was observed.
    #[must_use]
    pub fn finish(self) -> AveragedRates {
        assert!(self.weight > 0.0, "no intervals observed");
        let avg_temp = PerStructure::from_fn(|s| {
            // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
            Kelvin::new(self.temp_sums[s] / self.weight)
                .expect("average of valid temperatures is valid") // ramp-lint:allow(panic-hygiene) -- mean of valid temperatures stays valid
        });
        let mut per_mechanism =
            PerMechanism::from_fn(|m| PerStructure::from_fn(|s| self.rate_sums[m][s] / self.weight)); // ramp-lint:allow(panic-reach) -- enum-indexed `PerMechanism`/`PerStructure` are total
        // Thermal cycling: one evaluation at the average temperature.
        for s in Structure::ALL {
            let op = OperatingPoint::new(
                avg_temp[s], // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
                self.node.vdd,
                ActivityFactor::IDLE,
            );
            per_mechanism[MechanismKind::Tc][s] = self.models.tc.relative_rate(&op, &self.node); // ramp-lint:allow(panic-reach) -- enum-indexed `PerMechanism`/`PerStructure` are total
        }
        AveragedRates {
            per_mechanism,
            average_temperature: avg_temp,
            peak_temperature: PerStructure::from_fn(|s| {
                Kelvin::new(self.temp_peaks[s].max(1e-6)) // ramp-lint:allow(panic-reach) -- enum-indexed `PerMechanism`/`PerStructure` are total
                    .expect("peak of valid temperatures is valid") // ramp-lint:allow(panic-hygiene) -- max of valid temperatures stays valid
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drm::DvsLevel;
    use crate::mechanisms::standard_models;
    use crate::NodeId;
    use proptest::prelude::*;

    /// The direct accumulator, with nothing prepared: every model boxed
    /// behind `dyn FailureModel`, every rate a `relative_rate` call per
    /// (mechanism, structure) cell. The oracle of the bit-identity
    /// property below.
    struct BoxedReference {
        models: Vec<Box<dyn FailureModel>>,
        node: TechNode,
        rate_sums: PerMechanism<PerStructure<f64>>,
        temp_sums: PerStructure<f64>,
        temp_peaks: PerStructure<f64>,
        weight: f64,
    }

    impl BoxedReference {
        fn new(node: TechNode) -> Self {
            let m = standard_models();
            BoxedReference {
                models: vec![Box::new(m.em), Box::new(m.sm), Box::new(m.tddb), Box::new(m.tc)],
                node,
                rate_sums: PerMechanism::from_fn(|_| PerStructure::from_fn(|_| 0.0)),
                temp_sums: PerStructure::from_fn(|_| 0.0),
                temp_peaks: PerStructure::from_fn(|_| 0.0),
                weight: 0.0,
            }
        }

        fn observe(&mut self, ops: &PerStructure<OperatingPoint>, dt_weight: f64) {
            for model in &self.models {
                let kind = model.kind();
                if kind == MechanismKind::Tc {
                    continue;
                }
                for s in Structure::ALL {
                    let r = model.relative_rate(&ops[s], &self.node);
                    self.rate_sums[kind][s] += r * dt_weight;
                }
            }
            for s in Structure::ALL {
                let t = ops[s].temperature.value();
                self.temp_sums[s] += t * dt_weight;
                if t > self.temp_peaks[s] {
                    self.temp_peaks[s] = t;
                }
            }
            self.weight += dt_weight;
        }

        fn finish(self) -> AveragedRates {
            let avg_temp =
                PerStructure::from_fn(|s| Kelvin::new(self.temp_sums[s] / self.weight).unwrap());
            let mut per_mechanism = PerMechanism::from_fn(|m| {
                PerStructure::from_fn(|s| self.rate_sums[m][s] / self.weight)
            });
            for model in &self.models {
                if model.kind() == MechanismKind::Tc {
                    for s in Structure::ALL {
                        let op =
                            OperatingPoint::new(avg_temp[s], self.node.vdd, ActivityFactor::IDLE);
                        per_mechanism[MechanismKind::Tc][s] = model.relative_rate(&op, &self.node);
                    }
                }
            }
            AveragedRates {
                per_mechanism,
                average_temperature: avg_temp,
                peak_temperature: PerStructure::from_fn(|s| {
                    Kelvin::new(self.temp_peaks[s].max(1e-6)).unwrap()
                }),
            }
        }
    }

    fn assert_bit_identical(got: &AveragedRates, want: &AveragedRates) {
        for s in Structure::ALL {
            for m in MechanismKind::ALL {
                assert_eq!(
                    got.rate(m, s).to_bits(),
                    want.rate(m, s).to_bits(),
                    "{m} {s}: {} vs {}",
                    got.rate(m, s),
                    want.rate(m, s)
                );
            }
            assert_eq!(
                got.average_temperature()[s].value().to_bits(),
                want.average_temperature()[s].value().to_bits()
            );
            assert_eq!(
                got.peak_temperature()[s].value().to_bits(),
                want.peak_temperature()[s].value().to_bits()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The prepared-term kernel sums the same `f64`s as the boxed,
        /// cell-by-cell reference: on every node, over temperatures,
        /// activities (a quarter of them exactly idle, the `at_activity`
        /// floor) and interval weights, with the supply switching between
        /// two DVS ladder levels mid-run.
        #[test]
        fn kernel_matches_the_boxed_reference_bit_for_bit(
            node_idx in 0usize..5,
            intervals in proptest::collection::vec(
                (315.0f64..395.0, 0.0f64..1.0, 0.0f64..1.0, 0.25f64..4.0),
                1..48,
            ),
            levels in (0usize..3, 0usize..3),
            switch_at in 0usize..48,
            spread in 0.0f64..12.0,
        ) {
            let node = TechNode::get(NodeId::ALL[node_idx]);
            let ladder = DvsLevel::standard_ladder(&node);
            let mut kernel = RateAccumulator::new(&standard_models(), node);
            let mut reference = BoxedReference::new(node);
            for (i, &(t, p, idle, weight)) in intervals.iter().enumerate() {
                let level = if i < switch_at { levels.0 } else { levels.1 };
                let ops = PerStructure::from_fn(|s| {
                    let k = s.index() as f64;
                    let activity = if idle < 0.25 { 0.0 } else { p * (k + 1.0) / 7.0 };
                    OperatingPoint::new(
                        Kelvin::new(t + spread * k / 7.0).unwrap(),
                        ladder[level].voltage,
                        ActivityFactor::new(activity).unwrap(),
                    )
                });
                kernel.observe(&ops, weight);
                reference.observe(&ops, weight);
            }
            assert_bit_identical(&kernel.finish(), &reference.finish());
        }
    }

    fn ops(t: f64) -> PerStructure<OperatingPoint> {
        PerStructure::from_fn(|_| {
            OperatingPoint::new(
                Kelvin::new(t).unwrap(),
                Volts::new(1.3).unwrap(),
                ActivityFactor::new(0.4).unwrap(),
            )
        })
    }

    #[test]
    fn mid_run_voltage_switch_reprepares_tddb() {
        // A level switch on a 65 nm node, back and forth: the memo must
        // follow the supply both ways.
        let node = TechNode::get(NodeId::N65HighV);
        let ladder = DvsLevel::standard_ladder(&node);
        let mut kernel = RateAccumulator::new(&standard_models(), node);
        let mut reference = BoxedReference::new(node);
        for level in [0, 2, 2, 1, 0] {
            let mut o = ops(360.0);
            for s in Structure::ALL {
                o[s].voltage = ladder[level].voltage;
            }
            kernel.observe(&o, 1.0);
            reference.observe(&o, 1.0);
        }
        assert_bit_identical(&kernel.finish(), &reference.finish());
    }

    #[test]
    fn constant_conditions_average_to_instantaneous() {
        let models = standard_models();
        let node = TechNode::reference();
        let mut acc = RateAccumulator::new(&models, node);
        for _ in 0..100 {
            acc.observe(&ops(356.0), 1.0);
        }
        let avg = acc.finish();
        let em = &models.em;
        let expect = em.relative_rate(&ops(356.0)[Structure::Ifu], &node);
        assert!((avg.rate(MechanismKind::Em, Structure::Ifu) - expect).abs() / expect < 1e-12);
        assert!((avg.average_temperature()[Structure::Fpu].value() - 356.0).abs() < 1e-9);
        assert!((avg.max_temperature().value() - 356.0).abs() < 1e-9);
    }

    #[test]
    fn weights_respected() {
        let models = standard_models();
        let node = TechNode::reference();
        let mut acc = RateAccumulator::new(&models, node);
        acc.observe(&ops(340.0), 3.0);
        acc.observe(&ops(380.0), 1.0);
        let avg = acc.finish();
        let t = avg.average_temperature()[Structure::Lsu].value();
        assert!((t - (3.0 * 340.0 + 380.0) / 4.0).abs() < 1e-9);
        assert!((avg.peak_temperature()[Structure::Lsu].value() - 380.0).abs() < 1e-9);
    }

    #[test]
    fn tc_uses_average_not_average_of_rates() {
        // Half the time at ambient (zero swing), half at +40 K: the TC rate
        // must equal the rate at +20 K, not the mean of the two rates.
        let models = standard_models();
        let node = TechNode::reference();
        let mut acc = RateAccumulator::new(&models, node);
        acc.observe(&ops(318.15), 1.0);
        acc.observe(&ops(358.15), 1.0);
        let avg = acc.finish();
        let got = avg.rate(MechanismKind::Tc, Structure::Ifu);
        let at_mean = 20.0f64.powf(2.35);
        let mean_of_rates = 40.0f64.powf(2.35) / 2.0;
        assert!((got - at_mean).abs() / at_mean < 1e-9);
        assert!(got < mean_of_rates);
    }

    #[test]
    fn fluctuating_temperature_beats_constant_mean_for_exponential_mechanisms() {
        // Jensen's inequality: averaging instantaneous exponential rates
        // over a fluctuating temperature exceeds the rate at the mean
        // temperature — the reason RAMP averages rates, not temperatures.
        let models = standard_models();
        let node = TechNode::reference();
        let mut fluct = RateAccumulator::new(&models, node);
        fluct.observe(&ops(336.0), 1.0);
        fluct.observe(&ops(376.0), 1.0);
        let mut steady = RateAccumulator::new(&models, node);
        steady.observe(&ops(356.0), 2.0);
        let f = fluct.finish();
        let s = steady.finish();
        assert!(
            f.rate(MechanismKind::Em, Structure::Ifu) > s.rate(MechanismKind::Em, Structure::Ifu)
        );
        assert!(
            f.rate(MechanismKind::Tddb, Structure::Ifu)
                > s.rate(MechanismKind::Tddb, Structure::Ifu)
        );
    }

    #[test]
    #[should_panic(expected = "no intervals")]
    fn empty_accumulator_panics() {
        let models = standard_models();
        let acc = RateAccumulator::new(&models, TechNode::reference());
        let _ = acc.finish();
    }
}
