//! Per-chip reliability evaluation by ratio transfer.
//!
//! A full pipeline run (timing → power → thermal → rates) per chip would
//! cap the fleet at a few chips per second. Instead the fleet runs the
//! pipeline **once** per (benchmark, node) — the
//! [`ramp_core::PopulationAnchor`] — and re-prices each sampled chip by
//! *rate ratio transfer*: for every (mechanism, structure) cell, the
//! anchored qualified FIT is scaled by the ratio of the mechanism's
//! analytic rate at the chip's perturbed parameters to the rate at the
//! anchor's parameters, both evaluated at the structure's time-average
//! operating point. The transfer is exact for parameter changes whose
//! rate effect is multiplicative and temperature-independent (t_ox,
//! geometry) and first-order accurate for the per-chip temperature
//! offset (it shifts the whole profile rather than re-solving thermals);
//! with offsets of a few Kelvin the induced error is far below the
//! lifetime scatter being modelled.
//!
//! # Cost
//!
//! Per chip: 3 variation draws, 4 rate preparations, 28 temperature
//! terms and 4 lifetime draws — about 1.2 µs of CPU time on a 2-vCPU
//! Intel Xeon cloud VM (~2 µs before the hoisting below), which is what
//! makes million-chip fleets routine. Each term is computed only as often
//! as its inputs change:
//!
//! | Term | Depends on | Computed |
//! |---|---|---|
//! | base rates and FITs, `Γ(1 + 1/β)`, `1/β`, lognormal `e^{−σ²/2}` | anchor, [`VariationModel`] | once, in [`ChipSampler::new`] |
//! | EM `J^n`, `κ^{−g}`; TDDB `ln V`, `Δt_ox/s · ln 10`, `ln A_rel` | the chip's perturbed node | once per chip ([`SplitRate::prepare`]) |
//! | perturbed structure temperatures | the chip's temperature offset | 7× per chip |
//! | Arrhenius / stress / swing terms | structure temperature | 28× per chip ([`SplitRate::rate_at`]) |
//!
//! # Bit identity
//!
//! The hoisting changes no result. Each mechanism's formula exists once,
//! in `ramp_core::mechanisms`, and its `relative_rate` *is*
//! `rate_at(&prepare(..), T)` with the evaluation order unchanged, so the
//! hoisted values are the same `f64`s the unsplit expression computes.
//! Rust never contracts `a * b + c` into a fused multiply-add, so every
//! rate, and with it every chip's failure time, is bit-identical to
//! evaluating `relative_rate` cell by cell; the test module keeps that
//! cell-by-cell kernel as a reference and compares the two bit for bit.

use crate::sampler::{CoffinManson, Lognormal};
use crate::variation::{ChipVariation, VariationModel};
use ramp_core::mechanisms::{MechanismKind, PerMechanism, SplitRate, StandardModels};
use ramp_core::{PopulationAnchor, TechNode};
use ramp_microarch::{PerStructure, Structure};
use ramp_trace::Rng;
use ramp_units::{ActivityFactor, Angstroms, Kelvin, HOURS_PER_YEAR};

/// Representative activity for rate evaluation. The choice cancels out of
/// every rate ratio (activity enters only EM's `J = p·J_max`, identically
/// in numerator and denominator), so any interior value works; 0.5 keeps
/// clear of the idle floor in `CurrentDensity::at_activity`.
const REFERENCE_ACTIVITY: ActivityFactor = ActivityFactor::new_const(0.5);

/// The outcome of one simulated chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipOutcome {
    /// Years until the chip's first mechanism failure (series system).
    pub failure_years: f64,
    /// The mechanism that failed first.
    pub killer: MechanismKind,
}

/// A reusable per-(benchmark, node) chip evaluator.
///
/// Construction precomputes the anchor's per-structure temperatures, the
/// base analytic rates, the base qualified FITs and the lifetime
/// distributions' shape constants; after that,
/// [`ChipSampler::sample_chip`] is allocation-free.
#[derive(Debug)]
pub struct ChipSampler {
    node: TechNode,
    variation: VariationModel,
    models: StandardModels,
    base_temperature: PerStructure<Kelvin>,
    base_rate: PerMechanism<PerStructure<f64>>,
    base_fit: PerMechanism<PerStructure<f64>>,
    /// `e^{−σ²/2}` of the EM/SM/TDDB lifetime lognormals.
    lognormal_median_per_mean: f64,
    /// The TC Weibull at unit mean, re-anchored to each chip's mean.
    tc_lifetime: CoffinManson,
}

/// One mechanism's rate at every structure's temperature on `node`.
fn structure_rates<M: SplitRate>(
    model: &M,
    node: &TechNode,
    temperature: &PerStructure<Kelvin>,
) -> PerStructure<f64> {
    let prepared = model.prepare(node.vdd, REFERENCE_ACTIVITY, node);
    // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
    PerStructure::from_fn(|s| model.rate_at(&prepared, temperature[s]))
}

impl ChipSampler {
    /// Builds the evaluator for one anchor under one variation model.
    #[must_use]
    pub fn new(anchor: &PopulationAnchor, variation: VariationModel) -> Self {
        let models = StandardModels::default();
        let node = anchor.node;
        let base_temperature = *anchor.rates.average_temperature();
        let base_rate = PerMechanism::from_fn(|m| match m {
            MechanismKind::Em => structure_rates(&models.em, &node, &base_temperature),
            MechanismKind::Sm => structure_rates(&models.sm, &node, &base_temperature),
            MechanismKind::Tddb => structure_rates(&models.tddb, &node, &base_temperature),
            MechanismKind::Tc => structure_rates(&models.tc, &node, &base_temperature),
        });
        let base_fit =
            PerMechanism::from_fn(|m| PerStructure::from_fn(|s| anchor.report.fit(m, s).value()));
        ChipSampler {
            node,
            variation,
            models,
            base_temperature,
            base_rate,
            base_fit,
            lognormal_median_per_mean: Lognormal::median_per_mean(variation.lifetime_sigma),
            tc_lifetime: CoffinManson::from_mean_years(1.0, variation.tc_shape),
        }
    }

    /// The variation model in force.
    #[must_use]
    pub fn variation(&self) -> &VariationModel {
        &self.variation
    }

    /// The perturbed copy of the node for one chip's process draw.
    fn perturbed_node(&self, v: &ChipVariation) -> TechNode {
        let mut node = self.node;
        node.tox = Angstroms::new(self.node.tox.value() * v.tox_factor)
            .unwrap_or(self.node.tox);
        node.scale_factor = self.node.scale_factor * v.geometry_factor;
        node
    }

    /// Every structure's time-average temperature shifted by one chip's
    /// temperature offset.
    fn chip_temperatures(&self, offset: f64) -> PerStructure<Kelvin> {
        PerStructure::from_fn(|s| {
            let base = self.base_temperature[s]; // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
            Kelvin::new(base.value() + offset).unwrap_or(base)
        })
    }

    /// This chip's expected (mean) lifetime for one mechanism, in years:
    /// base FIT per cell × rate ratio, summed over structures (SOFR), then
    /// FIT → MTTF.
    fn mean_years<M: SplitRate>(
        &self,
        model: &M,
        chip_node: &TechNode,
        temperature: &PerStructure<Kelvin>,
    ) -> f64 {
        let m = model.kind();
        let prepared = model.prepare(chip_node.vdd, REFERENCE_ACTIVITY, chip_node);
        let mut chip_fit = 0.0;
        for s in Structure::ALL {
            // ramp-lint:allow(panic-reach) -- enum-indexed `PerMechanism`/`PerStructure` are total
            let base = self.base_rate[m][s];
            if base <= 0.0 {
                continue;
            }
            // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
            let ratio = model.rate_at(&prepared, temperature[s]) / base;
            chip_fit += self.base_fit[m][s] * ratio; // ramp-lint:allow(panic-reach) -- enum-indexed `PerMechanism`/`PerStructure` are total
        }
        if chip_fit <= 0.0 {
            return f64::MAX;
        }
        // FIT = failures per 1e9 device-hours ⇒ MTTF = 1e9/FIT hours.
        1.0e9 / chip_fit / HOURS_PER_YEAR
    }

    /// [`ChipSampler::mean_years`] for mechanism `m`.
    fn mechanism_mean_years(
        &self,
        m: MechanismKind,
        chip_node: &TechNode,
        temperature: &PerStructure<Kelvin>,
    ) -> f64 {
        let models = &self.models;
        match m {
            MechanismKind::Em => self.mean_years(&models.em, chip_node, temperature),
            MechanismKind::Sm => self.mean_years(&models.sm, chip_node, temperature),
            MechanismKind::Tddb => self.mean_years(&models.tddb, chip_node, temperature),
            MechanismKind::Tc => self.mean_years(&models.tc, chip_node, temperature),
        }
    }

    /// Simulates one chip: draws its process variation, re-prices every
    /// mechanism, draws the four mechanism lifetimes, and reports the
    /// earliest failure. The stream consumption order (variation, then
    /// EM, SM, TDDB, TC draws) is fixed and part of the determinism
    /// contract.
    #[must_use]
    pub fn sample_chip(&self, rng: &mut Rng) -> ChipOutcome {
        let variation = ChipVariation::sample(&self.variation, rng);
        let chip_node = self.perturbed_node(&variation);
        let temperature = self.chip_temperatures(variation.temperature_offset_kelvin);
        let mut failure_years = f64::MAX;
        let mut killer = MechanismKind::Em;
        for m in MechanismKind::ALL {
            let mean_years = self.mechanism_mean_years(m, &chip_node, &temperature);
            let drawn = if mean_years == f64::MAX {
                f64::MAX
            } else if m == MechanismKind::Tc {
                self.tc_lifetime
                    .with_mean_years(mean_years)
                    .sample_years(rng)
            } else {
                let median = mean_years * self.lognormal_median_per_mean;
                Lognormal::from_median(median, self.variation.lifetime_sigma).sample(rng)
            };
            // Strict < keeps the tie-break deterministic: first mechanism
            // in canonical order wins.
            if drawn < failure_years {
                failure_years = drawn;
                killer = m;
            }
        }
        ChipOutcome {
            failure_years,
            killer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::chip_rng;
    use proptest::prelude::*;
    use ramp_core::mechanisms::{standard_models, FailureModel};
    use ramp_core::{NodeId, OperatingPoint, PipelineConfig, Qualification, QueryEngine};
    use ramp_units::{Sigma, WeibullShape};
    use std::sync::OnceLock;

    /// One anchor per node in [`NodeId::ALL`], built once per test binary.
    fn anchors() -> &'static [PopulationAnchor] {
        static ANCHORS: OnceLock<Vec<PopulationAnchor>> = OnceLock::new();
        ANCHORS.get_or_init(|| {
            let engine = QueryEngine::with_qualification(
                Qualification::from_constants(PerMechanism::from_fn(|_| 1.0)).unwrap(),
                PipelineConfig::quick(),
                "chip-tests",
            );
            NodeId::ALL
                .iter()
                .map(|&id| {
                    engine
                        .population_anchor(&engine.query("gzip", id).unwrap())
                        .unwrap()
                })
                .collect()
        })
    }

    fn anchor(id: NodeId) -> &'static PopulationAnchor {
        anchors().iter().find(|a| a.node_id == id).unwrap()
    }

    /// The per-chip kernel before its chip-invariant terms were hoisted:
    /// every (mechanism, structure) cell evaluates the whole
    /// `relative_rate` through the boxed model set at a freshly built
    /// operating point, against a base rate priced the same way, and every
    /// lifetime distribution is built from its mean from scratch.
    fn reference_mean_years(
        sampler: &ChipSampler,
        model: &dyn FailureModel,
        chip_node: &TechNode,
        temp_offset: f64,
    ) -> f64 {
        let m = model.kind();
        let mut chip_fit = 0.0;
        for s in Structure::ALL {
            let base_op = OperatingPoint::new(
                sampler.base_temperature[s],
                sampler.node.vdd,
                REFERENCE_ACTIVITY,
            );
            let base = model.relative_rate(&base_op, &sampler.node);
            if base <= 0.0 {
                continue;
            }
            let mut op = base_op;
            op.temperature =
                Kelvin::new(op.temperature.value() + temp_offset).unwrap_or(op.temperature);
            let ratio = model.relative_rate(&op, chip_node) / base;
            chip_fit += sampler.base_fit[m][s] * ratio;
        }
        if chip_fit <= 0.0 {
            return f64::MAX;
        }
        // The kernel's former private `24.0 * 365.25`; the same f64 as
        // `ramp_units::HOURS_PER_YEAR`.
        1.0e9 / chip_fit / (24.0 * 365.25)
    }

    fn reference_sample_chip(sampler: &ChipSampler, rng: &mut Rng) -> ChipOutcome {
        let models = standard_models();
        let variation = ChipVariation::sample(&sampler.variation, rng);
        let chip_node = sampler.perturbed_node(&variation);
        let offset = variation.temperature_offset_kelvin;
        let mut failure_years = f64::MAX;
        let mut killer = MechanismKind::Em;
        for m in MechanismKind::ALL {
            let model = models.iter().find(|mo| mo.kind() == m).unwrap();
            let mean_years = reference_mean_years(sampler, model.as_ref(), &chip_node, offset);
            let drawn = if mean_years == f64::MAX {
                f64::MAX
            } else if m == MechanismKind::Tc {
                CoffinManson::from_mean_years(mean_years, sampler.variation.tc_shape)
                    .sample_years(rng)
            } else {
                Lognormal::from_mean(mean_years, sampler.variation.lifetime_sigma).sample(rng)
            };
            if drawn < failure_years {
                failure_years = drawn;
                killer = m;
            }
        }
        ChipOutcome {
            failure_years,
            killer,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// The hoisted kernel reproduces the cell-by-cell reference bit for
        /// bit, for any stream, node, chip and variation model.
        #[test]
        fn hoisted_kernel_is_bit_identical_to_the_reference(
            seed in any::<u64>(),
            node in 0usize..5,
            first_chip in 0u64..1_000_000_000,
            tox in 0.0f64..0.06,
            temperature in 0.0f64..10.0,
            geometry in 0.0f64..0.08,
            lifetime in 0.0f64..1.2,
            shape in 0.5f64..8.0,
            mode in 0u8..4,
        ) {
            let sampled = VariationModel {
                tox_fraction_sigma: Sigma::new(tox).unwrap(),
                temperature_sigma_kelvin: Sigma::new(temperature).unwrap(),
                geometry_fraction_sigma: Sigma::new(geometry).unwrap(),
                lifetime_sigma: Sigma::new(lifetime).unwrap(),
                tc_shape: WeibullShape::new(shape).unwrap(),
            };
            let variation = match mode {
                0 => VariationModel::degenerate(),
                1 => VariationModel::default(),
                // Process variation on, lifetime scatter off.
                2 => VariationModel {
                    lifetime_sigma: Sigma::ZERO,
                    tc_shape: VariationModel::degenerate().tc_shape,
                    ..sampled
                },
                _ => sampled,
            };
            let sampler = ChipSampler::new(&anchors()[node], variation);
            for chip in first_chip..first_chip + 32 {
                let stream = || chip_rng(seed, node as u64, chip);
                let fast = sampler.sample_chip(&mut stream());
                let reference = reference_sample_chip(&sampler, &mut stream());
                prop_assert_eq!(
                    fast.failure_years.to_bits(),
                    reference.failure_years.to_bits(),
                    "chip {} at node {}: {} vs {}",
                    chip,
                    node,
                    fast.failure_years,
                    reference.failure_years
                );
                prop_assert_eq!(fast.killer, reference.killer);
            }
        }
    }

    #[test]
    fn degenerate_variation_reproduces_the_anchor_mttf() {
        let anchor = anchor(NodeId::N180);
        let sampler = ChipSampler::new(anchor, VariationModel::degenerate());
        let mut rng = chip_rng(1, 0, 0);
        let chip = sampler.sample_chip(&mut rng);
        // With zero variation and zero scatter, the chip's failure time is
        // min over the per-mechanism mean lifetimes, each of which matches
        // the anchor's per-mechanism FIT (ratio transfer at ratio 1). The
        // TC Weibull at its degenerate shape contributes ~1e-4 relative
        // wobble, hence the loose band.
        let min_mech_years = MechanismKind::ALL
            .iter()
            .map(|&m| {
                let fit: f64 = Structure::ALL
                    .iter()
                    .map(|&s| anchor.report.fit(m, s).value())
                    .sum();
                1.0e9 / fit / HOURS_PER_YEAR
            })
            .fold(f64::MAX, f64::min);
        assert!(
            (chip.failure_years / min_mech_years - 1.0).abs() < 1e-2,
            "degenerate chip {} vs analytic {}",
            chip.failure_years,
            min_mech_years
        );
    }

    #[test]
    fn chips_are_reproducible_from_their_stream() {
        let sampler = ChipSampler::new(anchor(NodeId::N130), VariationModel::default());
        let a = sampler.sample_chip(&mut chip_rng(7, 1, 99));
        let b = sampler.sample_chip(&mut chip_rng(7, 1, 99));
        assert_eq!(a, b);
        let c = sampler.sample_chip(&mut chip_rng(7, 1, 100));
        assert_ne!(a, c);
    }

    #[test]
    fn thinner_oxide_shortens_tddb_life() {
        let sampler = ChipSampler::new(anchor(NodeId::N65HighV), VariationModel::default());
        let base = sampler.node;
        let thin = sampler.perturbed_node(&ChipVariation {
            tox_factor: 0.95,
            temperature_offset_kelvin: 0.0,
            geometry_factor: 1.0,
        });
        let temperature = sampler.chip_temperatures(0.0);
        let years_base = sampler.mechanism_mean_years(MechanismKind::Tddb, &base, &temperature);
        let years_thin = sampler.mechanism_mean_years(MechanismKind::Tddb, &thin, &temperature);
        assert!(
            years_thin < years_base,
            "thinner oxide must shorten TDDB life ({years_thin} vs {years_base})"
        );
    }

    #[test]
    fn hotter_chip_fails_every_thermal_mechanism_sooner() {
        let sampler = ChipSampler::new(anchor(NodeId::N90), VariationModel::default());
        let node = sampler.node;
        let cool_t = sampler.chip_temperatures(0.0);
        let hot_t = sampler.chip_temperatures(8.0);
        for m in [MechanismKind::Em, MechanismKind::Tddb, MechanismKind::Tc] {
            let cool = sampler.mechanism_mean_years(m, &node, &cool_t);
            let hot = sampler.mechanism_mean_years(m, &node, &hot_t);
            assert!(hot < cool, "{m}: +8K must shorten life ({hot} vs {cool})");
        }
    }
}
