//! Dynamic reliability management (DRM).
//!
//! The paper's conclusion: worst-case reliability qualification over-designs
//! processors for most workloads, and the gap widens with scaling. The
//! remedy it proposes (from Srinivasan et al., ISCA 2004) is *dynamic
//! reliability management* — qualify for the expected case and respond at
//! run time when a workload pushes the failure rate above budget, using
//! actuators like dynamic voltage/frequency scaling.
//!
//! This module implements that control loop on top of the pipeline:
//! [`DrmController`] tracks the running-average FIT of the executing
//! workload and moves between [`DvsLevel`]s to keep the long-run average
//! within a FIT budget, trading performance only when reliability demands
//! it. [`run_with_drm`] replays a workload's second pass under the
//! controller and reports both the reliability outcome and the performance
//! cost.

use crate::mechanisms::StandardModels;
use crate::pipeline::PipelineConfig;
use crate::rates::RateAccumulator;
use crate::{OperatingPoint, Qualification, RampError, TechNode};
use ramp_microarch::{simulate, MachineConfig, PerStructure, SimulationLength};
use ramp_power::{DynamicPowerModel, DynamicScaling, LeakageModel, PowerModel};
use ramp_thermal::ThermalSimulator;
use ramp_trace::{BenchmarkProfile, TraceGenerator};
use ramp_units::{Fit, Gigahertz, Seconds, Volts, Watts};
use serde::{Deserialize, Serialize};

/// One dynamic voltage/frequency operating level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DvsLevel {
    /// Supply voltage at this level.
    pub voltage: Volts,
    /// Clock frequency at this level.
    pub frequency: Gigahertz,
}

impl DvsLevel {
    /// The node's nominal operating level.
    #[must_use]
    pub fn nominal(node: &TechNode) -> Self {
        DvsLevel {
            voltage: node.vdd,
            frequency: node.frequency,
        }
    }

    /// A standard three-level ladder for a node: nominal, −8 % V / −15 % f,
    /// and −15 % V / −30 % f (coarse but representative of early-2000s DVS).
    #[must_use]
    pub fn standard_ladder(node: &TechNode) -> Vec<DvsLevel> {
        let v = node.vdd.value();
        let f = node.frequency.value();
        let mk = |vr: f64, fr: f64| DvsLevel {
            voltage: Volts::new(v * vr).expect("scaled voltage in range"), // ramp-lint:allow(panic-hygiene) -- scale factors are validated fractions
            frequency: Gigahertz::new(f * fr).expect("scaled frequency in range"), // ramp-lint:allow(panic-hygiene) -- scale factors are validated fractions
        };
        vec![mk(1.0, 1.0), mk(0.92, 0.85), mk(0.85, 0.70)]
    }

    /// Dynamic-power multiplier of this level relative to nominal
    /// (`(V/V₀)²·(f/f₀)`).
    #[must_use]
    // ramp-lint:allow(unit-safety) -- dimensionless power multiplier
    pub fn power_factor(&self, node: &TechNode) -> f64 {
        let vr = self.voltage.ratio_to(node.vdd);
        let fr = self.frequency.ratio_to(node.frequency);
        vr * vr * fr
    }

    /// Throughput multiplier relative to nominal (≈ frequency ratio; the
    /// cycles-per-instruction of the fixed pipeline are unchanged).
    #[must_use]
    // ramp-lint:allow(unit-safety) -- dimensionless throughput multiplier
    pub fn performance_factor(&self, node: &TechNode) -> f64 {
        self.frequency.ratio_to(node.frequency)
    }
}

/// Policy for the DRM control loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DrmPolicy {
    /// Long-run-average FIT target the controller enforces.
    pub fit_budget: Fit,
    /// Decision period, in 1 µs sampling intervals.
    pub decision_intervals: u32,
    /// Hysteresis band: step back up only when the running average falls
    /// below `fit_budget × (1 − hysteresis)`.
    pub hysteresis: f64,
}

impl DrmPolicy {
    /// A policy enforcing the paper's 4000-FIT (≈30-year) qualification
    /// budget with a 5 % hysteresis band and millisecond-scale decisions.
    #[must_use]
    pub fn qualified_budget() -> Self {
        DrmPolicy {
            fit_budget: Fit::new(4000.0).expect("static budget"), // ramp-lint:allow(panic-hygiene) -- constant is in range
            decision_intervals: 1000,
            hysteresis: 0.05,
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.fit_budget.value() <= 0.0 {
            return Err("fit_budget must be positive".into());
        }
        if self.decision_intervals == 0 {
            return Err("decision_intervals must be positive".into());
        }
        if !(0.0..1.0).contains(&self.hysteresis) {
            return Err("hysteresis must be in [0, 1)".into());
        }
        Ok(())
    }
}

/// The DRM state machine: consumes running-average FIT observations and
/// selects a DVS level.
///
/// # Examples
///
/// ```
/// use ramp_core::drm::{DrmController, DrmPolicy, DvsLevel};
/// use ramp_core::{NodeId, TechNode};
/// use ramp_units::Fit;
///
/// let node = TechNode::get(NodeId::N65HighV);
/// let mut ctl = DrmController::new(
///     DrmPolicy::qualified_budget(),
///     DvsLevel::standard_ladder(&node),
/// ).unwrap();
/// // Over budget → throttle down.
/// let before = ctl.level_index();
/// ctl.decide(Fit::new(12_000.0)?);
/// assert!(ctl.level_index() > before);
/// # Ok::<(), ramp_units::UnitError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DrmController {
    policy: DrmPolicy,
    levels: Vec<DvsLevel>,
    current: usize,
    transitions: u64,
}

impl DrmController {
    /// Creates a controller over a ladder of levels ordered from fastest
    /// (index 0) to slowest.
    ///
    /// # Errors
    ///
    /// Returns an error description if the policy is invalid or the ladder
    /// is empty.
    pub fn new(policy: DrmPolicy, levels: Vec<DvsLevel>) -> Result<Self, String> {
        policy.validate()?;
        if levels.is_empty() {
            return Err("DVS ladder must not be empty".into());
        }
        Ok(DrmController {
            policy,
            levels,
            current: 0,
            transitions: 0,
        })
    }

    /// The currently selected level.
    #[must_use]
    pub fn level(&self) -> DvsLevel {
        // ramp-lint:allow(panic-reach) -- `current` is kept below `levels.len()` by every mutation
        self.levels[self.current]
    }

    /// Index of the current level within the ladder (0 = fastest).
    #[must_use]
    pub fn level_index(&self) -> usize {
        self.current
    }

    /// Number of level changes so far.
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// One control decision from the current running-average FIT: throttle
    /// down when over budget, relax up when comfortably under.
    pub fn decide(&mut self, running_average: Fit) {
        let budget = self.policy.fit_budget.value();
        let avg = running_average.value();
        if avg > budget && self.current + 1 < self.levels.len() {
            self.current += 1;
            self.transitions += 1;
        } else if avg < budget * (1.0 - self.policy.hysteresis) && self.current > 0 {
            self.current -= 1;
            self.transitions += 1;
        }
    }
}

/// Outcome of a DRM-managed run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DrmOutcome {
    /// Long-run average FIT under the controller.
    pub managed_fit: Fit,
    /// FIT the same workload reaches with DRM disabled (nominal level).
    pub unmanaged_fit: Fit,
    /// Average throughput relative to nominal (1.0 = no slowdown).
    pub relative_performance: f64,
    /// Fraction of intervals spent at each ladder level.
    pub level_residency: Vec<f64>,
    /// Controller transitions taken.
    pub transitions: u64,
}

impl DrmOutcome {
    /// Whether the controller held the long-run average within `budget`
    /// (with a small numerical allowance for quantised decisions).
    #[must_use]
    pub fn met_budget(&self, budget: Fit) -> bool {
        self.managed_fit.value() <= budget.value() * 1.02
    }
}

/// Runs a workload on a node under DRM control and reports the outcome.
///
/// The timing pass runs once (workload activity per cycle is frequency-
/// independent for the fixed pipeline); the power/thermal/reliability loop
/// then replays it with the controller adjusting the DVS level every
/// [`DrmPolicy::decision_intervals`].
///
/// # Errors
///
/// Returns [`RampError`] for invalid configuration or failed thermal
/// solves.
///
/// # Examples
///
/// ```
/// use ramp_core::drm::{run_with_drm, DrmPolicy, DvsLevel};
/// use ramp_core::mechanisms::standard_models;
/// use ramp_core::{NodeId, PipelineConfig, Qualification, TechNode};
/// # use ramp_core::{run_app_on_node};
/// use ramp_trace::spec;
///
/// let models = standard_models();
/// let cfg = PipelineConfig::quick();
/// let profile = spec::profile("crafty")?;
/// // Qualify at 180 nm as usual…
/// let reference = run_app_on_node(&profile, &TechNode::reference(), &cfg, &models, None)?;
/// let qual = Qualification::from_reference_runs(&[reference.rates]).unwrap();
/// // …then manage the 65 nm run against the 4000-FIT budget.
/// let node = TechNode::get(NodeId::N65HighV);
/// let outcome = run_with_drm(
///     &profile, &node, &cfg, &models, &qual,
///     DrmPolicy::qualified_budget(),
///     DvsLevel::standard_ladder(&node),
///     Some(reference.avg_total()),
/// )?;
/// assert!(outcome.managed_fit.value() <= outcome.unmanaged_fit.value());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[allow(clippy::too_many_arguments)]
pub fn run_with_drm(
    profile: &BenchmarkProfile,
    node: &TechNode,
    cfg: &PipelineConfig,
    models: &StandardModels,
    qualification: &Qualification,
    policy: DrmPolicy,
    ladder: Vec<DvsLevel>,
    reference_power: Option<Watts>,
) -> Result<DrmOutcome, RampError> {
    cfg.validate()?;
    policy.validate().map_err(RampError::InvalidConfiguration)?;

    // ---- Timing pass (frequency-independent activity in cycles) ---------
    let machine = MachineConfig::power4_180nm();
    let out = simulate(
        &machine,
        TraceGenerator::new(profile),
        SimulationLength::Instructions(cfg.instructions),
        node.interval_cycles(),
    );
    if out.activity.intervals().is_empty() {
        return Err(RampError::InvalidConfiguration(
            "simulation produced no complete activity interval".into(),
        ));
    }

    // ---- Shared power/thermal scaffolding --------------------------------
    let reference = TechNode::reference();
    let leakage = LeakageModel::new(node.leakage_density, node.core_area(), cfg.leakage_beta)
        .map_err(RampError::InvalidConfiguration)?;
    let residual = ramp_trace::spec::power_residual(&profile.name).unwrap_or(1.0);
    let power_at = |level: &DvsLevel| -> Result<PowerModel, RampError> {
        let scaling = DynamicScaling::new(
            node.capacitance_rel,
            level.voltage.ratio_to(reference.vdd),
            level.frequency.ratio_to(reference.frequency),
        )
        .map_err(RampError::InvalidConfiguration)?;
        PowerModel::new(
            DynamicPowerModel::new(cfg.budgets.clone(), scaling),
            leakage.clone(),
            residual,
        )
        .map_err(RampError::InvalidConfiguration)
    };
    let nominal_power = power_at(&DvsLevel::nominal(node))?;

    // First pass at nominal conditions initialises the sink.
    let avg_activity = out.activity.average();
    let mut temps = PerStructure::from_fn(|_| ramp_units::Kelvin::new_const(345.0));
    let mut sim: Option<ThermalSimulator> = None;
    let mut state = ramp_thermal::ThermalState::uniform(ramp_units::Kelvin::new_const(345.0));
    for _ in 0..cfg.first_pass_iterations {
        let sample = nominal_power.sample(&avg_activity, &temps);
        let s = match reference_power {
            Some(ref_p) => ThermalSimulator::with_constant_sink_temperature(
                node.core_area(),
                cfg.thermal,
                ref_p,
                sample.total(),
            ),
            None => ThermalSimulator::new(node.core_area(), cfg.thermal),
        }
        .map_err(RampError::InvalidConfiguration)?;
        state = s
            .initial_state(&sample.per_structure_total())
            .map_err(RampError::ThermalSolve)?;
        temps = state.structures;
        sim = Some(s);
    }
    let sim = sim.expect("first_pass_iterations >= 1 validated"); // ramp-lint:allow(panic-hygiene) -- config validation guarantees >= 1 iteration

    // ---- Managed second pass ---------------------------------------------
    let mut controller = DrmController::new(policy, ladder.clone())
        .map_err(RampError::InvalidConfiguration)?;
    let total_dt = 1e-6 * cfg.time_compression;
    let stable = sim.network().max_stable_step().value();
    let substeps = (total_dt / stable).ceil().max(1.0) as u32;
    let dt = Seconds::new(total_dt / f64::from(substeps)).expect("positive sub-step"); // ramp-lint:allow(panic-hygiene) -- substeps >= 1 keeps dt positive

    let mut acc = RateAccumulator::new(models, *node);
    let mut managed_running = 0.0_f64;
    let mut intervals = 0u64;
    let mut residency = vec![0u64; ladder.len()];
    let mut perf_sum = 0.0;
    let level_powers: Vec<PowerModel> = ladder
        .iter()
        .map(power_at)
        .collect::<Result<_, _>>()?;

    for _ in 0..cfg.trace_repeats {
        for interval in out.activity.intervals() {
            let lvl_idx = controller.level_index();
            // ramp-lint:allow(panic-reach) -- `level_index()` is bounded by the ladder length
            let level = ladder[lvl_idx];
            let power = &level_powers[lvl_idx]; // ramp-lint:allow(panic-reach) -- `level_index()` is bounded by the ladder length
            let sample = power.sample(&interval.factors, &state.structures);
            for _ in 0..substeps {
                state = sim.step(&state, &sample.per_structure_total(), dt);
            }
            let ops = PerStructure::from_fn(|s| {
                OperatingPoint::new(state.structures[s], level.voltage, interval.factors[s]) // ramp-lint:allow(panic-reach) -- `level_index()` is bounded by the ladder length
            });
            // Instantaneous FIT for the controller's running average.
            let mut inst = RateAccumulator::new(models, *node);
            inst.observe(&ops, 1.0);
            let inst_fit = qualification.fit_report(&inst.finish()).total().value();
            managed_running += inst_fit;
            acc.observe(&ops, 1.0);
            residency[lvl_idx] += 1; // ramp-lint:allow(panic-reach) -- `level_index()` is bounded by the ladder length
            perf_sum += level.performance_factor(node);
            intervals += 1;
            if intervals.is_multiple_of(u64::from(policy.decision_intervals)) {
                let avg = Fit::new(managed_running / intervals as f64)
                    .expect("mean of valid FITs is valid"); // ramp-lint:allow(panic-hygiene) -- mean of valid FITs stays in range
                controller.decide(avg);
            }
        }
    }
    let managed_fit = qualification.fit_report(&acc.finish()).total();

    // ---- Unmanaged baseline (nominal level throughout) -------------------
    // Re-initialise from the nominal first pass for a fair comparison.
    let sample = nominal_power.sample(&avg_activity, &temps);
    let mut baseline_state = sim
        .initial_state(&sample.per_structure_total())
        .map_err(RampError::ThermalSolve)?;
    let mut base_acc = RateAccumulator::new(models, *node);
    for _ in 0..cfg.trace_repeats {
        for interval in out.activity.intervals() {
            let sample = nominal_power.sample(&interval.factors, &baseline_state.structures);
            for _ in 0..substeps {
                baseline_state = sim.step(&baseline_state, &sample.per_structure_total(), dt);
            }
            let ops = PerStructure::from_fn(|s| {
                OperatingPoint::new(
                    baseline_state.structures[s], // ramp-lint:allow(panic-reach) -- `level_index()` is bounded by the ladder length
                    node.vdd,
                    interval.factors[s], // ramp-lint:allow(panic-reach) -- `level_index()` is bounded by the ladder length
                )
            });
            base_acc.observe(&ops, 1.0);
        }
    }
    let unmanaged_fit = qualification.fit_report(&base_acc.finish()).total();

    Ok(DrmOutcome {
        managed_fit,
        unmanaged_fit,
        relative_performance: perf_sum / intervals as f64,
        level_residency: residency
            .iter()
            .map(|&n| n as f64 / intervals as f64)
            .collect(),
        transitions: controller.transitions(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::standard_models;
    use crate::{run_app_on_node, NodeId};
    use ramp_trace::spec;

    fn setup() -> (
        StandardModels,
        PipelineConfig,
        BenchmarkProfile,
        Qualification,
        Watts,
    ) {
        let models = standard_models();
        let cfg = PipelineConfig::quick();
        let profile = spec::profile("crafty").unwrap();
        let reference =
            run_app_on_node(&profile, &TechNode::reference(), &cfg, &models, None).unwrap();
        let qual = Qualification::from_reference_runs(&[reference.rates]).unwrap();
        (models, cfg, profile, qual, reference.avg_total())
    }

    #[test]
    fn ladder_is_ordered_fast_to_slow() {
        let node = TechNode::get(NodeId::N65HighV);
        let ladder = DvsLevel::standard_ladder(&node);
        assert_eq!(ladder.len(), 3);
        for w in ladder.windows(2) {
            assert!(w[1].frequency.value() < w[0].frequency.value());
            assert!(w[1].voltage.value() < w[0].voltage.value());
            assert!(w[1].power_factor(&node) < w[0].power_factor(&node));
        }
        assert!((ladder[0].performance_factor(&node) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn controller_throttles_and_relaxes_with_hysteresis() {
        let node = TechNode::get(NodeId::N65HighV);
        let mut ctl = DrmController::new(
            DrmPolicy::qualified_budget(),
            DvsLevel::standard_ladder(&node),
        )
        .unwrap();
        ctl.decide(Fit::new(9000.0).unwrap());
        assert_eq!(ctl.level_index(), 1);
        ctl.decide(Fit::new(9000.0).unwrap());
        assert_eq!(ctl.level_index(), 2);
        // Saturates at the slowest level.
        ctl.decide(Fit::new(9000.0).unwrap());
        assert_eq!(ctl.level_index(), 2);
        // Inside the hysteresis band: hold.
        ctl.decide(Fit::new(3900.0).unwrap());
        assert_eq!(ctl.level_index(), 2);
        // Comfortably under budget: relax.
        ctl.decide(Fit::new(3000.0).unwrap());
        assert_eq!(ctl.level_index(), 1);
        assert_eq!(ctl.transitions(), 3);
    }

    #[test]
    fn policy_validation() {
        assert!(DrmPolicy {
            fit_budget: Fit::ZERO,
            decision_intervals: 10,
            hysteresis: 0.1
        }
        .validate()
        .is_err());
        assert!(DrmPolicy {
            hysteresis: 1.5,
            ..DrmPolicy::qualified_budget()
        }
        .validate()
        .is_err());
        let node = TechNode::reference();
        assert!(DrmController::new(DrmPolicy::qualified_budget(), vec![]).is_err());
        assert!(
            DrmController::new(DrmPolicy::qualified_budget(), vec![DvsLevel::nominal(&node)])
                .is_ok()
        );
    }

    #[test]
    fn drm_reduces_fit_on_an_over_budget_node() {
        let (models, cfg, profile, qual, ref_power) = setup();
        let node = TechNode::get(NodeId::N65HighV);
        // Short traces in the quick config → decide every 10 intervals so
        // the controller actually gets to act.
        let policy = DrmPolicy {
            decision_intervals: 10,
            ..DrmPolicy::qualified_budget()
        };
        let outcome = run_with_drm(
            &profile,
            &node,
            &cfg,
            &models,
            &qual,
            policy,
            DvsLevel::standard_ladder(&node),
            Some(ref_power),
        )
        .unwrap();
        assert!(
            outcome.managed_fit.value() < outcome.unmanaged_fit.value(),
            "managed {} vs unmanaged {}",
            outcome.managed_fit,
            outcome.unmanaged_fit
        );
        assert!(outcome.relative_performance < 1.0);
        assert!(outcome.relative_performance > 0.5);
        let total: f64 = outcome.level_residency.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // The controller must actually leave the nominal level.
        assert!(outcome.level_residency[0] < 1.0);
    }

    #[test]
    fn drm_is_a_no_op_when_already_under_budget() {
        let (models, cfg, profile, qual, _) = setup();
        // 180 nm runs at ~4000 FIT; a generous budget keeps DRM idle.
        let node = TechNode::reference();
        let policy = DrmPolicy {
            fit_budget: Fit::new(100_000.0).unwrap(),
            ..DrmPolicy::qualified_budget()
        };
        let outcome = run_with_drm(
            &profile,
            &node,
            &cfg,
            &models,
            &qual,
            policy,
            DvsLevel::standard_ladder(&node),
            None,
        )
        .unwrap();
        assert_eq!(outcome.transitions, 0);
        assert!((outcome.relative_performance - 1.0).abs() < 1e-9);
        assert!(
            (outcome.managed_fit.value() - outcome.unmanaged_fit.value()).abs()
                < outcome.unmanaged_fit.value() * 0.01
        );
    }
}
