//! Per-structure unconstrained dynamic-power budgets at the reference
//! (180 nm) node.

use ramp_microarch::{PerStructure, Structure};
use ramp_units::Watts;
use serde::{Deserialize, Serialize};

/// Unconstrained (activity = 1, no clock gating) dynamic-power budget per
/// structure at the reference technology, plus the clock-gating floor.
///
/// The default budget distributes a POWER4-like core's maximum dynamic
/// power over the seven structures; the LSU (D-cache, queues) and FPU
/// dominate, the dispatch/decode path is comparatively cheap. With the
/// paper's "realistic clock gating" assumption an idle structure still
/// burns `clock_gate_floor` of its budget (clock distribution, latches
/// that cannot gate).
///
/// # Examples
///
/// ```
/// use ramp_power::StructureBudgets;
/// use ramp_microarch::Structure;
/// let b = StructureBudgets::power4_reference();
/// assert!(b.total().value() > 40.0);
/// assert!(b.budget(Structure::Lsu).value() > b.budget(Structure::Idu).value());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StructureBudgets {
    budgets: PerStructure<Watts>,
    clock_gate_floor: f64,
}

impl StructureBudgets {
    /// The POWER4-like reference budget used throughout the reproduction.
    ///
    /// Calibrated (jointly with the per-benchmark `power_residual` knob in
    /// `ramp_trace::spec`) so the 16-benchmark average total power at
    /// 180 nm matches Table 3's 29.1 W.
    #[must_use]
    pub fn power4_reference() -> Self {
        // `const` blocks: the table's range checks run at compile time.
        let budgets = PerStructure::from_fn(|s| match s {
            Structure::Ifu => const { Watts::new_const(9.0) },
            Structure::Idu => const { Watts::new_const(4.8) },
            Structure::Isu => const { Watts::new_const(8.4) },
            Structure::Fxu => const { Watts::new_const(8.4) },
            Structure::Fpu => const { Watts::new_const(10.8) },
            Structure::Lsu => const { Watts::new_const(12.6) },
            Structure::Bxu => const { Watts::new_const(3.6) },
        });
        StructureBudgets {
            budgets,
            clock_gate_floor: 0.30,
        }
    }

    /// Creates a custom budget.
    ///
    /// # Errors
    ///
    /// Returns an error description if the floor is outside `[0, 1]`.
    // ramp-lint:allow(unit-safety) -- clock_gate_floor is a dimensionless fraction
    pub fn new(
        budgets: PerStructure<Watts>,
        clock_gate_floor: f64,
    ) -> Result<Self, String> {
        if !(0.0..=1.0).contains(&clock_gate_floor) || !clock_gate_floor.is_finite() {
            return Err(format!(
                "clock_gate_floor must be in [0,1], got {clock_gate_floor}"
            ));
        }
        Ok(StructureBudgets {
            budgets,
            clock_gate_floor,
        })
    }

    /// Unconstrained budget of one structure.
    #[must_use]
    pub fn budget(&self, s: Structure) -> Watts {
        // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
        self.budgets[s]
    }

    /// Sum of all unconstrained budgets.
    #[must_use]
    pub fn total(&self) -> Watts {
        self.budgets.as_array().iter().copied().sum()
    }

    /// Fraction of a structure's budget burned while fully idle.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- dimensionless fraction in [0, 1]
    pub fn clock_gate_floor(&self) -> f64 {
        self.clock_gate_floor
    }

    /// Effective utilisation factor for an activity level: the gating
    /// floor plus the gateable remainder scaled by activity.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- dimensionless utilisation fraction
    pub fn utilisation(&self, activity: ramp_units::ActivityFactor) -> f64 {
        self.clock_gate_floor + (1.0 - self.clock_gate_floor) * activity.value()
    }
}

impl Default for StructureBudgets {
    fn default() -> Self {
        Self::power4_reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramp_units::ActivityFactor;

    #[test]
    fn reference_total() {
        let b = StructureBudgets::power4_reference();
        assert!((b.total().value() - 57.6).abs() < 1e-9);
    }

    #[test]
    fn utilisation_bounds() {
        let b = StructureBudgets::power4_reference();
        assert!((b.utilisation(ActivityFactor::IDLE) - 0.30).abs() < 1e-12);
        assert!((b.utilisation(ActivityFactor::FULL) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_floor() {
        let budgets = PerStructure::from_fn(|_| Watts::ZERO);
        assert!(StructureBudgets::new(budgets, 1.5).is_err());
        assert!(StructureBudgets::new(budgets, -0.1).is_err());
        assert!(StructureBudgets::new(budgets, 0.5).is_ok());
    }
}
