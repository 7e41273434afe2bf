//! Technology-node parameters (Table 4 of the paper).
//!
//! The study scales one POWER4-like design across five node variants:
//! 180 nm → 130 nm → 90 nm → 65 nm, the last at both an aggressive 0.9 V
//! supply and a noise-limited 1.0 V supply. A scaling factor of 0.7 is
//! assumed per generation down to 90 nm and 0.8 from 90 nm to 65 nm.

use ramp_units::{
    Angstroms, CurrentDensity, Gigahertz, Nanometers, PowerDensity, Seconds, SquareMillimeters,
    Volts,
};
use serde::{Deserialize, Serialize};

/// Identifier of one of the paper's five technology points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum NodeId {
    /// 180 nm, 1.3 V, 1.1 GHz (the calibrated base design).
    N180,
    /// 130 nm, 1.1 V, 1.35 GHz.
    N130,
    /// 90 nm, 1.0 V, 1.65 GHz.
    N90,
    /// 65 nm at an aggressively scaled 0.9 V supply.
    N65LowV,
    /// 65 nm held at 1.0 V (the paper's "more realistic" variant).
    N65HighV,
    /// A 45 nm point projected beyond the paper's horizon by continuing
    /// its scaling assumptions (not part of the paper's Table 4; excluded
    /// from [`NodeId::ALL`] and the default study).
    N45Projected,
}

impl NodeId {
    /// The paper's five Table-4 nodes in scaling order. The projected
    /// 45 nm extension point is deliberately not included.
    pub const ALL: [NodeId; 5] = [
        NodeId::N180,
        NodeId::N130,
        NodeId::N90,
        NodeId::N65LowV,
        NodeId::N65HighV,
    ];

    /// Parses a node from its display label (the inverse of
    /// [`NodeId::label`]), accepting the projected 45 nm point too.
    /// Returns `None` for unknown labels.
    #[must_use]
    pub fn from_label(label: &str) -> Option<NodeId> {
        let all = [
            NodeId::N180,
            NodeId::N130,
            NodeId::N90,
            NodeId::N65LowV,
            NodeId::N65HighV,
            NodeId::N45Projected,
        ];
        all.into_iter().find(|n| n.label() == label)
    }

    /// Display label matching the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            NodeId::N180 => "180nm",
            NodeId::N130 => "130nm",
            NodeId::N90 => "90nm",
            NodeId::N65LowV => "65nm (0.9V)",
            NodeId::N65HighV => "65nm (1.0V)",
            NodeId::N45Projected => "45nm (proj)",
        }
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Full parameter set of one technology point (one Table-4 row).
///
/// # Examples
///
/// ```
/// use ramp_core::{NodeId, TechNode};
/// let n65 = TechNode::get(NodeId::N65HighV);
/// assert_eq!(n65.vdd.value(), 1.0);
/// assert_eq!(n65.tox.value(), 9.0);
/// assert!((n65.area_rel - 0.16).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TechNode {
    /// Which node this is.
    pub id: NodeId,
    /// Feature size.
    pub feature: Nanometers,
    /// Supply voltage.
    pub vdd: Volts,
    /// Clock frequency (22 % growth per generation).
    pub frequency: Gigahertz,
    /// Capacitance relative to 180 nm (∝ scaling factor).
    pub capacitance_rel: f64,
    /// Die area relative to 180 nm (∝ scaling factor²).
    pub area_rel: f64,
    /// Gate-oxide thickness (ITRS high-performance logic).
    pub tox: Angstroms,
    /// Maximum allowed interconnect current density (mA/µm²).
    pub j_max: CurrentDensity,
    /// Leakage power density at 383 K (W/mm²), aggressive leakage control.
    pub leakage_density: PowerDensity,
    /// Cumulative linear scaling factor κ relative to 180 nm (products of
    /// the per-generation 0.7 / 0.8 factors — the quantity the paper's EM
    /// geometry argument uses, slightly different from `feature/180`).
    pub scale_factor: f64,
}

impl TechNode {
    /// The Table-4 row for `id`.
    #[must_use]
    pub fn get(id: NodeId) -> TechNode {
        #[allow(clippy::too_many_arguments)] // private Table-4 row literal
        const fn node(
            id: NodeId,
            feature: f64,
            vdd: f64,
            freq: f64,
            cap: f64,
            area: f64,
            tox: f64,
            jmax: f64,
            leak: f64,
            kappa: f64,
        ) -> TechNode {
            TechNode {
                id,
                feature: Nanometers::new_const(feature),
                vdd: Volts::new_const(vdd),
                frequency: Gigahertz::new_const(freq),
                capacitance_rel: cap,
                area_rel: area,
                tox: Angstroms::new_const(tox),
                j_max: CurrentDensity::new_const(jmax),
                leakage_density: PowerDensity::new_const(leak),
                scale_factor: kappa,
            }
        }
        // Each row is a `const` block, so its unit range checks run at
        // compile time and a lookup is a copy.
        match id {
            NodeId::N180 => const {
                node(NodeId::N180, 180.0, 1.3, 1.1, 1.0, 1.0, 25.0, 9.0, 0.040, 1.0)
            },
            NodeId::N130 => const {
                node(NodeId::N130, 130.0, 1.1, 1.35, 0.7, 0.5, 17.0, 6.0, 0.10, 0.7)
            },
            NodeId::N90 => const {
                node(NodeId::N90, 90.0, 1.0, 1.65, 0.49, 0.25, 12.0, 4.0, 0.25, 0.49)
            },
            NodeId::N65LowV => const {
                node(NodeId::N65LowV, 65.0, 0.9, 2.0, 0.4, 0.16, 9.0, 4.0, 0.54, 0.392)
            },
            NodeId::N65HighV => const {
                node(NodeId::N65HighV, 65.0, 1.0, 2.0, 0.4, 0.16, 9.0, 4.0, 0.60, 0.392)
            },
            // Projection (§6 "future work"): one more 0.8× generation with
            // the supply pinned at 1.0 V (the noise floor the paper argues
            // for), 22 % frequency growth, ITRS-trend t_ox of 7 Å, the
            // J_max floor of 4.0, and leakage density continuing its
            // ~1.8×/generation climb under aggressive control.
            NodeId::N45Projected => const {
                node(NodeId::N45Projected, 45.0, 1.0, 2.44, 0.32, 0.10, 7.0, 4.0, 1.05, 0.3136)
            },
        }
    }

    /// The calibrated reference node (180 nm).
    #[must_use]
    pub fn reference() -> TechNode {
        TechNode::get(NodeId::N180)
    }

    /// All five nodes in Table-4 order.
    #[must_use]
    pub fn all() -> Vec<TechNode> {
        NodeId::ALL.iter().map(|&id| TechNode::get(id)).collect()
    }

    /// Cycles per 1 µs activity-sampling interval at this node's clock.
    #[must_use]
    pub fn interval_cycles(&self) -> u64 {
        self.frequency.cycles_in(Seconds::MICROSECOND)
    }

    /// The distinct interval lengths of the paper's five nodes
    /// ([`NodeId::ALL`]), ascending: 1100, 1350, 1650 and 2000 cycles.
    ///
    /// Every node runs the same machine, so one timing pass can bucket
    /// its cycle stream at all of these at once. The projected 45 nm
    /// point is left out: its 2440-cycle interval would shrink the
    /// common bucket from 50 cycles to 10 for a node the study skips.
    #[must_use]
    pub fn study_interval_cycles() -> Vec<u64> {
        let mut cycles: Vec<u64> = NodeId::ALL
            .iter()
            .map(|&id| TechNode::get(id).interval_cycles())
            .collect();
        cycles.sort_unstable();
        cycles.dedup();
        cycles
    }

    /// Core area at this node (81 mm² at 180 nm, shrinking with
    /// `area_rel`).
    #[must_use]
    pub fn core_area(&self) -> SquareMillimeters {
        SquareMillimeters::new(81.0 * self.area_rel).expect("positive scaled area") // ramp-lint:allow(panic-hygiene) -- area_rel > 0 keeps the product positive
    }

    /// `C·V²·f` dynamic-power factor relative to the 180 nm reference.
    #[must_use]
    // ramp-lint:allow(unit-safety) -- dimensionless power multiplier
    pub fn dynamic_power_factor(&self) -> f64 {
        let reference = TechNode::reference();
        self.capacitance_rel
            * self.vdd.ratio_to(reference.vdd).powi(2)
            * self.frequency.ratio_to(reference.frequency)
    }

    /// Gate-oxide thinning relative to 180 nm, in nanometres
    /// (`Δt_ox ≥ 0`).
    #[must_use]
    // ramp-lint:allow(unit-safety) -- difference in nm can be zero, which Nanometers rejects
    pub fn tox_reduction_nm(&self) -> f64 {
        TechNode::reference().tox.to_nanometers() - self.tox.to_nanometers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_values() {
        let rows = TechNode::all();
        assert_eq!(rows.len(), 5);
        let n180 = rows[0];
        assert_eq!(n180.vdd.value(), 1.3);
        assert_eq!(n180.frequency.value(), 1.1);
        assert_eq!(n180.j_max.value(), 9.0);
        let n130 = rows[1];
        assert_eq!(n130.tox.value(), 17.0);
        assert_eq!(n130.leakage_density.value(), 0.10);
        let n90 = rows[2];
        assert_eq!(n90.area_rel, 0.25);
        let low = rows[3];
        let high = rows[4];
        assert_eq!(low.vdd.value(), 0.9);
        assert_eq!(high.vdd.value(), 1.0);
        // The two 65 nm variants differ only in supply and leakage.
        assert_eq!(low.feature.value(), high.feature.value());
        assert_eq!(low.tox.value(), high.tox.value());
        assert_eq!(low.area_rel, high.area_rel);
    }

    #[test]
    fn frequency_grows_22_percent_per_generation() {
        let rows = TechNode::all();
        for w in [(0usize, 1usize), (1, 2), (2, 3)] {
            let ratio = rows[w.1].frequency.value() / rows[w.0].frequency.value();
            assert!((ratio - 1.22).abs() < 0.02, "ratio {ratio}");
        }
    }

    #[test]
    fn scale_factor_is_cumulative_07_07_08() {
        let rows = TechNode::all();
        assert_eq!(rows[0].scale_factor, 1.0);
        assert!((rows[1].scale_factor - 0.7).abs() < 1e-12);
        assert!((rows[2].scale_factor - 0.49).abs() < 1e-12);
        assert!((rows[3].scale_factor - 0.392).abs() < 1e-12);
    }

    #[test]
    fn area_tracks_scale_factor_squared() {
        for n in TechNode::all() {
            // Table 4 rounds aggressively (0.7² = 0.49 → 0.5, 0.392² ≈
            // 0.154 → 0.16); allow that slack.
            assert!((n.area_rel - n.scale_factor * n.scale_factor).abs() < 0.02);
        }
    }

    #[test]
    fn core_area_shrinks() {
        assert_eq!(TechNode::reference().core_area().value(), 81.0);
        let n65 = TechNode::get(NodeId::N65HighV);
        assert!((n65.core_area().value() - 12.96).abs() < 1e-9);
    }

    #[test]
    fn dynamic_power_factor_drops_with_scaling() {
        let mut prev = f64::MAX;
        for id in [NodeId::N180, NodeId::N130, NodeId::N90, NodeId::N65LowV] {
            let f = TechNode::get(id).dynamic_power_factor();
            assert!(f < prev, "{id}: {f}");
            prev = f;
        }
        // Holding 1.0 V at 65 nm costs dynamic power vs the 0.9 V variant.
        assert!(
            TechNode::get(NodeId::N65HighV).dynamic_power_factor()
                > TechNode::get(NodeId::N65LowV).dynamic_power_factor()
        );
    }

    #[test]
    fn projected_45nm_continues_trends_and_stays_out_of_the_study() {
        let p = TechNode::get(NodeId::N45Projected);
        assert!(!NodeId::ALL.contains(&NodeId::N45Projected));
        let n65 = TechNode::get(NodeId::N65HighV);
        assert!(p.feature.value() < n65.feature.value());
        assert_eq!(p.vdd, n65.vdd, "supply pinned at the noise floor");
        assert!(p.frequency.value() > n65.frequency.value());
        assert!(p.tox.value() < n65.tox.value());
        assert!(p.leakage_density.value() > n65.leakage_density.value());
        assert!((p.scale_factor - 0.392 * 0.8).abs() < 1e-12);
        assert!(p.core_area().value() < n65.core_area().value());
    }

    #[test]
    fn interval_cycles_follow_frequency() {
        assert_eq!(TechNode::get(NodeId::N180).interval_cycles(), 1100);
        assert_eq!(TechNode::get(NodeId::N90).interval_cycles(), 1650);
        assert_eq!(TechNode::get(NodeId::N65HighV).interval_cycles(), 2000);
        assert_eq!(TechNode::get(NodeId::N45Projected).interval_cycles(), 2440);
        assert_eq!(TechNode::study_interval_cycles(), [1100, 1350, 1650, 2000]);
    }

    #[test]
    fn tox_reduction_matches_table() {
        assert_eq!(TechNode::reference().tox_reduction_nm(), 0.0);
        assert!((TechNode::get(NodeId::N65HighV).tox_reduction_nm() - 1.6).abs() < 1e-12);
        assert!((TechNode::get(NodeId::N130).tox_reduction_nm() - 0.8).abs() < 1e-12);
    }
}
