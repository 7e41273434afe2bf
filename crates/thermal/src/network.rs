//! The compact RC thermal network: construction, steady state, transient.

use crate::floorplan::Floorplan;
use crate::solve::{solve, SingularMatrix};
use ramp_microarch::{PerStructure, Structure};
use ramp_units::{Kelvin, KelvinPerWatt, Seconds, Watts};
use serde::{Deserialize, Serialize};

/// Physical parameters of the thermal stack.
///
/// All resistances derive from these constants plus the floorplan geometry,
/// so scaling the die automatically scales the network the way real silicon
/// does: through-plane terms grow as `1/A`, spreading terms as `1/√A`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalParams {
    /// Die thickness (m).
    pub die_thickness_m: f64,
    /// Silicon thermal conductivity (W/m·K) at operating temperature.
    pub k_silicon: f64,
    /// Volumetric heat capacity of silicon (J/m³·K).
    pub vol_heat_capacity: f64,
    /// Thermal-interface-material thickness (m).
    pub tim_thickness_m: f64,
    /// TIM conductivity (W/m·K).
    pub k_tim: f64,
    /// Effective conductivity for spreading/constriction into the heat
    /// spreader (W/m·K).
    pub k_spreading: f64,
    /// Spreader lumped heat capacity (J/K).
    pub spreader_capacitance: f64,
    /// Spreader-to-sink bulk resistance (K/W).
    pub spreader_to_sink_resistance: f64,
    /// Sink-to-ambient convection resistance (K/W). The paper uses
    /// 0.8 K/W at 180 nm and rescales it per node to hold each
    /// application's sink temperature constant.
    pub sink_resistance: f64,
    /// Ambient air temperature.
    pub ambient: Kelvin,
}

impl ThermalParams {
    /// Reference parameters for the 180 nm POWER4-like package
    /// (0.8 K/W sink per Skadron et al., 45 °C ambient).
    #[must_use]
    pub fn reference() -> Self {
        ThermalParams {
            die_thickness_m: 0.42e-3,
            k_silicon: 120.0,
            vol_heat_capacity: 1.75e6,
            tim_thickness_m: 18e-6,
            k_tim: 4.2,
            k_spreading: 130.0,
            spreader_capacitance: 30.0,
            spreader_to_sink_resistance: 0.10,
            sink_resistance: 0.8,
            ambient: Kelvin::new_const(318.15),
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let positive = [
            ("die_thickness_m", self.die_thickness_m),
            ("k_silicon", self.k_silicon),
            ("vol_heat_capacity", self.vol_heat_capacity),
            ("tim_thickness_m", self.tim_thickness_m),
            ("k_tim", self.k_tim),
            ("k_spreading", self.k_spreading),
            ("spreader_capacitance", self.spreader_capacitance),
            ("spreader_to_sink_resistance", self.spreader_to_sink_resistance),
            ("sink_resistance", self.sink_resistance),
        ];
        for (name, v) in positive {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{name} must be finite and positive, got {v}"));
            }
        }
        Ok(())
    }
}

/// Temperatures of every node in the network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalState {
    /// Per-structure junction temperatures.
    pub structures: PerStructure<Kelvin>,
    /// Heat-spreader temperature.
    pub spreader: Kelvin,
    /// Heat-sink temperature.
    pub sink: Kelvin,
}

impl ThermalState {
    /// A uniform state (everything at `t`).
    #[must_use]
    pub fn uniform(t: Kelvin) -> Self {
        ThermalState {
            structures: PerStructure::from_fn(|_| t),
            spreader: t,
            sink: t,
        }
    }

    /// The hottest structure and its temperature.
    #[must_use]
    pub fn hottest(&self) -> (Structure, Kelvin) {
        Structure::ALL
            .iter()
            // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
            .map(|&s| (s, self.structures[s]))
            .max_by(|a, b| a.1.value().total_cmp(&b.1.value()))
            .expect("non-empty structure list") // ramp-lint:allow(panic-hygiene) -- structure list is a non-empty static enum
    }
}

/// The assembled RC network for one die size.
///
/// # Examples
///
/// ```
/// use ramp_thermal::{Floorplan, RcNetwork, ThermalParams};
/// use ramp_microarch::PerStructure;
/// use ramp_units::{SquareMillimeters, Watts};
///
/// let fp = Floorplan::power4(SquareMillimeters::new(81.0)?);
/// let net = RcNetwork::build(&fp, ThermalParams::reference()).unwrap();
/// let powers = PerStructure::from_fn(|_| Watts::new(4.0).unwrap());
/// let state = net.steady_state(&powers).unwrap();
/// assert!(state.sink.value() > 318.15);           // above ambient
/// assert!(state.hottest().1.value() > state.sink.value());
/// # Ok::<(), ramp_units::UnitError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RcNetwork {
    /// Structure→spreader vertical conductance (W/K).
    g_vertical: PerStructure<f64>,
    /// Lateral conductances `(a, b, g)`.
    g_lateral: Vec<(Structure, Structure, f64)>,
    /// Structure heat capacities (J/K).
    capacitance: PerStructure<f64>,
    params: ThermalParams,
}

impl RcNetwork {
    /// Builds the network for a floorplan.
    ///
    /// # Errors
    ///
    /// Returns an error description if the parameters are invalid.
    pub fn build(floorplan: &Floorplan, params: ThermalParams) -> Result<Self, String> {
        params.validate()?;
        let g_vertical = PerStructure::from_fn(|s| {
            let area_m2 = floorplan.block(s).area().value() * 1e-6;
            let r_through = params.die_thickness_m / (params.k_silicon * area_m2)
                + params.tim_thickness_m / (params.k_tim * area_m2);
            let radius = (area_m2 / std::f64::consts::PI).sqrt();
            let r_spread = 1.0 / (2.0 * params.k_spreading * radius);
            1.0 / (r_through + r_spread)
        });
        let g_lateral = floorplan
            .adjacencies()
            .into_iter()
            .map(|(a, b, edge_mm)| {
                let (ax, ay) = floorplan.block(a).center();
                let (bx, by) = floorplan.block(b).center();
                let dist_m = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt() * 1e-3;
                let cross_m2 = edge_mm * 1e-3 * params.die_thickness_m;
                let g = params.k_silicon * cross_m2 / dist_m;
                (a, b, g)
            })
            .collect();
        let capacitance = PerStructure::from_fn(|s| {
            let area_m2 = floorplan.block(s).area().value() * 1e-6;
            params.vol_heat_capacity * area_m2 * params.die_thickness_m
        });
        Ok(RcNetwork {
            g_vertical,
            g_lateral,
            capacitance,
            params,
        })
    }

    /// The parameter set this network was built with.
    #[must_use]
    pub fn params(&self) -> &ThermalParams {
        &self.params
    }

    /// Replaces the sink-to-ambient resistance (the paper's per-node
    /// rescaling knob) and returns the modified network.
    #[must_use]
    pub fn with_sink_resistance(mut self, r: KelvinPerWatt) -> Self {
        self.params.sink_resistance = r.value();
        self
    }

    /// Solves the full steady state for constant per-structure powers.
    ///
    /// Node order: 7 structures, then spreader, then sink; ambient is the
    /// boundary.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] if the network is degenerate (cannot
    /// happen for a validated parameter set).
    pub fn steady_state(
        &self,
        powers: &PerStructure<Watts>,
    ) -> Result<ThermalState, SingularMatrix> {
        const N: usize = Structure::COUNT + 2;
        let spreader = Structure::COUNT;
        let sink = Structure::COUNT + 1;
        let mut a = vec![vec![0.0; N]; N];
        let mut b = vec![0.0; N];

        let connect = |a: &mut Vec<Vec<f64>>, i: usize, j: usize, g: f64| {
            // ramp-lint:allow(panic-reach) -- the matrix is n-by-n and `i` is bounded by the loop
            a[i][i] += g;
            a[j][j] += g; // ramp-lint:allow(panic-reach) -- node index is below the fixed network size by construction
            a[i][j] -= g;
            a[j][i] -= g; // ramp-lint:allow(panic-reach) -- node index is below the fixed network size by construction
        };

        for s in Structure::ALL {
            connect(&mut a, s.index(), spreader, self.g_vertical[s]); // ramp-lint:allow(panic-reach) -- node index is below the fixed network size by construction
            b[s.index()] += powers[s].value();
        }
        for &(x, y, g) in &self.g_lateral {
            connect(&mut a, x.index(), y.index(), g);
        }
        connect(
            &mut a,
            spreader,
            sink,
            1.0 / self.params.spreader_to_sink_resistance,
        );
        // Sink to ambient boundary.
        let g_amb = 1.0 / self.params.sink_resistance;
        a[sink][sink] += g_amb; // ramp-lint:allow(panic-reach) -- node index is below the fixed network size by construction
        b[sink] += g_amb * self.params.ambient.value();

        let x = solve(&mut a, &mut b)?;
        Ok(ThermalState {
            structures: PerStructure::from_fn(|s| {
                Kelvin::new(x[s.index()]).expect("steady-state temperature in range") // ramp-lint:allow(panic-hygiene) -- converged solve stays in the valid temperature range
            }),
            spreader: Kelvin::new(x[spreader]).expect("in range"), // ramp-lint:allow(panic-hygiene) -- converged solve stays in the valid temperature range
            sink: Kelvin::new(x[sink]).expect("in range"), // ramp-lint:allow(panic-hygiene) -- converged solve stays in the valid temperature range
        })
    }

    /// Advances the transient state by `dt` with the given powers, using
    /// forward-Euler integration of the structure and spreader nodes.
    ///
    /// The sink is treated as a fixed-temperature boundary: its thermal
    /// mass is orders of magnitude larger than anything simulated at
    /// microsecond granularity, which is exactly why the paper initialises
    /// it from a separate steady-state pass ([`RcNetwork::steady_state`]).
    // ramp-lint: hot
    #[must_use]
    pub fn step(
        &self,
        state: &ThermalState,
        powers: &PerStructure<Watts>,
        dt: Seconds,
    ) -> ThermalState {
        let dt = dt.value();
        // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
        let mut heat_in = PerStructure::from_fn(|s| powers[s].value());
        let mut spreader_in = 0.0;

        for s in Structure::ALL {
            let flow = self.g_vertical[s] * (state.structures[s] - state.spreader); // ramp-lint:allow(panic-reach) -- node index is below the fixed network size by construction
            heat_in[s] -= flow;
            spreader_in += flow;
        }
        for &(x, y, g) in &self.g_lateral {
            let flow = g * (state.structures[x] - state.structures[y]); // ramp-lint:allow(panic-reach) -- node index is below the fixed network size by construction
            heat_in[x] -= flow;
            heat_in[y] += flow; // ramp-lint:allow(panic-reach) -- node index is below the fixed network size by construction
        }
        spreader_in -=
            (state.spreader - state.sink) / self.params.spreader_to_sink_resistance;

        let structures = PerStructure::from_fn(|s| {
            state.structures[s] // ramp-lint:allow(panic-reach) -- node index is below the fixed network size by construction
                .saturating_add(heat_in[s] * dt / self.capacitance[s])
        });
        let spreader = state
            .spreader
            .saturating_add(spreader_in * dt / self.params.spreader_capacitance);
        ThermalState {
            structures,
            spreader,
            sink: state.sink,
        }
    }

    /// Largest stable forward-Euler step (s): the smallest node time
    /// constant, halved for margin.
    #[must_use]
    pub fn max_stable_step(&self) -> Seconds {
        let mut min_tau = f64::MAX;
        for s in Structure::ALL {
            // ramp-lint:allow(panic-reach) -- enum-indexed `PerStructure` is total
            let g_total: f64 = self.g_vertical[s]
                + self
                    .g_lateral
                    .iter()
                    .filter(|&&(a, b, _)| a == s || b == s)
                    .map(|&(_, _, g)| g)
                    .sum::<f64>();
            min_tau = min_tau.min(self.capacitance[s] / g_total); // ramp-lint:allow(panic-reach) -- node index is below the fixed network size by construction
        }
        Seconds::new(min_tau * 0.5).expect("positive time constant") // ramp-lint:allow(panic-hygiene) -- min_tau is positive for a valid network
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ramp_units::SquareMillimeters;

    fn network(area: f64) -> RcNetwork {
        let fp = Floorplan::power4(SquareMillimeters::new(area).unwrap());
        RcNetwork::build(&fp, ThermalParams::reference()).unwrap()
    }

    fn uniform_power(w: f64) -> PerStructure<Watts> {
        PerStructure::from_fn(|_| Watts::new(w).unwrap())
    }

    #[test]
    fn steady_state_energy_balance() {
        // Sink rise above ambient must equal total power × sink resistance.
        let net = network(81.0);
        let powers = uniform_power(4.0);
        let st = net.steady_state(&powers).unwrap();
        let expect = 318.15 + 28.0 * 0.8;
        assert!(
            (st.sink.value() - expect).abs() < 1e-6,
            "sink {} vs {expect}",
            st.sink.value()
        );
        assert!(st.spreader.value() > st.sink.value());
    }

    #[test]
    fn zero_power_relaxes_to_ambient() {
        let net = network(81.0);
        let st = net.steady_state(&uniform_power(0.0)).unwrap();
        for (s, t) in st.structures.iter() {
            assert!(
                (t.value() - 318.15).abs() < 1e-6,
                "{s} at {t} with no power"
            );
        }
    }

    #[test]
    fn hot_structure_is_hottest() {
        let net = network(81.0);
        let mut powers = uniform_power(1.0);
        powers[Structure::Fpu] = Watts::new(12.0).unwrap();
        let st = net.steady_state(&powers).unwrap();
        assert_eq!(st.hottest().0, Structure::Fpu);
    }

    #[test]
    fn smaller_die_runs_hotter_at_same_power() {
        let big = network(81.0).steady_state(&uniform_power(3.0)).unwrap();
        let small = network(81.0 * 0.16)
            .steady_state(&uniform_power(3.0))
            .unwrap();
        assert!(small.hottest().1.value() > big.hottest().1.value() + 5.0);
        // Same sink temperature (same total power, same sink resistance).
        assert!((small.sink.value() - big.sink.value()).abs() < 1e-6);
    }

    #[test]
    fn transient_converges_to_steady_state() {
        let net = network(81.0);
        let powers = uniform_power(4.0);
        let target = net.steady_state(&powers).unwrap();
        // Start from the steady sink/spreader but cold structures.
        let mut st = ThermalState {
            structures: PerStructure::from_fn(|_| Kelvin::new(330.0).unwrap()),
            spreader: target.spreader,
            sink: target.sink,
        };
        let dt = Seconds::new(1e-5).unwrap();
        for _ in 0..2_000_000 {
            st = net.step(&st, &powers, dt);
        }
        for s in Structure::ALL {
            assert!(
                (st.structures[s] - target.structures[s]).abs() < 0.3,
                "{s}: {} vs {}",
                st.structures[s],
                target.structures[s]
            );
        }
    }

    #[test]
    fn forward_euler_stable_at_one_microsecond() {
        let net = network(81.0 * 0.16); // smallest die = fastest dynamics
        assert!(
            net.max_stable_step().value() > 1e-6,
            "1 µs step must be stable, limit {}",
            net.max_stable_step().value()
        );
    }

    #[test]
    fn step_conserves_monotonicity() {
        // Heating from a uniform cold start, temperatures rise toward the
        // steady state without overshooting it wildly.
        let net = network(81.0);
        let powers = uniform_power(4.0);
        let target = net.steady_state(&powers).unwrap();
        let mut st = ThermalState::uniform(Kelvin::new(318.15).unwrap());
        st.sink = target.sink;
        let dt = Seconds::MICROSECOND;
        let mut prev = st.structures[Structure::Fpu].value();
        for _ in 0..10_000 {
            st = net.step(&st, &powers, dt);
            let cur = st.structures[Structure::Fpu].value();
            assert!(cur + 1e-9 >= prev, "temperature fell while heating");
            prev = cur;
        }
        assert!(prev <= target.structures[Structure::Fpu].value() + 0.5);
    }

    #[test]
    fn sink_resistance_override() {
        let net = network(81.0).with_sink_resistance(KelvinPerWatt::new(1.6).unwrap());
        let st = net.steady_state(&uniform_power(4.0)).unwrap();
        let expect = 318.15 + 28.0 * 1.6;
        assert!((st.sink.value() - expect).abs() < 1e-6);
    }
}
