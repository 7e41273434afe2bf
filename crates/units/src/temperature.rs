//! Absolute and relative temperature types.

use crate::macros::quantity;
use std::ops::{Add, Sub};

quantity! {
    /// Absolute temperature in Kelvin.
    ///
    /// All reliability and thermal models in this workspace operate on
    /// absolute temperatures; [`Celsius`] exists only for human-facing I/O.
    /// Valid range: `(0, 2000)` K — silicon melts long before the upper
    /// bound, so anything outside it indicates a simulation bug.
    ///
    /// # Examples
    ///
    /// ```
    /// use ramp_units::Kelvin;
    /// let hot = Kelvin::new(383.0)?;
    /// let delta = hot - Kelvin::new(368.0)?;
    /// assert_eq!(delta, 15.0);
    /// # Ok::<(), ramp_units::UnitError>(())
    /// ```
    Kelvin, unit = "K", allowed = "0 < K < 2000",
    valid = |v| v > 0.0 && v < 2000.0
}

impl Kelvin {
    /// Room temperature (25 °C), a common reference point.
    pub const ROOM: Kelvin = Kelvin(298.15);

    /// The absolute difference between two temperatures, as a
    /// [`KelvinDelta`].
    ///
    /// Unlike `a - b` (which yields a signed raw `f64`), this is the
    /// infallible way to produce the unit-safe magnitude that convergence
    /// trackers and tolerances consume.
    #[must_use]
    pub fn abs_diff(self, other: Kelvin) -> KelvinDelta {
        KelvinDelta((self.0 - other.0).abs())
    }

    /// Adds a temperature difference in Kelvin, saturating at the valid
    /// range bounds rather than panicking.
    ///
    /// Transient thermal integration repeatedly nudges temperatures by small
    /// deltas; saturation keeps a diverging solver observable (temperatures
    /// pile up at the bound) instead of aborting the run.
    #[must_use]
    pub fn saturating_add(self, delta: f64) -> Kelvin {
        Kelvin((self.0 + delta).clamp(1e-6, 1999.999))
    }
}

impl Sub for Kelvin {
    type Output = f64;

    /// Difference between two absolute temperatures, in Kelvin.
    fn sub(self, rhs: Kelvin) -> f64 {
        self.0 - rhs.0
    }
}

impl Add<f64> for Kelvin {
    type Output = Kelvin;

    /// Offsets an absolute temperature by a difference in Kelvin.
    ///
    /// # Panics
    ///
    /// Panics if the result leaves the valid `(0, 2000)` K range; use
    /// [`Kelvin::saturating_add`] in solvers.
    fn add(self, rhs: f64) -> Kelvin {
        Kelvin::new(self.0 + rhs).expect("temperature offset left valid range") // ramp-lint:allow(panic-hygiene) -- documented to panic when the offset leaves the valid range
    }
}

quantity! {
    /// The magnitude of a temperature difference, in Kelvin.
    ///
    /// Two absolute [`Kelvin`] temperatures are always hundreds of kelvin
    /// in this workspace, but the quantities that *compare* temperatures —
    /// convergence tolerances, fixed-point deltas, guard bands — are small
    /// differences that must never be confused with absolute temperatures
    /// (`Kelvin::new(0.01)` would be rejected as sub-cryogenic nonsense by
    /// most models). Non-negative: a delta is a magnitude; keep the sign in
    /// the comparison, not the value.
    ///
    /// # Examples
    ///
    /// ```
    /// use ramp_units::{Kelvin, KelvinDelta};
    /// let tolerance = KelvinDelta::new(0.01)?;
    /// let a = Kelvin::new(356.0)?;
    /// let b = Kelvin::new(356.005)?;
    /// assert!(a.abs_diff(b) < tolerance);
    /// # Ok::<(), ramp_units::UnitError>(())
    /// ```
    KelvinDelta, unit = "K", allowed = ">= 0",
    valid = |v| v >= 0.0
}

impl KelvinDelta {
    /// A zero-width delta.
    pub const ZERO: KelvinDelta = KelvinDelta(0.0);

    /// The larger of two deltas. Total because construction rejects NaN.
    #[must_use]
    pub fn max(self, other: KelvinDelta) -> KelvinDelta {
        if other.0 > self.0 {
            other
        } else {
            self
        }
    }
}

/// Temperature in degrees Celsius, for human-facing input and output.
///
/// # Examples
///
/// ```
/// use ramp_units::{Celsius, Kelvin};
/// let ambient = Celsius::new(45.0)?;
/// assert!((Kelvin::from(ambient).value() - 318.15).abs() < 1e-9);
/// # Ok::<(), ramp_units::UnitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, serde::Serialize, serde::Deserialize)]
#[serde(transparent)]
pub struct Celsius(f64);

impl Celsius {
    /// Creates a Celsius temperature; must correspond to a valid [`Kelvin`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::UnitError`] for non-finite values or values at or
    /// below absolute zero.
    pub fn new(value: f64) -> Result<Self, crate::UnitError> {
        crate::error::check("Celsius", value, "-273.15 < C < 1726.85", |v| {
            v > -273.15 && v < 1726.85
        })
        .map(Self)
    }

    /// Returns the raw value in degrees Celsius.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl From<Kelvin> for Celsius {
    fn from(k: Kelvin) -> Self {
        Celsius(k.value() - 273.15)
    }
}

impl From<Celsius> for Kelvin {
    fn from(c: Celsius) -> Self {
        Kelvin::new(c.0 + 273.15).expect("Celsius invariant guarantees valid Kelvin") // ramp-lint:allow(panic-hygiene) -- Celsius invariant guarantees valid Kelvin
    }
}

impl std::fmt::Display for Celsius {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*} °C", prec, self.0)
        } else {
            write!(f, "{} °C", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kelvin_rejects_absolute_zero_and_below() {
        assert!(Kelvin::new(0.0).is_err());
        assert!(Kelvin::new(-5.0).is_err());
        assert!(Kelvin::new(2000.0).is_err());
    }

    #[test]
    fn kelvin_difference_is_plain_f64() {
        let a = Kelvin::new(383.0).unwrap();
        let b = Kelvin::new(318.0).unwrap();
        assert_eq!(a - b, 65.0);
        assert_eq!(b - a, -65.0);
    }

    #[test]
    fn kelvin_offset_roundtrips() {
        let a = Kelvin::new(300.0).unwrap();
        assert_eq!((a + 50.0).value(), 350.0);
    }

    #[test]
    fn saturating_add_clamps() {
        let a = Kelvin::new(1999.0).unwrap();
        assert!(a.saturating_add(100.0).value() < 2000.0);
        let b = Kelvin::new(1.0).unwrap();
        assert!(b.saturating_add(-100.0).value() > 0.0);
    }

    #[test]
    fn celsius_kelvin_roundtrip() {
        let c = Celsius::new(110.0).unwrap();
        let k = Kelvin::from(c);
        let back = Celsius::from(k);
        assert!((back.value() - 110.0).abs() < 1e-12);
    }

    #[test]
    fn display_includes_units() {
        let k = Kelvin::new(383.25).unwrap();
        assert_eq!(format!("{k:.1}"), "383.2 K");
        let c = Celsius::from(k);
        assert_eq!(format!("{c:.1}"), "110.1 °C");
    }

    #[test]
    fn room_constant_is_25c() {
        assert!((Celsius::from(Kelvin::ROOM).value() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn abs_diff_is_symmetric_and_non_negative() {
        let a = Kelvin::new(383.0).unwrap();
        let b = Kelvin::new(318.0).unwrap();
        assert_eq!(a.abs_diff(b), b.abs_diff(a));
        assert_eq!(a.abs_diff(b).value(), 65.0);
        assert_eq!(a.abs_diff(a), KelvinDelta::ZERO);
    }

    #[test]
    fn delta_rejects_negative_and_non_finite() {
        assert!(KelvinDelta::new(-0.1).is_err());
        assert!(KelvinDelta::new(f64::NAN).is_err());
        assert!(KelvinDelta::new(0.0).is_ok());
    }

    #[test]
    fn delta_compares_against_tolerance() {
        let tol = KelvinDelta::new_const(0.01);
        assert!(KelvinDelta::new(0.005).unwrap() < tol);
        assert!(KelvinDelta::new(0.02).unwrap() > tol);
    }
}
