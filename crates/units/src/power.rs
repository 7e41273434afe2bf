//! Power and power-density types.

use crate::area::SquareMillimeters;
use crate::macros::quantity;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

quantity! {
    /// Power in watts.
    ///
    /// Non-negative: structures dissipate power, they never generate it.
    ///
    /// # Examples
    ///
    /// ```
    /// use ramp_units::Watts;
    /// let dynamic = Watts::new(26.0)?;
    /// let leakage = Watts::new(3.1)?;
    /// assert_eq!((dynamic + leakage).value(), 29.1);
    /// # Ok::<(), ramp_units::UnitError>(())
    /// ```
    Watts, unit = "W", allowed = ">= 0 and < 1e6",
    valid = |v| v >= 0.0 && v < 1e6
}

impl Watts {
    /// Zero watts.
    pub const ZERO: Watts = Watts(0.0);

    /// Scales power by a dimensionless factor (activity, derate, …).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn scaled(self, factor: f64) -> Watts {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "power scale factor must be finite and non-negative, got {factor}"
        );
        Watts(self.0 * factor)
    }
}

impl Add for Watts {
    type Output = Watts;
    fn add(self, rhs: Watts) -> Watts {
        Watts(self.0 + rhs.0)
    }
}

impl AddAssign for Watts {
    fn add_assign(&mut self, rhs: Watts) {
        self.0 += rhs.0;
    }
}

impl Sub for Watts {
    type Output = Watts;

    /// Subtracts power, saturating at zero (a component cannot dissipate
    /// negative power; saturation keeps accounting code panic-free).
    fn sub(self, rhs: Watts) -> Watts {
        Watts((self.0 - rhs.0).max(0.0))
    }
}

impl Sum for Watts {
    fn sum<I: Iterator<Item = Watts>>(iter: I) -> Watts {
        iter.fold(Watts::ZERO, |acc, w| acc + w)
    }
}

impl Div<SquareMillimeters> for Watts {
    type Output = PowerDensity;

    /// Power spread over an area yields a power density.
    fn div(self, rhs: SquareMillimeters) -> PowerDensity {
        PowerDensity(self.0 / rhs.value())
    }
}

quantity! {
    /// Power density in watts per square millimetre.
    ///
    /// Table 4 of the paper tracks *relative* total power density; this type
    /// holds the absolute value from which ratios are formed.
    ///
    /// # Examples
    ///
    /// ```
    /// use ramp_units::{Watts, SquareMillimeters};
    /// let density = Watts::new(29.1)? / SquareMillimeters::new(81.0)?;
    /// assert!((density.value() - 0.359).abs() < 1e-3);
    /// # Ok::<(), ramp_units::UnitError>(())
    /// ```
    PowerDensity, unit = "W/mm^2", allowed = ">= 0",
    valid = |v| v >= 0.0
}

impl PowerDensity {
    /// Total power obtained by integrating this density over an area.
    #[must_use]
    pub fn over(self, area: SquareMillimeters) -> Watts {
        Watts(self.0 * area.value())
    }
}

impl Mul<SquareMillimeters> for PowerDensity {
    type Output = Watts;
    fn mul(self, rhs: SquareMillimeters) -> Watts {
        self.over(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watts_rejects_negative() {
        assert!(Watts::new(-1.0).is_err());
        assert!(Watts::new(f64::INFINITY).is_err());
    }

    #[test]
    fn watts_sum_over_iterator() {
        let parts = [1.0, 2.5, 3.5].map(|v| Watts::new(v).unwrap());
        let total: Watts = parts.into_iter().sum();
        assert_eq!(total.value(), 7.0);
    }

    #[test]
    fn watts_sub_saturates_at_zero() {
        let a = Watts::new(1.0).unwrap();
        let b = Watts::new(2.0).unwrap();
        assert_eq!((a - b).value(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn scaled_rejects_negative_factor() {
        let _ = Watts::new(1.0).unwrap().scaled(-0.5);
    }

    #[test]
    fn density_roundtrip() {
        let area = SquareMillimeters::new(81.0).unwrap();
        let p = Watts::new(29.1).unwrap();
        let d = p / area;
        let back = d * area;
        assert!((back.value() - 29.1).abs() < 1e-12);
    }
}
