//! Thermal resistance.

use crate::macros::quantity;

quantity! {
    /// Thermal resistance in kelvin per watt.
    ///
    /// Characterises how much a thermal interface heats up per watt of
    /// power pushed through it: the paper's package model uses 0.8 K/W for
    /// the sink-to-ambient convection path at 180 nm and rescales it per
    /// node to hold each application's sink temperature constant.
    /// Strictly positive: a zero resistance would make the attached node an
    /// ideal isothermal boundary, which the RC network models explicitly
    /// instead.
    ///
    /// # Examples
    ///
    /// ```
    /// use ramp_units::KelvinPerWatt;
    /// let sink = KelvinPerWatt::new(0.8)?;
    /// // 29.1 W through 0.8 K/W lifts the sink 23.3 K above ambient.
    /// assert!((sink.value() * 29.1 - 23.28).abs() < 1e-9);
    /// # Ok::<(), ramp_units::UnitError>(())
    /// ```
    KelvinPerWatt, unit = "K/W", allowed = "> 0",
    valid = |v| v > 0.0
}

impl KelvinPerWatt {
    /// Scales the resistance by a dimensionless factor (the paper's
    /// constant-sink-temperature rescaling: `R' = R · P_ref / P_here`).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and strictly positive.
    #[must_use]
    pub fn scaled(self, factor: f64) -> KelvinPerWatt {
        assert!(
            factor.is_finite() && factor > 0.0,
            "resistance scale factor must be finite and positive, got {factor}"
        );
        KelvinPerWatt(self.0 * factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_negative_and_non_finite() {
        assert!(KelvinPerWatt::new(0.0).is_err());
        assert!(KelvinPerWatt::new(-0.8).is_err());
        assert!(KelvinPerWatt::new(f64::NAN).is_err());
        assert!(KelvinPerWatt::new(f64::INFINITY).is_err());
    }

    #[test]
    fn scaled_applies_factor() {
        let r = KelvinPerWatt::new(0.8).unwrap().scaled(29.1 / 16.9);
        assert!((r.value() - 0.8 * 29.1 / 16.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scaled_rejects_zero_factor() {
        let _ = KelvinPerWatt::new(0.8).unwrap().scaled(0.0);
    }

    #[test]
    fn display_includes_unit() {
        let r = KelvinPerWatt::new(0.8).unwrap();
        assert_eq!(format!("{r:.1}"), "0.8 K/W");
    }
}
