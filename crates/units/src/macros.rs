//! Internal helper macro for defining `f64`-backed quantity newtypes.

/// Defines a quantity newtype with a checked constructor, a `const`
/// constructor, raw accessor, `Display` with unit suffix, and standard
/// derives.
///
/// The validity predicate is a `const`-evaluable condition on the
/// candidate `f64`, so both constructors check the same range.
macro_rules! quantity {
    (
        $(#[$meta:meta])*
        $name:ident, unit = $unit:literal, allowed = $allowed:literal,
        valid = |$v:ident| $valid:expr
    ) => {
        $(#[$meta])*
        #[derive(
            Debug,
            Clone,
            Copy,
            PartialEq,
            PartialOrd,
            serde::Serialize,
            serde::Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(f64);

        impl $name {
            /// Creates a new value, validating finiteness and range.
            ///
            /// # Errors
            ///
            /// Returns [`crate::UnitError`] if `value` is not finite or is
            /// outside the allowed range (documented on the type).
            // The predicate is written as comparisons, not `Range::contains`,
            // because `new_const` evaluates it in a `const fn` too.
            #[allow(clippy::manual_range_contains)]
            pub fn new(value: f64) -> Result<Self, crate::UnitError> {
                crate::error::check(stringify!($name), value, $allowed, |$v: f64| $valid)
                    .map(Self)
            }

            /// `const` constructor for values known at compile time, with
            /// the same range check as `new`.
            ///
            /// # Panics
            ///
            /// Panics (at compile time in a `const` context) if the value
            /// is not finite or is outside the allowed range.
            #[must_use]
            pub const fn new_const($v: f64) -> Self {
                assert!(
                    $v.is_finite() && $valid,
                    concat!(stringify!($name), " must be finite and ", $allowed)
                );
                Self($v)
            }

            /// Returns the raw `f64` value in the type's canonical unit.
            #[inline]
            pub fn value(self) -> f64 {
                self.0
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }
    };
}

pub(crate) use quantity;
