//! Integer-exact resource units.
//!
//! The paper quotes CPU in GHz, memory in GiB and disk in GB. Capacity
//! arithmetic must be exact (a placement is either feasible or not), so the
//! model stores CPU as **MHz**, memory as **MiB** and disk as whole **GB**.
//! Newtypes keep the three axes from being mixed up (C-NEWTYPE).

// The sanctioned conversion layer: the casts the rest of `model` and
// `core` may not write live here, each next to the bound that makes it
// exact.
#![allow(clippy::as_conversions)]

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

macro_rules! unit_newtype {
    ($(#[$doc:meta])* $name:ident, $suffix:expr) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash,
            Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(pub u64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0);

            /// Raw integer value.
            #[inline]
            pub const fn get(self) -> u64 {
                self.0
            }

            /// The quantity as an `f64` (for trace-driven scaling and
            /// reporting; capacity decisions must stay integer-exact).
            #[inline]
            #[must_use]
            pub fn as_f64(self) -> f64 {
                self.0 as f64
            }

            /// Build a quantity from a (possibly fractional) `f64`,
            /// rounding to the nearest whole unit. Negative, `NaN` and
            /// infinite inputs clamp to the representable range — this is
            /// the sanctioned entry point for float-world demand figures
            /// (trace multipliers, burst factors) back into exact units.
            #[inline]
            #[must_use]
            pub fn from_f64_rounded(value: f64) -> Self {
                if value.is_nan() {
                    return Self::ZERO;
                }
                // `as` saturates on floats, but clamp explicitly so the
                // intent survives any future cast-semantics change.
                Self(value.round().clamp(0.0, u64::MAX as f64) as u64)
            }

            /// Saturating subtraction; never underflows.
            #[inline]
            #[must_use]
            pub const fn saturating_sub(self, rhs: Self) -> Self {
                Self(self.0.saturating_sub(rhs.0))
            }

            /// Checked subtraction, `None` on underflow.
            #[inline]
            #[must_use]
            pub const fn checked_sub(self, rhs: Self) -> Option<Self> {
                match self.0.checked_sub(rhs.0) {
                    Some(v) => Some(Self(v)),
                    None => None,
                }
            }

            /// This quantity as a fraction of `cap` (`0.0` when `cap` is zero).
            #[inline]
            pub fn fraction_of(self, cap: Self) -> f64 {
                if cap.0 == 0 {
                    0.0
                } else {
                    self.0 as f64 / cap.0 as f64
                }
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            /// # Panics
            /// Panics on underflow in debug builds (same as integer `-`).
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $suffix)
            }
        }

        impl From<u64> for $name {
            fn from(v: u64) -> Self {
                Self(v)
            }
        }
    };
}

unit_newtype!(
    /// CPU capacity or demand in megahertz.
    Mhz,
    "MHz"
);
unit_newtype!(
    /// Memory capacity or demand in mebibytes.
    MemMib,
    "MiB"
);
unit_newtype!(
    /// Disk capacity or demand in gigabytes.
    DiskGb,
    "GB"
);

impl Mhz {
    /// Convert from the paper's GHz figures, exact to 1 MHz.
    ///
    /// ```
    /// use prvm_model::Mhz;
    /// assert_eq!(Mhz::from_ghz(0.6), Mhz(600));
    /// assert_eq!(Mhz::from_ghz(2.6), Mhz(2600));
    /// ```
    #[must_use]
    pub fn from_ghz(ghz: f64) -> Self {
        Self((ghz * 1000.0).round() as u64)
    }
}

impl MemMib {
    /// Convert from the paper's GiB figures, exact to 1 MiB.
    ///
    /// ```
    /// use prvm_model::MemMib;
    /// assert_eq!(MemMib::from_gib(3.75), MemMib(3840));
    /// assert_eq!(MemMib::from_gib(64.0), MemMib(65536));
    /// ```
    #[must_use]
    pub fn from_gib(gib: f64) -> Self {
        Self((gib * 1024.0).round() as u64)
    }
}

/// Lossless (or explicitly saturating) integer conversions.
///
/// This module and the unit newtypes above are the workspace's *sanctioned
/// conversion layer*: `clippy::as_conversions` forbids raw `as` casts
/// elsewhere in `core`/`model` (and `prvm-lint`'s L003 raw `f64`
/// resource arithmetic in `core`/`sim`), so every widening or
/// saturating conversion is concentrated here where its (non-)lossiness is
/// documented and tested.
pub mod convert {
    /// Widen a `u32` count (vCPUs, cores) to a `usize` index. Lossless:
    /// every supported target has at least 32-bit pointers.
    #[inline]
    #[must_use]
    pub const fn u32_to_usize(n: u32) -> usize {
        n as usize
    }

    /// Widen a `usize` count to `u64`. Lossless: no supported target has
    /// pointers wider than 64 bits.
    #[inline]
    #[must_use]
    pub const fn usize_to_u64(n: usize) -> u64 {
        n as u64
    }

    /// Narrow a `u64` id to a `usize` index, `None` if it does not fit
    /// (only possible on targets with pointers narrower than 64 bits).
    /// Used to index dense per-VM buffers by [`crate::VmId`].
    #[inline]
    #[must_use]
    pub fn u64_to_usize(n: u64) -> Option<usize> {
        usize::try_from(n).ok()
    }

    /// A `usize` count as an `f64` (means, fractions, rates). Counts in
    /// this workspace are far below 2^53, so the conversion is exact.
    #[inline]
    #[must_use]
    pub fn usize_to_f64(n: usize) -> f64 {
        n as f64
    }

    /// A `u64` quantity as an `f64` (reporting only; may round above
    /// 2^53, which no resource figure in this model reaches).
    #[inline]
    #[must_use]
    pub fn u64_to_f64(n: u64) -> f64 {
        n as f64
    }

    /// Narrow a `u64` to `u16`, saturating at `u16::MAX`. Used for
    /// quantized profile caps, which the quantizer keeps tiny; saturation
    /// (rather than truncation) keeps an out-of-range cap visibly maxed
    /// instead of silently wrapped.
    #[inline]
    #[must_use]
    pub fn u64_to_u16_saturating(n: u64) -> u16 {
        u16::try_from(n).unwrap_or(u16::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghz_conversion_is_exact_for_table_values() {
        assert_eq!(Mhz::from_ghz(0.6).get(), 600);
        assert_eq!(Mhz::from_ghz(0.7).get(), 700);
        assert_eq!(Mhz::from_ghz(2.6).get(), 2600);
        assert_eq!(Mhz::from_ghz(2.8).get(), 2800);
    }

    #[test]
    fn gib_conversion_is_exact_for_table_values() {
        assert_eq!(MemMib::from_gib(3.75).get(), 3840);
        assert_eq!(MemMib::from_gib(7.5).get(), 7680);
        assert_eq!(MemMib::from_gib(15.0).get(), 15360);
        assert_eq!(MemMib::from_gib(30.0).get(), 30720);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = Mhz(600);
        let b = Mhz(700);
        assert_eq!(a + b, Mhz(1300));
        assert_eq!(b - a, Mhz(100));
        assert!(a < b);
        let mut c = a;
        c += b;
        assert_eq!(c, Mhz(1300));
        c -= a;
        assert_eq!(c, b);
    }

    #[test]
    fn saturating_and_checked_sub() {
        assert_eq!(Mhz(100).saturating_sub(Mhz(200)), Mhz::ZERO);
        assert_eq!(Mhz(100).checked_sub(Mhz(200)), None);
        assert_eq!(Mhz(200).checked_sub(Mhz(100)), Some(Mhz(100)));
    }

    #[test]
    fn fraction_of_handles_zero_capacity() {
        assert_eq!(Mhz(100).fraction_of(Mhz::ZERO), 0.0);
        assert!((Mhz(50).fraction_of(Mhz(200)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sum_over_iterator() {
        let total: DiskGb = [DiskGb(4), DiskGb(32), DiskGb(40)].into_iter().sum();
        assert_eq!(total, DiskGb(76));
    }

    #[test]
    fn from_f64_rounded_handles_boundaries() {
        assert_eq!(Mhz::from_f64_rounded(2599.5), Mhz(2600));
        assert_eq!(Mhz::from_f64_rounded(0.4), Mhz::ZERO);
        assert_eq!(Mhz::from_f64_rounded(-17.0), Mhz::ZERO);
        assert_eq!(Mhz::from_f64_rounded(f64::NAN), Mhz::ZERO);
        assert_eq!(Mhz::from_f64_rounded(f64::NEG_INFINITY), Mhz::ZERO);
        assert_eq!(Mhz::from_f64_rounded(f64::INFINITY), Mhz(u64::MAX));
    }

    #[test]
    fn as_f64_round_trips_small_quantities() {
        assert_eq!(Mhz(2600).as_f64(), 2600.0);
        assert_eq!(MemMib::ZERO.as_f64(), 0.0);
    }

    #[test]
    fn convert_boundaries() {
        use super::convert::*;
        assert_eq!(u32_to_usize(u32::MAX), u32::MAX as usize);
        assert_eq!(usize_to_u64(0), 0);
        assert_eq!(u64_to_usize(0), Some(0));
        assert_eq!(u64_to_usize(4096), Some(4096));
        assert_eq!(
            u64_to_usize(u64::MAX),
            usize::try_from(u64::MAX).ok(),
            "fits exactly when usize is 64 bits wide"
        );
        assert_eq!(usize_to_f64(4096), 4096.0);
        assert_eq!(u64_to_f64(1 << 52), (1u64 << 52) as f64);
        assert_eq!(u64_to_u16_saturating(65535), u16::MAX);
        assert_eq!(u64_to_u16_saturating(65536), u16::MAX);
        assert_eq!(u64_to_u16_saturating(7), 7);
    }

    #[test]
    fn display_includes_unit_suffix() {
        assert_eq!(Mhz(2600).to_string(), "2600 MHz");
        assert_eq!(MemMib(3840).to_string(), "3840 MiB");
        assert_eq!(DiskGb(250).to_string(), "250 GB");
    }
}
