//! Exact rational pattern weights.
//!
//! In the paper, the weight of a combined local pattern is the ratio between
//! its maximum accumulated value and the maximum accumulated value of the
//! global pattern (Section IV-B). On accumulated (prefix-sum) series the
//! maximum is the final point, i.e. the pattern's total volume, so the
//! weights of a true decomposition of a global pattern sum to exactly `1`.
//!
//! Algorithm 2 accepts a candidate only when *all* sampled points carry the
//! *same* weight, and Algorithm 3 discards IDs whose weight sum exceeds `1`.
//! Both tests must therefore be exact, which rules out floating point:
//! [`Weight`] is a reduced `u64/u64` rational with exact equality, ordering
//! and checked addition.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{CoreError, Result};

/// An exact non-negative rational weight, kept in lowest terms.
///
/// # Examples
///
/// ```
/// use dipm_core::Weight;
///
/// # fn main() -> Result<(), dipm_core::CoreError> {
/// let third = Weight::new(3, 9)?; // reduced to 1/3
/// assert_eq!(third, Weight::new(1, 3)?);
///
/// let sum = third
///     .checked_add(Weight::new(2, 3)?)
///     .expect("no overflow");
/// assert!(sum.is_one());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Weight {
    num: u64,
    den: u64,
}

const fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Weight {
    /// The additive identity, `0/1`.
    pub const ZERO: Weight = Weight { num: 0, den: 1 };
    /// The weight of a global pattern, `1/1`.
    pub const ONE: Weight = Weight { num: 1, den: 1 };

    /// Creates a weight `num/den`, reduced to lowest terms.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroDenominator`] if `den == 0`.
    pub fn new(num: u64, den: u64) -> Result<Weight> {
        if den == 0 {
            return Err(CoreError::ZeroDenominator);
        }
        if num == 0 {
            return Ok(Weight::ZERO);
        }
        let g = gcd(num, den);
        Ok(Weight {
            num: num / g,
            den: den / g,
        })
    }

    /// Creates the ratio between a local pattern's total volume and the
    /// global pattern's total volume, the paper's weight assignment.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ZeroDenominator`] if `global_total == 0`.
    pub fn ratio(local_total: u64, global_total: u64) -> Result<Weight> {
        Weight::new(local_total, global_total)
    }

    /// The reduced numerator.
    pub fn numerator(self) -> u64 {
        self.num
    }

    /// The reduced denominator (always non-zero).
    pub fn denominator(self) -> u64 {
        self.den
    }

    /// Whether this weight is exactly zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Whether this weight is exactly one (a global-pattern match).
    pub fn is_one(self) -> bool {
        self.num == self.den
    }

    /// Exact addition, reducing the result; `None` when the reduced result
    /// no longer fits in `u64/u64`.
    #[must_use = "checked arithmetic returns a new value"]
    pub fn checked_add(self, other: Weight) -> Option<Weight> {
        let num =
            (self.num as u128) * (other.den as u128) + (other.num as u128) * (self.den as u128);
        let den = (self.den as u128) * (other.den as u128);
        let g = gcd_u128(num, den);
        let (num, den) = (num / g, den / g);
        if num > u64::MAX as u128 || den > u64::MAX as u128 {
            return None;
        }
        Some(Weight {
            num: num as u64,
            den: den as u64,
        })
    }

    /// Exact comparison against one, without constructing a new weight.
    pub fn cmp_one(self) -> Ordering {
        self.num.cmp(&self.den)
    }

    /// Lossy conversion for display and ranking diagnostics.
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }
}

fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    if a == 0 {
        1
    } else {
        a
    }
}

impl Default for Weight {
    fn default() -> Self {
        Weight::ZERO
    }
}

impl PartialOrd for Weight {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Weight {
    fn cmp(&self, other: &Self) -> Ordering {
        let lhs = (self.num as u128) * (other.den as u128);
        let rhs = (other.num as u128) * (self.den as u128);
        lhs.cmp(&rhs)
    }
}

impl fmt::Display for Weight {
    /// Writes the reduced fraction, e.g. `1/3`, or `1` for one and `0` for
    /// zero.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            write!(f, "0")
        } else if self.is_one() {
            write!(f, "1")
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Sums an iterator of weights exactly, or `None` if any intermediate sum
/// overflows (see [`Weight::checked_add`]).
pub fn sum_weights<I: IntoIterator<Item = Weight>>(weights: I) -> Option<Weight> {
    weights
        .into_iter()
        .try_fold(Weight::ZERO, Weight::checked_add)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_reduces_to_lowest_terms() {
        let w = Weight::new(6, 8).unwrap();
        assert_eq!(w.numerator(), 3);
        assert_eq!(w.denominator(), 4);
    }

    #[test]
    fn zero_numerator_normalizes_denominator() {
        let w = Weight::new(0, 7).unwrap();
        assert_eq!(w, Weight::ZERO);
        assert_eq!(w.denominator(), 1);
    }

    #[test]
    fn zero_denominator_is_rejected() {
        assert_eq!(Weight::new(3, 0), Err(CoreError::ZeroDenominator));
    }

    #[test]
    fn paper_example_weight_is_one_third() {
        // "the weight of a pattern {1,2,3} is 3/9, with respect to the global
        // pattern {4,7,9}" — Section IV-B.
        let w = Weight::ratio(3, 9).unwrap();
        assert_eq!(w, Weight::new(1, 3).unwrap());
        assert!((w.to_f64() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn decomposition_weights_sum_to_one() {
        let parts = [
            Weight::ratio(6, 24).unwrap(),
            Weight::ratio(10, 24).unwrap(),
            Weight::ratio(8, 24).unwrap(),
        ];
        assert!(sum_weights(parts).unwrap().is_one());
    }

    #[test]
    fn ordering_uses_cross_multiplication() {
        let a = Weight::new(1, 3).unwrap();
        let b = Weight::new(2, 5).unwrap();
        assert!(a < b);
        assert!(b < Weight::ONE);
        assert!(Weight::ZERO < a);
    }

    #[test]
    fn cmp_one_matches_ordering() {
        assert_eq!(Weight::new(3, 2).unwrap().cmp_one(), Ordering::Greater);
        assert_eq!(Weight::ONE.cmp_one(), Ordering::Equal);
        assert_eq!(Weight::new(1, 2).unwrap().cmp_one(), Ordering::Less);
    }

    #[test]
    fn checked_add_detects_overflow() {
        let big = Weight::new(u64::MAX, 1).unwrap();
        assert_eq!(big.checked_add(Weight::ONE), None);
    }

    #[test]
    fn checked_add_reduces_before_overflow_check() {
        // 1/(2^63) + 1/(2^63) = 2/(2^63) = 1/(2^62): the unreduced denominator
        // (2^126) overflows u64, the reduced one does not.
        let tiny = Weight::new(1, 1 << 63).unwrap();
        let sum = tiny.checked_add(tiny).unwrap();
        assert_eq!(sum, Weight::new(1, 1 << 62).unwrap());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Weight::ZERO.to_string(), "0");
        assert_eq!(Weight::ONE.to_string(), "1");
        assert_eq!(Weight::new(2, 6).unwrap().to_string(), "1/3");
        assert_eq!(Weight::new(5, 5).unwrap().to_string(), "1");
    }

    #[test]
    fn sum_weights_empty_is_zero() {
        assert_eq!(sum_weights(std::iter::empty()).unwrap(), Weight::ZERO);
    }

    #[test]
    fn eq_and_hash_agree_on_reduced_form() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Weight::new(2, 4).unwrap());
        assert!(set.contains(&Weight::new(1, 2).unwrap()));
        assert!(set.contains(&Weight::new(50, 100).unwrap()));
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Weight::default(), Weight::ZERO);
    }
}
