//! Exact rational arithmetic for steady-state scheduling.
//!
//! Solving the SDF balance equations of a stream graph (paper §3.3.1 and
//! Karczmarek's scheduling work referenced there) requires exact rational
//! repetition rates before normalizing to integers. This is a deliberately
//! minimal signed rational over `i128` — the stream graphs of the benchmark
//! suite stay far away from overflow.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A reduced signed rational number.
///
/// Invariants: the denominator is always positive and `gcd(num, den) == 1`.
///
/// # Examples
///
/// ```
/// use streamlin_support::Ratio;
/// let a = Ratio::new(2, 4);
/// assert_eq!(a, Ratio::new(1, 2));
/// assert_eq!((a * Ratio::from_int(3)).to_string(), "3/2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: i128,
    den: i128,
}

fn gcd_i(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Ratio {
    /// Creates the reduced rational `num/den`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational with zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd_i(num, den).max(1);
        Ratio {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// The rational `n/1`.
    pub fn from_int(n: i128) -> Self {
        Ratio { num: n, den: 1 }
    }

    /// Zero.
    pub fn zero() -> Self {
        Ratio::from_int(0)
    }

    /// One.
    pub fn one() -> Self {
        Ratio::from_int(1)
    }

    /// Denominator of the reduced form (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// True if the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// True if the value is a (possibly negative) integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Self {
        Ratio::new(self.den, self.num)
    }

    /// Converts to `f64` (lossy).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Integer value, if the rational is an integer.
    pub fn to_integer(&self) -> Option<i128> {
        self.is_integer().then_some(self.num)
    }
}

impl Add for Ratio {
    type Output = Ratio;
    fn add(self, rhs: Ratio) -> Ratio {
        Ratio::new(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    fn sub(self, rhs: Ratio) -> Ratio {
        self + (-rhs)
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        Ratio::new(self.num * rhs.num, self.den * rhs.den)
    }
}

impl Div for Ratio {
    type Output = Ratio;
    #[allow(clippy::suspicious_arithmetic_impl)] // division via reciprocal
    fn div(self, rhs: Ratio) -> Ratio {
        self * rhs.recip()
    }
}

impl Neg for Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        Ratio {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::zero()
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Least common multiple of the denominators of a sequence of rationals.
///
/// Multiplying every element by the returned value yields integers; this is
/// the normalization step that turns rational repetition rates into the
/// integral steady-state repetition vector.
pub fn common_denominator<'a, I: IntoIterator<Item = &'a Ratio>>(xs: I) -> i128 {
    xs.into_iter().fold(1i128, |acc, r| {
        let g = gcd_i(acc, r.den).max(1);
        acc / g * r.den
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_reduces() {
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(-2, -4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(2, -4), Ratio::new(-1, 2));
        assert_eq!(Ratio::new(0, 5), Ratio::zero());
    }

    #[test]
    #[should_panic]
    fn zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }

    #[test]
    fn field_operations() {
        let a = Ratio::new(1, 2);
        let b = Ratio::new(1, 3);
        assert_eq!(a + b, Ratio::new(5, 6));
        assert_eq!(a - b, Ratio::new(1, 6));
        assert_eq!(a * b, Ratio::new(1, 6));
        assert_eq!(a / b, Ratio::new(3, 2));
        assert_eq!(-a, Ratio::new(-1, 2));
        assert_eq!(a.recip(), Ratio::from_int(2));
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(-1, 2) < Ratio::zero());
        assert_eq!(Ratio::new(2, 6).cmp(&Ratio::new(1, 3)), Ordering::Equal);
    }

    #[test]
    fn conversions() {
        assert_eq!(Ratio::new(3, 1).to_integer(), Some(3));
        assert_eq!(Ratio::new(1, 2).to_integer(), None);
        assert!((Ratio::new(1, 4).to_f64() - 0.25).abs() < 1e-15);
    }

    #[test]
    fn common_denominator_normalizes() {
        let xs = [Ratio::new(1, 2), Ratio::new(1, 3), Ratio::new(5, 6)];
        let d = common_denominator(xs.iter());
        assert_eq!(d, 6);
        for x in &xs {
            assert!((*x * Ratio::from_int(d)).is_integer());
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Ratio::new(3, 1).to_string(), "3");
        assert_eq!(Ratio::new(-3, 2).to_string(), "-3/2");
    }
}
