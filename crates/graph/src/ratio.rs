//! Exact rational arithmetic.
//!
//! Streaming intervals and production rates in the paper are ratios of data
//! volumes (Theorem 4.1: `S_o(v) = max_{u∈WCC(v)} O(u) / O(v)`), and the
//! schedule recurrences take exact ceilings of rational products
//! (e.g. `⌈(R(v)−1)·S_o(v)⌉`). Floating point would reproduce the paper's
//! worked examples only approximately, so we use exact rationals with `i128`
//! intermediates, normalized by gcd after every operation.
//!
//! Data volumes fit in 64 bits, so nearly every operand does too. Those
//! take exact 64-bit fast paths: a binary gcd, hardware division, and
//! products widened into `i128` where two 64-bit factors cannot
//! overflow. Larger operands take the general `i128` path with its
//! checked arithmetic. Both paths return the same lowest-terms value.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number `num/den` with `den > 0`, always in lowest terms.
///
/// Arithmetic uses `i128` intermediates; the dynamic range comfortably covers
/// products of data volumes seen in practice (volumes fit in `u32`-ish ranges,
/// so products fit in `i64` and far below `i128`). Overflowing `i128` panics
/// in debug and release (checked ops), which is the right behaviour for a
/// static analysis tool: silently wrong schedules are worse than a crash.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: i128,
    den: i128,
}

/// The general `i128` gcd (Euclid), non-negative.
const fn gcd_wide(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    if a < 0 {
        -a
    } else {
        a
    }
}

/// Binary (Stein) gcd of two `u64`s: shifts and subtractions only, no
/// division. `gcd(0, b) = b`.
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    if a == 0 {
        return b;
    }
    if b == 0 {
        return a;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// `x` as an `i64`, when it fits: the operand range of the fast paths.
#[inline]
fn small(x: i128) -> Option<i64> {
    i64::try_from(x).ok()
}

/// The non-negative gcd, on the 64-bit path when both operands fit.
fn gcd(a: i128, b: i128) -> i128 {
    match (small(a), small(b)) {
        (Some(a), Some(b)) => i128::from(gcd_u64(a.unsigned_abs(), b.unsigned_abs())),
        _ => gcd_wide(a, b),
    }
}

/// `x / g` for a positive divisor `g` of `x`, by hardware division when
/// both fit in 64 bits.
#[inline]
fn div_exact(x: i128, g: i128) -> i128 {
    match (small(x), u64::try_from(g)) {
        (Some(x), Ok(g)) => {
            let q = i128::from(x.unsigned_abs() / g);
            if x < 0 {
                -q
            } else {
                q
            }
        }
        _ => x / g,
    }
}

impl Ratio {
    /// The rational zero.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Creates `num/den`, normalizing sign and reducing to lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Ratio {
        assert!(den != 0, "Ratio with zero denominator");
        let g = gcd(num, den);
        let (mut num, mut den) = (div_exact(num, g), div_exact(den, g));
        if den < 0 {
            num = -num;
            den = -den;
        }
        Ratio { num, den }
    }

    /// `num/den` for a pair already in lowest terms with `den > 0`.
    #[inline]
    fn reduced(num: i128, den: i128) -> Ratio {
        debug_assert!(den > 0 && gcd(num, den) == 1, "{num}/{den} is not reduced");
        Ratio { num, den }
    }

    /// Creates the integer rational `n/1`.
    pub const fn integer(n: i128) -> Ratio {
        Ratio { num: n, den: 1 }
    }

    /// Creates a rational from a `u64` (convenience for data volumes).
    pub fn from_u64(n: u64) -> Ratio {
        Ratio::integer(n as i128)
    }

    /// Numerator (sign-carrying).
    pub fn num(&self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn den(&self) -> i128 {
        self.den
    }

    /// True if the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// True if the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if the value is zero.
    pub fn recip(&self) -> Ratio {
        assert!(self.num != 0, "reciprocal of zero Ratio");
        // Swapping a lowest-terms pair keeps it in lowest terms.
        if self.num < 0 {
            Ratio::reduced(-self.den, -self.num)
        } else {
            Ratio::reduced(self.den, self.num)
        }
    }

    /// Exact ceiling as an integer.
    pub fn ceil(&self) -> i128 {
        if let (Some(num), Some(den)) = (small(self.num), small(self.den)) {
            // `den > 0`: truncation rounds a negative quotient up.
            return i128::from(if num >= 0 {
                (num as u64).div_ceil(den as u64) as i64
            } else {
                num / den
            });
        }
        if self.num >= 0 {
            (self.num + self.den - 1) / self.den
        } else {
            self.num / self.den
        }
    }

    /// Exact floor as an integer.
    pub fn floor(&self) -> i128 {
        if let (Some(num), Some(den)) = (small(self.num), small(self.den)) {
            // `den > 0`: Euclidean division rounds toward negative infinity.
            return i128::from(num.div_euclid(den));
        }
        if self.num >= 0 {
            self.num / self.den
        } else {
            (self.num - self.den + 1) / self.den
        }
    }

    /// Lossy conversion to `f64` (for reporting only, never for scheduling).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// `max(self, other)`.
    pub fn max(self, other: Ratio) -> Ratio {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// `min(self, other)`.
    pub fn min(self, other: Ratio) -> Ratio {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::ZERO
    }
}

impl From<u64> for Ratio {
    fn from(n: u64) -> Ratio {
        Ratio::from_u64(n)
    }
}

impl From<i128> for Ratio {
    fn from(n: i128) -> Ratio {
        Ratio::integer(n)
    }
}

impl Add for Ratio {
    type Output = Ratio;
    fn add(self, rhs: Ratio) -> Ratio {
        if let (Some(a), Some(b), Some(c), Some(d)) = (
            small(self.num),
            small(self.den),
            small(rhs.num),
            small(rhs.den),
        ) {
            // 64-bit operands: every product of two of them, and the sum
            // of two such products, fits in `i128` unchecked.
            let (b, d) = (b as u64, d as u64);
            let g = gcd_u64(b, d);
            let (bg, dg) = (b / g, d / g);
            let num = i128::from(a) * i128::from(dg) + i128::from(c) * i128::from(bg);
            let den = i128::from(bg) * i128::from(d);
            return Ratio::new(num, den);
        }
        // Reduce cross terms first to keep intermediates small.
        let g = gcd(self.den, rhs.den);
        let lcm = (self.den / g)
            .checked_mul(rhs.den)
            .expect("Ratio add overflow");
        Ratio::new(
            self.num
                .checked_mul(lcm / self.den)
                .zip(rhs.num.checked_mul(lcm / rhs.den))
                .and_then(|(a, b)| a.checked_add(b))
                .expect("Ratio add overflow"),
            lcm,
        )
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    fn sub(self, rhs: Ratio) -> Ratio {
        self + (-rhs)
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

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        if let (Some(a), Some(b), Some(c), Some(d)) = (
            small(self.num),
            small(self.den),
            small(rhs.num),
            small(rhs.den),
        ) {
            // Cross-reduced factors of lowest-terms operands leave a
            // lowest-terms product, and two 64-bit factors cannot
            // overflow `i128`.
            let g1 = gcd_u64(a.unsigned_abs(), d as u64);
            let g2 = gcd_u64(c.unsigned_abs(), b as u64);
            let num = div_exact(a.into(), g1.into()) * div_exact(c.into(), g2.into());
            let den = i128::from(b as u64 / g2) * i128::from(d as u64 / g1);
            return Ratio::reduced(num, den);
        }
        // Cross-reduce before multiplying to avoid overflow.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let num = (self.num / g1)
            .checked_mul(rhs.num / g2)
            .expect("Ratio mul overflow");
        let den = (self.den / g2)
            .checked_mul(rhs.den / g1)
            .expect("Ratio mul overflow");
        Ratio::new(num, den)
    }
}

impl Div for Ratio {
    type Output = Ratio;
    // Division by a rational IS multiplication by its reciprocal; the
    // clippy heuristic flags any non-`/` operator inside a Div impl.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Ratio) -> Ratio {
        self * rhs.recip()
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Ratio) -> Ordering {
        // a/b vs c/d (b,d > 0)  <=>  a*d vs c*b
        if let (Some(a), Some(b), Some(c), Some(d)) = (
            small(self.num),
            small(self.den),
            small(other.num),
            small(other.den),
        ) {
            return (i128::from(a) * i128::from(d)).cmp(&(i128::from(c) * i128::from(b)));
        }
        let lhs = self.num.checked_mul(other.den).expect("Ratio cmp overflow");
        let rhs = other.num.checked_mul(self.den).expect("Ratio cmp overflow");
        lhs.cmp(&rhs)
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_to_lowest_terms() {
        let r = Ratio::new(4, 8);
        assert_eq!(r.num(), 1);
        assert_eq!(r.den(), 2);
        let r = Ratio::new(-4, 8);
        assert_eq!(r.num(), -1);
        assert_eq!(r.den(), 2);
        let r = Ratio::new(4, -8);
        assert_eq!(r.num(), -1);
        assert_eq!(r.den(), 2);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Ratio::new(1, 2);
        let b = Ratio::new(1, 3);
        assert_eq!(a + b, Ratio::new(5, 6));
        assert_eq!(a - b, Ratio::new(1, 6));
        assert_eq!(a * b, Ratio::new(1, 6));
        assert_eq!(a / b, Ratio::new(3, 2));
        assert_eq!(-a, Ratio::new(-1, 2));
    }

    #[test]
    fn ceil_floor() {
        assert_eq!(Ratio::new(7, 2).ceil(), 4);
        assert_eq!(Ratio::new(7, 2).floor(), 3);
        assert_eq!(Ratio::new(-7, 2).ceil(), -3);
        assert_eq!(Ratio::new(-7, 2).floor(), -4);
        assert_eq!(Ratio::integer(5).ceil(), 5);
        assert_eq!(Ratio::integer(5).floor(), 5);
        assert_eq!(Ratio::ZERO.ceil(), 0);
    }

    #[test]
    fn ordering() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(-1, 2) < Ratio::ZERO);
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(3, 2).max(Ratio::ONE), Ratio::new(3, 2));
        assert_eq!(Ratio::new(3, 2).min(Ratio::ONE), Ratio::ONE);
    }

    #[test]
    fn recip_and_predicates() {
        assert_eq!(Ratio::new(2, 3).recip(), Ratio::new(3, 2));
        assert!(Ratio::integer(3).is_integer());
        assert!(!Ratio::new(1, 2).is_integer());
        assert!(Ratio::ZERO.is_zero());
        assert!(Ratio::ONE.is_positive());
        assert!(!(-Ratio::ONE).is_positive());
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Ratio::new(3, 2)), "3/2");
        assert_eq!(format!("{}", Ratio::integer(7)), "7");
        assert_eq!(format!("{:?}", Ratio::new(-1, 4)), "-1/4");
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn multiplication_overflow_panics_rather_than_wrapping() {
        // Silent wraparound would corrupt schedules; we prefer a crash.
        let huge = Ratio::new(i128::MAX / 2, 3);
        let _ = huge * huge;
    }

    #[test]
    fn cross_reduction_avoids_spurious_overflow() {
        // (big/7) * (7/big) = 1 without materializing big².
        let big = i128::MAX / 9;
        let a = Ratio::new(big, 7);
        let b = Ratio::new(7, big);
        assert_eq!(a * b, Ratio::ONE);
    }

    #[test]
    fn paper_interval_examples() {
        // Figure 8: WCC max output volume 32; node output volumes 16, 4, 32, 8
        // yield streaming intervals 2, 8, 1, 4.
        let max_o = Ratio::integer(32);
        for (o, s) in [(16, 2), (4, 8), (32, 1), (8, 4)] {
            assert_eq!(max_o / Ratio::integer(o), Ratio::integer(s));
        }
    }
}
