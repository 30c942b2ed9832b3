//! Property-based tests for exact rational arithmetic: field axioms,
//! ordering consistency, and ceiling/floor laws — the foundations the
//! streaming-interval computations rest on — and an oracle check of the
//! 64-bit fast paths against plain `i128` arithmetic.

use std::cmp::Ordering;
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use stg_graph::Ratio;

fn ratio() -> impl Strategy<Value = Ratio> {
    // Numerators/denominators in the range real volumes produce.
    (-1_000_000i128..1_000_000, 1i128..1_000_000).prop_map(|(n, d)| Ratio::new(n, d))
}

proptest! {
    #[test]
    fn add_commutes(a in ratio(), b in ratio()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn add_associates(a in ratio(), b in ratio(), c in ratio()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn mul_commutes(a in ratio(), b in ratio()) {
        prop_assert_eq!(a * b, b * a);
    }

    #[test]
    fn mul_distributes(a in ratio(), b in ratio(), c in ratio()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn sub_is_add_neg(a in ratio(), b in ratio()) {
        prop_assert_eq!(a - b, a + (-b));
    }

    #[test]
    fn div_inverts_mul(a in ratio(), b in ratio()) {
        prop_assume!(!b.is_zero());
        prop_assert_eq!(a * b / b, a);
    }

    #[test]
    fn recip_involutes(a in ratio()) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a.recip().recip(), a);
    }

    #[test]
    fn normalized_gcd_is_one(a in ratio()) {
        let g = {
            let (mut x, mut y) = (a.num().abs(), a.den());
            while y != 0 {
                let t = x % y;
                x = y;
                y = t;
            }
            x
        };
        prop_assert!(a.num() == 0 || g == 1, "not in lowest terms: {a:?}");
        prop_assert!(a.den() > 0);
    }

    #[test]
    fn ceil_floor_bracket(a in ratio()) {
        let c = a.ceil();
        let f = a.floor();
        prop_assert!(Ratio::integer(f) <= a && a <= Ratio::integer(c));
        prop_assert!(c - f <= 1);
        if a.is_integer() {
            prop_assert_eq!(c, f);
        }
    }

    #[test]
    fn ordering_consistent_with_subtraction(a in ratio(), b in ratio()) {
        prop_assert_eq!(a < b, (b - a).is_positive());
        prop_assert_eq!(a == b, (a - b).is_zero());
    }

    #[test]
    fn max_min_are_ordered(a in ratio(), b in ratio()) {
        prop_assert!(a.max(b) >= a.min(b));
        prop_assert_eq!(a.max(b) + a.min(b), a + b);
    }

    #[test]
    fn to_f64_close(a in ratio()) {
        let f = a.to_f64();
        let back = a.num() as f64 / a.den() as f64;
        prop_assert!((f - back).abs() < 1e-9);
    }
}

/// Reference rational arithmetic on `(num, den)` pairs: `i128` Euclid gcd
/// and checked products throughout, no fast path. `None` means the exact
/// result needs more than `i128` intermediates.
mod reference {
    use std::cmp::Ordering;

    pub type Pair = (i128, i128);

    fn gcd(mut a: i128, mut b: i128) -> i128 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a.abs()
    }

    pub fn new(num: i128, den: i128) -> Pair {
        let g = gcd(num, den);
        let (num, den) = (num / g, den / g);
        if den < 0 {
            (-num, -den)
        } else {
            (num, den)
        }
    }

    pub fn add((a, b): Pair, (c, d): Pair) -> Option<Pair> {
        let g = gcd(b, d);
        let lcm = (b / g).checked_mul(d)?;
        let num = a
            .checked_mul(lcm / b)?
            .checked_add(c.checked_mul(lcm / d)?)?;
        Some(new(num, lcm))
    }

    pub fn mul((a, b): Pair, (c, d): Pair) -> Option<Pair> {
        let (g1, g2) = (gcd(a, d), gcd(c, b));
        let num = (a / g1).checked_mul(c / g2)?;
        let den = (b / g2).checked_mul(d / g1)?;
        Some(new(num, den))
    }

    pub fn cmp((a, b): Pair, (c, d): Pair) -> Option<Ordering> {
        Some(a.checked_mul(d)?.cmp(&c.checked_mul(b)?))
    }

    pub fn ceil((a, b): Pair) -> i128 {
        a.div_euclid(b) + i128::from(a.rem_euclid(b) != 0)
    }

    pub fn floor((a, b): Pair) -> i128 {
        a.div_euclid(b)
    }
}

/// Integers around the edges of the 64-bit fast paths: zero, ±2^31,
/// 2^32, 2^63 and 2^64, each nudged by a few units, plus arbitrary
/// 64-bit values.
fn edge_int() -> impl Strategy<Value = i128> {
    let near = (0usize..5, -3i128..=3, any::<bool>()).prop_map(|(k, delta, neg)| {
        let base = [0, 1i128 << 31, 1i128 << 32, 1i128 << 63, 1i128 << 64][k];
        if neg {
            -(base + delta)
        } else {
            base + delta
        }
    });
    prop_oneof![
        near,
        any::<i64>().prop_map(i128::from),
        any::<u64>().prop_map(i128::from),
    ]
}

fn edge_ratio() -> impl Strategy<Value = (Ratio, reference::Pair)> {
    (edge_int(), edge_int()).prop_map(|(n, d)| {
        let d = if d == 0 { 1 } else { d };
        (Ratio::new(n, d), reference::new(n, d))
    })
}

fn pair(r: Ratio) -> reference::Pair {
    (r.num(), r.den())
}

/// Runs `op`, mapping a panic to `None`. The expected overflow panics
/// are kept off stderr; any other panic still reports.
fn checked<T>(op: impl FnOnce() -> T) -> Option<T> {
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let report = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let text = info.to_string();
            if !(text.contains("Ratio") && text.contains("overflow")) {
                report(info);
            }
        }));
    });
    catch_unwind(AssertUnwindSafe(op)).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn fast_paths_equal_i128_reference(
        (a, ra) in edge_ratio(),
        (b, rb) in edge_ratio(),
    ) {
        prop_assert_eq!(pair(a), ra);
        prop_assert_eq!(a.ceil(), reference::ceil(ra));
        prop_assert_eq!(a.floor(), reference::floor(ra));
        // Each operation equals the reference where the reference fits,
        // and panics (never wraps) where it overflows.
        prop_assert_eq!(checked(|| pair(a + b)), reference::add(ra, rb));
        prop_assert_eq!(checked(|| pair(a * b)), reference::mul(ra, rb));
        prop_assert_eq!(checked(|| a.cmp(&b)), reference::cmp(ra, rb));
        prop_assert_eq!(
            checked(|| pair(a - b)),
            reference::add(ra, (-rb.0, rb.1))
        );
        if ra.0 != 0 {
            let inv = if ra.0 < 0 { (-ra.1, -ra.0) } else { (ra.1, ra.0) };
            prop_assert_eq!(pair(a.recip()), inv);
            prop_assert_eq!(checked(|| pair(b / a)), reference::mul(rb, inv));
        }
        if checked(|| a.cmp(&b)).is_some() {
            prop_assert_eq!(a == b, a.cmp(&b) == Ordering::Equal);
        }
    }
}
