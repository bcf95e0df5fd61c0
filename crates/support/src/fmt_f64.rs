//! Shortest round-trip decimal text for `f64`, without `std::fmt`.
//!
//! [`write`] appends exactly the bytes `format!("{v}")` would: the
//! shortest digit string that parses back to the same bits (of two
//! equally short candidates the closer one, an exact tie rounded up),
//! laid out positionally — never an exponent — with `-0` for negative
//! zero and `NaN`/`inf`/`-inf` for the non-finite values. The contract is
//! byte identity with std for every `f64`; `tests::matches_std_*` hold it
//! over millions of seeded values and the known boundary cases, so no
//! golden file, CLI line, trace or wire byte depends on which of the two
//! printed it.
//!
//! The digits come from Schubfach (Giulietti, *The Schubfach way to
//! render doubles*): the value and its two rounding boundaries are each
//! scaled by one power of ten with a single 64 × 128-bit multiply whose
//! discarded bits are folded into a sticky bit, after which choosing the
//! shortest decimal inside the rounding interval is integer comparisons.
//! The powers of ten are a `const` table ([`pow10`]), so nothing is built
//! at start-up and nothing is locked on the way to a digit.

mod pow10;

use pow10::{POW10, POW10_MIN};

const FRACTION_BITS: u32 = 52;
const FRACTION_MASK: u64 = (1 << FRACTION_BITS) - 1;
const EXPONENT_MASK: u64 = 0x7ff;
/// The exponent of the least significant fraction bit of a normal value
/// whose biased exponent is 0.
const EXPONENT_BIAS: i32 = 1075;

/// `floor(log10(2^e))`, or with `three_quarters` `floor(log10(3/4 · 2^e))`,
/// for `|e| <= 1500`.
fn floor_log10_pow2(e: i32, three_quarters: bool) -> i32 {
    (e * 1_262_611 - if three_quarters { 524_031 } else { 0 }) >> 22
}

/// `floor(log2(10^e))` for `|e| <= 1233`.
fn floor_log2_pow10(e: i32) -> i32 {
    (e * 1_741_647) >> 19
}

/// The integer part of `cp · g / 2^128`, with its lowest bit set when
/// bits were discarded: comparisons against multiples of 2 stay exact.
fn round_to_odd((hi, lo): (u64, u64), cp: u64) -> u64 {
    let x = u128::from(cp) * u128::from(lo);
    let y = u128::from(cp) * u128::from(hi) + (x >> 64);
    ((y >> 64) as u64) | u64::from(y as u64 > 1)
}

/// The shortest `(digits, exp)` with `digits · 10^exp` inside the
/// rounding interval of the finite non-zero value with these fields.
/// `digits` may end in zeros.
fn shortest(fraction: u64, biased_exp: i32) -> (u64, i32) {
    let (c, q) = if biased_exp != 0 {
        (fraction | (1 << FRACTION_BITS), biased_exp - EXPONENT_BIAS)
    } else {
        (fraction, 1 - EXPONENT_BIAS)
    };
    // An even significand's interval includes its end points (ties on
    // parsing round to even). At a power of two the value below is half
    // as far away as the value above.
    let inclusive = c & 1 == 0;
    let lower_closer = fraction == 0 && biased_exp > 1;
    let cbl = 4 * c - 2 + u64::from(lower_closer);
    let cb = 4 * c;
    let cbr = 4 * c + 2;

    let k = floor_log10_pow2(q, lower_closer);
    let h = q + floor_log2_pow10(-k) + 1;
    let g = POW10[(-k - POW10_MIN) as usize];
    let vbl = round_to_odd(g, cbl << h);
    let vb = round_to_odd(g, cb << h);
    let vbr = round_to_odd(g, cbr << h);
    let lower = vbl + u64::from(!inclusive);
    let upper = vbr - u64::from(!inclusive);

    // One digit fewer, if a multiple of 10^(k+1) lies in the interval (it
    // is narrower than 10^(k+1), so at most one does).
    let s = vb / 4;
    if s >= 10 {
        let sp = s / 10;
        let down_inside = lower <= 40 * sp;
        let up_inside = 40 * sp + 40 <= upper;
        if down_inside != up_inside {
            return (sp + u64::from(up_inside), k + 1);
        }
    }
    // Otherwise whichever neighbouring multiple of 10^k is inside; when
    // both are, the closer one, an exact tie going up as std's does.
    let down_inside = lower <= 4 * s;
    let up_inside = 4 * s + 4 <= upper;
    let round_up = if down_inside != up_inside {
        up_inside
    } else {
        vb >= 4 * s + 2
    };
    (s + u64::from(round_up), k)
}

const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Writes the two digits of `n < 100` into `buf[at - 2..at]`.
fn put_pair(buf: &mut [u8], at: usize, n: u64) -> usize {
    let i = n as usize * 2;
    buf[at - 2..at].copy_from_slice(&DIGIT_PAIRS[i..i + 2]);
    at - 2
}

/// Writes `n` in decimal so that it ends at `buf[at - 1]`; returns where
/// it starts.
fn put_int(buf: &mut [u8], mut at: usize, mut n: u64) -> usize {
    while n >= 100 {
        at = put_pair(buf, at, n % 100);
        n /= 100;
    }
    if n >= 10 {
        put_pair(buf, at, n)
    } else {
        buf[at - 1] = b'0' + n as u8;
        at - 1
    }
}

/// The safe append: checking at most [`NEAR`] bytes costs about 3 ns a
/// number, below what any end-to-end metric resolves, so there is no
/// `unsafe` here to save it.
fn push_ascii(out: &mut String, bytes: &[u8]) {
    out.push_str(std::str::from_utf8(bytes).expect("ASCII digits, sign and point"));
}

/// The longest text assembled on the stack: a sign, up to 17 integer
/// digits, the point and `FAR_FRACTION` fractional digits.
const NEAR: usize = 64;
/// From this many fractional digits on (values below about 1e-27) the
/// text is written in pieces by [`write_far`].
const FAR_FRACTION: usize = NEAR - 19;

/// Appends `v` exactly as `format!("{v}")` spells it; see the module
/// documentation for the contract.
pub fn write(out: &mut String, v: f64) {
    let bits = v.to_bits();
    let negative = bits >> 63 != 0;
    let biased_exp = ((bits >> FRACTION_BITS) & EXPONENT_MASK) as i32;
    let fraction = bits & FRACTION_MASK;
    if biased_exp == EXPONENT_MASK as i32 {
        out.push_str(match (fraction != 0, negative) {
            (true, _) => "NaN",
            (false, false) => "inf",
            (false, true) => "-inf",
        });
        return;
    }
    let (mut digits, mut exp) = if biased_exp == 0 && fraction == 0 {
        (0, 0)
    } else {
        shortest(fraction, biased_exp)
    };
    while exp < 0 && digits % 10 == 0 {
        digits /= 10;
        exp += 1;
    }
    let fraction_digits = exp.min(0).unsigned_abs() as usize;
    if exp > 0 || fraction_digits >= FAR_FRACTION {
        return write_far(out, negative, digits, exp);
    }
    // Backwards from the end of the buffer: the fractional digits (zeros
    // once `digits` runs out, which is how 0.00123 gets its leading ones),
    // the point, the integer part, the sign.
    let mut buf = [0u8; NEAR];
    let mut at = NEAR;
    let mut left = fraction_digits;
    while left >= 2 {
        at = put_pair(&mut buf, at, digits % 100);
        digits /= 100;
        left -= 2;
    }
    if left == 1 {
        at -= 1;
        buf[at] = b'0' + (digits % 10) as u8;
        digits /= 10;
    }
    if fraction_digits > 0 {
        at -= 1;
        buf[at] = b'.';
    }
    at = put_int(&mut buf, at, digits);
    if negative {
        at -= 1;
        buf[at] = b'-';
    }
    push_ascii(out, &buf[at..]);
}

/// The spellings that do not fit the stack buffer: integers of 2^53 and
/// above that end in written-out zeros, and values so small that zeros
/// fill the space between the point and the first digit.
fn write_far(out: &mut String, negative: bool, digits: u64, exp: i32) {
    let mut buf = [0u8; 20];
    let at = put_int(&mut buf, 20, digits);
    if negative {
        out.push('-');
    }
    let zeros = |n: usize| std::iter::repeat_n('0', n);
    if exp >= 0 {
        push_ascii(out, &buf[at..]);
        out.extend(zeros(exp as usize));
    } else {
        out.push_str("0.");
        out.extend(zeros(exp.unsigned_abs() as usize - (20 - at)));
        push_ascii(out, &buf[at..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(v: f64) -> String {
        let mut s = String::new();
        write(&mut s, v);
        s
    }

    /// Byte-equal to std, and (for finite values) parses back to the bits.
    fn check(v: f64) {
        let ours = text(v);
        assert_eq!(ours, format!("{v}"), "bits {:#018x}", v.to_bits());
        if v.is_finite() {
            let back: f64 = ours.parse().expect("parses");
            assert_eq!(back.to_bits(), v.to_bits(), "{ours} does not round-trip");
        }
    }

    /// SplitMix64: seeded, so a failure names a reproducible value.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn matches_std_on_random_bit_patterns() {
        let mut rng = Rng(0x5eed_0f64);
        for _ in 0..2_000_000 {
            check(f64::from_bits(rng.next()));
        }
    }

    #[test]
    fn matches_std_on_ordinary_magnitudes() {
        // What programs print: a few significant digits up to all of
        // them, 1e-20 to 1e20, both signs.
        let mut rng = Rng(0x0d16_1715);
        for _ in 0..1_000_000 {
            let r = rng.next();
            let unit = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
            let magnitude = 10f64.powi((r % 41) as i32 - 20);
            let v = match (r >> 8) % 4 {
                0 => unit * magnitude,
                1 => (unit * 1e4).round() / 1e4 * magnitude,
                2 => ((unit * 2e6) as i64 - 1_000_000) as f64,
                _ => -(unit * magnitude),
            };
            check(v);
        }
    }

    #[test]
    #[allow(clippy::excessive_precision)] // the spellings are the point
    fn matches_std_on_boundaries() {
        let mut cases = vec![
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            2.2250738585072009e-308, // the largest subnormal
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            9007199254740992.0, // 2^53
            9007199254740993.0, // rounds to 2^53 on the way in
            9007199254740994.0,
            1.8446744073709552e19, // 2^64
            // Exact .5 ties between two shortest candidates.
            268546177126514.625,
            34133471261545.3125,
            0.3,
            0.1 + 0.2,
            1.0 / 3.0,
            123_456_789.123_456_78,
            1e-27,
            1.2345678901234567e-27,
            1e-28,
            1.2345678901234567e-28,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for e in -30..=30 {
            cases.push(10f64.powi(e));
            cases.push(-(10f64.powi(e)));
        }
        for digits in [
            "1e15", "1e16", "1e17", "1e18", "1e19", "1e20", "1e21", "1e22", "1e23",
        ] {
            cases.push(digits.parse().unwrap());
        }
        // Every power of two (the value below is closer than the one
        // above), with both neighbours.
        let subnormal = (0..52).map(|i| 1u64 << i);
        let normal = (1..0x7ffu64).map(|biased| biased << 52);
        for bits in subnormal.chain(normal) {
            for bits in [bits - 1, bits, bits + 1] {
                cases.push(f64::from_bits(bits));
            }
        }
        // Ties by construction: 15 integer digits and an odd number of
        // eighths are 18 digits ending in 5, and both 17-digit
        // neighbours lie inside the rounding interval (half of 2^-5).
        let mut rng = Rng(0x71e5);
        for _ in 0..20_000 {
            let whole = (1u64 << 47) + rng.next() % (1u64 << 47);
            let eighths = (rng.next() % 4 * 2 + 1) as f64 / 8.0;
            cases.push(whole as f64 + eighths);
        }
        // Integers of every width up to 2^53, and the same with their low
        // decimal digits zeroed (those are spelled with written-out zeros).
        for _ in 0..20_000 {
            let n = (rng.next() >> 11) >> (rng.next() % 53);
            let round = 10u64.pow((rng.next() % 16) as u32);
            cases.push(n as f64);
            cases.push(-((n / round * round) as f64));
        }
        // Every exponent, smallest and largest significand.
        for biased in 0..0x7ffu64 {
            cases.push(f64::from_bits(biased << 52 | 1));
            cases.push(f64::from_bits(biased << 52 | FRACTION_MASK));
        }
        for v in cases {
            check(v);
        }
        assert_eq!(text(-0.0), "-0");
        assert_eq!(text(268546177126514.625), "268546177126514.63");
        assert_eq!(text(1e23), "100000000000000000000000");
        assert_eq!(text(5e-324).len(), 2 + 323 + 1);
    }

    #[test]
    fn appends_without_disturbing_what_is_there() {
        let mut s = String::from("x=");
        write(&mut s, -1.5);
        write(&mut s, 2.0);
        assert_eq!(s, "x=-1.52");
    }

    /// A little-endian big natural number, enough of one to regenerate
    /// the table: `× 10`, `÷ 10` and a look at the top 128 bits.
    struct Big(Vec<u32>);
    impl Big {
        fn pow2(e: usize) -> Big {
            let mut limbs = vec![0; e / 32 + 1];
            limbs[e / 32] = 1 << (e % 32);
            Big(limbs)
        }
        fn mul10(&mut self) {
            let mut carry = 0u64;
            for limb in &mut self.0 {
                let t = u64::from(*limb) * 10 + carry;
                *limb = t as u32;
                carry = t >> 32;
            }
            if carry != 0 {
                self.0.push(carry as u32);
            }
        }
        fn div10(&mut self) {
            let mut rem = 0u64;
            for limb in self.0.iter_mut().rev() {
                let t = rem << 32 | u64::from(*limb);
                *limb = (t / 10) as u32;
                rem = t % 10;
            }
            while self.0.last() == Some(&0) {
                self.0.pop();
            }
        }
        fn bit(&self, i: usize) -> bool {
            self.0.get(i / 32).is_some_and(|l| l >> (i % 32) & 1 == 1)
        }
        fn bits(&self) -> usize {
            let top = *self.0.last().expect("non-zero");
            self.0.len() * 32 - top.leading_zeros() as usize
        }
        /// The value scaled into `[2^127, 2^128)` and truncated, and
        /// whether anything was cut off.
        fn top128(&self) -> (u128, bool) {
            let len = self.bits();
            let mut top = 0u128;
            for i in 0..128 {
                let set = len + i >= 128 && self.bit(len + i - 128);
                top |= u128::from(set) << i;
            }
            let cut = (0..len.saturating_sub(128)).any(|i| self.bit(i));
            (top, cut)
        }
    }

    #[test]
    fn table_matches_exact_arithmetic() {
        let entry = |k: i32| {
            let (hi, lo) = POW10[(k - POW10_MIN) as usize];
            u128::from(hi) << 64 | u128::from(lo)
        };
        assert_eq!(POW10.len() as i32, 324 - POW10_MIN + 1);
        // Upward from 10^0, exactly.
        let mut p = Big(vec![1]);
        for k in 0..=324 {
            let (top, cut) = p.top128();
            assert_eq!(entry(k), top + u128::from(cut), "10^{k}");
            p.mul10();
        }
        // Downward: floor(2^1200 / 10^k) by repeated division. No power
        // of ten divides a power of two, so every entry rounds up.
        let mut p = Big::pow2(1200);
        for k in 1..=-POW10_MIN {
            p.div10();
            let (top, _) = p.top128();
            assert_eq!(entry(-k), top + 1, "10^-{k}");
        }
    }
}
