//! Both real transforms held to a computed forward-error bound instead of
//! a hand-set tolerance.
//!
//! Higham, *Accuracy and Stability of Numerical Algorithms* (2nd ed.),
//! Theorem 24.2: a radix-2-class FFT of `lg n` levels whose twiddles are
//! each within `μ` of the exact roots of unity computes `ŷ` with
//!
//! ```text
//! ‖ŷ − y‖₂ ≤ lg n·η / (1 − lg n·η) · ‖y‖₂,   η = μ + γ₄·(√2 + μ),
//! γ₄ = 4u / (1 − 4u),   u = 2⁻⁵³,   ‖y‖₂ = √n·‖x‖₂.
//! ```
//!
//! The packed real transform is an `n/2`-point complex transform (`lg n −
//! 1` levels) plus one unpack level, so `lg n` levels in all. Its twiddles
//! come from `from_polar` of an angle of at most `3π/2` that carries two
//! roundings, so each is within `μ = 15u` (`√2·(2u·3π/2 + u)`, rounded up;
//! `sin`/`cos` within one ulp). [`crate::SimpleFft`] regenerates its
//! twiddles by the recurrence `D[k+1] = D[k]·W_N` (Equation 2.16), whose
//! error grows by one complex product per step: `μ = (n/2)·6u`. A round
//! trip applies the bound twice: `‖x̂ − x‖₂ ≤ (2ε + ε²)·‖x‖₂`.
//!
//! The reference is [`dft_naive`], whose own error is a few `u` (it reduces
//! exponents modulo `n` and sums with compensation). Measured errors sit
//! at 1–2 % of the bound on both kinds; one core twiddle perturbed by 1e-9
//! relative puts the tuned transform at 500–18 000 times it, at every size
//! from 32 to 4096.

use crate::{dft_naive, Complex, FftKind, RealFft};
use streamlin_support::NoCount;

const U: f64 = f64::EPSILON / 2.0;

/// `γ_k = k·u / (1 − k·u)`.
fn gamma(k: f64) -> f64 {
    k * U / (1.0 - k * U)
}

/// Twiddle accuracy `μ` of a transform of size `n` (see the module docs).
fn twiddle_error(kind: FftKind, n: usize) -> f64 {
    match kind {
        FftKind::Tuned => 15.0 * U,
        FftKind::Simple => n as f64 / 2.0 * 6.0 * U,
    }
}

/// Higham's relative bound `ε = lg n·η / (1 − lg n·η)`.
fn relative_bound(kind: FftKind, n: usize) -> f64 {
    let levels = f64::from(n.trailing_zeros());
    let mu = twiddle_error(kind, n);
    let eta = mu + gamma(4.0) * (std::f64::consts::SQRT_2 + mu);
    levels * eta / (1.0 - levels * eta)
}

fn norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// The 2-norm of the full spectrum a half-complex array stands for: the
/// bins `1..n/2` appear once here and twice there.
fn halfcomplex_norm(hc: &[f64]) -> f64 {
    let n = hc.len();
    let m = n / 2;
    if n == 1 {
        return hc[0].abs();
    }
    let inner: f64 = (1..m).map(|k| hc[k] * hc[k] + hc[n - k] * hc[n - k]).sum();
    (hc[0] * hc[0] + hc[m] * hc[m] + 2.0 * inner).sqrt()
}

/// A fixed pseudo-random signal in `[-1, 1)`.
fn signal(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
        .collect()
}

/// `‖ŷ − y‖₂ / (ε·‖y‖₂)` for the forward transform of `x`, `y` from
/// [`dft_naive`]: at most 1 when the transform keeps the bound.
fn forward_error_ratio(fft: &RealFft, x: &[f64]) -> f64 {
    let n = x.len();
    let got = fft.forward(x, &mut NoCount);
    let full: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
    let want = dft_naive(&full);
    let diff: Vec<f64> = (0..n)
        .map(|i| {
            let (k, part) = if i <= n / 2 { (i, 0) } else { (n - i, 1) };
            got[i] - [want[k].re, want[k].im][part]
        })
        .collect();
    let y_norm = (n as f64).sqrt() * norm(x);
    halfcomplex_norm(&diff) / (relative_bound(fft.kind(), n) * y_norm)
}

/// `‖x̂ − x‖₂ / ((2ε + ε²)·‖x‖₂)` for `x̂ = inverse(forward(x))`.
fn round_trip_error_ratio(fft: &RealFft, x: &[f64]) -> f64 {
    let back = fft.inverse(&fft.forward(x, &mut NoCount), &mut NoCount);
    let diff: Vec<f64> = back.iter().zip(x).map(|(a, b)| a - b).collect();
    let eps = relative_bound(fft.kind(), x.len());
    norm(&diff) / ((2.0 * eps + eps * eps) * norm(x))
}

fn powers_of_two(from: usize, to: usize) -> impl Iterator<Item = usize> {
    (from.trailing_zeros()..=to.trailing_zeros()).map(|b| 1usize << b)
}

#[test]
fn both_kinds_keep_highams_bound() {
    for kind in [FftKind::Simple, FftKind::Tuned] {
        for n in powers_of_two(2, 4096) {
            let fft = RealFft::new(kind, n).unwrap();
            for seed in 1..=3 {
                let x = signal(n, seed);
                if n <= 1024 {
                    let r = forward_error_ratio(&fft, &x);
                    assert!(
                        r <= 1.0,
                        "{kind:?} n {n} seed {seed}: forward at {r} of the bound"
                    );
                }
                let r = round_trip_error_ratio(&fft, &x);
                assert!(
                    r <= 1.0,
                    "{kind:?} n {n} seed {seed}: round trip at {r} of the bound"
                );
            }
        }
    }
}

#[test]
fn a_twiddle_off_by_1e_9_breaks_the_bound() {
    // The `W^{3k}` twiddle of the top-level butterfly at k = 1 of the
    // n/2-point core: a general product from n = 32 on.
    for n in powers_of_two(32, 4096) {
        let m = n / 2;
        let fft = RealFft::with_twiddle_error(n, 3 * m / 4 + 1, 1e-9);
        let x = signal(n, 1);
        if n <= 1024 {
            let r = forward_error_ratio(&fft, &x);
            assert!(r > 1.0, "n {n}: a perturbed twiddle kept the bound ({r})");
        }
        let r = round_trip_error_ratio(&fft, &x);
        assert!(
            r > 1.0,
            "n {n}: a perturbed twiddle kept the round trip's bound ({r})"
        );
    }
}
