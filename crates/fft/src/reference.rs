//! Quadratic-time reference DFT (Equation 2.5 of the paper), used as the
//! correctness oracle for both FFT tiers.

use crate::Complex;

/// Direct evaluation of the `N`-point DFT, `X[k] = Σ_n x[n]·W_N^{nk}`
/// (paper Equation 2.5). O(N²); testing and calibration only.
///
/// It is built to be more accurate than the transforms it checks: the
/// exponent `n·k` is reduced modulo `N` before any rounding, each twiddle
/// comes from an angle of at most π, and the sums are compensated
/// (Neumaier), so an output's error is a few units in the last place of
/// the terms rather than growing with `N`.
///
/// # Examples
///
/// ```
/// use streamlin_fft::{dft_naive, Complex};
/// let x = vec![Complex::one(); 4];
/// let spectrum = dft_naive(&x);
/// assert!((spectrum[0].re - 4.0).abs() < 1e-12);
/// assert!(spectrum[1].abs() < 1e-12);
/// ```
pub fn dft_naive(x: &[Complex]) -> Vec<Complex> {
    let n = x.len();
    // W_N^r for r < N, from the angle -2π·r/N or, past the half, as the
    // conjugate of W_N^{N-r}.
    let w: Vec<Complex> = (0..n)
        .map(|r| {
            let near = r.min(n - r);
            let z = Complex::from_polar(-2.0 * std::f64::consts::PI * near as f64 / n as f64);
            if near == r {
                z
            } else {
                z.conj()
            }
        })
        .collect();
    (0..n)
        .map(|k| {
            let (mut re, mut im) = (Compensated::default(), Compensated::default());
            for (j, &xj) in x.iter().enumerate() {
                let t = xj * w[(j * k) % n];
                re.add(t.re);
                im.add(t.im);
            }
            Complex::new(re.total(), im.total())
        })
        .collect()
}

/// Neumaier's compensated sum: the running sum plus the rounding error
/// each addition committed.
#[derive(Default)]
struct Compensated {
    sum: f64,
    lost: f64,
}

impl Compensated {
    fn add(&mut self, v: f64) {
        let t = self.sum + v;
        self.lost += if self.sum.abs() >= v.abs() {
            (self.sum - t) + v
        } else {
            (v - t) + self.sum
        };
        self.sum = t;
    }

    fn total(&self) -> f64 {
        self.sum + self.lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![Complex::zero(); 8];
        x[0] = Complex::one();
        for bin in dft_naive(&x) {
            assert!((bin - Complex::one()).abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 16;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::from_polar(2.0 * std::f64::consts::PI * 3.0 * i as f64 / n as f64))
            .collect();
        let spec = dft_naive(&x);
        for (k, bin) in spec.iter().enumerate() {
            if k == 3 {
                assert!((bin.re - n as f64).abs() < 1e-9);
            } else {
                assert!(bin.abs() < 1e-9, "leakage in bin {k}: {bin}");
            }
        }
    }
}
