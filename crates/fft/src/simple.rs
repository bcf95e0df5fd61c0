//! The "simple FFT implementation" of Figure 5-12: a recursive radix-2
//! transform transcribed from the thesis' own derivation (§2.3).

use crate::{Complex, FftError};
use streamlin_support::num::log2_exact;
use streamlin_support::Tally;

/// Recursive radix-2 FFT following the thesis derivation.
///
/// The derivation in §2.3 splits the input into even- and odd-indexed halves
/// (`x_even·B`, `x_odd·B`), multiplies the odd half by the diagonal twiddle
/// matrix `D` generated with the recurrence `D[k+1,k+1] = D[k,k]·W_N`
/// (Equation 2.16), and combines with one addition and one subtraction per
/// output pair (Equation 2.17). This implementation mirrors that structure —
/// including regenerating the twiddles by counted multiplication on every
/// call and allocating per recursion level — which is exactly the kind of
/// straightforward implementation the paper compares FFTW against.
///
/// # Examples
///
/// ```
/// use streamlin_fft::{Complex, SimpleFft};
/// use streamlin_support::OpCounter;
///
/// let fft = SimpleFft;
/// let mut ops = OpCounter::new();
/// let x = vec![Complex::one(); 4];
/// let spectrum = fft.forward(&x, &mut ops).unwrap();
/// assert!((spectrum[0].re - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimpleFft;

impl SimpleFft {
    /// Forward DFT of a power-of-two-length signal.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::SizeNotPowerOfTwo`] when `x.len()` is not a
    /// positive power of two.
    pub fn forward<T: Tally>(&self, x: &[Complex], ops: &mut T) -> Result<Vec<Complex>, FftError> {
        if !x.len().is_power_of_two() {
            return Err(FftError::SizeNotPowerOfTwo(x.len()));
        }
        let _ = log2_exact(x.len());
        Ok(fft_rec(x, ops))
    }

    /// Inverse DFT with 1/N normalization, via
    /// `ifft(X) = swap(fft(swap(X)))/N` with `swap(a + ib) = b + ia`: the
    /// conjugations of the textbook identity would be negations, a swap is
    /// none.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::SizeNotPowerOfTwo`] when `x.len()` is not a
    /// positive power of two.
    pub fn inverse<T: Tally>(&self, x: &[Complex], ops: &mut T) -> Result<Vec<Complex>, FftError> {
        let swapped: Vec<Complex> = x.iter().map(|z| Complex::new(z.im, z.re)).collect();
        let mut y = self.forward(&swapped, ops)?;
        let inv_n = 1.0 / x.len() as f64;
        for z in &mut y {
            *z = Complex::new(ops.mul(z.im, inv_n), ops.mul(z.re, inv_n));
        }
        Ok(y)
    }
}

fn fft_rec<T: Tally>(x: &[Complex], ops: &mut T) -> Vec<Complex> {
    let n = x.len();
    if n == 1 {
        return vec![x[0]];
    }
    let even: Vec<Complex> = x.iter().step_by(2).copied().collect();
    let odd: Vec<Complex> = x.iter().skip(1).step_by(2).copied().collect();
    let e = fft_rec(&even, ops);
    let o = fft_rec(&odd, ops);

    let w_n = Complex::root_of_unity(n);
    ops.other(2); // the sin/cos pair generating W_N
    let mut out = vec![Complex::zero(); n];
    // D[0,0] = W_N^0 = 1; D[k+1] = D[k] * W_N   (Equation 2.16)
    let mut d = Complex::one();
    for k in 0..n / 2 {
        let u = o[k].mul_counted(d, ops);
        out[k] = e[k].add_counted(u, ops);
        out[k + n / 2] = e[k].sub_counted(u, ops);
        d = d.mul_counted(w_n, ops);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft_naive;
    use streamlin_support::{NoCount, OpCounter};

    fn assert_spectra_close(a: &[Complex], b: &[Complex]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).abs() < 1e-9, "bin {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_naive_dft() {
        let mut ops = OpCounter::new();
        for log_n in 0..7 {
            let n = 1usize << log_n;
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let got = SimpleFft.forward(&x, &mut ops).unwrap();
            assert_spectra_close(&got, &dft_naive(&x));
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let mut ops = OpCounter::new();
        let x: Vec<Complex> = (0..32)
            .map(|i| Complex::new(i as f64, -(i as f64)))
            .collect();
        let spec = SimpleFft.forward(&x, &mut ops).unwrap();
        let back = SimpleFft.inverse(&spec, &mut ops).unwrap();
        assert_spectra_close(&back, &x);
    }

    #[test]
    fn inverse_swaps_to_the_conjugating_form_bit_for_bit_and_counts_its_closed_form() {
        for log_n in 1..=12 {
            let n = 1usize << log_n;
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin() - 0.1, (i as f64 * 1.7).cos()))
                .collect();
            let mut ops = OpCounter::new();
            let got = SimpleFft.inverse(&x, &mut ops).unwrap();
            // conj(fft(conj(x)))/n, uncounted.
            let conj: Vec<Complex> = x.iter().map(|z| z.conj()).collect();
            let mut want = SimpleFft.forward(&conj, &mut NoCount).unwrap();
            for z in &mut want {
                *z = z.conj().scale_counted(1.0 / n as f64, &mut NoCount);
            }
            for (k, (a, b)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    (a.re.to_bits(), a.im.to_bits()),
                    (b.re.to_bits(), b.im.to_bits()),
                    "n = {n}, bin {k}: {a} vs {b}"
                );
            }
            // Per level, n/2 twiddle products and n/2 twiddle updates
            // (4 multiplications and 2 additions each) and one addition and
            // one subtraction of complex values; a sin/cos pair per call of
            // size ≥ 2; then 2·n multiplications by 1/n. No negation.
            let (n, lg) = (n as u64, log_n as u64);
            assert_eq!(ops.mults(), 4 * n * lg + 2 * n, "n = {n}");
            assert_eq!(ops.adds(), 4 * n * lg, "n = {n}");
            assert_eq!(ops.others(), 2 * (n - 1), "n = {n}");
            assert_eq!(ops.divs(), 0, "n = {n}");
        }
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut ops = OpCounter::new();
        let err = SimpleFft
            .forward(&[Complex::zero(); 6], &mut ops)
            .unwrap_err();
        assert_eq!(err, FftError::SizeNotPowerOfTwo(6));
    }

    #[test]
    fn operation_count_scales_as_n_log_n() {
        // The simple transform performs n complex multiplies per level
        // (n/2 twiddle applications + n/2 twiddle regenerations), i.e.
        // 4·n·lg(n) real multiplications.
        let n = 64;
        let x = vec![Complex::one(); n];
        let mut ops = OpCounter::new();
        SimpleFft.forward(&x, &mut ops).unwrap();
        let expected_mults = 4 * n as u64 * 6; // lg(64) = 6
        assert_eq!(ops.mults(), expected_mults);
    }
}
