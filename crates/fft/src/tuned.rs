//! The tuned, planned FFT — `streamlin`'s FFTW stand-in.

use crate::{Complex, FftError};
use streamlin_support::Tally;

/// A precomputed plan for an iterative radix-2 Cooley-Tukey FFT.
///
/// Like an FFTW plan, construction precomputes everything that does not
/// depend on the data: the bit-reversal permutation and a flat twiddle
/// table. Execution is in-place, allocation-free and skips the trivial
/// `W^0 = 1` twiddle of every butterfly group, so it runs roughly half the
/// multiplications of [`crate::SimpleFft`]; the packed real transform in
/// [`crate::RealFft`] halves them again.
///
/// # Examples
///
/// ```
/// use streamlin_fft::{Complex, FftPlan};
/// use streamlin_support::OpCounter;
///
/// let plan = FftPlan::new(8).unwrap();
/// let mut data = vec![Complex::one(); 8];
/// let mut ops = OpCounter::new();
/// plan.forward(&mut data, &mut ops);
/// assert!((data[0].re - 8.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FftPlan {
    n: usize,
    /// `twiddle[len/2 + j] = e^{-2πi·j/len}` for each stage size `len`.
    twiddle: Vec<Complex>,
    bitrev: Vec<u32>,
    /// Runtime AVX support (checked once; used by the uncounted path).
    use_avx: bool,
}

impl FftPlan {
    /// Plans a transform of size `n`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::SizeNotPowerOfTwo`] unless `n` is a positive
    /// power of two.
    pub fn new(n: usize) -> Result<Self, FftError> {
        if !n.is_power_of_two() {
            return Err(FftError::SizeNotPowerOfTwo(n));
        }
        let mut twiddle = vec![Complex::one(); n.max(1)];
        let mut len = 2;
        while len <= n {
            for j in 0..len / 2 {
                twiddle[len / 2 + j] =
                    Complex::from_polar(-2.0 * std::f64::consts::PI * j as f64 / len as f64);
            }
            len *= 2;
        }
        let bits = n.trailing_zeros();
        let bitrev = (0..n as u32)
            .map(|i| {
                if bits == 0 {
                    0
                } else {
                    i.reverse_bits() >> (32 - bits)
                }
            })
            .collect();
        #[cfg(target_arch = "x86_64")]
        let use_avx = std::arch::is_x86_feature_detected!("avx");
        #[cfg(not(target_arch = "x86_64"))]
        let use_avx = false;
        Ok(FftPlan {
            n,
            twiddle,
            bitrev,
            use_avx,
        })
    }

    /// The transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for the degenerate 0-point plan (which cannot be built).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Bytes of its twiddle and bit-reversal tables, counted from their
    /// lengths.
    pub fn table_bytes(&self) -> usize {
        self.twiddle.len() * std::mem::size_of::<Complex>() + self.bitrev.len() * 4
    }

    /// In-place forward DFT.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the planned size.
    pub fn forward<T: Tally>(&self, data: &mut [Complex], ops: &mut T) {
        assert_eq!(
            data.len(),
            self.n,
            "plan is for size {}, data has {}",
            self.n,
            data.len()
        );
        // Bit-reversal permutation (pure data movement; no FLOPs).
        for i in 0..self.n {
            let j = self.bitrev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        #[cfg(target_arch = "x86_64")]
        if !T::COUNTING && self.use_avx {
            // SAFETY: `use_avx` is only set when runtime detection
            // confirmed the `avx` target feature (see `FftPlan::new`).
            unsafe { self.butterflies_avx(data) };
            return;
        }
        self.butterflies(data, ops);
    }

    /// The scalar butterfly passes, counted through the tally.
    fn butterflies<T: Tally>(&self, data: &mut [Complex], ops: &mut T) {
        let mut len = 2;
        while len <= self.n {
            let half = len / 2;
            let tw = &self.twiddle[half..len];
            let mut start = 0;
            while start < self.n {
                // j == 0: twiddle is exactly 1, skip the multiply.
                let u = data[start];
                let v = data[start + half];
                data[start] = u.add_counted(v, ops);
                data[start + half] = u.sub_counted(v, ops);
                for j in 1..half {
                    let u = data[start + j];
                    let v = data[start + j + half].mul_counted(tw[j], ops);
                    data[start + j] = u.add_counted(v, ops);
                    data[start + j + half] = u.sub_counted(v, ops);
                }
                start += len;
            }
            len *= 2;
        }
    }

    /// The AVX butterfly passes: two butterflies per iteration on 4-wide
    /// registers. Butterflies within a stage are independent and every
    /// complex multiply/add is evaluated with exactly the scalar path's
    /// operations (separate multiplies, `addsub` for the `rr − ii` /
    /// `ri + ir` pair — no fusion), so the spectra are bit-identical to
    /// [`FftPlan::butterflies`]; only the bookkeeping-free uncounted path
    /// dispatches here.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn butterflies_avx(&self, data: &mut [Complex]) {
        use std::arch::x86_64::*;
        let ptr = data.as_mut_ptr() as *mut f64;
        let mut len = 2;
        while len <= self.n {
            let half = len / 2;
            let tw = &self.twiddle[half..len];
            let twp = tw.as_ptr() as *const f64;
            let mut start = 0;
            while start < self.n {
                // j == 0: twiddle is exactly 1, skip the multiply.
                let u = data[start];
                let v = data[start + half];
                data[start] = u + v;
                data[start + half] = u - v;
                if half >= 2 {
                    // j == 1 stays scalar so the vector loop works on
                    // aligned pairs (2, 3), (4, 5), …
                    let u = data[start + 1];
                    let v = data[start + 1 + half] * tw[1];
                    data[start + 1] = u + v;
                    data[start + 1 + half] = u - v;
                    let mut j = 2;
                    while j + 2 <= half {
                        let up = ptr.add(2 * (start + j));
                        let vp = ptr.add(2 * (start + j + half));
                        let u = _mm256_loadu_pd(up);
                        let v = _mm256_loadu_pd(vp);
                        let t = _mm256_loadu_pd(twp.add(2 * j));
                        // z = v · t, elementwise exactly as mul_counted:
                        // (vre·tre − vim·tim, vre·tim + vim·tre).
                        let v_re = _mm256_movedup_pd(v);
                        let v_im = _mm256_permute_pd(v, 0b1111);
                        let t_sw = _mm256_permute_pd(t, 0b0101);
                        let p1 = _mm256_mul_pd(v_re, t);
                        let p2 = _mm256_mul_pd(v_im, t_sw);
                        let z = _mm256_addsub_pd(p1, p2);
                        _mm256_storeu_pd(up, _mm256_add_pd(u, z));
                        _mm256_storeu_pd(vp, _mm256_sub_pd(u, z));
                        j += 2;
                    }
                    // half == 2 ends at j == 2; larger halves are even,
                    // so the pair loop covers everything up to `half`.
                }
                start += len;
            }
            len *= 2;
        }
    }

    /// In-place inverse DFT with 1/N normalization.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the planned size.
    pub fn inverse<T: Tally>(&self, data: &mut [Complex], ops: &mut T) {
        for z in data.iter_mut() {
            *z = z.conj();
        }
        self.forward(data, ops);
        let inv_n = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.conj().scale_counted(inv_n, ops);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dft_naive, SimpleFft};
    use streamlin_support::OpCounter;

    fn assert_spectra_close(a: &[Complex], b: &[Complex]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).abs() < 1e-9, "bin {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_naive_dft() {
        for log_n in 0..8 {
            let n = 1usize << log_n;
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.31).cos(), (i as f64 * 0.17).sin()))
                .collect();
            let plan = FftPlan::new(n).unwrap();
            let mut data = x.clone();
            let mut ops = OpCounter::new();
            plan.forward(&mut data, &mut ops);
            assert_spectra_close(&data, &dft_naive(&x));
        }
    }

    #[test]
    fn matches_simple_fft() {
        let n = 128;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new(i as f64, 0.5 * i as f64))
            .collect();
        let plan = FftPlan::new(n).unwrap();
        let mut tuned = x.clone();
        let mut ops = OpCounter::new();
        plan.forward(&mut tuned, &mut ops);
        let simple = SimpleFft.forward(&x, &mut ops).unwrap();
        assert_spectra_close(&tuned, &simple);
    }

    #[test]
    fn round_trip_is_identity() {
        let n = 64;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i * i) as f64 % 7.0, -(i as f64)))
            .collect();
        let plan = FftPlan::new(n).unwrap();
        let mut data = x.clone();
        let mut ops = OpCounter::new();
        plan.forward(&mut data, &mut ops);
        plan.inverse(&mut data, &mut ops);
        assert_spectra_close(&data, &x);
    }

    #[test]
    fn tuned_uses_fewer_mults_than_simple() {
        let n = 256;
        let x = vec![Complex::one(); n];
        let plan = FftPlan::new(n).unwrap();
        let mut a = x.clone();
        let mut tuned_ops = OpCounter::new();
        plan.forward(&mut a, &mut tuned_ops);
        let mut simple_ops = OpCounter::new();
        SimpleFft.forward(&x, &mut simple_ops).unwrap();
        assert!(
            tuned_ops.mults() * 2 <= simple_ops.mults(),
            "tuned: {} mults, simple: {} mults",
            tuned_ops.mults(),
            simple_ops.mults()
        );
    }

    #[test]
    fn uncounted_path_is_bit_identical_to_counted() {
        use streamlin_support::NoCount;
        // Covers the AVX dispatch (j == 0 / j == 1 scalar edges, pair
        // loop) on machines that have it, and the shared scalar path
        // everywhere else.
        for log_n in 0..10 {
            let n = 1usize << log_n;
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin() * 3.0, (i as f64 * 0.91).cos()))
                .collect();
            let plan = FftPlan::new(n).unwrap();
            let mut counted = x.clone();
            plan.forward(&mut counted, &mut OpCounter::new());
            let mut free = x.clone();
            plan.forward(&mut free, &mut NoCount);
            for (i, (a, b)) in counted.iter().zip(&free).enumerate() {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "n {n} bin {i} re");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "n {n} bin {i} im");
            }
            let mut counted_inv = counted.clone();
            plan.inverse(&mut counted_inv, &mut OpCounter::new());
            let mut free_inv = free.clone();
            plan.inverse(&mut free_inv, &mut NoCount);
            for (a, b) in counted_inv.iter().zip(&free_inv) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn rejects_non_power_of_two() {
        assert_eq!(
            FftPlan::new(12).unwrap_err(),
            FftError::SizeNotPowerOfTwo(12)
        );
        assert_eq!(FftPlan::new(0).unwrap_err(), FftError::SizeNotPowerOfTwo(0));
    }

    #[test]
    #[should_panic]
    fn size_mismatch_panics() {
        let plan = FftPlan::new(8).unwrap();
        let mut data = vec![Complex::zero(); 4];
        plan.forward(&mut data, &mut OpCounter::new());
    }
}
