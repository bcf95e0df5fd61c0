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
        self.forward_bitreversed(data, ops);
    }

    /// Where each index goes before the butterflies: `bitrev[k]` is `k`
    /// with its `lg n` bits reversed.
    pub(crate) fn bitrev(&self) -> &[u32] {
        &self.bitrev
    }

    /// [`Self::forward`] on data already in bit-reversed order: the
    /// butterflies alone. The packed real transforms write their input
    /// there directly, so they skip the permutation.
    pub(crate) fn forward_bitreversed<T: Tally>(&self, data: &mut [Complex], ops: &mut T) {
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

    /// The AVX butterfly passes. Stages 1 and 2 run as one pass over
    /// 4-point blocks; the stages after them run two at a time, each pass
    /// over `2·len`-point blocks, where the four points `j`, `j + len/2`,
    /// `j + len`, `j + 3·len/2` go through both stages in registers, two
    /// values of `j` per iteration on 4-wide registers (a lone last stage
    /// runs by itself). Butterflies within a stage are independent and
    /// every complex multiply/add is evaluated with exactly the scalar
    /// path's operations (separate multiplies, `addsub` for the `rr − ii`
    /// / `ri + ir` pair — no fusion; `j == 0` skips its multiply), so the
    /// spectra are bit-identical to [`FftPlan::butterflies`]; only the
    /// bookkeeping-free uncounted path dispatches here.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn butterflies_avx(&self, data: &mut [Complex]) {
        let n = self.n;
        if n == 2 {
            let (u, v) = (data[0], data[1]);
            data[0] = u + v;
            data[1] = u - v;
        }
        if n < 4 {
            return;
        }
        // Stage 1 (len 2) and stage 2 (len 4, whose `j == 1` twiddle is
        // `twiddle[3]`) of each 4-point block.
        let w = self.twiddle[3];
        for b in data.chunks_exact_mut(4) {
            let (s0, d0) = (b[0] + b[1], b[0] - b[1]);
            let (s1, d1) = (b[2] + b[3], b[2] - b[3]);
            let v = d1 * w;
            b[0] = s0 + s1;
            b[2] = s0 - s1;
            b[1] = d0 + v;
            b[3] = d0 - v;
        }
        let mut len = 8;
        while 2 * len <= n {
            self.two_stages_avx(data, len);
            len *= 4;
        }
        if len <= n {
            self.stage_avx(data, len);
        }
    }

    /// One butterfly stage of size `len` (`len >= 8`), two butterflies per
    /// iteration.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn stage_avx(&self, data: &mut [Complex], len: usize) {
        let half = len / 2;
        let tw = &self.twiddle[half..len];
        for block in data.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(half);
            // j == 0: twiddle is exactly 1, skip the multiply.
            let (u, v) = (lo[0], hi[0]);
            lo[0] = u + v;
            hi[0] = u - v;
            // j == 1 stays scalar so the vector loop works on aligned
            // pairs (2, 3), (4, 5), …; `half` is even, so the pairs end at
            // `half`.
            let (u, v) = (lo[1], hi[1] * tw[1]);
            lo[1] = u + v;
            hi[1] = u - v;
            let (lp, hp) = (lo.as_mut_ptr() as *mut f64, hi.as_mut_ptr() as *mut f64);
            let twp = tw.as_ptr() as *const f64;
            // `j + 1 < half`: both values of a pair lie in `lo`, `hi`, `tw`.
            for j in (2..half).step_by(2) {
                let t = load(twp, j);
                let (u, v) = (load(lp, j), cmul(load(hp, j), t));
                store(lp, j, add(u, v));
                store(hp, j, sub(u, v));
            }
        }
    }

    /// Stages `len` and `2·len` (`len >= 8`) in one pass over
    /// `2·len`-point blocks.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn two_stages_avx(&self, data: &mut [Complex], len: usize) {
        let half = len / 2;
        let (tw1, tw2) = (&self.twiddle[half..len], &self.twiddle[len..2 * len]);
        for block in data.chunks_exact_mut(2 * len) {
            // Quarters: stage `len` pairs `q0[j]`–`q1[j]` and
            // `q2[j]`–`q3[j]`; stage `2·len` pairs `q0[j]`–`q2[j]` (twiddle
            // `tw2[j]`) and `q1[j]`–`q3[j]` (twiddle `tw2[half + j]`).
            let (q01, q23) = block.split_at_mut(len);
            let (q0, q1) = q01.split_at_mut(half);
            let (q2, q3) = q23.split_at_mut(half);
            // j == 0 skips its multiplies by 1; j == 1 runs scalar too, so
            // the vector loop starts on the aligned pair (2, 3).
            let (a0, a1) = (q0[0] + q1[0], q0[0] - q1[0]);
            let (a2, a3) = (q2[0] + q3[0], q2[0] - q3[0]);
            let v3 = a3 * tw2[half];
            (q0[0], q2[0]) = (a0 + a2, a0 - a2);
            (q1[0], q3[0]) = (a1 + v3, a1 - v3);
            let (v1, v3) = (q1[1] * tw1[1], q3[1] * tw1[1]);
            let (a0, a1) = (q0[1] + v1, q0[1] - v1);
            let (a2, a3) = (q2[1] + v3, q2[1] - v3);
            let (v2, v3) = (a2 * tw2[1], a3 * tw2[half + 1]);
            (q0[1], q2[1]) = (a0 + v2, a0 - v2);
            (q1[1], q3[1]) = (a1 + v3, a1 - v3);
            let p = [q0, q1, q2, q3].map(|q| q.as_mut_ptr() as *mut f64);
            let (t1p, t2p) = (tw1.as_ptr() as *const f64, tw2.as_ptr() as *const f64);
            // `j + 1 < half`: both values of a pair lie in each quarter, in
            // `tw1`, and (at `j` and `half + j`) in `tw2`.
            for j in (2..half).step_by(2) {
                let t1 = load(t1p, j);
                let (u0, v1) = (load(p[0], j), cmul(load(p[1], j), t1));
                let (u2, v3) = (load(p[2], j), cmul(load(p[3], j), t1));
                let (a0, a1) = (add(u0, v1), sub(u0, v1));
                let (a2, a3) = (add(u2, v3), sub(u2, v3));
                let v2 = cmul(a2, load(t2p, j));
                let v3 = cmul(a3, load(t2p, half + j));
                store(p[0], j, add(a0, v2));
                store(p[2], j, sub(a0, v2));
                store(p[1], j, add(a1, v3));
                store(p[3], j, sub(a1, v3));
            }
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

/// The 4-wide kernels' primitives, each over two complex values: a load
/// and a store at `p[2·j..2·j + 4]`, and the complex product exactly as
/// [`Complex::mul_counted`] evaluates it, `(vre·tre − vim·tim, vre·tim +
/// vim·tre)`: separate multiplies, no fusion.
#[cfg(target_arch = "x86_64")]
mod avx {
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// `p[2·j..2·j + 4]` must be readable.
    #[inline]
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn load(p: *const f64, j: usize) -> __m256d {
        _mm256_loadu_pd(p.add(2 * j))
    }

    /// # Safety
    ///
    /// `p[2·j..2·j + 4]` must be writable.
    #[inline]
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn store(p: *mut f64, j: usize, v: __m256d) {
        _mm256_storeu_pd(p.add(2 * j), v)
    }

    #[inline]
    #[target_feature(enable = "avx")]
    pub(super) fn add(a: __m256d, b: __m256d) -> __m256d {
        _mm256_add_pd(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx")]
    pub(super) fn sub(a: __m256d, b: __m256d) -> __m256d {
        _mm256_sub_pd(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx")]
    pub(super) fn cmul(v: __m256d, t: __m256d) -> __m256d {
        let v_re = _mm256_movedup_pd(v);
        let v_im = _mm256_permute_pd(v, 0b1111);
        let t_sw = _mm256_permute_pd(t, 0b0101);
        _mm256_addsub_pd(_mm256_mul_pd(v_re, t), _mm256_mul_pd(v_im, t_sw))
    }
}
#[cfg(target_arch = "x86_64")]
use avx::{add, cmul, load, store, sub};

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
        // Covers the AVX dispatch (the fused first two stages, the
        // two-stage passes and a lone last stage, each with its j == 0 /
        // j == 1 scalar edges and pair loop) on machines that have it, and
        // the shared scalar path everywhere else.
        for log_n in 0..=12 {
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
