//! Real-input transforms in FFTW's half-complex format.
//!
//! The paper's runtime stores spectra of real signals in "half-complex"
//! arrays (§4.4): for an `N`-point transform of a real signal the layout is
//! `[r0, r1, …, r_{N/2}, i_{N/2-1}, …, i_1]`, exploiting the conjugate
//! symmetry `X[N-k] = conj(X[k])`. All frequency-replacement executors work
//! on this layout.

use crate::{Complex, FftError, FftPlan, SimpleFft};
#[cfg(target_arch = "x86_64")]
use streamlin_support::NoCount;
use streamlin_support::Tally;

/// Which FFT tier backs a [`RealFft`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FftKind {
    /// The thesis-derivation recursive transform ([`SimpleFft`]); real
    /// signals are processed as full complex buffers.
    Simple,
    /// The planned iterative transform ([`FftPlan`]) with the packed
    /// real-input algorithm (an `N`-point real transform via an
    /// `N/2`-point complex one) — the FFTW stand-in.
    Tuned,
}

/// Length of the half-complex spectrum of an `n`-point real transform
/// (identical to `n`; provided for readability at call sites).
pub fn halfcomplex_len(n: usize) -> usize {
    n
}

/// Reusable complex workspace for the packed real transforms. Callers
/// that transform repeatedly (e.g. the frequency-stage executor firing
/// once per block) hold one of these so the `n/2`-point complex buffer is
/// allocated once instead of per transform.
#[derive(Debug, Clone, Default)]
pub struct RealFftScratch {
    z: Vec<Complex>,
}

/// A real-input/real-output FFT of fixed power-of-two size.
///
/// # Examples
///
/// ```
/// use streamlin_fft::{FftKind, RealFft};
/// use streamlin_support::OpCounter;
///
/// let fft = RealFft::new(FftKind::Simple, 4).unwrap();
/// let mut ops = OpCounter::new();
/// let spec = fft.forward(&[1.0, 0.0, 0.0, 0.0], &mut ops);
/// // The spectrum of the unit impulse is flat.
/// assert_eq!(spec, vec![1.0, 1.0, 1.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RealFft {
    kind: FftKind,
    n: usize,
    /// `n/2`-point plan for the packed algorithm (`Tuned` only, `n >= 2`).
    half_plan: Option<FftPlan>,
    /// `e^{-2πik/n}` for `k = 0..=n/2` (`Tuned` only).
    unpack_tw: Vec<Complex>,
    /// Runtime AVX support (checked once; used by the uncounted path).
    use_avx: bool,
}

impl RealFft {
    /// Creates a transform of size `n` backed by the given tier.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::SizeNotPowerOfTwo`] unless `n` is a positive
    /// power of two.
    pub fn new(kind: FftKind, n: usize) -> Result<Self, FftError> {
        if !n.is_power_of_two() {
            return Err(FftError::SizeNotPowerOfTwo(n));
        }
        let (half_plan, unpack_tw) = if kind == FftKind::Tuned && n >= 2 {
            let plan = FftPlan::new(n / 2)?;
            let tw = (0..=n / 2)
                .map(|k| Complex::from_polar(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
                .collect();
            (Some(plan), tw)
        } else {
            (None, Vec::new())
        };
        #[cfg(target_arch = "x86_64")]
        let use_avx = std::arch::is_x86_feature_detected!("avx");
        #[cfg(not(target_arch = "x86_64"))]
        let use_avx = false;
        Ok(RealFft {
            kind,
            n,
            half_plan,
            unpack_tw,
            use_avx,
        })
    }

    /// The transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for a zero-point transform (which cannot be built).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The backing tier.
    pub fn kind(&self) -> FftKind {
        self.kind
    }

    /// Bytes of its precomputed tables (twiddles, bit reversal), counted
    /// from their lengths.
    pub fn table_bytes(&self) -> usize {
        let plan = self.half_plan.as_ref().map_or(0, FftPlan::table_bytes);
        plan + self.unpack_tw.len() * std::mem::size_of::<Complex>()
    }

    /// Forward transform of `n` real samples into a half-complex spectrum.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.len()`.
    pub fn forward<T: Tally>(&self, x: &[f64], ops: &mut T) -> Vec<f64> {
        let mut out = Vec::new();
        self.forward_into(x, &mut out, &mut RealFftScratch::default(), ops);
        out
    }

    /// [`Self::forward`] into a caller-owned output buffer and complex
    /// workspace — identical arithmetic in identical order, allocation-free
    /// when the buffers are reused across calls (the `Simple` reference
    /// tier still allocates internally).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.len()`.
    pub fn forward_into<T: Tally>(
        &self,
        x: &[f64],
        out: &mut Vec<f64>,
        scratch: &mut RealFftScratch,
        ops: &mut T,
    ) {
        assert_eq!(x.len(), self.n, "real fft input length mismatch");
        out.clear();
        if self.n == 1 {
            out.push(x[0]);
            return;
        }
        match self.kind {
            FftKind::Simple => {
                let buf: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
                let spec = SimpleFft
                    .forward(&buf, ops)
                    .expect("size validated at construction");
                out.extend_from_slice(&pack_halfcomplex(&spec));
            }
            FftKind::Tuned => self.forward_packed(x, out, scratch, ops),
        }
    }

    /// Inverse transform of a half-complex spectrum into `n` real samples
    /// (includes the 1/N normalization).
    ///
    /// # Panics
    ///
    /// Panics if `hc.len() != self.len()`.
    pub fn inverse<T: Tally>(&self, hc: &[f64], ops: &mut T) -> Vec<f64> {
        let mut out = Vec::new();
        self.inverse_into(hc, &mut out, &mut RealFftScratch::default(), ops);
        out
    }

    /// [`Self::inverse`] into a caller-owned output buffer and complex
    /// workspace (see [`Self::forward_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `hc.len() != self.len()`.
    pub fn inverse_into<T: Tally>(
        &self,
        hc: &[f64],
        out: &mut Vec<f64>,
        scratch: &mut RealFftScratch,
        ops: &mut T,
    ) {
        assert_eq!(hc.len(), self.n, "real ifft input length mismatch");
        out.clear();
        if self.n == 1 {
            out.push(hc[0]);
            return;
        }
        match self.kind {
            FftKind::Simple => {
                let spec = unpack_halfcomplex(hc);
                let time = SimpleFft
                    .inverse(&spec, ops)
                    .expect("size validated at construction");
                out.extend(time.into_iter().map(|z| z.re));
            }
            FftKind::Tuned => self.inverse_packed(hc, out, scratch, ops),
        }
    }

    /// Packed real-input forward transform: an `n`-point real FFT via an
    /// `n/2`-point complex FFT of `z[k] = x[2k] + i·x[2k+1]`.
    fn forward_packed<T: Tally>(
        &self,
        x: &[f64],
        out: &mut Vec<f64>,
        scratch: &mut RealFftScratch,
        ops: &mut T,
    ) {
        let n = self.n;
        let m = n / 2;
        let plan = self
            .half_plan
            .as_ref()
            .expect("tuned plan present for n >= 2");
        let z = &mut scratch.z;
        z.clear();
        z.extend((0..m).map(|k| Complex::new(x[2 * k], x[2 * k + 1])));
        plan.forward(z, ops);
        out.resize(n, 0.0);
        #[cfg(target_arch = "x86_64")]
        if !T::COUNTING && self.use_avx && m >= 2 {
            // SAFETY: `use_avx` is only set when runtime detection
            // confirmed the `avx` target feature (see `RealFft::new`).
            unsafe { self.unpack_forward_avx(z, out) };
            return;
        }
        for k in 0..=m {
            unpack_fwd_k(z, &self.unpack_tw, n, out, k, ops);
        }
    }

    /// The AVX spectrum-unpack pass of the packed forward transform: two
    /// `k` bins per iteration on 4-wide registers. Every complex
    /// add/sub/scale/multiply is evaluated with exactly the scalar path's
    /// operations (separate multiplies, `addsub` for the complex product —
    /// no fusion), so the spectra are bit-identical to the counted loop;
    /// only the bookkeeping-free uncounted path dispatches here. The `k ==
    /// 0`/`k == m` edges and the odd tail run the shared scalar helper.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn unpack_forward_avx(&self, z: &[Complex], out: &mut [f64]) {
        use std::arch::x86_64::*;
        let n = self.n;
        let m = n / 2;
        unpack_fwd_k(z, &self.unpack_tw, n, out, 0, &mut NoCount);
        unpack_fwd_k(z, &self.unpack_tw, n, out, m, &mut NoCount);
        let half = _mm256_set1_pd(0.5);
        // Negates the imaginary lanes (1, 3) — complex conjugation.
        let conj = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
        let zp = z.as_ptr() as *const f64;
        let twp = self.unpack_tw.as_ptr() as *const f64;
        let op = out.as_mut_ptr();
        let mut k = 1;
        while k + 2 <= m {
            let zk = _mm256_loadu_pd(zp.add(2 * k));
            // [z[m-k-1], z[m-k]] -> swap halves -> [z[m-k], z[m-k-1]].
            let zmk_raw = _mm256_loadu_pd(zp.add(2 * (m - k - 1)));
            let zmk = _mm256_xor_pd(_mm256_permute2f128_pd(zmk_raw, zmk_raw, 1), conj);
            // Fe = (Z[k] + conj(Z[M-k]))/2; Fo = -i(Z[k] - conj(Z[M-k]))/2.
            let fe = _mm256_mul_pd(_mm256_add_pd(zk, zmk), half);
            let diff = _mm256_sub_pd(zk, zmk);
            // (diff.im, -diff.re): swap re/im, negate the new im lane.
            let fo = _mm256_mul_pd(_mm256_xor_pd(_mm256_permute_pd(diff, 0b0101), conj), half);
            // tw[k] · fo, elementwise exactly as mul_counted.
            let t = _mm256_loadu_pd(twp.add(2 * k));
            let fo_re = _mm256_movedup_pd(fo);
            let fo_im = _mm256_permute_pd(fo, 0b1111);
            let t_sw = _mm256_permute_pd(t, 0b0101);
            let prod = _mm256_addsub_pd(_mm256_mul_pd(fo_re, t), _mm256_mul_pd(fo_im, t_sw));
            let xk = _mm256_add_pd(fe, prod);
            // out[k..k+2] <- re lanes; out[n-k-1..=n-k] <- im lanes,
            // reversed (out[n-k] pairs with bin k).
            let lo = _mm256_extractf128_pd(xk, 0);
            let hi = _mm256_extractf128_pd(xk, 1);
            let re = _mm_unpacklo_pd(lo, hi);
            let im = _mm_unpackhi_pd(lo, hi);
            _mm_storeu_pd(op.add(k), re);
            _mm_storeu_pd(op.add(n - k - 1), _mm_shuffle_pd(im, im, 0b01));
            k += 2;
        }
        while k < m {
            unpack_fwd_k(z, &self.unpack_tw, n, out, k, &mut NoCount);
            k += 1;
        }
    }

    /// Packed real-input inverse transform.
    fn inverse_packed<T: Tally>(
        &self,
        hc: &[f64],
        out: &mut Vec<f64>,
        scratch: &mut RealFftScratch,
        ops: &mut T,
    ) {
        let n = self.n;
        let m = n / 2;
        let plan = self
            .half_plan
            .as_ref()
            .expect("tuned plan present for n >= 2");
        let z = &mut scratch.z;
        z.clear();
        z.resize(m, Complex::zero());
        #[cfg(target_arch = "x86_64")]
        let packed_by_avx = !T::COUNTING && self.use_avx && m >= 2;
        #[cfg(not(target_arch = "x86_64"))]
        let packed_by_avx = false;
        if packed_by_avx {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `use_avx` is only set when runtime detection
            // confirmed the `avx` target feature (see `RealFft::new`).
            unsafe {
                self.pack_inverse_avx(hc, z)
            };
        } else {
            for (k, zk) in z.iter_mut().enumerate() {
                *zk = pack_inv_k(hc, &self.unpack_tw, n, k, ops);
            }
        }
        plan.inverse(z, ops);
        out.resize(n, 0.0);
        for (k, zk) in z.iter().enumerate() {
            out[2 * k] = zk.re;
            out[2 * k + 1] = zk.im;
        }
    }

    /// The AVX spectrum-pack pass of the packed inverse transform (the
    /// mirror of [`RealFft::unpack_forward_avx`]): gathers two half-complex
    /// bins per iteration into the `n/2`-point complex buffer with exactly
    /// the scalar helper's arithmetic. Uncounted path only; edges and the
    /// odd tail run the shared scalar helper.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn pack_inverse_avx(&self, hc: &[f64], z: &mut [Complex]) {
        use std::arch::x86_64::*;
        let n = self.n;
        let m = n / 2;
        z[0] = pack_inv_k(hc, &self.unpack_tw, n, 0, &mut NoCount);
        let half = _mm256_set1_pd(0.5);
        let conj = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
        let hp = hc.as_ptr();
        let twp = self.unpack_tw.as_ptr() as *const f64;
        let zp = z.as_mut_ptr() as *mut f64;
        let mut k = 1;
        while k + 2 <= m {
            // X[k] = (hc[k], hc[n-k]) for the pair (k, k+1).
            let xk_re = _mm_loadu_pd(hp.add(k));
            let xk_im_raw = _mm_loadu_pd(hp.add(n - k - 1));
            let xk_im = _mm_shuffle_pd(xk_im_raw, xk_im_raw, 0b01);
            let xk = _mm256_set_m128d(_mm_unpackhi_pd(xk_re, xk_im), _mm_unpacklo_pd(xk_re, xk_im));
            // conj(X[m-k]) = (hc[m-k], -hc[m+k]) for the pair (k, k+1).
            let xmk_re_raw = _mm_loadu_pd(hp.add(m - k - 1));
            let xmk_re = _mm_shuffle_pd(xmk_re_raw, xmk_re_raw, 0b01);
            let xmk_im = _mm_loadu_pd(hp.add(m + k));
            let xmk = _mm256_xor_pd(
                _mm256_set_m128d(
                    _mm_unpackhi_pd(xmk_re, xmk_im),
                    _mm_unpacklo_pd(xmk_re, xmk_im),
                ),
                conj,
            );
            let fe = _mm256_mul_pd(_mm256_add_pd(xk, xmk), half);
            let diffh = _mm256_mul_pd(_mm256_sub_pd(xk, xmk), half);
            // conj(tw[k]) · diffh, elementwise exactly as mul_counted.
            let t = _mm256_xor_pd(_mm256_loadu_pd(twp.add(2 * k)), conj);
            let d_re = _mm256_movedup_pd(diffh);
            let d_im = _mm256_permute_pd(diffh, 0b1111);
            let t_sw = _mm256_permute_pd(t, 0b0101);
            let fo = _mm256_addsub_pd(_mm256_mul_pd(d_re, t), _mm256_mul_pd(d_im, t_sw));
            // z[k] = (fe.re - fo.im, fe.im + fo.re).
            let fo_sw = _mm256_permute_pd(fo, 0b0101);
            _mm256_storeu_pd(zp.add(2 * k), _mm256_addsub_pd(fe, fo_sw));
            k += 2;
        }
        while k < m {
            z[k] = pack_inv_k(hc, &self.unpack_tw, n, k, &mut NoCount);
            k += 1;
        }
    }
}

/// One bin of the forward spectrum unpack (shared by the counted scalar
/// loop and the edges/tail of the AVX pass, so both compute byte-for-byte
/// the same expressions).
#[inline]
fn unpack_fwd_k<T: Tally>(
    z: &[Complex],
    tw: &[Complex],
    n: usize,
    out: &mut [f64],
    k: usize,
    ops: &mut T,
) {
    let m = n / 2;
    let zk = z[k % m];
    let zmk = z[(m - k) % m].conj();
    // Fe = (Z[k] + conj(Z[M-k]))/2, the spectrum of the even samples;
    // Fo = -i(Z[k] - conj(Z[M-k]))/2, the spectrum of the odd samples.
    let fe = zk.add_counted(zmk, ops).scale_counted(0.5, ops);
    let diff = zk.sub_counted(zmk, ops);
    let fo = Complex::new(diff.im, -diff.re).scale_counted(0.5, ops);
    let xk = fe.add_counted(tw[k].mul_counted(fo, ops), ops);
    if k == 0 {
        out[0] = xk.re;
    } else if k == m {
        out[m] = xk.re;
    } else {
        out[k] = xk.re;
        out[n - k] = xk.im;
    }
}

/// One bin of the inverse spectrum pack (the scalar twin of the AVX
/// pass's vector body).
#[inline]
fn pack_inv_k<T: Tally>(hc: &[f64], tw: &[Complex], n: usize, k: usize, ops: &mut T) -> Complex {
    let m = n / 2;
    let bin = |k: usize| -> Complex {
        if k == 0 {
            Complex::new(hc[0], 0.0)
        } else if k == m {
            Complex::new(hc[m], 0.0)
        } else {
            Complex::new(hc[k], hc[n - k])
        }
    };
    let xk = bin(k);
    let xmk = bin(m - k).conj();
    let fe = xk.add_counted(xmk, ops).scale_counted(0.5, ops);
    let fo = tw[k]
        .conj()
        .mul_counted(xk.sub_counted(xmk, ops).scale_counted(0.5, ops), ops);
    // z[k] = Fe[k] + i·Fo[k]
    ops.other(2);
    Complex::new(fe.re - fo.im, fe.im + fo.re)
}

/// Pointwise product of two half-complex spectra of length `n` — the
/// frequency-domain equivalent of circular convolution (`Y = X .* H` in
/// Transformation 5 of the paper).
///
/// # Panics
///
/// Panics if the spectra have different lengths.
pub fn halfcomplex_mul<T: Tally>(a: &[f64], b: &[f64], ops: &mut T) -> Vec<f64> {
    let mut out = Vec::new();
    halfcomplex_mul_into(a, b, &mut out, ops);
    out
}

/// [`halfcomplex_mul`] into a caller-owned buffer — identical arithmetic,
/// allocation-free when the buffer is reused across calls.
///
/// # Panics
///
/// Panics if the spectra have different lengths.
pub fn halfcomplex_mul_into<T: Tally>(a: &[f64], b: &[f64], out: &mut Vec<f64>, ops: &mut T) {
    assert_eq!(a.len(), b.len(), "half-complex product length mismatch");
    let n = a.len();
    out.clear();
    out.resize(n, 0.0);
    if n == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if !T::COUNTING && n >= 2 && std::arch::is_x86_feature_detected!("avx") {
        // SAFETY: AVX support was just detected at runtime.
        unsafe { hc_mul_avx(a, b, out) };
        return;
    }
    out[0] = ops.mul(a[0], b[0]);
    if n == 1 {
        return;
    }
    let m = n / 2;
    if n.is_multiple_of(2) {
        out[m] = ops.mul(a[m], b[m]);
    }
    for k in 1..n.div_ceil(2) {
        if k == n - k {
            continue;
        }
        hc_mul_k(a, b, out, k, ops);
    }
}

/// One conjugate pair of the half-complex product (shared by the counted
/// scalar loop and the tail of the AVX pass).
#[inline]
fn hc_mul_k<T: Tally>(a: &[f64], b: &[f64], out: &mut [f64], k: usize, ops: &mut T) {
    let n = a.len();
    let (ar, ai) = (a[k], a[n - k]);
    let (br, bi) = (b[k], b[n - k]);
    let rr = ops.mul(ar, br);
    let ii = ops.mul(ai, bi);
    let ri = ops.mul(ar, bi);
    let ir = ops.mul(ai, br);
    out[k] = ops.sub(rr, ii);
    out[n - k] = ops.add(ri, ir);
}

/// The AVX half-complex product: four conjugate pairs per iteration, with
/// each lane evaluating exactly the scalar pair's operations (four
/// separate multiplies, one subtract, one add — no fusion), so the
/// product is bit-identical to the counted loop. The imaginary halves are
/// stored reversed in the half-complex layout, so they are loaded and
/// stored through a full 4-lane reverse. Uncounted path only.
///
/// # Safety
///
/// The caller must have verified AVX support at runtime; `out` must
/// already hold `n == a.len() == b.len()` elements with `n >= 2`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn hc_mul_avx(a: &[f64], b: &[f64], out: &mut [f64]) {
    use std::arch::x86_64::*;
    let n = a.len();
    let m = n / 2;
    out[0] = a[0] * b[0];
    if n == 1 {
        return;
    }
    if n.is_multiple_of(2) {
        out[m] = a[m] * b[m];
    }
    /// Reverses the four lanes of a `__m256d`.
    #[inline]
    unsafe fn rev(v: std::arch::x86_64::__m256d) -> std::arch::x86_64::__m256d {
        _mm256_permute_pd(_mm256_permute2f128_pd(v, v, 1), 0b0101)
    }
    let half_end = n.div_ceil(2);
    let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    let mut k = 1;
    // The real block [k, k+3] and the reversed imaginary block
    // [n-k-3, n-k] must stay disjoint (and clear of the midpoint).
    while k + 4 <= half_end && n - k - 3 > k + 3 {
        let ar = _mm256_loadu_pd(ap.add(k));
        let br = _mm256_loadu_pd(bp.add(k));
        let ai = rev(_mm256_loadu_pd(ap.add(n - k - 3)));
        let bi = rev(_mm256_loadu_pd(bp.add(n - k - 3)));
        let rr = _mm256_mul_pd(ar, br);
        let ii = _mm256_mul_pd(ai, bi);
        let ri = _mm256_mul_pd(ar, bi);
        let ir = _mm256_mul_pd(ai, br);
        _mm256_storeu_pd(op.add(k), _mm256_sub_pd(rr, ii));
        _mm256_storeu_pd(op.add(n - k - 3), rev(_mm256_add_pd(ri, ir)));
        k += 4;
    }
    while k < half_end {
        if k != n - k {
            hc_mul_k(a, b, out, k, &mut NoCount);
        }
        k += 1;
    }
}

/// Packs a full conjugate-symmetric spectrum into half-complex layout.
fn pack_halfcomplex(spec: &[Complex]) -> Vec<f64> {
    let n = spec.len();
    let m = n / 2;
    let mut out = vec![0.0; n];
    out[0] = spec[0].re;
    if n > 1 {
        out[m] = spec[m].re;
    }
    for k in 1..m {
        out[k] = spec[k].re;
        out[n - k] = spec[k].im;
    }
    out
}

/// Expands half-complex layout into the full spectrum using conjugate
/// symmetry.
fn unpack_halfcomplex(hc: &[f64]) -> Vec<Complex> {
    let n = hc.len();
    let m = n / 2;
    let mut spec = vec![Complex::zero(); n];
    spec[0] = Complex::new(hc[0], 0.0);
    if n > 1 {
        spec[m] = Complex::new(hc[m], 0.0);
    }
    for k in 1..m {
        spec[k] = Complex::new(hc[k], hc[n - k]);
        spec[n - k] = spec[k].conj();
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft_naive;
    use streamlin_support::num::assert_slices_close;
    use streamlin_support::OpCounter;

    fn real_signal(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect()
    }

    fn reference_halfcomplex(x: &[f64]) -> Vec<f64> {
        let buf: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
        pack_halfcomplex(&dft_naive(&buf))
    }

    #[test]
    fn both_kinds_match_naive_dft() {
        for kind in [FftKind::Simple, FftKind::Tuned] {
            for log_n in 0..8 {
                let n = 1usize << log_n;
                let x = real_signal(n);
                let fft = RealFft::new(kind, n).unwrap();
                let got = fft.forward(&x, &mut OpCounter::new());
                assert_slices_close(&got, &reference_halfcomplex(&x), 1e-9, 1e-9);
            }
        }
    }

    #[test]
    fn round_trip_is_identity() {
        for kind in [FftKind::Simple, FftKind::Tuned] {
            for log_n in 0..8 {
                let n = 1usize << log_n;
                let x = real_signal(n);
                let fft = RealFft::new(kind, n).unwrap();
                let mut ops = OpCounter::new();
                let spec = fft.forward(&x, &mut ops);
                let back = fft.inverse(&spec, &mut ops);
                assert_slices_close(&back, &x, 1e-9, 1e-9);
            }
        }
    }

    #[test]
    fn convolution_theorem_holds() {
        // Circular convolution in time == pointwise product in frequency.
        let n = 16;
        let x = real_signal(n);
        let h: Vec<f64> = (0..n)
            .map(|i| if i < 4 { (i + 1) as f64 } else { 0.0 })
            .collect();
        let mut direct = vec![0.0; n];
        for (i, d) in direct.iter_mut().enumerate() {
            for k in 0..n {
                *d += h[k] * x[(i + n - k) % n];
            }
        }
        for kind in [FftKind::Simple, FftKind::Tuned] {
            let fft = RealFft::new(kind, n).unwrap();
            let mut ops = OpCounter::new();
            let xs = fft.forward(&x, &mut ops);
            let hs = fft.forward(&h, &mut ops);
            let ys = halfcomplex_mul(&xs, &hs, &mut ops);
            let y = fft.inverse(&ys, &mut ops);
            assert_slices_close(&y, &direct, 1e-8, 1e-8);
        }
    }

    #[test]
    fn tuned_kind_is_cheaper_than_simple() {
        let n = 512;
        let x = real_signal(n);
        let mut simple_ops = OpCounter::new();
        RealFft::new(FftKind::Simple, n)
            .unwrap()
            .forward(&x, &mut simple_ops);
        let mut tuned_ops = OpCounter::new();
        RealFft::new(FftKind::Tuned, n)
            .unwrap()
            .forward(&x, &mut tuned_ops);
        assert!(
            tuned_ops.mults() * 2 < simple_ops.mults(),
            "tuned {} vs simple {}",
            tuned_ops.mults(),
            simple_ops.mults()
        );
    }

    #[test]
    fn halfcomplex_mul_identity() {
        // Multiplying by the spectrum of the unit impulse (all-ones) is a no-op.
        let n = 8;
        let x = real_signal(n);
        let fft = RealFft::new(FftKind::Tuned, n).unwrap();
        let mut ops = OpCounter::new();
        let xs = fft.forward(&x, &mut ops);
        let mut impulse = vec![0.0; n];
        impulse[0] = 1.0;
        let hs = fft.forward(&impulse, &mut ops);
        let ys = halfcomplex_mul(&xs, &hs, &mut ops);
        assert_slices_close(&ys, &xs, 1e-9, 1e-9);
    }

    #[test]
    fn tiny_sizes() {
        for kind in [FftKind::Simple, FftKind::Tuned] {
            let fft1 = RealFft::new(kind, 1).unwrap();
            assert_eq!(fft1.forward(&[5.0], &mut OpCounter::new()), vec![5.0]);
            assert_eq!(fft1.inverse(&[5.0], &mut OpCounter::new()), vec![5.0]);
            let fft2 = RealFft::new(kind, 2).unwrap();
            let spec = fft2.forward(&[3.0, 1.0], &mut OpCounter::new());
            assert_slices_close(&spec, &[4.0, 2.0], 1e-12, 0.0);
        }
    }

    #[test]
    fn rejects_bad_sizes() {
        assert!(RealFft::new(FftKind::Tuned, 3).is_err());
        assert!(RealFft::new(FftKind::Simple, 0).is_err());
    }

    #[test]
    fn uncounted_transforms_are_bit_identical_to_counted() {
        use streamlin_support::NoCount;
        // Covers the AVX unpack/pack passes (edges, pair loop, odd tails)
        // on machines that have AVX, and the shared scalar path elsewhere.
        for log_n in 1..11 {
            let n = 1usize << log_n;
            let x = real_signal(n);
            let fft = RealFft::new(FftKind::Tuned, n).unwrap();
            let counted = fft.forward(&x, &mut OpCounter::new());
            let free = fft.forward(&x, &mut NoCount);
            for (k, (a, b)) in counted.iter().zip(&free).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "n {n} fwd bin {k}");
            }
            let counted_inv = fft.inverse(&counted, &mut OpCounter::new());
            let free_inv = fft.inverse(&free, &mut NoCount);
            for (k, (a, b)) in counted_inv.iter().zip(&free_inv).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "n {n} inv sample {k}");
            }
        }
    }

    #[test]
    fn uncounted_halfcomplex_mul_is_bit_identical_to_counted() {
        use streamlin_support::NoCount;
        // Sizes straddling the vector width exercise the quad loop, the
        // disjointness cutoff and the scalar tail; odd sizes have no
        // midpoint bin.
        for n in [1usize, 2, 3, 4, 7, 8, 9, 15, 16, 17, 32, 64, 256, 1024] {
            let a = real_signal(n);
            let b: Vec<f64> = (0..n).map(|i| ((i * 3 + 1) % 13) as f64 - 6.0).collect();
            let counted = halfcomplex_mul(&a, &b, &mut OpCounter::new());
            let free = halfcomplex_mul(&a, &b, &mut NoCount);
            for (k, (x, y)) in counted.iter().zip(&free).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "n {n} bin {k}");
            }
        }
    }
}
