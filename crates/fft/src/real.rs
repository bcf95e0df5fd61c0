//! Real-input transforms in FFTW's half-complex format.
//!
//! The paper's runtime stores spectra of real signals in "half-complex"
//! arrays (§4.4): for an `N`-point transform of a real signal the layout is
//! `[r0, r1, …, r_{N/2}, i_{N/2-1}, …, i_1]`, exploiting the conjugate
//! symmetry `X[N-k] = conj(X[k])`. All frequency-replacement executors work
//! on this layout.

#[cfg(target_arch = "x86_64")]
use crate::tuned::avx::{add, cmul, load, sub};
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
    /// The planned split-radix transform ([`FftPlan`]) with the packed
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
    /// `W^k/2 = e^{-2πik/n}/2` for `k < n/4`: the forward unpack's
    /// twiddles, halved (`Tuned` only).
    fwd_tw: Vec<Complex>,
    /// `W^k` for `k < n/4`: the inverse pack's twiddles (`Tuned` only).
    inv_tw: Vec<Complex>,
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
        let (half_plan, inv_tw) = if kind == FftKind::Tuned && n >= 2 {
            let plan = FftPlan::new(n / 2)?;
            let tw: Vec<Complex> = (0..n / 4)
                .map(|k| Complex::from_polar(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
                .collect();
            (Some(plan), tw)
        } else {
            (None, Vec::new())
        };
        let fwd_tw = inv_tw
            .iter()
            .map(|w| Complex::new(0.5 * w.re, 0.5 * w.im))
            .collect();
        #[cfg(target_arch = "x86_64")]
        let use_avx = std::arch::is_x86_feature_detected!("avx");
        #[cfg(not(target_arch = "x86_64"))]
        let use_avx = false;
        Ok(RealFft {
            kind,
            n,
            half_plan,
            fwd_tw,
            inv_tw,
            use_avx,
        })
    }

    /// A tuned transform whose complex core has twiddle `index` scaled by
    /// `1 + rel`: a deliberately broken transform for the accuracy tests
    /// to catch.
    #[cfg(test)]
    pub(crate) fn with_twiddle_error(n: usize, index: usize, rel: f64) -> Self {
        let mut fft = RealFft::new(FftKind::Tuned, n).expect("power of two");
        fft.half_plan = Some(FftPlan::with_twiddle_error(n / 2, index, rel));
        fft
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
        plan + (self.fwd_tw.len() + self.inv_tw.len()) * std::mem::size_of::<Complex>()
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
    /// `n/2`-point complex FFT of `z[k] = x[2k] + i·x[2k+1]`, then one
    /// unpack pass that forms each conjugate pair of bins `(k, m − k)`
    /// from `Z[k]` and `Z[m − k]` at once (`m = n/2`).
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
        // z[k] = x[2k] + i·x[2k+1], written where the butterflies want it.
        let z = &mut scratch.z;
        z.resize(m, Complex::zero());
        for (k, &at) in plan.bitrev().iter().enumerate() {
            z[at as usize] = Complex::new(x[2 * k], x[2 * k + 1]);
        }
        plan.forward_bitreversed(z, ops);
        out.resize(n, 0.0);
        unpack_edges(z, out, ops);
        #[cfg(target_arch = "x86_64")]
        if !T::COUNTING && self.use_avx {
            // SAFETY: `use_avx` is only set when runtime detection
            // confirmed the `avx` target feature (see `RealFft::new`).
            unsafe { self.unpack_forward_avx(z, out) };
            return;
        }
        for k in 1..m / 2 {
            unpack_pair(z, &self.fwd_tw, out, k, ops);
        }
    }

    /// The AVX unpack pass of the packed forward transform: the pairs `k`
    /// and `k + 1` per iteration on 4-wide registers. Every operation is
    /// the scalar [`unpack_pair`]'s, in its order (separate multiplies, no
    /// fusion; a subtraction of a negated value is the scalar path's
    /// addition, bit for bit), so the spectra are bit-identical to the
    /// counted loop; only the bookkeeping-free uncounted path dispatches
    /// here. The odd tail runs the shared scalar helper.
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
        let half = _mm256_set1_pd(0.5);
        // Negates the imaginary lanes (1, 3) — complex conjugation.
        let conj = _mm256_set_pd(-0.0, 0.0, -0.0, 0.0);
        let zp = z.as_ptr() as *const f64;
        let twp = self.fwd_tw.as_ptr() as *const f64;
        let op = out.as_mut_ptr();
        let mut k = 1;
        while k + 2 <= m / 2 {
            let zk = load(zp, k);
            // [z[m-k-1], z[m-k]] -> swap halves -> conj -> the partners
            // of [z[k], z[k+1]].
            let zm_raw = load(zp, m - k - 1);
            let zm = _mm256_xor_pd(_mm256_permute2f128_pd(zm_raw, zm_raw, 1), conj);
            let (a, b) = (add(zk, zm), sub(zk, zm));
            let fe = _mm256_mul_pd(a, half);
            // -i·b = (b.im, -b.re), times the halved twiddle.
            let t = cmul(
                _mm256_xor_pd(_mm256_permute_pd(b, 0b0101), conj),
                load(twp, k),
            );
            let xk = add(fe, t);
            // (fe.re - t.re, t.im - fe.im): bin m - k, conjugated.
            let xm = sub(
                _mm256_blend_pd(fe, t, 0b1010),
                _mm256_blend_pd(t, fe, 0b1010),
            );
            let (lo, hi) = (_mm256_castpd256_pd128(xk), _mm256_extractf128_pd(xk, 1));
            _mm_storeu_pd(op.add(k), _mm_unpacklo_pd(lo, hi));
            _mm_storeu_pd(op.add(n - k - 1), _mm_unpackhi_pd(hi, lo));
            let (lo, hi) = (_mm256_castpd256_pd128(xm), _mm256_extractf128_pd(xm, 1));
            _mm_storeu_pd(op.add(m - k - 1), _mm_unpacklo_pd(hi, lo));
            _mm_storeu_pd(op.add(m + k), _mm_unpackhi_pd(lo, hi));
            k += 2;
        }
        while k < m / 2 {
            unpack_pair(z, &self.fwd_tw, out, k, &mut NoCount);
            k += 1;
        }
    }

    /// Packed real-input inverse transform. The pack pass forms each pair
    /// `2·Z[k]`, `2·Z[m − k]` of the `n/2`-point packed spectrum at once
    /// and writes it with real and imaginary parts swapped at its
    /// bit-reversed index; the forward butterflies then give the inverse,
    /// swapped back while the samples are written out
    /// (`swap(DFT(swap(Z))) = m·IDFT(Z)`), and the closing scale `1/n`
    /// removes both the `m` and the 2. Nothing is conjugated or negated.
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
        let bitrev = plan.bitrev();
        let z = &mut scratch.z;
        z.resize(m, Complex::zero());
        pack_edges(hc, bitrev, z, ops);
        #[cfg(target_arch = "x86_64")]
        let packed_by_avx = !T::COUNTING && self.use_avx;
        #[cfg(not(target_arch = "x86_64"))]
        let packed_by_avx = false;
        if packed_by_avx {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `use_avx` is only set when runtime detection
            // confirmed the `avx` target feature (see `RealFft::new`).
            unsafe {
                self.pack_inverse_avx(hc, bitrev, z)
            };
        } else {
            for k in 1..m / 2 {
                let (zk, zm) = pack_pair(hc, &self.inv_tw, k, ops);
                z[bitrev[k] as usize] = zk;
                z[bitrev[m - k] as usize] = zm;
            }
        }
        plan.forward_bitreversed(z, ops);
        let inv_n = 1.0 / n as f64;
        out.resize(n, 0.0);
        for (pair, zk) in out.chunks_exact_mut(2).zip(z.iter()) {
            pair[0] = ops.mul(zk.im, inv_n);
            pair[1] = ops.mul(zk.re, inv_n);
        }
    }

    /// The AVX pack pass of the packed inverse transform (the mirror of
    /// [`RealFft::unpack_forward_avx`]): the pairs `k` and `k + 1` per
    /// iteration, real and imaginary parts in separate 2-wide registers,
    /// with exactly [`pack_pair`]'s operations in its order. Uncounted
    /// path only; the odd tail runs the shared scalar helper.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn pack_inverse_avx(&self, hc: &[f64], bitrev: &[u32], z: &mut [Complex]) {
        use std::arch::x86_64::*;
        let n = self.n;
        let m = n / 2;
        let hp = hc.as_ptr();
        let twp = self.inv_tw.as_ptr() as *const f64;
        let zp = z.as_mut_ptr() as *mut f64;
        let rev = |v: __m128d| _mm_shuffle_pd(v, v, 0b01);
        let mut k = 1;
        while k + 2 <= m / 2 {
            // X[k] = (p, q), X[m - k] = (r, s), for k and k + 1.
            let p = _mm_loadu_pd(hp.add(k));
            let q = rev(_mm_loadu_pd(hp.add(n - k - 1)));
            let r = rev(_mm_loadu_pd(hp.add(m - k - 1)));
            let s = _mm_loadu_pd(hp.add(m + k));
            let w = load(twp, k);
            let (wl, wh) = (_mm256_castpd256_pd128(w), _mm256_extractf128_pd(w, 1));
            let (wr, wi) = (_mm_unpacklo_pd(wl, wh), _mm_unpackhi_pd(wl, wh));
            let (er, ei) = (_mm_add_pd(p, r), _mm_sub_pd(q, s));
            let (dr, di) = (_mm_sub_pd(p, r), _mm_add_pd(q, s));
            let fr = _mm_add_pd(_mm_mul_pd(dr, wr), _mm_mul_pd(di, wi));
            let fi = _mm_sub_pd(_mm_mul_pd(di, wr), _mm_mul_pd(dr, wi));
            let (zk_re, zk_im) = (_mm_add_pd(ei, fr), _mm_sub_pd(er, fi));
            let (zm_re, zm_im) = (_mm_sub_pd(fr, ei), _mm_add_pd(er, fi));
            // `bitrev` permutes `0..m`: each value lands inside `z`.
            let put = |j: usize, v: __m128d| _mm_storeu_pd(zp.add(2 * bitrev[j] as usize), v);
            put(k, _mm_unpacklo_pd(zk_re, zk_im));
            put(k + 1, _mm_unpackhi_pd(zk_re, zk_im));
            put(m - k, _mm_unpacklo_pd(zm_re, zm_im));
            put(m - k - 1, _mm_unpackhi_pd(zm_re, zm_im));
            k += 2;
        }
        while k < m / 2 {
            let (zk, zm) = pack_pair(hc, &self.inv_tw, k, &mut NoCount);
            z[bitrev[k] as usize] = zk;
            z[bitrev[m - k] as usize] = zm;
            k += 1;
        }
    }
}

/// The bins of the forward unpack that pair with themselves: `k = 0` with
/// `m` (`X[0]`, `X[m]` from `Z[0]`: two additions) and, for `m ≥ 2`, the
/// middle bin `X[m/2] = conj(Z[m/2])` (one negation).
#[inline]
fn unpack_edges<T: Tally>(z: &[Complex], out: &mut [f64], ops: &mut T) {
    let n = out.len();
    let m = n / 2;
    out[0] = ops.add(z[0].re, z[0].im);
    out[m] = ops.sub(z[0].re, z[0].im);
    if m >= 2 {
        out[m / 2] = z[m / 2].re;
        out[n - m / 2] = ops.neg(z[m / 2].im);
    }
}

/// One conjugate pair of the forward unpack, `1 ≤ k < m/2` (shared by the
/// counted loop and the tail of the AVX pass). With `a = Z[k] +
/// conj(Z[m−k])` and `b = Z[k] − conj(Z[m−k])`, the even samples'
/// spectrum is `a/2` and the odd samples' `−i·b/2`, so `X[k] = a/2 + t`
/// and `X[m−k] = conj(a/2 − t)` with `t = (W^k/2)·(−i·b)` (`tw[k] =
/// W^k/2`): 16 operations for two bins.
#[inline]
fn unpack_pair<T: Tally>(z: &[Complex], tw: &[Complex], out: &mut [f64], k: usize, ops: &mut T) {
    let n = out.len();
    let m = n / 2;
    let (zk, zm) = (z[k], z[m - k]);
    let (ar, ai) = (ops.add(zk.re, zm.re), ops.sub(zk.im, zm.im));
    let (br, bi) = (ops.sub(zk.re, zm.re), ops.add(zk.im, zm.im));
    let (fr, fi) = (ops.mul(ar, 0.5), ops.mul(ai, 0.5));
    let w = tw[k];
    let (p1, p2) = (ops.mul(bi, w.re), ops.mul(br, w.im));
    let (p3, p4) = (ops.mul(bi, w.im), ops.mul(br, w.re));
    let (tr, ti) = (ops.add(p1, p2), ops.sub(p3, p4));
    out[k] = ops.add(fr, tr);
    out[n - k] = ops.add(fi, ti);
    out[m - k] = ops.sub(fr, tr);
    out[m + k] = ops.sub(ti, fi);
}

/// The self-paired bins of the inverse pack, written swapped at their
/// bit-reversed index: `2·Z[0] = (X[0] + X[m]) + i·(X[0] − X[m])` and,
/// for `m ≥ 2`, `2·Z[m/2] = 2·conj(X[m/2])`.
#[inline]
fn pack_edges<T: Tally>(hc: &[f64], bitrev: &[u32], z: &mut [Complex], ops: &mut T) {
    let n = hc.len();
    let m = n / 2;
    z[0] = Complex::new(ops.sub(hc[0], hc[m]), ops.add(hc[0], hc[m]));
    if m >= 2 {
        let (p, q) = (hc[m / 2], hc[n - m / 2]);
        z[bitrev[m / 2] as usize] = Complex::new(ops.mul(q, -2.0), ops.mul(p, 2.0));
    }
}

/// One conjugate pair of the inverse pack, `1 ≤ k < m/2` (the scalar twin
/// of the AVX pass's body). With `e = X[k] + conj(X[m−k])`, `d = X[k] −
/// conj(X[m−k])` and `f = d·conj(W^k)` (`tw[k] = W^k`), `2·Z[k] = e + i·f`
/// and `2·Z[m−k] = conj(e) + i·conj(f)`; both are returned swapped. 14
/// operations for two points.
#[inline]
fn pack_pair<T: Tally>(hc: &[f64], tw: &[Complex], k: usize, ops: &mut T) -> (Complex, Complex) {
    let n = hc.len();
    let m = n / 2;
    let (p, q) = (hc[k], hc[n - k]);
    let (r, s) = (hc[m - k], hc[m + k]);
    let (er, ei) = (ops.add(p, r), ops.sub(q, s));
    let (dr, di) = (ops.sub(p, r), ops.add(q, s));
    let w = tw[k];
    let (p1, p2) = (ops.mul(dr, w.re), ops.mul(di, w.im));
    let (p3, p4) = (ops.mul(di, w.re), ops.mul(dr, w.im));
    let (fr, fi) = (ops.add(p1, p2), ops.sub(p3, p4));
    (
        Complex::new(ops.add(ei, fr), ops.sub(er, fi)),
        Complex::new(ops.sub(fr, ei), ops.add(er, fi)),
    )
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
        // Covers the AVX unpack/pack passes (pair loop and odd tails)
        // and the split-radix butterflies on machines that have AVX, and
        // the shared scalar path elsewhere: n = 2 … 4096.
        for log_n in 1..=12 {
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
    fn packed_transform_tallies_are_pinned() {
        // `(mults, adds, others)` of one forward and one inverse transform:
        // the split-radix core plus one unpack (pack) pass that forms each
        // conjugate pair once. The radix-2 core with a per-bin pass tallied
        // (44, 58, 0) / (44, 42, 8) at n = 8, (1036, 1546, 0) /
        // (1156, 1410, 128) at 128 and (5132, 7690, 0) / (5636, 7170, 512)
        // at 512.
        let pinned = [
            (8, (6, 28, 1), (14, 28, 0)),
            (128, (434, 1224, 1), (502, 1224, 0)),
            (512, (2418, 6280, 1), (2678, 6280, 0)),
        ];
        for (n, forward, inverse) in pinned {
            let fft = RealFft::new(FftKind::Tuned, n).unwrap();
            let counts = |ops: &OpCounter| (ops.mults(), ops.adds(), ops.others());
            let (mut fwd, mut inv) = (OpCounter::new(), OpCounter::new());
            let spec = fft.forward(&real_signal(n), &mut fwd);
            fft.inverse(&spec, &mut inv);
            assert_eq!(counts(&fwd), forward, "n {n} forward");
            assert_eq!(counts(&inv), inverse, "n {n} inverse");
            assert_eq!(fwd.divs() + inv.divs(), 0);
        }
    }

    #[test]
    fn counts_follow_their_closed_forms() {
        // With m = n/2 and lg the base-2 logarithm:
        // - the split-radix core: 4·m·lg m − 6·m + 8 for m ≥ 2;
        // - the forward unpack: 2 additions for X[0] and X[m], one
        //   negation for X[m/2], 16 per conjugate pair: 8·m − 13;
        // - the inverse pack and scale: 2 additions for Z[0], 2
        //   multiplications for Z[m/2], 14 per pair, 2·m for the scale:
        //   9·m − 10;
        // and for m = 1 no core, 2 (forward) and 4 (inverse).
        // The radix-2 core with a per-bin pass ran 5·m·lg m + 10·m + 22
        // (forward) and 5·m·lg m + 12·m + 6 (inverse).
        for bits in 1..=12 {
            let n = 1usize << bits;
            let m = n / 2;
            let lg = u64::from(m.trailing_zeros());
            let mu = m as u64;
            let fft = RealFft::new(FftKind::Tuned, n).unwrap();
            let mut core = OpCounter::new();
            let mut z = vec![Complex::new(0.5, -0.25); m];
            FftPlan::new(m).unwrap().forward(&mut z, &mut core);
            let core_want = if m >= 2 { 4 * mu * lg + 8 - 6 * mu } else { 0 };
            assert_eq!(core.flops(), core_want, "n {n} core");
            assert_eq!(core.others() + core.divs(), 0, "n {n} core");
            let (mut fwd, mut inv) = (OpCounter::new(), OpCounter::new());
            let spec = fft.forward(&real_signal(n), &mut fwd);
            fft.inverse(&spec, &mut inv);
            let (unpack, pack) = if m >= 2 {
                (8 * mu - 13, 9 * mu - 10)
            } else {
                (2, 4)
            };
            assert_eq!(fwd.flops() - core.flops(), unpack, "n {n} unpack");
            assert_eq!(fwd.others(), u64::from(m >= 2), "n {n} unpack negations");
            assert_eq!(inv.flops() - core.flops(), pack, "n {n} pack");
            assert_eq!(inv.others(), 0, "n {n} pack");
            if n >= 64 {
                let radix2 = (5 * mu * lg + 10 * mu + 22, 5 * mu * lg + 12 * mu + 6);
                assert!(5 * fwd.flops() <= 4 * radix2.0, "n {n} forward");
                assert!(5 * inv.flops() <= 4 * radix2.1, "n {n} inverse");
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
