//! The tuned, planned FFT — `streamlin`'s FFTW stand-in.
//!
//! The complex core is the split-radix decimation-in-time transform (Yavne
//! 1968; Duhamel & Hollmann 1984). An `n`-point DFT is one `n/2`-point DFT
//! of the even samples and two `n/4`-point DFTs of the samples `4j + 1` and
//! `4j + 3`, joined by `n/4` "L-shaped" butterflies. A butterfly at `k`
//! multiplies by `W^k` and `W^{3k}`, except at `k = 0` (no multiply) and
//! at `k = n/8`, where `W^{n/8} = (1 − i)/√2` costs two additions and two
//! multiplications instead of a complex product. The products by `∓i` are
//! folded into the closing additions, so nothing is negated. Counting a
//! complex product as 4 multiplications and 2 additions, an `n`-point
//! transform runs `4·n·lg n − 6·n + 8` operations for `n ≥ 2`, all of
//! them additions and multiplications.

use crate::{Complex, FftError};
#[cfg(target_arch = "x86_64")]
use streamlin_support::NoCount;
use streamlin_support::Tally;

/// A precomputed plan for an in-place split-radix FFT.
///
/// Like an FFTW plan, construction precomputes everything that does not
/// depend on the data: the bit-reversal permutation and a flat twiddle
/// table. Execution is in-place and allocation-free: the permutation puts
/// the samples where the recursion wants them (the even samples in the
/// first half, `4j + 1` in the third quarter, `4j + 3` in the last), so
/// each sub-transform works on a contiguous block. It runs about 40 %
/// fewer multiplications than [`crate::SimpleFft`]; the packed real
/// transform in [`crate::RealFft`] halves them again.
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
/// assert_eq!(ops.flops(), 4 * 8 * 3 - 6 * 8 + 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FftPlan {
    n: usize,
    /// For each butterfly size `len` (`4 ≤ len ≤ n`) and `k < len/4`:
    /// `twiddle[len/2 + k] = W_len^k` and `twiddle[3·len/4 + k] =
    /// W_len^{3k}`.
    twiddle: Vec<Complex>,
    bitrev: Vec<u32>,
    /// `(offset, len)` of every block of the recursion down to
    /// [`SMALL_BLOCK`] points, in the order the uncounted path runs them:
    /// all blocks of one size before the next size up (so children come
    /// before parents, and a butterfly never reloads what the previous one
    /// has just stored: a 4-wide load of two fresh 2-wide stores cannot be
    /// forwarded and waits for them to retire).
    blocks: Vec<(u32, u32)>,
    /// Runtime AVX support (checked once; used by the uncounted path).
    use_avx: bool,
}

/// Blocks at most this long run two at a time, side by side in 4-wide
/// registers, on the uncounted path: their butterflies are too few to
/// fill a vector loop of their own.
const SMALL_BLOCK: usize = 16;

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
        let mut len = 4;
        while len <= n {
            let angle = -2.0 * std::f64::consts::PI / len as f64;
            for k in 0..len / 4 {
                twiddle[len / 2 + k] = Complex::from_polar(angle * k as f64);
                twiddle[3 * len / 4 + k] = Complex::from_polar(angle * (3 * k) as f64);
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
        let mut blocks = Vec::new();
        schedule(0, n as u32, &mut blocks);
        blocks.sort_by_key(|&(_, len)| len);
        Ok(FftPlan {
            n,
            twiddle,
            bitrev,
            blocks,
            use_avx,
        })
    }

    /// [`Self::new`] with twiddle `index` scaled by `1 + rel`: a deliberately
    /// broken plan for the accuracy tests to catch.
    #[cfg(test)]
    pub(crate) fn with_twiddle_error(n: usize, index: usize, rel: f64) -> Self {
        let mut plan = FftPlan::new(n).expect("power of two");
        let w = plan.twiddle[index];
        plan.twiddle[index] = Complex::new(w.re * (1.0 + rel), w.im * (1.0 + rel));
        plan
    }

    /// The transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True only for the degenerate 0-point plan (which cannot be built).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Bytes of its twiddle, bit-reversal and block tables, counted from
    /// their lengths.
    pub fn table_bytes(&self) -> usize {
        self.twiddle.len() * std::mem::size_of::<Complex>()
            + self.bitrev.len() * 4
            + self.blocks.len() * 8
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

    /// The scalar split-radix recursion over one bit-reversed block,
    /// counted through the tally: the reference for the AVX path.
    fn butterflies<T: Tally>(&self, data: &mut [Complex], ops: &mut T) {
        let n = data.len();
        if n <= 2 {
            if n == 2 {
                let (u, v) = (data[0], data[1]);
                data[0] = u.add_counted(v, ops);
                data[1] = u.sub_counted(v, ops);
            }
            return;
        }
        let (h, q) = (n / 2, n / 4);
        self.butterflies(&mut data[..h], ops);
        self.butterflies(&mut data[h..h + q], ops);
        self.butterflies(&mut data[h + q..], ops);
        let tw = &self.twiddle[h..n];
        for k in 0..q {
            ell(data, tw, k, ops);
        }
    }

    /// The uncounted butterflies: the blocks of the recursion in the
    /// plan's order, smallest first. Blocks of 4 to
    /// [`SMALL_BLOCK`] points run two of one size at a time, side by side
    /// in 4-wide registers ([`leaf_pair`]; a lone one beside itself), and
    /// a larger block joins its sub-transforms two butterflies per
    /// iteration ([`FftPlan::join_avx`]). Each butterfly evaluates exactly
    /// [`ell`]'s operations in its order (separate multiplies, no fusion;
    /// `x + (−y)` where it subtracts, the same IEEE operation), so both
    /// paths produce the same bits.
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn butterflies_avx(&self, data: &mut [Complex]) {
        if self.n <= 2 {
            self.butterflies(data, &mut NoCount);
            return;
        }
        assert_eq!(data.len(), self.n);
        let p = data.as_mut_ptr() as *mut f64;
        let ptr = |at: u32| p.add(2 * at as usize);
        let mut i = 0;
        while let Some(&(at, n)) = self.blocks.get(i) {
            if n as usize > SMALL_BLOCK {
                self.join_avx(&mut data[at as usize..(at + n) as usize]);
                i += 1;
                continue;
            }
            // `blocks` tiles `0..self.n`: every block lies inside `data`.
            let next = self.blocks.get(i + 1).filter(|&&(_, len)| len == n);
            let (a, b) = (ptr(at), ptr(next.map_or(at, |&(at2, _)| at2)));
            match n {
                16 => leaf_pair::<16>(a, b, &self.twiddle),
                8 => leaf_pair::<8>(a, b, &self.twiddle),
                _ => leaf_pair::<4>(a, b, &self.twiddle),
            }
            i += 1 + usize::from(next.is_some());
        }
    }

    /// The `n/4` butterflies of a block of `n ≥ 32` points, for `k` and
    /// `k + 1` per iteration. The pair holding `k = 0` keeps `Z[0]`,
    /// `Z'[0]` unmultiplied in its first lane, and the pair holding `k =
    /// n/8` takes that lane from [`lanes_w8`].
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX support at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    #[inline]
    unsafe fn join_avx(&self, data: &mut [Complex]) {
        let n = data.len();
        let (h, q, e) = (n / 2, n / 4, n / 8);
        let tw = &self.twiddle[h..n];
        let p = data.as_mut_ptr() as *mut f64;
        let [u0, u1, z0, z1] = [0, q, h, h + q].map(|at| p.add(2 * at));
        let (t1, t3) = (tw.as_ptr() as *const f64, tw[q..].as_ptr() as *const f64);
        let products = |k: usize| {
            let (z, w) = (load(z0, k), load(z1, k));
            (z, w, cmul(z, load(t1, k)), cmul(w, load(t3, k)))
        };
        let join = |k: usize, s: __m256d, d: __m256d| {
            let out = close(load(u0, k), load(u1, k), s, d);
            for (at, v) in [u0, u1, z0, z1].into_iter().zip(out) {
                store(at, k, v);
            }
        };
        let (z, w, a, b) = products(0);
        let (a, b) = (_mm256_blend_pd(a, z, 0b0011), _mm256_blend_pd(b, w, 0b0011));
        join(0, add(a, b), sub(a, b));
        let (z, w, a, b) = products(e);
        let (s8, d8) = lanes_w8(z, w);
        let (s, d) = (add(a, b), sub(a, b));
        join(
            e,
            _mm256_blend_pd(s, s8, 0b0011),
            _mm256_blend_pd(d, d8, 0b0011),
        );
        // `e` is even, so the pairs from 2 skip `e` and end at `q = 2·e`.
        for k in (2..e).step_by(2).chain((e + 2..q).step_by(2)) {
            let (_, _, a, b) = products(k);
            join(k, add(a, b), sub(a, b));
        }
    }

    /// In-place inverse DFT with 1/N normalization.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the planned size.
    pub fn inverse<T: Tally>(&self, data: &mut [Complex], ops: &mut T) {
        // swap(DFT(swap(z))) = n·IDFT(z), with swap(a + ib) = b + ia: the
        // conjugations of the textbook identity would be negations.
        for z in data.iter_mut() {
            *z = Complex::new(z.im, z.re);
        }
        self.forward(data, ops);
        let inv_n = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = Complex::new(ops.mul(z.im, inv_n), ops.mul(z.re, inv_n));
        }
    }
}

/// Two blocks of `N` points (4, 8 or 16) at once, block `a` in the low
/// halves of the registers and block `b` in the high halves:
/// [`FftPlan::butterflies`]' operations, lane by lane. `tw` is the plan's
/// table. `a` and `b` may be the same block: both lanes then compute and
/// store the same values.
///
/// # Safety
///
/// AVX must be available, and `a[..2·N]`, `b[..2·N]` must be valid.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn leaf_pair<const N: usize>(a: *mut f64, b: *mut f64, tw: &[Complex]) {
    let mut v = [_mm256_setzero_pd(); N];
    for (j, x) in v.iter_mut().enumerate() {
        *x = _mm256_loadu2_m128d(b.add(2 * j), a.add(2 * j));
    }
    match N {
        16 => lanes16(&mut v, tw),
        8 => lanes8(&mut v),
        _ => lanes4(&mut v),
    }
    for (j, x) in v.iter().enumerate() {
        _mm256_storeu2_m128d(b.add(2 * j), a.add(2 * j), *x);
    }
}

/// The 16-point block on paired lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn lanes16(v: &mut [__m256d], tw: &[Complex]) {
    lanes8(&mut v[..8]);
    lanes4(&mut v[8..12]);
    lanes4(&mut v[12..16]);
    let (s, d) = (add(v[8], v[12]), sub(v[8], v[12]));
    lanes_join(v, [0, 4, 8, 12], s, d);
    let both = |w: Complex| _mm256_set_pd(w.im, w.re, w.im, w.re);
    for k in [1, 3] {
        let a = cmul(v[8 + k], both(tw[8 + k]));
        let b = cmul(v[12 + k], both(tw[12 + k]));
        lanes_join(v, [k, 4 + k, 8 + k, 12 + k], add(a, b), sub(a, b));
    }
    let (s, d) = lanes_w8(v[10], v[14]);
    lanes_join(v, [2, 6, 10, 14], s, d);
}

/// The 8-point block on paired lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn lanes8(v: &mut [__m256d]) {
    lanes4(&mut v[..4]);
    (v[4], v[5]) = (add(v[4], v[5]), sub(v[4], v[5]));
    (v[6], v[7]) = (add(v[6], v[7]), sub(v[6], v[7]));
    let (s, d) = (add(v[4], v[6]), sub(v[4], v[6]));
    lanes_join(v, [0, 2, 4, 6], s, d);
    let (s, d) = lanes_w8(v[5], v[7]);
    lanes_join(v, [1, 3, 5, 7], s, d);
}

/// `s` and `d` of the `k = n/8` butterfly on paired lanes, as [`ell`]
/// computes them: `(z.re + z.im, z.im − z.re)` and `(w.im − w.re,
/// −(w.re + w.im))`, added and subtracted, scaled by `√½`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn lanes_w8(z: __m256d, w: __m256d) -> (__m256d, __m256d) {
    let a = add(z, _mm256_xor_pd(_mm256_permute_pd(z, 0b0101), NEG_IM));
    let w_sw = _mm256_permute_pd(w, 0b0101);
    let b = _mm256_blend_pd(sub(w_sw, w), _mm256_xor_pd(add(w, w_sw), NEG), 0b1010);
    let c = _mm256_set1_pd(std::f64::consts::FRAC_1_SQRT_2);
    (_mm256_mul_pd(add(a, b), c), _mm256_mul_pd(sub(a, b), c))
}

/// The 4-point block on paired lanes: a 2-point block and the `k = 0`
/// butterfly.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn lanes4(v: &mut [__m256d]) {
    (v[0], v[1]) = (add(v[0], v[1]), sub(v[0], v[1]));
    let (s, d) = (add(v[2], v[3]), sub(v[2], v[3]));
    lanes_join(v, [0, 1, 2, 3], s, d);
}

/// The closing additions of [`ell`] on two values: `[u0 + s, u1 − i·d,
/// u0 − s, u1 + i·d]`, the outputs at `k`, `k + n/4`, `k + n/2` and `k +
/// 3n/4`, with `i·d = (−d.im, d.re)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn close(u0: __m256d, u1: __m256d, s: __m256d, d: __m256d) -> [__m256d; 4] {
    let id = _mm256_xor_pd(_mm256_permute_pd(d, 0b0101), NEG_RE);
    [add(u0, s), sub(u1, id), sub(u0, s), add(u1, id)]
}

/// [`close`] on the registers `v[at[0]]`, `v[at[1]]` (the `U` values),
/// writing the outputs over `v[at[0..4]]`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn lanes_join(v: &mut [__m256d], at: [usize; 4], s: __m256d, d: __m256d) {
    let out = close(v[at[0]], v[at[1]], s, d);
    for (i, x) in at.into_iter().zip(out) {
        v[i] = x;
    }
}

/// Appends the blocks of an `n`-point recursion at `at`, children first.
fn schedule(at: u32, n: u32, out: &mut Vec<(u32, u32)>) {
    if n > SMALL_BLOCK as u32 {
        schedule(at, n / 2, out);
        schedule(at + n / 2, n / 4, out);
        schedule(at + 3 * n / 4, n / 4, out);
    }
    out.push((at, n));
}

/// The L-shaped butterfly at `k` of an `n`-point block (`n = data.len()`,
/// `k < n/4`) whose halves already hold the DFTs `U` (`n/2` points), `Z`
/// and `Z'` (`n/4` points each): with `s = W^k·Z[k] + W^{3k}·Z'[k]` and
/// `d = W^k·Z[k] − W^{3k}·Z'[k]`, it writes `U[k] ± s` at `k` and
/// `k + n/2`, and `U[k + n/4] ∓ i·d` at `k + n/4` and `k + 3n/4`.
/// `tw` is the block's slice of the plan's table (`W^k`, then `W^{3k}`).
/// Every butterfly of the counted path runs here; the AVX kernels repeat
/// its expressions lane by lane.
#[inline(always)]
fn ell<T: Tally>(data: &mut [Complex], tw: &[Complex], k: usize, ops: &mut T) {
    let n = data.len();
    let (h, q) = (n / 2, n / 4);
    let (z, w) = (data[h + k], data[h + q + k]);
    let (s, d) = if k == 0 {
        (z.add_counted(w, ops), z.sub_counted(w, ops))
    } else if 8 * k == n {
        // W^k = (1 − i)/√2 and W^{3k} = −(1 + i)/√2: the products are
        // √½·(z.re + z.im, z.im − z.re) and √½·(w.im − w.re, −w.re − w.im).
        let (pz, qz) = (ops.add(z.re, z.im), ops.sub(z.im, z.re));
        let (rw, sw) = (ops.sub(w.im, w.re), ops.add(w.re, w.im));
        let c = std::f64::consts::FRAC_1_SQRT_2;
        (
            Complex::new(ops.add(pz, rw), ops.sub(qz, sw)).scale_counted(c, ops),
            Complex::new(ops.sub(pz, rw), ops.add(qz, sw)).scale_counted(c, ops),
        )
    } else {
        let a = z.mul_counted(tw[k], ops);
        let b = w.mul_counted(tw[q + k], ops);
        (a.add_counted(b, ops), a.sub_counted(b, ops))
    };
    let (u0, u1) = (data[k], data[q + k]);
    data[k] = u0.add_counted(s, ops);
    data[h + k] = u0.sub_counted(s, ops);
    data[q + k] = Complex::new(ops.add(u1.re, d.im), ops.sub(u1.im, d.re));
    data[h + q + k] = Complex::new(ops.sub(u1.re, d.im), ops.add(u1.im, d.re));
}

/// The 4-wide kernels' primitives, each over two complex values: a load
/// and a store at `p[2·j..2·j + 4]`, and the complex product exactly as
/// [`Complex::mul_counted`] evaluates it, `(vre·tre − vim·tim, vre·tim +
/// vim·tre)`: separate multiplies, no fusion.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx {
    use std::arch::x86_64::*;

    /// # Safety
    ///
    /// `p[2·j..2·j + 4]` must be readable.
    #[inline]
    #[target_feature(enable = "avx")]
    pub(crate) unsafe fn load(p: *const f64, j: usize) -> __m256d {
        _mm256_loadu_pd(p.add(2 * j))
    }

    /// # Safety
    ///
    /// `p[2·j..2·j + 4]` must be writable.
    #[inline]
    #[target_feature(enable = "avx")]
    pub(crate) unsafe fn store(p: *mut f64, j: usize, v: __m256d) {
        _mm256_storeu_pd(p.add(2 * j), v)
    }

    #[inline]
    #[target_feature(enable = "avx")]
    pub(crate) fn add(a: __m256d, b: __m256d) -> __m256d {
        _mm256_add_pd(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx")]
    pub(crate) fn sub(a: __m256d, b: __m256d) -> __m256d {
        _mm256_sub_pd(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx")]
    pub(crate) fn cmul(v: __m256d, t: __m256d) -> __m256d {
        let v_re = _mm256_movedup_pd(v);
        let v_im = _mm256_permute_pd(v, 0b1111);
        let t_sw = _mm256_permute_pd(t, 0b0101);
        _mm256_addsub_pd(_mm256_mul_pd(v_re, t), _mm256_mul_pd(v_im, t_sw))
    }
}
#[cfg(target_arch = "x86_64")]
use avx::{add, cmul, load, store, sub};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{
    __m256d, _mm256_blend_pd, _mm256_loadu2_m128d, _mm256_mul_pd, _mm256_permute_pd,
    _mm256_set1_pd, _mm256_set_pd, _mm256_setzero_pd, _mm256_storeu2_m128d, _mm256_xor_pd,
};

/// Sign masks that negate the real lanes, the imaginary lanes, or all
/// four (as bit patterns: `-0.0` is the sign bit alone).
#[cfg(target_arch = "x86_64")]
const NEG_RE: __m256d = unsafe { std::mem::transmute([-0.0f64, 0.0, -0.0, 0.0]) };
#[cfg(target_arch = "x86_64")]
const NEG_IM: __m256d = unsafe { std::mem::transmute([0.0f64, -0.0, 0.0, -0.0]) };
#[cfg(target_arch = "x86_64")]
const NEG: __m256d = unsafe { std::mem::transmute([-0.0f64; 4]) };

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
        // Covers the AVX dispatch (paired and lone 4-, 8- and 16-point
        // blocks, the joins of larger blocks with their k = 0 and k = n/8
        // pairs) on machines that have it, and the shared scalar path
        // everywhere else.
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
