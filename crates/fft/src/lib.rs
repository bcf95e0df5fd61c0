//! FFT substrate for `streamlin` — the stand-in for FFTW.
//!
//! The paper's frequency replacement (Chapter 4) converts linear nodes into
//! FFT-based convolution and links against FFTW for the transforms. This
//! crate provides that substrate from scratch, in two tiers that reproduce
//! the "simple FFT implementation" vs. "FFTW" comparison of Figure 5-12:
//!
//! * [`SimpleFft`] — a recursive radix-2 transform written directly from the
//!   thesis' §2.3 derivation (even/odd splitting with the `D` twiddle
//!   recurrence of Equation 2.16). It recomputes twiddles on every call and
//!   allocates per level, exactly the kind of straightforward implementation
//!   the paper benchmarks against.
//! * [`FftPlan`] / [`RealFft`] with [`FftKind::Tuned`] — a split-radix
//!   transform with a precomputed plan (twiddle tables, bit-reversal
//!   permutation) and a packed *real-input* transform in FFTW's
//!   half-complex format, which is what the paper's runtime interface uses
//!   ("one interesting optimization (directly due to FFTW) is using
//!   half-complex arrays", §4.4).
//!
//! Every runtime kernel threads a [`streamlin_support::OpCounter`] so that
//! executed multiplications and additions are tallied the same way the paper
//! counts x86 FP instructions. Plan construction (like FFTW planning) is not
//! counted.
//!
//! An `n`-point real forward transform is an `m = n/2`-point complex
//! split-radix transform of `z[k] = x[2k] + i·x[2k+1]` (`4·m·lg m − 6·m +
//! 8` operations) and one unpack pass that forms each conjugate pair of
//! bins `(k, m − k)` at once (`8·m − 13`): `2·n·lg n − n − 5` operations
//! in all for `n ≥ 4`, against `2.5·n·lg n + 2.5·n + 22` for the radix-2
//! core with a per-bin unpack it replaced (8 699 against 12 822 at `n =
//! 512`). The inverse packs each pair at once (`7·m − 10`), runs the same
//! core and scales (`2·m`): `2·n·lg n − n/2 − 2`. A split-radix
//! transform written for real input (Sorensen, Jones, Heideman & Burrus,
//! *Real-valued fast Fourier transform algorithms*, IEEE TASSP 1987) needs
//! about 7 200 at `n = 512`; the difference is the unpack pass.
//!
//! The packed real transforms move no data they do not need to: the
//! forward transform writes `z[bitrev[k]] = x[2k] + i·x[2k+1]`, and the
//! inverse writes each packed point, real and imaginary parts swapped, at
//! its bit-reversed index and swaps them back while it writes the real
//! samples (`swap(DFT(swap(Z))) = m·IDFT(Z)`), so neither runs a
//! permutation, a conjugation or a negation pass. The counted path (any
//! tally that counts) runs the scalar split-radix recursion; it is the
//! reference. The uncounted path ([`streamlin_support::NoCount`]) takes
//! AVX kernels where the CPU has them: blocks of up to 16 points two at a
//! time side by side in 4-wide registers, larger blocks two butterflies
//! per iteration, and the unpack/pack passes two pairs per iteration.
//! They evaluate every butterfly with the reference's operations in the
//! reference's order (separate multiplies, no fusion), so both paths
//! produce the same bits, and the counts do not depend on the path.
//! Both tiers are held to Higham's computed forward-error bound for
//! radix-2-class FFTs (the crate's `accuracy` tests).
//!
//! # Examples
//!
//! ```
//! use streamlin_fft::{FftKind, RealFft};
//! use streamlin_support::OpCounter;
//!
//! let fft = RealFft::new(FftKind::Tuned, 8).unwrap();
//! let mut ops = OpCounter::new();
//! let x = [1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0];
//! let spectrum = fft.forward(&x, &mut ops);
//! let back = fft.inverse(&spectrum, &mut ops);
//! for (a, b) in x.iter().zip(&back) {
//!     assert!((a - b).abs() < 1e-9);
//! }
//! ```

#[cfg(test)]
mod accuracy;
mod complex;
mod real;
mod reference;
mod simple;
mod tuned;

pub use complex::Complex;
pub use real::{
    halfcomplex_len, halfcomplex_mul, halfcomplex_mul_into, FftKind, RealFft, RealFftScratch,
};
pub use reference::dft_naive;
pub use simple::SimpleFft;
pub use tuned::FftPlan;

/// Errors produced by FFT construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FftError {
    /// The transform size must be a positive power of two.
    SizeNotPowerOfTwo(usize),
}

impl std::fmt::Display for FftError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FftError::SizeNotPowerOfTwo(n) => {
                write!(f, "fft size {n} is not a positive power of two")
            }
        }
    }
}

impl std::error::Error for FftError {}
