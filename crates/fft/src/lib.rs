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
//! * [`FftPlan`] / [`RealFft`] with [`FftKind::Tuned`] — an iterative
//!   Cooley-Tukey transform with a precomputed plan (twiddle tables,
//!   bit-reversal permutation) and a packed *real-input* transform in FFTW's
//!   half-complex format, which is what the paper's runtime interface uses
//!   ("one interesting optimization (directly due to FFTW) is using
//!   half-complex arrays", §4.4).
//!
//! Every runtime kernel threads a [`streamlin_support::OpCounter`] so that
//! executed multiplications and additions are tallied the same way the paper
//! counts x86 FP instructions. Plan construction (like FFTW planning) is not
//! counted.
//!
//! The packed real transforms move no data they do not need to: the
//! forward transform writes `z[bitrev[k]] = x[2k] + i·x[2k+1]`, and the
//! inverse writes each packed bin, conjugated, at its bit-reversed index
//! and applies the closing conjugate-and-scale while it writes the real
//! samples, so neither runs a permutation or a conjugate pass before the
//! butterflies. The counted path (any tally that counts) runs the scalar
//! butterflies, stage by stage; it is the reference. The uncounted path
//! ([`streamlin_support::NoCount`]) takes AVX kernels where the CPU has
//! them: stages 1–2 fused into one pass over 4-point blocks, the later
//! stages two per pass over `2·len`-point blocks. They evaluate every
//! butterfly with the reference's operations in the reference's order
//! (separate multiplies, no fusion, the `j == 0` multiply skipped), so
//! both paths produce the same bits, and the counts do not depend on the
//! path.
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
