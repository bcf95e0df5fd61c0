//! Frequency replacement (paper §4.1, Transformations 5 and 6).
//!
//! A linear node is a bank of convolutions (Claim 4.1): output column `j`
//! convolves the input with the `e` coefficients of `A[*, u−1−j]`. For
//! large `e` it is cheaper to hoist the computation into the frequency
//! domain: take an `N`-point real FFT of an input block, multiply by the
//! pre-transformed coefficient spectra `H_j`, and inverse-transform —
//! `O(N·lg N)` instead of `O(N²)` per block.
//!
//! Two code-generation strategies are implemented, exactly as in the
//! paper:
//!
//! * **Naive** (Transformation 5): each firing reads `m + e − 1` inputs,
//!   pops `m`, pushes `u·m`, and throws away the `e − 1` partial sums at
//!   each edge of the block.
//! * **Optimized** (Transformation 6): the partial sums are carried in a
//!   `(e−1) × u` buffer between firings, so every input item contributes
//!   exactly one output per column (`pop = push/u = m + e − 1`); the first
//!   firing (`initWork`) primes the buffer.
//!
//! Nodes with `pop > 1` get a separate *decimator* stage that keeps the
//! first `u` of every `u·o` outputs (the paper's `Decimator(o, u)`).

use std::sync::Arc;

use streamlin_fft::{halfcomplex_mul_into, FftKind, RealFft, RealFftScratch};
use streamlin_support::num::next_pow2;
use streamlin_support::{OpCounter, Tally};

use crate::node::LinearNode;

/// Errors from frequency-spec construction.
#[derive(Debug, Clone, PartialEq)]
pub enum FreqError {
    /// The node has no inputs or no outputs to convolve.
    NotApplicable(String),
    /// An explicit FFT size was too small or not a power of two
    /// (`N ≥ 2e` is required so that `m = N − 2e + 1 ≥ 1`).
    BadFftSize {
        /// Requested size.
        n: usize,
        /// Minimum legal size for this node.
        min: usize,
    },
}

impl std::fmt::Display for FreqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FreqError::NotApplicable(m) => write!(f, "frequency replacement not applicable: {m}"),
            FreqError::BadFftSize { n, min } => {
                write!(f, "fft size {n} invalid (need a power of two >= {min})")
            }
        }
    }
}

impl std::error::Error for FreqError {}

/// Which transformation generates the code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FreqStrategy {
    /// Transformation 5: discard edge partials.
    Naive,
    /// Transformation 6: carry edge partials across firings.
    Optimized,
}

/// A frequency-domain implementation plan for a linear node. The node,
/// the coefficient spectra and the transform's twiddles are one immutable
/// table behind an [`Arc`]: cloning a plan, or a [`FreqExec`] over it,
/// shares them.
#[derive(Debug, Clone, PartialEq)]
pub struct FreqSpec {
    strategy: FreqStrategy,
    n: usize,
    m: usize,
    table: Arc<FreqTable>,
}

/// What every executor of one plan reads and none writes.
#[derive(Debug, PartialEq)]
struct FreqTable {
    node: LinearNode,
    /// Half-complex spectra of the coefficient columns, one per output
    /// (index = output order `j`). Computed at construction — the analogue
    /// of the paper's `init { H[*,j] ← FFT(N, A[*, u−1−j]) }`, uncounted
    /// like FFTW planning.
    h: Vec<Vec<f64>>,
    /// The `N`-point transform the spectra were taken with.
    fft: RealFft,
}

#[cfg(test)]
thread_local! {
    /// Specs constructed by this thread — lets the selection tests assert
    /// that only chosen regions are ever planned.
    pub(crate) static SPECS_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl FreqSpec {
    /// Plans a frequency implementation of `node`.
    ///
    /// `n_override` forces the FFT size (used by the Figure 5-12 sweep);
    /// by default `N` is the first power of two `≥ 2e` and
    /// `m = N − 2e + 1`, the choice §4.1.2 motivates.
    ///
    /// # Errors
    ///
    /// * [`FreqError::NotApplicable`] if the node peeks nothing or pushes
    ///   nothing.
    /// * [`FreqError::BadFftSize`] for an invalid override.
    pub fn new(
        node: &LinearNode,
        strategy: FreqStrategy,
        kind: FftKind,
        n_override: Option<usize>,
    ) -> Result<Self, FreqError> {
        #[cfg(test)]
        SPECS_BUILT.with(|c| c.set(c.get() + 1));
        let (e, u) = (node.peek(), node.push());
        if e == 0 || u == 0 || node.pop() == 0 {
            return Err(FreqError::NotApplicable(format!(
                "node needs peek > 0, pop > 0 and push > 0 (got {e}, {}, {u})",
                node.pop()
            )));
        }
        let min = next_pow2(2 * e).max(2);
        let n = match n_override {
            None => min,
            Some(n) => {
                if !n.is_power_of_two() || n < 2 * e {
                    return Err(FreqError::BadFftSize { n, min });
                }
                n
            }
        };
        let m = n - 2 * e + 1;
        let fft = RealFft::new(kind, n).expect("n validated as a power of two");
        let mut plan_ops = OpCounter::new(); // planning is not counted
        let mut h = Vec::with_capacity(u);
        for j in 0..u {
            // Convolution kernel for output j: k-th tap multiplies
            // peek(e-1-k), i.e. the column read top-to-bottom.
            let mut kernel = vec![0.0; n];
            for (k, slot) in kernel.iter_mut().take(e).enumerate() {
                *slot = node.coeff(e - 1 - k, j);
            }
            h.push(fft.forward(&kernel, &mut plan_ops));
        }
        Ok(FreqSpec {
            strategy,
            n,
            m,
            table: Arc::new(FreqTable {
                node: node.clone(),
                h,
                fft,
            }),
        })
    }

    /// The underlying linear node.
    pub fn node(&self) -> &LinearNode {
        &self.table.node
    }

    /// The shared table — identity and bytes (coefficients, spectra and
    /// twiddles, counted from their lengths) — that every clone of this
    /// plan holds.
    pub fn table(&self) -> (*const (), usize) {
        let t = &*self.table;
        let spectra: usize = t.h.iter().map(Vec::len).sum();
        let bytes = t.node.table_bytes() + 8 * spectra + t.fft.table_bytes();
        (Arc::as_ptr(&self.table).cast(), bytes)
    }

    /// The FFT size `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The block advance `m = N − 2e + 1`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Which transformation this plan uses.
    pub fn strategy(&self) -> FreqStrategy {
        self.strategy
    }

    /// `(peek, pop, push)` of the steady-state work phase of the FFT
    /// stage (before decimation).
    pub fn work_rates(&self) -> (usize, usize, usize) {
        let (e, u) = (self.node().peek(), self.node().push());
        let r = self.m + e - 1;
        match self.strategy {
            FreqStrategy::Naive => (r, self.m, u * self.m),
            FreqStrategy::Optimized => (r, r, u * r),
        }
    }

    /// `(peek, pop, push)` of the first firing, when it differs
    /// (Transformation 6's `initWork`).
    pub fn init_work_rates(&self) -> Option<(usize, usize, usize)> {
        match self.strategy {
            FreqStrategy::Naive => None,
            FreqStrategy::Optimized => {
                let (e, u) = (self.node().peek(), self.node().push());
                let r = self.m + e - 1;
                Some((r, r, u * self.m))
            }
        }
    }

    /// `(pop, push)` of the decimator stage, or `None` when `pop == 1`
    /// (no decimation needed).
    pub fn decimator_rates(&self) -> Option<(usize, usize)> {
        let (o, u) = (self.node().pop(), self.node().push());
        (o > 1).then_some((u * o, u))
    }
}

/// A running instance of a frequency plan: the FFT stage's state machine.
///
/// # Examples
///
/// ```
/// use streamlin_core::frequency::{FreqExec, FreqSpec, FreqStrategy};
/// use streamlin_core::node::LinearNode;
/// use streamlin_fft::FftKind;
/// use streamlin_support::OpCounter;
///
/// let node = LinearNode::fir(&[1.0, 2.0, 3.0, 4.0]);
/// let spec = FreqSpec::new(&node, FreqStrategy::Optimized, FftKind::Tuned, None).unwrap();
/// let mut exec = FreqExec::new(spec);
/// let mut ops = OpCounter::new();
/// let input: Vec<f64> = (0..64).map(|i| i as f64).collect();
/// let got = exec.run_over(&input, &mut ops);
/// let want = node.fire_sequence(&input);
/// let n = got.len().min(want.len());
/// for i in 0..n {
///     assert!((got[i] - want[i]).abs() < 1e-6);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FreqExec {
    spec: FreqSpec,
    /// Edge partials per output column (Optimized only), length `e − 1`.
    partials: Vec<Vec<f64>>,
    first: bool,
    /// Zero-padded input block (`N` samples); the tail past the peek
    /// window stays zero, so only the window is rewritten per firing.
    block: Vec<f64>,
    /// Forward spectrum of the block.
    spectrum: Vec<f64>,
    /// Column spectrum product `X .* H_j` (reused across columns).
    product: Vec<f64>,
    /// Per-column time-domain blocks.
    columns: Vec<Vec<f64>>,
    /// Complex workspace shared by the packed transforms.
    scratch: RealFftScratch,
}

impl FreqExec {
    /// Creates an executor over a plan. It shares the plan's table; its
    /// own buffers are allocated by the first firing and reused after, so
    /// a later firing performs no allocation, and a clone of an executor that has not fired copies none.
    pub fn new(spec: FreqSpec) -> Self {
        FreqExec {
            spec,
            partials: Vec::new(),
            first: true,
            block: Vec::new(),
            spectrum: Vec::new(),
            product: Vec::new(),
            columns: Vec::new(),
            scratch: RealFftScratch::default(),
        }
    }

    /// The plan.
    pub fn spec(&self) -> &FreqSpec {
        &self.spec
    }

    /// `(peek, pop, push)` of the *next* firing.
    pub fn current_rates(&self) -> (usize, usize, usize) {
        if self.first {
            self.spec
                .init_work_rates()
                .unwrap_or_else(|| self.spec.work_rates())
        } else {
            self.spec.work_rates()
        }
    }

    /// Fires once: `window` holds `peek` items (of the current phase);
    /// appends the pushed values to `out`. The caller advances its tape by
    /// the phase's pop rate.
    ///
    /// # Panics
    ///
    /// Panics if the window length does not match the current peek rate.
    pub fn fire<T: Tally>(&mut self, window: &[f64], out: &mut Vec<f64>, ops: &mut T) {
        let (peek, _pop, push) = self.current_rates();
        assert_eq!(
            window.len(),
            peek,
            "window must match the current peek rate"
        );
        let table = &*self.spec.table;
        let e = table.node.peek();
        let u = table.node.push();
        let m = self.spec.m;
        if self.first {
            self.block = vec![0.0; self.spec.n];
            self.columns = vec![Vec::new(); u];
            self.partials = vec![vec![0.0; e - 1]; u];
        }

        // x ← window zero-padded to N; X ← FFT(N, x). The block buffer is
        // owned by the executor: its tail past the (constant) peek window
        // is zero from the first firing on, so only the window is copied.
        self.block[..window.len()].copy_from_slice(window);
        let fft = &table.fft;
        fft.forward_into(&self.block, &mut self.spectrum, &mut self.scratch, ops);

        // Per column: Y = X .* H_j ; y = IFFT(Y) — into the executor's
        // reused column buffers.
        for j in 0..u {
            halfcomplex_mul_into(&self.spectrum, &table.h[j], &mut self.product, ops);
            fft.inverse_into(&self.product, &mut self.columns[j], &mut self.scratch, ops);
        }
        let columns = &self.columns;

        out.reserve(push);
        let node = &table.node;
        let push_val = |out: &mut Vec<f64>, ops: &mut T, j: usize, v: f64| {
            let b = node.offset(j);
            if b != 0.0 {
                out.push(ops.add(v, b));
            } else {
                out.push(v);
            }
        };
        match self.spec.strategy {
            FreqStrategy::Naive => {
                for i in 0..m {
                    for (j, col) in columns.iter().enumerate() {
                        push_val(out, ops, j, col[i + e - 1]);
                    }
                }
            }
            FreqStrategy::Optimized => {
                if !self.first {
                    // Complete the previous block's edge partials.
                    for i in 0..e - 1 {
                        for (j, col) in columns.iter().enumerate() {
                            let v = ops.add(col[i], self.partials[j][i]);
                            push_val(out, ops, j, v);
                        }
                    }
                }
                for i in 0..m {
                    for (j, col) in columns.iter().enumerate() {
                        push_val(out, ops, j, col[i + e - 1]);
                    }
                }
                for (j, col) in columns.iter().enumerate() {
                    for i in 0..e - 1 {
                        self.partials[j][i] = col[m + e - 1 + i];
                    }
                }
            }
        }
        self.first = false;
    }

    /// Convenience: runs the full stage (including decimation for
    /// `pop > 1`) over an input tape, mirroring channel semantics. Used by
    /// tests and by the measurement harness for node-level experiments.
    pub fn run_over<T: Tally>(&mut self, input: &[f64], ops: &mut T) -> Vec<f64> {
        let u = self.spec.node().push();
        let o = self.spec.node().pop();
        let mut raw = Vec::new();
        let mut pos = 0;
        loop {
            let (peek, pop, _push) = self.current_rates();
            if pos + peek > input.len() {
                break;
            }
            self.fire(&input[pos..pos + peek], &mut raw, ops);
            pos += pop;
        }
        if o <= 1 {
            return raw;
        }
        // Decimator(o, u): keep the first u of every u·o outputs.
        raw.chunks(u)
            .enumerate()
            .filter(|(g, _)| g % o == 0)
            .flat_map(|(_, chunk)| chunk.iter().copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 3 + 5) % 17) as f64 - 8.0).collect()
    }

    fn assert_freq_equiv(node: &LinearNode, strategy: FreqStrategy, kind: FftKind) {
        let spec = FreqSpec::new(node, strategy, kind, None).unwrap();
        let mut exec = FreqExec::new(spec);
        let mut ops = OpCounter::new();
        let x = input(256);
        let got = exec.run_over(&x, &mut ops);
        let want = node.fire_sequence(&x);
        let n = got.len().min(want.len());
        assert!(n > 0, "no output to compare");
        for i in 0..n {
            assert!(
                (got[i] - want[i]).abs() < 1e-6,
                "{strategy:?}/{kind:?} mismatch at {i}: {} vs {}",
                got[i],
                want[i]
            );
        }
    }

    #[test]
    fn all_strategies_match_direct_fir() {
        let node = LinearNode::fir(&[1.0, -2.0, 3.0, 0.5, 0.25]);
        for strategy in [FreqStrategy::Naive, FreqStrategy::Optimized] {
            for kind in [FftKind::Simple, FftKind::Tuned] {
                assert_freq_equiv(&node, strategy, kind);
            }
        }
    }

    #[test]
    fn multi_output_nodes_interleave_columns() {
        let node = LinearNode::from_coeffs(
            3,
            1,
            2,
            |i, j| (i as f64 + 1.0) * if j == 0 { 1.0 } else { -0.5 },
            &[0.25, -0.75],
        );
        for strategy in [FreqStrategy::Naive, FreqStrategy::Optimized] {
            assert_freq_equiv(&node, strategy, FftKind::Tuned);
        }
    }

    #[test]
    fn decimated_nodes_match() {
        // pop 3: a decimating FIR.
        let node = LinearNode::from_coeffs(6, 3, 1, |i, _| (i * i) as f64 * 0.1, &[1.0]);
        for strategy in [FreqStrategy::Naive, FreqStrategy::Optimized] {
            assert_freq_equiv(&node, strategy, FftKind::Tuned);
        }
    }

    #[test]
    fn default_fft_size_follows_the_paper() {
        // N = 2^ceil(lg 2e), m = N - 2e + 1.
        let node = LinearNode::fir(&[1.0; 5]);
        let spec = FreqSpec::new(&node, FreqStrategy::Naive, FftKind::Tuned, None).unwrap();
        assert_eq!(spec.n(), 16);
        assert_eq!(spec.m(), 7);
        let node256 = LinearNode::fir(&vec![1.0; 256]);
        let spec256 = FreqSpec::new(&node256, FreqStrategy::Naive, FftKind::Tuned, None).unwrap();
        assert_eq!(spec256.n(), 512);
        assert_eq!(spec256.m(), 1);
    }

    #[test]
    fn fft_size_override_is_validated() {
        let node = LinearNode::fir(&[1.0; 8]);
        assert!(FreqSpec::new(&node, FreqStrategy::Naive, FftKind::Tuned, Some(8)).is_err());
        assert!(FreqSpec::new(&node, FreqStrategy::Naive, FftKind::Tuned, Some(24)).is_err());
        let spec = FreqSpec::new(&node, FreqStrategy::Naive, FftKind::Tuned, Some(64)).unwrap();
        assert_eq!(spec.m(), 49);
        // Oversized transforms stay correct.
        let spec2 =
            FreqSpec::new(&node, FreqStrategy::Optimized, FftKind::Tuned, Some(64)).unwrap();
        let mut exec = FreqExec::new(spec2);
        let mut ops = OpCounter::new();
        let x = input(300);
        let got = exec.run_over(&x, &mut ops);
        let want = node.fire_sequence(&x);
        for i in 0..got.len().min(want.len()) {
            assert!((got[i] - want[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn rates_match_the_transformations() {
        let node = LinearNode::fir(&[1.0; 4]); // e=4 -> N=8, m=1
        let naive = FreqSpec::new(&node, FreqStrategy::Naive, FftKind::Tuned, None).unwrap();
        assert_eq!(naive.work_rates(), (4, 1, 1)); // (m+e-1, m, u*m)
        assert_eq!(naive.init_work_rates(), None);
        let opt = FreqSpec::new(&node, FreqStrategy::Optimized, FftKind::Tuned, None).unwrap();
        assert_eq!(opt.work_rates(), (4, 4, 4)); // (r, r, u*r)
        assert_eq!(opt.init_work_rates(), Some((4, 4, 1))); // push u*m first
        let dec = LinearNode::from_coeffs(4, 2, 1, |i, _| i as f64, &[0.0]);
        let spec = FreqSpec::new(&dec, FreqStrategy::Naive, FftKind::Tuned, None).unwrap();
        assert_eq!(spec.decimator_rates(), Some((2, 1)));
    }

    #[test]
    fn optimized_does_less_work_per_output_than_naive() {
        let node = LinearNode::fir(&vec![1.0; 64]);
        let x = input(4096);
        let mut naive_ops = OpCounter::new();
        let mut naive =
            FreqExec::new(FreqSpec::new(&node, FreqStrategy::Naive, FftKind::Tuned, None).unwrap());
        let n_out = naive.run_over(&x, &mut naive_ops).len();
        let mut opt_ops = OpCounter::new();
        let mut opt = FreqExec::new(
            FreqSpec::new(&node, FreqStrategy::Optimized, FftKind::Tuned, None).unwrap(),
        );
        let o_out = opt.run_over(&x, &mut opt_ops).len();
        let naive_per = naive_ops.mults() as f64 / n_out as f64;
        let opt_per = opt_ops.mults() as f64 / o_out as f64;
        assert!(
            opt_per < naive_per,
            "optimized {opt_per} should beat naive {naive_per} mults/output"
        );
    }

    #[test]
    fn frequency_beats_direct_for_large_filters() {
        // The headline claim: for a 256-tap FIR, frequency replacement
        // removes the bulk of the multiplications.
        let node = LinearNode::fir(&vec![1.0; 256]);
        let x = input(8192);
        let want = node.fire_sequence(&x);
        // Direct cost: one multiply per nonzero coefficient per output.
        let direct_mults = (node.nnz_a() * want.len()) as u64;
        let mut freq_ops = OpCounter::new();
        let mut exec = FreqExec::new(
            FreqSpec::new(&node, FreqStrategy::Optimized, FftKind::Tuned, None).unwrap(),
        );
        let got = exec.run_over(&x, &mut freq_ops);
        let per_out_freq = freq_ops.mults() as f64 / got.len() as f64;
        let per_out_direct = direct_mults as f64 / want.len() as f64;
        assert!(
            per_out_freq < 0.4 * per_out_direct,
            "freq {per_out_freq:.1} vs direct {per_out_direct:.1} mults/output"
        );
    }

    #[test]
    fn sinks_and_sources_are_rejected() {
        let sink = LinearNode::new(
            streamlin_matrix::Matrix::zeros(2, 0),
            streamlin_matrix::Vector::zeros(0),
            2,
        )
        .unwrap();
        assert!(FreqSpec::new(&sink, FreqStrategy::Naive, FftKind::Tuned, None).is_err());
        let src = LinearNode::new(
            streamlin_matrix::Matrix::zeros(0, 1),
            streamlin_matrix::Vector::from(vec![1.0]),
            0,
        )
        .unwrap();
        assert!(FreqSpec::new(&src, FreqStrategy::Naive, FftKind::Tuned, None).is_err());
    }
}
