//! Direct (time-domain) execution of linear nodes.
//!
//! Four kernels execute a linear node; the first three reproduce the
//! code-generation strategies the paper measures, the fourth is the
//! production tier:
//!
//! * [`MatMulStrategy::Unrolled`] — the default for small nodes: "an
//!   unrolled arithmetic expression" per output that multiplies only the
//!   non-zero coefficients (§5.2).
//! * [`MatMulStrategy::Diagonal`] — the indexed loop of Figure 5-7 used
//!   for large nodes: per column, the leading and trailing zero runs are
//!   skipped but interior zeros are still multiplied.
//! * [`MatMulStrategy::Blocked`] — the ATLAS stand-in (§5.4): a dense
//!   kernel over a transposed, contiguous copy of the matrix with an
//!   explicit copy-in of the window. Like the real ATLAS experiment, it
//!   trades interface overhead for a better inner loop and performs the
//!   *full* dense multiply (no zero skipping).
//! * [`MatMulStrategy::Simd`] — the vectorized tier: the dense sweep with
//!   eight independent accumulators per output over `f64` chunks, which
//!   breaks the serial dependency chain of the scalar kernels; uncounted
//!   execution dispatches to an explicit AVX kernel with the identical
//!   accumulation structure when the CPU supports it. Batched execution
//!   additionally register-blocks four firings at a time over the stacked
//!   windows so each coefficient row is swept once per block.
//!
//! All kernels are generic over [`Tally`]: instantiated with
//! [`streamlin_support::CountOps`] they tally every operation (the
//! measured experiment), with [`streamlin_support::NoCount`] they
//! monomorphize to bare arithmetic (the shipped kernel). The numerical
//! results are bit-identical either way.

use streamlin_matrix::Matrix;
use streamlin_support::Tally;

use streamlin_core::node::LinearNode;

/// Which matrix-multiply code the runtime "generates" for a linear node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MatMulStrategy {
    /// Zero-skipping unrolled expressions (the paper's default).
    #[default]
    Unrolled,
    /// Figure 5-7's loop: per-column `firstNonZero..=lastNonZero`.
    Diagonal,
    /// Dense transposed kernel with copy-in — the ATLAS substitute.
    Blocked,
    /// Dense vectorized kernel: 8 accumulators per output (AVX when the
    /// CPU has it), 4 firings per batch block. The production tier of
    /// `ExecMode::Fast`.
    Simd,
}

impl MatMulStrategy {
    /// Every strategy.
    pub const ALL: [MatMulStrategy; 4] = [
        MatMulStrategy::Unrolled,
        MatMulStrategy::Diagonal,
        MatMulStrategy::Blocked,
        MatMulStrategy::Simd,
    ];

    /// Short label used in tables, bench ids and the CLI.
    pub fn label(self) -> &'static str {
        match self {
            MatMulStrategy::Unrolled => "unrolled",
            MatMulStrategy::Diagonal => "diagonal",
            MatMulStrategy::Blocked => "blocked",
            MatMulStrategy::Simd => "simd",
        }
    }
}

/// Dot product with eight independent accumulators over 8-wide chunks —
/// the [`MatMulStrategy::Simd`] inner kernel. The independent partial
/// sums break the serial add chain; under [`CountOps`] every
/// multiply-add pair and every combining add is tallied exactly as the
/// generated SIMD code executes them. The accumulation structure is
/// fixed — lane `l` sums positions `8i + l`, lanes combine as
/// `b[l] = acc[l] + acc[l+4]` then `(b0+b1) + (b2+b3)`, then the scalar
/// tail — which is what makes single-firing, batched, scalar and
/// [`avx_dot`] execution all bit-identical.
///
/// Uncounted tallies (`!T::COUNTING`) dispatch to [`avx_dot`] when the
/// CPU supports AVX: the identical computation on 4-wide registers (two
/// vector accumulators = the eight scalar lanes, unfused multiply-add,
/// same combine order), detected once at [`LinearExec::new`].
///
/// [`NoCount`]: streamlin_support::NoCount
/// [`CountOps`]: streamlin_support::CountOps
#[inline]
fn simd_dot<T: Tally>(row: &[f64], w: &[f64], ops: &mut T, use_avx: bool) -> f64 {
    debug_assert_eq!(row.len(), w.len());
    #[cfg(target_arch = "x86_64")]
    if !T::COUNTING && use_avx {
        // SAFETY: `use_avx` is only set when runtime detection confirmed
        // the `avx` target feature (see `LinearExec::new`).
        return unsafe { avx_dot(row, w) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = use_avx;
    let split = row.len() - row.len() % 8;
    let (row8, row_tail) = row.split_at(split);
    let (w8, w_tail) = w.split_at(split);
    let mut acc = [0.0f64; 8];
    for (r, x) in row8.chunks_exact(8).zip(w8.chunks_exact(8)) {
        for l in 0..8 {
            acc[l] = ops.fma(acc[l], r[l], x[l]);
        }
    }
    let mut s = if split == 0 {
        0.0 // no lanes ran: nothing to combine, nothing to tally
    } else {
        let b0 = ops.add(acc[0], acc[4]);
        let b1 = ops.add(acc[1], acc[5]);
        let b2 = ops.add(acc[2], acc[6]);
        let b3 = ops.add(acc[3], acc[7]);
        let lo = ops.add(b0, b1);
        let hi = ops.add(b2, b3);
        ops.add(lo, hi)
    };
    for (&c, &x) in row_tail.iter().zip(w_tail) {
        s = ops.fma(s, c, x);
    }
    s
}

/// The AVX twin of [`simd_dot`]'s scalar loop: two 4-wide vector
/// accumulators hold the eight lanes, multiplies and adds are separate
/// (unfused — Rust never enables floating-point contraction) and the
/// combine order matches the scalar path, so the result is bit-identical.
///
/// # Safety
///
/// The caller must have verified AVX support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn avx_dot(row: &[f64], w: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let split = row.len() - row.len() % 8;
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut i = 0;
    while i < split {
        let r0 = _mm256_loadu_pd(row.as_ptr().add(i));
        let x0 = _mm256_loadu_pd(w.as_ptr().add(i));
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(r0, x0));
        let r1 = _mm256_loadu_pd(row.as_ptr().add(i + 4));
        let x1 = _mm256_loadu_pd(w.as_ptr().add(i + 4));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(r1, x1));
        i += 8;
    }
    let mut s = if split == 0 {
        0.0
    } else {
        // b[l] = acc[l] + acc[l+4], then (b0+b1) + (b2+b3) — the scalar
        // combine order, executed on the same values.
        let b = _mm256_add_pd(acc0, acc1);
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), b);
        (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
    };
    for k in split..row.len() {
        s += row[k] * w[k];
    }
    s
}

/// A compiled linear node: the node plus strategy-specific precomputation.
#[derive(Debug, Clone)]
pub struct LinearExec {
    node: LinearNode,
    strategy: MatMulStrategy,
    /// Per output `j` (natural order): the non-zero terms `(pos, coeff)`.
    unrolled: Vec<Vec<(usize, f64)>>,
    /// Per output `j`: the `firstNonZero..=lastNonZero` window positions.
    col_ranges: Vec<Option<(usize, usize)>>,
    /// Row-major `push × peek` copy: row `j` holds output `j`'s
    /// coefficients by window position (the "transposed" dense layout).
    dense: Matrix,
    /// Reusable aligned input buffer for the blocked kernel.
    buffer: Vec<f64>,
    /// Runtime AVX support (checked once; used by the `Simd` kernel).
    use_avx: bool,
}

impl LinearExec {
    /// Prepares a node for execution.
    pub fn new(node: LinearNode, strategy: MatMulStrategy) -> Self {
        let (e, u) = (node.peek(), node.push());
        let mut unrolled = Vec::with_capacity(u);
        let mut col_ranges = Vec::with_capacity(u);
        for j in 0..u {
            let mut terms = Vec::new();
            let mut first = None;
            let mut last = None;
            for pos in 0..e {
                let c = node.coeff(pos, j);
                if c != 0.0 {
                    terms.push((pos, c));
                    first.get_or_insert(pos);
                    last = Some(pos);
                }
            }
            unrolled.push(terms);
            col_ranges.push(first.zip(last));
        }
        let dense = Matrix::from_fn(u, e, |j, pos| node.coeff(pos, j));
        #[cfg(target_arch = "x86_64")]
        let use_avx = std::arch::is_x86_feature_detected!("avx");
        #[cfg(not(target_arch = "x86_64"))]
        let use_avx = false;
        LinearExec {
            buffer: vec![0.0; e],
            node,
            strategy,
            unrolled,
            col_ranges,
            dense,
            use_avx,
        }
    }

    /// The node being executed.
    pub fn node(&self) -> &LinearNode {
        &self.node
    }

    /// The selected strategy.
    pub fn strategy(&self) -> MatMulStrategy {
        self.strategy
    }

    /// Fires once on a window (`window[i] = peek(i)`), returning outputs
    /// in push order. Operation counts depend on the strategy, exactly as
    /// the corresponding generated code would execute.
    ///
    /// # Panics
    ///
    /// Panics if the window length differs from the peek rate.
    pub fn fire<T: Tally>(&mut self, window: &[f64], ops: &mut T) -> Vec<f64> {
        assert_eq!(
            window.len(),
            self.node.peek(),
            "window must equal the peek rate"
        );
        let u = self.node.push();
        let mut out = Vec::with_capacity(u);
        match self.strategy {
            MatMulStrategy::Unrolled => {
                for j in 0..u {
                    let mut acc = self.node.offset(j);
                    for &(pos, c) in &self.unrolled[j] {
                        acc = ops.fma(acc, c, window[pos]);
                    }
                    out.push(acc);
                }
            }
            MatMulStrategy::Diagonal => {
                for j in 0..u {
                    let mut acc = self.node.offset(j);
                    if let Some((first, last)) = self.col_ranges[j] {
                        let row = self.dense.row(j);
                        for pos in first..=last {
                            acc = ops.fma(acc, row[pos], window[pos]);
                        }
                    }
                    out.push(acc);
                }
            }
            MatMulStrategy::Blocked => {
                // Copy-in (the ATLAS interface overhead the paper blames
                // for its mixed results), then a dense row-major sweep.
                self.buffer.copy_from_slice(window);
                for j in 0..u {
                    let row = self.dense.row(j);
                    let mut acc = self.node.offset(j);
                    for (x, c) in self.buffer.iter().zip(row) {
                        acc = ops.fma(acc, *c, *x);
                    }
                    out.push(acc);
                }
            }
            MatMulStrategy::Simd => {
                for j in 0..u {
                    let v = simd_dot(self.dense.row(j), window, ops, self.use_avx);
                    out.push(finish_output(v, self.node.offset(j), ops));
                }
            }
        }
        out
    }

    /// Fires `k` consecutive times over one contiguous input span: window
    /// `w` of firing `f` is `input[f·pop + w]`, and the outputs of all `k`
    /// firings are appended to `out` in firing-major push order — exactly
    /// the bytes `k` calls to [`LinearExec::fire`] would produce, and the
    /// same `ops` tally, but as one sweep over the stacked windows (the
    /// matrix–matrix view of `k` matrix–vector products).
    ///
    /// The static scheduler uses this for linear nodes whose steady-state
    /// plan fires them `k` times back to back: the ring buffer hands over
    /// one `(k−1)·pop + peek` slice and no per-firing window is ever
    /// materialized. Under [`MatMulStrategy::Simd`] the sweep is
    /// additionally register-blocked: four firings at a time share each
    /// coefficient row, and each firing's dot product runs the 4-lane
    /// kernel, so the block keeps 4 × 4 partial products in flight.
    ///
    /// # Panics
    ///
    /// Panics if `input` is shorter than `(k − 1)·pop + peek`.
    pub fn fire_batch<T: Tally>(&self, input: &[f64], k: usize, out: &mut Vec<f64>, ops: &mut T) {
        let (e, o, u) = (self.node.peek(), self.node.pop(), self.node.push());
        if k == 0 {
            return;
        }
        let span = (k - 1) * o + e;
        assert!(
            input.len() >= span,
            "batch of {k} firings needs {span} items, got {}",
            input.len()
        );
        out.reserve(k * u);
        // Firing-major sweep over overlapping windows of one contiguous
        // slice: consecutive windows share `e − o` items, so the input
        // region stays cache-resident across firings without explicit
        // tiling. Accumulation order per output matches `fire` exactly,
        // which is what makes the results (and `ops` tallies) bit-equal.
        match self.strategy {
            MatMulStrategy::Unrolled => {
                for f in 0..k {
                    let w = &input[f * o..f * o + e];
                    for j in 0..u {
                        let mut acc = self.node.offset(j);
                        for &(pos, c) in &self.unrolled[j] {
                            acc = ops.fma(acc, c, w[pos]);
                        }
                        out.push(acc);
                    }
                }
            }
            MatMulStrategy::Diagonal => {
                for f in 0..k {
                    let w = &input[f * o..f * o + e];
                    for j in 0..u {
                        let mut acc = self.node.offset(j);
                        if let Some((first, last)) = self.col_ranges[j] {
                            let row = self.dense.row(j);
                            for pos in first..=last {
                                acc = ops.fma(acc, row[pos], w[pos]);
                            }
                        }
                        out.push(acc);
                    }
                }
            }
            MatMulStrategy::Blocked => {
                // The dense sweep reads the window in place; the
                // copy-in of `fire` exists only to model the ATLAS
                // interface cost and performs no counted ops, so
                // results and tallies stay identical without it.
                for f in 0..k {
                    let w = &input[f * o..f * o + e];
                    for j in 0..u {
                        let row = self.dense.row(j);
                        let mut acc = self.node.offset(j);
                        for (x, c) in w.iter().zip(row) {
                            acc = ops.fma(acc, *c, *x);
                        }
                        out.push(acc);
                    }
                }
            }
            MatMulStrategy::Simd => {
                let base = out.len();
                out.resize(base + k * u, 0.0);
                let dst = &mut out[base..];
                let mut f = 0;
                // Register-blocked: each coefficient row is swept once
                // for four stacked windows before moving to the next
                // output. Per-firing accumulation is `simd_dot`, so the
                // values (and tallies) match `fire` bit for bit.
                while f + 4 <= k {
                    let w0 = &input[f * o..f * o + e];
                    let w1 = &input[(f + 1) * o..(f + 1) * o + e];
                    let w2 = &input[(f + 2) * o..(f + 2) * o + e];
                    let w3 = &input[(f + 3) * o..(f + 3) * o + e];
                    for j in 0..u {
                        let row = self.dense.row(j);
                        let b = self.node.offset(j);
                        let avx = self.use_avx;
                        dst[f * u + j] = finish_output(simd_dot(row, w0, ops, avx), b, ops);
                        dst[(f + 1) * u + j] = finish_output(simd_dot(row, w1, ops, avx), b, ops);
                        dst[(f + 2) * u + j] = finish_output(simd_dot(row, w2, ops, avx), b, ops);
                        dst[(f + 3) * u + j] = finish_output(simd_dot(row, w3, ops, avx), b, ops);
                    }
                    f += 4;
                }
                while f < k {
                    let w = &input[f * o..f * o + e];
                    for j in 0..u {
                        let v = simd_dot(self.dense.row(j), w, ops, self.use_avx);
                        dst[f * u + j] = finish_output(v, self.node.offset(j), ops);
                    }
                    f += 1;
                }
            }
        }
    }

    /// Runs over an input tape with channel semantics (testing helper).
    pub fn run_over<T: Tally>(&mut self, input: &[f64], ops: &mut T) -> Vec<f64> {
        let (e, o) = (self.node.peek(), self.node.pop());
        assert!(o > 0, "run_over requires pop > 0");
        let mut out = Vec::new();
        let mut pos = 0;
        while pos + e <= input.len() {
            out.extend(self.fire(&input[pos..pos + e], ops));
            pos += o;
        }
        out
    }
}

/// Applies output `j`'s constant offset to a finished dot product. A zero
/// offset is skipped uncounted — generated code folds `+ 0.0` away, and
/// skipping it also preserves the sign of an exact `-0.0` dot product.
#[inline]
fn finish_output<T: Tally>(v: f64, offset: f64, ops: &mut T) -> f64 {
    if offset != 0.0 {
        ops.add(v, offset)
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamlin_support::{NoCount, OpCounter};

    const ALL_STRATEGIES: [MatMulStrategy; 4] = [
        MatMulStrategy::Unrolled,
        MatMulStrategy::Diagonal,
        MatMulStrategy::Blocked,
        MatMulStrategy::Simd,
    ];

    fn sparse_node() -> LinearNode {
        // Coefficients: only positions 1 and 3 are non-zero.
        LinearNode::from_coeffs(
            5,
            1,
            1,
            |i, _| match i {
                1 => 2.0,
                3 => -1.0,
                _ => 0.0,
            },
            &[0.5],
        )
    }

    #[test]
    fn all_strategies_agree_on_results() {
        let node = sparse_node();
        let input: Vec<f64> = (0..40).map(|i| (i as f64).sin()).collect();
        let want = node.fire_sequence(&input);
        for strategy in ALL_STRATEGIES {
            let mut exec = LinearExec::new(node.clone(), strategy);
            let mut ops = OpCounter::new();
            let got = exec.run_over(&input, &mut ops);
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-12, "{strategy:?}");
            }
        }
    }

    #[test]
    fn strategies_differ_in_multiplication_counts() {
        let node = sparse_node(); // nnz 2, range 1..=3 (3 wide), dense 5
        let window = [1.0, 2.0, 3.0, 4.0, 5.0];
        let count = |strategy| {
            let mut exec = LinearExec::new(node.clone(), strategy);
            let mut ops = OpCounter::new();
            exec.fire(&window, &mut ops);
            ops.mults()
        };
        assert_eq!(count(MatMulStrategy::Unrolled), 2);
        assert_eq!(count(MatMulStrategy::Diagonal), 3);
        assert_eq!(count(MatMulStrategy::Blocked), 5);
        assert_eq!(count(MatMulStrategy::Simd), 5); // dense, like Blocked
    }

    #[test]
    fn fire_batch_is_bit_identical_to_repeated_fire() {
        for node in [
            sparse_node(),
            LinearNode::fir(&[0.5, -1.25, 3.0, 0.0, 7.5]),
            LinearNode::from_coeffs(
                4,
                2,
                3,
                |i, j| (i * 3 + j) as f64 * 0.37 - 1.0,
                &[1.0, -2.0, 0.25],
            ),
        ] {
            let input: Vec<f64> = (0..200).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
            for strategy in ALL_STRATEGIES {
                let mut exec = LinearExec::new(node.clone(), strategy);
                let k = (input.len() - node.peek()) / node.pop() + 1;
                let mut want = Vec::new();
                let mut ops_a = OpCounter::new();
                for f in 0..k {
                    let w = &input[f * node.pop()..f * node.pop() + node.peek()];
                    want.extend(exec.fire(w, &mut ops_a));
                }
                let mut got = Vec::new();
                let mut ops_b = OpCounter::new();
                exec.fire_batch(&input, k, &mut got, &mut ops_b);
                // Bit-identical outputs AND identical operation tallies.
                assert_eq!(got.len(), want.len(), "{strategy:?}");
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{strategy:?}");
                }
                assert_eq!(ops_a, ops_b, "{strategy:?}");
            }
        }
    }

    #[test]
    fn nocount_matches_countops_bit_for_bit() {
        let node = LinearNode::from_coeffs(
            7,
            2,
            2,
            |i, j| ((i * 5 + j * 3) % 11) as f64 * 0.43 - 2.0,
            &[0.125, -3.5],
        );
        let input: Vec<f64> = (0..150).map(|i| (i as f64 * 1.1).cos() * 5.0).collect();
        for strategy in ALL_STRATEGIES {
            let mut counted_exec = LinearExec::new(node.clone(), strategy);
            let mut free_exec = LinearExec::new(node.clone(), strategy);
            let mut counted = OpCounter::new();
            let mut free = NoCount;
            let a = counted_exec.run_over(&input, &mut counted);
            let b = free_exec.run_over(&input, &mut free);
            assert_eq!(a.len(), b.len(), "{strategy:?}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.to_bits(), y.to_bits(), "{strategy:?}");
            }
            assert!(counted.flops() > 0, "{strategy:?}");
        }
    }

    #[test]
    fn simd_handles_all_tail_lengths() {
        // peek 1..=9 covers empty lanes, exact chunks and every tail.
        for e in 1..=9usize {
            let node = LinearNode::from_coeffs(e, 1, 1, |i, _| (i + 1) as f64 * 0.5, &[2.0]);
            let input: Vec<f64> = (0..e + 20).map(|i| (i as f64 * 0.9).sin()).collect();
            let want = node.fire_sequence(&input);
            let mut exec = LinearExec::new(node, MatMulStrategy::Simd);
            let got = exec.run_over(&input, &mut NoCount);
            assert_eq!(got.len(), want.len(), "peek {e}");
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-12, "peek {e}");
            }
        }
    }

    #[test]
    fn multi_output_push_order() {
        let node = LinearNode::from_coeffs(
            2,
            2,
            2,
            |i, j| if i == j { (j + 1) as f64 } else { 0.0 },
            &[0.0, 100.0],
        );
        let mut exec = LinearExec::new(node, MatMulStrategy::Unrolled);
        let mut ops = OpCounter::new();
        let out = exec.fire(&[3.0, 5.0], &mut ops);
        assert_eq!(out, vec![3.0, 110.0]);
    }

    #[test]
    fn zero_column_outputs_just_the_offset() {
        let node = LinearNode::from_coeffs(3, 1, 1, |_, _| 0.0, &[7.0]);
        for strategy in ALL_STRATEGIES {
            let mut exec = LinearExec::new(node.clone(), strategy);
            let mut ops = OpCounter::new();
            assert_eq!(exec.fire(&[1.0, 2.0, 3.0], &mut ops), vec![7.0]);
        }
    }
}
