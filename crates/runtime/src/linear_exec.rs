//! Direct (time-domain) execution of linear nodes.
//!
//! Three kernels execute a linear node; the first two reproduce the
//! code-generation strategies the paper measures, the third is the
//! production tier. Each reads the node's own coefficient rows
//! ([`LinearNode::row`]: output `j`'s coefficients by window position,
//! contiguous) plus at most a small index of its own — no kernel keeps a
//! second copy of the coefficients:
//!
//! * [`MatMulStrategy::Unrolled`] — the default for small nodes: "an
//!   unrolled arithmetic expression" per output that multiplies only the
//!   non-zero coefficients (§5.2). It reads its own term list, each
//!   output's non-zero `(position, coefficient)` pairs.
//! * [`MatMulStrategy::Blocked`] — the ATLAS stand-in (§5.4): a dense
//!   kernel over the whole rows with an explicit copy-in of the window.
//!   Like the real ATLAS experiment, it trades interface overhead for a
//!   better inner loop and performs the *full* dense multiply (no zero
//!   skipping).
//! * [`MatMulStrategy::Simd`] — the vectorized tier: the dense sweep over
//!   the whole rows with eight independent accumulators per output over
//!   `f64` chunks, which breaks the serial dependency chain of the scalar
//!   kernels. Batched execution takes four firings at a time over the
//!   stacked windows, so each coefficient row is swept once per block.
//!   Uncounted execution on a CPU with AVX runs that block as one
//!   register-blocked micro-kernel: four dot products over one row and
//!   four windows, on eight independent vector accumulators, with the
//!   identical per-output accumulation structure.
//!
//! All kernels are generic over [`Tally`]: instantiated with
//! [`streamlin_support::CountOps`] they tally every operation (the
//! measured experiment), with [`streamlin_support::NoCount`] they
//! monomorphize to bare arithmetic (the shipped kernel). The numerical
//! results are bit-identical either way.

use std::sync::Arc;

use streamlin_support::Tally;

use streamlin_core::node::LinearNode;

/// Which matrix-multiply code the runtime "generates" for a linear node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MatMulStrategy {
    /// Zero-skipping unrolled expressions (the paper's default).
    #[default]
    Unrolled,
    /// Dense kernel over the whole rows with copy-in — the ATLAS
    /// substitute.
    Blocked,
    /// Dense vectorized kernel: 8 accumulators per output, 4 firings per
    /// batch block (four dot products per pass on AVX when the CPU has
    /// it). The production tier of `ExecMode::Fast`.
    Simd,
}

impl MatMulStrategy {
    /// Every strategy.
    pub const ALL: [MatMulStrategy; 3] = [
        MatMulStrategy::Unrolled,
        MatMulStrategy::Blocked,
        MatMulStrategy::Simd,
    ];

    /// Short label used in tables, bench ids and the CLI.
    pub fn label(self) -> &'static str {
        match self {
            MatMulStrategy::Unrolled => "unrolled",
            MatMulStrategy::Blocked => "blocked",
            MatMulStrategy::Simd => "simd",
        }
    }
}

/// Dot product with eight independent accumulators over 8-wide chunks —
/// the scalar form of the [`MatMulStrategy::Simd`] kernel, which counted
/// execution (and uncounted execution without AVX) runs. The
/// independent partial sums break the serial add chain; under
/// [`CountOps`] every multiply-add pair and every combining add is tallied
/// exactly as the generated SIMD code executes them. The accumulation
/// structure is fixed — lane `l` sums positions `8i + l`, lanes combine as
/// `b[l] = acc[l] + acc[l+4]` then `(b0+b1) + (b2+b3)`, then the scalar
/// tail — which is what makes single-firing, batched, scalar and
/// [`avx_dots`] execution all bit-identical.
///
/// [`CountOps`]: streamlin_support::CountOps
#[inline]
fn simd_dot<T: Tally>(row: &[f64], w: &[f64], ops: &mut T) -> f64 {
    debug_assert_eq!(row.len(), w.len());
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

/// [`simd_dot`] of one coefficient row with each of `N` windows, on AVX
/// registers: output `q` is the dot product of `row` and `windows[q]`.
/// Each output keeps two 4-wide accumulators (its eight lanes), multiplies
/// and adds are separate (unfused — Rust never enables floating-point
/// contraction) and the lanes combine in [`simd_dot`]'s order, so every
/// output is bit-identical to it.
///
/// With `N = 4` the eight add chains are independent and each load of
/// the row feeds four products: the register-blocked kernel of
/// [`LinearExec::fire_batch`]. `N = 1` is the single dot product.
///
/// # Safety
///
/// The caller must have verified AVX support at runtime, and every
/// window must be as long as `row`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn avx_dots<const N: usize>(row: &[f64], windows: [&[f64]; N]) -> [f64; N] {
    use std::arch::x86_64::*;
    let len = row.len();
    debug_assert!(windows.iter().all(|w| w.len() == len));
    let split = len - len % 8;
    let r = row.as_ptr();
    let mut lo = [_mm256_setzero_pd(); N];
    let mut hi = [_mm256_setzero_pd(); N];
    // Every read is below `len` in its operand: chunks end at
    // `i + 8 <= split <= len`, the tail at `t < len`.
    let mut i = 0;
    while i < split {
        let r0 = _mm256_loadu_pd(r.add(i));
        let r1 = _mm256_loadu_pd(r.add(i + 4));
        for q in 0..N {
            let x = windows[q].as_ptr();
            lo[q] = _mm256_add_pd(lo[q], _mm256_mul_pd(r0, _mm256_loadu_pd(x.add(i))));
            hi[q] = _mm256_add_pd(hi[q], _mm256_mul_pd(r1, _mm256_loadu_pd(x.add(i + 4))));
        }
        i += 8;
    }
    let mut sums = [0.0f64; N];
    for q in 0..N {
        if split > 0 {
            // b[l] = acc[l] + acc[l+4], then (b0+b1) + (b2+b3) — the
            // scalar combine order, executed on the same values.
            let mut b = [0.0f64; 4];
            _mm256_storeu_pd(b.as_mut_ptr(), _mm256_add_pd(lo[q], hi[q]));
            sums[q] = (b[0] + b[1]) + (b[2] + b[3]);
        }
        for t in split..len {
            sums[q] += *r.add(t) * *windows[q].as_ptr().add(t);
        }
    }
    sums
}

/// [`simd_dot`] of `row` with each of `N` windows. Uncounted on a CPU with
/// AVX (`avx`, from runtime detection) that is one [`avx_dots`] pass;
/// otherwise the eight-lane dots run one after another, tallied. The
/// values are the same bits either way.
#[inline]
fn simd_dots<T: Tally, const N: usize>(
    avx: bool,
    row: &[f64],
    windows: [&[f64]; N],
    ops: &mut T,
) -> [f64; N] {
    #[cfg(target_arch = "x86_64")]
    if avx && !T::COUNTING {
        // SAFETY: `avx` is only set when runtime detection confirmed the
        // `avx` target feature (see `LinearExec::new`), and every window
        // is a row's length (the node's peek).
        return unsafe { avx_dots(row, windows) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = avx;
    let mut sums = [0.0; N];
    for (s, w) in sums.iter_mut().zip(windows) {
        *s = simd_dot(row, w, ops);
    }
    sums
}

/// A compiled linear node: one immutable table (the node, plus whatever
/// index its strategy adds to the node's rows) behind an [`Arc`], plus the
/// blocked kernel's copy-in buffer. Cloning an executor shares the table.
#[derive(Debug, Clone)]
pub struct LinearExec {
    table: Arc<LinearTable>,
    /// The blocked kernel's copy-in buffer, allocated by its first
    /// single firing.
    buffer: Vec<f64>,
}

#[derive(Debug)]
struct LinearTable {
    node: LinearNode,
    strategy: MatMulStrategy,
    layout: Layout,
    /// Runtime AVX support (checked once; used by the `Simd` kernel).
    use_avx: bool,
}

/// What a strategy reads besides the node's own rows ([`LinearNode::row`]:
/// output `j`'s coefficients by window position); each strategy's is built
/// and kept alone.
#[derive(Debug)]
enum Layout {
    /// [`MatMulStrategy::Unrolled`]: output `j`'s non-zero terms
    /// `(pos, coeff)` are `terms[bounds[j]..bounds[j + 1]]`.
    Terms {
        terms: Vec<(usize, f64)>,
        bounds: Vec<usize>,
    },
    /// [`MatMulStrategy::Blocked`] and [`MatMulStrategy::Simd`]: nothing;
    /// they sweep the node's rows whole.
    Rows,
}

impl Layout {
    fn new(node: &LinearNode, strategy: MatMulStrategy) -> Self {
        let rows = (0..node.push()).map(|j| node.row(j));
        match strategy {
            MatMulStrategy::Unrolled => {
                let mut terms = Vec::new();
                let mut bounds = Vec::with_capacity(node.push() + 1);
                bounds.push(0);
                for row in rows {
                    let nonzero = row.iter().enumerate().filter(|(_, &c)| c != 0.0);
                    terms.extend(nonzero.map(|(pos, &c)| (pos, c)));
                    bounds.push(terms.len());
                }
                terms.shrink_to_fit();
                Layout::Terms { terms, bounds }
            }
            MatMulStrategy::Blocked | MatMulStrategy::Simd => Layout::Rows,
        }
    }

    /// Output `j`'s non-zero terms (the `Unrolled` layout).
    #[inline]
    fn terms(&self, j: usize) -> &[(usize, f64)] {
        let Layout::Terms { terms, bounds } = self else {
            unreachable!("the Unrolled kernel reads the term layout")
        };
        &terms[bounds[j]..bounds[j + 1]]
    }

    fn bytes(&self) -> usize {
        use std::mem::size_of_val;
        match self {
            Layout::Terms { terms, bounds } => size_of_val(&terms[..]) + size_of_val(&bounds[..]),
            Layout::Rows => 0,
        }
    }
}

impl LinearExec {
    /// Prepares a node for execution.
    pub fn new(node: LinearNode, strategy: MatMulStrategy) -> Self {
        #[cfg(target_arch = "x86_64")]
        let use_avx = std::arch::is_x86_feature_detected!("avx");
        #[cfg(not(target_arch = "x86_64"))]
        let use_avx = false;
        LinearExec {
            table: Arc::new(LinearTable {
                layout: Layout::new(&node, strategy),
                node,
                strategy,
                use_avx,
            }),
            buffer: Vec::new(),
        }
    }

    /// The node being executed.
    pub fn node(&self) -> &LinearNode {
        &self.table.node
    }

    /// The selected strategy.
    pub fn strategy(&self) -> MatMulStrategy {
        self.table.strategy
    }

    /// The shared table — identity and bytes (the node's coefficients
    /// plus the strategy's own index, counted from their lengths) — that
    /// every clone of this executor holds.
    pub fn table(&self) -> (*const (), usize) {
        let bytes = self.table.node.table_bytes() + self.table.layout.bytes();
        (Arc::as_ptr(&self.table).cast(), bytes)
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
            self.node().peek(),
            "window must equal the peek rate"
        );
        let mut out = Vec::with_capacity(self.node().push());
        if self.strategy() == MatMulStrategy::Blocked {
            // Copy-in (the ATLAS interface overhead the paper blames for
            // its mixed results), then the dense sweep over the copy.
            self.buffer.clear();
            self.buffer.extend_from_slice(window);
            self.fire_batch(&self.buffer, 1, &mut out, ops);
        } else {
            self.fire_batch(window, 1, &mut out, ops);
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
    /// additionally blocked: four firings at a time share each coefficient
    /// row while it is in cache. Counted, the block's four dot products
    /// run one after another on the eight-lane kernel; uncounted on AVX,
    /// one micro-kernel computes them in one pass over the row.
    ///
    /// # Panics
    ///
    /// Panics if `input` is shorter than `(k − 1)·pop + peek`.
    pub fn fire_batch<T: Tally>(&self, input: &[f64], k: usize, out: &mut Vec<f64>, ops: &mut T) {
        let LinearTable {
            node,
            strategy,
            layout,
            use_avx,
        } = &*self.table;
        let (e, o, u) = (node.peek(), node.pop(), node.push());
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
        // tiling. Accumulation order per output is fixed by the strategy
        // alone, which is what makes the results (and `ops` tallies) of
        // any batching bit-equal.
        match strategy {
            MatMulStrategy::Unrolled => {
                for f in 0..k {
                    let w = &input[f * o..f * o + e];
                    for j in 0..u {
                        let mut acc = node.offset(j);
                        for &(pos, c) in layout.terms(j) {
                            acc = ops.fma(acc, c, w[pos]);
                        }
                        out.push(acc);
                    }
                }
            }
            // Blocked sweeps the whole row (the full dense multiply, no
            // zero skipping). The dense sweep reads the window in place;
            // the copy-in of `fire` exists only to model the ATLAS
            // interface cost and performs no counted ops, so results and
            // tallies are the same without it.
            MatMulStrategy::Blocked => {
                for f in 0..k {
                    let w = &input[f * o..f * o + e];
                    for j in 0..u {
                        let mut acc = node.offset(j);
                        for (c, x) in node.row(j).iter().zip(w) {
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
                let window = |f: usize| &input[f * o..f * o + e];
                // Blocked: each coefficient row is swept for four stacked
                // windows before moving to the next output. Per-firing
                // accumulation is `simd_dot`'s, so the values (and
                // tallies) match a single firing bit for bit.
                let blocked = k - k % 4;
                for f in (0..blocked).step_by(4) {
                    let windows = [window(f), window(f + 1), window(f + 2), window(f + 3)];
                    for j in 0..u {
                        let (row, b) = (node.row(j), node.offset(j));
                        let sums = simd_dots(*use_avx, row, windows, ops);
                        for (q, v) in sums.into_iter().enumerate() {
                            dst[(f + q) * u + j] = finish_output(v, b, ops);
                        }
                    }
                }
                for f in blocked..k {
                    for j in 0..u {
                        let [v] = simd_dots(*use_avx, node.row(j), [window(f)], ops);
                        dst[f * u + j] = finish_output(v, node.offset(j), ops);
                    }
                }
            }
        }
    }

    /// Runs over an input tape with channel semantics (testing helper).
    pub fn run_over<T: Tally>(&mut self, input: &[f64], ops: &mut T) -> Vec<f64> {
        let (e, o) = (self.node().peek(), self.node().pop());
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
        for strategy in MatMulStrategy::ALL {
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
        let node = sparse_node(); // nnz 2, dense 5
        let window = [1.0, 2.0, 3.0, 4.0, 5.0];
        let count = |strategy| {
            let mut exec = LinearExec::new(node.clone(), strategy);
            let mut ops = OpCounter::new();
            exec.fire(&window, &mut ops);
            ops.mults()
        };
        assert_eq!(count(MatMulStrategy::Unrolled), 2);
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
            for strategy in MatMulStrategy::ALL {
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
        for strategy in MatMulStrategy::ALL {
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
    fn uncounted_simd_batches_match_counted_single_firings() {
        // Peek 1..=20 runs every eight-lane tail with zero, one and two
        // full chunks; k 1..=9 runs zero, one and two four-window blocks
        // and every count of firings left over; pop 1..=3 and push 1..=5
        // move the windows and the output layout. Offsets include zeros,
        // which are skipped.
        for e in 1..=20usize {
            for o in 1..=3usize {
                for u in 1..=5usize {
                    let offsets: Vec<f64> = (0..u).map(|j| [0.0, 0.75, -1.5][j % 3]).collect();
                    let node = LinearNode::from_coeffs(
                        e,
                        o,
                        u,
                        |i, j| ((i * 7 + j * 5) % 13) as f64 * 0.31 - 1.7,
                        &offsets,
                    );
                    let input: Vec<f64> = (0..8 * o + e)
                        .map(|i| (i as f64 * 0.77).sin() * 4.0)
                        .collect();
                    let mut exec = LinearExec::new(node.clone(), MatMulStrategy::Simd);
                    for k in 1..=9usize {
                        let mut want = Vec::new();
                        for f in 0..k {
                            want.extend(exec.fire(&input[f * o..f * o + e], &mut OpCounter::new()));
                        }
                        let mut got = vec![f64::NAN]; // appended after
                        exec.fire_batch(&input, k, &mut got, &mut NoCount);
                        assert_eq!(got.len(), 1 + k * u);
                        for (i, (a, b)) in got[1..].iter().zip(&want).enumerate() {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "peek {e} pop {o} push {u} k {k}: output {i}"
                            );
                        }
                    }
                }
            }
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
    fn each_strategy_holds_only_the_layout_it_reads() {
        let node = sparse_node(); // peek 5, push 1: 2.0 at 1, -1.0 at 3
        let coeffs = node.table_bytes();
        assert_eq!(coeffs, 8 * (5 + 1));
        assert_eq!(node.row(0), &[0.0, 2.0, 0.0, -1.0, 0.0]);
        for strategy in MatMulStrategy::ALL {
            let exec = LinearExec::new(node.clone(), strategy);
            // Beside the node's rows, a strategy holds at most its index.
            let index_bytes = match (&exec.table.layout, strategy) {
                (Layout::Terms { terms, bounds }, MatMulStrategy::Unrolled) => {
                    assert_eq!(terms, &[(1, 2.0), (3, -1.0)]);
                    assert_eq!(bounds, &[0, 2]);
                    2 * 16 + 2 * 8
                }
                (Layout::Rows, MatMulStrategy::Blocked | MatMulStrategy::Simd) => 0,
                (layout, _) => panic!("{strategy:?} holds {layout:?}"),
            };
            let (id, bytes) = exec.table();
            assert_eq!(bytes, coeffs + index_bytes, "{strategy:?}");
            // A clone shares the table and copies no scratch.
            let copy = exec.clone();
            assert_eq!(copy.table().0, id, "{strategy:?}");
            assert_eq!(copy.buffer.capacity(), 0, "{strategy:?}");
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
        for strategy in MatMulStrategy::ALL {
            let mut exec = LinearExec::new(node.clone(), strategy);
            let mut ops = OpCounter::new();
            assert_eq!(exec.fire(&[1.0, 2.0, 3.0], &mut ops), vec![7.0]);
        }
    }
}
