//! The linear node representation (paper §3.1, Definition 1).
//!
//! A [`LinearNode`] holds each coefficient once, in the layout the direct
//! kernels sweep: one row per output, indexed by window position, and the
//! offsets in push order. The paper's `A` (`peek × push`, both axes
//! reversed) and `b` are derived from it on demand; the combination rules
//! (`expand`, `pipeline`, `splitjoin`) work on the stored rows directly.

use streamlin_matrix::{Matrix, Vector};

/// Errors from linear-node construction and the combination rules.
#[derive(Debug, Clone, PartialEq)]
pub enum LinearError {
    /// `b` must have one entry per output column.
    OffsetShapeMismatch {
        /// Columns of `A`.
        cols: usize,
        /// Length of `b`.
        offsets: usize,
    },
    /// The two nodes cannot be combined (e.g. a source has no input to
    /// connect, or the splitjoin branches are not schedulable).
    NotCombinable(String),
    /// The combined representation would exceed the size guard; the paper
    /// hits the same wall on Radar ("code size explodes", §5.3 footnote).
    TooLarge {
        /// Rows of the would-be matrix.
        rows: usize,
        /// Columns of the would-be matrix.
        cols: usize,
    },
}

impl std::fmt::Display for LinearError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinearError::OffsetShapeMismatch { cols, offsets } => write!(
                f,
                "offset vector has {offsets} entries but the matrix has {cols} columns"
            ),
            LinearError::NotCombinable(msg) => write!(f, "not combinable: {msg}"),
            LinearError::TooLarge { rows, cols } => {
                write!(f, "combined matrix {rows}x{cols} exceeds the size guard")
            }
        }
    }
}

impl std::error::Error for LinearError {}

/// Guard on combined-matrix size (entries). Radar-style blowups return
/// [`LinearError::TooLarge`] instead of exhausting memory.
pub const MAX_MATRIX_ELEMS: usize = 1 << 24;

/// A linear node `Λ = {A, b, peek, pop, push}` (Definition 1).
///
/// In the paper `A` is a `peek × push` matrix and `b` a `push`-element row
/// vector such that one firing computes `y = x·A + b`, where
/// `x[i] = peek(peek-1-i)` and `y[push-1-j]` is the `j`-th value pushed:
/// row `peek−1−i` of `A` holds the weights of `peek(i)`, column `push−1−j`
/// those of output `j`.
///
/// The node stores its coefficients once, in the layout the kernels read:
/// a row-major `push × peek` matrix whose row `j` holds output `j`'s
/// coefficients by window position (`row(j)[i]` is
/// [`coeff(i, j)`](Self::coeff)), and the offsets in push order. `A` and
/// `b` are *derived*: [`a`](Self::a) and [`b`](Self::b) build them on
/// demand, bit for bit what [`new`](Self::new) was given, for code and
/// tests that read the paper's formulas literally.
///
/// # Examples
///
/// ```
/// use streamlin_core::node::LinearNode;
/// // Figure 3-1: work peek 3 pop 1 push 2
/// //   push(3*peek(2) + 5*peek(1));     (output 0)
/// //   push(2*peek(2) + peek(0) + 6);   (output 1)
/// let node = LinearNode::from_coeffs(
///     3,
///     1,
///     2,
///     |peek_idx, out| match (peek_idx, out) {
///         (2, 0) => 3.0,
///         (1, 0) => 5.0,
///         (2, 1) => 2.0,
///         (0, 1) => 1.0,
///         _ => 0.0,
///     },
///     &[0.0, 6.0],
/// );
/// // The stored rows: output j's weights by window position.
/// assert_eq!(node.row(0), &[0.0, 5.0, 3.0]);
/// assert_eq!(node.row(1), &[1.0, 0.0, 2.0]);
/// assert_eq!(node.offsets(), &[0.0, 6.0]);
/// // The paper's matrix: row peek−1−i ↔ peek(i), column push−1−j ↔ push j,
/// // so output 0 lives in the rightmost column.
/// let a = node.a();
/// assert_eq!(a.row(0), &[2.0, 3.0]); // peek(2) weights
/// assert_eq!(a.row(1), &[0.0, 5.0]); // peek(1) weights
/// assert_eq!(a.row(2), &[1.0, 0.0]); // peek(0) weights
/// assert_eq!(node.b().as_slice(), &[6.0, 0.0]);
/// assert_eq!(node.fire(&[10.0, 100.0, 1000.0]), vec![3500.0, 2016.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearNode {
    /// `push × peek`: row `j` is output `j`'s coefficients by window
    /// position.
    rows: Matrix,
    /// Output `j`'s additive constant at index `j`.
    offsets: Vector,
    pop: usize,
}

impl LinearNode {
    /// Creates a node from the paper-oriented matrix `A` (`peek × push`),
    /// offset row vector `b`, and pop rate.
    ///
    /// # Errors
    ///
    /// Fails if `b.len() != a.cols()`.
    pub fn new(a: Matrix, b: Vector, pop: usize) -> Result<Self, LinearError> {
        if b.len() != a.cols() {
            return Err(LinearError::OffsetShapeMismatch {
                cols: a.cols(),
                offsets: b.len(),
            });
        }
        let (e, u) = (a.rows(), a.cols());
        let rows = Matrix::from_fn(u, e, |j, i| a[(e - 1 - i, u - 1 - j)]);
        let offsets = (0..u).map(|j| b[u - 1 - j]).collect();
        Ok(LinearNode { rows, offsets, pop })
    }

    /// Creates a node from its stored layout: `rows` is `push × peek` with
    /// row `j` holding output `j`'s coefficients by window position, and
    /// `offsets[j]` is output `j`'s constant.
    ///
    /// # Panics
    ///
    /// Panics if `offsets.len() != rows.rows()`.
    pub(crate) fn from_rows(rows: Matrix, offsets: Vector, pop: usize) -> Self {
        assert_eq!(
            offsets.len(),
            rows.rows(),
            "offsets must have one entry per output"
        );
        LinearNode { rows, offsets, pop }
    }

    /// Builds a node from naturally-oriented coefficients:
    /// `coeff(peek_idx, out_idx)` is the weight of `peek(peek_idx)` in
    /// output `out_idx`, and `offsets[out_idx]` the additive constant.
    ///
    /// # Panics
    ///
    /// Panics if `offsets.len() != push`.
    pub fn from_coeffs(
        peek: usize,
        pop: usize,
        push: usize,
        mut coeff: impl FnMut(usize, usize) -> f64,
        offsets: &[f64],
    ) -> Self {
        assert_eq!(
            offsets.len(),
            push,
            "offsets must have one entry per output"
        );
        let rows = Matrix::from_fn(push, peek, |j, i| coeff(i, j));
        LinearNode::from_rows(rows, Vector::from(offsets.to_vec()), pop)
    }

    /// An FIR filter node: `push(Σ weights[i]·peek(i)); pop();`
    /// (peek = `weights.len()`, pop = push = 1), as in Figure 1-3.
    pub fn fir(weights: &[f64]) -> Self {
        LinearNode::from_coeffs(weights.len(), 1, 1, |i, _| weights[i], &[0.0])
    }

    /// The identity node over `n` items (peek = pop = push = n).
    pub fn identity(n: usize) -> Self {
        LinearNode::from_coeffs(
            n,
            n,
            n,
            |i, j| if i == j { 1.0 } else { 0.0 },
            &vec![0.0; n],
        )
    }

    /// Peek rate (rows of `A`).
    pub fn peek(&self) -> usize {
        self.rows.cols()
    }

    /// Pop rate.
    pub fn pop(&self) -> usize {
        self.pop
    }

    /// Push rate (columns of `A`).
    pub fn push(&self) -> usize {
        self.rows.rows()
    }

    /// The paper-oriented matrix `A`, built from the stored rows.
    pub fn a(&self) -> Matrix {
        let (e, u) = (self.peek(), self.push());
        Matrix::from_fn(e, u, |r, c| self.rows[(u - 1 - c, e - 1 - r)])
    }

    /// The paper-oriented offset vector `b`, built from the stored offsets.
    pub fn b(&self) -> Vector {
        self.offsets.as_slice().iter().rev().copied().collect()
    }

    /// Output `out_idx`'s coefficients by window position: `row(j)[i]` is
    /// the weight of `peek(i)` in output `j`.
    ///
    /// # Panics
    ///
    /// Panics if `out_idx` is out of range.
    pub fn row(&self, out_idx: usize) -> &[f64] {
        self.rows.row(out_idx)
    }

    /// The additive constants in push order.
    pub fn offsets(&self) -> &[f64] {
        self.offsets.as_slice()
    }

    /// Weight of `peek(peek_idx)` in output `out_idx` (natural orientation).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn coeff(&self, peek_idx: usize, out_idx: usize) -> f64 {
        self.rows[(out_idx, peek_idx)]
    }

    /// Additive constant of output `out_idx` (natural orientation).
    ///
    /// # Panics
    ///
    /// Panics if `out_idx` is out of range.
    pub fn offset(&self, out_idx: usize) -> f64 {
        self.offsets[out_idx]
    }

    /// Number of non-zero entries of `A` (used by the cost model).
    pub fn nnz_a(&self) -> usize {
        self.rows.nnz(0.0)
    }

    /// Number of non-zero entries of `b`.
    pub fn nnz_b(&self) -> usize {
        self.offsets.nnz(0.0)
    }

    /// Bytes its coefficients occupy: the rows and the offsets, counted
    /// from their lengths.
    pub fn table_bytes(&self) -> usize {
        8 * (self.rows.as_slice().len() + self.offsets.len())
    }

    /// Fires the node once on a window (`window[i] = peek(i)`,
    /// `window.len() == peek`), returning outputs in push order.
    ///
    /// # Panics
    ///
    /// Panics if the window length differs from the peek rate.
    pub fn fire(&self, window: &[f64]) -> Vec<f64> {
        assert_eq!(window.len(), self.peek(), "window must equal the peek rate");
        (0..self.push())
            .map(|j| {
                let mut acc = self.offsets[j];
                for (&c, &x) in self.row(j).iter().zip(window) {
                    acc += c * x;
                }
                acc
            })
            .collect()
    }

    /// Fires repeatedly over an input tape (advancing by `pop` each firing)
    /// until there is not enough lookahead, returning the concatenated
    /// outputs. This is the reference semantics used by the equivalence
    /// tests for every transformation.
    ///
    /// # Panics
    ///
    /// Panics if the node has `pop == 0` (it would fire forever).
    pub fn fire_sequence(&self, input: &[f64]) -> Vec<f64> {
        assert!(self.pop > 0, "fire_sequence requires pop > 0");
        let mut out = Vec::new();
        let mut start = 0;
        while start + self.peek() <= input.len() {
            out.extend(self.fire(&input[start..start + self.peek()]));
            start += self.pop;
        }
        out
    }

    /// True if all coefficients and offsets are within tolerance of the
    /// other node's and the rates match.
    pub fn approx_eq(&self, other: &LinearNode, atol: f64, rtol: f64) -> bool {
        self.pop == other.pop
            && self.rows.approx_eq(&other.rows, atol, rtol)
            && self.offsets.approx_eq(&other.offsets, atol, rtol)
    }
}

/// What the combination rules ([`crate::expand`], [`crate::pipeline`],
/// [`crate::splitjoin`]) run on: a node's exact coefficients
/// ([`LinearNode`]) or only where they can be nonzero
/// ([`Shape`](crate::shape::Shape)). Each rule checks rates and sizes once,
/// for both forms, so both refuse the same combinations; a form supplies
/// only the rows the rule moves.
pub trait Form: Sized {
    /// Peek rate.
    fn peek(&self) -> usize;
    /// Pop rate.
    fn pop(&self) -> usize;
    /// Push rate.
    fn push(&self) -> usize;
    /// Nonzero coefficients (an upper bound for a shape).
    fn nnz_a(&self) -> usize;
    /// Nonzero offsets (an upper bound for a shape).
    fn nnz_b(&self) -> usize;
    /// The body of [`expand`](crate::expand::expand), its checks passed:
    /// output `m·push + j` is output `j` with its window shifted by
    /// `m·pop`, on a window of `peek2`.
    fn shifted_copies(&self, peek2: usize, pop2: usize, push2: usize) -> Self;
    /// The body of pipeline combination: `down` expanded to peek at the
    /// whole channel, composed with `up` as if it were expanded to a
    /// window of `peek` and `down.peek()` outputs.
    fn compose(up: &Self, peek: usize, down: &Self, pop: usize) -> Self;
    /// Output `r` is output `q` of `parts[k]` for `(k, q) = order[r]`; every
    /// part has the window `peek`. The body of duplicate splitjoin
    /// combination.
    fn gather(parts: &[Self], order: &[(usize, usize)], peek: usize, pop: usize) -> Self;
    /// The round-robin decimator that keeps items `first..first + v_k` of
    /// every `v_tot`.
    fn decimator(v_tot: usize, first: usize, v_k: usize) -> Self;
}

impl Form for LinearNode {
    fn peek(&self) -> usize {
        LinearNode::peek(self)
    }
    fn pop(&self) -> usize {
        LinearNode::pop(self)
    }
    fn push(&self) -> usize {
        LinearNode::push(self)
    }
    fn nnz_a(&self) -> usize {
        LinearNode::nnz_a(self)
    }
    fn nnz_b(&self) -> usize {
        LinearNode::nnz_b(self)
    }
    fn shifted_copies(&self, peek2: usize, pop2: usize, push2: usize) -> Self {
        crate::expand::shifted_copies(self, peek2, pop2, push2)
    }
    fn compose(up: &Self, peek: usize, down: &Self, pop: usize) -> Self {
        crate::pipeline::compose(up, peek, down, pop)
    }
    fn gather(parts: &[Self], order: &[(usize, usize)], peek: usize, pop: usize) -> Self {
        crate::splitjoin::gather(parts, order, peek, pop)
    }
    fn decimator(v_tot: usize, first: usize, v_k: usize) -> Self {
        crate::splitjoin::decimator(v_tot, first, v_k)
    }
}

impl std::fmt::Display for LinearNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Λ{{peek={}, pop={}, push={}, nnz={}}}",
            self.peek(),
            self.pop(),
            self.push(),
            self.nnz_a()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_3_1_example() {
        // ExampleFilter from Figure 3-1: peek 3, pop 1, push 2.
        let node = LinearNode::from_coeffs(
            3,
            1,
            2,
            |i, j| match (i, j) {
                (2, 0) => 3.0,
                (1, 0) => 5.0,
                (2, 1) => 2.0,
                (0, 1) => 1.0,
                _ => 0.0,
            },
            &[0.0, 6.0],
        );
        assert_eq!(node.peek(), 3);
        assert_eq!(node.pop(), 1);
        assert_eq!(node.push(), 2);
        // window: peek(0)=1, peek(1)=10, peek(2)=100
        let out = node.fire(&[1.0, 10.0, 100.0]);
        assert_eq!(out, vec![3.0 * 100.0 + 5.0 * 10.0, 2.0 * 100.0 + 1.0 + 6.0]);
    }

    #[test]
    fn fir_node_matches_convolution_sum() {
        let w = [2.0, -1.0, 0.5];
        let node = LinearNode::fir(&w);
        let input = [1.0, 2.0, 3.0, 4.0, 5.0];
        let out = node.fire_sequence(&input);
        assert_eq!(out.len(), 3);
        for (k, &y) in out.iter().enumerate() {
            let expect: f64 = (0..3).map(|i| w[i] * input[k + i]).sum();
            assert!((y - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn identity_node_passes_data_through() {
        let node = LinearNode::identity(3);
        let out = node.fire(&[7.0, 8.0, 9.0]);
        assert_eq!(out, vec![7.0, 8.0, 9.0]);
    }

    #[test]
    fn coeff_and_offset_round_trip() {
        let node = LinearNode::from_coeffs(4, 2, 3, |i, j| (10 * i + j) as f64, &[0.5, 1.5, 2.5]);
        for i in 0..4 {
            for j in 0..3 {
                assert_eq!(node.coeff(i, j), (10 * i + j) as f64);
            }
        }
        assert_eq!(node.offset(0), 0.5);
        assert_eq!(node.offset(2), 2.5);
    }

    #[test]
    fn sink_and_source_shapes() {
        // A sink: peek 2, pop 2, push 0.
        let sink = LinearNode::new(Matrix::zeros(2, 0), Vector::zeros(0), 2).unwrap();
        assert_eq!(sink.fire(&[1.0, 2.0]), Vec::<f64>::new());
        // A constant source: peek 0, pop 0, push 1 with offset 5.
        let src = LinearNode::new(Matrix::zeros(0, 1), Vector::from(vec![5.0]), 0).unwrap();
        assert_eq!(src.fire(&[]), vec![5.0]);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let err = LinearNode::new(Matrix::zeros(2, 3), Vector::zeros(2), 1).unwrap_err();
        assert!(matches!(err, LinearError::OffsetShapeMismatch { .. }));
    }

    #[test]
    fn offsets_are_added_every_firing() {
        let node = LinearNode::from_coeffs(1, 1, 1, |_, _| 2.0, &[10.0]);
        assert_eq!(node.fire_sequence(&[1.0, 2.0, 3.0]), vec![12.0, 14.0, 16.0]);
    }

    #[test]
    fn nnz_counts() {
        let node = LinearNode::fir(&[1.0, 0.0, 3.0]);
        assert_eq!(node.nnz_a(), 2);
        assert_eq!(node.nnz_b(), 0);
    }
}
