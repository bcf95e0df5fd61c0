//! The linear node representation (paper §3.1, Definition 1).

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
/// `A` is a `peek × push` matrix and `b` a `push`-element row vector such
/// that one firing computes `y = x·A + b`, where `x[i] = peek(peek-1-i)`
/// and `y[push-1-j]` is the `j`-th value pushed. We store `A`/`b` in
/// exactly the paper's orientation — row `peek−1−i` corresponds to
/// `peek(i)`, column `push−1−j` to output `j` — so every transformation
/// formula transcribes literally; use [`coeff`](Self::coeff) /
/// [`offset`](Self::offset) for the natural orientation.
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
/// // The paper's matrix: row peek−1−i ↔ peek(i), column push−1−j ↔ push j,
/// // so output 0 lives in the rightmost column.
/// assert_eq!(node.a().row(0), &[2.0, 3.0]); // peek(2) weights
/// assert_eq!(node.a().row(1), &[0.0, 5.0]); // peek(1) weights
/// assert_eq!(node.a().row(2), &[1.0, 0.0]); // peek(0) weights
/// assert_eq!(node.b().as_slice(), &[6.0, 0.0]);
/// assert_eq!(node.fire(&[10.0, 100.0, 1000.0]), vec![3500.0, 2016.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearNode {
    a: Matrix,
    b: Vector,
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
        Ok(LinearNode { a, b, pop })
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
        let a = Matrix::from_fn(peek, push, |r, c| {
            // row r ↔ peek(peek-1-r), column c ↔ output push-1-c
            coeff(peek - 1 - r, push - 1 - c)
        });
        let b: Vector = (0..push).map(|c| offsets[push - 1 - c]).collect();
        LinearNode { a, b, pop }
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
        self.a.rows()
    }

    /// Pop rate.
    pub fn pop(&self) -> usize {
        self.pop
    }

    /// Push rate (columns of `A`).
    pub fn push(&self) -> usize {
        self.a.cols()
    }

    /// The paper-oriented matrix.
    pub fn a(&self) -> &Matrix {
        &self.a
    }

    /// The paper-oriented offset vector.
    pub fn b(&self) -> &Vector {
        &self.b
    }

    /// Weight of `peek(peek_idx)` in output `out_idx` (natural orientation).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn coeff(&self, peek_idx: usize, out_idx: usize) -> f64 {
        self.a[(self.peek() - 1 - peek_idx, self.push() - 1 - out_idx)]
    }

    /// Additive constant of output `out_idx` (natural orientation).
    ///
    /// # Panics
    ///
    /// Panics if `out_idx` is out of range.
    pub fn offset(&self, out_idx: usize) -> f64 {
        self.b[self.push() - 1 - out_idx]
    }

    /// Number of non-zero entries of `A` (used by the cost model).
    pub fn nnz_a(&self) -> usize {
        self.a.nnz(0.0)
    }

    /// Number of non-zero entries of `b`.
    pub fn nnz_b(&self) -> usize {
        self.b.nnz(0.0)
    }

    /// Bytes its coefficients occupy: `A` and `b`, counted from their
    /// lengths.
    pub fn table_bytes(&self) -> usize {
        8 * (self.a.rows() * self.a.cols() + self.b.len())
    }

    /// Fires the node once on a window (`window[i] = peek(i)`,
    /// `window.len() == peek`), returning outputs in push order.
    ///
    /// # Panics
    ///
    /// Panics if the window length differs from the peek rate.
    pub fn fire(&self, window: &[f64]) -> Vec<f64> {
        assert_eq!(window.len(), self.peek(), "window must equal the peek rate");
        let (e, u) = (self.peek(), self.push());
        let mut out = Vec::with_capacity(u);
        for j in 0..u {
            let mut acc = self.b[u - 1 - j];
            for (i, &x) in window.iter().enumerate() {
                acc += self.a[(e - 1 - i, u - 1 - j)] * x;
            }
            out.push(acc);
        }
        out
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
            && self.a.approx_eq(&other.a, atol, rtol)
            && self.b.approx_eq(&other.b, atol, rtol)
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
