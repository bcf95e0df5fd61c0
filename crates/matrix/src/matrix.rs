//! Row-major dense matrix.

use streamlin_support::num::approx_eq;

/// A dense, row-major matrix of `f64`.
///
/// Shapes with zero rows or zero columns are valid and arise naturally for
/// source (`0 × push`) and sink (`peek × 0`) linear nodes.
///
/// # Examples
///
/// ```
/// use streamlin_matrix::Matrix;
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "ragged rows in Matrix::from_rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols: ncols,
            data,
        }
    }

    /// Creates a matrix whose entry `(r, c)` is `f(r, c)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of the entry at `(row, col)`, or `None` if out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        (row < self.rows && col < self.cols).then(|| self.data[row * self.cols + col])
    }

    /// A view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Column `c` collected into a vector.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col {c} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// The underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix sum shape mismatch"
        );
        let mut out = self.clone();
        for (o, &b) in out.data.iter_mut().zip(&rhs.data) {
            *o += b;
        }
        out
    }

    /// Scalar multiple.
    pub fn scale(&self, k: f64) -> Matrix {
        let mut out = self.clone();
        for o in &mut out.data {
            *o *= k;
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Number of entries with `|x| > eps`.
    pub fn nnz(&self, eps: f64) -> usize {
        self.data.iter().filter(|x| x.abs() > eps).count()
    }

    /// True if every entry differs by at most `atol + rtol·max(|a|,|b|)`.
    pub fn approx_eq(&self, rhs: &Matrix, atol: f64, rtol: f64) -> bool {
        self.rows == rhs.rows
            && self.cols == rhs.cols
            && self
                .data
                .iter()
                .zip(&rhs.data)
                .all(|(&a, &b)| approx_eq(a, b, atol, rtol))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "matrix index ({r},{c}) out of bounds ({}x{})",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "matrix index ({r},{c}) out of bounds ({}x{})",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "[{}x{}]", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  [")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.nnz(0.0), 0);
        let i = Matrix::identity(3);
        assert_eq!(i.nnz(0.0), 3);
        assert_eq!(i[(1, 1)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(2, 5, |r, c| (r + 10 * c) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(3, 1)], a[(1, 3)]);
    }

    #[test]
    fn add_and_scale() {
        let a = Matrix::from_rows(&[&[1.0, -1.0]]);
        let b = Matrix::from_rows(&[&[2.0, 3.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[3.0, 2.0]]));
        assert_eq!(a.scale(-2.0), Matrix::from_rows(&[&[-2.0, 2.0]]));
    }

    #[test]
    fn column_accessors() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.col(1), vec![2.0, 4.0]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        let mut b = Matrix::zeros(2, 2);
        b.row_mut(0).copy_from_slice(a.row(1));
        assert_eq!(b.col(0), vec![3.0, 0.0]);
    }

    #[test]
    fn nnz_respects_epsilon() {
        let a = Matrix::from_rows(&[&[1e-12, 0.5]]);
        assert_eq!(a.nnz(1e-9), 1);
        assert_eq!(a.nnz(0.0), 2);
    }

    #[test]
    fn approx_eq_tolerates_noise() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0 + 1e-12, 2.0]]);
        assert!(a.approx_eq(&b, 1e-9, 1e-9));
        assert!(!a.approx_eq(&Matrix::zeros(1, 2), 1e-9, 1e-9));
        assert!(!a.approx_eq(&Matrix::zeros(2, 1), 1e-9, 1e-9));
    }

    #[test]
    #[should_panic]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[&[1.0], &[1.0, 2.0][..]]);
    }

    #[test]
    fn get_is_checked() {
        let a = Matrix::zeros(1, 1);
        assert_eq!(a.get(0, 0), Some(0.0));
        assert_eq!(a.get(1, 0), None);
    }
}
