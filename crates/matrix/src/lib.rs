//! Dense matrix and vector storage for the `streamlin` linear analysis.
//!
//! The paper represents every linear filter as a matrix `A` and offset
//! vector `b` (Definition 1). This crate is the storage under that
//! representation: a small, dependency-free, row-major dense [`Matrix`]
//! and row [`Vector`], with row access for the kernels and the combination
//! rules, and sparsity counts for the cost model.
//!
//! Degenerate shapes are first-class: a sink filter pushes nothing and a
//! source pops nothing, so either axis may be empty.
//!
//! # Examples
//!
//! ```
//! use streamlin_matrix::Matrix;
//!
//! let mut a = Matrix::zeros(2, 3);
//! a.row_mut(1).copy_from_slice(&[1.0, 0.0, 4.0]);
//! assert_eq!(a.row(1), &[1.0, 0.0, 4.0]);
//! assert_eq!(a.nnz(0.0), 2);
//! ```

mod matrix;
mod vector;

pub use matrix::Matrix;
pub use vector::Vector;
