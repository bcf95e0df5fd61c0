//! Property tests for the matrix crate.

use proptest::prelude::*;
use streamlin_matrix::Matrix;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-8i32..=8, rows * cols)
        .prop_map(move |v| Matrix::from_fn(rows, cols, |r, c| v[r * cols + c] as f64))
}

proptest! {
    #[test]
    fn nnz_bounds(a in arb_matrix(3, 5)) {
        prop_assert!(a.nnz(0.0) <= 15);
        prop_assert_eq!(a.scale(0.0).nnz(0.0), 0);
    }
}
