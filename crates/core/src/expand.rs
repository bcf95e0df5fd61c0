//! Linear expansion (paper §3.3.1, Transformation 1).

use streamlin_matrix::{Matrix, Vector};

use crate::node::{LinearError, LinearNode, MAX_MATRIX_ELEMS};

/// Expands a linear node to rates `(peek', pop', push')`.
///
/// The expanded matrix contains copies of `A` along the diagonal starting
/// from the bottom right, each copy offset by `pop` rows (one firing's
/// worth of tape movement) and `push` columns; if `push'` is not a multiple
/// of `push`, the last copy keeps only its rightmost columns (the earliest
/// outputs). Extra rows at the top stay zero (items peeked but unused).
/// The expanded offset repeats `b` cyclically.
///
/// When `push' = k·push` and `pop' = k·pop`, the expanded node is exactly
/// interchangeable with `k` firings of the original. Other combinations
/// (used by pipeline combination when the downstream filter peeks) make the
/// node *recompute* overlapping outputs, trading computation for buffering
/// exactly as §3.3.2 describes.
///
/// # Errors
///
/// * [`LinearError::NotCombinable`] if `push == 0` but `push' > 0`, or if
///   `peek'` is too small to cover every copy of `A`.
/// * [`LinearError::TooLarge`] if the expanded matrix exceeds the size
///   guard.
///
/// # Examples
///
/// ```
/// use streamlin_core::expand::expand;
/// use streamlin_core::node::LinearNode;
///
/// // Figure 3-4: FIR with weights [2, 1] expanded to peek 4, pop 1, push 3.
/// let node = LinearNode::fir(&[1.0, 2.0]);
/// let e = expand(&node, 4, 1, 3).unwrap();
/// assert_eq!(e.peek(), 4);
/// assert_eq!(e.push(), 3);
/// // Output j of the expansion = original output at window offset j.
/// assert_eq!(e.coeff(0, 0), 1.0);
/// assert_eq!(e.coeff(1, 0), 2.0);
/// assert_eq!(e.coeff(1, 1), 1.0);
/// assert_eq!(e.coeff(2, 1), 2.0);
/// ```
pub fn expand(
    node: &LinearNode,
    peek2: usize,
    pop2: usize,
    push2: usize,
) -> Result<LinearNode, LinearError> {
    let (e, o, u) = (node.peek(), node.pop(), node.push());
    if push2 == 0 {
        // A sink expansion: no outputs, only a (possibly taller) window.
        return Ok(LinearNode::from_rows(
            Matrix::zeros(0, peek2),
            Vector::zeros(0),
            pop2,
        ));
    }
    if u == 0 {
        return Err(LinearError::NotCombinable(
            "cannot expand a node with push = 0 to a positive push rate".into(),
        ));
    }
    let copies = push2.div_ceil(u);
    let needed = (copies - 1) * o + e;
    if peek2 < needed {
        return Err(LinearError::NotCombinable(format!(
            "expansion to push {push2} needs peek >= {needed}, got {peek2}"
        )));
    }
    if peek2.saturating_mul(push2) > MAX_MATRIX_ELEMS {
        return Err(LinearError::TooLarge {
            rows: peek2,
            cols: push2,
        });
    }
    // Output `m·u + j` is copy `m` of output `j`, its window shifted by
    // `m·o`. The copy is added onto zeros, as the paper's sum of shifted
    // copies is, so a `-0.0` coefficient lands as `+0.0`.
    let mut rows = Matrix::zeros(push2, peek2);
    for out in 0..push2 {
        let (m, j) = (out / u, out % u);
        let dst = &mut rows.row_mut(out)[m * o..m * o + e];
        for (d, &c) in dst.iter_mut().zip(node.row(j)) {
            *d += c;
        }
    }
    let offsets: Vector = (0..push2).map(|out| node.offset(out % u)).collect();
    Ok(LinearNode::from_rows(rows, offsets, pop2))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference semantics of expansion: output group `g` (0-based, in
    /// output order) equals the original node fired on the window starting
    /// at `g*pop`.
    fn reference_expand_outputs(
        node: &LinearNode,
        peek2: usize,
        push2: usize,
        window: &[f64],
    ) -> Vec<f64> {
        assert_eq!(window.len(), peek2);
        let mut out = Vec::new();
        let mut g = 0;
        while out.len() < push2 {
            let start = g * node.pop();
            let w = &window[start..start + node.peek()];
            for y in node.fire(w) {
                if out.len() < push2 {
                    out.push(y);
                }
            }
            g += 1;
        }
        out
    }

    fn window(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i * i % 17) as f64 - 3.0).collect()
    }

    #[test]
    fn k_fold_expansion_equals_k_firings() {
        let node = LinearNode::from_coeffs(
            3,
            2,
            2,
            |i, j| (i + 1) as f64 * (j + 2) as f64,
            &[1.0, -1.0],
        );
        for k in 1..=4 {
            let e2 = node.peek() + (k - 1) * node.pop();
            let exp = expand(&node, e2, k * node.pop(), k * node.push()).unwrap();
            let w = window(e2);
            let got = exp.fire(&w);
            let want = reference_expand_outputs(&node, e2, k * node.push(), &w);
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-9, "{got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn partial_last_copy_keeps_early_outputs() {
        // push' = 3 with u = 2: the second copy contributes only output 2.
        let node = LinearNode::from_coeffs(2, 1, 2, |i, j| (10 * i + j + 1) as f64, &[5.0, 7.0]);
        let e2 = 3; // (ceil(3/2)-1)*1 + 2
        let exp = expand(&node, e2, 1, 3).unwrap();
        let w = window(e2);
        let want = reference_expand_outputs(&node, e2, 3, &w);
        assert_eq!(exp.fire(&w), want);
        // offsets cycle through b in output order
        assert_eq!(exp.offset(0), 5.0);
        assert_eq!(exp.offset(1), 7.0);
        assert_eq!(exp.offset(2), 5.0);
    }

    #[test]
    fn overlapping_expansion_recomputes() {
        // pop' smaller than copies*pop: outputs overlap between firings —
        // the pipeline-combination case. Semantics of a single firing are
        // still "output group g reads window at g*pop".
        let node = LinearNode::fir(&[1.0, 2.0, 3.0]);
        let exp = expand(&node, 5, 1, 3).unwrap();
        let w = window(5);
        assert_eq!(exp.fire(&w), reference_expand_outputs(&node, 5, 3, &w));
        assert_eq!(exp.pop(), 1);
    }

    #[test]
    fn padding_rows_are_zero() {
        let node = LinearNode::fir(&[1.0]);
        let exp = expand(&node, 4, 1, 2).unwrap();
        // rows 0..2 (peeks 2..3) unused
        assert_eq!(exp.coeff(3, 0), 0.0);
        assert_eq!(exp.coeff(2, 1), 0.0);
        assert_eq!(exp.coeff(0, 0), 1.0);
        assert_eq!(exp.coeff(1, 1), 1.0);
    }

    #[test]
    fn sink_expansion() {
        let sink = LinearNode::new(Matrix::zeros(2, 0), Vector::zeros(0), 2).unwrap();
        let exp = expand(&sink, 6, 6, 0).unwrap();
        assert_eq!(exp.peek(), 6);
        assert_eq!(exp.push(), 0);
    }

    #[test]
    fn insufficient_peek_is_rejected() {
        let node = LinearNode::fir(&[1.0, 2.0]);
        let err = expand(&node, 2, 2, 4).unwrap_err();
        assert!(matches!(err, LinearError::NotCombinable(_)));
    }

    #[test]
    fn source_cannot_gain_outputs() {
        let sink = LinearNode::new(Matrix::zeros(2, 0), Vector::zeros(0), 2).unwrap();
        assert!(expand(&sink, 2, 2, 1).is_err());
    }
}
