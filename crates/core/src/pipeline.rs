//! Pipeline combination (paper §3.3.2, Transformation 2).

use streamlin_matrix::{Matrix, Vector};
use streamlin_support::num::lcm;

use crate::expand::expand;
use crate::node::{LinearError, LinearNode, MAX_MATRIX_ELEMS};

/// Collapses two adjacent linear nodes in a pipeline into one.
///
/// Following Transformation 2, both nodes are expanded so that the upstream
/// push matches the downstream window:
///
/// ```text
/// chanPop  = lcm(u₁, o₂)
/// chanPeek = chanPop + e₂ − o₂
/// Λ₁ᵉ = expand(Λ₁, (⌈chanPeek/u₁⌉−1)·o₁ + e₁, (chanPop/u₁)·o₁, chanPeek)
/// Λ₂ᵉ = expand(Λ₂, chanPeek, chanPop, (chanPop/o₂)·u₂)
/// A′ = A₁ᵉ·A₂ᵉ      b′ = b₁ᵉ·A₂ᵉ + b₂ᵉ
/// ```
///
/// When the downstream node peeks beyond what it pops (`e₂ > o₂`), the
/// upstream expansion *recomputes* the `chanPeek − chanPop` overlapped
/// items on every firing — trading computation for the buffer a linear
/// node cannot hold (§3.3.2).
///
/// # Errors
///
/// * [`LinearError::NotCombinable`] if the upstream node pushes nothing or
///   the downstream node pops nothing (no channel to collapse).
/// * [`LinearError::TooLarge`] if an intermediate matrix exceeds the size
///   guard — the combination-induced blowup the paper observes on Radar.
///
/// # Examples
///
/// The back-to-back FIR example of Figure 3-4:
///
/// ```
/// use streamlin_core::node::LinearNode;
/// use streamlin_core::pipeline::combine_pipeline;
///
/// let f1 = LinearNode::fir(&[1.0, 2.0]); // weights [2,1] in paper order
/// let f2 = LinearNode::fir(&[3.0, 4.0, 5.0]);
/// let c = combine_pipeline(&f1, &f2).unwrap();
/// assert_eq!((c.peek(), c.pop(), c.push()), (4, 1, 1));
/// ```
pub fn combine_pipeline(a1: &LinearNode, a2: &LinearNode) -> Result<LinearNode, LinearError> {
    let (e1, o1, u1) = (a1.peek(), a1.pop(), a1.push());
    let (e2, o2, u2) = (a2.peek(), a2.pop(), a2.push());
    if u1 == 0 {
        return Err(LinearError::NotCombinable(
            "upstream node pushes nothing; nothing flows into the downstream node".into(),
        ));
    }
    if o2 == 0 {
        return Err(LinearError::NotCombinable(
            "downstream node pops nothing; it cannot consume the upstream output".into(),
        ));
    }
    let chan_pop = lcm(u1 as u64, o2 as u64) as usize;
    let chan_peek = chan_pop + e2 - o2;

    let copies1 = chan_peek.div_ceil(u1);
    let e1x = (copies1 - 1) * o1 + e1;
    let o1x = (chan_pop / u1) * o1;
    let u2x = (chan_pop / o2) * u2;

    // Guard the intermediate products before allocating.
    for (r, c) in [(e1x, chan_peek), (chan_peek, u2x), (e1x, u2x)] {
        if r.saturating_mul(c) > MAX_MATRIX_ELEMS {
            return Err(LinearError::TooLarge { rows: r, cols: c });
        }
    }

    let a1e = expand(a1, e1x, o1x, chan_peek)?;
    let a2e = expand(a2, chan_peek, chan_pop, u2x)?;

    Ok(compose(&a1e, &a2e, o1x))
}

/// `A′ = A₁ᵉ·A₂ᵉ`, `b′ = b₁ᵉ·A₂ᵉ + b₂ᵉ` on the stored rows.
///
/// Every entry is summed in the order the paper-layout product sums it:
/// over the channel index `k` of `A₁ᵉ[r, k]·A₂ᵉ[k, c]` from 0 up — channel
/// item `chanPeek−1−k` from the last down — starting from `+0.0` and
/// skipping the terms whose left factor is zero. So the combined
/// coefficients are the bits `A₁ᵉ·A₂ᵉ` would give.
fn compose(up: &LinearNode, down: &LinearNode, pop: usize) -> LinearNode {
    let (e, chan, u) = (up.peek(), up.push(), down.push());
    debug_assert_eq!(chan, down.peek());
    let mut rows = Matrix::zeros(u, e);
    let mut offsets = vec![0.0; u];
    for q in (0..chan).rev() {
        // An expanded row is zero outside one shifted copy: sweep only
        // its non-zero span.
        let row = up.row(q);
        let first = row.iter().position(|&a| a != 0.0).unwrap_or(row.len());
        let last = row.iter().rposition(|&a| a != 0.0).map_or(first, |l| l + 1);
        let offset = up.offset(q);
        for (j, acc) in offsets.iter_mut().enumerate() {
            let w = down.coeff(q, j);
            if offset != 0.0 {
                *acc += offset * w;
            }
            let dst = &mut rows.row_mut(j)[first..last];
            for (d, &a) in dst.iter_mut().zip(&row[first..last]) {
                if a != 0.0 {
                    *d += a * w;
                }
            }
        }
    }
    for (acc, &b) in offsets.iter_mut().zip(down.offsets()) {
        *acc += b;
    }
    LinearNode::from_rows(rows, Vector::from(offsets), pop)
}

/// Folds [`combine_pipeline`] over a whole sequence of linear nodes.
///
/// # Errors
///
/// Propagates the first combination failure.
///
/// # Panics
///
/// Panics on an empty sequence.
pub fn combine_pipeline_all(nodes: &[LinearNode]) -> Result<LinearNode, LinearError> {
    assert!(!nodes.is_empty(), "cannot combine an empty pipeline");
    let mut acc = nodes[0].clone();
    for next in &nodes[1..] {
        acc = combine_pipeline(&acc, next)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{run_reference, RefStream};

    fn input(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7 + 1) % 13) as f64 - 6.0).collect()
    }

    fn assert_equivalent(a1: &LinearNode, a2: &LinearNode) {
        let combined = combine_pipeline(a1, a2).unwrap();
        let x = input(64);
        let want = run_reference(
            &RefStream::Pipeline(vec![
                RefStream::Node(a1.clone()),
                RefStream::Node(a2.clone()),
            ]),
            &x,
        );
        let got = combined.fire_sequence(&x);
        let n = got.len().min(want.len());
        assert!(n > 0, "no overlapping outputs to compare");
        for i in 0..n {
            assert!(
                (got[i] - want[i]).abs() < 1e-9,
                "mismatch at {i}: {} vs {} (combined {combined})",
                got[i],
                want[i]
            );
        }
    }

    #[test]
    fn figure_3_4_back_to_back_firs() {
        // Paper Figure 3-4: [2,1] then [5,4,3] (their A-matrices).
        // In our natural orientation: f1 weights such that coeff(peek i).
        let f1 = LinearNode::fir(&[1.0, 2.0]);
        let f2 = LinearNode::fir(&[3.0, 4.0, 5.0]);
        let c = combine_pipeline(&f1, &f2).unwrap();
        assert_eq!((c.peek(), c.pop(), c.push()), (4, 1, 1));
        // Combined = convolution of the weight vectors: [3, 10, 13, 10].
        assert_eq!(c.coeff(0, 0), 3.0);
        assert_eq!(c.coeff(1, 0), 10.0);
        assert_eq!(c.coeff(2, 0), 13.0);
        assert_eq!(c.coeff(3, 0), 10.0);
        assert_equivalent(&f1, &f2);
    }

    #[test]
    fn motivating_example_halves_multiplies() {
        // Figure 1-4: two N-tap FIRs collapse to one 2N-1-tap FIR.
        let w1: Vec<f64> = (0..8).map(|i| (i + 1) as f64).collect();
        let w2: Vec<f64> = (0..8).map(|i| (8 - i) as f64).collect();
        let f1 = LinearNode::fir(&w1);
        let f2 = LinearNode::fir(&w2);
        let c = combine_pipeline(&f1, &f2).unwrap();
        assert_eq!(c.peek(), 15);
        assert_eq!(c.nnz_a(), 15);
        assert_equivalent(&f1, &f2);
    }

    #[test]
    fn rate_mismatched_nodes_expand() {
        // u1 = 2 feeding o2 = 3: chanPop = 6.
        let a1 = LinearNode::from_coeffs(3, 1, 2, |i, j| (i + j + 1) as f64, &[0.5, -0.5]);
        let a2 = LinearNode::from_coeffs(3, 3, 2, |i, j| (2 * i + j) as f64, &[1.0, 2.0]);
        let c = combine_pipeline(&a1, &a2).unwrap();
        assert_eq!(c.pop() % a1.pop(), 0);
        assert_equivalent(&a1, &a2);
    }

    #[test]
    fn downstream_peeking_recomputes() {
        // e2 > o2 forces the overlapping expansion.
        let a1 = LinearNode::fir(&[1.0, -1.0]);
        let a2 = LinearNode::from_coeffs(4, 2, 1, |i, _| (i + 1) as f64, &[0.0]);
        let c = combine_pipeline(&a1, &a2).unwrap();
        assert!(c.peek() > a1.peek());
        assert_equivalent(&a1, &a2);
    }

    #[test]
    fn offsets_propagate_through_downstream_matrix() {
        // b' = b1·A2 + b2: upstream constant must be weighted by A2.
        let a1 = LinearNode::from_coeffs(1, 1, 1, |_, _| 1.0, &[10.0]);
        let a2 = LinearNode::from_coeffs(1, 1, 1, |_, _| 3.0, &[5.0]);
        let c = combine_pipeline(&a1, &a2).unwrap();
        assert_eq!(c.offset(0), 35.0);
        assert_equivalent(&a1, &a2);
    }

    #[test]
    fn combining_into_a_sink() {
        let a1 = LinearNode::fir(&[2.0, 1.0]);
        let sink = LinearNode::new(
            streamlin_matrix::Matrix::zeros(2, 0),
            streamlin_matrix::Vector::zeros(0),
            2,
        )
        .unwrap();
        let c = combine_pipeline(&a1, &sink).unwrap();
        assert_eq!(c.push(), 0);
        assert_eq!(c.pop(), 2);
    }

    #[test]
    fn worst_case_outer_product_blowup() {
        // Column vector (u=1) into row vector (pushes more than it peeks):
        // O(N) ops originally, O(N^2) combined — the case §3.3.2 warns
        // about; combination still must be *correct*.
        let col = LinearNode::fir(&[1.0, 2.0, 3.0, 4.0]);
        let row = LinearNode::from_coeffs(1, 1, 4, |_, j| (j + 1) as f64, &[0.0; 4]);
        let c = combine_pipeline(&col, &row).unwrap();
        assert_eq!(c.push(), 4);
        assert!(c.nnz_a() > col.nnz_a() + row.nnz_a());
        assert_equivalent(&col, &row);
    }

    #[test]
    fn chain_of_three() {
        let nodes = vec![
            LinearNode::fir(&[1.0, 1.0]),
            LinearNode::fir(&[1.0, -1.0]),
            LinearNode::fir(&[0.5, 0.25]),
        ];
        let c = combine_pipeline_all(&nodes).unwrap();
        let x = input(32);
        let want = run_reference(
            &RefStream::Pipeline(nodes.into_iter().map(RefStream::Node).collect()),
            &x,
        );
        let got = c.fire_sequence(&x);
        for i in 0..got.len().min(want.len()) {
            assert!((got[i] - want[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn source_downstream_is_rejected() {
        let a1 = LinearNode::fir(&[1.0]);
        let src = LinearNode::new(
            streamlin_matrix::Matrix::zeros(0, 1),
            streamlin_matrix::Vector::from(vec![1.0]),
            0,
        )
        .unwrap();
        assert!(combine_pipeline(&a1, &src).is_err());
        assert!(combine_pipeline(&src, &a1).is_ok()); // const source into FIR is fine
    }
}
